from __future__ import annotations

import hashlib

import pytest

from fogtrace.cloudstore import CloudClient, CloudUnreachableError
from fogtrace.gateway import Outbox, finalize_and_upload, flush_outbox
from fogtrace.gateway.envelope import AuthenticationError, open_envelope, seal
from fogtrace.gateway.records import Pairing, SessionManifest
from fogtrace.gateway.uploader import KeyMissingError, UploadRejectedError


def make_manifest(row_count=1) -> SessionManifest:
    return SessionManifest(
        session_id="sess-1",
        driver_id="drv",
        vehicle_id="veh",
        started_at=1,
        ended_at=2,
        devices=(Pairing("polar-1", "polar-h7", "gw-1", 0),),
        row_count=row_count,
        csv_sha256="00" * 32,
    )


CSV = b"timestamp_ms,source,channel,value,unit,interpolated\n"


class TestOutbox:
    def test_put_pending_load_remove(self, tmp_path):
        outbox = Outbox(tmp_path / "outbox")
        ref = outbox.put(b"envelope bytes", b"{}")
        assert outbox.pending() == [ref]
        envelope, manifest = outbox.load(ref)
        assert envelope == b"envelope bytes"
        assert manifest == b"{}"
        outbox.remove(ref)
        assert outbox.pending() == []

    def test_ref_is_content_hash(self, tmp_path):
        outbox = Outbox(tmp_path / "outbox")
        ref = outbox.put(b"abc", b"{}")
        assert ref == hashlib.sha256(b"abc").hexdigest()


class TestFinalizeAndUpload:
    def test_happy_path(self, sim_clock, key, tmp_path, cloud_client):
        outbox = Outbox(tmp_path / "outbox")
        manifest = make_manifest()
        receipt = finalize_and_upload(CSV, manifest, key, cloud_client, outbox, sim_clock)
        assert outbox.pending() == []
        blob, metadata = cloud_client.get_trace(receipt.trace_ref)
        assert hashlib.sha256(blob).hexdigest() == receipt.trace_ref
        assert open_envelope(blob, manifest.to_json(), key) == CSV
        assert metadata["manifest"]["session_id"] == "sess-1"

    def test_missing_key_rejected(self, sim_clock, tmp_path, cloud_client):
        with pytest.raises(KeyMissingError):
            finalize_and_upload(
                CSV, make_manifest(), None, cloud_client, Outbox(tmp_path / "o"), sim_clock
            )

    def test_cloud_down_persists_envelope(self, sim_clock, key, tmp_path):
        dead = CloudClient("http://127.0.0.1:9", "gw", "gw-secret", timeout_s=0.2)
        outbox = Outbox(tmp_path / "outbox")
        with pytest.raises(CloudUnreachableError):
            finalize_and_upload(
                CSV, make_manifest(), key, dead, outbox, sim_clock, retries=1, backoff_ms=1.0
            )
        assert len(outbox.pending()) == 1

    def test_receipt_mismatch_rejected(self, sim_clock, key, tmp_path):
        class LyingClient:
            def upload_trace(self, manifest_json, blob):
                return {"trace_ref": "ff" * 32, "size_bytes": len(blob), "sha256": "ff" * 32}

        outbox = Outbox(tmp_path / "outbox")
        with pytest.raises(UploadRejectedError):
            finalize_and_upload(CSV, make_manifest(), key, LyingClient(), outbox, sim_clock)
        # The envelope must remain queued when the store misbehaves.
        assert len(outbox.pending()) == 1


class TestFlushOutbox:
    def test_pending_envelopes_upload_on_next_run(self, sim_clock, key, tmp_path, cloud_client):
        outbox = Outbox(tmp_path / "outbox")
        manifest = make_manifest()
        dead = CloudClient("http://127.0.0.1:9", "gw", "gw-secret", timeout_s=0.2)
        with pytest.raises(CloudUnreachableError):
            finalize_and_upload(CSV, manifest, key, dead, outbox, sim_clock, retries=0)
        assert len(outbox.pending()) == 1

        receipts, remaining = flush_outbox(outbox, cloud_client, sim_clock)
        assert remaining == []
        assert len(receipts) == 1
        assert outbox.pending() == []
        blob, _ = cloud_client.get_trace(receipts[0].trace_ref)
        assert open_envelope(blob, manifest.to_json(), key) == CSV

    def test_flush_with_store_down_keeps_pending(self, sim_clock, key, tmp_path):
        outbox = Outbox(tmp_path / "outbox")
        outbox.put(seal(CSV, b"{}", key), b"{}")
        dead = CloudClient("http://127.0.0.1:9", "gw", "gw-secret", timeout_s=0.2)
        receipts, remaining = flush_outbox(outbox, dead, sim_clock)
        assert receipts == []
        assert len(remaining) == 1
        assert len(outbox.pending()) == 1

    def test_flush_with_wrong_receipt_size_keeps_pending(self, sim_clock, key, tmp_path):
        class ShortClient:
            def upload_trace(self, manifest_json, blob):
                ref = hashlib.sha256(blob).hexdigest()
                return {"trace_ref": ref, "size_bytes": len(blob) - 1, "sha256": ref}

        outbox = Outbox(tmp_path / "outbox")
        ref = outbox.put(seal(CSV, b"{}", key), b"{}")
        receipts, remaining = flush_outbox(outbox, ShortClient(), sim_clock)
        assert receipts == []
        assert remaining == [ref]
        assert outbox.pending() == [ref]


class TestTamperDetection:
    def test_tampered_stored_blob_fails_authentication(self, sim_clock, key, tmp_path, cloud_client, store_service):
        manifest = make_manifest()
        receipt = finalize_and_upload(
            CSV, manifest, key, cloud_client, Outbox(tmp_path / "outbox"), sim_clock
        )
        # Corrupt the stored object in place, then re-download.
        from fogtrace.cloudstore import storage_key

        path = store_service.root / storage_key(receipt.trace_ref)
        corrupted = bytearray(path.read_bytes())
        corrupted[len(corrupted) // 2] ^= 0x40
        path.write_bytes(bytes(corrupted))
        blob, _ = cloud_client.get_trace(receipt.trace_ref)
        with pytest.raises(AuthenticationError):
            open_envelope(blob, manifest.to_json(), key)

    def test_manifest_swap_fails_authentication(self, sim_clock, key, tmp_path, cloud_client):
        manifest = make_manifest()
        receipt = finalize_and_upload(
            CSV, manifest, key, cloud_client, Outbox(tmp_path / "outbox"), sim_clock
        )
        blob, _ = cloud_client.get_trace(receipt.trace_ref)
        tampered = make_manifest(row_count=999)
        with pytest.raises(AuthenticationError):
            open_envelope(blob, tampered.to_json(), key)
