from __future__ import annotations

import hashlib
from pathlib import Path

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
            finalize_and_upload(CSV, make_manifest(), key, dead, outbox, sim_clock)
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
            finalize_and_upload(CSV, manifest, key, dead, outbox, sim_clock)
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


class _Crash(Exception):
    pass


class _RecordingClient:
    """A store that always accepts and remembers every upload."""

    def __init__(self):
        self.uploads: list[bytes] = []

    def upload_trace(self, manifest_json, blob):
        self.uploads.append(blob)
        ref = hashlib.sha256(blob).hexdigest()
        return {"trace_ref": ref, "size_bytes": len(blob), "sha256": ref}


def _crash_at(monkeypatch, crash_index: int) -> None:
    """Make the ``crash_index``-th pathlib write or rename from now on raise."""
    done = [0]

    def crashing(real):
        def op(path, *args, **kwargs):
            done[0] += 1
            if done[0] - 1 == crash_index:
                raise _Crash(f"crash at file operation {crash_index} ({real.__name__} {path.name})")
            return real(path, *args, **kwargs)

        return op

    monkeypatch.setattr(Path, "write_bytes", crashing(Path.write_bytes))
    monkeypatch.setattr(Path, "replace", crashing(Path.replace))


class TestOutboxCrashPoints:
    def test_crash_at_every_file_operation_of_put(self, monkeypatch, tmp_path, sim_clock, key):
        envelope = seal(CSV, b"{}", key)
        crash_index = 0
        while True:
            outbox = Outbox(tmp_path / f"outbox-{crash_index}")
            with monkeypatch.context() as patched:
                _crash_at(patched, crash_index)
                try:
                    outbox.put(envelope, b"{}")
                except _Crash:
                    crashed = True
                else:
                    crashed = False
            if not crashed:
                break
            # The interrupted entry is not listed, and flushing does not trip on it.
            assert outbox.pending() == []
            client = _RecordingClient()
            assert flush_outbox(outbox, client, sim_clock) == ([], [])
            # The next run puts the trace again; it is stored exactly once.
            ref = outbox.put(envelope, b"{}")
            receipts, remaining = flush_outbox(outbox, client, sim_clock)
            assert [r.trace_ref for r in receipts] == [ref]
            assert remaining == [] and outbox.pending() == []
            assert client.uploads == [envelope]
            crash_index += 1
        # Two files, each written to a temporary name and renamed.
        assert crash_index == 4
        assert outbox.pending() == [hashlib.sha256(envelope).hexdigest()]

    def test_flush_skips_an_envelope_without_manifest(self, tmp_path, sim_clock, key):
        outbox = Outbox(tmp_path / "outbox")
        orphan = seal(CSV, b"{}", key)
        orphan_ref = hashlib.sha256(orphan).hexdigest()
        (outbox.directory / f"{orphan_ref}.env").write_bytes(orphan)
        whole = seal(CSV + b"1,gps-1,lat,52.5,deg,0\n", b"{}", key)
        whole_ref = outbox.put(whole, b"{}")
        client = _RecordingClient()
        receipts, remaining = flush_outbox(outbox, client, sim_clock)
        assert [r.trace_ref for r in receipts] == [whole_ref]
        assert remaining == [orphan_ref]
        assert outbox.pending() == [orphan_ref]
        assert client.uploads == [whole]


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
