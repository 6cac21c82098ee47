from __future__ import annotations

import contextlib
import hashlib
from pathlib import Path

import pytest

from fogtrace.cloudstore import CloudClient, CloudUnreachableError, InvalidCredentialsError
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

    @pytest.mark.parametrize(
        "entry", [b"", b"{}sealed", b"x\n{}sealed", b"99\n{}sealed"], ids=["empty", "no-length", "bad-length", "short"]
    )
    def test_a_malformed_entry_does_not_load(self, tmp_path, entry):
        outbox = Outbox(tmp_path / "outbox")
        ref = hashlib.sha256(b"sealed").hexdigest()
        (outbox.directory / f"{ref}.entry").write_bytes(entry)
        with pytest.raises(ValueError):
            outbox.load(ref)


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

    @pytest.mark.parametrize(
        "body",
        [b"<html>captive portal</html>", b"[]", b"[" * 100_000, b'{"ok": true}', b'{"access_token": "t"}'],
        ids=["html", "array", "deep", "no-token", "no-receipt"],
    )
    def test_flush_against_something_else_at_the_store_url_keeps_pending(
        self, sim_clock, key, tmp_path, canned_server, body
    ):
        # The last body passes for a token, then for the upload's receipt, which it is not.
        outbox = Outbox(tmp_path / "outbox")
        ref = outbox.put(seal(CSV, b"{}", key), b"{}")
        client = CloudClient(canned_server(body).base_url, "gw", "gw-secret")
        with contextlib.closing(client.session):
            assert flush_outbox(outbox, client, sim_clock) == ([], [ref])
        assert outbox.pending() == [ref]

    def test_flush_with_a_receipt_size_that_is_no_count_keeps_pending(self, sim_clock, key, tmp_path):
        class InfiniteClient:
            def upload_trace(self, manifest_json, blob):
                ref = hashlib.sha256(blob).hexdigest()
                return {"trace_ref": ref, "size_bytes": float("inf"), "sha256": ref}

        outbox = Outbox(tmp_path / "outbox")
        ref = outbox.put(seal(CSV, b"{}", key), b"{}")
        assert flush_outbox(outbox, InfiniteClient(), sim_clock) == ([], [ref])
        assert outbox.pending() == [ref]

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

    def test_an_entry_the_store_refuses_does_not_stop_the_flush(self, sim_clock, key, tmp_path, cloud_client):
        outbox = Outbox(tmp_path / "outbox")
        refused = outbox.put(seal(CSV, b"not json", key), b"not json")
        manifest = make_manifest().to_json()
        accepted = outbox.put(seal(CSV, manifest, key), manifest)
        receipts, remaining = flush_outbox(outbox, cloud_client, sim_clock)
        assert [r.trace_ref for r in receipts] == [accepted]
        assert remaining == [refused]
        # The next flush skips it again rather than stopping at it.
        assert flush_outbox(outbox, cloud_client, sim_clock) == ([], [refused])
        assert outbox.pending() == [refused]

    def test_refused_credentials_stop_the_flush(self, sim_clock, key, tmp_path, store_server):
        outbox = Outbox(tmp_path / "outbox")
        manifest = make_manifest().to_json()
        outbox.put(seal(CSV, manifest, key), manifest)
        client = CloudClient(store_server.base_url, "gw", "wrong-secret")
        with pytest.raises(InvalidCredentialsError):
            flush_outbox(outbox, client, sim_clock)
        client.session.close()
        assert len(outbox.pending()) == 1

    def test_flush_skips_an_entry_whose_envelope_does_not_hash_to_its_ref(self, tmp_path, sim_clock, key):
        outbox = Outbox(tmp_path / "outbox")
        ref = outbox.put(seal(CSV, b"{}", key), b"{}")
        path = outbox.directory / f"{ref}.entry"
        entry = bytearray(path.read_bytes())
        entry[-1] ^= 0x01
        path.write_bytes(bytes(entry))
        client = _RecordingClient()
        assert flush_outbox(outbox, client, sim_clock) == ([], [ref])
        assert client.uploads == []
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
    """Make the ``crash_index``-th pathlib write, rename or unlink, and every one after it, raise.

    A crashed process makes no further file operation, so no clean-up after
    the crash point takes effect either.
    """
    done = [0]

    def crashing(real):
        def op(path, *args, **kwargs):
            done[0] += 1
            if done[0] - 1 >= crash_index:
                raise _Crash(f"crash at file operation {crash_index} ({real.__name__} {path.name})")
            return real(path, *args, **kwargs)

        return op

    for name in ("write_bytes", "replace", "unlink"):
        monkeypatch.setattr(Path, name, crashing(getattr(Path, name)))


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
            assert remaining == [] and list(outbox.directory.iterdir()) == []
            assert client.uploads == [envelope]
            crash_index += 1
        # One file, written to a temporary name and renamed.
        assert crash_index == 2
        assert outbox.pending() == [hashlib.sha256(envelope).hexdigest()]

    def test_crash_at_every_file_operation_of_the_send(self, monkeypatch, tmp_path, sim_clock, key):
        manifest = make_manifest()
        crash_index = 0
        while True:
            outbox = Outbox(tmp_path / f"outbox-{crash_index}")
            client = _RecordingClient()
            with monkeypatch.context() as patched:
                _crash_at(patched, crash_index)
                try:
                    finalize_and_upload(CSV, manifest, key, client, outbox, sim_clock)
                except _Crash:
                    crashed = True
                else:
                    crashed = False
            if not crashed:
                break
            receipts, remaining = flush_outbox(outbox, client, sim_clock)
            # Nothing unsendable is listed: whatever was pending has gone out,
            # and the flush deleted what the crash left half-written.
            assert remaining == [] and outbox.pending() == []
            assert sorted(p.name for p in outbox.directory.iterdir()) == [], crash_index
            stored = {hashlib.sha256(blob).hexdigest(): blob for blob in client.uploads}
            if crash_index < 2:
                # Before the entry's rename nothing was queued or sent, and
                # finalize_and_upload raised to its caller.
                assert stored == {} and receipts == []
            else:
                [(ref, envelope)] = stored.items()
                assert open_envelope(envelope, manifest.to_json(), key) == CSV
                assert [r.trace_ref for r in receipts] in ([], [ref])
            crash_index += 1
        # One write and one rename in put, then one unlink in remove.
        assert crash_index == 3
        assert outbox.pending() == [] and len(client.uploads) == 1

    def test_flush_sends_a_two_file_entry_of_an_older_outbox_once(self, tmp_path, sim_clock, key):
        outbox = Outbox(tmp_path / "outbox")
        old = seal(CSV, b"{}", key)
        old_ref = hashlib.sha256(old).hexdigest()
        # An older put wrote the manifest first and the envelope, its commit mark, last.
        (outbox.directory / f"{old_ref}.manifest.json").write_bytes(b"{}")
        (outbox.directory / f"{old_ref}.env").write_bytes(old)
        client = _RecordingClient()
        receipts, remaining = flush_outbox(outbox, client, sim_clock)
        assert [r.trace_ref for r in receipts] == [old_ref] and remaining == []
        assert client.uploads == [old]
        assert list(outbox.directory.iterdir()) == []

    def test_crash_at_every_file_operation_of_an_older_entry_conversion(self, monkeypatch, tmp_path, sim_clock, key):
        envelope = seal(CSV, b"{}", key)
        ref = hashlib.sha256(envelope).hexdigest()
        crash_index = 0
        while True:
            outbox = Outbox(tmp_path / f"outbox-{crash_index}")
            (outbox.directory / f"{ref}.manifest.json").write_bytes(b"{}")
            (outbox.directory / f"{ref}.env").write_bytes(envelope)
            client = _RecordingClient()
            with monkeypatch.context() as patched:
                _crash_at(patched, crash_index)
                try:
                    flush_outbox(outbox, client, sim_clock)
                except _Crash:
                    crashed = True
                else:
                    crashed = False
            if not crashed:
                break
            receipts, remaining = flush_outbox(outbox, client, sim_clock)
            assert remaining == [] and outbox.pending() == []
            assert {hashlib.sha256(blob).hexdigest() for blob in client.uploads} == {ref}
            assert list(outbox.directory.iterdir()) == [], crash_index
            crash_index += 1
        # put's write and rename, the old envelope's and manifest's unlinks,
        # then remove's unlink after the upload.
        assert crash_index == 5
        assert outbox.pending() == [] and client.uploads == [envelope]

    def test_flush_skips_an_envelope_without_manifest(self, tmp_path, sim_clock, key):
        outbox = Outbox(tmp_path / "outbox")
        orphan = seal(CSV, b"{}", key)
        orphan_path = outbox.directory / f"{hashlib.sha256(orphan).hexdigest()}.env"
        orphan_path.write_bytes(orphan)
        whole = seal(CSV + b"1,gps-1,lat,52.5,deg,0\n", b"{}", key)
        whole_ref = outbox.put(whole, b"{}")
        client = _RecordingClient()
        receipts, remaining = flush_outbox(outbox, client, sim_clock)
        assert [r.trace_ref for r in receipts] == [whole_ref] and remaining == []
        assert client.uploads == [whole]
        # It cannot be sent without its manifest, and it is not deleted either.
        assert list(outbox.directory.iterdir()) == [orphan_path]
        assert orphan_path.read_bytes() == orphan

    def test_flush_deletes_an_older_manifest_without_envelope(self, tmp_path, sim_clock, key):
        outbox = Outbox(tmp_path / "outbox")
        # An older put that crashed before its envelope, its commit mark, was written.
        (outbox.directory / f"{'ab' * 32}.manifest.json").write_bytes(b"{}")
        client = _RecordingClient()
        assert flush_outbox(outbox, client, sim_clock) == ([], [])
        assert client.uploads == [] and list(outbox.directory.iterdir()) == []


class TestTamperDetection:
    def test_tampered_stored_blob_fails_authentication(self, sim_clock, key, tmp_path, cloud_client, store_service):
        manifest = make_manifest()
        receipt = finalize_and_upload(
            CSV, manifest, key, cloud_client, Outbox(tmp_path / "outbox"), sim_clock
        )
        # Corrupt the stored object in place, then re-download.
        from fogtrace.cloudstore import CorruptObjectError, storage_key

        path = store_service.root / storage_key(receipt.trace_ref)
        corrupted = bytearray(path.read_bytes())
        corrupted[len(corrupted) // 2] ^= 0x40
        path.write_bytes(bytes(corrupted))
        # The store no longer serves bytes that miss their reference...
        with pytest.raises(CorruptObjectError):
            cloud_client.get_trace(receipt.trace_ref)
        # ...and the envelope fails to authenticate them all the same.
        with pytest.raises(AuthenticationError):
            open_envelope(bytes(corrupted), manifest.to_json(), key)

    def test_manifest_swap_fails_authentication(self, sim_clock, key, tmp_path, cloud_client):
        manifest = make_manifest()
        receipt = finalize_and_upload(
            CSV, manifest, key, cloud_client, Outbox(tmp_path / "outbox"), sim_clock
        )
        blob, _ = cloud_client.get_trace(receipt.trace_ref)
        tampered = make_manifest(row_count=999)
        with pytest.raises(AuthenticationError):
            open_envelope(blob, tampered.to_json(), key)
