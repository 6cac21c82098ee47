"""Every file fogtrace reads back is written whole or not at all."""

from __future__ import annotations

import errno
import hashlib
import json
from pathlib import Path

import pytest

from fogtrace.cli import main
from fogtrace.cloudstore import StorageFullError
from fogtrace.files import write_atomic
from fogtrace.httpclient import encode_multipart

MANIFEST = json.dumps({"session_id": "s1", "driver_id": "drv"}).encode()


class _HalfWriter:
    """A file handle whose write lands half its bytes, then fails as a full disk does."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def _tear_writes(monkeypatch, torn) -> None:
    """Make every write to a path for which ``torn(path)`` holds die after half its bytes."""
    real_open = Path.open

    def open_(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        return _HalfWriter(handle) if "w" in mode and torn(path) else handle

    monkeypatch.setattr(Path, "open", open_)


class TestWriteAtomic:
    def test_replaces_the_file_and_leaves_no_temporary(self, tmp_path):
        path, tmp = tmp_path / "f", tmp_path / "f.tmp"
        path.write_bytes(b"old")
        write_atomic(path, b"new", tmp)
        assert path.read_bytes() == b"new"
        assert not tmp.exists()

    def test_a_torn_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path, tmp = tmp_path / "f", tmp_path / "f.tmp"
        path.write_bytes(b"old")
        _tear_writes(monkeypatch, lambda p: p == tmp)
        with pytest.raises(OSError):
            write_atomic(path, b"new bytes", tmp)
        assert path.read_bytes() == b"old"
        assert not tmp.exists()

    def test_a_failed_rename_deletes_the_temporary(self, tmp_path, monkeypatch):
        path, tmp = tmp_path / "f", tmp_path / "f.tmp"

        def failing_replace(src, dst):
            raise OSError(errno.EXDEV, "cross-device link")

        monkeypatch.setattr(Path, "replace", failing_replace)
        with pytest.raises(OSError):
            write_atomic(path, b"new", tmp)
        assert list(tmp_path.iterdir()) == []


class TestNoTornFiles:
    def test_trace_csv(self, pipeline_factory, tmp_path, monkeypatch):
        traces = tmp_path / "traces"
        runner = pipeline_factory(trace_dir=traces, context=False)
        _tear_writes(monkeypatch, lambda p: p.parent == traces)
        with pytest.raises(OSError):
            runner.run("d", "v", 5.0, upload=False)
        assert list(traces.iterdir()) == []

    def test_key_hex(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        _tear_writes(monkeypatch, lambda p: p.name.startswith("key.hex"))
        code = main(["--self-contained", "run", "--duration", "5", "--out", str(out)])
        assert code == 1
        assert "setup" in capsys.readouterr().err
        assert list(out.glob("key.hex*")) == []

    def test_full_disk_answers_507_and_the_next_upload_succeeds(self, store_service, store_server, cloud_client):
        tmp = store_service.root / "tmp"
        blob = b"a trace the disk has no room for"
        with pytest.MonkeyPatch.context() as patched:
            _tear_writes(patched, lambda p: p.parent == tmp)
            with pytest.raises(StorageFullError):
                cloud_client.upload_trace(MANIFEST, blob)
            body, content_type = encode_multipart(
                {"manifest": ("m.json", MANIFEST, "application/json"), "trace": ("t.bin", blob, "application/octet-stream")}
            )
            headers = {"Content-Type": content_type, "Authorization": f"Bearer {cloud_client.issue_token()['access_token']}"}
            response = cloud_client.session.request("POST", "/api/v1/traces", body=body, headers=headers)
            assert (response.status, response.json()["error"]) == (507, "storage-full")
        assert list(tmp.iterdir()) == []
        assert cloud_client.list_traces() == []
        receipt = cloud_client.upload_trace(MANIFEST, blob)
        assert receipt["trace_ref"] == hashlib.sha256(blob).hexdigest()
        assert cloud_client.get_trace(receipt["trace_ref"])[0] == blob
