"""Encrypt-then-upload with a durable on-disk outbox.

The envelope is written to the outbox before the first upload attempt, so
a crash or an unreachable store never loses a trace: the next run (or an
explicit flush) retries whatever is pending. Uploads are verified against
the receipt (the store's reference must equal the envelope's sha256 and its
size the envelope's length) and only then removed from the outbox.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from ..cloudstore.client import CloudClient, CloudUnreachableError
from .envelope import seal
from .records import SessionManifest, sha256_hex

log = logging.getLogger(__name__)

# Retries after a session's own upload and on an outbox flush (whose entries
# wait for the next flush anyway); the delay doubles from BACKOFF_MS.
SESSION_RETRIES = 2
FLUSH_RETRIES = 0
BACKOFF_MS = 250.0


class UploadError(Exception):
    pass


class KeyMissingError(UploadError):
    pass


class UploadRejectedError(UploadError):
    pass


@dataclass(frozen=True)
class UploadReceipt:
    trace_ref: str
    size_bytes: int
    sha256: str

    @classmethod
    def from_dict(cls, data: dict) -> "UploadReceipt":
        return cls(
            trace_ref=str(data["trace_ref"]),
            size_bytes=int(data["size_bytes"]),
            sha256=str(data["sha256"]),
        )


class Outbox:
    """Pending uploads as ``<sha256>.env`` / ``<sha256>.manifest.json`` pairs.

    The envelope file is the commit marker: ``put`` writes the manifest
    first and the envelope last, each through a temporary file and a
    rename, and ``remove`` deletes the envelope first. A crash at any
    point therefore leaves either a complete entry or one that
    ``pending`` does not list.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def put(self, envelope: bytes, manifest_json: bytes) -> str:
        ref = sha256_hex(envelope)
        _write_atomic(self.directory / f"{ref}.manifest.json", manifest_json)
        _write_atomic(self.directory / f"{ref}.env", envelope)
        return ref

    def pending(self) -> list[str]:
        return sorted(p.stem for p in self.directory.glob("*.env"))

    def load(self, ref: str) -> tuple[bytes, bytes]:
        envelope = (self.directory / f"{ref}.env").read_bytes()
        manifest_json = (self.directory / f"{ref}.manifest.json").read_bytes()
        return envelope, manifest_json

    def remove(self, ref: str) -> None:
        for name in (f"{ref}.env", f"{ref}.manifest.json"):
            path = self.directory / name
            if path.exists():
                path.unlink()


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def finalize_and_upload(
    csv_bytes: bytes,
    manifest: SessionManifest,
    key: bytes | None,
    client: CloudClient,
    outbox: Outbox,
    clock,
) -> UploadReceipt:
    """Seal, persist to the outbox, upload, verify the receipt.

    Raises :class:`CloudUnreachableError` after exhausting retries; the
    envelope stays in the outbox for a later flush.
    """
    if key is None:
        raise KeyMissingError("no envelope key configured")
    manifest_json = manifest.to_json()
    envelope = seal(csv_bytes, manifest_json, key)
    ref = outbox.put(envelope, manifest_json)
    receipt = _upload_once(client, envelope, manifest_json, clock, SESSION_RETRIES)
    _check_receipt(receipt, ref, envelope)
    outbox.remove(ref)
    return receipt


def flush_outbox(outbox: Outbox, client: CloudClient, clock) -> tuple[list[UploadReceipt], list[str]]:
    """Upload everything pending; returns (receipts, refs still pending).

    An entry whose files cannot be read (an envelope without its manifest,
    as a crash inside an older ``put`` left behind) is logged, left in
    place and reported among the refs still pending.
    """
    receipts = []
    remaining = []
    for ref in outbox.pending():
        try:
            envelope, manifest_json = outbox.load(ref)
        except OSError as exc:
            log.warning("outbox flush: %s is incomplete, skipped (%s)", ref[:12], exc)
            remaining.append(ref)
            continue
        try:
            receipt = _upload_once(client, envelope, manifest_json, clock, FLUSH_RETRIES)
            _check_receipt(receipt, ref, envelope)
        except (CloudUnreachableError, UploadRejectedError) as exc:
            log.warning("outbox flush: %s still pending (%s)", ref[:12], exc)
            remaining.append(ref)
            continue
        outbox.remove(ref)
        receipts.append(receipt)
    return receipts, remaining


def _check_receipt(receipt: UploadReceipt, ref: str, envelope: bytes) -> None:
    """Raise unless the store reports exactly the bytes that were sent."""
    if receipt.trace_ref != ref or receipt.size_bytes != len(envelope):
        raise UploadRejectedError(
            f"receipt mismatch: stored {receipt.trace_ref} ({receipt.size_bytes} B), "
            f"sent {ref} ({len(envelope)} B)"
        )


def _upload_once(client, envelope, manifest_json, clock, retries: int) -> UploadReceipt:
    attempt = 0
    while True:
        try:
            return UploadReceipt.from_dict(client.upload_trace(manifest_json, envelope))
        except CloudUnreachableError:
            if attempt >= retries:
                raise
            clock.sleep_ms(BACKOFF_MS * (2**attempt))
            attempt += 1
