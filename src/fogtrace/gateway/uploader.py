"""Encrypt-then-upload with a durable on-disk outbox.

The envelope is written to the outbox before the first upload attempt, so
a crash or an unreachable store never loses a trace: the next run (or an
explicit flush) retries whatever is pending. A session's upload and a flush
send through the same ``_send``: upload, check that the receipt names the
envelope's sha256 and length, and only then remove the entry from the
outbox. They differ only in how often an unreachable store is retried.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from ..cloudstore.client import CloudClient, CloudUnreachableError
from ..cloudstore.service import BadRequestError, ManifestInvalidError, MissingPartError, PayloadTooLargeError
from ..files import write_atomic
from .envelope import seal
from .records import SessionManifest, sha256_hex

log = logging.getLogger(__name__)

# Retries after a session's own upload and on an outbox flush (whose entries
# wait for the next flush anyway); the delay doubles from BACKOFF_MS.
SESSION_RETRIES = 2
FLUSH_RETRIES = 0
BACKOFF_MS = 250.0

# Store errors that judge one outbox entry (a 400 or a 413), not the store
# or the gateway's credentials: a flush skips that entry and goes on.
ENTRY_REFUSALS = (BadRequestError, MissingPartError, ManifestInvalidError, PayloadTooLargeError)


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
    ``pending`` does not list, whose files the next flush deletes. One
    gateway process uses an outbox at a time.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def put(self, envelope: bytes, manifest_json: bytes) -> str:
        ref = sha256_hex(envelope)
        for name, data in ((f"{ref}.manifest.json", manifest_json), (f"{ref}.env", envelope)):
            write_atomic(self.directory / name, data, self.directory / f"{name}.tmp")
        return ref

    def pending(self) -> list[str]:
        return sorted(p.stem for p in self.directory.glob("*.env"))

    def load(self, ref: str) -> tuple[bytes, bytes]:
        envelope = (self.directory / f"{ref}.env").read_bytes()
        manifest_json = (self.directory / f"{ref}.manifest.json").read_bytes()
        return envelope, manifest_json

    def remove(self, ref: str) -> None:
        for name in (f"{ref}.env", f"{ref}.manifest.json"):
            (self.directory / name).unlink(missing_ok=True)

    def discard_leftovers(self) -> None:
        """Delete what a crash in ``put`` or ``remove`` left: ``.tmp`` files and manifests without their envelope."""
        for path in self.directory.glob("*.tmp"):
            path.unlink(missing_ok=True)
        for path in self.directory.glob("*.manifest.json"):
            if not path.with_name(path.name.replace(".manifest.json", ".env")).exists():
                path.unlink(missing_ok=True)


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
    return _send(outbox, ref, envelope, manifest_json, client, clock, SESSION_RETRIES)


def flush_outbox(outbox: Outbox, client: CloudClient, clock) -> tuple[list[UploadReceipt], list[str]]:
    """Upload everything pending; returns (receipts, refs still pending).

    Leftovers of a crashed ``put`` or ``remove`` are deleted first. An entry
    whose files cannot be read (an envelope without its manifest, as a
    crash inside an older ``put`` left behind), that the store cannot be
    reached for, whose receipt does not match or that the store refuses
    (``ENTRY_REFUSALS``) is logged, left in place and reported among the
    refs still pending. Any other store error, such as refused
    credentials or a full store, stops the flush.
    """
    outbox.discard_leftovers()
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
            receipts.append(_send(outbox, ref, envelope, manifest_json, client, clock, FLUSH_RETRIES))
        except (CloudUnreachableError, UploadRejectedError, *ENTRY_REFUSALS) as exc:
            log.warning("outbox flush: %s still pending (%s)", ref[:12], exc)
            remaining.append(ref)
    return receipts, remaining


def _send(outbox, ref, envelope, manifest_json, client, clock, retries: int) -> UploadReceipt:
    """Upload outbox entry ``ref``, check its receipt, then remove the entry.

    Only an unreachable store is retried. A receipt that does not name
    exactly ``ref`` and ``len(envelope)`` raises :class:`UploadRejectedError`.
    """
    for attempt in range(retries + 1):
        try:
            receipt = UploadReceipt.from_dict(client.upload_trace(manifest_json, envelope))
            break
        except CloudUnreachableError:
            if attempt == retries:
                raise
            clock.sleep_ms(BACKOFF_MS * (2**attempt))
    if receipt.trace_ref != ref or receipt.size_bytes != len(envelope):
        raise UploadRejectedError(
            f"receipt mismatch: stored {receipt.trace_ref} ({receipt.size_bytes} B), "
            f"sent {ref} ({len(envelope)} B)"
        )
    outbox.remove(ref)
    return receipt
