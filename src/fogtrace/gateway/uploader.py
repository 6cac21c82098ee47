"""Encrypt-then-upload with a durable on-disk outbox.

The envelope is written to the outbox, one file per entry, before the first
upload attempt, so a crash or an unreachable store never loses a trace: the
next run (or an explicit flush) retries whatever is pending. A session's
upload and a flush share one ``_send``: upload, check that the receipt names
the envelope's sha256 and length, and only then remove the entry. They
differ only in how often an unreachable store is retried.
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
    """Pending uploads, one ``<sha256>.entry`` file each: the manifest's length
    in ASCII digits and a LF, the manifest JSON, then the envelope.

    ``put`` renames an entry into place from ``<ref>.tmp`` and ``remove``
    unlinks it, so a crash leaves the whole entry or a ``.tmp`` file that the
    next flush deletes. One gateway process uses an outbox at a time.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def put(self, envelope: bytes, manifest_json: bytes) -> str:
        ref = sha256_hex(envelope)
        entry = b"%d\n%b%b" % (len(manifest_json), manifest_json, envelope)
        write_atomic(self.directory / f"{ref}.entry", entry, self.directory / f"{ref}.tmp")
        return ref

    def pending(self) -> list[str]:
        return sorted(p.stem for p in self.directory.glob("*.entry"))

    def load(self, ref: str) -> tuple[bytes, bytes]:
        """The entry's envelope and manifest; ``ValueError`` if it is malformed or the envelope is not ``ref``."""
        entry = (self.directory / f"{ref}.entry").read_bytes()
        start = entry.index(b"\n") + 1
        end = start + int(entry[: start - 1])
        envelope = entry[end:]
        if sha256_hex(envelope) != ref:
            raise ValueError(f"envelope does not hash to {ref[:12]}")
        return envelope, entry[start:end]

    def remove(self, ref: str) -> None:
        (self.directory / f"{ref}.entry").unlink(missing_ok=True)

    def discard_leftovers(self) -> None:
        """Delete ``put``'s ``.tmp`` leftovers; rewrite each older ``.env`` + ``.manifest.json`` pair as one entry.

        An older ``.manifest.json`` whose ``.env`` is gone holds no trace (the
        older put wrote the envelope last, and a conversion unlinks it first)
        and is deleted.
        """
        for path in self.directory.glob("*.tmp"):
            path.unlink(missing_ok=True)
        for manifest in self.directory.glob("*.manifest.json"):
            old = manifest.with_name(manifest.name.removesuffix(".manifest.json") + ".env")
            if old.exists():
                self.put(old.read_bytes(), manifest.read_bytes())
                old.unlink()
            manifest.unlink()


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
    ref, envelope, manifest_json = seal_into(outbox, csv_bytes, manifest, key)
    return _send(outbox, ref, envelope, manifest_json, client, clock, SESSION_RETRIES)


def seal_into(
    outbox: Outbox, csv_bytes: bytes, manifest: SessionManifest, key: bytes | None
) -> tuple[str, bytes, bytes]:
    """Seal the trace and put it in ``outbox`` unsent: its ref, envelope and manifest JSON."""
    if key is None:
        raise KeyMissingError("no envelope key configured")
    manifest_json = manifest.to_json()
    envelope = seal(csv_bytes, manifest_json, key)
    return outbox.put(envelope, manifest_json), envelope, manifest_json


def flush_outbox(outbox: Outbox, client: CloudClient, clock) -> tuple[list[UploadReceipt], list[str]]:
    """Upload everything pending; returns (receipts, refs still pending).

    ``Outbox.discard_leftovers`` runs first. An entry that cannot be read or
    does not hash to its ref, that the store cannot be reached for (a 500
    ``internal`` included), whose receipt does not match or that the store
    refuses (``ENTRY_REFUSALS``) is logged, left in place and reported among
    the refs still pending. Any other store error, such as refused
    credentials or a full store, stops the flush.
    """
    outbox.discard_leftovers()
    receipts = []
    remaining = []
    for ref in outbox.pending():
        try:
            envelope, manifest_json = outbox.load(ref)
        except (OSError, ValueError) as exc:
            log.warning("outbox flush: %s is unreadable, skipped (%s)", ref[:12], exc)
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

    Only an unreachable store, or one that answers 500 ``internal``, is
    retried. A receipt that cannot be read, or does not name exactly ``ref``
    and ``len(envelope)``, raises :class:`UploadRejectedError`.
    """
    for attempt in range(retries + 1):
        try:
            answer = client.upload_trace(manifest_json, envelope)
            break
        except CloudUnreachableError:
            if attempt == retries:
                raise
            clock.sleep_ms(BACKOFF_MS * (2**attempt))
    try:
        receipt = UploadReceipt.from_dict(answer)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UploadRejectedError(f"unreadable receipt for {ref}: {exc!r}") from exc
    if receipt.trace_ref != ref or receipt.size_bytes != len(envelope):
        raise UploadRejectedError(
            f"receipt mismatch: stored {receipt.trace_ref} ({receipt.size_bytes} B), "
            f"sent {ref} ({len(envelope)} B)"
        )
    outbox.remove(ref)
    return receipt
