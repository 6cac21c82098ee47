"""Content-addressed trace repository with token auth.

Blobs are stored under ``objects/<h[0:2]>/<h[2:4]>/<h>`` where ``h`` is the
sha256 of the uploaded bytes, so the reference is derivable from content
alone, duplicate uploads are idempotent, and directory fan-out stays
bounded. Writes go through a temp file plus atomic rename: a crash between
the two leaves nothing partially visible. Metadata (manifest JSON, size,
upload time, uploader) lives in an embedded relational store keyed by the
same reference: one SQLite database per store, in WAL mode, reached through
one connection that the service opens at construction and ``close`` ends.
The server's handler threads take turns on it, one transaction at a time.

A manifest is kept, and served, as the text it was uploaded as: listings
and reads splice that text into their JSON unparsed. Its values are those
the uploader sent, and so are its spacing and key order.

Authorization is two scopes, ``upload`` and ``read``, attached to bearer
tokens issued against a client registry; every operation checks the token
before touching storage.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import hmac
import json
import secrets
import sqlite3
import threading
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

from ..clock import SystemClock
from ..config import KEYS
from ..files import write_atomic

SCOPE_UPLOAD = "upload"
SCOPE_READ = "read"
VALID_SCOPES = frozenset({SCOPE_UPLOAD, SCOPE_READ})


class CloudError(Exception):
    code = "internal"
    http_status = 500

    def to_body(self) -> dict:
        return {"error": self.code, "detail": str(self)}


class InvalidCredentialsError(CloudError):
    code = "invalid-credentials"
    http_status = 401


class UnauthorizedError(CloudError):
    code = "unauthorized"
    http_status = 401


class TokenExpiredError(CloudError):
    code = "token-expired"
    http_status = 401


class ForbiddenError(CloudError):
    code = "forbidden"
    http_status = 403


class NotFoundError(CloudError):
    code = "not-found"
    http_status = 404


class BadRequestError(CloudError):
    code = "bad-request"
    http_status = 400


class MissingPartError(CloudError):
    code = "missing-part"
    http_status = 400


class ManifestInvalidError(CloudError):
    code = "manifest-invalid"
    http_status = 400


class PayloadTooLargeError(CloudError):
    code = "payload-too-large"
    http_status = 413


class StorageFullError(CloudError):
    code = "storage-full"
    http_status = 507


class CorruptObjectError(CloudError):
    code = "corrupt-object"
    http_status = 500


# Every error the store answers with, by the code in its ``{error, detail}`` body.
ERROR_TYPES = {cls.code: cls for cls in CloudError.__subclasses__()}


@dataclass(frozen=True)
class ClientAccount:
    client_id: str
    client_secret: str
    scopes: frozenset[str]


@dataclass(frozen=True)
class AuthToken:
    token: str
    client_id: str
    scopes: frozenset[str]
    expires_at_ms: float


class TraceMetadata(NamedTuple):
    """One stored trace's row: the manifest is the text ``upload_trace`` stored."""

    trace_ref: str
    manifest_json: str
    size_bytes: int
    uploaded_at: int
    uploader: str

    def to_json(self) -> str:
        """The metadata as one JSON object, the manifest spliced in as its stored text.

        The splice is sound because ``upload_trace``, the column's only
        writer, stores only text that parses as one JSON object.
        """
        return (
            f'{{"trace_ref": {encode_basestring_ascii(self.trace_ref)}, "manifest": {self.manifest_json}, '
            f'"size_bytes": {self.size_bytes}, "uploaded_at": {self.uploaded_at}, '
            f'"uploader": {encode_basestring_ascii(self.uploader)}}}'
        )


def _utf8(text: str) -> bytes:
    """``text`` as UTF-8; a lone surrogate, which JSON can carry, is kept as its three bytes."""
    return text.encode("utf-8", "surrogatepass")


def storage_key(trace_ref: str) -> str:
    return f"objects/{trace_ref[0:2]}/{trace_ref[2:4]}/{trace_ref}"


def _holds(path: Path, blob: bytes, trace_ref: str) -> bool:
    """Whether ``path`` holds ``blob``: its size, then its sha256, match.

    A file at the object's path is not proof of its content: a crash after
    an unsynced write can leave it torn, and a torn object must be rewritten,
    not acknowledged.
    """
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return False
    return size == len(blob) and hashlib.sha256(path.read_bytes()).hexdigest() == trace_ref


_SCHEMA = """
CREATE TABLE IF NOT EXISTS traces (
    trace_ref   TEXT PRIMARY KEY,
    manifest    TEXT NOT NULL,
    driver_id   TEXT,
    size_bytes  INTEGER NOT NULL,
    uploaded_at INTEGER NOT NULL,
    uploader    TEXT NOT NULL
);
-- Both indexes hold list_traces' order, so a page is read without a sort;
-- the DROPs replace the older indexes that lacked it in existing stores.
DROP INDEX IF EXISTS idx_traces_uploaded;
DROP INDEX IF EXISTS idx_traces_driver;
CREATE INDEX IF NOT EXISTS idx_traces_page ON traces (uploaded_at DESC, trace_ref);
CREATE INDEX IF NOT EXISTS idx_traces_driver_page ON traces (driver_id, uploaded_at DESC, trace_ref);
"""


class CloudStoreService:
    def __init__(
        self,
        root: str | Path,
        clients: dict[str, ClientAccount] | None = None,
        clock=None,
        token_ttl_s: int = KEYS["cloud.token_ttl_s"].default,
    ):
        self.root = Path(root)
        self.clients = dict(clients or {})
        for account in self.clients.values():
            bad = account.scopes - VALID_SCOPES
            if bad:
                raise ValueError(f"client {account.client_id!r} has unknown scopes {sorted(bad)}")
        self.clock = clock if clock is not None else SystemClock()
        self.token_ttl_s = token_ttl_s
        self._tokens: OrderedDict[str, AuthToken] = OrderedDict()
        self._token_lock = threading.Lock()
        (self.root / "objects").mkdir(parents=True, exist_ok=True)
        (self.root / "tmp").mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(self.root / "metadata.sqlite3", timeout=30, check_same_thread=False)
        self._db_lock = threading.Lock()
        try:
            self._db.execute("PRAGMA journal_mode=WAL")
            with self._connection() as conn:
                conn.executescript(_SCHEMA)
        except BaseException:
            self._db.close()
            raise

    @contextlib.contextmanager
    def _connection(self):
        """One transaction on the store's connection: commit on success, roll back on error.

        The lock gives the connection to one thread at a time, so no
        transaction interleaves with another's statements.
        """
        with self._db_lock, self._db:
            yield self._db

    def close(self) -> None:
        """End the store's connection.

        When no other connection has the database open, SQLite checkpoints the
        WAL into it and deletes the ``-wal`` and ``-shm`` files.
        """
        with self._db_lock:
            self._db.close()

    # -- authentication ----------------------------------------------------

    def issue_token(self, client_id: str, client_secret: str) -> AuthToken:
        account = self.clients.get(client_id)
        # Compared as bytes: compare_digest refuses a str with a non-ASCII character.
        if account is None or not hmac.compare_digest(_utf8(account.client_secret), _utf8(client_secret)):
            raise InvalidCredentialsError("unknown client or wrong secret")
        now = self.clock.now_ms()
        token = AuthToken(
            token=secrets.token_urlsafe(32),
            client_id=client_id,
            scopes=account.scopes,
            expires_at_ms=now + self.token_ttl_s * 1000.0,
        )
        with self._token_lock:
            # Tokens expire in the order they were issued, so the expired ones
            # are at the front; ``authenticate`` still checks every expiry.
            while self._tokens and next(iter(self._tokens.values())).expires_at_ms <= now:
                self._tokens.popitem(last=False)
            self._tokens[token.token] = token
        return token

    def authenticate(self, token_str: str | None, scope: str) -> AuthToken:
        if not token_str:
            raise UnauthorizedError("missing bearer token")
        with self._token_lock:
            token = self._tokens.get(token_str)
        if token is None:
            raise UnauthorizedError("unknown token")
        if self.clock.now_ms() >= token.expires_at_ms:
            raise TokenExpiredError("token expired")
        if scope not in token.scopes:
            raise ForbiddenError(f"token lacks scope {scope!r}")
        return token

    # -- storage -----------------------------------------------------------

    def upload_trace(self, token_str: str | None, manifest_bytes: bytes | None, blob: bytes | None) -> dict:
        token = self.authenticate(token_str, SCOPE_UPLOAD)
        if manifest_bytes is None:
            raise MissingPartError("multipart part 'manifest' missing")
        if blob is None:
            raise MissingPartError("multipart part 'trace' missing")
        try:
            manifest_json = manifest_bytes.decode("utf-8")
            manifest = json.loads(manifest_json)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ManifestInvalidError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise ManifestInvalidError("manifest must be a JSON object")
        driver_id = manifest.get("driver_id")
        if driver_id is not None and not isinstance(driver_id, str):
            raise ManifestInvalidError("manifest driver_id must be a string")

        trace_ref = hashlib.sha256(blob).hexdigest()
        path = self.root / storage_key(trace_ref)
        written = not _holds(path, blob, trace_ref)
        if written:
            self._write_atomic(path, blob)
        try:
            with self._connection() as conn:
                conn.execute(
                    "INSERT OR IGNORE INTO traces "
                    "(trace_ref, manifest, driver_id, size_bytes, uploaded_at, uploader) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        trace_ref,
                        manifest_json,
                        driver_id,
                        len(blob),
                        int(self.clock.now_ms()),
                        token.client_id,
                    ),
                )
        except BaseException:
            # No listing, get or delete reaches an object without its row. One
            # found already whole stays: it may be an earlier upload's, with a row.
            if written:
                path.unlink(missing_ok=True)
            raise
        return {"trace_ref": trace_ref, "size_bytes": len(blob), "sha256": trace_ref}

    def _write_atomic(self, path: Path, blob: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            write_atomic(path, blob, self.root / "tmp" / f"{uuid.uuid4().hex}.part")
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                raise StorageFullError("object store out of space") from exc
            raise

    def get_trace(self, token_str: str | None, trace_ref: str) -> tuple[bytes, TraceMetadata]:
        self.authenticate(token_str, SCOPE_READ)
        metadata = self._metadata(trace_ref)
        path = self.root / storage_key(trace_ref)
        if metadata is None or not path.exists():
            raise NotFoundError(f"no trace {trace_ref}")
        blob = path.read_bytes()
        # The object is served only if it still hashes to its reference: a
        # torn or overwritten file must not reach a reader as the trace.
        if hashlib.sha256(blob).hexdigest() != trace_ref:
            raise CorruptObjectError(f"stored object for {trace_ref} does not hash to its reference")
        return blob, metadata

    def list_traces(
        self,
        token_str: str | None,
        driver_id: str | None = None,
        from_ms: int | None = None,
        to_ms: int | None = None,
        limit: int = 50,
        offset: int = 0,
    ) -> list[TraceMetadata]:
        self.authenticate(token_str, SCOPE_READ)
        clauses = []
        params: list = []
        if driver_id is not None:
            clauses.append("driver_id = ?")
            params.append(driver_id)
        if from_ms is not None:
            clauses.append("uploaded_at >= ?")
            params.append(int(from_ms))
        if to_ms is not None:
            clauses.append("uploaded_at <= ?")
            params.append(int(to_ms))
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = (
            "SELECT trace_ref, manifest, size_bytes, uploaded_at, uploader FROM traces "
            f"{where} ORDER BY uploaded_at DESC, trace_ref ASC LIMIT ? OFFSET ?"
        )
        params.extend([int(limit), int(offset)])
        with self._connection() as conn:
            rows = conn.execute(sql, params).fetchall()
        return list(map(TraceMetadata._make, rows))

    def _metadata(self, trace_ref: str) -> TraceMetadata | None:
        with self._connection() as conn:
            row = conn.execute(
                "SELECT trace_ref, manifest, size_bytes, uploaded_at, uploader "
                "FROM traces WHERE trace_ref = ?",
                (trace_ref,),
            ).fetchone()
        return None if row is None else TraceMetadata._make(row)
