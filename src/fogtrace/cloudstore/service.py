"""Content-addressed trace repository with token auth.

Blobs are stored under ``objects/<h[0:2]>/<h[2:4]>/<h>`` where ``h`` is the
sha256 of the uploaded bytes, so the reference is derivable from content
alone, duplicate uploads are idempotent, and directory fan-out stays
bounded. Writes go through a temp file plus atomic rename: a crash between
the two leaves nothing partially visible. Metadata (manifest JSON, size,
upload time, uploader) lives in an embedded relational store keyed by the
same reference.

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
import os
import secrets
import sqlite3
import threading
import uuid
from dataclasses import dataclass
from pathlib import Path

from ..clock import SystemClock

SCOPE_UPLOAD = "upload"
SCOPE_READ = "read"
VALID_SCOPES = frozenset({SCOPE_UPLOAD, SCOPE_READ})

DEFAULT_TOKEN_TTL_S = 3600


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


@dataclass(frozen=True)
class TraceMetadata:
    trace_ref: str
    manifest: dict
    size_bytes: int
    uploaded_at: int
    uploader: str

    def to_dict(self) -> dict:
        return {
            "trace_ref": self.trace_ref,
            "manifest": self.manifest,
            "size_bytes": self.size_bytes,
            "uploaded_at": self.uploaded_at,
            "uploader": self.uploader,
        }


def storage_key(trace_ref: str) -> str:
    return f"objects/{trace_ref[0:2]}/{trace_ref[2:4]}/{trace_ref}"


_SCHEMA = """
CREATE TABLE IF NOT EXISTS traces (
    trace_ref   TEXT PRIMARY KEY,
    manifest    TEXT NOT NULL,
    driver_id   TEXT,
    size_bytes  INTEGER NOT NULL,
    uploaded_at INTEGER NOT NULL,
    uploader    TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_traces_uploaded ON traces (uploaded_at DESC);
CREATE INDEX IF NOT EXISTS idx_traces_driver ON traces (driver_id);
"""


class CloudStoreService:
    def __init__(
        self,
        root: str | Path,
        clients: dict[str, ClientAccount] | None = None,
        clock=None,
        token_ttl_s: int = DEFAULT_TOKEN_TTL_S,
    ):
        self.root = Path(root)
        self.clients = dict(clients or {})
        for account in self.clients.values():
            bad = account.scopes - VALID_SCOPES
            if bad:
                raise ValueError(f"client {account.client_id!r} has unknown scopes {sorted(bad)}")
        self.clock = clock if clock is not None else SystemClock()
        self.token_ttl_s = token_ttl_s
        self._tokens: dict[str, AuthToken] = {}
        self._token_lock = threading.Lock()
        (self.root / "objects").mkdir(parents=True, exist_ok=True)
        (self.root / "tmp").mkdir(parents=True, exist_ok=True)
        self._db_path = self.root / "metadata.sqlite3"
        with self._connection() as conn:
            conn.executescript(_SCHEMA)

    @contextlib.contextmanager
    def _connection(self):
        """Short-lived connection per operation: commit on success, always close."""
        conn = sqlite3.connect(self._db_path, timeout=30)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            with conn:
                yield conn
        finally:
            conn.close()

    # -- authentication ----------------------------------------------------

    def issue_token(self, client_id: str, client_secret: str) -> AuthToken:
        account = self.clients.get(client_id)
        if account is None or not hmac.compare_digest(account.client_secret, client_secret):
            raise InvalidCredentialsError("unknown client or wrong secret")
        now = self.clock.now_ms()
        token = AuthToken(
            token=secrets.token_urlsafe(32),
            client_id=client_id,
            scopes=account.scopes,
            expires_at_ms=now + self.token_ttl_s * 1000.0,
        )
        with self._token_lock:
            # Expired tokens go here, so the table holds only live ones.
            self._tokens = {k: t for k, t in self._tokens.items() if now < t.expires_at_ms}
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
            manifest = json.loads(manifest_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ManifestInvalidError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise ManifestInvalidError("manifest must be a JSON object")

        trace_ref = hashlib.sha256(blob).hexdigest()
        path = self.root / storage_key(trace_ref)
        if not path.exists():
            self._write_atomic(path, blob)
        with self._connection() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO traces "
                "(trace_ref, manifest, driver_id, size_bytes, uploaded_at, uploader) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    trace_ref,
                    manifest_bytes.decode("utf-8"),
                    manifest.get("driver_id"),
                    len(blob),
                    int(self.clock.now_ms()),
                    token.client_id,
                ),
            )
        return {"trace_ref": trace_ref, "size_bytes": len(blob), "sha256": trace_ref}

    def _write_atomic(self, path: Path, blob: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.root / "tmp" / f"{uuid.uuid4().hex}.part"
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                raise StorageFullError("object store out of space") from exc
            raise
        finally:
            if tmp.exists():
                tmp.unlink()

    def get_trace(self, token_str: str | None, trace_ref: str) -> tuple[bytes, TraceMetadata]:
        self.authenticate(token_str, SCOPE_READ)
        metadata = self._metadata(trace_ref)
        path = self.root / storage_key(trace_ref)
        if metadata is None or not path.exists():
            raise NotFoundError(f"no trace {trace_ref}")
        return path.read_bytes(), metadata

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
        return [self._row_to_metadata(row) for row in rows]

    def _metadata(self, trace_ref: str) -> TraceMetadata | None:
        with self._connection() as conn:
            row = conn.execute(
                "SELECT trace_ref, manifest, size_bytes, uploaded_at, uploader "
                "FROM traces WHERE trace_ref = ?",
                (trace_ref,),
            ).fetchone()
        return None if row is None else self._row_to_metadata(row)

    @staticmethod
    def _row_to_metadata(row) -> TraceMetadata:
        return TraceMetadata(
            trace_ref=row[0],
            manifest=json.loads(row[1]),
            size_bytes=row[2],
            uploaded_at=row[3],
            uploader=row[4],
        )
