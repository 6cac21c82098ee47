from __future__ import annotations

import base64
import contextlib
import errno
import hashlib
import http.client
import json
import logging
import os
import socket
import sqlite3
import string
import sys
import threading

from http.server import BaseHTTPRequestHandler
from urllib.parse import urlparse

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fogtrace.clock import SimulatedClock
from fogtrace.cloudstore import (
    BadRequestError,
    ClientAccount,
    CloudClient,
    CloudError,
    CloudUnreachableError,
    CloudStoreHTTPServer,
    CloudStoreService,
    CorruptObjectError,
    ForbiddenError,
    InvalidCredentialsError,
    MissingPartError,
    ManifestInvalidError,
    NotFoundError,
    PayloadTooLargeError,
    StorageFullError,
    TokenExpiredError,
    UnauthorizedError,
    storage_key,
)
from fogtrace.cloudstore import httpd
from fogtrace.cloudstore import service as service_module
from fogtrace.cloudstore.httpd import MAX_BODY_BYTES
from fogtrace.cloudstore.client import _error_from_response
from fogtrace.cloudstore.service import ERROR_TYPES
from fogtrace.gateway import Outbox, finalize_and_upload, flush_outbox
from fogtrace.gateway.envelope import seal
from fogtrace.gateway.uploader import BACKOFF_MS, FLUSH_RETRIES, SESSION_RETRIES
from fogtrace.httpclient import HttpResponse, HttpSession, encode_multipart
from fogtrace.served import ServedHttp, send_json, send_reply
from test_uploader import make_manifest

MANIFEST = json.dumps({"session_id": "s1", "driver_id": "drv"}).encode()


@pytest.fixture
def sim_service(tmp_path, accounts):
    clock = SimulatedClock()
    service = CloudStoreService(tmp_path / "store", clients=accounts, clock=clock)
    yield service, clock
    service.close()


def upload_token(service):
    return service.issue_token("gw", "gw-secret").token


@pytest.fixture
def store_http(store_server):
    session = HttpSession(store_server.base_url, timeout_s=10)
    yield session
    session.close()


def post_json(session, path, body):
    return session.request("POST", path, body=json.dumps(body).encode(), headers={"Content-Type": "application/json"})


def post_multipart(session, path, parts, headers=None):
    body, content_type = encode_multipart(parts)
    return session.request("POST", path, body=body, headers={"Content-Type": content_type, **(headers or {})})


class TestTokens:
    def test_issue_token_shape(self, sim_service):
        service, _ = sim_service
        token = service.issue_token("gw", "gw-secret")
        assert len(token.token) >= 32
        assert token.scopes == frozenset({"upload", "read"})

    def test_wrong_secret_rejected(self, sim_service):
        service, _ = sim_service
        with pytest.raises(InvalidCredentialsError):
            service.issue_token("gw", "wrong")

    def test_unknown_client_rejected(self, sim_service):
        service, _ = sim_service
        with pytest.raises(InvalidCredentialsError):
            service.issue_token("nobody", "x")

    def test_expired_token_rejected_everywhere(self, sim_service):
        service, clock = sim_service
        token = service.issue_token("gw", "gw-secret").token
        clock.sleep_ms(3600 * 1000.0 + 1)
        with pytest.raises(TokenExpiredError):
            service.upload_trace(token, MANIFEST, b"blob")
        with pytest.raises(TokenExpiredError):
            service.get_trace(token, "00" * 32)
        with pytest.raises(TokenExpiredError):
            service.list_traces(token)

    def test_token_table_holds_only_live_tokens(self, tmp_path, accounts):
        clock = SimulatedClock()
        service = CloudStoreService(tmp_path / "store", clients=accounts, clock=clock, token_ttl_s=10)
        for issued in range(1000):
            token = service.issue_token("gw", "gw-secret").token
            # Issued each second and live for 10 s: at most the last 10 remain.
            assert len(service._tokens) == min(issued + 1, 10)
            clock.sleep_ms(1000.0)
        clock.sleep_ms(8000.0)
        assert service.authenticate(token, "upload").token == token

    def test_expired_tokens_leave_from_the_front(self, tmp_path, accounts):
        clock = SimulatedClock()
        service = CloudStoreService(tmp_path / "store", clients=accounts, clock=clock, token_ttl_s=10)
        old = [service.issue_token("gw", "gw-secret").token for _ in range(3)]
        clock.sleep_ms(5000.0)
        live = service.issue_token("gw", "gw-secret").token
        clock.sleep_ms(5000.0)
        # Past their TTL, the first three stay in the table until the next
        # issue, and are refused meanwhile.
        assert len(service._tokens) == 4
        with pytest.raises(TokenExpiredError):
            service.authenticate(old[0], "upload")
        newest = service.issue_token("gw", "gw-secret").token
        assert list(service._tokens) == [live, newest]
        assert service.authenticate(live, "upload").token == live
        with pytest.raises(UnauthorizedError):
            service.authenticate(old[1], "upload")

    def test_missing_token_unauthorized(self, sim_service):
        service, _ = sim_service
        with pytest.raises(UnauthorizedError):
            service.upload_trace(None, MANIFEST, b"blob")

    def test_scope_enforcement(self, sim_service):
        service, _ = sim_service
        up_only = service.issue_token("uploader", "up-secret").token
        read_only = service.issue_token("reader", "rd-secret").token
        receipt = service.upload_trace(up_only, MANIFEST, b"blob")
        with pytest.raises(ForbiddenError):
            service.get_trace(up_only, receipt["trace_ref"])
        with pytest.raises(ForbiddenError):
            service.upload_trace(read_only, MANIFEST, b"blob")
        service.get_trace(read_only, receipt["trace_ref"])

    def test_unknown_scope_rejected_at_construction(self, tmp_path, accounts):
        typo = ClientAccount("gw2", "s", frozenset({"uplaod", "read"}))
        with pytest.raises(ValueError, match="uplaod"):
            CloudStoreService(tmp_path / "store", clients={**accounts, "gw2": typo})


class TestUpload:
    def test_receipt_is_content_hash(self, sim_service):
        service, _ = sim_service
        blob = os.urandom(1024)
        receipt = service.upload_trace(upload_token(service), MANIFEST, blob)
        assert receipt["trace_ref"] == hashlib.sha256(blob).hexdigest()
        assert receipt["sha256"] == receipt["trace_ref"]
        assert receipt["size_bytes"] == len(blob)

    def test_storage_path_layout(self, sim_service, tmp_path):
        service, _ = sim_service
        receipt = service.upload_trace(upload_token(service), MANIFEST, b"payload")
        ref = receipt["trace_ref"]
        assert storage_key(ref) == f"objects/{ref[:2]}/{ref[2:4]}/{ref}"
        assert (tmp_path / "store" / storage_key(ref)).exists()

    def test_duplicate_upload_idempotent(self, sim_service):
        service, _ = sim_service
        token = upload_token(service)
        blob = b"same bytes"
        first = service.upload_trace(token, MANIFEST, blob)
        second = service.upload_trace(token, MANIFEST, blob)
        assert first["trace_ref"] == second["trace_ref"]
        assert len(service.list_traces(token)) == 1

    def test_missing_parts(self, sim_service):
        service, _ = sim_service
        token = upload_token(service)
        with pytest.raises(MissingPartError):
            service.upload_trace(token, None, b"blob")
        with pytest.raises(MissingPartError):
            service.upload_trace(token, MANIFEST, None)

    def test_manifest_must_be_json_object(self, sim_service):
        service, _ = sim_service
        token = upload_token(service)
        too_deep = b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        for text in (b"not json", b"[1,2]", b'"s"', b'{"a": 1} {"b": 2}', b'{"a": 1},', b"\xef\xbb\xbf{}", too_deep):
            with pytest.raises(ManifestInvalidError):
                service.upload_trace(token, text, b"blob")

    @pytest.mark.parametrize("driver_id", ["[1]", '{"a": 1}', "7", "true"])
    def test_driver_id_must_be_a_string(self, sim_service, tmp_path, driver_id):
        service, _ = sim_service
        token = upload_token(service)
        with pytest.raises(ManifestInvalidError, match="driver_id"):
            service.upload_trace(token, b'{"driver_id": %b}' % driver_id.encode(), b"blob")
        # Refused before the object is written.
        assert not (tmp_path / "store" / storage_key(hashlib.sha256(b"blob").hexdigest())).exists()

    @pytest.mark.parametrize("torn", ["truncated", "same-size"])
    def test_torn_object_is_rewritten_not_acknowledged(self, sim_service, tmp_path, torn):
        service, _ = sim_service
        token = upload_token(service)
        blob = (bytes(range(256)) * 79)[:20_000]
        path = tmp_path / "store" / storage_key(hashlib.sha256(blob).hexdigest())
        path.parent.mkdir(parents=True)
        # What a crash after an unsynced write can leave at the object's path.
        path.write_bytes(blob[:100] if torn == "truncated" else bytes(len(blob)))
        receipt = service.upload_trace(token, MANIFEST, blob)
        assert receipt["size_bytes"] == 20_000
        assert service.get_trace(token, receipt["trace_ref"])[0] == blob
        assert list((tmp_path / "store" / "tmp").iterdir()) == []

    def test_atomic_write_no_partial_object(self, sim_service, tmp_path, monkeypatch):
        service, _ = sim_service
        token = upload_token(service)
        real_replace = os.replace

        calls = {"n": 0}

        def crashing_replace(src, dst):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("synthetic crash between write and rename")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crashing_replace)
        blob = b"almost lost"
        ref = hashlib.sha256(blob).hexdigest()
        with pytest.raises(OSError):
            service.upload_trace(token, MANIFEST, blob)
        assert not (tmp_path / "store" / storage_key(ref)).exists()
        with pytest.raises(NotFoundError):
            service.get_trace(upload_token(service), ref)
        # Retry succeeds and is fully visible.
        receipt = service.upload_trace(token, MANIFEST, blob)
        data, _ = service.get_trace(token, receipt["trace_ref"])
        assert data == blob


class TestGetAndList:
    def test_round_trip_bytes_identical(self, sim_service):
        service, _ = sim_service
        token = upload_token(service)
        blob = os.urandom(4096)
        receipt = service.upload_trace(token, MANIFEST, blob)
        data, metadata = service.get_trace(token, receipt["trace_ref"])
        assert data == blob
        assert json.loads(metadata.manifest_json) == json.loads(MANIFEST)
        assert metadata.uploader == "gw"
        assert metadata.size_bytes == len(blob)

    def test_unknown_ref_not_found(self, sim_service):
        service, _ = sim_service
        with pytest.raises(NotFoundError):
            service.get_trace(upload_token(service), "00" * 32)

    @pytest.mark.parametrize("damage", ["truncated", "same-size"])
    def test_object_that_no_longer_hashes_to_its_ref_is_not_served(self, sim_service, tmp_path, damage):
        service, _ = sim_service
        token = upload_token(service)
        blob = (bytes(range(256)) * 79)[:20_000]
        ref = service.upload_trace(token, MANIFEST, blob)["trace_ref"]
        path = tmp_path / "store" / storage_key(ref)
        path.write_bytes(blob[:100] if damage == "truncated" else bytes(len(blob)))
        with pytest.raises(CorruptObjectError, match=ref) as caught:
            service.get_trace(token, ref)
        assert caught.value.http_status == 500

    def test_empty_store_lists_empty(self, sim_service):
        service, _ = sim_service
        assert service.list_traces(upload_token(service)) == []

    def test_filter_by_driver_newest_first(self, sim_service):
        service, clock = sim_service
        token = upload_token(service)
        refs = []
        for i in range(3):
            manifest = json.dumps({"driver_id": "drv"}).encode()
            refs.append(service.upload_trace(token, manifest, f"blob-{i}".encode())["trace_ref"])
            clock.sleep_ms(1000)
        service.upload_trace(token, json.dumps({"driver_id": "other"}).encode(), b"other blob")
        listed = service.list_traces(token, driver_id="drv")
        assert [m.trace_ref for m in listed] == list(reversed(refs))

    def test_pagination(self, sim_service):
        service, clock = sim_service
        token = upload_token(service)
        for i in range(3):
            service.upload_trace(token, MANIFEST, f"page-{i}".encode())
            clock.sleep_ms(10)
        first = service.list_traces(token, limit=2, offset=0)
        second = service.list_traces(token, limit=2, offset=2)
        assert len(first) == 2
        assert len(second) == 1
        assert {m.trace_ref for m in first}.isdisjoint({m.trace_ref for m in second})

    def test_time_range_filter(self, sim_service):
        service, clock = sim_service
        token = upload_token(service)
        service.upload_trace(token, MANIFEST, b"early")
        early_cutoff = int(clock.now_ms()) + 1
        clock.sleep_ms(5000)
        late = service.upload_trace(token, MANIFEST, b"late")["trace_ref"]
        listed = service.list_traces(token, from_ms=early_cutoff)
        assert [m.trace_ref for m in listed] == [late]

    @pytest.mark.parametrize(
        "filters", [{"driver_id": "drv"}, {"driver_id": "drv", "from_ms": 1, "to_ms": 2}, {}, {"from_ms": 1}]
    )
    def test_pages_are_read_without_a_sort(self, sim_service, monkeypatch, filters):
        service, _ = sim_service
        token = upload_token(service)
        statements = []
        connection = service._connection

        @contextlib.contextmanager
        def traced():
            with connection() as conn:
                conn.set_trace_callback(statements.append)
                yield conn

        monkeypatch.setattr(service, "_connection", traced)
        service.list_traces(token, **filters)
        (query,) = [sql for sql in statements if sql.startswith("SELECT")]
        with connection() as conn:
            plan = [row[3] for row in conn.execute(f"EXPLAIN QUERY PLAN {query}")]
        assert not [step for step in plan if "TEMP B-TREE" in step], plan


class TestContentAddressing:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=2, max_size=8, unique=True))
    def test_distinct_blobs_distinct_refs(self, blobs):
        refs = {hashlib.sha256(blob).hexdigest() for blob in blobs}
        assert len(refs) == len(blobs)

    def test_store_keeps_one_object_per_content(self, sim_service, tmp_path):
        service, _ = sim_service
        token = upload_token(service)
        for _ in range(3):
            service.upload_trace(token, MANIFEST, b"dedup me")
        objects = list((tmp_path / "store" / "objects").rglob("*"))
        assert len([p for p in objects if p.is_file()]) == 1


class TestSharedConnection:
    """One SQLite connection per service, which the handler threads take turns on."""

    def test_one_connect_and_no_pragma_per_operation(self, tmp_path, accounts, monkeypatch):
        connects = []
        connect = sqlite3.connect
        monkeypatch.setattr(sqlite3, "connect", lambda *args, **kwargs: connects.append(args) or connect(*args, **kwargs))
        service = CloudStoreService(tmp_path / "store", clients=accounts, clock=SimulatedClock())
        statements = []
        service._db.set_trace_callback(statements.append)
        try:
            token = upload_token(service)
            for i in range(10):
                blob = b"blob %d" % i
                ref = service.upload_trace(token, MANIFEST, blob)["trace_ref"]
                service.upload_trace(token, MANIFEST, blob)  # a dedup upload
                assert service.get_trace(token, ref)[0] == blob
                assert len(service.list_traces(token, driver_id="drv")) == i + 1
                assert not service._db.in_transaction
        finally:
            service.close()
        assert len(connects) == 1
        assert any(sql.startswith("INSERT") for sql in statements)
        assert not [sql for sql in statements if sql.upper().startswith("PRAGMA")]

    def test_an_error_inside_a_transaction_rolls_it_back(self, sim_service):
        service, _ = sim_service
        token = upload_token(service)
        with pytest.raises(RuntimeError, match="mid-transaction"):
            with service._connection() as conn:
                conn.execute(
                    "INSERT INTO traces (trace_ref, manifest, size_bytes, uploaded_at, uploader) "
                    "VALUES ('rolled-back', '{}', 0, 0, 'gw')"
                )
                assert conn.in_transaction
                raise RuntimeError("fails mid-transaction")
        assert not service._db.in_transaction
        assert not service._db_lock.locked()
        receipt = service.upload_trace(token, MANIFEST, b"after the rollback")
        assert not service._db.in_transaction
        assert [m.trace_ref for m in service.list_traces(token)] == [receipt["trace_ref"]]

    def test_a_second_service_on_the_root_sees_the_first_ones_uploads(self, tmp_path, accounts):
        first = CloudStoreService(tmp_path / "store", clients=accounts)
        try:
            ref = first.upload_trace(upload_token(first), MANIFEST, b"by the first")["trace_ref"]
            second = CloudStoreService(tmp_path / "store", clients=accounts)
            try:
                token = upload_token(second)
                assert second.get_trace(token, ref)[0] == b"by the first"
                back = second.upload_trace(token, MANIFEST, b"by the second")["trace_ref"]
                assert {m.trace_ref for m in first.list_traces(upload_token(first))} == {ref, back}
            finally:
                second.close()
        finally:
            first.close()
        assert not (tmp_path / "store" / "metadata.sqlite3-wal").exists()
        assert not (tmp_path / "store" / "metadata.sqlite3-shm").exists()

    def test_concurrent_clients_get_exact_receipts_listings_and_reads(self, tmp_path, accounts, capfd):
        service = CloudStoreService(tmp_path / "store", clients=accounts)
        shared = b"uploaded by every client" * 40
        shared_manifest = json.dumps({"session_id": "shared", "driver_id": "shared"}).encode()
        clients, cycles = 4, 20
        problems: list[str] = []

        def client_loop(n: int, base_url: str) -> None:
            client = CloudClient(base_url, "gw", "gw-secret")
            mine: list[str] = []
            try:
                for cycle in range(cycles):
                    blob = f"client {n} cycle {cycle};".encode() * (1 + cycle)
                    manifest = json.dumps({"session_id": f"{n}-{cycle}", "driver_id": f"drv-{n}"}).encode()
                    receipt = client.upload_trace(manifest, blob)
                    if receipt["trace_ref"] != hashlib.sha256(blob).hexdigest():
                        problems.append(f"client {n} cycle {cycle}: receipt {receipt}")
                    mine.append(receipt["trace_ref"])
                    listed = [m["trace_ref"] for m in client.list_traces(driver_id=f"drv-{n}")]
                    if sorted(listed) != sorted(mine):
                        problems.append(f"client {n} cycle {cycle}: listed {len(listed)} of {len(mine)}")
                    if client.get_trace(receipt["trace_ref"])[0] != blob:
                        problems.append(f"client {n} cycle {cycle}: read other bytes")
                    if client.upload_trace(shared_manifest, shared)["trace_ref"] != hashlib.sha256(shared).hexdigest():
                        problems.append(f"client {n} cycle {cycle}: shared receipt")
            except Exception as exc:  # noqa: BLE001 - reported by the test thread
                problems.append(f"client {n}: {exc!r}")
            finally:
                client.session.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with CloudStoreHTTPServer(service) as server:
                threads = [threading.Thread(target=client_loop, args=(n, server.base_url)) for n in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not [thread for thread in threads if thread.is_alive()]
        finally:
            sys.setswitchinterval(interval)
        assert problems == []
        with service._connection() as conn:
            (rows,) = conn.execute("SELECT COUNT(*) FROM traces").fetchone()
        assert rows == clients * cycles + 1
        assert not service._db.in_transaction
        service.close()
        assert capfd.readouterr().err == ""


class TestHttpSurface:
    def test_token_endpoint(self, store_http):
        response = post_json(store_http, "/api/v1/token", {"client_id": "gw", "client_secret": "gw-secret"})
        assert response.status == 200
        body = response.json()
        assert body["token_type"] == "Bearer"
        assert body["expires_in"] == pytest.approx(3600, abs=5)
        assert len(body["access_token"]) >= 32

    def test_bad_credentials_401(self, store_http):
        response = post_json(store_http, "/api/v1/token", {"client_id": "gw", "client_secret": "nope"})
        assert response.status == 401
        assert response.json()["error"] == "invalid-credentials"

    @pytest.mark.parametrize(
        "body",
        [
            b"[1, 2]",
            b'"x"',
            b'{"client_id": "gw", "client_secret": 5}',
            b'{"client_id": ["gw"], "client_secret": "s"}',
            b"[" * 100_000,
        ],
        ids=["array", "string", "number-secret", "list-id", "deep"],
    )
    def test_a_token_request_that_is_not_credentials_is_a_bad_request(self, store_http, caplog, body):
        response = store_http.request("POST", "/api/v1/token", body=body, headers={"Content-Type": "application/json"})
        assert response.status == 400
        assert response.json() == {
            "error": "bad-request",
            "detail": "body must be a JSON object with string client_id and client_secret",
        }
        assert post_json(store_http, "/api/v1/token", {"client_id": "gw", "client_secret": "gw-secret"}).status == 200
        assert not [record for record in caplog.records if record.levelno >= logging.ERROR]

    @pytest.mark.parametrize("secret", ["g\u00e9-secret", "\ud800"], ids=["non-ascii", "lone-surrogate"])
    def test_a_secret_compare_digest_cannot_take_is_a_wrong_secret(self, store_http, secret):
        response = post_json(store_http, "/api/v1/token", {"client_id": "gw", "client_secret": secret})
        assert response.status == 401
        assert response.json()["error"] == "invalid-credentials"

    def test_multipart_upload_and_download(self, store_server, cloud_client):
        blob = os.urandom(2048)
        receipt = cloud_client.upload_trace(MANIFEST, blob)
        assert receipt["trace_ref"] == hashlib.sha256(blob).hexdigest()
        data, metadata = cloud_client.get_trace(receipt["trace_ref"])
        assert data == blob
        assert metadata["manifest"] == json.loads(MANIFEST)

    def test_envelope_holding_the_clients_boundary_is_stored_under_its_sha256(self, store_service, cloud_client):
        _, content_type = encode_multipart({"manifest": ("m.json", MANIFEST, "application/json")})
        boundary = content_type.partition("boundary=")[2].encode("ascii")
        blob = os.urandom(64) + b"\r\n--" + boundary + b"--\r\n" + os.urandom(64)
        receipt = cloud_client.upload_trace(MANIFEST, blob)
        assert receipt["trace_ref"] == hashlib.sha256(blob).hexdigest()
        assert (store_service.root / storage_key(receipt["trace_ref"])).read_bytes() == blob
        assert cloud_client.get_trace(receipt["trace_ref"])[0] == blob

    def test_upload_without_token_401(self, store_http):
        response = post_multipart(
            store_http,
            "/api/v1/traces",
            {"manifest": ("m.json", MANIFEST, "application/json"), "trace": ("t.bin", b"x", "application/octet-stream")},
        )
        assert response.status == 401

    def test_missing_part_400(self, store_http, cloud_client):
        token = cloud_client.issue_token()["access_token"]
        response = post_multipart(
            store_http,
            "/api/v1/traces",
            {"trace": ("t.bin", b"x", "application/octet-stream")},
            headers={"Authorization": f"Bearer {token}"},
        )
        assert response.status == 400
        assert response.json()["error"] == "missing-part"

    def test_get_unknown_404(self, cloud_client):
        with pytest.raises(NotFoundError):
            cloud_client.get_trace("00" * 32)

    def test_corrupt_object_500(self, store_service, store_http, cloud_client):
        blob = (bytes(range(256)) * 79)[:20_000]
        ref = cloud_client.upload_trace(MANIFEST, blob)["trace_ref"]
        (store_service.root / storage_key(ref)).write_bytes(blob[:100])
        token = cloud_client.issue_token()["access_token"]
        response = store_http.request("GET", f"/api/v1/traces/{ref}", headers={"Authorization": f"Bearer {token}"})
        assert response.status == 500
        assert response.json()["error"] == "corrupt-object"
        with pytest.raises(CorruptObjectError):
            cloud_client.get_trace(ref)

    def test_scope_forbidden_403(self, store_server):
        uploader = CloudClient(store_server.base_url, "uploader", "up-secret")
        with contextlib.closing(uploader.session):
            receipt = uploader.upload_trace(MANIFEST, b"scoped")
            with pytest.raises(ForbiddenError):
                uploader.get_trace(receipt["trace_ref"])

    @pytest.mark.parametrize(
        "name,value,detail",
        [pytest.param(n, "abc", f"{n} must be an integer, got 'abc'", id=n) for n in ("limit", "offset", "from", "to")]
        + [
            pytest.param("limit", "0", "limit must be at least 1, got 0", id="limit=0"),
            pytest.param("limit", "-1", "limit must be at least 1, got -1", id="limit=-1"),
            pytest.param("offset", "-5", "offset must be at least 0, got -5", id="offset=-5"),
        ],
    )
    def test_malformed_list_query_400(self, store_http, cloud_client, name, value, detail):
        token = cloud_client.issue_token()["access_token"]
        response = store_http.request(
            "GET", "/api/v1/traces", params={name: value}, headers={"Authorization": f"Bearer {token}"}
        )
        assert response.status == 400
        assert response.json() == {"error": "bad-request", "detail": detail}
        with pytest.raises(BadRequestError):
            cloud_client._request("GET", "/api/v1/traces", params={name: value}, auth=True)

    def test_list_over_http(self, store_server, cloud_client):
        cloud_client.upload_trace(MANIFEST, b"listed blob")
        listed = cloud_client.list_traces(driver_id="drv")
        assert len(listed) == 1
        assert listed[0]["uploader"] == "gw"


class _FailingInsert:
    """The store's connection, with every INSERT raising ``error``."""

    def __init__(self, db, error):
        self._db, self._error = db, error

    def execute(self, sql, *args):
        if sql.startswith("INSERT"):
            raise self._error
        return self._db.execute(sql, *args)

    def __enter__(self):
        self._db.__enter__()
        return self

    def __exit__(self, *exc):
        return self._db.__exit__(*exc)


def _objects_without_rows(service) -> set[str]:
    objects = {path.name for path in (service.root / "objects").rglob("*") if path.is_file()}
    with service._connection() as conn:
        rows = {ref for (ref,) in conn.execute("SELECT trace_ref FROM traces")}
    return objects - rows


class TestInternalFaults:
    """A fault that is not a store error is answered 500 ``internal``, and a failed upload leaves no object.

    The client raises it as :class:`CloudUnreachableError`, so it is retried and its outbox entry stays pending.
    """

    @pytest.mark.parametrize("fault", ["insert-locked", "dedup-insert-locked", "object-write-eio"])
    def test_failed_upload_is_answered_and_leaves_no_object_without_a_row(
        self, store_service, cloud_client, monkeypatch, fault
    ):
        blob = b"a trace the store fails to take"
        ref = hashlib.sha256(blob).hexdigest()
        if fault == "dedup-insert-locked":
            cloud_client.upload_trace(MANIFEST, blob)
        if fault == "object-write-eio":

            def failing_write(path, data, tmp):
                raise OSError(errno.EIO, "Input/output error")

            monkeypatch.setattr(service_module, "write_atomic", failing_write)
        else:
            locked = sqlite3.OperationalError("database is locked")
            monkeypatch.setattr(store_service, "_db", _FailingInsert(store_service._db, locked))

        with pytest.raises(CloudUnreachableError, match="Error: "):
            cloud_client.upload_trace(MANIFEST, blob)
        # The reply said Connection: close, so the client dropped its connection.
        assert cloud_client.session._conn.sock is None
        monkeypatch.undo()

        assert _objects_without_rows(store_service) == set()
        stored = (store_service.root / storage_key(ref)).exists()
        assert stored == (fault == "dedup-insert-locked")
        # The next request, on a new connection, is served.
        assert cloud_client.upload_trace(MANIFEST, blob)["trace_ref"] == ref
        assert cloud_client.get_trace(ref)[0] == blob

    def test_failed_read_is_answered(self, store_service, cloud_client, monkeypatch):
        ref = cloud_client.upload_trace(MANIFEST, b"stored")["trace_ref"]
        locked = sqlite3.OperationalError("database is locked")

        def locked_metadata(trace_ref):
            raise locked

        monkeypatch.setattr(store_service, "_metadata", locked_metadata)
        with pytest.raises(CloudUnreachableError, match="database is locked"):
            cloud_client.get_trace(ref)
        monkeypatch.undo()
        assert cloud_client.get_trace(ref)[0] == b"stored"

    def test_the_store_answers_500_internal_on_the_wire(self, store_service, store_http, monkeypatch):
        monkeypatch.setattr(store_service, "issue_token", lambda *args: 1 / 0)
        response = post_json(store_http, "/api/v1/token", {"client_id": "gw", "client_secret": "gw-secret"})
        assert response.status == 500
        assert response.json() == {"error": "internal", "detail": "ZeroDivisionError: division by zero"}
        assert response.headers["Connection"] == "close"

    def test_a_locked_insert_is_retried_and_its_entry_left_pending(self, store_service, cloud_client, monkeypatch, key):
        outbox = Outbox(store_service.root.parent / "outbox")
        ref = outbox.put(seal(b"rows", MANIFEST, key), MANIFEST)
        inserts = []

        class CountingInsert(_FailingInsert):
            def execute(self, sql, *args):
                inserts.append(sql.startswith("INSERT"))
                return super().execute(sql, *args)

        locked = sqlite3.OperationalError("database is locked")
        monkeypatch.setattr(store_service, "_db", CountingInsert(store_service._db, locked))
        clock = SimulatedClock()
        assert flush_outbox(outbox, cloud_client, clock) == ([], [ref])
        assert outbox.pending() == [ref] and inserts.count(True) == 1 + FLUSH_RETRIES
        # A session's own send backs off on its clock between tries, as for an unreachable store.
        start = clock.now_ms()
        with pytest.raises(CloudUnreachableError, match="database is locked"):
            finalize_and_upload(b"rows", make_manifest(), key, cloud_client, outbox, clock)
        assert inserts.count(True) == 1 + FLUSH_RETRIES + 1 + SESSION_RETRIES
        assert clock.now_ms() - start == BACKOFF_MS * (2**SESSION_RETRIES - 1)
        monkeypatch.undo()
        receipts, remaining = flush_outbox(outbox, cloud_client, clock)
        assert remaining == [] and ref in {r.trace_ref for r in receipts}


class TestClientTokens:
    """The store alone judges a token; the client replaces one it refuses, once."""

    def test_token_past_its_ttl_on_the_store_clock_is_replaced(self, tmp_path, accounts):
        clock = SimulatedClock()
        service = CloudStoreService(tmp_path / "store", clients=accounts, clock=clock)
        with CloudStoreHTTPServer(service) as server:
            client = CloudClient(server.base_url, "gw", "gw-secret")
            with contextlib.closing(client.session):
                first = client.issue_token()["access_token"]
                assert client.list_traces() == []
                clock.sleep_ms(3601 * 1000.0)
                receipt = client.upload_trace(MANIFEST, b"after expiry")
                assert [m["trace_ref"] for m in client.list_traces()] == [receipt["trace_ref"]]
                # A new token was issued, and issuing it evicted the expired one.
                assert first not in service._tokens

    def test_restarted_store_is_reached_with_a_new_token(self, tmp_path, accounts):
        with CloudStoreHTTPServer(CloudStoreService(tmp_path / "old", clients=accounts)) as server:
            client = CloudClient(server.base_url, "gw", "gw-secret")
            with contextlib.closing(client.session):
                assert client.list_traces() == []
                server.stop()
                fresh = CloudStoreService(tmp_path / "new", clients=accounts)
                ref = fresh.upload_trace(upload_token(fresh), MANIFEST, b"held by the new store")["trace_ref"]
                with CloudStoreHTTPServer(fresh, port=server.address[1]):
                    assert [m["trace_ref"] for m in client.list_traces()] == [ref]

    def test_token_refused_on_first_use_is_raised(self, tmp_path, accounts, monkeypatch):
        service = CloudStoreService(tmp_path / "store", clients=accounts, clock=SimulatedClock(), token_ttl_s=0)
        issued = []
        issue = service.issue_token
        monkeypatch.setattr(service, "issue_token", lambda *args: issued.append(args) or issue(*args))
        with CloudStoreHTTPServer(service) as server:
            client = CloudClient(server.base_url, "gw", "gw-secret")
            with contextlib.closing(client.session):
                with pytest.raises(TokenExpiredError):
                    client.list_traces()
                assert len(issued) == 1
                # The cached token is refused, replaced once, and the new one refused too.
                with pytest.raises(TokenExpiredError):
                    client.list_traces()
                assert len(issued) == 2


class _ErrorCodeHandler(BaseHTTPRequestHandler):
    """Answers ``GET /<code>`` with the store's error body for that code."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):
        code = self.path[1:]
        send_json(self, ERROR_TYPES[code].http_status, {"error": code, "detail": f"{code} detail"})

    def log_message(self, fmt, *args):
        pass


@pytest.mark.parametrize("code", sorted(ERROR_TYPES))
def test_client_raises_each_registered_error(code):
    with ServedHttp(_ErrorCodeHandler) as server:
        client = CloudClient(server.base_url, "gw", "gw-secret")
        with contextlib.closing(client.session), pytest.raises(ERROR_TYPES[code], match=f"{code} detail") as caught:
            client._request("GET", f"/{code}")
    assert type(caught.value) is ERROR_TYPES[code]


@pytest.mark.parametrize(
    "status,body",
    [
        (502, b"[1]"),
        (502, b'"x"'),
        (502, b'{"error": ["x"], "detail": "d"}'),
        (502, b"<html>502 Bad Gateway</html>"),
        (404, b'{"error": "not-found"}'),
        (401, b'{"error": "unauthorized", "detail": 3}'),
        (400, b"[" * 100_000),
        (500, b""),
    ],
)
def test_an_error_reply_that_is_not_a_store_error_is_an_unreachable_store(status, body):
    error = _error_from_response(HttpResponse(status, http.client.HTTPMessage(), body))
    assert type(error) is CloudUnreachableError
    assert str(error).startswith(f"a {status} reply that is not the store's")


class _ManifestHeaderHandler(BaseHTTPRequestHandler):
    """Issues a token, and answers every GET with a blob and its server's ``X-Trace-Manifest`` header, if any."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        send_json(self, 200, {"access_token": "t", "token_type": "Bearer", "expires_in": 60})

    def do_GET(self):
        header = self.server.owner.header
        send_reply(self, 200, b"blob", {} if header is None else {"X-Trace-Manifest": header})

    def log_message(self, fmt, *args):
        pass


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


@pytest.mark.parametrize(
    "header",
    [None, "", "not base64!", _b64(b"\xff\xfe"), _b64(b"[1]"), _b64(b'{"ref": "r"}'), _b64(b'{"manifest": "text"}')],
    ids=["missing", "empty", "not-base64", "not-utf8", "array", "no-manifest", "manifest-not-an-object"],
)
def test_a_download_whose_manifest_header_is_not_the_stores_is_an_unreachable_store(header):
    with ServedHttp(_ManifestHeaderHandler) as server:
        server.header = header
        client = CloudClient(server.base_url, "gw", "gw-secret")
        with contextlib.closing(client.session):
            with pytest.raises(CloudUnreachableError, match="X-Trace-Manifest header"):
                client.get_trace("ref")
            server.header = _b64(b'{"manifest": {"session_id": "s1"}}')
            assert client.get_trace("ref") == (b"blob", {"manifest": {"session_id": "s1"}})


def test_registry_holds_the_store_errors_only():
    assert sorted(ERROR_TYPES) == sorted(
        cls.code
        for cls in (
            InvalidCredentialsError,
            UnauthorizedError,
            TokenExpiredError,
            ForbiddenError,
            NotFoundError,
            BadRequestError,
            MissingPartError,
            ManifestInvalidError,
            PayloadTooLargeError,
            StorageFullError,
            CorruptObjectError,
        )
    )


def raw_exchange(server, request: bytes) -> bytes:
    """Send ``request`` on a fresh connection, end the sending side, and read until the server closes it."""
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestBodyLength:
    """A bad or oversized ``Content-Length`` is refused unread; any other body is read before a refusal.

    Both methods take the one dispatch, so each case holds for a GET as for a POST.
    """

    @pytest.mark.parametrize("method", ["GET", "POST"])
    @pytest.mark.parametrize(
        "path,length,status,error",
        [
            ("/api/v1/token", "-1", 400, "bad-request"),
            ("/api/v1/traces", "abc", 400, "bad-request"),
            ("/api/v1/token", "999999999999", 413, "payload-too-large"),
            ("/api/v1/traces", str(MAX_BODY_BYTES + 1), 413, "payload-too-large"),
        ],
    )
    def test_rejected_and_connection_closed(self, store_server, cloud_client, method, path, length, status, error):
        request = (
            f"{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Type: multipart/form-data; boundary=b\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode()
        head, _, body = raw_exchange(store_server, request).partition(b"\r\n\r\n")
        assert head.split(b" ")[1] == str(status).encode()
        assert json.loads(body)["error"] == error
        assert length in json.loads(body)["detail"]
        # The handler is free again and the server takes new connections.
        assert cloud_client.list_traces() == []

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_refusal_that_closes_says_so(self, store_server, method):
        request = f"{method} /api/v1/token HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n".encode()
        head = raw_exchange(store_server, request).partition(b"\r\n\r\n")[0]
        assert b"\r\nConnection: close\r\n" in head + b"\r\n"

    @pytest.mark.parametrize("method", ["GET", "POST"])
    @pytest.mark.parametrize("length,error", [("abc", BadRequestError), (str(MAX_BODY_BYTES + 1), PayloadTooLargeError)])
    def test_client_raises_the_mapped_error(self, cloud_client, method, length, error):
        with pytest.raises(error):
            cloud_client._request(method, "/api/v1/token", body=b"", headers={"Content-Length": length})
        assert cloud_client.list_traces() == []

    @pytest.mark.parametrize("method", ["GET", "POST"])
    @pytest.mark.parametrize("path", ["/api/v1/traces", "/api/v1/elsewhere"])
    def test_refused_body_is_not_read_as_the_next_request(self, store_server, method, path):
        smuggled = b"GET /smuggled HTTP/1.1\r\nHost: x\r\n\r\n"
        request = (
            f"{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Type: text/plain\r\n"
            f"Content-Length: {len(smuggled)}\r\n\r\n"
        ).encode() + smuggled + b"GET /api/v1/next HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        reply = raw_exchange(store_server, request)
        assert reply.count(b"HTTP/1.1 ") == 2
        assert b"/smuggled" not in reply
        assert b"/api/v1/next" in reply

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_a_chunked_body_is_refused_unread(self, store_server, method):
        request = f"{method} /api/v1/nope HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n".encode()
        replies = _replies(raw_exchange(store_server, request + TOKEN_REQUEST))
        detail = "Transfer-Encoding is not supported; send a Content-Length"
        assert replies == [(400, {"error": "bad-request", "detail": detail})]


CREDENTIALS = json.dumps({"client_id": "gw", "client_secret": "gw-secret"}).encode()
TOKEN_REQUEST = (
    b"POST /api/v1/token HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%b" % (len(CREDENTIALS), CREDENTIALS)
)


def _replies(stream: bytes) -> list[tuple[int, object]]:
    """The ``(status, JSON body)`` of each reply in ``stream``, framed by their ``Content-Length``."""
    replies = []
    while stream:
        head, blank, rest = stream.partition(b"\r\n\r\n")
        assert blank, stream
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers["Content-Length"])
        replies.append((int(status_line.split(" ")[1]), json.loads(rest[:length])))
        stream = rest[length:]
    return replies


_PATHS = st.one_of(
    st.sampled_from(
        [
            "/api/v1/token",
            "/api/v1/traces",
            "/api/v1/traces?limit=2&driver_id=drv",
            "/api/v1/traces?offset=-1",
            "/api/v1/traces/" + "ab" * 32,
            "/api/v1/traces/a%2Fb%3Fc",
            "/api/v1/token/extra",
        ]
    ),
    st.text(string.ascii_letters + string.digits + "/%?=&.-_~", max_size=24).map("/".__add__),
)
# How the request states its body's length: absent, right, too long for what is sent, chunked, not a count,
# over the cap.
_LENGTHS = st.sampled_from(
    ["absent", "right", "long", "chunked", "abc", "-1", "+5", "1e3", " ", "\xb2", str(MAX_BODY_BYTES + 1)]
)
_BODIES = st.one_of(st.binary(max_size=48), st.just(CREDENTIALS), st.just(TOKEN_REQUEST))


def _request(method: str, path: str, length: str, body: bytes) -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
    if length == "absent":
        body = b""
    elif length == "right":
        head += f"Content-Length: {len(body)}\r\n"
    elif length == "long":
        head += f"Content-Length: {len(body) + 7}\r\n"
    elif length == "chunked":
        head += "Transfer-Encoding: chunked\r\n"
        body = b""
    else:
        # Refused unread and the connection closed: a body would be unread bytes at the close.
        head += f"Content-Length: {length}\r\n"
        body = b""
    return (head + "\r\n").encode("latin-1") + body


@settings(
    max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(method=st.sampled_from(["GET", "POST"]), path=_PATHS, length=_LENGTHS, body=_BODIES)
@example(method="GET", path="/api/v1/nope", length="right", body=TOKEN_REQUEST)
@example(method="POST", path="/api/v1/nope", length="right", body=TOKEN_REQUEST)
def test_every_request_gets_exactly_one_reply(store_server, method, path, length, body):
    replies = _replies(raw_exchange(store_server, _request(method, path, length, body)))
    assert len(replies) == 1, replies
    [(status, reply)] = replies
    if status < 300:
        assert (method, urlparse(path).path, status) == ("POST", "/api/v1/token", 200)
        assert type(reply["access_token"]) is str
    else:
        assert set(reply) == {"error", "detail"} and type(reply["detail"]) is str
        assert ERROR_TYPES[reply["error"]].http_status == status
    # The server is whole: a new connection is answered a token.
    assert _replies(raw_exchange(store_server, TOKEN_REQUEST))[0][0] == 200


def test_client_reports_a_framework_error_from_its_json_body(cloud_client):
    with pytest.raises(CloudError, match=r"^Unsupported method \('PUT'\)$"):
        cloud_client._request("PUT", "/api/v1/traces", body=b"")
    assert cloud_client.list_traces() == []


class _CountingWriter:
    """A handler's ``wfile`` that records the size of every write."""

    def __init__(self, wfile, writes: list[int]):
        self._wfile = wfile
        self._writes = writes

    def write(self, data):
        self._writes.append(len(data))
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


class _CountingHandler(httpd._Handler):
    def setup(self):
        super().setup()
        self.wfile = _CountingWriter(self.wfile, self.server.owner.writes)


class TestOneWritePerReply:
    """Each reply is one write: a second one would wait for the client's delayed ACK."""

    @pytest.fixture
    def counted(self, store_service):
        with ServedHttp(_CountingHandler) as server:
            server.service = store_service
            server.writes = []
            yield server

    def test_every_reply_is_one_write(self, counted):
        writes = counted.writes
        session = HttpSession(counted.base_url, timeout_s=10)

        def replied(status, response):
            assert response.status == status
            assert len(writes) == 1, writes
            writes.clear()
            return response

        with contextlib.closing(session):
            token = replied(200, post_json(session, "/api/v1/token", {"client_id": "gw", "client_secret": "gw-secret"}))
            auth = {"Authorization": f"Bearer {token.json()['access_token']}"}
            blob = os.urandom(300_000)
            parts = {"manifest": ("m.json", MANIFEST, "application/json"), "trace": ("t.bin", blob, "x/y")}
            ref = replied(201, post_multipart(session, "/api/v1/traces", parts, headers=auth)).json()["trace_ref"]
            assert replied(200, session.request("GET", f"/api/v1/traces/{ref}", headers=auth)).body == blob
            assert len(replied(200, session.request("GET", "/api/v1/traces", headers=auth)).json()) == 1
            missing = session.request("GET", f"/api/v1/traces/{'00' * 32}", headers=auth)
            assert replied(404, missing).json()["error"] == "not-found"
        reply = raw_exchange(counted, b"DELETE /api/v1/traces HTTP/1.1\r\nHost: x\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 501 ")
        assert writes == [len(reply)]
