from __future__ import annotations

import contextlib
import hashlib
import json
import os
import socket

from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogtrace.clock import SimulatedClock
from fogtrace.cloudstore import (
    BadRequestError,
    ClientAccount,
    CloudClient,
    CloudStoreHTTPServer,
    CloudStoreService,
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
from fogtrace.cloudstore.httpd import MAX_BODY_BYTES
from fogtrace.cloudstore.service import ERROR_TYPES
from fogtrace.httpclient import HttpSession, encode_multipart
from fogtrace.served import ServedHttp, send_json

MANIFEST = json.dumps({"session_id": "s1", "driver_id": "drv"}).encode()


@pytest.fixture
def sim_service(tmp_path, accounts):
    clock = SimulatedClock()
    return CloudStoreService(tmp_path / "store", clients=accounts, clock=clock), clock


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
        with pytest.raises(ManifestInvalidError):
            service.upload_trace(token, b"not json", b"blob")
        with pytest.raises(ManifestInvalidError):
            service.upload_trace(token, b"[1,2]", b"blob")

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
        assert metadata.manifest == json.loads(MANIFEST)
        assert metadata.uploader == "gw"
        assert metadata.size_bytes == len(blob)

    def test_unknown_ref_not_found(self, sim_service):
        service, _ = sim_service
        with pytest.raises(NotFoundError):
            service.get_trace(upload_token(service), "00" * 32)

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

    def test_multipart_upload_and_download(self, store_server, cloud_client):
        blob = os.urandom(2048)
        receipt = cloud_client.upload_trace(MANIFEST, blob)
        assert receipt["trace_ref"] == hashlib.sha256(blob).hexdigest()
        data, metadata = cloud_client.get_trace(receipt["trace_ref"])
        assert data == blob
        assert metadata["manifest"] == json.loads(MANIFEST)

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
                with CloudStoreHTTPServer(fresh, port=server.port):
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
        )
    )


def raw_exchange(server, request: bytes) -> bytes:
    """Send ``request`` on a fresh connection and read until the server closes it."""
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestBodyLength:
    """A bad or oversized ``Content-Length`` is refused unread; any other body is read before a refusal."""

    @pytest.mark.parametrize(
        "path,length,status,error",
        [
            ("/api/v1/token", "-1", 400, "bad-request"),
            ("/api/v1/traces", "abc", 400, "bad-request"),
            ("/api/v1/token", "999999999999", 413, "payload-too-large"),
            ("/api/v1/traces", str(MAX_BODY_BYTES + 1), 413, "payload-too-large"),
        ],
    )
    def test_rejected_and_connection_closed(self, store_server, cloud_client, path, length, status, error):
        request = (
            f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Type: multipart/form-data; boundary=b\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode()
        head, _, body = raw_exchange(store_server, request).partition(b"\r\n\r\n")
        assert head.split(b" ")[1] == str(status).encode()
        assert json.loads(body)["error"] == error
        assert length in json.loads(body)["detail"]
        # The handler is free again and the server takes new connections.
        assert cloud_client.list_traces() == []

    def test_refusal_that_closes_says_so(self, store_server):
        request = b"POST /api/v1/token HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n"
        head = raw_exchange(store_server, request).partition(b"\r\n\r\n")[0]
        assert b"\r\nConnection: close\r\n" in head + b"\r\n"

    @pytest.mark.parametrize("length,error", [("abc", BadRequestError), (str(MAX_BODY_BYTES + 1), PayloadTooLargeError)])
    def test_client_raises_the_mapped_error(self, cloud_client, length, error):
        with pytest.raises(error):
            cloud_client._request("POST", "/api/v1/token", body=b"", headers={"Content-Length": length})
        assert cloud_client.list_traces() == []

    @pytest.mark.parametrize("path", ["/api/v1/traces", "/api/v1/elsewhere"])
    def test_refused_body_is_not_read_as_the_next_request(self, store_server, path):
        smuggled = b"GET /smuggled HTTP/1.1\r\nHost: x\r\n\r\n"
        request = (
            f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Type: text/plain\r\n"
            f"Content-Length: {len(smuggled)}\r\n\r\n"
        ).encode() + smuggled + b"GET /api/v1/next HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        reply = raw_exchange(store_server, request)
        assert reply.count(b"HTTP/1.1 ") == 2
        assert b"/smuggled" not in reply
        assert b"/api/v1/next" in reply
