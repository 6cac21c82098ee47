"""HTTP client for the trace repository, used by the gateway and the CLI.

A reply body, or a download's ``X-Trace-Manifest`` header, that is not the
store's JSON (a captive portal's page, a proxy's error) raises
:class:`CloudUnreachableError`, as no reply does, and so does a 500
``internal``; any other ``{error, detail}`` maps onto its exception type.
Only the store judges a token: a cached one it refuses is replaced once.
"""

from __future__ import annotations

import base64
import json
from urllib.parse import quote

from ..httpclient import HttpResponse, HttpSession, NoResponseError, encode_multipart
from .service import ERROR_TYPES, CloudError, TokenExpiredError, UnauthorizedError


class CloudUnreachableError(CloudError):
    code = "unreachable"
    http_status = 503


# An ``internal`` fault is retried as an unreachable store is.
_ERROR_TYPES = {**ERROR_TYPES, CloudError.code: CloudUnreachableError}


class CloudClient:
    def __init__(
        self,
        base_url: str,
        client_id: str,
        client_secret: str,
        timeout_s: float = 30.0,
    ):
        self.client_id = client_id
        self.client_secret = client_secret
        self.session = HttpSession(base_url, timeout_s)
        self._token: str | None = None

    # -- API ----------------------------------------------------------------

    def issue_token(self) -> dict:
        body = json.dumps({"client_id": self.client_id, "client_secret": self.client_secret}).encode("utf-8")
        response = self._request("POST", "/api/v1/token", body=body, headers={"Content-Type": "application/json"})
        data = _store_json(response.body, f"a {response.status} reply", dict, access_token=str)
        self._token = data["access_token"]
        return data

    def upload_trace(self, manifest_json: bytes, blob: bytes) -> dict:
        body, content_type = encode_multipart(
            {
                "manifest": ("manifest.json", manifest_json, "application/json"),
                "trace": ("trace.bin", blob, "application/octet-stream"),
            }
        )
        response = self._request("POST", "/api/v1/traces", body=body, headers={"Content-Type": content_type}, auth=True)
        return _store_json(response.body, f"a {response.status} reply", dict)

    def get_trace(self, trace_ref: str) -> tuple[bytes, dict]:
        # Every reserved character escaped, so '?', '#' and '/' stay in the ref.
        response = self._request("GET", f"/api/v1/traces/{quote(trace_ref, safe='')}", auth=True)
        try:
            header = base64.b64decode(response.headers.get("X-Trace-Manifest", ""), validate=True)
        except ValueError:
            header = b""
        return response.body, _store_json(header, "an X-Trace-Manifest header", dict, manifest=dict)

    def list_traces(
        self,
        driver_id: str | None = None,
        from_ms: int | None = None,
        to_ms: int | None = None,
        limit: int | None = None,
        offset: int | None = None,
    ) -> list[dict]:
        params = {}
        if driver_id is not None:
            params["driver_id"] = driver_id
        if from_ms is not None:
            params["from"] = int(from_ms)
        if to_ms is not None:
            params["to"] = int(to_ms)
        if limit is not None:
            params["limit"] = int(limit)
        if offset is not None:
            params["offset"] = int(offset)
        response = self._request("GET", "/api/v1/traces", params=params, auth=True)
        return _store_json(response.body, f"a {response.status} reply", list)

    # -- plumbing -------------------------------------------------------------

    def _request(
        self, method: str, path: str, auth: bool = False, params=None, body: bytes | None = None, headers=None
    ) -> HttpResponse:
        headers = dict(headers or {})
        # A token refused on its first use is not replaced: the refusal is the answer.
        replace_refused = auth and self._token is not None
        while True:
            if auth:
                if self._token is None:
                    self.issue_token()
                headers["Authorization"] = f"Bearer {self._token}"
            try:
                response = self.session.request(method, path, params=params, body=body, headers=headers)
            except NoResponseError as exc:
                raise CloudUnreachableError(str(exc)) from exc
            if response.status < 400:
                return response
            error = _error_from_response(response)
            if not (replace_refused and isinstance(error, (TokenExpiredError, UnauthorizedError))):
                raise error
            replace_refused = False
            self._token = None


def _store_json(raw: bytes, what: str, kind: type, **fields: type):
    """``raw`` as the store sends it: JSON of type ``kind`` whose ``fields`` are each of their type.

    Anything else is not the store's, so the store was not reached:
    :class:`CloudUnreachableError`.
    """
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):
        value = None
    if type(value) is not kind or any(type(value.get(name)) is not t for name, t in fields.items()):
        raise CloudUnreachableError(f"{what} that is not the store's: {raw[:80]!r}")
    return value


def _error_from_response(response: HttpResponse) -> CloudError:
    """The error a reply of 400 and up stands for: the store's ``{error, detail}``, or else unreachable."""
    try:
        body = _store_json(response.body, f"a {response.status} reply", dict, error=str, detail=str)
    except CloudUnreachableError as exc:
        return exc
    return _ERROR_TYPES.get(body["error"], CloudError)(body["detail"])
