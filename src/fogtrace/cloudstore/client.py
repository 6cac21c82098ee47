"""HTTP client for the trace repository, used by the gateway and the CLI.

Maps the service's error bodies back onto the shared exception types and
caches the bearer token. Only the store judges whether a token is still
valid: a cached token it refuses as expired or unknown is replaced once and
the request sent again.
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
        data = response.json()
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
        return response.json()

    def get_trace(self, trace_ref: str) -> tuple[bytes, dict]:
        # Every reserved character escaped, so '?', '#' and '/' stay in the ref.
        response = self._request("GET", f"/api/v1/traces/{quote(trace_ref, safe='')}", auth=True)
        header = response.headers.get("X-Trace-Manifest", "")
        metadata = json.loads(base64.b64decode(header)) if header else {}
        return response.body, metadata

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
        return response.json()

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


def _error_from_response(response: HttpResponse) -> CloudError:
    try:
        body = response.json()
        code = body.get("error", "internal")
        detail = body.get("detail", response.text)
    except ValueError:
        code, detail = "internal", response.text
    return ERROR_TYPES.get(code, CloudError)(detail)
