"""The store's multipart scanner against a reference copy of its ``email`` version.

``_ref_parse_multipart`` below is ``fogtrace.cloudstore.httpd.parse_multipart``
as it was when the store parsed uploads with ``email.parser``, kept as it
was. For every well-formed multipart/form-data body (RFC 7578 over RFC
2046) the scanner must return the same parts; for arbitrary bytes it must
return parts or raise ``MissingPartError``, and nothing else.
"""

from __future__ import annotations

import email.parser
import email.policy

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogtrace.cloudstore import MissingPartError
from fogtrace.cloudstore.httpd import parse_multipart
from fogtrace.httpclient import encode_multipart

# -- reference ------------------------------------------------------------------


def _ref_parse_multipart(content_type: str, body: bytes) -> dict[str, bytes]:
    """Extract named form parts from a multipart/form-data body."""
    head = f"Content-Type: {content_type}\r\nMIME-Version: 1.0\r\n\r\n".encode("latin-1")
    message = email.parser.BytesParser(policy=email.policy.default).parsebytes(head + body)
    if not message.is_multipart():
        raise MissingPartError("body is not multipart/form-data")
    parts: dict[str, bytes] = {}
    for part in message.iter_parts():
        name = part.get_param("name", header="content-disposition")
        if name:
            payload = part.get_payload(decode=True)
            parts[str(name)] = payload if payload is not None else b""
    return parts


# -- well-formed bodies -----------------------------------------------------------

_ALNUM = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
# RFC 2046 bchars without the space; a bare boundary must also be an RFC 2045
# token, and without "'", which the reference's header parser misreads bare.
_QUOTED_BOUNDARY_CHARS = _ALNUM + "'()+_,-./:=?"
_BARE_BOUNDARY_CHARS = _ALNUM + "+_-."
_NAME_CHARS = _ALNUM + "_-."


def _param(draw, name: str, value: str) -> str:
    return f'{name}="{value}"' if draw(st.booleans()) else f"{name}={value}"


@st.composite
def form_bodies(draw):
    """A well-formed body, its ``Content-Type`` and the parts a parser must find."""
    quoted = draw(st.booleans())
    chars = _QUOTED_BOUNDARY_CHARS if quoted else _BARE_BOUNDARY_CHARS
    boundary = draw(st.text(chars, min_size=1, max_size=70))
    delimiter = b"--" + boundary.encode("ascii")
    quote = '"' if quoted else ""
    params = [f"{draw(st.sampled_from(['boundary', 'BOUNDARY', 'Boundary']))}={quote}{boundary}{quote}"]
    params += draw(st.lists(st.sampled_from(["charset=utf-8", 'x-note="a;b=c"', "x-flag=1"]), max_size=2, unique=True))
    content_type = "multipart/form-data; " + "; ".join(draw(st.permutations(params)))

    # Payload pieces that look like the structure around them.
    prefix = st.integers(1, len(delimiter) - 1).map(lambda k: delimiter[:k])
    piece = st.one_of(
        st.binary(max_size=24),
        st.sampled_from([b"--", b"\r\n", b"\r", b"\n", b"\r\n\r\n", b"-"]),
        prefix,
        prefix.map(lambda p: b"\r\n" + p),
    )
    free_bytes = st.lists(piece, max_size=6).map(b"".join).filter(lambda b: delimiter not in b)

    expected: dict[str, bytes] = {}
    chunks = []
    preamble = draw(free_bytes)
    if preamble:
        chunks.append(preamble + b"\r\n")
    # RFC 2046 asks for at least one body part.
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.none() | st.text(_NAME_CHARS, min_size=1, max_size=12))
        payload = draw(free_bytes)
        headers = []
        if name is not None or draw(st.booleans()):
            disposition = ["form-data"]
            extra = [] if name is None else [_param(draw, "name", name)]
            extra += draw(st.lists(st.just('filename="part.bin"'), max_size=1))
            disposition += draw(st.permutations(extra))
            field = draw(st.sampled_from(["Content-Disposition", "content-disposition", "CONTENT-DISPOSITION"]))
            headers.append(f"{field}: {'; '.join(disposition)}")
        headers += draw(
            st.lists(
                st.sampled_from(["Content-Type: application/octet-stream", "Content-Type: text/plain", "X-Extra: 1"]),
                max_size=2,
                unique=True,
            )
        )
        headers = draw(st.permutations(headers))
        padding = draw(st.sampled_from(["", " ", "\t "])).encode()
        head = "".join(f"{h}\r\n" for h in headers).encode("ascii")
        chunks.append(delimiter + padding + b"\r\n" + head + b"\r\n" + payload + b"\r\n")
        if name:
            expected[name] = payload
    chunks.append(delimiter + b"--")
    epilogue = draw(free_bytes)
    if epilogue:
        chunks.append(b"\r\n" + epilogue)
    return content_type, b"".join(chunks), expected


@settings(max_examples=200, deadline=None)
@given(form_bodies())
@example(
    ("multipart/form-data; boundary=b", b"--b\r\nContent-Disposition: form-data; name=a\r\n\r\nx\r\n--b--", {"a": b"x"})
)
def test_well_formed_bodies_parse_as_the_reference_does(case):
    content_type, body, expected = case
    assert parse_multipart(content_type, body) == _ref_parse_multipart(content_type, body) == expected


def test_the_clients_encoding_parses_as_the_reference_does():
    body, content_type = encode_multipart(
        {
            "manifest": ("manifest.json", b'{"a": 1}', "application/json"),
            "trace": ("t.bin", bytes(range(256)) * 9, "application/octet-stream"),
        }
    )
    assert parse_multipart(content_type, body) == _ref_parse_multipart(content_type, body)


# -- arbitrary input ------------------------------------------------------------------


def _scanned(content_type: str, body: bytes) -> dict[str, bytes] | None:
    try:
        parts = parse_multipart(content_type, body)
    except MissingPartError:
        return None
    assert all(isinstance(k, str) and isinstance(v, bytes) and v in body for k, v in parts.items())
    return parts


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60), st.binary(max_size=300))
@example("multipart/form-data; boundary=b", b"--b")
@example("multipart/form-data; boundary=b", b"--b\r\n\r\n")
@example("multipart/form-data; boundary=b", b"--b\r\nContent-Disposition: form-data; name=a\r\n")
@example("multipart/form-data; boundary=\"\"", b"--\r\n")
@example("multipart/form-data; boundary=€", b"--?\r\n")
def test_arbitrary_input_gives_parts_or_missing_part(content_type, body):
    _scanned(content_type, body)


@settings(max_examples=100, deadline=None)
@given(form_bodies(), st.data())
def test_damaged_bodies_give_parts_or_missing_part(case, data):
    content_type, body, _ = case
    cut = data.draw(st.integers(0, len(body)))
    insert = data.draw(st.binary(max_size=8))
    _scanned(content_type, body[:cut] + insert + body[cut + data.draw(st.integers(0, 8)) :])
