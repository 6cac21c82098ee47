"""The store serves each manifest as the text it was uploaded as.

``TraceMetadata.to_json`` splices the stored text into the metadata object
unparsed. For every manifest a client can upload, what a reader decodes
(from ``to_json``, from a listing over HTTP and from ``X-Trace-Manifest``)
must equal what the store gave when it decoded the manifest and encoded the
whole object again with ``json.dumps``.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogtrace.clock import SimulatedClock
from fogtrace.cloudstore import ClientAccount, CloudClient, CloudStoreHTTPServer, CloudStoreService

# The uploader's name is spliced in too; this one needs escaping in JSON.
_CLIENT = 'gw "\\ é\x01</'
_ACCOUNTS = {_CLIENT: ClientAccount(_CLIENT, "gw-secret", frozenset({"upload", "read"}))}

# Runs of any characters and of those that JSON escapes, that HTML reads or that span bytes in UTF-8.
_strings = st.lists(
    st.text(max_size=4) | st.sampled_from(['"', "\\", "</", "\x00", "\x1f", "\x7f", "\u2028", "é", "😀"]), max_size=5
).map("".join)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False, allow_infinity=False)
    | _strings
)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_strings, children, max_size=4),
    max_leaves=20,
)


@st.composite
def manifest_texts(draw) -> str:
    """A JSON object as an uploader might write it: any spacing, ASCII-escaped or not."""
    manifest = draw(st.dictionaries(_strings, _values, max_size=6))
    if "driver_id" in manifest:
        manifest["driver_id"] = draw(_strings)
    return json.dumps(
        manifest,
        ensure_ascii=draw(st.booleans()),
        indent=draw(st.sampled_from([None, 0, 2])),
        separators=draw(st.sampled_from([None, (",", ":"), (" , ", " : ")])),
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    clock = SimulatedClock()
    service = CloudStoreService(tmp_path_factory.mktemp("store"), clients=_ACCOUNTS, clock=clock)
    with CloudStoreHTTPServer(service) as server:
        client = CloudClient(server.base_url, _CLIENT, "gw-secret")
        yield service, clock, client, itertools.count()
        client.session.close()
    service.close()


def _decoded_and_encoded_again(metadata) -> dict:
    """The metadata as the store served it when it parsed every manifest it read."""
    return json.loads(
        json.dumps(
            {
                "trace_ref": metadata.trace_ref,
                "manifest": json.loads(metadata.manifest_json),
                "size_bytes": metadata.size_bytes,
                "uploaded_at": metadata.uploaded_at,
                "uploader": metadata.uploader,
            }
        )
    )


@settings(max_examples=100, deadline=None)
@given(manifest_texts())
@example(' { "a" : 1 ,\n\t"a": [ 2 , "x" ] , "b":{"c":null} ,"d": "</script>" } \n')
@example('{"n": 9007199254740993, "f": -0.0, "g": 1e-300, "s": "\\ud83d\\ude00 \\u0000 \\"\\\\"}')
def test_readers_get_what_the_reencoded_manifest_gave(store, text):
    service, clock, client, counter = store
    clock.sleep_ms(1.0)  # each upload the newest, so a one-row listing finds it
    blob = b"trace %d" % next(counter)
    receipt = client.upload_trace(text.encode("utf-8"), blob)
    token = service.issue_token(_CLIENT, "gw-secret").token
    _, metadata = service.get_trace(token, receipt["trace_ref"])
    assert metadata.manifest_json == text
    assert json.loads(metadata.manifest_json) == json.loads(text)
    expected = _decoded_and_encoded_again(metadata)
    assert json.loads(metadata.to_json()) == expected
    assert client.list_traces(limit=1) == [expected]
    assert client.get_trace(receipt["trace_ref"]) == (blob, expected)


def test_a_listing_of_several_rows_keeps_each_manifests_text(store):
    service, clock, client, counter = store
    texts = ['{"k": 1}', '{ "k" : [ ] }', '{"é": "\\u00e9"}']
    for text in texts:
        clock.sleep_ms(1.0)
        client.upload_trace(text.encode("utf-8"), b"trace %d" % next(counter))
    token = service.issue_token(_CLIENT, "gw-secret").token
    listed = service.list_traces(token, limit=3)
    assert [m.manifest_json for m in listed] == texts[::-1]
    assert client.list_traces(limit=3) == [_decoded_and_encoded_again(m) for m in listed]

