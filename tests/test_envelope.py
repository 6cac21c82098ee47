from __future__ import annotations

import pytest

from fogtrace.gateway.envelope import (
    MAGIC,
    NONCE_LEN,
    AuthenticationError,
    EnvelopeError,
    open_envelope,
    seal,
)

KEY = bytes(range(32))
OTHER_KEY = bytes(range(1, 33))
CSV = b"timestamp_ms,source,channel,value,unit,interpolated\n1,a,bpm,70,bpm,0\n"
AD = b'{"session_id":"sid"}'


def test_seal_open_identity():
    blob = seal(CSV, AD, KEY)
    assert open_envelope(blob, AD, KEY) == CSV


def test_layout():
    nonce = bytes(12)
    blob = seal(CSV, AD, KEY, nonce=nonce)
    assert blob[:5] == MAGIC
    assert blob[5 : 5 + NONCE_LEN] == nonce
    assert len(blob) == 5 + 12 + len(CSV) + 16


def test_wrong_key_fails():
    blob = seal(CSV, AD, KEY)
    with pytest.raises(AuthenticationError):
        open_envelope(blob, AD, OTHER_KEY)


def test_any_bit_flip_fails():
    blob = bytearray(seal(CSV, AD, KEY))
    for pos in (len(MAGIC), len(MAGIC) + NONCE_LEN + 3, len(blob) - 1):
        tampered = bytearray(blob)
        tampered[pos] ^= 0x01
        with pytest.raises(AuthenticationError):
            open_envelope(bytes(tampered), AD, KEY)


def test_modified_associated_data_fails():
    blob = seal(CSV, AD, KEY)
    with pytest.raises(AuthenticationError):
        open_envelope(blob, AD + b" ", KEY)


def test_bad_magic_rejected():
    blob = b"XXXXX" + seal(CSV, AD, KEY)[5:]
    with pytest.raises(EnvelopeError):
        open_envelope(blob, AD, KEY)


def test_short_blob_rejected():
    with pytest.raises(EnvelopeError):
        open_envelope(b"FDTL1xx", AD, KEY)


def test_bad_key_length_rejected():
    with pytest.raises(EnvelopeError):
        seal(CSV, AD, b"short")


def test_fresh_nonce_each_seal():
    assert seal(CSV, AD, KEY) != seal(CSV, AD, KEY)
