"""Authenticated trace envelope: ``"FDTL1" || nonce(12) || AES-256-GCM(csv)``.

The manifest's canonical JSON rides as associated data, binding every
ciphertext to its metadata: decrypting with the wrong key, a flipped bit
anywhere, or a modified manifest all fail authentication.
"""

from __future__ import annotations

import os

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

MAGIC = b"FDTL1"
NONCE_LEN = 12
KEY_LEN = 32
_MIN_LEN = len(MAGIC) + NONCE_LEN + 16  # GCM tag


class EnvelopeError(Exception):
    pass


class AuthenticationError(EnvelopeError):
    pass


def _check_key(key: bytes) -> None:
    if not isinstance(key, (bytes, bytearray)) or len(key) != KEY_LEN:
        raise EnvelopeError(f"key must be {KEY_LEN} bytes")


def seal(csv_bytes: bytes, manifest_json: bytes, key: bytes, nonce: bytes | None = None) -> bytes:
    _check_key(key)
    if nonce is None:
        nonce = os.urandom(NONCE_LEN)
    elif len(nonce) != NONCE_LEN:
        raise EnvelopeError(f"nonce must be {NONCE_LEN} bytes")
    ciphertext = AESGCM(bytes(key)).encrypt(nonce, csv_bytes, manifest_json)
    return MAGIC + nonce + ciphertext


def open_envelope(blob: bytes, manifest_json: bytes, key: bytes) -> bytes:
    _check_key(key)
    if len(blob) < _MIN_LEN:
        raise EnvelopeError("blob too short to be an envelope")
    if blob[: len(MAGIC)] != MAGIC:
        raise EnvelopeError(f"bad magic {blob[:len(MAGIC)]!r}")
    nonce = blob[len(MAGIC) : len(MAGIC) + NONCE_LEN]
    ciphertext = blob[len(MAGIC) + NONCE_LEN :]
    try:
        return AESGCM(bytes(key)).decrypt(nonce, ciphertext, manifest_json)
    except InvalidTag as exc:
        raise AuthenticationError("envelope failed authentication") from exc
