"""Ed25519 signing backend: the system libsodium, bound through ctypes.

It is the one engine; without libsodium, importing this module raises
ImportError.  Signatures are standard RFC 8032 detached signatures.  The
engine holds no state but the library handle: a signer passes libsodium's
64-byte secret key, the seed followed by the public key, which an
``IssuerKey`` already holds.

The engine does Ed25519 only.  The GIL is released once per verify
(``mandate.verify_signature``), for the signature check; the context hash's
SHA-256 is CPython's own (see ``mandate``), which keeps the GIL on short
inputs.
"""

from __future__ import annotations

import ctypes
import ctypes.util

SEED_LEN = 32
PUBLIC_KEY_LEN = 32
SECRET_KEY_LEN = 64  # libsodium secret key = seed || public key
SIGNATURE_LEN = 64

_P = 2 ** 255 - 19
_Y8 = 2707385501144840649318225287225658788936804267575313519463743609750303402022


def _encodings(ys) -> frozenset[bytes]:
    """The 32-byte encodings of each y, with either sign bit."""
    return frozenset((y | sign << 255).to_bytes(32, "little")
                     for y in ys for sign in (0, 1))


# y >= p: 19 values, which libsodium's canonical check refuses
_NON_CANONICAL = _encodings(range(_P, 1 << 255))
# the y of each point of order 1, 2, 4 or 8, which libsodium's
# has_small_order refuses (with p and p + 1, refused above).  Under an
# Ed25519 check that tests no key, as OpenSSL's does, a key A of small order
# takes the signature R = -[k]A, S = 0 for any message whose k falls in the
# right class: anyone can forge.  An R of small order lets a key's holder
# sign with r = 0 a signature libsodium refuses and such a check accepts.
_SMALL_ORDER = _encodings({0, 1, _Y8, _P - _Y8, _P - 1})
# The 48 encodings libsodium refuses as a public key and as a signature's R;
# ``mandate.verify_signature`` refuses them before libsodium is asked, so
# the rule does not rest on one libsodium version's checks.  Chalkias,
# Garillot and Nikolaenko, "Taming the many EdDSAs" (SSR 2020,
# https://eprint.iacr.org/2020/1244), catalogue how engines differ on them.
WEAK_ENCODINGS = _NON_CANONICAL | _SMALL_ORDER


def public_key_problem(public_key: bytes) -> str | None:
    """Why ``public_key`` is no key to trust, or None.

    A key must be 32 bytes that encode y canonically (y < p once the sign
    bit is masked) and must not be a point of small order.
    """
    if not isinstance(public_key, bytes) or len(public_key) != PUBLIC_KEY_LEN:
        return "public key must be 32 raw bytes"
    if public_key in _NON_CANONICAL:
        return "public key is not a canonical encoding"
    if public_key in _SMALL_ORDER:
        return "public key is a point of small order"
    return None


class _SodiumEngine:
    # libsodium reads a fixed number of bytes through each pointer it is
    # given, so every length is checked before a pointer is handed over
    name = "libsodium"

    def __init__(self, lib: ctypes.CDLL):
        if lib.sodium_init() < 0:
            raise RuntimeError("sodium_init failed")
        lib.crypto_sign_ed25519_seed_keypair.argtypes = [
            ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p]
        lib.crypto_sign_ed25519_detached.argtypes = [
            ctypes.c_char_p, ctypes.POINTER(ctypes.c_ulonglong),
            ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p]
        lib.crypto_sign_ed25519_verify_detached.argtypes = [
            ctypes.c_char_p, ctypes.c_char_p, ctypes.c_ulonglong,
            ctypes.c_char_p]
        self._lib = lib

    def public_key(self, seed: bytes) -> bytes:
        if len(seed) != SEED_LEN:
            raise ValueError("seed must be 32 bytes")
        pk = ctypes.create_string_buffer(PUBLIC_KEY_LEN)
        sk = ctypes.create_string_buffer(SECRET_KEY_LEN)
        if self._lib.crypto_sign_ed25519_seed_keypair(pk, sk, seed) != 0:
            raise RuntimeError("crypto_sign_ed25519_seed_keypair failed")
        return pk.raw

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        if len(secret_key) != SECRET_KEY_LEN:
            raise ValueError("secret key must be 64 bytes")
        sig = ctypes.create_string_buffer(SIGNATURE_LEN)
        if self._lib.crypto_sign_ed25519_detached(
                sig, None, message, len(message), secret_key) != 0:
            raise RuntimeError("crypto_sign_ed25519_detached failed")
        return sig.raw

    def verify(self, public_key: bytes, signature: bytes, message: bytes) -> bool:
        if len(public_key) != PUBLIC_KEY_LEN or len(signature) != SIGNATURE_LEN:
            return False
        rc = self._lib.crypto_sign_ed25519_verify_detached(
            signature, message, len(message), public_key)
        return rc == 0


def _load_engine() -> _SodiumEngine:
    """The system libsodium, or an ImportError: ztrv has no other verifier,
    so nothing imports it, and nothing serves, without one."""
    path = ctypes.util.find_library("sodium")
    if path is None:
        # ctypes.CDLL(None) would load this process itself
        raise ImportError("ztrv needs libsodium, and no libsodium was found")
    try:
        return _SodiumEngine(ctypes.CDLL(path))
    except (OSError, AttributeError, RuntimeError) as exc:
        raise ImportError(f"ztrv needs libsodium: {path}: {exc}") from exc


ENGINE = _load_engine()
