"""Key identities and the pluggable signature scheme registry.

A principal is named by the canonical rendering of its public key,
"<algorithm>:<base64>", with no whitespace. One deterministic modern
scheme (ed25519) ships as the default; additional schemes register by
algorithm tag. POLICY is a reserved principal literal, never a key id.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import re
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

POLICY = "POLICY"

DEFAULT_ALGORITHM = "ed25519-base64"

# "<algorithm>:<base64>": a tag of letters, digits and `_.+-`, then
# base64 characters only, so a key id never carries whitespace, quotes
# or operators.
_KEY_ID_RE = re.compile(r"([A-Za-z0-9_.+-]+):([A-Za-z0-9+/]+={0,2})")


class UnsupportedAlgorithm(Exception):
    """Key or signature carries an algorithm tag with no registered scheme."""


class KeyMismatch(Exception):
    """Signing key does not match the credential's authorizer."""


@dataclass(frozen=True)
class PublicKeyId:
    """Algorithm-tagged public key; equality is canonical-rendering equality."""

    algorithm: str
    material: str  # base64 key bytes, as rendered

    def canonical(self) -> str:
        return f"{self.algorithm}:{self.material}"

    def __str__(self) -> str:
        return self.canonical()

    @classmethod
    def from_text(cls, text: str) -> "PublicKeyId":
        if text == POLICY:
            raise ValueError("POLICY is a reserved principal literal, not a key id")
        m = _KEY_ID_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"key id must be <algorithm>:<base64>, got {text!r}")
        return cls(m[1], m[2])


@functools.lru_cache(maxsize=1024)
def read_key_id(text: str) -> tuple[PublicKeyId, str]:
    """The key id `text` names and its canonical rendering. A repeated
    text returns the same pair, so every credential naming a key shares
    one string for it. Invalid text raises ValueError on every call:
    lru_cache stores no exception."""
    key = PublicKeyId.from_text(text)
    return key, key.canonical()


class SignatureScheme:
    """Interface implemented by each registered algorithm."""

    key_algorithm: str  # tag used in key ids
    sig_algorithm: str  # tag used on Signature lines

    def generate(self, seed: bytes | None = None) -> "KeyPair":
        raise NotImplementedError

    def load_private(self, material_b64: str) -> "KeyPair":
        raise NotImplementedError

    def sign(self, private: object, message: bytes) -> bytes:
        raise NotImplementedError

    def verify(self, key: PublicKeyId, message: bytes, signature: bytes) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class KeyPair:
    scheme: SignatureScheme
    private: object
    public_id: PublicKeyId

    def sign(self, message: bytes) -> bytes:
        return self.scheme.sign(self.private, message)


class Ed25519Scheme(SignatureScheme):
    key_algorithm = "ed25519-base64"
    sig_algorithm = "sig-ed25519-base64"

    def generate(self, seed: bytes | None = None) -> KeyPair:
        if seed is None:
            private = Ed25519PrivateKey.generate()
        else:
            private = Ed25519PrivateKey.from_private_bytes(hashlib.sha256(seed).digest())
        return self._pair(private)

    def load_private(self, material_b64: str) -> KeyPair:
        raw = base64.b64decode(material_b64.encode("ascii"))
        return self._pair(Ed25519PrivateKey.from_private_bytes(raw))

    def _pair(self, private: Ed25519PrivateKey) -> KeyPair:
        from cryptography.hazmat.primitives import serialization

        pub_raw = private.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )
        material = base64.b64encode(pub_raw).decode("ascii")
        return KeyPair(self, private, PublicKeyId(self.key_algorithm, material))

    def sign(self, private: object, message: bytes) -> bytes:
        assert isinstance(private, Ed25519PrivateKey)
        return private.sign(message)

    def verify(self, key: PublicKeyId, message: bytes, signature: bytes) -> bool:
        try:
            _ed25519_public_key(key.material).verify(signature, message)
            return True
        except (InvalidSignature, ValueError):
            return False


@functools.lru_cache(maxsize=1024)
def _ed25519_public_key(material: str) -> Ed25519PublicKey:
    """Public key object per key material; malformed material raises
    ValueError and is not cached."""
    return Ed25519PublicKey.from_public_bytes(base64.b64decode(material.encode("ascii")))


_SCHEMES: dict[str, SignatureScheme] = {}
_SIG_SCHEMES: dict[str, SignatureScheme] = {}


def register_scheme(scheme: SignatureScheme) -> None:
    _SCHEMES[scheme.key_algorithm] = scheme
    _SIG_SCHEMES[scheme.sig_algorithm] = scheme


register_scheme(Ed25519Scheme())


def scheme_for_key(key: PublicKeyId) -> SignatureScheme:
    scheme = _SCHEMES.get(key.algorithm)
    if scheme is None:
        raise UnsupportedAlgorithm(f"no scheme registered for key algorithm {key.algorithm!r}")
    return scheme


def scheme_for_signature(sig_algorithm: str) -> SignatureScheme:
    scheme = _SIG_SCHEMES.get(sig_algorithm)
    if scheme is None:
        raise UnsupportedAlgorithm(f"no scheme registered for signature tag {sig_algorithm!r}")
    return scheme


def generate_keypair(seed: bytes | str | int | None = None,
                     algorithm: str = DEFAULT_ALGORITHM) -> KeyPair:
    """Generate a keypair; a seed of any flavor makes generation deterministic."""
    scheme = _SCHEMES.get(algorithm)
    if scheme is None:
        raise UnsupportedAlgorithm(f"no scheme registered for key algorithm {algorithm!r}")
    if isinstance(seed, int):
        seed = str(seed).encode("ascii")
    elif isinstance(seed, str):
        seed = seed.encode("utf-8")
    return scheme.generate(seed)


def export_private(pair: KeyPair) -> str:
    """Serialize a private key as "<key-algorithm>-secret:<base64 raw>"."""
    from cryptography.hazmat.primitives import serialization

    assert isinstance(pair.private, Ed25519PrivateKey)
    raw = pair.private.private_bytes(
        serialization.Encoding.Raw,
        serialization.PrivateFormat.Raw,
        serialization.NoEncryption(),
    )
    return f"{pair.scheme.key_algorithm}-secret:{base64.b64encode(raw).decode('ascii')}"


def import_private(text: str) -> KeyPair:
    text = text.strip()
    tag, _, material = text.partition(":")
    if not tag.endswith("-secret") or not material:
        raise ValueError("expected <algorithm>-secret:<base64>")
    algorithm = tag[: -len("-secret")]
    scheme = _SCHEMES.get(algorithm)
    if scheme is None:
        raise UnsupportedAlgorithm(f"no scheme registered for key algorithm {algorithm!r}")
    return scheme.load_private(material)
