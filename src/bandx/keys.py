"""Key identities and the one signature scheme, ed25519.

A principal is named by the canonical rendering of its public key,
"<algorithm>:<base64>", with no whitespace. Keys and signatures are
ed25519, tagged `ed25519-base64` and `sig-ed25519-base64`; a key,
signature or private key with any other tag is refused with
UnsupportedAlgorithm. POLICY is a reserved principal literal, never a
key id.
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

# "<algorithm>:<base64>": a tag of letters, digits and `_.+-`, then
# base64 characters only, so a key id never carries whitespace, quotes
# or operators.
_KEY_ID_RE = re.compile(r"([A-Za-z0-9_.+-]+):([A-Za-z0-9+/]+={0,2})")


class UnsupportedAlgorithm(Exception):
    """Key or signature carries an algorithm tag other than ed25519's."""


class KeyMismatch(Exception):
    """Signing key does not match the credential's authorizer."""


@dataclass(frozen=True)
class PublicKeyId:
    """Algorithm-tagged public key; equality is canonical-rendering equality."""

    tag: str  # algorithm tag, checked by scheme_for_key
    material: str  # base64 key bytes, as rendered

    def canonical(self) -> str:
        return f"{self.tag}:{self.material}"

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


@dataclass(frozen=True)
class KeyPair:
    private: Ed25519PrivateKey
    public_id: PublicKeyId

    def sign(self, message: bytes) -> bytes:
        return ED25519.sign(self.private, message)


class Ed25519Scheme:
    """Signing and verification under the two ed25519 tags."""

    key_algorithm = "ed25519-base64"  # tag used in key ids
    sig_algorithm = "sig-ed25519-base64"  # tag used on Signature lines

    def sign(self, private: Ed25519PrivateKey, message: bytes) -> bytes:
        return private.sign(message)

    def verify(self, key: PublicKeyId, message: bytes, signature: bytes) -> bool:
        try:
            _ed25519_public_key(key.material).verify(signature, message)
            return True
        except (InvalidSignature, ValueError):
            return False


ED25519 = Ed25519Scheme()


@functools.lru_cache(maxsize=1024)
def _ed25519_public_key(material: str) -> Ed25519PublicKey:
    """Public key object per key material; malformed material raises
    ValueError and is not cached."""
    return Ed25519PublicKey.from_public_bytes(base64.b64decode(material.encode("ascii")))


def scheme_for_key(key: PublicKeyId) -> Ed25519Scheme:
    if key.tag != ED25519.key_algorithm:
        raise UnsupportedAlgorithm(f"unsupported key tag {key.tag!r}")
    return ED25519


def scheme_for_signature(tag: str) -> Ed25519Scheme:
    if tag != ED25519.sig_algorithm:
        raise UnsupportedAlgorithm(f"unsupported signature tag {tag!r}")
    return ED25519


def _pair(private: Ed25519PrivateKey) -> KeyPair:
    material = base64.b64encode(private.public_key().public_bytes_raw()).decode("ascii")
    return KeyPair(private, PublicKeyId(ED25519.key_algorithm, material))


def generate_keypair(seed: bytes | str | int | None = None) -> KeyPair:
    """Generate a keypair; a seed of any flavor makes generation deterministic."""
    if seed is None:
        return _pair(Ed25519PrivateKey.generate())
    if isinstance(seed, int):
        seed = str(seed).encode("ascii")
    elif isinstance(seed, str):
        seed = seed.encode("utf-8")
    return _pair(Ed25519PrivateKey.from_private_bytes(hashlib.sha256(seed).digest()))


def export_private(pair: KeyPair) -> str:
    """Serialize a private key as "<key-algorithm>-secret:<base64 raw>"."""
    raw = base64.b64encode(pair.private.private_bytes_raw()).decode("ascii")
    return f"{ED25519.key_algorithm}-secret:{raw}"


def import_private(text: str) -> KeyPair:
    tag, _, material = text.strip().partition(":")
    if not tag.endswith("-secret") or not material:
        raise ValueError("expected <algorithm>-secret:<base64>")
    if tag != f"{ED25519.key_algorithm}-secret":
        raise UnsupportedAlgorithm(f"unsupported private key tag {tag!r}")
    raw = base64.b64decode(material.encode("ascii"))
    return _pair(Ed25519PrivateKey.from_private_bytes(raw))
