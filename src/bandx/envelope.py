"""Line-oriented wire envelope shared by the in-process simulation and
the socket services; transcripts are these bytes, verbatim.

Layout (byte-exact, see docs/formats.md)::

    BANDX1 <msg-type> <sender> <seq>\\n
    <payload-length>\\n
    <payload bytes>

Payload: one entry per line, keys sorted. A scalar is `key=value`; a
block is `key<<N` followed by exactly N raw bytes and a newline, which
lets credentials and records travel verbatim inside a self-delimiting,
human-auditable frame.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

MAGIC = "BANDX1"
# Largest payload a reader accepts. A DEPOSIT of 24 records is about
# 40 KiB; the cap only keeps a bad length from blocking or exhausting
# the reader.
MAX_PAYLOAD = 16 * 1024 * 1024
# Longest header or payload-length line a reader accepts, newline
# included; real header lines are under 100 bytes.
MAX_HEADER_LINE = 4096

_KEY_RE = re.compile(r"^[a-z][a-z0-9_.-]*$")
_TYPE_RE = re.compile(r"^[A-Z][A-Z0-9-]*$")


class ProtocolError(Exception):
    pass


@dataclass(frozen=True)
class Envelope:
    msg_type: str
    sender: str
    seq: int
    fields: dict[str, str] = field(default_factory=dict)
    blocks: dict[str, bytes] = field(default_factory=dict)

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.fields.get(key, default)

    def require(self, key: str) -> str:
        value = self.fields.get(key)
        if value is None:
            raise ProtocolError(f"{self.msg_type} is missing field {key!r}")
        return value

    def block(self, key: str) -> bytes:
        value = self.blocks.get(key)
        if value is None:
            raise ProtocolError(f"{self.msg_type} is missing block {key!r}")
        return value

    def numbered_blocks(self, prefix: str) -> list[bytes]:
        keys = sorted(k for k in self.blocks if k.startswith(prefix))
        return [self.blocks[k] for k in keys]


def encode_payload(fields: dict[str, str], blocks: dict[str, bytes]) -> bytes:
    for key in (*fields, *blocks):
        if not _KEY_RE.match(key):
            raise ProtocolError(f"bad payload key {key!r}")
    out: list[bytes] = []
    scalar_keys = set(fields)
    for key in sorted(set(fields) | set(blocks)):
        if key in scalar_keys and key in blocks:
            raise ProtocolError(f"key {key!r} is both scalar and block")
        if key in scalar_keys:
            value = fields[key]
            if "\n" in value:
                raise ProtocolError(f"scalar {key!r} contains a newline")
            out.append(f"{key}={value}\n".encode("utf-8"))
        else:
            data = blocks[key]
            out.append(f"{key}<<{len(data)}\n".encode("utf-8"))
            out.append(data)
            out.append(b"\n")
    return b"".join(out)


def encode(env: Envelope) -> bytes:
    if not _TYPE_RE.match(env.msg_type):
        raise ProtocolError(f"bad message type {env.msg_type!r}")
    if not env.sender or any(c.isspace() for c in env.sender):
        raise ProtocolError(f"bad sender {env.sender!r}")
    payload = encode_payload(env.fields, env.blocks)
    head = f"{MAGIC} {env.msg_type} {env.sender} {env.seq}\n{len(payload)}\n"
    return head.encode("utf-8") + payload


def decode_payload(data: bytes) -> tuple[dict[str, str], dict[str, bytes]]:
    fields: dict[str, str] = {}
    blocks: dict[str, bytes] = {}
    pos = 0
    n = len(data)
    while pos < n:
        end = data.find(b"\n", pos)
        if end < 0:
            raise ProtocolError("payload entry without terminating newline")
        line = data[pos:end].decode("utf-8")
        pos = end + 1
        eq, blk = line.find("="), line.find("<<")
        if blk >= 0 and (eq < 0 or blk < eq):
            key, _, length_text = line.partition("<<")
            try:
                length = int(length_text)
            except ValueError:
                raise ProtocolError(f"bad block length in {line!r}") from None
            if pos + length + 1 > n or data[pos + length : pos + length + 1] != b"\n":
                raise ProtocolError(f"truncated block {key!r}")
            blocks[key] = data[pos : pos + length]
            pos += length + 1
        elif eq >= 0:
            key, _, value = line.partition("=")
            fields[key] = value
        else:
            raise ProtocolError(f"unrecognizable payload line {line!r}")
        if not _KEY_RE.match(key):
            raise ProtocolError(f"bad payload key {key!r}")
    return fields, blocks


def decode(data: bytes) -> tuple[Envelope, bytes]:
    """Decode one envelope; returns it and any trailing bytes."""
    head_end = data.find(b"\n")
    if head_end < 0:
        raise ProtocolError("missing envelope header line")
    head = data[:head_end].decode("utf-8", errors="replace")
    parts = head.split(" ")
    if len(parts) != 4 or parts[0] != MAGIC:
        raise ProtocolError(f"bad envelope header {head!r}")
    magic, msg_type, sender, seq_text = parts
    if not _TYPE_RE.match(msg_type):
        raise ProtocolError(f"bad message type {msg_type!r}")
    try:
        seq = int(seq_text)
    except ValueError:
        raise ProtocolError(f"bad sequence number {seq_text!r}") from None
    len_end = data.find(b"\n", head_end + 1)
    if len_end < 0:
        raise ProtocolError("missing payload length line")
    try:
        length = int(data[head_end + 1 : len_end])
    except ValueError:
        raise ProtocolError("bad payload length") from None
    if length < 0:
        raise ProtocolError("negative payload length")
    start = len_end + 1
    if start + length > len(data):
        raise ProtocolError("truncated payload")
    fields, blocks = decode_payload(data[start : start + length])
    return Envelope(msg_type, sender, seq, fields, blocks), data[start + length :]


def _read_header_line(stream) -> bytes:
    line = stream.readline(MAX_HEADER_LINE)
    if len(line) == MAX_HEADER_LINE and not line.endswith(b"\n"):
        raise ProtocolError(f"header line longer than {MAX_HEADER_LINE} bytes")
    return line


def read_envelope(stream) -> Envelope | None:
    """Read one envelope from a binary file-like stream; None on EOF."""
    head = _read_header_line(stream)
    if not head:
        return None
    parts = head.decode("utf-8", errors="replace").rstrip("\n").split(" ")
    if len(parts) != 4 or parts[0] != MAGIC:
        raise ProtocolError(f"bad envelope header {head!r}")
    length_line = _read_header_line(stream)
    if not length_line:
        raise ProtocolError("eof before payload length")
    try:
        seq = int(parts[3])
        length = int(length_line)
    except ValueError:
        raise ProtocolError("bad header numbers") from None
    if not 0 <= length <= MAX_PAYLOAD:
        raise ProtocolError(f"payload length {length} outside 0..{MAX_PAYLOAD}")
    payload = stream.read(length)
    if len(payload) != length:
        raise ProtocolError("eof inside payload")
    fields, blocks = decode_payload(payload)
    return Envelope(parts[1], parts[2], seq, fields, blocks)
