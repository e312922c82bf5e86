"""Wire envelope codec: self-delimiting round trips and hostile input."""

from __future__ import annotations

import random

import pytest

from bandx.envelope import (
    MAX_HEADER_LINE,
    MAX_PAYLOAD,
    Envelope,
    ProtocolError,
    decode,
    encode,
    read_envelope,
)


def test_round_trip_simple():
    env = Envelope("QUERY", "qna", 7, {"from": "Rome", "to": "Dublin"}, {})
    back, rest = decode(encode(env))
    assert back == env and rest == b""


def test_round_trip_with_blocks():
    env = Envelope(
        "DEPOSIT",
        "ispA",
        3,
        {"count": "2"},
        {"rec000": b"alpha\nbeta\n", "rec001": bytes(range(256))},
    )
    back, rest = decode(encode(env))
    assert back == env and rest == b""


def test_round_trip_fuzz():
    rng = random.Random(4)
    for _ in range(300):
        fields = {
            f"f{i}": "".join(rng.choice(" =<>abc09/") for _ in range(rng.randint(0, 12)))
            for i in range(rng.randint(0, 4))
        }
        blocks = {
            f"b{i}": bytes(rng.randrange(256) for _ in range(rng.randint(0, 64)))
            for i in range(rng.randint(0, 3))
        }
        env = Envelope("MSG-T", "peer", rng.randrange(10 ** 6), fields, blocks)
        back, rest = decode(encode(env))
        assert back == env and rest == b""


def test_scalar_value_containing_block_marker():
    env = Envelope("X", "s", 1, {"note": "a<<b=c"}, {})
    back, _ = decode(encode(env))
    assert back.fields["note"] == "a<<b=c"


def test_concatenated_envelopes_decode_in_order():
    a = encode(Envelope("A", "s", 1, {"x": "1"}, {}))
    b = encode(Envelope("B", "s", 2, {}, {"blob": b"\x00\x01"}))
    first, rest = decode(a + b)
    second, rest = decode(rest)
    assert first.msg_type == "A" and second.msg_type == "B" and rest == b""


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"NOPE A s 1\n0\n",
        b"BANDX1 A s\n0\n",
        b"BANDX1 A s x\n0\n",
        b"BANDX1 A s 1\nnope\n",
        b"BANDX1 A s 1\n100\nshort",
        b"BANDX1 A s 1\n-1\n",
        b"BANDX1 A s 1\n9\nkey<<5\nab\n",
    ],
)
def test_malformed_envelopes_raise(data):
    with pytest.raises(ProtocolError):
        decode(data)


def test_stream_reader_matches_decode():
    import io

    env = Envelope("STREAM", "s", 9, {"k": "v"}, {"b": b"bytes"})
    stream = io.BytesIO(encode(env) + encode(env))
    assert read_envelope(stream) == env
    assert read_envelope(stream) == env
    assert read_envelope(stream) is None


@pytest.mark.parametrize("length", [-1, -(2 ** 40), MAX_PAYLOAD + 1])
def test_stream_reader_refuses_lengths_out_of_range(length):
    import io

    class NoRead(io.BytesIO):
        def read(self, size=-1):  # a socket stream would block here
            raise AssertionError(f"read({size}) on an out-of-range length")

    stream = NoRead(f"BANDX1 A s 1\n{length}\n".encode("ascii"))
    with pytest.raises(ProtocolError, match="payload length"):
        read_envelope(stream)


@pytest.mark.parametrize("prefix", [b"", b"BANDX1 A s 1\n"], ids=["header", "length"])
def test_stream_reader_refuses_an_endless_line_without_reading_it(prefix):
    import io

    stream = io.BytesIO(prefix + b"7" * (1 << 20))  # 1 MiB, no newline
    with pytest.raises(ProtocolError, match="longer than"):
        read_envelope(stream)
    assert stream.tell() == len(prefix) + MAX_HEADER_LINE


def test_stream_reader_accepts_a_header_line_at_the_limit():
    import io

    head = b"BANDX1 A s 1\n"
    env = Envelope("A", "s" * (MAX_HEADER_LINE - len(head) + 1), 1, {"k": "v"}, {})
    data = encode(env)
    assert data.index(b"\n") + 1 == MAX_HEADER_LINE
    assert read_envelope(io.BytesIO(data)) == env
    longer = Envelope("A", env.sender + "s", 1, {"k": "v"}, {})
    with pytest.raises(ProtocolError, match="longer than"):
        read_envelope(io.BytesIO(encode(longer)))
