"""Socket transport: live servers behind the same cores, transcript and
final-state equivalence with the in-process bus."""

from __future__ import annotations

import gc
import socket
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from bandx.cli import main
from bandx.envelope import MAX_PAYLOAD, Envelope, ProtocolError, decode, encode, read_envelope
from bandx.scenario import build_services, parse_scenario, run_parsed
from bandx.services import SocketTransport, serve

from helpers import held_growth

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture()
def live_world():
    scn = parse_scenario(
        (SCENARIOS / "rome-dublin.scn").read_text(), SCENARIOS
    )
    services = build_services(scn)
    servers = {}
    endpoints = {}
    for role, core in services.items():
        server = serve(core, "127.0.0.1", 0)
        servers[role] = server
        endpoints[role] = ("127.0.0.1", server.server_address[1])
    yield scn, services, endpoints
    # shutdown() waits out one poll of serve_forever; stop every server at
    # once so the test waits one poll, not one per role.
    stoppers = [threading.Thread(target=s.shutdown) for s in servers.values()]
    for stopper in stoppers:
        stopper.start()
    for stopper in stoppers:
        stopper.join(10)
        assert not stopper.is_alive(), "a server did not shut down"
    for server in servers.values():
        server.server_close()


def _normalize(transcript: bytes) -> list[Envelope]:
    out = []
    rest = transcript
    while rest:
        env, rest = decode(rest)
        out.append(replace(env, seq=0))
    return out


def test_socket_run_matches_in_process_run(live_world):
    scn, _services, endpoints = live_world
    transport = SocketTransport(endpoints)
    socket_result = run_parsed(scn, transport)
    transport.close()
    sim_result = run_parsed(scn)
    assert socket_result.report == sim_result.report
    assert _normalize(socket_result.transcript) == _normalize(sim_result.transcript)


def test_a_socket_transport_nobody_asked_to_record_holds_nothing(live_world):
    _scn, _services, endpoints = live_world
    with SocketTransport(endpoints) as transport:

        def report() -> None:
            assert transport.send("ch", "REPORT").msg_type == "CH-REPORT"

        # Recorded, 2,000 requests and replies would hold about 300 KiB.
        assert held_growth(report, warmup=200, rounds=2_000) < 32 * 1024
        assert transport.transcript is None


def test_malformed_bytes_do_not_kill_the_connection(live_world):
    _scn, _services, endpoints = live_world
    conn = socket.create_connection(endpoints["ch"], timeout=10)
    rfile = conn.makefile("rb")
    conn.sendall(b"BANDX1 broken header\n")
    reply, _ = decode(_read_one(rfile))
    assert reply.msg_type == "ERROR" and reply.get("code") == "protocol"
    # The same connection still serves a valid request afterwards.
    conn.sendall(encode(Envelope("REPORT", "probe", 1)))
    reply, _ = decode(_read_one(rfile))
    assert reply.msg_type == "CH-REPORT"
    conn.close()


def test_negative_payload_length_gets_an_error_not_a_hang(live_world):
    _scn, _services, endpoints = live_world
    conn = socket.create_connection(endpoints["ch"], timeout=10)
    rfile = conn.makefile("rb")
    conn.sendall(b"BANDX1 REPORT probe 1\n-1\n")
    reply, _ = decode(_read_one(rfile))
    assert reply.msg_type == "ERROR" and reply.get("code") == "protocol"
    assert "payload length -1" in reply.get("detail")
    conn.sendall(encode(Envelope("REPORT", "probe", 2)))
    reply, _ = decode(_read_one(rfile))
    assert reply.msg_type == "CH-REPORT"
    rfile.close()
    conn.close()


def _replies_until_eof(endpoint, data: bytes) -> list[Envelope]:
    """Send `data` and end the write side, reading replies meanwhile: a
    server that closes early may leave the sender unable to finish."""
    conn = socket.create_connection(endpoint, timeout=10)

    def send() -> None:
        try:
            conn.sendall(data)
            conn.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    sender = threading.Thread(target=send)
    sender.start()
    replies = []
    with conn, conn.makefile("rb") as rfile:
        while (reply := read_envelope(rfile)) is not None:
            replies.append(reply)
        sender.join(10)
    assert not sender.is_alive()
    return replies


@pytest.mark.parametrize("data, detail", [
    (b"x" * 2 ** 20, "longer than"),
    (f"BANDX1 REPORT probe 1\n{MAX_PAYLOAD + 1}\n".encode() + b"k=v\n" * 2 ** 14,
     "payload length"),
], ids=["long-line", "over-limit-length"])
def test_framing_lost_gets_one_error_then_the_connection_closes(live_world, data, detail):
    _scn, _services, endpoints = live_world
    replies = _replies_until_eof(endpoints["csc"], data)
    assert [(r.msg_type, r.get("code")) for r in replies] == [("ERROR", "protocol")]
    assert detail in replies[0].get("detail")


@pytest.mark.parametrize("msg_type", ["report", "Report"])
def test_a_type_the_bus_refuses_is_refused_over_a_socket(live_world, msg_type):
    _scn, _services, endpoints = live_world
    data = f"BANDX1 {msg_type} qna 1\n0\n".encode() + encode(Envelope("REPORT", "qna", 2))
    replies = _replies_until_eof(endpoints["ch"], data)
    assert [(r.msg_type, r.get("code")) for r in replies] == [
        ("ERROR", "protocol"), ("CH-REPORT", None)]
    assert "bad message type" in replies[0].get("detail")


def test_unknown_message_type_over_socket(live_world):
    _scn, _services, endpoints = live_world
    transport = SocketTransport(endpoints)
    reply = transport.send("csc", "BOGUS-VERB")
    assert reply.msg_type == "ERROR" and reply.get("code") == "protocol"
    transport.close()


def test_cli_verbs_close_their_sockets(live_world, capsys):
    """A verb that leaves its connections open fails here: the unclosed
    socket's ResourceWarning is an error in this suite."""
    _scn, _services, endpoints = live_world
    flag = {role: f"--{role}={host}:{port}" for role, (host, port) in endpoints.items()}
    now = "--now=20031119T080000"
    for argv in (
        ["report", flag["ch"], flag["isp"], flag["csc"]],
        ["search", "--from=Rome", "--to=Dublin", "--mbps=10", flag["ch"], now],
        ["deposit", flag["isp"], flag["csc"], now],
    ):
        assert main(argv) == 0, capsys.readouterr().err
        gc.collect()
    out = capsys.readouterr().out
    assert "ch offers=0" in out and "accepted=0 rejected=0" in out


def test_an_invalid_reply_exits_with_the_protocol_code(live_world, capsys):
    _scn, _services, endpoints = live_world
    host, port = endpoints["ch"]
    argv = ["search", "--from=Rome", "--to=Dublin", "--mbps=0", f"--ch={host}:{port}",
            "--now=20031119T080000"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: min_bandwidth_mbps must be positive\n"


def _read_one(rfile) -> bytes:
    head = rfile.readline()
    length_line = rfile.readline()
    payload = rfile.read(int(length_line))
    return head + length_line + payload


def test_close_ends_the_connection_for_the_server():
    """close() must close the stream files too: while they are open the
    socket stays open, here because the caller keeps the error whose
    traceback still holds them."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)
    seen: list = []

    def serve_one() -> None:
        conn, _ = listener.accept()
        conn.settimeout(10)
        with conn, conn.makefile("rb") as rfile:
            read_envelope(rfile)
            conn.sendall(b"not an envelope\n")
            try:
                seen.append(read_envelope(rfile))
            except OSError as exc:  # a timeout: the client never closed
                seen.append(exc)

    server = threading.Thread(target=serve_one)
    server.start()
    transport = SocketTransport({"peer": listener.getsockname()[:2]})
    with pytest.raises(ProtocolError) as failure:  # kept until the test ends
        transport.send("peer", "PING")
    transport.close()
    server.join(15)
    listener.close()
    assert seen == [None], "the server did not see end of stream after close()"
