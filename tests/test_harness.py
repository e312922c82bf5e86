"""Scenario runner, QNA behavior, service protocol hygiene, and the
settlement journal under restart."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandx.cli import main as cli_main
from bandx.envelope import Envelope, decode
from bandx.market import NoPath
from bandx.offers import derive_offer_fields
from bandx.payments import open_microcheck
from bandx.qna import PartialEstablishment, raise_for_error
from bandx.scenario import (
    AssertionFailed,
    ScenarioParseError,
    build_services,
    parse_scenario,
    run_parsed,
    run_scenario,
)
from bandx.services import ERROR_CODES, Bus, error_code

from helpers import held_growth

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINI_TOPO = """\
ne ispA A-Rome Rome
ne ispA A-Paris Paris
ne ispB B-Paris Paris
ne ispB B-Dublin Dublin
link A-Rome A-Paris Rome-Paris 100
link B-Paris B-Dublin Paris-Dublin 100
"""


def _scn(tmp_path: Path, body: str) -> Path:
    (tmp_path / "mini.topo").write_text(MINI_TOPO)
    path = tmp_path / "case.scn"
    path.write_text(
        "seed 5\nclock 20031119T080000\ntopology mini.topo\n"
        "guarantor bank\nisp ispA\nisp ispB\n" + body
    )
    return path


def _transcript_envelopes(transcript: bytes) -> list[Envelope]:
    out = []
    rest = transcript
    while rest:
        env, rest = decode(rest)
        out.append(env)
    return out


# ---------------------------------------------------------------------------
# Determinism and golden transcript
# ---------------------------------------------------------------------------

def test_same_seed_same_bytes():
    a = run_scenario(SCENARIOS / "rome-dublin.scn")
    b = run_scenario(SCENARIOS / "rome-dublin.scn")
    assert a.transcript == b.transcript
    assert a.report == b.report


def test_rome_dublin_matches_golden_transcript():
    result = run_scenario(SCENARIOS / "rome-dublin.scn")
    golden = (SCENARIOS / "rome-dublin.golden.transcript").read_bytes()
    assert result.transcript == golden
    assert result.report == (SCENARIOS / "rome-dublin.golden.report").read_text()


# SHA-256 of each bundled scenario's transcript and report. The two
# transports are compared with each other elsewhere; these catch a change
# that moves the bytes of both alike.
_SCENARIO_DIGESTS = {
    "keepalive": (
        "4d6f478d58e9fc3428225d720005e0d4a098397f0c1c9d57e09f4345ad204669",
        "b72d5e02302a5c9a71006c893d62b35cc97b1d7005ccdd48d56689981f9132c5",
    ),
    "premium": (
        "1b60550cf77df2ced7825a29444dcb3931ccdc6d445fdfa364d0c1fc2da0c807",
        "1dcb9f2217f7107bb003c8eaf8c1c2c6f48ec75b835ab12eb8f5fe735493f535",
    ),
    "presentation-futures": (
        "9f4784c6fcc14cf6dda470790b3cc991401875875b8761a47a76dbcfde56a8d2",
        "3ee24e395c87b4b5a210cd14368cf8554084d00907fdcee98aeeed568e1cd8bb",
    ),
    "rome-dublin": (
        "c16fe4fa75146224b67ae583e36f48445706af33fcabea2e1c921c9c1bd81e89",
        "43eaee5e16eed0b14bf1dd5d60413ff4a788e0f25f86bec6304a35476e20b4ef",
    ),
    "unbundle": (
        "0777e7522a739dc1cd67cddb237d4135a3ccac16e6f9ee9b8798576ae2e9b801",
        "10e3ab8cdb2130a97fcff7ef3bd19136b15a631b234155ffe28c4f4ef5287e8d",
    ),
}


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.scn")))
def test_bundled_scenario_bytes_are_pinned(name):
    result = run_scenario(SCENARIOS / f"{name}.scn")
    transcript, report = _SCENARIO_DIGESTS[name]
    assert hashlib.sha256(result.transcript).hexdigest() == transcript
    assert hashlib.sha256(result.report.encode("utf-8")).hexdigest() == report


def test_a_bus_asked_to_record_holds_the_golden_bytes():
    scn = parse_scenario((SCENARIOS / "rome-dublin.scn").read_text(), SCENARIOS)
    recorded: list[bytes] = []
    result = run_parsed(scn, Bus(build_services(scn), transcript=recorded))
    golden = (SCENARIOS / "rome-dublin.golden.transcript").read_bytes()
    assert b"".join(recorded) == result.transcript == golden


def test_a_bus_nobody_asked_to_record_holds_nothing():
    scn = parse_scenario((SCENARIOS / "rome-dublin.scn").read_text(), SCENARIOS)
    bus = Bus(build_services(scn))

    def report() -> None:
        assert bus.send("ch", "REPORT").msg_type == "CH-REPORT"

    # Recorded, 2,000 requests and replies would hold about 300 KiB.
    assert held_growth(report, warmup=200, rounds=2_000) < 32 * 1024
    assert bus.transcript is None


def test_seed_change_changes_transcript(tmp_path):
    original = (SCENARIOS / "rome-dublin.scn").read_text()
    (tmp_path / "rome-dublin.topo").write_text(
        (SCENARIOS / "rome-dublin.topo").read_text()
    )
    reseeded = tmp_path / "reseeded.scn"
    reseeded.write_text(original.replace("seed 1302", "seed 1303"))
    a = run_scenario(SCENARIOS / "rome-dublin.scn")
    b = run_scenario(reseeded)
    assert a.transcript != b.transcript


def test_empty_scenario_has_zero_balances(tmp_path):
    path = _scn(tmp_path, "")
    result = run_scenario(path)
    assert "balances:\nreservations:" in result.report  # no balance rows at all
    kinds = {e.msg_type for e in _transcript_envelopes(result.transcript)}
    assert "RESERVE-SPOT" not in kinds and "DEPOSIT" not in kinds


# ---------------------------------------------------------------------------
# Event failures and exit codes
# ---------------------------------------------------------------------------

def test_failed_assert_carries_event_index(tmp_path):
    path = _scn(
        tmp_path,
        "post-offer ispA Rome Paris 50 3.00 USD 20031125\n"
        "assert offers 7\n",
    )
    with pytest.raises(AssertionFailed) as err:
        run_scenario(path)
    assert err.value.event_index == 1


def test_cli_exit_codes(tmp_path, capsys):
    ok = _scn(tmp_path, "post-offer ispA Rome Paris 50 3.00 USD 20031125\n")
    assert cli_main(["run", str(ok)]) == 0
    bad_assert = tmp_path / "bad.scn"
    bad_assert.write_text(ok.read_text() + "assert offers 9\n")
    assert cli_main(["run", str(bad_assert)]) == 2
    unparseable = tmp_path / "broken.scn"
    unparseable.write_text("seed x\n")
    assert cli_main(["run", str(unparseable)]) == 3
    capsys.readouterr()


def test_expected_error_option(tmp_path):
    path = _scn(tmp_path, "buy-spot alice Rome Dublin 50 expect=no-path\n")
    # alice is not declared; add her.
    path.write_text(path.read_text().replace(
        "isp ispB\n", "isp ispB\ncustomer alice bank 10.00 USD 20041231\n"
    ))
    run_scenario(path)  # the expected no-path makes the event pass


def test_expect_can_name_a_code_without_a_customer_side_class(tmp_path):
    path = _scn(
        tmp_path,
        "customer alice bank 10.00 USD 20041231\n"
        "buy-spot alice Rome Dublin 0 expect=invalid\n",
    )
    run_scenario(path)  # the clearing house answers invalid to 0 Mbps


def test_every_error_code_reads_back_from_its_reply():
    def read_back(code: str) -> str:
        reply = Envelope("ERROR", "isp", 1, {"code": code, "detail": "why"}, {})
        with pytest.raises(Exception) as raised:
            raise_for_error(reply)
        return error_code(raised.value)

    codes = set(ERROR_CODES.values())
    assert {code: read_back(code) for code in codes} == {code: code for code in codes}


def test_ended_booking_reads_expired_and_cannot_be_activated(tmp_path):
    # Booked for 20031120T090000-20031120T100000, never activated.
    path = _scn(
        tmp_path,
        "customer alice bank 10.00 USD 20041231\n"
        "post-offer ispA Rome Paris 50 3.00 USD 20031125\n"
        "buy-future alice Rome Paris 50 20031120T090000 20031120T100000 handle=show\n"
        "assert reservation show notional\n"
        "advance-clock 93660              # a minute past the booking's end\n"
        "assert reservation show expired\n"
        "assert capacity A-Rome A-Paris 100\n"
        "activate alice show expect=unknown-reservation\n"
        "advance-clock -1860              # back inside the booked hour\n"
        "activate alice show expect=unknown-reservation\n"
        "assert reservation show expired\n"
        "assert capacity A-Rome A-Paris 100\n",
    )
    result = run_scenario(path)
    assert "alice expired 50 Rome-Paris" in result.report
    errors = [e.get("code") for e in _transcript_envelopes(result.transcript)
              if e.msg_type == "ERROR"]
    assert errors == ["unknown-reservation"] * 2


# ---------------------------------------------------------------------------
# QNA behavior
# ---------------------------------------------------------------------------

def test_no_offers_means_no_path_and_no_ne_traffic(tmp_path):
    path = _scn(tmp_path, "customer alice bank 10.00 USD 20041231\n")
    scn = parse_scenario(path.read_text(), tmp_path)
    bus = Bus(build_services(scn), transcript=[])
    from bandx.scenario import _Runner

    runner = _Runner(scn, bus)
    runner.setup()
    with pytest.raises(NoPath):
        runner.sessions["alice"].purchase_spot("Rome", "Dublin", 50, runner.clock)
    kinds = [e.msg_type for e in _transcript_envelopes(b"".join(bus.transcript))]
    assert "CHALLENGE-REQ" not in kinds and "RESERVE-SPOT" not in kinds


def test_partial_establishment_restores_first_leg(tmp_path):
    # Provider B's leg costs more than the guarantor allows per check, so
    # B refuses payment after A has already established.
    path = _scn(
        tmp_path,
        "customer alice bank 4.00 USD 20041231\n"
        "post-offer ispA Rome Paris 50 3.00 USD 20031125\n"
        "post-offer ispB Paris Dublin 50 5.00 USD 20031125\n",
    )
    scn = parse_scenario(path.read_text(), tmp_path)
    bus = Bus(build_services(scn))
    from bandx.scenario import _Runner

    runner = _Runner(scn, bus)
    runner.setup()
    runner.run_events()
    fabric = bus.services["isp"].fabric
    before = fabric.ne("A-Rome").free_capacity("A-Paris")
    with pytest.raises(PartialEstablishment) as err:
        runner.sessions["alice"].purchase_spot("Rome", "Dublin", 50, runner.clock)
    assert len(err.value.released) == 1
    assert fabric.ne("A-Rome").free_capacity("A-Paris") == before
    assert fabric.ne("B-Paris").free_capacity("B-Dublin") == 100


def test_qna_pays_exactly_the_prorated_price():
    # Scan every purchase envelope in the bundled scenarios: the check for
    # offer i is exactly the pro-rated price for the purchased bandwidth.
    for name in ("rome-dublin.scn", "presentation-futures.scn", "unbundle.scn"):
        result = run_scenario(SCENARIOS / name)
        for env in _transcript_envelopes(result.transcript):
            if env.msg_type not in ("RESERVE-SPOT", "BOOK-FUTURE"):
                continue
            from bandx.credentials import parse_credential

            offers = [
                derive_offer_fields(parse_credential(b.decode()))
                for b in env.numbered_blocks("offer")
            ]
            checks = [
                open_microcheck(parse_credential(b.decode()))
                for b in env.numbered_blocks("check")
            ]
            bandwidth = int(env.require("bandwidth"))
            for offer, check in zip(offers, checks):
                assert check.amount == offer.prorated_price(bandwidth)


def test_partial_future_booking_releases_committed_calendar(tmp_path):
    path = _scn(
        tmp_path,
        "customer alice bank 4.00 USD 20041231\n"
        "post-offer ispA Rome Paris 50 3.00 USD 20031125\n"
        "post-offer ispB Paris Dublin 50 5.00 USD 20031125\n",
    )
    scn = parse_scenario(path.read_text(), tmp_path)
    bus = Bus(build_services(scn))
    from bandx.scenario import _Runner

    runner = _Runner(scn, bus)
    runner.setup()
    runner.run_events()
    fabric = bus.services["isp"].fabric
    with pytest.raises(PartialEstablishment):
        runner.sessions["alice"].purchase_future(
            "Rome", "Dublin", 50,
            (runner.clock + 86400, runner.clock + 90000), runner.clock,
        )
    ne = fabric.ne("A-Rome")
    assert ne.calendar["A-Paris"] == {}  # provider A's commitment rolled back
    from bandx.fabric import capacity_violations

    assert capacity_violations(fabric) == []


def test_dispute_endpoint_replays_recorded_verdict(tmp_path):
    from bandx.settlement import decode_journal, encode_record

    journal = tmp_path / "csc.journal"
    path = _scn(
        tmp_path,
        "customer alice bank 50.00 USD 20041231\n"
        "post-offer ispA Rome Paris 50 3.00 USD 20031125\n"
        "buy-spot alice Rome Paris 50\n"
        "deposit all\n",
    )
    scn = parse_scenario(path.read_text(), tmp_path)
    bus = Bus(build_services(scn, journal_path=str(journal)))
    from bandx.scenario import _Runner

    runner = _Runner(scn, bus)
    runner.setup()
    runner.run_events()
    entry = decode_journal(journal.read_bytes())[0]
    reply = bus.send("csc", "DISPUTE", {}, {"record": encode_record(entry.record)})
    assert reply.msg_type == "DISPUTE-RESP"
    assert reply.get("verdict") == "true"
    assert reply.get("recorded") == "true"


def test_tampered_booking_credential_fails_activation_end_to_end(tmp_path):
    from bandx.credentials import BadSignature, parse_credential, render_credential

    path = _scn(
        tmp_path,
        "customer alice bank 50.00 USD 20041231\n"
        "post-offer ispA Rome Paris 50 3.00 USD 20031125\n"
        "post-offer ispB Paris Dublin 50 3.00 USD 20031125\n",
    )
    scn = parse_scenario(path.read_text(), tmp_path)
    bus = Bus(build_services(scn))
    from bandx.scenario import _Runner

    runner = _Runner(scn, bus)
    runner.setup()
    runner.run_events()
    session = runner.sessions["alice"]
    creds = session.purchase_future(
        "Rome", "Dublin", 50, (runner.clock + 86400, runner.clock + 90000),
        runner.clock,
    )
    assert len(creds) == 2
    bus.broadcast_clock(runner.clock + 86400)  # reach the booked interval
    tampered = parse_credential(render_credential(creds[0]).replace("== 50", "== 99"))
    with pytest.raises(BadSignature):
        session.activate([tampered, creds[1]], runner.clock + 86400)
    # Fail-fast: the second provider was never touched.
    fabric = bus.services["isp"].fabric
    states = {r.state for r in fabric.reservations.values()}
    assert states == {"notional"}
    # The genuine credentials still activate.
    handle = session.activate(creds, runner.clock + 86400)
    assert all(leg.state == "active" for leg in handle.legs)


# ---------------------------------------------------------------------------
# Service protocol hygiene
# ---------------------------------------------------------------------------

def test_unknown_message_type_is_protocol_error(tmp_path):
    path = _scn(tmp_path, "")
    scn = parse_scenario(path.read_text(), tmp_path)
    bus = Bus(build_services(scn))
    reply = bus.send("ch", "NO-SUCH-VERB")
    assert reply.msg_type == "ERROR"
    assert reply.get("code") == "protocol"


def test_malformed_envelope_gets_error_reply(tmp_path):
    path = _scn(tmp_path, "")
    scn = parse_scenario(path.read_text(), tmp_path)
    services = build_services(scn)
    reply_bytes = services["ch"].handle_bytes(b"garbage that is not an envelope\n")
    reply, _ = decode(reply_bytes)
    assert reply.msg_type == "ERROR" and reply.get("code") == "protocol"


def test_out_of_range_clock_set_is_refused_and_changes_nothing(tmp_path):
    path = _scn(tmp_path, "post-offer ispA Rome Paris 50 3.00 USD 20031125\n")
    scn = parse_scenario(path.read_text(), tmp_path)
    bus = Bus(build_services(scn))
    from bandx.scenario import _Runner

    runner = _Runner(scn, bus)
    runner.setup()
    runner.run_events()
    before = bus.services["ch"].clock
    reply = bus.send("ch", "CLOCK-SET", {"now": str(10**20)}, sender="admin")
    assert (reply.msg_type, reply.get("code")) == ("ERROR", "invalid")
    assert bus.services["ch"].clock == before
    reply = bus.send("ch", "QUERY", {"from": "Rome", "to": "Paris", "bandwidth": "10"})
    assert (reply.msg_type, reply.get("count")) == ("OFFERS", "1")


_CLOCK_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), st.integers(-2 * 86_400, 8 * 86_400)),  # any instant
        st.tuples(st.just("by"), st.integers(-120, 120)),  # across a challenge's ttl
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=25, deadline=None)
@given(_CLOCK_STEPS)
def test_clock_moves_in_any_order_revive_nothing_and_change_no_verdict(steps):
    """CLOCK-SET, from any sender, forwards or back: an offer swept at a
    date stays gone, a challenge pruned past its ttl stays unknown, and
    every recorded verdict stays what deposit recorded."""
    import random
    from dataclasses import replace

    from bandx.credentials import parse_credential, render_credential
    from bandx.fabric import CHALLENGE_TTL
    from bandx.market import ClearingHouse
    from bandx.money import Money, date_of_instant
    from bandx.offers import make_offer_credential
    from bandx.services import ClearingHouseService, CscService, IspService
    from bandx.settlement import SettlementCenter, encode_record

    from helpers import settlement_world, two_isp_world

    world = two_isp_world()
    house = ClearingHouse()
    today = date_of_instant(world.now)
    offers = {  # offer id -> the date from which it is swept
        house.post_offer(make_offer_credential(
            world.isp_a, "Rome-Paris", 50, Money(300), until), today).offer_id: until
        for until in ("20031120", "20031122", "20031125")
    }
    money = settlement_world(random.Random(19))
    valid = money.random_record()
    forged = replace(valid, microcheck=parse_credential(
        render_credential(valid.microcheck).replace('nonce == "', 'nonce == "0')))
    records = [encode_record(r) for r in (valid, forged, money.random_record())]
    csc = SettlementCenter([money.guarantor.public_id])
    bus = Bus({"ch": ClearingHouseService(house, world.now),
               "isp": IspService(world.fabric, world.now),
               "csc": CscService(csc, world.now)})

    def verdicts():
        out = []
        for record in records:
            reply = bus.send("csc", "DISPUTE", {}, {"record": record})
            out.append((reply.get("verdict"), reply.get("recorded")))
        return out

    def deposit():
        blocks = {f"rec{i:03d}": r for i, r in enumerate(records)}
        raise_for_error(bus.send("csc", "DEPOSIT", {"count": str(len(records))}, blocks))

    deposit()
    recorded = verdicts()
    assert recorded == [("true", "true"), ("false", "false"), ("true", "true")]
    challenges: dict[str, list[int]] = {}  # id -> [ttl end, latest clock since issue]
    now = latest = world.now
    for how, value in steps:
        now = world.now + value if how == "at" else now + value
        for role in ("ch", "isp", "csc"):
            reply = bus.send(role, "CLOCK-SET", {"now": str(now)}, sender="qna")
            assert (reply.msg_type, reply.get("now")) == ("OK", str(now))
        latest = max(latest, now)
        for seen in challenges.values():
            seen[1] = max(seen[1], now)
        reply = raise_for_error(bus.send("isp", "CHALLENGE-REQ", {"to": "A-Rome"}))
        challenges[reply.require("challenge_id")] = [now + CHALLENGE_TTL, now]

        swept = date_of_instant(latest)
        assert {i for i in offers if house.get(i)} == {i for i, d in offers.items() if d > swept}
        held = world.fabric.ne("A-Rome").challenges
        assert set(held) == {c for c, (end, seen) in challenges.items() if end >= seen}
        deposit()
        assert verdicts() == recorded


def _flip_signature_tag(text: str) -> str:
    assert "sig-ed25519-base64:" in text
    return text.replace("sig-ed25519-base64:", "sig-ed25519-basf64:")


def test_unknown_signature_tag_on_an_offer_is_bad_signature(tmp_path):
    from bandx.money import Money
    from bandx.offers import make_offer_credential
    from bandx.scenario import actor_keypair

    path = _scn(tmp_path, "")
    scn = parse_scenario(path.read_text(), tmp_path)
    bus = Bus(build_services(scn))
    bus.broadcast_clock(scn.clock_start)
    offer = make_offer_credential(actor_keypair(scn.seed, "ispA"), "Rome-Paris", 50,
                                  Money(300), "20031125")
    reply = bus.send("ch", "POST-OFFER", {},
                     {"offer": _flip_signature_tag(offer.text()).encode()})
    assert (reply.msg_type, reply.get("code")) == ("ERROR", "bad-signature")
    assert bus.send("ch", "REPORT").get("offers") == "0"


def test_unknown_signature_tag_on_a_booking_is_bad_signature(tmp_path):
    path = _scn(
        tmp_path,
        "customer alice bank 50.00 USD 20041231\n"
        "post-offer ispA Rome Paris 50 3.00 USD 20031125\n",
    )
    scn = parse_scenario(path.read_text(), tmp_path)
    bus = Bus(build_services(scn))
    from bandx.scenario import _Runner

    runner = _Runner(scn, bus)
    runner.setup()
    runner.run_events()
    start = runner.clock + 86400
    [booking] = runner.sessions["alice"].purchase_future(
        "Rome", "Paris", 50, (start, start + 3600), runner.clock
    )
    bus.broadcast_clock(start)
    reply = bus.send("isp", "ACTIVATE", {"to": "A-Rome"},
                     {"credential": _flip_signature_tag(booking.text()).encode()})
    assert (reply.msg_type, reply.get("code")) == ("ERROR", "bad-signature")
    fabric = bus.services["isp"].fabric
    assert {r.state for r in fabric.reservations.values()} == {"notional"}


def test_a_spot_request_from_a_key_of_another_algorithm_is_payment_refused(tmp_path):
    path = _scn(
        tmp_path,
        "customer alice bank 50.00 USD 20041231\n"
        "post-offer ispA Rome Paris 50 3.00 USD 20031125\n"
        "buy-spot alice Rome Paris 50 handle=pipe\n",
    )
    scn = parse_scenario(path.read_text(), tmp_path)
    bus = Bus(build_services(scn), transcript=[])
    run_parsed(scn, bus)
    [request] = [env for env in _transcript_envelopes(b"".join(bus.transcript))
                 if env.msg_type == "RESERVE-SPOT"]
    from base64 import b64encode

    from bandx.credentials import parse_credential
    from bandx.fabric import request_message
    from bandx.scenario import actor_keypair

    alice = actor_keypair(scn.seed, "alice")
    creds = {k: parse_credential(v.decode()) for k, v in request.blocks.items()}
    offers = tuple(creds[k] for k in sorted(creds) if k.startswith("offer"))
    checks = tuple(creds[k] for k in sorted(creds) if k.startswith("check"))

    def resend(tag: str) -> Envelope:
        # Alice's own key and a valid signature over a fresh challenge:
        # only the tag on the key id differs between the two requests.
        challenge = bus.send("isp", "CHALLENGE-REQ", {"to": request.require("to")})
        challenge_id = challenge.require("challenge_id")
        message = request_message(challenge_id, offers, creds["guarantor"], checks, 50)
        fields = {**request.fields, "challenge_id": challenge_id,
                  "customer_key": f"{tag}:{alice.public_id.material}",
                  "signature": b64encode(alice.sign(message)).decode()}
        return bus.send("isp", "RESERVE-SPOT", fields, request.blocks)

    reply = resend("rsa")
    assert (reply.msg_type, reply.get("code")) == ("ERROR", "payment-refused")
    assert resend("ed25519-base64").msg_type == "RESERVED"


@pytest.mark.parametrize("field", ["received", "merchant"])
def test_deposit_record_without_a_header_field_is_invalid(field, tmp_path):
    import re

    from bandx.scenario import _Runner
    from bandx.settlement import decode_journal, encode_record

    journal = tmp_path / "csc.journal"
    scn = parse_scenario((SCENARIOS / "rome-dublin.scn").read_text(), SCENARIOS)
    bus = Bus(build_services(scn, journal_path=str(journal)))
    runner = _Runner(scn, bus)
    runner.setup()
    runner.run_events()
    csc = bus.services["csc"].csc
    balances = csc.balances()
    record = encode_record(decode_journal(journal.read_bytes())[0].record)
    header, _, body = record.partition(b"\n")
    stripped = re.sub(rb" " + field.encode() + rb"=\S*", b"", header)
    assert stripped != header
    reply = bus.send("csc", "DEPOSIT", {"count": "1"},
                     {"rec000": stripped + b"\n" + body})
    assert (reply.msg_type, reply.get("code")) == ("ERROR", "invalid")
    assert f"{field}=" in reply.get("detail")
    assert csc.balances() == balances


# ---------------------------------------------------------------------------
# Settlement journal across service restarts
# ---------------------------------------------------------------------------

def test_csc_restart_keeps_double_deposit_and_conservation(tmp_path):
    journal = tmp_path / "csc.journal"
    path = _scn(
        tmp_path,
        "customer alice bank 50.00 USD 20041231\n"
        "post-offer ispA Rome Paris 50 3.00 USD 20031125\n"
        "buy-spot alice Rome Paris 50\n"
        "deposit all\n",
    )
    scn = parse_scenario(path.read_text(), tmp_path)
    bus = Bus(build_services(scn, journal_path=str(journal)))
    from bandx.scenario import _Runner
    from bandx.settlement import SettlementCenter, decode_journal

    runner = _Runner(scn, bus)
    runner.setup()
    runner.run_events()
    old_csc = bus.services["csc"].csc
    records = [e.record for e in decode_journal(journal.read_bytes())]
    balances = old_csc.balances()
    assert records and balances

    # A new process over the same journal: state is rebuilt, a replayed
    # batch is rejected, conservation still holds.
    reborn = SettlementCenter(
        old_csc._guarantors, journal_path=journal
    )
    assert reborn.balances() == balances
    report = reborn.deposit_batch(records)
    assert report.accepted == ()
    assert all(reason == "double-deposit" for _, reason in report.rejected)
    totals: dict[str, int] = {}
    for (key, cur), cents in reborn.balances().items():
        totals[cur] = totals.get(cur, 0) + cents
    assert all(v == 0 for v in totals.values())
