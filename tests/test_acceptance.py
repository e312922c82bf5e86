"""Acceptance suite: one test per criterion, each printing a pass line
with its runtime. Run with `pytest tests/test_acceptance.py -v -s`.

 1. Conformance chain authorizes; six documented mutations are refused.
 2. 1,000 randomized deposit batches with 20% duplicates: one acceptance
    per (payer, nonce), conservation after every batch.
 3. compose_path equals the exhaustive optimum on 100 random graphs.
 4. 200 booking-vs-spot interleavings: activation always succeeds and
    the capacity audit stays clean.
 5. rome-dublin scenario: two providers credited, byte-identical golden
    transcript.
 6. Every settled record replays to its recorded verdict.
 7. Un-bundling: half of a 100Mbps offer succeeds at the exact pro-rated
    price with the flag set, is refused with it clear.
 8. Every bundled scenario produces the same final state in-process and
    across four socket services.
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import bandx
from bandx.credentials import (
    UnverifiedCredential,
    check_compliance,
    parse_credential,
    render_credential,
)
from bandx.keys import generate_keypair
from bandx.market import NoPath, OfferQuery
from bandx.money import Money
from bandx.offers import make_offer_credential
from bandx.payments import issue_guarantor_credential, open_microcheck
from bandx.settlement import (
    REASON_DOUBLE_DEPOSIT,
    REASON_UNKNOWN_GUARANTOR,
    SettlementCenter,
    TransactionRecord,
    decode_journal,
)

from conftest import make_chain
from helpers import (
    TODAY,
    brute_force_best_plan,
    random_market,
    settlement_world,
    spot_request,
    two_isp_world,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = sorted(SCENARIOS.glob("*.scn"))


def _pass(criterion: int, detail: str, started: float) -> None:
    print(f"\n[acceptance {criterion}] PASS {detail} ({time.monotonic() - started:.2f}s)")


# -- runs shared by criteria 2/5 and 6 ----------------------------------------
# Module-scoped, so criterion 6 builds them itself when it runs alone and
# reuses them after criteria 2 and 5. Each run times itself; its criterion
# holds it to the budget.


@dataclass
class _Run:
    elapsed: float
    csc: SettlementCenter
    records: list[TransactionRecord]  # every record deposited, in order
    detail: object  # duplicates injected and reports (criterion 2) or the scenario result (5)


@pytest.fixture(scope="module")
def deposit_run() -> _Run:
    """Criterion 2's 1,000 randomized batches; conservation after each."""
    started = time.monotonic()
    rng = random.Random(20031119)
    world = settlement_world(rng, n_payers=4, n_merchants=2)
    csc = SettlementCenter([world.guarantor.public_id])
    pool: list[TransactionRecord] = []
    records: list[TransactionRecord] = []
    reports = []
    duplicates_injected = 0
    for _ in range(1000):
        batch = []
        for _ in range(rng.randint(1, 2)):
            record = world.random_record(pool)
            if pool and record in pool:
                duplicates_injected += 1
            batch.append(record)
        pool.extend(r for r in batch if r not in pool)
        records += batch
        reports.append(csc.deposit_batch(batch))
        totals: dict[str, int] = {}
        for (_key, cur), cents in csc.balances().items():
            totals[cur] = totals.get(cur, 0) + cents
        assert all(v == 0 for v in totals.values()), "conservation violated"
    return _Run(time.monotonic() - started, csc, records, (duplicates_injected, reports))


@pytest.fixture(scope="module")
def rome_dublin_run(tmp_path_factory) -> _Run:
    """Criterion 5's rome-dublin scenario on the in-process bus."""
    from bandx.scenario import build_services, parse_scenario, run_parsed
    from bandx.services import Bus

    started = time.monotonic()
    journal = tmp_path_factory.mktemp("criterion-5") / "csc.journal"
    scn = parse_scenario((SCENARIOS / "rome-dublin.scn").read_text(), SCENARIOS)
    bus = Bus(build_services(scn, journal_path=str(journal)))
    result = run_parsed(scn, bus)
    records = [e.record for e in decode_journal(journal.read_bytes())]
    return _Run(time.monotonic() - started, bus.services["csc"].csc, records, result)


# ---------------------------------------------------------------------------

def test_criterion_1_conformance_chain_and_mutations(chain):
    started = time.monotonic()
    ok = check_compliance([chain.policy], [chain.cwc, chain.offer, chain.check],
                          (), chain.action)
    assert ok is True

    refusals = 0
    # (1) over-limit amount
    m = make_chain(amount="5.50")
    assert not check_compliance([m.policy], [m.cwc, m.offer, m.check], (), m.action)
    refusals += 1
    # (2) expired guarantor credential
    m = make_chain(cg_expiry="20031101")
    assert not check_compliance([m.policy], [m.cwc, m.offer, m.check], (), m.action)
    refusals += 1
    # (3) wrong currency
    m = make_chain(currency="EUR")
    assert not check_compliance([m.policy], [m.cwc, m.offer, m.check], (), m.action)
    refusals += 1
    # (4) reused nonce at the settlement center
    csc = SettlementCenter([chain.guarantor.public_id])
    record = TransactionRecord(chain.offer, chain.check, chain.cwc, chain.action,
                               chain.merchant.public_id.canonical(), TODAY)
    first = csc.deposit_batch([record])
    second = csc.deposit_batch([record])
    assert len(first.accepted) == 1
    assert second.rejected[0][1] == REASON_DOUBLE_DEPOSIT
    refusals += 1
    # (5) tampered offer link name
    tampered = parse_credential(
        render_credential(chain.offer).replace("Dublin-NYC", "Dublin-LHR")
    )
    with pytest.raises(UnverifiedCredential):
        check_compliance([chain.policy], [chain.cwc, tampered, chain.check],
                         (), chain.action)
    refusals += 1
    # (6) unknown guarantor
    stranger = generate_keypair("acceptance:unknown-bank")
    foreign = issue_guarantor_credential(stranger, chain.alice.public_id,
                                         Money(500), "20040324")
    assert not check_compliance([chain.policy], [foreign, chain.offer, chain.check],
                                (), chain.action)
    report = csc.deposit_batch(
        [TransactionRecord(chain.offer, chain.check, foreign, chain.action,
                           chain.merchant.public_id.canonical(), TODAY)]
    )
    assert report.rejected[0][1] == REASON_UNKNOWN_GUARANTOR
    refusals += 1

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, budget 1s"
    assert refusals == 6
    _pass(1, "conformance chain authorizes; 6 mutations refused", started)


def test_criterion_2_double_deposit_and_conservation(deposit_run):
    started = time.monotonic() - deposit_run.elapsed
    duplicates_injected, reports = deposit_run.detail
    payer_nonce = {}
    for record in deposit_run.records:
        check = open_microcheck(record.microcheck)
        payer_nonce[record.record_id()] = (check.payer_key, check.nonce)
    accepted_pairs = [
        payer_nonce[rid] for report in reports for rid, _ in report.accepted
    ]
    assert len(accepted_pairs) == len(set(accepted_pairs)), "a nonce settled twice"
    assert duplicates_injected > 100  # the 20% injection actually happened
    assert any(reason == REASON_DOUBLE_DEPOSIT
               for report in reports for _, reason in report.rejected)

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s, budget 30s"
    _pass(2, f"1000 batches, {duplicates_injected} duplicates all rejected, "
             "conservation held every batch", started)


def test_criterion_3_path_composition_oracle():
    started = time.monotonic()
    rng = random.Random(42424242)
    solved = 0
    for _ in range(100):
        house, offers, locations, _ = random_market(rng)
        src, dst = rng.sample(locations, 2) if len(locations) >= 2 else (None, None)
        q = OfferQuery(src, dst, rng.choice([10, 25, 50]), TODAY)
        expected = brute_force_best_plan(offers, q)
        if expected is None:
            with pytest.raises(NoPath):
                house.compose_path(q)
            continue
        plan = house.compose_path(q)
        assert plan.total_price.cents == expected[0], "price differs from optimum"
        solved += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.2f}s, budget 10s"
    _pass(3, f"100 random graphs, {solved} routable, all exactly optimal", started)


def test_criterion_4_futures_commitment_under_load():
    from bandx.fabric import CapacityExhausted, capacity_violations

    started = time.monotonic()
    activations = 0
    for seed in range(200):
        rng = random.Random(10_000 + seed)
        world = two_isp_world(seed=seed)
        ne = world.fabric.ne("A-Rome")
        start = world.now + 2 * 86400
        booked_mbps = rng.choice([30, 50, 60])
        offer = make_offer_credential(world.isp_a, "Rome-Paris", booked_mbps,
                                      Money(rng.randint(50, 500)), "20031125")
        req = spot_request(world, ne, [offer], booked_mbps, world.now)
        cred = ne.book_future(req, (start, start + 3600), world.now)

        for i in range(rng.randint(3, 8)):
            mbps = rng.choice([10, 20, 40, 70])
            spot_offer = make_offer_credential(
                world.isp_a, "Rome-Paris", mbps, Money(rng.randint(10, 400)),
                "20031125",
            )
            req = spot_request(world, ne, [spot_offer], mbps, world.now + i)
            try:
                ne.handle_spot_request(req, world.now + i)
            except CapacityExhausted:
                pass
            assert capacity_violations(world.fabric) == []

        res = ne.activate_reservation(cred, start + rng.randint(0, 3599))
        assert res.state == "active"
        assert capacity_violations(world.fabric) == []
        activations += 1

    assert activations == 200
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.2f}s, budget 60s"
    _pass(4, "200 interleavings, every committed booking activated, audit clean",
          started)


def test_criterion_5_rome_dublin_scenario_and_golden_transcript(rome_dublin_run):
    started = time.monotonic() - rome_dublin_run.elapsed
    result = rome_dublin_run.detail
    assert "pipe" not in result.report  # normalized: no handles, no ids
    assert "  ispA USD 2.97" in result.report
    assert "  ispB USD 2.97" in result.report
    assert "  alice USD -6.00" in result.report
    golden = (SCENARIOS / "rome-dublin.golden.transcript").read_bytes()
    assert result.transcript == golden, "transcript deviates from the golden bytes"

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 5 took {elapsed:.2f}s, budget 5s"
    _pass(5, "two-provider 50Mbps path settled; transcript byte-identical", started)


def test_criterion_6_dispute_replay_agreement(deposit_run, rome_dublin_run):
    started = time.monotonic()
    checked = 0
    for run in (deposit_run, rome_dublin_run):
        for record in run.records:
            assert run.csc.dispute_replay(record) == run.csc.recorded_verdict(record.record_id())
            checked += 1
    assert checked > 1000
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 6 took {elapsed:.2f}s, budget 30s"
    _pass(6, f"{checked} records replayed, 100% verdict agreement", started)


def test_criterion_7_unbundling_and_exact_proration():
    from bandx.fabric import UnbundlingProhibited
    from bandx.payments import open_microcheck

    started = time.monotonic()
    world = two_isp_world(seed=77)
    ne = world.fabric.ne("A-Rome")

    allowed = make_offer_credential(world.isp_a, "Rome-Paris", 100, Money(600),
                                    "20031125", unbundling_allowed=True)
    req = spot_request(world, ne, [allowed], 50, world.now)
    res = ne.handle_spot_request(req, world.now)
    assert res.state == "active" and res.bandwidth_mbps == 50
    paid = open_microcheck(ne.outbox[-1].microcheck).amount
    assert paid.cents == (600 * 50 + 99) // 100  # ceil(min_price * 50/100)
    assert paid.cents == 300

    denied = make_offer_credential(world.isp_a, "Rome-Paris", 100, Money(600),
                                   "20031125", unbundling_allowed=False)
    req = spot_request(world, ne, [denied], 50, world.now, amounts=[Money(300)])
    with pytest.raises(UnbundlingProhibited):
        ne.handle_spot_request(req, world.now)

    # The flag-clear offer still sells whole (on an idle link).
    fresh = two_isp_world(seed=78)
    ne = fresh.fabric.ne("A-Rome")
    denied = make_offer_credential(fresh.isp_a, "Rome-Paris", 100, Money(600),
                                   "20031125", unbundling_allowed=False)
    req = spot_request(fresh, ne, [denied], 100, fresh.now)
    res = ne.handle_spot_request(req, fresh.now)
    assert res.bandwidth_mbps == 100
    assert open_microcheck(ne.outbox[-1].microcheck).amount.cents == 600
    _pass(7, "50 of 100 allowed at exactly 300 minor units; refused when pinned",
          started)


def _free_ports(count: int) -> list[int]:
    """Distinct free ports: each socket stays bound until all are drawn,
    so the kernel cannot hand one port to two roles."""
    socks = [socket.socket() for _ in range(count)]
    try:
        for s in socks:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def test_criterion_8_transport_equivalence_four_processes(tmp_path):
    from bandx.scenario import materialize_configs, parse_scenario, run_parsed
    from bandx.services import SocketTransport

    # The services import the bandx this test imported, installed or not.
    package_root = str(Path(bandx.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    started = time.monotonic()
    for scenario_path in BUNDLED:
        scn = parse_scenario(scenario_path.read_text(), SCENARIOS)
        sim = run_parsed(scn)

        outdir = tmp_path / scenario_path.stem
        roles = ("ch", "isp", "csc", "guarantor")
        ports = dict(zip(roles, _free_ports(len(roles))))
        configs = materialize_configs(scn, outdir, ports)
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "bandx.cli", "serve", role,
                 "--config", str(cfg)],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                env=env,
            )
            for role, cfg in configs.items()
        ]
        try:
            deadline = time.time() + 30
            for role, port in ports.items():
                while True:
                    try:
                        socket.create_connection(("127.0.0.1", port), timeout=0.5).close()
                        break
                    except OSError:
                        if time.time() > deadline:
                            raise RuntimeError(f"{role} service never came up")
                        time.sleep(0.05)
            transport = SocketTransport(
                {role: ("127.0.0.1", port) for role, port in ports.items()}
            )
            try:
                live = run_parsed(scn, transport)
            finally:
                transport.close()
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
        assert live.report == sim.report, f"{scenario_path.name} diverged across transports"
    _pass(8, f"{len(BUNDLED)} scenarios identical in-process and over sockets",
          started)
