"""The benchmark's own checks: seeded inputs, determinism of the final
state, output checks that catch a wrong answer, and the traced run.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run as bench  # noqa: E402
from common import Run, digest  # noqa: E402
from futures import Futures, peak_load  # noqa: E402
from gen import FuturesInputs, SettleInputs, SpotInputs  # noqa: E402
from hostspeed import NOMINAL_S, HostSpeed  # noqa: E402
from settle import Settle  # noqa: E402
from spans import per_layer_names  # noqa: E402
from spot import Spot  # noqa: E402


def _spot_inputs(seed):
    gen = SpotInputs(seed)
    return gen.initial_offers(), [gen.next_round() for _ in range(50)]


def _futures_inputs(seed):
    gen = FuturesInputs(seed)
    return [gen.next_op() for _ in range(500)]


def _settle_inputs(seed):
    gen = SettleInputs(seed)
    offers = gen.offers()
    epoch = gen.epoch(offers)
    return offers, epoch, gen.plan(len(epoch))


@pytest.mark.parametrize("make", [_spot_inputs, _futures_inputs, _settle_inputs])
def test_seed_alone_determines_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def _final_digest(make, seed, steps):
    inst = make(seed, Run())
    try:
        for _ in range(steps):
            inst.step()
        state = digest(inst.finish())
    finally:
        inst.close()
    assert inst.run.failed == 0, inst.run.problems
    return state


@pytest.mark.parametrize("make, steps", [
    (Spot, 12),
    (Futures, 60),
    (lambda seed, run: Settle(seed, run, bench.OUT), 4),
])
def test_same_seed_same_final_state(make, steps):
    bench.OUT.mkdir(exist_ok=True)
    first = _final_digest(make, 3, steps)
    assert _final_digest(make, 3, steps) == first
    assert _final_digest(make, 4, steps) != first


def test_wrong_rejection_reason_fails_the_run(monkeypatch):
    import bandx.settlement

    monkeypatch.setattr(bandx.settlement, "REASON_DOUBLE_DEPOSIT", "double-deposit-ok")
    bench.OUT.mkdir(exist_ok=True)
    settle = Settle(1, Run(), bench.OUT)
    try:
        for _ in range(40):  # enough batches to reach duplicates
            settle.step()
        settle.finish()
    finally:
        settle.close()
    assert settle.run.failed > 0
    assert any("batch at record" in p for p in settle.run.problems)


def test_overcharging_plan_fails_the_run(monkeypatch):
    from bandx.money import Money
    from bandx.offers import Offer

    original = Offer.prorated_price

    def one_cent_more(self, mbps):
        price = original(self, mbps)
        return Money(price.cents + 1, price.currency)

    monkeypatch.setattr(Offer, "prorated_price", one_cent_more)
    spot = Spot(2, Run())
    try:
        for _ in range(5):
            spot.step()
    finally:
        spot.close()
    assert any(" paid " in p for p in spot.run.problems)


def test_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    import bandx.settlement

    monkeypatch.setattr(bandx.settlement, "REASON_UNDERPAID", "underpaid-ok")
    status = bench.main(["--workload", "settle", "--seed", "1", "--seconds", "2"])
    out = capsys.readouterr().out.strip().splitlines()
    assert status == 1
    assert '"correct": false' in out[-1]


def test_traced_run_matches_untraced():
    result = bench.traced("settle", 5, 1.5)
    run = result["run"]
    assert run.failed == 0, run.problems
    metrics = result["metrics"]
    assert set(metrics) == set(per_layer_names())
    assert metrics["keys.Ed25519Scheme.verify.calls"] > 0
    assert metrics["settlement.SettlementCenter.deposit_batch.calls"] > 0
    assert -1 < metrics["trace.overhead_share"] < 1


# The program as it was when the benchmark was written; the call counts
# below are what the tracer must find in it.
SEED_COMMIT = "60dc9844b94909ec9650a00bebf8eb08d7ddae30"


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=BENCH.parent, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _program_is_seed_commit() -> bool:
    seed_tree = _git("rev-parse", f"{SEED_COMMIT}:src")
    return (seed_tree is not None and seed_tree == _git("rev-parse", "HEAD:src")
            and _git("status", "--porcelain", "--", "src") == "")


@pytest.mark.skipif(not _program_is_seed_commit(),
                    reason="the known counts hold for the seed commit's src/ only")
def test_tracer_reproduces_seed_commit_counts():
    """At the seed commit a deposited record is opened three times when
    accepted and twice when rejected, and every record whose guarantor
    is trusted builds the merchant POLICY once and verifies three
    signatures. A later program may make fewer calls, so this is a check
    of the tracer's counting, not of the program."""
    result = bench.traced("settle", 6, 1.5)
    assert result["run"].failed == 0, result["run"].problems
    in_deposits = result["tracer"].calls_in("deposit")
    expected = result["workload"].expected_calls()
    assert expected["payments.open_microcheck"] > 0
    assert {name: in_deposits[name] for name in expected} == expected


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_peak_load_matches_point_sampling():
    rng = random.Random(0)
    for _ in range(200):
        rows = []
        for _ in range(rng.randint(0, 12)):
            s = rng.randint(0, 50)
            rows.append((s, s + rng.randint(1, 20), rng.randint(1, 5)))
        start = rng.randint(0, 60)
        end = start + rng.randint(1, 30)
        overlapping = [(s, e, m) for s, e, m in rows if s < end and e > start]
        points = {start} | {s for s, _, _ in overlapping if start <= s < end}
        expected = max(sum(m for s, e, m in overlapping if s <= t < e) for t in points)
        assert peak_load(rows, start, end) == expected


def test_host_speed_scales_by_the_reference_times_nearby():
    speed = HostSpeed()
    speed.at = [0.0, 0.5, 1.0, 5.0, 5.5, 6.0]
    speed.samples = [NOMINAL_S] * 3 + [2 * NOMINAL_S] * 3
    assert speed.scale(0, 2) == pytest.approx(1.0)
    assert speed.scale(4, 7) == pytest.approx(0.5)
    assert speed.median_s(10, 12) == statistics.median(speed.samples)  # none there: all
    # An op ending at 0.5 s ran at nominal speed; one ending at 5.5 s ran
    # while the reference took twice as long, so it counts half.
    assert speed.scaled([0.01, 0.01], [0.5, 5.5]) == pytest.approx([0.01, 0.005])


def test_host_speed_samples_during_work_it_cannot_step_through():
    speed = HostSpeed()
    before = signal.getsignal(signal.SIGALRM)
    with speed.sampling():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 5
    assert speed.spent == pytest.approx(sum(speed.samples))
    assert signal.getsignal(signal.SIGALRM) == before
