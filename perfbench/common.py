"""Pieces every workload shares: the run record that times closed-loop
ops, percentiles, the final-state digest and the run context that is
printed with every result."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from bandx.credentials import parse_credential
from bandx.keys import KeyPair
from bandx.money import Money, instant_from_text
from bandx.offers import make_offer_credential
from bandx.payments import Wallet
from bandx.qna import QnaSession, raise_for_error

SIM_START = instant_from_text("20031119T080000")
FAR_EXPIRY = "20051231"  # guarantor credentials and long-lived offers


@dataclass
class Run:
    """Counts, latencies and failures of one workload instance.

    Every call into the program during the timed phase goes through
    `call`, which times it, marks it as one attempted op and, in a traced
    run, opens the tracer for its duration. Work the benchmark does for
    itself (oracles, checks, input generation) runs under `untimed`,
    which stops the clock that bounds the timed phase.
    """

    tracer: object | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    ends: dict[str, list[float]] = field(default_factory=dict)  # timed seconds at each op's end
    op_id: int = 0
    _started: float | None = None
    _paused: float = 0.0

    def start(self) -> None:
        self._started = time.perf_counter()

    def elapsed(self) -> float:
        """Timed seconds so far: wall time minus untimed pauses."""
        return time.perf_counter() - self._started - self._paused

    @contextmanager
    def untimed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def call(self, kind: str, fn, *args, **kwargs):
        """Run one op; returns (result, exception). The caller judges
        whether the outcome is the expected one."""
        self.attempted += 1
        self.op_id += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(self.op_id, kind)
        t0 = time.perf_counter()
        try:
            result, exc = fn(*args, **kwargs), None
        except Exception as error:  # judged by the caller
            result, exc = None, error
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
        self.samples.setdefault(kind, []).append(t1 - t0)
        self.ends.setdefault(kind, []).append(
            t1 - self._started - self._paused if self._started is not None else 0.0)
        return result, exc

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok


def offer_credential(isp: KeyPair, spec, valid_until: str):
    """Sign the offer an `OfferSpec` describes."""
    return make_offer_credential(
        isp, f"{spec.link_from}-{spec.link_to}", spec.bandwidth_mbps,
        Money(spec.price_cents), valid_until, unbundling_allowed=spec.unbundle,
    )


def open_sessions(seed: int, keys: dict[str, KeyPair], customers, bus, transport) -> dict:
    """A QnA session per customer, each with a credit credential the
    guarantor role on `bus` issued before timing starts."""
    sessions = {}
    for name in customers:
        reply = raise_for_error(bus.send("guarantor", "ISSUE-CWC", {
            "payer_key": keys[name].public_id.canonical(),
            "limit_cents": "100000", "currency": "USD", "expiry": FAR_EXPIRY,
        }))
        cwc = parse_credential(reply.block("credential").decode("utf-8"))
        sessions[name] = QnaSession(keys[name], Wallet(keys[name], cwc), transport,
                                    rng=random.Random(f"perfbench:{seed}:qna:{name}"))
    return sessions


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def interquartile_mean(values: list[float]) -> float:
    """Mean of the samples between the first and third quartile. Short
    ops are bimodal (a young-generation garbage collection lands in some
    of them and not in others), so their median jumps between the modes
    when the mix shifts a little; this mean moves with the mix smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    middle = ordered[n // 4: n - n // 4] or ordered
    return sum(middle) / len(middle) if middle else 0.0


def beyond(values: list[float], q: float) -> int:
    """How many samples lie above the q-th percentile."""
    return max(0, len(values) - max(1, math.ceil(q / 100 * len(values))))


def digest(state: dict) -> str:
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode("utf-8")).hexdigest()


def report_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line]


def run_context() -> dict:
    import cryptography

    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "machine": platform.machine(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "spot_transport": "TCP over host loopback (127.0.0.1); no real link is crossed",
    }


def balance_lines(body: bytes) -> dict[str, int]:
    """Parse a CSC-REPORT body into {"<key> <currency>": cents}."""
    out = {}
    for line in report_lines(body.decode("utf-8")):
        _, key, currency, cents = line.split(" ")
        out[f"{key} {currency}"] = int(cents)
    return out


def conserved(balances: dict[str, int]) -> bool:
    """Every currency's balances sum to zero."""
    totals: Counter = Counter()
    for name, cents in balances.items():
        totals[name.rsplit(" ", 1)[1]] += cents
    return all(v == 0 for v in totals.values())
