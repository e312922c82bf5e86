"""futures: customers book future intervals on a few contended links.

The market holds four offers over three links. Each booking starts some
hours ahead and lasts a few hours; the clock advances a fixed step per
booking, a share of the bookings are activated when they come due and
the rest expire, which holds each link's calendar at about a thousand
commitments. A spot buy every few hundred ops makes admission read the
active rows and the calendar together. The numbers are the `FUTURES_*`
constants and `FuturesInputs` in `gen.py`. Capacity refusals are
expected; each one is confirmed against the benchmark's own model of
the commitments. Everything runs on the in-process `Bus`.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque

from bandx.fabric import CapacityExhausted, Fabric, Pdp, capacity_violations, parse_topology
from bandx.keys import generate_keypair
from bandx.market import ClearingHouse
from bandx.money import date_of_instant, instant_from_text
from bandx.qna import PartialEstablishment, raise_for_error
from bandx.services import Bus, ClearingHouseService, GuarantorService, IspService

from common import SIM_START, Run, offer_credential, open_sessions, report_lines
from gen import (
    FUTURES_CAPACITY,
    FUTURES_CUSTOMERS,
    FUTURES_OFFERS,
    FUTURES_ROUTES,
    FUTURES_SPOT_HOLD,
    FUTURES_SPOT_ROUTE,
    FUTURES_STEP_S,
    FUTURES_TOPOLOGY,
    FUTURES_WARMUP,
    FuturesInputs,
)

DAY = 86_400


def peak_load(rows, start: int, end: int) -> int:
    """Worst total of rows overlapping [start, end), by an event sweep."""
    events = []
    for s, e, m in rows:
        if s < end and e > start:
            events.append((max(s, start), 1, m))
            events.append((min(e, end), 0, -m))  # an end at t precedes a start at t
    events.sort()
    load = worst = 0
    for _, _, delta in events:
        load += delta
        worst = max(worst, load)
    return worst


class Futures:
    primary = "book"  # per-layer totals are divided by bookings

    def __init__(self, seed: int, run: Run):
        self.run = run
        self.inputs = FuturesInputs(seed)
        self.now = SIM_START
        keys = {n: generate_keypair(f"perfbench:{seed}:{n}")
                for n in ("fa", "fb", "bank", *FUTURES_CUSTOMERS)}
        self.keys = keys
        self.fabric = Fabric.build(
            parse_topology(FUTURES_TOPOLOGY.format(cap=FUTURES_CAPACITY)),
            {"fa": keys["fa"], "fb": keys["fb"]},
            Pdp([keys["bank"].public_id.canonical()]),
            rng_seed=seed,
        )
        self.bus = Bus({
            "ch": ClearingHouseService(ClearingHouse(), SIM_START),
            "isp": IspService(self.fabric, SIM_START),
            "guarantor": GuarantorService(keys["bank"], SIM_START),
        })
        self.sessions = open_sessions(seed, keys, FUTURES_CUSTOMERS, self.bus, self.bus)
        for spec in FUTURES_OFFERS:
            cred = offer_credential(keys[spec.provider], spec,
                                    date_of_instant(self.now + spec.valid_days * DAY))
            raise_for_error(self.bus.send("ch", "POST-OFFER", {},
                                          {"offer": cred.text().encode("utf-8")}))
        # The benchmark's model: committed (start, end, mbps) per link.
        self.model: dict[str, list[tuple[int, int, int]]] = {
            link: [] for links in FUTURES_ROUTES.values() for link in links
        }
        self.due: list = []  # heap of (start, seq, customer, creds) to activate
        self.spots: deque = deque()
        self.outcomes: Counter = Counter()
        self.warm_outcomes: Counter = Counter()
        self.ops = 0
        # Spot reservations last until the offers expire.
        self.spot_end = instant_from_text(
            date_of_instant(SIM_START + FUTURES_OFFERS[0].valid_days * DAY))

    # -- ops --------------------------------------------------------------------

    def _advance(self) -> None:
        self.now += FUTURES_STEP_S
        _, exc = self.run.call("clock", self.bus.broadcast_clock, self.now)
        self.run.expect(exc is None, f"clock advance raised {exc!r}")
        if self.ops % 100 == 0:
            # Rows that ended never overlap a window starting now or later.
            with self.run.untimed():
                for link, rows in self.model.items():
                    self.model[link] = [r for r in rows if r[1] > self.now]

    def _refusal_confirmed(self, links, start: int, end: int, mbps: int) -> bool:
        return any(peak_load(self.model[l], start, end) + mbps > FUTURES_CAPACITY for l in links)

    def _activate(self) -> None:
        start, _, customer, creds = heapq.heappop(self.due)
        handle, exc = self.run.call("activate", self.sessions[customer].activate, creds, self.now)
        self.outcomes["due"] += 1
        if self.run.expect(exc is None, f"activation due at {start} raised {exc!r}"):
            ok = len(handle.legs) == len(creds) and all(l.state == "active" for l in handle.legs)
            if self.run.expect(ok, f"activation due at {start}: {handle.legs}"):
                self.outcomes["activated"] += 1

    def _book(self, op) -> None:
        links = FUTURES_ROUTES[op.route]
        start = self.now + op.lead_s
        end = start + op.duration_s
        creds, exc = self.run.call(
            "book", self.sessions[op.customer].purchase_future,
            *op.route, op.mbps, (start, end), self.now,
        )
        with self.run.untimed():
            if exc is None:
                legs = 2  # one credential per provider
                if self.run.expect(len(creds) == legs, f"booking returned {len(creds)} credentials"):
                    self.outcomes["booked"] += 1
                    for link in links:
                        self.model[link].append((start, end, op.mbps))
                    if op.activate:
                        heapq.heappush(self.due, (start, self.ops, op.customer, creds))
                return
            cause = exc.cause if isinstance(exc, PartialEstablishment) else exc
            if not isinstance(cause, CapacityExhausted):
                self.run.fail(f"booking {op.route} raised {exc!r}")
            elif self.run.expect(self._refusal_confirmed(links, start, end, op.mbps),
                                 f"booking {op.route} {start}-{end} refused with room left"):
                self.outcomes["refused"] += 1
                self.outcomes[f"refused:{type(exc).__name__}"] += 1

    def _spot(self, op) -> None:
        links = FUTURES_ROUTES[op.route]
        handle, exc = self.run.call("spot", self.sessions[op.customer].purchase_spot,
                                    *op.route, op.mbps, self.now)
        with self.run.untimed():
            if exc is None:
                leg = handle.legs[0]
                for link in links:
                    self.model[link].append((leg.start, leg.end, op.mbps))
                self.spots.append((op.customer, leg, op.mbps, FUTURES_SPOT_HOLD))
                self.outcomes["spot"] += 1
            elif not isinstance(exc, CapacityExhausted):
                self.run.fail(f"spot buy raised {exc!r}")
            elif self.run.expect(
                    self._refusal_confirmed(links, self.now, self.spot_end, op.mbps),
                    "spot buy refused with room left"):
                self.outcomes["spot-refused"] += 1

    def _release_spots(self) -> None:
        kept = deque()
        while self.spots:
            customer, leg, mbps, hold = self.spots.popleft()
            if hold > 1:
                kept.append((customer, leg, mbps, hold - 1))
                continue
            reply, exc = self.run.call("teardown", self.bus.send, "isp", "TEARDOWN-NOTIFY", {
                "to": leg.ne_id, "reservation_id": leg.reservation_id,
                "customer_key": self.keys[customer].public_id.canonical(),
            })
            self.run.expect(exc is None and reply.msg_type == "TORN-DOWN",
                            f"spot teardown: {exc or reply.fields}")
            with self.run.untimed():
                for link in FUTURES_ROUTES[FUTURES_SPOT_ROUTE]:
                    self.model[link].remove((leg.start, leg.end, mbps))
        self.spots = kept

    def warm_up(self) -> None:
        """Fill the calendars to their steady depth before timing."""
        timed = self.run
        self.run = Run()
        booked = 0
        while booked < FUTURES_WARMUP:
            before = self.ops
            self.step()
            booked += self.ops - before
        for problem in self.run.problems:
            timed.fail(f"warm-up: {problem}")
        self.run = timed
        self.warm_outcomes = Counter(self.outcomes)

    def step(self) -> None:
        """One op: a booking that came due is activated first."""
        if self.due and self.due[0][0] <= self.now:
            self._activate()
            return
        op = self.inputs.next_op()
        self.ops += 1
        if op.kind == "spot":
            self._spot(op)
        else:
            self._book(op)
        self._release_spots()
        self._advance()

    # -- end of run -------------------------------------------------------------

    def finish(self) -> dict:
        violations = capacity_violations(self.fabric)
        self.run.expect(violations == [], f"capacity violations: {violations[:3]}")
        self.run.expect(self.outcomes["activated"] == self.outcomes["due"],
                        f"{self.outcomes['due']} bookings came due, "
                        f"{self.outcomes['activated']} activated")
        report = raise_for_error(self.bus.send("isp", "REPORT")).block("report")
        offers = raise_for_error(self.bus.send("ch", "REPORT")).require("offers")
        return {
            "reservations_and_capacity": report_lines(report.decode("utf-8")),
            "offers": int(offers),
            "rejections": {k: v for k, v in self.outcomes.items() if k.startswith("refused")},
        }

    def layer_props(self) -> dict:
        nes = self.fabric.nes.values()
        timed = self.outcomes - self.warm_outcomes
        attempts = timed["booked"] + timed["refused"]
        return {
            "fabric.refusal_share": timed["refused"] / attempts if attempts else 0.0,
            "fabric.challenges_held": sum(len(ne.challenges) for ne in nes),
            "fabric.used_challenges_held": sum(len(ne.used_challenges) for ne in nes),
        }

    def primary_count(self) -> int:
        return len(self.run.samples.get("book", ()))

    def close(self) -> None:
        self.bus.close()
