"""spot: customers buy multi-provider spot paths over live sockets.

In-process `ch` and `isp` role servers listen on host loopback; one
client thread talks to them over two connections, one per role, and
waits for every reply. Set-up posts a store of well over a thousand
live offers (the `SPOT_*` constants in `gen.py`): several competing
offers per chain link plus dead-end offers that `compose_path` must
still consider. Each timed round buys a path of 1 to 4 provider legs,
tears down the purchase that left the holding window, posts one new
offer and advances the clock, which expires old offers. Credit
credentials are issued before timing starts; the records the providers
queued are deposited after it ends.
"""

from __future__ import annotations

import threading
from collections import Counter, deque

from bandx.fabric import Fabric, Pdp, capacity_violations, parse_topology
from bandx.keys import generate_keypair
from bandx.market import ClearingHouse, NoPath
from bandx.money import date_of_instant
from bandx.qna import raise_for_error
from bandx.services import (
    Bus,
    ClearingHouseService,
    CscService,
    GuarantorService,
    IspService,
    SocketTransport,
    serve,
)
from bandx.settlement import SettlementCenter

from common import (
    SIM_START,
    Run,
    balance_lines,
    conserved,
    offer_credential,
    open_sessions,
    report_lines,
)
from gen import CHAIN, SPOT_CUSTOMERS, SPOT_PROVIDERS, SPOT_ROUNDS_PER_DAY, SpotInputs

HOLD = 3  # purchases held before the oldest is torn down
CAPACITY = 100_000  # never the binding constraint here
DAY = 86_400


def _topology() -> str:
    lines = []
    for i, name in enumerate(SPOT_PROVIDERS):
        a, b = CHAIN[i], CHAIN[i + 1]
        lines += [f"ne {name} {name}-{a} {a}", f"ne {name} {name}-{b} {b}",
                  f"link {name}-{a} {name}-{b} {a}-{b} {CAPACITY}"]
    return "\n".join(lines) + "\n"


def _valid_until(now: int, days: int) -> str:
    return date_of_instant(now + days * DAY)


class OfferBook:
    """The benchmark's own model of the chain offers it posted: the
    cheapest plan along the chain is the cheapest eligible offer on each
    link, price ties broken by offer id."""

    def __init__(self) -> None:
        self.by_link: dict[str, list[tuple[str, int, int, str, bool]]] = {}

    def add(self, offer_id: str, link: str, mbps: int, cents: int, until: str,
            unbundle: bool) -> None:
        self.by_link.setdefault(link, []).append((offer_id, mbps, cents, until, unbundle))

    def prune(self, today: str) -> None:
        for link, offers in self.by_link.items():
            self.by_link[link] = [o for o in offers if o[3] > today]

    def plan_cents(self, first: int, legs: int, mbps: int, today: str) -> int | None:
        total = 0
        for i in range(first, first + legs):
            best = None
            for offer_id, bw, cents, until, unbundle in self.by_link.get(f"{CHAIN[i]}-{CHAIN[i + 1]}", ()):
                if until <= today or bw < mbps or (bw != mbps and not unbundle):
                    continue
                cand = (-(-cents * mbps // bw), offer_id)
                if best is None or cand < best:
                    best = cand
            if best is None:
                return None
            total += best[0]
        return total


class Spot:
    primary = "purchase"  # per-layer totals are divided by purchases

    def __init__(self, seed: int, run: Run):
        self.run = run
        self.inputs = SpotInputs(seed)
        self.now = SIM_START
        self.threads_before = set(threading.enumerate())
        keys = {n: generate_keypair(f"perfbench:{seed}:{n}")
                for n in (*SPOT_PROVIDERS, "bank", *SPOT_CUSTOMERS)}
        self.keys = keys
        bank = keys["bank"].public_id.canonical()
        self.fabric = Fabric.build(
            parse_topology(_topology()),
            {n: keys[n] for n in SPOT_PROVIDERS},
            Pdp([bank]),
            rng_seed=seed,
        )
        self.ch = ClearingHouseService(ClearingHouse(), SIM_START)
        self.isp = IspService(self.fabric, SIM_START)
        self.servers = [serve(self.ch, "127.0.0.1", 0), serve(self.isp, "127.0.0.1", 0)]
        self.transport = SocketTransport({
            role: ("127.0.0.1", server.server_address[1])
            for role, server in zip(("ch", "isp"), self.servers)
        })
        self.bus = Bus({
            "csc": CscService(SettlementCenter([bank]), SIM_START),
            "guarantor": GuarantorService(keys["bank"], SIM_START),
        })
        self.sessions = open_sessions(seed, keys, SPOT_CUSTOMERS, self.bus, self.transport)
        self.book = OfferBook()
        for spec in self.inputs.initial_offers():
            reply = raise_for_error(self._post(self._offer(spec), spec.provider))
            self._remember(spec, reply.require("offer_id"))
        self.held: deque = deque()
        self.purchased_cents = 0

    # -- ops --------------------------------------------------------------------

    def _offer(self, spec) -> bytes:
        cred = offer_credential(self.keys[spec.provider], spec, _valid_until(self.now, spec.valid_days))
        return cred.text().encode("utf-8")

    def _post(self, offer: bytes, provider: str):
        return self.transport.send("ch", "POST-OFFER", {}, {"offer": offer}, sender=provider)

    def _remember(self, spec, offer_id: str) -> None:
        if spec.link_from in CHAIN and spec.link_to in CHAIN:
            self.book.add(offer_id, f"{spec.link_from}-{spec.link_to}", spec.bandwidth_mbps,
                          spec.price_cents, _valid_until(self.now, spec.valid_days),
                          spec.unbundle)

    def _teardown(self, customer: str, handle, timed: bool = True) -> None:
        key = self.keys[customer].public_id.canonical()
        for leg in handle.legs:
            fields = {"to": leg.ne_id, "reservation_id": leg.reservation_id, "customer_key": key}
            if timed:
                reply, exc = self.run.call(
                    "teardown", self.transport.send, "isp", "TEARDOWN-NOTIFY", fields)
            else:
                reply, exc = self.transport.send("isp", "TEARDOWN-NOTIFY", fields), None
            self.run.expect(exc is None and reply.msg_type == "TORN-DOWN",
                            f"teardown of {leg.reservation_id}: {exc or reply.fields}")

    def warm_up(self) -> None:
        pass

    def step(self) -> None:
        run = self.run
        spec = self.inputs.next_round()
        today = date_of_instant(self.now)
        with run.untimed():
            expected = self.book.plan_cents(spec.first, spec.legs, spec.mbps, today)
        a, b = CHAIN[spec.first], CHAIN[spec.first + spec.legs]
        handle, exc = run.call("purchase", self.sessions[spec.customer].purchase_spot,
                               a, b, spec.mbps, self.now)
        if expected is None:
            run.expect(isinstance(exc, NoPath), f"{a}->{b}: expected no path, got {exc or handle}")
        elif run.expect(exc is None, f"purchase {a}->{b} {spec.mbps}Mbps raised {exc!r}"):
            run.expect(
                handle.total_price.cents == expected and len(handle.legs) == spec.legs
                and all(leg.state == "active" for leg in handle.legs),
                f"purchase {a}->{b}: paid {handle.total_price.cents} over "
                f"{len(handle.legs)} legs, expected {expected} over {spec.legs}",
            )
            self.purchased_cents += handle.total_price.cents
            self.held.append((spec.customer, handle))
        if len(self.held) > HOLD:
            self._teardown(*self.held.popleft())

        churn = spec.churn
        with run.untimed():
            offer = self._offer(churn)
        reply, exc = run.call("post", self._post, offer, churn.provider)
        if run.expect(exc is None and reply.msg_type == "OFFER-POSTED",
                      f"post-offer: {exc or reply.fields}"):
            self._remember(churn, reply.require("offer_id"))

        self.now += DAY // SPOT_ROUNDS_PER_DAY
        _, exc = run.call("clock", self.transport.broadcast_clock, self.now)
        run.expect(exc is None, f"clock advance raised {exc!r}")
        with run.untimed():
            self.book.prune(date_of_instant(self.now))

    # -- end of run -------------------------------------------------------------

    def finish(self) -> dict:
        run = self.run
        while self.held:
            self._teardown(*self.held.popleft(), timed=False)
        violations = capacity_violations(self.fabric)
        run.expect(violations == [], f"capacity violations: {violations[:3]}")
        records = raise_for_error(self.transport.send("isp", "FLUSH-RECORDS"))
        settled = raise_for_error(self.bus.send(
            "csc", "DEPOSIT", {"count": records.require("count")}, dict(records.blocks)))
        count = int(records.require("count"))
        run.expect(int(settled.require("accepted")) == count and settled.require("rejected") == "0",
                   f"end-of-run deposit: {settled.fields} of {count} records")
        reasons = Counter(line.split(" ")[2] for line in report_lines(
            settled.block("report").decode("utf-8")) if line.startswith("rejected"))
        balances = balance_lines(raise_for_error(self.bus.send("csc", "REPORT")).block("report"))
        run.expect(conserved(balances), "end-of-run balances are not conserved")
        paid = -sum(balances.get(f"{self.keys[c].public_id.canonical()} USD", 0)
                    for c in SPOT_CUSTOMERS)
        run.expect(paid == self.purchased_cents,
                   f"customers paid {paid}, purchases totalled {self.purchased_cents}")
        isp_report = raise_for_error(self.transport.send("isp", "REPORT")).block("report")
        offers = raise_for_error(self.transport.send("ch", "REPORT")).require("offers")
        return {
            "balances": balances,
            "reservations_and_capacity": report_lines(isp_report.decode("utf-8")),
            "offers": int(offers),
            "rejections": dict(reasons),
        }

    def layer_props(self) -> dict:
        nes = self.fabric.nes.values()
        return {
            "fabric.challenges_held": sum(len(ne.challenges) for ne in nes),
            "fabric.used_challenges_held": sum(len(ne.used_challenges) for ne in nes),
        }

    def primary_count(self) -> int:
        return len(self.run.samples.get("purchase", ()))

    def close(self) -> None:
        # SocketTransport.close closes the sockets but not their stream
        # files, which keeps the connections, and the server threads
        # blocked reading them, alive; close the files first.
        for rfile, wfile in self.transport._files.values():
            rfile.close()
            wfile.close()
        self.transport.close()
        for server in self.servers:
            server.shutdown()
            server.server_close()
        for thread in set(threading.enumerate()) - self.threads_before:
            thread.join(timeout=10)
