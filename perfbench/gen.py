"""Seeded input generators for the three workloads.

Each generator draws from one `random.Random` seeded with the workload
name and the seed, in a fixed order, so the k-th item it yields is the
same in every run with that seed, however many items a run consumes.
The items are plain data; the workloads turn them into credentials and
messages through the public `bandx` API.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


@dataclass(frozen=True)
class OfferSpec:
    provider: str
    link_from: str
    link_to: str
    bandwidth_mbps: int
    price_cents: int
    valid_days: int  # valid until this many days after the posting date
    unbundle: bool


# ---------------------------------------------------------------------------
# spot: a chain of providers, one link each, behind a large offer store
# ---------------------------------------------------------------------------

CHAIN = ("Rome", "Milan", "Zurich", "Paris", "London", "Dublin")
SPOT_PROVIDERS = tuple(f"p{i}" for i in range(len(CHAIN) - 1))  # p<i> owns CHAIN[i]->CHAIN[i+1]
SPOT_CUSTOMERS = ("c0", "c1", "c2")
DECOY_LOCATIONS = tuple(f"X{i:03d}" for i in range(160))
SPOT_CHAIN_OFFERS = 400  # initial chain offers; churn keeps the count near this
SPOT_DECOY_OFFERS = 1200  # offers off the chain that compose_path still scans
SPOT_ROUNDS_PER_DAY = 115  # sim clock advances 1/115 day per round
SPOT_MBPS = (1, 2, 5, 10)
# Latency clusters by leg count; these weights put the median inside
# the 2-leg cluster, not on the edge between two clusters, where a small
# change in the sampled mix would move it.
SPOT_LEG_WEIGHTS = (3, 4, 2, 1)


@dataclass(frozen=True)
class SpotRound:
    customer: str
    first: int  # index into CHAIN of the path start
    legs: int  # provider legs, 1..4
    mbps: int
    churn: OfferSpec  # offer posted after the purchase


class SpotInputs:
    def __init__(self, seed: int):
        self.rng = rng_for("spot", seed)

    def _chain_offer(self, link: int, max_days: int) -> OfferSpec:
        r = self.rng
        return OfferSpec(
            provider=SPOT_PROVIDERS[link],
            link_from=CHAIN[link],
            link_to=CHAIN[link + 1],
            bandwidth_mbps=r.choice((10, 20, 50, 100)),
            price_cents=r.randint(200, 2000),
            valid_days=r.randint(1, max_days),
            unbundle=r.random() < 0.85,
        )

    def initial_offers(self) -> list[OfferSpec]:
        r = self.rng
        specs = [self._chain_offer(r.randrange(len(SPOT_PROVIDERS)), 6)
                 for _ in range(SPOT_CHAIN_OFFERS)]
        for _ in range(SPOT_DECOY_OFFERS):
            # Offers elsewhere in the market: compose_path scans them all,
            # but none is reachable from the chain, so how far its search
            # wanders does not depend on the chain's prices.
            a, b = r.sample(DECOY_LOCATIONS, 2)
            specs.append(OfferSpec(
                provider=r.choice(SPOT_PROVIDERS), link_from=a, link_to=b,
                bandwidth_mbps=r.choice((10, 20, 50, 100)),
                price_cents=r.randint(200, 2000), valid_days=400, unbundle=True,
            ))
        return specs

    def next_round(self) -> SpotRound:
        r = self.rng
        legs = r.choices((1, 2, 3, 4), weights=SPOT_LEG_WEIGHTS)[0]
        return SpotRound(
            customer=r.choice(SPOT_CUSTOMERS),
            first=r.randint(0, len(SPOT_PROVIDERS) - legs),
            legs=legs,
            mbps=r.choice(SPOT_MBPS),
            churn=self._chain_offer(r.randrange(len(SPOT_PROVIDERS)), 6),
        )


# ---------------------------------------------------------------------------
# futures: a handful of offers over three contended links
# ---------------------------------------------------------------------------

FUTURES_TOPOLOGY = """\
ne fa fa-Rome Rome
ne fa fa-Milan Milan
ne fa fa-Paris Paris
ne fb fb-Paris Paris
ne fb fb-Dublin Dublin
link fa-Rome fa-Milan Rome-Milan {cap}
link fa-Milan fa-Paris Milan-Paris {cap}
link fb-Paris fb-Dublin Paris-Dublin {cap}
"""
FUTURES_CAPACITY = 500
# Route -> the links it commits (offer Rome-Paris is routed inside
# provider fa through Milan). Bookings take the 2-provider route, so
# their latency has one mode; spot buys take Rome-Paris.
FUTURES_BOOK_ROUTE = ("Rome", "Dublin")
FUTURES_SPOT_ROUTE = ("Rome", "Paris")
FUTURES_ROUTES = {
    FUTURES_BOOK_ROUTE: ("Rome-Milan", "Milan-Paris", "Paris-Dublin"),
    FUTURES_SPOT_ROUTE: ("Rome-Milan", "Milan-Paris"),
}
FUTURES_OFFERS = (
    OfferSpec("fa", "Rome", "Paris", 100, 900, 700, True),
    OfferSpec("fa", "Rome", "Paris", 100, 950, 700, True),
    OfferSpec("fb", "Paris", "Dublin", 100, 700, 700, True),
    OfferSpec("fb", "Paris", "Dublin", 100, 720, 700, True),
)
FUTURES_CUSTOMERS = ("f0", "f1", "f2", "f3")
FUTURES_STEP_S = 56  # sim seconds the clock advances per booking
FUTURES_SPOT_EVERY = 200  # every 200th op is a spot buy
FUTURES_SPOT_HOLD = 5  # bookings a spot reservation is held before teardown
FUTURES_ACTIVATE_SHARE = 0.5
FUTURES_WARMUP = 1300  # bookings before timing: fills calendars to steady depth


@dataclass(frozen=True)
class FuturesOp:
    kind: str  # "book" or "spot"
    customer: str
    route: tuple[str, str]
    mbps: int
    lead_s: int = 0
    duration_s: int = 0
    activate: bool = False


class FuturesInputs:
    def __init__(self, seed: int):
        self.rng = rng_for("futures", seed)
        self.count = 0

    def next_op(self) -> FuturesOp:
        r = self.rng
        self.count += 1
        customer = r.choice(FUTURES_CUSTOMERS)
        if self.count % FUTURES_SPOT_EVERY == 0:
            return FuturesOp("spot", customer, FUTURES_SPOT_ROUTE, 1)
        return FuturesOp(
            kind="book",
            customer=customer,
            route=FUTURES_BOOK_ROUTE,
            mbps=r.randint(1, 4),
            lead_s=r.randint(6 * 3600, 22 * 3600),
            duration_s=r.randint(3600, 5 * 3600),
            activate=r.random() < FUTURES_ACTIVATE_SHARE,
        )


# ---------------------------------------------------------------------------
# settle: signed records with duplicates, forgeries and underpayments
# ---------------------------------------------------------------------------

SETTLE_PAYERS = 8
SETTLE_MERCHANTS = 4
SETTLE_OFFERS_PER_MERCHANT = 6
SETTLE_EPOCH_RECORDS = 1500  # records per settlement center lifetime
SETTLE_BATCH = (8, 24)  # DEPOSIT batch size range
SETTLE_DISPUTES = (2, 5)  # DISPUTE replays after each batch
# Record kinds and their shares; the rest are valid.
SETTLE_KINDS = (("duplicate", 0.10), ("forged", 0.015), ("unknown", 0.015),
                ("underpaid", 0.01))
LOCATIONS = ("Rome", "Paris", "Dublin", "NYC", "Atlanta", "Berlin", "Oslo", "Lisbon")


@dataclass(frozen=True)
class RecordSpec:
    kind: str  # valid | duplicate | forged | unknown | underpaid
    payer: int  # index; ignored for duplicates and unknown-guarantor records
    offer: int  # index into the settle offer list
    full: bool  # buy the whole advertised bandwidth, else half
    nonce: str
    copy_of: int = -1  # for duplicates: index of the original in the epoch


class SettleInputs:
    def __init__(self, seed: int):
        self.rng = rng_for("settle", seed)

    def offers(self) -> list[OfferSpec]:
        r = self.rng
        out = []
        for m in range(SETTLE_MERCHANTS):
            for _ in range(SETTLE_OFFERS_PER_MERCHANT):
                a, b = r.sample(LOCATIONS, 2)
                out.append(OfferSpec(
                    provider=f"m{m}", link_from=a, link_to=b,
                    bandwidth_mbps=r.choice((20, 50, 100)),
                    price_cents=r.randint(50, 4000), valid_days=700,
                    unbundle=r.random() < 0.7,
                ))
        return out

    def epoch(self, offers: list[OfferSpec]) -> list[RecordSpec]:
        """One settlement center's worth of records, in deposit order."""
        r = self.rng
        specs: list[RecordSpec] = []
        valid_idx: list[int] = []
        underpayable = [i for i, o in enumerate(offers) if o.unbundle]
        for i in range(SETTLE_EPOCH_RECORDS):
            roll = r.random()
            kind = "valid"
            for name, share in SETTLE_KINDS:
                if roll < share:
                    kind = name
                    break
                roll -= share
            if kind == "duplicate" and not valid_idx:
                kind = "valid"
            nonce = f"{r.getrandbits(64):016x}"
            if kind == "duplicate":
                specs.append(RecordSpec("duplicate", -1, -1, True, nonce,
                                        copy_of=r.choice(valid_idx)))
                continue
            offer = r.choice(underpayable) if kind == "underpaid" else r.randrange(len(offers))
            full = kind == "underpaid" or not offers[offer].unbundle or r.random() < 0.5
            specs.append(RecordSpec(kind, r.randrange(SETTLE_PAYERS), offer, full, nonce))
            if kind == "valid":
                valid_idx.append(i)
        return specs

    def plan(self, n_records: int) -> list[tuple[int, tuple[int, ...]]]:
        """DEPOSIT batches covering the epoch in order: (batch size,
        indices of already deposited records to replay as disputes)."""
        r = self.rng
        out = []
        done = 0
        while done < n_records:
            size = min(n_records - done, r.randint(*SETTLE_BATCH))
            done += size
            picks = tuple(r.randrange(done) for _ in range(r.randint(*SETTLE_DISPUTES)))
            out.append((size, picks))
        return out
