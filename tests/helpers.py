"""Test oracles and generators shared between unit and acceptance suites."""

from __future__ import annotations

import gc
import random
import tracemalloc
from dataclasses import dataclass

from bandx.keys import Ed25519Scheme, KeyPair, generate_keypair
from bandx.market import ClearingHouse, OfferQuery
from bandx.money import Money
from bandx.offers import Offer, make_offer_credential, validate_unbundling
from bandx.payments import Wallet, build_purchase_action, issue_guarantor_credential
from bandx.settlement import TransactionRecord


def held_growth(step, warmup: int, rounds: int) -> int:
    """Bytes that `rounds` calls of `step` leave allocated, traced by
    tracemalloc after `warmup` calls have filled caches and memos."""
    tracemalloc.start()
    try:
        for _ in range(warmup):
            step()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(rounds):
            step()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def counting_scheme_verify(monkeypatch) -> list:
    """Record the key of every Ed25519 scheme verification from now on."""
    calls: list = []
    original = Ed25519Scheme.verify

    def counted(self, key, message, signature):
        calls.append(key)
        return original(self, key, message, signature)

    monkeypatch.setattr(Ed25519Scheme, "verify", counted)
    return calls


LOCATIONS = ["Rome", "Paris", "Dublin", "NYC", "Atlanta", "Berlin", "Oslo", "Lisbon"]


def random_market(
    rng: random.Random,
    max_locations: int = 8,
    max_offers: int = 14,
    now: str = "20031119",
) -> tuple[ClearingHouse, list[Offer], list[str], KeyPair]:
    """A clearing house loaded with a random offer graph."""
    isp = generate_keypair(f"oracle-isp:{rng.randrange(10 ** 9)}")
    locations = LOCATIONS[: rng.randint(2, max_locations)]
    house = ClearingHouse()
    offers: list[Offer] = []
    for _ in range(rng.randint(1, max_offers)):
        a, b = rng.sample(locations, 2)
        cred = make_offer_credential(
            isp,
            f"{a}-{b}",
            bandwidth_mbps=rng.choice([10, 25, 50, 80, 100]),
            min_price=Money(rng.randint(1, 900)),
            valid_until="20031231",
            unbundling_allowed=rng.random() < 0.7,
        )
        offers.append(house.post_offer(cred, now))
    return house, offers, locations, isp


def brute_force_best_plan(
    offers: list[Offer], q: OfferQuery
) -> tuple[int, tuple[str, ...]] | None:
    """Exhaustive enumeration over all simple location paths; returns
    (price, offer-id sequence) of the optimum or None."""
    eligible = [
        o
        for o in offers
        if o.valid_until > q.needed_on
        and o.min_price.currency == q.currency
        and o.bandwidth_mbps >= q.min_bandwidth_mbps
        and validate_unbundling(o, q.min_bandwidth_mbps)
    ]
    best: tuple[int, tuple[str, ...]] | None = None

    def walk(node: str, visited: frozenset[str], price: int, ids: tuple[str, ...]):
        nonlocal best
        if node == q.link_to:
            cand = (price, ids)
            if best is None or cand < best:
                best = cand
            return
        for o in eligible:
            if o.link_from != node or o.link_to in visited:
                continue
            walk(
                o.link_to,
                visited | {o.link_to},
                price + o.prorated_price(q.min_bandwidth_mbps).cents,
                ids + (o.offer_id,),
            )

    walk(q.link_from, frozenset({q.link_from}), 0, ())
    if best is not None and q.max_total_price is not None:
        if best[0] > q.max_total_price.cents:
            return None
    return best


# ---------------------------------------------------------------------------
# Settlement world: payers with guarantor credentials, merchants with
# offers, and a stream of transaction records.
# ---------------------------------------------------------------------------

TODAY = "20031119"


@dataclass
class SettlementWorld:
    guarantor: KeyPair
    wallets: list[Wallet]
    merchants: list[KeyPair]
    offers: list[Offer]
    rng: random.Random

    def random_record(self, duplicate_pool: list[TransactionRecord] | None = None
                      ) -> TransactionRecord:
        """A fresh valid record, or (20% of the time, when a pool is
        given) an exact duplicate of an earlier one."""
        rng = self.rng
        if duplicate_pool and rng.random() < 0.2:
            return rng.choice(duplicate_pool)
        wallet = rng.choice(self.wallets)
        offer = rng.choice(self.offers)
        purchased = (
            offer.bandwidth_mbps
            if not offer.unbundling_allowed
            else rng.choice([offer.bandwidth_mbps, max(1, offer.bandwidth_mbps // 2)])
        )
        amount = offer.prorated_price(purchased)
        nonce = f"{rng.getrandbits(64):016x}"
        check = wallet.write_check(offer.isp_key, amount, nonce, TODAY)
        action = build_purchase_action(offer, purchased, amount, nonce, TODAY)
        return TransactionRecord(
            offer=offer.credential,
            microcheck=check,
            guarantor=wallet.guarantor_credential,
            action=action,
            merchant_key=offer.isp_key,
            received_at=TODAY,
        )


# ---------------------------------------------------------------------------
# Fabric world: two providers meeting at Paris, one customer.
# ---------------------------------------------------------------------------

TWO_ISP_TOPOLOGY = """\
ne ispA A-Rome Rome
ne ispA A-Milan Milan
ne ispA A-Paris Paris
ne ispB B-Paris Paris
ne ispB B-Dublin Dublin
link A-Rome A-Milan Rome-Milan 200
link A-Milan A-Paris Milan-Paris 200
link A-Rome A-Paris Rome-Paris 100
link B-Paris B-Dublin Paris-Dublin 100
"""


@dataclass
class FabricWorld:
    fabric: object
    isp_a: KeyPair
    isp_b: KeyPair
    guarantor: KeyPair
    customer: KeyPair
    wallet: Wallet
    cwc: object
    now: int


def two_isp_world(
    seed: int = 1,
    keepalive: dict | None = None,
    topology: str = TWO_ISP_TOPOLOGY,
) -> FabricWorld:
    from bandx.fabric import Fabric, Pdp, parse_topology
    from bandx.money import instant_from_text

    isp_a = generate_keypair(f"fabric:ispA:{seed}")
    isp_b = generate_keypair(f"fabric:ispB:{seed}")
    guarantor = generate_keypair(f"fabric:bank:{seed}")
    customer = generate_keypair(f"fabric:alice:{seed}")
    pdp = Pdp([guarantor.public_id.canonical()])
    fabric = Fabric.build(
        parse_topology(topology),
        {"ispA": isp_a, "ispB": isp_b},
        pdp,
        rng_seed=seed,
        keepalive=keepalive,
    )
    cwc = issue_guarantor_credential(guarantor, customer.public_id, Money(10_000),
                                     "20041231")
    wallet = Wallet(customer, cwc)
    return FabricWorld(
        fabric, isp_a, isp_b, guarantor, customer, wallet, cwc,
        now=instant_from_text("20031119T080000"),
    )


def spot_request(world: FabricWorld, ne, offers, purchased_mbps: int, now: int,
                 amounts=None, nonces=None):
    """Drive the challenge/response exchange by hand, one check per
    offer of the addressed provider."""
    from bandx.fabric import sign_reservation_request
    from bandx.money import date_of_instant
    from bandx.offers import derive_offer_fields

    challenge = ne.issue_challenge(now)
    local = [o for o in offers if o.authorizer == ne.isp_key]
    checks = []
    for i, cred in enumerate(local):
        amount = (amounts[i] if amounts
                  else derive_offer_fields(cred).prorated_price(purchased_mbps))
        nonce = nonces[i] if nonces else f"{world.wallet.pair.sign(challenge.challenge_id.encode() + bytes([i])).hex()[:16]}"
        checks.append(world.wallet.write_check(ne.isp_key, amount, nonce,
                                               date_of_instant(now)))
    req = sign_reservation_request(
        world.customer, challenge.challenge_id, tuple(offers), world.cwc,
        tuple(checks), purchased_mbps,
    )
    return req


def settlement_world(rng: random.Random, n_payers: int = 3, n_merchants: int = 2
                     ) -> SettlementWorld:
    guarantor = generate_keypair(f"world-guarantor:{rng.randrange(10 ** 9)}")
    wallets = []
    for i in range(n_payers):
        pair = generate_keypair(f"world-payer:{rng.randrange(10 ** 9)}:{i}")
        cwc = issue_guarantor_credential(guarantor, pair.public_id, Money(2000), "20040324")
        wallets.append(Wallet(pair, cwc))
    merchants = [
        generate_keypair(f"world-merchant:{rng.randrange(10 ** 9)}:{i}")
        for i in range(n_merchants)
    ]
    offers = []
    from bandx.offers import open_offer

    for merchant in merchants:
        for _ in range(2):
            a, b = rng.sample(LOCATIONS, 2)
            cred = make_offer_credential(
                merchant,
                f"{a}-{b}",
                bandwidth_mbps=rng.choice([20, 50, 100]),
                min_price=Money(rng.randint(50, 900)),
                valid_until="20031231",
                unbundling_allowed=rng.random() < 0.7,
            )
            offers.append(open_offer(cred))
    return SettlementWorld(guarantor, wallets, merchants, offers, rng)
