"""Clearing-house index: model-based test against the full-scan composer.

Random sequences of posts, clock ticks and queries run on a small graph
with many parallel offers. After every step `compose_path` must equal a
frozen copy of the original composer, which scanned every live offer,
in plan, price and error; `query_offers` must list the eligible offers
by (prorated price, offer id); and the store must hold exactly the
offers that are live by the rule today < valid_until. A threaded test
runs readers against a writer that posts and expires.
"""

from __future__ import annotations

import heapq
import random
import sys
import threading
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandx.keys import generate_keypair
from bandx.market import ClearingHouse, Expired, NoPath, OfferQuery, PathPlan
from bandx.money import Money
from bandx.offers import Offer, derive_offer_fields, make_offer_credential, validate_unbundling

ISP = generate_keypair("market-index:isp")
PLACES = ("Rome", "Paris", "Dublin", "NYC")
START = "20031119"
DATES = ("20031120", "20031121", "20031122", "20031123")
# (Mbps, cents) of an offer. The first four cost the same at 1, 3 and
# 10 Mbps (11, 31 and 101 cents) from four different unit prices.
SIZES = ((10, 101), (20, 201), (50, 503), (100, 1001),
         (100, 1500), (50, 900), (20, 999), (10, 150))
CURRENCIES = ("USD", "USD", "USD", "EUR")


@cache
def _credential(link: str, size: tuple[int, int], until: str, unbundle: bool, currency: str):
    mbps, cents = size
    return make_offer_credential(ISP, link, mbps, Money(cents, currency), until,
                                 unbundling_allowed=unbundle)


LINKS = [f"{a}-{b}" for a in PLACES for b in PLACES if a != b]
# A post puts one to four parallel offers on one link.
POSTS = st.tuples(st.sampled_from(LINKS), st.lists(st.tuples(
    st.sampled_from(SIZES), st.sampled_from(DATES),
    st.sampled_from((True, True, True, False)), st.sampled_from(CURRENCIES),
), min_size=1, max_size=4))


def reference_eligible(offer: Offer, q: OfferQuery) -> bool:
    if offer.valid_until <= q.needed_on:
        return False
    if offer.min_price.currency != q.currency:
        return False
    if offer.bandwidth_mbps < q.min_bandwidth_mbps:
        return False
    return validate_unbundling(offer, q.min_bandwidth_mbps)


def reference_compose_path(offers: list[Offer], q: OfferQuery) -> PathPlan:
    """The original composer, frozen: every eligible offer is an edge."""
    if q.link_from == q.link_to:
        raise NoPath("degenerate query: identical endpoints")
    edges: dict[str, list[tuple[int, str, Offer]]] = {}
    for offer in offers:
        if reference_eligible(offer, q):
            price = offer.prorated_price(q.min_bandwidth_mbps).cents
            edges.setdefault(offer.link_from, []).append((price, offer.offer_id, offer))

    best: dict[str, tuple[int, tuple[str, ...]]] = {}
    heap: list[tuple[int, tuple[str, ...], str, tuple]] = [(0, (), q.link_from, ())]
    while heap:
        price, ids, node, segs = heapq.heappop(heap)
        if node in best and best[node] <= (price, ids):
            continue
        best[node] = (price, ids)
        if node == q.link_to:
            plan = PathPlan(
                segments=tuple((o, q.min_bandwidth_mbps) for o in segs),
                total_price=Money(price, q.currency),
            ).validate()
            if q.max_total_price is not None and price > q.max_total_price.cents:
                raise NoPath("cheapest plan exceeds the price cap")
            return plan
        for edge_price, oid, offer in edges.get(node, ()):
            nxt = offer.link_to
            cand = (price + edge_price, ids + (oid,))
            if nxt in best and best[nxt] <= cand:
                continue
            heapq.heappush(heap, (cand[0], cand[1], nxt, segs + (offer,)))
    raise NoPath(f"no offer path from {q.link_from} to {q.link_to}")


def _outcome(compose):
    try:
        plan = compose()
    except NoPath as exc:
        return ("no-path", str(exc))
    return [(o.offer_id, m) for o, m in plan.segments], plan.total_price


def _check(house: ClearingHouse, live: dict[str, Offer], data) -> None:
    assert len(house) == len(live)
    assert all(house.get(oid) is offer for oid, offer in live.items())
    currency = data.draw(st.sampled_from(CURRENCIES))
    cap = data.draw(st.none() | st.sampled_from((100, 250, 600, 1500)))
    mbps = data.draw(st.sampled_from((1, 3, 10, 10, 20, 50)))
    needed_on = data.draw(st.sampled_from((START, START) + DATES))
    offers = list(live.values())
    for a in PLACES:
        for b in PLACES:
            q = OfferQuery(a, b, mbps, needed_on,
                           max_total_price=Money(cap, currency) if cap is not None else None,
                           currency=currency)
            assert _outcome(lambda: house.compose_path(q)) == _outcome(
                lambda: reference_compose_path(offers, q)
            ), q
            listed = sorted(
                (o.prorated_price(mbps).cents, o.offer_id)
                for o in offers
                if (o.link_from, o.link_to) == (a, b) and reference_eligible(o, q)
            )
            if cap is not None:
                listed = [(p, oid) for p, oid in listed if p <= cap]
            assert [o.offer_id for o in house.query_offers(q)] == [oid for _, oid in listed]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_compose_path_matches_the_full_scan(data):
    house = ClearingHouse()
    live: dict[str, Offer] = {}
    today = START
    for op in data.draw(st.lists(st.sampled_from(["post"] * 4 + ["tick"]),
                                 min_size=4, max_size=24)):
        if op == "post":
            link, batch = data.draw(POSTS)
            for fields in batch:
                cred = _credential(link, *fields)
                offer = derive_offer_fields(cred)
                if offer.valid_until <= today:
                    with pytest.raises(Expired):
                        house.post_offer(cred, today)
                else:
                    assert house.post_offer(cred, today) == offer
                    live.setdefault(offer.offer_id, house.get(offer.offer_id))
        else:
            today = data.draw(st.sampled_from([d for d in (START,) + DATES if d >= today]))
            ending = [oid for oid, o in live.items() if o.valid_until <= today]
            assert house.expire_offers(today) == len(ending)
            for oid in ending:
                del live[oid]
        _check(house, live, data)


def test_readers_never_see_a_half_written_store():
    pool = [
        _credential(link, SIZES[(i + k) % 8], DATES[(i + 2 * k) % 4], True, "USD")
        for i, link in enumerate(LINKS) for k in (0, 3)
    ]
    offers = [derive_offer_fields(c) for c in pool]
    known = {o.offer_id for o in offers}
    house = ClearingHouse()
    done = threading.Event()
    wrong: list = []

    def writer():
        try:
            for rnd in range(30):
                today = (START,) + DATES[:2]
                now = today[rnd % 3]
                for cred, offer in zip(pool, offers):
                    if offer.valid_until > now:
                        house.post_offer(cred, now)
                house.expire_offers(DATES[rnd % 3])
        except Exception as exc:  # the test reports it below
            wrong.append(exc)
        finally:
            done.set()

    def reader(seed: int):
        rng = random.Random(seed)
        try:
            while not done.is_set():
                a, b = rng.sample(PLACES, 2)
                q = OfferQuery(a, b, rng.choice((1, 10, 20)), START)
                try:
                    plan = house.compose_path(q).validate()
                    assert {o.offer_id for o, _ in plan.segments} <= known
                except NoPath:
                    pass
                assert {o.offer_id for o in house.query_offers(q)} <= known
                assert sum(house.get(o.offer_id) is not None for o in offers) <= len(known)
                got = house.get(rng.choice(offers).offer_id)
                assert got is None or got.offer_id in known
                assert 0 <= len(house) <= len(known)
        except Exception as exc:  # the test reports it below
            wrong.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader, args=(11 * t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
