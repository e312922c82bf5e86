"""Clearing house: posting, querying, expiry, un-bundling, and minimum
price path composition against the exhaustive oracle."""

from __future__ import annotations

import gc
import random
import sys
import threading
from dataclasses import replace

import pytest

from bandx.credentials import (
    BadSignature,
    parse_credential,
    render_credential,
)
from bandx.keys import generate_keypair
from bandx.market import ClearingHouse, Expired, NoPath, OfferQuery
from bandx.money import Money, instant_from_text
from bandx.offers import (
    MalformedOffer,
    derive_offer_fields,
    make_offer_credential,
    open_offer,
    validate_unbundling,
)
from bandx.services import Bus, ClearingHouseService

from helpers import brute_force_best_plan, random_market

NOW = "20031119"
ISP_A = generate_keypair("market:ispA")
ISP_B = generate_keypair("market:ispB")


def _offer(isp=ISP_A, link="Dublin-NYC", mbps=50, cents=300, expiry="20031120", **kw):
    return make_offer_credential(isp, link, mbps, Money(cents), expiry, **kw)


# ---------------------------------------------------------------------------
# Derivation and posting
# ---------------------------------------------------------------------------

def test_structured_fields_derive_from_conditions(chain):
    offer = open_offer(chain.offer)  # the fixture offer carries no min_price pin
    assert (offer.link_from, offer.link_to) == ("Dublin", "NYC")
    assert offer.bandwidth_mbps == 50
    assert offer.min_price == Money(300)
    assert offer.valid_until == "20031120"
    assert offer.unbundling_allowed is True
    assert offer.qos_class == "reserved"


def test_builder_round_trips_through_derivation():
    cred = _offer(mbps=100, cents=600, unbundling_allowed=True, path_hint=("A1", "A2"))
    offer = open_offer(cred)
    assert offer.bandwidth_mbps == 100
    assert offer.min_price == Money(600)
    assert offer.amount_floor == Money(6)  # 1 Mbps pro-rata floor
    assert offer.path_hint == ("A1", "A2")
    assert offer.unbundling_allowed is True


def test_exact_purchase_offer_floor_is_full_price():
    offer = open_offer(_offer(mbps=100, cents=600, unbundling_allowed=False))
    assert offer.unbundling_allowed is False
    assert offer.amount_floor == Money(600)


def test_post_offer_idempotent():
    house = ClearingHouse()
    cred = _offer()
    first = house.post_offer(cred, NOW)
    second = house.post_offer(parse_credential(render_credential(cred)), NOW)
    assert first.offer_id == second.offer_id
    assert len(house) == 1


def test_post_offer_rejects_missing_bandwidth(chain):
    # Re-signed so only the schema violation is under test.
    with pytest.raises(MalformedOffer):
        ClearingHouse().post_offer(_missing_bandwidth_offer(chain), NOW)


def test_post_offer_rejects_bad_signature(chain):
    tampered = parse_credential(
        render_credential(chain.offer).replace("Dublin-NYC", "Rome-NYC")
    )
    with pytest.raises(BadSignature):
        ClearingHouse().post_offer(tampered, NOW)


def test_post_offer_rejects_expired():
    with pytest.raises(Expired):
        ClearingHouse().post_offer(_offer(expiry="20031119"), NOW)


def test_inconsistent_min_price_pin_rejected():
    cred = _offer(mbps=100, cents=600)
    text = render_credential(cred).replace('min_price == "6.00"', 'min_price == "9.00"')
    from bandx.credentials import sign_credential
    from dataclasses import replace

    resigned = sign_credential(replace(parse_credential(text), signature=None), ISP_A)
    with pytest.raises(MalformedOffer):
        ClearingHouse().post_offer(resigned, NOW)


def _missing_bandwidth_offer(chain):
    from bandx.credentials import sign_credential

    text = render_credential(chain.offer).replace('&bandwidth <= "50Mbps" && ', "")
    return sign_credential(replace(parse_credential(text), signature=None), chain.merchant)


def test_offer_fields_are_derived_once_per_credential(monkeypatch):
    from bandx import offers

    derived = []
    original = offers._derive_fields
    monkeypatch.setattr(offers, "_derive_fields", lambda c: derived.append(c) or original(c))
    text = render_credential(_offer(path_hint=("A1",)))
    parse_credential.cache_clear()  # no earlier test's object, already derived
    cred = parse_credential(text)
    first = derive_offer_fields(cred)
    again = derive_offer_fields(parse_credential(text))  # the parse memo's object
    assert again == first and again.credential is cred
    assert derived == [cred]
    assert derive_offer_fields(replace(cred)) == first  # a new object derives anew
    assert len(derived) == 2


def test_malformed_offer_is_raised_on_every_derive(chain):
    bad = _missing_bandwidth_offer(chain)
    for _ in range(2):
        with pytest.raises(MalformedOffer):
            derive_offer_fields(bad)
    assert bad._offer_fields is None


def test_derived_fields_stay_out_of_copies_equality_hash_and_repr():
    cred = _offer()
    fresh = replace(cred)
    derive_offer_fields(cred)
    assert cred._offer_fields is not None
    assert replace(cred)._offer_fields is None
    assert cred == fresh and hash(cred) == hash(fresh) and repr(cred) == repr(fresh)


def test_derived_fields_hold_no_reference_to_their_credential():
    # A cycle through the credential would leave an expired offer for the
    # full garbage collection to free.
    cred = _offer(path_hint=("A1", "A2"))
    derive_offer_fields(cred)
    seen, todo = set(), [cred._offer_fields]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert obj is not cred
        todo.extend(gc.get_referents(obj))


def test_concurrent_first_derives_agree():
    # Roles in one process derive the memo's shared objects from their own
    # threads; a race to fill the slot must still give every caller the
    # same fields.
    creds = [_offer(cents=300 + k) for k in range(40)]  # new objects, none derived
    expected = [derive_offer_fields(replace(c)) for c in creds]
    got: list = [[] for _ in range(6)]

    def derive_all(out: list) -> None:
        out.extend(derive_offer_fields(c) for c in creds)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=derive_all, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == [expected] * len(got)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def test_query_sorts_cheapest_first_with_id_ties():
    house = ClearingHouse()
    house.post_offer(_offer(cents=300), NOW)
    house.post_offer(_offer(cents=250), NOW)
    got = house.query_offers(OfferQuery("Dublin", "NYC", 50, NOW))
    assert [o.min_price.cents for o in got] == [250, 300]


def test_query_excludes_too_small_offers():
    house = ClearingHouse()
    house.post_offer(_offer(mbps=50), NOW)
    assert house.query_offers(OfferQuery("Dublin", "NYC", 80, NOW)) == []


def test_query_includes_larger_unbundlable_offer():
    house = ClearingHouse()
    house.post_offer(_offer(mbps=100, unbundling_allowed=True), NOW)
    got = house.query_offers(OfferQuery("Dublin", "NYC", 50, NOW))
    assert len(got) == 1


def test_query_excludes_larger_exact_only_offer():
    house = ClearingHouse()
    house.post_offer(_offer(mbps=100, unbundling_allowed=False), NOW)
    assert house.query_offers(OfferQuery("Dublin", "NYC", 50, NOW)) == []


def test_expire_offers_counts_and_removes():
    house = ClearingHouse()
    assert house.expire_offers(NOW) == 0
    house.post_offer(_offer(expiry="20031120"), NOW)
    house.post_offer(_offer(expiry="20040101", cents=400), NOW)
    assert house.expire_offers("20031121") == 1
    assert len(house) == 1


def test_expired_offers_never_served_after_sweep():
    rng = random.Random(17)
    for _ in range(20):
        house, offers, locations, _ = random_market(rng)
        sweep = rng.choice(["20031201", "20040101", "20031119", "20031231"])
        house.expire_offers(sweep)
        live = {o.offer_id for o in offers if o.valid_until > sweep}
        assert len(house) == len(live)
        assert all((house.get(o.offer_id) is not None) == (o.offer_id in live) for o in offers)
        q = OfferQuery(locations[0], locations[-1], 10, needed_on="20040101")
        assert house.query_offers(q) == []  # all offers expire 20031231


def test_query_orders_by_price_at_the_requested_bandwidth():
    house = ClearingHouse()
    small = house.post_offer(_offer(mbps=20, cents=500), NOW)  # $2.50 for 10 Mbps
    large = house.post_offer(_offer(mbps=100, cents=1000), NOW)  # $1.00 for 10 Mbps
    got = house.query_offers(OfferQuery("Dublin", "NYC", 10, NOW))
    assert [o.offer_id for o in got] == [large.offer_id, small.offer_id]
    capped = OfferQuery("Dublin", "NYC", 10, NOW, max_total_price=Money(100))
    assert [o.offer_id for o in house.query_offers(capped)] == [large.offer_id]


def test_offers_that_round_to_one_price_are_ordered_by_id():
    # At 10 Mbps each of these costs 101 cents, from six different unit
    # prices; the row walk must read on past equal prices to find the
    # least id.
    sizes = [(100, 1001), (20, 201), (50, 503), (100, 1010), (10, 101), (50, 505)]
    house = ClearingHouse()
    offers = [house.post_offer(_offer(ISP_A, "Rome-Dublin", mbps, cents), NOW)
              for mbps, cents in sizes]
    assert {o.prorated_price(10).cents for o in offers} == {101}
    house.post_offer(_offer(ISP_B, "Rome-Dublin", 100, 1011), NOW)  # 102: ends the walk
    ids = sorted(o.offer_id for o in offers)
    assert ids[0] != offers[0].offer_id  # the cheapest unit price is not the answer
    plan = house.compose_path(OfferQuery("Rome", "Dublin", 10, NOW))
    assert [o.offer_id for o, _ in plan.segments] == ids[:1]
    assert plan.total_price == Money(101)
    listed = house.query_offers(OfferQuery("Rome", "Dublin", 10, NOW))
    assert [o.offer_id for o in listed][:6] == ids


def test_needed_on_must_be_a_calendar_date():
    house = ClearingHouse()
    house.post_offer(_offer(), NOW)
    bus = Bus({"ch": ClearingHouseService(house, instant_from_text(NOW))})
    fields = {"from": "Dublin", "to": "NYC", "bandwidth": "50"}
    assert bus.send("ch", "COMPOSE", {**fields, "needed_on": NOW}).msg_type == "PLAN"
    for needed_on in ("2003111", "zzzz", "20031199"):
        for verb in ("QUERY", "COMPOSE"):
            reply = bus.send("ch", verb, {**fields, "needed_on": needed_on})
            assert (reply.msg_type, reply.get("code")) == ("ERROR", "invalid"), needed_on


# ---------------------------------------------------------------------------
# Un-bundling
# ---------------------------------------------------------------------------

def test_unbundling_rules():
    allowed = open_offer(_offer(mbps=100, unbundling_allowed=True))
    denied = open_offer(_offer(mbps=100, unbundling_allowed=False))
    assert validate_unbundling(allowed, 50) is True
    assert validate_unbundling(denied, 50) is False
    assert validate_unbundling(denied, 100) is True
    assert validate_unbundling(allowed, 100) is True


def test_prorated_price_rounds_up():
    offer = open_offer(_offer(mbps=100, cents=250))
    assert offer.prorated_price(50).cents == 125
    assert offer.prorated_price(33).cents == 83  # ceil(250*33/100) = ceil(82.5)
    assert offer.prorated_price(100).cents == 250


# ---------------------------------------------------------------------------
# Path composition
# ---------------------------------------------------------------------------

def test_two_segment_composition_across_isps():
    house = ClearingHouse()
    house.post_offer(_offer(ISP_A, "Rome-Paris", 50, 300), NOW)
    house.post_offer(_offer(ISP_B, "Paris-Dublin", 50, 400), NOW)
    plan = house.compose_path(OfferQuery("Rome", "Dublin", 50, NOW))
    assert [o.link_name for o, _ in plan.segments] == ["Rome-Paris", "Paris-Dublin"]
    assert plan.total_price == Money(700)


def test_direct_offer_dominates_two_segments():
    house = ClearingHouse()
    house.post_offer(_offer(ISP_A, "Rome-Paris", 50, 300), NOW)
    house.post_offer(_offer(ISP_B, "Paris-Dublin", 50, 400), NOW)
    house.post_offer(_offer(ISP_A, "Rome-Dublin", 50, 650), NOW)
    plan = house.compose_path(OfferQuery("Rome", "Dublin", 50, NOW))
    assert len(plan.segments) == 1
    assert plan.total_price == Money(650)


def test_no_path_when_store_empty():
    with pytest.raises(NoPath):
        ClearingHouse().compose_path(OfferQuery("Rome", "Dublin", 50, NOW))


def test_compose_respects_price_cap():
    house = ClearingHouse()
    house.post_offer(_offer(ISP_A, "Rome-Dublin", 50, 650), NOW)
    with pytest.raises(NoPath):
        house.compose_path(
            OfferQuery("Rome", "Dublin", 50, NOW, max_total_price=Money(600))
        )


def test_compose_matches_exhaustive_oracle():
    rng = random.Random(42)
    checked = 0
    for _ in range(100):
        house, offers, locations, _ = random_market(rng)
        src, dst = rng.sample(locations, 2) if len(locations) >= 2 else (None, None)
        q = OfferQuery(src, dst, rng.choice([10, 25, 50]), NOW)
        expected = brute_force_best_plan(offers, q)
        if expected is None:
            with pytest.raises(NoPath):
                house.compose_path(q)
            continue
        plan = house.compose_path(q)
        assert plan.total_price.cents == expected[0]
        assert tuple(o.offer_id for o, _ in plan.segments) == expected[1]
        checked += 1
    assert checked > 30


def test_every_served_offer_verifies_at_query_time():
    rng = random.Random(61)
    from bandx.credentials import verify_signature

    house, offers, locations, _ = random_market(rng)
    for a in locations:
        for b in locations:
            if a == b:
                continue
            for offer in house.query_offers(OfferQuery(a, b, 10, NOW)):
                assert verify_signature(offer.credential) is True
