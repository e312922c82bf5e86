"""Network elements: challenges, spot admission, boundary hand-off,
futures commitment, keepalives, expiry, and the capacity audit."""

from __future__ import annotations

import random

import pytest

from bandx.credentials import (
    BadSignature,
    build_credential,
    parse_credential,
    render_credential,
    sign_credential,
)
from bandx.fabric import (
    ACTIVE,
    EXPIRED,
    LAPSED,
    NOTIONAL,
    BoundaryReferral,
    CapacityExhausted,
    ExpiredChallenge,
    OutsideInterval,
    PaymentRefused,
    ReplayedChallenge,
    Reservation,
    UnbundlingProhibited,
    UnknownReservation,
    capacity_violations,
    make_reservation_credential,
    open_reservation_credential,
    sign_reservation_request,
)
from bandx.money import Money, date_of_instant, instant_from_text
from bandx.offers import make_offer_credential
from bandx.services import Bus, IspService

from helpers import spot_request, two_isp_world

HOUR = 3600
DAY = 86400


def _offer_a(world, link="Rome-Paris", mbps=50, cents=300, **kw):
    return make_offer_credential(world.isp_a, link, mbps, Money(cents), "20031125", **kw)


def _offer_b(world, link="Paris-Dublin", mbps=50, cents=400, **kw):
    return make_offer_credential(world.isp_b, link, mbps, Money(cents), "20031125", **kw)


# ---------------------------------------------------------------------------
# Challenges
# ---------------------------------------------------------------------------

def test_challenges_are_distinct():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    a = ne.issue_challenge(world.now)
    b = ne.issue_challenge(world.now)
    assert a.challenge_id != b.challenge_id


def test_challenge_draw_has_no_collisions_at_scale():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    ids = {ne.issue_challenge(world.now).challenge_id for _ in range(10_000)}
    assert len(ids) == 10_000


def test_expired_challenge_refused():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    req = spot_request(world, ne, [_offer_a(world)], 50, world.now)
    with pytest.raises(ExpiredChallenge):
        ne.handle_spot_request(req, world.now + 61)


def test_unknown_challenge_refused():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    req = spot_request(world, ne, [_offer_a(world)], 50, world.now)
    other = world.fabric.ne("A-Paris")
    with pytest.raises(ExpiredChallenge):
        other.handle_spot_request(req, world.now)


def test_redeemed_challenge_replayed_after_its_ttl_is_refused():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    req = spot_request(world, ne, [_offer_a(world)], 50, world.now)
    ne.handle_spot_request(req, world.now)
    ne.expire_reservations(world.now + 60)  # at the ttl: still remembered
    with pytest.raises(ReplayedChallenge):
        ne.handle_spot_request(req, world.now + 60)
    ne.expire_reservations(world.now + 61)
    assert req.challenge_id not in ne.used_challenges
    with pytest.raises(ExpiredChallenge):
        ne.handle_spot_request(req, world.now + 61)
    assert ne.free_capacity("A-Paris") == 50


def test_challenge_state_is_pruned_by_ttl():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    for i in range(50):
        ne.issue_challenge(world.now + i)
    spot = spot_request(world, ne, [_offer_a(world)], 50, world.now + 49)
    ne.handle_spot_request(spot, world.now + 49)
    ne.expire_reservations(world.now + 100)
    assert len(ne.challenges) == 10  # issued at +40..+49, live until +100..+109
    assert len(ne.used_challenges) == 1
    ne.expire_reservations(world.now + 110)
    assert ne.challenges == {} and ne.used_challenges == set()


# ---------------------------------------------------------------------------
# Spot admission
# ---------------------------------------------------------------------------

def test_single_isp_spot_reservation():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    req = spot_request(world, ne, [_offer_a(world)], 50, world.now)
    res = ne.handle_spot_request(req, world.now)
    assert isinstance(res, Reservation)
    assert res.state == ACTIVE
    assert res.segments == (("A-Rome", "A-Paris", "Rome-Paris"),)
    assert ne.free_capacity("A-Paris") == 50
    assert capacity_violations(world.fabric) == []
    assert len(ne.outbox) == 1


def test_replayed_challenge_changes_nothing():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    req = spot_request(world, ne, [_offer_a(world)], 50, world.now)
    ne.handle_spot_request(req, world.now)
    before = ne.free_capacity("A-Paris")
    with pytest.raises(ReplayedChallenge):
        ne.handle_spot_request(req, world.now)
    assert ne.free_capacity("A-Paris") == before


def test_boundary_referral_names_next_ingress():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    offers = [_offer_a(world), _offer_b(world)]
    req = spot_request(world, ne, offers, 50, world.now)
    out = ne.handle_spot_request(req, world.now)
    assert isinstance(out, BoundaryReferral)
    assert out.at_location == "Paris"
    assert out.next_ne_id == "B-Paris"
    assert out.next_isp_key == world.isp_b.public_id.canonical()
    assert out.outcome.state == ACTIVE  # provider A's local segment is live
    assert [c.authorizer for c in out.remaining_offers] == [
        world.isp_b.public_id.canonical()
    ]


def test_underpaid_check_refused():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    req = spot_request(world, ne, [_offer_a(world)], 50, world.now,
                       amounts=[Money(100)])
    with pytest.raises(PaymentRefused):
        ne.handle_spot_request(req, world.now)
    assert ne.free_capacity("A-Paris") == 100
    assert ne.outbox == []


def test_unbundling_prohibited_error():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    offer = _offer_a(world, mbps=100, cents=600, unbundling_allowed=False)
    req = spot_request(world, ne, [offer], 50, world.now, amounts=[Money(300)])
    with pytest.raises(UnbundlingProhibited) as refused:
        ne.handle_spot_request(req, world.now)
    assert str(refused.value) == "offer sells 100Mbps whole; 50 is part of a whole-only offer"


@pytest.mark.parametrize("unbundling_allowed", [True, False])
def test_more_than_advertised_is_worded_apart(unbundling_allowed):
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    offer = _offer_a(world, mbps=50, cents=500, unbundling_allowed=unbundling_allowed)
    req = spot_request(world, ne, [offer], 60, world.now, amounts=[Money(600)])
    with pytest.raises(UnbundlingProhibited) as refused:
        ne.handle_spot_request(req, world.now)
    assert str(refused.value) == "offer advertises 50Mbps; 60 is more than advertised"


def test_unbundled_purchase_prorates_and_admits():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    offer = _offer_a(world, mbps=100, cents=600, unbundling_allowed=True)
    req = spot_request(world, ne, [offer], 50, world.now)
    res = ne.handle_spot_request(req, world.now)
    assert res.bandwidth_mbps == 50
    # price the customer paid = ceil(600 * 50/100)
    from bandx.payments import open_microcheck

    assert open_microcheck(ne.outbox[0].microcheck).amount == Money(300)


def test_tampered_request_signature_refused():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    req = spot_request(world, ne, [_offer_a(world)], 50, world.now)
    from dataclasses import replace

    forged = replace(req, bandwidth_mbps=10)
    with pytest.raises(PaymentRefused):
        ne.handle_spot_request(forged, world.now)


def test_premium_best_effort_admits_without_capacity_charge():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    offer = _offer_a(world, qos_class="premium_best_effort")
    req = spot_request(world, ne, [offer], 50, world.now)
    res = ne.handle_spot_request(req, world.now)
    assert res.qos_class == "premium_best_effort"
    assert ne.free_capacity("A-Paris") == 100  # accounting only, no charge
    assert len(ne.outbox) == 1  # still paid for


# ---------------------------------------------------------------------------
# Path propagation
# ---------------------------------------------------------------------------

def test_three_ne_chain_records_everywhere():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    offer = _offer_a(world, link="Rome-Paris", path_hint=("A-Rome", "A-Milan", "A-Paris"))
    req = spot_request(world, ne, [offer], 50, world.now)
    res = ne.handle_spot_request(req, world.now)
    assert res.segments == (
        ("A-Rome", "A-Milan", "Rome-Milan"),
        ("A-Milan", "A-Paris", "Milan-Paris"),
    )
    assert world.fabric.ne("A-Rome").free_capacity("A-Milan") == 150
    assert world.fabric.ne("A-Milan").free_capacity("A-Paris") == 150


def test_full_interior_ne_aborts_whole_path():
    world = two_isp_world()
    middle = world.fabric.ne("A-Milan")
    # Saturate the Milan->Paris link with a standing reservation.
    filler = Reservation(
        reservation_id="res-filler", state=ACTIVE, isp_key="x",
        segments=(("A-Milan", "A-Paris", "Milan-Paris"),), bandwidth_mbps=200,
        start=world.now, end=world.now + DAY, customer_key="k",
    )
    middle._hold("A-Paris", filler)

    ne = world.fabric.ne("A-Rome")
    offer = _offer_a(world, link="Rome-Paris", path_hint=("A-Rome", "A-Milan", "A-Paris"))
    req = spot_request(world, ne, [offer], 50, world.now)
    with pytest.raises(CapacityExhausted):
        ne.handle_spot_request(req, world.now)
    assert ne.free_capacity("A-Milan") == 200  # first hop rolled back
    assert capacity_violations(world.fabric) == []


def test_capacity_bookkeeping_matches_recomputation_after_random_ops():
    rng = random.Random(23)
    for trial in range(10):
        world = two_isp_world(seed=trial)
        now = world.now
        for _ in range(rng.randint(3, 10)):
            ne = world.fabric.ne(rng.choice(["A-Rome", "B-Paris"]))
            link = "Rome-Paris" if ne.ne_id == "A-Rome" else "Paris-Dublin"
            maker = _offer_a if ne.ne_id == "A-Rome" else _offer_b
            mbps = rng.choice([10, 25, 50])
            offer = maker(world, link=link, mbps=mbps, cents=rng.randint(10, 500))
            req = spot_request(world, ne, [offer], mbps, now)
            try:
                ne.handle_spot_request(req, now)
            except CapacityExhausted:
                pass
            if rng.random() < 0.3:
                now += rng.randint(1, 3 * DAY)
                world.fabric.expire_all(now)
            assert capacity_violations(world.fabric) == []


# ---------------------------------------------------------------------------
# Futures
# ---------------------------------------------------------------------------

def _book(world, ne, offers, mbps, start, end, now):
    req = spot_request(world, ne, offers, mbps, now)
    return ne.book_future(req, (start, end), now)


def test_booking_issues_credential_and_installs_nothing():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    start = world.now + 3 * DAY
    cred = _book(world, ne, [_offer_a(world)], 50, start, start + HOUR, world.now)
    fields = open_reservation_credential(cred)
    assert fields["link_names"] == ("Rome-Paris",)
    assert ne.free_capacity("A-Paris") == 100  # nothing active
    booked = world.fabric.reservations[fields["reservation_id"]]
    assert booked.state == NOTIONAL
    assert ne.calendar["A-Paris"] == {booked.reservation_id: booked}
    assert (booked.start, booked.end, booked.bandwidth_mbps) == (start, start + HOUR, 50)
    assert ne.active_rows["A-Paris"] == {}


def test_overbooked_interval_is_refused():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    start = world.now + 3 * DAY
    _book(world, ne, [_offer_a(world, mbps=80, cents=500)], 80, start, start + HOUR,
          world.now)
    with pytest.raises(CapacityExhausted):
        _book(world, ne, [_offer_a(world, mbps=50)], 50, start + 60, start + HOUR,
              world.now)
    assert capacity_violations(world.fabric) == []


def test_booking_in_the_past_is_refused():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    with pytest.raises(OutsideInterval):
        _book(world, ne, [_offer_a(world)], 50, world.now - HOUR, world.now + HOUR,
              world.now)


def test_activation_at_start_instant():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    start = world.now + 3 * DAY
    cred = _book(world, ne, [_offer_a(world)], 50, start, start + HOUR, world.now)
    res = ne.activate_reservation(cred, start)
    assert res.state == ACTIVE
    assert ne.free_capacity("A-Paris") == 50
    assert capacity_violations(world.fabric) == []


def test_activation_before_interval_refused():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    start = world.now + 3 * DAY
    cred = _book(world, ne, [_offer_a(world)], 50, start, start + HOUR, world.now)
    with pytest.raises(OutsideInterval):
        ne.activate_reservation(cred, start - 1)


def test_tampered_reservation_credential_rejected():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    start = world.now + 3 * DAY
    cred = _book(world, ne, [_offer_a(world)], 50, start, start + HOUR, world.now)
    tampered = parse_credential(render_credential(cred).replace("== 50", "== 80"))
    with pytest.raises(BadSignature):
        ne.activate_reservation(tampered, start)


def test_unknown_booking_rejected():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    ghost = Reservation(
        reservation_id="res-ghost", state=NOTIONAL,
        isp_key=world.isp_a.public_id.canonical(),
        segments=(("A-Rome", "A-Paris", "Rome-Paris"),), bandwidth_mbps=10,
        start=world.now + DAY, end=world.now + DAY + HOUR,
        customer_key=world.customer.public_id.canonical(),
    )
    cred = make_reservation_credential(world.isp_a, ghost)
    with pytest.raises(UnknownReservation):
        ne.activate_reservation(cred, world.now + DAY)


def test_commitment_survives_competing_spot_load():
    # A committed booking must activate no matter what spot traffic
    # lands between booking and activation.
    rng = random.Random(7)
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    start = world.now + 2 * DAY
    cred = _book(world, ne, [_offer_a(world, mbps=60, cents=400)], 60,
                 start, start + HOUR, world.now)
    admitted = 0
    for i in range(100):
        mbps = rng.choice([10, 20, 40])
        offer = _offer_a(world, mbps=mbps, cents=rng.randint(10, 400),
                         link="Rome-Paris")
        req = spot_request(world, ne, [offer], mbps, world.now + i)
        try:
            ne.handle_spot_request(req, world.now + i)
            admitted += 1
        except CapacityExhausted:
            pass
        assert capacity_violations(world.fabric) == []
    res = ne.activate_reservation(cred, start)
    assert res.state == ACTIVE
    assert admitted > 0
    assert capacity_violations(world.fabric) == []


# ---------------------------------------------------------------------------
# Keepalive and expiry
# ---------------------------------------------------------------------------

def _metered_world():
    return two_isp_world(keepalive={"ispA": (600, Money(10))})


def test_keepalive_advances_due_date():
    world = _metered_world()
    ne = world.fabric.ne("A-Rome")
    req = spot_request(world, ne, [_offer_a(world)], 50, world.now)
    res = ne.handle_spot_request(req, world.now)
    assert res.next_payment_due == world.now + 600
    check = world.wallet.write_check(ne.isp_key, Money(10), "cafecafecafe",
                                     date_of_instant(world.now))
    due = ne.keepalive_payment(res.reservation_id, check, world.now + 500)
    assert due == world.now + 1200
    assert len(ne.outbox) == 2
    assert world.fabric.expire_all(world.now + 600) == 0  # the old due date
    assert res.state == ACTIVE
    assert world.fabric.expire_all(world.now + 1199) == 0
    assert world.fabric.expire_all(world.now + 1200) == 1  # the new one
    assert res.state == LAPSED
    assert ne.free_capacity("A-Paris") == 100


def test_bad_keepalive_check_refused():
    world = _metered_world()
    ne = world.fabric.ne("A-Rome")
    req = spot_request(world, ne, [_offer_a(world)], 50, world.now)
    res = ne.handle_spot_request(req, world.now)
    small = world.wallet.write_check(ne.isp_key, Money(1), "deaddeadbeef",
                                     date_of_instant(world.now))
    with pytest.raises(PaymentRefused):
        ne.keepalive_payment(res.reservation_id, small, world.now + 100)
    assert res.next_payment_due == world.now + 600


def test_missed_keepalive_lapses_reservation():
    world = _metered_world()
    ne = world.fabric.ne("A-Rome")
    req = spot_request(world, ne, [_offer_a(world)], 50, world.now)
    res = ne.handle_spot_request(req, world.now)
    count = ne.expire_reservations(world.now + 601)
    assert count == 1
    assert res.state == LAPSED
    assert ne.free_capacity("A-Paris") == 100


@pytest.mark.parametrize("past_end", [0, 1])
def test_unpaid_reservation_reached_at_its_end_in_one_tick_lapses(past_end):
    # One tick passes both the unpaid due date and the end: the due date
    # came first, so the reservation lapsed rather than expired.
    world = _metered_world()
    ne = world.fabric.ne("A-Rome")
    req = spot_request(world, ne, [_offer_a(world)], 50, world.now)
    res = ne.handle_spot_request(req, world.now)
    assert res.next_payment_due < res.end
    assert world.fabric.expire_all(res.end + past_end) == 1
    assert res.state == LAPSED
    assert ne.free_capacity("A-Paris") == 100
    assert capacity_violations(world.fabric) == []


def test_expiry_at_interval_end_restores_capacity():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    req = spot_request(world, ne, [_offer_a(world)], 50, world.now)
    res = ne.handle_spot_request(req, world.now)
    end = instant_from_text("20031125")  # the offer's validity bound
    assert ne.expire_reservations(end - 1) == 0
    assert ne.expire_reservations(end) == 1
    assert res.state == EXPIRED
    assert ne.free_capacity("A-Paris") == 100


def test_expire_on_idle_fabric_is_zero():
    world = two_isp_world()
    assert world.fabric.expire_all(world.now) == 0


def test_booking_that_ends_unactivated_expires_for_good():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    start = world.now + 3 * DAY
    cred = _book(world, ne, [_offer_a(world)], 50, start, start + HOUR, world.now)
    res = world.fabric.reservations[open_reservation_credential(cred)["reservation_id"]]
    assert world.fabric.expire_all(start + HOUR - 1) == 0
    assert res.state == NOTIONAL
    assert world.fabric.expire_all(start + HOUR) == 1
    assert res.state == EXPIRED
    assert ne.calendar["A-Paris"] == {}
    assert ne.timelines["A-Paris"].events == []
    # A clock set back inside the booked hour revives nothing.
    assert world.fabric.expire_all(start) == 0
    with pytest.raises(UnknownReservation):
        ne.activate_reservation(cred, start)
    assert res.state == EXPIRED
    assert ne.active_rows["A-Paris"] == {}
    assert capacity_violations(world.fabric) == []


def test_a_clock_set_back_changes_no_state():
    world = _metered_world()
    ne = world.fabric.ne("A-Rome")
    start = world.now + HOUR
    cred = _book(world, ne, [_offer_a(world)], 50, start, start + HOUR, world.now)
    spot = ne.handle_spot_request(
        spot_request(world, ne, [_offer_a(world, mbps=20, cents=120)], 20, world.now),
        world.now,
    )
    assert world.fabric.expire_all(world.now + 600) == 1  # the spot row's due date
    assert spot.state == LAPSED
    booked = ne.activate_reservation(cred, start)
    assert world.fabric.expire_all(start + 300) == 0

    def state():
        return (
            {r.reservation_id: (r.state, r.next_payment_due)
             for r in world.fabric.reservations.values()},
            {(ne_id, n): (dict(e.active_rows[n]), dict(e.calendar[n]), list(t.events))
             for ne_id, e in world.fabric.nes.items() for n, t in e.timelines.items()},
        )

    before = state()
    for earlier in (start, world.now, world.now - DAY):
        assert world.fabric.expire_all(earlier) == 0
        assert state() == before
        assert capacity_violations(world.fabric) == []
    assert booked.state == ACTIVE
    assert world.fabric.expire_all(start + 600) == 1  # the activated booking's due date
    assert booked.state == LAPSED


def test_activate_and_keepalive_at_any_ne_of_the_provider():
    world = _metered_world()
    ne = world.fabric.ne("A-Rome")
    start = world.now + HOUR
    cred = _book(world, ne, [_offer_a(world)], 50, start, start + HOUR, world.now)
    with pytest.raises(UnknownReservation):  # another provider's NE
        world.fabric.ne("B-Paris").activate_reservation(cred, start)
    milan = world.fabric.ne("A-Milan")  # not on the Rome-Paris path
    res = milan.activate_reservation(cred, start)
    assert res.state == ACTIVE
    assert ne.calendar["A-Paris"] == {} and ne.active_rows["A-Paris"] == {res.reservation_id: res}
    with pytest.raises(UnknownReservation):  # a second activation
        ne.activate_reservation(cred, start)
    check = world.wallet.write_check(ne.isp_key, Money(10), "beefbeefbeef",
                                     date_of_instant(start))
    assert milan.keepalive_payment(res.reservation_id, check, start + 100) == start + 1200
    with pytest.raises(UnknownReservation):
        world.fabric.ne("B-Paris").keepalive_payment(res.reservation_id, check, start + 100)
    assert world.fabric.expire_all(start + 600) == 0
    assert res.state == ACTIVE
    assert capacity_violations(world.fabric) == []


def test_teardown_notify_says_whether_it_released_anything():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    res = ne.handle_spot_request(
        spot_request(world, ne, [_offer_a(world)], 50, world.now), world.now
    )
    bus = Bus({"isp": IspService(world.fabric, world.now)})
    fields = {"to": "A-Paris", "reservation_id": res.reservation_id,
              "customer_key": res.customer_key}
    first = bus.send("isp", "TEARDOWN-NOTIFY", fields)
    assert (first.msg_type, first.get("released")) == ("TORN-DOWN", "yes")
    assert res.state == EXPIRED and ne.free_capacity("A-Paris") == 100
    second = bus.send("isp", "TEARDOWN-NOTIFY", fields)
    assert (second.msg_type, second.get("released")) == ("TORN-DOWN", "no")
    assert capacity_violations(world.fabric) == []


def test_audit_reports_a_timeline_that_drifted_from_the_tables():
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    start = world.now + 3 * DAY
    _book(world, ne, [_offer_a(world)], 50, start, start + HOUR, world.now)
    assert capacity_violations(world.fabric) == []
    ne.timelines["A-Paris"].drop(start, start + HOUR, 50)
    assert capacity_violations(world.fabric) == [
        "A-Rome->A-Paris: load timeline differs from the tables (0 events, 2 expected)"
    ]


# ---------------------------------------------------------------------------
# One refusal table for both entry points
# ---------------------------------------------------------------------------

# Each maker builds a request the addressed NE must refuse; `submit` is
# the entry point under test (a replay first redeems through it).

def _spot(world, ne, req):
    return ne.handle_spot_request(req, world.now)


def _future(world, ne, req):
    start = world.now + 3 * DAY
    return ne.book_future(req, (start, start + HOUR), world.now)


def _resigned(world, req, **changes):
    """The request with some fields replaced, signed again by the customer."""
    fields = {
        name: getattr(req, name)
        for name in ("challenge_id", "offers", "guarantor", "checks", "bandwidth_mbps")
    }
    return sign_reservation_request(world.customer, **{**fields, **changes})


def _replayed(world, ne, submit):
    req = spot_request(world, ne, [_offer_a(world, mbps=10, cents=60)], 10, world.now)
    submit(world, ne, req)
    return req


def _forged(world, ne, submit):
    from dataclasses import replace

    return replace(spot_request(world, ne, [_offer_a(world)], 50, world.now), bandwidth_mbps=10)


def _missing_check(world, ne, submit):
    return _resigned(world, spot_request(world, ne, [_offer_a(world)], 50, world.now), checks=())


def _extra_check(world, ne, submit):
    req = spot_request(world, ne, [_offer_a(world)], 50, world.now)
    return _resigned(world, req, checks=req.checks * 2)


def _foreign_head(world, ne, submit):
    return spot_request(world, ne, [_offer_b(world), _offer_a(world)], 50, world.now)


def _elsewhere(world, ne, submit):
    return spot_request(world, ne, [_offer_a(world, link="Milan-Paris")], 50, world.now)


def _unchained(world, ne, submit):
    offers = [_offer_a(world), _offer_a(world, link="Milan-Paris")]
    return spot_request(world, ne, offers, 50, world.now)


def _impossible_expiry(world, ne, submit):
    """A signed offer that expires on the 39th of November."""
    conditions = (
        'app_domain == "BAND-X" && currency == "USD" && link_name == "Rome-Paris" '
        '&& &bandwidth <= "50Mbps" && &amount >= 3.00 && date < "20031139" -> "true";'
    )
    offer = sign_credential(build_credential(world.isp_a.public_id, "", conditions), world.isp_a)
    return spot_request(world, ne, [offer], 50, world.now, amounts=[Money(300)])


def _fill(world, segment, mbps):
    from_ne, to_ne, _name = segment
    filler = Reservation(
        reservation_id="res-filler", state=ACTIVE, isp_key="x", segments=(segment,),
        bandwidth_mbps=mbps, start=world.now, end=world.now + 30 * DAY, customer_key="k",
    )
    world.fabric.ne(from_ne)._hold(to_ne, filler)


def _full_link(world, ne, submit):
    _fill(world, ("A-Rome", "A-Paris", "Rome-Paris"), 100)
    return spot_request(world, ne, [_offer_a(world)], 50, world.now)


def _full_second_hop(world, ne, submit):
    """The first hop is claimed, then rolled back."""
    _fill(world, ("A-Milan", "A-Paris", "Milan-Paris"), 200)
    offer = _offer_a(world, path_hint=("A-Rome", "A-Milan", "A-Paris"))
    return spot_request(world, ne, [offer], 50, world.now)


def _left_behind(fabric):
    return (
        sorted(fabric.reservations),
        {ne_id: list(ne.outbox) for ne_id, ne in fabric.nes.items()},
        {(ne_id, n): list(t.events) for ne_id, ne in fabric.nes.items()
         for n, t in ne.timelines.items()},
    )


REFUSALS = [
    (_replayed, ReplayedChallenge, "already redeemed"),
    (_forged, PaymentRefused, "signature does not verify"),
    (_missing_check, PaymentRefused, r"one check per local offer \(1\), got 0"),
    (_extra_check, PaymentRefused, r"one check per local offer \(1\), got 2"),
    (_foreign_head, PaymentRefused, "no offers for this provider"),
    (_elsewhere, PaymentRefused, "not at this ingress"),
    (_unchained, PaymentRefused, "do not chain"),
    (_impossible_expiry, PaymentRefused, "malformed offer"),
    (_full_link, CapacityExhausted, "A-Rome->A-Paris"),
    (_full_second_hop, CapacityExhausted, "A-Milan->A-Paris"),
]


@pytest.mark.parametrize("submit", [_spot, _future], ids=["spot", "future"])
@pytest.mark.parametrize(
    "make, refusal, cause", REFUSALS, ids=[make.__name__.lstrip("_") for make, *_ in REFUSALS]
)
def test_spot_and_futures_refuse_alike_and_leave_nothing_behind(submit, make, refusal, cause):
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    req = make(world, ne, submit)
    before = _left_behind(world.fabric)
    with pytest.raises(refusal, match=cause):
        submit(world, ne, req)
    assert _left_behind(world.fabric) == before
    assert capacity_violations(world.fabric) == []
