"""Admission timeline and reservation lifetime: model-based test against
the quadratic reference.

Random sequences of booking, activation, spot admission (reserved and
premium), keepalive, teardown, rollback and expiry run on the Rome->Paris
link, in a world with or without keepalive metering; activations and
keepalives go to any NE of the provider. After every step `_window_load`
must equal a frozen copy of the original O(k^2) computation on random
windows and on windows that touch each row's boundaries, and the
capacity audit (which rebuilds the timeline from the reservation tables)
must stay clean, and each reservation must sit in the table of its
state (`calendar` while notional, `active_rows` while active) or in
none once ended. After every expiry no live reservation is past its
deadline, an ended one is `lapsed` exactly when its keepalive fell due
before its end, and a clock set back changes nothing.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from bandx.fabric import (
    ACTIVE,
    EXPIRED,
    LAPSED,
    NOTIONAL,
    CapacityExhausted,
    LoadTimeline,
    Reservation,
    UnknownReservation,
    capacity_violations,
    make_reservation_credential,
)
from bandx.money import Money, date_of_instant
from bandx.offers import QOS_PREMIUM

from helpers import two_isp_world

LINK = ("A-Rome", "A-Paris", "Rome-Paris")  # capacity 100
BLOCKED = ("A-Paris", "A-Milan", "Milan-Paris")  # held full by a filler row
MBPS = st.sampled_from([10, 20, 30, 50, 70])
TICK = 5  # coarse instants, so that rows and windows share boundaries often
PERIOD = 2 * TICK  # keepalive period of the metered world
A_NES = ["A-Rome", "A-Milan", "A-Paris"]


def reference_window_load(ne, neighbor: str, start: int, end: int) -> int:
    """The original admission check, frozen: worst committed load over
    [start, end), recomputed from the tables at every start point."""
    rows = [
        (r.start, r.end, r.bandwidth_mbps)
        for table in (ne.active_rows, ne.calendar)
        for r in table[neighbor].values()
        if r.qos_class != QOS_PREMIUM
    ]
    overlapping = [(s, e, m) for s, e, m in rows if s < end and e > start]
    points = {start} | {s for s, _, _ in overlapping if start <= s < end}
    worst = 0
    for t in points:
        load = sum(m for s, e, m in overlapping if s <= t < e)
        worst = max(worst, load)
    return worst


class _Model:
    def __init__(self, data, metered=None):
        self.data = data
        self.metered = data.draw(st.booleans(), label="metered") if metered is None else metered
        self.world = two_isp_world(
            keepalive={"ispA": (PERIOD, Money(10))} if self.metered else None
        )
        self.fabric = self.world.fabric
        self.ne = self.fabric.ne("A-Rome")
        self.now = self.world.now
        self.customer = self.world.customer.public_id.canonical()
        self.made: list[Reservation] = []
        self.booked: list[Reservation] = []
        self.torn: set[str] = set()  # ended by teardown, not by the clock
        self.serial = 0
        filler = self._reservation(ACTIVE, (BLOCKED,), 200, self.now, self.now + 10 ** 6)
        self.fabric.ne("A-Paris")._hold("A-Milan", filler)

    def _reservation(self, state, segments, mbps, start, end, qos="reserved"):
        self.serial += 1
        return Reservation(
            reservation_id=f"res-{self.serial:04d}", state=state,
            isp_key=self.ne.isp_key, segments=segments, bandwidth_mbps=mbps,
            start=start, end=end, customer_key=self.customer, qos_class=qos,
            guarantor_credential=self.world.cwc,
        )

    def _interval(self):
        start = self.now + TICK * self.data.draw(st.integers(1, 6))
        return start, start + TICK * self.data.draw(st.integers(1, 4))

    # -- operations -------------------------------------------------------------

    def book(self):
        res = self._reservation(NOTIONAL, (LINK,), self.data.draw(MBPS), *self._interval())
        try:
            self.ne._claim(res)
        except CapacityExhausted:
            return
        self.fabric.register(res)
        self.made.append(res)
        self.booked.append(res)

    def spot(self, qos="reserved"):
        end = self.now + TICK * self.data.draw(st.integers(1, 8))
        res = self._reservation(ACTIVE, (LINK,), self.data.draw(MBPS), self.now, end, qos)
        if self.metered:
            res.next_payment_due = self.now + PERIOD
        try:
            self.ne._claim(res)
        except CapacityExhausted:
            return
        self.fabric.register(res)
        self.made.append(res)

    def premium(self):
        self.spot(QOS_PREMIUM)

    def rollback(self):
        """The second segment is full, so the first one's charge or
        booking must be undone."""
        before = {n: list(t.events) for n, t in self.ne.timelines.items()}
        if self.data.draw(st.booleans()):
            res = self._reservation(NOTIONAL, (LINK, BLOCKED), 10, *self._interval())
        else:
            res = self._reservation(ACTIVE, (LINK, BLOCKED), 10, self.now, self.now + 30)
        try:
            self.ne._claim(res)
        except CapacityExhausted:
            pass
        else:
            raise AssertionError("a path over a full link was admitted")
        assert {n: t.events for n, t in self.ne.timelines.items()} == before

    def activate(self):
        """Only a booking still `notional` activates; an activated, torn
        down or ended one is unknown and stays as it is."""
        if not self.booked:
            return
        res = self.data.draw(st.sampled_from(self.booked))
        cred = make_reservation_credential(self.world.isp_a, res)
        ne = self.fabric.ne(self.data.draw(st.sampled_from(A_NES)))
        if res.state == NOTIONAL:
            assert ne.activate_reservation(cred, res.start).state == ACTIVE
            return
        before = self._snapshot()
        try:
            ne.activate_reservation(cred, res.start)
        except UnknownReservation:
            assert self._snapshot() == before
        else:
            raise AssertionError(f"a {res.state} booking activated again")

    def keepalive(self):
        metered = [r for r in self.made if r.state == ACTIVE and r.next_payment_due]
        if not metered:
            return
        res = self.data.draw(st.sampled_from(metered))
        ne = self.fabric.ne(self.data.draw(st.sampled_from(A_NES)))
        self.serial += 1
        check = self.world.wallet.write_check(
            ne.isp_key, Money(10), f"{self.serial:012x}", date_of_instant(self.now)
        )
        due = res.next_payment_due
        assert ne.keepalive_payment(res.reservation_id, check, self.now) == due + PERIOD

    def teardown(self):
        if not self.made:
            return
        res = self.data.draw(st.sampled_from(self.made))
        try:
            if self.ne.teardown(res.reservation_id, self.customer):
                self.torn.add(res.reservation_id)
        except UnknownReservation:
            raise AssertionError("own reservation unknown") from None

    def expire(self):
        ends = sorted({
            t for r in self.made for t in (r.end, r.next_payment_due)
            if t is not None and t > self.now
        })
        step = st.integers(0, 3).map(lambda k: self.now + TICK * k)
        self.now = self.data.draw(st.sampled_from(ends) | step if ends else step)
        self.fabric.expire_all(self.now)
        for res in self.made:
            due = res.next_payment_due
            deadline = res.end if due is None else min(res.end, due)
            if res.state in (NOTIONAL, ACTIVE):
                assert deadline > self.now
            elif res.reservation_id not in self.torn:  # ended by the clock, on time
                assert res.state in (EXPIRED, LAPSED) and deadline <= self.now
                assert (res.state == LAPSED) == (due is not None and due < res.end)
        if self.data.draw(st.booleans(), label="set the clock back"):
            before = self._snapshot()
            earlier = self.now - TICK * self.data.draw(st.integers(1, 6))
            assert self.fabric.expire_all(earlier) == 0
            assert self._snapshot() == before

    def _snapshot(self):
        return (
            [(r.state, r.next_payment_due) for r in self.made],
            {(ne_id, n): (list(ne.active_rows[n]), list(ne.calendar[n]), list(t.events))
             for ne_id, ne in self.fabric.nes.items() for n, t in ne.timelines.items()},
        )

    # -- checks -----------------------------------------------------------------

    def check(self):
        neighbor = LINK[1]
        rows = [
            (r.start, r.end, r.bandwidth_mbps)
            for table in (self.ne.active_rows, self.ne.calendar)
            for r in table[neighbor].values()
        ]
        windows = []
        for s, e, _m in rows:
            windows += [(e, e + 5), (s - 5, s), (s, e), (s, s + 1), (e - 1, e)]
        instants = sorted({t for s, e, _ in rows for t in (s, e)} | {self.now})
        for _ in range(3):
            start = self.data.draw(st.sampled_from(instants) | st.integers(self.now - 5, self.now + 60))
            windows.append((start, start + self.data.draw(st.integers(1, 60))))
        for start, end in windows:
            assert self.ne._window_load(neighbor, start, end) == reference_window_load(
                self.ne, neighbor, start, end
            ), (start, end)
        for res in self.made:  # a reservation sits in the table of its state, or in none
            assert (res.reservation_id in self.ne.calendar[neighbor]) == (res.state == NOTIONAL)
            assert (res.reservation_id in self.ne.active_rows[neighbor]) == (res.state == ACTIVE)
        assert capacity_violations(self.fabric) == []


OPERATIONS = [
    "book", "book", "spot", "premium", "activate", "keepalive", "teardown", "rollback",
    "expire",
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_window_load_matches_the_quadratic_reference(data):
    model = _Model(data)
    for op in data.draw(st.lists(st.sampled_from(OPERATIONS), min_size=1, max_size=30)):
        getattr(model, op)()
        model.check()


LIFETIME_OPERATIONS = [
    "book", "spot", "activate", "keepalive", "keepalive", "teardown", "expire", "expire",
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_metered_lifetimes_end_at_their_deadlines(data):
    model = _Model(data, metered=True)
    ops = st.lists(st.sampled_from(LIFETIME_OPERATIONS), min_size=5, max_size=40)
    for op in data.draw(ops):
        getattr(model, op)()
        model.check()


def test_ends_sort_before_starts_at_one_instant():
    # A row ending at 10 and one starting at 10 never overlap.
    timeline = LoadTimeline()
    timeline.add(10, 20, 60)
    timeline.add(0, 10, 60)
    assert timeline.peak(0, 20) == 60
    assert timeline.peak(10, 11) == 60
    timeline.drop(0, 10, 60)
    assert timeline.peak(0, 10) == 0
