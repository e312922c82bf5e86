"""Admission timeline: model-based test against the quadratic reference.

Random sequences of booking, activation, spot admission (reserved and
premium), teardown, rollback and expiry run on the Rome->Paris link.
After every step `_window_load` must equal a frozen copy of the
original O(k^2) computation on random windows and on windows that
touch each row's boundaries, and the capacity audit (which rebuilds the
timeline from the reservation tables) must stay clean.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from bandx.fabric import (
    ACTIVE,
    NOTIONAL,
    CapacityExhausted,
    LoadTimeline,
    Reservation,
    UnknownReservation,
    capacity_violations,
    make_reservation_credential,
)
from bandx.offers import QOS_PREMIUM

from helpers import two_isp_world

LINK = ("A-Rome", "A-Paris", "Rome-Paris")  # capacity 100
BLOCKED = ("A-Paris", "A-Milan", "Milan-Paris")  # held full by a filler row
MBPS = st.sampled_from([10, 20, 30, 50, 70])
TICK = 5  # coarse instants, so that rows and windows share boundaries often


def reference_window_load(ne, neighbor: str, start: int, end: int) -> int:
    """The original admission check, frozen: worst committed load over
    [start, end), recomputed from the tables at every start point."""
    rows = [
        (r.start, r.end, r.bandwidth_mbps)
        for r in ne.active_rows[neighbor].values()
        if r.qos_class != QOS_PREMIUM
    ]
    rows += list(ne.calendar[neighbor].values())
    overlapping = [(s, e, m) for s, e, m in rows if s < end and e > start]
    points = {start} | {s for s, _, _ in overlapping if start <= s < end}
    worst = 0
    for t in points:
        load = sum(m for s, e, m in overlapping if s <= t < e)
        worst = max(worst, load)
    return worst


class _Model:
    def __init__(self, data):
        self.data = data
        self.world = two_isp_world()
        self.fabric = self.world.fabric
        self.ne = self.fabric.ne("A-Rome")
        self.now = self.world.now
        self.customer = self.world.customer.public_id.canonical()
        self.made: list[Reservation] = []
        self.serial = 0
        filler = self._reservation(ACTIVE, (BLOCKED,), 200, self.now, self.now + 10 ** 6)
        self.fabric.ne("A-Paris")._charge_active("A-Milan", filler)

    def _reservation(self, state, segments, mbps, start, end, qos="reserved"):
        self.serial += 1
        return Reservation(
            reservation_id=f"res-{self.serial:04d}", state=state,
            isp_key=self.ne.isp_key, segments=segments, bandwidth_mbps=mbps,
            start=start, end=end, customer_key=self.customer, qos_class=qos,
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

    def spot(self, qos="reserved"):
        end = self.now + TICK * self.data.draw(st.integers(1, 8))
        res = self._reservation(ACTIVE, (LINK,), self.data.draw(MBPS), self.now, end, qos)
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
        booked = [r for r in self.made if r.reservation_id in self.ne.bookings]
        if not booked:
            return
        res = self.data.draw(st.sampled_from(booked))
        cred = make_reservation_credential(self.world.isp_a, res)
        assert self.ne.activate_reservation(cred, res.start).state == ACTIVE

    def teardown(self):
        if not self.made:
            return
        res = self.data.draw(st.sampled_from(self.made))
        try:
            self.ne.teardown(res.reservation_id, self.customer)
        except UnknownReservation:
            raise AssertionError("own reservation unknown") from None

    def expire(self):
        ends = sorted({r.end for r in self.made if r.end > self.now})
        step = st.integers(0, 3).map(lambda k: self.now + TICK * k)
        self.now = self.data.draw(st.sampled_from(ends) | step if ends else step)
        self.fabric.expire_all(self.now)
        calendar = self.ne.calendar[LINK[1]]
        for res in self.made:
            if res.state == NOTIONAL:  # booked, never activated or torn down
                assert (res.reservation_id in calendar) == (res.end > self.now)

    # -- checks -----------------------------------------------------------------

    def check(self):
        neighbor = LINK[1]
        rows = list(self.ne.calendar[neighbor].values()) + [
            (r.start, r.end, r.bandwidth_mbps) for r in self.ne.active_rows[neighbor].values()
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
        assert capacity_violations(self.fabric) == []


OPERATIONS = ["book", "book", "spot", "premium", "activate", "teardown", "rollback", "expire"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_window_load_matches_the_quadratic_reference(data):
    model = _Model(data)
    for op in data.draw(st.lists(st.sampled_from(OPERATIONS), min_size=1, max_size=30)):
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
