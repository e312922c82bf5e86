"""Simulated ISP network elements: the challenge/response spot
reservation protocol, inter-ISP boundary hand-off, futures booking and
activation, capacity admission, and reservation lifetime management.

Every NE is an independent state machine owning the capacity of its
outgoing directed links. Signature and compliance work is delegated to a
policy decision point (PDP); the NE itself only does bookkeeping. The
PDP decides a payment with `payments.payment_verdict`, the decision the
settlement center runs again on the deposited record, and the purchase
action it builds for that decision is the one the record carries. Time
is an injected simulation instant (epoch seconds), never the wall clock.

Spot purchases and futures bookings pass one admission sequence:
challenge, request signature, this provider's run of offers with one
check each, the PDP's purchase check per pair, ingress, chaining and
routing. Only the claim differs: a spot reservation is charged as active
load from now, a booking is entered in the calendar for its interval.

Capacity rule: for every link and every instant, the sum of active
reservations plus committed future bookings overlapping that instant
never exceeds capacity. Futures are charged at booking time, which is
the only reading under which activation of a committed booking can be
made infallible.

One lifecycle: a `notional` booking becomes `active` at activation; a
live reservation ends `expired` at its end or teardown, or `lapsed` at a
keepalive due before its end. Segment NEs file the `Reservation` in
`calendar` or `active_rows` by state; every NE of the owning provider
looks it up in `Fabric.reservations`. Expiry pops per-NE heaps of
deadlines, so a tick reads only the reservations that are due.

Known gap: when a multi-provider purchase fails at a later provider, the
earlier providers' capacity is released via teardown but their already
accepted checks stay queued; the money side of a partial establishment
is left to the dispute mechanism.
"""

from __future__ import annotations

import functools
import heapq
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

from .credentials import (
    ActionAttributeSet,
    BadSignature,
    Compare,
    Credential,
    Literal,
    canonical_bytes,
    conjunction,
    pin,
    pins,
    sign_credential,
    verify_signature,
)
from .keys import KeyPair, read_key_id, scheme_for_key
from .money import Money, date_of_instant, text_of_instant, instant_from_text
from .offers import APP_DOMAIN, MalformedOffer, Offer, QOS_PREMIUM, derive_offer_fields
from .payments import (
    REASON_UNBUNDLING,
    build_keepalive_action,
    build_purchase_action,
    open_microcheck,
    payment_verdict,
)
from .settlement import TransactionRecord

CHALLENGE_TTL = 60  # sim-seconds


class ExpiredChallenge(Exception):
    pass


class ReplayedChallenge(Exception):
    pass


class PaymentRefused(Exception):
    pass


class CapacityExhausted(Exception):
    pass


class UnbundlingProhibited(Exception):
    pass


class UnknownReservation(Exception):
    pass


class OutsideInterval(Exception):
    pass


# ---------------------------------------------------------------------------
# Wire-level objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Challenge:
    challenge_id: str  # 16 random bytes, hex
    ne_id: str
    issued_at: int


@dataclass(frozen=True)
class ReservationRequest:
    """Signed response to a challenge: offers along the remaining path,
    the customer's guarantor credential, and one check per offer of the
    provider being addressed."""

    challenge_id: str
    offers: tuple[Credential, ...]
    guarantor: Credential
    checks: tuple[Credential, ...]
    bandwidth_mbps: int
    customer_key: str
    signature: bytes


def request_message(
    challenge_id: str,
    offers: tuple[Credential, ...],
    guarantor: Credential,
    checks: tuple[Credential, ...],
    bandwidth_mbps: int,
) -> bytes:
    parts = [challenge_id.encode("ascii")]
    for cred in (*offers, guarantor, *checks):
        parts.append(canonical_bytes(cred))
    parts.append(str(bandwidth_mbps).encode("ascii"))
    return b"\x00".join(parts)


def sign_reservation_request(
    customer: KeyPair,
    challenge_id: str,
    offers: tuple[Credential, ...],
    guarantor: Credential,
    checks: tuple[Credential, ...],
    bandwidth_mbps: int,
) -> ReservationRequest:
    message = request_message(challenge_id, offers, guarantor, checks, bandwidth_mbps)
    return ReservationRequest(
        challenge_id=challenge_id,
        offers=tuple(offers),
        guarantor=guarantor,
        checks=tuple(checks),
        bandwidth_mbps=bandwidth_mbps,
        customer_key=customer.public_id.canonical(),
        signature=customer.sign(message),
    )


# ---------------------------------------------------------------------------
# Reservations
# ---------------------------------------------------------------------------

NOTIONAL = "notional"
ACTIVE = "active"
EXPIRED = "expired"
LAPSED = "lapsed"


@dataclass
class Reservation:
    reservation_id: str
    state: str
    isp_key: str
    segments: tuple[tuple[str, str, str], ...]  # (from_ne, to_ne, link_name)
    bandwidth_mbps: int
    start: int
    end: int
    customer_key: str
    qos_class: str = "reserved"
    next_payment_due: int | None = None
    offer_credential: Credential | None = None
    guarantor_credential: Credential | None = None

    @property
    def link_names(self) -> tuple[str, ...]:
        return tuple(name for _, _, name in self.segments)

    @property
    def deadline(self) -> int | None:
        """End, or an earlier keepalive due date; None once ended."""
        if self.state not in (NOTIONAL, ACTIVE):
            return None
        if self.next_payment_due is None:
            return self.end
        return min(self.end, self.next_payment_due)


@dataclass(frozen=True)
class BoundaryReferral:
    """Local outcome plus where the customer must negotiate next."""

    outcome: object  # Reservation (spot) or reservation Credential (futures)
    at_location: str
    next_isp_key: str
    next_ne_id: str
    remaining_offers: tuple[Credential, ...]


def make_reservation_credential(isp: KeyPair, res: Reservation) -> Credential:
    """Signed commitment redeemable alone at activation time; expires
    with the reserved period."""
    cred = conjunction(isp.public_id, res.customer_key, [
        pin("app_domain", APP_DOMAIN),
        pin("reservation_id", res.reservation_id),
        pin("link_names", ",".join(res.link_names)),
        Compare("bandwidth", "==", Literal("number", str(res.bandwidth_mbps)), True),
        pin("starts", text_of_instant(res.start)),
        pin("ends", text_of_instant(res.end)),
    ])
    return sign_credential(cred, isp)


def open_reservation_credential(cred: Credential) -> dict:
    """Pinned reservation fields, or raise BadSignature / ValueError."""
    if not verify_signature(cred):
        raise BadSignature("reservation credential failed signature verification")
    pinned = pins(cred)
    for required in ("reservation_id", "link_names", "starts", "ends"):
        if required not in pinned:
            raise ValueError(f"reservation credential lacks {required!r}")
    return {
        "reservation_id": pinned["reservation_id"],
        "link_names": tuple(pinned["link_names"].split(",")),
        "start": instant_from_text(pinned["starts"]),
        "end": instant_from_text(pinned["ends"]),
        "isp_key": cred.authorizer,
    }


# ---------------------------------------------------------------------------
# Policy decision point
# ---------------------------------------------------------------------------

@dataclass
class Pdp:
    """Verification service the NEs defer to; never touches NE state.
    NEs do no signature work themselves: challenge responses and
    purchase credentials verify here, reservation credentials in
    `open_reservation_credential`."""

    trusted_guarantors: list[str]

    def verify_request(self, req: ReservationRequest) -> bool:
        try:
            key = read_key_id(req.customer_key)[0]
            scheme = scheme_for_key(key)
        except Exception:
            return False
        message = request_message(
            req.challenge_id, req.offers, req.guarantor, req.checks, req.bandwidth_mbps
        )
        return scheme.verify(key, message, req.signature)

    def check_purchase(
        self,
        isp_key: str,
        offer_cred: Credential,
        guarantor: Credential,
        check_cred: Credential,
        bandwidth_mbps: int,
        date: str,
    ) -> tuple[Offer, ActionAttributeSet]:
        """Admission check for one (offer, check) pair of an offer run
        issued by `isp_key`. Raises PaymentRefused or
        UnbundlingProhibited; returns the derived offer and the purchase
        action the transaction record carries."""
        try:
            offer = derive_offer_fields(offer_cred)
        except MalformedOffer as exc:
            raise PaymentRefused(f"malformed offer: {exc}") from exc
        try:
            check = open_microcheck(check_cred)
        except ValueError as exc:
            raise PaymentRefused(f"malformed check: {exc}") from exc
        action = build_purchase_action(offer, bandwidth_mbps, check.amount, check.nonce, date)
        reason = payment_verdict(
            offer, check, guarantor, action, isp_key, self.trusted_guarantors, fresh=False
        )
        if reason == REASON_UNBUNDLING:
            if bandwidth_mbps > offer.bandwidth_mbps:
                raise UnbundlingProhibited(
                    f"offer advertises {offer.bandwidth_mbps}Mbps; "
                    f"{bandwidth_mbps} is more than advertised"
                )
            raise UnbundlingProhibited(
                f"offer sells {offer.bandwidth_mbps}Mbps whole; "
                f"{bandwidth_mbps} is part of a whole-only offer"
            )
        if reason is not None:
            raise PaymentRefused(f"payment refused: {reason}")
        return offer, action

    def check_keepalive(
        self,
        isp_key: str,
        guarantor: Credential,
        check_cred: Credential,
        price: Money,
        date: str,
    ) -> ActionAttributeSet:
        """Admission check for a keepalive check of at least `price`;
        raises PaymentRefused, returns the keepalive action."""
        try:
            check = open_microcheck(check_cred)
        except ValueError as exc:
            raise PaymentRefused(f"malformed check: {exc}") from exc
        if check.amount.cents < price.cents or check.currency != price.currency:
            raise PaymentRefused(f"keepalive requires {price}, got {check.amount}")
        action = build_keepalive_action(check.amount, check.nonce, date)
        reason = payment_verdict(
            None, check, guarantor, action, isp_key, self.trusted_guarantors, fresh=False
        )
        if reason is not None:
            raise PaymentRefused(f"keepalive refused: {reason}")
        return action


# ---------------------------------------------------------------------------
# Network elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Link:
    neighbor: str
    link_name: str
    capacity_mbps: int


_instant = itemgetter(0)


class LoadTimeline:
    """Committed load on one link as a sorted list of `(instant, delta)`
    events: `+mbps` where a row starts, `-mbps` where it ends, with the
    deltas alone in a parallel list. At one instant the ends sort before
    the starts, so no running sum inside one instant's events exceeds
    the load just before or just after that instant. Insert and delete
    are a bisect plus one list shift; a window query is two bisects and
    one scan of the deltas in C."""

    __slots__ = ("events", "deltas")

    def __init__(self) -> None:
        self.events: list[tuple[int, int]] = []
        self.deltas: list[int] = []

    def add(self, start: int, end: int, mbps: int) -> None:
        for event in ((start, mbps), (end, -mbps)):
            i = bisect_right(self.events, event)
            self.events.insert(i, event)
            self.deltas.insert(i, event[1])

    def drop(self, start: int, end: int, mbps: int) -> None:
        for event in ((start, mbps), (end, -mbps)):
            i = bisect_left(self.events, event)
            if i == len(self.events) or self.events[i] != event:
                raise ValueError(f"no load event {event} on the timeline")
            del self.events[i]
            del self.deltas[i]

    def peak(self, start: int, end: int) -> int:
        """Worst load over [start, end), for start < end: the load at
        `start`, then after each event instant inside the window."""
        i = bisect_right(self.events, start, key=_instant)
        j = bisect_left(self.events, end, key=_instant)
        return max(accumulate(self.deltas[i:j], initial=sum(self.deltas[:i])))


@dataclass
class NetworkElement:
    ne_id: str
    isp_name: str
    isp: KeyPair
    location: str
    pdp: Pdp
    fabric: "Fabric"
    rng: random.Random
    keepalive_period: int | None = None
    keepalive_price: Money | None = None
    links: dict[str, Link] = field(default_factory=dict)
    # Per outgoing link, reservation id -> Reservation for each segment
    # this NE carries: ACTIVE ones in active_rows, NOTIONAL ones in
    # calendar. Only _hold and _drop change them.
    active_rows: dict[str, dict[str, Reservation]] = field(default_factory=dict)
    calendar: dict[str, dict[str, Reservation]] = field(default_factory=dict)
    challenges: dict[str, Challenge] = field(default_factory=dict)
    used_challenges: set[str] = field(default_factory=set)
    outbox: list[TransactionRecord] = field(default_factory=list)
    # Admission index: the load of every held row that is not premium
    # best-effort, kept in step with the tables by _hold and _drop.
    timelines: dict[str, LoadTimeline] = field(default_factory=dict, repr=False)
    # Heaps of (deadline, reservation_id) per reservation this NE admitted,
    # activated or kept alive, and of (issued_at + ttl, challenge_id) per
    # issued challenge. A popped reservation entry whose deadline has
    # since moved, or a challenge already gone, is skipped.
    _deadlines: list[tuple[int, str]] = field(default_factory=list, init=False, repr=False)
    _challenge_ends: list[tuple[int, str]] = field(
        default_factory=list, init=False, repr=False
    )

    @functools.cached_property
    def isp_key(self) -> str:
        """The provider's canonical key id, rendered once: every
        reservation and record this NE makes holds the one string."""
        return self.isp.public_id.canonical()

    def add_link(self, neighbor: str, link_name: str, capacity_mbps: int) -> None:
        self.links[neighbor] = Link(neighbor, link_name, capacity_mbps)
        self.active_rows.setdefault(neighbor, {})
        self.calendar.setdefault(neighbor, {})
        self.timelines.setdefault(neighbor, LoadTimeline())

    # -- challenges ---------------------------------------------------------

    def issue_challenge(self, now: int) -> Challenge:
        """Fresh unpredictable single-use challenge, good for CHALLENGE_TTL."""
        challenge = Challenge(f"{self.rng.getrandbits(128):032x}", self.ne_id, now)
        self.challenges[challenge.challenge_id] = challenge
        heapq.heappush(self._challenge_ends, (now + CHALLENGE_TTL, challenge.challenge_id))
        return challenge

    def _prune_challenges(self, now: int) -> None:
        """Forget challenges past their ttl, redeemed or not. A pruned id
        is unknown, so redeeming it again is refused as expired."""
        ends = self._challenge_ends
        while ends and ends[0][0] < now:
            _deadline, challenge_id = heapq.heappop(ends)
            self.challenges.pop(challenge_id, None)
            self.used_challenges.discard(challenge_id)

    def _consume_challenge(self, challenge_id: str, now: int) -> None:
        if challenge_id in self.used_challenges:
            raise ReplayedChallenge(f"challenge {challenge_id[:8]} already redeemed")
        challenge = self.challenges.get(challenge_id)
        if challenge is None:
            raise ExpiredChallenge(f"challenge {challenge_id[:8]} unknown at {self.ne_id}")
        if now > challenge.issued_at + CHALLENGE_TTL:
            raise ExpiredChallenge(f"challenge {challenge_id[:8]} past its ttl")
        # Single use: one complete verification attempt, accept or refuse.
        self.used_challenges.add(challenge_id)
        del self.challenges[challenge_id]

    # -- capacity accounting --------------------------------------------------

    def _window_load(self, neighbor: str, start: int, end: int) -> int:
        """Worst-case committed load on the link over [start, end)."""
        return self.timelines[neighbor].peak(start, end)

    def _can_carry(self, neighbor: str, mbps: int, start: int, end: int) -> bool:
        link = self.links.get(neighbor)
        if link is None:
            return False
        return self._window_load(neighbor, start, end) + mbps <= link.capacity_mbps

    def _table(self, neighbor: str, res: Reservation) -> dict[str, Reservation]:
        return (self.calendar if res.state == NOTIONAL else self.active_rows)[neighbor]

    def _hold(self, neighbor: str, res: Reservation) -> None:
        """File the reservation on the link in the table of its state and
        charge it on the timeline unless it is premium best-effort."""
        rows = self._table(neighbor, res)
        if res.reservation_id in rows:
            return
        rows[res.reservation_id] = res
        if res.qos_class != QOS_PREMIUM:
            self.timelines[neighbor].add(res.start, res.end, res.bandwidth_mbps)

    def _drop(self, neighbor: str, res: Reservation) -> None:
        if self._table(neighbor, res).pop(res.reservation_id, None) is None:
            return
        if res.qos_class != QOS_PREMIUM:
            self.timelines[neighbor].drop(res.start, res.end, res.bandwidth_mbps)

    def _watch(self, res: Reservation) -> None:
        heapq.heappush(self._deadlines, (res.deadline, res.reservation_id))

    def free_capacity(self, neighbor: str) -> int:
        """Capacity not taken by the link's active reserved-class rows."""
        held = sum(
            r.bandwidth_mbps for r in self.active_rows[neighbor].values()
            if r.qos_class != QOS_PREMIUM
        )
        return self.links[neighbor].capacity_mbps - held

    # -- admission: spot and futures ----------------------------------------

    def handle_spot_request(
        self, req: ReservationRequest, now: int
    ) -> Reservation | BoundaryReferral:
        """Verify the challenge response, admit this provider's segments,
        and either finish (whole path inside this provider) or refer the
        customer to the next provider's ingress."""
        verified, segments, remaining = self._admit(req, now)
        offers = [offer for offer, *_ in verified]
        premium = all(o.qos_class == QOS_PREMIUM for o in offers)
        res = self._establish(
            req, verified, segments, now,
            state=ACTIVE,
            start=now,
            end=min(instant_from_text(o.valid_until) for o in offers),
            qos_class=QOS_PREMIUM if premium else "reserved",
            next_payment_due=(now + self.keepalive_period) if self.keepalive_period else None,
        )
        return self._referral(res, remaining)

    def book_future(
        self, req: ReservationRequest, interval: tuple[int, int], now: int
    ) -> Credential | BoundaryReferral:
        """Commit capacity for a future interval without installing any
        path; the returned signed credential alone redeems the booking."""
        start, end = interval
        if start <= now:
            raise OutsideInterval("booking interval must start in the future")
        if end <= start:
            raise OutsideInterval("booking interval is empty")
        verified, segments, remaining = self._admit(req, now)
        res = self._establish(req, verified, segments, now, state=NOTIONAL, start=start, end=end)
        credential = make_reservation_credential(self.isp, res)
        return self._referral(credential, remaining)

    def _admit(
        self, req: ReservationRequest, now: int
    ) -> tuple[list[tuple[Offer, Credential, ActionAttributeSet]],
               tuple[tuple[str, str, str], ...], tuple[Credential, ...]]:
        """Every check a purchase passes before any capacity is claimed,
        in the order the module docstring gives. Returns the verified
        (offer, check credential, purchase action) rows, the routed
        segments and the offers left for later providers."""
        self._consume_challenge(req.challenge_id, now)
        if not self.pdp.verify_request(req):
            raise PaymentRefused("request signature does not verify")
        if not req.offers:
            raise PaymentRefused("request carries no offers")
        i = 0
        while i < len(req.offers) and req.offers[i].authorizer == self.isp_key:
            i += 1
        if i == 0:
            raise PaymentRefused("no offers for this provider at the head of the path")
        run, remaining = req.offers[:i], req.offers[i:]
        if len(req.checks) != len(run):
            raise PaymentRefused(
                f"expected one check per local offer ({len(run)}), got {len(req.checks)}"
            )
        date = date_of_instant(now)
        verified = []
        for offer_cred, check_cred in zip(run, req.checks):
            offer, action = self.pdp.check_purchase(
                self.isp_key, offer_cred, req.guarantor, check_cred,
                req.bandwidth_mbps, date,
            )
            verified.append((offer, check_cred, action))
        if verified[0][0].link_from != self.location:
            raise PaymentRefused(
                f"path starts at {verified[0][0].link_from}, not at this ingress"
            )
        for (a, *_), (b, *_) in zip(verified, verified[1:]):
            if a.link_to != b.link_from:
                raise PaymentRefused(
                    f"offers do not chain: {a.link_name} then {b.link_name}"
                )
        segments = tuple(
            segment for offer, *_ in verified
            for segment in self.fabric.route(self.isp_name, offer)
        )
        return verified, segments, remaining

    def _establish(
        self,
        req: ReservationRequest,
        verified: list[tuple[Offer, Credential, ActionAttributeSet]],
        segments: tuple[tuple[str, str, str], ...],
        now: int,
        *,
        state: str,
        start: int,
        end: int,
        qos_class: str = "reserved",
        next_payment_due: int | None = None,
    ) -> Reservation:
        """Claim capacity for an admitted request, register the
        reservation, and queue one transaction record per paid offer."""
        res = Reservation(
            reservation_id=f"res-{self.rng.getrandbits(64):016x}",
            state=state,
            isp_key=self.isp_key,
            segments=segments,
            bandwidth_mbps=req.bandwidth_mbps,
            start=start,
            end=end,
            customer_key=req.customer_key,
            qos_class=qos_class,
            next_payment_due=next_payment_due,
            offer_credential=verified[0][0].credential,
            guarantor_credential=req.guarantor,
        )
        self._claim(res)
        self.fabric.register(res)
        date = date_of_instant(now)
        for offer, check_cred, action in verified:
            self.outbox.append(
                TransactionRecord(
                    offer=offer.credential,
                    microcheck=check_cred,
                    guarantor=req.guarantor,
                    action=action,
                    merchant_key=self.isp_key,
                    received_at=date,
                )
            )
        return res

    def _referral(
        self, outcome: Reservation | Credential, remaining: tuple[Credential, ...]
    ) -> Reservation | Credential | BoundaryReferral:
        """The outcome itself when the path ends inside this provider,
        else a referral to the next provider's ingress."""
        if not remaining:
            return outcome
        at = derive_offer_fields(remaining[0]).link_from
        next_isp, next_ne = self.fabric.ingress(remaining[0].authorizer, at)
        return BoundaryReferral(outcome, at, next_isp, next_ne, remaining)

    def _claim(self, res: Reservation) -> None:
        """Hold the reservation on every segment NE or on none of them:
        the first link that cannot carry it releases what the earlier
        segments took. Premium best-effort rows are neither checked nor
        charged; bookings are always reserved-class."""
        for from_ne, to_ne, _name in res.segments:
            ne = self.fabric.ne(from_ne)
            if res.qos_class != QOS_PREMIUM and not ne._can_carry(
                to_ne, res.bandwidth_mbps, res.start, res.end
            ):
                self._release(res)
                if res.state == NOTIONAL:
                    raise CapacityExhausted(
                        f"future interval oversubscribed on {from_ne}->{to_ne}"
                    )
                raise CapacityExhausted(
                    f"link {from_ne}->{to_ne} cannot carry {res.bandwidth_mbps}Mbps"
                )
            ne._hold(to_ne, res)
        self._watch(res)

    def _release(self, res: Reservation) -> None:
        """Drop the reservation's rows, in the table of its current state,
        on every segment NE; a segment that holds none is left as it is."""
        for from_ne, to_ne, _name in res.segments:
            self.fabric.ne(from_ne)._drop(to_ne, res)

    def _own(self, reservation_id: str, state: str) -> Reservation:
        """This provider's reservation in the given state, whichever of
        its NEs is asked; UnknownReservation otherwise."""
        res = self.fabric.reservations.get(reservation_id)
        if res is None or res.state != state or res.isp_key != self.isp_key:
            raise UnknownReservation(reservation_id)
        return res

    def activate_reservation(self, cred: Credential, now: int) -> Reservation:
        """Install the booked path. A committed booking activates
        unconditionally: its capacity was charged when it was booked."""
        fields = open_reservation_credential(cred)  # BadSignature on tamper
        if fields["isp_key"] != self.isp_key:
            raise UnknownReservation(fields["reservation_id"])
        res = self._own(fields["reservation_id"], NOTIONAL)
        if not fields["start"] <= now < fields["end"]:
            raise OutsideInterval(
                f"activation at {now} outside [{res.start}, {res.end})"
            )
        self._release(res)
        res.state = ACTIVE
        if self.keepalive_period:
            res.next_payment_due = now + self.keepalive_period
        for from_ne, to_ne, _name in res.segments:
            self.fabric.ne(from_ne)._hold(to_ne, res)
        self._watch(res)
        return res

    # -- keepalive and expiry -----------------------------------------------

    def keepalive_payment(self, reservation_id: str, check: Credential, now: int) -> int:
        """A verified periodic check pushes the payment due date out one
        period and queues the record for deposit."""
        res = self._own(reservation_id, ACTIVE)
        if res.next_payment_due is None or self.keepalive_price is None:
            raise PaymentRefused("reservation is not payment-metered")
        if res.guarantor_credential is None:
            raise PaymentRefused("no guarantor credential on file")
        date = date_of_instant(now)
        action = self.pdp.check_keepalive(
            self.isp_key, res.guarantor_credential, check, self.keepalive_price, date
        )
        res.next_payment_due += self.keepalive_period
        self._watch(res)
        self.outbox.append(
            TransactionRecord(
                offer=res.offer_credential,
                microcheck=check,
                guarantor=res.guarantor_credential,
                action=action,
                merchant_key=self.isp_key,
                received_at=date,
            )
        )
        return res.next_payment_due

    def expire_reservations(self, now: int) -> int:
        """End each reservation whose deadline on this NE's heap has come,
        `lapsed` if the keepalive fell due before the end, else `expired`;
        returns how many. A clock set back finds nothing left to revive."""
        count = 0
        deadlines = self._deadlines
        while deadlines and deadlines[0][0] <= now:
            deadline, res_id = heapq.heappop(deadlines)
            res = self.fabric.reservations.get(res_id)
            if res is None or res.deadline != deadline:
                continue
            self._teardown(res, LAPSED if deadline < res.end else EXPIRED)
            count += 1
        self._prune_challenges(now)
        return count

    def _teardown(self, res: Reservation, new_state: str) -> None:
        self._release(res)
        res.state = new_state

    def teardown(self, reservation_id: str, customer_key: str) -> bool:
        """Customer-requested release (partial-establishment rollback)."""
        res = self.fabric.reservations.get(reservation_id)
        if res is None or res.customer_key != customer_key or res.isp_key != self.isp_key:
            raise UnknownReservation(reservation_id)
        if res.state not in (ACTIVE, NOTIONAL):
            return False
        self._teardown(res, EXPIRED)
        return True


# ---------------------------------------------------------------------------
# Fabric: topology, routing, registry
# ---------------------------------------------------------------------------

class TopologyError(Exception):
    pass


@dataclass(frozen=True)
class TopologySpec:
    nes: tuple[tuple[str, str, str], ...]  # (isp_name, ne_id, location)
    links: tuple[tuple[str, str, str, int], ...]  # (ne_a, ne_b, link_name, capacity)


def parse_topology(text: str) -> TopologySpec:
    """Textual table: `ne <isp> <ne_id> <location>` and
    `link <ne_a> <ne_b> <link_name> <capacity_mbps>` lines."""
    nes: list[tuple[str, str, str]] = []
    links: list[tuple[str, str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "ne" and len(parts) == 4:
            nes.append((parts[1], parts[2], parts[3]))
        elif parts[0] == "link" and len(parts) == 5:
            try:
                cap = int(parts[4])
            except ValueError:
                raise TopologyError(f"line {lineno}: capacity must be an integer")
            links.append((parts[1], parts[2], parts[3], cap))
        else:
            raise TopologyError(f"line {lineno}: unrecognized topology line {raw!r}")
    return TopologySpec(tuple(nes), tuple(links))


class Fabric:
    """All NEs of all providers plus the location directory. Each NE is
    its own state machine; the fabric only routes lookups between them."""

    def __init__(self, pdp: Pdp):
        self.pdp = pdp
        self.nes: dict[str, NetworkElement] = {}
        self.reservations: dict[str, Reservation] = {}
        self._isp_names: dict[str, str] = {}  # isp_key -> isp_name

    @classmethod
    def build(
        cls,
        spec: TopologySpec,
        isp_keys: dict[str, KeyPair],
        pdp: Pdp,
        rng_seed: int | None = None,
        keepalive: dict[str, tuple[int, Money]] | None = None,
    ) -> "Fabric":
        fabric = cls(pdp)
        keepalive = keepalive or {}
        for isp_name, ne_id, location in spec.nes:
            if isp_name not in isp_keys:
                raise TopologyError(f"topology names unknown provider {isp_name!r}")
            if ne_id in fabric.nes:
                raise TopologyError(f"duplicate ne id {ne_id!r}")
            if rng_seed is None:
                rng = random.SystemRandom()
            else:
                rng = random.Random(f"{rng_seed}:{ne_id}")
            period, price = keepalive.get(isp_name, (None, None))
            ne = NetworkElement(
                ne_id=ne_id,
                isp_name=isp_name,
                isp=isp_keys[isp_name],
                location=location,
                pdp=pdp,
                fabric=fabric,
                rng=rng,
                keepalive_period=period,
                keepalive_price=price,
            )
            fabric.nes[ne_id] = ne
            fabric._isp_names[ne.isp_key] = isp_name
        for ne_a, ne_b, link_name, capacity in spec.links:
            if ne_a not in fabric.nes or ne_b not in fabric.nes:
                raise TopologyError(f"link names unknown ne: {ne_a} or {ne_b}")
            fabric.nes[ne_a].add_link(ne_b, link_name, capacity)
            fabric.nes[ne_b].add_link(ne_a, link_name, capacity)
        return fabric

    def ne(self, ne_id: str) -> NetworkElement:
        if ne_id not in self.nes:
            raise TopologyError(f"unknown ne {ne_id!r}")
        return self.nes[ne_id]

    def register(self, res: Reservation) -> None:
        self.reservations[res.reservation_id] = res

    def ingress(self, isp_key: str, location: str) -> tuple[str, str]:
        """The named provider's NE at a location (directory lookup)."""
        for ne_id in sorted(self.nes):
            ne = self.nes[ne_id]
            if ne.isp_key == isp_key and ne.location == location:
                return isp_key, ne_id
        raise TopologyError(f"no ingress for provider at {location!r}")

    def route(self, isp_name: str, offer: Offer) -> list[tuple[str, str, str]]:
        """Segments between the offer's endpoints inside one provider:
        the offer's pinned route when present, else hop-count shortest
        path over the provider's NE graph (deterministic by ne id)."""
        members = {
            ne_id: ne for ne_id, ne in self.nes.items() if ne.isp_name == isp_name
        }
        if offer.path_hint:
            hops = list(offer.path_hint)
            for a, b in zip(hops, hops[1:]):
                if a not in members or b not in members[a].links:
                    raise TopologyError(f"path hint {offer.path_hint} is not routable")
            if members[hops[0]].location != offer.link_from or (
                members[hops[-1]].location != offer.link_to
            ):
                raise TopologyError("path hint does not join the offer endpoints")
            return [
                (a, b, members[a].links[b].link_name) for a, b in zip(hops, hops[1:])
            ]
        sources = sorted(
            ne_id for ne_id, ne in members.items() if ne.location == offer.link_from
        )
        targets = {
            ne_id for ne_id, ne in members.items() if ne.location == offer.link_to
        }
        if not sources or not targets:
            raise TopologyError(
                f"provider {isp_name} does not reach {offer.link_from}-{offer.link_to}"
            )
        start = sources[0]
        parent: dict[str, str | None] = {start: None}
        queue = [start]
        found = None
        while queue:
            current = queue.pop(0)
            if current in targets:
                found = current
                break
            for neighbor in sorted(members[current].links):
                if neighbor in members and neighbor not in parent:
                    parent[neighbor] = current
                    queue.append(neighbor)
        if found is None:
            raise TopologyError(
                f"no internal route {offer.link_from}->{offer.link_to} in {isp_name}"
            )
        path = [found]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()
        return [
            (a, b, members[a].links[b].link_name) for a, b in zip(path, path[1:])
        ]

    def expire_all(self, now: int) -> int:
        return sum(self.nes[ne_id].expire_reservations(now) for ne_id in sorted(self.nes))

    def flush_records(self, isp_name: str | None = None) -> list[TransactionRecord]:
        """Drain queued transaction records, deterministically by ne id."""
        out: list[TransactionRecord] = []
        for ne_id in sorted(self.nes):
            ne = self.nes[ne_id]
            if isp_name is not None and ne.isp_name != isp_name:
                continue
            out.extend(ne.outbox)
            ne.outbox.clear()
        return out


def capacity_violations(fabric: Fabric) -> list[str]:
    """Full-state audit: recompute loads from the reservation tables and
    report any link/instant over capacity, or an admission timeline that
    differs from the events the tables imply. An empty list is a clean
    audit."""
    problems: list[str] = []
    for ne_id in sorted(fabric.nes):
        ne = fabric.nes[ne_id]
        for neighbor, link in ne.links.items():
            intervals = [
                (r.start, r.end, r.bandwidth_mbps)
                for table in (ne.active_rows, ne.calendar)
                for r in table[neighbor].values() if r.qos_class != QOS_PREMIUM
            ]
            events = sorted(
                event for s, e, m in intervals for event in ((s, m), (e, -m))
            )
            timeline = ne.timelines[neighbor]
            if timeline.events != events or timeline.deltas != [d for _, d in events]:
                problems.append(
                    f"{ne_id}->{neighbor}: load timeline differs from the tables "
                    f"({len(timeline.events)} events, {len(events)} expected)"
                )
            for t in sorted({s for s, _, _ in intervals}):
                load = sum(m for s, e, m in intervals if s <= t < e)
                if load > link.capacity_mbps:
                    problems.append(
                        f"{ne_id}->{neighbor}: load {load} exceeds "
                        f"capacity {link.capacity_mbps} at {t}"
                    )
    return problems
