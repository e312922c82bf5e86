"""The clearing house: a passive repository of offer credentials and a
path composer over them.

The store is a pure function of the posted credentials and the clock,
so any number of clearing-house instances fed the same postings and
ticks serve identical results. It never signs anything and holds no
money. An offer is live while today < valid_until: posting refuses an
offer on or after the day its validity bound names, and a tick to that
day expires it.

The store is indexed three ways, all written under one lock:
  rows    per link (link_from -> link_to), an immutable tuple of
          (unit price, offer id, offer) in ascending order; the unit
          price is the exact Fraction(min_price cents, bandwidth),
          computed once at post
  expiry  a heap of (valid_until, offer id)
  ids     offer id -> offer, for `get`, `len` and idempotent posts

A post is a bisect into one row plus a copy of that row and of its
node's outgoing map; a tick pops the heap, so it costs the offers it
expires and nothing when none do; a query walks the row of each link it
reaches until the stop rule in `compose_path` ends it.

Snapshot guarantee: a write never changes a published row or outgoing
map; it publishes fresh ones for the one node it touches. A reader
therefore sees each row whole, as it stood at some instant of its call.
A query that runs while writes land may see them on some links and not
on others: every offer it serves was in the store during the call, and
every plan it returns validates.
"""

from __future__ import annotations

import heapq
import threading
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction

from .credentials import Credential
from .money import Money, is_date
from .offers import Offer, open_offer, validate_unbundling

Row = tuple[tuple[Fraction, str, Offer], ...]


class Expired(Exception):
    """Offer posted at or after its validity bound."""


class NoPath(Exception):
    """No eligible offer sequence connects the requested endpoints."""


@dataclass(frozen=True)
class OfferQuery:
    link_from: str
    link_to: str
    min_bandwidth_mbps: int
    needed_on: str  # YYYYMMDD the capacity must be purchasable
    max_total_price: Money | None = None
    currency: str = "USD"

    def __post_init__(self) -> None:
        if self.min_bandwidth_mbps <= 0:
            raise ValueError("min_bandwidth_mbps must be positive")
        if not is_date(self.needed_on):
            raise ValueError(f"needed_on must be a YYYYMMDD date, got {self.needed_on!r}")
        if self.max_total_price is not None:
            object.__setattr__(self, "currency", self.max_total_price.currency)


@dataclass(frozen=True)
class PathPlan:
    segments: tuple[tuple[Offer, int], ...]  # (offer, purchased_mbps) per hop
    total_price: Money

    def validate(self) -> "PathPlan":
        if not self.segments:
            raise ValueError("a path plan has at least one segment")
        purchased = {m for _, m in self.segments}
        if len(purchased) != 1:
            raise ValueError("purchased bandwidth must be constant along the plan")
        total = 0
        for (offer, mbps), nxt in zip(self.segments, self.segments[1:] + ((None, 0),)):
            if mbps > offer.bandwidth_mbps:
                raise ValueError("purchase exceeds offered bandwidth")
            if nxt[0] is not None and offer.link_to != nxt[0].link_from:
                raise ValueError("consecutive offers do not share an endpoint")
            if offer.min_price.currency != self.total_price.currency:
                raise ValueError("plan mixes currencies")
            total += offer.prorated_price(mbps).cents
        if total != self.total_price.cents:
            raise ValueError("total price does not match the segment sum")
        return self


class ClearingHouse:
    def __init__(self) -> None:
        self._links: dict[str, dict[str, Row]] = {}  # link_from -> link_to -> row
        self._expiry: list[tuple[str, str]] = []
        self._ids: dict[str, Offer] = {}
        self._write_lock = threading.Lock()

    def post_offer(self, cred: Credential, now: str) -> Offer:
        """Verify, derive, and store an offer. Idempotent on identical
        credentials; raises BadSignature / MalformedOffer / Expired."""
        offer = open_offer(cred)
        if offer.valid_until <= now:
            raise Expired(f"offer expired {offer.valid_until}, posting at {now}")
        entry = (Fraction(offer.min_price.cents, offer.bandwidth_mbps), offer.offer_id, offer)
        with self._write_lock:
            if offer.offer_id not in self._ids:
                row = self._links.get(offer.link_from, {}).get(offer.link_to, ())
                at = bisect(row, entry)  # ids are unique, so offers are never compared
                self._publish(offer.link_from, offer.link_to, row[:at] + (entry,) + row[at:])
                heapq.heappush(self._expiry, (offer.valid_until, offer.offer_id))
                self._ids[offer.offer_id] = offer
        return offer

    def __len__(self) -> int:
        return len(self._ids)

    def get(self, offer_id: str) -> Offer | None:
        return self._ids.get(offer_id)

    def _publish(self, link_from: str, link_to: str, row: Row) -> None:
        """Replace one row, copying only its node's outgoing map: a
        published row or map is never changed, so readers need no lock."""
        out = dict(self._links.get(link_from, {}))
        if row:
            out[link_to] = row
        else:
            del out[link_to]
        if out:
            self._links[link_from] = out
        else:
            del self._links[link_from]

    def _eligible(self, offer: Offer, q: OfferQuery) -> bool:
        if offer.valid_until <= q.needed_on:
            return False
        if offer.min_price.currency != q.currency:
            return False
        if offer.bandwidth_mbps < q.min_bandwidth_mbps:
            return False
        return validate_unbundling(offer, q.min_bandwidth_mbps)

    def query_offers(self, q: OfferQuery) -> list[Offer]:
        """Eligible offers on the queried link, cheapest first at the
        requested bandwidth (prorated price), ties by offer id. With a
        price cap the row walk stops at the first offer above it: the
        prorated price never falls along a row (see `compose_path`)."""
        mbps = q.min_bandwidth_mbps
        cap = q.max_total_price.cents if q.max_total_price is not None else None
        found = []
        for _unit, offer_id, offer in self._links.get(q.link_from, {}).get(q.link_to, ()):
            price = offer.prorated_price(mbps).cents
            if cap is not None and price > cap:
                break
            if self._eligible(offer, q):
                found.append((price, offer_id, offer))
        found.sort()  # nearly sorted already; ids are unique
        return [offer for _, _, offer in found]

    def expire_offers(self, now: str) -> int:
        """Drop offers that are no longer live (valid_until <= now);
        returns the count."""
        with self._write_lock:
            gone: dict[tuple[str, str], set[str]] = {}
            while self._expiry and self._expiry[0][0] <= now:
                offer = self._ids.pop(heapq.heappop(self._expiry)[1])
                gone.setdefault((offer.link_from, offer.link_to), set()).add(offer.offer_id)
            for (link_from, link_to), ids in gone.items():
                row = self._links[link_from][link_to]
                self._publish(link_from, link_to, tuple(e for e in row if e[1] not in ids))
            return sum(map(len, gone.values()))

    def _cheapest(self, row: Row, q: OfferQuery) -> tuple[int, str, Offer] | None:
        """The least (prorated price, offer id) eligible offer of a row."""
        mbps = q.min_bandwidth_mbps
        best = None
        for _unit, offer_id, offer in row:
            price = offer.prorated_price(mbps).cents
            if best is not None and price > best[0]:
                break
            if self._eligible(offer, q) and (best is None or (price, offer_id) < best[:2]):
                best = (price, offer_id, offer)
        return best

    def compose_path(self, q: OfferQuery) -> PathPlan:
        """Minimum-total-price plan over the offer graph (nodes are
        locations, edges are eligible offers), price ties broken by the
        lexicographic offer-id sequence. The purchased bandwidth is
        constant along the plan; feasibility is edge-local because
        bandwidth does not add up along a path. Raises NoPath when the
        endpoints cannot be connected (or only above max_total_price).

        Only one edge per link enters the search: the eligible offer
        with the least (prorated price, offer id), found by walking the
        link's row in unit-price order until this stop rule ends it.

        - Stop rule. For a purchase of m Mbps an offer of c cents for
          b Mbps costs ceil(c·m/b) = ceil((c/b)·m), which never falls
          as the unit price c/b rises. Once an offer's prorated price
          exceeds the best eligible price found so far, every later
          offer of the row, eligible or not, costs at least as much, so
          none can win. Offers whose unit prices differ but round to
          the same prorated price do not stop the walk: a later one may
          carry a smaller id.
        - One edge per link suffices. A parallel offer with a larger
          (price, id) never lies on the least (price, id-sequence)
          plan: swapping in the better offer of the same link keeps the
          node sequence, and either lowers the total price, or keeps it
          and lowers the id sequence at that hop with the prefix
          unchanged.

        A node already settled is not expanded again: every edge
        costs at least one minor unit, so a later candidate for it is
        worse than the (price, ids) it was settled with."""
        if q.link_from == q.link_to:
            raise NoPath("degenerate query: identical endpoints")
        links = self._links
        best: dict[str, tuple[int, tuple[str, ...]]] = {}
        heap: list[tuple[int, tuple[str, ...], str, tuple]] = [
            (0, (), q.link_from, ())
        ]
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
            for nxt, row in links.get(node, {}).items():
                if nxt in best:
                    continue
                edge = self._cheapest(row, q)
                if edge is not None:
                    edge_price, offer_id, offer = edge
                    heapq.heappush(
                        heap, (price + edge_price, ids + (offer_id,), nxt, segs + (offer,))
                    )
        raise NoPath(f"no offer path from {q.link_from} to {q.link_to}")
