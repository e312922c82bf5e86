"""The customer-side QoS negotiation agent.

The agent talks only through a transport (in-process bus or sockets):
it collects a plan from the clearing house, verifies every credential it
is about to pay against, then walks the plan provider by provider —
challenge, checks, reservation request — following boundary referrals
until the last hop. It pays exactly the pro-rated price (tip zero) and
never signs a challenge response over credentials it has not verified.
"""

from __future__ import annotations

import base64
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from .credentials import BadSignature, Credential, parse_credential, verify_signature
from .envelope import Envelope, ProtocolError
from .fabric import open_reservation_credential, sign_reservation_request
from .keys import KeyPair
from .market import NoPath
from .money import Money, date_of_instant
from .offers import Offer, open_offer
from .payments import Wallet
from .services import ERROR_CODES, Transport

# The first class ERROR_CODES names for each code, so that `error_code`
# reads a raised reply back as the code the role sent.
_ERRORS_BY_CODE = {code: cls for cls, code in reversed(ERROR_CODES.items())}


def raise_for_error(reply: Envelope) -> Envelope:
    if reply.msg_type != "ERROR":
        return reply
    code = reply.get("code") or "internal"
    detail = reply.get("detail") or code
    raise _ERRORS_BY_CODE.get(code, ProtocolError)(detail)


class PartialEstablishment(Exception):
    """A later provider refused after earlier ones were established; the
    earlier segments were released. Carries what was rolled back."""

    def __init__(self, released: list[dict], cause: Exception):
        self.released = released
        self.cause = cause
        super().__init__(f"{cause} (released {len(released)} provider segment(s))")


@dataclass(frozen=True)
class LegHandle:
    """One provider's slice of an end-to-end purchase."""

    reservation_id: str
    isp_key: str
    ne_id: str
    state: str
    links: tuple[str, ...]
    start: int
    end: int


@dataclass(frozen=True)
class PurchaseHandle:
    legs: tuple[LegHandle, ...]
    bandwidth_mbps: int
    total_price: Money


@dataclass
class QnaSession:
    customer: KeyPair
    wallet: Wallet
    transport: Transport
    rng: random.Random = field(default_factory=random.Random)
    booking_ne: dict[str, str] = field(default_factory=dict)  # reservation_id -> ne_id

    def __post_init__(self) -> None:
        # The agent never signs over credentials it has not verified,
        # its own guarantor credential included.
        cwc = self.wallet.guarantor_credential
        if cwc is not None and not verify_signature(cwc):
            raise BadSignature("guarantor credential failed signature verification")

    @property
    def customer_key(self) -> str:
        return self.customer.public_id.canonical()

    # -- plan collection ------------------------------------------------------

    def _collect_plan(self, link_from: str, link_to: str, bandwidth: int,
                      needed_on: str, currency: str) -> tuple[list[Offer], Money]:
        reply = raise_for_error(
            self.transport.send(
                "ch",
                "COMPOSE",
                {
                    "from": link_from,
                    "to": link_to,
                    "bandwidth": str(bandwidth),
                    "needed_on": needed_on,
                    "currency": currency,
                },
            )
        )
        offers = []
        for block in reply.numbered_blocks("offer"):
            # Verify before ever signing anything that references it.
            offers.append(open_offer(parse_credential(block.decode("utf-8"))))
        if not offers:
            raise NoPath("clearing house returned an empty plan")
        return offers, Money(int(reply.require("price")), reply.require("currency"))

    @staticmethod
    def _provider_runs(offers: list[Offer]) -> list[list[Offer]]:
        runs: list[list[Offer]] = []
        for offer in offers:
            if runs and runs[-1][0].isp_key == offer.isp_key:
                runs[-1].append(offer)
            else:
                runs.append([offer])
        return runs

    def _ingress(self, isp_key: str, location: str) -> str:
        reply = raise_for_error(
            self.transport.send(
                "isp", "DIRECTORY", {"isp_key": isp_key, "location": location}
            )
        )
        return reply.require("ne_id")

    def _nonce(self) -> str:
        return f"{self.rng.getrandbits(64):016x}"

    def _negotiate_leg(
        self,
        msg_type: str,
        ne_id: str,
        run: list[Offer],
        remaining: list[Offer],
        bandwidth: int,
        now: int,
        extra_fields: dict[str, str],
    ) -> Envelope:
        """One provider round: challenge, pro-rated checks, signed request."""
        challenge = raise_for_error(
            self.transport.send("isp", "CHALLENGE-REQ", {"to": ne_id})
        )
        date = date_of_instant(now)
        checks = []
        for offer in run:
            price = offer.prorated_price(bandwidth)  # tip is zero by policy
            checks.append(
                self.wallet.write_check(offer.isp_key, price, self._nonce(), date)
            )
        plan_creds = tuple(o.credential for o in run + remaining)
        request = sign_reservation_request(
            self.customer,
            challenge.require("challenge_id"),
            plan_creds,
            self.wallet.guarantor_credential,
            tuple(checks),
            bandwidth,
        )
        fields = {
            "to": ne_id,
            "challenge_id": request.challenge_id,
            "bandwidth": str(bandwidth),
            "customer_key": request.customer_key,
            "signature": base64.b64encode(request.signature).decode("ascii"),
        }
        fields.update(extra_fields)
        blocks: dict[str, bytes] = {
            f"offer{i:03d}": c.text().encode("utf-8") for i, c in enumerate(plan_creds)
        }
        blocks["guarantor"] = self.wallet.guarantor_credential.text().encode("utf-8")
        for i, check in enumerate(checks):
            blocks[f"check{i:03d}"] = check.text().encode("utf-8")
        return raise_for_error(self.transport.send("isp", msg_type, fields, blocks))

    def _rollback(self, legs: list[LegHandle]) -> list[dict]:
        released = []
        for leg in legs:
            self.transport.send(
                "isp",
                "TEARDOWN-NOTIFY",
                {
                    "to": leg.ne_id,
                    "reservation_id": leg.reservation_id,
                    "customer_key": self.customer_key,
                },
            )
            released.append({"isp_key": leg.isp_key, "reservation_id": leg.reservation_id})
        return released

    def _walk_legs(self, msg_type: str, offers: list[Offer], bandwidth: int, now: int,
                   extra_fields: dict[str, str],
                   leg_of: Callable[[Envelope, str], LegHandle]) -> list[LegHandle]:
        """Negotiate the plan provider by provider from the first
        ingress, following boundary referrals. `leg_of(reply, ne_id)`
        turns each provider's reply into its leg; a refusal after the
        first leg releases the earlier ones (PartialEstablishment)."""
        runs = self._provider_runs(offers)
        legs: list[LegHandle] = []
        ne_id = self._ingress(runs[0][0].isp_key, runs[0][0].link_from)
        for i, run in enumerate(runs):
            remaining = [o for r in runs[i + 1 :] for o in r]
            try:
                reply = self._negotiate_leg(
                    msg_type, ne_id, run, remaining, bandwidth, now, extra_fields
                )
            except Exception as exc:
                if legs:
                    raise PartialEstablishment(self._rollback(legs), exc) from exc
                raise
            legs.append(leg_of(reply, ne_id))
            if reply.msg_type == "BOUNDARY-REFERRAL":
                ne_id = reply.require("next_ne_id")
            elif remaining:
                raise ProtocolError("provider finished early with offers remaining")
        return legs

    @staticmethod
    def _leg(reply: Envelope, ne_id: str) -> LegHandle:
        """The leg a RESERVED, BOUNDARY-REFERRAL or ACTIVATED reply names."""
        return LegHandle(
            reservation_id=reply.require("reservation_id"),
            isp_key=reply.require("isp_key"),
            ne_id=ne_id,
            state=reply.require("state"),
            links=tuple(reply.require("links").split(",")),
            start=int(reply.require("start")),
            end=int(reply.require("end")),
        )

    # -- spot -----------------------------------------------------------------

    def purchase_spot(self, link_from: str, link_to: str, bandwidth: int, now: int,
                      currency: str = "USD") -> PurchaseHandle:
        """Compose, pay, and establish an end-to-end path right now."""
        offers, total = self._collect_plan(
            link_from, link_to, bandwidth, date_of_instant(now), currency
        )
        legs = self._walk_legs("RESERVE-SPOT", offers, bandwidth, now, {}, self._leg)
        return PurchaseHandle(tuple(legs), bandwidth, total)

    # -- futures ----------------------------------------------------------------

    def purchase_future(self, link_from: str, link_to: str, bandwidth: int,
                        interval: tuple[int, int], now: int,
                        currency: str = "USD") -> list[Credential]:
        """Book capacity for a future interval; no path is installed.
        Returns one reservation credential per provider."""
        offers, _ = self._collect_plan(
            link_from, link_to, bandwidth, date_of_instant(now), currency
        )
        creds: list[Credential] = []

        def booked(reply: Envelope, ne_id: str) -> LegHandle:
            cred = parse_credential(reply.block("credential").decode("utf-8"))
            fields = open_reservation_credential(cred)
            creds.append(cred)
            self.booking_ne[fields["reservation_id"]] = ne_id
            return LegHandle(fields["reservation_id"], fields["isp_key"], ne_id, "notional",
                             fields["link_names"], fields["start"], fields["end"])

        extra = {"start": str(interval[0]), "end": str(interval[1])}
        self._walk_legs("BOOK-FUTURE", offers, bandwidth, now, extra, booked)
        return creds

    def activate(self, creds: list[Credential], now: int) -> PurchaseHandle:
        """Redeem reservation credentials, one provider at a time."""
        legs: list[LegHandle] = []
        bandwidth = None
        for cred in creds:
            fields = open_reservation_credential(cred)
            ne_id = self.booking_ne.get(fields["reservation_id"])
            if ne_id is None:
                head = fields["link_names"][0].rpartition("-")[0]
                ne_id = self._ingress(fields["isp_key"], head)
            reply = raise_for_error(
                self.transport.send(
                    "isp",
                    "ACTIVATE",
                    {"to": ne_id},
                    {"credential": cred.text().encode("utf-8")},
                )
            )
            bandwidth = int(reply.require("bandwidth"))
            legs.append(self._leg(reply, ne_id))
        return PurchaseHandle(tuple(legs), bandwidth or 0, Money(0))

    def keepalive(self, leg: LegHandle, price: Money, now: int) -> int:
        check = self.wallet.write_check(
            leg.isp_key, price, self._nonce(), date_of_instant(now)
        )
        reply = raise_for_error(
            self.transport.send(
                "isp",
                "KEEPALIVE",
                {"to": leg.ne_id, "reservation_id": leg.reservation_id},
                {"check": check.text().encode("utf-8")},
            )
        )
        return int(reply.require("next_due"))
