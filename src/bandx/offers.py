"""Offer credentials: the marketable link segment and its single source
of truth, the credential's conditions.

Structured offer fields are *derived* from the conditions, never stored
alongside them, so a tampered or inconsistent credential cannot disagree
with what the market serves. The schema:

  required  link_name == "<from>-<to>"      endpoints, split on the last hyphen
  required  &bandwidth <= "<B>Mbps"         advertised capacity, un-bundling allowed
        or  &bandwidth == <B>               exact purchase only (un-bundling prohibited)
  required  &amount >= <floor>              compliance floor on the paid amount
  required  date < "<YYYYMMDD>"             offer validity (exclusive)
  optional  currency == "<code>"            default USD
  optional  min_price == "<D.CC>"           advertised full price, see below
  optional  qos_class == "premium_best_effort"
  optional  path_hint == "<ne,ne,...>"

Pricing: the advertised full price buys the full bandwidth; a smaller
purchase of an un-bundlable offer costs the linear pro-rata share,
rounded up to a minor unit. The condition grammar cannot express a
price that scales with bandwidth, so offers built here with un-bundling
allowed pin the full price in `min_price` and set the `&amount` floor to
the 1 Mbps pro-rata price; the exact per-size floor is enforced
structurally at admission and again at settlement. Offers without the
pin advertise the floor itself as the full price.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal

from .credentials import (
    BadSignature,
    Compare,
    Credential,
    Literal,
    conjunction,
    conjuncts,
    credential_id,
    pin,
    sign_credential,
    verify_signature,
)
from .keys import KeyPair
from .money import Money, is_date, parse_amount, prorated_cents

APP_DOMAIN = "BAND-X"

QOS_RESERVED = "reserved"
QOS_PREMIUM = "premium_best_effort"


class MalformedOffer(Exception):
    """Offer credential missing or contradicting required condition attributes."""


@dataclass(frozen=True)
class Offer:
    offer_id: str  # content hash of the credential
    isp_key: str  # canonical key id
    link_from: str
    link_to: str
    link_name: str
    bandwidth_mbps: int
    min_price: Money
    amount_floor: Money  # compliance floor carried in the conditions
    valid_until: str  # exclusive YYYYMMDD bound
    unbundling_allowed: bool
    qos_class: str
    path_hint: tuple[str, ...]
    credential: Credential

    def prorated_price(self, purchased_mbps: int) -> Money:
        cents = prorated_cents(self.min_price.cents, purchased_mbps, self.bandwidth_mbps)
        return Money(cents, self.min_price.currency)


def validate_unbundling(offer: Offer, purchased_mbps: int) -> bool:
    """True iff the purchase size is the full advertisement, or smaller
    and the offer permits splitting."""
    if purchased_mbps <= 0:
        raise ValueError("purchased bandwidth must be positive")
    if purchased_mbps == offer.bandwidth_mbps:
        return True
    return purchased_mbps < offer.bandwidth_mbps and offer.unbundling_allowed


def make_offer_credential(
    isp: KeyPair,
    link_name: str,
    bandwidth_mbps: int,
    min_price: Money,
    valid_until: str,
    unbundling_allowed: bool = True,
    qos_class: str = QOS_RESERVED,
    path_hint: tuple[str, ...] = (),
) -> Credential:
    """Build and sign an offer credential following the schema above."""
    if bandwidth_mbps <= 0:
        raise ValueError("bandwidth must be positive")
    if min_price.cents <= 0:
        raise ValueError("price must be positive")
    if not is_date(valid_until):
        raise ValueError(f"valid_until must be YYYYMMDD, got {valid_until!r}")
    if qos_class not in (QOS_RESERVED, QOS_PREMIUM):
        raise ValueError(f"unknown qos class {qos_class!r}")

    tests = [
        pin("app_domain", APP_DOMAIN),
        pin("currency", min_price.currency),
        pin("link_name", link_name),
    ]
    if unbundling_allowed:
        floor = Money(prorated_cents(min_price.cents, 1, bandwidth_mbps), min_price.currency)
        tests.append(Compare("bandwidth", "<=", Literal("string", f"{bandwidth_mbps}Mbps"), True))
        tests.append(pin("min_price", min_price.as_decimal_str()))
    else:
        floor = min_price
        tests.append(Compare("bandwidth", "==", Literal("number", str(bandwidth_mbps)), True))
    tests.append(Compare("amount", ">=", Literal("number", floor.as_decimal_str()), True))
    tests.append(Compare("date", "<", Literal("string", valid_until), False))
    if qos_class != QOS_RESERVED:
        tests.append(pin("qos_class", qos_class))
    if path_hint:
        tests.append(pin("path_hint", ",".join(path_hint)))
    return sign_credential(conjunction(isp.public_id, None, tests), isp)


# ---------------------------------------------------------------------------
# Field derivation
# ---------------------------------------------------------------------------

def _single(comps: tuple[Compare, ...], attr: str, op: str | None = None) -> Compare | None:
    found = [c for c in comps if c.attr == attr and (op is None or c.op == op)]
    if not found:
        return None
    if len(found) > 1:
        raise MalformedOffer(f"offer pins {attr!r} more than once")
    return found[0]


def _int_mbps(text: str) -> int:
    m = re.match(r"^(\d+)", text.strip())
    if not m:
        raise MalformedOffer(f"bandwidth literal has no numeric prefix: {text!r}")
    return int(m.group(1))


def derive_offer_fields(cred: Credential) -> Offer:
    """Derive the structured offer from its credential, rejecting any
    mismatch between pinned and computed fields. The fields are derived
    once per credential object (see "Derived offer fields" in
    docs/formats.md); a MalformedOffer is raised again on every call."""
    fields = cred._offer_fields
    if fields is None:
        fields = _derive_fields(cred)
        object.__setattr__(cred, "_offer_fields", fields)
    return Offer(*fields, cred)


def _derive_fields(cred: Credential) -> tuple:
    """Offer's fields in order, without the trailing credential."""
    comps = conjuncts(cred)

    link = _single(comps, "link_name", "==")
    if link is None:
        raise MalformedOffer("offer conditions lack link_name")
    link_name = link.literal.text
    head, sep, tail = link_name.rpartition("-")
    if not sep or not head or not tail:
        raise MalformedOffer(f"link_name {link_name!r} does not name two endpoints")

    bw = _single(comps, "bandwidth")
    if bw is None or not bw.numeric or bw.op not in ("<=", "=="):
        raise MalformedOffer("offer conditions lack a usable bandwidth bound")
    bandwidth = _int_mbps(bw.literal.text)
    if bandwidth <= 0:
        raise MalformedOffer("offer bandwidth must be positive")
    unbundling_allowed = bw.op == "<="

    amount = _single(comps, "amount", ">=")
    if amount is None or not amount.numeric:
        raise MalformedOffer("offer conditions lack an &amount floor")
    floor_dec = Decimal(amount.literal.text) if amount.literal.kind == "number" else None
    if floor_dec is None:
        raise MalformedOffer("amount floor must be a numeric literal")
    floor_cents = int(floor_dec * 100)
    if Decimal(floor_cents) != floor_dec * 100 or floor_cents < 0:
        raise MalformedOffer("amount floor must be a non-negative two-decimal price")

    expiry = _single(comps, "date", "<")
    if expiry is None or not is_date(expiry.literal.text):
        raise MalformedOffer("offer conditions lack a date < expiry bound")

    cur = _single(comps, "currency", "==")
    currency = cur.literal.text if cur is not None else "USD"

    pin = _single(comps, "min_price", "==")
    if pin is not None:
        min_price = parse_amount(pin.literal.text, currency)
        if floor_cents != prorated_cents(min_price.cents, 1, bandwidth):
            raise MalformedOffer(
                "amount floor disagrees with the pinned min_price pro-rata floor"
            )
    else:
        min_price = Money(floor_cents, currency)
    if min_price.cents <= 0:
        raise MalformedOffer("offer price must be positive")

    qos = _single(comps, "qos_class", "==")
    qos_class = qos.literal.text if qos is not None else QOS_RESERVED
    if qos_class not in (QOS_RESERVED, QOS_PREMIUM):
        raise MalformedOffer(f"unknown qos class {qos_class!r}")

    hint = _single(comps, "path_hint", "==")
    path_hint = tuple(p for p in hint.literal.text.split(",") if p) if hint else ()

    return (
        credential_id(cred),  # offer_id
        cred.authorizer,  # isp_key
        head,  # link_from
        tail,  # link_to
        link_name,
        bandwidth,  # bandwidth_mbps
        min_price,
        Money(floor_cents, currency),  # amount_floor
        expiry.literal.text,  # valid_until
        unbundling_allowed,
        qos_class,
        path_hint,
    )


def open_offer(cred: Credential) -> Offer:
    """Verify the signature and derive fields; the gate used everywhere
    an offer credential enters the system."""
    if not verify_signature(cred):
        raise BadSignature("offer credential failed signature verification")
    return derive_offer_fields(cred)
