"""Payer and merchant sides of the microcheck scheme.

A check guarantor credential authorizes a payer key to write checks up
to a per-check limit until an expiry date. A microcheck is a credential
signed by the payer, payable to one merchant, pinning the exact amount,
currency, nonce, and date. The merchant decides whether to deliver by
running the compliance check over its policy, the guarantor credential,
the offer, and the check, all against one shared action attribute set.

`payment_verdict` is that decision, and the only place it is made: a
network element runs it before delivering and the settlement center
runs it again on the deposited record, so the two cannot disagree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .credentials import (
    ActionAttributeSet,
    Clause,
    Compare,
    Credential,
    KeyLeaf,
    Literal,
    PAnd,
    POr,
    UnverifiedCredential,
    check_compliance,
    conjunction,
    pin,
    pins,
    sign_credential,
    verify_signature,
    verify_signature_fresh,
)
from .keys import POLICY, KeyPair, PublicKeyId, UnsupportedAlgorithm, read_key_id
from .money import Money, is_date, parse_amount
from .offers import APP_DOMAIN, Offer, validate_unbundling

REASON_BAD_SIGNATURE = "bad-signature"
REASON_REFUSED = "compliance-refused"
REASON_UNDERPAID = "underpaid"
REASON_UNKNOWN_GUARANTOR = "unknown-guarantor"
REASON_MALFORMED = "malformed"
REASON_UNBUNDLING = "unbundling-prohibited"


class StaleNonce(Exception):
    """Payer-local reuse guard: every check must carry a fresh nonce."""


@dataclass(frozen=True)
class MicrocheckView:
    payer_key: str
    merchant_key: str
    amount: Money
    currency: str
    nonce: str
    date: str
    credential: Credential


def issue_guarantor_credential(
    guarantor: KeyPair,
    payer_key: PublicKeyId,
    limit: Money,
    expiry: str,
    now: str | None = None,
) -> Credential:
    """Signed credential admitting any amount up to the limit before expiry.

    The strict `&amount <` bound is the limit plus one minor unit, so the
    limit itself is payable.
    """
    if limit.cents <= 0:
        raise ValueError("per-check limit must be positive")
    if not is_date(expiry):
        raise ValueError(f"expiry must be YYYYMMDD, got {expiry!r}")
    if now is not None and expiry <= now:
        raise ValueError(f"expiry {expiry} is not in the future of {now}")
    bound = Money(limit.cents + 1, limit.currency)
    cred = conjunction(guarantor.public_id, payer_key, [
        pin("app_domain", APP_DOMAIN),
        pin("currency", limit.currency),
        Compare("amount", "<", Literal("number", bound.as_decimal_str()), True),
        Compare("date", "<", Literal("string", expiry), False),
    ])
    return sign_credential(cred, guarantor)


def open_microcheck(cred: Credential) -> MicrocheckView:
    """Derive the structured check fields; rejects checks without the
    full pin set."""
    if not isinstance(cred.licensees, KeyLeaf):
        raise ValueError("a check is payable to exactly one merchant key")
    pinned = pins(cred)
    for required in ("amount", "nonce", "date", "currency"):
        if required not in pinned:
            raise ValueError(f"check does not pin {required!r}")
    if len(pinned["nonce"]) < 12:
        raise ValueError("check nonce must be at least 12 hex characters")
    if not is_date(pinned["date"]):
        raise ValueError("check date must be YYYYMMDD")
    amount = parse_amount(pinned["amount"], pinned["currency"])
    return MicrocheckView(
        payer_key=cred.authorizer,
        merchant_key=cred.licensees.key,
        amount=amount,
        currency=pinned["currency"],
        nonce=pinned["nonce"],
        date=pinned["date"],
        credential=cred,
    )


@dataclass
class Wallet:
    """Payer-side checkbook: signs microchecks and guards nonce freshness."""

    pair: KeyPair
    guarantor_credential: Credential | None = None
    _used_nonces: set[str] = field(default_factory=set)

    def write_check(
        self,
        merchant_key: PublicKeyId | str,
        amount: Money,
        nonce: str,
        date: str,
    ) -> Credential:
        """Sign a check pinning (amount, currency, nonce, date).

        The nonce must be fresh for this payer; reuse is the only way to
        double-spend, so the wallet refuses it outright.
        """
        if len(nonce) < 12:
            raise ValueError("nonce must be at least 12 hex characters")
        if nonce in self._used_nonces:
            raise StaleNonce(f"nonce {nonce} already used by this payer")
        if not is_date(date):
            raise ValueError(f"date must be YYYYMMDD, got {date!r}")
        if amount.cents <= 0:
            raise ValueError("a check is for a positive amount")
        cred = conjunction(self.pair.public_id, merchant_key, [
            pin("app_domain", APP_DOMAIN),
            pin("currency", amount.currency),
            pin("amount", amount.as_decimal_str()),
            pin("nonce", nonce),
            pin("date", date),
        ])
        signed = sign_credential(cred, self.pair)
        self._used_nonces.add(nonce)
        return signed


def build_merchant_policy(
    merchant_key: PublicKeyId | str,
    trusted_guarantors: list[PublicKeyId | str],
) -> Credential:
    """Local policy: any trusted guarantor jointly with the merchant key.
    Sales and keepalives both meet it."""
    if not trusted_guarantors:
        raise ValueError("policy requires at least one trusted guarantor key")
    return _policy(tuple(str(g) for g in trusted_guarantors), str(merchant_key))


@functools.lru_cache(maxsize=256)
def _policy(guarantors: tuple, merchant: str) -> Credential:
    """POLICY licensing any of `guarantors` jointly with `merchant`.
    Built once per arguments, structurally: the AST that parsing
    `("G1" || "G2") && "M"` and `app_domain == "BAND-X" -> "true";` gives."""
    leaves = tuple(KeyLeaf(read_key_id(g)[1]) for g in guarantors)
    either = leaves[0] if len(leaves) == 1 else POr(leaves)
    licensees = PAnd((either, KeyLeaf(read_key_id(merchant)[1])))
    return Credential(2, (), POLICY, licensees, (Clause(pin("app_domain", APP_DOMAIN), "true"),))


def build_purchase_action(
    offer: Offer,
    purchased_mbps: int,
    amount: Money,
    nonce: str,
    date: str,
) -> ActionAttributeSet:
    """The shared action for one link purchase: check pins plus the
    offer's own data pins echoed back, so every equality pin in the
    offer is satisfiable by construction and only the marketed bounds
    (amount floor, bandwidth bound, expiry) actually constrain."""
    attrs = {
        "app_domain": APP_DOMAIN,
        "currency": amount.currency,
        "amount": amount.as_decimal_str(),
        "nonce": nonce,
        "date": date,
        "bandwidth": str(purchased_mbps),
        "link_name": offer.link_name,
        "min_price": offer.min_price.as_decimal_str(),
    }
    if offer.qos_class != "reserved":
        attrs["qos_class"] = offer.qos_class
    if offer.path_hint:
        attrs["path_hint"] = ",".join(offer.path_hint)
    return ActionAttributeSet(attrs)


def build_keepalive_action(amount: Money, nonce: str, date: str) -> ActionAttributeSet:
    """Action for a periodic keep-the-reservation-alive payment; carries
    no link attributes because no offer credential participates."""
    return ActionAttributeSet(
        {
            "app_domain": APP_DOMAIN,
            "currency": amount.currency,
            "amount": amount.as_decimal_str(),
            "nonce": nonce,
            "date": date,
        }
    )


def verify_payment(
    merchant_policy: Credential,
    guarantor: Credential,
    offer: Credential,
    check: Credential,
    action: ActionAttributeSet,
    *,
    fresh: bool = False,
) -> bool:
    """Merchant-side payment gate: true means deliver now, deposit later.
    `fresh` re-verifies every signature (see check_compliance)."""
    return check_compliance(
        [merchant_policy], [guarantor, offer, check], (), action, fresh=fresh
    )


def payment_verdict(
    offer: Offer | None,
    check: MicrocheckView,
    guarantor: Credential,
    action: ActionAttributeSet,
    merchant_key: str,
    trusted_guarantors: list[str],
    *,
    fresh: bool,
) -> str | None:
    """Whether `check` pays `merchant_key` for `action`: None when it
    does, else the reason of the first failing step, in the order of the
    table in docs/formats.md: payee, guarantor trust, action amount,
    offer signature, un-bundling, pro-rated floor, compliance.

    `offer` is None for a keepalive, which skips the offer steps and
    meets the same merchant POLICY with the merchant as the requester;
    no offer authorizes the merchant, so the guarantor credential and
    the check alone decide it. The offer's signature is verified on its
    own only when the un-bundling or floor step refuses; otherwise the
    compliance check verifies it, with the same outcome and one
    verification. `fresh` verifies every signature anew instead
    of trusting remembered successes.
    """
    if check.merchant_key != merchant_key:
        return REASON_MALFORMED
    if guarantor.authorizer not in trusted_guarantors:
        return REASON_UNKNOWN_GUARANTOR
    if action.get("amount") != check.amount.as_decimal_str():
        return REASON_MALFORMED
    try:
        policy = build_merchant_policy(merchant_key, trusted_guarantors)
        if offer is None:
            ok = check_compliance(
                [policy], [guarantor, check.credential], {merchant_key}, action, fresh=fresh
            )
        else:
            fault = _sale_fault(offer, check, action)
            if fault is not None:
                verify = verify_signature_fresh if fresh else verify_signature
                return fault if verify(offer.credential) else REASON_BAD_SIGNATURE
            ok = verify_payment(
                policy, guarantor, offer.credential, check.credential, action, fresh=fresh
            )
    except (UnverifiedCredential, UnsupportedAlgorithm):
        return REASON_BAD_SIGNATURE
    return None if ok else REASON_REFUSED


def _sale_fault(offer: Offer, check: MicrocheckView, action: ActionAttributeSet) -> str | None:
    """The un-bundling and floor steps of payment_verdict."""
    try:
        purchased = int(action.get("bandwidth") or "")
        if not validate_unbundling(offer, purchased):
            return REASON_UNBUNDLING
    except ValueError:  # not an integer, or not positive
        return REASON_MALFORMED
    if check.amount.cents < offer.prorated_price(purchased).cents:
        return REASON_UNDERPAID
    return None
