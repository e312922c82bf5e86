"""The Clearing and Settlement Center: deposits, the double-deposit
guard, the account ledger, and dispute replay.

The ledger is a single-writer state machine: batches apply strictly
sequentially, and every processed record is appended to a journal and
flushed before its effects count, so conservation, the settled-nonce
set, and recorded verdicts all survive a restart after a process crash.
The journal is never fsynced, so a power loss can drop records the
operating system had not yet written out. A record is self-contained
(offer, check, guarantor, action), which is what makes replaying a
disputed transaction possible from the stored bytes alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .credentials import (
    ActionAttributeSet,
    Credential,
    UnverifiedCredential,
    parse_credential,
)
from .keys import PublicKeyId
from .money import Money, prorated_cents
from .offers import APP_DOMAIN, MalformedOffer, derive_offer_fields, validate_unbundling
from .payments import (
    MicrocheckView,
    build_keepalive_policy,
    build_merchant_policy,
    open_microcheck,
    verify_keepalive_payment,
    verify_payment,
)

REASON_DOUBLE_DEPOSIT = "double-deposit"
REASON_BAD_SIGNATURE = "bad-signature"
REASON_REFUSED = "compliance-refused"
REASON_UNDERPAID = "underpaid"
REASON_UNKNOWN_GUARANTOR = "unknown-guarantor"
REASON_MALFORMED = "malformed"
REASON_UNBUNDLING = "unbundling-prohibited"
REASON_AGGREGATE_CAP = "aggregate-cap"


@dataclass(frozen=True)
class TransactionRecord:
    """Everything needed to re-run one payment decision."""

    offer: Credential
    microcheck: Credential
    guarantor: Credential
    action: ActionAttributeSet
    merchant_key: str
    received_at: str  # YYYYMMDD

    def record_id(self) -> str:
        return hashlib.sha256(_record_blocks(self)).hexdigest()


@dataclass(frozen=True)
class SettlementReport:
    accepted: tuple[tuple[str, Money], ...]
    rejected: tuple[tuple[str, str], ...]
    commission_taken: tuple[Money, ...]  # one entry per currency in the batch


@dataclass(frozen=True)
class JournalEntry:
    record_id: str
    record: TransactionRecord
    verdict: bool
    accepted: bool
    reason: str  # "-" when accepted
    payer: str
    nonce: str
    amount_cents: int
    currency: str
    commission_cents: int


def _action_bytes(action: ActionAttributeSet) -> bytes:
    lines = [f"{k}={v}" for k, v in sorted(action.items())]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def _record_blocks(record: TransactionRecord) -> bytes:
    parts = [
        record.offer.text().encode("utf-8"),
        record.microcheck.text().encode("utf-8"),
        record.guarantor.text().encode("utf-8"),
        _action_bytes(record.action),
        record.merchant_key.encode("utf-8"),
        record.received_at.encode("utf-8"),
    ]
    return b"\x00".join(parts)


class SettlementCenter:
    def __init__(
        self,
        trusted_guarantors: Iterable[PublicKeyId | str],
        commission_basis_points: int = 100,
        journal_path: str | Path | None = None,
        app_domain: str = APP_DOMAIN,
        daily_payer_cap: Money | None = None,
    ) -> None:
        self._guarantors = [str(g) for g in trusted_guarantors]
        if not self._guarantors:
            raise ValueError("settlement requires at least one trusted guarantor")
        self._bp = commission_basis_points
        self._app_domain = app_domain
        self._daily_cap = daily_payer_cap
        self._lock = threading.Lock()
        self._balances: dict[tuple[str, str], int] = {}
        self._settled: set[tuple[str, str]] = set()
        self._daily_totals: dict[tuple[str, str, str], int] = {}
        self._entries: list[JournalEntry] = []
        self._by_id: dict[str, JournalEntry] = {}
        self._journal_path = Path(journal_path) if journal_path is not None else None
        if self._journal_path is not None and self._journal_path.exists():
            self._replay_journal()

    # -- public surface -----------------------------------------------------

    def deposit_batch(self, records: list[TransactionRecord]) -> SettlementReport:
        """Process records in order; failures are per-record rejections.

        An accepted record debits the payer and credits the merchant minus
        commission (basis points, rounded up to a minor unit) which goes
        to the settlement account. A (payer, nonce) pair settles at most
        once, ever.
        """
        accepted: list[tuple[str, Money]] = []
        rejected: list[tuple[str, str]] = []
        commissions: dict[str, int] = {}
        with self._lock, self._open_journal(records) as journal:
            for record in records:
                entry = self._process(record, journal)
                if entry.accepted:
                    accepted.append((entry.record_id, Money(entry.amount_cents, entry.currency)))
                    commissions[entry.currency] = (
                        commissions.get(entry.currency, 0) + entry.commission_cents
                    )
                else:
                    rejected.append((entry.record_id, entry.reason))
        taken = tuple(Money(c, cur) for cur, c in sorted(commissions.items()))
        return SettlementReport(tuple(accepted), tuple(rejected), taken)

    def account_balance(self, key: PublicKeyId | str, currency: str = "USD") -> Money:
        return Money(self._balances.get((str(key), currency), 0), currency)

    def balances(self) -> dict[tuple[str, str], int]:
        return dict(self._balances)

    def dispute_replay(self, record: TransactionRecord) -> bool:
        """Re-run the stored transaction; equals the verdict recorded at
        deposit time for every journaled record. Every signature is
        verified anew, never taken from the verification memo."""
        verdict, _ = self._verdict(record, _open_check(record), fresh=True)
        return verdict

    def recorded_verdict(self, record_id: str) -> bool | None:
        entry = self._by_id.get(record_id)
        return entry.verdict if entry else None

    def entries(self) -> Iterator[JournalEntry]:
        return iter(list(self._entries))

    @property
    def settlement_key(self) -> str:
        return "csc"

    # -- verdict ------------------------------------------------------------

    def _verdict(
        self, record: TransactionRecord, check: MicrocheckView | None, fresh: bool = False
    ) -> tuple[bool, str]:
        """`check` is the record's opened microcheck, None when it is malformed."""
        if check is None:
            return False, REASON_MALFORMED
        if check.merchant_key != record.merchant_key:
            return False, REASON_MALFORMED
        if record.guarantor.authorizer not in self._guarantors:
            return False, REASON_UNKNOWN_GUARANTOR
        if record.action.get("amount") != check.amount.as_decimal_str():
            return False, REASON_MALFORMED

        keepalive = record.action.get("link_name") is None
        try:
            if keepalive:
                ok = verify_keepalive_payment(
                    build_keepalive_policy(self._guarantors, self._app_domain),
                    record.guarantor,
                    record.microcheck,
                    record.merchant_key,
                    record.action,
                    fresh=fresh,
                )
            else:
                ok = verify_payment(
                    build_merchant_policy(
                        record.merchant_key, self._guarantors, self._app_domain
                    ),
                    record.guarantor,
                    record.offer,
                    record.microcheck,
                    record.action,
                    fresh=fresh,
                )
        except UnverifiedCredential:
            return False, REASON_BAD_SIGNATURE
        if not ok:
            return False, REASON_REFUSED

        if not keepalive:
            # Recompute the pro-rated price floor from the offer itself.
            try:
                offer = derive_offer_fields(record.offer)
            except MalformedOffer:
                return False, REASON_MALFORMED
            try:
                purchased = int(record.action.get("bandwidth") or "")
            except ValueError:
                return False, REASON_MALFORMED
            if purchased <= 0:
                return False, REASON_MALFORMED
            if not validate_unbundling(offer, purchased):
                return False, REASON_UNBUNDLING
            floor = prorated_cents(offer.min_price.cents, purchased, offer.bandwidth_mbps)
            if check.amount.cents < floor:
                return False, REASON_UNDERPAID
        return True, "-"

    # -- processing ---------------------------------------------------------

    def _commission(self, amount_cents: int) -> int:
        return -(-(amount_cents * self._bp) // 10_000)  # ceil

    def _process(self, record: TransactionRecord, journal: BinaryIO | None) -> JournalEntry:
        record_id = record.record_id()
        check = _open_check(record)
        if check is not None:
            payer, nonce = check.payer_key, check.nonce
            amount_cents, currency = check.amount.cents, check.currency
        else:
            payer, nonce, amount_cents, currency = "-", "-", 0, "USD"

        verdict, reason = self._verdict(record, check)
        accepted = verdict
        if accepted and (payer, nonce) in self._settled:
            accepted, reason = False, REASON_DOUBLE_DEPOSIT
        if accepted and self._daily_cap is not None and currency == self._daily_cap.currency:
            day_key = (payer, check.date, currency)
            if self._daily_totals.get(day_key, 0) + amount_cents > self._daily_cap.cents:
                accepted, reason = False, REASON_AGGREGATE_CAP

        commission = self._commission(amount_cents) if accepted else 0
        entry = JournalEntry(
            record_id=record_id,
            record=record,
            verdict=verdict,
            accepted=accepted,
            reason="-" if accepted else reason,
            payer=payer,
            nonce=nonce,
            amount_cents=amount_cents,
            currency=currency,
            commission_cents=commission,
        )
        if journal is not None:
            journal.write(encode_journal_entry(entry))
            journal.flush()
        self._apply(entry, check.date if check is not None else record.received_at)
        return entry

    def _apply(self, entry: JournalEntry, date: str) -> None:
        """`date` is the check's date, which the daily payer cap counts by."""
        self._entries.append(entry)
        self._by_id[entry.record_id] = entry
        if not entry.accepted:
            return
        self._settled.add((entry.payer, entry.nonce))
        cur = entry.currency
        self._balances[(entry.payer, cur)] = (
            self._balances.get((entry.payer, cur), 0) - entry.amount_cents
        )
        merchant_gain = entry.amount_cents - entry.commission_cents
        self._balances[(entry.record.merchant_key, cur)] = (
            self._balances.get((entry.record.merchant_key, cur), 0) + merchant_gain
        )
        self._balances[(self.settlement_key, cur)] = (
            self._balances.get((self.settlement_key, cur), 0) + entry.commission_cents
        )
        key = (entry.payer, date, cur)
        self._daily_totals[key] = self._daily_totals.get(key, 0) + entry.amount_cents

    # -- journal ------------------------------------------------------------

    def _open_journal(self, records: list[TransactionRecord]):
        """The journal opened for appending one batch; None without a
        journal or without records, so an empty batch creates no file."""
        if self._journal_path is None or not records:
            return contextlib.nullcontext()
        return self._journal_path.open("ab")

    def _replay_journal(self) -> None:
        data = self._journal_path.read_bytes()
        for entry in decode_journal(data):
            # Only an accepted entry counts toward a daily total.
            check = _open_check(entry.record) if entry.accepted else None
            self._apply(entry, check.date if check is not None else entry.record.received_at)


def _open_check(record: TransactionRecord) -> MicrocheckView | None:
    try:
        return open_microcheck(record.microcheck)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Record wire form: header line plus the four length-prefixed blocks
# (offer, check, guarantor, action map); used inside envelopes.
# ---------------------------------------------------------------------------

def encode_record(record: TransactionRecord) -> bytes:
    header = f"record merchant={record.merchant_key} received={record.received_at}\n"
    return header.encode("utf-8") + _record_body(record)


def _record_body(record: TransactionRecord) -> bytes:
    """The four length-prefixed blocks that follow a record or deposit
    header line; `_read_record_body` reads them back."""
    out = []
    for block in (
        record.offer.text().encode("utf-8"),
        record.microcheck.text().encode("utf-8"),
        record.guarantor.text().encode("utf-8"),
        _action_bytes(record.action),
    ):
        out.append(f"{len(block)}\n".encode("ascii"))
        out.append(block)
        out.append(b"\n")
    return b"".join(out)


def decode_record(data: bytes) -> TransactionRecord:
    try:
        header, pos = _read_line(data, 0)
        parts = header.split(" ")
        if not parts or parts[0] != "record":
            raise ValueError(f"not a record header: {header!r}")
        record, _ = _read_record_body(data, pos, _header_fields(parts[1:]))
    except _Torn:
        raise ValueError("truncated record bytes") from None
    return record


# ---------------------------------------------------------------------------
# Journal encoding: newline-delimited records, each a header line followed
# by length-prefixed blocks (offer, check, guarantor, action map). The
# byte-exact layout is documented in docs/formats.md.
# ---------------------------------------------------------------------------

def encode_journal_entry(entry: JournalEntry) -> bytes:
    r = entry.record
    header = (
        f"deposit {entry.record_id} verdict={'true' if entry.verdict else 'false'} "
        f"accepted={'yes' if entry.accepted else 'no'} reason={entry.reason} "
        f"payer={entry.payer} nonce={entry.nonce} amount={entry.amount_cents} "
        f"currency={entry.currency} commission={entry.commission_cents} "
        f"merchant={r.merchant_key} received={r.received_at}\n"
    )
    return header.encode("utf-8") + _record_body(r)


def decode_journal(data: bytes) -> list[JournalEntry]:
    """Decode journal bytes, silently dropping a torn trailing record."""
    entries: list[JournalEntry] = []
    pos = 0
    n = len(data)
    while pos < n:
        start = pos
        try:
            entry, pos = _decode_one(data, pos)
        except _Torn:
            break
        if entry is None:  # corrupt but complete header; skip defensively
            pos = start
            break
        entries.append(entry)
    return entries


class _Torn(Exception):
    pass


def _read_line(data: bytes, pos: int) -> tuple[str, int]:
    end = data.find(b"\n", pos)
    if end < 0:
        raise _Torn
    return data[pos:end].decode("utf-8"), end + 1


def _read_block(data: bytes, pos: int) -> tuple[bytes, int]:
    line, pos = _read_line(data, pos)
    try:
        length = int(line)
    except ValueError:
        raise _Torn from None
    if pos + length + 1 > len(data):
        raise _Torn
    block = data[pos : pos + length]
    if data[pos + length : pos + length + 1] != b"\n":
        raise _Torn
    return block, pos + length + 1


def _header_fields(tokens: list[str]) -> dict[str, str]:
    return {key: value for key, _, value in (t.partition("=") for t in tokens)}


def _read_record_body(
    data: bytes, pos: int, fields: dict[str, str]
) -> tuple[TransactionRecord, int]:
    """The four blocks after a record or deposit header line (offer,
    check, guarantor, action map) as a record carrying the header's
    merchant and received fields; raises _Torn on short input."""
    blocks = []
    for _ in range(4):
        block, pos = _read_block(data, pos)
        blocks.append(block)
    attrs = {}
    for line in blocks[3].decode("utf-8").splitlines():
        if line:
            k, _, v = line.partition("=")
            attrs[k] = v
    record = TransactionRecord(
        offer=parse_credential(blocks[0].decode("utf-8")),
        microcheck=parse_credential(blocks[1].decode("utf-8")),
        guarantor=parse_credential(blocks[2].decode("utf-8")),
        action=ActionAttributeSet(attrs),
        merchant_key=fields["merchant"],
        received_at=fields["received"],
    )
    return record, pos


def _decode_one(data: bytes, pos: int) -> tuple[JournalEntry | None, int]:
    header, pos = _read_line(data, pos)
    parts = header.split(" ")
    if len(parts) < 3 or parts[0] != "deposit":
        return None, pos
    fields = _header_fields(parts[2:])
    record, pos = _read_record_body(data, pos, fields)
    entry = JournalEntry(
        record_id=parts[1],
        record=record,
        verdict=fields["verdict"] == "true",
        accepted=fields["accepted"] == "yes",
        reason=fields["reason"],
        payer=fields["payer"],
        nonce=fields["nonce"],
        amount_cents=int(fields["amount"]),
        currency=fields["currency"],
        commission_cents=int(fields["commission"]),
    )
    return entry, pos
