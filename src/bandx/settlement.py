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

The journal is the one full store of settled records. In memory a
center keeps only the balances, the settled (payer, nonce) pairs and
each record id's verdict, which DISPUTE reports as `recorded`; a
restart rebuilds all three by replaying the journal.

Whether a record pays is `payments.payment_verdict`, the decision the
network element ran before delivering, run again on the stored action;
this module adds only the double-deposit guard and the commission.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable

from .credentials import ActionAttributeSet, Credential, parse_credential
from .keys import PublicKeyId
from .money import Money
from .offers import MalformedOffer, derive_offer_fields
from .payments import (  # the verdict's reasons are this module's rejection reasons too
    REASON_BAD_SIGNATURE,
    REASON_MALFORMED,
    REASON_REFUSED,
    REASON_UNBUNDLING,
    REASON_UNDERPAID,
    REASON_UNKNOWN_GUARANTOR,
    MicrocheckView,
    open_microcheck,
    payment_verdict,
)

REASON_DOUBLE_DEPOSIT = "double-deposit"

SETTLEMENT_ACCOUNT = "csc"  # the ledger account that collects commission
COMMISSION_BP = 100  # commission in basis points of each accepted amount


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
        parts = [*_record_parts(self), self.merchant_key.encode(), self.received_at.encode()]
        return hashlib.sha256(b"\x00".join(parts)).hexdigest()


@dataclass(frozen=True)
class SettlementReport:
    accepted: tuple[tuple[str, Money], ...]
    rejected: tuple[tuple[str, str], ...]
    commission_taken: tuple[Money, ...]  # one entry per currency in the batch


@dataclass(frozen=True)
class JournalEntry:
    """One processed record and its outcome: the journal's encoded form."""

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


def _record_parts(record: TransactionRecord) -> list[bytes]:
    """The offer, check and guarantor texts and the action map
    (`key=value` lines sorted by key): the four blocks of a record's
    wire and journal forms, and the start of what its id hashes."""
    action = "".join(f"{k}={v}\n" for k, v in sorted(record.action.items()))
    return [
        record.offer.text().encode("utf-8"),
        record.microcheck.text().encode("utf-8"),
        record.guarantor.text().encode("utf-8"),
        action.encode("utf-8"),
    ]


class SettlementCenter:
    def __init__(
        self,
        trusted_guarantors: Iterable[PublicKeyId | str],
        journal_path: str | Path | None = None,
    ) -> None:
        self._guarantors = [str(g) for g in trusted_guarantors]
        if not self._guarantors:
            raise ValueError("settlement requires at least one trusted guarantor")
        self._lock = threading.Lock()
        self._balances: dict[tuple[str, str], int] = {}
        self._settled: set[tuple[str, str]] = set()
        self._verdicts: dict[str, bool] = {}  # record id -> verdict
        self._journal_path = Path(journal_path) if journal_path is not None else None
        if self._journal_path is not None and self._journal_path.exists():
            for entry in decode_journal(self._journal_path.read_bytes()):
                self._apply(entry)

    # -- public surface -----------------------------------------------------

    def deposit_batch(self, records: list[TransactionRecord]) -> SettlementReport:
        """Process records in order; failures are per-record rejections.

        An accepted record debits the payer and credits the merchant minus
        commission (COMMISSION_BP basis points, rounded up to a minor
        unit) which goes to the settlement account. A (payer, nonce) pair
        settles at most once, ever.
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
        return self._verdict(record, _open_check(record), fresh=True) is None

    def recorded_verdict(self, record_id: str) -> bool | None:
        return self._verdicts.get(record_id)

    # -- verdict ------------------------------------------------------------

    def _verdict(
        self, record: TransactionRecord, check: MicrocheckView | None, *, fresh: bool
    ) -> str | None:
        """None when the record pays, else its rejection reason. `check`
        is the record's opened microcheck, None when it is malformed. A
        record whose action names no link is a keepalive payment."""
        if check is None:
            return REASON_MALFORMED
        offer = None
        if record.action.get("link_name") is not None:
            try:
                offer = derive_offer_fields(record.offer)
            except MalformedOffer:
                return REASON_MALFORMED
        return payment_verdict(
            offer, check, record.guarantor, record.action, record.merchant_key,
            self._guarantors, fresh=fresh,
        )

    # -- processing ---------------------------------------------------------

    def _process(self, record: TransactionRecord, journal: BinaryIO | None) -> JournalEntry:
        record_id = record.record_id()
        check = _open_check(record)
        if check is not None:
            payer, nonce = check.payer_key, check.nonce
            amount_cents, currency = check.amount.cents, check.currency
        else:
            payer, nonce, amount_cents, currency = "-", "-", 0, "USD"

        reason = self._verdict(record, check, fresh=False)
        verdict = accepted = reason is None
        if accepted and (payer, nonce) in self._settled:
            accepted, reason = False, REASON_DOUBLE_DEPOSIT

        commission = -(-(amount_cents * COMMISSION_BP) // 10_000) if accepted else 0  # ceil
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
        self._apply(entry)
        return entry

    def _apply(self, entry: JournalEntry) -> None:
        self._verdicts[entry.record_id] = entry.verdict
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
        self._balances[(SETTLEMENT_ACCOUNT, cur)] = (
            self._balances.get((SETTLEMENT_ACCOUNT, cur), 0) + entry.commission_cents
        )

    # -- journal ------------------------------------------------------------

    def _open_journal(self, records: list[TransactionRecord]):
        """The journal opened for appending one batch; None without a
        journal or without records, so an empty batch creates no file."""
        if self._journal_path is None or not records:
            return contextlib.nullcontext()
        return self._journal_path.open("ab")


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
    return _framed(f"record merchant={record.merchant_key} received={record.received_at}\n",
                   record)


def _framed(header: str, record: TransactionRecord) -> bytes:
    """A record or deposit header line, then the record's four parts,
    each length-prefixed; `_read_record_body` reads the parts back."""
    out = [header.encode("utf-8")]
    for block in _record_parts(record):
        out += (b"%d\n" % len(block), block, b"\n")
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
    return _framed(header, r)


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
    merchant and received fields; raises _Torn on short input and
    ValueError on a header without either field."""
    for key in ("merchant", "received"):
        if key not in fields:
            raise ValueError(f"record header has no {key}= field")
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
