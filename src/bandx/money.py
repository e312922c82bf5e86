"""Money and date primitives shared by every subsystem.

Amounts travel as canonical decimal strings with exactly two fraction
digits ("4.25"); arithmetic happens on integer minor units. Dates are
fixed-width YYYYMMDD strings, so lexicographic order equals chronological
order. Instants on the simulation clock are integer seconds since the
Unix epoch (UTC).
"""

from __future__ import annotations

import calendar
import re
from dataclasses import dataclass
from datetime import datetime, timezone

_AMOUNT_RE = re.compile(r"^(\d+)\.(\d{2})$")
_DATE_RE = re.compile(r"^\d{8}$")
_DATETIME_RE = re.compile(r"^(\d{8})T(\d{2})(\d{2})(\d{2})$")


class MoneyError(ValueError):
    pass


@dataclass(frozen=True)
class Money:
    """An amount in integer minor units plus a currency code."""

    cents: int
    currency: str = "USD"

    def __post_init__(self) -> None:
        if not isinstance(self.cents, int):
            raise MoneyError(f"minor units must be an integer, got {self.cents!r}")

    def __add__(self, other: "Money") -> "Money":
        self._require_same_currency(other)
        return Money(self.cents + other.cents, self.currency)

    def __sub__(self, other: "Money") -> "Money":
        self._require_same_currency(other)
        return Money(self.cents - other.cents, self.currency)

    def _require_same_currency(self, other: "Money") -> None:
        if self.currency != other.currency:
            raise MoneyError(f"currency mismatch: {self.currency} vs {other.currency}")

    def as_decimal_str(self) -> str:
        """Canonical two-fraction-digit rendering, e.g. 425 -> "4.25"."""
        sign = "-" if self.cents < 0 else ""
        units = abs(self.cents)
        return f"{sign}{units // 100}.{units % 100:02d}"

    def __str__(self) -> str:
        return f"{self.as_decimal_str()} {self.currency}"


def parse_amount(text: str, currency: str = "USD") -> Money:
    """Parse a canonical "D.CC" amount string into Money."""
    m = _AMOUNT_RE.match(text)
    if not m:
        raise MoneyError(f"not a canonical amount string: {text!r}")
    return Money(int(m.group(1)) * 100 + int(m.group(2)), currency)


def prorated_cents(full_price_cents: int, purchased_mbps: int, offered_mbps: int) -> int:
    """Linear pro-rating of a full price, rounded up to a minor unit."""
    if purchased_mbps <= 0 or offered_mbps <= 0:
        raise MoneyError("bandwidths must be positive")
    num = full_price_cents * purchased_mbps
    return -(-num // offered_mbps)  # ceil division


def is_date(text: str) -> bool:
    """True iff `text` is YYYYMMDD naming a day of the calendar."""
    if not _DATE_RE.match(text):
        return False
    year, month, day = int(text[:4]), int(text[4:6]), int(text[6:])
    if year < 1 or not 1 <= month <= 12:
        return False
    return 1 <= day <= calendar.monthrange(year, month)[1]


def instant_from_text(text: str) -> int:
    """Parse YYYYMMDDTHHMMSS (or bare YYYYMMDD = midnight UTC) to epoch seconds."""
    m = _DATETIME_RE.match(text)
    if m:
        date, hh, mm, ss = m.groups()
    elif is_date(text):
        date, hh, mm, ss = text, "00", "00", "00"
    else:
        raise MoneyError(f"not a date-time: {text!r}")
    dt = datetime(
        int(date[0:4]), int(date[4:6]), int(date[6:8]),
        int(hh), int(mm), int(ss), tzinfo=timezone.utc,
    )
    return int(dt.timestamp())


def date_of_instant(instant: int) -> str:
    """YYYYMMDD of an epoch-seconds instant, in UTC; ValueError for an
    instant outside the platform's range."""
    try:
        return datetime.fromtimestamp(instant, tz=timezone.utc).strftime("%Y%m%d")
    except (OverflowError, OSError) as exc:
        raise ValueError(f"instant {instant} out of range: {exc}") from None


def text_of_instant(instant: int) -> str:
    return datetime.fromtimestamp(instant, tz=timezone.utc).strftime("%Y%m%dT%H%M%S")
