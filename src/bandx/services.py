"""Role services speaking the envelope protocol, plus the two transports.

The same service cores sit behind both transports: the in-process bus
hands them encoded envelopes directly, and the socket server feeds them
the same bytes from a TCP stream. A transport records a transcript only
when its caller passes a list to record into. Each service is
single-writer over its own state; concurrent socket clients are
serialized at the state machine boundary.
"""

from __future__ import annotations

import base64
import socket
import socketserver
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from .credentials import (
    BadSignature,
    CredentialSyntaxError,
    UnknownVersion,
    UnresolvedConstant,
    UnverifiedCredential,
    parse_credential,
)
from .envelope import Envelope, FramingLost, ProtocolError, decode, encode, read_envelope
from .fabric import (
    CHALLENGE_TTL,
    BoundaryReferral,
    CapacityExhausted,
    ExpiredChallenge,
    Fabric,
    OutsideInterval,
    PaymentRefused,
    Pdp,
    ReplayedChallenge,
    Reservation,
    ReservationRequest,
    TopologyError,
    UnbundlingProhibited,
    UnknownReservation,
    parse_topology,
)
from .keys import KeyPair, UnsupportedAlgorithm, import_private
from .market import ClearingHouse, Expired, NoPath, OfferQuery
from .money import Money, date_of_instant, parse_amount
from .offers import MalformedOffer
from .payments import StaleNonce, issue_guarantor_credential
from .settlement import SettlementCenter, decode_record, encode_record

ERROR_CODES = {
    BadSignature: "bad-signature",
    MalformedOffer: "malformed-offer",
    Expired: "expired",
    NoPath: "no-path",
    ExpiredChallenge: "expired-challenge",
    ReplayedChallenge: "replayed-challenge",
    PaymentRefused: "payment-refused",
    CapacityExhausted: "capacity-exhausted",
    UnbundlingProhibited: "unbundling-prohibited",
    UnknownReservation: "unknown-reservation",
    OutsideInterval: "outside-interval",
    StaleNonce: "stale-nonce",
    TopologyError: "topology",
    CredentialSyntaxError: "syntax",
    UnknownVersion: "syntax",
    UnresolvedConstant: "syntax",
    UnverifiedCredential: "bad-signature",
    UnsupportedAlgorithm: "bad-signature",
    ProtocolError: "protocol",
    ValueError: "invalid",
}


def error_code(exc: Exception) -> str:
    for cls, code in ERROR_CODES.items():
        if isinstance(exc, cls):
            return code
    return "internal"


class ServiceCore:
    """Envelope dispatcher shared by every role."""

    name = "service"

    def __init__(self, clock_start: int = 0):
        self.clock = clock_start
        self._seq = 0
        self._lock = threading.Lock()

    def _reply(self, msg_type: str, fields: dict | None = None,
               blocks: dict | None = None) -> Envelope:
        self._seq += 1
        return Envelope(msg_type, self.name, self._seq, fields or {}, blocks or {})

    def handle(self, env: Envelope) -> Envelope:
        with self._lock:
            try:
                if env.msg_type == "CLOCK-SET":
                    now = int(env.require("now"))
                    date_of_instant(now)  # an instant with no date changes nothing
                    self.clock = now
                    self.on_clock(now)
                    return self._reply("OK", {"now": str(self.clock)})
                handler = getattr(self, "do_" + env.msg_type.lower().replace("-", "_"), None)
                if handler is None:
                    raise ProtocolError(f"unknown message type {env.msg_type!r}")
                return handler(env)
            except Exception as exc:  # every failure is a protocol-level reply
                return self._reply(
                    "ERROR", {"code": error_code(exc), "detail": str(exc)[:300]}
                )

    def handle_bytes(self, data: bytes) -> bytes:
        """Socket-side entry: decode, dispatch, encode; malformed input
        gets an ERROR reply and the connection survives."""
        try:
            env, _ = decode(data)
        except ProtocolError as exc:
            with self._lock:
                return encode(self._reply("ERROR", {"code": "protocol",
                                                    "detail": str(exc)[:300]}))
        return encode(self.handle(env))

    def on_clock(self, now: int) -> None:
        pass

    def protocol_error(self, detail: str) -> Envelope:
        with self._lock:
            return self._reply("ERROR", {"code": "protocol", "detail": detail[:300]})

    @property
    def today(self) -> str:
        return date_of_instant(self.clock)


# ---------------------------------------------------------------------------
# Clearing house service
# ---------------------------------------------------------------------------

class ClearingHouseService(ServiceCore):
    name = "ch"

    def __init__(self, house: ClearingHouse | None = None, clock_start: int = 0):
        super().__init__(clock_start)
        self.house = house or ClearingHouse()

    def on_clock(self, now: int) -> None:
        self.house.expire_offers(self.today)

    def _query(self, env: Envelope) -> OfferQuery:
        cap = env.get("max_price")
        return OfferQuery(
            link_from=env.require("from"),
            link_to=env.require("to"),
            min_bandwidth_mbps=int(env.require("bandwidth")),
            needed_on=env.get("needed_on") or self.today,
            max_total_price=(
                parse_amount(cap, env.get("currency") or "USD") if cap else None
            ),
            currency=env.get("currency") or "USD",
        )

    def do_post_offer(self, env: Envelope) -> Envelope:
        cred = parse_credential(env.block("offer").decode("utf-8"))
        offer = self.house.post_offer(cred, self.today)
        return self._reply("OFFER-POSTED", {"offer_id": offer.offer_id})

    def do_query(self, env: Envelope) -> Envelope:
        offers = self.house.query_offers(self._query(env))
        blocks = {
            f"offer{i:03d}": o.credential.text().encode("utf-8")
            for i, o in enumerate(offers)
        }
        return self._reply("OFFERS", {"count": str(len(offers))}, blocks)

    def do_compose(self, env: Envelope) -> Envelope:
        plan = self.house.compose_path(self._query(env))
        blocks = {
            f"offer{i:03d}": offer.credential.text().encode("utf-8")
            for i, (offer, _) in enumerate(plan.segments)
        }
        fields = {
            "count": str(len(plan.segments)),
            "price": str(plan.total_price.cents),
            "currency": plan.total_price.currency,
            "bandwidth": str(plan.segments[0][1]),
        }
        return self._reply("PLAN", fields, blocks)

    def do_report(self, env: Envelope) -> Envelope:
        return self._reply("CH-REPORT", {"offers": str(len(self.house))})


# ---------------------------------------------------------------------------
# ISP fabric service
# ---------------------------------------------------------------------------

class IspService(ServiceCore):
    name = "isp"

    def __init__(self, fabric: Fabric, clock_start: int = 0):
        super().__init__(clock_start)
        self.fabric = fabric

    def on_clock(self, now: int) -> None:
        self.fabric.expire_all(now)

    def _ne(self, env: Envelope):
        return self.fabric.ne(env.require("to"))

    def _request(self, env: Envelope) -> ReservationRequest:
        offers = tuple(
            parse_credential(b.decode("utf-8")) for b in env.numbered_blocks("offer")
        )
        checks = tuple(
            parse_credential(b.decode("utf-8")) for b in env.numbered_blocks("check")
        )
        guarantor = parse_credential(env.block("guarantor").decode("utf-8"))
        return ReservationRequest(
            challenge_id=env.require("challenge_id"),
            offers=offers,
            guarantor=guarantor,
            checks=checks,
            bandwidth_mbps=int(env.require("bandwidth")),
            customer_key=env.require("customer_key"),
            signature=base64.b64decode(env.require("signature")),
        )

    @staticmethod
    def _reservation_fields(res: Reservation) -> dict[str, str]:
        return {
            "reservation_id": res.reservation_id,
            "state": res.state,
            "bandwidth": str(res.bandwidth_mbps),
            "links": ",".join(res.link_names),
            "start": str(res.start),
            "end": str(res.end),
            "isp_key": res.isp_key,
        }

    def do_directory(self, env: Envelope) -> Envelope:
        isp_key, ne_id = self.fabric.ingress(env.require("isp_key"), env.require("location"))
        return self._reply("INGRESS", {"ne_id": ne_id, "isp_key": isp_key})

    def do_challenge_req(self, env: Envelope) -> Envelope:
        challenge = self._ne(env).issue_challenge(self.clock)
        return self._reply(
            "CHALLENGE-RESP",
            {
                "challenge_id": challenge.challenge_id,
                "ne_id": challenge.ne_id,
                "issued_at": str(challenge.issued_at),
                "ttl": str(CHALLENGE_TTL),
            },
        )

    @staticmethod
    def _referral_fields(referral: BoundaryReferral) -> dict[str, str]:
        return {
            "referral": "yes",
            "at": referral.at_location,
            "next_isp_key": referral.next_isp_key,
            "next_ne_id": referral.next_ne_id,
            "remaining": str(len(referral.remaining_offers)),
        }

    def do_reserve_spot(self, env: Envelope) -> Envelope:
        outcome = self._ne(env).handle_spot_request(self._request(env), self.clock)
        if isinstance(outcome, BoundaryReferral):
            fields = self._reservation_fields(outcome.outcome)
            fields.update(self._referral_fields(outcome))
            return self._reply("BOUNDARY-REFERRAL", fields)
        return self._reply("RESERVED", self._reservation_fields(outcome))

    def do_book_future(self, env: Envelope) -> Envelope:
        interval = (int(env.require("start")), int(env.require("end")))
        outcome = self._ne(env).book_future(self._request(env), interval, self.clock)
        if isinstance(outcome, BoundaryReferral):
            credential = {"credential": outcome.outcome.text().encode("utf-8")}
            return self._reply("BOUNDARY-REFERRAL", self._referral_fields(outcome), credential)
        return self._reply("BOOKED", {}, {"credential": outcome.text().encode("utf-8")})

    def do_activate(self, env: Envelope) -> Envelope:
        cred = parse_credential(env.block("credential").decode("utf-8"))
        res = self._ne(env).activate_reservation(cred, self.clock)
        return self._reply("ACTIVATED", self._reservation_fields(res))

    def do_keepalive(self, env: Envelope) -> Envelope:
        check = parse_credential(env.block("check").decode("utf-8"))
        due = self._ne(env).keepalive_payment(
            env.require("reservation_id"), check, self.clock
        )
        return self._reply("KEEPALIVE-OK", {"next_due": str(due)})

    def do_teardown_notify(self, env: Envelope) -> Envelope:
        released = self._ne(env).teardown(
            env.require("reservation_id"), env.require("customer_key")
        )
        return self._reply("TORN-DOWN", {"reservation_id": env.require("reservation_id"),
                                         "released": "yes" if released else "no"})

    def do_flush_records(self, env: Envelope) -> Envelope:
        records = self.fabric.flush_records(env.get("isp"))
        blocks = {f"rec{i:03d}": encode_record(r) for i, r in enumerate(records)}
        return self._reply("RECORDS", {"count": str(len(records))}, blocks)

    def do_res_state(self, env: Envelope) -> Envelope:
        res = self.fabric.reservations.get(env.require("reservation_id"))
        if res is None:
            raise UnknownReservation(env.require("reservation_id"))
        return self._reply("RES-STATE", self._reservation_fields(res))

    def do_report(self, env: Envelope) -> Envelope:
        lines: list[str] = []
        rows = sorted(
            self.fabric.reservations.values(),
            key=lambda r: (r.customer_key, r.state, ",".join(r.link_names), r.start),
        )
        for r in rows:
            lines.append(
                f"reservation {r.state} {r.customer_key} {r.bandwidth_mbps} "
                f"{','.join(r.link_names)} {r.start} {r.end} {r.qos_class}"
            )
        for ne_id in sorted(self.fabric.nes):
            ne = self.fabric.nes[ne_id]
            for neighbor in sorted(ne.links):
                link = ne.links[neighbor]
                lines.append(
                    f"capacity {ne_id} {neighbor} {link.link_name} "
                    f"{ne.free_capacity(neighbor)} {link.capacity_mbps}"
                )
        body = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
        return self._reply("ISP-REPORT", {}, {"report": body})


# ---------------------------------------------------------------------------
# Settlement service
# ---------------------------------------------------------------------------

class CscService(ServiceCore):
    name = "csc"

    def __init__(self, csc: SettlementCenter, clock_start: int = 0):
        super().__init__(clock_start)
        self.csc = csc

    def do_deposit(self, env: Envelope) -> Envelope:
        records = [decode_record(b) for b in env.numbered_blocks("rec")]
        report = self.csc.deposit_batch(records)
        lines = [f"accepted {rid} {money.cents}" for rid, money in report.accepted]
        lines += [f"rejected {rid} {reason}" for rid, reason in report.rejected]
        body = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
        return self._reply(
            "SETTLED",
            {
                "accepted": str(len(report.accepted)),
                "rejected": str(len(report.rejected)),
                "commission": ",".join(str(m) for m in report.commission_taken),
            },
            {"report": body},
        )

    def do_balance(self, env: Envelope) -> Envelope:
        money = self.csc.account_balance(env.require("key"), env.get("currency") or "USD")
        return self._reply("BALANCE-RESP", {"cents": str(money.cents),
                                            "currency": money.currency})

    def do_dispute(self, env: Envelope) -> Envelope:
        record = decode_record(env.block("record"))
        verdict = self.csc.dispute_replay(record)
        recorded = self.csc.recorded_verdict(record.record_id())
        return self._reply(
            "DISPUTE-RESP",
            {
                "verdict": "true" if verdict else "false",
                "recorded": "-" if recorded is None else ("true" if recorded else "false"),
            },
        )

    def do_report(self, env: Envelope) -> Envelope:
        lines = [
            f"balance {key} {currency} {cents}"
            for (key, currency), cents in sorted(self.csc.balances().items())
        ]
        body = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
        return self._reply("CSC-REPORT", {}, {"report": body})


# ---------------------------------------------------------------------------
# Guarantor (credit institution) service
# ---------------------------------------------------------------------------

class GuarantorService(ServiceCore):
    name = "guarantor"

    def __init__(self, pair: KeyPair, clock_start: int = 0):
        super().__init__(clock_start)
        self.pair = pair

    def do_issue_cwc(self, env: Envelope) -> Envelope:
        limit = Money(int(env.require("limit_cents")), env.get("currency") or "USD")
        cred = issue_guarantor_credential(
            self.pair,
            env.require("payer_key"),
            limit,
            env.require("expiry"),
            now=self.today,
        )
        return self._reply("CWC", {}, {"credential": cred.text().encode("utf-8")})


# ---------------------------------------------------------------------------
# The one role builder
# ---------------------------------------------------------------------------

class ConfigError(Exception):
    pass


@contextmanager
def config_errors(role: str) -> Iterator[None]:
    """Turn a bad value read from a role's config into a ConfigError."""
    try:
        yield
    except (KeyError, ValueError, TypeError, AttributeError, OSError, TopologyError,
            UnsupportedAlgorithm) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(f"bad {role} config: {detail}") from exc


# The keys each role's config may carry (README's config table); any
# other key is refused, so a misspelt or retired one is not ignored.
_COMMON_KEYS = frozenset({"role", "listen", "clock_start"})
CONFIG_KEYS = {
    "ch": _COMMON_KEYS,
    "guarantor": _COMMON_KEYS | {"secret"},
    "csc": _COMMON_KEYS | {"trusted_guarantors", "journal"},
    "isp": _COMMON_KEYS | {"isps", "seed", "trusted_guarantors", "keepalive", "topology_text"},
}


def build_role(role: str, config: dict) -> ServiceCore:
    """The service for one role, from the JSON-ready per-role config
    that `scenario.role_configs` derives and `bandx serve` reads: in
    process and over sockets, every role is built here."""
    if role not in CONFIG_KEYS:
        raise ConfigError(f"unknown role {role!r}")
    with config_errors(role):
        unknown = sorted(set(config) - CONFIG_KEYS[role])
        if unknown:
            raise ConfigError(
                f"bad {role} config: unknown key {', '.join(map(repr, unknown))}"
            )
        clock_start = int(config.get("clock_start", 0))
        if role == "ch":
            return ClearingHouseService(ClearingHouse(), clock_start)
        if role == "guarantor":
            return GuarantorService(import_private(config["secret"]), clock_start)
        if role == "csc":
            return CscService(
                SettlementCenter(config["trusted_guarantors"], journal_path=config.get("journal")),
                clock_start,
            )
        isp_keys = {
            name: import_private(entry["secret"])
            for name, entry in config["isps"].items()
        }
        keepalive = {
            name: (int(period), parse_amount(price, currency))
            for name, (period, price, currency) in config.get("keepalive", {}).items()
        }
        fabric = Fabric.build(
            parse_topology(config["topology_text"]),
            isp_keys,
            Pdp(config["trusted_guarantors"]),
            rng_seed=config.get("seed"),
            keepalive=keepalive,
        )
        return IspService(fabric, clock_start)


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

class Transport:
    # Every envelope sent and received, in order, when the caller asked
    # for a transcript by passing a list; None records nothing.
    transcript: list[bytes] | None = None

    def send(self, dest: str, msg_type: str, fields: dict | None = None,
             blocks: dict | None = None, sender: str = "qna") -> Envelope:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class Bus(Transport):
    """In-process transport: hands the service the same bytes a socket
    server would see, and appends request and reply to `transcript` when
    one was given."""

    services: dict[str, ServiceCore]
    transcript: list[bytes] | None = None
    _seq: int = 0

    def send(self, dest: str, msg_type: str, fields: dict | None = None,
             blocks: dict | None = None, sender: str = "qna") -> Envelope:
        if dest not in self.services:
            raise ProtocolError(f"no service bound as {dest!r}")
        self._seq += 1
        env = Envelope(msg_type, sender, self._seq, fields or {}, blocks or {})
        request = encode(env)
        reply_bytes = self.services[dest].handle_bytes(request)
        if self.transcript is not None:
            self.transcript += (request, reply_bytes)
        reply, _ = decode(reply_bytes)
        return reply

    def broadcast_clock(self, now: int) -> None:
        for dest in sorted(self.services):
            self.send(dest, "CLOCK-SET", {"now": str(now)}, sender="admin")


class SocketTransport(Transport):
    """Client side of the stream protocol; one persistent connection per
    destination role. Appends each request and reply to `transcript`
    when one was given."""

    def __init__(self, endpoints: dict[str, tuple[str, int]], sender: str = "qna",
                 transcript: list[bytes] | None = None):
        self.endpoints = endpoints
        self.sender = sender
        self._conns: dict[str, socket.socket] = {}
        self._files: dict[str, tuple] = {}
        self._seq = 0
        self.transcript = transcript

    def _conn(self, dest: str):
        if dest not in self._files:
            if dest not in self.endpoints:
                raise ProtocolError(f"no endpoint configured for {dest!r}")
            conn = socket.create_connection(self.endpoints[dest], timeout=30)
            self._conns[dest] = conn
            self._files[dest] = (conn.makefile("rb"), conn.makefile("wb"))
        return self._files[dest]

    def send(self, dest: str, msg_type: str, fields: dict | None = None,
             blocks: dict | None = None, sender: str | None = None) -> Envelope:
        rfile, wfile = self._conn(dest)
        self._seq += 1
        env = Envelope(msg_type, sender or self.sender, self._seq, fields or {}, blocks or {})
        data = encode(env)
        if self.transcript is not None:
            self.transcript.append(data)
        wfile.write(data)
        wfile.flush()
        reply = read_envelope(rfile)
        if reply is None:
            raise ProtocolError(f"{dest} closed the connection")
        if self.transcript is not None:
            self.transcript.append(encode(reply))
        return reply

    def broadcast_clock(self, now: int) -> None:
        for dest in sorted(self.endpoints):
            self.send(dest, "CLOCK-SET", {"now": str(now)}, sender="admin")

    def close(self) -> None:
        # A socket stays open until the stream files made from it close.
        files = [f for pair in self._files.values() for f in pair]
        for stream in files + list(self._conns.values()):
            try:
                stream.close()
            except OSError:
                pass
        self._conns.clear()
        self._files.clear()


class BindFailure(Exception):
    pass


class _EnvelopeHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        core: ServiceCore = self.server.core  # type: ignore[attr-defined]
        while True:
            try:
                env = read_envelope(self.rfile)
            except ProtocolError as exc:
                self.wfile.write(encode(core.protocol_error(str(exc))))
                self.wfile.flush()
                if isinstance(exc, FramingLost):
                    return
                continue
            except (ConnectionError, OSError):
                return
            if env is None:
                return
            self.wfile.write(encode(core.handle(env)))
            self.wfile.flush()


class _EnvelopeServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


# How often the accept loop looks for a shutdown request, in seconds:
# `shutdown()` waits up to this long (socketserver's default is 0.5).
_POLL_INTERVAL = 0.05


def serve(core: ServiceCore, host: str, port: int) -> _EnvelopeServer:
    """Bind and serve a core in a daemon thread; returns the server
    (whose .server_address reports the bound port)."""
    try:
        server = _EnvelopeServer((host, port), _EnvelopeHandler)
    except OSError as exc:
        raise BindFailure(f"cannot bind {host}:{port}: {exc}") from exc
    server.core = core  # type: ignore[attr-defined]
    thread = threading.Thread(
        target=server.serve_forever, args=(_POLL_INTERVAL,), daemon=True
    )
    thread.start()
    return server
