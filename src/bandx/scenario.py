"""Deterministic scenario harness.

A scenario file declares a seed, a start clock, a topology, the actors
(guarantor, providers, customers), and an ordered event list (post-offer,
advance-clock, buy-spot, buy-future, activate, keepalive, deposit,
assert). Identical (seed, scenario) runs produce byte-identical
transcripts and final-state reports.

The runner drives everything through envelopes, so the same scenario
executes unchanged against the in-process bus or against live socket
services; the final-state report is normalized (actor names, no random
ids) and must be identical across transports. Each role comes from
its config in `role_configs`: `services.build_role` builds it here, and
under `bandx serve` from the JSON that `materialize_configs` writes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .credentials import parse_credential
from .fabric import open_reservation_credential
from .keys import KeyPair, export_private, generate_keypair
from .money import (
    Money,
    instant_from_text,
    parse_amount,
    text_of_instant,
)
from .offers import make_offer_credential
from .payments import Wallet
from .qna import PartialEstablishment, PurchaseHandle, QnaSession, raise_for_error
from .services import Bus, ServiceCore, Transport, build_role, error_code
from .settlement import SETTLEMENT_ACCOUNT


class ScenarioParseError(Exception):
    pass


class AssertionFailed(Exception):
    def __init__(self, event_index: int, detail: str):
        self.event_index = event_index
        super().__init__(f"event {event_index}: {detail}")


@dataclass(frozen=True)
class IspDecl:
    name: str
    keepalive_period: int | None = None
    keepalive_price: Money | None = None


@dataclass(frozen=True)
class CustomerDecl:
    name: str
    guarantor: str
    limit: Money
    expiry: str


@dataclass(frozen=True)
class Event:
    index: int
    lineno: int
    kind: str
    args: tuple[str, ...]
    options: dict[str, str]


@dataclass(frozen=True)
class Scenario:
    seed: int
    clock_start: int
    topology_text: str
    guarantors: tuple[str, ...]
    isps: tuple[IspDecl, ...]
    customers: tuple[CustomerDecl, ...]
    events: tuple[Event, ...]


_EVENT_KINDS = {
    "post-offer", "advance-clock", "buy-spot", "buy-future",
    "activate", "keepalive", "deposit", "assert",
}


def _split(line: str) -> tuple[list[str], dict[str, str]]:
    args: list[str] = []
    options: dict[str, str] = {}
    for token in line.split():
        if "=" in token:
            key, _, value = token.partition("=")
            options[key] = value
        else:
            args.append(token)
    return args, options


def parse_scenario(text: str, base_dir: Path | str = ".") -> Scenario:
    base = Path(base_dir)
    seed: int | None = None
    clock_start: int | None = None
    topology_text: str | None = None
    guarantors: list[str] = []
    isps: list[IspDecl] = []
    customers: list[CustomerDecl] = []
    events: list[Event] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        args, options = _split(line)
        kind, rest = args[0], args[1:]
        try:
            if kind in _EVENT_KINDS:
                events.append(Event(len(events), lineno, kind, tuple(rest), options))
            elif kind == "seed":
                seed = int(rest[0])
            elif kind == "clock":
                clock_start = instant_from_text(rest[0])
            elif kind == "topology":
                path = base / rest[0]
                topology_text = path.read_text(encoding="utf-8")
            elif kind == "guarantor":
                guarantors.append(rest[0])
            elif kind == "isp":
                period = price = None
                if "keepalive" in options:
                    period_text, _, price_text = options["keepalive"].partition(":")
                    period = int(period_text)
                    price = parse_amount(price_text)
                isps.append(IspDecl(rest[0], period, price))
            elif kind == "customer":
                name, guarantor, limit, currency, expiry = rest
                customers.append(
                    CustomerDecl(name, guarantor, parse_amount(limit, currency), expiry)
                )
            else:
                raise ScenarioParseError(f"line {lineno}: unknown directive {kind!r}")
        except ScenarioParseError:
            raise
        except Exception as exc:
            raise ScenarioParseError(f"line {lineno}: {exc}") from exc

    if seed is None or clock_start is None:
        raise ScenarioParseError("scenario requires seed and clock directives")
    if topology_text is None:
        raise ScenarioParseError("scenario requires a topology directive")
    if not guarantors or not isps:
        raise ScenarioParseError("scenario requires at least one guarantor and one isp")
    for decl in customers:
        if decl.guarantor not in guarantors:
            raise ScenarioParseError(
                f"customer {decl.name!r} names undeclared guarantor {decl.guarantor!r}"
            )
    return Scenario(
        seed=seed,
        clock_start=clock_start,
        topology_text=topology_text,
        guarantors=tuple(guarantors),
        isps=tuple(isps),
        customers=tuple(customers),
        events=tuple(events),
    )


# ---------------------------------------------------------------------------
# Actor keys: pure function of (seed, actor name) so every transport and
# process derives the same identities.
# ---------------------------------------------------------------------------

def actor_keypair(seed: int, name: str) -> KeyPair:
    return generate_keypair(f"scn:{seed}:{name}")


@dataclass
class _Runner:
    scenario: Scenario
    transport: Transport
    clock: int = 0
    keys: dict[str, KeyPair] = field(default_factory=dict)
    names_by_key: dict[str, str] = field(default_factory=dict)
    sessions: dict[str, QnaSession] = field(default_factory=dict)
    handles: dict[str, object] = field(default_factory=dict)
    isp_decl: dict[str, IspDecl] = field(default_factory=dict)

    def setup(self) -> None:
        scn = self.scenario
        self.clock = scn.clock_start
        for name in (*scn.guarantors, *(i.name for i in scn.isps),
                     *(c.name for c in scn.customers)):
            pair = actor_keypair(scn.seed, name)
            self.keys[name] = pair
            self.names_by_key[pair.public_id.canonical()] = name
        self.names_by_key[SETTLEMENT_ACCOUNT] = SETTLEMENT_ACCOUNT
        self.isp_decl = {i.name: i for i in scn.isps}
        self.transport.broadcast_clock(self.clock)
        for decl in scn.customers:
            reply = raise_for_error(
                self.transport.send(
                    "guarantor",
                    "ISSUE-CWC",
                    {
                        "payer_key": self.keys[decl.name].public_id.canonical(),
                        "limit_cents": str(decl.limit.cents),
                        "currency": decl.limit.currency,
                        "expiry": decl.expiry,
                    },
                )
            )
            cwc = parse_credential(reply.block("credential").decode("utf-8"))
            pair = self.keys[decl.name]
            self.sessions[decl.name] = QnaSession(
                pair,
                Wallet(pair, cwc),
                self.transport,
                rng=random.Random(f"{scn.seed}:qna:{decl.name}"),
            )

    # -- events --------------------------------------------------------------

    def run_events(self) -> None:
        for event in self.scenario.events:
            handler = getattr(self, "_ev_" + event.kind.replace("-", "_"))
            expect = event.options.get("expect")
            try:
                handler(event)
            except AssertionFailed:
                raise
            except Exception as exc:
                got = "partial" if isinstance(exc, PartialEstablishment) else error_code(exc)
                if expect == got:
                    continue
                raise AssertionFailed(
                    event.index, f"{event.kind} raised {type(exc).__name__}: {exc}"
                ) from exc
            if expect:
                raise AssertionFailed(
                    event.index, f"{event.kind} succeeded but expected {expect}"
                )

    def _session(self, name: str) -> QnaSession:
        if name not in self.sessions:
            raise ScenarioParseError(f"unknown customer {name!r}")
        return self.sessions[name]

    def _ev_post_offer(self, event: Event) -> None:
        isp_name, link_from, link_to, mbps, price, currency, expiry = event.args
        cred = make_offer_credential(
            self.keys[isp_name],
            f"{link_from}-{link_to}",
            int(mbps),
            parse_amount(price, currency),
            expiry,
            unbundling_allowed=event.options.get("unbundle", "yes") == "yes",
            qos_class=event.options.get("qos", "reserved"),
            path_hint=tuple(event.options["hint"].split(","))
            if "hint" in event.options
            else (),
        )
        raise_for_error(
            self.transport.send(
                "ch", "POST-OFFER", {}, {"offer": cred.text().encode("utf-8")},
                sender=isp_name,
            )
        )

    def _ev_advance_clock(self, event: Event) -> None:
        self.clock += int(event.args[0])
        self.transport.broadcast_clock(self.clock)

    def _ev_buy_spot(self, event: Event) -> None:
        customer, link_from, link_to, mbps = event.args
        handle = self._session(customer).purchase_spot(
            link_from, link_to, int(mbps), self.clock,
            currency=event.options.get("currency", "USD"),
        )
        if "handle" in event.options:
            self.handles[event.options["handle"]] = handle

    def _ev_buy_future(self, event: Event) -> None:
        customer, link_from, link_to, mbps, start, end = event.args
        creds = self._session(customer).purchase_future(
            link_from, link_to, int(mbps),
            (instant_from_text(start), instant_from_text(end)),
            self.clock,
            currency=event.options.get("currency", "USD"),
        )
        if "handle" in event.options:
            self.handles[event.options["handle"]] = creds

    def _ev_activate(self, event: Event) -> None:
        customer, handle_name = event.args
        creds = self.handles.get(handle_name)
        if not isinstance(creds, list):
            raise ScenarioParseError(f"{handle_name!r} is not a booking handle")
        handle = self._session(customer).activate(creds, self.clock)
        self.handles[handle_name] = handle

    def _ev_keepalive(self, event: Event) -> None:
        customer, handle_name = event.args
        handle = self.handles.get(handle_name)
        if not isinstance(handle, PurchaseHandle):
            raise ScenarioParseError(f"{handle_name!r} is not an established handle")
        session = self._session(customer)
        for leg in handle.legs:
            isp_name = self.names_by_key.get(leg.isp_key, "")
            decl = self.isp_decl.get(isp_name)
            if decl and decl.keepalive_price is not None:
                session.keepalive(leg, decl.keepalive_price, self.clock)

    def _ev_deposit(self, event: Event) -> None:
        target = event.args[0] if event.args else "all"
        fields = {} if target == "all" else {"isp": target}
        records = raise_for_error(self.transport.send("isp", "FLUSH-RECORDS", fields))
        blocks = dict(records.blocks)
        raise_for_error(
            self.transport.send(
                "csc",
                "DEPOSIT",
                {"count": records.get("count") or "0"},
                blocks,
                sender=target,
            )
        )

    # -- asserts ---------------------------------------------------------------

    def _ev_assert(self, event: Event) -> None:
        what = event.args[0]
        if what == "balance":
            _, actor, currency, expected = event.args
            key = (SETTLEMENT_ACCOUNT if actor == SETTLEMENT_ACCOUNT
                   else self.keys[actor].public_id.canonical())
            reply = raise_for_error(
                self.transport.send("csc", "BALANCE", {"key": key, "currency": currency})
            )
            got = int(reply.require("cents"))
            want = _signed_cents(expected)
            if got != want:
                raise AssertionFailed(
                    event.index, f"balance {actor} {currency}: {got}c, wanted {want}c"
                )
        elif what == "capacity":
            _, ne_id, neighbor, expected = event.args
            free = self._capacities().get((ne_id, neighbor))
            if free is None:
                raise AssertionFailed(event.index, f"no link {ne_id}->{neighbor}")
            if free != int(expected):
                raise AssertionFailed(
                    event.index,
                    f"capacity {ne_id}->{neighbor}: {free} free, wanted {expected}",
                )
        elif what == "reservation":
            _, handle_name, expected = event.args
            for res_id in self._handle_reservations(event.index, handle_name):
                reply = raise_for_error(
                    self.transport.send("isp", "RES-STATE", {"reservation_id": res_id})
                )
                state = reply.require("state")
                if state != expected:
                    raise AssertionFailed(
                        event.index,
                        f"reservation {handle_name}/{res_id[:12]}: {state}, "
                        f"wanted {expected}",
                    )
        elif what == "offers":
            reply = raise_for_error(self.transport.send("ch", "REPORT"))
            got = int(reply.require("offers"))
            if got != int(event.args[1]):
                raise AssertionFailed(
                    event.index, f"offers: {got}, wanted {event.args[1]}"
                )
        else:
            raise ScenarioParseError(f"unknown assert form {what!r}")

    def _handle_reservations(self, index: int, handle_name: str) -> list[str]:
        handle = self.handles.get(handle_name)
        if isinstance(handle, PurchaseHandle):
            return [leg.reservation_id for leg in handle.legs]
        if isinstance(handle, list):  # booking credentials
            return [open_reservation_credential(c)["reservation_id"] for c in handle]
        raise AssertionFailed(index, f"unknown handle {handle_name!r}")

    def _capacities(self) -> dict[tuple[str, str], int]:
        reply = raise_for_error(self.transport.send("isp", "REPORT"))
        out: dict[tuple[str, str], int] = {}
        for line in reply.block("report").decode("utf-8").splitlines():
            parts = line.split(" ")
            if parts and parts[0] == "capacity":
                out[(parts[1], parts[2])] = int(parts[4])
        return out

    # -- final state -----------------------------------------------------------

    def final_report(self) -> str:
        lines = ["final-state"]
        reply = raise_for_error(self.transport.send("csc", "REPORT"))
        balance_rows = []
        for line in reply.block("report").decode("utf-8").splitlines():
            parts = line.split(" ")
            if parts and parts[0] == "balance":
                _, key, currency, cents = parts
                name = self.names_by_key.get(key, key)
                balance_rows.append(
                    f"  {name} {currency} {Money(int(cents), currency).as_decimal_str()}"
                )
        lines.append("balances:")
        lines.extend(sorted(balance_rows))

        reply = raise_for_error(self.transport.send("isp", "REPORT"))
        res_rows, cap_rows = [], []
        for line in reply.block("report").decode("utf-8").splitlines():
            parts = line.split(" ")
            if parts[0] == "reservation":
                _, state, key, mbps, links, start, end, qos = parts
                name = self.names_by_key.get(key, key)
                res_rows.append(
                    f"  {name} {state} {mbps} {links} "
                    f"{text_of_instant(int(start))}..{text_of_instant(int(end))} {qos}"
                )
            elif parts[0] == "capacity":
                _, ne_id, neighbor, link, free, cap = parts
                cap_rows.append(f"  {ne_id}->{neighbor} {link} {free}/{cap}")
        lines.append("reservations:")
        lines.extend(sorted(res_rows))
        lines.append("capacities:")
        lines.extend(sorted(cap_rows))

        reply = raise_for_error(self.transport.send("ch", "REPORT"))
        lines.append(f"offers: {reply.require('offers')}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScenarioResult:
    report: str
    transcript: bytes


def role_configs(scn: Scenario, journal_path: str | None = None
                 ) -> dict[str, dict]:
    """The four per-role configs this scenario derives, JSON-ready:
    `services.build_role` builds each role from its config, in process
    and under `bandx serve` alike."""
    trusted = [actor_keypair(scn.seed, g).public_id.canonical() for g in scn.guarantors]
    configs = {
        "ch": {},
        "isp": {
            "topology_text": scn.topology_text,
            "seed": scn.seed,
            "trusted_guarantors": trusted,
            "isps": {
                decl.name: {"secret": export_private(actor_keypair(scn.seed, decl.name))}
                for decl in scn.isps
            },
            "keepalive": {
                decl.name: [decl.keepalive_period, decl.keepalive_price.as_decimal_str(),
                            decl.keepalive_price.currency]
                for decl in scn.isps
                if decl.keepalive_period is not None
            },
        },
        "csc": {"trusted_guarantors": trusted, "journal": journal_path},
        "guarantor": {"secret": export_private(actor_keypair(scn.seed, scn.guarantors[0]))},
    }
    return {role: {"role": role, "clock_start": scn.clock_start, **config}
            for role, config in configs.items()}


def build_services(scn: Scenario, journal_path: str | None = None
                   ) -> dict[str, ServiceCore]:
    """The four role services, built from the same configs a socket
    deployment serves, for in-process use."""
    return {role: build_role(role, cfg)
            for role, cfg in role_configs(scn, journal_path).items()}


def run_scenario(
    path: str | Path,
    transport: Transport | None = None,
    journal_path: str | None = None,
) -> ScenarioResult:
    """Execute a scenario file. With no transport, runs the in-process
    simulation; pass a SocketTransport to drive live services instead."""
    path = Path(path)
    scn = parse_scenario(path.read_text(encoding="utf-8"), path.parent)
    return run_parsed(scn, transport, journal_path)


def run_parsed(
    scn: Scenario,
    transport: Transport | None = None,
    journal_path: str | None = None,
) -> ScenarioResult:
    """Run a parsed scenario and return its report and transcript. A
    transport passed in that records nothing is asked to record from
    here on."""
    owned = transport is None
    if transport is None:
        transport = Bus(build_services(scn, journal_path), transcript=[])
    elif transport.transcript is None:
        transport.transcript = []
    runner = _Runner(scn, transport)
    runner.setup()
    try:
        runner.run_events()
        report = runner.final_report()
    finally:
        if owned:
            transport.close()
    transcript = b"".join(transport.transcript)
    return ScenarioResult(report=report, transcript=transcript)


def _signed_cents(text: str) -> int:
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    return sign * parse_amount(text).cents


# ---------------------------------------------------------------------------
# Service-process configuration for socket deployments
# ---------------------------------------------------------------------------

def materialize_configs(
    scn: Scenario,
    outdir: str | Path,
    ports: dict[str, int],
    host: str = "127.0.0.1",
) -> dict[str, Path]:
    """Write one JSON config per role, `role_configs` plus its `listen`
    address and the settlement journal under `outdir`, so `bandx serve`
    processes come up as the in-process services would."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for role, config in role_configs(scn, str(outdir / "csc.journal")).items():
        paths[role] = outdir / f"{role}.json"
        payload = {**config, "listen": f"{host}:{ports[role]}"}
        paths[role].write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return paths
