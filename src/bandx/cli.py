"""Operator command line.

Verbs: keygen, post-offer, search, buy, book, activate, deposit, report,
run <scenario>, serve <role>. Client verbs speak the envelope protocol
to live services; `run` executes a scenario file (in-process by default,
against sockets with --endpoints); `serve` builds its role from a JSON
config with the builder in-process runs use. Exit codes: 0 success, 2
assertion failure, 3 protocol, parse or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .credentials import CredentialSyntaxError, parse_credential_blocks
from .envelope import ProtocolError
from .fabric import TopologyError
from .keys import export_private, generate_keypair, import_private
from .money import instant_from_text, parse_amount, text_of_instant
from .offers import make_offer_credential, open_offer
from .payments import Wallet
from .qna import QnaSession, raise_for_error
from .scenario import (
    AssertionFailed,
    ScenarioParseError,
    parse_scenario,
    run_parsed,
)
from .services import ConfigError, SocketTransport, build_role, config_errors, serve

EXIT_OK = 0
EXIT_ASSERT = 2
EXIT_PROTOCOL = 3


def _addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


def _endpoints(args) -> dict[str, tuple[str, int]]:
    out = {}
    for role in ("ch", "isp", "csc", "guarantor"):
        value = getattr(args, role.replace("-", "_"), None)
        if value:
            out[role] = _addr(value)
    return out


def _now(args) -> int:
    if args.now:
        return instant_from_text(args.now)
    return int(time.time())


def _load_key(path: str):
    return import_private(Path(path).read_text(encoding="utf-8"))


def cmd_keygen(args) -> int:
    pair = generate_keypair(args.seed)
    if args.out:
        Path(args.out).write_text(export_private(pair) + "\n", encoding="utf-8")
    print(pair.public_id.canonical())
    return EXIT_OK


def cmd_post_offer(args) -> int:
    pair = _load_key(args.key)
    cred = make_offer_credential(
        pair,
        args.link,
        args.mbps,
        parse_amount(args.price, args.currency),
        args.expires,
        unbundling_allowed=not args.no_unbundle,
        qos_class=args.qos,
        path_hint=tuple(args.hint.split(",")) if args.hint else (),
    )
    with SocketTransport(_endpoints(args), sender="cli") as transport:
        transport.broadcast_clock(_now(args))
        reply = raise_for_error(
            transport.send("ch", "POST-OFFER", {}, {"offer": cred.text().encode("utf-8")})
        )
    print(reply.require("offer_id"))
    return EXIT_OK


def cmd_search(args) -> int:
    with SocketTransport(_endpoints(args), sender="cli") as transport:
        transport.broadcast_clock(_now(args))
        reply = raise_for_error(
            transport.send(
                "ch",
                "QUERY",
                {
                    "from": args.link_from,
                    "to": args.link_to,
                    "bandwidth": str(args.mbps),
                    "currency": args.currency,
                },
            )
        )
    for block in reply.numbered_blocks("offer"):
        offer = open_offer(parse_credential_blocks(block.decode("utf-8"))[0])
        print(
            f"{offer.offer_id[:16]} {offer.link_name} {offer.bandwidth_mbps}Mbps "
            f"min {offer.min_price} until {offer.valid_until} "
            f"unbundle={'yes' if offer.unbundling_allowed else 'no'}"
        )
    return EXIT_OK


@contextmanager
def _session(args) -> Iterator[tuple[QnaSession, int]]:
    """A customer session over sockets, closed when the verb is done."""
    pair = _load_key(args.key)
    cwc = parse_credential_blocks(Path(args.cwc).read_text(encoding="utf-8"))[0]
    with SocketTransport(_endpoints(args), sender="qna") as transport:
        now = _now(args)
        transport.broadcast_clock(now)
        yield QnaSession(pair, Wallet(pair, cwc), transport), now


def cmd_buy(args) -> int:
    with _session(args) as (session, now):
        handle = session.purchase_spot(args.link_from, args.link_to, args.mbps, now,
                                       currency=args.currency)
    for leg in handle.legs:
        print(
            f"{leg.reservation_id} {leg.state} {','.join(leg.links)} "
            f"{text_of_instant(leg.start)}..{text_of_instant(leg.end)}"
        )
    print(f"total {handle.total_price}")
    return EXIT_OK


def cmd_book(args) -> int:
    with _session(args) as (session, now):
        creds = session.purchase_future(
            args.link_from, args.link_to, args.mbps,
            (instant_from_text(args.start), instant_from_text(args.end)), now,
            currency=args.currency,
        )
    text = "\n".join(c.text() for c in creds)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_activate(args) -> int:
    creds = parse_credential_blocks(Path(args.credentials).read_text(encoding="utf-8"))
    with _session(args) as (session, now):
        handle = session.activate(creds, now)
    for leg in handle.legs:
        print(f"{leg.reservation_id} {leg.state}")
    return EXIT_OK


def cmd_deposit(args) -> int:
    with SocketTransport(_endpoints(args), sender="cli") as transport:
        transport.broadcast_clock(_now(args))
        fields = {"isp": args.isp_name} if args.isp_name else {}
        records = raise_for_error(transport.send("isp", "FLUSH-RECORDS", fields))
        reply = raise_for_error(
            transport.send("csc", "DEPOSIT", {"count": records.get("count") or "0"},
                           dict(records.blocks))
        )
    print(f"accepted={reply.require('accepted')} rejected={reply.require('rejected')} "
          f"commission={reply.get('commission') or '-'}")
    report = reply.blocks.get("report")
    if report:
        print(report.decode("utf-8"), end="")
    return EXIT_OK


def cmd_report(args) -> int:
    with SocketTransport(_endpoints(args), sender="cli") as transport:
        for dest, msg in (("csc", "REPORT"), ("isp", "REPORT"), ("ch", "REPORT")):
            if dest not in transport.endpoints:
                continue
            reply = raise_for_error(transport.send(dest, msg))
            block = reply.blocks.get("report")
            if block:
                print(block.decode("utf-8"), end="")
            for key, value in sorted(reply.fields.items()):
                print(f"{dest} {key}={value}")
    return EXIT_OK


def cmd_run(args) -> int:
    path = Path(args.scenario)
    scn = parse_scenario(path.read_text(encoding="utf-8"), path.parent)
    transport = None
    if args.endpoints:
        endpoints = {}
        for part in args.endpoints.split(","):
            role, _, addr = part.partition("=")
            endpoints[role] = _addr(addr)
        transport = SocketTransport(endpoints, sender="qna")
    try:
        result = run_parsed(scn, transport, journal_path=args.journal)
    finally:
        if transport is not None:
            transport.close()
    if args.transcript:
        Path(args.transcript).write_bytes(result.transcript)
    if args.report:
        Path(args.report).write_text(result.report, encoding="utf-8")
    else:
        print(result.report, end="")
    return EXIT_OK


def cmd_serve(args) -> int:
    with config_errors(args.role):
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        core = build_role(args.role, config)
        host, port = _addr(config["listen"])
    server = serve(core, host, port)
    actual = server.server_address[1]
    print(f"{args.role} listening on {host}:{actual}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.shutdown()
        server.server_close()
    return EXIT_OK


def _add_endpoint_flags(p: argparse.ArgumentParser, *roles: str) -> None:
    for role in roles:
        p.add_argument(f"--{role}", help=f"{role} service host:port")
    p.add_argument("--now", help="simulation instant YYYYMMDDTHHMMSS (default: system UTC)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bandx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a signing key")
    p.add_argument("--seed", help="deterministic seed (omit for system entropy)")
    p.add_argument("--out", help="write the private key to this file")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("post-offer", help="sign and post an offer credential")
    p.add_argument("--key", required=True, help="provider private key file")
    p.add_argument("--link", required=True, help="link name, e.g. Rome-Paris")
    p.add_argument("--mbps", type=int, required=True)
    p.add_argument("--price", required=True, help="full price, e.g. 3.00")
    p.add_argument("--currency", default="USD")
    p.add_argument("--expires", required=True, help="validity bound YYYYMMDD")
    p.add_argument("--no-unbundle", action="store_true")
    p.add_argument("--qos", default="reserved",
                   choices=["reserved", "premium_best_effort"])
    p.add_argument("--hint", help="comma-separated ne ids")
    _add_endpoint_flags(p, "ch")
    p.set_defaults(func=cmd_post_offer)

    p = sub.add_parser("search", help="query offers")
    p.add_argument("--from", dest="link_from", required=True)
    p.add_argument("--to", dest="link_to", required=True)
    p.add_argument("--mbps", type=int, required=True)
    p.add_argument("--currency", default="USD")
    _add_endpoint_flags(p, "ch")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("buy", help="purchase and establish a path now")
    p.add_argument("--key", required=True, help="customer private key file")
    p.add_argument("--cwc", required=True, help="guarantor credential file")
    p.add_argument("--from", dest="link_from", required=True)
    p.add_argument("--to", dest="link_to", required=True)
    p.add_argument("--mbps", type=int, required=True)
    p.add_argument("--currency", default="USD")
    _add_endpoint_flags(p, "ch", "isp")
    p.set_defaults(func=cmd_buy)

    p = sub.add_parser("book", help="book a future interval")
    p.add_argument("--key", required=True)
    p.add_argument("--cwc", required=True)
    p.add_argument("--from", dest="link_from", required=True)
    p.add_argument("--to", dest="link_to", required=True)
    p.add_argument("--mbps", type=int, required=True)
    p.add_argument("--start", required=True, help="YYYYMMDDTHHMMSS")
    p.add_argument("--end", required=True, help="YYYYMMDDTHHMMSS")
    p.add_argument("--currency", default="USD")
    p.add_argument("--out", help="write reservation credentials here")
    _add_endpoint_flags(p, "ch", "isp")
    p.set_defaults(func=cmd_book)

    p = sub.add_parser("activate", help="redeem reservation credentials")
    p.add_argument("--key", required=True)
    p.add_argument("--cwc", required=True)
    p.add_argument("credentials", help="file of reservation credential blocks")
    _add_endpoint_flags(p, "ch", "isp")
    p.set_defaults(func=cmd_activate)

    p = sub.add_parser("deposit", help="flush provider records to settlement")
    p.add_argument("--isp-name", help="limit to one provider")
    _add_endpoint_flags(p, "isp", "csc")
    p.set_defaults(func=cmd_deposit)

    p = sub.add_parser("report", help="print service state reports")
    _add_endpoint_flags(p, "ch", "isp", "csc")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("scenario")
    p.add_argument("--endpoints",
                   help="socket mode: ch=h:p,isp=h:p,csc=h:p,guarantor=h:p")
    p.add_argument("--transcript", help="write the envelope transcript here")
    p.add_argument("--report", help="write the final-state report here")
    p.add_argument("--journal", help="settlement journal path (in-process mode)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("serve", help="run one role as a socket service")
    p.add_argument("role", choices=["clearinghouse", "ch", "isp", "csc", "guarantor"])
    p.add_argument("--config", required=True, help="JSON config file")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    if getattr(args, "role", None) == "clearinghouse":
        args.role = "ch"
    try:
        return args.func(args)
    except AssertionFailed as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return EXIT_ASSERT
    except (ScenarioParseError, ProtocolError, CredentialSyntaxError, ConfigError,
            TopologyError, ValueError) as exc:
        # ValueError and TopologyError are also what `invalid` and `topology` replies raise.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
