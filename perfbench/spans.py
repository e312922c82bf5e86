"""Span tracing from outside the program.

The tracer wraps public functions of the `bandx` layer modules: each
function is replaced in its defining module and in every `bandx` module
that imported it by name; a method is replaced on its class. A span
records name, start, end, parent and op id; spans stay in memory and
are written out when the run ends. Self time is a span's duration
minus the time its child spans cover.

Only one op is in flight at a time, so a span opened on a server thread
with nothing open on that thread belongs to the client's socket round
trip that is waiting for it. `read_envelope` blocks until the peer has
written, so its spans count the reading thread's CPU time, not the wait.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

# Layer module -> functions whose calls and self time are reported.
LAYERS = {
    "credentials": [
        "parse_credential", "canonical_bytes", "verify_signature",
        "check_compliance", "build_credential", "sign_credential",
    ],
    "keys": ["Ed25519Scheme.verify", "Ed25519Scheme.sign", "PublicKeyId.from_text"],
    "offers": ["derive_offer_fields", "open_offer"],
    "market": [
        "ClearingHouse.compose_path", "ClearingHouse.post_offer",
        "ClearingHouse.expire_offers",
    ],
    "payments": [
        "open_microcheck", "verify_payment", "build_merchant_policy", "Wallet.write_check",
    ],
    "settlement": [
        "SettlementCenter.deposit_batch", "SettlementCenter.dispute_replay",
        "decode_record", "encode_journal_entry",
    ],
    "fabric": [
        "NetworkElement.handle_spot_request", "NetworkElement.book_future",
        "NetworkElement.activate_reservation", "NetworkElement.teardown",
        "Fabric.expire_all",
    ],
    "qna": ["QnaSession.purchase_spot", "QnaSession.purchase_future", "QnaSession.activate"],
    "envelope": ["encode", "decode", "read_envelope"],
}
SELF_ONLY = {"qna"}  # rows reported as self time only
ROLES = ("ch", "isp", "csc", "guarantor")
# Wrapped for parentage only: a transport round trip is the parent of
# the server work it causes, so client-side self times exclude it.
TRANSPORT_SENDS = ("SocketTransport.send", "Bus.send")
HANDLE = "services.ServiceCore.handle"
SOCKET_SEND = "services.SocketTransport.send"
HOOK = "trace.hook"
CPU_TIMED = {"envelope.read_envelope"}

# A finished span is (name, start, end, parent id, op id, id); ids count
# spans in opening order and -1 means no parent. Tuples of plain values
# stay out of the cyclic collector's way, so a long trace does not slow
# the program it measures.
NAME, START, END, PARENT, OP, ID = range(6)


# Layer module -> input properties and state sizes reported beside it.
EXTRA = {
    "credentials": ["credentials.verify_repeat_share"],
    "market": ["market.offers_live"],
    "settlement": ["settlement.accept_share", "settlement.journal_bytes_per_record"],
    "fabric": [
        "fabric.calendar_depth", "fabric.refusal_share",
        "fabric.challenges_held", "fabric.used_challenges_held",
    ],
    "envelope": ["envelope.bytes_per_op"],
}


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names: list[str] = []
    for module, funcs in LAYERS.items():
        for qual in funcs:
            base = f"{module}.{qual}"
            if module not in SELF_ONLY:
                names.append(f"{base}.calls")
            names.append(f"{base}.self_us")
        names.extend(EXTRA.get(module, ()))
    for role in ROLES:
        names += [f"{HANDLE}.{role}.calls", f"{HANDLE}.{role}.self_us"]
    names += ["services.wire_us", "trace.overhead_share"]
    return names


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = 0
        self.op_kinds: dict[int, str] = {}
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack: list[tuple[int, str]] = []  # open (id, name)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        # Input properties measured at layer boundaries.
        self.verifications = 0
        self.verify_repeats = 0
        self._verified: set[bytes] = set()
        self.offers_seen: list[int] = []
        self.calendar_seen: list[int] = []
        self.encoded_bytes = 0

    # -- ops ------------------------------------------------------------------

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op = op_id
        self.op_kinds[op_id] = kind
        self.active = True

    def end_op(self) -> None:
        self.active = False

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list) -> int:
        if stack:
            return stack[-1][0]
        for span_id, name in reversed(self._main_stack):  # a server thread
            if name == SOCKET_SEND:
                return span_id
        return self._main_stack[-1][0] if self._main_stack else -1

    def _run(self, name: str, fn, args, kwargs):
        stack = self._stack()
        parent = self._parent(stack)
        span_id = next(self._ids)
        stack.append((span_id, name))
        op = self.op
        start = time.perf_counter()
        cpu = time.thread_time() if name in CPU_TIMED else None
        try:
            return fn(*args, **kwargs)
        finally:
            if cpu is None:
                end = time.perf_counter()
            else:
                end = start + time.thread_time() - cpu
            stack.pop()
            self.spans.append((name, start, end, parent, op, span_id))

    def _wrap(self, name, fn, label=None, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                tracer._run(HOOK, hook, args, kwargs)
            result = tracer._run(label(args) if label else name, fn, args, kwargs)
            if name == "envelope.encode":
                tracer.encoded_bytes += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- hooks: input properties seen at the boundary -----------------------

    def _seen_verify(self, cred) -> None:
        canonical = self._originals["credentials.canonical_bytes"]
        key = hashlib.sha256(
            "\x00".join([cred.authorizer, repr(cred.signature)]).encode("utf-8")
            + b"\x00" + canonical(cred)
        ).digest()
        self.verifications += 1
        if key in self._verified:
            self.verify_repeats += 1
        else:
            self._verified.add(key)

    def _seen_compose(self, house, _query) -> None:
        self.offers_seen.append(len(house))

    def _seen_booking(self, ne, *_args) -> None:
        self.calendar_seen.append(max((len(c) for c in ne.calendar.values()), default=0))

    # -- install ---------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "credentials.verify_signature": self._seen_verify,
            "market.ClearingHouse.compose_path": self._seen_compose,
            "fabric.NetworkElement.book_future": self._seen_booking,
        }
        targets = [(m, q, f"{m}.{q}") for m, funcs in LAYERS.items() for q in funcs]
        targets += [("services", q, f"services.{q}") for q in TRANSPORT_SENDS]
        targets.append(("services", "ServiceCore.handle", HANDLE))
        for module_name, qual, name in targets:
            module = importlib.import_module(f"bandx.{module_name}")
            label = (lambda args: f"{HANDLE}.{args[0].name}") if name == HANDLE else None
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, label, hooks.get(name)))
                else:
                    wrapped = self._wrap(name, raw, label, hooks.get(name))
                self._originals[name] = raw
                self._patched.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            fn = getattr(module, qual)
            self._originals[name] = fn
            wrapped = self._wrap(name, fn, label, hooks.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "bandx" or mod_name.startswith("bandx.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            covered[span[PARENT]] += span[END] - span[START]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for span in self.spans:
            calls[span[NAME]] += 1
            self_s[span[NAME]] += span[END] - span[START] - covered[span[ID]]
        return calls, self_s

    def calls_in(self, kind: str) -> Counter:
        """Span counts by name, restricted to ops of one kind."""
        out: Counter = Counter()
        for span in self.spans:
            if self.op_kinds.get(span[OP]) == kind:
                out[span[NAME]] += 1
        return out

    def wire_seconds(self) -> list[float]:
        """Per socket round trip: client duration minus the server's
        handle time spent under it."""
        by_id = {span[ID]: span for span in self.spans}
        handled: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if not span[NAME].startswith(HANDLE):
                continue
            up = by_id.get(span[PARENT])
            while up is not None and up[NAME] != SOCKET_SEND:
                up = by_id.get(up[PARENT])
            if up is not None:
                handled[up[ID]] += span[END] - span[START]
        return [
            span[END] - span[START] - handled[span[ID]]
            for span in self.spans
            if span[NAME] == SOCKET_SEND
        ]

    def write(self, path: Path) -> None:
        spans = sorted(self.spans, key=lambda span: span[ID])
        t0 = spans[0][START] if spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\top\top_kind\n")
            for name, start, end, parent, op, span_id in spans:
                fh.write(
                    f"{span_id}\t{name}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\t"
                    f"{parent}\t{op}\t{self.op_kinds.get(op, '-')}\n"
                )
