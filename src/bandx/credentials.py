"""Credential engine: parse, canonicalize, sign, verify, and evaluate
the credential language that carries every offer, check, and reservation.

A credential is a block of header fields in fixed order::

    Keynote-Version: 2
    Local-Constants: ALICE_KEY = "ed25519-base64:..."
    Authorizer: BANK_KEY
    Licensees: ALICE_KEY
    Conditions: app_domain == "BAND-X" && &amount < 5.01 -> "true";
    Signature: "sig-ed25519-base64:..."

Continuation lines start with whitespace; `#` starts a comment outside
string literals. Local constants substitute (once, left to right) into
the Authorizer and Licensees fields. The full grammar and the canonical
byte layout are documented in docs/formats.md.

Signatures cover `canonical_bytes`, a deterministic rendering of every
field except Signature, so semantically identical texts verify
identically regardless of layout. Parsed texts and successful
verifications are remembered (bounded; dispute replay bypasses the
signature memo); see "Parse memo" and "Signature memo" in
docs/formats.md.
"""

from __future__ import annotations

import base64
import hashlib
import re
import threading
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation
from typing import Iterable, Mapping, NamedTuple

from .keys import (
    POLICY,
    KeyMismatch,
    KeyPair,
    PublicKeyId,
    UnsupportedAlgorithm,
    scheme_for_signature,
)

__all__ = [
    "ActionAttributeSet",
    "Anyone",
    "BadSignature",
    "Clause",
    "Compare",
    "CAnd",
    "CNot",
    "COr",
    "Credential",
    "CredentialSyntaxError",
    "KeyLeaf",
    "Literal",
    "PAnd",
    "POr",
    "UnknownVersion",
    "UnresolvedConstant",
    "UnverifiedCredential",
    "build_credential",
    "canonical_bytes",
    "check_compliance",
    "credential_id",
    "eval_conditions",
    "parse_credential",
    "parse_credential_blocks",
    "render_credential",
    "sign_credential",
    "verify_signature",
]


class CredentialSyntaxError(Exception):
    """Malformed credential text; carries position and what was expected."""

    def __init__(self, message: str, position: int = -1, expected: str = ""):
        self.position = position
        self.expected = expected
        suffix = f" at offset {position}" if position >= 0 else ""
        suffix += f" (expected {expected})" if expected else ""
        super().__init__(message + suffix)


class UnknownVersion(Exception):
    pass


class UnresolvedConstant(Exception):
    pass


class UnverifiedCredential(Exception):
    """A credential failed signature verification inside a compliance check."""


class BadSignature(Exception):
    """A credential whose signature must verify did not."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class _Anyone:
    """Licensees wildcard: an empty Licensees field authorizes anyone."""

    def __repr__(self) -> str:
        return "Anyone"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Anyone)

    def __hash__(self) -> int:
        return hash("Anyone")


Anyone = _Anyone()


@dataclass(frozen=True)
class KeyLeaf:
    key: str  # canonical <algorithm>:<base64>


@dataclass(frozen=True)
class PAnd:
    children: tuple


@dataclass(frozen=True)
class POr:
    children: tuple


@dataclass(frozen=True)
class Literal:
    kind: str  # "string" | "number"
    text: str  # lexeme, unquoted for strings


@dataclass(frozen=True)
class Compare:
    attr: str
    op: str  # == != < <= > >=
    literal: Literal
    numeric: bool  # True when the attribute reference carried the & prefix


@dataclass(frozen=True)
class CAnd:
    children: tuple


@dataclass(frozen=True)
class COr:
    children: tuple


@dataclass(frozen=True)
class CNot:
    child: object


@dataclass(frozen=True)
class Clause:
    test: object
    result: str  # "true" | "false"


@dataclass(frozen=True)
class Credential:
    version: int
    local_constants: tuple  # ((name, value), ...) sorted by name
    authorizer: str  # canonical key id or the POLICY literal
    licensees: object  # KeyLeaf | PAnd | POr | Anyone
    clauses: tuple | None  # tuple[Clause] or None when Conditions is absent/empty
    signature: tuple | None = None  # (sig-algorithm, base64)
    source_text: str | None = field(default=None, compare=False)
    unchecked: bool = field(default=False, compare=False)

    @property
    def authorizer_key(self) -> PublicKeyId:
        if self.authorizer == POLICY:
            raise ValueError("POLICY credential has no authorizer key")
        return PublicKeyId.from_text(self.authorizer)

    def text(self) -> str:
        return self.source_text if self.source_text is not None else render_credential(self)


class ActionAttributeSet:
    """Flat attribute map describing one transaction; app_domain is required.

    One action set is shared by every credential evaluated in a single
    compliance query. Values stay opaque strings until a comparison
    coerces them.
    """

    _NAME_RE = re.compile(r"^[A-Za-z_]\w*$")

    def __init__(self, attrs: Mapping[str, str]):
        out: dict[str, str] = {}
        for name, value in attrs.items():
            if not self._NAME_RE.match(name):
                raise ValueError(f"attribute name must be an identifier: {name!r}")
            out[name] = str(value)
        if "app_domain" not in out:
            raise ValueError("action attribute set requires app_domain")
        self._attrs = out

    @classmethod
    def of(cls, **attrs: str) -> "ActionAttributeSet":
        return cls(attrs)

    def get(self, name: str) -> str | None:
        return self._attrs.get(name)

    def items(self) -> Iterable[tuple[str, str]]:
        return self._attrs.items()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ActionAttributeSet) and self._attrs == other._attrs

    def __repr__(self) -> str:
        return f"ActionAttributeSet({self._attrs!r})"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_OPS = ("&&", "||", "==", "!=", "<=", ">=", "->", "<", ">", "=", "!", "(", ")", ";", "&")
_OP_TEXT = {op: op for op in _OPS}  # one shared string per operator
# One alternative per token kind, tried in this order at each position;
# an unnamed match is whitespace, BAD is a character no token starts with.
_TOKEN_RE = re.compile(
    r"\s+"
    r'|"(?P<STRING>(?:[^"\\]|\\.)*)"'
    r"|(?P<NUMBER>\d+(?:\.\d+)?)"
    r"|(?P<NAME>[A-Za-z_]\w*)"
    r"|(?P<OP>" + "|".join(re.escape(op) for op in _OPS) + ")"
    r"|(?P<BAD>.)",
    re.DOTALL,
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


class _Token(NamedTuple):
    kind: str  # NAME STRING NUMBER OP END
    text: str
    pos: int


def _tokenize(body: str, base_pos: int = 0) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(body):
        kind = m.lastgroup
        if kind is None:
            continue
        text = m.group(kind)
        pos = base_pos + m.start()
        if kind == "STRING":
            if "\\" in text:
                text = _ESCAPE_RE.sub(r"\1", text)
        elif kind == "OP":
            text = _OP_TEXT[text]
        elif kind == "BAD":
            if text == '"':
                raise CredentialSyntaxError("unterminated string literal", pos, 'closing "')
            raise CredentialSyntaxError(f"unexpected character {text!r}", pos)
        tokens.append(_Token(kind, text, pos))
    tokens.append(_Token("END", "", base_pos + len(body)))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0

    def peek(self) -> _Token:
        return self._tokens[self._i]

    def next(self) -> _Token:
        tok = self._tokens[self._i]
        if tok.kind != "END":
            self._i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.next()
        if tok.kind != "OP" or tok.text != op:
            raise CredentialSyntaxError(f"got {tok.text!r}", tok.pos, repr(op))
        return tok

    def at_end(self) -> bool:
        return self.peek().kind == "END"


# ---------------------------------------------------------------------------
# Field assembly and parsing
# ---------------------------------------------------------------------------

_HEADERS = (
    "Keynote-Version",
    "Local-Constants",
    "Authorizer",
    "Licensees",
    "Conditions",
    "Signature",
)
_HEADER_ORDER = {name: i for i, name in enumerate(_HEADERS)}
_COMPARISONS = frozenset(("==", "!=", "<", "<=", ">", ">="))


# Code before the first `#` outside a string literal; an unterminated
# literal runs to the end of the line.
_CODE_RE = re.compile(r'(?:[^"#]+|"(?:[^"\\]|\\.)*"?)*', re.DOTALL)


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line
    return line[: _CODE_RE.match(line).end()]


def _logical_fields(text: str) -> list[tuple[str, str, int]]:
    """Assemble (header, body, offset) triples from physical lines."""
    fields: list[tuple[str, list[str], int]] = []
    offset = 0
    for raw in text.splitlines(keepends=True):
        line = _strip_comment(raw.rstrip("\n"))
        pos = offset
        offset += len(raw)
        if not line.strip():
            continue
        if line[0].isspace():
            if not fields:
                raise CredentialSyntaxError("continuation line before any field", pos)
            fields[-1][1].append(line)
            continue
        name, sep, rest = line.partition(":")
        if not sep or name not in _HEADERS:
            raise CredentialSyntaxError(f"unknown field {name!r}", pos, "a credential header")
        fields.append((name, [rest], pos))
    return [(name, " ".join(parts), pos) for name, parts, pos in fields]


def _parse_constants(stream: _TokenStream) -> tuple:
    out: list[tuple[str, str]] = []
    seen: set[str] = set()
    while not stream.at_end():
        tok = stream.next()
        if tok.kind != "NAME":
            raise CredentialSyntaxError(f"got {tok.text!r}", tok.pos, "constant name")
        if tok.text in seen:
            raise CredentialSyntaxError(f"duplicate constant {tok.text!r}", tok.pos)
        stream.expect_op("=")
        val = stream.next()
        if val.kind != "STRING":
            raise CredentialSyntaxError(f"got {val.text!r}", val.pos, "quoted constant value")
        out.append((tok.text, val.text))
        seen.add(tok.text)
    return tuple(out)


def _resolve_principal(
    tok: _Token, constants: Mapping[str, str], allow_policy: bool = False
) -> str:
    """A principal leaf is a quoted key id or a constant name bound to one."""
    if tok.kind == "STRING":
        text = tok.text
    elif tok.kind == "NAME":
        if tok.text == POLICY:
            if allow_policy:
                return POLICY
            raise CredentialSyntaxError(
                "POLICY cannot appear as a licensee", tok.pos, "key or constant name"
            )
        if tok.text not in constants:
            raise UnresolvedConstant(f"constant {tok.text!r} is not defined")
        text = constants[tok.text]
    else:
        raise CredentialSyntaxError(f"got {tok.text!r}", tok.pos, "key or constant name")
    try:
        return PublicKeyId.from_text(text).canonical()
    except ValueError as exc:
        raise CredentialSyntaxError(str(exc), tok.pos, "key id") from exc


def _chain(stream: _TokenStream, op: str, node: type, operand, *args):
    """`operand (op operand)*`, flattening nested `node`s into one node."""
    children = [operand(stream, *args)]
    while (tok := stream.peek()).kind == "OP" and tok.text == op:
        stream.next()
        children.append(operand(stream, *args))
    if len(children) == 1:
        return children[0]
    flat: list = []
    for c in children:
        flat.extend(c.children if isinstance(c, node) else (c,))
    return node(tuple(flat))


def _parse_principal_expr(stream: _TokenStream, constants: Mapping[str, str]):
    return _chain(stream, "||", POr, _principal_and, constants)


def _principal_and(stream: _TokenStream, constants: Mapping[str, str]):
    return _chain(stream, "&&", PAnd, _principal_term, constants)


def _principal_term(stream: _TokenStream, constants: Mapping[str, str]):
    tok = stream.peek()
    if tok.kind == "OP" and tok.text == "(":
        stream.next()
        inner = _parse_principal_expr(stream, constants)
        stream.expect_op(")")
        return inner
    return KeyLeaf(_resolve_principal(stream.next(), constants))


def _parse_condition_expr(stream: _TokenStream):
    return _chain(stream, "||", COr, _condition_and)


def _condition_and(stream: _TokenStream):
    return _chain(stream, "&&", CAnd, _condition_atom)


def _condition_atom(stream: _TokenStream):
    tok = stream.peek()
    if tok.kind == "OP" and tok.text == "(":
        stream.next()
        inner = _parse_condition_expr(stream)
        stream.expect_op(")")
        return inner
    if tok.kind == "OP" and tok.text == "!":
        stream.next()
        return CNot(_condition_atom(stream))
    return _comparison(stream)


def _comparison(stream: _TokenStream) -> Compare:
    numeric = False
    tok = stream.next()
    if tok.kind == "OP" and tok.text == "&":
        numeric = True
        tok = stream.next()
    if tok.kind != "NAME":
        raise CredentialSyntaxError(f"got {tok.text!r}", tok.pos, "attribute name")
    op_tok = stream.next()
    if op_tok.kind != "OP" or op_tok.text not in _COMPARISONS:
        raise CredentialSyntaxError(f"got {op_tok.text!r}", op_tok.pos, "comparison operator")
    lit = stream.next()
    if lit.kind == "STRING":
        literal = Literal("string", lit.text)
    elif lit.kind == "NUMBER":
        literal = Literal("number", lit.text)
    else:
        raise CredentialSyntaxError(f"got {lit.text!r}", lit.pos, "literal")
    return Compare(tok.text, op_tok.text, literal, numeric)


def _parse_clauses(stream: _TokenStream) -> tuple | None:
    if stream.at_end():
        return None
    clauses: list[Clause] = []
    while not stream.at_end():
        test = _parse_condition_expr(stream)
        result = "true"
        tok = stream.peek()
        if tok.kind == "OP" and tok.text == "->":
            stream.next()
            res = stream.next()
            if res.kind != "STRING" or res.text not in ("true", "false"):
                raise CredentialSyntaxError(
                    f"got {res.text!r}", res.pos, '"true" or "false"'
                )
            result = res.text
        clauses.append(Clause(test, result))
        tok = stream.peek()
        if tok.kind == "OP" and tok.text == ";":
            stream.next()
            continue
        if stream.at_end():
            break
        raise CredentialSyntaxError(f"got {tok.text!r}", tok.pos, "';' or end of conditions")
    return tuple(clauses)


# Parsed credentials, keyed by (text, unchecked): the whole text, never a
# digest of it, so no collision can hand back another credential. A
# Credential is immutable and parsing is a pure function of the key, so
# a remembered result equals a fresh parse. Failures are not kept. The
# oldest entry goes first once the bound is hit.
_PARSE_MEMO_SIZE = 256
_parsed: dict[tuple[str, bool], Credential] = {}
_parsed_lock = threading.Lock()


def parse_credential(text: str, unchecked: bool = False) -> Credential:
    """Parse one credential block.

    `unchecked` marks the credential as exempt from signature checking in
    compliance queries; it exists for conformance fixtures whose published
    keys are truncated and unverifiable. Production paths never set it.
    A repeated text returns the credential parsed the first time (see
    "Parse memo" in docs/formats.md).
    """
    key = (text, unchecked)
    cred = _parsed.get(key)
    if cred is not None:
        return cred
    cred = _parse_credential(text, unchecked)
    with _parsed_lock:
        if key not in _parsed:
            if len(_parsed) >= _PARSE_MEMO_SIZE:
                del _parsed[next(iter(_parsed))]
            _parsed[key] = cred
    return cred


def _parse_credential(text: str, unchecked: bool) -> Credential:
    fields = _logical_fields(text)
    last = -1
    by_name: dict[str, tuple[str, int]] = {}
    for name, body, pos in fields:
        idx = _HEADER_ORDER[name]
        if idx <= last:
            raise CredentialSyntaxError(
                f"field {name!r} out of order or duplicated", pos
            )
        last = idx
        by_name[name] = (body, pos)

    if "Keynote-Version" not in by_name:
        raise CredentialSyntaxError("missing Keynote-Version field", 0)
    body, pos = by_name["Keynote-Version"]
    vstream = _TokenStream(_tokenize(body, pos))
    vtok = vstream.next()
    if vtok.kind != "NUMBER" or not vstream.at_end() or "." in vtok.text:
        raise CredentialSyntaxError(f"got {vtok.text!r}", vtok.pos, "integer version")
    version = int(vtok.text)
    if version != 2:
        raise UnknownVersion(f"unsupported credential version {version}")

    constants: tuple = ()
    if "Local-Constants" in by_name:
        body, pos = by_name["Local-Constants"]
        constants = _parse_constants(_TokenStream(_tokenize(body, pos)))
    cmap = dict(constants)
    constants = tuple(sorted(constants))  # substitution done; order is immaterial

    if "Authorizer" not in by_name:
        raise CredentialSyntaxError("missing Authorizer field", 0)
    body, pos = by_name["Authorizer"]
    astream = _TokenStream(_tokenize(body, pos))
    authorizer = _resolve_principal(astream.next(), cmap, allow_policy=True)
    if not astream.at_end():
        tok = astream.peek()
        raise CredentialSyntaxError(
            "authorizer must be a single key or POLICY", tok.pos, "end of field"
        )

    if "Licensees" not in by_name:
        raise CredentialSyntaxError("missing Licensees field", 0)
    body, pos = by_name["Licensees"]
    lstream = _TokenStream(_tokenize(body, pos))
    if lstream.at_end():
        licensees: object = Anyone
    else:
        licensees = _parse_principal_expr(lstream, cmap)
        if not lstream.at_end():
            tok = lstream.peek()
            raise CredentialSyntaxError(f"got {tok.text!r}", tok.pos, "end of field")

    clauses: tuple | None = None
    if "Conditions" in by_name:
        body, pos = by_name["Conditions"]
        clauses = _parse_clauses(_TokenStream(_tokenize(body, pos)))

    signature: tuple | None = None
    if "Signature" in by_name:
        body, pos = by_name["Signature"]
        sstream = _TokenStream(_tokenize(body, pos))
        stok = sstream.next()
        if stok.kind != "STRING" or not sstream.at_end():
            raise CredentialSyntaxError(f"got {stok.text!r}", stok.pos, "quoted signature")
        alg, sep, material = stok.text.partition(":")
        if not sep or not material:
            raise CredentialSyntaxError(
                "signature must be <algorithm>:<base64>", stok.pos
            )
        signature = (alg, material)

    if authorizer == POLICY and signature is not None:
        raise CredentialSyntaxError("POLICY credentials carry no signature", 0)

    return Credential(
        version=version,
        local_constants=constants,
        authorizer=authorizer,
        licensees=licensees,
        clauses=clauses,
        signature=signature,
        source_text=text,
        unchecked=unchecked,
    )


def parse_credential_blocks(text: str, unchecked: bool = False) -> list[Credential]:
    """Split newline-separated credential blocks on Keynote-Version headers."""
    blocks: list[list[str]] = []
    for raw in text.splitlines(keepends=True):
        if raw.startswith("Keynote-Version"):
            blocks.append([raw])
        elif blocks:
            blocks[-1].append(raw)
        elif _strip_comment(raw.rstrip("\n")).strip():
            raise CredentialSyntaxError("text before first credential block", 0)
    return [parse_credential("".join(b), unchecked=unchecked) for b in blocks]


# ---------------------------------------------------------------------------
# Canonical rendering
# ---------------------------------------------------------------------------

def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render_principal(expr: object) -> str:
    if expr is Anyone or isinstance(expr, _Anyone):
        return ""
    if isinstance(expr, KeyLeaf):
        return _quote(expr.key)
    if isinstance(expr, PAnd):
        parts = [
            f"({_render_principal(c)})" if isinstance(c, POr) else _render_principal(c)
            for c in expr.children
        ]
        return " && ".join(parts)
    if isinstance(expr, POr):
        return " || ".join(_render_principal(c) for c in expr.children)
    raise TypeError(f"not a principal expression: {expr!r}")


def _render_literal(lit: Literal) -> str:
    return _quote(lit.text) if lit.kind == "string" else lit.text


def _render_condition(expr: object) -> str:
    if isinstance(expr, Compare):
        prefix = "&" if expr.numeric else ""
        return f"{prefix}{expr.attr} {expr.op} {_render_literal(expr.literal)}"
    if isinstance(expr, CNot):
        inner = _render_condition(expr.child)
        if isinstance(expr.child, (CAnd, COr)):
            return f"!({inner})"
        return f"!{inner}" if isinstance(expr.child, CNot) else f"!({inner})"
    if isinstance(expr, CAnd):
        parts = [
            f"({_render_condition(c)})" if isinstance(c, COr) else _render_condition(c)
            for c in expr.children
        ]
        return " && ".join(parts)
    if isinstance(expr, COr):
        return " || ".join(_render_condition(c) for c in expr.children)
    raise TypeError(f"not a condition expression: {expr!r}")


def _render_clauses(clauses: tuple | None) -> str:
    if not clauses:
        return ""
    return " ".join(
        f"{_render_condition(c.test)} -> {_quote(c.result)};" for c in clauses
    )


def canonical_bytes(cred: Credential) -> bytes:
    """Deterministic encoding of every field except Signature.

    Field order is fixed (version, constants sorted by name, authorizer,
    licensees, conditions); tokens are single-space separated and each
    field line is newline-terminated. This is what signatures cover.
    """
    consts = " ".join(
        f"{name} = {_quote(value)}" for name, value in sorted(cred.local_constants)
    )
    auth = POLICY if cred.authorizer == POLICY else _quote(cred.authorizer)
    lines = [
        f"Keynote-Version: {cred.version}",
        "Local-Constants:" + (f" {consts}" if consts else ""),
        f"Authorizer: {auth}",
        "Licensees:" + (f" {_render_principal(cred.licensees)}" if cred.licensees is not Anyone else ""),
        "Conditions:" + (f" {_render_clauses(cred.clauses)}" if cred.clauses else ""),
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def render_credential(cred: Credential) -> str:
    """Canonical text form; re-parsing it reproduces the same canonical bytes."""
    text = canonical_bytes(cred).decode("utf-8")
    if cred.signature is not None:
        alg, material = cred.signature
        text += f"Signature: {_quote(f'{alg}:{material}')}\n"
    return text


def credential_id(cred: Credential) -> str:
    """Content hash of the canonical bytes; stable id for stores and ledgers."""
    return hashlib.sha256(canonical_bytes(cred)).hexdigest()


# ---------------------------------------------------------------------------
# Signing and verification
# ---------------------------------------------------------------------------

def sign_credential(cred: Credential, pair: KeyPair) -> Credential:
    if cred.authorizer == POLICY:
        raise KeyMismatch("POLICY credentials are locally trusted, not signed")
    if cred.authorizer != pair.public_id.canonical():
        raise KeyMismatch(
            f"authorizer {cred.authorizer} does not match signing key {pair.public_id}"
        )
    sig = pair.sign(canonical_bytes(cred))
    signed = replace(
        cred,
        signature=(pair.scheme.sig_algorithm, base64.b64encode(sig).decode("ascii")),
        source_text=None,
    )
    return replace(signed, source_text=render_credential(signed))


# Successful verifications, keyed by _memo_key. A credential is immutable
# and verification is a pure function of the key, the signature and the
# canonical bytes, so a remembered success decides nothing differently.
# Failures are not kept. The oldest entry goes first once the bound is hit.
_MEMO_SIZE = 4096
_verified: dict[bytes, None] = {}
_verified_lock = threading.Lock()


def _memo_key(cred: Credential, message: bytes) -> bytes:
    """One SHA-256 over authorizer, signature tag, signature material and
    canonical bytes, each length-prefixed so the encoding is unambiguous."""
    alg, material = cred.signature
    h = hashlib.sha256()
    for part in (cred.authorizer.encode("utf-8"), alg.encode("utf-8"),
                 material.encode("utf-8"), message):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()


def verify_signature(cred: Credential) -> bool:
    """True iff the signature validates under the authorizer key.

    POLICY credentials are locally trusted and return True. Raises
    UnsupportedAlgorithm for signature tags with no registered scheme.
    A success is remembered (see _memo_key) and not verified again.
    """
    if cred.authorizer == POLICY:
        return True
    if cred.signature is None:
        return False
    message = canonical_bytes(cred)
    key = _memo_key(cred, message)
    if key in _verified:
        return True
    if not _signature_valid(cred, message):
        return False
    with _verified_lock:
        if len(_verified) >= _MEMO_SIZE:
            del _verified[next(iter(_verified))]
        _verified[key] = None
    return True


def _verify_signature_fresh(cred: Credential) -> bool:
    """verify_signature without the memo: always runs the scheme."""
    if cred.authorizer == POLICY:
        return True
    if cred.signature is None:
        return False
    return _signature_valid(cred, canonical_bytes(cred))


def _signature_valid(cred: Credential, message: bytes) -> bool:
    alg, material = cred.signature
    scheme = scheme_for_signature(alg)
    try:
        raw = base64.b64decode(material.encode("ascii"), validate=True)
    except Exception:
        return False
    return scheme.verify(cred.authorizer_key, message, raw)


# ---------------------------------------------------------------------------
# Condition evaluation
# ---------------------------------------------------------------------------

_NUM_PREFIX_RE = re.compile(r"^\d+(\.\d+)?")

_NUM_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _numeric_prefix(text: str) -> Decimal | None:
    m = _NUM_PREFIX_RE.match(text.strip())
    if not m:
        return None
    try:
        return Decimal(m.group(0))
    except InvalidOperation:
        return None


def _eval_compare(cmp: Compare, action: ActionAttributeSet) -> bool:
    value = action.get(cmp.attr)
    if value is None:
        return False
    if cmp.numeric:
        left = _numeric_prefix(value)
        right = (
            _numeric_prefix(cmp.literal.text)
            if cmp.literal.kind == "string"
            else Decimal(cmp.literal.text)
        )
        if left is None or right is None:
            return False
        return _NUM_OPS[cmp.op](left, right)
    return _NUM_OPS[cmp.op](value, cmp.literal.text)


def _eval_expr(expr: object, action: ActionAttributeSet) -> bool:
    if isinstance(expr, Compare):
        return _eval_compare(expr, action)
    if isinstance(expr, CAnd):
        return all(_eval_expr(c, action) for c in expr.children)
    if isinstance(expr, COr):
        return any(_eval_expr(c, action) for c in expr.children)
    if isinstance(expr, CNot):
        return not _eval_expr(expr.child, action)
    return False


def eval_conditions(clauses: tuple | None, action: ActionAttributeSet) -> bool:
    """Total evaluation: a clause contributes true iff its test passes and
    its result is "true"; missing attributes and malformed coercions make
    the enclosing comparison false, never an exception."""
    if clauses is None:
        return True
    return any(
        c.result == "true" and _eval_expr(c.test, action) for c in clauses
    )


# ---------------------------------------------------------------------------
# Compliance
# ---------------------------------------------------------------------------

def _licensees_satisfied(expr: object, authorized: Mapping[str, bool]) -> bool:
    if expr is Anyone or isinstance(expr, _Anyone):
        return True
    if isinstance(expr, KeyLeaf):
        return authorized.get(expr.key, False)
    if isinstance(expr, PAnd):
        return all(_licensees_satisfied(c, authorized) for c in expr.children)
    if isinstance(expr, POr):
        return any(_licensees_satisfied(c, authorized) for c in expr.children)
    return False


def _principal_leaves(expr: object) -> set[str]:
    if isinstance(expr, KeyLeaf):
        return {expr.key}
    if isinstance(expr, (PAnd, POr)):
        out: set[str] = set()
        for c in expr.children:
            out |= _principal_leaves(c)
        return out
    return set()


def check_compliance(
    policy: Iterable[Credential],
    creds: Iterable[Credential],
    requesters: Iterable[PublicKeyId | str] = (),
    action: ActionAttributeSet | None = None,
    *,
    fresh: bool = False,
) -> bool:
    """Delegation-graph check deciding every payment and reservation.

    Monotone least-fixpoint over principals, all initialized false: a
    principal becomes authorized when it is a requester, or when some
    credential it authored has true conditions and a satisfied licensees
    expression (And = all children, Or = any, Anyone = true). Returns
    POLICY's final value. The iteration is bounded by the principal
    count, so cyclic delegation terminates and self-delegation
    contributes nothing.

    Every non-POLICY credential must carry a valid signature, except
    fixture credentials parsed in unchecked mode. `fresh` verifies every
    signature anew instead of trusting remembered successes; dispute
    replay uses it to stay an independent re-verification.
    """
    if action is None:
        raise ValueError("compliance check requires an action attribute set")
    verify = _verify_signature_fresh if fresh else verify_signature
    pool = list(policy) + list(creds)
    for cred in pool:
        if cred.authorizer == POLICY or cred.unchecked:
            continue
        try:
            ok = verify(cred)
        except UnsupportedAlgorithm as exc:
            raise UnverifiedCredential(str(exc)) from exc
        if not ok:
            raise UnverifiedCredential(
                f"credential {credential_id(cred)[:12]} failed signature verification"
            )

    req = {
        r.canonical() if isinstance(r, PublicKeyId) else str(r) for r in requesters
    }
    principals: set[str] = {POLICY} | req
    for cred in pool:
        principals.add(cred.authorizer)
        principals |= _principal_leaves(cred.licensees)

    authorized = {p: p in req for p in principals}
    for _ in range(len(principals)):
        changed = False
        for cred in pool:
            if authorized.get(cred.authorizer, False):
                continue
            if not eval_conditions(cred.clauses, action):
                continue
            if _licensees_satisfied(cred.licensees, authorized):
                authorized[cred.authorizer] = True
                changed = True
        if not changed:
            break
    return authorized.get(POLICY, False)


# ---------------------------------------------------------------------------
# Construction helper
# ---------------------------------------------------------------------------

def build_credential(
    authorizer: PublicKeyId | str,
    licensees: str,
    conditions: str,
    constants: Mapping[str, str] | None = None,
) -> Credential:
    """Assemble a credential by formatting and re-parsing text, so every
    programmatic construction is grammar-valid by definition.

    `licensees` and `conditions` are field bodies in the credential
    language; constant names may be referenced if provided.
    """
    auth = authorizer.canonical() if isinstance(authorizer, PublicKeyId) else str(authorizer)
    lines = ["Keynote-Version: 2"]
    if constants:
        defs = " ".join(f"{n} = {_quote(v)}" for n, v in constants.items())
        lines.append(f"Local-Constants: {defs}")
    lines.append(f"Authorizer: {auth if auth == POLICY else _quote(auth)}")
    lines.append(f"Licensees: {licensees}".rstrip())
    lines.append(f"Conditions: {conditions}".rstrip())
    return parse_credential("\n".join(lines) + "\n")
