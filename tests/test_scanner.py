"""The regex scanner, the structural POLICY builders and the parse memo
against the character-loop scanner, the text-built POLICY and the fresh
parse they replaced.

`_reference_tokenize` and `_reference_strip_comment` are frozen copies of
the earlier code; the scanner must agree with them token for token and
error for error on any input. `parse_credential` must return what
`_parse_credential`, the parser without the memo, returns for the same
text.
"""

from __future__ import annotations

import gc
import re
import sys
import threading
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from bandx.credentials import (
    Anyone,
    CAnd,
    Clause,
    CNot,
    Compare,
    COr,
    Credential,
    CredentialSyntaxError,
    KeyLeaf,
    Literal,
    PAnd,
    POr,
    UnknownVersion,
    _parse_credential,
    _strip_comment,
    _tokenize,
    build_credential,
    canonical_bytes,
    parse_credential,
    render_credential,
    sign_credential,
)
from bandx import credentials
from bandx.envelope import decode
from bandx.keys import POLICY, generate_keypair
from bandx.payments import build_keepalive_policy, build_merchant_policy

from conftest import make_chain

# ---------------------------------------------------------------------------
# Frozen reference: the character-loop scanner
# ---------------------------------------------------------------------------

_REF_OPS = ("&&", "||", "==", "!=", "<=", ">=", "->", "<", ">", "=", "!", "(", ")", ";", "&")
_REF_NAME_RE = re.compile(r"[A-Za-z_]\w*")
_REF_NUMBER_RE = re.compile(r"\d+(\.\d+)?")


def _reference_tokenize(body: str, base_pos: int = 0) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(body)
    while i < n:
        c = body[i]
        if c.isspace():
            i += 1
            continue
        if c == '"':
            j = i + 1
            out = []
            while j < n:
                ch = body[j]
                if ch == "\\" and j + 1 < n:
                    out.append(body[j + 1])
                    j += 2
                    continue
                if ch == '"':
                    break
                out.append(ch)
                j += 1
            else:
                raise CredentialSyntaxError(
                    "unterminated string literal", base_pos + i, 'closing "'
                )
            tokens.append(("STRING", "".join(out), base_pos + i))
            i = j + 1
            continue
        m = _REF_NUMBER_RE.match(body, i)
        if m:
            tokens.append(("NUMBER", m.group(0), base_pos + i))
            i = m.end()
            continue
        m = _REF_NAME_RE.match(body, i)
        if m:
            tokens.append(("NAME", m.group(0), base_pos + i))
            i = m.end()
            continue
        for op in _REF_OPS:
            if body.startswith(op, i):
                tokens.append(("OP", op, base_pos + i))
                i += len(op)
                break
        else:
            raise CredentialSyntaxError(f"unexpected character {c!r}", base_pos + i)
    tokens.append(("END", "", base_pos + n))
    return tokens


def _reference_strip_comment(line: str) -> str:
    in_string = False
    i = 0
    while i < len(line):
        c = line[i]
        if c == "\\" and in_string:
            i += 2
            continue
        if c == '"':
            in_string = not in_string
        elif c == "#" and not in_string:
            return line[:i]
        i += 1
    return line


def _outcome(scan, *args):
    try:
        return [tuple(token) for token in scan(*args)]
    except CredentialSyntaxError as exc:
        return ("error", str(exc), exc.position, exc.expected)


# Characters that start or end tokens, escapes, comments and strays, plus
# arbitrary ones (other scripts, Unicode digits and spaces, controls).
_TRICKY = st.sampled_from(list('"\\#&|=!<>-();._aZ09 \t ٣é$'))
_BODIES = st.text(_TRICKY | st.characters(), max_size=60)


@settings(max_examples=400, deadline=None)
@given(_BODIES, st.integers(min_value=0, max_value=500))
def test_scanner_matches_reference(body, base_pos):
    assert _outcome(_tokenize, body, base_pos) == _outcome(_reference_tokenize, body, base_pos)


@settings(max_examples=400, deadline=None)
@given(_BODIES)
def test_strip_comment_matches_reference(line):
    assert _strip_comment(line) == _reference_strip_comment(line)


def test_scanner_reference_cases():
    cases = [
        r'a == "x\"y" && &b < 1.5 -> "true";',
        '"#not a comment" # a comment',
        '"unterminated',
        '"ends in a backslash\\',
        "x == 1.",
        "a - b",
        "a | b",
        'k = "v\\\\" || "w"',
    ]
    for body in cases:
        assert _outcome(_tokenize, body, 7) == _outcome(_reference_tokenize, body, 7)
        assert _strip_comment(body) == _reference_strip_comment(body)


def test_operator_tokens_share_one_string_per_operator():
    tokens = _tokenize("a==b&&c==d")
    ops = [t.text for t in tokens if t.kind == "OP"]
    assert ops == ["==", "&&", "=="]
    assert ops[0] is ops[2]


# ---------------------------------------------------------------------------
# Canonical round trip on generated credentials
# ---------------------------------------------------------------------------

_KEYS = [generate_keypair(f"scanner:{i}").public_id.canonical() for i in range(4)]
# A literal may hold anything but a line break: the header layout is line based.
_LITERAL_TEXT = st.text(
    _TRICKY | st.characters(blacklist_categories=("Cc", "Zl", "Zp", "Cs")), max_size=12
)
_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
_LITERALS = st.one_of(
    st.builds(Literal, st.just("string"), _LITERAL_TEXT),
    st.builds(Literal, st.just("number"), st.from_regex(r"[0-9]{1,4}(\.[0-9]{1,3})?", fullmatch=True)),
)
_COMPARES = st.builds(
    Compare, _NAMES, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), _LITERALS, st.booleans()
)
_CONDITIONS = st.recursive(
    _COMPARES,
    lambda inner: st.one_of(
        st.builds(CNot, inner),
        st.builds(CAnd, st.lists(inner, min_size=2, max_size=3).map(tuple)),
        st.builds(COr, st.lists(inner, min_size=2, max_size=3).map(tuple)),
    ),
    max_leaves=6,
)
_PRINCIPALS = st.recursive(
    st.builds(KeyLeaf, st.sampled_from(_KEYS)),
    lambda inner: st.one_of(
        st.builds(PAnd, st.lists(inner, min_size=2, max_size=3).map(tuple)),
        st.builds(POr, st.lists(inner, min_size=2, max_size=3).map(tuple)),
    ),
    max_leaves=5,
)
_CREDENTIALS = st.builds(
    Credential,
    version=st.just(2),
    local_constants=st.lists(st.tuples(_NAMES, st.sampled_from(_KEYS)), max_size=2,
                             unique_by=lambda c: c[0]).map(lambda cs: tuple(sorted(cs))),
    authorizer=st.sampled_from(_KEYS),
    licensees=st.one_of(st.just(Anyone), _PRINCIPALS),
    clauses=st.one_of(
        st.none(),
        st.lists(st.builds(Clause, _CONDITIONS, st.sampled_from(["true", "false"])),
                 min_size=1, max_size=3).map(tuple),
    ),
    signature=st.one_of(
        st.none(),
        st.tuples(st.from_regex(r"[a-z0-9-]{1,12}", fullmatch=True), _LITERAL_TEXT.filter(bool)),
    ),
)


@settings(max_examples=150, deadline=None)
@given(_CREDENTIALS)
def test_render_parse_keeps_canonical_bytes(cred):
    again = parse_credential(render_credential(cred))
    assert canonical_bytes(again) == canonical_bytes(cred)
    assert again.signature == cred.signature


# ---------------------------------------------------------------------------
# Structural POLICY against the text-built one
# ---------------------------------------------------------------------------

def _text_merchant_policy(merchant: str, guarantors: list[str], app_domain: str) -> Credential:
    guarantor_part = (
        f'"{guarantors[0]}"' if len(guarantors) == 1
        else "(" + " || ".join(f'"{g}"' for g in guarantors) + ")"
    )
    return build_credential(
        POLICY, f'{guarantor_part} && "{merchant}"', f'app_domain == "{app_domain}" -> "true";'
    )


def _text_keepalive_policy(guarantors: list[str], app_domain: str) -> Credential:
    body = " || ".join(f'"{g}"' for g in guarantors)
    return build_credential(POLICY, body, f'app_domain == "{app_domain}" -> "true";')


def test_structural_policies_equal_text_built_ones():
    merchant = _KEYS[0]
    for guarantors in (_KEYS[1:2], _KEYS[1:4]):
        for domain in ("BAND-X", "elsewhere"):
            built = build_merchant_policy(merchant, guarantors, domain)
            parsed = _text_merchant_policy(merchant, guarantors, domain)
            assert canonical_bytes(built) == canonical_bytes(parsed)
            assert built == parsed
            built = build_keepalive_policy(guarantors, domain)
            parsed = _text_keepalive_policy(guarantors, domain)
            assert canonical_bytes(built) == canonical_bytes(parsed)
            assert built == parsed


def test_policy_is_built_once_per_arguments():
    assert build_merchant_policy(_KEYS[0], _KEYS[1:3]) is build_merchant_policy(
        _KEYS[0], list(_KEYS[1:3])
    )
    assert build_keepalive_policy(_KEYS[1:3]) is build_keepalive_policy(list(_KEYS[1:3]))


# ---------------------------------------------------------------------------
# Garbage
# ---------------------------------------------------------------------------

def test_parsing_leaves_no_cyclic_garbage(chain):
    texts = [chain.check.text(), chain.cwc.text()]
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            parse_credential(text)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Parse memo against a fresh parse
# ---------------------------------------------------------------------------

def _bundled_texts() -> list[str]:
    """Every credential block of the golden Rome-Dublin transcript, plus
    the conformance chain."""
    data = (Path(__file__).parent.parent / "scenarios" / "rome-dublin.golden.transcript").read_bytes()
    texts = set()
    while data:
        env, data = decode(data)
        for block in env.blocks.values():
            if block.startswith(b"Keynote-Version"):
                texts.add(block.decode("utf-8"))
    chain = make_chain()
    texts.update(c.text() for c in (chain.cwc, chain.offer, chain.check, chain.policy))
    return sorted(texts)


_BUNDLED = _bundled_texts()


def _parse_outcome(parse, text: str, unchecked: bool) -> tuple:
    """What a parse returns, or the error it raises, in comparable form."""
    try:
        cred = parse(text, unchecked)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "position", None),
                getattr(exc, "expected", None))
    return cred, canonical_bytes(cred), cred.source_text, cred.unchecked


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_CREDENTIALS.map(render_credential), st.sampled_from(_BUNDLED)),
    st.booleans(),
    st.one_of(st.none(), st.integers(min_value=0)),
)
def test_parse_memo_matches_a_fresh_parse(text, unchecked, cut):
    if cut is not None:  # drop one character: mostly malformed text
        cut %= len(text)
        text = text[:cut] + text[cut + 1:]
    fresh = _parse_outcome(_parse_credential, text, unchecked)
    assert _parse_outcome(parse_credential, text, unchecked) == fresh
    assert _parse_outcome(parse_credential, text, unchecked) == fresh  # a success is now a hit
    if isinstance(fresh[0], Credential):
        assert (text, unchecked) in credentials._parsed


@pytest.mark.parametrize("text, error", [
    ('Keynote-Version: 2\nAuthorizer: POLICY\nLicensees:\nConditions: a == "b" c;\n',
     CredentialSyntaxError),
    ("Keynote-Version: 3\nAuthorizer: POLICY\nLicensees:\n", UnknownVersion),
])
def test_malformed_text_fails_alike_every_time_and_is_not_kept(monkeypatch, text, error):
    monkeypatch.setattr(credentials, "_parsed", {})
    raised = []
    for _ in range(2):
        with pytest.raises(error) as info:
            parse_credential(text)
        exc = info.value
        raised.append((str(exc), getattr(exc, "position", None), getattr(exc, "expected", None)))
    assert raised[0] == raised[1]
    assert credentials._parsed == {}


def test_unchecked_flag_is_part_of_the_memo_key(monkeypatch):
    monkeypatch.setattr(credentials, "_parsed", {})
    text = make_chain().cwc.text()
    checked, unchecked = parse_credential(text), parse_credential(text, unchecked=True)
    assert checked.unchecked is False and unchecked.unchecked is True
    assert checked == unchecked
    assert parse_credential(text) is checked
    assert parse_credential(text, unchecked=True) is unchecked


def test_parse_memo_keeps_the_newest_entries_up_to_its_bound(monkeypatch):
    monkeypatch.setattr(credentials, "_parsed", {})
    bound = credentials._PARSE_MEMO_SIZE
    texts = [
        f'Keynote-Version: 2\nAuthorizer: POLICY\nLicensees:\nConditions: n == "{i}";\n'
        for i in range(bound + 40)
    ]
    for text in texts:
        parse_credential(text)
        assert len(credentials._parsed) <= bound
    assert list(credentials._parsed) == [(t, False) for t in texts[-bound:]]


def test_parse_memo_stays_bounded_and_exact_under_threads(monkeypatch):
    pair = generate_keypair("parse-memo:threads")
    signed = [
        sign_credential(build_credential(pair.public_id, "", f'n == "{i}";'), pair).text()
        for i in range(8)
    ]
    texts = signed + [  # cheap to parse, so threads often meet in the memo
        f'Keynote-Version: 2\nAuthorizer: POLICY\nLicensees:\nConditions: n == "{i}";\n'
        for i in range(40)
    ]
    expected = [_parse_outcome(_parse_credential, t, False) for t in texts]
    broken = [t.replace("Licensees:", "Licensees: (") for t in texts]
    monkeypatch.setattr(credentials, "_parsed", {})
    monkeypatch.setattr(credentials, "_PARSE_MEMO_SIZE", 4)
    wrong: list = []

    def worker(offset: int) -> None:
        for k in range(5 * len(texts)):
            i = (k + offset) % len(texts)
            try:
                if _parse_outcome(parse_credential, texts[i], False) != expected[i]:
                    wrong.append(i)
                parse_credential(broken[i])
                wrong.append(f"broken {i} parsed")
            except CredentialSyntaxError:
                pass
            except Exception as exc:  # a lost update surfaces as a KeyError
                wrong.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(7 * t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(credentials._parsed) <= 4
