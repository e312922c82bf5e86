"""The regex scanner, the structural credential builders and the parse
memo against the character-loop scanner, the text-built credentials and
the fresh parse they replaced.

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

from hypothesis import example, given, settings
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
    UnverifiedCredential,
    _parse_credential,
    _strip_comment,
    _tokenize,
    build_credential,
    canonical_bytes,
    check_compliance,
    conjuncts,
    parse_credential,
    pins,
    render_credential,
    sign_credential,
)
from bandx.envelope import decode
from bandx.fabric import Reservation, make_reservation_credential
from bandx.keys import POLICY, generate_keypair
from bandx.money import Money, prorated_cents, text_of_instant
from bandx.offers import APP_DOMAIN, QOS_PREMIUM, QOS_RESERVED, make_offer_credential
from bandx.payments import (
    Wallet,
    build_keepalive_action,
    build_merchant_policy,
    issue_guarantor_credential,
    open_microcheck,
    payment_verdict,
)

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

_PAIRS = [generate_keypair(f"scanner:{i}") for i in range(4)]
_KEYS = [pair.public_id.canonical() for pair in _PAIRS]
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

def _text_merchant_policy(merchant: str, guarantors: list[str]) -> Credential:
    guarantor_part = (
        f'"{guarantors[0]}"' if len(guarantors) == 1
        else "(" + " || ".join(f'"{g}"' for g in guarantors) + ")"
    )
    return build_credential(
        POLICY, f'{guarantor_part} && "{merchant}"', f'app_domain == "{APP_DOMAIN}" -> "true";'
    )


def _text_keepalive_policy(guarantors: list[str]) -> Credential:
    body = " || ".join(f'"{g}"' for g in guarantors)
    return build_credential(POLICY, body, f'app_domain == "{APP_DOMAIN}" -> "true";')


def test_structural_policies_equal_text_built_ones():
    merchant = _KEYS[0]
    for guarantors in (_KEYS[1:2], _KEYS[1:4]):
        built = build_merchant_policy(merchant, guarantors)
        parsed = _text_merchant_policy(merchant, guarantors)
        assert canonical_bytes(built) == canonical_bytes(parsed)
        assert built == parsed


def test_policy_is_built_once_per_arguments():
    assert build_merchant_policy(_KEYS[0], _KEYS[1:3]) is build_merchant_policy(
        _KEYS[0], list(_KEYS[1:3])
    )


# A keepalive meets the merchant POLICY with the merchant as the requester.
# Its verdict must equal a compliance check against the text-built POLICY
# that licenses the guarantors alone: the merchant leaf, which the
# requester satisfies, changes nothing.
_KEEPALIVE_DATE = "20031119"


@settings(max_examples=80, deadline=None)
@example(guarantor=_PAIRS[1], trusted=_KEYS[1:2], payee=_KEYS[3], cents=500, action_cents=None,
         expiry="20040324", tampered=False)
@given(
    guarantor=st.sampled_from(_PAIRS[1:3]),
    trusted=st.sampled_from([_KEYS[1:2], _KEYS[1:3]]),
    payee=st.sampled_from(_KEYS[2:4]),
    cents=st.integers(min_value=1, max_value=600),
    action_cents=st.one_of(st.none(), st.integers(min_value=1, max_value=600)),
    expiry=st.sampled_from(["20031118", "20031119", "20031120", "20040324"]),
    tampered=st.booleans(),
)
def test_keepalive_verdict_equals_the_guarantor_only_policy(
    guarantor, trusted, payee, cents, action_cents, expiry, tampered
):
    # Payer _PAIRS[0], merchant _KEYS[3]. Drawn: an untrusted guarantor
    # (_PAIRS[2] when only _KEYS[1] is trusted), a check payable to
    # another key, an action amount other than the check's, a guarantor
    # credential expired on the check date, and a check whose nonce was
    # changed after signing.
    payer, merchant = _PAIRS[0], _KEYS[3]
    cwc = issue_guarantor_credential(guarantor, payer.public_id, Money(500), expiry)
    check = Wallet(payer).write_check(payee, Money(cents), "0123456789ab", _KEEPALIVE_DATE)
    if tampered:
        check = parse_credential(check.text().replace('"0123456789ab"', '"0123456789ac"'))
    view = open_microcheck(check)
    action = build_keepalive_action(
        Money(cents if action_cents is None else action_cents), view.nonce, _KEEPALIVE_DATE
    )
    verdict = payment_verdict(None, view, cwc, action, merchant, list(trusted), fresh=False)
    try:
        pays = check_compliance(
            [_text_keepalive_policy(list(trusted))], [cwc, check], {merchant}, action, fresh=True
        )
    except UnverifiedCredential:
        pays = False
    assert (verdict is None) == pays


# ---------------------------------------------------------------------------
# Structural builders against the text-built credentials
# ---------------------------------------------------------------------------

# Frozen copies of the text path each builder replaced: condition text
# formatted with the values spliced in, then parsed by build_credential.

def _text_check(pair, merchant, amount, nonce, date):
    return build_credential(
        pair.public_id,
        f'"{merchant}"',
        f'app_domain == "{APP_DOMAIN}" && currency == "{amount.currency}" '
        f'&& amount == "{amount.as_decimal_str()}" && nonce == "{nonce}" '
        f'&& date == "{date}" -> "true";',
    )


def _text_guarantor(guarantor, payer_key, limit, expiry):
    bound = Money(limit.cents + 1, limit.currency)
    return build_credential(
        guarantor.public_id,
        f'"{payer_key}"',
        f'app_domain == "{APP_DOMAIN}" && currency == "{limit.currency}" '
        f"&& &amount < {bound.as_decimal_str()} "
        f'&& date < "{expiry}" -> "true";',
    )


def _text_offer(isp, link_name, bandwidth_mbps, min_price, valid_until, unbundling_allowed,
                qos_class, path_hint):
    parts = [
        f'app_domain == "{APP_DOMAIN}"',
        f'currency == "{min_price.currency}"',
        f'link_name == "{link_name}"',
    ]
    if unbundling_allowed:
        floor = Money(prorated_cents(min_price.cents, 1, bandwidth_mbps), min_price.currency)
        parts.append(f'&bandwidth <= "{bandwidth_mbps}Mbps"')
        parts.append(f'min_price == "{min_price.as_decimal_str()}"')
    else:
        floor = min_price
        parts.append(f"&bandwidth == {bandwidth_mbps}")
    parts.append(f"&amount >= {floor.as_decimal_str()}")
    parts.append(f'date < "{valid_until}"')
    if qos_class != QOS_RESERVED:
        parts.append(f'qos_class == "{qos_class}"')
    if path_hint:
        parts.append(f'path_hint == "{",".join(path_hint)}"')
    return build_credential(isp.public_id, "", " && ".join(parts) + ' -> "true";')


def _text_reservation(isp, res):
    return build_credential(
        isp.public_id,
        f'"{res.customer_key}"',
        f'app_domain == "{APP_DOMAIN}" '
        f'&& reservation_id == "{res.reservation_id}" '
        f'&& link_names == "{",".join(res.link_names)}" '
        f"&& &bandwidth == {res.bandwidth_mbps} "
        f'&& starts == "{text_of_instant(res.start)}" '
        f'&& ends == "{text_of_instant(res.end)}" -> "true";',
    )


def _same(built, text_built, pair):
    signed = sign_credential(text_built, pair)
    assert built == signed
    assert canonical_bytes(built) == canonical_bytes(signed)
    assert built.text() == signed.text()


# Values the text path could carry: no quote, no backslash, no line break.
_VALUES = st.text(
    st.characters(blacklist_categories=("Cc", "Zl", "Zp", "Cs"), blacklist_characters='"\\')
    | st.sampled_from(list("#&|=!<>-();,._aZ09 \t")),
    max_size=12,
)
_DATES = st.dates().map(lambda d: f"{d.year:04d}{d.month:02d}{d.day:02d}")
_CENTS = st.integers(min_value=1, max_value=10 ** 9)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_PAIRS), st.sampled_from(_KEYS), _CENTS, _VALUES,
       _VALUES.map(lambda v: "n" * 12 + v), _DATES)
def test_structural_check_equals_text_built(pair, merchant, cents, currency, nonce, date):
    amount = Money(cents, currency)
    built = Wallet(pair).write_check(merchant, amount, nonce, date)
    _same(built, _text_check(pair, merchant, amount, nonce, date), pair)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_PAIRS), st.sampled_from(_KEYS), _CENTS, _VALUES, _DATES)
def test_structural_guarantor_equals_text_built(guarantor, payer, cents, currency, expiry):
    limit = Money(cents, currency)
    built = issue_guarantor_credential(guarantor, payer, limit, expiry)
    _same(built, _text_guarantor(guarantor, payer, limit, expiry), guarantor)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_PAIRS), _VALUES, st.integers(min_value=1, max_value=10 ** 5), _CENTS,
       _VALUES, _DATES, st.booleans(), st.sampled_from([QOS_RESERVED, QOS_PREMIUM]),
       st.lists(_VALUES, max_size=3).map(tuple))
def test_structural_offer_equals_text_built(isp, link, mbps, cents, currency, until, unbundle,
                                            qos, hint):
    price = Money(cents, currency)
    built = make_offer_credential(isp, link, mbps, price, until, unbundle, qos, hint)
    text_built = _text_offer(isp, link, mbps, price, until, unbundle, qos, hint)
    _same(built, text_built, isp)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_PAIRS), st.sampled_from(_KEYS), _VALUES,
       st.lists(_VALUES, min_size=1, max_size=3), st.integers(min_value=1, max_value=10 ** 5),
       st.integers(min_value=0, max_value=2 ** 33), st.integers(min_value=1, max_value=10 ** 7))
def test_structural_reservation_equals_text_built(isp, customer, res_id, links, mbps, start,
                                                  length):
    res = Reservation(res_id, "notional", isp.public_id.canonical(),
                      tuple(("ne", "ne", name) for name in links), mbps, start, start + length,
                      customer)
    built = make_reservation_credential(isp, res)
    _same(built, _text_reservation(isp, res), isp)


def test_a_quote_in_a_value_stays_inside_one_literal():
    isp = _PAIRS[0]
    link = 'Rome-Paris" && qos_class == "premium_best_effort\\'
    offer = make_offer_credential(isp, link, 50, Money(300), "20031125")
    plain = make_offer_credential(isp, "Rome-Paris", 50, Money(300), "20031125")
    assert pins(offer)["link_name"] == link
    assert "qos_class" not in pins(offer)
    assert len(conjuncts(offer)) == len(conjuncts(plain))
    assert parse_credential(offer.text()) == offer
    with pytest.raises(ValueError):
        make_offer_credential(isp, "Rome-Paris\nConditions: x", 50, Money(300), "20031125")


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


def _parse_outcome(parse, text: str) -> tuple:
    """What a parse returns, or the error it raises, in comparable form."""
    try:
        cred = parse(text)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "position", None),
                getattr(exc, "expected", None))
    return cred, canonical_bytes(cred), cred.source_text


def _policy_texts(tag: str, count: int) -> list[str]:
    """`count` distinct well-formed texts, cheap to parse."""
    return [
        f'Keynote-Version: 2\nAuthorizer: POLICY\nLicensees:\nConditions: {tag} == "{i}";\n'
        for i in range(count)
    ]


_BOUND = parse_credential.cache_info().maxsize


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_CREDENTIALS.map(render_credential), st.sampled_from(_BUNDLED)),
    st.one_of(st.none(), st.integers(min_value=0)),
)
def test_parse_memo_matches_a_fresh_parse(text, cut):
    if cut is not None:  # drop one character: mostly malformed text
        cut %= len(text)
        text = text[:cut] + text[cut + 1:]
    fresh = _parse_outcome(_parse_credential, text)
    assert _parse_outcome(parse_credential, text) == fresh
    hits = parse_credential.cache_info().hits
    assert _parse_outcome(parse_credential, text) == fresh
    # A success is now a hit; a failure was not kept.
    assert parse_credential.cache_info().hits == hits + isinstance(fresh[0], Credential)


@pytest.mark.parametrize("text, error", [
    ('Keynote-Version: 2\nAuthorizer: POLICY\nLicensees:\nConditions: a == "b" c;\n',
     CredentialSyntaxError),
    ("Keynote-Version: 3\nAuthorizer: POLICY\nLicensees:\n", UnknownVersion),
])
def test_malformed_text_fails_alike_every_time_and_is_not_kept(text, error):
    parse_credential.cache_clear()
    raised = []
    for _ in range(2):
        with pytest.raises(error) as info:
            parse_credential(text)
        exc = info.value
        raised.append((str(exc), getattr(exc, "position", None), getattr(exc, "expected", None)))
    assert raised[0] == raised[1]
    info = parse_credential.cache_info()
    assert (info.hits, info.currsize) == (0, 0)


def test_parse_memo_keeps_the_newest_entries_up_to_its_bound():
    parse_credential.cache_clear()
    texts = _policy_texts("n", _BOUND + 40)
    for text in texts:
        parse_credential(text)
        assert parse_credential.cache_info().currsize <= _BOUND
    for text in texts[-_BOUND:]:
        parse_credential(text)
    assert parse_credential.cache_info().hits == _BOUND
    for text in texts[:40]:
        parse_credential(text)
    assert parse_credential.cache_info().hits == _BOUND


def test_parse_memo_keeps_a_text_in_use_past_its_bound():
    parse_credential.cache_clear()
    kept = _policy_texts("kept", 1)[0]
    parse_credential(kept)
    for text in _policy_texts("newer", _BOUND):
        parse_credential(text)
        hits = parse_credential.cache_info().hits
        parse_credential(kept)
        assert parse_credential.cache_info().hits == hits + 1


def test_parse_memo_stays_bounded_and_exact_under_threads():
    pair = generate_keypair("parse-memo:threads")
    signed = [
        sign_credential(build_credential(pair.public_id, "", f'n == "{i}";'), pair).text()
        for i in range(8)
    ]
    # Cheap to parse, so threads often meet in the memo, and more of
    # them than it holds, so they also meet in its eviction.
    texts = signed + _policy_texts("n", _BOUND + 40)
    expected = [_parse_outcome(_parse_credential, t) for t in texts]
    broken = [t.replace("Licensees:", "Licensees: (") for t in texts]
    parse_credential.cache_clear()
    wrong: list = []

    def worker(offset: int) -> None:
        for k in range(3 * len(texts)):
            i = (k + offset) % len(texts)
            try:
                if _parse_outcome(parse_credential, texts[i]) != expected[i]:
                    wrong.append(i)
                parse_credential(broken[i])
                wrong.append(f"broken {i} parsed")
            except CredentialSyntaxError:
                pass
            except Exception as exc:  # any other error is a fault of the memo
                wrong.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(37 * t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert parse_credential.cache_info().currsize <= _BOUND
