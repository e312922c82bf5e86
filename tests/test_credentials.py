"""Credential engine: grammar, canonical form, signatures, evaluation,
and the delegation-graph compliance check."""

from __future__ import annotations

import random
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandx.credentials import (
    ActionAttributeSet,
    Anyone,
    CAnd,
    Clause,
    CNot,
    Compare,
    COr,
    CredentialSyntaxError,
    KeyLeaf,
    Literal,
    PAnd,
    POr,
    UnknownVersion,
    UnresolvedConstant,
    UnverifiedCredential,
    _Token,
    _tokenize,
    build_credential,
    canonical_bytes,
    check_compliance,
    credential_id,
    eval_conditions,
    parse_credential,
    parse_credential_blocks,
    render_credential,
    sign_credential,
    verify_signature,
    verify_signature_fresh,
)
from bandx.keys import (
    POLICY,
    KeyMismatch,
    UnsupportedAlgorithm,
    generate_keypair,
    import_private,
    read_key_id,
)

from conftest import make_chain
from helpers import counting_scheme_verify

PAPER_CG = """\
Keynote-Version: 2
Local-Constants:
\tALICE_KEY = "rsa-base64:MCgCIQ"
\tCG_KEY = "rsa-base64:MIGJAo"
Authorizer: CG_KEY
Licensees: ALICE_KEY
Conditions: app_domain == "Band-X" &&
\tcurrency == "USD" && &amount < 5.01
\t&& date < "20040324" -> "true";
Signature: "sig-rsa-sha1-base64:QU6SZ"
"""

PAPER_OFFER_BROKEN = """\
Keynote-Version: 2
Local-Constants:
\tISP_KEY = "rsa-base64:7231f"
Authorizer: ISP_KEY
Licensees:
Conditions: app_domain == "Band-X" &&
\tcurrency == "USD" &&
\t&bandwidth <= "50Mbps" &&
\tlink_name == "Dublin-NYC" &&
\t&amount >= 3.00
\t&& date < "20031120 -> "true";
Signature: "sig-rsa-sha1-base64:ab1XXA"
"""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_guarantor_credential_text():
    cred = parse_credential(PAPER_CG)
    assert cred.version == 2
    assert cred.authorizer == "rsa-base64:MIGJAo"
    assert cred.licensees == KeyLeaf("rsa-base64:MCgCIQ")
    assert cred.signature == ("sig-rsa-sha1-base64", "QU6SZ")
    comps = cred.clauses[0].test.children
    amount = [c for c in comps if isinstance(c, Compare) and c.attr == "amount"]
    assert amount == [Compare("amount", "<", Literal("number", "5.01"), numeric=True)]


def test_empty_licensees_parses_to_anyone():
    cred = build_credential(generate_keypair("i").public_id, "", 'x == "1";')
    assert cred.licensees is Anyone


def test_unknown_version_rejected():
    text = PAPER_CG.replace("Keynote-Version: 2", "Keynote-Version: 3")
    with pytest.raises(UnknownVersion):
        parse_credential(text)


def test_unresolved_constant_rejected():
    text = PAPER_CG.replace('CG_KEY = "rsa-base64:MIGJAo"', "")
    with pytest.raises(UnresolvedConstant):
        parse_credential(text)


def test_unterminated_offer_expiry_is_a_syntax_error():
    # The broken `date < "20031120` literal stays broken; fixtures correct
    # it at the source, the parser does not.
    with pytest.raises(CredentialSyntaxError):
        parse_credential(PAPER_OFFER_BROKEN)


def test_syntax_error_carries_position_and_expectation():
    try:
        parse_credential("Keynote-Version: 2\nAuthorizer: POLICY\nLicensees: &&\n")
    except CredentialSyntaxError as exc:
        assert exc.position >= 0
        assert exc.expected
    else:
        pytest.fail("expected CredentialSyntaxError")


_POLICY_HEAD = "Keynote-Version: 2\nAuthorizer: POLICY\nLicensees:\n"

# Malformed texts with the exact message, position and expectation each
# raises. A token's position is the offset of its field's first line plus
# its index in the field body (the text after the header's colon, with
# continuation lines joined by one space).
_SYNTAX_ERRORS = [
    pytest.param(_POLICY_HEAD + 'Conditions: app_domain == "BAND-X\n',
                 "unterminated string literal", 64, 'closing "', id="unterminated-string"),
    pytest.param(_POLICY_HEAD + 'Conditions: a == "x\\"\n',
                 "unterminated string literal", 55, 'closing "', id="escaped-quote-leaves-string-open"),
    pytest.param(_POLICY_HEAD + 'Conditions: a == "x\\"y" b\n',
                 "got 'b'", 62, "';' or end of conditions", id="escaped-quote-inside-string"),
    pytest.param(_POLICY_HEAD + 'Conditions: a == "x\\\\" b\n',
                 "got 'b'", 61, "';' or end of conditions", id="escaped-backslash-closes-string"),
    pytest.param(_POLICY_HEAD + 'Conditions: a == "x" @\n',
                 "unexpected character '@'", 59, "", id="stray-character"),
    pytest.param(_POLICY_HEAD + 'Conditions: a == "x" \\ b\n',
                 "unexpected character '\\\\'", 59, "", id="backslash-outside-string"),
    pytest.param(_POLICY_HEAD + "Conditions: a ==   \t\n",
                 "got ''", 58, "literal", id="trailing-whitespace"),
    pytest.param("Keynote-Version: 2.5\nAuthorizer: POLICY\nLicensees:\n",
                 "got '2.5'", 1, "integer version", id="fractional-version"),
    pytest.param(_POLICY_HEAD + "Conditions: &a < 5.\n",
                 "unexpected character '.'", 56, "", id="number-trailing-dot"),
    pytest.param(_POLICY_HEAD + "Conditions: &a < 5.01.2\n",
                 "unexpected character '.'", 59, "", id="number-two-dots"),
    pytest.param(_POLICY_HEAD + 'Conditions: a == "x" ->\n',
                 "got ''", 61, '"true" or "false"', id="arrow-without-result"),
    pytest.param(_POLICY_HEAD + 'Conditions: a == "x" -> true\n',
                 "got 'true'", 62, '"true" or "false"', id="arrow-bare-result"),
    pytest.param("Keynote-Version: 2\nAuthorizer:\nLicensees:\n",
                 "got ''", 19, "key or constant name", id="empty-authorizer"),
    pytest.param("Keynote-Version:   \nAuthorizer: POLICY\nLicensees:\n",
                 "got ''", 3, "integer version", id="empty-version"),
    pytest.param("Keynote-Version: 2\nAuthorizer: POLICY\nLicensees: &&\n",
                 "got '&&'", 39, "key or constant name", id="operator-licensee"),
    pytest.param(_POLICY_HEAD + 'Conditions: a = "x"\n',
                 "got '='", 52, "comparison operator", id="single-equals"),
    pytest.param(_POLICY_HEAD + 'Conditions: (a == "x"\n',
                 "got ''", 59, "')'", id="unclosed-parenthesis"),
    pytest.param(_POLICY_HEAD + "Conditions: a == x\n",
                 "got 'x'", 55, "literal", id="bare-literal"),
    pytest.param("Keynote-Version: 2\nLocal-Constants: K = bare\nAuthorizer: POLICY\nLicensees:\n",
                 "got 'bare'", 24, "quoted constant value", id="unquoted-constant"),
    pytest.param(_POLICY_HEAD + 'Conditions: a == "x" &&\n\tb == "y" ^\n',
                 "unexpected character '^'", 72, "", id="continuation-line"),
]


@pytest.mark.parametrize("text, message, position, expected", _SYNTAX_ERRORS)
def test_syntax_error_message_position_and_expectation(text, message, position, expected):
    with pytest.raises(CredentialSyntaxError) as info:
        parse_credential(text)
    exc = info.value
    suffix = f" at offset {position}" + (f" (expected {expected})" if expected else "")
    assert (str(exc), exc.position, exc.expected) == (message + suffix, position, expected)


# The tokenizer as it first stood: one match per position, whitespace as
# its own match, a string literal one character at a time. Kept as the
# oracle the faster tokenizer must agree with.
_OPS = ("&&", "||", "==", "!=", "<=", ">=", "->", "<", ">", "=", "!", "(", ")", ";", "&")
_ORACLE_RE = re.compile(
    r"\s+"
    r'|"(?P<STRING>(?:[^"\\]|\\.)*)"'
    r"|(?P<NUMBER>\d+(?:\.\d+)?)"
    r"|(?P<NAME>[A-Za-z_]\w*)"
    r"|(?P<OP>" + "|".join(re.escape(op) for op in _OPS) + ")"
    r"|(?P<BAD>.)",
    re.DOTALL,
)


def _oracle_tokenize(body: str, base_pos: int) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _ORACLE_RE.finditer(body):
        kind = m.lastgroup
        if kind is None:
            continue
        text = m.group(kind)
        pos = base_pos + m.start()
        if kind == "STRING":
            text = re.sub(r"\\(.)", r"\1", text, flags=re.DOTALL)
        elif kind == "BAD":
            if text == '"':
                raise CredentialSyntaxError("unterminated string literal", pos, 'closing "')
            raise CredentialSyntaxError(f"unexpected character {text!r}", pos)
        tokens.append((kind, text, pos))
    tokens.append(("END", "", base_pos + len(body)))
    return tokens


def _outcome(tokenize, body: str, base_pos: int):
    try:
        return [tuple(tok) for tok in tokenize(body, base_pos)]
    except CredentialSyntaxError as exc:
        return (str(exc), exc.position, exc.expected)


_TOKEN_ALPHABET = st.sampled_from(
    list('"\\ \t\n\u00a0&|=!<>-();.' + "0123456789" + "aZ_x" + "@#^é")
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_TOKEN_ALPHABET, max_size=40).map("".join), st.integers(0, 200))
def test_tokenizer_agrees_with_the_per_position_oracle(body, base_pos):
    got = _outcome(_tokenize, body, base_pos)
    assert got == _outcome(_oracle_tokenize, body, base_pos)
    if isinstance(got, list):
        for tok in _tokenize(body, base_pos):
            assert type(tok) is _Token and (tok.kind, tok.text, tok.pos) == tuple(tok)
            if tok.kind in ("NAME", "STRING"):
                assert sys.intern(tok.text) is tok.text


def test_trailing_whitespace_is_scanned_in_linear_time():
    # A run of whitespace that no token follows must be scanned once; a
    # search that fails and restarts at each of its characters is
    # quadratic and takes tens of seconds on this run.
    run = " \t" * 8_000
    start = time.perf_counter()
    tokens = _tokenize("a" + run, 5)
    cred = parse_credential(_POLICY_HEAD + 'Conditions: a == "x"' + run + "\n")
    elapsed = time.perf_counter() - start
    assert [tuple(tok) for tok in tokens] == [("NAME", "a", 5), ("END", "", 6 + len(run))]
    assert cred.clauses
    assert elapsed < 1.0


def test_fields_out_of_order_rejected():
    text = "Keynote-Version: 2\nLicensees:\nAuthorizer: POLICY\n"
    with pytest.raises(CredentialSyntaxError):
        parse_credential(text)


def test_policy_not_allowed_as_licensee():
    with pytest.raises(CredentialSyntaxError):
        parse_credential("Keynote-Version: 2\nAuthorizer: POLICY\nLicensees: POLICY\n")


def test_credential_block_splitting():
    a = render_credential(build_credential(POLICY, "", 'x == "1";'))
    b = render_credential(build_credential(POLICY, "", 'x == "2";'))
    creds = parse_credential_blocks(a + "\n" + b)
    assert len(creds) == 2
    assert creds[0].clauses != creds[1].clauses


# ---------------------------------------------------------------------------
# Canonical bytes
# ---------------------------------------------------------------------------

def test_layout_changes_do_not_change_canonical_bytes():
    reformatted = PAPER_CG.replace(
        'Conditions: app_domain == "Band-X" &&',
        'Conditions:   # conditions follow\n\tapp_domain    ==    "Band-X" &&',
    )
    a = parse_credential(PAPER_CG)
    b = parse_credential(reformatted)
    assert canonical_bytes(a) == canonical_bytes(b)


def test_constant_order_does_not_change_canonical_bytes():
    swapped = PAPER_CG.replace(
        '\tALICE_KEY = "rsa-base64:MCgCIQ"\n\tCG_KEY = "rsa-base64:MIGJAo"',
        '\tCG_KEY = "rsa-base64:MIGJAo"\n\tALICE_KEY = "rsa-base64:MCgCIQ"',
    )
    a = parse_credential(PAPER_CG)
    b = parse_credential(swapped)
    assert canonical_bytes(a) == canonical_bytes(b)


def test_literal_change_changes_canonical_bytes():
    a = parse_credential(PAPER_CG)
    b = parse_credential(PAPER_CG.replace("5.01", "5.02"))
    assert canonical_bytes(a) != canonical_bytes(b)
    assert credential_id(a) != credential_id(b)


# ---------------------------------------------------------------------------
# Random credential generator and round-trip properties
# ---------------------------------------------------------------------------

_KEY_POOL = [generate_keypair(f"roundtrip:{i}").public_id.canonical() for i in range(6)]
_ATTRS = ["app_domain", "amount", "bandwidth", "date", "nonce", "x", "y_2"]
_OPS = ["==", "!=", "<", "<=", ">", ">="]


def _random_principal(rng: random.Random, depth: int = 0):
    if depth >= 2 or rng.random() < 0.5:
        return f'"{rng.choice(_KEY_POOL)}"'
    op = rng.choice([" && ", " || "])
    n = rng.randint(2, 3)
    parts = [_random_principal(rng, depth + 1) for _ in range(n)]
    return "(" + op.join(parts) + ")"


def _random_literal(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return f"{rng.randint(0, 99)}.{rng.randint(0, 99):02d}"
    choices = ["USD", "BAND-X", "50Mbps", 'he said "hi"', "back\\slash", "20040324"]
    value = rng.choice(choices)
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _random_condition(rng: random.Random, depth: int = 0) -> str:
    roll = rng.random()
    if depth >= 2 or roll < 0.5:
        amp = "&" if rng.random() < 0.4 else ""
        return f"{amp}{rng.choice(_ATTRS)} {rng.choice(_OPS)} {_random_literal(rng)}"
    if roll < 0.6:
        return f"!({_random_condition(rng, depth + 1)})"
    op = rng.choice([" && ", " || "])
    n = rng.randint(2, 3)
    return "(" + op.join(_random_condition(rng, depth + 1) for _ in range(n)) + ")"


def _random_credential_text(rng: random.Random) -> str:
    lines = ["Keynote-Version: 2"]
    constants = {}
    if rng.random() < 0.5:
        for i in range(rng.randint(1, 3)):
            constants[f"K_{i}"] = rng.choice(_KEY_POOL)
        defs = [f'{n} = "{v}"' for n, v in constants.items()]
        lines.append("Local-Constants: " + "\n\t".join(defs))
    auth = "POLICY" if rng.random() < 0.2 else f'"{rng.choice(_KEY_POOL)}"'
    lines.append(f"Authorizer: {auth}")
    if rng.random() < 0.2:
        lines.append("Licensees:  # open access")
    else:
        body = _random_principal(rng)
        if constants and rng.random() < 0.5:
            body = rng.choice(list(constants))
        lines.append(f"Licensees: {body}")
    clauses = []
    for _ in range(rng.randint(1, 2)):
        result = rng.choice(['-> "true"', '-> "false"', ""])
        clauses.append(f"{_random_condition(rng)} {result};")
    lines.append("Conditions: " + "\n  ".join(clauses))
    return "\n".join(lines) + "\n"


def test_canonical_round_trip_on_random_credentials():
    rng = random.Random(20031119)
    for _ in range(1000):
        cred = parse_credential(_random_credential_text(rng))
        again = parse_credential(render_credential(cred))
        assert canonical_bytes(again) == canonical_bytes(cred)
        assert again == cred


def test_parse_render_parse_is_identity_structurally():
    rng = random.Random(7)
    for _ in range(300):
        text = _random_credential_text(rng)
        once = parse_credential(text)
        twice = parse_credential(render_credential(once))
        assert twice == once


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

def _sample_signed():
    pair = generate_keypair("signer")
    cred = build_credential(
        pair.public_id, "", 'app_domain == "BAND-X" && &amount < 5.01 -> "true";'
    )
    return pair, sign_credential(cred, pair)


def test_sign_then_verify():
    _, signed = _sample_signed()
    assert verify_signature(signed) is True


def test_tampered_literal_fails_verification():
    _, signed = _sample_signed()
    tampered = parse_credential(render_credential(signed).replace("5.01", "9.99"))
    assert verify_signature(tampered) is False


def test_successful_verification_is_remembered(monkeypatch):
    pair = generate_keypair("memo:signer")
    signed = sign_credential(build_credential(pair.public_id, "", 'memo == "1";'), pair)
    calls = counting_scheme_verify(monkeypatch)
    assert verify_signature(signed) is True
    assert verify_signature(parse_credential(render_credential(signed))) is True
    assert len(calls) == 1


def test_failed_verification_is_not_remembered(monkeypatch):
    pair = generate_keypair("memo:signer")
    signed = sign_credential(build_credential(pair.public_id, "", 'memo == "2";'), pair)
    tampered = parse_credential(render_credential(signed).replace('"2"', '"3"'))
    calls = counting_scheme_verify(monkeypatch)
    assert verify_signature(tampered) is False
    assert verify_signature(tampered) is False
    assert len(calls) == 2
    # The remembered success of the original does not carry over.
    assert verify_signature(signed) is True
    assert verify_signature(tampered) is False


def test_memo_stays_bounded_and_exact_under_threads(monkeypatch):
    import sys
    import threading

    from bandx import credentials

    monkeypatch.setattr(credentials, "_verified", {})  # empty, whatever ran before
    monkeypatch.setattr(credentials, "_MEMO_SIZE", 8)
    pair = generate_keypair("memo:threads")
    signed = [
        sign_credential(build_credential(pair.public_id, "", f'n == "{i}";'), pair)
        for i in range(24)
    ]
    tampered = [
        parse_credential(render_credential(c).replace(f'"{i}"', f'"x{i}"'))
        for i, c in enumerate(signed)
    ]
    # A cheap deterministic stand-in for Ed25519 (only a tampered text holds
    # '"x'): a real check takes so long that threads seldom meet inside the
    # memo's evict-and-insert step, and a missing lock would go unseen.
    monkeypatch.setattr(
        credentials, "_signature_valid", lambda cred, message: b'"x' not in message
    )
    wrong: list = []

    def worker(offset: int) -> None:
        for k in range(50 * len(signed)):
            i = (k + offset) % len(signed)
            try:
                if verify_signature(signed[i]) is not True or verify_signature(tampered[i]):
                    wrong.append(i)
            except Exception as exc:  # a lost update surfaces as a KeyError
                wrong.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(5 * t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(credentials._verified) <= 8


def test_the_oldest_remembered_signature_goes_first_even_after_a_hit(monkeypatch):
    from bandx import credentials

    monkeypatch.setattr(credentials, "_verified", {})
    monkeypatch.setattr(credentials, "_MEMO_SIZE", 2)
    pair = generate_keypair("memo:fifo")
    a, b, c = (
        sign_credential(build_credential(pair.public_id, "", f'n == "{i}";'), pair)
        for i in range(3)
    )
    calls = counting_scheme_verify(monkeypatch)
    for cred in (a, b, a, c):  # the hit on `a` does not save it from eviction
        assert verify_signature(cred) is True
    assert len(calls) == 3
    assert verify_signature(b) is True and len(calls) == 3
    assert verify_signature(a) is True and len(calls) == 4
    # The fresh path neither reads nor fills the memo.
    held = dict(credentials._verified)
    assert verify_signature_fresh(a) is True and len(calls) == 5
    assert credentials._verified == held


def test_key_id_memo_shares_one_pair_per_text_and_keeps_no_failure():
    pair = generate_keypair("memo:key")
    text = pair.public_id.canonical()
    first = read_key_id(text)
    assert first == (pair.public_id, text)
    assert read_key_id(text) is first
    # Every credential naming the key holds the one canonical string.
    one, two = (
        sign_credential(build_credential(pair.public_id, "", f'n == "{i}";'), pair)
        for i in range(2)
    )
    parsed = [parse_credential(render_credential(c)) for c in (one, two)]
    assert parsed[0].authorizer is parsed[1].authorizer is first[1]
    assert parsed[0].authorizer_key is first[0]
    misses = read_key_id.cache_info().misses
    for _ in range(2):
        with pytest.raises(ValueError):
            read_key_id("not a key id")
    assert read_key_id.cache_info().misses == misses + 2
    bound = read_key_id.cache_info().maxsize
    for i in range(bound + 8):
        read_key_id(f"test:k{i}")
    assert read_key_id.cache_info().currsize == bound


def test_sign_with_foreign_key_is_a_key_mismatch():
    pair = generate_keypair("author")
    other = generate_keypair("intruder")
    cred = build_credential(pair.public_id, "", 'x == "1";')
    with pytest.raises(KeyMismatch):
        sign_credential(cred, other)


def test_policy_credential_verifies_without_signature():
    cred = build_credential(POLICY, "", 'app_domain == "BAND-X" -> "true";')
    assert verify_signature(cred) is True


def test_unknown_signature_algorithm_raises():
    cred = parse_credential(PAPER_CG)
    with pytest.raises(UnsupportedAlgorithm):
        verify_signature(cred)


def test_a_private_key_of_another_algorithm_is_refused():
    with pytest.raises(UnsupportedAlgorithm):
        import_private("rsa-secret:AAAA")


def test_bit_flipped_signatures_all_fail():
    import base64

    _, signed = _sample_signed()
    alg, material = signed.signature
    raw = bytearray(base64.b64decode(material))
    rng = random.Random(99)
    for _ in range(64):
        flipped = bytearray(raw)
        bit = rng.randrange(len(raw) * 8)
        flipped[bit // 8] ^= 1 << (bit % 8)
        mutated = parse_credential(
            render_credential(signed).replace(
                material, base64.b64encode(bytes(flipped)).decode("ascii")
            )
        )
        assert verify_signature(mutated) is False


def test_single_bit_content_mutations_all_fail():
    _, signed = _sample_signed()
    rng = random.Random(3)
    text = render_credential(signed)
    flips = 0
    for _ in range(200):
        i = rng.randrange(len(text))
        mutated = text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1 :]
        if mutated == text:
            continue
        try:
            cred = parse_credential(mutated)
        except Exception:
            continue  # mutation broke the grammar, which is also a failure to admit
        if canonical_bytes(cred) == canonical_bytes(signed):
            continue  # mutation hit the signature line; covered above
        flips += 1
        assert verify_signature(cred) is False
    assert flips > 10


# ---------------------------------------------------------------------------
# Condition evaluation
# ---------------------------------------------------------------------------

def test_guarantor_conditions_accept_in_range_action():
    cred = parse_credential(PAPER_CG)
    action = ActionAttributeSet.of(
        app_domain="Band-X", currency="USD", amount="4.25", date="20040320"
    )
    assert eval_conditions(cred.clauses, action) is True


def test_amount_boundaries():
    cred = parse_credential(PAPER_CG)
    base = dict(app_domain="Band-X", currency="USD", date="20040320")
    assert eval_conditions(cred.clauses, ActionAttributeSet.of(amount="5.00", **base))
    assert not eval_conditions(cred.clauses, ActionAttributeSet.of(amount="5.01", **base))


def test_numeric_prefix_coercion_on_quoted_bandwidth():
    cred = build_credential(POLICY, "", '&bandwidth <= "50Mbps" -> "true";')
    ok = ActionAttributeSet.of(app_domain="x", bandwidth="50")
    over = ActionAttributeSet.of(app_domain="x", bandwidth="51")
    assert eval_conditions(cred.clauses, ok) is True
    assert eval_conditions(cred.clauses, over) is False


def test_value_without_numeric_prefix_fails_numeric_compare():
    cred = build_credential(POLICY, "", '&amount < 5.01 -> "true";')
    action = ActionAttributeSet.of(app_domain="x", amount="four")
    assert eval_conditions(cred.clauses, action) is False


def test_missing_attribute_makes_comparison_false():
    cred = parse_credential(PAPER_CG)
    action = ActionAttributeSet.of(app_domain="Band-X", currency="USD")
    assert eval_conditions(cred.clauses, action) is False


def test_bare_amount_comparison_is_string_equality():
    cred = build_credential(POLICY, "", 'amount == "4.25" -> "true";')
    assert eval_conditions(cred.clauses, ActionAttributeSet.of(app_domain="x", amount="4.25"))
    # "4.250" is numerically equal but not string-equal; evaluated as written
    assert not eval_conditions(
        cred.clauses, ActionAttributeSet.of(app_domain="x", amount="4.250")
    )


def test_clause_result_false_never_authorizes():
    cred = build_credential(POLICY, "", 'x == "1" -> "false";')
    assert eval_conditions(cred.clauses, ActionAttributeSet.of(app_domain="d", x="1")) is False


def test_evaluation_totality_fuzz():
    rng = random.Random(41)
    creds = [parse_credential(_random_credential_text(rng)) for _ in range(50)]
    alphabet = ["", "0", "4.25", "50Mbps", "nan", "inf", '"', "\\", "-1", "1e9", "x" * 200]
    for _ in range(10_000):
        attrs = {"app_domain": rng.choice(alphabet) or "d"}
        for name in rng.sample(_ATTRS, rng.randint(0, len(_ATTRS))):
            attrs[name] = rng.choice(alphabet)
        action = ActionAttributeSet(attrs)
        cred = rng.choice(creds)
        assert eval_conditions(cred.clauses, action) in (True, False)


# ---------------------------------------------------------------------------
# Compliance
# ---------------------------------------------------------------------------

def test_conformance_chain_authorizes(chain):
    assert check_compliance([chain.policy], [chain.cwc, chain.offer, chain.check],
                            (), chain.action) is True


def test_chain_without_check_is_refused(chain):
    assert check_compliance([chain.policy], [chain.cwc, chain.offer],
                            (), chain.action) is False


def test_unsigned_credential_rejected_by_checker(chain):
    unsigned = build_credential(
        chain.alice.public_id, f'"{chain.merchant.public_id}"', 'x == "1";'
    )
    with pytest.raises(UnverifiedCredential):
        check_compliance([chain.policy], [chain.cwc, chain.offer, unsigned],
                         (), chain.action)


def test_requester_is_axiomatically_authorized():
    merchant = generate_keypair("req:merchant")
    policy = build_credential(POLICY, f'"{merchant.public_id}"', "")
    action = ActionAttributeSet.of(app_domain="d")
    assert check_compliance([policy], [], (), action) is False
    assert check_compliance([policy], [], {merchant.public_id}, action) is True


def test_cyclic_delegation_terminates_and_stays_false():
    a = generate_keypair("cycle:a")
    b = generate_keypair("cycle:b")
    ca = sign_credential(build_credential(a.public_id, f'"{b.public_id}"', ""), a)
    cb = sign_credential(build_credential(b.public_id, f'"{a.public_id}"', ""), b)
    policy = build_credential(POLICY, f'"{a.public_id}"', "")
    action = ActionAttributeSet.of(app_domain="d")
    assert check_compliance([policy], [ca, cb], (), action) is False


# Brute-force oracle: least fixpoint by Knaster-Tarski, the intersection of
# all pre-fixpoints of the (monotone) authorization operator.

def _oracle(pool, requesters, action):
    from bandx.credentials import _licensees_satisfied, _principal_leaves

    principals = {POLICY} | set(requesters)
    for cred in pool:
        principals.add(cred.authorizer)
        principals |= _principal_leaves(cred.licensees)
    names = sorted(principals)
    best: set[str] | None = None
    for mask in range(1 << len(names)):
        subset = {names[i] for i in range(len(names)) if mask >> i & 1}
        image = set(requesters)
        for cred in pool:
            if eval_conditions(cred.clauses, action) and _licensees_satisfied(
                cred.licensees, {p: p in subset for p in names}
            ):
                image.add(cred.authorizer)
        if image <= subset:  # pre-fixpoint
            best = subset if best is None else best & subset
    assert best is not None  # the full set is always a pre-fixpoint
    return POLICY in best


def _random_delegation_pool(rng: random.Random):
    keys = [generate_keypair(f"dag:{rng.randrange(10 ** 9)}") for _ in range(rng.randint(2, 5))]
    ids = [k.public_id.canonical() for k in keys]
    pool = []
    policy_lic = _random_licensees(rng, ids)
    pool.append(build_credential(POLICY, policy_lic, _maybe_condition(rng)))
    for pair in keys:
        if rng.random() < 0.75:
            cred = build_credential(
                pair.public_id, _random_licensees(rng, ids), _maybe_condition(rng)
            )
            pool.append(sign_credential(cred, pair))
    requesters = {k for k in ids if rng.random() < 0.2}
    return pool, requesters


def _random_licensees(rng: random.Random, ids: list[str]) -> str:
    n = rng.randint(1, min(3, len(ids)))
    chosen = [f'"{k}"' for k in rng.sample(ids, n)]
    if n == 1:
        return chosen[0] if rng.random() < 0.9 else ""
    return f" {rng.choice(['&&', '||'])} ".join(chosen)


def _maybe_condition(rng: random.Random) -> str:
    return rng.choice(["", 'go == "yes" -> "true";', 'go == "no" -> "true";'])


def test_compliance_matches_least_fixpoint_oracle():
    rng = random.Random(1302)
    action = ActionAttributeSet.of(app_domain="d", go="yes")
    for _ in range(60):
        pool, requesters = _random_delegation_pool(rng)
        got = check_compliance([pool[0]], pool[1:], requesters, action)
        assert got == _oracle(pool, requesters, action)


def _conditions_first_fixpoint(pool, requesters, action):
    """The compliance loop that tests conditions before licensees on
    every pass, kept as the reference (signatures are not checked)."""
    from bandx.credentials import _licensees_satisfied, _principal_leaves

    principals = {POLICY} | set(requesters)
    for cred in pool:
        principals.add(cred.authorizer)
        principals |= _principal_leaves(cred.licensees)
    authorized = {p: p in requesters for p in principals}
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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["yes", "no", None]))
def test_compliance_matches_the_conditions_first_loop(seed, go):
    pool, requesters = _random_delegation_pool(random.Random(seed))
    action = ActionAttributeSet({"app_domain": "d", **({} if go is None else {"go": go})})
    got = check_compliance([pool[0]], pool[1:], requesters, action)
    assert got == _conditions_first_fixpoint(pool, requesters, action)


def test_compliance_evaluates_conditions_at_most_once_per_credential(monkeypatch, chain):
    from bandx import credentials

    evaluated: list = []
    original = credentials.eval_conditions

    def counted(clauses, action):
        evaluated.append(clauses)
        return original(clauses, action)

    monkeypatch.setattr(credentials, "eval_conditions", counted)
    assert check_compliance([chain.policy], [chain.cwc, chain.offer, chain.check],
                            [chain.alice.public_id], chain.action) is True
    assert len(evaluated) <= 4
    rng = random.Random(1913)
    action = ActionAttributeSet.of(app_domain="d", go="yes")
    for _ in range(40):
        pool, requesters = _random_delegation_pool(rng)
        evaluated.clear()
        check_compliance([pool[0]], pool[1:], requesters, action)
        assert len(evaluated) <= len(pool)


def test_adding_a_credential_never_revokes(chain):
    rng = random.Random(5)
    action = ActionAttributeSet.of(app_domain="d", go="yes")
    for _ in range(40):
        pool, requesters = _random_delegation_pool(rng)
        base = check_compliance([pool[0]], pool[1:], requesters, action)
        extra = generate_keypair(f"extra:{rng.randrange(10 ** 9)}")
        extra_cred = sign_credential(
            build_credential(extra.public_id, "", ""), extra
        )
        grown = check_compliance([pool[0]], pool[1:] + [extra_cred], requesters, action)
        assert not (base and not grown)


# Mutation suite over the conformance chain: each defect independently
# forces refusal.

def test_mutation_over_limit_amount():
    mutated = make_chain(amount="5.50")
    action = mutated.action
    assert check_compliance([mutated.policy], [mutated.cwc, mutated.offer, mutated.check],
                            (), action) is False


def test_mutation_expired_guarantor():
    mutated = make_chain(cg_expiry="20031101")  # before the transaction date
    assert check_compliance([mutated.policy], [mutated.cwc, mutated.offer, mutated.check],
                            (), mutated.action) is False


def test_mutation_wrong_currency():
    mutated = make_chain(currency="EUR")
    assert check_compliance([mutated.policy], [mutated.cwc, mutated.offer, mutated.check],
                            (), mutated.action) is False


def test_mutation_tampered_offer_link_rejected(chain):
    tampered = parse_credential(
        render_credential(chain.offer).replace("Dublin-NYC", "Dublin-LHR")
    )
    with pytest.raises(UnverifiedCredential):
        check_compliance([chain.policy], [chain.cwc, tampered, chain.check],
                         (), chain.action)
