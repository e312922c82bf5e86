"""Canonical bytes sliced from the signed text, and the size of a parsed
credential.

A credential whose source text is exactly its canonical rendering plus
the Signature line slices its canonical bytes from that text; any other
text, and any copy made with `dataclasses.replace`, renders them from
the structure. Both ways must give the same bytes.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from bandx.credentials import (
    Clause,
    Compare,
    Literal,
    build_credential,
    canonical_bytes,
    conjunction,
    parse_credential,
    pin,
    render_credential,
    sign_credential,
    verify_signature,
)
from bandx.keys import generate_keypair
from bandx.money import Money
from bandx.offers import QOS_PREMIUM, QOS_RESERVED, make_offer_credential
from bandx.payments import Wallet, issue_guarantor_credential

from helpers import held_growth

_PAIRS = [generate_keypair(f"slice:{i}") for i in range(3)]
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# Any one-line value: quotes, backslashes, `#`, non-ASCII and astral
# characters included.
_VALUES = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=_LINE_BREAKS),
    max_size=24,
)
_DATES = st.dates().map(lambda d: d.strftime("%Y%m%d")).filter(lambda s: len(s) == 8)


def _assert_sliced_as_rendered(signed) -> None:
    """The signed credential, and a parse of its text, slice the bytes a
    rendering gives (a `replace` copy always renders)."""
    assert signed._canonical_len is not None
    rendered = canonical_bytes(replace(signed))
    assert canonical_bytes(signed) == rendered
    parsed = parse_credential(signed.text())
    assert parsed._canonical_len is not None
    assert canonical_bytes(parsed) == rendered
    assert parsed == signed
    assert verify_signature(parsed) is True


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10 ** 7), st.from_regex(r"[0-9a-f]{12,20}", fullmatch=True), _DATES,
    st.sampled_from(["USD", "EUR"]), st.integers(0, 2), st.integers(0, 2),
)
def test_checks_and_guarantor_credentials_slice_their_rendered_bytes(
    cents, nonce, date, currency, payer, other
):
    wallet = Wallet(_PAIRS[payer])
    check = wallet.write_check(_PAIRS[other].public_id, Money(cents, currency), nonce, date)
    _assert_sliced_as_rendered(check)
    cwc = issue_guarantor_credential(_PAIRS[other], _PAIRS[payer].public_id,
                                     Money(cents, currency), date)
    _assert_sliced_as_rendered(cwc)


@settings(max_examples=60, deadline=None)
@given(
    _VALUES.filter(bool), st.integers(1, 10 ** 4), st.integers(1, 10 ** 6), _DATES,
    st.booleans(), st.sampled_from([QOS_RESERVED, QOS_PREMIUM]),
)
def test_offers_slice_their_rendered_bytes(link, mbps, cents, until, unbundle, qos):
    offer = make_offer_credential(_PAIRS[0], link, mbps, Money(cents), until,
                                  unbundling_allowed=unbundle, qos_class=qos)
    _assert_sliced_as_rendered(offer)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.from_regex(r"[A-Za-z_]\w{0,8}", fullmatch=True), _VALUES),
             min_size=1, max_size=5),
    st.one_of(st.none(), st.integers(0, 2)),
)
def test_any_pinned_conjunction_slices_its_rendered_bytes(pinned, licensee):
    lic = None if licensee is None else _PAIRS[licensee].public_id
    cred = conjunction(_PAIRS[1].public_id, lic, [pin(a, v) for a, v in pinned])
    _assert_sliced_as_rendered(sign_credential(cred, _PAIRS[1]))


# A signed credential with local constants, an escaped quote and a
# non-ASCII literal, in its canonical text.
_SIGNED = sign_credential(
    build_credential(
        _PAIRS[2].public_id,
        "B_KEY",
        'app_domain == "BAND-X" && note == "say \\"hi\\"" && city == "Zürich–Köln"'
        ' && &amount < 5.01 -> "true";',
        constants={"B_KEY": _PAIRS[0].public_id.canonical(),
                   "A_KEY": _PAIRS[1].public_id.canonical()},
    ),
    _PAIRS[2],
)
_CANONICAL = _SIGNED.text()


def _reorder_constants(text: str) -> str:
    head, _, rest = text.partition("Local-Constants: ")
    consts, nl, tail = rest.partition("\n")
    a, _, b = consts.partition(' B_KEY = ')
    return f"{head}Local-Constants: B_KEY = {b} {a}{nl}{tail}"


_NON_CANONICAL = {
    "extra spaces": _CANONICAL.replace(" && ", "   &&  ").replace(": ", ":   "),
    "comment": _CANONICAL.replace("Licensees:", "# a comment line\nLicensees:"),
    "trailing comment": _CANONICAL.replace('-> "true";', '-> "true"; # paid'),
    "continuation": _CANONICAL.replace(" && &amount", "\n\t&& &amount"),
    "reordered constants": _reorder_constants(_CANONICAL),
    "needless escape": _CANONICAL.replace('"BAND-X"', '"\\BAND-X"'),
    "escaped quote spaced": _CANONICAL.replace('note == "say \\"hi\\""', 'note ==  "say \\"hi\\""'),
    "non-ASCII spaced": _CANONICAL.replace('city == "Zürich–Köln"', 'city  ==  "Zürich–Köln"'),
}


def test_the_canonical_text_slices_across_non_ascii_literals():
    assert _SIGNED._canonical_len < len(canonical_bytes(_SIGNED))  # characters, not bytes
    _assert_sliced_as_rendered(_SIGNED)
    assert _reorder_constants(_CANONICAL) != _CANONICAL


def test_non_canonical_texts_render_the_same_bytes_and_verify():
    for name, text in _NON_CANONICAL.items():
        assert text != _CANONICAL, name
        cred = parse_credential(text)
        assert cred._canonical_len is None, name
        assert cred == _SIGNED, name
        assert canonical_bytes(cred) == canonical_bytes(_SIGNED), name
        assert verify_signature(cred) is True, name
        assert render_credential(cred) == _CANONICAL, name


def test_a_replaced_copy_renders_and_its_old_signature_fails():
    changed = (Clause(Compare("amount", "<", Literal("number", "9.99"), True), "true"),)
    for forged in (
        replace(_SIGNED, clauses=changed),
        replace(_SIGNED, clauses=changed, source_text=_CANONICAL),  # stale text kept
    ):
        assert forged._canonical_len is None
        assert canonical_bytes(forged) == canonical_bytes(replace(forged, source_text=None))
        assert canonical_bytes(forged) != canonical_bytes(_SIGNED)
        assert verify_signature(forged) is False
    # A copy that changes only the signature renders, too, and fails.
    alg, material = _SIGNED.signature
    flipped = material[:-4] + ("A" if material[-4] != "A" else "B") + material[-3:]
    resigned = replace(_SIGNED, signature=(alg, flipped), source_text=None)
    assert resigned._canonical_len is None
    assert canonical_bytes(resigned) == canonical_bytes(_SIGNED)
    assert verify_signature(resigned) is False


def test_a_parsed_check_holds_under_1800_bytes_beside_its_text():
    alice, merchant = generate_keypair("held:alice"), generate_keypair("held:merchant")
    wallet = Wallet(alice)
    texts = [
        wallet.write_check(merchant.public_id, Money(100 + i), f"{i:012x}", "20031119").text()
        for i in range(1_300)
    ]
    held: list = []
    it = iter(texts)
    # Texts were made before tracing starts, so only the parsed structure counts.
    grown = held_growth(lambda: held.append(parse_credential(next(it))), warmup=300,
                        rounds=1_000)
    assert grown / 1_000 < 1_800
