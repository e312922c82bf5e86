"""Guarantor credentials, microchecks, merchant-side verification, and
the settlement center ledger."""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandx.credentials import (
    ActionAttributeSet,
    KeyLeaf,
    eval_conditions,
    parse_credential,
    pins,
    render_credential,
    sign_credential,
)
from bandx.fabric import PaymentRefused, UnbundlingProhibited, sign_reservation_request
from bandx.keys import generate_keypair
from bandx.money import Money, date_of_instant
from bandx.offers import derive_offer_fields, make_offer_credential, open_offer
from bandx.payments import (
    StaleNonce,
    Wallet,
    build_merchant_policy,
    build_purchase_action,
    issue_guarantor_credential,
    open_microcheck,
    verify_payment,
)
from bandx.services import Bus, CscService, GuarantorService
from bandx.settlement import (
    REASON_BAD_SIGNATURE,
    REASON_DOUBLE_DEPOSIT,
    REASON_MALFORMED,
    REASON_REFUSED,
    REASON_UNBUNDLING,
    REASON_UNDERPAID,
    REASON_UNKNOWN_GUARANTOR,
    SettlementCenter,
    TransactionRecord,
    decode_journal,
    decode_record,
    encode_journal_entry,
    encode_record,
)

from conftest import make_chain
from helpers import (
    TODAY,
    counting_scheme_verify,
    held_growth,
    settlement_world,
    two_isp_world,
)


# ---------------------------------------------------------------------------
# Guarantor credentials
# ---------------------------------------------------------------------------

def test_guarantor_credential_bounds():
    bank = generate_keypair("p:bank")
    alice = generate_keypair("p:alice")
    cred = issue_guarantor_credential(bank, alice.public_id, Money(500), "20040324")
    text = render_credential(cred)
    assert "&amount < 5.01" in text
    assert 'date < "20040324"' in text
    assert cred.licensees == KeyLeaf(alice.public_id.canonical())
    assert pins(cred) == {"app_domain": "BAND-X", "currency": "USD"}

    base = dict(app_domain="BAND-X", currency="USD", date="20040320")
    assert eval_conditions(cred.clauses, ActionAttributeSet.of(amount="5.00", **base))
    assert not eval_conditions(cred.clauses, ActionAttributeSet.of(amount="5.01", **base))


def test_issue_cwc_signs_nothing_for_more_than_one_payer_key():
    bank = generate_keypair("p:bank")
    a, b = (generate_keypair(f"p:{n}").public_id.canonical() for n in ("a", "b"))
    bus = Bus({"guarantor": GuarantorService(bank)})
    fields = {"limit_cents": "500", "expiry": "20040324"}
    for payer in (f'{a}"||"{b}', f'{a}" && "{b}', f"{a} {b}"):
        reply = bus.send("guarantor", "ISSUE-CWC", {**fields, "payer_key": payer})
        assert reply.msg_type == "ERROR"
        assert reply.require("code") == "invalid"
        assert "credential" not in reply.blocks
    reply = bus.send("guarantor", "ISSUE-CWC", {**fields, "payer_key": a})
    cwc = parse_credential(reply.blocks["credential"].decode("utf-8"))
    assert cwc.licensees == KeyLeaf(a)


def test_guarantor_expiry_must_be_future_of_now():
    bank = generate_keypair("p:bank")
    alice = generate_keypair("p:alice")
    with pytest.raises(ValueError):
        issue_guarantor_credential(bank, alice.public_id, Money(500), "20030101",
                                   now="20031119")


# ---------------------------------------------------------------------------
# Microchecks
# ---------------------------------------------------------------------------

def test_check_matches_published_listing_shape(chain):
    wallet = Wallet(chain.alice, chain.cwc)
    check = wallet.write_check(chain.merchant.public_id, Money(425),
                               "eb2c3dfc8e9a", "20031119")
    text = render_credential(check)
    assert 'amount == "4.25"' in text
    assert 'nonce == "eb2c3dfc8e9a"' in text
    assert 'date == "20031119"' in text
    view = open_microcheck(check)
    assert view.amount == Money(425)
    assert view.merchant_key == chain.merchant.public_id.canonical()


def test_nonce_reuse_is_stale(chain):
    wallet = Wallet(chain.alice, chain.cwc)
    wallet.write_check(chain.merchant.public_id, Money(100), "aaaaaaaaaaaa", TODAY)
    with pytest.raises(StaleNonce):
        wallet.write_check(chain.merchant.public_id, Money(200), "aaaaaaaaaaaa", TODAY)


def test_underpaying_check_fails_merchant_side(chain):
    # The wallet will happily write it; the merchant's gate refuses.
    wallet = Wallet(chain.alice, chain.cwc)
    check = wallet.write_check(chain.merchant.public_id, Money(100),
                               "bbbbbbbbbbbb", "20031119")
    offer = open_offer(chain.offer)
    action = build_purchase_action(offer, 50, Money(100), "bbbbbbbbbbbb", "20031119")
    assert verify_payment(chain.policy, chain.cwc, chain.offer, check, action) is False


# ---------------------------------------------------------------------------
# verify_payment on the conformance fixture
# ---------------------------------------------------------------------------

def test_fixture_payment_verifies(chain):
    assert verify_payment(chain.policy, chain.cwc, chain.offer, chain.check,
                          chain.action) is True


def test_fixture_payment_over_limit_refused():
    mutated = make_chain(amount="5.50")
    assert verify_payment(mutated.policy, mutated.cwc, mutated.offer, mutated.check,
                          mutated.action) is False


def test_guarantor_outside_policy_refused(chain):
    stranger = generate_keypair("p:stranger-bank")
    foreign_cwc = issue_guarantor_credential(
        stranger, chain.alice.public_id, Money(500), "20040324"
    )
    assert verify_payment(chain.policy, foreign_cwc, chain.offer, chain.check,
                          chain.action) is False


def test_merchant_policy_accepts_any_listed_guarantor(chain):
    other = generate_keypair("p:second-bank")
    policy = build_merchant_policy(
        chain.merchant.public_id, [other.public_id, chain.guarantor.public_id]
    )
    assert verify_payment(policy, chain.cwc, chain.offer, chain.check,
                          chain.action) is True


# ---------------------------------------------------------------------------
# Settlement
# ---------------------------------------------------------------------------

def _fixture_record(chain) -> TransactionRecord:
    return TransactionRecord(
        offer=chain.offer,
        microcheck=chain.check,
        guarantor=chain.cwc,
        action=chain.action,
        merchant_key=chain.merchant.public_id.canonical(),
        received_at=TODAY,
    )


def test_deposit_splits_amount_commission_and_debit(chain):
    csc = SettlementCenter([chain.guarantor.public_id])
    report = csc.deposit_batch([_fixture_record(chain)])
    assert len(report.accepted) == 1 and not report.rejected
    # 100 basis points of 425¢, rounded up: ceil(4.25) = 5¢.
    payer = chain.alice.public_id.canonical()
    merchant = chain.merchant.public_id.canonical()
    assert csc.account_balance(payer).cents == -425
    assert csc.account_balance(merchant).cents == 420
    assert csc.account_balance("csc").cents == 5
    assert report.commission_taken == (Money(5),)


def test_double_deposit_rejected_and_balances_stable(chain):
    csc = SettlementCenter([chain.guarantor.public_id])
    record = _fixture_record(chain)
    csc.deposit_batch([record])
    before = csc.balances()
    report = csc.deposit_batch([record])
    assert report.accepted == ()
    assert report.rejected[0][1] == REASON_DOUBLE_DEPOSIT
    assert csc.balances() == before


def test_empty_batch_empty_report(chain):
    csc = SettlementCenter([chain.guarantor.public_id])
    report = csc.deposit_batch([])
    assert report.accepted == () and report.rejected == ()
    assert report.commission_taken == ()


def test_unknown_guarantor_rejected(chain):
    stranger = generate_keypair("p:unknown-bank")
    cwc = issue_guarantor_credential(stranger, chain.alice.public_id, Money(500),
                                     "20040324")
    record = replace(_fixture_record(chain), guarantor=cwc)
    csc = SettlementCenter([chain.guarantor.public_id])
    report = csc.deposit_batch([record])
    assert report.rejected[0][1] == REASON_UNKNOWN_GUARANTOR


def test_account_balance_unknown_key_is_zero(chain):
    csc = SettlementCenter([chain.guarantor.public_id])
    assert csc.account_balance("ed25519-base64:nobody").cents == 0


def test_conservation_across_random_batches():
    rng = random.Random(31)
    world = settlement_world(rng)
    csc = SettlementCenter([world.guarantor.public_id])
    seen: list[TransactionRecord] = []
    for _ in range(40):
        batch = [world.random_record(seen) for _ in range(rng.randint(0, 4))]
        seen.extend(batch)
        csc.deposit_batch(batch)
        totals: dict[str, int] = {}
        for (key, cur), cents in csc.balances().items():
            totals[cur] = totals.get(cur, 0) + cents
        assert all(v == 0 for v in totals.values())


def test_at_most_one_acceptance_per_payer_nonce(tmp_path):
    rng = random.Random(77)
    world = settlement_world(rng)
    journal = tmp_path / "csc.journal"
    csc = SettlementCenter([world.guarantor.public_id], journal_path=journal)
    seen: list[TransactionRecord] = []
    accepted_pairs: list[tuple[str, str]] = []
    for _ in range(60):
        batch = [world.random_record(seen) for _ in range(rng.randint(1, 3))]
        seen.extend(batch)
        csc.deposit_batch(batch)
    entries = decode_journal(journal.read_bytes())
    for entry in entries:
        if entry.accepted:
            accepted_pairs.append((entry.payer, entry.nonce))
    assert len(accepted_pairs) == len(set(accepted_pairs))
    assert any(e.reason == REASON_DOUBLE_DEPOSIT for e in entries)


def test_forged_records_cannot_debit_the_victim(chain):
    rng = random.Random(13)
    csc = SettlementCenter([chain.guarantor.public_id])
    victim = chain.alice.public_id.canonical()
    attacker = generate_keypair("p:attacker")
    base = _fixture_record(chain)

    forgeries = []
    # Tampered amount on a validly signed check.
    forgeries.append(replace(base, microcheck=parse_credential(
        render_credential(chain.check).replace("4.25", "0.01"))))
    # Unsigned check naming the victim as authorizer.
    unsigned = parse_credential(
        "\n".join(
            line for line in render_credential(chain.check).splitlines()
            if not line.startswith("Signature")
        ) + "\n"
    )
    forgeries.append(replace(base, microcheck=unsigned))
    # Check re-signed by the attacker while claiming the victim's key.
    victim_text = render_credential(chain.check)
    resigned = sign_credential(
        replace(parse_credential(victim_text.replace(victim, attacker.public_id.canonical())),
                signature=None),
        attacker,
    )
    forgeries.append(replace(base, microcheck=resigned))
    # Random bit flips over the signed check text. Mutations that leave
    # the canonical bytes untouched are the victim's own check in a new
    # layout, not forgeries, so they are skipped.
    from bandx.credentials import canonical_bytes

    text = render_credential(chain.check)
    genuine = canonical_bytes(chain.check)
    for _ in range(30):
        i = rng.randrange(len(text))
        mutated_text = text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]
        try:
            mutated = parse_credential(mutated_text)
        except Exception:
            continue
        if canonical_bytes(mutated) == genuine:
            continue
        forgeries.append(replace(base, microcheck=mutated))

    report = csc.deposit_batch(forgeries)
    # Nothing built without the victim's signing key may clear, and the
    # victim's balance must stay whole.
    assert report.accepted == ()
    assert len(report.rejected) == len(forgeries)
    assert csc.account_balance(victim).cents == 0


def test_rejected_records_change_no_balances(chain):
    csc = SettlementCenter([chain.guarantor.public_id])
    bad = replace(_fixture_record(chain), microcheck=parse_credential(
        render_credential(chain.check).replace("4.25", "9.99")))
    before = csc.balances()
    report = csc.deposit_batch([bad])
    assert report.accepted == ()
    assert csc.balances() == before


# ---------------------------------------------------------------------------
# One payment verdict at the network element and at the settlement center
# ---------------------------------------------------------------------------

# Single-fault mutations of one purchase: the network element's refusal
# and the settlement center's reason for the record it would have
# queued, as in the table in docs/formats.md.
AGREEMENT = {
    "forged-offer": (PaymentRefused, REASON_BAD_SIGNATURE),
    "forged-check": (PaymentRefused, REASON_BAD_SIGNATURE),
    "forged-guarantor": (PaymentRefused, REASON_BAD_SIGNATURE),
    "untrusted-guarantor": (PaymentRefused, REASON_UNKNOWN_GUARANTOR),
    "other-payee": (PaymentRefused, REASON_MALFORMED),
    "underpaid": (PaymentRefused, REASON_UNDERPAID),
    "part-of-whole-only": (UnbundlingProhibited, REASON_UNBUNDLING),
    "other-day": (PaymentRefused, REASON_REFUSED),
}


def _forge(cred):
    """`cred` with one character of its signature changed."""
    alg, material = cred.signature
    flipped = material[:-4] + ("A" if material[-4] != "A" else "B") + material[-3:]
    return parse_credential(
        render_credential(replace(cred, signature=(alg, flipped), source_text=None))
    )


@settings(max_examples=60, deadline=None)
@given(
    fault=st.sampled_from([None, *AGREEMENT]),
    mbps=st.sampled_from([20, 50, 100]),
    cents=st.integers(100, 900),
    unbundle=st.booleans(),
    half=st.booleans(),
    future=st.booleans(),
)
def test_network_element_and_settlement_center_agree(fault, mbps, cents, unbundle, half,
                                                     future):
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    today = date_of_instant(world.now)
    whole_only = fault == "part-of-whole-only"
    unbundle = unbundle and not whole_only
    purchased = mbps // 2 if whole_only or (half and unbundle) else mbps
    offer = make_offer_credential(world.isp_a, "Rome-Paris", mbps, Money(cents), "20031125",
                                  unbundling_allowed=unbundle)
    amount = derive_offer_fields(offer).prorated_price(purchased)
    if fault == "underpaid":
        amount = Money(amount.cents - 1)
    guarantor = world.cwc
    if fault == "untrusted-guarantor":
        rogue = generate_keypair("agreement:rogue-bank")
        guarantor = issue_guarantor_credential(rogue, world.customer.public_id, Money(10_000),
                                               "20041231")
    check = world.wallet.write_check(
        (world.isp_b if fault == "other-payee" else world.isp_a).public_id,
        amount,
        "a11ce0000000cafe",
        date_of_instant(world.now + 86_400) if fault == "other-day" else today,
    )
    offer = _forge(offer) if fault == "forged-offer" else offer
    check = _forge(check) if fault == "forged-check" else check
    guarantor = _forge(guarantor) if fault == "forged-guarantor" else guarantor
    challenge = ne.issue_challenge(world.now)
    req = sign_reservation_request(world.customer, challenge.challenge_id, (offer,), guarantor,
                                   (check,), purchased)
    start = world.now + 86_400

    def submit():
        if future:
            return ne.book_future(req, (start, start + 3600), world.now)
        return ne.handle_spot_request(req, world.now)

    csc = SettlementCenter([world.guarantor.public_id])
    if fault is None:
        submit()
        records = world.fabric.flush_records()
        assert len(records) == 1
        report = csc.deposit_batch(records)
        assert len(report.accepted) == 1 and report.rejected == ()
        assert csc.dispute_replay(records[0]) is True
        assert csc.recorded_verdict(records[0].record_id()) is True
        return

    refusal, reason = AGREEMENT[fault]
    with pytest.raises(refusal) as refused:
        submit()
    assert refused.type is refusal
    assert world.fabric.flush_records() == []
    view = open_microcheck(check)
    record = TransactionRecord(
        offer=offer,
        microcheck=check,
        guarantor=guarantor,
        action=build_purchase_action(derive_offer_fields(offer), purchased, view.amount,
                                     view.nonce, today),
        merchant_key=ne.isp_key,
        received_at=today,
    )
    report = csc.deposit_batch([record])
    assert report.rejected == ((record.record_id(), reason),)
    assert csc.dispute_replay(record) is False
    assert csc.recorded_verdict(record.record_id()) is False


# ---------------------------------------------------------------------------
# Dispute replay
# ---------------------------------------------------------------------------

def test_replay_accepted_record(chain):
    csc = SettlementCenter([chain.guarantor.public_id])
    record = _fixture_record(chain)
    csc.deposit_batch([record])
    assert csc.dispute_replay(record) is True
    assert csc.recorded_verdict(record.record_id()) is True


def test_replay_verifies_every_signature_anew(chain, monkeypatch):
    csc = SettlementCenter([chain.guarantor.public_id])
    record = _fixture_record(chain)
    csc.deposit_batch([record])  # the memo now holds all three signatures
    calls = counting_scheme_verify(monkeypatch)
    csc.deposit_batch([record])  # a double deposit, decided from the memo
    assert calls == []
    assert csc.dispute_replay(record) is True
    signers = {chain.guarantor.public_id, chain.merchant.public_id, chain.alice.public_id}
    assert len(calls) == 3 and set(calls) == signers


def test_replay_of_a_record_decoded_twice_verifies_every_signature(chain, monkeypatch):
    csc = SettlementCenter([chain.guarantor.public_id])
    data = encode_record(_fixture_record(chain))
    first, second = decode_record(data), decode_record(data)
    assert second.offer is first.offer  # the second decode came from the parse memo
    csc.deposit_batch([first])
    calls = counting_scheme_verify(monkeypatch)
    assert csc.dispute_replay(second) is True
    assert len(calls) == 3


def test_replay_tampered_record_is_false(chain):
    csc = SettlementCenter([chain.guarantor.public_id])
    tampered = replace(_fixture_record(chain), microcheck=parse_credential(
        render_credential(chain.check).replace("4.25", "4.26")))
    csc.deposit_batch([tampered])
    assert csc.dispute_replay(tampered) is False
    assert csc.recorded_verdict(tampered.record_id()) is False


def test_replay_matches_recorded_verdicts_at_scale(tmp_path):
    rng = random.Random(500)
    world = settlement_world(rng)
    journal = tmp_path / "csc.journal"
    csc = SettlementCenter([world.guarantor.public_id], journal_path=journal)
    seen: list[TransactionRecord] = []
    for _ in range(100):
        batch = [world.random_record(seen) for _ in range(5)]
        seen.extend(batch)
        csc.deposit_batch(batch)
    entries = decode_journal(journal.read_bytes())
    assert len(entries) == 500
    for entry in entries:
        assert csc.dispute_replay(entry.record) == entry.verdict


def test_a_deposit_settles_records_in_block_order_past_999():
    world = settlement_world(random.Random(1000))
    records = [world.random_record() for _ in range(1002)]
    # rec999 and rec1000 share a (payer, nonce): the earlier block wins.
    records[1000] = replace(records[999], received_at="20031120")
    bus = Bus({"csc": CscService(SettlementCenter([world.guarantor.public_id]))})
    blocks = {f"rec{i:03d}": encode_record(r) for i, r in enumerate(records)}
    reply = bus.send("csc", "DEPOSIT", {"count": str(len(records))}, blocks)
    assert (reply.get("accepted"), reply.get("rejected")) == ("1001", "1")
    lines = reply.block("report").decode("utf-8").splitlines()
    ids = [r.record_id() for r in records]
    assert [line.split(" ")[1] for line in lines[:-1]] == ids[:1000] + ids[1001:]
    assert lines[-1] == f"rejected {ids[1000]} {REASON_DOUBLE_DEPOSIT}"


def test_a_center_holds_only_a_verdict_per_settled_record():
    world = settlement_world(random.Random(19))
    csc = SettlementCenter([world.guarantor.public_id])

    def step():
        # Fresh checkbooks, so the test itself keeps no used nonces.
        world.wallets = [Wallet(w.pair, w.guarantor_credential) for w in world.wallets]
        csc.deposit_batch([world.random_record() for _ in range(10)])

    per_record = held_growth(step, warmup=30, rounds=100) / 1000
    assert per_record < 800, f"{per_record:.0f} bytes held per settled record"


# ---------------------------------------------------------------------------
# Journal persistence
# ---------------------------------------------------------------------------

def test_journal_restart_preserves_state(chain, tmp_path):
    journal = tmp_path / "csc.journal"
    csc = SettlementCenter([chain.guarantor.public_id], journal_path=journal)
    record = _fixture_record(chain)
    csc.deposit_batch([record])
    balances = csc.balances()

    reborn = SettlementCenter([chain.guarantor.public_id], journal_path=journal)
    assert reborn.balances() == balances
    report = reborn.deposit_batch([record])
    assert report.rejected[0][1] == REASON_DOUBLE_DEPOSIT
    assert reborn.recorded_verdict(record.record_id()) is True


def test_journal_tolerates_torn_tail(chain, tmp_path):
    journal = tmp_path / "csc.journal"
    csc = SettlementCenter([chain.guarantor.public_id], journal_path=journal)
    record = _fixture_record(chain)
    csc.deposit_batch([record])
    data = journal.read_bytes()
    journal.write_bytes(data + data[: len(data) // 3])  # simulate a crash mid-append

    reborn = SettlementCenter([chain.guarantor.public_id], journal_path=journal)
    assert reborn.balances() == csc.balances()
    assert [e.record_id for e in decode_journal(journal.read_bytes())] == [record.record_id()]
    assert reborn.recorded_verdict(record.record_id()) is True


def test_each_record_is_journaled_before_its_effects_count(tmp_path, monkeypatch):
    world = settlement_world(random.Random(72))
    records = [world.random_record() for _ in range(3)]
    journal = tmp_path / "csc.journal"
    csc = SettlementCenter([world.guarantor.public_id], journal_path=journal)
    apply = SettlementCenter._apply
    on_disk = []

    def checked_apply(self, entry):
        on_disk.append([e.record_id for e in decode_journal(journal.read_bytes())])
        apply(self, entry)

    monkeypatch.setattr(SettlementCenter, "_apply", checked_apply)
    csc.deposit_batch(records)
    assert on_disk == [[r.record_id() for r in records[: k + 1]] for k in range(3)]


def test_journal_torn_at_every_offset_replays_whole_entries_only(tmp_path):
    world = settlement_world(random.Random(71))
    records = [world.random_record() for _ in range(3)]
    guarantors = [world.guarantor.public_id]
    journal = tmp_path / "csc.journal"
    csc = SettlementCenter(guarantors, journal_path=journal)
    csc.deposit_batch(records)
    data = journal.read_bytes()
    ends = list(accumulate(len(encode_journal_entry(e)) for e in decode_journal(data)))
    assert ends[-1] == len(data)
    expected = []
    for k in range(len(records) + 1):
        fed = SettlementCenter(guarantors)
        fed.deposit_batch(records[:k])
        expected.append(fed.balances())
    assert len({tuple(sorted(b.items())) for b in expected}) == len(expected)

    with journal.open("r+b") as fh:  # cut in place, longest tail first
        for cut in range(len(data), -1, -1):
            fh.truncate(cut)
            fh.flush()
            reborn = SettlementCenter(guarantors, journal_path=journal)
            whole = sum(end <= cut for end in ends)
            replayed = [r.record_id() for r in records
                        if reborn.recorded_verdict(r.record_id()) is not None]
            assert replayed == [r.record_id() for r in records[:whole]], cut
            assert reborn.balances() == expected[whole], cut
