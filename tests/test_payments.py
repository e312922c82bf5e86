"""Guarantor credentials, microchecks, merchant-side verification, and
the settlement center ledger."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from bandx.credentials import (
    ActionAttributeSet,
    eval_conditions,
    parse_credential,
    render_credential,
    sign_credential,
)
from bandx.keys import generate_keypair
from bandx.money import Money
from bandx.offers import open_offer
from bandx.payments import (
    StaleNonce,
    Wallet,
    build_merchant_policy,
    build_purchase_action,
    issue_guarantor_credential,
    open_guarantor,
    open_microcheck,
    verify_payment,
)
from bandx.settlement import (
    REASON_DOUBLE_DEPOSIT,
    REASON_UNKNOWN_GUARANTOR,
    SettlementCenter,
    TransactionRecord,
)

from conftest import make_chain
from helpers import TODAY, counting_scheme_verify, settlement_world


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
    view = open_guarantor(cred)
    assert view.per_check_limit == Money(500)
    assert view.payer_key == alice.public_id.canonical()

    base = dict(app_domain="BAND-X", currency="USD", date="20040320")
    assert eval_conditions(cred.clauses, ActionAttributeSet.of(amount="5.00", **base))
    assert not eval_conditions(cred.clauses, ActionAttributeSet.of(amount="5.01", **base))


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


def test_daily_aggregate_cap_rejects_excess(chain):
    # Per-check limit still honored, but the configured daily aggregate
    # cap bounds the payer's total across checks of one day.
    csc = SettlementCenter([chain.guarantor.public_id],
                           daily_payer_cap=Money(600))
    wallet = Wallet(chain.alice, chain.cwc)
    offer = open_offer(chain.offer)

    def record(nonce: str) -> TransactionRecord:
        from bandx.payments import build_purchase_action

        check = wallet.write_check(chain.merchant.public_id, Money(425), nonce,
                                   "20031119")
        action = build_purchase_action(offer, 50, Money(425), nonce, "20031119")
        return TransactionRecord(chain.offer, check, chain.cwc, action,
                                 chain.merchant.public_id.canonical(), TODAY)

    first = csc.deposit_batch([record("aaaaaaaaaaa1")])
    assert len(first.accepted) == 1
    second = csc.deposit_batch([record("aaaaaaaaaaa2")])  # 850 > 600 cap
    assert second.rejected[0][1] == "aggregate-cap"
    payer = chain.alice.public_id.canonical()
    assert csc.account_balance(payer).cents == -425


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


def test_at_most_one_acceptance_per_payer_nonce():
    rng = random.Random(77)
    world = settlement_world(rng)
    csc = SettlementCenter([world.guarantor.public_id])
    seen: list[TransactionRecord] = []
    accepted_pairs: list[tuple[str, str]] = []
    for _ in range(60):
        batch = [world.random_record(seen) for _ in range(rng.randint(1, 3))]
        seen.extend(batch)
        csc.deposit_batch(batch)
    for entry in csc.entries():
        if entry.accepted:
            accepted_pairs.append((entry.payer, entry.nonce))
    assert len(accepted_pairs) == len(set(accepted_pairs))
    assert any(e.reason == REASON_DOUBLE_DEPOSIT for e in csc.entries())


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


def test_replay_tampered_record_is_false(chain):
    csc = SettlementCenter([chain.guarantor.public_id])
    tampered = replace(_fixture_record(chain), microcheck=parse_credential(
        render_credential(chain.check).replace("4.25", "4.26")))
    csc.deposit_batch([tampered])
    assert csc.dispute_replay(tampered) is False
    assert csc.recorded_verdict(tampered.record_id()) is False


def test_replay_matches_recorded_verdicts_at_scale():
    rng = random.Random(500)
    world = settlement_world(rng)
    csc = SettlementCenter([world.guarantor.public_id])
    seen: list[TransactionRecord] = []
    while len(list(csc.entries())) < 500:
        batch = [world.random_record(seen) for _ in range(5)]
        seen.extend(batch)
        csc.deposit_batch(batch)
    for entry in csc.entries():
        assert csc.dispute_replay(entry.record) == entry.verdict


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
    assert len(list(reborn.entries())) == 1
