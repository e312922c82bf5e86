"""settle: DEPOSIT batches into the CSC role with DISPUTE replays beside them.

Set-up makes two trusted guarantors and one unknown one, the payers,
the merchants and their offers, and the first epoch of signed records.
An epoch is one settlement center's lifetime. A fixed share of its
records are exact duplicates and a small share are forged, from the
unknown guarantor or underpaid; they are deposited in batches of
varying size through the `Bus` with the journal on, and each batch is
followed by a few replays of records already settled. The counts,
shares and ranges are the `SETTLE_*` constants in `gen.py`. When an
epoch's records are used up the next epoch's records are generated
with the clock stopped and a fresh center opens on a fresh journal, so
memory does not grow with throughput.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

from bandx.credentials import render_credential
from bandx.keys import generate_keypair
from bandx.money import Money, date_of_instant
from bandx.offers import open_offer
from bandx.payments import Wallet, build_purchase_action, issue_guarantor_credential
from bandx.qna import raise_for_error
from bandx.services import Bus, CscService
from bandx.settlement import SettlementCenter, TransactionRecord, encode_record

from common import (
    FAR_EXPIRY,
    SIM_START,
    Run,
    balance_lines,
    conserved,
    offer_credential,
    report_lines,
)
from gen import SETTLE_MERCHANTS, SETTLE_PAYERS, SettleInputs

DAY = 86_400
TODAY = date_of_instant(SIM_START)
REASONS = {  # record kind -> (verdict, rejection reason or None)
    "valid": (True, None),
    "duplicate": (True, "double-deposit"),
    "forged": (False, "bad-signature"),
    "unknown": (False, "unknown-guarantor"),
    "underpaid": (False, "underpaid"),
}


def _forge(check):
    """The same check with one bit of its signature flipped."""
    alg, material = check.signature
    flipped = material[:-4] + ("A" if material[-4] != "A" else "B") + material[-3:]
    forged = replace(check, signature=(alg, flipped), source_text=None)
    return replace(forged, source_text=render_credential(forged))


class Epoch:
    """Records of one settlement center and what each must come to."""

    def __init__(self, number: int, records: list[bytes], kinds: list[str], ids: list[str],
                 payers: list[tuple[str, str]], plan, journal: Path):
        self.number = number
        self.records = records
        self.kinds = kinds
        self.ids = ids
        self.payers = payers  # (payer key, nonce) per record
        self.plan = plan
        self.next_batch = 0
        self.deposited = 0
        self.journal = journal
        self.index_of = {rid: i for i, rid in reversed(list(enumerate(ids)))}
        self.accepted: Counter = Counter()  # (payer key, nonce) -> acceptances
        self.rejections: Counter = Counter()


class Settle:
    primary = "deposit"  # per-layer totals are divided by records deposited

    def __init__(self, seed: int, run: Run, workdir: Path):
        self.run = run
        self.inputs = SettleInputs(seed)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"settle-{seed}-", dir=workdir))
        k = {n: generate_keypair(f"perfbench:{seed}:{n}") for n in ("g0", "g1", "gx")}
        self.trusted = [k["g0"].public_id.canonical(), k["g1"].public_id.canonical()]
        self.wallets = []
        for i in range(SETTLE_PAYERS):
            pair = generate_keypair(f"perfbench:{seed}:payer{i}")
            cwc = issue_guarantor_credential(k[f"g{i % 2}"], pair.public_id, Money(5000), FAR_EXPIRY)
            self.wallets.append(Wallet(pair, cwc))
        stranger = generate_keypair(f"perfbench:{seed}:stranger")
        self.stranger = Wallet(stranger, issue_guarantor_credential(
            k["gx"], stranger.public_id, Money(5000), FAR_EXPIRY))
        merchants = {f"m{i}": generate_keypair(f"perfbench:{seed}:m{i}")
                     for i in range(SETTLE_MERCHANTS)}
        self.offer_specs = self.inputs.offers()
        self.offers = []
        for spec in self.offer_specs:
            self.offers.append(open_offer(offer_credential(
                merchants[spec.provider], spec, date_of_instant(SIM_START + spec.valid_days * DAY))))
        self.state_hash = hashlib.sha256()
        self.previous: tuple[Epoch, dict] | None = None
        self.timed_kinds: Counter = Counter()
        self.timed_outcomes: Counter = Counter()
        self.journal_bytes = 0
        self.journal_records = 0
        self.epoch = None
        self._open_epoch(0)

    # -- inputs -------------------------------------------------------------------

    def _record(self, spec, epoch_records: list[TransactionRecord]):
        if spec.kind == "duplicate":
            return epoch_records[spec.copy_of]
        wallet = self.stranger if spec.kind == "unknown" else self.wallets[spec.payer]
        offer = self.offers[spec.offer]
        mbps = offer.bandwidth_mbps if spec.full else offer.bandwidth_mbps // 2
        amount = offer.prorated_price(mbps)
        if spec.kind == "underpaid":
            amount = Money(amount.cents - 1)
        check = wallet.write_check(offer.isp_key, amount, spec.nonce, TODAY)
        if spec.kind == "forged":
            check = _forge(check)
        return TransactionRecord(
            offer=offer.credential,
            microcheck=check,
            guarantor=wallet.guarantor_credential,
            action=build_purchase_action(offer, mbps, amount, spec.nonce, TODAY),
            merchant_key=offer.isp_key,
            received_at=TODAY,
        )

    def _open_epoch(self, number: int) -> None:
        specs = self.inputs.epoch(self.offer_specs)
        plan = self.inputs.plan(len(specs))
        records: list[TransactionRecord] = []
        for spec in specs:
            records.append(self._record(spec, records))
        journal = self.tmp / f"journal-{number}.log"
        self.epoch = Epoch(
            number,
            [encode_record(r) for r in records],
            [s.kind for s in specs],
            [r.record_id() for r in records],
            [(r.microcheck.authorizer, (s.nonce if s.kind != "duplicate" else specs[s.copy_of].nonce))
             for r, s in zip(records, specs)],
            plan,
            journal,
        )
        self.center = SettlementCenter(self.trusted, journal_path=journal)
        self.bus = Bus({"csc": CscService(self.center, SIM_START)})

    # -- ops ----------------------------------------------------------------------

    def warm_up(self) -> None:
        pass

    def step(self) -> None:
        """One DEPOSIT batch and the DISPUTE replays that follow it."""
        run = self.run
        epoch = self.epoch
        if epoch.next_batch == len(epoch.plan):
            with run.untimed():
                self._close_epoch()
                self._open_epoch(epoch.number + 1)
            epoch = self.epoch
        size, picks = epoch.plan[epoch.next_batch]
        epoch.next_batch += 1
        first = epoch.deposited
        blocks = {f"rec{j:03d}": epoch.records[first + j] for j in range(size)}
        reply, exc = run.call("deposit", self.bus.send, "csc", "DEPOSIT", {"count": str(size)}, blocks)
        epoch.deposited += size
        with run.untimed():
            kinds = epoch.kinds[first:first + size]
            self.timed_kinds.update(kinds)
            if run.expect(exc is None and reply.msg_type == "SETTLED",
                          f"deposit batch raised {exc!r}" if exc else f"deposit: {reply.fields}"):
                self._check_batch(epoch, first, size, reply)
        for pick in picks:
            reply, exc = run.call("dispute", self.bus.send, "csc", "DISPUTE", {},
                                  {"record": epoch.records[pick]})
            verdict = "true" if REASONS[epoch.kinds[pick]][0] else "false"
            run.expect(
                exc is None and reply.get("verdict") == verdict and reply.get("recorded") == verdict,
                f"dispute of a {epoch.kinds[pick]} record: {exc or reply.fields}, expected {verdict}",
            )

    def _check_batch(self, epoch: Epoch, first: int, size: int, reply) -> None:
        expect_accepted: Counter = Counter()
        expect_rejected: Counter = Counter()
        for i in range(first, first + size):
            reason = REASONS[epoch.kinds[i]][1]
            if reason is None:
                expect_accepted[epoch.ids[i]] += 1
            else:
                expect_rejected[(epoch.ids[i], reason)] += 1
        got_accepted: Counter = Counter()
        got_rejected: Counter = Counter()
        for line in report_lines(reply.block("report").decode("utf-8")):
            verdict, rid, detail = line.split(" ")
            if verdict == "accepted":
                got_accepted[rid] += 1
            else:
                got_rejected[(rid, detail)] += 1
        self.timed_outcomes["accepted"] += sum(got_accepted.values())
        self.timed_outcomes["rejected"] += sum(got_rejected.values())
        epoch.rejections.update(reason for _, reason in got_rejected.elements())
        for rid, n in got_accepted.items():
            if not self.run.expect(rid in epoch.index_of, f"accepted unknown record {rid}"):
                continue
            payer_nonce = epoch.payers[epoch.index_of[rid]]
            epoch.accepted[payer_nonce] += n
            self.run.expect(epoch.accepted[payer_nonce] == 1,
                            f"(payer, nonce) {payer_nonce} accepted {epoch.accepted[payer_nonce]} times")
        self.run.expect(
            got_accepted == expect_accepted and got_rejected == expect_rejected,
            f"batch at record {first} of epoch {epoch.number}: accepted "
            f"{sorted(got_accepted.values())} rejected {sorted(got_rejected)[:3]}",
        )

    # -- epochs and the end of the run -------------------------------------------

    def _balances(self) -> dict[str, int]:
        return balance_lines(raise_for_error(self.bus.send("csc", "REPORT")).block("report"))

    def _close_epoch(self) -> None:
        epoch = self.epoch
        balances = self._balances()
        self.run.expect(conserved(balances), f"epoch {epoch.number}: balances not conserved")
        state = {"epoch": epoch.number, "deposited": epoch.deposited, "balances": balances,
                 "rejections": dict(epoch.rejections)}
        self.state_hash.update(json.dumps(state, sort_keys=True).encode("utf-8"))
        self.journal_bytes += epoch.journal.stat().st_size
        self.journal_records += epoch.deposited
        if self.previous is not None:
            self.previous[0].journal.unlink()
        self.previous = (epoch, balances)

    def _reopened_balances(self, journal: Path) -> dict[str, int]:
        reopened = SettlementCenter(self.trusted, journal_path=journal)
        return {f"{key} {cur}": cents for (key, cur), cents in reopened.balances().items()}

    def finish(self) -> dict:
        self._close_epoch()
        epoch, balances = self.previous
        self.run.expect(self._reopened_balances(epoch.journal) == balances,
                        f"journal of epoch {epoch.number} does not reproduce its balances")
        return {"epochs": self.state_hash.hexdigest(), "balances": balances,
                "rejections": dict(epoch.rejections)}

    def layer_props(self) -> dict:
        decided = self.timed_outcomes["accepted"] + self.timed_outcomes["rejected"]
        return {
            "settlement.accept_share": self.timed_outcomes["accepted"] / decided if decided else 0.0,
            "settlement.journal_bytes_per_record":
                self.journal_bytes / self.journal_records if self.journal_records else 0.0,
        }

    def primary_count(self) -> int:
        return sum(self.timed_kinds.values())

    def expected_calls(self) -> dict[str, int]:
        """Calls the seed commit makes per deposited record, summed over
        the timed deposits: a record is opened once by the center before
        its verdict, once inside it, and once more when it is applied;
        every record whose guarantor is trusted builds the merchant
        POLICY once and verifies three signatures."""
        k = self.timed_kinds
        checked = sum(k.values()) - k["unknown"]
        return {
            "payments.open_microcheck": 3 * self.timed_outcomes["accepted"]
            + 2 * self.timed_outcomes["rejected"],
            "credentials.build_credential": checked,
            "keys.Ed25519Scheme.verify": 3 * checked,
        }

    def close(self) -> None:
        self.bus.close()
        shutil.rmtree(self.tmp, ignore_errors=True)
