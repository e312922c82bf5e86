"""Measure the benchmark on the current commit and write baseline.json.

    python3 perfbench/baseline.py [--seeds 1-10] [--seconds 20] [--trace-seed 1]

Runs every workload once per seed, each in a fresh process with tracing
off, then once traced. Records each end-to-end metric's values, median
and quartiles (`statistics.quantiles(values, n=4)`) and its spread (the
distance between the quartiles over the median), the per-layer metrics
of the traced run, the workloads' measured input properties, the
layer-to-metric map and the run context.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("spot", "futures", "settle")
# Printed by every run but not bounded in BENCHMARK.json.
UNBOUNDED = (
    "purchase_p99_ms", "booking_p99_ms", "dispute_p99_ms", "failed_share",
    "post_offer_p50_ms", "post_offer_p90_ms", "activation_p50_ms", "activation_p90_ms",
    "dispute_p50_ms", "dispute_p90_ms",
)

# Which end-to-end metric each layer's per-layer metrics should move, and
# on which workload; "flat" lists the pairings where they should not.
LAYER_TO_METRIC = {
    "credentials": {
        "moves": {"settle": ["deposits_per_s", "dispute_p50_ms"], "spot": ["purchase_p50_ms"]},
        "flat": {"futures": "small effect"},
        "note": "verify_repeat_share is the input property a verification memo depends on; "
                "dispute metrics must not gain from such a memo",
    },
    "keys": {"moves": {"settle": ["deposits_per_s"], "all": ["setup_s"]}},
    "offers": {"moves": {"spot": ["purchase_p50_ms"]}},
    "market": {"moves": {"spot": ["purchase_p50_ms", "purchase_p99_ms"]},
               "flat": {"futures": "all"}},
    "payments": {"moves": {"settle": ["deposits_per_s"], "spot": ["purchase_p50_ms"]}},
    "settlement": {"moves": {"settle": ["deposits_per_s", "deposit_batch_p50_ms",
                                        "deposit_batch_p90_ms"]},
                   "flat": {"spot": "all", "futures": "all"}},
    "fabric": {"moves": {"futures": ["booking_p50_ms", "booking_p99_ms"],
                         "spot": ["peak_rss_mb (challenges_held, used_challenges_held)"]},
               "flat": {"spot": "admission self time"}},
    "qna": {"moves": {"spot": ["purchase_p50_ms"], "futures": ["booking_p50_ms"]}},
    "envelope": {"moves": {"spot": ["purchase_p50_ms"], "settle": ["deposit_batch_p50_ms"]}},
    "services": {"moves": {"spot": ["purchase_p50_ms"]},
                 "flat": {"futures": "all", "settle": "all"}},
}


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The result line and the metrics under their workload's own names."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=HERE.parent,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    from run import named_metrics

    named = {name: metric["value"] for name, metric in named_metrics(lines).items()}
    return json.loads(lines[-1]), named


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def _settle_properties(seed: int) -> dict:
    from gen import SETTLE_BATCH, SettleInputs

    gen = SettleInputs(seed)
    epoch = gen.epoch(gen.offers())
    sizes = [size for size, _ in gen.plan(len(epoch))]
    kinds = [spec.kind for spec in epoch]
    return {
        "batch_size_range": list(SETTLE_BATCH),
        "batch_size_mean": statistics.mean(sizes),
        "duplicate_share": kinds.count("duplicate") / len(kinds),
        "rejected_share_expected": sum(k != "valid" for k in kinds) / len(kinds),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace-seed", type=int, default=1)
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from common import run_context
    from run import hash_seed

    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                         cwd=HERE.parent)
    out = {
        "program_commit": git.stdout.strip() if git.returncode == 0 else None,
        "measured_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "context": {**run_context(),
                    "python_hash_seed": {str(seed): hash_seed(seed) for seed in seeds}},
        "seconds": args.seconds,
        "seeds": seeds,
        "end_to_end": {},
        "unbounded": {},
        "per_layer": {},
        "input_properties": {},
        "layer_to_metric": LAYER_TO_METRIC,
    }
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        unbounded: dict[str, list[float]] = {}
        for seed in seeds:
            result, named = _run(workload, seed, args.seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name in UNBOUNDED:
                if name in named:
                    unbounded.setdefault(name, []).append(named[name])
            print(workload, seed, {k: round(v[-1], 3) for k, v in values.items()}, flush=True)
        out["end_to_end"][workload] = {name: _summary(v) for name, v in values.items()}
        out["unbounded"][workload] = {name: _summary(v) for name, v in unbounded.items()}
        traced = _run(workload, args.trace_seed, args.seconds, 1)[0]["metrics"]
        out["per_layer"][workload] = {name: m["value"] for name, m in traced.items()}
        props = {"verify_repeat_share": traced["credentials.verify_repeat_share"]["value"]}
        if workload == "spot":
            props["live_offers"] = traced["market.offers_live"]["value"]
        if workload == "futures":
            props["calendar_depth"] = traced["fabric.calendar_depth"]["value"]
            props["refusal_share"] = traced["fabric.refusal_share"]["value"]
        if workload == "settle":
            props.update(_settle_properties(args.trace_seed))
            props["accept_share"] = traced["settlement.accept_share"]["value"]
        out["input_properties"][workload] = props
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for workload, metrics in out["end_to_end"].items():
        for name, s in metrics.items():
            print(f"{workload:8s} {name:14s} median {s['median']:10.4f} spread {s['spread']:.4f}")


if __name__ == "__main__":
    main()
