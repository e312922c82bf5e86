"""Seeded exchange benchmark for bandx.

    python3 perfbench/run.py --workload spot|futures|settle|all --seed N \\
        --seconds S --trace 0|1

Each workload is a closed loop: one client thread sends the next request
only after the previous reply. The seed is the only source of inputs.
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
runs the workload traced for S seconds, in blocks that alternate with
an untraced copy doing the same ops, checks that both reach the same
final state, and prints the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only
when every output check passed; 2 means the run could not start.

--workload all runs the three workloads, each in a fresh process, and
prints every end-to-end metric under its workload-specific name.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("spot", "futures", "settle")
SETUP_REPEATS = 3  # set-up is timed this many times; the median is reported
RATE_WINDOW_S = 2.0  # throughput is the median rate over windows this long
TRACE_BLOCK_S = 1.0  # traced and untraced copies take turns in blocks this long
NAMED = "named metrics: "  # prefix of the line with every metric under its workload's names
# Peak RSS is read once this many primary ops are done (or when timing
# ends, if sooner), so a faster program is not charged for the state
# that its extra ops accumulate in the same time.
RSS_AFTER_OPS = {"spot": 500, "futures": 500, "settle": 4000}

# Generic end-to-end metric -> (unit, name under each workload). The
# primary op is a purchase, a booking or a DEPOSIT batch; the side op is
# an offer posting, an activation or a DISPUTE replay.
END_TO_END = {
    "setup_s": ("s", {w: "setup_s" for w in WORKLOADS}),
    "peak_rss_mb": ("MiB", {w: "peak_rss_mb" for w in WORKLOADS}),
    "ops_per_s": ("1/s", {"spot": "purchases_per_s", "futures": "bookings_per_s",
                          "settle": "deposits_per_s"}),
    "op_p50_ms": ("ms", {"spot": "purchase_p50_ms", "futures": "booking_p50_ms",
                         "settle": "deposit_batch_p50_ms"}),
    "op_tail_ms": ("ms", {"spot": "purchase_p90_ms", "futures": "booking_p90_ms",
                          "settle": "deposit_batch_p90_ms"}),
    "side_mean_ms": ("ms", {"spot": "post_offer_mean_ms", "futures": "activation_mean_ms",
                            "settle": "dispute_mean_ms"}),
}
# Per workload: the primary and the side op kind.
SHAPE = {"spot": ("purchase", "post"), "futures": ("book", "activate"),
         "settle": ("deposit", "dispute")}
# BENCHMARK.json bounds the primary op's p90. These are printed but not
# bounded: (op kind, percentile, name) per workload. A p99 has only ten
# or twenty samples beyond it, where a few full garbage collections
# (10-80 ms each) or a burst of machine noise decide its value; a side
# op's median sits between the two modes of a bimodal distribution (see
# common.interquartile_mean); and the p90 of a 1 ms op over loopback
# spread by 0.35 over ten seeds on a 2-vCPU x86_64 virtual machine.
TAIL = 90
UNBOUNDED = {
    "spot": [("purchase", 99, "purchase_p99_ms"), ("post", 50, "post_offer_p50_ms"),
             ("post", 90, "post_offer_p90_ms")],
    "futures": [("book", 99, "booking_p99_ms"), ("activate", 50, "activation_p50_ms"),
                ("activate", 90, "activation_p90_ms")],
    "settle": [("dispute", 99, "dispute_p99_ms"), ("dispute", 50, "dispute_p50_ms"),
               ("dispute", 90, "dispute_p90_ms")],
}


def _load(workload: str):
    if workload == "spot":
        from spot import Spot
        return lambda seed, run: Spot(seed, run)
    if workload == "futures":
        from futures import Futures
        return lambda seed, run: Futures(seed, run)
    from settle import Settle
    OUT.mkdir(exist_ok=True)
    return lambda seed, run: Settle(seed, run, OUT)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_steps(inst, seconds: float, marks: list, rss_after: int, speed) -> tuple[int, float, float]:
    """Run the timed phase for a time budget; `marks` collects (timed
    seconds, primary ops done) after each step, and `speed` samples the
    host's speed between steps, off the clock. Returns steps, timed
    seconds and peak RSS once `rss_after` primary ops were done."""
    gc.collect()  # garbage from set-up and warm-up is not collected while timing
    run = inst.run
    run.start()
    done = 0
    rss = None
    while run.elapsed() < seconds:
        inst.step()
        done += 1
        count = inst.primary_count()
        marks.append((run.elapsed(), count))
        if rss is None and count >= rss_after:
            rss = peak_rss_mb()
        at = run.elapsed()
        with run.untimed():
            speed.sample(at)
    return done, run.elapsed(), rss if rss is not None else peak_rss_mb()


def window_rates(marks: list, width: float) -> list[float]:
    """Primary ops per second in consecutive windows of `width` timed
    seconds; a step's ops count in the window where the step ended."""
    rates = []
    edge, base, before = width, 0, 0
    for elapsed, count in marks:
        while elapsed >= edge:
            rates.append((before - base) / width)
            base, edge = before, edge + width
        before = count
    return rates


def measure(workload: str, seed: int, seconds: float, import_s: float = 0.0) -> dict:
    """Untraced run: end-to-end metrics, raw and scaled to the nominal
    host speed (see hostspeed.py), and the final-state digest."""
    from common import Run, digest, interquartile_mean, percentile
    from hostspeed import HostSpeed

    make = _load(workload)
    setups = []
    inst = None
    setup_speed = HostSpeed()
    timed_speed = HostSpeed()
    marks: list = []
    try:
        with setup_speed.sampling():
            for _ in range(SETUP_REPEATS):
                if inst is not None:
                    # Only one set-up is alive at a time, so the peak RSS
                    # is not raised by the repeats.
                    inst.close()
                    inst = None
                    gc.collect()
                t0, spent = time.perf_counter(), setup_speed.spent
                inst = make(seed, Run())
                setups.append(time.perf_counter() - t0 - (setup_speed.spent - spent))
            t0, spent = time.perf_counter(), setup_speed.spent
            inst.warm_up()
            warm_up_s = time.perf_counter() - t0 - (setup_speed.spent - spent)
        setup_rss = peak_rss_mb()
        steps, timed, rss = run_steps(inst, seconds=seconds, marks=marks,
                                      rss_after=RSS_AFTER_OPS[workload], speed=timed_speed)
        state = digest(inst.finish())
    finally:
        if inst is not None:
            inst.close()
    run = inst.run
    rates = window_rates(marks, RATE_WINDOW_S)
    primary, side = SHAPE[workload]
    done = inst.primary_count()
    # Raw figures, then the same figures with each window's rate and each
    # op's time scaled by the host's speed around it (hostspeed.py).
    scaled_rates = [rate / timed_speed.scale(k * RATE_WINDOW_S, (k + 1) * RATE_WINDOW_S)
                    for k, rate in enumerate(rates)]
    raw = {"setup_s": import_s + statistics.median(setups) + warm_up_s,
           "ops_per_s": statistics.median(rates) if rates else done / timed}
    values = {"setup_s": raw["setup_s"] * setup_speed.scale(),
              "ops_per_s": statistics.median(scaled_rates) if rates
              else done / timed / timed_speed.scale()}

    def op_figures(times: dict) -> dict:
        op = times.get(primary, [])
        figures = {"op_p50_ms": percentile(op, 50) * 1000,
                   "op_tail_ms": percentile(op, TAIL) * 1000,
                   "side_mean_ms": interquartile_mean(times.get(side, [])) * 1000}
        for kind, q, name in UNBOUNDED[workload]:
            figures[name] = percentile(times.get(kind, []), q) * 1000
        return figures

    raw.update(op_figures(run.samples))
    values.update(op_figures({kind: timed_speed.scaled(durations, run.ends[kind])
                              for kind, durations in run.samples.items()}))
    values["peak_rss_mb"] = rss
    return {"run": run, "steps": steps, "timed_s": timed, "digest": state,
            "values": values, "raw": raw, "setups": setups, "warm_up_s": warm_up_s,
            "setup_rss_mb": setup_rss, "speed": {"set-up": setup_speed, "timed": timed_speed}}


def _steps(inst, n: int | None = None, seconds: float | None = None) -> tuple[int, float]:
    """Run `n` steps, or steps for `seconds` timed seconds; returns the
    steps done and the timed seconds they took."""
    run = inst.run
    t0 = run.elapsed()
    done = 0
    while (n is None or done < n) and (seconds is None or run.elapsed() - t0 < seconds):
        inst.step()
        done += 1
    return done, run.elapsed() - t0


def traced(workload: str, seed: int, seconds: float) -> dict:
    """Traced run for the time budget beside an untraced copy of the same
    workload. The two take turns in blocks of the same ops, in
    alternating order, so a host slowdown lasting longer than a block
    falls on both; the tracer's wrappers are in place only while the
    traced copy runs. Both copies must reach the same final state."""
    from common import Run, digest
    from spans import HANDLE, LAYERS, ROLES, SELF_ONLY, Tracer, per_layer_names

    make = _load(workload)
    tracer = Tracer()
    tracer.install()
    try:
        inst = make(seed, Run(tracer=tracer))
    finally:
        tracer.uninstall()
    ref = None
    try:
        ref = make(seed, Run())
        inst.warm_up()
        ref.warm_up()
        gc.collect()
        inst.run.start()
        ref.run.start()
        tracer.install()
        try:
            size, traced_s = _steps(inst, seconds=TRACE_BLOCK_S)
        finally:
            tracer.uninstall()
        ref_s = _steps(ref, n=size)[1]
        steps, pair = size, 1
        while traced_s < seconds:
            for turn in ((ref, inst) if pair % 2 else (inst, ref)):
                if turn is ref:
                    ref_s += _steps(ref, n=size)[1]
                    continue
                tracer.install()
                try:
                    traced_s += _steps(inst, n=size)[1]
                finally:
                    tracer.uninstall()
            steps += size
            pair += 1
        state = digest(inst.finish())
        ref_state = digest(ref.finish())
        props = inst.layer_props()
        primary = inst.primary_count()
    finally:
        inst.close()
        if ref is not None:
            ref.close()
    run = inst.run
    run.expect(ref.run.failed == 0, f"untraced copy: {ref.run.problems[:3]}")
    run.expect(state == ref_state, f"traced digest {state[:12]} != untraced {ref_state[:12]}")

    calls, self_s = tracer.self_times()
    per = max(primary, 1)
    metrics = dict.fromkeys(per_layer_names(), 0.0)
    for module, funcs in LAYERS.items():
        for qual in funcs:
            name = f"{module}.{qual}"
            if module not in SELF_ONLY:
                metrics[f"{name}.calls"] = calls[name] / per
            metrics[f"{name}.self_us"] = self_s[name] * 1e6 / per
    for role in ROLES:
        metrics[f"{HANDLE}.{role}.calls"] = calls[f"{HANDLE}.{role}"] / per
        metrics[f"{HANDLE}.{role}.self_us"] = self_s[f"{HANDLE}.{role}"] * 1e6 / per
    if tracer.verifications:
        metrics["credentials.verify_repeat_share"] = tracer.verify_repeats / tracer.verifications
    if tracer.offers_seen:
        metrics["market.offers_live"] = statistics.mean(tracer.offers_seen)
    if tracer.calendar_seen:
        metrics["fabric.calendar_depth"] = statistics.mean(tracer.calendar_seen)
    metrics["envelope.bytes_per_op"] = tracer.encoded_bytes / per
    wire = tracer.wire_seconds()
    if wire:
        metrics["services.wire_us"] = statistics.mean(wire) * 1e6
    metrics.update(props)
    metrics["trace.overhead_share"] = 1 - ref_s / traced_s

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-{seed}.tsv")
    return {"run": run, "steps": steps, "timed_s": traced_s, "digest": state,
            "metrics": metrics, "spans": len(tracer.spans), "tracer": tracer,
            "workload": inst}


def _result_line(run, metrics: dict) -> str:
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    })


def one(workload: str, seed: int, seconds: float, trace: bool, import_s: float) -> int:
    from common import beyond, run_context

    print("context:", json.dumps(run_context(), sort_keys=True))
    if trace:
        from spans import per_layer_names

        res = traced(workload, seed, seconds)
        units = {n: _layer_unit(n) for n in per_layer_names()}
        metrics = {n: {"value": v, "unit": units[n]} for n, v in res["metrics"].items()}
        print(f"traced {workload}: {res['steps']} steps in {res['timed_s']:.3f} s, "
              f"{res['spans']} spans written to {OUT.relative_to(HERE.parent)}")
    else:
        res = measure(workload, seed, seconds, import_s)
        run = res["run"]
        metrics, named = {}, {}
        for name, (unit, aliases) in END_TO_END.items():
            metrics[name] = {"value": res["values"][name], "unit": unit}
            named[aliases[workload]] = metrics[name]
        for _, _, name in UNBOUNDED[workload]:
            named[name] = {"value": res["values"][name], "unit": "ms"}
        named["failed_share"] = {"value": run.failed / max(run.attempted, 1), "unit": "ratio"}
        for name, metric in named.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
        print(NAMED + json.dumps(named))
        for kind in SHAPE[workload]:
            samples = run.samples.get(kind, [])
            print(f"samples {kind}: {len(samples)}; {beyond(samples, TAIL)} beyond p{TAIL}, "
                  f"{beyond(samples, 99)} beyond p99")
        for phase, speed in res["speed"].items():
            print(f"host reference, {phase}: median {speed.median_s() * 1000:.4f} ms over "
                  f"{len(speed.samples)} samples; scale {speed.scale():.4f}")
        print("raw (unscaled):", ", ".join(f"{k} {v:.6g}" for k, v in res["raw"].items()))
        print(f"setup runs (s): {', '.join(f'{s:.3f}' for s in res['setups'])}; "
              f"imports {import_s:.3f} s; warm-up {res['warm_up_s']:.3f} s; "
              f"peak RSS {res['setup_rss_mb']:.1f} MiB after set-up, "
              f"{res['values']['peak_rss_mb']:.1f} MiB when read")
    run = res["run"]
    print(f"steps {res['steps']} timed {res['timed_s']:.3f} s digest {res['digest']}")
    for problem in run.problems:
        print("check failed:", problem)
    print(_result_line(run, metrics))
    return 0 if run.failed == 0 else 1


def _layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith("_us"):
        return "us/op" if name.endswith("self_us") else "us"
    if name.endswith("_share"):
        return "ratio"
    return {"market.offers_live": "offers", "fabric.calendar_depth": "bookings",
            "envelope.bytes_per_op": "bytes/op",
            "settlement.journal_bytes_per_record": "bytes/record"}.get(name, "count")


def named_metrics(lines: list[str]) -> dict:
    """Every metric of an untraced run under its workload's own name, as
    the run printed them on the line that starts with `NAMED`."""
    for line in lines:
        if line.startswith(NAMED):
            return json.loads(line[len(NAMED):])
    return {}


def all_workloads(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; one table of every metric,
    named as the workload names it (shared names get the workload as a
    prefix)."""
    failed = attempted = 0
    metrics = {}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode != 0:
            print(f"[{workload}] exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            status = 1
        if not lines or not lines[-1].startswith("{"):
            continue
        result = json.loads(lines[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        if trace:
            for name, metric in result["metrics"].items():
                metrics[f"{workload}.{name}"] = metric
            continue
        for name, metric in named_metrics(lines).items():
            shared = name in ("setup_s", "peak_rss_mb", "failed_share")
            metrics[f"{workload}.{name}" if shared else name] = metric
    print(json.dumps({"correct": failed == 0 and status == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return status


def hash_seed(seed: int) -> str:
    """The string-hash salt a run with this seed uses. The salt decides
    the order in which the program walks its sets, which changed `spot`
    throughput by up to a fifth between processes given the same inputs,
    so it is drawn from the seed like every other input."""
    return str(seed % 2**32)


def pin_to_one_cpu() -> None:
    """Keep every thread of this process on one CPU. `spot` hands each
    frame between the client thread and a server thread; spread over two
    CPUs, each hand-off waits for the other CPU to wake (on a virtual
    machine, for the host to schedule that virtual CPU), which cost a
    third of `spot`'s throughput on a shared 2-vCPU host and made it
    swing with the host's load. The program holds the GIL for its work,
    so one CPU is all it uses at a time. Threads started later inherit
    the mask, as do child processes."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None, reexec: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    salt = hash_seed(args.seed)
    if reexec and os.environ.get("PYTHONHASHSEED") != salt:
        # The salt is fixed when the interpreter starts: start this
        # script again in place of this process, with the salt set.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": salt})
    if not (SRC / "bandx" / "__init__.py").is_file():
        print(f"bandx sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    if args.workload == "all":
        return all_workloads(args.seed, args.seconds, bool(args.trace))
    import bandx  # noqa: F401  (import cost belongs to set-up)
    import common  # noqa: F401

    _load(args.workload)
    import_s = time.perf_counter() - PROCESS_START
    return one(args.workload, args.seed, args.seconds, bool(args.trace), import_s)


if __name__ == "__main__":
    sys.exit(main(reexec=True))
