"""Benchmark for ucfreq: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload bounds|sets --seed N --seconds S --trace 0|1

Run from the root of a checkout; ucfreq is imported from its `src/`.  One
process runs the workload as a closed loop: one call at a time, no threads
and no worker processes.  It sets up (imports ucfreq and makes the inputs
from the seed), runs one whole round of the workload's operations, and
repeats until `--seconds` have passed.  It checks every output against the
benchmark's own computations and prints one JSON object as the last line of
its standard output.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

from checks import CheckFailed
from speed import SpeedProbe
from tracing import PER_LAYER, Instrumentation, SpanSummary, Tracer, write_spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_SETUPS = 25  # set-ups per run at least; setup_s is their median
MODULES = ("cli", "lpmodel", "ratlp", "search", "setfam")


def import_ucfreq() -> SimpleNamespace:
    for name in [m for m in sys.modules if m == "ucfreq" or m.startswith("ucfreq.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"ucfreq.{m}") for m in MODULES})
    if Path(mods.cli.__file__).resolve().parent != SRC / "ucfreq":
        raise SystemExit(f"bench: imported ucfreq from {mods.cli.__file__}, not from this checkout")
    return mods


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)      # failed checks: the run is not correct
    failures: dict[int, str] = field(default_factory=dict)  # first failure of each operation
    round_s: list[float] = field(default_factory=list)   # per round: time in calls
    spans: dict[int, list] = field(default_factory=dict)  # per operation: (start, end) of each call
    items: dict[int, int] = field(default_factory=dict)   # per operation: items done by one call


def run_round(ops, tally: Tally, inst=None) -> None:
    """One round: every operation once, in order.  Only the call is timed."""
    round_s = 0.0
    for i, op in enumerate(ops):
        tally.attempted += 1
        start = perf_counter()
        try:
            result = op.call() if inst is None else inst.call(op.name, op.call, op.items)
        except Exception as exc:  # any way a call can end badly counts as one failed operation
            end = perf_counter()
            tally.failed += 1
            tally.failures.setdefault(i, f"{op.name}: {type(exc).__name__}: {exc}")
            result = None
        else:
            end = perf_counter()
        round_s += end - start
        tally.spans.setdefault(i, []).append((start, end))
        if result is None:
            continue
        tally.items[i] = op.items(result)
        try:
            op.check(result)
        except CheckFailed as exc:
            tally.errors.append(f"{op.name}: {exc}")
    tally.round_s.append(round_s)


def set_up(workload: str, seed: int, work: Path):
    """Import ucfreq afresh and make the workload's inputs from the seed.
    Returns the modules, the operations, the span of the whole set-up and
    the time the import took."""
    start = perf_counter()
    mods = import_ucfreq()
    imported = perf_counter()
    ops = WORKLOADS[workload](mods, seed, work, small=False)
    return mods, ops, (start, perf_counter()), imported - start


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload: str, seed: int, seconds: float, work: Path) -> tuple[Tally, dict]:
    """Every round starts with a fresh set-up, so set-up times are sampled
    across the whole run like the calls are.  Every time is corrected for
    the host's speed while it was taken (bench/speed.py); each call timing
    sums, over the operations it covers, the median corrected time of the
    operation over the run's rounds."""
    tally, setups = Tally(), []
    with SpeedProbe() as probe:
        start = perf_counter()
        while True:
            _, ops, setup_span, _ = set_up(workload, seed, work)
            setups.append(setup_span)
            run_round(ops, tally)
            if perf_counter() - start >= seconds:
                break
        while len(setups) < MIN_SETUPS:
            setups.append(set_up(workload, seed, work)[2])
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_op = {i: median(probe.corrected(spans)) for i, spans in tally.spans.items()}

    def total(kind: str | None) -> float:
        return sum(t for i, t in per_op.items() if kind in (None, ops[i].kind))

    items = sum(n for i, n in tally.items.items() if ops[i].kind == "items")
    return tally, {
        "setup_s": metric(median(probe.corrected(setups)), "s"),
        "peak_rss_mib": metric(rss_kib / 1024, "MiB"),
        "pass_s": metric(total("pass"), "s"),
        "items_per_s": metric(items / total("items"), "1/s"),
        "round_s": metric(total(None), "s"),
    }


def traced(workload: str, seed: int, seconds: float, work: Path) -> tuple[Tally, dict]:
    """Untraced and traced rounds alternate, for the tracing overhead.  Layers
    that this workload does not reach are measured on one traced round of
    the small form of the workload that does reach them; those probe rounds
    are not counted in `attempted`, so the share of failed operations stays
    that of the workload's own rounds."""
    import_times = []
    for _ in range(MIN_SETUPS):
        mods, ops, _, import_s = set_up(workload, seed, work)
        import_times.append(import_s)
    inst = Instrumentation(mods)
    tally, plain = Tally(), Tally()
    start = perf_counter()
    while not (tally.round_s and perf_counter() - start >= seconds):
        if len(plain.round_s) <= len(tally.round_s):
            run_round(ops, plain)
            continue
        inst.install()
        try:
            run_round(ops, tally, inst)
        finally:
            inst.remove()
    segments = {workload: inst.tracer}
    rounds = {workload: len(tally.round_s)}
    for other in sorted({home for _, home, _ in PER_LAYER.values()} - {workload}):
        inst.tracer = segments[other] = Tracer()
        probe, probe_ops = Tally(), WORKLOADS[other](mods, seed, work / other, small=True)
        inst.install()
        try:
            run_round(probe_ops, probe, inst)
        finally:
            inst.remove()
        rounds[other] = 1
        tally.errors += probe.errors + [f"probe {reason}" for reason in probe.failures.values()]
    summaries = {name: SpanSummary(t) for name, t in segments.items()}
    metrics = {
        name: metric(fn(summaries[home], rounds[home]), unit)
        for name, (unit, home, fn) in PER_LAYER.items()
    }
    metrics["cli.import_ms"] = metric(1e3 * median(import_times), "ms")
    metrics["trace.overhead_pct"] = metric(100 * (median(tally.round_s) / median(plain.round_s) - 1), "%")

    report = summaries[workload]
    print(f"{'span':40} {'calls':>9} {'total_ms':>11} {'self_ms':>11}", file=sys.stderr)
    for name in sorted(report.dur, key=lambda k: -sum(report.self[k])):
        print(f"{name:40} {len(report.dur[name]):9d} {1e3 * sum(report.dur[name]):11.1f} "
              f"{1e3 * sum(report.self[name]):11.1f}", file=sys.stderr)
    write_spans(OUT / f"trace-{workload}-{seed}.tsv.gz", segments)
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.errors += plain.errors
    tally.failures.update(plain.failures)
    return tally, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="ucfreq benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ucfreq" / "cli.py").is_file():
        print(f"bench: no ucfreq sources in {SRC}; run from the root of a ucfreq checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT / f"work-{os.getpid()}"
    try:
        run = traced if args.trace else untraced
        tally, metrics = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in tally.failures.values():
        print(f"bench: failed operation {reason}", file=sys.stderr)
    for error in tally.errors[:20]:
        print(f"bench: wrong output: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if not tally.errors else 1


if __name__ == "__main__":
    sys.exit(main())
