#!/usr/bin/env python3
"""Certificate benchmark for chipwidth: tree decompositions, bramble orders
and gonality divisors, each checked against known values.

    python3 perfbench/run.py --workload tw_family --seed 1 --seconds 25 --trace 0

Run from a checkout: the package is imported from its `src/` directory.
One process, one thread, closed loop: each certificate starts when the
previous one has been checked. A pass runs every input of the workload
once; the run measures whole passes until --seconds of wall time have gone
by. Reported times are scaled to the reference machine speed (speed.py);
the raw wall times are printed beside them.

--trace 0 prints the end-to-end metrics; --trace 1 measures half the time
untraced and half traced, prints the per-layer metrics, a self-time table
and the tracing overhead, and writes the spans to perfbench/out/. The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import spans  # noqa: E402  (the benchmark's own modules sit beside this file)
import speed  # noqa: E402
import workloads as wl  # noqa: E402

MODULES = ("graphs", "treewidth", "brambles", "chipfiring")

# Set-up (import plus input construction) is repeated and its median kept.
SETUP_REPS = 21
# Traced repetitions of input construction, for the graphs set-up spans.
TRACED_SETUP_REPS = 5

# Counters that must repeat exactly in every pass of a run.
DETERMINISTIC = (
    "treewidth.states",
    "treewidth.capped_gap",
    "brambles.elements",
    "brambles.classify_pairs",
    "chipfiring.divisors_checked",
    "chipfiring.q_reduce_calls",
)

# Per-layer time metrics: metric name -> traced span names whose self time
# it sums.
LAYER_TIMES = {
    "graphs.read_gr_s": ("graphs.read_gr",),
    "treewidth.search_self_s": ("treewidth.exact_treewidth",),
    "treewidth.min_fill_order_s": ("treewidth.min_fill_order",),
    "treewidth.degeneracy_s": ("treewidth.degeneracy",),
    "treewidth.decomposition_s": ("treewidth.decomposition_from_elimination_order",),
    "treewidth.validate_s": ("treewidth.validate_tree_decomposition",),
    "brambles.gen_s": tuple(
        f"brambles.{f}" for f in spans.TRACED["brambles"] if f.startswith("gen_")
    ),
    "brambles.classify_s": ("brambles.classify_family",),
    "brambles.min_hitting_set_s": ("brambles.min_hitting_set",),
    "chipfiring.exact_gonality_s": ("chipfiring.exact_gonality",),
    "chipfiring.is_winning_divisor_s": ("chipfiring.is_winning_divisor",),
    "chipfiring.q_reduce_s": ("chipfiring.q_reduce",),
}
SETUP_TIMES = {
    "graphs.make_family_s": ("graphs.make_family",),
    "graphs.write_gr_s": ("graphs.write_gr",),
}


class PackageMissing(Exception):
    """The checkout has no importable chipwidth package under src/."""


def import_package() -> SimpleNamespace:
    """Import chipwidth afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "chipwidth" or m.startswith("chipwidth.")]:
        del sys.modules[name]
    pkg = importlib.import_module("chipwidth")
    if Path(pkg.__file__).resolve().parent != (SRC / "chipwidth").resolve():
        raise PackageMissing(f"chipwidth imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: sys.modules[f"chipwidth.{m}"] for m in MODULES})


def set_up(workload: str, seed: int, reps: int):
    """Time import plus input construction; returns the median (at the
    reference speed) and the modules and inputs of the last repetition."""
    if not (SRC / "chipwidth" / "__init__.py").is_file():
        raise PackageMissing(f"no chipwidth package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(reps):
        gc.collect()  # every repetition starts from the same collector state
        before = speed.sample()
        t0 = time.perf_counter()
        mods = import_package()
        inputs = wl.build_inputs(workload, seed, mods)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * speed.factor(before, speed.sample()))
    return statistics.median(times), mods, inputs


@dataclass
class Pass:
    """One run over every input of the workload. `latencies` and `seconds`
    are at the reference speed; `wall` is the raw time of the certificates,
    and `factor` the pass's median speed scale."""

    latencies: list[float] = field(default_factory=list)
    seconds: float = 0.0
    wall: float = 0.0
    factor: float = 1.0
    failed: int = 0
    exact: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    profile: spans.Profile | None = None


def run_pass(inputs, mods, tracer=None, corrupt=None) -> Pass:
    """Solve and check every input once. A certificate that raises counts
    as failed; it is never dropped."""
    p = Pass()
    counters: dict[str, int] = defaultdict(int)
    factors = []
    mark = tracer.mark() if tracer else None
    gc.collect()  # every pass starts from the same collector state
    before = speed.sample()
    for inp in inputs:
        root = tracer.open_cert(inp.label) if tracer else -1
        t0 = time.perf_counter()
        try:
            raw = wl.solve(inp, mods)
            if corrupt is not None:
                raw = corrupt(inp, raw, mods)
            outcome = wl.check(inp, raw, mods)
        except wl.BenchmarkError:
            raise
        except Exception as exc:  # a failed certificate, reported below
            traceback.print_exc(file=sys.stderr)
            outcome = wl.Outcome([f"{type(exc).__name__}: {exc}"], False, {})
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.close_cert(root)
        after = speed.sample()
        factors.append(speed.factor(before, after))
        before = after
        p.latencies.append(elapsed * factors[-1])
        p.wall += elapsed
        for key, value in outcome.counters.items():
            counters[key] += value
        if outcome.failures:
            p.failed += 1
            p.failures += [f"{inp.label}: {why}" for why in outcome.failures]
        elif outcome.exact:
            p.exact += 1
    p.seconds = sum(p.latencies)
    p.factor = statistics.median(factors)
    if tracer:
        p.profile = tracer.profile(mark)
        counters["chipfiring.q_reduce_calls"] = p.profile.calls.get("chipfiring.q_reduce", 0)
    p.counters = dict(counters)
    return p


def measure(inputs, mods, seconds, reference, tracer=None, corrupt=None) -> list[Pass]:
    """Whole passes until `seconds` of wall time have gone by (at least
    one). Every pass must reproduce the reference counters exactly."""
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        p = run_pass(inputs, mods, tracer, corrupt)
        reference = same_counters(reference, p.counters)
        passes.append(p)
        if time.perf_counter() - t0 >= seconds:
            return passes


def same_counters(reference: dict[str, int], counters: dict[str, int]) -> dict[str, int]:
    """Merge a pass's deterministic counters into the reference, raising if
    one differs from the value already recorded."""
    merged = dict(reference)
    for key in DETERMINISTIC:
        if key not in counters:
            continue
        if key in reference and reference[key] != counters[key]:
            raise wl.BenchmarkError(
                f"deterministic counter {key} changed between passes:"
                f" {reference[key]} then {counters[key]}"
            )
        merged[key] = counters[key]
    return merged


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it, and its
    value (nearest rank). Runs of ten samples or fewer report the maximum."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 100, xs[-1]


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, tuple[float, str]]:
    latencies = [x for p in passes for x in p.latencies]
    attempted = len(latencies)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "certs_per_s": (statistics.median(len(p.latencies) / p.seconds for p in passes), "1/s"),
        "cert_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "cert_tail_ms": (tail(latencies)[1] * 1e3, "ms"),
        "exact_frac": (sum(p.exact for p in passes) / attempted, "ratio"),
        "checked_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def memo_peak_kb(inputs, mods) -> float:
    """Largest Python allocation peak inside one exact_treewidth call, which
    the failed-prefix memo dominates. Measured apart from the timed passes
    because tracemalloc slows every allocation."""
    peak = 0
    for inp in inputs:
        if inp.task != "treewidth":
            continue
        g = mods.graphs.read_gr(inp.text)
        tracemalloc.start()
        try:
            wl.solve_treewidth(g, inp, mods)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1024


def traced_setup(tracer, workload: str, seed: int, mods) -> list[tuple[spans.Profile, float]]:
    """Profiles of repeated input construction, each with its speed scale."""
    out = []
    before = speed.sample()
    for _ in range(TRACED_SETUP_REPS):
        mark = tracer.mark()
        wl.build_inputs(workload, seed, mods)
        profile = tracer.profile(mark)
        after = speed.sample()
        out.append((profile, speed.factor(before, after)))
        before = after
    return out


def _self_s(profile: spans.Profile, names) -> float:
    return sum(profile.self_s.get(n, 0.0) for n in names)


def per_layer(plain, traced, setup_profiles, memo_kb) -> dict[str, tuple[float, str]]:
    """Medians over traced passes, at the reference speed; set-up spans come
    from traced input construction."""
    med = statistics.median
    out: dict[str, tuple[float, str]] = {}
    for metric, names in SETUP_TIMES.items():
        out[metric] = (med([_self_s(pr, names) * f for pr, f in setup_profiles]), "s")
    for metric, names in LAYER_TIMES.items():
        out[metric] = (med([_self_s(p.profile, names) * p.factor for p in traced]), "s")
    first = traced[0].counters
    states = first.get("treewidth.states", 0)
    search = LAYER_TIMES["treewidth.search_self_s"]
    out["treewidth.states"] = (states, "count")
    out["treewidth.states_per_s"] = (
        med([states / (_self_s(p.profile, search) * p.factor) for p in traced])
        if states
        else 0.0,
        "1/s",
    )
    out["treewidth.capped_gap"] = (first.get("treewidth.capped_gap", 0), "count")
    out["treewidth.memo_peak_kb"] = (memo_kb, "kB")
    out["brambles.elements"] = (first.get("brambles.elements", 0), "count")
    out["brambles.classify_pairs"] = (first.get("brambles.classify_pairs", 0), "count")
    divisors = first.get("chipfiring.divisors_checked", 0)
    out["chipfiring.divisors_checked"] = (divisors, "count")
    out["chipfiring.divisors_per_s"] = (
        med([divisors / (p.profile.incl_s["chipfiring.exact_gonality"] * p.factor) for p in traced])
        if divisors
        else 0.0,
        "1/s",
    )
    calls = first.get("chipfiring.q_reduce_calls", 0)
    out["chipfiring.q_reduce_calls"] = (calls, "count")
    redundant = traced[0].profile.counts.get(spans.REDUNDANT_Q_REDUCE, 0)
    out["chipfiring.q_reduce_redundant_frac"] = (redundant / calls if calls else 0.0, "ratio")
    out["bench.self_s"] = (
        med([p.profile.layer_self_s().get("bench", 0.0) * p.factor for p in traced]),
        "s",
    )
    out["bench.spans"] = (traced[0].profile.spans, "count")
    overhead = med([p.seconds for p in traced]) / med([p.seconds for p in plain]) - 1
    out["bench.trace_overhead_frac"] = (overhead, "ratio")
    return out


def print_profile(traced: list[Pass], plain: list[Pass]) -> None:
    """Per-layer and per-function self time per pass at the reference speed,
    medians over traced passes."""
    med = statistics.median
    per_pass = med([p.seconds for p in traced])
    names = sorted({n for p in traced for n in p.profile.self_s})
    print(f"self time per pass (median of {len(traced)} traced passes, {per_pass:.4f} s each)")
    print(f"  {'layer / span':<48} {'calls':>9} {'self_ms':>10} {'share':>7}")
    for layer in sorted({spans.layer_of(n) for n in names}):
        layer_s = med([p.profile.layer_self_s().get(layer, 0.0) * p.factor for p in traced])
        print(f"  {layer:<48} {'':>9} {layer_s * 1e3:10.2f} {layer_s / per_pass:7.1%}")
        for n in names:
            if spans.layer_of(n) == layer:
                s = med([p.profile.self_s.get(n, 0.0) * p.factor for p in traced])
                calls = traced[0].profile.calls.get(n, 0)
                print(f"    {n:<46} {calls:9d} {s * 1e3:10.2f} {s / per_pass:7.1%}")
    plain_s = med([p.seconds for p in plain])
    print(
        f"tracing overhead: {per_pass / plain_s - 1:+.1%}"
        f" ({per_pass:.4f} s traced vs {plain_s:.4f} s untraced per pass,"
        f" {len(traced)} and {len(plain)} passes)"
    )


def run(workload: str, seed: int, seconds: float, trace: bool, corrupt=None) -> dict:
    """Run one workload and return the result object; prints a summary."""
    setup_s, mods, inputs = set_up(workload, seed, SETUP_REPS)
    warm = run_pass(inputs, mods, corrupt=corrupt)
    counters = warm.counters
    if not trace:
        passes = measure(inputs, mods, seconds, counters, corrupt=corrupt)
        metrics = end_to_end(passes, setup_s)
    else:
        plain = measure(inputs, mods, seconds / 2, counters, corrupt=corrupt)
        tracer = spans.Tracer()
        tracer.install(mods)
        try:
            setup_profiles = traced_setup(tracer, workload, seed, mods)
            traced = measure(inputs, mods, seconds / 2, counters, tracer, corrupt)
        finally:
            tracer.uninstall()
        counters = traced[0].counters
        metrics = per_layer(plain, traced, setup_profiles, memo_peak_kb(inputs, mods))
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}.tsv"
        tracer.write(spans_path)
        print_profile(traced, plain)
        print(f"spans: {len(tracer)} written to {spans_path.relative_to(ROOT)}")
        passes = plain + traced
    latencies = [x for p in passes for x in p.latencies]
    attempted = len(latencies)
    failed = sum(p.failed for p in passes)
    pct, tail_s = tail(latencies)
    wall = statistics.median([p.wall for p in passes])
    scale = statistics.median([p.factor for p in passes])
    print(
        f"workload {workload} seed {seed}: {len(passes)} passes of {len(inputs)}"
        f" certificates; per pass {statistics.median([p.seconds for p in passes]):.4f} s"
        f" at reference speed, {wall:.4f} s wall (median speed scale {scale:.3f})"
    )
    print(
        f"cert_p50_ms {statistics.median(latencies) * 1e3:.3f}; cert_tail_ms"
        f" {tail_s * 1e3:.3f} at p{pct} of {attempted} samples"
    )
    print(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} failed)")
    print("counters per pass: " + " ".join(f"{k}={v}" for k, v in sorted(counters.items())))
    for why in dict.fromkeys(w for p in passes for w in p.failures):
        print(f"FAILED {why}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (PackageMissing, ImportError) as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    except wl.BenchmarkError as exc:
        print(f"perfbench: benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
