"""Benchmark for covertt: one workload per run, one JSON line of results.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: covertt is imported from ``src/``
there, never from an installed copy.  With ``--trace 0`` the last line
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run, which also writes its spans under
``.bench_build/perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import selftest  # noqa: E402
from workloads import WORKLOADS, Round  # noqa: E402

# Same limit as covertt.cli.main: derivations of long chains recurse deeply.
RECURSION_LIMIT = 100_000
SETUP_REPEATS = 5
MODULES = ("terms", "semantics", "typecheck", "surface", "encodings", "cover")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}

PER_LAYER = {
    "surface.parse_s": "s",
    "surface.parse_chars_per_s": "char/s",
    "surface.pretty_s": "s",
    "surface.files_parsed": "count",
    "terms.s": "s",
    "semantics.conv_s": "s",
    "semantics.conv_calls": "count",
    "semantics.conv_identical": "count",
    "semantics.readback_s": "s",
    "semantics.readback_calls": "count",
    "semantics.eval_s": "s",
    "semantics.eval_steps": "count",
    "typecheck.check_s": "s",
    "typecheck.decls_checked": "count",
    "typecheck.subsumes_calls": "count",
    "encodings.corpus_s.none": "s",
    "encodings.corpus_s.funext": "s",
    "encodings.corpus_s.eta3": "s",
    "encodings.corpus_s.all": "s",
    "cover.load_s": "s",
    "cover.fixpoint_s": "s",
    "cover.fixpoint_calls": "count",
    "cover.derivation_s": "s",
    "cover.extract_s": "s",
    "cover.certificate_chars": "count",
    "cli.startup_ms": "ms",
    "cli.check_s": "s",
    "cli.norm_s": "s",
    "cli.cover_s": "s",
    "trace.overhead_s": "s",
}

# per-layer time metric -> span name
SELF_TIMES = {
    "surface.parse_s": "surface.parse",
    "surface.pretty_s": "surface.pretty",
    "terms.s": "terms",
    "semantics.conv_s": "semantics.conv",
    "semantics.readback_s": "semantics.readback",
    "semantics.eval_s": "semantics.eval",
    "typecheck.check_s": "typecheck.check",
    "cover.load_s": "cover.load",
    "cover.fixpoint_s": "cover.fixpoint",
    "cover.derivation_s": "cover.derivation",
    "cover.extract_s": "cover.extract",
}


class Modules:
    """covertt's modules, imported afresh from the checkout's ``src/``."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "covertt" or m.startswith("covertt.")]:
            del sys.modules[name]
        pkg = importlib.import_module("covertt")
        expected = os.path.join(ROOT, "src", "covertt", "__init__.py")
        if os.path.abspath(pkg.__file__) != expected:
            raise ImportError(f"covertt was imported from {pkg.__file__}, not {expected}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"covertt.{name}"))


def p90(xs):
    # inclusive: with few samples (corpus has 4 a round) stay within the data
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def run_rounds(workload, cv, seconds, tracer=None, count=None):
    """Whole rounds until ``seconds`` have passed, or exactly ``count`` rounds."""
    rounds = []
    start = time.perf_counter()
    while True:
        r = workload.run_round(cv, tracer)
        r.settle()  # a calibration after the last operation
        if tracer is not None:
            r.counts["semantics.eval_steps"] = tracer.take_eval_steps()
            r.counts.update(tracer.counts)
            tracer.counts.clear()
            for metric, span in SELF_TIMES.items():
                r.parts[metric] = tracer.self_time.get(span, 0.0)
            tracer.self_time.clear()
        rounds.append(r)
        if count is not None:
            if len(rounds) >= count:
                return rounds
        elif time.perf_counter() - start >= seconds:
            return rounds


def end_to_end(workload, rounds, setup_s):
    """Times at the reference speed (see ``workloads.Round``).  Latency
    percentiles are taken per round, then the median over rounds: with 4
    operations a round (corpus), a pooled median would fall between the
    slowest funext pass and the fastest eta3 pass of the whole run."""
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        "round_s": statistics.mean(r.busy() for r in rounds),
        "op_p50_ms": statistics.median(statistics.median(r.samples()) for r in rounds) * 1000,
        "op_p90_ms": statistics.median(p90(r.samples()) for r in rounds) * 1000,
    }


def per_layer(workload, cv, seconds, seed, work_dir):
    """Traced rounds for half the run, then as many untraced rounds; counts
    come from the first traced round, times are means over traced rounds at
    the reference speed."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(workload, cv, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    plain = run_rounds(workload, cv, 0, count=len(traced))
    out = {name: 0.0 for name in PER_LAYER}
    first = traced[0].counts
    for name in PER_LAYER:
        if PER_LAYER[name] == "count":
            out[name] = first.get(name, 0)
    for name in {p for r in traced for p in r.parts}:
        out[name] = statistics.mean(r.parts.get(name, 0.0) * r.scale() for r in traced)
    if out["surface.parse_s"] > 0:
        out["surface.parse_chars_per_s"] = first.get("surface.parse_chars", 0) / out["surface.parse_s"]
    if workload.name == "cli":
        out["cli.startup_ms"] = workload.startup_ms()
    out["trace.overhead_s"] = (
        statistics.mean(r.busy() for r in traced) - statistics.mean(r.busy() for r in plain)
    )
    os.makedirs(work_dir, exist_ok=True)
    tracer.write(os.path.join(work_dir, f"spans-{workload.name}-{seed}.tsv.gz"))
    return out, traced + plain


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=98765)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "covertt", "__init__.py")):
        print(f"error: no covertt sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    sys.setrecursionlimit(RECURSION_LIMIT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    bench_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(bench_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bench_dir)
    try:
        workload = WORKLOADS[args.workload]()
        setups = Round()
        for _ in range(SETUP_REPEATS):
            setups.settle()
            t0 = time.perf_counter()
            cv = Modules()
            workload.setup(cv, args.seed, ROOT, work_dir)
            setups.record(t0, time.perf_counter(), [])
        misbehaving = selftest.failures(cv)
        if misbehaving:
            print("error: benchmark self-test failed: " + "; ".join(misbehaving), file=sys.stderr)
            return 3
        if args.trace:
            values, rounds = per_layer(workload, cv, args.seconds, args.seed, bench_dir)
            units = PER_LAYER
        else:
            rounds = run_rounds(workload, cv, args.seconds)
            setups.settle()
            setup_s = statistics.median(setups.samples())
            values, units = end_to_end(workload, rounds, setup_s), END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    problems = [p for r in rounds for p in r.problems]
    for p in problems[:10]:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
