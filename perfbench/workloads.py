"""The four workloads.

Each workload makes its inputs in ``setup`` and runs one round of
operations per ``run_round`` call.  An operation is one timed call into
covertt (a ``check_corpus`` pass, a proof, an axiom-set file, a
subprocess); every round repeats the same operations in the same order.
``run_round`` returns a ``Round``; covertt modules are looked up on ``cv``
at call time, so the tracer's wrappers see every call.

Before each operation, outside its timing, ``Round.settle`` collects
garbage, so that garbage left by one operation is not collected inside the
next (without it, latencies within one class of roundtrip proofs spread
2x), and times a fixed pure-Python calibration loop.  The speed of the
host's CPU drifts by up to a third over minutes, as other tenants load it;
``Round.scale`` converts the round's times to a reference speed at which
the calibration loop takes ``CALIBRATION_REF_S``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import inputs

FLAG_SETS = {
    "none": (),
    "funext": ("funext",),
    "eta3": ("eta_pi", "eta_sigma", "eta_unit"),
    "all": ("eta_pi", "eta_sigma", "eta_unit", "funext"),
}


CALIBRATION_DEPTH = 12
CALIBRATION_REF_S = 0.002  # the loop's median time on an idle 2-core host
CALIBRATION_WINDOW_S = 1.0


def _tree(depth):
    return (depth,) if depth == 0 else (_tree(depth - 1), _tree(depth - 1))


def _tree_size(t):
    return 1 if len(t) == 1 else _tree_size(t[0]) + _tree_size(t[1])


def calibrate() -> float:
    """Seconds the calibration loop takes now: build and fold a binary tree
    of tuples, allocation and recursion as in covertt's own work."""
    t0 = time.perf_counter()
    _tree_size(_tree(CALIBRATION_DEPTH))
    return time.perf_counter() - t0


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    ops: list = field(default_factory=list)  # (start, end, sampled) per timed call
    calibration: list = field(default_factory=list)  # (time, seconds) per settle()
    parts: dict = field(default_factory=dict)  # per-layer times, in seconds
    counts: dict = field(default_factory=dict)  # exact counts

    def settle(self):
        """Collect garbage, then time the calibration loop."""
        gc.collect()
        cal = calibrate()
        self.calibration.append((time.perf_counter(), cal))

    def record(self, start: float, end: float, problems, sampled: bool = True):
        """An operation that ran from ``start`` to ``end``.  Unsampled ones
        (roundtrip's uncovered verdicts) count in the round's time but not
        among the latencies."""
        self.ops.append((start, end, sampled))
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def scaled(self) -> list:
        """Each operation's duration at the reference speed, scaled by the
        median of the calibrations timed within ``CALIBRATION_WINDOW_S`` of
        it (at least the ones just before and just after it)."""
        out = []
        for start, end, _ in self.ops:
            near = [
                c for t, c in self.calibration
                if start - CALIBRATION_WINDOW_S <= t <= end + CALIBRATION_WINDOW_S
            ]
            out.append((end - start) * CALIBRATION_REF_S / statistics.median(near))
        return out

    def samples(self) -> list:
        return [s for s, (_, _, sampled) in zip(self.scaled(), self.ops) if sampled]

    def busy(self) -> float:
        """Time inside covertt in this round, at the reference speed."""
        return sum(self.scaled())

    def scale(self) -> float:
        """Factor from this round's raw times to the reference speed."""
        return self.busy() / sum(end - start for start, end, _ in self.ops)


class Corpus:
    """``check_corpus`` over the shipped manifest under the four flag sets
    the manifest uses.  The inputs are the shipped files; the seed is not
    used."""

    name = "corpus"

    def setup(self, cv, seed, root, work_dir):
        self.corpus_dir = os.path.join(root, "src", "covertt", "corpus")
        self.manifest = checks.read_manifest(self.corpus_dir)

    def run_round(self, cv, tracer=None):
        r = Round()
        for label, names in FLAG_SETS.items():
            flags = cv.terms.Flags.from_names(names)
            r.settle()
            t0 = time.perf_counter()
            try:
                results = cv.encodings.check_corpus(flags)
                problems = None
            except Exception as e:  # a crash is a failed operation, not a crashed benchmark
                results, problems = [], [f"check_corpus({label}) raised {e!r}"]
            t1 = time.perf_counter()
            r.parts[f"encodings.corpus_s.{label}"] = t1 - t0
            if problems is None:
                problems = checks.corpus_problems(
                    self.manifest, names, [(x.tag, x.file, x.status) for x in results]
                )
            r.record(t0, t1, problems)
        return r


class Roundtrip:
    """Engine to kernel: derivation, proof term, certificate text, parse,
    flag-free kernel check at the cover type; plus uncovered verdicts."""

    name = "roundtrip"

    def setup(self, cv, seed, root, work_dir):
        self.items = inputs.roundtrip_items(seed)

    def run_round(self, cv, tracer=None):
        cover, surface, tc = cv.cover, cv.surface, cv.typecheck
        r = Round()
        chars = 0
        for n, labels, covers, v, atom, covered in self.items:
            ax = cover.FiniteAxiomSet(
                tuple("abcd"[:n]),
                labels,
                tuple(tuple(cover.Subset(m, n) for m in cs) for cs in covers),
            )
            vs = cover.Subset(v, n)
            r.settle()
            t0 = time.perf_counter()
            tm = back = None
            try:
                d = cover.derivation(ax, vs, atom)
                if d is not None:
                    tm = cover.extract_proof_term(ax, vs, d)
                    text = surface.pretty(tm)
                    back = surface.parse_term(text)
                    ty = cover.cover_type(ax, vs, atom)
                    chk = tc.Checker(cv.terms.Flags())
                    ctx = tc.Context()
                    chk.ensure_type(ctx, ty)
                    chk.check(ctx, back, chk.eval_in(ctx, ty))
                    chars += len(text)
                t1 = time.perf_counter()
                problems = checks.proof_problems(covers, v, atom, covered, d, tm, back)
            except Exception as e:  # a crash is a failed operation, not a crashed benchmark
                t1 = time.perf_counter()
                problems = [f"atom {atom} raised {e!r}"]
            r.record(t0, t1, problems, sampled=covered)
        r.counts["cover.certificate_chars"] = chars
        return r


class CoverScale:
    """``load_axiom_set`` and ``run_queries(with_derivations=True)`` on long
    chains and layered sparse Horn sets of thousands of atoms."""

    name = "cover_scale"

    def setup(self, cv, seed, root, work_dir):
        self.files = [
            (name, text, inputs.parse_axiom_text(text)) for name, text in inputs.cover_scale_files(seed)
        ]

    def run_round(self, cv, tracer=None):
        r = Round()
        for name, text, expected in self.files:
            r.settle()
            t0 = time.perf_counter()
            try:
                cf = cv.cover.load_axiom_set(text)
                lines = cv.cover.run_queries(cf, with_derivations=True)
                t1 = time.perf_counter()
                problems = [f"{name}: {p}" for p in checks.cover_report_problems(expected, lines)]
            except Exception as e:  # a crash is a failed operation, not a crashed benchmark
                t1 = time.perf_counter()
                problems = [f"{name} raised {e!r}"]
            r.record(t0, t1, problems)
        return r


class Cli:
    """Sequential ``covertt`` subprocesses, as a user runs them: ``check`` on
    every manifest entry under exactly its flags, ``norm`` on nested
    identity applications, ``cover --derivations`` on generated files."""

    name = "cli"

    def setup(self, cv, seed, root, work_dir):
        rng = random.Random(seed)
        corpus_dir = os.path.join(root, "src", "covertt", "corpus")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.root = root
        calls = []
        for tag, file, required in checks.read_manifest(corpus_dir):
            flags = ["--" + f.replace("_", "-") for f in sorted(required)]
            calls.append(("check", ["check", os.path.join(corpus_dir, file), *flags], None))
        for depth in inputs.NORM_DEPTHS:
            calls.append(("norm", ["norm", "--expr", inputs.nested_identity(depth)], None))
        for name, text in (
            ("chain", inputs.chain_text(rng, 300)),
            ("horn", inputs.layered_horn_text(rng, 200, 6, 4)),
        ):
            path = os.path.join(work_dir, f"{name}.cov")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            calls.append(("cover", ["cover", path, "--derivations"], inputs.parse_axiom_text(text)))
        self.calls = calls

    def _run(self, argv):
        return subprocess.run(
            [sys.executable, *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=150,
        )

    def startup_ms(self, repeats: int = 5) -> float:
        """Median time of a process that only imports ``covertt.cli``."""
        r = Round()
        for _ in range(repeats):
            r.settle()
            t0 = time.perf_counter()
            self._run(["-c", "import covertt.cli"])
            r.record(t0, time.perf_counter(), [])
        r.settle()
        return statistics.median(r.samples()) * 1000

    def run_round(self, cv, tracer=None):
        r = Round()
        for kind in ("check", "norm", "cover"):
            r.parts[f"cli.{kind}_s"] = 0.0
        for kind, argv, expected in self.calls:
            r.settle()
            with tracer.span(f"cli.{kind}") if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    proc = self._run(["-m", "covertt.cli", *argv])
                except subprocess.TimeoutExpired:
                    proc = None
                t1 = time.perf_counter()
            r.parts[f"cli.{kind}_s"] += t1 - t0
            if proc is None:
                problems = ["timed out"]
            else:
                problems = checks.cli_problems(kind, proc.returncode, proc.stdout, expected)
            r.record(t0, t1, [f"{kind} {argv[1][:40]}: {p}" for p in problems])
        return r


WORKLOADS = {w.name: w for w in (Corpus, Roundtrip, CoverScale, Cli)}
