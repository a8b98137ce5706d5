"""Check that exact counts repeat bit for bit between two runs at one seed.

    python3 perfbench/determinism.py [--seed N] [--workload W ...]

Runs each workload twice in traced mode (``--trace 1 --seconds 1``, so one
traced round each) and compares the counts below; exits 1 if any differ or
a run fails.  Counts are taken from the first traced round of a run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNTS = (
    "cover.certificate_chars",
    "semantics.eval_steps",
    "typecheck.decls_checked",
    "surface.files_parsed",
    "cover.fixpoint_calls",
)
WORKLOADS = ("corpus", "roundtrip", "cover_scale")  # cli counts nothing in-process


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: outputs failed their checks")
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=98765)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    status = 0
    for workload in args.workload or WORKLOADS:
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        for name in COUNTS:
            same = first[name] == second[name]
            status |= not same
            print(f"{'same' if same else 'DIFFERENT'} {workload} {name} {first[name]} {second[name]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
