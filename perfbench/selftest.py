"""Self-tests of the benchmark's validators.

Each validator must accept a genuine answer from covertt and reject a
deliberately corrupted one; a check that cannot fail measures nothing.
``run.py`` calls ``failures`` before every measurement and refuses to
measure if any check misbehaves.  Standalone, from the checkout root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import sys

import checks
import inputs

CHAIN = "carrier b a c\naxiom a k : b\naxiom b k : c\nsubset top : c\nsubset none :\nquery a top\nquery a none\n"


def _flip(line: str) -> str:
    return line.replace(" covered", " uncovered") if line.endswith(" covered") else line.replace(" uncovered", " covered")


def _cases(cv):
    """(name, validator result on a genuine answer, on a corrupted one)."""
    cover, surface = cv.cover, cv.surface

    # verdicts and rendered derivations, as ``covertt cover`` prints them
    expected = inputs.parse_axiom_text(CHAIN)
    lines = cover.run_queries(cover.load_axiom_set(CHAIN), with_derivations=True)
    flipped = [_flip(lines[0])] + lines[1:]
    yield "cover: flipped verdict", checks.cover_report_problems(expected, lines), \
        checks.cover_report_problems(expected, flipped)
    wrong_child = [line.replace("rf c", "rf b") for line in lines]
    yield "cover: derivation with a wrong child", checks.cover_report_problems(expected, lines), \
        checks.cover_report_problems(expected, wrong_child)

    # a derivation object and its proof term, as the roundtrip sees them
    labels, covers, v = (("i0",), ("i0",), ()), ((0b010,), (0b100,), ()), 0b100
    ax = cover.FiniteAxiomSet(
        ("a", "b", "c"), labels, tuple(tuple(cover.Subset(m, 3) for m in cs) for cs in covers)
    )
    vs = cover.Subset(v, 3)
    d = cover.derivation(ax, vs, 0)
    tm = cover.extract_proof_term(ax, vs, d)
    text = surface.pretty(tm)
    back = surface.parse_term(text)
    good = checks.proof_problems(covers, v, 0, True, d, tm, back)
    yield "roundtrip: flipped verdict", good, checks.proof_problems(covers, v, 0, False, d, tm, back)
    child = d.children[0]
    bad_d = type(d)(d.atom, d.label, (type(child)(2, child.label, child.children),))
    yield "roundtrip: derivation with a wrong child", good, \
        checks.proof_problems(covers, v, 0, True, bad_d, tm, back)
    rf_outside_v = type(d.children[0].children[0])(1)
    bad_d = type(d)(d.atom, d.label, (rf_outside_v,))
    yield "roundtrip: rf outside V", good, checks.proof_problems(covers, v, 0, True, bad_d, tm, back)
    skewed = surface.parse_term(text.replace("inl", "inr", 1))
    yield "roundtrip: proof that does not round-trip", good, \
        checks.proof_problems(covers, v, 0, True, d, tm, skewed)

    # corpus verdicts and CLI output
    manifest = [("base", "b.mltt", frozenset()), ("eta", "e.mltt", frozenset({"eta_pi"}))]
    right = [("base", "b.mltt", "pass"), ("eta", "e.mltt", "skip")]
    wrong = [("base", "b.mltt", "pass"), ("eta", "e.mltt", "pass")]
    yield "corpus: flipped verdict", checks.corpus_problems(manifest, (), right), \
        checks.corpus_problems(manifest, (), wrong)
    yield "cli: norm result", checks.cli_problems("norm", 0, "star\n"), \
        checks.cli_problems("norm", 0, "fun x0 => x0\n")
    yield "cli: error line", checks.cli_problems("check", 0, "ok a\n"), \
        checks.cli_problems("check", 0, "ok a\nerror b\n")
    yield "cli: exit status", checks.cli_problems("check", 0, "ok a\n"), \
        checks.cli_problems("check", 1, "ok a\n")
    yield "cli: cover verdict", checks.cli_problems("cover", 0, "\n".join(lines), expected), \
        checks.cli_problems("cover", 0, "\n".join(flipped), expected)


def failures(cv) -> list[str]:
    """Names of the checks that rejected a genuine answer or accepted a
    corrupted one."""
    out = []
    for name, genuine, corrupted in _cases(cv):
        if genuine:
            out.append(f"{name} (genuine answer rejected: {genuine[0]})")
        if not corrupted:
            out.append(f"{name} (corruption not caught)")
    return out


if __name__ == "__main__":
    import run

    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    sys.setrecursionlimit(run.RECURSION_LIMIT)
    bad = failures(run.Modules())
    for line in bad:
        print(f"FAIL {line}")
    print("ok" if not bad else f"{len(bad)} checks misbehave")
    sys.exit(1 if bad else 0)
