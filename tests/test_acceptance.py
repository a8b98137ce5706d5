"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 asks for the whole propositional half under the funext flag
alone and is expected to fail: with funext as a bare postulate (no
computation rule) the pair-valued interpretations cannot discharge their
second round trip, so those two entries legitimately require the
uniqueness rules as well.  The achievable halves are asserted separately.
"""

import itertools
import random
import subprocess
import sys
import time

import pytest

from covertt import surface, typecheck
from covertt.cover import (
    FiniteAxiomSet,
    Subset,
    cover_type,
    derivation,
    extract_proof_term,
    least_cover,
)
from covertt.encodings import check_corpus
from covertt.terms import Flags
from covertt.typecheck import Checker, Context

import builders
from helpers import (
    CORPUS,
    brute_force_min_cover,
    conv,
    load_file,
    random_instance as _random_instance,
)
from test_encodings import DW_INSTANCES, W_INSTANCES, _check_fragment
from test_typechecker import (
    BAD_MOTIVES,
    C_RULES,
    _ctx,
    test_elimination_rules,
    test_formation_rules_land_in_the_universe,
    test_introduction_rules,
)


def _report(criterion: int, ok: bool, description: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    return ok


DEFINITIONAL = ("P4.1ii", "P5.1ii", "P5.2ii", "P5.2iv")
PROPOSITIONAL = ("P4.1i", "P5.1i", "P5.2i", "P5.2iii")


def test_criterion_1_definitional_half():
    t0 = time.time()
    results = {r.tag: r for r in check_corpus(Flags(eta_pi=True, eta_sigma=True, eta_unit=True))}
    ok = all(results[tag].status == "pass" for tag in DEFINITIONAL)
    # C-rule conversions of each encoded constructor at three instances
    for name, i, n, br, ar in DW_INSTANCES:
        _check_fragment(
            ["p41ii.mltt"],
            builders.build_dw_encoding(i, n, br, ar, prefix=f"c1dw{name}_"),
            Flags(eta_pi=True, eta_sigma=True),
        )
    from test_encodings import COVER_INSTANCES, WP_INSTANCES

    for name, a, ifam, cfam, v in COVER_INSTANCES:
        _check_fragment(
            ["p51ii.mltt"],
            builders.build_canonical(a, ifam, cfam, v, prefix=f"c1cov{name}_"),
            Flags(eta_pi=True, eta_sigma=True),
        )
    for name, i, n, r in WP_INSTANCES:
        _check_fragment(
            ["p52ii.mltt"],
            builders.build_wp_via_dw(i, n, r, prefix=f"c1wp{name}_"),
            Flags(eta_pi=True, eta_sigma=True),
        )
    for name, a, b in W_INSTANCES:
        _check_fragment(
            ["p52iv.mltt"],
            builders.build_w_via_wp(a, b, prefix=f"c1w{name}_"),
            Flags(eta_pi=True, eta_unit=True),
        )
    assert _report(
        1,
        ok,
        f"definitional entries pass under the three uniqueness flags "
        f"({time.time() - t0:.1f}s)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "With funext as a bare postulate (no computation rule), the round "
        "trips on the pair-valued interpretations (P4.1i, P5.1i) cannot be "
        "closed: relating a rebuilt pair of projections to the original "
        "variable needs the uniqueness rules for functions and pairs, and "
        "the candidate derivation would require the computation law "
        "'happly (funext pw) b = pw b', which a postulate does not provide. "
        "Those two entries carry 'funext eta_pi eta_sigma' in the manifest "
        "and are skipped here; test_criterion_2_achievable_parts pins what "
        "does hold."
    ),
)
def test_criterion_2_propositional_half_as_stated():
    results = {r.tag: r for r in check_corpus(Flags(funext=True))}
    ok = all(results[tag].status == "pass" for tag in PROPOSITIONAL)
    _report(2, ok, "propositional entries under the funext flag alone")
    assert ok


def test_criterion_2_achievable_parts():
    under_funext = {r.tag: r for r in check_corpus(Flags(funext=True))}
    assert under_funext["P5.2i"].status == "pass"
    assert under_funext["P5.2iii"].status == "pass"
    full = {
        r.tag: r
        for r in check_corpus(Flags(funext=True, eta_pi=True, eta_sigma=True))
    }
    ok = all(full[tag].status == "pass" for tag in PROPOSITIONAL)
    assert _report(
        2,
        ok,
        "round-trip proofs all check; P4.1i and P5.1i need the uniqueness "
        "rules alongside the postulated funext",
    )


def test_criterion_3_no_flags_bookkeeping(capsys):
    results = {r.tag: r for r in check_corpus(Flags())}
    base_ok = all(
        results[tag].status == "pass"
        for tag in ("prelude", "RepProp", "CoverAsWP", "WPAsCover")
    )
    skipped_ok = all(
        results[tag].status == "skip"
        for tag in DEFINITIONAL + PROPOSITIONAL + ("T6.1",)
    )
    # log (never assert) the without-flag outcomes of the eta-requiring
    # computation checks: drive each derived eliminator without its flags
    for fn in ("p41ii.mltt", "p51ii.mltt", "p52ii.mltt", "p52iv.mltt"):
        try:
            decls = load_file(f"{CORPUS}/{fn}")
            typecheck.check_declarations(decls, Flags())
            outcome = "checks"
        except typecheck.TypeCheckError as e:
            outcome = f"rejected ({e.kind})"
        print(f"log: {fn} without flags: {outcome}")
    out = capsys.readouterr().out
    sys.stdout.write(out)
    assert _report(3, base_ok and skipped_ok, "flag-free entries pass, the rest skip")


def test_criterion_4_rule_coverage():
    test_formation_rules_land_in_the_universe()
    test_introduction_rules()
    test_elimination_rules()
    neg_ok = True
    for src, items in BAD_MOTIVES:
        chk, ctx, scope = _ctx(items)
        try:
            chk.infer(ctx, surface.parse_term(src, scope=scope))
            neg_ok = False
        except typecheck.TypeCheckError:
            pass
    conv_ok = True
    for flags in [
        Flags(),
        Flags(eta_pi=True),
        Flags(eta_sigma=True),
        Flags(eta_unit=True),
        Flags(funext=True),
        Flags(eta_pi=True, eta_sigma=True, eta_unit=True, funext=True),
    ]:
        for items, ty, lhs, rhs in C_RULES:
            chk, ctx, scope = _ctx(items, flags)
            conv_ok = conv_ok and conv(chk, ctx, scope, ty, lhs, rhs)
    assert _report(
        4, neg_ok and conv_ok, "every rule has golden accepts, rejects and computations"
    )


def test_criterion_5_oracle_equivalence():
    t0 = time.time()
    subsets = [Subset(m, 2) for m in range(4)]
    per_atom = list(
        itertools.chain.from_iterable(
            itertools.combinations(subsets, r) for r in range(5)
        )
    )
    monotone_pool = {}
    for covers_a in per_atom:
        for covers_b in per_atom:
            labels = (
                tuple(f"i{k}" for k in range(len(covers_a))),
                tuple(f"j{k}" for k in range(len(covers_b))),
            )
            ax = FiniteAxiomSet(("a", "b"), labels, (tuple(covers_a), tuple(covers_b)))
            per_v = {}
            for vm in range(4):
                v = Subset(vm, 2)
                c = least_cover(ax, v)
                assert c == brute_force_min_cover(ax, v)
                assert set(v) <= set(c)
                assert least_cover(ax, c) == c
                per_v[vm] = c
            for vm in range(4):
                for wm in range(4):
                    if vm & ~wm == 0:
                        assert set(per_v[vm]) <= set(per_v[wm])
    rng = random.Random(424242)  # fixed seed, recorded here
    for _ in range(200):
        n = rng.choice([3, 4])
        ax = _random_instance(rng, n)
        v = Subset(rng.randrange(1 << n), n)
        c = least_cover(ax, v)
        assert c == brute_force_min_cover(ax, v)
        assert set(v) <= set(c)
        assert least_cover(ax, c) == c
    elapsed = time.time() - t0
    assert _report(
        5,
        elapsed < 60,
        f"oracle equivalence and closure laws, seed 424242 ({elapsed:.1f}s)",
    )


def test_criterion_6_engine_kernel_round_trip():
    t0 = time.time()
    rng = random.Random(98765)  # fixed seed, recorded here
    instances = 0
    proofs = 0
    while instances < 100:
        n = rng.choice([2, 3, 4])
        ax = _random_instance(rng, n)
        v = Subset(rng.randrange(1 << n), n)
        lc = least_cover(ax, v)
        instances += 1
        for atom in range(n):
            d = derivation(ax, v, atom)
            assert (d is not None) == lc.contains(atom)
            if d is None:
                continue
            tm = extract_proof_term(ax, v, d)
            ty = cover_type(ax, v, atom)
            chk = Checker(Flags())
            ctx = Context()
            chk.ensure_type(ctx, ty)
            chk.check(ctx, tm, chk.eval_in(ctx, ty))
            proofs += 1
    elapsed = time.time() - t0
    assert _report(
        6,
        elapsed < 60,
        f"{proofs} extracted proofs over {instances} instances check flag-free, "
        f"seed 98765 ({elapsed:.1f}s)",
    )


def test_criterion_7_determinism_and_round_trip(tmp_path):
    import os

    for fn in sorted(os.listdir(CORPUS)):
        if not fn.endswith(".mltt"):
            continue
        with open(os.path.join(CORPUS, fn), encoding="utf-8") as fh:
            src = fh.read()
        decls, _ = surface.parse_file(src, fn)
        for d in decls:
            printed = surface.pretty_declaration(d)
            rep = surface.parse_file(printed, fn)[0][0]
            assert rep.type == d.type and rep.body == d.body, (fn, d.name)

    cov_file = tmp_path / "two.cov"
    cov_file.write_text("carrier a b\naxiom a i : b\nsubset V : b\nquery a V\nquery b V\n")
    cmd = [sys.executable, "-m", "covertt.cli", "cover", str(cov_file), "--derivations"]
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True)
    assert r1.returncode == 0 and r1.stdout == r2.stdout

    cmd = [sys.executable, "-m", "covertt.cli", "corpus", "--eta-pi", "--eta-sigma", "--eta-unit"]
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True)
    assert r1.returncode == 0 and r1.stdout == r2.stdout
    assert _report(7, True, "pretty round trips and byte-identical reruns")
