"""Evaluation, readback and the conversion check."""

import hypothesis
import hypothesis.strategies as st
import pytest

from covertt import surface
from covertt.terms import Flags

from helpers import ALL_FLAG_SETS, checker_for, context_of, conv

BASE = """
def Two : U0 := Sum N1 N1
def natBranch : Two -> U0 := fun b => case (fun z => U0) (fun u => N0) (fun u => N1) b
def Nat : U0 := W Two natBranch
def zero : Nat := sup (inl star) (fun e => absurd (fun z => Nat) e)
def succ : Nat -> Nat := fun n => sup (inr star) (fun u => n)
"""


def test_beta_for_pi():
    chk = checker_for("def idU : U0 -> U0 := fun A => A")
    ctx, scope = context_of(chk, [("A", "U0")])
    assert conv(chk, ctx, scope, "U0", "idU A", "A")


def test_w_computation_rule_fires():
    chk = checker_for(BASE)
    ctx, scope = context_of(
        chk,
        [
            ("M", "Nat -> U0"),
            (
                "d",
                "(a : Two) -> (f : natBranch a -> Nat) -> (h : (b : natBranch a) -> M (f b)) -> M (sup a f)",
            ),
        ],
    )
    lhs = "elimW M d zero"
    rhs = "d (inl star) (fun e => absurd (fun z => Nat) e) (fun b => elimW M d (absurd (fun z => Nat) b))"
    assert conv(chk, ctx, scope, "M zero", lhs, rhs)


def test_cover_rf_computation_rule():
    src = BASE + """
def If : Two -> U0 := fun a => N0
def Cf : (a : Two) -> If a -> Two -> U0 := fun a => fun i => absurd (fun z => Two -> U0) i
def Vfull : Two -> U0 := fun a => N1
def Cov : Two -> U0 := fun a => Cover Two If Cf Vfull a
"""
    chk = checker_for(src)
    ctx, scope = context_of(
        chk,
        [
            ("M", "(a : Two) -> Cov a -> U0"),
            ("q1", "(a : Two) -> (r : Vfull a) -> M a (rf a r)"),
            (
                "q2",
                "(a : Two) -> (i : If a) -> (r : (b : Two) -> Cf a i b -> Cov b) -> "
                "(h : (b : Two) -> (s : Cf a i b) -> M b (r b s)) -> M a (tr a i r)",
            ),
        ],
    )
    assert conv(
        chk, ctx, scope,
        "M (inl star) (rf (inl star) star)",
        "elimCover M q1 q2 (inl star) ((rf (inl star) star : Cov (inl star)))",
        "q1 (inl star) star",
    )


def test_identity_beta():
    chk = checker_for("def idN : N1 -> N1 := fun x => x")
    ctx, scope = context_of(chk, [])
    assert conv(chk, ctx, scope, "N1", "idN star", "star")


def test_eta_pi_readback():
    chk_on = checker_for("", Flags(eta_pi=True))
    chk_off = checker_for("")
    for chk, expect in ((chk_on, True), (chk_off, False)):
        ctx, scope = context_of(chk, [("A", "U0"), ("f", "A -> A")])
        assert conv(chk, ctx, scope, "A -> A", "f", "fun x => f x") is expect


def test_eta_sigma_readback():
    for flags, expect in ((Flags(eta_sigma=True), True), (Flags(), False)):
        chk = checker_for("", flags)
        ctx, scope = context_of(chk, [("A", "U0"), ("B", "U0"), ("z", "A * B")])
        assert conv(chk, ctx, scope, "A * B", "z", "( fst z , snd z )") is expect


def test_eta_unit_readback():
    for flags, expect in ((Flags(eta_unit=True), True), (Flags(), False)):
        chk = checker_for("", flags)
        ctx, scope = context_of(chk, [("z", "N1")])
        assert conv(chk, ctx, scope, "N1", "z", "star") is expect


def test_readback_neutral_at_pi_with_eta():
    chk = checker_for("", Flags(eta_pi=True))
    ctx, scope = context_of(chk, [("A", "U0"), ("f", "A -> A")])
    ty = surface.parse_term("A -> A", scope=scope)
    f = surface.parse_term("f", scope=scope)
    tyv = chk.eval_in(ctx, ty)
    nf = chk.norm(ctx, chk.eval_in(ctx, f), tyv)
    assert surface.pretty(nf).startswith("fun ")


def test_normal_forms_are_stable():
    chk = checker_for(BASE, Flags(eta_pi=True, eta_sigma=True, eta_unit=True))
    ctx, scope = context_of(chk, [])
    for src, ty_src in [
        ("succ (succ zero)", "Nat"),
        ("fun n => succ n", "Nat -> Nat"),
        ("( star , zero )", "N1 * Nat"),
    ]:
        ty = surface.parse_term(ty_src, scope=scope)
        tyv = chk.eval_in(ctx, ty)
        t = surface.parse_term(src, scope=scope)
        chk.check(ctx, t, tyv)
        n1 = chk.norm(ctx, chk.eval_in(ctx, t), tyv)
        n2 = chk.norm(ctx, chk.eval_in(ctx, n1), tyv)
        assert n1 == n2


CONVERTIBLE_SAMPLES = [
    # (context items, type, lhs, rhs, minimal flags)
    ([("A", "U0"), ("f", "A -> A")], "A -> A", "f", "fun x => f x", Flags(eta_pi=True)),
    ([("A", "U0"), ("B", "U0"), ("z", "A * B")], "A * B", "z", "( fst z , snd z )", Flags(eta_sigma=True)),
    ([("z", "N1")], "N1", "z", "star", Flags(eta_unit=True)),
    ([("A", "U0"), ("x", "A")], "A", "x", "x", Flags()),
]


@pytest.mark.parametrize("flags", ALL_FLAG_SETS)
def test_flag_monotonicity_of_convertibility(flags):
    for items, ty, lhs, rhs, minimal in CONVERTIBLE_SAMPLES:
        chk = checker_for("", flags)
        ctx, scope = context_of(chk, items)
        result = conv(chk, ctx, scope, ty, lhs, rhs)
        if flags.includes(minimal):
            assert result, (ty, lhs, rhs, flags)


def test_convertibility_is_an_equivalence_on_samples():
    chk = checker_for(BASE, Flags(eta_pi=True))
    ctx, scope = context_of(chk, [("n", "Nat")])
    terms = ["succ n", "succ (succ zero)", "((fun m => succ m) : Nat -> Nat) n"]
    for a in terms:
        assert conv(chk, ctx, scope, "Nat", a, a)
    for a in terms:
        for b in terms:
            ab = conv(chk, ctx, scope, "Nat", a, b)
            ba = conv(chk, ctx, scope, "Nat", b, a)
            assert ab == ba
    # transitivity over the sample set
    for a in terms:
        for b in terms:
            for c in terms:
                if conv(chk, ctx, scope, "Nat", a, b) and conv(chk, ctx, scope, "Nat", b, c):
                    assert conv(chk, ctx, scope, "Nat", a, c)


@st.composite
def _nat_terms(draw):
    """Random closed tree-numeral terms with a known numeric value."""
    n = draw(st.integers(0, 5))
    src = "zero"
    for _ in range(n):
        src = f"succ ({src})"
        if draw(st.booleans()):
            src = f"((fun m => m) : Nat -> Nat) ({src})"
    return n, src


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(_nat_terms(), _nat_terms(), _nat_terms())
def test_convertible_equivalence_on_generated_terms(a, b, c):
    chk = checker_for(BASE)
    ctx, scope = context_of(chk, [])
    (na, sa), (nb, sb), (nc, sc) = a, b, c
    # reflexivity, symmetry, transitivity, and agreement with the value
    assert conv(chk, ctx, scope, "Nat", sa, sa)
    ab = conv(chk, ctx, scope, "Nat", sa, sb)
    assert ab == (na == nb)
    assert ab == conv(chk, ctx, scope, "Nat", sb, sa)
    if ab and conv(chk, ctx, scope, "Nat", sb, sc):
        assert conv(chk, ctx, scope, "Nat", sa, sc)


def test_eval_budget_guard():
    from covertt.semantics import EvalBudgetExceeded

    chk = checker_for(BASE, Flags(), )
    chk.ev.step_limit = 50
    ctx, scope = context_of(chk, [])
    # checking takes no steps, evaluating 20 and reading back 67
    big = "succ (" * 20 + "zero" + ")" * 20
    t = surface.parse_term(big, scope=scope)
    ty = chk.eval_in(ctx, surface.parse_term("Nat", scope=scope))
    with pytest.raises(EvalBudgetExceeded):
        chk.check(ctx, t, ty)
        chk.norm(ctx, chk.eval_in(ctx, t), ty)
