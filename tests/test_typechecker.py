"""Golden accept/reject tests: one positive per formation, introduction and
elimination rule of the four tree-like constructors, one negative per
eliminator, and judgmental computation checks under every flag setting."""

import pytest

from covertt import surface, typecheck
from covertt import terms as T
from covertt.cover import TrNode, cover_type, extract_proof_term
from covertt.terms import Flags
from covertt.typecheck import Checker, Context, TypeCheckError

from helpers import (
    ALL_FLAG_SETS,
    check_in,
    checker_for,
    context_of,
    conv,
    criterion6_derivations,
)

# parameter contexts mirroring the formation-rule premises
W_CTX = [
    ("A", "U0"),
    ("B", "A -> U0"),
    ("a", "A"),
    ("f", "B a -> W A B"),
    ("M", "W A B -> U0"),
    ("d", "(a2 : A) -> (f2 : B a2 -> W A B) -> (h : (b : B a2) -> M (f2 b)) -> M (sup a2 f2)"),
]

DW_CTX = [
    ("I", "U0"),
    ("N", "I -> U0"),
    ("Br", "(i : I) -> N i -> U0"),
    ("ar", "(i : I) -> (n : N i) -> Br i n -> I"),
    ("i", "I"),
    ("n", "N i"),
    ("f", "(b : Br i n) -> DW I N Br ar (ar i n b)"),
    ("M", "(i2 : I) -> DW I N Br ar i2 -> U0"),
    (
        "d",
        "(i2 : I) -> (n2 : N i2) -> (f2 : (b : Br i2 n2) -> DW I N Br ar (ar i2 n2 b)) -> "
        "(h : (b : Br i2 n2) -> M (ar i2 n2 b) (f2 b)) -> M i2 (dsup i2 n2 f2)",
    ),
]

WP_CTX = [
    ("I", "U0"),
    ("N", "I -> U0"),
    ("R", "(i : I) -> N i -> I -> U0"),
    ("i", "I"),
    ("n", "N i"),
    ("f", "(j : I) -> R i n j -> WP I N R j"),
    ("M", "(i2 : I) -> WP I N R i2 -> U0"),
    (
        "c",
        "(i2 : I) -> (n2 : N i2) -> (f2 : (j : I) -> R i2 n2 j -> WP I N R j) -> "
        "(h : (j : I) -> (r : R i2 n2 j) -> M j (f2 j r)) -> M i2 (ind i2 n2 f2)",
    ),
]

COVER_CTX = [
    ("A", "U0"),
    ("If", "A -> U0"),
    ("Cf", "(a : A) -> If a -> A -> U0"),
    ("V", "A -> U0"),
    ("a", "A"),
    ("rv", "V a"),
    ("i", "If a"),
    ("r", "(b : A) -> Cf a i b -> Cover A If Cf V b"),
    ("M", "(a2 : A) -> Cover A If Cf V a2 -> U0"),
    ("q1", "(a2 : A) -> (r2 : V a2) -> M a2 (rf a2 r2)"),
    (
        "q2",
        "(a2 : A) -> (i2 : If a2) -> (r2 : (b : A) -> Cf a2 i2 b -> Cover A If Cf V b) -> "
        "(h : (b : A) -> (s : Cf a2 i2 b) -> M b (r2 b s)) -> M a2 (tr a2 i2 r2)",
    ),
]


def _ctx(items, flags=Flags()):
    chk = checker_for("", flags)
    ctx, scope = context_of(chk, items)
    return chk, ctx, scope


# --- formation ----------------------------------------------------------------


def test_formation_rules_land_in_the_universe():
    chk, ctx, scope = _ctx(W_CTX)
    check_in(chk, ctx, scope, "W A B", "U0")
    chk, ctx, scope = _ctx(DW_CTX)
    check_in(chk, ctx, scope, "DW I N Br ar i", "U0")
    chk, ctx, scope = _ctx(WP_CTX)
    check_in(chk, ctx, scope, "WP I N R i", "U0")
    chk, ctx, scope = _ctx(COVER_CTX)
    check_in(chk, ctx, scope, "Cover A If Cf V a", "U0")


# --- introduction --------------------------------------------------------------


def test_introduction_rules():
    chk, ctx, scope = _ctx(W_CTX)
    check_in(chk, ctx, scope, "sup a f", "W A B")
    chk, ctx, scope = _ctx(DW_CTX)
    check_in(chk, ctx, scope, "dsup i n f", "DW I N Br ar i")
    chk, ctx, scope = _ctx(WP_CTX)
    check_in(chk, ctx, scope, "ind i n f", "WP I N R i")
    chk, ctx, scope = _ctx(COVER_CTX)
    check_in(chk, ctx, scope, "rf a rv", "Cover A If Cf V a")
    check_in(chk, ctx, scope, "tr a i r", "Cover A If Cf V a")


def test_sup_infers_through_its_branch_function():
    chk, ctx, scope = _ctx(W_CTX)
    t = surface.parse_term("sup a f", scope=scope)
    ty = chk.infer(ctx, t)
    assert surface.pretty(chk.norm_type(ctx, ty)) == surface.pretty(
        chk.norm_type(ctx, chk.eval_in(ctx, surface.parse_term("W A B", scope=scope)))
    )


# --- elimination ------------------------------------------------------------------


def test_elimination_rules():
    chk, ctx, scope = _ctx(W_CTX + [("w", "W A B")])
    check_in(chk, ctx, scope, "elimW M d w", "M w")
    chk, ctx, scope = _ctx(DW_CTX + [("w", "DW I N Br ar i")])
    check_in(chk, ctx, scope, "elimDW M d i w", "M i w")
    chk, ctx, scope = _ctx(WP_CTX + [("w", "WP I N R i")])
    check_in(chk, ctx, scope, "elimWP M c i w", "M i w")
    chk, ctx, scope = _ctx(COVER_CTX + [("p", "Cover A If Cf V a")])
    check_in(chk, ctx, scope, "elimCover M q1 q2 a p", "M a p")


def test_large_elimination_toward_type():
    # a predicate defined by recursion must be accepted as a type
    chk, ctx, scope = _ctx(W_CTX + [("w", "W A B")])
    check_in(
        chk, ctx, scope,
        "elimW (fun w2 => U0) (fun a2 => fun f2 => fun h => N1) w",
        "U0",
    )


BAD_MOTIVES = [
    ("elimW (fun w2 => star) d w", W_CTX + [("w", "W A B")]),
    ("elimDW (fun i2 => star) d i w", DW_CTX + [("w", "DW I N Br ar i")]),
    ("elimWP (fun i2 => star) c i w", WP_CTX + [("w", "WP I N R i")]),
    ("elimCover (fun a2 => star) q1 q2 a p", COVER_CTX + [("p", "Cover A If Cf V a")]),
]


@pytest.mark.parametrize("src,items", BAD_MOTIVES)
def test_eliminators_reject_ill_shaped_motives(src, items):
    chk, ctx, scope = _ctx(items)
    t = surface.parse_term(src, scope=scope)
    with pytest.raises(TypeCheckError) as e:
        chk.infer(ctx, t)
    assert e.value.kind in ("motive-shape", "mismatch")


# --- computation, under every flag setting --------------------------------------


C_RULES = [
    (
        W_CTX, "M (sup a f)",
        "elimW M d ((sup a f : W A B))",
        "d a f (fun b => elimW M d (f b))",
    ),
    (
        DW_CTX, "M i (dsup i n f)",
        "elimDW M d i ((dsup i n f : DW I N Br ar i))",
        "d i n f (fun b => elimDW M d (ar i n b) (f b))",
    ),
    (
        WP_CTX, "M i (ind i n f)",
        "elimWP M c i ((ind i n f : WP I N R i))",
        "c i n f (fun j => fun r2 => elimWP M c j (f j r2))",
    ),
    (
        COVER_CTX, "M a (rf a rv)",
        "elimCover M q1 q2 a ((rf a rv : Cover A If Cf V a))",
        "q1 a rv",
    ),
    (
        COVER_CTX, "M a (tr a i r)",
        "elimCover M q1 q2 a ((tr a i r : Cover A If Cf V a))",
        "q2 a i r (fun b => fun s => elimCover M q1 q2 b (r b s))",
    ),
]


@pytest.mark.parametrize("flags", ALL_FLAG_SETS)
def test_computation_rules_convertible_under_all_flags(flags):
    for items, ty, lhs, rhs in C_RULES:
        chk, ctx, scope = _ctx(items, flags)
        assert conv(chk, ctx, scope, ty, lhs, rhs), (ty, flags)


def test_unit_eliminator_fires_on_neutrals_under_eta_unit():
    chk, ctx, scope = _ctx([("P", "N1 -> U0"), ("u", "P star"), ("z", "N1")],
                           Flags(eta_unit=True))
    assert conv(chk, ctx, scope, "P z", "unitElim P u z", "u")
    chk, ctx, scope = _ctx([("P", "N1 -> U0"), ("u", "P star"), ("z", "N1")])
    t = surface.parse_term("unitElim P u z", scope=scope)
    nf = surface.pretty(chk.norm(ctx, chk.eval_in(ctx, t), chk.infer(ctx, t)))
    assert nf.startswith("unitElim")


# --- misc typing behaviour -------------------------------------------------------


def test_universe_is_not_in_itself():
    chk = Checker()
    ctx = Context()
    with pytest.raises(TypeCheckError):
        chk.check(ctx, surface.parse_term("U0"), chk.eval_in(ctx, surface.parse_term("U0")))


def test_unannotated_lambda_is_not_inferable():
    chk = Checker()
    with pytest.raises(TypeCheckError) as e:
        chk.infer(Context(), surface.parse_term("fun x => x"))
    assert "inferable" in e.value.message


def test_sup_with_wrong_branch_domain_rejected():
    items = [
        ("A", "U0"),
        ("B", "A -> U0"),
        ("a", "A"),
        ("a2", "A"),
        ("f", "B a2 -> W A B"),
    ]
    chk, ctx, scope = _ctx(items)
    ty = chk.eval_in(ctx, surface.parse_term("W A B", scope=scope))
    with pytest.raises(TypeCheckError) as e:
        chk.check(ctx, surface.parse_term("sup a f", scope=scope), ty)
    assert e.value.kind == "mismatch"


def test_identity_and_funext_gating():
    decls, _ = surface.parse_file("postulate funext : N1")
    with pytest.raises(TypeCheckError) as e:
        typecheck.check_declarations(decls, Flags(funext=True))
    assert e.value.kind == "mismatch"  # wrong type for the constant

    src = """
postulate funext : (A : U0) -> (B : A -> U0) -> (f : (x : A) -> B x) ->
  (g : (x : A) -> B x) -> ((x : A) -> Id (B x) (f x) (g x)) ->
  Id ((x : A) -> B x) f g
"""
    decls, _ = surface.parse_file(src)
    typecheck.check_declarations(decls, Flags(funext=True))  # accepted
    with pytest.raises(TypeCheckError) as e:
        typecheck.check_declarations(decls, Flags())
    assert e.value.kind == "flag-required"


def test_other_postulates_rejected():
    decls, _ = surface.parse_file("postulate magic : (A : U0) -> A")
    with pytest.raises(TypeCheckError) as e:
        typecheck.check_declarations(decls, Flags(funext=True))
    assert e.value.kind == "flag-required"


def test_duplicate_names_rejected():
    decls, _ = surface.parse_file("def x : N1 := star\ndef x : N1 := star")
    with pytest.raises(TypeCheckError):
        typecheck.check_declarations(decls, Flags())


def test_empty_declaration_sequence():
    chk = typecheck.check_declarations([], Flags())
    assert chk.globals == {}


def test_flag_monotonicity_of_typability():
    # the eta-requiring eliminator checks under any superset of its flags
    from helpers import load_corpus_file

    decls = load_corpus_file("p41ii.mltt")
    base = Flags(eta_pi=True, eta_sigma=True)
    for flags in ALL_FLAG_SETS:
        if flags.includes(base):
            typecheck.check_declarations(decls, flags)


def test_subject_reduction_on_prelude():
    from helpers import load_corpus_file

    decls = load_corpus_file("prelude.mltt")
    chk = typecheck.check_declarations(decls, Flags())
    ctx = Context()
    for name, entry in list(chk.globals.items()):
        nf = chk.norm(ctx, entry.value, entry.type_value)
        chk.check(ctx, nf, entry.type_value)


# --- sup, dsup and ind infer only through a non-dependent codomain -------------


@pytest.mark.parametrize(
    "items, src, former",
    [
        (W_CTX[:3] + [("F", "A -> U0"), ("g", "(b : A) -> F b")], "sup a g", "sup"),
        (DW_CTX[:6] + [("G", "Br i n -> U0"), ("g", "(b : Br i n) -> G b")], "dsup i n g", "dsup"),
        (
            WP_CTX[:5] + [("G", "(j : I) -> R i n j -> U0"), ("g", "(j : I) -> (r : R i n j) -> G j r")],
            "ind i n g",
            "ind",
        ),
        (WP_CTX[:5] + [("G", "I -> U0"), ("g", "(j : I) -> R i n j -> G j")], "ind i n g", "ind"),
    ],
)
def test_introduction_with_a_dependent_codomain_is_not_inferable(items, src, former):
    chk, ctx, scope = _ctx(items)
    with pytest.raises(TypeCheckError) as e:
        chk.infer(ctx, surface.parse_term(src, scope=scope))
    assert e.value.message == f"{former} is not inferable here; add an annotation"


# --- the memo of closed family formations ----------------------------------------

COVER_OVER = "Cover {} (fun a => N1) (fun a => fun i => fun b => N1) (fun a => {})"


@pytest.fixture
def family_inferences(monkeypatch):
    """Every formation ``Checker.infer_family`` is asked to infer, in order."""
    calls = []
    infer_family = Checker.infer_family

    def counted(self, ctx, t):
        calls.append(t)
        return infer_family(self, ctx, t)

    monkeypatch.setattr(Checker, "infer_family", counted)
    return calls


def test_closed_formation_is_inferred_once_per_checker(family_inferences):
    chk, ctx, scope = _ctx([("A", "U0")])
    src = COVER_OVER.format("N1", "N1")
    first = chk.infer(Context(), surface.parse_term(src))
    # a separately parsed copy, under a binder
    again = chk.infer(ctx, surface.parse_term(src, scope=scope))
    assert again is first
    assert family_inferences == [surface.parse_term(src)]
    Checker().infer(Context(), surface.parse_term(src))
    assert len(family_inferences) == 2


def test_ill_typed_closed_formation_fails_at_every_occurrence():
    chk = Checker()
    bad = COVER_OVER.format("N1", "star")  # the subset is not a predicate
    for term in (surface.parse_term(bad), surface.parse_term(bad)):
        with pytest.raises(TypeCheckError):
            chk.infer(Context(), term)
    with pytest.raises(TypeCheckError):
        check_in(chk, Context(), [], f"({bad}) star -> ({bad}) star", "U0")
    assert chk.family_types == {}


def test_formations_with_free_variables_or_constants_are_not_memoized(family_inferences):
    chk, ctx, scope = _ctx([("A", "U0"), ("P", "N1 -> U0")])
    for src in (COVER_OVER.format("A", "N1"), COVER_OVER.format("N1", "P a"), "W A (fun a => N1)"):
        term = surface.parse_term(src, scope=scope)
        chk.infer(ctx, term)
        chk.infer(ctx, term)
    assert chk.family_types == {}
    chk = checker_for("def C : U0 := N1\n")
    term = surface.parse_term(COVER_OVER.format("C", "N1"))
    chk.infer(Context(), term)
    chk.infer(Context(), term)
    assert chk.family_types == {}
    assert len(family_inferences) == 8


def _formations(t):
    stack, found = [t], []
    while stack:
        u = stack.pop()
        if isinstance(u, (T.W, T.DW, T.WP, T.Cover)):
            found.append(u)
        stack.extend(getattr(u, name) for name, _ in T.CHILDREN[type(u)])
    return found


def test_certificate_check_infers_each_distinct_formation_once(family_inferences):
    ax, v, atom, d = next(x for x in criterion6_derivations() if isinstance(x[3], TrNode))
    proof = surface.parse_term(surface.pretty(extract_proof_term(ax, v, d)))
    ty = surface.parse_term(surface.pretty(cover_type(ax, v, atom)))
    chk, ctx = Checker(Flags()), Context()
    chk.ensure_type(ctx, ty)
    chk.check(ctx, proof, chk.eval_in(ctx, ty))
    occurrences = _formations(ty) + _formations(proof)
    assert all(T.closed(f) for f in occurrences)
    assert len(family_inferences) == len(set(family_inferences)) == len(set(occurrences))
    assert len(occurrences) > len(set(occurrences))
