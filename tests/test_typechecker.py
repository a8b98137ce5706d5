"""Golden accept/reject tests: one positive per formation, introduction and
elimination rule of the four tree-like constructors, one negative per
eliminator, and judgmental computation checks under every flag setting."""

import copy
import pickle

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
    funext_type_reference,
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


# --- rejections: one table over every rule --------------------------------------

GEN_CTX = [
    ("A", "U0"),
    ("x", "A"),
    ("y", "A"),
    ("p", "A * A"),
    ("s", "Sum A A"),
    ("u", "N1"),
    ("z", "N0"),
    ("e", "Id A x x"),
]
W_REJ = W_CTX + [("w", "W A B")]
DW_REJ = DW_CTX + [("j", "I"), ("w", "DW I N Br ar i")]
WP_REJ = WP_CTX + [("j", "I"), ("w", "WP I N R i")]
COVER_REJ = COVER_CTX + [("b", "A"), ("w", "Cover A If Cf V a")]

# (id, context, term, type to check against or None to infer, kind, message,
#  printed expected type or None, printed found type or None).  Eliminators
# get a wrong scrutinee, motive, case and index; introductions a wrong field,
# target type and target index; formations a wrong field; a let a wrong type
# or value.  ``?k`` prints the context variable with de Bruijn index k.
REJECTIONS = [
    ("split-scrutinee", GEN_CTX, "split (fun q => A) (fun a => fun b => a) x", None,
     "mismatch", "split scrutinee is not a pair", None, "?7"),
    ("split-motive", GEN_CTX, "split (fun q => star) (fun a => fun b => a) p", None,
     "motive-shape", "ill-shaped eliminator motive or case: expected a type", None, "N1"),
    ("split-case", GEN_CTX, "split (fun q => A) (fun a => fun b => star) p", None,
     "mismatch", "type mismatch", "?9", "N1"),
    ("case-scrutinee", GEN_CTX, "case (fun q => A) (fun a => a) (fun a => a) x", None,
     "mismatch", "case scrutinee is not a sum", None, "?7"),
    ("case-motive", GEN_CTX, "case (fun q => star) (fun a => a) (fun a => a) s", None,
     "motive-shape", "ill-shaped eliminator motive or case: expected a type", None, "N1"),
    ("case-left", GEN_CTX, "case (fun q => A) (fun a => star) (fun a => a) s", None,
     "mismatch", "type mismatch", "?8", "N1"),
    ("case-right", GEN_CTX, "case (fun q => A) (fun a => a) (fun a => star) s", None,
     "mismatch", "type mismatch", "?8", "N1"),
    ("unitElim-scrutinee", GEN_CTX, "unitElim (fun q => A) x x", None,
     "mismatch", "type mismatch", "N1", "?7"),
    ("unitElim-motive", GEN_CTX, "unitElim (fun q => star) x u", None,
     "motive-shape", "ill-shaped eliminator motive or case: expected a type", None, "N1"),
    ("unitElim-case", GEN_CTX, "unitElim (fun q => A) star u", None,
     "mismatch", "type mismatch", "?7", "N1"),
    # a motive's unbound name is reported as it is, not as an ill shape
    ("unitElim-unbound", GEN_CTX, "unitElim (fun u => nope) star star", None,
     "unbound", "unknown name 'nope'", None, None),
    ("absurd-scrutinee", GEN_CTX, "absurd (fun q => A) u", None,
     "mismatch", "type mismatch", "N0", "N1"),
    ("absurd-motive", GEN_CTX, "absurd (fun q => star) z", None,
     "motive-shape", "ill-shaped eliminator motive or case: expected a type", None, "N1"),
    ("J-scrutinee", GEN_CTX, "J (fun a => fun b => fun q => A) (fun a => a) x x u", None,
     "mismatch", "type mismatch", "Id ?7 ?6 ?6", "N1"),
    ("J-motive", GEN_CTX, "J (fun a => fun b => fun q => star) (fun a => a) x x e", None,
     "motive-shape", "ill-shaped eliminator motive or case: expected a type", None, "N1"),
    ("J-case", GEN_CTX, "J (fun a => fun b => fun q => A) (fun a => star) x x e", None,
     "mismatch", "type mismatch", "?8", "N1"),
    ("elimW-scrutinee", W_REJ, "elimW M d a", None,
     "mismatch", "elimW scrutinee is not a W-type element", None, "?6"),
    ("elimW-motive", W_REJ, "elimW (fun w2 => star) d w", None,
     "motive-shape", "ill-shaped eliminator motive or case: expected a type", None, "N1"),
    ("elimW-case", W_REJ, "elimW M M w", None,
     "mismatch", "type mismatch",
     "(x0 : ?6) -> (x1 : ?5 x0 -> W ?6 ?5) -> ((x2 : ?5 x0) -> ?2 (x1 x2)) -> ?2 (sup x0 x1)",
     "W ?6 ?5 -> U0"),
    ("elimDW-scrutinee", DW_REJ, "elimDW M d i n", None,
     "mismatch", "elimDW scrutinee is not a dependent tree", None, "?9 ?6"),
    ("elimDW-motive", DW_REJ, "elimDW (fun i2 => star) d i w", None,
     "motive-shape", "ill-shaped eliminator motive or case: type mismatch",
     "DW ?11 ?10 ?9 ?8 ?0 -> Type",
     "N1"),
    ("elimDW-case", DW_REJ, "elimDW M M i w", None,
     "mismatch", "type mismatch",
     "(x0 : ?10) -> (x1 : ?9 x0) -> (x2 : (x2 : ?8 x0 x1) -> DW ?10 ?9 ?8 ?7 (?7 x0 x1 x2)) -> "
     "((x3 : ?8 x0 x1) -> ?3 (?7 x0 x1 x3) (x2 x3)) -> ?3 x0 (dsup x0 x1 x2)",
     "(x0 : ?10) -> DW ?10 ?9 ?8 ?7 x0 -> U0"),
    ("elimDW-index", DW_REJ, "elimDW M d j w", None,
     "mismatch", "elimDW index does not match the scrutinee's index", "?6", "?1"),
    ("elimWP-scrutinee", WP_REJ, "elimWP M c i n", None,
     "mismatch", "elimWP scrutinee is not a derivation", None, "?8 ?6"),
    ("elimWP-motive", WP_REJ, "elimWP (fun i2 => star) c i w", None,
     "motive-shape", "ill-shaped eliminator motive or case: type mismatch",
     "WP ?10 ?9 ?8 ?0 -> Type",
     "N1"),
    ("elimWP-case", WP_REJ, "elimWP M M i w", None,
     "mismatch", "type mismatch",
     "(x0 : ?9) -> (x1 : ?8 x0) -> (x2 : (x2 : ?9) -> ?7 x0 x1 x2 -> WP ?9 ?8 ?7 x2) -> "
     "((x3 : ?9) -> (x4 : ?7 x0 x1 x3) -> ?3 x3 (x2 x3 x4)) -> ?3 x0 (ind x0 x1 x2)",
     "(x0 : ?9) -> WP ?9 ?8 ?7 x0 -> U0"),
    ("elimWP-index", WP_REJ, "elimWP M c j w", None,
     "mismatch", "elimWP index does not match the scrutinee's index", "?6", "?1"),
    ("elimCover-scrutinee", COVER_REJ, "elimCover M q1 q2 a rv", None,
     "mismatch", "elimCover scrutinee is not a cover proof", None, "?9 ?8"),
    ("elimCover-motive", COVER_REJ, "elimCover (fun a2 => star) q1 q2 a w", None,
     "motive-shape", "ill-shaped eliminator motive or case: type mismatch",
     "Cover ?13 ?12 ?11 ?10 ?0 -> Type",
     "N1"),
    ("elimCover-rf-case", COVER_REJ, "elimCover M q2 q2 a w", None,
     "mismatch", "type mismatch",
     "(x0 : ?12) -> (x1 : ?9 x0) -> ?4 x0 (rf x0 x1)",
     "(x0 : ?12) -> (x1 : ?11 x0) -> (x2 : (x2 : ?12) -> ?10 x0 x1 x2 -> "
     "Cover ?12 ?11 ?10 ?9 x2) -> ((x3 : ?12) -> (x4 : ?10 x0 x1 x3) -> ?4 x3 (x2 x3 x4)) -> ?4 x0 (tr x0 x1 x2)"),
    ("elimCover-tr-case", COVER_REJ, "elimCover M q1 q1 a w", None,
     "mismatch", "type mismatch",
     "(x0 : ?12) -> (x1 : ?11 x0) -> (x2 : (x2 : ?12) -> ?10 x0 x1 x2 -> "
     "Cover ?12 ?11 ?10 ?9 x2) -> ((x3 : ?12) -> (x4 : ?10 x0 x1 x3) -> ?4 x3 (x2 x3 x4)) -> ?4 x0 (tr x0 x1 x2)",
     "(x0 : ?12) -> (x1 : ?9 x0) -> ?4 x0 (rf x0 x1)"),
    ("elimCover-index", COVER_REJ, "elimCover M q1 q2 b w", None,
     "mismatch", "elimCover element does not match the scrutinee's element", "?8", "?1"),
    ("fun-target", GEN_CTX, "fun q => q", "A",
     "mismatch", "lambda checked against a non-function type", "?7", None),
    ("pair-field", GEN_CTX, "(x , star)", "A * A",
     "mismatch", "type mismatch", "?7", "N1"),
    ("pair-target", GEN_CTX, "(x , x)", "A",
     "mismatch", "pair checked against a non-pair type", "?7", None),
    ("inl-field", GEN_CTX, "inl star", "Sum A A",
     "mismatch", "type mismatch", "?7", "N1"),
    ("inl-target", GEN_CTX, "inl x", "A",
     "mismatch", "injection checked against a non-sum type", "?7", None),
    ("inr-field", GEN_CTX, "inr star", "Sum A A",
     "mismatch", "type mismatch", "?7", "N1"),
    ("inr-target", GEN_CTX, "inr x", "A",
     "mismatch", "injection checked against a non-sum type", "?7", None),
    ("refl-field", GEN_CTX, "refl star", "Id A x x",
     "mismatch", "type mismatch", "?7", "N1"),
    ("refl-endpoint", GEN_CTX, "refl y", "Id A x x",
     "mismatch", "refl endpoint differs from the identity type's endpoints", "?6", "?5"),
    ("refl-target", GEN_CTX, "refl x", "A",
     "mismatch", "refl checked against a non-identity type", "?7", None),
    ("sup-label", W_REJ, "sup f f", "W A B",
     "mismatch", "type mismatch", "?6", "?5 ?4 -> W ?6 ?5"),
    ("sup-branch", W_REJ, "sup a a", "W A B",
     "mismatch", "type mismatch", "?5 ?4 -> W ?6 ?5", "?6"),
    ("sup-target", W_REJ, "sup a f", "A",
     "mismatch", "sup checked against a non-W type", "?6", None),
    ("dsup-name", DW_REJ, "dsup i i f", "DW I N Br ar i",
     "mismatch", "type mismatch", "?9 ?6", "?10"),
    ("dsup-branch", DW_REJ, "dsup i n n", "DW I N Br ar i",
     "mismatch", "type mismatch", "(x0 : ?8 ?6 ?5) -> DW ?10 ?9 ?8 ?7 (?7 ?6 ?5 x0)", "?9 ?6"),
    ("dsup-index", DW_REJ, "dsup j n f", "DW I N Br ar i",
     "mismatch", "dsup index differs from the family index", "?6", "?1"),
    ("dsup-target", DW_REJ, "dsup i n f", "I",
     "mismatch", "dsup checked against a non-DW type", "?10", None),
    ("ind-name", WP_REJ, "ind i i f", "WP I N R i",
     "mismatch", "type mismatch", "?8 ?6", "?9"),
    ("ind-premises", WP_REJ, "ind i n n", "WP I N R i",
     "mismatch", "type mismatch", "(x0 : ?9) -> ?7 ?6 ?5 x0 -> WP ?9 ?8 ?7 x0", "?8 ?6"),
    ("ind-index", WP_REJ, "ind j n f", "WP I N R i",
     "mismatch", "ind index differs from the family index", "?6", "?1"),
    ("ind-target", WP_REJ, "ind i n f", "I",
     "mismatch", "ind checked against a non-WP type", "?9", None),
    ("rf-membership", COVER_REJ, "rf a a", "Cover A If Cf V a",
     "mismatch", "type mismatch", "?9 ?8", "?12"),
    ("rf-element", COVER_REJ, "rf b rv", "Cover A If Cf V a",
     "mismatch", "rf element differs from the cover's element", "?8", "?1"),
    ("rf-target", COVER_REJ, "rf a rv", "A",
     "mismatch", "rf checked against a non-cover type", "?12", None),
    ("tr-label", COVER_REJ, "tr a a r", "Cover A If Cf V a",
     "mismatch", "type mismatch", "?11 ?8", "?12"),
    ("tr-premises", COVER_REJ, "tr a i i", "Cover A If Cf V a",
     "mismatch", "type mismatch",
     "(x0 : ?12) -> ?10 ?8 ?6 x0 -> Cover ?12 ?11 ?10 ?9 x0",
     "?11 ?8"),
    ("tr-element", COVER_REJ, "tr b i r", "Cover A If Cf V a",
     "mismatch", "tr element differs from the cover's element", "?8", "?1"),
    ("tr-target", COVER_REJ, "tr a i r", "A",
     "mismatch", "tr checked against a non-cover type", "?12", None),
    ("W-label", W_REJ, "W a B", None,
     "not-a-universe", "expected a type", None, "?6"),
    ("W-branch", W_REJ, "W A A", None,
     "mismatch", "type mismatch", "?6 -> U0", "U0"),
    ("DW-index", DW_REJ, "DW i N Br ar", None,
     "not-a-universe", "expected a type", None, "?10"),
    ("DW-names", DW_REJ, "DW I I Br ar", None,
     "mismatch", "type mismatch", "?10 -> U0", "U0"),
    ("DW-branch", DW_REJ, "DW I N N ar", None,
     "mismatch", "type mismatch", "(x0 : ?10) -> ?9 x0 -> U0", "?10 -> U0"),
    ("DW-arity", DW_REJ, "DW I N Br Br", None,
     "mismatch", "type mismatch",
     "(x0 : ?10) -> (x1 : ?9 x0) -> ?8 x0 x1 -> ?10",
     "(x0 : ?10) -> ?9 x0 -> U0"),
    ("WP-names", WP_REJ, "WP I I R", None,
     "mismatch", "type mismatch", "?9 -> U0", "U0"),
    ("WP-rules", WP_REJ, "WP I N N", None,
     "mismatch", "type mismatch", "(x0 : ?9) -> ?8 x0 -> ?9 -> U0", "?9 -> U0"),
    ("Cover-carrier", COVER_REJ, "Cover a If Cf V", None,
     "not-a-universe", "expected a type", None, "?12"),
    ("Cover-labels", COVER_REJ, "Cover A A Cf V", None,
     "mismatch", "type mismatch", "?12 -> U0", "U0"),
    ("Cover-axioms", COVER_REJ, "Cover A If If V", None,
     "mismatch", "type mismatch", "(x0 : ?12) -> ?11 x0 -> ?12 -> U0", "?12 -> U0"),
    ("Cover-subset", COVER_REJ, "Cover A If Cf Cf", None,
     "mismatch", "type mismatch", "?12 -> U0", "(x0 : ?12) -> ?11 x0 -> ?12 -> U0"),
    ("Sum-left", GEN_CTX, "Sum x A", None,
     "not-a-universe", "expected a type", None, "?7"),
    ("Sum-right", GEN_CTX, "Sum A x", None,
     "not-a-universe", "expected a type", None, "?7"),
    ("Id-type", GEN_CTX, "Id x x x", None,
     "not-a-universe", "expected a type", None, "?7"),
    ("Id-lhs", GEN_CTX, "Id A star x", None,
     "mismatch", "type mismatch", "?7", "N1"),
    ("Id-rhs", GEN_CTX, "Id A x star", None,
     "mismatch", "type mismatch", "?7", "N1"),
    ("let-type", GEN_CTX, "let y : x := x in y", None,
     "not-a-universe", "expected a type", None, "?7"),
    ("let-value", GEN_CTX, "let y : A := star in y", None,
     "mismatch", "type mismatch", "?7", "N1"),

]


@pytest.mark.parametrize(
    "items, src, target, kind, message, expected, found",
    [pytest.param(*row[1:], id=row[0]) for row in REJECTIONS],
)
def test_rejections(items, src, target, kind, message, expected, found):
    chk, ctx, scope = _ctx(items)
    with pytest.raises(TypeCheckError) as e:
        if target is None:
            chk.infer(ctx, surface.parse_term(src, scope=scope))
        else:
            check_in(chk, ctx, scope, src, target)
    printed = [t if t is None else surface.pretty(t) for t in (e.value.expected, e.value.found)]
    assert (e.value.kind, e.value.message, *printed) == (kind, message, expected, found)


def test_a_rejection_built_from_keywords_survives_a_copy_and_a_pickle():
    """``args`` holds all five fields, however they were passed, so a copy
    or an unpickled rejection prints the same report."""
    e = TypeCheckError(kind="unbound", message="unknown name 'x'", found=T.Var(0), location="f:1")
    assert e.args == ("unbound", "unknown name 'x'", None, T.Var(0), "f:1")
    assert {str(copy.copy(e)), str(pickle.loads(pickle.dumps(e)))} == {str(e)}


@pytest.mark.parametrize("flags", [Flags(), Flags(eta_pi=True)], ids=["base", "eta_pi"])
def test_a_lambda_and_a_family_formation_are_not_convertible(flags):
    # the two spines differ in a frame argument at ``N1 -> U0``, which a
    # lambda and a bare family formation both inhabit: a type error
    chk, ctx, scope = _ctx([("f", "(N1 -> U0) -> N1")], flags)
    dw = "DW N1 (fun i => N1) (fun i => fun n => N0) (fun i => fun n => fun b => i)"
    with pytest.raises(TypeCheckError) as e:
        check_in(chk, ctx, scope, "refl (f (fun i => N1))", f"Id N1 (f (fun i => N1)) (f ({dw}))")
    printed = [surface.pretty(t) for t in (e.value.expected, e.value.found)]
    assert (e.value.kind, e.value.message, *printed) == (
        "mismatch", "refl endpoint differs from the identity type's endpoints",
        "?0 (fun x0 => N1)", "?0 (fun x0 => N1)",
    )


# --- inference of every term class -----------------------------------------------

# What ``infer`` gives for a term of each class whose fields are all ``Var(0)``
# (``Var(0)`` itself, and ``Const("c")`` for a constant) in a context of one
# variable of type N1: the inferred type, or the rejection's kind, message,
# expected and found.
INFERENCES = [
    ("Ann", ("not-a-universe", "expected a type", None, "N1")),
    ("App", ("not-a-function", "application head does not have a function type", None, "N1")),
    ("Const", ("unbound", "unknown name 'c'", None, None)),
    ("Cover", ("not-a-universe", "expected a type", None, "N1")),
    ("CoverElim", ("mismatch", "elimCover scrutinee is not a cover proof", None, "N1")),
    ("DSup", ("mismatch", "dsup is not inferable here; add an annotation", None, None)),
    ("DW", ("not-a-universe", "expected a type", None, "N1")),
    ("DWElim", ("mismatch", "elimDW scrutinee is not a dependent tree", None, "N1")),
    ("Empty", "U0"),
    ("EmptyElim", ("mismatch", "type mismatch", "N0", "N1")),
    ("Id", ("not-a-universe", "expected a type", None, "N1")),
    ("Ind", ("mismatch", "ind is not inferable here; add an annotation", None, None)),
    ("Inl", ("mismatch", "an injection is not inferable", None, None)),
    ("Inr", ("mismatch", "an injection is not inferable", None, None)),
    ("J", ("mismatch", "type mismatch", "Id N1 ?0 ?0", "N1")),
    ("Lam", ("mismatch", "an unannotated lambda is not inferable", None, None)),
    ("Let", ("not-a-universe", "expected a type", None, "N1")),
    ("Pair", ("mismatch", "a bare pair is not inferable", None, None)),
    ("Pi", ("not-a-universe", "expected a type", None, "N1")),
    ("Proj1", ("mismatch", "fst applied to a non-pair type", None, "N1")),
    ("Proj2", ("mismatch", "snd applied to a non-pair type", None, "N1")),
    ("Refl", ("mismatch", "refl is not inferable", None, None)),
    ("Rf", ("mismatch", "cover introductions are not inferable", None, None)),
    ("SigElim", ("mismatch", "split scrutinee is not a pair", None, "N1")),
    ("Sigma", ("not-a-universe", "expected a type", None, "N1")),
    ("Star", "N1"),
    ("Sum", ("not-a-universe", "expected a type", None, "N1")),
    ("SumElim", ("mismatch", "case scrutinee is not a sum", None, "N1")),
    ("Sup", ("mismatch", "sup is not inferable here; add an annotation", None, None)),
    ("Tr", ("mismatch", "cover introductions are not inferable", None, None)),
    ("TypeSort", ("not-a-universe", "the large sort is not a term", None, None)),
    ("Unit", "U0"),
    (
        "UnitElim",
        ("motive-shape", "ill-shaped eliminator motive or case: type mismatch", "N1 -> Type", "N1"),
    ),
    ("Univ", "Type"),
    ("Var", "N1"),
    ("W", ("not-a-universe", "expected a type", None, "N1")),
    ("WElim", ("mismatch", "elimW scrutinee is not a W-type element", None, "N1")),
    ("WP", ("not-a-universe", "expected a type", None, "N1")),
    ("WPElim", ("mismatch", "elimWP scrutinee is not a derivation", None, "N1")),
]


def test_the_inference_table_lists_every_term_class():
    assert sorted(name for name, _ in INFERENCES) == sorted(cls.__name__ for cls in T.CHILDREN)


@pytest.mark.parametrize("name, result", INFERENCES, ids=[name for name, _ in INFERENCES])
def test_inference_of_every_term_class(name, result):
    cls = getattr(T, name)
    if cls is T.Var or cls is T.Const:
        t = T.Var(0) if cls is T.Var else T.Const("c")
    else:
        t = cls(*[T.Var(0)] * len(cls.__match_args__))
    chk = Checker()
    ctx = Context().extend(chk.eval_in(Context(), T.Unit()))
    if isinstance(result, str):
        assert surface.pretty(chk.norm_type(ctx, chk.infer(ctx, t))) == result
        return
    with pytest.raises(TypeCheckError) as e:
        chk.infer(ctx, t)
    printed = [x if x is None else surface.pretty(x) for x in (e.value.expected, e.value.found)]
    assert (e.value.kind, e.value.message, *printed) == result


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


def test_the_funext_type_is_parsed_from_its_text_once():
    assert typecheck.funext_type() == funext_type_reference()
    assert typecheck.funext_type() is typecheck.funext_type()


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


# over N1 under eta_unit an index reads back as star, so no codomain depends on
# a subtree's position
UNIT_DW_CTX = [
    ("N", "N1 -> U0"),
    ("Br", "(i : N1) -> N i -> U0"),
    ("ar", "(i : N1) -> (n : N i) -> Br i n -> N1"),
    ("n", "N star"),
    ("f", "(b : Br star n) -> DW N1 N Br ar (ar star n b)"),
]
UNIT_WP_CTX = [
    ("N", "N1 -> U0"),
    ("R", "(i : N1) -> N i -> N1 -> U0"),
    ("n", "N star"),
    ("f", "(j : N1) -> R star n j -> WP N1 N R j"),
]
UNIT_COVER_CTX = [
    ("If", "N1 -> U0"),
    ("Cf", "(a : N1) -> If a -> N1 -> U0"),
    ("V", "N1 -> U0"),
    ("i", "If star"),
    ("r", "(b : N1) -> Cf star i b -> Cover N1 If Cf V b"),
]


@pytest.mark.parametrize(
    "items, src, expected",
    [
        (UNIT_DW_CTX, "dsup star n f", "DW N1 N Br ar star"),
        (UNIT_WP_CTX, "ind star n f", "WP N1 N R star"),
        (UNIT_COVER_CTX, "tr star i r", None),
    ],
)
def test_indexed_trees_infer_through_a_non_dependent_codomain(items, src, expected):
    chk, ctx, scope = _ctx(items, Flags(eta_unit=True))
    t = surface.parse_term(src, scope=scope)
    if expected is None:
        # a cover proof is never inferred
        with pytest.raises(TypeCheckError) as e:
            chk.infer(ctx, t)
        assert e.value.message == "cover introductions are not inferable"
        return
    want = chk.eval_in(ctx, surface.parse_term(expected, scope=scope))
    assert chk.norm_type(ctx, chk.infer(ctx, t)) == chk.norm_type(ctx, want)


ELIM_W = "elimW (fun w => N1) (fun a => fun f => fun g => star) ({})"


@pytest.mark.parametrize(
    "src, kind, message, expected, found",
    [
        (ELIM_W.format("sup star (h star)"), "mismatch", "type mismatch", "N0", "N1"),
        ("sup star nope", "unbound", "unknown name 'nope'", None, None),
        (
            "sup star (fun x => x)",
            "mismatch",
            "sup is not inferable here; add an annotation",
            None,
            None,
        ),
    ],
)
def test_a_subtree_function_is_rejected_for_its_own_error(src, kind, message, expected, found):
    """Only a subtree function that never infers makes a tree "not
    inferable"; any other rejection of it is reported as it is."""
    chk, ctx, scope = _ctx([("h", "N0 -> W N1 (fun u => N0)")])
    with pytest.raises(TypeCheckError) as e:
        chk.infer(ctx, surface.parse_term(src, scope=scope))
    printed = [t if t is None else surface.pretty(t) for t in (e.value.expected, e.value.found)]
    assert (e.value.kind, e.value.message, *printed) == (kind, message, expected, found)


# --- family formations ----------------------------------------------------------

COVER_OVER = "Cover {} (fun a => N1) (fun a => fun i => fun b => N1) (fun a => {})"


@pytest.fixture
def family_inferences(monkeypatch):
    """Every formation of a W type or of a DW, WP or Cover family that
    ``Checker.infer_formation`` is asked to infer, in order."""
    calls = []
    infer_formation = Checker.infer_formation

    def counted(self, ctx, t):
        if isinstance(t, (T.W, T.DW, T.WP, T.Cover)):
            calls.append(t)
        return infer_formation(self, ctx, t)

    monkeypatch.setattr(Checker, "infer_formation", counted)
    return calls


def test_ill_typed_closed_formation_fails_at_every_occurrence():
    chk = Checker()
    bad = COVER_OVER.format("N1", "star")  # the subset is not a predicate
    for term in (surface.parse_term(bad), surface.parse_term(bad)):
        with pytest.raises(TypeCheckError):
            chk.infer(Context(), term)
    with pytest.raises(TypeCheckError):
        check_in(chk, Context(), [], f"({bad}) star -> ({bad}) star", "U0")


def test_a_let_bound_certificate_infers_its_cover_formation_once(family_inferences):
    """Once, in the type's ``let`` that binds the instance's ``Cover``
    family: the proof's equal ``let``, met in the same context, is not
    checked again."""
    ax, v, atom, d = next(x for x in criterion6_derivations() if isinstance(x[3], TrNode))
    proof = surface.parse_term(surface.pretty(extract_proof_term(ax, v, d)))
    ty = surface.parse_term(surface.pretty(cover_type(ax, v, atom)))
    chk, ctx = Checker(Flags()), Context()
    chk.ensure_type(ctx, ty)
    chk.check(ctx, proof, chk.eval_in(ctx, ty))
    cover_family = T.Cover(T.Var(3), T.Var(2), T.Var(1), T.Var(0))
    assert family_inferences == [cover_family]


# --- let -------------------------------------------------------------------------


def test_a_let_definition_is_transparent():
    chk = Checker()
    t = surface.parse_term("let x : U0 := N1 in (star : x)")
    # the body's type is x, which is N1 itself
    assert surface.pretty(typecheck.infer_type(chk, t)) == "N1"
    assert surface.pretty(typecheck.normalize(chk, t)) == "star"
    assert typecheck.convertible(chk, surface.parse_term("N1"), t, surface.parse_term("star"))
    # an opaque variable of type U0 would not do
    with pytest.raises(TypeCheckError):
        chk.infer(Context(), surface.parse_term("(fun x => (star : x) : U0 -> N1)"))


def test_let_checks_and_infers():
    chk = Checker()
    # checking position: the body is a lambda, which checks but never infers
    check_in(chk, Context(), [], "let x : U0 := N1 in fun y => (y : x)", "N1 -> N1")
    check_in(chk, Context(), [], "let y : N1 := star in refl y", "Id N1 star star")
    # inferring position: the head of an application
    t = surface.parse_term("(let f : N1 -> N1 := fun y => y in f) star")
    assert surface.pretty(typecheck.infer_type(chk, t)) == "N1"
    # a let in a type, and a let that shadows a variable
    chk, ctx, scope = _ctx([("A", "U0"), ("a", "A")])
    check_in(chk, ctx, scope, "a", "let A : U0 := A in A")
    check_in(chk, ctx, scope, "let a : N1 := star in a", "N1")
    with pytest.raises(TypeCheckError):
        check_in(chk, ctx, scope, "let a : N1 := star in a", "A")


# a checker remembers the lets it has checked, per context object: each test
# below fails if the memo ignores what it names


def test_a_let_checked_under_one_checker_is_checked_again_under_another():
    """The memo belongs to one checker, so to one set of flags."""
    ctx, scope = context_of(Checker(), [("x", "N1")])
    src = "let p : Id N1 x star := refl star in star"
    check_in(Checker(Flags(eta_unit=True)), ctx, scope, src, "N1")
    with pytest.raises(TypeCheckError):
        check_in(Checker(), ctx, scope, src, "N1")


def test_a_rejected_let_is_rejected_every_time():
    chk, ctx = Checker(), Context()
    t = surface.parse_term("let y : N1 := N1 in y")
    for _ in range(2):
        with pytest.raises(TypeCheckError):
            chk.infer(ctx, t)


def test_a_let_is_remembered_by_its_type_as_well_as_its_value():
    chk, ctx = Checker(), Context()
    chk.infer(ctx, surface.parse_term("let f : N1 -> N1 := fun y => y in f star"))
    with pytest.raises(TypeCheckError):
        chk.infer(ctx, surface.parse_term("let f : N0 -> N0 := fun y => y in f star"))


def test_new_globals_make_a_checker_check_its_lets_again():
    chk, ctx = Checker(), Context()
    t = surface.parse_term("let y : N1 := c in y")
    chk.use_globals(checker_for("def c : N1 := star").globals)
    chk.infer(ctx, t)
    chk.use_globals(checker_for("def c : U0 := N1").globals)
    with pytest.raises(TypeCheckError):
        chk.infer(ctx, t)


def test_a_checker_forgets_the_lets_of_the_declarations_before():
    """Each declaration has a root context of its own, so its lets are of no
    use to the next one."""
    chk = Checker()
    decls, _ = surface.parse_file(
        "\n".join(f"def d{k} : N1 -> N1 := fun y => let x : N1 := y in x" for k in range(50))
    )
    for d in decls:
        typecheck.check_declarations([d], checker=chk)
    assert len(chk.lets) <= 1


# --- a type instantiated at a checked subterm ----------------------------------------
#
# The checker evaluates an argument, a pair's first component or a
# scrutinee only when the type it instantiates reads it; each of these types
# does, so a checker that put a fresh variable in its place would reject them.


ID_STAR = "Id N1 star star"


@pytest.mark.parametrize(
    "src, ty",
    [
        ("(fun b => refl b : (b : N1) -> Id N1 b b) star", ID_STAR),
        # the codomain reads its variable under a binder of its own
        ("(fun b => fun u => refl b : (b : N1) -> N1 -> Id N1 b b) star star", ID_STAR),
        ("snd ((star, refl star) : (b : N1) * Id N1 b b)", ID_STAR),
        ("unitElim (fun u => Id N1 u u) (refl star) star", ID_STAR),
        # J's motive reads the proof after the endpoints
        (
            "J (fun x => fun y => fun p => Id (Id N1 x y) p p) (fun x => refl (refl x))"
            " star star (refl star)",
            "Id (Id N1 star star) (refl star) (refl star)",
        ),
    ],
)
def test_a_type_that_reads_a_checked_subterm_gets_its_value(src, ty):
    chk = checker_for(f"def p : {ty} := {src}")
    assert surface.pretty(typecheck.infer_type(chk, surface.parse_term(src))) == ty
