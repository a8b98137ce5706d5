"""Value-level conversion against its oracle, readback-and-compare."""

import collections
import contextlib
import functools

import hypothesis
import hypothesis.strategies as st
import pytest

from covertt import surface, typecheck
from covertt import semantics as S
from covertt import terms as T
from covertt.encodings import check_corpus
from covertt.semantics import V_TYPE, Evaluator
from covertt.terms import Flags

from helpers import (
    ALL_FLAG_SETS,
    CORPUS,
    HandWrittenEvaluator,
    checker_for,
    context_of,
    load_corpus_file,
    readback_equal,
    same_whole_environment,
)


@pytest.mark.parametrize("flags", ALL_FLAG_SETS, ids=str)
def test_corpus_conversions_agree_with_readback(flags, monkeypatch):
    """Replay every top-level conversion the corpus makes through the oracle."""
    seen = {"calls": 0, "active": False}
    disagreements = []

    def replay(fn):
        def wrapper(ev, a, b, *rest):
            if seen["active"]:
                return fn(ev, a, b, *rest)
            seen["active"] = True
            try:
                verdict = fn(ev, a, b, *rest)
            finally:
                seen["active"] = False
            seen["calls"] += 1
            ty = rest[0] if len(rest) == 2 else V_TYPE
            steps = ev.steps
            if verdict != readback_equal(ev, a, b, ty, rest[-1]):
                disagreements.append((verdict, ev.readback(a, ty, rest[-1])))
            ev.steps = steps  # the oracle's work does not count against the budget
            return verdict

        return wrapper

    monkeypatch.setattr(Evaluator, "conv", replay(Evaluator.conv))
    monkeypatch.setattr(Evaluator, "conv_type", replay(Evaluator.conv_type))
    check_corpus(flags)
    assert seen["calls"] > 0
    assert disagreements == []


def test_cover_type_conversion_needs_no_readback(monkeypatch):
    """Two separately evaluated copies of a large Cover statement from p51i
    are decided on values alone: no readback, and a small fraction of the
    oracle's evaluation work, because equal closures are not applied."""
    chk = typecheck.check_declarations(
        load_corpus_file("p51i.mltt"), Flags(eta_pi=True, eta_sigma=True, funext=True)
    )
    ctx, scope = context_of(chk, [
        ("A", "U0"),
        ("If", "A -> U0"),
        ("Cf", "(a : A) -> If a -> A -> U0"),
        ("V", "A -> U0"),
        ("a", "A"),
        ("p", "Cover A If Cf V a"),
    ])
    ty = surface.parse_term(
        "Id (Cover A If Cf V a) (e2c A If Cf V a (c2e A If Cf V a p)) p", scope=scope
    )
    lhs, rhs = chk.eval_in(ctx, ty), chk.eval_in(ctx, ty)
    assert lhs is not rhs
    calls = {"readback": 0, "readback_type": 0, "eval": 0}
    for name in calls:
        orig = getattr(Evaluator, name)

        def counting(ev, *args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(ev, *args)

        monkeypatch.setattr(Evaluator, name, counting)
    assert chk.ev.conv_type(lhs, rhs, ctx.depth)
    conv_evals = calls["eval"]
    assert calls == {"readback": 0, "readback_type": 0, "eval": conv_evals}
    calls["eval"] = 0
    assert readback_equal(chk.ev, lhs, rhs, V_TYPE, ctx.depth)
    assert calls["readback_type"] > 0
    assert conv_evals * 10 < calls["eval"]


@pytest.mark.parametrize("evaluator", [Evaluator, HandWrittenEvaluator], ids=lambda c: c.__name__)
@pytest.mark.parametrize("flags", ALL_FLAG_SETS, ids=str)
def test_j_reads_its_endpoints_from_its_proofs_type(flags, evaluator):
    """Two J's over one neutral proof, whose endpoints differ in syntax but
    are convertible, convert and have one normal form: the one with the
    endpoints of the proof's type."""
    chk = checker_for("", flags, evaluator)
    ctx, scope = context_of(chk, [("A", "U0"), ("x", "A"), ("p", "Id (A * A) (x, x) (x, x)")])
    j = "J (fun u => fun v => fun r => A) (fun u => fst u) ({}) ((x, x) : A * A) p"
    lhs = j.format("(x, x) : A * A")
    rhs = j.format("(fst ((x, x) : A * A), x) : A * A")
    nf = "J (fun u => fun v => fun r => A) (fun u => fst u) (x, x) (x, x) p"
    a, lhs, rhs, nf = (surface.parse_term(t, scope=scope) for t in ("A", lhs, rhs, nf))
    assert typecheck.convertible(chk, a, lhs, rhs, ctx)
    assert {chk.norm(ctx, chk.eval_in(ctx, t), chk.eval_in(ctx, a)) for t in (lhs, rhs)} == {nf}


# --- random pairs of terms over the prelude ------------------------------------------

PRELUDE_CONTEXT = [
    ("x", "N1"),
    ("y", "N1"),
    ("n", "Sum N1 N1"),
    ("f", "N1 -> N1"),
    ("h", "N1 -> N1 -> N1"),
    ("g", "Sum N1 N1 -> N1"),
    ("k", "(N1 -> N1) -> Sum N1 N1"),
    ("s", "N1 * N1"),
    ("q", "Id N1 x y"),
]

TYPES = ["N1", "Sum N1 N1", "N1 -> N1", "N1 * N1", "Id N1 x y", "Id N1 star star"]


@functools.lru_cache(maxsize=None)
def terms(ty: str, depth: int, local: tuple = ()) -> st.SearchStrategy:
    """Source text of terms of type ``ty`` that check with every flag off.
    ``local`` names the bound variables of type N1 in scope."""
    sub = functools.partial(terms, depth=depth - 1, local=local)
    binder = f"z{len(local)}"
    under = functools.partial(terms, depth=depth - 1, local=local + (binder,))
    leaves = {
        "N1": ["star", "x", "y", "fst s", "snd s", *local],
        "Sum N1 N1": ["n", "inl star", "inr x"],
        "N1 -> N1": ["f", f"fun {binder} => {binder}", f"fun {binder} => star"],
        "N1 * N1": ["s", "( fst s , snd s )"],
        "Id N1 x y": [
            "q",
            "sym N1 y x (sym N1 x y q)",
            "trans N1 x y y q (refl y)",
            "J (fun u => fun v => fun r => Id N1 u v) (fun u => refl u) x y q",
        ],
        "Id N1 star star": [
            "refl star",
            "unitEta star",
            "sym N1 star star (refl star)",
            "cong N1 N1 (fun u => star) x y q",
        ],
    }[ty]
    if depth <= 0:
        return st.sampled_from(leaves)
    steps = {
        "N1": [
            sub("N1").map(lambda t: f"f ({t})"),
            st.tuples(sub("N1"), sub("N1")).map(lambda p: f"h ({p[0]}) ({p[1]})"),
            sub("Sum N1 N1").map(lambda t: f"g ({t})"),
            sub("N1 * N1").map(lambda t: f"fst ({t} : N1 * N1)"),
            sub("N1 * N1").map(lambda t: f"snd ({t} : N1 * N1)"),
            st.tuples(sub("N1 -> N1"), sub("N1")).map(
                lambda p: f"(({p[0]} : N1 -> N1)) ({p[1]})"
            ),
            st.tuples(sub("N1"), sub("N1")).map(
                lambda p: f"unitElim (fun z => N1) ({p[0]}) ({p[1]} : N1)"
            ),
            st.tuples(under("N1"), under("N1"), sub("Sum N1 N1")).map(
                lambda p: f"case (fun z => N1) (fun {binder} => {p[0]}) "
                f"(fun {binder} => {p[1]}) ({p[2]} : Sum N1 N1)"
            ),
        ],
        "Sum N1 N1": [
            sub("N1").map(lambda t: f"inl ({t})"),
            sub("N1").map(lambda t: f"inr ({t})"),
            sub("N1 -> N1").map(lambda t: f"k ({t})"),
            sub("Sum N1 N1").map(
                lambda t: f"case (fun z => Sum N1 N1) (fun u => inr u) (fun u => inl u) ({t} : Sum N1 N1)"
            ),
        ],
        "N1 -> N1": [under("N1").map(lambda t: f"fun {binder} => {t}")],
        "N1 * N1": [st.tuples(sub("N1"), sub("N1")).map(lambda p: f"( {p[0]} , {p[1]} )")],
        "Id N1 x y": [sub("Id N1 x y").map(lambda t: f"sym N1 y x (sym N1 x y ({t}))")],
        "Id N1 star star": [
            st.tuples(sub("Id N1 star star"), sub("Id N1 star star")).map(
                lambda p: f"trans N1 star star star ({p[0]}) ({p[1]})"
            )
        ],
    }[ty]
    return st.one_of(st.sampled_from(leaves), *steps)


@st.composite
def term_pairs(draw):
    ty = draw(st.sampled_from(TYPES))
    return ty, draw(terms(ty, 3)), draw(terms(ty, 3))


@functools.lru_cache(maxsize=None)
def _prelude_checker(flags: Flags, evaluator=Evaluator):
    with open(f"{CORPUS}/prelude.mltt", encoding="utf-8") as fh:
        chk = checker_for(fh.read(), flags, evaluator)
    ctx, scope = context_of(chk, PRELUDE_CONTEXT)
    return chk, ctx, scope


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(flags=st.sampled_from(ALL_FLAG_SETS), pair=term_pairs())
def test_random_prelude_pairs_agree_with_readback(flags, pair):
    ty_src, lhs_src, rhs_src = pair
    chk, ctx, scope = _prelude_checker(flags)
    tyv = chk.eval_in(ctx, surface.parse_term(ty_src, scope=scope))
    values = []
    for src in (lhs_src, rhs_src):
        t = surface.parse_term(src, scope=scope)
        chk.check(ctx, t, tyv)
        values.append(chk.eval_in(ctx, t))
    verdict = chk.ev.conv(values[0], values[1], tyv, ctx.depth)
    assert verdict == readback_equal(chk.ev, values[0], values[1], tyv, ctx.depth)
    hypothesis.event(f"convertible: {verdict}")


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(flags=st.sampled_from(ALL_FLAG_SETS), pair=term_pairs())
def test_random_prelude_pairs_evaluate_as_the_hand_written_rules(flags, pair):
    """Checking, evaluating, converting and reading back both terms take
    the same steps and give the same results with either evaluator."""
    ty_src, *srcs = pair
    outcomes = []
    for evaluator in (Evaluator, HandWrittenEvaluator):
        chk, ctx, scope = _prelude_checker(flags, evaluator)
        steps = chk.ev.steps
        tyv = chk.eval_in(ctx, surface.parse_term(ty_src, scope=scope))
        values = []
        for src in srcs:
            t = surface.parse_term(src, scope=scope)
            chk.check(ctx, t, tyv)
            values.append(chk.eval_in(ctx, t))
        verdict = chk.ev.conv(values[0], values[1], tyv, ctx.depth)
        forms = [chk.ev.readback(v, tyv, ctx.depth) for v in values]
        outcomes.append((verdict, forms, chk.ev.steps - steps))
    assert outcomes[0] == outcomes[1]


UNEQUAL_WITHOUT_FLAGS = [
    ("N1", "x", "star"),
    ("N1", "g (case (fun z => Sum N1 N1) (fun u => inr u) (fun u => inl u) n)", "g n"),
    ("N1", "f (unitElim (fun z => N1) y x)", "f y"),
    ("N1", "h (f x) y", "h (f x) x"),
    ("Sum N1 N1", "inl star", "inr star"),
    ("Sum N1 N1", "k (fun z => f z)", "k f"),
    ("N1 -> N1", "f", "fun z => f z"),
    ("N1 * N1", "s", "( fst s , snd s )"),
    ("Id N1 x y", "q", "sym N1 y x (sym N1 x y q)"),
    ("U0", "N1 -> N1", "N0 -> N1"),
]


@pytest.mark.parametrize("flags", ALL_FLAG_SETS, ids=str)
def test_unequal_pairs_agree_with_readback(flags):
    """Each pair differs with every flag off; some flags make it equal."""
    chk, ctx, scope = _prelude_checker(flags)
    for ty_src, lhs, rhs in UNEQUAL_WITHOUT_FLAGS:
        tyv = chk.eval_in(ctx, surface.parse_term(ty_src, scope=scope))
        a, b = (chk.eval_in(ctx, surface.parse_term(t, scope=scope)) for t in (lhs, rhs))
        verdict = chk.ev.conv(a, b, tyv, ctx.depth)
        assert verdict == readback_equal(chk.ev, a, b, tyv, ctx.depth), (lhs, rhs)
        if flags == Flags():
            assert not verdict, (lhs, rhs)


# --- closures compared where their bodies read ----------------------------------------


@contextlib.contextmanager
def closure_rule_audit():
    """Audit every pair that the kernel asks ``Evaluator._same`` about before
    it instantiates them: the closures ``conv`` and ``conv_type`` compare,
    the codomains ``Checker.subsumes`` compares, and the frames of the
    spines ``conv_neutral`` compares.  ``_same`` must say yes wherever the
    rule it replaced (``same_whole_environment``) does, and where it says
    yes the two must read back equal.  Yields the failures and a count of
    the rule's verdicts over every site: ``"both"``, ``"new only"`` and
    ``"no"``."""
    failures, verdicts = [], collections.Counter()
    conv, conv_type, conv_neutral = Evaluator.conv, Evaluator.conv_type, Evaluator.conv_neutral
    subsumes = typecheck.Checker.subsumes

    def audit(ev, c1, c2, depth, operands) -> bool:
        """``_same(c1, c2)``, audited.  ``operands()`` gives the two values
        that hold ``c1`` and ``c2`` and their type, which must read back
        equal where ``c1`` and ``c2`` are the same."""
        new, old = ev._same(c1, c2), same_whole_environment(c1, c2)
        verdicts["both" if old and new else "new only" if new else "no"] += 1
        if old and not new:
            failures.append(("whole environments same, closures not", c1, c2))
        if new:
            steps = ev.steps
            if not readback_equal(ev, *operands(), depth):
                failures.append(("same closures read back unequal", c1, c2))
            ev.steps = steps  # the oracle's work does not count
        return new

    def family(dom, c1, c2):
        # a Pi's codomain or a Sigma's second component: a family over the
        # first side's domain, read back as a lambda into types
        return lambda: (S.VLam(c1), S.VLam(c2), S.VPi(dom, S.constant_family(V_TYPE)))

    def audited_conv(ev, a, b, ty, depth):
        if isinstance(ty, S.VPi) and isinstance(a, S.VLam) and isinstance(b, S.VLam):
            audit(ev, a.clo, b.clo, depth, lambda: (a, b, ty))
        return conv(ev, a, b, ty, depth)

    def audited_conv_type(ev, a, b, depth):
        if type(a) is type(b) and isinstance(a, (S.VPi, S.VSigma)) and a is not b:
            (dom, c1), (_, c2) = (tuple(getattr(v, n) for n in v.__match_args__) for v in (a, b))
            audit(ev, c1, c2, depth, family(dom, c1, c2))
        return conv_type(ev, a, b, depth)

    def audited_subsumes(chk, got, want, depth):
        if isinstance(got, S.VPi) and isinstance(want, S.VPi) and got is not want:
            audit(chk.ev, got.cod, want.cod, depth, family(got.dom, got.cod, want.cod))
        return subsumes(chk, got, want, depth)

    def audited_conv_neutral(ev, a, b, depth):
        fa, fb = a.frames, b.frames
        forms = [f.form for f in fa] == [g.form for g in fb]
        if _head_key(a.head) == _head_key(b.head) and forms:
            # the frames it asks about, from the last back to one that differs
            for k in reversed(range(len(fa))):
                # frame k after a's spine, then b's in its place: the type of
                # the spine types both
                same = audit(ev, fa[k], fb[k], depth, lambda k=k: (
                    S.VNeutral(a.head, fa[: k + 1]),
                    S.VNeutral(a.head, fa[:k] + fb[k : k + 1]),
                    spine_type(ev, a.head, fa[: k + 1]),
                ))
                if not same:
                    break
        return conv_neutral(ev, a, b, depth)

    Evaluator.conv, Evaluator.conv_type = audited_conv, audited_conv_type
    Evaluator.conv_neutral, typecheck.Checker.subsumes = audited_conv_neutral, audited_subsumes
    try:
        yield failures, verdicts
    finally:
        Evaluator.conv, Evaluator.conv_type = conv, conv_type
        Evaluator.conv_neutral, typecheck.Checker.subsumes = conv_neutral, subsumes


def _head_key(head):
    """What ``conv_neutral`` compares of a neutral's head."""
    return type(head), head.level if type(head) is S.HVar else head.name


def spine_type(ev, head, frames):
    """The type of the neutral ``head`` eliminated by ``frames``."""
    ty = head.type
    for k, frame in enumerate(frames):
        ty = ev.frame_types(ty, S.VNeutral(head, frames[:k]), frame)[1]
    return ty


# the flag sets the corpus manifest uses: none, funext, the three eta rules, all
MANIFEST_FLAG_SETS = [
    Flags(),
    Flags(funext=True),
    Flags(eta_pi=True, eta_sigma=True, eta_unit=True),
    Flags(eta_pi=True, eta_sigma=True, eta_unit=True, funext=True),
]


@pytest.mark.parametrize("flags", MANIFEST_FLAG_SETS, ids=str)
def test_corpus_closure_rule_against_whole_environments_and_readback(flags):
    with closure_rule_audit() as (failures, verdicts):
        check_corpus(flags)
    assert failures == []
    # the rule answers where whole environments differ
    assert verdicts["new only"] > 0


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(flags=st.sampled_from(ALL_FLAG_SETS), pair=term_pairs())
def test_prelude_closure_rule_against_whole_environments_and_readback(flags, pair):
    ty_src, lhs_src, rhs_src = pair
    chk, ctx, scope = _prelude_checker(flags)
    # one parse, so that the two sides share their repeated subterms
    both = surface.parse_term(f"( ({lhs_src}) , ({rhs_src}) )", scope=scope)
    with closure_rule_audit() as (failures, verdicts):
        tyv = chk.eval_in(ctx, surface.parse_term(ty_src, scope=scope))
        values = []
        for t in (both.fst, both.snd):
            chk.check(ctx, t, tyv)
            values.append(chk.eval_in(ctx, t))
        chk.ev.conv(values[0], values[1], tyv, ctx.depth)
    assert failures == []
    hypothesis.event(f"closure rule: {sorted(verdicts.items())}")


def _closure_pair(read_differs: bool, cod: S.Value = S.VIntro(T.Unit, ())):
    """Two lambdas ``fun x => f x`` at ``N1 -> cod`` whose environments
    ``(f, u)`` differ in ``f``, which the body reads, or only in ``u``."""
    n1 = S.VIntro(T.Unit, ())
    fun_ty = S.VPi(n1, S.constant_family(cod))
    body = surface.parse_term("f x", scope=["f", "u", "x"])
    f1, f2 = S.fresh(0, fun_ty), S.fresh(1, fun_ty)
    u1, u2 = S.fresh(2, n1), S.fresh(3, n1)
    envs = [(f1, u1), (f2, u1)] if read_differs else [(f1, u1), (f1, u2)]
    return [S.VLam(S.Closure(env, body)) for env in envs], fun_ty


@pytest.mark.parametrize("read_differs", [False, True], ids=["unread entry", "read entry"])
def test_closures_are_applied_only_where_a_read_entry_differs(read_differs, monkeypatch):
    (a, b), ty = _closure_pair(read_differs)
    ev = Evaluator()
    assert not same_whole_environment(a.clo, b.clo)
    evals = []
    eval_ = Evaluator.eval
    monkeypatch.setattr(Evaluator, "eval", lambda ev, env, t: evals.append(t) or eval_(ev, env, t))
    assert ev.conv(a, b, ty, 4) is not read_differs
    # equal closures are not applied; unequal ones are applied and differ
    assert bool(evals) is read_differs
    assert ev._same(a.clo, b.clo) is not read_differs


def _count_calls(monkeypatch, owner, name) -> list:
    """The arguments of every call of ``owner.name`` from now on."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or fn(*args))
    return calls


@pytest.mark.parametrize("read_differs", [False, True], ids=["unread entry", "read entry"])
def test_subsumption_instantiates_codomains_only_where_a_read_entry_differs(
    read_differs, monkeypatch
):
    """``(x : N1) -> f x`` against itself under environments that differ
    only where the codomain does not read them: no codomain is evaluated."""
    (a, b), _ = _closure_pair(read_differs, S.V_U0)
    got, want = (S.VPi(S.VIntro(T.Unit, ()), lam.clo) for lam in (a, b))
    chk = typecheck.Checker()
    evals = _count_calls(monkeypatch, Evaluator, "eval")
    assert chk.subsumes(got, want, 4) is not read_differs
    assert bool(evals) is read_differs


@pytest.mark.parametrize("read_differs", [False, True], ids=["unread entry", "read entry"])
def test_spines_are_typed_only_where_a_read_entry_differs(read_differs, monkeypatch):
    """``g (fun x => f x)`` against itself, the two lambdas distinct objects
    under environments that differ only where their body does not read
    them: the spine is not typed."""
    (a, b), fun_ty = _closure_pair(read_differs)
    n1 = S.VIntro(T.Unit, ())
    g = S.HVar(4, S.VPi(fun_ty, S.constant_family(n1)))
    spines = [S.VNeutral(g, (S.Frame(T.App, (lam,)),)) for lam in (a, b)]
    ev = Evaluator()
    typed = _count_calls(monkeypatch, Evaluator, "frame_types")
    assert ev.conv_neutral(*spines, 5) is not read_differs
    assert bool(typed) is read_differs
