"""The computation rules: ``Evaluator.elim`` against the hand-written rule
per eliminator that it replaced (``helpers.HandWrittenEvaluator``), and the
step counts and normal forms it keeps.  The checker's steps against the
checker that evaluated every checked argument
(``helpers.EagerArgumentChecker``) and against the one that checked a
lambda's body at a second variable (``helpers.SecondVariableChecker``)."""

import ast
import functools
import hashlib
import pathlib

import pytest

from covertt import semantics as S
from covertt import surface, typecheck
from covertt import terms as T
from covertt.cover import cover_type, extract_proof_term
from covertt.encodings import check_corpus
from covertt.semantics import Evaluator
from covertt.terms import Flags
from covertt.typecheck import Checker, Context, TypeCheckError

from helpers import (
    EagerArgumentChecker,
    HandWrittenEvaluator,
    SecondVariableChecker,
    corpus_normal_forms,
    criterion6_derivations,
    nested_identity,
)

FLAG_SETS = {
    "none": Flags(),
    "funext": Flags(funext=True),
    "eta3": Flags(eta_pi=True, eta_sigma=True, eta_unit=True),
    "all": Flags(eta_pi=True, eta_sigma=True, eta_unit=True, funext=True),
}

# Measured with the hand-written rules: the steps of one ``check_corpus``
# call, and the sha256 of the normal forms ``corpus_normal_forms`` lists.
CORPUS_STEPS = {"none": 637, "funext": 2_627, "eta3": 5_975, "all": 13_171}
# the same calls' steps with ``EagerArgumentChecker``
EAGER_CORPUS_STEPS = {"none": 655, "funext": 2_824, "eta3": 6_158, "all": 13_830}
# the same calls' steps with ``SecondVariableChecker``
SECOND_VARIABLE_CORPUS_STEPS = {"none": 637, "funext": 2_627, "eta3": 6_138, "all": 13_455}
NORMAL_FORMS_SHA256 = {
    "none": "e5ab308e42b45b9b34701753232df7778c07db7ce6211ea8b3de52eec4d9b4e9",
    "funext": "8bbd163000a381f5fb241df6254a7c555858600355c174ab345bd99ae0c1acd2",
    "eta3": "5f544127643735d9aa3d90ad3758d92bb52cf7d944caa8fb69e8b46a9ccad1a3",
    "all": "b45cb0b26b60a664a1dd4961b23351cce31878d33d0c98500410b0d746bcb76f",
}


@functools.lru_cache(maxsize=None)
def normal_forms(flag_set: str, evaluator, checker_class=Checker):
    return corpus_normal_forms(FLAG_SETS[flag_set], evaluator, checker_class)


@pytest.mark.parametrize("flag_set", FLAG_SETS)
def test_corpus_agrees_with_the_hand_written_rules(flag_set):
    """The same verdicts, the same steps and the same normal form of every
    definition, with every module checked once."""
    elim = normal_forms(flag_set, Evaluator)
    assert elim == normal_forms(flag_set, HandWrittenEvaluator)
    verdicts, _steps, forms = elim
    assert forms and all(detail == "" for _file, _failed, detail in verdicts)


@pytest.mark.parametrize("flag_set", FLAG_SETS)
def test_corpus_steps_and_normal_forms_are_pinned(flag_set, monkeypatch):
    evaluators = []
    init = Evaluator.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        evaluators.append(self)

    monkeypatch.setattr(Evaluator, "__init__", recorded)
    check_corpus(FLAG_SETS[flag_set])
    assert [ev.steps for ev in evaluators] == [CORPUS_STEPS[flag_set]]
    monkeypatch.undo()
    _verdicts, steps, forms = normal_forms(flag_set, Evaluator)
    assert steps == CORPUS_STEPS[flag_set]
    digest = hashlib.sha256("\n".join(forms).encode()).hexdigest()
    assert digest == NORMAL_FORMS_SHA256[flag_set]


@pytest.mark.parametrize("flag_set", FLAG_SETS)
def test_corpus_agrees_with_the_eager_argument_rule(flag_set):
    """The same verdicts and the same normal form of every definition as
    the checker that evaluates every checked argument, in no more steps."""
    verdicts, steps, forms = normal_forms(flag_set, Evaluator)
    eager = normal_forms(flag_set, Evaluator, EagerArgumentChecker)
    assert (verdicts, forms) == (eager[0], eager[2])
    assert steps <= eager[1] == EAGER_CORPUS_STEPS[flag_set]


@pytest.mark.parametrize("flag_set", FLAG_SETS)
def test_corpus_agrees_with_the_second_variable_rule(flag_set):
    """The same verdicts and the same normal form of every definition as
    the checker that instantiated a lambda's codomain at a second variable,
    in no more steps: the one variable only lets identity answer sooner."""
    verdicts, steps, forms = normal_forms(flag_set, Evaluator)
    second = normal_forms(flag_set, Evaluator, SecondVariableChecker)
    assert (verdicts, forms) == (second[0], second[2])
    assert steps <= second[1] == SECOND_VARIABLE_CORPUS_STEPS[flag_set]


def _verdict(checker_class, ty, tm):
    """The rejection of ``tm`` at ``ty``, or None, and the steps taken."""
    chk, ctx = checker_class(), Context()
    chk.ensure_type(ctx, ty)
    try:
        chk.check(ctx, tm, chk.eval_in(ctx, ty))
    except TypeCheckError as e:
        return (e.kind, e.message), chk.ev.steps
    return None, chk.ev.steps


def test_certificates_agree_with_the_second_variable_rule():
    """Each criterion-6 certificate gets the same verdict from both lambda
    rules, in no more steps: it checks at its own atom's cover type and is
    rejected at the next atom's."""
    for ax, v, atom, d in criterion6_derivations():
        tm = extract_proof_term(ax, v, d)
        for target in (atom, (atom + 1) % ax.size):
            ty = cover_type(ax, v, target)
            verdict, steps = _verdict(Checker, ty, tm)
            second, second_steps = _verdict(SecondVariableChecker, ty, tm)
            assert verdict == second and steps <= second_steps
            assert (verdict is None) == (target == atom)


@pytest.mark.parametrize(
    "checker_class, steps", [(Checker, (0, 100)), (EagerArgumentChecker, (4_950, 5_050))]
)
def test_nested_identity_steps_are_pinned(checker_class, steps):
    """100 nested applications of the identity take no steps to infer,
    since the identity's codomain does not read its argument, and n to
    normalize.  Evaluating each argument to instantiate the codomain took
    n(n-1)/2 to infer."""
    term = surface.parse_term(nested_identity(100))
    chk = checker_class()
    assert typecheck.infer_type(chk, term) == surface.parse_term("N1")
    inferred = chk.ev.steps
    chk = checker_class()
    assert typecheck.normalize(chk, term) == surface.parse_term("star")
    assert (inferred, chk.ev.steps) == steps


def nested(level: str, depth: int) -> str:
    """``level`` (a term with one ``{}`` hole) nested ``depth`` times
    around ``star``."""
    src = "star"
    for _ in range(depth):
        src = level.format(src)
    return src


# terms of type N1 whose types never read the nested subterm, each with
# the number of steps that inferring and normalizing may take per level
LINEAR = {
    "identity": ("(fun x => x : N1 -> N1) ({})", 2),
    "unitElim": ("unitElim (fun u => N1) star ({})", 3),
    "snd": ("snd ((star, (fun x => x : N1 -> N1) ({})) : N1 * N1)", 2),
}


@pytest.mark.parametrize("depth", [100, 1_000])
@pytest.mark.parametrize("shape", LINEAR)
def test_nested_terms_check_and_normalize_in_linear_steps(shape, depth):
    level, per_level = LINEAR[shape]
    term = surface.parse_term(nested(level, depth))
    for run in (typecheck.infer_type, typecheck.normalize):
        chk = Checker()
        assert run(chk, term) == surface.parse_term("N1" if run is typecheck.infer_type else "star")
        assert chk.ev.steps <= per_level * depth


INTRODUCTIONS = [T.Pair, T.Star, T.Inl, T.Inr, T.Refl, T.Sup, T.DSup, T.Ind, T.Rf, T.Tr]
# type formers build elements of the universe, or families over their index
FORMERS = [T.Empty, T.Unit, T.Sum, T.Id, T.W, T.DW, T.WP, T.Cover]


def test_the_introductions_are_those_of_the_types():
    assert {i for intros in S.INTROS.values() for i in intros} == set(INTRODUCTIONS)


@pytest.mark.parametrize("intro", INTRODUCTIONS + FORMERS, ids=lambda cls: cls.__name__)
def test_every_introduction_evaluates_to_one_record(intro):
    """Its form is its term class and its arguments are its fields' values,
    in ``__match_args__`` order.  A type former is an introduction of the
    universe and evaluates to the same record."""
    n = len(intro.__match_args__)
    env = tuple(S.fresh(level, S.V_U0) for level in range(n))
    # field k is the variable at level k
    v = Evaluator().eval(env, intro(*[T.Var(n - 1 - k) for k in range(n)]))
    assert type(v) is S.VIntro and v.form is intro
    assert v.args == env


@pytest.mark.parametrize("family", [T.DW, T.WP, T.Cover], ids=lambda cls: cls.__name__)
def test_a_family_applied_to_a_variable_is_one_applied_record(family):
    """Its ``fam`` is the family's own record and its ``idx`` the index."""
    n = len(family.__match_args__)
    env = tuple(S.fresh(level, S.V_U0) for level in range(n + 1))
    fields = [T.Var(n - k) for k in range(n)]
    ev = Evaluator()
    v = ev.eval(env, T.App(family(*fields), T.Var(0)))
    assert type(v) is S.VApplied and v.idx is env[-1]
    assert v.fam == ev.eval(env, family(*fields)) == S.VIntro(family, env[:-1])


def test_semantics_has_no_match_statement():
    """Readback, conversion and the typing rules dispatch on identity tests:
    a class pattern costs several times an identity test."""
    source = pathlib.Path(S.__file__).read_text(encoding="utf-8")
    matches = [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Match)]
    assert matches == []


@pytest.mark.parametrize("elim", list(S.CASES), ids=lambda cls: cls.__name__)
def test_a_neutral_frame_holds_the_motive_and_the_cases(elim):
    """Not the scrutinee's indices, which are read from its type."""
    n = len(elim.__match_args__)
    env = tuple(S.fresh(level, S.V_U0) for level in range(n))
    # field k is the variable at level k, the scrutinee the last
    v = Evaluator().eval(env, elim(*[T.Var(n - 1 - k) for k in range(n)]))
    (frame,) = v.frames
    assert frame.form is elim and len(frame.args) == 1 + len(S.CASES[elim])
    assert frame.args == env[: len(frame.args)]


@pytest.mark.parametrize("form, k, name", [(T.Proj1, 0, "fst"), (T.Proj2, 1, "snd")])
def test_one_projection_rule(form, k, name):
    """``proj`` takes the component object of a pair, pushes one frame of
    its form on a neutral, and rejects any other value."""
    ev = Evaluator()
    pair = S.VIntro(T.Pair, (S.fresh(0, S.V_U0), S.fresh(1, S.V_U0)))
    assert ev.proj(form, pair) is pair.args[k]
    neutral = S.fresh(2, S.V_U0)
    projected = ev.proj(form, neutral)
    assert projected.head is neutral.head and projected.frames == (S.Frame(form, ()),)
    with pytest.raises(S.KernelBug, match=f"^{name} of non-pair$"):
        ev.proj(form, S.VIntro(T.Star, ()))


ELIMINATED = [
    (T.Sigma, T.SigElim), (T.Sum, T.SumElim), (T.Unit, T.UnitElim), (T.Empty, T.EmptyElim),
    (T.Id, T.J), (T.W, T.WElim), (T.DW, T.DWElim), (T.WP, T.WPElim), (T.Cover, T.CoverElim),
]


@pytest.mark.parametrize("former, elim", ELIMINATED, ids=lambda cls: cls.__name__)
def test_every_motive_lands_in_the_large_sort(former, elim):
    """A motive's type is a function, over the scrutinee's indices and the
    scrutinee, into ``Type``: the one sort that takes a type of either sort."""
    ev = Evaluator()
    n = len(former.__match_args__)
    fields = tuple(S.fresh(level, S.V_U0) for level in range(n))
    if former is T.Sigma:
        ty = S.VSigma(fields[0], S.constant_family(fields[1]))
    elif former in S.FAMILIES:
        ty = S.VApplied(S.VIntro(former, fields), S.fresh(n, S.V_U0))
    else:
        ty = S.VIntro(former, fields)
    cod, level = ev.motive_type(elim, ty), n + 1
    while type(cod) is S.VPi:
        cod, level = ev.apply_clo(cod.cod, S.fresh(level, cod.dom)), level + 1
    assert cod is S.V_TYPE


def test_there_are_two_sorts():
    """An applied family's family has a type of either sort, and no third
    sort stands for "any sort"."""
    assert Evaluator().type_field(T.App, (), 0) is S.V_TYPE
    assert not hasattr(S, "V_ANY")


@pytest.mark.parametrize("evaluator", [Evaluator, HandWrittenEvaluator], ids=lambda c: c.__name__)
def test_j_takes_no_step_for_its_endpoints(evaluator):
    """Each endpoint takes an eliminator step when evaluated, and J takes
    neither: on a neutral proof it takes none, on ``refl`` its own and the
    application of its case."""
    step = "unitElim (fun u => N1) star star"
    ev = evaluator()
    env = (S.fresh(0, ev.eval((), surface.parse_term("Id N1 star star"))),)
    for proof, steps in (("p", 0), ("refl star", 2)):
        src = f"J (fun u => fun v => fun q => N1) (fun u => u) ({step}) ({step}) ({proof})"
        ev.steps = 0
        v = ev.eval(env, surface.parse_term(src, scope=["p"]))
        assert ev.steps == steps and isinstance(v, S.VNeutral) == (proof == "p")
