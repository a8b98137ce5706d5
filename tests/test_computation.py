"""The computation rules: ``Evaluator.elim`` against the hand-written rule
per eliminator that it replaced (``helpers.HandWrittenEvaluator``), and the
step counts and normal forms it keeps."""

import ast
import functools
import hashlib
import pathlib

import pytest

from covertt import semantics as S
from covertt import surface, typecheck
from covertt import terms as T
from covertt.encodings import check_corpus
from covertt.semantics import Evaluator
from covertt.terms import Flags
from covertt.typecheck import Checker

from helpers import HandWrittenEvaluator, corpus_normal_forms, nested_identity

FLAG_SETS = {
    "none": Flags(),
    "funext": Flags(funext=True),
    "eta3": Flags(eta_pi=True, eta_sigma=True, eta_unit=True),
    "all": Flags(eta_pi=True, eta_sigma=True, eta_unit=True, funext=True),
}

# Measured with the hand-written rules: the steps of one ``check_corpus``
# call, and the sha256 of the normal forms ``corpus_normal_forms`` lists.
CORPUS_STEPS = {"none": 847, "funext": 3_311, "eta3": 9_045, "all": 18_673}
NORMAL_FORMS_SHA256 = {
    "none": "e5ab308e42b45b9b34701753232df7778c07db7ce6211ea8b3de52eec4d9b4e9",
    "funext": "8bbd163000a381f5fb241df6254a7c555858600355c174ab345bd99ae0c1acd2",
    "eta3": "5f544127643735d9aa3d90ad3758d92bb52cf7d944caa8fb69e8b46a9ccad1a3",
    "all": "b45cb0b26b60a664a1dd4961b23351cce31878d33d0c98500410b0d746bcb76f",
}


@functools.lru_cache(maxsize=None)
def normal_forms(flag_set: str, evaluator):
    return corpus_normal_forms(FLAG_SETS[flag_set], evaluator)


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


def test_nested_identity_steps_are_pinned():
    """100 nested applications of the identity take n(n-1)/2 steps to
    infer and n more to normalize."""
    term = surface.parse_term(nested_identity(100))
    chk = Checker()
    assert typecheck.infer_type(chk, term) == surface.parse_term("N1")
    assert chk.ev.steps == 4_950
    chk = Checker()
    assert typecheck.normalize(chk, term) == surface.parse_term("star")
    assert chk.ev.steps == 5_050


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
