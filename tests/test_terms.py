import ast
import copy
import os
import pathlib
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given

import covertt
from covertt import semantics as S
from covertt import surface, typecheck
from covertt import terms as T
from covertt.cover import FiniteAxiomSet, Subset, cover_type, extract_proof_term
from covertt.terms import Flags, subst, weaken

from helpers import criterion6_derivations, inline_lets, load_corpus_file, term_key


def test_weaken_free_variable():
    assert weaken(T.Var(0), 0, 1) == T.Var(1)


def test_weaken_bound_variable_untouched():
    assert weaken(T.Lam(T.Var(0)), 0, 5) == T.Lam(T.Var(0))


def test_weaken_shift_under_binder():
    assert weaken(T.Lam(T.Var(1)), 0, 2) == T.Lam(T.Var(3))


def test_subst_direct_hit():
    assert subst(T.Var(0), 0, T.Star()) == T.Star()


def test_subst_under_binder():
    assert subst(T.Lam(T.Var(1)), 0, T.Star()) == T.Lam(T.Star())


def test_subst_decrements_past_hit():
    assert subst(T.Var(1), 0, T.Star()) == T.Var(0)


def test_structural_eq_examples():
    # with nameless binding, alpha-equality is plain structural equality
    assert T.Lam(T.Var(0)) == T.Lam(T.Var(0))
    assert T.Star() != T.Var(0)
    sup = T.Sup(T.Var(1), T.Var(0))
    assert sup == T.Sup(T.Var(1), T.Var(0))


# random well-scoped-ish terms: indices are arbitrary naturals, which is
# fine for the purely syntactic laws below
def _terms():
    leaves = st.one_of(
        st.builds(T.Var, st.integers(0, 5)),
        st.just(T.Star()),
        st.just(T.Unit()),
        st.just(T.Univ()),
    )

    def extend(children):
        return st.one_of(
            st.builds(T.Lam, children),
            st.builds(T.Pi, children, children),
            st.builds(T.Sigma, children, children),
            st.builds(T.App, children, children),
            st.builds(T.Pair, children, children),
            st.builds(T.Sup, children, children),
            st.builds(T.Proj1, children),
            st.builds(T.Id, children, children, children),
            st.builds(T.Let, children, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=20)


@given(_terms(), _terms())
def test_subst_after_weaken_is_identity(t, s):
    assert subst(weaken(t, 0, 1), 0, s) == t


@given(_terms(), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_weaken_composition(t, c, m, n):
    assert weaken(weaken(t, c, m), c, n) == weaken(t, c, m + n)


@given(_terms(), _terms())
def test_structural_eq_is_equivalence(t, u):
    assert t == t
    assert (t == u) == (u == t)


def test_free_variables_are_found_at_any_depth_and_strengthen_refuses_one():
    # a spine as deep as a long certificate's, past any recursion limit
    t = T.Var(2)
    for _ in range(150_000):
        t = T.App(t, T.Lam(T.Var(0)))
    assert T.reads(t) == {2}
    assert T.free_in(t, 2) and not T.free_in(t, 0)
    assert T.reads(T.Sigma(T.Var(4), T.Lam(T.App(T.Var(1), T.Var(3))))) == {4, 1}
    assert T.strengthen(T.Pi(T.Var(1), T.Var(0))) == T.Pi(T.Var(0), T.Var(0))
    with pytest.raises(ValueError, match="variable occurs"):
        T.strengthen(T.Var(0))


def test_inlining_a_let_annotates_its_value_with_its_type():
    t = surface.parse_term("fun x => let y : N1 := x in y")
    assert inline_lets(t) == surface.parse_term("fun x => (x : N1)")


def _node_classes(t) -> set:
    """The classes of the nodes of ``t``, each shared node visited once."""
    classes, stack, seen = set(), [t], set()
    while stack:
        u = stack.pop()
        if id(u) not in seen:
            seen.add(id(u))
            classes.add(type(u))
            stack.extend(getattr(u, name) for name, _ in T.CHILDREN[type(u)])
    return classes


def test_inlining_leaves_no_let_in_a_certificate():
    for ax, v, atom, d in criterion6_derivations():
        for t in (cover_type(ax, v, atom), extract_proof_term(ax, v, d)):
            assert T.Let not in _node_classes(inline_lets(t))


def test_flags_from_names_and_inclusion():
    f = Flags.from_names(["eta_pi", "funext"])
    assert f.eta_pi and f.funext and not f.eta_sigma
    assert Flags(eta_pi=True, eta_sigma=True).includes(Flags(eta_pi=True))
    assert not Flags(eta_pi=True).includes(Flags(eta_sigma=True))
    assert f.names() == ("eta_pi", "funext")


def test_flags_rejects_unknown_names():
    import pytest

    with pytest.raises(ValueError):
        Flags.from_names(["eta_pie"])


def test_child_table_lists_every_subterm_field_in_order():
    for cls, children in T.CHILDREN.items():
        names = list(cls.__match_args__)
        if cls in (T.Var, T.Const):
            assert children == ()
        else:
            assert [name for name, _ in children] == names
    assert dict(T.CHILDREN[T.Pi]) == {"dom": 0, "cod": 1}
    assert dict(T.CHILDREN[T.Sigma]) == {"fst": 0, "snd": 1}
    assert dict(T.CHILDREN[T.Lam]) == {"body": 1}
    assert dict(T.CHILDREN[T.Let]) == {"type": 0, "value": 0, "body": 1}


# --- node semantics: terms and values are immutable records compared by
# class and fields


@given(_terms(), _terms())
def test_equality_and_hash_agree_with_the_key_oracle(t, u):
    for other in (u, copy.deepcopy(t)):
        assert (t == other) == (term_key(t) == term_key(other))
        assert (t != other) == (term_key(t) != term_key(other))
        if t == other:
            assert hash(t) == hash(other)


def _corpus_terms():
    for name in sorted(os.listdir(os.path.join(os.path.dirname(T.__file__), "corpus"))):
        if name.endswith(".mltt"):
            for d in load_corpus_file(name):
                yield d.type
                if d.body is not None:
                    yield d.body


def test_printed_and_parsed_terms_are_equal_with_equal_hashes():
    for t in _corpus_terms():
        back = surface.parse_term(surface.pretty(t))
        assert back is not t
        assert back == t and hash(back) == hash(t)
        assert term_key(back) == term_key(t)


def test_nodes_refuse_assignment_and_deletion():
    app = T.App(T.Var(0), T.Star())
    with pytest.raises(AttributeError):
        app.fn = T.Var(1)
    with pytest.raises(AttributeError):
        del app.arg
    with pytest.raises(AttributeError):
        app.extra = 1
    with pytest.raises(AttributeError):
        Flags().eta_pi = True
    assert app == T.App(T.Var(0), T.Star())


def _record_fields() -> set:
    """The field names of every ``semantics.Record`` class."""
    todo, fields = [S.Record], set()
    while todo:
        cls = todo.pop()
        fields.update(cls.__slots__)
        todo.extend(cls.__subclasses__())
    return fields


def _field_stores(source: str, fields: set) -> list:
    """The lines of ``source`` that store or delete an attribute named like
    one of ``fields``, other than ``self.<field>`` in an ``__init__``."""
    found = []

    def visit(node, in_init):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", None) == "__init__")
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.ctx, (ast.Store, ast.Del))
                and child.attr in fields
                and not (in_init and isinstance(child.value, ast.Name) and child.value.id == "self")
            ):
                found.append(child.lineno)
            visit(child, in_init)

    visit(ast.parse(source), False)
    return found


def test_kernel_records_are_assigned_only_by_their_constructors():
    """Values accept assignment, for a fast constructor, so no module may
    assign a field of one after it is built."""
    fields = _record_fields()
    assert {"dom", "cod", "env", "frames", "type_value"} <= fields
    for path in sorted(pathlib.Path(T.__file__).parent.glob("*.py")):
        assert _field_stores(path.read_text(encoding="utf-8"), fields) == [], path.name
    assert _field_stores("def f(v):\n    v.cod = None\n", fields) == [2]
    planted = "class C:\n    def set(self, x):\n        self.dom = x\n    def __init__(self):\n        del v.dom\n"
    assert _field_stores(planted, fields) == [3, 5]


_X = S.fresh(0, S.V_U0)
_CLO = S.Closure((_X,), T.Var(1))


@pytest.mark.parametrize(
    "value",
    [
        _CLO,
        S.VLam(_CLO),
        S.VPi(S.V_U0, _CLO),
        S.VNeutral(_X.head, (S.Frame(T.App, (_X,)),)),
        S.Frame(T.Proj1, ()),
        _X.head,
        S.PyClosure(S.fresh),
        S.VIntro(T.Pair, (_X, S.VLam(_CLO))),
    ],
    ids=lambda value: type(value).__name__,
)
def test_hot_kernel_records_store_their_fields_directly(value):
    """The records the evaluator builds most have a constructor of their own
    that stores through ``object``'s slot store, not ``Node``'s guarded
    one, and they still compare, hash and pickle as nodes."""
    cls = type(value)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__setattr__ is object.__setattr__ and cls.__delattr__ is object.__delattr__
    assert cls(*[getattr(value, name) for name in cls.__match_args__]) == value
    for back in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert back == value and hash(back) == hash(value)


def test_equal_fields_in_different_classes_differ():
    x = T.Var(0)
    assert T.Inl(x) != T.Inr(x)
    assert T.Proj1(x) != T.Proj2(x)
    assert T.Lam(x) != x and hash(T.Lam(x)) != hash(x)
    assert T.Pair(x, x) != T.Sigma(x, x)
    assert T.Star() != T.Unit() and T.Star() == T.Star()
    star = S.VIntro(T.Star, ())
    assert S.VIntro(T.Inl, (star,)) != S.VIntro(T.Inr, (star,))
    assert T.Var(0) != 0 and T.Var(0) != (0,)


@pytest.mark.parametrize(
    "node, text",
    [
        (T.App(T.Var(0), T.Lam(T.Star())), "App(fn=Var(index=0), arg=Lam(body=Star()))"),
        (T.Const("f"), "Const(name='f')"),
        (T.Univ(), "Univ()"),
        (
            S.VPi(S.V_U0, S.Closure((), T.Var(0))),
            "VPi(dom=VSort(kind='u0'), cod=Closure(env=(), body=Var(index=0)))",
        ),
        (Flags(eta_pi=True), "Flags(eta_pi=True, eta_sigma=False, eta_unit=False, funext=False)"),
        (Subset(5, 3), "Subset(members=(0, 2), size=3)"),
    ],
)
def test_repr_keeps_the_record_format(node, text):
    assert repr(node) == text


def test_records_keep_keywords_defaults_and_validation():
    assert Flags(funext=True) == Flags(False, False, False, True)
    with pytest.raises(ValueError):
        Subset(8, 3)
    ax = FiniteAxiomSet(carrier=("a", "b"), labels=((), ()), premises=((), ()))
    assert ax.carrier == ("a", "b") and ax == FiniteAxiomSet(("a", "b"), ((), ()), ((), ()))
    with pytest.raises(ValueError):
        FiniteAxiomSet(("a",), (), ())


def test_nodes_survive_copy_and_pickle():
    t = T.J(T.Var(0), T.Star(), T.Const("c"), T.Unit(), T.Lam(T.Var(0)))
    ax = FiniteAxiomSet(("a",), (("i",),), ((Subset(1, 1),),))
    for node in (t, Flags(eta_unit=True), ax):
        for back in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert back == node and hash(back) == hash(node)
    assert pickle.loads(pickle.dumps(ax)).carrier == ("a",)


def test_declaration_is_one_syntax_record():
    assert typecheck.Declaration is T.Declaration is covertt.Declaration


def test_the_kernel_imports_at_module_top_and_the_parser_imports_no_kernel_module():
    """``typecheck`` and ``semantics`` import nothing inside a function, and
    ``surface`` imports neither, so the checker and the parser form no
    import cycle."""
    src = pathlib.Path(T.__file__).parent

    def imports(name):
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        return tree, [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]

    for name in ("typecheck", "semantics"):
        tree, found = imports(name)
        assert [n.lineno for n in found if n not in tree.body] == [], name
    _, found = imports("surface")
    modules = {getattr(n, "module", None) or a.name for n in found for a in n.names}
    assert not modules & {"typecheck", "semantics"}
