import dataclasses

import hypothesis.strategies as st
from hypothesis import given

from covertt import terms as T
from covertt.terms import Flags, structural_eq, subst, weaken


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
    assert structural_eq(T.Lam(T.Var(0)), T.Lam(T.Var(0)))
    assert not structural_eq(T.Star(), T.Var(0))
    sup = T.Sup(T.Var(1), T.Var(0))
    assert structural_eq(sup, T.Sup(T.Var(1), T.Var(0)))


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
    assert structural_eq(t, t)
    assert structural_eq(t, u) == structural_eq(u, t)


def test_flags_from_names_and_inclusion():
    f = Flags.from_names(["eta_pi", "funext"])
    assert f.eta_pi and f.funext and not f.eta_sigma
    assert Flags(eta_pi=True, eta_sigma=True).includes(Flags(eta_pi=True))
    assert not Flags(eta_pi=True).includes(Flags(eta_sigma=True))
    assert f.union(Flags(eta_unit=True)).names() == ("eta_pi", "eta_unit", "funext")


def test_flags_rejects_unknown_names():
    import pytest

    with pytest.raises(ValueError):
        Flags.from_names(["eta_pie"])


@given(_terms())
def test_closed_means_no_free_variable(t):
    # the generated indices are below 6, so no free index can be 6 or more
    assert T.closed(t) == (not any(T.free_in(t, k) for k in range(6)))


def test_closed_rejects_constants_and_counts_binders():
    assert T.closed(T.Lam(T.Pi(T.Var(0), T.Var(1))))
    assert not T.closed(T.Lam(T.Pi(T.Var(0), T.Var(2))))
    assert not T.closed(T.Lam(T.Const("c")))
    assert T.closed(T.Var(0), depth=1)


def test_child_table_lists_every_subterm_field_in_order():
    for cls, children in T.CHILDREN.items():
        names = [f.name for f in dataclasses.fields(cls)]
        if cls in (T.Var, T.Const):
            assert children == ()
        else:
            assert [name for name, _ in children] == names
    assert dict(T.CHILDREN[T.Pi]) == {"dom": 0, "cod": 1}
    assert dict(T.CHILDREN[T.Sigma]) == {"fst": 0, "snd": 1}
    assert dict(T.CHILDREN[T.Lam]) == {"body": 1}
