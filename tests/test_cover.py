"""The finite cover engine: fixpoints, the brute-force oracle, derivations
and their kernel proof terms."""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
import tracemalloc

import hypothesis
import hypothesis.strategies as st
import pytest

from covertt import cover, surface
from covertt import terms as T
from covertt.cover import (
    FiniteAxiomSet,
    FormatError,
    RfNode,
    Subset,
    TrNode,
    cover_type,
    derivation,
    extract_proof_term,
    least_cover,
    load_axiom_set,
)
from covertt.semantics import Closure, Evaluator
from covertt.terms import Flags
from covertt.typecheck import Checker, Context, TypeCheckError, convertible

from helpers import (
    UnsharedLetChecker,
    brute_force_min_cover,
    chain_cover_text,
    cover_type_unary,
    criterion6_derivations,
    extract_proof_term_unary,
    inline_lets,
    instance_lets_unary,
    kleene_least_cover,
    layered_horn_cover_text,
    load_axiom_set_reference,
    random_instance,
    reached_atoms,
    replay_derivation,
    subset_by_mask,
    whole_carrier_entry_rounds,
)

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


def _axiom_set(carrier, axioms):
    """axioms: list of (atom, label, member-list)."""
    labels = [[] for _ in carrier]
    covers = [[] for _ in carrier]
    for atom, label, members in axioms:
        a = carrier.index(atom)
        labels[a].append(label)
        covers[a].append(Subset.of([carrier.index(m) for m in members], len(carrier)))
    return FiniteAxiomSet(
        tuple(carrier),
        tuple(tuple(l) for l in labels),
        tuple(tuple(c) for c in covers),
    )


def test_parse_basic_file():
    cf = load_axiom_set("carrier a b\naxiom a i : b\nsubset V : b\nquery a V\n")
    assert cf.axiom_set.carrier == ("a", "b")
    assert cf.axiom_set.labels[0] == ("i",)
    assert cf.axiom_set.covers[0][0].members == (1,)
    assert cf.queries == [(0, "V")]


def test_parse_errors():
    with pytest.raises(FormatError) as e:
        load_axiom_set("carrier a\naxiom c i :\n")
    assert e.value.line == 2
    with pytest.raises(FormatError):
        load_axiom_set("axiom a i :\n")
    with pytest.raises(FormatError):
        load_axiom_set("carrier a\naxiom a i : b\n")
    with pytest.raises(FormatError):
        load_axiom_set("carrier a\naxiom a i :\naxiom a i :\n")
    with pytest.raises(FormatError):
        load_axiom_set("carrier a a\n")
    # empty axiom list is valid
    cf = load_axiom_set("carrier a\nsubset V : a\nquery a V\n")
    assert cover.run_queries(cf) == ["a V covered"]


def test_unknown_atoms_are_reported_with_their_line():
    for text, line in [
        ("carrier a b\nsubset V : a c\n", 2),
        ("carrier a b\nsubset V : a\n\nquery z V\n", 4),
        ("carrier a b\naxiom a i : b\naxiom b j : a q\n", 3),
    ]:
        with pytest.raises(FormatError) as e:
            load_axiom_set(text)
        assert e.value.line == line
        assert "unknown atom" in str(e.value)


def test_reflexivity_saturates():
    ax = _axiom_set(["a", "b"], [])
    v = Subset.of(range(2), 2)
    assert least_cover(ax, v) == v


def test_two_atom_kleene_example():
    ax = _axiom_set(["a", "b"], [("a", "i", ["b"])])
    assert least_cover(ax, Subset.of([1], 2)).members == (0, 1)


def test_self_supporting_axiom_never_fires():
    ax = _axiom_set(["a"], [("a", "i", ["a"])])
    assert least_cover(ax, Subset.of((), 1)).mask == 0


def test_nullary_axiom_always_fires():
    ax = _axiom_set(["a"], [("a", "i", [])])
    assert least_cover(ax, Subset.of((), 1)).members == (0,)
    assert brute_force_min_cover(ax, Subset.of((), 1)).members == (0,)


def test_oracle_bound():
    ax = _axiom_set([f"x{i}" for i in range(13)], [])
    with pytest.raises(ValueError):
        brute_force_min_cover(ax, Subset.of((), 13))


def _all_two_atom_axiom_sets():
    """Every axiom set on a 2-atom carrier where each atom carries a set of
    distinct axiom subsets."""
    subsets = [Subset(m, 2) for m in range(4)]
    per_atom = list(
        itertools.chain.from_iterable(
            itertools.combinations(subsets, r) for r in range(len(subsets) + 1)
        )
    )
    for covers_a in per_atom:
        for covers_b in per_atom:
            labels = (
                tuple(f"i{k}" for k in range(len(covers_a))),
                tuple(f"j{k}" for k in range(len(covers_b))),
            )
            yield FiniteAxiomSet(("a", "b"), labels, (tuple(covers_a), tuple(covers_b)))


def test_oracle_equivalence_exhaustive_on_two_atoms():
    count = 0
    for ax in _all_two_atom_axiom_sets():
        for vm in range(4):
            v = Subset(vm, 2)
            assert least_cover(ax, v) == kleene_least_cover(ax, v) == brute_force_min_cover(ax, v)
            count += 1
    assert count == 16 * 16 * 4


def test_closure_operator_laws_on_two_atoms():
    for ax in _all_two_atom_axiom_sets():
        results = {}
        for vm in range(4):
            v = Subset(vm, 2)
            c = least_cover(ax, v)
            results[vm] = c
            assert set(v) <= set(c)  # extensive
            assert least_cover(ax, c) == c  # idempotent
        for vm in range(4):
            for wm in range(4):
                if vm & ~wm == 0:
                    assert set(results[vm]) <= set(results[wm])  # monotone


def _random_instance(rng, n, sparse=False):
    """Up to three axioms per atom over random subsets; ``sparse`` halves
    the expected number of premises, which gives longer chains of rounds."""
    names = tuple(chr(ord("a") + i) for i in range(n))
    labels, covers = [], []

    def mask():
        m = rng.randrange(1 << n)
        return m & rng.randrange(1 << n) if sparse else m

    for _ in range(n):
        m = rng.randint(0, 3)
        labels.append(tuple(f"i{j}" for j in range(m)))
        covers.append(tuple(Subset(mask(), n) for _ in range(m)))
    return FiniteAxiomSet(names, tuple(labels), tuple(covers))


def test_oracle_equivalence_seeded_random():
    rng = random.Random(20240817)
    for k in range(300):
        n = rng.randint(1, 8)
        ax = _random_instance(rng, n, sparse=k % 2 == 1)
        v = Subset(rng.randrange(1 << n), n)
        lc = least_cover(ax, v)
        assert lc == kleene_least_cover(ax, v) == brute_force_min_cover(ax, v)
        assert set(v) <= set(lc)
        assert least_cover(ax, lc) == lc


def test_an_atom_and_its_labels_and_axiom_subsets_align():
    with pytest.raises(ValueError, match="labels and axiom subsets"):
        FiniteAxiomSet(("a", "b"), (("i0",), ()), ((Subset(2, 2), Subset(0, 2)), ()))
    with pytest.raises(ValueError, match="labels and axiom subsets"):
        FiniteAxiomSet(("a", "b"), (("i0", "i1"), ()), ((Subset(2, 2),), ()))


def test_a_carrier_lists_each_atom_once():
    with pytest.raises(ValueError, match="duplicate atom in carrier"):
        FiniteAxiomSet(("a", "a"), (("i",), ()), ((Subset(0, 2),), ()))
    with pytest.raises(ValueError, match="duplicate atom in carrier"):
        FiniteAxiomSet(("a", "b", "a"), ((), (), ()), ((), (), ()))


def test_an_atom_lists_each_label_once():
    """As the loader requires: a rendered ``tr a i`` names one axiom."""
    with pytest.raises(ValueError, match="duplicate label for atom 'b'"):
        FiniteAxiomSet(("a", "b"), ((), ("i", "j", "i")), ((), (Subset(0, 2),) * 3))
    # one label on two atoms names two axioms
    ax = FiniteAxiomSet(("a", "b"), (("i",), ("i",)), ((Subset(2, 2),), (Subset(0, 2),)))
    assert ax.labels == (("i",), ("i",))


# a V over one atom, handed to each entry point over a two-atom carrier
_WRONG_V = Subset(0b1, 1)


def _two_atoms():
    return _axiom_set(["a", "b"], [("a", "i", ["b"])])


def test_least_cover_refuses_a_subset_over_another_carrier():
    with pytest.raises(ValueError, match="subset over the wrong carrier"):
        least_cover(_two_atoms(), _WRONG_V)


def test_derivation_refuses_a_subset_over_another_carrier():
    with pytest.raises(ValueError, match="subset over the wrong carrier"):
        derivation(_two_atoms(), _WRONG_V, 0)


def test_cover_type_refuses_a_subset_over_another_carrier():
    with pytest.raises(ValueError, match="subset over the wrong carrier"):
        cover_type(_two_atoms(), _WRONG_V, 0)


def test_extract_proof_term_refuses_a_subset_over_another_carrier():
    ax = _two_atoms()
    for atom in (0, 1):
        d = derivation(ax, Subset.of([1], 2), atom)
        with pytest.raises(ValueError, match="subset over the wrong carrier"):
            extract_proof_term(ax, _WRONG_V, d)


def _three_atom_chain():
    return _axiom_set(["a", "b", "c"], [("a", "i", ["b"]), ("b", "j", ["c"])])


def test_brute_force_min_cover_refuses_a_subset_over_another_carrier():
    with pytest.raises(ValueError, match="subset over the wrong carrier"):
        brute_force_min_cover(_two_atoms(), _WRONG_V)
    # a wider V would otherwise read as the whole carrier
    with pytest.raises(ValueError, match="subset over the wrong carrier"):
        brute_force_min_cover(_three_atom_chain(), Subset(0b10000, 5))


def test_derivation_refuses_an_atom_outside_the_carrier():
    ax, v = _three_atom_chain(), Subset.of([2], 3)
    assert derivation(ax, v, 0) == TrNode(0, 0, (TrNode(1, 0, (RfNode(2),)),))
    for atom in (-1, -3, 3):
        with pytest.raises(ValueError, match="atom out of range"):
            derivation(ax, v, atom)


def test_derivation_matches_membership():
    ax = _axiom_set(["a", "b"], [("a", "i", ["b"])])
    v = Subset.of([1], 2)
    d = derivation(ax, v, 0)
    assert d == TrNode(0, 0, (RfNode(1),))
    assert derivation(ax, v, 1) == RfNode(1)
    assert derivation(ax, Subset.of((), 2), 0) is None


def test_derivation_completeness_random():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        ax = _random_instance(rng, n)
        v = Subset(rng.randrange(1 << n), n)
        lc = least_cover(ax, v)
        for atom in range(n):
            d = derivation(ax, v, atom)
            assert (d is not None) == lc.contains(atom)
            if isinstance(d, TrNode):
                cov = ax.covers[d.atom][d.label]
                assert len(d.children) == len(cov.members)


def _check_certificate(flags, ty, tm) -> Checker:
    chk, ctx = Checker(flags), Context()
    chk.ensure_type(ctx, ty)
    chk.check(ctx, tm, chk.eval_in(ctx, ty))
    return chk


def _check_proof(ax, v, atom):
    d = derivation(ax, v, atom)
    assert d is not None
    _check_certificate(Flags(), cover_type(ax, v, atom), extract_proof_term(ax, v, d))


def test_extracted_proofs_typecheck():
    ax = _axiom_set(["a", "b"], [("a", "i", ["b"])])
    v = Subset.of([1], 2)
    _check_proof(ax, v, 0)
    _check_proof(ax, v, 1)


def test_extracted_proofs_typecheck_singleton_and_empty_label():
    ax = _axiom_set(["a"], [("a", "i", [])])
    _check_proof(ax, Subset.of((), 1), 0)


def _certified_instances():
    """(axiom set, V, derivations by atom) for the criterion-6 stream and for
    the exhaustive two-atom family under every V."""
    by_instance: dict = {}
    for ax, v, atom, d in criterion6_derivations():
        by_instance.setdefault((ax, v), []).append((atom, d))
    for (ax, v), derivations in by_instance.items():
        yield ax, v, derivations
    for ax in _all_two_atom_axiom_sets():
        for vm in range(4):
            v = Subset(vm, 2)
            yield ax, v, [(a, d) for a in range(2) if (d := derivation(ax, v, a)) is not None]


@pytest.fixture(scope="module")
def live_certificates():
    """(axiom set, V, derivations by atom, every atom's statement, proofs by
    atom) for each of ``_certified_instances``, in the engine's encoding."""
    return [
        (
            ax,
            v,
            derivations,
            [cover_type(ax, v, a) for a in range(ax.size)],
            [(a, extract_proof_term(ax, v, d)) for a, d in derivations],
        )
        for ax, v, derivations in _certified_instances()
    ]


def _verdicts(checker_class, instances):
    """Every proof of an instance checked flag-free at every atom's type, in
    one checker and context per instance: the (atom, target, verdict)
    triples of each instance, and the steps the checkers' evaluators took."""
    verdicts, steps = [], 0
    for types, proofs in instances:
        chk, ctx, triples = checker_class(Flags()), Context(), []
        for target, ty in enumerate(types):
            chk.ensure_type(ctx, ty)
            tyv = chk.eval_in(ctx, ty)
            for atom, proof in proofs:
                try:
                    chk.check(ctx, proof, tyv)
                    triples.append((atom, target, "ok"))
                except TypeCheckError as e:
                    triples.append((atom, target, e.kind))
        verdicts.append(triples)
        steps += chk.ev.steps
    return verdicts, steps


@pytest.fixture(scope="module")
def live_verdicts(live_certificates):
    """``_verdicts`` of the engine's certificates under ``Checker``."""
    return _verdicts(Checker, [(types, proofs) for *_, types, proofs in live_certificates])


def _family(chk, ctx, lets, level):
    """The value of the instance family bound at ``level`` by ``lets``."""
    body = cover._lets(lets, cover._ref(level, 5))
    chk.infer(ctx, body)
    return chk.eval_in(ctx, body)


def test_let_bound_certificates_agree_with_their_inlining(live_certificates):
    """The engine's certificates, which bind their instance and their
    derived atoms in ``let``s, against the same terms with every ``let``
    expanded (``inline_lets``), all flag-free: the two statements convert,
    the let-bound proof checks at the expanded statement and the expanded
    proof at the let-bound one.  One checker per instance."""
    count = 0
    for *_, types, proofs in live_certificates:
        chk, ctx = Checker(Flags()), Context()
        for atom, proof in proofs:
            expanded = inline_lets(types[atom])
            chk.ensure_type(ctx, types[atom])
            chk.ensure_type(ctx, expanded)
            bound, flat = chk.eval_in(ctx, types[atom]), chk.eval_in(ctx, expanded)
            assert chk.ev.conv_type(bound, flat, 0)
            chk.check(ctx, proof, flat)
            chk.check(ctx, inline_lets(proof), bound)
            count += 1
    assert count == 205 + 1728


def test_instance_families_at_every_closed_point(live_certificates):
    """Flag-free, at every closed atom a the label family ``L a``
    normalizes to the finite type of a's labels, and at every closed atom b
    the subset ``V b`` normalizes to ``N1`` when b is in V and to ``N0``
    otherwise.  The expected forms come from label counts and ``Subset``
    membership, not from the engine's case splits.  L does not read V, so it
    is checked once per axiom set."""
    points, labels_seen = 0, set()
    for ax, v, *_ in live_certificates:
        k, lets = ax.size, cover._instance(ax, v)
        chk, ctx = Checker(Flags()), Context()

        def normal_forms(level):
            fam = _family(chk, ctx, lets, level)
            atoms = [chk.eval_in(ctx, cover.fin_elem(b, k)) for b in range(k)]
            return [chk.norm_type(ctx, chk.ev.apply(fam, b)) for b in atoms]

        if ax not in labels_seen:
            labels_seen.add(ax)
            assert normal_forms(cover._L) == [cover.fin_type(len(ls)) for ls in ax.labels]
            points += k
        assert normal_forms(cover._V) == [T.Unit() if v.contains(b) else T.Empty() for b in range(k)]
        points += k
    # 792 points of L over 340 axiom sets, 2,330 of V over 1,109 instances
    assert points == 792 + 2330


def test_fibre_certificates_agree_with_the_unary_encoding(live_certificates, live_verdicts):
    """The certificates whose axiom family is each axiom's fibre against the
    unary encoding, whose family is each axiom's predicate on the carrier,
    all flag-free.  Each encoding's certificates check at their own atom's
    statement and are rejected at every other atom's.  The two instances'
    label families and subsets convert.  At every closed (a, i, b), the
    fibre ``A a i b`` normalizes to the sum of ``Id C b p`` over the
    premises p of C(a, i), and the injection of ``refl b`` checks at it
    exactly where the unary family is ``N1``, at b's own place."""
    count, families_seen = 0, set()
    live, _steps = live_verdicts
    for (ax, v, derivations, *_), own in zip(live_certificates, live):
        k = ax.size
        derived = {(a, a) for a, _ in derivations}
        types = [cover_type_unary(ax, v, a) for a in range(k)]
        proofs = [(a, extract_proof_term_unary(ax, v, d)) for a, d in derivations]
        (oracle,), _ = _verdicts(Checker, [(types, proofs)])
        for verdicts in (own, oracle):
            assert {(atom, target) for atom, target, verdict in verdicts if verdict == "ok"} == derived
        count += len(derivations)

        fibres, unary = cover._instance(ax, v), instance_lets_unary(ax, v)
        chk, ctx = Checker(Flags()), Context()
        predicates = T.Pi(cover.fin_type(k), T.Univ())
        for level in (cover._L, cover._V):
            assert convertible(chk, predicates, fibres[level][1], unary[level][1])

        def family_at(fam, a, li, b):
            # A a i b, and its normal form
            labels = len(ax.labels[a])
            tyv = fam
            for arg in (cover.fin_elem(a, k), cover.fin_elem(li, labels), cover.fin_elem(b, k)):
                tyv = chk.ev.apply(tyv, chk.eval_in(ctx, arg))
            return tyv, chk.norm_type(ctx, tyv)

        if ax in families_seen:  # the axiom family does not read V
            continue
        families_seen.add(ax)
        fibres, unary = _family(chk, ctx, fibres, cover._A), _family(chk, ctx, unary, cover._A)
        for a in range(k):
            for li in range(len(ax.labels[a])):
                premises = ax.axiom(a, li).members
                for b in range(k):
                    fibre, normal = family_at(fibres, a, li, b)
                    carrier, elem = cover.fin_type(k), cover.fin_elem(b, k)
                    ids = [T.Id(carrier, elem, cover.fin_elem(p, k)) for p in premises]
                    assert normal == cover._sum(ids)
                    checks = []
                    for j in range(len(premises)):
                        try:
                            chk.check(ctx, cover._embed(j, len(premises), T.Refl(elem)), fibre)
                            checks.append(j)
                        except TypeCheckError:
                            pass
                    assert checks == [j for j, p in enumerate(premises) if p == b]
                    unit = family_at(unary, a, li, b)[1]
                    assert unit == (T.Unit() if checks else T.Empty())
    assert count == 205 + 1728


def test_checking_each_let_once_agrees_with_the_unshared_checker(live_certificates, live_verdicts):
    """The checker that checks a ``let`` once per context against the one
    that checks it every time: the same verdicts on every certificate at
    every atom's type, and fewer steps."""
    shared, shared_steps = live_verdicts
    instances = [(types, proofs) for *_, types, proofs in live_certificates]
    unshared, unshared_steps = _verdicts(UnsharedLetChecker, instances)
    assert shared == unshared
    accepted = [(atom, target) for triples in shared for atom, target, verdict in triples if verdict == "ok"]
    assert len(accepted) == 205 + 1728 and all(atom == target for atom, target in accepted)
    assert shared_steps < unshared_steps


@pytest.mark.parametrize("checker_class, distinct", [(Checker, False), (UnsharedLetChecker, True)])
def test_a_proof_checked_after_its_type_shares_its_instance(monkeypatch, checker_class, distinct):
    """The proof's instance ``let``s are the type's, so no two closures that
    ``conv`` or ``conv_type`` ask ``Evaluator._same`` about have equal bodies
    that are distinct objects; a checker that checks every ``let`` again
    makes such pairs.  ``subsumes`` and ``conv_neutral`` also ask, about an
    inferred type's closures, which the proof term's own text builds."""
    pairs, asking = [], [False]
    same = Evaluator._same

    def counted(self, x, y):
        distinct = type(x) is Closure and type(y) is Closure and x.body is not y.body
        if asking[-1] and distinct and x.body == y.body:
            pairs.append((x, y))
        return same(self, x, y)

    def asked_by(fn, counts):
        def wrapper(*args):
            asking.append(counts)
            try:
                return fn(*args)
            finally:
                asking.pop()

        return wrapper

    monkeypatch.setattr(Evaluator, "_same", counted)
    for owner, name, counts in [
        (Evaluator, "conv", True),
        (Evaluator, "conv_type", True),
        (Evaluator, "conv_neutral", False),
        (Checker, "subsumes", False),
    ]:
        monkeypatch.setattr(owner, name, asked_by(getattr(owner, name), counts))
    ax, v, atom, d = next(x for x in criterion6_derivations() if isinstance(x[3], TrNode))
    ty = cover_type(ax, v, atom)
    chk, ctx = checker_class(Flags()), Context()
    chk.ensure_type(ctx, ty)
    chk.check(ctx, extract_proof_term(ax, v, d), chk.eval_in(ctx, ty))
    assert bool(pairs) == distinct


def test_a_certificate_binds_each_derived_atom_once():
    ax, v = _ladder(7)
    d = derivation(ax, v, 0)
    tm = extract_proof_term(ax, v, d)
    lets = 0
    while isinstance(tm, T.Let):
        lets, tm = lets + 1, tm.body
    # five lets for the instance, one for each of x0, x1, y1, x2 and y2
    assert lets == 5 + 5 and tm == T.Var(0)
    # an rf derivation mentions nothing of the instance
    assert extract_proof_term(ax, v, derivation(ax, v, 6)) == T.Rf(cover.fin_elem(6, 7), T.Star())
    with pytest.raises(ValueError, match="element out of range"):
        cover.fin_elem(7, 7)


def _contains_ann(t) -> bool:
    stack, seen = [t], set()
    while stack:
        u = stack.pop()
        if isinstance(u, T.Ann):
            return True
        if id(u) not in seen:
            seen.add(id(u))
            stack.extend(getattr(u, name) for name, _ in T.CHILDREN[type(u)])
    return False


def test_certificates_and_their_types_carry_no_annotation():
    for ax, v, atom, d in criterion6_derivations():
        assert not _contains_ann(cover_type(ax, v, atom))
        assert not _contains_ann(extract_proof_term(ax, v, d))


def _chain(n):
    """a0 <- a1 <- ... <- a(n-1): one axiom per atom but the last, whose
    premise is the next atom; V = {a(n-1)}."""
    labels = tuple(("i",) if a < n - 1 else () for a in range(n))
    covers = tuple((Subset.of([a + 1], n),) if a < n - 1 else () for a in range(n))
    return FiniteAxiomSet(tuple(f"a{a}" for a in range(n)), labels, covers), Subset.of([n - 1], n)


def _ladder(n):
    """Rungs x_i, y_i for i < m = (n - 1) // 2, each needing both atoms of
    the next rung, and the last rung needing t; V = {t}.  The derivation of
    x_0 unfolds to a tree of 2^m leaves."""
    m = (n - 1) // 2
    names = tuple([f"x{i}" for i in range(m)] + [f"y{i}" for i in range(m)] + ["t"])
    premises = [[i + 1, m + i + 1] if i + 1 < m else [2 * m] for i in range(m)]
    labels = tuple(("i",) if a < 2 * m else () for a in range(n))
    covers = tuple((Subset.of(premises[a % m], n),) if a < 2 * m else () for a in range(n))
    return FiniteAxiomSet(names, labels, covers), Subset.of([2 * m], n)


_SCALE_CHECK = """
import sys
sys.setrecursionlimit(100_000)
sys.path.insert(0, {tests!r})
import test_cover
from covertt import cover, surface
ax, v = getattr(test_cover, {shape!r})({n})
ty = cover.cover_type(ax, v, 0)
tm = cover.extract_proof_term(ax, v, cover.derivation(ax, v, 0))
chk = test_cover._check_certificate(test_cover.Flags(), ty, tm)
print(chk.ev.steps, len(surface.pretty(tm)), len(surface.pretty(ty)))
"""

# (shape, atoms) -> the eval steps of the flag-free check of the certificate
# of atom 0, and the printed sizes of the certificate and of its type
CERT_STEPS = {
    ("_chain", 10): (735, 4_968, 2_661),
    ("_chain", 20): (2_685, 13_248, 6_611),
    ("_chain", 30): (5_835, 24_528, 11_761),
    ("_chain", 40): (10_185, 38_808, 18_111),
    ("_chain", 100): (61_485, 187_605, 81_448),
    ("_ladder", 17): (2_078, 14_118, 6_415),
}


@pytest.mark.parametrize("shape, n", CERT_STEPS)
def test_large_certificates_check_in_a_subprocess(shape, n):
    """Each derived atom is bound once, so a ladder's certificate does not
    unfold its shared nodes; run in a subprocess, so that a crash fails.
    The steps and sizes are pinned: a change to either is deliberate."""
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(tests, "..", "src"), tests]))
    code = _SCALE_CHECK.format(tests=tests, shape=shape, n=n)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert tuple(map(int, proc.stdout.split())) == CERT_STEPS[shape, n]


def test_query_rendering_deterministic():
    text = "carrier a b\naxiom a i : b\nsubset V : b\nquery a V\nquery b V\n"
    cf = load_axiom_set(text)
    out1 = cover.run_queries(cf, with_derivations=True)
    out2 = cover.run_queries(cf, with_derivations=True)
    assert out1 == out2
    assert out1 == [
        "a V covered",
        "  tr a i",
        "    rf b",
        "b V covered",
        "  rf b",
    ]


def _rendered(ax, d):
    return None if d is None else "\n".join(cover.render_derivation(ax, d))


def test_derivations_match_the_round_replay_oracle():
    instances = [(ax, Subset(vm, 2)) for ax in _all_two_atom_axiom_sets() for vm in range(4)]
    rng = random.Random(4242)
    for k in range(400):
        n = rng.randint(1, 8)
        instances.append(
            (_random_instance(rng, n, sparse=k % 2 == 0), Subset(rng.randrange(1 << n), n))
        )
    for ax, v in instances:
        for atom in range(ax.size):
            oracle = replay_derivation(ax, v, atom)
            assert _rendered(ax, derivation(ax, v, atom)) == _rendered(ax, oracle)


def test_run_queries_computes_one_fixpoint_per_subset(monkeypatch):
    text = (
        "carrier a b c d\n"
        "axiom a i : b\naxiom b j : c\naxiom c k :\n"
        "subset V : d\nsubset W : b\n"
        "query a V\nquery b W\nquery d V\nquery a W\nquery c V\nquery d W\n"
    )
    calls = []
    entry_rounds = cover._entry_rounds

    def counting(ax, v, *goals):
        calls.append(v)
        return entry_rounds(ax, v, *goals)

    monkeypatch.setattr(cover, "_entry_rounds", counting)
    lines = cover.run_queries(load_axiom_set(text), with_derivations=True)
    assert len(calls) == 2
    assert lines == [
        "a V covered", "  tr a i", "    tr b j", "      tr c k",
        "b W covered", "  rf b",
        "d V covered", "  rf d",
        "a W covered", "  tr a i", "    rf b",
        "c V covered", "  tr c k",
        "d W uncovered",
    ]


def test_indices_walk_the_set_bits_in_order():
    rng = random.Random(11)
    for size in (1, 5, 64, 65, 300):
        for mask in (0, (1 << size) - 1, 1 << (size - 1), rng.randrange(1 << size)):
            s = Subset(mask, size)
            assert s.members == tuple(i for i in range(size) if s.contains(i))
            assert Subset.of(s.members, size) == s


# --- the one-pass loader against the loader it replaced ------------------------------


def _cover_texts():
    """Seeded chains and layered Horn sets, and the shipped sample."""
    rng = random.Random(18)
    texts = [chain_cover_text(rng, n) for n in (1, 2, 3, 50, 600)]
    texts += [layered_horn_cover_text(rng, w, d) for w, d in [(1, 1), (2, 3), (8, 4), (40, 5), (300, 5)]]
    with open(os.path.join(SAMPLES, "two_atoms.cov"), encoding="utf-8") as f:
        return texts + [f.read()]


def _same_cover_file(new, ref):
    assert new.axiom_set == ref.axiom_set
    assert new.subsets == ref.subsets
    assert new.queries == ref.queries
    assert list(new.subsets) == list(ref.subsets)
    covers = zip(new.axiom_set.covers, ref.axiom_set.covers)
    pairs = [(s, t) for a, b in covers for s, t in zip(a, b)]
    pairs += [(new.subsets[name], ref.subsets[name]) for name in ref.subsets]
    assert all(s.members == t.members for s, t in pairs)


def _commented(text):
    """``text`` with a comment at the end of every axiom, subset and query
    line, after a space, a tab or nothing."""
    tails = ["  # why", "\t#", "#glued"]
    out = []
    for k, line in enumerate(text.splitlines()):
        if line.split()[:1] in (["axiom"], ["subset"], ["query"]):
            line += tails[k % len(tails)]
        out.append(line)
    return "\n".join(out) + "\n"


def test_the_loader_agrees_with_its_reference_on_generated_files():
    for text in _cover_texts():
        for variant in (text, _commented(text), text.replace("\n", "\r\n")):
            new = load_axiom_set(variant)
            _same_cover_file(new, load_axiom_set_reference(variant))
            if variant is not text:
                _same_cover_file(new, load_axiom_set(text))


def test_an_axiom_keeps_its_premises_as_its_line_lists_them():
    text = "carrier a b c\naxiom a i : c b c\nsubset V : b c\nquery a V\n"
    cf = load_axiom_set(text)
    assert cf.axiom_set.premises == (((2, 1, 2),), (), ())
    assert cf.axiom_set.covers[0][0].members == (1, 2)
    # the children follow C(a, i) in carrier order, each premise once
    lines = cover.run_queries(cf, with_derivations=True)
    assert lines == ["a V covered", "  tr a i", "    rf b", "    rf c"]
    assert lines == cover.run_queries(load_axiom_set_reference(text), with_derivations=True)
    for generated in _cover_texts():
        new, ref = load_axiom_set(generated), load_axiom_set_reference(generated)
        assert cover.run_queries(new, True) == cover.run_queries(ref, True)


def test_loading_and_answering_build_no_subset_per_axiom(monkeypatch):
    text = layered_horn_cover_text(random.Random(24), 40, 5)
    built = []
    fill = Subset._fill  # every Subset is filled here, however it is made

    def counting(s, *fields):
        built.append(fields)
        fill(s, *fields)

    monkeypatch.setattr(Subset, "_fill", counting)
    cf = load_axiom_set(text)
    lines = cover.run_queries(cf, with_derivations=True)
    assert sum(map(len, cf.axiom_set.labels)) > 0 and any(" tr " in line for line in lines)
    assert len(built) == sum(line.startswith("subset ") for line in text.splitlines()) == 2


def test_a_set_built_from_subsets_equals_the_loaded_one():
    text = layered_horn_cover_text(random.Random(3), 8, 4)
    loaded = load_axiom_set(text).axiom_set
    ref = load_axiom_set_reference(text).axiom_set
    built = FiniteAxiomSet(ref.carrier, ref.labels, ref.covers)
    # the file lists some premises out of carrier order or more than once
    assert built.premises != loaded.premises
    assert built == loaded and hash(built) == hash(loaded) and repr(built) == repr(loaded)
    for ax in (built, loaded):
        for twin in (copy.copy(ax), copy.deepcopy(ax), pickle.loads(pickle.dumps(ax))):
            assert twin == ax and hash(twin) == hash(ax)
            assert twin.premises == ax.premises


def test_the_constructor_keeps_the_premises_it_is_given():
    for text in _cover_texts():
        ax = load_axiom_set(text).axiom_set
        built = FiniteAxiomSet(ax.carrier, ax.labels, ax.premises)
        assert built == ax and built.premises == ax.premises
        # any iterable of indices will do, a generator or a Subset among them
        lazy = FiniteAxiomSet(ax.carrier, ax.labels, ((iter(p) for p in ps) for ps in ax.premises))
        assert lazy.premises == ax.premises
        assert FiniteAxiomSet(ax.carrier, ax.labels, ax.covers) == ax


def test_a_set_built_from_lists_equals_the_one_built_from_tuples():
    from_lists = FiniteAxiomSet(["a", "b"], [["i"], []], [[[1]], []])
    from_tuples = FiniteAxiomSet(("a", "b"), (("i",), ()), (((1,),), ()))
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert (from_lists.carrier, from_lists.labels) == (("a", "b"), (("i",), ()))


@pytest.mark.parametrize("bad", [-1, 3])
def test_a_premise_outside_the_carrier_is_refused(bad):
    # a negative premise would otherwise index the chaining's tables from the end
    with pytest.raises(ValueError, match="axiom subset over the wrong carrier"):
        FiniteAxiomSet(("a", "b", "c"), (("i",), (), ()), (((1, bad),), (), ()))


def test_a_set_built_from_masks_answers_as_the_premises_built_one():
    """The benchmark builds each axiom as ``Subset(mask, n)``; the same
    axioms listed as premises, reversed and with repeats, give an equal set
    with the same derivations and certificates, which check flag-free."""
    rng = random.Random(98765)
    instances = [(3, (("i0",), ("i0",), ()), ((0b010,), (0b100,), ()), 0b100)]
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        labels = tuple(tuple(f"i{j}" for j in range(rng.randint(0, 2))) for _ in range(n))
        masks = tuple(tuple(rng.randrange(1 << n) for _ in ls) for ls in labels)
        instances.append((n, labels, masks, rng.randrange(1 << n)))
    for n, labels, masks, v in instances:
        carrier = tuple("abcd"[:n])
        by_mask = FiniteAxiomSet(carrier, labels, tuple(tuple(Subset(m, n) for m in ms) for ms in masks))
        listed = tuple(
            tuple([b for b in reversed(range(n)) if m >> b & 1] * 2 for m in ms) for ms in masks
        )
        by_premises = FiniteAxiomSet(carrier, labels, listed)
        assert by_mask == by_premises and hash(by_mask) == hash(by_premises)
        vs = Subset(v, n)
        for atom in range(n):
            d = derivation(by_mask, vs, atom)
            assert d == derivation(by_premises, vs, atom)
            if d is None:
                continue
            tm = extract_proof_term(by_mask, vs, d)
            ty = cover_type(by_mask, vs, atom)
            assert tm == extract_proof_term(by_premises, vs, d) and ty == cover_type(by_premises, vs, atom)
            _check_certificate(Flags(), ty, tm)


_LOAD_MANY = """
import sys
from covertt import cover
print(len(cover.load_axiom_set(sys.stdin.read()).axiom_set.labels[0]))
"""


def test_an_atom_with_many_axioms_loads_in_linear_time():
    """Each atom's labels are held as dict keys, so a duplicate is found
    without a scan; scanning a list, 40,000 labels took 15 s and these
    100,000 would take minutes.  Run in a subprocess, so that it can be
    stopped."""
    n = 100_000
    text = "carrier a b\n" + "".join(f"axiom a r{i} : b\n" for i in range(n))
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_MANY], input=text, capture_output=True, text=True, env=env,
        timeout=20,
    )
    assert (proc.returncode, proc.stdout) == (0, f"{n}\n"), proc.stderr[-2000:]


def test_a_loaded_chain_keeps_no_carrier_wide_mask_per_axiom():
    # the premises alone take about 5.4 MB here, a carrier-wide mask per axiom about 33 MB
    text = chain_cover_text(random.Random(5), 20_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cf = load_axiom_set(text)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cf.axiom_set.carrier) == 20_000
    assert retained < 12_000_000


# one text per FormatError the loader reports, then texts with two faults,
# the first of which is reported
FORMAT_ERRORS = [
    ("carrier a\ncarrier b\n", "duplicate carrier line", 2),
    ("carrier\n", "carrier must list at least one atom", 1),
    ("carrier a b a\n", "duplicate atom in carrier", 1),
    ("axiom a i :\n", "carrier must come first", 1),
    ("subset V : a\n", "carrier must come first", 1),
    ("query a V\n", "carrier must come first", 1),
    ("carrier a\naxiom a i b\n", "malformed axiom line (expected 'axiom a i : b ...')", 2),
    ("carrier a\naxiom a\n", "malformed axiom line (expected 'axiom a i : b ...')", 2),
    ("carrier a\naxiom z i :\n", "unknown atom 'z'", 2),
    ("carrier a b\naxiom a i : b z\n", "unknown atom 'z'", 2),
    ("carrier a\naxiom a i :\naxiom a i : a\n", "duplicate label 'i' for atom 'a'", 3),
    ("carrier a\nsubset V a\n", "malformed subset line (expected 'subset V : a ...')", 2),
    ("carrier a\nsubset V : a z\n", "unknown atom 'z'", 2),
    ("carrier a\nsubset V :\nsubset V : a\n", "duplicate subset 'V'", 3),
    ("carrier a\nsubset V :\nquery z V\n", "unknown atom 'z'", 3),
    ("carrier a\nquery a V\n", "unknown subset 'V'", 2),
    ("carrier a\nfrob a\n", "unrecognized item 'frob'", 2),
    ("", "missing carrier line", 1),
    ("# only a comment\n\n", "missing carrier line", 1),
    ("carrier a\naxiom z i : y\n", "unknown atom 'z'", 2),
    ("carrier a\naxiom a i :\naxiom a i : z\n", "duplicate label 'i' for atom 'a'", 3),
    ("subset V : z\ncarrier a\n", "carrier must come first", 1),
    ("axiom a\ncarrier a\n", "malformed axiom line (expected 'axiom a i : b ...')", 1),
    ("carrier a\nsubset V :\nsubset V : z\n", "duplicate subset 'V'", 3),
    ("carrier a\naxiom a i : y z\n", "unknown atom 'y'", 2),
    ("carrier a\nquery z W\n", "unknown atom 'z'", 2),
    ("carrier a\ncarrier\n", "duplicate carrier line", 2),
]
MALFORMED_QUERIES = [
    ("carrier a b\nquery a\n", 2),
    ("carrier a b\nquery a V extra\n", 2),
    ("query\ncarrier a\n", 1),
]


def _format_error(load, text):
    with pytest.raises(FormatError) as e:
        load(text)
    return e.value.message, e.value.line


@pytest.mark.parametrize("text, message, line", FORMAT_ERRORS)
def test_each_format_error_matches_the_reference_loader(text, message, line):
    assert _format_error(load_axiom_set, text) == _format_error(load_axiom_set_reference, text)
    assert _format_error(load_axiom_set, text) == (message, line)


@pytest.mark.parametrize("text, line", MALFORMED_QUERIES)
def test_a_malformed_query_line_is_no_longer_an_unrecognized_item(text, line):
    assert _format_error(load_axiom_set, text) == ("malformed query line (expected 'query a V')", line)
    assert _format_error(load_axiom_set_reference, text) == ("unrecognized item 'query'", line)


# --- a Subset's members ---------------------------------------------------------------


@st.composite
def _masks(draw):
    """(mask, size) with size up to 2,000: a uniform mask, or a sparse one."""
    n = draw(st.integers(1, 2000))
    if draw(st.booleans()):
        return draw(st.integers(0, (1 << n) - 1)), n
    return sum(1 << i for i in draw(st.sets(st.integers(0, n - 1), max_size=12))), n


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(mask_size=_masks(), rnd=st.randoms(use_true_random=False))
def test_a_subsets_members_are_its_bits_in_order(mask_size, rnd):
    mask, n = mask_size
    s = Subset(mask, n)
    assert s.members == tuple(i for i in range(n) if mask >> i & 1)
    assert s.mask == mask and s.size == n
    t = Subset.of(s.members, n)
    assert t == s and hash(t) == hash(s) == hash((s.members, n)) and t.members == s.members
    assert t == subset_by_mask(s.members, n) and t.mask == mask
    assert repr(s) == repr(t) == f"Subset(members={s.members!r}, size={n!r})"
    for c in (copy.copy(s), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert c == s and c.members == s.members and c.mask == mask
    scrambled = list(s.members) * 2
    rnd.shuffle(scrambled)
    assert Subset.of((i for i in scrambled), n) == subset_by_mask(scrambled, n) == s
    for bad in (n, n + rnd.randrange(5000), -1):
        with pytest.raises(ValueError):
            Subset.of(iter([*scrambled, bad]), n)
        with pytest.raises(ValueError):
            subset_by_mask([*scrambled, bad], n)
    # a second subset of the same carrier: unrelated, below s, above s, or s
    other = rnd.choice([rnd.getrandbits(n), mask & rnd.getrandbits(n), mask | rnd.getrandbits(n), mask])
    o = Subset.of([i for i in range(n) if other >> i & 1], n)
    assert o.mask == other
    assert [s.contains(i) for i in range(n + 2)] == [bool(mask >> i & 1) for i in range(n + 2)]
    assert (set(s) <= set(o)) == (mask & ~other == 0) and (set(o) <= set(s)) == (other & ~mask == 0)
    union = Subset.of(s.members + o.members, n)
    assert union == Subset.of(o.members + s.members, n) == Subset(mask | other, n)
    assert union.mask == mask | other
    assert (s == o) == (mask == other) and (s != o) == (mask != other)
    assert hash(o) == hash((o.members, n))


# --- derivations shared by a subset's queries -----------------------------------------


def _per_query_report(cf):
    """The report with each query's derivation built on its own."""
    ax, out = cf.axiom_set, []
    for atom, name in cf.queries:
        d = derivation(ax, cf.subsets[name], atom)
        out.append(f"{ax.carrier[atom]} {name} {'uncovered' if d is None else 'covered'}")
        out += [] if d is None else cover.render_derivation(ax, d)
    return out


def test_shared_derivations_render_as_each_query_built_alone():
    for text in _cover_texts():
        cf = load_axiom_set(text)
        assert list(cover.iter_queries(cf, with_derivations=True)) == _per_query_report(cf)


def test_a_chains_middle_query_reuses_its_head_querys_nodes(monkeypatch):
    n = 40
    cf = load_axiom_set(chain_cover_text(random.Random(5), n))
    ax = cf.axiom_set
    assert cf.queries[:2] == [(ax.carrier.index("c0"), "top"), (ax.carrier.index(f"c{n // 2}"), "top")]
    built = []

    def counting(atom, label, children):
        built.append(atom)
        return TrNode(atom, label, children)

    monkeypatch.setattr(cover, "TrNode", counting)
    lines = cover.run_queries(cf, with_derivations=True)
    monkeypatch.undo()
    assert lines == _per_query_report(cf)
    middle = lines[lines.index(f"c{n // 2} top covered") + 1 : lines.index("c0 none uncovered")]
    assert middle == list(cover.render_derivation(ax, derivation(ax, cf.subsets["top"], cf.queries[1][0])))
    assert len(built) == n - 1  # one tr node per atom of the head's chain, none for the middle


# --- the fixpoint over the atoms the goals reach ---------------------------------------


def _goal_directed_instances():
    """(axiom set, V) pairs: criterion-6-shaped random instances, seeded
    chains and layered Horn sets with their own subsets and random ones,
    and the shipped sample."""
    rng = random.Random(22)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        yield random_instance(rng, n), Subset(rng.randrange(1 << n), n)
    for text in _cover_texts():
        cf = load_axiom_set(text)
        n = cf.axiom_set.size
        yield from ((cf.axiom_set, v) for v in cf.subsets.values())
        yield cf.axiom_set, Subset.of(rng.sample(range(n), rng.randint(0, n)), n)


def test_the_goals_reached_atoms_get_the_whole_carriers_rounds():
    rng = random.Random(2022)
    for ax, v in _goal_directed_instances():
        n = ax.size
        oracle = whole_carrier_entry_rounds(ax, v)
        assert cover._entry_rounds(ax, v, range(n)) == oracle
        for _ in range(3):
            goals = rng.sample(range(n), rng.randint(1, min(n, 5)))
            reached = reached_atoms(ax, v, goals)
            # a reached atom gets its round, every other atom reads None
            expected = [oracle[a] if a in reached else None for a in range(n)]
            assert cover._entry_rounds(ax, v, goals) == expected


def test_a_covered_atom_the_goals_do_not_reach_reads_none():
    # b is covered by its premise-free axiom, but a's axioms do not reach it
    ax = _axiom_set(["a", "b", "c"], [("a", "i", ["c"]), ("b", "k", [])])
    v = Subset.of([2], 3)
    assert whole_carrier_entry_rounds(ax, v) == [1, 1, 0]
    assert cover._entry_rounds(ax, v, [0]) == [1, None, 0]


def test_reports_match_the_whole_carrier_fixpoint():
    for text in _cover_texts():
        cf = load_axiom_set(text)
        ax, expected = cf.axiom_set, []
        rounds = {name: (whole_carrier_entry_rounds(ax, v), {}) for name, v in cf.subsets.items()}
        for atom, name in cf.queries:
            r, nodes = rounds[name]
            expected.append(f"{ax.carrier[atom]} {name} {'uncovered' if r[atom] is None else 'covered'}")
            if r[atom] is not None:
                expected += cover.render_derivation(ax, cover._derivation(ax, r, atom, nodes))
        assert cover.run_queries(cf, with_derivations=True) == expected
