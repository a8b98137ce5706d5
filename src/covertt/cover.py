"""Finite-instance engine for inductively generated basic covers.

An axiom set is a finite carrier with, per atom, an ordered family of
labelled axioms, each covering a subset of the carrier.  The least cover of
a subset V is the least fixpoint of the monotone operator
``F(X) = V  union  { a | some axiom of a has all its atoms in X }``,
computed by forward chaining in layers (linear-time Horn satisfiability):
each axiom counts its premises not yet covered, each atom watches the
axioms it is a premise of, and layer k holds the atoms that enter at round
k of the iteration from V.  A brute-force oracle intersects all
rule-closed supersets of V instead.  Derivations are read off the entry
rounds, and can be turned into kernel proof terms over an encoding of the
carrier as a right-nested sum of unit types.
"""

from __future__ import annotations

from typing import Optional

from . import terms as T
from .terms import Node, Term


class FormatError(Exception):
    def __init__(self, message: str, line: int):
        self.message = message
        self.line = line
        super().__init__(f"line {line}: {message}")


class Subset(Node):
    """Bit-vector over the carrier's atom order."""

    __slots__ = ("mask", "size")

    def __init__(self, mask: int, size: int):
        if mask < 0 or mask >> size:
            raise ValueError("subset mask out of range")
        self._fill(mask, size)

    @classmethod
    def empty(cls, size: int) -> "Subset":
        return cls(0, size)

    @classmethod
    def full(cls, size: int) -> "Subset":
        return cls((1 << size) - 1, size)

    @classmethod
    def of(cls, indices, size: int) -> "Subset":
        m = 0
        for i in indices:
            m |= 1 << i
        return cls(m, size)

    def contains(self, i: int) -> bool:
        return bool(self.mask >> i & 1)

    def union(self, other: "Subset") -> "Subset":
        return Subset(self.mask | other.mask, self.size)

    def issubset(self, other: "Subset") -> bool:
        return self.mask & ~other.mask == 0

    def indices(self):
        out = []
        m = self.mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return out

    def __iter__(self):
        return iter(self.indices())


class FiniteAxiomSet(Node):
    """``carrier`` is a tuple of atom names; per atom, ``labels`` is a tuple
    of its axioms' labels in order and ``covers`` a tuple of the Subsets
    they cover, C(a, i).  ``positions`` maps an atom to its index; it takes
    no part in equality or ``repr``."""

    __slots__ = ("carrier", "labels", "covers", "positions")
    __match_args__ = ("carrier", "labels", "covers")

    def __init__(self, carrier: tuple, labels: tuple, covers: tuple):
        n = len(carrier)
        if len(labels) != n or len(covers) != n:
            raise ValueError("families must align with the carrier")
        for per_atom in covers:
            for s in per_atom:
                if s.size != n:
                    raise ValueError("axiom subset over the wrong carrier")
        self._fill(carrier, labels, covers, {a: i for i, a in enumerate(carrier)})

    def atom_index(self, atom: str) -> int:
        try:
            return self.positions[atom]
        except KeyError:
            raise ValueError(f"{atom!r} is not in the carrier") from None

    @property
    def size(self) -> int:
        return len(self.carrier)


class RfNode(Node):
    __slots__ = ("atom",)

    def __init__(self, atom: int):
        self._fill(atom)


class TrNode(Node):
    __slots__ = ("atom", "label", "children")

    def __init__(self, atom: int, label: int, children: tuple):
        # children: one derivation per element of C(atom, label), in order
        self._fill(atom, label, children)


Derivation = object  # RfNode | TrNode


def _entry_rounds(ax: FiniteAxiomSet, v: Subset) -> list[Optional[int]]:
    """The round at which each atom enters the least cover of V, or ``None``.

    Round 0 is V.  An atom outside V enters at round k + 1 when one of its
    axioms has all its premises entered by round k; an axiom without
    premises fires at round 1.  These are the rounds of Kleene iteration
    from V, found with every premise occurrence visited once.
    """
    rounds: list[Optional[int]] = [None] * ax.size
    layer = v.indices()
    for a in layer:
        rounds[a] = 0
    heads: list[int] = []  # per axiom, the atom it covers
    missing: list[int] = []  # per axiom, its premises not yet entered
    watch: list[list[int]] = [[] for _ in range(ax.size)]  # per atom, axioms it is a premise of
    nxt: list[int] = []
    for a, per_atom in enumerate(ax.covers):
        if rounds[a] == 0:  # in V: no axiom of it can matter
            continue
        for cov in per_atom:
            premises = cov.indices()
            if not premises:
                if rounds[a] is None:
                    rounds[a] = 1
                    nxt.append(a)
                continue
            for b in premises:
                watch[b].append(len(heads))
            heads.append(a)
            missing.append(len(premises))
    k = 0
    while True:
        for b in layer:
            for i in watch[b]:
                missing[i] -= 1
                if missing[i] == 0 and rounds[heads[i]] is None:
                    rounds[heads[i]] = k + 1
                    nxt.append(heads[i])
        if not nxt:
            return rounds
        layer, nxt, k = nxt, [], k + 1


def least_cover(ax: FiniteAxiomSet, v: Subset) -> Subset:
    """Least cover of V: the atoms that enter at some round."""
    return Subset.of((a for a, r in enumerate(_entry_rounds(ax, v)) if r is not None), ax.size)


def brute_force_min_cover(ax: FiniteAxiomSet, v: Subset) -> Subset:
    """Intersection of all rule-closed supersets of V.  Oracle for
    ``least_cover``; exponential, bounded to small carriers."""
    n = ax.size
    if n > 12:
        raise ValueError("brute-force oracle bounded to carriers of size <= 12")
    acc = (1 << n) - 1
    for x in range(1 << n):
        if v.mask & ~x:
            continue
        closed = True
        for a in range(n):
            if x >> a & 1:
                continue
            for cov in ax.covers[a]:
                if cov.mask & ~x == 0:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            acc &= x
    return Subset(acc, n)


def derivation(ax: FiniteAxiomSet, v: Subset, atom: int) -> Optional[Derivation]:
    """Some derivation iff the atom is in the least cover of V."""
    return _derivation(ax, _entry_rounds(ax, v), atom)


def _derivation(ax: FiniteAxiomSet, rounds: list[Optional[int]], atom: int) -> Optional[Derivation]:
    """The derivation read off the entry rounds of V's least cover.

    An atom of round 0 is an ``rf`` leaf.  An atom of round k > 0 uses its
    first axiom whose premises all entered before round k, which is the
    axiom a replay of the Kleene rounds picks.  The tree is built with an
    explicit stack, one node per atom shared wherever the atom recurs, so
    its depth is not bounded by the interpreter's stack.
    """
    if rounds[atom] is None:
        return None
    nodes: dict[int, Derivation] = {}
    chosen: dict[int, tuple[int, list[int]]] = {}  # atom -> (label, premises)
    stack = [atom]
    while stack:
        a = stack[-1]
        if a in nodes:
            stack.pop()
            continue
        r = rounds[a]
        if r == 0:
            nodes[a] = RfNode(a)
            stack.pop()
            continue
        if a not in chosen:
            for li, cov in enumerate(ax.covers[a]):
                premises = cov.indices()
                if all(rounds[b] is not None and rounds[b] < r for b in premises):
                    chosen[a] = li, premises
                    break
        li, premises = chosen[a]
        # premises entered before a, so pushing them cannot cycle
        todo = [b for b in premises if b not in nodes]
        if todo:
            stack.extend(todo)
        else:
            nodes[a] = TrNode(a, li, tuple(nodes[b] for b in premises))
            stack.pop()
    return nodes[atom]


# --- kernel encoding of finite instances ----------------------------------------


def fin_type(k: int) -> Term:
    """Right-nested sum of unit types with k alternatives (empty when k = 0)."""
    if k == 0:
        return T.Empty()
    if k == 1:
        return T.Unit()
    return T.Sum(T.Unit(), fin_type(k - 1))


def fin_elem(i: int, k: int) -> Term:
    if not 0 <= i < k:
        raise ValueError("element out of range")
    if k == 1:
        return T.Star()
    if i == 0:
        return T.Inl(T.Star())
    return T.Inr(fin_elem(i - 1, k - 1))


def _case_tree(k: int, leaf, scrut: Term, motive_body: Term) -> Term:
    """Dependent case split over ``fin_type(k)``.

    ``leaf(i)`` must be a closed term of type ``motive_body[emb(i, k)]``;
    ``motive_body`` has exactly variable 0 free, standing for the scrutinee
    (shifted occurrences included).  When the motive actually depends on the
    scrutinee, unit eliminations bridge the bound unit payloads to ``star``
    so the result checks without any uniqueness rules.
    """
    dep = T.free_in(motive_body, 0)

    def motive_at(repl: Term) -> Term:
        # annotate: the replacement lands in scrutinee positions of the
        # motive, which must stay inferable
        return T.subst(motive_body, 0, T.Ann(repl, fin_type(k)))

    if k == 0:
        return T.EmptyElim(T.Lam(motive_body), scrut)
    if k == 1:
        if dep:
            return T.UnitElim(T.Lam(motive_body), leaf(0), scrut)
        return leaf(0)
    if dep:
        case_left = T.Lam(
            T.UnitElim(T.Lam(motive_at(T.Inl(T.Var(0)))), leaf(0), T.Var(0))
        )
    else:
        case_left = T.Lam(leaf(0))
    inner = _case_tree(
        k - 1,
        lambda i: leaf(i + 1),
        T.Var(0),
        motive_at(T.Inr(T.Var(0))),
    )
    return T.SumElim(T.Lam(motive_body), case_left, T.Lam(inner), scrut)


def _subset_pred(s: Subset) -> Term:
    """Decidable predicate ``carrier -> U0`` selecting the subset."""
    body = _case_tree(
        s.size,
        lambda i: T.Unit() if s.contains(i) else T.Empty(),
        T.Var(0),
        T.Univ(),
    )
    return T.Lam(body)


def _labels_body(ax: FiniteAxiomSet) -> Term:
    """Label-set family body with variable 0 as the atom (a type code)."""
    return _case_tree(
        ax.size, lambda a: fin_type(len(ax.labels[a])), T.Var(0), T.Univ()
    )


def instance_terms(ax: FiniteAxiomSet, v: Subset):
    """Closed kernel terms (carrier, labels family, axioms family, subset)."""
    k = ax.size
    carrier = fin_type(k)
    labels = T.Lam(_labels_body(ax))

    def axioms_for(a: int) -> Term:
        # (i : I(a)) -> carrier -> U0, by case split on the label
        body = _case_tree(
            len(ax.labels[a]),
            lambda li: _subset_pred(ax.covers[a][li]),
            T.Var(0),
            T.Pi(carrier, T.Univ()),
        )
        return T.Lam(body)

    # motive body inlines the label family to stay inferable
    axioms_motive = T.Pi(_labels_body(ax), T.Pi(carrier, T.Univ()))
    axioms = T.Lam(_case_tree(k, axioms_for, T.Var(0), axioms_motive))
    subset = _subset_pred(v)
    return carrier, labels, axioms, subset


def cover_type(ax: FiniteAxiomSet, v: Subset, atom: int) -> Term:
    carrier, labels, axioms, subset = instance_terms(ax, v)
    return T.App(T.Cover(carrier, labels, axioms, subset), fin_elem(atom, ax.size))


def extract_proof_term(ax: FiniteAxiomSet, v: Subset, d: Derivation) -> Term:
    """Kernel proof term for a derivation; checks flag-free at the cover type."""
    k = ax.size
    carrier, labels, axioms, subset = instance_terms(ax, v)
    cover_fam = T.Cover(carrier, labels, axioms, subset)

    def cover_at(a: int) -> Term:
        return T.App(cover_fam, fin_elem(a, k))

    def build(node) -> Term:
        if isinstance(node, RfNode):
            return T.Rf(fin_elem(node.atom, k), T.Star())
        cov = ax.covers[node.atom][node.label]
        children = dict(zip(cov.indices(), node.children))
        elem_a = fin_elem(node.atom, k)
        elem_i = fin_elem(node.label, len(ax.labels[node.atom]))

        # premise family: (b : carrier) -> C(a, i, b) -> b covered; the
        # domain inlines the chosen axiom's subset predicate (convertible
        # with the cover's axiom family at these canonical arguments)
        def leaf(b: int) -> Term:
            if cov.contains(b):
                return T.Lam(build(children[b]))
            return T.Lam(T.EmptyElim(T.Lam(cover_at(b)), T.Var(0)))

        premise_motive = T.Pi(_subset_pred(cov).body, T.App(cover_fam, T.Var(1)))
        body = _case_tree(k, leaf, T.Var(0), premise_motive)
        return T.Tr(elem_a, elem_i, T.Lam(body))

    return build(d)


# --- the axiom-set file format ------------------------------------------------------


class CoverFile(Node):
    __slots__ = ("axiom_set", "subsets", "queries")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # mutable

    def __init__(self, axiom_set: FiniteAxiomSet, subsets: dict, queries: list):
        # subsets: name -> Subset; queries: (atom index, subset name) pairs
        self._fill(axiom_set, subsets, queries)


def load_axiom_set(text: str) -> CoverFile:
    """Line format: ``carrier``, ``axiom``, ``subset`` and ``query`` items."""
    carrier: Optional[tuple[str, ...]] = None
    positions: dict = {}  # atom -> index in the carrier
    labels: list[list[str]] = []
    covers: list[list[Subset]] = []
    subsets: dict = {}
    queries: list = []

    def atom_index(atom: str, ln: int) -> int:
        a = positions.get(atom)
        if a is None:
            raise FormatError(f"unknown atom {atom!r}", ln)
        return a

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        match parts:
            case ["carrier", *atoms]:
                if carrier is not None:
                    raise FormatError("duplicate carrier line", ln)
                if not atoms:
                    raise FormatError("carrier must list at least one atom", ln)
                if len(set(atoms)) != len(atoms):
                    raise FormatError("duplicate atom in carrier", ln)
                carrier = tuple(atoms)
                positions = {a: i for i, a in enumerate(carrier)}
                labels = [[] for _ in atoms]
                covers = [[] for _ in atoms]
            case ["axiom", atom, label, ":", *members]:
                if carrier is None:
                    raise FormatError("carrier must come first", ln)
                a = atom_index(atom, ln)
                if label in labels[a]:
                    raise FormatError(f"duplicate label {label!r} for atom {atom!r}", ln)
                idxs = [atom_index(m, ln) for m in members]
                labels[a].append(label)
                covers[a].append(Subset.of(idxs, len(carrier)))
            case ["axiom", *_]:
                raise FormatError("malformed axiom line (expected 'axiom a i : b ...')", ln)
            case ["subset", name, ":", *members]:
                if carrier is None:
                    raise FormatError("carrier must come first", ln)
                if name in subsets:
                    raise FormatError(f"duplicate subset {name!r}", ln)
                idxs = [atom_index(m, ln) for m in members]
                subsets[name] = Subset.of(idxs, len(carrier))
            case ["subset", *_]:
                raise FormatError("malformed subset line (expected 'subset V : a ...')", ln)
            case ["query", atom, name]:
                if carrier is None:
                    raise FormatError("carrier must come first", ln)
                a = atom_index(atom, ln)
                if name not in subsets:
                    raise FormatError(f"unknown subset {name!r}", ln)
                queries.append((a, name))
            case _:
                raise FormatError(f"unrecognized item {parts[0]!r}", ln)

    if carrier is None:
        raise FormatError("missing carrier line", 1)
    ax = FiniteAxiomSet(
        carrier,
        tuple(tuple(ls) for ls in labels),
        tuple(tuple(cs) for cs in covers),
    )
    return CoverFile(ax, subsets, queries)


def render_derivation(ax: FiniteAxiomSet, d: Derivation, indent: int = 1) -> list[str]:
    """One line per node in pre-order, two spaces of indent per level."""
    return list(_derivation_lines(ax, d, indent))


def _derivation_lines(ax: FiniteAxiomSet, d: Derivation, indent: int):
    stack = [(d, indent)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        if isinstance(node, RfNode):
            yield f"{pad}rf {ax.carrier[node.atom]}"
            continue
        yield f"{pad}tr {ax.carrier[node.atom]} {ax.labels[node.atom][node.label]}"
        stack.extend((child, depth + 1) for child in reversed(node.children))


def iter_queries(cf: CoverFile, with_derivations: bool = False):
    """The report lines of ``run_queries``, one at a time.  A derivation's
    lines are made as they are consumed, so a caller that prints them holds
    one line at a time, not a report that grows with the square of the depth."""
    ax = cf.axiom_set
    rounds_of: dict = {}  # subset name -> entry rounds, shared by its queries
    for atom, name in cf.queries:
        rounds = rounds_of.get(name)
        if rounds is None:
            rounds = rounds_of[name] = _entry_rounds(ax, cf.subsets[name])
        covered = rounds[atom] is not None
        word = "covered" if covered else "uncovered"
        yield f"{ax.carrier[atom]} {name} {word}"
        if with_derivations and covered:
            yield from _derivation_lines(ax, _derivation(ax, rounds, atom), 1)


def run_queries(cf: CoverFile, with_derivations: bool = False) -> list[str]:
    return list(iter_queries(cf, with_derivations))
