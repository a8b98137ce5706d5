"""Finite-instance engine for inductively generated basic covers.

An axiom set is a finite carrier with, per atom, an ordered family of
labelled axioms, each covering a subset of the carrier.  The least cover of
a subset V is the least fixpoint of the monotone operator
``F(X) = V  union  { a | some axiom of a has all its atoms in X }``,
computed by forward chaining in layers (linear-time Horn satisfiability):
each axiom counts its premises not yet covered, each atom watches the
axioms it is a premise of, and layer k holds the atoms that enter at round
k of the iteration from V.  Whether an atom is covered depends only on the
atoms it reaches through axiom premises, so the chaining indexes only the
axioms of the atoms its goals reach: the atoms queried against V.
Derivations are read off the entry rounds, and can be turned into kernel
proof terms over an encoding of the carrier as a right-nested sum of unit
types.  A Subset is the ascending tuple of its atoms' indices, and an
axiom's premises are kept as its line lists them, in the order written
and with repeats, so loading a file sorts nothing and builds no Subset
per axiom: the chaining counts each premise occurrence, a derivation
sorts only the axioms it uses, and a certificate builds a Subset only for
each axiom it encodes.  Bit masks appear only at the edge: a Subset built
from one, and its mask when read.  The queries of one subset share its
entry rounds and its derivation nodes.

A certificate is one closed term that states its instance once, as five
``let``s (the carrier, the label family, the axiom family, V and the
``Cover`` family), and binds each ``tr`` node of the derivation once, in a
``let`` of its own, so it grows with the derivation's distinct nodes, not
with its unfolded tree.  The label family and V are case splits over the
carrier.  The axiom family states each axiom as the fibre of its premise
list: ``A a i b`` is ``Sum (Id C b p1) (... (Id C b pm))`` over the
premises of C(a, i), and ``N0`` when it has none.  So a ``tr`` node's
premise function splits its witness over the axiom's m premises only, not
over the carrier, and moves each premise's proof from ``Cov p`` to
``Cov b`` with one ``J``.  Each level of a split states its motive reduced,
as a term over the tail at that level, so no annotation is needed.
Elements are unary, so a chain of n atoms has a certificate of about n²
characters: n nodes, each naming elements of size up to n.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from . import terms as T
from .terms import Node, Term


class FormatError(Exception):
    def __init__(self, message: str, line: int):
        self.message = message
        self.line = line
        super().__init__(f"line {line}: {message}")


class Subset(Node):
    """A subset of a carrier of ``size`` atoms: ``members``, its atoms'
    indices as an ascending tuple, the order the engine walks them in.
    ``Subset(mask, size)`` reads the members off a bit mask over the
    carrier's atom order, and ``mask`` derives that mask when read."""

    __slots__ = ("members", "size")

    def __init__(self, mask: int, size: int):
        if mask < 0 or mask >> size:
            raise ValueError("subset mask out of range")
        bits = mask.to_bytes((size + 7) // 8, "little")
        self._fill(tuple(i for i in range(size) if bits[i >> 3] >> (i & 7) & 1), size)

    @classmethod
    def of(cls, indices, size: int) -> "Subset":
        """The Subset of ``indices`` in any order, repeats allowed."""
        members = sorted(set(indices))
        if members and (members[0] < 0 or members[-1] >= size):
            raise ValueError("subset index out of range")
        s = cls.__new__(cls)
        s._fill(tuple(members), size)
        return s

    @property
    def mask(self) -> int:
        # one pass over a byte buffer, not a carrier-wide ``1 << i`` per member
        bits = bytearray((self.size + 7) // 8)
        for i in self.members:
            bits[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(bits, "little")

    def contains(self, i: int) -> bool:
        members = self.members
        j = bisect_left(members, i)
        return j < len(members) and members[j] == i

    def __iter__(self):
        return iter(self.members)


class FiniteAxiomSet(Node):
    """``carrier`` is a tuple of distinct atom names.  Per atom, ``labels``
    is a tuple of its axioms' distinct labels in order, and ``premises`` a
    tuple of their premises: each the tuple of atom indices its axiom lists,
    in any order and with repeats.  The constructor takes any sequences, and
    a premise as any iterable of indices, a Subset among them.  ``covers``,
    the Subsets C(a, i), is built from the premises when read and stands in
    for them in equality and ``repr``, so premises listed in another order
    give an equal set."""

    __slots__ = ("carrier", "labels", "premises")
    __match_args__ = ("carrier", "labels", "covers")

    def __init__(self, carrier: tuple, labels: tuple, premises):
        n = len(carrier)
        premises = tuple(tuple(map(tuple, per_atom)) for per_atom in premises)
        if len(labels) != n or len(premises) != n:
            raise ValueError("families must align with the carrier")
        if any(len(ls) != len(ps) for ls, ps in zip(labels, premises)):
            raise ValueError("an atom's labels and axiom subsets must align")
        if any(p and (min(p) < 0 or max(p) >= n) for per_atom in premises for p in per_atom):
            raise ValueError("axiom subset over the wrong carrier")
        if len(set(carrier)) != n:
            raise ValueError("duplicate atom in carrier")
        for atom, ls in zip(carrier, labels):
            if len(set(ls)) != len(ls):
                raise ValueError(f"duplicate label for atom {atom!r}")
        self._fill(tuple(carrier), tuple(map(tuple, labels)), premises)

    @property
    def covers(self) -> tuple:
        n = len(self.carrier)
        return tuple(tuple(Subset.of(p, n) for p in per_atom) for per_atom in self.premises)

    def axiom(self, atom: int, label: int) -> Subset:
        """C(atom, label), the Subset one axiom covers."""
        return Subset.of(self.premises[atom][label], len(self.carrier))

    @property
    def size(self) -> int:
        return len(self.carrier)


class RfNode(Node):
    __slots__ = ("atom",)


class TrNode(Node):
    # children: one derivation per element of C(atom, label), in order
    __slots__ = ("atom", "label", "children")


def _entry_rounds(ax: FiniteAxiomSet, v: Subset, goals) -> list[Optional[int]]:
    """The round at which each atom the goals reach enters the least cover
    of V, or ``None``.

    A goal reaches itself, and an atom outside V reaches the premises of its
    axioms; an atom of V reaches nothing more.  Only the axioms of reached
    atoms are indexed, and every atom not reached reads ``None``, covered or
    not.  A reached atom's round depends only on the atoms it reaches, so
    it is the same for every set of goals that reaches it.

    Round 0 is V.  An atom outside V enters at round k + 1 when one of its
    axioms has all its premises entered by round k; an axiom without
    premises fires at round 1.  These are the rounds of Kleene iteration
    from V, found with every reached premise occurrence visited once.  An
    axiom counts each premise occurrence, a repeated premise as often as it
    is listed, and each is counted off when its atom enters, so the axiom
    fires when its distinct premises have all entered.
    """
    rounds: list[Optional[int]] = [None] * ax.size
    # per reached atom, the axioms it is a premise of; None marks an atom not reached
    watch: list[Optional[list[int]]] = [None] * ax.size
    heads: list[int] = []  # per axiom, the atom it covers
    missing: list[int] = []  # per axiom, its premises not yet entered
    axioms, in_v = ax.premises, set(v.members)
    layer: list[int] = []
    nxt: list[int] = []
    todo: list[int] = []  # reached atoms whose axioms are not yet indexed
    for a in goals:
        if watch[a] is None:
            watch[a] = []
            todo.append(a)
    while todo:
        a = todo.pop()
        if a in in_v:  # no axiom of an atom of V can matter
            rounds[a] = 0
            layer.append(a)
            continue
        for premises in axioms[a]:
            if not premises:
                if rounds[a] is None:
                    rounds[a] = 1
                    nxt.append(a)
                continue
            i = len(heads)
            for b in premises:
                w = watch[b]
                if w is None:
                    watch[b] = [i]
                    todo.append(b)
                else:
                    w.append(i)
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


def _same_carrier(ax: FiniteAxiomSet, v: Subset) -> None:
    if v.size != ax.size:
        raise ValueError("subset over the wrong carrier")


def least_cover(ax: FiniteAxiomSet, v: Subset) -> Subset:
    """Least cover of V: the atoms that enter at some round."""
    _same_carrier(ax, v)
    rounds = _entry_rounds(ax, v, range(ax.size))
    return Subset.of((a for a, r in enumerate(rounds) if r is not None), ax.size)


def derivation(ax: FiniteAxiomSet, v: Subset, atom: int) -> Optional[RfNode | TrNode]:
    """Some derivation iff the atom is in the least cover of V."""
    _same_carrier(ax, v)
    if not 0 <= atom < ax.size:
        raise ValueError("atom out of range")
    return _derivation(ax, _entry_rounds(ax, v, (atom,)), atom, {})


def _derivation(ax: FiniteAxiomSet, rounds: list, atom: int, nodes: dict) -> Optional[RfNode | TrNode]:
    """The derivation read off the entry rounds of V's least cover.

    An atom of round 0 is an ``rf`` leaf.  An atom of round k > 0 uses its
    first axiom whose premises all entered before round k, which is the
    axiom a replay of the Kleene rounds picks.  The tree is built with an
    explicit stack, one node per atom shared wherever the atom recurs, so
    its depth is not bounded by the interpreter's stack.  An atom's node
    depends only on the rounds, so the queries of one V share ``nodes``.
    Only the rounds of atoms that ``atom`` reaches are read, so rounds
    computed with ``atom`` among the goals suffice.
    """
    if rounds[atom] is None:
        return None
    chosen: dict[int, tuple[int, tuple]] = {}  # atom -> (label, premises)
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
            for li, premises in enumerate(ax.premises[a]):
                if all(rounds[b] is not None and rounds[b] < r for b in premises):
                    # the children follow C(a, li), in carrier order
                    chosen[a] = li, tuple(sorted(set(premises)))
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
#
# A certificate's let-bound variables are named by their level, counted
# from its outermost binder, and a builder is told how many binders
# enclose the point where it refers to one (``_ref``).

# the levels of the instance's lets: the carrier, the label family, the
# axiom family, the subset and the cover family
_C, _L, _A, _V, _COV = range(5)


def _ref(level: int, depth: int) -> Term:
    """The variable bound at ``level``, seen under ``depth`` binders."""
    return T.Var(depth - 1 - level)


def _sum(types: list) -> Term:
    """The right-nested sum of ``types``, ``N0`` when there are none."""
    if not types:
        return T.Empty()
    t = types[-1]
    for ty in reversed(types[:-1]):
        t = T.Sum(ty, t)
    return t


def fin_type(k: int) -> Term:
    """Right-nested sum of unit types with k alternatives (empty when k = 0)."""
    return _sum([T.Unit()] * k)


def fin_elem(i: int, k: int) -> Term:
    if not 0 <= i < k:
        raise ValueError("element out of range")
    return _embed(i, k, T.Star())


def _embed(i: int, k: int, payload: Term) -> Term:
    """The injection of ``payload`` as alternative i of a right-nested sum
    of k alternatives: element i of ``fin_type(k)`` when it is ``star``."""
    t = payload if i == k - 1 else T.Inl(payload)
    for _ in range(i):
        t = T.Inr(t)
    return t


def _case_tree(k: int, leaf, motive, depth: int, j: int = 0) -> Term:
    """Dependent case split of variable 0 over the elements j..k-1 of
    ``fin_type(k)``, under ``depth`` binders (variable 0's included).

    The split is over any right-nested sum of k alternatives, the same
    shape.  ``motive(j, d)`` is the motive's body over that tail, variable 0
    of type its alternatives j..k-1; ``leaf(i, d)`` is the case for
    alternative i, variable 0 its payload; ``d`` counts the binders around
    each.  Every level states its own motive, so nothing is substituted:
    the kernel reduces a level's motive at ``inl x`` to its leaf's type and
    at ``inr y`` to the next level's motive.
    """
    if j == k:
        return T.EmptyElim(T.Lam(motive(j, depth + 1)), T.Var(0))
    if j == k - 1:
        return leaf(j, depth)
    return T.SumElim(
        T.Lam(motive(j, depth + 1)),
        T.Lam(leaf(j, depth + 1)),
        T.Lam(_case_tree(k, leaf, motive, depth + 1, j + 1)),
        T.Var(0),
    )


def _family_body(codes: list) -> Term:
    """The closed type family ``b |-> codes[b]`` over the carrier, variable
    0 its element."""
    return _case_tree(len(codes), lambda b, _d: codes[b], lambda _j, _d: T.Univ(), 1)


def _subset_codes(s: Subset) -> list:
    return [T.Unit() if s.contains(b) else T.Empty() for b in range(s.size)]


def _predicates(depth: int) -> Term:
    """``C -> U0``, the carrier's predicates, under ``depth`` binders."""
    return T.Pi(_ref(_C, depth), T.Univ())


def _lets(bindings: list, body: Term) -> Term:
    """``body`` under ``let _ : A := v in`` for each (A, v) of ``bindings``,
    the first outermost."""
    for ty, value in reversed(bindings):
        body = T.Let(ty, value, body)
    return body


def _instance(ax: FiniteAxiomSet, v: Subset) -> list:
    """The instance's lets: ``let C : U0 := Fin k in let L : C -> U0 := ...
    in let A : (a : C) -> L a -> C -> U0 := ... in let V : C -> U0 := ... in
    let Cov : C -> U0 := Cover C L A V``."""
    k = ax.size
    label_codes = [fin_type(len(ls)) for ls in ax.labels]

    def axioms_for(a: int, depth: int) -> Term:
        # fun i => the fibre of C(a, i), by case split on the label
        def fibre(li: int, depth: int) -> Term:
            # fun b => Sum (Id C b p1) (... (Id C b pm)), b variable 0
            premises = ax.axiom(a, li).members
            c = _ref(_C, depth + 1)
            return T.Lam(_sum([T.Id(c, T.Var(0), fin_elem(p, k)) for p in premises]))

        return T.Lam(_case_tree(len(ax.labels[a]), fibre, lambda _j, d: _predicates(d), depth + 1))

    def axioms_motive(j: int, depth: int) -> Term:
        # L (inr^j y) -> C -> U0, y the tail's element
        return T.Pi(T.App(_ref(_L, depth), _embed(j, j + 1, T.Var(0))), _predicates(depth + 1))

    axioms_type = T.Pi(_ref(_C, 2), T.Pi(T.App(_ref(_L, 3), T.Var(0)), _predicates(4)))
    return [
        (T.Univ(), fin_type(k)),
        (_predicates(1), T.Lam(_family_body(label_codes))),
        (axioms_type, T.Lam(_case_tree(k, axioms_for, axioms_motive, 3))),
        (_predicates(3), T.Lam(_family_body(_subset_codes(v)))),
        (_predicates(4), T.Cover(*[_ref(level, 4) for level in (_C, _L, _A, _V)])),
    ]


def cover_type(ax: FiniteAxiomSet, v: Subset, atom: int) -> Term:
    """``Cov a`` in the scope of the instance's lets."""
    _same_carrier(ax, v)
    return _lets(_instance(ax, v), T.App(_ref(_COV, 5), fin_elem(atom, ax.size)))


def extract_proof_term(ax: FiniteAxiomSet, v: Subset, d: RfNode | TrNode) -> Term:
    """Kernel proof term for a derivation; checks flag-free at the cover type.

    An ``rf`` derivation is ``rf a star``.  Otherwise the instance's lets
    are followed by ``let p : Cov a := tr a i f`` for each distinct ``tr``
    node, children first, and the term is the root's variable.  The premise
    function is ``fun b => fun w => ...``, its witness w in the fibre
    ``A a i b``, a sum over the axiom's premises; it splits w over those
    premises alone.  At premise p, w is some ``e : Id C b p``, and the
    premise's proof, its node's variable or an inline ``rf``, is moved from
    ``Cov p`` to ``Cov b`` by ``J (fun u v q => Cov v -> Cov u) (fun u h =>
    h) b p e``.  An axiom without premises has the empty fibre, refuted.
    Each node names its premises once, so a chain of n atoms has a
    certificate of about n² characters.
    """
    _same_carrier(ax, v)
    k = ax.size
    if isinstance(d, RfNode):
        return T.Rf(fin_elem(d.atom, k), T.Star())
    nodes = _tr_nodes(d)
    level = {id(node): _COV + 1 + n for n, node in enumerate(nodes)}

    def binding(node: TrNode) -> tuple:
        # Cov a and tr a i f, under the lets before the node's own
        depth = level[id(node)]
        b = depth  # the level of f's b; its witness w is bound at depth + 1
        premises = ax.axiom(node.atom, node.label).members
        a = fin_elem(node.atom, k)
        i = fin_elem(node.label, len(ax.labels[node.atom]))

        def motive(_j: int, depth: int) -> Term:
            return T.App(_ref(_COV, depth), _ref(b, depth))

        def leaf(j: int, depth: int) -> Term:
            # the proof at premise p moved along variable 0, e : Id C b p
            p, child = fin_elem(premises[j], k), node.children[j]
            if isinstance(child, RfNode):
                proof = T.Rf(p, T.Star())
            else:
                proof = _ref(level[id(child)], depth)
            # J (fun u v q => Cov v -> Cov u) (fun u h => h) b p e
            moved = T.Pi(T.App(_ref(_COV, depth + 3), T.Var(1)), T.App(_ref(_COV, depth + 4), T.Var(3)))
            motive_j, refl_case = T.Lam(T.Lam(T.Lam(moved))), T.Lam(T.Lam(T.Var(0)))
            return T.App(T.J(motive_j, refl_case, _ref(b, depth), p, T.Var(0)), proof)

        f = T.Lam(T.Lam(_case_tree(len(premises), leaf, motive, depth + 2)))
        return T.App(_ref(_COV, depth), a), T.Tr(a, i, f)

    # the body is the root's variable, bound last
    return _lets(_instance(ax, v) + [binding(node) for node in nodes], T.Var(0))


def _tr_nodes(d: TrNode) -> list:
    """The distinct ``tr`` nodes of ``d``, each after the ``tr`` nodes below
    it, found with an explicit stack."""
    order, seen, stack = [], set(), [(d, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((c, False) for c in node.children if isinstance(c, TrNode))
    return order


# --- the axiom-set file format ------------------------------------------------------


class CoverFile(Node):
    # subsets: name -> Subset; queries: (atom index, subset name) pairs
    __slots__ = ("axiom_set", "subsets", "queries")
    __hash__ = None  # holds a dict and a list


def load_axiom_set(text: str) -> CoverFile:
    """Line format: ``carrier``, ``axiom``, ``subset`` and ``query`` items,
    each line dispatched on its first word.  An axiom's premises are kept
    as the tuple of atom indices its line lists; only a ``subset`` line
    builds a Subset."""
    carrier: Optional[tuple[str, ...]] = None
    positions: dict = {}  # atom -> index in the carrier
    labels: list[dict] = []  # per atom, its labels as keys, in order
    premises: list[list[tuple]] = []
    subsets: dict = {}
    queries: list = []
    try:
        for ln, raw in enumerate(text.splitlines(), start=1):
            parts = (raw.partition("#")[0] if "#" in raw else raw).split()
            if not parts:
                continue
            kind = parts[0]
            if kind == "axiom":
                if len(parts) < 4 or parts[3] != ":":
                    raise FormatError("malformed axiom line (expected 'axiom a i : b ...')", ln)
                if carrier is None:
                    raise FormatError("carrier must come first", ln)
                a, label = positions[parts[1]], parts[2]
                if label in labels[a]:
                    raise FormatError(f"duplicate label {label!r} for atom {parts[1]!r}", ln)
                labels[a][label] = None
                premises[a].append(tuple(map(positions.__getitem__, parts[4:])))
            elif kind == "subset":
                if len(parts) < 3 or parts[2] != ":":
                    raise FormatError("malformed subset line (expected 'subset V : a ...')", ln)
                if carrier is None:
                    raise FormatError("carrier must come first", ln)
                name = parts[1]
                if name in subsets:
                    raise FormatError(f"duplicate subset {name!r}", ln)
                subsets[name] = Subset.of(map(positions.__getitem__, parts[3:]), len(carrier))
            elif kind == "query":
                if len(parts) != 3:
                    raise FormatError("malformed query line (expected 'query a V')", ln)
                if carrier is None:
                    raise FormatError("carrier must come first", ln)
                a, name = positions[parts[1]], parts[2]
                if name not in subsets:
                    raise FormatError(f"unknown subset {name!r}", ln)
                queries.append((a, name))
            elif kind == "carrier":
                if carrier is not None:
                    raise FormatError("duplicate carrier line", ln)
                atoms = parts[1:]
                if not atoms:
                    raise FormatError("carrier must list at least one atom", ln)
                if len(set(atoms)) != len(atoms):
                    raise FormatError("duplicate atom in carrier", ln)
                carrier = tuple(atoms)
                positions = {a: i for i, a in enumerate(carrier)}
                labels = [{} for _ in atoms]
                premises = [[] for _ in atoms]
            else:
                raise FormatError(f"unrecognized item {kind!r}", ln)
    except KeyError as e:  # the only lookups that can fail are of atoms in positions
        raise FormatError(f"unknown atom {e.args[0]!r}", ln) from None

    if carrier is None:
        raise FormatError("missing carrier line", 1)
    # the families are aligned and sized and each atom's labels distinct by
    # construction, so the constructor's checks are skipped
    ax = FiniteAxiomSet.__new__(FiniteAxiomSet)
    ax._fill(carrier, tuple(map(tuple, labels)), tuple(map(tuple, premises)))
    return CoverFile(ax, subsets, queries)


def render_derivation(ax: FiniteAxiomSet, d: RfNode | TrNode):
    """One line per node in pre-order, two spaces of indent per level, the
    root's included, made as they are consumed."""
    stack = [(d, 1)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        if isinstance(node, RfNode):
            yield f"{pad}rf {ax.carrier[node.atom]}"
            continue
        yield f"{pad}tr {ax.carrier[node.atom]} {ax.labels[node.atom][node.label]}"
        stack.extend((child, depth + 1) for child in reversed(node.children))


def iter_queries(cf: CoverFile, with_derivations: bool = False):
    """The report lines of ``run_queries``, one at a time.  The queries of
    one subset share one fixpoint over the atoms they reach.  A derivation's
    lines are made as they are consumed, so a caller that prints them holds
    one line at a time, not a report that grows with the square of the depth."""
    ax = cf.axiom_set
    goals: dict = {}  # subset name -> the atoms queried against it
    for atom, name in cf.queries:
        goals.setdefault(name, []).append(atom)
    shared: dict = {}  # subset name -> (entry rounds, derivation nodes) of its queries
    for atom, name in cf.queries:
        if name not in shared:
            shared[name] = _entry_rounds(ax, cf.subsets[name], goals[name]), {}
        rounds, nodes = shared[name]
        covered = rounds[atom] is not None
        word = "covered" if covered else "uncovered"
        yield f"{ax.carrier[atom]} {name} {word}"
        if with_derivations and covered:
            yield from render_derivation(ax, _derivation(ax, rounds, atom, nodes))


def run_queries(cf: CoverFile, with_derivations: bool = False) -> list[str]:
    return list(iter_queries(cf, with_derivations))
