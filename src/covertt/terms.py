"""Core term language.

Terms are a first-order syntax tree with nameless (de Bruijn index) binding.
Exactly three node kinds bind a variable: ``Pi`` (codomain), ``Sigma``
(second component) and ``Lam`` (body).  Every other argument position,
including the family parameters of ``W``/``DW``/``WP``/``Cover`` and the
motives of eliminators, is an ordinary sub-term of function type.

Type-family formers (``DW``, ``WP``, ``Cover``) are terms of large function
type and are applied to their index with plain ``App``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Term:
    __slots__ = ()


# --- sorts ---------------------------------------------------------------


@dataclass(frozen=True)
class Univ(Term):
    """The universe of small types (Russell style)."""

    __slots__ = ()


@dataclass(frozen=True)
class TypeSort(Term):
    """Classification of large types.

    Internal only: appears as an inference result, never inside user syntax.
    """

    __slots__ = ()


# --- variables, constants, annotations -----------------------------------


@dataclass(frozen=True)
class Var(Term):
    index: int


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class Ann(Term):
    term: Term
    type: Term


# --- empty and unit -------------------------------------------------------


@dataclass(frozen=True)
class Empty(Term):
    __slots__ = ()


@dataclass(frozen=True)
class EmptyElim(Term):
    motive: Term
    scrutinee: Term


@dataclass(frozen=True)
class Unit(Term):
    __slots__ = ()


@dataclass(frozen=True)
class Star(Term):
    __slots__ = ()


@dataclass(frozen=True)
class UnitElim(Term):
    motive: Term
    case: Term
    scrutinee: Term


# --- dependent products ----------------------------------------------------


@dataclass(frozen=True)
class Pi(Term):
    dom: Term
    cod: Term  # binds one variable


@dataclass(frozen=True)
class Lam(Term):
    body: Term  # binds one variable


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


# --- dependent sums --------------------------------------------------------


@dataclass(frozen=True)
class Sigma(Term):
    fst: Term
    snd: Term  # binds one variable


@dataclass(frozen=True)
class Pair(Term):
    fst: Term
    snd: Term


@dataclass(frozen=True)
class Proj1(Term):
    pair: Term


@dataclass(frozen=True)
class Proj2(Term):
    pair: Term


@dataclass(frozen=True)
class SigElim(Term):
    """Split: the positive eliminator, with explicit motive."""

    motive: Term
    case: Term
    scrutinee: Term


# --- disjoint sums ----------------------------------------------------------


@dataclass(frozen=True)
class Sum(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Inl(Term):
    value: Term


@dataclass(frozen=True)
class Inr(Term):
    value: Term


@dataclass(frozen=True)
class SumElim(Term):
    motive: Term
    case_left: Term
    case_right: Term
    scrutinee: Term


# --- identity types ---------------------------------------------------------


@dataclass(frozen=True)
class Id(Term):
    type: Term
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Refl(Term):
    value: Term


@dataclass(frozen=True)
class J(Term):
    motive: Term
    refl_case: Term
    lhs: Term
    rhs: Term
    proof: Term


# --- well-founded trees ------------------------------------------------------


@dataclass(frozen=True)
class W(Term):
    label: Term
    branch: Term  # function term: label -> U0


@dataclass(frozen=True)
class Sup(Term):
    label: Term
    branch: Term


@dataclass(frozen=True)
class WElim(Term):
    motive: Term
    step: Term
    scrutinee: Term


# --- dependent well-founded trees --------------------------------------------


@dataclass(frozen=True)
class DW(Term):
    """Family former; ``DW I N Br ar : I -> U0``."""

    index: Term
    names: Term  # (i : I) -> U0
    branch: Term  # (i : I) -> N i -> U0
    arity: Term  # (i : I) -> (n : N i) -> Br i n -> I


@dataclass(frozen=True)
class DSup(Term):
    index: Term
    name: Term
    branch: Term


@dataclass(frozen=True)
class DWElim(Term):
    motive: Term
    step: Term
    index: Term
    scrutinee: Term


# --- well-founded predicates ---------------------------------------------------


@dataclass(frozen=True)
class WP(Term):
    """Family former; ``WP I N R : I -> U0``."""

    index: Term
    names: Term  # (i : I) -> U0
    rules: Term  # (i : I) -> N i -> I -> U0


@dataclass(frozen=True)
class Ind(Term):
    index: Term
    name: Term
    premises: Term


@dataclass(frozen=True)
class WPElim(Term):
    motive: Term
    step: Term
    index: Term
    scrutinee: Term


# --- inductive basic covers -----------------------------------------------------


@dataclass(frozen=True)
class Cover(Term):
    """Family former; ``Cover A I C V : A -> U0``."""

    carrier: Term
    labels: Term  # (a : A) -> U0
    axioms: Term  # (a : A) -> I a -> A -> U0
    subset: Term  # A -> U0


@dataclass(frozen=True)
class Rf(Term):
    element: Term
    membership: Term


@dataclass(frozen=True)
class Tr(Term):
    element: Term
    label: Term
    premises: Term


@dataclass(frozen=True)
class CoverElim(Term):
    motive: Term
    rf_case: Term
    tr_case: Term
    element: Term
    scrutinee: Term


# --- structural operations -------------------------------------------------------

# Number of variables each field binds, keyed by (class, field); default 0.
_BINDING_FIELDS = {
    (Pi, "cod"): 1,
    (Sigma, "snd"): 1,
    (Lam, "body"): 1,
}


def _term_classes(cls=Term):
    for sub in cls.__subclasses__():
        yield sub
        yield from _term_classes(sub)


# Term class -> its sub-term fields in declaration order, each with the number
# of variables it binds.  Only ``Var`` and ``Const`` have fields that are not
# terms, and they have no sub-terms; every other class is rebuilt from its
# children positionally.
CHILDREN = {
    cls: tuple(
        (f.name, _BINDING_FIELDS.get((cls, f.name), 0))
        for f in fields(cls)
        if f.type == "Term"
    )
    for cls in _term_classes()
}


def map_subterms(t: Term, fn, depth: int = 0) -> Term:
    """Rebuild ``t`` with ``fn(child, depth_under_binders)`` applied to each child."""
    children = CHILDREN[type(t)]
    if not children:
        return t
    changed = False
    args = []
    for name, binds in children:
        child = getattr(t, name)
        new = fn(child, depth + binds)
        if new is not child:
            changed = True
        args.append(new)
    return type(t)(*args) if changed else t


def weaken(t: Term, cutoff: int = 0, amount: int = 1) -> Term:
    """Shift free indices >= ``cutoff`` up by ``amount``."""
    if amount == 0:
        return t
    if isinstance(t, Var):
        return Var(t.index + amount) if t.index >= cutoff else t
    return map_subterms(t, lambda c, d: weaken(c, cutoff + d, amount))


def subst(t: Term, j: int, s: Term) -> Term:
    """Capture-avoiding substitution of index ``j`` by ``s``; higher indices drop by one."""
    if isinstance(t, Var):
        if t.index == j:
            return weaken(s, 0, j)
        if t.index > j:
            return Var(t.index - 1)
        return t
    return map_subterms(t, lambda c, d: subst(c, j + d, s))


def structural_eq(t: Term, u: Term) -> bool:
    """Alpha-equality: with nameless binding this is plain structural
    identity, the same as ``t == u``.  Kept as public API; the kernel's own
    conversion compares values (``Evaluator.conv``), not terms."""
    return t == u


def free_in(t: Term, index: int) -> bool:
    """Whether variable ``index`` occurs free in ``t``."""
    cls = type(t)
    if cls is Var:
        return t.index == index
    for name, binds in CHILDREN[cls]:
        if free_in(getattr(t, name), index + binds):
            return True
    return False


def closed(t: Term, depth: int = 0) -> bool:
    """Whether ``t`` mentions no constant and no variable bound outside it
    (or outside ``depth`` enclosing binders).  Such a term means the same
    thing in every context and under every global environment."""
    cls = type(t)
    if cls is Var:
        return t.index < depth
    if cls is Const:
        return False
    for name, binds in CHILDREN[cls]:
        if not closed(getattr(t, name), depth + binds):
            return False
    return True


def strengthen(t: Term, index: int = 0) -> Term:
    """Remove an unused variable, shifting higher indices down.

    Precondition: ``index`` does not occur free in ``t``.
    """
    if isinstance(t, Var):
        if t.index == index:
            raise ValueError("strengthen: variable occurs")
        return Var(t.index - 1) if t.index > index else t
    return map_subterms(t, lambda c, d: strengthen(c, index + d))


# --- judgmental-equality flags ------------------------------------------------------


@dataclass(frozen=True)
class Flags:
    """The four independent extensions of the base theory.

    ``eta_pi``, ``eta_sigma`` and ``eta_unit`` switch on the judgmental
    uniqueness rules for functions, pairs and the unit type; ``funext``
    makes the function-extensionality constant available.  All default off,
    and enabling a flag only ever extends convertibility and typability.
    """

    eta_pi: bool = False
    eta_sigma: bool = False
    eta_unit: bool = False
    funext: bool = False

    FLAG_NAMES = ("eta_pi", "eta_sigma", "eta_unit", "funext")

    @classmethod
    def from_names(cls, names) -> "Flags":
        names = set(names)
        unknown = names - set(cls.FLAG_NAMES)
        if unknown:
            raise ValueError(f"unknown flags: {sorted(unknown)}")
        return cls(**{n: n in names for n in cls.FLAG_NAMES})

    def names(self):
        return tuple(n for n in self.FLAG_NAMES if getattr(self, n))

    def includes(self, other: "Flags") -> bool:
        return all(getattr(self, n) or not getattr(other, n) for n in self.FLAG_NAMES)

    def union(self, other: "Flags") -> "Flags":
        return Flags(**{n: getattr(self, n) or getattr(other, n) for n in self.FLAG_NAMES})
