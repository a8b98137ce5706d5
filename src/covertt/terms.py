"""Core term language.

Terms are a first-order syntax tree with nameless (de Bruijn index) binding.
Exactly four node kinds bind a variable: ``Pi`` (codomain), ``Sigma``
(second component), ``Lam`` (body) and ``Let`` (body, where the variable
stands for the value).  Every other argument position,
including the family parameters of ``W``/``DW``/``WP``/``Cover`` and the
motives of eliminators, is an ordinary sub-term of function type.

Type-family formers (``DW``, ``WP``, ``Cover``) are terms of large function
type and are applied to their index with plain ``App``.

Terms, like the kernel's values, are immutable slotted records (``Node``):
built positionally, compared and hashed by class and fields, printed as
``App(fn=Var(index=0), arg=Star())``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional


class Node:
    """An immutable record, equal to another of the same class with equal
    fields.

    A subclass lists its fields in ``__slots__``, in order.  They are its
    ``__match_args__`` unless the class sets those itself: only the fields
    named there take part in equality, hashing and ``repr``.  A subclass
    without an ``__init__`` of its own takes its fields positionally; one
    with its own ``__init__`` stores them with ``self._fill(*fields)``.
    Nothing here generates code, so defining a node class costs a few
    closures, not a compilation.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__name__} must declare its fields in __slots__")
        slots = cls.__slots__
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = slots
        fields = cls.__match_args__
        # the key is the tuple of fields for two or more, the field itself
        # for one, and () (the empty __match_args__) for none
        cls._key = attrgetter(*fields) if fields else attrgetter("__match_args__")
        if len(fields) == 1 and "__hash__" not in cls.__dict__:
            cls.__hash__ = _hash_one
        cls._fill = _initializer(tuple(cls.__dict__[name].__set__ for name in slots))
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._fill

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # for copy and pickle, which would otherwise restore through __setattr__
        return _rebuild, (type(self), tuple([getattr(self, name) for name in self.__slots__]))


def _hash_one(self):
    """A one-field node hashes as the 1-tuple of its field, so that it does
    not hash like the field itself."""
    return hash((self._key(self),))


def _rebuild(cls, values):
    node = cls.__new__(cls)
    node._fill(*values)
    return node


def _initializer(setters):
    """A positional ``__init__`` storing its arguments through the slot
    descriptors' ``__set__``, past the refusing ``__setattr__``."""
    match setters:
        case ():
            def __init__(self):
                pass
        case (s0,):
            def __init__(self, a):
                s0(self, a)
        case (s0, s1):
            def __init__(self, a, b):
                s0(self, a)
                s1(self, b)
        case (s0, s1, s2):
            def __init__(self, a, b, c):
                s0(self, a)
                s1(self, b)
                s2(self, c)
        case (s0, s1, s2, s3):
            def __init__(self, a, b, c, d):
                s0(self, a)
                s1(self, b)
                s2(self, c)
                s3(self, d)
        case (s0, s1, s2, s3, s4):
            def __init__(self, a, b, c, d, e):
                s0(self, a)
                s1(self, b)
                s2(self, c)
                s3(self, d)
                s4(self, e)
        case _:
            raise TypeError("a node has at most five fields")
    return __init__


class Term(Node):
    __slots__ = ()


# --- sorts ---------------------------------------------------------------


class Univ(Term):
    """The universe of small types (Russell style)."""

    __slots__ = ()


class TypeSort(Term):
    """Classification of large types.

    Internal only: appears as an inference result, never inside user syntax.
    """

    __slots__ = ()


# --- variables, constants, annotations, definitions ----------------------


class Var(Term):
    __slots__ = ("index",)


class Const(Term):
    __slots__ = ("name",)


class Ann(Term):
    __slots__ = ("term", "type")


class Let(Term):
    """``let x : type := value in body``."""

    __slots__ = ("type", "value", "body")  # body binds one variable


# --- empty and unit -------------------------------------------------------


class Empty(Term):
    __slots__ = ()


class EmptyElim(Term):
    __slots__ = ("motive", "scrutinee")


class Unit(Term):
    __slots__ = ()


class Star(Term):
    __slots__ = ()


class UnitElim(Term):
    __slots__ = ("motive", "case", "scrutinee")


# --- dependent products ----------------------------------------------------


class Pi(Term):
    __slots__ = ("dom", "cod")  # cod binds one variable


class Lam(Term):
    __slots__ = ("body",)  # binds one variable


class App(Term):
    __slots__ = ("fn", "arg")


# --- dependent sums --------------------------------------------------------


class Sigma(Term):
    __slots__ = ("fst", "snd")  # snd binds one variable


class Pair(Term):
    __slots__ = ("fst", "snd")


class Proj1(Term):
    __slots__ = ("pair",)


class Proj2(Term):
    __slots__ = ("pair",)


class SigElim(Term):
    """Split: the positive eliminator, with explicit motive."""

    __slots__ = ("motive", "case", "scrutinee")


# --- disjoint sums ----------------------------------------------------------


class Sum(Term):
    __slots__ = ("left", "right")


class Inl(Term):
    __slots__ = ("value",)


class Inr(Term):
    __slots__ = ("value",)


class SumElim(Term):
    __slots__ = ("motive", "case_left", "case_right", "scrutinee")


# --- identity types ---------------------------------------------------------


class Id(Term):
    __slots__ = ("type", "lhs", "rhs")


class Refl(Term):
    __slots__ = ("value",)


class J(Term):
    __slots__ = ("motive", "refl_case", "lhs", "rhs", "proof")


# --- well-founded trees ------------------------------------------------------


class W(Term):
    __slots__ = ("label", "branch")  # branch: label -> U0


class Sup(Term):
    __slots__ = ("label", "branch")


class WElim(Term):
    __slots__ = ("motive", "step", "scrutinee")


# --- dependent well-founded trees --------------------------------------------


class DW(Term):
    """Family former; ``DW I N Br ar : I -> U0``."""

    __slots__ = (
        "index",
        "names",  # (i : I) -> U0
        "branch",  # (i : I) -> N i -> U0
        "arity",  # (i : I) -> (n : N i) -> Br i n -> I
    )


class DSup(Term):
    __slots__ = ("index", "name", "branch")


class DWElim(Term):
    __slots__ = ("motive", "step", "index", "scrutinee")


# --- well-founded predicates ---------------------------------------------------


class WP(Term):
    """Family former; ``WP I N R : I -> U0``."""

    __slots__ = (
        "index",
        "names",  # (i : I) -> U0
        "rules",  # (i : I) -> N i -> I -> U0
    )


class Ind(Term):
    __slots__ = ("index", "name", "premises")


class WPElim(Term):
    __slots__ = ("motive", "step", "index", "scrutinee")


# --- inductive basic covers -----------------------------------------------------


class Cover(Term):
    """Family former; ``Cover A I C V : A -> U0``."""

    __slots__ = (
        "carrier",
        "labels",  # (a : A) -> U0
        "axioms",  # (a : A) -> I a -> A -> U0
        "subset",  # A -> U0
    )


class Rf(Term):
    __slots__ = ("element", "membership")


class Tr(Term):
    __slots__ = ("element", "label", "premises")


class CoverElim(Term):
    __slots__ = ("motive", "rf_case", "tr_case", "element", "scrutinee")


# --- structural operations -------------------------------------------------------

# Number of variables each field binds, keyed by (class, field); default 0.
_BINDING_FIELDS = {
    (Pi, "cod"): 1,
    (Sigma, "snd"): 1,
    (Lam, "body"): 1,
    (Let, "body"): 1,
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
    cls: ()
    if cls is Var or cls is Const
    else tuple((name, _BINDING_FIELDS.get((cls, name), 0)) for name in cls.__match_args__)
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


def reads(t: Term) -> set:
    """The variables that occur free in ``t``, as indices from outside it.
    The walk keeps its own stack, so a term of any depth is answered."""
    found, stack = set(), [(t, 0)]  # subterms, with the binders around them
    while stack:
        u, bound = stack.pop()
        if type(u) is not Var:
            for name, n in CHILDREN[type(u)]:
                stack.append((getattr(u, name), bound + n))
        elif u.index >= bound:
            found.add(u.index - bound)
    return found


def free_in(t: Term, index: int) -> bool:
    """Whether variable ``index`` occurs free in ``t`` (``reads``)."""
    return index in reads(t)


def strengthen(t: Term, index: int = 0) -> Term:
    """Remove an unused variable, shifting higher indices down.

    Precondition: ``index`` does not occur free in ``t``.
    """
    if isinstance(t, Var):
        if t.index == index:
            raise ValueError("strengthen: variable occurs")
        return Var(t.index - 1) if t.index > index else t
    return map_subterms(t, lambda c, d: strengthen(c, index + d))


# --- declarations ----------------------------------------------------------------


class Declaration(Node):
    __slots__ = ("name", "type", "body", "location")

    def __init__(self, name: str, type: Term, body: Optional[Term] = None, location: str = "?"):
        self._fill(name, type, body, location)


# --- judgmental-equality flags ------------------------------------------------------


class Flags(Node):
    """The four independent extensions of the base theory.

    ``eta_pi``, ``eta_sigma`` and ``eta_unit`` switch on the judgmental
    uniqueness rules for functions, pairs and the unit type; ``funext``
    makes the function-extensionality constant available.  All default off,
    and enabling a flag only ever extends convertibility and typability.
    """

    __slots__ = FLAG_NAMES = ("eta_pi", "eta_sigma", "eta_unit", "funext")

    def __init__(
        self, eta_pi: bool = False, eta_sigma: bool = False, eta_unit: bool = False,
        funext: bool = False,
    ):
        self._fill(eta_pi, eta_sigma, eta_unit, funext)

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
