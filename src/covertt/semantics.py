"""Evaluation into a semantic domain, type-directed readback and conversion.

Readback turns a value into a beta-normal term.  The uniqueness rules for
functions, pairs and the unit type live in its type-directed cases: values
at Pi type are re-expanded to lambdas when ``eta_pi`` is on, values at Sigma
type become pairs of their projections under ``eta_sigma``, and at the unit
type every value reads back as ``star`` under ``eta_unit``.

Conversion compares two values directly.  It walks both values at once
through the same typed cases as readback and stops at the first difference.
It answers without descending where the two sides, or two closures or
frames of a neutral's spine about to be instantiated or typed, are the same
object, or closures with the same body object whose environments agree
where the body reads them (``Evaluator._same``): the idea of flat closure
conversion, without rewriting any body.  It is equal by construction to
reading both values back and comparing the terms, which the test suite
keeps as its oracle.

``eta_unit`` additionally lets the unit eliminator fire on any scrutinee
(every inhabitant is judgmentally ``star`` under that rule), which is what
makes unit-type coercions between indexed families compute.

Each typing rule's field types are defined once, as ``Evaluator`` methods:
formation (``type_field``), introduction (``value_field``) and elimination
(``motive_type``, ``case_types``).  The checker checks a term's fields
against them, and readback and conversion read them to type a value's
fields and an eliminator frame's arguments.  An eliminator's case types
are built from the introductions of the type it eliminates: one case per
introduction, over its fields and, for a tree, the induction hypothesis.

Every canonical value but a function is one record, ``VIntro``: its term
class and its fields' values, as a neutral's ``Frame`` is for an
elimination.  A type former builds an element of the universe, so it is an
introduction too: ``Sum A B`` evaluates to ``VIntro(Sum, (A, B))``.  Only
the binders ``Pi`` and ``Sigma`` keep classes of their own, and a family
applied to its index is one ``VApplied``.  The rules' tables are keyed by
term class, and ``type_former`` gives a type's key.  Readback, conversion
and the rules dispatch on identity tests of classes and forms.

Every eliminator computes by one rule, ``Evaluator.elim``, read from the
same tables.  On an introduction it fires the case at that introduction's
place among the type's introductions (``CASES``) on the introduction's
fields and, for a tree, on the induction hypothesis: a curried function
over the position of a subtree (one component for ``sup`` and ``dsup``,
two for ``ind`` and ``tr``) that eliminates the subtree there.  On a
neutral it becomes a ``Frame`` of the motive and the cases.  The unit
eliminator under ``eta_unit`` is the one exception, as above.  Every
eliminator's term is its motive, its cases, the scrutinee's indices (J's
endpoints, a family's index, or none) and the scrutinee.  Nothing evaluates
the indices: readback, conversion and the result type (``elim_motive``) read
them from the scrutinee's type (``type_index``).

``Evaluator.steps`` counts every eliminator step the evaluator takes;
``restart_budget`` gives the next piece of work, one declaration or one
top-level call, the whole ``step_limit``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

from . import terms as T
from .terms import Flags, Node, Term


class KernelBug(Exception):
    """Internal invariant violation: evaluation hit an ill-typed shape.

    Callers guarantee typedness, so this indicates a bug, not a user error.
    """


class EvalBudgetExceeded(Exception):
    """The step guard tripped; primitive recursion should always terminate."""


# --- values -------------------------------------------------------------------


class Record(Node):
    """A ``Node`` of the evaluator: compared, hashed, printed and pickled as
    a node is, but with ``object``'s attribute assignment, so that a
    constructor's ``self.field = value`` is CPython's own slot store rather
    than a call through the slot descriptor.  Nothing assigns a field
    outside its class's ``__init__``; a test walks the package for that.
    Terms, ``Flags`` and the other nodes keep refusing assignment."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


class Value(Record):
    __slots__ = ()


class VSort(Value):
    """``U0``, or the large classification ``Type``, which is also the
    checking target of a type of either sort."""

    __slots__ = ("kind",)  # "u0" | "type"


V_U0 = VSort("u0")
V_TYPE = VSort("type")


class Closure(Record):
    __slots__ = ("env", "body")  # a tuple of values, a term under one binder

    def __init__(self, env, body):
        self.env, self.body = env, body


class PyClosure(Record):
    __slots__ = ("fn",)  # a Python function from values to values

    def __init__(self, fn):
        self.fn = fn


def constant_family(v: Value) -> PyClosure:
    return PyClosure(lambda _arg: v)


class VPi(Value):
    __slots__ = ("dom", "cod")  # cod: a closure

    def __init__(self, dom, cod):
        self.dom, self.cod = dom, cod


class VLam(Value):
    __slots__ = ("clo",)  # a closure

    def __init__(self, clo):
        self.clo = clo


class VSigma(Value):
    __slots__ = ("dom", "cod")  # cod: a closure


class VIntro(Value):
    """A canonical value other than a function or a binder type: ``form``
    is the term class that built it and ``args`` the values of its fields,
    in order.  An introduction (``Pair``, ``Inl``, ``Sup``, ...) builds an
    element of a type; a type former (``Sum``, ``Id``, ``W``, ...) builds an
    element of the universe, or for ``DW``, ``WP`` and ``Cover`` a family
    over its index type."""

    __slots__ = ("form", "args")

    def __init__(self, form, args):
        self.form, self.args = form, args


class VApplied(Value):
    """A family former applied to an index: ``fam`` is the family's
    ``VIntro`` record and ``idx`` the index."""

    __slots__ = ("fam", "idx")


# --- neutrals ----------------------------------------------------------------------


class HVar(Record):
    __slots__ = ("level", "type")  # a de Bruijn level and its type

    def __init__(self, level, ty):
        self.level, self.type = level, ty


class HConst(Record):
    __slots__ = ("name", "type")


class Frame(Record):
    """One elimination on a neutral's spine.  ``form`` is the term class
    that reads it back (``App``, ``Proj1``, ``Proj2`` or an eliminator) and
    ``args`` the values of that term's fields other than the neutral, in
    order, less an eliminator's indices: those are read from the type of
    the neutral, so an eliminator's frame holds its motive and cases."""

    __slots__ = ("form", "args")

    def __init__(self, form, args):
        self.form, self.args = form, args


class VNeutral(Value):
    __slots__ = ("head", "frames")  # an HVar or HConst, a tuple of Frames

    def __init__(self, head, frames):
        self.head, self.frames = head, frames


def fresh(level: int, ty: Value) -> VNeutral:
    return VNeutral(HVar(level, ty), ())


# --- the evaluator -------------------------------------------------------------------


class GlobalEntry(Record):
    """A checked global: its type and its value."""

    __slots__ = ("type_value", "value")


class Evaluator:
    """Shared machinery for evaluation, readback and conversion.

    Values are never changed once built (``Record``), but ``steps`` is a
    mutable counter of eliminator steps checked against the budget, and
    ``read_positions`` a cache that grows, so an evaluator must not be
    shared across threads.
    """

    def __init__(self, globals_env=None, flags: Flags = Flags(), step_limit: int = 2_000_000):
        self.globals = globals_env if globals_env is not None else {}
        self.flags = flags
        self.step_limit = step_limit
        self.steps = 0  # every step this evaluator has taken
        self.budget_start = 0  # ``steps`` when the current budget began
        self.read_positions = {}  # id(body) -> (body, the variables it reads)

    def restart_budget(self):
        """Give the next piece of work (a declaration, a normalization) the
        full ``step_limit``."""
        self.budget_start = self.steps

    def _tick(self):
        self.steps += 1
        if self.steps - self.budget_start > self.step_limit:
            raise EvalBudgetExceeded(
                f"evaluation exceeded {self.step_limit} eliminator steps"
            )

    # -- closures

    def apply_clo(self, clo: Closure | PyClosure, arg: Value) -> Value:
        if isinstance(clo, PyClosure):
            return clo.fn(arg)
        return self.eval(clo.env + (arg,), clo.body)

    # -- application and projections

    def apply(self, f: Value, arg: Value) -> Value:
        cls = type(f)
        if cls is VLam:
            self._tick()
            return self.apply_clo(f.clo, arg)
        if cls is VNeutral:
            return VNeutral(f.head, f.frames + (Frame(T.App, (arg,)),))
        if cls is VIntro and f.form in FAMILIES:
            return VApplied(f, arg)
        raise KernelBug(f"application of non-function value {_describe(f)}")

    def apply_many(self, f: Value, *args: Value) -> Value:
        for a in args:
            f = self.apply(f, a)
        return f

    def proj(self, form, v: Value) -> Value:
        """``fst v`` when ``form`` is ``Proj1``, ``snd v`` when it is ``Proj2``."""
        first = form is T.Proj1
        cls = type(v)
        if cls is VIntro and v.form is T.Pair:
            return v.args[0 if first else 1]
        if cls is VNeutral:
            return VNeutral(v.head, v.frames + (Frame(form, ()),))
        raise KernelBug(f"{'fst' if first else 'snd'} of non-pair")

    # -- the computation rule

    def elim(self, elim, args: tuple, s: Value) -> Value:
        """The eliminator ``elim`` on the scrutinee ``s``.  ``args`` are the
        values of the motive and of the cases, one per introduction; the
        scrutinee's indices are read from its type where they are needed."""
        if elim is T.UnitElim and self.flags.eta_unit:
            # under eta_unit every element of N1 is star, so the case fires
            # whatever the scrutinee
            self._tick()
            return args[1]
        if isinstance(s, VNeutral):
            return VNeutral(s.head, s.frames + (Frame(elim, args),))
        cases = CASES[elim]
        if type(s) is not VIntro or s.form not in cases:
            raise KernelBug(f"{elim.__name__} on {_describe(s)}")
        self._tick()
        vals = s.args
        positions = TREES.get(s.form)
        if positions is not None:
            vals += (self._hypothesis(elim, args, vals[-1], positions, ()),)
        return self.apply_many(args[1 + cases.index(s.form)], *vals)

    def _hypothesis(self, elim, args: tuple, f: Value, positions: int, pos: tuple) -> Value:
        """The induction hypothesis of a tree whose subtrees are ``f``: a
        curried function over the ``positions`` components of a subtree's
        position, eliminating the subtree there.  ``pos`` holds the
        components given so far."""
        if len(pos) == positions:
            return self.elim(elim, args, self.apply_many(f, *pos))
        return VLam(
            PyClosure(lambda x: self._hypothesis(elim, args, f, positions, pos + (x,)))
        )

    # -- evaluation

    def eval(self, env: tuple, t: Term) -> Value:
        cls = type(t)
        if cls is T.Var:
            return env[-1 - t.index]
        if cls is T.App:
            return self.apply(self.eval(env, t.fn), self.eval(env, t.arg))
        if cls is T.Lam:
            return VLam(Closure(env, t.body))
        if cls is T.Const:
            entry = self.globals.get(t.name)
            if entry is None:
                raise KernelBug(f"unbound constant {t.name!r} during evaluation")
            return entry.value
        if cls in CANONICAL:
            # a type former or an introduction
            args = [self.eval(env, getattr(t, name)) for name in _FIELD_NAMES[cls]]
            return VIntro(cls, tuple(args))
        names = _ELIM_FIELDS.get(cls)
        if names is not None:
            *args, s = [self.eval(env, getattr(t, name)) for name in names]
            return self.elim(cls, tuple(args), s)
        if cls is T.Pi:
            return VPi(self.eval(env, t.dom), Closure(env, t.cod))
        if cls is T.Sigma:
            return VSigma(self.eval(env, t.fst), Closure(env, t.snd))
        if cls is T.Proj1 or cls is T.Proj2:
            return self.proj(cls, self.eval(env, t.pair))
        if cls is T.Let:  # the zeta rule: the bound variable is the value
            return self.eval(env + (self.eval(env, t.value),), t.body)
        if cls is T.Ann:
            return self.eval(env, t.term)
        if cls is T.Univ:
            return V_U0
        raise KernelBug(f"eval: unhandled term {cls.__name__}")

    # -- the typing rules --------------------------------------------------------
    #
    # Forms are named by their term class.  A rule's fields form a telescope:
    # the type of field k is computed from ``vals[0..k-1]``, the values of the
    # fields before it, and reads no other field.  So the checker, which
    # evaluates a field only once it has checked it, reads the same rules as
    # readback and conversion, which hold every field.  A field whose type is
    # a sort is itself a type.  The rules read a former's fields by position:
    # the three family formers list their index type first, their names
    # (DW, WP) or labels (Cover) second, and their branches, rules or axioms
    # third; a cover's subset is fourth, and DW's arity too.

    def type_field(self, former, vals, k: int) -> Value:
        """The type of field ``k`` of a type built by ``former`` (``App`` for
        an applied family)."""
        if former is T.Sum:
            return V_U0
        if former is T.Id:
            return V_U0 if k == 0 else vals[0]
        if former is T.App:
            return V_TYPE if k == 0 else vals[0].args[0]
        # W, DW, WP and Cover: a small type, then predicates and relations on it
        if k == 0:
            return V_U0
        i = vals[0]
        if k == 1 or (former is T.Cover and k == 3):
            # W's branches, the names of DW and WP, a cover's labels and subset
            return _predicates(i)
        n = vals[1]
        if former is T.DW and k == 3:
            # DW's arity: (x : I) -> (y : N x) -> Br x y -> I
            br = vals[2]
            return VPi(
                i,
                PyClosure(
                    lambda x: VPi(
                        self.apply(n, x),
                        PyClosure(lambda y: VPi(self.apply_many(br, x, y), constant_family(i))),
                    )
                ),
            )
        # DW's branches, WP's rules and a cover's axioms: (x : I) -> N x -> [I ->] U0
        cod = V_U0 if former is T.DW else _predicates(i)
        return VPi(i, PyClosure(lambda x: VPi(self.apply(n, x), constant_family(cod))))

    def formation_type(self, former, vals) -> Value:
        """The type of a type built by ``former``: a family is a predicate on
        its index type, any other type is small."""
        return _predicates(vals[0]) if former in FAMILIES else V_U0

    def value_field(self, intro, ty: Value, vals, k: int) -> Value:
        """The type of field ``k`` of an ``intro`` value of type ``ty``, one
        that ``inhabits`` accepts."""
        # identity tests, not class patterns: these rules are on the hot
        # path of conversion, and a class pattern costs several times an
        # identity test
        if type(ty) is VApplied:
            # an index, then rf's membership proof, or the name or label of
            # dsup, ind and tr followed by their subtrees
            fam = ty.fam.args
            if k == 0:
                return fam[0]
            if intro is T.Rf:
                return self.apply(fam[3], vals[0])
            if k == 1:
                return self.apply(fam[1], vals[0])
            return self.subtrees(ty, vals, lambda idx, *_: VApplied(ty.fam, *idx))
        if type(ty) is VSigma:
            return ty.dom if k == 0 else self.apply_clo(ty.cod, vals[0])
        former, args = ty.form, ty.args
        if former is T.Sum:
            return args[0] if intro is T.Inl else args[1]
        if former is T.Id:
            return args[0]
        if former is T.W:
            return args[0] if k == 0 else self.subtrees(ty, vals, lambda *_: ty)
        raise KernelBug(f"value_field: no {intro.__name__} at {former.__name__}")

    def subtrees(self, ty: Value, vals, cod) -> Value:
        """The type of the subtree function of a tree of type ``ty`` whose
        earlier fields are ``vals``: a function over the positions of its
        subtrees into ``cod(index, *position)``, where ``index`` is the
        tuple of indices of the subtree at that position.  ``cod`` gives the
        subtree's type in the introduction rule and the induction hypothesis
        in the elimination rule."""
        if type(ty) is VIntro:  # W
            return VPi(self.apply(ty.args[1], vals[0]), PyClosure(lambda x: cod((), x)))
        fam = ty.fam.args
        x, y = vals[0], vals[1]
        if ty.fam.form is T.DW:
            return VPi(
                self.apply_many(fam[2], x, y),
                PyClosure(lambda b: cod((self.apply_many(fam[3], x, y, b),), b)),
            )
        # WP rules and cover axioms: (j : I) -> R x y j -> <subtree at j>
        return VPi(
            fam[0],
            PyClosure(
                lambda j: VPi(
                    self.apply_many(fam[2], x, y, j), PyClosure(lambda r: cod((j,), j, r))
                )
            ),
        )

    def motive_type(self, elim, ty: Value) -> Optional[Value]:
        """The type of the motive of the eliminator ``elim`` on a scrutinee
        of type ``ty``; None when ``elim`` does not eliminate ``ty``."""
        former = type_former(ty)
        if _ELIMINATOR.get(former) is not elim:
            return None
        if former is T.Id:
            a = ty.args[0]
            return VPi(
                a,
                PyClosure(
                    lambda x: VPi(
                        a,
                        PyClosure(lambda y: VPi(VIntro(T.Id, (a, x, y)), constant_family(V_TYPE))),
                    )
                ),
            )
        if type(ty) is VApplied:
            fam = ty.fam
            return VPi(
                fam.args[0], PyClosure(lambda i: VPi(VApplied(fam, i), constant_family(V_TYPE)))
            )
        return VPi(ty, constant_family(V_TYPE))

    def case_types(self, ty: Value, motive: Value) -> tuple:
        """The types of the cases of the eliminator with ``motive`` on a
        scrutinee of type ``ty``, one per introduction of ``ty``: a function
        over the introduction's fields, and for a tree over the induction
        hypothesis, into the motive at the value introduced."""
        return tuple([self._case_type(i, ty, motive, ()) for i in INTROS[type_former(ty)]])

    def _case_type(self, intro, ty: Value, motive: Value, vals: tuple) -> Value:
        k = len(vals)
        if k < len(_FIELD_NAMES[intro]):
            return VPi(
                self.value_field(intro, ty, vals, k),
                PyClosure(lambda x: self._case_type(intro, ty, motive, vals + (x,))),
            )
        # a canonical value's indices are all its first field
        # (refl x : Id A x x, dsup i n f : DW I N Br ar i)
        args = vals[:1] * len(type_index(ty)) + (VIntro(intro, vals),)
        if intro not in TREES:
            return self.apply_many(motive, *args)
        f = vals[-1]
        hyp = self.subtrees(
            ty, vals, lambda idx, *pos: self.apply_many(motive, *idx, self.apply_many(f, *pos))
        )
        return VPi(hyp, PyClosure(lambda _h: self.apply_many(motive, *args)))

    def frame_types(self, cur: Value, scrut: VNeutral, frame):
        """Types of ``frame``'s fields, in order, and of its result, when it
        eliminates the neutral ``scrut`` of type ``cur``."""
        form = frame.form
        if form is T.App:
            if not isinstance(cur, VPi):
                raise KernelBug("readback: application at non-function type")
            return (cur.dom,), self.apply_clo(cur.cod, frame.args[0])
        if form is T.Proj1 or form is T.Proj2:
            if not isinstance(cur, VSigma):
                raise KernelBug("readback: projection at non-Sigma type")
            if form is T.Proj1:
                return (), cur.dom
            return (), self.apply_clo(cur.cod, self.proj(T.Proj1, scrut))
        m_ty = self.motive_type(form, cur)
        if m_ty is None:
            raise KernelBug(f"readback: {form.__name__} at {_describe(cur)}")
        motive = frame.args[0]
        return (m_ty, *self.case_types(cur, motive)), self.apply(self.elim_motive(cur, motive), scrut)

    def elim_motive(self, ty: Value, motive: Value) -> Value:
        """``motive`` at the indices of ``ty``: applied to a scrutinee of
        type ``ty``, it gives the type of that scrutinee's elimination."""
        for i, _ in type_index(ty):
            motive = self.apply(motive, i)
        return motive

    # -- readback ------------------------------------------------------------

    def readback(self, v: Value, ty: Value, depth: int) -> Term:
        """Type-directed readback to a beta-normal term."""
        flags = self.flags
        cls = type(ty)
        if cls is VSort:
            return self.readback_type(v, depth)
        if cls is VPi:
            if flags.eta_pi or type(v) is VLam:
                var = fresh(depth, ty.dom)
                body = self.apply(v, var) if flags.eta_pi else self.apply_clo(v.clo, var)
                return T.Lam(self.readback(body, self.apply_clo(ty.cod, var), depth + 1))
            if type(v) is VIntro:
                # bare family formers are values of large function type
                return self.readback_type(v, depth)
        elif cls is VSigma and flags.eta_sigma:
            a = self.proj(T.Proj1, v)
            return T.Pair(
                self.readback(a, ty.dom, depth),
                self.readback(self.proj(T.Proj2, v), self.apply_clo(ty.cod, a), depth),
            )
        elif flags.eta_unit and type_former(ty) is T.Unit:
            return T.Star()
        if isinstance(v, VNeutral):
            return self.readback_neutral(v, depth)
        if type(v) is not VIntro or not inhabits(v.form, ty):
            raise KernelBug(f"readback: {_describe(v)} at type {_describe(ty)}")
        intro, vals = v.form, v.args
        types = (self.value_field(intro, ty, vals, k) for k in range(len(vals)))
        return intro(*map(self.readback, vals, types, repeat(depth)))

    def readback_type(self, v: Value, depth: int) -> Term:
        cls = type(v)
        if cls is VSort:
            return T.Univ() if v.kind == "u0" else T.TypeSort()
        if cls is VPi or cls is VSigma:
            var = fresh(depth, v.dom)
            return (T.Pi if cls is VPi else T.Sigma)(
                self.readback_type(v.dom, depth),
                self.readback_type(self.apply_clo(v.cod, var), depth + 1),
            )
        if cls is VNeutral:
            return self.readback_neutral(v, depth)
        former, vals = _former_fields(v)
        types = (self.type_field(former, vals, k) for k in range(len(vals)))
        return former(*map(self.readback, vals, types, repeat(depth)))

    def readback_neutral(self, v: VNeutral, depth: int) -> Term:
        head = v.head
        if isinstance(head, HVar):
            if head.level >= depth:
                raise KernelBug("readback: variable level out of scope")
            acc: Term = T.Var(depth - 1 - head.level)
        else:
            acc = T.Const(head.name)
        cur = head.type
        for k, frame in enumerate(v.frames):
            types, result = self.frame_types(cur, VNeutral(head, v.frames[:k]), frame)
            args = [self.readback(x, t, depth) for x, t in zip(frame.args, types)]
            # an eliminator's term also records the scrutinee's indices,
            # which come from its type, not from the frame
            for x, t in type_index(cur):
                args.append(self.readback(x, t, depth))
            acc = T.App(acc, *args) if frame.form is T.App else frame.form(*args, acc)
            cur = result
        return acc

    # -- conversion -------------------------------------------------------------
    #
    # Conversion walks both values at once, through the same typed cases and
    # field tables as readback, and stops at the first difference.  A pair is
    # convertible exactly when the two readbacks are equal terms.  Every
    # comparison asks ``_same`` before it instantiates two closures or types
    # two spines' frames (``Checker.subsumes`` too, at codomains): the same
    # object, or closures with the same body that agree where it reads their
    # environments, answer without descending.  Under eta_pi both sides are
    # applied to one fresh variable, under eta_sigma their projections are
    # compared, and under eta_unit any two values at the unit type are equal.
    # Neutral spines are typed frame by frame as readback types them, so
    # eta_unit also holds at frame arguments and no pair has to be read back.

    def equal(self, a: Value, b: Value, ty: Value, depth: int) -> bool:
        """One conversion problem of the checker (``conv`` recurses)."""
        return self.conv(a, b, ty, depth)

    def equal_types(self, a: Value, b: Value, depth: int) -> bool:
        """One type conversion problem of the checker (``conv_type`` recurses)."""
        return self.conv_type(a, b, depth)

    def conv(self, a: Value, b: Value, ty: Value, depth: int) -> bool:
        """Whether ``a`` and ``b`` of type ``ty`` read back to the same term."""
        if a is b:
            return True
        flags = self.flags
        cls = type(ty)
        if cls is VSort:
            return self.conv_type(a, b, depth)
        if cls is VPi:
            lams = type(a) is VLam and type(b) is VLam
            if lams and self._same(a.clo, b.clo):
                return True
            if flags.eta_pi or lams:
                var = fresh(depth, ty.dom)
                if flags.eta_pi:
                    a, b = self.apply(a, var), self.apply(b, var)
                else:
                    a, b = self.apply_clo(a.clo, var), self.apply_clo(b.clo, var)
                return self.conv(a, b, self.apply_clo(ty.cod, var), depth + 1)
            if type(a) is VIntro:
                # bare family formers are values of large function type
                return self.conv_type(a, b, depth)
        elif cls is VSigma and flags.eta_sigma:
            a1 = self.proj(T.Proj1, a)
            return self.conv(a1, self.proj(T.Proj1, b), ty.dom, depth) and self.conv(
                self.proj(T.Proj2, a), self.proj(T.Proj2, b), self.apply_clo(ty.cod, a1), depth
            )
        elif flags.eta_unit and type_former(ty) is T.Unit:
            return True
        if isinstance(a, VNeutral) or isinstance(b, VNeutral):
            both = isinstance(a, VNeutral) and isinstance(b, VNeutral)
            return both and self.conv_neutral(a, b, depth)
        # values of different classes or forms differ before ``a`` is typed
        if type(a) is not type(b) or type(a) is VIntro and b.form is not a.form:
            return False
        if type(a) is not VIntro or not inhabits(a.form, ty):
            raise KernelBug(f"conv: {_describe(a)} at type {_describe(ty)}")
        fa, fb = a.args, b.args
        for k, x in enumerate(fa):
            # field k's type is computed only once fields 0..k-1 are equal
            if not self.conv(x, fb[k], self.value_field(a.form, ty, fa, k), depth):
                return False
        return True

    def conv_type(self, a: Value, b: Value, depth: int) -> bool:
        """Whether the types ``a`` and ``b`` read back to the same term."""
        if a is b:
            return True
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is VSort:
            return a.kind == b.kind
        if cls is VPi or cls is VSigma:
            if not self.conv_type(a.dom, b.dom, depth):
                return False
            if self._same(a.cod, b.cod):
                return True
            var = fresh(depth, a.dom)
            return self.conv_type(
                self.apply_clo(a.cod, var), self.apply_clo(b.cod, var), depth + 1
            )
        if cls is VNeutral:
            return self.conv_neutral(a, b, depth)
        (former, fa), (other, fb) = _former_fields(a), _former_fields(b)
        if other is not former:
            return False
        for k, x in enumerate(fa):
            if not self.conv(x, fb[k], self.type_field(former, fa, k), depth):
                return False
        return True

    def conv_neutral(self, a: VNeutral, b: VNeutral, depth: int) -> bool:
        """Same head, same spine length, then the frames in order.  Frames
        that are the same (``_same``) need no types, so the walk types the
        spine only up to the last frame that differs.  The indices an
        eliminator's term records are those of the type the spine before it
        gives, so they need no comparison of their own."""
        ha, hb = a.head, b.head
        if isinstance(ha, HVar):
            if not (isinstance(hb, HVar) and ha.level == hb.level):
                return False
        elif not (isinstance(hb, HConst) and ha.name == hb.name):
            return False
        fa, fb = a.frames, b.frames
        if len(fa) != len(fb) or any(f.form is not g.form for f, g in zip(fa, fb)):
            return False
        last = next((k for k in reversed(range(len(fa))) if not self._same(fa[k], fb[k])), -1)
        cur = ha.type
        for k in range(last + 1):
            types, result = self.frame_types(cur, VNeutral(ha, fa[:k]), fa[k])
            if not all(map(self.conv, fa[k].args, fb[k].args, types, repeat(depth))):
                return False
            cur = result
        return True

    def _same(self, x, y) -> bool:
        """Structural identity: the same object, or the same class with fields
        that are recursively the same.  Closures are the same when they have
        the same body object and the same entries at the positions of their
        environments that the body reads.  It implies equal readback at every
        type."""
        if x is y:
            return True
        cls = type(x)
        if cls is not type(y):
            return False
        if cls is tuple:
            return len(x) == len(y) and all(map(self._same, x, y))
        if cls is Closure:
            if x.body is not y.body:
                return False
            ex, ey = x.env, y.env
            return all(self._same(ex[-k], ey[-k]) for k in self.reads(x.body) if k)
        if cls is PyClosure:
            return False
        if cls is Frame or cls is VIntro:
            return x.form is y.form and self._same(x.args, y.args)
        if cls is int or cls is str:
            return x == y
        return all(map(self._same, _fields(x), _fields(y)))

    def reads(self, body: Term) -> set:
        """The variables a closure's ``body`` reads (``terms.reads``), found
        once per body object: 0 for its own, k for its environment's entry
        ``env[-k]``."""
        entry = self.read_positions.get(id(body))
        if entry is None:
            entry = self.read_positions[id(body)] = (body, T.reads(body))
        return entry[1]


def _fields(x) -> list:
    """A value's fields in declaration order."""
    return [getattr(x, name) for name in x.__match_args__]


def _describe(v) -> str:
    """A value's class, or the form of a ``VIntro``, for an error message."""
    return v.form.__name__ if type(v) is VIntro else type(v).__name__


_FIELD_NAMES = {cls: tuple(name for name, _ in children) for cls, children in T.CHILDREN.items()}

# type former -> its eliminator and its introductions, as term classes
_ELIMINATOR = {
    T.Sigma: T.SigElim,
    T.Sum: T.SumElim,
    T.Unit: T.UnitElim,
    T.Empty: T.EmptyElim,
    T.Id: T.J,
    T.W: T.WElim,
    T.DW: T.DWElim,
    T.WP: T.WPElim,
    T.Cover: T.CoverElim,
}
INTROS = {
    T.Sigma: (T.Pair,),
    T.Sum: (T.Inl, T.Inr),
    T.Unit: (T.Star,),
    T.Empty: (),
    T.Id: (T.Refl,),
    T.W: (T.Sup,),
    T.DW: (T.DSup,),
    T.WP: (T.Ind,),
    T.Cover: (T.Rf, T.Tr),
}
# the type formers whose values are ``VIntro`` records (Sigma binds, as Pi
# does, and has a class of its own), and those of them that form families
FORMERS = frozenset(INTROS) - {T.Sigma}
FAMILIES = frozenset({T.DW, T.WP, T.Cover})
# the term classes that evaluate to a ``VIntro``: formers and introductions
CANONICAL = FORMERS.union(*INTROS.values())
# introductions whose last field is a function to subtrees -> the number of
# components of a subtree's position
TREES = {T.Sup: 1, T.DSup: 1, T.Ind: 2, T.Tr: 2}

# eliminator -> the introductions of the type it eliminates, whose cases
# follow its motive in that order
CASES = {elim: INTROS[former] for former, elim in _ELIMINATOR.items()}
# eliminator -> the fields eval reads: the motive, the cases and the
# scrutinee, and not the indices between them, which its type gives
_ELIM_FIELDS = {
    elim: _FIELD_NAMES[elim][: 1 + len(cases)] + _FIELD_NAMES[elim][-1:]
    for elim, cases in CASES.items()
}


def type_former(ty: Value):
    """The term class that keys the tables for the type ``ty``: ``Sigma``,
    or the former of its record or of its applied family; None for a
    function type, a sort or a neutral."""
    cls = type(ty)
    if cls is VIntro:
        return ty.form
    if cls is VApplied:
        return ty.fam.form
    return T.Sigma if cls is VSigma else None


def _former_fields(ty: Value) -> tuple:
    """The term class that the record of a type former or an applied family
    reads back to (``App`` for the latter), and its fields' values."""
    cls = type(ty)
    if cls is VApplied:
        return T.App, (ty.fam, ty.idx)
    if cls is VIntro and ty.form in FORMERS:
        return ty.form, ty.args
    raise KernelBug(f"not a type value: {_describe(ty)}")


def inhabits(intro, ty: Value) -> bool:
    """Whether a value introduced by ``intro`` can have type ``ty``."""
    return intro in INTROS.get(type_former(ty), ())


def type_index(ty: Value) -> tuple:
    """The indices of ``ty``, each with its type: the endpoints of an
    identity type, the index of an applied family, none for other types."""
    cls = type(ty)
    if cls is VApplied:
        return ((ty.idx, ty.fam.args[0]),)
    if cls is VIntro and ty.form is T.Id:
        a, lhs, rhs = ty.args
        return (lhs, a), (rhs, a)
    return ()


def _predicates(ty: Value) -> Value:
    """The type ``ty -> U0``."""
    return VPi(ty, constant_family(V_U0))
