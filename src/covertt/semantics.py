"""Evaluation into a semantic domain, type-directed readback and conversion.

Readback turns a value into a beta-normal term.  The uniqueness rules for
functions, pairs and the unit type live in its type-directed cases: values
at Pi type are re-expanded to lambdas when ``eta_pi`` is on, values at Sigma
type become pairs of their projections under ``eta_sigma``, and at the unit
type every value reads back as ``star`` under ``eta_unit``.

Conversion compares two values directly.  It walks both values at once
through the same typed cases as readback and stops at the first difference.
It answers without descending where the two sides are the same object, or
closures with the same body and the same environment.  It is equal by
construction to reading both values back and comparing the terms, which the
test suite keeps as its oracle.

``eta_unit`` additionally lets the unit eliminator fire on any scrutinee
(every inhabitant is judgmentally ``star`` under that rule), which is what
makes unit-type coercions between indexed families compute.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional, Union

from . import terms as T
from .terms import Flags, Term


class KernelBug(Exception):
    """Internal invariant violation: evaluation hit an ill-typed shape.

    Callers guarantee typedness, so this indicates a bug, not a user error.
    """


class EvalBudgetExceeded(Exception):
    """The step guard tripped; primitive recursion should always terminate."""


# --- values -------------------------------------------------------------------


class Value:
    __slots__ = ()


@dataclass(frozen=True)
class VSort(Value):
    """``U0``, the large classification ``Type``, or the any-sort checking target."""

    kind: str  # "u0" | "type" | "any"


V_U0 = VSort("u0")
V_TYPE = VSort("type")
V_ANY = VSort("any")


@dataclass(frozen=True)
class Closure:
    env: tuple
    body: Term


@dataclass(frozen=True)
class PyClosure:
    fn: Callable[[Value], Value]


Clo = Union[Closure, PyClosure]


def constant_family(v: Value) -> PyClosure:
    return PyClosure(lambda _arg: v)


@dataclass(frozen=True)
class VPi(Value):
    dom: Value
    cod: Clo


@dataclass(frozen=True)
class VLam(Value):
    clo: Clo


@dataclass(frozen=True)
class VSigma(Value):
    fst: Value
    snd: Clo


@dataclass(frozen=True)
class VPair(Value):
    fst: Value
    snd: Value


@dataclass(frozen=True)
class VEmpty(Value):
    pass


@dataclass(frozen=True)
class VUnit(Value):
    pass


@dataclass(frozen=True)
class VStar(Value):
    pass


@dataclass(frozen=True)
class VSum(Value):
    left: Value
    right: Value


@dataclass(frozen=True)
class VInl(Value):
    value: Value


@dataclass(frozen=True)
class VInr(Value):
    value: Value


@dataclass(frozen=True)
class VId(Value):
    type: Value
    lhs: Value
    rhs: Value


@dataclass(frozen=True)
class VRefl(Value):
    value: Value


@dataclass(frozen=True)
class VW(Value):
    label: Value
    branch: Value


@dataclass(frozen=True)
class VSup(Value):
    label: Value
    branch: Value


@dataclass(frozen=True)
class VDW(Value):
    index: Value
    names: Value
    branch: Value
    arity: Value


@dataclass(frozen=True)
class VDWApp(Value):
    fam: VDW
    idx: Value


@dataclass(frozen=True)
class VDSup(Value):
    index: Value
    name: Value
    branch: Value


@dataclass(frozen=True)
class VWP(Value):
    index: Value
    names: Value
    rules: Value


@dataclass(frozen=True)
class VWPApp(Value):
    fam: VWP
    idx: Value


@dataclass(frozen=True)
class VInd(Value):
    index: Value
    name: Value
    premises: Value


@dataclass(frozen=True)
class VCover(Value):
    carrier: Value
    labels: Value
    axioms: Value
    subset: Value


@dataclass(frozen=True)
class VCoverApp(Value):
    fam: VCover
    elem: Value


@dataclass(frozen=True)
class VRf(Value):
    element: Value
    membership: Value


@dataclass(frozen=True)
class VTr(Value):
    element: Value
    label: Value
    premises: Value


# --- neutrals ----------------------------------------------------------------------


@dataclass(frozen=True)
class HVar:
    level: int
    type: Value


@dataclass(frozen=True)
class HConst:
    name: str
    type: Value


@dataclass(frozen=True)
class FApp:
    arg: Value


@dataclass(frozen=True)
class FProj1:
    pass


@dataclass(frozen=True)
class FProj2:
    pass


@dataclass(frozen=True)
class FSigElim:
    motive: Value
    case: Value


@dataclass(frozen=True)
class FSumElim:
    motive: Value
    case_left: Value
    case_right: Value


@dataclass(frozen=True)
class FUnitElim:
    motive: Value
    case: Value


@dataclass(frozen=True)
class FEmptyElim:
    motive: Value


@dataclass(frozen=True)
class FJ:
    motive: Value
    refl_case: Value
    lhs: Value
    rhs: Value


@dataclass(frozen=True)
class FWElim:
    motive: Value
    step: Value


@dataclass(frozen=True)
class FDWElim:
    motive: Value
    step: Value


@dataclass(frozen=True)
class FWPElim:
    motive: Value
    step: Value


@dataclass(frozen=True)
class FCoverElim:
    motive: Value
    rf_case: Value
    tr_case: Value


@dataclass(frozen=True)
class VNeutral(Value):
    head: Union[HVar, HConst]
    frames: tuple = ()


def fresh(level: int, ty: Value) -> VNeutral:
    return VNeutral(HVar(level, ty))


# --- the evaluator -------------------------------------------------------------------


@dataclass
class GlobalEntry:
    type_value: Value
    value: Value
    type_term: Term
    body_term: Optional[Term]


class Evaluator:
    """Shared machinery for evaluation, readback and conversion.

    Values are immutable, but ``steps`` is a mutable counter of eliminator
    steps checked against the budget, so an evaluator must not be shared
    across threads.
    """

    def __init__(self, globals_env=None, flags: Flags = Flags(), step_limit: int = 2_000_000):
        self.globals = globals_env if globals_env is not None else {}
        self.flags = flags
        self.step_limit = step_limit
        self.steps = 0

    def _tick(self):
        self.steps += 1
        if self.steps > self.step_limit:
            raise EvalBudgetExceeded(
                f"evaluation exceeded {self.step_limit} eliminator steps"
            )

    # -- closures

    def apply_clo(self, clo: Clo, arg: Value) -> Value:
        if isinstance(clo, PyClosure):
            return clo.fn(arg)
        return self.eval(clo.env + (arg,), clo.body)

    # -- application and projections

    def apply(self, f: Value, arg: Value) -> Value:
        match f:
            case VLam(clo):
                self._tick()
                return self.apply_clo(clo, arg)
            case VDW():
                return VDWApp(f, arg)
            case VWP():
                return VWPApp(f, arg)
            case VCover():
                return VCoverApp(f, arg)
            case VNeutral(head, frames):
                return VNeutral(head, frames + (FApp(arg),))
        raise KernelBug(f"application of non-function value {type(f).__name__}")

    def apply_many(self, f: Value, *args: Value) -> Value:
        for a in args:
            f = self.apply(f, a)
        return f

    def proj1(self, v: Value) -> Value:
        match v:
            case VPair(a, _):
                return a
            case VNeutral(head, frames):
                return VNeutral(head, frames + (FProj1(),))
        raise KernelBug("fst of non-pair")

    def proj2(self, v: Value) -> Value:
        match v:
            case VPair(_, b):
                return b
            case VNeutral(head, frames):
                return VNeutral(head, frames + (FProj2(),))
        raise KernelBug("snd of non-pair")

    # -- eliminators

    def sig_elim(self, motive: Value, case: Value, s: Value) -> Value:
        match s:
            case VPair(a, b):
                self._tick()
                return self.apply_many(case, a, b)
            case VNeutral(head, frames):
                return VNeutral(head, frames + (FSigElim(motive, case),))
        raise KernelBug("split on non-pair")

    def sum_elim(self, motive: Value, cl: Value, cr: Value, s: Value) -> Value:
        match s:
            case VInl(x):
                self._tick()
                return self.apply(cl, x)
            case VInr(x):
                self._tick()
                return self.apply(cr, x)
            case VNeutral(head, frames):
                return VNeutral(head, frames + (FSumElim(motive, cl, cr),))
        raise KernelBug("case on non-injection")

    def unit_elim(self, motive: Value, case: Value, s: Value) -> Value:
        # Under eta_unit every element of N1 equals star, so the eliminator
        # may fire regardless of the scrutinee.
        if isinstance(s, VStar) or self.flags.eta_unit:
            self._tick()
            return case
        match s:
            case VNeutral(head, frames):
                return VNeutral(head, frames + (FUnitElim(motive, case),))
        raise KernelBug("unitElim on non-unit value")

    def empty_elim(self, motive: Value, s: Value) -> Value:
        match s:
            case VNeutral(head, frames):
                return VNeutral(head, frames + (FEmptyElim(motive),))
        raise KernelBug("absurd applied to a canonical value")

    def j_elim(self, motive: Value, d: Value, lhs: Value, rhs: Value, p: Value) -> Value:
        match p:
            case VRefl(x):
                self._tick()
                return self.apply(d, x)
            case VNeutral(head, frames):
                return VNeutral(head, frames + (FJ(motive, d, lhs, rhs),))
        raise KernelBug("J on non-identity value")

    def w_elim(self, motive: Value, step: Value, s: Value) -> Value:
        match s:
            case VSup(a, f):
                self._tick()
                rec = PyClosure(
                    lambda b: self.w_elim(motive, step, self.apply(f, b))
                )
                return self.apply_many(step, a, f, VLam(rec))
            case VNeutral(head, frames):
                return VNeutral(head, frames + (FWElim(motive, step),))
        raise KernelBug("elimW on non-sup value")

    def dw_elim(self, motive: Value, step: Value, s: Value) -> Value:
        match s:
            case VDSup(i, n, f):
                self._tick()
                rec = PyClosure(
                    lambda b: self.dw_elim(motive, step, self.apply(f, b))
                )
                return self.apply_many(step, i, n, f, VLam(rec))
            case VNeutral(head, frames):
                return VNeutral(head, frames + (FDWElim(motive, step),))
        raise KernelBug("elimDW on non-dsup value")

    def wp_elim(self, motive: Value, step: Value, s: Value) -> Value:
        match s:
            case VInd(i, n, f):
                self._tick()
                rec = PyClosure(
                    lambda j: VLam(
                        PyClosure(
                            lambda r: self.wp_elim(
                                motive, step, self.apply_many(f, j, r)
                            )
                        )
                    )
                )
                return self.apply_many(step, i, n, f, VLam(rec))
            case VNeutral(head, frames):
                return VNeutral(head, frames + (FWPElim(motive, step),))
        raise KernelBug("elimWP on non-ind value")

    def cover_elim(self, motive: Value, q1: Value, q2: Value, s: Value) -> Value:
        match s:
            case VRf(a, r):
                self._tick()
                return self.apply_many(q1, a, r)
            case VTr(a, i, f):
                self._tick()
                rec = PyClosure(
                    lambda b: VLam(
                        PyClosure(
                            lambda t: self.cover_elim(
                                motive, q1, q2, self.apply_many(f, b, t)
                            )
                        )
                    )
                )
                return self.apply_many(q2, a, i, f, VLam(rec))
            case VNeutral(head, frames):
                return VNeutral(head, frames + (FCoverElim(motive, q1, q2),))
        raise KernelBug("elimCover on non-canonical cover proof")

    # -- evaluation

    def eval(self, env: tuple, t: Term) -> Value:
        match t:
            case T.Var(i):
                return env[-1 - i]
            case T.Const(name):
                entry = self.globals.get(name)
                if entry is None:
                    raise KernelBug(f"unbound constant {name!r} during evaluation")
                return entry.value
            case T.Ann(tm, _):
                return self.eval(env, tm)
            case T.Univ():
                return V_U0
            case T.TypeSort():
                return V_TYPE
            case T.Empty():
                return VEmpty()
            case T.Unit():
                return VUnit()
            case T.Star():
                return VStar()
            case T.Pi(dom, cod):
                return VPi(self.eval(env, dom), Closure(env, cod))
            case T.Lam(body):
                return VLam(Closure(env, body))
            case T.App(f, a):
                return self.apply(self.eval(env, f), self.eval(env, a))
            case T.Sigma(fst, snd):
                return VSigma(self.eval(env, fst), Closure(env, snd))
            case T.Pair(a, b):
                return VPair(self.eval(env, a), self.eval(env, b))
            case T.Proj1(p):
                return self.proj1(self.eval(env, p))
            case T.Proj2(p):
                return self.proj2(self.eval(env, p))
            case T.SigElim(m, c, s):
                return self.sig_elim(self.eval(env, m), self.eval(env, c), self.eval(env, s))
            case T.Sum(l, r):
                return VSum(self.eval(env, l), self.eval(env, r))
            case T.Inl(x):
                return VInl(self.eval(env, x))
            case T.Inr(x):
                return VInr(self.eval(env, x))
            case T.SumElim(m, cl, cr, s):
                return self.sum_elim(
                    self.eval(env, m), self.eval(env, cl), self.eval(env, cr), self.eval(env, s)
                )
            case T.Id(ty, a, b):
                return VId(self.eval(env, ty), self.eval(env, a), self.eval(env, b))
            case T.Refl(x):
                return VRefl(self.eval(env, x))
            case T.J(m, d, a, b, p):
                return self.j_elim(
                    self.eval(env, m),
                    self.eval(env, d),
                    self.eval(env, a),
                    self.eval(env, b),
                    self.eval(env, p),
                )
            case T.UnitElim(m, c, s):
                return self.unit_elim(self.eval(env, m), self.eval(env, c), self.eval(env, s))
            case T.EmptyElim(m, s):
                return self.empty_elim(self.eval(env, m), self.eval(env, s))
            case T.W(a, b):
                return VW(self.eval(env, a), self.eval(env, b))
            case T.Sup(a, f):
                return VSup(self.eval(env, a), self.eval(env, f))
            case T.WElim(m, d, s):
                return self.w_elim(self.eval(env, m), self.eval(env, d), self.eval(env, s))
            case T.DW(i, n, br, ar):
                return VDW(
                    self.eval(env, i), self.eval(env, n), self.eval(env, br), self.eval(env, ar)
                )
            case T.DSup(i, n, f):
                return VDSup(self.eval(env, i), self.eval(env, n), self.eval(env, f))
            case T.DWElim(m, d, _i, s):
                return self.dw_elim(self.eval(env, m), self.eval(env, d), self.eval(env, s))
            case T.WP(i, n, r):
                return VWP(self.eval(env, i), self.eval(env, n), self.eval(env, r))
            case T.Ind(i, n, f):
                return VInd(self.eval(env, i), self.eval(env, n), self.eval(env, f))
            case T.WPElim(m, c, _i, s):
                return self.wp_elim(self.eval(env, m), self.eval(env, c), self.eval(env, s))
            case T.Cover(a, i, c, v):
                return VCover(
                    self.eval(env, a), self.eval(env, i), self.eval(env, c), self.eval(env, v)
                )
            case T.Rf(a, r):
                return VRf(self.eval(env, a), self.eval(env, r))
            case T.Tr(a, i, f):
                return VTr(self.eval(env, a), self.eval(env, i), self.eval(env, f))
            case T.CoverElim(m, q1, q2, _a, s):
                return self.cover_elim(
                    self.eval(env, m),
                    self.eval(env, q1),
                    self.eval(env, q2),
                    self.eval(env, s),
                )
        raise KernelBug(f"eval: unhandled term {type(t).__name__}")

    # -- field types -----------------------------------------------------------
    #
    # Readback and conversion descend into a value through the same three
    # tables: the types of a type former's fields, of a canonical value's
    # fields, and of an eliminator frame's arguments.  A field whose type is a
    # sort is itself a type.

    def type_fields(self, v: Value):
        """Types of the fields of the type value ``v`` (a former without a
        binder, a family former or an applied family), in order; None when
        ``v`` is not one of these."""
        match v:
            case VEmpty() | VUnit():
                return ()
            case VSum():
                return V_ANY, V_ANY
            case VId(ty, _, _):
                return V_ANY, ty, ty
            case VW(a, _):
                return V_ANY, VPi(a, constant_family(V_ANY))
            case VDWApp(fam, _) | VWPApp(fam, _):
                return V_ANY, fam.index
            case VCoverApp(fam, _):
                return V_ANY, fam.carrier
            case VDW(i, n, br, _):
                return (
                    V_ANY,
                    VPi(i, constant_family(V_ANY)),
                    VPi(i, PyClosure(lambda iv: VPi(self.apply(n, iv), constant_family(V_ANY)))),
                    VPi(
                        i,
                        PyClosure(
                            lambda iv: VPi(
                                self.apply(n, iv),
                                PyClosure(
                                    lambda nv: VPi(
                                        self.apply_many(br, iv, nv), constant_family(i)
                                    )
                                ),
                            )
                        ),
                    ),
                )
            case VWP(i, n, _):
                return (
                    V_ANY,
                    VPi(i, constant_family(V_ANY)),
                    VPi(
                        i,
                        PyClosure(
                            lambda iv: VPi(
                                self.apply(n, iv),
                                constant_family(VPi(i, constant_family(V_ANY))),
                            )
                        ),
                    ),
                )
            case VCover(a, i, _, _):
                return (
                    V_ANY,
                    VPi(a, constant_family(V_ANY)),
                    VPi(
                        a,
                        PyClosure(
                            lambda av: VPi(
                                self.apply(i, av),
                                constant_family(VPi(a, constant_family(V_ANY))),
                            )
                        ),
                    ),
                    VPi(a, constant_family(V_ANY)),
                )
        return None

    def value_fields(self, v: Value, ty: Value):
        """Types of the fields of the canonical value ``v`` at type ``ty``, in
        order; None when ``v`` is not a canonical inhabitant of ``ty``."""
        match ty, v:
            case VSigma(dom, cod), VPair(a, _):
                return dom, self.apply_clo(cod, a)
            case VUnit(), VStar():
                return ()
            case VSum(left, _), VInl():
                return (left,)
            case VSum(_, right), VInr():
                return (right,)
            case VId(ity, _, _), VRefl():
                return (ity,)
            case VW(a, b), VSup(lab, _):
                return a, VPi(self.apply(b, lab), constant_family(ty))
            case VDWApp(fam, _), VDSup(i, n, _):
                return (
                    fam.index,
                    self.apply(fam.names, i),
                    VPi(
                        self.apply_many(fam.branch, i, n),
                        PyClosure(lambda b: VDWApp(fam, self.apply_many(fam.arity, i, n, b))),
                    ),
                )
            case VWPApp(fam, _), VInd(i, n, _):
                return (
                    fam.index,
                    self.apply(fam.names, i),
                    VPi(
                        fam.index,
                        PyClosure(
                            lambda j: VPi(
                                self.apply_many(fam.rules, i, n, j),
                                constant_family(VWPApp(fam, j)),
                            )
                        ),
                    ),
                )
            case VCoverApp(fam, _), VRf(a, _):
                return fam.carrier, self.apply(fam.subset, a)
            case VCoverApp(fam, _), VTr(a, i, _):
                return (
                    fam.carrier,
                    self.apply(fam.labels, a),
                    VPi(
                        fam.carrier,
                        PyClosure(
                            lambda b: VPi(
                                self.apply_many(fam.axioms, a, i, b),
                                constant_family(VCoverApp(fam, b)),
                            )
                        ),
                    ),
                )
        return None

    def frame_types(self, cur: Value, scrut: VNeutral, frame):
        """Types of ``frame``'s fields, in order, and of its result, when it
        eliminates the neutral ``scrut`` of type ``cur``."""
        ev = self
        match frame:
            case FApp(arg):
                if not isinstance(cur, VPi):
                    raise KernelBug("readback: application at non-function type")
                return (cur.dom,), self.apply_clo(cur.cod, arg)
            case FProj1():
                if not isinstance(cur, VSigma):
                    raise KernelBug("readback: fst at non-Sigma type")
                return (), cur.fst
            case FProj2():
                if not isinstance(cur, VSigma):
                    raise KernelBug("readback: snd at non-Sigma type")
                return (), self.apply_clo(cur.snd, self.proj1(scrut))
            case FSigElim(motive, _):
                if not isinstance(cur, VSigma):
                    raise KernelBug("readback: split at non-Sigma type")
                sig = cur
                case_ty = VPi(
                    sig.fst,
                    PyClosure(
                        lambda a: VPi(
                            ev.apply_clo(sig.snd, a),
                            PyClosure(lambda b: ev.apply(motive, VPair(a, b))),
                        )
                    ),
                )
                return (VPi(sig, constant_family(V_ANY)), case_ty), self.apply(motive, scrut)
            case FSumElim(motive, _, _):
                if not isinstance(cur, VSum):
                    raise KernelBug("readback: case at non-Sum type")
                return (
                    VPi(cur, constant_family(V_ANY)),
                    VPi(cur.left, PyClosure(lambda x: ev.apply(motive, VInl(x)))),
                    VPi(cur.right, PyClosure(lambda x: ev.apply(motive, VInr(x)))),
                ), self.apply(motive, scrut)
            case FUnitElim(motive, _):
                return (
                    VPi(VUnit(), constant_family(V_ANY)),
                    self.apply(motive, VStar()),
                ), self.apply(motive, scrut)
            case FEmptyElim(motive):
                return (VPi(VEmpty(), constant_family(V_ANY)),), self.apply(motive, scrut)
            case FJ(motive, _, lhs, rhs):
                if not isinstance(cur, VId):
                    raise KernelBug("readback: J at non-Id type")
                a_ty = cur.type
                m_ty = VPi(
                    a_ty,
                    PyClosure(
                        lambda x: VPi(
                            a_ty,
                            PyClosure(
                                lambda y: VPi(
                                    VId(a_ty, x, y), constant_family(V_ANY)
                                )
                            ),
                        )
                    ),
                )
                d_ty = VPi(
                    a_ty,
                    PyClosure(lambda x: ev.apply_many(motive, x, x, VRefl(x))),
                )
                return (m_ty, d_ty, a_ty, a_ty), self.apply_many(motive, lhs, rhs, scrut)
            case FWElim(motive, _):
                if not isinstance(cur, VW):
                    raise KernelBug("readback: elimW at non-W type")
                w_ty = cur
                a_ty, b_fam = cur.label, cur.branch
                step_ty = VPi(
                    a_ty,
                    PyClosure(
                        lambda a: VPi(
                            VPi(ev.apply(b_fam, a), constant_family(w_ty)),
                            PyClosure(
                                lambda f: VPi(
                                    VPi(
                                        ev.apply(b_fam, a),
                                        PyClosure(
                                            lambda b: ev.apply(motive, ev.apply(f, b))
                                        ),
                                    ),
                                    PyClosure(
                                        lambda h: ev.apply(motive, VSup(a, f))
                                    ),
                                )
                            ),
                        )
                    ),
                )
                return (VPi(w_ty, constant_family(V_ANY)), step_ty), self.apply(motive, scrut)
            case FDWElim(motive, _):
                if not isinstance(cur, VDWApp):
                    raise KernelBug("readback: elimDW at non-DW type")
                fam = cur.fam
                ity = fam.index
                m_ty = VPi(
                    ity,
                    PyClosure(lambda i: VPi(VDWApp(fam, i), constant_family(V_ANY))),
                )
                step_ty = VPi(
                    ity,
                    PyClosure(
                        lambda i: VPi(
                            ev.apply(fam.names, i),
                            PyClosure(
                                lambda n: VPi(
                                    VPi(
                                        ev.apply_many(fam.branch, i, n),
                                        PyClosure(
                                            lambda b: VDWApp(
                                                fam, ev.apply_many(fam.arity, i, n, b)
                                            )
                                        ),
                                    ),
                                    PyClosure(
                                        lambda f: VPi(
                                            VPi(
                                                ev.apply_many(fam.branch, i, n),
                                                PyClosure(
                                                    lambda b: ev.apply_many(
                                                        motive,
                                                        ev.apply_many(fam.arity, i, n, b),
                                                        ev.apply(f, b),
                                                    )
                                                ),
                                            ),
                                            PyClosure(
                                                lambda h: ev.apply_many(
                                                    motive, i, VDSup(i, n, f)
                                                )
                                            ),
                                        )
                                    ),
                                )
                            ),
                        )
                    ),
                )
                return (m_ty, step_ty), self.apply_many(motive, cur.idx, scrut)
            case FWPElim(motive, _):
                if not isinstance(cur, VWPApp):
                    raise KernelBug("readback: elimWP at non-WP type")
                fam = cur.fam
                ity = fam.index
                m_ty = VPi(
                    ity,
                    PyClosure(lambda i: VPi(VWPApp(fam, i), constant_family(V_ANY))),
                )
                step_ty = VPi(
                    ity,
                    PyClosure(
                        lambda i: VPi(
                            ev.apply(fam.names, i),
                            PyClosure(
                                lambda n: VPi(
                                    VPi(
                                        ity,
                                        PyClosure(
                                            lambda j: VPi(
                                                ev.apply_many(fam.rules, i, n, j),
                                                constant_family(VWPApp(fam, j)),
                                            )
                                        ),
                                    ),
                                    PyClosure(
                                        lambda f: VPi(
                                            VPi(
                                                ity,
                                                PyClosure(
                                                    lambda j: VPi(
                                                        ev.apply_many(fam.rules, i, n, j),
                                                        PyClosure(
                                                            lambda r: ev.apply_many(
                                                                motive,
                                                                j,
                                                                ev.apply_many(f, j, r),
                                                            )
                                                        ),
                                                    )
                                                ),
                                            ),
                                            PyClosure(
                                                lambda h: ev.apply_many(
                                                    motive, i, VInd(i, n, f)
                                                )
                                            ),
                                        )
                                    ),
                                )
                            ),
                        )
                    ),
                )
                return (m_ty, step_ty), self.apply_many(motive, cur.idx, scrut)
            case FCoverElim(motive, _, _):
                if not isinstance(cur, VCoverApp):
                    raise KernelBug("readback: elimCover at non-cover type")
                fam = cur.fam
                aty = fam.carrier
                m_ty = VPi(
                    aty,
                    PyClosure(lambda a: VPi(VCoverApp(fam, a), constant_family(V_ANY))),
                )
                q1_ty = VPi(
                    aty,
                    PyClosure(
                        lambda a: VPi(
                            ev.apply(fam.subset, a),
                            PyClosure(
                                lambda r: ev.apply_many(motive, a, VRf(a, r))
                            ),
                        )
                    ),
                )
                q2_ty = VPi(
                    aty,
                    PyClosure(
                        lambda a: VPi(
                            ev.apply(fam.labels, a),
                            PyClosure(
                                lambda i: VPi(
                                    VPi(
                                        aty,
                                        PyClosure(
                                            lambda b: VPi(
                                                ev.apply_many(fam.axioms, a, i, b),
                                                constant_family(VCoverApp(fam, b)),
                                            )
                                        ),
                                    ),
                                    PyClosure(
                                        lambda r: VPi(
                                            VPi(
                                                aty,
                                                PyClosure(
                                                    lambda b: VPi(
                                                        ev.apply_many(fam.axioms, a, i, b),
                                                        PyClosure(
                                                            lambda s: ev.apply_many(
                                                                motive,
                                                                b,
                                                                ev.apply_many(r, b, s),
                                                            )
                                                        ),
                                                    )
                                                ),
                                            ),
                                            PyClosure(
                                                lambda h: ev.apply_many(
                                                    motive, a, VTr(a, i, r)
                                                )
                                            ),
                                        )
                                    ),
                                )
                            ),
                        )
                    ),
                )
                return (m_ty, q1_ty, q2_ty), self.apply_many(motive, cur.elem, scrut)
        raise KernelBug(f"readback: unhandled frame {type(frame).__name__}")

    # -- readback ------------------------------------------------------------

    def readback(self, v: Value, ty: Value, depth: int) -> Term:
        """Type-directed readback to a beta-normal term."""
        flags = self.flags
        match ty:
            case VSort():
                return self.readback_type(v, depth)
            case VPi(dom, cod) if flags.eta_pi or isinstance(v, VLam):
                var = fresh(depth, dom)
                body = self.apply(v, var) if flags.eta_pi else self.apply_clo(v.clo, var)
                return T.Lam(self.readback(body, self.apply_clo(cod, var), depth + 1))
            case VPi() if isinstance(v, (VDW, VWP, VCover)):
                # bare family formers are values of large function type
                return self.readback_type(v, depth)
            case VSigma(dom, cod) if flags.eta_sigma:
                a = self.proj1(v)
                return T.Pair(
                    self.readback(a, dom, depth),
                    self.readback(self.proj2(v), self.apply_clo(cod, a), depth),
                )
            case VUnit() if flags.eta_unit:
                return T.Star()
        if isinstance(v, VNeutral):
            return self.readback_neutral(v, depth)
        types = self.value_fields(v, ty)
        if types is None:
            raise KernelBug(f"readback: {type(v).__name__} at type {type(ty).__name__}")
        return self._readback_fields(v, types, depth)

    def readback_type(self, v: Value, depth: int) -> Term:
        match v:
            case VSort(kind):
                return T.Univ() if kind == "u0" else T.TypeSort()
            case VPi(dom, cod) | VSigma(dom, cod):
                var = fresh(depth, dom)
                return _TERM_OF[type(v)](
                    self.readback_type(dom, depth),
                    self.readback_type(self.apply_clo(cod, var), depth + 1),
                )
            case VNeutral():
                return self.readback_neutral(v, depth)
        types = self.type_fields(v)
        if types is None:
            raise KernelBug(f"readback_type: not a type value: {type(v).__name__}")
        return self._readback_fields(v, types, depth)

    def _readback_fields(self, v, types, depth: int) -> Term:
        args = [self.readback(x, t, depth) for x, t in zip(_fields(v), types)]
        return _TERM_OF[type(v)](*args)

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
            args = [self.readback(x, t, depth) for x, t in zip(_fields(frame), types)]
            # the indexed eliminators also record the scrutinee's index,
            # which comes from its type, not from the frame
            match frame:
                case FDWElim() | FWPElim():
                    args.append(self.readback(cur.idx, cur.fam.index, depth))
                case FCoverElim():
                    args.append(self.readback(cur.elem, cur.fam.carrier, depth))
            if isinstance(frame, FApp):
                acc = T.App(acc, *args)
            else:
                acc = _TERM_OF[type(frame)](*args, acc)
            cur = result
        return acc

    # -- conversion -------------------------------------------------------------
    #
    # Conversion walks both values at once, through the same typed cases and
    # field tables as readback, and stops at the first difference.  A pair is
    # convertible exactly when the two readbacks are equal terms, but where
    # the two sides are the same object, or closures with the same body and
    # the same environment, it answers without descending.  Under eta_pi both
    # sides are applied to one fresh variable, under eta_sigma their
    # projections are compared, and under eta_unit any two values at the
    # unit type are equal.  Neutral spines are typed frame by frame as
    # readback types them, so eta_unit also holds at frame arguments and no
    # pair has to be read back.

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
        match ty:
            case VSort():
                return self.conv_type(a, b, depth)
            case VPi(dom, cod):
                lams = isinstance(a, VLam) and isinstance(b, VLam)
                if lams and _same(a.clo, b.clo):
                    return True
                if flags.eta_pi or lams:
                    var = fresh(depth, dom)
                    if flags.eta_pi:
                        a, b = self.apply(a, var), self.apply(b, var)
                    else:
                        a, b = self.apply_clo(a.clo, var), self.apply_clo(b.clo, var)
                    return self.conv(a, b, self.apply_clo(cod, var), depth + 1)
                if isinstance(a, (VDW, VWP, VCover)):
                    return self.conv_type(a, b, depth)
            case VSigma(dom, cod) if flags.eta_sigma:
                a1 = self.proj1(a)
                return self.conv(a1, self.proj1(b), dom, depth) and self.conv(
                    self.proj2(a), self.proj2(b), self.apply_clo(cod, a1), depth
                )
            case VUnit() if flags.eta_unit:
                return True
        if isinstance(a, VNeutral) or isinstance(b, VNeutral):
            both = isinstance(a, VNeutral) and isinstance(b, VNeutral)
            return both and self.conv_neutral(a, b, depth)
        if type(a) is not type(b):
            return False
        types = self.value_fields(a, ty)
        if types is None:
            raise KernelBug(f"conv: {type(a).__name__} at type {type(ty).__name__}")
        return self._conv_fields(a, b, types, depth)

    def conv_type(self, a: Value, b: Value, depth: int) -> bool:
        """Whether the types ``a`` and ``b`` read back to the same term."""
        if a is b:
            return True
        match a, b:
            case VSort(k), VSort(l):
                return (k == "u0") == (l == "u0")
            case (VPi(d1, c1), VPi(d2, c2)) | (VSigma(d1, c1), VSigma(d2, c2)):
                if not self.conv_type(d1, d2, depth):
                    return False
                if _same(c1, c2):
                    return True
                var = fresh(depth, d1)
                return self.conv_type(self.apply_clo(c1, var), self.apply_clo(c2, var), depth + 1)
            case VNeutral(), VNeutral():
                return self.conv_neutral(a, b, depth)
        if type(a) is not type(b):
            return False
        types = self.type_fields(a)
        if types is None:
            raise KernelBug(f"conv_type: not a type value: {type(a).__name__}")
        return self._conv_fields(a, b, types, depth)

    def conv_neutral(self, a: VNeutral, b: VNeutral, depth: int) -> bool:
        """Same head, same spine length, then the frames in order.  Frames
        whose fields are the same objects need no types, so the walk types
        the spine only up to the last frame that differs.  The index an
        indexed eliminator's term records follows from the spine before it,
        so it needs no comparison of its own."""
        ha, hb = a.head, b.head
        if isinstance(ha, HVar):
            if not (isinstance(hb, HVar) and ha.level == hb.level):
                return False
        elif not (isinstance(hb, HConst) and ha.name == hb.name):
            return False
        fa, fb = a.frames, b.frames
        if len(fa) != len(fb) or any(type(f) is not type(g) for f, g in zip(fa, fb)):
            return False
        last = max((k for k in range(len(fa)) if not _same_frame(fa[k], fb[k])), default=-1)
        cur = ha.type
        for k in range(last + 1):
            types, result = self.frame_types(cur, VNeutral(ha, fa[:k]), fa[k])
            if not self._conv_fields(fa[k], fb[k], types, depth):
                return False
            cur = result
        return True

    def _conv_fields(self, a, b, types, depth: int) -> bool:
        for x, y, t in zip(_fields(a), _fields(b), types):
            if not self.conv(x, y, t, depth):
                return False
        return True


def _fields(x) -> list:
    """A value's or frame's fields in declaration order."""
    return [getattr(x, name) for name in x.__match_args__]


def _same(x, y) -> bool:
    """Structural identity: the same object, or the same class with fields
    that are recursively the same, closure bodies compared by identity.  It
    implies equal readback at every type."""
    if x is y:
        return True
    cls = type(x)
    if cls is not type(y):
        return False
    if cls is tuple:
        return len(x) == len(y) and all(map(_same, x, y))
    if cls is Closure:
        return x.body is y.body and _same(x.env, y.env)
    if cls is PyClosure:
        return False
    if cls is int or cls is str:
        return x == y
    return all(map(_same, _fields(x), _fields(y)))


def _same_frame(f1, f2) -> bool:
    """Two frames of the same class whose fields are the same objects."""
    return f1 is f2 or all(map(operator.is_, _fields(f1), _fields(f2)))


# value, type former or frame class -> the term class it reads back to
_TERM_OF = {
    VPi: T.Pi,
    VSigma: T.Sigma,
    VEmpty: T.Empty,
    VUnit: T.Unit,
    VSum: T.Sum,
    VId: T.Id,
    VW: T.W,
    VDW: T.DW,
    VWP: T.WP,
    VCover: T.Cover,
    VDWApp: T.App,
    VWPApp: T.App,
    VCoverApp: T.App,
    VPair: T.Pair,
    VStar: T.Star,
    VInl: T.Inl,
    VInr: T.Inr,
    VRefl: T.Refl,
    VSup: T.Sup,
    VDSup: T.DSup,
    VInd: T.Ind,
    VRf: T.Rf,
    VTr: T.Tr,
    FProj1: T.Proj1,
    FProj2: T.Proj2,
    FSigElim: T.SigElim,
    FSumElim: T.SumElim,
    FUnitElim: T.UnitElim,
    FEmptyElim: T.EmptyElim,
    FJ: T.J,
    FWElim: T.WElim,
    FDWElim: T.DWElim,
    FWPElim: T.WPElim,
    FCoverElim: T.CoverElim,
}
