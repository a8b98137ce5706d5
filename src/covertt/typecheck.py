"""Bidirectional type checking.

Introduction forms check against their formers, eliminations and variables
infer, and every equality side-condition goes through conversion: both sides
are evaluated and the values compared directly under the active flags
(``Evaluator.conv``), with readback used only to print terms.  Eliminator motives are explicit
arguments and may land either in the universe of small types or in the large
classification, which is what lets predicates be defined by recursion.

Each ``Checker`` remembers, in ``family_types``, the type it inferred for
every closed formation of ``W``, ``DW``, ``WP`` or ``Cover``: one with no
free variable and no constant (``terms.closed``), keyed by the term.  On
the first occurrence the formation is inferred in the empty context, so the
remembered value captures no context; only a successful inference is
remembered, so an ill-typed formation fails wherever it occurs.  The memo is
sound because such a term means the same thing in every context and under
every global environment, and the one thing inference reads besides the
term, the checker's flags, is fixed for the checker's life.  Certificates
from the cover engine repeat their instance's ``Cover`` formation inside
every motive and premise; with the memo it is checked once per proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import terms as T
from .terms import Flags, Term
from . import semantics as S
from .semantics import (
    Evaluator,
    GlobalEntry,
    PyClosure,
    V_ANY,
    V_TYPE,
    V_U0,
    VCover,
    VCoverApp,
    VDW,
    VDWApp,
    VEmpty,
    VId,
    VNeutral,
    VPi,
    VSigma,
    VSort,
    VSum,
    VUnit,
    VW,
    VWP,
    VWPApp,
    Value,
    constant_family,
    fresh,
)


@dataclass
class TypeCheckError(Exception):
    """A rejection: one kind, one location.

    Kinds: mismatch, unbound, not-a-function, not-a-universe, motive-shape,
    flag-required.
    """

    kind: str
    message: str
    expected: Optional[Term] = None
    found: Optional[Term] = None
    location: str = "?"

    def __str__(self) -> str:
        parts = [f"{self.location}: {self.kind}: {self.message}"]
        from .surface import pretty

        if self.expected is not None:
            parts.append(f"  expected: {pretty(self.expected)}")
        if self.found is not None:
            parts.append(f"  found:    {pretty(self.found)}")
        return "\n".join(parts)


@dataclass(frozen=True)
class Declaration:
    name: str
    type: Term
    body: Optional[Term] = None
    location: str = "?"


# The function-extensionality axiom, closed over its parameters:
# (A : U0) (B : A -> U0) (f g : (x : A) -> B x)
#   -> ((x : A) -> Id (B x) (f x) (g x)) -> Id ((x : A) -> B x) f g
def funext_type() -> Term:
    v = T.Var
    pi_fx = T.Pi(v(1), T.App(v(1), v(0)))  # (x : A) -> B x  under A,B
    return T.Pi(
        T.Univ(),
        T.Pi(
            T.Pi(T.Var(0), T.Univ()),
            T.Pi(
                pi_fx,
                T.Pi(
                    T.Pi(v(2), T.App(v(2), v(0))),
                    T.Pi(
                        T.Pi(
                            v(3),
                            T.Id(T.App(v(3), v(0)), T.App(v(2), v(0)), T.App(v(1), v(0))),
                        ),
                        T.Id(
                            T.Pi(v(4), T.App(v(4), v(0))),
                            v(2),
                            v(1),
                        ),
                    ),
                ),
            ),
        ),
    )


FUNEXT_NAME = "funext"


class Context:
    """Typed telescope: names for messages, type values, and the matching
    evaluation environment of fresh neutrals."""

    def __init__(self):
        self.names: list[str] = []
        self.types: list[Value] = []
        self.env: tuple = ()

    def extend(self, name: str, ty: Value) -> "Context":
        child = Context()
        child.names = self.names + [name]
        child.types = self.types + [ty]
        child.env = self.env + (fresh(len(self.env), ty),)
        return child

    def extend_with(self, name: str, ty: Value, value: Value) -> "Context":
        child = Context()
        child.names = self.names + [name]
        child.types = self.types + [ty]
        child.env = self.env + (value,)
        return child

    def lookup(self, index: int) -> Value:
        return self.types[-1 - index]

    @property
    def depth(self) -> int:
        return len(self.env)


class Checker:
    def __init__(self, flags: Flags = Flags(), globals_env=None, step_limit: int = 2_000_000):
        self.flags = flags
        self.globals = {} if globals_env is None else globals_env
        self.ev = Evaluator(self.globals, flags, step_limit)
        if flags.funext and FUNEXT_NAME not in self.globals:
            ty = funext_type()
            tyv = self.ev.eval((), ty)
            self.globals[FUNEXT_NAME] = GlobalEntry(
                tyv, VNeutral(S.HConst(FUNEXT_NAME, tyv)), ty, None
            )
        self.location = "?"
        # inferred types of closed family formations, keyed by the term
        self.family_types: dict[Term, Value] = {}

    # -- helpers --------------------------------------------------------------

    def fail(self, kind: str, message: str, expected=None, found=None):
        raise TypeCheckError(kind, message, expected, found, self.location)

    def eval_in(self, ctx: Context, t: Term) -> Value:
        return self.ev.eval(ctx.env, t)

    def norm(self, ctx: Context, v: Value, ty: Value) -> Term:
        return self.ev.readback(v, ty, ctx.depth)

    def norm_type(self, ctx: Context, v: Value) -> Term:
        return self.ev.readback_type(v, ctx.depth)

    def types_equal(self, ctx: Context, a: Value, b: Value) -> bool:
        return self.ev.equal_types(a, b, ctx.depth)

    def values_equal(self, ctx: Context, a: Value, b: Value, ty: Value) -> bool:
        return self.ev.equal(a, b, ty, ctx.depth)

    def ensure_type(self, ctx: Context, t: Term) -> Value:
        """Check that ``t`` is a type (small or large); return its sort."""
        sort = self.infer(ctx, t)
        if isinstance(sort, VSort):
            return sort
        self.fail(
            "not-a-universe",
            "expected a type",
            found=self.norm_type(ctx, sort),
        )

    def whnf_pi(self, ctx: Context, ty: Value, what: str) -> VPi:
        if isinstance(ty, VPi):
            return ty
        self.fail(
            "not-a-function",
            f"{what} does not have a function type",
            found=self.norm_type(ctx, ty),
        )

    # -- inference -------------------------------------------------------------

    def infer(self, ctx: Context, t: Term) -> Value:
        match t:
            case T.Var(i):
                if i < 0 or i >= ctx.depth:
                    self.fail("unbound", f"variable index {i} out of scope")
                return ctx.lookup(i)
            case T.Const(name):
                entry = self.globals.get(name)
                if entry is None:
                    if name == FUNEXT_NAME:
                        self.fail(
                            "flag-required",
                            "the funext constant requires the funext flag",
                        )
                    self.fail("unbound", f"unknown name {name!r}")
                return entry.type_value
            case T.Ann(tm, ty):
                self.ensure_type(ctx, ty)
                tyv = self.eval_in(ctx, ty)
                self.check(ctx, tm, tyv)
                return tyv
            case T.Univ():
                return V_TYPE
            case T.TypeSort():
                self.fail("not-a-universe", "the large sort is not a term")
            case T.Empty() | T.Unit():
                return V_U0
            case T.Star():
                return VUnit()
            case T.Pi(dom, cod):
                s1 = self.ensure_type(ctx, dom)
                ctx2 = ctx.extend("_", self.eval_in(ctx, dom))
                s2 = self.ensure_type(ctx2, cod)
                return V_U0 if (s1 == V_U0 and s2 == V_U0) else V_TYPE
            case T.Sigma(fst, snd):
                s1 = self.ensure_type(ctx, fst)
                ctx2 = ctx.extend("_", self.eval_in(ctx, fst))
                s2 = self.ensure_type(ctx2, snd)
                return V_U0 if (s1 == V_U0 and s2 == V_U0) else V_TYPE
            case T.Sum(l, r):
                self.check(ctx, l, V_U0)
                self.check(ctx, r, V_U0)
                return V_U0
            case T.Id(ty, a, b):
                self.check(ctx, ty, V_U0)
                tyv = self.eval_in(ctx, ty)
                self.check(ctx, a, tyv)
                self.check(ctx, b, tyv)
                return V_U0
            case T.W() | T.DW() | T.WP() | T.Cover():
                if not T.closed(t):
                    return self.infer_family(ctx, t)
                ty = self.family_types.get(t)
                if ty is None:
                    ty = self.family_types[t] = self.infer_family(Context(), t)
                return ty
            case T.App(f, a):
                fty = self.infer(ctx, f)
                pi = self.whnf_pi(ctx, fty, "application head")
                self.check(ctx, a, pi.dom)
                return self.ev.apply_clo(pi.cod, self.eval_in(ctx, a))
            case T.Proj1(p):
                pty = self.infer(ctx, p)
                if not isinstance(pty, VSigma):
                    self.fail(
                        "mismatch",
                        "fst applied to a non-pair type",
                        found=self.norm_type(ctx, pty),
                    )
                return pty.fst
            case T.Proj2(p):
                pty = self.infer(ctx, p)
                if not isinstance(pty, VSigma):
                    self.fail(
                        "mismatch",
                        "snd applied to a non-pair type",
                        found=self.norm_type(ctx, pty),
                    )
                return self.ev.apply_clo(pty.snd, self.ev.proj1(self.eval_in(ctx, p)))
            case T.SigElim(m, c, s):
                sty = self.infer(ctx, s)
                if not isinstance(sty, VSigma):
                    self.fail(
                        "mismatch",
                        "split scrutinee is not a pair",
                        found=self.norm_type(ctx, sty),
                    )
                mv = self.check_motive(ctx, m, VPi(sty, constant_family(V_ANY)))
                case_ty = VPi(
                    sty.fst,
                    PyClosure(
                        lambda a: VPi(
                            self.ev.apply_clo(sty.snd, a),
                            PyClosure(lambda b: self.ev.apply(mv, S.VPair(a, b))),
                        )
                    ),
                )
                self.check(ctx, c, case_ty)
                return self.ev.apply(mv, self.eval_in(ctx, s))
            case T.SumElim(m, cl, cr, s):
                sty = self.infer(ctx, s)
                if not isinstance(sty, VSum):
                    self.fail(
                        "mismatch",
                        "case scrutinee is not a sum",
                        found=self.norm_type(ctx, sty),
                    )
                mv = self.check_motive(ctx, m, VPi(sty, constant_family(V_ANY)))
                self.check(
                    ctx,
                    cl,
                    VPi(sty.left, PyClosure(lambda x: self.ev.apply(mv, S.VInl(x)))),
                )
                self.check(
                    ctx,
                    cr,
                    VPi(sty.right, PyClosure(lambda x: self.ev.apply(mv, S.VInr(x)))),
                )
                return self.ev.apply(mv, self.eval_in(ctx, s))
            case T.UnitElim(m, c, s):
                self.check(ctx, s, VUnit())
                mv = self.check_motive(ctx, m, VPi(VUnit(), constant_family(V_ANY)))
                self.check(ctx, c, self.ev.apply(mv, S.VStar()))
                return self.ev.apply(mv, self.eval_in(ctx, s))
            case T.EmptyElim(m, s):
                self.check(ctx, s, VEmpty())
                mv = self.check_motive(ctx, m, VPi(VEmpty(), constant_family(V_ANY)))
                return self.ev.apply(mv, self.eval_in(ctx, s))
            case T.J(m, d, a, b, p):
                aty = self.infer_id_type(ctx, a, b, p)
                av = self.eval_in(ctx, a)
                bv = self.eval_in(ctx, b)
                m_ty = VPi(
                    aty,
                    PyClosure(
                        lambda x: VPi(
                            aty,
                            PyClosure(
                                lambda y: VPi(VId(aty, x, y), constant_family(V_ANY))
                            ),
                        )
                    ),
                )
                mv = self.check_motive(ctx, m, m_ty)
                d_ty = VPi(
                    aty,
                    PyClosure(lambda x: self.ev.apply_many(mv, x, x, S.VRefl(x))),
                )
                self.check(ctx, d, d_ty)
                return self.ev.apply_many(mv, av, bv, self.eval_in(ctx, p))
            case T.WElim(m, d, s):
                sty = self.infer(ctx, s)
                if not isinstance(sty, VW):
                    self.fail(
                        "mismatch",
                        "elimW scrutinee is not a W-type element",
                        found=self.norm_type(ctx, sty),
                    )
                mv = self.check_motive(ctx, m, VPi(sty, constant_family(V_ANY)))
                ev = self.ev
                a_ty, b_fam, w_ty = sty.label, sty.branch, sty
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
                                            lambda b: ev.apply(mv, ev.apply(f, b))
                                        ),
                                    ),
                                    PyClosure(lambda h: ev.apply(mv, S.VSup(a, f))),
                                )
                            ),
                        )
                    ),
                )
                self.check(ctx, d, step_ty)
                return self.ev.apply(mv, self.eval_in(ctx, s))
            case T.DWElim(m, d, i, s):
                sty = self.infer(ctx, s)
                if not isinstance(sty, VDWApp):
                    self.fail(
                        "mismatch",
                        "elimDW scrutinee is not a dependent tree",
                        found=self.norm_type(ctx, sty),
                    )
                fam = sty.fam
                self.check(ctx, i, fam.index)
                iv = self.eval_in(ctx, i)
                if not self.values_equal(ctx, iv, sty.idx, fam.index):
                    self.fail(
                        "mismatch",
                        "elimDW index does not match the scrutinee's index",
                        expected=self.norm(ctx, sty.idx, fam.index),
                        found=self.norm(ctx, iv, fam.index),
                    )
                mv = self.check_motive(
                    ctx,
                    m,
                    VPi(
                        fam.index,
                        PyClosure(
                            lambda x: VPi(VDWApp(fam, x), constant_family(V_ANY))
                        ),
                    ),
                )
                self.check(ctx, d, self.dw_step_type(fam, mv))
                return self.ev.apply_many(mv, iv, self.eval_in(ctx, s))
            case T.WPElim(m, c, i, s):
                sty = self.infer(ctx, s)
                if not isinstance(sty, VWPApp):
                    self.fail(
                        "mismatch",
                        "elimWP scrutinee is not a derivation",
                        found=self.norm_type(ctx, sty),
                    )
                fam = sty.fam
                self.check(ctx, i, fam.index)
                iv = self.eval_in(ctx, i)
                if not self.values_equal(ctx, iv, sty.idx, fam.index):
                    self.fail(
                        "mismatch",
                        "elimWP index does not match the scrutinee's index",
                        expected=self.norm(ctx, sty.idx, fam.index),
                        found=self.norm(ctx, iv, fam.index),
                    )
                mv = self.check_motive(
                    ctx,
                    m,
                    VPi(
                        fam.index,
                        PyClosure(
                            lambda x: VPi(VWPApp(fam, x), constant_family(V_ANY))
                        ),
                    ),
                )
                self.check(ctx, c, self.wp_step_type(fam, mv))
                return self.ev.apply_many(mv, iv, self.eval_in(ctx, s))
            case T.CoverElim(m, q1, q2, a, s):
                sty = self.infer(ctx, s)
                if not isinstance(sty, VCoverApp):
                    self.fail(
                        "mismatch",
                        "elimCover scrutinee is not a cover proof",
                        found=self.norm_type(ctx, sty),
                    )
                fam = sty.fam
                self.check(ctx, a, fam.carrier)
                av = self.eval_in(ctx, a)
                if not self.values_equal(ctx, av, sty.elem, fam.carrier):
                    self.fail(
                        "mismatch",
                        "elimCover element does not match the scrutinee's element",
                        expected=self.norm(ctx, sty.elem, fam.carrier),
                        found=self.norm(ctx, av, fam.carrier),
                    )
                mv = self.check_motive(
                    ctx,
                    m,
                    VPi(
                        fam.carrier,
                        PyClosure(
                            lambda x: VPi(VCoverApp(fam, x), constant_family(V_ANY))
                        ),
                    ),
                )
                q1_ty, q2_ty = self.cover_case_types(fam, mv)
                self.check(ctx, q1, q1_ty)
                self.check(ctx, q2, q2_ty)
                return self.ev.apply_many(mv, av, self.eval_in(ctx, s))
            case T.Sup(a, f):
                # best-effort inference through the branch function
                cod = self._nondependent_codomain(ctx, f, 1)
                if isinstance(cod, VW):
                    self.check(ctx, t, cod)
                    return cod
                self.fail("mismatch", "sup is not inferable here; add an annotation")
            case T.DSup(_, _, f):
                cod = self._nondependent_codomain(ctx, f, 1)
                if isinstance(cod, VDWApp):
                    ty = VDWApp(cod.fam, self.eval_in(ctx, t.index))
                    self.check(ctx, t, ty)
                    return ty
                self.fail("mismatch", "dsup is not inferable here; add an annotation")
            case T.Ind(_, _, f):
                cod = self._nondependent_codomain(ctx, f, 2)
                if isinstance(cod, VWPApp):
                    ty = VWPApp(cod.fam, self.eval_in(ctx, t.index))
                    self.check(ctx, t, ty)
                    return ty
                self.fail("mismatch", "ind is not inferable here; add an annotation")
            case T.Lam(_):
                self.fail("mismatch", "an unannotated lambda is not inferable")
            case T.Pair(_, _):
                self.fail("mismatch", "a bare pair is not inferable")
            case T.Inl(_) | T.Inr(_):
                self.fail("mismatch", "an injection is not inferable")
            case T.Refl(_):
                self.fail("mismatch", "refl is not inferable")
            case T.Rf(_, _) | T.Tr(_, _, _):
                self.fail("mismatch", "cover introductions are not inferable")
        raise S.KernelBug(f"infer: unhandled term {type(t).__name__}")

    def infer_family(self, ctx: Context, t: Term) -> Value:
        """Formation of a W type or of a DW, WP or Cover family."""
        match t:
            case T.W(a, b):
                self.check(ctx, a, V_U0)
                av = self.eval_in(ctx, a)
                self.check(ctx, b, VPi(av, constant_family(V_U0)))
                return V_U0
            case T.DW(i, n, br, ar):
                self.check(ctx, i, V_U0)
                iv = self.eval_in(ctx, i)
                self.check(ctx, n, VPi(iv, constant_family(V_U0)))
                nv = self.eval_in(ctx, n)
                br_ty = VPi(
                    iv,
                    PyClosure(
                        lambda x: VPi(self.ev.apply(nv, x), constant_family(V_U0))
                    ),
                )
                self.check(ctx, br, br_ty)
                brv = self.eval_in(ctx, br)
                ar_ty = VPi(
                    iv,
                    PyClosure(
                        lambda x: VPi(
                            self.ev.apply(nv, x),
                            PyClosure(
                                lambda y: VPi(
                                    self.ev.apply_many(brv, x, y), constant_family(iv)
                                )
                            ),
                        )
                    ),
                )
                self.check(ctx, ar, ar_ty)
                return VPi(iv, constant_family(V_U0))
            case T.WP(i, n, r):
                self.check(ctx, i, V_U0)
                iv = self.eval_in(ctx, i)
                self.check(ctx, n, VPi(iv, constant_family(V_U0)))
                nv = self.eval_in(ctx, n)
                r_ty = VPi(
                    iv,
                    PyClosure(
                        lambda x: VPi(
                            self.ev.apply(nv, x),
                            constant_family(VPi(iv, constant_family(V_U0))),
                        )
                    ),
                )
                self.check(ctx, r, r_ty)
                return VPi(iv, constant_family(V_U0))
            case T.Cover(a, ifam, cfam, v):
                self.check(ctx, a, V_U0)
                av = self.eval_in(ctx, a)
                self.check(ctx, ifam, VPi(av, constant_family(V_U0)))
                ifv = self.eval_in(ctx, ifam)
                c_ty = VPi(
                    av,
                    PyClosure(
                        lambda x: VPi(
                            self.ev.apply(ifv, x),
                            constant_family(VPi(av, constant_family(V_U0))),
                        )
                    ),
                )
                self.check(ctx, cfam, c_ty)
                self.check(ctx, v, VPi(av, constant_family(V_U0)))
                return VPi(av, constant_family(V_U0))
        raise S.KernelBug(f"infer_family: not a family former: {type(t).__name__}")

    def _nondependent_codomain(self, ctx: Context, f: Term, arity: int):
        """Codomain of ``f``'s type after ``arity`` arguments, provided it does
        not depend on them; None when ``f`` is not inferable, its type has
        fewer than ``arity`` arrows, or the codomain mentions an argument."""
        try:
            fty = self.infer(ctx, f)
        except TypeCheckError:
            return None
        depth = ctx.depth
        cod = fty
        for k in range(arity):
            if not isinstance(cod, VPi):
                return None
            cod = self.ev.apply_clo(cod.cod, fresh(depth + k, cod.dom))
        # read back with the arguments in scope: they are the innermost
        # ``arity`` variables, which the codomain must not mention
        probe = self.ev.readback_type(cod, depth + arity)
        if any(T.free_in(probe, k) for k in range(arity)):
            return None
        for _ in range(arity):
            probe = T.strengthen(probe)
        return self.eval_in(ctx, probe)

    def infer_id_type(self, ctx: Context, a: Term, b: Term, p: Term) -> Value:
        """Identity elimination: recover A from the endpoints, then check p."""
        aty = self.infer(ctx, a)
        self.check(ctx, b, aty)
        self.check(
            ctx, p, VId(aty, self.eval_in(ctx, a), self.eval_in(ctx, b))
        )
        return aty

    def dw_step_type(self, fam: VDW, mv: Value) -> Value:
        ev = self.ev
        return VPi(
            fam.index,
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
                                                mv,
                                                ev.apply_many(fam.arity, i, n, b),
                                                ev.apply(f, b),
                                            )
                                        ),
                                    ),
                                    PyClosure(
                                        lambda h: ev.apply_many(mv, i, S.VDSup(i, n, f))
                                    ),
                                )
                            ),
                        )
                    ),
                )
            ),
        )

    def wp_step_type(self, fam: VWP, mv: Value) -> Value:
        ev = self.ev
        return VPi(
            fam.index,
            PyClosure(
                lambda i: VPi(
                    ev.apply(fam.names, i),
                    PyClosure(
                        lambda n: VPi(
                            VPi(
                                fam.index,
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
                                        fam.index,
                                        PyClosure(
                                            lambda j: VPi(
                                                ev.apply_many(fam.rules, i, n, j),
                                                PyClosure(
                                                    lambda r: ev.apply_many(
                                                        mv, j, ev.apply_many(f, j, r)
                                                    )
                                                ),
                                            )
                                        ),
                                    ),
                                    PyClosure(
                                        lambda h: ev.apply_many(mv, i, S.VInd(i, n, f))
                                    ),
                                )
                            ),
                        )
                    ),
                )
            ),
        )

    def cover_case_types(self, fam: VCover, mv: Value):
        ev = self.ev
        q1_ty = VPi(
            fam.carrier,
            PyClosure(
                lambda a: VPi(
                    ev.apply(fam.subset, a),
                    PyClosure(lambda r: ev.apply_many(mv, a, S.VRf(a, r))),
                )
            ),
        )
        q2_ty = VPi(
            fam.carrier,
            PyClosure(
                lambda a: VPi(
                    ev.apply(fam.labels, a),
                    PyClosure(
                        lambda i: VPi(
                            VPi(
                                fam.carrier,
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
                                        fam.carrier,
                                        PyClosure(
                                            lambda b: VPi(
                                                ev.apply_many(fam.axioms, a, i, b),
                                                PyClosure(
                                                    lambda s: ev.apply_many(
                                                        mv, b, ev.apply_many(r, b, s)
                                                    )
                                                ),
                                            )
                                        ),
                                    ),
                                    PyClosure(
                                        lambda h: ev.apply_many(mv, a, S.VTr(a, i, r))
                                    ),
                                )
                            ),
                        )
                    ),
                )
            ),
        )
        return q1_ty, q2_ty

    def check_motive(self, ctx: Context, m: Term, m_ty: Value) -> Value:
        try:
            self.check(ctx, m, m_ty)
        except TypeCheckError as e:
            if e.kind in ("mismatch", "not-a-function", "not-a-universe"):
                raise TypeCheckError(
                    "motive-shape",
                    f"ill-shaped eliminator motive or case: {e.message}",
                    e.expected,
                    e.found,
                    e.location,
                )
            raise
        return self.eval_in(ctx, m)

    # -- checking -----------------------------------------------------------------

    def check(self, ctx: Context, t: Term, ty: Value):
        match (t, ty):
            case (_, VSort("any")):
                self.ensure_type(ctx, t)
                return
            case (_, VSort("type")):
                self.ensure_type(ctx, t)
                return
            case (_, VSort("u0")):
                sort = self.ensure_type(ctx, t)
                if sort != V_U0:
                    self.fail(
                        "not-a-universe",
                        "a large type cannot inhabit the universe of small types",
                        found=T.TypeSort(),
                    )
                return
            case (T.Lam(body), VPi(dom, cod)):
                var = fresh(ctx.depth, dom)
                self.check(
                    ctx.extend("x", dom), body, self.ev.apply_clo(cod, var)
                )
                return
            case (T.Lam(_), _):
                self.fail(
                    "mismatch",
                    "lambda checked against a non-function type",
                    expected=self.norm_type(ctx, ty),
                )
            case (T.Pair(a, b), VSigma(dom, cod)):
                self.check(ctx, a, dom)
                self.check(ctx, b, self.ev.apply_clo(cod, self.eval_in(ctx, a)))
                return
            case (T.Pair(_, _), _):
                self.fail(
                    "mismatch",
                    "pair checked against a non-pair type",
                    expected=self.norm_type(ctx, ty),
                )
            case (T.Inl(x), VSum(l, _)):
                self.check(ctx, x, l)
                return
            case (T.Inr(x), VSum(_, r)):
                self.check(ctx, x, r)
                return
            case ((T.Inl(_) | T.Inr(_)), _):
                self.fail(
                    "mismatch",
                    "injection checked against a non-sum type",
                    expected=self.norm_type(ctx, ty),
                )
            case (T.Star(), VUnit()):
                return
            case (T.Refl(x), VId(ity, lhs, rhs)):
                self.check(ctx, x, ity)
                xv = self.eval_in(ctx, x)
                if not (
                    self.values_equal(ctx, xv, lhs, ity)
                    and self.values_equal(ctx, xv, rhs, ity)
                ):
                    self.fail(
                        "mismatch",
                        "refl endpoint differs from the identity type's endpoints",
                        expected=self.norm(ctx, lhs, ity),
                        found=self.norm(ctx, xv, ity),
                    )
                return
            case (T.Refl(_), _):
                self.fail(
                    "mismatch",
                    "refl checked against a non-identity type",
                    expected=self.norm_type(ctx, ty),
                )
            case (T.Sup(a, f), VW(aty, bfam)):
                self.check(ctx, a, aty)
                av = self.eval_in(ctx, a)
                self.check(ctx, f, VPi(self.ev.apply(bfam, av), constant_family(ty)))
                return
            case (T.Sup(_, _), _):
                self.fail(
                    "mismatch",
                    "sup checked against a non-W type",
                    expected=self.norm_type(ctx, ty),
                )
            case (T.DSup(i, n, f), VDWApp(fam, idx)):
                self.check(ctx, i, fam.index)
                iv = self.eval_in(ctx, i)
                if not self.values_equal(ctx, iv, idx, fam.index):
                    self.fail(
                        "mismatch",
                        "dsup index differs from the family index",
                        expected=self.norm(ctx, idx, fam.index),
                        found=self.norm(ctx, iv, fam.index),
                    )
                self.check(ctx, n, self.ev.apply(fam.names, iv))
                nv = self.eval_in(ctx, n)
                f_ty = VPi(
                    self.ev.apply_many(fam.branch, iv, nv),
                    PyClosure(
                        lambda b: VDWApp(fam, self.ev.apply_many(fam.arity, iv, nv, b))
                    ),
                )
                self.check(ctx, f, f_ty)
                return
            case (T.DSup(_, _, _), _):
                self.fail(
                    "mismatch",
                    "dsup checked against a non-DW type",
                    expected=self.norm_type(ctx, ty),
                )
            case (T.Ind(i, n, f), VWPApp(fam, idx)):
                self.check(ctx, i, fam.index)
                iv = self.eval_in(ctx, i)
                if not self.values_equal(ctx, iv, idx, fam.index):
                    self.fail(
                        "mismatch",
                        "ind index differs from the family index",
                        expected=self.norm(ctx, idx, fam.index),
                        found=self.norm(ctx, iv, fam.index),
                    )
                self.check(ctx, n, self.ev.apply(fam.names, iv))
                nv = self.eval_in(ctx, n)
                f_ty = VPi(
                    fam.index,
                    PyClosure(
                        lambda j: VPi(
                            self.ev.apply_many(fam.rules, iv, nv, j),
                            constant_family(VWPApp(fam, j)),
                        )
                    ),
                )
                self.check(ctx, f, f_ty)
                return
            case (T.Ind(_, _, _), _):
                self.fail(
                    "mismatch",
                    "ind checked against a non-WP type",
                    expected=self.norm_type(ctx, ty),
                )
            case (T.Rf(a, r), VCoverApp(fam, elem)):
                self.check(ctx, a, fam.carrier)
                av = self.eval_in(ctx, a)
                if not self.values_equal(ctx, av, elem, fam.carrier):
                    self.fail(
                        "mismatch",
                        "rf element differs from the cover's element",
                        expected=self.norm(ctx, elem, fam.carrier),
                        found=self.norm(ctx, av, fam.carrier),
                    )
                self.check(ctx, r, self.ev.apply(fam.subset, av))
                return
            case (T.Rf(_, _), _):
                self.fail(
                    "mismatch",
                    "rf checked against a non-cover type",
                    expected=self.norm_type(ctx, ty),
                )
            case (T.Tr(a, i, f), VCoverApp(fam, elem)):
                self.check(ctx, a, fam.carrier)
                av = self.eval_in(ctx, a)
                if not self.values_equal(ctx, av, elem, fam.carrier):
                    self.fail(
                        "mismatch",
                        "tr element differs from the cover's element",
                        expected=self.norm(ctx, elem, fam.carrier),
                        found=self.norm(ctx, av, fam.carrier),
                    )
                self.check(ctx, i, self.ev.apply(fam.labels, av))
                iv = self.eval_in(ctx, i)
                f_ty = VPi(
                    fam.carrier,
                    PyClosure(
                        lambda b: VPi(
                            self.ev.apply_many(fam.axioms, av, iv, b),
                            constant_family(VCoverApp(fam, b)),
                        )
                    ),
                )
                self.check(ctx, f, f_ty)
                return
            case (T.Tr(_, _, _), _):
                self.fail(
                    "mismatch",
                    "tr checked against a non-cover type",
                    expected=self.norm_type(ctx, ty),
                )
        # fall through: infer and convert (sort-codomains subsume cumulatively)
        inferred = self.infer(ctx, t)
        if not self.subsumes(inferred, ty, ctx.depth):
            self.fail(
                "mismatch",
                "type mismatch",
                expected=self.norm_type(ctx, ty),
                found=self.norm_type(ctx, inferred),
            )

    def subsumes(self, got: Value, want: Value, depth: int) -> bool:
        """Type inclusion: exact conversion, except that a sort-valued codomain
        position may expect "any sort" (eliminator motives) and the large sort
        subsumes the universe."""
        if isinstance(want, VSort):
            if want.kind == "u0":
                return isinstance(got, VSort) and got.kind == "u0"
            return isinstance(got, VSort)
        if isinstance(got, VSort):
            return False
        if isinstance(want, VPi) and isinstance(got, VPi):
            if not self.ev.equal_types(got.dom, want.dom, depth):
                return False
            var = fresh(depth, want.dom)
            return self.subsumes(
                self.ev.apply_clo(got.cod, var),
                self.ev.apply_clo(want.cod, var),
                depth + 1,
            )
        return self.ev.equal_types(got, want, depth)


# --- declaration checking -----------------------------------------------------------


def check_declarations(decls, flags: Flags = Flags(), globals_env=None, step_limit: int = 2_000_000):
    """Check a declaration sequence in order, extending the global environment.

    Postulates are rejected except for the funext constant (requires the
    funext flag and the canonical type).  Returns the final global env.
    """
    checker = Checker(flags, globals_env, step_limit)
    ctx = Context()
    for d in decls:
        checker.location = d.location
        if d.name in checker.globals and not (
            d.name == FUNEXT_NAME and d.body is None
        ):
            checker.fail("mismatch", f"duplicate name {d.name!r}")
        checker.ensure_type(ctx, d.type)
        tyv = checker.eval_in(ctx, d.type)
        if d.body is None:
            if d.name != FUNEXT_NAME:
                checker.fail(
                    "flag-required",
                    f"postulates are not allowed (got {d.name!r}); "
                    "only funext may be postulated, under the funext flag",
                )
            if not flags.funext:
                checker.fail(
                    "flag-required",
                    "postulating funext requires the funext flag",
                )
            if not checker.types_equal(ctx, tyv, checker.globals[FUNEXT_NAME].type_value):
                checker.fail(
                    "mismatch",
                    "funext must be postulated at its canonical type",
                    expected=checker.norm_type(ctx, checker.globals[FUNEXT_NAME].type_value),
                    found=checker.norm_type(ctx, tyv),
                )
            continue  # already injected by the Checker constructor
        checker.check(ctx, d.body, tyv)
        value = checker.ev.eval((), d.body)
        checker.globals[d.name] = GlobalEntry(tyv, value, d.type, d.body)
    return checker


# --- public wrappers ------------------------------------------------------------------


def infer_type(checker: Checker, t: Term) -> Term:
    """Infer ``t``'s type in the empty context over the checker's globals."""
    ctx = Context()
    tyv = checker.infer(ctx, t)
    if isinstance(tyv, VSort):
        return T.Univ() if tyv == V_U0 else T.TypeSort()
    return checker.norm_type(ctx, tyv)


def normalize(checker: Checker, t: Term) -> Term:
    """Normal form of a closed, well-typed term (flag-aware)."""
    ctx = Context()
    tyv = checker.infer(ctx, t)
    if isinstance(tyv, VSort):
        return checker.norm_type(ctx, checker.eval_in(ctx, t))
    return checker.norm(ctx, checker.eval_in(ctx, t), tyv)


def convertible(checker: Checker, ty: Term, t: Term, u: Term, ctx: Optional[Context] = None) -> bool:
    """Whether ``t`` and ``u`` are judgmentally equal at type ``ty``."""
    if ctx is None:
        ctx = Context()
    checker.ensure_type(ctx, ty)
    tyv = checker.eval_in(ctx, ty)
    checker.check(ctx, t, tyv)
    checker.check(ctx, u, tyv)
    return checker.values_equal(
        ctx, checker.eval_in(ctx, t), checker.eval_in(ctx, u), tyv
    )
