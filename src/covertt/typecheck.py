"""Bidirectional type checking.

Introduction forms check against their formers, eliminations and variables
infer, and every equality side-condition goes through conversion: both
sides are evaluated and the values compared directly under the active
flags (``Evaluator.conv``), with readback used only to print terms.
Eliminator motives are explicit arguments and may land either in the
universe of small types or in the large classification, which is what lets
predicates be defined by recursion.

The checker builds no types of its own.  The field types of every
formation, introduction and elimination come from the rules of
``semantics.Evaluator``, which readback and conversion read too.  A
formation or introduction checks its fields in order, each against the
type the rule computes from the fields before it, and evaluates a field
only when a later field's type reads it.  ``infer`` finds a type former, an
eliminator or a tree in the evaluator's tables, and a term that never
infers in ``NOT_INFERABLE``.  What only the checker needs stays here: the
rejection messages, the index checks, and the order in which an
eliminator's fields are checked: the scrutinee and its indices (J's
endpoints before its proof, ``CHECKED_SCRUTINEE``), the motive, the cases.

Each declaration (``check_declarations``) and each ``normalize``,
``convertible`` or ``infer_type`` call gets the evaluator's whole step
budget.  A type error is located at its declaration, or at ``<expr>`` in
one of those calls.

``let x : A := v in b`` has one rule, used by ``infer`` and ``check``
alike: ``A`` is a type, ``v`` checks against it, and ``b`` is checked or
inferred in a context whose entry for ``x`` is ``v``'s value, not a fresh
variable, so the definition is transparent to conversion.
"""

from __future__ import annotations

from typing import Optional

from . import terms as T
from .terms import Flags, Node, Term
from . import semantics as S
from .semantics import (
    Evaluator,
    GlobalEntry,
    V_TYPE,
    V_U0,
    VApplied,
    VIntro,
    VNeutral,
    VPi,
    VSigma,
    VSort,
    Value,
    fresh,
)

# term class -> the rejection of an elimination's scrutinee type, of an
# introduction's target type, and of either's index
WRONG_SCRUTINEE = {
    T.Proj1: "fst applied to a non-pair type",
    T.Proj2: "snd applied to a non-pair type",
    T.SigElim: "split scrutinee is not a pair",
    T.SumElim: "case scrutinee is not a sum",
    T.WElim: "elimW scrutinee is not a W-type element",
    T.DWElim: "elimDW scrutinee is not a dependent tree",
    T.WPElim: "elimWP scrutinee is not a derivation",
    T.CoverElim: "elimCover scrutinee is not a cover proof",
}
WRONG_TARGET = {
    T.Lam: "lambda checked against a non-function type",
    T.Pair: "pair checked against a non-pair type",
    T.Inl: "injection checked against a non-sum type",
    T.Inr: "injection checked against a non-sum type",
    T.Refl: "refl checked against a non-identity type",
    T.Sup: "sup checked against a non-W type",
    T.DSup: "dsup checked against a non-DW type",
    T.Ind: "ind checked against a non-WP type",
    T.Rf: "rf checked against a non-cover type",
    T.Tr: "tr checked against a non-cover type",
}
WRONG_INDEX = {
    T.DWElim: "elimDW index does not match the scrutinee's index",
    T.WPElim: "elimWP index does not match the scrutinee's index",
    T.CoverElim: "elimCover element does not match the scrutinee's element",
    T.Refl: "refl endpoint differs from the identity type's endpoints",
    T.DSup: "dsup index differs from the family index",
    T.Ind: "ind index differs from the family index",
    T.Rf: "rf element differs from the cover's element",
    T.Tr: "tr element differs from the cover's element",
}

# term class -> the rejection of inferring its type, for every term that
# never infers (sup, dsup and ind infer where their subtrees say their type)
NOT_INFERABLE = {
    T.TypeSort: ("not-a-universe", "the large sort is not a term"),
    T.Lam: ("mismatch", "an unannotated lambda is not inferable"),
    T.Pair: ("mismatch", "a bare pair is not inferable"),
    T.Inl: ("mismatch", "an injection is not inferable"),
    T.Inr: ("mismatch", "an injection is not inferable"),
    T.Refl: ("mismatch", "refl is not inferable"),
    T.Rf: ("mismatch", "cover introductions are not inferable"),
    T.Tr: ("mismatch", "cover introductions are not inferable"),
}
# eliminator -> its scrutinee's type former, where the scrutinee is checked
# against the type its indices form: N1 and N0 have none, and J's endpoints
# form Id at the first one's type.  Every other scrutinee infers.
CHECKED_SCRUTINEE = {T.UnitElim: T.Unit, T.EmptyElim: T.Empty, T.J: T.Id}


class TypeCheckError(Node, Exception):
    """A rejection: one kind, one location.

    Kinds: mismatch, unbound, not-a-function, not-a-universe, motive-shape,
    flag-required.
    """

    __slots__ = ("kind", "message", "expected", "found", "location")
    __setattr__ = Exception.__setattr__
    __delattr__ = Exception.__delattr__
    __hash__ = None  # mutable

    def __init__(
        self, kind: str, message: str, expected: Optional[Term] = None,
        found: Optional[Term] = None, location: str = "?",
    ):
        self._fill(kind, message, expected, found, location)

    def __str__(self) -> str:
        parts = [f"{self.location}: {self.kind}: {self.message}"]
        from .surface import pretty

        if self.expected is not None:
            parts.append(f"  expected: {pretty(self.expected)}")
        if self.found is not None:
            parts.append(f"  found:    {pretty(self.found)}")
        return "\n".join(parts)


class Declaration(Node):
    __slots__ = ("name", "type", "body", "location")

    def __init__(self, name: str, type: Term, body: Optional[Term] = None, location: str = "?"):
        self._fill(name, type, body, location)


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
    evaluation environment: a fresh neutral per variable, or the value of a
    let-bound one."""

    def __init__(self):
        self.names: list[str] = []
        self.types: list[Value] = []
        self.env: tuple = ()

    def extend(self, name: str, ty: Value, value: Optional[Value] = None) -> "Context":
        child = Context()
        child.names = self.names + [name]
        child.types = self.types + [ty]
        child.env = self.env + (fresh(len(self.env), ty) if value is None else value,)
        return child

    def lookup(self, index: int) -> Value:
        return self.types[-1 - index]

    @property
    def depth(self) -> int:
        return len(self.env)


def _term_fields(t: Term) -> list:
    return [getattr(t, name) for name, _ in T.CHILDREN[type(t)]]


class _Values(dict):
    """The values of a term's fields, ``vals[k]``, each evaluated when it
    is first read.  A rule reads only fields that are already checked, so
    a field no later field's type depends on is never evaluated."""

    def __init__(self, checker: "Checker", ctx: "Context", t: Term):
        super().__init__()
        self.checker, self.ctx, self.terms = checker, ctx, _term_fields(t)

    def __missing__(self, k: int) -> Value:
        v = self[k] = self.checker.eval_in(self.ctx, self.terms[k])
        return v


class Checker:
    def __init__(self, flags: Flags = Flags(), globals_env=None):
        self.flags = flags
        self.globals = {} if globals_env is None else globals_env
        self.ev = Evaluator(self.globals, flags)
        if flags.funext and FUNEXT_NAME not in self.globals:
            tyv = self.ev.eval((), funext_type())
            self.globals[FUNEXT_NAME] = GlobalEntry(tyv, VNeutral(S.HConst(FUNEXT_NAME, tyv), ()))
        self.location = "?"

    def use_globals(self, globals_env: dict):
        """Check against ``globals_env`` from now on.  The evaluator stays,
        so a recursor closure in a global built earlier charges its steps
        to the declaration being checked now."""
        self.globals = self.ev.globals = globals_env

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
        cls = type(t)
        if cls is T.Var:
            if t.index < 0 or t.index >= ctx.depth:
                self.fail("unbound", f"variable index {t.index} out of scope")
            return ctx.lookup(t.index)
        if cls is T.App:
            pi = self.whnf_pi(ctx, self.infer(ctx, t.fn), "application head")
            self.check(ctx, t.arg, pi.dom)
            return self.ev.apply_clo(pi.cod, self.eval_in(ctx, t.arg))
        if cls is T.Const:
            entry = self.globals.get(t.name)
            if entry is None:
                if t.name == FUNEXT_NAME:
                    self.fail("flag-required", "the funext constant requires the funext flag")
                self.fail("unbound", f"unknown name {t.name!r}")
            return entry.type_value
        if cls in S.CASES:
            return self.infer_elim(ctx, t)
        if cls in S.FORMERS:
            return self.infer_formation(ctx, t)
        if cls is T.Pi or cls is T.Sigma:
            dom, cod = _term_fields(t)
            s1 = self.ensure_type(ctx, dom)
            s2 = self.ensure_type(ctx.extend("_", self.eval_in(ctx, dom)), cod)
            return V_U0 if (s1 == V_U0 and s2 == V_U0) else V_TYPE
        if cls is T.Proj1 or cls is T.Proj2:
            pty = self.infer(ctx, t.pair)
            if not isinstance(pty, VSigma):
                self.fail("mismatch", WRONG_SCRUTINEE[cls], found=self.norm_type(ctx, pty))
            if cls is T.Proj1:
                return pty.dom
            return self.ev.apply_clo(pty.cod, self.ev.proj1(self.eval_in(ctx, t.pair)))
        if cls is T.Ann:
            self.ensure_type(ctx, t.type)
            tyv = self.eval_in(ctx, t.type)
            self.check(ctx, t.term, tyv)
            return tyv
        if cls is T.Let:
            return self.check_let(ctx, t)
        if cls is T.Univ:
            return V_TYPE
        if cls is T.Star:
            return VIntro(T.Unit, ())
        if cls in NOT_INFERABLE:
            self.fail(*NOT_INFERABLE[cls])
        if cls in S.TREES:
            return self.infer_tree(ctx, t)
        raise S.KernelBug(f"infer: unhandled term {cls.__name__}")

    def infer_formation(self, ctx: Context, t: Term) -> Value:
        """Formation of ``Sum``, ``Id``, a W type or a DW, WP or Cover family:
        each field is checked against the formation rule."""
        former = type(t)
        vals = _Values(self, ctx, t)
        for k, field in enumerate(vals.terms):
            self.check(ctx, field, self.ev.type_field(former, vals, k))
        return self.ev.formation_type(former, vals)

    def infer_elim(self, ctx: Context, t: Term) -> Value:
        """Elimination with an explicit motive.  The term's fields are the
        motive, one case per introduction, the scrutinee's indices and the
        scrutinee.  The scrutinee's type gives the motive's type and the
        indices, the motive gives the cases' types, and the result is
        ``Evaluator.elim_type``."""
        elim = type(t)
        m, *cases, s = _term_fields(t)
        n = len(S.CASES[elim])
        cases, index = cases[:n], cases[n:]
        former = CHECKED_SCRUTINEE.get(elim)
        if former is None:
            sty = self.infer(ctx, s)
        else:
            fields = [self.infer(ctx, i) for i in index[:1]]
            for i in index[1:]:
                self.check(ctx, i, fields[0])
            sty = VIntro(former, (*fields, *[self.eval_in(ctx, i) for i in index]))
            self.check(ctx, s, sty)
        m_ty = self.ev.motive_type(elim, sty)
        if m_ty is None:
            self.fail("mismatch", WRONG_SCRUTINEE[elim], found=self.norm_type(ctx, sty))
        if former is None:
            for i, (_, ity) in zip(index, S.type_index(sty)):
                self.check(ctx, i, ity)
                self.check_index(ctx, self.eval_in(ctx, i), elim, sty)
        mv = self.check_motive(ctx, m, m_ty)
        for c, c_ty in zip(cases, self.ev.case_types(sty, mv)):
            self.check(ctx, c, c_ty)
        return self.ev.elim_type(sty, mv, self.eval_in(ctx, s))

    def infer_tree(self, ctx: Context, t: Term) -> Value:
        """Best-effort inference of a tree: its type is the codomain of its
        subtree function, provided that does not depend on the position."""
        intro, fields = type(t), _term_fields(t)
        target = next(ty for ty, intros in S.INTROS.items() if intro in intros)
        cod = self._nondependent_codomain(ctx, fields[-1], S.TREES[intro])
        if S.type_former(cod) is not target:
            name = intro.__name__.lower()
            self.fail("mismatch", f"{name} is not inferable here; add an annotation")
        # an indexed tree's index is its first field
        ty = cod if target is T.W else VApplied(cod.fam, self.eval_in(ctx, fields[0]))
        self.check(ctx, t, ty)
        return ty

    def check_index(self, ctx: Context, iv: Value, form, ty: Value):
        """Check that the value ``iv`` is each of ``ty``'s indices (the index
        of an applied family, both endpoints of an identity type)."""
        index = S.type_index(ty)
        if not all(self.values_equal(ctx, iv, x, ity) for x, ity in index):
            want, ity = index[0]
            self.fail(
                "mismatch",
                WRONG_INDEX[form],
                expected=self.norm(ctx, want, ity),
                found=self.norm(ctx, iv, ity),
            )

    def _nondependent_codomain(self, ctx: Context, f: Term, arity: int):
        """Codomain of ``f``'s type after ``arity`` arguments, provided it does
        not depend on them; None when ``f`` is a term that never infers, its
        type has fewer than ``arity`` arrows, or the codomain mentions an
        argument.  Any other rejection of ``f`` is the tree's."""
        if type(f) in NOT_INFERABLE:
            return None
        depth = ctx.depth
        cod = self.infer(ctx, f)
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
        cls = type(t)
        if type(ty) is VSort:
            sort = self.ensure_type(ctx, t)
            if ty.kind == "u0" and sort != V_U0:
                self.fail(
                    "not-a-universe",
                    "a large type cannot inhabit the universe of small types",
                    found=T.TypeSort(),
                )
            return
        if cls is T.Lam and type(ty) is VPi:
            var = fresh(ctx.depth, ty.dom)
            self.check(ctx.extend("x", ty.dom), t.body, self.ev.apply_clo(ty.cod, var))
            return
        if cls is T.Star and S.type_former(ty) is T.Unit:
            return
        if cls is T.Let:
            self.check_let(ctx, t, ty)
            return
        if cls in WRONG_TARGET:
            self.check_intro(ctx, t, ty)
            return
        # fall through: infer and convert (sort-codomains subsume cumulatively)
        inferred = self.infer(ctx, t)
        if not self.subsumes(inferred, ty, ctx.depth):
            self.fail(
                "mismatch",
                "type mismatch",
                expected=self.norm_type(ctx, ty),
                found=self.norm_type(ctx, inferred),
            )

    def check_let(self, ctx: Context, t: Term, ty: Optional[Value] = None) -> Value:
        """``let x : A := v in b``: ``A`` is a type and ``v`` checks against
        it; then ``b`` is checked against ``ty``, or inferred when ``ty`` is
        None, with ``x`` standing for ``v``'s value.  Returns ``b``'s type."""
        self.ensure_type(ctx, t.type)
        tyv = self.eval_in(ctx, t.type)
        self.check(ctx, t.value, tyv)
        inner = ctx.extend("x", tyv, self.eval_in(ctx, t.value))
        if ty is None:
            return self.infer(inner, t.body)
        self.check(inner, t.body, ty)
        return ty

    def check_intro(self, ctx: Context, t: Term, ty: Value):
        """An introduction: the target type gives each field's type, and the
        first field must be the target's index, if it has one."""
        intro = type(t)
        if not S.inhabits(intro, ty):
            self.fail("mismatch", WRONG_TARGET[intro], expected=self.norm_type(ctx, ty))
        vals = _Values(self, ctx, t)
        for k, field in enumerate(vals.terms):
            self.check(ctx, field, self.ev.value_field(intro, ty, vals, k))
            if k == 0 and S.type_index(ty):
                self.check_index(ctx, vals[0], intro, ty)

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


def check_new_name(d: Declaration, names) -> None:
    """Reject ``d`` if it defines a name already in ``names``.  Postulating
    funext is not a definition: that constant is the checker's own."""
    if d.name in names and not (d.name == FUNEXT_NAME and d.body is None):
        raise TypeCheckError("mismatch", f"duplicate name {d.name!r}", location=d.location)


def check_declarations(decls, flags: Flags = Flags(), checker: Optional[Checker] = None) -> Checker:
    """Check a declaration sequence in order, extending the global environment.

    Each declaration gets the evaluator's full step budget.  The sequence
    extends ``checker`` when one is given (``flags`` then goes unused),
    else a new checker under ``flags``.  Postulates are rejected except for
    the funext constant (requires the funext flag and the canonical type).
    Returns the checker.
    """
    if checker is None:
        checker = Checker(flags)
    flags = checker.flags
    ctx = Context()
    for d in decls:
        checker.location = d.location
        checker.ev.restart_budget()
        check_new_name(d, checker.globals)
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
        checker.globals[d.name] = GlobalEntry(tyv, value)
    return checker


# --- public wrappers ------------------------------------------------------------------


def infer_type(checker: Checker, t: Term) -> Term:
    """Infer ``t``'s type in the empty context over the checker's globals."""
    checker.ev.restart_budget()
    checker.location = "<expr>"
    ctx = Context()
    tyv = checker.infer(ctx, t)
    if isinstance(tyv, VSort):
        return T.Univ() if tyv == V_U0 else T.TypeSort()
    return checker.norm_type(ctx, tyv)


def normalize(checker: Checker, t: Term) -> Term:
    """Normal form of a closed, well-typed term (flag-aware)."""
    checker.ev.restart_budget()
    checker.location = "<expr>"
    ctx = Context()
    tyv = checker.infer(ctx, t)
    if isinstance(tyv, VSort):
        return checker.norm_type(ctx, checker.eval_in(ctx, t))
    return checker.norm(ctx, checker.eval_in(ctx, t), tyv)


def convertible(checker: Checker, ty: Term, t: Term, u: Term, ctx: Optional[Context] = None) -> bool:
    """Whether ``t`` and ``u`` are judgmentally equal at type ``ty``."""
    checker.ev.restart_budget()
    checker.location = "<expr>"
    if ctx is None:
        ctx = Context()
    checker.ensure_type(ctx, ty)
    tyv = checker.eval_in(ctx, ty)
    checker.check(ctx, t, tyv)
    checker.check(ctx, u, tyv)
    return checker.values_equal(
        ctx, checker.eval_in(ctx, t), checker.eval_in(ctx, u), tyv
    )
