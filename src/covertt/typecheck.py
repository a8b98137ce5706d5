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

A binder's variable is made once, by ``Context.extend``, and the rules
entering a binder use it (the lambda rule instantiates the codomain at
it), so conversion meets one object, not two equal ones.  A type
instantiated at a checked subterm (an application's codomain, the type of
``snd``'s second component, an eliminator's motive after the indices) gets
a fresh variable for it when its closure never reads that variable
(``Checker.argument``), so nested terms check in linear steps.

Every entry point begins with ``Checker.begin``, which names the location
of what it checks and gives it the evaluator's whole step budget: each
declaration (``check_declarations``), each ``normalize``, ``convertible``
or ``infer_type`` call (at ``<expr>``), and a CLI ``--context`` (at
``<context>``).  A type error is located there.  ``encodings.check_modules``
also names the declaration whose check stops short of a verdict.

``let x : A := v in b`` has one rule, used by ``infer`` and ``check``
alike: ``A`` is a type, ``v`` checks against it, and ``b`` is checked or
inferred in a context whose entry for ``x`` is ``v``'s value, not a fresh
variable, so the definition is transparent to conversion.
"""

from __future__ import annotations

import functools
from typing import Optional

from . import terms as T
from .terms import Declaration, Flags, Term
from . import semantics as S
from .semantics import (
    Evaluator,
    GlobalEntry,
    V_TYPE,
    V_U0,
    VApplied,
    VIntro,
    VLam,
    VNeutral,
    VPi,
    VSigma,
    VSort,
    Value,
    fresh,
)
from .surface import parse_term, pretty

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


class TypeCheckError(Exception):
    """A rejection: one kind, one location, and the expected and found
    terms where it has them.  Kinds: mismatch, unbound, not-a-function,
    not-a-universe, motive-shape, flag-required."""

    def __init__(
        self, kind: str, message: str, expected: Optional[Term] = None,
        found: Optional[Term] = None, location: str = "?",
    ):
        super().__init__(kind, message, expected, found, location)
        self.kind, self.message, self.location = kind, message, location
        self.expected, self.found = expected, found

    def __str__(self) -> str:
        parts = [f"{self.location}: {self.kind}: {self.message}"]
        if self.expected is not None:
            parts.append(f"  expected: {pretty(self.expected)}")
        if self.found is not None:
            parts.append(f"  found:    {pretty(self.found)}")
        return "\n".join(parts)


FUNEXT_NAME = "funext"


@functools.cache
def funext_type() -> Term:
    """The function-extensionality axiom's type, which a ``postulate
    funext`` must state, parsed once per process."""
    return parse_term(
        "(A : U0) -> (B : A -> U0) -> (f : (x : A) -> B x) -> (g : (x : A) -> B x)"
        " -> ((x : A) -> Id (B x) (f x) (g x)) -> Id ((x : A) -> B x) f g"
    )


class Context:
    """Typed telescope: type values and the matching evaluation
    environment: a fresh neutral per variable, or the value of a let-bound
    one, and their number.  It compares and hashes by identity, which
    ``Checker.lets`` keys on."""

    __slots__ = ("types", "env", "depth")

    def __init__(self, types: tuple = (), env: tuple = (), depth: int = 0):
        self.types, self.env, self.depth = types, env, depth

    def extend(self, ty: Value, value: Optional[Value] = None) -> "Context":
        """The context with one more entry of type ``ty``: ``value``, or the
        binder's variable, made here once for the rules entering it."""
        depth = self.depth
        entry = fresh(depth, ty) if value is None else value
        return Context(self.types + (ty,), self.env + (entry,), depth + 1)


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
    def __init__(self, flags: Flags = Flags()):
        self.flags = flags
        self.globals = {}
        self.ev = Evaluator(self.globals, flags)
        if flags.funext:
            tyv = self.ev.eval((), funext_type())
            self.globals[FUNEXT_NAME] = GlobalEntry(tyv, VNeutral(S.HConst(FUNEXT_NAME, tyv), ()))
        self.location = "?"
        self.lets = {}  # Context -> [(type term, value term, extended Context)]

    def use_globals(self, globals_env: dict):
        """Check against ``globals_env`` from now on.  The evaluator stays,
        so a recursor closure in a global built earlier charges its steps
        to the declaration being checked now."""
        self.globals = self.ev.globals = globals_env
        self.lets = {}

    # -- helpers --------------------------------------------------------------

    def begin(self, location: str):
        """Start an entry point's work at ``location``, with the evaluator's
        whole step budget and no remembered lets: the contexts they were
        checked in belong to the work before."""
        self.location = location
        self.ev.restart_budget()
        self.lets = {}

    def fail(self, kind: str, message: str, expected=None, found=None):
        raise TypeCheckError(kind, message, expected, found, self.location)

    def eval_in(self, ctx: Context, t: Term) -> Value:
        return self.ev.eval(ctx.env, t)

    def norm(self, ctx: Context, v: Value, ty: Value) -> Term:
        return self.ev.readback(v, ty, ctx.depth)

    def norm_type(self, ctx: Context, v: Value) -> Term:
        return self.ev.readback_type(v, ctx.depth)

    def argument(self, ctx: Context, clo, dom: Value, t: Term) -> Value:
        """What to apply ``clo`` to at the checked term ``t`` of type ``dom``:
        ``t``'s value, or a fresh variable if ``clo`` is a closure whose body
        never reads its variable, which then cannot show in the result.  A
        variable or constant is looked up, which is cheaper than that test."""
        lookup = type(t) is T.Var or type(t) is T.Const
        if lookup or type(clo) is not S.Closure or 0 in self.ev.reads(clo.body):
            return self.eval_in(ctx, t)
        return fresh(ctx.depth, dom)

    def ensure_type(self, ctx: Context, t: Term) -> Value:
        """Check that ``t`` is a type (small or large); return its sort."""
        sort = self.infer(ctx, t)
        if isinstance(sort, VSort):
            return sort
        self.fail("not-a-universe", "expected a type", found=self.norm_type(ctx, sort))

    # -- inference -------------------------------------------------------------

    def infer(self, ctx: Context, t: Term) -> Value:
        cls = type(t)
        if cls is T.Var:
            if t.index < 0 or t.index >= ctx.depth:
                self.fail("unbound", f"variable index {t.index} out of scope")
            return ctx.types[-1 - t.index]
        if cls is T.App:
            pi = self.infer(ctx, t.fn)
            if not isinstance(pi, VPi):
                self.fail(
                    "not-a-function",
                    "application head does not have a function type",
                    found=self.norm_type(ctx, pi),
                )
            self.check(ctx, t.arg, pi.dom)
            return self.ev.apply_clo(pi.cod, self.argument(ctx, pi.cod, pi.dom, t.arg))
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
            s2 = self.ensure_type(ctx.extend(self.eval_in(ctx, dom)), cod)
            return V_U0 if (s1 == V_U0 and s2 == V_U0) else V_TYPE
        if cls is T.Proj1 or cls is T.Proj2:
            pty = self.infer(ctx, t.pair)
            if not isinstance(pty, VSigma):
                self.fail("mismatch", WRONG_SCRUTINEE[cls], found=self.norm_type(ctx, pty))
            if cls is T.Proj1:
                return pty.dom
            return self.ev.apply_clo(pty.cod, self.argument(ctx, pty.cod, pty.dom, T.Proj1(t.pair)))
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
        indices, the motive gives the cases' types, and the result is the
        motive at the indices (``elim_motive``), then at the scrutinee."""
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
        motive = self.ev.elim_motive(sty, mv)
        clo = motive.clo if type(motive) is VLam else None
        return self.ev.apply(motive, self.argument(ctx, clo, sty, s))

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
        if not all(self.ev.equal(iv, x, ity, ctx.depth) for x, ity in index):
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
        cod = self.infer(ctx, f)
        for level in range(ctx.depth, ctx.depth + arity):
            if not isinstance(cod, VPi):
                return None
            cod = self.ev.apply_clo(cod.cod, fresh(level, cod.dom))
        # read back with the arguments in scope: they are the innermost
        # ``arity`` variables, which the codomain must not mention
        probe = self.ev.readback_type(cod, ctx.depth + arity)
        if not T.reads(probe).isdisjoint(range(arity)):
            return None
        for _ in range(arity):
            probe = T.strengthen(probe)
        return self.eval_in(ctx, probe)

    def check_motive(self, ctx: Context, m: Term, m_ty: Value) -> Value:
        try:
            self.check(ctx, m, m_ty)
        except TypeCheckError as e:
            if e.kind not in ("mismatch", "not-a-function", "not-a-universe"):
                raise
            shape = e
        else:
            return self.eval_in(ctx, m)
        # raised outside the handler, so it keeps no frames of ``shape``
        raise TypeCheckError(
            "motive-shape",
            f"ill-shaped eliminator motive or case: {shape.message}",
            shape.expected,
            shape.found,
            shape.location,
        )

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
            inner = ctx.extend(ty.dom)
            self.check(inner, t.body, self.ev.apply_clo(ty.cod, inner.env[-1]))
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
        None, with ``x`` standing for ``v``'s value.  Returns ``b``'s type.
        A let is checked once per context object: an equal ``A`` and ``v``
        reuse the context the first check built, so a certificate's type and
        proof share one instance value.  That is sound because an entry is
        stored only after its check succeeds, serves only this checker (one
        set of flags) until the next ``begin``, and ``use_globals`` drops it
        (until then globals only grow, as a name is never redefined)."""
        seen = self.lets.setdefault(ctx, [])
        inner = next((c for a, v, c in seen if t.type == a and t.value == v), None)
        if inner is None:
            self.ensure_type(ctx, t.type)
            tyv = self.eval_in(ctx, t.type)
            self.check(ctx, t.value, tyv)
            inner = ctx.extend(tyv, self.eval_in(ctx, t.value))
            seen.append((t.type, t.value, inner))
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
        subsumes the universe.  Codomains that are the same closure
        (``Evaluator._same``) are not instantiated: they read back equal,
        and inclusion is reflexive on types that read back equal."""
        if isinstance(want, VSort):
            if want.kind == "u0":
                return isinstance(got, VSort) and got.kind == "u0"
            return isinstance(got, VSort)
        if isinstance(got, VSort):
            return False
        if isinstance(want, VPi) and isinstance(got, VPi):
            if not self.ev.equal_types(got.dom, want.dom, depth):
                return False
            if self.ev._same(got.cod, want.cod):
                return True
            var = fresh(depth, want.dom)
            return self.subsumes(
                self.ev.apply_clo(got.cod, var),
                self.ev.apply_clo(want.cod, var),
                depth + 1,
            )
        return self.ev.equal_types(got, want, depth)


# --- declaration checking -----------------------------------------------------------


# What stops a check short of a verdict: an exhausted step budget, input
# nested too deeply for the interpreter, or a fault of the kernel's own.
STOPS = (S.EvalBudgetExceeded, RecursionError, S.KernelBug)


def stop_message(e: BaseException) -> str:
    """How ``e`` is reported: the recursion limit and a kernel fault are
    named; any other error, an exhausted budget included, is its message."""
    if isinstance(e, RecursionError):
        return f"input nested too deeply ({e})"
    if isinstance(e, S.KernelBug):
        return f"internal kernel error ({e})"
    return str(e)


class CheckStopped(Exception):
    """A declaration's check stopped (``STOPS``): the text is ``FILE:LINE:
    NAME: TEXT``, where ``TEXT`` is ``stop_message``'s."""


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
        checker.begin(d.location)
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
            if not checker.ev.equal_types(tyv, checker.globals[FUNEXT_NAME].type_value, ctx.depth):
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
    checker.begin("<expr>")
    ctx = Context()
    return checker.norm_type(ctx, checker.infer(ctx, t))


def normalize(checker: Checker, t: Term) -> Term:
    """Normal form of a closed, well-typed term (flag-aware)."""
    checker.begin("<expr>")
    ctx = Context()
    tyv = checker.infer(ctx, t)
    return checker.norm(ctx, checker.eval_in(ctx, t), tyv)


def convertible(checker: Checker, ty: Term, t: Term, u: Term, ctx: Optional[Context] = None) -> bool:
    """Whether ``t`` and ``u`` are judgmentally equal at type ``ty``."""
    checker.begin("<expr>")
    if ctx is None:
        ctx = Context()
    checker.ensure_type(ctx, ty)
    tyv = checker.eval_in(ctx, ty)
    checker.check(ctx, t, tyv)
    checker.check(ctx, u, tyv)
    return checker.ev.equal(checker.eval_in(ctx, t), checker.eval_in(ctx, u), tyv, ctx.depth)
