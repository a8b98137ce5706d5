"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import os
import random
from typing import Optional

from covertt import cover, surface, typecheck
from covertt import terms as T
from covertt.cover import CoverFile, FiniteAxiomSet, FormatError, RfNode, Subset, TrNode, derivation
from covertt.encodings import CorpusResult, _check_module, corpus_dir, load_manifest
from covertt.surface import RESERVED, ParseError
from covertt.semantics import (
    V_TYPE,
    V_U0,
    Closure,
    EvalBudgetExceeded,
    Evaluator,
    Frame,
    KernelBug,
    PyClosure,
    Value,
    VIntro,
    VLam,
    VNeutral,
    VPi,
    VSigma,
    fresh,
)
from covertt.terms import Flags
from covertt.typecheck import Checker, Context

CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "covertt", "corpus")


ALL_FLAG_SETS = [
    Flags(eta_pi=a, eta_sigma=b, eta_unit=c, funext=d)
    for a, b, c, d in itertools.product([False, True], repeat=4)
]


def checker_with(evaluator, flags: Flags = Flags(), checker_class=Checker) -> Checker:
    """A ``checker_class`` under ``flags`` whose evaluator is of class
    ``evaluator``."""
    checker = checker_class(flags)
    checker.ev = evaluator(checker.globals, flags)
    return checker


def checker_for(src: str, flags: Flags = Flags(), evaluator=Evaluator) -> Checker:
    decls, _ = surface.parse_file(src)
    return typecheck.check_declarations(decls, checker=checker_with(evaluator, flags))


def context_of(checker: Checker, items: list[tuple[str, str]]):
    """Build a typed context from (name, type-source) pairs."""
    ctx = Context()
    scope: list[str] = []
    for name, ty_src in items:
        ty = surface.parse_term(ty_src, scope=scope)
        checker.ensure_type(ctx, ty)
        ctx = ctx.extend(checker.eval_in(ctx, ty))
        scope.append(name)
    return ctx, scope


def conv(checker: Checker, ctx, scope, ty_src: str, lhs_src: str, rhs_src: str) -> bool:
    ty = surface.parse_term(ty_src, scope=scope)
    lhs = surface.parse_term(lhs_src, scope=scope)
    rhs = surface.parse_term(rhs_src, scope=scope)
    return typecheck.convertible(checker, ty, lhs, rhs, ctx)


def check_in(checker: Checker, ctx, scope, term_src: str, ty_src: str):
    ty = surface.parse_term(ty_src, scope=scope)
    checker.ensure_type(ctx, ty)
    tyv = checker.eval_in(ctx, ty)
    term = surface.parse_term(term_src, scope=scope)
    checker.check(ctx, term, tyv)


def funext_type_reference() -> T.Term:
    """The funext axiom's type built by hand, the oracle of
    ``typecheck.funext_type``: (A : U0) (B : A -> U0) (f g : (x : A) -> B x)
    -> ((x : A) -> Id (B x) (f x) (g x)) -> Id ((x : A) -> B x) f g."""
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


def load_file(path: str) -> list[T.Declaration]:
    """The declarations of ``path`` and of every file it imports, each file
    once, in the order of ``surface.load_modules``, as one flat sequence.
    The commands check a file module by module (``encodings.check_modules``)."""
    return [d for module in surface.load_modules(path) for d in module.decls]


def load_corpus_file(name: str):
    return load_file(os.path.join(CORPUS, name))


def term_key(t):
    """``t`` as nested tuples: its class, then its index or name for a
    variable or constant, else the keys of its children.  Built from
    ``terms.CHILDREN`` and field reads alone, as an oracle for the
    equality and hashing of terms."""
    cls = type(t)
    if cls is T.Var:
        return (cls, t.index)
    if cls is T.Const:
        return (cls, t.name)
    return (cls, *[term_key(getattr(t, name)) for name, _ in T.CHILDREN[cls]])


def nested_identity(depth: int) -> str:
    """Checking this takes no steps, since the identity's type does not
    read its argument, and normalizing it ``depth`` (one per application).
    ``EagerArgumentChecker`` takes depth * (depth - 1) / 2 to check it."""
    return "(fun x => x : N1 -> N1) (" * depth + "star" + ")" * depth


def write_corpus(tmp_path, manifest: str, files: dict) -> str:
    """A corpus directory holding ``manifest`` and the named files."""
    (tmp_path / "manifest").write_text(manifest)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return str(tmp_path)


def check_corpus_flat(flags: Flags, base: str | None = None) -> list[CorpusResult]:
    """The corpus check that ``check_corpus`` replaced, kept as its oracle:
    each entry is flattened with its imports by ``load_file`` and
    checked from scratch by a fresh checker, one declaration at a time."""
    base = base or corpus_dir()
    results = []
    for entry in load_manifest(base):
        if not flags.includes(entry.required):
            missing = [
                n for n in Flags.FLAG_NAMES
                if getattr(entry.required, n) and not getattr(flags, n)
            ]
            results.append(
                CorpusResult(entry.tag, entry.file, "skip", "needs " + " ".join(missing))
            )
            continue
        try:
            decls = load_file(entry.path(base))
            checker = Checker(flags)
            for d in decls:
                typecheck.check_declarations([d], checker=checker)
            results.append(CorpusResult(entry.tag, entry.file, "pass"))
        except (ParseError, OSError, typecheck.TypeCheckError) as e:
            results.append(CorpusResult(entry.tag, entry.file, "fail", str(e).splitlines()[0]))
        except EvalBudgetExceeded as e:
            results.append(
                CorpusResult(entry.tag, entry.file, "fail", f"{d.location}: {d.name}: {e}")
            )
    return results


def corpus_normal_forms(flags: Flags, evaluator=Evaluator, checker_class=Checker):
    """Check every module that the manifest's entries under ``flags`` reach,
    each once and against the globals of its own imports, as
    ``check_corpus`` does, with a ``checker_class`` whose evaluator is of
    class ``evaluator``; then
    read back every definition that passed at its type.  Returns each
    module's verdict as (file, index of the first failing declaration,
    detail), the evaluator's steps after checking, and one
    ``NAME := NORMAL FORM`` line per definition, in order."""
    checker = checker_with(evaluator, flags, checker_class)
    builtin = dict(checker.globals)
    parsed: dict = {}
    checked: dict = {}
    modules = []
    for entry in load_manifest():
        if not flags.includes(entry.required):
            continue
        for module in surface.load_modules(entry.path(), parsed):
            if module.path not in checked:
                checked[module.path] = _check_module(module, checker, builtin, checked)
                modules.append(module)
    verdicts = [
        (os.path.basename(m.path), checked[m.path].failed, str(checked[m.path].error or ""))
        for m in modules
    ]
    ev = checker.ev
    steps = ev.steps
    forms = []
    for module in modules:
        result = checked[module.path]
        checker.use_globals(result.globals)
        for d in module.decls[: result.failed]:
            entry = result.globals[d.name]
            ev.restart_budget()
            nf = ev.readback(entry.value, entry.type_value, 0)
            forms.append(f"{d.name} := {surface.pretty(nf)}")
    return verdicts, steps, forms


def readback_equal(ev: Evaluator, a: Value, b: Value, ty: Value = V_TYPE, depth: int = 0) -> bool:
    """The conversion check the kernel used to run, kept as the oracle of
    ``Evaluator.conv``: read both values back in full and compare the terms.
    At a sort (the default) the values are types."""
    return ev.readback(a, ty, depth) == ev.readback(b, ty, depth)


def same_whole_environment(x, y) -> bool:
    """The structural identity that ``Evaluator._same`` replaced, kept as its
    oracle: closures are the same only with the same body object and the
    same whole environment, whatever entries the body reads."""
    if x is y:
        return True
    cls = type(x)
    if cls is not type(y):
        return False
    if cls is tuple:
        return len(x) == len(y) and all(map(same_whole_environment, x, y))
    if cls is Closure:
        return x.body is y.body and same_whole_environment(x.env, y.env)
    if cls is PyClosure:
        return False
    if cls is Frame or cls is VIntro:
        return x.form is y.form and same_whole_environment(x.args, y.args)
    if cls is int or cls is str:
        return x == y
    fields = x.__match_args__
    return all(same_whole_environment(getattr(x, n), getattr(y, n)) for n in fields)


class UnsharedLetChecker(Checker):
    """The checker before it remembered the lets it had checked, kept as the
    oracle of ``Checker.check_let``: every ``let`` is checked, and its value
    evaluated, each time it is met."""

    def check_let(self, ctx, t, ty=None):
        self.ensure_type(ctx, t.type)
        tyv = self.eval_in(ctx, t.type)
        self.check(ctx, t.value, tyv)
        inner = ctx.extend(tyv, self.eval_in(ctx, t.value))
        if ty is None:
            return self.infer(inner, t.body)
        self.check(inner, t.body, ty)
        return ty


class EagerArgumentChecker(Checker):
    """The checker before it evaluated a checked argument only where the
    type being instantiated reads it, kept as the oracle of
    ``Checker.argument``: every application's argument, every Sigma first
    component and every eliminator's scrutinee is evaluated to instantiate
    its type, which makes checking nested applications quadratic."""

    def argument(self, ctx, clo, dom, t):
        return self.eval_in(ctx, t)


class SecondVariableChecker(Checker):
    """The checker before a lambda's body was checked against the codomain
    at the variable its context gives the binder, kept as the oracle of the
    lambda rule of ``Checker.check``: the codomain is instantiated at a
    second fresh variable, equal to the context's but a distinct object, so
    conversion meets two objects where it could meet one."""

    def check(self, ctx, t, ty):
        if type(t) is T.Lam and type(ty) is VPi:
            var = fresh(ctx.depth, ty.dom)
            self.check(ctx.extend(ty.dom), t.body, self.ev.apply_clo(ty.cod, var))
            return
        super().check(ctx, t, ty)


class HandWrittenEvaluator(Evaluator):
    """The evaluator ``Evaluator.elim`` replaced, kept as its oracle: one
    class pattern per term in ``eval`` and one method per eliminator, each
    ticking where its computation rule fires.  Neutrals are built from the
    same ``Frame``s, so the two evaluators' values can be read back and
    compared by one readback."""

    def sig_elim(self, motive: Value, case: Value, s: Value) -> Value:
        match s:
            case VIntro(T.Pair, (a, b)):
                self._tick()
                return self.apply_many(case, a, b)
            case VNeutral(head, frames):
                return VNeutral(head, frames + (Frame(T.SigElim, (motive, case)),))
        raise KernelBug("split on non-pair")

    def sum_elim(self, motive: Value, cl: Value, cr: Value, s: Value) -> Value:
        match s:
            case VIntro(T.Inl, (x,)):
                self._tick()
                return self.apply(cl, x)
            case VIntro(T.Inr, (x,)):
                self._tick()
                return self.apply(cr, x)
            case VNeutral(head, frames):
                return VNeutral(head, frames + (Frame(T.SumElim, (motive, cl, cr)),))
        raise KernelBug("case on non-injection")

    def unit_elim(self, motive: Value, case: Value, s: Value) -> Value:
        # Under eta_unit every element of N1 equals star, so the eliminator
        # may fire regardless of the scrutinee.
        if s == VIntro(T.Star, ()) or self.flags.eta_unit:
            self._tick()
            return case
        match s:
            case VNeutral(head, frames):
                return VNeutral(head, frames + (Frame(T.UnitElim, (motive, case)),))
        raise KernelBug("unitElim on non-unit value")

    def empty_elim(self, motive: Value, s: Value) -> Value:
        match s:
            case VNeutral(head, frames):
                return VNeutral(head, frames + (Frame(T.EmptyElim, (motive,)),))
        raise KernelBug("absurd applied to a canonical value")

    def j_elim(self, motive: Value, d: Value, p: Value) -> Value:
        match p:
            case VIntro(T.Refl, (x,)):
                self._tick()
                return self.apply(d, x)
            case VNeutral(head, frames):
                return VNeutral(head, frames + (Frame(T.J, (motive, d)),))
        raise KernelBug("J on non-identity value")

    def w_elim(self, motive: Value, step: Value, s: Value) -> Value:
        match s:
            case VIntro(T.Sup, (a, f)):
                self._tick()
                rec = PyClosure(
                    lambda b: self.w_elim(motive, step, self.apply(f, b))
                )
                return self.apply_many(step, a, f, VLam(rec))
            case VNeutral(head, frames):
                return VNeutral(head, frames + (Frame(T.WElim, (motive, step)),))
        raise KernelBug("elimW on non-sup value")

    def dw_elim(self, motive: Value, step: Value, s: Value) -> Value:
        match s:
            case VIntro(T.DSup, (i, n, f)):
                self._tick()
                rec = PyClosure(
                    lambda b: self.dw_elim(motive, step, self.apply(f, b))
                )
                return self.apply_many(step, i, n, f, VLam(rec))
            case VNeutral(head, frames):
                return VNeutral(head, frames + (Frame(T.DWElim, (motive, step)),))
        raise KernelBug("elimDW on non-dsup value")

    def wp_elim(self, motive: Value, step: Value, s: Value) -> Value:
        match s:
            case VIntro(T.Ind, (i, n, f)):
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
                return VNeutral(head, frames + (Frame(T.WPElim, (motive, step)),))
        raise KernelBug("elimWP on non-ind value")

    def cover_elim(self, motive: Value, q1: Value, q2: Value, s: Value) -> Value:
        match s:
            case VIntro(T.Rf, (a, r)):
                self._tick()
                return self.apply_many(q1, a, r)
            case VIntro(T.Tr, (a, i, f)):
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
                return VNeutral(head, frames + (Frame(T.CoverElim, (motive, q1, q2)),))
        raise KernelBug("elimCover on non-canonical cover proof")

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
            case T.Let(_ty, value, body):
                return self.eval(env + (self.eval(env, value),), body)
            case T.Univ():
                return V_U0
            case T.TypeSort():
                return V_TYPE
            case T.Empty():
                return VIntro(T.Empty, ())
            case T.Unit():
                return VIntro(T.Unit, ())
            case T.Star():
                return VIntro(T.Star, ())
            case T.Pi(dom, cod):
                return VPi(self.eval(env, dom), Closure(env, cod))
            case T.Lam(body):
                return VLam(Closure(env, body))
            case T.App(f, a):
                return self.apply(self.eval(env, f), self.eval(env, a))
            case T.Sigma(fst, snd):
                return VSigma(self.eval(env, fst), Closure(env, snd))
            case T.Pair(a, b):
                return VIntro(T.Pair, (self.eval(env, a), self.eval(env, b)))
            case T.Proj1(p):
                return self.proj(T.Proj1, self.eval(env, p))
            case T.Proj2(p):
                return self.proj(T.Proj2, self.eval(env, p))
            case T.SigElim(m, c, s):
                return self.sig_elim(self.eval(env, m), self.eval(env, c), self.eval(env, s))
            case T.Sum(l, r):
                return VIntro(T.Sum, (self.eval(env, l), self.eval(env, r)))
            case T.Inl(x):
                return VIntro(T.Inl, (self.eval(env, x),))
            case T.Inr(x):
                return VIntro(T.Inr, (self.eval(env, x),))
            case T.SumElim(m, cl, cr, s):
                return self.sum_elim(
                    self.eval(env, m), self.eval(env, cl), self.eval(env, cr), self.eval(env, s)
                )
            case T.Id(ty, a, b):
                return VIntro(T.Id, (self.eval(env, ty), self.eval(env, a), self.eval(env, b)))
            case T.Refl(x):
                return VIntro(T.Refl, (self.eval(env, x),))
            case T.J(m, d, _a, _b, p):
                return self.j_elim(self.eval(env, m), self.eval(env, d), self.eval(env, p))
            case T.UnitElim(m, c, s):
                return self.unit_elim(self.eval(env, m), self.eval(env, c), self.eval(env, s))
            case T.EmptyElim(m, s):
                return self.empty_elim(self.eval(env, m), self.eval(env, s))
            case T.W(a, b):
                return VIntro(T.W, (self.eval(env, a), self.eval(env, b)))
            case T.Sup(a, f):
                return VIntro(T.Sup, (self.eval(env, a), self.eval(env, f)))
            case T.WElim(m, d, s):
                return self.w_elim(self.eval(env, m), self.eval(env, d), self.eval(env, s))
            case T.DW(i, n, br, ar):
                return VIntro(
                    T.DW,
                    (self.eval(env, i), self.eval(env, n), self.eval(env, br), self.eval(env, ar)),
                )
            case T.DSup(i, n, f):
                return VIntro(T.DSup, (self.eval(env, i), self.eval(env, n), self.eval(env, f)))
            case T.DWElim(m, d, _i, s):
                return self.dw_elim(self.eval(env, m), self.eval(env, d), self.eval(env, s))
            case T.WP(i, n, r):
                return VIntro(T.WP, (self.eval(env, i), self.eval(env, n), self.eval(env, r)))
            case T.Ind(i, n, f):
                return VIntro(T.Ind, (self.eval(env, i), self.eval(env, n), self.eval(env, f)))
            case T.WPElim(m, c, _i, s):
                return self.wp_elim(self.eval(env, m), self.eval(env, c), self.eval(env, s))
            case T.Cover(a, i, c, v):
                return VIntro(
                    T.Cover,
                    (self.eval(env, a), self.eval(env, i), self.eval(env, c), self.eval(env, v)),
                )
            case T.Rf(a, r):
                return VIntro(T.Rf, (self.eval(env, a), self.eval(env, r)))
            case T.Tr(a, i, f):
                return VIntro(T.Tr, (self.eval(env, a), self.eval(env, i), self.eval(env, f)))
            case T.CoverElim(m, q1, q2, _a, s):
                return self.cover_elim(
                    self.eval(env, m),
                    self.eval(env, q1),
                    self.eval(env, q2),
                    self.eval(env, s),
                )
        raise KernelBug(f"eval: unhandled term {type(t).__name__}")


def kleene_step(ax: FiniteAxiomSet, v_mask: int, x_mask: int) -> int:
    out = x_mask | v_mask
    covers = ax.covers
    for a in range(ax.size):
        if out >> a & 1:
            continue
        for cov in covers[a]:
            if cov.mask & ~x_mask == 0:
                out |= 1 << a
                break
    return out


def kleene_least_cover(ax: FiniteAxiomSet, v: Subset) -> Subset:
    """The fixpoint algorithm the cover engine used to run, kept as an oracle
    of ``cover.least_cover``: monotone iteration from the empty set."""
    x = 0
    while True:
        nxt = kleene_step(ax, v.mask, x)
        if nxt == x:
            return Subset(x, ax.size)
        x = nxt


def brute_force_min_cover(ax: FiniteAxiomSet, v: Subset) -> Subset:
    """Intersection of all rule-closed supersets of V.  Oracle for
    ``least_cover``; exponential, bounded to small carriers."""
    cover._same_carrier(ax, v)
    n = ax.size
    if n > 12:
        raise ValueError("brute-force oracle bounded to carriers of size <= 12")
    v_mask = v.mask
    cover_masks = [[sum(1 << b for b in set(p)) for p in per_atom] for per_atom in ax.premises]
    acc = (1 << n) - 1
    for x in range(1 << n):
        if v_mask & ~x:
            continue
        closed = True
        for a in range(n):
            if x >> a & 1:
                continue
            for mask in cover_masks[a]:
                if mask & ~x == 0:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            acc &= x
    return Subset(acc, n)


def replay_derivation(ax: FiniteAxiomSet, v: Subset, atom: int):
    """The derivation the cover engine used to build, kept as an oracle of
    ``cover.derivation``: replay the Kleene rounds from V, and give each atom
    its first axiom whose premises were all in the round before it entered."""
    rounds: list[int] = [v.mask]
    x = v.mask
    while True:
        nxt = kleene_step(ax, v.mask, x)
        if nxt == x:
            break
        rounds.append(nxt)
        x = nxt
    if not x >> atom & 1:
        return None
    covers = ax.covers

    def build(a: int):
        if v.mask >> a & 1:
            return RfNode(a)
        entered = next(k for k in range(len(rounds)) if rounds[k] >> a & 1)
        prev = rounds[entered - 1]
        for li, cov in enumerate(covers[a]):
            if cov.mask & ~prev == 0:
                return TrNode(a, li, tuple(build(b) for b in cov.members))
        raise AssertionError("round replay lost an axiom")

    return build(atom)


def whole_carrier_entry_rounds(ax: FiniteAxiomSet, v: Subset) -> list[Optional[int]]:
    """The fixpoint ``cover._entry_rounds`` replaced, kept as its oracle: it
    indexes every axiom of the carrier, whatever the goals, and gives every
    atom its round in the least cover of V, or ``None``."""
    rounds: list[Optional[int]] = [None] * ax.size
    layer = v.members
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
            premises = cov.members
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


def reached_atoms(ax: FiniteAxiomSet, v: Subset, goals) -> set:
    """The goals and, from each atom outside V, the premises of its axioms."""
    seen, todo = set(goals), list(goals)
    covers = ax.covers
    while todo:
        a = todo.pop()
        if v.contains(a):
            continue
        for cov in covers[a]:
            for b in cov.members:
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
    return seen


def random_instance(rng, n):
    """A random axiom set over n atoms, as criterion 6 draws them."""
    names = tuple(chr(ord("a") + i) for i in range(n))
    labels, covers = [], []
    for _ in range(n):
        m = rng.randint(0, 3)
        labels.append(tuple(f"i{j}" for j in range(m)))
        covers.append(tuple(Subset(rng.randrange(1 << n), n) for _ in range(m)))
    return FiniteAxiomSet(names, tuple(labels), tuple(covers))


def criterion6_derivations(seed: int = 98765):
    """(axiom set, V, atom, derivation) for every covered atom of the
    criterion-6 stream: 100 random instances over 2-4 atoms."""
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        ax = random_instance(rng, n)
        v = Subset(rng.randrange(1 << n), n)
        for atom in range(n):
            d = derivation(ax, v, atom)
            if d is not None:
                yield ax, v, atom, d


# --- the axiom-set loader the cover engine used to run ----------------------------


def subset_by_mask(indices, size: int) -> Subset:
    """The Subset builder ``Subset.of`` replaced, kept as its oracle: the
    indices sorted and OR-ed into a carrier-wide mask, and the Subset read
    off the mask by the constructor's bit walk."""
    m = 0
    for i in sorted(set(indices)):
        m |= 1 << i
    return Subset(m, size)


def load_axiom_set_reference(text: str) -> CoverFile:
    """The loader ``cover.load_axiom_set`` replaced, kept as its oracle: one
    ``match`` on each line's words, and each Subset built by
    ``subset_by_mask``.
    A malformed ``query`` line falls through to ``unrecognized item``.

    Line format: ``carrier``, ``axiom``, ``subset`` and ``query`` items."""
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
                covers[a].append(subset_by_mask(idxs, len(carrier)))
            case ["axiom", *_]:
                raise FormatError("malformed axiom line (expected 'axiom a i : b ...')", ln)
            case ["subset", name, ":", *members]:
                if carrier is None:
                    raise FormatError("carrier must come first", ln)
                if name in subsets:
                    raise FormatError(f"duplicate subset {name!r}", ln)
                idxs = [atom_index(m, ln) for m in members]
                subsets[name] = subset_by_mask(idxs, len(carrier))
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


def chain_cover_text(rng: random.Random, n: int) -> str:
    """An n-atom chain ``c0 <- c1 <- ... <- c(n-1)``, its carrier shuffled.
    Queries: ``c0`` and then the middle atom against ``top`` = {c(n-1)}
    (covered), ``c0`` and the tail against the empty ``none`` (uncovered)."""
    order = [f"c{i}" for i in range(n)]
    rng.shuffle(order)
    lines = ["carrier " + " ".join(order)]
    lines += [f"axiom c{i} k : c{i + 1}" for i in range(n - 1)]
    lines += [f"subset top : c{n - 1}", "subset none :"]
    lines += ["query c0 top", f"query c{n // 2} top", "query c0 none", f"query c{n - 1} none"]
    return "\n".join(lines) + "\n"


def layered_horn_cover_text(rng: random.Random, width: int, depth: int) -> str:
    """A sparse Horn set in ``depth`` layers of ``width`` atoms, its carrier
    shuffled.  Layer ``depth - 1`` is the bottom; half of it is ``base``.
    Every other atom has up to two axioms, each with one to three premises
    drawn from the layer below, a premise sometimes repeated, and comments,
    blank lines and tabs are scattered through the file.  Queries ask every
    top-layer atom against ``base`` and against the empty ``none``."""
    layers = [[f"h{k}_{j}" for j in range(width)] for k in range(depth)]
    order = [a for layer in layers for a in layer]
    rng.shuffle(order)
    lines = ["# a generated Horn set", "carrier " + " ".join(order)]
    for k in range(depth - 1):
        for a in layers[k]:
            for i in range(rng.randint(0, 2)):
                premises = [rng.choice(layers[k + 1]) for _ in range(rng.randint(1, 3))]
                sep = rng.choice([" ", "\t", "  "])
                lines.append(sep.join(["axiom", a, f"r{i}", ":", *premises]))
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "   ", "# between axioms"]))
    base = rng.sample(layers[-1], width // 2)
    lines.append("subset base : " + " ".join(base) + "  # the covered half")
    lines.append("subset none :")
    lines += [f"query {a} {v}" for v in ("base", "none") for a in layers[0]]
    return "\n".join(lines) + "\n"


# --- the certificate encoding over unary axiom families -------------------------
#
# Kept as an oracle of cover.cover_type and cover.extract_proof_term.  The
# instance's lets (``instance_lets_unary``) are the engine's, but for the
# axiom family: ``A a i`` is C(a, i) as a closed predicate, a case split
# over the carrier with ``N1`` at each premise and ``N0`` elsewhere.  A
# ``tr`` node's premise function then splits the carrier too, and bridges a
# premise's proof from ``star`` to the premise's unit payload by a unit
# elimination.


def instance_lets_unary(ax: FiniteAxiomSet, v: Subset) -> list:
    k = ax.size

    def axioms_for(a: int, depth: int):
        # fun i => C(a, i), by case split on the label
        def axiom(li: int, _depth: int):
            return T.Lam(cover._family_body(cover._subset_codes(ax.axiom(a, li))))

        predicates = lambda _j, d: cover._predicates(d)
        return T.Lam(cover._case_tree(len(ax.labels[a]), axiom, predicates, depth + 1))

    def axioms_motive(j: int, depth: int):
        # L (inr^j y) -> C -> U0, y the tail's element
        label = T.App(cover._ref(cover._L, depth), cover._embed(j, j + 1, T.Var(0)))
        return T.Pi(label, cover._predicates(depth + 1))

    lets = cover._instance(ax, v)
    axioms_type = lets[cover._A][0]
    lets[cover._A] = axioms_type, T.Lam(cover._case_tree(k, axioms_for, axioms_motive, 3))
    return lets


def cover_type_unary(ax: FiniteAxiomSet, v: Subset, atom: int):
    cover._same_carrier(ax, v)
    cov = cover._ref(cover._COV, 5)
    return cover._lets(instance_lets_unary(ax, v), T.App(cov, cover.fin_elem(atom, ax.size)))


def extract_proof_term_unary(ax: FiniteAxiomSet, v: Subset, d):
    cover._same_carrier(ax, v)
    k = ax.size
    ref, embed, fin_elem, COV = cover._ref, cover._embed, cover.fin_elem, cover._COV
    if isinstance(d, RfNode):
        return T.Rf(fin_elem(d.atom, k), T.Star())
    nodes = cover._tr_nodes(d)
    level = {id(node): COV + 1 + n for n, node in enumerate(nodes)}

    def binding(node: TrNode):
        # Cov a and tr a i f, under the lets before the node's own
        depth = level[id(node)]
        cov = ax.axiom(node.atom, node.label)
        children = dict(zip(cov.members, node.children))
        a = fin_elem(node.atom, k)
        i = fin_elem(node.label, len(ax.labels[node.atom]))

        def motive(j: int, depth: int):
            # A a i (inr^j y) -> Cov (inr^j y), y the tail's element
            premise = T.App(T.App(T.App(ref(cover._A, depth), a), i), embed(j, j + 1, T.Var(0)))
            return T.Pi(premise, T.App(ref(COV, depth + 1), embed(j, j + 1, T.Var(1))))

        def leaf(b: int, depth: int):
            # fun c => ..., the cover at b with the unit payload x for star
            if not cov.contains(b):
                x = T.Var(2)  # under c and the motive's binder
                refuted = T.Lam(T.App(ref(COV, depth + 2), embed(b, k, x)))
                return T.Lam(T.EmptyElim(refuted, T.Var(0)))
            child = children[b]
            if isinstance(child, RfNode):
                proof = T.Rf(fin_elem(b, k), T.Star())
            else:
                proof = ref(level[id(child)], depth + 1)
            bridge = T.Lam(T.App(ref(COV, depth + 2), embed(b, k, T.Var(0))))
            return T.Lam(T.UnitElim(bridge, proof, T.Var(1)))

        proof = T.Tr(a, i, T.Lam(cover._case_tree(k, leaf, motive, depth + 1)))
        return T.App(ref(COV, depth), a), proof

    # the body is the root's variable, bound last
    return cover._lets(instance_lets_unary(ax, v) + [binding(node) for node in nodes], T.Var(0))


# --- the certificate encoding the cover engine used to build ---------------------
#
# Kept as an oracle of cover.cover_type and cover.extract_proof_term.  Each
# level of a case split gets its motive by substituting an annotated
# ``inl x``/``inr x`` into the whole motive, and a leaf is bridged to ``star``
# by a unit elimination whenever that motive mentions the scrutinee.


def _substituted_case_tree(k: int, leaf, scrut, motive_body):
    dep = T.free_in(motive_body, 0)

    def motive_at(repl):
        return T.subst(motive_body, 0, T.Ann(repl, cover.fin_type(k)))

    if k == 0:
        return T.EmptyElim(T.Lam(motive_body), scrut)
    if k == 1:
        if dep:
            return T.UnitElim(T.Lam(motive_body), leaf(0), scrut)
        return leaf(0)
    if dep:
        case_left = T.Lam(T.UnitElim(T.Lam(motive_at(T.Inl(T.Var(0)))), leaf(0), T.Var(0)))
    else:
        case_left = T.Lam(leaf(0))
    inner = _substituted_case_tree(
        k - 1, lambda i: leaf(i + 1), T.Var(0), motive_at(T.Inr(T.Var(0)))
    )
    return T.SumElim(T.Lam(motive_body), case_left, T.Lam(inner), scrut)


def _substituted_subset_pred(s: Subset):
    return T.Lam(
        _substituted_case_tree(
            s.size, lambda i: T.Unit() if s.contains(i) else T.Empty(), T.Var(0), T.Univ()
        )
    )


def _substituted_labels_body(ax: FiniteAxiomSet):
    return _substituted_case_tree(
        ax.size, lambda a: cover.fin_type(len(ax.labels[a])), T.Var(0), T.Univ()
    )


def instance_terms_substituted(ax: FiniteAxiomSet, v: Subset):
    """(carrier, labels family, axioms family, subset), as the substituting
    encoding built them."""
    carrier = cover.fin_type(ax.size)
    covers = ax.covers

    def axioms_for(a: int):
        return T.Lam(
            _substituted_case_tree(
                len(ax.labels[a]),
                lambda li: _substituted_subset_pred(covers[a][li]),
                T.Var(0),
                T.Pi(carrier, T.Univ()),
            )
        )

    axioms_motive = T.Pi(_substituted_labels_body(ax), T.Pi(carrier, T.Univ()))
    axioms = T.Lam(_substituted_case_tree(ax.size, axioms_for, T.Var(0), axioms_motive))
    return carrier, T.Lam(_substituted_labels_body(ax)), axioms, _substituted_subset_pred(v)


def cover_type_substituted(ax: FiniteAxiomSet, v: Subset, atom: int):
    return T.App(T.Cover(*instance_terms_substituted(ax, v)), cover.fin_elem(atom, ax.size))


def extract_proof_term_substituted(ax: FiniteAxiomSet, v: Subset, d):
    k = ax.size
    cover_fam = T.Cover(*instance_terms_substituted(ax, v))
    covers = ax.covers

    def build(node):
        if isinstance(node, RfNode):
            return T.Rf(cover.fin_elem(node.atom, k), T.Star())
        cov = covers[node.atom][node.label]
        children = dict(zip(cov.members, node.children))

        def leaf(b: int):
            if cov.contains(b):
                return T.Lam(build(children[b]))
            return T.Lam(T.EmptyElim(T.Lam(T.App(cover_fam, cover.fin_elem(b, k))), T.Var(0)))

        premise_motive = T.Pi(_substituted_subset_pred(cov).body, T.App(cover_fam, T.Var(1)))
        body = _substituted_case_tree(k, leaf, T.Var(0), premise_motive)
        return T.Tr(
            cover.fin_elem(node.atom, k),
            cover.fin_elem(node.label, len(ax.labels[node.atom])),
            T.Lam(body),
        )

    return build(d)


# --- the certificate encoding with its instance inlined -------------------------
#
# Kept as an oracle of cover.cover_type and cover.extract_proof_term.  The
# instance's families are closed terms, repeated in every motive and leaf,
# and a derivation node's proof is rebuilt wherever the node recurs.  Each
# level of a case split states its motive reduced, over the carrier's tail.


def _reduced_case_tree(k: int, leaf, motive, j: int = 0):
    if j == k:
        return T.EmptyElim(T.Lam(motive(j)), T.Var(0))
    if j == k - 1:
        return leaf(j)
    return T.SumElim(
        T.Lam(motive(j)),
        T.Lam(leaf(j)),
        T.Lam(_reduced_case_tree(k, leaf, motive, j + 1)),
        T.Var(0),
    )


def _inlined_family_body(codes: list, j: int = 0):
    return _reduced_case_tree(len(codes), codes.__getitem__, lambda _j: T.Univ(), j)


def instance_terms_inlined(ax: FiniteAxiomSet, v: Subset):
    """(carrier, labels family, axioms family, subset), each a closed term."""
    k = ax.size
    carrier = cover.fin_type(k)
    label_codes = [cover.fin_type(len(ls)) for ls in ax.labels]
    pred_type = T.Pi(carrier, T.Univ())
    covers = ax.covers

    def axioms_for(a: int):
        def pred(li: int):
            return T.Lam(_inlined_family_body(cover._subset_codes(covers[a][li])))

        return T.Lam(_reduced_case_tree(len(covers[a]), pred, lambda _j: pred_type))

    axioms = T.Lam(
        _reduced_case_tree(
            k, axioms_for, lambda j: T.Pi(_inlined_family_body(label_codes, j), pred_type)
        )
    )
    labels = T.Lam(_inlined_family_body(label_codes))
    return carrier, labels, axioms, T.Lam(_inlined_family_body(cover._subset_codes(v)))


def cover_type_inlined(ax: FiniteAxiomSet, v: Subset, atom: int):
    return T.App(T.Cover(*instance_terms_inlined(ax, v)), cover.fin_elem(atom, ax.size))


def extract_proof_term_inlined(ax: FiniteAxiomSet, v: Subset, d):
    k = ax.size
    cover_fam = T.Cover(*instance_terms_inlined(ax, v))
    covers = ax.covers

    def build(node):
        if isinstance(node, RfNode):
            return T.Rf(cover.fin_elem(node.atom, k), T.Star())
        cov = covers[node.atom][node.label]
        children = dict(zip(cov.members, node.children))
        codes = cover._subset_codes(cov)

        # the cover at b, with the variable ``index`` as b's unit payload
        def cover_at(b: int, index: int):
            return T.App(cover_fam, cover._embed(b, k, T.Var(index)))

        def leaf(b: int):
            if cov.contains(b):
                return T.Lam(T.UnitElim(T.Lam(cover_at(b, 0)), build(children[b]), T.Var(1)))
            return T.Lam(T.EmptyElim(T.Lam(cover_at(b, 2)), T.Var(0)))

        def motive(j: int):
            at_y = T.App(cover_fam, cover._embed(j, j + 1, T.Var(1)))
            return T.Pi(_inlined_family_body(codes, j), at_y)

        elem_a = cover.fin_elem(node.atom, k)
        elem_i = cover.fin_elem(node.label, len(ax.labels[node.atom]))
        return T.Tr(elem_a, elem_i, T.Lam(_reduced_case_tree(k, leaf, motive)))

    return build(d)


ORACLE_PUNCT = (":=", "=>", "->", "(", ")", ":", "*", ",")


def tokenize_oracle(src: str) -> list[tuple[str, str, int, int]]:
    """The tokenizer the parser used to run, kept as the oracle of the
    parser's lexer (``surface._lex``) and of the positions ``surface._locate``
    gives its tokens: one character at a time, giving (kind, text, line,
    col) per token and an eof token, or raising a ``ParseError`` at the
    lexeme that is no token."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                if src[j] == "\n":
                    raise ParseError("unterminated string", line, col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string", line, col)
            toks.append(("string", src[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        matched = None
        for p in ORACLE_PUNCT:
            if src.startswith(p, i):
                matched = p
                break
        if matched:
            toks.append(("punct", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            word = src[i:j]
            kind = "keyword" if word in RESERVED else "ident"
            toks.append((kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"stray character {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


def _paren_ann(t, text: str) -> str:
    """An operand that an arrow or a product may follow, parenthesised if it
    is an annotation so that it does not read back as a binder."""
    return f"({text})" if isinstance(t, T.Ann) else text


def pretty_oracle(t, depth: int = 0, prec: int = 0) -> str:
    """The printer ``surface.pretty`` replaced, kept as its oracle: it
    builds strings bottom-up and strengthens every non-dependent body."""

    def wrap(s: str, level: int) -> str:
        return f"({s})" if prec > level else s

    match t:
        case T.Var(i):
            return f"x{depth - 1 - i}" if i < depth else f"?{i - depth}"
        case T.Const(name):
            return name
        case T.Univ():
            return "U0"
        case T.TypeSort():
            return "Type"
        case T.Empty():
            return "N0"
        case T.Unit():
            return "N1"
        case T.Star():
            return "star"
        case T.Lam(body):
            return wrap(f"fun x{depth} => {pretty_oracle(body, depth + 1, 0)}", 0)
        case T.Pi(dom, cod):
            if not T.free_in(cod, 0):
                lhs = _paren_ann(dom, pretty_oracle(dom, depth, 1))
                rhs = pretty_oracle(T.strengthen(cod), depth, 0)
                return wrap(f"{lhs} -> {rhs}", 0)
            return wrap(
                f"(x{depth} : {pretty_oracle(dom, depth, 0)}) -> {pretty_oracle(cod, depth + 1, 0)}",
                0,
            )
        case T.Sigma(fst, snd):
            if not T.free_in(snd, 0):
                lhs = _paren_ann(fst, pretty_oracle(fst, depth, 2))
                rhs = _paren_ann(snd, pretty_oracle(T.strengthen(snd), depth, 1))
                return wrap(f"{lhs} * {rhs}", 1)
            rhs = _paren_ann(snd, pretty_oracle(snd, depth + 1, 1))
            return wrap(f"(x{depth} : {pretty_oracle(fst, depth, 0)}) * {rhs}", 1)
        case T.App(f, a):
            return wrap(f"{pretty_oracle(f, depth, 2)} {pretty_oracle(a, depth, 3)}", 2)
        case T.Pair(a, b):
            return f"( {pretty_oracle(a, depth, 0)} , {pretty_oracle(b, depth, 0)} )"
        case T.Ann(tm, ty):
            return f"( {pretty_oracle(tm, depth, 0)} : {pretty_oracle(ty, depth, 0)} )"
        case T.Let(ty, value, body):
            ty, value = pretty_oracle(ty, depth, 0), pretty_oracle(value, depth, 0)
            return wrap(f"let x{depth} : {ty} := {value} in {pretty_oracle(body, depth + 1, 0)}", 0)
    for kw, ctor in surface.KEYWORD_FORMS.items():
        if type(t) is ctor:
            args = [getattr(t, name) for name in t.__match_args__]
            parts = [kw] + [pretty_oracle(a, depth, 3) for a in args]
            return "(" + " ".join(parts) + ")" if prec > 2 else " ".join(parts)
    raise ValueError(f"pretty: unhandled term {type(t).__name__}")
