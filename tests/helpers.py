"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import os

from covertt import surface, typecheck
from covertt.cover import FiniteAxiomSet, RfNode, Subset, TrNode
from covertt.semantics import V_ANY, Evaluator, Value
from covertt.terms import Flags
from covertt.typecheck import Checker, Context

CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "covertt", "corpus")


ALL_FLAG_SETS = [
    Flags(eta_pi=a, eta_sigma=b, eta_unit=c, funext=d)
    for a, b, c, d in itertools.product([False, True], repeat=4)
]


def checker_for(src: str, flags: Flags = Flags()) -> Checker:
    decls, _ = surface.parse_file(src)
    return typecheck.check_declarations(decls, flags)


def context_of(checker: Checker, items: list[tuple[str, str]]):
    """Build a typed context from (name, type-source) pairs."""
    ctx = Context()
    scope: list[str] = []
    for name, ty_src in items:
        ty = surface.parse_term(ty_src, scope=scope)
        checker.ensure_type(ctx, ty)
        ctx = ctx.extend(name, checker.eval_in(ctx, ty))
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


def load_corpus_file(name: str):
    return surface.load_file(os.path.join(CORPUS, name))


def readback_equal(ev: Evaluator, a: Value, b: Value, ty: Value = V_ANY, depth: int = 0) -> bool:
    """The conversion check the kernel used to run, kept as the oracle of
    ``Evaluator.conv``: read both values back in full and compare the terms.
    At a sort (the default) the values are types."""
    return ev.readback(a, ty, depth) == ev.readback(b, ty, depth)


def kleene_step(ax: FiniteAxiomSet, v_mask: int, x_mask: int) -> int:
    out = x_mask | v_mask
    for a in range(ax.size):
        if out >> a & 1:
            continue
        for cov in ax.covers[a]:
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

    def build(a: int):
        if v.mask >> a & 1:
            return RfNode(a)
        entered = next(k for k in range(len(rounds)) if rounds[k] >> a & 1)
        prev = rounds[entered - 1]
        for li, cov in enumerate(ax.covers[a]):
            if cov.mask & ~prev == 0:
                return TrNode(a, li, tuple(build(b) for b in cov.indices()))
        raise AssertionError("round replay lost an axiom")

    return build(atom)
