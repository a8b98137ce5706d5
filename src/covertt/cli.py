"""Batch command-line interface.

Commands: ``check`` a declaration file, ``norm`` an expression in a file's
final context, ``conv`` two expressions at a type, ``corpus`` for the
shipped proof corpus, and ``cover`` for finite axiom-set files.  The four
equality flags are global per invocation; reports are stable line-oriented
text and the exit status is zero exactly when no failure was reported.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cover as cover_mod
from . import encodings, surface, typecheck
from .semantics import EvalBudgetExceeded, KernelBug
from .terms import Flags
from .typecheck import Checker, Context, TypeCheckError


# Failures that no input should cause but that a deep or unforeseen input
# can: each is reported as one error line instead of a traceback.
INTERNAL_ERRORS = (RecursionError, KernelBug)


def _internal_message(e: BaseException) -> str:
    if isinstance(e, RecursionError):
        return f"input nested too deeply ({e})"
    return f"internal kernel error ({e})"


def _add_flag_args(p: argparse.ArgumentParser):
    p.add_argument("--eta-pi", action="store_true", help="uniqueness for functions")
    p.add_argument("--eta-sigma", action="store_true", help="uniqueness for pairs")
    p.add_argument("--eta-unit", action="store_true", help="uniqueness for the unit type")
    p.add_argument("--funext", action="store_true", help="function extensionality constant")


def _flags(ns) -> Flags:
    return Flags(**{name: getattr(ns, name) for name in Flags.FLAG_NAMES})


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="covertt")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="type-check a declaration file")
    p.add_argument("file")
    _add_flag_args(p)

    p = sub.add_parser("norm", help="print the normal form of an expression")
    p.add_argument("file", nargs="?", help="declaration file providing the context")
    p.add_argument("--expr", required=True)
    _add_flag_args(p)

    p = sub.add_parser("conv", help="check two expressions convertible at a type")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--type", required=True, dest="at_type")
    p.add_argument("--file", help="declaration file providing definitions")
    p.add_argument(
        "--context",
        default="",
        help="comma-separated typed assumptions, e.g. 'A : U0, f : A -> A'",
    )
    _add_flag_args(p)

    p = sub.add_parser("corpus", help="check the shipped proof corpus")
    p.add_argument("--corpus-dir", default=None)
    _add_flag_args(p)

    p = sub.add_parser("cover", help="run queries of a finite axiom-set file")
    p.add_argument("file")
    p.add_argument("--derivations", action="store_true")

    return ap


def _load_checker(path, flags) -> Checker:
    if path is None:
        return Checker(flags)
    decls = surface.load_file(path)
    return typecheck.check_declarations(decls, flags)


class ContextError(ValueError):
    """A ``--context`` item that is not ``name : TYPE``."""


def _context_items(spec: str) -> list:
    """``spec`` split at its commas outside parentheses, so that a pair's
    comma stays in its item: (offset in ``spec``, item) pairs."""
    items, depth, start = [], 0, 0
    for k, c in enumerate(spec):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            items.append((start, spec[start:k]))
            start = k + 1
    return items + [(start, spec[start:])]


def _parse_context(checker: Checker, spec: str):
    """Extend an empty context by 'name : TYPE' items, left to right.  A
    parse or type error in an item is located at ``<context>``, a parse
    error at its line and column in the whole of ``spec``."""
    ctx = Context()
    scope: list[str] = []
    if not spec.strip():
        return ctx, scope
    checker.location = "<context>"
    for start, item in _context_items(spec):
        head, _, ty_src = item.partition(":")
        name = head.strip()
        if not name or not ty_src.strip():
            raise ContextError(f"malformed context item {item.strip()!r}")
        # what precedes the type, blanked but for its line breaks, keeps
        # the parser's positions those of the whole string
        before = "".join(c if c == "\n" else " " for c in spec[: start + len(head) + 1])
        try:
            ty = surface.parse_term(before + ty_src, scope=scope)
        except surface.ParseError as e:
            raise surface.ParseError(e.message, e.line, e.col, e.expected, "<context>") from None
        checker.ensure_type(ctx, ty)
        ctx = ctx.extend(name, checker.eval_in(ctx, ty))
        scope.append(name)
    return ctx, scope


def cmd_check(ns) -> int:
    flags = _flags(ns)
    try:
        decls = surface.load_file(ns.file)
    except (surface.ParseError, OSError) as e:
        print(f"error: {e}")
        return 1
    checker = Checker(flags)
    for d in decls:
        try:
            typecheck.check_declarations([d], flags, checker)
            print(f"ok {d.name}")
        except TypeCheckError as e:
            print(f"error {d.name}")
            print(str(e))
            return 1
        except EvalBudgetExceeded as e:
            print(f"error: {d.location}: {d.name}: {e}")
            return 1
        except INTERNAL_ERRORS as e:
            print(f"error: {d.location}: {d.name}: {_internal_message(e)}")
            return 1
    return 0


def cmd_norm(ns) -> int:
    flags = _flags(ns)
    try:
        checker = _load_checker(ns.file, flags)
        term = surface.parse_term(ns.expr)
        print(surface.pretty(typecheck.normalize(checker, term)))
        return 0
    except (surface.ParseError, TypeCheckError, EvalBudgetExceeded, OSError) as e:
        print(f"error: {e}")
        return 1


def cmd_conv(ns) -> int:
    flags = _flags(ns)
    try:
        checker = _load_checker(ns.file, flags)
        ctx, scope = _parse_context(checker, ns.context)
        ty = surface.parse_term(ns.at_type, scope=scope)
        lhs = surface.parse_term(ns.lhs, scope=scope)
        rhs = surface.parse_term(ns.rhs, scope=scope)
        if typecheck.convertible(checker, ty, lhs, rhs, ctx):
            print("convertible")
            return 0
        print("not convertible")
        return 1
    except (surface.ParseError, TypeCheckError, EvalBudgetExceeded, OSError, ContextError) as e:
        print(f"error: {e}")
        return 1


def cmd_corpus(ns) -> int:
    flags = _flags(ns)
    try:
        results = encodings.check_corpus(flags, ns.corpus_dir)
    except (OSError, ValueError, surface.ParseError) as e:  # the manifest
        print(f"error: {e}")
        return 1
    status = 0
    for r in results:
        if r.status == "pass":
            print(f"PASS {r.tag} {r.file}")
        elif r.status == "skip":
            print(f"SKIP {r.tag} {r.file} ({r.detail})")
        else:
            print(f"FAIL {r.tag} {r.file}: {r.detail}")
            status = 1
    return status


def cmd_cover(ns) -> int:
    try:
        cf = cover_mod.load_axiom_set(surface.read_source(ns.file))
    except cover_mod.FormatError as e:
        # named as a ParseError names its file
        print(f"error: {os.path.basename(ns.file)}:{e.line}: {e.message}")
        return 1
    except (surface.ParseError, OSError) as e:
        print(f"error: {e}")
        return 1
    for line in cover_mod.iter_queries(cf, with_derivations=ns.derivations):
        print(line)
    return 0


def main(argv=None) -> int:
    sys.setrecursionlimit(100_000)
    ns = build_parser().parse_args(argv)
    handler = {
        "check": cmd_check,
        "norm": cmd_norm,
        "conv": cmd_conv,
        "corpus": cmd_corpus,
        "cover": cmd_cover,
    }[ns.command]
    try:
        try:
            status = handler(ns)
        except INTERNAL_ERRORS as e:
            print(f"error: {_internal_message(e)}")
            status = 1
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader has gone: the rest of the output goes nowhere, and
        # the flush at exit finds nothing to complain about
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
