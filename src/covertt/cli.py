"""Batch command-line interface.

Commands: ``check`` a declaration file, ``norm`` an expression in a file's
final context, ``conv`` two expressions at a type, ``corpus`` for the
shipped proof corpus, and ``cover`` for finite axiom-set files.  The four
equality flags are global per invocation; reports are stable line-oriented
text and the exit status is zero exactly when no failure was reported.

A file is checked one way, by ``check``, ``norm`` and ``conv --file`` as by
``corpus`` (``encodings.check_modules``): each module against the globals
of its own imports only.  A command's failure propagates to ``main``, whose
one handler prints it as one ``error:`` line; running out of memory is
``error: out of memory``.  A declaration whose check stops is named there
(``typecheck.check_named``); ``check`` also names one that fails.
``--context`` is read by ``surface.parse_context`` and checked within a
step budget of its own.

The module imports only ``argparse``, ``os``, ``sys`` and ``terms``; each
command imports what it runs, so a process compiles no module its command
does not need: ``norm`` and ``conv`` load ``surface`` and ``typecheck``
(with ``semantics``), given a file also ``encodings``, as ``check`` and
``corpus`` do, and ``cover`` only ``surface`` and ``cover``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .terms import Flags


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
    p.set_defaults(run=cmd_check)
    p.add_argument("file")
    _add_flag_args(p)

    p = sub.add_parser("norm", help="print the normal form of an expression")
    p.set_defaults(run=cmd_norm)
    p.add_argument("file", nargs="?", help="declaration file providing the context")
    p.add_argument("--expr", required=True)
    _add_flag_args(p)

    p = sub.add_parser("conv", help="check two expressions convertible at a type")
    p.set_defaults(run=cmd_conv)
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--type", required=True, dest="at_type")
    p.add_argument("--file", help="declaration file providing definitions")
    p.add_argument("--context", default="", help="typed assumptions, e.g. 'A : U0, f : A -> A'")
    _add_flag_args(p)

    p = sub.add_parser("corpus", help="check the shipped proof corpus")
    p.set_defaults(run=cmd_corpus)
    p.add_argument("--corpus-dir", default=None)
    _add_flag_args(p)

    p = sub.add_parser("cover", help="run queries of a finite axiom-set file")
    p.set_defaults(run=cmd_cover)
    p.add_argument("file")
    p.add_argument("--derivations", action="store_true")

    return ap


def _walk(path, checker, checked: dict):
    """``encodings.check_modules`` over ``path`` and the files it imports."""
    from . import encodings, surface

    return encodings.check_modules(surface.load_modules(path), checker, dict(checker.globals), checked)


def _load_checker(path, flags):
    """A checker over the globals of ``path``'s own module, or of none."""
    from . import typecheck

    checker = typecheck.Checker(flags)
    if path is not None:
        checked: dict = {}
        for _, error in _walk(path, checker, checked):
            if error is not None:
                raise error
        checker.use_globals(checked[os.path.abspath(path)].globals)
    return checker


def _context(checker, spec: str):
    """The context of the ``--context`` items, checked left to right at
    ``<context>``, and its names."""
    from . import surface, typecheck

    items = surface.parse_context(spec)
    ctx = typecheck.Context()
    checker.begin("<context>")
    for _, ty in items:
        checker.ensure_type(ctx, ty)
        ctx = ctx.extend(checker.eval_in(ctx, ty))
    return ctx, [name for name, _ in items]


def cmd_check(ns) -> int:
    from . import typecheck

    for d, error in _walk(ns.file, typecheck.Checker(_flags(ns)), {}):
        if isinstance(error, typecheck.TypeCheckError):
            print(f"error {d.name}")
            print(error)
            return 1
        if error is not None:
            raise error  # a stopped check, which main names
        print(f"ok {d.name}")
    return 0


def cmd_norm(ns) -> int:
    from . import surface, typecheck

    checker = _load_checker(ns.file, _flags(ns))
    term = surface.parse_term(ns.expr)
    print(surface.pretty(typecheck.normalize(checker, term)))
    return 0


def cmd_conv(ns) -> int:
    from . import surface, typecheck

    checker = _load_checker(ns.file, _flags(ns))
    ctx, scope = _context(checker, ns.context)
    ty = surface.parse_term(ns.at_type, scope=scope)
    lhs = surface.parse_term(ns.lhs, scope=scope)
    rhs = surface.parse_term(ns.rhs, scope=scope)
    if typecheck.convertible(checker, ty, lhs, rhs, ctx):
        print("convertible")
        return 0
    print("not convertible")
    return 1


def cmd_corpus(ns) -> int:
    from . import encodings

    status = 0
    for r in encodings.check_corpus(_flags(ns), ns.corpus_dir):
        if r.status == "pass":
            print(f"PASS {r.tag} {r.file}")
        elif r.status == "skip":
            print(f"SKIP {r.tag} {r.file} ({r.detail})")
        else:
            print(f"FAIL {r.tag} {r.file}: {r.detail}")
            status = 1
    return status


def cmd_cover(ns) -> int:
    from . import cover as cover_mod
    from . import surface

    try:
        cf = cover_mod.load_axiom_set(surface.read_source(ns.file))
    except cover_mod.FormatError as e:
        # named as a ParseError names its file
        print(f"error: {os.path.basename(ns.file)}:{e.line}: {e.message}")
        return 1
    for line in cover_mod.iter_queries(cf, with_derivations=ns.derivations):
        print(line)
    return 0


def _failures() -> tuple:
    """What ends a command with one ``error:`` line: input that cannot be
    read or parsed, a malformed manifest line (ValueError), a type error, or
    a check stopped short of a verdict, named by its declaration or not.
    Read only once an exception reaches ``main``, as it imports the kernel."""
    from . import surface, typecheck

    return (surface.ParseError, OSError, ValueError, typecheck.TypeCheckError,
            typecheck.CheckStopped, *typecheck.STOPS)


def main(argv=None) -> int:
    sys.setrecursionlimit(100_000)
    ns = build_parser().parse_args(argv)
    try:
        try:
            status = ns.run(ns)
        except BrokenPipeError:
            raise  # the reader has gone: there is no one to tell
        except MemoryError:
            # what the command held is released as the error unwinds to
            # here; this clause comes first, as the next one imports
            print("error: out of memory")
            status = 1
        except _failures() as e:  # evaluated only when an exception gets here
            from .typecheck import stop_message

            print(f"error: {stop_message(e)}")
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
