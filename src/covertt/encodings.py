"""The corpus runner.

The shipped ``corpus/`` directory carries the generic (parameter-quantified)
constructions as human-auditable source files together with a manifest that
records, per entry, the judgmental-equality flags it needs.  ``check_corpus``
checks every entry under a flag set and reports it passed, failed or
skipped.
"""

from __future__ import annotations

import os

from .terms import Flags, Node
from . import surface, typecheck


def corpus_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "corpus")


class CorpusEntry(Node):
    __slots__ = ("tag", "file", "required")

    def path(self, base: str | None = None) -> str:
        return os.path.join(base or corpus_dir(), self.file)


def load_manifest(base: str | None = None) -> list[CorpusEntry]:
    """The manifest's entries; ``OSError`` when it cannot be read, a
    ``ParseError`` when it is not UTF-8 text, and ``ValueError`` for a line
    that is not ``TAG FILE FLAG...``."""
    path = os.path.join(base or corpus_dir(), "manifest")
    try:
        src = surface.read_source(path)
    except surface.ParseError as e:
        # named by its full path, as the errors below name it
        raise surface.ParseError(e.message, e.line, e.col, filename=path) from None
    entries = []
    for lineno, line in enumerate(src.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"{path}:{lineno}: expected a tag and a file name")
        try:
            required = Flags.from_names(parts[2:])
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
        entries.append(CorpusEntry(parts[0], parts[1], required))
    return entries


class CorpusResult(Node):
    """One entry's verdict: ``status`` is "pass", "fail" or "skip"."""

    __slots__ = ("tag", "file", "status", "detail")

    def __init__(self, tag: str, file: str, status: str, detail: str = ""):
        self._fill(tag, file, status, detail)


def check_corpus(flags: Flags, base: str | None = None):
    """Check every manifest entry whose required flags are covered by ``flags``.

    Entries needing more flags are reported skipped.  Each eligible entry is
    checked under the invocation flags (flag monotonicity makes this sound).
    Its whole import graph is read and parsed first, so a file that cannot
    be read or parsed fails the entry before anything is checked.  Then
    ``check_modules`` walks it, as ``covertt check`` of that file does:
    every module the entry reaches is checked once per call, in import
    order, against the globals of its own transitive imports only, and a
    later entry reuses the result, failure included.  An entry fails at the
    walk's first failure, which may be a name that two of its modules both
    define.  Each declaration gets the evaluator's full step budget.  A
    declaration whose check stops (``typecheck.STOPS``: an exhausted budget,
    the recursion limit, a kernel fault) fails its entry as ``FILE:LINE:
    NAME: TEXT``.  A manifest that cannot be read raises.
    """
    base = base or corpus_dir()
    # file path -> its module or its error, for every entry, and the
    # parser's node table: a subterm written in two files is one object
    parsed: dict = {}
    checked: dict[str, _Checked] = {}  # module path -> its check
    # one evaluator for the call: a recursor closure in an imported global
    # charges its steps to the declaration that forces it
    checker = typecheck.Checker(flags)
    builtin = dict(checker.globals)  # the funext constant, under that flag
    results: list[CorpusResult] = []
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
            modules = surface.load_modules(entry.path(base), parsed)
        except (surface.ParseError, OSError) as e:
            failure = e
        else:
            failure = next((e for _, e in check_modules(modules, checker, builtin, checked) if e), None)
        if failure is None:
            results.append(CorpusResult(entry.tag, entry.file, "pass"))
        else:
            results.append(CorpusResult(entry.tag, entry.file, "fail", str(failure).splitlines()[0]))
    return results


class _Checked(Node):
    """A module's check: the declarations before ``failed`` passed, and
    ``globals`` holds them and its imports' globals; when ``failed`` is a
    declaration's index, ``error`` is what failed that one."""

    __slots__ = ("globals", "failed", "error")


def check_modules(modules, checker, builtin: dict, checked: dict):
    """Yield each declaration of one file's ``load_modules`` in order, with
    None or the exception that fails it, and stop at the first failure: a
    name an earlier module defines, imported or not, or a failure in its
    module's check.  ``checked`` maps a path to its module's check; a module
    not in it is checked against ``builtin`` (the checker's own globals) and
    its own imports' globals only, and added."""
    names = set(builtin)
    for module in modules:
        result = checked.get(module.path)
        if result is None:
            result = checked[module.path] = _check_module(module, checker, builtin, checked)
        for i, d in enumerate(module.decls[: result.failed + 1]):
            error = result.error if i == result.failed else None
            try:
                typecheck.check_new_name(d, names)
            except typecheck.TypeCheckError as e:
                error = e
            yield d, error
            if error is not None:
                return
        names.update(d.name for d in module.decls)


def _check_module(module, checker, builtin: dict, checked: dict) -> _Checked:
    """Check ``module`` against the globals of its imports, which have all
    passed their checks.  A declaration whose check stops (``typecheck.STOPS``)
    fails as a ``CheckStopped`` that names it."""
    env = dict(builtin)
    for imp in module.imports:
        env.update(checked[os.path.abspath(imp)].globals)
    checker.use_globals(env)
    for i, d in enumerate(module.decls):
        try:
            typecheck.check_declarations([d], checker.flags, checker)
            continue
        except (typecheck.TypeCheckError, *typecheck.STOPS) as e:
            error = e
        # kept as long as ``checked``: built outside the handler and without
        # a traceback, so that it holds none of the frames it unwound
        if not isinstance(error, typecheck.TypeCheckError):
            text = typecheck.stop_message(error)
            error = typecheck.CheckStopped(f"{d.location}: {d.name}: {text}")
        return _Checked(env, i, error.with_traceback(None))
    return _Checked(env, len(module.decls), None)
