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

    def __init__(self, tag: str, file: str, required: Flags):
        self._fill(tag, file, required)

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
    every module the entry reaches is checked once per call, in import
    order, against the globals of its own transitive imports only, as
    ``covertt check`` of that file would check it; a later entry reuses the
    result, failure included.  An entry fails at the first failure in the
    order in which ``surface.load_file`` would list its declarations,
    including a name that two of its modules both define.  Each declaration
    gets the evaluator's full step budget.  A declaration whose check stops
    (``typecheck.STOPS``: an exhausted budget, the recursion limit, a kernel
    fault) fails its entry as ``FILE:LINE: NAME: TEXT``, as ``covertt
    check`` reports it.  A manifest that cannot be read raises.
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
            results.append(CorpusResult(entry.tag, entry.file, "fail", _first_line(e)))
            continue
        failure = _first_failure(modules, checker, builtin, checked)
        if failure is None:
            results.append(CorpusResult(entry.tag, entry.file, "pass"))
        else:
            results.append(CorpusResult(entry.tag, entry.file, "fail", failure))
    return results


class _Checked(Node):
    """A module's check: the declarations before ``failed`` passed, and
    ``globals`` holds them and its imports' globals; when ``failed`` is a
    declaration's index, ``detail`` says why that one failed."""

    __slots__ = ("globals", "failed", "detail")

    def __init__(self, globals: dict, failed: int, detail: str = ""):
        self._fill(globals, failed, detail)


def _first_line(e: Exception) -> str:
    return str(e).splitlines()[0]


def _first_failure(modules, checker, builtin: dict, checked: dict) -> str | None:
    """The first failure among the declarations of ``modules``, taken in
    order (``load_modules`` order, as ``load_file`` flattens it), or None.
    A declaration fails if it redefines a name of an earlier module, which
    may be one its own module does not import, or if it fails in its own
    module's check."""
    names = set(builtin)
    for module in modules:
        result = checked.get(module.path)
        if result is None:
            result = checked[module.path] = _check_module(module, checker, builtin, checked)
        try:
            for d in module.decls[: result.failed + 1]:
                typecheck.check_new_name(d, names)
        except typecheck.TypeCheckError as e:
            return _first_line(e)
        if result.failed < len(module.decls):
            return result.detail
        names.update(d.name for d in module.decls)
    return None


def _check_module(module, checker, builtin: dict, checked: dict) -> _Checked:
    """Check ``module`` against the globals of its imports, which have all
    passed their checks."""
    env = dict(builtin)
    for imp in module.imports:
        env.update(checked[os.path.abspath(imp)].globals)
    checker.use_globals(env)
    for i, d in enumerate(module.decls):
        try:
            typecheck.check_named(d, checker)
        except (typecheck.TypeCheckError, typecheck.CheckStopped) as e:
            return _Checked(env, i, _first_line(e))
    return _Checked(env, len(module.decls))
