"""Spans and counters recorded at covertt's public functions.

``Tracer.install`` replaces each listed function or method, wherever a
covertt module holds it, by a wrapper that opens a span named after its
layer; ``uninstall`` puts the originals back.  A call made while a span of
the same name is open runs without a span of its own (recursion inside a
layer is one span), so spans mark the crossings between layers.  Self time
is a span's duration minus that of its child spans.  Spans are kept in
memory as (name, start, end, parent) and written out by ``write``.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict


def _first_len(args, kwargs):
    """Declarations given to ``check_declarations``; characters given to a parser."""
    return len(args[0])


def _identical(args, kwargs):
    return 1 if args[1] is args[2] else 0


# (module, owner class or None, function names, span name or None, counters)
# A counter is (name, function of the call's arguments giving the increment).
LAYERS = [
    ("surface", None, ("parse_term",), "surface.parse", [("surface.parse_chars", _first_len)]),
    ("surface", None, ("parse_file",), "surface.parse",
     [("surface.parse_chars", _first_len), ("surface.files_parsed", None)]),
    ("surface", None, ("pretty", "pretty_declaration"), "surface.pretty", []),
    ("terms", None, ("subst", "weaken", "free_in", "map_subterms", "strengthen"), "terms", []),
    ("semantics", "Evaluator", ("eval", "apply", "apply_clo", "apply_many"), "semantics.eval", []),
    ("semantics", "Evaluator", ("readback", "readback_type"), "semantics.readback",
     [("semantics.readback_calls", None)]),
    ("semantics", "Evaluator", ("equal", "equal_types"), "semantics.conv",
     [("semantics.conv_calls", None), ("semantics.conv_identical", _identical)]),
    ("typecheck", "Checker", ("check", "infer"), "typecheck.check", []),
    ("typecheck", "Checker", ("subsumes",), None, [("typecheck.subsumes_calls", None)]),
    ("typecheck", None, ("check_declarations",), "typecheck.check",
     [("typecheck.decls_checked", _first_len)]),
    ("encodings", None, ("check_corpus",), "encodings.corpus", []),
    ("cover", None, ("load_axiom_set",), "cover.load", []),
    ("cover", None, ("least_cover",), "cover.fixpoint", [("cover.fixpoint_calls", None)]),
    ("cover", None, ("derivation",), "cover.derivation", [("cover.fixpoint_calls", None)]),
    ("cover", None, ("extract_proof_term", "cover_type"), "cover.extract", []),
    ("cover", None, ("run_queries",), "cover.queries", []),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.open_ids = [-1]  # span indices; -1 is the root
        self.open_names = [None]
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.evaluators: list = []
        self._restore: list = []

    # -- spans

    def _open(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.open_ids[-1])
        self.span_end.append(0.0)
        self.open_ids.append(idx)
        self.open_names.append(name)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        end = time.perf_counter()
        self.span_end[idx] = end
        self.open_ids.pop()
        name = self.open_names.pop()
        dur = end - self.span_start[idx]
        self.self_time[name] += dur
        parent = self.open_names[-1]
        if parent is not None:
            self.self_time[parent] -= dur

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping

    def _wrapper(self, fn, span_name, counters):
        open_names = self.open_names
        counts = self.counts
        tr_open, tr_close = self._open, self._close

        def wrapper(*args, **kwargs):
            for cname, inc in counters:
                counts[cname] += 1 if inc is None else inc(args, kwargs)
            if span_name is None or open_names[-1] == span_name:
                return fn(*args, **kwargs)
            idx = tr_open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr_close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        mods = {k: m for k, m in sys.modules.items() if k == "covertt" or k.startswith("covertt.")}
        for modname, owner, fnames, span_name, counters in LAYERS:
            mod = mods[f"covertt.{modname}"]
            for fname in fnames:
                if owner is not None:
                    cls = getattr(mod, owner)
                    orig = cls.__dict__[fname]
                    self._restore.append((cls, fname, orig))
                    setattr(cls, fname, self._wrapper(orig, span_name, counters))
                    continue
                orig = getattr(mod, fname)
                wrapped = self._wrapper(orig, span_name, counters)
                # every module that imported the function by name calls it
                # through its own global, so replace it there too
                for m in mods.values():
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._restore.append((m, key, orig))
                            setattr(m, key, wrapped)
        ev_cls = mods["covertt.semantics"].Evaluator
        orig_init = ev_cls.__init__
        evaluators = self.evaluators

        def init(ev, *args, **kwargs):
            orig_init(ev, *args, **kwargs)
            evaluators.append(ev)

        self._restore.append((ev_cls, "__init__", orig_init))
        ev_cls.__init__ = init

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def take_eval_steps(self) -> int:
        """Steps of every evaluator made since the last call."""
        steps = sum(ev.steps for ev in self.evaluators)
        self.evaluators.clear()
        return steps

    # -- output

    def write(self, path: str):
        """Write the spans as tab-separated name, start, end, parent index."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    f"{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )
