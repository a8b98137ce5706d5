"""A small intensional type theory kernel with well-founded trees,
dependent trees, well-founded predicates and inductive basic covers,
plus a finite-instance engine for inductively generated covers.

Importing the package loads none of its modules.  Each public name is
looked up in its home module on first use (PEP 562), and so is each
submodule (``covertt.cover``), so a process compiles only the modules it
reads: ``covertt.Flags`` loads ``terms`` alone, ``covertt.least_cover``
``terms`` and ``cover``.
"""

from importlib import import_module

# each public name and its home module, in the order of ``__all__``
_HOMES = {
    "Flags": "terms",
    "Term": "terms",
    "subst": "terms",
    "weaken": "terms",
    "Checker": "typecheck",
    "Context": "typecheck",
    "Declaration": "terms",
    "TypeCheckError": "typecheck",
    "check_declarations": "typecheck",
    "convertible": "typecheck",
    "infer_type": "typecheck",
    "normalize": "typecheck",
    "ParseError": "surface",
    "load_modules": "surface",
    "parse_file": "surface",
    "parse_term": "surface",
    "pretty": "surface",
    "CorpusEntry": "encodings",
    "check_corpus": "encodings",
    "corpus_dir": "encodings",
    "load_manifest": "encodings",
    "FiniteAxiomSet": "cover",
    "FormatError": "cover",
    "Subset": "cover",
    "derivation": "cover",
    "extract_proof_term": "cover",
    "least_cover": "cover",
    "load_axiom_set": "cover",
}

_SUBMODULES = frozenset({"cli", "cover", "encodings", "semantics", "surface", "terms", "typecheck"})

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # which binds it here
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # so the next lookup does not come here
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
