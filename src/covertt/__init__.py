"""A small intensional type theory kernel with well-founded trees,
dependent trees, well-founded predicates and inductive basic covers,
plus a finite-instance engine for inductively generated covers.
"""

from .terms import Declaration, Flags, Term, subst, weaken
from .typecheck import (
    Checker,
    Context,
    TypeCheckError,
    check_declarations,
    convertible,
    infer_type,
    normalize,
)
from .surface import ParseError, load_file, load_modules, parse_file, parse_term, pretty
from .encodings import CorpusEntry, check_corpus, corpus_dir, load_manifest
from .cover import (
    FiniteAxiomSet,
    FormatError,
    Subset,
    brute_force_min_cover,
    derivation,
    extract_proof_term,
    least_cover,
    load_axiom_set,
)

__all__ = [
    "Flags",
    "Term",
    "subst",
    "weaken",
    "Checker",
    "Context",
    "Declaration",
    "TypeCheckError",
    "check_declarations",
    "convertible",
    "infer_type",
    "normalize",
    "ParseError",
    "load_file",
    "load_modules",
    "parse_file",
    "parse_term",
    "pretty",
    "CorpusEntry",
    "check_corpus",
    "corpus_dir",
    "load_manifest",
    "FiniteAxiomSet",
    "FormatError",
    "Subset",
    "brute_force_min_cover",
    "derivation",
    "extract_proof_term",
    "least_cover",
    "load_axiom_set",
]

__version__ = "0.1.0"
