"""The package's public names: the same API, resolved on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import covertt

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# each module and the public names it gives the package
API = {
    "terms": ["Declaration", "Flags", "Term", "subst", "weaken"],
    "typecheck": [
        "Checker", "Context", "TypeCheckError", "check_declarations", "convertible",
        "infer_type", "normalize",
    ],
    "surface": ["ParseError", "load_modules", "parse_file", "parse_term", "pretty"],
    "encodings": ["CorpusEntry", "check_corpus", "corpus_dir", "load_manifest"],
    "cover": [
        "FiniteAxiomSet", "FormatError", "Subset", "derivation",
        "extract_proof_term", "least_cover", "load_axiom_set",
    ],
}


def test_every_public_name_is_its_home_modules_object():
    assert sorted(covertt.__all__) == sorted(n for names in API.values() for n in names)
    for module, names in API.items():
        home = importlib.import_module(f"covertt.{module}")
        for name in names:
            assert getattr(covertt, name) is getattr(home, name), name


def test_star_import_binds_every_public_name_and_dir_lists_them():
    scope = {}
    exec("from covertt import *", scope)
    assert set(covertt.__all__) <= set(scope)
    for name in covertt.__all__:
        assert scope[name] is getattr(covertt, name)
    assert set(covertt.__all__) <= set(dir(covertt))
    assert {"__version__", "__all__"} <= set(dir(covertt))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'covertt' has no attribute 'no_such_name'"):
        covertt.no_such_name
    assert not hasattr(covertt, "cli_main")
    with pytest.raises(ImportError):
        exec("from covertt import no_such_name", {})


_LOADS = """
import sys
before = set(sys.modules)
def loaded():
    return sorted(m for m in set(sys.modules) - before if m.startswith("covertt"))
import covertt
print(loaded())
covertt.Flags
print(loaded())
print(covertt.cover.__name__, loaded())
"""


def test_a_bare_import_loads_no_submodule_and_a_name_loads_its_home():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _LOADS], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == [
        "['covertt']",
        "['covertt', 'covertt.terms']",
        "covertt.cover ['covertt', 'covertt.cover', 'covertt.terms']",
    ]
