"""The corpus and the instance builders.

The flag matrix is itself a fixture: every corpus entry is checked under
exactly the flags its manifest line records, and is reported skipped under
the empty flag set.  The builders are driven across the three small
parameter instances (empty, unit and two-element label types).
"""

import functools
import os

import pytest

from covertt import surface, typecheck
from covertt.cli import main
from covertt.encodings import check_corpus, load_manifest
from covertt.terms import Flags
from covertt.typecheck import Context, TypeCheckError

import builders
from helpers import (
    ALL_FLAG_SETS,
    CORPUS,
    check_corpus_flat,
    context_of,
    conv,
    nested_identity,
    write_corpus,
)


def test_manifest_tags_and_files():
    entries = load_manifest()
    tags = [e.tag for e in entries]
    assert tags == [
        "prelude", "RepProp", "CoverAsWP", "WPAsCover",
        "P4.1ii", "P5.1ii", "P5.2ii", "P5.2iv",
        "P4.1i", "P5.1i", "P5.2i", "P5.2iii", "T6.1",
    ]
    for e in entries:
        assert os.path.exists(e.path()), e.file


@pytest.mark.parametrize("entry", load_manifest(), ids=lambda e: e.tag)
def test_each_entry_passes_under_exactly_its_manifest_flags(entry):
    decls = surface.load_file(entry.path())
    typecheck.check_declarations(decls, entry.required)


def test_corpus_skips_without_flags():
    results = {r.tag: r for r in check_corpus(Flags())}
    for tag in ("prelude", "RepProp", "CoverAsWP", "WPAsCover"):
        assert results[tag].status == "pass"
    for tag in ("P4.1ii", "P5.1ii", "P5.2ii", "P5.2iv", "P4.1i", "P5.1i",
                "P5.2i", "P5.2iii", "T6.1"):
        assert results[tag].status == "skip"


def test_corpus_passes_under_all_flags():
    results = check_corpus(
        Flags(eta_pi=True, eta_sigma=True, eta_unit=True, funext=True)
    )
    assert all(r.status == "pass" for r in results), [
        (r.tag, r.detail) for r in results if r.status != "pass"
    ]


# --- each module checked once ------------------------------------------------------

ALL_FLAGS = Flags(eta_pi=True, eta_sigma=True, eta_unit=True, funext=True)


@pytest.mark.parametrize("flags", ALL_FLAG_SETS, ids=str)
def test_shipped_corpus_agrees_with_the_flat_check(flags):
    assert check_corpus(flags) == check_corpus_flat(flags)


# name -> (manifest, files, the expected report with the directory as <dir>)
SYNTHETIC_CORPORA = {
    "ill-typed base imported by two entries": (
        "a a.mltt\nb b.mltt\n",
        {
            "base.mltt": "def one : N1 := star\ndef bad : N0 := one\n",
            "a.mltt": 'import "base.mltt"\ndef a : N1 := one\n',
            "b.mltt": 'import "base.mltt"\ndef b : N1 := star\n',
        },
        [
            ("a", "fail", "base.mltt:2: mismatch: type mismatch"),
            ("b", "fail", "base.mltt:2: mismatch: type mismatch"),
        ],
    ),
    "one name defined in two sibling imports": (
        "l l.mltt\nr r.mltt\ntop top.mltt\n",
        {
            "l.mltt": "def x : N1 := star\n",
            "r.mltt": "def y : N1 := star\ndef x : N1 := y\n",
            "top.mltt": 'import "l.mltt"\nimport "r.mltt"\ndef z : N1 := x\n',
        },
        [
            ("l", "pass", ""),
            ("r", "pass", ""),
            ("top", "fail", "r.mltt:2: mismatch: duplicate name 'x'"),
        ],
    ),
    "a missing import": (
        "top top.mltt\nok ok.mltt\n",
        {
            "ok.mltt": "def x : N1 := star\n",
            "top.mltt": 'import "ok.mltt"\nimport "gone.mltt"\ndef y : N1 := x\n',
        },
        [
            ("top", "fail", "[Errno 2] No such file or directory: '<dir>/gone.mltt'"),
            ("ok", "pass", ""),
        ],
    ),
    "an import cycle": (
        "a a.mltt\nb b.mltt\n",
        {
            "a.mltt": 'import "b.mltt"\ndef x : N1 := star\n',
            "b.mltt": 'import "a.mltt"\ndef y : N1 := star\n',
        },
        [
            ("a", "fail", "b.mltt:1:1: import cycle through <dir>/a.mltt"),
            ("b", "fail", "a.mltt:1:1: import cycle through <dir>/b.mltt"),
        ],
    ),
    "a parse error in a later import behind a type error in an earlier one": (
        "top top.mltt\nill ill.mltt\n",
        {
            "ill.mltt": "def bad : N0 := star\n",
            "broken.mltt": "def x : N1 :=\n",
            "top.mltt": 'import "ill.mltt"\nimport "broken.mltt"\ndef y : N1 := star\n',
        },
        [
            ("top", "fail", "broken.mltt:2:1: unexpected eof '' (expected one of: term)"),
            ("ill", "fail", "ill.mltt:1: mismatch: type mismatch"),
        ],
    ),
}


def report(results, base):
    return [(r.tag, r.status, r.detail.replace(base, "<dir>")) for r in results]


@pytest.mark.parametrize("case", SYNTHETIC_CORPORA)
def test_synthetic_corpus_agrees_with_the_flat_check(case, tmp_path):
    manifest, files, expected = SYNTHETIC_CORPORA[case]
    base = write_corpus(tmp_path, manifest, files)
    results = check_corpus(Flags(), base)
    assert results == check_corpus_flat(Flags(), base)
    assert report(results, base) == expected


def test_budget_exhausted_in_a_shared_base_names_it_in_every_entry(tmp_path, small_budget):
    base = write_corpus(tmp_path, "a a.mltt\nb b.mltt\n", {
        "base.mltt": f"def small : N1 := star\ndef deep : N1 := {nested_identity(150)}\n",
        "a.mltt": 'import "base.mltt"\ndef a : N1 := small\n',
        "b.mltt": 'import "base.mltt"\ndef b : N1 := small\n',
    })
    results = check_corpus(Flags(), base)
    assert results == check_corpus_flat(Flags(), base)
    detail = "base.mltt:2: deep: evaluation exceeded 100 eliminator steps"
    assert report(results, base) == [("a", "fail", detail), ("b", "fail", detail)]


def test_a_name_supplied_only_by_a_sibling_import_is_rejected(tmp_path):
    """The one verdict that differs from the flat check: ``b.mltt`` uses
    ``one`` without importing ``a.mltt``, as ``covertt check b.mltt`` already
    rejects.  Flattening ``top.mltt`` put ``a.mltt`` first and let it pass."""
    base = write_corpus(tmp_path, "top top.mltt\n", {
        "a.mltt": "def one : N1 := star\n",
        "b.mltt": "def two : N1 := one\n",
        "top.mltt": 'import "a.mltt"\nimport "b.mltt"\ndef three : N1 := two\n',
    })
    assert report(check_corpus(Flags(), base), base) == [
        ("top", "fail", "b.mltt:1: unbound: unknown name 'one'"),
    ]
    assert report(check_corpus_flat(Flags(), base), base) == [("top", "pass", "")]


# --- one verdict per file, whichever command checks it ------------------------------

# name -> (manifest, files): every entry checked by ``covertt check`` of its file
CHECK_CASES = {
    "a name supplied only by a sibling import": (
        "top top.mltt\na a.mltt\nb b.mltt\n",
        {
            "a.mltt": "def one : N1 := star\n",
            "b.mltt": "def two : N1 := one\n",
            "top.mltt": 'import "a.mltt"\nimport "b.mltt"\ndef three : N1 := two\n',
        },
    ),
    **{case: (manifest, files) for case, (manifest, files, _) in SYNTHETIC_CORPORA.items()},
}


def check_failure(path, flags, capsys):
    """The first failure that ``covertt check PATH`` under ``flags`` names,
    worded as a corpus report's detail, or None when it exits 0."""
    flag_args = [f"--{n.replace('_', '-')}" for n in Flags.FLAG_NAMES if getattr(flags, n)]
    status = main(["check", path, *flag_args])
    lines = capsys.readouterr().out.splitlines()
    errors = [k for k, line in enumerate(lines) if line.startswith("error")]
    assert (status, len(errors)) in ((0, 0), (1, 1)), lines
    if status == 0:
        return None
    k = errors[0]
    # one ``error:`` line, or ``error NAME`` over the type error
    return lines[k].removeprefix("error: ") if lines[k].startswith("error: ") else lines[k + 1]


def assert_check_agrees_with_corpus(results, base, flags, capsys):
    for r in results:
        if r.status != "skip":
            found = check_failure(os.path.join(base, r.file), flags, capsys)
            assert (r.tag, found) == (r.tag, r.detail if r.status == "fail" else None)


@pytest.mark.parametrize("case", CHECK_CASES)
def test_check_fails_an_entry_exactly_where_corpus_does(case, tmp_path, capsys):
    """``covertt check top.mltt`` passed the sibling case by flattening it."""
    base = write_corpus(tmp_path, *CHECK_CASES[case])
    assert_check_agrees_with_corpus(check_corpus(Flags(), base), base, Flags(), capsys)


corpus_under = functools.lru_cache(maxsize=None)(check_corpus)


@pytest.mark.parametrize("entry", load_manifest(), ids=lambda e: e.tag)
def test_check_passes_each_shipped_entry_as_corpus_does(entry, capsys):
    """Under exactly its manifest flags; no shipped module leans on a name
    that only a sibling import supplies."""
    results = [r for r in corpus_under(entry.required) if r.tag == entry.tag]
    assert [r.status for r in results] == ["pass"]
    assert_check_agrees_with_corpus(results, os.path.dirname(entry.path()), entry.required, capsys)


def test_each_reachable_file_is_parsed_and_each_declaration_checked_once(monkeypatch):
    """Under all four flags every manifest entry is checked; the 17 files
    they reach are each parsed once and each declaration is checked once
    (flattening every entry made 44 parses and checked 276 declarations)."""
    files = sorted(f for f in os.listdir(CORPUS) if f.endswith(".mltt"))
    decls = [
        (d.location, d.name)
        for f in files
        for d in surface.parse_file(open(os.path.join(CORPUS, f)).read(), f)[0]
    ]
    parsed, checked = [], []
    parse_file, check_declarations = surface.parse_file, typecheck.check_declarations

    def counting_parse(src, filename="<input>", nodes=None):
        parsed.append(filename)
        return parse_file(src, filename, nodes)

    def counting_check(ds, *args, **kwargs):
        checked.extend((d.location, d.name) for d in ds)
        return check_declarations(ds, *args, **kwargs)

    monkeypatch.setattr(surface, "parse_file", counting_parse)
    monkeypatch.setattr(typecheck, "check_declarations", counting_check)
    assert {r.status for r in check_corpus(ALL_FLAGS)} == {"pass"}
    assert sorted(parsed) == files and len(files) == 17
    assert sorted(checked) == sorted(decls)


# --- instance builders ----------------------------------------------------------

# (name, I, N, Br, ar) for the dependent-tree constructions
DW_INSTANCES = [
    (
        "empty",
        "N1",
        "(fun i => N1)",
        "(fun i => fun n => N0)",
        "(fun i => fun n => fun b => absurd (fun z => N1) b)",
    ),
    (
        "unit",
        "N1",
        "(fun i => N1)",
        "(fun i => fun n => N1)",
        "(fun i => fun n => fun b => i)",
    ),
    (
        "two",
        "(Sum N1 N1)",
        "(fun i => N1)",
        "(fun i => fun n => case (fun z => U0) (fun u => N0) (fun u => N1) i)",
        "(fun i => fun n => fun b => inl star)",
    ),
]

# (name, A, If, Cf, V) for the cover constructions
COVER_INSTANCES = [
    (
        "empty",
        "N1",
        "(fun a => N0)",
        "(fun a => fun i => absurd (fun z => N1 -> U0) i)",
        "(fun a => N0)",
    ),
    (
        "unit",
        "N1",
        "(fun a => N1)",
        "(fun a => fun i => fun b => N1)",
        "(fun a => N1)",
    ),
    (
        "two",
        "(Sum N1 N1)",
        "(fun a => case (fun z => U0) (fun u => N1) (fun u => N0) a)",
        "(fun a => case (fun a2 => (case (fun z => U0) (fun u => N1) (fun u => N0) a2) -> Sum N1 N1 -> U0) "
        "(fun u => fun i => fun b => case (fun z => U0) (fun v => N0) (fun v => N1) b) "
        "(fun u => fun i => absurd (fun z => Sum N1 N1 -> U0) i) a)",
        "(fun a => case (fun z => U0) (fun u => N0) (fun u => N1) a)",
    ),
]

# (name, I, N, R) for the well-founded-predicate constructions
WP_INSTANCES = [
    ("empty", "N1", "(fun i => N0)", "(fun i => fun n => absurd (fun z => N1 -> U0) n)"),
    ("unit", "N1", "(fun i => N1)", "(fun i => fun n => fun j => N1)"),
    (
        "two",
        "(Sum N1 N1)",
        "(fun i => N1)",
        "(fun i => fun n => fun j => case (fun z => U0) (fun u => N0) (fun u => N1) j)",
    ),
]

# (name, A, B) for the plain-tree constructions
W_INSTANCES = [
    ("empty", "N1", "(fun a => N0)"),
    ("unit", "N1", "(fun a => N1)"),
    ("two", "(Sum N1 N1)", "(fun a => case (fun z => U0) (fun u => N0) (fun u => N1) a)"),
]


def _check_fragment(imports, decls, flags):
    src = "".join(f'import "{os.path.abspath(os.path.join(CORPUS, f))}"\n' for f in imports)
    src += "\n".join(decls) + "\n"
    parsed, import_names = surface.parse_file(src, "<builder>")
    all_decls = []
    for name in import_names:
        all_decls.extend(surface.load_file(name))
    all_decls.extend(parsed)
    typecheck.check_declarations(all_decls, flags)


@pytest.mark.parametrize("name,i,n,br,ar", DW_INSTANCES)
def test_build_dw_encoding_instances(name, i, n, br, ar):
    decls = builders.build_dw_encoding(i, n, br, ar, prefix=f"{name}_")
    _check_fragment(["p41ii.mltt"], decls, Flags(eta_pi=True, eta_sigma=True))


@pytest.mark.parametrize("name,i,n,br,ar", DW_INSTANCES)
def test_build_dw_iso_instances(name, i, n, br, ar):
    decls = builders.build_dw_iso(i, n, br, ar, prefix=f"{name}_")
    _check_fragment(
        ["p41i.mltt"], decls, Flags(funext=True, eta_pi=True, eta_sigma=True)
    )


@pytest.mark.parametrize("name,a,ifam,cfam,v", COVER_INSTANCES)
def test_build_cover_as_wp_instances(name, a, ifam, cfam, v):
    decls = builders.build_cover_as_wp(a, ifam, cfam, v, prefix=f"{name}_")
    _check_fragment(["cover_as_wp.mltt"], decls, Flags())


@pytest.mark.parametrize("name,i,n,r", WP_INSTANCES)
def test_build_wp_as_cover_instances(name, i, n, r):
    decls = builders.build_wp_as_cover(i, n, r, prefix=f"{name}_")
    _check_fragment(["wp_as_cover.mltt"], decls, Flags())


@pytest.mark.parametrize("name,a,ifam,cfam,v", COVER_INSTANCES)
def test_build_canonical_rules_instances(name, a, ifam, cfam, v):
    decls = builders.build_canonical(a, ifam, cfam, v, prefix=f"{name}_", mode="rules")
    _check_fragment(["p51ii.mltt"], decls, Flags(eta_pi=True, eta_sigma=True))


@pytest.mark.parametrize("name,a,ifam,cfam,v", COVER_INSTANCES)
def test_build_canonical_iso_instances(name, a, ifam, cfam, v):
    decls = builders.build_canonical(a, ifam, cfam, v, prefix=f"{name}_", mode="iso")
    _check_fragment(
        ["p51i.mltt"], decls, Flags(funext=True, eta_pi=True, eta_sigma=True)
    )


@pytest.mark.parametrize("name,i,n,r", WP_INSTANCES)
def test_build_wp_via_dw_rules_instances(name, i, n, r):
    decls = builders.build_wp_via_dw(i, n, r, prefix=f"{name}_", mode="rules")
    _check_fragment(["p52ii.mltt"], decls, Flags(eta_pi=True, eta_sigma=True))


@pytest.mark.parametrize("name,i,n,r", WP_INSTANCES)
def test_build_wp_via_dw_iso_instances(name, i, n, r):
    decls = builders.build_wp_via_dw(i, n, r, prefix=f"{name}_", mode="iso")
    _check_fragment(["p52i.mltt"], decls, Flags(funext=True))


@pytest.mark.parametrize("name,a,b", W_INSTANCES)
def test_build_w_via_wp_rules_instances(name, a, b):
    decls = builders.build_w_via_wp(a, b, prefix=f"{name}_", mode="rules")
    _check_fragment(["p52iv.mltt"], decls, Flags(eta_pi=True, eta_unit=True))


@pytest.mark.parametrize("name,a,b", W_INSTANCES)
def test_build_w_via_wp_iso_instances(name, a, b):
    decls = builders.build_w_via_wp(a, b, prefix=f"{name}_", mode="iso")
    _check_fragment(["p52iii.mltt"], decls, Flags(funext=True))


@pytest.mark.parametrize("name,i,n,r", WP_INSTANCES)
def test_build_representation_instances(name, i, n, r):
    decls = builders.build_representation_lemma(i, n, r, prefix=f"{name}_")
    _check_fragment(["representation.mltt"], decls, Flags())


def test_interpreted_introduction_infers_its_family():
    # an application of the defined introduction form infers to the
    # interpreted family at its index
    import os as _os

    src = 'import "%s"\n' % _os.path.abspath(_os.path.join(CORPUS, "p41ii.mltt"))
    decls = []
    parsed, import_names = surface.parse_file(src, "<infer>")
    for nm in import_names:
        decls.extend(surface.load_file(nm))
    chk = typecheck.check_declarations(decls, Flags(eta_pi=True, eta_sigma=True))
    items = [
        ("I", "U0"),
        ("N", "I -> U0"),
        ("Br", "(i : I) -> N i -> U0"),
        ("ar", "(i : I) -> (n : N i) -> Br i n -> I"),
        ("i", "I"),
        ("n", "N i"),
        ("f", "(b : Br i n) -> DWp I N Br ar (ar i n b)"),
    ]
    ctx, scope = context_of(chk, items)
    t = surface.parse_term("dsupP I N Br ar i n f", scope=scope)
    inferred = chk.infer(ctx, t)
    expected = chk.eval_in(ctx, surface.parse_term("DWp I N Br ar i", scope=scope))
    assert chk.ev.equal_types(inferred, expected, ctx.depth)


def test_build_free_vacuous_branching_is_inhabited():
    decls = builders.build_free("N1", "(fun i => N1)", "(fun i => fun n => N0)")
    decls = list(decls) + [
        "def leaf : iFree := sup ( star , star ) "
        "(fun b => absurd (fun z => iFree) b)"
    ]
    _check_fragment([], decls, Flags())


def test_build_legal_checks_and_rejects_label_mismatch():
    decls = builders.build_legal(
        "(Sum N1 N1)", "(fun i => N1)", "(fun i => fun n => N0)",
        "(fun i => fun n => fun b => absurd (fun z => Sum N1 N1) b)",
    )
    leaf = (
        "def leaf : iFree := sup ( inl star , star ) "
        "(fun b => absurd (fun z => iFree) b)"
    )
    ok = (
        "def legalLeaf : iLegal (inl star) leaf := "
        "( (fun b => absurd (fun z => iLegal "
        "(iar (inl star) star b) (absurd (fun z2 => iFree) b)) b) , refl (inl star) )"
    )
    _check_fragment([], list(decls) + [leaf, ok], Flags())

    # label mismatch: the identity component is between distinct injections
    bad = (
        "def badLeaf : iLegal (inr star) leaf := "
        "( (fun b => absurd (fun z => iLegal "
        "(iar (inl star) star b) (absurd (fun z2 => iFree) b)) b) , refl (inr star) )"
    )
    with pytest.raises(TypeCheckError):
        _check_fragment([], list(decls) + [leaf, bad], Flags())


def test_representation_roundtrip_logged_not_asserted(capsys):
    # one-rule instance: compose the two directions and record the outcome
    src = """
import "%s"
def oneN : N1 -> U0 := fun i => N1
def oneR : (i : N1) -> N1 -> N1 -> U0 := fun i => fun n => fun j => N0
def oneWP : U0 := WP N1 oneN oneR star
def witness : oneWP := ind star star (fun j => fun r => absurd (fun z => WP N1 oneN oneR j) r)
""" % os.path.abspath(os.path.join(CORPUS, "representation.mltt"))
    parsed, import_names = surface.parse_file(src, "<repr>")
    decls = []
    for nm in import_names:
        decls.extend(surface.load_file(nm))
    decls.extend(parsed)
    for flags in (Flags(eta_pi=True, eta_sigma=True), Flags()):
        chk = typecheck.check_declarations(decls, flags)
        ctx = Context()
        scope = []
        outcome = conv(
            chk, ctx, scope, "oneWP -> oneWP",
            "fun w => reprBackward N1 oneN oneR star (reprForward N1 oneN oneR star w)",
            "fun w => w",
        )
        print(f"representation round trip under {flags.names() or ('no flags',)}: "
              f"{'convertible' if outcome else 'not convertible'}")
    out = capsys.readouterr().out
    assert "representation round trip" in out
