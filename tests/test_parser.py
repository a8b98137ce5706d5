"""Surface syntax: parsing, pretty-printing, round trips, includes."""

import hashlib
import os
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from covertt import surface
from covertt.cover import extract_proof_term
from covertt.surface import ParseError, parse_file, parse_term, pretty
from covertt import terms as T

from helpers import (
    CORPUS,
    criterion6_derivations,
    extract_proof_term_inlined,
    extract_proof_term_unary,
    load_file,
    pretty_oracle,
    term_key,
    tokenize_oracle,
)


def test_identity_roundtrip():
    t = parse_term("fun x => x")
    assert parse_term(pretty(t)) == t


def test_pretty_star():
    assert pretty(T.Star()) == "star"


def test_arrow_sugar_and_binders():
    t = parse_term("(A : U0) -> A -> A")
    assert isinstance(t, T.Pi)
    assert t == T.Pi(T.Univ(), T.Pi(T.Var(0), T.Var(1)))
    s = parse_term("(A : U0) * A")
    assert s == T.Sigma(T.Univ(), T.Var(0))
    n = parse_term("N1 * N0 -> N1")
    assert n == T.Pi(T.Sigma(T.Unit(), T.Empty()), T.Unit())


def test_application_left_associative():
    t = parse_term("f a b", scope=["f", "a", "b"])
    assert t == T.App(T.App(T.Var(2), T.Var(1)), T.Var(0))


def test_arrows_right_associative():
    t = parse_term("N1 -> N1 -> N1")
    assert t == T.Pi(T.Unit(), T.Pi(T.Unit(), T.Unit()))


def test_eliminator_arities_enforced():
    with pytest.raises(ParseError):
        parse_term("sup a", scope=["a"])
    with pytest.raises(ParseError):
        parse_term("J a b", scope=["a", "b"])


def test_keywords_are_not_identifiers():
    for kw in ("sup", "fun", "W", "case", "split", "U0", "let", "in"):
        with pytest.raises(ParseError):
            parse_file(f"def {kw} : N1 := star")


def test_let_binds_its_body_only():
    # the name is in scope in the body, not in the type or the value
    t = parse_term("fun x => let x : U0 := x in x")
    assert t == T.Lam(T.Let(T.Univ(), T.Var(0), T.Var(0)))
    assert pretty(t) == "fun x0 => let x1 : U0 := x0 in x1"
    # a let extends as far right as a lambda
    t = parse_term("N1 -> let y : U0 := N1 in y -> y")
    assert t == T.Pi(T.Unit(), T.Let(T.Univ(), T.Unit(), T.Pi(T.Var(0), T.Var(1))))
    assert parse_term(pretty(t)) == t
    with pytest.raises(ParseError):
        parse_term("let y : U0 := N1 y")


def test_pair_and_annotation():
    t = parse_term("( star , star )")
    assert t == T.Pair(T.Star(), T.Star())
    a = parse_term("( star : N1 )")
    assert a == T.Ann(T.Star(), T.Unit())


def test_family_former_keywords():
    t = parse_term("W N1 (fun x => N0)")
    assert t == T.W(T.Unit(), T.Lam(T.Empty()))
    t = parse_term("Cover N1 (fun a => N1) (fun a => fun i => fun b => N0) (fun a => N1) star")
    assert isinstance(t, T.App) and isinstance(t.fn, T.Cover)


def test_pi_sig_keyword_forms():
    assert parse_term("Pi N1 (fun x => N1)") == T.Pi(T.Unit(), T.Unit())
    assert parse_term("Sig N1 (fun x => N1)") == T.Sigma(T.Unit(), T.Unit())


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_file("def x : N1 :=")
    assert e.value.line == 1 and e.value.col > 0


def test_comments_ignored():
    decls, _ = parse_file("-- a comment\ndef x : N1 := star -- trailing\n")
    assert decls[0].name == "x"


def test_corpus_roundtrips():
    for fn in sorted(os.listdir(CORPUS)):
        if not fn.endswith(".mltt"):
            continue
        with open(os.path.join(CORPUS, fn), encoding="utf-8") as fh:
            src = fh.read()
        decls, _ = parse_file(src, fn)
        for d in decls:
            printed = surface.pretty_declaration(d)
            reparsed = parse_file(printed, fn)[0][0]
            assert reparsed.type == d.type, (fn, d.name)
            assert reparsed.body == d.body, (fn, d.name)


def test_a_postulate_prints_as_one_and_round_trips():
    [d], _ = parse_file("postulate f : (A : U0) -> A -> A\n")
    printed = surface.pretty_declaration(d)
    assert printed == "postulate f : (x0 : U0) -> x0 -> x0"
    assert parse_file(printed)[0] == [d]


def test_pretty_is_deterministic():
    for src in ("fun x => fun y => x", "(x : N1) -> N1 * N1", "sup star (fun b => b)"):
        t = parse_term(src)
        assert pretty(t) == pretty(parse_term(pretty(t)))


def test_import_resolution_and_cycles(tmp_path):
    a = tmp_path / "a.mltt"
    b = tmp_path / "b.mltt"
    a.write_text('import "b.mltt"\ndef two : N1 * N1 := ( one , one )\n')
    b.write_text("def one : N1 := star\n")
    decls = load_file(str(a))
    assert [d.name for d in decls] == ["one", "two"]

    a.write_text('import "b.mltt"\ndef x : N1 := star\n')
    b.write_text('import "a.mltt"\ndef y : N1 := star\n')
    with pytest.raises(ParseError) as e:
        load_file(str(a))
    assert str(e.value) == f"b.mltt:1:1: import cycle through {tmp_path}/a.mltt"


def test_parse_errors_name_the_file(tmp_path):
    """An error in a file reads FILE:LINE:COL, one in a term LINE:COL, and
    an import cycle is reported at the import that closes it."""
    f = tmp_path / "broken.mltt"
    for text, expected in [
        ("def x : N1 :=\n", "broken.mltt:2:1: unexpected eof '' (expected one of: term)"),
        ("def x : N1 := star\ndef y : N1 := $\n", "broken.mltt:2:15: stray character '$'"),
        ('def x : N1 := "open\n', "broken.mltt:1:15: unterminated string"),
    ]:
        f.write_text(text)
        with pytest.raises(ParseError) as e:
            load_file(str(f))
        assert str(e.value) == expected
    with pytest.raises(ParseError) as e:
        parse_term("fun x =>")
    assert str(e.value) == "1:9: unexpected eof '' (expected one of: term)"

    (tmp_path / "a.mltt").write_text('import "b.mltt"\n')
    (tmp_path / "b.mltt").write_text('def y : N1 := star\n  import "a.mltt"\n')
    with pytest.raises(ParseError) as e:
        surface.load_modules(str(tmp_path / "a.mltt"))
    assert str(e.value) == f"b.mltt:2:3: import cycle through {tmp_path}/a.mltt"


def test_a_context_is_its_items_each_in_the_scope_of_the_names_before_it():
    assert surface.parse_context("") == surface.parse_context("  \n ") == []
    pair = "Id (N1 * N1) (star , star) (star , star)"
    items = surface.parse_context(f"A : U0, q : {pair}, B : A -> A")
    assert items == [
        ("A", T.Univ()),
        ("q", parse_term(pair, scope=["A"])),
        ("B", parse_term("A -> A", scope=["A", "q"])),
    ]
    assert items[2][1] == T.Pi(T.Var(1), T.Var(2))


@pytest.mark.parametrize("src, expected", [
    ("A : U0, B U0", "<context>:1:11: unexpected keyword 'U0' (expected one of: :)"),
    ("A : U0, U0 : U0", "<context>:1:9: unexpected keyword 'U0' (expected one of: ident)"),
    ("A B : U0", "<context>:1:3: unexpected ident 'B' (expected one of: :)"),
    ("A : U0,", "<context>:1:8: unexpected eof '' (expected one of: ident)"),
    ("A : U0,\n x : (A -> A", "<context>:2:13: unexpected eof '' (expected one of: ))"),
])
def test_a_malformed_context_item_is_located_in_the_whole_string(src, expected):
    with pytest.raises(ParseError) as e:
        surface.parse_context(src)
    assert str(e.value) == expected


def test_import_deduplication(tmp_path):
    base = tmp_path / "base.mltt"
    mid = tmp_path / "mid.mltt"
    top = tmp_path / "top.mltt"
    base.write_text("def one : N1 := star\n")
    mid.write_text('import "base.mltt"\ndef two : N1 := one\n')
    top.write_text('import "base.mltt"\nimport "mid.mltt"\ndef three : N1 := two\n')
    decls = load_file(str(top))
    assert [d.name for d in decls] == ["one", "two", "three"]
    modules = surface.load_modules(str(top))
    assert [os.path.basename(m.path) for m in modules] == ["base.mltt", "mid.mltt", "top.mltt"]
    assert [[os.path.basename(p) for p in m.imports] for m in modules] == [
        [], ["base.mltt"], ["base.mltt", "mid.mltt"]
    ]


def test_a_subterm_written_in_two_files_of_one_load_is_one_object(tmp_path):
    """Within one ``load_modules`` call, and across calls that share one
    ``parsed`` dict; a separate load builds its own."""
    pair = "(A : U0) -> A -> A * A"
    (tmp_path / "b.mltt").write_text(f"def p : {pair} := fun A => fun x => ( x , x )\n")
    (tmp_path / "a.mltt").write_text(f'import "b.mltt"\ndef q : {pair} := p\n')
    (tmp_path / "c.mltt").write_text(f"def r : {pair} := fun A => fun y => ( y , y )\n")

    def types(path, parsed=None):
        modules = surface.load_modules(str(tmp_path / path), parsed)
        return [d.type for m in modules for d in m.decls]

    parsed = {}
    (p, q), (r,) = types("a.mltt", parsed), types("c.mltt", parsed)
    assert p is q is r
    # the function bodies of p and r differ in the name of their variable only
    assert parsed[str(tmp_path / "b.mltt")].decls[0].body.body is (
        parsed[str(tmp_path / "c.mltt")].decls[0].body.body
    )
    (r2,) = types("c.mltt")
    assert r2 == r and r2 is not r


# --- the regex lexer and the printer against the code they replaced -------

# sha256 of the printed criterion-6 certificates (seed 98765, joined by
# newlines), which bind their instance and each derived atom in lets and
# state each axiom as the fibre of its premises (the unary encoding in
# helpers vouches for them in test_cover); of the same certificates in that
# unary encoding, as the engine printed them before it had fibres; in the
# inlined encoding, as the engine printed them before it had lets; and of
# every corpus declaration printed by pretty_declaration, as the bottom-up
# printer that strengthened every non-dependent body printed it
CERTIFICATES_SHA256 = "67eac8241f7485084be90de166ef1f2b63f870b52017e23f9e75a12efb923e6f"
UNARY_CERTIFICATES_SHA256 = "2850577e6dc56bd4e750dcefa9f7e10ff1e3ceeced481d9eb81f3f361e9ba9a2"
INLINED_CERTIFICATES_SHA256 = "9fd5f1a22ddcf60ba3c1f064fd023a39be071c1c0a16ddb97f2cd8da7df2ae2c"
CORPUS_PRINTED_SHA256 = "5739e76c4ac5772d7f248d51c60f4dc03e9a85200adc1ad7217db4bbc7808ef6"


@pytest.fixture(scope="module")
def certificates():
    terms = [extract_proof_term(ax, v, d) for ax, v, _atom, d in criterion6_derivations()]
    return terms, [pretty(t) for t in terms]


def _corpus_sources():
    for fn in sorted(os.listdir(CORPUS)):
        if fn.endswith(".mltt"):
            with open(os.path.join(CORPUS, fn), encoding="utf-8") as fh:
                yield fn, fh.read()


def _tokens(tokenize, src):
    """(kind, text, line, col) of every token, or the lexing error's position."""
    try:
        return tokenize(src)
    except ParseError as e:
        return ("error", e.message, e.line, e.col)


def _lexed(src):
    """The parser's token lists, each token with the position ``_locate``
    gives it, and the end of the input as an eof token.  A punctuation mark
    or keyword, its own kind in the parser, is named by its class."""
    kinds, texts, lines = surface._lex(src)
    tokens = [*zip([surface._CLASS.get(kind, kind) for kind in kinds], texts), ("eof", "")]
    return [(kind, text, *surface._locate(src, lines, k)) for k, (kind, text) in enumerate(tokens)]


def _assert_lexes_like_oracle(src):
    assert _tokens(_lexed, src) == _tokens(tokenize_oracle, src)


def test_tokenizer_agrees_with_oracle_on_corpus():
    for _fn, src in _corpus_sources():
        _assert_lexes_like_oracle(src)


def test_tokenizer_agrees_with_oracle_on_certificates(certificates):
    for text in certificates[1]:
        _assert_lexes_like_oracle(text)


LEXEME_PIECES = [
    "def", "fun", "x", "x'", "_y", "U0", "N1", "-- note", "--", "-", "->", ":=", "=>",
    "=", ":", "(", ")", "*", ",", '"f.mltt"', '"', "1", "1a", "é", "½", "²", "λx", "#",
    " ", "  ", "\t", "\r", "\n", "\r\n", "\f", "\u00a0",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(LEXEME_PIECES) | st.characters(), max_size=30).map("".join))
def test_tokenizer_agrees_with_oracle_on_random_text(src):
    _assert_lexes_like_oracle(src)


def test_parse_error_positions_follow_the_tokens():
    cases = [
        ("def x : N1 :=", 1, 14),
        ("def x : N1\n  := @", 2, 6),
        ('import "a.mltt\ndef x : N1 := star', 1, 8),
        ("def x : (y : N1) -> N1 := fun y => (y", 1, 38),
        ("def 1x : N1 := star", 1, 5),
        ("def x : N1 := (fun y => y : N1 -> N1) star )", 1, 44),
        # a comment that ends the input leaves the end position at its start
        ("postulate f : N1 -> -- c", 1, 21),
        ("def x : N1 := def", 1, 15),
        # no ``)`` closes the binder
        ("def x : N1 := (y : N1", 1, 22),
    ]
    for src, line, col in cases:
        with pytest.raises(ParseError) as e:
            parse_file(src)
        assert (e.value.line, e.value.col) == (line, col), src


def test_certificates_round_trip_and_print_as_before(certificates):
    terms, texts = certificates
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == CERTIFICATES_SHA256
    for tm, text in zip(terms, texts):
        assert parse_term(text) == tm


def test_the_inlined_oracle_prints_the_certificates_as_before():
    texts = [
        pretty(extract_proof_term_inlined(ax, v, d)) for ax, v, _atom, d in criterion6_derivations()
    ]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == INLINED_CERTIFICATES_SHA256


def test_the_unary_oracle_prints_the_certificates_as_before():
    texts = [
        pretty(extract_proof_term_unary(ax, v, d)) for ax, v, _atom, d in criterion6_derivations()
    ]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == UNARY_CERTIFICATES_SHA256


def test_certificates_print_within_their_size_bound(certificates):
    # the encoding that substituted into its case splits' motives printed
    # 1,789,976 characters, stating them reduced 788,513, binding the
    # instance and each derived atom once in lets 118,748, and stating each
    # axiom as the fibre of its premises 78,191
    assert sum(map(len, certificates[1])) <= 90_000


# --- sharing -------------------------------------------------------------------


def _objects_and_subterms(roots):
    """The number of distinct node objects reachable from ``roots``, and of
    distinct subterms among them by structure.  Each node is numbered by its
    class and its index, name or children's numbers, computed bottom up
    without recursion; equal numbers are equal terms."""
    number: dict = {}  # id(node) -> its structure's number
    structures: dict = {}  # (class, index, name or children's numbers) -> number
    stack = list(roots)
    while stack:
        t = stack[-1]
        if id(t) in number:
            stack.pop()
            continue
        cls = type(t)
        if cls is T.Var or cls is T.Const:
            key = (cls, t.index if cls is T.Var else t.name)
        else:
            children = [getattr(t, name) for name, _ in T.CHILDREN[cls]]
            pending = [c for c in children if id(c) not in number]
            if pending:
                stack += pending
                continue
            key = (cls, *[number[id(c)] for c in children])
        stack.pop()
        number[id(t)] = structures.setdefault(key, len(structures))
    return len(number), len(structures)


def test_a_parsed_certificate_is_one_object_per_distinct_subterm(certificates):
    terms, texts = certificates
    unshared = 0
    for tm, text in zip(terms, texts):
        back = parse_term(text)
        objects, subterms = _objects_and_subterms([back])
        assert objects == subterms
        # sharing changes neither equality nor hashing
        assert back == tm and hash(back) == hash(tm) and term_key(back) == term_key(tm)
        objects, subterms = _objects_and_subterms([tm])
        unshared += objects - subterms
    # the engine's own terms repeat subterms as separate objects
    assert unshared > 0


def test_a_parsed_file_is_one_object_per_distinct_subterm():
    for fn, src in _corpus_sources():
        decls, _ = parse_file(src, fn)
        roots = [t for d in decls for t in (d.type, d.body) if t is not None]
        objects, subterms = _objects_and_subterms(roots)
        assert objects == subterms, fn


def test_sharing_covers_the_family_keywords():
    """``Pi A F`` with F not a lambda builds its body from a shifted copy
    of F, which is shared with the rest of the parse too."""
    t = parse_term("( Pi N1 f , ( f , fun x => f x ) )", scope=["f"])
    assert t == T.Pair(
        T.Pi(T.Unit(), T.App(T.Var(1), T.Var(0))),
        T.Pair(T.Var(0), T.Lam(T.App(T.Var(1), T.Var(0)))),
    )
    assert t.fst.cod is t.snd.snd.body
    assert _objects_and_subterms([t]) == (8, 8)


def test_corpus_prints_as_before():
    printed = []
    for fn, src in _corpus_sources():
        printed += [surface.pretty_declaration(d) for d in parse_file(src, fn)[0]]
    assert hashlib.sha256("\n".join(printed).encode()).hexdigest() == CORPUS_PRINTED_SHA256


def _open_terms():
    """Random terms with free variables, constants and every printing form."""
    leaves = st.one_of(
        st.builds(T.Var, st.integers(0, 4)),
        st.just(T.Const("c")),
        st.just(T.Star()),
        st.just(T.Unit()),
        st.just(T.Univ()),
    )

    def extend(children):
        return st.one_of(
            st.builds(T.Lam, children),
            st.builds(T.Pi, children, children),
            st.builds(T.Sigma, children, children),
            st.builds(T.App, children, children),
            st.builds(T.Pair, children, children),
            st.builds(T.Ann, children, children),
            st.builds(T.Let, children, children, children),
            st.builds(T.Inl, children),
            st.builds(T.Tr, children, children, children),
            st.builds(T.Cover, children, children, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(_open_terms())
def test_pretty_agrees_with_oracle(t):
    assert pretty(t) == pretty_oracle(t)


@pytest.mark.parametrize("link", ["N1 -> ", "N1 * ", "(x : N1) -> ", "(x : N1) -> Id N1 x x -> "])
def test_pretty_visits_nodes_linear_in_the_depth(link):
    """The calls the printer makes into the surface and term modules, one
    per node its walks visit, grow by the same amount each time a chain of
    binders grows by the same number of links."""
    files = {surface.__file__, T.__file__}
    visits = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename in files:
            visits.append(frame.f_code.co_name)

    chains = [parse_term(link * n + "star") for n in (100, 200, 300)]
    counts = []
    for t in chains:
        visits.clear()
        sys.setprofile(profile)
        try:
            text = pretty(t)
        finally:
            sys.setprofile(None)
        assert text == pretty_oracle(t)
        counts.append(len(visits))
    assert counts[2] - counts[1] == counts[1] - counts[0]


@st.composite
def _scoped_terms(draw, depth=0, fuel=5):
    """Random terms whose variables are all bound, built mostly from
    annotations, arrows and products, where printing needs parentheses."""
    forms = ["leaf", "Lam", "Let", "App", "Pair", "Inl", "Tr"] + ["Pi", "Sigma", "Ann"] * 3
    if fuel == 0:
        forms = ["leaf"]
    form = draw(st.sampled_from(forms))

    def sub(binds=0):
        return draw(_scoped_terms(depth + binds, fuel - 1))

    if form == "leaf":
        leaves = [T.Const("c"), T.Star(), T.Unit(), T.Univ()] + [T.Var(i) for i in range(depth)]
        return draw(st.sampled_from(leaves))
    if form == "Lam":
        return T.Lam(sub(1))
    if form == "Let":
        return T.Let(sub(), sub(), sub(1))
    if form in ("Pi", "Sigma"):
        return getattr(T, form)(sub(), sub(1))
    if form == "Inl":
        return T.Inl(sub())
    if form == "Tr":
        return T.Tr(sub(), sub(), sub())
    return getattr(T, form)(sub(), sub())


@settings(max_examples=400, deadline=None)
@given(_scoped_terms())
def test_pretty_round_trips(t):
    assert parse_term(pretty(t)) == t


C, ANN = T.Const("c"), T.Ann(T.Const("c"), T.Const("c"))


@pytest.mark.parametrize(
    "t, text",
    [
        (T.Pi(ANN, C), "(( c : c )) -> c"),
        (T.Sigma(ANN, C), "(( c : c )) * c"),
        (T.Pi(T.Sigma(C, ANN), C), "c * (( c : c )) -> c"),
        (T.Pi(T.Sigma(C, T.Ann(T.Var(0), C)), C), "(x0 : c) * (( x0 : c )) -> c"),
    ],
)
def test_annotation_next_to_an_arrow_round_trips(t, text):
    assert pretty(t) == text
    assert parse_term(text) == t
