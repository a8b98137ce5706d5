"""Surface syntax: parser and pretty-printer.

Declaration files consist of ``def name : TYPE := TERM`` and
``postulate name : TYPE`` items, read as ``terms.Declaration`` records,
with ``--`` line comments and ``import "file"`` items that name other
files relative to this one (``load_modules``).  The parser imports no
kernel module.  A context (``parse_context``, the CLI's ``--context``)
is ``name : TYPE`` items separated by commas; a pair's comma stays inside
its parentheses.  Binders are ``(x : T) -> B`` and
``(x : T) * B``; ``->`` and ``*`` are sugar for their non-dependent forms;
application is juxtaposition; lambdas are ``fun x => t``, and local
definitions ``let x : A := v in t``, which bind as far right as a lambda.
Eliminators take the motive as their first argument.

The lexer is one regular expression.  The parser works on the tokens'
kinds and texts; positions are only computed, by ``tokenize``, to report an
error.  The right side of a non-dependent ``->`` or ``*`` is parsed under an
anonymous scope entry that no name resolves to, so its de Bruijn indices
already count the binder the arrow introduces; shifting it afterwards would
rebuild every right side once per arrow that encloses it.

The parser shares equal subterms (hash-consing): it builds every node
through ``Parser.node``, which returns the node it built before for the
same class and the same children, told apart by identity, or the same
index or name.  So equal subterms of one ``parse_term`` call, or of the
files of one load (one ``load_modules`` call, or the calls that share one
``parsed`` dict), are one object, and the closures evaluated from repeated
text share their body, which lets conversion compare them without applying
them, even where a type written in one file meets its copy in another.
The node table lives as long as the parse or the load, and no longer.
Sharing changes neither ``==`` nor ``hash``, which still compare structure.

The pretty-printer emits text that re-parses to a structurally equal term,
with deterministic fresh names ``x0, x1, ...`` indexed by binder depth, for
``fun`` and ``let`` binders alike.  It prints a non-dependent body under
the same kind of anonymous binder, which takes no name, instead of
strengthening the body first.  Whether a body reads its binder is found
in one walk from the outermost ``->`` or ``*`` the printer meets, and
remembered by node for the rest of the call, so printing takes time linear
in the size of the term, not quadratic in its depth.  An annotation on
the left of a non-dependent ``->`` or ``*``, or on the right of a ``*``,
gets a second pair of parentheses, since ``( x : T ) -> B`` is a binder.
"""

from __future__ import annotations

import os
import re
from typing import Optional

from . import terms as T
from .terms import Declaration, Node, Term


class ParseError(Exception):
    """A syntax error at ``line``:``col`` of ``filename``, or of the text
    given to ``parse_term`` when ``filename`` is None."""

    def __init__(self, message: str, line: int, col: int, expected=(), filename=None):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        self.filename = filename
        loc = f"{line}:{col}" if filename is None else f"{filename}:{line}:{col}"
        exp = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{loc}: {message}{exp}")


# keyword -> constructor, which takes one juxtaposed atom argument per field
KEYWORD_FORMS = {
    "refl": T.Refl,
    "fst": T.Proj1,
    "snd": T.Proj2,
    "inl": T.Inl,
    "inr": T.Inr,
    "sup": T.Sup,
    "dsup": T.DSup,
    "ind": T.Ind,
    "rf": T.Rf,
    "tr": T.Tr,
    "absurd": T.EmptyElim,
    "unitElim": T.UnitElim,
    "split": T.SigElim,
    "case": T.SumElim,
    "J": T.J,
    "elimW": T.WElim,
    "elimDW": T.DWElim,
    "elimWP": T.WPElim,
    "elimCover": T.CoverElim,
    "W": T.W,
    "DW": T.DW,
    "WP": T.WP,
    "Cover": T.Cover,
    "Sum": T.Sum,
    "Id": T.Id,
}

ATOM_KEYWORDS = {"U0": T.Univ, "N0": T.Empty, "N1": T.Unit, "star": T.Star}

BINDER_KEYWORDS = {"Pi", "Sig"}

RESERVED = (
    set(KEYWORD_FORMS)
    | set(ATOM_KEYWORDS)
    | BINDER_KEYWORDS
    | {"fun", "let", "in", "def", "postulate", "import"}
)


class Token:
    """One lexeme with its position: ``kind`` is ident, keyword, punct,
    string or eof; ``line`` and ``col`` count from 1, in characters."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.line}, {self.col})"


# One lexeme after optional blanks.  The alternatives are tried in order: a
# newline, a comment, a string (an unterminated one falls through to the
# last alternative as a lone quote), punctuation, a word, any other
# character but a blank (blanks that end the input match nothing).  ``\w``
# is ``str.isalnum`` or ``_``; a word must start with a letter
# (``str.isalpha``) or ``_``, which ``_kind`` checks.
_LEXEME = re.compile(r"[ \t\r]*(\n|--[^\n]*|\"[^\"\n]*\"|:=|=>|->|[():*,]|\w[\w']*|[^ \t\r])")

_FIXED_KINDS = {"\n": "newline"}
_FIXED_KINDS.update((p, "punct") for p in (":=", "=>", "->", "(", ")", ":", "*", ","))
_FIXED_KINDS.update((w, "keyword") for w in RESERVED)


def _kind(lexeme: str) -> Optional[str]:
    """Kind of a lexeme outside ``_FIXED_KINDS``; None if it is no token."""
    c = lexeme[0]
    if c.isalpha() or c == "_":
        return "ident"
    if c == '"':
        return "string" if len(lexeme) > 1 else None
    if lexeme.startswith("--"):
        return "comment"
    return None


def tokenize(src: str) -> list[Token]:
    """The tokens of ``src`` with their positions, ending with an eof token."""
    toks: list[Token] = []
    line, line_start = 1, 0
    eof_col = None
    for m in _LEXEME.finditer(src):
        text = m.group(1)
        kind = _FIXED_KINDS.get(text) or _kind(text)
        if kind == "newline":
            line += 1
            line_start = m.end()
            eof_col = None
            continue
        col = m.start(1) - line_start + 1
        if kind == "comment":
            # a comment that ends the input leaves the end position at its start
            eof_col = col
        elif kind is None:
            if text == '"':
                raise ParseError("unterminated string", line, col)
            raise ParseError(f"stray character {text[0]!r}", line, col)
        else:
            toks.append(Token(kind, text[1:-1] if kind == "string" else text, line, col))
    if eof_col is None:
        eof_col = len(src) - line_start + 1
    toks.append(Token("eof", "", line, eof_col))
    return toks


def _lex(src: str):
    """The tokens of ``tokenize(src)`` as parallel lists of kinds, texts and
    line numbers, without the eof token.  Columns are left out: the parser
    asks ``tokenize`` for them only to report an error."""
    kinds: list[str] = []
    texts: list[str] = []
    lines: list[int] = []
    line = 1
    for text in _LEXEME.findall(src):
        kind = _FIXED_KINDS.get(text) or _kind(text)
        if kind == "newline":
            line += 1
        elif kind == "comment":
            pass
        elif kind is None:
            tokenize(src)  # raises the error at its position
            raise AssertionError(f"tokenize accepted {text!r}")
        else:
            kinds.append(kind)
            texts.append(text[1:-1] if kind == "string" else text)
            lines.append(line)
    return kinds, texts, lines


# keywords that start an atom
_ATOM_START = set(KEYWORD_FORMS) | set(ATOM_KEYWORDS) | BINDER_KEYWORDS


class Parser:
    def __init__(self, src: str, filename: Optional[str] = None, nodes: Optional[dict] = None):
        self.src = src
        try:
            kinds, texts, lines = _lex(src)
        except ParseError as e:
            raise ParseError(e.message, e.line, e.col, filename=filename) from None
        self.closer = _matching_parens(kinds, texts)
        # lookahead reads at most two tokens past the end
        self.kinds = kinds + ["eof"] * 3
        self.texts = texts + [""] * 3
        self.lines = lines
        self.pos = 0
        self.filename = filename
        # binder names, innermost last; None stands for the anonymous binder
        # of a non-dependent ``->`` or ``*``, which no name refers to
        self.scope: list[Optional[str]] = []
        self._tokens: Optional[list[Token]] = None
        # the key of each node built so far -> the node; shared by the files
        # of one load
        self.nodes: dict = {} if nodes is None else nodes

    def node(self, cls, *fields) -> Term:
        """``cls(*fields)``, built once per node table: a node equal to one
        built before into ``nodes`` is that node.  Sub-terms are the table's
        nodes, so they are keyed by identity; an index or a name by its
        value."""
        key = (cls, *fields) if cls is T.Var or cls is T.Const else (cls, *map(id, fields))
        t = self.nodes.get(key)
        if t is None:
            t = self.nodes[key] = cls(*fields)
        return t

    def _share(self, t: Term) -> Term:
        """A term built outside the parser, rebuilt from the table's nodes."""
        fields = [getattr(t, name) for name in t.__match_args__]
        return self.node(type(t), *[self._share(f) if isinstance(f, Term) else f for f in fields])

    # -- token plumbing

    def token(self, k: int) -> Token:
        """Token ``k`` with its position (the eof token past the end)."""
        if self._tokens is None:
            self._tokens = tokenize(self.src)
        return self._tokens[min(k, len(self._tokens) - 1)]

    def error(self, message: str, expected=()):
        t = self.token(self.pos)
        raise ParseError(message, t.line, t.col, expected, self.filename)

    def parse(self, rule):
        """``rule()``, with the recursion limit reported as a ``ParseError``
        at the token where the parser stopped."""
        try:
            return rule()
        except RecursionError:
            pass
        self.error("input nested too deeply")

    def expect(self, kind: str, text: Optional[str] = None) -> str:
        k = self.pos
        if self.kinds[k] != kind or (text is not None and self.texts[k] != text):
            self.error(
                f"unexpected {self.kinds[k]} {self.texts[k]!r}", expected=[text or kind]
            )
        self.pos = k + 1
        return self.texts[k]

    def at_punct(self, text: str) -> bool:
        k = self.pos
        return self.kinds[k] == "punct" and self.texts[k] == text

    def at_keyword(self, text: str) -> bool:
        k = self.pos
        return self.kinds[k] == "keyword" and self.texts[k] == text

    # -- files

    def parse_file(self) -> tuple[list[Declaration], list[str]]:
        decls: list[Declaration] = []
        imports: list[str] = []
        while self.kinds[self.pos] != "eof":
            location = f"{self.filename}:{self.lines[self.pos]}"
            if self.at_keyword("import"):
                self.pos += 1
                imports.append(self.expect("string"))
            elif self.at_keyword("def"):
                self.pos += 1
                name = self.expect("ident")
                self.expect("punct", ":")
                ty = self.parse_term()
                self.expect("punct", ":=")
                body = self.parse_term()
                decls.append(Declaration(name, ty, body, location))
            elif self.at_keyword("postulate"):
                self.pos += 1
                name = self.expect("ident")
                self.expect("punct", ":")
                ty = self.parse_term()
                decls.append(Declaration(name, ty, None, location))
            else:
                self.error("expected a declaration", expected=["def", "postulate", "import"])
        return decls, imports

    def parse_context(self) -> list[tuple[str, Term]]:
        items: list[tuple[str, Term]] = []
        while self.kinds[self.pos] != "eof":
            if items:
                self.expect("punct", ",")
            name = self.expect("ident")
            self.expect("punct", ":")
            items.append((name, self.parse_term()))
            self.scope.append(name)
        return items

    # -- terms

    def parse_term(self) -> Term:
        if self.at_keyword("fun"):
            self.pos += 1
            name = self.expect("ident")
            self.expect("punct", "=>")
            return self.node(T.Lam, self._bound(name, self.parse_term))
        if self.at_keyword("let"):
            self.pos += 1
            name = self.expect("ident")
            self.expect("punct", ":")
            ty = self.parse_term()
            self.expect("punct", ":=")
            value = self.parse_term()
            self.expect("keyword", "in")
            return self.node(T.Let, ty, value, self._bound(name, self.parse_term))
        return self.parse_arrow()

    def parse_arrow(self) -> Term:
        if self._is_binder():
            left = self._parse_binder()
        else:
            left = self.parse_star_level()
        if self.at_punct("->"):
            self.pos += 1
            return self.node(T.Pi, left, self._bound(None, self.parse_arrow))
        return left

    def _bound(self, name: Optional[str], parse) -> Term:
        """Parse under a binder of ``name``; None is the anonymous binder of
        the right side of a non-dependent ``->`` or ``*``, so that its
        indices already count the binder."""
        self.scope.append(name)
        try:
            return parse()
        finally:
            self.scope.pop()

    def _parse_binder(self) -> Term:
        name = self.texts[self.pos + 1]  # after "(", checked by _is_binder
        self.pos += 2
        self.expect("punct", ":")
        dom = self.parse_term()
        self.expect("punct", ")")
        op = self.texts[self.pos]  # -> or *
        self.pos += 1
        if op == "->":
            return self.node(T.Pi, dom, self._bound(name, self.parse_arrow))
        return self.node(T.Sigma, dom, self._bound(name, self.parse_sigma_rhs))

    def parse_sigma_rhs(self) -> Term:
        # right-hand side of '*': binds tighter than '->'
        if self._is_binder():
            return self._parse_binder()
        return self.parse_star_level()

    def _is_binder(self) -> bool:
        # lookahead: "(" ident ":" ... ")" followed by -> or *
        k = self.pos
        if not (self.at_punct("(") and self.kinds[k + 1] == "ident"):
            return False
        if not (self.kinds[k + 2] == "punct" and self.texts[k + 2] == ":"):
            return False
        close = self.closer.get(k)
        if close is None:
            return False
        return self.kinds[close + 1] == "punct" and self.texts[close + 1] in ("->", "*")

    def parse_star_level(self) -> Term:
        left = self.parse_app()
        if self.at_punct("*"):
            self.pos += 1
            return self.node(T.Sigma, left, self._bound(None, self.parse_sigma_rhs))
        return left

    def parse_app(self) -> Term:
        head = self.parse_atom()
        while self._atom_starts():
            arg = self.parse_atom()
            head = self.node(T.App, head, arg)
        return head

    def _atom_starts(self) -> bool:
        k = self.pos
        kind = self.kinds[k]
        if kind == "ident":
            return True
        if kind == "keyword":
            return self.texts[k] in _ATOM_START
        return kind == "punct" and self.texts[k] == "("

    def parse_atom(self) -> Term:
        k = self.pos
        kind, text = self.kinds[k], self.texts[k]
        if kind == "ident":
            self.pos = k + 1
            for i, bound in enumerate(reversed(self.scope)):
                if bound == text:
                    return self.node(T.Var, i)
            return self.node(T.Const, text)
        if kind == "keyword":
            if text in ATOM_KEYWORDS:
                self.pos = k + 1
                return self.node(ATOM_KEYWORDS[text])
            if text in KEYWORD_FORMS:
                self.pos = k + 1
                ctor = KEYWORD_FORMS[text]
                arity = len(T.CHILDREN[ctor])
                args = []
                for j in range(arity):
                    if not self._atom_starts():
                        self.error(
                            f"{text} expects {arity} arguments, got {j}",
                            expected=["term"],
                        )
                    args.append(self.parse_atom())
                return self.node(ctor, *args)
            if text in BINDER_KEYWORDS:
                self.pos = k + 1
                dom = self.parse_atom()
                fam = self.parse_atom()
                if isinstance(fam, T.Lam):
                    body = fam.body
                else:
                    body = self.node(T.App, self._share(T.weaken(fam)), self.node(T.Var, 0))
                return self.node(T.Pi if text == "Pi" else T.Sigma, dom, body)
            if text == "fun" or text == "let":
                return self.parse_term()
            self.error(f"keyword {text!r} cannot start an atom")
        if self.at_punct("("):
            self.pos = k + 1
            inner = self.parse_term()
            if self.at_punct(","):
                self.pos += 1
                second = self.parse_term()
                self.expect("punct", ")")
                return self.node(T.Pair, inner, second)
            if self.at_punct(":"):
                self.pos += 1
                ty = self.parse_term()
                self.expect("punct", ")")
                return self.node(T.Ann, inner, ty)
            self.expect("punct", ")")
            return inner
        self.error(f"unexpected {kind} {text!r}", expected=["term"])


def _matching_parens(kinds: list[str], texts: list[str]) -> dict[int, int]:
    """Position of each ``(`` token -> position of the ``)`` that closes it."""
    closer: dict[int, int] = {}
    opens: list[int] = []
    for k, text in enumerate(texts):
        if text == "(" and kinds[k] == "punct":
            opens.append(k)
        elif text == ")" and kinds[k] == "punct" and opens:
            closer[opens.pop()] = k
    return closer


def parse_term(src: str, scope: Optional[list[str]] = None) -> Term:
    p = Parser(src)
    if scope:
        p.scope = list(scope)
    t = p.parse(p.parse_term)
    if p.kinds[p.pos] != "eof":
        p.error("trailing input after term")
    return t


def parse_file(
    src: str, filename: str = "<input>", nodes: Optional[dict] = None
) -> tuple[list[Declaration], list[str]]:
    """The declarations and imports of ``src``; a ``ParseError`` names
    ``filename``, as the declarations' locations do.  ``nodes`` is the node
    table of the load that reads ``src`` (``load_modules``), if any: a
    subterm built into it before, from another file, is that object."""
    p = Parser(src, filename, nodes)
    return p.parse(p.parse_file)


def parse_context(src: str) -> list[tuple[str, Term]]:
    """The ``name : TYPE`` items of ``src``, separated by commas, as (name,
    type) pairs, each type in the scope of the names before it.  A
    ``ParseError`` names ``<context>``, at its line and column in ``src``."""
    p = Parser(src, "<context>")
    return p.parse(p.parse_context)


class Module(Node):
    """One parsed file: its absolute path, its declarations, and the files
    it imports, in the order written, as paths joined to its directory.
    ``src`` is its text, read again only to locate an error; it takes no
    part in equality or ``repr``."""

    __slots__ = ("path", "decls", "imports", "src")
    __match_args__ = ("path", "decls", "imports")

    def __init__(self, path: str, decls: list[Declaration], imports: list[str], src: str):
        self._fill(path, decls, imports, src)

    def import_error(self, k: int, message: str) -> ParseError:
        """``message`` at the ``import`` item that names ``imports[k]``."""
        # ``import`` is reserved, so its tokens are the import items
        items = [t for t in tokenize(self.src) if t.kind == "keyword" and t.text == "import"]
        name = os.path.basename(self.path)
        return ParseError(message, items[k].line, items[k].col, filename=name)


# a byte that is not UTF-8, as the surrogateescape error handler reads it
_UNDECODED = re.compile("[\udc80-\udcff]")


def read_source(path: str) -> str:
    """The text of ``path``.  A byte that is not UTF-8 is a ``ParseError``
    at its line and column, naming the file."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        src = fh.read()
    bad = _UNDECODED.search(src)
    if bad is not None:
        k = bad.start()
        raise ParseError(
            f"byte 0x{ord(bad.group()) - 0xDC00:02x} is not UTF-8 text",
            src.count("\n", 0, k) + 1,
            k - src.rfind("\n", 0, k),
            filename=os.path.basename(path),
        )
    return src


def _parse_module(ap: str, nodes: dict) -> Module:
    src = read_source(ap)
    decls, imports = parse_file(src, os.path.basename(ap), nodes)
    return Module(ap, decls, [os.path.join(os.path.dirname(ap), imp) for imp in imports], src)


def load_modules(path: str, parsed: Optional[dict] = None) -> list[Module]:
    """``path`` and every file it imports, directly or not, each once.

    A module comes after the modules it imports, and imports are followed
    depth first in the order they are written; an import cycle is a
    ``ParseError`` at the ``import`` item that closes it.  Every reachable
    file is read and parsed before the result is returned, so a caller sees
    a file's errors before checking anything.  ``parsed`` maps an absolute
    path to its ``Module``, or to the ``ParseError`` or ``OSError`` that
    reading it raised; a caller that loads several files passes one dict to
    read and parse each file once.  Under the key None, ``parsed`` also
    holds the parser's node table, so that a subterm written in two files
    read into one dict is one object; it goes when the dict goes.
    """
    parsed = {} if parsed is None else parsed
    nodes = parsed.setdefault(None, {})
    order: list[Module] = []
    finished: dict[str, bool] = {}  # absolute path -> all of its imports loaded

    def visit(p: str):
        ap = os.path.abspath(p)
        if ap in finished:
            return
        finished[ap] = False
        module = parsed.get(ap)
        if module is None:
            try:
                module = _parse_module(ap, nodes)
            except (ParseError, OSError) as e:
                module = e
            parsed[ap] = module
        if not isinstance(module, Module):
            raise module
        for k, imp in enumerate(module.imports):
            if finished.get(os.path.abspath(imp)) is False:
                raise module.import_error(k, f"import cycle through {imp}")
            visit(imp)
        finished[ap] = True
        order.append(module)

    visit(path)
    return order


def load_file(path: str) -> list[Declaration]:
    """The declarations of ``path`` and of every file it imports, each file
    once, in the order of ``load_modules``, as one flat sequence.  The
    commands check a file module by module (``encodings.check_modules``)."""
    return [d for module in load_modules(path) for d in module.decls]


# --- pretty-printing ----------------------------------------------------------

# precedence levels: 0 = term (fun/let/arrows), 1 = star, 2 = application, 3 = atom

_KEYWORD_OF = {ctor: kw for kw, ctor in KEYWORD_FORMS.items()}

_ATOM_TEXT = {ctor: kw for kw, ctor in ATOM_KEYWORDS.items()} | {T.TypeSort: "Type"}


def pretty(t: Term) -> str:
    out: list[str] = []
    _emit(t, [], 0, 0, out, {})
    return "".join(out)


def _emit(t: Term, scope: list, named: int, prec: int, out: list, read: dict) -> None:
    """Append the text of ``t`` to ``out``.

    ``scope`` holds the names of the enclosing binders, innermost last, with
    None for the anonymous binder of a non-dependent ``->`` or ``*`` (its
    body never mentions it, so no variable resolves to it).  Named binders
    are called ``x0, x1, ...``; ``named`` counts them.  ``read`` maps a
    binder node's identity to whether its body reads its variable
    (``_binders_read``), filled in where the printer first meets a ``Pi`` or
    ``Sigma``, so that printing stays linear in the size of the term.
    """
    cls = type(t)
    if cls is T.Var:
        i = t.index
        out.append(scope[-1 - i] if i < len(scope) else f"?{i - len(scope)}")
        return
    if cls is T.Const:
        out.append(t.name)
        return
    text = _ATOM_TEXT.get(cls)
    if text is not None:
        out.append(text)
        return
    if cls is T.App:
        if prec > 2:
            out.append("(")
        _emit(t.fn, scope, named, 2, out, read)
        out.append(" ")
        _emit(t.arg, scope, named, 3, out, read)
        if prec > 2:
            out.append(")")
        return
    if cls is T.Lam or cls is T.Let:
        name = f"x{named}"
        if prec > 0:
            out.append("(")
        if cls is T.Lam:
            out.append(f"fun {name} => ")
        else:
            out.append(f"let {name} : ")
            _emit(t.type, scope, named, 0, out, read)
            out.append(" := ")
            _emit(t.value, scope, named, 0, out, read)
            out.append(" in ")
        scope.append(name)
        _emit(t.body, scope, named + 1, 0, out, read)
        scope.pop()
        if prec > 0:
            out.append(")")
        return
    if cls is T.Pi or cls is T.Sigma:
        # Pi sits at level 0 and Sigma at level 1; each body is printed at
        # its own level, a non-dependent left side one level tighter
        if cls is T.Pi:
            level, op, head, body = 0, " -> ", t.dom, t.cod
        else:
            level, op, head, body = 1, " * ", t.fst, t.snd
        if prec > level:
            out.append("(")
        # the right side of a product is followed by ``->`` when the product
        # is the left side of a non-dependent arrow
        emit_body = _emit_operand if cls is T.Sigma else _emit
        if id(t) not in read:
            _binders_read(t, [], read)
        if read[id(t)]:
            name = f"x{named}"
            out.append(f"({name} : ")
            _emit(head, scope, named, 0, out, read)
            out.append(")" + op)
            scope.append(name)
            emit_body(body, scope, named + 1, level, out, read)
        else:
            _emit_operand(head, scope, named, level + 1, out, read)
            out.append(op)
            scope.append(None)
            emit_body(body, scope, named, level, out, read)
        scope.pop()
        if prec > level:
            out.append(")")
        return
    if cls is T.Pair or cls is T.Ann:
        first, sep, second = (t.fst, " , ", t.snd) if cls is T.Pair else (t.term, " : ", t.type)
        out.append("( ")
        _emit(first, scope, named, 0, out, read)
        out.append(sep)
        _emit(second, scope, named, 0, out, read)
        out.append(" )")
        return
    # fixed-arity keyword forms
    kw = _KEYWORD_OF.get(cls)
    if kw is None:
        raise ValueError(f"pretty: unhandled term {cls.__name__}")
    if prec > 2:
        out.append("(")
    out.append(kw)
    for name, _binds in T.CHILDREN[cls]:
        out.append(" ")
        _emit(getattr(t, name), scope, named, 3, out, read)
    if prec > 2:
        out.append(")")


def _emit_operand(t: Term, scope: list, named: int, prec: int, out: list, read: dict) -> None:
    """An operand that ``->`` or ``*`` may follow: an annotation gets a
    second pair of parentheses, since ``( x : T ) ->`` is a binder."""
    if type(t) is T.Ann:
        out.append("(")
        _emit(t, scope, named, prec, out, read)
        out.append(")")
    else:
        _emit(t, scope, named, prec, out, read)


def _binders_read(t: Term, used: list, read: dict) -> None:
    """Record in ``read``, for every binder node within ``t``, ``t`` included,
    whether its body reads its variable.  ``used`` has one flag per binder
    around ``t`` within the walk, innermost last; a variable sets its
    binder's, and one bound outside the walk sets none."""
    cls = type(t)
    if cls is T.Var:
        if t.index < len(used):
            used[-1 - t.index] = True
        return
    for name, binds in T.CHILDREN[cls]:
        if binds:
            used.append(False)
            _binders_read(getattr(t, name), used, read)
            read[id(t)] = used.pop()
        else:
            _binders_read(getattr(t, name), used, read)


def pretty_declaration(d: Declaration) -> str:
    if d.body is None:
        return f"postulate {d.name} : {pretty(d.type)}"
    return f"def {d.name} : {pretty(d.type)} := {pretty(d.body)}"
