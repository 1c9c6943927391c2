"""Reading and writing rewrite systems and matrix interpretations.

Rewrite systems use the classic sectioned format

    (VAR x y)
    (RULES
      add @ x @ 0 -> x
      add @ x @ (s @ y) -> s @ (add @ x @ y)
    )

Juxtaposition is not application: application is written with the infix
`@` (left-associative) and desugars to a binary symbol named `app`, or
with any ordinary binary symbol.  Identifiers not declared in (VAR ...)
are function symbols; bare ones become constants, with a warning.

Interpretations use one block per symbol,

    add#2/2 : [ [1 1; 0 1], [1 1; 0 1] ] + [0; 0]

with matrix rows separated by `;` and entries by spaces; `+` introduces
the constant vector.  Nullary symbols have an empty matrix list `[]`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .terms import Fun, Rule, Symbol, Term, Trs, Var, variables
from .tmi import MatrixInterp, Matrix, MissingSymbolError, SymbolInterp, Vector


class ParseError(ValueError):
    """A syntax or consistency error, located by line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_IDENT = re.compile(r"[A-Za-z0-9_#'.!?*+=<>^~&]+")


def _tokenize(text: str, punct: str) -> list[Token]:
    out: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c in punct:
            out.append(Token(c, c, line, col))
            col += 1
            i += 1
            continue
        if text.startswith("->", i):
            out.append(Token("->", "->", line, col))
            col += 2
            i += 2
            continue
        m = _IDENT.match(text, i)
        if m:
            word = m.group()
            out.append(Token("ident", word, line, col))
            col += len(word)
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    out.append(Token("eof", "end of input", line, col))
    return out


class _Tokens:
    def __init__(self, tokens: list[Token]):
        self._toks = tokens
        self._i = 0

    def peek(self) -> Token:
        return self._toks[self._i]

    def take(self) -> Token:
        t = self._toks[self._i]
        self._i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.take()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        return t


@dataclass(frozen=True)
class InputProblem:
    """A parsed rewrite system plus what the file actually declared."""

    trs: Trs
    declared_vars: frozenset[str]
    app_hint: str | None = None
    origin: str | None = None
    warnings: tuple[str, ...] = ()


APP_NAME = "app"


class _TrsParser:
    def __init__(
        self,
        text: str,
        declared_vars: frozenset[str] | set[str] = frozenset(),
        arities: dict[str, int] | None = None,
    ):
        self.toks = _Tokens(_tokenize(text, "(),@"))
        self.vars = set(declared_vars)
        self.arities = dict(arities or {})
        self.rules: list[Rule] = []
        self.saw_app = False
        self.rules_seen = False

    def symbol(self, tok: Token, arity: int) -> Symbol:
        old = self.arities.get(tok.text)
        if old is not None and old != arity:
            raise ParseError(
                f"arity mismatch for {tok.text}: {arity} arguments here,"
                f" {old} elsewhere",
                tok.line,
                tok.col,
            )
        self.arities[tok.text] = arity
        return Symbol(tok.text, arity)

    def primary(self) -> Term:
        tok = self.toks.peek()
        if tok.kind == "(":
            self.toks.take()
            t = self.term()
            self.toks.expect(")")
            return t
        if tok.kind == "ident":
            self.toks.take()
            if self.toks.peek().kind == "(":
                if tok.text in self.vars:
                    raise ParseError(
                        f"variable {tok.text} used with arguments", tok.line, tok.col
                    )
                self.toks.take()
                args = [self.term()]
                while self.toks.peek().kind == ",":
                    self.toks.take()
                    args.append(self.term())
                self.toks.expect(")")
                return Fun(self.symbol(tok, len(args)), tuple(args))
            if tok.text in self.vars:
                return Var(tok.text)
            return Fun(self.symbol(tok, 0))
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)

    def term(self) -> Term:
        t = self.primary()
        while self.toks.peek().kind == "@":
            at = self.toks.take()
            self.saw_app = True
            app = self.symbol(Token("ident", APP_NAME, at.line, at.col), 2)
            t = Fun(app, (t, self.primary()))
        return t

    def rule(self) -> Rule:
        start = self.toks.peek()
        lhs = self.term()
        self.toks.expect("->")
        rhs = self.term()
        try:
            return Rule(lhs, rhs)
        except ValueError as e:
            raise ParseError(str(e), start.line, start.col) from None

    def section(self) -> None:
        self.toks.expect("(")
        name = self.toks.expect("ident")
        if name.text == "VAR":
            if self.rules_seen:
                raise ParseError("VAR section after RULES", name.line, name.col)
            while self.toks.peek().kind == "ident":
                self.vars.add(self.toks.take().text)
            self.toks.expect(")")
        elif name.text == "RULES":
            self.rules_seen = True
            while self.toks.peek().kind != ")":
                self.rules.append(self.rule())
            self.toks.expect(")")
        elif name.text == "COMMENT":
            depth = 1
            while depth:
                t = self.toks.take()
                if t.kind == "eof":
                    raise ParseError("unterminated COMMENT", name.line, name.col)
                depth += {"(": 1, ")": -1}.get(t.kind, 0)
        else:
            raise ParseError(f"unknown section {name.text}", name.line, name.col)

    def problem(self, origin: str | None) -> InputProblem:
        while self.toks.peek().kind != "eof":
            self.section()
        bare = sorted(
            name
            for name, arity in self.arities.items()
            if arity == 0 and name not in self.vars
        )
        warnings = ()
        if bare:
            warnings = (
                "identifiers not declared as variables, treated as constants: "
                + ", ".join(bare),
            )
        return InputProblem(
            Trs(self.rules),
            frozenset(self.vars),
            APP_NAME if self.saw_app else None,
            origin,
            warnings,
        )


def parse_trs(text: str, origin: str | None = None) -> InputProblem:
    """Parse a sectioned rewrite system file."""
    return _TrsParser(text).problem(origin)


def parse_term(
    text: str,
    declared_vars: frozenset[str] | set[str] = frozenset(),
    arities: dict[str, int] | None = None,
) -> Term:
    """Parse a single term, typically against an already-parsed system.

    Seeding arities makes uses inconsistent with the system a parse error;
    fresh identifiers become constants.
    """
    p = _TrsParser(text, declared_vars, arities)
    t = p.term()
    p.toks.expect("eof")
    return t


def _is_app(t: Term) -> bool:
    return isinstance(t, Fun) and t.symbol.name == APP_NAME and t.symbol.arity == 2


def format_term(t: Term, infix_app: bool = True) -> str:
    """Render a term in the input syntax; `app` prints as infix `@` unless
    disabled."""
    if isinstance(t, Var):
        return t.name
    if infix_app and _is_app(t):
        left = format_term(t.args[0], infix_app)
        right = format_term(t.args[1], infix_app)
        if _is_app(t.args[1]):
            right = f"({right})"
        return f"{left} @ {right}"
    if not t.args:
        return t.symbol.name
    args = ", ".join(format_term(a, infix_app) for a in t.args)
    return f"{t.symbol.name}({args})"


def format_rule(rule: Rule, infix_app: bool = True) -> str:
    lhs = format_term(rule.lhs, infix_app)
    rhs = format_term(rule.rhs, infix_app)
    return f"{lhs} -> {rhs}"


def format_trs(
    trs: Trs,
    declared_vars: frozenset[str] | set[str] | None = None,
    infix_app: bool = True,
) -> str:
    """Render a system as a parseable sectioned file."""
    if declared_vars is None:
        names: dict[str, None] = {}
        for rule in trs.rules:
            for name in variables(rule.lhs) + variables(rule.rhs):
                names[name] = None
        declared_vars = set(names)
    lines = [f"(VAR {' '.join(sorted(declared_vars))})".replace("(VAR )", "(VAR)")]
    lines.append("(RULES")
    for rule in trs.rules:
        lines.append(f"  {format_rule(rule, infix_app)}")
    lines.append(")")
    return "\n".join(lines) + "\n"


def format_problem(problem: InputProblem) -> str:
    return format_trs(
        problem.trs, problem.declared_vars, infix_app=problem.app_hint == APP_NAME
    )


def _int_token(toks: _Tokens) -> tuple[int, Token]:
    tok = toks.expect("ident")
    if not tok.text.isdigit():
        raise ParseError(f"expected a number, found {tok.text!r}", tok.line, tok.col)
    return int(tok.text), tok


class _Dim:
    """Tracks the inferred dimension and rejects later disagreements."""

    def __init__(self) -> None:
        self.value: int | None = None

    def check(self, n: int, tok: Token, what: str) -> None:
        if self.value is None:
            self.value = n
        elif self.value != n:
            raise ParseError(
                f"dimension mismatch: {what} has {n} entries, expected {self.value}",
                tok.line,
                tok.col,
            )


def _parse_row(toks: _Tokens) -> list[int]:
    row = []
    while toks.peek().kind == "ident":
        row.append(_int_token(toks)[0])
    return row


def _parse_matrix(toks: _Tokens, dim: _Dim) -> Matrix:
    open_tok = toks.expect("[")
    rows = [_parse_row(toks)]
    while toks.peek().kind == ";":
        toks.take()
        rows.append(_parse_row(toks))
    toks.expect("]")
    dim.check(len(rows), open_tok, "matrix")
    for row in rows:
        dim.check(len(row), open_tok, "matrix row")
    return tuple(tuple(row) for row in rows)


def _parse_vector(toks: _Tokens, dim: _Dim) -> Vector:
    open_tok = toks.expect("[")
    comps = [_int_token(toks)[0]]
    while toks.peek().kind == ";":
        toks.take()
        comps.append(_int_token(toks)[0])
    toks.expect("]")
    dim.check(len(comps), open_tok, "vector")
    return tuple(comps)


def parse_tmi(text: str, signature=None) -> MatrixInterp:
    """Parse a matrix interpretation; with a signature, require it covered."""
    toks = _Tokens(_tokenize(text, "/:[];,+"))
    entries: dict[Symbol, SymbolInterp] = {}
    dim = _Dim()
    while toks.peek().kind != "eof":
        name = toks.expect("ident")
        toks.expect("/")
        arity, _ = _int_token(toks)
        toks.expect(":")
        toks.expect("[")
        matrices: list[Matrix] = []
        if toks.peek().kind == "[":
            matrices.append(_parse_matrix(toks, dim))
            while toks.peek().kind == ",":
                toks.take()
                matrices.append(_parse_matrix(toks, dim))
        toks.expect("]")
        toks.expect("+")
        vector = _parse_vector(toks, dim)
        if len(matrices) != arity:
            raise ParseError(
                f"{name.text}/{arity} has {len(matrices)} matrices",
                name.line,
                name.col,
            )
        sym = Symbol(name.text, arity)
        if sym in entries:
            raise ParseError(
                f"duplicate interpretation for {name.text}/{arity}",
                name.line,
                name.col,
            )
        entries[sym] = (tuple(matrices), vector)
    if dim.value is None:
        raise ParseError("no interpretation blocks", 1, 1)
    if signature is not None:
        for sym in sorted(set(signature)):
            if sym not in entries:
                raise MissingSymbolError(
                    f"no interpretation for {sym.name}/{sym.arity}"
                )
    return MatrixInterp(dim.value, entries)


def format_tmi(interp: MatrixInterp) -> str:
    """Render an interpretation in the block format, one symbol per line."""
    lines = []
    for sym in sorted(interp.entries):
        mats, vec = interp.entries[sym]
        if mats:
            body = "[ " + ", ".join(_format_matrix(m) for m in mats) + " ]"
        else:
            body = "[]"
        lines.append(f"{sym.name}/{sym.arity} : {body} + {_format_vector(vec)}")
    return "\n".join(lines) + "\n"


def _format_matrix(m: Matrix) -> str:
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in m) + "]"


def _format_vector(v: Vector) -> str:
    return "[" + "; ".join(str(x) for x in v) + "]"
