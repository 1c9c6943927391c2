"""Reading and writing rewrite systems and matrix interpretations.

Rewrite systems use the classic sectioned format

    (VAR x y)
    (RULES
      add @ x @ 0 -> x
      add @ x @ (s @ y) -> s @ (add @ x @ y)
    )

Juxtaposition is not application: application is written with the infix
`@` (left-associative) and desugars to the binary symbol `terms.APP`, or
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
from typing import NamedTuple

from .terms import APP, Fun, Rule, Symbol, Term, Trs, Var, variables
from .tmi import MatrixInterp, Matrix, MissingSymbolError, SymbolInterp, Vector


class ParseError(ValueError):
    """A syntax or consistency error, located by line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_IDENT = r"[A-Za-z0-9_#'.!?*+=<>^~&]+"


def _scanner(punct: str) -> re.Pattern[str]:
    """Skips whitespace, then matches one of: a punctuation character (group
    1), `->` (2), an identifier (3) or any other character (4, an error),
    tried in that order."""
    return re.compile(rf"\s*(?:([{re.escape(punct)}])|(->)|({_IDENT})|(\S))")


_TRS_SCANNER = _scanner("(),@")
_TMI_SCANNER = _scanner("/:[];,+")


def _tokenize(text: str, scanner: re.Pattern[str]) -> list[Token]:
    """Tokens line by line; a column counts characters since the last `\n`."""
    out: list[Token] = []
    lines = text.split("\n")
    for line, source in enumerate(lines, 1):
        for m in scanner.finditer(source):
            group = m.lastindex
            word = m[group]
            if group == 4:
                raise ParseError(f"unexpected character {word!r}", line, m.start(4) + 1)
            kind = "ident" if group == 3 else word
            out.append(Token(kind, word, line, m.start(group) + 1))
    out.append(Token("eof", "end of input", len(lines), len(lines[-1]) + 1))
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


class _TrsParser:
    def __init__(
        self,
        text: str,
        declared_vars: frozenset[str] | set[str] = frozenset(),
        arities: dict[str, int] | None = None,
    ):
        self.toks = _Tokens(_tokenize(text, _TRS_SCANNER))
        self.vars = set(declared_vars)
        self.arities = dict(arities or {})
        self.rules: list[Rule] = []
        self.saw_app = False
        self.rules_seen = False

    def symbol(self, name: str, arity: int, tok: Token) -> Symbol:
        old = self.arities.get(name)
        if old is not None and old != arity:
            raise ParseError(
                f"arity mismatch for {name}: {arity} arguments here,"
                f" {old} elsewhere",
                tok.line,
                tok.col,
            )
        self.arities[name] = arity
        return Symbol(name, arity)

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
                return Fun(self.symbol(tok.text, len(args), tok), tuple(args))
            if tok.text in self.vars:
                return Var(tok.text)
            return Fun(self.symbol(tok.text, 0, tok))
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)

    def term(self) -> Term:
        t = self.primary()
        while self.toks.peek().kind == "@":
            at = self.toks.take()
            self.saw_app = True
            t = Fun(self.symbol(APP.name, 2, at), (t, self.primary()))
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
            APP.name if self.saw_app else None,
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


def format_term(t: Term) -> str:
    """Render a term in the input syntax, with APP as infix `@`."""
    if isinstance(t, Var):
        return t.name
    if t.symbol is APP:
        left, right = t.args
        text = format_term(right)
        if isinstance(right, Fun) and right.symbol is APP:
            text = f"({text})"
        return f"{format_term(left)} @ {text}"
    if not t.args:
        return t.symbol.name
    return f"{t.symbol.name}({', '.join(map(format_term, t.args))})"


def format_rule(rule: Rule) -> str:
    return f"{format_term(rule.lhs)} -> {format_term(rule.rhs)}"


def format_trs(trs: Trs) -> str:
    """Render a system as a parseable sectioned file that declares the
    variables of its left-hand sides, which Rule makes all its variables."""
    names = sorted({name for rule in trs.rules for name in variables(rule.lhs)})
    lines = [" ".join(["(VAR", *names]) + ")", "(RULES"]
    lines += [f"  {format_rule(rule)}" for rule in trs.rules]
    return "\n".join(lines) + "\n)\n"


def _number(toks: _Tokens) -> int:
    tok = toks.expect("ident")
    if not tok.text.isdigit():
        raise ParseError(f"expected a number, found {tok.text!r}", tok.line, tok.col)
    return int(tok.text)


def _row(toks: _Tokens) -> tuple[int, ...]:
    row = []
    while toks.peek().kind == "ident":
        row.append(_number(toks))
    return tuple(row)


def _bracket(toks: _Tokens, what: str, dim: int | None) -> tuple[tuple, int]:
    """Read a "matrix" `[ row ; row ; ... ]` or a "vector" `[ n ; n ; ... ]`.
    The first bracket of a file fixes the dimension; the item count and a
    matrix's row lengths must equal it.  Returns the items and the dimension."""
    item = _row if what == "matrix" else _number
    open_tok = toks.expect("[")
    items = [item(toks)]
    while toks.peek().kind == ";":
        toks.take()
        items.append(item(toks))
    toks.expect("]")
    dim = dim or len(items)
    counts = [(what, len(items))]
    if what == "matrix":
        counts += [("matrix row", len(row)) for row in items]
    for part, n in counts:
        if n != dim:
            raise ParseError(
                f"dimension mismatch: {part} has {n} entries, expected {dim}",
                open_tok.line,
                open_tok.col,
            )
    return tuple(items), dim


def parse_tmi(text: str, signature=None) -> MatrixInterp:
    """Parse a matrix interpretation; with a signature, require it covered."""
    toks = _Tokens(_tokenize(text, _TMI_SCANNER))
    entries: dict[Symbol, SymbolInterp] = {}
    dim: int | None = None
    while toks.peek().kind != "eof":
        name = toks.expect("ident")
        toks.expect("/")
        arity = _number(toks)
        toks.expect(":")
        toks.expect("[")
        matrices: list[Matrix] = []
        if toks.peek().kind == "[":
            while True:
                matrix, dim = _bracket(toks, "matrix", dim)
                matrices.append(matrix)
                if toks.peek().kind != ",":
                    break
                toks.take()
        toks.expect("]")
        toks.expect("+")
        vector, dim = _bracket(toks, "vector", dim)
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
    if dim is None:
        raise ParseError("no interpretation blocks", 1, 1)
    if signature is not None:
        for sym in sorted(set(signature)):
            if sym not in entries:
                raise MissingSymbolError(
                    f"no interpretation for {sym.name}/{sym.arity}"
                )
    return MatrixInterp(dim, entries)


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
