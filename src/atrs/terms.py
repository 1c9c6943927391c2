"""First-order terms, rules, and term rewrite systems.

Terms, symbols and systems are immutable and interned: constructing the same
variable, the same symbol (name and arity), the same application of a symbol
to the same arguments, or a system with the same rules and signature always
yields the same object, so hash and equality are identity.  Memo tables over
terms therefore cost amortized O(1) per distinct term, which the
derivation-height and complexity machinery relies on, and equal systems (one
file parsed twice) share their step tables and rule index.  Unpickling and
deepcopy rebuild each object through its constructor (see __reduce__), so
they return the interned object too.  Rules are not interned; their value
hash runs only when a system is built.

A Trs indexes its rules in a trie over each lhs's leftmost path (the root,
the root of its first argument, ... down to a variable or constant), and
Trs.candidates(t) returns the rules that may match t, in rule order.  That
is an index by root symbol, or by spine head and spine length for an ATRS.
"""

from __future__ import annotations

from collections import Counter
from functools import total_ordering
from typing import Iterable, Iterator, Mapping, Union


@total_ordering
class Symbol:
    """A function symbol with a fixed arity, interned like terms and ordered
    by (name, arity)."""

    __slots__ = ("name", "arity")
    _intern: dict = {}

    def __new__(cls, name: str, arity: int) -> "Symbol":
        s = cls._intern.get((name, arity))
        if s is None:
            s = object.__new__(cls)
            s.name = name
            s.arity = arity
            cls._intern[name, arity] = s
        return s

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return (self.name, self.arity) < (other.name, other.arity)

    def __repr__(self) -> str:
        return f"{self.name}/{self.arity}"

    def __reduce__(self):
        return (Symbol, (self.name, self.arity))


class Var:
    """A variable, identified by name."""

    __slots__ = ("name",)
    _intern: dict = {}

    def __new__(cls, name: str) -> "Var":
        t = cls._intern.get(name)
        if t is None:
            if not name:
                raise ValueError("variable name must be non-empty")
            t = object.__new__(cls)
            t.name = name
            cls._intern[name] = t
        return t

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __reduce__(self):
        return (Var, (self.name,))


class Fun:
    """A function symbol applied to exactly symbol.arity argument terms."""

    __slots__ = ("symbol", "args")
    _intern: dict = {}

    def __new__(cls, symbol: Symbol, args: Iterable["Term"] = ()) -> "Fun":
        args = tuple(args)
        key = (symbol, args)
        t = cls._intern.get(key)
        if t is None:
            if len(args) != symbol.arity:
                raise ValueError(
                    f"symbol {symbol} applied to {len(args)} arguments"
                )
            t = object.__new__(cls)
            t.symbol = symbol
            t.args = args
            cls._intern[key] = t
        return t

    def __repr__(self) -> str:
        if not self.args:
            return f"Fun({self.symbol.name})"
        return f"Fun({self.symbol.name}, {', '.join(map(repr, self.args))})"

    def __reduce__(self):
        return (Fun, (self.symbol, self.args))


Term = Union[Var, Fun]

#: The application symbol of an ATRS: the input's infix ``@`` desugars to it,
#: format_term prints it infix, and detect_atrs takes it by default.
APP = Symbol("app", 2)

#: A position is a path of 1-based argument indices; () is the root.
Position = tuple[int, ...]

#: A substitution maps variable names to terms; unbound names map to themselves.
Substitution = Mapping[str, Term]

#: Canonical variable names, used for enumeration and renaming-invariant equality.
CANONICAL_VAR_NAMES = ("x", "y", "z", "w")


def canonical_var_name(i: int) -> str:
    if i < len(CANONICAL_VAR_NAMES):
        return CANONICAL_VAR_NAMES[i]
    return f"v{i}"


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of t in preorder, the term itself first."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Fun):
            stack.extend(reversed(s.args))


def variables(t: Term) -> tuple[str, ...]:
    """Variable names of t in order of first occurrence (left to right)."""
    return tuple(dict.fromkeys(s.name for s in subterms(t) if isinstance(s, Var)))


def variable_counts(t: Term) -> Counter[str]:
    return Counter(s.name for s in subterms(t) if isinstance(s, Var))


def substitute(t: Term, sigma: Substitution) -> Term:
    if isinstance(t, Var):
        return sigma.get(t.name, t)
    if not sigma:
        return t
    return Fun(t.symbol, tuple(substitute(a, sigma) for a in t.args))


def match(pattern: Term, subject: Term) -> dict[str, Term] | None:
    """The unique substitution sigma with substitute(pattern, sigma) == subject,
    or None if there is none."""
    binding: dict[str, Term] = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            bound = binding.get(p.name)
            if bound is None:
                binding[p.name] = s
            elif bound != s:
                return None
        else:
            if not isinstance(s, Fun) or s.symbol != p.symbol:
                return None
            stack.extend(zip(p.args, s.args))
    return binding


def rename(t: Term, mapping: Mapping[str, str]) -> Term:
    if isinstance(t, Var):
        new = mapping.get(t.name)
        return Var(new) if new is not None else t
    return Fun(t.symbol, tuple(rename(a, mapping) for a in t.args))


def term_sort_key(t: Term):
    """Deterministic total order: variables before function symbols, then
    lexicographic on (name, arity, argument keys).

    The key lists one label per subterm in preorder, (0, name) or
    (1, name, arity); arities make it prefix-free, so it orders like the
    nested key while comparing in time linear in term size.
    """
    return tuple(
        (1, s.symbol.name, s.symbol.arity) if isinstance(s, Fun) else (0, s.name)
        for s in subterms(t)
    )


class Rule:
    """A rewrite rule lhs -> rhs.

    The left-hand side must not be a variable and every variable of the
    right-hand side must occur in the left-hand side.
    """

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        if isinstance(lhs, Var):
            raise ValueError("rule left-hand side must not be a variable")
        missing = set(variables(rhs)) - set(variables(lhs))
        if missing:
            raise ValueError(
                f"rule right-hand side has unbound variables: {sorted(missing)}"
            )
        self.lhs = lhs
        self.rhs = rhs

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rule) and other.lhs == self.lhs and other.rhs == self.rhs
        )

    def __hash__(self) -> int:
        return hash(("rule", self.lhs, self.rhs))

    def __repr__(self) -> str:
        return f"Rule({self.lhs!r}, {self.rhs!r})"


def canonical_rule(rule: Rule) -> Rule:
    """The rule with variables renamed canonically, left side first."""
    names = variables(rule.lhs)
    mapping = {n: canonical_var_name(i) for i, n in enumerate(names)}
    return Rule(rename(rule.lhs, mapping), rename(rule.rhs, mapping))


def term_symbols(t: Term) -> set[Symbol]:
    return {s.symbol for s in subterms(t) if isinstance(s, Fun)}


class Trs:
    """A term rewrite system: an ordered list of rules over a signature.

    The signature always contains every symbol used in the rules and may
    declare further symbols.  A name may appear at several arities; symbols
    are identified by (name, arity).
    """

    __slots__ = ("rules", "signature", "_index")
    _intern: dict = {}

    def __new__(cls, rules: Iterable[Rule], extra_signature: Iterable[Symbol] = ()):
        rules = tuple(rules)
        used: set[Symbol] = set(extra_signature)
        for r in rules:
            used |= term_symbols(r.lhs)
            used |= term_symbols(r.rhs)
        key = (rules, frozenset(used))
        trs = cls._intern.get(key)
        if trs is None:
            trs = object.__new__(cls)
            trs.rules, trs.signature = key
            trs._index = None
            cls._intern[key] = trs
        return trs

    def candidates(self, t: Term) -> tuple[tuple[int, Rule], ...]:
        """(index, rule) pairs, in rule order, of every rule whose left-hand
        side could match t; the others certainly do not.  The index is
        built at the first call, so systems never rewritten cost nothing."""
        node, out = self._index, ()
        if node is None:
            node = self._index = _rule_index(self.rules)
        while isinstance(t, Fun) and (entry := node.get(t.symbol)):
            out, node = entry
            t = t.args[0] if t.args else None
        return out

    def __reduce__(self):
        return (Trs, (self.rules, self.signature))

    def __repr__(self) -> str:
        return f"Trs({len(self.rules)} rules, {len(self.signature)} symbols)"


def _leftmost_path(t: Term) -> Iterator[Symbol]:
    """Root symbols down the first arguments, to the first variable or constant."""
    while isinstance(t, Fun):
        yield t.symbol
        t = t.args[0] if t.args else None


def _rule_index(rules: tuple[Rule, ...]) -> dict:
    """The trie behind Trs.candidates, symbol -> (candidates, children).  A
    node lists every rule whose lhs's leftmost path is a prefix of its own."""
    paths = [tuple(_leftmost_path(r.lhs)) for r in rules]
    root: dict = {}
    for path in paths:
        node = root
        for k, f in enumerate(path, 1):
            if f not in node:
                found = [(i, r) for i, (r, p) in enumerate(zip(rules, paths))
                         if len(p) <= k and path[: len(p)] == p]
                node[f] = (tuple(found), {})
            node = node[f][1]
    return root


def is_left_linear(trs: Trs) -> bool:
    """True iff no variable occurs twice in any left-hand side."""
    return all(n == 1 for r in trs.rules for n in variable_counts(r.lhs).values())

