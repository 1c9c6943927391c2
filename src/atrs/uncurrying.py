"""Uncurrying applicative term rewrite systems.

An applicative TRS (ATRS) has a signature of constants plus one binary
application symbol.  Uncurrying replaces application spines f @ t1 @ ... @ tk
by applications of fresh k-ary symbols f#k, after eta-saturating the rules so
that no partially applied left-hand side is lost.  The transformed system is
the uncurried eta-saturation together with the uncurrying rules themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import (
    APP,
    Fun,
    Rule,
    Symbol,
    Term,
    Trs,
    Var,
    canonical_rule,
    subterms,
    variables,
)

class TransformError(ValueError):
    """Base class for errors while analysing or transforming an ATRS."""


class NotApplicativeError(TransformError):
    """The signature is not constants plus one binary application symbol."""


class NotLeftHeadVariableFreeError(TransformError):
    """Some left-hand side applies a variable, so applicative arities are
    undefined and the transformation does not apply."""


class SymbolClashError(TransformError):
    """A fresh family symbol name like f#1 is already taken."""


@dataclass
class AtrsContext:
    """Everything fixed by detecting an ATRS: the application symbol, the
    constants, their applicative arities, and the fresh symbol family.

    aa names the constants in constant order: by first occurrence in the
    rules, then the rest by name.  The family member f_i is f itself for
    i = 0 and a fresh symbol named ``f#i`` of arity i for 1 <= i <= aa(f).
    Both constants, their symbols, and up, which maps each f_i with
    i < aa(f) to f_{i+1} in constant order and then by i, come from aa.
    """

    app: Symbol
    aa: dict[str, int]
    constants: frozenset[Symbol] = field(init=False, repr=False, compare=False)
    up: dict[Symbol, Symbol] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.constants = frozenset(Symbol(name, 0) for name in self.aa)
        self.up = {}
        for name, k in self.aa.items():
            members = [self.family(name, i) for i in range(k + 1)]
            self.up.update(zip(members, members[1:]))

    @staticmethod
    def family(base: str, i: int) -> Symbol:
        """The i-th family member of the constant named base."""
        if i == 0:
            return Symbol(base, 0)
        return Symbol(f"{base}#{i}", i)


def spine(app: Symbol, t: Term) -> tuple[Term, tuple[Term, ...]]:
    """Decompose t = head @ u1 @ ... @ un with a non-application head."""
    args: list[Term] = []
    while isinstance(t, Fun) and t.symbol == app:
        args.append(t.args[1])
        t = t.args[0]
    args.reverse()
    return t, tuple(args)


def detect_atrs(trs: Trs, app_hint: str | None = None) -> AtrsContext:
    """Recognise trs as an ATRS and compute applicative arities.

    The signature must consist of nullary symbols plus at most one binary
    symbol, which is the application symbol.  A constants-only system has
    APP as its application symbol, or a binary symbol named app_hint; a
    hint naming no binary symbol of a system that has one is rejected.
    """
    binaries = sorted(s for s in trs.signature if s.arity == 2)
    bad = sorted(s for s in trs.signature if s.arity not in (0, 2))
    if bad:
        raise NotApplicativeError(
            f"non-nullary, non-application symbols in signature: {bad}"
        )
    if len(binaries) > 1:
        raise NotApplicativeError(
            f"several binary symbols, but an ATRS has one application: {binaries}"
        )
    if not binaries:
        app = APP if app_hint is None else Symbol(app_hint, 2)
    elif app_hint in (None, binaries[0].name):
        app = binaries[0]
    else:
        raise NotApplicativeError(
            f"hinted application symbol {app_hint!r} not in signature"
        )

    constants = frozenset(s for s in trs.signature if s.arity == 0)
    aa: dict[str, int] = {}
    for rule in trs.rules:
        for side in (rule.lhs, rule.rhs):
            for s in subterms(side):
                head, args = spine(app, s)
                if isinstance(head, Fun) and head.symbol in constants:
                    name = head.symbol.name
                    aa[name] = max(aa.get(name, 0), len(args))
    for name in sorted(c.name for c in constants):
        aa.setdefault(name, 0)

    ctx = AtrsContext(app, aa)
    taken = {s.name for s in trs.signature}
    clashes = [s.name for s in ctx.up.values() if s.name in taken]
    if clashes:
        raise SymbolClashError(f"fresh symbol name {clashes[0]} already in signature")
    return ctx


def applicative_arity_of_term(ctx: AtrsContext, t: Term) -> int | None:
    """aa(t), or None when the head is a variable or the arity runs out."""
    head, args = spine(ctx.app, t)
    if not isinstance(head, Fun) or head.symbol not in ctx.constants:
        return None
    k = ctx.aa.get(head.symbol.name, 0) - len(args)
    return k if k >= 0 else None


def is_left_head_variable_free(ctx: AtrsContext, trs: Trs) -> bool:
    """True iff no left-hand side of trs applies a variable."""
    return not any(
        isinstance(s, Fun) and s.symbol == ctx.app and isinstance(s.args[0], Var)
        for r in trs.rules
        for s in subterms(r.lhs)
    )


def uncurrying_system(ctx: AtrsContext) -> Trs:
    """The rules f_i(x1..xi) @ y -> f_{i+1}(x1..xi, y) for aa(f) > i >= 0,
    one per entry of ctx.up and in its order.

    Confluent and terminating; every term has a unique normal form.
    """
    rules = []
    y = Var("y")
    for lower, upper in ctx.up.items():
        xs = tuple(Var(f"x{j + 1}") for j in range(lower.arity))
        lhs = Fun(ctx.app, (Fun(lower, xs), y))
        rules.append(Rule(lhs, Fun(upper, xs + (y,))))
    return Trs(rules, extra_signature=ctx.constants | {ctx.app})


def uncurry_nf(ctx: AtrsContext, t: Term) -> Term:
    """The unique normal form of t under the uncurrying rules, computed by a
    bottom-up fold collapsing application spines."""
    if isinstance(t, Var):
        return t
    args = tuple(uncurry_nf(ctx, a) for a in t.args)
    if t.symbol == ctx.app:
        left, right = args
        upper = ctx.up.get(left.symbol) if isinstance(left, Fun) else None
        if upper is not None:
            return Fun(upper, left.args + (right,))
    return Fun(t.symbol, args)


def eta_saturate(ctx: AtrsContext, trs: Trs) -> Trs:
    """The least extension of trs closed under adding l @ x -> r @ x for every
    rule l -> r whose left-hand side still has positive applicative arity.

    Fresh variables are drawn as _eta0, _eta1, ... skipping names present in
    the rule.  Applicative arities are the ones fixed by ctx, computed from
    the original rules.  Rules already present modulo renaming are not added
    twice.  A left-hand side that applies a variable has no applicative
    arity and raises NotLeftHeadVariableFreeError.
    """
    if not is_left_head_variable_free(ctx, trs):
        raise NotLeftHeadVariableFreeError("left-hand sides must not apply variables")
    out = list(trs.rules)
    seen = {canonical_rule(r) for r in out}
    queue = list(trs.rules)
    while queue:
        rule = queue.pop(0)
        k = applicative_arity_of_term(ctx, rule.lhs)
        if not k:
            continue
        used = set(variables(rule.lhs)) | set(variables(rule.rhs))
        i = 0
        while f"_eta{i}" in used:
            i += 1
        x = Var(f"_eta{i}")
        derived = Rule(
            Fun(ctx.app, (rule.lhs, x)), Fun(ctx.app, (rule.rhs, x))
        )
        if canonical_rule(derived) not in seen:
            seen.add(canonical_rule(derived))
            out.append(derived)
            queue.append(derived)
    return Trs(out, extra_signature=trs.signature)


def uncurried_trs(ctx: AtrsContext, trs: Trs) -> Trs:
    """The rules of trs, whose lhss apply no variable, in uncurrying normal form."""
    rules = [
        Rule(uncurry_nf(ctx, r.lhs), uncurry_nf(ctx, r.rhs)) for r in trs.rules
    ]
    return Trs(rules, extra_signature=trs.signature)


@dataclass(frozen=True)
class TransformResult:
    """All systems produced by uncurrying an ATRS.

    eta is the eta-saturation, u_rules the uncurrying rules, uncurried the
    plain uncurried system, uncurried_eta the uncurried eta-saturation, and
    combined their union uncurried_eta + u_rules, in that rule order.
    """

    context: AtrsContext
    eta: Trs
    u_rules: Trs
    uncurried: Trs
    uncurried_eta: Trs
    combined: Trs


def transform(trs: Trs, app_hint: str | None = None) -> TransformResult:
    """Uncurry an ATRS: detect, eta-saturate, uncurry, and combine."""
    ctx = detect_atrs(trs, app_hint)
    eta = eta_saturate(ctx, trs)
    u_rules = uncurrying_system(ctx)
    uncurried = uncurried_trs(ctx, trs)
    uncurried_eta = uncurried_trs(ctx, eta)
    combined = Trs(
        uncurried_eta.rules + u_rules.rules,
        extra_signature=uncurried_eta.signature | u_rules.signature,
    )
    return TransformResult(ctx, eta, u_rules, uncurried, uncurried_eta, combined)
