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


class AmbiguousApplicationError(TransformError):
    """Several binary symbols could serve as application; a hint is needed."""


class NotLeftHeadVariableFreeError(TransformError):
    """Some left-hand side applies a variable, so applicative arities are
    undefined and the transformation does not apply."""


class SymbolClashError(TransformError):
    """A fresh family symbol name like f#1 is already taken."""


class UnknownSymbolError(TransformError):
    """A term mentions a symbol outside the source signature and its family."""


@dataclass
class AtrsContext:
    """Everything fixed by detecting an ATRS: the application symbol, the
    constants, their applicative arities, and the fresh symbol family.

    The family member f_i is f itself for i = 0 and a fresh symbol named
    ``f#i`` of arity i for 1 <= i <= aa(f).  up maps each f_i with
    i < aa(f) to f_{i+1}, in constant order and then by i; base maps every
    member of f's family to the constant f.
    """

    app: Symbol
    constants: frozenset[Symbol]
    aa: dict[str, int]
    constant_order: tuple[str, ...]
    up: dict[Symbol, Symbol] = field(init=False, repr=False, compare=False)
    base: dict[Symbol, Symbol] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.up = {}
        self.base = {}
        for name in self.constant_order:
            members = [self.family(name, i) for i in range(self.aa[name] + 1)]
            self.up.update(zip(members, members[1:]))
            self.base.update(dict.fromkeys(members, members[0]))

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
    application symbol; with several binary symbols an app_hint naming one of
    them is required.  A constants-only system is accepted, with APP as its
    application symbol.
    """
    binaries = sorted(s for s in trs.signature if s.arity == 2)
    bad = sorted(s for s in trs.signature if s.arity not in (0, 2))
    if bad:
        raise NotApplicativeError(
            f"non-nullary, non-application symbols in signature: {bad}"
        )
    if app_hint is not None:
        app = next((s for s in binaries if s.name == app_hint), None)
        if app is None:
            if binaries:
                raise NotApplicativeError(
                    f"hinted application symbol {app_hint!r} not in signature"
                )
            app = Symbol(app_hint, 2)
        extra = [s for s in binaries if s != app]
        if extra:
            raise NotApplicativeError(
                f"binary symbols besides application {app.name}: {extra}"
            )
    elif len(binaries) > 1:
        raise AmbiguousApplicationError(
            f"several binary symbols could be application: {binaries}"
        )
    else:
        app = binaries[0] if binaries else APP

    constants = frozenset(s for s in trs.signature if s.arity == 0)
    aa = {c.name: 0 for c in constants}
    order: dict[str, None] = {}
    for rule in trs.rules:
        for side in (rule.lhs, rule.rhs):
            for s in subterms(side):
                head, args = spine(app, s)
                if isinstance(head, Fun) and head.symbol in constants:
                    name = head.symbol.name
                    aa[name] = max(aa[name], len(args))
                    order.setdefault(name, None)
    for name in sorted(aa):
        order.setdefault(name, None)

    ctx = AtrsContext(app, constants, aa, tuple(order))
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


def currying_system(symbols: set[Symbol] | frozenset[Symbol], app: Symbol = APP) -> Trs:
    """Rules flattening every n-ary symbol into applications of a constant.

    For f of arity n the rules are f_{i+1}(x1..xi, y) -> f_i(x1..xi) @ y for
    n > i >= 0, where f_n is f itself and lower members are f#i (f#0 is the
    constant f).
    """
    rules = []
    for f in sorted(symbols):
        if f == app or f.arity == 0:
            continue
        for i in range(f.arity - 1, -1, -1):
            upper = f if i + 1 == f.arity else AtrsContext.family(f.name, i + 1)
            lower = AtrsContext.family(f.name, i)
            xs = tuple(Var(f"x{j + 1}") for j in range(i))
            y = Var("y")
            rules.append(
                Rule(Fun(upper, xs + (y,)), Fun(app, (Fun(lower, xs), y)))
            )
    return Trs(rules, extra_signature=symbols | {app})


def curry_nf(
    symbols: set[Symbol] | frozenset[Symbol], t: Term, app: Symbol = APP
) -> Term:
    """The unique normal form of t under the currying system of symbols.

    Every application of an n-ary symbol from symbols, or of one of its
    family members, is flattened into a spine headed by the corresponding
    constant.
    """
    flat: dict[Symbol, str] = {}
    for f in symbols:
        if f == app or f.arity == 0:
            continue
        flat[f] = f.name
        for i in range(1, f.arity):
            flat[AtrsContext.family(f.name, i)] = f.name

    def go(t: Term) -> Term:
        if isinstance(t, Var):
            return t
        args = tuple(go(a) for a in t.args)
        base = flat.get(t.symbol)
        if base is None or t.symbol == app:
            return Fun(t.symbol, args)
        out: Term = Fun(Symbol(base, 0))
        for a in args:
            out = Fun(app, (out, a))
        return out

    return go(t)


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


def curry_back(ctx: AtrsContext, t: Term) -> Term:
    """Fully curry t and rename family members back to their base constants.

    Defined for terms over the source signature extended by the family;
    anything else raises UnknownSymbolError.
    """
    if isinstance(t, Var):
        return t
    if t.symbol == ctx.app:
        return Fun(ctx.app, (curry_back(ctx, t.args[0]), curry_back(ctx, t.args[1])))
    base = ctx.base.get(t.symbol)
    if base is None:
        raise UnknownSymbolError(f"symbol {t.symbol} outside signature and family")
    out: Term = Fun(base)
    for a in t.args:
        out = Fun(ctx.app, (out, curry_back(ctx, a)))
    return out
