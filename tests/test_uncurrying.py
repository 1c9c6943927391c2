import pytest
import strategies
from hypothesis import assume, given, settings
from reference import is_normal_form

from atrs import systems
from atrs.complexity import enumerate_terms
from atrs.parsing import parse_trs
from atrs.rewriting import Finished, StrategyKind, normalize
from atrs.terms import (
    APP,
    Fun,
    Rule,
    Symbol,
    Trs,
    Var,
    canonical_rules,
)
from atrs.uncurrying import (
    AmbiguousApplicationError,
    NotApplicativeError,
    NotLeftHeadVariableFreeError,
    SymbolClashError,
    TransformError,
    UnknownSymbolError,
    applicative_arity_of_term,
    curry_back,
    curry_nf,
    currying_system,
    detect_atrs,
    eta_saturate,
    spine,
    transform,
    uncurry_nf,
    uncurrying_system,
)

X = Var("x")
Y = Var("y")


def app(left, right):
    return Fun(APP, (left, right))


def con(name):
    return Fun(Symbol(name, 0))


def rules_of(text):
    return canonical_rules(parse_trs(text).trs)


def test_detect_applicative_arities():
    ctx = detect_atrs(systems.id_apply())
    assert ctx.app == APP
    assert ctx.aa == {"id": 2, "f": 1}
    assert ctx.constant_order == ("id", "f")


def test_detect_synthesises_app_for_constant_systems():
    ctx = detect_atrs(parse_trs("(RULES a -> b)").trs)
    assert ctx.app == APP
    assert ctx.aa == {"a": 0, "b": 0}


def test_detect_rejects_other_arities():
    trs = Trs([Rule(Fun(Symbol("f", 1), (X,)), X)])
    with pytest.raises(NotApplicativeError):
        detect_atrs(trs)


def test_detect_ambiguous_binaries():
    o = Symbol("o", 2)
    p = Symbol("p", 2)
    trs = Trs([Rule(Fun(o, (X, Y)), Fun(p, (X, Y)))])
    with pytest.raises(AmbiguousApplicationError):
        detect_atrs(trs)
    # a hint does not help: the other binary still cannot be a constant
    with pytest.raises(NotApplicativeError):
        detect_atrs(trs, app_hint="o")


def test_detect_hint_names_the_binary_or_synthesises_it():
    o = Symbol("o", 2)
    trs = Trs([Rule(Fun(o, (con("f"), X)), X)])
    assert detect_atrs(trs).app == o
    assert detect_atrs(trs, app_hint="o").app == o
    consts = parse_trs("(RULES a -> b)").trs
    assert detect_atrs(consts, app_hint="o").app == o


def test_detect_hint_must_match_existing_binaries():
    trs = systems.id_apply()
    with pytest.raises(NotApplicativeError):
        detect_atrs(trs, app_hint="compose")


def test_detect_family_name_clash():
    # the fresh name f#1 is already a constant in the signature
    trs = parse_trs("(VAR x) (RULES f @ x -> f#1)").trs
    with pytest.raises(SymbolClashError):
        detect_atrs(trs)
    # g#1 is taken too, but the first clash in constant order is reported
    trs = parse_trs("(VAR x) (RULES f @ x -> g @ x  a -> f#1  b -> g#1)").trs
    with pytest.raises(SymbolClashError, match="fresh symbol name f#1 "):
        detect_atrs(trs)


def test_family_tables():
    ctx = detect_atrs(systems.id_apply())
    id0, id1, id2 = (ctx.family("id", i) for i in range(3))
    f0, f1 = ctx.family("f", 0), ctx.family("f", 1)
    assert list(ctx.up.items()) == [(id0, id1), (id1, id2), (f0, f1)]
    assert ctx.base == {id0: id0, id1: id0, id2: id0, f0: f0, f1: f0}


def test_spine_decomposition():
    t = app(app(con("f"), X), con("a"))
    assert spine(APP, t) == (con("f"), (X, con("a")))
    assert spine(APP, X) == (X, ())


def test_applicative_arity_of_terms():
    ctx = detect_atrs(systems.id_apply())
    assert applicative_arity_of_term(ctx, con("id")) == 2
    assert applicative_arity_of_term(ctx, app(con("id"), X)) == 1
    assert applicative_arity_of_term(ctx, app(app(con("id"), X), Y)) == 0
    # over-application and variable heads have no arity
    assert applicative_arity_of_term(ctx, app(app(con("f"), X), Y)) is None
    assert applicative_arity_of_term(ctx, X) is None
    assert applicative_arity_of_term(ctx, app(X, Y)) is None


def test_currying_system_shape():
    add = Symbol("add", 2)
    trs = currying_system({add})
    x1 = Var("x1")
    y = Var("y")
    assert trs.rules == (
        Rule(Fun(add, (x1, y)), app(Fun(Symbol("add#1", 1), (x1,)), y)),
        Rule(Fun(Symbol("add#1", 1), (y,)), app(con("add"), y)),
    )


def test_curry_nf_flattens_applications_of_listed_symbols():
    # each listed symbol becomes a same-name constant applied to its arguments
    add = Symbol("add", 2)
    s = Symbol("s", 1)
    t = Fun(add, (X, Fun(s, (con("0"),))))
    flat = curry_nf({add, s}, t)
    assert flat == app(app(con("add"), X), app(con("s"), con("0")))
    # unlisted symbols keep their shape
    assert curry_nf({s}, Fun(add, (X, Fun(s, (X,))))) == Fun(
        add, (X, app(con("s"), X))
    )


def test_uncurrying_system_for_table_system():
    ctx = detect_atrs(systems.id_apply())
    expected = rules_of(
        """
        (VAR x1 y)
        (RULES
          id @ y -> id#1(y)
          id#1(x1) @ y -> id#2(x1, y)
          f @ y -> f#1(y)
        )
        """
    )
    assert canonical_rules(uncurrying_system(ctx)) == expected


def test_uncurry_nf_collapses_spines_bottom_up():
    ctx = detect_atrs(systems.id_apply())
    t = app(app(con("id"), con("f")), X)
    assert uncurry_nf(ctx, t) == Fun(Symbol("id#2", 2), (con("f"), X))
    # variable heads stay applications
    assert uncurry_nf(ctx, app(X, Y)) == app(X, Y)
    # over-application keeps the outer app node
    over = app(app(con("f"), X), Y)
    assert uncurry_nf(ctx, over) == app(Fun(Symbol("f#1", 1), (X,)), Y)


def test_eta_saturation_adds_one_rule_per_missing_arity():
    trs = systems.id_apply()
    ctx = detect_atrs(trs)
    eta = eta_saturate(ctx, trs)
    assert len(eta.rules) == 3
    assert eta.rules[:2] == trs.rules
    extra = eta.rules[2]
    assert extra == Rule(
        app(app(con("id"), X), Var("_eta0")), app(X, Var("_eta0"))
    )


def test_eta_saturation_deduplicates_modulo_renaming():
    # f -> g would eta-extend to f @ x -> g @ x, which is already a rule
    trs = systems.parallel_redexes()
    eta = eta_saturate(detect_atrs(trs), trs)
    assert eta.rules == trs.rules


def test_eta_fresh_variables_skip_names_in_the_rule():
    trs = parse_trs(
        """
        (VAR _eta0)
        (RULES
          q @ _eta0 -> _eta0
          a -> q @ b @ c
        )
        """
    ).trs
    eta = eta_saturate(detect_atrs(trs), trs)
    assert len(eta.rules) == 3
    derived = eta.rules[2]
    e0, e1 = Var("_eta0"), Var("_eta1")
    assert derived == Rule(app(app(con("q"), e0), e1), app(e0, e1))


def test_eta_saturation_requires_left_head_variable_freedom():
    trs = Trs([Rule(app(X, Y), Y)])
    ctx = detect_atrs(trs)
    with pytest.raises(NotLeftHeadVariableFreeError):
        eta_saturate(ctx, trs)
    with pytest.raises(NotLeftHeadVariableFreeError):
        transform(trs)


def test_transform_reproduces_the_table_systems():
    res = transform(systems.id_apply())
    assert canonical_rules(res.eta) == rules_of(
        """
        (VAR x y)
        (RULES
          id @ x -> x
          f @ x -> id @ f @ x
          id @ x @ y -> x @ y
        )
        """
    )
    assert canonical_rules(res.u_rules) == rules_of(
        """
        (VAR x y)
        (RULES
          id @ x -> id#1(x)
          id#1(x) @ y -> id#2(x, y)
          f @ x -> f#1(x)
        )
        """
    )
    assert canonical_rules(res.uncurried) == rules_of(
        """
        (VAR x)
        (RULES
          id#1(x) -> x
          f#1(x) -> id#2(f, x)
        )
        """
    )
    assert canonical_rules(res.uncurried_eta) == rules_of(
        """
        (VAR x y)
        (RULES
          id#1(x) -> x
          f#1(x) -> id#2(f, x)
          id#2(x, y) -> x @ y
        )
        """
    )
    assert res.combined.rules == res.uncurried_eta.rules + res.u_rules.rules


def test_transform_of_the_loop_example():
    res = transform(systems.head_loop())
    assert canonical_rules(res.combined) == rules_of(
        """
        (VAR x y)
        (RULES
          f#1(x) -> f#1(x)
          f -> g
          f#1(x) -> g @ x
          f @ y -> f#1(y)
        )
        """
    )


def test_transform_of_the_strategy_example():
    res = transform(systems.head_switch())
    assert canonical_rules(res.combined) == rules_of(
        """
        (VAR x y)
        (RULES
          f -> g
          a -> b
          g#1(x) -> h
          g @ y -> g#1(y)
        )
        """
    )


def test_transform_of_the_parallel_example():
    res = transform(systems.parallel_redexes())
    assert len(res.combined.rules) == 5
    assert canonical_rules(res.combined) == rules_of(
        """
        (VAR x y)
        (RULES
          f -> g
          f#1(x) -> g#1(x)
          a -> b
          f @ y -> f#1(y)
          g @ y -> g#1(y)
        )
        """
    )


def test_transform_of_addition():
    res = transform(systems.addition())
    assert canonical_rules(res.combined) == rules_of(
        """
        (VAR x y)
        (RULES
          add#2(x, 0) -> x
          add#2(x, s#1(y)) -> s#1(add#2(x, y))
          add @ y -> add#1(y)
          add#1(x) @ y -> add#2(x, y)
          s @ y -> s#1(y)
        )
        """
    )


def test_transform_of_doubling():
    res = transform(systems.doubling())
    assert canonical_rules(res.combined) == rules_of(
        """
        (VAR x y)
        (RULES
          f -> s
          f#1(s#1(x)) -> s#1(s#1(f#1(x)))
          f#1(x) -> s#1(x)
          f @ y -> f#1(y)
          s @ y -> s#1(y)
        )
        """
    )


def test_curry_back_inverts_family_symbols():
    res = transform(systems.addition())
    ctx = res.context
    t = Fun(Symbol("add#2", 2), (X, con("0")))
    assert curry_back(ctx, t) == app(app(con("add"), X), con("0"))
    with pytest.raises(UnknownSymbolError):
        curry_back(ctx, Fun(Symbol("mul#1", 1), (X,)))
    # aa(s) = 1, so s#2 is outside the family of s
    with pytest.raises(UnknownSymbolError):
        curry_back(ctx, Fun(Symbol("s#2", 2), (X, X)))


def test_curry_back_is_many_to_one():
    res = transform(systems.id_apply())
    ctx = res.context
    partial = app(con("f"), X)
    collapsed = Fun(Symbol("f#1", 1), (X,))
    assert curry_back(ctx, partial) == curry_back(ctx, collapsed)


def test_curry_back_does_not_reflect_single_steps():
    # a plain-uncurried normal form whose curried image still has a step,
    # so stepwise equivalence needs the eta-saturated system
    res = transform(systems.id_apply())
    ctx = res.context
    s = Fun(Symbol("id#2", 2), (con("f"), X))
    assert is_normal_form(res.uncurried, s)
    back = curry_back(ctx, s)
    assert back == app(app(con("id"), con("f")), X)
    assert not is_normal_form(systems.id_apply(), back)
    assert not is_normal_form(res.uncurried_eta, s)


def test_curry_back_at_most_doubles_size():
    res = transform(systems.addition())
    ctx = res.context
    for t in enumerate_terms(res.combined.signature, 5):
        assert curry_back(ctx, t).size <= 2 * t.size


def _transformed(trs):
    """transform(trs), or None when uncurrying rejects trs."""
    try:
        return transform(trs)
    except TransformError:
        return None


@settings(max_examples=60, deadline=None)
@given(strategies.applicative_systems())
def test_uncurry_nf_is_u_normalisation(trs):
    res = _transformed(trs)
    assume(res is not None)
    for t in enumerate_terms(res.combined.signature, 5, max_vars=1):
        got = normalize(res.u_rules, t, StrategyKind.FULL, 100)
        assert got == Finished(uncurry_nf(res.context, t)), t


@settings(max_examples=60, deadline=None)
@given(strategies.applicative_systems())
def test_curry_back_inverts_uncurry_nf_on_source_terms(trs):
    res = _transformed(trs)
    assume(res is not None)
    ctx = res.context
    for t in enumerate_terms(ctx.constants | {ctx.app}, 6):
        assert curry_back(ctx, uncurry_nf(ctx, t)) == t
