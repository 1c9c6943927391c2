import pytest
import strategies
from hypothesis import given, settings
from hypothesis import strategies as st

from atrs import systems
from atrs.parsing import (
    ParseError,
    format_rule,
    format_term,
    format_tmi,
    format_trs,
    parse_term,
    parse_tmi,
    parse_trs,
)
from atrs.terms import APP, Fun, Symbol, Var, term_symbols
from atrs.tmi import MatrixInterp, MissingSymbolError
from atrs.uncurrying import transform

X = Var("x")


def app(left, right):
    return Fun(APP, (left, right))


def con(name):
    return Fun(Symbol(name, 0))


def test_infix_application_desugars_left_associative():
    problem = parse_trs("(VAR x) (RULES id @ x -> x)")
    rule = problem.trs.rules[0]
    assert rule.lhs == app(con("id"), X)
    assert problem.declared_vars == frozenset({"x"})
    assert problem.app_hint == "app"

    t = parse_term("f @ g @ h")
    assert t == app(app(con("f"), con("g")), con("h"))
    assert parse_term("f @ (g @ h)") == app(con("f"), app(con("g"), con("h")))


def test_prefix_notation_and_mixed_terms():
    problem = parse_trs(
        "(VAR x y) (RULES add#2(x, s#1(y)) -> s#1(add#2(x, y)))"
    )
    add2 = Symbol("add#2", 2)
    s1 = Symbol("s#1", 1)
    y = Var("y")
    assert problem.trs.rules[0].lhs == Fun(add2, (X, Fun(s1, (y,))))
    assert problem.app_hint is None

    mixed = parse_term("f#1(x) @ y", declared_vars={"x", "y"})
    assert mixed == app(Fun(Symbol("f#1", 1), (X,)), y)


def test_comment_sections_are_skipped():
    problem = parse_trs(
        """
        (COMMENT curried addition (with (nested) parens) and -> arrows)
        (VAR x)
        (RULES a -> b)
        (COMMENT trailing notes)
        """
    )
    assert len(problem.trs.rules) == 1


def test_undeclared_identifiers_warn_once():
    problem = parse_trs("(RULES s @ a -> b)")
    assert problem.warnings == (
        "identifiers not declared as variables, treated as constants: a, b, s",
    )
    clean = parse_trs("(VAR x) (RULES x @ x -> x)")
    assert clean.warnings == ()


def test_origin_is_recorded():
    assert parse_trs("(RULES a -> b)", origin="here.trs").origin == "here.trs"


def test_syntax_errors_carry_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_trs("(RULES\n  a -> )\n")
    assert err.value.line == 2
    assert "line 2, column" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_trs("(RULES a -> b")
    assert "end of input" in str(err.value)


def test_unexpected_character_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_trs("(RULES a -> %)")
    assert "unexpected character" in str(err.value)


def test_inconsistent_arities_are_rejected():
    with pytest.raises(ParseError) as err:
        parse_trs("(VAR x) (RULES f(x) -> x  f(x, x) -> x)")
    assert "arity" in str(err.value)
    with pytest.raises(ParseError):
        parse_term("f(a)", arities={"f": 2})


def test_variables_cannot_take_arguments():
    with pytest.raises(ParseError) as err:
        parse_trs("(VAR x y) (RULES x(y) -> y)")
    assert "variable x" in str(err.value)


def test_section_ordering_and_unknown_sections():
    with pytest.raises(ParseError) as err:
        parse_trs("(RULES a -> b) (VAR x)")
    assert "VAR section after RULES" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_trs("(THEORY nothing)")
    assert "unknown section" in str(err.value)


def test_rule_validation_errors_are_located():
    # rhs-only variables are reported at the rule, not as a raw ValueError
    with pytest.raises(ParseError):
        parse_trs("(VAR x y) (RULES a @ x -> y)")
    with pytest.raises(ParseError):
        parse_trs("(VAR x) (RULES x -> x)")


def test_identifier_charset_is_liberal():
    problem = parse_trs("(RULES map' @ s+ -> f?!*.=<>^~& @ s+)")
    names = {s.name for s in problem.trs.signature}
    assert {"map'", "s+", "f?!*.=<>^~&"} <= names


def test_format_term_parenthesises_only_where_needed():
    t = app(app(con("f"), app(con("g"), con("h"))), app(con("a"), con("b")))
    assert format_term(t) == "f @ (g @ h) @ (a @ b)"
    s1 = Fun(Symbol("s#1", 1), (X,))
    assert format_term(app(s1, X)) == "s#1(x) @ x"
    assert format_rule(parse_trs("(VAR x) (RULES id @ x -> x)").trs.rules[0]) == (
        "id @ x -> x"
    )


def test_format_trs_declares_variables():
    trs = parse_trs("(VAR x) (RULES id @ x -> x  f -> g)").trs
    text = format_trs(trs)
    assert text == "(VAR x)\n(RULES\n  id @ x -> x\n  f -> g\n)\n"
    ground = parse_trs("(RULES a -> b)").trs
    assert format_trs(ground).startswith("(VAR)\n")


def test_print_parse_round_trip_on_samples():
    for name in sorted(systems.SOURCES):
        problem = systems.problem(name)
        again = parse_trs(format_trs(problem.trs))
        assert again.trs.rules == problem.trs.rules
        combined = transform(problem.trs).combined
        back = parse_trs(format_trs(combined))
        assert back.trs.rules == combined.rules


@settings(max_examples=100, deadline=None)
@given(strategies.terms())
def test_parse_term_inverts_format_term(t):
    arities = {f.name: f.arity for f in term_symbols(t)}
    assert parse_term(format_term(t), {"x", "y"}, arities) == t


@settings(max_examples=100, deadline=None)
@given(st.one_of(strategies.first_order_systems(), strategies.applicative_systems()))
def test_parse_trs_inverts_format_trs(trs):
    assert parse_trs(format_trs(trs)).trs.rules == trs.rules


def test_parse_term_respects_declared_variables():
    t = parse_term("add @ x @ 0", declared_vars={"x"}, arities={"add": 0, "0": 0})
    assert t == app(app(con("add"), X), con("0"))
    ground = parse_term("add @ x @ 0")
    assert ground == app(app(con("add"), con("x")), con("0"))
    with pytest.raises(ParseError):
        parse_term("a b")


def test_tmi_round_trip():
    interp = systems.addition_tmi()
    again = parse_tmi(format_tmi(interp))
    assert again == interp
    assert "add#2/2" in format_tmi(interp)


@st.composite
def interpretations(draw):
    """Interpretations of dimension 1-3 with entries up to 20 for 1-4
    symbols; one name may come with several arities."""
    dim = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(0, 20)] * dim)
    matrix = st.tuples(*[vector] * dim)
    names = st.sampled_from(["a", "s#1", "add#2"])
    symbol = st.builds(Symbol, names, st.integers(0, 2))
    symbols = draw(st.lists(symbol, min_size=1, max_size=4, unique=True))
    return MatrixInterp(
        dim, {f: (draw(st.tuples(*[matrix] * f.arity)), draw(vector)) for f in symbols}
    )


@settings(max_examples=100, deadline=None)
@given(interpretations())
def test_parse_tmi_inverts_format_tmi(interp):
    assert parse_tmi(format_tmi(interp)) == interp


def test_tmi_parse_shapes():
    interp = parse_tmi("f/1 : [ [1 1; 0 1] ] + [0; 2]\na/0 : [] + [1; 0]\n")
    assert interp.dim == 2
    mats, vec = interp.for_symbol(Symbol("f", 1))
    assert mats == (((1, 1), (0, 1)),)
    assert vec == (0, 2)
    assert interp.for_symbol(Symbol("a", 0)) == ((), (1, 0))


def test_tmi_dimension_mismatches_are_rejected():
    with pytest.raises(ParseError) as err:
        parse_tmi("f/1 : [ [1 1; 0 1] ] + [0]\n")
    assert "dimension" in str(err.value)
    with pytest.raises(ParseError):
        parse_tmi("f/1 : [ [1 1 1; 0 1] ] + [0; 0]\n")
    with pytest.raises(ParseError):
        parse_tmi("f/1 : [ [1 1; 0 1] ] + [0; 0]\na/0 : [] + [0]\n")


def test_tmi_block_consistency_errors():
    with pytest.raises(ParseError) as err:
        parse_tmi("f/2 : [ [1] ] + [0]\n")
    assert "matrices" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_tmi("a/0 : [] + [0]\na/0 : [] + [1]\n")
    assert "duplicate" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_tmi("")
    assert "no interpretation blocks" in str(err.value)
    with pytest.raises(ParseError):
        parse_tmi("a/0 : [] + [-1]\n")


def test_tmi_signature_coverage():
    trs = transform(systems.addition()).combined
    interp = parse_tmi(systems.ADDITION_TMI_SOURCE, signature=trs.signature)
    assert interp.dim == 2
    with pytest.raises(MissingSymbolError):
        parse_tmi("a/0 : [] + [0]\n", signature=trs.signature)
