import copy
import pickle
from pathlib import Path

import pytest
import reference
import strategies
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    InvalidPositionError,
    canonical,
    is_normal_form,
    positions,
    replace,
    size,
    subterm_at,
)
from samples import canonical_rules

from atrs import terms
from atrs.parsing import parse_trs
from atrs.terms import (
    Fun,
    Rule,
    Symbol,
    Trs,
    Var,
    canonical_rule,
    is_left_linear,
    match,
    rename,
    substitute,
    subterms,
    term_sort_key,
    term_symbols,
    variable_counts,
    variables,
)

F = Symbol("f", 2)
G = Symbol("g", 1)
A = Symbol("a", 0)
B = Symbol("b", 0)
X = Var("x")
Y = Var("y")
TRS = Path(__file__).resolve().parent.parent / "trs"


def fga():
    return Fun(F, (Fun(G, (X,)), Fun(A)))


def test_interning_returns_identical_objects():
    assert Var("x") is Var("x")
    assert Fun(A) is Fun(A)
    assert Fun(F, (X, Y)) is Fun(F, (X, Y))
    assert Fun(F, (X, Y)) is not Fun(F, (Y, X))


@given(strategies.terms())
def test_size_counts_positions(t):
    assert size(t) == len(positions(t))


def test_arity_is_enforced():
    with pytest.raises(ValueError):
        Fun(F, (X,))
    with pytest.raises(ValueError):
        Fun(A, (X,))


def test_terms_pickle_back_to_the_same_object():
    t = fga()
    assert pickle.loads(pickle.dumps(t)) is t


def test_subterms_preorder():
    t = fga()
    assert list(subterms(t)) == [t, Fun(G, (X,)), X, Fun(A)]


def test_positions_preorder_and_count():
    t = fga()
    assert positions(t) == ((), (1,), (1, 1), (2,))


def test_subterm_at_and_replace():
    t = fga()
    assert subterm_at(t, ()) is t
    assert subterm_at(t, (1, 1)) is X
    assert replace(t, (2,), Fun(B)) == Fun(F, (Fun(G, (X,)), Fun(B)))
    assert replace(t, (), X) is X
    with pytest.raises(InvalidPositionError):
        subterm_at(t, (3,))
    with pytest.raises(InvalidPositionError):
        replace(t, (1, 1, 1), X)


def test_variables_in_first_occurrence_order():
    t = Fun(F, (Y, Fun(G, (X,))))
    assert variables(t) == ("y", "x")
    assert variable_counts(Fun(F, (X, X))) == {"x": 2}


def test_substitute_and_match_are_inverse():
    pat = Fun(F, (X, Fun(G, (Y,))))
    subject = Fun(F, (Fun(A), Fun(G, (Fun(B),))))
    sigma = match(pat, subject)
    assert sigma == {"x": Fun(A), "y": Fun(B)}
    assert substitute(pat, sigma) == subject


def test_match_requires_consistent_bindings():
    pat = Fun(F, (X, X))
    assert match(pat, Fun(F, (Fun(A), Fun(A)))) == {"x": Fun(A)}
    assert match(pat, Fun(F, (Fun(A), Fun(B)))) is None
    assert match(Fun(A), Fun(B)) is None
    assert match(Fun(A), X) is None


def test_canonical_renames_by_first_occurrence():
    t = Fun(F, (Var("q"), Var("p")))
    assert canonical(t) == Fun(F, (X, Y))
    assert canonical(Fun(F, (X, Y))) is Fun(F, (X, Y))
    assert rename(t, {"q": "a"}) == Fun(F, (Var("a"), Var("p")))


def test_term_sort_key_orders_vars_before_funs():
    terms = [Fun(A), X, Fun(G, (X,)), Y]
    assert sorted(terms, key=term_sort_key) == [X, Y, Fun(A), Fun(G, (X,))]


@settings(max_examples=100, deadline=None)
@given(st.lists(strategies.terms(), min_size=2, max_size=8))
def test_term_sort_key_orders_like_the_nested_key(ts):
    for a in ts:
        for b in ts:
            nested = reference.term_sort_key(a) < reference.term_sort_key(b)
            assert (term_sort_key(a) < term_sort_key(b)) == nested


def test_rule_validation():
    with pytest.raises(ValueError):
        Rule(X, Fun(A))
    with pytest.raises(ValueError):
        Rule(Fun(A), X)
    r = Rule(Fun(G, (X,)), X)
    assert r == Rule(Fun(G, (X,)), X)
    assert hash(r) == hash(Rule(Fun(G, (X,)), X))


def test_canonical_rule_and_rule_sets():
    r1 = Rule(Fun(G, (Var("p"),)), Var("p"))
    r2 = Rule(Fun(G, (X,)), X)
    assert canonical_rule(r1) == r2
    assert canonical_rules([r1]) == canonical_rules([r2])


def test_trs_signature_includes_extra_symbols():
    trs = Trs([Rule(Fun(G, (X,)), X)], extra_signature=[A])
    assert trs.signature == {G, A}
    assert term_symbols(fga()) == {F, G, A}


def test_trs_allows_one_name_at_several_arities():
    f0 = Symbol("f", 0)
    trs = Trs([Rule(Fun(G, (Fun(f0),)), Fun(f0))], extra_signature=[F])
    assert {s.name for s in trs.signature} == {"g", "f"}
    assert len([s for s in trs.signature if s.name == "f"]) == 2


def test_is_left_linear():
    add = parse_trs((TRS / "add.trs").read_text(encoding="utf-8")).trs
    assert is_left_linear(add)
    assert not is_left_linear(Trs([Rule(Fun(F, (X, X)), Fun(A))]))


def test_symbol_hash_order_and_pickle_match_its_fields():
    a, b = Symbol("add", 2), Symbol("add#1", 1)
    assert Symbol("add", 2) is a and (a.name, a.arity) == ("add", 2)
    assert a != b and a != ("add", 2)
    syms = [Symbol("s", 1), Symbol("add", 2), Symbol("0", 0), Symbol("add", 0)]
    assert sorted(syms) == [Symbol("0", 0), Symbol("add", 0), Symbol("add", 2),
                            Symbol("s", 1)]
    assert Symbol("add", 0) < Symbol("add", 2) <= a < b
    assert b > a >= Symbol("add", 2) and not a < a
    assert repr(a) == "add/2"
    assert pickle.loads(pickle.dumps(a)) is a
    assert copy.deepcopy(a) is a


def test_parsing_one_file_twice_gives_one_system():
    text = (TRS / "add.trs").read_text(encoding="utf-8")
    assert parse_trs(text).trs is parse_trs(text).trs


def test_systems_are_interned_by_rules_and_signature():
    r1, r2 = Rule(Fun(G, (X,)), X), Rule(Fun(F, (X, Y)), Y)
    trs = Trs([r1, r2])
    assert Trs([Rule(Fun(G, (X,)), X), Rule(Fun(F, (X, Y)), Y)]) is trs
    assert Trs([r2, r1]) is not trs
    assert Trs([r1, r2], extra_signature=[A]) is not trs
    assert Trs([r1, r2], extra_signature=[G]) is trs
    assert pickle.loads(pickle.dumps(trs)) is trs
    assert copy.deepcopy(trs) is trs


def test_rule_index_is_built_once_per_distinct_system(monkeypatch):
    built = []
    real = terms._rule_index
    monkeypatch.setattr(terms, "_rule_index",
                        lambda rules: built.append(rules) or real(rules))
    h = Symbol("index_once_h", 1)
    t = Fun(h, (Fun(A),))
    r1, r2 = Rule(Fun(h, (X,)), X), Rule(Fun(h, (X,)), Fun(A))
    for _ in range(3):
        assert Trs([Rule(Fun(h, (X,)), X)]).candidates(t) == ((0, r1),)
    assert Trs([r1, r2]).candidates(t) == ((0, r1), (1, r2))
    assert Trs([r1, r2]).candidates(t) == ((0, r1), (1, r2))
    assert built == [(r1,), (r1, r2)]


def test_interned_terms_are_their_own_copies():
    nested = Fun(F, (Fun(G, (X,)), Fun(A)))
    for t in (X, nested):
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.deepcopy(t) is t
    assert Var("x") is X
    assert Fun(F, (Fun(G, (Var("x"),)), Fun(A))) is nested


def test_is_normal_form():
    trs = Trs([Rule(Fun(G, (X,)), X)])
    assert is_normal_form(trs, Fun(A))
    assert not is_normal_form(trs, Fun(F, (Fun(A), Fun(G, (Fun(A),)))))


def test_deep_terms_do_not_hit_recursion_limits():
    t = X
    for _ in range(5000):
        t = Fun(G, (t,))
    assert len(positions(t)) == 5001
    assert variables(t) == ("x",)
    assert sum(1 for _ in subterms(t)) == 5001
