"""The sample systems of trs/, under the names the tests use, and rule-set
comparison modulo variable renaming."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from atrs.parsing import parse_tmi, parse_trs
from atrs.terms import Rule, Trs, canonical_rule
from atrs.tmi import MatrixInterp

TRS = Path(__file__).resolve().parent.parent / "trs"

#: Sample name -> its file under trs/.
FILES = {
    "id_apply": "id.trs",
    "head_loop": "loop.trs",
    "head_switch": "switch.trs",
    "parallel_redexes": "parallel.trs",
    "addition": "add.trs",
    "doubling": "double.trs",
}


def system(name: str) -> Trs:
    """The named sample system, parsed from its file."""
    return parse_trs((TRS / FILES[name]).read_text(encoding="utf-8")).trs


def addition_tmi() -> MatrixInterp:
    """The dimension-2 interpretation in trs/add.tmi, which certifies
    uncurried addition."""
    return parse_tmi((TRS / "add.tmi").read_text(encoding="utf-8"))


def canonical_rules(trs: Trs | Iterable[Rule]) -> frozenset[Rule]:
    """The rule set modulo variable renaming, for order-insensitive comparison."""
    rules = trs.rules if isinstance(trs, Trs) else tuple(trs)
    return frozenset(canonical_rule(r) for r in rules)
