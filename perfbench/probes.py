"""Counters read from atrs internals that have no public interface yet.

The step tables (module-level ``lru_cache``s in ``atrs.rewriting``), the
term intern tables and the search memo are implementation details that
planned refactors remove.  Each reader returns ``{"value": n}``, or
``{"value": None, "reason": ...}`` once its hook is gone, so the benchmark
keeps running and says what it could not count.
"""

from __future__ import annotations


def _probe(what: str, read) -> dict:
    try:
        return {"value": read()}
    except (AttributeError, ImportError, TypeError) as e:
        return {"value": None,
                "reason": f"{what} unavailable: {type(e).__name__}: {e}"}


def _step_tables(with_root: bool = False):
    from atrs import rewriting

    tables = [rewriting._full_steps, rewriting._innermost_steps]
    return tables + [rewriting._root_steps] if with_root else tables


def interned() -> dict:
    from atrs.terms import Fun, Var

    return _probe("Fun._intern and Var._intern",
                  lambda: len(Fun._intern) + len(Var._intern))


def step_table_size() -> dict:
    return _probe("rewriting step tables", lambda: sum(
        f.cache_info().currsize for f in _step_tables(with_root=True)))


def step_cache_hits() -> dict:
    return _probe("rewriting step tables",
                  lambda: sum(f.cache_info().hits for f in _step_tables()))


def step_cache_misses() -> dict:
    return _probe("rewriting step tables",
                  lambda: sum(f.cache_info().misses for f in _step_tables()))


def terms_explored(searches) -> dict:
    return _probe("height search memo",
                  lambda: sum(len(s.memo) for s in searches))


def state_at_start() -> dict:
    """What a fresh interpreter must show before its first job."""
    return {"terms.interned": interned(), "step_tables": step_table_size()}
