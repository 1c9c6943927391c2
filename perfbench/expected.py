"""Hand-written answers for every job, and the verdict each job reports.

The tables follow from the paper and the systems' definitions: dc of
uncurried doubling under innermost rewriting is 2^(n-1), full dc of
addition is max(0, floor((n-3)/2)), and the relative table of uncurried
addition modulo the uncurrying rules is fixed below.  The certificates are
the first ones in the search's documented candidate order, and the oracle
instance counts are those the acceptance test of the oracles fixes.  No
answer is recomputed while the benchmark runs; the only thing atrs confirms
itself is the validity of a found certificate, by the check-tmi job that
follows each search.
"""

from __future__ import annotations

#: CLI exit code for each report status (see atrs.cli).
EXIT_CODE = {"ok": 0, "refuted": 1, "loop": 1, "fuel-exhausted": 2,
             "budget-exhausted": 2, "undecided": 2, "vacuous": 2}

#: First dimension-2 certificates for uncurried addition in candidate order,
#: with coefficients up to 1 and up to 2.
ADDITION_CERTIFICATE_C1 = (
    "0/0 : [] + [0; 0]\n"
    "add/0 : [] + [0; 1]\n"
    "add#1/1 : [ [1 0; 0 1] ] + [0; 1]\n"
    "add#2/2 : [ [1 0; 0 1], [1 1; 0 1] ] + [1; 0]\n"
    "app/2 : [ [1 1; 0 1], [1 1; 0 1] ] + [1; 0]\n"
    "s/0 : [] + [0; 1]\n"
    "s#1/1 : [ [1 0; 0 1] ] + [0; 1]\n"
)
ADDITION_CERTIFICATE_C2 = (
    "0/0 : [] + [0; 0]\n"
    "add/0 : [] + [0; 0]\n"
    "add#1/1 : [ [1 0; 0 1] ] + [0; 0]\n"
    "add#2/2 : [ [1 0; 0 1], [1 1; 0 1] ] + [1; 0]\n"
    "app/2 : [ [1 0; 0 1], [1 1; 0 1] ] + [2; 0]\n"
    "s/0 : [] + [0; 1]\n"
    "s#1/1 : [ [1 0; 0 1] ] + [0; 1]\n"
)

# instances checked per (system, property) at size 6, as in the acceptance
# test of the oracles; every one must hold
_ORACLE_INSTANCES = {
    "add": {"uncurried-step": 4, "ri-sim": 12, "nf-preservation": 304,
            "subterm-commutation": 896},
    "switch": {"uncurried-step": 587, "ri-sim": 512, "nf-preservation": 122,
               "subterm-commutation": 2063},
    "double": {"uncurried-step": 70, "ri-sim": 109, "nf-preservation": 54,
               "subterm-commutation": 443},
}


def _table(values: dict[int, int]) -> dict:
    return {"status": "ok", "rows": [[n, values[n]] for n in sorted(values)]}


EXPECTED: dict[str, dict] = {
    "idc-doubling": _table({n: 2 ** (n - 1) for n in range(1, 8)}),
    "dc-addition": _table({n: max(0, (n - 3) // 2) for n in range(1, 11)}),
    "relative/add": _table({1: 0, 2: 0, 3: 1, 4: 2, 5: 3, 6: 4}),
    "tmi/add-c1/search": {"status": "ok", "tmi": ADDITION_CERTIFICATE_C1},
    "tmi/add-c1/check": {"status": "ok", "degree": 2},
    "tmi/add-c2/search": {"status": "ok", "tmi": ADDITION_CERTIFICATE_C2},
    "tmi/add-c2/check": {"status": "ok", "degree": 2},
    "tmi/double-c1/search": {"status": "refuted", "tmi": None},
    **{
        f"verify/{name}/{prop}": {"status": "ok", "instances_checked": count,
                                  "failures": 0, "exhausted": 0}
        for name, counts in _ORACLE_INSTANCES.items()
        for prop, count in counts.items()
    },
}


def verdict(command: str, report: dict) -> dict:
    """The part of a CLI ``--json`` report that the expected answers fix."""
    status, data = report["status"], report["data"]
    if command == "dc":
        return {"status": status,
                "rows": [[r["n"], r["value"]] for r in data["rows"]]}
    if command == "verify":
        return {"status": status, "instances_checked": data["instances_checked"],
                "failures": len(data["failures"]), "exhausted": data["exhausted"]}
    if command == "search-tmi":
        return {"status": status, "tmi": data.get("tmi")}
    if command == "check-tmi":
        return {"status": status,
                "degree": data.get("certificate", {}).get("degree")}
    raise ValueError(f"no verdict for command {command!r}")


def mismatch(key: str, got: dict | None) -> str | None:
    """Why a verdict differs from the hand-written answer, or None."""
    want = EXPECTED[key]
    if got == want:
        return None
    if got is None:
        return "no verdict"
    diffs = [f"{k}: expected {want.get(k)!r}, got {got.get(k)!r}"
             for k in sorted(set(want) | set(got)) if want.get(k) != got.get(k)]
    return "; ".join(diffs)
