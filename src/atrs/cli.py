"""Command line interface.

Subcommands: uncurry, rewrite, dh, dc, check-tmi, search-tmi, verify.
Exit codes: 0 success or property holds, 1 property refuted or check
failed, 2 resources exhausted or result undecided, 3 input error, 4
internal error (a bug in atrs, never a verdict).  All
output is deterministically ordered; --json switches to a JSON report
of the shape {"command", "status", "data"}.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .complexity import (
    ComplexityTable,
    dc_relative_table,
    dc_table,
    detect_innermost_nontermination,
)
from .oracles import (
    VerificationReport,
    verify_nf_preservation,
    verify_rightmost_simulation,
    verify_subterm_commutation,
    verify_uncurried_step,
)
from .parsing import (
    InputProblem,
    ParseError,
    format_rule,
    format_term,
    format_tmi,
    format_trs,
    parse_term,
    parse_tmi,
    parse_trs,
)
from .rewriting import (
    Finished,
    FuelExhausted,
    LoopDetected,
    StrategyKind,
    normalize,
    derivation_height,
    successors,
)
from .terms import Term
from .tmi import SearchBudgetExhausted, check_tmi, search_tmi
from .uncurrying import transform

_STRATEGIES = {
    "full": StrategyKind.FULL,
    "innermost": StrategyKind.INNERMOST,
    "ri": StrategyKind.RIGHTMOST_INNERMOST,
}

_EMIT_ORDER = ("input", "eta", "u", "uncurried", "eta-uncurried", "combined")

#: Exit code of each report status; main adds 3 and 4 for errors.
_EXIT_CODES = {"ok": 0, "refuted": 1, "loop": 1, "fuel-exhausted": 2,
               "budget-exhausted": 2, "undecided": 2, "vacuous": 2}

#: The last line of a verify report, by its status.
_VERDICTS = {"refuted": "refuted", "vacuous": "vacuous: no instances checked",
             "undecided": "undecided: some instances ran out of fuel", "ok": "holds"}

_ORACLES = {
    "uncurried-step": verify_uncurried_step,
    "ri-sim": verify_rightmost_simulation,
    "nf-preservation": verify_nf_preservation,
    # reject what uncurrying rejects, as the other oracles do
    "subterm-commutation": lambda trs, max_size, fuel: verify_subterm_commutation(
        transform(trs).context, max_size, fuel),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse usage failures to exit code 3 instead of its default 2
    def error(self, message):
        raise _UsageError(message)


def _witness_data(loop: LoopDetected) -> dict:
    return {
        "start": format_term(loop.start),
        "trace": [
            {
                "position": list(st.position),
                "rule": st.rule_index + 1,
                "result": format_term(st.result),
            }
            for st in loop.trace
        ],
    }


def _witness_lines(loop: LoopDetected) -> list[str]:
    data = _witness_data(loop)
    return [f"start: {data['start']}"] + [
        f"  -> {st['result']}  (rule {st['rule']} at"
        f" {'.'.join(map(str, st['position'])) or 'root'})"
        for st in data["trace"]
    ]


def _emit(args, status: str, data: dict, lines: list[str]) -> int:
    if args.json:
        report = {"command": args.command, "status": status, "data": data}
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return _EXIT_CODES[status]


def _parse_file(path: str, parse, *args):
    """parse(text of the file at path, *args); a parse error names path."""
    with open(path, encoding="utf-8") as handle:
        try:
            return parse(handle.read(), *args)
        except ParseError as e:
            raise ValueError(f"{path}: {e}") from None


def _load_problem(path: str) -> InputProblem:
    problem = _parse_file(path, parse_trs, path)
    for warning in problem.warnings:
        print(f"warning: {path}: {warning}", file=sys.stderr)
    return problem


def _term_argument(problem: InputProblem, text: str) -> Term:
    arities = {s.name: s.arity for s in problem.trs.signature}
    return parse_term(text, problem.declared_vars, arities)


def _cmd_uncurry(args, problem: InputProblem) -> int:
    result = transform(problem.trs)
    ctx = result.context
    named = {
        "input": problem.trs,
        "eta": result.eta,
        "u": result.u_rules,
        "uncurried": result.uncurried,
        "eta-uncurried": result.uncurried_eta,
        "combined": result.combined,
    }
    wanted = _EMIT_ORDER if args.emit == "all" else (args.emit,)
    lines: list[str] = []
    if args.show_arities:
        lines.extend(f"aa({name}) = {k}" for name, k in ctx.aa.items())
    for name in wanted:
        if args.emit == "all":
            lines.append(f"== {name} ==")
        lines.extend(format_trs(named[name]).splitlines())
    data = {
        "arities": ctx.aa,
        "systems": {
            name: [format_rule(r) for r in named[name].rules] for name in wanted
        },
    }
    return _emit(args, "ok", data, lines)


def _cmd_rewrite(args, problem: InputProblem) -> int:
    trs = problem.trs
    kind = _STRATEGIES[args.strategy]
    t = _term_argument(problem, args.term)
    if args.normalize:
        outcome = normalize(trs, t, kind, args.fuel)
        if isinstance(outcome, Finished):
            return _emit(args, "ok", {"normal_form": format_term(outcome.value)},
                         [format_term(outcome.value)])
        if isinstance(outcome, LoopDetected):
            return _emit(args, "loop", {"witness": _witness_data(outcome)},
                         ["loop detected"] + _witness_lines(outcome))
        return _emit(args, "fuel-exhausted", {"fuel": args.fuel},
                     [f"fuel exhausted after {args.fuel} steps"])
    if args.steps is not None:
        if args.steps < 0:
            raise _UsageError("--steps must not be negative")
        trace = [format_term(t)]
        for _ in range(args.steps):
            results = successors(trs, t, kind)
            if not results:
                break
            t = results[0]
            trace.append(f"-> {format_term(t)}")
        return _emit(args, "ok", {"trace": trace}, trace)
    result = [format_term(u) for u in successors(trs, t, kind)]
    return _emit(args, "ok", {"successors": result}, result or ["normal form"])


def _cmd_dh(args, problem: InputProblem) -> int:
    kind = _STRATEGIES[args.strategy]
    t = _term_argument(problem, args.term)
    outcome = derivation_height(problem.trs, t, kind, args.fuel)
    if isinstance(outcome, Finished):
        return _emit(args, "ok", {"dh": outcome.value}, [f"dh = {outcome.value}"])
    if isinstance(outcome, LoopDetected):
        return _emit(
            args, "loop", {"witness": _witness_data(outcome)},
            ["loop detected, height undefined"] + _witness_lines(outcome),
        )
    return _emit(args, "fuel-exhausted", {"fuel": args.fuel},
                 [f"fuel exhausted ({args.fuel} distinct terms explored)"])


def _table_output(args, table: ComplexityTable) -> int:
    lines = [f"strategy: {table.strategy.value}"]
    data_rows = []
    for n in sorted(table.rows):
        row = table.rows[n]
        witness = format_term(row.witness)
        lines.append(f"dc({n}) = {row.value}   witness: {witness}")
        data_rows.append({"n": n, "value": row.value, "witness": witness})
    data: dict = {"strategy": table.strategy.value, "rows": data_rows}
    if table.loop is not None:
        lines.append(f"loop at size {table.incomplete_at}, dc undefined")
        lines.extend(_witness_lines(table.loop))
        data["incomplete_at"] = table.incomplete_at
        data["witness"] = _witness_data(table.loop)
        return _emit(args, "loop", data, lines)
    if table.incomplete_at is not None:
        lines.append(
            f"fuel exhausted at size {table.incomplete_at}"
            f" on {format_term(table.fuel_exhausted_on)}"
        )
        data["incomplete_at"] = table.incomplete_at
        return _emit(args, "fuel-exhausted", data, lines)
    if not table.rows:
        lines.append("vacuous: no sizes tabled")
        return _emit(args, "vacuous", data, lines)
    return _emit(args, "ok", data, lines)


def _cmd_dc(args, problem: InputProblem) -> int:
    kind = _STRATEGIES[args.strategy]
    if args.relative_to is not None:
        if kind is not StrategyKind.FULL:
            raise _UsageError("relative tables are defined for --strategy full")
        modulo = _load_problem(args.relative_to)
        table = dc_relative_table(
            problem.trs, modulo.trs, args.max_size, args.fuel, args.max_vars
        )
    else:
        table = dc_table(problem.trs, args.max_size, kind, args.fuel, args.max_vars)
    return _table_output(args, table)


def _cmd_check_tmi(args, problem: InputProblem) -> int:
    interp = _parse_file(args.tmi, parse_tmi, problem.trs.signature)
    verdict = check_tmi(interp, problem.trs)
    if verdict.ok:
        cert = verdict.certificate
        lines = ["monotone: yes", "triangular: yes"]
        for i, rule in enumerate(problem.trs.rules):
            lines.append(f"rule {i + 1}: {format_rule(rule)}   strictly oriented")
        # the kind "upper-bound" prints as UpperBound
        lines.append(f"certificate: {cert.kind.title().replace('-', '')}({cert.degree})")
        lines.append(cert.note)
        data = {
            "certificate": {"kind": cert.kind, "degree": cert.degree},
            "rules": [format_rule(r) for r in problem.trs.rules],
        }
        return _emit(args, "ok", data, lines)
    lines = [f"check failed: {verdict.failure}"]
    data = {"failure": verdict.failure}
    if verdict.failing_rule_index is not None:
        rule = problem.trs.rules[verdict.failing_rule_index]
        lines.append(f"rule {verdict.failing_rule_index + 1}: {format_rule(rule)}")
        data["rule"] = format_rule(rule)
    return _emit(args, "refuted", data, lines)


def _cmd_search_tmi(args, problem: InputProblem) -> int:
    try:
        interp = search_tmi(problem.trs, args.dim, args.max_coeff, args.budget)
    except SearchBudgetExhausted as e:
        return _emit(args, "budget-exhausted", {"attempts": e.attempts}, [str(e)])
    if interp is None:
        return _emit(
            args,
            "refuted",
            {},
            [
                f"no certificate at dimension {args.dim}"
                f" with coefficients up to {args.max_coeff}"
            ],
        )
    text = format_tmi(interp)
    return _emit(args, "ok", {"degree": args.dim, "tmi": text}, text.splitlines())


def _report_output(args, report: VerificationReport) -> int:
    data = {
        "property": report.property_name,
        "instances_checked": report.instances_checked,
        "failures": [
            {
                "instance": [format_term(t) for t in f.instance],
                "expected": report.expected,
                "observed": report.observed,
            }
            for f in report.failures
        ],
        "exhausted": len(report.exhausted),
    }
    lines = [
        f"property: {report.property_name}",
        f"instances checked: {report.instances_checked}",
    ]
    for f in data["failures"]:
        lines.append(f"FAIL: expected {f['expected']}; observed {f['observed']}")
        lines.append(f"  instance: {' | '.join(f['instance'])}")
    if report.exhausted:
        lines.append(f"undecided instances: {len(report.exhausted)}")
    lines.append(_VERDICTS[report.status])
    return _emit(args, report.status, data, lines)


def _cmd_verify(args, problem: InputProblem) -> int:
    trs = problem.trs
    if args.property == "innermost-loop":
        outcome = detect_innermost_nontermination(
            trs, args.max_size, args.fuel, args.max_vars
        )
        if isinstance(outcome, LoopDetected):
            return _emit(args, "loop", {"loop": _witness_data(outcome)},
                         ["innermost loop found"] + _witness_lines(outcome))
        if isinstance(outcome, FuelExhausted):
            return _emit(args, "undecided", {"loop": None},
                         ["undecided: some start terms ran out of fuel"])
        if outcome.value == 0:
            return _emit(args, "vacuous", {"loop": None},
                         ["vacuous: no start terms searched"])
        return _emit(args, "ok", {"loop": None},
                     [f"no loop found up to size {args.max_size}"])
    report = _ORACLES[args.property](trs, args.max_size, args.fuel)
    return _report_output(args, report)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built at the first main call and then reused."""
    parser = _Parser(prog="atrs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func, command=name)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("file")
        return p

    p = command("uncurry", _cmd_uncurry, help="uncurry an applicative system")
    p.add_argument(
        "--emit",
        choices=_EMIT_ORDER + ("all",),
        default="combined",
        help="which rule set to print",
    )
    p.add_argument("--show-arities", action="store_true",
                   help="print applicative arities first")

    p = command("rewrite", _cmd_rewrite, help="rewrite a term")
    p.add_argument("--term", required=True)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="full")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--steps", type=int, help="apply this many first steps")
    group.add_argument("--normalize", action="store_true",
                       help="rewrite to normal form")
    p.add_argument("--fuel", type=int, default=10000)

    p = command("dh", _cmd_dh, help="derivation height of a term")
    p.add_argument("--term", required=True)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="full")
    p.add_argument("--fuel", type=int, default=10000)

    p = command("dc", _cmd_dc, help="derivational complexity table")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="full")
    p.add_argument("--relative-to", metavar="FILE2",
                   help="count only main-system steps, this system free")
    p.add_argument("--fuel", type=int, default=10000)
    p.add_argument("--max-vars", type=int, default=2,
                   help="most distinct variables per enumerated term; at most 1"
                   " when every system is left-linear, which gives the same table")

    p = command("check-tmi", _cmd_check_tmi, help="check a matrix interpretation")
    p.add_argument("--tmi", required=True, metavar="TMIFILE")

    p = command("search-tmi", _cmd_search_tmi, help="search for an interpretation")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-coeff", type=int, required=True)
    p.add_argument(
        "--budget", type=int, required=True,
        help="most entry choices to try (one per matrix or vector entry value,"
        " in a fixed order); the first certificate in that order is printed",
    )

    p = command("verify", _cmd_verify, help="run a property oracle")
    p.add_argument(
        "--property",
        required=True,
        choices=[*_ORACLES, "innermost-loop"],
    )
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--fuel", type=int, default=10000)
    p.add_argument("--max-vars", type=int, default=2,
                   help="most distinct variables per start term; only"
                   " innermost-loop reads it, and at most 1 on a left-linear"
                   " system, which finds the same loops")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args, _load_problem(args.file))
    except (_UsageError, ValueError, OSError) as e:
        # ParseError, TransformError and InterpretationError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        # exit 1 would read as "refuted"; a failure of atrs itself is no
        # verdict.  traceback is loaded only here, off the normal start-up path
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
