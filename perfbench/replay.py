"""The traced run: the same jobs as the CLI run, through the library.

Each job calls the public functions of the modules the CLI calls, with a
span around every call into a layer (``parsing.parse``,
``uncurrying.transform``, ``complexity.enum``, ``rewriting.height``,
``rewriting.relative``, ``tmi.search``, ``tmi.check``, ``oracles.verify``
and ``cli.report``).  dc tables are rebuilt row by row from
``terms_of_size`` and the height search, so enumeration and search get
separate spans; the rows, witnesses and stopping rule are those of
``atrs.complexity``.  Every job returns the verdict ``expected.verdict``
reads from the CLI report, so the two runs can be compared.
"""

from __future__ import annotations

import json
import os

from atrs.complexity import terms_of_size
from atrs.oracles import (
    verify_nf_preservation,
    verify_rightmost_simulation,
    verify_subterm_commutation,
    verify_uncurried_step,
)
from atrs.parsing import format_term, format_tmi, format_trs, parse_tmi, parse_trs
from atrs.rewriting import (
    Finished,
    LoopDetected,
    RelativeHeightSearch,
    StrategyKind,
    strategy_search,
)
from atrs.tmi import SearchBudgetExhausted, check_tmi, search_tmi
from atrs.uncurrying import detect_atrs, transform

from jobs import WORK, Job
from spans import Tracer

_STRATEGIES = {"full": StrategyKind.FULL, "innermost": StrategyKind.INNERMOST,
               "ri": StrategyKind.RIGHTMOST_INNERMOST}
_EMITTED = {"combined": "combined", "eta-uncurried": "uncurried_eta",
            "u": "u_rules"}
_ORACLES = {"uncurried-step": verify_uncurried_step,
            "ri-sim": verify_rightmost_simulation,
            "nf-preservation": verify_nf_preservation}
_MAX_VARS = 2  # the CLI default of --max-vars


class Replay:
    def __init__(self, tracer: Tracer, work: str):
        self.tracer = tracer
        self.work = work
        self.searches: list = []
        self.terms_enumerated = 0
        self.instances_checked = 0

    def _path(self, name: str) -> str:
        return name.replace(WORK, self.work)

    def _load(self, name: str):
        with self.tracer.span("parsing.parse"):
            with open(self._path(name), encoding="utf-8") as handle:
                return parse_trs(handle.read(), origin=name)

    def _report(self, command: str, status: str, data: dict) -> None:
        with self.tracer.span("cli.report"):
            json.dumps({"command": command, "status": status, "data": data},
                       indent=2, sort_keys=True)

    def emit(self, source: str, emit: str, out: str) -> None:
        problem = self._load(source)
        with self.tracer.span("uncurrying.transform"):
            result = transform(problem.trs, app_hint=problem.app_hint)
        with self.tracer.span("cli.report"):
            text = format_trs(getattr(result, _EMITTED[emit])) + "\n"
        with open(os.path.join(self.work, out), "w", encoding="utf-8") as handle:
            handle.write(text)

    def run(self, job: Job) -> dict:
        with self.tracer.span("job"):
            return getattr(self, "_" + job.command.replace("-", "_"))(job)

    def _dc(self, job: Job) -> dict:
        main = self._load(job.file).trs
        fuel = int(job.option("fuel"))
        modulo_file = job.option("relative-to")
        if modulo_file is not None:
            modulo = self._load(modulo_file).trs
            search = RelativeHeightSearch(main, modulo, fuel)
            layer, signature = "rewriting.relative", main.signature | modulo.signature
            strategy = StrategyKind.FULL
        else:
            strategy = _STRATEGIES[job.option("strategy")]
            search = strategy_search(main, strategy)
            layer, signature = "rewriting.height", main.signature
        self.searches.append(search)
        rows, best, witness, status = [], 0, None, "ok"
        for n in range(1, int(job.option("max-size")) + 1):
            with self.tracer.span("complexity.enum"):
                terms = list(terms_of_size(signature, n, _MAX_VARS))
            self.terms_enumerated += len(terms)
            with self.tracer.span(layer):
                for t in terms:
                    outcome = search.height(t, fuel)
                    if not isinstance(outcome, Finished):
                        status = ("loop" if isinstance(outcome, LoopDetected)
                                  else "fuel-exhausted")
                        break
                    if witness is None or outcome.value > best:
                        best, witness = outcome.value, t
            if status != "ok":
                break
            rows.append((n, best, witness))
        self._report("dc", status, {
            "strategy": strategy.value,
            "rows": [{"n": n, "value": v, "witness": format_term(w)}
                     for n, v, w in rows],
        })
        return {"status": status, "rows": [[n, v] for n, v, _ in rows]}

    def _verify(self, job: Job) -> dict:
        problem = self._load(job.file)
        prop = job.option("property")
        size, fuel = int(job.option("max-size")), int(job.option("fuel"))
        if prop == "subterm-commutation":
            with self.tracer.span("uncurrying.transform"):
                ctx = detect_atrs(problem.trs, app_hint=problem.app_hint)
            with self.tracer.span("oracles.verify"):
                report = verify_subterm_commutation(ctx, size, fuel)
        else:
            with self.tracer.span("oracles.verify"):
                report = _ORACLES[prop](problem.trs, size, fuel)
        self.instances_checked += report.instances_checked
        if report.failures:
            status = "refuted"
        elif report.vacuous:
            status = "vacuous"
        elif report.exhausted:
            status = "undecided"
        else:
            status = "ok"
        self._report("verify", status, {
            "property": report.property_name,
            "instances_checked": report.instances_checked,
            "failures": [[format_term(t) for t in f.instance]
                         for f in report.failures],
            "exhausted": len(report.exhausted),
        })
        return {"status": status, "instances_checked": report.instances_checked,
                "failures": len(report.failures),
                "exhausted": len(report.exhausted)}

    def _search_tmi(self, job: Job) -> dict:
        trs = self._load(job.file).trs
        with self.tracer.span("tmi.search"):
            try:
                interp = search_tmi(trs, int(job.option("dim")),
                                    int(job.option("max-coeff")),
                                    int(job.option("budget")))
                status = "ok" if interp is not None else "refuted"
            except SearchBudgetExhausted:
                interp, status = None, "budget-exhausted"
        text = None
        if interp is not None:
            with self.tracer.span("cli.report"):
                text = format_tmi(interp)
            if job.saves is not None:
                with open(os.path.join(self.work, job.saves), "w",
                          encoding="utf-8") as handle:
                    handle.write(text)
        self._report("search-tmi", status, {"tmi": text})
        return {"status": status, "tmi": text}

    def _check_tmi(self, job: Job) -> dict:
        trs = self._load(job.file).trs
        with self.tracer.span("parsing.parse"):
            with open(self._path(job.option("tmi")), encoding="utf-8") as handle:
                interp = parse_tmi(handle.read(), trs.signature)
        with self.tracer.span("tmi.check"):
            checked = check_tmi(interp, trs)
        status = "ok" if checked.ok else "refuted"
        degree = checked.certificate.degree if checked.ok else None
        self._report("check-tmi", status, {"degree": degree})
        return {"status": status, "degree": degree}
