"""The four workloads: fixed paper systems whose answers are known exactly.

A workload is a list of setup emits (``atrs uncurry --emit`` calls that make
input files) and a list of tasks.  A task is a short sequence of jobs that
must run in order (a certificate search and the check of what it found).  In
workloads whose jobs share step caches the seed permutes the tasks, so that
no single order is measured.  Each job names its expected verdict by
``key`` in ``expected.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Token in file arguments replaced by the run's private work directory.
WORK = "{work}"


@dataclass(frozen=True)
class Job:
    key: str
    command: str
    file: str
    options: tuple[tuple[str, str], ...]
    #: file (in the work directory) the found certificate is written to
    saves: str | None = None

    def option(self, name: str) -> str | None:
        return dict(self.options).get(name)

    def argv(self, work: str) -> list[str]:
        out = [self.command, self.file.replace(WORK, work)]
        for name, value in self.options:
            out += [f"--{name}", value.replace(WORK, work)]
        return out + ["--json"]


@dataclass(frozen=True)
class Workload:
    name: str
    emits: tuple[tuple[str, str, str], ...]  # (source file, --emit, output name)
    tasks: tuple[tuple[Job, ...], ...]
    shuffled: bool

    def task_order(self, seed: int) -> list[int]:
        """Indices into tasks, in the order the seed runs them."""
        order = list(range(len(self.tasks)))
        if self.shuffled:
            random.Random(seed).shuffle(order)
        return order

    def ordered_tasks(self, seed: int) -> list[tuple[Job, ...]]:
        return [self.tasks[i] for i in self.task_order(seed)]


def _dc(key, file, strategy, max_size, relative_to=None):
    options = [("strategy", strategy), ("max-size", str(max_size)),
               ("fuel", "200000")]
    if relative_to is not None:
        options.append(("relative-to", relative_to))
    return Job(key, "dc", file, tuple(options))


def _search(key, file, max_coeff, saves=None):
    options = (("dim", "2"), ("max-coeff", str(max_coeff)),
               ("budget", "100000000"))
    return Job(key, "search-tmi", file, options, saves)


def _check(key, file, tmi):
    return Job(key, "check-tmi", file, (("tmi", f"{WORK}/{tmi}"),))


_ORACLE_SOURCES = (("add", "trs/add.trs"), ("switch", "trs/switch.trs"),
                   ("double", "trs/double.trs"))
_ORACLES = ("uncurried-step", "ri-sim", "nf-preservation", "subterm-commutation")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "idc-doubling",
            (("trs/double.trs", "combined", "double_uncurried.trs"),),
            ((_dc("idc-doubling", f"{WORK}/double_uncurried.trs", "innermost", 7),),),
            shuffled=False,
        ),
        Workload(
            "dc-addition",
            (),
            ((_dc("dc-addition", "trs/add.trs", "full", 10),),),
            shuffled=False,
        ),
        Workload(
            "tmi-search",
            (("trs/add.trs", "combined", "add_uncurried.trs"),
             ("trs/double.trs", "combined", "double_uncurried.trs")),
            (
                (_search("tmi/add-c1/search", f"{WORK}/add_uncurried.trs", 1, "add-c1.tmi"),
                 _check("tmi/add-c1/check", f"{WORK}/add_uncurried.trs", "add-c1.tmi")),
                (_search("tmi/add-c2/search", f"{WORK}/add_uncurried.trs", 2, "add-c2.tmi"),
                 _check("tmi/add-c2/check", f"{WORK}/add_uncurried.trs", "add-c2.tmi")),
                (_search("tmi/double-c1/search", f"{WORK}/double_uncurried.trs", 1),),
            ),
            shuffled=True,
        ),
        Workload(
            "verify-relative",
            (("trs/add.trs", "eta-uncurried", "add_eta_uncurried.trs"),
             ("trs/add.trs", "u", "add_u.trs")),
            tuple(
                (Job(f"verify/{name}/{prop}", "verify", path,
                     (("property", prop), ("max-size", "6"), ("fuel", "10000"))),)
                for name, path in _ORACLE_SOURCES
                for prop in _ORACLES
            )
            + ((_dc("relative/add", f"{WORK}/add_eta_uncurried.trs", "full", 6,
                    relative_to=f"{WORK}/add_u.trs"),),),
            shuffled=True,
        ),
    )
}

#: Files the workloads read from the repository; a checkout without them
#: cannot be benchmarked.
INPUTS = ("src/atrs/cli.py", "trs/add.trs", "trs/double.trs", "trs/switch.trs")
