"""The four workloads: their job lists, how a job's output is recorded, and
the output check.

A job is one public library call on one input. Its output is recorded as
plain JSON data and compared with the record frozen in ``expected/``; on the
reset-threshold workloads every instance's outputs are also checked against
invariants that need no frozen record.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
LIBRARY_MODULES = ("core", "engine", "classify", "monoid", "harness", "families")
SOLVERS = ("greedy_compression_word", "reset_word_via_extension",
           "eppstein_orientable_word", "a10_binary_idempotent_word")


class LibraryMissing(RuntimeError):
    """The checkout holds no synchro sources to benchmark."""


def load_library(root):
    """Import the library from ``<root>/src`` afresh; modules by short name.

    Earlier imports are dropped first, so a repeated call pays the full
    import cost again, as a new process would.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "synchro", "__init__.py")):
        raise LibraryMissing(f"no synchro package under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "synchro" or m.startswith("synchro.")]:
        del sys.modules[name]
    lib = {short: importlib.import_module(f"synchro.{short}") for short in LIBRARY_MODULES}
    origin = os.path.dirname(os.path.abspath(lib["core"].__file__))
    if origin != os.path.join(src, "synchro"):
        raise LibraryMissing(f"synchro was imported from {origin}, not from {src}")
    return lib


@dataclass(frozen=True)
class Job:
    instance: str
    module: str
    func: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    @property
    def id(self):
        return f"{self.instance}/{self.func}"


@dataclass
class Inputs:
    jobs: list
    dfas: dict          # instance name -> Dfa, for invariants and the core probe
    expected: dict      # job id -> frozen output


def record(func, result):
    """A job's output as plain JSON data."""
    if func == "exact_reset_threshold":
        rt, word = result
        return {"rt": rt, "word": list(word)}
    if func == "is_synchronizing":
        return {"synchronizing": result}
    if func in SOLVERS:
        return {"word": list(result.word), "length": result.length, "target": result.target}
    if func == "census_max_rt":
        return {"classes": result.classes, "max_rt": result.max_rt,
                "attainers": result.attainers}
    if func == "run_suite":
        return [{k: v for k, v in r.to_json().items() if k != "seconds"} for r in result]
    raise ValueError(f"no output record for {func}")


def run_job(lib, job):
    """Call the job's function, resolved on its module now, and record the output.

    ``NotExtensible`` is an output (the subset it names); any other exception
    is recorded as an error, which the check counts as a failure.
    """
    fn = getattr(lib[job.module], job.func)
    try:
        result = fn(*job.args, **job.kwargs)
    except lib["engine"].NotExtensible as exc:
        return {"not_extensible": sorted(exc.subset)}
    except Exception as exc:  # a crash is a failed job, not the end of the run
        return {"error": f"{type(exc).__name__}: {exc}"}
    return record(job.func, result)


def failed_jobs(lib, inputs, outputs):
    """Ids of jobs whose output is an error, differs from its frozen record,
    or breaks a reset-word invariant."""
    bad = set()
    by_instance = {}
    for job in inputs.jobs:
        out = outputs[job.id]
        if isinstance(out, dict) and "error" in out:
            bad.add(job.id)
        expected = inputs.expected.get(job.id)
        if expected is not None and out != expected:
            bad.add(job.id)
        by_instance.setdefault(job.instance, {})[job.func] = out
    for name, outs in by_instance.items():
        d = inputs.dfas.get(name)
        if d is not None and "exact_reset_threshold" in outs:
            bad.update(f"{name}/{func}" for func in invariant_violations(lib["core"], d, outs))
    return bad


def invariant_violations(core, d, outs):
    """Functions whose output on automaton d breaks an invariant: the exact
    word resets the full set to one state and has length rt, every solver
    word resets, and no solver word is shorter than rt."""
    full = core.StateSet.full(d.n)

    def resets(word):
        return len(core.image(d, full, tuple(word))) == 1

    bad = []
    exact = outs["exact_reset_threshold"]
    rt = exact.get("rt")
    if rt is None or rt != len(exact["word"]) or not resets(exact["word"]):
        bad.append("exact_reset_threshold")
        rt = None
    if outs.get("is_synchronizing", {"synchronizing": True}) != {"synchronizing": True}:
        bad.append("is_synchronizing")
    for func in SOLVERS:
        out = outs.get(func)
        if out is None or "word" not in out:
            continue
        if (out["length"] != len(out["word"]) or not resets(out["word"])
                or (rt is not None and out["length"] < rt)):
            bad.append(func)
    return bad


def load_expected(workload):
    """The frozen outputs of a workload's jobs, by job id."""
    path = os.path.join(HERE, "expected", f"{workload}.json")
    with open(path) as fh:
        return json.load(fh)["jobs"]


# -- workload inputs -----------------------------------------------------------
#
# Each build_* function takes the library modules and the frozen outputs and
# returns the Inputs. The instances and the job order are fixed because both move
# the measured figures: seed-selected random instances would make the pass
# cost seed-dependent (at n=64 one instance's exact threshold takes 0.07 s
# and another's 5.9 s), and a seed-shuffled job order moved random_rt's peak
# RSS between 60 and 68 MB. The workload seed draws the core probe's mask
# sample (tracing.probe_core).

EXTREMAL = ([("cerny", (n,)) for n in range(12, 18)]
            + [("dnk", (n, n - 1)) for n in (11, 13, 15, 17)]
            + [("dnk", nk) for nk in ((11, 3), (13, 7), (15, 8), (16, 9))]
            + [("rystsov", (n,)) for n in (12, 13, 14)]
            + [("v", (n,)) for n in (12, 13)])


def _extremal_solvers(family, params):
    if family == "cerny":
        return SOLVERS
    if family == "dnk" and params[1] == params[0] - 1:
        # orientable under the identity order only when k = n-1
        return SOLVERS[:3]
    return SOLVERS[:2]


def build_extremal_rt(lib, expected):
    fam = lib["families"]
    jobs, dfas = [], {}
    for family, params in EXTREMAL:
        d = getattr(fam, f"gen_{family}")(*params).dfa
        dfas[d.name] = d
        for func in ("exact_reset_threshold",) + _extremal_solvers(family, params):
            jobs.append(Job(d.name, "engine", func, (d,)))
    return Inputs(jobs, dfas, expected)


# (states, letters, sampler seed); binary n=64 seed 2 is not extensible
RANDOM = ([(48, 2, s) for s in range(6)] + [(52, 2, s) for s in range(3)]
          + [(56, 2, 3), (64, 2, 2), (64, 2, 4)]
          + [(n, 3, s) for n in (32, 36, 40) for s in range(3)])
RANDOM_CAP = 64


def build_random_rt(lib, expected):
    harness = lib["harness"]
    jobs, dfas = [], {}
    for n, k, s in RANDOM:
        name = f"random-{n}x{k}-s{s}"
        d = harness.random_synchronizing(n, k, seed=s)
        dfas[name] = d
        jobs.append(Job(name, "engine", "is_synchronizing", (d,)))
        for func in ("exact_reset_threshold",) + SOLVERS[:2]:
            jobs.append(Job(name, "engine", func, (d,), {"cap": RANDOM_CAP}))
    return Inputs(jobs, dfas, expected)


def build_census(lib, expected):
    core, harness = lib["core"], lib["harness"]
    filt = harness.EnumerationFilter(letters=2, states=5, eulerian=True, synchronizing=True)
    job = Job("census-2x5-eulerian", "harness", "census_max_rt", (filt,))
    # the probe runs on the census's own automata: its frozen attainers
    dfas = {f"attainer-{i}": core.Dfa(5, ("a", "b"), table)
            for i, table in enumerate(expected.get(job.id, {}).get("attainers", []))}
    return Inputs([job], dfas, expected)


def build_verify_paper(lib, expected):
    fam = lib["families"]
    job = Job("paper", "harness", "run_suite", ("paper",), {"max_n": 10, "workers": 1})
    # probe automata: the family instances the cases themselves build
    dfas = {}
    for n in range(3, 11):
        for inst in (fam.gen_cerny(n), fam.gen_rystsov(n), fam.gen_v(n)):
            dfas[inst.dfa.name] = inst.dfa
    return Inputs([job], dfas, expected)


WORKLOADS = {
    "extremal_rt": build_extremal_rt,
    "random_rt": build_random_rt,
    "census": build_census,
    "verify_paper": build_verify_paper,
}
