"""Run one synchro benchmark workload and print its metrics.

    python3 perfbench/run.py --workload extremal_rt --seed 0 --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory. One closed-loop client: jobs run back to back in this thread and
process. ``--trace 0`` times set-ups and passes over the job list,
scales the times to a reference host speed (``HostSpeed``) and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without library sources the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass

from tracing import TRACED_MODULES, Stat, Tracer, probe_core
from workloads import (WORKLOADS, SOLVERS, LibraryMissing, failed_jobs, load_expected,
                       load_library, run_job)

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS_PER_PASS = 3
# the metrics in the JSON of an untraced run: defined, and never zero, on
# every workload
END_TO_END = {"setup_s": "s", "batch_s": "s", "peak_rss_mb": "MB"}
CASE_IDS = ("1-cerny-formula", "2-dnk-formula", "3-frobenius", "4-unbounded-alphabet",
            "5-linear-families", "6-solver-bounds", "7-a10-solver", "8-c7-solver",
            "9-eppstein", "10-classifier", "11-extension-classes", "12-eulerian-census",
            "13-bound-registry")
CALLED = ("engine.exact_reset_threshold", "engine.is_synchronizing")
SOLVER_SPANS = tuple(f"engine.{fn}" for fn in SOLVERS)
CALLED_TOO = ("engine.shortest_extending_word", "engine.extensibility_profile",
              "classify.is_eulerian", "classify.is_completely_reachable",
              "monoid.transition_monoid")
# Host speed. On the shared host the same pass's wall time moved by up to
# 1.5x within seconds, and its process CPU time with it, so the slowdown is
# the host's. While an untraced run times its set-ups and jobs, a SIGALRM
# handler times a fixed probe loop every PROBE_PERIOD_S seconds, and each
# timing is scaled to the seconds it would take on a host where the probe
# loop takes PROBE_REF_S. The loop is integer arithmetic: loops over sets,
# dicts or large lists ran twice as slow inside a pass as alone, because the
# pass had evicted their data from the caches, so they would scale a timing
# by the program's own memory use; this one ran 10% slower.
PROBE_PERIOD_S = 0.02
PROBE_STEPS = 800
PROBE_REF_S = 1e-4


@dataclass
class Pass:
    wall_s: float
    latencies: list
    outputs: dict
    ref_s: list     # each job's seconds at reference host speed


def wall_timed(fn, *args):
    """(fn's result, its wall seconds, its wall seconds again): timing with
    no host-speed scaling, for the traced run."""
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    return result, wall, wall


def run_pass(lib, inputs, tracer=None, timed=wall_timed):
    """One pass over the job list, each job timed by ``timed``. The clock
    brackets the jobs only; outputs are checked after the pass."""
    outputs, latencies, ref = {}, [], []
    if tracer is not None:
        tracer.begin()
    start = time.perf_counter()
    for job in inputs.jobs:
        outputs[job.id], wall, r = timed(run_job, lib, job)
        latencies.append(wall)
        ref.append(r)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.end()
    return Pass(wall, latencies, outputs, ref)


def setup(root, workload, tracer=None):
    """Import the library, build the job inputs and load the frozen outputs."""
    lib = load_library(root)
    if tracer is not None:
        tracer.install(lib)
    expected = load_expected(workload)
    inputs = WORKLOADS[workload](lib, expected)
    if tracer is not None:
        tracer.uninstall()
    return lib, inputs


def calibrate(repeats=3, steps=300_000):
    """Seconds for a fixed pure-Python loop: a record of host speed."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(steps):
            acc = (acc * 31 + i) & 0xFFFF
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe_s(steps=PROBE_STEPS):
    """Seconds for the probe loop, the calibration loop cut to ``steps``."""
    start = time.perf_counter()
    acc = 0
    for i in range(steps):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def at_reference_speed(wall_s, loop_times):
    """wall_s scaled to a host where the probe loop takes PROBE_REF_S, by the
    median probe loop time sampled during it."""
    return wall_s * PROBE_REF_S / statistics.median(loop_times)


class HostSpeed:
    """Samples the probe loop on a timer between ``with`` entry and exit,
    and times calls both in wall seconds and at reference speed."""

    def __init__(self):
        self.samples = []       # (start, seconds) of each probe loop

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, probe_s()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """(fn's result, its wall seconds, its seconds at reference speed).
        Probe loops that ran inside the call are taken out of its time; a call
        too short to hold one is scaled by a loop run right after it."""
        first = len(self.samples)
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        inside = [t for s, t in self.samples[first:] if start <= s < end]
        wall = end - start - sum(inside)
        return result, wall, at_reference_speed(wall, inside or [probe_s()])


def git_commit(root):
    """HEAD's commit when the checkout is a git work tree, else "unknown"."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def tail(latencies):
    """(percentile, value): the highest percentile with ten samples above it."""
    ranked = sorted(latencies)
    if len(ranked) < 11:
        return None
    return 100 * (len(ranked) - 10) / len(ranked), ranked[-11]


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- the two kinds of run ----------------------------------------------------


def batch_ref_s(passes):
    """A pass at reference host speed: each job's median over the passes,
    summed. A slowdown that hits different jobs in different passes drops
    out of each job's median."""
    return sum(statistics.median(times) for times in zip(*(p.ref_s for p in passes)))


def timed_run(root, args, say):
    setup_wall, setup_ref, passes = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    with HostSpeed() as host:
        while True:
            # set-ups interleave with the passes, so that their median, like
            # batch_s's, spans the host-speed drift over the whole run
            for _ in range(SETUPS_PER_PASS):
                (lib, inputs), wall, ref = host.timed(setup, root, args.workload)
                setup_wall.append(wall)
                setup_ref.append(ref)
                gc.collect()  # free the replaced modules, which hold reference cycles
            passes.append(run_pass(lib, inputs, timed=host.timed))
            attempted += len(inputs.jobs)
            failed += len(failed_jobs(lib, inputs, passes[-1].outputs))
            pass_s = statistics.median(p.wall_s for p in passes)
            if time.perf_counter() - start + pass_s > args.seconds:
                break
    latencies = [x for p in passes for x in p.latencies]
    values = {"setup_s": statistics.median(setup_ref),
              "batch_s": batch_ref_s(passes),
              "peak_rss_mb": peak_rss_mb()}
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    say(f"host probe   {len(host.samples)} loops of {PROBE_STEPS} steps, median "
        f"{1e6 * statistics.median(t for _, t in host.samples):.1f} us; "
        f"reference {1e6 * PROBE_REF_S:.0f} us")
    say(f"setup_s      {metrics['setup_s']['value']:.4f} s   at reference speed, median of "
        f"{len(setup_ref)} set-ups, {SETUPS_PER_PASS} before each pass; wall median "
        f"{statistics.median(setup_wall):.4f} s")
    pass_ref = sorted(sum(p.ref_s) for p in passes)
    say(f"batch_s      {metrics['batch_s']['value']:.4f} s   at reference speed, each job's "
        f"median over {len(passes)} passes, summed; passes "
        f"({' '.join(f'{x:.3f}' for x in pass_ref)}); wall median "
        f"{statistics.median(sum(p.latencies) for p in passes):.4f} s")
    if len(inputs.jobs) > 1:
        say(f"job_p50_ms   {1000 * statistics.median(latencies):.3f} ms   "
            f"{len(latencies)} jobs")
        top = tail(latencies)
        if top is not None:
            say(f"job_tail_ms  {1000 * top[1]:.3f} ms   p{top[0]:.1f} of {len(latencies)} jobs")
    else:
        say("job_p50_ms   n/a   one job per pass: see batch_s")
        say("job_tail_ms  n/a   one job per pass: see batch_s")
    say(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB  getrusage high-water mark")
    say(f"error_rate   {failed / attempted:.4f}   {failed} of {attempted} jobs failed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced_run(root, args, say):
    setup_tracer = Tracer()
    setup_tracer.begin()
    lib, inputs = setup(root, args.workload, setup_tracer)
    setup_tracer.end()
    # untraced and traced passes alternate, so host-speed drift during the
    # run falls on both sides of trace.overhead_s alike
    pass_tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(lib, inputs))
        pass_tracer.install(lib)
        try:
            traced.append(run_pass(lib, inputs, pass_tracer))
        finally:
            pass_tracer.uninstall()
        pair = statistics.median(p.wall_s for p in plain) + statistics.median(
            p.wall_s for p in traced)
        if time.perf_counter() - start + pair > args.seconds:
            break
    probe = probe_core(lib["core"], list(inputs.dfas.values()), args.seed)
    attempted = len(inputs.jobs) * (len(plain) + len(traced))
    failed = sum(len(failed_jobs(lib, inputs, p.outputs)) for p in plain + traced)
    overhead = (statistics.median(p.wall_s for p in traced)
                - statistics.median(p.wall_s for p in plain))
    metrics = layer_metrics(setup_tracer, pass_tracer, len(traced), probe, overhead)
    accounted = True
    for phase, tr in (("set-up", setup_tracer), ("passes", pass_tracer)):
        gap = tr.unaccounted_s()
        accounted &= abs(gap) <= 1e-6 + 1e-3 * tr.wall_s
        say(f"{phase}: wall {tr.wall_s:.4f} s = span self times + untraced gaps "
            f"{tr.gap_s:.4f} s, unaccounted {gap:.2e} s")
    say(f"{len(plain)} untraced and {len(traced)} traced passes, alternating; "
        "per-layer values are one set-up plus one traced pass")
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
        say(f"{name:48s} {shown} {m['unit']}")
    return {"correct": failed == 0 and accounted, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def layer_metrics(setup_tr, pass_tr, npasses, probe, overhead_s):
    """The per-layer metrics, each for one set-up plus one (mean) traced pass."""

    def per(value):
        return value(setup_tr) + value(pass_tr) / npasses

    def stat(name, attr):
        return per(lambda tr: getattr(tr.stats.get(name, Stat()), attr))

    def count(key):
        return per(lambda tr: tr.counters[key])

    def sampler(attr):
        return per(lambda tr: sum(getattr(st, attr) for name, st in tr.stats.items()
                                  if name.startswith("harness.random_")))

    out = {}
    for fn in ("image_mask", "preimage_mask"):
        out[f"core.{fn}.steps_per_s"] = metric(probe[fn], "1/s")
    for name in CALLED:
        out[f"{name}.calls"] = metric(stat(name, "calls"), "count")
        out[f"{name}.self_s"] = metric(stat(name, "self_s"), "s")
    for name in SOLVER_SPANS:
        out[f"{name}.self_s"] = metric(stat(name, "self_s"), "s")
    for name in CALLED_TOO:
        out[f"{name}.calls"] = metric(stat(name, "calls"), "count")
        out[f"{name}.self_s"] = metric(stat(name, "self_s"), "s")
    out["monoid.transition_monoid.elements"] = metric(count("monoid.elements"), "count")
    out["harness.census_max_rt.self_s"] = metric(stat("harness.census_max_rt", "self_s"), "s")
    classes, candidates = count("census.classes"), count("census.candidates")
    out["harness.census.classes"] = metric(classes, "count")
    out["harness.census.candidates"] = metric(candidates, "count")
    out["harness.census.yield"] = metric(classes / candidates if candidates else 0.0, "ratio")
    checks, accepted = count("sampler.checks"), count("sampler.accepted")
    out["harness.sampler.self_s"] = metric(sampler("self_s"), "s")
    out["harness.sampler.total_s"] = metric(sampler("total_s"), "s")
    out["harness.sampler.checks"] = metric(checks, "count")
    out["harness.sampler.accepted"] = metric(accepted, "count")
    out["harness.sampler.acceptance"] = metric(accepted / checks if checks else 0.0, "ratio")
    for case in CASE_IDS:
        out[f"harness.run_case.{case}.total_s"] = metric(
            per(lambda tr: tr.case_s[case]), "s")
    out["families.self_s"] = metric(setup_tr.self_by_layer()["families"], "s")
    for layer in TRACED_MODULES:
        out[f"layer.{layer}.self_s"] = metric(per(lambda tr: tr.self_by_layer()[layer]), "s")
    out["layer.bench.self_s"] = metric(per(lambda tr: tr.gap_s), "s")
    out["trace.wall_s"] = metric(per(lambda tr: tr.wall_s), "s")
    out["trace.overhead_s"] = metric(overhead_s, "s")
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.path.dirname(HERE)

    def say(line):
        print(line, flush=True)

    say(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace}")
    say(f"host: calibration_s {calibrate():.4f} python {platform.python_version()} "
        f"nproc {os.cpu_count()} commit {git_commit(root)}")
    try:
        result = (traced_run if args.trace else timed_run)(root, args, say)
    except LibraryMissing as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
