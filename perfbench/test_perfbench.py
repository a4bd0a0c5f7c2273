"""Tests of the benchmark itself: job lists, the output check, span
accounting, the core probe, the host-speed probe and the declared metric
names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    # the already-imported library; load_library's fresh re-import would
    # replace the modules other test files hold
    return {m: importlib.import_module(f"synchro.{m}") for m in workloads.LIBRARY_MODULES}


def job_ids(lib, workload):
    inputs = workloads.WORKLOADS[workload](lib, {})
    return [job.id for job in inputs.jobs]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_job_lists_are_deterministic(lib, workload):
    # the workload seed draws only the probe's masks, so any two builds agree
    assert job_ids(lib, workload) == job_ids(lib, workload)


def test_every_job_has_a_frozen_output(lib):
    for workload in workloads.WORKLOADS:
        expected = workloads.load_expected(workload)
        assert set(job_ids(lib, workload)) == set(expected)


def small_inputs(lib, frozen):
    """The extremal jobs of one cheap instance, with or without frozen outputs."""
    inputs = workloads.build_extremal_rt(lib, workloads.load_expected("extremal_rt"))
    jobs = [job for job in inputs.jobs if job.instance == "dnk-11-10"]
    expected = {job.id: inputs.expected[job.id] for job in jobs} if frozen else {}
    return workloads.Inputs(jobs, inputs.dfas, expected)


def error_rate(lib, inputs, outputs):
    return len(workloads.failed_jobs(lib, inputs, outputs)) / len(inputs.jobs)


@pytest.mark.parametrize("frozen", [True, False])
def test_corrupted_output_raises_error_rate(lib, frozen):
    inputs = small_inputs(lib, frozen)
    outputs = {job.id: workloads.run_job(lib, job) for job in inputs.jobs}
    assert error_rate(lib, inputs, outputs) == 0
    exact = "dnk-11-10/exact_reset_threshold"
    word = outputs[exact]["word"]
    # a word one letter short no longer resets, and its length is not rt
    corrupted = dict(outputs, **{exact: {"rt": len(word) - 1, "word": word[:-1]}})
    assert error_rate(lib, inputs, corrupted) > 0
    greedy = "dnk-11-10/greedy_compression_word"
    shorter = dict(outputs[greedy], word=word[:-1], length=len(word) - 1)
    assert error_rate(lib, inputs, dict(outputs, **{greedy: shorter})) > 0
    crashed = dict(outputs, **{greedy: {"error": "AssertionError: boom"}})
    assert error_rate(lib, inputs, crashed) > 0


def test_not_extensible_is_an_output(lib):
    engine = lib["engine"]

    def not_extensible(d):
        raise engine.NotExtensible((2, 0))

    fake = dict(lib, fake=types.SimpleNamespace(solve=not_extensible))
    out = workloads.run_job(fake, workloads.Job("toy", "fake", "solve", (None,)))
    assert out == {"not_extensible": [0, 2]}


def fake_library():
    """Traced modules whose functions call each other through module attributes."""
    lib = {}
    for name in tracing.TRACED_MODULES:
        lib[name] = types.ModuleType(f"fake.{name}")
    code = {
        "engine": "def leaf(n):\n    return sum(i * i for i in range(n))\n"
                  "def step(n):\n    return leaf(n) + leaf(n // 2)\n",
        "classify": "def check(n):\n    return engine.step(n) % 2 == 0\n",
        "harness": "def random_thing(n):\n"
                   "    for i in range(5):\n"
                   "        if classify.check(n + i):\n"
                   "            return i\n"
                   "    return -1\n"
                   "def _private(n):\n    return n\n",
        "monoid": "", "families": "",
    }
    for name, src in code.items():
        mod = lib[name]
        mod.engine, mod.classify = lib["engine"], lib["classify"]
        exec(compile(src, f"<{name}>", "exec"), mod.__dict__)
    return lib


def test_span_self_times_and_gaps_account_for_wall_time():
    lib = fake_library()
    original = lib["engine"].leaf
    tr = tracing.Tracer()
    tr.install(lib)
    tr.begin()
    for n in (2000, 3000, 4000):
        lib["harness"].random_thing(n)
        sum(range(20000))  # benchmark time between top-level spans
    tr.end()
    tr.uninstall()
    assert lib["engine"].leaf is original and "harness._private" not in tr.stats
    total_self = sum(st.self_s for st in tr.stats.values())
    assert tr.gap_s > 0 and total_self > 0
    assert abs(total_self + tr.gap_s - tr.wall_s) <= 1e-9 * max(1.0, tr.wall_s)
    step, leaf = tr.stats["engine.step"], tr.stats["engine.leaf"]
    assert leaf.calls == 2 * step.calls
    assert abs(step.self_s - (step.total_s - leaf.total_s)) < 1e-9
    # checks = calls into the sampler's first check; every call here accepts
    assert tr.counters["sampler.accepted"] == 3
    assert tr.counters["sampler.checks"] == tr.stats["classify.check"].calls


def test_span_accounting_with_a_ticking_clock():
    ticks = iter(range(1000))
    lib = fake_library()
    tr = tracing.Tracer(clock=lambda: next(ticks))
    tr.install(lib)
    tr.begin()
    lib["engine"].step(10)
    tr.end()
    tr.uninstall()
    # begin=0; step 1..6 containing leaf 2..3 and 4..5; end=7
    assert tr.stats["engine.step"].total_s == 5 and tr.stats["engine.step"].self_s == 3
    assert tr.stats["engine.leaf"].self_s == 2
    assert tr.gap_s == 2 and tr.wall_s == 7 and tr.unaccounted_s() == 0


def test_missing_probe_reports_missing(lib):
    core = lib["core"]
    dfas = [lib["families"].gen_cerny(6).dfa]
    full = tracing.probe_core(core, dfas, seed=3, samples=200, repeats=1)
    assert all(isinstance(v, float) and v > 0 for v in full.values())
    without_image = types.SimpleNamespace(preimage_mask=core.preimage_mask,
                                          letter_preimage_masks=core.letter_preimage_masks)
    out = tracing.probe_core(without_image, dfas, seed=3, samples=200, repeats=1)
    assert out["image_mask"] == "missing" and out["preimage_mask"] > 0
    out = tracing.probe_core(types.SimpleNamespace(), dfas, seed=3, samples=200, repeats=1)
    assert out == {"image_mask": "missing", "preimage_mask": "missing"}


def test_declared_metrics_match_the_benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    probe = {"image_mask": 1.0, "preimage_mask": 1.0}
    made = run.layer_metrics(tracing.Tracer(), tracing.Tracer(), 1, probe, 0.0)
    assert declared == [(name, m["unit"]) for name, m in made.items()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_host_probe_scales_timings_and_stops():
    # where the probe loop takes twice the reference time, the host runs at
    # half the reference speed
    assert run.at_reference_speed(3.0, [2 * run.PROBE_REF_S] * 4) == pytest.approx(1.5)
    before = signal.getsignal(signal.SIGALRM)
    with run.HostSpeed() as host:
        loop_wall, wall, ref = host.timed(run.probe_s, 2_000_000)
    assert host.samples and ref > 0
    # the probe loops ran inside the timed loop, and are taken out of its time
    assert 0 < wall < loop_wall
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_batch_sums_each_jobs_median_over_the_passes():
    passes = [run.Pass(0.0, [], {}, ref) for ref in ([1.0, 5.0], [2.0, 1.0], [3.0, 2.0])]
    # the first job's median is 2, the second's is 2: a slow pass of one
    # job and a slow pass of the other both drop out
    assert run.batch_ref_s(passes) == 4.0


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert run.tail(list(range(10))) is None
    pct, value = run.tail(list(range(100)))
    assert pct == 90 and value == 89


def test_run_without_library_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
