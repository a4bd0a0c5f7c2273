"""Outside-in tracing for the benchmark: span wrappers and the core probe.

The tracer replaces public functions on the library's module objects with
wrappers that time each call. Only calls resolved through a module attribute
at call time are seen: a name bound with ``from module import name`` keeps
pointing at the original function. ``engine`` binds ``image_mask`` and
``preimage_mask`` that way, so the single-letter step is timed by
``probe_core`` instead of by spans.
"""

from __future__ import annotations

import functools
import inspect
import random
import statistics
import time
import types
from collections import Counter
from dataclasses import dataclass

# Modules whose public functions get span wrappers. ``core`` is measured by
# the probe; ``bounds`` and ``cli`` are not on any workload's path.
TRACED_MODULES = ("engine", "classify", "monoid", "harness", "families")


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class _Frame:
    __slots__ = ("start", "child_s", "first_child", "first_calls")

    def __init__(self, start):
        self.start = start
        self.child_s = 0.0
        self.first_child = None
        self.first_calls = 0


class Tracer:
    """Span statistics for one phase of a run (a set-up, or the passes).

    A span's self time is its duration minus the durations of the spans it
    called directly. Time between top-level spans is the benchmark's own
    (``gap_s``), so ``sum(self_s) + gap_s == wall_s`` for every phase.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.counters = Counter()
        self.case_s = Counter()
        self.gap_s = 0.0
        self.wall_s = 0.0
        self._stack = []
        self._began = self._mark = None
        self._saved = []

    # -- phase boundaries ----------------------------------------------------

    def begin(self):
        self._mark = self._began = self.clock()

    def end(self):
        now = self.clock()
        self.gap_s += now - self._mark
        self.wall_s += now - self._began
        self._mark = None

    # -- wrappers --------------------------------------------------------------

    def install(self, lib):
        """Wrap every public, non-generator function defined in a traced module."""
        for short in TRACED_MODULES:
            mod = lib[short]
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(f"{short}.{attr}", obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, name, fn):
        call = self._call
        stat = self.stats.setdefault(name, Stat())
        observe = self._observer(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            return call(stat, observe, fn, args, kwargs)

        return span

    def _call(self, stat, observe, fn, args, kwargs):
        start = self.clock()
        stack = self._stack
        if stack:
            parent = stack[-1]
            if parent.first_child is None:
                parent.first_child = stat
            if parent.first_child is stat:
                parent.first_calls += 1
        else:
            self.gap_s += start - self._mark
        frame = _Frame(start)
        stack.append(frame)
        result = None
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = self.clock()
            stack.pop()
            dur = end - start
            stat.calls += 1
            stat.total_s += dur
            stat.self_s += dur - frame.child_s
            if stack:
                stack[-1].child_s += dur
            else:
                self._mark = end
            if observe is not None:
                observe(frame, args, result, ok, dur)

    def _observer(self, name):
        """Counts taken at a layer boundary from arguments and results, or None."""
        counters = self.counters
        if name == "monoid.transition_monoid":
            def observe(frame, args, result, ok, dur):
                if ok:
                    counters["monoid.elements"] += len(result)
        elif name == "harness.census_max_rt":
            def observe(frame, args, result, ok, dur):
                # candidates = calls into the first filter check
                counters["census.candidates"] += frame.first_calls
                if ok:
                    counters["census.classes"] += result.classes
        elif name.startswith("harness.random_"):
            def observe(frame, args, result, ok, dur):
                counters["sampler.checks"] += frame.first_calls
                counters["sampler.accepted"] += ok
        elif name == "harness.run_case":
            def observe(frame, args, result, ok, dur):
                self.case_s[args[0].case_id] += dur
        else:
            observe = None
        return observe

    # -- summaries -------------------------------------------------------------

    def self_by_layer(self):
        out = Counter({layer: 0.0 for layer in TRACED_MODULES})
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_s
        return out

    def unaccounted_s(self):
        """wall_s minus (span self times + gaps); zero up to rounding."""
        return self.wall_s - sum(st.self_s for st in self.stats.values()) - self.gap_s


# -- the core probe ------------------------------------------------------------

def probe_core(core, dfas, seed, samples=20000, repeats=3):
    """Single-letter image and preimage steps per second on the given automata.

    The sample of (letter, mask) pairs is drawn with ``seed``. A probed
    function that the library no longer has is reported as ``"missing"``.
    """
    rng = random.Random(seed)
    picks = []
    for _ in range(samples):
        d = rng.choice(dfas)
        picks.append((d, rng.randrange(d.k), rng.getrandbits(d.n) or 1))
    out = {}
    step = getattr(core, "image_mask", None)
    if step is None:
        out["image_mask"] = "missing"
    else:
        out["image_mask"] = _rate(step, [(d.delta[a], m) for d, a, m in picks], repeats)
    step = getattr(core, "preimage_mask", None)
    tables = getattr(core, "letter_preimage_masks", None)
    if step is None or tables is None:
        out["preimage_mask"] = "missing"
    else:
        pre = {id(d): tables(d) for d in dfas}
        out["preimage_mask"] = _rate(step, [(pre[id(d)][a], m) for d, a, m in picks], repeats)
    return out


def _rate(step, pairs, repeats):
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        for row, mask in pairs:
            step(row, mask)
        rates.append(len(pairs) / (time.perf_counter() - start))
    return statistics.median(rates)
