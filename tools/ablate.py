"""The ablation ledger: what each acceleration of the exact search costs when taken out.

    python3 tools/ablate.py > ledger.jsonl

Each switch below is a named edit (file under src/, old text, new text) that
takes one acceleration out of the library and leaves every word the same. It
is applied to a temporary copy of src/, never to the library itself, so the
library carries no knob for it. The library as it stands (head) and each
copy run in fresh processes, ROUNDS of each, alternating: head first in
even rounds and last in odd ones. A process times one job group, the one
its switch names (head runs once per group), as the best of PASSES
time.process_time passes, each over automata built afresh, so no memo
carries over from the pass before. The job groups:
  random_exact        exact_reset_threshold on each automaton of perfbench's
                      RANDOM list, cap RANDOM_CAP;
  extremal_exact      exact_reset_threshold on each automaton of its EXTREMAL list;
  extremal_extension  each EXTREMAL automaton's extension and a10 jobs, in
                      perfbench's extremal_rt order;
  profiles            extensibility_profile on random_synchronizing(n, 2, s)
                      for n = 3..8 and s < 50: the sizes the verify suite
                      profiles, which perfbench's lists do not hold.
Prints one JSON line per switch: the group, the medians over the rounds of
head's and the copy's best times, their quartiles, and the copy's change
against head. Exits 3 before anything is timed when a switch's old text does
not occur exactly once in its file, and exits 3 when a copy's outputs differ
from head's or a process fails.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC, TOOLS = os.path.join(ROOT, "src"), os.path.join(ROOT, "tools")
sys.path[:0] = [os.path.join(ROOT, "perfbench"), TOOLS]

from bench_pairs import quartiles  # noqa: E402
from workloads import EXTREMAL, RANDOM, RANDOM_CAP, _extremal_solvers  # noqa: E402

ROUNDS = 10   # fresh processes per side
PASSES = 9    # timed passes per process; the best counts


class Switch(NamedTuple):
    name: str
    file: str       # under src/
    old: str
    new: str
    group: str      # the job group it is timed on


SWITCHES = (
    Switch("read-back filter", "synchro/engine.py",
           "        if pre is not None:\n"
           "            outside = ~functools.reduce(int.__or__, pre.steps(m))\n"
           "            level = [up for up in level if not up & outside]\n",
           "", "random_exact"),
    Switch("packed fit tier", "synchro/engine.py",
           "FIT_PACK = 64  #", "FIT_PACK = 0  #", "extremal_exact"),
    Switch("_extension_word memo", "synchro/engine.py",
           "@core.last_automaton\ndef _extension_word(d):", "def _extension_word(d):",
           "extremal_extension"),
    Switch("one-letter extension shortcut", "synchro/engine.py",
           "    for arr in arrs:   # a one-letter hit needs no seen set\n"
           "        if arr[m].bit_count() > size:\n"
           "            return 1\n",
           "", "profiles"),
    Switch("narrow-side complement query", "synchro/engine.py",
           "            narrow = 0 < len(level) < len(fwd[-1])",
           "            narrow = False", "extremal_exact"),
)


class Failure(Exception):
    """A stale switch, a failed process or a changed output; the message says which."""


def stale(switch):
    """Why switch no longer applies to the library, or None if it does."""
    with open(os.path.join(SRC, switch.file), encoding="utf-8") as f:
        count = f.read().count(switch.old)
    return None if count == 1 else f"its old text occurs {count} times in {switch.file}"


def copy_src(into, switch=None):
    """Copy src/ into the directory into, with switch applied if given; the copy's src."""
    src = os.path.join(into, "src")
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    if switch is not None:
        path = os.path.join(src, switch.file)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace(switch.old, switch.new))
    return src


def group_jobs(group):
    """The group's jobs as zero-argument calls, on automata built now."""
    from synchro import engine, families, harness
    if group == "random_exact":
        return [functools.partial(engine.exact_reset_threshold,
                                  harness.random_synchronizing(n, k, seed=s), cap=RANDOM_CAP)
                for n, k, s in RANDOM]
    if group == "profiles":
        return [functools.partial(engine.extensibility_profile,
                                  harness.random_synchronizing(n, 2, seed=s))
                for n in range(3, 9) for s in range(50)]
    extremal = [(getattr(families, f"gen_{family}")(*params).dfa, family, params)
                for family, params in EXTREMAL]
    if group == "extremal_exact":
        return [functools.partial(engine.exact_reset_threshold, d) for d, _, _ in extremal]
    if group == "extremal_extension":
        wanted = ("reset_word_via_extension", "a10_binary_idempotent_word")
        return [functools.partial(getattr(engine, func), d) for d, family, params in extremal
                for func in _extremal_solvers(family, params) if func in wanted]
    raise ValueError(f"no job group {group!r}")


def run_group(group):
    """(best process time in seconds, digest of the outputs) of one group."""
    from synchro.engine import NotExtensible
    best, digests = None, set()
    for _ in range(PASSES):
        jobs, outputs = group_jobs(group), []
        start = time.process_time()
        for job in jobs:
            try:
                outputs.append(repr(job()))
            except NotExtensible as exc:
                outputs.append(f"NotExtensible{exc.subset}")
        elapsed = time.process_time() - start
        best = elapsed if best is None else min(best, elapsed)
        digests.add(hashlib.sha256("\n".join(outputs).encode()).hexdigest()[:16])
    if len(digests) != 1:
        raise AssertionError(f"{group}: passes gave different outputs")
    return best, digests.pop()


def worker(src, group):
    """Time the group on the library under src; print [seconds, digest]."""
    sys.path.insert(0, src)
    import synchro
    if os.path.dirname(os.path.dirname(os.path.abspath(synchro.__file__))) != src:
        raise ImportError(f"synchro was imported from {synchro.__file__}, not from {src}")
    print(json.dumps(run_group(group)))


WORKER = ("import sys; sys.path.insert(0, sys.argv[1]); import ablate; "
          "ablate.worker(sys.argv[2], sys.argv[3])")


def run_worker(src, group):
    """worker in a fresh process: (seconds, digest)."""
    out = subprocess.run([sys.executable, "-B", "-c", WORKER, TOOLS, src, group],
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise Failure(f"the process on {src} failed: {out.stderr.strip()}")
    return json.loads(out.stdout)


def ledger(tmp):
    """One record per switch, after every round has run."""
    for switch in SWITCHES:
        why = stale(switch)
        if why is not None:
            raise Failure(f"switch {switch.name!r} is stale: {why}")
    head = copy_src(os.path.join(tmp, "head"))
    sides = [(group, head) for group in dict.fromkeys(switch.group for switch in SWITCHES)]
    sides += [(switch.group, copy_src(os.path.join(tmp, f"switch{i}"), switch))
              for i, switch in enumerate(SWITCHES)]
    runs = {side: [] for side in sides}
    for r in range(ROUNDS):
        for group, src in sides if r % 2 == 0 else reversed(sides):
            runs[group, src].append(run_worker(src, group))
    records = []
    for switch, (group, src) in zip(SWITCHES, sides[-len(SWITCHES):]):
        base, ours = runs[group, head], runs[group, src]
        if {digest for _, digest in ours} != {digest for _, digest in base}:
            raise Failure(f"switch {switch.name!r} changes the outputs of {group}")
        hq = [round(1000 * t, 2) for t in quartiles([s for s, _ in base])]
        q = [round(1000 * t, 2) for t in quartiles([s for s, _ in ours])]
        records.append({"switch": switch.name, "group": group,
                        "head_ms": hq[1], "head_quartiles_ms": [hq[0], hq[2]],
                        "ms": q[1], "quartiles_ms": [q[0], q[2]],
                        "change": f"{100 * (q[1] / hq[1] - 1):+.1f}%"})
    return records


def main():
    try:
        with tempfile.TemporaryDirectory() as tmp:
            records = ledger(tmp)
    except Failure as exc:
        print(f"ablate: {exc}", file=sys.stderr)
        return 3
    for record in records:
        print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
