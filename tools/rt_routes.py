"""Time the two exact reset threshold routes on perfbench's extremal_rt instances.

    python3 tools/rt_routes.py [--repeats 5] > routes.json

Per instance, the best of --repeats wall times (time.perf_counter) of
  - the one-way route, tests/test_engine.py's one_way_threshold:
    engine.is_synchronizing first, then a breadth-first search over the
    images of the full set to the first singleton, the word read off its
    parent map; it steps through its own per-letter chunk tables
    (core.union_tables of each letter's image masks), one lookup per subset
    and letter, not through the engine's letter-packed tables;
  - engine.exact_reset_threshold, the bidirectional search, which runs
    engine.is_synchronizing only if its two sides see more than k*n(n-1)/2
    masks before they meet;
and their ratio. Both routes must give the same word, or the script exits 1.
A --repeats below 1 exits 2.
Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "perfbench", "tests")]

from synchro import engine, families  # noqa: E402
from test_engine import one_way_threshold  # noqa: E402
from workloads import EXTREMAL  # noqa: E402


def best(fn, d, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(d)
        times.append(time.perf_counter() - start)
    return min(times), out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error(f"--repeats must be at least 1, not {args.repeats}")
    rows = []
    for family, params in EXTREMAL:
        d = getattr(families, f"gen_{family}")(*params).dfa
        t1, (rt, w1) = best(one_way_threshold, d, args.repeats)
        t2, (_, w2) = best(engine.exact_reset_threshold, d, args.repeats)
        if w1 != w2:
            print(f"rt_routes: {d.name}: the routes give different words", file=sys.stderr)
            return 1
        rows.append({"instance": d.name, "n": d.n, "k": d.k, "rt": rt,
                     "one_way_s": t1, "bidirectional_s": t2, "ratio": t2 / t1})
    print(json.dumps({
        "what": "best of %d wall times per route, seconds" % args.repeats,
        "command": "python3 tools/rt_routes.py --repeats %d" % args.repeats,
        "host": f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, "
                f"Python {platform.python_version()}",
        "instances": rows,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
