"""Benchmark a change against a parent revision in alternating perfbench pairs.

    python3 tools/bench_pairs.py --topic bidir_rt --what "..." --parent 9746fe4 \\
        --runs extremal_rt=5 --runs census=3 --seconds 30 --first-seed 41

Writes BENCH_<topic>.json at the root of this checkout. Both sides are
exported with ``git archive`` into a temporary directory: the parent's
committed files, and the change as this checkout stands, written into a
tree through a throwaway index (``git add -A``, ``git write-tree``), so
uncommitted edits and untracked files go in and ignored ones such as
``__pycache__`` stay out. The change is recorded as HEAD when that tree is
HEAD's, else as HEAD plus the tree's hash. For each workload, seeds run from
--first-seed up, one pair per seed: both sides run ``perfbench/run.py
--trace 0`` in their own tree, one after the other and never at once,
the parent first on odd seeds and the change first on even ones. The
file records every run and, per workload, whether every run was correct
with no failed job, each side's quartiles of every end-to-end metric,
and the number of pairs in which the change's value was the better one,
as BENCHMARK.json defines better. ``--extra FILE`` stores that JSON
file's content under "extra"; otherwise "extra" is null.

Exits 2 on bad arguments and 3 when git or a benchmark run fails.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Failure(Exception):
    """git or a benchmark run failed; the message says which and why."""


def git(*args, env=None):
    out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, env=env)
    if out.returncode != 0:
        raise Failure(f"git {' '.join(args)}: {out.stderr.decode().strip()}")
    return out.stdout


def export(rev, into):
    """Extract rev's committed files into the directory into."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(into, filter="data")


def short(rev):
    return git("rev-parse", "--short", rev).decode().strip()


def write_tree(tmp):
    """The hash of a tree holding the checkout as it stands, ignored files
    left out. The index is a throwaway file in tmp, so the checkout's own
    index is left as it is."""
    env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
    git("add", "-A", env=env)
    return git("write-tree", env=env).decode().strip()


def describe_checkout(tree):
    """HEAD's short hash, plus the tree's hash if the tree is not HEAD's, so
    that two records of different trees never read the same."""
    head = short("HEAD")
    if tree == git("rev-parse", "HEAD^{tree}").decode().strip():
        return head
    return f"{head} + uncommitted changes (tree {tree[:12]})"


def describe_host():
    """CPUs, system and Python, and whether PYTHONDONTWRITEBYTECODE is set:
    when it is, every perfbench set-up compiles the library from source, so
    setup_s is mostly compile time."""
    bytecode = "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "unset"
    return (f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, "
            f"Python {platform.python_version()}, PYTHONDONTWRITEBYTECODE {bytecode}")


def run_perfbench(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise Failure(f"{' '.join(cmd)} in {tree} exited {out.returncode}: "
                      f"{out.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def quartiles(values):
    """(first quartile, median, third quartile) of at least one value."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def medians(runs, better):
    """Per workload: the pair count, whether every run was correct, each
    side's quartiles of every metric ([q1, median, q3]), and how many pairs
    the change won on each."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        side = {s: [r for r in runs if r["workload"] == workload and r["side"] == s]
                for s in ("parent", "change")}
        pairs = list(zip(sorted(side["parent"], key=lambda r: r["seed"]),
                         sorted(side["change"], key=lambda r: r["seed"])))
        names = side["parent"][0]["metrics"]
        won = {}
        for name in names:
            sign = 1 if better.get(name, "lower") == "lower" else -1
            won[name] = sum(sign * (c["metrics"][name] - p["metrics"][name]) < 0
                            for p, c in pairs)
        out[workload] = {
            "pairs": len(pairs),
            "all_correct": all(r["correct"] and r["failed"] == 0
                               for r in side["parent"] + side["change"]),
            **{s: {name: quartiles([r["metrics"][name] for r in side[s]])
                   for name in names} for s in ("parent", "change")},
            "change_better_pairs": won,
        }
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--topic", required=True)
    ap.add_argument("--what", required=True, help="one line: the change measured")
    ap.add_argument("--parent", required=True, help="the revision to compare against")
    ap.add_argument("--runs", action="append", required=True, metavar="WORKLOAD=PAIRS")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--extra", help="a JSON file stored under \"extra\"")
    args = ap.parse_args(argv)
    plan = []
    for item in args.runs:
        workload, _, pairs = item.partition("=")
        if not workload or not pairs.isdigit() or int(pairs) < 1:
            ap.error(f"--runs {item!r}: expected WORKLOAD=PAIRS with PAIRS >= 1")
        plan.append((workload, int(pairs)))
    if not args.topic.replace("_", "").isalnum():
        ap.error(f"--topic {args.topic!r}: use letters, digits and underscores")
    return args, plan


def main(argv=None):
    args, plan = parse_args(argv)
    try:
        extra = None
        if args.extra is not None:
            with open(args.extra) as fh:
                extra = json.load(fh)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    except (OSError, ValueError) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    runs = []
    try:
        parent = short(args.parent)
        with tempfile.TemporaryDirectory() as tmp:
            tree = write_tree(tmp)
            change = describe_checkout(tree)
            trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
            export(args.parent, trees["parent"])
            export(tree, trees["change"])
            for workload, pairs in plan:
                for seed in range(args.first_seed, args.first_seed + pairs):
                    order = ("parent", "change") if seed % 2 else ("change", "parent")
                    for side in order:
                        run = run_perfbench(trees[side], workload, seed, args.seconds)
                        runs.append({"workload": workload, "seed": seed, "side": side, **run})
                        print(f"{workload} seed {seed} {side}: {run['metrics']}", flush=True)
    except Failure as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 3
    doc = {
        "topic": args.topic,
        "what": args.what,
        "parent": parent,
        "change": change,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "host": describe_host(),
        "order": "one pair per seed; odd seeds run the parent first, even seeds the change",
        "runs": runs,
        "medians": medians(runs, better),
        "extra": extra,
    }
    path = os.path.join(ROOT, f"BENCH_{args.topic}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
