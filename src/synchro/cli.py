"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from synchro import bounds, classify, core, engine, families, harness, monoid
from synchro.core import AutomatonError, CapExceeded


def _load(path):
    try:
        return core.load_dfa(path)
    except (OSError, UnicodeDecodeError, core.InputError) as exc:
        raise core.InputError(f"{path}: {exc}") from None


def _cap(flag, value):
    """The cap, which no automaton could fit when below 1: a usage error."""
    if value < 1:
        raise core.InputError(f"{flag}: expected an integer >= 1, got {value}")
    return value


def cmd_gen(args):
    params = {"n": args.n}
    if args.k is not None:
        params["k"] = args.k
    inst = families.generate(args.family, **params)
    meta = inst.meta_json()
    if args.output:
        sidecar = os.path.splitext(args.output)[0] + ".meta.json"
        try:
            core.save_dfa(inst.dfa, args.output)
            with open(sidecar, "w") as fh:
                json.dump(meta, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise core.InputError(f"cannot write {exc.filename or args.output}: {exc}") from None
        print(f"wrote {args.output} and {sidecar}")
    else:
        # canonical JSON on stdout, metadata block on stderr so pipes stay clean
        sys.stdout.write(core.dfa_dumps(inst.dfa))
        sys.stderr.write(json.dumps(meta) + "\n")
    return 0


def cmd_rt(args):
    cap = _cap("--cap", args.cap)
    d = _load(args.file)
    length, word = engine.exact_reset_threshold(d, cap=cap)
    print(json.dumps({"rt": length, "word": core.word_names(d, word)}))
    return 0


def cmd_solve(args):
    if args.cap is not None and args.method not in ("bfs", "greedy", "extension"):
        raise core.InputError(f"--cap: the {args.method} method takes no cap")
    if args.order is not None and args.method != "eppstein":
        raise core.InputError(f"--order: the {args.method} method takes no order")
    cap = core.SUBSET_BFS_CAP if args.cap is None else _cap("--cap", args.cap)
    d = _load(args.file)
    if args.method == "bfs":
        length, word = engine.exact_reset_threshold(d, cap=cap)
        res = engine.SolveResult(word, "bfs", core.apply_word(d, 0, word))
    elif args.method == "greedy":
        res = engine.greedy_compression_word(d, cap=cap)
    elif args.method == "extension":
        res = engine.reset_word_via_extension(d, cap=cap)
    elif args.method == "eppstein":
        order = None
        if args.order is not None:
            try:
                order = tuple(int(x) for x in args.order.split(","))
            except ValueError as exc:
                raise core.InputError(f"--order: {exc}") from None
        res = engine.eppstein_orientable_word(d, order)
    elif args.method == "a10":
        res = engine.a10_binary_idempotent_word(d)
    else:
        res = engine.c7_height_word(d)
    print(json.dumps(res.to_json(d)))
    return 0


def cmd_classify(args):
    classes = args.classes.split(",") if args.classes else None
    if args.delta_graph and classes is not None and "a4" not in classes:
        raise core.InputError("--delta-graph: only class a4 reads a graph, and --classes omits it")
    d = _load(args.file)
    graph = None
    if args.delta_graph:
        try:
            with open(args.delta_graph) as fh:
                graph = classify.Digraph.from_json(json.load(fh))
        except (OSError, ValueError, core.InputError) as exc:  # ValueError: bad JSON
            raise core.InputError(f"{args.delta_graph}: {exc}") from None
    report = classify.class_report(d, classes=classes, delta_graph=graph)
    print(json.dumps(report, indent=2))
    return 0


def cmd_monoid(args):
    cap = _cap("--max-size", args.max_size)
    d = _load(args.file)
    out = monoid.monoid_summary(d, cap=cap)
    print(json.dumps(out, indent=2))
    return 0


def cmd_bound(args):
    params = {}
    if args.d is not None:
        params["d"] = args.d
    if args.sigma is not None:
        params["sigma"] = args.sigma
    value = bounds.bound_for_class(args.cls, args.n, **params)
    entry = bounds.REGISTRY[bounds.ALIASES.get(args.cls, args.cls)]
    out = {"class": entry.id, "label": entry.label, "n": args.n,
           "kind": entry.kind, "value": str(value)}
    if entry.kind == "asymptotic":
        out["note"] = "leading term only; lower-order part unspecified"
    print(json.dumps(out))
    return 0


def _worker_count(args):
    source, raw = "--workers", args.workers
    if raw is None:
        source, raw = "SYNCHRO_WORKERS", os.environ.get("SYNCHRO_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise core.InputError(f"{source}: expected an integer >= 1, got {raw!r}")
    return workers


def cmd_verify(args):
    workers = _worker_count(args)
    # below the least case size no case runs, and "0/0 cases passed" would pass
    least = min(spec.min_n for spec in harness.PAPER_CASES)
    if args.max_n < least:
        raise core.InputError(f"--max-n {args.max_n} is below {least}, the least case size")
    results = harness.run_suite(args.suite, max_n=args.max_n, workers=workers,
                                out_path=args.out)
    width = max((len(r.case_id) for r in results), default=10)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.case_id:<{width}}  {r.seconds:7.2f}s  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} cases passed")
    return 1 if failed else 0


ENUM_FILTERS = ("eulerian", "strongly-connected", "synchronizing", "aperiodic")


def cmd_enum(args):
    unknown = [name for name in args.filters if name not in ENUM_FILTERS]
    if unknown:
        raise core.InputError(f"unknown filter {', '.join(unknown)}; "
                              f"valid filters: {', '.join(ENUM_FILTERS)}")
    filt = harness.EnumerationFilter(
        letters=args.letters,
        states=args.states,
        **{name.replace("-", "_"): name in args.filters for name in ENUM_FILTERS},
    )
    if args.report == "count":
        if args.checkpoint is not None:
            raise core.InputError("--checkpoint: --report count keeps no checkpoint")
        total = sum(1 for _ in harness.enumerate_automata(filt))
        print(json.dumps({"classes": total}))
        return 0
    report = harness.census_max_rt(filt, checkpoint=args.checkpoint)
    print(json.dumps({"classes": report.classes, "max_rt": report.max_rt,
                      "attainers": report.attainers}))
    return 0


def cmd_dot(args):
    d = _load(args.file)
    sys.stdout.write(core.dfa_to_dot(d))
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="synchro",
        description="Synchronizing automata: thresholds, solvers, classifiers, census")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a family instance")
    g.add_argument("family", choices=sorted(families.GENERATORS))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, default=None)
    g.add_argument("-o", "--output", default=None, help="write JSON here plus a .meta.json sidecar")
    g.set_defaults(fn=cmd_gen)

    r = sub.add_parser("rt", help="exact reset threshold by subset search")
    r.add_argument("file")
    r.add_argument("--cap", type=int, default=core.SUBSET_BFS_CAP)
    r.set_defaults(fn=cmd_rt)

    s = sub.add_parser("solve", help="produce a verified reset word")
    s.add_argument("file")
    s.add_argument("--method", required=True,
                   choices=["bfs", "greedy", "extension", "eppstein", "a10", "c7"])
    s.add_argument("--order", default=None,
                   help="state order for the eppstein method, e.g. 0,1,2 (default: natural)")
    s.add_argument("--cap", type=int, default=None,
                   help=f"state cap for bfs, greedy and extension (default {core.SUBSET_BFS_CAP})")
    s.set_defaults(fn=cmd_solve)

    c = sub.add_parser("classify", help="class membership report")
    c.add_argument("file")
    c.add_argument("--classes", default=None, help="comma list, e.g. a1,a6,d2")
    c.add_argument("--delta-graph", default=None, help="graph JSON for the interval check")
    c.set_defaults(fn=cmd_classify)

    m = sub.add_parser("monoid", help="transition monoid summary and verdicts")
    m.add_argument("file")
    m.add_argument("--max-size", type=int, default=monoid.MONOID_CAP)
    m.set_defaults(fn=cmd_monoid)

    b = sub.add_parser("bound", help="closed-form bound lookup")
    b.add_argument("--class", dest="cls", required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--d", type=int, default=None)
    b.add_argument("--sigma", type=int, default=None)
    b.set_defaults(fn=cmd_bound)

    v = sub.add_parser("verify", help="run a verification campaign")
    v.add_argument("--suite", default="paper", choices=["paper", "quick"])
    v.add_argument("--max-n", type=int, default=10)
    v.add_argument("--workers", type=int, default=None,
                   help="parallel case fan-out (default: SYNCHRO_WORKERS or 1)")
    v.add_argument("--out", default=None, help="write JSON-lines results here")
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("enum", help="census of small automata up to isomorphism")
    e.add_argument("--letters", type=int, required=True)
    e.add_argument("--states", type=int, required=True)
    e.add_argument("--filter", dest="filters", default="",
                   type=lambda s: [x for x in s.split(",") if x],
                   help=f"comma list: {','.join(ENUM_FILTERS)}")
    e.add_argument("--report", default="max-rt", choices=["max-rt", "count"])
    e.add_argument("--checkpoint", default=None,
                   help="JSON-lines shard checkpoint; resumes if it exists")
    e.set_defaults(fn=cmd_enum)

    d = sub.add_parser("dot", help="write the labeled graph in DOT form")
    d.add_argument("file")
    d.set_defaults(fn=cmd_dot)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except AutomatonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
