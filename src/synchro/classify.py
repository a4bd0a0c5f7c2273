"""Membership predicates for the cataloged automaton classes.

Every "in" verdict carries a machine-checkable witness (a letter, an order,
a weight vector, a graph). Checks that would blow a cap return status
"unknown" with a cap note; "unknown" is never collapsed into "out".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from synchro import core, engine, monoid
from synchro.core import (
    CapExceeded,
    InputError,
    Verdict,
    bits,
    cycles_of,
    deficiency,
    is_idempotent,
    is_permutation,
)

ORDER_SEARCH_CAP = 9
REACHABILITY_CAP = 16
WEIGHT_LETTER_CAP = 6
RYSTSOV_CENSUS_CAP = 10 ** 6


def has_zero(d):
    """A state fixed by every letter."""
    for q in range(d.n):
        if all(row[q] == q for row in d.delta):
            return Verdict("in", witness=q)
    return Verdict("out")


def is_circular(d):
    """Some letter acts as a cyclic permutation of the whole state set."""
    for a, row in enumerate(d.delta):
        if is_permutation(row) and len(cycles_of(row)) == 1:
            return Verdict("in", witness=d.letters[a])
    return Verdict("out")


def one_cluster_letters(d):
    """Letters whose iterated action funnels every state into one cycle,
    each with that cycle's length."""
    return [(d.letters[a], len(cycles[0]))
            for a, cycles in enumerate(map(cycles_of, d.delta)) if len(cycles) == 1]


def _is_prime(m):
    return m >= 2 and all(m % q for q in range(2, int(math.isqrt(m)) + 1))


def is_one_cluster_prime(d):
    """One-cluster for some letter whose cycle length is prime."""
    for name, length in one_cluster_letters(d):
        if _is_prime(length):
            return Verdict("in", witness=[name, length])
    return Verdict("out")


def is_eulerian(d):
    """Uniform in-degree |letters| at every state plus a connected graph."""
    indeg = [0] * d.n
    for row in d.delta:
        for t in row:
            indeg[t] += 1
    for q, c in enumerate(indeg):
        if c != d.k:
            return Verdict("out", witness=["in-degree", q, c])
    # every state now has in-degree = out-degree = |letters|, and in such a
    # graph the states reachable from 0 are exactly 0's weak component
    seen = core.reach(list(zip(*d.delta)), 0)
    if len(seen) != d.n:
        return Verdict("out", witness=["disconnected", sorted(seen)])
    return Verdict("in", witness=indeg)


def _in_degree_matrix(d):
    indeg = [[0] * d.k for _ in range(d.n)]
    for a, row in enumerate(d.delta):
        for t in row:
            indeg[t][a] += 1
    return indeg


def pseudo_eulerian_weights(d):
    """Positive letter weights, summing to 1, with unit incoming weight at
    every state; solved exactly over the rationals."""
    if d.k > WEIGHT_LETTER_CAP:
        raise CapExceeded(f"{d.k} letters exceed the weight-system cap {WEIGHT_LETTER_CAP}")
    indeg = _in_degree_matrix(d)
    # no "sum to 1" row: each letter's in-degrees add up to n, so the state
    # rows add up to n times it
    rows = [[Fraction(c) for c in indeg[q]] + [Fraction(1)] for q in range(d.n)]
    solution = _solve_positive(rows, d.k)
    if solution is None:
        return Verdict("out", note="no positive weight vector exists")
    return Verdict("in", witness=[str(x) for x in solution])


def _solve_positive(rows, nvars):
    """A strictly positive solution of the equality system rows (augmented
    column last), or None. Gaussian elimination plus Fourier-Motzkin over
    the free variables, all in exact rationals.

    The positive solutions must be bounded, as the weight system's are:
    they sum to 1. Then each free variable has an upper bound at its
    Fourier-Motzkin stage, and the back-substitution takes the midpoint."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(nvars):
        sel = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[nvars] != 0 for row in rows[r:]):
        return None
    free = [c for c in range(nvars) if c not in pivots]
    # express each variable as const + sum coeff * free_var
    expr = {}
    for idx, c in enumerate(pivots):
        coeffs = [-rows[idx][f] for f in free]
        expr[c] = (rows[idx][nvars], coeffs)
    for j, f in enumerate(free):
        coeffs = [Fraction(0)] * len(free)
        coeffs[j] = Fraction(1)
        expr[f] = (Fraction(0), coeffs)
    # inequalities const + coeffs . t > 0, one per variable
    ineqs = [(expr[c][0], list(expr[c][1])) for c in range(nvars)]
    assignment = _fourier_motzkin(ineqs, len(free))
    if assignment is None:
        return None
    values = [const + sum(a * t for a, t in zip(coeffs, assignment))
              for const, coeffs in map(expr.get, range(nvars))]
    assert all(v > 0 for v in values)
    return values


def _fourier_motzkin(ineqs, nfree):
    """Find t with const + coeffs . t > 0 for all strict inequalities.

    Among them is t_j > 0 for every j, as _solve_positive passes them, so
    each variable has a lower bound when it is substituted back; the upper
    bound comes from the bounded system _solve_positive requires."""
    if nfree == 0:
        return [] if all(const > 0 for const, _ in ineqs) else None
    stages = []
    for var in range(nfree - 1, -1, -1):
        lowers, uppers, rest = [], [], []
        for const, coeffs in ineqs:
            a = coeffs[var]
            head = (const, coeffs[:var])
            if a > 0:
                # t_var > -(const + head . t) / a
                lowers.append((Fraction(-1) * const / a, [-x / a for x in coeffs[:var]]))
            elif a < 0:
                uppers.append((Fraction(-1) * const / a, [-x / a for x in coeffs[:var]]))
            else:
                rest.append(head)
        stages.append((var, lowers, uppers))
        # lower < upper for each combination
        for (lc, lcoef) in lowers:
            for (uc, ucoef) in uppers:
                rest.append((uc - lc, [u - x for u, x in zip(ucoef, lcoef)]))
        ineqs = rest
    if any(const <= 0 for const, _ in ineqs):
        return None
    values = []
    for var, lowers, uppers in reversed(stages):
        lo = [c + sum(a * t for a, t in zip(coeffs, values)) for c, coeffs in lowers]
        hi = [c + sum(a * t for a, t in zip(coeffs, values)) for c, coeffs in uppers]
        values.append((max(lo) + min(hi)) / 2)
    return values


def has_small_rank_letter(d):
    """Some letter whose image is at most the cube root of 6n-6."""
    for a, row in enumerate(d.delta):
        rank = len(set(row))
        if rank ** 3 <= 6 * d.n - 6:
            return Verdict("in", witness=[d.letters[a], rank])
    return Verdict("out")


def is_two_junction(d):
    """Per letter, moved states overlap the other letters' moved states in
    at most two points (one disjunct) or one doubly-moved point (the other)."""
    for a in range(d.k):
        moved = [q for q in range(d.n) if d.delta[a][q] != q]
        exceptional = [(q, sum(1 for b in range(d.k) if b != a and d.delta[b][q] != q))
                       for q in moved]
        exceptional = [(q, c) for q, c in exceptional if c > 0]
        clause1 = len(exceptional) <= 2 and all(c == 1 for _, c in exceptional)
        clause2 = len(exceptional) == 1 and exceptional[0][1] == 2
        if not (clause1 or clause2):
            return Verdict("out", witness=[d.letters[a], [q for q, _ in exceptional]])
    return Verdict("in")


def simple_idempotent_letters(d):
    """Letters of deficiency one acting identically on their image."""
    return [d.letters[a] for a in core.simple_idempotents(d)]


def is_completely_reachable(d):
    """Every non-empty subset is an image of the full state set."""
    if d.n > REACHABILITY_CAP:
        raise CapExceeded(f"n={d.n} exceeds the reachability cap {REACHABILITY_CAP}")
    tabs, level = core.image_tables(d), [(1 << d.n) - 1]
    seen = set(level)
    while level:
        level = engine._step_forward(tabs, level, seen, lambda m: False)[0]
    if len(seen) == (1 << d.n) - 1:
        return Verdict("in", witness=len(seen))
    missing = next(m for m in range(1, 1 << d.n) if m not in seen)
    return Verdict("out", witness=sorted(bits(missing)))


@dataclass(frozen=True)
class RystsovGraph:
    """Edges dropped-state -> doubled-state over short words of deficiency 1."""

    n: int
    edges: dict  # (excl, dupl) -> witness word (letter indices)

    def successors(self):
        succs = [[] for _ in range(self.n)]
        for (u, v) in self.edges:
            succs[u].append(v)
        return [sorted(set(s)) for s in succs]


def restricted_rystsov_graph(d):
    """Census of word-induced transformations up to length n; deficiency-1
    ones contribute an edge from their dropped state to their doubled state.

    The closure lists its words in shortlex order, so the first word met for
    an edge is its least one.
    """
    n = d.n
    census = monoid.closure(n, d.delta, RYSTSOV_CENSUS_CAP, depth=n)
    edges = {}
    for t, w in zip(census.elements, census.words):
        if deficiency(t) != 1:
            continue
        # t misses one state and hits one value twice
        image = set(t)
        excl = n * (n - 1) // 2 - sum(image)
        dupl = sum(t) - sum(image)
        edges.setdefault((excl, dupl), w)
    return RystsovGraph(n, edges)


def is_a9(d):
    """Strong connectivity of the restricted graph of dropped/doubled states."""
    g = restricted_rystsov_graph(d)
    if core.digraph_strongly_connected(g.n, g.successors()):
        return Verdict("in", witness=sorted(f"{u}->{v}" for (u, v) in g.edges))
    return Verdict("out")


# -- order searches -----------------------------------------------------------

def _nondecreasing(seq):
    return all(x <= y for x, y in zip(seq, seq[1:]))


def _either_way(shape):
    return lambda seq: shape(seq) or shape(seq[::-1])


# class -> (the shape every letter's image positions must have, the longest
# cycle a letter may have under such an order)
ORDER_SHAPES = {
    "monotonic": (_nondecreasing, 1),
    "weakly_monotonic": (_either_way(_nondecreasing), 2),
    "orientable": (engine.properly_oriented, math.inf),
    "weakly_orientable": (_either_way(engine.properly_oriented), math.inf),
    "zero_monotonic": (_nondecreasing, 1),
}
ORDER_CLASSES = tuple(ORDER_SHAPES)


def order_class_check(d, cls):
    """Exhaustive search for a state order satisfying a per-letter shape.

    Cyclic shapes (orientable, weakly orientable) are rotation invariant,
    so the first position is pinned to state 0. Returns the witnessing
    order; for the zero-respecting shape the order covers the non-zero
    states, images equal to the zero are ignored, and the witness records
    the zero used.
    """
    if cls not in ORDER_SHAPES:
        raise InputError(f"unknown order class {cls!r}")
    shape, longest = ORDER_SHAPES[cls]
    n = d.n
    if n > ORDER_SEARCH_CAP:
        raise CapExceeded(f"n={n} exceeds the order-search cap {ORDER_SEARCH_CAP}")
    zeros = [None]
    if cls == "zero_monotonic":
        zeros = [q for q in range(n) if all(row[q] == q for row in d.delta)]
        if not zeros:
            return Verdict("out", note="no zero state")
    # a sound necessary condition: no letter has a cycle longer than the shape allows
    for a, row in enumerate(d.delta):
        if any(len(c) > longest for c in cycles_of(row)):
            if cls == "zero_monotonic":
                return Verdict("out")
            return Verdict("out", note=f"letter {d.letters[a]!r} has a cycle no such order allows")
    pinned = 1 if cls in ("orientable", "weakly_orientable") else 0
    for z in zeros:
        states = [q for q in range(n) if q != z]
        for tail in itertools.permutations(states[pinned:]):
            order = states[:pinned] + list(tail)
            pos = {q: i for i, q in enumerate(order)}
            if all(shape([pos[row[q]] for q in order if row[q] != z]) for row in d.delta):
                return Verdict("in", witness=order if z is None else {"zero": z, "order": order})
    return Verdict("out")


def is_d6(d):
    """All letters of deficiency 0 or 1, with the permutation letters acting
    transitively."""
    perms = []
    for a, row in enumerate(d.delta):
        def_ = deficiency(row)
        if def_ > 1:
            return Verdict("out", witness=["deficiency", d.letters[a], def_])
        if def_ == 0:
            perms.append(a)
    # orbit of state 0 under the permutation letters; inverses are powers,
    # so forward closure equals the group orbit
    seen = core.reach([[d.delta[a][q] for a in perms] for q in range(d.n)], 0)
    if len(seen) == d.n:
        return Verdict("in", witness=[d.letters[a] for a in perms])
    return Verdict("out", witness=["orbit", sorted(seen)])


# -- interval respect for a supplied graph -------------------------------------

@dataclass(frozen=True)
class Digraph:
    n: int
    succs: tuple

    @classmethod
    def from_edges(cls, n, edges):
        succs = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            succs[u].add(v)
        return cls(n, tuple(tuple(sorted(s)) for s in succs))

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise InputError("graph JSON needs keys n and edges")
        n = obj["n"]
        if type(n) is not int or n < 1:
            raise InputError(f"n: expected a positive integer, got {n!r}")
        edges = obj["edges"]
        if not isinstance(edges, list):
            raise InputError("edges: expected a list of [u, v] pairs")
        pairs = []
        for i, e in enumerate(edges):
            if not (isinstance(e, list) and len(e) == 2
                    and type(e[0]) is int and type(e[1]) is int):
                raise InputError(f"edges[{i}]: expected a pair of integers, got {e!r}")
            pairs.append((e[0], e[1]))
        return cls.from_edges(n, pairs)


def interval_table(g):
    """intervals[p][r]: states on walks p -> r that avoid p and r internally,
    or the empty set when r is unreachable that way."""
    n = g.n
    preds = core.reverse(g.succs)

    def inner(lists, start, cut):
        # vertices reached from start along lists, entering no vertex of cut
        kept = [[v for v in vs if v not in cut] for vs in lists]
        return core.reach(kept, start).keys() - {start}

    table = [[frozenset() for _ in range(n)] for _ in range(n)]
    for p in range(n):
        for r in range(n):
            middle = inner(g.succs, p, {p, r}) & inner(preds, r, {p, r})
            if p == r:
                # p plus everything on a closed walk through p
                table[p][r] = frozenset(middle | {p})
            elif middle or r in g.succs[p]:
                table[p][r] = frozenset({p, r} | middle)
    return table


def is_dense(g):
    """Within each strongly connected component, every third state lies on
    one of the two walks between any two others."""
    table = interval_table(g)
    comp = core.strongly_connected_components(g.n, g.succs)
    for p in range(g.n):
        for r in range(g.n):
            if comp[p] != comp[r]:
                continue
            for q in range(g.n):
                if comp[q] != comp[p]:
                    continue
                if q not in table[p][r] and q not in table[r][p]:
                    return Verdict("out", witness=[p, q, r])
    return Verdict("in")


def respects_intervals(d, g):
    """The three interval-compatibility clauses, over distinct state pairs.

    An empty interval never counts as a singleton in the collapse clause;
    the verdict notes that reading.
    """
    if g.n != d.n:
        raise InputError("graph vertex set does not match the automaton")
    table = interval_table(g)
    note = "empty intervals are not treated as singletons"
    for p in range(d.n):
        for r in range(d.n):
            if p == r:
                continue
            for a in range(d.k):
                pa, ra = d.delta[a][p], d.delta[a][r]
                if table[p][r] and not table[pa][ra]:
                    return Verdict("out", witness=[p, r, d.letters[a], "clause1"], note=note)
                if table[p][r] and table[r][p]:
                    img = {d.delta[a][q] for q in table[p][r]}
                    if not img <= table[pa][ra]:
                        return Verdict("out", witness=[p, r, d.letters[a], "clause2"], note=note)
                if pa == ra:
                    img1 = {d.delta[a][q] for q in table[p][r]}
                    img2 = {d.delta[a][q] for q in table[r][p]}
                    if len(img1) != 1 and len(img2) != 1:
                        return Verdict("out", witness=[p, r, d.letters[a], "clause3"], note=note)
    return Verdict("in", note=note)


# -- report building -----------------------------------------------------------

def _interval_verdict(d, g):
    """Interval respect for a dense graph on a strongly connected automaton;
    "not-checked" without a graph."""
    if g is None:
        return Verdict("not-checked", note="needs --delta-graph")
    v = respects_intervals(d, g)
    dense = is_dense(g)
    sc = core.is_strongly_connected(d)
    if v.status == "in" and dense.status == "in" and sc:
        return Verdict("in", note=v.note)
    why = v.note if v.status == "in" else "interval clause failed"
    if dense.status != "in":
        why = "graph is not dense"
    elif not sc:
        why = "automaton is not strongly connected"
    witness = v.witness if v.status != "in" else dense.witness
    return Verdict("out", witness=witness, note=why)


def _first(found, status="in", otherwise="out"):
    """Status with the first found item as witness, or otherwise when none is."""
    return Verdict(status, witness=found[0]) if found else Verdict(otherwise)


_NOT_BINARY = Verdict("out", note="alphabet is not binary")

# class id -> (name, check); a check takes the automaton, a function returning
# the shared transition monoid, and the delta graph or None
CLASSES = {
    "a1": ("circular", lambda d, m, g: is_circular(d)),
    "a2": ("one-cluster-prime", lambda d, m, g: is_one_cluster_prime(d)),
    "a3": ("orientable", lambda d, m, g: order_class_check(d, "orientable")),
    "a3w": ("weakly-orientable", lambda d, m, g: order_class_check(d, "weakly_orientable")),
    "a4": ("interval-respecting", lambda d, m, g: _interval_verdict(d, g)),
    "a5": ("two-junction", lambda d, m, g: is_two_junction(d)),
    "a6": ("eulerian", lambda d, m, g: is_eulerian(d)),
    "a6p": ("pseudo-eulerian", lambda d, m, g: pseudo_eulerian_weights(d)),
    "a7": ("small-rank-letter", lambda d, m, g: has_small_rank_letter(d)),
    "a8": ("involution-free", lambda d, m, g: monoid.is_involution_free(m())),
    "a9": ("rystsov-strongly-connected", lambda d, m, g: is_a9(d)),
    "a10": ("binary-simple-idempotent", lambda d, m, g: (
        _first(simple_idempotent_letters(d)) if d.k == 2 else _NOT_BINARY)),
    "b1": ("zero", lambda d, m, g: has_zero(d)),
    "b2": ("aperiodic", lambda d, m, g: monoid.is_aperiodic(m())),
    "b3": ("eds-monoid", lambda d, m, g: monoid.is_in_eds(m())),
    "b5": ("weakly-monotonic", lambda d, m, g: order_class_check(d, "weakly_monotonic")),
    "b6": ("zero-monotonic", lambda d, m, g: order_class_check(d, "zero_monotonic")),
    "c1": ("monotonic", lambda d, m, g: order_class_check(d, "monotonic")),
    "c3": ("ds-monoid", lambda d, m, g: monoid.is_in_ds(m())),
    "c4": ("binary-idempotent", lambda d, m, g: (
        _first([d.letters[a] for a, row in enumerate(d.delta) if not is_idempotent(row)],
               "out", "in") if d.k == 2 else _NOT_BINARY)),
    "c7": ("simple-idempotent", lambda d, m, g: Verdict(
        "in" if len(simple_idempotent_letters(d)) == d.k else "out")),
    "d1": ("one-cluster", lambda d, m, g: _first([list(x) for x in one_cluster_letters(d)])),
    "d2": ("completely-reachable", lambda d, m, g: is_completely_reachable(d)),
    "d6": ("transitive-permutation-letters", lambda d, m, g: is_d6(d)),
}


def class_report(d, classes=None, delta_graph=None):
    """Evaluate the requested classes (all, by default) on one automaton."""
    built = []

    def shared_monoid():
        # built on first use and shared by the four monoid classes; a cap
        # failure is kept too, so each of them reports it without a rebuild
        if not built:
            try:
                built.append(monoid.transition_monoid(d))
            except CapExceeded as exc:
                built.append(exc)
        if isinstance(built[0], CapExceeded):
            raise built[0]
        return built[0]

    report = {}
    for cid in CLASSES if classes is None else classes:
        if cid not in CLASSES:
            raise InputError(f"unknown class id {cid!r}")
        name, check = CLASSES[cid]
        verdict = core.capped(lambda: check(d, shared_monoid, delta_graph))
        report[cid] = {"name": name, **verdict.to_json()}
    return report
