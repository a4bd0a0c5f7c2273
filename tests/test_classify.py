import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from synchro import classify, core, engine, families, monoid
from synchro.core import CapExceeded, Dfa, InputError


def cerny(n):
    return families.gen_cerny(n).dfa


def chain(n):
    return families.gen_chain(n).dfa


def rystsov(n):
    return families.gen_rystsov(n).dfa


EULERIAN3 = Dfa(3, ("a", "b"), ((0, 0, 1), (2, 1, 2)))


class TestZeroAndCircular:
    def test_rystsov_zero(self):
        v = classify.has_zero(rystsov(5))
        assert v.status == "in" and v.witness == 0

    def test_cerny_no_zero(self):
        assert classify.has_zero(cerny(4)).status == "out"

    def test_one_state_zero(self):
        assert classify.has_zero(chain(1)).status == "in"

    def test_cerny_circular(self):
        v = classify.is_circular(cerny(6))
        assert v.status == "in" and v.witness == "b"

    def test_chain_not_circular(self):
        assert classify.is_circular(chain(3)).status == "out"

    def test_single_state_circular(self):
        assert classify.is_circular(chain(1)).status == "in"


class TestClusters:
    def test_cerny_cluster(self):
        assert ("b", 5) in classify.one_cluster_letters(cerny(5))

    def test_dnk_cluster(self):
        d = families.gen_dnk(10, 7).dfa
        assert ("a", 7) in classify.one_cluster_letters(d)

    def test_two_cycles_excluded(self):
        d = Dfa(4, ("b",), ((1, 0, 3, 2),))
        assert classify.one_cluster_letters(d) == []

    def test_prime_cluster(self):
        assert classify.is_one_cluster_prime(families.gen_dnk(10, 7).dfa).status == "in"
        assert classify.is_one_cluster_prime(cerny(6)).status == "out"
        assert classify.is_one_cluster_prime(cerny(5)).status == "in"


class TestEulerian:
    def test_cerny_not_eulerian(self):
        v = classify.is_eulerian(cerny(4))
        assert v.status == "out"

    def test_permutation_letters_eulerian(self):
        d = Dfa(3, ("a", "b"), ((1, 2, 0), (0, 2, 1)))
        assert classify.is_eulerian(d).status == "in"

    def test_rystsov_not_eulerian(self):
        assert classify.is_eulerian(rystsov(4)).status == "out"

    def test_small_eulerian(self):
        assert classify.is_eulerian(EULERIAN3).status == "in"

    def test_matches_degree_count_and_undirected_search(self):
        rng = random.Random(53)
        for i in range(300):
            n, k = rng.randrange(1, 7), rng.randrange(1, 4)
            if i % 3 == 0:
                rows = [[rng.randrange(n) for _ in range(n)] for _ in range(k)]
            else:
                # deal k copies of every state over the rows (in-degree k); on
                # every third draw, deal within the two sides of a random cut
                cut = rng.randrange(1, n + 1) if i % 3 == 2 else n
                rows = [[0] * n for _ in range(k)]
                for block in (range(cut), range(cut, n)):
                    targets = [q for q in block for _ in range(k)]
                    rng.shuffle(targets)
                    for j, (a, q) in enumerate(itertools.product(range(k), block)):
                        rows[a][q] = targets[j]
            d = Dfa(n, tuple("abc"[:k]), tuple(map(tuple, rows)))
            indeg = [sum(row.count(q) for row in rows) for q in range(n)]
            bad = [q for q in range(n) if indeg[q] != k]
            seen, todo = {0}, [0]
            while todo:
                u = todo.pop()
                for row in rows:
                    for v in [row[u]] + [q for q in range(n) if row[q] == u]:
                        if v not in seen:
                            seen.add(v)
                            todo.append(v)
            if bad:
                want = {"status": "out", "witness": ["in-degree", bad[0], indeg[bad[0]]]}
            elif len(seen) < n:
                want = {"status": "out", "witness": ["disconnected", sorted(seen)]}
            else:
                want = {"status": "in", "witness": indeg}
            assert classify.is_eulerian(d).to_json() == want, rows


class TestPseudoEulerian:
    def test_eulerian_is_feasible(self):
        v = classify.pseudo_eulerian_weights(EULERIAN3)
        assert v.status == "in"

    def test_uniform_weights_satisfy_eulerian_instance(self):
        from fractions import Fraction
        indeg = classify._in_degree_matrix(EULERIAN3)
        w = Fraction(1, 2)
        for q in range(3):
            assert sum(w * c for c in indeg[q]) == 1

    def test_cerny_infeasible(self):
        assert classify.pseudo_eulerian_weights(cerny(4)).status == "out"

    def test_single_cycle_letter(self):
        d = Dfa(4, ("b",), ((1, 2, 3, 0),))
        v = classify.pseudo_eulerian_weights(d)
        assert v.status == "in" and v.witness == ["1"]

    def test_weights_validate(self):
        from fractions import Fraction
        v = classify.pseudo_eulerian_weights(EULERIAN3)
        weights = [Fraction(x) for x in v.witness]
        assert all(x > 0 for x in weights) and sum(weights) == 1
        indeg = classify._in_degree_matrix(EULERIAN3)
        for q in range(3):
            assert sum(w * c for w, c in zip(weights, indeg[q])) == 1

    def test_letter_cap(self):
        d = Dfa(1, tuple("abcdefg"), tuple((0,) for _ in range(7)))
        with pytest.raises(CapExceeded):
            classify.pseudo_eulerian_weights(d)

    def test_matches_the_system_with_the_sum_row(self):
        # every unary and binary table with n <= 4, then seeded tables with
        # n <= 7 and k <= 6, against a reference that keeps the "weights sum
        # to 1" row and every back-substitution branch. A table reaches the
        # solver only through its in-degree matrix, so each distinct matrix
        # is solved once, on the first table that has it.
        tables = [(n, delta) for k in (1, 2) for n in range(1, 5)
                  for delta in itertools.product(itertools.product(range(n), repeat=n),
                                                 repeat=k)]
        rng = random.Random(20)
        for _ in range(6000):
            n, k = rng.randint(1, 7), rng.randint(1, 6)
            tables.append((n, tuple(tuple(rng.randrange(n) for _ in range(n))
                                    for _ in range(k))))
        firsts = {}
        for n, delta in tables:
            indeg = tuple(tuple(sum(row[q] == t for q in range(n)) for row in delta)
                          for t in range(n))
            firsts.setdefault(indeg, []).append(delta)
        found = 0
        for group in firsts.values():
            delta = group[0]
            d = Dfa(len(delta[0]), tuple("abcdef"[:len(delta)]), delta)
            v = classify.pseudo_eulerian_weights(d)
            want = reference_weights(d)
            assert v.status == ("out" if want is None else "in"), delta
            assert v.witness == (None if want is None else [str(x) for x in want]), delta
            found += len(group) * (want is not None)
        assert len(tables) == 72570 and found == 4222


def reference_weights(d):
    """Positive letter weights with unit incoming weight at every state and,
    as a row of its own, weights summing to 1; None when there are none."""
    indeg = classify._in_degree_matrix(d)
    rows = [[Fraction(c) for c in indeg[q]] + [Fraction(1)] for q in range(d.n)]
    rows.append([Fraction(1)] * d.k + [Fraction(1)])
    nvars = d.k
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
    if any(rows[i][nvars] != 0 for i in range(r, len(rows))):
        return None
    free = [c for c in range(nvars) if c not in pivots]
    expr = {c: (rows[idx][nvars], [-rows[idx][f] for f in free])
            for idx, c in enumerate(pivots)}
    for j, f in enumerate(free):
        expr[f] = (Fraction(0), [Fraction(int(i == j)) for i in range(len(free))])
    assignment = reference_fourier_motzkin([expr[c] for c in range(nvars)], len(free))
    if assignment is None:
        return None
    return [const + sum(a * t for a, t in zip(coeffs, assignment))
            for const, coeffs in (expr[c] for c in range(nvars))]


def reference_fourier_motzkin(ineqs, nfree):
    """t with const + coeffs . t > 0 for all ineqs, or None; a variable with
    no lower or no upper bound is set one past the other, or to 0."""
    if nfree == 0:
        return [] if all(const > 0 for const, _ in ineqs) else None
    stages = []
    for var in range(nfree - 1, -1, -1):
        lowers, uppers, rest = [], [], []
        for const, coeffs in ineqs:
            a = coeffs[var]
            if a == 0:
                rest.append((const, coeffs[:var]))
            else:
                bound = (-const / a, [-x / a for x in coeffs[:var]])
                (lowers if a > 0 else uppers).append(bound)
        stages.append((lowers, uppers))
        for lc, lcoef in lowers:
            for uc, ucoef in uppers:
                rest.append((uc - lc, [u - x for u, x in zip(ucoef, lcoef)]))
        ineqs = rest
    if any(const <= 0 for const, _ in ineqs):
        return None
    values = []
    for lowers, uppers in reversed(stages):
        lo = [c + sum(a * t for a, t in zip(coeffs, values)) for c, coeffs in lowers]
        hi = [c + sum(a * t for a, t in zip(coeffs, values)) for c, coeffs in uppers]
        if lo and hi:
            values.append((max(lo) + min(hi)) / 2)
        elif lo:
            values.append(max(lo) + 1)
        elif hi:
            values.append(min(hi) - 1)
        else:
            values.append(Fraction(0))
    return values


class TestSmallRankAndJunction:
    def test_constant_letter(self):
        d = Dfa(4, ("c", "b"), ((1, 1, 1, 1), (1, 2, 3, 0)))
        assert classify.has_small_rank_letter(d).status == "in"

    def test_cerny5_rank_too_big(self):
        assert classify.has_small_rank_letter(cerny(5)).status == "out"

    def test_two_state_merge(self):
        d = Dfa(2, ("a",), ((0, 0),))
        assert classify.has_small_rank_letter(d).status == "in"

    def test_cerny_two_junction(self):
        for n in (3, 5, 8):
            assert classify.is_two_junction(cerny(n)).status == "in"

    def test_single_letter_vacuous(self):
        assert classify.is_two_junction(chain(5)).status == "in"

    def test_rystsov_by_direct_scan(self):
        # each swap letter's two moved states are each moved by exactly one
        # neighbor letter, so both clauses stay satisfiable
        assert classify.is_two_junction(rystsov(6)).status == "in"

    def test_three_independent_movers_fail(self):
        # letter a moves 0,1,2 and each is also moved by exactly one other letter
        a = (1, 2, 0, 3)
        b = (1, 0, 2, 3)
        c = (0, 2, 1, 3)
        e = (0, 1, 3, 2)
        d = Dfa(4, ("a", "b", "c", "e"), (a, b, c, e))
        assert classify.is_two_junction(d).status == "out"


class TestSimpleIdempotents:
    def test_cerny(self):
        assert classify.simple_idempotent_letters(cerny(5)) == ["a"]

    def test_elevator(self):
        d = families.gen_elevator(5).dfa
        assert classify.simple_idempotent_letters(d) == list(d.letters)

    def test_permutation_excluded(self):
        d = Dfa(3, ("b",), ((1, 2, 0),))
        assert classify.simple_idempotent_letters(d) == []


class TestCompletelyReachable:
    def test_cerny_in(self):
        for n in (3, 5, 7):
            assert classify.is_completely_reachable(cerny(n)).status == "in"

    def test_non_synchronizing_out(self):
        d = Dfa(2, ("a", "b"), ((0, 1), (1, 0)))
        assert classify.is_completely_reachable(d).status == "out"

    def test_chain_out(self):
        v = classify.is_completely_reachable(chain(3))
        # least unreached subset is {1}; {0,2} is unreachable too
        assert v.status == "out" and v.witness == [1]
        reached = {7}
        frontier = [7]
        while frontier:
            m = frontier.pop()
            m2 = core.image_mask(chain(3).delta[0], m)
            if m2 not in reached:
                reached.add(m2)
                frontier.append(m2)
        assert 0b101 not in reached

    def test_cap(self):
        with pytest.raises(CapExceeded):
            classify.is_completely_reachable(cerny(17))

    def test_matches_image_closure(self):
        # second route: close the full set under images as a fixed point,
        # with no queue, and read the verdict off the closure
        def closure_verdict(d):
            seen = {(1 << d.n) - 1}
            while True:
                grown = seen | {core.image_mask(row, m) for m in seen for row in d.delta}
                if grown == seen:
                    break
                seen = grown
            missing = [m for m in range(1, 1 << d.n) if m not in seen]
            if not missing:
                return "in", len(seen)
            return "out", sorted(core.bits(missing[0]))

        tables = [Dfa(3, ("a", "b"), (a, b))
                  for a in itertools.product(range(3), repeat=3)
                  for b in itertools.product(range(3), repeat=3)]
        rng = random.Random(29)
        for _ in range(300):
            n, k = rng.randrange(1, 7), rng.randrange(1, 4)
            tables.append(Dfa(n, tuple("abc"[:k]),
                              tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k))))
        for d in tables:
            v = classify.is_completely_reachable(d)
            assert (v.status, v.witness) == closure_verdict(d)


def ref_rystsov_edges(d):
    """restricted_rystsov_graph's edges by counting each image value and
    keeping the shortlex least word per edge, comparing as it goes."""
    n = d.n
    census = monoid.closure(n, d.delta, classify.RYSTSOV_CENSUS_CAP, depth=n)
    edges = {}
    for t, w in zip(census.elements, census.words):
        if core.deficiency(t) != 1:
            continue
        image = set(t)
        excl = next(q for q in range(n) if q not in image)
        counts = {}
        for q in range(n):
            counts[t[q]] = counts.get(t[q], 0) + 1
        dupl = next(q for q, c in counts.items() if c == 2)
        key = (excl, dupl)
        if key not in edges or (len(w), w) < (len(edges[key]), edges[key]):
            edges[key] = w
    return edges


class TestRystsovGraph:
    def test_matches_the_comparing_census(self):
        from synchro import harness
        rng = random.Random(250)
        dfas = [families.gen_cerny(n).dfa for n in range(2, 7)]
        dfas += [families.gen_rystsov(n).dfa for n in range(2, 7)]
        dfas += list(harness.enumerate_automata(harness.EnumerationFilter(2, 3)))
        dfas += [Dfa(n, "abc"[:k], tuple(tuple(rng.randrange(n) for _ in range(n))
                                         for _ in range(k)))
                 for n, k in [(rng.randrange(2, 7), rng.randrange(1, 4)) for _ in range(300)]]
        nonempty = 0
        for d in dfas:
            edges = classify.restricted_rystsov_graph(d).edges
            assert list(edges.items()) == list(ref_rystsov_edges(d).items()), d
            nonempty += bool(edges)
        assert nonempty > 200

    def test_cerny_edges_and_connectivity(self):
        g = classify.restricted_rystsov_graph(cerny(5))
        for i in range(5):
            assert (i, (i + 1) % 5) in g.edges
        assert classify.is_a9(cerny(5)).status == "in"

    def test_witness_words_rederive(self):
        d = cerny(4)
        g = classify.restricted_rystsov_graph(d)
        for (excl, dupl), w in g.edges.items():
            t = tuple(core.apply_word(d, q, w) for q in range(d.n))
            assert len(w) <= 4
            image = set(t)
            assert core.deficiency(t) == 1
            assert excl not in image
            hits = [q for q in range(4) if list(t).count(q) == 2]
            assert hits == [dupl]

    def test_permutation_only_graph_empty(self):
        d = Dfa(3, ("b", "c"), ((1, 2, 0), (0, 2, 1)))
        g = classify.restricted_rystsov_graph(d)
        assert g.edges == {}
        assert classify.is_a9(d).status == "out"

    def test_chain_census(self):
        # single letter: words a, aa, aaa reach deficiency >= 1; only "a" has 1
        g = classify.restricted_rystsov_graph(chain(4))
        assert (3, 0) in g.edges
        assert classify.is_a9(chain(4)).status == "out"


class TestOrderClasses:
    def test_chain_monotonic(self):
        v = classify.order_class_check(chain(5), "monotonic")
        assert v.status == "in"
        order = v.witness
        pos = {q: i for i, q in enumerate(order)}
        row = chain(5).delta[0]
        seq = [pos[row[q]] for q in order]
        assert all(x <= y for x, y in zip(seq, seq[1:]))

    def test_cerny_orientable_natural(self):
        v = classify.order_class_check(cerny(5), "orientable")
        assert v.status == "in"

    def test_cerny_not_monotonic(self):
        assert classify.order_class_check(cerny(5), "monotonic").status == "out"

    def test_weakly_monotonic_swap(self):
        # one swap letter plus a merge letter: reversal handles the swap
        d = Dfa(2, ("s", "m"), ((1, 0), (0, 0)))
        assert classify.order_class_check(d, "weakly_monotonic").status == "in"

    def test_zero_monotonic_chain(self):
        # the descending chain has zero 0 and its letter only moves downward
        v = classify.order_class_check(chain(4), "zero_monotonic")
        assert v.status == "in"
        assert v.witness["zero"] == 0

    def test_zero_monotonic_rejects_swaps(self):
        # the swap letters of the zero automata forbid any such order
        assert classify.order_class_check(rystsov(3), "zero_monotonic").status == "out"

    def test_unknown_class(self):
        with pytest.raises(InputError):
            classify.order_class_check(chain(3), "sorted")

    def test_cap(self):
        with pytest.raises(CapExceeded):
            classify.order_class_check(cerny(10), "monotonic")

    def test_matches_brute_force_over_all_orders(self):
        def sorted_(seq):
            return all(x <= y for x, y in zip(seq, seq[1:]))

        def cyclic(seq):
            return sum(seq[i] > seq[(i + 1) % len(seq)] for i in range(len(seq))) <= 1

        shapes = {
            "monotonic": sorted_,
            "weakly_monotonic": lambda s: sorted_(s) or sorted_(s[::-1]),
            "orientable": cyclic,
            "weakly_orientable": lambda s: cyclic(s) or cyclic(s[::-1]),
            "zero_monotonic": sorted_,
        }

        def longest_cycle(row):
            lengths = [0]
            for q in range(len(row)):
                x, m = row[q], 1
                while x != q and m <= len(row):
                    x, m = row[x], m + 1
                if x == q:
                    lengths.append(m)
            return max(lengths)

        def expected(d, cls):
            # the first order, in lexicographic order over all n! orders (per
            # zero, over the other states, for the zero-respecting shape)
            zeros = [None]
            if cls == "zero_monotonic":
                zeros = [q for q in range(d.n) if all(row[q] == q for row in d.delta)]
                if not zeros:
                    return {"status": "out", "note": "no zero state"}
            for z in zeros:
                for order in itertools.permutations([q for q in range(d.n) if q != z]):
                    pos = {q: i for i, q in enumerate(order)}
                    if all(shapes[cls]([pos[row[q]] for q in order if row[q] != z])
                           for row in d.delta):
                        witness = list(order) if z is None else {"zero": z, "order": list(order)}
                        return {"status": "in", "witness": witness}
            limit = {"monotonic": 1, "weakly_monotonic": 2}.get(cls)
            for a, row in enumerate(d.delta):
                if limit is not None and longest_cycle(row) > limit:
                    return {"status": "out",
                            "note": f"letter {d.letters[a]!r} has a cycle no such order allows"}
            return {"status": "out"}

        rng = random.Random(41)
        for i in range(300):
            n, k = rng.choice((1, 2, 3, 4, 4, 5, 5, 5)), rng.randrange(1, 4)
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(k)]
            if i % 4 in (1, 3):
                rows = [sorted(row) for row in rows]
            if i % 4 in (2, 3):
                for z in rng.sample(range(n), rng.randrange(1, min(2, n) + 1)):
                    for row in rows:
                        row[z] = z
            if i % 8 >= 4:
                # hide the natural order behind a relabeling
                perm = rng.sample(range(n), n)
                rows = [[perm[row[perm.index(q)]] for q in range(n)] for row in rows]
            d = Dfa(n, tuple("abc"[:k]), tuple(map(tuple, rows)))
            for cls in classify.ORDER_CLASSES:
                assert classify.order_class_check(d, cls).to_json() == expected(d, cls), (rows, cls)


class TestD6:
    def test_cerny_in(self):
        assert classify.is_d6(cerny(6)).status == "in"

    def test_rystsov_out(self):
        # swap letters never move state 0
        assert classify.is_d6(rystsov(4)).status == "out"

    def test_single_cycle_letter(self):
        d = Dfa(4, ("b",), ((1, 2, 3, 0),))
        assert classify.is_d6(d).status == "in"

    def test_rank_deficit_two_out(self):
        d = Dfa(3, ("a",), ((0, 0, 0),))
        assert classify.is_d6(d).status == "out"


class TestIntervals:
    def cycle_graph(self, n):
        return classify.Digraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    def test_cerny_respects_cycle(self):
        n = 5
        v = classify.respects_intervals(cerny(n), self.cycle_graph(n))
        assert v.status == "in"

    def test_cycle_graph_dense(self):
        assert classify.is_dense(self.cycle_graph(6)).status == "in"

    def test_edgeless_graph(self):
        g = classify.Digraph.from_edges(4, [])
        assert classify.is_dense(g).status == "in"
        v = classify.respects_intervals(cerny(4), g)
        # merging letter a maps the empty intervals [0,1] and [1,0];
        # empty is not a singleton, so the collapse clause fails
        assert v.status == "out" and v.witness[3] == "clause3"

    def test_interval_table_on_cycle(self):
        g = self.cycle_graph(4)
        table = classify.interval_table(g)
        assert table[0][2] == frozenset({0, 1, 2})
        assert table[2][0] == frozenset({2, 3, 0})
        assert table[1][1] == frozenset({0, 1, 2, 3})

    def test_table_matches_per_pair_search(self):
        def inner(g, start, cut):
            # states reached from start along edges that enter no state of cut
            seen, todo = set(), [start]
            while todo:
                for v in g.succs[todo.pop()]:
                    if v not in cut and v not in seen:
                        seen.add(v)
                        todo.append(v)
            return seen

        rng = random.Random(47)
        for _ in range(150):
            n = rng.randrange(1, 8)
            density = rng.choice([0.15, 0.3, 0.5, 0.8])
            g = classify.Digraph.from_edges(
                n, [(u, v) for u in range(n) for v in range(n) if rng.random() < density])
            table = classify.interval_table(g)
            for p in range(n):
                for r in range(n):
                    cut = {p, r}
                    middle = {q for q in inner(g, p, cut)
                              if any(r in g.succs[x] for x in inner(g, q, cut) | {q})}
                    if p == r:
                        want = middle | {p}
                    elif middle or r in g.succs[p]:
                        want = middle | {p, r}
                    else:
                        want = set()
                    assert table[p][r] == want, (g.succs, p, r)

    def test_violating_graph_reports_counterexample(self):
        # path graph: 0 -> 1 -> 2 plus automaton that breaks clause 1
        g = classify.Digraph.from_edges(3, [(0, 1), (1, 2)])
        d = Dfa(3, ("a",), ((2, 1, 0),))
        v = classify.respects_intervals(d, g)
        assert v.status == "out"

    def test_graph_json_roundtrip(self):
        g = classify.Digraph.from_json({"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]})
        assert g.succs == ((1,), (2,), (0,))
        with pytest.raises(InputError):
            classify.Digraph.from_json({"n": 2})
        with pytest.raises(InputError):
            classify.Digraph.from_json({"n": 2, "edges": [[0, 5]]})

    def test_graph_json_rejects_boolean_n(self):
        with pytest.raises(InputError, match="n: expected a positive integer"):
            classify.Digraph.from_json({"n": True, "edges": []})

    def test_graph_json_rejects_non_integer_endpoints(self):
        for edge in (["x", 1], [0, "1"], [0, False]):
            with pytest.raises(InputError, match=r"edges\[0\]"):
                classify.Digraph.from_json({"n": 2, "edges": [edge]})


class TestReport:
    def test_cerny_ground_truths(self):
        report = classify.class_report(cerny(5))
        assert report["a1"]["status"] == "in"
        assert report["a2"]["status"] == "in"
        assert report["a3"]["status"] == "in"
        assert report["a5"]["status"] == "in"
        assert report["a6"]["status"] == "out"
        assert report["a9"]["status"] == "in"
        assert report["a10"]["status"] == "in"
        assert report["b1"]["status"] == "out"
        assert report["b2"]["status"] == "out"
        assert report["d1"]["status"] == "in"
        assert report["d2"]["status"] == "in"
        assert report["d6"]["status"] == "in"

    def test_a4_needs_graph(self):
        report = classify.class_report(cerny(4), classes=["a4"])
        assert report["a4"]["status"] == "not-checked"
        g = classify.Digraph.from_edges(4, [(i, (i + 1) % 4) for i in range(4)])
        report = classify.class_report(cerny(4), classes=["a4"], delta_graph=g)
        assert report["a4"]["status"] == "in"

    def test_unknown_class_id(self):
        with pytest.raises(InputError):
            classify.class_report(cerny(4), classes=["zz"])

    def test_cap_reports_unknown(self, monkeypatch):
        monkeypatch.setattr(monoid, "DS_CAP", 3)
        report = classify.class_report(cerny(4), classes=["b3", "c3"])
        for cid in ("b3", "c3"):
            assert report[cid]["status"] == "unknown"
            assert "cap" in report[cid]["note"]

    def test_outputs_match_the_recorded_hash(self):
        # the reports of a seeded set of automata (n <= 6, k <= 3), hashed
        # once and frozen: any change to a verdict, witness, note or key
        # order shows here
        automata = [families.gen_cerny(n).dfa for n in range(2, 7)]
        automata += [families.gen_chain(n).dfa for n in range(2, 7)]
        automata += [families.gen_rystsov(n).dfa for n in (2, 3, 4)]
        rng = random.Random(2024)
        for i in range(80):
            n, k = rng.choice((1, 2, 3, 4, 4, 5, 5, 6)), rng.randrange(1, 4)
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(k)]
            if i % 4 in (1, 3):
                rows = [sorted(row) for row in rows]
            if i % 4 in (2, 3):
                for z in rng.sample(range(n), rng.randrange(1, min(2, n) + 1)):
                    for row in rows:
                        row[z] = z
            if i % 8 >= 4:
                rows[0] = rng.sample(range(n), n)
            automata.append(Dfa(n, tuple("abc"[:k]), tuple(map(tuple, rows))))
        outputs = []
        for d in automata:
            ring = classify.Digraph.from_edges(d.n, [(q, (q + 1) % d.n) for q in range(d.n)])
            outputs.append(classify.class_report(d))
            outputs.append(classify.class_report(d, classes=["a4"], delta_graph=ring))
            outputs.append(monoid.monoid_summary(d))
            outputs += [classify.order_class_check(d, cls).to_json()
                        for cls in classify.ORDER_CLASSES]
        digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
        assert digest == "379bc933a85973cdc5bc8b67bb577bb893db588e264f0e00b015590943f045b6"


class TestSoundness:
    def test_in_witnesses_revalidate(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randrange(2, 6)
            d = Dfa(n, ("a", "b"),
                    tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)))
            v = classify.is_circular(d)
            if v.status == "in":
                row = d.delta[d.letter_index(v.witness)]
                assert core.is_permutation(row) and len(core.cycles_of(row)) == 1
            v = classify.has_zero(d)
            if v.status == "in":
                assert all(row[v.witness] == v.witness for row in d.delta)
            v = classify.order_class_check(d, "orientable")
            if v.status == "in":
                assert not engine.orientation_violations(d, tuple(v.witness))

    def test_completely_reachable_implies_synchronizing(self):
        rng = random.Random(67)
        for _ in range(30):
            n = rng.randrange(2, 6)
            d = Dfa(n, ("a", "b"),
                    tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)))
            if classify.is_completely_reachable(d).status == "in":
                assert engine.is_synchronizing(d)

    def test_a9_implies_synchronizing_and_cerny_bound(self):
        rng = random.Random(71)
        for _ in range(30):
            n = rng.randrange(2, 6)
            d = Dfa(n, ("a", "b"),
                    tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)))
            if classify.is_a9(d).status == "in":
                assert engine.is_synchronizing(d)
                rt, _ = engine.exact_reset_threshold(d)
                assert rt <= (n - 1) ** 2
