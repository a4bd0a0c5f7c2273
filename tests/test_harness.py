import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
import re

import pytest

from synchro import bounds, classify, cli, core, engine, families, harness, monoid
from synchro.core import CapExceeded, Dfa, DomainError, InputError


def canonical_table(delta, n):
    """The least relabeling of a letter-major table under state and letter
    permutations (letter relabeling = sorting the rows): the census oracle."""
    best = None
    for sigma in itertools.permutations(range(n)):
        inv = [0] * n
        for q, s in enumerate(sigma):
            inv[s] = q
        cand = tuple(sorted(tuple(sigma[row[inv[q]]] for q in range(n))
                            for row in delta))
        if best is None or cand < best:
            best = cand
    return best


def images_of_q(n, delta):
    """Every image of the full state set, by a plain closure over frozensets."""
    seen = {frozenset(range(n))}
    todo = list(seen)
    while todo:
        cur = todo.pop()
        for row in delta:
            img = frozenset(row[q] for q in cur)
            if img not in seen:
                seen.add(img)
                todo.append(img)
    return seen


def reference_completely_reachable_binary(n, seed):
    """The sampler without its pre-filter: draw, then the full check only."""
    rng = random.Random(seed)
    for _ in range(harness.SAMPLER_TRIES):
        delta = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(2))
        d = Dfa(n, ("a", "b"), delta)
        if classify.is_completely_reachable(d).status == "in":
            return d
    raise CapExceeded("no instance")


def randrange_tables(rng, n, k):
    """Tables drawn entry by entry with rng.randrange(n), row-major."""
    while True:
        yield tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k))


def reference_sampler(n, k, seed, accept):
    """A table sampler drawing with randrange: the first accepted table."""
    for delta in itertools.islice(randrange_tables(random.Random(seed), n, k),
                                  harness.SAMPLER_TRIES):
        d = Dfa(n, tuple("abc"[:k]), delta)
        if accept(d):
            return d
    raise CapExceeded("no instance")


def is_one_cluster_instance(d):
    return (classify.one_cluster_letters(d) and engine.is_synchronizing(d)
            and core.is_strongly_connected(d))


def is_completely_reachable_instance(d):
    return (harness._reaches_every_corank_one_set(d.n, d.delta)
            and classify.is_completely_reachable(d).status == "in")


# the (n, k, seed) of the seeded random automata perfbench's random_rt builds
RANDOM_RT = ([(48, 2, s) for s in range(6)] + [(52, 2, s) for s in range(3)]
             + [(56, 2, 3), (64, 2, 2), (64, 2, 4)]
             + [(n, 3, s) for n in (32, 36, 40) for s in range(3)])


class TestTableStream:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 64, 255, 256, 257, 1000])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tables_are_the_randrange_draws(self, n, k):
        for seed in range(3):
            got = harness._random_tables(random.Random(seed), n, k)
            want = randrange_tables(random.Random(seed), n, k)
            for _ in range(30):
                assert next(got) == next(want), (n, k, seed)

    @pytest.mark.parametrize("n, k", [(0, 2), (3, 0), (-1, 2)])
    def test_sizes_below_one_are_input_errors(self, n, k):
        with pytest.raises(InputError):
            next(harness._random_tables(random.Random(0), n, k))

    def test_case_6_seeds(self):
        for i in range(500):
            n = 2 + i % 7
            got = harness.random_synchronizing(n, 2, 1000 + i)
            want = reference_sampler(n, 2, 1000 + i, engine.is_synchronizing)
            assert got.delta == want.delta, i

    def test_random_rt_seeds(self):
        for n, k, seed in RANDOM_RT:
            got = harness.random_synchronizing(n, k, seed)
            assert got.delta == reference_sampler(n, k, seed, engine.is_synchronizing).delta

    def test_case_11_seeds(self):
        for i in range(40):
            n = 4 + i % 5
            got = harness.random_one_cluster_binary(n, 5000 + i)
            assert got.delta == reference_sampler(n, 2, 5000 + i, is_one_cluster_instance).delta
            if i % 4 == 0:
                got = harness.random_completely_reachable_binary(n, 6000 + i)
                want = reference_sampler(n, 2, 6000 + i, is_completely_reachable_instance)
                assert got.delta == want.delta, i


def mixed_letter(rng, n):
    """A permutation, a rank n-1 map or a uniform row, a third of the time each,
    so completely reachable automata are common among the draws."""
    kind = rng.randrange(3)
    if kind == 2:
        return tuple(rng.randrange(n) for _ in range(n))
    row = list(range(n))
    rng.shuffle(row)
    if kind == 1:
        row[rng.randrange(n)] = row[rng.randrange(n)]
    return tuple(row)


class TestCorankOnePrefilter:
    def test_never_rejects_a_completely_reachable_table(self):
        for n in range(1, 5):
            rows = list(itertools.product(range(n), repeat=n))
            for delta in itertools.product(rows, repeat=2):
                if not harness._reaches_every_corank_one_set(n, delta):
                    d = Dfa(n, ("a", "b"), delta)
                    assert classify.is_completely_reachable(d).status == "out", delta

    def test_decides_the_corank_one_images_on_seeded_automata(self):
        rng = random.Random(71)
        reachable = 0
        for _ in range(3000):
            n, k = rng.randrange(1, 9), rng.randrange(1, 4)
            delta = tuple(mixed_letter(rng, n) for _ in range(k))
            d = Dfa(n, tuple("abc"[:k]), delta)
            passed = harness._reaches_every_corank_one_set(n, delta)
            if classify.is_completely_reachable(d).status == "in":
                reachable += 1
                assert passed, delta
            if n > 1:
                corank_one = {frozenset(range(n)) - {p} for p in range(n)}
                assert passed == (corank_one <= images_of_q(n, delta)), delta
        assert reachable > 300

    def test_sampler_matches_the_unfiltered_sampler(self):
        for n in range(1, 9):
            for seed in range(8 if n <= 6 else 2):
                got = harness.random_completely_reachable_binary(n, seed)
                assert got.delta == reference_completely_reachable_binary(n, seed).delta


class TestRankScreen:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_row_ranks_are_the_image_sizes(self, n):
        rng = random.Random(n)
        batches = itertools.islice(harness._random_batches(random.Random(n), n, 2), 6)
        # permutation-heavy rows beside the uniform draws
        mixed = bytes(t for _ in range(300) for t in mixed_letter(rng, n))
        for entries in [*batches, mixed]:
            rows = [tuple(entries[i:i + n]) for i in range(0, len(entries), n)]
            assert list(harness._row_ranks(entries, n)) == [len(set(r)) for r in rows]

    def check_screen(self, n, tables):
        """Each table passing the (n-1)-subset reach has row ranks {n-1, n},
        and the screen keeps exactly the tables with those ranks."""
        hits = harness._rank_screen(bytes(t for delta in tables for row in delta
                                          for t in row), n)
        assert len(hits) == len(tables)
        passed = 0
        for delta, hit in zip(tables, hits):
            ranks = sorted(len(set(row)) for row in delta)
            if harness._reaches_every_corank_one_set(n, delta):
                passed += 1
                assert ranks == [n - 1, n], delta
            assert hit == (ranks == [n - 1, n]), delta
        return passed

    @pytest.mark.parametrize("n", [3, 4])
    def test_screen_keeps_every_table_the_reach_passes(self, n):
        rows = list(itertools.product(range(n), repeat=n))
        assert self.check_screen(n, list(itertools.product(rows, repeat=2))) > 0

    def test_screen_keeps_the_seeded_tables_the_reach_passes(self):
        rng = random.Random(72)
        for n in range(3, 9):
            tables = [(mixed_letter(rng, n), mixed_letter(rng, n)) for _ in range(600)]
            assert self.check_screen(n, tables) > 5, n

    @pytest.mark.parametrize("tries", [1, 2, 3, 7, 50, 130, 2000])
    def test_sampler_stops_at_the_cap(self, monkeypatch, tries):
        """The cap falls inside a batch: draws past it are never tested."""
        def outcome(sample, *args):
            try:
                return sample(*args).delta
            except CapExceeded:
                return None
        monkeypatch.setattr(harness, "SAMPLER_TRIES", tries)
        for n in range(1, 13):
            for seed in range(3):
                want = outcome(reference_sampler, n, 2, seed, is_completely_reachable_instance)
                got = outcome(harness.random_completely_reachable_binary, n, seed)
                assert got == want, (n, seed)


def inverse(sigma):
    inv = [0] * len(sigma)
    for q, s in enumerate(sigma):
        inv[s] = q
    return inv


def conjugate(sigma, inv, row):
    """σ·row·σ⁻¹: the row relabeled by σ, sending σ(q) to σ(row(q))."""
    return tuple(sigma[row[inv[q]]] for q in range(len(row)))


def brute_class_minimum(row, n):
    best = None
    for sigma in itertools.permutations(range(n)):
        conj = [0] * n
        for q in range(n):
            conj[sigma[q]] = sigma[row[q]]
        if best is None or tuple(conj) < best:
            best = tuple(conj)
    return best


@functools.lru_cache(maxsize=None)
def canonical_sorted_tables(n, k):
    """Sorted tables in row order that equal their canonical form."""
    rows = list(itertools.product(range(n), repeat=n))
    return [delta for delta in itertools.product(rows, repeat=k)
            if list(delta) == sorted(delta) and canonical_table(delta, n) == delta]


def partitions(n, largest=None):
    """The cycle types of S_n, as non-increasing tuples of cycle lengths."""
    if n == 0:
        yield ()
        return
    for j in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - j, j):
            yield (j, *rest)


def class_size(cycles):
    """The number of permutations with the given cycle lengths."""
    size = math.factorial(sum(cycles))
    for j, c in collections.Counter(cycles).items():
        size //= j ** c * math.factorial(c)
    return size


def power(cycles, length):
    """The cycle lengths of σ^length: a j-cycle splits into gcd(j, length)."""
    return [j // math.gcd(j, length) for j in cycles for _ in range(math.gcd(j, length))]


def commuting_maps(cycles):
    """Maps f with σ·f·σ⁻¹ = f, for σ of these cycle lengths: the first state
    of a j-cycle goes to any state on a cycle whose length divides j."""
    return math.prod(sum(d for d in cycles if j % d == 0) for j in cycles)


def burnside_classes(n, k):
    """Classes of k-letter tables on n states under state relabeling and
    letter permutation, by Burnside's lemma. (σ, π) fixes a table when each
    row is σ's conjugate of the row before it along π's cycles, so a letter
    cycle of length L adds a factor of the maps commuting with σ^L."""
    fixed = sum(class_size(lam) * class_size(mu)
                * math.prod(commuting_maps(power(lam, length)) for length in mu)
                for lam in partitions(n) for mu in partitions(k))
    count, rest = divmod(fixed, math.factorial(n) * math.factorial(k))
    assert rest == 0
    return count


FILTERS = {
    "none": lambda d: True,
    "eulerian": lambda d: classify.is_eulerian(d).status == "in",
    "strongly_connected": core.is_strongly_connected,
    "synchronizing": engine.is_synchronizing,
    "aperiodic": lambda d: monoid.is_aperiodic(monoid.transition_monoid(d)).status == "in",
}


class TestEnumerationOrder:
    def test_class_minima_match_brute_force(self):
        for n in range(1, 6):
            rows = list(itertools.product(range(n), repeat=n))
            least, via, auts = harness._class_minima(rows, n)
            assert [rows[c] for c in least] == [brute_class_minimum(r, n) for r in rows]
            for code, (sigma, inv) in enumerate(via):
                assert conjugate(sigma, inv, rows[least[code]]) == rows[code]
            assert list(auts) == sorted(set(least))
            for code, aut in auts.items():
                want = [p for p in itertools.permutations(range(n))
                        if conjugate(p, inverse(p), rows[code]) == rows[code]]
                assert [sigma for sigma, _ in aut] == want[1:]
                assert all(inv == inverse(sigma) for sigma, inv in aut)

    @pytest.mark.parametrize("letters,states,name",
                             [(2, n, name) for n in range(1, 5) for name in sorted(FILTERS)]
                             + [(1, n, "none") for n in range(1, 6)])
    def test_sequence_matches_reference(self, letters, states, name):
        flags = {} if name == "none" else {name: True}
        filt = harness.EnumerationFilter(letters=letters, states=states, **flags)
        keep = FILTERS[name]
        names = tuple("ab"[:letters])
        reference = [delta for delta in canonical_sorted_tables(states, letters)
                     if keep(Dfa(states, names, delta))]
        assert [d.delta for d in harness.enumerate_automata(filt)] == reference
        tables = harness._row_tables(filt)
        for shard in range(states):
            part = [d.delta for d in harness._representatives(filt, tables, shard)]
            assert part == [delta for delta in reference if delta[0][0] == shard]


class TestOrderlyTest:
    @pytest.mark.parametrize("k, counts", [(1, [1, 3, 7, 19, 47]),
                                           (2, [1, 7, 74, 1474, 41876])])
    def test_class_counts_match_burnside(self, k, counts):
        assert [burnside_classes(n, k) for n in range(1, 6)] == counts
        for n, count in enumerate(counts, 1):
            filt = harness.EnumerationFilter(letters=k, states=n)
            assert len(list(harness.enumerate_automata(filt))) == count

    def test_coset_branch_matches_brute_force(self):
        # tables whose second row is conjugate to the first, r2 == r1 among
        # them, where the relabelings that send r2 onto r1 can decide
        decided_by_coset = 0
        for n in range(1, 6):
            rows, _, least, via, auts = harness._row_tables(harness.EnumerationFilter(2, n))
            # the identity row's automorphisms are S_n, the full cycle's Z_n
            assert len(auts[rows.index(tuple(range(n)))]) == math.factorial(n) - 1
            assert len(auts[rows.index(tuple(range(1, n)) + (0,))]) == n - 1
            for c1, aut in auts.items():
                for c2 in range(c1, len(rows)):
                    if least[c2] != c1:
                        continue
                    delta = (rows[c1], rows[c2])
                    verdict = harness._is_canonical(*delta, aut, via[c2])
                    assert verdict == (canonical_table(delta, n) == delta), delta
                    decided_by_coset += verdict != harness._is_canonical(*delta, aut, None)
        assert decided_by_coset > 0


class TestCanonicalForm:
    def test_relabeling_is_idempotent(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randrange(2, 5)
            delta = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(2))
            canon = canonical_table(delta, n)
            # permute states and letters, re-canonicalize, compare
            sigma = list(range(n))
            rng.shuffle(sigma)
            relabeled = [tuple(sigma[row[sigma.index(q)]] for q in range(n))
                         for row in delta]
            rng.shuffle(relabeled)
            assert canonical_table(tuple(relabeled), n) == canon

    def test_canonical_fixed_point(self):
        delta = ((0, 0), (1, 0))
        canon = canonical_table(delta, 2)
        assert canonical_table(canon, 2) == canon


class TestEnumeration:
    def test_binary_two_states(self):
        filt = harness.EnumerationFilter(letters=2, states=2)
        reps = list(harness.enumerate_automata(filt))
        assert len(reps) == 7

    def test_reps_are_canonical(self):
        filt = harness.EnumerationFilter(letters=2, states=3, synchronizing=True)
        for d in harness.enumerate_automata(filt):
            assert canonical_table(d.delta, 3) == d.delta
            assert engine.is_synchronizing(d)

    def test_eulerian_census_matches_bruteforce(self):
        canon = set()
        for a in itertools.product(range(3), repeat=3):
            for b in itertools.product(range(3), repeat=3):
                d = Dfa(3, ("a", "b"), (a, b))
                if classify.is_eulerian(d).status == "in":
                    canon.add(canonical_table((a, b), 3))
        filt = harness.EnumerationFilter(letters=2, states=3, eulerian=True)
        assert len(list(harness.enumerate_automata(filt))) == len(canon)

    def test_shards_partition_the_census(self):
        filt = harness.EnumerationFilter(letters=2, states=3, synchronizing=True)
        whole = {d.delta for d in harness.enumerate_automata(filt)}
        sharded, tables = set(), harness._row_tables(filt)
        for shard in range(3):
            part = {d.delta for d in harness._representatives(filt, tables, shard)}
            assert not part & sharded
            sharded |= part
        assert sharded == whole

    @pytest.mark.parametrize("n, names", [
        *((n, names) for n in range(1, 5)
          for names in ("none", "eulerian", "strongly_connected", "synchronizing", "aperiodic")),
        (5, "eulerian"),
        (5, "eulerian,synchronizing"),
    ])
    def test_shards_0_and_1_hold_the_whole_census(self, n, names):
        # a class-minimal first row sends state 0 to 0 or 1, so shards from 2
        # on are empty and shards 0 and 1 are the census in order
        flags = {} if names == "none" else dict.fromkeys(names.split(","), True)
        filt = harness.EnumerationFilter(letters=2, states=n, **flags)
        tables = harness._row_tables(filt)
        parts = [[d.delta for d in harness._representatives(filt, tables, s)]
                 for s in range(n)]
        whole = [d.delta for d in harness.enumerate_automata(filt)]
        assert whole == parts[0] + (parts[1] if n > 1 else [])
        assert not any(parts[2:])

    def test_budget_cap(self):
        with pytest.raises(CapExceeded):
            list(harness.enumerate_automata(harness.EnumerationFilter(2, 7)))

    @pytest.mark.parametrize("letters,states", [(0, 3), (-2, 3), (2, 0), (2, -1),
                                                (True, 3), (2, 3.0)])
    def test_sizes_must_be_integers_at_least_one(self, letters, states):
        with pytest.raises(InputError):
            harness.EnumerationFilter(letters=letters, states=states)


class TestCensus:
    def test_resume_reproduces_report(self, tmp_path):
        filt = harness.EnumerationFilter(letters=2, states=4, eulerian=True,
                                         synchronizing=True)
        base = harness.census_max_rt(filt)
        ck = tmp_path / "census.jsonl"
        # simulate an interrupted run: process only shards 0 and 1
        tables = harness._row_tables(filt)
        for shard in range(2):
            rec = {"shard": shard, "filter": dataclasses.asdict(filt), "classes": 0,
                   "max_rt": -1, "attainers": []}
            for d in harness._representatives(filt, tables, shard):
                rt, _ = engine.exact_reset_threshold(d)
                rec["classes"] += 1
                if rt > rec["max_rt"]:
                    rec["max_rt"] = rt
                    rec["attainers"] = [list(map(list, d.delta))]
                elif rt == rec["max_rt"]:
                    rec["attainers"].append(list(map(list, d.delta)))
            with open(ck, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
        resumed = harness.census_max_rt(filt, checkpoint=str(ck))
        assert resumed.classes == base.classes
        assert resumed.max_rt == base.max_rt
        assert resumed.attainers == base.attainers

    def test_resume_rejects_another_filter(self, tmp_path):
        ck = tmp_path / "census.jsonl"
        harness.census_max_rt(harness.EnumerationFilter(letters=2, states=3),
                              checkpoint=str(ck))
        synchronizing = harness.EnumerationFilter(letters=2, states=3, synchronizing=True)
        with pytest.raises(InputError, match=re.escape(f"{ck}:1:")):
            harness.census_max_rt(synchronizing, checkpoint=str(ck))

    def test_resume_rejects_a_record_without_filter(self, tmp_path):
        ck = tmp_path / "census.jsonl"
        ck.write_text(json.dumps({"shard": 0, "classes": 0, "max_rt": -1,
                                  "attainers": []}) + "\n")
        filt = harness.EnumerationFilter(letters=2, states=3)
        with pytest.raises(InputError, match="missing"):
            harness.census_max_rt(filt, checkpoint=str(ck))

    @pytest.mark.parametrize("field,value,culprit", [
        ("shard", None, "shard"),
        ("shard", 3, "shard"),
        ("shard", True, "shard"),
        ("classes", "7", "classes"),
        ("max_rt", 2.0, "max_rt"),
        ("attainers", {}, "attainers"),
    ])
    def test_resume_rejects_a_malformed_record(self, tmp_path, field, value, culprit):
        filt = harness.EnumerationFilter(letters=2, states=3)
        rec = {"shard": 0, "filter": dataclasses.asdict(filt), "classes": 0,
               "max_rt": -1, "attainers": []}
        if value is None:
            del rec[field]
        else:
            rec[field] = value
        ck = tmp_path / "census.jsonl"
        ck.write_text(json.dumps(rec) + "\n")
        with pytest.raises(InputError, match=re.escape(f"{ck}:1: {culprit}")):
            harness.census_max_rt(filt, checkpoint=str(ck))

    def test_row_tables_are_built_once(self, monkeypatch):
        calls = []
        build = harness._row_tables
        monkeypatch.setattr(harness, "_row_tables", lambda filt: calls.append(filt) or build(filt))
        filt = harness.EnumerationFilter(letters=2, states=4, eulerian=True)
        harness.census_max_rt(filt)
        assert calls == [filt]

    def test_no_pair_search_in_the_census(self, monkeypatch):
        # the threshold kernel is the census's only synchronization test:
        # no class is pair-tested, under the synchronizing filter too
        calls = []
        for name in ("is_synchronizing", "_merge_levels"):
            monkeypatch.setattr(engine, name, lambda d, name=name: calls.append(name))
        report = harness.census_max_rt(harness.EnumerationFilter(
            letters=2, states=5, eulerian=True, synchronizing=True))
        assert calls == []
        assert (report.max_rt, report.classes, len(report.attainers)) == (10, 379, 1)

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("names", ["synchronizing", "eulerian,synchronizing",
                                       "strongly_connected,synchronizing",
                                       "aperiodic,synchronizing", "none"])
    def test_census_matches_the_pair_tested_enumeration(self, monkeypatch, n, names):
        # the reference: enumerate_automata pair-tests the synchronizing
        # filter, and exact_reset_threshold gives each class its rt; without
        # the filter the classes that do not synchronize count with rt -1
        flags = {} if names == "none" else dict.fromkeys(names.split(","), True)
        filt = harness.EnumerationFilter(letters=2, states=n, **flags)
        classes, refused, max_rt, attainers = 0, 0, -1, []
        for d in harness.enumerate_automata(filt):
            rt = engine.exact_reset_threshold(d)[0] if engine.is_synchronizing(d) else -1
            classes, refused = classes + 1, refused + (rt < 0)
            if rt > max_rt:
                max_rt, attainers = rt, []
            if rt == max_rt:
                attainers.append(list(map(list, d.delta)))
        calls = []
        for name in ("is_synchronizing", "_merge_levels"):
            monkeypatch.setattr(engine, name, lambda d, name=name: calls.append(name))
        report = harness.census_max_rt(filt)
        assert (report.classes, report.max_rt, report.attainers) == (classes, max_rt, attainers)
        assert calls == []
        # every 1-state class synchronizes; from 2 states on some do not
        assert (refused > 0) == (names == "none" and n > 1)

    def test_six_state_eulerian_census(self):
        filt = harness.EnumerationFilter(letters=2, states=6, eulerian=True,
                                         synchronizing=True)
        report = harness.census_max_rt(filt)
        assert report.classes == 4129
        assert report.max_rt == 14
        assert report.attainers == [[[0, 0, 2, 4, 5, 3], [3, 2, 1, 1, 4, 5]]]
        # Kari's bound n^2 - 3n + 3 for Eulerian automata
        assert report.max_rt <= bounds.bound_for_class("eulerian", 6) == 21

    @pytest.mark.parametrize("args,report_sha,checkpoint_sha", [
        (["--states", "5", "--filter", "eulerian,synchronizing"],
         "c6b771464272ee0c2a9cf537cdde45d71fa44171140777872d700ddfb8456648",
         "d3dce0e3603ff1d9af5a43c85bce54ed13da4e73edfcd4edcdcab30c888a68e7"),
        (["--states", "4", "--filter", "synchronizing"],
         "68d8360aca32502d3f13e90af67964cd490d18f0701a866f6a2d6be6f2ef9af1",
         "1be31bb5737c239a669a924657c5cb5f00040fd78b857cbbeb384231f96dd119"),
        # unfiltered: the non-synchronizing classes count with rt -1
        (["--states", "4"],
         "97055000a191bea7141bb5d1cd19adf1ded362976019f828277c17f79ab881b0",
         "e0e7a45fa592f88e4b369df24e06a399680bf3a1706536a7d96ff724f1af28d5"),
    ], ids=["eulerian-synchronizing-5", "synchronizing-4", "all-4"])
    def test_enum_report_and_checkpoint_bytes(self, tmp_path, capsys, args,
                                              report_sha, checkpoint_sha):
        ck = tmp_path / "census.jsonl"
        assert cli.main(["enum", "--letters", "2", *args, "--checkpoint", str(ck)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == report_sha
        assert hashlib.sha256(ck.read_bytes()).hexdigest() == checkpoint_sha

    def test_unreadable_checkpoint_is_an_input_error(self, tmp_path):
        filt = harness.EnumerationFilter(letters=2, states=3)
        with pytest.raises(InputError, match=re.escape(str(tmp_path))):
            harness.census_max_rt(filt, checkpoint=str(tmp_path))


class TestRandomSources:
    def test_random_synchronizing_deterministic(self):
        d1 = harness.random_synchronizing(6, 2, seed=1)
        d2 = harness.random_synchronizing(6, 2, seed=1)
        assert d1.delta == d2.delta
        assert engine.is_synchronizing(d1)

    def test_one_state(self):
        d = harness.random_synchronizing(1, 1, seed=5)
        assert d.n == 1

    def test_single_letter_instances(self):
        # synchronizing iff the letter's functional graph has one terminal
        # cycle, of length 1
        for seed in range(8):
            d = harness.random_synchronizing(5, 1, seed=seed)
            cycles = core.cycles_of(d.delta[0])
            assert len(cycles) == 1 and len(cycles[0]) == 1

    def test_simple_idempotent_source(self):
        d = harness.random_simple_idempotent_binary(7, seed=3)
        assert core.deficiency(d.delta[0]) == 1
        assert core.is_idempotent(d.delta[0])
        assert engine.is_synchronizing(d)

    def test_all_simple_idempotent_source(self):
        d = harness.random_all_simple_idempotent(6, 5, seed=3)
        for row in d.delta:
            assert core.deficiency(row) == 1 and core.is_idempotent(row)
        assert engine.is_synchronizing(d)
        with pytest.raises(DomainError):
            harness.random_all_simple_idempotent(6, 2, seed=3)

    def test_eulerian_source(self):
        d = harness.random_eulerian_binary(6, seed=11)
        assert classify.is_eulerian(d).status == "in"
        assert engine.is_synchronizing(d)

    @pytest.mark.parametrize("n", [0, -3])
    def test_eulerian_source_below_one_state_is_an_input_error(self, n):
        with pytest.raises(InputError):
            harness.random_eulerian_binary(n, seed=11)

    def test_one_cluster_source_is_strongly_connected(self):
        d = harness.random_one_cluster_binary(6, seed=11)
        assert classify.one_cluster_letters(d)
        assert core.is_strongly_connected(d)

    def test_one_cluster_without_connectivity_can_be_non_extensible(self):
        # counterexample to the unqualified per-subset extension reading:
        # state 1 has no incoming edge, so {1, 2} never extends
        d = Dfa(6, ("a", "b"), ((4, 2, 0, 4, 5, 0), (3, 0, 0, 0, 0, 3)))
        assert classify.one_cluster_letters(d)
        assert engine.is_synchronizing(d)
        assert not core.is_strongly_connected(d)
        with pytest.raises(engine.NotExtensible):
            engine.extensibility_profile(d)


class TestSuite:
    def test_quick_suite_deterministic(self, tmp_path):
        out1 = tmp_path / "r1.jsonl"
        out2 = tmp_path / "r2.jsonl"
        r1 = harness.run_suite("quick", max_n=5, out_path=str(out1))
        r2 = harness.run_suite("quick", max_n=5, out_path=str(out2))
        assert [x.passed for x in r1] == [x.passed for x in r2]
        lines1 = [json.loads(x) for x in out1.read_text().splitlines()]
        lines2 = [json.loads(x) for x in out2.read_text().splitlines()]
        for a, b in zip(lines1, lines2):
            a.pop("seconds")
            b.pop("seconds")
        assert lines1 == lines2

    def test_empty_caps_empty_report(self):
        assert harness.run_suite("paper", max_n=1) == []

    def test_extension_campaign_stops_at_the_first_reachable_failure(self, monkeypatch):
        # a profile that passes the Eulerian and one-cluster bounds but whose
        # (n-1)-subsets take n+1 letters, over the completely reachable cap n
        calls = []

        def over_cap(d):
            calls.append(d)
            return engine.ExtensibilityProfile(d.n, {d.n - 1: d.n + 1}, 0)

        monkeypatch.setattr(engine, "extensibility_profile", over_cap)
        passed, detail = harness.crit_extension_class_properties(5, samples=1)
        assert not passed
        assert detail == "reachable n=4: size 3 took 5 > 4"
        assert len(calls) == 3   # eulerian, one-cluster, then the failing instance

    def test_cerny_case_reports_a_witness_that_does_not_reset(self, monkeypatch):
        # the recorded witness loses its last letter; the thresholds still hold
        real = families.gen_cerny

        def short_witness(n):
            inst = real(n)
            notes = {**inst.notes, "witness_word": inst.notes["witness_word"][:-1]}
            return dataclasses.replace(inst, notes=notes)

        monkeypatch.setattr(families, "gen_cerny", short_witness)
        passed, detail = harness.crit_cerny_formula(3)
        assert not passed
        assert detail == ("n=2: recorded witness word does not reset; "
                          "n=3: recorded witness word does not reset")

    def test_eppstein_case_reports_a_suffix_preimage_off_the_cycle_order(self, monkeypatch):
        # The cerny series is oriented under the identity order, so no word
        # on it leaves the arcs: swap states 1 and 2 of cerny-4, so a sends
        # 0 to 2 and b runs 0 2 1 3. Walked from its end, a^8 b carries {1}
        # to {2}, then to {0, 2}; a walk from its start meets {1} and {2} only.
        real_gen, real_solve = families.gen_cerny, engine.eppstein_orientable_word
        swap = (0, 2, 1, 3)

        def relabeled(n):
            inst = real_gen(n)
            if n != 4:
                return inst
            delta = tuple(tuple(swap[row[swap[q]]] for q in range(n)) for row in inst.dfa.delta)
            return dataclasses.replace(inst, dfa=Dfa(n, inst.dfa.letters, delta))

        def solve(d):
            if d.n != 4:
                return real_solve(d)
            return engine.SolveResult((0,) * 8 + (1,), "eppstein", 1)   # length 9 = rt

        monkeypatch.setattr(families, "gen_cerny", relabeled)
        monkeypatch.setattr(engine, "eppstein_orientable_word", solve)
        passed, detail = harness.crit_eppstein(4)
        assert not passed
        assert detail == "n=4: suffix preimage [0, 2] not an interval"

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            harness.run_suite("nope", max_n=4)

    def test_workers_match_serial(self):
        serial = harness.run_suite("quick", max_n=4, workers=1)
        parallel = harness.run_suite("quick", max_n=4, workers=2)
        assert [(r.case_id, r.passed) for r in serial] == \
            [(r.case_id, r.passed) for r in parallel]
