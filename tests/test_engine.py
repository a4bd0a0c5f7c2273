import hashlib
import itertools
import math
import random
import weakref

import pytest

from synchro import core, engine
from synchro.core import CapExceeded, Dfa, DomainError, NotSynchronizing, StateSet


def cerny(n):
    a = tuple(1 if q == 0 else q for q in range(n))
    b = tuple((q + 1) % n for q in range(n))
    return Dfa(n, ("a", "b"), (a, b), name=f"C{n}")


def random_dfa(n, k, rng):
    return Dfa(n, tuple("abcdef"[:k]),
               tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k)))


def random_sync(n, k, rng):
    while True:
        d = random_dfa(n, k, rng)
        if engine.is_synchronizing(d):
            return d


def one_state():
    return Dfa(1, ("a",), ((0,),))


# This small automaton is Eulerian (every in-degree equals 2, connected)
# and synchronizing ("aa" resets it to 0).
EULERIAN3 = Dfa(3, ("a", "b"), ((0, 0, 1), (2, 1, 2)))


class TestIsSynchronizing:
    def test_cerny(self):
        for n in range(2, 9):
            assert engine.is_synchronizing(cerny(n))

    def test_two_permutations(self):
        d = Dfa(2, ("a", "b"), ((0, 1), (1, 0)))
        assert not engine.is_synchronizing(d)

    def test_one_state(self):
        assert engine.is_synchronizing(one_state())
        assert engine._merge_levels(one_state()) == []
        assert engine.merge_probe_target(one_state()) == 0

    def test_permutation_letters_merge_nothing(self):
        d = Dfa(4, ("a", "b"), ((1, 2, 3, 0), (1, 0, 2, 3)))
        assert engine._merge_levels(d) == []
        assert not engine.is_synchronizing(d)

    def test_identity_letter(self):
        ident = tuple(range(4))
        c4 = cerny(4)
        d = Dfa(4, ("e",) + c4.letters, (ident,) + c4.delta)
        assert level_sets(engine._merge_levels(d)) == level_sets(engine._merge_levels(c4))
        assert engine.is_synchronizing(d)
        assert not engine.is_synchronizing(Dfa(4, ("e",), (ident,)))

    def test_one_letter(self):
        # a path 3 -> 2 -> 1 -> 0 with a loop at 0
        d = Dfa(4, ("a",), ((0, 0, 1, 2),))
        assert level_sets(engine._merge_levels(d)) == [
            {(0, 1)}, {(0, 2), (1, 2)}, {(0, 3), (1, 3), (2, 3)}]
        assert engine.is_synchronizing(d)
        # two fixed points: (0, 1) merges, and nothing merges 2 with 0 or 1
        d = Dfa(3, ("a",), ((0, 0, 2),))
        assert engine._merge_levels(d) == [[(0, 1)]]
        assert not engine.is_synchronizing(d)

    def test_merge_probe_target_rejects_non_synchronizing(self):
        d = Dfa(3, ("a", "b"), ((0, 0, 2), (1, 0, 2)))
        assert not engine.is_synchronizing(d)
        with pytest.raises(NotSynchronizing):
            engine.merge_probe_target(d)

    def test_agrees_with_subset_search(self):
        rng = random.Random(23)
        for _ in range(150):
            d = random_dfa(rng.randrange(2, 9), rng.randrange(1, 4), rng)
            # oracle: forward DFS over subsets looking for a singleton
            full = (1 << d.n) - 1
            seen = {full}
            stack = [full]
            found = False
            while stack:
                m = stack.pop()
                if m & (m - 1) == 0:
                    found = True
                    break
                for row in d.delta:
                    m2 = core.image_mask(row, m)
                    if m2 not in seen:
                        seen.add(m2)
                        stack.append(m2)
            assert engine.is_synchronizing(d) == found


# -- the pair-automaton kernel against the reverse-map search ------------------

def ref_merge_levels(d):
    """_merge_levels as it stood before the predecessor classes: the reverse
    map of the pair automaton built pair by pair, then a breadth-first
    search from the pairs one letter merges."""
    n = d.n
    seen = set()
    rev = {}
    level = []
    for p in range(n):
        for q in range(p + 1, n):
            for row in d.delta:
                pp, qq = row[p], row[q]
                if pp != qq:
                    rev.setdefault((pp, qq) if pp < qq else (qq, pp), []).append((p, q))
                elif (p, q) not in seen:
                    seen.add((p, q))
                    level.append((p, q))
    levels = []
    while level:
        levels.append(level)
        nxt = []
        for pair in level:
            for src in rev.get(pair, ()):
                if src not in seen:
                    seen.add(src)
                    nxt.append(src)
        level = nxt
    return levels


def level_sets(levels):
    """The levels as sets, after checking that no level repeats a pair."""
    sets = [set(level) for level in levels]
    assert list(map(len, sets)) == list(map(len, levels))
    return sets


class TestMergeLevels:
    def check(self, d):
        """Equal level sets and verdicts; returns whether d synchronizes."""
        ref = ref_merge_levels(d)
        assert level_sets(engine._merge_levels(d)) == level_sets(ref), d
        sync = sum(map(len, ref)) == d.n * (d.n - 1) // 2
        assert engine.is_synchronizing(d) == sync, d
        return sync

    def test_seeded_unfiltered_tables(self):
        rng = random.Random(16)
        verdicts = [self.check(random_dfa(rng.randrange(1, 13), rng.randrange(1, 5), rng))
                    for _ in range(2000)]
        assert verdicts.count(False) >= 300
        assert verdicts.count(True) >= 300

    def test_every_family_instance_up_to_16_states(self):
        dfas = list(family_instances(16))
        assert len(dfas) > 100
        for d in dfas:
            self.check(d)

    @pytest.mark.parametrize("n", [64, 128])
    def test_sampled_synchronizing(self, n):
        from synchro import harness
        for seed in range(3):
            assert self.check(harness.random_synchronizing(n, 2, seed))


class TestExactResetThreshold:
    def test_cerny_values(self):
        for n in range(2, 8):
            length, word = engine.exact_reset_threshold(cerny(n))
            assert length == (n - 1) ** 2
            assert len(word) == length

    def test_one_state(self):
        assert engine.exact_reset_threshold(one_state()) == (0, ())

    def test_word_resets(self):
        d = cerny(5)
        _, word = engine.exact_reset_threshold(d)
        assert len(core.image(d, StateSet.full(5), word)) == 1

    def test_word_is_least_among_shortest(self):
        rng = random.Random(41)
        for _ in range(20):
            d = random_sync(rng.randrange(2, 5), 2, rng)
            length, word = engine.exact_reset_threshold(d)
            # oracle: enumerate all words of that length in lex order
            import itertools
            best = None
            for cand in itertools.product(range(d.k), repeat=length):
                if len(core.image(d, StateSet.full(d.n), cand)) == 1:
                    best = cand
                    break
            assert word == best

    def test_matches_backward_search_from_singletons(self):
        # independent route: grow each singleton's preimage until it is the
        # full set; the least of those words is the least shortest reset word,
        # and one search from all singletons at once finds it too
        rng = random.Random(97)
        for _ in range(200):
            d = random_sync(rng.randrange(2, 9), rng.choice((2, 3)), rng)
            tabs, pre = core.image_tables(d), core.preimage_tables(d)
            backward = []
            for q in range(d.n):
                levels, hit = engine._backward_search(pre, (1 << q,), d.n - 1)
                if hit is not None:
                    word = engine._read_down(tabs, levels[:-1], hit)
                    backward.append((len(word), word))
            assert engine.exact_reset_threshold(d) == min(backward)
            levels, hit = engine._backward_search(pre, [1 << q for q in range(d.n)], d.n - 1)
            assert engine._read_down(tabs, levels[:-1], hit) == min(backward)[1]

    def test_read_down_with_no_fitting_letter_raises(self):
        # cerny-4 carries {1, 2} to {1, 2} and {2, 3}, neither inside {0}
        with pytest.raises(AssertionError, match="no letter carries"):
            engine._read_down(core.image_tables(cerny(4)), [[0b0001]], 0b0110)

    def test_not_synchronizing(self):
        d = Dfa(2, ("a", "b"), ((0, 1), (1, 0)))
        with pytest.raises(NotSynchronizing):
            engine.exact_reset_threshold(d)

    @pytest.mark.parametrize("word", [(), (0,), (1, 0, 1)])
    def test_word_is_rerun(self, monkeypatch, word):
        # a search that read a non-reset word would be a bug, not an answer
        monkeypatch.setattr(engine, "_read_word", lambda tabs, levels, m, pre: word)
        monkeypatch.setattr(engine, "_read_down", lambda tabs, levels, m: ())
        with pytest.raises(AssertionError, match="non-reset word"):
            engine.exact_reset_threshold(cerny(4))

    def test_door_refuses_after_one_bounded_pair_test(self, monkeypatch):
        # a 64-state synchronizing table plus an isolated fixed state: the
        # kernel alone would decide it only by a full subset search. The
        # pair test runs once the two sides have seen more masks than its
        # own k*n(n-1)/2 steps, so the search ends with the level that
        # crosses that count.
        from synchro import harness
        d = with_isolated_state(harness.random_synchronizing(64, 2, 1))
        out, pair_tests, kept, _ = traced(monkeypatch, engine.exact_reset_threshold, d, 65)
        assert (out, pair_tests) == (NotSynchronizing, 1)
        assert sum(kept[:-1]) <= 2 * 65 * 64 // 2 < sum(kept), kept

    def test_door_under_the_threshold_runs_no_pair_test(self, monkeypatch):
        # the sides meet after 744 kept masks, below the pair test's 2,256
        from synchro import harness
        d = harness.random_synchronizing(48, 2, 0)
        want = engine._meet_search(d)
        out, pair_tests, kept, _ = traced(monkeypatch, engine.exact_reset_threshold, d, 48)
        assert (out, pair_tests, sum(kept)) == ((len(want), want), 0, 744)

    def test_door_past_the_threshold_runs_one_pair_test(self, monkeypatch):
        # eleven letters: the sides keep more than 11*12*11/2 masks before
        # they meet, and the passing pair test leaves the word alone
        from synchro import families
        d = families.gen_rystsov(12).dfa
        want = engine._meet_search(d)
        out, pair_tests, kept, _ = traced(monkeypatch, engine.exact_reset_threshold, d)
        assert (out, pair_tests) == ((66, want), 1)
        assert sum(kept) > d.k * d.n * (d.n - 1) // 2

    def test_cap(self):
        d = Dfa(3, ("a",), ((0, 0, 1),))
        with pytest.raises(CapExceeded):
            engine.exact_reset_threshold(d, cap=2)


class TestGreedy:
    def test_constant_letter(self):
        d = Dfa(4, ("c", "p"), ((2, 2, 2, 2), (1, 2, 3, 0)))
        res = engine.greedy_compression_word(d)
        assert res.word == (0,) and res.length == 1 and res.target == 2

    def test_cerny_within_cubic_bound(self):
        for n in range(2, 8):
            res = engine.greedy_compression_word(cerny(n))
            assert res.length <= (n ** 3 - n) // 6

    def test_random_bound_and_validity(self):
        rng = random.Random(97)
        for _ in range(40):
            n = rng.randrange(2, 7)
            d = random_sync(n, 2, rng)
            res = engine.greedy_compression_word(d)
            rt, _ = engine.exact_reset_threshold(d)
            assert rt <= res.length <= (n ** 3 - n) // 6

    def test_zero_automaton_within_triangular_bound(self):
        from synchro import families
        d = families.gen_rystsov(4).dfa
        assert engine.greedy_compression_word(d).length <= 6

    def test_each_step_is_least_shortest_compressing_word(self):
        # second route: each step of the greedy word is the first word in
        # shortlex order that shrinks the current set, found by brute force
        def run(d, mask, word):
            for a in word:
                mask = core.image_mask(d.delta[a], mask)
            return mask

        rng = random.Random(61)
        for _ in range(200):
            d = random_sync(rng.randrange(2, 8), rng.choice((2, 3)), rng)
            word = engine.greedy_compression_word(d).word
            cur, i = (1 << d.n) - 1, 0
            while cur.bit_count() > 1:
                step = next(w for length in itertools.count(1)
                            for w in itertools.product(range(d.k), repeat=length)
                            if run(d, cur, w).bit_count() < cur.bit_count())
                assert word[i:i + len(step)] == step
                cur, i = run(d, cur, step), i + len(step)
            assert i == len(word)


class TestGreedyPairs:
    # greedy runs on the pair levels alone: no subset search, no image tables
    def test_one_state(self):
        res = engine.greedy_compression_word(one_state())
        assert res.word == () and res.target == 0

    def test_permutation_letters_raise(self):
        d = Dfa(4, ("a", "b"), ((1, 2, 3, 0), (1, 0, 2, 3)))
        assert engine._merge_levels(d) == []
        with pytest.raises(NotSynchronizing):
            engine.greedy_compression_word(d)

    def test_merging_letter_that_does_not_synchronize_raises(self):
        d = Dfa(3, ("a", "b"), ((0, 0, 2), (1, 0, 2)))
        assert engine._merge_levels(d)
        with pytest.raises(NotSynchronizing):
            engine.greedy_compression_word(d)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            engine.greedy_compression_word(cerny(5), cap=4)

    def test_runs_without_subset_search(self, monkeypatch):
        from synchro import harness
        dfas = [cerny(8), harness.random_synchronizing(12, 2, 3)]
        want = [ref_greedy_word(d) for d in dfas]

        def refuse(*args):
            raise AssertionError("greedy ran a subset step")

        monkeypatch.setattr(core, "image_tables", refuse)
        monkeypatch.setattr(engine, "_step_forward", refuse)
        assert [engine.greedy_compression_word(d).word for d in dfas] == want

    def test_agrees_with_reference_on_seeded_tables(self):
        rng = random.Random(41)
        words = 0
        for _ in range(1000):
            d = random_dfa(rng.randrange(1, 13), rng.randrange(1, 5), rng)
            got = outcome(lambda d: engine.greedy_compression_word(d).word, d)
            assert got == outcome(ref_greedy_word, d), d.delta
            words += isinstance(got, tuple)
        assert 0 < words < 1000


class TestExtension:
    def test_eulerian_profile_within_n_minus_1(self):
        prof = engine.extensibility_profile(EULERIAN3)
        assert prof.max_length <= 2
        assert prof.alpha <= 1

    def test_profile_failure_carries_subset(self):
        # a constant letter makes {1,2} non-extensible: preimages vanish
        d = Dfa(3, ("a",), ((0, 0, 0),))
        with pytest.raises(engine.NotExtensible) as err:
            engine.extensibility_profile(d)
        assert set(err.value.subset) == {1, 2}

    def test_cerny_extension_word(self):
        for n in range(2, 7):
            res = engine.reset_word_via_extension(cerny(n))
            assert res.length <= (n - 1) ** 2

    def test_extension_bound_from_profile(self):
        rng = random.Random(15)
        for _ in range(25):
            n = rng.randrange(3, 7)
            d = random_sync(n, 2, rng)
            try:
                prof = engine.extensibility_profile(d)
            except engine.NotExtensible:
                continue
            res = engine.reset_word_via_extension(d)
            assert res.length <= prof.extension_bound()

    def test_one_state(self):
        assert engine.reset_word_via_extension(one_state()).word == ()

    def test_profile_at_the_cap(self):
        # 2^16 - 18 searches over two arrays of 2^16 masks; Černý's series
        # needs n letters for its worst subsets
        assert engine.EXTENSION_CAP == 16
        assert engine.extensibility_profile(cerny(16)).max_length == 16
        with pytest.raises(CapExceeded):
            engine.extensibility_profile(cerny(17))

    def test_eulerian_extension_within_square_minus(self):
        # four-state instance with uniform in-degree 2: each step extends
        # within n-1, so the whole word stays within 1+(n-1)(n-2) = 7
        d = Dfa(4, ("a", "b"), ((0, 0, 1, 2), (1, 2, 3, 3)))
        from synchro import classify
        assert classify.is_eulerian(d).status == "in"
        assert engine.is_synchronizing(d)
        res = engine.reset_word_via_extension(d)
        assert res.length <= 7

    def test_permutation_letters_refused_without_a_search(self, monkeypatch):
        # no letter merges two states: no seed, no pair test, no search
        d = Dfa(4, ("a", "b"), ((1, 2, 3, 0), (1, 0, 2, 3)))
        out, pair_tests, _, searches = traced(monkeypatch, engine.reset_word_via_extension, d)
        assert (out, pair_tests, searches) == (NotSynchronizing, 0, 0)

    def test_isolated_state_refused_after_one_pair_test(self, monkeypatch):
        # no preimage grown from a state of the table reaches the isolated
        # state, so the extension fails and the pair test names the reason
        from synchro import harness
        d = with_isolated_state(harness.random_synchronizing(16, 2, 0))
        out, pair_tests, _, searches = traced(monkeypatch, engine.reset_word_via_extension, d)
        assert (out, pair_tests) == (NotSynchronizing, 1) and searches > 0

    def test_non_extensible_after_one_pair_test(self, monkeypatch):
        # the pair test passes, so the failing subset is the answer
        from synchro import harness
        d = harness.random_synchronizing(64, 2, 2)
        out, pair_tests, _, _ = traced(
            monkeypatch, extension_outcome, engine.reset_word_via_extension, d, 64)
        assert pair_tests == 1
        assert out == (engine.NotExtensible, tuple(q for q in range(64) if q not in (45, 51, 62)))

    def test_extensible_families_run_no_pair_test(self, monkeypatch):
        # the word the extension returns proves synchronization
        dfas, want = [], []
        for d in family_instances(12):
            word = extension_outcome(ref_extension_word, d)
            if isinstance(word, tuple) and word[:1] != (engine.NotExtensible,):
                dfas.append(d)
                want.append(word)
        assert len(dfas) > 80
        got = []
        for d in dfas:
            out, pair_tests, _, _ = traced(monkeypatch, engine.reset_word_via_extension, d)
            assert pair_tests == 0, d.name
            got.append(out.word)
        assert got == want

    def test_shortest_extending_word_is_shortest(self):
        rng = random.Random(4)
        import itertools
        for _ in range(10):
            d = random_sync(3, 2, rng)
            pre = core.letter_preimage_masks(d)
            for m in range(1, 7):
                if m.bit_count() != 2:
                    continue
                v = engine.shortest_extending_word(core.image_tables(d),
                                                   core.preimage_tables(d), m)
                # oracle: try all words by increasing length, per-bit steps
                best = None
                for length in range(0, 8):
                    for cand in itertools.product(range(2), repeat=length):
                        t = m
                        for a in reversed(cand):
                            t = core.preimage_mask(pre[a], t)
                        if t.bit_count() > 2:
                            best = cand
                            break
                    if best is not None:
                        break
                if v is None:
                    assert best is None
                else:
                    assert best is not None and len(v) == len(best)


class TestEppstein:
    def test_cerny_exact(self):
        for n in range(3, 7):
            res = engine.eppstein_orientable_word(cerny(n), tuple(range(n)))
            assert res.length == (n - 1) ** 2

    def test_c5_under_natural_order(self):
        res = engine.eppstein_orientable_word(cerny(5))
        assert res.length <= 16
        d = cerny(5)
        assert len(core.image(d, StateSet.full(5), res.word)) == 1

    def test_one_state(self):
        assert engine.eppstein_orientable_word(one_state()).word == ()

    def test_word_is_the_least_shortest_reset_word(self):
        # both series are orientable under the identity order and the interval
        # solver searches every interval, so it finds the exact search's word
        from synchro import families
        dfas = ([cerny(n) for n in range(2, 13)]
                + [families.gen_dnk(n, n - 1).dfa for n in range(3, 12)])
        for d in dfas:
            assert engine.eppstein_orientable_word(d).word == engine.exact_reset_threshold(d)[1]

    def test_rejects_unorientable_order(self):
        # swapping two cycle states breaks the order for letter b
        d = cerny(5)
        with pytest.raises(DomainError):
            engine.eppstein_orientable_word(d, (0, 2, 1, 3, 4))

    def test_suffix_preimages_are_intervals(self):
        d = cerny(5)
        res = engine.eppstein_orientable_word(d)
        pre = core.letter_preimage_masks(d)
        mask = 1 << res.target
        for a in reversed(res.word):
            mask = core.preimage_mask(pre[a], mask)
            if mask.bit_count() in (0, 5):
                continue
            ends = sum(1 for j in range(5)
                       if (mask >> j) & 1 and not (mask >> ((j + 1) % 5)) & 1)
            assert ends == 1

    def test_decides_synchronization_by_its_own_search(self, monkeypatch):
        def refuse(d):
            raise RuntimeError("is_synchronizing called")

        monkeypatch.setattr(engine, "is_synchronizing", refuse)
        unsynchronized = [
            Dfa(3, ("a",), ((0, 1, 2),)),
            Dfa(3, ("b",), ((1, 2, 0),)),
            # {0, 1} -> 0 and {2, 3} -> 2, then a swap of the two halves
            Dfa(4, ("a", "b"), ((0, 0, 2, 2), (2, 3, 0, 1))),
        ]
        for d in unsynchronized:
            with pytest.raises(NotSynchronizing, match="automaton is not synchronizing"):
                engine.eppstein_orientable_word(d)
        assert engine.eppstein_orientable_word(cerny(6)).length == 25

    def test_matches_the_solver_with_a_synchronization_pre_check(self):
        from synchro import families
        rng = random.Random(20)
        cases = []
        for _ in range(3000):
            n, k = rng.randint(1, 9), rng.randint(1, 3)
            cases.append((oriented_dfa(n, k, rng), None))
        for _ in range(2000):
            n, k = rng.randint(1, 9), rng.randint(1, 3)
            order = rng.sample(range(n), n)
            d = oriented_dfa(n, k, rng)
            # relabel state i as order[i]: d's cyclic order becomes order
            delta = [[0] * n for _ in range(k)]
            for a, row in enumerate(d.delta):
                for i, t in enumerate(row):
                    delta[a][order[i]] = order[t]
            cases.append((Dfa(n, d.letters, tuple(map(tuple, delta))), order))
        cases += [(cerny(n), None) for n in range(2, 18)]
        cases += [(families.gen_dnk(n, n - 1).dfa, None) for n in range(3, 18)]
        outcomes = []
        for d, order in cases:
            got = solve_outcome(engine.eppstein_orientable_word, d, order)
            assert got == solve_outcome(reference_eppstein, d, order), (d.delta, order)
            outcomes.append(got)
        failed = [o for o in outcomes if not isinstance(o, engine.SolveResult)]
        assert all(o == (NotSynchronizing, "automaton is not synchronizing") for o in failed)
        assert len(failed) > 500


def oriented_dfa(n, k, rng):
    """Letters that preserve the cyclic order 0..n-1: each row is a rotation
    of a nondecreasing sequence."""
    rows = []
    for _ in range(k):
        seq, r = sorted(rng.randrange(n) for _ in range(n)), rng.randrange(n)
        rows.append(tuple(seq[r:] + seq[:r]))
    return Dfa(n, tuple("abc"[:k]), tuple(rows))


def solve_outcome(solve, d, order):
    try:
        return solve(d, order)
    except (DomainError, AssertionError) as exc:
        return type(exc), str(exc)


def reference_eppstein(d, order=None):
    """The interval solver with an is_synchronizing pre-check and an arc test
    of its own on each mask's positions in the order."""
    n = d.n
    order = tuple(range(n)) if order is None else tuple(order)
    pos = [0] * n
    for i, q in enumerate(order):
        pos[q] = i
    for a in range(d.k):
        seq = [pos[d.delta[a][q]] for q in order]
        if sum(seq[i] > seq[(i + 1) % n] for i in range(n)) > 1:
            raise DomainError("order is not orientable for this automaton; "
                              f"letter {d.letters[a]!r} breaks it")
    if n == 1:
        return engine._finish(d, (), "eppstein")
    if not engine.is_synchronizing(d):
        raise NotSynchronizing("automaton is not synchronizing")
    full = (1 << n) - 1
    levels, hit = engine._backward_search(core.preimage_tables(d),
                                          [1 << q for q in range(n)], n - 1)
    for level in levels:
        for mask in level:
            pm = sum(1 << pos[q] for q in range(n) if mask >> q & 1)
            ends = sum(1 for i in range(n) if pm >> i & 1 and not pm >> (i + 1) % n & 1)
            if pm != full and ends != 1:
                raise AssertionError(
                    f"preimage {sorted(core.bits(mask))} is not an oriented interval")
    if hit is None:
        raise AssertionError("no singleton preimage reaches the full set")
    return engine._finish(d, engine._read_down(core.image_tables(d), levels[:-1], hit),
                          "eppstein")


def elevator(n):
    rows = []
    for i in range(n - 1):
        rows.append(tuple(i + 1 if q == i else q for q in range(n)))
    return Dfa(n, tuple(f"a{i+1}" for i in range(n - 1)), tuple(rows))


class TestC7:
    def test_single_merging_letter(self):
        d = Dfa(2, ("a",), ((0, 0),))
        res = engine.c7_height_word(d)
        assert res.length == 1 and res.target == 0

    def test_elevator_series(self):
        for n in range(2, 8):
            res = engine.c7_height_word(elevator(n))
            assert res.length == n - 1
            rt, _ = engine.exact_reset_threshold(elevator(n))
            assert rt == n - 1

    def test_rejects_non_idempotent(self):
        with pytest.raises(DomainError):
            engine.c7_height_word(cerny(4))


class TestA10:
    def test_cerny(self):
        for n in range(2, 8):
            res = engine.a10_binary_idempotent_word(cerny(n))
            assert res.length <= (n - 1) ** 2

    def test_loop_cycle_gives_power_of_b(self):
        d = Dfa(3, ("a", "b"), ((1, 1, 2), (0, 0, 1)))
        res = engine.a10_binary_idempotent_word(d)
        assert res.word == (1, 1) and res.target == 0

    def test_rejects_without_idempotent(self):
        # both letters move two states; neither is a simple idempotent
        d = Dfa(5, ("a", "b"),
                ((1, 2, 0, 4, 3), (1, 2, 3, 4, 0)))
        with pytest.raises(DomainError):
            engine.a10_binary_idempotent_word(d)

    def test_rejects_one_cluster_series_letter(self):
        # the one-cluster series letter a moves two states to fresh values
        from synchro import families
        d = families.gen_dnk(5, 3).dfa
        with pytest.raises(DomainError):
            engine.a10_binary_idempotent_word(d)

    def test_zero_branch(self):
        # b has the fixed point 2 away from the dropped state 0, so 2 is a zero
        d = Dfa(3, ("a", "b"), ((1, 1, 2), (0, 2, 2)))
        res = engine.a10_binary_idempotent_word(d)
        assert res.length <= 4 and res.target == 2

    def test_random_simple_idempotent(self):
        rng = random.Random(77)
        done = 0
        while done < 40:
            n = rng.randrange(2, 8)
            e = rng.randrange(n)
            dst = rng.choice([q for q in range(n) if q != e])
            arow = tuple(dst if q == e else q for q in range(n))
            brow = tuple(rng.randrange(n) for _ in range(n))
            d = Dfa(n, ("a", "b"), (arow, brow))
            if not engine.is_synchronizing(d):
                continue
            done += 1
            res = engine.a10_binary_idempotent_word(d)
            assert res.length <= (n - 1) ** 2
            rt, _ = engine.exact_reset_threshold(d)
            assert res.length >= rt

    # Above 20 states: the zero and cyclic cases run the pair-merging and
    # extension kernels, which have no cap on the state count.
    @pytest.mark.parametrize("n", range(21, 31))
    def test_cerny_past_20_states(self, n):
        from synchro import families
        d = families.gen_cerny(n).dfa
        res = engine.a10_binary_idempotent_word(d)
        assert {core.apply_word(d, q, res.word) for q in range(n)} == {res.target}
        assert res.length <= (n - 1) ** 2

    @pytest.mark.parametrize("n", [21, 24, 32, 48])
    def test_random_past_20_states(self, n):
        from synchro import harness
        for seed in range(6):
            d = harness.random_simple_idempotent_binary(n, seed)
            res = engine.a10_binary_idempotent_word(d)
            assert {core.apply_word(d, q, res.word) for q in range(n)} == {res.target}
            assert res.length <= (n - 1) ** 2


class TestNumberTheory:
    def test_frobenius_small(self):
        assert engine.frobenius_largest_gap(3, 2) == 1
        assert engine.frobenius_largest_gap(5, 3) == 7
        assert engine.frobenius_largest_gap(10, 7) == 53

    def test_frobenius_vs_bruteforce(self):
        for n in range(2, 13):
            for k in range(2, n):
                if math.gcd(n, k) != 1:
                    continue
                reachable = set()
                for i in range(k + 1):
                    for j in range(n + 1):
                        reachable.add(i * n + j * k)
                gaps = [x for x in range(n * k) if x not in reachable]
                assert engine.frobenius_largest_gap(n, k) == max(gaps)

    def test_frobenius_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            engine.frobenius_largest_gap(6, 4)



class TestSolverInvariants:
    def test_exact_is_lower_bound_for_all_solvers(self):
        rng = random.Random(123)
        for _ in range(15):
            n = rng.randrange(2, 7)
            d = random_sync(n, 2, rng)
            rt, _ = engine.exact_reset_threshold(d)
            assert engine.greedy_compression_word(d).length >= rt
            try:
                assert engine.reset_word_via_extension(d).length >= rt
            except engine.NotExtensible:
                pass

    def test_results_serialize(self):
        d = cerny(4)
        res = engine.greedy_compression_word(d)
        obj = res.to_json(d)
        assert obj["length"] == len(obj["word"])
        assert set(obj) == {"method", "word", "length", "target"}

    def test_merge_probe_target_matches_forward_pair_search(self):
        # reference: merge the two least states of the current set by a
        # forward BFS in the pair automaton, letters in index order
        def merge_word(d, p, q):
            parent = {(p, q): None}
            queue = [(p, q)]
            for pair in queue:
                for a, row in enumerate(d.delta):
                    pp, qq = sorted((row[pair[0]], row[pair[1]]))
                    if pp == qq:
                        word = [a]
                        while parent[pair] is not None:
                            pair, b = parent[pair]
                            word.append(b)
                        return word[::-1]
                    if (pp, qq) not in parent:
                        parent[(pp, qq)] = (pair, a)
                        queue.append((pp, qq))
            raise AssertionError("pair cannot be merged")

        rng = random.Random(71)
        for _ in range(500):
            d = random_sync(rng.randrange(2, 11), rng.randrange(1, 5), rng)
            cur = set(range(d.n))
            while len(cur) > 1:
                p, q = sorted(cur)[:2]
                cur = {core.apply_word(d, s, merge_word(d, p, q)) for s in cur}
            assert engine.merge_probe_target(d) == cur.pop()

    def test_merge_probe_target_is_resettable(self):
        rng = random.Random(55)
        for _ in range(20):
            d = random_sync(rng.randrange(2, 6), 2, rng)
            t = engine.merge_probe_target(d)
            assert 0 <= t < d.n


# -- per-bit reference searches -----------------------------------------------
#
# The subset searches as they stood before the chunk tables: every image and
# preimage step walks the mask bit by bit. The library's table-driven
# searches must return the same words.

def ref_path(d, parent, node):
    word = []
    while parent[node] is not None:
        m = parent[node]
        word.append(next(a for a, row in enumerate(d.delta) if core.image_mask(row, m) == node))
        node = m
    word.reverse()
    return tuple(word)


def ref_subset_search(d, start, below):
    parent = {start: None}
    queue = [start]
    for m in queue:
        for row in d.delta:
            m2 = core.image_mask(row, m)
            if m2 in parent:
                continue
            parent[m2] = m
            if m2.bit_count() < below:
                return m2, parent
            queue.append(m2)
    return None, parent


def ref_backward_lexmin(d, pre, starts, stop):
    level = dict.fromkeys(starts, ())
    seen = set(level)
    while level:
        nxt = {}
        for m, w in level.items():
            for a in range(d.k):
                t = core.preimage_mask(pre[a], m)
                if t == 0 or t in seen:
                    continue
                cand = (a,) + w
                old = nxt.get(t)
                if old is None or cand < old:
                    nxt[t] = cand
        if not nxt:
            return None
        hits = [(w, t) for t, w in nxt.items() if stop(t)]
        if hits:
            return min(hits)
        seen.update(nxt)
        level = nxt


def ref_check_synchronizing(d):
    if not engine.is_synchronizing(d):
        raise NotSynchronizing("automaton is not synchronizing")


def ref_exact_word(d):
    if d.n == 1:
        return ()
    ref_check_synchronizing(d)
    hit, parent = ref_subset_search(d, (1 << d.n) - 1, 2)
    return ref_path(d, parent, hit)


def ref_greedy_word(d):
    ref_check_synchronizing(d)
    word, cur = (), (1 << d.n) - 1
    while cur.bit_count() > 1:
        step, parent = ref_subset_search(d, cur, cur.bit_count())
        word += ref_path(d, parent, step)
        cur = step
    return word


def ref_extension_word(d):
    if d.n == 1:
        return ()
    ref_check_synchronizing(d)
    pre = core.letter_preimage_masks(d)
    q, a = next((q, a) for q in range(d.n) for a in range(d.k) if pre[a][q].bit_count() >= 2)
    word, mask, full = (a,), pre[a][q], (1 << d.n) - 1
    while mask != full:
        base = mask.bit_count()
        found = ref_backward_lexmin(d, pre, (mask,), lambda m: m.bit_count() > base)
        if found is None:
            raise engine.NotExtensible(tuple(core.bits(mask)))
        word = found[0] + word
        for b in reversed(found[0]):
            mask = core.preimage_mask(pre[b], mask)
    return word


def ref_eppstein_word(d):
    if engine.orientation_violations(d, range(d.n)):
        raise DomainError("not orientable under the identity order")
    if d.n == 1:
        return ()
    ref_check_synchronizing(d)
    full = (1 << d.n) - 1
    found = ref_backward_lexmin(d, core.letter_preimage_masks(d),
                                [1 << q for q in range(d.n)], lambda m: m == full)
    return found[0]


def outcome(fn, *args):
    """The word fn returns, or the type of the library error it raises."""
    try:
        return fn(*args)
    except core.AutomatonError as exc:
        return type(exc)


def family_instances(max_n):
    from synchro import families
    for name, (gen, params) in families.GENERATORS.items():
        for n in range(1, max_n + 1):
            for k in (range(1, n) if "k" in params else [None]):
                try:
                    yield (gen(n, k) if k else gen(n)).dfa
                except DomainError:
                    pass


class TestTablesKeepWords:
    # (library word, reference word); the first three take the cap as *cap
    SOLVERS = [
        (lambda d, *cap: engine.exact_reset_threshold(d, *cap)[1], ref_exact_word),
        (lambda d, *cap: engine.greedy_compression_word(d, *cap).word, ref_greedy_word),
        (lambda d, *cap: engine.reset_word_via_extension(d, *cap).word, ref_extension_word),
        (lambda d: engine.eppstein_orientable_word(d).word, ref_eppstein_word),
    ]

    def test_every_family_instance_up_to_12_states(self):
        dfas = list(family_instances(12))
        assert len(dfas) > 100
        for d in dfas:
            for i, (solver, ref) in enumerate(self.SOLVERS):
                assert outcome(solver, d) == outcome(ref, d), (d.name, i)

    @pytest.mark.parametrize("n, k, seed", [(48, 2, 0), (70, 2, 5)])
    def test_seeded_random_instances(self, n, k, seed):
        from synchro import harness
        d = harness.random_synchronizing(n, k, seed)
        for i, (solver, ref) in enumerate(self.SOLVERS[:3]):
            assert outcome(solver, d, 70) == outcome(ref, d), i


def with_ties(d):
    """d with an identity letter and a copy of its first letter added, the
    identity first or second and the copy last: both tie with another
    letter at every step of a search."""
    ident = tuple(range(d.n))
    for rows in ((ident,) + d.delta + d.delta[:1],
                 d.delta[:1] + (ident,) + d.delta[1:] + d.delta[:1]):
        yield Dfa(d.n, tuple("abcdefgh"[:len(rows)]), rows, name=d.name)


class TestLeastLetterRule:
    # The forward reader (_read_word, greedy) and the backward one
    # (_read_down, extension and interval solvers) must take the least of
    # tied letters: no word uses the identity or the higher copy.
    def check(self, dfas, solver, ref):
        used_copied = 0
        for d in dfas:
            word = outcome(solver, d)
            assert word == outcome(ref, d), d.name
            if isinstance(word, tuple):
                copy, ident = len(d.delta) - 1, d.delta.index(tuple(range(d.n)))
                assert copy not in word and ident not in word, (d.name, word)
                used_copied += d.delta.index(d.delta[copy]) in word
        assert used_copied > len(dfas) // 2

    def test_greedy_and_extension_words(self):
        rng = random.Random(29)
        bases = [cerny(n) for n in range(2, 10)] + [
            random_sync(rng.randrange(2, 9), 2, rng) for _ in range(60)]
        dfas = [tied for d in bases for tied in with_ties(d)]
        self.check(dfas, lambda d: engine.greedy_compression_word(d).word, ref_greedy_word)
        self.check(dfas, lambda d: engine.reset_word_via_extension(d).word, ref_extension_word)

    def test_interval_solver_words(self):
        from synchro import families
        bases = ([cerny(n) for n in range(2, 11)]
                 + [families.gen_dnk(n, n - 1).dfa for n in range(3, 11)])
        dfas = [tied for d in bases for tied in with_ties(d)]
        self.check(dfas, lambda d: engine.eppstein_orientable_word(d).word, ref_eppstein_word)


def ref_backward_reach(d, starts, above):
    """Every subset the backward search from starts reaches, stepped per bit:
    level by level through the end of the first level holding a preimage
    with more than above states."""
    pre = core.letter_preimage_masks(d)
    seen, level = set(starts), set(starts)
    while level:
        level = {t for m in level for row in pre
                 if (t := core.preimage_mask(row, m)) and t not in seen}
        seen |= level
        if any(t.bit_count() > above for t in level):
            break
    return seen


def is_interval(n, mask):
    """mask is the full set or one cyclic interval of 0, 1, ..., n-1."""
    ends = sum(1 for i in range(n) if mask >> i & 1 and not mask >> (i + 1) % n & 1)
    return mask == (1 << n) - 1 or ends == 1


class TestBackwardSearchCoverage:
    def test_profile_lengths_are_the_extending_word_lengths(self):
        # each subset's length from the array kernel is compared with
        # shortest_extending_word's word, and the profile with their fold
        rng = random.Random(33)
        for _ in range(80):
            d = random_dfa(rng.randrange(3, 8), rng.choice((2, 3)), rng)
            try:
                prof = engine.extensibility_profile(d)
            except engine.NotExtensible as exc:
                prof = exc
            tabs, pre = core.image_tables(d), core.preimage_tables(d)
            arrs = [core.union_array(core.union_tables(row))
                    for row in core.letter_preimage_masks(d)]
            subsets = [m for m in range(1, 1 << d.n) if 2 <= m.bit_count() < d.n]
            by_size, missing = {}, None
            for m in subsets:
                v = engine.shortest_extending_word(tabs, pre, m)
                if v is None:
                    with pytest.raises(engine.NotExtensible) as err:
                        engine._extension_length(arrs, m)
                    assert err.value.subset == tuple(core.bits(m))
                    missing = m
                    break
                assert engine._extension_length(arrs, m) == len(v), (d.delta, m)
                by_size[m.bit_count()] = max(by_size.get(m.bit_count(), 0), len(v))
            if missing is None:
                assert list(prof.by_size.items()) == list(by_size.items())
                assert prof.max_length == max(by_size.values(), default=0)
            else:
                assert prof.subset == tuple(core.bits(missing))

    def test_profile_runs_no_backward_search_and_no_per_step_lookup(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the profile steps through its preimage arrays")

        monkeypatch.setattr(engine, "_backward_search", refuse)
        monkeypatch.setattr(engine, "union_mask", refuse)
        monkeypatch.setattr(core, "union_mask", refuse)
        assert engine.extensibility_profile(cerny(9)).max_length == 9
        with pytest.raises(engine.NotExtensible):
            engine.extensibility_profile(Dfa(3, ("a",), ((0, 0, 0),)))

    def test_search_from_singletons_reaches_the_reference_subsets(self):
        rng = random.Random(37)
        for _ in range(300):
            d = random_sync(rng.randrange(2, 10), rng.choice((2, 3)), rng)
            singletons = [1 << q for q in range(d.n)]
            levels, hit = engine._backward_search(core.preimage_tables(d), singletons, d.n - 1)
            reached = [m for level in levels for m in level]
            assert len(reached) == len(set(reached))
            assert set(reached) == ref_backward_reach(d, singletons, d.n - 1)
            assert hit == (1 << d.n) - 1

    def test_interval_check_covers_every_reached_subset(self, monkeypatch):
        # with the orientation test bypassed, the interval solver must raise
        # exactly when a subset the reference reaches is not an interval,
        # including the subsets that follow the full set in its level
        monkeypatch.setattr(engine, "orientation_violations", lambda d, order: [])
        rng = random.Random(43)
        outcomes = set()
        for _ in range(300):
            d = random_sync(rng.randrange(3, 9), 2, rng)
            reach = ref_backward_reach(d, [1 << q for q in range(d.n)], d.n - 1)
            intervals = all(is_interval(d.n, m) for m in reach)
            outcomes.add(intervals)
            if intervals:
                assert engine.eppstein_orientable_word(d).word == ref_eppstein_word(d)
            else:
                with pytest.raises(AssertionError, match="not an oriented interval"):
                    engine.eppstein_orientable_word(d)
        assert outcomes == {True, False}


def ref_profile(d):
    """extensibility_profile's by_size, each length from ref_backward_lexmin."""
    pre = core.letter_preimage_masks(d)
    by_size = {}
    for m in range(1, 1 << d.n):
        size = m.bit_count()
        if 2 <= size < d.n:
            found = ref_backward_lexmin(d, pre, (m,), lambda t, s=size: t.bit_count() > s)
            if found is None:
                raise engine.NotExtensible(tuple(core.bits(m)))
            by_size[size] = max(by_size.get(size, 0), len(found[0]))
    return by_size


def extension_outcome(fn, *args):
    """outcome, with the subset a NotExtensible names."""
    try:
        return fn(*args)
    except engine.NotExtensible as exc:
        return engine.NotExtensible, exc.subset
    except core.AutomatonError as exc:
        return type(exc)


class TestInsideStartRule:
    # A single-start backward search drops every preimage inside its start.
    # The references keep every nonempty preimage.
    def test_extension_searches_match_the_unpruned_references(self):
        rng = random.Random(61)
        counts = {"word": 0, "none": 0, "profile": 0, "solver": 0}
        for n in range(2, 15):
            for k in (1, 2, 3):
                for _ in range(2):
                    d = random_dfa(n, k, rng)
                    tabs, pre = core.image_tables(d), core.preimage_tables(d)
                    ref_pre = core.letter_preimage_masks(d)
                    for _ in range(8 if n > 2 else 0):
                        m = 0
                        while not 2 <= m.bit_count() < n:
                            m = rng.getrandbits(n)
                        found = ref_backward_lexmin(
                            d, ref_pre, (m,), lambda t, s=m.bit_count(): t.bit_count() > s)
                        v = engine.shortest_extending_word(tabs, pre, m)
                        assert v == (None if found is None else found[0]), (d.delta, m)
                        counts["none" if v is None else "word"] += 1
                    prof = extension_outcome(lambda: engine.extensibility_profile(d).by_size)
                    assert prof == extension_outcome(ref_profile, d), d.delta
                    word = extension_outcome(
                        lambda: engine.reset_word_via_extension(d, 14).word)
                    assert word == extension_outcome(ref_extension_word, d), d.delta
                    for key, out in (("profile", prof), ("solver", word)):
                        counts[key] += isinstance(out, tuple) and out[0] is engine.NotExtensible
        # non-extensible outcomes: subsets, profiles and solver runs
        assert counts["word"] >= 400 and counts["none"] >= 60, counts
        assert counts["profile"] >= 25 and counts["solver"] >= 5, counts

    def test_non_extensible_proof_keeps_few_subsets(self, monkeypatch):
        # without the rule the last search lists all 100,265 preimages of
        # the 61-state subset, in 39 levels
        from synchro import harness
        d = harness.random_synchronizing(64, 2, 2)
        kept = []
        real = engine._backward_search

        def spy(pre, starts, above):
            levels, hit = real(pre, starts, above)
            kept.append(sum(map(len, levels)))
            return levels, hit

        monkeypatch.setattr(engine, "_backward_search", spy)
        with pytest.raises(engine.NotExtensible) as err:
            engine.reset_word_via_extension(d, cap=64)
        assert err.value.subset == tuple(q for q in range(64) if q not in (45, 51, 62))
        assert kept[-1] <= 10, kept

    def test_meet_search_steps_every_new_mask(self, monkeypatch):
        # the masks _meet_search steps on both sides, recorded before the
        # rule: several starts prune nothing
        from synchro import harness
        stepped = []
        for name in ("_step_forward", "_step_backward"):
            real = getattr(engine, name)

            def spy(*args, real=real):
                out = real(*args)
                stepped.append(out[0] if isinstance(out, tuple) else out)
                return out

            monkeypatch.setattr(engine, name, spy)
        for d in (cerny(12), harness.random_synchronizing(16, 2, 0)):
            engine._meet_search(d)
        masks = [m for level in stepped for m in level]
        digest = hashlib.sha256(repr(stepped).encode()).hexdigest()[:16]
        assert (len(masks), digest) == (284, "85ff159ba51455ed")


class TestLetterPackedSteps:
    @pytest.mark.parametrize("name, n", [("cerny", 8), ("rystsov", 10)])
    def test_one_lookup_per_level_mask(self, monkeypatch, name, n):
        # k = 2 and k = 9 letters, yet each step looks up every mask of its
        # level once, in level order: one lookup gives every letter's step
        from synchro import families
        d = getattr(families, f"gen_{name}")(n).dfa
        calls = []
        real = engine.union_mask

        def spy(tables, m):
            calls.append(m)
            return real(tables, m)

        monkeypatch.setattr(engine, "union_mask", spy)
        img, pre = core.image_tables(d), core.preimage_tables(d)
        stepped = 0
        for step, start in (
                (lambda level, seen: engine._step_forward(img, level, seen, lambda m: False)[0],
                 [(1 << n) - 1]),
                (lambda level, seen: engine._step_backward(pre, level, seen),
                 [1 << q for q in range(n)])):
            level, seen = start, set(start)
            while level:
                calls.clear()
                nxt = step(level, seen)
                assert calls == level
                stepped += len(level)
                level = nxt
        assert stepped > 2 ** n


# -- the bidirectional search against the one-way search ------------------------

def one_way_threshold(d):
    """exact_reset_threshold's answer by a one-way forward subset search:
    breadth first over the images of the full set, letters in index order,
    to the first singleton. Each image maps to the image and letter it was
    first found by, which is its least shortest word's last step. It steps
    through its own per-letter chunk tables, not the kernel's letter-packed
    ones, so the two routes share no packing code."""
    if d.n == 1:
        return 0, ()
    ref_check_synchronizing(d)
    tabs = [core.union_tables([1 << t for t in row]) for row in d.delta]
    full = (1 << d.n) - 1
    parent = {full: None}
    queue = [full]
    for m in queue:
        for a, t in enumerate(tabs):
            m2 = core.union_mask(t, m)
            if m2 in parent:
                continue
            parent[m2] = m, a
            if not m2 & (m2 - 1):
                word = []
                while parent[m2] is not None:
                    m2, b = parent[m2]
                    word.append(b)
                return len(word), tuple(reversed(word))
            queue.append(m2)


def meet_sides(monkeypatch, d):
    """_meet_search's word on d and the side each round expanded, "f" or "b".

    A forward round steps by _step_forward, a backward round by _step_backward.
    """
    sides = []
    with monkeypatch.context() as patch:
        for name, side in (("_step_forward", "f"), ("_step_backward", "b")):
            real = getattr(engine, name)

            def spy(*args, real=real, side=side):
                sides.append(side)
                return real(*args)

            patch.setattr(engine, name, spy)
        word = engine._meet_search(d)
    return word, "".join(sides)


# non-synchronizing automata whose forward (resp. backward) frontier empties
# first in _meet_search
EMPTYING_FRONTIERS = (
    (Dfa(2, ("a", "b"), ((0, 1), (1, 0))), "forward"),
    (Dfa(6, ("a", "b", "c"),
         ((0, 1, 0, 3, 2, 4), (0, 1, 5, 5, 2, 3), (0, 1, 0, 0, 4, 5))), "backward"),
)


def with_isolated_state(d):
    """d plus one state that every letter fixes and no other state reaches."""
    return Dfa(d.n + 1, d.letters, tuple(row + (d.n,) for row in d.delta))


def traced(monkeypatch, fn, *args):
    """(outcome(fn, *args), pair tests run, sizes of the levels the subset
    steps kept in step order, _backward_search calls)."""
    pair_tests, kept, searches = [], [], []
    with monkeypatch.context() as patch:
        real_test, real_search = engine.is_synchronizing, engine._backward_search

        def pair_test(d):
            pair_tests.append(d)
            return real_test(d)

        def search(*args):
            searches.append(args)
            return real_search(*args)

        patch.setattr(engine, "is_synchronizing", pair_test)
        patch.setattr(engine, "_backward_search", search)
        for name in ("_step_forward", "_step_backward"):
            real = getattr(engine, name)

            def spy(*args, real=real):
                out = real(*args)
                kept.append(len(out[0] if isinstance(out, tuple) else out))
                return out

            patch.setattr(engine, name, spy)
        out = outcome(fn, *args)
    return out, len(pair_tests), kept, len(searches)


class TestMeetSearch:
    def test_every_family_instance_up_to_16_states(self):
        dfas = list(family_instances(16))
        assert len(dfas) > 150
        for d in dfas:
            assert (outcome(engine.exact_reset_threshold, d, 16)
                    == outcome(one_way_threshold, d)), d.name

    def test_seeded_random_automata(self):
        # binary automata up to 48 states and ternary up to 32, where the
        # one-way search stays fast, and one binary 64-state automaton
        from synchro import harness
        rng = random.Random(2015)
        cases = [(rng.randrange(2, 49), 2) if i % 2 else (rng.randrange(2, 33), 3)
                 for i in range(300)] + [(64, 2)]
        for seed, (n, k) in enumerate(cases):
            d = harness.random_synchronizing(n, k, seed)
            assert engine.exact_reset_threshold(d, 64) == one_way_threshold(d), (n, k, seed)

    def test_one_state(self):
        assert engine._meet_search(one_state()) == ()

    def test_two_states_meet_at_forward_depth_one(self, monkeypatch):
        d = Dfa(2, ("a", "b"), ((0, 1), (1, 1)))
        assert meet_sides(monkeypatch, d) == ((1,), "f")
        assert engine.exact_reset_threshold(d) == (1, (1,))

    def test_meet_on_a_backward_expansion(self, monkeypatch):
        # cerny-n's backward levels past the singletons have width 1: from
        # n = 7 its forward levels outgrow them after a few rounds and every
        # later round, the meeting one included, expands backward
        for n in range(7, 13):
            word, sides = meet_sides(monkeypatch, cerny(n))
            f = sides.count("f")
            assert f < len(sides) and sides == "f" * f + "b" * (len(sides) - f), n
            assert (len(word), word) == one_way_threshold(cerny(n))
        from synchro import harness
        d = harness.random_synchronizing(12, 2, 0)
        word, sides = meet_sides(monkeypatch, d)
        assert sides == "ffffffbbbb"
        assert (len(word), word) == one_way_threshold(d)

    def test_ties_go_forward(self, monkeypatch):
        # F_3 has as many masks as the 8 singletons of B_0: round 4 expands
        # forward, and the backward round that meets comes after it
        from synchro import harness
        d = harness.random_synchronizing(8, 2, 4)
        word, sides = meet_sides(monkeypatch, d)
        assert sides == "ffffb"
        assert (len(word), word) == one_way_threshold(d)

    def test_meet_on_a_forward_expansion_after_backward_ones(self, monkeypatch):
        from synchro import harness
        d = harness.random_synchronizing(16, 2, 0)
        word, sides = meet_sides(monkeypatch, d)
        assert sides == "fffffbbbbbf"
        assert (len(word), word) == one_way_threshold(d)

    def test_identity_letter(self, monkeypatch):
        # an identity letter steps to no new subset on either side and is
        # never the least letter of a least shortest word
        from synchro import harness
        base = harness.random_synchronizing(16, 2, 0)
        ident = tuple(range(16))
        for rows in ((ident,) + base.delta, base.delta[:1] + (ident,) + base.delta[1:]):
            d = Dfa(16, ("a", "b", "c"), rows)
            word, sides = meet_sides(monkeypatch, d)
            assert "b" in sides
            assert (len(word), word) == one_way_threshold(d)
            assert rows.index(ident) not in word

    def test_both_sides_expand_when_k_is_near_n(self, monkeypatch):
        from synchro import families
        d = families.gen_rystsov(10).dfa
        word, sides = meet_sides(monkeypatch, d)
        assert sides.count("f") > 10 and sides.count("b") > 10
        assert (len(word), word) == one_way_threshold(d) == (45, word)

    def test_frontier_that_empties_raises(self, monkeypatch):
        # states 0 and 1 of the second automaton are both fixed by every
        # letter. The last level stepped is the empty one.
        for d, side in EMPTYING_FRONTIERS:
            assert not engine.is_synchronizing(d)
            stepped = []
            with monkeypatch.context() as patch:
                for name in ("_step_forward", "_step_backward"):
                    real = getattr(engine, name)

                    def spy(*args, real=real, name=name):
                        out = real(*args)
                        stepped.append((name, out[0] if isinstance(out, tuple) else out))
                        return out

                    patch.setattr(engine, name, spy)
                with pytest.raises(NotSynchronizing, match="automaton is not synchronizing"):
                    engine._meet_search(d)
            assert stepped[-1] == (f"_step_{side}", [])

    def test_narrow_backward_rounds_query_the_forward_level(self, monkeypatch):
        # a backward level narrower than F_i gets no predicate of its own
        # unless it meets: its masks are queried against one predicate over
        # the complements of F_i's, built at most once per forward level.
        # No two fit predicates are alive at once.
        from synchro import families
        rounds, built, alive = [], [], []
        real_forward, real_backward, real_test = (
            engine._step_forward, engine._step_backward, engine._fit_test)

        def forward(tabs, level, seen, fits):
            out = real_forward(tabs, level, seen, fits)
            rounds.append((out[0], None))
            return out

        def backward(*args):
            out = real_backward(*args)
            rounds.append((rounds[-1][0], out))
            return out

        def test(level, n):
            assert all(ref() is None for ref in alive)
            fits = real_test(level, n)
            alive.append(weakref.ref(fits))
            full = (1 << n) - 1
            fwd = rounds[-1][0]
            built.append((level, fwd if sorted(level) == sorted(full ^ s for s in fwd) else None))
            return fits

        monkeypatch.setattr(engine, "_step_forward", forward)
        monkeypatch.setattr(engine, "_step_backward", backward)
        monkeypatch.setattr(engine, "_fit_test", test)
        narrow = 0
        for n in range(8, 17):
            for d in (cerny(n), families.gen_dnk(n, n - 1).dfa):
                rounds[:] = [([(1 << n) - 1], None)]
                built.clear()
                word = engine._meet_search(d)
                assert (len(word), word) == one_way_threshold(d), d.name
                for i, (fwd, back) in enumerate(rounds):
                    if back is not None and len(back) < len(fwd):
                        narrow += 1
                        own = any(level is back for level, _ in built)
                        assert own == (i == len(rounds) - 1), (d.name, i)
                over = [id(fwd) for _, fwd in built if fwd is not None]
                assert over and len(over) == len(set(over)), d.name
        # every search builds two: over F_i's complements, and over the
        # level that meets
        assert narrow > 1000 and len(alive) == 2 * 18

    def test_read_back_filter_keeps_every_word(self, monkeypatch):
        # _read_word with the preimage tables gives the word it gives
        # without them, and looks up fewer candidate parents
        from synchro import harness
        from test_harness import RANDOM_RT
        real_read, real_lookup = engine._read_word, engine.union_mask
        lookups, side = {None: 0, "plain": 0, "filtered": 0}, [None]

        def lookup(tables, m):
            lookups[side[-1]] += 1
            return real_lookup(tables, m)

        def read(tabs, levels, m, pre):
            side.append("plain")
            plain = real_read(tabs, levels, m, None)
            side.append("filtered")
            word = real_read(tabs, levels, m, pre)
            side.append(None)
            assert word == plain
            return word

        dfas = [d for d in family_instances(16) if engine.is_synchronizing(d)]
        dfas += [harness.random_synchronizing(n, k, s) for n, k, s in RANDOM_RT]
        monkeypatch.setattr(engine, "_read_word", read)
        monkeypatch.setattr(engine, "union_mask", lookup)
        for d in dfas:
            engine._meet_search(d)
        assert len(side) == 1 + 3 * len(dfas) > 3 * 150
        assert lookups["filtered"] < lookups["plain"] / 2, lookups


class ReadCounter(list):
    """A chunk table that counts its lookups."""

    reads = 0

    def __getitem__(self, i):
        ReadCounter.reads += 1
        return super().__getitem__(i)


def counting_tables(monkeypatch):
    """Make core.union_tables return ReadCounter tables; returns the list of
    the table sets it built."""
    built = []
    real = core.union_tables

    def spy(masks):
        tables = [ReadCounter(t) for t in real(masks)]
        built.append(tables)
        return tables

    monkeypatch.setattr(core, "union_tables", spy)
    ReadCounter.reads = 0
    return built


def fit_probes(level, n, rng):
    """Masks to test against level: every member, each member less one of
    its states and plus one state outside it, the full set, and random ones."""
    full = (1 << n) - 1
    probes = [full] + [rng.getrandbits(n) or 1 for _ in range(20)]
    for t in level:
        probes.append(t)
        states = [q for q in range(n) if t >> q & 1]
        if len(states) > 1:
            probes.append(t & ~(1 << rng.choice(states)))
        if t != full:
            probes.append(t | 1 << rng.choice([q for q in range(n) if not t >> q & 1]))
    return probes


def scan_fit(level):
    """The reference for engine._fit_test's predicate: a scan of the level."""
    def fits(m):
        for t in level:
            if not m & ~t:
                return True
        return False
    return fits


def random_level(n, width, rng, without=0):
    """width distinct nonempty masks over n states, none holding a state of
    without, in random order."""
    level, seen = [], set()
    while len(level) < width:
        m = rng.getrandbits(n) & ~without
        if m and m not in seen:
            seen.add(m)
            level.append(m)
    return level


class TestFitTest:
    @pytest.mark.parametrize("n", [4, 8, 9, 13, 16, 17, 64, 70])
    def test_tables_agree_with_the_scan(self, n):
        rng = random.Random(n)
        widths = (0, 1, 8, 9, n, n + 1, 3 * n, engine.FIT_PACK + 1, 2 * engine.FIT_PACK)
        for width in sorted({min(w, 2 ** n - 1) for w in widths}):
            level = random_level(n, width, rng)
            fits, scan = engine._fit_test(level, n), scan_fit(level)
            for m in fit_probes(level, n, rng):
                assert fits(m) == scan(m), (n, width, m)

    @pytest.mark.parametrize("n", [9, 17, 64, 70])
    def test_a_state_no_member_holds_rules_out_at_the_first_chunk(self, monkeypatch, n):
        # every member lacks state 0, so the first chunk of any mask holding
        # it makes the union all ones; the test reads no further chunk
        rng = random.Random(n)
        built = counting_tables(monkeypatch)
        level = random_level(n, engine.FIT_PACK + 1, rng, without=1)
        fits, scan = engine._fit_test(level, n), scan_fit(level)
        assert len(built) == 1
        for m in fit_probes(level, n, rng):
            ReadCounter.reads = 0
            m |= 1
            assert not fits(m) and not scan(m)
            assert ReadCounter.reads == 1

    def test_the_last_partial_chunk_decides(self, monkeypatch):
        # at n = 70 every member holds states 0..63 and one of 64..69, so
        # the eight full chunks leave the union empty and the last chunk,
        # of six states, alone says whether a mask fits
        n, low = 70, (1 << 64) - 1
        built = counting_tables(monkeypatch)
        level = [low | 1 << (64 + t % 6) for t in range(engine.FIT_PACK + 1)]
        fits = engine._fit_test(level, n)
        assert len(built) == 1 and len(built[0]) == 9 and len(built[0][-1]) == 64
        for extra, want in ((0, True), (1 << 64, True), (1 << 69, True),
                            (3 << 64, False), (1 << 64 | 1 << 69, False)):
            ReadCounter.reads = 0
            assert fits(low | extra) == want == scan_fit(level)(low | extra)
            assert ReadCounter.reads == 9

    def test_levels_wider_than_fit_pack_get_tables(self, monkeypatch):
        # up to FIT_PACK masks get one packed word and a wider level gets fit
        # tables, whatever n is. Masks may repeat: 5 states have no 65
        # distinct nonempty subsets, and a repeat changes no answer.
        built, words = counting_tables(monkeypatch), []
        real = engine._packed_fit

        def packed(level, n):
            words.append(level)
            return real(level, n)

        monkeypatch.setattr(engine, "_packed_fit", packed)
        for n in (5, 16, 17, 64):
            rng, full = random.Random(n), (1 << n) - 1
            for width, tables, packs in ((engine.FIT_PACK, 0, 1), (engine.FIT_PACK + 1, 1, 0)):
                built.clear()
                words.clear()
                level = [rng.randrange(1, full) for _ in range(width)]
                fits = engine._fit_test(level, n)
                assert (len(built), len(words)) == (tables, packs), (n, width)
                assert [fits(m) for m in level + [full]] == [True] * width + [False]

    @pytest.mark.parametrize("n", list(range(1, 17)) + [17, 24, 25, 63, 64, 65, 70, 130])
    def test_the_packed_word_agrees_with_the_scan(self, n):
        # field widths from 1 to 17 bytes, with n at, below and above a byte
        # boundary, and every width up to FIT_PACK, the empty level included;
        # where n has fewer nonempty masks, the level repeats them
        rng = random.Random(n)
        for width in range(engine.FIT_PACK + 1):
            level = random_level(n, min(width, 2 ** n - 1), rng)
            level = (level * width)[:width]
            fits, scan = engine._packed_fit(level, n), scan_fit(level)
            for m in fit_probes(level, n, rng):
                assert fits(m) == scan(m), (n, width, m)


def refuse_pair_test(d):
    raise RuntimeError("is_synchronizing ran")


class TestKernelDecidesSynchronization:
    # with no pair_test_after, as the census and the verify cases call it,
    # the kernel answers without the pair test that the front door may run
    def test_emptied_frontiers(self, monkeypatch):
        monkeypatch.setattr(engine, "is_synchronizing", refuse_pair_test)
        for d, _ in EMPTYING_FRONTIERS:
            with pytest.raises(NotSynchronizing, match="automaton is not synchronizing"):
                engine._meet_search(d)

    def test_isolated_fixed_state(self, monkeypatch):
        from synchro import harness
        d = with_isolated_state(harness.random_synchronizing(16, 2, 0))
        monkeypatch.setattr(engine, "is_synchronizing", refuse_pair_test)
        with pytest.raises(NotSynchronizing):
            engine._meet_search(d)

    def test_family_words(self, monkeypatch):
        # the same word, or NotSynchronizing from both
        dfas = list(family_instances(12))
        want = [outcome(lambda d: engine.exact_reset_threshold(d)[1], d) for d in dfas]
        monkeypatch.setattr(engine, "is_synchronizing", refuse_pair_test)
        assert [outcome(engine._meet_search, d) for d in dfas] == want
        assert NotSynchronizing in want


def count_builds(monkeypatch):
    """Put fresh memos over counting spies in place of the four memoized
    builders; returns their build counts by name."""
    counts = {}
    for mod, name in ((core, "image_tables"), (core, "preimage_tables"),
                      (engine, "_merge_levels"), (engine, "_extension_word")):
        counts[name] = 0

        def spy(d, name=name, build=getattr(mod, name).__wrapped__):
            counts[name] += 1
            return build(d)
        monkeypatch.setattr(mod, name, core.last_automaton(spy))
    return counts


# a binary automaton whose letter a is a simple idempotent dropping state 0,
# and whose b fixes state 2 away from it: 2 is a zero state (a10's zero branch)
ZERO3 = Dfa(3, ("a", "b"), ((1, 1, 2), (0, 2, 2)))


class TestSharedBuilds:
    def test_one_build_each_for_the_solvers_on_one_automaton(self, monkeypatch):
        # the benchmark's per-instance order on one random instance
        from synchro import harness
        d = harness.random_synchronizing(48, 2, 0)
        counts = count_builds(monkeypatch)
        assert engine.is_synchronizing(d)
        engine.exact_reset_threshold(d, cap=64)
        engine.greedy_compression_word(d, cap=64)
        engine.reset_word_via_extension(d, cap=64)
        assert counts == {"image_tables": 1, "preimage_tables": 1, "_merge_levels": 1,
                          "_extension_word": 1}

    def test_a10_zero_branch_makes_one_pair_search(self, monkeypatch):
        counts = count_builds(monkeypatch)
        engine.a10_binary_idempotent_word(ZERO3)
        assert counts["_merge_levels"] == 1

    def test_a10_on_a_full_cycle_reuses_the_extension_word(self, monkeypatch):
        # cerny-n's b is an n-cycle, so a10 takes the extension word, which
        # the extension method has just built on the same automaton
        d = cerny(12)
        counts = count_builds(monkeypatch)
        want = engine.reset_word_via_extension(d).word
        assert engine.a10_binary_idempotent_word(d).word == want
        assert counts["_extension_word"] == 1

    def test_a_refused_extension_is_not_memoized(self, monkeypatch):
        # no word extends {0, 1}; each call searches again and raises again
        d = Dfa(3, ("a",), ((0, 0, 2),))
        counts = count_builds(monkeypatch)
        for _ in range(2):
            with pytest.raises(engine.NotExtensible):
                engine._extension_word(d)
        assert counts["_extension_word"] == 2

    @pytest.mark.parametrize("d", [ZERO3, cerny(12)], ids=["zero", "cerny"])
    def test_callers_leave_the_shared_levels_as_built(self, d):
        levels = engine._merge_levels(d)
        engine.greedy_compression_word(d)
        engine.a10_binary_idempotent_word(d)
        assert engine._merge_levels(d) is levels
        assert levels == engine._merge_levels.__wrapped__(d)
