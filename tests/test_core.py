import itertools
import random
import re
import sys
import threading

import pytest

from synchro import core, engine
from synchro.core import (
    Dfa,
    InputError,
    PreconditionError,
    StateSet,
    apply_word,
    image,
)


def cerny(n):
    # letter a bumps state 0 to 1 and fixes the rest; letter b is the n-cycle
    a = tuple(1 if q == 0 else q for q in range(n))
    b = tuple((q + 1) % n for q in range(n))
    return Dfa(n, ("a", "b"), (a, b), name=f"C{n}")


def chain(n):
    return Dfa(n, ("a",), (tuple(max(q - 1, 0) for q in range(n)),), name=f"M{n}")


def w(d, names):
    return tuple(d.letter_index(x) for x in names)


def random_dfa(n, k, rng):
    return Dfa(n, tuple(f"x{i}" for i in range(k)),
               tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k)))


class TestDfaValidation:
    def test_rejects_bad_state_index(self):
        with pytest.raises(InputError):
            Dfa(2, ("a",), ((0, 2),))

    def test_rejects_duplicate_letters(self):
        with pytest.raises(InputError):
            Dfa(1, ("a", "a"), ((0,), (0,)))

    def test_rejects_empty_letter_name(self):
        with pytest.raises(InputError):
            Dfa(1, ("",), ((0,),))

    def test_rejects_short_row(self):
        with pytest.raises(InputError):
            Dfa(3, ("a",), ((0, 1),))

    def test_rejects_boolean_n(self):
        with pytest.raises(InputError):
            Dfa(True, ("a",), ((0,),))

    def test_rejects_boolean_state(self):
        with pytest.raises(InputError):
            Dfa(2, ("a",), ((0, True),))


class TestApplyWord:
    def test_cerny_hand_trace(self):
        # 0.a = 1, then three b-steps walk the cycle back to 0
        d = cerny(4)
        assert apply_word(d, 0, w(d, "abbb")) == 0

    def test_empty_word_is_identity(self):
        d = cerny(5)
        for q in range(5):
            assert apply_word(d, q, ()) == q

    def test_cycle_letter_wraps(self):
        d = cerny(4)
        assert apply_word(d, 3, w(d, "b")) == 0

    def test_invalid_state(self):
        d = cerny(4)
        with pytest.raises(InputError):
            apply_word(d, 4, ())

    def test_invalid_letter(self):
        d = cerny(4)
        with pytest.raises(InputError):
            apply_word(d, 0, (2,))

    def test_associativity_random(self):
        rng = random.Random(11)
        for _ in range(40):
            d = random_dfa(rng.randrange(1, 7), rng.randrange(1, 4), rng)
            u = tuple(rng.randrange(d.k) for _ in range(rng.randrange(4)))
            v = tuple(rng.randrange(d.k) for _ in range(rng.randrange(4)))
            for q in range(d.n):
                assert apply_word(d, q, u + v) == apply_word(d, apply_word(d, q, u), v)


def preimage(d, mask, word):
    """The mask of the states that word carries into mask, by per-bit steps."""
    pre = core.letter_preimage_masks(d)
    for a in reversed(word):
        mask = core.preimage_mask(pre[a], mask)
    return mask


class TestImagePreimage:
    def test_image_merges(self):
        d = cerny(4)
        assert image(d, StateSet(4, 0b11), w(d, "a")).mask == 0b10

    def test_image_empty_word(self):
        d = cerny(6)
        P = StateSet(6, 0b10100)
        assert image(d, P, ()) == P

    def test_image_of_reset_word_is_singleton(self):
        d = cerny(4)
        res = image(d, StateSet.full(4), w(d, "abbbabbba"))
        assert res.mask == 0b10

    def test_image_rejects_empty_set(self):
        d = cerny(4)
        with pytest.raises(InputError):
            image(d, StateSet(4, 0), ())

    def test_preimage_inverts_a_column(self):
        d = cerny(4)
        assert preimage(d, 0b10, w(d, "a")) == 0b11

    def test_preimage_of_full_is_full(self):
        d = cerny(5)
        assert preimage(d, 0b11111, w(d, "abab")) == 0b11111

    def test_preimage_fixed_state(self):
        d = cerny(4)
        assert preimage(d, 0b100, w(d, "a")) == 0b100

    def test_adjunction_exhaustive_small(self):
        # P is contained in (P.w)w^-1 and (P.w^-1).w is contained in P
        rng = random.Random(5)
        for _ in range(12):
            d = random_dfa(rng.randrange(2, 6), 2, rng)
            word = tuple(rng.randrange(2) for _ in range(rng.randrange(5)))
            for m in range(1, 1 << d.n):
                img = image(d, StateSet(d.n, m), word)
                assert m & preimage(d, img.mask, word) == m
                pre = preimage(d, m, word)
                if pre:
                    assert image(d, StateSet(d.n, pre), word).mask & ~m == 0

    def test_image_never_grows(self):
        rng = random.Random(7)
        for _ in range(12):
            d = random_dfa(rng.randrange(2, 6), 2, rng)
            word = tuple(rng.randrange(2) for _ in range(rng.randrange(6)))
            for m in range(1, 1 << d.n):
                P = StateSet(d.n, m)
                assert len(image(d, P, word)) <= len(P)


class TestUnionTables:
    # second route for the chunk tables: the per-bit image and preimage steps;
    # the sizes sit on both sides of the 8-state chunk boundaries
    @pytest.mark.parametrize("n", sorted(set(range(1, 11)) | {16, 17, 63, 64, 65, 70}))
    def test_tables_agree_with_per_bit_steps(self, n):
        rng = random.Random(n)
        d = random_dfa(n, 3, rng)
        if n <= 10:
            masks = range(1 << n)
        else:
            masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(300)]
        img, pre = core.image_tables(d), core.preimage_tables(d)
        raw = core.letter_preimage_masks(d)
        for m in masks:
            images, preimages = img.steps(m), pre.steps(m)
            for a, row in enumerate(d.delta):
                assert images[a] == core.image_mask(row, m)
                assert preimages[a] == core.preimage_mask(raw[a], m)

    @pytest.mark.parametrize("k", [1, 2, 3, 13])
    @pytest.mark.parametrize("n", [1, 5, 7, 8, 9, 13, 16, 17, 63, 64, 65, 70])
    def test_packed_layout_agrees_with_per_bit_steps(self, n, k):
        # letter a's part of one packed lookup, split by its shift, against
        # the per-bit steps; letter 0 is the identity and, for k > 1, the
        # last letter is constant
        rng = random.Random(1000 * k + n)
        rows = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(k)]
        rows[0] = tuple(range(n))
        if k > 1:
            rows[-1] = (rng.randrange(n),) * n
        d = Dfa(n, tuple(f"x{i}" for i in range(k)), rows)
        img, pre = core.image_tables(d), core.preimage_tables(d)
        assert (img.n, img.full, list(img.shifts)) == (n, (1 << n) - 1, [a * n for a in range(k)])
        raw = core.letter_preimage_masks(d)
        if n <= 9:
            masks = range(1 << n)
        else:
            masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(200)]
        for m in masks:
            x, y = core.union_mask(img.tables, m), core.union_mask(pre.tables, m)
            assert x >> k * n == y >> k * n == 0
            for a, s in enumerate(img.shifts):
                assert x >> s & img.full == core.image_mask(d.delta[a], m)
                assert y >> s & pre.full == core.preimage_mask(raw[a], m)
            assert img.steps(m)[0] == pre.steps(m)[0] == m

    @pytest.mark.parametrize("n", [1, 5, 8, 9, 13, 16])
    def test_array_agrees_with_union_mask(self, n):
        # one chunk, two chunks, and a partial last chunk; per-letter tables,
        # as extensibility_profile builds them
        d = random_dfa(n, 2, random.Random(100 + n))
        rows = [[1 << t for t in row] for row in d.delta] + core.letter_preimage_masks(d)
        for row in rows:
            tables = core.union_tables(row)
            arr = core.union_array(tables)
            assert len(arr) == 1 << n
            assert arr == [core.union_mask(tables, m) for m in range(1 << n)]
        if n <= 8:
            tables = core.union_tables(core.letter_preimage_masks(d)[0])
            assert core.union_array(tables) is tables[0]


# the three memoized builders, undecorated, and a comparable form of each result
BUILDERS = [core.image_tables.__wrapped__, core.preimage_tables.__wrapped__,
            engine._merge_levels.__wrapped__, engine._extension_word.__wrapped__]


def as_data(value):
    if isinstance(value, core.LetterTables):
        return value.tables, list(value.shifts), value.n, value.full
    return value


def spied(build):
    """build memoized afresh, with the list of the automata it was run on."""
    built = []

    def spy(d):
        built.append(d)
        return build(d)
    return core.last_automaton(spy), built


@pytest.mark.parametrize("build", BUILDERS, ids=lambda f: f.__name__)
class TestLastAutomaton:
    def test_builds_once_per_run_of_one_automaton(self, build):
        rng = random.Random(5)
        a, b = random_dfa(12, 2, rng), random_dfa(12, 3, rng)
        memo, built = spied(build)
        got = [memo(d) for d in (a, a, b, a)]
        assert [id(d) for d in built] == [id(a), id(b), id(a)]
        assert got[0] is got[1] and got[1] is not got[3]
        for d, value in zip((a, a, b, a), got):
            assert as_data(value) == as_data(build(d))

    def test_equal_automata_are_built_apart(self, build):
        a = cerny(9)
        twin = Dfa(a.n, a.letters, a.delta, name=a.name)
        memo, built = spied(build)
        assert a == twin and a is not twin
        memo(a)
        memo(twin)
        assert [id(d) for d in built] == [id(a), id(twin)]

    def test_a_late_build_never_serves_another_automaton(self, build):
        # a thread's build of a is held until b has been built and served;
        # the slot that build then writes must not pair b with a's value
        a, b = cerny(7), cerny(8)
        held, release = threading.Event(), threading.Event()

        def slow(d):
            if d is a:
                held.set()
                release.wait(timeout=60)
            return build(d)
        memo, got = core.last_automaton(slow), []
        t = threading.Thread(target=lambda: got.append(memo(a)))
        t.start()
        assert held.wait(timeout=60)
        first_b = memo(b)
        release.set()
        t.join(timeout=60)
        assert not t.is_alive()
        assert as_data(got[0]) == as_data(build(a))
        assert as_data(memo(b)) == as_data(first_b) == as_data(build(b))

    def test_a_call_before_every_line_never_mixes_two_automata(self, build):
        # a deterministic interleaving: a tracer runs memo(b) before every
        # line of memo(a), wherever another thread could switch in. It reads
        # no frame.f_locals, since CPython would then write that snapshot,
        # stale after memo(b), back into memo's slot.
        a, b = cerny(7), cerny(8)
        memo, _ = spied(build)
        from_b, started = [], []

        def line(frame, event, arg):
            if event == "line":
                from_b.append(memo(b))
            return line

        def call(frame, event, arg):
            if frame.f_code is memo.__code__ and not started:
                started.append(True)
                return line
            return None

        previous = sys.gettrace()
        sys.settrace(call)
        try:
            got = memo(a)
        finally:
            sys.settrace(previous)
        assert len(from_b) >= 3
        assert as_data(got) == as_data(build(a))
        assert [as_data(v) for v in from_b] == [as_data(build(b))] * len(from_b)

    def test_threads_get_their_own_automatons_values(self, build):
        # four threads, each calling on its own automaton, evict each
        # other's slot; every call must still return its own automaton's
        # value. The automata are ones the builder takes: the extension
        # word refuses some.
        rng = random.Random(9)
        dfas = []
        while len(dfas) < 4:
            d = random_dfa(6, 2, rng)
            try:
                build(d)
            except core.DomainError:
                continue
            dfas.append(d)
        want = [as_data(build(d)) for d in dfas]
        assert len({repr(w) for w in want}) == len(dfas)
        memo, _ = spied(build)
        wrong, start = [0] * len(dfas), threading.Barrier(len(dfas))

        def work(i):
            start.wait(timeout=60)
            for _ in range(1000):
                if as_data(memo(dfas[i])) != want[i]:
                    wrong[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(dfas))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [0] * len(dfas)


class TestStateSet:
    def test_no_width_limit_beyond_64_states(self):
        # masks are Python ints, so only the per-call cap bounds a search
        d = chain(70)
        assert len(StateSet.full(70)) == 70
        assert engine.exact_reset_threshold(d, cap=70) == (69, (0,) * 69)
        for solver in (engine.greedy_compression_word, engine.reset_word_via_extension):
            word = solver(d, cap=70).word
            assert len(image(d, StateSet.full(70), word)) == 1

    def test_len_and_range_check(self):
        assert len(StateSet(6, 0b101001)) == 3
        assert len(StateSet.full(6)) == 6
        for mask in (-1, 1 << 6):
            with pytest.raises(InputError):
                StateSet(6, mask)


class TestGraph:
    def test_strong_connectivity(self):
        assert core.is_strongly_connected(cerny(6))
        assert not core.is_strongly_connected(chain(4))
        assert core.is_strongly_connected(chain(1))

    def test_reach_returns_bfs_depths(self):
        # 0 -> 1 -> 2 -> 3 plus a shortcut 0 -> 2; 4 -> 0 is unreachable from 0
        succs = [[1, 2], [2], [3], [], [0]]
        assert core.reach(succs, 0) == {0: 0, 1: 1, 2: 1, 3: 2}
        assert core.reach(succs, 3) == {3: 0}

    def test_reverse_lists_predecessors(self):
        succs = [[1, 2], [2], [0, 2]]
        assert core.reverse(succs) == [[2], [0], [0, 1, 2]]

    def test_scc_partition(self):
        succs = [[1], [0], [3], [3]]
        comp = core.strongly_connected_components(4, succs)
        assert comp[0] == comp[1]
        assert comp[2] != comp[3]
        assert comp[0] != comp[2]


class TestQuotientSubautomaton:
    def test_subautomaton_whole(self):
        d = cerny(4)
        assert core.subautomaton(d, 0b1111).delta == d.delta

    def test_subautomaton_zero_state(self):
        d = chain(4)
        sub = core.subautomaton(d, 0b1)
        assert sub.n == 1 and sub.delta == ((0,),)

    def test_subautomaton_renumbers_in_state_order(self):
        # states 1 and 3 form a closed set: new state 0 is 1, new state 1 is 3
        d = Dfa(4, ("a", "b"), ((3, 3, 0, 1), (0, 1, 2, 3)), name="D")
        sub = core.subautomaton(d, 0b1010)
        assert sub.delta == ((1, 0), (0, 1)) and sub.name == "D/sub"

    def test_open_set_rejected(self):
        d = cerny(4)
        with pytest.raises(PreconditionError):
            core.subautomaton(d, 0b110)

    @pytest.mark.parametrize("mask", [0, 1 << 4])
    def test_mask_out_of_range_rejected(self, mask):
        with pytest.raises(InputError):
            core.subautomaton(cerny(4), mask)


class TestTransformations:
    def test_compose_order(self):
        t = (1, 2, 0)
        u = (0, 0, 2)
        assert core.compose(t, u) == (0, 2, 0)

    def test_deficiency_and_idempotence(self):
        assert core.deficiency((1, 1, 2)) == 1
        assert core.is_idempotent((1, 1, 2))
        assert not core.is_idempotent((1, 2, 0))
        assert core.is_permutation((1, 2, 0))

    def test_cycles(self):
        assert core.cycles_of((1, 0, 2)) == [(0, 1), (2,)]
        assert core.cycles_of((1, 2, 0)) == [(0, 1, 2)]
        assert core.cycles_of((0, 0, 1)) == [(0,)]
        assert core.cycles_of(()) == []
        assert core.cycles_of((2, 3, 4, 0, 1)) == [(0, 2, 4, 1, 3)]


def ref_cycles_of(t):
    """cycles_of as it stood before the one-pass walk: one pass marks the
    cyclic states, a second walks each cycle from its least state."""
    n = len(t)
    on_cycle = [False] * n
    seen = [0] * n
    for q0 in range(n):
        if seen[q0]:
            continue
        path = []
        q = q0
        while seen[q] == 0:
            seen[q] = 1
            path.append(q)
            q = t[q]
        if seen[q] == 1:
            for x in path[path.index(q):]:
                on_cycle[x] = True
        for x in path:
            seen[x] = 2
    out = []
    used = set()
    for q in range(n):
        if on_cycle[q] and q not in used:
            cyc = [q]
            used.add(q)
            x = t[q]
            while x != q:
                cyc.append(x)
                used.add(x)
                x = t[x]
            out.append(tuple(cyc))
    return out


class TestCyclesOf:
    def test_every_self_map_up_to_six_points(self):
        count = 0
        for n in range(1, 7):
            for t in itertools.product(range(n), repeat=n):
                assert core.cycles_of(t) == ref_cycles_of(t), t
                count += 1
        assert count == 50069

    @pytest.mark.parametrize("n", [64, 512])
    def test_seeded_maps(self, n):
        rng = random.Random(n)
        for i in range(200):
            if i % 2:
                # a permutation: every state is cyclic
                t = list(range(n))
                rng.shuffle(t)
            else:
                t = [rng.randrange(n) for _ in range(n)]
            assert core.cycles_of(tuple(t)) == ref_cycles_of(tuple(t))


class TestIsIdempotent:
    def test_every_self_map_up_to_six_points(self):
        # reference: the form that tested only the states of the image set
        count = 0
        for n in range(1, 7):
            for t in itertools.product(range(n), repeat=n):
                assert core.is_idempotent(t) == all(t[x] == x for x in set(t)), t
                count += 1
        assert count == 50069


class TestJson:
    def test_roundtrip(self):
        d = cerny(5)
        assert core.dfa_from_json(core.dfa_to_json(d)) == d

    def test_roundtrip_text(self, tmp_path):
        d = cerny(3)
        p = tmp_path / "c3.json"
        core.save_dfa(d, p)
        assert core.load_dfa(p) == d

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda o: o.pop("n"), "n:"),
        (lambda o: o["delta"]["a"].append(0), "delta.a"),
        (lambda o: o["delta"].pop("b"), "delta.b"),
        (lambda o: o["delta"]["a"].__setitem__(0, 9), "delta.a[0]"),
        (lambda o: o["letters"].append("a"), "letters[2]"),
        (lambda o: o.__setitem__("extra", 1), "unknown keys"),
        (lambda o: o["delta"].__setitem__("c", [0, 0, 0, 0]), "delta.c"),
    ])
    def test_parse_errors_carry_path(self, mutate, fragment):
        obj = core.dfa_to_json(cerny(4))
        mutate(obj)
        with pytest.raises(InputError) as err:
            core.dfa_from_json(obj)
        assert fragment in str(err.value)

    def test_bad_json_text(self):
        with pytest.raises(InputError):
            core.dfa_loads("{not json")

    def test_bool_is_not_a_state(self):
        obj = core.dfa_to_json(cerny(2))
        obj["delta"]["a"][0] = True
        with pytest.raises(InputError):
            core.dfa_from_json(obj)

    def test_bool_is_not_a_state_count(self):
        obj = {"n": True, "letters": ["a"], "delta": {"a": [0]}}
        with pytest.raises(InputError) as err:
            core.dfa_from_json(obj)
        assert "n:" in str(err.value)


class TestDot:
    def test_merged_labels(self):
        dot = core.dfa_to_dot(cerny(4))
        assert '0 -> 1 [label="a,b"];' in dot
        assert '1 -> 1 [label="a"];' in dot

    def test_edge_lines_count(self):
        # one line per distinct (source, target) pair
        d = cerny(3)
        dot = core.dfa_to_dot(d)
        assert dot.count("->") == len({(q, row[q]) for row in d.delta for q in range(3)})

    def test_quotes_and_backslashes_are_escaped(self):
        # every quoted ID closes where it should and unescapes to the name
        d = core.dfa_from_json({"name": 'x"y\\', "n": 2, "letters": ["a", 'b\\', '"'],
                                "delta": {"a": [0, 0], 'b\\': [1, 1], '"': [0, 1]}})
        dot = core.dfa_to_dot(d)
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        for line in dot.splitlines():
            assert quoted.sub("", line).count('"') == 0, line
        ids = [re.sub(r"\\(.)", r"\1", m) for m in quoted.findall(dot)]
        assert ids == ['x"y\\', 'a,"', 'b\\', "a", 'b\\,"']
