import itertools
import random

import pytest

from synchro import classify, core, families, harness, monoid
from synchro.core import CapExceeded, Dfa
from test_engine import family_instances


def cerny(n):
    return families.gen_cerny(n).dfa


def chain(n):
    return families.gen_chain(n).dfa


class TestClosure:
    def test_chain3_elements(self):
        m = monoid.transition_monoid(chain(3))
        # identity, the letter, and its square (a constant); a^3 = a^2
        assert len(m) == 3
        assert m.elements[0] == (0, 1, 2)
        assert (0, 0, 1) in m.elements and (0, 0, 0) in m.elements

    def test_identity_letter(self):
        d = Dfa(3, ("i",), ((0, 1, 2),))
        assert len(monoid.transition_monoid(d)) == 1

    def test_cerny3_contains_cycle_of_order_3(self):
        m = monoid.transition_monoid(cerny(3))
        b = cerny(3).delta[1]
        b2 = core.compose(b, b)
        b3 = core.compose(b2, b)
        assert b in m.elements and b2 in m.elements and b3 == (0, 1, 2)

    def test_closure_is_idempotent(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randrange(2, 5)
            d = Dfa(n, ("a", "b"),
                    tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)))
            m = monoid.transition_monoid(d)
            elems = set(m.elements)
            for t in m.elements:
                for u in m.elements:
                    assert core.compose(t, u) in elems

    def test_witness_words_induce_their_elements(self):
        d = cerny(4)
        m = monoid.transition_monoid(d)
        for t, w in zip(m.elements, m.words):
            assert tuple(core.apply_word(d, q, w) for q in range(d.n)) == t

    def test_cap(self):
        with pytest.raises(CapExceeded):
            monoid.transition_monoid(cerny(5), cap=10)


class TestAperiodic:
    def test_chain_yes(self):
        for n in (1, 3, 6):
            assert monoid.is_aperiodic(monoid.transition_monoid(chain(n))).status == "in"

    def test_cerny_no(self):
        v = monoid.is_aperiodic(monoid.transition_monoid(cerny(4)))
        assert v.status == "out"

    def test_elevator_yes(self):
        m = monoid.transition_monoid(families.gen_elevator(5).dfa)
        assert monoid.is_aperiodic(m).status == "in"

    def test_matches_bruteforce_power_check(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randrange(2, 5)
            d = Dfa(n, ("a", "b"),
                    tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)))
            m = monoid.transition_monoid(d)
            expected = True
            for t in m.elements:
                powers = [t]
                while True:
                    nxt = core.compose(powers[-1], t)
                    if nxt in powers:
                        start = powers.index(nxt)
                        if len(powers) - start != 1:
                            expected = False
                        break
                    powers.append(nxt)
                if not expected:
                    break
            assert (monoid.is_aperiodic(m).status == "in") == expected


class TestInvolutionFree:
    def test_chain_yes(self):
        assert monoid.is_involution_free(monoid.transition_monoid(chain(5))).status == "in"

    def test_cerny4_no(self):
        # the square of the cycle letter is an involution on the 4-cycle
        v = monoid.is_involution_free(monoid.transition_monoid(cerny(4)))
        assert v.status == "out"

    def test_aperiodic_implies_involution_free(self):
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randrange(2, 5)
            d = Dfa(n, ("a", "b"),
                    tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)))
            m = monoid.transition_monoid(d)
            if monoid.is_aperiodic(m).status == "in":
                assert monoid.is_involution_free(m).status == "in"


class TestDsEds:
    def test_two_element_commutative(self):
        d = Dfa(2, ("c",), ((0, 0),))
        m = monoid.transition_monoid(d)
        assert monoid.is_in_ds(m).status == "in"

    def test_chain_monoid_in_ds(self):
        m = monoid.transition_monoid(chain(4))
        assert monoid.is_in_ds(m).status == "in"

    def test_rystsov_in_eds(self):
        for n in (3, 4, 5):
            m = monoid.transition_monoid(families.gen_rystsov(n).dfa)
            assert monoid.is_in_eds(m).status == "in"

    def test_ds_implies_eds_on_samples(self):
        rng = random.Random(43)
        for _ in range(20):
            n = rng.randrange(2, 5)
            d = Dfa(n, ("a", "b"),
                    tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)))
            m = monoid.transition_monoid(d)
            if monoid.is_in_ds(m).status == "in":
                assert monoid.is_in_eds(m).status == "in"

    def test_group_monoid_in_eds(self):
        # a permutation generator has no idempotent but the identity
        d = Dfa(3, ("b",), ((1, 2, 0),))
        m = monoid.transition_monoid(d)
        assert monoid.is_in_eds(m).status == "in"

    def test_commutative_monoids_in_ds(self):
        rng = random.Random(59)
        checked = 0
        while checked < 10:
            n = rng.randrange(2, 5)
            d = Dfa(n, ("a", "b"),
                    tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)))
            m = monoid.transition_monoid(d)
            if len(m) > 60:
                continue
            commutative = all(core.compose(t, u) == core.compose(u, t)
                              for t in m.elements for u in m.elements)
            if not commutative:
                continue
            checked += 1
            assert monoid.is_in_ds(m).status == "in"

    def test_ds_matches_bruteforce_definition(self):
        rng = random.Random(61)
        checked = 0
        while checked < 12:
            n = rng.randrange(2, 4)
            d = Dfa(n, ("a", "b"),
                    tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)))
            m = monoid.transition_monoid(d)
            if len(m) > 30:
                continue
            checked += 1
            elems = list(m.elements)
            # literal definition with ideals computed by brute force
            def ideal(x):
                return frozenset(core.compose(core.compose(u, x), v)
                                 for u in elems for v in elems)
            ideals = {x: ideal(x) for x in elems}
            expected = True
            for x, y, z in itertools.product(elems, repeat=3):
                if ideals[x] == ideals[y] == ideals[z] == ideals[core.compose(x, x)]:
                    if ideals[x] != ideals[core.compose(y, z)]:
                        expected = False
                        break
                if not expected:
                    break
            assert (monoid.is_in_ds(m).status == "in") == expected

    def test_ds_invariant_under_letter_order(self):
        rng = random.Random(83)
        for _ in range(10):
            n = rng.randrange(2, 5)
            rows = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(2))
            d1 = Dfa(n, ("a", "b"), rows)
            d2 = Dfa(n, ("b", "a"), rows[::-1])
            v1 = monoid.is_in_ds(monoid.transition_monoid(d1))
            v2 = monoid.is_in_ds(monoid.transition_monoid(d2))
            assert v1.status == v2.status

    def test_cap(self, monkeypatch):
        m = monoid.transition_monoid(cerny(4))
        monkeypatch.setattr(monoid, "DS_CAP", 5)
        with pytest.raises(CapExceeded):
            monoid.is_in_ds(m)


class TestSummary:
    @pytest.mark.parametrize("report", [
        lambda d: classify.class_report(d),
        lambda d: monoid.monoid_summary(d),
    ], ids=["class_report", "monoid_summary"])
    def test_monoid_built_once(self, monkeypatch, report):
        calls = []
        build = monoid.transition_monoid

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(monoid, "transition_monoid", counting)
        report(cerny(4))
        assert len(calls) == 1

    def test_capped_monoid_built_once(self, monkeypatch):
        calls = []

        def capped(*args, **kwargs):
            calls.append(args)
            raise CapExceeded("transition monoid passed 3 elements")

        monkeypatch.setattr(monoid, "transition_monoid", capped)
        report = classify.class_report(cerny(4))
        assert len(calls) == 1
        for cid in ("a8", "b2", "b3", "c3"):
            assert report[cid]["status"] == "unknown"
            assert report[cid]["note"] == "cap: transition monoid passed 3 elements"

    def test_ideal_cap_reports_unknown(self, monkeypatch):
        monkeypatch.setattr(monoid, "DS_CAP", 3)
        out = monoid.monoid_summary(cerny(4))
        assert out["aperiodic"]["status"] == "out"
        for key in ("ds", "eds"):
            assert out[key] == {
                "status": "unknown",
                "note": f"cap: monoid of size {out['size']} exceeds the ideal-check cap 3"}

    def test_chain_summary(self):
        out = monoid.monoid_summary(chain(4))
        assert out["size"] == 4
        assert out["aperiodic"]["status"] == "in"
        assert out["ds"]["status"] == "in"

    def test_m4_in_ds_and_cerny4_checked(self):
        m = monoid.transition_monoid(cerny(4))
        verdict = monoid.is_in_ds(m)
        assert verdict.status in ("in", "out")


# -- the cycle-reading predicates against the rules that multiplied ------------

def ref_power_cycle_length(t):
    """The period of t's power sequence, by composing powers until one recurs."""
    seen = {t: 0}
    cur = t
    i = 0
    while True:
        cur = core.compose(cur, t)
        i += 1
        if cur in seen:
            return i - seen[cur]
        seen[cur] = i


def ref_idempotents(m):
    return [i for i, t in enumerate(m.elements) if core.compose(t, t) == t]


def ref_is_aperiodic(m):
    for t, w in zip(m.elements, m.words):
        if ref_power_cycle_length(t) != 1:
            return core.Verdict("out", witness=list(w))
    return core.Verdict("in", witness=len(m))


def ref_is_involution_free(m):
    for t, w in zip(m.elements, m.words):
        tt = core.compose(t, t)
        for q in range(m.n):
            if tt[q] == q and t[q] != q:
                return core.Verdict("out", witness={"word": list(w), "state": q})
    return core.Verdict("in", witness=len(m))


def ref_ds_core(elements, generators):
    """_ds_core with a class counted regular when some x has x² in it."""
    ideal_of, index = monoid._ideal_class_ids(elements, generators)
    by_ideal = {}
    for i in range(len(elements)):
        by_ideal.setdefault(ideal_of[i], []).append(i)
    for ideal_id, members in by_ideal.items():
        if not any(ideal_of[index[core.compose(elements[x], elements[x])]] == ideal_id
                   for x in members):
            continue
        for y in members:
            for z in members:
                if ideal_of[index[core.compose(elements[y], elements[z])]] != ideal_id:
                    return (y, z)
    return None


def ref_is_in_ds(m):
    if len(m) > monoid.DS_CAP:
        raise CapExceeded(f"monoid of size {len(m)} exceeds the ideal-check cap {monoid.DS_CAP}")
    bad = ref_ds_core(m.elements, m.generators)
    if bad is None:
        return core.Verdict("in", witness=len(m))
    y, z = bad
    return core.Verdict("out", witness={"y": list(m.words[y]), "z": list(m.words[z])})


def ref_is_in_eds(m):
    if len(m) > monoid.DS_CAP:
        raise CapExceeded(f"monoid of size {len(m)} exceeds the ideal-check cap {monoid.DS_CAP}")
    sub = monoid.closure(m.n, [m.elements[i] for i in ref_idempotents(m)])
    if ref_ds_core(sub.elements, sub.generators) is None:
        return core.Verdict("in", witness=len(sub))
    return core.Verdict("out", witness={"submonoid_size": len(sub)})


PREDICATES = [
    ("aperiodic", monoid.is_aperiodic, ref_is_aperiodic),
    ("involution_free", monoid.is_involution_free, ref_is_involution_free),
    ("ds", monoid.is_in_ds, ref_is_in_ds),
    ("eds", monoid.is_in_eds, ref_is_in_eds),
]

# 1,433 elements and 129 idempotents; its EDS check closes a large submonoid
EDS_HEAVY = Dfa(5, ("a", "b", "c"), ((2, 3, 0, 4, 1), (1, 1, 2, 3, 4), (1, 2, 2, 3, 4)))


class TestPredicatesMatchTheSquaringRules:
    def check(self, dfas):
        """Equal verdicts and idempotents on every automaton; returns the
        statuses each predicate gave."""
        statuses = {name: set() for name, _, _ in PREDICATES}
        for d in dfas:
            m = monoid.transition_monoid(d)
            assert m.idempotents() == ref_idempotents(m), d
            for name, check, ref in PREDICATES:
                got = core.capped(lambda: check(m)).to_json()
                assert got == core.capped(lambda: ref(m)).to_json(), (name, d)
                statuses[name].add(got["status"])
        return statuses

    def test_eds_heavy_automaton(self):
        m = monoid.transition_monoid(EDS_HEAVY)
        assert len(m) == 1433 and len(m.idempotents()) == 129
        self.check([EDS_HEAVY])

    def test_family_instances_up_to_six_states(self):
        statuses = self.check(family_instances(6))
        for name, _, _ in PREDICATES:
            # ds and eds are also "unknown" past the ideal-check cap
            assert {"in", "out"} <= statuses[name], name

    def test_seeded_census_classes(self):
        classes = list(harness.enumerate_automata(harness.EnumerationFilter(2, 4)))
        statuses = self.check(random.Random(17).sample(classes, 400))
        for name, _, _ in PREDICATES:
            assert statuses[name] == {"in", "out"}, name

    def test_cycle_witnesses(self):
        # the powers of the 3-cycle never stabilize, and the first element
        # with a 2-cycle names its least state on one
        m = monoid.transition_monoid(Dfa(4, ("a", "b"), ((1, 2, 0, 3), (0, 3, 2, 1))))
        assert monoid.is_aperiodic(m).to_json()["witness"] == [0]
        assert monoid.is_involution_free(m).to_json()["witness"] == {"word": [1], "state": 1}
