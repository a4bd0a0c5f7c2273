import pytest

from synchro import core, engine, families
from synchro.core import DomainError, StateSet


ALL_SMALL = [
    families.gen_cerny(4),
    families.gen_cerny(6),
    families.gen_dnk(4, 3),
    families.gen_dnk(5, 4),
    families.gen_rystsov(4),
    families.gen_rystsov(5),
    families.gen_v(4),
    families.gen_v(5),
    families.gen_chain(1),
    families.gen_chain(6),
    families.gen_two_idempotent(5),
    families.gen_elevator(5),
]


class TestExpectedThresholds:
    @pytest.mark.parametrize("inst", ALL_SMALL, ids=lambda i: i.dfa.name)
    def test_formula_matches_bfs(self, inst):
        rt, _ = engine.exact_reset_threshold(inst.dfa)
        assert rt == inst.expected_rt

    def test_cerny_small(self):
        assert families.gen_cerny(2).expected_rt == 1
        assert families.gen_cerny(10).expected_rt == 81

    def test_dnk_recorded_formula(self):
        assert families.gen_dnk(10, 7).expected_rt == 58
        assert families.gen_dnk(9, 5).expected_rt == 37

    def test_dnk_true_thresholds_below_top_k(self):
        # For k < n-1 search finds k(n-3)+n+1, above the recorded closed form
        # k(n-2)+2; the two agree exactly when k = n-1. Values frozen from
        # exhaustive word enumeration and an independent backward search.
        observed = {(5, 3): 12, (7, 4): 24, (8, 5): 34, (9, 5): 40, (10, 7): 60}
        for (n, k), rt_true in observed.items():
            inst = families.gen_dnk(n, k)
            rt, _ = engine.exact_reset_threshold(inst.dfa)
            assert rt == rt_true == k * (n - 3) + n + 1
            assert rt > inst.expected_rt

    def test_rystsov_n2(self):
        inst = families.gen_rystsov(2)
        assert inst.expected_rt == 1
        assert engine.exact_reset_threshold(inst.dfa)[0] == 1

    def test_chain_trivial(self):
        assert families.gen_chain(1).expected_rt == 0
        assert families.gen_chain(8).expected_rt == 7


class TestWitnessWords:
    def test_cerny_witness_resets(self):
        for n in range(2, 9):
            inst = families.gen_cerny(n)
            w = inst.notes["witness_word"]
            assert len(w) == (n - 1) ** 2
            assert len(core.image(inst.dfa, StateSet.full(n), w)) == 1

    def test_dnk_witness_resets_at_top_k(self):
        for n, k in [(4, 3), (5, 4), (7, 6), (9, 8)]:
            inst = families.gen_dnk(n, k)
            w = inst.notes["witness_word"]
            assert len(w) == k * (n - 2) + 2
            assert len(core.image(inst.dfa, StateSet.full(n), w)) == 1

    def test_dnk_witness_strands_a_cycle_state_below_top_k(self):
        # each (a b^(k-1)) block fixes state k-1, so for k < n-1 the recorded
        # word leaves it unmerged
        for n, k in [(5, 3), (7, 4), (10, 7)]:
            inst = families.gen_dnk(n, k)
            w = inst.notes["witness_word"]
            block = w[:k]
            assert core.apply_word(inst.dfa, k - 1, block) == k - 1
            assert len(core.image(inst.dfa, StateSet.full(n), w)) == 2


class TestStructure:
    def test_dnk_matches_published_table(self):
        # spot checks against the ten-state picture with k = 7
        d = families.gen_dnk(10, 7).dfa
        a = d.letter_index("a")
        assert d.delta[a][6] == 0
        assert d.delta[a][9] == 3
        assert d.delta[a][2] == 3

    def test_dnk_one_cluster_flag(self):
        assert families.gen_dnk(10, 7).notes["one_cluster_applicable"]
        assert not families.gen_dnk(5, 2).notes["one_cluster_applicable"]

    def test_rystsov_zero(self):
        d = families.gen_rystsov(5).dfa
        assert all(row[0] == 0 for row in d.delta)

    def test_rystsov_swaps(self):
        d = families.gen_rystsov(4).dfa
        a2 = d.letter_index("a2")
        assert d.delta[a2][1] == 2 and d.delta[a2][2] == 1 and d.delta[a2][3] == 3

    def test_v_extra_letter(self):
        d = families.gen_v(4).dfa
        an = d.letter_index("a4")
        assert d.delta[an][1] == 0
        assert d.delta[an][0] == 0 and d.delta[an][2] == 2

    def test_two_idempotent_letters_are_idempotent(self):
        for n in (2, 5, 8):
            d = families.gen_two_idempotent(n).dfa
            for row in d.delta:
                assert core.is_idempotent(row)

    def test_elevator_letters_are_simple_idempotents(self):
        d = families.gen_elevator(5).dfa
        for row in d.delta:
            assert core.deficiency(row) == 1 and core.is_idempotent(row)


class TestParameterValidation:
    def test_dnk_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            families.gen_dnk(6, 3)

    def test_dnk_rejects_k_too_large(self):
        with pytest.raises(DomainError):
            families.gen_dnk(5, 5)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            families.gen_cerny(1)
        with pytest.raises(DomainError):
            families.gen_v(2)
        with pytest.raises(DomainError):
            families.gen_chain(0)

    def test_generate_dispatch(self):
        inst = families.generate("cerny", n=4)
        assert inst.family == "cerny"
        with pytest.raises(DomainError):
            families.generate("nope", n=4)
        with pytest.raises(DomainError):
            families.generate("dnk", n=5)
        with pytest.raises(DomainError):
            families.generate("chain", n=3, k=1)

    def test_meta_json(self):
        meta = families.gen_dnk(5, 3).meta_json()
        assert meta["family"] == "dnk" and meta["expected_rt"] == 11
        assert meta["params"] == {"n": 5, "k": 3}
