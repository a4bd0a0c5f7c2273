from fractions import Fraction

import pytest

from synchro import bounds, engine, families
from synchro.core import DomainError


class TestRegistryValues:
    def test_pin_frankl(self):
        assert bounds.bound_for_class("pin_frankl", 10) == 165
        assert bounds.bound_for_class("pin_frankl", 4) == 10

    def test_cerny_reference(self):
        assert bounds.bound_for_class("cerny", 5) == 16

    def test_kari_eulerian(self):
        assert bounds.bound_for_class("kari_eulerian", 5) == 13
        assert bounds.bound_for_class("a6", 5) == 13

    def test_szykula_exact_rational(self):
        v = bounds.bound_for_class("szykula", 10)
        assert v == Fraction(85059 * 1000 + 90024 * 100 + 196504 * 10 - 10648, 511104)

    def test_quasi_parametrized(self):
        assert bounds.bound_for_class("d1q", 6, d=0) == 2 * 7 * 10 // 2  # 2^0*(n+1)(2n-2)
        assert bounds.bound_for_class("d3", 5, d=1) == 2 * 5 * 4
        with pytest.raises(DomainError):
            bounds.bound_for_class("d3", 5)

    @pytest.mark.parametrize("cid", ["d1q", "d3", "quasi_one_cluster", "quasi_eulerian"])
    def test_degree_lies_in_zero_to_n(self, cid):
        # d = 0 and d = n are degrees; below 0 or above n the formula is no bound
        assert bounds.bound_for_class(cid, 5, d=0) > 0
        assert bounds.bound_for_class(cid, 5, d=5) > 0
        for d in (-1, 6, 100):
            with pytest.raises(DomainError, match="degree"):
                bounds.bound_for_class(cid, 5, d=d)

    def test_b4_branches(self):
        # sigma=2, n=16: r = 4, cubic branch
        assert bounds.bound_for_class("b4", 16, sigma=2) == 2 + Fraction(19 * 60, 6)
        # sigma=2, n=8: r = 3, quadratic branch
        assert bounds.bound_for_class("b4", 8, sigma=2) == 2 + 10 * 4

    def test_b2_floor(self):
        assert bounds.bound_for_class("b2sc", 7) == 9  # floor(56/6)

    def test_d_class_floats(self):
        import math
        v = bounds.bound_for_class("d1", 10)
        assert abs(v - (200 - 40 + 1 - 18 * math.log(5))) < 1e-9
        v = bounds.bound_for_class("d2", 10)
        assert abs(v - (200 - 10 * math.log(10) - 40 + 2)) < 1e-9

    def test_shitov_flagged_asymptotic(self):
        entry = bounds.REGISTRY["shitov"]
        assert entry.kind == "asymptotic"
        v = bounds.bound_for_class("shitov", 10)
        assert abs(v - float((Fraction(7, 48) + Fraction(15625, 798768)) * 1000)) < 1e-9

    def test_unknown_and_validity(self):
        with pytest.raises(DomainError):
            bounds.bound_for_class("zz", 5)
        with pytest.raises(DomainError):
            bounds.bound_for_class("d2", 2)
        with pytest.raises(DomainError):
            bounds.bound_for_class("d4", 3, d=1)


class TestScales:
    def test_quadratic_entries_dominate_cerny(self):
        for entry in bounds.REGISTRY.values():
            if entry.scale != "quadratic":
                continue
            for n in range(max(2, entry.min_n), 11):
                params = {p: 1 for p in entry.params}
                v = bounds.bound_for_class(entry.id, n, **params)
                assert v >= (n - 1) ** 2, (entry.id, n, v)

    def test_family_entries_cover_their_families(self):
        # classes whose bound sits below (n-1)^2 are gauged by the families
        # that attain them
        for n in range(3, 7):
            rt, _ = engine.exact_reset_threshold(families.gen_rystsov(n).dfa)
            assert rt <= bounds.bound_for_class("b1", n)
            assert rt <= bounds.bound_for_class("b3", n)
            rt, _ = engine.exact_reset_threshold(families.gen_chain(n).dfa)
            assert rt <= bounds.bound_for_class("c1", n)
            assert rt <= bounds.bound_for_class("c3", n)
            rt, _ = engine.exact_reset_threshold(families.gen_two_idempotent(n).dfa)
            assert rt <= bounds.bound_for_class("c4", n)
            rt, _ = engine.exact_reset_threshold(families.gen_elevator(n).dfa)
            assert rt <= bounds.bound_for_class("c6", n)
            assert rt <= bounds.bound_for_class("c7", n)

    def test_cross_bound_consistency_for_cerny(self):
        # every class the series lands in upper-bounds its exact threshold
        from synchro import classify
        for n in range(3, 7):
            d = families.gen_cerny(n).dfa
            rt, _ = engine.exact_reset_threshold(d)
            report = classify.class_report(
                d, classes=["a1", "a2", "a3", "a5", "a9", "a10", "d1", "d2", "d6"])
            for cid, entry in report.items():
                if entry["status"] != "in":
                    continue
                if n < bounds.REGISTRY[cid].min_n:
                    continue
                v = bounds.bound_for_class(cid, n)
                assert rt <= v, (cid, n, rt, v)
