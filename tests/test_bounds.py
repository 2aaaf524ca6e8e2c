import math

import pytest

from boxsums import bounds
from boxsums.errors import (
    MomentOrderTooSmallError,
    OutOfRangeError,
    UnsupportedDimensionError,
)


class TestCountSavingExponent:
    def test_table(self):
        assert bounds.count_saving_exponent(2) == 2
        assert bounds.count_saving_exponent(3) == 4
        assert bounds.count_saving_exponent(4) == 8

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            bounds.count_saving_exponent(1)

    def test_general_formula(self):
        for nu in range(3, 12):
            want = max(nu * nu - 2 * nu - 2, nu * nu - 3 * nu + 4)
            assert bounds.count_saving_exponent(nu) == want


class TestAllPrimesBound:
    def test_n4_pinned(self):
        got = bounds.monomial_sum_bound_all_primes(4, 10, 101).value
        want = 100 * math.sqrt(101) + 10**4 / math.sqrt(101)
        assert abs(got - want) < 1e-9
        assert abs(got - 2000.02) < 0.5

    def test_n6_h1(self):
        got = bounds.monomial_sum_bound_all_primes(6, 1, 101).value
        assert abs(got - (math.sqrt(101) + 101**-0.25)) < 1e-12

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            bounds.monomial_sum_bound_all_primes(3, 5, 101)

    def test_character_version_identical(self):
        for n in (4, 5, 6, 7):
            for h, p in ((3, 101), (10, 1009)):
                a = bounds.bound_value(bounds.S_ALL, n, h, p).value
                b = bounds.bound_value(bounds.T_ALL, n, h, p).value
                assert a == b

    def test_n5_pinned(self):
        h, p = 2, 13
        got = bounds.monomial_sum_bound_all_primes(5, h, p).value
        want = h**2.5 * p**0.5 + h**4 * p**0.125 + h**5 * p**-0.375
        assert abs(got - want) < 1e-12

    def test_n7_branch_boundary(self):
        p = 10007
        h = p ** (1 / 6)
        first = h**5.5 * p**0.25
        assert abs(first - h**7) / h**7 < 1e-9


class TestMomentBound:
    def test_n3_top_branch(self):
        got = bounds.character_sum_bound_moment(3, 101, 10007)
        assert got.branch == "h>=p^(1/2)"
        assert abs(got.value - 101**2.5) < 1e-6

    def test_n3_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            bounds.character_sum_bound_moment(3, 2, 10007)

    def test_n4_middle_branch(self):
        p = 10007
        h = int(p**0.23)  # between p^{2/9} and p^{1/4}
        got = bounds.character_sum_bound_moment(4, h, p)
        assert got.branch == "p^(2/9)<=h<p^(1/4)"
        assert abs(got.value - h**2.75 * p**0.25) < 1e-6

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            bounds.character_sum_bound_moment(5, 10, 101)

    def test_branches_cover_range(self):
        # No gaps: every h above the lowest threshold yields a value.
        for p in (101, 1009, 10007):
            for n, alpha in ((3, 0.25), (4, 1 / 6)):
                lo = math.ceil(p**alpha)
                for h in range(lo + 1, p):
                    v = bounds.character_sum_bound_moment(n, h, p).value
                    assert v > 0


class TestAlmostAllBounds:
    def test_n2_pinned(self):
        got = bounds.monomial_sum_bound_almost_all(2, 3, 101).value
        # middle exponent n/2 + ceil(n/2)/2 - 1/4 = 5/4 at n = 2
        want = 3 * math.sqrt(101) + 3**1.25 * 101**0.25 + 3**1.5
        assert abs(got - want) < 1e-12

    def test_h1(self):
        got = bounds.monomial_sum_bound_almost_all(4, 1, 101).value
        assert abs(got - (101**0.5 + 101**0.25 + 1)) < 1e-12

    def test_dimension_below_two(self):
        with pytest.raises(UnsupportedDimensionError):
            bounds.monomial_sum_bound_almost_all(1, 3, 101)

    def test_character_version_identical(self):
        for n in range(2, 8):
            a = bounds.bound_value(bounds.S_ALMOST, n, 5, 1009).value
            b = bounds.bound_value(bounds.T_ALMOST, n, 5, 1009).value
            assert a == b

    def test_middle_term_never_dominates_even_n(self):
        for p in (101, 1009, 10007):
            for n in (2, 4, 6):
                t = (n + 1) // 2
                for i in range(1, 40):
                    h = round(p ** (i / 40))
                    if not 1 <= h < p:
                        continue
                    first = h ** (n / 2) * p**0.5
                    middle = h ** (n / 2 + t / 2 - 0.25) * p**0.25
                    last = h ** (n - 0.5)
                    assert middle <= max(first, last) * (1 + 1e-12)


class TestMomentAlmostAll:
    def test_pinned_n2_r2(self):
        got = bounds.character_sum_bound_moment_almost_all(2, 4, 101, 2).value
        want = (
            4**1.25 * 101**0.25
            + 4**1.375 * 101**0.125
            + 4**1.75 * 101**0.125
            + 4**1.875
        )
        assert abs(got - want) < 1e-12

    def test_r1_rejected(self):
        with pytest.raises(MomentOrderTooSmallError):
            bounds.character_sum_bound_moment_almost_all(2, 4, 101, 1)

    def test_large_r_trend(self):
        # As r grows the bound approaches h^n-ish scale monotonically
        # from the r=2 value on a sampled grid.
        h, p, n = 10, 1009, 3
        vals = [
            bounds.character_sum_bound_moment_almost_all(n, h, p, r).value
            for r in (2, 4, 8, 16, 64)
        ]
        assert all(v > 0 for v in vals)


class TestDispatchAndThreshold:
    def test_dispatch_matches_direct(self):
        p, h = 1009, 12
        assert (
            bounds.bound_value(bounds.S_ALL, 4, h, p).value
            == bounds.monomial_sum_bound_all_primes(4, h, p).value
        )
        assert (
            bounds.bound_value(bounds.T_MOMENT_ALMOST, 3, h, p, r=3).value
            == bounds.character_sum_bound_moment_almost_all(3, h, p, 3).value
        )

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            bounds.bound_value("bogus", 4, 3, 101)

    def test_thresholds(self):
        assert bounds.nontrivial_threshold(bounds.S_ALL, 4) == 0.25
        assert bounds.nontrivial_threshold(bounds.S_ALL, 7) == pytest.approx(1 / 6)
        assert bounds.nontrivial_threshold(bounds.T_MOMENT, 3) == 0.25
        assert bounds.nontrivial_threshold(bounds.T_MOMENT, 4) == pytest.approx(1 / 6)
        assert bounds.nontrivial_threshold(bounds.S_ALMOST, 5) == pytest.approx(1 / 5)
        assert bounds.nontrivial_threshold(bounds.T_MOMENT_ALMOST, 4) == pytest.approx(1 / 6)

    def test_threshold_unsupported(self):
        with pytest.raises(UnsupportedDimensionError):
            bounds.nontrivial_threshold(bounds.S_ALL, 3)

    def test_dimension_table_is_supported(self):
        for selector, dims in bounds.DIMS.items():
            for n in dims:
                assert 0 < bounds.nontrivial_threshold(selector, n) < 1
                for h in (2, 10, 100):
                    try:
                        assert bounds.bound_value(selector, n, h, 1009).value > 0
                    except OutOfRangeError:
                        pass

    @pytest.mark.parametrize("selector", [bounds.S_ALL, bounds.T_ALL, bounds.T_MOMENT])
    def test_dimension_table_is_complete(self, selector):
        dims = bounds.DIMS[selector]
        for n in (min(dims) - 1, max(dims) + 1):
            with pytest.raises(UnsupportedDimensionError):
                bounds.nontrivial_threshold(selector, n)
            with pytest.raises(UnsupportedDimensionError):
                bounds.bound_value(selector, n, 10, 1009)

    def test_monotone_in_h(self):
        for selector in bounds.SELECTORS:
            for n in (4,) if selector in (bounds.S_ALL, bounds.T_ALL, bounds.T_MOMENT) else (2, 4):
                prev = None
                for p in (1009,):
                    for i in range(1, 40):
                        h = round(p ** (i / 40))
                        if not 1 <= h < p:
                            continue
                        try:
                            v = bounds.bound_value(selector, n, h, p, r=2).value
                        except OutOfRangeError:
                            continue
                        if prev is not None:
                            assert v >= prev * (1 - 1e-12)
                        prev = v
