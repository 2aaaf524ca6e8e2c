import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsums import counts
from boxsums.counts import (
    count_monomial_pairs_brute,
    count_product_pairs_brute,
    count_product_pairs_spectral,
    product_inequality_report,
)
from boxsums.errors import TooLargeError
from boxsums.modular import Box, ExponentVector, build_context, is_prime

PRIMES = [5, 7, 11, 13, 31]


@pytest.fixture(scope="module")
def ctx5():
    return build_context(5)


@pytest.fixture(scope="module")
def ctx7():
    return build_context(7)


def _oracle_product_pairs(p, nu, h, k):
    """Independent O(h^{2nu}) double-loop oracle."""
    count = 0
    for x in itertools.product(range(1, h + 1), repeat=nu):
        px = math.prod((xj + k) % p for xj in x) % p
        if px == 0:
            continue
        for y in itertools.product(range(1, h + 1), repeat=nu):
            py = math.prod((yj + k) % p for yj in y) % p
            if px == py:
                count += 1
    return count


class TestProductPairsBrute:
    def test_nu1_no_exclusion(self, ctx7):
        assert count_product_pairs_brute(ctx7, 1, 3, 0).value == 3

    def test_nu1_one_excluded(self, ctx5):
        # x = 3 has 3 + 2 = 0 mod 5.
        assert count_product_pairs_brute(ctx5, 1, 3, 2).value == 2

    def test_nu2_pinned(self, ctx5):
        # products over {1,2}^2: {1:1, 2:2, 4:1}; 1 + 4 + 1 = 6
        assert count_product_pairs_brute(ctx5, 2, 2, 0).value == 6

    def test_h_out_of_range(self, ctx5):
        with pytest.raises(ValueError):
            count_product_pairs_brute(ctx5, 2, 5, 0)

    @pytest.mark.parametrize("count", [count_product_pairs_brute, count_product_pairs_spectral])
    @pytest.mark.parametrize("nu", [0, -1])
    def test_nu_below_one_rejected(self, ctx7, count, nu):
        with pytest.raises(ValueError, match="nu must be >= 1"):
            count(ctx7, nu, 3, 0)

    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("nu", [1, 2])
    def test_matches_double_loop_oracle(self, p, nu):
        ctx = build_context(p)
        for h in range(1, min(p, 6)):
            for k in (0, 1, p - 1):
                got = count_product_pairs_brute(ctx, nu, h, k).value
                assert got == _oracle_product_pairs(p, nu, h, k)

    def test_negative_corner_wraps(self, ctx7):
        got = count_product_pairs_brute(ctx7, 2, 3, -1).value
        assert got == _oracle_product_pairs(7, 2, 3, -1)

    # (p, nu, h): the second h of each p and nu >= 2 has h^nu > p.
    @pytest.mark.parametrize(
        "p, nu, h",
        [
            (13, 1, 12), (13, 2, 4), (13, 2, 12), (13, 3, 3), (13, 3, 12),
            (10007, 1, 500), (10007, 2, 6), (10007, 2, 101), (10007, 3, 6), (10007, 3, 22),
            (100003, 1, 2000), (100003, 2, 6), (100003, 2, 317), (100003, 3, 6), (100003, 3, 47),
        ],
    )
    def test_matches_python_int_frequency_oracle(self, p, nu, h):
        ctx = build_context(p)
        for k in (0, p - 3):
            shifted = [(x + k) % p for x in range(1, h + 1)]
            freq = Counter(
                math.prod(t) % p for t in itertools.product(shifted, repeat=nu) if 0 not in t
            )
            assert count_product_pairs_brute(ctx, nu, h, k).value == sum(c * c for c in freq.values())

    def test_tuple_count_guard_rejects_before_allocating(self):
        # 1449^3 > isqrt(2^63 - 1) = 3037000499 tuples.
        with pytest.raises(TooLargeError):
            counts._pair_count([np.ones(1449, dtype=np.int64)] * 3, 7)


REFLECTION_PRIMES = [q for q in range(3, 1010) if is_prime(q)]


@st.composite
def _reflection_case(draw):
    p = draw(st.sampled_from(REFLECTION_PRIMES))
    return p, draw(st.integers(1, 3)), draw(st.integers(1, min(8, p - 1))), draw(st.integers(-3 * p, 3 * p))


class TestProductPairsReflection:
    @settings(max_examples=200, deadline=None)
    @given(_reflection_case())
    def test_reflected_shift_counts_the_same(self, case):
        # x -> -x maps [k+1, k+h] onto [k'+1, k'+h] with k' = -k-h-1 = p-1-h-k mod p,
        # and multiplies every nu-fold product by (-1)^nu, so the pairs correspond exactly.
        p, nu, h, k = case
        ctx = build_context(p)
        assert count_product_pairs_brute(ctx, nu, h, k) == count_product_pairs_brute(ctx, nu, h, p - 1 - h - k)


class TestProductPairsSpectral:
    def test_matches_brute_pinned(self, ctx5):
        assert count_product_pairs_spectral(ctx5, 2, 2, 0).value == 6

    def test_full_interval_diagonal_only(self, ctx7):
        # h = p-1: each nonzero residue hit once, so only diagonal pairs.
        assert count_product_pairs_spectral(ctx7, 1, 6, 0).value == 6

    @pytest.mark.parametrize("p", PRIMES)
    def test_identity_against_brute(self, p):
        ctx = build_context(p)
        for nu in (1, 2, 3):
            for h in range(1, min(p, 8)):
                for k in (0, 1, -1, p // 2):
                    brute = count_product_pairs_brute(ctx, nu, h, k).value
                    spectral = count_product_pairs_spectral(ctx, nu, h, k).value
                    assert spectral == brute


class TestMonomialPairsBrute:
    def test_unit_exponents_specialize(self, ctx7):
        got = count_monomial_pairs_brute(ctx7, ExponentVector((1, 1)), Box((0, 0), (3, 3)))
        assert got.value == count_product_pairs_brute(ctx7, 2, 3, 0).value

    def test_squares_distinct(self, ctx7):
        # Squares of 1..3 are 1, 4, 2 mod 7 — all distinct, diagonal only.
        got = count_monomial_pairs_brute(ctx7, ExponentVector((2,)), Box((0,), (3,)))
        assert got.value == 3

    def test_cubes_pinned(self, ctx7):
        # Cubes mod 7 land in {1, 6}, each hit three times: 9 + 9 = 18.
        got = count_monomial_pairs_brute(ctx7, ExponentVector((3,)), Box((0,), (6,)))
        assert got.value == 18

    def test_dimension_mismatch(self, ctx7):
        with pytest.raises(ValueError):
            count_monomial_pairs_brute(ctx7, ExponentVector((1, 1)), Box((0, 0), (3,)))

    def test_matches_double_loop_oracle(self, ctx7):
        def slow(e, h, k):
            p = 7
            def val(x):
                acc = 1
                for xj, hj, kj, ej in zip(x, h, k, e):
                    r = (xj + kj) % p
                    if r == 0:
                        return 0
                    acc = acc * pow(r, ej % 6, p) % p
                return acc

            boxes = [range(1, hj + 1) for hj in h]
            vals = [val(x) for x in itertools.product(*boxes)]
            return sum(
                1 for a in vals for b in vals if a == b and a != 0
            )

        for e in ((1, -1), (2, 3), (-2, -2)):
            got = count_monomial_pairs_brute(ctx7, ExponentVector(e), Box((0, 1), (3, 4)))
            assert got.value == slow(e, (3, 4), (0, 1))

    @staticmethod
    def _pow_oracle(p, e, h, k):
        """Pairs with equal nonzero values by a double loop over Python's `pow`, which inverts mod p."""
        vals = []
        for x in itertools.product(*(range(1, hj + 1) for hj in h)):
            r = [(xj + kj) % p for xj, kj in zip(x, k)]
            if 0 not in r:
                vals.append(math.prod(pow(rj, ej, p) for rj, ej in zip(r, e)) % p)
        return sum(1 for a in vals for b in vals if a == b)

    @pytest.mark.parametrize("p", [5, 13, 101])
    def test_matches_pow_oracle_at_huge_corners_and_exponents(self, p):
        ctx = build_context(p)
        big = 2**31 - 1
        corners = ((2**64 + 3, -(2**64) - 7), (-(2**70) + p - 2, 2**65 * p + 1), (-1, p * 2**64))
        for e in ((big, -big), (-big, 1), (2, big)):
            for k in corners:
                for h in ((3, 4), (min(p - 1, 6), 1)):
                    got = count_monomial_pairs_brute(ctx, ExponentVector(e), Box(k, h)).value
                    assert got == self._pow_oracle(p, e, h, k), (p, e, h, k)

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_multiple_of_p_at_every_position(self, p):
        ctx = build_context(p)
        for h in (1, 2, p - 1):
            for i in range(h):
                k = -1 - i  # the point p of [k+1, k+h] sits at position i
                for e in ((1, -1), (3, 2)):
                    box_k = (k, k + 2 * p)
                    got = count_monomial_pairs_brute(ctx, ExponentVector(e), Box(box_k, (h, h))).value
                    assert got == self._pow_oracle(p, e, (h, h), box_k), (p, h, i, e)
                for nu in (1, 2):
                    want = _oracle_product_pairs(p, nu, h, k)
                    assert count_product_pairs_brute(ctx, nu, h, k).value == want
                    assert count_product_pairs_spectral(ctx, nu, h, k).value == want


class TestProductInequality:
    def test_unit_exponents_equality(self, ctx7):
        rep = product_inequality_report(ctx7, ExponentVector((1, 1)), Box((0, 0), (3, 3)))
        assert rep.holds_plain and rep.holds_gcd
        assert rep.lhs <= rep.rhs_plain + 1e-9

    def test_gcd_factor_monotone(self, ctx7):
        rep = product_inequality_report(ctx7, ExponentVector((3, 3)), Box((0, 0), (3, 3)))
        assert rep.gcds == (3, 3)
        assert rep.rhs_gcd >= rep.rhs_plain * 3 - 1e-9

    def test_known_plain_violation_still_bounded_by_gcd(self):
        # At p=5, e=(2,2), h=(3,3), k=(0,0) the plain geometric-mean form
        # fails (J = 41 > 21) while the gcd form holds (41 <= 42).
        ctx = build_context(5)
        rep = product_inequality_report(ctx, ExponentVector((2, 2)), Box((0, 0), (3, 3)))
        assert rep.lhs == 41
        assert not rep.holds_plain
        assert rep.holds_gcd

    def test_supplied_plain_counts_give_the_same_report(self, ctx7):
        e, h, k = ExponentVector((2, -1)), (3, 4), (0, 1)
        counted = product_inequality_report(ctx7, e, Box(k, h))
        i_counts = [count_product_pairs_brute(ctx7, 2, h_j, k_j).value for h_j, k_j in zip(h, k)]
        assert product_inequality_report(ctx7, e, Box(k, h), i_counts) == counted
        assert counted.i_counts == tuple(i_counts)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_gcd_form_holds_on_sample(self, p):
        ctx = build_context(p)
        for e in itertools.product((-2, -1, 1, 2, 3), repeat=2):
            rep = product_inequality_report(ctx, ExponentVector(e), Box((0, 1), (3, 3)))
            assert rep.holds_gcd, f"p={p}, e={e}"
