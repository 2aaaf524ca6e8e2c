import cmath
import math

import numpy as np
import pytest

from boxsums.characters import MultChar
from boxsums.errors import (
    DimensionTooSmallError,
    LambdaDivisibleError,
    PrincipalCharacterError,
)
from boxsums.modular import ExponentVector, build_context, monomial_eval
from boxsums.sampling import draw_spec, substream
from boxsums.sums import (
    Box,
    PhaseWeights,
    SumSpec,
    TableWeights,
    UnitWeights,
    agreement_tolerance,
    cauchy_majorant,
    character_sum_naive,
    character_sum_split,
    holder_majorant,
    kloosterman_sum,
    monomial_sum_bilinear,
    monomial_sum_naive,
    monomial_value_distribution,
)


@pytest.fixture(scope="module")
def ctx5():
    return build_context(5)


@pytest.fixture(scope="module")
def ctx7():
    return build_context(7)


def _spec(ctx, k, h, e, weights=None, lam=1):
    return SumSpec(
        ctx=ctx,
        box=Box(tuple(k), h),
        e=ExponentVector(tuple(e)),
        weights=weights or UnitWeights(),
        lam=lam,
    )


class TestSpecValidation:
    def test_dimension_mismatch(self, ctx5):
        with pytest.raises(ValueError):
            _spec(ctx5, (0, 0), 2, (1,))

    def test_h_not_below_p(self, ctx5):
        with pytest.raises(ValueError):
            _spec(ctx5, (0,), 5, (1,))

    def test_weight_dimension_mismatch(self, ctx5):
        with pytest.raises(ValueError):
            _spec(ctx5, (0, 0), 2, (1, 1), weights=PhaseWeights((1,)))

    def test_table_weight_modulus_cap(self):
        with pytest.raises(ValueError):
            TableWeights([[1.5, 0.0]])


class TestValueDistribution:
    def test_identity_monomial(self, ctx7):
        spec = _spec(ctx7, (0,), 3, (1,))
        d = monomial_value_distribution(spec).values
        assert np.allclose(d, [0, 1, 1, 1, 0, 0, 0])

    def test_inverse_monomial(self, ctx5):
        spec = _spec(ctx5, (0,), 2, (-1,))
        d = monomial_value_distribution(spec).values
        # inv(1)=1, inv(2)=3
        assert np.allclose(d, [0, 1, 0, 1, 0])

    def test_two_coordinate_products(self, ctx5):
        spec = _spec(ctx5, (0, 0), 2, (1, 1))
        d = monomial_value_distribution(spec).values
        # products over {1,2}^2: 1 once, 2 twice, 4 once
        assert np.allclose(d, [0, 1, 2, 0, 1])

    def test_zero_mass_at_zero(self, ctx7):
        spec = _spec(ctx7, (5, 5), 3, (1, 1))  # intervals contain 7 = 0 mod 7
        d = monomial_value_distribution(spec).values
        assert d[0] == 0


class TestMonomialSumNaive:
    def test_lambda_zero_counts_terms(self, ctx7):
        spec = _spec(ctx7, (0, 0), 3, (1, 1), lam=0)
        res = monomial_sum_naive(spec)
        assert res.terms == 9
        assert cmath.isclose(res.value, 9, abs_tol=1e-12)

    def test_pinned_two_dim_value(self, ctx5):
        # e_5(1) + 2*e_5(2) + e_5(4) over the {1,2}^2 box.
        spec = _spec(ctx5, (0, 0), 2, (1, 1), lam=1)
        res = monomial_sum_naive(spec)
        assert cmath.isclose(res.value, -1.0 + 1.1755705045849463j, abs_tol=1e-9)
        assert res.terms == 4

    def test_empty_box(self, ctx5):
        spec = _spec(ctx5, (4,), 1, (1,))  # single point 5 = 0 mod 5
        res = monomial_sum_naive(spec)
        assert res.value == 0
        assert res.terms == 0

    def test_matches_scalar_enumeration(self, ctx7):
        import itertools

        spec = _spec(ctx7, (1, 3), 3, (2, -1), weights=PhaseWeights((1, 2)), lam=3)
        want = 0j
        for x1, x2 in itertools.product(range(2, 5), range(4, 7)):
            if x1 % 7 == 0 or x2 % 7 == 0:
                continue
            m = monomial_eval(ctx7, (x1, x2), spec.e)
            w = cmath.exp(2j * cmath.pi * (x1 + 2 * x2) / 7)
            want += w * cmath.exp(2j * cmath.pi * (3 * m % 7) / 7)
        got = monomial_sum_naive(spec).value
        assert abs(got - want) < 1e-12


class TestMonomialSumBilinear:
    def test_needs_two_dims(self, ctx5):
        with pytest.raises(DimensionTooSmallError):
            monomial_sum_bilinear(_spec(ctx5, (0,), 2, (1,)))

    def test_agrees_with_naive_pinned(self, ctx5):
        spec = _spec(ctx5, (0, 0), 2, (1, 1), lam=1)
        naive = monomial_sum_naive(spec)
        fast = monomial_sum_bilinear(spec)
        assert abs(naive.value - fast.value) < agreement_tolerance(naive.terms)
        assert naive.terms == fast.terms

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_naive_random(self, p, n):
        ctx = build_context(p)
        for trial in range(10):
            rng = substream(123, p, n, trial)
            kind = ("unit", "phase", "table")[trial % 3]
            spec = draw_spec(rng, ctx, n, 3, [-2, -1, 1, 2], kind)
            naive = monomial_sum_naive(spec)
            fast = monomial_sum_bilinear(spec)
            assert abs(naive.value - fast.value) < agreement_tolerance(naive.terms)
            assert naive.terms == fast.terms

    def test_lambda_zero_factorizes(self, ctx7):
        spec = _spec(ctx7, (0, 1), 3, (1, -1), lam=0)
        d1 = monomial_value_distribution(spec, 0, 1).values.sum()
        d2 = monomial_value_distribution(spec, 1, 2).values.sum()
        got = monomial_sum_bilinear(spec).value
        assert abs(got - d1 * d2) < 1e-9


class TestKloosterman:
    def test_complete_one_dim(self, ctx5):
        # Over all nonzero x, sum of e_5(inv(x)) = sum over nonzero y = -1.
        res = kloosterman_sum(ctx5, Box((0,), 4), lam=1, lam_vec=(0,))
        assert cmath.isclose(res.value, -1.0, abs_tol=1e-10)

    def test_equals_monomial_specialization(self, ctx7):
        box = Box((0, 0), 3)
        viaK = kloosterman_sum(ctx7, box, 1, (1, 2))
        spec = SumSpec(ctx7, box, ExponentVector((-1, -1)), PhaseWeights((1, 2)), 1)
        viaS = monomial_sum_naive(spec)
        assert viaK.value == viaS.value
        assert viaK.terms == viaS.terms

    def test_phase_vector_dimension_checked(self, ctx7):
        with pytest.raises(ValueError):
            kloosterman_sum(ctx7, Box((0, 0), 2), 1, (1,))


class TestCharacterSums:
    def test_principal_counts_admissible_tuples(self, ctx7):
        spec = _spec(ctx7, (0, 0), 3, (1, 1), lam=1)
        chi = MultChar(ctx7, 0)
        res = character_sum_naive(spec, chi)
        import itertools

        want = sum(
            1
            for x in itertools.product(range(1, 4), repeat=2)
            if (x[0] * x[1] + 1) % 7 != 0
        )
        assert cmath.isclose(res.value, want, abs_tol=1e-12)

    def test_complete_nonprincipal_vanishes(self, ctx7):
        spec = _spec(ctx7, (0,), 6, (1,), lam=0)
        chi = MultChar(ctx7, 3)
        assert abs(character_sum_naive(spec, chi).value) < 1e-10

    def test_frozen_two_dim_value(self, ctx7):
        # Frozen oracle: direct enumeration over the 4 tuples gives 0.
        spec = _spec(ctx7, (0, 0), 2, (1, -1), lam=1)
        chi = MultChar(ctx7, 3)
        assert abs(character_sum_naive(spec, chi).value) < 1e-12

    def test_split_needs_two_dims(self, ctx7):
        with pytest.raises(DimensionTooSmallError):
            character_sum_split(_spec(ctx7, (0,), 2, (1,)), MultChar(ctx7, 1))

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_split_agrees_with_naive(self, p, n):
        ctx = build_context(p)
        for trial in range(10):
            rng = substream(321, p, n, trial)
            kind = ("unit", "phase", "table")[trial % 3]
            spec = draw_spec(rng, ctx, n, 3, [-2, -1, 1, 2], kind)
            chi = MultChar(ctx, int(rng.integers(0, p - 1)))
            naive = character_sum_naive(spec, chi)
            fast = character_sum_split(spec, chi)
            assert abs(naive.value - fast.value) < agreement_tolerance(naive.terms)


class TestSupportRestriction:
    """Bilinear and split contract only over the support of d1 / d0."""

    @staticmethod
    def _assert_agree(spec, chi):
        naive = monomial_sum_naive(spec)
        fast = monomial_sum_bilinear(spec)
        assert fast.terms == naive.terms
        assert abs(naive.value - fast.value) < agreement_tolerance(naive.terms)
        naive = character_sum_naive(spec, chi)
        fast = character_sum_split(spec, chi)
        assert fast.terms == naive.terms
        assert abs(naive.value - fast.value) < agreement_tolerance(naive.terms)

    def test_full_support(self):
        ctx = build_context(101)
        spec = _spec(ctx, (0, 0), 100, (1, 3), lam=17)
        assert np.count_nonzero(monomial_value_distribution(spec, 0, 1).values) == 100
        self._assert_agree(spec, MultChar(ctx, 7))

    @pytest.mark.parametrize("n", [2, 3])
    def test_box_with_multiples_of_p(self, n):
        ctx = build_context(11)
        spec = _spec(ctx, (5, 9, 20)[:n], 10, (2, -1, 1)[:n], lam=3)
        assert monomial_sum_naive(spec).terms == 9**n
        self._assert_agree(spec, MultChar(ctx, 4))

    @pytest.mark.parametrize("n", [2, 3])
    def test_cancelling_weights_leave_exact_zeros(self, n):
        # x and 13-x have the same square: weights 1 and -1 cancel exactly
        # at the squares of 4, 5, 6, and the first-coordinate mass there is 0.
        ctx = build_context(13)
        first = [1.0] * 6 + [-1.0, -1.0, -1.0, 0.5, 0.5, 0.5]
        tables = [first] + [[0.6 + 0.8j if x % 2 else 1.0 for x in range(12)]] * (n - 1)
        spec = _spec(ctx, (0,) * n, 12, (2,) + (1,) * (n - 1), TableWeights(tables), lam=5)
        d = monomial_value_distribution(spec, 0, 1).values
        assert all(d[x * x % 13] == 0 for x in (4, 5, 6))
        self._assert_agree(spec, MultChar(ctx, 5))


@pytest.fixture(scope="module")
def ctx_large():
    return build_context(1000003)


class TestLambdaReduction:
    @pytest.mark.parametrize("shift", [2**33, 2**64, 2**200, -7], ids=["2^33", "2^64", "2^200", "-7"])
    def test_shift_by_multiple_of_p(self, ctx_large, shift):
        # Unreduced, lam = 5 + p * 2**33 makes the int64 products
        # lam * residue wrap around.
        ctx, p = ctx_large, ctx_large.p
        chi = MultChar(ctx, 3)
        base = _spec(ctx, (3, 40), 50, (2, 3), lam=5)
        shifted = _spec(ctx, (3, 40), 50, (2, 3), lam=5 + p * shift)
        assert shifted.lam == 5
        for evaluate in (monomial_sum_naive, monomial_sum_bilinear):
            assert evaluate(shifted).value == evaluate(base).value
        for evaluate in (character_sum_naive, character_sum_split):
            assert evaluate(shifted, chi).value == evaluate(base, chi).value
        naive, fast = monomial_sum_naive(base), monomial_sum_bilinear(base)
        assert abs(naive.value - (2.1844 - 6.5830j)) < 1e-3
        assert abs(naive.value - fast.value) < agreement_tolerance(naive.terms)

    @pytest.mark.parametrize("shift", [2**45, 2**70], ids=["2^45", "2^70"])
    def test_phase_shift_by_multiple_of_p(self, shift):
        # Unreduced, lambda_1 * x wraps int64 at 2**45 and overflows at 2**70.
        ctx = build_context(10007)
        p, k = ctx.p, (40, 3)
        chi = MultChar(ctx, 3)
        base = _spec(ctx, k, 20, (1, -1), PhaseWeights((5, 7)))
        shifted = _spec(ctx, k, 20, (1, -1), PhaseWeights((5 + p * shift, 7)))
        for evaluate in (monomial_sum_naive, monomial_sum_bilinear):
            assert evaluate(shifted).value == evaluate(base).value
        for evaluate in (character_sum_naive, character_sum_split):
            assert evaluate(shifted, chi).value == evaluate(base, chi).value
        box = Box(k, 20)
        assert (
            kloosterman_sum(ctx, box, 1, (5 + p * shift, 7)).value
            == kloosterman_sum(ctx, box, 1, (5, 7)).value
        )
        assert abs(monomial_sum_naive(base).value - (-2.5531 - 3.1322j)) < 1e-3


class TestCauchyMajorant:
    def test_single_tuple(self, ctx5):
        spec = _spec(ctx5, (0, 0), 1, (1, 1))
        assert abs(cauchy_majorant(spec) - math.sqrt(5)) < 1e-12

    def test_pinned_value(self, ctx5):
        spec = _spec(ctx5, (0, 0), 2, (1, 1), lam=1)
        assert abs(cauchy_majorant(spec) - math.sqrt(5 * 2 * 2)) < 1e-12
        assert cauchy_majorant(spec) >= abs(monomial_sum_naive(spec).value)

    def test_lambda_divisible_rejected(self, ctx5):
        with pytest.raises(LambdaDivisibleError):
            cauchy_majorant(_spec(ctx5, (0, 0), 2, (1, 1), lam=5))

    def test_dominates_randomly(self):
        for p in (7, 11, 13):
            ctx = build_context(p)
            for trial in range(40):
                rng = substream(99, p, trial)
                n = int(rng.integers(2, 5))
                spec = draw_spec(rng, ctx, n, 3, [-2, -1, 1, 2], "table")
                naive = monomial_sum_naive(spec)
                assert abs(naive.value) <= cauchy_majorant(spec) + agreement_tolerance(
                    naive.terms
                )


class TestHolderMajorant:
    def test_principal_rejected(self, ctx7):
        with pytest.raises(PrincipalCharacterError):
            holder_majorant(_spec(ctx7, (0, 0), 2, (1, 1)), MultChar(ctx7, 0), 1)

    def test_lambda_divisible_rejected(self, ctx7):
        with pytest.raises(LambdaDivisibleError):
            holder_majorant(_spec(ctx7, (0, 0), 2, (1, 1), lam=0), MultChar(ctx7, 1), 1)

    def test_bad_r(self, ctx7):
        with pytest.raises(ValueError):
            holder_majorant(_spec(ctx7, (0, 0), 2, (1, 1)), MultChar(ctx7, 1), 0)

    def test_dominates_randomly(self):
        for p in (7, 11, 13):
            ctx = build_context(p)
            for trial in range(25):
                rng = substream(77, p, trial)
                n = int(rng.integers(2, 5))
                spec = draw_spec(rng, ctx, n, 3, [-2, -1, 1, 2], "table")
                chi = MultChar(ctx, int(rng.integers(1, p - 1)))
                naive = character_sum_naive(spec, chi)
                tol = agreement_tolerance(naive.terms)
                for r in (1, 2, 3):
                    assert abs(naive.value) <= holder_majorant(spec, chi, r) + tol


class TestConjugation:
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_negating_lambda_conjugates(self, p):
        ctx = build_context(p)
        for trial in range(10):
            rng = substream(55, p, trial)
            spec = draw_spec(rng, ctx, 2, 3, [-2, -1, 1, 2], "unit")
            mirrored = SumSpec(ctx, spec.box, spec.e, UnitWeights(), p - spec.lam)
            a = monomial_sum_naive(spec)
            b = monomial_sum_naive(mirrored)
            assert abs(b.value - a.value.conjugate()) < agreement_tolerance(a.terms)
