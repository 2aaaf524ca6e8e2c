import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

from boxsums.characters import MultChar, char_interval_sum, char_moment
from boxsums.counts import (
    count_monomial_pairs_brute,
    count_product_pairs_brute,
    count_product_pairs_spectral,
)
from boxsums.errors import (
    DimensionTooSmallError,
    LambdaDivisibleError,
    PrincipalCharacterError,
)
from boxsums.modular import ExponentVector, box_powers, build_context, monomial_eval
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

    @pytest.mark.parametrize("weights", [None, PhaseWeights((1, 2))])
    def test_unequal_sides_refused(self, ctx7, weights):
        # The weight systems build one n x h table, so a sum's box must be a cube.
        with pytest.raises(ValueError, match="cube"):
            _spec(ctx7, (0, 0), (2, 3), (1, 1), weights=weights)
        assert _spec(ctx7, (0, 0), (3, 3), (1, 1)).box.sides == (3, 3)

    def test_table_weight_modulus_cap(self):
        with pytest.raises(ValueError):
            TableWeights([[1.5, 0.0]])

    @pytest.mark.parametrize("bad", [math.nan, complex(math.nan, 0.0), complex(0.0, math.nan), math.inf])
    def test_table_weight_nan_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\|rho\(x\)\| <= 1"):
            TableWeights([[0.5, 1.0], [bad, 0.25]])


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

    @staticmethod
    def _add_at_reference(spec, lo, hi):
        """Every tuple's partial monomial and weight product, added into a dense array one by one."""
        p, data = spec.ctx.p, spec.coordinates[lo:hi]
        vals, wts = np.ones(1, dtype=np.int64), np.ones(1, dtype=np.complex128)
        for pv, w in data:
            vals, wts = np.multiply.outer(vals, pv).ravel() % p, np.multiply.outer(wts, w).ravel()
        dense = np.zeros(p, dtype=np.complex128)
        np.add.at(dense, vals, wts)
        return dense, len(vals)

    # (p, k, h, e, weights, merged): merged when the entries outnumber p.
    CASES = {
        "multiples-of-p": (11, (5, 9, 20), 10, (2, -1, 1), None, True),
        "multiples-of-p-one-coordinate": (11, (5,), 10, (2,), None, False),
        "cancelling-table": (13, (0, 0), 12, (2, 1), "cancel", True),
        "cancelling-table-first": (13, (0,), 12, (2,), "cancel", False),
        "p10007-n7": (10007, (3, 1000, 5000, 9990, 0, 77, 10004), 5, (1, -1, 2, 1, -2, 3, 1), None, True),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_add_at_reference(self, case):
        p, k, h, e, weights, merged = self.CASES[case]
        if weights == "cancel":
            # x and 13-x share a square: weights 1 and -1 cancel exactly at 4^2, 5^2, 6^2.
            first = [1.0] * 6 + [-1.0, -1.0, -1.0, 0.5, 0.5, 0.5]
            weights = TableWeights([first] + [[0.6 + 0.8j] * 12] * (len(k) - 1))
        spec = _spec(build_context(p), k, h, e, weights, lam=3)
        for lo, hi in ((0, spec.n), (0, spec.n // 2), (spec.n // 2, spec.n)):
            if lo == hi:
                continue
            dist = monomial_value_distribution(spec, lo, hi)
            want, tuples = self._add_at_reference(spec, lo, hi)
            assert np.array_equal(dist.values, want)
            if (lo, hi) == (0, spec.n):
                # Merged entries sit one per residue with nonzero mass; unmerged ones one per tuple.
                assert (tuples > p) == merged
                if merged:
                    assert np.array_equal(dist.points, np.flatnonzero(want))
                else:
                    assert len(dist.points) == tuples


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

    @pytest.mark.parametrize("k", [(6, 0), (0, 6)], ids=["first-half-empty", "second-half-empty"])
    def test_empty_half_gives_zero(self, ctx7, k):
        # With h = 1 the side [7, 7] holds only the multiple 7 of p, so that half has no support.
        spec = _spec(ctx7, k, 1, (1, 1), lam=3)
        naive, fast = monomial_sum_naive(spec), monomial_sum_bilinear(spec)
        assert fast.value == 0
        assert fast.terms == naive.terms == 0

    # p = 1009, n = 4, h = 15: the entries of d1 times those of d2 exceed support_sum_limit's
    # 2 * p * ceil(log2 p), so the FFT runs; p = 10007, n = 2, h = 158: they stay below, so the
    # spectrum is summed over the entries of d2.
    @pytest.mark.parametrize("p, n, h, fft_calls", [(1009, 4, 15, 1), (10007, 2, 158, 0)])
    def test_agrees_with_naive_on_each_branch(self, p, n, h, fft_calls, monkeypatch):
        from boxsums import characters

        calls, fft = [], characters._spectrum_fast
        monkeypatch.setattr(characters, "_spectrum_fast", lambda dist: calls.append(1) or fft(dist))
        ctx = build_context(p)
        for trial, kind in enumerate(("unit", "phase", "table")):
            spec = draw_spec(substream(7, p, n, trial), ctx, n, h, [-3, -2, -1, 1, 2, 3], kind)
            naive, fast = monomial_sum_naive(spec), monomial_sum_bilinear(spec)
            assert abs(naive.value - fast.value) < agreement_tolerance(naive.terms)
            assert naive.terms == fast.terms
            assert len(calls) == fft_calls * (trial + 1)

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


class TestCharacterSumRecount:
    """Split (sparse and dense) and naive T against a cmath recount at the offset extremes
    lam = 1 and lam = p - 1, where the gathers read the character table at its two ends."""

    # (p, n, h, dense): at p = 101 (dense_fold_limit 50) whether the split contracts densely.
    CASES = [(31, 2, 5, False), (31, 3, 10, True), (101, 2, 30, False), (101, 2, 60, True), (101, 3, 10, True)]

    @staticmethod
    def _recount(spec, a):
        p, g = spec.ctx.p, spec.ctx.g
        ind = {pow(g, i, p): i for i in range(p - 1)}
        rows = [[(k_j + x) % p for x in range(1, spec.box.sides[j] + 1)] for j, k_j in enumerate(spec.box.k)]
        total = 0j
        for tup in itertools.product(*rows):
            if 0 in tup:
                continue
            v = (math.prod(pow(x, e_j, p) for x, e_j in zip(tup, spec.e.e)) + spec.lam) % p
            if v:
                total += cmath.exp(2j * cmath.pi * (a * ind[v] % (p - 1)) / (p - 1))
        return total

    @pytest.mark.parametrize("p, n, h, dense", CASES)
    def test_split_and_naive_match_recount(self, p, n, h, dense, monkeypatch):
        from boxsums import sums

        rotations, calls = sums._rotations, []
        monkeypatch.setattr(sums, "_rotations", lambda a, shifts: calls.append(len(shifts)) or rotations(a, shifts))
        ctx = build_context(p)
        k = tuple(range(n)) if n * h < p else (0,) * n
        rng = np.random.default_rng(p * n + h)
        for lam in (1, p - 1):
            spec = _spec(ctx, k, h, (1, -1, 2)[:n], lam=lam)
            for a in (1, (p - 1) // 2, int(rng.integers(2, p - 1))):
                chi = MultChar(ctx, a)
                want = self._recount(spec, a)
                calls.clear()
                split = character_sum_split(spec, chi)
                assert bool(calls) == dense
                naive = character_sum_naive(spec, chi)
                tol = agreement_tolerance(naive.terms)
                assert abs(split.value - want) < tol and abs(naive.value - want) < tol, (lam, a)


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


class TestSplitFold:
    """character_sum_split folds coordinates 0..n-2 on (value, mass) entries while
    they number at most dense_fold_limit(p), then on one dense array over the
    index domain, where each later fold point, the contraction too, is a sum of
    rotations."""

    # (n, h, outnumber): at p = 31 (limit 15), whether the entries outnumber the
    # limit at each fold point (coordinates 1..n-1), that is, whether it runs dense.
    CASES = [
        (2, 5, [False]),
        (2, 30, [True]),
        (3, 5, [False, True]),
        (3, 10, [False, True]),
        (5, 2, [False, False, False, True]),
        (5, 3, [False, False, True, True]),
        (5, 6, [False, True, True, True]),
        (3, 16, [True, True]),
        (4, 2, [False, False, False]),
    ]
    # The same at p = 1009 (limit 504): dense at the contraction only, from the
    # middle of the fold, from the first fold, and never.
    CASES_1009 = [
        (2, 600, [True]),
        (3, 30, [False, True]),
        (4, 23, [False, True, True]),
        (5, 8, [False, False, True, True]),
        (3, 505, [True, True]),
        (4, 7, [False, False, False]),
    ]
    # Above this many terms (505^3 at p = 1009) only the dense contraction checks the split.
    NAIVE_TERMS = 10**6

    @staticmethod
    def _dense_contraction(spec, chi):
        p = spec.ctx.p
        d0 = monomial_value_distribution(spec, 0, spec.n - 1).values
        pv, w = spec.coordinates[-1]
        u = np.arange(p, dtype=np.int64)
        return d0 @ (chi.table()[(np.outer(u, pv) + spec.lam) % p] @ w)

    def _check(self, p, n, h, outnumber, monkeypatch):
        from boxsums import sums

        rotations, calls = sums._rotations, []

        def spy(a, shifts):
            assert len(a) == p - 1
            calls.append(len(shifts))
            return rotations(a, shifts)

        monkeypatch.setattr(sums, "_rotations", spy)
        ctx = build_context(p)
        k = (0,) * n if h == p - 1 else tuple(2 * j for j in range(n))
        weights = (
            UnitWeights(),
            PhaseWeights([3 * j + 1 for j in range(n)]),
            TableWeights([[0.6 + 0.8j if x % 3 else -0.5 for x in range(h)]] * n),
        )
        for trial, rho in enumerate(weights):
            for lam in (0, 5 + trial):
                spec = _spec(ctx, k, h, (2, -1, 1, 3, -2)[:n], rho, lam=lam)
                for a in (0, 7, (p - 1) // 2):
                    chi = MultChar(ctx, a)
                    calls.clear()
                    fast = character_sum_split(spec, chi)
                    # One rotation per point of each fold point that runs dense.
                    assert calls == [h] * sum(outnumber)
                    assert fast.terms == h**n
                    tol = agreement_tolerance(fast.terms)
                    assert abs(fast.value - self._dense_contraction(spec, chi)) < tol
                    if h**n <= self.NAIVE_TERMS:
                        naive = character_sum_naive(spec, chi)
                        assert naive.terms == fast.terms
                        assert abs(fast.value - naive.value) < tol

    @pytest.mark.parametrize("n, h, outnumber", CASES)
    def test_agrees_with_naive_and_dense(self, n, h, outnumber, monkeypatch):
        self._check(31, n, h, outnumber, monkeypatch)

    @pytest.mark.parametrize("n, h, outnumber", CASES_1009)
    def test_agrees_with_naive_and_dense_at_1009(self, n, h, outnumber, monkeypatch):
        self._check(1009, n, h, outnumber, monkeypatch)


@pytest.fixture(scope="module")
def ctx1009():
    return build_context(1009)


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

    # Multiples s of p added to integer arguments. Unreduced, u*x and the
    # corners wrap int64 from about 2**62 on and overflow beyond 2**63.
    SHIFTS = [2**53, 2**62 // 1009, 2**64, 2**200, -(2**70)]
    SHIFT_IDS = ["2^53", "2^62/1009", "2^64", "2^200", "-2^70"]

    @pytest.mark.parametrize("shift", SHIFTS, ids=SHIFT_IDS)
    def test_corner_shift_by_multiple_of_p(self, ctx1009, shift):
        ctx, s = ctx1009, ctx1009.p * shift
        chi = MultChar(ctx, 5)
        tables = [np.exp(0.3j * np.arange(20) * (j + 1)) * 0.9 for j in range(3)]
        # The second side [1001, 1020] holds the multiple 1009 of p.
        for weights in (UnitWeights(), PhaseWeights((5, 7, 11)), TableWeights(tables)):
            base = _spec(ctx, (3, 1000, 40), 20, (2, -1, 3), weights, lam=7)
            shifted = _spec(ctx, (3 + s, 1000 - s, 40 + s), 20, (2, -1, 3), weights, lam=7)
            assert shifted.box.k == (3 + s, 1000 - s, 40 + s)
            for evaluate in (monomial_sum_naive, monomial_sum_bilinear):
                assert evaluate(shifted) == evaluate(base)
            for evaluate in (character_sum_naive, character_sum_split):
                assert evaluate(shifted, chi) == evaluate(base, chi)
            assert cauchy_majorant(shifted) == cauchy_majorant(base)
            assert holder_majorant(shifted, chi, (2,)) == holder_majorant(base, chi, (2,))
        assert monomial_sum_bilinear(base).terms == 20 * 19 * 20

    @pytest.mark.parametrize("shift", SHIFTS, ids=SHIFT_IDS)
    def test_char_sum_argument_shift_by_multiple_of_p(self, ctx1009, shift):
        ctx, s = ctx1009, ctx1009.p * shift
        chi = MultChar(ctx, 5)
        rho = np.exp(0.7j * np.arange(7))
        base = char_interval_sum(chi, 5, 7, 3, 2)
        assert abs(base - (-0.1883 + 0.2226j)) < 1e-3
        for k, u, lam in ((5 + s, 3, 2), (5, 3 + s, 2), (5, 3, 2 + s), (5 - s, 3 + s, 2 - s)):
            assert char_interval_sum(chi, k, 7, u, lam) == base
            assert char_interval_sum(chi, k, 7, u, lam, rho) == char_interval_sum(chi, 5, 7, 3, 2, rho)
        moment = char_moment(chi, 5, 7, 2)
        assert abs(moment - 6995.62) < 1e-2
        assert char_moment(chi, 5 + s, 7, 2 + s) == moment
        assert char_moment(chi, 5 - s, 7, 2, rho, r=2) == char_moment(chi, 5, 7, 2, rho, r=2)

    @pytest.mark.parametrize("shift", SHIFTS, ids=SHIFT_IDS)
    def test_count_shift_by_multiple_of_p(self, ctx1009, shift):
        ctx, s = ctx1009, ctx1009.p * shift
        for k in (3, 1000):
            for count in (count_product_pairs_brute, count_product_pairs_spectral):
                assert count(ctx, 2, 12, k + s) == count(ctx, 2, 12, k)
        e = ExponentVector((2, -1))
        assert count_monomial_pairs_brute(ctx, e, Box((3 + s, 1000 - s), (12, 9))) == (
            count_monomial_pairs_brute(ctx, e, Box((3, 1000), (12, 9)))
        )


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
            holder_majorant(_spec(ctx7, (0, 0), 2, (1, 1)), MultChar(ctx7, 0), (1,))

    def test_lambda_divisible_rejected(self, ctx7):
        with pytest.raises(LambdaDivisibleError):
            holder_majorant(_spec(ctx7, (0, 0), 2, (1, 1), lam=0), MultChar(ctx7, 1), (1,))

    def test_bad_r(self, ctx7):
        with pytest.raises(ValueError):
            holder_majorant(_spec(ctx7, (0, 0), 2, (1, 1)), MultChar(ctx7, 1), (0,))

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
                    assert abs(naive.value) <= holder_majorant(spec, chi, (r,))[0] + tol

    @pytest.mark.parametrize("kind", ["unit", "phase", "table"])
    def test_orders_at_once_match_single_orders(self, kind):
        for p in (5, 13, 101):
            ctx = build_context(p)
            for trial in range(10):
                rng = substream(78, p, trial)
                spec = draw_spec(rng, ctx, int(rng.integers(2, 5)), 3, [-2, -1, 1, 2], kind)
                chi = MultChar(ctx, int(rng.integers(1, p - 1)))
                together = holder_majorant(spec, chi, (1, 2, 3))
                assert len(together) == 3
                for r, got in zip((1, 2, 3), together):
                    assert got == pytest.approx(holder_majorant(spec, chi, (r,))[0], rel=1e-12, abs=0)

    def test_bad_order_among_several(self, ctx7):
        with pytest.raises(ValueError):
            holder_majorant(_spec(ctx7, (0, 0), 2, (1, 1)), MultChar(ctx7, 1), (1, 0))


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



class TestCoordinateCache:
    """Each spec flattens its coordinates once, and every evaluator reads them."""

    P, K, H, E = 11, (5, 9, 20), 10, (2, -1, 1)  # each side holds one multiple of 11
    ORDER = ("naive", "bilinear", "char-naive", "split", "cauchy", "holder")

    def _tables(self):
        return [0.9 * np.exp(1j * (j + 1) * np.arange(self.H)) for j in range(3)]

    def _fresh(self, kind, tables=None):
        weights = {
            "unit": UnitWeights,
            "phase": lambda: PhaseWeights((4, 7, 12)),
            "table": lambda: TableWeights(self._tables() if tables is None else tables),
        }[kind]()
        return _spec(build_context(self.P), self.K, self.H, self.E, weights, lam=3)

    @staticmethod
    def _evaluate(spec, order):
        chi = MultChar(spec.ctx, 4)
        evaluators = {
            "naive": lambda: monomial_sum_naive(spec).value,
            "bilinear": lambda: monomial_sum_bilinear(spec).value,
            "char-naive": lambda: character_sum_naive(spec, chi).value,
            "split": lambda: character_sum_split(spec, chi).value,
            "cauchy": lambda: cauchy_majorant(spec),
            "holder": lambda: holder_majorant(spec, chi, (2,))[0],
        }
        return {name: evaluators[name]() for name in order}

    @pytest.mark.parametrize("kind", ["unit", "phase", "table"])
    def test_evaluators_bit_equal_in_either_order(self, kind):
        forward = self._evaluate(self._fresh(kind), self.ORDER)
        backward = self._evaluate(self._fresh(kind), self.ORDER[::-1])
        assert forward == backward

    @pytest.mark.parametrize("kind", ["unit", "phase", "table"])
    def test_coordinates_built_once_and_read_only(self, kind):
        spec = self._fresh(kind)
        data = spec.coordinates
        assert spec.coordinates is data and len(data) == 3
        for (pv, w), k_j, e_j in zip(data, self.K, self.E):
            (want,), _ = box_powers(spec.ctx, Box((k_j,), self.H), (e_j,))
            assert len(want) < self.H and np.array_equal(pv, want) and w.shape == pv.shape
            for arr in (pv, w):
                with pytest.raises(ValueError):
                    arr[0] = 1

    def test_spec_fields_are_frozen(self):
        spec = self._fresh("unit")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.lam = 2

    def test_caller_tables_stay_writable_and_unchanged(self):
        tables = self._tables()
        before = [t.copy() for t in tables]
        self._evaluate(self._fresh("table", tables), self.ORDER)
        for t, t0 in zip(tables, before):
            assert t.flags.writeable and np.array_equal(t, t0)


class TestCoordinatePass:
    """`SumSpec.coordinates` against a per-element `pow(x, e, p)` and per-point weights."""

    E = (1, -1, 2**31 - 1, -(2**31 - 1), -2)

    @staticmethod
    def _corners(p, h):
        # Negative, beyond 2^64 both ways, and one whose interval holds p itself.
        return (-1, -(2**64) - 7, 2**64 + 3, p - 1 - h // 2, 0)

    @staticmethod
    def _weights(kind, p, h):
        if kind == "unit":
            return UnitWeights()
        if kind == "phase":
            return PhaseWeights((3, -1, 2**70 + 5, p, 0))
        rng = np.random.default_rng(p * 1000 + h)
        return TableWeights(rng.random((5, h)) * np.exp(2j * np.pi * rng.random((5, h))))

    @staticmethod
    def _reference_weight(weights, j, i, x, p):
        if isinstance(weights, UnitWeights):
            return 1.0
        if isinstance(weights, PhaseWeights):
            return cmath.exp(2j * math.pi * (weights.lambdas[j] * x % p) / p)
        return weights.tables[j][i]

    @pytest.mark.parametrize("kind", ["unit", "phase", "table"])
    @pytest.mark.parametrize("p", [3, 5, 101, 10007])
    def test_matches_pow_reference(self, p, kind):
        for h in sorted({1, min(p - 1, 7), p - 1}):
            weights = self._weights(kind, p, h)
            spec = _spec(build_context(p), self._corners(p, h), h, self.E, weights)
            data = spec.coordinates
            assert len(data) == 5
            for j, ((pv, w), k_j, e_j) in enumerate(zip(data, spec.box.k, self.E)):
                cols = [i for i in range(h) if (k_j + 1 + i) % p]
                want = [pow(k_j + 1 + i, e_j, p) for i in cols]
                want_w = [self._reference_weight(weights, j, i, k_j + 1 + i, p) for i in cols]
                assert pv.dtype == np.int64 and pv.tolist() == want
                assert w.dtype == np.complex128 and w.shape == pv.shape
                assert np.allclose(w, want_w, rtol=0, atol=1e-12)
                assert not pv.flags.writeable and not w.flags.writeable

    @pytest.mark.parametrize("kind", ["unit", "phase", "table"])
    @pytest.mark.parametrize("p", [3, 5, 101, 10007])
    def test_multiple_of_p_dropped_with_its_weight(self, p, kind):
        h = min(p - 1, 7)
        weights = self._weights(kind, p, h)
        spec = _spec(build_context(p), self._corners(p, h), h, self.E, weights)
        j = 3  # the corner p - 1 - h // 2 puts p at column h // 2
        pv, w = spec.coordinates[j]
        assert len(pv) == len(w) == h - 1
        kept = [i for i in range(h) if i != h // 2]
        want_w = [self._reference_weight(weights, j, i, spec.box.k[j] + 1 + i, p) for i in kept]
        assert np.allclose(w, want_w, rtol=0, atol=1e-12)
        for arr in (pv, w):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_table_of_wrong_length_rejected(self, ctx7):
        spec = _spec(ctx7, (0, 0), 3, (1, 1), TableWeights([[0.5] * 3, [0.5] * 2]))
        with pytest.raises(ValueError, match="weight table 1 must have length 3"):
            spec.coordinates
