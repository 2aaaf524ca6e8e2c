import cmath
import gc
import tracemalloc

import numpy as np
import pytest

from boxsums import characters
from boxsums.characters import (
    MultChar,
    ResidueDistribution,
    additive_char,
    additive_spectrum,
    char_interval_sum,
    char_moment,
    dilated_char_sums,
    dilated_moments,
    spectrum_direct,
)
from boxsums.errors import LambdaDivisibleError, PrincipalCharacterError
from boxsums.modular import Box, ExponentVector, build_context
from boxsums.sums import SumSpec, character_sum_split, dense_fold_limit

PRIMES = [5, 7, 11, 13, 31]


@pytest.fixture(scope="module")
def ctx7():
    return build_context(7)


@pytest.fixture(scope="module")
def ctx11():
    return build_context(11)


class TestAdditiveChar:
    def test_zero(self, ctx7):
        assert additive_char(ctx7, 0) == 1

    def test_periodicity(self, ctx7):
        for z in range(-14, 15):
            assert cmath.isclose(
                additive_char(ctx7, z), additive_char(ctx7, z + 7), abs_tol=1e-14
            )

    def test_explicit_value(self, ctx7):
        want = cmath.exp(2j * cmath.pi * 3 / 7)
        assert cmath.isclose(additive_char(ctx7, 3), want, abs_tol=1e-14)

    @pytest.mark.parametrize("p", PRIMES)
    def test_complete_sum_vanishes(self, p):
        ctx = build_context(p)
        total = sum(additive_char(ctx, z) for z in range(p))
        assert abs(total) < 1e-10

    @pytest.mark.parametrize("p", PRIMES)
    def test_homomorphism(self, p):
        ctx = build_context(p)
        for z1 in range(p):
            for z2 in range(p):
                lhs = additive_char(ctx, z1 + z2)
                rhs = additive_char(ctx, z1) * additive_char(ctx, z2)
                assert abs(lhs - rhs) < 1e-12


class TestMultChar:
    def test_principal(self, ctx7):
        chi = MultChar(ctx7, 0)
        assert chi.is_principal
        for x in range(1, 7):
            assert chi(x) == 1
        assert chi(0) == 0

    def test_index_reduced_mod_order(self, ctx7):
        assert MultChar(ctx7, 6).a == 0
        assert MultChar(ctx7, 8).a == 2

    def test_legendre_at_half_order(self, ctx7):
        # Index (p-1)/2 gives the quadratic-residue character.
        chi = MultChar(ctx7, 3)
        squares = {x * x % 7 for x in range(1, 7)}
        for x in range(1, 7):
            want = 1 if x in squares else -1
            assert abs(chi(x) - want) < 1e-12

    @pytest.mark.parametrize("p", PRIMES)
    def test_multiplicative(self, p):
        ctx = build_context(p)
        for a in (1, 2, p - 2):
            chi = MultChar(ctx, a)
            for x in range(1, p):
                for y in range(1, p):
                    assert abs(chi(x * y) - chi(x) * chi(y)) < 1e-10

    @pytest.mark.parametrize("p", PRIMES)
    def test_nonprincipal_complete_sum_vanishes(self, p):
        ctx = build_context(p)
        for a in range(1, p - 1):
            total = sum(MultChar(ctx, a)(x) for x in range(p))
            assert abs(total) < 1e-9

    @pytest.mark.parametrize("p", [3, 5, 101, 1009, 10007, 65537])
    def test_table_matches_exp_formula_exactly(self, p):
        # The table reads char_roots at a*ind mod p-1, reduced by floor division: bit for bit the
        # entries `%` picks, the sentinel index[0] = -1 included, with chi(0) zeroed.
        ctx = build_context(p)
        m = p - 1
        for a in sorted({0, 1, 2, m // 2, m - 1, int(np.random.default_rng(p).integers(0, m))}):
            want = np.exp(2j * np.pi * ((a * ctx.index) % m) / m)
            want[0] = 0.0
            gathered = ctx.char_roots[(a * ctx.index) % m]
            gathered[0] = 0.0
            table = MultChar(ctx, a).table()
            assert table.shape == (p,) and not table.flags.writeable
            assert np.array_equal(table, want)
            assert np.array_equal(table.view(np.float64), gathered.view(np.float64))

    def test_char_power(self, ctx11):
        # chi_a^e is chi_{a*e}: the index reduced mod p-1, a negative e included.
        chi = MultChar(ctx11, 3)
        sq, conj = MultChar(ctx11, 3 * 2), MultChar(ctx11, 3 * -1)
        for x in range(1, 11):
            assert abs(sq(x) - chi(x) ** 2) < 1e-12
            assert abs(conj(x) - chi(x).conjugate()) < 1e-12


class TestSpectrum:
    def test_point_mass_at_zero(self, ctx7):
        vals = np.zeros(7, dtype=complex)
        vals[0] = 1.0
        hat = additive_spectrum(ResidueDistribution.from_values(ctx7, vals))
        assert np.allclose(hat, np.ones(7))

    def test_point_mass_at_one(self, ctx7):
        vals = np.zeros(7, dtype=complex)
        vals[1] = 1.0
        hat = additive_spectrum(ResidueDistribution.from_values(ctx7, vals))
        want = np.exp(2j * np.pi * np.arange(7) / 7)
        assert np.allclose(hat, want)

    @pytest.mark.parametrize("p", PRIMES)
    def test_parseval(self, p):
        ctx = build_context(p)
        rng = np.random.default_rng(0)
        vals = rng.normal(size=p) + 1j * rng.normal(size=p)
        hat = additive_spectrum(ResidueDistribution.from_values(ctx, vals))
        lhs = (np.abs(hat) ** 2).sum()
        rhs = p * (np.abs(vals) ** 2).sum()
        assert abs(lhs - rhs) / rhs < 1e-12

    @pytest.mark.parametrize("p", PRIMES + [101])
    def test_direct_fast_agree(self, p):
        ctx = build_context(p)
        rng = np.random.default_rng(1)
        vals = rng.normal(size=p) + 1j * rng.normal(size=p)
        dist = ResidueDistribution.from_values(ctx, vals)
        direct = spectrum_direct(dist)
        fast = additive_spectrum(dist)
        assert np.array_equal(fast, characters._spectrum_fast(dist))
        scale = 1.0 + np.abs(direct).max()
        assert np.abs(direct - fast).max() / scale < 1e-8

    def test_wrong_length_rejected(self, ctx7):
        with pytest.raises(ValueError):
            ResidueDistribution.from_values(ctx7, np.zeros(6, dtype=complex))


def _fft_calls(monkeypatch) -> list:
    """Record each FFT transform, so a test can tell which branch ran."""
    calls, fft = [], characters._spectrum_fast
    monkeypatch.setattr(characters, "_spectrum_fast", lambda dist: calls.append(1) or fft(dist))
    return calls


class TestSpectrumAt:
    # (p, support size): dense at small p, sparse where the FFT is Bluestein's on a large p.
    CASES = [(7, 7), (101, 101), (1009, 1009), (10007, 60), (100003, 300)]

    @staticmethod
    def _dist(p, supp, seed=0):
        ctx = build_context(p)
        rng = np.random.default_rng(seed)
        vals = np.zeros(p, dtype=complex)
        where = rng.choice(p, size=supp, replace=False)
        vals[where] = rng.normal(size=supp) + 1j * rng.normal(size=supp)
        return ResidueDistribution.from_values(ctx, vals)

    @pytest.mark.parametrize("p, supp", CASES)
    def test_matches_full_spectrum_on_both_sides_of_cost_rule(self, p, supp, monkeypatch):
        dist = self._dist(p, supp)
        full = additive_spectrum(dist)
        tol = 1e-12 * (1 + np.abs(dist.values).sum())
        calls = _fft_calls(monkeypatch)
        limit = characters.support_sum_limit(p, supp)  # the most frequencies summed directly
        rng = np.random.default_rng(1)
        for size, fft_calls in ((limit, 0), (limit + 1, 1)):
            at = rng.integers(0, p, size=size)
            got = additive_spectrum(dist, at=at)
            assert len(calls) == fft_calls
            assert got.shape == (size,)
            assert np.abs(got - full[at]).max() <= tol
            calls.clear()

    def test_empty_at(self, ctx7, monkeypatch):
        calls = _fft_calls(monkeypatch)
        for vals in (np.zeros(7), np.arange(7.0)):
            got = additive_spectrum(ResidueDistribution.from_values(ctx7, vals), at=np.array([], dtype=np.int64))
            assert got.shape == (0,) and got.dtype == np.complex128
        assert calls == []

    def test_empty_support_gives_zeros(self, ctx7):
        got = additive_spectrum(ResidueDistribution.from_values(ctx7, np.zeros(7)), at=np.arange(7))
        assert np.array_equal(got, np.zeros(7))

    def test_repeated_and_zero_frequencies(self):
        dist = self._dist(101, 40)
        full = additive_spectrum(dist)
        at = np.array([3, 3, 0, 3, 100, 0])
        assert np.abs(additive_spectrum(dist, at=at) - full[at]).max() < 1e-12
        # lam = 0 sends every frequency to 0, where the spectrum is the total mass.
        zeros = additive_spectrum(dist, at=np.zeros(5, dtype=np.int64))
        assert np.abs(zeros - dist.values.sum()).max() < 1e-12

    def test_frequencies_reduced_mod_p(self):
        dist = self._dist(101, 101)
        got = additive_spectrum(dist, at=np.array([-1, 103, 101 * 2**40 + 5]))
        assert np.abs(got - additive_spectrum(dist)[[100, 2, 5]]).max() < 1e-9

    def test_direct_branch_memory_stays_blocked(self, monkeypatch):
        # Just under the crossover, an unblocked (frequency, point) table needs about 80 MB.
        p, supp = 100003, 1000
        dist = self._dist(p, supp)
        at = np.random.default_rng(2).integers(0, p, size=characters.support_sum_limit(p, supp))
        calls = _fft_calls(monkeypatch)
        # A fresh context, so the count takes in the tables the support sum builds: roots and E.
        assert not {"roots", "index_roots"} & dist.ctx.__dict__.keys()
        tracemalloc.start()
        try:
            additive_spectrum(dist, at=at)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 16 * 2**20


class TestSupportSum:
    """The index-domain sum e_p(w*v) = E[ind w + ind v] against spectrum_direct."""

    @staticmethod
    def _sum_everything(monkeypatch):
        # Every frequency summed over the entries, and the FFT never taken.
        monkeypatch.setattr(characters, "support_sum_limit", lambda p, supp: 2**62)
        monkeypatch.setattr(characters, "_spectrum_fast", lambda dist: pytest.fail("FFT taken"))

    @staticmethod
    def _entries(p, seed):
        """2p + 8 unmerged entries: points repeat, and several sit at 0 with nonzero mass."""
        rng = np.random.default_rng(seed)
        size = 2 * p + 8
        points = rng.integers(0, p, size=size)
        points[:3] = 0
        points[3:6] = max(1, points[6])
        mass = rng.normal(size=size) + 1j * rng.normal(size=size)
        return ResidueDistribution(build_context(p), points, mass)

    @pytest.mark.parametrize("p", [3, 5, 7, 101, 1009])
    def test_matches_spectrum_direct(self, p, monkeypatch):
        dist = self._entries(p, p)
        direct = spectrum_direct(dist)
        self._sum_everything(monkeypatch)
        rng = np.random.default_rng(p + 1)
        at = np.concatenate([
            [0, p, -p, 5 * p, -1, -p - 2, 2**40, 2**40 * p + 3, -(2**41) - 1],
            rng.integers(-3 * p, 3 * p, size=40),
        ])
        got = additive_spectrum(dist, at=at)
        assert got.shape == at.shape and got.dtype == np.complex128
        tol = 1e-12 * (1 + np.abs(dist.mass).sum())
        assert np.abs(got - direct[at % p]).max() <= tol

    @pytest.mark.parametrize("p", [3, 101])
    def test_only_zero_frequencies_or_points(self, p, monkeypatch):
        self._sum_everything(monkeypatch)
        ctx, mass = build_context(p), np.array([1.5 - 2j, 0.25j, -1.0])
        zeros = ResidueDistribution(ctx, np.zeros(3, dtype=np.int64), mass)
        got = additive_spectrum(zeros, at=np.array([0, 1, p - 1, -7]))
        assert np.abs(got - mass.sum()).max() < 1e-14
        dist = self._entries(p, 3)
        got = additive_spectrum(dist, at=np.array([0, p, -2 * p]))
        assert np.abs(got - dist.mass.sum()).max() < 1e-12

    def test_empty_at_or_support(self, monkeypatch):
        self._sum_everything(monkeypatch)
        dist = self._entries(101, 4)
        got = additive_spectrum(dist, at=np.array([], dtype=np.int64))
        assert got.shape == (0,) and got.dtype == np.complex128
        empty = ResidueDistribution(dist.ctx, np.array([], dtype=np.int64), np.array([], dtype=np.complex128))
        got = additive_spectrum(empty, at=np.array([0, 1, 100, -5]))
        assert np.array_equal(got, np.zeros(4))

    def test_values_sum_repeated_points(self):
        dist = self._entries(7, 5)
        want = np.zeros(7, dtype=np.complex128)
        np.add.at(want, dist.points, dist.mass)
        assert np.array_equal(dist.values, want)
        assert dist.values is dist.values  # densified once


def _direct_dilated(chi, u, x, lam, w):
    """The defining formula: chi(u*x + lam) gathered at every (u, x) pair."""
    p = chi.ctx.p
    return chi.table()[(np.multiply.outer(np.asarray(u, dtype=np.int64), x) + lam) % p] @ w


def _wrapped_dilated(chi, u, x, lam, w):
    """The kernel with u and c_x in [0, p-1] and its index u + c_x reduced by a wrapped take."""
    ctx, table = chi.ctx, chi.table()
    p = ctx.p
    x, lam = np.asarray(x, dtype=np.int64) % p, lam % p
    c = ctx.power[(ctx.index[lam] - ctx.index[x]) % (p - 1)] if lam else np.zeros_like(x)
    idx = np.add.outer(np.asarray(u, dtype=np.int64) % p, c)
    out = np.take(table, idx, mode="wrap") @ (w * table[x])
    return out if x.all() else out + w[x == 0].sum() * table[lam]


def _kernel_weights(kind, x, p, rng):
    if kind == "unit":
        return np.ones(len(x), dtype=np.complex128)
    if kind == "phase":
        return np.exp(2j * np.pi * ((7 * x) % p) / p)
    return rng.uniform(0, 1, len(x)) * np.exp(2j * np.pi * rng.uniform(0, 1, len(x)))


class TestDilatedCharSums:
    """The split kernel chi(x) * chi(u + lam * x^{-1}) against chi(u*x + lam) itself."""

    @pytest.mark.parametrize("kind", ["unit", "phase", "table"])
    @pytest.mark.parametrize("p", [5, 101, 10007])
    def test_matches_direct_formula(self, p, kind):
        ctx = build_context(p)
        rng = np.random.default_rng(p)
        h = min(p - 1, 40)
        # Unreduced u, including 0, negatives and values >= p.
        u = np.concatenate([np.arange(-3, 4), [p - 1, p, p + 1, 2 * p + 5, -p - 2]])
        # Intervals with k < 0 around -p, around p, at k >= 2p, and one with no multiple of p.
        starts = (-p - h // 2, p - h // 2, 2 * p + 3, -p)
        assert [bool((np.arange(k + 1, k + h + 1) % p == 0).any()) for k in starts[:2]] == [True, True]
        for a in (0, int(rng.integers(1, p - 1))):
            chi = MultChar(ctx, a)
            for k in starts:
                x = np.arange(k + 1, k + h + 1, dtype=np.int64)
                w = _kernel_weights(kind, x, p, rng)
                tol = 1e-12 * max(1.0, float(np.abs(w).sum()))
                for lam in (0, p, -p, 1, 3, -7, -1, 2 * p + 1):
                    want = _direct_dilated(chi, u, x, lam, w)
                    got = dilated_char_sums(chi, u, x, lam, w)
                    assert got.shape == want.shape
                    assert np.abs(got - want).max() <= tol, (a, k, lam)
                    # Each index u + c_x - p in [-p, p-2] reads the entry a wrapped take reads at u + c_x.
                    assert np.array_equal(got, _wrapped_dilated(chi, u, x, lam, w)), (a, k, lam)
                    for ui, wi in zip(u.tolist(), want):
                        assert abs(complex(dilated_char_sums(chi, ui, x, lam, w)) - wi) <= tol

    def test_only_zero_points(self, ctx11):
        # Every point is 0 mod p: each term is w(0) chi(lam), whatever u is.
        chi = MultChar(ctx11, 3)
        x, w = np.array([0, 11, -22]), np.array([0.5, 0.25j, -1.0])
        got = dilated_char_sums(chi, np.arange(-2, 13), x, 4, w)
        assert np.abs(got - w.sum() * chi(4)).max() < 1e-15
        assert np.array_equal(got, _wrapped_dilated(chi, np.arange(-2, 13), x, 4, w))
        assert np.abs(dilated_char_sums(chi, np.arange(5), x, 0, w)).max() == 0


class TestCharIntervalSum:
    def test_full_interval_nonprincipal(self, ctx11):
        # Over a full period the dilated sum is a complete character sum
        # minus the chi(0) term, hence has modulus <= 1... actually 0 + the
        # missing term; check against a scalar recount instead.
        chi = MultChar(ctx11, 2)
        got = char_interval_sum(chi, k=3, h=5, u=4, lam=2)
        want = sum(chi((4 * x + 2) % 11) for x in range(4, 9))
        assert abs(got - want) < 1e-12

    def test_weights_applied(self, ctx11):
        chi = MultChar(ctx11, 2)
        rho = [0.5, 0.25j, -0.1, 0.0, 1.0]
        got = char_interval_sum(chi, k=0, h=5, u=1, lam=1, rho=rho)
        want = sum(r * chi((x + 1) % 11) for r, x in zip(rho, range(1, 6)))
        assert abs(got - want) < 1e-12

    def test_weight_modulus_cap(self, ctx11):
        chi = MultChar(ctx11, 2)
        with pytest.raises(ValueError):
            char_interval_sum(chi, 0, 2, 1, 1, rho=[2.0, 0.0])

    def test_nan_weights_rejected(self, ctx11):
        chi = MultChar(ctx11, 2)
        for rho in ([float("nan"), 1.0], [1.0, complex(0.0, float("nan"))]):
            with pytest.raises(ValueError, match=r"\|rho\(x\)\| <= 1"):
                char_interval_sum(chi, 0, 2, 1, 1, rho=rho)
            with pytest.raises(ValueError, match=r"\|rho\(x\)\| <= 1"):
                char_moment(chi, 0, 2, 3, rho)


class TestCharMoment:
    def test_frozen_value(self):
        # Frozen oracle: scalar double loop, computed once and pinned.
        ctx = build_context(11)
        chi = MultChar(ctx, 5)
        got = char_moment(chi, k=0, h=3, lam=1, r=1)
        assert abs(got - 23.0) < 1e-9

    def test_matches_scalar_recount(self):
        ctx = build_context(13)
        chi = MultChar(ctx, 4)
        for r in (1, 2):
            got = char_moment(chi, k=2, h=5, lam=3, r=r)
            want = 0.0
            for u in range(1, 13):
                inner = sum(chi((u * x + 3) % 13) for x in range(3, 8))
                want += abs(inner) ** (2 * r)
            assert abs(got - want) / (1 + want) < 1e-10

    def test_blocks_match_one_table(self):
        # At p = 1009, h = 200 the inner sums are taken in four blocks of u.
        p, h, lam = 1009, 200, 5
        chi = MultChar(build_context(p), 7)
        x = np.arange(900, 900 + h)
        w = np.exp(1j * np.arange(h))
        inner = np.abs(dilated_char_sums(chi, np.arange(1, p), x, lam, w))
        for r, got in zip((1, 2), dilated_moments(chi, x, lam, w, (1, 2))):
            want = float((inner ** (2 * r)).sum())
            assert abs(got - want) <= 1e-12 * want

    def test_memory_stays_blocked(self):
        # One (p-1) x h table of the inner sums' terms would need about 230 MiB here.
        chi = MultChar(build_context(100003), 1)
        tracemalloc.start()
        try:
            char_moment(chi, k=5, h=100, lam=7, r=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_split_contraction_stays_blocked(self):
        # The sparse split contracts 2,000 entries against 2,000 points: one table of
        # every (entry, point) pair would need about 92 MiB here.
        ctx = build_context(10007)
        spec = SumSpec(ctx, Box((0, 0), 2000), ExponentVector((1, 1)), lam=5)
        chi = MultChar(ctx, 17)
        tracemalloc.start()
        try:
            result = character_sum_split(spec, chi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.terms == 2000**2 and len(spec.coordinates[0][0]) <= dense_fold_limit(ctx.p)
        assert peak < 16 * 2**20

    def test_principal_rejected(self, ctx11):
        with pytest.raises(PrincipalCharacterError):
            char_moment(MultChar(ctx11, 0), 0, 3, 1)

    def test_lambda_divisible_rejected(self, ctx11):
        with pytest.raises(LambdaDivisibleError):
            char_moment(MultChar(ctx11, 2), 0, 3, 11)

    def test_bad_r_rejected(self, ctx11):
        with pytest.raises(ValueError):
            char_moment(MultChar(ctx11, 2), 0, 3, 1, r=0)


def test_context_tables_are_freed_with_their_context():
    # The lazy tables (about 70 MiB per prime here) live on their context, so none outlive it.
    contexts = [build_context(p) for p in (1000003, 1000033)]
    tracemalloc.start()
    try:
        for ctx in contexts:
            dist = ResidueDistribution(ctx, np.arange(1, 31), np.ones(30, dtype=complex))
            additive_spectrum(dist, at=np.arange(1, 101))
            char_interval_sum(MultChar(ctx, 1), k=0, h=20, u=3, lam=1)
            assert {"roots", "char_roots", "index_roots"} <= ctx.__dict__.keys()
        del contexts, ctx, dist
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20


def _cmath_char(p, g, a):
    """chi_a by cmath from a discrete log found by repeated multiplication, with no tables."""
    log, x = {}, 1
    for i in range(p - 1):
        log[x] = i
        x = x * g % p
    return lambda v: 0j if v % p == 0 else cmath.exp(2j * cmath.pi * a * log[v % p] / (p - 1))


class TestReductionAtTheBoundary:
    """The public character sums take any integers and reduce them mod p: checked against a cmath recount."""

    BIG = 2**64 + 3  # a Python int above 2^63, beyond int64

    @pytest.mark.parametrize("p", [5, 101, 10007])
    def test_dilated_char_sums_unreduced_inputs(self, p):
        ctx = build_context(p)
        a = 7 % (p - 1) or 1
        chi, ref = MultChar(ctx, a), _cmath_char(p, ctx.g, a)
        # x holds multiples of p, negatives and values >= p.
        x = np.array([0, p, -p, 3 * p, -1, -p - 2, 1, p + 1, 2 * p - 1, 5], dtype=np.int64)
        w = np.exp(1j * np.arange(len(x)))
        for lam in (p + 3, 7 * p, -p - 1, 10**12 + 1):
            for u in (-3, -p - 1, p, 2 * p + 5, self.BIG, -self.BIG, 10**30 + 7):
                want = sum(wi * ref(u * xi + lam) for wi, xi in zip(w.tolist(), x.tolist()))
                assert abs(complex(dilated_char_sums(chi, u, x, lam, w)) - want) <= 1e-9, (u, lam)
            # An int64 array u, with negatives and values >= p, in one call.
            us = np.array([-3, -p - 1, p, 2 * p + 5, 2**62, -(2**62)], dtype=np.int64)
            got = dilated_char_sums(chi, us, x, lam, w)
            want = [sum(wi * ref(ui * xi + lam) for wi, xi in zip(w.tolist(), x.tolist())) for ui in us.tolist()]
            assert np.abs(got - want).max() <= 1e-9, lam

    @pytest.mark.parametrize("p", [5, 13, 101])
    def test_interval_sum_and_moment_unreduced_inputs(self, p):
        ctx = build_context(p)
        a = 3 % (p - 1) or 1
        chi, ref = MultChar(ctx, a), _cmath_char(p, ctx.g, a)
        h = min(p - 1, 6)
        rho = [cmath.exp(0.3j * i) * 0.9 for i in range(h)]
        for k in (-h // 2, p - 2, -p - 1, self.BIG, -self.BIG):
            for lam in (p + 2, -p - 1, self.BIG + 1):
                if lam % p == 0:
                    continue
                for u in (-1, p + 4, self.BIG):
                    got = char_interval_sum(chi, k, h, u, lam, rho)
                    want = sum(r * ref(u * (k + i) + lam) for i, r in enumerate(rho, 1))
                    assert abs(got - want) <= 1e-9, (k, lam, u)
                got = char_moment(chi, k, h, lam, rho, r=2)
                inner = [sum(r * ref(u * (k + i) + lam) for i, r in enumerate(rho, 1)) for u in range(1, p)]
                want = sum(abs(s) ** 4 for s in inner)
                assert abs(got - want) <= 1e-9 * (1 + want), (k, lam)
