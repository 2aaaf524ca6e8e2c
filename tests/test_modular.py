import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsums.errors import NotPrimeError, TooLargeError, ZeroToNegativePowerError
from boxsums.modular import (
    Box,
    ExponentVector,
    box_powers,
    build_context,
    floor_mod,
    interval_residues,
    is_prime,
    monomial_values,
    pow_mod,
    primitive_root,
)

SMALL_PRIMES = [3, 5, 7, 11, 13, 31, 101]


class TestIsPrime:
    def test_smallest_prime(self):
        assert is_prime(2)

    def test_unit(self):
        assert not is_prime(1)

    def test_zero(self):
        assert not is_prime(0)

    def test_million_three(self):
        # Oracle: trial division.
        def trial(m):
            return m > 1 and all(m % d for d in range(2, int(m**0.5) + 1))

        assert trial(1000003)
        assert is_prime(1000003)

    @pytest.mark.parametrize("m", range(2, 2000))
    def test_matches_trial_division(self, m):
        want = all(m % d for d in range(2, int(m**0.5) + 1))
        assert is_prime(m) == want

    def test_large_inputs(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**62 - 1)


class TestPowMod:
    def test_fermat(self):
        assert pow_mod(3, 6, 7) == 1

    def test_negative_exponent(self):
        assert pow_mod(2, -1, 5) == 3  # 2*3 = 6 = 1 mod 5

    def test_zero_base_positive(self):
        assert pow_mod(0, 3, 7) == 0

    def test_zero_base_negative_raises(self):
        with pytest.raises(ZeroToNegativePowerError):
            pow_mod(0, -2, 7)

    @given(st.sampled_from(SMALL_PRIMES), st.integers(1, 1000), st.integers(-5, 5))
    def test_pow_times_negated_pow_is_one(self, p, a, e):
        if a % p == 0:
            return
        assert pow_mod(a, e, p) * pow_mod(a, -e, p) % p == 1

    @pytest.mark.parametrize("p", [3, 5, 101, 2**31 - 1])
    def test_negative_exponent_matches_two_step_inverse(self, p):
        # The built-in pow with a negative exponent against the inverse raised to |e|.
        for e in (-1, -2, -(p - 1), -(2**31 - 1)):
            for a in (1, 2, p - 1, p + 2, -1, -p - 3, 10**20 + 1):
                if a % p:
                    assert pow_mod(a, e, p) == pow(pow(a % p, -1, p), -e, p), (a, e, p)
            for zero in (0, p, -p):
                with pytest.raises(ZeroToNegativePowerError):
                    pow_mod(zero, e, p)

    def test_composite_modulus_without_inverse_raises(self):
        with pytest.raises(ValueError):
            pow_mod(6, -1, 15)
        assert pow_mod(7, -1, 15) == 13  # 7 * 13 = 91 = 1 mod 15


class TestFloorMod:
    @pytest.mark.parametrize("m", [2, 4, 1008, 10006, 2**31 - 2])
    def test_equals_remainder_and_leaves_input(self, m):
        rng = np.random.default_rng(m)
        x = np.concatenate([rng.integers(-(2**62), 2**62, 500), [0, 1, -1, m, -m, m - 1, 1 - m, 2**62, -(2**62)]])
        before = x.copy()
        got = floor_mod(x, m)
        assert got.dtype == np.int64 and np.array_equal(got, x % m)
        assert np.array_equal(x, before)
        assert floor_mod(x[:0], m).shape == (0,)

    @pytest.mark.parametrize("m", [3, 1008, 10007, 2**31 - 2])
    def test_both_sides_of_the_crossover(self, m):
        # Sizes around 640, where one `%` and the floor division cost about the same.
        rng = np.random.default_rng(m)
        for size in (0, 1, 639, 640, 10**4):
            x = rng.integers(-(2**62), 2**62, size)
            x[: size // 3] = rng.integers(-3 * m, 3 * m, size // 3)  # small entries, negatives among them
            x[: size // 7] = rng.integers(-3, 4, size // 7) * m  # multiples of m
            before = x.copy()
            got = floor_mod(x, m)
            assert got.dtype == np.int64 and got.shape == (size,), size
            assert np.array_equal(got, x % m) and got.min(initial=0) >= 0 and got.max(initial=0) < m, size
            assert np.array_equal(x, before) and got is not x, size


def test_interval_residues_reduce_any_integer_corner():
    # Python ints beyond int64 and negatives are reduced before they reach numpy.
    p, h = 101, 7
    for k in (2**64 + 5, -(2**70) - 1, -3, p * 2**65 - 2, 0):
        want = [(k + i) % p for i in range(1, h + 1)]
        assert interval_residues((k,), h, p)[0].tolist() == want, k
    for h in (0, p):
        with pytest.raises(ValueError, match="need 1 <= h < p"):
            interval_residues((2**64,), h, p)
    with pytest.raises(ValueError, match="need 1 <= h < p"):
        box_powers(build_context(p), Box((2**64,), p), (1,))


class TestPrimitiveRoot:
    @pytest.mark.parametrize("p,g", [(3, 2), (5, 2), (7, 3), (11, 2), (41, 6)])
    def test_known_values(self, p, g):
        assert primitive_root(p) == g

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_order_is_p_minus_one(self, p):
        g = primitive_root(p)
        powers = {pow(g, k, p) for k in range(p - 1)}
        assert powers == set(range(1, p))

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_smallest(self, p):
        g = primitive_root(p)
        for cand in range(2, g):
            assert len({pow(cand, k, p) for k in range(p - 1)}) < p - 1


class TestBuildContext:
    def test_p7(self):
        ctx = build_context(7)
        assert ctx.g == 3
        assert ctx.index[3] == 1
        assert ctx.index[1] == 0
        assert ctx.index[0] == -1

    def test_not_prime(self):
        with pytest.raises(NotPrimeError):
            build_context(4)

    def test_two_rejected(self):
        with pytest.raises(NotPrimeError):
            build_context(2)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            build_context(2**31 + 11)

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_index_bijection(self, p):
        ctx = build_context(p)
        assert sorted(int(v) for v in ctx.index[1:]) == list(range(p - 1))
        for k in range(p - 1):
            assert ctx.index[pow(ctx.g, k, p)] == k

    @pytest.mark.parametrize("p", [3, 5, 101, 10007])
    def test_power_inverts_index(self, p):
        ctx = build_context(p)
        power = ctx.power
        assert power.shape == (p - 1,) and power.dtype == np.int64
        assert power[0] == 1 and power[1 % (p - 1)] == ctx.g % p
        assert power.tolist() == [pow(ctx.g, i, p) for i in range(p - 1)]
        assert np.array_equal(power[ctx.index[1:]], np.arange(1, p))
        assert np.array_equal(ctx.index[power], np.arange(p - 1))

    @pytest.mark.parametrize("p", [3, 7, 101])
    def test_index_and_power_are_read_only(self, p):
        ctx = build_context(p)
        for name in ("index", "power"):
            table = getattr(ctx, name)
            before = table.copy()
            with pytest.raises(ValueError):
                table[1] = 0
            assert np.array_equal(table, before)

    @pytest.mark.parametrize("p", [3, 5, 101, 10007])
    def test_root_tables_match_their_formulas(self, p):
        ctx = build_context(p)
        roots = np.exp(2j * np.pi * np.arange(p) / p)
        formulas = {
            "roots": roots,
            "char_roots": np.exp(2j * np.pi * np.arange(p - 1) / (p - 1)),
            "index_roots": np.tile(roots[ctx.power], 2),
        }
        for name, want in formulas.items():
            assert name not in ctx.__dict__, name  # built on first use
            table = getattr(ctx, name)
            assert np.array_equal(table, want) and not table.flags.writeable, name
            assert getattr(ctx, name) is table, name  # built once per context
            assert getattr(build_context(p), name) is not table, name  # not shared by contexts of one p


class TestExponentVector:
    def test_zero_component_rejected(self):
        with pytest.raises(ValueError):
            ExponentVector((1, 0, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ExponentVector(())

    def test_len(self):
        assert len(ExponentVector((1, -2, 3))) == 3


class TestBox:
    def test_cube_keeps_its_common_side(self):
        box = Box([2**70, -3], np.int64(4))
        assert box.k == (2**70, -3) and box.h == 4 and type(box.h) is int
        assert box.n == 2 and box.sides == (4, 4)

    def test_sides_per_coordinate(self):
        box = Box((0, 1, 2), [3, 1, np.int64(5)])
        assert box.h == box.sides == (3, 1, 5)

    @pytest.mark.parametrize(
        "k, h",
        [((), 3), ((), ()), ((0, 0), (3,)), ((0,), (3, 4)), ((0, 0), ()), ((0, 0), 0), ((0, 0), (3, 0)), ((0,), (-2,))],
    )
    def test_bad_shapes_rejected(self, k, h):
        with pytest.raises(ValueError):
            Box(k, h)


class TestIntervalKernels:
    """`box_powers`, the kernel of the sums' coordinates and of the counts, against `pow_mod`."""

    @pytest.mark.parametrize("p", [5, 101, 10007])
    @pytest.mark.parametrize("e_abs", [1, 2, "p-2", "p-1", "p", 2**31 - 1])
    def test_powers_match_per_element_pow_mod(self, p, e_abs):
        ctx = build_context(p)
        e_abs = {"p-2": p - 2, "p-1": p - 1, "p": p}.get(e_abs, e_abs)
        corners = (0, -5, p - 3, p * 2**70 + 3)
        for h in (1, 7, p - 1):
            if h >= p:
                continue
            # All four corners in one call, with e and -e alternating over the rows.
            e = [e_abs * (-1) ** j for j in range(len(corners))]
            got, no_weights = box_powers(ctx, Box(corners, h), e)
            assert no_weights is None and len(got) == len(corners)
            for j, (k, e_j) in enumerate(zip(corners, e)):
                x = [(k + i) % p for i in range(1, h + 1)]
                want = np.array([pow_mod(v, e_j, p) for v in x if v != 0], dtype=np.int64)
                assert np.array_equal(got[j], want), (p, e_j, k, h)

    @pytest.mark.parametrize("p", [5, 13, 101])
    @pytest.mark.parametrize("e", [1, -1, 3, -(2**31 - 1)])
    def test_mask_at_each_position_of_the_multiple(self, p, e):
        ctx = build_context(p)
        for h in (1, 2, p // 2, p - 1):
            # Offsets r = k mod p putting the multiple of p at index 0 (k = -1),
            # at index h-1 (k = -h), at an interior index, and outside.
            for r in {p - 1, p - h, p - 1 - h // 2, 0, p - h - 1}:
                for k in (r, r - p, p * 2**70 + r):
                    # The residues themselves as weights show which points the kernel keeps.
                    (got,), (kept,) = box_powers(ctx, Box((k,), h), (e,), lambda res: res.astype(float))
                    x = interval_residues((k,), h, p)[0]
                    assert kept.tolist() == [v for v in x if v != 0], (p, h, k)
                    want = [pow_mod(int(v), e, p) for v in x if v != 0]
                    assert got.dtype == np.int64 and got.tolist() == want, (p, e, h, k)
                    assert not got.flags.writeable and not kept.flags.writeable
            # The multiple of p sits at every position of one interval in turn, each row its own corner.
            corners = [-1 - i for i in range(h)]
            got, kept = box_powers(ctx, Box(corners, h), [e] * h, lambda res: res.astype(float))
            for i, (k, pv, kept_i) in enumerate(zip(corners, got, kept)):
                x = interval_residues((k,), h, p)[0]
                assert x[i] == 0 and kept_i.tolist() == [v for v in x if v != 0]
                assert pv.tolist() == [pow_mod(int(v), e, p) for v in x if v != 0], (p, e, h, i)
            assert np.count_nonzero(interval_residues((0,), h, p)) == h

    @pytest.mark.parametrize("p", [5, 13, 101])
    def test_ragged_box_matches_one_call_per_side(self, p):
        ctx = build_context(p)
        corners, e = (-1, 0, p - 2, p * 2**70 + 3), (1, -2, 3, -1)
        for sides in itertools.product({1, 2, p // 2, p - 1}, repeat=len(corners)):
            # The residues themselves as weights show which points each row keeps.
            got, kept = box_powers(ctx, Box(corners, sides), e, lambda res: res.astype(float))
            for j, (k_j, h_j, e_j) in enumerate(zip(corners, sides, e)):
                (want,), (want_kept,) = box_powers(ctx, Box((k_j,), h_j), (e_j,), lambda res: res.astype(float))
                assert got[j].tolist() == want.tolist() and kept[j].tolist() == want_kept.tolist(), (p, sides, j)
                assert not got[j].flags.writeable and not kept[j].flags.writeable
                # Only a row that drops a point (the multiple of p, or columns past its side) is copied.
                cut = k_j % p + h_j >= p or h_j < max(sides)
                assert (got[j].base is None) == (kept[j].base is None) == cut, (p, sides, j)

    def test_exponent_count_must_match_the_box(self):
        ctx = build_context(7)
        for e in ((2,), (1, 2, 3)):
            with pytest.raises(ValueError, match="exponents for a box of dimension 2"):
                box_powers(ctx, Box((0, 1), 3), e)

    @pytest.mark.parametrize("p", [5, 13, 101])
    def test_monomial_values_one_factor(self, p):
        a = box_powers(build_context(p), Box((3,), p - 2), (-2,))[0][0]
        assert np.array_equal(monomial_values([a], p), a)

    @pytest.mark.parametrize("p", [5, 13, 101])
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_monomial_values_repeated_factor(self, p, nu):
        a = box_powers(build_context(p), Box((-7,), min(p - 1, 12)), (1,))[0][0]
        want = [math.prod(t) % p for t in itertools.product(a.tolist(), repeat=nu)]
        assert monomial_values([a] * nu, p).tolist() == want

    @pytest.mark.parametrize("p", [5, 13, 101])
    def test_weights_share_the_mask_and_only_rows_holding_p_are_copied(self, p):
        ctx = build_context(p)
        table = np.arange(9, dtype=float).reshape(3, 3)
        pv, w = box_powers(ctx, Box((0, -1, 1), 3), (1, 2, -1), lambda r: table + 0)
        assert [len(row) for row in pv] == [len(row) for row in w] == [3, 2, 3]
        assert w[1].tolist() == [4.0, 5.0]  # the multiple of p at column 0 of row 1 is dropped with its weight
        assert pv[0].base is pv[2].base is not None and pv[1].base is None
        assert w[0].base is w[2].base is not None and w[1].base is None
        for row in (*pv, *w):
            with pytest.raises(ValueError):
                row[0] = 1
