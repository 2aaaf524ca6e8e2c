"""Stream contract of the instance generator: a seed and cell key fix every draw."""

import numpy as np
import pytest

from boxsums.modular import PrimeContext, build_context
from boxsums.sampling import draw_spec, substream
from boxsums.sums import PhaseWeights, TableWeights, UnitWeights

MASK = (1 << 64) - 1

POOLS = (
    [3],
    [-1],
    [1, 1, 2],
    [-2, -2, -2, 5],
    [-3, -2, -1, 1, 2, 3, 4],
    [1, -1, 1, -1, 2, 2, 7],
)


@pytest.mark.parametrize("pool", POOLS, ids=lambda pool: ",".join(map(str, pool)))
def test_draw_exponents_is_rng_choice_draw_for_draw(pool):
    # On the origin box with lam given, draw_spec's unit kind draws the exponent picks alone.
    ours, ref = substream(5, len(pool)), substream(5, len(pool))
    got = draw_spec(ours, build_context(101), 1000, 1, pool, "unit", origin_box=True, lam=1).e.e
    assert got == tuple(int(ref.choice(pool)) for _ in range(1000))
    assert ours.bit_generator.state == ref.bit_generator.state
    assert ours.random() == ref.random()


# draw_spec(substream(7, 3, 1), p = 101, n = 4, h = 8, pool (-2, -1, 1, 2, 3)):
# (e, corners, lam, phase lambda_j, first table weight, next uniform).
GOLDEN = {
    "unit": (None, None, 16, 0.4534532261574812),
    "phase": ((15, 91, 61, 45), None, 94, 0.5431702214708),
    "table": (None, -0.9042944833322144 + 0.053398723411997834j, 65, 0.12670161996572216),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_draw_spec_golden(kind):
    lambdas, weight0, lam, after = GOLDEN[kind]
    rng = substream(7, 3, 1)
    spec = draw_spec(rng, build_context(101), 4, 8, [-2, -1, 1, 2, 3], kind)
    assert spec.e.e == (-1, 2, 1, 3)
    assert spec.box.k == (72, 53, 25, 5) and spec.box.h == 8
    assert spec.lam == lam
    assert type(spec.weights) is {"unit": UnitWeights, "phase": PhaseWeights, "table": TableWeights}[kind]
    if lambdas is not None:
        assert spec.weights.lambdas == lambdas
    if weight0 is not None:
        assert complex(spec.weights.tables[0][0]) == weight0
    assert rng.random() == after
    assert all(type(v) is int for v in (*spec.e.e, *spec.box.k, spec.lam))


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("key", [0, 2**32 - 1, 2**32, 2**63, -1, -(2**70)])
def test_substream_is_default_rng_of_masked_key(seed, key):
    for keys in ((key,), (3, key, 1)):
        ours = substream(seed, *keys)
        ref = np.random.default_rng([seed & MASK, *(k & MASK for k in keys)])
        assert ours.bit_generator.state == ref.bit_generator.state, keys
        assert ours.random(3).tolist() == ref.random(3).tolist()


class _CountingRng:
    """A generator that records the name of each method draw_spec calls on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def integers(self, *args, **kwargs):
        self.calls.append("integers")
        return self.rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls.append("random")
        return self.rng.random(*args, **kwargs)


@pytest.mark.parametrize("origin_box", [False, True])
@pytest.mark.parametrize("kind", ["unit", "phase", "table"])
def test_draw_spec_generator_calls(kind, origin_box):
    # The bounded integers are one call; the table kind's doubles come before a drawn lam.
    for lam, want in ((None, ["integers", "random", "integers"]), (5, ["integers", "random"])):
        spy = _CountingRng(substream(2, 101, 4))
        draw_spec(spy, build_context(101), 4, 8, [-2, -1, 1, 2], kind, origin_box, lam)
        assert spy.calls == (want if kind == "table" else ["integers"]), lam


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("h", [1, 8])
def test_table_weights_are_per_coordinate_uniform_draws(n, h):
    # A one-exponent pool's picks consume no draw, so on the origin box with lam given
    # draw_spec's table kind draws the weights alone.
    ours, ref = substream(3, n, h), substream(3, n, h)
    got = draw_spec(ours, build_context(101), n, h, [1], "table", origin_box=True, lam=1).weights.tables
    want = []
    for _ in range(n):
        mag = ref.uniform(0.0, 1.0, size=h)
        arg = ref.uniform(0.0, 2 * np.pi, size=h)
        want.append(mag * np.exp(1j * arg))
    assert len(got) == n
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert ours.random() == ref.random()


# One context per prime, built on demand: draw_spec reads only p from its context, so
# 2^31 - 1 gets a context without tables (its full tables would take 34 GB).
_CONTEXTS = {}


def _context(p):
    if p not in _CONTEXTS:
        empty = np.empty(0, dtype=np.int64)
        _CONTEXTS[p] = build_context(p) if p < 2**20 else PrimeContext(p, 7, empty, empty)
    return _CONTEXTS[p]


def _per_coordinate_draws(rng, p, n, h, pool, kind, origin_box, lam):
    """The reference: one generator call per scalar, in draw_spec's order."""
    corners = (0,) * n if origin_box else tuple(int(rng.integers(0, p)) for _ in range(n))
    e = tuple(pool[int(rng.integers(0, len(pool)))] for _ in range(n))
    weights = None
    if kind == "phase":
        weights = tuple(int(rng.integers(0, p)) for _ in range(n))
    elif kind == "table":
        u = rng.random((n, 2, h))
        weights = u[:, 0] * np.exp(1j * (2 * np.pi * u[:, 1]))
    return corners, e, weights, int(rng.integers(1, p)) if lam is None else lam


@pytest.mark.parametrize("kind", ["unit", "phase", "table"])
@pytest.mark.parametrize("p", [3, 5, 101, 10007, 2**31 - 1])
def test_draw_spec_equals_per_coordinate_draws(p, kind):
    ctx = _context(p)
    pools = ([1], [-2, -1, 1, 2], [-3, -2, -1, 1, 2, 3, 4])
    for n in (2, 4, 7):
        for h in {1, min(p - 1, 8)}:
            for origin_box in (False, True):
                for trial, lam in enumerate((None, 5, 10**9 + 7)):
                    pool = pools[trial % len(pools)]
                    ours, ref = substream(11, p, n, h, trial), substream(11, p, n, h, trial)
                    spec = draw_spec(ours, ctx, n, h, pool, kind, origin_box, lam)
                    corners, e, weights, want_lam = _per_coordinate_draws(ref, p, n, h, pool, kind, origin_box, lam)
                    case = (n, h, origin_box, lam)
                    assert spec.box.k == corners and spec.box.h == h and spec.e.e == e, case
                    assert spec.lam == want_lam % p, case
                    if kind == "phase":
                        assert spec.weights.lambdas == weights, case
                    elif kind == "table":
                        assert np.array(spec.weights.tables).tobytes() == weights.tobytes(), case
                    else:
                        assert type(spec.weights) is UnitWeights
                    # Both ways leave the stream at the same place.
                    assert ours.bit_generator.state == ref.bit_generator.state, case
                    assert ours.random() == ref.random(), case
                    assert all(type(v) is int for v in (*spec.box.k, *spec.e.e, spec.lam)), case


def _bound_runs(p):
    """The runs of scalar draws that `harness.char_moment_shape_ratio` and verify's
    `char-moment-direct-recount`, `kloosterman-specialization` and `_random_spec_stream`
    (a grid prime's index and n, on grids of one and of six primes) take as one call."""
    if p > 3:  # h is drawn from [3, p)
        yield [1, 3, 0, 1], [p - 1, p, p, p]
    yield [1, 1, 0, 1], [p - 1, min(p, 9), p, p]
    for n in (2, 4, 7):
        yield [0] * n + [1], [p] * (n + 1)
    for primes in (1, 6):
        yield [0, 2], [primes, 5]


@pytest.mark.parametrize("p", [3, 5, 101, 10007, 2**31 - 1])
def test_one_call_of_bounds_equals_scalar_calls(p):
    for i, (lows, highs) in enumerate(_bound_runs(p)):
        for trial in range(20):
            ours, ref = substream(11, p, i, trial), substream(11, p, i, trial)
            got = ours.integers(lows, highs).tolist()
            assert got == [int(ref.integers(lo, hi)) for lo, hi in zip(lows, highs)], (lows, highs)
            assert all(type(v) is int for v in got)
            assert ours.bit_generator.state == ref.bit_generator.state
            assert ours.random() == ref.random()


def test_one_value_ranges_consume_no_draw():
    # At p = 3 the character range [1, p-1) holds one value: numpy returns the low end
    # without reading the stream, in one call of bounds or in a scalar call.
    for trial in range(20):
        ours, ref, untouched = substream(0, 3, trial), substream(0, 3, trial), substream(0, 3, trial)
        assert ours.integers([1, 1], [2, 2]).tolist() == [1, 1] == [int(ref.integers(1, 2)) for _ in range(2)]
        assert ours.bit_generator.state == ref.bit_generator.state == untouched.bit_generator.state
        assert ours.random() == ref.random()
