"""Stream contract of the instance generator: a seed and cell key fix every draw."""

import numpy as np
import pytest

from boxsums.modular import build_context
from boxsums.sampling import draw_exponents, draw_spec, draw_weights, substream
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
    ours, ref = substream(5, len(pool)), substream(5, len(pool))
    got = draw_exponents(ours, pool, 1000).e
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


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("h", [1, 8])
def test_table_weights_are_per_coordinate_uniform_draws(n, h):
    ours, ref = substream(3, n, h), substream(3, n, h)
    got = draw_weights(ours, "table", 101, n, h).tables
    want = []
    for _ in range(n):
        mag = ref.uniform(0.0, 1.0, size=h)
        arg = ref.uniform(0.0, 2 * np.pi, size=h)
        want.append(mag * np.exp(1j * arg))
    assert len(got) == n
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert ours.random() == ref.random()
