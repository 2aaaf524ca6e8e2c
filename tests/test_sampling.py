"""Stream contract of the instance generator: a seed and cell key fix every draw."""

import pytest

from boxsums.modular import build_context
from boxsums.sampling import draw_exponents, draw_spec, substream
from boxsums.sums import PhaseWeights, TableWeights, UnitWeights

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
