import numpy as np
import pytest

from fastflock.geometry import pairwise


@pytest.mark.parametrize("n", [2, 6, 24])
def test_pairwise_matches_per_offset_norm(n):
    # The engine's logs depend on each distance rounding exactly as
    # np.linalg.norm rounds one offset, so equality here is exact.
    rng = np.random.default_rng(n)
    points = rng.normal(scale=40.0, size=(n, 2))
    rel, dist = pairwise(points)
    assert rel.shape == (n, n, 2) and dist.shape == (n, n)
    for i in range(n):
        for j in range(n):
            assert np.array_equal(rel[i, j], points[j] - points[i])
    expected = np.array(
        [[np.linalg.norm(points[j] - points[i]) for j in range(n)]
         for i in range(n)]
    )
    assert np.array_equal(dist, expected)
