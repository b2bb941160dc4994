"""numpy's batched bounded draws equal its scalar ones.

``StreamBuilder.code_burst`` draws a burst's stack-local offsets as one
``rng.integers(0, 64, size=n)`` batch where the generator once drew
them one ``rng.integers(0, 64)`` call at a time.  Every trace depends
on the two being the same stream, values and generator position both:
a numpy release that changes either must fail here, not silently
change every figure.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.mark.parametrize("seed", [0, 1, 1234, 2**32 + 7])
@pytest.mark.parametrize("n", [0, 1, 7, 300])
def test_batched_draw_matches_scalar_draws(seed, n):
    scalar_rng = np.random.default_rng(seed)
    batch_rng = np.random.default_rng(seed)
    scalar = [int(scalar_rng.integers(0, 64)) for _ in range(n)]
    batch = batch_rng.integers(0, 64, size=n)
    assert batch.tolist() == scalar
    # Same position afterwards: the next draw of either kind agrees.
    assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state
    assert int(batch_rng.integers(0, 64)) == int(scalar_rng.integers(0, 64))
    assert float(batch_rng.random()) == float(scalar_rng.random())


@pytest.mark.parametrize("seed", [3, 99])
def test_interleaved_batches_match_scalar_stream(seed):
    """Batches between other draws (as in a burst) keep the stream."""
    scalar_rng = np.random.default_rng(seed)
    batch_rng = np.random.default_rng(seed)
    for n in (5, 0, 1, 7, 40):
        assert float(batch_rng.random()) == float(scalar_rng.random())
        assert int(batch_rng.integers(2, 9)) == int(scalar_rng.integers(2, 9))
        scalar = [int(scalar_rng.integers(0, 64)) for _ in range(n)]
        assert batch_rng.integers(0, 64, size=n).tolist() == scalar
    assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state
