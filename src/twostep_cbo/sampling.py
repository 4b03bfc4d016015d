"""Shared quasi-Monte Carlo helpers.

Normal draws come from scrambled Sobol points pushed through the inverse
normal CDF. Scrambling is seeded, so every consumer is deterministic given its
seed. Restart designs use Latin hypercube sampling (seeded) or an unscrambled
Halton sequence (fixed).
"""

from __future__ import annotations

import numpy as np
from scipy import special
from scipy.stats import qmc

_UNIT_EPS = 1e-12


def sobol_unit(dim: int, count: int, seed) -> np.ndarray:
    """(count, dim) scrambled Sobol points; drawn in full 2^m blocks, truncated."""
    if count <= 0:
        return np.zeros((0, dim))
    sampler = qmc.Sobol(d=dim, scramble=True, seed=_as_rng(seed))
    m = int(np.ceil(np.log2(count)))
    return sampler.random_base2(m=m)[:count]


def sobol_normal(dim: int, count: int, seed) -> np.ndarray:
    """(count, dim) standard normal matrix from scrambled Sobol points."""
    u = np.clip(sobol_unit(dim, count, seed), _UNIT_EPS, 1.0 - _UNIT_EPS)
    return special.ndtri(u)


def latin_hypercube(count: int, bounds: np.ndarray, seed) -> np.ndarray:
    """(count, d) points from a seeded Latin hypercube, scaled to the box."""
    bounds = np.atleast_2d(bounds)
    d = bounds.shape[0]
    sampler = qmc.LatinHypercube(d=d, seed=_as_rng(seed))
    u = sampler.random(count)
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


def halton_design(count: int, bounds: np.ndarray) -> np.ndarray:
    """Fixed low-discrepancy design: unscrambled Halton, origin point dropped."""
    bounds = np.atleast_2d(bounds)
    d = bounds.shape[0]
    sampler = qmc.Halton(d=d, scramble=False)
    u = sampler.random(count + 1)[1:]
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


def _as_rng(seed) -> np.random.Generator:
    """A generator for seed. A SeedSequence is copied first: scipy's samplers
    spawn children from the generator's sequence, so building on the caller's
    object would make a second draw from it differ from the first."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
        )
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed))
