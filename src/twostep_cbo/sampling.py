"""Shared quasi-Monte Carlo helpers.

Normal draws come from scrambled Sobol points pushed through the inverse
normal CDF. Scrambling is seeded, so every consumer is deterministic given its
seed. Restart designs use Latin hypercube sampling (seeded) or an unscrambled
Halton sequence (fixed).

The samplers give the bits of scipy 1.17's scipy.stats.qmc (Sobol,
LatinHypercube, Halton) without importing scipy.stats, whose import costs
about as much as all other dependencies together. Each seeded one spawns a
child of the seed's generator, as scipy does, and draws from it in scipy's
order. Sobol uses Joe & Kuo's direction numbers (SIAM J. Sci. Comput. 2008),
read from the _sobol_direction_numbers.npz that scipy ships, with Matousek's
linear matrix scrambling and a digital shift (J. Complexity 1998).
tests/test_sampling.py checks every sampler against scipy.stats.qmc.
The inverse normal CDF is scipy.special.ndtri, imported on the first draw:
its compiled module runs the init of scipy.special, which loads numpy.f2py,
numpy.testing and numpy.ma, so a process that draws no normals (the q = 1
EIC loop, the oracles) never pays for it.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache
from math import isqrt

import numpy as np
import scipy

_UNIT_EPS = 1e-12
_BITS = 30  # scipy's default Sobol resolution: points are multiples of 2**-30
_POW2 = 2 ** np.arange(_BITS, dtype=np.uint32)


@lru_cache(maxsize=None)
def _sobol_table() -> tuple[np.ndarray, np.ndarray]:
    """Joe & Kuo's primitive polynomials and initial direction numbers."""
    path = os.path.join(os.path.dirname(scipy.__file__), "stats", "_sobol_direction_numbers.npz")
    with np.load(path) as table:
        return table["poly"], table["vinit"]


@lru_cache(maxsize=64)
def _direction_bits(dim: int) -> np.ndarray:
    """(dim, 30, 30) unscrambled direction numbers as bits, most significant
    first: [i, j, k] is bit 29 - k of the j-th number of dimension i, built
    by the recurrence of Bratley & Fox (ACM TOMS 1988). Read-only."""
    poly, vinit = _sobol_table()
    if dim > len(poly):
        raise ValueError(f"Maximum supported dimensionality is {len(poly)}.")
    v = np.ones((dim, _BITS), dtype=np.int64)
    for i in range(1, dim):
        p = int(poly[i])
        deg = p.bit_length() - 1
        row = [int(x) for x in vinit[i, :deg]]
        for j in range(deg, _BITS):
            new = row[j - deg]
            for k in range(deg):
                if (p >> (deg - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[i] = row
    v <<= np.arange(_BITS - 1, -1, -1)  # number j of a dimension is scaled by 2**(29 - j)
    bits = ((v[:, :, None] >> np.arange(_BITS - 1, -1, -1)) & 1).astype(float)
    bits.setflags(write=False)
    return bits


def sobol_unit(dim: int, count: int, seed) -> np.ndarray:
    """(count, dim) scrambled Sobol points; drawn in full 2^m blocks, truncated."""
    if count <= 0:
        return np.zeros((0, dim))
    rng = _as_rng(seed).spawn(1)[0]
    unscrambled = _direction_bits(dim)
    shift = rng.integers(2, size=(dim, _BITS), dtype=np.uint32) @ _POW2
    ltm = np.tril(rng.integers(2, size=(dim, _BITS, _BITS), dtype=np.uint32))
    ltm |= np.eye(_BITS, dtype=np.uint32)  # unit diagonal: the scramble is invertible
    # The scramble: each dimension's direction bits times its ltm, mod 2.
    bits = (unscrambled @ ltm.transpose(0, 2, 1)).astype(np.uint32) & 1
    directions = bits @ _POW2[::-1]
    # Gray-code order: point k is point k - 1 xor the direction numbers at
    # the lowest set bit of k, and point 0 is the shift.
    k = np.arange(1, 2 ** int(np.ceil(np.log2(count))))
    points = np.vstack([shift, np.take(directions.T, np.log2(k & -k).astype(np.intp), axis=0)])
    return np.bitwise_xor.accumulate(points, axis=0)[:count] * 2.0**-_BITS


def sobol_normal(dim: int, count: int, seed) -> np.ndarray:
    """(count, dim) standard normal matrix from scrambled Sobol points."""
    from scipy.special import ndtri  # the package's init, on the first draw

    u = np.clip(sobol_unit(dim, count, seed), _UNIT_EPS, 1.0 - _UNIT_EPS)
    return ndtri(u)


def latin_hypercube(count: int, bounds: np.ndarray, seed) -> np.ndarray:
    """(count, d) points from a seeded Latin hypercube, scaled to the box."""
    bounds = np.atleast_2d(bounds)
    d = bounds.shape[0]
    rng = _as_rng(seed).spawn(1)[0]
    jitter = rng.uniform(size=(count, d))
    strata = rng.permuted(np.tile(np.arange(1, count + 1), (d, 1)), axis=1)
    u = (strata.T - jitter) / count
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


@lru_cache(maxsize=64)
def _halton_unit(d: int, n: int) -> np.ndarray:
    """(n, d) unscrambled Halton points from index 0, one van der Corput
    sequence per prime base, digits summed as scipy sums them. Read-only."""
    primes = itertools.islice(
        (k for k in itertools.count(2) if all(k % p for p in range(2, isqrt(k) + 1))), d
    )
    u = np.zeros((n, d))
    for j, base in enumerate(primes):
        index, scale = np.arange(n), 1.0 / base
        while index.any():
            u[:, j] += (index % base) * scale
            scale /= base
            index //= base
    u.setflags(write=False)
    return u


def halton_design(count: int, bounds: np.ndarray) -> np.ndarray:
    """Fixed low-discrepancy design: unscrambled Halton, origin point dropped."""
    bounds = np.atleast_2d(bounds)
    u = _halton_unit(bounds.shape[0], count + 1)[1:]
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


def _as_rng(seed) -> np.random.Generator:
    """A generator for seed. A SeedSequence is copied first: the samplers
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
