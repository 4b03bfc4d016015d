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
the dimensions a draw needs read from the _sobol_direction_numbers.npz that
scipy ships, with Matousek's linear matrix scrambling and a digital shift
(J. Complexity 1998).
tests/test_sampling.py checks every sampler against scipy.stats.qmc.

The inverse normal CDF is _ndtri, the Cephes ndtri (Moshier, Methods and
Programs for Mathematical Functions, 1989) that scipy 1.17 compiles as
scipy.special.ndtri, with the same operations in the same order, so its
values carry the same bits. Its log is libm's, math.log on the tail values:
numpy's SIMD log differs from libm's by an ulp on some inputs, and ndtri's
value then with it. Importing scipy.special would run its package's init
(_scipy_routines), about 0.2 s and 15 MB at the first draw.
Tests: test_ndtri_matches_scipy_bit_for_bit, test_ndtri_takes_libms_log,
test_sobol_normal_matches_scipy_ndtri_bit_for_bit and
test_sobol_normal_clip_stays_below_cephes_third_branch.
"""

from __future__ import annotations

import itertools
import math
import os
import zipfile
from functools import lru_cache

import numpy as np

from ._scipy_routines import scipy_file

_UNIT_EPS = 1e-12
_BITS = 30  # scipy's default Sobol resolution: points are multiples of 2**-30
_POW2 = 2 ** np.arange(_BITS, dtype=np.uint32)

# Cephes ndtri's constants. Q0 and Q1 carry the leading 1 that Cephes' p1evl
# implies: 1.0 * x + c is x + c, bit for bit.
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016,
)
_Q0 = (
    1.0, 1.95448858338141759834, 4.67627912898881538453, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142,
)
_P1 = (
    4.05544892305962419923, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)


def _sobol_table(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Joe & Kuo's primitive polynomials and initial direction numbers of the
    first dim dimensions, (dim,) and (dim, degree), read from the .npy
    members of scipy's npz through their headers, without the rest of the
    table (21,201 dimensions, 3.4 MB). vinit.npy is Fortran-ordered, so each
    column needed is read for its first dim entries and the rest is skipped.
    scipy's limit is the table's length in the header."""
    with zipfile.ZipFile(scipy_file("stats", "_sobol_direction_numbers.npz")) as table:
        with table.open("poly.npy") as f:
            (limit,), _, dtype = _npy_header(f)
            if dim > limit:
                raise ValueError(f"Maximum supported dimensionality is {limit}.")
            poly = np.frombuffer(f.read(dim * dtype.itemsize), dtype)
        degree = int(poly.max(initial=1)).bit_length() - 1
        with table.open("vinit.npy") as f:
            (limit, _), _, dtype = _npy_header(f)
            columns = []
            for _ in range(degree):
                columns.append(np.frombuffer(f.read(dim * dtype.itemsize), dtype))
                f.seek((limit - dim) * dtype.itemsize, os.SEEK_CUR)
    return poly, np.array(columns, dtype=np.int64).reshape(degree, dim).T


def _npy_header(f) -> tuple:
    """(shape, fortran_order, dtype) from the header of an open .npy file."""
    major, minor = np.lib.format.read_magic(f)
    return getattr(np.lib.format, f"read_array_header_{major}_{minor}")(f)


@lru_cache(maxsize=64)
def _direction_bits(dim: int) -> np.ndarray:
    """(dim, 30, 30) unscrambled direction numbers as bits, most significant
    first: [i, j, k] is bit 29 - k of the j-th number of dimension i, built
    by the recurrence of Bratley & Fox (ACM TOMS 1988). Read-only."""
    poly, vinit = _sobol_table(dim)
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
    """(count, dim) standard normal matrix: scrambled Sobol points clipped to
    [_UNIT_EPS, 1 - _UNIT_EPS], so every value is finite, through _ndtri, which
    gives scipy.special.ndtri's bits there with libm's log
    (test_sobol_normal_matches_scipy_ndtri_bit_for_bit)."""
    return _ndtri(np.clip(sobol_unit(dim, count, seed), _UNIT_EPS, 1.0 - _UNIT_EPS))


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule from coef[0], as Cephes' polevl."""
    value = coef[0] * x + coef[1]
    for c in coef[2:]:
        value *= x
        value += c
    return value


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The inverse normal CDF at u, with the bits of scipy 1.17's ndtri for u
    in [_UNIT_EPS, 1 - _UNIT_EPS]. u above 1 - exp(-2) is flipped to
    y = 1 - u. For y above exp(-2) the value is a rational function of
    (y - 1/2)^2; in the tail it is one of 1/sqrt(-2 log y), negated unless u
    was flipped. Cephes' third branch, for sqrt(-2 log y) of 8 or more, is
    left out: the domain keeps y at or above 1e-12, where it is below 7.44
    (test_sobol_normal_clip_stays_below_cephes_third_branch)."""
    flip = u > 1.0 - _EXPM2
    y = np.where(flip, 1.0 - u, u)
    # The middle branch, y > exp(-2), everywhere; the tail overwrites its rows.
    m = y - 0.5
    m2 = m * m
    x = (m + m * (m2 * _polevl(m2, _P0) / _polevl(m2, _Q0))) * _S2PI
    tail = np.nonzero(y <= _EXPM2)
    t = np.sqrt(-2.0 * _log(y[tail]))
    z = 1.0 / t
    t = t - _log(t) / t - z * _polevl(z, _P1) / _polevl(z, _Q1)
    x[tail] = np.where(flip[tail], t, -t)
    return x


def _log(a: np.ndarray) -> np.ndarray:
    """libm's log, elementwise (math.log), as Cephes calls it."""
    return np.fromiter(map(math.log, a.tolist()), float, a.size)


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
        (k for k in itertools.count(2) if all(k % p for p in range(2, math.isqrt(k) + 1))), d
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
