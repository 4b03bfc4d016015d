"""QMC helper checks: determinism, balance, stratification, and the bits of
scipy.stats.qmc and scipy.special.ndtri, which the samplers reproduce without
importing them."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri
from scipy.stats import qmc

from twostep_cbo.sampling import (
    _EXPM2,
    _UNIT_EPS,
    _as_rng,
    _ndtri,
    halton_design,
    latin_hypercube,
    sobol_normal,
    sobol_unit,
)

BOUNDS = np.array([[0.0, 6.0], [-1.0, 1.0]])


def test_sobol_unit_range_and_shape():
    u = sobol_unit(3, 100, seed=5)
    assert u.shape == (100, 3)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_sobol_unit_deterministic_and_scramble_sensitive():
    a = sobol_unit(2, 64, seed=11)
    b = sobol_unit(2, 64, seed=11)
    c = sobol_unit(2, 64, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sobol_unit_empty():
    assert sobol_unit(4, 0, seed=0).shape == (0, 4)


def test_sobol_normal_marginals():
    # full 2^m block keeps the QMC balance, so moments are tight
    z = sobol_normal(2, 4096, seed=3)
    assert np.all(np.abs(z.mean(axis=0)) < 0.01)
    assert np.all(np.abs(z.std(axis=0) - 1.0) < 0.01)


def test_sobol_normal_ks_against_standard_normal():
    z = sobol_normal(1, 2048, seed=7).ravel()
    d, _ = stats.kstest(z, "norm")
    assert d < 0.02


def test_latin_hypercube_bounds_and_stratification():
    pts = latin_hypercube(50, BOUNDS, seed=9)
    assert pts.shape == (50, 2)
    assert np.all(pts >= BOUNDS[:, 0]) and np.all(pts <= BOUNDS[:, 1])
    # one point per axis-aligned stratum
    for j in range(2):
        u = (pts[:, j] - BOUNDS[j, 0]) / (BOUNDS[j, 1] - BOUNDS[j, 0])
        counts = np.bincount(np.minimum((u * 50).astype(int), 49), minlength=50)
        assert np.all(counts == 1)


def test_latin_hypercube_deterministic():
    a = latin_hypercube(20, BOUNDS, seed=21)
    b = latin_hypercube(20, BOUNDS, np.random.SeedSequence(21))
    assert np.array_equal(a, b)


def test_halton_design_fixed_and_in_box():
    a = halton_design(32, BOUNDS)
    b = halton_design(32, BOUNDS)
    assert np.array_equal(a, b)
    assert np.all(a > BOUNDS[:, 0]) and np.all(a < BOUNDS[:, 1])
    # origin dropped: no point sits on the lower corner
    assert np.min(np.linalg.norm(a - BOUNDS[:, 0], axis=1)) > 1e-6


def test_halton_design_prefix_property():
    a = halton_design(16, BOUNDS)
    b = halton_design(32, BOUNDS)
    assert np.allclose(a, b[:16])


def test_seed_sequence_reuse_matches_fresh_sequence():
    """A SeedSequence object drawn from twice gives the draws of a fresh one
    both times; the samplers must not advance the caller's sequence."""
    draws = (
        lambda seed: sobol_normal(3, 8, seed),
        lambda seed: latin_hypercube(5, BOUNDS, seed),
    )
    for draw in draws:
        ss = np.random.SeedSequence((4, 7))
        first, second = draw(ss), draw(ss)
        fresh = draw(np.random.SeedSequence((4, 7)))
        assert np.array_equal(first, fresh)
        assert np.array_equal(second, fresh)


# -- bit-for-bit agreement with scipy.stats.qmc, the reference the samplers
# reproduce without importing it ---------------------------------------------

DIMS = list(range(1, 13)) + [45]
COUNTS = (0, 1, 3, 16, 100, 2048, 8192)
SEEDS = (  # factories, so the package and scipy each get a fresh seed object
    lambda: 17,
    lambda: np.random.SeedSequence((3, 4)),
    lambda: np.random.default_rng(29),
)


def _box(d):
    return np.column_stack([-0.5 * np.arange(1, d + 1), 1.5 * np.arange(1, d + 1)])


def _scaled(u, bounds):
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


def _scipy_sobol(dim, count, seed):
    if count <= 0:
        return np.zeros((0, dim))
    sampler = qmc.Sobol(d=dim, scramble=True, seed=_as_rng(seed))
    return sampler.random_base2(m=int(np.ceil(np.log2(count))))[:count]


def _scipy_lhs(count, bounds, seed):
    return _scaled(qmc.LatinHypercube(d=len(bounds), seed=_as_rng(seed)).random(count), bounds)


def _scipy_halton(count, bounds):
    return _scaled(qmc.Halton(d=len(bounds), scramble=False).random(count + 1)[1:], bounds)


def _same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("dim", DIMS)
def test_sobol_unit_matches_scipy_bit_for_bit(dim):
    for count in COUNTS:
        for seed in SEEDS:
            assert _same(sobol_unit(dim, count, seed()), _scipy_sobol(dim, count, seed()))


@pytest.mark.parametrize("d", DIMS)
def test_latin_hypercube_matches_scipy_bit_for_bit(d):
    for count in COUNTS:
        for seed in SEEDS:
            assert _same(latin_hypercube(count, _box(d), seed()), _scipy_lhs(count, _box(d), seed()))


@pytest.mark.parametrize("d", DIMS)
def test_halton_design_matches_scipy_bit_for_bit(d):
    for count in COUNTS:
        assert _same(halton_design(count, _box(d)), _scipy_halton(count, _box(d)))


def test_generator_seed_spawns_a_new_child_per_call_as_scipy_does():
    ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
    first = sobol_unit(3, 16, ours)
    assert _same(first, _scipy_sobol(3, 16, theirs))
    second = sobol_unit(3, 16, ours)
    assert _same(second, _scipy_sobol(3, 16, theirs))
    assert not np.array_equal(first, second)
    box = _box(3)
    first, second = latin_hypercube(9, box, ours), latin_hypercube(9, box, ours)
    assert _same(first, _scipy_lhs(9, box, theirs))
    assert _same(second, _scipy_lhs(9, box, theirs))
    assert not np.array_equal(first, second)


def test_sobol_unit_rejects_dimensions_above_scipys_limit():
    with pytest.raises(ValueError):
        qmc.Sobol(d=qmc.Sobol.MAXDIM + 1, seed=0)
    with pytest.raises(ValueError, match="Maximum supported dimensionality"):
        sobol_unit(qmc.Sobol.MAXDIM + 1, 4, 0)


# -- bit-for-bit agreement with scipy.special.ndtri --------------------------

CLIP = (_UNIT_EPS, 1.0 - _UNIT_EPS)


def test_ndtri_matches_scipy_bit_for_bit():
    """On 2^20 seeded multiples of 2^-30 (the Sobol resolution) inside the
    clip, both clip bounds, and exp(-2) and 1 - exp(-2), where the branches
    meet, with their neighbours."""
    grid = np.random.default_rng(20).integers(1, 2**30, size=2**20) * 2.0**-30
    edges = [
        np.nextafter(e, step) for e in (_EXPM2, 1.0 - _EXPM2) for step in (0.0, e, 1.0)
    ]
    u = np.concatenate([np.clip(grid, *CLIP), CLIP, edges])
    assert _same(_ndtri(u), ndtri(u))


def test_ndtri_takes_libms_log():
    """numpy's log and libm's differ at this pin on the measured x86-64 build
    (numpy 2.4's AVX-512 log, glibc 2.36), and an ndtri on np.log gives
    another value there: the tail's log must be math.log."""
    u = np.array([87894331 * 2.0**-30, 1.0 - 87894331 * 2.0**-30])
    assert _same(_ndtri(u), ndtri(u))


@pytest.mark.parametrize("dim", range(1, 9))
def test_sobol_normal_matches_scipy_ndtri_bit_for_bit(dim):
    for count in (1, 3, 16, 100, 2048, 8192):
        for seed in SEEDS:
            u = np.clip(sobol_unit(dim, count, seed()), *CLIP)
            assert _same(sobol_normal(dim, count, seed()), ndtri(u))


def test_sobol_normal_clip_stays_below_cephes_third_branch():
    """Cephes takes its third branch, which _ndtri leaves out, where
    sqrt(-2 log y) >= 8 for y = min(u, 1 - u). Both clip bounds stay below
    it, so a smaller _UNIT_EPS fails here rather than change the bits
    unseen."""
    for y in (_UNIT_EPS, 1.0 - (1.0 - _UNIT_EPS)):
        assert math.sqrt(-2.0 * math.log(y)) < 8.0
