"""QMC helper checks: determinism, balance, stratification."""

import numpy as np
from scipy import stats

from twostep_cbo.sampling import halton_design, latin_hypercube, sobol_normal, sobol_unit

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
