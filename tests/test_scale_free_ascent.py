"""The shared projected ascent must not depend on the units of what it climbs.

A change of units multiplies the targets by c and the prior's signal variance
by c**2, so the posterior mean and the constrained expected improvement both
scale by c and their maximizers stay put. The ascent's step rules are in box
widths, so the points it returns must agree across units to rounding.
"""

import numpy as np
import pytest

from oracle_utils import make_gp_instance
from twostep_cbo.acquisition import PosteriorBundle, maximize_eic, projected_ascent
from twostep_cbo.gp import GPModel, KernelParams
from twostep_cbo.loop import _polish_mean_descent

SCALES = (1e-5, 1e5)


def _in_units(model: GPModel, c: float) -> GPModel:
    params = KernelParams(model.kernel.signal_variance * c**2, model.kernel.lengthscales)
    return GPModel.fit(model.train_inputs, c * model.train_targets, params)


@pytest.mark.parametrize("seed", range(6))
def test_mean_descent_is_scale_free(seed):
    bundle, bounds = make_gp_instance(seed)
    width = bounds[0, 1] - bounds[0, 0]
    starts = np.array([[1.0], [3.0], [5.0]])
    base = _polish_mean_descent(bundle.objective, starts, bounds)
    for c in SCALES:
        moved = _polish_mean_descent(_in_units(bundle.objective, c), starts, bounds)
        assert np.max(np.abs(moved - base)) <= 1e-8 * width, c


@pytest.mark.parametrize("seed", range(6))
def test_maximize_eic_is_scale_free(seed):
    bundle, bounds = make_gp_instance(seed)
    width = bounds[0, 1] - bounds[0, 0]
    base = maximize_eic(bundle, bounds, seed)
    for c in SCALES:
        scaled = PosteriorBundle.from_models(_in_units(bundle.objective, c), bundle.constraints)
        x = maximize_eic(scaled, bounds, seed)
        assert np.max(np.abs(x - base)) <= 1e-6 * width, c


def _climb_parabola(c, starts):
    """Ascent of -c (x - 2)^2 on [0, 6] with the polish's settings."""

    def evaluate(X, rows):
        return -c * (X[:, 0] - 2.0) ** 2, lambda keep: -2.0 * c * (X[keep] - 2.0)

    bounds = np.array([[0.0, 6.0]])
    return projected_ascent(evaluate, starts, bounds, first_move=0.1, steps=20)[0]


@pytest.mark.parametrize("c", [1e-30, 1e30])
def test_ascent_is_scale_free_on_tiny_and_huge_gradients(c):
    # At c = 1e-30 the box-unit gradient is about 1e-29: a first step that
    # divides by the gradient plus a fixed offset barely moves and retires.
    starts = np.array([[1.0], [5.0]])
    base = _climb_parabola(1.0, starts)
    assert np.max(np.abs(_climb_parabola(c, starts) - base)) <= 1e-8 * 6.0
    assert np.max(np.abs(base - 2.0)) <= 1e-3


def test_ascent_keeps_a_zero_gradient_row():
    starts = np.array([[2.0], [1.0]])
    X = _climb_parabola(1.0, starts)
    assert np.all(np.isfinite(X))
    assert X[0, 0] == 2.0
