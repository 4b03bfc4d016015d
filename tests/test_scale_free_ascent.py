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


def test_a_row_clipped_back_to_its_own_point_retires():
    # Two rows climb x on [0, 1]: on the plateau x < 0.5 the slope is 1e-200,
    # so the row starting there takes a first step of 1e199 box widths; past
    # 0.5 the slope is 1 and that step throws it to the edge. From then on
    # every candidate of either row is clipped back to 1.0, its own point.
    # Each row spends one pass there, then retires.
    tiny = 1e-200
    calls = []

    def evaluate(X, rows):
        calls.append((rows.copy(), X[:, 0].copy()))
        slope = X[:, 0] >= 0.5
        vals = np.where(slope, X[:, 0] - 0.5 + 0.5 * tiny, tiny * X[:, 0])
        return vals, lambda keep: np.where(slope[keep], 1.0, tiny)[:, None]

    starts = np.array([[0.1], [0.7]])
    X, vals = projected_ascent(evaluate, starts, np.array([[0.0, 1.0]]), 0.1, 20)
    np.testing.assert_array_equal(X, [[1.0], [1.0]])
    np.testing.assert_array_equal(vals, [0.5 + 0.5 * tiny] * 2)
    for row in (0, 1):
        seen = [x[rows == row] for rows, x in calls if row in rows]
        at_edge = [i for i, x in enumerate(seen) if x[0] == 1.0]
        # reached the edge, was proposed it once more, and was not seen again
        assert at_edge == [len(seen) - 2, len(seen) - 1], (row, seen)


def test_a_rejected_row_with_an_infinite_step_retires():
    # A first move of 1e10 box widths over a slope of 1e-300 overflows the
    # step to inf, so the candidate is the edge 1.0 whatever the step; the
    # edge is worse, and halving inf leaves inf: the row would propose the
    # same rejected edge at every step. It spends one pass there.
    calls = []

    def evaluate(X, rows):
        calls.append(rows.copy())
        x = X[:, 0]
        vals = np.where(x < 0.5, 1e-300 * x, 0.5e-300 - (x - 0.5))
        return vals, lambda keep: np.where(x[keep] < 0.5, 1e-300, -1.0)[:, None]

    with np.errstate(over="ignore"):
        X, vals = projected_ascent(evaluate, np.array([[0.1]]), np.array([[0.0, 1.0]]), 1e10, 20)
    assert len(calls) == 2
    np.testing.assert_array_equal(X, [[0.1]])
    np.testing.assert_array_equal(vals, [1e-301])
