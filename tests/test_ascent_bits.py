"""The shared projected ascent against its indexed reference, bit for bit.

projected_ascent keeps the active rows compact and writes them back only as
they retire; ref_projected_ascent gathers and scatters the full arrays every
step. The arithmetic of each row is the same, so through each of the three
evaluators the points, the values and the rows of every evaluate call must
agree exactly, including rows that retire early and calls in which every row
retires before the step budget runs out.
"""

import numpy as np
import pytest

from oracle_utils import make_gp_instance, random_x1, ref_projected_ascent
from twostep_cbo.acquisition import _eic_pass, eic_grad, projected_ascent
from twostep_cbo.gp import sq_dist
from twostep_cbo.lookahead import FantasyEngine
from twostep_cbo.loop import _neg_mean_pass
from twostep_cbo.sampling import halton_design, latin_hypercube


def _same_ascent(evaluate, P, bounds, first_move, steps):
    """Run both ascents from P; check they agree and return the rows of
    each evaluate call."""
    runs = []
    for ascent in (projected_ascent, ref_projected_ascent):
        calls = []

        def logged(X, rows):
            calls.append(rows.copy())
            return evaluate(X, rows)

        X, vals = ascent(logged, P.copy(), bounds, first_move, steps)
        runs.append((X, vals, calls))
    (X, vals, calls), (X_ref, vals_ref, calls_ref) = runs
    np.testing.assert_array_equal(X, X_ref)
    np.testing.assert_array_equal(vals, vals_ref)
    assert len(calls) == len(calls_ref)
    for rows, rows_ref in zip(calls, calls_ref):
        np.testing.assert_array_equal(rows, rows_ref)
    return calls


# Instances on a box this wide put most of it beyond the reach of the kernel
# (lengthscales at most 1.8, so the kernel underflows to zero past a distance
# of 70): there a start's gradient is exactly zero.
WIDE = (0.0, 2000.0)


def _instances(d, n_constraints=1, seeds=range(3)):
    """Seeded instances on the usual box, then one on the wide box: (bundle,
    bounds, wide)."""
    for seed in seeds:
        yield *make_gp_instance(seed, d=d, n_constraints=n_constraints), False
    yield *make_gp_instance(seeds[0], d=d, n_constraints=n_constraints, box=WIDE), True


def _far_start(bounds, points):
    """The Halton row farthest from points, at least 100 away."""
    design = halton_design(64, bounds)
    gap = np.sqrt(sq_dist(design[:, None, :], points[None, :, :]).min(axis=1))
    assert gap.max() >= 100.0
    return design[np.argmax(gap)]


def _with_far(P, far):
    return P if far is None else np.vstack([P, far])


def _retired_at_once(calls, row):
    """The row was in the first step's call and in none after it."""
    assert row in calls[1]
    assert all(row not in rows for rows in calls[2:])


@pytest.mark.parametrize("d", [1, 2, 4])
def test_mean_polish_ascent_keeps_its_bits(d):
    for bundle, bounds, wide in _instances(d):
        model = bundle.objective
        far = _far_start(bounds, model.train_inputs) if wide else None
        P = _with_far(np.vstack([model.train_inputs, halton_design(40, bounds)]), far)
        calls = _same_ascent(lambda X, rows: _neg_mean_pass(model, X), P, bounds, 0.1, 20)
        if far is not None:
            far_rows = model.mean_row_grads(far[None], model.mean_rows(far[None]))
            np.testing.assert_array_equal(far_rows["dmean"], 0.0)
            _retired_at_once(calls, len(P) - 1)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_eic_ascent_keeps_its_bits(d):
    for bundle, bounds, wide in _instances(d, n_constraints=2):
        far = _far_start(bounds, bundle.objective.train_inputs) if wide else None
        starts = latin_hypercube(20, bounds, np.random.SeedSequence((d, 19)))
        P = _with_far(np.vstack([starts, bundle.incumbent_point]), far)
        calls = _same_ascent(lambda X, rows: _eic_pass(bundle, X), P, bounds, 0.15, 60)
        if far is not None:
            np.testing.assert_array_equal(eic_grad(bundle, far)[1], 0.0)
            _retired_at_once(calls, len(P) - 1)


@pytest.mark.parametrize("d,q", [(1, 1), (2, 2), (4, 1)])
def test_inner_solve_ascent_keeps_its_bits(d, q):
    for bundle, bounds, wide in _instances(d, seeds=range(2)):
        X1 = random_x1(0, bounds, q, bundle)
        engine = FantasyEngine(bundle, X1)
        far = _far_start(bounds, np.vstack([bundle.objective.train_inputs, X1])) if wide else None
        batch = engine.sample(4, (d, 94))
        starts = _with_far(halton_design(6, bounds), far)
        P = np.tile(starts, (batch.n, 1))
        idx = np.repeat(np.arange(batch.n), len(starts))
        calls = _same_ascent(
            lambda X, rows: engine._alpha_pass(batch, idx[rows], X), P, bounds, 0.15, 30
        )
        if far is not None:
            _, grad = engine._alpha_pass(batch, idx[-1:], far[None])
            np.testing.assert_array_equal(grad(np.ones(1, dtype=bool)), 0.0)
            _retired_at_once(calls, len(P) - 1)


def test_ascent_where_every_row_retires_before_the_last_step():
    bundle, bounds = make_gp_instance(1)
    model = bundle.objective
    P = halton_design(12, bounds)
    steps = 400
    calls = _same_ascent(lambda X, rows: _neg_mean_pass(model, X), P, bounds, 0.1, steps)
    assert len(calls) < 1 + steps
