"""The gradients that the three maximizers' ascents take from the terms of
their value pass, against fresh evaluations of the same rows.

projected_ascent scores every candidate in one value pass and asks for the
gradients of the accepted ones through grad(keep), which the evaluators serve
from the terms that pass kept. Rows are independent of each other, so the kept
rows must give the bits of a fresh gradient evaluation, and the kernel must
meet each row against the data once: no accepted row is evaluated again.
"""

import numpy as np
import pytest

from oracle_utils import assert_rows_close, make_gp_instance, random_x1
from twostep_cbo import acquisition, gp, lookahead, loop
from twostep_cbo.acquisition import PosteriorBundle, _eic_pass, eic_grad, eic_many, maximize_eic
from twostep_cbo.gp import GPModel, KernelParams
from twostep_cbo.lookahead import FantasyEngine, TwoStepConfig
from twostep_cbo.loop import _neg_mean_pass
from twostep_cbo.sampling import halton_design


def _keeps(seed, rows):
    """A random half of the rows, then a single row: a one-row gradient half
    pads its GEMMs to two rows and must give that row's bits."""
    rng = np.random.default_rng((seed, 77))
    return [rng.random(rows) < 0.5, np.arange(rows) == rng.integers(rows)]


@pytest.mark.parametrize("q,n_constraints", [(1, 1), (2, 2)])
def test_engine_pass_gradients_equal_a_fresh_alpha_rows(q, n_constraints):
    for seed in range(4):
        bundle, bounds = make_gp_instance(seed, d=2, n_constraints=n_constraints)
        engine = FantasyEngine(bundle, random_x1(seed, bounds, q, bundle))
        batch = engine.sample(5, (seed, 91))
        X = halton_design(40, bounds)
        idx = np.random.default_rng((seed, 92)).integers(0, batch.n, len(X))
        values, grad = engine._alpha_pass(batch, idx, X)
        np.testing.assert_array_equal(values, engine.alpha_rows(X, idx, batch))
        every = engine.alpha_rows(X, idx, batch, True)[1]
        for keep in _keeps(seed, len(X)):
            fresh = engine.alpha_rows(X[keep], idx[keep], batch, True)[1]
            np.testing.assert_array_equal(grad(keep), fresh)
            np.testing.assert_array_equal(fresh, every[keep])


def test_eic_pass_gradients_equal_a_fresh_eic_grad():
    for seed in range(4):
        bundle, bounds = make_gp_instance(seed, d=2, n_constraints=2)
        data = bundle.objective.train_inputs[:2]
        X = np.vstack([halton_design(40, bounds), data, data + 1e-5])
        values, grad = _eic_pass(bundle, X)
        np.testing.assert_array_equal(values, eic_many(bundle, X))
        for keep in _keeps(seed, len(X)):
            np.testing.assert_array_equal(grad(keep), eic_grad(bundle, X[keep])[1])


def test_mean_polish_pass_gradients_equal_a_fresh_mean_rows():
    for seed in range(4):
        bundle, bounds = make_gp_instance(seed, d=2)
        model = bundle.objective
        X = halton_design(40, bounds)
        values, grad = _neg_mean_pass(model, X)
        np.testing.assert_array_equal(values, -model.mean_rows(X)["mean"])
        for keep in _keeps(seed, len(X)):
            fresh = model.mean_row_grads(X[keep], model.mean_rows(X[keep]))
            np.testing.assert_array_equal(grad(keep), -fresh["dmean"])


# The three pass tests above at 32 to 64 data points, where a row's bits can
# move with the rows that share its GEMM: within ROW_RTOL (oracle_utils) in
# units of the objective's signal variance.
SIZES_PAST_31 = [32, 47, 64]


def _instance_past_31(n):
    bundle, bounds = make_gp_instance(n, d=2, n_constraints=2, n_lo=n, n_hi=n)
    return bundle, bounds, bundle.objective.kernel.signal_variance


@pytest.mark.parametrize("n", SIZES_PAST_31)
def test_engine_pass_gradients_stay_close_to_a_fresh_alpha_rows_past_31_points(n):
    bundle, bounds, sv = _instance_past_31(n)
    engine = FantasyEngine(bundle, random_x1(n, bounds, 2, bundle))
    batch = engine.sample(5, (n, 91))
    X = halton_design(40, bounds)
    idx = np.random.default_rng((n, 92)).integers(0, batch.n, len(X))
    values, grad = engine._alpha_pass(batch, idx, X)
    assert_rows_close(values, engine.alpha_rows(X, idx, batch), sv)
    every = engine.alpha_rows(X, idx, batch, True)[1]
    for keep in _keeps(n, len(X)):
        fresh = engine.alpha_rows(X[keep], idx[keep], batch, True)[1]
        assert_rows_close(grad(keep), fresh, sv)
        assert_rows_close(fresh, every[keep], sv)


@pytest.mark.parametrize("n", SIZES_PAST_31)
def test_eic_pass_gradients_stay_close_to_a_fresh_eic_grad_past_31_points(n):
    bundle, bounds, sv = _instance_past_31(n)
    data = bundle.objective.train_inputs[:2]
    X = np.vstack([halton_design(40, bounds), data, data + 1e-5])
    values, grad = _eic_pass(bundle, X)
    assert_rows_close(values, eic_many(bundle, X), sv)
    for keep in _keeps(n, len(X)):
        assert_rows_close(grad(keep), eic_grad(bundle, X[keep])[1], sv)


@pytest.mark.parametrize("n", SIZES_PAST_31)
def test_mean_polish_pass_gradients_stay_close_to_a_fresh_mean_rows_past_31_points(n):
    bundle, bounds, sv = _instance_past_31(n)
    model = bundle.objective
    X = halton_design(40, bounds)
    values, grad = _neg_mean_pass(model, X)
    assert_rows_close(values, -model.mean_rows(X)["mean"], sv)
    for keep in _keeps(n, len(X)):
        fresh = model.mean_row_grads(X[keep], model.mean_rows(X[keep]))
        assert_rows_close(grad(keep), -fresh["dmean"], sv)


def _count_data_kernel_rows(monkeypatch, models):
    """Count the model-rows that gp.kernel_matrix meets against the training
    inputs of models while counting is switched on: a call on a stack of
    models (a model axis on params) meets each row once per model."""
    state = {"on": False, "rows": 0}
    original = gp.kernel_matrix

    def counting(params, A, B):
        if state["on"] and any(B is m.train_inputs for m in models):
            state["rows"] += len(np.atleast_2d(A)) * np.size(params.signal_variance)
        return original(params, A, B)

    monkeypatch.setattr(gp, "kernel_matrix", counting)
    return state


def test_inner_solve_meets_the_kernel_once_per_value_row(monkeypatch):
    bundle, bounds = make_gp_instance(3, d=2, n_constraints=2)
    engine = FantasyEngine(bundle, random_x1(3, bounds, 2, bundle))
    batch = engine.sample(6, (3, 93))
    state = _count_data_kernel_rows(monkeypatch, engine.models)
    value_rows, factor_rows = [0], [0]
    original_alpha_rows = FantasyEngine.alpha_rows
    original_ascent = lookahead.projected_ascent
    original_factors = acquisition.ei_pf_factors

    def counting_alpha_rows(self, P, idx, batch, grads=False, *args, **kwargs):
        if not grads:
            value_rows[0] += len(np.atleast_2d(P))
        return original_alpha_rows(self, P, idx, batch, grads, *args, **kwargs)

    def counting_factors(improvement, *args, **kwargs):
        if state["on"]:
            factor_rows[0] += np.size(improvement[0])
        return original_factors(improvement, *args, **kwargs)

    def counted_ascent(*args, **kwargs):
        state["on"] = True  # the probe sweep before the ascent is not counted
        try:
            return original_ascent(*args, **kwargs)
        finally:
            state["on"] = False

    monkeypatch.setattr(FantasyEngine, "alpha_rows", counting_alpha_rows)
    monkeypatch.setattr(lookahead, "projected_ascent", counted_ascent)
    for module in (acquisition, lookahead):
        monkeypatch.setattr(module, "ei_pf_factors", counting_factors)
    engine.solve_inner_batch(batch, bounds, TwoStepConfig(inner_steps=20))
    assert value_rows[0] > 0
    assert state["rows"] == engine.n_blocks * value_rows[0]
    # EI x PF is formed once per value row: the gradients continue from it
    assert factor_rows[0] == value_rows[0]


def _count_gradient_calls(monkeypatch):
    """Record the row count of every gp.kernel_grad_first_from call and the
    number of GPModel.row_grads calls."""
    counts = {"kernel_grad_rows": [], "row_grads": 0}
    original_kernel_grad, original_row_grads = gp.kernel_grad_first_from, GPModel.row_grads

    def counting_kernel_grad(params, A, *args, **kwargs):
        counts["kernel_grad_rows"].append(len(np.atleast_2d(A)))
        return original_kernel_grad(params, A, *args, **kwargs)

    def counting_row_grads(self, *args, **kwargs):
        counts["row_grads"] += 1
        return original_row_grads(self, *args, **kwargs)

    monkeypatch.setattr(gp, "kernel_grad_first_from", counting_kernel_grad)
    monkeypatch.setattr(GPModel, "row_grads", counting_row_grads)
    return counts


def test_lr_gradients_make_no_data_kernel_gradient_call(monkeypatch):
    """The LR rows take the value half of _stage1 and A: lr_gradients meets
    the kernel gradient against the training inputs once per block, on the
    engine's own E*q batch rows, and never on the LR rows."""
    bundle, bounds = make_gp_instance(3, d=2, n_constraints=2)
    counts = _count_gradient_calls(monkeypatch)
    engine = FantasyEngine(bundle, random_x1(3, bounds, 2, bundle))
    batch = engine.sample(6, (3, 94))
    assert batch.n != engine.E * engine.q  # the two row counts differ
    G = engine.lr_gradients(batch, halton_design(batch.n, bounds))
    assert counts["kernel_grad_rows"] == [engine.E * engine.q] * engine.n_blocks
    assert G.shape == (batch.n, 2, 2) and np.all(np.isfinite(G))


def test_value_only_engines_build_no_gradient_terms(monkeypatch):
    """batch_eic_mc and greedy_batch_eic read only the draws: no kernel
    gradient and no row_grads call. estimate_value's inner solve takes the
    x2-gradients (row_grads) but no kernel gradient at the batch points."""
    bundle, bounds = make_gp_instance(3, d=2, n_constraints=2)
    X1 = np.stack([random_x1((3, k), bounds, 2, bundle) for k in range(3)])
    counts = _count_gradient_calls(monkeypatch)
    acquisition.batch_eic_mc(bundle, X1, n_samples=64, seed=5)
    acquisition.greedy_batch_eic(bundle, bounds, 2, 5)
    assert counts == {"kernel_grad_rows": [], "row_grads": 0}
    lookahead.estimate_value(bundle, X1, bounds, TwoStepConfig(inner_steps=5), [0, 1, 2], 16)
    assert counts["kernel_grad_rows"] == [] and counts["row_grads"] > 0


def test_maximize_eic_meets_the_kernel_once_per_value_row(monkeypatch):
    bundle, bounds = make_gp_instance(3, d=2, n_constraints=2)
    models = (bundle.objective, *bundle.active_constraints)
    state = _count_data_kernel_rows(monkeypatch, models)
    value_rows = [0]
    original_eic_many = acquisition.eic_many

    def counting_eic_many(bundle, X, *args, **kwargs):
        value_rows[0] += len(np.atleast_2d(X))
        return original_eic_many(bundle, X, *args, **kwargs)

    monkeypatch.setattr(acquisition, "eic_many", counting_eic_many)
    state["on"] = True
    maximize_eic(bundle, bounds, 3)
    assert value_rows[0] > 0
    assert state["rows"] == len(models) * value_rows[0]


def test_bundle_rejects_a_constraint_on_other_inputs():
    X = np.array([[0.5], [2.0], [4.5]])
    params = KernelParams(1.0, np.array([1.0]))
    objective = GPModel.fit(X, np.array([0.3, -0.2, 0.8]), params)
    for other in (X[:2], X + 0.1):
        constraint = GPModel.fit(other, -np.ones(len(other)), params)
        with pytest.raises(ValueError, match="train_inputs"):
            PosteriorBundle.from_models(objective, [constraint])
    same = GPModel.fit(X.copy(), np.array([-1.0, 0.5, -0.4]), params)
    bundle = PosteriorBundle.from_models(objective, [same])
    assert bundle.incumbent_value == 0.3


def test_loop_and_harness_bundles_still_build():
    from twostep_cbo.harness import _saa_bundle
    from twostep_cbo.problems import get_problem

    assert _saa_bundle().incumbent_value is not None
    problem = get_problem("p2")
    history = loop.initialize(problem, 6, 0)
    bundle, _ = loop.fit_bundle(history, problem, 0, 0)
    assert len(bundle.constraints) == problem.n_constraints
    assert bundle.incumbent_value is not None
