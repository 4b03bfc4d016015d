"""The bundle's stacked models (PosteriorBundle.stacked) against its models
one at a time.

The myopic EIC runs the objective and the active constraints through one
GPModel with a leading model axis. Every model of a bundle shares the
training inputs, so one pass forms the kernel rows, the L^{-1} row products,
the variances, their gradients and the distance to the data for all of them;
each model's slice must carry the bits of that model's own call.
"""

import numpy as np
import pytest

from oracle_utils import assert_rows_close, make_gp_instance
from twostep_cbo import gp
from twostep_cbo.acquisition import PosteriorBundle, _eic_pass, ei_pf, eic_grad, eic_many
from twostep_cbo.gp import GPModel, KernelParams
from twostep_cbo.sampling import halton_design


def _bundle_with_an_inert_constraint(seed, n_constraints, **sizes):
    """make_gp_instance's bundle plus one certainly-feasible constraint."""
    bundle, bounds = make_gp_instance(seed, d=2, n_constraints=n_constraints, **sizes)
    X = bundle.objective.train_inputs
    inert = GPModel.fit(X, np.full(len(X), -1.0), KernelParams(1.0, np.ones(2)))
    bundle = PosteriorBundle.from_models(bundle.objective, [*bundle.constraints, inert])
    assert bundle.feasible_flags[-1]
    return bundle, bounds


def _rows(bundle, bounds):
    """A design plus rows on two data points and 1e-5 from them."""
    data = bundle.objective.train_inputs[:2]
    return np.vstack([halton_design(24, bounds), data, data + 1e-5])


CASES = [(seed, k) for seed in range(6) for k in (0, 1, 2)]


@pytest.mark.parametrize("seed,n_constraints", CASES)
def test_stacked_pass_has_the_bits_of_each_model(seed, n_constraints):
    bundle, bounds = _bundle_with_an_inert_constraint(seed, n_constraints)
    models = [bundle.objective, *bundle.active_constraints]
    stacked = bundle.stacked
    assert stacked.kernel.signal_variance.shape == (1 + n_constraints,)
    X = _rows(bundle, bounds)
    mean, var, terms = stacked.posterior_many(X, with_terms=True)
    grads = stacked.posterior_grads(X)
    from_terms = stacked.posterior_grads(X, terms)
    for i, model in enumerate(models):
        m, v = model.posterior_many(X)
        np.testing.assert_array_equal(mean[i], m)
        np.testing.assert_array_equal(var[i], v)
        for got, again, want in zip(grads, from_terms, model.posterior_grads(X)):
            np.testing.assert_array_equal(got[i], want)
            np.testing.assert_array_equal(again[i], want)


@pytest.mark.parametrize("seed,n_constraints", CASES)
def test_eic_from_the_stack_equals_ei_pf_over_each_model(seed, n_constraints):
    bundle, bounds = _bundle_with_an_inert_constraint(seed, n_constraints)
    X = _rows(bundle, bounds)
    mu, var = bundle.objective.posterior_many(X)
    cons = [(m, np.sqrt(v)) for m, v in (c.posterior_many(X) for c in bundle.active_constraints)]
    want = ei_pf((bundle.incumbent_value - mu, np.sqrt(var)), cons)
    np.testing.assert_array_equal(eic_many(bundle, X), want)
    np.testing.assert_array_equal(eic_grad(bundle, X)[0], want)


@pytest.mark.parametrize("n,n_constraints", [(32, 1), (47, 2), (64, 2)])
def test_stacked_pass_and_eic_stay_close_to_each_model_past_31_points(n, n_constraints):
    """The two tests above at 32 to 64 data points, where a row's bits can
    move with the rows that share its GEMM: within ROW_RTOL (oracle_utils) in
    units of the largest signal variance of the stack."""
    bundle, bounds = _bundle_with_an_inert_constraint(n, n_constraints, n_lo=n, n_hi=n)
    models = [bundle.objective, *bundle.active_constraints]
    stacked = bundle.stacked
    sv = stacked.kernel.signal_variance
    X = _rows(bundle, bounds)
    mean, var, terms = stacked.posterior_many(X, with_terms=True)
    grads = stacked.posterior_grads(X)
    from_terms = stacked.posterior_grads(X, terms)
    for i, model in enumerate(models):
        m, v = model.posterior_many(X)
        assert_rows_close(mean[i], m, sv)
        assert_rows_close(var[i], v, sv)
        for got, again, want in zip(grads, from_terms, model.posterior_grads(X)):
            assert_rows_close(got[i], want, sv)
            assert_rows_close(again[i], want, sv)
    mu, var = bundle.objective.posterior_many(X)
    cons = [(m, np.sqrt(v)) for m, v in (c.posterior_many(X) for c in bundle.active_constraints)]
    want = ei_pf((bundle.incumbent_value - mu, np.sqrt(var)), cons)
    assert_rows_close(eic_many(bundle, X), want, sv)
    assert_rows_close(eic_grad(bundle, X)[0], want, sv)


def test_a_stack_rejects_models_on_other_inputs():
    bundle, _ = make_gp_instance(0, d=2, n_constraints=1)
    X = bundle.objective.train_inputs
    other = GPModel.fit(X + 0.1, bundle.objective.train_targets, bundle.objective.kernel)
    with pytest.raises(ValueError, match="train_inputs"):
        GPModel.stack([bundle.objective, other])


def test_an_eic_pass_meets_the_data_distances_once(monkeypatch):
    """One value pass of _eic_pass and its grad(keep) call gp._nearest once,
    whatever the number of models."""
    bundle, bounds = make_gp_instance(3, d=2, n_constraints=2)
    calls = [0]
    original = gp._nearest

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(gp, "_nearest", counting)
    X = _rows(bundle, bounds)
    _, grad = _eic_pass(bundle, X)
    grad(np.arange(len(X)) % 2 == 0)
    assert calls[0] == 1
