"""Myopic acquisition checks: closed forms, gradients, and the MC batch path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from twostep_cbo.acquisition import (
    MissingIncumbentError,
    PosteriorBundle,
    batch_eic_mc,
    ei,
    ei_pf,
    eic,
    eic_grad,
    eic_many,
    pf,
)
from twostep_cbo.gp import SIGMA_FLOOR, GPModel, KernelParams
from twostep_cbo.sampling import halton_design

from oracle_utils import (
    gh_batch_eic,
    make_gp_instance,
    mc_eic_oracle,
    numeric_grad,
    random_x1,
)


# ---------------------------------------------------------------- closed forms


def test_ei_symmetric_case():
    assert ei(0.0, 1.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-6)


def test_ei_degenerate_limit():
    for m in (-1.0, 0.0, 2.0):
        assert ei(m, 0.0) == max(m, 0.0)


def test_ei_direct_substitution():
    assert ei(1.0, 1.0) == pytest.approx(norm.cdf(1.0) + norm.pdf(1.0), abs=1e-6)
    assert ei(1.0, 1.0) == pytest.approx(1.083316, abs=1e-6)


def test_ei_rejects_negative_variance():
    with pytest.raises(ValueError):
        ei(0.0, -1e-9)


def test_pf_median_at_threshold():
    assert pf(0.0, 4.0) == 0.5


def test_pf_direct_substitution():
    assert pf(-3.0, 1.0) == pytest.approx(0.998650, abs=1e-6)


def test_pf_degenerate_limit():
    assert pf(0.5, 0.0) == 0.0
    assert pf(-0.5, 0.0) == 1.0


def test_pf_rejects_negative_variance():
    with pytest.raises(ValueError):
        pf(0.0, -1.0)


def test_ei_and_pf_are_the_factors_of_ei_pf_with_its_floor():
    """Below the sigma floor each factor takes its zero-variance limit, and
    EI times PF is ei_pf bit for bit, scalar and array alike."""
    assert ei(0.0, 1e-22) == 0.0
    for v in (1e-300, 1e-22, SIGMA_FLOOR**2):
        for m in (-1e-12, 0.0, 1e-12, 0.7):
            assert ei(m, v) == max(m, 0.0)
            assert pf(m, v) == float(m <= 0)
    rng = np.random.default_rng(17)
    m, mc = rng.normal(size=(2, 200))
    s, sc = np.exp(rng.uniform(-30.0, 1.0, size=(2, 200)))
    np.testing.assert_array_equal(ei(m, s * s) * pf(mc, sc * sc), ei_pf((m, s), [(mc, sc)]))
    for i in range(20):
        assert ei(m[i], s[i] ** 2) * pf(mc[i], sc[i] ** 2) == ei_pf((m[i], s[i]), [(mc[i], sc[i])])


@given(
    m=st.floats(-5, 5),
    dm=st.floats(0, 3),
    v=st.floats(0, 10),
)
@settings(deadline=None, max_examples=200)
def test_ei_monotone_in_mean_and_dominates_positive_part(m, dm, v):
    assert ei(m + dm, v) >= ei(m, v) - 1e-12
    assert ei(m, v) >= max(m, 0.0) - 1e-12


@given(m=st.floats(-5, 0), v=st.floats(0, 5), dv=st.floats(0, 5))
@settings(deadline=None, max_examples=200)
def test_ei_monotone_in_variance_below_incumbent(m, v, dv):
    assert ei(m, v + dv) >= ei(m, v) - 1e-12


@given(m=st.floats(-5, 5), dm=st.floats(0, 3), v=st.floats(1e-6, 10))
@settings(deadline=None, max_examples=200)
def test_pf_monotone_and_bounded(m, dm, v):
    assert 0.0 <= pf(m, v) <= 1.0
    assert pf(m + dm, v) <= pf(m, v) + 1e-12


# ------------------------------------------------------------------------ eic


def _certain_constraint(X):
    return GPModel.fit(X, np.full(len(X), -10.0), KernelParams(1.0, np.ones(X.shape[1])))


def test_eic_zero_at_incumbent():
    bundle, _ = make_gp_instance(2)
    assert eic(bundle, bundle.incumbent_point) <= 1e-8


def test_eic_reduces_to_ei_under_certain_feasibility():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 6, (5, 1))
    f = np.sin(X[:, 0])
    obj = GPModel.fit(X, f, KernelParams(1.0, np.array([1.5])))
    bundle = PosteriorBundle.from_models(obj, [_certain_constraint(X)])
    x = np.array([[2.7]])
    mu, var = obj.posterior(x)
    best = bundle.incumbent_value
    assert eic(bundle, x) == pytest.approx(ei(best - mu, var), rel=1e-6)


def test_eic_matches_mc_oracle():
    bundle, bounds = make_gp_instance(4, d=2, box=(0.0, 4.0))
    # probe where the acquisition is actually alive, not in a flat tail
    cand = halton_design(64, bounds)
    x = cand[int(np.argmax(eic_many(bundle, cand)))].reshape(1, -1)
    est, se = mc_eic_oracle(bundle, x, n_samples=10**6, seed=4)
    assert se > 0
    assert abs(eic(bundle, x) - est) <= 3 * se


def test_eic_requires_incumbent():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 6, (4, 1))
    obj = GPModel.fit(X, np.sin(X[:, 0]), KernelParams(1.0, np.array([1.0])))
    con = GPModel.fit(X, np.full(4, 0.5), KernelParams(1.0, np.array([1.0])))
    bundle = PosteriorBundle.from_models(obj, [con])
    assert bundle.incumbent_value is None
    with pytest.raises(MissingIncumbentError):
        eic(bundle, X[:1])
    with pytest.raises(MissingIncumbentError):
        batch_eic_mc(bundle, X[:2])


def test_eic_many_matches_scalar_path():
    bundle, _ = make_gp_instance(6)
    X = np.linspace(0.3, 5.7, 9).reshape(-1, 1)
    many = eic_many(bundle, X)
    singles = np.array([eic(bundle, x.reshape(1, -1)) for x in X])
    assert np.allclose(many, singles, atol=1e-12)


# ----------------------------------------------------------------------- grad


def test_eic_grad_zero_by_symmetry():
    X = np.array([[1.0], [3.0]])
    obj = GPModel.fit(X, np.array([0.5, 0.5]), KernelParams(1.0, np.array([1.0])))
    bundle = PosteriorBundle.from_models(obj, [_certain_constraint(X)])
    _, g, degen = eic_grad(bundle, np.array([2.0]))
    assert not degen
    assert abs(g[0]) <= 1e-8


def test_eic_grad_matches_fd_on_random_instances():
    for seed in range(10):
        bundle, bounds = make_gp_instance(seed, d=2, box=(0.0, 4.0))
        bounds = np.array([[0.0, 4.0], [0.0, 4.0]])
        x = random_x1(seed, bounds, bundle=bundle)[0]
        _, g, degen = eic_grad(bundle, x)
        assert not degen
        fd = numeric_grad(lambda X1: eic(bundle, X1), x.reshape(1, -1), h=1e-5)[0]
        denom = max(np.linalg.norm(fd), 1e-10)
        assert np.linalg.norm(g - fd) / denom <= 1e-4


def test_eic_grad_flat_in_saturated_tail():
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 6, (5, 1))
    obj = GPModel.fit(X, np.sin(X[:, 0]), KernelParams(1.0, np.array([1.0])))
    # near data the constraint mean sits at +10 with variance around 1e-4
    con = GPModel.fit(X, np.full(5, 10.0) + rng.normal(0, 1e-3, 5), KernelParams(1e-4, np.array([2.0])))
    idx = int(np.argmin(obj.train_targets))
    bundle = PosteriorBundle(
        obj, (con,), float(obj.train_targets[idx]), X[idx].copy(), (False,)
    )
    _, g, _ = eic_grad(bundle, X[2] + 0.05)
    assert np.linalg.norm(g) <= 1e-6


def test_rows_match_per_point_calls():
    """posterior_many, posterior_grads, GPModel.rows with row_grads and
    eic_grad on 64 rows give every row the bits of a call on that row alone,
    at data points and 1e-5 from them too: the row products are GEMMs whose
    rows do not depend on each other, and one row is padded to two. The moments and
    values that come with the gradients are the bits of posterior_many and
    eic_many, and the mean-only rows those of GPModel.rows."""
    for seed in range(6):
        bundle, bounds = make_gp_instance(seed, d=2, n_constraints=2)
        data = bundle.objective.train_inputs[:2]
        X = np.vstack([halton_design(60, bounds), data, data + 1e-5])
        for model in (bundle.objective, *bundle.active_constraints):
            mu, var = model.posterior_many(X)
            mu_g, var_g, dmu, dsig, degen = model.posterior_grads(X)
            np.testing.assert_array_equal(mu_g, mu)
            np.testing.assert_array_equal(var_g, var)
            rows = model.row_grads(X, model.rows(X))
            for grads in (False, True):
                mean_rows = model.mean_rows(X)
                mean_rows = model.mean_row_grads(X, mean_rows) if grads else mean_rows
                keys = ("K", "mean", "dmean") if grads else ("K", "mean")
                assert sorted(mean_rows) == sorted(keys)
                for key in keys:
                    np.testing.assert_array_equal(mean_rows[key], rows[key])
            for i, x in enumerate(X):
                mu1, var1 = model.posterior_many(x)
                assert (mu1[0], var1[0]) == (mu[i], var[i])
                one = model.row_grads(x[None], model.rows(x[None]))
                assert sorted(one) == sorted(rows)
                for key, value in one.items():
                    np.testing.assert_array_equal(value[0], rows[key][i])
                mu_g1, var_g1, dmu1, dsig1, degen1 = model.posterior_grads(x)
                assert (mu_g1, var_g1) == (mu[i], var[i])
                np.testing.assert_array_equal(dmu1, dmu[i])
                np.testing.assert_array_equal(dsig1, dsig[i])
                assert degen1 == degen[i]
        values, g, degen = eic_grad(bundle, X)
        np.testing.assert_array_equal(values, eic_many(bundle, X))
        for i, x in enumerate(X):
            value1, g1, degen1 = eic_grad(bundle, x)
            assert value1 == values[i]
            np.testing.assert_array_equal(g1, g[i])
            assert degen1 == degen[i]


# ----------------------------------------------------------------- batch path


def test_batch_eic_mc_q1_matches_analytic():
    bundle, bounds = make_gp_instance(5)
    x = random_x1(5, np.array([[0.0, 6.0]]), bundle=bundle)
    est, se = batch_eic_mc(bundle, x, n_samples=4096, seed=5)
    assert abs(est - eic(bundle, x)) <= 3 * se


def test_batch_eic_mc_duplicate_incumbent_row():
    bundle, bounds = make_gp_instance(7)
    x0 = bundle.incumbent_point.reshape(1, -1)
    probe = random_x1(7, np.array([[0.0, 6.0]]), bundle=bundle)
    one, se1 = batch_eic_mc(bundle, np.vstack([probe, x0]), n_samples=4096, seed=7)
    two, se2 = batch_eic_mc(bundle, np.vstack([probe, x0, x0]), n_samples=4096, seed=7)
    assert abs(one - two) <= 3 * np.hypot(se1, se2)


def test_batch_eic_mc_q2_matches_quadrature_oracle():
    bundle, _ = make_gp_instance(3)
    X = np.array([[1.7], [4.3]])
    ref = gh_batch_eic(bundle, X, n_nodes=48)
    est, _ = batch_eic_mc(bundle, X, n_samples=8192, seed=3)
    assert abs(est - ref) <= 1e-2


def test_batch_eic_mc_superset_monotone():
    bundle, _ = make_gp_instance(8)
    bounds = np.array([[0.0, 6.0]])
    rng = np.random.default_rng(8)
    for _ in range(5):
        base = rng.uniform(0, 6, (2, 1))
        extra = rng.uniform(0, 6, (1, 1))
        small, se_s = batch_eic_mc(bundle, base, n_samples=2048, seed=11)
        big, se_b = batch_eic_mc(bundle, np.vstack([base, extra]), n_samples=2048, seed=11)
        assert big >= small - 3 * np.hypot(se_s, se_b)


def test_eic_never_exceeds_unconstrained_ei():
    bundle, _ = make_gp_instance(9)
    best = bundle.incumbent_value
    for x in np.linspace(0.1, 5.9, 25):
        mu, var = bundle.objective.posterior(np.array([[x]]))
        assert eic(bundle, np.array([[x]])) <= ei(best - mu, var) + 1e-12


# ------------------------------------------------- stacked batch and greedy path


def test_eic_many_with_one_constraint_is_ei_times_pf():
    """eic_many runs through ei_pf; with one constraint and every sd above
    the floor it gives the bits of ei times pf."""
    for seed in range(6):
        bundle, bounds = make_gp_instance(seed, d=2)
        X = halton_design(64, bounds)
        mu, var = bundle.objective.posterior_many(X)
        (con,) = bundle.active_constraints
        mc, vc = con.posterior_many(X)
        assert np.all(np.sqrt(var) > 1e-10) and np.all(np.sqrt(vc) > 1e-10)
        ref = ei(bundle.incumbent_value - mu, var) * pf(mc, vc)
        assert np.array_equal(eic_many(bundle, X), ref), seed


def test_batch_eic_mc_stack_matches_single_batches():
    """A stack (E, q, d) shares one draw of normals, so each entry is the
    single-batch call on the same seed; a single batch returns floats."""
    for seed in range(6):
        bundle, bounds = make_gp_instance(seed, d=2, n_constraints=2)
        X = np.stack([random_x1(seed * 10 + k, bounds, 2, bundle) for k in range(4)])
        est, se = batch_eic_mc(bundle, X, n_samples=128, seed=(seed, 1301))
        assert est.shape == se.shape == (4,)
        for k in range(4):
            ref_est, ref_se = batch_eic_mc(bundle, X[k], n_samples=128, seed=(seed, 1301))
            assert isinstance(ref_est, float) and isinstance(ref_se, float)
            assert abs(est[k] - ref_est) <= 1e-12 * max(1.0, abs(ref_est)), (seed, k)
            assert abs(se[k] - ref_se) <= 1e-12 * max(1.0, abs(ref_se)), (seed, k)


def _greedy_reference(bundle, bounds, q, seed):
    """One single-batch batch_eic_mc call per candidate and slot; candidates
    within 1e-6 of a chosen point are skipped and the first maximum wins."""
    from twostep_cbo.sampling import latin_hypercube

    chosen = []
    cand = latin_hypercube(256, bounds, np.random.SeedSequence((seed, 29)))
    for slot in range(q):
        best_v, best_x = -np.inf, None
        slot_seed = int(np.random.SeedSequence((seed, 31, slot)).generate_state(1)[0])
        for x in cand:
            if chosen and np.min(np.linalg.norm(np.array(chosen) - x, axis=1)) < 1e-6:
                continue
            v, _ = batch_eic_mc(bundle, np.vstack([*chosen, x]), n_samples=256, seed=slot_seed)
            if v > best_v:
                best_v, best_x = v, x
        chosen.append(best_x)
    return np.array(chosen)


@pytest.mark.parametrize("q", [2, 3])
def test_greedy_batch_eic_matches_per_candidate_loop(q, monkeypatch):
    from twostep_cbo import acquisition

    calls = []
    scorer = acquisition.batch_eic_mc

    def counting(bundle, X, *args, **kwargs):
        calls.append(np.shape(X))
        return scorer(bundle, X, *args, **kwargs)

    for seed in range(6):
        bundle, bounds = make_gp_instance(seed, d=2)
        ref = _greedy_reference(bundle, bounds, q, seed)
        calls.clear()
        monkeypatch.setattr(acquisition, "batch_eic_mc", counting)
        got = acquisition.greedy_batch_eic(bundle, bounds, q, seed)
        monkeypatch.undo()
        np.testing.assert_array_equal(got, ref)
        # one stacked call per slot; the chosen points drop out of the candidates
        assert calls == [(256 - slot, slot + 1, 2) for slot in range(q)], seed


def test_batch_eic_mc_reads_f1_without_whitening(monkeypatch):
    """sample_f1 gives the f1* of sample() bit for bit, and batch_eic_mc
    draws through it, building no whitened residuals."""
    from twostep_cbo.lookahead import FantasyEngine

    for seed in range(4):
        bundle, bounds = make_gp_instance(seed, d=2, n_constraints=2)
        X = np.stack([random_x1(seed * 10 + k, bounds, 2, bundle) for k in range(3)])
        engine = FantasyEngine(bundle, X)
        f1 = engine.sample_f1(64, (seed, 1302))
        np.testing.assert_array_equal(f1, engine.sample(64, (seed, 1302)).f1)
        monkeypatch.setattr(FantasyEngine, "batch_from_normals", None)
        est, _ = batch_eic_mc(bundle, X, n_samples=64, seed=(seed, 1302))
        monkeypatch.undo()
        np.testing.assert_array_equal(est, np.mean((engine.f0 - f1).reshape(3, 64), axis=1))
