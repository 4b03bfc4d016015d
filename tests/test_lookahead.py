"""Tests for the two-step acquisition: fantasies, alpha, inner solve,
likelihood-ratio gradients, value estimation, and the batch optimizer."""

import warnings

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from oracle_utils import (
    anchored_x1,
    batch_from_values,
    make_gp_instance,
    posterior_joint,
    TwoStepOracle,
)
from twostep_cbo.acquisition import PosteriorBundle, batch_eic_mc, ei, maximize_eic, pf
from twostep_cbo.gp import JITTER_INITIAL, GPModel, KernelParams
from twostep_cbo.lookahead import (
    SEPARATION_TOL,
    CandidateBatch,
    FantasyEngine,
    TwoStepConfig,
    _enforce_separation,
    alpha,
    estimate_value,
    optimize,
)
from twostep_cbo.problems import get_problem

CFG = TwoStepConfig()
SMALL = TwoStepConfig(
    n_restarts=2,
    n_sga_steps=8,
    n_grad_samples=8,
    inner_restarts=2,
    inner_steps=40,
    n_value_samples=64,
    n_final_value_samples=256,
)


def _prior_bundle(incumbent=None, lengthscale=1.0):
    """Bundle with no training data: posterior equals the prior."""
    params = KernelParams(lengthscales=np.array([lengthscale]), signal_variance=1.0)
    obj = GPModel.fit(np.zeros((0, 1)), np.zeros(0), params)
    con = GPModel.fit(np.zeros((0, 1)), np.zeros(0), params)
    point = None if incumbent is None else np.array([0.0])
    return PosteriorBundle(obj, (con,), incumbent, point, (False,))


def test_candidate_batch_validation():
    with pytest.raises(ValueError, match="finite"):
        CandidateBatch(np.array([[np.nan]]))
    with pytest.raises(ValueError, match="separation"):
        CandidateBatch(np.array([[0.5], [0.5 + 1e-12]]))
    b = CandidateBatch(np.array([[0.1, 0.2], [0.7, 0.9]]))
    assert b.q == 2 and b.dim == 2


def test_config_validation():
    with pytest.raises(ValueError, match="counts"):
        TwoStepConfig(n_restarts=0)
    with pytest.raises(ValueError, match="step_gamma"):
        TwoStepConfig(step_gamma=0.4)
    with pytest.raises(ValueError, match="step_a"):
        TwoStepConfig(step_a=-1.0)
    for step_A in (0.0, -1.0):
        with pytest.raises(ValueError, match="step_A"):
            TwoStepConfig(step_A=step_A)


def test_separation_nudge_stays_in_the_box():
    """Coincident points move toward the centre of the box: down from the
    upper corner of p3's box, up from the lower corner, one nudge per
    coincidence, so every batch stays in the box and is separated."""
    bounds = get_problem("p3").bounds
    lo, hi = bounds[:, 0], bounds[:, 1]
    step = (hi - lo) * 100 * SEPARATION_TOL
    for q in (2, 3):
        down = _enforce_separation(np.tile(hi, (q, 1)), lo, hi)
        np.testing.assert_array_equal(down, [hi, hi - step, hi - step - step][:q])
        up = _enforce_separation(np.tile(lo, (q, 1)), lo, hi)
        np.testing.assert_array_equal(up, [lo, lo + step, lo + step + step][:q])
        for X in (down, up):
            assert np.all((lo <= X) & (X <= hi))
            assert CandidateBatch(X).q == q


def test_prior_log_density():
    # no data, unit prior: each block's fantasy is a standard normal up to the
    # diagonal jitter, and at its mean the score vanishes
    engine = FantasyEngine(_prior_bundle(), np.array([[0.3]]))
    batch = batch_from_values(engine, [np.zeros(1), np.zeros(1)])
    for blk in engine.blocks:
        assert blk.mu0[0, 0] == 0.0
        assert blk.Lc[0, 0, 0] ** 2 == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(engine.score(batch)[0], 0.0, atol=1e-12)


def _log_density(bundle, X1, Y):
    """log p(Y; X1) from scipy: per model the normal density of its fantasy
    rows under the joint state-0 posterior at X1 plus the initial jitter."""
    total = 0.0
    for model, Yb in zip([bundle.objective, *bundle.active_constraints], Y):
        mean, cov = posterior_joint(model, X1)
        cov = cov + JITTER_INITIAL * model.kernel.signal_variance * np.eye(len(X1))
        total = total + multivariate_normal(mean, cov).logpdf(Yb)
    return total


def _central_difference_score(bundle, X1, Y, h):
    """d log p(Y; X1) / dX1 by central differences, shape (count, q, d)."""
    fd = np.zeros((len(Y[0]),) + X1.shape)
    for i, j in np.ndindex(X1.shape):
        dx = np.zeros_like(X1)
        dx[i, j] = h
        up, down = _log_density(bundle, X1 + dx, Y), _log_density(bundle, X1 - dx, Y)
        fd[:, i, j] = (up - down) / (2 * h)
    return fd


def test_score_matches_density_finite_difference():
    """Move X1 with the outcome fixed and difference scipy's log density of
    the fantasy: at q = 1 with one constraint, and at q = 2 with two, where
    the score's cross-batch terms come in."""
    h = 3e-6  # near the balance of O(h**2) truncation and O(eps / h) rounding
    for seed in range(10):
        bundle, bounds = make_gp_instance(seed)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1033)))
        x1 = np.array([[bounds[0, 0] + 0.37 * (bounds[0, 1] - bounds[0, 0])]])
        mu_f, _ = bundle.objective.posterior_many(x1)
        Y = [np.atleast_2d(mu_f + 0.5 * rng.standard_normal(1)), rng.standard_normal((1, 1))]
        engine = FantasyEngine(bundle, x1)
        score = engine.score(batch_from_values(engine, Y))
        fd = _central_difference_score(bundle, x1, Y, h)
        np.testing.assert_allclose(score, fd, rtol=1e-4, atol=1e-8)
    for seed in range(6):
        bundle, bounds = make_gp_instance(seed, n_constraints=2)
        x1 = bounds[0, 0] + np.array([[0.31], [0.67]]) * (bounds[0, 1] - bounds[0, 0])
        engine = FantasyEngine(bundle, x1)
        assert engine.n_blocks == 3
        batch = engine.sample(16, (seed, 1401))
        fd = _central_difference_score(bundle, x1, batch.Y, h)
        np.testing.assert_allclose(engine.score(batch), fd, rtol=1e-4, atol=1e-8)


def test_score_mean_is_zero():
    bundle, bounds = make_gp_instance(3)
    x1 = np.array([[1.1], [4.3]])
    engine = FantasyEngine(bundle, x1)
    batch = engine.sample(20_000, (3, 1041))
    scores = engine.score(batch)
    mean = scores.mean(axis=0)
    se = scores.std(axis=0, ddof=1) / np.sqrt(scores.shape[0])
    assert np.all(np.abs(mean) <= 3.0 * se)


def test_sample_fantasies_moments():
    bundle, bounds = make_gp_instance(2)
    x1 = np.array([[1.0], [3.5]])
    Yf = FantasyEngine(bundle, x1).sample(4096, (2, 1055)).Y[0]
    mu0, _ = bundle.objective.posterior_many(x1)
    se = Yf.std(axis=0, ddof=1) / np.sqrt(len(Yf))
    assert np.all(np.abs(Yf.mean(axis=0) - mu0) <= 3.0 * se)

    _, K = posterior_joint(bundle.objective, x1)
    emp = np.cov(Yf.T)
    assert np.linalg.norm(emp - K) <= 0.05 * np.linalg.norm(K)


def test_sample_fantasies_deterministic():
    bundle, _ = make_gp_instance(4)
    x1 = np.array([[2.2]])
    a = FantasyEngine(bundle, x1).sample(64, (4, 7))
    b = FantasyEngine(bundle, x1).sample(64, (4, 7))
    np.testing.assert_array_equal(a.Y[0], b.Y[0])
    np.testing.assert_array_equal(a.f1, b.f1)


def _confidently_infeasible_bundle():
    """Objective on five points, constraint pinned near +10 everywhere."""
    X = np.linspace(0.5, 5.5, 5).reshape(-1, 1)
    params = KernelParams(lengthscales=np.array([1.2]), signal_variance=1.0)
    obj = GPModel.fit(X, np.sin(X).ravel(), params)
    con_params = KernelParams(lengthscales=np.array([1.2]), signal_variance=0.01)
    con = GPModel.fit(X, np.full(5, 10.0), con_params)
    i = int(np.argmin(obj.train_targets))
    return PosteriorBundle(obj, (con,), float(obj.train_targets[i]), X[i].copy(), (False,))


def test_fantasy_feasibility_never_improves_when_pf_zero():
    bundle = _confidently_infeasible_bundle()
    f0 = bundle.incumbent_value
    batch = FantasyEngine(bundle, np.array([[3.1]])).sample(4096, (0, 1066))
    assert np.all(batch.f1 == f0)


def test_f1_star_definition():
    bundle, _ = make_gp_instance(6)
    f0 = bundle.incumbent_value
    batch = FantasyEngine(bundle, np.array([[1.7], [4.4]])).sample(512, (6, 1077))
    for y_f, y_g, f1 in zip(batch.Y[0], batch.Y[1], batch.f1):
        feas = y_g <= 0.0
        expect = min(f0, np.min(y_f[feas])) if np.any(feas) else f0
        assert f1 == pytest.approx(expect, rel=1e-12)


def test_alpha_zero_when_nothing_can_improve():
    bundle = _confidently_infeasible_bundle()
    x1 = np.array([[3.1]])
    batch = FantasyEngine(bundle, x1).sample(8, (0, 1088))
    assert batch.f1[0] == bundle.incumbent_value
    a = alpha(bundle, x1, np.array([2.0]), batch.Y[0][0], batch.Y[1][:1])
    assert 0.0 <= a <= 1e-6


def test_alpha_constraint_deactivation():
    """An inert constraint leaves the unconstrained two-step integrand."""
    bundle, bounds = make_gp_instance(1)
    X_tr = bundle.objective.train_inputs
    con_params = KernelParams(lengthscales=np.array([1.0]), signal_variance=1.0)
    con = GPModel.fit(X_tr, np.full(X_tr.shape[0], -1000.0), con_params)
    inert = PosteriorBundle(
        bundle.objective,
        (con,),
        bundle.incumbent_value,
        bundle.incumbent_point,
        (True,),
    )
    x1 = np.array([[2.3]])
    x2 = np.array([3.8])
    batch = FantasyEngine(inert, x1).sample(16, (1, 1099))
    for y_f, f1 in zip(batch.Y[0], batch.f1):
        a = alpha(inert, x1, x2, y_f, [])
        cond = bundle.objective.condition_on_fantasy(x1, y_f)
        m1, v1 = cond.posterior(x2)
        expect = bundle.incumbent_value - f1 + ei(f1 - m1, v1)
        assert a == pytest.approx(expect, abs=1e-6)


def test_alpha_matches_gauss_hermite():
    """Direct quadrature of E[(f1*-f)+ 1{g<=0}] at the follow-up point."""
    bundle, bounds = make_gp_instance(5)
    x1 = np.array([[1.9]])
    x2 = np.array([4.1])
    f0 = bundle.incumbent_value
    nodes, wts = np.polynomial.hermite.hermgauss(128)
    batch = FantasyEngine(bundle, x1).sample(8, (5, 1101))
    for y_f, y_g, f1 in zip(batch.Y[0], batch.Y[1], batch.f1):
        cond_f = bundle.objective.condition_on_fantasy(x1, y_f)
        cond_g = bundle.active_constraints[0].condition_on_fantasy(x1, y_g)
        mf, vf = cond_f.posterior(x2)
        mg, vg = cond_g.posterior(x2)
        fv = mf + np.sqrt(2.0 * max(vf, 0.0)) * nodes
        gv = mg + np.sqrt(2.0 * max(vg, 0.0)) * nodes
        e_imp = np.sum(wts * np.maximum(f1 - fv, 0.0)) / np.sqrt(np.pi)
        p_feas = np.sum(wts * (gv <= 0.0)) / np.sqrt(np.pi)
        expect = f0 - f1 + e_imp * p_feas
        a = alpha(bundle, x1, x2, y_f, [y_g])
        # the indicator integrand limits Gauss-Hermite accuracy for p_feas
        assert a == pytest.approx(expect, abs=2e-3)
        # against the closed form itself the tolerance is tight
        closed = f0 - f1 + ei(f1 - mf, vf) * pf(mg, vg)
        assert a == pytest.approx(closed, abs=1e-9)


def test_alpha_nonnegative_and_floored():
    bundle, _ = make_gp_instance(7)
    f0 = bundle.incumbent_value
    x1 = np.array([[0.8], [5.1]])
    rng = np.random.default_rng(np.random.SeedSequence((7, 1102)))
    batch = FantasyEngine(bundle, x1).sample(32, (7, 1103))
    for y_f, y_g, f1 in zip(batch.Y[0], batch.Y[1], batch.f1):
        x2 = rng.uniform(0.0, 6.0, size=1)
        a = alpha(bundle, x1, x2, y_f, [y_g])
        assert a >= f0 - f1 - 1e-12
        assert a >= -1e-12


def test_inner_maximize_tracks_grid_argmax():
    bundle, bounds = make_gp_instance(1)
    X_tr = bundle.objective.train_inputs
    con = GPModel.fit(
        X_tr,
        np.full(X_tr.shape[0], -1000.0),
        KernelParams(lengthscales=np.array([1.0]), signal_variance=1.0),
    )
    inert = PosteriorBundle(
        bundle.objective, (con,), bundle.incumbent_value, bundle.incumbent_point, (True,)
    )
    x1 = np.array([[2.3]])
    engine = FantasyEngine(inert, x1)
    batch = engine.sample(4, (1, 1104)).subset(np.array([2]))
    X2, _, _ = engine.solve_inner_batch(batch, bounds, CFG)
    grid = np.linspace(bounds[0, 0], bounds[0, 1], 2000)
    cond = inert.objective.condition_on_fantasy(x1, batch.Y[0][0])
    m1, v1 = cond.posterior_many(grid.reshape(-1, 1))
    gv = np.array([ei(batch.f1[0] - m, v) for m, v in zip(m1, v1)])
    x_grid = grid[int(np.argmax(gv))]
    assert abs(X2[0, 0] - x_grid) <= 1e-2 * (bounds[0, 1] - bounds[0, 0])


def test_inner_maximize_saturates_on_huge_realized_improvement():
    """A huge realized improvement keeps the GP's own follow-up term.

    Conditioning on -1e6 at x=2 drags the stage-1 mean far below -1e6 nearby
    (the noise-free interpolant overshoots by a factor of up to about 4), so
    the follow-up EI is of the same order as f0 - f1* and is not clamped
    away. The inner solve must still find its maximum at this scale: the
    value is at least the realized improvement and matches the best point of
    a dense grid of the refit reference alpha().
    """
    bundle, bounds = make_gp_instance(2)
    f0 = bundle.incumbent_value
    y_f, y_g = np.array([-1e6]), np.array([[-1.0]])
    x1 = np.array([[2.0]])
    engine = FantasyEngine(bundle, x1)
    batch = batch_from_values(engine, [y_f, *y_g])
    assert batch.f1[0] == -1e6
    _, (value,), _ = engine.solve_inner_batch(batch, bounds, CFG)
    grid = np.linspace(bounds[0, 0], bounds[0, 1], 6001)
    ref = max(alpha(bundle, x1, np.array([x]), y_f, y_g) for x in grid)
    assert value >= f0 - batch.f1[0]
    assert ref * (1.0 - 1e-9) <= value <= ref * (1.0 + 1e-6)


def test_inner_maximize_dominates_random_probes():
    bundle, bounds = make_gp_instance(3)
    x1 = np.array([[2.9]])
    rng = np.random.default_rng(np.random.SeedSequence((3, 1105)))
    probes = rng.uniform(bounds[0, 0], bounds[0, 1], size=(100, 1))
    engine = FantasyEngine(bundle, x1)
    batch = engine.sample(4, (3, 1106))
    _, values, _ = engine.solve_inner_batch(batch, bounds, CFG)
    for y_f, y_g, value in zip(batch.Y[0], batch.Y[1], values):
        best_probe = max(alpha(bundle, x1, p, y_f, [y_g]) for p in probes)
        assert value >= best_probe - 1e-9


def test_lr_gradient_flat_acquisition():
    """No data and a follow-up point beyond any correlation: nothing to move."""
    bundle = _prior_bundle(incumbent=0.0, lengthscale=0.5)
    x1 = np.array([[0.0]])
    x2_star = np.array([25.0])
    engine = FantasyEngine(bundle, x1)
    batch = engine.sample(100_000, (0, 1108))
    X2 = np.tile(x2_star, (batch.n, 1))
    gam = engine.lr_gradients(batch, X2)[:, 0, 0]
    se = gam.std(ddof=1) / np.sqrt(batch.n)
    assert abs(gam.mean()) <= 3.0 * se + 1e-12


def test_lr_gradient_is_unbiased_against_the_quadrature_oracle(instances10):
    """The mean of 4,096 LR gradients, each at its fantasy's solved inner
    argmax, lies within 3 standard errors of the finite-difference gradient
    of the quadrature oracle on every instance. Either term of Gamma alone
    misses it by more than 3 standard errors on several instances."""
    for seed, (bundle, bounds) in enumerate(instances10):
        x1 = anchored_x1(bundle, bounds)
        engine = FantasyEngine(bundle, x1)
        batch = engine.sample(4096, (seed, 1301))
        X2, _, _ = engine.solve_inner_batch(batch, bounds, CFG)
        gam = engine.lr_gradients(batch, X2)[:, 0, 0]
        se = gam.std(ddof=1) / np.sqrt(batch.n)
        h = 1e-3 * (bounds[0, 1] - bounds[0, 0])
        ref = TwoStepOracle(bundle, bounds, x1).gradient(x1, h)[0, 0]
        assert abs(gam.mean() - ref) <= 3.0 * se, (seed, gam.mean(), ref, se)


def test_lr_gradients_rejects_misshapen_x2():
    bundle, _ = make_gp_instance(4)
    engine = FantasyEngine(bundle, np.array([[1.3]]))
    batch = engine.sample(4, (4, 1119))
    with pytest.raises(ValueError, match=r"\(batch.n, d\)"):
        engine.lr_gradients(batch, np.full((4, 1, 1), 2.0))
    with pytest.raises(ValueError, match=r"\(batch.n, d\)"):
        engine.lr_gradients(batch, np.full((3, 1), 2.0))


def test_envelope_insensitivity_to_x2_perturbation():
    """First-order terms in the x2 direction vanish at the inner argmax."""
    rng = np.random.default_rng(np.random.SeedSequence(1109))
    for seed in (1, 3, 5):
        bundle, bounds = make_gp_instance(seed)
        x1 = np.array([[bounds[0, 0] + 0.41 * (bounds[0, 1] - bounds[0, 0])]])
        engine = FantasyEngine(bundle, x1)
        batch = engine.sample(1000, (seed, 1110))
        X2, _, _ = engine.solve_inner_batch(batch, bounds, CFG)
        direction = rng.choice([-1.0, 1.0])
        base = engine.lr_gradients(batch, X2).mean(axis=0)
        diffs = {}
        for eps in (1e-3, 1e-2):
            X2p = np.clip(X2 + direction * eps, bounds[0, 0], bounds[0, 1])
            pert = engine.lr_gradients(batch, X2p).mean(axis=0)
            diffs[eps] = np.linalg.norm(pert - base)
        assert diffs[1e-3] <= 10.0 * diffs[1e-2] * 1e-2 + 1e-12


def test_value_grid_argmax_invariant_under_target_scaling():
    """Rescaling the objective's units must not move the optimizer's target.

    A change of units multiplies the targets by c and the prior's signal
    variance by c**2; the posterior mean and standard deviation then both
    scale by c, and so does every fantasy, alpha and the value.
    """
    bundle, bounds = make_gp_instance(8)
    c = 3.7
    obj = bundle.objective
    scaled_kernel = KernelParams(c**2 * obj.kernel.signal_variance, obj.kernel.lengthscales)
    scaled_obj = GPModel.fit(obj.train_inputs, c * obj.train_targets, scaled_kernel)
    scaled = PosteriorBundle(
        scaled_obj,
        bundle.constraints,
        c * bundle.incumbent_value,
        bundle.incumbent_point,
        bundle.feasible_flags,
    )
    grid = np.linspace(bounds[0, 0] + 0.1, bounds[0, 1] - 0.1, 21)
    vals, vals_c = np.empty(21), np.empty(21)
    for j, x in enumerate(grid):
        x1 = np.array([[x]])
        vals[j], _ = estimate_value(bundle, x1, bounds, CFG, seed=(8, 1111), n_samples=128)
        vals_c[j], _ = estimate_value(scaled, x1, bounds, CFG, seed=(8, 1111), n_samples=128)
    assert int(np.argmax(vals)) == int(np.argmax(vals_c))
    np.testing.assert_allclose(vals_c, c * vals, rtol=1e-6)


def test_estimate_value_zero_when_certainly_infeasible():
    bundle = _confidently_infeasible_bundle()
    est, _ = estimate_value(
        bundle, np.array([[3.1]]), np.array([[0.0, 6.0]]), CFG, seed=(0, 1112), n_samples=256
    )
    assert est <= 1e-6


def test_estimate_value_dominates_myopic_batch():
    for seed in (0, 2, 9):
        bundle, bounds = make_gp_instance(seed)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1113)))
        X1 = rng.uniform(bounds[0, 0] + 0.3, bounds[0, 1] - 0.3, size=(2, 1))
        est, se = estimate_value(bundle, X1, bounds, CFG, seed=(seed, 1114), n_samples=512)
        eic_est, eic_se = batch_eic_mc(bundle, X1, n_samples=512, seed=(seed, 1115))
        assert est >= eic_est - 3.0 * np.hypot(se, eic_se)
        assert est >= -3.0 * se


def test_estimate_value_seed_sequence_reuse_matches_fresh_sequence():
    bundle, bounds = make_gp_instance(1)
    x1 = np.array([[2.3]])
    ss = np.random.SeedSequence((1, 1120))
    first = estimate_value(bundle, x1, bounds, SMALL, seed=ss, n_samples=16)
    second = estimate_value(bundle, x1, bounds, SMALL, seed=ss, n_samples=16)
    fresh = estimate_value(
        bundle, x1, bounds, SMALL, seed=np.random.SeedSequence((1, 1120)), n_samples=16
    )
    assert first == fresh
    assert second == fresh


def test_optimize_builds_one_engine_per_sga_step_and_screening_pass(monkeypatch):
    """All restarts share one FantasyEngine per SGA step; the 2R candidates
    are screened in one engine and the top three re-scored in one more."""
    built = []
    init = FantasyEngine.__init__

    def counting_init(self, bundle, X1):
        built.append(np.shape(X1))
        init(self, bundle, X1)

    monkeypatch.setattr(FantasyEngine, "__init__", counting_init)
    bundle, bounds = make_gp_instance(0)
    config = TwoStepConfig(
        n_restarts=3,
        n_sga_steps=2,
        n_grad_samples=4,
        inner_restarts=2,
        inner_steps=10,
        n_value_samples=8,
        n_final_value_samples=16,
    )
    optimize(bundle, bounds, 1, config, seed=2)
    R = config.n_restarts + 1  # the myopic start joins the restarts
    assert len(built) == config.n_sga_steps + 2
    assert built == [(R, 1, 1)] * config.n_sga_steps + [(2 * R, 1, 1), (3, 1, 1)]


def test_optimize_deterministic():
    bundle, bounds = make_gp_instance(0)
    a = optimize(bundle, bounds, 1, SMALL, seed=5)
    b = optimize(bundle, bounds, 1, SMALL, seed=5)
    np.testing.assert_array_equal(a.batch.points, b.batch.points)
    assert a.value == b.value


def test_optimize_beats_its_own_starts():
    from twostep_cbo.sampling import latin_hypercube

    bundle, bounds = make_gp_instance(2)
    root = 11
    res = optimize(bundle, bounds, 1, SMALL, seed=root)
    starts = latin_hypercube(
        SMALL.n_restarts, bounds, np.random.SeedSequence((root, 11))
    ).reshape(-1, 1, 1)
    myopic = maximize_eic(bundle, bounds, root).reshape(1, 1, 1)
    for x1 in np.concatenate([myopic, starts], axis=0):
        v, se = estimate_value(
            bundle, x1, bounds, SMALL, seed=(root, 1116), n_samples=SMALL.n_final_value_samples
        )
        assert res.value >= v - 3.0 * se


def _oracle_value(bundle, bounds, x):
    x1 = np.array([[x]])
    return TwoStepOracle(bundle, bounds, x1, n_nodes=32, grid_size=501).value(x1)


def test_optimize_finds_oracle_argmax_region():
    """The returned batch lands on the quadrature-oracle landscape peak.

    optimize promises the maximizer of the value, not a location: where two
    far-apart peaks nearly tie, either one is a correct answer. A seed counts
    as a hit when the returned point lies within 5% of the width of the
    oracle's grid argmax, or when its oracle value is at least 99% of the
    grid maximum (the returned point need not lie on the grid, and may beat
    it).
    """
    hits = 0
    for seed in range(20):
        bundle, bounds = make_gp_instance(seed)
        width = bounds[0, 1] - bounds[0, 0]
        grid = np.linspace(bounds[0, 0] + 0.02 * width, bounds[0, 1] - 0.02 * width, 201)
        vals = np.array([_oracle_value(bundle, bounds, x) for x in grid])
        x_star = grid[int(np.argmax(vals))]
        x_ret = optimize(bundle, bounds, 1, SMALL, seed=seed).batch.points[0, 0]
        if abs(x_ret - x_star) <= 0.05 * width:
            hits += 1
            continue
        v_ret = _oracle_value(bundle, bounds, x_ret)
        if v_ret >= 0.99 * vals.max():
            hits += 1
    assert hits >= 18


def test_optimize_symmetric_batch_value():
    """Mirror-symmetric surrogates score mirrored batches identically."""
    X = np.array([[0.2], [0.5], [0.8]])
    y = np.array([0.3, -0.6, 0.3])
    g = np.array([-0.5, 0.1, -0.5])
    params = KernelParams(lengthscales=np.array([0.25]), signal_variance=1.0)
    obj = GPModel.fit(X, y, params)
    con = GPModel.fit(X, g, params)
    bundle = PosteriorBundle(obj, (con,), 0.3, X[0].copy(), (False,))
    bounds = np.array([[0.0, 1.0]])
    res = optimize(bundle, bounds, 2, SMALL, seed=3)
    mirror = 1.0 - res.batch.points
    v, se = estimate_value(bundle, res.batch.points, bounds, SMALL, seed=(3, 1117), n_samples=2048)
    vm, sem = estimate_value(bundle, mirror, bounds, SMALL, seed=(3, 1117), n_samples=2048)
    assert abs(v - vm) <= 3.0 * np.hypot(se, sem)


def test_optimize_all_degenerate_falls_back(monkeypatch):
    """With every gradient zero, optimize returns its myopic start."""
    bundle, bounds = make_gp_instance(0)

    def zeros(self, batch, X2):
        return np.zeros((batch.n, 1, 1))

    monkeypatch.setattr(FantasyEngine, "lr_gradients", zeros)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = optimize(bundle, bounds, 1, SMALL, seed=1)
    assert res.fallback_eic
    assert np.isnan(res.value)
    assert any("degenerate" in str(w.message) for w in caught)
    assert bounds[0, 0] <= res.batch.points[0, 0] <= bounds[0, 1]
    np.testing.assert_array_equal(res.batch.points[0], maximize_eic(bundle, bounds, 1))
