"""Tests for the outer optimization loop: init, recommend, score, run."""

import numpy as np
import pytest

from twostep_cbo.acquisition import PosteriorBundle, pf
from twostep_cbo.gp import FactorizationError, GPModel, KernelParams, fit_hyperparameters
from twostep_cbo.lookahead import TwoStepConfig
from twostep_cbo.loop import (
    History,
    InitializationError,
    _key,
    _maximize_feasibility,
    _polish_mean_descent,
    fit_bundle,
    initialize,
    recommend,
    run,
    score_recommendation,
    select_batch,
    utility_gap,
)
from twostep_cbo.problems import ConstrainedProblem, get_problem
from twostep_cbo.sampling import latin_hypercube

TINY = TwoStepConfig(
    n_restarts=1,
    n_sga_steps=2,
    n_grad_samples=4,
    inner_restarts=2,
    inner_steps=10,
    n_value_samples=16,
    n_final_value_samples=32,
)


def _toy_problem(g_fn, n_constraints=1, name="toy"):
    return ConstrainedProblem(
        name,
        np.array([[0.0, 1.0], [0.0, 1.0]]),
        lambda X: np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2,
        g_fn,
        n_constraints,
    )


def test_initialize_p1():
    prob = get_problem("p1")
    for seed in range(5):
        hist = initialize(prob, 3, seed)
        assert hist.n == 3
        assert np.any(hist.feasible_mask())
        assert np.all(hist.X >= prob.bounds[:, 0]) and np.all(hist.X <= prob.bounds[:, 1])


def test_initialize_single_point():
    prob = _toy_problem(lambda X: np.full((X.shape[0], 1), -1.0))
    hist = initialize(prob, 1, 7)
    assert hist.n == 1
    assert hist.feasible_mask().all()


def test_initialize_always_feasible_takes_first_design():
    prob = _toy_problem(lambda X: np.full((X.shape[0], 1), -1.0))
    hist = initialize(prob, 3, 11)
    first = latin_hypercube(3, prob.bounds, np.random.SeedSequence((11, 3, 0)))
    np.testing.assert_array_equal(hist.X, first)


def test_initialize_failure_names_problem():
    prob = _toy_problem(lambda X: np.full((X.shape[0], 1), 1.0), name="hopeless")
    with pytest.raises(InitializationError, match="hopeless"):
        initialize(prob, 3, 0, max_redraws=5)


def _hand_bundle_1d():
    """Two observations on [0,1]: infeasible at 0.2, feasible at 0.8."""
    X = np.array([[0.2], [0.8]])
    params = KernelParams(lengthscales=np.array([0.15]), signal_variance=1.0)
    obj = GPModel.fit(X, np.array([-2.0, -1.0]), params)
    con = GPModel.fit(X, np.array([3.0, -2.0]), params)
    return PosteriorBundle(obj, (con,), -1.0, X[1].copy(), (False,))


def test_fit_bundle_seeds_and_warm_starts_each_output_on_its_own():
    """Output k (the objective at k = 0, constraint m at 1 + m) gets the fit
    seeded with _key(seed, 7, iteration, k) and warm-started at warm[k]."""
    problem = get_problem("p2")
    history = initialize(problem, 8, seed=5)
    warm = [KernelParams(0.5 + k, problem.widths * (0.2 + 0.3 * k)) for k in range(3)]
    bundle, params = fit_bundle(history, problem, 5, 3, warm)
    models = [bundle.objective, *bundle.constraints]
    assert len(params) == len(models) == 3
    for k, y in enumerate([history.f, history.G[:, 0], history.G[:, 1]]):
        want = fit_hyperparameters(
            history.X, y, problem.widths, seed=_key(5, 7, 3, k), warm_start=warm[k]
        )
        assert params[k].signal_variance == want.signal_variance
        np.testing.assert_array_equal(params[k].lengthscales, want.lengthscales)
        assert models[k].kernel == params[k]
        np.testing.assert_array_equal(models[k].train_targets, y)


def test_recommend_prefers_confident_feasible_point():
    bundle = _hand_bundle_1d()
    rec = recommend(bundle, np.array([[0.0, 1.0]]), seed=0)
    assert rec is not None
    assert abs(rec[0] - 0.8) <= 0.1


def test_recommend_none_when_nothing_qualifies():
    X = np.array([[0.2], [0.8]])
    params = KernelParams(lengthscales=np.array([0.15]), signal_variance=1.0)
    obj = GPModel.fit(X, np.array([-2.0, -1.0]), params)
    con = GPModel.fit(X, np.array([5.0, 5.0]), params)
    bundle = PosteriorBundle(obj, (con,), None, None, (False,))
    assert recommend(bundle, np.array([[0.0, 1.0]]), seed=0) is None


def _recommend_per_model(bundle, bounds, seed):
    """recommend with the objective's mean and each active constraint's
    moments from calls on that model alone."""
    X_obs = bundle.objective.train_inputs
    base = np.vstack([X_obs, latin_hypercube(2048, bounds, np.random.SeedSequence((seed, 13)))])
    cand = np.vstack([base, _polish_mean_descent(bundle.objective, base, bounds)])
    mu = bundle.objective.mean_rows(cand)["mean"]
    min_pf = np.ones(cand.shape[0])
    for c in bundle.active_constraints:
        min_pf = np.minimum(min_pf, pf(*c.posterior_many(cand)))
    idx = np.flatnonzero(min_pf >= 0.975)
    return cand[idx[np.argmin(mu[idx])]] if idx.size else None


def test_recommend_threshold_and_mean_minimality():
    """Recommendation beats every qualifying evaluated point on posterior mean.
    It takes every model's moments from one call on the bundle's stacked
    models, with the bits of a call per model (p2 has two constraints)."""
    for name, f_star in (("p1", -1.888751), ("p2", 0.599788)):
        prob = get_problem(name)
        recs = run(prob, "random", 10, 1, 3, seed=4, f_star=f_star)
        assert len(recs) == 8
        hist = initialize(prob, 3, 4)
        # replay the evaluated points from the records to rebuild the history
        for r in recs[1:]:
            hist.append(r.points, r.f_values, r.g_values)
        bundle, _ = fit_bundle(hist, prob, 4, 0)
        assert len(bundle.active_constraints) == prob.n_constraints
        rec = recommend(bundle, prob.bounds, seed=12345)
        assert rec is not None
        np.testing.assert_array_equal(rec, _recommend_per_model(bundle, prob.bounds, 12345))
        mu_rec, _ = bundle.objective.posterior_many(np.atleast_2d(rec))
        for x in hist.X:
            ok = True
            for c in bundle.active_constraints:
                mc, vc = c.posterior_many(np.atleast_2d(x))
                if pf(float(mc[0]), float(vc[0])) < 0.975:
                    ok = False
            if ok:
                mu_x, _ = bundle.objective.posterior_many(np.atleast_2d(x))
                assert mu_rec[0] <= mu_x[0] + 1e-9
        # safety: the recommendation itself clears the threshold
        for c in bundle.active_constraints:
            mc, vc = c.posterior_many(np.atleast_2d(rec))
            assert pf(float(mc[0]), float(vc[0])) >= 0.975


def _history_for_scoring():
    X = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
    f = np.array([0.7, 0.3, 0.9])
    G = np.array([[-1.0], [1.0], [-0.5]])
    return History(X, f, G)


def test_score_feasible_recommendation():
    prob = _toy_problem(lambda X: np.where(X[:, :1] < 0.4, -1.0, 1.0))
    hist = _history_for_scoring()
    f_rec, f_score, feas, extra = score_recommendation(
        prob, hist, np.array([0.1, 0.1]), "best_feasible_fallback", None
    )
    assert feas and not extra
    assert f_score == pytest.approx(0.7)


def test_score_infeasible_falls_back_to_best_observed():
    prob = _toy_problem(lambda X: np.where(X[:, :1] < 0.4, -1.0, 1.0))
    hist = _history_for_scoring()
    f_rec, f_score, feas, extra = score_recommendation(
        prob, hist, np.array([0.5, 0.5]), "best_feasible_fallback", None
    )
    assert not feas
    # best feasible observation is f=0.7 at (0.1, 0.1); f=0.3 is infeasible
    assert f_score == pytest.approx(0.7)


def test_score_infeasible_domain_max_penalty():
    prob = _toy_problem(lambda X: np.where(X[:, :1] < 0.4, -1.0, 1.0))
    hist = _history_for_scoring()
    _, f_score, feas, _ = score_recommendation(
        prob, hist, np.array([0.5, 0.5]), "domain_max_penalty", 2.5
    )
    assert not feas
    assert f_score == pytest.approx(2.5)
    with pytest.raises(ValueError, match="domain maximum"):
        score_recommendation(prob, hist, np.array([0.5, 0.5]), "domain_max_penalty", None)


def test_score_absent_recommendation_and_off_history():
    prob = _toy_problem(lambda X: np.full((X.shape[0], 1), -1.0))
    hist = _history_for_scoring()
    _, f_score, feas, extra = score_recommendation(prob, hist, None, "best_feasible_fallback", None)
    assert not feas and not extra
    # a recommendation not in the history triggers one true evaluation
    _, _, feas, extra = score_recommendation(
        prob, hist, np.array([0.3, 0.3]), "best_feasible_fallback", None
    )
    assert feas and extra


def test_score_unknown_mode():
    prob = _toy_problem(lambda X: np.full((X.shape[0], 1), -1.0))
    with pytest.raises(ValueError, match="unknown scoring mode"):
        score_recommendation(prob, _history_for_scoring(), None, "nonsense", None)


def test_utility_gap_values():
    assert utility_gap(1.5, 1.5) == 0.0
    assert np.log10(utility_gap(1.5 + 1e-3, 1.5)) == pytest.approx(-3.0)


def test_run_random_trace_invariants():
    prob = get_problem("p1")
    recs = run(prob, "random", 12, 1, 3, seed=1, f_star=-1.888751)
    assert [r.n for r in recs] == list(range(3, 13))
    lo, hi = prob.bounds[:, 0], prob.bounds[:, 1]
    for r in recs:
        assert np.all(r.points >= lo) and np.all(r.points <= hi)
        assert r.utility_gap >= 0.0
    # running best score never worsens
    scores = np.array([r.f_score for r in recs])
    assert np.all(np.minimum.accumulate(scores) == np.sort(np.minimum.accumulate(scores))[::-1])
    # fallback scoring is monotone along infeasible-recommendation records
    fb = [r.utility_gap for r in recs if not r.rec_feasible]
    assert all(a >= b - 1e-12 for a, b in zip(fb, fb[1:]))


def test_run_determinism():
    prob = get_problem("p1")
    a = run(prob, "eic", 8, 1, 3, seed=2, f_star=-1.888751)
    b = run(prob, "eic", 8, 1, 3, seed=2, f_star=-1.888751)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.points, rb.points)
        assert ra.f_score == rb.f_score
        assert ra.utility_gap == rb.utility_gap
        assert ra.flags == rb.flags


def test_run_is_byte_deterministic_past_32_points():
    """From 32 data points a row's bits may depend on the rows that share its
    GEMM, so kept-row gradients may differ from fresh ones by an ulp; the
    same run in the same process must still give the same results.csv rows."""
    from twostep_cbo.harness import _record_to_row

    prob = get_problem("p1")
    a, b = (run(prob, "eic", 34, 1, 3, seed=1, f_star=-1.888751) for _ in range(2))
    assert a[-1].n == 34
    assert [_record_to_row(0, r) for r in a] == [_record_to_row(0, r) for r in b]


def test_run_twostep_records_parse():
    prob = get_problem("p1")
    recs = run(prob, "twostep", 6, 1, 3, seed=3, f_star=-1.888751, ts_config=TINY)
    assert [r.n for r in recs] == [3, 4, 5, 6]
    lo, hi = prob.bounds[:, 0], prob.bounds[:, 1]
    for r in recs:
        assert np.all(r.points >= lo) and np.all(r.points <= hi)
        assert isinstance(r.flags, tuple)
        assert np.isfinite(r.f_score)


def test_run_batch_q2():
    prob = get_problem("p1")
    recs = run(prob, "eic", 9, 2, 3, seed=5, f_star=-1.888751)
    # 3 init + 3 batches of 2
    assert [r.n for r in recs] == [3, 5, 7, 9]
    assert recs[-1].points.shape == (2, 2)


def test_run_aborts_with_partial_record(monkeypatch):
    prob = get_problem("p1")
    import twostep_cbo.loop as loop_mod

    calls = {"k": 0}
    real = loop_mod.fit_bundle

    def flaky(*args, **kwargs):
        calls["k"] += 1
        if calls["k"] >= 3:
            raise FactorizationError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(loop_mod, "fit_bundle", flaky)
    recs = run(prob, "random", 12, 1, 3, seed=6, f_star=-1.888751)
    assert any(f.startswith("aborted:FactorizationError") for f in recs[-1].flags)
    assert np.isnan(recs[-1].f_score)


def test_run_unknown_policy():
    with pytest.raises(ValueError, match="unknown policy"):
        run(get_problem("p1"), "sa", 6, 1, 3, seed=0, f_star=0.0)


def test_eic_certainly_feasible_matches_unconstrained():
    """An always-satisfied constraint must not change the evaluation sequence."""
    obj = lambda X: np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    with_con = ConstrainedProblem(
        "cf", bounds, obj, lambda X: np.full((X.shape[0], 1), -1.0), 1
    )
    without = ConstrainedProblem(
        "un", bounds, obj, lambda X: np.zeros((X.shape[0], 0)), 0
    )
    ra = run(with_con, "eic", 8, 1, 3, seed=8, f_star=0.0)
    rb = run(without, "eic", 8, 1, 3, seed=8, f_star=0.0)
    for a, b in zip(ra, rb):
        np.testing.assert_array_equal(a.points, b.points)


def test_select_batch_feasibility_search_before_incumbent():
    """With no feasible observation the loop chases feasibility probability;
    the product's factors come from one call on the bundle's stacked models,
    and the pick is the one per-model calls give (p2 has two constraints)."""
    p2 = get_problem("p2")
    design = latin_hypercube(256, p2.bounds, np.random.SeedSequence((5, 61)))
    G = p2.constraints(design) > 0.0
    designs = {
        "p1": np.array([[0.5, 0.5], [0.2, 0.4], [3.0, 3.0]]),
        # two points breaking only g1 and two breaking only g2: both factors bind
        "p2": np.vstack([design[G[:, 0] & ~G[:, 1]][:2], design[G[:, 1] & ~G[:, 0]][:2]]),
    }
    for name, X in designs.items():
        prob = get_problem(name)
        hist = History(X, prob.objective(X), prob.constraints(X))
        assert not np.any(hist.feasible_mask())
        bundle, _ = fit_bundle(hist, prob, 0, 0)
        assert bundle.incumbent_value is None
        assert len(bundle.active_constraints) == prob.n_constraints
        pts, flags = select_batch("eic", bundle, prob, 1, 0, 1, TINY)
        assert pts.shape == (1, 2)
        assert "feasibility_search" in flags
        cand = latin_hypercube(4096, prob.bounds, np.random.SeedSequence((7, 23)))
        prod = np.ones(len(cand))
        for c in bundle.active_constraints:
            prod = prod * pf(*c.posterior_many(cand))
        pick = _maximize_feasibility(bundle, prob.bounds, 7)
        np.testing.assert_array_equal(pick, cand[np.argmax(prod)])
