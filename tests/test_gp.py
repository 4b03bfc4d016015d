"""Kernel, posterior and fantasy-conditioning tests against frozen values and
finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import (
    assert_rows_close,
    batch_from_values,
    kernel_grad_first,
    log_marginal_likelihood,
    numeric_grad,
    posterior_joint,
    ref_kernel_grad_paired,
    ref_kernel_paired,
    ref_nearest,
    ref_nll_and_grad,
)
from twostep_cbo import gp
from twostep_cbo.acquisition import PosteriorBundle
from twostep_cbo.gp import (
    DUPLICATE_TOL,
    JITTER_INITIAL,
    NEAR_DATA_TOL,
    SIGMA_FLOOR,
    FactorizationError,
    GPModel,
    KernelParams,
    _nll_and_grad,
    _nll_constants,
    fit_hyperparameters,
    _min_pairwise_distance,
    _nearest,
    jittered_cholesky,
    kernel_grad_first_from,
    kernel_grad_paired,
    kernel_matrix,
    kernel_paired,
    sq_dist,
)
from twostep_cbo.lookahead import FantasyEngine
from twostep_cbo.problems import get_problem
from twostep_cbo.sampling import halton_design, latin_hypercube, sobol_unit


def k_scalar(params, x, xp):
    return float(kernel_matrix(params, np.atleast_2d(x), np.atleast_2d(xp))[0, 0])


# -- kernel ----------------------------------------------------------------------


def test_kernel_at_coincidence_is_signal_variance():
    p = KernelParams(1.0, np.array([1.0, 1.0]))
    assert k_scalar(p, [0.3, -2.0], [0.3, -2.0]) == pytest.approx(1.0, abs=1e-15)


def test_kernel_direct_values():
    assert k_scalar(KernelParams(2.0, np.array([1.0])), [0.0], [1.0]) == pytest.approx(
        2.0 * np.exp(-0.5), rel=1e-12
    )
    assert k_scalar(KernelParams(1.0, np.array([0.5])), [0.0], [1.0]) == pytest.approx(
        np.exp(-2.0), rel=1e-12
    )


def test_kernel_dimension_mismatch():
    p = KernelParams(1.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        kernel_matrix(p, np.array([[0.0]]), np.array([[1.0]]))


def test_kernel_grad_zero_at_coincidence():
    p = KernelParams(1.3, np.array([0.7, 2.0, 1.1]))
    x = np.array([[0.4, -1.0, 2.2]])
    np.testing.assert_allclose(kernel_grad_first(p, x, x)[0, 0], 0.0, atol=1e-15)


def test_kernel_grad_direct_value():
    p = KernelParams(1.0, np.array([1.0]))
    g = kernel_grad_first(p, np.array([[0.0]]), np.array([[1.0]]))[0, 0, 0]
    assert g == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_kernel_grad_matches_fd():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = KernelParams(float(rng.uniform(0.5, 2.0)), rng.uniform(0.5, 2.0, size=3))
        x = rng.normal(size=3)
        xp = x + rng.normal(size=3)
        got = kernel_grad_first(p, x.reshape(1, -1), xp.reshape(1, -1))[0, 0]
        want = numeric_grad(lambda X: k_scalar(p, X[0], xp), x.reshape(1, -1), 1e-5)[0]
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-12)


def test_empty_lengthscales_are_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        KernelParams(1.0, [])
    with pytest.raises(ValueError, match="non-empty"):
        KernelParams(1.0, np.zeros(0))


def _assert_planes_match(got, want, d):
    """Bit for bit where the broadcast form adds at most two terms in order;
    einsum adds four as (0+2)+(1+3), so there the sum may move by an ulp."""
    if d <= 2:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_per_dimension_kernel_matches_the_broadcast_reference(d):
    rng = np.random.default_rng(70 + d)
    params = KernelParams(float(rng.uniform(0.5, 2.0)), rng.uniform(0.5, 3.0, size=d))
    rows, n, q, E = 37, 9, 3, 5
    P = rng.uniform(0.0, 5.0, size=(rows, d))
    D = rng.uniform(0.0, 5.0, size=(n, d))
    X1 = rng.uniform(0.0, 5.0, size=(rows, q, d))
    S = rng.uniform(0.0, 5.0, size=(E, q, d))
    # Every pairing a caller makes: kernel_matrix's (rows, n), _stage1's
    # (rows, 1, d) x (rows, q, d), both orders, and _Block's (E, q, 1, d) x
    # (E, 1, q, d).
    pairs = [
        (P[:, None, :], D[None, :, :]),
        (P[:, None, :], X1),
        (X1, P[:, None, :]),
        (S[:, :, None, :], S[:, None, :, :]),
    ]
    for A, B in pairs:
        K = kernel_paired(params, A, B)
        _assert_planes_match(K, ref_kernel_paired(params, A, B), d)
        np.testing.assert_array_equal(
            kernel_grad_paired(params, A, B, K), ref_kernel_grad_paired(params, A, B, K)
        )
    _assert_planes_match(kernel_matrix(params, P, D), ref_kernel_paired(params, *pairs[0]), d)
    np.testing.assert_array_equal(_nearest(P, D), ref_nearest(P, D))
    np.testing.assert_array_equal(_nearest(P, D[:0]), ref_nearest(P, D[:0]))

    y = np.sin(D).sum(axis=1)
    for _ in range(4):
        theta = np.concatenate([[rng.uniform(-1.0, 1.0)], rng.uniform(-0.5, 1.0, size=d)])
        nll, grad = _nll_and_grad(theta, D, y, JITTER_INITIAL)
        ref_nll, ref_grad = ref_nll_and_grad(theta, D, y, JITTER_INITIAL)
        _assert_planes_match(np.array([nll]), np.array([ref_nll]), d)
        _assert_planes_match(grad, ref_grad, d)
    # A kernel matrix that overflows to inf: (inf, zeros) on both routes.
    theta = np.concatenate([[800.0], np.zeros(d)])
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _nll_and_grad(theta, D, y, JITTER_INITIAL), ref_nll_and_grad(theta, D, y, JITTER_INITIAL)
    assert got[0] == want[0] == np.inf
    np.testing.assert_array_equal(got[1], want[1])
    np.testing.assert_array_equal(got[1], np.zeros(d + 1))


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
def test_squared_distances_match_np_sum_on_the_problem_designs(name):
    """Up to eight terms np.sum and np.linalg.norm add in order along the
    last axis, as sq_dist does, so every distance and mask keeps its bits."""
    bounds = get_problem(name).bounds
    d = bounds.shape[0]
    design = halton_design(min(64 * d, 256), bounds)
    pairs = design[:, None, :], design[None, :, :]
    np.testing.assert_array_equal(sq_dist(*pairs), np.sum((pairs[0] - pairs[1]) ** 2, axis=-1))
    radius = 3.0 * np.max(bounds[:, 1] - bounds[:, 0]) / len(design) ** (1.0 / d)
    np.testing.assert_array_equal(
        np.sqrt(sq_dist(*pairs)) <= radius,
        np.linalg.norm(pairs[0] - pairs[1], axis=-1) <= radius,
    )
    cand = latin_hypercube(256, bounds, np.random.SeedSequence((1, 29)))
    chosen = cand[[3, 100, 200]]
    for k in range(len(chosen) + 1):
        A, B = cand[:, None, :], chosen[None, :k, :]
        np.testing.assert_array_equal(
            np.sqrt(sq_dist(A, B)), np.linalg.norm(A - B, axis=-1)
        )
    widths = bounds[:, 1] - bounds[:, 0]
    np.testing.assert_array_equal(
        sq_dist(cand[:50], cand[50], widths), np.sum(((cand[:50] - cand[50]) / widths) ** 2, axis=1)
    )
    np.testing.assert_array_equal(_nearest(cand, design), ref_nearest(cand, design))
    iu = np.triu_indices(len(design), k=1)
    want = np.sqrt(np.min(np.sum((pairs[0] - pairs[1]) ** 2, axis=-1)[iu]))
    assert _min_pairwise_distance(design) == want


@given(
    st.lists(
        st.tuples(
            st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)
        ),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    st.floats(0.1, 5.0),
)
@settings(max_examples=40, deadline=None)
def test_kernel_matrix_symmetric_psd(points, sv):
    X = np.array(points, dtype=float)
    K = kernel_matrix(KernelParams(sv, np.array([0.8, 1.3])), X, X)
    np.testing.assert_allclose(K, K.T, atol=1e-14)
    eig = np.linalg.eigvalsh(K)
    assert eig.min() >= -1e-9 * sv


# -- fitting ----------------------------------------------------------------------


def test_fit_recovers_lengthscale_in_factor_two():
    true = KernelParams(1.0, np.array([0.5]))
    recovered = []
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 2001)))
        X = np.sort(rng.uniform(0.0, 3.0, size=30)).reshape(-1, 1)
        K = kernel_matrix(true, X, X)
        y = np.linalg.cholesky(K + 1e-10 * np.eye(30)) @ rng.standard_normal(30)
        params = fit_hyperparameters(X, y, widths=np.array([3.0]))
        recovered.append(params.lengthscales[0])
    med = float(np.median(recovered))
    assert 0.25 <= med <= 1.0


def test_fit_degenerate_targets_fallback():
    X = np.array([[0.0], [1.0]])
    params = fit_hyperparameters(X, np.zeros(2), widths=np.array([4.0]))
    assert params.signal_variance == pytest.approx(1e-6)
    np.testing.assert_allclose(params.lengthscales, [4.0])


def test_fit_monotone_over_restart_inits():
    rng = np.random.default_rng(77)
    X = rng.uniform(0.0, 2.0, size=(12, 2))
    y = np.sin(X[:, 0]) + 0.3 * X[:, 1] ** 2
    widths = np.array([2.0, 2.0])
    best = fit_hyperparameters(X, y, widths=widths, restarts=5, seed=0)
    lml_best = log_marginal_likelihood(best, X, y)
    vy = float(np.var(y))
    lo = np.concatenate([[np.log(1e-4 * vy)], np.log(1e-3 * widths)])
    hi = np.concatenate([[np.log(1e4 * vy)], np.log(10.0 * widths)])
    starts = lo + sobol_unit(3, 5, 0) * (hi - lo)
    for theta in starts:
        init = KernelParams(float(np.exp(theta[0])), np.exp(theta[1:]))
        assert lml_best >= log_marginal_likelihood(init, X, y) - 1e-9


def test_fit_respects_bounds():
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 1.0, size=(10, 1))
    y = rng.standard_normal(10)
    params = fit_hyperparameters(X, y, widths=np.array([1.0]))
    assert 1e-3 <= params.lengthscales[0] <= 10.0
    vy = np.var(y)
    assert 1e-4 * vy <= params.signal_variance <= 1e4 * vy


@pytest.mark.parametrize("d", [1, 2, 4])
def test_nll_grad_matches_central_differences(d):
    rng = np.random.default_rng(40 + d)
    X = rng.uniform(0.0, 3.0, size=(8, d))
    y = np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(8)
    for _ in range(5):
        theta = np.concatenate([[rng.uniform(-1.0, 1.0)], rng.uniform(-1.5, -0.5, size=d)])
        _, grad = _nll_and_grad(theta, X, y, JITTER_INITIAL)
        want = numeric_grad(
            lambda T: _nll_and_grad(T[0], X, y, JITTER_INITIAL)[0], theta.reshape(1, -1), 1e-6
        )[0]
        np.testing.assert_allclose(grad, want, rtol=1e-5, atol=1e-6)


def test_log_marginal_likelihood_is_minus_inf_where_the_kernel_does_not_factorize():
    """At a subnormal signal variance the initial jitter rounds to zero, so
    two coincident inputs leave the kernel matrix singular."""
    X, y = np.array([[0.0], [0.0]]), np.array([1.0, -1.0])
    assert log_marginal_likelihood(KernelParams(5e-324, np.array([1.0])), X, y) == -np.inf
    nll, grad = _nll_and_grad(np.zeros(2), X, y, 0.0)
    assert nll == np.inf
    np.testing.assert_array_equal(grad, np.zeros(2))


def test_log_marginal_likelihood_rejects_mismatched_lengthscales():
    X, y = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, -1.0])
    with pytest.raises(ValueError):
        log_marginal_likelihood(KernelParams(1.0, np.array([1.0])), X, y)
    with pytest.raises(ValueError):
        log_marginal_likelihood(KernelParams(1.0, np.ones(2)), X[:, :1], y)


NON_FINITE_CASES = [
    (np.zeros(2), np.array([[0.0], [np.nan]])),  # NaN input
    (np.zeros(2), np.array([[0.0], [np.inf]])),  # inf - inf on the diagonal
    (np.array([800.0, 0.0]), np.array([[0.0], [1.0]])),  # signal variance overflows to inf
]


def test_nll_of_a_non_finite_kernel_matrix_is_inf_with_zero_gradient():
    y = np.array([1.0, -1.0])
    for theta, inputs in NON_FINITE_CASES:
        with np.errstate(over="ignore", invalid="ignore"):
            nll, grad = _nll_and_grad(theta, inputs, y, JITTER_INITIAL)
        assert nll == np.inf
        np.testing.assert_array_equal(grad, np.zeros(2))


@pytest.mark.parametrize("d", [1, 2, 4])
def test_nll_on_per_fit_constants_has_the_bits_of_a_fresh_call(d):
    """One set of constants serves every evaluation of a fit: the in-place
    work of an evaluation must leave them as they were."""
    rng = np.random.default_rng(60 + d)
    X = rng.uniform(0.0, 3.0, size=(12, d))
    y = np.sin(X).sum(axis=1)
    consts = _nll_constants(X)
    for _ in range(50):
        theta = np.concatenate([[rng.uniform(-4.0, 4.0)], rng.uniform(-3.0, 2.0, size=d)])
        nll, grad = _nll_and_grad(theta, X, y, JITTER_INITIAL, consts)
        want_nll, want_grad = _nll_and_grad(theta, X, y, JITTER_INITIAL)
        assert nll == want_nll
        np.testing.assert_array_equal(grad, want_grad)
        if d <= 2:
            want_nll, want_grad = ref_nll_and_grad(theta, X, y, JITTER_INITIAL)
            assert nll == want_nll
            np.testing.assert_array_equal(grad, want_grad)
    y = np.array([1.0, -1.0])
    for theta, inputs in NON_FINITE_CASES:
        with np.errstate(over="ignore", invalid="ignore"):
            nll, grad = _nll_and_grad(theta, inputs, y, JITTER_INITIAL, _nll_constants(inputs))
        assert nll == np.inf
        np.testing.assert_array_equal(grad, np.zeros(2))


def _fit_data(d, seed):
    rng = np.random.default_rng((seed, 61, d))
    X = rng.uniform(0.0, 2.0, size=(8 + 4 * seed, d))
    return X, np.sin(2.0 * X).sum(axis=1) + 0.1 * rng.standard_normal(len(X))


def _fit_box(y, widths):
    vy = float(np.var(y))
    lo = np.concatenate([[np.log(1e-4 * vy)], np.log(1e-3 * widths)])
    hi = np.concatenate([[np.log(1e4 * vy)], np.log(10.0 * widths)])
    return lo, hi


def _lbfgsb_cases():
    """(likelihood, x0, lo, hi): Sobol starts in the fit's box on _fit_data
    for d = 1, 2, 4, starts on the bounds and outside the box, and a start
    at zero jitter from which the run meets kernels that do not factorize."""
    for d in (1, 2, 4):
        for seed in range(2):
            X, y = _fit_data(d, seed)
            lo, hi = _fit_box(y, np.full(d, 2.0))
            fun = lambda theta, X=X, y=y: _nll_and_grad(theta, X, y, JITTER_INITIAL)
            for x0 in lo + sobol_unit(d + 1, 3, seed) * (hi - lo):
                yield fun, x0, lo, hi
            yield fun, np.where(np.arange(d + 1) % 2, lo, hi), lo, hi
            yield fun, np.where(np.arange(d + 1) % 2, hi, lo), lo, hi
            yield fun, hi + 1.0, lo, hi
    X, y = _fit_data(1, 0)
    lo, hi = _fit_box(y, np.array([2.0]))
    yield lambda theta: _nll_and_grad(theta, X, y, 0.0), lo + 0.7 * (hi - lo), lo, hi


def test_lbfgsb_driver_matches_scipy_minimize_bit_for_bit():
    """gp._lbfgsb runs the loop of scipy's L-BFGS-B with minimize's defaults:
    the same result bits and the same evaluations in the same order. The
    routine can ask twice in a row for one theta; minimize serves the repeat
    from its cache and the fit from its memo, so a repeat is no evaluation."""
    from scipy.optimize import minimize

    met_inf = False
    for fun, x0, lo, hi in _lbfgsb_cases():
        seen = {"driver": [], "minimize": []}

        def logged(key):
            def f(theta):
                if not seen[key] or not np.array_equal(theta, seen[key][-1]):
                    seen[key].append(theta.copy())
                return fun(theta)

            return f

        got = gp._lbfgsb(logged("driver"), x0, lo, hi)
        bounds = list(zip(lo, hi))
        res = minimize(logged("minimize"), x0, jac=True, method="L-BFGS-B", bounds=bounds)
        np.testing.assert_array_equal(got, res.x)
        assert len(seen["driver"]) == len(seen["minimize"])
        for a, b in zip(seen["driver"], seen["minimize"]):
            np.testing.assert_array_equal(a, b)
        met_inf |= any(np.isinf(fun(theta)[0]) for theta in seen["driver"])
    assert met_inf


def _watch_lbfgsb(monkeypatch, on_result=None):
    """Record, per L-BFGS-B run of a fit, the thetas it evaluated and its
    result; on_result(fun, x) runs after each."""
    runs = []
    original = gp._lbfgsb

    def watched(fun, x0, lo, hi):
        thetas = []

        def logged(theta):
            thetas.append(theta.copy())
            return fun(theta)

        x = original(logged, x0, lo, hi)
        runs.append((thetas, x.copy()))
        if on_result is not None:
            on_result(fun, x)
        return x

    monkeypatch.setattr(gp, "_lbfgsb", watched)
    return runs


@pytest.mark.parametrize("d", [1, 2])
def test_fit_evaluates_through_the_module_likelihood_but_for_memo_hits(d, monkeypatch):
    """Every evaluation a fit makes reaches gp._nll_and_grad, the name a
    tracer wraps, except a repeat of the theta evaluated just before it."""
    seen = []
    original = gp._nll_and_grad

    def counting(theta, *args):
        seen.append(theta.copy())
        return original(theta, *args)

    monkeypatch.setattr(gp, "_nll_and_grad", counting)
    runs = _watch_lbfgsb(monkeypatch)
    X, y = _fit_data(d, 1)
    warm = KernelParams(0.7, np.full(d, 0.4))  # inside the box
    fit_hyperparameters(X, y, widths=np.full(d, 2.0), seed=3, warm_start=warm)
    # The evaluations the fit asks for, in order: each run's, the check at
    # its result, then the warm start.
    asked = [theta for thetas, x in runs for theta in (*thetas, x)]
    asked.append(np.log(np.concatenate([[0.7], np.full(d, 0.4)])))
    hits = [i for i in range(1, len(asked)) if np.array_equal(asked[i], asked[i - 1])]
    want = [theta for i, theta in enumerate(asked) if i not in hits]
    assert len(seen) == len(want)
    for got, theta in zip(seen, want):
        np.testing.assert_array_equal(got, theta)
    assert hits  # the check after a run is most often the point it evaluated last


def test_fit_memo_hands_out_a_fresh_gradient(monkeypatch):
    X, y = _fit_data(2, 0)
    checked = []

    def spoil_then_repeat(fun, x):
        _, grad = fun(x)
        want = grad.copy()
        grad[:] = np.nan
        _, again = fun(x)
        np.testing.assert_array_equal(again, want)
        checked.append(True)

    _watch_lbfgsb(monkeypatch, spoil_then_repeat)
    fit_hyperparameters(X, y, widths=np.array([2.0, 2.0]), seed=1)
    assert checked


def test_fit_never_falls_below_a_warm_start_outside_the_box(monkeypatch):
    """The result is at least as likely as the warm start clipped into the
    box; when the search ends somewhere worse, the fit returns that point."""
    X, y = _fit_data(2, 1)
    widths = np.full(2, 2.0)
    lo, hi = _fit_box(y, widths)
    warm = KernelParams(1e6 * float(np.var(y)), 1e-5 * widths)  # above and below the box
    theta_raw = np.log(np.concatenate([[warm.signal_variance], warm.lengthscales]))
    theta_w = np.clip(theta_raw, lo, hi)
    assert np.all(theta_w != theta_raw)
    warm_nll = _nll_and_grad(theta_w, X, y, JITTER_INITIAL)[0]

    got = fit_hyperparameters(X, y, widths=widths, restarts=1, seed=2, warm_start=warm)
    theta = np.log(np.concatenate([[got.signal_variance], got.lengthscales]))
    assert np.all(theta >= lo - 1e-12) and np.all(theta <= hi + 1e-12)
    assert _nll_and_grad(theta, X, y, JITTER_INITIAL)[0] <= warm_nll

    # A search that ends at the upper corner, which is less likely.
    assert _nll_and_grad(hi, X, y, JITTER_INITIAL)[0] > warm_nll
    monkeypatch.setattr(gp, "_lbfgsb", lambda fun, x0, lo, hi: hi.copy())
    got = fit_hyperparameters(X, y, widths=widths, restarts=1, seed=2, warm_start=warm)
    assert got.signal_variance == np.exp(theta_w[0])
    np.testing.assert_array_equal(got.lengthscales, np.exp(theta_w[1:]))


def _ref_nll(theta, X, y, jit_rel, consts):
    return ref_nll_and_grad(theta, X, y, jit_rel)


@pytest.mark.parametrize("d", [1, 2])
def test_fit_returns_the_bits_of_a_fit_on_the_reference_likelihood(d, monkeypatch):
    for seed in range(3):
        X, y = _fit_data(d, seed)
        warm = KernelParams(1.3, np.full(d, 0.6)) if seed else None
        got = fit_hyperparameters(X, y, widths=np.full(d, 2.0), seed=seed, warm_start=warm)
        with monkeypatch.context() as m:
            m.setattr(gp, "_nll_and_grad", _ref_nll)
            want = fit_hyperparameters(X, y, widths=np.full(d, 2.0), seed=seed, warm_start=warm)
        assert got.signal_variance == want.signal_variance
        np.testing.assert_array_equal(got.lengthscales, want.lengthscales)


# -- posterior --------------------------------------------------------------------


def _toy_model(seed=0, n=6, d=2):
    rng = np.random.default_rng(seed)
    params = KernelParams(1.5, rng.uniform(0.6, 1.4, size=d))
    X = rng.uniform(0.0, 4.0, size=(n, d))
    y = rng.standard_normal(n)
    return GPModel.fit(X, y, params)


def test_posterior_interpolates_training_data():
    model = _toy_model()
    for x, t in zip(model.train_inputs, model.train_targets):
        m, v = model.posterior(x)
        assert m == pytest.approx(t, abs=1e-6)
        assert 0.0 <= v <= 1e-6


def test_posterior_empty_training_set_is_prior():
    model = GPModel.fit(np.empty((0, 2)), np.empty(0), KernelParams(2.5, np.ones(2)))
    m, v = model.posterior(np.array([0.3, -1.0]))
    assert m == 0.0
    assert v == pytest.approx(2.5)


def test_posterior_far_from_data_recovers_prior():
    model = _toy_model()
    far = model.train_inputs[0] + 25.0 * np.max(model.kernel.lengthscales)
    m, v = model.posterior(far)
    assert abs(m) <= 1e-6
    assert abs(v - model.kernel.signal_variance) <= 1e-6


def test_posterior_joint_singleton_matches_posterior():
    model = _toy_model(3)
    x = np.array([1.1, 0.4])
    mu, cov = posterior_joint(model, x.reshape(1, -1))
    m, v = model.posterior(x)
    assert mu[0] == pytest.approx(m, abs=1e-12)
    assert cov[0, 0] == pytest.approx(v, abs=1e-9)


def test_posterior_joint_near_duplicates_warn_and_correlate():
    model = _toy_model(4)
    x = np.array([0.7, 0.9])
    X = np.vstack([x, x + 0.3 * DUPLICATE_TOL])
    with pytest.warns(RuntimeWarning):
        _, cov = posterior_joint(model, X)
    corr = cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1])
    assert corr == pytest.approx(1.0, abs=1e-6)


def test_posterior_joint_matches_direct_formula():
    model = _toy_model(9, n=5)
    rng = np.random.default_rng(21)
    X = rng.uniform(0.0, 4.0, size=(3, 2))
    mu, cov = posterior_joint(model, X)
    # direct formula with an independent solve
    K = kernel_matrix(model.kernel, model.train_inputs, model.train_inputs)
    K = K + model.jitter * np.eye(model.n_train)
    Kxd = kernel_matrix(model.kernel, X, model.train_inputs)
    Kxx = kernel_matrix(model.kernel, X, X)
    Kinv = np.linalg.inv(K)
    np.testing.assert_allclose(mu, Kxd @ Kinv @ model.train_targets, atol=1e-8)
    np.testing.assert_allclose(cov, Kxx - Kxd @ Kinv @ Kxd.T, atol=1e-8)


# -- fantasy conditioning -----------------------------------------------------------


def test_condition_on_posterior_mean_leaves_mean_fixed():
    model = _toy_model(6)
    rng = np.random.default_rng(8)
    X1 = rng.uniform(0.0, 4.0, size=(2, 2))
    y1 = model.posterior_many(X1)[0]
    cond = model.condition_on_fantasy(X1, y1)
    T = rng.uniform(0.0, 4.0, size=(50, 2))
    np.testing.assert_allclose(
        cond.posterior_many(T)[0], model.posterior_many(T)[0], atol=1e-6
    )


def test_conditioning_never_increases_variance():
    model = _toy_model(7)
    rng = np.random.default_rng(9)
    X1 = rng.uniform(0.0, 4.0, size=(2, 2))
    cond = model.condition_on_fantasy(X1, rng.standard_normal(2))
    T = rng.uniform(0.0, 4.0, size=(40, 2))
    assert np.all(cond.posterior_many(T)[1] <= model.posterior_many(T)[1] + 1e-8)


def test_sequential_equals_joint_conditioning():
    model = _toy_model(10)
    xa, xb = np.array([[0.5, 1.0]]), np.array([[2.5, 3.0]])
    ya, yb = 0.4, -0.9
    seq = model.condition_on_fantasy(xa, [ya]).condition_on_fantasy(xb, [yb])
    joint = model.condition_on_fantasy(np.vstack([xa, xb]), [ya, yb])
    T = np.random.default_rng(12).uniform(0.0, 4.0, size=(30, 2))
    np.testing.assert_allclose(
        seq.posterior_many(T)[0], joint.posterior_many(T)[0], atol=1e-8
    )


def test_fantasy_overlap_warns():
    model = _toy_model(13)
    with pytest.warns(RuntimeWarning):
        model.condition_on_fantasy(model.train_inputs[:1], [0.0])


# -- posterior gradients -------------------------------------------------------------


def test_mean_grad_zero_at_symmetric_midpoint():
    params = KernelParams(1.0, np.array([1.0]))
    model = GPModel.fit(np.array([[0.0], [2.0]]), np.array([0.8, 0.8]), params)
    _, _, dmean, _, _ = model.posterior_grads(np.array([1.0]))
    np.testing.assert_allclose(dmean, 0.0, atol=1e-8)


def test_posterior_grads_match_fd():
    model = _toy_model(14)
    rng = np.random.default_rng(15)
    for _ in range(10):
        x = rng.uniform(0.3, 3.7, size=2)
        _, _, dmean, dsigma, degen = model.posterior_grads(x)
        assert not degen
        fd_m = numeric_grad(lambda X: model.posterior(X[0])[0], x.reshape(1, -1), 1e-6)[0]
        fd_s = numeric_grad(
            lambda X: np.sqrt(model.posterior(X[0])[1]), x.reshape(1, -1), 1e-6
        )[0]
        np.testing.assert_allclose(dmean, fd_m, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(dsigma, fd_s, rtol=1e-5, atol=1e-8)


def test_posterior_grads_empty_model_zero():
    model = GPModel.fit(np.empty((0, 2)), np.empty(0), KernelParams(1.0, np.ones(2)))
    _, _, dmean, dsigma, degen = model.posterior_grads(np.array([0.5, 0.5]))
    np.testing.assert_allclose(dmean, 0.0)
    np.testing.assert_allclose(dsigma, 0.0)
    assert not degen


def test_posterior_grads_degenerate_at_training_point():
    model = _toy_model(16)
    _, _, _, dsigma, degen = model.posterior_grads(model.train_inputs[0])
    assert degen
    np.testing.assert_allclose(dsigma, 0.0)


@pytest.mark.parametrize("n,d", [(8, 2), (17, 2), (20, 4), (31, 4)])
def test_row_terms_keep_their_bits_at_workload_sizes(n, d):
    """GPModel.rows and row_grads take their row products by one GEMM; on
    the workloads' data sizes (8 points on p1, 20 on p3, up to 31), every
    row of a subset, and a single row, has the bits of the full call. The
    tests' own instances hold at most six points."""
    rng = np.random.default_rng((n, d, 72))
    D = 6.0 * rng.random((n, d))
    model = GPModel.fit(D, np.sin(D).sum(axis=1), KernelParams(1.1, rng.uniform(1.0, 3.0, d)))
    X = 6.0 * rng.random((1280, d))
    full = model.row_grads(X, model.rows(X))
    for keep in (rng.random(len(X)) < 0.3, np.arange(len(X)) < 37, np.arange(len(X)) == 700):
        part = model.row_grads(X[keep], model.rows(X[keep]))
        for key, value in part.items():
            np.testing.assert_array_equal(value, full[key][keep], err_msg=key)


@pytest.mark.parametrize("n,d", [(32, 2), (40, 2), (43, 4), (64, 2), (64, 4)])
def test_row_terms_stay_within_row_rtol_past_31_points(n, d):
    """The subsets of test_row_terms_keep_their_bits_at_workload_sizes at 32
    to 64 points, where a row's bits can move with the rows that share its
    GEMM: every term within ROW_RTOL (oracle_utils) of the full call."""
    rng = np.random.default_rng((n, d, 72))
    D = 6.0 * rng.random((n, d))
    sv = 1.1
    model = GPModel.fit(D, np.sin(D).sum(axis=1), KernelParams(sv, rng.uniform(1.0, 3.0, d)))
    X = 6.0 * rng.random((1280, d))
    full = model.row_grads(X, model.rows(X))
    for keep in (rng.random(len(X)) < 0.3, np.arange(len(X)) < 37, np.arange(len(X)) == 700):
        part = model.row_grads(X[keep], model.rows(X[keep]))
        for key, value in part.items():
            assert_rows_close(value, full[key][keep], sv, err_msg=key)


# GPModel.kernel_grad_sum against the kernel gradient it replaces: the
# (rows, n, d) J of kernel_grad_first_from, contracted with the coefficients.
# The helper subtracts terms of size |C_n| |x - centre| and |C_n| |d_n -
# centre| (over ls^2), centre the data mean; where a row sits 1e-5 from a data
# point at the smallest lengthscales they cancel to their difference, and the
# error reaches about 4e-11 of the J form's largest term there (1.6e-15 at most
# elsewhere). So the bound is 1e-12 of the largest term the helper subtracts.
# A box far from the origin (offset 1e6) holds only because the terms are
# taken about the data's centre: about the origin the error would be near
# 1e-10 of the bound's terms. Subnormal kernel values carry no relative
# precision, so the bound never falls below the smallest normal number.
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("ls_factor", [1e-3, 10.0])  # the ends of the fit's lengthscale box
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_kernel_grad_sum_matches_the_contracted_kernel_gradient(d, ls_factor, offset):
    rng = np.random.default_rng((d, 71))
    width, n = 6.0, 12
    box = np.array([[offset, offset + width]] * d)
    D = offset + width * rng.random((n, d))
    models = [
        GPModel.fit(D, np.sin(D).sum(axis=1) + k, KernelParams(sv, ls_factor * width * ls))
        for k, (sv, ls) in enumerate([(1.3, rng.uniform(0.8, 1.0, d)), (0.7, np.ones(d))])
    ]
    far = D[:3] + 50 * width
    X = np.vstack([halton_design(40, box), D + 1e-5, far])
    centre = D.mean(axis=0)
    stacked = GPModel.stack(models)
    K_all = kernel_matrix(stacked.kernel, X, D)
    c_all = rng.standard_normal((2, len(X), n))
    got_all = stacked.kernel_grad_sum(X, c_all * K_all)
    for model, c, K, got_stacked in zip(models, c_all, K_all, got_all):
        params = model.kernel
        np.testing.assert_array_equal(K, kernel_matrix(params, X, D))
        got = model.kernel_grad_sum(X, c * K)
        np.testing.assert_array_equal(got_stacked, got)
        ref = np.einsum("rn,rnd->rd", c, kernel_grad_first_from(params, X, D, K))
        C = np.abs(c * K)[:, :, None]
        terms = C * (np.abs(X - centre)[:, None, :] + np.abs(D - centre)[None, :, :])
        bound = 1e-12 * terms.max(axis=1) / params.lengthscales**2 + np.finfo(float).tiny
        assert np.all(np.abs(got - ref) <= bound)
        assert np.all(np.abs(got[-3:]) <= np.abs(ref[-3:]) + bound[-3:])


# -- fantasy posterior gradients ------------------------------------------------------
# FantasyEngine.stage1_x1_grads: derivatives in the batch X1 of the stage-1
# mean and standard deviation at x2, with the fantasy values held fixed.


def _fd_fantasy(model, X1, y1, x2, h):
    """Re-conditioning finite differences of (mu1(x2), sigma1(x2)) in X1."""

    def mean_at(X):
        return model.condition_on_fantasy(X, y1).posterior(x2)[0]

    def sigma_at(X):
        return float(np.sqrt(model.condition_on_fantasy(X, y1).posterior(x2)[1]))

    return numeric_grad(mean_at, X1, h), numeric_grad(sigma_at, X1, h)


def test_fantasy_grads_vanish_far_away():
    model = _toy_model(17, d=1)
    X1 = model.train_inputs[:1] + 30.0 * model.kernel.lengthscales[0]
    x2 = model.train_inputs[0] + np.array([0.37])
    engine = FantasyEngine(PosteriorBundle.from_models(model, []), X1)
    batch = batch_from_values(engine, [[0.2]])
    _, s1, (dmu,), (dsig,) = engine.stage1_x1_grads(0, x2[None], batch.U[0], batch.e)
    assert s1[0] > SIGMA_FLOOR
    assert np.max(np.abs(dmu)) <= 1e-6
    assert np.max(np.abs(dsig)) <= 1e-6


def test_fantasy_grads_match_fd_1d():
    rng = np.random.default_rng(18)
    for _ in range(10):
        params = KernelParams(float(rng.uniform(0.5, 1.5)), rng.uniform(0.7, 1.5, 1))
        X = rng.uniform(0.0, 5.0, size=(4, 1))
        model = GPModel.fit(X, rng.standard_normal(4), params)
        X1 = rng.uniform(0.2, 4.8, size=(1, 1))
        x2 = rng.uniform(0.2, 4.8, size=1)
        if min(abs(x2[0] - v) for v in np.append(X.ravel(), X1.ravel())) < 0.15:
            continue
        y1 = rng.standard_normal(1)
        engine = FantasyEngine(PosteriorBundle.from_models(model, []), X1)
        batch = batch_from_values(engine, [y1])
        _, s1, (dmu,), (dsig,) = engine.stage1_x1_grads(0, x2[None], batch.U[0], batch.e)
        if s1[0] <= SIGMA_FLOOR:
            continue
        fd_mu, fd_sig = _fd_fantasy(model, X1, y1, x2, 1e-5)
        np.testing.assert_allclose(dmu, fd_mu, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(dsig, fd_sig, rtol=1e-4, atol=1e-7)


def test_fantasy_grads_antipode_batch():
    params = KernelParams(1.0, np.array([0.8]))
    model = GPModel.fit(np.array([[2.5]]), np.array([0.1]), params)
    x2 = np.array([0.5])
    X1 = np.array([[0.9], [25.0]])  # second batch point far from x2
    engine = FantasyEngine(PosteriorBundle.from_models(model, []), X1)
    batch = batch_from_values(engine, [[0.3, -0.2]])
    _, _, (dmu,), _ = engine.stage1_x1_grads(0, x2[None], batch.U[0], batch.e)
    assert np.max(np.abs(dmu[1])) <= 1e-6
    assert np.max(np.abs(dmu[0])) > 10 * np.max(np.abs(dmu[1]))


def test_sigma_grads_share_one_near_data_rule():
    """At 1e-5 from a data point, inside NEAR_DATA_TOL, the sigma gradient of
    posterior_grads is zeros and flagged degenerate though the standard
    deviation is above SIGMA_FLOOR; at 10 NEAR_DATA_TOL it is not."""
    model = _toy_model(20)
    for offset, inside in ((1e-5, True), (10 * NEAR_DATA_TOL, False)):
        x = model.train_inputs[0] + np.array([offset, 0.0])
        assert np.sqrt(model.posterior(x)[1]) > SIGMA_FLOOR
        _, _, _, dsigma, degen = model.posterior_grads(x)
        assert degen == inside
        assert np.all(dsigma == 0) == inside


# -- factorization helpers -------------------------------------------------------------


def test_jittered_cholesky_reproduces_matrix():
    rng = np.random.default_rng(20)
    A = rng.standard_normal((4, 4))
    C = A @ A.T
    L, jit = jittered_cholesky(C, scale=1.0)
    np.testing.assert_allclose(L @ L.T, C + jit * np.eye(4), atol=1e-10)
    assert jit == pytest.approx(JITTER_INITIAL)


def test_jittered_cholesky_escalates_then_fails():
    C = np.array([[-1.0]])
    with pytest.raises(FactorizationError):
        jittered_cholesky(C, scale=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_jittered_cholesky_rejects_a_non_finite_matrix(bad):
    """LAPACK's potrf factorizes a matrix holding NaN without an error; the
    matrix is checked first, as scipy.linalg.cholesky checks it."""
    C = np.eye(3)
    C[2, 1] = C[1, 2] = bad
    with pytest.raises(ValueError):
        jittered_cholesky(C, scale=1.0)


def test_fit_rejects_a_non_finite_target():
    X = np.linspace(0.0, 1.0, 4)[:, None]
    with pytest.raises(ValueError):
        GPModel.fit(X, [0.0, np.nan, 1.0, 2.0], KernelParams(1.0, np.ones(1)))


def test_fit_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        GPModel.fit(np.zeros((3, 1)), np.zeros(2), KernelParams(1.0, np.ones(1)))
