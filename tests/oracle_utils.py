"""Independent reference implementations backing the test suite.

Everything here reaches the target quantity through a different route than
the package: deterministic quadrature instead of Monte Carlo, re-conditioning
instead of in-place posterior corrections, dense grids instead of gradient
ascent. Tests freeze expectations against these references.
"""

import warnings

import numpy as np
from scipy import integrate, linalg
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import ndtr, ndtri, roots_hermite, roots_legendre

from twostep_cbo.acquisition import PosteriorBundle
from twostep_cbo.gp import (
    DUPLICATE_TOL,
    JITTER_INITIAL,
    GPModel,
    KernelParams,
    _min_pairwise_distance,
    _nll_and_grad,
    jittered_cholesky,
    kernel_grad_first_from,
    kernel_matrix,
)
from twostep_cbo.lookahead import _FantasyBatch

SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def norm_pdf(z):
    return np.exp(-0.5 * np.square(z)) / SQRT_2PI


def ref_ei(m, v):
    """Expected improvement, written independently of the package."""
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.maximum(m, 0.0)
    pos = v > 0
    s = np.sqrt(np.where(pos, v, 1.0))
    z = m / s
    out = np.where(pos, m * ndtr(z) + s * norm_pdf(z), out)
    return out if out.ndim else float(out)


def ref_pf(m, v):
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.where(m <= 0, 1.0, 0.0)
    pos = v > 0
    s = np.sqrt(np.where(pos, v, 1.0))
    out = np.where(pos, ndtr(-m / s), out)
    return out if out.ndim else float(out)


def numeric_grad(fn, X, h):
    """Central finite difference of a scalar function of a (q, d) array."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            up = X.copy()
            dn = X.copy()
            up[i, j] += h
            dn[i, j] -= h
            out[i, j] = (fn(up) - fn(dn)) / (2.0 * h)
    return out


# -- broadcast forms of the per-dimension kernel -----------------------------------
#
# The package evaluates the kernel, its gradient, the likelihood and the
# distances one input dimension at a time. These are the same formulas on one
# (..., d) difference array each, the form the package used before.


def ref_kernel_paired(params, A, B):
    diff = (A - B) / params.lengthscales
    return params.signal_variance * np.exp(-0.5 * np.einsum("...d,...d->...", diff, diff))


def ref_kernel_grad_paired(params, A, B, K):
    return -K[..., None] * (A - B) / params.lengthscales**2


def ref_nearest(X, points):
    d2 = np.sum((X[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    return np.sqrt(np.min(d2, axis=1, initial=np.inf))


def ref_nll_and_grad(theta, X, y, jit_rel):
    sv = np.exp(theta[0])
    ls = np.exp(theta[1:])
    n = X.shape[0]
    diff = (X[:, None, :] - X[None, :, :]) / ls
    Kc = sv * np.exp(-0.5 * np.einsum("...d,...d->...", diff, diff))
    eye = np.eye(n)
    K = Kc + jit_rel * sv * eye
    L, info = dpotrf(K, lower=1)
    if info != 0 or not np.isfinite(K).all():
        return np.inf, np.zeros_like(theta)
    w = dpotrs(L, y, lower=1)[0]
    nll = 0.5 * y @ w + np.sum(np.log(np.diag(L))) + 0.5 * n * np.log(2.0 * np.pi)
    S = np.outer(w, w) - dpotrs(L, eye, lower=1)[0]
    grad = np.empty_like(theta)
    grad[0] = -0.5 * np.sum(S * K)
    sq = diff**2
    for j in range(len(ls)):
        grad[1 + j] = -0.5 * np.sum(S * (Kc * sq[..., j]))
    return float(nll), grad


def log_marginal_likelihood(params: KernelParams, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Log marginal likelihood of the data under the jittered kernel: minus
    the objective that fit_hyperparameters minimizes, -inf where the kernel
    matrix does not factorize at the initial jitter."""
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    if params.lengthscales.shape[0] != X.shape[1]:
        raise ValueError("point dimension does not match kernel lengthscales")
    theta = np.log(np.concatenate([[params.signal_variance], params.lengthscales]))
    return -_nll_and_grad(theta, X, np.asarray(targets, dtype=float).ravel(), JITTER_INITIAL)[0]


def ref_projected_ascent(evaluate, P, bounds, first_move, steps):
    """acquisition.projected_ascent with indexed updates of the full arrays:
    each step gathers the active rows and scatters the accepted ones back."""
    lo, wid = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    U = (P - lo) / wid
    vals, grad = evaluate(P, np.arange(len(P)))
    gU = grad(np.ones(len(P), dtype=bool)) * wid
    g_inf = np.max(np.abs(gU), axis=1)
    step = first_move / np.where(g_inf > np.finfo(float).tiny, g_inf, 1.0)
    active = np.arange(len(P))
    for _ in range(steps):
        if active.size == 0:
            break
        cand_U = np.clip(U[active] + step[active, None] * gU[active], 0.0, 1.0)
        cand_vals, grad = evaluate(lo + cand_U * wid, active)
        moved = np.any(cand_U != U[active], axis=1)
        hit = cand_vals > vals[active]
        acc = active[hit]
        if acc.size:
            vals[acc] = cand_vals[hit]
            U[acc] = cand_U[hit]
            gU[acc] = grad(hit) * wid
        step[acc] *= 1.6
        step[active[~hit]] *= 0.5
        move = step[active] * np.max(np.abs(gU[active]), axis=1)
        active = active[(move >= 1e-8) & moved & (hit | np.isfinite(step[active]))]
    return lo + U * wid, vals


def kernel_grad_first(params, A, B):
    """Derivative of k(a_i, b_j) with respect to a_i, shape (m, n, d)."""
    return kernel_grad_first_from(params, A, B, kernel_matrix(params, A, B))


def batch_from_values(engine, Y):
    """A FantasyEngine's fantasies from their values: per block, (count, q)
    rows shared by every batch or (E, count, q); batch-major, with f1* and
    the whitened residuals formed as engine.batch_from_normals forms them."""
    stacked = [engine._stacked(np.atleast_2d(Yb)) for Yb in Y]
    Y, e = [Yb for Yb, _ in stacked], stacked[0][1]
    U = [
        np.einsum("fpq,fq->fp", blk.Cinv[e], Yb - blk.mu0[e])
        for Yb, blk in zip(Y, engine.blocks)
    ]
    return _FantasyBatch(Y, engine._f1(Y), U, e)


def gathered_batch(engine, Z):
    """engine.batch_from_normals(Z) by a gather of each fantasy's own copy
    of its batch's factors (Lc, mu0, and Cinv in batch_from_values): the
    reference for the engine's products over the batch axis."""
    Z, e = engine._stacked(Z)
    q = engine.q
    Y = [
        (blk.mu0[e] + np.einsum("fq,fpq->fp", Z[:, b * q : (b + 1) * q], blk.Lc[e]))
        for b, blk in enumerate(engine.blocks)
    ]
    return batch_from_values(engine, [Yb.reshape(engine.E, -1, q) for Yb in Y])


def posterior_joint(model, X):
    """Joint posterior mean vector and covariance matrix of a GPModel over
    rows of X, from one many-column triangular solve; warns on rows closer
    than DUPLICATE_TOL."""
    X = np.atleast_2d(X)
    if _min_pairwise_distance(X) < DUPLICATE_TOL:
        warnings.warn("posterior_joint called with near-duplicate points", RuntimeWarning)
    Kxx = kernel_matrix(model.kernel, X, X)
    if model.n_train == 0:
        return np.zeros(X.shape[0]), Kxx
    Kxd = kernel_matrix(model.kernel, X, model.train_inputs)
    V = linalg.solve_triangular(model.chol, Kxd.T, lower=True)
    cov = Kxx - V.T @ V
    return Kxd @ model.weights, 0.5 * (cov + cov.T)


# -- rows past 31 data points --------------------------------------------------------

# From 32 data points on, the NT GEMM of the row path (gp._row_products) can add
# a row's products in another order when other rows share the call, so a row
# moves by ulps of its terms, and solves against the jittered kernel matrix
# (A = K^{-1} k(D, x)) amplify that by its conditioning: about 1e-8 of the
# signal variance on a 64-point fixture. ROW_RTOL is fixed at 1e-6, relative
# and in units of the signal variance, so it holds that drift with room and
# still fails a row taken from another row or stale terms by orders of
# magnitude.
ROW_RTOL = 1e-6


def assert_rows_close(got, want, signal_variance, err_msg=""):
    """got within ROW_RTOL of want, relative and in units of signal_variance."""
    np.testing.assert_allclose(
        got, want, rtol=ROW_RTOL, atol=ROW_RTOL * np.max(signal_variance), err_msg=err_msg
    )


# -- seeded instances ----------------------------------------------------------------


COLUMN_BOUND = 10.0  # largest |g| a fixture constraint column may reach


def _stretch(g, v0, hi):
    top = g.max()
    if top < hi:
        g = v0 + (g - v0) * ((hi - v0) / max(top - v0, 1e-9))
    return g


def _spread_column(g, pivot, lo=-0.3, hi=0.2):
    """Affine map of one constraint column: pivot row forced feasible, max forced
    above hi so the constraint stays informative.

    When the pivot row is the column maximum, or sits just below it, stretching
    about it lifts the maximum to hi only by a huge factor (the divisor
    top - v0 nearly vanishes: ~1e9 at the maximum itself, x53 for seed 5 with
    two constraints) and throws the other rows past +-COLUMN_BOUND. The column is
    then reflected about the pivot first, which keeps the pivot's value and
    turns the lowest row into the highest.
    """
    g = g + min(0.0, lo - g[pivot])
    v0 = g[pivot]
    if np.max(np.abs(_stretch(g, v0, hi))) > COLUMN_BOUND:
        g = 2.0 * v0 - g
    return _stretch(g, v0, hi)


def make_gp_instance(seed, d=1, n_constraints=1, n_lo=3, n_hi=6, box=(0.0, 6.0)):
    """Fixed GP surrogate instance with an incumbent and active constraints.

    Targets are drawn from the model's own prior, then the constraint columns
    are adjusted so the second-best objective row is feasible (the incumbent)
    while the best row is not: every instance keeps genuine improvement
    potential, so relative tolerances stay meaningful. Returns (bundle, bounds).
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1001)))
    lo, hi = box
    width = hi - lo
    n = int(rng.integers(n_lo, n_hi + 1))
    for _ in range(200):
        X = lo + width * rng.random((n, d))
        diffs = X[:, None, :] - X[None, :, :]
        dist = np.sqrt(np.sum(diffs**2, axis=-1)) + np.eye(n) * 1e9
        if dist.min() > 0.25 * width / n:
            break
    pf_obj = KernelParams(float(rng.uniform(0.5, 2.0)), rng.uniform(0.8, 1.6, size=d))
    Kf = pf_obj.signal_variance * np.exp(
        -0.5 * np.sum((diffs / pf_obj.lengthscales) ** 2, axis=-1)
    )
    f = np.linalg.cholesky(Kf + 1e-10 * np.eye(n)) @ rng.standard_normal(n)
    order = np.argsort(f)
    best, pivot = int(order[0]), int(order[1])
    constraints = []
    for m in range(n_constraints):
        pg = KernelParams(float(rng.uniform(0.5, 1.5)), rng.uniform(0.9, 1.8, size=d))
        Kg = pg.signal_variance * np.exp(-0.5 * np.sum((diffs / pg.lengthscales) ** 2, axis=-1))
        g = np.linalg.cholesky(Kg + 1e-10 * np.eye(n)) @ rng.standard_normal(n)
        g = _spread_column(g, pivot)
        if m == 0:
            g[best] = max(g[best], 0.3)
        assert np.all(np.abs(g) <= COLUMN_BOUND), f"degenerate constraint column: {g}"
        constraints.append(GPModel.fit(X, g, pg))
    bundle = PosteriorBundle.from_models(GPModel.fit(X, f, pf_obj), constraints)
    bounds = np.array([[lo, hi]] * d)
    return bundle, bounds


def anchored_x1(bundle, bounds, frac=0.4):
    """Deterministic probe point for oracle-agreement tests: 40% into the
    largest interior gap between training inputs.

    Far from the data the score factor stays small, so the gradient
    estimator's variance does too; the off-center placement keeps the value
    landscape asymmetric, so its gradient stays away from zero.
    """
    xs = np.sort(bundle.objective.train_inputs.ravel())
    edges = np.concatenate(([bounds[0, 0]], xs, [bounds[0, 1]]))
    gaps = np.diff(edges)
    j = int(np.argmax(gaps[1:-1])) + 1
    return np.array([[edges[j] + frac * gaps[j]]])


def gradient_probe_x1(bundle, bounds, h, n_grid=17, n_nodes=96):
    """X1 where the oracle's own finite-difference gradient is largest.

    Gradient-agreement checks need signal: where |dV/dx1| is comparable to the
    Monte Carlo noise floor of the estimator, a relative gate measures nothing.
    Scans a fixed interior grid (candidates closer than 5% of the width to a
    training input are skipped; the score factor degrades the comparison right
    next to data) and returns the candidate maximizing |central FD| of the
    quadrature oracle at the given h.
    """
    lo, hi = bounds[0, 0], bounds[0, 1]
    width = hi - lo
    xs = bundle.objective.train_inputs.ravel()
    best_x, best_g = None, -1.0
    for c in np.linspace(lo + 0.05 * width, hi - 0.05 * width, n_grid):
        if np.min(np.abs(xs - c)) < 0.05 * width:
            continue
        x1 = np.array([[c]])
        oracle = TwoStepOracle(bundle, bounds, x1, n_nodes=n_nodes)
        g = abs(oracle.value(x1 + h) - oracle.value(x1 - h)) / (2 * h)
        if g > best_g:
            best_g, best_x = g, x1
    return best_x


def random_x1(seed, bounds, q=1, bundle=None):
    """Seeded batch inside the box, kept off the exact boundary.

    With a bundle given, redraws until every batch point sits at least 8% of
    the domain width from all training inputs (and from its batch mates), so
    the fantasy density stays well-conditioned.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1009)))
    span = bounds[:, 1] - bounds[:, 0]
    floor = 0.08 * float(np.max(span))
    for _ in range(500):
        X = bounds[:, 0] + span * (0.05 + 0.9 * rng.random((q, bounds.shape[0])))
        if bundle is None:
            return X
        anchors = np.vstack([bundle.objective.train_inputs, X])
        diff = X[:, None, :] - anchors[None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=-1))
        dist[dist == 0.0] = np.inf
        if dist.min() >= floor:
            return X
    raise RuntimeError("could not place a batch away from the data")


# -- myopic oracles ------------------------------------------------------------------


def mc_eic_oracle(bundle, x, n_samples=10**6, seed=0):
    """Plain Monte Carlo on Eq.-(1)-style improvement at a single point."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1013)))
    best = bundle.require_incumbent()
    mu_f, var_f = bundle.objective.posterior(x)
    y_f = mu_f + np.sqrt(var_f) * rng.standard_normal(n_samples)
    vals = np.maximum(best - y_f, 0.0)
    for model in bundle.active_constraints:
        mu_g, var_g = model.posterior(x)
        y_g = mu_g + np.sqrt(var_g) * rng.standard_normal(n_samples)
        vals = vals * (y_g <= 0.0)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(n_samples))


def gh_batch_eic(bundle, X, n_nodes=48):
    """Tensor quadrature for the q-point batch improvement, one constraint.

    Matches the sampling measure of batch_eic_mc (joint posterior per block
    with the same jitter policy).
    """
    X = np.atleast_2d(X)
    q = X.shape[0]
    best = bundle.require_incumbent()
    (models,) = (list([bundle.objective, *bundle.active_constraints]),)
    assert len(models) == 2, "oracle written for exactly one active constraint"
    x_nodes, x_w = roots_hermite(n_nodes)
    z = x_nodes * np.sqrt(2.0)
    w = x_w / np.sqrt(np.pi)
    grids = np.meshgrid(*([z] * q), indexing="ij")
    Z = np.column_stack([g.ravel() for g in grids])  # (n^q, q)
    W = np.ones(len(Z))
    for axis, g in enumerate(np.meshgrid(*([w] * q), indexing="ij")):
        W = W * g.ravel()
    Ys = []
    for model in models:
        mu, C = posterior_joint(model, X)
        L, _ = jittered_cholesky(C, model.kernel.signal_variance)
        Ys.append(mu + Z @ L.T)
    imp = np.maximum(best - Ys[0], 0.0)  # (n^q, q)
    feas = Ys[1] <= 0.0
    # value[a, b] = max_k imp[a, k] * feas[b, k]
    per_pair = np.max(imp[:, None, :] * feas[None, :, :], axis=2)
    return float(W @ per_pair @ W)


def _normal_quad(fn, upper):
    """Integral of fn(t) * norm_pdf(t) over [-40, min(upper, 40)], or 0 when
    upper < -40. The standard normal density underflows beyond 40, and a
    kink far out in the tail would leave adaptive quadrature over
    (-inf, upper] sampling only where the density is zero."""
    if upper < -40.0:
        return 0.0
    val, _ = integrate.quad(lambda t: fn(t) * norm_pdf(t), -40.0, min(upper, 40.0), epsabs=1e-13)
    return val


def quad_alpha(bundle, X1, x2, y_f, y_g):
    """Adaptive-quadrature evaluation of the one-fantasy two-step integrand.

    E1[(f1* - f(x2))^+ 1{g(x2) <= 0}] factorizes over the independent stage-1
    posteriors; each factor is integrated exactly (split at its kink) and the
    realized improvement f0* - f1* is added.
    """
    f0 = bundle.require_incumbent()
    X1 = np.atleast_2d(X1)
    y_f = np.atleast_1d(y_f)
    Yg = np.atleast_2d(y_g)
    feas = np.all(Yg <= 0.0, axis=0)
    f1 = min(f0, np.min(y_f[feas])) if np.any(feas) else f0
    x2 = np.asarray(x2, dtype=float).reshape(1, -1)
    cf = bundle.objective.condition_on_fantasy(X1, y_f)
    mu_F, var_F = cf.posterior(x2[0])
    s_F = np.sqrt(max(var_F, 0.0))
    if s_F == 0.0:
        ei_term = max(f1 - mu_F, 0.0)
    else:
        ei_term = _normal_quad(lambda t: f1 - mu_F - s_F * t, (f1 - mu_F) / s_F)
    pf_term = 1.0
    for m, model in enumerate(bundle.active_constraints):
        cg = model.condition_on_fantasy(X1, Yg[m])
        mu_G, var_G = cg.posterior(x2[0])
        s_G = np.sqrt(max(var_G, 0.0))
        if s_G == 0.0:
            pf_m = 1.0 if mu_G <= 0 else 0.0
        else:
            pf_m = _normal_quad(lambda t: 1.0, -mu_G / s_G)
        pf_term *= pf_m
    return max(f0 - f1, 0.0) + ei_term * pf_term


# -- two-step quadrature oracle ------------------------------------------------------


def _panel_rule(mu, s, cut, n):
    """Fixed quadrature for N(mu, s^2) on the panels (-inf, cut] and (cut, inf).

    Gauss-Legendre nodes are mapped through the reference inverse CDF panel by
    panel, so an integrand that is smooth away from the cut is smooth on every
    panel and the rule converges fast. Nodes never land on the cut itself.
    Returns (y, w) with sum(w) = 1.
    """
    gx, gw = roots_legendre(n)
    u = 0.5 * (gx + 1.0)
    du = 0.5 * gw
    mass_lo = float(ndtr((cut - mu) / s))
    ys, ws = [], []
    for a, b in ((0.0, mass_lo), (mass_lo, 1.0)):
        mass = b - a
        if mass <= 1e-300:
            continue
        p = np.clip(a + u * mass, 1e-300, 1.0 - 1e-16)
        ys.append(mu + s * ndtri(p))
        ws.append(du * mass)
    return np.concatenate(ys), np.concatenate(ws)


class TwoStepOracle:
    """Deterministic tensor-quadrature value of the two-step acquisition.

    q=1, one constraint. The fantasy integral runs over nodes of a reference
    Gaussian fixed at construction time (the posterior at x1_ref) with exact
    density reweighting at other x1; with moving nodes the feasibility step in
    y_g would make finite differences of the value meaningless. Each fantasy
    dimension is integrated panel by panel, split where the integrand stops
    being smooth (y_g at zero, y_f at the incumbent), with n_nodes
    Gauss-Legendre points per panel. The inner maximization is a dense-grid
    argmax.
    """

    def __init__(self, bundle, bounds, x1_ref, n_nodes=96, grid_size=2001):
        assert len(bundle.active_constraints) == 1, "oracle written for one constraint"
        self.bundle = bundle
        self.f0 = bundle.require_incumbent()
        self.grid = np.linspace(bounds[0, 0], bounds[0, 1], grid_size).reshape(-1, 1)
        x1_ref = np.atleast_2d(np.asarray(x1_ref, dtype=float))
        mf, mg = bundle.objective, bundle.active_constraints[0]
        self.jit_f = JITTER_INITIAL * mf.kernel.signal_variance
        self.jit_g = JITTER_INITIAL * mg.kernel.signal_variance
        mu_rf, s_rf = self._moments(mf, x1_ref, self.jit_f)
        mu_rg, s_rg = self._moments(mg, x1_ref, self.jit_g)
        self.ref = (mu_rf, s_rf, mu_rg, s_rg)
        self.yf_nodes, self.wf_ref = _panel_rule(mu_rf, s_rf, self.f0, n_nodes)
        self.yg_nodes, self.wg_ref = _panel_rule(mu_rg, s_rg, 0.0, n_nodes)
        self.feas_nodes = self.yg_nodes <= 0.0

    @staticmethod
    def _moments(model, X1, jit):
        mu, var = model.posterior(X1[0])
        return mu, float(np.sqrt(var + jit))

    @staticmethod
    def _affine_conditioning(model, X1, grid):
        """Stage-1 mean is affine in the fantasy target: mean = a + b * y."""
        c0 = model.condition_on_fantasy(X1, np.array([0.0]))
        c1 = model.condition_on_fantasy(X1, np.array([1.0]))
        a, var1 = c0.posterior_many(grid)
        a1, _ = c1.posterior_many(grid)
        return a, a1 - a, var1

    @staticmethod
    def _weights(w_ref, y, mu, s, mu_ref, s_ref):
        """Reference weights times the density ratio, assembled in log space."""
        logw = (
            np.log(w_ref)
            + np.log(s_ref / s)
            - 0.5 * np.square((y - mu) / s)
            + 0.5 * np.square((y - mu_ref) / s_ref)
        )
        return np.exp(np.minimum(logw, 700.0))

    def value(self, x1):
        X1 = np.atleast_2d(np.asarray(x1, dtype=float))
        mf, mg = self.bundle.objective, self.bundle.active_constraints[0]
        mu_f, s_f = self._moments(mf, X1, self.jit_f)
        mu_g, s_g = self._moments(mg, X1, self.jit_g)
        mu_rf, s_rf, mu_rg, s_rg = self.ref
        wf = self._weights(self.wf_ref, self.yf_nodes, mu_f, s_f, mu_rf, s_rf)
        wg = self._weights(self.wg_ref, self.yg_nodes, mu_g, s_g, mu_rg, s_rg)
        a_f, b_f, var1_f = self._affine_conditioning(mf, X1, self.grid)
        a_g, b_g, var1_g = self._affine_conditioning(mg, X1, self.grid)
        mu1_f = a_f[None, :] + np.outer(self.yf_nodes, b_f)  # (nodes, grid)
        targets_feas = np.minimum(self.f0, self.yf_nodes)
        ei_feas = ref_ei(targets_feas[:, None] - mu1_f, var1_f[None, :])
        ei_inf = ref_ei(self.f0 - mu1_f, var1_f[None, :])
        mu1_g = a_g[None, :] + np.outer(self.yg_nodes, b_g)
        pf = ref_pf(mu1_g, var1_g[None, :])  # (nodes, grid)
        realized = np.maximum(self.f0 - self.yf_nodes, 0.0)
        alpha = np.empty((len(self.yf_nodes), len(self.yg_nodes)))
        for j in range(len(self.yg_nodes)):
            ei_sel = ei_feas if self.feas_nodes[j] else ei_inf
            inner = np.max(ei_sel * pf[j][None, :], axis=1)
            alpha[:, j] = inner + (realized if self.feas_nodes[j] else 0.0)
        return float(wf @ alpha @ wg)

    def gradient(self, x1, h):
        return numeric_grad(lambda X: TwoStepOracle.value(self, X), x1, h)
