"""Two-step lookahead acquisition for constrained Bayesian optimization.

The acquisition value of a batch X1 is the expectation, over fantasy outcomes
y at X1, of the one-step improvement plus the best constrained expected
improvement achievable by one follow-up evaluation:

    value(X1) = E[ f0* - f1*(y)
                   + max_x2 EI(f1*(y) - mu1(x2), s1(x2)^2) * prod_m PF_m(x2) ]

where f1* is the best feasible value among the incumbent and the fantasy
outcomes, and (mu1, s1) are the posterior moments after conditioning on the
fantasy. The gradient with respect to X1 is estimated without bias by the
likelihood-ratio form

    Gamma = alpha(X1, x2*, y) * d log p(y; X1) / dX1 + d alpha / dX1,

with the inner maximizer x2* held fixed (envelope argument) and the fantasy
vector y held fixed, so differentiation never passes through the
discontinuous f1*. Sampling, density, score and all posterior updates share
one FantasyEngine, which caches the state-0 factorizations so that thousands
of fantasies are processed with matrix products instead of refits. A slower
reference path through GPModel.condition_on_fantasy backs the alpha() entry
point and is cross-checked against the engine in the test suite.

Constraints flagged certainly feasible by the bundle are excluded from the
fantasy vector, the density, the score and the feasibility product, so a run
with such a constraint follows the unconstrained code path exactly.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .acquisition import (
    PosteriorBundle,
    ei,
    ei_pf,
    greedy_batch_eic,
    maximize_eic,
    pf,
    projected_ascent,
)
from .gp import (
    SIGMA_FLOOR,
    GPModel,
    jittered_cholesky,
    kernel_grad_first,
    kernel_grad_first_from,
    kernel_matrix,
)
from .sampling import halton_design, latin_hypercube, sobol_normal

SEPARATION_TOL = 1e-8


def _sd_grad(sd: np.ndarray, dvar: np.ndarray) -> np.ndarray:
    """Derivative of a standard deviation from that of its variance,
    d sd = d var / (2 sd); zero where sd is at or below SIGMA_FLOOR. dvar is
    shaped like sd plus trailing axes."""
    scale = np.where(sd > SIGMA_FLOOR, 0.5 / np.maximum(sd, SIGMA_FLOOR), 0.0)
    return scale.reshape(scale.shape + (1,) * (dvar.ndim - sd.ndim)) * dvar


@dataclass(frozen=True)
class TwoStepConfig:
    """Knobs for the stochastic-gradient search over batches.

    n_restarts/n_sga_steps control the outer multistart ascent, n_grad_samples
    fantasies feed each gradient step, and the inner problem is re-solved every
    inner_solve_period-th fantasy (two-time-scale). Step t moves by
    step_a / (step_A + t)**step_gamma, per dimension, scaled by domain width.
    Restart screening uses n_value_samples fantasies; the surviving candidates
    are re-scored with n_final_value_samples. delta > 0 excludes a ball of that
    radius around every sampled point from the inner search.
    """

    n_restarts: int = 10
    n_sga_steps: int = 50
    n_grad_samples: int = 32
    inner_solve_period: int = 2
    inner_restarts: int = 5
    inner_steps: int = 100
    step_a: float = 0.3
    step_A: float = 2.0
    step_gamma: float = 0.7
    n_value_samples: int = 512
    n_final_value_samples: int = 8192
    delta: float = 0.0
    qmc_scramble_seed: int = 0

    def __post_init__(self):
        counts = (
            self.n_restarts,
            self.n_sga_steps,
            self.n_grad_samples,
            self.inner_solve_period,
            self.inner_restarts,
            self.inner_steps,
            self.n_value_samples,
            self.n_final_value_samples,
        )
        if any(c < 1 for c in counts):
            raise ValueError("all sample and step counts must be >= 1")
        if self.step_a <= 0 or self.delta < 0:
            raise ValueError("step_a must be positive and delta nonnegative")
        if not 0.5 < self.step_gamma <= 1.0:
            raise ValueError("step_gamma must lie in (0.5, 1]")


@dataclass(frozen=True)
class CandidateBatch:
    """A batch of candidate evaluation points, pairwise separated."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if not np.all(np.isfinite(pts)):
            raise ValueError("batch points must be finite")
        if pts.shape[0] > 1:
            d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
            iu = np.triu_indices(pts.shape[0], k=1)
            if np.sqrt(np.min(d2[iu])) < SEPARATION_TOL:
                raise ValueError("batch points closer than the separation tolerance")

    @property
    def q(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class FantasySample:
    """One fantasy outcome at a batch X1.

    y_g holds one row per active (not certainly feasible) constraint, in
    bundle order. f1_star is the best feasible value among the incumbent and
    the fantasy outcomes; log_density is the joint log density of (y_f, y_g)
    under the current posterior at X1.
    """

    y_f: np.ndarray
    y_g: np.ndarray
    log_density: float
    f1_star: float


@dataclass(frozen=True)
class InnerSolution:
    x2: np.ndarray
    value: float
    degenerate: bool


@dataclass(frozen=True)
class TwoStepResult:
    batch: CandidateBatch
    value: float
    se: float
    fallback_eic: bool = False


class _FantasyBatch:
    """Column-stacked fantasies: one (n, q) array per block, plus f1*, the log
    density and, per block, the whitened residuals Cinv (y - mu0)."""

    def __init__(self, Y, f1, logp, U):
        self.Y = Y
        self.f1 = f1
        self.logp = logp
        self.U = U
        self.n = f1.shape[0]

    def subset(self, idx: np.ndarray) -> "_FantasyBatch":
        return _FantasyBatch(
            [Yb[idx] for Yb in self.Y], self.f1[idx], self.logp[idx], [Ub[idx] for Ub in self.U]
        )


class _Block:
    """Cached state-0 quantities of one GP block at a fixed batch X1."""

    def __init__(self, model: GPModel, X1: np.ndarray):
        self.model = model
        kern = model.kernel
        q, d = X1.shape
        n = model.n_train
        self.K_P_X1 = None
        K_X1_X1 = kernel_matrix(kern, X1, X1)
        if n:
            K_X1_D = kernel_matrix(kern, X1, model.train_inputs)  # (q, n)
            self.V1 = linalg.solve_triangular(model.chol, K_X1_D.T, lower=True)  # (n, q)
            self.A1 = linalg.cho_solve((model.chol, True), K_X1_D.T)  # K_D^{ -1} k(D, X1)
            self.mu0 = K_X1_D @ model.weights
            C0 = K_X1_X1 - self.V1.T @ self.V1
            J_X1_D = kernel_grad_first(kern, X1, model.train_inputs)  # (q, n, d)
            self.J_X1_D = J_X1_D
            self.dmu0 = np.einsum("qnd,n->qd", J_X1_D, model.weights)
        else:
            self.V1 = np.zeros((0, q))
            self.A1 = np.zeros((0, q))
            self.mu0 = np.zeros(q)
            C0 = K_X1_X1
            self.J_X1_D = np.zeros((q, 0, d))
            self.dmu0 = np.zeros((q, d))
        C0 = 0.5 * (C0 + C0.T)
        self.Lc, self.jit = jittered_cholesky(C0, kern.signal_variance)
        self.Cinv = linalg.cho_solve((self.Lc, True), np.eye(q))
        # First-argument derivative of the state-0 covariance between batch
        # points: Dk0[i, b, j] = d Sigma0(x_i, x_b) / d x_{i j}.
        self.Dk0 = kernel_grad_first(kern, X1, X1)
        if n:
            self.Dk0 = self.Dk0 - np.einsum("ind,nb->ibd", self.J_X1_D, self.A1)


class FantasyEngine:
    """Shared machinery for fantasy sampling, density/score and stage-1 math.

    Built once per (bundle, X1); all methods are vectorized over fantasies and
    over query rows, each query row carrying the index of the fantasy it
    belongs to.
    """

    def __init__(self, bundle: PosteriorBundle, X1: np.ndarray):
        self.bundle = bundle
        self.X1 = np.atleast_2d(np.asarray(X1, dtype=float))
        self.q, self.d = self.X1.shape
        # Density and score work without an incumbent; alpha and the gradient
        # entry points require one and enforce it before building the engine.
        self.f0 = np.inf if bundle.incumbent_value is None else bundle.incumbent_value
        self.models = [bundle.objective, *bundle.active_constraints]
        self.blocks = [_Block(m, self.X1) for m in self.models]
        self.n_blocks = len(self.blocks)

    # -- sampling and density ------------------------------------------------

    def batch_from_normals(self, Z: np.ndarray) -> _FantasyBatch:
        """Map standard normal rows (count, n_blocks*q) through the posterior."""
        count = Z.shape[0]
        q = self.q
        Y = []
        for b, blk in enumerate(self.blocks):
            Zb = Z[:, b * q : (b + 1) * q]
            Y.append(blk.mu0 + Zb @ blk.Lc.T)
        return self._finish_batch(Y, count)

    def batch_from_values(self, Y: list[np.ndarray]) -> _FantasyBatch:
        Y = [np.atleast_2d(np.asarray(Yb, dtype=float)) for Yb in Y]
        return self._finish_batch(Y, Y[0].shape[0])

    def _finish_batch(self, Y: list[np.ndarray], count: int) -> _FantasyBatch:
        feasible = np.ones((count, self.q), dtype=bool)
        for Yg in Y[1:]:
            feasible &= Yg <= 0
        best_fantasy = np.min(np.where(feasible, Y[0], np.inf), axis=1)
        f1 = np.minimum(self.f0, best_fantasy)
        logp = np.zeros(count)
        U = []
        for b, blk in enumerate(self.blocks):
            R = Y[b] - blk.mu0
            W = linalg.solve_triangular(blk.Lc, R.T, lower=True)
            logp -= 0.5 * np.einsum("qc,qc->c", W, W)
            logp -= np.sum(np.log(np.diag(blk.Lc))) + 0.5 * self.q * np.log(2 * np.pi)
            U.append(R @ blk.Cinv.T)  # Cinv symmetric
        return _FantasyBatch(Y, f1, logp, U)

    def sample(self, count: int, seed) -> _FantasyBatch:
        Z = sobol_normal(self.n_blocks * self.q, count, seed)
        return self.batch_from_normals(Z)

    def score(self, batch: _FantasyBatch) -> np.ndarray:
        """Gradient of log p(y; X1) with respect to X1, shape (count, q, d)."""
        out = np.zeros((batch.n, self.q, self.d))
        for U, blk in zip(batch.U, self.blocks):
            quad = np.einsum("ibj,fb->fij", blk.Dk0, U)
            trace = np.einsum("ib,ibj->ij", blk.Cinv, blk.Dk0)
            out += blk.dmu0[None, :, :] * U[:, :, None]
            out += U[:, :, None] * quad
            out -= trace[None, :, :]
        return out

    # -- stage-1 posterior rows ----------------------------------------------

    def _stage1(self, blk: _Block, P: np.ndarray, U_rows: np.ndarray, grads: bool):
        """Stage-1 moments at rows of P, each row tied to the fantasy whose
        whitened residual row is U_rows. Returns a dict of row arrays: mean
        mu1, standard deviation s1 and B = Sigma0(P, X1) Cinv; with grads also
        the x2-derivatives dmu1 and ds1."""
        kern = blk.model.kernel
        n = blk.model.n_train
        K_P_X1 = kernel_matrix(kern, P, self.X1)
        if n:
            K_P_D = kernel_matrix(kern, P, blk.model.train_inputs)
            VP = linalg.solve_triangular(blk.model.chol, K_P_D.T, lower=True)
            mu0 = K_P_D @ blk.model.weights
            var0 = kern.signal_variance - np.einsum("nr,nr->r", VP, VP)
            cross = K_P_X1 - VP.T @ blk.V1
        else:
            mu0 = np.zeros(P.shape[0])
            var0 = np.full(P.shape[0], kern.signal_variance)
            cross = K_P_X1
        B = cross @ blk.Cinv.T
        s1 = np.sqrt(np.maximum(var0 - np.einsum("rq,rq->r", B, cross), 0.0))
        mu1 = mu0 + np.einsum("rq,rq->r", cross, U_rows)
        out = {"mu1": mu1, "s1": s1, "B": B}
        if grads:
            J_P_X1 = kernel_grad_first_from(kern, P, self.X1, K_P_X1)
            if n:
                J_P_D = kernel_grad_first_from(kern, P, blk.model.train_inputs, K_P_D)
                dcross = J_P_X1 - np.einsum("rnd,nq->rqd", J_P_D, blk.A1)
                dmu0 = np.einsum("rnd,n->rd", J_P_D, blk.model.weights)
                AP = linalg.cho_solve((blk.model.chol, True), K_P_D.T)  # (n, rows)
                dvar0 = -2.0 * np.einsum("rnd,nr->rd", J_P_D, AP)
            else:
                dcross = J_P_X1
                dmu0 = np.zeros((P.shape[0], self.d))
                dvar0 = np.zeros((P.shape[0], self.d))
            out["dmu1"] = dmu0 + np.einsum("rqd,rq->rd", dcross, U_rows)
            out["ds1"] = _sd_grad(s1, dvar0 - 2.0 * np.einsum("rqd,rq->rd", dcross, B))
        return out

    def stage1_x1_grads(self, b: int, X2: np.ndarray, U: np.ndarray):
        """Stage-1 mean and standard deviation of block b at rows of X2, row f
        tied to the whitened residual row U[f], and their derivatives with
        respect to X1 at fixed fantasy values. Returns (mu1, s1, dmu1, ds1),
        the derivatives of shape (rows, q, d)."""
        blk = self.blocks[b]
        st = self._stage1(blk, X2, U, False)
        V = st["B"]  # Cinv cross, (rows, q)
        kern = blk.model.kernel
        # First-argument derivative of the state-0 covariance between each
        # batch point and each row: dc[f, i, j] = d Sigma0(x_i, X2_f) / d x_ij.
        dc = np.transpose(kernel_grad_first(kern, self.X1, X2), (1, 0, 2))
        if blk.model.n_train:
            K_D_X2 = kernel_matrix(kern, blk.model.train_inputs, X2)  # (n, rows)
            A_X2 = linalg.cho_solve((blk.model.chol, True), K_D_X2)
            dc = dc - np.einsum("qnd,nf->fqd", blk.J_X1_D, A_X2)
        rv_u = np.einsum("ibj,fb->fij", blk.Dk0, U)
        rv_v = np.einsum("ibj,fb->fij", blk.Dk0, V)
        dmu1 = (
            dc * U[:, :, None]
            - V[:, :, None] * rv_u
            - rv_v * U[:, :, None]
            - V[:, :, None] * blk.dmu0[None, :, :]
        )
        dvar1 = -2.0 * dc * V[:, :, None] + 2.0 * V[:, :, None] * rv_v
        return st["mu1"], st["s1"], dmu1, _sd_grad(st["s1"], dvar1)

    def alpha_rows(
        self, P: np.ndarray, idx: np.ndarray, batch: _FantasyBatch, grads: bool = False
    ):
        """Two-step integrand alpha at query rows P, row r belonging to
        fantasy idx[r]. With grads=True also returns d alpha / d x2 rows and a
        degeneracy mask."""
        P = np.atleast_2d(P)
        idx = np.asarray(idx, dtype=int)
        stages = [
            self._stage1(blk, P, batch.U[b][idx], grads) for b, blk in enumerate(self.blocks)
        ]
        f1 = batch.f1[idx]
        (mu, s), *cons = [(st["mu1"], st["s1"]) for st in stages]
        if not grads:
            return (self.f0 - f1) + ei_pf((f1 - mu, s), cons)
        (dmu, ds), *dcons = [(st["dmu1"], st["ds1"]) for st in stages]
        values, grad, degen = ei_pf((f1 - mu, s), cons, [(-dmu, ds), *dcons])
        return (self.f0 - f1) + values, grad, degen

    # -- likelihood-ratio gradient -------------------------------------------

    def lr_gradients(self, batch: _FantasyBatch, X2: np.ndarray) -> np.ndarray:
        """Gamma for every fantasy; shape (count, q, d).

        X2 holds one follow-up point per fantasy, row-aligned with the batch:
        shape (batch.n, d).
        """
        X2 = np.atleast_2d(X2)
        count = batch.n
        if X2.shape != (count, self.d):
            raise ValueError(
                f"X2 must have shape (batch.n, d) = ({count}, {self.d}); got {X2.shape}"
            )
        (mu, s, dmu, ds), *cons = [
            self.stage1_x1_grads(b, X2, batch.U[b]) for b in range(self.n_blocks)
        ]
        values, dalpha, _ = ei_pf(
            (batch.f1 - mu, s), [c[:2] for c in cons], [(-dmu, ds), *(c[2:] for c in cons)]
        )
        alpha_vals = (self.f0 - batch.f1) + values
        return alpha_vals[:, None, None] * self.score(batch) + dalpha

    # -- inner maximization ----------------------------------------------------

    def solve_inner_batch(
        self,
        batch: _FantasyBatch,
        bounds: np.ndarray,
        config: TwoStepConfig,
        warm: np.ndarray | None = None,
    ):
        """Projected backtracking ascent of alpha over x2, one solve per
        fantasy, all fantasies in lock step. Returns (X2, values, degenerate).

        The ascent is projected_ascent, whose step rules are free of the
        scale of alpha, with a first move of 0.15 of the box and
        config.inner_steps steps; with delta > 0 every candidate is pushed out
        of the excluded balls.

        A huge realized improvement (f1* far below f0) is not special-cased:
        the follow-up term is the GP's own EI times PF, unclamped. A stage-1
        mean conditioned on an extreme fantasy can overshoot it, so the
        follow-up term may exceed the realized improvement f0 - f1*.
        """
        bounds = np.atleast_2d(bounds)
        wid = bounds[:, 1] - bounds[:, 0]
        count = batch.n
        starts = halton_design(config.inner_restarts, bounds)
        # Screening pass: a value-only sweep over a denser design picks the
        # top few probes per fantasy as extra starts, so narrow basins between
        # close-together training points still get found. Each pick suppresses
        # its neighborhood before the next one; without that, a single wide
        # basin fills every slot and steep spikes elsewhere stay unvisited.
        n_keep = 3
        probes = halton_design(min(64 * bounds.shape[0], 256), bounds)
        if config.delta > 0:
            probes = self._push_outside(probes, config.delta)
        pidx = np.repeat(np.arange(count), len(probes))
        pvals = self.alpha_rows(np.tile(probes, (count, 1)), pidx, batch)
        pv = pvals.reshape(count, len(probes))
        radius = 3.0 * np.max(wid) / len(probes) ** (1.0 / bounds.shape[0])
        near = (
            np.sqrt(np.sum((probes[:, None, :] - probes[None, :, :]) ** 2, axis=-1))
            <= radius
        )
        picks = []
        for _ in range(n_keep):
            j = np.argmax(pv, axis=1)
            picks.append(j)
            pv = np.where(near[j], -np.inf, pv)
        top = np.column_stack(picks)
        P = np.vstack([np.tile(starts, (count, 1)), probes[top.ravel()]])
        idx = np.concatenate(
            [
                np.repeat(np.arange(count), config.inner_restarts),
                np.repeat(np.arange(count), n_keep),
            ]
        )
        if warm is not None:
            warm = np.atleast_2d(warm)
            if warm.shape[0] == 1 and count > 1:
                warm = np.repeat(warm, count, axis=0)
            P = np.vstack([P, warm])
            idx = np.concatenate([idx, np.arange(count)])
        project = None
        if config.delta > 0:
            P = self._push_outside(P, config.delta)
            project = functools.partial(self._push_outside, delta=config.delta)

        def evaluate(X, rows, grads):
            out = self.alpha_rows(X, idx[rows], batch, grads)
            return out[:2] if grads else out

        P, vals = projected_ascent(
            evaluate, P, bounds, first_move=0.15, steps=config.inner_steps, project=project
        )
        order = np.lexsort((-vals, idx))
        sorted_idx = idx[order]
        firsts = np.searchsorted(sorted_idx, np.arange(count), side="left")
        winners = order[firsts]
        X2 = P[winners]
        best_vals = vals[winners]
        improvement = best_vals - (self.f0 - batch.f1)
        return X2, best_vals, improvement <= 1e-15

    def _push_outside(self, P: np.ndarray, delta: float) -> np.ndarray:
        """Move rows of P radially out of the delta-balls around sampled points."""
        centers = np.vstack([self.models[0].train_inputs, self.X1])
        P = P.copy()
        diff = P[:, None, :] - centers[None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=-1))
        nearest = np.argmin(dist, axis=1)
        rows = np.flatnonzero(dist[np.arange(len(P)), nearest] < delta)
        for r in rows:
            c = centers[nearest[r]]
            v = P[r] - c
            nv = np.linalg.norm(v)
            if nv < 1e-14:
                v = np.zeros_like(v)
                v[0] = 1.0
                nv = 1.0
            P[r] = c + v * (delta / nv)
        return P


# -- public operations ---------------------------------------------------------


def fantasy_log_density_and_score(
    bundle: PosteriorBundle, X1: np.ndarray, y_f: np.ndarray, y_g: np.ndarray
) -> tuple[float, np.ndarray]:
    """Joint log density of a fantasy outcome at X1 and its gradient in X1.

    y_g has one row per active constraint. The outcome need not have been
    drawn at X1; any value vector of the right shape is scored.
    """
    engine = FantasyEngine(bundle, X1)
    y_g = np.asarray(y_g, dtype=float).reshape(engine.n_blocks - 1, engine.q)
    Y = [np.atleast_2d(np.asarray(y_f, dtype=float))]
    Y.extend(np.atleast_2d(y_g[b]) for b in range(y_g.shape[0]))
    batch = engine.batch_from_values(Y)
    return float(batch.logp[0]), engine.score(batch)[0]


def sample_fantasies(
    bundle: PosteriorBundle, X1: np.ndarray, count: int, seed
) -> list[FantasySample]:
    """Draw fantasy outcomes at X1 by scrambled-Sobol sampling of the joint
    posterior (objective block first, then active constraints in order)."""
    engine = FantasyEngine(bundle, X1)
    batch = engine.sample(count, seed)
    out = []
    for i in range(count):
        y_g = np.stack([Yb[i] for Yb in batch.Y[1:]]) if engine.n_blocks > 1 else np.zeros(
            (0, engine.q)
        )
        out.append(
            FantasySample(batch.Y[0][i].copy(), y_g, float(batch.logp[i]), float(batch.f1[i]))
        )
    return out


def _batch_from_sample(engine: FantasyEngine, sample: FantasySample) -> _FantasyBatch:
    Y = [sample.y_f.reshape(1, -1)]
    Y.extend(sample.y_g[b].reshape(1, -1) for b in range(sample.y_g.shape[0]))
    return engine.batch_from_values(Y)


def alpha(bundle: PosteriorBundle, X1: np.ndarray, x2: np.ndarray, sample: FantasySample) -> float:
    """Two-step integrand via explicit refits (reference path).

    Conditions every model on the fantasy and evaluates
    f0* - f1* + EI(f1* - mu1(x2), s1(x2)^2) * prod PF at x2.
    """
    f0 = bundle.require_incumbent()
    X1 = np.atleast_2d(X1)
    f1 = sample.f1_star
    cond_f = bundle.objective.condition_on_fantasy(X1, sample.y_f)
    m1, v1 = cond_f.posterior(x2)
    value = ei(f1 - m1, v1)
    for row, model in zip(sample.y_g, bundle.active_constraints):
        cond_g = model.condition_on_fantasy(X1, row)
        mc, vc = cond_g.posterior(x2)
        value *= pf(mc, vc)
    return float(f0 - f1 + value)


def inner_maximize(
    bundle: PosteriorBundle,
    X1: np.ndarray,
    sample: FantasySample,
    bounds: np.ndarray,
    config: TwoStepConfig,
    warm: np.ndarray | None = None,
) -> InnerSolution:
    """Maximize alpha over the follow-up point for one fantasy.

    Multistart projected ascent from a fixed low-discrepancy design (plus the
    optional warm start); deterministic.
    """
    bundle.require_incumbent()
    engine = FantasyEngine(bundle, X1)
    batch = _batch_from_sample(engine, sample)
    X2, vals, degen = engine.solve_inner_batch(
        batch, bounds, config, warm=None if warm is None else np.atleast_2d(warm)
    )
    return InnerSolution(X2[0], float(vals[0]), bool(degen[0]))


def lr_gradient_sample(
    bundle: PosteriorBundle, X1: np.ndarray, sample: FantasySample, x2_star: np.ndarray
) -> np.ndarray:
    """Single-fantasy likelihood-ratio gradient of the two-step value at X1."""
    bundle.require_incumbent()
    engine = FantasyEngine(bundle, X1)
    batch = _batch_from_sample(engine, sample)
    return engine.lr_gradients(batch, np.atleast_2d(x2_star))[0]


def lr_gradient_estimate(
    bundle: PosteriorBundle,
    X1: np.ndarray,
    bounds: np.ndarray,
    config: TwoStepConfig,
    n_samples: int,
    seed,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean likelihood-ratio gradient over freshly solved fantasies.

    Every fantasy gets its own inner solve. Returns (gradient, standard error),
    both (q, d).
    """
    bundle.require_incumbent()
    engine = FantasyEngine(bundle, X1)
    batch = engine.sample(n_samples, seed)
    X2, _, _ = engine.solve_inner_batch(batch, bounds, config)
    gammas = engine.lr_gradients(batch, X2)
    grad = gammas.mean(axis=0)
    se = gammas.std(axis=0, ddof=1) / np.sqrt(n_samples)
    return grad, se


def estimate_value(
    bundle: PosteriorBundle,
    X1: np.ndarray,
    bounds: np.ndarray,
    config: TwoStepConfig,
    seed=None,
    n_samples: int | None = None,
) -> tuple[float, float]:
    """QMC estimate of the two-step acquisition value of the batch X1.

    Each fantasy's inner problem is solved independently; returns the sample
    mean and its standard error.
    """
    bundle.require_incumbent()
    engine = FantasyEngine(bundle, X1)
    count = config.n_value_samples if n_samples is None else n_samples
    if seed is None:
        seed = config.qmc_scramble_seed
    batch = engine.sample(count, seed)
    _, vals, _ = engine.solve_inner_batch(batch, bounds, config)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(count)) if count > 1 else np.inf
    return est, se


def _enforce_separation(X: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Nudge batch points apart until pairwise separation holds."""
    X = X.copy()
    q = X.shape[0]
    for _ in range(50):
        moved = False
        for i in range(1, q):
            d2 = np.sum(((X[:i] - X[i]) / widths) ** 2, axis=1)
            if np.min(d2) < (10 * SEPARATION_TOL) ** 2:
                X[i] = X[i] + widths * 100 * SEPARATION_TOL
                moved = True
        if not moved:
            break
    return X


def _fallback_eic_batch(bundle, bounds, q, seed) -> CandidateBatch:
    from .acquisition import eic_many

    cand = latin_hypercube(max(2048, 64 * q), bounds, np.random.SeedSequence((seed, 97)))
    vals = eic_many(bundle, cand)
    order = np.argsort(-vals)
    pts, widths = [], bounds[:, 1] - bounds[:, 0]
    for i in order:
        x = cand[i]
        if all(np.linalg.norm((x - p) / widths) > 10 * SEPARATION_TOL for p in pts):
            pts.append(x)
        if len(pts) == q:
            break
    return CandidateBatch(np.array(pts))


def optimize(
    bundle: PosteriorBundle,
    bounds: np.ndarray,
    q: int,
    config: TwoStepConfig,
    seed: int | None = None,
) -> TwoStepResult:
    """Search for the batch maximizing the two-step acquisition value.

    Multistart stochastic gradient ascent: restarts start from a seeded Latin
    hypercube plus the myopic argmax (the two-step value dominates the myopic
    acquisition pointwise, so its own maximizer is always a serious
    candidate and usually sits in the narrow peak the hypercube misses).
    Restarts advance in lock step. Each step draws one scrambled QMC block of
    fantasies (shared across restarts), re-solves the inner problem on every
    inner_solve_period-th fantasy while reusing the latest solution in
    between, averages the likelihood-ratio gradients and takes a projected
    step. Both the start and the endpoint of every restart are screened by a
    QMC value estimate (so a trajectory that wanders off a good start cannot
    drag the answer down with it) and the leaders are re-scored with the
    larger final sample before the winner is returned.
    """
    bundle.require_incumbent()
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    root = config.qmc_scramble_seed if seed is None else seed
    lo, hi = bounds[:, 0], bounds[:, 1]
    widths = hi - lo
    d = bounds.shape[0]
    R = config.n_restarts
    X = latin_hypercube(R * q, bounds, np.random.SeedSequence((root, 11))).reshape(R, q, d)
    if q == 1:
        myopic = maximize_eic(bundle, bounds, root).reshape(1, 1, d)
    else:
        myopic = greedy_batch_eic(bundle, bounds, q, root).reshape(1, q, d)
    X = np.concatenate([myopic, X], axis=0)
    R = R + 1
    for r in range(R):
        X[r] = _enforce_separation(X[r], widths)
    starts = X.copy()
    n_blocks = 1 + len(bundle.active_constraints)
    warm = [None] * R
    moved_ever = np.zeros(R, dtype=bool)
    solve_idx = np.arange(0, config.n_grad_samples, config.inner_solve_period)
    for t in range(config.n_sga_steps):
        Z = sobol_normal(n_blocks * q, config.n_grad_samples, np.random.SeedSequence((root, 17, t)))
        scale = config.step_a / (config.step_A + t) ** config.step_gamma
        for r in range(R):
            engine = FantasyEngine(bundle, X[r])
            batch = engine.batch_from_normals(Z)
            sub = batch.subset(solve_idx)
            x2s, _, _ = engine.solve_inner_batch(sub, bounds, config, warm=warm[r])
            warm[r] = x2s[-1].copy()
            held = np.searchsorted(solve_idx, np.arange(config.n_grad_samples), side="right") - 1
            X2 = x2s[held]
            G = engine.lr_gradients(batch, X2).mean(axis=0)
            if np.any(G != 0.0):
                moved_ever[r] = True
            disp = np.clip(scale * widths * G, -0.25 * widths, 0.25 * widths)
            X[r] = np.clip(X[r] + disp, lo, hi)
            X[r] = _enforce_separation(X[r], widths)
    if not np.any(moved_ever):
        warnings.warn("all restarts degenerate; falling back to the myopic acquisition")
        batch = _fallback_eic_batch(bundle, bounds, q, root)
        return TwoStepResult(batch, np.nan, np.nan, fallback_eic=True)
    cand = np.concatenate([X, starts], axis=0)
    screen = np.empty(2 * R)
    for r in range(2 * R):
        screen[r], _ = estimate_value(
            bundle, cand[r], bounds, config, seed=np.random.SeedSequence((root, 23, r))
        )
    top = np.argsort(-screen)[: min(3, 2 * R)]
    best_r, best_v, best_se = -1, -np.inf, np.inf
    for r in top:
        v, se = estimate_value(
            bundle,
            cand[r],
            bounds,
            config,
            seed=np.random.SeedSequence((root, 29)),
            n_samples=config.n_final_value_samples,
        )
        if v > best_v:
            best_r, best_v, best_se = int(r), v, se
    return TwoStepResult(CandidateBatch(cand[best_r]), best_v, best_se)
