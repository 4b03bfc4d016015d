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
discontinuous f1*. Sampling, score and all posterior updates share one
FantasyEngine, which caches the state-0 factorizations so that thousands of
fantasies are processed with matrix products instead of refits. An engine
holds a stack of batches X1, factorized at once, and each batch matches an
engine of its own within 1e-12: optimize runs all its restarts through one
engine per SGA step and screens all its candidates through one engine. Its
gradient terms are built on first use (_Block), so a value-only engine,
batch_eic_mc's, pays for the draws alone; they come out batch-major, with
the bits of a fantasy-major product. The state-0 posterior at batch points
and query rows comes from GPModel.rows; the value pass of alpha_rows takes
every block's data rows from one call on the bundle's stacked models
(PosteriorBundle.stacked), each block's slice with the bits of its own call,
and every per-row gather of a batch's arrays is one contiguous take. The
engine adds only the terms of each row's own batch, block by block; its
gradient half takes the batch's coefficient rows A1 through the same
row_grads call, one GEMM per block. The stage-1 moments are affine in the
fantasy, so the value-only probe sweep of the inner solve computes the data
terms once per probe and the own-batch terms once per (batch, probe). A
slower reference path through GPModel.condition_on_fantasy backs the alpha()
entry point and is cross-checked against the engine in the test suite.

Constraints flagged certainly feasible by the bundle are excluded from the
fantasy vector, the score and the feasibility product, so a run
with such a constraint follows the unconstrained code path exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .acquisition import (
    PosteriorBundle,
    ei,
    ei_pf_factors,
    ei_pf_grad,
    greedy_batch_eic,
    maximize_eic,
    mean_and_se,
    pf,
    projected_ascent,
)
from . import gp
from .gp import (
    JITTER_INITIAL,
    GPModel,
    _min_pairwise_distance,
    jittered_cholesky,
    kernel_grad_paired,
    kernel_paired,
    sd_grad,
    sq_dist,
    take_rows,
)
from .sampling import halton_design, latin_hypercube, sobol_normal

SEPARATION_TOL = 1e-8
# Block sizes of the large fantasy passes: ascent rows per block of
# solve_inner_batch and (fantasy, probe) cells per chunk of probe_values.
_INNER_ROWS = 1 << 13
_PROBE_CELLS = 1 << 12
_N_PICKS = 3  # probe picks per fantasy in the inner solve


@dataclass(frozen=True)
class TwoStepConfig:
    """Knobs for the stochastic-gradient search over batches.

    n_restarts/n_sga_steps control the outer multistart ascent, n_grad_samples
    fantasies feed each gradient step, and the inner problem is solved for
    every inner_solve_period-th fantasy only; each fantasy in between is
    paired with the x2 solved for the last solved one before it, an unrelated
    scrambled-Sobol draw. The LR gradient needs each fantasy's own argmax, so
    a period above 1 biases it (ROADMAP.md, item 13). Step t moves by
    step_a / (step_A + t)**step_gamma, per dimension, scaled by domain width.
    Restart screening uses n_value_samples fantasies; the surviving candidates
    are re-scored with n_final_value_samples. The inner search for x2 runs
    over the whole box, as in the module's two-step value.
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
        if self.step_a <= 0:
            raise ValueError("step_a must be positive")
        if self.step_A <= 0:
            raise ValueError("step_A must be positive")
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
        if _min_pairwise_distance(pts) < SEPARATION_TOL:
            raise ValueError("batch points closer than the separation tolerance")

    @property
    def q(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class TwoStepResult:
    batch: CandidateBatch
    value: float
    se: float
    fallback_eic: bool = False


class _FantasyBatch:
    """Column-stacked fantasies: one (n, q) array per block, plus f1*, per
    block the whitened residuals Cinv (y - mu0), and e, the batch of the
    engine's stack each fantasy belongs to."""

    def __init__(self, Y, f1, U, e):
        self.Y = Y
        self.f1 = f1
        self.U = U
        self.e = e
        self.n = f1.shape[0]

    def subset(self, idx: np.ndarray) -> "_FantasyBatch":
        return _FantasyBatch(
            [Yb[idx] for Yb in self.Y],
            self.f1[idx],
            [Ub[idx] for Ub in self.U],
            self.e[idx],
        )


class _Block:
    """Cached state-0 quantities of one GP block at a stack of batches X1,
    shape (E, q, d), batch first; no batch's numbers depend on the rest of
    the stack, so each matches an engine of its own within 1e-12. Built at
    once is what sampling reads: the model's rows at X1, V1, mu0, K11 and
    one batched Cholesky Lc. Cinv, A1 and dmu0 (row_grads on the stored
    rows), J_X1_D and Dk0 are built on first use by the same expressions, so
    with the same bits: a value-only engine builds no gradient term."""

    def __init__(self, model: GPModel, X1: np.ndarray):
        self.model, kern = model, model.kernel
        E, q, d = X1.shape
        self.flat, self.pairs = X1.reshape(-1, d), (X1[:, :, None, :], X1[:, None, :, :])
        self._rows = model.rows(self.flat)
        self.V1 = self._rows["V"].reshape(E, q, -1)  # rows of L^{-1} k(D, X1)
        self.mu0 = self._rows["mean"].reshape(E, q)
        self.K11 = kernel_paired(kern, *self.pairs)  # (E, q, q)
        C0 = self.K11 - self.V1 @ np.swapaxes(self.V1, 1, 2)
        self.Lc, self.jit = self._cholesky(0.5 * (C0 + np.swapaxes(C0, 1, 2)), kern.signal_variance)

    @cached_property
    def Cinv(self) -> np.ndarray:
        Lc_inv = np.linalg.inv(self.Lc)  # inv(C0) itself would lose cond(C0) * eps
        return np.swapaxes(Lc_inv, 1, 2) @ Lc_inv

    @cached_property
    def _grads(self) -> tuple[np.ndarray, np.ndarray]:
        r = self.model.row_grads(self.flat, self._rows)
        return r["A"].reshape(self.V1.shape), r["dmean"].reshape(self.mu0.shape + (-1,))

    A1 = property(lambda self: self._grads[0])  # rows of K_D^{-1} k(D, X1), (E, q, n)
    dmu0 = property(lambda self: self._grads[1])  # (E, q, d)

    @cached_property
    def J_X1_D(self) -> np.ndarray:
        # For Dk0 and the LR rows; through gp, so a wrapper set there sees it.
        model = self.model
        J = gp.kernel_grad_first_from(model.kernel, self.flat, model.train_inputs, self._rows["K"])
        return J.reshape(self.V1.shape + self.flat.shape[1:])

    @cached_property
    def Dk0(self) -> np.ndarray:
        # First-argument derivative of the state-0 covariance between batch
        # points: Dk0[e, i, b, j] = d Sigma0(x_i, x_b) / d x_{i j}.
        A1_J = np.einsum("eind,ebn->eibd", self.J_X1_D, self.A1)
        return kernel_grad_paired(self.model.kernel, *self.pairs, self.K11) - A1_J

    @staticmethod
    def _cholesky(C: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
        """Cholesky factors of a stack C + jit I and their jitters: one batched
        call at the initial jitter, else batch by batch, so that only a batch
        that fails alone escalates, through jittered_cholesky."""
        jit = JITTER_INITIAL * scale
        try:
            return np.linalg.cholesky(C + jit * np.eye(C.shape[-1])), np.full(len(C), jit)
        except np.linalg.LinAlgError:
            if len(C) == 1:
                L, jit = jittered_cholesky(C[0], scale)
                return L[None], np.array([jit])
        parts = [_Block._cholesky(c[None], scale) for c in C]
        return np.concatenate([L for L, _ in parts]), np.concatenate([j for _, j in parts])


def _conditioned(st: dict, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fantasy-conditioned stage-1 (mu1, s1) at the rows of _stage1's
    value terms st, row r conditioned on the whitened residual U[r]."""
    return st["mean"] + np.einsum("rq,rq->r", st["cross"], U), st["s1"]


class FantasyEngine:
    """Shared machinery for fantasy sampling, the score and stage-1 math.

    Built once per (bundle, stack of batches): X1 is one batch (q, d), a
    stack of one, or a stack (E, q, d). Every method is vectorized over
    fantasies and over query rows. Each fantasy carries the batch it was drawn
    at (_FantasyBatch.e) and each query row the index of its fantasy, so the
    fantasies of every batch run through the same calls in lock step; the
    inner solve and its probe sweep take them in blocks of bounded size.
    """

    def __init__(self, bundle: PosteriorBundle, X1: np.ndarray):
        self.bundle = bundle
        X1 = np.atleast_2d(np.asarray(X1, dtype=float))
        self.X1 = X1.reshape((-1,) + X1.shape[-2:])
        self.E, self.q, self.d = self.X1.shape
        # Sampling and the score work without an incumbent; alpha and the gradient
        # entry points require one and enforce it before building the engine.
        self.f0 = np.inf if bundle.incumbent_value is None else bundle.incumbent_value
        self.models = [bundle.objective, *bundle.active_constraints]
        self.blocks = [_Block(m, self.X1) for m in self.models]
        self.n_blocks = len(self.blocks)

    # -- sampling and score --------------------------------------------------

    def _stacked(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows (count, k) shared by every batch, or (E, count, k) per batch,
        flattened batch-major to (E*count, k), with the batch of each row."""
        A = np.asarray(A, dtype=float)
        A = np.broadcast_to(A, (self.E,) + A.shape[-2:])
        return A.reshape(-1, A.shape[-1]), np.repeat(np.arange(self.E), A.shape[1])

    def batch_from_normals(self, Z: np.ndarray) -> _FantasyBatch:
        """Map standard normal rows through the posterior of each batch.

        Z is (count, n_blocks*q), shared by every batch, or (E, count,
        n_blocks*q); the fantasies come out batch-major. Y and U are formed
        by one product over the batch axis per block, with no per-fantasy
        copy of a batch's factors, and each fantasy keeps the bits of a
        product with its own batch's factors."""
        W = self._values(Z)
        Y = [np.ascontiguousarray(Wb) for Wb in W]  # a strided Y moves U's bits at q = 3
        # Cinv is symmetric, so each row of U is Cinv (y - mu0).
        U = [
            np.einsum("epq,efq->efp", blk.Cinv, Yb - blk.mu0[:, None, :]).reshape(-1, self.q)
            for Yb, blk in zip(Y, self.blocks)
        ]
        e = np.repeat(np.arange(self.E), W[0].shape[1])
        return _FantasyBatch([Yb.reshape(-1, self.q) for Yb in Y], self._f1(W).ravel(), U, e)

    def _values(self, Z: np.ndarray) -> list[np.ndarray]:
        """The fantasies of batch_from_normals, mu0 + Lc z, per block an
        (E, count, q) view of a batch-major (E, q, count) array that one
        einsum forms along the fantasies. At every q each value keeps the
        bits of the fantasy-major product "fq,epq->efp" (the test suite's
        reference); only the layout differs."""
        Z = np.asarray(Z, dtype=float)
        spec = "epq,fq->epf" if Z.ndim == 2 else "epq,efq->epf"
        q, out = self.q, []
        for b, blk in enumerate(self.blocks):
            W = np.einsum(spec, blk.Lc, Z[..., b * q : (b + 1) * q])
            W += blk.mu0[:, :, None]
            out.append(W.swapaxes(1, 2))
        return out

    def _f1(self, Y: list[np.ndarray]) -> np.ndarray:
        """f1* of each fantasy from its values per block, (..., q): the
        incumbent or its best feasible value, taken one point at a time. A
        minimum is exact, so every layout of Y gives the same bits."""
        f1 = np.full(Y[0].shape[:-1], self.f0)
        for i in range(Y[0].shape[-1]):
            y = Y[0][..., i]
            for Yg in Y[1:]:
                y = np.where(Yg[..., i] <= 0, y, np.inf)
            np.minimum(f1, y, out=f1)
        return f1

    def sample(self, count: int, seed) -> _FantasyBatch:
        """count fantasies at every batch, all batches from the same normals."""
        Z = sobol_normal(self.n_blocks * self.q, count, seed)
        return self.batch_from_normals(Z)

    def sample_f1(self, count: int, seed) -> np.ndarray:
        """f1* of the fantasies that sample(count, seed) draws, without the
        rest of their record (no whitened residuals, no copy of the draws)."""
        return self._f1(self._values(sobol_normal(self.n_blocks * self.q, count, seed))).ravel()

    def score(self, batch: _FantasyBatch) -> np.ndarray:
        """Gradient of log p(y; X1) with respect to the fantasy's batch X1,
        shape (count, q, d)."""
        e = batch.e
        out = np.zeros((batch.n, self.q, self.d))
        for U, blk in zip(batch.U, self.blocks):
            quad = np.einsum("fibj,fb->fij", blk.Dk0.take(e, axis=0), U)
            trace = np.einsum("eib,eibj->eij", blk.Cinv, blk.Dk0)
            out += blk.dmu0.take(e, axis=0) * U[:, :, None]
            out += U[:, :, None] * quad
            out -= trace.take(e, axis=0)
        return out

    # -- stage-1 posterior rows ----------------------------------------------

    def _stage1(
        self, blk: _Block, P: np.ndarray, e: np.ndarray, grads: bool, terms: dict | None = None
    ):
        """Stage-1 terms at rows of P, row r against the data and its own
        batch e[r] only. The stage-1 moments are affine in the fantasy:
        conditioning on a fantasy with whitened residual u gives mean mu0 +
        cross . u and the standard deviation s1, which does not depend on the
        fantasy. The value half gives the model's rows at P (GPModel.rows,
        unless terms already holds them) plus the own-batch row arrays cross
        = Sigma0(P, X1), s1, B = cross Cinv and K_own = k(P, X1). The
        gradient half, with grads, extends the value terms given as terms
        with the model's row gradients (GPModel.row_grads: dmean, A, dvar)
        and the x2-derivatives dcross and ds1. Every row's numbers are
        independent of the other rows, so the accepted rows of a value pass
        (take_rows) give the bits of a fresh call on them."""
        kern = blk.model.kernel
        X1 = self.X1.take(e, axis=0)  # (rows, q, d)
        if grads:
            # dcoef: sum_n A1[e, i, n] dk(x2, d_n)/dx2 for every batch point i
            out = blk.model.row_grads(P, terms, blk.A1.take(e, axis=0))
            dcross = kernel_grad_paired(kern, P[:, None, :], X1, out["K_own"]) - out["dcoef"]
            dvar1 = out["dvar"] - 2.0 * np.einsum("rqd,rq->rd", dcross, out["B"])
            out.update(dcross=dcross, ds1=sd_grad(out["s1"], dvar1))
            return out
        terms = blk.model.rows(P) if terms is None else terms
        K_own = kernel_paired(kern, P[:, None, :], X1)  # (rows, q)
        cross = K_own - np.einsum("rn,rqn->rq", terms["V"], blk.V1.take(e, axis=0))
        B = np.einsum("rq,rpq->rp", cross, blk.Cinv.take(e, axis=0))  # Cinv symmetric
        s1 = np.sqrt(np.maximum(terms["var"] - np.einsum("rq,rq->r", B, cross), 0.0))
        return dict(terms, cross=cross, s1=s1, B=B, K_own=K_own)

    def stage1_x1_grads(self, b: int, X2: np.ndarray, U: np.ndarray, e: np.ndarray):
        """Stage-1 mean and standard deviation of block b at rows of X2, row f
        tied to the whitened residual row U[f] of a fantasy at batch e[f],
        and their derivatives with respect to that batch at fixed fantasy
        values. Returns (mu1, s1, dmu1, ds1), the derivatives of shape
        (rows, q, d)."""
        blk = self.blocks[b]
        st = self._stage1(blk, X2, e, False)  # the value half: no x2-derivative is read
        A, B = blk.model.solve_rows(st["V"]), st["B"]  # B = Cinv cross, (rows, q)
        mu1, s1 = _conditioned(st, U)
        # First-argument derivative of the state-0 covariance between each
        # batch point and each row: dc[f, i, j] = d Sigma0(x_i, X2_f) / d x_ij.
        X1 = self.X1.take(e, axis=0)
        dc = kernel_grad_paired(blk.model.kernel, X1, X2[:, None, :], st["K_own"])
        dc = dc - np.einsum("fqnd,fn->fqd", blk.J_X1_D.take(e, axis=0), A)
        Dk0 = blk.Dk0.take(e, axis=0)
        rv_u = np.einsum("fibj,fb->fij", Dk0, U)
        rv_b = np.einsum("fibj,fb->fij", Dk0, B)
        dmu1 = (
            dc * U[:, :, None]
            - B[:, :, None] * rv_u
            - rv_b * U[:, :, None]
            - B[:, :, None] * blk.dmu0.take(e, axis=0)
        )
        dvar1 = -2.0 * dc * B[:, :, None] + 2.0 * B[:, :, None] * rv_b
        return mu1, s1, dmu1, sd_grad(s1, dvar1)

    def _integrand(self, f1: np.ndarray, moments: list) -> tuple[np.ndarray, list]:
        """alpha = (f0 - f1*) + EI(f1* - mu1, s1^2) x prod PF from the stage-1
        (mu1, s1) of every block, objective first, and the ei_pf factors
        from which ei_pf_grad continues."""
        (mu, s), *cons = moments
        values, factors = ei_pf_factors((f1 - mu, s), cons)
        return (self.f0 - f1) + values, factors

    def alpha_rows(
        self, P: np.ndarray, idx: np.ndarray, batch: _FantasyBatch, grads: bool = False, terms=None
    ):
        """Two-step integrand alpha at query rows P, row r belonging to
        fantasy idx[r]. With grads=True also returns d alpha / d x2 rows and a
        degeneracy mask. terms is the record of a value pass: an empty dict
        is filled with the value terms of _stage1 per block ("stage1"), its
        data rows sliced from one GPModel.rows call on the bundle's stack,
        and the ei_pf factors ("factors"). A filled record, or its rows taken
        with take_rows, runs only the gradient halves, for grads=True;
        without one, grads=True runs the value half first."""
        P = np.atleast_2d(P)
        idx = np.asarray(idx, dtype=int)
        e, f1 = batch.e.take(idx), batch.f1.take(idx)
        U = [Ub.take(idx, axis=0) for Ub in batch.U]
        record = {} if terms is None else terms
        if not record:
            rows = self.bundle.stacked.rows(P)
            record["stage1"] = [
                self._stage1(blk, P, e, False, {key: t[b] for key, t in rows.items()})
                for b, blk in enumerate(self.blocks)
            ]
            moments = [_conditioned(st, Ub) for st, Ub in zip(record["stage1"], U)]
            values, record["factors"] = self._integrand(f1, moments)
            if not grads:
                return values
        derivs = []
        for blk, st, Ub in zip(self.blocks, record["stage1"], U):
            st = self._stage1(blk, P, e, True, st)
            derivs.append((st["dmean"] + np.einsum("rqd,rq->rd", st["dcross"], Ub), st["ds1"]))
        (dmu, ds), *dcons = derivs
        values, grad, degen = ei_pf_grad(record["factors"], [(-dmu, ds), *dcons])
        return (self.f0 - f1) + values, grad, degen

    def _alpha_pass(self, batch: _FantasyBatch, idx: np.ndarray, X: np.ndarray):
        """The evaluate of the inner solve's ascent (projected_ascent) at rows
        X of fantasies idx: the value pass of alpha_rows, and grad(keep), the
        x2-gradients of alpha_rows at X[keep] from the kept rows of that
        pass's record."""
        record = {}
        values = self.alpha_rows(X, idx, batch, terms=record)

        def grad(keep):
            keep = np.flatnonzero(keep)
            kept = {key: [take_rows(t, keep) for t in part] for key, part in record.items()}
            return self.alpha_rows(X.take(keep, axis=0), idx.take(keep), batch, True, kept)[1]

        return values, grad

    def probe_values(self, probes: np.ndarray, batch: _FantasyBatch) -> np.ndarray:
        """alpha of every fantasy at every probe: probes is (n_probes, d),
        one design shared by every batch, the result (batch.n, n_probes).

        The same numbers as alpha_rows on the probes tiled across the
        fantasies, but the data terms (GPModel.rows) are computed once per
        probe and the own-batch terms once per (batch, probe); each fantasy
        enters only through mu1 = mu0 + cross . u. Those terms are expanded
        over the fantasies in chunks of at most _PROBE_CELLS (fantasy,
        probe) cells. Every cell is formed alone, so the chunks keep the bits
        of one expansion."""
        flat, e_flat = self._stacked(probes)
        tile = np.tile(np.arange(len(probes)), self.E)
        shape = (self.E, len(probes))
        terms = []
        for blk in self.blocks:
            st = self._stage1(blk, flat, e_flat, False, take_rows(blk.model.rows(probes), tile))
            cross = st["cross"].reshape(shape + (self.q,))
            terms.append((cross, st["mean"].reshape(shape), st["s1"].reshape(shape)))
        out = np.empty((batch.n, len(probes)))
        size = max(1, _PROBE_CELLS // len(probes))
        for a in range(0, batch.n, size):
            f = slice(a, a + size)
            e = batch.e[f]
            moments = [
                (
                    mean.take(e, axis=0) + np.einsum("fpq,fq->fp", cross.take(e, axis=0), U[f]),
                    s1.take(e, axis=0),
                )
                for (cross, mean, s1), U in zip(terms, batch.U)
            ]
            out[f] = self._integrand(batch.f1[f, None], moments)[0]
        return out

    # -- likelihood-ratio gradient -------------------------------------------

    def lr_gradients(self, batch: _FantasyBatch, X2: np.ndarray) -> np.ndarray:
        """Gamma for every fantasy, with respect to its own batch; shape
        (count, q, d).

        X2 holds one follow-up point per fantasy, row-aligned with the batch:
        shape (batch.n, d).
        """
        X2 = np.atleast_2d(X2)
        count = batch.n
        if X2.shape != (count, self.d):
            raise ValueError(
                f"X2 must have shape (batch.n, d) = ({count}, {self.d}); got {X2.shape}"
            )
        rows = [self.stage1_x1_grads(b, X2, batch.U[b], batch.e) for b in range(self.n_blocks)]
        alpha_vals, factors = self._integrand(batch.f1, [r[:2] for r in rows])
        (_, _, dmu, ds), *cons = rows
        _, dalpha, _ = ei_pf_grad(factors, [(-dmu, ds), *(c[2:] for c in cons)])
        return alpha_vals[:, None, None] * self.score(batch) + dalpha

    # -- inner maximization ----------------------------------------------------

    def solve_inner_batch(
        self,
        batch: _FantasyBatch,
        bounds: np.ndarray,
        config: TwoStepConfig,
        warm: np.ndarray | None = None,
    ):
        """Projected backtracking ascent of alpha over x2 in the box, one
        solve per fantasy. Returns (X2, values, degenerate). warm holds one
        extra start per fantasy, (batch.n, d).

        The fantasies run in blocks of whole fantasies with at most
        _INNER_ROWS ascent rows (one fantasy when its starts alone exceed
        it), each block in lock step through its own probe sweep, picks and
        ascent (_solve_fantasies). Every row's numbers are its own while the
        data hold at most 31 points (the gp row contract), so the blocks keep
        the bits of one lock-step solve; past that a value may move by an ulp.

        The ascent is projected_ascent, whose step rules are free of the
        scale of alpha, with a first move of 0.15 of the box and
        config.inner_steps steps; each step scores its candidates in one
        value pass and takes the accepted ones' gradients from its terms
        (_alpha_pass). Each fantasy starts from the fixed starts,
        then its probe picks, then its warm start; the first maximum wins.

        A huge realized improvement (f1* far below f0) is not special-cased:
        the follow-up term is the GP's own EI times PF, unclamped. A stage-1
        mean conditioned on an extreme fantasy can overshoot it, so the
        follow-up term may exceed the realized improvement f0 - f1*.
        """
        bounds = np.atleast_2d(bounds)
        wid = bounds[:, 1] - bounds[:, 0]
        starts = halton_design(config.inner_restarts, bounds)
        design = halton_design(min(64 * bounds.shape[0], 256), bounds)
        radius = 3.0 * np.max(wid) / len(design) ** (1.0 / bounds.shape[0])
        near = np.sqrt(sq_dist(design[:, None, :], design[None, :, :])) <= radius
        size = max(1, _INNER_ROWS // (len(starts) + _N_PICKS + (warm is not None)))
        parts = []
        for a in range(0, batch.n, size):
            f = slice(a, a + size)
            block = batch.subset(f), None if warm is None else warm[f]
            parts.append(self._solve_fantasies(*block, bounds, config, starts, design, near))
        return tuple(np.concatenate(part) for part in zip(*parts))

    def _solve_fantasies(self, batch, warm, bounds, config, starts, design, near):
        """solve_inner_batch on one block of fantasies: the probe sweep over
        design, whose neighbourhoods near masks, then the ascent from starts,
        the picks and warm."""
        count = batch.n
        # Screening pass: a value-only sweep over a denser design, shared by
        # every batch, picks the top few probes per fantasy as extra starts,
        # so narrow basins between close-together training points still get
        # found. Each pick suppresses its neighborhood before the next one;
        # without that, a single wide basin fills every slot and steep spikes
        # elsewhere stay unvisited.
        pv = self.probe_values(design, batch)
        picks = []
        for _ in range(_N_PICKS):
            j = np.argmax(pv, axis=1)
            picks.append(j)
            pv = np.where(near[j], -np.inf, pv)
        parts = [np.broadcast_to(starts, (count,) + starts.shape), design[np.column_stack(picks)]]
        if warm is not None:
            parts.append(warm[:, None, :])
        P = np.concatenate(parts, axis=1)  # fantasy-major, (count, k, d)
        k = P.shape[1]
        idx = np.repeat(np.arange(count), k)

        P, vals = projected_ascent(
            lambda X, rows: self._alpha_pass(batch, idx.take(rows), X),
            P.reshape(-1, self.d),
            bounds,
            first_move=0.15,
            steps=config.inner_steps,
        )
        winners = np.arange(count) * k + np.argmax(vals.reshape(count, k), axis=1)
        best_vals = vals[winners]
        improvement = best_vals - (self.f0 - batch.f1)
        return P[winners], best_vals, improvement <= 1e-15


# -- public operations ---------------------------------------------------------


def alpha(
    bundle: PosteriorBundle, X1: np.ndarray, x2: np.ndarray, y_f: np.ndarray, y_g: np.ndarray
) -> float:
    """Two-step integrand via explicit refits (reference path).

    y_f holds the fantasy's objective values at X1 and y_g one row per active
    constraint, in bundle order. Works out f1*, the best feasible value among
    the incumbent and the fantasy, conditions every model on the fantasy and
    evaluates f0* - f1* + EI(f1* - mu1(x2), s1(x2)^2) * prod PF at x2.
    """
    f0 = bundle.require_incumbent()
    X1 = np.atleast_2d(X1)
    y_f = np.asarray(y_f, dtype=float).ravel()
    feasible = np.all(np.reshape(y_g, (-1, len(y_f))) <= 0, axis=0)
    f1 = min(f0, np.min(y_f, where=feasible, initial=np.inf))
    cond_f = bundle.objective.condition_on_fantasy(X1, y_f)
    m1, v1 = cond_f.posterior(x2)
    value = ei(f1 - m1, v1)
    for row, model in zip(y_g, bundle.active_constraints):
        cond_g = model.condition_on_fantasy(X1, row)
        mc, vc = cond_g.posterior(x2)
        value *= pf(mc, vc)
    return float(f0 - f1 + value)


def estimate_value(
    bundle: PosteriorBundle,
    X1: np.ndarray,
    bounds: np.ndarray,
    config: TwoStepConfig,
    seed,
    n_samples: int | None = None,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """QMC estimate of the two-step acquisition value of the batch X1.

    Each fantasy's inner problem is solved independently; returns the sample
    mean and its standard error. X1 may also be a stack of batches (E, q, d)
    with seed a sequence of E seeds, one per batch: the batches are solved in
    lock step in one engine and the results are two arrays of length E, each
    entry the same as a call on that batch alone with its seed.
    """
    bundle.require_incumbent()
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    engine = FantasyEngine(bundle, X1)
    count = config.n_value_samples if n_samples is None else n_samples
    seeds = [seed] if X1.ndim == 2 else seed
    dim = engine.n_blocks * engine.q
    batch = engine.batch_from_normals(np.stack([sobol_normal(dim, count, s) for s in seeds]))
    _, vals, _ = engine.solve_inner_batch(batch, bounds, config)
    return mean_and_se(vals.reshape(engine.E, count), X1.ndim == 2)


def _enforce_separation(X: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Nudge batch points apart until pairwise separation holds. Each
    coordinate moves toward the centre of the box [lo, hi] (up in the lower
    half, down in the upper half), so a nudged point stays in the box."""
    X = X.copy()
    q = X.shape[0]
    widths = hi - lo
    for _ in range(50):
        moved = False
        for i in range(1, q):
            d2 = sq_dist(X[:i], X[i], widths)
            if np.min(d2) < (10 * SEPARATION_TOL) ** 2:
                toward = np.where(X[i] > 0.5 * (lo + hi), -1.0, 1.0)
                X[i] = X[i] + toward * widths * 100 * SEPARATION_TOL
                moved = True
        if not moved:
            break
    return X


def optimize(
    bundle: PosteriorBundle,
    bounds: np.ndarray,
    q: int,
    config: TwoStepConfig,
    seed: int,
) -> TwoStepResult:
    """Search for the batch maximizing the two-step acquisition value.

    Multistart stochastic gradient ascent: restarts start from a seeded Latin
    hypercube plus the myopic argmax (the two-step value dominates the myopic
    acquisition pointwise, so its own maximizer is always a serious
    candidate and usually sits in the narrow peak the hypercube misses).
    Restarts advance in lock step, stacked in one FantasyEngine per step.
    Each step draws one scrambled QMC block of fantasies (shared across
    restarts) and solves the inner problem for every inner_solve_period-th
    fantasy, each also started from the x2 its restart solved last in the
    step before. A fantasy in between is paired with the x2 of the last
    solved fantasy before it, an unrelated draw, not its own argmax, which
    the LR gradient needs (ROADMAP.md, item 13). Each restart then averages
    its likelihood-ratio gradients and takes a projected step. Both the
    start and the endpoint of every restart are screened by a QMC value
    estimate, all 2R in one stacked call, each with its own seed (so a
    trajectory that wanders off a good start cannot drag the answer down with
    it), and the top three are re-scored together on one larger shared
    sample; the first maximum wins. When no restart's gradient is ever
    nonzero, it warns and returns the myopic start.
    """
    bundle.require_incumbent()
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    lo, hi = bounds[:, 0], bounds[:, 1]
    widths = hi - lo
    d = bounds.shape[0]
    R = config.n_restarts
    X = latin_hypercube(R * q, bounds, np.random.SeedSequence((seed, 11))).reshape(R, q, d)
    if q == 1:
        myopic = maximize_eic(bundle, bounds, seed).reshape(1, 1, d)
    else:
        myopic = greedy_batch_eic(bundle, bounds, q, seed).reshape(1, q, d)
    X = np.concatenate([myopic, X], axis=0)
    R = R + 1
    for r in range(R):
        X[r] = _enforce_separation(X[r], lo, hi)
    starts = X.copy()
    n_blocks = 1 + len(bundle.active_constraints)
    n_grad = config.n_grad_samples
    warm = None
    moved_ever = np.zeros(R, dtype=bool)
    solve_idx = np.arange(0, n_grad, config.inner_solve_period)
    held = np.searchsorted(solve_idx, np.arange(n_grad), side="right") - 1
    for t in range(config.n_sga_steps):
        Z = sobol_normal(n_blocks * q, n_grad, np.random.SeedSequence((seed, 17, t)))
        scale = config.step_a / (config.step_A + t) ** config.step_gamma
        engine = FantasyEngine(bundle, X)
        batch = engine.batch_from_normals(Z)
        sub = batch.subset((np.arange(R)[:, None] * n_grad + solve_idx).ravel())
        x2s, _, _ = engine.solve_inner_batch(
            sub, bounds, config, warm=None if warm is None else warm[sub.e]
        )
        x2s = x2s.reshape(R, len(solve_idx), d)
        warm = x2s[:, -1].copy()
        X2 = x2s[:, held].reshape(R * n_grad, d)
        G = engine.lr_gradients(batch, X2).reshape(R, n_grad, q, d).mean(axis=1)
        moved_ever |= np.any(G != 0.0, axis=(1, 2))
        disp = np.clip(scale * widths * G, -0.25 * widths, 0.25 * widths)
        X = np.clip(X + disp, lo, hi)
        for r in range(R):
            X[r] = _enforce_separation(X[r], lo, hi)
    if not np.any(moved_ever):
        warnings.warn("all restarts degenerate; falling back to the myopic acquisition")
        return TwoStepResult(CandidateBatch(starts[0]), np.nan, np.nan, fallback_eic=True)
    cand = np.concatenate([X, starts], axis=0)
    seeds = [np.random.SeedSequence((seed, 23, r)) for r in range(2 * R)]
    screen, _ = estimate_value(bundle, cand, bounds, config, seed=seeds)
    top = np.argsort(-screen)[: min(3, 2 * R)]
    seeds = [np.random.SeedSequence((seed, 29))] * len(top)
    n_final = config.n_final_value_samples
    values, ses = estimate_value(bundle, cand[top], bounds, config, seeds, n_final)
    best = int(np.argmax(values))  # the first maximum wins
    return TwoStepResult(CandidateBatch(cand[top[best]]), float(values[best]), float(ses[best]))
