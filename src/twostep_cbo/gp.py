"""Gaussian process regression with an ARD squared-exponential kernel.

Noise-free interpolation with a zero prior mean. Observations are absorbed
exactly up to a diagonal jitter added for numerical stability; the jitter
starts at ``1e-8 * signal_variance`` and escalates by factors of ten up to
``1e-2 * signal_variance`` before factorization is abandoned.

The kernel, its x-gradient, the likelihood and every distance check work one
input dimension j at a time on contiguous planes of the broadcast leading axes
(sq_planes), the squares added in the order j = 0..d-1 (sq_dist). Each element
takes the operations of the (..., d) broadcast form the tests keep as the
reference, so the bits are the same for d <= 2 and for every distance; for
d >= 3 einsum added the squares in another order, an ulp of the sum apart.

The model is a frozen dataclass holding the Cholesky factor L of the jittered
kernel matrix and its inverse. GPModel.mean_rows is the one home of the
posterior mean at query rows, which the loop's recommendation uses on its
own; GPModel.rows adds the variance and serves posterior_many,
posterior_grads (and through them the myopic EIC) and the fantasy engine.
Both give value terms only. Their gradient halves (mean_row_grads,
row_grads) extend those terms, so a maximizer takes the gradients of the
candidates it accepts from the rows of its value pass (take_rows), and they
contract coefficient rows through the ARD kernel's input-derivative identity
(kernel_grad_sum; Rasmussen & Williams, Gaussian Processes for Machine
Learning, 2006). The row formulas broadcast over a leading model axis: a call
on a stack of models on shared inputs (GPModel.stack) gives each model's
slice the bits of its own call; one GPModel is the no-axis case.

Row contract. Every product of the row path is one GEMM per model with the
second operand transposed (_row_products; one row is padded to two, away
from gemv), so a row's bits rest on the BLAS. On the OpenBLAS build measured
(ROADMAP.md, item 14), a row keeps its bits whatever rows share the call for
up to 31 data points; from 32 on it can move by ulps, and A (row_grads) by
more, as its solve amplifies them. test_row_terms_keep_their_bits_at_workload_sizes
guards the bits on the BLAS the tests run on, and
test_row_terms_stay_within_row_rtol_past_31_points holds every term within
1e-6, relative and of the signal variance, at 32 to 64 points.

Hyperparameters are fit by multistart L-BFGS-B on the log marginal
likelihood in log-parameter space, factorized and solved with LAPACK's
potrf/potrs directly. L-BFGS-B runs through _lbfgsb: the loop and defaults of
scipy.optimize.minimize over scipy's private routine
scipy.optimize._lbfgsb.setulb (with the signature of scipy 1.17, the floor
pyproject.toml sets), which gives minimize's iterates bit for bit.
test_lbfgsb_driver_matches_scipy_minimize_bit_for_bit keeps minimize as the
reference, so a scipy release that changes the routine fails it rather than
moving the fits.

Four compiled scipy modules are loaded from their files (_scipy_extension):
scipy/optimize/_lbfgsb and scipy/linalg/_flapack here, whose potrf, potrs
and trtrs the fit and the factorizations call with the arguments of
scipy.linalg's cholesky, cho_solve and solve_triangular,
scipy/special/_special_ufuncs in acquisition, whose ndtr is scipy.special's,
and scipy/optimize/_slsqplib in problems, whose slsqp runs the constrained
oracle's polish and is loaded on its first call. Importing them from their
packages runs the packages' inits: scipy.optimize loads sparse, spatial,
fft, linalg and special among others and lifts a process holding this
package from 35 to 77 MB; scipy.linalg and scipy.special load numpy.f2py,
numpy.testing and numpy.ma (about 0.3 s by tools/import_cost.py). The
package uses nothing else of them. LAPACK reports no error on a matrix
holding NaN, so jittered_cholesky and GPModel.fit raise ValueError on inf or
NaN in their inputs, as scipy's wrappers did. This relies on scipy 1.17's
layout, at the floor pyproject.toml sets; a missing file fails the load, as
importing from the package would. Each module goes into sys.modules under
its own name, so a later import of its package takes it rather than a second
copy. Tests: test_scipy_optimize_and_the_fit_share_one_copy_of_lbfgsb,
test_package_import_leaves_scipy_stats_unloaded and
test_loop_and_two_step_acquisition_leave_scipy_optimize_unloaded.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location
from math import prod
from operator import attrgetter

import numpy as np
import scipy

from .sampling import sobol_unit


def _scipy_extension(name: str):
    """The compiled scipy module name, loaded from its file without the init
    of its package and kept in sys.modules under name; the module there if any."""
    if name not in sys.modules:
        stem = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:])
        paths = [stem + suffix for suffix in EXTENSION_SUFFIXES if os.path.exists(stem + suffix)]
        if not paths:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec = spec_from_file_location(name, paths[0])
        sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


setulb = _scipy_extension("scipy.optimize._lbfgsb").setulb
_flapack = _scipy_extension("scipy.linalg._flapack")
dpotrf, dpotrs, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs

JITTER_INITIAL = 1e-8
JITTER_MAX = 1e-2
SIGMA_FLOOR = 1e-10
DUPLICATE_TOL = 1e-8
# Closer than this to a data point the posterior variance is no larger than
# the jitter, so its derivative describes the jitter, not the model: the sigma
# gradient of posterior_grads is zeroed there.
NEAR_DATA_TOL = np.sqrt(DUPLICATE_TOL)
# Query rows per block of posterior_many without terms.
_POSTERIOR_ROWS = 1 << 10


class FactorizationError(RuntimeError):
    """Kernel matrix could not be factorized even at the maximum jitter."""


@dataclass(frozen=True)
class KernelParams:
    """ARD squared-exponential kernel hyperparameters.

    k(x, z) = signal_variance * exp(-0.5 * sum_j ((x_j - z_j) / lengthscales_j)^2)

    A stack of M kernels holds signal_variance (M,) and lengthscales (M, d).
    """

    signal_variance: float
    lengthscales: np.ndarray

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        object.__setattr__(self, "lengthscales", ls)
        sv = self.signal_variance
        if not np.all(np.isfinite(sv)) or np.any(sv <= 0):
            raise ValueError("signal_variance must be finite and positive")
        if ls.shape[:-1] != np.shape(sv) or not ls.size or not np.all(np.isfinite(ls) & (ls > 0)):
            raise ValueError("lengthscales must be a non-empty (..., d) array of finite positives")

    @property
    def dim(self) -> int:
        return self.lengthscales.shape[-1]

    def leading(self, ndim: int):
        """(signal_variance, lengthscales), ndim unit axes after any model axis."""
        sv, ls = self.signal_variance, self.lengthscales
        if ls.ndim == 1:
            return sv, ls
        return sv.reshape(sv.shape + (1,) * ndim), ls.reshape(ls.shape[:-1] + (1,) * ndim + (-1,))


def sq_planes(A: np.ndarray, B: np.ndarray, scale=None):
    """The planes ((A_j - B_j) / scale_j)^2, j = 0..d-1, of the points of A and
    B paired by broadcasting over all axes but the last; unscaled without
    scale."""
    for j in range(A.shape[-1]):
        t = A[..., j] - B[..., j]
        if scale is not None:
            t = t / scale[..., j]
        t *= t
        yield t


def sq_dist(A: np.ndarray, B: np.ndarray, scale=None) -> np.ndarray:
    """Squared distances of paired points: sq_planes added in order, as np.sum
    adds up to eight terms along the last axis."""
    planes = sq_planes(A, B, scale)
    total = next(planes)
    for plane in planes:
        total += plane
    return total


def kernel_paired(params: KernelParams, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """k(a, b) of the points of A and B paired by broadcasting over all axes
    but the last, after any model axis; kernel_matrix is the all-pairs case."""
    sv, ls = params.leading(max(A.ndim, B.ndim) - 1)
    return sv * np.exp(-0.5 * sq_dist(A, B, ls))


def kernel_grad_paired(
    params: KernelParams, A: np.ndarray, B: np.ndarray, K: np.ndarray
) -> np.ndarray:
    """Derivative in a of K = kernel_paired(params, A, B), shape K.shape +
    (d,), filled one input dimension at a time with -K (a_j - b_j) / ls_j^2."""
    d = A.shape[-1]
    out = np.empty(K.shape + (d,))
    neg_K = -K
    ls2 = params.leading(max(A.ndim, B.ndim) - 1)[1] ** 2
    for j in range(d):
        out[..., j] = neg_K * (A[..., j] - B[..., j]) / ls2[..., j]
    return out


def kernel_matrix(params: KernelParams, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel cross-matrix k(A, B), shape (len(A), len(B)) after any model axis."""
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    if A.shape[1] != params.dim or B.shape[1] != params.dim:
        raise ValueError("point dimension does not match kernel lengthscales")
    return kernel_paired(params, A[:, None, :], B[None, :, :])


def kernel_grad_first_from(
    params: KernelParams, A: np.ndarray, B: np.ndarray, K: np.ndarray
) -> np.ndarray:
    """Derivative of k(a_i, b_j) = K[..., i, j] in a_i, shape K.shape + (d,)."""
    A, B = np.atleast_2d(A), np.atleast_2d(B)
    return kernel_grad_paired(params, A[:, None, :], B[None, :, :], K)


def sd_grad(sd: np.ndarray, dvar: np.ndarray) -> np.ndarray:
    """Derivative of a standard deviation from that of its variance,
    d sd = d var / (2 sd); zero where sd is at or below SIGMA_FLOOR. dvar is
    shaped like sd plus trailing axes."""
    scale = np.where(sd > SIGMA_FLOOR, 0.5 / np.maximum(sd, SIGMA_FLOOR), 0.0)
    return scale.reshape(scale.shape + (1,) * (dvar.ndim - sd.ndim)) * dvar


def _nearest(X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from each row of X to the nearest of points; inf when there
    are none. The squared distances are laid out points-major, (points,
    rows), so the minimum runs across planes of rows rather than along a
    short last axis; (p - x)^2 has the bits of (x - p)^2."""
    d2 = sq_dist(points[:, None, :], X[None, :, :])
    return np.sqrt(np.min(d2, axis=0, initial=np.inf))


def take_rows(terms: dict, keep, axis: int = 0) -> dict:
    """The rows keep (a mask or indices) of every array in a dict of row
    terms, such as GPModel.rows returns, on axis axis (1 on a stack): a mask
    becomes one index array, and np.take copies every array with it."""
    keep = np.asarray(keep)
    if keep.dtype == bool:
        keep = np.flatnonzero(keep)
    return {key: value.take(keep, axis=axis) for key, value in terms.items()}


def _row_products(A: np.ndarray, Bt: np.ndarray) -> np.ndarray:
    """A @ Bt^T over the last two axes, one NT GEMM per model (Bt made
    contiguous); one row is padded to two, away from gemv."""
    if A.shape[-2] == 1:
        return _row_products(np.concatenate([A, A], axis=-2), Bt)[..., :1, :]
    return A @ np.ascontiguousarray(Bt).swapaxes(-1, -2)


def _moments(r: dict) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance from the terms r of GPModel.posterior_many, the
    variance snapped to zero at a data point and clipped at zero."""
    var = np.where(r["dist"] <= DUPLICATE_TOL, 0.0, r["var"])
    return r["mean"], np.maximum(var, 0.0)


def _min_pairwise_distance(X: np.ndarray) -> float:
    if X.shape[0] < 2:
        return np.inf
    d2 = sq_dist(X[:, None, :], X[None, :, :])
    iu = np.triu_indices(X.shape[0], k=1)
    return float(np.sqrt(np.min(d2[iu])))


@dataclass(frozen=True)
class GPModel:
    """A fitted noise-free GP. Posterior queries condition on (train_inputs, train_targets)."""

    kernel: KernelParams
    train_inputs: np.ndarray
    train_targets: np.ndarray
    chol: np.ndarray = field(repr=False)
    chol_inv: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    jitter: float

    @classmethod
    def fit(cls, inputs: np.ndarray, targets: np.ndarray, params: KernelParams) -> "GPModel":
        """Factorize the kernel matrix, escalating jitter on failure."""
        X = np.atleast_2d(np.asarray(inputs, dtype=float))
        y = np.asarray(targets, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("inputs and targets disagree on the number of points")
        if X.shape[0] == 0:
            empty = np.zeros((0, 0))
            return cls(params, X.reshape(0, params.dim), y, empty, empty, np.zeros(0), 0.0)
        if X.shape[1] != params.dim:
            raise ValueError("input dimension does not match kernel lengthscales")
        L, jit = jittered_cholesky(kernel_matrix(params, X, X), params.signal_variance)
        w = dpotrs(L, _finite(y), lower=1)[0]
        L_inv = dtrtrs(L, np.eye(len(L)), lower=1)[0]
        return cls(params, X, y, L, L_inv, w, jit)

    @classmethod
    def stack(cls, models) -> "GPModel":
        """The models, which share train_inputs, on a leading model axis."""
        X = models[0].train_inputs
        if any(not np.array_equal(m.train_inputs, X) for m in models):
            raise ValueError("stacked models must share train_inputs")
        get = attrgetter("kernel.signal_variance", "kernel.lengthscales", "train_targets", "chol",
                         "chol_inv", "weights", "jitter")
        sv, ls, *arrays = map(np.stack, zip(*map(get, models)))
        return cls(KernelParams(sv, ls), X, *arrays)

    @cached_property
    def _gemm_operands(self):
        """The row GEMMs' second operands, contiguous, built once: L^{-1},
        L^{-T}, the centred data inputs transposed with a row of ones, and
        the centre."""
        D, L_inv = self.train_inputs, self.chol_inv
        centre = D.sum(axis=0) / max(len(D), 1)
        data = np.vstack([(D - centre).T, np.ones(len(D))])
        L_inv_T = np.ascontiguousarray(L_inv.swapaxes(-1, -2))
        return np.ascontiguousarray(L_inv), L_inv_T, data, centre

    @property
    def n_train(self) -> int:
        return self.train_inputs.shape[0]

    def posterior(self, x: np.ndarray) -> tuple[float, float]:
        """Posterior mean and variance at a single point."""
        m, v = self.posterior_many(np.atleast_2d(x))
        return float(m[0]), float(v[0])

    def mean_rows(self, X: np.ndarray) -> dict:
        """Posterior mean at rows of X against the data D: K = k(X, D) and
        mean, the value terms that mean_row_grads extends. Row r is
        independent of every other row."""
        K = kernel_matrix(self.kernel, X, self.train_inputs)
        return dict(K=K, mean=np.einsum("...rn,...n->...r", K, self.weights))

    def mean_row_grads(self, X: np.ndarray, terms: dict) -> dict:
        """The gradient half of mean_rows: its terms at rows of X plus dmean,
        shape (rows, d) after any model axis, from the kernel rows terms["K"]
        already holds (a new dict)."""
        C = self.weights[..., None, :] * terms["K"]
        return dict(terms, dmean=self.kernel_grad_sum(X, C))

    def rows(self, X: np.ndarray) -> dict:
        """Posterior terms at rows of X: mean_rows plus V = rows of L^{-1}
        k(D, X) and the unclipped variance var, the value terms that
        row_grads extends. A model without data gives the prior."""
        out = self.mean_rows(X)
        V = _row_products(out["K"], self._gemm_operands[0])
        out.update(V=V, var=self.kernel.leading(1)[0] - np.einsum("...rn,...rn->...r", V, V))
        return out

    def solve_rows(self, V: np.ndarray) -> np.ndarray:
        """A = rows of K_D^{-1} k(D, X) from the rows V of L^{-1} k(D, X)."""
        return _row_products(V, self._gemm_operands[1])

    def kernel_grad_sum(self, X: np.ndarray, C: np.ndarray) -> np.ndarray:
        """sum_n c_n dk(x, d_n) / dx for coefficient rows given as C = c *
        k(x, D), at the rows x of X they broadcast with (any model axis
        first): shape C.shape[:-1] + (d,). As dk(x, z)/dx = -k(x, z) (x - z)
        / ls^2, it is (C @ D - x sum_n C[..., n]) / ls^2, one GEMM against D
        with a column of ones; D and x are taken about the data's centre, so
        the subtraction loses only the bits of |x - d_n| against that."""
        _, _, data, centre = self._gemm_operands
        P = _row_products(C.reshape(prod(C.shape[:-1]), -1), data).reshape(C.shape[:-1] + (-1,))
        out = (X - centre) * P[..., -1:]
        np.subtract(P[..., :-1], out, out=out)
        out /= self.kernel.leading(C.ndim - 2)[1] ** 2
        return out

    def row_grads(self, X: np.ndarray, terms: dict, coef: np.ndarray | None = None) -> dict:
        """The gradient half of rows: its terms at rows of X plus dmean, A =
        rows of K_D^{-1} k(D, X) and dvar, shape (rows, d) after any model
        axis, from the rows terms already holds (a new dict); with coef,
        further coefficient rows (rows, k, n), also dcoef (rows, k, d), their
        kernel_grad_sum, from the same call. A subset of the value terms
        (take_rows) gives the bits of a fresh call on its rows."""
        K, A = terms["K"], self.solve_rows(terms["V"])
        k = 2 if coef is None else 2 + coef.shape[-2]
        C = np.empty(K.shape[:-1] + (k, K.shape[-1]))
        np.multiply(self.weights[..., None, :], K, out=C[..., 0, :])
        np.multiply(A, K, out=C[..., 1, :])
        if coef is not None:
            np.multiply(coef, K[..., None, :], out=C[..., 2:, :])
        g = self.kernel_grad_sum(X[:, None, :], C)
        out = dict(terms, dmean=g[..., 0, :], A=A, dvar=-2.0 * g[..., 1, :])
        if coef is not None:
            out["dcoef"] = g[..., 2:, :]
        return out

    def _value_terms(self, X: np.ndarray) -> dict:
        """rows at X with dist, each row's distance to the nearest data point."""
        out = self.rows(X)
        dist = _nearest(X, self.train_inputs)  # one for every model of a stack
        return dict(out, dist=dist[(None,) * (out["var"].ndim - 1)])

    def posterior_many(self, X: np.ndarray, with_terms: bool = False):
        """Posterior means and variances at rows of X. Variances clipped at zero.

        Noise-free observations interpolate exactly, so the variance is snapped
        to zero at points coinciding with a training input; the jitter used for
        factorization stability would otherwise leak in at that scale. With
        with_terms also the terms they came from (rows plus dist), from which
        posterior_grads continues. Without them the rows go through in blocks
        of at most _POSTERIOR_ROWS; every row is its own while the data hold
        at most 31 points (the row contract), so the blocks keep the bits of
        one call, and past that a row may move by an ulp.
        """
        X = np.atleast_2d(X)
        if with_terms:
            terms = self._value_terms(X)
            return (*_moments(terms), terms)
        blocks = [
            _moments(self._value_terms(X[a : a + _POSTERIOR_ROWS]))
            for a in range(0, len(X) or 1, _POSTERIOR_ROWS)
        ]
        return tuple(np.concatenate(part, axis=-1) for part in zip(*blocks))

    def condition_on_fantasy(self, X1: np.ndarray, y1: np.ndarray) -> "GPModel":
        """Model conditioned on hypothetical observations (X1, y1); kernel unchanged."""
        X1 = np.atleast_2d(X1)
        y1 = np.asarray(y1, dtype=float).ravel()
        stacked = np.vstack([self.train_inputs, X1]) if self.n_train else X1
        if _min_pairwise_distance(stacked) < DUPLICATE_TOL:
            warnings.warn("fantasy points overlap existing data", RuntimeWarning)
        targets = np.concatenate([self.train_targets, y1])
        return GPModel.fit(stacked, targets, self.kernel)

    def posterior_grads(self, x: np.ndarray, terms: dict | None = None):
        """Posterior moments with the gradients of the mean and standard
        deviation at a point (d,) or at rows (m, d).

        Returns (mean, var, dmean, dsigma, degenerate); the mean and variance
        are the bits of posterior_many. Shaped (), (), (d,), (d,) and a bool
        for a point, (m,), (m,), (m, d), (m, d) and (m,) for rows. Degenerate
        within NEAR_DATA_TOL of a data point or where the standard deviation
        is at or below SIGMA_FLOOR; there the sigma gradient is zeros. terms,
        those of posterior_many(..., with_terms=True) at these rows, skips
        the value pass: only the gradient half (row_grads) runs. A stack
        takes rows, and every output carries its model axis first.
        """
        x = np.asarray(x, dtype=float)
        X = np.atleast_2d(x)
        r = self.row_grads(X, self._value_terms(X) if terms is None else terms)
        mean, var = _moments(r)
        # Where the snap above zeroed var, near holds too.
        sigma = np.sqrt(var)
        near = r["dist"] < NEAR_DATA_TOL
        degenerate = near | (sigma <= SIGMA_FLOOR)
        dsigma = np.where(near[..., None], 0.0, sd_grad(sigma, r["dvar"]))
        out = (mean, var, r["dmean"], dsigma, degenerate)
        if x.ndim < 2:
            out = (*(a[0] for a in out[:4]), bool(degenerate[0]))
        return out


def jittered_cholesky(C: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky of C + jit*I with jitter escalation relative to scale.

    Returns (L, jitter_used), L in Fortran order. Raises ValueError on a
    matrix holding inf or NaN and FactorizationError past the cap.
    """
    n = C.shape[0]
    jit = JITTER_INITIAL * scale
    cap = JITTER_MAX * scale
    while True:
        L, info = dpotrf(_finite(C + jit * np.eye(n)), lower=1, clean=1)
        if info == 0:
            return L, jit
        jit *= 10.0
        if jit > cap * (1 + 1e-12):
            raise FactorizationError(f"covariance not factorizable at jitter {cap:g}")


def _finite(a: np.ndarray) -> np.ndarray:
    """a, or ValueError where it holds inf or NaN, on which LAPACK's routines
    report no error."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _nll_constants(X):
    """The constants _nll_and_grad needs on inputs X whatever theta: the
    difference planes X_j - X_j^T, j = 0..d-1, and the identity."""
    return [X[:, None, j] - X[None, :, j] for j in range(X.shape[1])], np.eye(X.shape[0])


def _nll_and_grad(theta, X, y, jit_rel, consts=None):
    """Negative log marginal likelihood and gradient in log-parameter space;
    (inf, zeros) where the jittered kernel matrix is not finite or does not
    factorize. consts, _nll_constants(X), is built once per fit; each plane
    is scaled, squared and then folded into its gradient term in place."""
    diffs, eye = _nll_constants(X) if consts is None else consts
    sv = np.exp(theta[0])
    ls = np.exp(theta[1:])
    n = X.shape[0]
    sq = [diff / s for diff, s in zip(diffs, ls)]  # d planes (n, n), as sq_planes gives them
    for plane in sq:
        plane *= plane
    Kc = sv * np.exp(-0.5 * sum(sq[1:], sq[0]))  # added in order, as in sq_dist
    K = Kc.copy()
    K.ravel()[:: n + 1] += jit_rel * sv
    # potrf reports no error on a matrix holding inf or NaN.
    L, info = dpotrf(K, lower=1)
    if info != 0 or not np.isfinite(K).all():
        return np.inf, np.zeros_like(theta)
    w = dpotrs(L, y, lower=1)[0]
    nll = 0.5 * y @ w + np.log(L.diagonal()).sum() + 0.5 * n * np.log(2.0 * np.pi)
    S = w[:, None] * w  # np.outer(w, w)
    S -= dpotrs(L, eye, lower=1)[0]
    grad = np.empty_like(theta)
    K *= S
    grad[0] = -0.5 * K.sum()  # dK/dlog sv = K (jitter scales with sv)
    for j, plane in enumerate(sq):  # dKc/dlog ls_j = Kc * sq_j
        plane *= Kc
        plane *= S
        grad[1 + j] = -0.5 * plane.sum()
    return float(nll), grad


def _lbfgsb(fun, x0, lo, hi):
    """Minimize fun, which returns (value, gradient), over the finite box
    [lo, hi] from x0 clipped into it, with L-BFGS-B; returns the last
    iterate. It is the loop of minimize(fun, x0, jac=True, method="L-BFGS-B",
    bounds=...) over setulb with minimize's defaults, and gives its iterates
    bit for bit. fun gets a copy of each theta setulb asks for."""
    m, maxiter, maxfun, maxls = 10, 15000, 15000, 20
    factr = 2.2204460492503131e-09 / np.finfo(float).eps  # minimize's ftol, as it converts it
    n = x0.size
    x = np.clip(x0, lo, hi)
    f = np.array(0.0)
    g = np.zeros(n)
    nbd = np.full(n, 2, np.int32)  # bounded below and above
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    nfev = nit = 0
    while True:
        setulb(
            m, x, lo, hi, nbd, f, g, factr, 1e-5, wa, iwa, task, lsave, isave, dsave, maxls, ln_task
        )
        if task[0] == 3:  # wants f and g at x
            f, g = fun(x.copy())
            nfev += 1  # repeats too, unlike minimize: they part only past maxfun
        elif task[0] == 1:  # a new iterate; stop as minimize does
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            return x


def fit_hyperparameters(
    inputs: np.ndarray,
    targets: np.ndarray,
    widths: np.ndarray | None = None,
    restarts: int = 5,
    seed: int = 0,
    warm_start: KernelParams | None = None,
) -> KernelParams:
    """Maximum-likelihood kernel hyperparameters via multistart L-BFGS-B.

    Search is in log space. Lengthscale box is [1e-3, 10] times the per-axis
    width (domain width if given, data range otherwise); signal variance box is
    [1e-4, 1e4] times the target variance. Degenerate targets (all identical,
    or fewer than two points) short-circuit to fallback parameters. When a warm
    start is supplied the result never has lower likelihood than it.

    Each restart is one run of _lbfgsb, called by its module name. The
    likelihood's per-fit constants (_nll_constants) are built once. Each
    evaluation goes through the module's _nll_and_grad, except a repeat of
    the last theta evaluated, which is served from a memo keyed on its bytes
    (a fresh copy of the gradient): the check at a run's result is most often
    the point L-BFGS-B evaluated last, and the routine can ask for one theta
    twice in a row.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    d = X.shape[1]
    if widths is None:
        widths = np.ptp(X, axis=0) if X.shape[0] > 1 else np.ones(d)
    widths = np.maximum(np.asarray(widths, dtype=float), 1e-6)
    vy = float(np.var(y)) if y.size else 0.0
    if y.size < 2 or vy == 0.0:
        return KernelParams(max(vy, 1e-6), widths.copy())

    lo = np.concatenate([[np.log(1e-4 * vy)], np.log(1e-3 * widths)])
    hi = np.concatenate([[np.log(1e4 * vy)], np.log(10.0 * widths)])
    starts = lo + sobol_unit(d + 1, max(restarts, 1), seed) * (hi - lo)
    if warm_start is not None:
        theta_w = np.concatenate(
            [[np.log(warm_start.signal_variance)], np.log(warm_start.lengthscales)]
        )
        starts = np.vstack([np.clip(theta_w, lo, hi), starts])

    consts = _nll_constants(X)
    last = {}  # the last theta evaluated, keyed on its bytes

    def nll(theta):
        # Through the module name on every evaluation, so a wrapper set on
        # _nll_and_grad sees each one.
        key = theta.tobytes()
        if key not in last:
            last.clear()
            last[key] = _nll_and_grad(theta, X, y, JITTER_INITIAL, consts)
        value, grad = last[key]
        return value, grad.copy()

    best_theta, best_nll = None, np.inf
    for theta0 in starts:
        x = _lbfgsb(nll, theta0, lo, hi)
        cand_nll, _ = nll(x)
        if cand_nll < best_nll:
            best_theta, best_nll = x, cand_nll
    if warm_start is not None:
        theta_w = np.clip(theta_w, lo, hi)
        warm_nll, _ = nll(theta_w)
        # Never regress below the warm start (clipped into the box).
        if warm_nll < best_nll:
            best_theta, best_nll = theta_w, warm_nll
    if best_theta is None or not np.isfinite(best_nll):
        return KernelParams(max(vy, 1e-6), widths.copy())
    return KernelParams(float(np.exp(best_theta[0])), np.exp(best_theta[1:]))
