"""Myopic constrained acquisition functions.

Expected improvement, probability of feasibility, their product (constrained
expected improvement over the best feasible observation), the analytic
gradient of that product, a quasi-Monte Carlo estimator of the batch
version, and the projected backtracking ascent that every maximizer in the
package uses. EI times PF with the sigma floor has one implementation, a value
half (ei_pf_factors; ei_pf is its values) and a gradient half (ei_pf_grad)
that continues from its factors; ei and pf are its factors, validated
wrappers. eic_many and eic_grad make one posterior pass over the objective
and the active constraints as one stack (PosteriorBundle.stacked), and agree
bit for bit. maximize_eic scores candidates through eic_many and takes the
accepted ones' gradients from the terms and factors that pass kept (eic_grad
fed them), so no row meets the kernel twice. The batch estimator draws its
fantasies through the two-step FantasyEngine, so the joint posterior at a
batch is sampled in one place. Constraints whose observations are all
identical and feasible are treated as certainly feasible and contribute a
factor of exactly one, which keeps the remaining computation byte-identical
to the unconstrained case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gp import GPModel, SIGMA_FLOOR, _nearest, _scipy_extension, take_rows
from .sampling import latin_hypercube

# scipy.special.ndtr itself, from its compiled module without the package.
ndtr = _scipy_extension("scipy.special._special_ufuncs").ndtr


class MissingIncumbentError(RuntimeError):
    """No feasible observation exists, so improvement is undefined."""


def _phi(z):
    # density underflows to 0 beyond |z|=40; clipping avoids overflow in z*z
    z = np.clip(z, -40.0, 40.0)
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def _Phi(z):
    return ndtr(z)


def _sd(variance):
    """The standard deviation of a variance that must be nonnegative."""
    v = np.asarray(variance, dtype=float)
    if np.any(v < 0):
        raise ValueError("variance must be nonnegative")
    return np.sqrt(v)


def ei(mean_improvement, variance):
    """Expected value of max(N(m, v), 0): the EI factor of ei_pf.

    Accepts scalars or arrays. At or below the sigma floor the value is
    max(m, 0); negative variance raises ValueError.
    """
    out = ei_pf((np.asarray(mean_improvement, dtype=float), _sd(variance)))
    return float(out) if out.ndim == 0 else out


def pf(mean, variance):
    """Probability that N(mean, variance) is nonpositive: ei_pf at a sure
    improvement of one. At or below the sigma floor it is 1{mean <= 0}."""
    out = ei_pf((1.0, 0.0), [(np.asarray(mean, dtype=float), _sd(variance))])
    return float(out) if out.ndim == 0 else out


def certainly_feasible(model: GPModel) -> bool:
    """All observed values identical and feasible: the constraint is inert."""
    y = model.train_targets
    return y.size > 0 and float(np.ptp(y)) == 0.0 and float(y[0]) <= 0.0


@dataclass(frozen=True)
class PosteriorBundle:
    """Objective and constraint posteriors over shared evaluated inputs.

    incumbent_value is the best observed objective among feasible points, or
    None when no observation is feasible. feasible_flags[i] is True when
    constraint i is certainly feasible; such constraint models are skipped by
    every acquisition computation.
    """

    objective: GPModel
    constraints: tuple[GPModel, ...]
    incumbent_value: float | None
    incumbent_point: np.ndarray | None
    feasible_flags: tuple[bool, ...]

    @classmethod
    def from_models(cls, objective: GPModel, constraints) -> "PosteriorBundle":
        constraints = tuple(constraints)
        feas = np.ones(objective.n_train, dtype=bool)
        for c in constraints:
            if not np.array_equal(c.train_inputs, objective.train_inputs):
                raise ValueError("every constraint model must share the objective's train_inputs")
            feas &= c.train_targets <= 0
        value, point = None, None
        if np.any(feas):
            idx = int(np.argmin(np.where(feas, objective.train_targets, np.inf)))
            value = float(objective.train_targets[idx])
            point = objective.train_inputs[idx].copy()
        flags = tuple(certainly_feasible(c) for c in constraints)
        return cls(objective, constraints, value, point, flags)

    @property
    def active_constraints(self) -> tuple[GPModel, ...]:
        return tuple(c for c, skip in zip(self.constraints, self.feasible_flags) if not skip)

    @cached_property
    def stacked(self) -> GPModel:
        """The objective and the active constraints on one model axis."""
        return GPModel.stack([self.objective, *self.active_constraints])

    def require_incumbent(self) -> float:
        if self.incumbent_value is None:
            raise MissingIncumbentError("no feasible observation in the bundle")
        return self.incumbent_value


def eic(bundle: PosteriorBundle, x: np.ndarray) -> float:
    """Expected improvement over the incumbent times probability of feasibility."""
    return float(eic_many(bundle, np.atleast_2d(x))[0])


def eic_many(bundle: PosteriorBundle, X: np.ndarray, with_terms: bool = False):
    """Vectorized eic over rows of X, from one posterior pass of the bundle's
    stacked models. with_terms also returns the pair (that pass's terms, the
    ei_pf factors) from which eic_grad continues."""
    best = bundle.require_incumbent()
    X = np.atleast_2d(X)
    mean, var, terms = bundle.stacked.posterior_many(X, with_terms=True)
    sd = np.sqrt(var)
    values, factors = ei_pf_factors((best - mean[0], sd[0]), list(zip(mean[1:], sd[1:])))
    return (values, (terms, factors)) if with_terms else values


def ei_pf(improvement, constraints=()):
    """EI(m, s^2) times the product of PF(mc, sc^2) over the constraints."""
    return ei_pf_factors(improvement, constraints)[0]


def ei_pf_factors(improvement, constraints=()):
    """The value half of ei_pf: (values, factors).

    improvement is the pair (m, s): the mean improvement and its posterior
    standard deviation. constraints holds one (mean, sd) pair per constraint,
    each array shaped like m. A factor whose sd is at or below SIGMA_FLOOR
    takes its zero-variance limit, max(m, 0) or 1{mean <= 0}. factors holds
    a dict of row arrays per factor, improvement first (value f, mask ok of
    an sd above the floor, what ei_pf_grad reads), for take_rows to cut.
    """
    m, s = improvement
    ok = s > SIGMA_FLOOR
    u = np.where(ok, m / np.where(ok, s, 1.0), 0.0)
    Phi, phi = _Phi(u), _phi(u)
    f = np.where(ok, m * Phi + s * phi, np.maximum(m, 0.0))
    factors = [dict(m=m, ok=ok, Phi=Phi, phi=phi, f=f)]
    for mc, sc in constraints:
        okc = sc > SIGMA_FLOOR
        scs = np.where(okc, sc, 1.0)
        uc = np.where(okc, -mc / scs, 0.0)
        factors.append(dict(m=mc, ok=okc, s=scs, u=uc, f=np.where(okc, _Phi(uc), mc <= 0)))
    return factors[0]["f"] * _product(factors, 0), factors


def _product(factors, skip):
    """The product, in order, of the values of every factor but factor skip."""
    out = np.ones(np.shape(factors[0]["m"]))
    for f in factors[:skip] + factors[skip + 1 :]:
        out = out * f["f"]
    return out


def ei_pf_grad(factors, derivs):
    """The gradient half of ei_pf at the rows of factors (ei_pf_factors):
    (values, gradient, degenerate). derivs holds the derivative pairs in the
    factors' order, each shaped like m plus the gradient's trailing axes. A
    factor at the floor has no sd term; degenerate masks the rows with one."""
    (dm, ds), *dcons = derivs
    first, ok = factors[0], factors[0]["ok"]
    tail = (...,) + (None,) * (np.ndim(dm) - np.ndim(first["m"]))  # rows against trailing axes
    terms = [
        np.where(ok, first["Phi"], first["m"] > 0)[tail] * dm
        + np.where(ok, first["phi"], 0.0)[tail] * ds
    ]
    for c, (dmc, dsc) in zip(factors[1:], dcons):
        mc, scs = c["m"], c["s"]
        dpf = _phi(c["u"])[tail] * (-dmc / scs[tail] + (mc / scs**2)[tail] * dsc)
        terms.append(np.where(c["ok"][tail], dpf, 0.0))
    rest = [_product(factors, k) for k in range(len(factors))]
    grad = sum((term * r[tail] for term, r in zip(terms, rest)), np.zeros(np.shape(dm)))
    return first["f"] * rest[0], grad, ~np.logical_and.reduce([f["ok"] for f in factors])


def eic_grad(bundle: PosteriorBundle, x: np.ndarray, terms=None):
    """Value and gradient of eic at a point (d,) or at rows (m, d), with a
    degenerate flag (a mask for rows) set when any posterior standard
    deviation sits below the floor or near a data point (those factors
    contribute zero): (values, gradient, degenerate). The values are the
    bits of eic_many. terms, the pair eic_many(..., with_terms=True) gives
    at these rows, skips its value pass: only the gradient halves run."""
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    post, factors = eic_many(bundle, X, with_terms=True)[1] if terms is None else terms
    _, _, dmean, dsd, degen = bundle.stacked.posterior_grads(X, post)
    vals, grad, at_floor = ei_pf_grad(factors, [(-dmean[0], dsd[0]), *zip(dmean[1:], dsd[1:])])
    degen = np.logical_or.reduce(degen) | at_floor
    return (vals, grad, degen) if x.ndim == 2 else (float(vals[0]), grad[0], bool(degen[0]))


def batch_eic_mc(
    bundle: PosteriorBundle, X: np.ndarray, n_samples: int = 512, seed=0
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """QMC estimate of the expected best feasible improvement of a batch.

    Draws n_samples fantasies of the joint state-0 posterior at X through a
    FantasyEngine (objective block first, then the active constraints in
    index order) and averages f0 - f1* = max_i (best - y_f_i)^+ 1{all
    constraints at x_i <= 0}. Returns (estimate, standard error from the
    sample variance). X may also be a stack of batches (E, q, d): every batch
    uses the same normals, drawn once from seed, and the results are two
    arrays of length E, each entry the same as a call on that batch alone.
    """
    from .lookahead import FantasyEngine  # lookahead imports this module

    bundle.require_incumbent()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    engine = FantasyEngine(bundle, X)
    f1 = engine.sample_f1(n_samples, seed)
    return mean_and_se((engine.f0 - f1).reshape(engine.E, n_samples), X.ndim == 2)


def mean_and_se(values: np.ndarray, single: bool):
    """Mean and standard error (inf from one sample) of each row of values,
    shape (E, count): two arrays of length E, or two floats when single."""
    count = values.shape[1]
    est = np.mean(values, axis=1)
    se = np.std(values, axis=1, ddof=1) / np.sqrt(count) if count > 1 else np.full(len(est), np.inf)
    return (float(est[0]), float(se[0])) if single else (est, se)


def _row_max_abs(G: np.ndarray) -> np.ndarray:
    """max_j |G[:, j]| of each row, one column at a time: the bits of
    np.max(np.abs(G), axis=1) without a reduction along a short last axis."""
    out = np.abs(G[:, 0])
    for j in range(1, G.shape[1]):
        np.maximum(out, np.abs(G[:, j]), out=out)
    return out


def projected_ascent(evaluate, P, bounds, first_move, steps):
    """Projected backtracking gradient ascent, all rows of P in lock step.

    evaluate(X, rows) runs one value pass at the rows of X, which are the
    rows `rows` of P, and returns (values, grad): grad(keep) gives the
    gradients at the rows X[keep] (keep a boolean mask over the rows of X)
    from the terms that pass already holds, so an accepted candidate is
    never evaluated a second time. The ascent calls grad once on the
    starting rows and once per step but the last on the accepted candidates.
    Steps are taken in box-width units: the first moves first_move of the box
    along the largest gradient component, an accepted step grows by 1.6 and a
    rejected one halves, and a row retires once its proposed move falls below
    1e-8 of the box. Both rules are free of the scale of the values, so the
    ascent reaches the same points whatever their units; a row whose gradient
    is zero, or too small to divide by, proposes no move and retires after
    its first iteration. Candidates are clipped to the box. A row's gradient
    changes only on an accepted move, so a row also retires once it could
    never move again: its clipped candidate is its own point (its step only
    shrinks), or its step is infinite and was rejected (halving leaves it
    infinite, and the candidate with it). A huge finite step, grown from a
    tiny first gradient, can still propose one rejected box corner for many
    steps (ROADMAP.md, item 7). Returns the final points and their values.

    The active rows' points, gradients, steps and values are kept compact,
    in rows order, and written back only as rows retire, so a step does no
    gathers or scatters over all of P; the arithmetic of every row is the
    same, bit for bit, as with indexed updates of the full arrays.
    """
    lo, wid = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    U = (P - lo) / wid
    vals, grad = evaluate(P, np.arange(len(P)))
    gU = grad(np.ones(len(P), dtype=bool)) * wid
    g_inf = _row_max_abs(gU)
    step = first_move / np.where(g_inf > np.finfo(float).tiny, g_inf, 1.0)
    rows = np.arange(len(P))
    aU, agU, astep, avals = U, gU, step, vals  # the active rows, compact
    for step_no in range(steps):
        if rows.size == 0:
            break
        cand = aU + astep[:, None] * agU
        np.clip(cand, 0.0, 1.0, out=cand)
        cand_vals, grad = evaluate(lo + cand * wid, rows)
        moved = cand[:, 0] != aU[:, 0]  # column by column, as _row_max_abs
        for j in range(1, cand.shape[1]):
            moved |= cand[:, j] != aU[:, j]
        hit = cand_vals > avals
        if hit.any():
            np.copyto(avals, cand_vals, where=hit)
            np.copyto(aU, cand, where=hit[:, None])
            if step_no == steps - 1:
                break  # the last step's gradients would never be read
            agU[hit] = grad(hit) * wid
        astep *= np.where(hit, 1.6, 0.5)
        keep = astep * _row_max_abs(agU) >= 1e-8
        keep &= moved & (hit | np.isfinite(astep))
        if not keep.all():
            done = ~keep
            U[rows[done]], vals[rows[done]] = aU[done], avals[done]
            kept = np.flatnonzero(keep)
            active = (rows, aU, agU, astep, avals)
            rows, aU, agU, astep, avals = (a.take(kept, axis=0) for a in active)
    U[rows], vals[rows] = aU, avals
    return lo + U * wid, vals


def _eic_pass(bundle: PosteriorBundle, X: np.ndarray):
    """The evaluate of maximize_eic's ascent (projected_ascent): eic at rows
    of X through eic_many, and grad(keep), the eic gradient at X[keep]
    through eic_grad fed the posterior terms and ei_pf factors of this pass."""
    values, (terms, factors) = eic_many(bundle, X, with_terms=True)

    def grad(keep):
        kept = take_rows(terms, keep, axis=1), [take_rows(f, keep) for f in factors]
        return eic_grad(bundle, X[keep], kept)[1]

    return values, grad


def maximize_eic(bundle: PosteriorBundle, bounds: np.ndarray, seed: int) -> np.ndarray:
    """Multistart ascent of the analytic acquisition; incumbent joins the starts."""
    starts = latin_hypercube(20, bounds, np.random.SeedSequence((seed, 19)))
    if bundle.incumbent_point is not None:
        starts = np.vstack([starts, bundle.incumbent_point])
    X, vals = projected_ascent(
        lambda X, rows: _eic_pass(bundle, X), starts, bounds, first_move=0.15, steps=60
    )
    return X[int(np.argmax(vals))]


def greedy_batch_eic(bundle: PosteriorBundle, bounds: np.ndarray, q: int, seed: int) -> np.ndarray:
    """Sequential greedy batch built on the MC batch acquisition.

    Each slot scores the chosen points plus one candidate, for all of 256
    seeded Latin hypercube candidates at once, in one stacked batch_eic_mc
    call on the slot's seed, so every candidate sees the same normals. A
    candidate within 1e-6 of a chosen point is skipped; the first maximum
    wins.
    """
    cand = latin_hypercube(256, bounds, np.random.SeedSequence((seed, 29)))
    chosen = np.zeros((0, cand.shape[1]))
    for slot in range(q):
        slot_seed = int(np.random.SeedSequence((seed, 31, slot)).generate_state(1)[0])
        free = cand[_nearest(cand, chosen) >= 1e-6]
        stack = np.concatenate(
            [np.broadcast_to(chosen, (len(free),) + chosen.shape), free[:, None, :]], axis=1
        )
        values, _ = batch_eic_mc(bundle, stack, n_samples=256, seed=slot_seed)
        chosen = np.vstack([chosen, free[np.argmax(values)]])
    return chosen
