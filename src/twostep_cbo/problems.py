"""Synthetic constrained test problems and ground-truth oracles.

Three box-constrained minimization problems with black-box inequality
constraints g(x) <= 0, plus oracles for the true constrained optimum and the
domain maximum of the objective. Oracles scan a dense regular grid in chunks of
a bounded number of rows: each chunk gets the objective first, then, once the
scan holds enough feasible cells, a threshold at the current k-th best value,
and only the cells below it go to the constraints. The kept cells are then
polished once per basin: each joins the basin of its best-ranked better
neighbour among the kept cells (every grid index within one step), so the
local minima of the kept set head the basins, and a start is skipped once its
basin has an accepted end point. Finite-difference gradients of the polish
evaluate a point and its forward steps in one call.

The polishes are scipy's SLSQP (minimize) and L-BFGS-B (lbfgsb) loops over
its compiled routines, from _scipy_routines.

Basins are only as fine as the grid: a basin with no kept cell that is a
local minimum (narrower than a grid step, say) joins a neighbouring basin and
is not polished from a neighbouring cell, so a grid that does not resolve the
deepest basin can miss it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._scipy_routines import lbfgsb, slsqp as minimize

FEASIBILITY_TOL = 1e-9
# SLSQP's default absolute finite-difference step
_FD_STEP = float(np.sqrt(np.finfo(float).eps))
# rows per grid-scan chunk, few enough that a chunk's temporaries stay in cache
_SCAN_ROWS = 1 << 12


@dataclass(frozen=True)
class ConstrainedProblem:
    """A minimization problem min f(x) s.t. g_m(x) <= 0 over a box."""

    name: str
    bounds: np.ndarray
    objective: Callable[[np.ndarray], np.ndarray]
    constraints: Callable[[np.ndarray], np.ndarray]
    n_constraints: int

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.bounds[:, 1] - self.bounds[:, 0]

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective value and constraint vector at a single point."""
        X = np.atleast_2d(np.asarray(x, dtype=float))
        return float(self.objective(X)[0]), self.constraints(X)[0]


def _p1_objective(X):
    return np.cos(2.0 * X[:, 0]) * np.cos(X[:, 1]) + np.sin(X[:, 0])


def _p1_constraints(X):
    g = np.cos(X[:, 0]) * np.cos(X[:, 1]) - np.sin(X[:, 0]) * np.sin(X[:, 1]) + 0.5
    return g[:, None]


def _p2_objective(X):
    return X[:, 0] + X[:, 1]


def _p2_constraints(X):
    g1 = 0.5 * np.sin(2.0 * np.pi * (2.0 * X[:, 1] - X[:, 0] ** 2)) - X[:, 0] - 2.0 * X[:, 1] + 1.5
    g2 = X[:, 0] ** 2 + X[:, 1] ** 2 - 1.5
    return np.stack([g1, g2], axis=1)


def _p3_objective(X):
    # S * S rather than X**4, which numpy computes with libm pow
    S = X * X
    return 0.5 * np.sum(S * S - 16.0 * S + 5.0 * X, axis=1)


def _p3_constraints(X):
    g = -0.5 + np.sin(X[:, 0] + 2.0 * X[:, 1]) - np.cos(X[:, 2]) * np.cos(2.0 * X[:, 3])
    return g[:, None]


def p1() -> ConstrainedProblem:
    """Multimodal 2-d objective, one trigonometric constraint, box [0, 6]^2."""
    return ConstrainedProblem(
        "p1", np.array([[0.0, 6.0], [0.0, 6.0]]), _p1_objective, _p1_constraints, 1
    )


def p2() -> ConstrainedProblem:
    """Linear 2-d objective, two constraints, unit square."""
    return ConstrainedProblem(
        "p2", np.array([[0.0, 1.0], [0.0, 1.0]]), _p2_objective, _p2_constraints, 2
    )


def p3() -> ConstrainedProblem:
    """Quartic 4-d objective, one constraint, box [-5, 5]^4."""
    return ConstrainedProblem(
        "p3",
        np.array([[-5.0, 5.0]] * 4),
        _p3_objective,
        _p3_constraints,
        1,
    )


_REGISTRY = {"p1": p1, "p2": p2, "p3": p3}


def get_problem(name: str) -> ConstrainedProblem:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; available: {sorted(_REGISTRY)}") from None


def problem_names() -> list[str]:
    return sorted(_REGISTRY)


@dataclass(frozen=True)
class OracleResult:
    value: float
    point: np.ndarray
    provenance: dict


def _grid_chunks(bounds: np.ndarray, resolution: int):
    """The cells of a regular grid in C order, in chunks of at most
    `_SCAN_ROWS` rows, each a view of one reused column-major buffer.

    The leading d - 2 axes are iterated one value at a time; the slab of the
    last two axes (of the only axis when d = 1) is split by the row cap.
    """
    axes = [np.linspace(lo, hi, resolution) for lo, hi in bounds]
    lead = max(len(axes) - 2, 0)
    slab = np.stack([m.ravel() for m in np.meshgrid(*axes[lead:], indexing="ij")], axis=1)
    buf = np.empty((min(slab.shape[0], _SCAN_ROWS), len(axes)), order="F")
    for head in itertools.product(*axes[:lead]):
        buf[:, :lead] = head
        for a in range(0, slab.shape[0], _SCAN_ROWS):
            X = buf[: min(_SCAN_ROWS, slab.shape[0] - a)]
            X[:, lead:] = slab[a : a + _SCAN_ROWS]
            yield X


def _grid_scan(problem: ConstrainedProblem, resolution: int, keep: int, feasible_only=True):
    """The `keep` lowest objective values on a regular grid and their cells,
    best first, ties in grid order: (values, points).

    Each chunk of `_grid_chunks` gets the objective first. Once `keep`
    feasible cells are held, the cells above the current k-th best value are
    dropped, and only the rest go to the constraints (with feasible_only).
    """
    vals, pts = np.empty(0), np.empty((0, problem.dim))
    for X in _grid_chunks(problem.bounds, resolution):
        f = problem.objective(X)
        if vals.size >= keep:
            hit = f <= vals.max()
            if not hit.any():
                continue
            X, f = X[hit], f[hit]
        if feasible_only:
            ok = np.all(problem.constraints(X) <= 0.0, axis=1)
            X, f = X[ok], f[ok]
        vals = np.concatenate([vals, f])
        pts = np.concatenate([pts, X])
        if vals.size > keep:
            # the stable sort keeps ties in grid order: the cells held come first
            top = np.argsort(vals, kind="stable")[:keep]
            vals, pts = vals[top], pts[top]
    order = np.argsort(vals, kind="stable")
    return vals[order], pts[order]


def _basins(cells: np.ndarray) -> np.ndarray:
    """Basin label of each grid cell, given as integer grid indices (n, d)
    ranked best first: a cell joins the basin of its first-ranked earlier
    neighbour (every index within one step), and a cell with none heads a
    basin labelled by its rank."""
    label = np.arange(len(cells))
    for i in range(1, len(cells)):
        near = np.flatnonzero(np.max(np.abs(cells[:i] - cells[i]), axis=1) <= 1)
        if near.size:
            label[i] = label[near[0]]
    return label


def _polish_by_basin(problem, resolution, grid_vals, cells, extra, polish):
    """The lowest of the best grid cell and the accepted end points (value,
    point) or None that polish returns, from the `_grid_scan` cells, best
    first, then `extra`, jittered copies of the leading cells in their
    cells' basins; a start is skipped once its basin has an end point."""
    lo, wid = problem.bounds[:, 0], problem.widths
    index = np.rint((cells - lo) / np.where(wid > 0, wid, 1.0) * (resolution - 1))
    labels = _basins(index.astype(np.int64))
    val, pt = float(grid_vals[0]), cells[0].copy()
    done = set()
    for s, b in zip([*cells, *extra], [*labels, *labels[: len(extra)]]):
        if b in done:
            continue
        end = polish(s)
        if end is None:
            continue
        done.add(b)
        if end[0] < val:
            val, pt = end
    return val, pt


def _fd_jac(fun: Callable[[np.ndarray], np.ndarray], upper: np.ndarray):
    """A `jac` for the polishes: the forward-difference derivative of the
    row function `fun` ((n, d) -> (n,) or (n, m)), from one call on x and its
    neighbours x + dx_i e_i.

    SLSQP's rule: step sqrt(eps), taken backwards where x + h passes the upper
    bound, and dx = (x + h) - x. Its relative-step fallback where x + h == x
    (|x| >= 2**27) is left out; no problem's box comes near that.
    """

    def jac(x):
        h = np.where(x + _FD_STEP > upper, -_FD_STEP, _FD_STEP)
        F = fun(np.vstack([x, x + np.diag(h)]))
        return (F[1:] - F[0]).T / ((x + h) - x)

    return jac


def constrained_optimum_oracle(
    problem: ConstrainedProblem, resolution: int = 800, n_polish: int = 20, seed: int = 0
) -> OracleResult:
    """True constrained minimum via dense grid scan plus SLSQP polishing.

    The starts are the `n_polish` best feasible grid cells, best first, then
    seeded perturbations of the leading `n_polish // 2`, each in its cell's
    basin. A start is polished only while its basin (module docstring) has
    no finite end point feasible within tolerance; a basin the grid does not
    resolve is not polished. The grid value is a fallback, so the result
    never regresses. The polish is minimize, SLSQP over the compiled routine
    (test_slsqp_driver_matches_scipy_minimize_bit_for_bit).
    """
    grid_vals, starts = _grid_scan(problem, resolution, max(n_polish, 1))
    if grid_vals.size == 0:
        raise RuntimeError(f"oracle found no feasible point for {problem.name}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 131)))
    jitter = 0.01 * problem.widths
    extra = [
        np.clip(s + rng.normal(scale=jitter), problem.bounds[:, 0], problem.bounds[:, 1])
        for s in starts[: max(n_polish // 2, 1)]
    ]
    upper = problem.bounds[:, 1]
    fun = lambda x: float(problem.objective(np.atleast_2d(x))[0])
    jac = _fd_jac(problem.objective, upper)
    cons = lambda x: -problem.constraints(np.atleast_2d(x))[0]
    cons_jac = _fd_jac(lambda X: -problem.constraints(X), upper)

    def polish(s):
        x, fx = minimize(fun, s, jac, problem.bounds, cons, cons_jac)
        if not np.all(np.isfinite(x)):
            return None
        g = problem.constraints(np.atleast_2d(x))[0]
        return (fx, x) if np.max(g) <= FEASIBILITY_TOL else None

    val, pt = _polish_by_basin(problem, resolution, grid_vals, starts, extra, polish)
    provenance = {
        "problem": problem.name,
        "kind": "constrained_optimum",
        "resolution": resolution,
        "n_polish": n_polish,
        "seed": seed,
    }
    return OracleResult(val, pt, provenance)


def domain_max_oracle(
    problem: ConstrainedProblem, resolution: int = 800, n_polish: int = 10
) -> OracleResult:
    """Maximum of the objective over the box, ignoring constraints.

    The `n_polish` best grid cells, best first, are polished with L-BFGS-B
    (lbfgsb; test_domain_max_polish_matches_scipy_minimize_bit_for_bit),
    each only while its basin (module docstring) has no finite end point; a
    basin the grid does not resolve is not polished. The grid value is a
    fallback.
    """
    negated = replace(problem, objective=lambda X: -problem.objective(X))
    grid_vals, starts = _grid_scan(negated, resolution, max(n_polish, 1), feasible_only=False)
    lo, hi = problem.bounds.T.copy()  # contiguous, as setulb requires
    fun = lambda x: float(negated.objective(np.atleast_2d(x))[0])
    jac = _fd_jac(negated.objective, hi)

    def polish(s):
        x = lbfgsb(lambda x: (fun(x), jac(x)), s, lo, hi)
        return (fun(x), x) if np.all(np.isfinite(x)) else None

    neg_val, pt = _polish_by_basin(problem, resolution, grid_vals, starts, [], polish)
    provenance = {
        "problem": problem.name,
        "kind": "domain_max",
        "resolution": resolution,
        "n_polish": n_polish,
    }
    return OracleResult(-neg_val, pt, provenance)
