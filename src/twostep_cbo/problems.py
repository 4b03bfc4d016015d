"""Synthetic constrained test problems and ground-truth oracles.

Three box-constrained minimization problems with black-box inequality
constraints g(x) <= 0, plus oracles for the true constrained optimum and the
domain maximum of the objective. Oracles scan a dense grid (chunked along the
first axis in four dimensions) and polish the leading feasible cells with
SLSQP.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.optimize import minimize

FEASIBILITY_TOL = 1e-9


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
    return 0.5 * np.sum(X**4 - 16.0 * X**2 + 5.0 * X, axis=1)


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


def _grid_scan(problem: ConstrainedProblem, resolution: int, keep: int, feasible_only=True):
    """The `keep` lowest objective values on a regular grid and their cells,
    best first: (values, points).

    With feasible_only, infeasible cells are dropped before the objective is
    evaluated. Grids of more than two dimensions are scanned one slice along
    the first axis at a time to bound memory.
    """
    axes = [np.linspace(lo, hi, resolution) for lo, hi in problem.bounds]
    if problem.dim <= 2:
        mesh = np.meshgrid(*axes, indexing="ij")
        chunks = [np.stack([m.ravel() for m in mesh], axis=1)]
    else:
        rest = np.meshgrid(*axes[1:], indexing="ij")
        rest = np.stack([m.ravel() for m in rest], axis=1)
        chunks = (np.column_stack([np.full(rest.shape[0], x0), rest]) for x0 in axes[0])
    vals, pts = np.empty(0), np.empty((0, problem.dim))
    for X in chunks:
        if feasible_only:
            X = X[np.all(problem.constraints(X) <= 0.0, axis=1)]
        vals = np.concatenate([vals, problem.objective(X)])
        pts = np.vstack([pts, X])
        if vals.size > keep:
            top = np.argpartition(vals, keep - 1)[:keep]
            vals, pts = vals[top], pts[top]
    order = np.argsort(vals, kind="stable")
    return vals[order], pts[order]


def constrained_optimum_oracle(
    problem: ConstrainedProblem, resolution: int = 800, n_polish: int = 20, seed: int = 0
) -> OracleResult:
    """True constrained minimum via dense grid scan plus SLSQP polishing.

    Polish starts are the best feasible grid cells plus seeded perturbations
    of them. A polished point is accepted only if it stays feasible within
    tolerance; the grid value is a fallback, so the result never regresses.
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
    cons = [
        {"type": "ineq", "fun": lambda x, m=m: -problem.constraints(np.atleast_2d(x))[0, m]}
        for m in range(problem.n_constraints)
    ]
    val, pt = float(grid_vals[0]), starts[0].copy()
    for s in [*starts, *extra]:
        res = minimize(
            lambda x: float(problem.objective(np.atleast_2d(x))[0]),
            s,
            method="SLSQP",
            bounds=problem.bounds,
            constraints=cons,
            options={"maxiter": 200, "ftol": 1e-12},
        )
        if not np.all(np.isfinite(res.x)):
            continue
        g = problem.constraints(np.atleast_2d(res.x))[0]
        if np.max(g) <= FEASIBILITY_TOL and res.fun < val:
            val, pt = float(res.fun), res.x.copy()
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
    """Maximum of the objective over the box, ignoring constraints."""
    negated = replace(problem, objective=lambda X: -problem.objective(X))
    grid_vals, starts = _grid_scan(negated, resolution, max(n_polish, 1), feasible_only=False)
    val, pt = float(-grid_vals[0]), starts[0].copy()
    for s in starts:
        res = minimize(
            lambda x: -float(problem.objective(np.atleast_2d(x))[0]),
            s,
            method="L-BFGS-B",
            bounds=problem.bounds,
        )
        if np.all(np.isfinite(res.x)) and -res.fun > val:
            val, pt = float(-res.fun), res.x.copy()
    provenance = {
        "problem": problem.name,
        "kind": "domain_max",
        "resolution": resolution,
        "n_polish": n_polish,
    }
    return OracleResult(val, pt, provenance)
