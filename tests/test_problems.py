"""Tests for the synthetic problems and their brute-force oracles."""

import math

import numpy as np
import pytest
from scipy.optimize import approx_fprime, minimize

from twostep_cbo import problems
from twostep_cbo.gp import _lbfgsb
from twostep_cbo.problems import (
    ConstrainedProblem,
    constrained_optimum_oracle,
    domain_max_oracle,
    get_problem,
    p1,
    p2,
    p3,
    problem_names,
)
from twostep_cbo.sampling import halton_design


def test_registry():
    assert problem_names() == ["p1", "p2", "p3"]
    assert get_problem("p1").name == "p1"
    with pytest.raises(KeyError, match="unknown problem"):
        get_problem("p99")


def test_p1_pointwise_values():
    prob = p1()
    f, g = prob.evaluate([0.0, 0.0])
    assert f == pytest.approx(1.0)
    assert g[0] == pytest.approx(1.5)

    f, g = prob.evaluate([math.pi / 2, 0.0])
    assert f == pytest.approx(0.0, abs=1e-12)
    assert g[0] == pytest.approx(0.5)

    assert prob.dim == 2
    assert prob.n_constraints == 1
    assert np.allclose(prob.bounds, [[0.0, 6.0], [0.0, 6.0]])


def test_p2_pointwise_values():
    prob = p2()
    f, g = prob.evaluate([0.0, 0.0])
    assert f == pytest.approx(0.0)
    assert g[0] == pytest.approx(1.5)
    assert g[1] == pytest.approx(-1.5)

    _, g = prob.evaluate([1.0, 1.0])
    assert g[1] == pytest.approx(0.5)
    assert prob.n_constraints == 2


def test_p3_pointwise_values():
    prob = p3()
    f, g = prob.evaluate([0.0, 0.0, 0.0, 0.0])
    assert f == pytest.approx(0.0)
    assert g[0] == pytest.approx(-1.5)
    assert prob.dim == 4


def test_p3_separable_minimum_is_feasible():
    # the objective is a sum of identical quartics, so the unconstrained
    # minimizer comes from four copies of the same 1-d problem
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda t: 0.5 * (t**4 - 16.0 * t**2 + 5.0 * t), bounds=(-5, 5), method="bounded"
    )
    assert res.x == pytest.approx(-2.9035, abs=1e-3)
    prob = p3()
    x = np.full((1, 4), res.x)
    assert prob.objective(x)[0] == pytest.approx(-156.6647, abs=1e-3)
    assert prob.constraints(x)[0, 0] < 0.0


def test_p3_objective_matches_textbook_quartic():
    rng = np.random.default_rng(np.random.SeedSequence((11, 1031)))
    X = -5.0 + 10.0 * rng.random((1000, 4))
    textbook = 0.5 * np.sum(X**4 - 16.0 * X**2 + 5.0 * X, axis=1)
    np.testing.assert_allclose(p3().objective(X), textbook, rtol=1e-12, atol=0.0)
    x = np.full((1, 4), -2.903534)
    assert p3().objective(x)[0] == pytest.approx(-156.664663, abs=1e-5)


def _independent_p1_f(x1, x2):
    return math.cos(2.0 * x1) * math.cos(x2) + math.sin(x1)


def _independent_p1_g(x1, x2):
    return math.cos(x1) * math.cos(x2) - math.sin(x1) * math.sin(x2) + 0.5


def _independent_p2_f(x1, x2):
    return x1 + x2


def _independent_p2_g(x1, x2):
    g1 = 0.5 * math.sin(2.0 * math.pi * (2.0 * x2 - x1 * x1)) - x1 - 2.0 * x2 + 1.5
    g2 = x1 * x1 + x2 * x2 - 1.5
    return g1, g2


def _independent_p3_f(x):
    return 0.5 * sum(t**4 - 16.0 * t * t + 5.0 * t for t in x)


def _independent_p3_g(x):
    return -0.5 + math.sin(x[0] + 2.0 * x[1]) - math.cos(x[2]) * math.cos(2.0 * x[3])


def test_formula_cross_check():
    """1000 random points per problem against per-point reimplementations."""
    rng = np.random.default_rng(np.random.SeedSequence((7, 1031)))
    for prob in (p1(), p2(), p3()):
        lo, hi = prob.bounds[:, 0], prob.bounds[:, 1]
        X = lo + rng.random((1000, prob.dim)) * (hi - lo)
        f = prob.objective(X)
        G = prob.constraints(X)
        for i, x in enumerate(X):
            if prob.name == "p1":
                fe, ge = _independent_p1_f(*x), (_independent_p1_g(*x),)
            elif prob.name == "p2":
                fe, ge = _independent_p2_f(*x), _independent_p2_g(*x)
            else:
                fe, ge = _independent_p3_f(x), (_independent_p3_g(x),)
            np.testing.assert_allclose(f[i], fe, rtol=1e-13, atol=1e-12)
            np.testing.assert_allclose(G[i], ge, rtol=1e-13, atol=1e-12)


def _linear_problem(constraint):
    return ConstrainedProblem(
        "toy",
        np.array([[0.0, 1.0]]),
        lambda X: X[:, 0],
        constraint,
        1,
    )


def _brute_force_scan(problem, resolution, keep, feasible_only=True):
    """Every cell at once, infeasible ones masked, the rest stable-sorted."""
    axes = [np.linspace(lo, hi, resolution) for lo, hi in problem.bounds]
    X = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    f = problem.objective(X)
    if feasible_only:
        ok = np.all(problem.constraints(X) <= 0.0, axis=1)
        X, f = X[ok], f[ok]
    order = np.argsort(f, kind="stable")[:keep]
    return f[order], X[order]


def _steps_problem():
    # a 1-d objective with runs of equal values, feasible on x >= 0.3 only
    return ConstrainedProblem(
        "steps",
        np.array([[0.0, 1.0]]),
        lambda X: np.floor(10.0 * X[:, 0]),
        lambda X: (0.3 - X[:, 0])[:, None],
        1,
    )


@pytest.mark.parametrize("scan_rows", [None, 37])
@pytest.mark.parametrize(
    "problem, resolution, keep, feasible_only",
    [
        (p1(), 101, 50, True),
        (p2(), 101, 50, True),
        (p3(), 14, 200, True),
        (p3(), 14, 200, False),
        (p2(), 101, 30, False),
        (_steps_problem(), 1001, 30, True),
        (_steps_problem(), 11, 30, True),
        (p1(), 5, 100, True),
        (_linear_problem(lambda X: np.full((X.shape[0], 1), 1.0)), 101, 5, True),
    ],
    ids=[
        "p1",
        "p2",
        "p3",
        "p3-all",
        "p2-all",
        "steps-ties",
        "steps-keep>feasible",
        "p1-keep>feasible",
        "infeasible",
    ],
)
def test_grid_scan_matches_brute_force(
    problem, resolution, keep, feasible_only, scan_rows, monkeypatch
):
    # the scan keeps ties in grid order, so even the cells tied at the k-th
    # value match the stable sort; 37 rows split each slab into many chunks
    if scan_rows is not None:
        monkeypatch.setattr(problems, "_SCAN_ROWS", scan_rows)
    vals, pts = problems._grid_scan(problem, resolution, keep, feasible_only)
    ref_vals, ref_pts = _brute_force_scan(problem, resolution, keep, feasible_only)
    assert vals.size == min(keep, ref_vals.size)
    np.testing.assert_array_equal(vals, ref_vals)
    np.testing.assert_array_equal(pts, ref_pts)


def _fd_cases():
    rng = np.random.default_rng(np.random.SeedSequence((12, 1031)))
    for prob in (p1(), p2(), p3()):
        lo, hi = prob.bounds[:, 0], prob.bounds[:, 1]
        yield prob, lo + (0.05 + 0.9 * rng.random((10, prob.dim))) * (hi - lo)


def test_fd_jac_matches_approx_fprime_inside_the_box():
    step = np.sqrt(np.finfo(float).eps)
    for prob, X in _fd_cases():
        upper = prob.bounds[:, 1]
        jac_f = problems._fd_jac(prob.objective, upper)
        jac_g = problems._fd_jac(prob.constraints, upper)
        for x in X:
            f = lambda x: float(prob.objective(np.atleast_2d(x))[0])
            g = lambda x: prob.constraints(np.atleast_2d(x))[0]
            np.testing.assert_array_equal(jac_f(x), approx_fprime(x, f, step))
            ref_g = approx_fprime(x, g, step).reshape(prob.n_constraints, prob.dim)
            np.testing.assert_array_equal(jac_g(x), ref_g)


def test_fd_jac_steps_back_at_the_upper_bound():
    for prob, X in _fd_cases():
        lo, hi = prob.bounds[:, 0], prob.bounds[:, 1]
        seen = []

        def objective(rows):
            seen.append(rows.copy())
            return prob.objective(rows)

        jac = problems._fd_jac(objective, hi)
        near = np.arange(prob.dim) % 2 == 0
        for x in X:
            x = np.where(near, hi - 1e-9 * np.arange(prob.dim) / prob.dim, x)
            seen.clear()
            jac(x)
            (rows,) = seen
            assert rows.shape == (prob.dim + 1, prob.dim)
            np.testing.assert_array_equal(rows[0], x)
            dx = np.diag(rows[1:]) - x
            assert np.all(dx[near] < 0.0) and np.all(dx[~near] > 0.0)
            assert np.all((rows >= lo) & (rows <= hi))


@pytest.mark.parametrize("name", ["p1", "p2"])
def test_fd_jac_slsqp_follows_scipy_differences(name):
    prob = get_problem(name)
    _, starts = problems._grid_scan(prob, 200, 10)
    upper = prob.bounds[:, 1]
    f = lambda x: float(prob.objective(np.atleast_2d(x))[0])
    scipy_cons = [
        {"type": "ineq", "fun": lambda x, m=m: -prob.constraints(np.atleast_2d(x))[0, m]}
        for m in range(prob.n_constraints)
    ]
    one_call_cons = {
        "type": "ineq",
        "fun": lambda x: -prob.constraints(np.atleast_2d(x))[0],
        "jac": problems._fd_jac(lambda X: -prob.constraints(X), upper),
    }
    options = {"maxiter": 200, "ftol": 1e-12}
    for s in starts:
        ref = minimize(
            f, s, method="SLSQP", bounds=prob.bounds, constraints=scipy_cons, options=options
        )
        res = minimize(
            f,
            s,
            jac=problems._fd_jac(prob.objective, upper),
            method="SLSQP",
            bounds=prob.bounds,
            constraints=one_call_cons,
            options=options,
        )
        np.testing.assert_array_equal(res.x, ref.x)


def _polish_starts(prob):
    """Starts for the polish drivers: the best feasible grid cells, points that
    break a constraint, points on the box's faces and corners, and one past
    the upper corner, which the drivers clip into the box."""
    lo, hi = prob.bounds.T
    _, cells = problems._grid_scan(prob, 30, 3)
    X = halton_design(64, prob.bounds)
    infeasible = X[np.max(prob.constraints(X), axis=1) > 0.0][:3]
    assert len(infeasible) == 3
    odd = np.arange(prob.dim) % 2 == 1
    on_bound = [np.where(odd, lo, hi), np.where(odd, hi, lo), lo, np.where(odd, X[5], hi)]
    return [*cells, *infeasible, *on_bound, hi + 1.0]


def _logged(fun, points):
    """fun, recording each point it is called at unless it repeats the last."""

    def logged(x):
        if not points or not np.array_equal(x, points[-1]):
            points.append(x.copy())
        return fun(x)

    return logged


def _same_points(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


@pytest.mark.filterwarnings("ignore:Initial guess is not within the specified bounds")
@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
def test_slsqp_driver_matches_scipy_minimize_bit_for_bit(name):
    """problems.minimize runs the loop of scipy's SLSQP: on the oracle's own
    objective, gradient and constraints it ends at minimize's point and value
    bits, and evaluates the objective at the same points in the same order."""
    prob = get_problem(name)
    upper = prob.bounds[:, 1]
    f = lambda x: float(prob.objective(np.atleast_2d(x))[0])
    jac = problems._fd_jac(prob.objective, upper)
    cons = lambda x: -prob.constraints(np.atleast_2d(x))[0]
    cons_jac = problems._fd_jac(lambda X: -prob.constraints(X), upper)
    for s in _polish_starts(prob):
        driver, scipy_points = [], []
        x, fx = problems.minimize(_logged(f, driver), s, jac, prob.bounds, cons, cons_jac)
        res = minimize(
            _logged(f, scipy_points),
            s,
            jac=jac,
            method="SLSQP",
            bounds=prob.bounds,
            constraints={"type": "ineq", "fun": cons, "jac": cons_jac},
            options={"maxiter": 200, "ftol": 1e-12},
        )
        np.testing.assert_array_equal(x, res.x)
        assert fx == res.fun
        _same_points(driver, scipy_points)


@pytest.mark.filterwarnings("ignore:Initial guess is not within the specified bounds")
@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
def test_domain_max_polish_matches_scipy_minimize_bit_for_bit(name):
    """domain_max_oracle's polish, gp._lbfgsb fed the value and the _fd_jac
    gradient of the negated objective, ends at the point of minimize's
    L-BFGS-B, its value there is minimize's, and it evaluates the same
    points in the same order."""
    prob = get_problem(name)
    lo, hi = prob.bounds.T.copy()
    f = lambda x: -float(prob.objective(np.atleast_2d(x))[0])
    jac = problems._fd_jac(lambda X: -prob.objective(X), hi)
    for s in _polish_starts(prob):
        driver, scipy_points = [], []
        logged = _logged(f, driver)
        x = _lbfgsb(lambda x: (logged(x), jac(x)), s, lo, hi)
        res = minimize(
            _logged(f, scipy_points), s, jac=jac, method="L-BFGS-B", bounds=prob.bounds
        )
        np.testing.assert_array_equal(x, res.x)
        assert f(x) == res.fun
        _same_points(driver, scipy_points)


def test_optimum_oracle_unconstrained_linear():
    prob = _linear_problem(lambda X: np.full((X.shape[0], 1), -1.0))
    res = constrained_optimum_oracle(prob, resolution=501, n_polish=5)
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.point[0] == pytest.approx(0.0, abs=1e-9)


def test_optimum_oracle_boundary_optimum():
    # optimum sits exactly on the constraint boundary g(x) = 0.5 - x
    prob = _linear_problem(lambda X: (0.5 - X[:, 0])[:, None])
    res = constrained_optimum_oracle(prob, resolution=501, n_polish=5)
    assert res.value == pytest.approx(0.5, abs=1e-7)
    assert res.point[0] == pytest.approx(0.5, abs=1e-7)


def test_optimum_oracle_infeasible_errors():
    prob = _linear_problem(lambda X: np.full((X.shape[0], 1), 1.0))
    with pytest.raises(RuntimeError, match="no feasible point"):
        constrained_optimum_oracle(prob, resolution=101, n_polish=2)


def test_p1_optimum_value_and_stability():
    coarse = constrained_optimum_oracle(get_problem("p1"), resolution=1000, n_polish=50)
    fine = constrained_optimum_oracle(get_problem("p1"), resolution=2000, n_polish=50)
    assert fine.value == pytest.approx(-1.888751, abs=1e-5)
    assert abs(fine.value - coarse.value) <= 1e-4
    g = get_problem("p1").constraints(np.atleast_2d(fine.point))[0]
    assert np.max(g) <= 1e-9


def test_p2_optimum_value_and_stability():
    coarse = constrained_optimum_oracle(get_problem("p2"), resolution=1000, n_polish=50)
    fine = constrained_optimum_oracle(get_problem("p2"), resolution=2000, n_polish=50)
    assert fine.value == pytest.approx(0.599788, abs=1e-5)
    assert abs(fine.value - coarse.value) <= 1e-4
    g = get_problem("p2").constraints(np.atleast_2d(fine.point))[0]
    assert np.max(g) <= 1e-9


def test_p3_optimum_value_and_stability():
    coarse = constrained_optimum_oracle(get_problem("p3"), resolution=60, n_polish=200)
    fine = constrained_optimum_oracle(get_problem("p3"), resolution=120, n_polish=200)
    assert fine.value == pytest.approx(-156.664663, abs=1e-3)
    assert abs(fine.value - coarse.value) <= 1e-2
    g = get_problem("p3").constraints(np.atleast_2d(fine.point))[0]
    assert np.max(g) <= 1e-9


def test_domain_max_oracle_linear():
    prob = _linear_problem(lambda X: np.full((X.shape[0], 1), -1.0))
    res = domain_max_oracle(prob, resolution=501)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_domain_max_oracle_sine():
    prob = ConstrainedProblem(
        "sine",
        np.array([[0.0, 6.0]]),
        lambda X: np.sin(X[:, 0]),
        lambda X: np.full((X.shape[0], 1), -1.0),
        1,
    )
    res = domain_max_oracle(prob, resolution=501)
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert res.point[0] == pytest.approx(math.pi / 2, abs=1e-4)


def test_p1_domain_max_value_and_stability():
    coarse = domain_max_oracle(get_problem("p1"), resolution=1000)
    fine = domain_max_oracle(get_problem("p1"), resolution=2000)
    assert fine.value == pytest.approx(2.0, abs=1e-9)
    assert abs(fine.value - coarse.value) <= 1e-4


def test_oracle_provenance_recorded():
    res = constrained_optimum_oracle(get_problem("p1"), resolution=300, n_polish=5, seed=3)
    assert res.provenance["problem"] == "p1"
    assert res.provenance["resolution"] == 300
    assert res.provenance["n_polish"] == 5
    assert res.provenance["seed"] == 3


def test_basins_of_hand_made_cells():
    # ranked best first: two local minima, (0, 0) and (5, 5), head two basins;
    # (3, 3) touches (2, 2) and (4, 4) and joins the better-ranked (4, 4)
    cells = np.array([[0, 0], [5, 5], [1, 1], [4, 4], [2, 2], [3, 3], [9, 0]])
    np.testing.assert_array_equal(problems._basins(cells), [0, 1, 0, 1, 0, 1, 6])
    # a cell joins only a neighbour ranked before it, never a later one
    np.testing.assert_array_equal(problems._basins(cells[::-1]), [0, 1, 1, 1, 1, 1, 1])


def _record_starts(monkeypatch):
    starts = []
    original = problems.minimize

    def recording(fun, x0, *args, **kwargs):
        starts.append(np.array(x0, dtype=float))
        return original(fun, x0, *args, **kwargs)

    monkeypatch.setattr(problems, "minimize", recording)
    return starts


def test_tied_minima_polish_in_grid_order(monkeypatch):
    # two wells of equal depth at grid cells 0.2 and 0.8: the scan ranks the
    # tie in grid order, each well is a basin of its own and is polished once
    prob = ConstrainedProblem(
        "two-wells",
        np.array([[0.0, 1.0]]),
        lambda X: np.minimum(np.abs(X[:, 0] - 0.2), np.abs(X[:, 0] - 0.8)),
        lambda X: np.full((X.shape[0], 1), -1.0),
        1,
    )
    vals, cells = problems._grid_scan(prob, 11, 6)
    np.testing.assert_array_equal(cells[:2, 0], [0.2, 0.8])
    index = np.rint(cells * 10).astype(np.int64)
    labels = problems._basins(index)
    assert labels[0] == 0 and labels[1] == 1 and set(labels) == {0, 1}
    starts = _record_starts(monkeypatch)
    res = constrained_optimum_oracle(prob, resolution=11, n_polish=6)
    np.testing.assert_array_equal(np.concatenate(starts), [0.2, 0.8])
    assert res.value == 0.0 and res.point[0] == 0.2


def _well_problem():
    # a broad well of depth 1 at the grid point (0.3, 0.3) and a narrow,
    # deeper one of depth 1.2 between grid points, at (0.755, 0.755)
    def objective(X):
        r1 = np.sum((X - 0.3) ** 2, axis=1)
        r2 = np.sum((X - 0.755) ** 2, axis=1)
        return -np.exp(-r1 / 0.02) - 1.2 * np.exp(-r2 / 0.0002)

    return ConstrainedProblem(
        "wells",
        np.array([[0.0, 1.0], [0.0, 1.0]]),
        objective,
        lambda X: np.full((X.shape[0], 1), -1.0),
        1,
    )


def test_resolved_narrow_basin_is_polished(monkeypatch):
    # at step 0.02 the narrow well's best cell (0.76, 0.76) reads -0.93, worse
    # than the broad well's -1, but it has no better kept neighbour, so its
    # basin is polished too: two polishes, the deeper minimum wins
    prob = _well_problem()
    starts = _record_starts(monkeypatch)
    res = constrained_optimum_oracle(prob, resolution=51, n_polish=20)
    assert len(starts) == 2
    assert res.value < -1.19
    np.testing.assert_allclose(res.point, [0.755, 0.755], atol=1e-3)
    # at step 0.1 no cell resolves the narrow well: the resolution limit
    starts.clear()
    coarse = constrained_optimum_oracle(prob, resolution=11, n_polish=20)
    assert len(starts) == 1
    assert coarse.value == pytest.approx(-1.0, abs=1e-9)


def test_p3_oracle_polishes_one_basin_once(monkeypatch):
    # the 200 best cells at resolution 60 form one basin around the optimum
    starts = _record_starts(monkeypatch)
    res = constrained_optimum_oracle(get_problem("p3"), resolution=60, n_polish=200)
    assert len(starts) == 1
    assert res.value == pytest.approx(-156.66466281508565, rel=1e-12, abs=0.0)
