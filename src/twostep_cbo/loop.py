"""Sequential optimization driver.

Initializes with a Latin hypercube that contains at least one feasible point,
then alternates: refit hyperparameters (warm-started), select a batch with the
chosen policy, evaluate, recommend, score. The recommendation is the minimum
posterior mean among candidates whose per-constraint feasibility probability
is at least 0.975; its score is the true objective when the recommendation is
actually feasible and otherwise a fallback chosen by the scoring mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import lookahead
from .acquisition import PosteriorBundle, greedy_batch_eic, maximize_eic, pf, projected_ascent
from .gp import FactorizationError, GPModel, fit_hyperparameters, take_rows
from .lookahead import TwoStepConfig
from .problems import ConstrainedProblem
from .sampling import latin_hypercube

PF_THRESHOLD = 0.975
POLICIES = ("random", "eic", "twostep")
SCORE_MODES = ("best_feasible_fallback", "domain_max_penalty")


class InitializationError(RuntimeError):
    """No feasible point found within the redraw budget."""


@dataclass
class History:
    X: np.ndarray
    f: np.ndarray
    G: np.ndarray

    def append(self, X_new, f_new, G_new):
        self.X = np.vstack([self.X, X_new])
        self.f = np.concatenate([self.f, f_new])
        self.G = np.vstack([self.G, G_new])

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def feasible_mask(self) -> np.ndarray:
        return np.all(self.G <= 0.0, axis=1)


@dataclass(frozen=True)
class IterationRecord:
    """One row per scoring point: the state after n total evaluations.

    recommendation is None when no candidate clears the feasibility
    threshold. flags carries short tokens: "scoring_eval" when scoring needed
    an off-history evaluation, "acq_fallback" when the acquisition fell back
    to the myopic search, "aborted:<Error>" on a partial-record marker.
    """

    n: int
    points: np.ndarray
    f_values: np.ndarray
    g_values: np.ndarray
    feasible: np.ndarray
    recommendation: np.ndarray | None
    rec_objective: float
    rec_feasible: bool
    f_score: float
    utility_gap: float
    acq_seconds: float
    flags: tuple[str, ...] = ()


def initialize(problem: ConstrainedProblem, n_init: int, seed: int, max_redraws: int = 1000):
    """Latin hypercube initialization, redrawn until a feasible point appears."""
    for attempt in range(max_redraws):
        X = latin_hypercube(n_init, problem.bounds, np.random.SeedSequence((seed, 3, attempt)))
        f = problem.objective(X)
        G = problem.constraints(X)
        if np.any(np.all(G <= 0.0, axis=1)):
            return History(X, f, G)
    raise InitializationError(
        f"{problem.name}: no feasible point among {n_init} initial points "
        f"after {max_redraws} redraws"
    )


def fit_bundle(
    history: History,
    problem: ConstrainedProblem,
    seed: int,
    iteration: int,
    warm: list | None = None,
) -> tuple[PosteriorBundle, list]:
    """Fit every output k (the objective, then the constraints; seed
    _key(seed, 7, iteration, k), warm start warm[k]) and assemble the bundle."""
    prev = warm if warm is not None else [None] * (1 + problem.n_constraints)
    params, models = [], []
    for k, y in enumerate([history.f, *history.G.T]):
        key = _key(seed, 7, iteration, k)
        p = fit_hyperparameters(history.X, y, widths=problem.widths, seed=key, warm_start=prev[k])
        params.append(p)
        models.append(GPModel.fit(history.X, y, p))
    return PosteriorBundle.from_models(models[0], models[1:]), params


def _key(*parts) -> int:
    """Stable scalar key for seeding from a tuple of small ints."""
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def _neg_mean_pass(model: GPModel, X: np.ndarray):
    """The evaluate of the mean polish's ascent (projected_ascent): minus the
    posterior mean at rows of X, and grad(keep), minus its gradient at X[keep]
    from the kernel rows of this pass (GPModel.mean_row_grads)."""
    r = model.mean_rows(X)

    def grad(keep):
        return -model.mean_row_grads(X[keep], take_rows(r, keep))["dmean"]

    return -r["mean"], grad


def _polish_mean_descent(
    model: GPModel, cand: np.ndarray, bounds: np.ndarray, steps: int = 20
) -> np.ndarray:
    """Projected gradient descent of the posterior mean, all rows in lock step."""
    X, _ = projected_ascent(
        lambda X, rows: _neg_mean_pass(model, X), cand, bounds, first_move=0.1, steps=steps
    )
    return X


def recommend(bundle: PosteriorBundle, bounds: np.ndarray, seed: int) -> np.ndarray | None:
    """Point with minimal posterior mean among candidates that satisfy every
    constraint with posterior probability >= 0.975, or None when nothing does.

    Candidates are the evaluated inputs plus a seeded space-filling design,
    kept both as drawn and after 20 steps of projected posterior-mean descent.
    The objective's mean and every active constraint's moments come from one
    posterior call on the bundle's stacked models.
    """
    X_obs = bundle.objective.train_inputs
    base = np.vstack(
        [X_obs, latin_hypercube(2048, bounds, np.random.SeedSequence((seed, 13)))]
    )
    cand = np.vstack([base, _polish_mean_descent(bundle.objective, base, bounds)])
    mean, var = bundle.stacked.posterior_many(cand)
    min_pf = np.ones(cand.shape[0])
    for mc, vc in zip(mean[1:], var[1:]):
        min_pf = np.minimum(min_pf, pf(mc, vc))
    ok = min_pf >= PF_THRESHOLD
    if not np.any(ok):
        return None
    idx = np.flatnonzero(ok)
    return cand[idx[np.argmin(mean[0][idx])]].copy()


def score_recommendation(
    problem: ConstrainedProblem,
    history: History,
    rec: np.ndarray | None,
    mode: str,
    domain_max: float | None,
) -> tuple[float, float, bool, bool]:
    """True objective at the recommendation, scored value, feasibility flag,
    and whether an off-history evaluation was needed.

    The scored value is the true objective when the recommendation satisfies
    the true constraints; an absent or infeasible recommendation scores the
    best feasible observation (best_feasible_fallback) or the domain maximum
    (domain_max_penalty).
    """
    if rec is None:
        f_rec, feas, extra = float("nan"), False, False
    else:
        match = np.flatnonzero(np.all(np.abs(history.X - rec) <= 1e-12, axis=1))
        if match.size:
            i = int(match[0])
            f_rec, g_rec = float(history.f[i]), history.G[i]
            extra = False
        else:
            f_rec, g_rec = problem.evaluate(rec)
            extra = True
        feas = bool(np.all(g_rec <= 0.0))
    if feas:
        return f_rec, f_rec, True, extra
    if mode == "best_feasible_fallback":
        mask = history.feasible_mask()
        if not np.any(mask):
            raise RuntimeError("scoring fallback requires a feasible observation")
        return f_rec, float(np.min(history.f[mask])), False, extra
    if mode == "domain_max_penalty":
        if domain_max is None:
            raise ValueError("domain_max_penalty scoring needs the domain maximum")
        return f_rec, float(domain_max), False, extra
    raise ValueError(f"unknown scoring mode {mode!r}; available: {SCORE_MODES}")


def utility_gap(f_score: float, f_star: float) -> float:
    return abs(f_score - f_star)


def _maximize_feasibility(bundle: PosteriorBundle, bounds: np.ndarray, seed: int) -> np.ndarray:
    """Fallback when no incumbent exists: chase the feasibility product, its
    factors from one posterior call on the bundle's stacked models."""
    cand = latin_hypercube(4096, bounds, np.random.SeedSequence((seed, 23)))
    mean, var = bundle.stacked.posterior_many(cand)
    prod = np.ones(cand.shape[0])
    for mc, vc in zip(mean[1:], var[1:]):
        prod = prod * pf(mc, vc)
    return cand[int(np.argmax(prod))].copy()


def select_batch(
    policy: str,
    bundle: PosteriorBundle,
    problem: ConstrainedProblem,
    q: int,
    seed: int,
    iteration: int,
    ts_config: TwoStepConfig,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """One batch of q points according to the policy, plus warning flags."""
    bounds = problem.bounds
    acq_seed = _key(seed, 101, iteration)
    if policy == "random":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 37, iteration)))
        return bounds[:, 0] + rng.random((q, problem.dim)) * problem.widths, ()
    if bundle.incumbent_value is None:
        pts = [
            _maximize_feasibility(bundle, bounds, _key(seed, 41, iteration, j)) for j in range(q)
        ]
        return np.array(pts), ("feasibility_search",)
    if policy == "eic":
        if q == 1:
            return maximize_eic(bundle, bounds, acq_seed).reshape(1, -1), ()
        return greedy_batch_eic(bundle, bounds, q, acq_seed), ()
    if policy == "twostep":
        result = lookahead.optimize(bundle, bounds, q, ts_config, seed=acq_seed)
        flags = ("acq_fallback",) if result.fallback_eic else ()
        return result.batch.points, flags
    raise ValueError(f"unknown policy {policy!r}; available: {POLICIES}")


def run(
    problem: ConstrainedProblem,
    policy: str,
    budget: int,
    q: int,
    n_init: int,
    seed: int,
    f_star: float,
    score_mode: str = "best_feasible_fallback",
    domain_max: float | None = None,
    ts_config: TwoStepConfig | None = None,
) -> list[IterationRecord]:
    """Run one replication and return one record per scoring point.

    budget counts every true function evaluation including initialization;
    records are emitted after initialization and after each acquired batch.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; available: {POLICIES}")
    ts_config = ts_config or TwoStepConfig()
    history = initialize(problem, n_init, seed)
    records: list[IterationRecord] = []
    iteration = 0
    warm = None

    def _record(new_X, new_f, new_G, acq_seconds, acq_flags):
        bundle, warm_params = fit_bundle(history, problem, seed, iteration, warm)
        rec = recommend(bundle, problem.bounds, _key(seed, 53, iteration))
        f_rec, f_score, feas, extra = score_recommendation(
            problem, history, rec, score_mode, domain_max
        )
        flags = acq_flags + (("scoring_eval",) if extra else ())
        records.append(
            IterationRecord(
                n=history.n,
                points=np.atleast_2d(new_X),
                f_values=np.atleast_1d(new_f),
                g_values=np.atleast_2d(new_G),
                feasible=np.all(np.atleast_2d(new_G) <= 0.0, axis=1),
                recommendation=rec,
                rec_objective=f_rec,
                rec_feasible=feas,
                f_score=f_score,
                utility_gap=utility_gap(f_score, f_star),
                acq_seconds=acq_seconds,
                flags=flags,
            )
        )
        return bundle, warm_params

    try:
        bundle, warm = _record(history.X, history.f, history.G, 0.0, ())
        while history.n + q <= budget:
            iteration += 1
            t0 = time.perf_counter()
            X_new, acq_flags = select_batch(policy, bundle, problem, q, seed, iteration, ts_config)
            acq_seconds = time.perf_counter() - t0
            f_new = problem.objective(np.atleast_2d(X_new))
            G_new = problem.constraints(np.atleast_2d(X_new))
            history.append(X_new, f_new, G_new)
            bundle, warm = _record(X_new, f_new, G_new, acq_seconds, acq_flags)
    except (FactorizationError, np.linalg.LinAlgError, FloatingPointError) as exc:
        records.append(
            IterationRecord(
                n=history.n,
                points=np.empty((0, problem.dim)),
                f_values=np.empty(0),
                g_values=np.empty((0, problem.n_constraints)),
                feasible=np.empty(0, dtype=bool),
                recommendation=None,
                rec_objective=float("nan"),
                rec_feasible=False,
                f_score=float("nan"),
                utility_gap=float("nan"),
                acq_seconds=0.0,
                flags=(f"aborted:{type(exc).__name__}",),
            )
        )
    return records
