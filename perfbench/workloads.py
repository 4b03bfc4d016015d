"""The benchmark's workloads: inputs, one timed operation, and its output check.

Each workload turns the workload seed into ``n_sub`` sub-seeds and runs its
operation once per sub-seed, cycling while the run lasts. The work of an
acquisition and of a loop replication depends on its seed by about 10%, and
the acquisition's value by about 5%, so those workloads average several
sub-seeds; the oracle barely depends on its seed but runs two, because its
time is the hardest to correct for the host's speed. The package is
driven only through ``loop.initialize``, ``loop.fit_bundle``,
``lookahead.optimize``, ``loop.run`` and
``problems.constrained_optimum_oracle``, looked up on their modules at call
time so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
from hostclock import DISPATCH, MEMORY, Probe

from twostep_cbo import lookahead, loop, problems
from twostep_cbo.lookahead import CandidateBatch, TwoStepConfig

# Both acquisition workloads run every phase of optimize(): the myopic start,
# 4 Latin-hypercube restarts, SGA with inner_solve_period=2, screening of the
# 2R candidates and the final re-score of the top 3, at counts sized so that
# one call takes 1-3.5 s and a run holds a cycle of sub-seeds. The smaller
# fantasy batches give about 83 (p1) and 110 (p3) rows per alpha_rows call,
# not the roughly 245 of larger batches; perfbench/noise.json has the profile.
ACQ_CONFIG = TwoStepConfig(
    n_restarts=4,
    n_sga_steps=2,
    n_grad_samples=8,
    inner_solve_period=2,
    inner_steps=50,
    n_value_samples=16,
    n_final_value_samples=32,
)

# The data an acquisition bundle is fitted to come from this fixed design
# seed. Hyperparameter fits on 8 points swing the acquisition's work and value
# by tens of percent between data sets, which would drown any bound; the
# workload seed drives the acquisition's own randomness instead.
DESIGN_SEED = 0
N_INIT = 3

P1_F_STAR = -1.888751  # tests/test_problems.py::test_p1_optimum_value_and_stability
P3_F_STAR = -156.664663  # tests/test_problems.py::test_p3_optimum_value_and_stability
ORACLE_TOL = 1e-2
FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    op_label: str  # the operation's wall-time name: acq_s, rep_s or oracle_s
    n_sub: int  # distinct sub-seeds per run
    probe: Probe  # the HostClock probe that slows as the operation does
    build: Callable[[], dict]  # seed-independent inputs (problem, bundle)
    op: Callable[[dict, int], object]
    check: Callable[[dict, object], list[str]]  # names of failed checks
    answer: Callable[[object], float]  # higher is better


def sub_seeds(seed: int, count: int) -> list[int]:
    """The per-operation seeds of one run, derived from the workload seed."""
    return [int(np.random.SeedSequence((seed, k)).generate_state(1)[0]) for k in range(count)]


def fingerprint(state: dict, subs: list[int]) -> str:
    """Hash of everything the operations receive, to show what a seed changes."""
    h = hashlib.sha256(repr(subs).encode())
    bundle = state.get("bundle")
    if bundle is not None:
        h.update(bundle.objective.train_inputs.tobytes())
        for model in (bundle.objective, *bundle.constraints):
            h.update(model.train_targets.tobytes())
    return h.hexdigest()[:16]


# -- acquisition --------------------------------------------------------------


def _acq_build(problem_name: str, n_points: int, q: int) -> Callable[[], dict]:
    def build() -> dict:
        problem = problems.get_problem(problem_name)
        history = loop.initialize(problem, N_INIT, DESIGN_SEED)
        rng = np.random.default_rng(np.random.SeedSequence((DESIGN_SEED, 5)))
        X = problem.bounds[:, 0] + rng.random((n_points - N_INIT, problem.dim)) * problem.widths
        history.append(X, problem.objective(X), problem.constraints(X))
        bundle, _ = loop.fit_bundle(history, problem, DESIGN_SEED, 0)
        return {"problem": problem, "bundle": bundle, "q": q}

    return build


def _acq_op(state: dict, seed: int):
    problem = state["problem"]
    return lookahead.optimize(state["bundle"], problem.bounds, state["q"], ACQ_CONFIG, seed=seed)


def _acq_check(state: dict, result) -> list[str]:
    problem, q = state["problem"], state["q"]
    pts = result.batch.points
    failed = []
    if pts.shape != (q, problem.dim):
        failed.append("batch_shape")
    elif not np.all((pts >= problem.bounds[:, 0]) & (pts <= problem.bounds[:, 1])):
        failed.append("batch_in_bounds")
    try:
        CandidateBatch(pts)
    except ValueError:
        failed.append("batch_separation")
    if not (np.isfinite(result.value) and np.isfinite(result.se)):
        failed.append("value_finite")
    if result.fallback_eic:
        failed.append("no_fallback")
    return failed


# -- loop ---------------------------------------------------------------------

LOOP_BUDGET = 30


def _loop_build() -> dict:
    return {"problem": problems.get_problem("p1")}


def _loop_op(state: dict, seed: int):
    return loop.run(state["problem"], "eic", LOOP_BUDGET, 1, N_INIT, seed, P1_F_STAR)


def _loop_check(state: dict, records) -> list[str]:
    failed = []
    if [r.n for r in records] != list(range(N_INIT, LOOP_BUDGET + 1)):
        failed.append("record_n_sequence")
    if any(flag.startswith("aborted:") for r in records for flag in r.flags):
        failed.append("no_aborted_flag")
    scores = np.array([r.f_score for r in records])
    if not np.all(np.isfinite(scores)):
        failed.append("f_score_finite")
    elif np.any(scores < P1_F_STAR - 1e-6):
        failed.append("f_score_not_below_optimum")
    return failed


# -- oracle -------------------------------------------------------------------


def _oracle_build() -> dict:
    return {"problem": problems.get_problem("p3")}


def _oracle_op(state: dict, seed: int):
    return problems.constrained_optimum_oracle(
        state["problem"], resolution=60, n_polish=200, seed=seed
    )


def _oracle_check(state: dict, result) -> list[str]:
    problem = state["problem"]
    failed = []
    if not abs(result.value - P3_F_STAR) <= ORACLE_TOL:
        failed.append("oracle_value")
    point = np.atleast_2d(result.point)
    if not np.all((point >= problem.bounds[:, 0]) & (point <= problem.bounds[:, 1])):
        failed.append("oracle_in_bounds")
    if not np.max(problem.constraints(point)) <= FEASIBILITY_TOL:
        failed.append("oracle_feasible")
    return failed


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "acq_p1_q1", "acq_s", 8, DISPATCH, _acq_build("p1", 8, 1), _acq_op, _acq_check,
            lambda r: float(r.value),
        ),
        Workload(
            "acq_p3_q2", "acq_s", 8, DISPATCH, _acq_build("p3", 20, 2), _acq_op, _acq_check,
            lambda r: float(r.value),
        ),
        Workload(
            "loop_p1_eic", "rep_s", 2, DISPATCH, _loop_build, _loop_op, _loop_check,
            lambda records: -float(records[-1].f_score),
        ),
        Workload(
            "oracle_p3", "oracle_s", 2, MEMORY, _oracle_build, _oracle_op, _oracle_check,
            lambda r: -float(r.value),
        ),
    )
}
