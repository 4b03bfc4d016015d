"""Constrained Bayesian optimization with a two-step lookahead acquisition."""

from .acquisition import (
    MissingIncumbentError,
    PosteriorBundle,
    batch_eic_mc,
    certainly_feasible,
    ei,
    eic,
    eic_grad,
    pf,
)
from .gp import FactorizationError, GPModel, KernelParams, fit_hyperparameters
from .lookahead import (
    CandidateBatch,
    FantasyEngine,
    TwoStepConfig,
    TwoStepResult,
    alpha,
    estimate_value,
    optimize,
)
from .problems import ConstrainedProblem, get_problem, problem_names

__all__ = [
    "CandidateBatch",
    "ConstrainedProblem",
    "FactorizationError",
    "FantasyEngine",
    "GPModel",
    "KernelParams",
    "MissingIncumbentError",
    "PosteriorBundle",
    "TwoStepConfig",
    "TwoStepResult",
    "alpha",
    "batch_eic_mc",
    "certainly_feasible",
    "ei",
    "eic",
    "eic_grad",
    "estimate_value",
    "fit_hyperparameters",
    "get_problem",
    "optimize",
    "pf",
    "problem_names",
]

__version__ = "0.1.0"
