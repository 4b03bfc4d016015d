"""The fantasy engine's EI x PF, its x2-gradient and its X1-derivatives
against the refit reference alpha().

alpha() conditions fresh GP models on each fantasy, so it shares no stage-1
algebra with the engine. The instances cover one and two constraints and
batches of one and two points in one and two dimensions; the follow-up point
is the myopic argmax among points at least 0.3 from the data and the batch,
where the follow-up term is large and the finite differences are clean.
Gradient errors are measured against max(1, max|reference|): absolute for
small gradients, relative for large ones.
"""

import numpy as np
import pytest

from oracle_utils import make_gp_instance, numeric_grad, random_x1
from twostep_cbo.acquisition import eic_many
from twostep_cbo.lookahead import FantasyEngine, alpha, sample_fantasies
from twostep_cbo.sampling import halton_design

CASES = [(1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 2, 2)]  # (d, constraints, q)
SEEDS = range(6)
N_FANTASIES = 3


def _far_x2(bundle, bounds, X1):
    cand = halton_design(256, bounds)
    anchors = np.vstack([bundle.objective.train_inputs, X1])
    dist = np.linalg.norm(cand[:, None, :] - anchors[None, :, :], axis=-1)
    cand = cand[np.min(dist, axis=1) >= 0.3]
    return cand[int(np.argmax(eic_many(bundle, cand)))]


def _case(seed, d, n_constraints, q):
    bundle, bounds = make_gp_instance(seed, d=d, n_constraints=n_constraints)
    X1 = random_x1(seed, bounds, q, bundle)
    x2 = _far_x2(bundle, bounds, X1)
    engine = FantasyEngine(bundle, X1)
    batch = engine.sample(N_FANTASIES, (seed, 1201))
    samples = sample_fantasies(bundle, X1, N_FANTASIES, (seed, 1201))
    return bundle, X1, x2, engine, batch, samples


def _err(got, ref):
    return float(np.max(np.abs(got - ref)) / max(1.0, float(np.max(np.abs(ref)))))


@pytest.mark.parametrize("d,n_constraints,q", CASES)
def test_alpha_rows_and_x2_gradient_match_reference(d, n_constraints, q):
    for seed in SEEDS:
        bundle, X1, x2, engine, batch, samples = _case(seed, d, n_constraints, q)
        for i, s in enumerate(samples):
            value, grad, _ = engine.alpha_rows(x2.reshape(1, -1), np.array([i]), batch, True)
            ref = alpha(bundle, X1, x2, s)
            assert abs(value[0] - ref) <= 1e-9 * abs(ref), (seed, i)
            x2_rows = x2.reshape(1, -1)
            fd = numeric_grad(lambda X: alpha(bundle, X1, X[0], s), x2_rows, 1e-5)[0]
            assert _err(grad[0], fd) <= 1e-5, (seed, i)


@pytest.mark.parametrize("d,n_constraints,q", CASES)
def test_pathwise_gradient_matches_reference(d, n_constraints, q):
    """Gamma - alpha * score is d alpha / d X1 with the fantasy held fixed."""
    for seed in SEEDS:
        bundle, X1, x2, engine, batch, samples = _case(seed, d, n_constraints, q)
        X2 = np.tile(x2, (batch.n, 1))
        values = engine.alpha_rows(X2, np.arange(batch.n), batch)
        pathwise = engine.lr_gradients(batch, X2) - values[:, None, None] * engine.score(batch)
        for i, s in enumerate(samples):
            fd = numeric_grad(lambda X: alpha(bundle, X, x2, s), X1, 1e-6)
            assert _err(pathwise[i], fd) <= 1e-4, (seed, i)
