"""The fantasy engine's EI x PF, its x2-gradient and its X1-derivatives
against the refit reference alpha().

alpha() conditions fresh GP models on each fantasy, so it shares no stage-1
algebra with the engine. The instances cover one and two constraints and
batches of one and two points in one and two dimensions; the follow-up point
is the myopic argmax among points at least 0.3 from the data and the batch,
where the follow-up term is large and the finite differences are clean.
Gradient errors are measured against max(1, max|reference|): absolute for
small gradients, relative for large ones.

An engine over a stack of three batches is checked against one engine per
batch, to 1e-12 of the same scale: a row's numbers must not depend on which
other batches share the engine.
"""

import numpy as np
import pytest
from scipy import linalg

from oracle_utils import kernel_grad_first, make_gp_instance, numeric_grad, random_x1
from twostep_cbo import gp
from twostep_cbo.acquisition import eic_many
from twostep_cbo.gp import JITTER_INITIAL, jittered_cholesky, kernel_matrix
from twostep_cbo.lookahead import (
    FantasyEngine,
    _Block,
    _conditioned,
    TwoStepConfig,
    alpha,
    estimate_value,
)
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
    return bundle, X1, x2, engine, batch


def _err(got, ref):
    return float(np.max(np.abs(got - ref)) / max(1.0, float(np.max(np.abs(ref)))))


@pytest.mark.parametrize("d,n_constraints,q", CASES)
def test_alpha_rows_and_x2_gradient_match_reference(d, n_constraints, q):
    for seed in SEEDS:
        bundle, X1, x2, engine, batch = _case(seed, d, n_constraints, q)
        for i in range(batch.n):
            y_f, y_g = batch.Y[0][i], [Y[i] for Y in batch.Y[1:]]
            value, grad, _ = engine.alpha_rows(x2.reshape(1, -1), np.array([i]), batch, True)
            ref = alpha(bundle, X1, x2, y_f, y_g)
            assert abs(value[0] - ref) <= 1e-9 * abs(ref), (seed, i)
            x2_rows = x2.reshape(1, -1)
            fd = numeric_grad(lambda X: alpha(bundle, X1, X[0], y_f, y_g), x2_rows, 1e-5)[0]
            assert _err(grad[0], fd) <= 1e-5, (seed, i)


@pytest.mark.parametrize("d,n_constraints,q", CASES)
def test_pathwise_gradient_matches_reference(d, n_constraints, q):
    """Gamma - alpha * score is d alpha / d X1 with the fantasy held fixed."""
    for seed in SEEDS:
        bundle, X1, x2, engine, batch = _case(seed, d, n_constraints, q)
        X2 = np.tile(x2, (batch.n, 1))
        values = engine.alpha_rows(X2, np.arange(batch.n), batch)
        pathwise = engine.lr_gradients(batch, X2) - values[:, None, None] * engine.score(batch)
        for i in range(batch.n):
            y_f, y_g = batch.Y[0][i], [Y[i] for Y in batch.Y[1:]]
            fd = numeric_grad(lambda X: alpha(bundle, X, x2, y_f, y_g), X1, 1e-6)
            assert _err(pathwise[i], fd) <= 1e-4, (seed, i)


# -- a stack of batches against one engine per batch ---------------------------

STACK_CASES = [(1, 1, 1), (1, 2, 2), (2, 2, 2)]  # (d, constraints, q)
STACK = 3
STACK_CONFIG = TwoStepConfig(inner_restarts=2, inner_steps=30)


def _stack_case(seed, d, n_constraints, q):
    """A stack of three batches, one engine over all of them and one per batch,
    with N_FANTASIES fantasies of each batch from the same normals."""
    bundle, bounds = make_gp_instance(seed, d=d, n_constraints=n_constraints)
    X1 = np.stack([random_x1(100 * k + seed, bounds, q, bundle) for k in range(STACK)])
    stack = FantasyEngine(bundle, X1)
    singles = [FantasyEngine(bundle, x1) for x1 in X1]
    batch = stack.sample(N_FANTASIES, (seed, 1202))
    parts = [engine.sample(N_FANTASIES, (seed, 1202)) for engine in singles]
    return bundle, bounds, X1, stack, singles, batch, parts


def _rows(k):
    """The stack's fantasy rows of batch k (the fantasies are batch-major)."""
    return slice(k * N_FANTASIES, (k + 1) * N_FANTASIES)


@pytest.mark.parametrize("d,n_constraints,q", STACK_CASES)
def test_stack_density_score_and_alpha_match_single_batches(d, n_constraints, q):
    for seed in SEEDS:
        bundle, bounds, X1, stack, singles, batch, parts = _stack_case(seed, d, n_constraints, q)
        assert np.array_equal(batch.e, np.repeat(np.arange(STACK), N_FANTASIES))
        score = stack.score(batch)
        # Five query rows per fantasy, each fantasy of every batch.
        P = halton_design(5 * N_FANTASIES, bounds)
        idx = np.repeat(np.arange(N_FANTASIES), 5)
        P_stack = np.tile(P, (STACK, 1))
        idx_stack = np.concatenate([k * N_FANTASIES + idx for k in range(STACK)])
        values, grads, _ = stack.alpha_rows(P_stack, idx_stack, batch, True)
        X2 = halton_design(STACK * N_FANTASIES, bounds)[::-1]
        gammas = stack.lr_gradients(batch, X2)
        for k, (engine, part) in enumerate(zip(singles, parts)):
            rows = _rows(k)
            for U, U_ref in zip(batch.U, part.U):
                assert _err(U[rows], U_ref) <= 1e-12, (seed, k)
            assert _err(score[rows], engine.score(part)) <= 1e-12, (seed, k)
            ref_values, ref_grads, _ = engine.alpha_rows(P, idx, part, True)
            query = slice(k * len(P), (k + 1) * len(P))
            assert _err(values[query], ref_values) <= 1e-12, (seed, k)
            assert _err(grads[query], ref_grads) <= 1e-12, (seed, k)
            assert _err(gammas[rows], engine.lr_gradients(part, X2[rows])) <= 1e-12, (seed, k)


@pytest.mark.parametrize("d,n_constraints,q", STACK_CASES)
def test_stack_inner_solve_matches_single_batches(d, n_constraints, q):
    for seed in SEEDS:
        bundle, bounds, X1, stack, singles, batch, parts = _stack_case(seed, d, n_constraints, q)
        X2, values, _ = stack.solve_inner_batch(batch, bounds, STACK_CONFIG)
        for k, (engine, part) in enumerate(zip(singles, parts)):
            ref_X2, ref_values, _ = engine.solve_inner_batch(part, bounds, STACK_CONFIG)
            assert _err(X2[_rows(k)], ref_X2) <= 1e-12, (seed, k)
            assert _err(values[_rows(k)], ref_values) <= 1e-12, (seed, k)


@pytest.mark.parametrize("d,n_constraints,q", STACK_CASES)
def test_stack_estimate_value_matches_single_batches(d, n_constraints, q):
    for seed in SEEDS:
        bundle, bounds, X1, *_ = _stack_case(seed, d, n_constraints, q)
        seeds = [np.random.SeedSequence((seed, 1203, k)) for k in range(STACK)]
        est, se = estimate_value(bundle, X1, bounds, STACK_CONFIG, seed=seeds, n_samples=8)
        assert est.shape == se.shape == (STACK,)
        for k in range(STACK):
            ref_est, ref_se = estimate_value(
                bundle, X1[k], bounds, STACK_CONFIG, seed=seeds[k], n_samples=8
            )
            assert _err(est[k], ref_est) <= 1e-12, (seed, k)
            assert _err(se[k], ref_se) <= 1e-12, (seed, k)


@pytest.mark.parametrize("d,n_constraints,q", STACK_CASES)
def test_affine_probe_pass_matches_alpha_rows(d, n_constraints, q):
    """probe_values expands per-(batch, probe) state-0 terms through each
    fantasy; alpha_rows on the probes tiled across the fantasies is the
    direct route. Every batch sweeps the same design."""
    for seed in SEEDS:
        bundle, bounds, X1, stack, _, batch, _ = _stack_case(seed, d, n_constraints, q)
        design = halton_design(16, bounds)
        got = stack.probe_values(design, batch)
        tiled = np.tile(design, (batch.n, 1))
        ref = stack.alpha_rows(tiled, np.repeat(np.arange(batch.n), 16), batch)
        assert _err(got, ref.reshape(batch.n, 16)) <= 1e-12, seed


# -- the stacked block against one scipy factorization per batch ---------------


def _block_reference(model, x1):
    """Every array of _Block for the one batch x1, with scipy's triangular
    and Cholesky solves, one batch at a time."""
    kern, n, w = model.kernel, model.n_train, model.weights
    points = np.vstack([model.train_inputs, x1])
    K = kernel_matrix(kern, x1, points)
    J = kernel_grad_first(kern, x1, points)
    K_X1_D, J_X1_D = K[:, :n], J[:, :n]
    V1 = linalg.solve_triangular(model.chol, K_X1_D.T, lower=True)  # (n, q)
    A1 = linalg.cho_solve((model.chol, True), K_X1_D.T)
    C0 = K[:, n:] - V1.T @ V1
    Lc, jit = jittered_cholesky(0.5 * (C0 + C0.T), kern.signal_variance)
    return {
        "V1": V1.T,
        "A1": A1.T,
        "J_X1_D": J_X1_D,
        "mu0": K_X1_D @ w,
        "dmu0": np.einsum("qnd,n->qd", J_X1_D, w),
        "Lc": Lc,
        "jit": jit,
        "Cinv": linalg.cho_solve((Lc, True), np.eye(len(x1))),
        "Dk0": J[:, n:] - np.einsum("ind,nb->ibd", J_X1_D, A1),
    }


@pytest.mark.parametrize("n_constraints", [1, 2])
@pytest.mark.parametrize("q", [2, 3])
def test_stacked_block_matches_per_batch_scipy_reference(q, n_constraints):
    """Six batches, one of them with two points 1e-7 apart, where the
    covariance is carried by the jitter: that batch's jitter is
    jittered_cholesky's, and every other batch keeps the initial one.

    That batch's covariance has a condition number near 1e8, so the
    rounding-level gap between the block's row-by-row products with L^{-1}
    and scipy's triangular solve moves its factor by 2.5e-12 and its inverse
    by 1.8e-8 of their largest entries. There the factor is checked through
    the covariance it carries, and the inverse against scipy's inverse of the
    block's own factor; both hold to 1e-12 on every batch."""
    for seed in SEEDS:
        bundle, bounds = make_gp_instance(seed, d=2, n_constraints=n_constraints)
        X1 = np.stack([random_x1(100 * k + seed, bounds, q, bundle) for k in range(6)])
        X1[4, 1] = X1[4, 0] + 1e-7
        engine = FantasyEngine(bundle, X1)
        for model, blk in zip(engine.models, engine.blocks):
            for k in range(6):
                ref = _block_reference(model, X1[k])
                for name, value in ref.items():
                    if k != 4 or name not in ("Lc", "Cinv"):
                        assert _err(getattr(blk, name)[k], value) <= 1e-12, (seed, k, name)
                Lc = blk.Lc[k]
                assert _err(Lc @ Lc.T, ref["Lc"] @ ref["Lc"].T) <= 1e-12, (seed, k)
                Cinv = linalg.cho_solve((Lc, True), np.eye(q))
                assert _err(blk.Cinv[k], Cinv) <= 1e-12, (seed, k)
                initial = JITTER_INITIAL * model.kernel.signal_variance
                assert blk.jit[k] == (ref["jit"] if k == 4 else initial), (seed, k)


def test_stacked_cholesky_escalates_only_the_batches_that_need_it():
    """A batch that is not positive definite at the initial jitter goes
    through jittered_cholesky, and only its jitter rises (twice here: its
    smallest eigenvalue is about -5e-7). Every other batch, the last one
    ill-conditioned (condition number near 1e8, where a factor's last bits
    reach its inverse amplified), keeps the initial jitter and, bit for bit,
    the factor it gets in a stack of its own."""
    Q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(2, 2)))
    ill = (Q * np.array([1.0, 1e-8])) @ Q.T
    failing = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-6]])
    C = np.stack([np.eye(2), failing, 2.0 * np.eye(2), 0.5 * (ill + ill.T)])
    L, jit = _Block._cholesky(C, 1.0)
    np.testing.assert_array_equal(jit, [1, 100, 1, 1] * np.array(JITTER_INITIAL))
    L_ref, jit_ref = jittered_cholesky(failing, 1.0)
    np.testing.assert_array_equal(L[1], L_ref)
    assert jit[1] == jit_ref
    for k in (0, 2, 3):
        L_alone, jit_alone = _Block._cholesky(C[k : k + 1], 1.0)
        np.testing.assert_array_equal(L[k], L_alone[0])
        assert jit_alone[0] == jit[k]


def _per_block_alpha_rows(engine, P, idx, batch):
    """alpha_rows with every block's data rows from a GPModel.rows call of
    its own, the value pass before the bundle's stack served them: (values,
    x2-gradients, degenerate mask)."""
    e = batch.e[idx]
    U = [Ub[idx] for Ub in batch.U]
    stage1 = [engine._stage1(blk, P, e, False) for blk in engine.blocks]
    moments = [_conditioned(st, Ub) for st, Ub in zip(stage1, U)]
    values, factors = engine._integrand(batch.f1[idx], moments)
    _, grad, degen = engine.alpha_rows(P, idx, batch, True, dict(stage1=stage1, factors=factors))
    return values, grad, degen


@pytest.mark.parametrize("n_constraints", [0, 1, 2])
@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("sizes", [{}, dict(n_lo=24, n_hi=31)])
def test_stacked_value_pass_keeps_the_per_block_bits(sizes, q, n_constraints):
    """alpha_rows takes every block's data rows from one call on the
    bundle's stacked models; its values, x2-gradients and degenerate mask
    are those of one GPModel.rows call per block, bit for bit, on a stack of
    two batches and on rows that include data points."""
    for seed in range(3):
        bundle, bounds = make_gp_instance(seed, d=2, n_constraints=n_constraints, **sizes)
        X1 = np.stack([random_x1(100 * k + seed, bounds, q, bundle) for k in range(2)])
        engine = FantasyEngine(bundle, X1)
        assert engine.n_blocks == 1 + n_constraints
        batch = engine.sample(5, (seed, 1205))
        P = np.vstack([halton_design(3 * batch.n, bounds), bundle.objective.train_inputs[:2]])
        idx = np.arange(len(P)) % batch.n
        values, grad, degen = _per_block_alpha_rows(engine, P, idx, batch)
        np.testing.assert_array_equal(engine.alpha_rows(P, idx, batch), values)
        got = engine.alpha_rows(P, idx, batch, grads=True)
        for a, b in zip(got, (values, grad, degen)):
            np.testing.assert_array_equal(a, b)


def test_query_rows_meet_only_the_data_and_their_own_batch(monkeypatch):
    """No kernel call of the stage-1 rows spans more than the n data columns:
    a row's own batch comes from a paired product, so a stack of six batches
    costs a query row no wider kernel row than one batch does."""
    bundle, bounds = make_gp_instance(3, d=2, n_constraints=2)
    n = bundle.objective.n_train
    X1 = np.stack([random_x1(100 * k + 3, bounds, 2, bundle) for k in range(6)])
    engine = FantasyEngine(bundle, X1)
    batch = engine.sample(4, (3, 1204))
    widths = []

    def recording(params, A, B):
        K = kernel_matrix(params, A, B)
        widths.append(K.shape[-1])
        return K

    monkeypatch.setattr(gp, "kernel_matrix", recording)
    P = halton_design(3 * batch.n, bounds)
    engine.alpha_rows(P, np.repeat(np.arange(batch.n), 3), batch, grads=True)
    engine.lr_gradients(batch, halton_design(batch.n, bounds))
    assert widths and max(widths) <= n
