"""The row blocks of the large passes against one unblocked call, bit for bit.

solve_inner_batch runs its fantasies in blocks of at most
lookahead._INNER_ROWS ascent rows, probe_values expands its terms in chunks
of at most lookahead._PROBE_CELLS (fantasy, probe) cells, and
GPModel.posterior_many without terms takes at most gp._POSTERIOR_ROWS rows
per block. With the constants set low, so that one stack spans several
blocks, every answer must equal the call with the constants set past the
input, while the data hold at most 31 points (the gp row contract). The
fantasy draws form Y and U by one product over the batch axis; they must
equal a gather of each fantasy's own copy of its batch's factors.
"""

import tracemalloc

import numpy as np
import pytest

from oracle_utils import gathered_batch, make_gp_instance, random_x1
from twostep_cbo import gp, lookahead
from twostep_cbo.lookahead import FantasyEngine, TwoStepConfig, estimate_value
from twostep_cbo.sampling import halton_design, sobol_normal

CONFIG = TwoStepConfig(inner_restarts=2, inner_steps=12)
UNBLOCKED = 1 << 40
# (seed, d, constraints, q, data points); the last case has 31 points, the
# largest size the row contract covers.
CASES = [(0, 1, 1, 1, None), (1, 2, 2, 2, None), (2, 2, 1, 2, 31)]


def _case(seed, d, n_constraints, q, n_points):
    sizes = {} if n_points is None else dict(n_lo=n_points, n_hi=n_points)
    bundle, bounds = make_gp_instance(seed, d=d, n_constraints=n_constraints, **sizes)
    X1 = np.stack([random_x1((seed, k), bounds, q, bundle) for k in range(3)])
    engine = FantasyEngine(bundle, X1)
    Z = np.stack([sobol_normal(engine.n_blocks * q, 16, (seed, 1401, k)) for k in range(3)])
    return bundle, bounds, X1, engine, engine.batch_from_normals(Z)


def _sizes(monkeypatch, rows, cells, posterior_rows):
    monkeypatch.setattr(lookahead, "_INNER_ROWS", rows)
    monkeypatch.setattr(lookahead, "_PROBE_CELLS", cells)
    monkeypatch.setattr(gp, "_POSTERIOR_ROWS", posterior_rows)


def _count_blocks(monkeypatch):
    calls = [0]
    original = FantasyEngine._solve_fantasies

    def counting(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(FantasyEngine, "_solve_fantasies", counting)
    return calls


def _equal(got, ref):
    return all(np.array_equal(a, b) for a, b in zip(got, ref, strict=True))


@pytest.mark.parametrize("rows", [1, 13])
@pytest.mark.parametrize("case", CASES)
def test_inner_solve_fantasies_keep_the_bits(monkeypatch, case, rows):
    """rows = 1 puts each fantasy in a block of its own; 13 rows hold two
    fantasies of 5 or 6 starts, so the 48 fantasies span 24 blocks."""
    bundle, bounds, X1, engine, batch = _case(*case)
    warm = halton_design(batch.n, bounds)
    _sizes(monkeypatch, UNBLOCKED, UNBLOCKED, UNBLOCKED)
    ref = [engine.solve_inner_batch(batch, bounds, CONFIG, w) for w in (None, warm)]
    calls = _count_blocks(monkeypatch)
    _sizes(monkeypatch, rows, 37, 5)
    for w, expected in zip((None, warm), ref):
        calls[0] = 0
        assert _equal(engine.solve_inner_batch(batch, bounds, CONFIG, w), expected)
        assert calls[0] >= 24


@pytest.mark.parametrize("case", CASES)
def test_probe_chunks_and_value_blocks_keep_the_bits(monkeypatch, case):
    bundle, bounds, X1, engine, batch = _case(*case)
    design = halton_design(24, bounds)
    seeds = [np.random.SeedSequence((case[0], 1402, k)) for k in range(3)]
    _sizes(monkeypatch, UNBLOCKED, UNBLOCKED, UNBLOCKED)
    ref_probes = engine.probe_values(design, batch)
    ref_value = estimate_value(bundle, X1, bounds, CONFIG, seeds, 16)
    _sizes(monkeypatch, 20, 50, 5)  # chunks of 2 fantasies; blocks of 4
    calls = _count_blocks(monkeypatch)
    assert np.array_equal(engine.probe_values(design, batch), ref_probes)
    assert _equal(estimate_value(bundle, X1, bounds, CONFIG, seeds, 16), ref_value)
    assert calls[0] >= 12


@pytest.mark.parametrize("case", CASES)
def test_posterior_blocks_keep_the_bits(monkeypatch, case):
    """A model and the bundle's stack, on rows that span 9 blocks of 7,
    the last one short, and on a single row."""
    bundle, bounds, *_ = _case(*case)
    X = np.vstack([halton_design(60, bounds), bundle.objective.train_inputs[:2]])
    for model in (bundle.objective, bundle.stacked):
        for rows in (X, X[:1]):
            _sizes(monkeypatch, UNBLOCKED, UNBLOCKED, UNBLOCKED)
            ref = model.posterior_many(rows)
            _sizes(monkeypatch, UNBLOCKED, UNBLOCKED, 7)
            assert _equal(model.posterior_many(rows), ref)
            # with_terms is one call whatever the block size
            assert _equal(model.posterior_many(rows, with_terms=True)[:2], ref)


@pytest.mark.parametrize("E", [1, 2, 5, 64, 256])
@pytest.mark.parametrize("d,n_constraints,q", [(1, 1, 1), (2, 2, 2), (2, 0, 3)])
def test_draws_match_a_per_fantasy_gather(E, d, n_constraints, q):
    """batch_from_normals on shared and on per-batch normals, and sample_f1,
    against gathered_batch."""
    bundle, bounds = make_gp_instance(E + q, d=d, n_constraints=n_constraints)
    X1 = np.stack([random_x1((E, k), bounds, q) for k in range(E)])
    engine = FantasyEngine(bundle, X1)
    dim = engine.n_blocks * q
    shared = sobol_normal(dim, 7, (E, 1403))
    per_batch = np.stack([sobol_normal(dim, 7, (E, 1404, k)) for k in range(E)])
    for Z in (shared, per_batch):
        got, ref = engine.batch_from_normals(Z), gathered_batch(engine, Z)
        assert np.array_equal(got.e, ref.e) and np.array_equal(got.f1, ref.f1)
        assert _equal(got.Y, ref.Y) and _equal(got.U, ref.U)
    assert np.array_equal(engine.sample_f1(7, (E, 1403)), gathered_batch(engine, shared).f1)


def test_stacked_value_estimate_holds_a_bounded_working_set():
    """3 stacked batches x 2,048 fantasies, 49,152 ascent rows: solved in
    one lock step, the tracemalloc peak was 135 MB; in blocks of 8,192 rows
    it is about 18 MB."""
    bundle, bounds = make_gp_instance(3, d=2, n_constraints=2)
    X1 = np.stack([random_x1(k, bounds, 2, bundle) for k in range(3)])
    tracemalloc.start()
    try:
        estimate_value(bundle, X1, bounds, TwoStepConfig(inner_steps=20), [0, 1, 2], 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6, peak
