"""The experiment harness: the INI round trip and the rejection of unknown
keys and invalid values, a small experiment run end to end, the SAA
diagnostic command and the oracle command with its cache."""

import csv
import dataclasses

import numpy as np
import pytest

from twostep_cbo import cli, harness
from twostep_cbo.lookahead import TwoStepConfig


def test_config_round_trip(tmp_path):
    config = harness.RunConfig(
        problem="p3",
        policy="twostep",
        budget=12,
        batch=2,
        output_dir=str(tmp_path / "run"),
        twostep=TwoStepConfig(n_restarts=3, step_a=0.25, step_A=1.5, inner_steps=40),
    )
    path = tmp_path / "config.ini"
    harness.write_config(config, path)
    assert harness.read_config(path) == config


def test_misspelled_config_key_is_rejected(tmp_path):
    """A typo must not leave the run on the defaults: read_config names the
    key, and the command line exits with the usage-error code."""
    path = tmp_path / "config.ini"
    path.write_text("[run]\nproblem = p1\n\n[twostep]\nn_restart = 2\n")
    with pytest.raises(ValueError, match="n_restart"):
        harness.read_config(path)
    assert cli.main(["run", "--config", str(path)]) == 2
    path.write_text("[run]\nproblem = p1\n\n[two_step]\nn_restarts = 2\n")
    with pytest.raises(ValueError, match="two_step"):
        harness.read_config(path)
    # delta, the radius of a retired exclusion ball, names no field either.
    path.write_text("[run]\nproblem = p1\n\n[twostep]\ndelta = 0.1\n")
    with pytest.raises(ValueError, match="delta"):
        harness.read_config(path)
    assert cli.main(["run", "--config", str(path)]) == 2


def test_invalid_config_value_exits_with_usage_error(tmp_path):
    """A step_A of 0 would divide by zero on the first SGA step; the config
    refuses it, so the run stops with the usage-error code before it starts."""
    path = tmp_path / "config.ini"
    path.write_text("[run]\nproblem = p1\npolicy = twostep\n\n[twostep]\nstep_A = 0\n")
    with pytest.raises(ValueError, match="step_A"):
        harness.read_config(path)
    assert cli.main(["run", "--config", str(path)]) == 2


def test_default_workers_are_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert harness.resolve_workers() == 2
    assert harness.resolve_workers(0) == 2
    assert harness.resolve_workers(5) == 5
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    assert harness.resolve_workers() == 64
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert harness.resolve_workers() == 1


def test_experiment_runs_end_to_end(tmp_path):
    """A small eic experiment: results.csv has the same bytes from one worker
    and from two, a rerun without force and a run on a missing oracle entry
    are refused, and aggregate summarizes every scoring point."""
    config = harness.RunConfig(
        problem="p1",
        policy="eic",
        budget=5,
        n_replications=2,
        output_dir=str(tmp_path / "run"),
        oracle_resolution=40,
        oracle_polish=2,
        oracle_cache=str(tmp_path / "oracle_cache.ini"),
    )
    path = harness.run_experiment(config, workers=1, compute_oracle=True)
    first = path.read_bytes()
    assert harness.run_experiment(config, workers=2, force=True) == path
    assert path.read_bytes() == first
    with pytest.raises(FileExistsError):
        harness.run_experiment(config, workers=1)
    missing = dataclasses.replace(config, oracle_seed=1, output_dir=str(tmp_path / "other"))
    with pytest.raises(harness.MissingOracleError):
        harness.run_experiment(missing, workers=1)
    meta, rows = harness.read_results(path.parent)
    assert meta["n_replications"] == 2
    assert meta["environment"] == harness.environment()
    assert sorted(meta["environment"]) == [
        "cpus", "libc", "numpy", "numpy_blas", "scipy", "scipy_blas"
    ]
    assert sorted({(r["replication"], r["n"]) for r in rows}) == [
        (rep, n) for rep in (0, 1) for n in (3, 4, 5)
    ]
    summary = harness.aggregate([path.parent], tmp_path / "summary.csv", n_boot=200)
    with open(summary, newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [(r["policy"], r["n"], r["n_replications"]) for r in table] == [
        ("eic", "3", "2"),
        ("eic", "4", "2"),
        ("eic", "5", "2"),
    ]


def test_diagnose_saa_writes_both_surfaces(tmp_path):
    """One base sample gives a surface with an O(1) jump where its indicator
    flips; 256 shared samples leave only jumps of order 1/256."""
    out = tmp_path / "saa.csv"
    assert cli.main(["diagnose-saa", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2001

    def largest_step(m):
        values = [float(r["value"]) for r in rows if r["n_base_samples"] == m]
        assert len(values) == 2001
        return np.max(np.abs(np.diff(values)))

    assert largest_step("1") > 0.5
    assert largest_step("256") < 0.05


def test_oracle_command_prints_and_caches(tmp_path, capsys, monkeypatch):
    """oracle prints the value and the point; a second call is served from
    the cache, without computing anything."""
    argv = ["oracle", "--problem", "p1", "--resolution", "40", "--polish", "2"]
    argv += ["--cache", str(tmp_path / "oracle_cache.ini")]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert first.startswith("p1 constrained_optimum: value=")
    assert " point=(" in first

    def computed(*args, **kwargs):
        raise AssertionError("the oracle ran on a cached entry")

    monkeypatch.setattr(harness, "constrained_optimum_oracle", computed)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
