"""Experiment configs: the INI round trip and the rejection of unknown keys."""

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
        twostep=TwoStepConfig(n_restarts=3, step_a=0.25, step_A=1.5, delta=0.1),
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
