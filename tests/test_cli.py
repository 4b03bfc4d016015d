"""The command line's fast self-test, which reaches into the fantasy engine."""

from twostep_cbo import cli


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out
