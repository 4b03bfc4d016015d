"""tools/rescore_cost.py on a small re-score of one acquisition bundle."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "rescore_cost.py"
_spec = importlib.util.spec_from_file_location("rescore_cost", TOOL)
rescore_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rescore_cost)


def test_main_prints_one_line_per_bundle_with_time_memory_and_values(capsys):
    assert rescore_cost.main(["--workload", "acq_p1_q1", "--samples", "4"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    out = json.loads(line)
    assert out["workload"] == "acq_p1_q1"
    assert len(out["values"]) == len(out["ses"]) == 3
    assert out["cpu_s"] >= 0.0 and out["peak_rss_mb"] >= out["rss_before_mb"] > 0.0
