"""tools/pairs.py: the table's quartiles, ratios and wins on canned bench output."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("pairs", os.path.join(ROOT, "tools", "pairs.py"))
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [{"name": "op_ms", "better": "lower"}, {"name": "ops_s", "better": "higher"}]


def _stdout(op_ms, ops_s):
    # the bench prints a detail line, then the result line
    result = {"correct": True, "attempted": 5, "failed": 0,
              "metrics": {"op_ms": {"value": op_ms, "unit": "ms"},
                          "ops_s": {"value": ops_s, "unit": "1/s"}}}
    return json.dumps({"rounds": 3}) + "\n" + json.dumps(result) + "\n"


def test_table_arithmetic_on_canned_results():
    parent = [(10.0, 5.0), (12.0, 5.0), (14.0, 4.0), (16.0, 6.0)]
    change = [(9.0, 6.0), (12.0, 4.0), (11.0, 5.0), (12.0, 6.0)]
    runs = [(pairs.result_of(_stdout(*p)), pairs.result_of(_stdout(*c)))
            for p, c in zip(parent, change)]
    op_ms, ops_s = pairs.summarize("w", runs, METRICS)
    # inclusive quartiles of 10, 12, 14, 16 and of 9, 11, 12, 12
    assert op_ms["parent"] == (11.5, 13.0, 14.5)
    assert op_ms["change"] == (10.5, 11.5, 12.0)
    assert op_ms["ratio"] == 11.5 / 13.0
    assert op_ms["wins"] == 3            # the tie at 12 counts for neither side
    assert ops_s["wins"] == 2            # higher is better here
    lines = pairs.table([op_ms, ops_s]).splitlines()
    assert lines[2] == "| w | op_ms | 4 | 11.50/13.00/14.50 | 10.50/11.50/12.00 | 0.885 | 3/4 |"
    assert lines[3] == "| w | ops_s | 4 | 4.75/5.00/5.25 | 4.75/5.50/6.00 | 1.100 | 2/4 |"


def test_broken_runs_are_flagged():
    ok = pairs.result_of(_stdout(1.0, 1.0))
    assert not pairs.broken(ok)
    assert pairs.broken(dict(ok, failed=1))
    assert pairs.broken(dict(ok, correct=False))
