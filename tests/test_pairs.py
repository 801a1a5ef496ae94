"""tools/pairs.py: the table's quartiles, ratios and wins, and its JSON form,
on canned bench output."""

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
    detail = {"rounds": 3, "env": {"numpy": "9.9", "nproc": 2}}
    return json.dumps(detail) + "\n" + json.dumps(result) + "\n"


PARENT = [(10.0, 5.0), (12.0, 5.0), (14.0, 4.0), (16.0, 6.0)]
CHANGE = [(9.0, 6.0), (12.0, 4.0), (11.0, 5.0), (12.0, 6.0)]


def test_table_arithmetic_on_canned_results():
    runs = [(pairs.result_of(_stdout(*p)), pairs.result_of(_stdout(*c)))
            for p, c in zip(PARENT, CHANGE)]
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


def test_json_table_on_canned_runs(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 2, "workloads": [{"name": "w"}], "end_to_end": METRICS}))

    def main(*extra):
        runs = {str(parent): iter(PARENT), str(change): iter(CHANGE)}
        monkeypatch.setattr(pairs, "run_bench",
                            lambda checkout, *_: _stdout(*next(runs[checkout])))
        return pairs.main([str(parent), str(change), "--pairs", "4", *extra])

    assert main() == 0
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["BENCHMARK.json", "change", "parent"]
    table = capsys.readouterr().out
    out = tmp_path / "bench.json"
    assert main("--seed", "5", "--json", str(out)) == 0
    assert capsys.readouterr().out == table
    doc = json.loads(out.read_text())
    assert (doc["seed"], doc["seconds"]) == (5, 2)
    assert doc["host"]["numpy"] == "9.9" and doc["host"]["nproc"] == 2 and "machine" in doc["host"]
    assert doc["workloads"]["w"]["op_ms"] == {
        "pairs": 4, "parent": {"q1": 11.5, "median": 13.0, "q3": 14.5},
        "change": {"q1": 10.5, "median": 11.5, "q3": 12.0}, "ratio": 11.5 / 13.0, "wins": 3}
    assert doc["workloads"]["w"]["ops_s"]["wins"] == 2
