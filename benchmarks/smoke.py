"""Smoke run of the benchmark: every workload briefly, untraced and traced.

    python3 benchmarks/smoke.py

Each run must exit 0, be correct with no failed operation, report every
metric BENCHMARK.json names with its unit and a value above 0, and show
that its correctness checks ran. The one exception to "above 0" is
autodiff.grad_check_evals, which is 0 on workloads that run no audit.
Takes about 20 seconds; exits 1 if any run shows a problem, after listing them all.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

CHECKS = {
    "train_toy": {"objective_recomputed", "losses_finite", "loss_decreased"},
    "eval_default": {"report_rows_recomputed", "lane_permutation"},
    "audit_micro": {"audits_passed"},
}
IDLE = {"train_toy": {"autodiff.grad_check_evals"},
        "eval_default": {"autodiff.grad_check_evals"}}


def problems_of(spec, name, trace, proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        found.append(f"correct={result.get('correct')} failed={result.get('failed')} "
                     f"{detail.get('check_failures')}")
    if not result.get("attempted", 0) >= 1:
        found.append("nothing attempted")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        found.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            found.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        if not got.get("value", 0) > 0 and m["name"] not in IDLE.get(name, ()):
            found.append(f"{m['name']}: value {got.get('value')} not above 0")
    expected = CHECKS[name] | ({"replay_bitwise"} if trace else set())
    ran = {k for k, v in detail.get("checks", {}).items() if v > 0}
    if not expected <= ran:
        found.append(f"checks that did not run: {sorted(expected - ran)}")
    return found


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "bench.py"), "--workload", w["name"],
                   "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300, check=False)
            found = problems_of(spec, w["name"], trace, proc)
            print(f"{'FAIL' if found else 'ok  '} {w['name']} trace={trace}")
            for p in found:
                print(f"     {p}")
            bad += bool(found)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
