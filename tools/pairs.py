"""Interleaved benchmark pairs between two checkouts, summarised as a table.

    python tools/pairs.py PARENT CHANGE [--pairs 10] [--seconds 36] [--seed 1]
                          [--workloads train_toy,eval_default] [--json PATH]

For each workload that BENCHMARK.json in CHANGE names, runs
`benchmarks/bench.py --workload W --seed S --seconds T --trace 0` once in
each checkout per pair, the side that runs first alternating from pair to
pair, and reads each run's last output line, the bench's JSON result. It
prints, per workload and end-to-end metric, each side's q1/median/q3 over
the pairs, the ratio of the medians (change/parent) and the pairs the
change won, a tie counting for neither side. Runs that were not correct or
had failed operations are listed after the table, and the exit status is 1
if there were any.

Progress goes to stderr, the table to stdout. `--json PATH` also writes
the table to PATH as JSON: per workload and metric, both sides' quartiles,
the ratio and the wins, with the seed, the run length and the host as the
bench reports it. Without it nothing is written. The runs themselves
write nothing inside either checkout: no bytecode, and the bench's
single-workload mode writes no file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def result_of(stdout: str) -> dict:
    """The bench's result: the JSON object on the last non-empty line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("bench printed nothing")
    return json.loads(lines[-1])


def host_of(stdout: str) -> dict:
    """The bench's environment, from the detail line before its result, and the machine."""
    lines = stdout.strip().splitlines()
    env = json.loads(lines[-2]).get("env", {}) if len(lines) > 1 else {}
    return dict(env, machine=platform.machine(), system=platform.system())


def quartiles(values) -> tuple:
    """q1, median and q3, by linear interpolation between the sorted values."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(workload: str, pairs: list, metrics: list) -> list:
    """Table rows for one workload from (parent result, change result) pairs.

    metrics are BENCHMARK.json end-to-end entries (name, better).
    """
    rows = []
    for m in metrics:
        parent = [p["metrics"][m["name"]]["value"] for p, _ in pairs]
        change = [c["metrics"][m["name"]]["value"] for _, c in pairs]
        lower = m["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        qp, qc = quartiles(parent), quartiles(change)
        rows.append({"workload": workload, "metric": m["name"], "pairs": len(pairs),
                     "parent": qp, "change": qc,
                     "ratio": qc[1] / qp[1] if qp[1] else float("nan"), "wins": wins})
    return rows


def table(rows: list) -> str:
    """The Markdown table CHANGES.md uses."""
    q = lambda t: "/".join(f"{v:.2f}" for v in t)
    out = ["| workload | metric | pairs | parent q1/med/q3 | change q1/med/q3 "
           "| change/parent | change wins |",
           "|---|---|---|---|---|---|---|"]
    out += [f"| {r['workload']} | {r['metric']} | {r['pairs']} | {q(r['parent'])} "
            f"| {q(r['change'])} | {r['ratio']:.3f} | {r['wins']}/{r['pairs']} |"
            for r in rows]
    return "\n".join(out)


def report(rows: list, seed: int, seconds: float, host: dict) -> dict:
    """The table as the JSON object --json writes: workload -> metric -> row."""
    workloads = {}
    for r in rows:
        workloads.setdefault(r["workload"], {})[r["metric"]] = {
            "pairs": r["pairs"],
            "parent": dict(zip(("q1", "median", "q3"), r["parent"])),
            "change": dict(zip(("q1", "median", "q3"), r["change"])),
            "ratio": r["ratio"], "wins": r["wins"]}
    return {"seed": seed, "seconds": seconds, "host": host, "workloads": workloads}


def broken(result: dict) -> bool:
    return result.get("correct") is not True or result.get("failed", 1) != 0


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> str:
    """One bench run's stdout."""
    cmd = [sys.executable, os.path.join("benchmarks", "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the table to PATH as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    rows, faults, host = [], [], {}
    for name in names:
        pairs = []
        for i in range(args.pairs):
            sides = [("parent", args.parent), ("change", args.change)]
            got = {}
            for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
                stdout = run_bench(checkout, name, args.seed, seconds)
                got[side] = result_of(stdout)
                host = host or host_of(stdout)
                if broken(got[side]):
                    faults.append(f"{name} pair {i + 1} {side}: correct="
                                  f"{got[side].get('correct')} failed={got[side].get('failed')}")
            pairs.append((got["parent"], got["change"]))
            values = " ".join(f"{m['name']}={got['parent']['metrics'][m['name']]['value']:.3f}"
                              f"/{got['change']['metrics'][m['name']]['value']:.3f}"
                              for m in spec["end_to_end"])
            print(f"{name} pair {i + 1}/{args.pairs} (parent/change): {values}",
                  file=sys.stderr)
        rows += summarize(name, pairs, spec["end_to_end"])
    print(table(rows))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report(rows, args.seed, seconds, host), fh, indent=1)
            fh.write("\n")
    for fault in faults:
        print(fault)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
