"""laneformer benchmark: training, evaluation and the gradient audit.

One workload, one process (this is what BENCHMARK.json runs):

    python3 benchmarks/bench.py --workload train_toy --seed 1 --seconds 36 --trace 0

Every workload, untraced then traced, each in its own process, printing a
table and writing benchmarks/results/<utc time>.json:

    python3 benchmarks/bench.py [--seed 1] [--seconds 36]

Run from the repository root. The program is imported from ./src, never
from an installed copy; without it the benchmark exits 2.

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones. The line before it holds the
environment, the checks that ran and the raw timing samples' summary.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Set-up runs this many times per run: once before the first timed
# operation, then spread over the run so a slow phase of the machine
# (they last seconds) hits only some of them. setup_s reports the median.
SETUP_REPS = 5
STAGES = ("model.hte_forward", "model.ain_forward", "model.map_net_forward",
          "model.fusion_forward", "autodiff.gather_rows", "model.decode_trajectories",
          "training.scenario_loss")
SPAN_METRICS = STAGES + (
    "model.prepare_sample", "topology.build_topology", "attention.compose_bias_matrices",
    "metrics.evaluate_prediction", "autodiff.backpropagate", "training.adam_step")


def environment(cpus):
    """Versions, BLAS thread variables and the CPUs the run started with."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(cpus),
        "cpu_count": os.cpu_count(),
    }


def import_program():
    """Import laneformer from ./src and the workloads; exit 2 if src is missing."""
    sys.path.insert(0, SRC)
    try:
        import laneformer
        import workloads
    except ImportError as e:
        print(f"bench: cannot import the program from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(laneformer.__file__).startswith(SRC + os.sep):
        print(f"bench: laneformer came from {laneformer.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return workloads


class GcProbe:
    """Collections and pause time of the cyclic collector, from gc.callbacks."""

    def __init__(self):
        self.collections = 0
        self.pause_s = 0.0
        self._t = None
        self.active = False

    def __call__(self, phase, _info):
        if not self.active:
            return
        if phase == "start":
            self._t = time.perf_counter()
        elif self._t is not None:
            self.pause_s += time.perf_counter() - self._t
            self.collections += 1
            self._t = None


class Run:
    """One workload in this process: set-up repetitions, timed rounds, checks."""

    def __init__(self, wl_module, name, seed):
        self.wl_module = wl_module
        self.wl = wl_module.WORKLOADS[name]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.check_failures = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def attempt(self, fn, *args):
        """One operation; an exception counts it failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except self.wl_module.CheckFailed as e:
            self.check_failures.append(str(e))
        except Exception:  # one failed operation must not end the run
            self.failed += 1
            print(traceback.format_exc(limit=4), file=sys.stderr)
        return None

    def check(self, fn, *args):
        """A correctness check; any exception in it marks the run incorrect."""
        try:
            fn(*args)
        except Exception as e:  # a check that cannot run has not passed
            self.check_failures.append(f"{type(e).__name__}: {e}")

    def next_cpu(self):
        """Move this process to the next allowed CPU, round robin.

        Each CPU of this machine has slow phases of its own, lasting
        seconds; spreading rounds over all of them keeps one contended
        CPU from setting a whole run's figure.
        """
        os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
        self.turn += 1

    def setup(self, rep):
        """Build a fresh workload and run its warm-up operations; returns (w, seconds)."""
        self.next_cpu()
        w = self.wl(self.seed, rep)
        spent = w.build()
        for _ in range(w.warmup):
            t = time.perf_counter()
            inp = w.inputs()
            result = w.op(inp)
            spent += time.perf_counter() - t
            self.check(w.check, inp, result)
        return w, spent


def run_untraced(run, seconds):
    import_s = time.perf_counter() - _T0
    w, first = run.setup(0)
    reps = [first]
    op_times, rounds = [], []
    start = time.perf_counter()
    spread = [start + seconds * (i + 1) / SETUP_REPS for i in range(SETUP_REPS - 1)]
    while True:
        block = []
        run.next_cpu()
        for _ in range(w.block):
            inp = w.inputs()
            t = time.perf_counter()
            result = run.attempt(w.op, inp)
            block.append(time.perf_counter() - t)
            if result is not None:
                run.check(w.check, inp, result)
        op_times += block
        rounds.append(sum(block) / len(block))
        now = time.perf_counter()
        if spread and now >= spread[0]:
            spread.pop(0)
            reps.append(run.setup(len(reps))[1])
        if now >= start + seconds:
            break
    measured_s = time.perf_counter() - start
    while len(reps) < SETUP_REPS:
        reps.append(run.setup(len(reps))[1])
    run.check(w.finish)
    op_ms = [t * 1e3 for t in op_times]
    metrics = {
        # The mean (timed wall / operations), not the median or a low
        # percentile: the machine has slow phases lasting seconds to tens of
        # seconds, and the mean moves in proportion to how much of a run they
        # cover where an order statistic flips between the two levels.
        "op_ms": (statistics.fmean(op_ms), "ms"),
        "setup_s": (import_s + statistics.median(reps), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "ops": len(op_ms), "ops_per_round": w.block, "measured_s": measured_s,
        "op_ms_median": statistics.median(op_ms), "op_ms_min": min(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10)[-1] if len(op_ms) > 1 else op_ms[0],
        "import_s": import_s, "setup_reps_s": reps, "checks": dict(w.checks),
        "round_ms": [t * 1e3 for t in rounds],
    }
    return metrics, detail


def run_traced(run, seconds):
    w, _ = run.setup(0)
    w.traced_setup()
    probe = GcProbe()
    gc.callbacks.append(probe)
    untraced, traced, layers, counts = [], [], [], []
    start = time.perf_counter()
    try:
        while True:
            # one round: the plain operation, then its staged replay
            run.next_cpu()
            inp = w.inputs()
            probe.active = True
            t = time.perf_counter()
            result = run.attempt(w.op, inp)
            untraced.append(time.perf_counter() - t)
            probe.active = False
            if result is not None:
                run.check(w.check, inp, result)
            spans = run.wl_module.Spans()
            replay = run.attempt(w.traced, w.inputs(), spans)
            if replay is not None:
                traced.append(replay[0])
                layers.append(spans.ms)
                counts.append(replay[1])
            if time.perf_counter() >= start + seconds:
                break
    finally:
        gc.callbacks.remove(probe)
    run.check(w.finish)
    n_plain = len(untraced)

    def med(values):
        return statistics.median(values) if values else float("nan")

    metrics = {f"{name}_ms": (med([ms.get(name, 0.0) for ms in layers]), "ms")
               for name in SPAN_METRICS}
    metrics["training.batch_loss_ms"] = (
        med([sum(ms.get(s, 0.0) for s in STAGES) for ms in layers]), "ms")
    for name in ("autodiff.tape_nodes", "autodiff.grad_check_evals"):
        metrics[name] = (med([c.get(name, 0) for c in counts]), "count")
    metrics["gc.collections"] = (probe.collections / max(n_plain, 1), "count")
    metrics["gc.pause_ms"] = (probe.pause_s * 1e3 / max(n_plain, 1), "ms")
    metrics["model.registry_tensors"] = (w.registry_tensors, "count")
    for name in ("synth.generate_scenario_ms", "autodiff.load_checkpoint_ms"):
        metrics[name] = (med(w.setup_layers[name]), "ms")
    metrics["trace.op_ms"] = (med(traced), "ms")
    metrics["trace.untraced_op_ms"] = (med([t * 1e3 for t in untraced]), "ms")
    detail = {"rounds": len(traced), "checks": dict(w.checks),
              "trace_overhead_ms": metrics["trace.op_ms"][0] - metrics["trace.untraced_op_ms"][0]}
    return metrics, detail


def run_one(args):
    wl_module = import_program()
    if args.workload not in wl_module.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(wl_module.WORKLOADS)}")
    run = Run(wl_module, args.workload, args.seed)
    body = run_traced if args.trace else run_untraced
    metrics, detail = body(run, args.seconds)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  env=environment(run.cpus), check_failures=run.check_failures[:5])
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not run.check_failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload untraced and traced, one process each; prints a table."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    results, ok = {}, True
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            results[f"{name}/trace{trace}"] = {"result": result, "detail": detail}
            ok = ok and result["correct"] and result["failed"] == 0
            print(f"\n{name} ({'traced' if trace else 'untraced'}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:36s} {m['value']:14.4f} {m['unit']}")
            if trace:
                print(f"  {'tracing overhead (traced - untraced)':36s} "
                      f"{detail['trace_overhead_ms']:14.4f} ms")
    env = next(iter(results.values()))["detail"]["env"] if results else {}
    print(f"\nenvironment: {json.dumps(env)}")
    out_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("%Y%m%dT%H%M%SZ.json", time.gmtime()))
    with open(path, "w") as fh:
        json.dump({"seed": args.seed, "seconds": seconds, "env": env, "runs": results},
                  fh, indent=1)
    print(f"wrote {path}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload in this process")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        p.error("--seconds is required with --workload")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
