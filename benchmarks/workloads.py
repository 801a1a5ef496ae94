"""The three benchmark workloads: set-up, one operation, checks, traced replay.

Each workload class holds the state its operation needs and exposes:

- ``build()``: set-up work (scene generation, sample preparation, model
  init, checkpoint round trip), returning the seconds it spent;
- ``inputs()``: the per-operation inputs, made outside the timed call
  (fresh scenes for ``eval_default``, nothing for the others);
- ``op(inp)``: one timed operation, calling only the public API;
- ``check(inp, result)``: correctness checks on that operation's output,
  against numpy recomputations or properties the method must have;
- ``traced(inp, spans)``: the same operation replayed stage by stage with a
  span around each call, verified bit for bit against the program's own
  ``model_forward`` / ``batch_loss`` / ``evaluate_model`` / ``grad_check``;
- ``finish()``: end-of-run checks.

Check failures raise ``CheckFailed``. Counters of what was checked go into
``self.checks`` so a run can show that its checks ran.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from collections import defaultdict

import numpy as np

import laneformer as lf
from laneformer.autodiff import gather_rows, scale
from laneformer.cli import micro_config, micro_scenario
from laneformer.synth import TEMPLATES

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# the acceptance toy config (tests/test_acceptance.py)
TOY = dict(d_model=16, heads=2, layers=1, modes=6, n_lane_nodes=6,
           decoder_hidden=32, e_a2a=8, e_a2l=16, e_l2a=4)
LR = 2e-3
HUBER_DELTA = 1.0
HINGE_EPS = 0.2
MISS_THRESHOLD = 2.0


class CheckFailed(AssertionError):
    """A benchmark correctness check did not hold."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Spans:
    """Accumulated milliseconds per layer name, recorded around calls."""

    def __init__(self):
        self.ms = defaultdict(float)

    @contextlib.contextmanager
    def __call__(self, name):
        t = time.perf_counter()
        try:
            yield
        finally:
            self.ms[name] += (time.perf_counter() - t) * 1e3


def tape_nodes(*roots) -> int:
    """Tensors holding parents reachable from roots, counted by walking the graph."""
    seen, stack, count = set(), list(roots), 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._parents:
            count += 1
            stack.extend(t._parents)
    return count


def staged_forward(params, sample, spans):
    """model_forward, one span per stage; must match it bit for bit."""
    with spans("model.hte_forward"):
        agents = lf.hte_forward(params, sample.agent_features, sample.observed)
    with spans("model.ain_forward"):
        agents = lf.ain_forward(params, agents)
    with spans("model.map_net_forward"):
        lanes = lf.map_net_forward(params, sample)
    with spans("model.fusion_forward"):
        agents = lf.fusion_forward(params, agents, lanes, sample)
    with spans("autodiff.gather_rows"):
        targets = gather_rows(agents, sample.target_ids)
    with spans("model.decode_trajectories"):
        return lf.decode_trajectories(params, targets, sample.target_ids)


def staged_mean_loss(outputs, samples, spans):
    """batch_loss's total over already-run forwards: scenario losses, then the mean."""
    parts = []
    for out, s in zip(outputs, samples):
        with spans("training.scenario_loss"):
            parts.append(lf.scenario_loss(out, s).total)
    total = parts[0]
    for p in parts[1:]:
        total = lf.autodiff.add(total, p)
    return scale(total, 1.0 / len(parts))


def side_layers(params, samples, outputs, spans, forwards_per_sample=1):
    """Layers the operation runs inside other calls, timed on the same inputs.

    compose_bias_matrices runs twice per forward (lane stack and fusion L2L),
    build_topology once per prepared sample, evaluate_prediction once per
    target.
    """
    cfg = params.cfg
    flags = dict(use_relations=cfg.use_relation_bias,
                 use_reachability=cfg.use_reachability_bias)
    for s in samples:
        with spans("topology.build_topology"):
            lf.build_topology(s.scenario, cfg.connection_types)
        for _ in range(forwards_per_sample):
            with spans("attention.compose_bias_matrices"):
                lf.compose_bias_matrices(params.lane_bias, s.topology, **flags)
                lf.compose_bias_matrices(params.fuse_l2l_bias, s.topology, **flags)
    for out, s in zip(outputs, samples):
        pred = out.prediction_set()
        for row, agent_id in enumerate(pred.target_ids):
            with spans("metrics.evaluate_prediction"):
                lf.evaluate_prediction(pred.trajectories[row], pred.confidences[row],
                                       s.ground_truth[agent_id])


def same_sample(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in (
        "agent_features", "observed", "agent_positions", "lane_features",
        "lane_positions", "ground_truth"))


def grads_of(registry) -> dict:
    return {n: None if t.grad is None else t.grad.copy() for n, t in registry.items()}


def same_grads(a: dict, b: dict) -> bool:
    # np.array_equal(None, None) is True and (None, array) False
    return a.keys() == b.keys() and all(np.array_equal(a[n], b[n]) for n in a)


def huber(x):
    ax = np.abs(x)
    return np.where(ax <= HUBER_DELTA, 0.5 * x * x, HUBER_DELTA * (ax - 0.5 * HUBER_DELTA))


def numpy_objective(trajectories, confidences, gts) -> float:
    """The training objective from its definition: best mode by endpoint,
    Huber regression / (N T), hinge over the other modes / (N (K - 1)),
    Huber endpoint / N, unit weights."""
    n, k, t_f, _ = trajectories.shape
    best = np.argmin(np.linalg.norm(trajectories[:, :, -1] - gts[:, None, -1], axis=2), axis=1)
    chosen = trajectories[np.arange(n), best]
    reg = huber(chosen - gts).sum() / (n * t_f)
    c_best = confidences[np.arange(n), best][:, None]
    hinge = np.maximum(0.0, confidences + HINGE_EPS - c_best)
    hinge[np.arange(n), best] = 0.0
    cls = hinge.sum() / (n * (k - 1))
    goal = huber(chosen[:, -1] - gts[:, -1]).sum() / n
    return float(reg + cls + goal)


def numpy_metrics(trajectories, confidence, gt) -> dict:
    """minADE / minFDE / b-minFDE / miss from their closed forms."""
    fde = np.linalg.norm(trajectories[:, -1] - gt[-1], axis=1)
    k = int(np.argmin(fde))
    return {"min_ade": float(np.linalg.norm(trajectories[k] - gt, axis=1).mean()),
            "min_fde": float(fde[k]),
            "b_min_fde": float(fde[k] + (1.0 - confidence[k]) ** 2),
            "miss": int(fde[k] > MISS_THRESHOLD)}


class Workload:
    name = ""
    block = 1        # operations per round; every run attempts whole rounds
    warmup = 1       # operations run inside each set-up

    def __init__(self, seed: int, rep: int = 0):
        self.seed = seed
        self.rep = rep
        self.checks = defaultdict(int)
        self.setup_layers = defaultdict(list)   # layer -> ms per call
        self.registry_tensors = 0

    def inputs(self):
        return None

    def finish(self):
        pass

    def traced_setup(self):
        """Set-up layers the workload's own set-up does not run, timed for the traced run."""

    def timed_generate(self, gen_cfg, index):
        t = time.perf_counter()
        scn = lf.generate_scenario(gen_cfg, index)
        self.setup_layers["synth.generate_scenario_ms"].append((time.perf_counter() - t) * 1e3)
        return scn

    def timed_round_trip(self, make_params):
        """save_checkpoint, then load_checkpoint into fresh params, as `laneformer eval` does."""
        with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR) as tmp:
            path = os.path.join(tmp, "model.ckpt")
            lf.save_checkpoint(path, self.params.registry, self.seed)
            restored = make_params()
            t = time.perf_counter()
            lf.load_checkpoint(path, restored.registry)
            self.setup_layers["autodiff.load_checkpoint_ms"].append(
                (time.perf_counter() - t) * 1e3)
        for n, tensor in self.params.registry.items():
            require(np.array_equal(tensor.data, restored.registry[n].data),
                    f"checkpoint round trip changed {n}")
        return restored


class TrainToy(Workload):
    """One Adam step on one batch of 8 `straight` scenes with 3 agents."""

    name = "train_toy"
    block = 4
    warmup = 8

    def build(self):
        t = time.perf_counter()
        self.cfg = lf.ModelConfig(**TOY)
        gen = lf.GeneratorConfig(seed=self.seed, template="straight", agent_count=3)
        self.raw = [self.timed_generate(gen, i) for i in range(8)]
        self.samples = [lf.prepare_sample(s, self.cfg) for s in self.raw]
        self.params = lf.init_model(self.cfg, seed=self.seed)
        self.opt = lf.AdamOptimizer(self.params.registry, lr=LR)
        self.registry_tensors = len(self.params.registry)
        elapsed = time.perf_counter() - t
        # untimed: the objective at the initial parameters, for the first step's check
        preds = [lf.model_forward(self.params, s).prediction_set() for s in self.samples]
        self.expected_first = float(np.mean([
            numpy_objective(p.trajectories, p.confidences,
                            np.stack([s.ground_truth[a] for a in p.target_ids]))
            for p, s in zip(preds, self.samples)]))
        self.losses = []
        return elapsed

    def op(self, _inp):
        self.params.registry.zero_grad()
        loss = lf.batch_loss(self.params, self.samples).total
        lf.backpropagate(loss)
        self.opt.step()
        return loss.item()

    def check(self, _inp, loss):
        require(np.isfinite(loss), f"non-finite loss {loss}")
        if not self.losses:
            require(abs(loss - self.expected_first) <= 1e-10 * max(1.0, abs(loss)),
                    f"first batch_loss {loss!r} != numpy objective {self.expected_first!r}")
            self.checks["objective_recomputed"] += 1
        self.losses.append(loss)
        self.checks["losses_finite"] += 1

    def finish(self):
        require(self.losses[-1] < self.losses[0],
                f"last loss {self.losses[-1]} not below first {self.losses[0]}")
        self.checks["loss_decreased"] += 1

    def traced(self, _inp, spans):
        reg = self.params.registry
        reg.zero_grad()
        ref = lf.batch_loss(self.params, self.samples).total
        lf.backpropagate(ref)
        ref_grads = grads_of(reg)
        reg.zero_grad()
        t = time.perf_counter()
        outputs = [staged_forward(self.params, s, spans) for s in self.samples]
        total = staged_mean_loss(outputs, self.samples, spans)
        with spans("autodiff.backpropagate"):
            lf.backpropagate(total)
        with spans("training.adam_step"):
            self.opt.step()
        op_ms = (time.perf_counter() - t) * 1e3
        require(total.item() == ref.item(), "staged loss differs from batch_loss")
        require(same_grads(ref_grads, grads_of(reg)), "staged gradients differ from batch_loss's")
        self.checks["replay_bitwise"] += 1
        self.check(None, total.item())
        nodes = tape_nodes(total)
        for raw, s in zip(self.raw, self.samples):
            with spans("model.prepare_sample"):
                again = lf.prepare_sample(raw, self.cfg)
            require(same_sample(again, s), "prepare_sample is not repeatable")
        side_layers(self.params, self.samples, outputs, spans)
        return op_ms, {"autodiff.tape_nodes": nodes}

    def traced_setup(self):
        self.timed_round_trip(lambda: lf.init_model(self.cfg, seed=self.seed + 1))


class EvalDefault(Workload):
    """evaluate_model on 5 fresh scenes, one per template, 8 agents, default config."""

    name = "eval_default"
    block = 4
    warmup = 5

    def build(self):
        t = time.perf_counter()
        self.cfg = lf.ModelConfig()
        self.gens = [lf.GeneratorConfig(seed=self.seed, template=tpl, agent_count=8)
                     for tpl in TEMPLATES]
        # scene indices never repeat within a run, set-up repetitions included
        self.next_index = self.rep * 1_000_000
        self.calls = 0
        self.params = lf.init_model(self.cfg, seed=self.seed)
        self.params = self.timed_round_trip(lambda: lf.init_model(self.cfg, seed=self.seed + 1))
        self.registry_tensors = len(self.params.registry)
        self.opt = lf.AdamOptimizer(self.params.registry, lr=0.0)
        return time.perf_counter() - t

    def inputs(self):
        index = self.next_index
        self.next_index += 1
        return [self.timed_generate(g, index) for g in self.gens]

    def op(self, scenes):
        return lf.evaluate_model(self.params, scenes)

    def check(self, scenes, report):
        require(len(report.rows) == len(scenes), "one report row per target expected")
        self.calls += 1
        if (self.calls - 1) % self.block:
            return  # recomputing costs a forward per scene: the first operation of each round
        for scn, row in zip(scenes, report.rows):
            pred = lf.predict(self.params, scn)
            conf = pred.confidences[0]
            require((conf >= 0).all() and abs(conf.sum() - 1.0) <= 1e-12,
                    "confidences are not a distribution")
            target = scn.target_ids[0]
            ref = scn.agents[target]
            h = float(ref.headings[-1])
            rot = np.array([[np.cos(h), -np.sin(h)], [np.sin(h), np.cos(h)]])
            world = pred.trajectories[0] @ rot.T + ref.positions[-1]
            want = numpy_metrics(world, conf, np.asarray(scn.ground_truth[target]))
            require(row["miss"] == want["miss"], f"{scn.name}: miss flag differs")
            for key in ("min_ade", "min_fde", "b_min_fde"):
                require(abs(row[key] - want[key]) <= 1e-9,
                        f"{scn.name}: {key} {row[key]!r} != numpy {want[key]!r}")
            self.checks["report_rows_recomputed"] += 1

    def finish(self):
        scn = self.inputs()[self.seed % len(TEMPLATES)]
        perm = np.random.default_rng(self.seed).permutation(len(scn.lanes))
        shuffled = lf.Scenario(lanes=[scn.lanes[i] for i in perm],
                               connectivity=scn.connectivity, agents=scn.agents,
                               target_ids=scn.target_ids, ground_truth=scn.ground_truth,
                               name=scn.name)
        a, b = lf.predict(self.params, scn), lf.predict(self.params, shuffled)
        require(np.abs(a.trajectories - b.trajectories).max() <= 1e-9
                and np.abs(a.confidences - b.confidences).max() <= 1e-9,
                "lane permutation changed the predictions")
        self.checks["lane_permutation"] += 1

    def traced(self, scenes, spans):
        samples, outputs, rows = [], [], []
        t = time.perf_counter()
        for scn in scenes:
            with spans("model.prepare_sample"):
                s = lf.prepare_sample(scn, self.cfg)
            out = staged_forward(self.params, s, spans)
            pred = out.prediction_set()
            for r, agent_id in enumerate(s.target_ids):
                with spans("metrics.evaluate_prediction"):
                    m = lf.evaluate_prediction(pred.trajectories[r], pred.confidences[r],
                                               s.ground_truth[agent_id])
                rows.append({"scenario_id": scn.name, "agent_id": int(agent_id),
                             "min_ade": m["min_ade"], "min_fde": m["min_fde"],
                             "b_min_fde": m["b_min_fde"], "miss": int(m["miss"])})
            samples.append(s)
            outputs.append(out)
        op_ms = (time.perf_counter() - t) * 1e3
        require(rows == lf.evaluate_model(self.params, scenes).rows,
                "staged evaluation differs from evaluate_model")
        for scn, out in zip(scenes, outputs):
            pred = lf.predict(self.params, scn)
            require(np.array_equal(out.prediction_set().trajectories, pred.trajectories)
                    and np.array_equal(out.confidences.data, pred.confidences),
                    "staged forward differs from model_forward")
        self.checks["replay_bitwise"] += 1
        nodes = sum(tape_nodes(o.scores, o.confidences,
                               *[mode for modes in o.trajectories for mode in modes])
                    for o in outputs)
        # layers evaluation does not run, timed on the same scenes; lr 0 keeps the model
        self.params.registry.zero_grad()
        total = staged_mean_loss(outputs, samples, spans)
        with spans("autodiff.backpropagate"):
            lf.backpropagate(total)
        with spans("training.adam_step"):
            self.opt.step()
        side_layers(self.params, samples, [], spans)
        return op_ms, {"autodiff.tape_nodes": nodes}


class AuditMicro(Workload):
    """grad_check(h=1e-5, tol=1e-5) over every lane_bias.* and fuse_l2l_bias.* tensor."""

    name = "audit_micro"
    block = 1
    warmup = 2
    prefixes = ("lane_bias.", "fuse_l2l_bias.")

    def build(self):
        t = time.perf_counter()
        self.cfg = micro_config()
        self.raw = micro_scenario(self.cfg.t_history, self.cfg.t_future)
        self.sample = lf.prepare_sample(self.raw, self.cfg)
        self.params = lf.init_model(self.cfg, seed=self.seed)
        self.names = [n for n in self.params.registry.names() if n.startswith(self.prefixes)]
        self.tensors = [self.params.registry[n] for n in self.names]
        self.scalars = sum(t.data.size for t in self.tensors)
        self.opt = lf.AdamOptimizer(self.params.registry, lr=0.0)
        self.registry_tensors = len(self.params.registry)
        self.errors = None
        return time.perf_counter() - t

    def op(self, _inp):
        evals = [0]

        def loss(*_tensors):
            evals[0] += 1
            return lf.batch_loss(self.params, [self.sample]).total

        return lf.grad_check(loss, self.tensors, h=1e-5, tol=1e-5), evals[0]

    def check(self, _inp, result):
        report, evals = result
        require(report.passed, f"gradient audit failed: max rel error {report.max_error:.3e}")
        require(evals == 2 * self.scalars + 3,
                f"{evals} loss evaluations, expected {2 * self.scalars + 3}")
        # the parameters never change, so every audit of a run must agree exactly
        require(self.errors in (None, report.errors), "audit errors changed between audits of one run")
        self.errors = report.errors
        self.checks["audits_passed"] += 1

    def traced(self, _inp, spans):
        # keep only the first value and the last graph, as grad_check itself does
        first, last, evals = [], [], [0]

        def staged_loss(*_tensors):
            evals[0] += 1
            out = staged_forward(self.params, self.sample, spans)
            loss = staged_mean_loss([out], [self.sample], spans)
            if not first:
                first.append(loss.item())
            last[:] = [out, loss]
            return loss

        t = time.perf_counter()
        report = lf.grad_check(staged_loss, self.tensors, h=1e-5, tol=1e-5)
        op_ms = (time.perf_counter() - t) * 1e3
        require(first[0] == lf.batch_loss(self.params, [self.sample]).total.item(),
                "staged loss differs from batch_loss")
        self.check(None, (report, evals[0]))
        self.checks["replay_bitwise"] += 1
        out, loss = last
        nodes = tape_nodes(loss)
        self.params.registry.zero_grad()
        with spans("autodiff.backpropagate"):
            lf.backpropagate(loss)
        with spans("training.adam_step"):
            self.opt.step()
        with spans("model.prepare_sample"):
            again = lf.prepare_sample(self.raw, self.cfg)
        require(same_sample(again, self.sample), "prepare_sample is not repeatable")
        side_layers(self.params, [self.sample], [out], spans, forwards_per_sample=evals[0])
        return op_ms, {"autodiff.tape_nodes": nodes * evals[0],
                       "autodiff.grad_check_evals": evals[0]}

    def traced_setup(self):
        # the micro scene is hand-built; time synth on a straight scene of the same size
        self.timed_generate(lf.GeneratorConfig(seed=self.seed, template="straight",
                                               agent_count=len(self.raw.agents)), 0)
        self.timed_round_trip(lambda: lf.init_model(self.cfg, seed=self.seed + 1))


WORKLOADS = {w.name: w for w in (TrainToy, EvalDefault, AuditMicro)}
