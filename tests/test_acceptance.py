"""Acceptance gate: ten checks covering the core guarantees of the package.

Each test prints one PASS/FAIL line. Heavier checks (gradient audit,
convergence, ablation) pin their random seeds and budgets so the whole file
runs in a couple of minutes and reproduces exactly.
"""

import json
import os
import time

import numpy as np

from laneformer.attention import (
    BiasSet,
    attention,
    capture_softmax,
    init_attention_weights,
    nearest_neighbor_mask,
)
from laneformer.autodiff import Tensor, grad_check
from laneformer.cli import main as cli_main
from laneformer.cli import micro_config, micro_scenario
from laneformer.evaluation import evaluate_model
from laneformer.metrics import b_min_fde, min_ade, min_fde, miss_rate
from laneformer.model import (
    ModelConfig,
    init_model,
    map_net_forward,
    model_forward,
    predict,
    prepare_sample,
)
from laneformer.scenario import Scenario
from laneformer.synth import GeneratorConfig, generate_dataset, generate_scenario
from laneformer.topology import build_spd_matrix
from laneformer.training import TrainingConfig, batch_loss, train


def _verdict(n: int, ok: bool, desc: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {desc}")
    assert ok, f"criterion {n}: {desc}"


def _toy_config(**overrides) -> ModelConfig:
    base = dict(d_model=16, heads=2, layers=1, modes=6, n_lane_nodes=6,
                decoder_hidden=32, e_a2a=8, e_a2l=16, e_l2a=4)
    base.update(overrides)
    return ModelConfig(**base)


def test_criterion_1_neutral_bias_identity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        heads = int(rng.choice([1, 2, 4]))
        d_model = heads * int(rng.choice([2, 4]))
        n = int(rng.integers(2, 9))
        w = init_attention_weights(rng, d_model, heads)
        x = Tensor(rng.normal(size=(n, d_model)))
        neutral = BiasSet(
            b=Tensor(np.ones((heads, n, n))),
            d_inter=Tensor(np.zeros((heads, n, n))),
            d_outer=Tensor(np.ones((heads, n, n))),
        )
        plain = attention(x, x, x, w, heads)
        biased = attention(x, x, x, w, heads, biases=neutral)
        worst = max(worst, float(np.abs(plain.data - biased.data).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(1, ok, "neutral bias matrices reproduce standard attention "
                    f"(100 seeds, max diff {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_gradient_fidelity():
    start = time.perf_counter()
    cfg = micro_config()
    params = init_model(cfg, seed=0)
    sample = prepare_sample(micro_scenario(cfg.t_history, cfg.t_future), cfg)

    names = params.registry.names()
    coefficient_groups = {"wp", "ws", "wl", "wr", "wc",
                          "wpre_inter", "wsuc_inter", "wpre_outer", "wsuc_outer"}
    present = {n.split(".")[1].rstrip("0123456789") for n in names
               if n.startswith("lane_bias.")}
    assert present == coefficient_groups   # the audit really covers them

    def loss_fn(*_tensors):
        return batch_loss(params, [sample]).total

    tensors = [params.registry[n] for n in names]
    report = grad_check(loss_fn, tensors, h=1e-5, tol=1e-5)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 60.0
    _verdict(2, ok, f"analytic gradients match central differences for all "
                    f"{len(names)} parameter tensors (max rel err "
                    f"{report.max_error:.2e}, {elapsed:.1f}s)")


def test_criterion_3_spd_matches_reference_bfs():
    start = time.perf_counter()

    def reference(pairs, n):
        adj = {i: [] for i in range(n)}
        for a, b in pairs:
            adj[a].append(b)
        hops = np.zeros((n, n), dtype=np.int64)
        for s in range(n):
            dist = {s: 0}
            queue = [s]
            while queue:
                u = queue.pop(0)
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            for v, d in dist.items():
                if v != s:
                    hops[s, v] = d
        return hops

    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 21))
        density = rng.uniform(0.0, 0.5)
        pairs = [(int(a), int(b)) for a in range(n) for b in range(n)
                 if a != b and rng.random() < density]
        if not np.array_equal(build_spd_matrix(pairs, n), reference(pairs, n)):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    _verdict(3, ok, "hop-distance matrices match independent BFS on 500 "
                    f"random digraphs ({mismatches} mismatches, {elapsed:.1f}s)")


def test_criterion_4_metrics_match_closed_forms():
    exact = min_fde(np.array([[[0.0, 0.0], [3.0, 4.0]]]),
                    np.zeros((2, 2)))[0]
    rng = np.random.default_rng(77)
    worst = 0.0
    misses = []
    ref_misses = []
    for _ in range(1000):
        t = int(rng.integers(2, 15))
        k = int(rng.integers(1, 7))
        heading = rng.uniform(0.0, 2.0 * np.pi)
        speed = rng.uniform(0.5, 15.0)
        step = speed * 0.1 * np.array([np.cos(heading), np.sin(heading)])
        gt = rng.uniform(-50.0, 50.0, 2) + np.arange(1, t + 1)[:, None] * step

        offs = rng.uniform(0.1, 5.0, size=k)
        ang = rng.uniform(0.0, 2.0 * np.pi, size=k)
        shifts = offs[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
        modes = gt[None] + shifts[:, None, :]
        p = rng.uniform(0.0, 1.0)

        best = int(np.argmin(offs))
        fde, k_hat = min_fde(modes, gt)
        worst = max(worst, abs(fde - offs[best]), abs(min_ade(modes, gt) - offs[best]),
                    abs(b_min_fde(fde, p) - (offs[best] + (1.0 - p) ** 2)))
        worst = max(worst, float(k_hat != best))
        misses.append(fde)
        ref_misses.append(offs[best] > 2.0)
    worst = max(worst, abs(miss_rate(misses) - np.mean(ref_misses)))
    ok = worst <= 1e-9 and exact == 5.0
    _verdict(4, ok, "displacement metrics match closed forms on 1000 "
                    f"straight-line cases (worst err {worst:.2e}, "
                    f"3-4-5 endpoint = {exact})")


def test_criterion_5_local_attention_neighbor_sets():
    rng = np.random.default_rng(55)
    bad = 0
    for _ in range(200):
        n_q = int(rng.integers(1, 12))
        n_k = int(rng.integers(1, 12))
        e = int(rng.integers(1, n_k + 1))
        q_pos = rng.uniform(-30.0, 30.0, size=(n_q, 2))
        k_pos = rng.uniform(-30.0, 30.0, size=(n_k, 2))
        mask = nearest_neighbor_mask(q_pos, k_pos, e)
        for i in range(n_q):
            d = np.linalg.norm(k_pos - q_pos[i], axis=1)
            expect = sorted(range(n_k), key=lambda j: (d[j], j))[:e]
            if sorted(np.flatnonzero(mask[i]).tolist()) != sorted(expect):
                bad += 1

    w = init_attention_weights(np.random.default_rng(1), 8, 2)
    x = Tensor(np.random.default_rng(2).normal(size=(6, 8)))
    pos = np.random.default_rng(3).normal(size=(6, 2))
    full_diff = float(np.abs(
        attention(x, x, x, w, 2).data
        - attention(x, x, x, w, 2, mask=nearest_neighbor_mask(pos, pos, 9)).data).max())
    ok = bad == 0 and full_diff <= 1e-12
    _verdict(5, ok, "local attention neighbor sets match brute force on 200 "
                    f"instances; oversized windows equal full attention "
                    f"(diff {full_diff:.2e})")


def test_criterion_6_permutation_equivariance():
    cfg = _toy_config()
    worst_lane = 0.0
    worst_agent = 0.0
    for seed in (3, 9):
        raw = generate_scenario(GeneratorConfig(seed=seed, template="fork"), 0)
        params = init_model(cfg, seed=seed)
        rows = map_net_forward(params, prepare_sample(raw, cfg)).data
        base = predict(params, raw)

        perm = list(np.random.default_rng(seed).permutation(len(raw.lanes)))
        lanes_shuffled = Scenario(
            lanes=[raw.lanes[i] for i in perm], connectivity=raw.connectivity,
            agents=raw.agents, target_ids=raw.target_ids,
            ground_truth=raw.ground_truth, name=raw.name)
        rows_p = map_net_forward(params, prepare_sample(lanes_shuffled, cfg)).data
        worst_lane = max(worst_lane, float(np.abs(rows_p - rows[perm]).max()))
        moved = predict(params, lanes_shuffled)
        worst_lane = max(worst_lane, float(
            np.abs(moved.trajectories - base.trajectories).max()))

        aperm = [2, 0, 1]
        agents_shuffled = Scenario(
            lanes=raw.lanes, connectivity=raw.connectivity,
            agents=[raw.agents[i] for i in aperm],
            target_ids=[aperm.index(0)],
            ground_truth=np.stack([raw.ground_truth[i] for i in aperm]),
            name=raw.name)
        out = predict(params, agents_shuffled)
        worst_agent = max(
            worst_agent,
            float(np.abs(out.trajectories - base.trajectories).max()),
            float(np.abs(out.confidences - base.confidences).max()))
    ok = worst_lane <= 1e-9 and worst_agent <= 1e-9
    _verdict(6, ok, "reordering lanes or agents only permutes, never changes, "
                    f"the outputs (lane diff {worst_lane:.2e}, agent diff "
                    f"{worst_agent:.2e})")


def test_criterion_7_convergence_smoke():
    start = time.perf_counter()
    scenarios = generate_dataset(GeneratorConfig(seed=5, template="straight",
                                                 agent_count=3), 8)
    cfg = _toy_config()
    samples = [prepare_sample(s, cfg) for s in scenarios]
    params = init_model(cfg, seed=0)
    tcfg = TrainingConfig(epochs=500, batch_size=8, lr_init=2e-3, lr_late=2e-3,
                          decay_epoch=10 ** 9, max_steps=500, seed=0)
    result = train(params, samples, tcfg)

    first = result.curve[0]["loss"]
    drop = 1.0 - result.final_loss / first
    ades = []
    for s in samples:
        pred = model_forward(params, s).prediction_set()
        for i, agent_id in enumerate(pred.target_ids):
            ades.append(min_ade(pred.trajectories[i], s.ground_truth[agent_id]))
    mean_ade = float(np.mean(ades))
    elapsed = time.perf_counter() - start
    ok = mean_ade < 0.5 and drop >= 0.8 and elapsed < 600.0
    _verdict(7, ok, "500-step overfit on 8 scenarios reaches train minADE6 "
                    f"{mean_ade:.3f} m (< 0.5) with {100 * drop:.1f}% loss "
                    f"drop ({elapsed:.0f}s)")


def test_criterion_8_bias_ablation():
    scenarios = generate_dataset(GeneratorConfig(seed=13, template="merge",
                                                 agent_count=3), 80)
    train_raw, eval_raw = scenarios[:64], scenarios[64:]
    scores = {}
    for biased in (True, False):
        cfg = _toy_config(use_relation_bias=biased, use_reachability_bias=biased)
        samples = [prepare_sample(s, cfg) for s in train_raw]
        params = init_model(cfg, seed=0)
        tcfg = TrainingConfig(epochs=15, batch_size=8, lr_init=2e-3, lr_late=2e-3,
                              decay_epoch=10 ** 9, seed=0)
        train(params, samples, tcfg)
        scores[biased] = evaluate_model(params, eval_raw).mean_b_min_fde
    ok = scores[True] <= scores[False]
    _verdict(8, ok, "topology biases help held-out b-minFDE6: "
                    f"{scores[True]:.3f} (on) vs {scores[False]:.3f} (off), "
                    "64 train / 16 held-out scenarios")


def test_criterion_9_softmax_rows_sum_to_one():
    worst = 0.0
    count = 0
    for seed in (1, 2, 3):
        template = ("fork", "merge", "intersection")[seed - 1]
        raw = generate_scenario(GeneratorConfig(seed=seed, template=template), 0)
        cfg = _toy_config()
        params = init_model(cfg, seed=seed)
        sample = prepare_sample(raw, cfg)
        with capture_softmax() as trace:
            model_forward(params, sample)
        for p in trace:
            worst = max(worst, float(np.abs(p.sum(axis=1) - 1.0).max()))
        count += len(trace)
    ok = worst <= 1e-9 and count > 0
    _verdict(9, ok, f"all {count} attention softmax factors have unit row "
                    f"sums (worst dev {worst:.2e})")


def test_criterion_10_byte_identical_reruns(tmp_path):
    model_keys = ("d_model=8\nheads=2\nlayers=1\nn_lane_nodes=4\n"
                  "decoder_hidden=8\nmodes=2\ne_a2a=2\ne_a2l=3\ne_l2a=2\n"
                  "batch_size=2\n")
    gen_keys = "template=straight\ncount=2\nagent_count=2\n"
    gen_cfg = os.path.join(tmp_path, "gen.cfg")
    train_cfg = os.path.join(tmp_path, "train.cfg")
    with open(gen_cfg, "w") as fh:
        fh.write(gen_keys)
    with open(train_cfg, "w") as fh:
        fh.write(model_keys)

    outputs = []
    for run in ("one", "two"):
        base = os.path.join(tmp_path, run)
        data = os.path.join(base, "data")
        model_dir = os.path.join(base, "model")
        eval_dir = os.path.join(base, "eval")
        pred_dir = os.path.join(base, "pred")
        assert cli_main(["generate", "--config", gen_cfg, "--seed", "3",
                         "--out", data]) == 0
        assert cli_main(["train", "--config", train_cfg, "--data", data,
                         "--out", model_dir, "--epochs", "2", "--seed", "0"]) == 0
        ckpt = os.path.join(model_dir, "model.ckpt")
        assert cli_main(["eval", "--data", data, "--model", ckpt,
                         "--out", eval_dir]) == 0
        assert cli_main(["predict", "--data", data, "--model", ckpt,
                         "--out", pred_dir]) == 0
        outputs.append({
            "report": open(os.path.join(eval_dir, "report.csv"), "rb").read(),
            "pred0": open(os.path.join(
                pred_dir, "scenario_0000_predictions.csv"), "rb").read(),
            "pred1": open(os.path.join(
                pred_dir, "scenario_0001_predictions.csv"), "rb").read(),
            "curves": open(os.path.join(model_dir, "curves.csv"), "rb").read(),
            "ckpt": open(ckpt, "rb").read(),
        })
    same = {k: outputs[0][k] == outputs[1][k] for k in outputs[0]}
    ok = all(same.values())
    differing = sorted(k for k, v in same.items() if not v)
    _verdict(10, ok, "same seed and config reproduce metric and prediction "
                     "CSVs byte for byte"
                     + ("" if ok else f" (differs: {differing})"))
