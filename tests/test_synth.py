"""Synthetic data tests: determinism, kinematic fidelity, dataset plumbing."""

import json
import os

import numpy as np
import pytest

from laneformer import synth
from laneformer.scenario import (
    finite_difference_velocities,
    resample_centerline,
    scenario_to_dict,
    validate_scenario,
)
from laneformer.synth import (
    DT,
    SPEED_PROFILES,
    T_FUTURE,
    T_HISTORY,
    TEMPLATES,
    GeneratorConfig,
    emit_dataset,
    generate_dataset,
    generate_lane_graph,
    generate_scenario,
    load_dataset,
)


def _nearest_lane_distance(point, lanes):
    best = np.inf
    for l in lanes:
        dense = resample_centerline(l.centerline, 400)
        best = min(best, float(np.linalg.norm(dense - point, axis=1).min()))
    return best


def test_config_validation():
    with pytest.raises(ValueError, match="unknown template"):
        GeneratorConfig(template="roundabout")
    with pytest.raises(ValueError, match="unknown speed profile"):
        GeneratorConfig(speed_profile="teleport")
    with pytest.raises(ValueError, match="agent_count"):
        GeneratorConfig(agent_count=0)
    with pytest.raises(ValueError, match="positive"):
        GeneratorConfig(lane_spacing=-1.0)


def test_every_template_builds_a_valid_scenario():
    for template in TEMPLATES:
        cfg = GeneratorConfig(seed=3, template=template)
        scn = generate_scenario(cfg, 0)
        validate_scenario(scn)
        assert scn.name == "scenario_0000"
        assert scn.t_history == T_HISTORY
        assert scn.ground_truth.shape == (cfg.agent_count, T_FUTURE, 2)
        assert scn.agents[0].category == 3
        assert all(a.category == 1 for a in scn.agents[1:])
        assert scn.target_ids == [0]


def test_lane_graphs_are_deterministic_per_config():
    for template in TEMPLATES:
        cfg = GeneratorConfig(template=template)
        l1, c1 = generate_lane_graph(cfg)
        l2, c2 = generate_lane_graph(cfg)
        assert [l.lane_id for l in l1] == [l.lane_id for l in l2]
        for a, b in zip(l1, l2):
            assert np.array_equal(a.centerline, b.centerline)
        assert c1.successors == c2.successors
        assert c1.left == c2.left


def test_scenarios_deterministic_in_seed_and_index():
    cfg = GeneratorConfig(seed=11, template="fork")
    d1 = scenario_to_dict(generate_scenario(cfg, 4))
    d2 = scenario_to_dict(generate_scenario(cfg, 4))
    assert d1 == d2
    d3 = scenario_to_dict(generate_scenario(cfg, 5))
    assert d1 != d3
    d4 = scenario_to_dict(generate_scenario(GeneratorConfig(seed=12, template="fork"), 4))
    assert d1 != d4


def test_zero_noise_velocities_are_exact_differences():
    for profile in SPEED_PROFILES:
        cfg = GeneratorConfig(seed=2, template="straight", speed_profile=profile,
                              noise_sigma=0.0)
        scn = generate_scenario(cfg, 1)
        for a in scn.agents:
            obs = a.padding
            fd = finite_difference_velocities(a.positions, DT)
            assert np.abs((fd - a.velocities)[obs][1:-1]).max() < 1e-9


def test_zero_noise_trajectories_stay_on_lanes():
    # spacing/2 would be the off-lane threshold; exact paths sit much closer
    for template in TEMPLATES:
        cfg = GeneratorConfig(seed=5, template=template, noise_sigma=0.0)
        scn = generate_scenario(cfg, 0)
        target = scn.agents[0]
        for p in target.positions[target.padding][::7]:
            assert _nearest_lane_distance(p, scn.lanes) < 0.2
        for p in scn.ground_truth[0][::9]:
            assert _nearest_lane_distance(p, scn.lanes) < 0.2


def test_noise_perturbs_history_but_not_future():
    noisy = generate_scenario(GeneratorConfig(seed=9, noise_sigma=0.5), 0)
    clean = generate_scenario(GeneratorConfig(seed=9, noise_sigma=0.0), 0)
    # the target's route and speeds are drawn before any noise, so its
    # future is untouched while its history moves; later agents consume
    # different stream positions and are not comparable across sigmas
    assert np.array_equal(noisy.ground_truth[0], clean.ground_truth[0])
    delta = np.abs(noisy.agents[0].positions - clean.agents[0].positions)
    assert delta.max() > 0.2


def test_short_map_raises_exit_error():
    cfg = GeneratorConfig(seed=0, template="straight", lane_length=3.0,
                          speed_profile="constant")
    with pytest.raises(ValueError, match="trajectory exits map"):
        generate_dataset(cfg, 8)


def test_decel_profile_slows_the_target():
    cfg = GeneratorConfig(seed=21, template="straight", speed_profile="rapid_decel",
                          noise_sigma=0.0)
    scn = generate_scenario(cfg, 0)
    v = np.linalg.norm(scn.agents[0].velocities, axis=1)
    assert v[0] > 9.0
    gt_step = np.linalg.norm(np.diff(scn.ground_truth[0], axis=0), axis=1)
    assert gt_step[-1] < gt_step[0]
    assert gt_step[-1] < 0.2   # nearly stopped by the horizon


def test_some_agents_get_padded_starts():
    padded = 0
    for i in range(30):
        scn = generate_scenario(GeneratorConfig(seed=33, agent_count=3), i)
        assert scn.agents[0].padding.all()   # target never padded
        for a in scn.agents[1:]:
            if not a.padding.all():
                padded += 1
                k = int((~a.padding).sum())
                assert 5 <= k <= 25
                assert not a.padding[:k].any() and a.padding[k:].all()
                assert (a.positions[:k] == 0.0).all()
    assert padded > 3


def test_emit_and_load_round_trip(tmp_path):
    cfg = GeneratorConfig(seed=6, template="merge", agent_count=2)
    out = os.path.join(tmp_path, "data")
    manifest = emit_dataset(cfg, 3, out)
    assert manifest["count"] == 3 and manifest["template"] == "merge"
    assert [f["name"] for f in manifest["files"]] == [
        "scenario_0000.json", "scenario_0001.json", "scenario_0002.json"]
    scenarios = load_dataset(out)
    assert len(scenarios) == 3
    assert scenarios[0].name == "scenario_0000"
    ref = generate_scenario(cfg, 2)
    assert np.abs(scenarios[2].agents[0].positions - ref.agents[0].positions).max() < 1e-9


def test_emit_zero_scenarios_still_writes_manifest(tmp_path):
    manifest = emit_dataset(GeneratorConfig(), 0, tmp_path)
    assert manifest == {"seed": 0, "template": "straight", "count": 0, "files": []}
    assert load_dataset(tmp_path) == []


def test_load_rejects_tampered_files(tmp_path):
    emit_dataset(GeneratorConfig(seed=1), 2, tmp_path)
    victim = os.path.join(tmp_path, "scenario_0001.json")
    doc = json.load(open(victim))
    doc["agents"][0]["states"][0][0] += 1.0
    json.dump(doc, open(victim, "w"))
    with pytest.raises(ValueError, match="checksum mismatch for scenario_0001.json"):
        load_dataset(tmp_path)


def test_emitted_bytes_are_reproducible(tmp_path):
    cfg = GeneratorConfig(seed=8, template="grid")
    out1 = os.path.join(tmp_path, "a")
    out2 = os.path.join(tmp_path, "b")
    m1 = emit_dataset(cfg, 2, out1)
    m2 = emit_dataset(cfg, 2, out2)
    assert m1 == m2
    for f in m1["files"]:
        b1 = open(os.path.join(out1, f["name"]), "rb").read()
        b2 = open(os.path.join(out2, f["name"]), "rb").read()
        assert b1 == b2


def test_template_shapes():
    cfg = GeneratorConfig()
    sizes = {t: len(generate_lane_graph(GeneratorConfig(template=t))[0])
             for t in TEMPLATES}
    assert sizes == {"straight": 9, "fork": 9, "merge": 6,
                     "intersection": 8, "grid": 10}
    lanes, conn = generate_lane_graph(cfg)
    # straight: three rows of chained segments plus lateral links per segment
    assert len(conn.successors) == 6
    assert len(conn.left) == 6 and len(conn.right) == 6
    fork_conn = generate_lane_graph(GeneratorConfig(template="fork"))[1]
    # lane 4 forks into both 5 and 7
    assert (4, 5) in fork_conn.successors and (4, 7) in fork_conn.successors


def _loop_headings(positions):
    """_headings_from as two per-step fill loops: the reference."""
    v = finite_difference_velocities(positions, DT)
    head = np.full(len(v), np.nan)
    moving = np.linalg.norm(v, axis=1) > 1e-6
    head[moving] = np.arctan2(v[moving, 1], v[moving, 0])
    last = np.nan
    for i in range(len(head)):
        if np.isnan(head[i]):
            head[i] = last
        else:
            last = head[i]
    last = np.nan
    for i in range(len(head) - 1, -1, -1):
        if np.isnan(head[i]):
            head[i] = last
        else:
            last = head[i]
    return np.nan_to_num(head)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_headings_match_the_fill_loops_on_tracks_that_stand_still():
    rng = np.random.default_rng(11)
    for trial in range(400):
        n = int(rng.integers(2, 51))
        steps = rng.normal(size=(n, 2))
        still = np.zeros(n, dtype=bool)
        a, b = sorted(rng.integers(0, n + 1, size=2))
        still[a:b] = True   # a stationary stretch at the start, middle or end
        if trial % 4 == 0:
            still |= rng.random(n) < 0.5
        if trial % 50 == 0:
            still[:] = True   # never moves: heading 0
        steps[still] = 0.0
        pos = np.cumsum(steps, axis=0) + rng.normal(size=2)
        assert _same_bits(synth._headings_from(pos), _loop_headings(pos)), trial
    assert np.array_equal(synth._headings_from(np.zeros((6, 2))), np.zeros(6))


def test_generated_agents_get_the_fill_loops_headings(monkeypatch):
    compared = [0]
    vectorized = synth._headings_from

    def checked(positions):
        got = vectorized(positions)
        assert _same_bits(got, _loop_headings(positions))
        compared[0] += 1
        return got

    monkeypatch.setattr(synth, "_headings_from", checked)
    for template in TEMPLATES:
        for profile in SPEED_PROFILES:
            generate_scenario(GeneratorConfig(seed=5, template=template, agent_count=6,
                                              speed_profile=profile), 0)
    assert compared[0] == 6 * len(TEMPLATES) * len(SPEED_PROFILES)
