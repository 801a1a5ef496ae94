"""Scenario model tests: serialization, validation, frames, resampling."""

import json
import os

import numpy as np
import pytest

from laneformer.scenario import (
    AgentHistory,
    Lane,
    LaneConnectivity,
    Scenario,
    arc_length_midpoint,
    finite_difference_velocities,
    normalize_scenario,
    parse_scenario,
    resample_centerline,
    resample_lanes,
    rotation,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)


def _agent(positions, heading=0.0, padding=None, category=1, agent_type="vehicle"):
    positions = np.asarray(positions, dtype=np.float64)
    t = len(positions)
    if padding is None:
        padding = np.ones(t, dtype=bool)
    return AgentHistory(
        positions=positions,
        velocities=np.tile([2.0, 0.0], (t, 1)),
        headings=np.full(t, heading),
        padding=np.asarray(padding, dtype=bool),
        category=category,
        agent_type=agent_type,
    )


def _small_scenario(with_gt=True):
    lanes = [
        Lane(0, "vehicle", [[0.0, 0.0], [10.0, 0.0]]),
        Lane(1, "vehicle", [[10.0, 0.0], [20.0, 0.0]]),
        Lane(2, "bus", [[0.0, 3.5], [10.0, 3.5]]),
    ]
    conn = LaneConnectivity(
        successors=[(0, 1)],
        predecessors=[(1, 0)],
        left=[(0, 2, "dashed")],
        right=[(2, 0, "dashed")],
    )
    t = 4
    agents = [
        _agent([[i * 1.0, 0.0] for i in range(t)], category=3),
        _agent([[i * 1.0, 3.5] for i in range(t)]),
    ]
    gt = np.stack([
        np.column_stack([np.arange(4.0, 9.0), np.zeros(5)]),
        np.column_stack([np.arange(4.0, 9.0), np.full(5, 3.5)]),
    ]) if with_gt else None
    return Scenario(lanes=lanes, connectivity=conn, agents=agents,
                    target_ids=[0], ground_truth=gt)


def test_round_trip_through_dict():
    sc = _small_scenario()
    doc = scenario_to_dict(sc)
    again = scenario_to_dict(scenario_from_dict(doc))
    assert doc == again


def test_round_trip_through_file(tmp_path):
    sc = _small_scenario()
    path = os.path.join(tmp_path, "case_0003.json")
    save_scenario(path, sc)
    loaded = parse_scenario(path)
    assert loaded.name == "case_0003"
    assert len(loaded.lanes) == 3
    assert np.array_equal(loaded.agents[0].positions, sc.agents[0].positions)
    assert np.array_equal(loaded.ground_truth, sc.ground_truth)
    assert loaded.connectivity.left == [(0, 2, "dashed")]
    # name is derived from the filename, never stored in the document
    assert "name" not in json.load(open(path))


def test_validation_rejects_structural_errors():
    cases = [
        ("duplicate lane id", lambda sc: sc.lanes.append(
            Lane(0, "vehicle", [[0, 0], [1, 0]]))),
        ("unknown lane 9", lambda sc: sc.connectivity.successors.append((0, 9))),
        ("self-pair", lambda sc: sc.connectivity.left.append((1, 1, "solid"))),
        ("not the reverse", lambda sc: sc.connectivity.predecessors.clear()),
        ("history length mismatch", lambda sc: sc.agents.append(
            _agent([[0.0, 0.0], [1.0, 0.0]]))),
        ("unknown agent type", lambda sc: setattr(
            sc.agents[1], "agent_type", "hovercraft")),
        ("unknown lane type", lambda sc: setattr(sc.lanes[0], "lane_type", "rail")),
        ("target index 5", lambda sc: sc.target_ids.append(5)),
        ("ground truth", lambda sc: setattr(
            sc, "ground_truth", np.zeros((1, 5, 2)))),
        ("not distinct", lambda sc: setattr(
            sc.lanes[0], "centerline", np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))),
    ]
    for fragment, mutate in cases:
        sc = _small_scenario()
        validate_scenario(sc)
        mutate(sc)
        with pytest.raises(ValueError, match=fragment):
            validate_scenario(sc)


def test_validation_rejects_non_finite_values():
    def set_nan(array, index):
        array[index] = np.nan

    cases = [
        (r"lane 2: non-finite centerline", lambda sc: set_nan(sc.lanes[2].centerline, (1, 0))),
        (r"agent 1: non-finite positions at observed step 2",
         lambda sc: set_nan(sc.agents[1].positions, (2, 0))),
        (r"agent 0: non-finite velocities", lambda sc: set_nan(sc.agents[0].velocities, (3, 1))),
        (r"agent 1: non-finite headings", lambda sc: set_nan(sc.agents[1].headings, 0)),
        (r"agent 1: non-finite ground truth", lambda sc: set_nan(sc.ground_truth, (1, 4, 1))),
    ]
    for fragment, mutate in cases:
        sc = _small_scenario()
        mutate(sc)
        with pytest.raises(ValueError, match=fragment):
            validate_scenario(sc)

    # a padded step's kinematic fields are ignored, so they may hold anything
    sc = _small_scenario()
    sc.agents[1].padding[0] = False
    sc.agents[1].positions[0] = np.inf
    validate_scenario(sc)


def test_nan_in_micro_scene_names_agent_and_field():
    from laneformer.cli import micro_scenario
    sc = micro_scenario()
    sc.agents[1].positions[2, 0] = np.nan
    with pytest.raises(ValueError, match=r"agent 1: non-finite positions"):
        validate_scenario(sc)


def test_parse_reports_json_position(tmp_path):
    path = os.path.join(tmp_path, "broken.json")
    with open(path, "w") as fh:
        fh.write('{\n  "lanes": [,]\n}\n')
    with pytest.raises(ValueError, match=r"broken\.json:2: parse error"):
        parse_scenario(path)


def test_parse_rejects_bad_state_rows(tmp_path):
    sc = _small_scenario()
    doc = scenario_to_dict(sc)

    bad_pad = json.loads(json.dumps(doc))
    bad_pad["agents"][0]["states"][1][2] = 2
    with pytest.raises(ValueError, match="padding must be 0 or 1"):
        scenario_from_dict(bad_pad)

    short_row = json.loads(json.dumps(doc))
    short_row["agents"][1]["states"][0] = [1.0, 2.0, 1]
    with pytest.raises(ValueError, match="expected 8 fields"):
        scenario_from_dict(short_row)

    bad_type = json.loads(json.dumps(doc))
    bad_type["agents"][0]["states"][0][4] = 7
    with pytest.raises(ValueError, match="type must be a string"):
        scenario_from_dict(bad_type)

    for key in ("lanes", "connectivity", "agents", "targets"):
        partial = json.loads(json.dumps(doc))
        del partial[key]
        with pytest.raises(ValueError, match=f"missing field '{key}'"):
            scenario_from_dict(partial)


def test_normalize_moves_point_ahead_to_unit_x():
    # target at (3, 4) heading pi/2; the lane node 1 m ahead sits at (3, 5)
    sc = _small_scenario(with_gt=False)
    sc.lanes[0] = Lane(0, "vehicle", [[3.0, 5.0], [3.0, 15.0]])
    tgt = sc.agents[0]
    tgt.positions[-1] = (3.0, 4.0)
    tgt.headings[-1] = np.pi / 2.0
    out = normalize_scenario(sc, 0)
    assert np.abs(out.lanes[0].centerline[0] - [1.0, 0.0]).max() < 1e-12
    assert np.abs(out.agents[0].positions[-1]).max() < 1e-12
    assert abs(out.agents[0].headings[-1]) < 1e-12


def test_normalize_is_idempotent_and_rigid():
    rng = np.random.default_rng(11)
    for _ in range(25):
        sc = _small_scenario()
        for a in sc.agents:
            a.positions += rng.normal(scale=5.0, size=a.positions.shape)
            a.headings += rng.normal(scale=1.0, size=a.headings.shape)
        once = normalize_scenario(sc, 0)
        twice = normalize_scenario(once, 0)
        for l1, l2 in zip(once.lanes, twice.lanes):
            assert np.abs(l1.centerline - l2.centerline).max() < 1e-12

        # rigid motion: pairwise distances among lane nodes survive
        before = np.vstack([l.centerline for l in sc.lanes])
        after = np.vstack([l.centerline for l in once.lanes])
        d0 = np.linalg.norm(before[:, None] - before[None, :], axis=2)
        d1 = np.linalg.norm(after[:, None] - after[None, :], axis=2)
        assert np.abs(d0 - d1).max() < 1e-9


def test_normalize_rotates_velocities_without_translating():
    sc = _small_scenario(with_gt=False)
    tgt = sc.agents[0]
    tgt.positions[-1] = (100.0, -40.0)
    tgt.headings[:] = np.pi / 2.0
    out = normalize_scenario(sc, 0)
    # world velocity (2, 0) seen from a frame rotated by pi/2 is (0, -2)
    assert np.abs(out.agents[0].velocities[-1] - [0.0, -2.0]).max() < 1e-12


def test_normalize_zeroes_padded_steps_exactly():
    sc = _small_scenario(with_gt=False)
    pad = np.array([False, True, True, True])
    sc.agents[1] = _agent([[7.0, 8.0], [1.0, 3.5], [2.0, 3.5], [3.0, 3.5]],
                          padding=pad)
    sc.agents[0].positions[-1] = (50.0, 60.0)
    out = normalize_scenario(sc, 0)
    a = out.agents[1]
    assert (a.positions[0] == 0.0).all()
    assert (a.velocities[0] == 0.0).all()
    assert a.headings[0] == 0.0
    assert not a.padding[0] and a.padding[1:].all()


def test_normalize_requires_observed_target():
    sc = _small_scenario(with_gt=False)
    sc.agents[0].padding[-1] = False
    with pytest.raises(ValueError, match="target unobserved at reference time"):
        normalize_scenario(sc, 0)
    with pytest.raises(ValueError, match="out of range"):
        normalize_scenario(sc, 7)


def test_resample_uniform_on_straight_line():
    # irregular input spacing, uniform output spacing
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0], [10.0, 0.0]])
    out = resample_centerline(pts, 5)
    assert np.abs(out[:, 0] - [0.0, 2.5, 5.0, 7.5, 10.0]).max() < 1e-12
    assert np.abs(out[:, 1]).max() == 0.0


def test_resample_l_shape_midpoint_lands_on_corner():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    out = resample_centerline(pts, 3)
    assert np.abs(out[1] - [1.0, 0.0]).max() < 1e-12
    assert np.abs(arc_length_midpoint(pts) - [1.0, 0.0]).max() < 1e-12


def test_resample_points_stay_on_polyline():
    rng = np.random.default_rng(5)
    for _ in range(30):
        steps = rng.normal(size=(6, 2))
        steps /= np.linalg.norm(steps, axis=1, keepdims=True)
        pts = np.cumsum(np.vstack([[0.0, 0.0], steps * rng.uniform(0.5, 3.0, (6, 1))]), axis=0)
        out = resample_centerline(pts, 9)
        assert np.abs(out[0] - pts[0]).max() < 1e-12
        assert np.abs(out[-1] - pts[-1]).max() < 1e-12
        # every resampled point lies on some original segment
        for p in out:
            d_best = np.inf
            for a, b in zip(pts[:-1], pts[1:]):
                ab = b - a
                u = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0)
                d_best = min(d_best, np.linalg.norm(a + u * ab - p))
            assert d_best < 1e-9


def test_resample_needs_two_points():
    with pytest.raises(ValueError, match="n >= 2"):
        resample_centerline(np.array([[0.0, 0.0], [1.0, 0.0]]), 1)


def test_resample_lanes_resamples_every_lane_and_shares_the_rest():
    sc = _small_scenario()
    sc.name = "s"
    out = resample_lanes(sc, 6)
    assert [l.centerline.shape for l in out.lanes] == [(6, 2)] * 3
    assert [(l.lane_id, l.lane_type) for l in out.lanes] == [(0, "vehicle"), (1, "vehicle"),
                                                            (2, "bus")]
    assert np.allclose(out.lanes[2].centerline[:, 0], np.linspace(0.0, 10.0, 6))
    assert out.agents is sc.agents and out.connectivity is sc.connectivity
    assert out.ground_truth is sc.ground_truth and out.name == "s"
    assert out.target_ids == sc.target_ids
    assert [l.centerline.shape for l in sc.lanes] == [(2, 2)] * 3   # input untouched


def test_rotation_turns_counterclockwise():
    assert np.allclose(rotation(np.pi / 2) @ [1.0, 0.0], [0.0, 1.0])
    assert np.allclose(rotation(0.3) @ rotation(-0.3), np.eye(2))


def test_finite_differences_exact_for_linear_motion():
    t = np.arange(10.0)[:, None]
    positions = np.array([[3.0, -1.0]]) + t * np.array([[1.5, 0.25]])
    v = finite_difference_velocities(positions, dt=1.0)
    assert np.abs(v - [1.5, 0.25]).max() < 1e-12


def test_finite_differences_central_exact_for_quadratic():
    dt = 0.1
    t = np.arange(8.0) * dt
    positions = np.column_stack([0.5 * 3.0 * t * t, t])
    v = finite_difference_velocities(positions, dt)
    assert np.abs(v[1:-1, 0] - 3.0 * t[1:-1]).max() < 1e-9
    with pytest.raises(ValueError, match="at least 2 steps"):
        finite_difference_velocities(positions[:1], dt)


def test_agent_history_shape_and_category_checks():
    with pytest.raises(ValueError, match=r"\(T, 2\)"):
        AgentHistory(positions=np.zeros((3, 3)), velocities=np.zeros((3, 2)),
                     headings=np.zeros(3), padding=np.ones(3, dtype=bool))
    with pytest.raises(ValueError, match="category"):
        _agent([[0.0, 0.0], [1.0, 0.0]], category=4)
    with pytest.raises(ValueError, match="P >= 2"):
        Lane(0, "vehicle", [[0.0, 0.0]])
