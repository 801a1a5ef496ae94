"""Scenario model tests: serialization, validation, frames, resampling."""

import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laneformer.scenario import (
    AGENT_TYPES,
    BOUNDARY_TYPES,
    LANE_TYPES,
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


_FINITE = st.floats(-1e6, 1e6)


@st.composite
def _scenarios(draw):
    """Any scenario the JSON schema can hold; structure is not validated."""
    ids = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=4, unique=True))
    lanes = [Lane(i, draw(st.sampled_from(LANE_TYPES)),
                  draw(st.lists(st.tuples(_FINITE, _FINITE), min_size=2, max_size=5)))
             for i in ids]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3))
    lateral = st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                 st.sampled_from(BOUNDARY_TYPES)), max_size=3)
    conn = LaneConnectivity(successors=pairs, predecessors=[(b, a) for a, b in pairs],
                            left=draw(lateral), right=draw(lateral))
    t, n = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    points = st.lists(st.tuples(_FINITE, _FINITE), min_size=t, max_size=t)
    agents = [AgentHistory(positions=draw(points), velocities=draw(points),
                           headings=draw(st.lists(_FINITE, min_size=t, max_size=t)),
                           padding=draw(st.lists(st.booleans(), min_size=t, max_size=t)),
                           category=draw(st.integers(0, 3)),
                           agent_type=draw(st.sampled_from(AGENT_TYPES))) for _ in range(n)]
    t_f = draw(st.integers(1, 4))
    gt = draw(st.none() | st.lists(_FINITE, min_size=n * t_f * 2, max_size=n * t_f * 2))
    return Scenario(lanes=lanes, connectivity=conn, agents=agents,
                    target_ids=draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)),
                    ground_truth=None if gt is None else np.reshape(gt, (n, t_f, 2)))


@settings(max_examples=40, deadline=None)
@given(sc=_scenarios())
def test_dict_round_trip_keeps_every_value(sc):
    doc = scenario_to_dict(sc)
    again = scenario_from_dict(json.loads(json.dumps(doc)))
    # the JSON text tells 0.0 from -0.0 and prints each float exactly
    assert json.dumps(scenario_to_dict(again)) == json.dumps(doc)
    for a, b in zip(sc.agents, again.agents):
        for name in ("positions", "velocities", "headings", "padding"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


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


def test_validation_bounds_every_coordinate_by_the_limit():
    from laneformer.scenario import COORDINATE_LIMIT as LIMIT

    def put(array, index, value):
        array[index] = value

    cases = [
        ("lane 2: centerline coordinate beyond 1,000,000 m",
         lambda sc: put(sc.lanes[2].centerline, (1, 1), -1e160)),
        ("agent 1: position beyond 1,000,000 m at observed step 2",
         lambda sc: put(sc.agents[1].positions, (2, 0), 2 * LIMIT)),
        ("agent 0: velocity beyond 1,000,000 m/s at observed step 3",
         lambda sc: put(sc.agents[0].velocities, (3, 1), 1e160)),
        ("agent 1: ground truth beyond 1,000,000 m",
         lambda sc: put(sc.ground_truth, (1, 4, 0), 1e160)),
    ]
    for message, mutate in cases:
        sc = _small_scenario()
        mutate(sc)
        # far nodes are named with no overflow warning on the way
        with warnings.catch_warnings(), pytest.raises(ValueError) as err:
            warnings.simplefilter("error")
            validate_scenario(sc)
        assert str(err.value) == message

    # the limit itself is inside, and a padded step may hold anything
    sc = _small_scenario()
    sc.lanes[2].centerline[1] = (LIMIT, -LIMIT)
    sc.ground_truth[0, 0] = (-LIMIT, LIMIT)
    sc.agents[1].padding[0] = False
    sc.agents[1].positions[0] = 1e160
    validate_scenario(sc)


def test_validation_names_the_first_of_two_offenders():
    """With two offenders of one kind, the message names the first in storage order."""
    cases = []

    sc = _small_scenario()
    sc.agents.append(_agent([[i * 1.0, 7.0] for i in range(4)]))
    sc.agents[2].positions[1, 1] = np.nan
    sc.agents[1].headings[3] = np.inf
    sc.agents[1].velocities[3, 1] = np.nan
    sc.agents[1].velocities[2, 0] = np.nan
    sc.agents[1].positions[0, 0] = np.nan
    sc.agents[1].padding[0] = False     # a padded step may hold anything
    cases.append((sc, "agent 1: non-finite velocities at observed step 2"))

    sc = _small_scenario()
    sc.lanes = [sc.lanes[0], sc.lanes[2], sc.lanes[1]]   # storage order: ids 0, 2, 1
    sc.lanes[2].centerline = np.array([[10.0, 0.0], [15.0, 0.0], [15.0, 0.0], [20.0, 0.0]])
    sc.lanes[1].centerline = np.array([[0.0, 3.5], [0.0, 3.5], [10.0, 3.5]])
    cases.append((sc, "lane 2: consecutive centerline nodes not distinct"))

    sc = _small_scenario()   # infinite nodes: the fault is named, with no warning on the way
    sc.lanes[0].centerline = np.array([[0.0, 0.0], [np.inf, 0.0], [np.inf, 0.0]])
    sc.lanes[1].centerline = np.array([[10.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
    cases.append((sc, "lane 0: non-finite centerline"))

    sc = _small_scenario()
    sc.ground_truth[1, 0, 0] = np.nan
    sc.ground_truth[0, 4, 1] = -np.inf
    cases.append((sc, "agent 0: non-finite ground truth"))

    # the per-agent order: an earlier agent's fault before a later one's length
    sc = _small_scenario()
    sc.agents.append(_agent([[0.0, 0.0], [1.0, 0.0]]))
    sc.agents[1].agent_type = "hovercraft"
    cases.append((sc, "agent 1: unknown agent type 'hovercraft'"))

    for sc, message in cases:
        with warnings.catch_warnings(), pytest.raises(ValueError) as err:
            warnings.simplefilter("error")
            validate_scenario(sc)
        assert str(err.value) == message


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
    with open(path, "wb") as fh:
        fh.write(b'{"lanes": "\xff"}')
    with pytest.raises(ValueError, match=r"broken\.json: not UTF-8 text \(invalid start byte\)"):
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


def _looped_resample(points, n):
    """The per-polyline reference: np.linspace over the arc length, then np.interp."""
    s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))])
    if s[-1] == 0.0:
        return np.tile(points[0], (n, 1)), points[0]
    u = np.linspace(0.0, s[-1], n)
    half = 0.5 * s[-1]
    return (np.column_stack([np.interp(u, s, points[:, 0]), np.interp(u, s, points[:, 1])]),
            np.array([np.interp(half, s, points[:, 0]), np.interp(half, s, points[:, 1])]))


_POLYLINE = st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
                     min_size=2, max_size=12)


@settings(max_examples=40, deadline=None)
@given(polylines=st.lists(_POLYLINE, min_size=1, max_size=6), n=st.integers(2, 12),
       repeat=st.booleans())
# a last segment that rounds to no length: the last knot repeats with a different value
@example(polylines=[[(0.0, 1.0), (0.0, 4.129497086952738e-235), (0.0, 0.0)]], n=2, repeat=False)
def test_batched_resampling_equals_the_per_polyline_loop(polylines, n, repeat):
    lanes = [Lane(i, "vehicle", pts) for i, pts in enumerate(polylines)]
    if repeat:   # repeated nodes: knots of equal arc length
        lanes[0].centerline = np.repeat(lanes[0].centerline, 2, axis=0)
    sc = Scenario(lanes=lanes, connectivity=LaneConnectivity(), agents=[], target_ids=[])
    for before, after in zip(lanes, resample_lanes(sc, n).lanes):
        want, mid = _looped_resample(before.centerline, n)
        assert np.array_equal(after.centerline, want)
        assert np.array_equal(resample_centerline(before.centerline, n), want)
        assert np.array_equal(arc_length_midpoint(before.centerline), mid)
        assert np.array_equal(arc_length_midpoint(want), _looped_resample(want, 2)[1])


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


def test_a_scene_without_lanes_normalizes_and_resamples():
    sc = _small_scenario()
    sc.lanes, sc.connectivity = [], LaneConnectivity()
    assert normalize_scenario(sc, 0).lanes == []
    assert resample_lanes(sc, 4).lanes == []


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


def _loop_parse_states(states, agent_idx):
    """The row-by-row parse that _parse_states replaced, kept as its reference."""
    t = len(states)
    if t == 0:
        raise ValueError(f"agent {agent_idx}: empty states array")
    positions, velocities = np.zeros((t, 2)), np.zeros((t, 2))
    headings, padding = np.zeros(t), np.zeros(t, dtype=bool)
    category, agent_type = 0, "vehicle"
    for row_idx, row in enumerate(states):
        if len(row) != 8:
            raise ValueError(
                f"agent {agent_idx} state {row_idx}: expected 8 fields, got {len(row)}")
        x, y, pad, cat, typ, heading, vx, vy = row
        if pad not in (0, 1):
            raise ValueError(f"agent {agent_idx} state {row_idx}: padding must be 0 or 1")
        if not isinstance(typ, str):
            raise ValueError(f"agent {agent_idx} state {row_idx}: type must be a string")
        positions[row_idx] = (x, y)
        velocities[row_idx] = (vx, vy)
        headings[row_idx] = heading
        padding[row_idx] = bool(pad)
        category, agent_type = int(cat), typ
    return positions, velocities, headings, padding, category, agent_type


def _parsed(agent):
    return (agent.positions, agent.velocities, agent.headings, agent.padding,
            agent.category, agent.agent_type)


def _same_parse(a, b):
    return all(np.array_equal(u, v, equal_nan=True) and np.asarray(u).dtype == np.asarray(v).dtype
               for u, v in zip(a[:4], b[:4])) and a[4:] == b[4:]


def test_state_columns_parse_as_the_row_loop_does():
    from laneformer.scenario import _parse_states
    from laneformer.synth import TEMPLATES, GeneratorConfig, generate_scenario
    for template in TEMPLATES:
        for index in range(3):
            doc = json.loads(json.dumps(scenario_to_dict(generate_scenario(
                GeneratorConfig(seed=index, template=template, agent_count=4), index))))
            for i, agent in enumerate(doc["agents"]):
                got = _parsed(_parse_states(agent["states"], i))
                assert _same_parse(got, _loop_parse_states(agent["states"], i)), (template, i)
    # inputs the loop accepted: numeric strings, booleans, None as NaN, integer-valued floats
    odd = [[1, "2.5", True, 1.0, "cyclist", None, " 3 ", 0], [0.5, 1, 0.0, "2", "bus", 1, 2, 3]]
    assert _same_parse(_parsed(_parse_states(odd, 0)), _loop_parse_states(odd, 0))


_FAULTS = {   # fault -> (field index, faulty value, the start of the message it gets)
    "length": (None, None, "expected 8 fields, got 3"),
    "padding": (2, 2, "padding must be 0 or 1"),
    "type": (4, 7, "type must be a string"),
    "x": (0, "a", "x must be a number (could not convert string to float: 'a')"),
    "vy": (7, [1, 2], "vy must be a number (setting an array element with a sequence"),
    "heading": (5, {}, "heading must be a number"),
    "category": (3, "z", "category must be an integer (invalid literal for int()"),
}


@pytest.mark.parametrize("first", list(_FAULTS))
def test_a_bad_state_row_names_agent_state_and_field(first):
    # two faulty rows: the message names the earlier one, whatever the later one holds
    from laneformer.scenario import _parse_states
    doc = scenario_to_dict(_small_scenario())
    for second in _FAULTS:
        states = json.loads(json.dumps(doc["agents"][1]["states"]))
        for row, fault in ((3, second), (1, first)):
            field, value, _ = _FAULTS[fault]
            if field is None:
                states[row] = states[row][:3]
            else:
                states[row][field] = value
        want = f"agent 1 state 1: {_FAULTS[first][2]}"
        with pytest.raises(ValueError) as err:
            _parse_states(states, 1)
        assert str(err.value).startswith(want), (first, second, str(err.value))
        if first in ("length", "padding", "type"):   # the loop's messages are kept as they were
            with pytest.raises(ValueError) as loop_err:
                _loop_parse_states(states, 1)
            assert str(err.value) == str(loop_err.value)
