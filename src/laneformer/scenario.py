"""Scene data model: lanes, connectivity, agent histories, normalization.

A scenario file is one JSON document. Lanes carry raw centerline polylines;
connectivity is stored as directed pair lists (plus boundary-typed lateral
pairs); each agent is a fixed-length history of per-step state rows
[x, y, padding, category, type, heading, vx, vy] where padding is 1 for a
real observation and 0 for a missing step whose kinematic fields consumers
must ignore. Targets are agent indices. Ground truth, when present, holds
one future polyline per agent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "AGENT_TYPES",
    "LANE_TYPES",
    "BOUNDARY_TYPES",
    "AgentHistory",
    "Lane",
    "LaneConnectivity",
    "Scenario",
    "validate_scenario",
    "parse_scenario",
    "save_scenario",
    "scenario_to_dict",
    "scenario_from_dict",
    "normalize_scenario",
    "rotation",
    "resample_centerline",
    "resample_lanes",
    "arc_length_midpoint",
    "finite_difference_velocities",
    "lane_index_map",
]

AGENT_TYPES = ("vehicle", "pedestrian", "cyclist", "other")
LANE_TYPES = ("vehicle", "bus", "bike", "other")
BOUNDARY_TYPES = ("solid", "dashed", "double_solid", "none")


@dataclass
class AgentHistory:
    """One agent's T observed steps.

    positions/velocities are (T, 2), headings (T,), padding (T,) with True
    for real observations. category is a small importance label in [0, 3].
    """

    positions: np.ndarray
    velocities: np.ndarray
    headings: np.ndarray
    padding: np.ndarray
    category: int = 0
    agent_type: str = "vehicle"

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.velocities = np.asarray(self.velocities, dtype=np.float64)
        self.headings = np.asarray(self.headings, dtype=np.float64)
        self.padding = np.asarray(self.padding, dtype=bool)
        t = self.positions.shape[0]
        if self.positions.shape != (t, 2) or self.velocities.shape != (t, 2):
            raise ValueError("agent positions/velocities must be (T, 2)")
        if self.headings.shape != (t,) or self.padding.shape != (t,):
            raise ValueError("agent headings/padding must be (T,)")
        if not 0 <= int(self.category) <= 3:
            raise ValueError(f"agent category {self.category} outside [0, 3]")

    @property
    def t_history(self) -> int:
        return self.positions.shape[0]


@dataclass
class Lane:
    lane_id: int
    lane_type: str
    centerline: np.ndarray

    def __post_init__(self):
        self.centerline = np.asarray(self.centerline, dtype=np.float64)
        if self.centerline.ndim != 2 or self.centerline.shape[1] != 2 or len(self.centerline) < 2:
            raise ValueError(f"lane {self.lane_id}: centerline must be (P, 2) with P >= 2")


@dataclass
class LaneConnectivity:
    """Directed relation pairs (lane, relative) plus typed lateral pairs.

    (a, b) in successors means b follows a; predecessors is the reversed
    relation. (a, b, t) in left means b lies left of a across boundary
    marking t; right mirrors it.
    """

    successors: list = field(default_factory=list)
    predecessors: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)


@dataclass
class Scenario:
    lanes: list
    connectivity: LaneConnectivity
    agents: list
    target_ids: list
    ground_truth: np.ndarray | None = None
    name: str = ""

    @property
    def t_history(self) -> int:
        return self.agents[0].t_history if self.agents else 0


def lane_index_map(sc: Scenario) -> dict:
    return {l.lane_id: i for i, l in enumerate(sc.lanes)}


def validate_scenario(sc: Scenario) -> None:
    """Raise ValueError on any structural invariant violation."""
    if not sc.lanes:
        raise ValueError("no lanes")
    if not sc.agents:
        raise ValueError("no agents")

    lane_ids = set()
    for l in sc.lanes:
        if l.lane_id in lane_ids:
            raise ValueError(f"duplicate lane id {l.lane_id}")
        lane_ids.add(l.lane_id)
        if l.lane_type not in LANE_TYPES:
            raise ValueError(f"lane {l.lane_id}: unknown lane type {l.lane_type!r}")
        if not np.isfinite(l.centerline).all():
            raise ValueError(f"lane {l.lane_id}: non-finite centerline")
        if (np.linalg.norm(np.diff(l.centerline, axis=0), axis=1) == 0.0).any():
            raise ValueError(f"lane {l.lane_id}: consecutive centerline nodes not distinct")

    def check_pair(a, b, relation):
        if a not in lane_ids:
            raise ValueError(f"unknown lane {a} in {relation} pair")
        if b not in lane_ids:
            raise ValueError(f"unknown lane {b} in {relation} pair")
        if a == b:
            raise ValueError(f"self-pair {a} in {relation}")

    conn = sc.connectivity
    for a, b in conn.successors:
        check_pair(a, b, "successor")
    for a, b in conn.predecessors:
        check_pair(a, b, "predecessor")
    if {(b, a) for a, b in conn.successors} != set(map(tuple, conn.predecessors)):
        raise ValueError("predecessor pairs are not the reverse of successor pairs")
    for a, b, _marking in conn.left:
        check_pair(a, b, "left")
    for a, b, _marking in conn.right:
        check_pair(a, b, "right")

    t = sc.agents[0].t_history
    for i, a in enumerate(sc.agents):
        if a.t_history != t:
            raise ValueError(
                f"history length mismatch: agent {i} has {a.t_history}, expected {t}")
        if a.agent_type not in AGENT_TYPES:
            raise ValueError(f"agent {i}: unknown agent type {a.agent_type!r}")
        # padded steps are ignored downstream, so only observed ones must be finite
        for name in ("positions", "velocities", "headings"):
            values = getattr(a, name).reshape(a.t_history, -1)
            bad = a.padding & ~np.isfinite(values).all(axis=1)
            if bad.any():
                raise ValueError(
                    f"agent {i}: non-finite {name} at observed step {int(np.flatnonzero(bad)[0])}")

    if not sc.target_ids:
        raise ValueError("no target agents")
    for idx in sc.target_ids:
        if not 0 <= idx < len(sc.agents):
            raise ValueError(f"target index {idx} out of range for {len(sc.agents)} agents")

    if sc.ground_truth is not None:
        gt = np.asarray(sc.ground_truth, dtype=np.float64)
        if gt.ndim != 3 or gt.shape[0] != len(sc.agents) or gt.shape[2] != 2:
            raise ValueError(
                f"ground truth must be (N_agents, T_future, 2), got {gt.shape}")
        bad = ~np.isfinite(gt).all(axis=(1, 2))
        if bad.any():
            raise ValueError(f"agent {int(np.flatnonzero(bad)[0])}: non-finite ground truth")


# ---------------------------------------------------------------------------
# serialization


def scenario_to_dict(sc: Scenario) -> dict:
    doc = {
        "lanes": [{
            "id": l.lane_id,
            "type": l.lane_type,
            "centerline": l.centerline.tolist(),
        } for l in sc.lanes],
        "connectivity": {
            "successors": [list(p) for p in sc.connectivity.successors],
            "predecessors": [list(p) for p in sc.connectivity.predecessors],
            "left": [[a, b, t] for a, b, t in sc.connectivity.left],
            "right": [[a, b, t] for a, b, t in sc.connectivity.right],
        },
        "agents": [{
            "states": [
                [float(a.positions[t, 0]), float(a.positions[t, 1]),
                 int(a.padding[t]), int(a.category), a.agent_type,
                 float(a.headings[t]), float(a.velocities[t, 0]),
                 float(a.velocities[t, 1])]
                for t in range(a.t_history)
            ],
        } for a in sc.agents],
        "targets": [int(i) for i in sc.target_ids],
    }
    if sc.ground_truth is not None:
        doc["ground_truth"] = np.asarray(sc.ground_truth).tolist()
    return doc


def _parse_states(states, agent_idx: int) -> AgentHistory:
    t = len(states)
    if t == 0:
        raise ValueError(f"agent {agent_idx}: empty states array")
    positions = np.zeros((t, 2))
    velocities = np.zeros((t, 2))
    headings = np.zeros(t)
    padding = np.zeros(t, dtype=bool)
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
    return AgentHistory(positions=positions, velocities=velocities, headings=headings,
                        padding=padding, category=category, agent_type=agent_type)


def scenario_from_dict(doc: dict, name: str = "") -> Scenario:
    for key in ("lanes", "connectivity", "agents", "targets"):
        if key not in doc:
            raise ValueError(f"missing field {key!r}")
    lanes = []
    for i, l in enumerate(doc["lanes"]):
        for key in ("id", "type", "centerline"):
            if key not in l:
                raise ValueError(f"lane {i}: missing field {key!r}")
        lanes.append(Lane(lane_id=int(l["id"]), lane_type=l["type"],
                          centerline=l["centerline"]))
    conn_doc = doc["connectivity"]
    conn = LaneConnectivity(
        successors=[(int(a), int(b)) for a, b in conn_doc.get("successors", [])],
        predecessors=[(int(a), int(b)) for a, b in conn_doc.get("predecessors", [])],
        left=[(int(a), int(b), t) for a, b, t in conn_doc.get("left", [])],
        right=[(int(a), int(b), t) for a, b, t in conn_doc.get("right", [])],
    )
    agents = [_parse_states(a.get("states", []), i) for i, a in enumerate(doc["agents"])]
    gt = doc.get("ground_truth")
    return Scenario(
        lanes=lanes,
        connectivity=conn,
        agents=agents,
        target_ids=[int(i) for i in doc["targets"]],
        ground_truth=None if gt is None else np.asarray(gt, dtype=np.float64),
        name=name,
    )


def parse_scenario(path) -> Scenario:
    """Load and fully validate one scenario file."""
    import os

    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{e.lineno}: parse error: {e.msg}") from None
    try:
        sc = scenario_from_dict(doc, name=os.path.splitext(os.path.basename(path))[0])
        validate_scenario(sc)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return sc


def save_scenario(path, sc: Scenario) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(sc), fh)


# ---------------------------------------------------------------------------
# geometry


def rotation(angle: float) -> np.ndarray:
    """2x2 matrix turning column vectors counterclockwise by angle radians."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def normalize_scenario(sc: Scenario, target: int) -> Scenario:
    """Re-express the scenario in the target agent's frame at the last step.

    The target's current position (history row T-1, "t = 0") moves to the
    origin and its heading there becomes zero. The same rigid motion applies
    to every lane node, valid agent state, and ground-truth point. Padded
    steps come out exactly zero.
    """
    if not 0 <= target < len(sc.agents):
        raise ValueError(f"target index {target} out of range")
    tgt = sc.agents[target]
    ref = tgt.t_history - 1
    if not tgt.padding[ref]:
        raise ValueError(f"target unobserved at reference time (agent {target})")
    origin = tgt.positions[ref].copy()
    h0 = float(tgt.headings[ref])
    rot = rotation(-h0)

    def move_points(p):
        return (p - origin) @ rot.T

    def move_vectors(v):
        return v @ rot.T

    agents = []
    for a in sc.agents:
        valid = a.padding.copy()
        mask = valid[:, None]
        agents.append(AgentHistory(
            positions=np.where(mask, move_points(a.positions), 0.0),
            velocities=np.where(mask, move_vectors(a.velocities), 0.0),
            headings=np.where(valid, a.headings - h0, 0.0),
            padding=valid,
            category=a.category,
            agent_type=a.agent_type,
        ))
    lanes = [Lane(lane_id=l.lane_id, lane_type=l.lane_type,
                  centerline=move_points(l.centerline)) for l in sc.lanes]
    gt = None if sc.ground_truth is None else np.stack(
        [move_points(g) for g in sc.ground_truth])
    conn = LaneConnectivity(
        successors=list(sc.connectivity.successors),
        predecessors=list(sc.connectivity.predecessors),
        left=list(sc.connectivity.left),
        right=list(sc.connectivity.right),
    )
    return Scenario(lanes=lanes, connectivity=conn, agents=agents,
                    target_ids=list(sc.target_ids), ground_truth=gt, name=sc.name)


def _cumulative_arc_length(points: np.ndarray) -> np.ndarray:
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def resample_centerline(points: np.ndarray, n: int) -> np.ndarray:
    """Resample a polyline to n points spaced uniformly in arc length."""
    points = np.asarray(points, dtype=np.float64)
    if n < 2:
        raise ValueError(f"need n >= 2 resample points, got {n}")
    if points.ndim != 2 or points.shape[1] != 2 or len(points) < 2:
        raise ValueError("polyline must be (P, 2) with P >= 2")
    s = _cumulative_arc_length(points)
    if s[-1] == 0.0:
        return np.tile(points[0], (n, 1))
    u = np.linspace(0.0, s[-1], n)
    return np.column_stack([np.interp(u, s, points[:, 0]), np.interp(u, s, points[:, 1])])


def resample_lanes(sc: Scenario, n: int) -> Scenario:
    """The scenario with every lane resampled to n nodes; the rest is shared."""
    return replace(sc, lanes=[replace(l, centerline=resample_centerline(l.centerline, n))
                              for l in sc.lanes])


def arc_length_midpoint(points: np.ndarray) -> np.ndarray:
    """Point halfway along the polyline's total arc length (interpolated)."""
    points = np.asarray(points, dtype=np.float64)
    s = _cumulative_arc_length(points)
    if s[-1] == 0.0:
        return points[0].copy()
    half = 0.5 * s[-1]
    return np.array([np.interp(half, s, points[:, 0]), np.interp(half, s, points[:, 1])])


def finite_difference_velocities(positions: np.ndarray, dt: float) -> np.ndarray:
    """Central-difference velocity estimates, one-sided at the ends."""
    positions = np.asarray(positions, dtype=np.float64)
    t = positions.shape[0]
    if t < 2:
        raise ValueError("need at least 2 steps for finite differences")
    v = np.empty_like(positions)
    v[1:-1] = (positions[2:] - positions[:-2]) / (2.0 * dt)
    v[0] = (positions[1] - positions[0]) / dt
    v[-1] = (positions[-1] - positions[-2]) / dt
    return v
