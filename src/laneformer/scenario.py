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

import itertools
import json
import numbers
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
    "read_json",
    "save_scenario",
    "write_csv",
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


def _agent_arrays(agents) -> tuple:
    """The agents' positions and velocities (N_a, T, 2), headings and padding (N_a, T)."""
    return (np.array([a.positions for a in agents]), np.array([a.velocities for a in agents]),
            np.array([a.headings for a in agents]), np.array([a.padding for a in agents]))


def _first_offender(flags: np.ndarray):
    """(index, check) of the first True column of a (checks, items) array, or None."""
    if not flags.any():
        return None
    i = int(np.flatnonzero(flags.any(axis=0))[0])
    return i, int(np.argmax(flags[:, i]))


def _check_lanes(lanes) -> None:
    """Per lane: a repeated id, an unknown type, a non-finite node, two equal consecutive nodes."""
    first_index = {}
    flags = np.zeros((4, len(lanes)), dtype=bool)
    flags[0] = [first_index.setdefault(l.lane_id, i) != i for i, l in enumerate(lanes)]
    flags[1] = [l.lane_type not in LANE_TYPES for l in lanes]
    nodes = np.concatenate([l.centerline for l in lanes])
    lane_of = np.repeat(np.arange(len(lanes)), [len(l.centerline) for l in lanes])
    flags[2, lane_of[~np.isfinite(nodes).all(axis=1)]] = True
    with np.errstate(invalid="ignore"):   # inf - inf at a non-finite node, flagged above
        repeated = np.linalg.norm(np.diff(nodes, axis=0), axis=1) == 0.0
    flags[3, lane_of[1:][repeated & (lane_of[1:] == lane_of[:-1])]] = True
    found = _first_offender(flags)
    if found:
        l = lanes[found[0]]
        raise ValueError((f"duplicate lane id {l.lane_id}",
                          f"lane {l.lane_id}: unknown lane type {l.lane_type!r}",
                          f"lane {l.lane_id}: non-finite centerline",
                          f"lane {l.lane_id}: consecutive centerline nodes not distinct",
                          )[found[1]])


def _check_agents(agents) -> None:
    """Per agent: a history length unlike agent 0's, an unknown type, then a
    non-finite position, velocity or heading at an observed step."""
    t = agents[0].t_history
    lengths = np.array([a.t_history for a in agents])
    mismatched = np.flatnonzero(lengths != t)
    kept = agents[:mismatched[0]] if len(mismatched) else agents
    positions, velocities, headings, padding = _agent_arrays(kept)
    # padded steps are ignored downstream, so only observed ones must be finite
    bad = {"positions": padding & ~np.isfinite(positions).all(axis=2),
           "velocities": padding & ~np.isfinite(velocities).all(axis=2),
           "headings": padding & ~np.isfinite(headings)}
    found = _first_offender(np.array(
        [[a.agent_type not in AGENT_TYPES for a in kept], *(b.any(axis=1) for b in bad.values())]))
    if found:
        i, check = found
        if check == 0:
            raise ValueError(f"agent {i}: unknown agent type {kept[i].agent_type!r}")
        name, steps = list(bad.items())[check - 1]
        raise ValueError(
            f"agent {i}: non-finite {name} at observed step {int(np.flatnonzero(steps[i])[0])}")
    if len(mismatched):
        i = int(mismatched[0])
        raise ValueError(f"history length mismatch: agent {i} has {lengths[i]}, expected {t}")


def validate_scenario(sc: Scenario) -> None:
    """Raise ValueError on any structural invariant violation.

    Lanes and agents are checked as stacked arrays; a message names the
    first offending lane or agent in storage order, and its first failing
    check in the order the checks are listed.
    """
    if not sc.lanes:
        raise ValueError("no lanes")
    if not sc.agents:
        raise ValueError("no agents")
    _check_lanes(sc.lanes)
    lane_ids = {l.lane_id for l in sc.lanes}

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

    _check_agents(sc.agents)

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


def _floats(values, n: int) -> np.ndarray:
    """n scalars as float64, converted as assigning each to a float64 array would."""
    return np.fromiter(values, dtype=np.float64, count=n)


def _parse_states(states, agent_idx: int) -> AgentHistory:
    """One agent's rows [x, y, padding, category, type, heading, vx, vy].

    Each field is read as a column. If any row is faulty, _raise_state_fault
    names the first fault in row order.
    """
    t = len(states)
    if t == 0:
        raise ValueError(f"agent {agent_idx}: empty states array")
    try:
        if set(map(len, states)) != {8}:
            raise ValueError("a row without 8 fields")
        x, y, pad, cat, typ, heading, vx, vy = zip(*states)
        if not set(pad) <= {0, 1} or not all(map(isinstance, typ, itertools.repeat(str))):
            raise ValueError("a padding flag or a type out of range")
        positions = np.stack([_floats(x, t), _floats(y, t)], axis=1)
        velocities = np.stack([_floats(vx, t), _floats(vy, t)], axis=1)
        headings = _floats(heading, t)
        # every row's category must be an integer; the last row's is kept
        category = list(map(int, cat))[-1]
    except (TypeError, ValueError, OverflowError):
        _raise_state_fault(states, agent_idx)
        raise
    return AgentHistory(positions=positions, velocities=velocities, headings=headings,
                        padding=np.fromiter(pad, dtype=bool, count=t), category=category,
                        agent_type=typ[-1])


def _raise_state_fault(states, agent_idx: int) -> None:
    """Raise the first fault of an agent's state rows, row by row and, within
    a row, field count, padding, type, x, y, vx, vy, heading, category."""
    for row_idx, row in enumerate(states):
        where = f"agent {agent_idx} state {row_idx}"
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"{where}: expected an array of 8 fields, got {_json_kind(row)}")
        if len(row) != 8:
            raise ValueError(f"{where}: expected 8 fields, got {len(row)}")
        x, y, pad, cat, typ, heading, vx, vy = row
        if pad not in (0, 1):
            raise ValueError(f"{where}: padding must be 0 or 1")
        if not isinstance(typ, str):
            raise ValueError(f"{where}: type must be a string")
        for name, value in (("x", x), ("y", y), ("vx", vx), ("vy", vy), ("heading", heading)):
            try:
                _floats([value], 1)
            except (TypeError, ValueError, OverflowError) as e:
                raise ValueError(f"{where}: {name} must be a number ({e})") from None
        try:
            int(cat)
        except (TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"{where}: category must be an integer ({e})") from None


_JSON_KINDS = {"an object": dict, "an array": list, "an integer": numbers.Integral,
               "a string": str}


def _json_kind(value) -> str:
    """The JSON name of a decoded value's type, for messages."""
    kinds = {"null": type(None), "a boolean": bool, **_JSON_KINDS, "a number": numbers.Real}
    return next((k for k, t in kinds.items() if isinstance(value, t)), type(value).__name__)


def _expect(value, kind: str, where: str):
    """`value` if its JSON type is `kind`, a key of _JSON_KINDS; otherwise a
    ValueError naming `where`. A boolean is not an integer."""
    if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[kind]):
        raise ValueError(f"{where}: expected {kind}, got {_json_kind(value)}")
    return value


def _numbers(value, where: str) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as a float64 array."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: expected a rectangular array of numbers") from None


def _pair(row, width: int, where: str) -> tuple:
    """A connectivity row: two lane ids, then for a lateral pair its marking."""
    if not isinstance(row, list) or len(row) != width:
        form = "[lane, lane]" if width == 2 else "[lane, lane, marking]"
        raise ValueError(f"{where}: expected {form}, got {_json_kind(row)}")
    ids = tuple(int(_expect(v, "an integer", where)) for v in row[:2])
    return ids + tuple(_expect(v, "a string", where) for v in row[2:])


def scenario_from_dict(doc: dict, name: str = "") -> Scenario:
    """A Scenario from a decoded scenario document. Each field's JSON type is
    checked where it is read, and a wrong one is a ValueError naming the field."""
    _expect(doc, "an object", "scenario")
    for key in ("lanes", "connectivity", "agents", "targets"):
        if key not in doc:
            raise ValueError(f"missing field {key!r}")
    lanes = []
    for i, l in enumerate(_expect(doc["lanes"], "an array", "lanes")):
        _expect(l, "an object", f"lane {i}")
        for key in ("id", "type", "centerline"):
            if key not in l:
                raise ValueError(f"lane {i}: missing field {key!r}")
        lanes.append(Lane(lane_id=int(_expect(l["id"], "an integer", f"lane {i} id")),
                          lane_type=l["type"],
                          centerline=_numbers(l["centerline"], f"lane {i} centerline")))
    conn_doc = _expect(doc["connectivity"], "an object", "connectivity")
    pairs = {}
    for key, width in (("successors", 2), ("predecessors", 2), ("left", 3), ("right", 3)):
        rows = _expect(conn_doc.get(key, []), "an array", f"connectivity {key}")
        pairs[key] = [_pair(row, width, f"connectivity {key} {j}") for j, row in enumerate(rows)]
    agents = []
    for i, a in enumerate(_expect(doc["agents"], "an array", "agents")):
        states = _expect(a, "an object", f"agent {i}").get("states", [])
        agents.append(_parse_states(_expect(states, "an array", f"agent {i} states"), i))
    targets = [int(_expect(t, "an integer", f"target {j}"))
               for j, t in enumerate(_expect(doc["targets"], "an array", "targets"))]
    gt = doc.get("ground_truth")
    return Scenario(
        lanes=lanes,
        connectivity=LaneConnectivity(**pairs),
        agents=agents,
        target_ids=targets,
        ground_truth=None if gt is None else _numbers(gt, "ground_truth"),
        name=name,
    )


def read_json(path):
    """A JSON file's document; text that is not UTF-8 JSON is a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{e.lineno}: parse error: {e.msg}") from None
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text ({e.reason})") from None


def parse_scenario(path) -> Scenario:
    """Load and fully validate one scenario file."""
    import os

    doc = read_json(path)
    try:
        sc = scenario_from_dict(doc, name=os.path.splitext(os.path.basename(path))[0])
        validate_scenario(sc)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return sc


def save_scenario(path, sc: Scenario) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(sc), fh)


def write_csv(path, cols, rows) -> None:
    """A header line of `cols`, then one line per row dict: a float cell,
    numpy scalars included, as repr(float(v)), which parses back to the
    same float, and any other cell as str(v)."""
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(row[c])) if isinstance(row[c], (float, np.floating))
                              else str(row[c]) for c in cols) + "\n")


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
    to every lane node, valid agent state, and ground-truth point, each kind
    moved as one stacked array, so the agents share one history length (as
    validate_scenario requires). Padded steps come out exactly zero.
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

    positions, velocities, headings, padding = _agent_arrays(sc.agents)
    mask = padding[..., None]
    positions = np.where(mask, (positions - origin) @ rot.T, 0.0)
    velocities = np.where(mask, velocities @ rot.T, 0.0)
    headings = np.where(padding, headings - h0, 0.0)
    agents = [AgentHistory(positions=positions[i], velocities=velocities[i],
                           headings=headings[i], padding=padding[i],
                           category=a.category, agent_type=a.agent_type)
              for i, a in enumerate(sc.agents)]
    nodes = (np.concatenate([l.centerline for l in sc.lanes] or [np.empty((0, 2))])
             - origin) @ rot.T
    ends = np.cumsum([len(l.centerline) for l in sc.lanes]).tolist()
    lanes = [Lane(lane_id=l.lane_id, lane_type=l.lane_type,
                  centerline=nodes[end - len(l.centerline):end])
             for l, end in zip(sc.lanes, ends)]
    gt = None if sc.ground_truth is None else (
        (np.asarray(sc.ground_truth, dtype=np.float64) - origin) @ rot.T)
    conn = LaneConnectivity(
        successors=list(sc.connectivity.successors),
        predecessors=list(sc.connectivity.predecessors),
        left=list(sc.connectivity.left),
        right=list(sc.connectivity.right),
    )
    return Scenario(lanes=lanes, connectivity=conn, agents=agents,
                    target_ids=list(sc.target_ids), ground_truth=gt, name=sc.name)


# Polylines are handled as one (N, P, 2) array. Ragged ones are padded with
# copies of their last node, which add no arc length and change no
# interpolation below.


def _stack_polylines(polylines) -> np.ndarray:
    """(N, P_max, 2): the polylines, each padded with copies of its last node."""
    counts = [len(p) for p in polylines]
    if min(counts) == max(counts):
        return np.array(polylines, dtype=np.float64)
    counts = np.array(counts)
    starts = np.cumsum(counts) - counts
    nodes = np.concatenate(polylines).astype(np.float64, copy=False)
    return nodes[starts[:, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)]


def _arc_lengths(points: np.ndarray) -> np.ndarray:
    """(N, P) cumulative arc length along each of (N, P, 2) polylines."""
    step = points[:, 1:] - points[:, :-1]
    s = np.zeros(points.shape[:2])
    # segment lengths summed and rooted as np.linalg.norm(..., axis=2) does
    np.cumsum(np.sqrt((step * step).sum(axis=2)), axis=1, out=s[:, 1:])
    return s


def _interp(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x[i], xp[i], fp[i, :, c]) for each row i and coordinate c.

    x is (N, k), the knots xp (N, P) ascend (repeats allowed) and fp is
    (N, P, 2). For finite knots this takes np.interp's segment (the last
    knot not above x), its end values and its arithmetic, so it rounds the
    same; both coordinates share the segment search. Like np.interp, x at
    the last knot takes the last value, also where that knot repeats.
    """
    rows = np.arange(len(xp))[:, None]
    # the inner knots not above x: np.interp's segment, clipped to the first and last
    j = (xp[:, None, 1:-1] <= x[:, :, None]).sum(axis=2)
    k = j + 1
    x, x0, x1 = x[..., None], xp[rows, j][..., None], xp[rows, k][..., None]
    f0, f1 = fp[rows, j], fp[rows, k]
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = (f1 - f0) / (x1 - x0) * (x - x0) + f0
    return np.where(x == xp[:, -1:, None], fp[:, -1:],
                    np.where(x <= x0, f0, np.where(x >= x1, f1, inner)))


def _resample(points: np.ndarray, n: int) -> np.ndarray:
    """(N, n, 2): each of (N, P, 2) polylines at n points uniform in arc length."""
    s = _arc_lengths(points)
    total = s[:, -1:]
    # np.linspace(0, total, n) lane by lane, its step-underflow branch included
    step = total / (n - 1)
    u = np.where(step == 0, np.arange(n) / (n - 1) * total, np.arange(n) * step)
    u[:, -1] = total[:, 0]
    return np.where(total[..., None] == 0.0, points[:, :1], _interp(u, s, points))


def _midpoints(points: np.ndarray) -> np.ndarray:
    """(N, 2): the point halfway along each of (N, P, 2) polylines' arc length."""
    s = _arc_lengths(points)
    total = s[:, -1:]
    return np.where(total == 0.0, points[:, 0], _interp(0.5 * total, s, points)[:, 0])


def resample_centerline(points: np.ndarray, n: int) -> np.ndarray:
    """Resample a polyline to n points spaced uniformly in arc length."""
    points = np.asarray(points, dtype=np.float64)
    if n < 2:
        raise ValueError(f"need n >= 2 resample points, got {n}")
    if points.ndim != 2 or points.shape[1] != 2 or len(points) < 2:
        raise ValueError("polyline must be (P, 2) with P >= 2")
    return _resample(points[None], n)[0]


def resample_lanes(sc: Scenario, n: int) -> Scenario:
    """The scenario with every lane resampled to n nodes; the rest is shared.

    The new centerlines are rows of one (N_l, n, 2) array.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 resample points, got {n}")
    if not sc.lanes:
        return replace(sc, lanes=[])
    nodes = _resample(_stack_polylines([l.centerline for l in sc.lanes]), n)
    return replace(sc, lanes=[Lane(lane_id=l.lane_id, lane_type=l.lane_type, centerline=c)
                              for l, c in zip(sc.lanes, nodes)])


def arc_length_midpoint(points: np.ndarray) -> np.ndarray:
    """Point halfway along the polyline's total arc length (interpolated)."""
    points = np.asarray(points, dtype=np.float64)
    if len(points) < 2:
        return points[0].copy()
    return _midpoints(points[None])[0]


def finite_difference_velocities(positions: np.ndarray, dt: float) -> np.ndarray:
    """Central-difference velocity estimates along the step axis of (..., T, 2)
    positions, one-sided at the ends."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape[-2] < 2:
        raise ValueError("need at least 2 steps for finite differences")
    v = np.empty_like(positions)
    v[..., 1:-1, :] = (positions[..., 2:, :] - positions[..., :-2, :]) / (2.0 * dt)
    v[..., 0, :] = (positions[..., 1, :] - positions[..., 0, :]) / dt
    v[..., -1, :] = (positions[..., -1, :] - positions[..., -2, :]) / dt
    return v
