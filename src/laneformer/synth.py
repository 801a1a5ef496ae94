"""Synthetic scenario generation for five small road layouts.

Each dataset fixes one topology template and one target speed profile; the
per-scenario randomness (routes, start offsets, surrounding traffic, noise)
comes from a seed sequence keyed by (config seed, scenario index). Agents
follow lane centerlines exactly, so at zero noise every trajectory point
lies on the map and stored velocities equal central differences of stored
positions. Histories span 50 steps and futures 60 at 10 Hz.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .config import Config, setting
from .scenario import (
    BOUNDARY_TYPES,
    AgentHistory,
    Lane,
    LaneConnectivity,
    Scenario,
    finite_difference_velocities,
    parse_scenario,
    read_json,
    save_scenario,
    validate_scenario,
)

__all__ = [
    "DT",
    "T_HISTORY",
    "T_FUTURE",
    "TEMPLATES",
    "SPEED_PROFILES",
    "GeneratorConfig",
    "generate_lane_graph",
    "generate_agents",
    "generate_scenario",
    "generate_dataset",
    "emit_dataset",
    "load_dataset",
    "sha256_file",
]

DT = 0.1
T_HISTORY = 50
T_FUTURE = 60

TEMPLATES = ("straight", "fork", "merge", "intersection", "grid")
SPEED_PROFILES = ("constant", "rapid_decel", "rapid_accel")


@dataclass
class GeneratorConfig(Config):
    seed: int = setting(0, at_least=0)
    template: str = setting("straight", choices=TEMPLATES)
    lane_length: float = setting(50.0, above=0)     # meters per straight segment
    lane_spacing: float = setting(3.5, above=0)     # lateral gap between parallel lanes
    agent_count: int = setting(3, at_least=1)       # total agents, target included
    speed_profile: str = setting("constant", choices=SPEED_PROFILES)
    noise_sigma: float = setting(0.05, at_least=0)  # history-only position noise, meters


# ---------------------------------------------------------------------------
# geometry helpers


def _line(start, direction, length, step=5.0) -> np.ndarray:
    n = max(2, int(round(length / step)) + 1)
    start = np.asarray(start, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    direction = direction / np.linalg.norm(direction)
    return start + np.linspace(0.0, length, n)[:, None] * direction


def _arc(center, radius, phi0, phi1, step_deg=6.0) -> np.ndarray:
    n = max(3, int(abs(phi1 - phi0) / np.radians(step_deg)) + 1)
    phi = np.linspace(phi0, phi1, n)
    return np.asarray(center) + radius * np.column_stack([np.cos(phi), np.sin(phi)])


def _marking(i: int) -> str:
    return BOUNDARY_TYPES[i % len(BOUNDARY_TYPES)]


def _link(conn: LaneConnectivity, a: int, b: int) -> None:
    conn.successors.append((a, b))
    conn.predecessors.append((b, a))


def _chain(conn: LaneConnectivity, ids) -> None:
    for a, b in zip(ids, ids[1:]):
        _link(conn, a, b)


def _lateral(conn: LaneConnectivity, lane: int, left_of: int, marking: str) -> None:
    # left_of lies to lane's left; the reverse pair is a right relation
    conn.left.append((lane, left_of, marking))
    conn.right.append((left_of, lane, marking))


def _build_straight(cfg: GeneratorConfig):
    length, w = cfg.lane_length, cfg.lane_spacing
    lanes, conn = [], LaneConnectivity()
    rows = 3
    for r in range(rows):
        ids = []
        for s in range(3):
            lid = r * 3 + s
            lanes.append(Lane(lid, "vehicle", _line((s * length, r * w), (1, 0), length)))
            ids.append(lid)
        _chain(conn, ids)
    for r in range(rows - 1):
        for s in range(3):
            _lateral(conn, r * 3 + s, (r + 1) * 3 + s, _marking(r + s))
    return lanes, conn


def _build_fork(cfg: GeneratorConfig):
    length, w = cfg.lane_length, cfg.lane_spacing
    lanes, conn = [], LaneConnectivity()
    # left escort row (0..2) and right main row (3, 4) that forks after lane 4
    for s in range(3):
        lanes.append(Lane(s, "vehicle", _line((s * length, w), (1, 0), length)))
    _chain(conn, [0, 1, 2])
    for s in range(2):
        lanes.append(Lane(3 + s, "vehicle", _line((s * length, 0), (1, 0), length)))
    _chain(conn, [3, 4])
    straight_dir = np.array([1.0, 0.0])
    fork_dir = np.array([np.cos(-0.3), np.sin(-0.3)])
    start = np.array([2 * length, 0.0])
    lanes.append(Lane(5, "vehicle", _line(start, straight_dir, length)))
    lanes.append(Lane(6, "vehicle", _line(start + straight_dir * length, straight_dir, length)))
    _link(conn, 4, 5)
    _chain(conn, [5, 6])
    lanes.append(Lane(7, "vehicle", _line(start, fork_dir, length)))
    lanes.append(Lane(8, "vehicle", _line(start + fork_dir * length, fork_dir, length)))
    _link(conn, 4, 7)
    _chain(conn, [7, 8])
    _lateral(conn, 3, 0, "dashed")
    _lateral(conn, 4, 1, _marking(1))
    _lateral(conn, 5, 2, _marking(2))
    return lanes, conn


def _build_merge(cfg: GeneratorConfig):
    length = cfg.lane_length
    lanes, conn = [], LaneConnectivity()
    for s in range(2):
        lanes.append(Lane(s, "vehicle", _line((s * length, 0), (1, 0), length)))
    _chain(conn, [0, 1])
    for s in range(2):
        lanes.append(Lane(2 + s, "vehicle",
                          _line(((2 + s) * length, 0), (1, 0), length)))
    _chain(conn, [2, 3])
    _link(conn, 1, 2)
    alpha = 0.18
    ramp_dir = np.array([np.cos(-alpha), np.sin(-alpha)])
    join = np.array([2 * length, 0.0])
    ramp_start = join - 2 * length * ramp_dir
    lanes.append(Lane(4, "vehicle", _line(ramp_start, ramp_dir, length)))
    lanes.append(Lane(5, "vehicle", _line(ramp_start + ramp_dir * length, ramp_dir, length)))
    _chain(conn, [4, 5])
    _link(conn, 5, 2)
    _lateral(conn, 1, 5, "dashed")
    return lanes, conn


def _build_intersection(cfg: GeneratorConfig):
    length, w = cfg.lane_length, cfg.lane_spacing
    box = 4.0 * w
    radius = box / 2.0
    lanes, conn = [], LaneConnectivity()
    for s in range(2):
        lanes.append(Lane(s, "vehicle", _line((s * length, 0), (1, 0), length)))
    _chain(conn, [0, 1])
    entry = np.array([2 * length, 0.0])
    lanes.append(Lane(2, "vehicle", _line(entry, (1, 0), box)))            # through
    lanes.append(Lane(3, "vehicle",
                      _arc(entry + (0, radius), radius, -np.pi / 2, 0.0)))  # left turn
    _link(conn, 1, 2)
    _link(conn, 1, 3)
    east = entry + (box, 0)
    for s in range(2):
        lanes.append(Lane(4 + s, "vehicle", _line(east + (s * length, 0), (1, 0), length)))
    _chain(conn, [4, 5])
    _link(conn, 2, 4)
    north = entry + (radius, radius)
    for s in range(2):
        lanes.append(Lane(6 + s, "vehicle", _line(north + (0, s * length), (0, 1), length)))
    _chain(conn, [6, 7])
    _link(conn, 3, 6)
    return lanes, conn


def _build_grid(cfg: GeneratorConfig):
    length = cfg.lane_length
    d = 2 * length
    lanes, conn = [], LaneConnectivity()
    # southern and northern eastbound streets, two northbound cross streets
    a = [0, 1, 2]
    for s in a:
        lanes.append(Lane(s, "vehicle", _line((s * length, 0), (1, 0), length)))
    _chain(conn, a)
    b = [3, 4, 5]
    for i, s in enumerate(b):
        lanes.append(Lane(s, "vehicle", _line((i * length, d), (1, 0), length)))
    _chain(conn, b)
    c = [6, 7]
    for i, s in enumerate(c):
        lanes.append(Lane(s, "vehicle", _line((length, i * length), (0, 1), length)))
    _chain(conn, c)
    e = [8, 9]
    for i, s in enumerate(e):
        lanes.append(Lane(s, "vehicle", _line((2 * length, i * length), (0, 1), length)))
    _chain(conn, e)
    _link(conn, 0, 6)    # turn north at first cross street
    _link(conn, 7, 4)    # rejoin northern street eastbound
    _link(conn, 1, 8)    # turn north at second cross street
    _link(conn, 9, 5)
    return lanes, conn


_BUILDERS = {
    "straight": _build_straight,
    "fork": _build_fork,
    "merge": _build_merge,
    "intersection": _build_intersection,
    "grid": _build_grid,
}


def generate_lane_graph(cfg: GeneratorConfig):
    """(lanes, connectivity) for the configured template; deterministic."""
    return _BUILDERS[cfg.template](cfg)


def _all_routes(lanes, connectivity) -> list:
    """Every source-to-sink lane chain, in a deterministic order."""
    succ: dict = {}
    has_pred = set()
    for a, b in connectivity.successors:
        succ.setdefault(a, []).append(b)
        has_pred.add(b)
    routes = []

    def walk(path):
        following = sorted(succ.get(path[-1], []))
        if not following:
            routes.append(path)
            return
        for b in following:
            walk(path + [b])

    for source in sorted(l.lane_id for l in lanes if l.lane_id not in has_pred):
        walk([source])
    return routes


# ---------------------------------------------------------------------------
# agents


class _Route:
    """Arc-length position lookup along a chain of lane centerlines."""

    def __init__(self, lanes_by_id: dict, ids):
        pts = [lanes_by_id[ids[0]].centerline]
        for lid in ids[1:]:
            pts.append(lanes_by_id[lid].centerline[1:])
        self.points = np.vstack(pts)
        seg = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        self.s = np.concatenate([[0.0], np.cumsum(seg)])
        self.length = float(self.s[-1])

    def at(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        if float(s.max(initial=0.0)) > self.length + 1e-9:
            raise ValueError(
                f"trajectory exits map: needs {float(s.max()):.1f} m of lane, "
                f"route has {self.length:.1f} m")
        return np.column_stack([np.interp(s, self.s, self.points[:, 0]),
                                np.interp(s, self.s, self.points[:, 1])])


def _profile_speeds(profile: str, rng: np.random.Generator, n_steps: int) -> np.ndarray:
    t = np.arange(n_steps) * DT
    if profile == "constant":
        return np.full(n_steps, 10.0)
    if profile == "rapid_decel":
        t0 = rng.uniform(1.5, 3.5)
        return np.clip(10.0 - 2.5 * np.maximum(t - t0, 0.0), 0.0, None)
    t0 = rng.uniform(1.0, 3.0)
    return np.clip(2.0 + 2.0 * np.maximum(t - t0, 0.0), None, 12.0)


def _distances(speeds: np.ndarray) -> np.ndarray:
    # trapezoid accumulation of piecewise-linear speed
    mid = 0.5 * (speeds[1:] + speeds[:-1]) * DT
    return np.concatenate([[0.0], np.cumsum(mid)])


def _headings_from(positions: np.ndarray) -> np.ndarray:
    """Path-tangent headings; stationary stretches borrow the nearest moving step.

    A stationary step takes the last moving step before it, or the first one
    after it when none moved before; a track that never moves heads 0.
    """
    v = finite_difference_velocities(positions, DT)
    moving = np.linalg.norm(v, axis=1) > 1e-6
    if not moving.any():
        return np.zeros(len(v))
    steps = np.maximum.accumulate(np.where(moving, np.arange(len(v)), moving.argmax()))
    return np.arctan2(v[steps, 1], v[steps, 0])


def _make_agent(route: _Route, s_path: np.ndarray, rng: np.random.Generator,
                noise_sigma: float, category: int, pad_first: int = 0):
    clean = route.at(s_path)
    history = clean[:T_HISTORY].copy()
    if noise_sigma > 0:
        history += rng.normal(0.0, noise_sigma, history.shape)
    velocities = finite_difference_velocities(history, DT)
    headings = _headings_from(clean[:T_HISTORY])
    padding = np.ones(T_HISTORY, dtype=bool)
    if pad_first > 0:
        padding[:pad_first] = False
        history[:pad_first] = 0.0
        velocities[:pad_first] = 0.0
        headings[:pad_first] = 0.0
    agent = AgentHistory(positions=history, velocities=velocities, headings=headings,
                         padding=padding, category=category, agent_type="vehicle")
    return agent, clean[T_HISTORY:]


def generate_agents(cfg: GeneratorConfig, lanes, connectivity, rng: np.random.Generator):
    """(agents, ground_truth, target_ids) on the given lane graph.

    The target runs the configured speed profile on a random route; other
    agents cruise at constant speeds chosen to stay on the map, some with
    padded early history. Raises when the profile needs more lane than the
    route offers.
    """
    routes = _all_routes(lanes, connectivity)
    lanes_by_id = {l.lane_id: l for l in lanes}
    horizon = T_HISTORY + T_FUTURE

    agents, futures = [], []
    route = _Route(lanes_by_id, routes[rng.integers(len(routes))])
    speeds = _profile_speeds(cfg.speed_profile, rng, horizon)
    s_path = rng.uniform(2.0, 8.0) + _distances(speeds)
    agent, future = _make_agent(route, s_path, rng, cfg.noise_sigma, category=3)
    agents.append(agent)
    futures.append(future)

    for _ in range(cfg.agent_count - 1):
        other_route = _Route(lanes_by_id, routes[rng.integers(len(routes))])
        v = rng.uniform(5.0, 11.0)
        v = min(v, 0.9 * (other_route.length - 6.0) / (horizon * DT))
        s0 = rng.uniform(0.0, max(1e-6, other_route.length - v * horizon * DT - 5.0))
        pad = int(rng.integers(5, 26)) if rng.random() < 0.3 else 0
        agent, future = _make_agent(other_route, s0 + np.arange(horizon) * DT * v,
                                    rng, cfg.noise_sigma, category=1, pad_first=pad)
        agents.append(agent)
        futures.append(future)
    return agents, np.stack(futures), [0]


def generate_scenario(cfg: GeneratorConfig, index: int) -> Scenario:
    """Deterministic scenario for (config seed, index)."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, index)))
    lanes, conn = generate_lane_graph(cfg)
    agents, gt, target_ids = generate_agents(cfg, lanes, conn, rng)
    scn = Scenario(lanes=lanes, connectivity=conn, agents=agents,
                   target_ids=target_ids, ground_truth=gt,
                   name=f"scenario_{index:04d}")
    validate_scenario(scn)
    return scn


def generate_dataset(cfg: GeneratorConfig, n: int) -> list:
    return [generate_scenario(cfg, i) for i in range(n)]


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def emit_dataset(cfg: GeneratorConfig, n: int, out_dir) -> dict:
    """Write n scenario files plus a checksummed manifest; n = 0 is valid."""
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for i in range(n):
        scn = generate_scenario(cfg, i)
        fname = f"{scn.name}.json"
        save_scenario(os.path.join(out_dir, fname), scn)
        files.append({"name": fname, "sha256": sha256_file(os.path.join(out_dir, fname))})
    manifest = {"seed": cfg.seed, "template": cfg.template, "count": n, "files": files}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def load_dataset(data_dir) -> list:
    """Read scenarios listed in the manifest, verifying checksums."""
    manifest_path = os.path.join(data_dir, "manifest.json")
    manifest = read_json(manifest_path)
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(files, list):
        raise ValueError(f"{manifest_path}: 'files' is missing or not a list")
    out = []
    for i, entry in enumerate(files):
        for key in ("name", "sha256"):
            if not isinstance(entry, dict) or not isinstance(entry.get(key), str):
                raise ValueError(f"{manifest_path}: files[{i}].{key} is missing or not a string")
        path = os.path.join(data_dir, entry["name"])
        if sha256_file(path) != entry["sha256"]:
            raise ValueError(f"{manifest_path}: checksum mismatch for {entry['name']}")
        out.append(parse_scenario(path))
    return out
