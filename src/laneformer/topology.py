"""Lane-graph structure matrices: relation closeness, path distance, markings.

build_topology derives every matrix the biased attention layers consume
from one scenario, in one pass with one lane-index map. Four N_l x N_l
closeness matrices (predecessor, successor, left, right), the relative
position encoding, hold 1 / max(d, 0.1) where d is the Euclidean distance
between the two lanes' arc-length midpoints, but only at pairs where the
relation actually holds; everything else, including the diagonal, stays 0.
Two shortest-path-distance matrices count directed hops through the
predecessor or successor relation. A boundary-marking tensor one-hot
encodes the lateral connection type per laterally connected pair and is
all-zero elsewhere.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .scenario import BOUNDARY_TYPES, Scenario, arc_length_midpoint, lane_index_map

__all__ = [
    "EPS_DISTANCE",
    "TopologyMatrices",
    "build_spd_matrix",
    "distance_to_bias",
    "build_topology",
]

# lower bound on midpoint distance so closeness entries stay finite (meters)
EPS_DISTANCE = 0.1


@dataclass
class TopologyMatrices:
    """Everything the biased attention layers consume for one scene.

    pre_hops/suc_hops are raw hop counts; m_pre_spd/m_suc_spd are their
    reciprocal-bias transforms. m_c is (N_l, N_l, C) over categories.
    """

    lane_ids: list
    m_p: np.ndarray
    m_s: np.ndarray
    m_l: np.ndarray
    m_r: np.ndarray
    pre_hops: np.ndarray
    suc_hops: np.ndarray
    m_pre_spd: np.ndarray
    m_suc_spd: np.ndarray
    m_c: np.ndarray
    categories: tuple

    @property
    def n_lanes(self) -> int:
        return len(self.lane_ids)


def _midpoints(sc: Scenario) -> np.ndarray:
    return np.stack([arc_length_midpoint(l.centerline) for l in sc.lanes])


def _index_pairs(pairs, index: dict) -> list:
    """Lane-id relation pairs (or lateral triples) as storage-order index pairs."""
    return [(index[a], index[b]) for a, b, *_ in pairs]


def _closeness(midpoints: np.ndarray, pairs) -> np.ndarray:
    n = len(midpoints)
    m = np.zeros((n, n))
    for i, j in pairs:
        if i == j:
            continue
        d = float(np.linalg.norm(midpoints[i] - midpoints[j]))
        m[i, j] = 1.0 / max(d, EPS_DISTANCE)
    return m


def build_spd_matrix(pairs, n: int) -> np.ndarray:
    """Directed hop counts through the given relation pairs.

    Entry (i, j) is the minimum number of relation edges on a path from i
    to j, or 0 when j is i or unreachable. Frontier expansion from each
    origin; a lane enters the visited set the first time it appears, which
    pins its hop count.
    """
    adjacency = [[] for _ in range(n)]
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pair ({a}, {b}) references a lane outside [0, {n})")
        adjacency[a].append(b)
    hops = np.zeros((n, n), dtype=np.int64)
    for origin in range(n):
        appeared = {origin}
        frontier = deque([(origin, 0)])
        while frontier:
            node, depth = frontier.popleft()
            for nxt in adjacency[node]:
                if nxt in appeared:
                    continue
                appeared.add(nxt)
                hops[origin, nxt] = depth + 1
                frontier.append((nxt, depth + 1))
    return hops


def distance_to_bias(hops: np.ndarray) -> np.ndarray:
    """Reciprocal-hop additive bias: h >= 1 maps to 1/h, h == 0 to 0."""
    hops = np.asarray(hops)
    if (hops < 0).any():
        raise ValueError("hop counts must be non-negative")
    return np.where(hops >= 1, 1.0 / np.maximum(hops, 1), 0.0)


def _connection_types(sc: Scenario, categories, index: dict) -> np.ndarray:
    """(N_l, N_l, C) one-hot boundary markings for laterally connected pairs.

    Rows for pairs with no lateral connection (diagonal included) are
    all-zero, so unconnected pairs contribute nothing regardless of the
    category weights.
    """
    n, c = len(sc.lanes), len(categories)
    slot = {name: k for k, name in enumerate(categories)}
    m_c = np.zeros((n, n, c))
    for a, b, marking in list(sc.connectivity.left) + list(sc.connectivity.right):
        if marking not in slot:
            raise ValueError(f"unknown connection type {marking!r}")
        m_c[index[a], index[b], slot[marking]] = 1.0
    return m_c


def build_topology(sc: Scenario, categories=BOUNDARY_TYPES) -> TopologyMatrices:
    """All structure matrices for one scenario, lanes in storage order.

    Closeness uses the lanes' own centerline midpoints, so callers who want
    those of resampled centerlines resample the lanes first.
    """
    index = lane_index_map(sc)
    n = len(sc.lanes)
    mid = _midpoints(sc)
    conn = sc.connectivity
    pre, suc, left, right = (_index_pairs(pairs, index) for pairs in (
        conn.predecessors, conn.successors, conn.left, conn.right))
    pre_hops, suc_hops = build_spd_matrix(pre, n), build_spd_matrix(suc, n)
    return TopologyMatrices(
        lane_ids=[l.lane_id for l in sc.lanes],
        m_p=_closeness(mid, pre),
        m_s=_closeness(mid, suc),
        m_l=_closeness(mid, left),
        m_r=_closeness(mid, right),
        pre_hops=pre_hops,
        suc_hops=suc_hops,
        m_pre_spd=distance_to_bias(pre_hops),
        m_suc_spd=distance_to_bias(suc_hops),
        m_c=_connection_types(sc, categories, index),
        categories=tuple(categories),
    )
