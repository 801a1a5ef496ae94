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

from dataclasses import dataclass

import numpy as np

from .scenario import BOUNDARY_TYPES, Scenario, _midpoints, _stack_polylines, lane_index_map

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
    midpoints (N_l, 2) are the lanes' arc-length midpoints that closeness
    measures from.
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
    midpoints: np.ndarray

    @property
    def n_lanes(self) -> int:
        return len(self.lane_ids)


def _closeness(midpoints: np.ndarray, relation: np.ndarray, i: np.ndarray, j: np.ndarray,
               relations: int) -> np.ndarray:
    """(relations, N_l, N_l) closeness; pair (i[k], j[k]) sets matrix relation[k]
    unless it is a self-pair."""
    n = len(midpoints)
    m = np.zeros((relations, n, n))
    keep = i != j
    relation, i, j = relation[keep], i[keep], j[keep]
    diff = (midpoints[i] - midpoints[j])[:, None, :]
    # squared length as a dot product, which rounds as np.linalg.norm of one vector does
    d = np.sqrt((diff @ diff.swapaxes(1, 2))[:, 0, 0])
    m[relation, i, j] = 1.0 / np.maximum(d, EPS_DISTANCE)
    return m


def _hop_counts(adjacency: np.ndarray) -> np.ndarray:
    """(R, n, n) hop counts through each of R (n, n) boolean adjacency matrices.

    Breadth-first from every origin at once: step d marks the lanes first
    reached d edges away, so a lane's count is fixed when it first appears.
    """
    hops = np.zeros(adjacency.shape, dtype=np.int64)
    reached = frontier = np.eye(adjacency.shape[-1], dtype=bool)   # broadcast over R
    depth = 0
    while frontier.any():
        depth += 1
        frontier = (frontier @ adjacency) > reached   # reached now, not before
        hops[frontier] = depth
        reached = reached | frontier
    return hops


def build_spd_matrix(pairs, n: int) -> np.ndarray:
    """Directed hop counts through the given relation pairs.

    Entry (i, j) is the minimum number of relation edges on a path from i
    to j, or 0 when j is i or unreachable.
    """
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if outside.any():
        a, b = pairs[np.flatnonzero(outside)[0]]
        raise ValueError(f"pair ({a}, {b}) references a lane outside [0, {n})")
    adjacency = np.zeros((1, n, n), dtype=bool)
    adjacency[0, pairs[:, 0], pairs[:, 1]] = True
    return _hop_counts(adjacency)[0]


def distance_to_bias(hops: np.ndarray) -> np.ndarray:
    """Reciprocal-hop additive bias: h >= 1 maps to 1/h, h == 0 to 0."""
    hops = np.asarray(hops)
    if (hops < 0).any():
        raise ValueError("hop counts must be non-negative")
    return np.where(hops >= 1, 1.0 / np.maximum(hops, 1), 0.0)


def _connection_types(lateral, i: np.ndarray, j: np.ndarray, n: int, categories) -> np.ndarray:
    """(N_l, N_l, C) one-hot boundary markings of the lateral pairs (i, j).

    Rows for pairs with no lateral connection (diagonal included) are
    all-zero, so unconnected pairs contribute nothing regardless of the
    category weights.
    """
    slot = {name: k for k, name in enumerate(categories)}
    unknown = [marking for *_, marking in lateral if marking not in slot]
    if unknown:
        raise ValueError(f"unknown connection type {unknown[0]!r}")
    m_c = np.zeros((n, n, len(categories)))
    m_c[i, j, [slot[marking] for *_, marking in lateral]] = 1.0
    return m_c


def build_topology(sc: Scenario, categories=BOUNDARY_TYPES) -> TopologyMatrices:
    """All structure matrices for one scenario, lanes in storage order.

    Closeness uses the lanes' own centerline midpoints, so callers who want
    those of resampled centerlines resample the lanes first. The pairs of
    all four relations are mapped to lane indices once and handled as one
    array.
    """
    index = lane_index_map(sc)
    n = len(sc.lanes)
    mid = _midpoints(_stack_polylines([l.centerline for l in sc.lanes]))
    conn = sc.connectivity
    relations = (conn.predecessors, conn.successors, conn.left, conn.right)
    relation = np.repeat(np.arange(4), [len(pairs) for pairs in relations])
    i, j = np.array([(index[a], index[b]) for pairs in relations for a, b, *_ in pairs],
                    dtype=np.int64).reshape(-1, 2).T
    m_p, m_s, m_l, m_r = _closeness(mid, relation, i, j, len(relations))
    reach = len(conn.predecessors) + len(conn.successors)   # the pairs before the lateral ones
    adjacency = np.zeros((2, n, n), dtype=bool)
    adjacency[relation[:reach], i[:reach], j[:reach]] = True
    hops = _hop_counts(adjacency)
    pre_hops, suc_hops = hops
    m_pre_spd, m_suc_spd = distance_to_bias(hops)
    return TopologyMatrices(
        lane_ids=[l.lane_id for l in sc.lanes],
        m_p=m_p,
        m_s=m_s,
        m_l=m_l,
        m_r=m_r,
        pre_hops=pre_hops,
        suc_hops=suc_hops,
        m_pre_spd=m_pre_spd,
        m_suc_spd=m_suc_spd,
        m_c=_connection_types([*conn.left, *conn.right], i[reach:], j[reach:], n, categories),
        categories=tuple(categories),
        midpoints=mid,
    )
