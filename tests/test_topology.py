"""Structure-matrix tests: closeness, hop distances, boundary markings."""

import numpy as np
import pytest

from laneformer.scenario import AgentHistory, Lane, LaneConnectivity, Scenario, arc_length_midpoint
from laneformer.topology import (
    EPS_DISTANCE,
    build_spd_matrix,
    build_topology,
    distance_to_bias,
)


def _scenario(lanes, successors=(), left=(), right=()):
    return Scenario(
        lanes=lanes,
        connectivity=LaneConnectivity(
            successors=list(successors),
            predecessors=[(b, a) for a, b in successors],
            left=list(left),
            right=list(right),
        ),
        agents=[AgentHistory(positions=np.zeros((2, 2)), velocities=np.zeros((2, 2)),
                             headings=np.zeros(2), padding=np.ones(2, dtype=bool))],
        target_ids=[0],
    )


def _bfs_hops(pairs, n):
    # plain all-pairs BFS, kept deliberately independent of the implementation
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


def test_spd_chain_hop_counts():
    # chain 0 -> 1 -> 2 through the successor relation
    suc = build_spd_matrix([(0, 1), (1, 2)], 3)
    assert suc[0, 1] == 1 and suc[1, 2] == 1 and suc[0, 2] == 2
    assert suc[1, 0] == 0 and suc[2, 0] == 0 and suc[2, 1] == 0
    pre = build_spd_matrix([(1, 0), (2, 1)], 3)
    assert pre[1, 0] == 1 and pre[2, 1] == 1 and pre[2, 0] == 2


def test_spd_diamond_takes_shortest_route():
    pre = build_spd_matrix([(3, 1), (3, 2), (1, 0), (2, 0)], 4)
    assert pre[3, 1] == 1 and pre[3, 2] == 1 and pre[3, 0] == 2
    assert (np.diag(pre) == 0).all()


def test_spd_matches_reference_bfs_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        density = rng.uniform(0.0, 0.5)
        pairs = [(int(a), int(b)) for a in range(n) for b in range(n)
                 if a != b and rng.random() < density]
        assert np.array_equal(build_spd_matrix(pairs, n), _bfs_hops(pairs, n))


def test_spd_rejects_out_of_range_pairs():
    with pytest.raises(ValueError, match="outside"):
        build_spd_matrix([(0, 3)], 3)
    with pytest.raises(ValueError, match="outside"):
        build_spd_matrix([(-1, 0)], 3)


def test_distance_to_bias_values():
    hops = np.array([[0, 1], [2, 0]])
    assert distance_to_bias(hops).tolist() == [[0.0, 1.0], [0.5, 0.0]]
    assert distance_to_bias(np.array([[3]])).tolist() == [[1.0 / 3.0]]
    with pytest.raises(ValueError, match="non-negative"):
        distance_to_bias(np.array([[-1]]))


def test_closeness_is_reciprocal_midpoint_distance():
    # parallel 10 m lanes 4 m apart: midpoints (5, 0) and (5, 4)
    sc = _scenario(
        [Lane(0, "vehicle", [[0.0, 0.0], [10.0, 0.0]]),
         Lane(1, "vehicle", [[0.0, 4.0], [10.0, 4.0]])],
        left=[(0, 1, "dashed")], right=[(1, 0, "dashed")])
    rpe = build_topology(sc)
    assert abs(rpe.m_l[0, 1] - 0.25) < 1e-12
    assert abs(rpe.m_r[1, 0] - 0.25) < 1e-12
    # relation only holds one way per matrix
    assert rpe.m_l[1, 0] == 0.0 and rpe.m_r[0, 1] == 0.0
    assert rpe.m_p.sum() == 0.0 and rpe.m_s.sum() == 0.0


def test_closeness_clamps_coincident_midpoints():
    # same midpoint (5, 0): distance 0 clamps to EPS_DISTANCE
    sc = _scenario(
        [Lane(0, "vehicle", [[0.0, 0.0], [10.0, 0.0]]),
         Lane(1, "vehicle", [[10.0, 0.0], [0.0, 0.0001]])],
        successors=[(0, 1)])
    rpe = build_topology(sc)
    assert abs(rpe.m_s[0, 1] - 1.0 / EPS_DISTANCE) < 1e-3
    assert rpe.m_s[0, 1] <= 10.0


def test_closeness_entries_bounded():
    rng = np.random.default_rng(23)
    for _ in range(20):
        pts = rng.uniform(-40.0, 40.0, size=(4, 2, 2))
        pts[:, 1] += rng.uniform(1.0, 5.0, size=(4, 2))
        lanes = [Lane(i, "vehicle", pts[i]) for i in range(4)]
        sc = _scenario(lanes, successors=[(0, 1), (2, 3)],
                       left=[(1, 2, "solid")], right=[(2, 1, "solid")])
        rpe = build_topology(sc)
        for m in (rpe.m_p, rpe.m_s, rpe.m_l, rpe.m_r):
            assert (np.diag(m) == 0.0).all()
            nz = m[m != 0.0]
            assert (nz > 0.0).all() and (nz <= 10.0).all()


def test_closeness_equals_the_per_pair_loop():
    # one np.linalg.norm per pair, as a loop computes it, bit for bit
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        lanes = [Lane(i, "vehicle", np.cumsum(rng.normal(scale=20.0, size=(3, 2)), axis=0))
                 for i in range(n)]
        pairs = [(int(a), int(b)) for a in range(n) for b in range(n)
                 if a != b and rng.random() < 0.4]
        rpe = build_topology(_scenario(lanes, successors=pairs))
        want = np.zeros((n, n))
        for a, b in pairs:
            d = float(np.linalg.norm(rpe.midpoints[a] - rpe.midpoints[b]))
            want[a, b] = 1.0 / max(d, EPS_DISTANCE)
        assert np.array_equal(rpe.m_s, want)
        assert np.array_equal(rpe.m_p, want.T)
        assert np.array_equal(rpe.midpoints,
                              np.stack([arc_length_midpoint(l.centerline) for l in lanes]))


def test_connection_tensor_one_hot_only_at_lateral_pairs():
    sc = _scenario(
        [Lane(0, "vehicle", [[0.0, 0.0], [10.0, 0.0]]),
         Lane(1, "vehicle", [[0.0, 3.5], [10.0, 3.5]]),
         Lane(2, "vehicle", [[10.0, 0.0], [20.0, 0.0]])],
        successors=[(0, 2)],
        left=[(0, 1, "double_solid")], right=[(1, 0, "double_solid")])
    m_c = build_topology(sc).m_c
    assert m_c.shape == (3, 3, 4)
    assert m_c[0, 1].tolist() == [0.0, 0.0, 1.0, 0.0]
    assert m_c[1, 0].tolist() == [0.0, 0.0, 1.0, 0.0]
    # successor pair and diagonal contribute nothing
    assert m_c.sum() == 2.0


def test_connection_tensor_rejects_unknown_marking():
    sc = _scenario(
        [Lane(0, "vehicle", [[0.0, 0.0], [10.0, 0.0]]),
         Lane(1, "vehicle", [[0.0, 3.5], [10.0, 3.5]])],
        left=[(0, 1, "chevron")], right=[(1, 0, "chevron")])
    with pytest.raises(ValueError, match="unknown connection type 'chevron'"):
        build_topology(sc)


def test_build_topology_handles_noncontiguous_lane_ids():
    sc = _scenario(
        [Lane(10, "vehicle", [[0.0, 0.0], [10.0, 0.0]]),
         Lane(40, "vehicle", [[10.0, 0.0], [20.0, 0.0]]),
         Lane(7, "vehicle", [[20.0, 0.0], [30.0, 0.0]])],
        successors=[(10, 40), (40, 7)])
    topo = build_topology(sc)
    assert topo.lane_ids == [10, 40, 7]
    assert topo.n_lanes == 3
    # storage order 0,1,2 follows the lane list, not the ids
    assert topo.suc_hops[0, 2] == 2 and topo.pre_hops[2, 0] == 2
    assert topo.m_suc_spd[0, 2] == 0.5 and topo.m_pre_spd[2, 0] == 0.5
    assert topo.m_suc_spd[0, 1] == 1.0
    assert abs(topo.m_s[0, 1] - 0.1) < 1e-12   # midpoints 10 m apart
    assert topo.categories == ("solid", "dashed", "double_solid", "none")


def test_pre_and_suc_matrices_are_transposes_for_reversed_relations():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        pairs = [(int(a), int(b)) for a in range(n) for b in range(n)
                 if a != b and rng.random() < 0.3]
        rev = [(b, a) for a, b in pairs]
        assert np.array_equal(build_spd_matrix(pairs, n),
                              build_spd_matrix(rev, n).T)
