"""Attention tests: bias composition, neutral reduction, local windows."""

import numpy as np
import pytest

from laneformer.attention import (
    AttentionConfig,
    BiasSet,
    biased_attention,
    capture_softmax,
    compose_bias_matrices,
    init_attention_weights,
    init_bias_weights,
    init_layer_weights,
    init_mlp,
    local_attention,
    mlp,
    nearest_neighbor_mask,
    standard_attention,
    transformer_layer,
)
from laneformer.autodiff import Tensor, uniform_init
from laneformer.scenario import AgentHistory, Lane, LaneConnectivity, Scenario
from laneformer.synth import GeneratorConfig, generate_scenario
from laneformer.topology import build_topology


def _row_scene():
    # three parallel lanes with lateral links, one successor chain link
    lanes = [Lane(i, "vehicle", [[0.0, 3.5 * i], [20.0, 3.5 * i]]) for i in range(3)]
    conn = LaneConnectivity(
        successors=[],
        predecessors=[],
        left=[(0, 1, "dashed"), (1, 2, "solid")],
        right=[(1, 0, "dashed"), (2, 1, "solid")],
    )
    agents = [AgentHistory(positions=np.zeros((2, 2)), velocities=np.zeros((2, 2)),
                           headings=np.zeros(2), padding=np.ones(2, dtype=bool))]
    return Scenario(lanes=lanes, connectivity=conn, agents=agents, target_ids=[0])


def _neutral_biases(n, heads):
    return BiasSet(
        b=Tensor(np.ones((heads, n, n))),
        d_inter=Tensor(np.zeros((heads, n, n))),
        d_outer=Tensor(np.ones((heads, n, n))),
    )


def test_neutral_biases_reduce_to_standard_attention():
    cfg = AttentionConfig(d_model=8, heads=2)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        w = init_attention_weights(rng, cfg)
        x = Tensor(rng.normal(size=(5, 8)))
        plain = standard_attention(x, x, x, w, cfg)
        biased = biased_attention(x, x, x, w, cfg, _neutral_biases(5, 2))
        assert np.abs(plain.data - biased.data).max() < 1e-12


def test_disabled_groups_compose_neutral_elements():
    sc = _row_scene()
    topo = build_topology(sc)
    bw = init_bias_weights(heads=2, n_categories=4)
    off = compose_bias_matrices(bw, topo, use_relations=False, use_reachability=False)
    for h in range(2):
        assert (off.b.data[h] == 1.0).all()
        assert (off.d_inter.data[h] == 0.0).all()
        assert (off.d_outer.data[h] == 1.0).all()

    on = compose_bias_matrices(bw, topo)
    # all coefficients start at 1: B = M_p + M_s + gate * (M_l + M_r) where
    # the gate is 1 at every one-hot lateral pair
    expected_b = topo.m_p + topo.m_s + topo.m_c.sum(axis=2) * (topo.m_l + topo.m_r)
    expected_d = topo.m_pre_spd + topo.m_suc_spd
    for h in range(2):
        assert np.abs(on.b.data[h] - expected_b).max() < 1e-12
        assert np.abs(on.d_inter.data[h] - expected_d).max() < 1e-12
        assert np.abs(on.d_outer.data[h] - expected_d).max() < 1e-12


def test_marking_gate_scales_lateral_terms_per_category():
    sc = _row_scene()
    topo = build_topology(sc)
    bw = init_bias_weights(heads=1, n_categories=4)
    # categories: solid=0, dashed=1; weight dashed pairs by 3, solid by 0
    bw.wc.data[0] = 0.0
    bw.wc.data[0, 1, 0] = 3.0
    biases = compose_bias_matrices(bw, topo)
    b = biases.b.data[0]
    assert abs(b[0, 1] - 3.0 * topo.m_l[0, 1]) < 1e-12   # dashed pair
    assert b[1, 2] == 0.0                                # solid pair gated off
    assert b[0, 2] == 0.0                                # unconnected pair


def test_bias_weight_count_matches_head_budget():
    heads, c = 3, 4
    bw = init_bias_weights(heads, c)
    groups = [bw.wp, bw.ws, bw.wl, bw.wr, bw.wc,
              bw.wpre_inter, bw.wsuc_inter, bw.wpre_outer, bw.wsuc_outer]
    assert all(group.shape[0] == heads for group in groups)
    values = sum(group.data.size for group in groups)
    assert values == heads * (4 + c + 4)


def test_d_outer_zero_silences_the_layer():
    cfg = AttentionConfig(d_model=8, heads=2)
    rng = np.random.default_rng(3)
    w = init_attention_weights(rng, cfg)
    x = Tensor(rng.normal(size=(4, 8)))
    biases = _neutral_biases(4, 2)
    biases.d_outer = Tensor(np.zeros((2, 4, 4)))
    out = biased_attention(x, x, x, w, cfg, biases)
    assert np.abs(out.data).max() == 0.0


def test_biased_attention_rejects_head_mismatch():
    cfg = AttentionConfig(d_model=8, heads=2)
    rng = np.random.default_rng(0)
    w = init_attention_weights(rng, cfg)
    x = Tensor(rng.normal(size=(4, 8)))
    with pytest.raises(ValueError, match="heads"):
        biased_attention(x, x, x, w, cfg, _neutral_biases(4, 3))


def test_captured_softmax_rows_sum_to_one():
    cfg = AttentionConfig(d_model=8, heads=2)
    rng = np.random.default_rng(9)
    w = init_attention_weights(rng, cfg)
    x = Tensor(rng.normal(size=(6, 8)))
    sc = _row_scene()
    bw = init_bias_weights(2, 4)
    biases = compose_bias_matrices(bw, build_topology(sc))
    y = Tensor(rng.normal(size=(3, 8)))
    with capture_softmax() as trace:
        standard_attention(x, x, x, w, cfg)
        biased_attention(y, y, y, w, cfg, biases)
        local_attention(x, x, x, w, cfg, rng.normal(size=(6, 2)),
                        rng.normal(size=(6, 2)), e=2)
    assert len(trace) == 6   # 3 calls x 2 heads
    for p in trace:
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    assert _captures_nest_correctly()


def _captures_nest_correctly():
    cfg = AttentionConfig(d_model=4, heads=1)
    rng = np.random.default_rng(1)
    w = init_attention_weights(rng, cfg)
    x = Tensor(rng.normal(size=(2, 4)))
    with capture_softmax() as outer:
        standard_attention(x, x, x, w, cfg)
        with capture_softmax() as inner:
            standard_attention(x, x, x, w, cfg)
        standard_attention(x, x, x, w, cfg)
    return len(outer) == 2 and len(inner) == 1


def test_nearest_neighbor_mask_matches_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n_q = int(rng.integers(1, 8))
        n_k = int(rng.integers(1, 8))
        e = int(rng.integers(1, n_k + 1))
        q_pos = rng.uniform(-10.0, 10.0, size=(n_q, 2))
        k_pos = rng.uniform(-10.0, 10.0, size=(n_k, 2))
        mask = nearest_neighbor_mask(q_pos, k_pos, e)
        assert mask.sum(axis=1).tolist() == [min(e, n_k)] * n_q
        for i in range(n_q):
            d = np.linalg.norm(k_pos - q_pos[i], axis=1)
            kept = set(np.flatnonzero(mask[i]).tolist())
            # every kept key is at least as close as every dropped key
            if len(kept) < n_k:
                worst_kept = max(d[j] for j in kept)
                best_dropped = min(d[j] for j in range(n_k) if j not in kept)
                assert worst_kept <= best_dropped + 1e-12


def test_nearest_neighbor_mask_ties_go_to_lower_index():
    q = np.array([[0.0, 0.0]])
    k = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])   # all at distance 1
    mask = nearest_neighbor_mask(q, k, 2)
    assert mask.tolist() == [[True, True, False]]


def test_nearest_neighbor_mask_edge_cases():
    q = np.zeros((2, 2))
    k = np.zeros((3, 2))
    assert nearest_neighbor_mask(q, k, 3).all()
    assert nearest_neighbor_mask(q, k, 7).all()
    with pytest.raises(ValueError, match="at least 1"):
        nearest_neighbor_mask(q, k, 0)
    with pytest.raises(ValueError, match="no keys"):
        nearest_neighbor_mask(q, np.zeros((0, 2)), 1)


def test_local_attention_with_full_window_matches_standard():
    cfg = AttentionConfig(d_model=8, heads=2)
    rng = np.random.default_rng(13)
    w = init_attention_weights(rng, cfg)
    x = Tensor(rng.normal(size=(5, 8)))
    pos = rng.normal(size=(5, 2))
    full = standard_attention(x, x, x, w, cfg)
    windowed = local_attention(x, x, x, w, cfg, pos, pos, e=5)
    assert np.abs(full.data - windowed.data).max() < 1e-12


def test_local_attention_ignores_far_keys():
    cfg = AttentionConfig(d_model=4, heads=1)
    rng = np.random.default_rng(2)
    w = init_attention_weights(rng, cfg)
    x = rng.normal(size=(4, 4))
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 0.0], [51.0, 0.0]])
    out1 = local_attention(Tensor(x), Tensor(x), Tensor(x), w, cfg, pos, pos, e=2)
    # moving a key outside every query's window changes nothing
    x2 = x.copy()
    x2[3] += 100.0
    pos2 = pos.copy()
    pos2[3] = (500.0, 0.0)
    out2 = local_attention(Tensor(x2[:3]), Tensor(x2[:3]), Tensor(x2[:3]),
                           w, cfg, pos2[:3], pos2[:3], e=2)
    assert np.abs(out1.data[:2] - out2.data[:2]).max() < 1e-9


def test_transformer_layer_shapes_and_determinism():
    cfg = AttentionConfig(d_model=8, heads=4)
    rng = np.random.default_rng(6)
    lw = init_layer_weights(rng, cfg)
    x = Tensor(np.random.default_rng(0).normal(size=(5, 8)))
    y1 = transformer_layer(x, x, lw, cfg)
    y2 = transformer_layer(x, x, lw, cfg)
    assert y1.data.shape == (5, 8)
    assert np.array_equal(y1.data, y2.data)


def test_attention_config_validates_head_split():
    with pytest.raises(ValueError, match="d_model"):
        AttentionConfig(d_model=10, heads=4)
    cfg = AttentionConfig(d_model=12, heads=4)
    assert cfg.d_k == 3


def test_attention_head_width_is_derived_not_set():
    assert AttentionConfig(d_model=12, heads=4).d_k == 3
    with pytest.raises(TypeError):
        AttentionConfig(d_model=12, heads=4, d_k=4)
    with pytest.raises(ValueError, match=r"d_model.*heads"):
        AttentionConfig(d_model=10, heads=4)


def test_mlp_draw_order_and_expression():
    w = init_mlp(np.random.default_rng(3), 5, 7, 2)
    rng = np.random.default_rng(3)
    assert np.array_equal(w.w1.data, uniform_init(rng, 5, (5, 7)))
    assert np.array_equal(w.w2.data, uniform_init(rng, 7, (7, 2)))
    assert w.b1.data.shape == (1, 7) and w.b2.data.shape == (1, 2)
    assert not w.b1.data.any() and not w.b2.data.any()
    w.b1.data[:] = np.linspace(-0.2, 0.2, 7)
    x = np.random.default_rng(4).normal(size=(3, 5))
    expected = np.maximum(x @ w.w1.data + w.b1.data, 0.0) @ w.w2.data + w.b2.data
    assert np.array_equal(mlp(Tensor(x), w).data, expected)


def _softmax(x, mask=None):
    if mask is not None:
        x = np.where(mask, x, -np.inf)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _per_head_reference(q, k, v, w, cfg, mask=None, biases=None):
    """Attention head by head in numpy, from column slices of wq/wk/wv."""
    dk = cfg.d_k
    heads = []
    for h in range(cfg.heads):
        cols = slice(h * dk, (h + 1) * dk)
        qh, kh, vh = q @ w.wq.data[:, cols], k @ w.wk.data[:, cols], v @ w.wv.data[:, cols]
        logits = qh @ kh.T / np.sqrt(dk)
        if biases is not None:
            logits = logits * biases.b.data[h] + biases.d_inter.data[h]
        p = _softmax(logits, mask)
        if biases is not None:
            p = p * biases.d_outer.data[h]
        heads.append(p @ vh)
    return np.concatenate(heads, axis=1) @ w.wo.data


def test_fused_heads_match_per_head_reference():
    sc = _row_scene()
    topo = build_topology(sc)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        cfg = AttentionConfig(d_model=12, heads=(1, 2, 3, 4)[seed % 4])
        w = init_attention_weights(rng, cfg)
        x = rng.normal(size=(3, 12))
        y = rng.normal(size=(5, 12))
        pos_x, pos_y = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))

        got = standard_attention(Tensor(x), Tensor(y), Tensor(y), w, cfg).data
        assert np.abs(got - _per_head_reference(x, y, y, w, cfg)).max() < 1e-12

        got = local_attention(Tensor(x), Tensor(y), Tensor(y), w, cfg, pos_x, pos_y, e=2).data
        mask = nearest_neighbor_mask(pos_x, pos_y, 2)
        assert np.abs(got - _per_head_reference(x, y, y, w, cfg, mask=mask)).max() < 1e-12

        bw = init_bias_weights(cfg.heads, 4)
        for group in (bw.wp, bw.wl, bw.wpre_inter, bw.wsuc_outer):
            group.data = rng.normal(size=group.data.shape)
        biases = compose_bias_matrices(bw, topo)
        got = biased_attention(Tensor(x), Tensor(x), Tensor(x), w, cfg, biases).data
        assert np.abs(got - _per_head_reference(x, x, x, w, cfg, biases=biases)).max() < 1e-12


def test_batched_rows_with_own_masks_match_one_at_a_time():
    cfg = AttentionConfig(d_model=8, heads=2)
    rng = np.random.default_rng(21)
    lw = init_layer_weights(rng, cfg)
    x = rng.normal(size=(4, 6, 8))
    keep = rng.random((4, 6)) < 0.6
    keep[:, -1] = True
    mask = np.broadcast_to(keep[:, None, :], (4, 6, 6))
    with capture_softmax() as trace:
        batched = transformer_layer(Tensor(x), Tensor(x), lw, cfg, mask=mask).data
    assert len(trace) == 4 * 2   # one matrix per batch row and head
    for i in range(4):
        alone = transformer_layer(Tensor(x[i]), Tensor(x[i]), lw, cfg, mask=mask[i]).data
        assert np.abs(batched[i] - alone).max() < 1e-12
        # padded keys get exactly zero weight in both of the row's heads
        assert all((trace[2 * i + h][:, ~keep[i]] == 0.0).all() for h in range(2))


def test_fused_projection_init_keeps_per_head_draw_order():
    cfg = AttentionConfig(d_model=6, heads=3)
    w = init_attention_weights(np.random.default_rng(8), cfg)
    rng = np.random.default_rng(8)
    for fused in (w.wq, w.wk, w.wv):
        for h in range(3):
            block = uniform_init(rng, 6, (6, 2))
            assert np.array_equal(fused.data[:, 2 * h:2 * h + 2], block)
    assert np.array_equal(w.wo.data, uniform_init(rng, 6, (6, 6)))


def test_fused_composition_matches_per_head_reference():
    # the fork map has every relation, reachability and two marking categories
    topo = build_topology(generate_scenario(GeneratorConfig(seed=1, template="fork"), 0))
    n, c = topo.n_lanes, len(topo.categories)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        heads = (1, 2, 3, 4)[seed % 4]
        bw = init_bias_weights(heads, c)
        for group in vars(bw).values():
            group.data = rng.normal(size=group.data.shape)
        biases = compose_bias_matrices(bw, topo)
        assert biases.heads == heads
        for h in range(heads):
            coef = {name: group.data[h] for name, group in vars(bw).items()}
            gate = topo.m_c.reshape(n * n, c) @ coef["wc"]
            b = (coef["wp"] * topo.m_p + coef["ws"] * topo.m_s
                 + gate.reshape(n, n) * (coef["wl"] * topo.m_l + coef["wr"] * topo.m_r))
            d_inter = coef["wpre_inter"] * topo.m_pre_spd + coef["wsuc_inter"] * topo.m_suc_spd
            d_outer = coef["wpre_outer"] * topo.m_pre_spd + coef["wsuc_outer"] * topo.m_suc_spd
            assert np.abs(biases.b.data[h] - b).max() < 1e-12
            assert np.abs(biases.d_inter.data[h] - d_inter).max() < 1e-12
            assert np.abs(biases.d_outer.data[h] - d_outer).max() < 1e-12
