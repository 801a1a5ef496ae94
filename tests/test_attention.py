"""Attention tests: bias composition, neutral reduction, local windows."""

import importlib

import numpy as np
import pytest

from laneformer.attention import (
    AttentionWeights,
    BiasSet,
    BiasWeights,
    LayerWeights,
    MLPWeights,
    attention,
    capture_softmax,
    compose_bias_matrices,
    init_attention_weights,
    init_bias_weights,
    init_layer_weights,
    init_mlp,
    mlp,
    nearest_neighbor_mask,
    transformer_layer,
)
from laneformer.autodiff import (
    ShapeError,
    Tensor,
    add,
    backpropagate,
    layer_norm,
    multiply,
    reduce_sum,
    row_softmax,
    uniform_init,
)
from laneformer.cli import micro_scenario
from laneformer.model import ModelConfig
from laneformer.scenario import AgentHistory, Lane, LaneConnectivity, Scenario
from laneformer.synth import GeneratorConfig, generate_scenario
from laneformer.topology import build_topology
from test_autodiff import _assert_one_backward_per_parent, _richardson_errors


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
    for seed in range(10):
        rng = np.random.default_rng(seed)
        w = init_attention_weights(rng, 8, 2)
        x = Tensor(rng.normal(size=(5, 8)))
        plain = attention(x, x, x, w, 2)
        biased = attention(x, x, x, w, 2, biases=_neutral_biases(5, 2))
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
    rng = np.random.default_rng(3)
    w = init_attention_weights(rng, 8, 2)
    x = Tensor(rng.normal(size=(4, 8)))
    biases = _neutral_biases(4, 2)
    biases.d_outer = Tensor(np.zeros((2, 4, 4)))
    out = attention(x, x, x, w, 2, biases=biases)
    assert np.abs(out.data).max() == 0.0


def test_biased_attention_rejects_head_mismatch():
    rng = np.random.default_rng(0)
    w = init_attention_weights(rng, 8, 2)
    x = Tensor(rng.normal(size=(4, 8)))
    with pytest.raises(ValueError, match="heads"):
        attention(x, x, x, w, 2, biases=_neutral_biases(4, 3))


def test_captured_softmax_rows_sum_to_one():
    rng = np.random.default_rng(9)
    w = init_attention_weights(rng, 8, 2)
    x = Tensor(rng.normal(size=(6, 8)))
    # the micro lane graph: every relation and both reachability matrices are non-zero
    bw = init_bias_weights(2, 4)
    biases = compose_bias_matrices(bw, build_topology(micro_scenario()))
    y = Tensor(rng.normal(size=(3, 8)))
    with capture_softmax() as trace:
        attention(x, x, x, w, 2)
        attention(y, y, y, w, 2, biases=biases)
        attention(x, x, x, w, 2,
                  mask=nearest_neighbor_mask(rng.normal(size=(6, 2)), rng.normal(size=(6, 2)), 2))
    assert len(trace) == 6   # 3 calls x 2 heads
    for p in trace:
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    assert _captures_nest_correctly()


def _captures_nest_correctly():
    rng = np.random.default_rng(1)
    w = init_attention_weights(rng, 4, 1)
    x = Tensor(rng.normal(size=(2, 4)))
    with capture_softmax() as outer:
        attention(x, x, x, w, 1)
        with capture_softmax() as inner:
            attention(x, x, x, w, 1)
        attention(x, x, x, w, 1)
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
    rng = np.random.default_rng(13)
    w = init_attention_weights(rng, 8, 2)
    x = Tensor(rng.normal(size=(5, 8)))
    pos = rng.normal(size=(5, 2))
    full = attention(x, x, x, w, 2)
    windowed = attention(x, x, x, w, 2, mask=nearest_neighbor_mask(pos, pos, 5))
    assert np.abs(full.data - windowed.data).max() < 1e-12


def test_local_attention_ignores_far_keys():
    rng = np.random.default_rng(2)
    w = init_attention_weights(rng, 4, 1)
    x = rng.normal(size=(4, 4))
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 0.0], [51.0, 0.0]])
    out1 = attention(Tensor(x), Tensor(x), Tensor(x), w, 1,
                     mask=nearest_neighbor_mask(pos, pos, 2))
    # moving a key outside every query's window changes nothing
    x2 = x.copy()
    x2[3] += 100.0
    pos2 = pos.copy()
    pos2[3] = (500.0, 0.0)
    out2 = attention(Tensor(x2[:3]), Tensor(x2[:3]), Tensor(x2[:3]), w, 1,
                     mask=nearest_neighbor_mask(pos2[:3], pos2[:3], 2))
    assert np.abs(out1.data[:2] - out2.data[:2]).max() < 1e-9


def test_transformer_layer_shapes_and_determinism():
    rng = np.random.default_rng(6)
    lw = init_layer_weights(rng, 8, 4)
    x = Tensor(np.random.default_rng(0).normal(size=(5, 8)))
    y1 = transformer_layer(x, x, lw, 4)
    y2 = transformer_layer(x, x, lw, 4)
    assert y1.data.shape == (5, 8)
    assert np.array_equal(y1.data, y2.data)


def test_attention_config_validates_head_split():
    # the model config carries the head split every attention layer uses
    with pytest.raises(ValueError, match=r"d_model must split evenly into heads \(10 % 4 != 0\)"):
        ModelConfig(d_model=10, heads=4)
    for bad in (dict(heads=0), dict(d_model=0)):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be at least 1, got 0"):
            ModelConfig(**bad)
    cfg = ModelConfig(d_model=12, heads=4)
    assert (cfg.d_model, cfg.heads) == (12, 4)


def test_attention_head_width_is_derived_not_set():
    # d_k is the projected width over the head count; no config field sets it
    with pytest.raises(TypeError):
        ModelConfig(d_model=12, heads=4, d_k=4)
    with pytest.raises(ValueError, match=r"d_model.*heads"):
        ModelConfig(d_model=10, heads=4)


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


def _per_head_reference(q, k, v, w, n_heads, mask=None, biases=None):
    """Attention head by head in numpy, from column slices of wq/wk/wv."""
    dk = w.wq.data.shape[1] // n_heads
    heads = []
    for h in range(n_heads):
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
    # three lanes with a successor chain and a lateral pair: every relation and
    # both reachability matrices are non-zero, so B, D_inter and D_outer all
    # reshape the logits, and D_outer keeps some of each row
    chain = build_topology(micro_scenario())
    for seed in range(10):
        rng = np.random.default_rng(seed)
        heads = (1, 2, 3, 4)[seed % 4]
        w = init_attention_weights(rng, 12, heads)
        x = rng.normal(size=(3, 12))
        y = rng.normal(size=(5, 12))
        pos_x, pos_y = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))

        got = attention(Tensor(x), Tensor(y), Tensor(y), w, heads).data
        assert np.abs(got - _per_head_reference(x, y, y, w, heads)).max() < 1e-12

        mask = nearest_neighbor_mask(pos_x, pos_y, 2)
        got = attention(Tensor(x), Tensor(y), Tensor(y), w, heads, mask=mask).data
        assert np.abs(got - _per_head_reference(x, y, y, w, heads, mask=mask)).max() < 1e-12

        bw = init_bias_weights(heads, 4)
        for group in (bw.wp, bw.wl, bw.wpre_inter, bw.wsuc_outer):
            group.data = rng.normal(size=group.data.shape)
        biases = compose_bias_matrices(bw, chain)
        got = attention(Tensor(x), Tensor(x), Tensor(x), w, heads, biases=biases).data
        assert np.abs(got - _per_head_reference(x, x, x, w, heads, biases=biases)).max() < 1e-12

        # key mask and bias set together, as a padded batch of lane graphs needs
        mask = nearest_neighbor_mask(pos_x, pos_x, 2)
        got = attention(Tensor(x), Tensor(x), Tensor(x), w, heads, mask=mask, biases=biases).data
        expected = _per_head_reference(x, x, x, w, heads, mask=mask, biases=biases)
        assert np.abs(got - expected).max() < 1e-12


def test_batched_rows_with_own_masks_match_one_at_a_time():
    rng = np.random.default_rng(21)
    lw = init_layer_weights(rng, 8, 2)
    x = rng.normal(size=(4, 6, 8))
    keep = rng.random((4, 6)) < 0.6
    keep[:, -1] = True
    mask = np.broadcast_to(keep[:, None, :], (4, 6, 6))
    with capture_softmax() as trace:
        batched = transformer_layer(Tensor(x), Tensor(x), lw, 2, mask=mask).data
    assert len(trace) == 4 * 2   # one matrix per batch row and head
    for i in range(4):
        alone = transformer_layer(Tensor(x[i]), Tensor(x[i]), lw, 2, mask=mask[i]).data
        assert np.abs(batched[i] - alone).max() < 1e-12
        # padded keys get exactly zero weight in both of the row's heads
        assert all((trace[2 * i + h][:, ~keep[i]] == 0.0).all() for h in range(2))


def test_fused_projection_init_keeps_per_head_draw_order():
    w = init_attention_weights(np.random.default_rng(8), 6, 3)
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
        assert biases.b.shape[0] == heads
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


# ---------------------------------------------------------------------------
# the fused ops: head layout, finite differences, tape contract

def test_attention_heads_are_column_blocks():
    # head h reads column block h of wq, wk and wv and writes column block h
    # ahead of the output projection: with wo = I, changing head 1's wq block
    # changes head 1's probabilities and output columns and nothing else
    rng = np.random.default_rng(17)
    w = init_attention_weights(rng, 6, 3)
    w.wo.data = np.eye(6)
    x = Tensor(rng.normal(size=(2, 4, 6)))
    with capture_softmax() as before:
        out = attention(x, x, x, w, 3).data
    for h in range(3):
        cols = slice(2 * h, 2 * h + 2)
        qh, kh = x.data @ w.wq.data[:, cols], x.data @ w.wk.data[:, cols]
        p = row_softmax(Tensor(qh @ np.swapaxes(kh, -1, -2) / np.sqrt(2.0))).data
        assert all(np.abs(before[3 * i + h] - p[i]).max() < 1e-12 for i in range(2))
        assert np.abs(out[..., cols] - p @ (x.data @ w.wv.data[:, cols])).max() < 1e-12
    w.wq.data[:, 2:4] += 1.0
    with capture_softmax() as after:
        moved = attention(x, x, x, w, 3).data
    changed = [not np.array_equal(a, b) for a, b in zip(before, after)]
    assert changed == [False, True, False] * 2
    assert np.array_equal(moved[..., [0, 1, 4, 5]], out[..., [0, 1, 4, 5]])
    assert not np.array_equal(moved[..., 2:4], out[..., 2:4])
    with pytest.raises(ShapeError, match="cannot split 6 columns into 4 heads"):
        attention(x, x, x, w, 4)


def _micro_bias_arrays(rng, heads):
    """b, d_inter and d_outer on the micro lane graph, from random coefficients:
    every one of the nine matrices the coefficients weigh is non-zero."""
    bw = init_bias_weights(heads, 4)
    for group in vars(bw).values():
        group.data = rng.normal(size=group.data.shape)
    biases = compose_bias_matrices(bw, build_topology(micro_scenario()))
    return [biases.b.data, biases.d_inter.data, biases.d_outer.data]


def _keep_mask(rng, shape):
    keep = rng.random(shape) < 0.6
    keep[..., 0] = True   # no empty rows
    return keep


def _attention_cases(seed):
    """(name, op over arrays, input arrays) covering the fused attention op."""
    rng = np.random.default_rng(seed)
    heads, d = 2, 4
    weights = [rng.normal(size=(d, d)) for _ in range(4)]
    bias = _micro_bias_arrays(rng, heads)
    n = bias[0].shape[-1]
    cross = [rng.normal(size=(3, d)), rng.normal(size=(5, d)), rng.normal(size=(5, d))]
    lanes = [rng.normal(size=(n, d)) for _ in range(3)]
    batch = [rng.normal(size=(2, n, d)) for _ in range(3)]
    cross_mask, lane_mask, batch_mask = (
        _keep_mask(rng, (3, 5)), _keep_mask(rng, (n, n)), _keep_mask(rng, (2, n, n)))

    def op(mask=None, biased=False, shared=False):
        def run(*ts):
            if shared:
                ts = ts[:1] * 3 + ts[1:]
            w = AttentionWeights(*ts[3:7])
            biases = BiasSet(*ts[7:]) if biased else None
            return attention(*ts[:3], w, heads, mask=mask, biases=biases)
        return run

    return [
        ("k != q", op(), cross + weights),
        ("k != q, masked", op(cross_mask), cross + weights),
        ("biased", op(biased=True), lanes + weights + bias),
        ("biased, masked", op(lane_mask, biased=True), lanes + weights + bias),
        ("q = k = v, biased, masked", op(lane_mask, biased=True, shared=True),
         lanes[:1] + weights + bias),
        ("batched, biased, masked", op(batch_mask, biased=True), batch + weights + bias),
    ]


def test_attention_gradients_match_finite_differences():
    for seed in range(3):
        for name, fn, arrays in _attention_cases(seed):
            worst = max(_richardson_errors(fn, arrays))
            assert worst <= 1e-6, f"seed {seed}: {name} max rel error {worst:.2e}"


def test_mlp_gradients_match_finite_differences():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 4, 5))
        w1, w2 = rng.normal(size=(5, 6)), rng.normal(size=(6, 3))
        b1, b2 = rng.normal(size=(1, 6)), rng.normal(size=(1, 3))
        pre = x @ w1 + b1
        # kink inputs moved away from 0, so no difference steps across one
        b1 = b1 + 0.2 * (np.abs(pre) < 0.1).any(axis=(0, 1))
        assert np.abs(x @ w1 + b1).min() > 0.01, seed
        run = lambda x, *ws: mlp(x, MLPWeights(*ws))
        taped = _richardson_errors(run, [x, w1, b1, w2, b2])
        constant_x = _richardson_errors(lambda *ws: run(Tensor(x), *ws), [w1, b1, w2, b2])
        assert max(taped + constant_x) <= 1e-6, (seed, taped, constant_x)


def _first_norm(x_q, x_kv, w, heads, mask=None, biases=None):
    """The block's first layer-norm output, the feed-forward's input."""
    att = attention(x_q, x_kv, x_kv, w.attn, heads, mask, biases)
    return layer_norm(add(x_q, att), w.ln1_gain, w.ln1_bias)


def _composed_block(x_q, x_kv, w, heads, mask=None, biases=None):
    """The transformer block as separate attention, add, layer_norm and mlp nodes."""
    h1 = _first_norm(x_q, x_kv, w, heads, mask, biases)
    return layer_norm(add(h1, mlp(h1, w.ffn)), w.ln2_gain, w.ln2_bias)


def _ffn_and_norms(rng, d):
    """Feed-forward w1, b1, w2, b2, then both layer norms' gains and biases."""
    return ([rng.normal(size=(d, 2 * d)), rng.normal(size=(1, 2 * d)),
             rng.normal(size=(2 * d, d)), rng.normal(size=(1, d))]
            + [rng.normal(size=(1, d)) for _ in range(4)])


def _block_op(layer, heads, kv, mask, biased):
    """layer over the block's operands as tensors: x_q, x_kv when kv is
    ("taped",), the four projections, the feed-forward weights, the layer
    norms' gains and biases, then b, d_inter and d_outer when biased. kv
    ("shared",) makes x_kv = x_q and ("constant", array) a constant."""
    def run(x_q, *ts):
        if kv[0] == "taped":
            x_kv, ts = ts[0], ts[1:]
        else:
            x_kv = x_q if kv[0] == "shared" else Tensor(kv[1])
        w = LayerWeights(AttentionWeights(*ts[:4]), MLPWeights(*ts[4:8]), *ts[8:12])
        return layer(x_q, x_kv, w, heads, mask=mask,
                     biases=BiasSet(*ts[12:]) if biased else None)
    return run


def _block_cases(seed, layer=transformer_layer):
    """(name, op over arrays, input arrays) covering the fused transformer
    block, with `layer` in its place. b1 keeps every ReLU input at least
    0.05 from 0, so no difference step crosses a kink."""
    rng = np.random.default_rng(seed)
    heads, d = 2, 4
    bias = _micro_bias_arrays(rng, heads)
    n = bias[0].shape[-1]
    observed = np.array([[1, 1, 1, 1, 1], [0, 0, 1, 1, 1], [0, 0, 0, 0, 1]], dtype=bool)
    cross_q, cross_kv = rng.normal(size=(3, d)), rng.normal(size=(5, d))
    cross_mask = _keep_mask(rng, (3, 5))
    specs = [   # name, x_q, x_kv, key mask, bias arrays
        ("cross, masked", cross_q, ("taped", cross_kv), cross_mask, []),
        ("q = k = v, biased", rng.normal(size=(n, d)), ("shared",), None, bias),
        ("batched, masked, history shape", rng.normal(size=(3, 5, d)), ("shared",),
         np.broadcast_to(observed[:, None, :], (3, 5, 5)), []),
        ("cross, masked, constant x_kv", cross_q, ("constant", cross_kv), cross_mask, []),
    ]
    cases = []
    for name, x_q, kv, mask, biases in specs:
        weights = [rng.normal(size=(d, d)) for _ in range(4)] + _ffn_and_norms(rng, d)
        arrays = [x_q] + ([kv[1]] if kv[0] == "taped" else []) + weights + biases
        w1, b1 = weights[4:6]
        first_norm = _block_op(_first_norm, heads, kv, mask, bool(biases))
        relu_inputs = lambda: first_norm(*map(Tensor, arrays)).data @ w1 + b1
        for _ in range(10):
            b1 += 0.2 * (np.abs(relu_inputs()) < 0.1).reshape(-1, 2 * d).any(axis=0)
        assert np.abs(relu_inputs()).min() > 0.05, (seed, name)
        cases.append((name, _block_op(layer, heads, kv, mask, bool(biases)), arrays))
    return cases


def test_transformer_layer_gradients_match_finite_differences():
    for seed in range(3):
        for name, fn, arrays in _block_cases(seed):
            worst = max(_richardson_errors(fn, arrays))
            assert worst <= 1e-6, f"seed {seed}: {name} max rel error {worst:.2e}"


def test_transformer_layer_matches_composed_ops_bit_for_bit():
    # the block's output and every gradient equal those of attention, add,
    # layer_norm and mlp recorded as separate tape nodes
    for (name, fused, arrays), (_, composed, _) in zip(
            _block_cases(0), _block_cases(0, layer=_composed_block)):
        results = []
        for fn in (fused, composed):
            inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = fn(*inputs)
            w = np.random.default_rng(1234).normal(size=out.shape)
            backpropagate(reduce_sum(multiply(out, Tensor(w))))
            results.append([out.data] + [t.grad for t in inputs])
        assert all(np.array_equal(a, b) for a, b in zip(*results)), name


def test_transformer_layer_norms_read_constant_flags(monkeypatch):
    # a constant gain or bias in the block gets no gradient computed for it
    module, seen = importlib.import_module("laneformer.attention"), []
    real = module._layer_norm

    def spy(x, gain, bias, need, **kwargs):
        seen.append(tuple(need))
        return real(x, gain, bias, need, **kwargs)

    monkeypatch.setattr(module, "_layer_norm", spy)
    rng = np.random.default_rng(9)
    lw = init_layer_weights(rng, 8, 2)
    lw.ln1_gain, lw.ln2_bias = Tensor(lw.ln1_gain.data), Tensor(lw.ln2_bias.data)
    x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    transformer_layer(x, x, lw, 2)
    assert seen == [(True, False, True), (True, True, False)]


def _fork_topology():
    # the fork map has every relation, reachability and two marking categories
    return build_topology(generate_scenario(GeneratorConfig(seed=1, template="fork"), 0))


_STRUCTURE = ("wp", "ws", "wl", "wr", "wc")
_REACH = {"d_inter": ("wpre_inter", "wsuc_inter"), "d_outer": ("wpre_outer", "wsuc_outer")}


def _compose_one(topo, name, groups, bw, **flags):
    """compose_bias_matrices' `name` output as a function of the tensors `groups`,
    every other coefficient group held constant at bw's values."""
    def run(*ts):
        coef = {g: Tensor(t.data) for g, t in vars(bw).items()}
        coef.update(zip(groups, ts))
        return getattr(compose_bias_matrices(BiasWeights(**coef), topo, **flags), name)
    return run


def test_compose_bias_matrices_gradients_match_finite_differences():
    topo = _fork_topology()
    rng = np.random.default_rng(5)
    bw = init_bias_weights(2, len(topo.categories))
    for group in vars(bw).values():
        group.data = rng.normal(size=group.data.shape)
    for relations in (True, False):
        for reachability in (True, False):
            flags = dict(use_relations=relations, use_reachability=reachability)
            outputs = [("b", _STRUCTURE, relations)] + [
                (name, groups, reachability) for name, groups in _REACH.items()]
            for name, groups, on in outputs:
                run = _compose_one(topo, name, groups, bw, **flags)
                arrays = [getattr(bw, g).data for g in groups]
                if on:
                    worst = max(_richardson_errors(run, arrays))
                    assert worst <= 1e-6, (flags, name, worst)
                else:
                    # a disabled group is a constant neutral element
                    out = run(*[Tensor(a, requires_grad=True) for a in arrays])
                    assert not out.requires_grad and out._parents == (), (flags, name)


def _fused_nodes(rng):
    """name -> (op over tensors, operand arrays): the tape nodes the fused ops record."""
    topo = build_topology(micro_scenario())
    bw = init_bias_weights(2, len(topo.categories))
    for group in vars(bw).values():
        group.data = rng.normal(size=group.data.shape)
    _, fn, arrays = _attention_cases(0)[3]   # biased and masked
    nodes = {
        "attention": (fn, arrays),
        "mlp": (lambda x, *ws: mlp(x, MLPWeights(*ws)),
                [rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(1, 5)),
                 rng.normal(size=(5, 2)), rng.normal(size=(1, 2))]),
        "compose b": (_compose_one(topo, "b", _STRUCTURE, bw),
                      [getattr(bw, g).data for g in _STRUCTURE]),
    }
    for out, groups in _REACH.items():
        nodes[f"compose {out}"] = (_compose_one(topo, out, groups, bw),
                                   [getattr(bw, g).data for g in groups])
    # the block's operand slots are attention's, with x_kv as key and value,
    # then the feed-forward weights and the layer norms' gains and biases
    nodes["transformer_layer"] = (
        _block_op(transformer_layer, 2, ("taped",), None, True),
        arrays[:2] + arrays[3:7] + _ffn_and_norms(rng, arrays[0].shape[-1]) + arrays[7:],
        lambda a: a[:2] + a[1:2] + a[2:6] + a[14:] + a[6:14])
    return nodes


def test_fused_ops_tape_one_vjp_per_differentiable_operand():
    # every fused op: one backward, one gradient per differentiable operand
    ops = {name: (op, tuple(Tensor(a.copy(), requires_grad=True) for a in arrays), *slots)
           for name, (op, arrays, *slots) in _fused_nodes(np.random.default_rng(3)).items()}
    _assert_one_backward_per_parent(ops)


def test_second_backpropagate_through_fused_ops_repeats_the_first():
    rng = np.random.default_rng(4)
    lw = init_layer_weights(rng, 8, 2)
    bw = init_bias_weights(2, 4)
    x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    leaves = [x, *vars(lw.attn).values(), *vars(lw.ffn).values(), *vars(bw).values()]
    biases = compose_bias_matrices(bw, build_topology(micro_scenario()))
    loss = reduce_sum(multiply(transformer_layer(x, x, lw, 2, biases=biases),
                               Tensor(rng.normal(size=(3, 8)))))
    backpropagate(loss)
    first = [t.grad for t in leaves]
    for t in leaves:
        t.grad = None
    backpropagate(loss)
    assert all(np.array_equal(t.grad, g) for t, g in zip(leaves, first))


def test_fused_attention_backward_writes_only_its_own_arrays():
    # the softmax, its vjp and the scale compute in the score arrays that
    # attention allocates; no operand, key mask, output, saved array or
    # incoming gradient changes, so a second backward returns the same
    rng = np.random.default_rng(6)
    heads, d = 2, 4
    bias = _micro_bias_arrays(rng, heads)
    n = bias[0].shape[-1]
    lanes = [rng.normal(size=(n, d)) for _ in range(2)]
    history = [rng.normal(size=(3, 5, d)) for _ in range(2)]
    observed = np.array([[1, 1, 1, 1, 1], [0, 0, 1, 1, 1], [0, 0, 0, 0, 1]], dtype=bool)
    masks = {"lanes": _keep_mask(rng, (n, n)), "history": observed[:, None, :]}
    weights = [rng.normal(size=(d, d)) for _ in range(4)] + _ffn_and_norms(rng, d)

    def attend(mask, biased):
        def run(q, kv, *ts):
            return attention(q, kv, kv, AttentionWeights(*ts[:4]), heads, mask=mask,
                             biases=BiasSet(*ts[4:]) if biased else None)
        return run

    cases = []
    for x, key, biased in ((lanes, "lanes", False), (lanes, "lanes", True),
                           (history, "history", False)):
        for mask in (None, masks[key]):
            name = f"{key}, {'biased' if biased else 'unbiased'}, mask {mask is not None}"
            extra = bias if biased else []
            cases += [(f"attention, {name}", attend(mask, biased), x + weights[:4] + extra, mask),
                      (f"block, {name}", _block_op(transformer_layer, heads, ("taped",), mask,
                                                   biased), x + weights + extra, mask)]
    for name, fn, arrays, mask in cases:
        mask_before = None if mask is None else mask.copy()
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(*tensors)
        out_before = out.data.copy()
        g = rng.normal(size=out.shape)
        g_before = g.copy()
        first = out._backward(g)
        assert np.array_equal(g, g_before), name
        assert np.array_equal(out.data, out_before), name
        assert all(np.array_equal(t.data, a) for t, a in zip(tensors, arrays)), name
        assert mask is None or np.array_equal(mask, mask_before), name
        again = out._backward(g)
        assert all(np.array_equal(a, b) for a, b in zip(first, again)), name
