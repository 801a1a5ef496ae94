"""Pipeline tests: sample preparation, forward stages, invariances."""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laneformer.attention import capture_softmax
from laneformer.autodiff import (
    Tensor,
    backpropagate,
    load_checkpoint,
    no_grad,
    reduce_sum,
    save_checkpoint,
    uniform_init,
)
from laneformer.model import (
    ModelConfig,
    PredictionSet,
    _init_decoder,
    decode_trajectories,
    hte_forward,
    init_model,
    map_net_forward,
    model_forward,
    predict,
    prepare_sample,
)
from laneformer.scenario import (
    AgentHistory,
    Lane,
    LaneConnectivity,
    Scenario,
)
from laneformer.synth import TEMPLATES, GeneratorConfig, generate_scenario

T_H, T_F = 6, 5


def _cfg(**overrides):
    base = dict(t_history=T_H, t_future=T_F, modes=2, d_model=8, heads=2,
                layers=1, n_lane_nodes=4, decoder_hidden=8,
                e_a2a=2, e_a2l=3, e_l2a=2)
    base.update(overrides)
    return ModelConfig(**base)


def _agent(x0, y, speed, category=1, padding=None):
    t = np.arange(T_H, dtype=np.float64)
    positions = np.column_stack([x0 + speed * 0.1 * t, np.full(T_H, y)])
    pad = np.ones(T_H, dtype=bool) if padding is None else np.asarray(padding)
    return AgentHistory(
        positions=positions,
        velocities=np.tile([speed, 0.0], (T_H, 1)),
        headings=np.zeros(T_H),
        padding=pad,
        category=category,
    )


def _scene(n_extra_agents=1, with_gt=True):
    lanes = [
        Lane(0, "vehicle", [[-5.0, 0.0], [15.0, 0.0]]),
        Lane(1, "vehicle", [[15.0, 0.0], [35.0, 0.0]]),
        Lane(2, "vehicle", [[-3.0, 3.5], [17.0, 3.5]]),
    ]
    conn = LaneConnectivity(
        successors=[(0, 1)],
        predecessors=[(1, 0)],
        left=[(0, 2, "dashed")],
        right=[(2, 0, "dashed")],
    )
    agents = [_agent(0.0, 0.0, 8.0, category=3)]
    for i in range(n_extra_agents):
        agents.append(_agent(-2.0 - i, 3.5, 6.0))
    gt = None
    if with_gt:
        gt = np.zeros((len(agents), T_F, 2))
        for i, a in enumerate(agents):
            v = a.velocities[-1]
            gt[i] = a.positions[-1] + np.arange(1.0, T_F + 1.0)[:, None] * v * 0.1
    return Scenario(lanes=lanes, connectivity=conn, agents=agents,
                    target_ids=[0], ground_truth=gt)


def test_prepare_sample_shapes_and_features():
    cfg = _cfg()
    sample = prepare_sample(_scene(), cfg)
    assert sample.agent_features.shape == (2, T_H, 8)
    assert sample.observed.shape == (2, T_H)
    assert sample.lane_features.shape == (3, 4, 5)
    assert sample.lane_positions.shape == (3, 2)
    # target sits at the origin of its own frame at the last step
    assert np.abs(sample.agent_features[0, -1, 0:2]).max() < 1e-12
    assert np.abs(sample.agent_positions[0]).max() < 1e-12
    # velocity feature is scaled down by 10
    assert abs(sample.agent_features[0, -1, 6] - 0.8) < 1e-12
    assert sample.agent_features[0, 0, 3] == 3.0     # category channel
    # unit tangents along straight lanes
    assert np.abs(np.abs(sample.lane_features[:, :, 2]) - 1.0).max() < 1e-9
    assert np.abs(sample.lane_features[:, :, 3]).max() < 1e-9


def test_prepare_sample_rejects_wrong_history_length():
    cfg = _cfg(t_history=9)
    with pytest.raises(ValueError, match="history length 6 does not match"):
        prepare_sample(_scene(), cfg)


def test_prepare_sample_rejects_fully_padded_agent():
    raw = _scene()
    raw.agents[1] = _agent(-2.0, 3.5, 6.0, padding=np.zeros(T_H, dtype=bool))
    with pytest.raises(ValueError, match="empty history for agent 1"):
        prepare_sample(raw, _cfg())


def test_agent_position_uses_last_observed_step():
    raw = _scene()
    pad = np.ones(T_H, dtype=bool)
    pad[-2:] = False
    raw.agents[1] = _agent(-2.0, 3.5, 6.0, padding=pad)
    sample = prepare_sample(raw, _cfg())
    expect = sample.agent_features[1, T_H - 3, 0:2] * 10.0
    assert np.abs(sample.agent_positions[1] - expect).max() < 1e-12


def test_forward_output_contract():
    cfg = _cfg()
    params = init_model(cfg, seed=0)
    sample = prepare_sample(_scene(), cfg)
    out = model_forward(params, sample)
    assert out.paths.shape == (1, cfg.modes, T_F, 2)
    assert out.confidences.data.shape == (1, cfg.modes)
    assert abs(out.confidences.data.sum() - 1.0) < 1e-12

    pred = out.prediction_set()
    assert pred.trajectories.shape == (1, cfg.modes, T_F, 2)
    assert pred.target_ids == [0]


def test_padded_steps_have_exactly_zero_influence():
    cfg = _cfg()
    params = init_model(cfg, seed=1)
    raw = _scene()
    pad = np.ones(T_H, dtype=bool)
    pad[0:2] = False
    raw.agents[1] = _agent(-2.0, 3.5, 6.0, padding=pad)
    base = predict(params, raw).trajectories

    # scribble over the padded steps' kinematic fields
    raw2 = _scene()
    a = _agent(-2.0, 3.5, 6.0, padding=pad)
    a.positions[0:2] = (999.0, -777.0)
    a.velocities[0:2] = (55.0, 44.0)
    a.headings[0:2] = 2.9
    raw2.agents[1] = a
    altered = predict(params, raw2).trajectories
    assert np.array_equal(base, altered)


def test_predictions_invariant_to_scene_translation_and_rotation():
    cfg = _cfg()
    params = init_model(cfg, seed=2)
    raw = _scene()
    base = predict(params, raw)

    ang = 0.7
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    shift = np.array([123.0, -45.0])

    def move(p):
        return p @ rot.T + shift

    moved = _scene()
    for l in moved.lanes:
        l.centerline = move(l.centerline)
    for a in moved.agents:
        a.positions = move(a.positions)
        a.velocities = a.velocities @ rot.T
        a.headings = a.headings + ang
    moved.ground_truth = np.stack([move(g) for g in moved.ground_truth])

    out = predict(params, moved)
    assert np.abs(base.trajectories - out.trajectories).max() < 1e-9
    assert np.abs(base.confidences - out.confidences).max() < 1e-9


def test_lane_permutation_permutes_map_rows():
    cfg = _cfg()
    params = init_model(cfg, seed=3)
    raw = _scene()
    sample = prepare_sample(raw, cfg)
    rows = map_net_forward(params, sample).data

    perm = [2, 0, 1]
    shuffled = _scene()
    shuffled.lanes = [shuffled.lanes[i] for i in perm]
    rows_p = map_net_forward(params, prepare_sample(shuffled, cfg)).data
    assert np.abs(rows_p - rows[perm]).max() < 1e-9


def test_hte_encodes_each_agent_independently():
    cfg = _cfg()
    params = init_model(cfg, seed=4)
    sample = prepare_sample(_scene(n_extra_agents=2), cfg)
    full = hte_forward(params, sample.agent_features, sample.observed).data
    solo = hte_forward(params, sample.agent_features[1:2], sample.observed[1:2]).data
    assert np.abs(full[1] - solo[0]).max() < 1e-12


def test_prediction_set_validation():
    good_traj = np.zeros((1, 2, 3, 2))
    PredictionSet(good_traj, np.array([[0.4, 0.6]]), [0])
    with pytest.raises(ValueError, match="negative"):
        PredictionSet(good_traj, np.array([[-0.1, 1.1]]), [0])
    with pytest.raises(ValueError, match="sum to 1"):
        PredictionSet(good_traj, np.array([[0.4, 0.4]]), [0])
    with pytest.raises(ValueError, match="inconsistent"):
        PredictionSet(np.zeros((1, 3, 3, 2)), np.array([[0.5, 0.5]]), [0])


def test_checkpoint_round_trip_preserves_forward():
    cfg = _cfg()
    params = init_model(cfg, seed=5)
    raw = _scene()
    base = predict(params, raw)

    import tempfile
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.ckpt")
        save_checkpoint(path, params.registry, seed=5)
        other = init_model(cfg, seed=99)
        assert np.abs(predict(other, raw).trajectories - base.trajectories).max() > 0
        assert load_checkpoint(path, other.registry) == 5
        again = predict(other, raw)
    assert np.array_equal(base.trajectories, again.trajectories)
    assert np.array_equal(base.confidences, again.confidences)


def test_to_world_round_trip():
    cfg = _cfg()
    raw = _scene()
    raw.agents[0].positions += (40.0, 7.0)
    raw.agents[0].headings[:] = 1.1
    sample = prepare_sample(raw, cfg)
    # the target's last observed position maps back to its raw location
    world = sample.to_world(np.zeros((1, 2)))
    assert np.abs(world[0] - raw.agents[0].positions[-1]).max() < 1e-9


def test_model_config_validation():
    with pytest.raises(ValueError, match="at least 1 mode"):
        _cfg(modes=0)
    with pytest.raises(ValueError, match="fixed"):
        _cfg(m_agent=9)
    with pytest.raises(ValueError, match="n_lane_nodes"):
        _cfg(n_lane_nodes=1)
    att = _cfg().attention()
    assert att.d_model == 8 and att.heads == 2 and att.d_k == 4


@pytest.mark.parametrize("name", ["e_a2a", "e_a2l", "e_l2a"])
def test_model_config_rejects_neighborhoods_below_one(name):
    with pytest.raises(ValueError, match=f"{name} must be at least 1, got 0"):
        _cfg(**{name: 0})
    assert getattr(_cfg(**{name: 1}), name) == 1


def test_batched_hte_rows_equal_single_agent_passes():
    cfg = _cfg(layers=2)
    params = init_model(cfg, seed=6)
    raw = _scene(n_extra_agents=3)
    pad = np.ones(T_H, dtype=bool)
    pad[:3] = False
    raw.agents[2] = _agent(-4.0, 3.5, 5.0, padding=pad)
    sample = prepare_sample(raw, cfg)
    full = hte_forward(params, sample.agent_features, sample.observed).data
    for i in range(len(raw.agents)):
        solo = hte_forward(params, sample.agent_features[i:i + 1], sample.observed[i:i + 1]).data
        assert np.abs(full[i] - solo[0]).max() < 1e-12


def test_attention_projections_register_as_one_matrix_each():
    cfg = _cfg()
    params = init_model(cfg, seed=0)
    names = params.registry.names()
    for prefix in ("interaction.attn", "temporal0.attn", "lane0.attn", "fuse_l2l.attn"):
        for proj in ("wq", "wk", "wv", "wo"):
            assert params.registry[f"{prefix}.{proj}"].data.shape == (cfg.d_model, cfg.d_model)
    assert not [n for n in names if re.search(r"\.w[qkv]\d+$", n)]   # no per-head copies
    assert "interaction.ffn.w1" in names


def test_bias_groups_and_decoder_register_as_one_tensor_each():
    cfg = _cfg(modes=3, heads=4, d_model=8, decoder_hidden=5)
    params = init_model(cfg, seed=0)
    reg = params.registry
    c = len(cfg.connection_types)
    for prefix in ("lane_bias", "fuse_l2l_bias"):
        for group in ("wp", "ws", "wl", "wr", "wpre_inter", "wsuc_inter",
                      "wpre_outer", "wsuc_outer"):
            assert reg[f"{prefix}.{group}"].data.shape == (4, 1, 1)
        assert reg[f"{prefix}.wc"].data.shape == (4, c, 1)
    expected = {"w1": (8, 3 * 5), "b1": (1, 3 * 5), "w_offsets": (3, 5, 2 * T_F),
                "b_offsets": (3, 1, 2 * T_F), "w_score": (3, 5, 1), "b_score": (3, 1, 1)}
    assert {n: reg[n].data.shape for n in reg.names() if n.startswith("decoder")} == {
        f"decoder.{k}": v for k, v in expected.items()}
    assert not [n for n in reg.names() if re.match(r"(lane_bias|fuse_l2l_bias)\.\w+\d$", n)]


def test_decoder_init_keeps_per_head_draw_order():
    cfg = _cfg(modes=3, d_model=6, decoder_hidden=4)
    dec = _init_decoder(np.random.default_rng(8), cfg)
    rng = np.random.default_rng(8)
    for k in range(3):
        assert np.array_equal(dec.w1.data[:, 4 * k:4 * k + 4], uniform_init(rng, 6, (6, 4)))
        assert np.array_equal(dec.w_offsets.data[k], uniform_init(rng, 4, (4, 2 * T_F)))
        assert np.array_equal(dec.w_score.data[k], uniform_init(rng, 4, (4, 1)))
    for bias in (dec.b1, dec.b_offsets, dec.b_score):
        assert (bias.data == 0.0).all()


def test_decoder_matches_per_head_reference():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        k, h, n_t = (1, 2, 3, 6, 4)[seed], 5, (1, 3, 2, 1, 4)[seed]
        cfg = _cfg(modes=k, decoder_hidden=h)
        params = init_model(cfg, seed=seed)
        dec = params.decoder
        for t in (dec.b1, dec.b_offsets, dec.b_score):
            t.data = rng.normal(size=t.data.shape)
        feats = rng.normal(size=(n_t, cfg.d_model))
        out = decode_trajectories(params, Tensor(feats), list(range(n_t)))
        scores = np.zeros((n_t, k))
        for m in range(k):
            cols = slice(m * h, (m + 1) * h)
            hidden = np.maximum(feats @ dec.w1.data[:, cols] + dec.b1.data[:, cols], 0.0)
            offsets = hidden @ dec.w_offsets.data[m] + dec.b_offsets.data[m]
            scores[:, m] = (hidden @ dec.w_score.data[m] + dec.b_score.data[m])[:, 0]
            for i in range(n_t):
                path = np.cumsum(offsets[i].reshape(T_F, 2), axis=0)
                assert np.abs(out.paths.data[i, m] - path).max() < 1e-12
        assert np.abs(out.scores.data - scores).max() < 1e-12
        conf = np.exp(scores - scores.max(axis=1, keepdims=True))
        conf /= conf.sum(axis=1, keepdims=True)
        assert np.abs(out.confidences.data - conf).max() < 1e-12


def test_trajectories_view_reads_paths_and_is_taped():
    cfg = _cfg(modes=3)
    params = init_model(cfg, seed=0)
    raw = _scene(n_extra_agents=2)
    raw.target_ids = [0, 2]
    out = model_forward(params, prepare_sample(raw, cfg))
    view = out.trajectories
    assert [len(modes) for modes in view] == [3, 3]
    for i, modes in enumerate(view):
        for m, traj in enumerate(modes):
            assert np.array_equal(traj.data, out.paths.data[i, m])
            assert traj._parents
    # each view's gradient lands on exactly its own slice of paths
    backpropagate(reduce_sum(view[1][2]))
    want = np.zeros(out.paths.shape)
    want[1, 2] = 1.0
    assert np.array_equal(out.paths.grad, want)


# ---------------------------------------------------------------------------
# inference without a tape

def _toy_cfg(**overrides):
    # the acceptance toy config, at the generator's default history and horizon
    base = dict(d_model=16, heads=2, layers=1, modes=6, n_lane_nodes=6,
                decoder_hidden=32, e_a2a=8, e_a2l=16, e_l2a=4)
    base.update(overrides)
    return ModelConfig(**base)


def _same_outputs(a, b) -> bool:
    return (np.array_equal(a.scores.data, b.scores.data)
            and np.array_equal(a.confidences.data, b.confidences.data)
            and np.array_equal(a.paths.data, b.paths.data))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), template=st.sampled_from(TEMPLATES),
       agents=st.integers(1, 5), biases=st.booleans())
def test_no_grad_forward_matches_taped_forward(seed, template, agents, biases):
    cfg = _toy_cfg(use_relation_bias=biases, use_reachability_bias=biases)
    params = init_model(cfg, seed=seed)
    sample = prepare_sample(generate_scenario(
        GeneratorConfig(seed=seed, template=template, agent_count=agents), 0), cfg)
    taped = model_forward(params, sample)
    assert taped.scores._parents
    with no_grad():
        untaped = model_forward(params, sample)
    assert untaped.scores._parents == () and untaped.confidences._parents == ()
    assert untaped.paths._parents == ()
    assert all(m._parents == () for modes in untaped.trajectories for m in modes)
    assert _same_outputs(taped, untaped)


@pytest.mark.parametrize("template", TEMPLATES)
def test_predict_matches_taped_forward(template):
    cfg = _toy_cfg()
    params = init_model(cfg, seed=4)
    raw = generate_scenario(GeneratorConfig(seed=4, template=template, agent_count=4), 1)
    taped = model_forward(params, prepare_sample(raw, cfg)).prediction_set()
    pred = predict(params, raw)
    assert np.array_equal(pred.trajectories, taped.trajectories)
    assert np.array_equal(pred.confidences, taped.confidences)
    assert pred.target_ids == taped.target_ids


def test_capture_softmax_records_under_no_grad():
    # criterion 9's three scenes: 54 matrices with or without a tape
    counts = []
    for seed, template in zip((1, 2, 3), ("fork", "merge", "intersection")):
        cfg = _toy_cfg()
        params = init_model(cfg, seed=seed)
        sample = prepare_sample(generate_scenario(GeneratorConfig(seed=seed,
                                                                  template=template), 0), cfg)
        with capture_softmax() as taped:
            model_forward(params, sample)
        with no_grad(), capture_softmax() as untaped:
            model_forward(params, sample)
        assert len(untaped) == len(taped)
        assert all(np.array_equal(a, b) for a, b in zip(taped, untaped))
        counts.append(len(untaped))
    assert sum(counts) == 54
