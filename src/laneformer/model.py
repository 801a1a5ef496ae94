"""Full prediction pipeline: encoders, interaction blocks, fusion, decoding.

Stages mirror the architecture: a history encoder turns each agent's T-step
track into one feature row, an interaction block mixes agents, a node
encoder turns each lane's resampled centerline into one row, a stack of
topology-biased layers mixes lanes (every layer reuses one composed bias
set), a four-step fusion exchanges information between the two sets with
local attention, and K decoding heads, run as one batch, emit offset
sequences plus a score that becomes the mode confidence. The output is one
(N_t, K, T_f, 2) path tensor and one (N_t, K) score tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import scenario as sc
from .autodiff import (
    ParameterRegistry,
    Tensor,
    add,
    gather_rows,
    matmul,
    no_grad,
    relu,
    reshape,
    row_softmax,
    uniform_init,
)
from .attention import (
    AttentionConfig,
    AttentionWeights,
    BiasWeights,
    LayerWeights,
    MLPWeights,
    compose_bias_matrices,
    init_bias_weights,
    init_layer_weights,
    init_mlp,
    mlp,
    nearest_neighbor_mask,
    transformer_layer,
)
from .topology import TopologyMatrices, build_topology

__all__ = [
    "FEATURE_SCALE",
    "ModelConfig",
    "ModelParams",
    "Sample",
    "PredictionSet",
    "ModelOutput",
    "prepare_sample",
    "init_model",
    "hte_forward",
    "ain_forward",
    "map_net_forward",
    "fusion_forward",
    "decode_trajectories",
    "model_forward",
    "predict",
]

# positions and velocities are divided by this before entering the encoders
FEATURE_SCALE = 10.0

N_AGENT_FEATURES = 8
N_MAP_FEATURES = 5

# local-attention interactions, each with a neighborhood size e_<name>
NEIGHBORHOODS = ("a2a", "a2l", "l2a")


@dataclass
class ModelConfig:
    t_history: int = 50
    t_future: int = 60
    modes: int = 6
    d_model: int = 32
    heads: int = 4
    layers: int = 2
    n_lane_nodes: int = 10
    m_agent: int = N_AGENT_FEATURES
    m_map: int = N_MAP_FEATURES
    decoder_hidden: int = 64
    e_a2a: int = 16
    e_a2l: int = 32
    e_l2a: int = 8
    use_relation_bias: bool = True
    use_reachability_bias: bool = True
    use_local_attention: bool = True
    connection_types: tuple = sc.BOUNDARY_TYPES

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError(f"need at least 1 mode, got {self.modes}")
        if self.m_agent != N_AGENT_FEATURES or self.m_map != N_MAP_FEATURES:
            raise ValueError(
                f"feature widths are fixed at {N_AGENT_FEATURES}/{N_MAP_FEATURES}")
        if self.n_lane_nodes < 2:
            raise ValueError("n_lane_nodes must be at least 2")
        for name in NEIGHBORHOODS:
            e = getattr(self, f"e_{name}")
            if e < 1:
                raise ValueError(f"e_{name} must be at least 1, got {e}")

    def attention(self) -> AttentionConfig:
        return AttentionConfig(d_model=self.d_model, heads=self.heads)


@dataclass
class Sample:
    """One scenario prepared for the network, in the target's frame."""

    scenario: sc.Scenario
    topology: TopologyMatrices
    agent_features: np.ndarray     # (N_a, T, 8)
    observed: np.ndarray           # (N_a, T) bool
    agent_positions: np.ndarray    # (N_a, 2) last observed position
    lane_features: np.ndarray      # (N_l, N_ls, 5)
    lane_positions: np.ndarray     # (N_l, 2) arc-length midpoints
    target_ids: list
    ground_truth: np.ndarray | None
    frame_origin: np.ndarray
    frame_heading: float

    def to_world(self, points: np.ndarray) -> np.ndarray:
        """Map normalized-frame points back to raw scene coordinates."""
        return points @ sc.rotation(self.frame_heading).T + self.frame_origin


def prepare_sample(raw: sc.Scenario, cfg: ModelConfig) -> Sample:
    sc.validate_scenario(raw)
    t = raw.t_history
    if t != cfg.t_history:
        raise ValueError(f"history length {t} does not match configured {cfg.t_history}")
    target = raw.target_ids[0]
    ref = raw.agents[target]
    origin = ref.positions[t - 1].copy()
    heading = float(ref.headings[t - 1])
    norm = sc.normalize_scenario(raw, target)

    n_a = len(norm.agents)
    feats = np.zeros((n_a, t, N_AGENT_FEATURES))
    observed = np.zeros((n_a, t), dtype=bool)
    agent_pos = np.zeros((n_a, 2))
    for i, a in enumerate(norm.agents):
        if not a.padding.any():
            raise ValueError(f"empty history for agent {i}")
        observed[i] = a.padding
        feats[i, :, 0:2] = a.positions / FEATURE_SCALE
        feats[i, :, 2] = a.padding.astype(np.float64)
        feats[i, :, 3] = float(a.category)
        feats[i, :, 4] = float(sc.AGENT_TYPES.index(a.agent_type))
        feats[i, :, 5] = a.headings
        feats[i, :, 6:8] = a.velocities / FEATURE_SCALE
        agent_pos[i] = a.positions[np.flatnonzero(a.padding)[-1]]

    resampled = sc.resample_lanes(norm, cfg.n_lane_nodes)
    topo = build_topology(resampled, cfg.connection_types)

    n_l = len(resampled.lanes)
    lane_feats = np.zeros((n_l, cfg.n_lane_nodes, N_MAP_FEATURES))
    lane_pos = np.zeros((n_l, 2))
    for i, l in enumerate(resampled.lanes):
        pts = l.centerline
        tangent = sc.finite_difference_velocities(pts, 1.0)
        norms = np.linalg.norm(tangent, axis=1, keepdims=True)
        tangent = np.divide(tangent, norms, out=np.zeros_like(tangent), where=norms > 0)
        lane_feats[i, :, 0:2] = pts / FEATURE_SCALE
        lane_feats[i, :, 2:4] = tangent
        lane_feats[i, :, 4] = float(sc.LANE_TYPES.index(l.lane_type))
        lane_pos[i] = sc.arc_length_midpoint(pts)

    return Sample(
        scenario=resampled,
        topology=topo,
        agent_features=feats,
        observed=observed,
        agent_positions=agent_pos,
        lane_features=lane_feats,
        lane_positions=lane_pos,
        target_ids=list(norm.target_ids),
        ground_truth=norm.ground_truth,
        frame_origin=origin,
        frame_heading=heading,
    )


# ---------------------------------------------------------------------------
# parameters


@dataclass
class DecoderHeads:
    """The K decoding heads; mode k owns block k of every weight.

    w1 (d, K * h) and b1 (1, K * h) hold head k's hidden layer in column
    block k. w_offsets (K, h, 2 T_f), b_offsets (K, 1, 2 T_f), w_score
    (K, h, 1) and b_score (K, 1, 1) hold its output layers in slice k.
    """

    w1: Tensor
    b1: Tensor
    w_offsets: Tensor
    b_offsets: Tensor
    w_score: Tensor
    b_score: Tensor


@dataclass
class ModelParams:
    cfg: ModelConfig
    agent_embed: MLPWeights
    temporal_layers: list
    temporal_agg: MLPWeights
    interaction: LayerWeights
    node_embed: MLPWeights
    node_agg: MLPWeights
    lane_layers: list
    lane_bias: BiasWeights
    fuse_a2l: LayerWeights
    fuse_l2l: LayerWeights
    fuse_l2l_bias: BiasWeights
    fuse_l2a: LayerWeights
    fuse_a2a: LayerWeights
    decoder: DecoderHeads
    registry: ParameterRegistry = field(default_factory=ParameterRegistry)

    def attention(self) -> AttentionConfig:
        return self.cfg.attention()


def _init_decoder(rng, cfg: ModelConfig) -> DecoderHeads:
    d, h, out, k = cfg.d_model, cfg.decoder_hidden, 2 * cfg.t_future, cfg.modes
    # drawn head by head (hidden layer, offsets, score), then joined per weight
    w1, w_offsets, w_score = zip(*[
        (uniform_init(rng, d, (d, h)), uniform_init(rng, h, (h, out)),
         uniform_init(rng, h, (h, 1))) for _ in range(k)])
    param = lambda a: Tensor(a, requires_grad=True)
    return DecoderHeads(
        w1=param(np.concatenate(w1, axis=1)),
        b1=param(np.zeros((1, k * h))),
        w_offsets=param(np.stack(w_offsets)),
        b_offsets=param(np.zeros((k, 1, out))),
        w_score=param(np.stack(w_score)),
        b_score=param(np.zeros((k, 1, 1))),
    )


def _register(reg: ParameterRegistry, prefix: str, obj) -> None:
    if isinstance(obj, Tensor):
        reg.add(prefix, obj)
    elif isinstance(obj, (MLPWeights, DecoderHeads, LayerWeights, AttentionWeights,
                          BiasWeights)):
        for name in vars(obj):
            _register(reg, f"{prefix}.{name}", getattr(obj, name))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _register(reg, f"{prefix}{i}", item)
    else:
        raise TypeError(f"cannot register {prefix!r} of type {type(obj).__name__}")


def init_model(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    rng = np.random.default_rng(seed)
    att = cfg.attention()
    d = cfg.d_model
    c = len(cfg.connection_types)
    params = ModelParams(
        cfg=cfg,
        agent_embed=init_mlp(rng, N_AGENT_FEATURES, d, d),
        temporal_layers=[init_layer_weights(rng, att) for _ in range(cfg.layers)],
        temporal_agg=init_mlp(rng, d, d, d),
        interaction=init_layer_weights(rng, att),
        node_embed=init_mlp(rng, N_MAP_FEATURES, d, d),
        node_agg=init_mlp(rng, d, d, d),
        lane_layers=[init_layer_weights(rng, att) for _ in range(cfg.layers)],
        lane_bias=init_bias_weights(cfg.heads, c),
        fuse_a2l=init_layer_weights(rng, att),
        fuse_l2l=init_layer_weights(rng, att),
        fuse_l2l_bias=init_bias_weights(cfg.heads, c),
        fuse_l2a=init_layer_weights(rng, att),
        fuse_a2a=init_layer_weights(rng, att),
        decoder=_init_decoder(rng, cfg),
    )
    reg = params.registry
    for name in ("agent_embed", "temporal_agg", "interaction", "node_embed", "node_agg",
                 "lane_bias", "fuse_a2l", "fuse_l2l", "fuse_l2l_bias", "fuse_l2a",
                 "fuse_a2a"):
        _register(reg, name, getattr(params, name))
    _register(reg, "temporal", params.temporal_layers)
    _register(reg, "lane", params.lane_layers)
    _register(reg, "decoder", params.decoder)
    return params


# ---------------------------------------------------------------------------
# outputs


@dataclass
class PredictionSet:
    """Final numeric predictions for every target agent.

    trajectories is (N_targets, K, T_future, 2) in meters, agent-centric
    frame; confidences is (N_targets, K), each row non-negative and summing
    to one.
    """

    trajectories: np.ndarray
    confidences: np.ndarray
    target_ids: list

    def __post_init__(self):
        self.trajectories = np.asarray(self.trajectories, dtype=np.float64)
        self.confidences = np.asarray(self.confidences, dtype=np.float64)
        n_t, k = self.confidences.shape
        if self.trajectories.shape[:2] != (n_t, k) or self.trajectories.shape[3] != 2:
            raise ValueError(
                f"trajectories {self.trajectories.shape} inconsistent with "
                f"confidences {self.confidences.shape}")
        if (self.confidences < 0).any():
            raise ValueError("negative mode confidence")
        if not np.allclose(self.confidences.sum(axis=1), 1.0, atol=1e-6):
            raise ValueError("mode confidences must sum to 1 per target")


@dataclass
class ModelOutput:
    """Tensor-valued forward result, differentiable end to end."""

    paths: Tensor               # (N_targets, K, T_future, 2)
    scores: Tensor              # (N_targets, K) raw
    confidences: Tensor         # (N_targets, K) softmaxed rows
    target_ids: list

    @property
    def trajectories(self) -> list:
        """[target][mode] -> (T_future, 2) views of `paths`, built on each read.

        Only the benchmark's traced tape count reads this list; delete it
        once the benchmark reads `paths` (ROADMAP item 1(e)).
        """
        n_t, k, t_f, _ = self.paths.shape
        flat = reshape(self.paths, (n_t * k, t_f, 2))
        return [[reshape(gather_rows(flat, [i * k + m]), (t_f, 2)) for m in range(k)]
                for i in range(n_t)]

    def prediction_set(self) -> PredictionSet:
        return PredictionSet(trajectories=self.paths.data, confidences=self.confidences.data,
                             target_ids=list(self.target_ids))


# ---------------------------------------------------------------------------
# forward stages


def hte_forward(params: ModelParams, agent_features: np.ndarray,
                observed: np.ndarray) -> Tensor:
    """History encoder: (N_a, T, 8) tracks to one (N_a, D) feature matrix.

    Each agent is encoded independently, all agents in one batched pass:
    embed steps, run the temporal stack with each agent's padded steps
    masked out of its keys, mean-pool the observed rows, then a final
    linear aggregation.
    """
    n_a, t = observed.shape
    counts = observed.sum(axis=1)
    if not counts.all():
        raise ValueError(f"empty history for agent {int(np.flatnonzero(counts == 0)[0])}")
    att = params.attention()
    x = mlp(Tensor(agent_features), params.agent_embed)
    mask = np.broadcast_to(observed[:, None, :], (n_a, t, t))
    for lw in params.temporal_layers:
        x = transformer_layer(x, x, lw, att, mask=mask)
    pool = (observed / counts[:, None])[:, None, :]
    pooled = reshape(matmul(Tensor(pool), x), (n_a, params.cfg.d_model))
    return mlp(pooled, params.temporal_agg)


def ain_forward(params: ModelParams, agent_feats: Tensor) -> Tensor:
    """Agent interaction: one full self-attention block over agent rows."""
    return transformer_layer(agent_feats, agent_feats, params.interaction,
                             params.attention())


def map_net_forward(params: ModelParams, sample: Sample) -> Tensor:
    """Lane encoder plus the topology-biased stack; returns (N_l, D).

    Every biased layer reuses the same composed bias set, so one group of
    bias coefficients serves the whole stack.
    """
    att = params.attention()
    cfg = params.cfg
    nodes = mlp(Tensor(sample.lane_features), params.node_embed)
    pool = Tensor(np.full((1, cfg.n_lane_nodes), 1.0 / cfg.n_lane_nodes))
    pooled = reshape(matmul(pool, nodes), (sample.lane_features.shape[0], cfg.d_model))
    lanes = mlp(pooled, params.node_agg)
    biases = compose_bias_matrices(params.lane_bias, sample.topology,
                                   use_relations=cfg.use_relation_bias,
                                   use_reachability=cfg.use_reachability_bias)
    for lw in params.lane_layers:
        lanes = transformer_layer(lanes, lanes, lw, att, biases=biases)
    return lanes


def _local_mask(cfg: ModelConfig, q_pos, k_pos, e: int):
    if not cfg.use_local_attention or e >= len(k_pos):
        return None
    return nearest_neighbor_mask(np.asarray(q_pos), np.asarray(k_pos), e)


def fusion_forward(params: ModelParams, agent_feats: Tensor, lane_feats: Tensor,
                   sample: Sample) -> Tensor:
    """Agent/lane exchange: A2L, biased L2L, L2A, A2A; returns agent rows."""
    att = params.attention()
    cfg = params.cfg
    a_pos, l_pos = sample.agent_positions, sample.lane_positions
    lanes = transformer_layer(lane_feats, agent_feats, params.fuse_a2l, att,
                              mask=_local_mask(cfg, l_pos, a_pos, cfg.e_a2l))
    l2l_bias = compose_bias_matrices(params.fuse_l2l_bias, sample.topology,
                                     use_relations=cfg.use_relation_bias,
                                     use_reachability=cfg.use_reachability_bias)
    lanes = transformer_layer(lanes, lanes, params.fuse_l2l, att, biases=l2l_bias)
    agents = transformer_layer(agent_feats, lanes, params.fuse_l2a, att,
                               mask=_local_mask(cfg, a_pos, l_pos, cfg.e_l2a))
    return transformer_layer(agents, agents, params.fuse_a2a, att,
                             mask=_local_mask(cfg, a_pos, a_pos, cfg.e_a2a))


def decode_trajectories(params: ModelParams, target_feats: Tensor,
                        target_ids: list) -> ModelOutput:
    """K offset-sequence heads per target; offsets accumulate from the origin.

    All heads run as one batch: the (N_t, K, 1, h) hidden state gives
    (N_t, K, T_f, 2) cumulative paths and (N_t, K) scores.
    """
    cfg = params.cfg
    dec = params.decoder
    t_f, k, h = cfg.t_future, cfg.modes, cfg.decoder_hidden
    n_t = target_feats.shape[0]
    hidden = reshape(relu(add(matmul(target_feats, dec.w1), dec.b1)), (n_t, k, 1, h))
    offsets = reshape(add(matmul(hidden, dec.w_offsets), dec.b_offsets), (n_t, k, t_f, 2))
    paths = matmul(np.tril(np.ones((t_f, t_f))), offsets)
    scores = reshape(add(matmul(hidden, dec.w_score), dec.b_score), (n_t, k))
    return ModelOutput(paths=paths, scores=scores, confidences=row_softmax(scores),
                       target_ids=list(target_ids))


def model_forward(params: ModelParams, sample: Sample) -> ModelOutput:
    agents = hte_forward(params, sample.agent_features, sample.observed)
    agents = ain_forward(params, agents)
    lanes = map_net_forward(params, sample)
    agents = fusion_forward(params, agents, lanes, sample)
    targets = gather_rows(agents, sample.target_ids)
    return decode_trajectories(params, targets, sample.target_ids)


def predict(params: ModelParams, raw: sc.Scenario) -> PredictionSet:
    """Convenience wrapper: prepare, then run without a tape."""
    sample = prepare_sample(raw, params.cfg)
    with no_grad():
        return model_forward(params, sample).prediction_set()
