"""Full prediction pipeline: encoders, interaction blocks, fusion, decoding.

Stages mirror the architecture: a history encoder turns each agent's T-step
track into one feature row, an interaction block mixes agents, a node
encoder turns each lane's resampled centerline into one row, a stack of
topology-biased layers mixes lanes (every layer reuses one composed bias
set), a four-step fusion exchanges information between the two sets with
local attention, and K decoding heads, run as one batch, emit offset
sequences plus a score that becomes the mode confidence. The output is one
(N_t, K, T_f, 2) path tensor and one (N_t, K) score tensor.

Every stage also takes a stack of scenes that share their shapes
(stack_samples): the history encoder runs scene by scene and joins its
outputs, and each later stage runs once over a leading scene axis. Each
scene keeps its own rows in every matrix product, and every weight
gradient is reduced within each scene before the scenes are added in
order, so a stack gives the per-scene numbers bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass
from functools import lru_cache

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
    stack,
    uniform_init,
)
from .attention import (
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
    "stack_samples",
    "init_model",
    "hte_forward",
    "ain_forward",
    "map_net_forward",
    "fusion_forward",
    "decode_trajectories",
    "model_forward",
    "predict_sample",
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
    decoder_hidden: int = 64
    e_a2a: int = 16
    e_a2l: int = 32
    e_l2a: int = 8
    use_relation_bias: bool = True
    use_reachability_bias: bool = True
    use_local_attention: bool = True
    connection_types: tuple = sc.BOUNDARY_TYPES

    def __post_init__(self):
        if self.heads < 1 or self.d_model < 1:
            raise ValueError("heads and d_model must be positive")
        if self.d_model % self.heads:
            raise ValueError(
                f"d_model must split evenly into heads ({self.d_model} % {self.heads} != 0)")
        if self.modes < 1:
            raise ValueError(f"need at least 1 mode, got {self.modes}")
        if self.n_lane_nodes < 2:
            raise ValueError("n_lane_nodes must be at least 2")
        for name in NEIGHBORHOODS:
            e = getattr(self, f"e_{name}")
            if e < 1:
                raise ValueError(f"e_{name} must be at least 1, got {e}")


@dataclass
class Sample:
    """One scenario prepared for the network, in the target's frame.

    A stack of B scenes (stack_samples) is one Sample whose arrays and
    topology matrices have a leading scene axis and whose scenario,
    target_ids and topology lane_ids are per-scene lists.
    """

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

    @property
    def stacked(self) -> bool:
        return self.observed.ndim == 3


def _shapes(s: Sample) -> tuple:
    gt = None if s.ground_truth is None else np.shape(s.ground_truth)
    return (s.agent_features.shape, s.lane_features.shape, len(s.target_ids), gt,
            s.topology.m_c.shape)


def stack_samples(samples) -> Sample | None:
    """The samples as one stack, scene b at index b; None if any shape differs.

    Shapes are the agent, lane, target and ground-truth counts and lengths
    and the boundary categories: everything the model's arrays take theirs
    from.
    """
    first = samples[0]
    if any(_shapes(s) != _shapes(first) for s in samples[1:]):
        return None
    arrays = lambda get: np.stack([get(s) for s in samples])
    topo = first.topology
    return Sample(
        scenario=[s.scenario for s in samples],
        topology=TopologyMatrices(
            lane_ids=[s.topology.lane_ids for s in samples],
            categories=topo.categories,
            **{f: arrays(lambda s: getattr(s.topology, f)) for f in (
                "m_p", "m_s", "m_l", "m_r", "pre_hops", "suc_hops", "m_pre_spd", "m_suc_spd",
                "m_c", "midpoints")}),
        target_ids=[s.target_ids for s in samples],
        ground_truth=None if first.ground_truth is None else arrays(lambda s: s.ground_truth),
        frame_heading=np.array([s.frame_heading for s in samples]),
        **{f: arrays(lambda s: getattr(s, f)) for f in (
            "agent_features", "observed", "agent_positions", "lane_features",
            "lane_positions", "frame_origin")})


def prepare_sample(raw: sc.Scenario, cfg: ModelConfig) -> Sample:
    sc.validate_scenario(raw)
    t = raw.t_history
    if t != cfg.t_history:
        raise ValueError(f"scenario {raw.name!r}: history length {t} does not match "
                         f"configured t_history {cfg.t_history}")
    t_f = None if raw.ground_truth is None else np.shape(raw.ground_truth)[1]
    if t_f not in (None, cfg.t_future):
        raise ValueError(f"scenario {raw.name!r}: future length {t_f} does not match "
                         f"configured t_future {cfg.t_future}")
    target = raw.target_ids[0]
    ref = raw.agents[target]
    origin = ref.positions[t - 1].copy()
    heading = float(ref.headings[t - 1])
    norm = sc.normalize_scenario(raw, target)

    positions, velocities, headings, observed = sc._agent_arrays(norm.agents)
    empty = np.flatnonzero(~observed.any(axis=1))
    if len(empty):
        raise ValueError(f"empty history for agent {empty[0]}")
    feats = np.zeros((len(norm.agents), t, N_AGENT_FEATURES))
    feats[..., 0:2] = positions / FEATURE_SCALE
    feats[..., 2] = observed
    feats[..., 3:5] = np.array([(a.category, sc.AGENT_TYPES.index(a.agent_type))
                                for a in norm.agents], dtype=np.float64)[:, None]
    feats[..., 5] = headings
    feats[..., 6:8] = velocities / FEATURE_SCALE
    last_observed = t - 1 - np.argmax(observed[:, ::-1], axis=1)
    agent_pos = positions[np.arange(len(positions)), last_observed]

    resampled = sc.resample_lanes(norm, cfg.n_lane_nodes)
    topo = build_topology(resampled, cfg.connection_types)

    pts = np.array([l.centerline for l in resampled.lanes])
    tangent = sc.finite_difference_velocities(pts, 1.0)
    norms = np.linalg.norm(tangent, axis=2, keepdims=True)
    tangent = np.divide(tangent, norms, out=np.zeros_like(tangent), where=norms > 0)
    lane_feats = np.zeros((len(pts), cfg.n_lane_nodes, N_MAP_FEATURES))
    lane_feats[..., 0:2] = pts / FEATURE_SCALE
    lane_feats[..., 2:4] = tangent
    lane_feats[..., 4] = np.array([sc.LANE_TYPES.index(l.lane_type) for l in resampled.lanes],
                                  dtype=np.float64)[:, None]

    return Sample(
        scenario=resampled,
        topology=topo,
        agent_features=feats,
        observed=observed,
        agent_positions=agent_pos,
        lane_features=lane_feats,
        lane_positions=topo.midpoints,
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
    elif is_dataclass(obj):
        for name in vars(obj):
            _register(reg, f"{prefix}.{name}", getattr(obj, name))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _register(reg, f"{prefix}{i}", item)
    else:
        raise TypeError(f"cannot register {prefix!r} of type {type(obj).__name__}")


def init_model(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    rng = np.random.default_rng(seed)
    d, heads = cfg.d_model, cfg.heads
    c = len(cfg.connection_types)
    params = ModelParams(
        cfg=cfg,
        agent_embed=init_mlp(rng, N_AGENT_FEATURES, d, d),
        temporal_layers=[init_layer_weights(rng, d, heads) for _ in range(cfg.layers)],
        temporal_agg=init_mlp(rng, d, d, d),
        interaction=init_layer_weights(rng, d, heads),
        node_embed=init_mlp(rng, N_MAP_FEATURES, d, d),
        node_agg=init_mlp(rng, d, d, d),
        lane_layers=[init_layer_weights(rng, d, heads) for _ in range(cfg.layers)],
        lane_bias=init_bias_weights(heads, c),
        fuse_a2l=init_layer_weights(rng, d, heads),
        fuse_l2l=init_layer_weights(rng, d, heads),
        fuse_l2l_bias=init_bias_weights(heads, c),
        fuse_l2a=init_layer_weights(rng, d, heads),
        fuse_a2a=init_layer_weights(rng, d, heads),
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
        traj, conf = self.trajectories.shape, self.confidences.shape
        if (len(traj) != 4 or len(conf) != 2 or traj[:2] != conf or traj[3] != 2
                or len(self.target_ids) != conf[0]):
            raise ValueError(f"trajectories {traj} and confidences {conf} are inconsistent "
                             f"with each other or with {len(self.target_ids)} target ids")
        if (self.confidences < 0).any():
            raise ValueError("negative mode confidence")
        if not np.allclose(self.confidences.sum(axis=1), 1.0, atol=1e-6):
            raise ValueError("mode confidences must sum to 1 per target")


@dataclass
class ModelOutput:
    """Tensor-valued forward result, differentiable end to end.

    A stack of B scenes gives (B, N_targets, ...) tensors and one target
    list per scene.
    """

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
    linear aggregation. The key mask stays (N_a, 1, T), the same keep flags
    for every query step, so the softmax checks and inverts T flags per
    agent, not T^2. A (B, N_a, T, 8) stack is encoded scene by scene and
    gives (B, N_a, D).
    """
    if observed.ndim == 3:
        return stack([hte_forward(params, f, o) for f, o in zip(agent_features, observed)])
    n_a = observed.shape[0]
    counts = observed.sum(axis=1)
    if not counts.all():
        raise ValueError(f"empty history for agent {int(np.flatnonzero(counts == 0)[0])}")
    x = mlp(Tensor(agent_features), params.agent_embed)
    for lw in params.temporal_layers:
        x = transformer_layer(x, x, lw, params.cfg.heads, mask=observed[:, None, :])
    pool = (observed / counts[:, None])[:, None, :]
    pooled = reshape(matmul(Tensor(pool), x), (n_a, params.cfg.d_model))
    return mlp(pooled, params.temporal_agg)


def ain_forward(params: ModelParams, agent_feats: Tensor) -> Tensor:
    """Agent interaction: one full self-attention block over agent rows."""
    return transformer_layer(agent_feats, agent_feats, params.interaction, params.cfg.heads,
                             stacked=agent_feats.data.ndim == 3)


def map_net_forward(params: ModelParams, sample: Sample) -> Tensor:
    """Lane encoder plus the topology-biased stack; returns (N_l, D).

    Every biased layer reuses the same composed bias set, so one group of
    bias coefficients serves the whole stack.
    """
    cfg, stacked = params.cfg, sample.stacked
    nodes = mlp(Tensor(sample.lane_features), params.node_embed, stacked)
    pool = Tensor(np.full((1, cfg.n_lane_nodes), 1.0 / cfg.n_lane_nodes))
    pooled = reshape(matmul(pool, nodes), sample.lane_features.shape[:-2] + (cfg.d_model,))
    lanes = mlp(pooled, params.node_agg, stacked)
    biases = compose_bias_matrices(params.lane_bias, sample.topology,
                                   use_relations=cfg.use_relation_bias,
                                   use_reachability=cfg.use_reachability_bias)
    for lw in params.lane_layers:
        lanes = transformer_layer(lanes, lanes, lw, cfg.heads, biases=biases, stacked=stacked)
    return lanes


def _local_mask(cfg: ModelConfig, q_pos, k_pos, e: int):
    if not cfg.use_local_attention or e >= k_pos.shape[-2]:
        return None
    return nearest_neighbor_mask(np.asarray(q_pos), np.asarray(k_pos), e)


def fusion_forward(params: ModelParams, agent_feats: Tensor, lane_feats: Tensor,
                   sample: Sample) -> Tensor:
    """Agent/lane exchange: A2L, biased L2L, L2A, A2A; returns agent rows."""
    cfg, stacked = params.cfg, sample.stacked
    a_pos, l_pos = sample.agent_positions, sample.lane_positions
    lanes = transformer_layer(lane_feats, agent_feats, params.fuse_a2l, cfg.heads,
                              mask=_local_mask(cfg, l_pos, a_pos, cfg.e_a2l), stacked=stacked)
    l2l_bias = compose_bias_matrices(params.fuse_l2l_bias, sample.topology,
                                     use_relations=cfg.use_relation_bias,
                                     use_reachability=cfg.use_reachability_bias)
    lanes = transformer_layer(lanes, lanes, params.fuse_l2l, cfg.heads, biases=l2l_bias,
                              stacked=stacked)
    agents = transformer_layer(agent_feats, lanes, params.fuse_l2a, cfg.heads,
                               mask=_local_mask(cfg, a_pos, l_pos, cfg.e_l2a), stacked=stacked)
    return transformer_layer(agents, agents, params.fuse_a2a, cfg.heads,
                             mask=_local_mask(cfg, a_pos, a_pos, cfg.e_a2a), stacked=stacked)


@lru_cache(maxsize=None)
def _cumulative_sum_matrix(t_f: int) -> np.ndarray:
    """Lower-triangular ones: left-multiplying offsets by it gives their running sums.

    One read-only array per horizon, shared by every forward and its tape.
    """
    m = np.tril(np.ones((t_f, t_f)))
    m.flags.writeable = False
    return m


def decode_trajectories(params: ModelParams, target_feats: Tensor,
                        target_ids: list) -> ModelOutput:
    """K offset-sequence heads per target; offsets accumulate from the origin.

    All heads run as one batch: the (N_t, K, 1, h) hidden state gives
    (N_t, K, T_f, 2) cumulative paths and (N_t, K) scores. (B, N_t, D)
    target rows of a stack give (B, N_t, ...) outputs.
    """
    cfg = params.cfg
    dec = params.decoder
    t_f, k, h = cfg.t_future, cfg.modes, cfg.decoder_hidden
    lead, stacked = target_feats.shape[:-1], target_feats.data.ndim == 3
    hidden = reshape(relu(add(matmul(target_feats, dec.w1, stacked), dec.b1, stacked)),
                     lead + (k, 1, h))
    offsets = reshape(add(matmul(hidden, dec.w_offsets, stacked), dec.b_offsets, stacked),
                      lead + (k, t_f, 2))
    paths = matmul(_cumulative_sum_matrix(t_f), offsets)
    scores = reshape(add(matmul(hidden, dec.w_score, stacked), dec.b_score, stacked),
                     lead + (k,))
    return ModelOutput(paths=paths, scores=scores, confidences=row_softmax(scores),
                       target_ids=list(target_ids))


def model_forward(params: ModelParams, sample: Sample) -> ModelOutput:
    agents = hte_forward(params, sample.agent_features, sample.observed)
    agents = ain_forward(params, agents)
    lanes = map_net_forward(params, sample)
    agents = fusion_forward(params, agents, lanes, sample)
    targets = gather_rows(agents, sample.target_ids)
    return decode_trajectories(params, targets, sample.target_ids)


def predict_sample(params: ModelParams, sample: Sample) -> PredictionSet:
    """One prepared sample's predictions, from a forward run without a tape."""
    with no_grad():
        return model_forward(params, sample).prediction_set()


def predict(params: ModelParams, raw: sc.Scenario) -> PredictionSet:
    """Convenience wrapper: prepare, then predict_sample."""
    return predict_sample(params, prepare_sample(raw, params.cfg))
