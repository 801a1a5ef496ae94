"""Multi-head attention with optional topology bias and local windows.

Three flavors share one core: plain scaled dot-product attention, a biased
variant that multiplies pre-softmax logits by a structure matrix B and adds
a reachability term D_inter before the softmax then rescales the resulting
probabilities by D_outer, and a local variant that restricts each query to
its e nearest keys by Euclidean distance. Every bias coefficient group is
one learnable tensor with a leading head axis: a scalar per head, or a
length-C vector per head for the boundary-marking gate. The two-layer
perceptron here serves both the transformer block's feed-forward and the
model's embedding and aggregation layers.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    add,
    layer_norm,
    matmul,
    merge_heads,
    multiply,
    relu,
    reshape,
    row_softmax,
    scale,
    split_heads,
    uniform_init,
)
from .topology import TopologyMatrices

__all__ = [
    "AttentionConfig",
    "AttentionWeights",
    "BiasWeights",
    "BiasSet",
    "MLPWeights",
    "LayerWeights",
    "init_attention_weights",
    "init_bias_weights",
    "init_layer_weights",
    "init_mlp",
    "mlp",
    "compose_bias_matrices",
    "nearest_neighbor_mask",
    "standard_attention",
    "biased_attention",
    "local_attention",
    "transformer_layer",
    "capture_softmax",
]


@dataclass
class AttentionConfig:
    d_model: int
    heads: int

    def __post_init__(self):
        if self.heads < 1 or self.d_model < 1:
            raise ValueError("heads and d_model must be positive")
        if self.d_model % self.heads:
            raise ValueError(
                f"d_model must split evenly into heads ({self.d_model} % {self.heads} != 0)")

    @property
    def d_k(self) -> int:
        return self.d_model // self.heads


@dataclass
class AttentionWeights:
    """Query/key/value projections and the output projection, each (d, d).

    Head h owns columns h * d_k to (h + 1) * d_k of wq, wk and wv.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor


@dataclass
class BiasWeights:
    """Learnable coefficients composing the bias matrices, head h in row h.

    wp/ws/wl/wr (H, 1, 1) weight the relation closeness matrices inside B,
    wc (H, C, 1) gates lateral closeness by boundary-marking category, and
    the four spd coefficients (H, 1, 1) weight the reachability matrices
    inside D_inter and D_outer. The (H, 1, 1) shapes broadcast against an
    (N_l, N_l) matrix to give one matrix per head.
    """

    wp: Tensor
    ws: Tensor
    wl: Tensor
    wr: Tensor
    wc: Tensor
    wpre_inter: Tensor
    wsuc_inter: Tensor
    wpre_outer: Tensor
    wsuc_outer: Tensor


@dataclass
class BiasSet:
    """Composed bias matrices ready for biased_attention, each (H, N_l, N_l).

    b entries multiply scaled logits, d_inter entries add to them, d_outer
    entries rescale the softmax probabilities; head h uses slice h.
    """

    b: Tensor
    d_inter: Tensor
    d_outer: Tensor

    @property
    def heads(self) -> int:
        return self.b.shape[0]


@dataclass
class MLPWeights:
    """Two-layer perceptron x -> relu(x w1 + b1) w2 + b2."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class LayerWeights:
    attn: AttentionWeights
    ffn: MLPWeights
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


def init_attention_weights(rng: np.random.Generator, cfg: AttentionConfig) -> AttentionWeights:
    d, dk = cfg.d_model, cfg.d_k
    # one (d, d_k) block per head, drawn head by head: all of Q, then K, then V
    make = lambda: Tensor(np.concatenate(
        [uniform_init(rng, d, (d, dk)) for _ in range(cfg.heads)], axis=1), requires_grad=True)
    return AttentionWeights(
        wq=make(),
        wk=make(),
        wv=make(),
        wo=Tensor(uniform_init(rng, d, (d, d)), requires_grad=True),
    )


def init_bias_weights(heads: int, n_categories: int) -> BiasWeights:
    # every coefficient starts at 1 so the raw structure matrices pass through
    one = lambda: Tensor(np.ones((heads, 1, 1)), requires_grad=True)
    return BiasWeights(
        wp=one(), ws=one(), wl=one(), wr=one(),
        wc=Tensor(np.ones((heads, n_categories, 1)), requires_grad=True),
        wpre_inter=one(), wsuc_inter=one(), wpre_outer=one(), wsuc_outer=one(),
    )


def init_mlp(rng: np.random.Generator, d_in: int, d_hidden: int, d_out: int) -> MLPWeights:
    return MLPWeights(
        w1=Tensor(uniform_init(rng, d_in, (d_in, d_hidden)), requires_grad=True),
        b1=Tensor(np.zeros((1, d_hidden)), requires_grad=True),
        w2=Tensor(uniform_init(rng, d_hidden, (d_hidden, d_out)), requires_grad=True),
        b2=Tensor(np.zeros((1, d_out)), requires_grad=True),
    )


def init_layer_weights(rng: np.random.Generator, cfg: AttentionConfig) -> LayerWeights:
    d = cfg.d_model
    return LayerWeights(
        attn=init_attention_weights(rng, cfg),
        ffn=init_mlp(rng, d, 2 * d, d),
        ln1_gain=Tensor(np.ones((1, d)), requires_grad=True),
        ln1_bias=Tensor(np.zeros((1, d)), requires_grad=True),
        ln2_gain=Tensor(np.ones((1, d)), requires_grad=True),
        ln2_bias=Tensor(np.zeros((1, d)), requires_grad=True),
    )


# ---------------------------------------------------------------------------
# bias composition

def compose_bias_matrices(bw: BiasWeights, topo: TopologyMatrices,
                          use_relations: bool = True,
                          use_reachability: bool = True) -> BiasSet:
    """Combine structure matrices with their learnable coefficients.

    A disabled group substitutes its neutral element (all-ones B and
    d_outer, all-zero d_inter), which reduces biased_attention to the
    standard form.
    """
    heads = bw.wp.shape[0]
    n = topo.n_lanes
    c = len(topo.categories)
    if use_relations:
        gate = reshape(matmul(topo.m_c.reshape(n * n, c), bw.wc), (heads, n, n))
        lateral = multiply(gate, add(multiply(bw.wl, topo.m_l), multiply(bw.wr, topo.m_r)))
        b = add(add(multiply(bw.wp, topo.m_p), multiply(bw.ws, topo.m_s)), lateral)
    else:
        b = Tensor(np.ones((heads, n, n)))
    if use_reachability:
        m_pre, m_suc = topo.m_pre_spd, topo.m_suc_spd
        d_inter = add(multiply(bw.wpre_inter, m_pre), multiply(bw.wsuc_inter, m_suc))
        d_outer = add(multiply(bw.wpre_outer, m_pre), multiply(bw.wsuc_outer, m_suc))
    else:
        d_inter, d_outer = Tensor(np.zeros((heads, n, n))), Tensor(np.ones((heads, n, n)))
    return BiasSet(b=b, d_inter=d_inter, d_outer=d_outer)


# ---------------------------------------------------------------------------
# softmax probe

_SOFTMAX_TRACE: list | None = None


@contextlib.contextmanager
def capture_softmax():
    """Collect every attention probability matrix computed inside the block.

    Batched calls contribute one 2-d matrix per batch row and head.
    """
    global _SOFTMAX_TRACE
    prev, _SOFTMAX_TRACE = _SOFTMAX_TRACE, []
    try:
        yield _SOFTMAX_TRACE
    finally:
        _SOFTMAX_TRACE = prev


def _record_softmax(p: Tensor) -> None:
    if _SOFTMAX_TRACE is not None:
        _SOFTMAX_TRACE.extend(m.copy() for m in p.data.reshape((-1,) + p.data.shape[-2:]))


# ---------------------------------------------------------------------------
# attention ops

def _attention_core(q: Tensor, k: Tensor, v: Tensor, w: AttentionWeights,
                    cfg: AttentionConfig, mask: np.ndarray | None,
                    biases: BiasSet | None) -> Tensor:
    """All heads at once over (..., N, D) inputs; mask is (..., N_q, N_k)."""
    heads = cfg.heads
    qh = split_heads(matmul(q, w.wq), heads)
    kh = split_heads(matmul(k, w.wk), heads)
    vh = split_heads(matmul(v, w.wv), heads)
    logits = scale(matmul(qh, kh, transpose_b=True), 1.0 / np.sqrt(cfg.d_k))
    if biases is not None:
        logits = add(multiply(logits, biases.b), biases.d_inter)
    p = row_softmax(logits, mask=None if mask is None else np.asarray(mask)[..., None, :, :])
    _record_softmax(p)
    if biases is not None:
        p = multiply(p, biases.d_outer)
    return matmul(merge_heads(matmul(p, vh)), w.wo)


def standard_attention(q: Tensor, k: Tensor, v: Tensor, w: AttentionWeights,
                       cfg: AttentionConfig, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention; mask rows are query x key keep flags."""
    return _attention_core(q, k, v, w, cfg, mask, None)


def biased_attention(q: Tensor, k: Tensor, v: Tensor, w: AttentionWeights,
                     cfg: AttentionConfig, biases: BiasSet) -> Tensor:
    """Attention with logits shaped by B and D_inter, output by D_outer.

    Per head: softmax((QK^T / sqrt(d_k)) * B + D_inter) * D_outer, applied
    to V. No masking; the bias matrices carry all structure.
    """
    if biases.heads != cfg.heads:
        raise ValueError(f"bias set has {biases.heads} heads, config {cfg.heads}")
    return _attention_core(q, k, v, w, cfg, None, biases)


def nearest_neighbor_mask(q_pos: np.ndarray, k_pos: np.ndarray, e: int) -> np.ndarray:
    """Keep flags for each query's e nearest keys by Euclidean distance.

    Ties break toward the lower key index. e at or above the key count
    keeps everything.
    """
    if e < 1:
        raise ValueError(f"neighborhood size must be at least 1, got {e}")
    n_k = len(k_pos)
    if n_k == 0:
        raise ValueError("no keys to attend to")
    if e >= n_k:
        return np.ones((len(q_pos), n_k), dtype=bool)
    d = np.linalg.norm(q_pos[:, None, :] - k_pos[None, :, :], axis=2)
    order = np.argsort(d, axis=1, kind="stable")
    mask = np.zeros((len(q_pos), n_k), dtype=bool)
    np.put_along_axis(mask, order[:, :e], True, axis=1)
    return mask


def local_attention(q: Tensor, k: Tensor, v: Tensor, w: AttentionWeights,
                    cfg: AttentionConfig, q_pos: np.ndarray, k_pos: np.ndarray,
                    e: int) -> Tensor:
    """Standard attention restricted to each query's e nearest keys."""
    mask = nearest_neighbor_mask(np.asarray(q_pos), np.asarray(k_pos), e)
    return _attention_core(q, k, v, w, cfg, mask, None)


def mlp(x: Tensor, w: MLPWeights) -> Tensor:
    return add(matmul(relu(add(matmul(x, w.w1), w.b1)), w.w2), w.b2)


def transformer_layer(x_q: Tensor, x_kv: Tensor, w: LayerWeights, cfg: AttentionConfig,
                      mask: np.ndarray | None = None,
                      biases: BiasSet | None = None) -> Tensor:
    """Residual attention block with post-norm and a two-layer feed-forward."""
    att = _attention_core(x_q, x_kv, x_kv, w.attn, cfg, mask, biases)
    h1 = layer_norm(add(x_q, att), w.ln1_gain, w.ln1_bias)
    return layer_norm(add(h1, mlp(h1, w.ffn)), w.ln2_gain, w.ln2_bias)
