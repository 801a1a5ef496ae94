"""Multi-head attention with optional topology bias and key mask.

One function computes every head at once. Given a bias set, it multiplies
the scaled logits by a structure matrix B and adds a reachability term
D_inter before the softmax, then rescales the probabilities by D_outer:
softmax(QK^T / sqrt(d_k) * B + D_inter) * D_outer. Given a key mask, it
keeps only the flagged keys; nearest_neighbor_mask builds the local window
that keeps each query's e nearest keys by Euclidean distance. Every bias
coefficient group is one learnable tensor with a leading head axis: a
scalar per head, or a length-C vector per head for the boundary-marking
gate. The two-layer perceptron here serves both the transformer block's
feed-forward and the model's embedding and aggregation layers.

Attention, the perceptron, the transformer block and each composed bias
matrix are fused ops: one tape node per call, with a plain numpy forward and
a hand-written backward that returns every operand's gradient, as each
autodiff primitive's does. Attention and the perceptron are each one numpy
forward that also returns its backward; the public op tapes that pair, and
the block chains both with autodiff's layer-norm pair, so the block's tape
holds only what those backwards read. Attention allocates each score-sized
(..., N_q, N_k) array once and then works in it: the scale, the key mask
and the softmax overwrite the logits it computed, and in the backward the
softmax's vjp and the scale overwrite the gradient array it computed.
It never writes an operand's data, a saved array or its incoming gradient.

A fused op keeps what its backward cannot cheaply recompute and recomputes
the rest from its operands. Attention keeps its operands, the softmax
probabilities p, the weights p * D_outer of a biased layer and, where B
trains, the unbiased logits; its forward frees the query and key heads as
soon as the scores exist and the value heads once the heads are merged.
Its backward recomputes the three projections with their head split and
the merged heads, and the perceptron's backward its hidden layer, each by
the forward's own numpy expression on the same arrays, so every number is
bit-identical to keeping them. So no operand, parameters included, may be
written between an op's forward and its backward. Parameters are written
in three places, each outside that window: the Adam step runs after
backpropagate, grad_check restores every scalar it perturbs before its
taped run, and load_checkpoint rebinds `.data` rather than writing into it.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import (
    ShapeError,
    Tensor,
    _broadcast,
    _layer_norm,
    _result,
    _softmax,
    _softmax_vjp,
    _unbroadcast,
    uniform_init,
)
from .topology import TopologyMatrices

__all__ = [
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
    "attention",
    "transformer_layer",
    "capture_softmax",
]


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
    """Composed bias matrices ready for attention, each (H, N_l, N_l).

    b entries multiply scaled logits, d_inter entries add to them, d_outer
    entries rescale the softmax probabilities; head h uses slice h.
    """

    b: Tensor
    d_inter: Tensor
    d_outer: Tensor


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


def init_attention_weights(rng: np.random.Generator, d_model: int, heads: int) -> AttentionWeights:
    d, dk = d_model, d_model // heads
    # one (d, d_k) block per head, drawn head by head: all of Q, then K, then V
    make = lambda: Tensor(np.concatenate(
        [uniform_init(rng, d, (d, dk)) for _ in range(heads)], axis=1), requires_grad=True)
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


def init_layer_weights(rng: np.random.Generator, d_model: int, heads: int) -> LayerWeights:
    d = d_model
    return LayerWeights(
        attn=init_attention_weights(rng, d_model, heads),
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
    d_outer, all-zero d_inter), which reduces biased attention to the
    standard form. Topology matrices stacked over B scenes, (B, N_l, N_l),
    give (B, H, N_l, N_l) bias matrices.
    """
    heads, lead, n = bw.wp.shape[0], topo.m_p.shape[:-2], topo.m_p.shape[-1]
    shape = lead + (heads, n, n)
    b = _structure_bias(bw, topo) if use_relations else Tensor(np.ones(shape))
    if use_reachability:
        d_inter = _reachability_bias(bw.wpre_inter, bw.wsuc_inter, topo)
        d_outer = _reachability_bias(bw.wpre_outer, bw.wsuc_outer, topo)
    else:
        d_inter, d_outer = Tensor(np.zeros(shape)), Tensor(np.ones(shape))
    return BiasSet(b=b, d_inter=d_inter, d_outer=d_outer)


def _per_head(stacked: bool, *mats):
    """Stacked (B, N, N) structure matrices as (B, 1, N, N), to meet (H, 1, 1)
    coefficients; one scene's (N, N) matrices broadcast against them as they are."""
    return [m[:, None] for m in mats] if stacked else mats


def _structure_bias(bw: BiasWeights, topo: TopologyMatrices) -> Tensor:
    """B = w_p M_p + w_s M_s + gate * (w_l M_l + w_r M_r) as one tape node,
    where gate = M_c w_c weighs each lane pair by its boundary category."""
    operands = (bw.wp, bw.ws, bw.wl, bw.wr, bw.wc)
    need_p, need_s, need_l, need_r, need_c = (t.requires_grad for t in operands)
    wp, ws, wl, wr, wc = (t.data for t in operands)
    heads, lead, (n, _, c) = wp.shape[0], topo.m_c.shape[:-3], topo.m_c.shape[-3:]
    stacked = bool(lead)
    m_p, m_s, m_l, m_r = _per_head(stacked, topo.m_p, topo.m_s, topo.m_l, topo.m_r)
    m_c = topo.m_c.reshape(lead + (1, n * n, c))
    gate = (m_c @ wc).reshape(lead + (heads, n, n))
    sides = wl * m_l + wr * m_r

    def backward(g):
        g_sides = _unbroadcast(g * gate, sides.shape) if need_l or need_r else None
        g_gate = (_unbroadcast(g * sides, gate.shape).reshape(lead + (heads, n * n, 1))
                  if need_c else None)
        return (_unbroadcast(g * m_p, wp.shape, stacked) if need_p else None,
                _unbroadcast(g * m_s, ws.shape, stacked) if need_s else None,
                _unbroadcast(g_sides * m_l, wl.shape, stacked) if need_l else None,
                _unbroadcast(g_sides * m_r, wr.shape, stacked) if need_r else None,
                _unbroadcast(m_c.swapaxes(-1, -2) @ g_gate, wc.shape, stacked)
                if need_c else None)

    return _result(wp * m_p + ws * m_s + gate * sides, operands, backward)


def _reachability_bias(w_pre: Tensor, w_suc: Tensor, topo: TopologyMatrices) -> Tensor:
    """w_pre M_pre_spd + w_suc M_suc_spd as one tape node."""
    stacked = topo.m_pre_spd.ndim > 2
    m_pre, m_suc = _per_head(stacked, topo.m_pre_spd, topo.m_suc_spd)
    need_pre, need_suc = w_pre.requires_grad, w_suc.requires_grad
    return _result(w_pre.data * m_pre + w_suc.data * m_suc, (w_pre, w_suc),
                   lambda g: (_unbroadcast(g * m_pre, w_pre.shape, stacked) if need_pre else None,
                              _unbroadcast(g * m_suc, w_suc.shape, stacked) if need_suc else None))


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


def _record_softmax(p: np.ndarray) -> None:
    if _SOFTMAX_TRACE is not None:
        _SOFTMAX_TRACE.extend(m.copy() for m in p.reshape((-1,) + p.shape[-2:]))


# ---------------------------------------------------------------------------
# attention ops

def _attention(q: Tensor, k: Tensor, v: Tensor, w: AttentionWeights, heads: int,
               mask, biases: BiasSet | None, stacked: bool = False):
    """attention's numpy forward: (operands, output, backward), where
    backward(g) returns one gradient per operand, None for a constant."""
    biased = biases is not None
    if biased and biases.b.shape[-3] != heads:
        raise ValueError(f"bias set has {biases.b.shape[-3]} heads, attention {heads}")
    if w.wq.shape[-1] % heads:
        raise ShapeError(f"attention: cannot split {w.wq.shape[-1]} columns into {heads} heads")
    operands = (q, k, v, w.wq, w.wk, w.wv, w.wo)
    if biased:
        operands += (biases.b, biases.d_inter, biases.d_outer)
    need = [t.requires_grad for t in operands]
    x_q, x_k, x_v, wq, wk, wv, wo = (t.data for t in operands[:7])

    def project(x, w_in):   # x @ w_in as (..., H, N, d_k): head h owns column block h
        y = x @ w_in
        return y.reshape(y.shape[:-1] + (heads, y.shape[-1] // heads)).swapaxes(-3, -2)

    def merge(weights, vh):   # the heads' outputs, written straight into (..., N_q, H d_k)
        lead = _broadcast(weights.shape[:-2], vh.shape[:-2])
        per_head = np.empty(lead[:-1] + (weights.shape[-2], heads, vh.shape[-1]))
        np.matmul(weights, vh, out=per_head.swapaxes(-3, -2))
        return per_head.reshape(per_head.shape[:-2] + (-1,))

    qh, kh = project(x_q, wq), project(x_k, wk)
    d_k = qh.shape[-1]
    c = float(1.0 / np.sqrt(d_k))
    scaled = qh @ kh.swapaxes(-1, -2)
    del qh, kh
    scaled *= c
    logits = scaled
    if biased:
        b, d_inter, d_outer = (t.data for t in operands[7:])
        logits = scaled * b
        logits += d_inter
    scaled_shape, logits_shape = scaled.shape, logits.shape
    if not biased or not need[7]:
        scaled = None   # only B's gradient reads the unbiased logits
    # logits is this call's own array, so the softmax turns it into p in place
    p = _softmax(logits, mask=None if mask is None else np.asarray(mask)[..., None, :, :])
    _record_softmax(p)
    weights = p * d_outer if biased else p
    merged = merge(weights, project(x_v, wv))
    merged_shape = merged.shape

    def projected(g_h, x, w_in, i):
        """Gradients of input i and of its projection, from its heads' gradient."""
        g_proj = g_h.swapaxes(-3, -2).reshape(g_h.shape[:-3] + (g_h.shape[-2], -1))
        return (_unbroadcast(g_proj @ w_in.swapaxes(-1, -2), x.shape) if need[i] else None,
                _unbroadcast(x.swapaxes(-1, -2) @ g_proj, w_in.shape, stacked)
                if need[i + 3] else None)

    def backward(g):
        # the projections and the merged heads are recomputed, as the forward formed them
        vh = project(x_v, wv)
        g_wo = (_unbroadcast(merge(weights, vh).swapaxes(-1, -2) @ g, wo.shape, stacked)
                if need[6] else None)
        g_merged = _unbroadcast(g @ wo.swapaxes(-1, -2), merged_shape)
        g_heads = g_merged.reshape(merged_shape[:-1] + (heads, d_k)).swapaxes(-3, -2)
        g_weights = _unbroadcast(g_heads @ vh.swapaxes(-1, -2), weights.shape)
        g_v, g_wv = projected(_unbroadcast(weights.swapaxes(-1, -2) @ g_heads, vh.shape),
                              x_v, wv, 2)
        del vh, g_heads
        # the score-sized gradients are this backward's own: vjp and scale write into them
        if not biased:
            g_scaled, g_biases = _softmax_vjp(p, g_weights), ()
        else:
            g_logits = _softmax_vjp(p, _unbroadcast(g_weights * d_outer, p.shape))
            g_product = _unbroadcast(g_logits, logits_shape)
            g_scaled = _unbroadcast(g_product * b, scaled_shape)
            g_biases = (_unbroadcast(g_product * scaled, b.shape) if need[7] else None,
                        _unbroadcast(g_logits, d_inter.shape) if need[8] else None,
                        _unbroadcast(g_weights * p, d_outer.shape) if need[9] else None)
        g_scaled *= c
        qh, kh = project(x_q, wq), project(x_k, wk)
        g_q, g_wq = projected(_unbroadcast(g_scaled @ kh, qh.shape), x_q, wq, 0)
        g_k, g_wk = projected(_unbroadcast(g_scaled.swapaxes(-1, -2) @ qh, kh.shape), x_k, wk, 1)
        return (g_q, g_k, g_v, g_wq, g_wk, g_wv, g_wo) + g_biases

    return operands, merged @ wo, backward


def attention(q: Tensor, k: Tensor, v: Tensor, w: AttentionWeights, heads: int,
              mask: np.ndarray | None = None, biases: BiasSet | None = None,
              stacked: bool = False) -> Tensor:
    """All heads at once over (..., N, D) inputs; mask is (..., N_q, N_k) keep
    flags, or any shape that broadcasts to it, such as (..., 1, N_k).
    stacked: the inputs' first axis stacks scenes that share the weights
    (see autodiff._unbroadcast); the bias set and mask then stack them too.

    Per head: softmax(QK^T / sqrt(d_k) * B + D_inter) * D_outer, applied to
    V, where the bias set supplies B, D_inter and D_outer; without one the
    logits pass unchanged. d_k is the projected width over the head count.
    One tape node whose parents are q, k, v, the four projections and the
    bias matrices, those that need a gradient; its backward computes theirs.
    """
    operands, out, backward = _attention(q, k, v, w, heads, mask, biases, stacked)
    return _result(out, operands, backward)


def nearest_neighbor_mask(q_pos: np.ndarray, k_pos: np.ndarray, e: int) -> np.ndarray:
    """Keep flags for each query's e nearest keys by Euclidean distance.

    Ties break toward the lower key index. e at or above the key count
    keeps everything.
    """
    if e < 1:
        raise ValueError(f"neighborhood size must be at least 1, got {e}")
    n_k = k_pos.shape[-2]
    if n_k == 0:
        raise ValueError("no keys to attend to")
    shape = q_pos.shape[:-1] + (n_k,)
    if e >= n_k:
        return np.ones(shape, dtype=bool)
    d = np.linalg.norm(q_pos[..., :, None, :] - k_pos[..., None, :, :], axis=-1)
    order = np.argsort(d, axis=-1, kind="stable")
    mask = np.zeros(shape, dtype=bool)
    np.put_along_axis(mask, order[..., :e], True, axis=-1)
    return mask


def _mlp(x, w1, b1, w2, b2, need, stacked=False):
    """mlp on arrays: (output, backward), where backward(g) returns the
    gradients of x, w1, b1, w2 and b2, None for each that need flags False.
    The backward keeps the operands and recomputes the hidden layer from them."""
    def hidden_layer():   # relu(x w1 + b1), and the shape of x w1
        pre = x @ w1
        return np.maximum(pre + b1, 0.0), pre.shape

    hidden, pre_shape = hidden_layer()
    out = hidden @ w2
    del hidden
    out_shape = out.shape

    def backward(g):
        hidden, _ = hidden_layer()
        g_out = _unbroadcast(g, out_shape)
        g_hidden = _unbroadcast(g_out @ w2.swapaxes(-1, -2), hidden.shape)
        g_biased = g_hidden * (hidden > 0.0)   # hidden > 0 exactly where pre + b1 > 0
        g_pre = _unbroadcast(g_biased, pre_shape)
        return (
            _unbroadcast(g_pre @ w1.swapaxes(-1, -2), x.shape) if need[0] else None,
            _unbroadcast(x.swapaxes(-1, -2) @ g_pre, w1.shape, stacked) if need[1] else None,
            _unbroadcast(g_biased, b1.shape, stacked) if need[2] else None,
            _unbroadcast(hidden.swapaxes(-1, -2) @ g_out, w2.shape, stacked) if need[3] else None,
            _unbroadcast(g, b2.shape, stacked) if need[4] else None)

    return out + b2, backward


def mlp(x: Tensor, w: MLPWeights, stacked: bool = False) -> Tensor:
    """relu(x w1 + b1) w2 + b2 as one tape node over x and the four weights;
    stacked as in attention."""
    operands = (x, w.w1, w.b1, w.w2, w.b2)
    out, backward = _mlp(*(t.data for t in operands), [t.requires_grad for t in operands],
                         stacked)
    return _result(out, operands, backward)


def transformer_layer(x_q: Tensor, x_kv: Tensor, w: LayerWeights, heads: int,
                      mask: np.ndarray | None = None,
                      biases: BiasSet | None = None, stacked: bool = False) -> Tensor:
    """Residual attention block with post-norm and a two-layer feed-forward:
    h = LN1(x_q + attention(x_q, x_kv, x_kv)), out = LN2(h + mlp(h));
    stacked as in attention.

    One tape node whose parents are attention's operands (x_kv as both key
    and value), the four feed-forward weights and the two layer norms' gains
    and biases, those that need a gradient. Its backward chains the pieces'
    backwards, so x_q's gradient is its residual path's plus attention's.
    """
    attn_operands, att, att_backward = _attention(x_q, x_kv, x_kv, w.attn, heads, mask, biases,
                                                  stacked)
    if not autodiff._recording:
        att_backward = None   # nothing will read attention's saved arrays: free them now
    own = (w.ffn.w1, w.ffn.b1, w.ffn.w2, w.ffn.b2, w.ln1_gain, w.ln1_bias, w.ln2_gain, w.ln2_bias)
    arrays = [t.data for t in own]
    need = [t.requires_grad for t in own]
    x_shape, att_shape = x_q.shape, att.shape
    # the residual stream's gradient is always computed, a weight's only if it trains
    h1, ln1_backward = _layer_norm(x_q.data + att, *arrays[4:6], (True, *need[4:6]),
                                   stacked=stacked)
    ffn, mlp_backward = _mlp(h1, *arrays[:4], (True, *need[:4]), stacked)
    out, ln2_backward = _layer_norm(h1 + ffn, *arrays[6:], (True, *need[6:]), stacked=stacked)

    def backward(g):
        g_h2, *g_ln2 = ln2_backward(g)
        g_ffn_in, *g_ffn = mlp_backward(g_h2)
        g_h1, *g_ln1 = ln1_backward(g_h2 + g_ffn_in)
        g_q, *g_attn = att_backward(_unbroadcast(g_h1, att_shape))
        g_x = None if g_q is None else _unbroadcast(g_h1, x_shape) + g_q
        return (g_x, *g_attn, *g_ffn, *g_ln1, *g_ln2)

    return _result(out, attn_operands + own, backward)
