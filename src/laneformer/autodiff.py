"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

The tape is implicit: every op output keeps as parents the operands that
need a gradient, decided when the op runs, and one backward mapping its
gradient to one gradient per parent. Primitives and fused ops (attention,
the MLP, the transformer block and the bias composition in `attention`,
the objective in `training`) share this contract.
`backpropagate` calls each backward once and alone stores and sums what
it returns, out of place, so `.grad` arrays may share memory and are never
written once stored: treat them as read-only. An op may overwrite arrays
it allocated itself, never an operand's data or an incoming gradient.
A weight that a stack of scenes shares gets each scene's gradient reduced
as that scene alone would reduce it, and the scenes added in order. Where
one scene's product in `matmul` is larger than the weight, `matmul` forms
it and adds it to the total scene by scene, so that backward's working
memory does not grow with the number of scenes.
Inside `no_grad()` nothing is recorded, so inference builds no tape.
Everything runs in float64 so analytic gradients can be compared against
central finite differences at tight tolerances.
"""

from __future__ import annotations

import contextlib
import math
import struct
from dataclasses import dataclass
from itertools import compress

import numpy as np

__all__ = [
    "Tensor",
    "ParameterRegistry",
    "ShapeError",
    "NondeterministicFunctionError",
    "as_tensor",
    "no_grad",
    "matmul",
    "reshape",
    "gather_rows",
    "stack",
    "add",
    "multiply",
    "scale",
    "relu",
    "row_softmax",
    "layer_norm",
    "reduce_sum",
    "backpropagate",
    "grad_check",
    "GradCheckReport",
    "uniform_init",
    "save_checkpoint",
    "load_checkpoint",
]


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class NondeterministicFunctionError(RuntimeError):
    """Repeated evaluation of a supposedly pure function changed its output."""


class Tensor:
    """Dense n-d float64 array with optional gradient tracking.

    A taped op output holds its differentiable operands in `_parents` and a
    `_backward` mapping its gradient to one gradient per parent, in order;
    a constant has `_parents == ()` and `_backward is None`. After
    `backpropagate`, `grad` holds the summed gradient on leaves and on the
    loss only. A gradient may be a view of, or the same array as, another
    tensor's gradient, so read it and never write it in place.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_recording = True


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: every op returns a plain constant tensor.

    Nests, and restores the previous state on exit, also after an exception.
    """
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _result(data, operands: tuple, backward) -> Tensor:
    """The op's output tensor, taped with the operands that need a gradient.

    backward(g) returns one gradient per operand, None where none is
    needed; with a constant operand it is narrowed to the parents. Inside
    no_grad() nothing is recorded at all.
    """
    if _recording:
        need = [t.requires_grad for t in operands]
        if all(need):
            return Tensor(data, requires_grad=True, _parents=operands, _backward=backward)
        if any(need):
            return Tensor(data, requires_grad=True, _parents=tuple(compress(operands, need)),
                          _backward=lambda g: tuple(compress(backward(g), need)))
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple, stacked: bool = False) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`; g itself when it already fits.

    stacked: g's first axis stacks scenes and `shape` is one scene's operand
    (a weight every scene shares). Each scene's slice is reduced as it would
    be alone, then the scenes are added in order, so the result equals the
    one-scene gradients summed one after another.
    """
    if g.shape == shape:
        return g
    lead = int(stacked)
    extra = g.ndim - lead - len(shape)
    if extra > 0:
        summed = tuple(range(lead, lead + extra))
        # a size-1 axis sums to its own values: drop it without a copy
        g = (g.reshape(g.shape[:lead] + g.shape[lead + extra:])
             if all(g.shape[i] == 1 for i in summed) else g.sum(axis=summed))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape[lead:], shape), lead)
                 if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    if stacked:
        g = _sum_scenes(g)
    return g.reshape(shape)


def _sum_scenes(g: np.ndarray) -> np.ndarray:
    """g[0] + g[1] + ... in that order.

    An axis-0 sum of a stack adds slice by slice, except where each slice
    holds one value: numpy then sums the axis pairwise.
    """
    return g.sum(axis=0) if g[0].size > 1 else np.add.accumulate(g, axis=0)[-1]


# ---------------------------------------------------------------------------
# primitives
#
# A backward returns new arrays or views of the output gradient and never
# writes them: backpropagate stores what it returns as is. An op whose
# operand is often a constant computes only the gradients needed at its run.


def matmul(a, b, stacked: bool = False) -> Tensor:
    """a @ b over the last two axes, broadcasting any leading axes.

    A batch multiplies item by item, so each BLAS call stays small enough
    to run on one thread. stacked: one operand stacks scenes on its first
    axis and the other is shared by every scene (see _unbroadcast).
    """
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul: need at least 2-d operands, got {ad.shape} x {bd.shape}")
    try:
        out = ad @ bd
    except ValueError:
        raise ShapeError(f"matmul: incompatible shapes {ad.shape} x {bd.shape}") from None
    return _result(out, (a, b), lambda g: (
        _product_grad(g, bd.swapaxes(-1, -2), ad.shape, stacked) if need_a else None,
        _product_grad(ad.swapaxes(-1, -2), g, bd.shape, stacked) if need_b else None))


def _product_grad(x: np.ndarray, y: np.ndarray, shape: tuple, stacked: bool) -> np.ndarray:
    """_unbroadcast(x @ y, shape, stacked): a matmul operand's gradient.

    Where one scene's product x[s] @ y[s] of a stack has more axes than the
    operand (a shared weight, so x and y both stack scenes), each scene's
    product is formed and reduced alone and added to a running total in
    scene order: the same numbers, but the backward holds one scene's
    product, never the stack's.
    """
    if not stacked or max(x.ndim, y.ndim) - 1 <= len(shape):
        return _unbroadcast(x @ y, shape, stacked)
    total = _unbroadcast(x[0] @ y[0], shape)   # a new array: this op owns it
    for s in range(1, len(x)):
        total += _unbroadcast(x[s] @ y[s], shape)
    return total


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}")
    original = a.data.shape
    return _result(a.data.reshape(shape), (a,), lambda g: (g.reshape(original),))


def gather_rows(a, indices) -> Tensor:
    """Select rows (axis 0) by index; duplicate indices accumulate gradient.

    (B, n) indices into a (B, N, ...) stack of scenes select, for each
    scene b, rows indices[b] of a[b].
    """
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    stacked = idx.ndim == 2 and a.data.ndim >= 2 and len(idx) == len(a.data)
    if idx.ndim != 1 and not stacked:
        raise ShapeError("gather_rows: indices must be 1-d, or (B, n) for a stack of B scenes")
    rows = a.data.shape[int(stacked)]
    if rows == 0 or (idx.size and (idx.min() < 0 or idx.max() >= rows)):
        raise ShapeError(f"gather_rows: index out of range for {rows} rows")
    if stacked:
        idx = (np.arange(len(idx))[:, None], idx)

    def backward(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return (buf,)

    return _result(a.data[idx], (a,), backward)


def stack(tensors) -> Tensor:
    """Join same-shaped tensors along a new first axis, in the given order."""
    tensors = [as_tensor(t) for t in tensors]
    try:
        out = np.stack([t.data for t in tensors])
    except ValueError:
        raise ShapeError(f"stack: shapes differ: {[t.data.shape for t in tensors]}") from None
    return _result(out, tuple(tensors), lambda g: list(g))


def add(a, b, stacked: bool = False) -> Tensor:
    """a + b, broadcasting; stacked as in matmul."""
    a, b = as_tensor(a), as_tensor(b)
    need_a, need_b = a.requires_grad, b.requires_grad
    return _result(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape, stacked) if need_a else None,
        _unbroadcast(g, b.data.shape, stacked) if need_b else None))


def multiply(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    need_a, need_b = a.requires_grad, b.requires_grad
    return _result(a.data * b.data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape) if need_a else None,
        _unbroadcast(g * a.data, b.data.shape) if need_b else None))


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    return _result(a.data * c, (a,), lambda g: (g * c,))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _result(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0.0),))


def _softmax(x: np.ndarray, mask=None) -> np.ndarray:
    """row_softmax's forward, computed in x itself and returned: the caller
    owns x, a fresh array that nothing else reads, and gets it back as the
    probabilities."""
    if x.ndim < 2:
        raise ShapeError(f"row_softmax: expected at least 2-d tensor, got shape {x.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not _fits(mask.shape, x.shape):
            raise ShapeError(f"row_softmax: mask shape {mask.shape} does not fit input {x.shape}")
        rows_ok = mask.any(axis=-1)
        if not rows_ok.all():
            row = np.argwhere(~rows_ok)[0].tolist()
            raise ValueError(f"empty attention row {row[0] if len(row) == 1 else tuple(row)}")
        np.copyto(x, -np.inf, where=~mask)
    x -= x.max(axis=-1, keepdims=True)   # masked -> exp(-inf) = 0
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _fits(shape: tuple, target: tuple) -> bool:
    """Whether an array of `shape` broadcasts to `target` unchanged."""
    return len(shape) <= len(target) and all(
        s == 1 or s == t for s, t in zip(reversed(shape), reversed(target)))


def _broadcast(a: tuple, b: tuple) -> tuple:
    """The shape two shapes broadcast to, as np.broadcast_shapes gives it."""
    if a == b:
        return a
    n = max(len(a), len(b))
    a, b = (1,) * (n - len(a)) + a, (1,) * (n - len(b)) + b
    if not all(x == y or 1 in (x, y) for x, y in zip(a, b)):
        raise ValueError(f"shapes {a} and {b} do not broadcast")
    # from a list: tuple() of a generator leaves the cyclic collector's
    # generation-0 count one higher after every call
    return tuple([y if x == 1 else x for x, y in zip(a, b)])


def _softmax_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The input's gradient for softmax output p and output gradient g,
    computed in g itself and returned: the caller owns g and reads it no more."""
    g *= p
    g -= p * g.sum(axis=-1, keepdims=True)
    return g


def row_softmax(a, mask=None) -> Tensor:
    """Numerically stable softmax over the last axis; masked entries are exactly 0.

    `mask` is a boolean array broadcastable to the input, True = entry
    participates. A row with no unmasked entry is an error.
    """
    a = as_tensor(a)
    p = _softmax(a.data.copy(), mask)
    return _result(p, (a,), lambda g: (_softmax_vjp(p, g.copy()),))


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, need,
                eps: float = 1e-5, stacked: bool = False):
    """layer_norm on arrays: (output, backward), where backward(g) returns the
    gradients of x, gain and bias, None for each that need flags False.
    stacked: x's first axis stacks scenes that share gain and bias."""
    if x.ndim < 2:
        raise ShapeError(f"layer_norm: expected at least 2-d tensor, got shape {x.shape}")
    d = x.shape[-1]
    if gain.size != d or bias.size != d:
        raise ShapeError(f"layer_norm: gain/bias must have {d} values")
    gvec, bvec = gain.reshape(d), bias.reshape(d)
    need_x, need_gain, need_bias = need
    # sum / d is what ndarray.mean computes, without its Python wrapper
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / d + eps)
    xhat = xc * inv

    def rows_sum(a):   # over each scene's rows, then over the scenes in order
        if stacked:
            return _sum_scenes(a.reshape(a.shape[0], -1, d).sum(axis=1))
        return a.reshape(-1, d).sum(axis=0)

    def backward(g):
        gx = None
        if need_x:
            gh = g * gvec
            # d xhat / d x folded into one expression (standard layer-norm backward)
            gx = inv * (gh - gh.sum(axis=-1, keepdims=True) / d
                        - xhat * (gh * xhat).sum(axis=-1, keepdims=True) / d)
        return (gx,
                rows_sum(g * xhat).reshape(gain.shape) if need_gain else None,
                rows_sum(g).reshape(bias.shape) if need_bias else None)

    return xhat * gvec + bvec, backward


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    operands = (as_tensor(x), as_tensor(gain), as_tensor(bias))
    out, backward = _layer_norm(*(t.data for t in operands),
                                [t.requires_grad for t in operands], eps)
    return _result(out, operands, backward)


def reduce_sum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return _result(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


# ---------------------------------------------------------------------------
# backward pass


def _topological_order(root: Tensor) -> list:
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p not in visited:
                stack.append((p, False))
    return order


def backpropagate(loss: Tensor) -> None:
    """Accumulate d loss / d t into t.grad for every leaf reachable from loss.

    Each node's backward runs once, on the node's summed gradient. A
    tensor's first gradient is stored as returned and later ones are added
    out of place, so no stored array is ever written. An op output drops
    its gradient once its backward has run, so only the leaves and the loss
    keep `.grad`; to read an intermediate gradient, make that value a leaf.
    Leaves accumulate across calls; every op output starts from no
    gradient, also after a pass that raised partway, so a second call on
    one graph adds the same leaf gradients again.
    """
    if not _recording:
        raise RuntimeError("backpropagate: called inside no_grad(), where no tape is "
                           "recorded; run the forward pass and backpropagate outside it")
    if loss.data.size != 1:
        raise ValueError(f"backpropagate: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    order = _topological_order(loss)
    for node in order:
        if node._backward is not None:
            node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            parent.grad = g if parent.grad is None else parent.grad + g
        if node is not loss:
            node.grad = None


# ---------------------------------------------------------------------------
# parameters


class ParameterRegistry:
    """Ordered name -> tensor store for everything the optimizer touches."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, t: Tensor) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t.requires_grad = True
        self._tensors[name] = t
        return t

    def __len__(self):
        return len(self._tensors)

    def __contains__(self, name):
        return name in self._tensors

    def __getitem__(self, name) -> Tensor:
        return self._tensors[name]

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def zero_grad(self):
        for t in self._tensors.values():
            t.grad = None

    def num_values(self) -> int:
        return sum(t.data.size for t in self._tensors.values())

    def norms(self) -> dict:
        return {n: float(np.linalg.norm(t.data)) for n, t in self._tensors.items()}


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Per-input max relative error between analytic and numeric gradients."""

    errors: list
    tol: float

    @property
    def passed(self) -> bool:
        return all(e <= self.tol for e in self.errors)

    @property
    def max_error(self) -> float:
        return max(self.errors) if self.errors else 0.0


def grad_check(f, inputs, h: float = 1e-6, tol: float = 1e-6,
               floor: float = 1e-3) -> GradCheckReport:
    """Compare analytic gradients of scalar f(*inputs) against central differences.

    Each element's error is |a - n| / (max(|a|, |n|) + floor); the report keeps
    the max per input. The floor keeps near-zero gradient entries, where the
    finite difference is pure roundoff noise, from dominating the ratio while
    still flagging disagreements large enough to matter.

    f runs 2 N + 3 times for N input scalars: twice to confirm it is
    deterministic, 2 N times for the differences, all under no_grad(), then
    once recording the tape that gives the analytic gradients. Every input
    requires a gradient during the check, and gets its own flag back after
    it, also when the check raises.
    """
    inputs = [as_tensor(t) for t in inputs]
    flags = [t.requires_grad for t in inputs]
    for t in inputs:
        t.requires_grad = True
    try:
        with no_grad():
            first = f(*inputs).data.copy()
            if not np.array_equal(first, f(*inputs).data):
                raise NondeterministicFunctionError("function output changed between evaluations")
            if first.size != 1:
                raise ValueError("grad_check: f must return a scalar tensor")
            numeric = []
            for t in inputs:
                num = np.zeros_like(t.data)
                flat = t.data.reshape(-1)
                nflat = num.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    fp = float(f(*inputs).data)
                    flat[i] = orig - h
                    fm = float(f(*inputs).data)
                    flat[i] = orig
                    nflat[i] = (fp - fm) / (2.0 * h)
                numeric.append(num)

        for t in inputs:
            t.grad = None
        backpropagate(f(*inputs))
    finally:
        for t, flag in zip(inputs, flags):
            t.requires_grad = flag

    errors = []
    for t, num in zip(inputs, numeric):
        a = t.grad if t.grad is not None else np.zeros_like(t.data)
        denom = np.maximum(np.abs(a), np.abs(num)) + floor
        rel = np.abs(a - num) / denom
        errors.append(float(rel.max(initial=0.0)))
    return GradCheckReport(errors=errors, tol=tol)


# ---------------------------------------------------------------------------
# checkpoints
#
# Layout (all little-endian):
#   magic "LFCK" | u16 version | i64 seed | u32 record count
#   per record: u16 name length | name utf-8 | u8 ndim | u32 dims... | f64 values
# and nothing after the last record. Version 3 stores each parameter group
# as one tensor with a leading head or mode axis where it has one: an
# attention projection as one (d, d) matrix ("...attn.wq"), a bias
# coefficient group as (H, 1, 1) or (H, C, 1) ("lane_bias.wp"), a decoder
# weight as (d, K h) or (K, ., .) ("decoder.w_offsets"). Versions 1 and 2
# stored per-head or per-mode tensors ("...attn.wq0", "lane_bias.wp0",
# "decoder0.w1").

_CKPT_MAGIC = b"LFCK"
_CKPT_VERSION = 3
_CKPT_HEADER = "<Hq I"


def save_checkpoint(path, registry: ParameterRegistry, seed: int) -> None:
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack(_CKPT_HEADER, _CKPT_VERSION, int(seed), len(registry)))
        for name, t in registry.items():
            blob = name.encode("utf-8")
            fh.write(struct.pack("<H", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<B", t.data.ndim))
            fh.write(struct.pack(f"<{t.data.ndim}I", *t.data.shape))
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


class _CheckpointReader:
    """Length-checked reads from a checkpoint file held in memory."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self.buf = memoryview(fh.read())
        self.pos = 0

    def take(self, n: int, what: str) -> memoryview:
        left = len(self.buf) - self.pos
        if n > left:
            raise ValueError(f"{self.path}: truncated checkpoint: {what} needs {n} bytes, "
                             f"{left} left")
        self.pos += n
        return self.buf[self.pos - n:self.pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_checkpoint(path, registry: ParameterRegistry) -> int:
    """Load values into an already-built registry by name; returns the stored seed.

    Nothing is assigned before every record has passed, so a rejected file
    leaves the registry as it was."""
    rd = _CheckpointReader(path)
    if rd.buf[:4] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    rd.take(4, "the magic")
    version, seed, count = rd.unpack(_CKPT_HEADER, "the header")
    if 0 < version < _CKPT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {version} stores parameters per head or per "
            f"mode (attn.wq0, lane_bias.wp0, decoder0.w1, ...); this version reads only "
            f"version {_CKPT_VERSION}, with one tensor per parameter group")
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    loaded = {}
    for index in range(count):
        record = f"record {index}"
        (nlen,) = rd.unpack("<H", f"{record} name length")
        try:
            name = str(rd.take(nlen, f"{record} name"), "utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: {record} name is not utf-8") from None
        record = f"record {index} ({name!r})"
        (ndim,) = rd.unpack("<B", f"{record} rank")
        shape = rd.unpack(f"<{ndim}I", f"{record} shape")
        values = np.frombuffer(rd.take(8 * math.prod(shape), f"{record} values"), dtype="<f8")
        if name not in registry:
            raise ValueError(f"{path}: unknown parameter {name!r}")
        target = registry[name]
        if tuple(shape) != target.data.shape:
            raise ValueError(
                f"{path}: shape mismatch for {name!r}: {tuple(shape)} vs {target.data.shape}")
        loaded[name] = values.reshape(shape)
    trailing = len(rd.buf) - rd.pos
    if trailing:
        raise ValueError(f"{path}: {trailing} trailing bytes after the last of {count} records")
    missing = set(registry.names()) - loaded.keys()
    if missing:
        raise ValueError(f"{path}: missing parameters {sorted(missing)}")
    for name, values in loaded.items():
        registry[name].data = values.astype(np.float64)
    return seed
