"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

The tape is implicit: every tensor produced by an operation keeps references
to its parents and a closure routing the output gradient back to them.
Inside `no_grad()` nothing is recorded, so inference builds no tape.
Everything runs in float64 so analytic gradients can be compared against
central finite differences at tight tolerances.
"""

from __future__ import annotations

import contextlib
import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "ParameterRegistry",
    "ShapeError",
    "NondeterministicFunctionError",
    "as_tensor",
    "tensor",
    "no_grad",
    "matmul",
    "reshape",
    "split_heads",
    "merge_heads",
    "gather_rows",
    "add",
    "subtract",
    "multiply",
    "scale",
    "relu",
    "row_softmax",
    "layer_norm",
    "smooth_l1",
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
    """Dense n-d float64 array with optional gradient tracking."""

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


def tensor(data, requires_grad=False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


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


def _result(data, parents, backward) -> Tensor:
    # Constant subgraphs are pruned: no parents recorded, no backward closure.
    if _recording:
        for p in parents:
            if p.requires_grad:
                return Tensor(data, requires_grad=True, _parents=tuple(parents),
                              _backward=backward)
    return Tensor(data)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives


def matmul(a, b, transpose_b: bool = False) -> Tensor:
    """a @ b over the last two axes, broadcasting any leading axes.

    transpose_b swaps b's last two axes first. A batch multiplies item by
    item, so each BLAS call stays small enough to run on one thread.
    """
    a, b = as_tensor(a), as_tensor(b)
    ad = a.data
    bd = b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul: need at least 2-d operands, got {ad.shape} x {bd.shape}")
    if transpose_b:
        bd = np.swapaxes(bd, -1, -2)
    try:
        out = ad @ bd
    except ValueError:
        raise ShapeError(f"matmul: incompatible shapes {ad.shape} x {bd.shape}") from None

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape))
        if b.requires_grad:
            gb = (np.swapaxes(g, -1, -2) @ ad) if transpose_b else (np.swapaxes(ad, -1, -2) @ g)
            _accum(b, _unbroadcast(gb, b.data.shape))

    return _result(out, (a, b), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}")
    original = a.data.shape

    def backward(g):
        _accum(a, g.reshape(original))

    return _result(a.data.reshape(shape), (a,), backward)


def split_heads(a, heads: int) -> Tensor:
    """(..., N, H * d) -> (..., H, N, d): head h is the h-th block of d columns."""
    a = as_tensor(a)
    shape = a.data.shape
    if a.data.ndim < 2 or shape[-1] % heads:
        raise ShapeError(f"split_heads: cannot split {shape} into {heads} heads")
    out = np.swapaxes(a.data.reshape(shape[:-1] + (heads, shape[-1] // heads)), -3, -2)

    def backward(g):
        _accum(a, np.swapaxes(g, -3, -2).reshape(shape))

    return _result(out, (a,), backward)


def merge_heads(a) -> Tensor:
    """(..., H, N, d) -> (..., N, H * d), the inverse of split_heads."""
    a = as_tensor(a)
    shape = a.data.shape
    if a.data.ndim < 3:
        raise ShapeError(f"merge_heads: expected at least 3-d tensor, got shape {shape}")
    swapped = np.swapaxes(a.data, -3, -2)
    out = swapped.reshape(swapped.shape[:-2] + (shape[-3] * shape[-1],))

    def backward(g):
        _accum(a, np.swapaxes(g.reshape(swapped.shape), -3, -2))

    return _result(out, (a,), backward)


def gather_rows(a, indices) -> Tensor:
    """Select rows (axis 0) by index; duplicate indices accumulate gradient."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows: indices must be 1-d")
    if a.data.shape[0] == 0 or (idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0])):
        raise ShapeError(f"gather_rows: index out of range for {a.data.shape[0]} rows")

    def backward(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        _accum(a, buf)

    return _result(a.data[idx], (a,), backward)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _result(out, (a, b), backward)


def subtract(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, -_unbroadcast(g, b.data.shape))

    return _result(out, (a, b), backward)


def multiply(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(out, (a, b), backward)


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def backward(g):
        _accum(a, g * c)

    return _result(a.data * c, (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def backward(g):
        _accum(a, g * (a.data > 0.0))

    return _result(out, (a,), backward)


def row_softmax(a, mask=None) -> Tensor:
    """Numerically stable softmax over the last axis; masked entries are exactly 0.

    `mask` is a boolean array broadcastable to the input, True = entry
    participates. A row with no unmasked entry is an error.
    """
    a = as_tensor(a)
    x = a.data
    if x.ndim < 2:
        raise ShapeError(f"row_softmax: expected at least 2-d tensor, got shape {x.shape}")
    if mask is None:
        p = x - x.max(axis=-1, keepdims=True)
    else:
        mask = np.asarray(mask, dtype=bool)
        try:
            fits = np.broadcast_shapes(mask.shape, x.shape) == x.shape
        except ValueError:
            fits = False
        if not fits:
            raise ShapeError(f"row_softmax: mask shape {mask.shape} does not fit input {x.shape}")
        rows_ok = mask.any(axis=-1)
        if not rows_ok.all():
            row = np.argwhere(~rows_ok)[0].tolist()
            raise ValueError(f"empty attention row {row[0] if len(row) == 1 else tuple(row)}")
        p = np.where(mask, x, -np.inf)
        p -= p.max(axis=-1, keepdims=True)   # masked -> exp(-inf) = 0
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def backward(g):
        gp = g * p
        gp -= p * gp.sum(axis=-1, keepdims=True)
        _accum(a, gp)

    return _result(p, (a,), backward)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if x.data.ndim < 2:
        raise ShapeError(f"layer_norm: expected at least 2-d tensor, got shape {x.data.shape}")
    d = x.data.shape[-1]
    if gain.data.size != d or bias.data.size != d:
        raise ShapeError(f"layer_norm: gain/bias must have {d} values")
    gvec, bvec = gain.data.reshape(d), bias.data.reshape(d)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    out = xhat * gvec + bvec

    def backward(g):
        gh = g * gvec
        # d xhat / d x folded into one expression (standard layer-norm backward)
        gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                    - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        _accum(x, gx)
        _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0).reshape(gain.data.shape))
        _accum(bias, g.reshape(-1, d).sum(axis=0).reshape(bias.data.shape))

    return _result(out, (x, gain, bias), backward)


def smooth_l1(a, delta: float = 1.0) -> Tensor:
    """Elementwise Huber penalty: quadratic inside +-delta, linear outside."""
    a = as_tensor(a)
    delta = float(delta)
    if delta <= 0:
        raise ValueError(f"smooth_l1: delta must be positive, got {delta}")
    absx = np.abs(a.data)
    out = np.where(absx <= delta, 0.5 * a.data * a.data, delta * (absx - 0.5 * delta))

    def backward(g):
        _accum(a, g * np.clip(a.data, -delta, delta))

    return _result(out, (a,), backward)


def reduce_sum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _result(out, (a,), backward)


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
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def backpropagate(loss: Tensor) -> None:
    """Accumulate d loss / d t into t.grad for every tensor reachable from loss."""
    if not _recording:
        raise RuntimeError("backpropagate: called inside no_grad(), where no tape is "
                           "recorded; run the forward pass and backpropagate outside it")
    if loss.data.size != 1:
        raise ValueError(f"backpropagate: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    order = _topological_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


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
    once recording the tape that gives the analytic gradients.
    """
    inputs = [as_tensor(t) for t in inputs]
    for t in inputs:
        t.requires_grad = True

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
    """Load values into an already-built registry by name; returns the stored seed."""
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
    seen = set()
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
        target.data = values.reshape(shape).astype(np.float64)
        seen.add(name)
    trailing = len(rd.buf) - rd.pos
    if trailing:
        raise ValueError(f"{path}: {trailing} trailing bytes after the last of {count} records")
    missing = set(registry.names()) - seen
    if missing:
        raise ValueError(f"{path}: missing parameters {sorted(missing)}")
    return seed
