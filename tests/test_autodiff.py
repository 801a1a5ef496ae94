"""Unit tests for the reverse-mode engine: primitives, tape, checkpoints."""

import os
import struct
import sys

import numpy as np
import pytest

from laneformer import autodiff
from laneformer.autodiff import (
    GradCheckReport,
    NondeterministicFunctionError,
    ParameterRegistry,
    ShapeError,
    Tensor,
    add,
    backpropagate,
    gather_rows,
    grad_check,
    layer_norm,
    load_checkpoint,
    matmul,
    merge_heads,
    multiply,
    no_grad,
    reduce_sum,
    relu,
    reshape,
    row_softmax,
    save_checkpoint,
    scale,
    smooth_l1,
    split_heads,
    subtract,
    uniform_init,
)


def _scalarize(t, rng):
    # mix all entries so every input element carries gradient
    w = Tensor(rng.normal(size=t.data.shape))
    return reduce_sum(multiply(t, w))


def test_matmul_value_oracle():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
    assert out.data.tolist() == [[17.0], [39.0]]


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 1))))


def test_primitive_gradients_match_finite_differences():
    # every primitive, 100 seeds each, against central differences
    checks = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a34 = rng.normal(size=(3, 4))
        b43 = rng.normal(size=(4, 3))
        b34 = rng.normal(size=(3, 4))
        row = rng.normal(size=(1, 4))
        sm_mask = rng.random((3, 4)) < 0.6
        sm_mask[:, 0] = True   # no empty rows

        specs = [
            ("matmul", lambda a, b: matmul(a, b), [a34, b43]),
            ("matmul_t", lambda a, b: matmul(a, b, transpose_b=True), [a34, b34]),
            ("add", lambda a, b: add(a, b), [a34, b34]),
            ("add_bcast", lambda a, b: add(a, b), [a34, row]),
            ("subtract", lambda a, b: subtract(a, b), [a34, b34]),
            ("multiply", lambda a, b: multiply(a, b), [a34, b34]),
            ("multiply_bcast", lambda a, b: multiply(a, b), [a34, row]),
            ("scale", lambda a: scale(a, -1.7), [a34]),
            # kink inputs nudged away from 0 so finite differences stay valid
            ("relu", lambda a: relu(a), [np.where(np.abs(a34) < 0.05, 0.3, a34)]),
            ("softmax", lambda a: row_softmax(a), [a34]),
            ("softmax_mask", lambda a: row_softmax(a, mask=sm_mask), [a34]),
            ("layer_norm", lambda x, g, b: layer_norm(x, g, b),
             [a34, rng.normal(size=4), rng.normal(size=4)]),
            ("smooth_l1", lambda a: smooth_l1(a, delta=1.0),
             [np.where(np.abs(np.abs(a34) - 1.0) < 0.05, 0.5, a34)]),
            ("reduce_sum", lambda a: reduce_sum(a), [a34]),
            ("reduce_sum_ax", lambda a: reduce_sum(a, axis=1, keepdims=True), [a34]),
            ("gather", lambda a: gather_rows(a, [2, 0, 2]), [a34]),
            ("reshape", lambda a: reshape(a, (4, 3)), [a34]),
        ]
        for name, fn, arrays in specs:
            def f(*ts, fn=fn):
                out = fn(*ts)
                w = np.random.default_rng(1234).normal(size=out.data.shape)
                return reduce_sum(multiply(out, Tensor(w)))

            report = grad_check(f, [Tensor(a.copy()) for a in arrays],
                                h=1e-6, tol=1e-6)
            assert report.passed, (
                f"seed {seed}: {name} max rel error {report.max_error:.2e}")
            checks += 1
    assert checks == 100 * 17


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(scale=5.0, size=(6, 7))
        mask = rng.random((6, 7)) < 0.7
        mask[:, 0] = True
        p = row_softmax(Tensor(x), mask=mask)
        assert np.abs(p.data.sum(axis=1) - 1.0).max() < 1e-12
        assert (p.data[~mask] == 0.0).all()


def test_row_softmax_empty_row_raises():
    mask = np.ones((2, 3), dtype=bool)
    mask[1] = False
    with pytest.raises(ValueError, match="empty attention row"):
        row_softmax(Tensor(np.zeros((2, 3))), mask=mask)


def test_diamond_graph_accumulates_once():
    # y = sum(x*x + x*x) touches x through two paths; gradient is 4x
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    left = multiply(x, x)
    right = multiply(x, x)
    loss = reduce_sum(add(left, right))
    backpropagate(loss)
    assert np.allclose(x.grad, 4.0 * x.data)


def test_constant_subgraphs_are_pruned():
    a = Tensor(np.ones((2, 2)))           # no grad
    const = matmul(a, a)
    assert const._parents == () and const._backward is None
    assert not const.requires_grad

    b = Tensor(np.ones((2, 2)), requires_grad=True)
    out = reduce_sum(add(const, b))
    backpropagate(out)
    assert np.array_equal(b.grad, np.ones((2, 2)))
    assert a.grad is None


def test_backpropagate_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backpropagate(add(x, x))


def test_grad_check_zero_tolerance_fails():
    # finite differences are never exact, even for a correct linear layer
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(4, 3)))

    def f(x):
        return reduce_sum(matmul(x, w))

    report = grad_check(f, [Tensor(rng.normal(size=(2, 4)))], tol=0.0)
    assert isinstance(report, GradCheckReport)
    assert not report.passed
    assert report.max_error > 0.0


def test_grad_check_rejects_nondeterministic_function():
    state = {"calls": 0}

    def f(x):
        state["calls"] += 1
        return reduce_sum(scale(x, float(state["calls"])))

    with pytest.raises(NondeterministicFunctionError):
        grad_check(f, [Tensor(np.ones((2, 2)))])


def test_registry_rejects_duplicates():
    reg = ParameterRegistry()
    reg.add("w", Tensor(np.ones(2)))
    with pytest.raises(ValueError, match="duplicate"):
        reg.add("w", Tensor(np.ones(2)))


def test_uniform_init_bounds():
    rng = np.random.default_rng(0)
    vals = uniform_init(rng, 16, (1000,))
    assert np.abs(vals).max() <= 0.25
    assert np.abs(vals).max() > 0.2   # actually fills the range


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    reg = ParameterRegistry()
    reg.add("layer.w", Tensor(rng.normal(size=(3, 5))))
    reg.add("layer.b", Tensor(rng.normal(size=(1, 5))))
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(path, reg, seed=42)

    reg2 = ParameterRegistry()
    reg2.add("layer.w", Tensor(np.zeros((3, 5))))
    reg2.add("layer.b", Tensor(np.zeros((1, 5))))
    seed = load_checkpoint(path, reg2)
    assert seed == 42
    assert np.array_equal(reg2["layer.w"].data, reg["layer.w"].data)
    assert np.array_equal(reg2["layer.b"].data, reg["layer.b"].data)

    # same values -> byte-identical file
    path2 = os.path.join(tmp_path, "m2.ckpt")
    save_checkpoint(path2, reg2, seed=42)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_checkpoint_shape_mismatch(tmp_path):
    reg = ParameterRegistry()
    reg.add("w", Tensor(np.zeros((2, 2))))
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(path, reg, seed=0)
    other = ParameterRegistry()
    other.add("w", Tensor(np.zeros((3, 2))))
    with pytest.raises(ValueError, match="shape mismatch"):
        load_checkpoint(path, other)


def test_checkpoint_bad_magic(tmp_path):
    path = os.path.join(tmp_path, "junk.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path, ParameterRegistry())


def _weighted_sum_check(fn, arrays):
    def f(*ts):
        out = fn(*ts)
        w = np.random.default_rng(1234).normal(size=out.data.shape)
        return reduce_sum(multiply(out, Tensor(w)))

    return grad_check(f, [Tensor(a.copy()) for a in arrays], h=1e-6, tol=1e-6)


def test_batched_op_gradients_match_finite_differences():
    # the ops the fused attention core uses, on 3-d and 4-d inputs,
    # with broadcast operands and broadcast masks
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a234 = rng.normal(size=(2, 3, 4))
        rng.normal(size=(2, 3, 4))   # unused draw: keeps the inputs drawn after it fixed
        a2234 = rng.normal(size=(2, 2, 3, 4))
        mask34 = rng.random((3, 4)) < 0.6
        mask34[:, 1] = True
        mask2134 = rng.random((2, 1, 3, 4)) < 0.6
        mask2134[..., 2] = True
        specs = [
            ("matmul_3d_2d", lambda a, b: matmul(a, b), [a234, rng.normal(size=(4, 5))]),
            ("matmul_3d_3d", lambda a, b: matmul(a, b), [a234, rng.normal(size=(2, 4, 5))]),
            ("matmul_2d_3d", lambda a, b: matmul(a, b),
             [rng.normal(size=(3, 4)), rng.normal(size=(2, 4, 5))]),
            ("matmul_4d_bcast", lambda a, b: matmul(a, b),
             [a2234, rng.normal(size=(2, 1, 4, 3))]),
            ("matmul_t_3d_2d", lambda a, b: matmul(a, b, transpose_b=True),
             [a234, rng.normal(size=(5, 4))]),
            ("matmul_t_4d", lambda a, b: matmul(a, b, transpose_b=True),
             [a2234, rng.normal(size=(2, 2, 5, 4))]),
            ("matmul_t_4d_bcast", lambda a, b: matmul(a, b, transpose_b=True),
             [a2234, rng.normal(size=(2, 1, 5, 4))]),
            ("split_heads_3d", lambda a: split_heads(a, 2), [a234]),
            ("split_heads_4d", lambda a: split_heads(a, 4), [a2234]),
            ("merge_heads_4d", lambda a: merge_heads(a), [a2234]),
            ("softmax_3d", lambda a: row_softmax(a), [a234]),
            ("softmax_3d_mask_bcast", lambda a: row_softmax(a, mask=mask34), [a234]),
            ("softmax_4d_mask_bcast", lambda a: row_softmax(a, mask=mask2134), [a2234]),
            ("layer_norm_3d", lambda x, g, b: layer_norm(x, g, b),
             [a234, rng.normal(size=4), rng.normal(size=4)]),
            ("layer_norm_4d", lambda x, g, b: layer_norm(x, g, b),
             [a2234, rng.normal(size=(1, 4)), rng.normal(size=(1, 4))]),
            ("subtract_3d_bcast", lambda a, b: subtract(a, b), [a234, rng.normal(size=(1, 4))]),
            ("subtract_bcast_3d", lambda a, b: subtract(a, b), [rng.normal(size=(3, 1)), a234]),
            ("add_4d_bcast", lambda a, b: add(a, b), [a2234, rng.normal(size=(2, 1, 4))]),
            ("multiply_4d_bcast", lambda a, b: multiply(a, b),
             [a2234, rng.normal(size=(2, 1, 3, 4))]),
        ]
        for name, fn, arrays in specs:
            report = _weighted_sum_check(fn, arrays)
            assert report.passed, f"seed {seed}: {name} max rel error {report.max_error:.2e}"


def test_batched_matmul_matches_per_item_products():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 2, 4, 5))
    b = rng.normal(size=(2, 6, 5))
    out = matmul(Tensor(a), Tensor(b), transpose_b=True).data
    assert out.shape == (3, 2, 4, 6)
    for i in range(3):
        for j in range(2):
            assert np.abs(out[i, j] - a[i, j] @ b[j].T).max() < 1e-12
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))


def test_split_and_merge_heads_are_column_blocks():
    x = np.arange(2 * 3 * 6, dtype=np.float64).reshape(2, 3, 6)
    heads = split_heads(Tensor(x), 3).data
    assert heads.shape == (2, 3, 3, 2)
    for h in range(3):
        assert np.array_equal(heads[:, h], x[:, :, 2 * h:2 * h + 2])
    assert np.array_equal(merge_heads(Tensor(heads)).data, x)
    with pytest.raises(ShapeError):
        split_heads(Tensor(x), 4)


def test_row_softmax_batched_empty_row_raises():
    mask = np.ones((2, 3, 4), dtype=bool)
    mask[1, 2] = False
    with pytest.raises(ValueError, match=r"empty attention row \(1, 2\)"):
        row_softmax(Tensor(np.zeros((2, 3, 4))), mask=mask)
    # a broadcast mask row that is empty empties every row it covers
    with pytest.raises(ValueError, match="empty attention row"):
        row_softmax(Tensor(np.zeros((2, 2, 3, 4))), mask=mask[:, None])
    with pytest.raises(ShapeError, match="mask shape"):
        row_softmax(Tensor(np.zeros((2, 3, 4))), mask=np.ones((3, 3), dtype=bool))


def test_row_softmax_batched_rows_sum_to_one():
    rng = np.random.default_rng(4)
    x = rng.normal(scale=5.0, size=(3, 2, 5, 6))
    mask = rng.random((3, 1, 5, 6)) < 0.7
    mask[..., 0] = True
    p = row_softmax(Tensor(x), mask=mask).data
    assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12
    assert (p[~np.broadcast_to(mask, x.shape)] == 0.0).all()
    # each 2-d slice equals the 2-d softmax of that slice
    for i in range(3):
        for h in range(2):
            ref = row_softmax(Tensor(x[i, h]), mask=mask[i, 0]).data
            assert np.array_equal(p[i, h], ref)


def test_subtract_is_one_tape_node():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.full((1, 3), 2.0), requires_grad=True)
    out = subtract(a, b)
    assert out._parents == (a, b)
    backpropagate(reduce_sum(out))
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, np.full((1, 3), -2.0))


def _two_record_checkpoint(tmp_path):
    reg = ParameterRegistry()
    reg.add("layer.w", Tensor(np.arange(6.0).reshape(2, 3)))
    reg.add("layer.b", Tensor(np.ones((1, 3))))
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(path, reg, seed=3)
    fresh = ParameterRegistry()
    fresh.add("layer.w", Tensor(np.zeros((2, 3))))
    fresh.add("layer.b", Tensor(np.zeros((1, 3))))
    with open(path, "rb") as fh:
        return path, fh.read(), fresh


def _rewrite(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)


def test_checkpoint_rejects_version_1(tmp_path):
    path, blob, fresh = _two_record_checkpoint(tmp_path)
    assert struct.unpack("<H", blob[4:6]) == (3,)
    _rewrite(path, blob[:4] + struct.pack("<H", 1) + blob[6:])
    with pytest.raises(ValueError, match=r"m\.ckpt: checkpoint version 1 .*per head"):
        load_checkpoint(path, fresh)


def test_checkpoint_rejects_version_2(tmp_path):
    path, blob, fresh = _two_record_checkpoint(tmp_path)
    _rewrite(path, blob[:4] + struct.pack("<H", 2) + blob[6:])
    with pytest.raises(ValueError, match=r"m\.ckpt: checkpoint version 2 .*per head"
                                         r".*lane_bias\.wp0.*decoder0\.w1"):
        load_checkpoint(path, fresh)


def test_checkpoint_header_only(tmp_path):
    path, blob, fresh = _two_record_checkpoint(tmp_path)
    _rewrite(path, blob[:4])
    with pytest.raises(ValueError, match=r"m\.ckpt: truncated checkpoint: the header"):
        load_checkpoint(path, fresh)
    _rewrite(path, blob[:4 + struct.calcsize("<Hq I")])
    with pytest.raises(ValueError, match=r"m\.ckpt: truncated checkpoint: record 0"):
        load_checkpoint(path, fresh)


def test_checkpoint_truncated_mid_record(tmp_path):
    path, blob, fresh = _two_record_checkpoint(tmp_path)
    _rewrite(path, blob[:-5])
    with pytest.raises(ValueError, match=r"m\.ckpt: truncated checkpoint: "
                                         r"record 1 \('layer\.b'\) values"):
        load_checkpoint(path, fresh)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path, blob, fresh = _two_record_checkpoint(tmp_path)
    _rewrite(path, blob + b"\x00\x01")
    with pytest.raises(ValueError, match=r"m\.ckpt: 2 trailing bytes"):
        load_checkpoint(path, fresh)


# ---------------------------------------------------------------------------
# no_grad

def _op_calls(x, y, w, g):
    """One call of every differentiable op on grad-requiring inputs."""
    return {
        "matmul": lambda: matmul(x, w),
        "reshape": lambda: reshape(x, (4, 3)),
        "split_heads": lambda: split_heads(x, 2),
        "merge_heads": lambda: merge_heads(reshape(x, (1, 3, 4))),
        "gather_rows": lambda: gather_rows(x, [2, 0]),
        "add": lambda: add(x, y),
        "subtract": lambda: subtract(x, y),
        "multiply": lambda: multiply(x, y),
        "scale": lambda: scale(x, 2.0),
        "relu": lambda: relu(x),
        "row_softmax": lambda: row_softmax(x),
        "layer_norm": lambda: layer_norm(x, g, g),
        "smooth_l1": lambda: smooth_l1(x),
        "reduce_sum": lambda: reduce_sum(x),
    }


# names in autodiff.__all__ that are not tensor ops
_NOT_OPS = {"Tensor", "ParameterRegistry", "ShapeError", "NondeterministicFunctionError",
            "as_tensor", "tensor", "no_grad", "backpropagate", "grad_check",
            "GradCheckReport", "uniform_init", "save_checkpoint", "load_checkpoint"}


def test_no_grad_ops_record_no_tape():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    g = Tensor(rng.normal(size=4), requires_grad=True)
    ops = _op_calls(x, y, w, g)
    assert set(ops) == set(autodiff.__all__) - _NOT_OPS
    for name, call in ops.items():
        taped = call()
        assert taped._parents and taped._backward is not None, name
        with no_grad():
            out = call()
        assert out._parents == () and out._backward is None, name
        assert not out.requires_grad, name
        assert np.array_equal(out.data, taped.data), name


def test_no_grad_nests_and_restores_after_exception():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    recorded = lambda: bool(add(x, x)._parents)
    assert recorded()
    with no_grad():
        with no_grad():
            assert not recorded()
        assert not recorded()
    assert recorded()
    with pytest.raises(ShapeError):
        with no_grad():
            with no_grad():
                matmul(x, Tensor(np.ones((3, 3))))
    assert recorded()
    with pytest.raises(KeyError):
        with no_grad():
            raise KeyError("inside")
    assert recorded()


def test_backpropagate_inside_no_grad_raises():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    loss = reduce_sum(multiply(x, x))
    with no_grad():
        with pytest.raises(RuntimeError, match="no_grad"):
            backpropagate(loss)
        with pytest.raises(RuntimeError, match="no_grad"):
            backpropagate(reduce_sum(x))
    assert x.grad is None
    backpropagate(loss)
    assert np.array_equal(x.grad, 2.0 * x.data)


def _taped_grad_check_errors(f, inputs, h, tol, floor=1e-3):
    """grad_check as a plain loop in which every evaluation records a tape."""
    for t in inputs:
        t.requires_grad = True
    first = f(*inputs).data.copy()
    assert np.array_equal(first, f(*inputs).data)
    for t in inputs:
        t.grad = None
    backpropagate(f(*inputs))
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs]
    errors = []
    for t, a in zip(inputs, analytic):
        num = np.zeros_like(t.data)
        flat, nflat = t.data.reshape(-1), num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f(*inputs).data)
            flat[i] = orig - h
            fm = float(f(*inputs).data)
            flat[i] = orig
            nflat[i] = (fp - fm) / (2.0 * h)
        rel = np.abs(a - num) / (np.maximum(np.abs(a), np.abs(num)) + floor)
        errors.append(float(rel.max(initial=0.0)))
    return errors


def test_grad_check_matches_taped_reference_loop(monkeypatch):
    # the two finite-difference tests above, replayed with every grad_check
    # call compared against the taped loop on the same draws
    audited = [0]

    def compared(f, inputs, h=1e-6, tol=1e-6):
        ref_inputs = [Tensor(t.data.copy()) for t in inputs]
        taped = []

        def counted(*ts):
            out = f(*ts)
            taped.append(bool(out._parents))
            return out

        report = autodiff.grad_check(counted, inputs, h=h, tol=tol)
        n = sum(t.data.size for t in inputs)
        assert len(taped) == 2 * n + 3
        assert taped == [False] * (2 * n + 2) + [True], "only the last evaluation records"
        assert report.errors == _taped_grad_check_errors(f, ref_inputs, h, tol)
        audited[0] += 1
        return report

    monkeypatch.setattr(sys.modules[__name__], "grad_check", compared)
    test_primitive_gradients_match_finite_differences()
    test_batched_op_gradients_match_finite_differences()
    assert audited[0] == 100 * 17 + 10 * 19


def test_grad_check_rejects_non_scalar_after_the_determinism_check():
    # a non-scalar f fails as before, after the determinism check
    with pytest.raises(ValueError, match="f must return a scalar tensor"):
        grad_check(lambda x: add(x, x), [Tensor(np.ones((2, 2)))])
    calls = [0]

    def drifting(x):
        calls[0] += 1
        return add(x, Tensor(np.full((2, 2), float(calls[0]))))

    with pytest.raises(NondeterministicFunctionError):
        grad_check(drifting, [Tensor(np.ones((2, 2)))])
    assert calls[0] == 2
