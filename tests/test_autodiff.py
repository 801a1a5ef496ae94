"""Unit tests for the reverse-mode engine: primitives, tape, checkpoints."""

import os
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    multiply,
    no_grad,
    reduce_sum,
    relu,
    reshape,
    row_softmax,
    save_checkpoint,
    scale,
    stack,
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
            ("add", lambda a, b: add(a, b), [a34, b34]),
            ("add_bcast", lambda a, b: add(a, b), [a34, row]),
            ("multiply", lambda a, b: multiply(a, b), [a34, b34]),
            ("multiply_bcast", lambda a, b: multiply(a, b), [a34, row]),
            ("scale", lambda a: scale(a, -1.7), [a34]),
            # kink inputs nudged away from 0 so finite differences stay valid
            ("relu", lambda a: relu(a), [np.where(np.abs(a34) < 0.05, 0.3, a34)]),
            ("softmax", lambda a: row_softmax(a), [a34]),
            ("softmax_mask", lambda a: row_softmax(a, mask=sm_mask), [a34]),
            ("layer_norm", lambda x, g, b: layer_norm(x, g, b),
             [a34, rng.normal(size=4), rng.normal(size=4)]),
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
    assert checks == 100 * 14


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(scale=5.0, size=(6, 7))
        mask = rng.random((6, 7)) < 0.7
        mask[:, 0] = True
        p = row_softmax(Tensor(x), mask=mask)
        assert np.abs(p.data.sum(axis=1) - 1.0).max() < 1e-12
        assert (p.data[~mask] == 0.0).all()


def test_row_softmax_leaves_operand_and_incoming_gradient_unchanged():
    # the softmax and its vjp compute in the arrays they are handed, so
    # row_softmax must hand them copies of its operand and of its gradient
    rng = np.random.default_rng(1)
    mask = rng.random((4, 5)) < 0.6
    mask[:, 0] = True
    for m in (None, mask):
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        x_before = x.data.copy()
        p = row_softmax(x, mask=m)
        g = rng.normal(size=p.shape)
        g_before, p_before = g.copy(), p.data.copy()
        (gx,) = p._backward(g)
        assert np.array_equal(x.data, x_before)
        assert np.array_equal(g, g_before)
        assert np.array_equal(p.data, p_before)
        assert not np.shares_memory(gx, g)


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


def test_second_backpropagate_starts_intermediates_afresh():
    # w feeds two matmuls, so intermediates carry gradient from two paths; a
    # second pass must not add to what the first left on them
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(3, 4)))
    loss = reduce_sum(multiply(relu(matmul(relu(matmul(x, w)), w)), c))
    backpropagate(loss)
    first_x, first_w = x.grad, w.grad
    x.grad = w.grad = None
    backpropagate(loss)
    assert np.array_equal(x.grad, first_x) and np.array_equal(w.grad, first_w)
    # leaves keep accumulating: x gets one gradient per pass, w two
    backpropagate(loss)
    assert np.array_equal(x.grad, 2.0 * first_x)
    np.testing.assert_allclose(w.grad, 2.0 * first_w, rtol=1e-15, atol=0.0)


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


def test_grad_check_gives_each_input_its_flag_back():
    # a constant input is taped only for the check, also when it fails or raises
    rng = np.random.default_rng(4)
    w = Tensor(rng.normal(size=(4, 3)))

    def f(x, w):
        return reduce_sum(matmul(x, w))

    x, leaf = Tensor(rng.normal(size=(2, 4))), Tensor(w.data.copy(), requires_grad=True)
    assert grad_check(f, [x, leaf]).passed
    assert not grad_check(f, [x, leaf], tol=0.0).passed
    assert (x.requires_grad, leaf.requires_grad) == (False, True)
    assert x.grad is not None
    assert not matmul(x, w).requires_grad
    calls = [0]

    def drifting(x):
        calls[0] += 1
        return reduce_sum(scale(x, float(calls[0])))

    with pytest.raises(NondeterministicFunctionError):
        grad_check(drifting, [x])
    assert not x.requires_grad


@pytest.mark.parametrize("shapes", [
    ((5, 2, 1, 4), (2, 4, 3)),   # a scene's product (5, 2, 4, 3) is larger than the weight
    ((1, 2, 1, 4), (2, 4, 3)),   # ... with an extra axis of one value, dropped without a copy
    ((5, 2, 1, 4), (1, 4, 3)),   # ... and summed over the weight's size-1 axis too
    ((5, 4), (4, 3)),            # a weight-sized product
])
def test_stacked_matmul_sums_scene_gradients_in_order(shapes):
    # a weight shared by a stack gets the per-scene graphs' gradients, added
    # one scene after another, whether or not the product is formed per scene
    x_shape, w_shape = shapes
    rng = np.random.default_rng(7)
    for scenes in (1, 2, 3, 8):
        xs = rng.normal(size=(scenes, *x_shape))
        gs = rng.normal(size=(scenes, *x_shape[:-1], w_shape[-1]))
        w = Tensor(rng.normal(size=w_shape), requires_grad=True)
        x = Tensor(xs, requires_grad=True)
        backpropagate(reduce_sum(multiply(matmul(x, w, stacked=True), gs)))
        want, want_x = None, []
        for s in range(scenes):
            w_s = Tensor(w.data, requires_grad=True)
            x_s = Tensor(xs[s], requires_grad=True)
            backpropagate(reduce_sum(multiply(matmul(x_s, w_s), gs[s])))
            want = w_s.grad if want is None else want + w_s.grad
            want_x.append(x_s.grad)
        assert w.grad.shape == w_shape
        assert np.array_equal(w.grad, want)
        assert np.array_equal(x.grad, np.stack(want_x))


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


def _batched_op_specs(seed):
    """Batched ops on 3-d and 4-d inputs, with broadcast operands and
    broadcast masks: (name, op, input arrays)."""
    rng = np.random.default_rng(seed)
    a234 = rng.normal(size=(2, 3, 4))
    rng.normal(size=(2, 3, 4))   # unused draw: keeps the inputs drawn after it fixed
    a2234 = rng.normal(size=(2, 2, 3, 4))
    mask34 = rng.random((3, 4)) < 0.6
    mask34[:, 1] = True
    mask2134 = rng.random((2, 1, 3, 4)) < 0.6
    mask2134[..., 2] = True
    return [
        ("matmul_3d_2d", lambda a, b: matmul(a, b), [a234, rng.normal(size=(4, 5))]),
        ("matmul_3d_3d", lambda a, b: matmul(a, b), [a234, rng.normal(size=(2, 4, 5))]),
        ("matmul_2d_3d", lambda a, b: matmul(a, b),
         [rng.normal(size=(3, 4)), rng.normal(size=(2, 4, 5))]),
        ("matmul_4d_bcast", lambda a, b: matmul(a, b),
         [a2234, rng.normal(size=(2, 1, 4, 3))]),
        ("softmax_3d", lambda a: row_softmax(a), [a234]),
        ("softmax_3d_mask_bcast", lambda a: row_softmax(a, mask=mask34), [a234]),
        ("softmax_4d_mask_bcast", lambda a: row_softmax(a, mask=mask2134), [a2234]),
        ("layer_norm_3d", lambda x, g, b: layer_norm(x, g, b),
         [a234, rng.normal(size=4), rng.normal(size=4)]),
        ("layer_norm_4d", lambda x, g, b: layer_norm(x, g, b),
         [a2234, rng.normal(size=(1, 4)), rng.normal(size=(1, 4))]),
        ("add_4d_bcast", lambda a, b: add(a, b), [a2234, rng.normal(size=(2, 1, 4))]),
        ("multiply_4d_bcast", lambda a, b: multiply(a, b),
         [a2234, rng.normal(size=(2, 1, 3, 4))]),
    ]


def _central_differences(f, t, step):
    flat = t.data.reshape(-1)
    diffs = np.empty(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f().item()
        flat[i] = orig - step
        fm = f().item()
        flat[i] = orig
        diffs[i] = (fp - fm) / (2.0 * step)
    return diffs.reshape(t.data.shape)


def _richardson_errors(fn, arrays, h=1e-3, floor=1e-3):
    """grad_check's per-input max relative error for a weighted sum of fn's
    output, against Richardson-extrapolated central differences.

    (4 D(h/2) - D(h)) / 3 cancels the h^2 term of the central difference D,
    so its truncation error is O(h^4) even at a step whose roundoff,
    about 1e-16 |f| / h, stays far below the tolerance.
    """
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]

    def f():
        out = fn(*inputs)
        w = np.random.default_rng(1234).normal(size=out.data.shape)
        return reduce_sum(multiply(out, Tensor(w)))

    backpropagate(f())
    errors = []
    with no_grad():
        for t in inputs:
            num = (4.0 * _central_differences(f, t, h / 2) - _central_differences(f, t, h)) / 3.0
            rel = np.abs(t.grad - num) / (np.maximum(np.abs(t.grad), np.abs(num)) + floor)
            errors.append(float(rel.max()))
    return errors


def test_batched_op_gradients_match_finite_differences():
    for seed in range(10):
        for name, fn, arrays in _batched_op_specs(seed):
            worst = max(_richardson_errors(fn, arrays))
            assert worst <= 1e-6, f"seed {seed}: {name} max rel error {worst:.2e}"


def test_batched_matmul_matches_per_item_products():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 2, 4, 5))
    b = rng.normal(size=(2, 6, 5)).swapaxes(-1, -2)
    out = matmul(Tensor(a), Tensor(b)).data
    assert out.shape == (3, 2, 4, 6)
    for i in range(3):
        for j in range(2):
            assert np.abs(out[i, j] - a[i, j] @ b[j]).max() < 1e-12
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))


def test_gather_rows_from_a_stack_gathers_each_scene_alone():
    # (B, n) indices pick rows of each scene; repeated rows add their gradients
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    idx = [[1, 1, 3], [0, 2, 0], [3, 3, 3]]
    w = rng.normal(size=(3, 3, 2))
    backpropagate(reduce_sum(multiply(gather_rows(x, idx), Tensor(w))))
    for b in range(3):
        one = Tensor(x.data[b], requires_grad=True)
        backpropagate(reduce_sum(multiply(gather_rows(one, idx[b]), Tensor(w[b]))))
        assert np.array_equal(x.grad[b], one.grad)
    with pytest.raises(ShapeError, match="out of range for 4 rows"):
        gather_rows(x, [[0], [4], [1]])
    with pytest.raises(ShapeError, match="1-d, or"):
        gather_rows(x, [[0], [1]])


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


_shape = st.lists(st.integers(0, 3), max_size=4).map(tuple)


@settings(max_examples=300, deadline=None)
@given(_shape, _shape)
def test_shape_rules_agree_with_numpy_broadcasting(a, b):
    # the softmax's mask check and attention's head-output shape, without np.broadcast_shapes
    try:
        want = np.broadcast_shapes(a, b)
    except ValueError:
        want = None
    assert autodiff._fits(a, b) == (want == b)
    if want is None:
        with pytest.raises(ValueError):
            autodiff._broadcast(a, b)
    else:
        assert autodiff._broadcast(a, b) == want
    if len(b) >= 2 and not autodiff._fits(a, b):
        with pytest.raises(ShapeError, match=r"mask shape .* does not fit"):
            row_softmax(Tensor(np.zeros(b)), mask=np.ones(a, dtype=bool))


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


@st.composite
def _broadcast_pair(draw):
    """(shape, broadcast shape, leading axes): extra leading axes, size-1 axes widened."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=4)))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    wide = tuple(draw(st.integers(1, 3)) if s == 1 else s for s in shape)
    return shape, lead + wide, len(lead)


@settings(max_examples=200, deadline=None)
@given(pair=_broadcast_pair(), seed=st.integers(0, 2**32 - 1))
def test_unbroadcast_sums_over_broadcast_axes(pair, seed):
    shape, g_shape, n_lead = pair
    # integer values make every summation order exact
    g = np.random.default_rng(seed).integers(-9, 10, size=g_shape).astype(np.float64)
    axes = tuple(range(n_lead)) + tuple(n_lead + i for i, s in enumerate(shape) if s == 1)
    got = autodiff._unbroadcast(g, shape)
    assert got.shape == shape
    assert np.array_equal(got, np.sum(g, axis=axes, keepdims=True).reshape(shape))
    if g_shape == shape:
        assert got is g


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


def test_rejected_checkpoint_leaves_registry_unchanged(tmp_path):
    # both checks come after every record has been read
    path, blob, fresh = _two_record_checkpoint(tmp_path)
    fresh.add("layer.c", Tensor(np.zeros(2)))
    before = {name: t.data for name, t in fresh.items()}
    with pytest.raises(ValueError, match=r"missing parameters \['layer\.c'\]"):
        load_checkpoint(path, fresh)
    assert all(t.data is before[name] for name, t in fresh.items())
    path, blob, fresh = _two_record_checkpoint(tmp_path)
    before = {name: t.data for name, t in fresh.items()}
    _rewrite(path, blob + b"\x00")
    with pytest.raises(ValueError, match=r"m\.ckpt: 1 trailing bytes"):
        load_checkpoint(path, fresh)
    assert all(t.data is before[name] for name, t in fresh.items())


# ---------------------------------------------------------------------------
# the tape's edges and no_grad

def _op_inputs():
    rng = np.random.default_rng(0)
    return [Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in ((3, 4), (3, 4), (4, 2), 4, 4)]


def _op_calls(x, y, w, g, b):
    """One call of every differentiable op: name -> (op, arguments)."""
    return {
        "matmul": (matmul, (x, w)),
        "reshape": (reshape, (x, (4, 3))),
        "gather_rows": (gather_rows, (x, [2, 0])),
        "stack": (lambda *ts: stack(ts), (x, y)),
        "add": (add, (x, y)),
        "multiply": (multiply, (x, y)),
        "scale": (scale, (x, 2.0)),
        "relu": (relu, (x,)),
        "row_softmax": (row_softmax, (x,)),
        "layer_norm": (layer_norm, (x, g, b)),
        "reduce_sum": (reduce_sum, (x,)),
    }


# names in autodiff.__all__ that are not tensor ops
_NOT_OPS = {"Tensor", "ParameterRegistry", "ShapeError", "NondeterministicFunctionError",
            "as_tensor", "no_grad", "backpropagate", "grad_check",
            "GradCheckReport", "uniform_init", "save_checkpoint", "load_checkpoint"}


def test_no_grad_ops_record_no_tape():
    ops = _op_calls(*_op_inputs())
    assert set(ops) == set(autodiff.__all__) - _NOT_OPS
    for name, (op, args) in ops.items():
        taped = op(*args)
        assert taped._parents and taped._backward is not None, name
        with no_grad():
            out = op(*args)
        assert out._parents == () and out._backward is None, name
        assert not out.requires_grad, name
        assert np.array_equal(out.data, taped.data), name


def _taped_grads(op, args):
    """op(*args) and the gradient of a fixed weighted sum of it per tensor argument."""
    for a in args:
        if isinstance(a, Tensor):
            a.grad = None
    out = op(*args)
    if out.requires_grad:
        w = np.random.default_rng(1234).normal(size=out.shape)
        backpropagate(reduce_sum(multiply(out, Tensor(w))))
    return out, [a.grad if isinstance(a, Tensor) else None for a in args]


def _assert_one_backward_per_parent(ops):
    """With all operands differentiable and with any one constant, the node's
    parents are the differentiable operands, its one backward returns one
    gradient per parent, and each parent gets the gradient it gets when every
    operand is differentiable. An entry (op, args, slots) names the operand
    slots the op fills from its arguments, where one argument fills two."""
    for name, (op, args, *layout) in ops.items():
        slots = layout[0] if layout else (lambda a: a)
        out, reference = _taped_grads(op, args)
        g = np.ones(out.shape)
        assert out._parents == tuple(a for a in slots(args) if isinstance(a, Tensor)), name
        assert len(out._backward(g)) == len(out._parents), name
        for i, a in enumerate(args):
            if not isinstance(a, Tensor):
                continue
            call = args[:i] + (Tensor(a.data),) + args[i + 1:]
            out, grads = _taped_grads(op, call)
            differentiable = tuple(t for t in slots(call)
                                   if isinstance(t, Tensor) and t.requires_grad)
            assert out._parents == differentiable, (name, i)
            if differentiable:
                assert len(out._backward(g)) == len(out._parents), (name, i)
            else:
                assert out._backward is None and not out.requires_grad, (name, i)
            assert grads[i] is None, (name, i)
            for j, t in enumerate(call):
                if t in differentiable:
                    assert np.array_equal(grads[j], reference[j]), (name, i, j)


def test_layer_norm_pair_computes_no_gradient_for_a_constant():
    # layer_norm and the transformer block share this forward/backward pair;
    # a slot flagged constant gets None from the raw backward, not a
    # gradient for _result to drop
    rng = np.random.default_rng(8)
    x, gain, bias, g = (rng.normal(size=s) for s in ((2, 3, 4), (1, 4), (1, 4), (2, 3, 4)))
    out, backward = autodiff._layer_norm(x, gain, bias, (True, True, True))
    full = backward(g)
    for i in range(3):
        need = tuple(j != i for j in range(3))
        out_i, backward_i = autodiff._layer_norm(x, gain, bias, need)
        grads = backward_i(g)
        assert np.array_equal(out_i, out) and grads[i] is None, i
        assert all(np.array_equal(grads[j], full[j]) for j in range(3) if j != i), i
    assert np.array_equal(out, layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data)


def test_ops_tape_one_vjp_per_differentiable_operand():
    # every primitive: one backward, one gradient per differentiable operand
    ops = _op_calls(*_op_inputs())
    assert set(ops) == set(autodiff.__all__) - _NOT_OPS
    _assert_one_backward_per_parent(ops)


def test_shared_gradient_array_stays_exact():
    # add hands one gradient array to both operands; a second gradient for
    # `a` on another path must leave the one `b` holds as it was, whichever
    # of the two reaches `a` first
    rng = np.random.default_rng(2)
    w_sum, w_a = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    for sum_first in (True, False):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        through_sum = multiply(add(a, b), Tensor(w_sum))
        through_a = multiply(a, Tensor(w_a))
        parts = (through_sum, through_a) if sum_first else (through_a, through_sum)
        backpropagate(reduce_sum(add(*parts)))
        assert np.array_equal(b.grad, w_sum), sum_first
        assert np.array_equal(a.grad, w_sum + w_a), sum_first


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
    # the primitive finite-difference test and grad_check on the batched op
    # draws, with every grad_check call compared against the taped loop
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
    for seed in range(10):
        for _, fn, arrays in _batched_op_specs(seed):
            _weighted_sum_check(fn, arrays)
    assert audited[0] == 100 * 14 + 10 * 11


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
