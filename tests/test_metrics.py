"""Displacement metric tests with hand-computed and closed-form references."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from laneformer.metrics import (
    MISS_THRESHOLD,
    b_min_fde,
    evaluate_prediction,
    min_ade,
    min_fde,
    miss_rate,
)


def _straight(offsets, t=5):
    # K modes along the x axis, mode k displaced by offsets[k] in y at the end
    gt = np.column_stack([np.arange(1.0, t + 1.0), np.zeros(t)])
    modes = []
    for off in offsets:
        m = gt.copy()
        m[-1, 1] += off
        modes.append(m)
    return np.stack(modes), gt


def test_min_fde_picks_smallest_endpoint_error():
    trajectories, gt = _straight([2.5, 1.2, 7.0])
    value, k_hat = min_fde(trajectories, gt)
    assert value == 1.2 and k_hat == 1


def test_min_fde_three_four_five_endpoint():
    gt = np.zeros((3, 2))
    pred = np.zeros((1, 3, 2))
    pred[0, -1] = (3.0, 4.0)
    value, k_hat = min_fde(pred, gt)
    assert value == 5.0 and k_hat == 0


def test_min_fde_ties_resolve_to_lower_index():
    trajectories, gt = _straight([1.0, -1.0, 1.0])
    _, k_hat = min_fde(trajectories, gt)
    assert k_hat == 0


def test_min_ade_follows_endpoint_selection_not_average():
    # mode 0: off by 2 at every step (ADE 2, FDE 2)
    # mode 1: perfect until the end, endpoint off by 1 (ADE 0.25, FDE 1)
    gt = np.column_stack([np.arange(4.0), np.zeros(4)])
    mode0 = gt + [0.0, 2.0]
    mode1 = gt.copy()
    mode1[-1, 1] = 1.0
    fde, k_hat = min_fde(np.stack([mode0, mode1]), gt)
    assert k_hat == 1 and fde == 1.0
    assert min_ade(np.stack([mode0, mode1]), gt) == 0.25
    # swap so the worse-endpoint mode has the better average: still endpoint-led
    assert min_ade(np.stack([mode1, mode0]), gt) == 0.25


def test_min_ade_closed_form_on_parallel_offsets():
    rng = np.random.default_rng(19)
    for _ in range(200):
        t = int(rng.integers(2, 12))
        k = int(rng.integers(1, 6))
        gt = np.cumsum(rng.normal(size=(t, 2)), axis=0)
        offs = rng.uniform(0.5, 5.0, size=k)
        # mode j is gt shifted by a constant vector of length offs[j]
        ang = rng.uniform(0.0, 2.0 * np.pi, size=k)
        shift = np.column_stack([np.cos(ang), np.sin(ang)]) * offs[:, None]
        modes = gt[None] + shift[:, None, :]
        best = int(np.argmin(offs))
        fde, k_hat = min_fde(modes, gt)
        assert k_hat == best
        assert abs(fde - offs[best]) < 1e-9
        assert abs(min_ade(modes, gt) - offs[best]) < 1e-9


def test_miss_rate_uses_strict_threshold():
    assert miss_rate([1.9, 2.5]) == 0.5
    assert miss_rate([2.0]) == 0.0          # exactly at threshold: not a miss
    assert miss_rate([2.0 + 1e-12]) == 1.0
    assert miss_rate([0.1, 0.2, 0.3]) == 0.0
    assert miss_rate([5.0, 1.0], threshold=0.5) == 1.0
    assert MISS_THRESHOLD == 2.0
    with pytest.raises(ValueError, match="empty"):
        miss_rate([])


def test_b_min_fde_probability_penalty():
    assert b_min_fde(5.0, 0.5) == 5.25
    assert b_min_fde(0.0, 0.0) == 1.0
    assert b_min_fde(3.0, 1.0) == 3.0
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        b_min_fde(1.0, 1.5)
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        b_min_fde(1.0, -0.01)


def test_evaluate_prediction_bundle():
    trajectories, gt = _straight([2.5, 1.2, 7.0])
    conf = np.array([0.2, 0.5, 0.3])
    out = evaluate_prediction(trajectories, conf, gt)
    assert out["best_mode"] == 1
    assert out["min_fde"] == 1.2
    assert abs(out["b_min_fde"] - (1.2 + 0.25)) < 1e-12
    assert out["miss"] is False
    assert abs(out["min_ade"] - 1.2 / 5.0) < 1e-12   # only the last step is off

    missed = evaluate_prediction(_straight([4.0])[0], np.array([1.0]), gt)
    assert missed["miss"] is True


def test_shape_validation():
    gt = np.zeros((4, 2))
    with pytest.raises(ValueError, match=r"\(K, T, 2\)"):
        min_fde(np.zeros((2, 4)), gt)
    with pytest.raises(ValueError, match="does not match"):
        min_fde(np.zeros((2, 5, 2)), gt)
    with pytest.raises(ValueError, match=r"\(K,\)"):
        evaluate_prediction(np.zeros((2, 4, 2)), np.zeros(3), gt)


_coords = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def _predictions(draw):
    k, t = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    return (draw(hnp.arrays(np.float64, (k, t, 2), elements=_coords)),
            draw(hnp.arrays(np.float64, (k,), elements=st.floats(0.0, 1.0))),
            draw(hnp.arrays(np.float64, (t, 2), elements=_coords)))


@settings(max_examples=200, deadline=None)
@given(_predictions(), st.floats(-np.pi, np.pi), st.tuples(
    st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
def test_metrics_do_not_see_a_rigid_motion(prediction, angle, shift):
    # one rotation and translation of the modes and the ground truth together
    trajectories, confidences, gt = prediction
    fde = np.linalg.norm(trajectories[:, -1] - gt[-1], axis=1)
    # the best mode must be clear: a tie within rounding may pick another mode after the motion
    assume(len(fde) == 1 or np.partition(fde, 1)[1] - fde.min() > 1e-6)
    c, s = np.cos(angle), np.sin(angle)
    move = lambda p: p @ np.array([[c, -s], [s, c]]).T + np.array(shift)
    before = evaluate_prediction(trajectories, confidences, gt)
    after = evaluate_prediction(move(trajectories), confidences, move(gt))
    for key in ("min_ade", "min_fde", "b_min_fde"):
        assert abs(after[key] - before[key]) <= 1e-9, key
    assert after["best_mode"] == before["best_mode"]
    if abs(before["min_fde"] - MISS_THRESHOLD) > 1e-9:
        assert after["miss"] == before["miss"]
