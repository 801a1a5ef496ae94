"""Multimodal displacement metrics.

All four operate on one agent's K predicted trajectories against a single
ground-truth future: final displacement of the best mode, average
displacement of that same mode, a miss indicator against a 2 m endpoint
threshold, and a probability-penalized final displacement. Best always
means smallest endpoint error, ties resolved toward the lower mode index.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MISS_THRESHOLD",
    "min_fde",
    "min_ade",
    "miss_rate",
    "b_min_fde",
    "evaluate_prediction",
    "require_ground_truth",
]

MISS_THRESHOLD = 2.0


def _check_shapes(trajectories: np.ndarray, gt: np.ndarray):
    trajectories = np.asarray(trajectories, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if trajectories.ndim != 3 or trajectories.shape[2] != 2:
        raise ValueError(f"predictions must be (K, T, 2), got {trajectories.shape}")
    if gt.shape != trajectories.shape[1:]:
        raise ValueError(
            f"ground truth {gt.shape} does not match predictions {trajectories.shape}")
    return trajectories, gt


def _endpoint_errors(trajectories: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """(..., K) endpoint displacements of (..., K, T, 2) modes from (..., T, 2)
    ground truth; the best mode is their argmin, ties to the lower index."""
    return np.linalg.norm(trajectories[..., -1, :] - gt[..., None, -1, :], axis=-1)


def min_fde(trajectories: np.ndarray, gt: np.ndarray):
    """(smallest endpoint displacement, index of the mode achieving it)."""
    trajectories, gt = _check_shapes(trajectories, gt)
    d = _endpoint_errors(trajectories, gt)
    k_hat = int(np.argmin(d))
    return float(d[k_hat]), k_hat


def min_ade(trajectories: np.ndarray, gt: np.ndarray) -> float:
    """Mean per-step displacement of the mode selected by min_fde.

    The endpoint picks the mode, so another mode with a smaller average
    error does not change the result.
    """
    trajectories, gt = _check_shapes(trajectories, gt)
    _, k_hat = min_fde(trajectories, gt)
    return float(np.linalg.norm(trajectories[k_hat] - gt, axis=1).mean())


def miss_rate(min_fdes, threshold: float = MISS_THRESHOLD) -> float:
    """Fraction of cases whose min_fde strictly exceeds the threshold."""
    values = np.asarray(list(min_fdes), dtype=np.float64)
    if values.size == 0:
        raise ValueError("miss rate over an empty collection")
    return float((values > threshold).mean())


def b_min_fde(fde_value: float, probability: float) -> float:
    """min_fde plus the (1 - p)^2 penalty on the selected mode's probability."""
    p = float(probability)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mode probability {p} outside [0, 1]")
    return float(fde_value) + (1.0 - p) ** 2


def evaluate_prediction(trajectories: np.ndarray, confidences: np.ndarray,
                        gt: np.ndarray) -> dict:
    """All four metrics for one agent."""
    confidences = np.asarray(confidences, dtype=np.float64)
    fde, k_hat = min_fde(trajectories, gt)
    if confidences.shape != (np.asarray(trajectories).shape[0],):
        raise ValueError(
            f"confidences must be (K,), got {confidences.shape}")
    return {
        "min_ade": min_ade(trajectories, gt),
        "min_fde": fde,
        "b_min_fde": b_min_fde(fde, confidences[k_hat]),
        "miss": bool(fde > MISS_THRESHOLD),
        "best_mode": k_hat,
    }


def require_ground_truth(samples) -> None:
    """Raise a ValueError naming the first prepared sample with no ground
    truth, which the metrics and the training objective both score against."""
    for s in samples:
        if s.ground_truth is None:
            raise ValueError(f"scenario {s.scenario.name!r} has no ground truth")
