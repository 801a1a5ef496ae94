"""Hand-rolled SVG scene renderers plus the raw-point CSV emitter.

No plotting dependency: the files are small enough to assemble as strings,
render anywhere, and diff in tests. Lanes draw gray, observed history blue,
ground truth green, and each predicted mode as a dashed red line whose
opacity follows its confidence.
"""

from __future__ import annotations

import numpy as np

from .scenario import write_csv

__all__ = [
    "scene_svg",
    "write_prediction_svg",
    "write_predictions_csv",
]

_CANVAS = 800.0
_MARGIN = 30.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Frame:
    """World-to-canvas transform with a flipped y axis."""

    def __init__(self, points: np.ndarray):
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        span = np.maximum(hi - lo, 1e-6)
        self.scale = (_CANVAS - 2 * _MARGIN) / span.max()
        self.lo = lo
        self.height = span[1] * self.scale + 2 * _MARGIN
        self.width = span[0] * self.scale + 2 * _MARGIN

    def map(self, pts: np.ndarray) -> list:
        pts = np.asarray(pts, dtype=np.float64)
        sx = (pts[:, 0] - self.lo[0]) * self.scale + _MARGIN
        sy = self.height - ((pts[:, 1] - self.lo[1]) * self.scale + _MARGIN)
        return [f"{_fmt(x)},{_fmt(y)}" for x, y in zip(sx, sy)]


def _polyline(frame: _Frame, pts, color: str, width: float,
              dash: str | None = None, opacity: float = 1.0) -> str:
    if len(pts) < 2:
        return ""
    attrs = (f'points="{" ".join(frame.map(pts))}" fill="none" '
             f'stroke="{color}" stroke-width="{_fmt(width)}"')
    if dash:
        attrs += f' stroke-dasharray="{dash}"'
    if opacity < 1.0:
        attrs += f' stroke-opacity="{_fmt(opacity)}"'
    return f"  <polyline {attrs} />\n"


def scene_svg(lanes, history, ground_truth, trajectories, confidences) -> str:
    """One scene as an SVG document string.

    lanes: iterable of (P, 2) centerlines. history: (T_obs, 2) observed
    positions. ground_truth: (T_f, 2) or None. trajectories: (K, T_f, 2)
    with confidences (K,).
    """
    trajectories = np.asarray(trajectories, dtype=np.float64)
    confidences = np.asarray(confidences, dtype=np.float64)
    history = np.asarray(history, dtype=np.float64)
    groups = [np.asarray(l, dtype=np.float64) for l in lanes]
    everything = [*groups, history, trajectories.reshape(-1, 2)]
    if ground_truth is not None:
        everything.append(np.asarray(ground_truth, dtype=np.float64))
    frame = _Frame(np.vstack([p for p in everything if len(p)]))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(frame.width)}" '
        f'height="{_fmt(frame.height)}" '
        f'viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}">\n',
        f'  <rect width="{_fmt(frame.width)}" height="{_fmt(frame.height)}" '
        f'fill="white" />\n',
    ]
    for lane_pts in groups:
        parts.append(_polyline(frame, lane_pts, "#b0b0b0", 1.0))
    if ground_truth is not None:
        parts.append(_polyline(frame, ground_truth, "#2a9d3a", 2.0))
    order = np.argsort(confidences, kind="stable")
    for k in order:  # draw the most confident mode last, on top
        opacity = 0.35 + 0.65 * float(confidences[k]) / max(confidences.max(), 1e-9)
        parts.append(_polyline(frame, trajectories[k], "#d03030", 2.0,
                               dash="6 4", opacity=min(opacity, 1.0)))
    parts.append(_polyline(frame, history, "#1f6fd0", 2.0))
    if len(history):
        cx, cy = frame.map(history[-1:])[0].split(",")
        parts.append(f'  <circle cx="{cx}" cy="{cy}" r="4" fill="#1f6fd0" />\n')
    parts.append("</svg>\n")
    return "".join(parts)


def write_prediction_svg(path, lanes, history, ground_truth,
                         trajectories, confidences) -> None:
    with open(path, "w") as fh:
        fh.write(scene_svg(lanes, history, ground_truth, trajectories, confidences))


def write_predictions_csv(path, scenario_id: str, target_ids,
                          trajectories: np.ndarray, confidences: np.ndarray) -> None:
    """Raw predicted points, one row per (target, mode, step)."""
    trajectories = np.asarray(trajectories, dtype=np.float64)
    confidences = np.asarray(confidences, dtype=np.float64)
    cols = ["scenario_id", "agent_id", "mode", "step", "x", "y", "confidence"]
    write_csv(path, cols, [
        dict(zip(cols, (scenario_id, agent_id, k, t, *trajectories[i, k, t], confidences[i, k])))
        for i, agent_id in enumerate(target_ids)
        for k in range(trajectories.shape[1]) for t in range(trajectories.shape[2])])
