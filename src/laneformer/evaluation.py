"""Model evaluation: metric reports and neighborhood sweeps.

Reports are per-(scenario, target) metric rows plus one summary row whose
miss column holds the miss rate, written by scenario.write_csv. Each scene
is prepared and checked for ground truth (metrics.require_ground_truth)
before its forward runs, and the model's predictions come from
model.predict_sample, its one forward without a tape. Metrics are computed
in the normalized agent frame; rigid motions preserve every distance
involved, so the frame choice cannot change any value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .metrics import evaluate_prediction, miss_rate, require_ground_truth
from .model import NEIGHBORHOODS, ModelParams, predict_sample, prepare_sample
from .scenario import write_csv

__all__ = [
    "EvaluationReport",
    "evaluate_model",
    "write_report_csv",
    "sweep_neighborhoods",
    "write_sweep_csv",
]


@dataclass
class EvaluationReport:
    rows: list                # dicts: scenario_id, agent_id, metric values
    mean_min_ade: float
    mean_min_fde: float
    mean_b_min_fde: float
    miss_rate: float

    @property
    def n_cases(self) -> int:
        return len(self.rows)


def _summarize(rows) -> "EvaluationReport":
    if not rows:
        raise ValueError("no evaluation cases")
    return EvaluationReport(
        rows=rows,
        mean_min_ade=float(np.mean([r["min_ade"] for r in rows])),
        mean_min_fde=float(np.mean([r["min_fde"] for r in rows])),
        mean_b_min_fde=float(np.mean([r["b_min_fde"] for r in rows])),
        miss_rate=miss_rate([r["min_fde"] for r in rows]),
    )


def _scored_samples(scenarios, cfg):
    """Prepared samples, each checked to carry the ground truth a report scores."""
    for scn in scenarios:
        sample = prepare_sample(scn, cfg)
        require_ground_truth([sample])
        yield sample


def _report(params: ModelParams, samples, oracle: bool = False) -> EvaluationReport:
    rows = []
    for sample in samples:
        if oracle:
            trajectories = np.stack([sample.ground_truth[i][None]
                                     for i in sample.target_ids])
            confidences = np.ones((len(sample.target_ids), 1))
        else:
            pred = predict_sample(params, sample)
            trajectories, confidences = pred.trajectories, pred.confidences
        for row_idx, agent_id in enumerate(sample.target_ids):
            gt = sample.ground_truth[agent_id]
            m = evaluate_prediction(trajectories[row_idx], confidences[row_idx], gt)
            rows.append({"scenario_id": sample.scenario.name, "agent_id": int(agent_id),
                         "min_ade": m["min_ade"], "min_fde": m["min_fde"],
                         "b_min_fde": m["b_min_fde"], "miss": int(m["miss"])})
    return _summarize(rows)


def evaluate_model(params: ModelParams, scenarios, oracle: bool = False) -> EvaluationReport:
    """Metric rows for every target agent of every scenario, run without a tape.

    With oracle=True the ground truth itself is scored as a single
    full-confidence mode, which drives every metric to zero.
    """
    return _report(params, _scored_samples(scenarios, params.cfg), oracle)


def write_report_csv(path, report: EvaluationReport) -> None:
    summary = {"scenario_id": "summary", "agent_id": "", "min_ade": report.mean_min_ade,
               "min_fde": report.mean_min_fde, "b_min_fde": report.mean_b_min_fde,
               "miss": report.miss_rate}
    write_csv(path, list(summary), [*report.rows, summary])


def sweep_neighborhoods(params: ModelParams, scenarios, grid: dict) -> list:
    """Evaluate every combination of attention neighborhood sizes.

    grid maps interaction names (a2a, a2l, l2a) to candidate sizes; absent
    names keep their configured value. Inference only, no retraining. The
    sizes do not enter sample preparation, so each scene is prepared once.
    """
    unknown = set(grid) - set(NEIGHBORHOODS)
    if unknown:
        raise ValueError(f"unknown sweep dimensions {sorted(unknown)}")
    names = sorted(grid)
    samples = list(_scored_samples(scenarios, params.cfg))
    results = []
    for combo in itertools.product(*(grid[n] for n in names)):
        overrides = {f"e_{n}": int(v) for n, v in zip(names, combo)}
        swept = replace(params, cfg=replace(params.cfg, **overrides))
        report = _report(swept, samples)
        results.append({**{n: int(v) for n, v in zip(names, combo)},
                        "min_ade": report.mean_min_ade,
                        "min_fde": report.mean_min_fde,
                        "b_min_fde": report.mean_b_min_fde,
                        "miss_rate": report.miss_rate})
    return results


def write_sweep_csv(path, results: list) -> None:
    if not results:
        raise ValueError("empty sweep")
    write_csv(path, list(results[0]), results)
