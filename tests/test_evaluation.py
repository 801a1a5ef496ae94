"""Evaluation report, sweep, and artifact writers."""

import os
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from laneformer.evaluation import (
    EvaluationReport,
    evaluate_model,
    sweep_neighborhoods,
    write_report_csv,
    write_sweep_csv,
)
from laneformer import evaluation
from laneformer.metrics import evaluate_prediction
from laneformer.model import init_model, model_forward, prepare_sample
from laneformer.plotting import scene_svg, write_prediction_svg, write_predictions_csv

from laneformer.synth import TEMPLATES, GeneratorConfig, generate_scenario

from test_model import _cfg, _scene, _toy_cfg


def _template_scenes(seed, agents=4):
    return [generate_scenario(GeneratorConfig(seed=seed, template=t, agent_count=agents), 0)
            for t in TEMPLATES]


def test_oracle_evaluation_is_all_zeros():
    cfg = _cfg()
    params = init_model(cfg, seed=0)
    report = evaluate_model(params, [_scene(), _scene(n_extra_agents=2)], oracle=True)
    assert report.n_cases == 2
    assert report.mean_min_ade == 0.0
    assert report.mean_min_fde == 0.0
    assert report.mean_b_min_fde == 0.0
    assert report.miss_rate == 0.0
    for row in report.rows:
        assert row["miss"] == 0


def test_model_evaluation_rows_and_summary_math():
    cfg = _cfg()
    params = init_model(cfg, seed=1)
    report = evaluate_model(params, [_scene(), _scene(n_extra_agents=2)])
    assert report.n_cases == 2
    assert report.rows[0]["agent_id"] == 0
    ades = [r["min_ade"] for r in report.rows]
    assert abs(report.mean_min_ade - np.mean(ades)) < 1e-12
    # the b-minFDE penalty can only add to the endpoint error
    for r in report.rows:
        assert r["b_min_fde"] >= r["min_fde"]


def test_evaluation_requires_ground_truth():
    cfg = _cfg()
    params = init_model(cfg, seed=0)
    with pytest.raises(ValueError, match="no ground truth to score"):
        evaluate_model(params, [_scene(with_gt=False)])


def test_report_csv_layout(tmp_path):
    report = EvaluationReport(
        rows=[{"scenario_id": "s0", "agent_id": 0, "min_ade": 0.5,
               "min_fde": 1.0, "b_min_fde": 1.25, "miss": 0}],
        mean_min_ade=0.5, mean_min_fde=1.0, mean_b_min_fde=1.25, miss_rate=0.0)
    path = os.path.join(tmp_path, "report.csv")
    write_report_csv(path, report)
    lines = open(path).read().splitlines()
    assert lines[0] == "scenario_id,agent_id,min_ade,min_fde,b_min_fde,miss"
    assert lines[1] == "s0,0,0.5,1.0,1.25,0"
    assert lines[2] == "summary,,0.5,1.0,1.25,0.0"


def test_sweep_covers_every_combination():
    cfg = _cfg()
    params = init_model(cfg, seed=2)
    scenarios = [_scene()]
    results = sweep_neighborhoods(params, scenarios, {"a2a": [1, 2], "l2a": [1, 2, 3]})
    assert len(results) == 6
    combos = {(r["a2a"], r["l2a"]) for r in results}
    assert combos == {(a, l) for a in (1, 2) for l in (1, 2, 3)}
    for r in results:
        assert set(r) == {"a2a", "l2a", "min_ade", "min_fde", "b_min_fde", "miss_rate"}
    # sweeping must not mutate the caller's config
    assert params.cfg.e_a2a == 2 and params.cfg.e_l2a == 2

    with pytest.raises(ValueError, match="unknown sweep dimensions"):
        sweep_neighborhoods(params, scenarios, {"q2q": [1]})


def test_sweep_csv_writer(tmp_path):
    rows = [{"a2a": 4, "min_ade": 1.5, "min_fde": 2.0, "b_min_fde": 2.25,
             "miss_rate": 0.0}]
    path = os.path.join(tmp_path, "sweep.csv")
    write_sweep_csv(path, rows)
    lines = open(path).read().splitlines()
    assert lines[0] == "a2a,min_ade,min_fde,b_min_fde,miss_rate"
    assert lines[1] == "4,1.5,2.0,2.25,0.0"
    with pytest.raises(ValueError, match="empty sweep"):
        write_sweep_csv(os.path.join(tmp_path, "x.csv"), [])


def test_scene_svg_structure():
    lanes = [np.array([[0.0, 0.0], [30.0, 0.0]]),
             np.array([[0.0, 3.5], [30.0, 3.5]])]
    history = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    gt = np.array([[3.0, 0.0], [4.0, 0.0]])
    trajectories = np.stack([gt + [0.0, off] for off in (0.5, -0.5)])
    svg = scene_svg(lanes, history, gt, trajectories, np.array([0.7, 0.3]))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    # 2 lanes + 1 ground truth + 2 predictions + 1 history
    assert len(polylines) == 6
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    assert len(circles) == 1


def test_prediction_artifacts_on_disk(tmp_path):
    trajectories = np.zeros((1, 2, 3, 2))
    trajectories[0, 0, :, 0] = (1.0, 2.0, 3.0)
    trajectories[0, 1, :, 1] = (1.0, 2.0, 3.0)
    conf = np.array([[0.6, 0.4]])
    csv_path = os.path.join(tmp_path, "p.csv")
    write_predictions_csv(csv_path, "case7", [4], trajectories, conf)
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "scenario_id,agent_id,mode,step,x,y,confidence"
    assert len(lines) == 1 + 2 * 3
    assert lines[1].startswith("case7,4,0,0,1.0,0.0,")

    svg_path = os.path.join(tmp_path, "p.svg")
    write_prediction_svg(svg_path, [np.array([[0.0, 0.0], [5.0, 0.0]])],
                         np.zeros((2, 2)), None, trajectories[0], conf[0])
    ET.parse(svg_path)


def test_evaluation_rows_match_taped_forward_for_every_template():
    cfg = _toy_cfg()
    params = init_model(cfg, seed=6)
    scenes = _template_scenes(6)
    expected = []
    for scn in scenes:
        sample = prepare_sample(scn, cfg)
        out = model_forward(params, sample)
        assert out.scores._parents
        pred = out.prediction_set()
        for row, agent_id in enumerate(sample.target_ids):
            m = evaluate_prediction(pred.trajectories[row], pred.confidences[row],
                                    sample.ground_truth[agent_id])
            expected.append({"scenario_id": scn.name, "agent_id": int(agent_id),
                             "min_ade": m["min_ade"], "min_fde": m["min_fde"],
                             "b_min_fde": m["b_min_fde"], "miss": int(m["miss"])})
    assert evaluate_model(params, scenes).rows == expected


_GRID = {"a2a": [1, 8], "a2l": [2, 16], "l2a": [1, 4]}


def test_sweep_matches_per_combination_evaluation():
    params = init_model(_toy_cfg(), seed=7)
    scenes = _template_scenes(7)
    results = sweep_neighborhoods(params, scenes, _GRID)
    assert len(results) == 8
    for r in results:
        swept = replace(params, cfg=replace(params.cfg, e_a2a=r["a2a"], e_a2l=r["a2l"],
                                            e_l2a=r["l2a"]))
        report = evaluate_model(swept, scenes)
        assert r == {"a2a": r["a2a"], "a2l": r["a2l"], "l2a": r["l2a"],
                     "min_ade": report.mean_min_ade, "min_fde": report.mean_min_fde,
                     "b_min_fde": report.mean_b_min_fde, "miss_rate": report.miss_rate}


def test_sweep_prepares_each_scene_once(monkeypatch):
    calls = []
    real = evaluation.prepare_sample

    def counted(scn, cfg):
        calls.append(scn.name)
        return real(scn, cfg)

    monkeypatch.setattr(evaluation, "prepare_sample", counted)
    scenes = _template_scenes(8, agents=2)
    sweep_neighborhoods(init_model(_toy_cfg(), seed=8), scenes, _GRID)
    assert calls == [scn.name for scn in scenes]
