"""End-to-end command tests driving main() in process."""

import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from laneformer import cli
from laneformer.autodiff import GradCheckReport
from laneformer.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_DATA_ERROR,
    EXIT_OK,
    ConfigError,
    main,
    micro_config,
    micro_scenario,
    parse_config_file,
    parse_grid,
)
from laneformer.model import ModelConfig, prepare_sample
from laneformer.training import LossConfig, TrainingConfig, TrainingResult

SMALL_MODEL = (
    "d_model=8\nheads=2\nlayers=1\nn_lane_nodes=4\ndecoder_hidden=8\n"
    "modes=2\ne_a2a=2\ne_a2l=3\ne_l2a=2\n")


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny generated dataset plus a one-epoch model shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    gen_cfg = _write(root / "gen.cfg",
                     "template=straight\ncount=2\nagent_count=2\nnoise_sigma=0.0\n")
    data = str(root / "data")
    assert main(["generate", "--config", gen_cfg, "--seed", "7",
                 "--out", data]) == EXIT_OK

    train_cfg = _write(root / "train.cfg", SMALL_MODEL + "batch_size=2\nlr_init=1e-3\n")
    run = str(root / "run")
    assert main(["train", "--config", train_cfg, "--data", data, "--out", run,
                 "--epochs", "1", "--seed", "0"]) == EXIT_OK
    return {"root": root, "data": data, "run": run, "train_cfg": train_cfg}


def test_parse_config_file(tmp_path):
    path = _write(tmp_path / "c.cfg", "a = 1\n# comment\nb=two # trailing\n\n")
    assert parse_config_file(path) == {"a": "1", "b": "two"}
    with pytest.raises(ConfigError, match="config not found"):
        parse_config_file(tmp_path / "missing.cfg")
    bad = _write(tmp_path / "bad.cfg", "just words\n")
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_config_file(bad)
    dup = _write(tmp_path / "dup.cfg", "a=1\na=2\n")
    with pytest.raises(ConfigError, match="duplicate key 'a'"):
        parse_config_file(dup)


def test_parse_grid():
    assert parse_grid("a2a=4,8,16;l2a=4,8") == {"a2a": [4, 8, 16], "l2a": [4, 8]}
    assert parse_grid("a2a=2") == {"a2a": [2]}
    for bad in ("", "a2a", "a2a=4;a2a=8", "a2a=x", "a2a="):
        with pytest.raises(ConfigError):
            parse_grid(bad)


def test_generate_writes_dataset(workspace):
    data = workspace["data"]
    manifest = json.load(open(os.path.join(data, "manifest.json")))
    assert manifest["count"] == 2 and manifest["seed"] == 7
    assert sorted(os.listdir(data)) == [
        "manifest.json", "scenario_0000.json", "scenario_0001.json"]


def test_generate_rejects_unknown_keys(tmp_path, capsys):
    cfg = _write(tmp_path / "g.cfg", "template=straight\nwheelbase=2.7\n")
    assert main(["generate", "--config", cfg,
                 "--out", str(tmp_path / "d")]) == EXIT_CONFIG_ERROR
    assert "unknown config keys ['wheelbase']" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "d")]) == EXIT_CONFIG_ERROR
    assert "config not found" in capsys.readouterr().err


def test_argparse_failures_exit_2(capsys):
    assert main([]) == EXIT_CONFIG_ERROR                 # no subcommand
    assert main(["generate"]) == EXIT_CONFIG_ERROR       # missing --out
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


def test_matrices_dumps_structure_arrays(workspace, tmp_path):
    out = str(tmp_path / "mats")
    assert main(["matrices", "--data", workspace["data"], "--out", out]) == EXIT_OK
    path = os.path.join(out, "scenario_0000_matrices.npz")
    arrays = np.load(path)
    assert set(arrays.files) == {"lane_ids", "m_p", "m_s", "m_l", "m_r",
                                 "pre_hops", "suc_hops", "m_pre_spd",
                                 "m_suc_spd", "m_c"}
    n = arrays["lane_ids"].size
    assert arrays["m_p"].shape == (n, n)
    assert arrays["m_c"].shape == (n, n, 4)


def test_train_outputs(workspace):
    run = workspace["run"]
    assert sorted(os.listdir(run)) == ["curves.csv", "manifest.json", "model.ckpt"]
    manifest = json.load(open(os.path.join(run, "manifest.json")))
    assert manifest["seed"] == 0
    assert manifest["command"] == "train"
    assert manifest["steps"] == 1
    assert manifest["ModelConfig"]["d_model"] == 8
    curves = open(os.path.join(run, "curves.csv")).read().splitlines()
    assert curves[0] == "step,epoch,loss,reg,cls,goal,lr,grad_norm"
    assert len(curves) == 2


def test_train_missing_data_dir(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "nothing"),
                 "--out", str(tmp_path / "r")]) == EXIT_DATA_ERROR
    assert "no such data path" in capsys.readouterr().err


def test_train_resume_records_parent(workspace, tmp_path):
    out = str(tmp_path / "resumed")
    parent = os.path.join(workspace["run"], "model.ckpt")
    assert main(["train", "--config", workspace["train_cfg"],
                 "--data", workspace["data"], "--out", out, "--epochs", "1",
                 "--seed", "0", "--resume", parent]) == EXIT_OK
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["parent_checkpoint"] == os.path.abspath(parent)
    assert len(manifest["parent_checksum"]) == 64


def test_eval_oracle_scores_zero(workspace, tmp_path, capsys):
    out = str(tmp_path / "ev")
    assert main(["eval", "--data", workspace["data"],
                 "--model", os.path.join(workspace["run"], "model.ckpt"),
                 "--out", out, "--oracle"]) == EXIT_OK
    assert "minADE 0.0000" in capsys.readouterr().out
    lines = open(os.path.join(out, "report.csv")).read().splitlines()
    assert lines[-1] == "summary,,0.0,0.0,0.0,0.0"
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["oracle"] is True and manifest["cases"] == 2


def test_eval_tolerance_gate(workspace, tmp_path, capsys):
    out = str(tmp_path / "gate")
    code = main(["eval", "--data", workspace["data"],
                 "--model", os.path.join(workspace["run"], "model.ckpt"),
                 "--out", out, "--tolerance", "1e-9"])
    assert code == EXIT_CHECK_FAILURE
    assert "above tolerance" in capsys.readouterr().err
    # the report is still written before the gate fires
    assert os.path.exists(os.path.join(out, "report.csv"))


def test_eval_grid_sweep(workspace, tmp_path, capsys):
    out = str(tmp_path / "sweep")
    assert main(["eval", "--data", workspace["data"],
                 "--model", os.path.join(workspace["run"], "model.ckpt"),
                 "--out", out, "--grid", "a2a=1,2"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "sweep a2a=1" in printed and "sweep a2a=2" in printed
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert lines[0] == "a2a,min_ade,min_fde,b_min_fde,miss_rate"
    assert len(lines) == 3


def test_eval_missing_model(workspace, tmp_path, capsys):
    assert main(["eval", "--data", workspace["data"],
                 "--model", str(tmp_path / "ghost.ckpt"),
                 "--out", str(tmp_path / "e")]) == EXIT_DATA_ERROR
    assert "no such model checkpoint" in capsys.readouterr().err


def test_eval_truncated_checkpoint_is_data_error(workspace, tmp_path, capsys):
    with open(os.path.join(workspace["run"], "model.ckpt"), "rb") as fh:
        header = fh.read(18)   # magic, version, seed, record count; no records
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(header)
    assert main(["eval", "--data", workspace["data"], "--model", str(cut),
                 "--out", str(tmp_path / "e")]) == EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert "cut.ckpt: truncated checkpoint: record 0" in err


def test_eval_restores_config_from_manifest(workspace, tmp_path):
    # no --config here: dims come from the manifest next to the checkpoint
    out = str(tmp_path / "noconf")
    assert main(["eval", "--data", workspace["data"],
                 "--model", os.path.join(workspace["run"], "model.ckpt"),
                 "--out", out]) == EXIT_OK


def test_eval_manifest_with_unknown_model_key_is_config_error(workspace, tmp_path, capsys):
    run = shutil.copytree(workspace["run"], tmp_path / "run")
    manifest = json.load(open(run / "manifest.json"))
    manifest["ModelConfig"]["dropout"] = 0.1
    json.dump(manifest, open(run / "manifest.json", "w"))
    assert main(["eval", "--data", workspace["data"], "--model", str(run / "model.ckpt"),
                 "--out", str(tmp_path / "e")]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert str(run / "manifest.json") in err and "'dropout'" in err

    del manifest["ModelConfig"]["dropout"]
    manifest["ModelConfig"]["modes"] = 0
    json.dump(manifest, open(run / "manifest.json", "w"))
    assert main(["eval", "--data", workspace["data"], "--model", str(run / "model.ckpt"),
                 "--out", str(tmp_path / "e")]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert str(run / "manifest.json") in err and "at least 1 mode" in err


def test_dataset_manifest_without_files_is_data_error(workspace, tmp_path, capsys):
    data = shutil.copytree(workspace["data"], tmp_path / "data")
    manifest = json.load(open(data / "manifest.json"))
    entries = manifest.pop("files")
    json.dump(manifest, open(data / "manifest.json", "w"))
    assert main(["matrices", "--data", str(data), "--out", str(tmp_path / "m")]) == EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert str(data / "manifest.json") in err and "'files'" in err

    del entries[1]["sha256"]
    json.dump(dict(manifest, files=entries), open(data / "manifest.json", "w"))
    assert main(["matrices", "--data", str(data), "--out", str(tmp_path / "m")]) == EXIT_DATA_ERROR
    assert "manifest.json: files[1].sha256 is missing" in capsys.readouterr().err


def test_predict_writes_csv_and_svg(workspace, tmp_path):
    out = str(tmp_path / "pred")
    scenario_file = os.path.join(workspace["data"], "scenario_0000.json")
    assert main(["predict", "--data", scenario_file,
                 "--model", os.path.join(workspace["run"], "model.ckpt"),
                 "--out", out]) == EXIT_OK
    files = sorted(os.listdir(out))
    assert files == ["manifest.json", "scenario_0000_agent0.svg",
                     "scenario_0000_predictions.csv"]
    header = open(os.path.join(out, "scenario_0000_predictions.csv")).readline()
    assert header.strip() == "scenario_id,agent_id,mode,step,x,y,confidence"
    svg = open(os.path.join(out, "scenario_0000_agent0.svg")).read()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_corrupt_scenario_is_data_error(workspace, tmp_path, capsys):
    bad = _write(tmp_path / "bad.json", '{"lanes": []}')
    assert main(["matrices", "--data", str(bad),
                 "--out", str(tmp_path / "m")]) == EXIT_DATA_ERROR
    assert "missing field" in capsys.readouterr().err


def test_gradcheck_command(tmp_path, capsys):
    cfg = _write(tmp_path / "micro.cfg",
                 "t_history=3\nt_future=2\nd_model=4\nheads=1\nlayers=1\n"
                 "n_lane_nodes=2\ndecoder_hidden=4\nmodes=2\n"
                 "e_a2a=1\ne_a2l=1\ne_l2a=1\n")
    out = str(tmp_path / "gc")
    # loose tolerance: this exercises the command, not gradient tightness
    assert main(["gradcheck", "--config", cfg, "--out", out,
                 "--tolerance", "1e-4"]) == EXIT_OK
    assert "gradient check passed" in capsys.readouterr().out
    lines = open(os.path.join(out, "gradcheck.csv")).read().splitlines()
    assert lines[0] == "parameter,max_rel_error,ok"
    assert all(line.endswith(",1") for line in lines[1:])

    # impossible tolerance flips the exit code
    assert main(["gradcheck", "--config", cfg, "--tolerance", "0"]) == EXIT_CHECK_FAILURE
    assert "check failed" in capsys.readouterr().err


def test_micro_fixture_is_consistent():
    cfg = micro_config()
    scn = micro_scenario(cfg.t_history, cfg.t_future)
    sample = prepare_sample(scn, cfg)
    assert sample.agent_features.shape == (2, 5, 8)
    assert sample.ground_truth.shape == (2, 4, 2)
    # the micro scene exercises chain, lateral, and marking pathways
    assert sample.topology.pre_hops.max() == 1
    assert sample.topology.m_c.sum() == 2.0


@pytest.mark.parametrize("grid, named", [("xyz=1", "'xyz'"), ("a2a=2;l2a=4,0", "'l2a'")])
def test_eval_bad_grid_is_config_error_before_any_work(workspace, tmp_path, capsys, grid,
                                                       named, monkeypatch):
    monkeypatch.setattr(cli, "evaluate_model", lambda *a, **k: pytest.fail("evaluated"))
    out = tmp_path / "ev"
    assert main(["eval", "--data", workspace["data"],
                 "--model", os.path.join(workspace["run"], "model.ckpt"),
                 "--out", str(out), "--grid", grid]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert not out.exists()


def test_eval_grid_without_local_attention_is_config_error_before_any_work(
        workspace, tmp_path, capsys, monkeypatch):
    # with local attention off, every neighborhood size gives the same forward
    run = shutil.copytree(workspace["run"], tmp_path / "run")
    manifest = json.load(open(run / "manifest.json"))
    manifest["ModelConfig"]["use_local_attention"] = False
    json.dump(manifest, open(run / "manifest.json", "w"))
    monkeypatch.setattr(cli, "_load_scenarios", lambda *a: pytest.fail("loaded scenes"))
    out = tmp_path / "ev"
    assert main(["eval", "--data", workspace["data"], "--model", str(run / "model.ckpt"),
                 "--out", str(out), "--grid", "a2a=1,2,8"]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "use_local_attention" in err
    assert not out.exists()


def test_train_resume_missing_checkpoint_is_data_error_before_any_work(workspace, tmp_path,
                                                                      capsys):
    out = tmp_path / "run1"
    assert main(["train", "--config", workspace["train_cfg"], "--data", workspace["data"],
                 "--out", str(out), "--resume", str(tmp_path / "nope.ckpt")]) == EXIT_DATA_ERROR
    assert "no such checkpoint" in capsys.readouterr().err
    assert not out.exists()


def test_train_with_empty_neighborhood_is_config_error_before_any_work(workspace, tmp_path,
                                                                       capsys):
    cfg = _write(tmp_path / "t.cfg", SMALL_MODEL.replace("e_a2a=2", "e_a2a=0"))
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--data", workspace["data"],
                 "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "e_a2a must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_sets_every_training_field(workspace, tmp_path, monkeypatch):
    model = dict(t_history=7, t_future=9, modes=3, d_model=12, heads=3, layers=1,
                 n_lane_nodes=5, m_agent=8, m_map=5, decoder_hidden=10, e_a2a=3, e_a2l=4,
                 e_l2a=2, use_relation_bias=False, use_reachability_bias=False,
                 use_local_attention=False, connection_types=("solid", "dashed"))
    loss = dict(epsilon=0.3, huber_delta=2.5, weight_reg=0.5, weight_cls=0.25, weight_goal=4.0)
    training = dict(epochs=2, batch_size=3, lr_init=0.01, lr_late=0.002, decay_epoch=1,
                    max_steps=5, checkpoint_every=1, seed=9)
    assert set(model) == {f.name for f in dataclasses.fields(ModelConfig)}
    assert set(loss) == {f.name for f in dataclasses.fields(LossConfig)}
    assert set(training) | {"loss"} == {f.name for f in dataclasses.fields(TrainingConfig)}
    lines = [f"{k}={','.join(v) if isinstance(v, tuple) else v}"
             for k, v in {**model, **loss, **training}.items()]
    cfg = _write(tmp_path / "all.cfg", "\n".join(lines) + "\n")
    seen = {}

    def fake_train(params, samples, train_cfg, progress=None, checkpoint_dir=None):
        seen["model"], seen["train"] = params.cfg, train_cfg
        return TrainingResult(curve=[], epoch_reports=[], final_loss=float("nan"), steps=0)

    # history and horizon differ from the generated data's, so skip preparation
    monkeypatch.setattr(cli, "prepare_sample", lambda s, c: s)
    monkeypatch.setattr(cli, "train", fake_train)
    assert main(["train", "--config", cfg, "--data", workspace["data"],
                 "--out", str(tmp_path / "run")]) == EXIT_OK
    assert seen["model"] == ModelConfig(**model)
    assert seen["train"] == TrainingConfig(**training, loss=LossConfig(**loss))


def test_gradcheck_starts_from_micro_config(tmp_path, monkeypatch, capsys):
    seen = []
    real_init = cli.init_model

    def init_model(cfg, seed=0):
        seen.append(cfg)
        return real_init(cfg, seed)

    monkeypatch.setattr(cli, "init_model", init_model)
    monkeypatch.setattr(cli, "grad_check",
                        lambda f, inputs, h, tol: GradCheckReport([0.0] * len(inputs), tol))
    assert main(["gradcheck"]) == EXIT_OK
    cfg = _write(tmp_path / "g.cfg", "modes=3\nuse_local_attention=false\n")
    assert main(["gradcheck", "--config", cfg]) == EXIT_OK
    assert seen == [micro_config(),
                    dataclasses.replace(micro_config(), modes=3, use_local_attention=False)]
    capsys.readouterr()


@pytest.mark.parametrize("command", ["matrices", "gradcheck", "train", "eval", "predict"])
def test_unknown_config_keys_exit_2(workspace, tmp_path, capsys, command):
    cfg = _write(tmp_path / "u.cfg", SMALL_MODEL + "wheelbase=2.7\n")
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    if command != "gradcheck":
        argv += ["--data", workspace["data"]]
    if command in ("eval", "predict"):
        argv += ["--model", os.path.join(workspace["run"], "model.ckpt")]
    assert main(argv) == EXIT_CONFIG_ERROR
    assert "unknown config keys ['wheelbase']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
