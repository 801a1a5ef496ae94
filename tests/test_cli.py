"""End-to-end command tests driving main() in process."""

import json
import os
import shutil

import numpy as np
import pytest

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
from laneformer.model import prepare_sample

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
