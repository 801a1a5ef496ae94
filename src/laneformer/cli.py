"""Command-line interface.

Subcommands: generate (synthetic datasets), matrices (dump structure
matrices for a scenario), gradcheck (finite-difference audit of the full
model), train, eval (metric reports, sweeps, oracle mode), and predict
(SVG scenes plus raw-point CSVs).

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 numerical
abort, 4 data error. Config files are key=value lines; every command writes
a manifest naming its seed and config hash so runs can be reproduced, and
every CSV through scenario.write_csv. `eval --oracle` with `--grid` is a
configuration error: the oracle's scores do not depend on neighborhood sizes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import scenario as sc
from .autodiff import grad_check, load_checkpoint, save_checkpoint
from .evaluation import (
    evaluate_model,
    sweep_neighborhoods,
    write_report_csv,
    write_sweep_csv,
)
from .metrics import require_ground_truth
from .model import (
    N_AGENT_FEATURES,
    N_MAP_FEATURES,
    NEIGHBORHOODS,
    ModelConfig,
    init_model,
    predict_sample,
    prepare_sample,
)
from .plotting import write_prediction_svg, write_predictions_csv
from .synth import GeneratorConfig, emit_dataset, load_dataset, sha256_file
from .topology import build_topology
from .training import (
    LossConfig,
    TrainingConfig,
    TrainingDiverged,
    batch_loss,
    run_manifest,
    save_curves,
    train,
)

__all__ = [
    "EXIT_OK",
    "EXIT_CHECK_FAILURE",
    "EXIT_CONFIG_ERROR",
    "EXIT_NUMERICAL_ABORT",
    "EXIT_DATA_ERROR",
    "ConfigError",
    "DataError",
    "CheckFailure",
    "parse_config_file",
    "parse_grid",
    "micro_scenario",
    "micro_config",
    "build_parser",
    "main",
    "entry",
]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ABORT = 3
EXIT_DATA_ERROR = 4


class ConfigError(ValueError):
    """Bad flags, bad config file, or unknown keys."""


class DataError(ValueError):
    """Missing or malformed scenario/model files."""


class CheckFailure(RuntimeError):
    """A requested check did not meet its tolerance."""


# ---------------------------------------------------------------------------
# config plumbing


def parse_config_file(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config not found: {path}")
    if os.path.isdir(path):
        raise ConfigError(f"config {path} is a directory, not a file")
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value
    return values


def _convert(raw: str, like):
    if isinstance(like, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected boolean, got {raw!r}")
    if like is None or isinstance(like, int):
        if raw.lower() in ("none", ""):
            return None
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"expected integer, got {raw!r}") from e
    if isinstance(like, float):
        try:
            return float(raw)
        except ValueError as e:
            raise ConfigError(f"expected number, got {raw!r}") from e
    if isinstance(like, tuple):
        return tuple(part.strip() for part in raw.split(","))
    return raw


def _overlay(base, values: dict, consumed: set, **overrides):
    """Copy of config dataclass `base` with matching keys in `values`, then `overrides`."""
    kwargs = {}
    for f in dataclasses.fields(base):
        current = getattr(base, f.name)
        if f.name in values and not dataclasses.is_dataclass(current):
            kwargs[f.name] = _convert(values[f.name], current)
            consumed.add(f.name)
    kwargs.update(overrides)
    try:
        return dataclasses.replace(base, **kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _reject_unknown(values: dict, consumed: set, path) -> None:
    unknown = sorted(set(values) - consumed)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")


def _read_config(args) -> dict:
    return parse_config_file(args.config) if args.config else {}


def parse_grid(spec: str) -> dict:
    """'a2a=4,8,16;l2a=4,8' into {'a2a': [4, 8, 16], 'l2a': [4, 8]}."""
    grid = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"grid part {part!r} is not name=v1,v2,...")
        name, _, values = part.partition("=")
        name = name.strip()
        if name in grid:
            raise ConfigError(f"grid names {name!r} twice")
        try:
            grid[name] = [int(v) for v in values.split(",") if v.strip()]
        except ValueError as e:
            raise ConfigError(f"grid values for {name!r} must be integers") from e
        if not grid[name]:
            raise ConfigError(f"grid dimension {name!r} has no values")
    if not grid:
        raise ConfigError("empty grid")
    return grid


def _sweep_grid(spec: str, cfg: ModelConfig, oracle: bool) -> dict:
    """The --grid sweep, every name and size checked against `cfg` before any work."""
    grid = parse_grid(spec)
    if oracle:
        raise ConfigError("--grid sweeps the model's neighborhoods, but --oracle scores the "
                          "ground truth, which no neighborhood size changes")
    if not cfg.use_local_attention:
        raise ConfigError("--grid sweeps local-attention neighborhoods, but the model has "
                          "use_local_attention=false, so every size gives the same result")
    for name, sizes in grid.items():
        if name not in NEIGHBORHOODS:
            raise ConfigError(f"unknown sweep dimension {name!r} "
                              f"(known: {', '.join(NEIGHBORHOODS)})")
        for size in sizes:
            try:
                dataclasses.replace(cfg, **{f"e_{name}": size})
            except ValueError as e:
                raise ConfigError(f"grid dimension {name!r}: {e}") from e
    return grid


# ---------------------------------------------------------------------------
# shared helpers


def _make_out_dir(path) -> None:
    """Create the --out directory; a file in its place is a ConfigError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as e:
        raise ConfigError(f"--out {path}: {e.strerror}") from e


def _write_manifest(out_dir, doc: dict) -> None:
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _load_scenarios(path) -> list:
    """A scenario file or a dataset directory; a malformed file is a DataError naming it."""
    if not os.path.exists(path):
        raise DataError(f"no such data path: {path}")
    if os.path.isdir(path) and not os.path.exists(os.path.join(path, "manifest.json")):
        raise DataError(f"{path}: no manifest.json; not a dataset directory")
    try:
        return load_dataset(path) if os.path.isdir(path) else [sc.parse_scenario(path)]
    except ValueError as e:
        raise DataError(str(e)) from e


def _load_checkpoint(path, registry) -> int:
    """load_checkpoint, with a malformed file or a directory as a DataError naming it."""
    try:
        return load_checkpoint(path, registry)
    except (ValueError, IsADirectoryError) as e:
        raise DataError(str(e)) from e


# manifests written while these were ModelConfig fields carry them, each with its one value
_RETIRED_MODEL_FIELDS = {"m_agent": N_AGENT_FEATURES, "m_map": N_MAP_FEATURES}


def _manifest_model_config(raw: dict, where) -> ModelConfig:
    """A manifest's ModelConfig object, each value's JSON type checked
    against its field's default; a retired field must hold its one value."""
    _reject_unknown(raw, {f.name for f in dataclasses.fields(ModelConfig)}
                    | set(_RETIRED_MODEL_FIELDS), where)
    kwargs = {}
    for key, value in raw.items():
        if key in _RETIRED_MODEL_FIELDS:
            if type(value) is not int or value != _RETIRED_MODEL_FIELDS[key]:
                raise ConfigError(f"{where}: {key} is fixed at {_RETIRED_MODEL_FIELDS[key]}, "
                                  f"got {value!r}")
            continue
        like = getattr(ModelConfig, key)
        if isinstance(like, tuple):
            if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                raise ConfigError(f"{where}: {key} must be a list of strings, got {value!r}")
            value = tuple(value)
        elif type(value) is not type(like):
            kind = "a boolean" if isinstance(like, bool) else "an integer"
            raise ConfigError(f"{where}: {key} must be {kind}, got {value!r}")
        kwargs[key] = value
    try:
        return ModelConfig(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _restore_model(model_path, values: dict, consumed: set, seed_flag):
    if not os.path.exists(model_path):
        raise DataError(f"no such model checkpoint: {model_path}")
    manifest_path = os.path.join(os.path.dirname(model_path) or ".", "manifest.json")
    base = ModelConfig()
    if os.path.exists(manifest_path):
        try:
            doc = sc.read_json(manifest_path)
        except ValueError as e:
            raise DataError(str(e)) from e
        if not isinstance(doc, dict) or not isinstance(doc.get("ModelConfig", {}), dict):
            raise DataError(f"{manifest_path}: expected a JSON object with a ModelConfig object")
        if "ModelConfig" in doc:
            base = _manifest_model_config(doc["ModelConfig"], f"{manifest_path} ModelConfig")
    cfg = _overlay(base, values, consumed)
    params = init_model(cfg, seed=seed_flag or 0)
    return params, _load_checkpoint(model_path, params.registry)


# ---------------------------------------------------------------------------
# micro fixtures for gradient checking


def micro_config() -> ModelConfig:
    return ModelConfig(t_history=5, t_future=4, modes=2, d_model=8, heads=2,
                       layers=1, n_lane_nodes=4, decoder_hidden=8,
                       e_a2a=2, e_a2l=3, e_l2a=2)


def micro_scenario(t_history: int = 5, t_future: int = 4) -> sc.Scenario:
    """Two agents on a three-lane graph exercising every bias pathway."""
    lanes = [
        sc.Lane(0, "vehicle", np.column_stack([np.linspace(0, 20, 5), np.zeros(5)])),
        sc.Lane(1, "vehicle", np.column_stack([np.linspace(20, 40, 5), np.zeros(5)])),
        sc.Lane(2, "vehicle", np.column_stack([np.linspace(18, 38, 5), np.full(5, 3.5)])),
    ]
    conn = sc.LaneConnectivity(
        successors=[(0, 1)],
        predecessors=[(1, 0)],
        left=[(1, 2, "dashed")],
        right=[(2, 1, "dashed")],
    )
    dt = 0.1
    histories, futures = [], []
    for start, speed, lateral in ((2.0, 8.0, 0.0), (1.0, 6.0, 3.5)):
        t_all = np.arange(t_history + t_future) * dt
        pos = np.column_stack([start + speed * t_all, np.full(t_all.size, lateral)])
        histories.append(sc.AgentHistory(
            positions=pos[:t_history],
            velocities=sc.finite_difference_velocities(pos[:t_history], dt),
            headings=np.zeros(t_history),
            padding=np.ones(t_history, dtype=bool),
            category=3,
            agent_type="vehicle",
        ))
        futures.append(pos[t_history:])
    scn = sc.Scenario(lanes=lanes, connectivity=conn, agents=histories,
                      target_ids=[0], ground_truth=np.stack(futures),
                      name="micro")
    sc.validate_scenario(scn)
    return scn


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    values = _read_config(args)
    consumed: set = set()
    count = 16
    if "count" in values:
        count = _convert(values["count"], 0)
        consumed.add("count")
    overrides = {"seed": args.seed} if args.seed is not None else {}
    gen_cfg = _overlay(GeneratorConfig(), values, consumed, **overrides)
    _reject_unknown(values, consumed, args.config or "<defaults>")
    if count < 0:
        raise ConfigError(f"count must be non-negative, got {count}")
    _make_out_dir(args.out)
    manifest = emit_dataset(gen_cfg, count, args.out)
    print(f"wrote {manifest['count']} scenarios to {args.out} "
          f"(template={gen_cfg.template}, seed={gen_cfg.seed})")
    return EXIT_OK


def cmd_matrices(args) -> int:
    scenarios = _load_scenarios(args.data)
    values = _read_config(args)
    consumed: set = set()
    cfg = _overlay(ModelConfig(), values, consumed)
    _reject_unknown(values, consumed, args.config or "<defaults>")
    _make_out_dir(args.out)
    for scn in scenarios:
        try:
            topo = build_topology(sc.resample_lanes(scn, cfg.n_lane_nodes),
                                  cfg.connection_types)
        except ValueError as e:
            raise DataError(f"{args.data}: scenario {scn.name!r}: {e}") from e
        out = os.path.join(args.out, f"{scn.name}_matrices.npz")
        np.savez(out, lane_ids=np.asarray(topo.lane_ids), m_p=topo.m_p, m_s=topo.m_s,
                 m_l=topo.m_l, m_r=topo.m_r, pre_hops=topo.pre_hops,
                 suc_hops=topo.suc_hops, m_pre_spd=topo.m_pre_spd,
                 m_suc_spd=topo.m_suc_spd, m_c=topo.m_c)
        print(f"{scn.name}: {topo.n_lanes} lanes -> {out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    values = _read_config(args)
    consumed: set = set()
    cfg = _overlay(micro_config(), values, consumed)
    _reject_unknown(values, consumed, args.config or "<defaults>")
    tol = args.tolerance if args.tolerance is not None else 1e-5
    seed = args.seed if args.seed is not None else 0
    if args.out:
        _make_out_dir(args.out)

    params = init_model(cfg, seed=seed)
    sample = prepare_sample(micro_scenario(cfg.t_history, cfg.t_future), cfg)

    def loss_fn(*_ignored):
        return batch_loss(params, [sample]).total

    names = params.registry.names()
    tensors = [params.registry[n] for n in names]
    report = grad_check(loss_fn, tensors, h=1e-5, tol=tol)

    if args.out:
        path = os.path.join(args.out, "gradcheck.csv")
        sc.write_csv(path, ["parameter", "max_rel_error", "ok"],
                     [{"parameter": name, "max_rel_error": err, "ok": int(err <= tol)}
                      for name, err in zip(names, report.errors)])
        _write_manifest(args.out, {"seed": seed, "tolerance": tol,
                                   "max_error": report.max_error,
                                   "parameters": len(names)})
    worst = int(np.argmax(report.errors))
    print(f"checked {len(names)} parameter tensors: max rel error "
          f"{report.max_error:.3e} at {names[worst]} (tolerance {tol:g})")
    if not report.passed:
        raise CheckFailure(f"gradient check failed: {report.max_error:.3e} > {tol:g}")
    print("gradient check passed")
    return EXIT_OK


def cmd_train(args) -> int:
    values = _read_config(args)
    consumed: set = set()
    model_cfg = _overlay(ModelConfig(), values, consumed)
    if model_cfg.modes < 2:
        raise ConfigError(f"modes must be at least 2 to train (the confidence hinge "
                          f"compares modes), got {model_cfg.modes}")
    train_overrides = {}
    if args.seed is not None:
        train_overrides["seed"] = args.seed
    if args.epochs is not None:
        train_overrides["epochs"] = args.epochs
    loss_cfg = _overlay(LossConfig(), values, consumed)
    train_cfg = _overlay(TrainingConfig(), values, consumed, loss=loss_cfg,
                         **train_overrides)
    _reject_unknown(values, consumed, args.config or "<defaults>")

    scenarios = _load_scenarios(args.data)
    if not scenarios:
        raise DataError(f"{args.data}: dataset is empty")
    try:
        samples = [prepare_sample(s, model_cfg) for s in scenarios]
        require_ground_truth(samples)
    except ValueError as e:
        raise DataError(str(e)) from e

    params = init_model(model_cfg, seed=train_cfg.seed)
    extra = {"command": "train", "scenarios": len(samples)}
    if args.resume:
        if not os.path.exists(args.resume):
            raise DataError(f"no such checkpoint: {args.resume}")
        _load_checkpoint(args.resume, params.registry)
        extra["parent_checkpoint"] = os.path.abspath(args.resume)
        extra["parent_checksum"] = sha256_file(args.resume)
    _make_out_dir(args.out)

    def progress(report):
        print(f"epoch {report.epoch:3d}  loss {report.mean_loss:.4f}  "
              f"reg {report.mean_reg:.4f}  cls {report.mean_cls:.4f}  "
              f"goal {report.mean_goal:.4f}  wall {report.wall_time:.1f}s")

    result = train(params, samples, train_cfg, progress=progress,
                   checkpoint_dir=args.out)
    ckpt = os.path.join(args.out, "model.ckpt")
    save_checkpoint(ckpt, params.registry, train_cfg.seed)
    save_curves(os.path.join(args.out, "curves.csv"), result.curve)
    extra["steps"] = result.steps
    extra["final_loss"] = result.final_loss
    extra["checkpoint"] = "model.ckpt"
    _write_manifest(args.out, run_manifest(train_cfg.seed,
                                           [model_cfg, train_cfg], extra))
    print(f"trained {result.steps} steps; final loss {result.final_loss:.4f}; "
          f"checkpoint {ckpt}")
    return EXIT_OK


def cmd_eval(args) -> int:
    values = _read_config(args)
    consumed: set = set()
    params, stored_seed = _restore_model(args.model, values, consumed, args.seed)
    _reject_unknown(values, consumed, args.config or "<defaults>")
    grid = _sweep_grid(args.grid, params.cfg, args.oracle) if args.grid else None
    scenarios = _load_scenarios(args.data)
    if not scenarios:
        raise DataError(f"{args.data}: dataset is empty")
    _make_out_dir(args.out)
    try:
        report = evaluate_model(params, scenarios, oracle=args.oracle)
    except ValueError as e:
        raise DataError(str(e)) from e
    write_report_csv(os.path.join(args.out, "report.csv"), report)
    print(f"evaluated {report.n_cases} cases: minADE {report.mean_min_ade:.4f}  "
          f"minFDE {report.mean_min_fde:.4f}  b-minFDE {report.mean_b_min_fde:.4f}  "
          f"miss rate {report.miss_rate:.3f}")
    extra = {"command": "eval", "cases": report.n_cases,
             "mean_min_ade": report.mean_min_ade,
             "mean_b_min_fde": report.mean_b_min_fde,
             "miss_rate": report.miss_rate, "oracle": bool(args.oracle)}
    if grid:
        results = sweep_neighborhoods(params, scenarios, grid)
        write_sweep_csv(os.path.join(args.out, "sweep.csv"), results)
        for row in results:
            dims = "  ".join(f"{k}={row[k]}" for k in sorted(grid))
            print(f"sweep {dims}  b-minFDE {row['b_min_fde']:.4f}")
        extra["sweep_rows"] = len(results)
    _write_manifest(args.out, run_manifest(stored_seed, [params.cfg], extra))
    if args.tolerance is not None and report.mean_min_ade > args.tolerance:
        raise CheckFailure(
            f"minADE {report.mean_min_ade:.4f} above tolerance {args.tolerance:g}")
    return EXIT_OK


def cmd_predict(args) -> int:
    values = _read_config(args)
    consumed: set = set()
    params, stored_seed = _restore_model(args.model, values, consumed, args.seed)
    _reject_unknown(values, consumed, args.config or "<defaults>")
    scenarios = _load_scenarios(args.data)
    if not scenarios:
        raise DataError(f"{args.data}: dataset is empty")
    _make_out_dir(args.out)
    written = []
    for scn in scenarios:
        try:
            sample = prepare_sample(scn, params.cfg)
        except ValueError as e:
            raise DataError(str(e)) from e
        pred = predict_sample(params, sample)
        csv_path = os.path.join(args.out, f"{scn.name}_predictions.csv")
        write_predictions_csv(csv_path, scn.name, sample.target_ids,
                              pred.trajectories, pred.confidences)
        written.append(os.path.basename(csv_path))
        lanes = [l.centerline for l in sample.scenario.lanes]
        for i, agent_id in enumerate(sample.target_ids):
            agent = sample.scenario.agents[agent_id]
            history = agent.positions[agent.padding]
            gt = None if sample.ground_truth is None else sample.ground_truth[agent_id]
            svg_path = os.path.join(args.out, f"{scn.name}_agent{agent_id}.svg")
            write_prediction_svg(svg_path, lanes, history, gt,
                                 pred.trajectories[i], pred.confidences[i])
            written.append(os.path.basename(svg_path))
    _write_manifest(args.out, run_manifest(stored_seed, [params.cfg],
                                           {"command": "predict",
                                            "scenarios": len(scenarios),
                                            "files": written}))
    print(f"wrote {len(written)} files for {len(scenarios)} scenarios to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laneformer",
        description="lane-graph trajectory prediction: data, training, evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("generate", help="write a synthetic dataset")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("matrices", help="dump structure matrices for scenarios")
    common(p)
    p.add_argument("--data", required=True, help="scenario file or dataset directory")
    p.set_defaults(func=cmd_matrices)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the tiny model")
    common(p, out_required=False)
    p.add_argument("--tolerance", type=float, help="max relative error (default 1e-5)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train a model on a dataset")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--epochs", type=int, help="epoch count override")
    p.add_argument("--resume", help="warm start from this checkpoint's parameters; the "
                   "optimizer state, epoch schedule and shuffling start afresh")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="compute metrics for a trained model")
    common(p)
    p.add_argument("--data", required=True, help="scenario file or dataset directory")
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--tolerance", type=float,
                   help="fail (exit 1) when mean minADE exceeds this")
    p.add_argument("--grid", help="neighborhood sweep, e.g. 'a2a=4,8,16;l2a=4'")
    p.add_argument("--oracle", action="store_true",
                   help="score the ground truth itself (all metrics zero)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="emit SVG scenes and prediction CSVs")
    common(p)
    p.add_argument("--data", required=True, help="scenario file or dataset directory")
    p.add_argument("--model", required=True, help="model checkpoint")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_CONFIG_ERROR
    try:
        # every command takes --seed, and numpy's seeding takes no negative seed
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except CheckFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    except TrainingDiverged as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERICAL_ABORT
    except (DataError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA_ERROR


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
