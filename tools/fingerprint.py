"""Dump and compare the numbers a refactor must keep bit for bit.

    python tools/fingerprint.py dump OUT.npz
    python tools/fingerprint.py compare A.npz B.npz

`dump` runs five cases: the toy batch (8 `straight` scenes, 3 agents,
seed 1), the default config (5 scenes, one per template, 8 agents, seed 3),
the micro scene, a stacked default-config batch (4 `merge` scenes, 8
agents, seed 3: scenes that share their shapes, whose two lane layers
share one bias set) and a mixed toy batch (`straight`, `merge`, `straight`,
`merge`, 3 agents, seed 1), whose shapes differ, so that batch_loss runs it
scene by scene. It saves every prepared sample's arrays: agent and
lane features, observed mask, agent and lane positions, ground truth,
frame origin and heading, and every topology matrix, hop counts included.
For each of 3 Adam steps (lr 2e-3) it saves every model output, taped and
under no_grad, every loss term, every parameter gradient and every
parameter after the step; for the two default-config cases it also saves,
before the step, `evaluate_model`'s min_ade, min_fde, b_min_fde and miss
per target. `compare` lists every key
whose arrays differ, by shape or by value (NaN equals NaN), or that only
one file holds, and exits 1 if there is any. For arrays that differ by
value it also prints the largest absolute difference, the normwise
relative difference |a - b| / |a| (2-norms over the whole array) and the
largest distance in ulps: the number of float64 values from an element of
a to its element in b, counted after casting both to float64.

`compare` needs only numpy. `dump` imports laneformer's public API; run it
from a checkout with PYTHONPATH=src so that the dump measures that
checkout's code.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

STEPS = 3
LR = 2e-3
REPORT_FIELDS = ("min_ade", "min_fde", "b_min_fde", "miss")
SAMPLE_FIELDS = ("agent_features", "observed", "agent_positions", "lane_features",
                 "lane_positions", "ground_truth", "frame_origin", "frame_heading")
TOPOLOGY_FIELDS = ("m_p", "m_s", "m_l", "m_r", "pre_hops", "suc_hops", "m_pre_spd",
                   "m_suc_spd", "m_c")


def _cases():
    """name -> (model config, init seed, scenarios)."""
    import laneformer as lf
    from laneformer.cli import micro_config, micro_scenario
    from laneformer.synth import TEMPLATES

    toy = lf.ModelConfig(d_model=16, heads=2, layers=1, modes=6, n_lane_nodes=6,
                         decoder_hidden=32, e_a2a=8, e_a2l=16, e_l2a=4)
    straight = lf.GeneratorConfig(seed=1, template="straight", agent_count=3)
    default = lf.ModelConfig()
    micro = micro_config()
    return {
        "toy": (toy, 1, [lf.generate_scenario(straight, i) for i in range(8)]),
        "default": (default, 3, [
            lf.generate_scenario(lf.GeneratorConfig(seed=3, template=tpl, agent_count=8), 0)
            for tpl in TEMPLATES]),
        "micro": (micro, 0, [micro_scenario()]),
        "stacked": (default, 3, [
            lf.generate_scenario(lf.GeneratorConfig(seed=3, template="merge", agent_count=8), i)
            for i in range(4)]),
        "mixed": (toy, 1, [
            lf.generate_scenario(lf.GeneratorConfig(seed=1, template=tpl, agent_count=3), i)
            for i, tpl in enumerate(("straight", "merge", "straight", "merge"))]),
    }


def _outputs(prefix: str, out, arrays: dict) -> None:
    for field in ("scores", "confidences", "paths"):
        arrays[f"{prefix}/{field}"] = getattr(out, field).data.copy()


def _prepared(prefix: str, sample, arrays: dict) -> None:
    for field in SAMPLE_FIELDS:
        value = getattr(sample, field)
        if value is not None:
            arrays[f"{prefix}/{field}"] = np.array(value)
    for field in TOPOLOGY_FIELDS:
        arrays[f"{prefix}/topology/{field}"] = getattr(sample.topology, field).copy()


def fingerprint() -> dict:
    """Key -> array for every number `dump` saves."""
    import laneformer as lf

    arrays = {}
    for case, (cfg, seed, scenes) in _cases().items():
        samples = [lf.prepare_sample(scn, cfg) for scn in scenes]
        for i, s in enumerate(samples):
            _prepared(f"{case}/sample{i}", s, arrays)
        params = lf.init_model(cfg, seed=seed)
        opt = lf.AdamOptimizer(params.registry, lr=LR)
        for step in range(STEPS):
            at = f"{case}/step{step}"
            if cfg == lf.ModelConfig():
                rows = lf.evaluate_model(params, scenes).rows
                for field in REPORT_FIELDS:
                    arrays[f"{at}/report/{field}"] = np.array([r[field] for r in rows])
            for i, s in enumerate(samples):
                with lf.no_grad():
                    _outputs(f"{at}/scene{i}/no_grad", lf.model_forward(params, s), arrays)
                _outputs(f"{at}/scene{i}/taped", lf.model_forward(params, s), arrays)
            params.registry.zero_grad()
            loss = lf.batch_loss(params, samples)
            for term in ("total", "reg", "cls", "goal"):
                arrays[f"{at}/loss/{term}"] = getattr(loss, term).data.copy()
            lf.backpropagate(loss.total)
            opt.step()
            for name, t in params.registry.items():
                if t.grad is not None:
                    arrays[f"{at}/grad/{name}"] = np.array(t.grad)
                arrays[f"{at}/param/{name}"] = t.data.copy()
    return arrays


def differing(a: dict, b: dict) -> list:
    """Sorted keys that only one side holds or whose arrays differ."""
    return sorted(k for k in a.keys() | b.keys()
                  if k not in a or k not in b
                  or a[k].shape != b[k].shape
                  or not np.array_equal(a[k], b[k], equal_nan=a[k].dtype.kind in "fc"))


def ulps(a: np.ndarray, b: np.ndarray) -> int:
    """The largest number of float64 steps between a and b, element by element."""
    def ordered(x):   # float64 bit patterns as integers in the floats' order
        i = x.view(np.int64)
        return np.where(i < 0, -(i & np.int64(0x7FFFFFFFFFFFFFFF)), i)

    ia, ib = ordered(a), ordered(b)
    # the unsigned difference of the larger and the smaller is exact
    steps = np.maximum(ia, ib).astype(np.uint64) - np.minimum(ia, ib).astype(np.uint64)
    return int(steps.max(initial=0))


def difference(a: np.ndarray, b: np.ndarray) -> str:
    """The largest |a - b|, |a - b| / |a| and largest ulp distance of two
    same-shaped arrays."""
    a, b = a.astype(np.float64), b.astype(np.float64)
    n = ulps(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (f"max |a-b| {np.abs(a - b).max():.3e}, "
                f"|a-b|/|a| {np.linalg.norm(a - b) / np.linalg.norm(a):.3e}, "
                f"max {n} ulp{'' if n == 1 else 's'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dump", help="save the fingerprint arrays").add_argument("out")
    cmp = sub.add_parser("compare", help="list the keys whose arrays differ")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        arrays = fingerprint()
        np.savez(args.out, **arrays)
        print(f"saved {len(arrays)} arrays to {args.out}")
        return 0
    with np.load(args.a) as fa, np.load(args.b) as fb:
        a, b = dict(fa), dict(fb)
    keys = differing(a, b)
    for k in keys:
        if (k in a) != (k in b):
            where = "only in " + (args.a if k in a else args.b)
        elif a[k].shape != b[k].shape:
            where = f"differs in shape, {a[k].shape} against {b[k].shape}"
        else:
            where = f"differs, {difference(a[k], b[k])}"
        print(f"{k}: {where}")
    print(f"{len(keys)} of {len(a.keys() | b.keys())} arrays differ")
    return 1 if keys else 0


if __name__ == "__main__":
    sys.exit(main())
