"""Losses, Adam, and the training loop.

The objective is a weighted sum of three terms over the N target agents of
a batch: a Huber regression penalty on the best mode's full trajectory
(normalized by N * T_future), a hinge penalty pushing the best mode's
confidence a margin above every other mode's, and a Huber penalty on the
best mode's endpoint. Best mode means smallest endpoint error, ties going
to the lower index; the selection itself is not differentiated. The
objective is one tape node over the paths and the confidences: a numpy
forward over all targets at once, from the best modes' (N, T_f, 2) errors
for the two Huber terms and an (N, K) one-hot mask for the hinge, and one
hand-written backward. Every minibatch ends in one objective node over all
its scenes, whether they ran as one stack or one by one (batch_loss).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import (
    ParameterRegistry,
    Tensor,
    _result,
    backpropagate,
    save_checkpoint,
)
from .config import Config, setting
from .metrics import _endpoint_errors, require_ground_truth
from .model import ModelOutput, ModelParams, Sample, model_forward, stack_samples
from .scenario import write_csv

__all__ = [
    "LossConfig",
    "LossBreakdown",
    "scenario_loss",
    "batch_loss",
    "AdamOptimizer",
    "TrainingConfig",
    "TrainingDiverged",
    "EpochReport",
    "TrainingResult",
    "learning_rate",
    "train_epoch",
    "train",
    "save_curves",
    "config_hash",
    "run_manifest",
]


@dataclass
class LossConfig(Config):
    epsilon: float = setting(0.2, at_least=0)     # confidence hinge margin
    huber_delta: float = setting(1.0, above=0)
    weight_reg: float = setting(1.0, at_least=0)
    weight_cls: float = setting(1.0, at_least=0)
    weight_goal: float = setting(1.0, at_least=0)


@dataclass
class LossBreakdown:
    """Scalar tensors for the batch objective and its three components."""

    total: Tensor
    reg: Tensor
    cls: Tensor
    goal: Tensor

    def values(self) -> dict:
        return {"loss": self.total.item(), "reg": self.reg.item(),
                "cls": self.cls.item(), "goal": self.goal.item()}


def _huber(x: np.ndarray, delta: float) -> np.ndarray:
    """Elementwise Huber penalty: quadratic inside +-delta, linear outside."""
    absx = np.abs(x)
    return np.where(absx <= delta, 0.5 * x * x, delta * (absx - 0.5 * delta))


def _objective(paths: np.ndarray, confidences: np.ndarray, gt: np.ndarray, cfg: LossConfig):
    """The objective's numpy forward over B scenes' (B, N, K, T_f, 2) paths,
    (B, N, K) confidences and (B, N, T_f, 2) ground truth.

    Returns (B,) arrays reg, cls, goal and total, each scene's term computed
    as that scene alone gives it, and backward(g), which maps g, the gradient
    of every scene's total, to the paths' and the confidences' gradients.
    """
    b, n, k, t_f, _ = paths.shape
    if k == 1:
        raise ValueError("classification loss undefined for a single mode")
    delta = float(cfg.huber_delta)
    # minFDE's own rule, so the loss trains the mode the metrics score
    best = np.argmin(_endpoint_errors(paths, gt), axis=-1)
    chosen = (np.arange(b)[:, None], np.arange(n), best)
    errors = paths[chosen] - gt     # (B, N, T_f, 2)
    onehot = np.zeros((b, n, k))
    onehot[chosen] = 1.0
    others = 1.0 - onehot
    pre = (confidences + cfg.epsilon) - (confidences * onehot).sum(axis=-1, keepdims=True)
    c_reg, c_cls, c_goal = 1.0 / (n * t_f), 1.0 / (n * (k - 1)), 1.0 / n
    w_reg, w_cls, w_goal = cfg.weight_reg, cfg.weight_cls, cfg.weight_goal
    scene_sum = lambda a: a.reshape(b, -1).sum(axis=1)
    reg = scene_sum(_huber(errors, delta)) * c_reg
    cls = scene_sum(np.maximum(pre, 0.0) * others) * c_cls
    goal = scene_sum(_huber(errors[:, :, -1:], delta)) * c_goal
    total = (reg * w_reg + cls * w_cls) + goal * w_goal

    def backward(g, need_paths, need_conf):
        g_paths = g_conf = None
        if need_paths:
            g_errors = ((g * w_reg) * c_reg) * np.clip(errors, -delta, delta)
            g_errors[:, :, -1:] += ((g * w_goal) * c_goal) * np.clip(errors[:, :, -1:],
                                                                    -delta, delta)
            g_paths = np.zeros(paths.shape)
            g_paths[chosen] += g_errors
        if need_conf:
            g_pre = (((g * w_cls) * c_cls) * others) * (pre > 0.0)
            g_conf = g_pre + (-g_pre.sum(axis=-1, keepdims=True)) * onehot
        return g_paths, g_conf

    return reg, cls, goal, total, backward


def scenario_loss(output: ModelOutput, sample: Sample,
                  loss_cfg: LossConfig | None = None) -> LossBreakdown:
    """Objective over one scenario's targets; needs ground truth on the sample.

    One tape node over the paths and the confidences, those that need a
    gradient: the best modes are picked on the numpy paths, the three terms
    computed over all targets at once, and one backward returns both
    gradients. Only `total` is taped; `reg`, `cls` and `goal` are constants.
    """
    require_ground_truth([sample])
    return _loss_node([output], [sample], loss_cfg)


def _mean(values) -> float:
    """The scenes' values added in order, then scaled by 1/B: the float
    operations of an `add` chain and a `scale`."""
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total * (1.0 / len(values))


def _loss_node(outputs, samples, loss_cfg: LossConfig | None) -> LossBreakdown:
    """The mean objective over every output's scenes as one tape node whose
    operands are the outputs' paths and confidences in sample order. A single
    scene is viewed as a stack of one. The B scene totals are added in order
    and scaled by 1/B, as are the scenes' gradients, whatever the grouping."""
    cfg, parts, operands = loss_cfg or LossConfig(), [], []
    for out, sample in zip(outputs, samples):
        paths = out.paths.data.reshape((-1,) + out.paths.shape[-4:])
        ids = np.reshape(out.target_ids, paths.shape[:2])
        gt = np.asarray(sample.ground_truth)
        gt = gt.reshape((-1,) + gt.shape[-3:])[np.arange(len(ids))[:, None], ids]
        parts.append(_objective(paths, out.confidences.data.reshape(paths.shape[:3]), gt, cfg))
        operands += [out.paths, out.confidences]
    *terms, backwards = zip(*parts)
    reg, cls, goal, total = map(np.concatenate, terms)
    inv = 1.0 / len(total)

    def backward(g):
        g = g * inv
        return [None if grad is None else grad.reshape(t.shape)
                for bwd, paths, conf in zip(backwards, operands[::2], operands[1::2])
                for grad, t in zip(bwd(g, paths.requires_grad, conf.requires_grad), (paths, conf))]

    return LossBreakdown(total=_result(_mean(total), tuple(operands), backward),
                         reg=Tensor(_mean(reg)), cls=Tensor(_mean(cls)), goal=Tensor(_mean(goal)))


def batch_loss(params: ModelParams, samples, loss_cfg: LossConfig | None = None) -> LossBreakdown:
    """Mean of per-scenario objectives, one graph so a single backward works.

    Two or more scenes that share every shape run as one stack
    (model.stack_samples), any other batch scene by scene; one objective
    node ends the graph. A scene without ground truth is named before any
    forward runs.
    """
    require_ground_truth(samples)
    stacked = stack_samples(samples) if len(samples) > 1 else None
    groups = samples if stacked is None else [stacked]
    return _loss_node([model_forward(params, s) for s in groups], groups, loss_cfg)


# ---------------------------------------------------------------------------
# optimizer


class AdamOptimizer:
    def __init__(self, registry: ParameterRegistry, lr: float = 5e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.registry = registry
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self._m = {n: np.zeros_like(t.data) for n, t in registry.items()}
        self._v = {n: np.zeros_like(t.data) for n, t in registry.items()}

    def step(self) -> None:
        """One update in place, with two work arrays per tensor.

        The float operations and their order are those of the out-of-place
        p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so the result is the same.
        """
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, t in self.registry.items():
            g = t.grad
            if g is None:
                continue
            m, v = self._m[name], self._v[name]
            num, den = np.empty_like(g), np.empty_like(g)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=num)
            v *= b2
            np.multiply(g, 1.0 - b2, out=num)
            v += np.multiply(num, g, out=num)
            np.divide(m, bc1, out=num)
            num *= self.lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            t.data -= num


class TrainingDiverged(RuntimeError):
    """Loss or gradient became non-finite; message names the batch and largest norms."""


@dataclass
class TrainingConfig(Config):
    epochs: int = setting(50, at_least=1)
    batch_size: int = setting(8, at_least=1)
    lr_init: float = setting(5e-4, above=0)
    lr_late: float = setting(1e-4, above=0)
    decay_epoch: int = setting(45, at_least=0)
    max_steps: int | None = setting(None, at_least=1)
    checkpoint_every: int = setting(0, at_least=0)  # epochs between snapshots; 0 = final only
    seed: int = setting(0, at_least=0)
    loss: LossConfig = field(default_factory=LossConfig)


def learning_rate(cfg: TrainingConfig, epoch: int) -> float:
    return cfg.lr_late if epoch >= cfg.decay_epoch else cfg.lr_init


@dataclass
class EpochReport:
    epoch: int
    mean_loss: float
    mean_reg: float
    mean_cls: float
    mean_goal: float
    grad_norm: float
    wall_time: float


@dataclass
class TrainingResult:
    curve: list            # per-step dict rows
    epoch_reports: list
    final_loss: float
    steps: int


def train_epoch(params: ModelParams, batches, opt: AdamOptimizer,
                cfg: TrainingConfig, epoch: int, curve: list,
                step_offset: int) -> EpochReport:
    """One pass over the prepared batches; returns the epoch report."""
    start = time.perf_counter()
    first = len(curve)
    step = step_offset
    for batch_idx, batch in enumerate(batches):
        if cfg.max_steps is not None and step >= cfg.max_steps:
            break
        params.registry.zero_grad()
        breakdown = batch_loss(params, batch, cfg.loss)
        backpropagate(breakdown.total)
        vals = breakdown.values()
        grad_norm = float(np.sqrt(sum(
            float((t.grad ** 2).sum()) for _, t in params.registry.items()
            if t.grad is not None)))
        # a NaN or inf anywhere in a gradient makes the norm non-finite
        if not (np.isfinite(vals["loss"]) and np.isfinite(grad_norm)):
            top = sorted(params.registry.norms().items(), key=lambda kv: -kv[1])[:3]
            desc = ", ".join(f"{n}={v:.3e}" for n, v in top)
            raise TrainingDiverged(
                f"non-finite loss or gradient at batch {batch_idx} (largest parameter "
                f"norms: {desc})")
        opt.lr = learning_rate(cfg, epoch)
        opt.step()
        step += 1
        curve.append({"step": step, "epoch": epoch, "lr": opt.lr,
                      "grad_norm": grad_norm, **vals})
    wall = time.perf_counter() - start
    rows = curve[first:]
    if not rows:
        return EpochReport(epoch, *[float("nan")] * 4, 0.0, wall)
    means = [float(np.mean([r[k] for r in rows])) for k in ("loss", "reg", "cls", "goal")]
    return EpochReport(epoch, *means, rows[-1]["grad_norm"], wall)


def train(params: ModelParams, samples, cfg: TrainingConfig,
          progress=None, checkpoint_dir=None) -> TrainingResult:
    """Full loop: seeded shuffling, step-decayed Adam, optional snapshots.

    `samples` are prepared Samples with ground truth. Wall times appear in
    epoch reports only, never in the curve rows, so curve files stay
    byte-identical across reruns.
    """
    opt = AdamOptimizer(params.registry, lr=cfg.lr_init)
    rng = np.random.default_rng(cfg.seed)
    curve: list = []
    reports: list = []
    step = 0
    for epoch in range(cfg.epochs):
        if cfg.max_steps is not None and step >= cfg.max_steps:
            break
        order = rng.permutation(len(samples))
        batches = [[samples[j] for j in order[i:i + cfg.batch_size]]
                   for i in range(0, len(order), cfg.batch_size)]
        report = train_epoch(params, batches, opt, cfg, epoch, curve, step)
        step = curve[-1]["step"] if curve else 0
        reports.append(report)
        if progress is not None:
            progress(report)
        if (checkpoint_dir is not None and cfg.checkpoint_every > 0
                and (epoch + 1) % cfg.checkpoint_every == 0):
            import os
            save_checkpoint(os.path.join(checkpoint_dir, f"epoch_{epoch + 1:04d}.ckpt"),
                            params.registry, cfg.seed)
    final = curve[-1]["loss"] if curve else float("nan")
    return TrainingResult(curve=curve, epoch_reports=reports,
                          final_loss=final, steps=step)


def save_curves(path, curve) -> None:
    write_csv(path, ["step", "epoch", "loss", "reg", "cls", "goal", "lr", "grad_norm"], curve)


def config_hash(*configs) -> str:
    """Stable digest over dataclass configs (nested ones included)."""
    blob = json.dumps([asdict(c) for c in configs], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_manifest(seed: int, configs, extra=None) -> dict:
    doc = {"seed": int(seed), "config_hash": config_hash(*configs)}
    for c in configs:
        doc[type(c).__name__] = asdict(c)
    if extra:
        doc.update(extra)
    return doc
