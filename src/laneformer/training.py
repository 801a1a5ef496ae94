"""Losses, Adam, and the training loop.

The objective is a weighted sum of three terms over the N target agents of
a batch: a Huber regression penalty on the best mode's full trajectory
(normalized by N * T_future), a hinge penalty pushing the best mode's
confidence a margin above every other mode's, and a Huber penalty on the
best mode's endpoint. Best mode means smallest endpoint error, ties going
to the lower index; the selection itself is not differentiated. Each term
is a few tensor ops over all targets at once: the best modes' (N, T_f, 2)
errors for the two Huber terms, an (N, K) one-hot mask for the hinge.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    ParameterRegistry,
    Tensor,
    add,
    backpropagate,
    gather_rows,
    matmul,
    multiply,
    reduce_sum,
    relu,
    reshape,
    save_checkpoint,
    scale,
    smooth_l1,
    subtract,
)
from .metrics import min_fde
from .model import ModelOutput, ModelParams, Sample, model_forward

__all__ = [
    "LossConfig",
    "LossBreakdown",
    "select_best_mode",
    "classification_loss",
    "regression_loss",
    "goal_loss",
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
class LossConfig:
    epsilon: float = 0.2          # confidence hinge margin
    huber_delta: float = 1.0
    weight_reg: float = 1.0
    weight_cls: float = 1.0
    weight_goal: float = 1.0


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


def select_best_mode(trajectories: np.ndarray, gt: np.ndarray) -> int:
    """Index of the mode whose endpoint is closest to the ground-truth endpoint.

    The same rule as minFDE's, so the loss trains the mode the metrics score.
    """
    return min_fde(trajectories, gt)[1]


def classification_loss(confidences: Tensor, best_modes, epsilon: float) -> Tensor:
    """Hinge margin over non-best modes, averaged over N * (K - 1) terms."""
    n, k = confidences.shape
    if k == 1:
        raise ValueError("classification loss undefined for a single mode")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), best_modes] = 1.0
    c_hat = reduce_sum(multiply(confidences, Tensor(onehot)), axis=1, keepdims=True)
    margins = relu(subtract(add(confidences, epsilon), c_hat))
    return scale(reduce_sum(multiply(margins, Tensor(1.0 - onehot))), 1.0 / (n * (k - 1)))


def regression_loss(errors: Tensor, delta: float) -> Tensor:
    """Per-coordinate Huber on the (N, T_future, 2) best-mode errors, / (N * T_future)."""
    n, t_f = errors.shape[:2]
    return scale(reduce_sum(smooth_l1(errors, delta=delta)), 1.0 / (n * t_f))


def goal_loss(errors: Tensor, delta: float) -> Tensor:
    """Per-coordinate Huber on the (N, T_future, 2) best-mode errors' last step, / N."""
    n, t_f = errors.shape[:2]
    last = np.zeros((1, t_f))
    last[0, -1] = 1.0
    endpoints = matmul(Tensor(last), errors)  # (N, 1, 2)
    return scale(reduce_sum(smooth_l1(endpoints, delta=delta)), 1.0 / n)


def scenario_loss(output: ModelOutput, sample: Sample,
                  loss_cfg: LossConfig | None = None) -> LossBreakdown:
    """Objective over one scenario's targets; needs ground truth on the sample.

    The best modes are picked on the numpy paths, then gathered in one
    step; every term then covers all targets at once.
    """
    cfg = loss_cfg or LossConfig()
    if sample.ground_truth is None:
        raise ValueError(f"scenario {sample.scenario.name!r} has no ground truth")
    gt = np.stack([sample.ground_truth[i] for i in output.target_ids])
    paths = output.paths
    n_t, k, t_f, _ = paths.shape
    best = [select_best_mode(modes, g) for modes, g in zip(paths.data, gt)]
    chosen = gather_rows(reshape(paths, (n_t * k, t_f, 2)), np.arange(n_t) * k + best)
    errors = subtract(chosen, Tensor(gt))
    reg = regression_loss(errors, cfg.huber_delta)
    cls = classification_loss(output.confidences, best, cfg.epsilon)
    goal = goal_loss(errors, cfg.huber_delta)
    total = add(add(scale(reg, cfg.weight_reg), scale(cls, cfg.weight_cls)),
                scale(goal, cfg.weight_goal))
    return LossBreakdown(total=total, reg=reg, cls=cls, goal=goal)


def batch_loss(params: ModelParams, samples, loss_cfg: LossConfig | None = None) -> LossBreakdown:
    """Mean of per-scenario objectives, one graph so a single backward works."""
    parts = [scenario_loss(model_forward(params, s), s, loss_cfg) for s in samples]
    inv = 1.0 / len(parts)

    def mean(name):
        total = getattr(parts[0], name)
        for p in parts[1:]:
            total = add(total, getattr(p, name))
        return scale(total, inv)

    return LossBreakdown(total=mean("total"), reg=mean("reg"),
                         cls=mean("cls"), goal=mean("goal"))


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
class TrainingConfig:
    epochs: int = 50
    batch_size: int = 8
    lr_init: float = 5e-4
    lr_late: float = 1e-4
    decay_epoch: int = 45
    max_steps: int | None = None
    checkpoint_every: int = 0     # epochs between snapshots; 0 = final only
    seed: int = 0
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
    losses, regs, clss, goals = [], [], [], []
    grad_norm = 0.0
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
        losses.append(vals["loss"])
        regs.append(vals["reg"])
        clss.append(vals["cls"])
        goals.append(vals["goal"])
        curve.append({"step": step, "epoch": epoch, "lr": opt.lr,
                      "grad_norm": grad_norm, **vals})
    wall = time.perf_counter() - start
    if not losses:
        return EpochReport(epoch, float("nan"), float("nan"), float("nan"),
                           float("nan"), 0.0, wall)
    return EpochReport(epoch, float(np.mean(losses)), float(np.mean(regs)),
                       float(np.mean(clss)), float(np.mean(goals)), grad_norm, wall)


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
    cols = ["step", "epoch", "loss", "reg", "cls", "goal", "lr", "grad_norm"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in curve:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in cols) + "\n")


def _config_dict(c) -> dict:
    out = {}
    for k, v in vars(c).items():
        if hasattr(v, "__dataclass_fields__"):
            out[k] = _config_dict(v)
        elif isinstance(v, tuple):
            out[k] = list(v)
        else:
            out[k] = v
    return out


def config_hash(*configs) -> str:
    """Stable digest over dataclass configs (nested ones included)."""
    blob = json.dumps([_config_dict(c) for c in configs], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_manifest(seed: int, configs, extra=None) -> dict:
    doc = {"seed": int(seed), "config_hash": config_hash(*configs)}
    for c in configs:
        doc[type(c).__name__] = _config_dict(c)
    if extra:
        doc.update(extra)
    return doc
