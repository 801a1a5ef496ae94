"""Overfit a small model on four scenarios and watch the loss collapse.

A quick sanity loop, not a benchmark: 150 gradient steps on repeated data
should drive the multi-mode loss down by an order of magnitude and leave
the best mode hugging the true future. Runs in roughly ten seconds.
"""

import numpy as np

from laneformer.autodiff import no_grad
from laneformer.metrics import min_ade, min_fde
from laneformer.model import ModelConfig, init_model, model_forward, prepare_sample
from laneformer.synth import GeneratorConfig, generate_dataset
from laneformer.training import TrainingConfig, train


def main():
    scenarios = generate_dataset(
        GeneratorConfig(seed=5, template="straight", agent_count=3), 4)
    cfg = ModelConfig(d_model=16, heads=2, layers=1, modes=6, n_lane_nodes=6,
                      decoder_hidden=32, e_a2a=8, e_a2l=16, e_l2a=4)
    samples = [prepare_sample(s, cfg) for s in scenarios]
    params = init_model(cfg, seed=0)
    print(f"model has {params.registry.num_values()} scalar parameters")

    reports = []
    tcfg = TrainingConfig(epochs=150, batch_size=4, lr_init=2e-3, lr_late=2e-3,
                          decay_epoch=10 ** 9, max_steps=150, seed=0)
    result = train(params, samples, tcfg, progress=reports.append)

    for r in reports[::30] + [reports[-1]]:
        print(f"epoch {r.epoch:3d}  loss {r.mean_loss:9.4f}")
    drop = 1.0 - result.final_loss / reports[0].mean_loss
    print(f"loss dropped {100 * drop:.1f}% over {result.steps} steps")

    for s in samples:
        with no_grad():
            pred = model_forward(params, s).prediction_set()
        gt = s.ground_truth[pred.target_ids[0]]
        fde, k = min_fde(pred.trajectories[0], gt)
        ade = min_ade(pred.trajectories[0], gt)
        print(f"{s.scenario.name}: best mode {k}  "
              f"minADE {ade:.3f} m  minFDE {fde:.3f} m")


if __name__ == "__main__":
    main()
