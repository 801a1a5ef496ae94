"""Loss, optimizer, and training-loop tests with hand-worked oracles."""

import numpy as np
import pytest

from laneformer import training
from laneformer.autodiff import (
    ParameterRegistry,
    Tensor,
    backpropagate,
    grad_check,
    multiply,
    reduce_sum,
)
from laneformer.model import ModelConfig, ModelOutput, init_model, model_forward, prepare_sample
from laneformer.training import (
    AdamOptimizer,
    LossConfig,
    TrainingConfig,
    TrainingDiverged,
    batch_loss,
    classification_loss,
    config_hash,
    goal_loss,
    learning_rate,
    regression_loss,
    run_manifest,
    save_curves,
    scenario_loss,
    select_best_mode,
    train,
    train_epoch,
)

from test_model import _cfg, _scene


def test_select_best_mode_endpoint_and_ties():
    gt = np.zeros((3, 2))
    modes = np.zeros((3, 3, 2))
    modes[0, -1] = (2.0, 0.0)
    modes[1, -1] = (1.0, 0.0)
    modes[2, -1] = (3.0, 0.0)
    assert select_best_mode(modes, gt) == 1
    modes[2, -1] = (1.0, 0.0)     # tie with mode 1: lower index wins
    assert select_best_mode(modes, gt) == 1
    modes[0, -1] = (0.0, 1.0)
    modes[1, -1] = (1.0, 0.0)     # tie with mode 0 at distance 1
    assert select_best_mode(modes, gt) == 0


def test_classification_hinge_oracle():
    conf = Tensor(np.array([[0.8, 0.7]]))
    # one non-best mode: max(0, 0.7 + 0.2 - 0.8) = 0.1, / (1 * 1)
    loss = classification_loss(conf, [0], epsilon=0.2)
    assert abs(loss.item() - 0.1) < 1e-12
    # margin satisfied: exactly zero
    assert classification_loss(Tensor([[0.9, 0.1]]), [0], 0.2).item() == 0.0
    # three modes, best in the middle: (max(0,.4+.2-.5) + max(0,.1+.2-.5)) / 2
    loss3 = classification_loss(Tensor([[0.4, 0.5, 0.1]]), [1], 0.2)
    assert abs(loss3.item() - 0.05) < 1e-12


def test_classification_needs_two_modes():
    with pytest.raises(ValueError, match="single mode"):
        classification_loss(Tensor([[1.0]]), [0], 0.2)


def test_huber_values_inside_and_outside_delta():
    # residual 0.5 -> 0.5 * 0.25 = 0.125; residual 2 -> 1 * (2 - 0.5) = 1.5
    errors = Tensor(np.array([[[0.5, 0.0], [2.0, 0.0]]]))
    loss = regression_loss(errors, 1.0)
    # sum = 0.125 + 1.5, normalized by N * T = 1 * 2
    assert abs(loss.item() - (0.125 + 1.5) / 2.0) < 1e-12


def test_goal_loss_uses_only_the_endpoint():
    errors = Tensor(np.array([[[9.0, 9.0], [5.0, 5.0], [0.3, 0.4]]]))
    loss = goal_loss(errors, 1.0)
    # per-coordinate Huber of (0.3, 0.4): 0.5*0.09 + 0.5*0.16 = 0.125
    assert abs(loss.item() - 0.125) < 1e-12


def test_regression_normalizes_by_agents_and_steps():
    errors = Tensor(np.full((2, 4, 2), 0.5))
    loss = regression_loss(errors, 1.0)
    # every coordinate contributes 0.125; 16 coords over N*T = 8
    assert abs(loss.item() - 16 * 0.125 / 8.0) < 1e-12


def test_scenario_loss_composes_weighted_terms():
    cfg = _cfg()
    params = init_model(cfg, seed=0)
    sample = prepare_sample(_scene(), cfg)
    out = model_forward(params, sample)

    plain = scenario_loss(out, sample, LossConfig())
    assert abs(plain.total.item()
               - (plain.reg.item() + plain.cls.item() + plain.goal.item())) < 1e-12

    weighted = scenario_loss(out, sample, LossConfig(weight_reg=2.0, weight_cls=0.5,
                                                     weight_goal=3.0))
    expect = 2.0 * plain.reg.item() + 0.5 * plain.cls.item() + 3.0 * plain.goal.item()
    assert abs(weighted.total.item() - expect) < 1e-12


def _multi_target_case():
    # three targets, six modes; delta 0.5 puts errors on both sides of the Huber kink
    cfg = _cfg(modes=6)
    params = init_model(cfg, seed=5)
    raw = _scene(n_extra_agents=2)
    raw.target_ids = [0, 1, 2]
    sample = prepare_sample(raw, cfg)
    return model_forward(params, sample), sample, LossConfig(
        epsilon=0.1, huber_delta=0.5, weight_reg=1.5, weight_cls=0.7, weight_goal=2.0)


def _huber(e, delta):
    return np.where(np.abs(e) <= delta, 0.5 * e * e, delta * (np.abs(e) - 0.5 * delta))


def test_multi_target_scenario_loss_matches_numpy():
    out, sample, cfg = _multi_target_case()
    paths, conf = out.paths.data, out.confidences.data
    n, k, t_f, _ = paths.shape
    assert (n, k) == (3, 6)
    gt = sample.ground_truth[[0, 1, 2]]
    best = np.argmin(np.linalg.norm(paths[:, :, -1] - gt[:, None, -1], axis=-1), axis=1)
    errors = paths[np.arange(n), best] - gt
    assert (np.abs(errors) <= cfg.huber_delta).any() and (np.abs(errors) > cfg.huber_delta).any()
    reg = _huber(errors, cfg.huber_delta).sum() / (n * t_f)
    goal = _huber(errors[:, -1], cfg.huber_delta).sum() / n
    margins = np.maximum(0.0, conf + cfg.epsilon - conf[np.arange(n), best][:, None])
    margins[np.arange(n), best] = 0.0
    cls = margins.sum() / (n * (k - 1))
    total = cfg.weight_reg * reg + cfg.weight_cls * cls + cfg.weight_goal * goal

    got = scenario_loss(out, sample, cfg)
    for name, want in (("reg", reg), ("cls", cls), ("goal", goal), ("total", total)):
        value = getattr(got, name).item()
        assert abs(value - want) <= 1e-12 * abs(want), (name, value, want)


def test_multi_target_scenario_loss_gradients_match_finite_differences():
    out, sample, cfg = _multi_target_case()
    paths, conf = Tensor(out.paths.data.copy()), Tensor(out.confidences.data.copy())

    def loss(p, c):
        return scenario_loss(ModelOutput(paths=p, scores=out.scores, confidences=c,
                                         target_ids=out.target_ids), sample, cfg).total

    report = grad_check(loss, [paths, conf])
    assert report.passed, report.errors


def test_scenario_loss_requires_ground_truth():
    cfg = _cfg()
    params = init_model(cfg, seed=0)
    sample = prepare_sample(_scene(with_gt=False), cfg)
    out = model_forward(params, sample)
    with pytest.raises(ValueError, match="no ground truth"):
        scenario_loss(out, sample)


def test_batch_loss_is_mean_of_scenario_losses():
    cfg = _cfg()
    params = init_model(cfg, seed=1)
    s1 = prepare_sample(_scene(), cfg)
    raw2 = _scene(n_extra_agents=2)
    s2 = prepare_sample(raw2, cfg)
    l1 = scenario_loss(model_forward(params, s1), s1).total.item()
    l2 = scenario_loss(model_forward(params, s2), s2).total.item()
    both = batch_loss(params, [s1, s2]).total.item()
    assert abs(both - 0.5 * (l1 + l2)) < 1e-12


def test_batch_loss_backward_reaches_parameters():
    cfg = _cfg()
    params = init_model(cfg, seed=2)
    sample = prepare_sample(_scene(), cfg)
    params.registry.zero_grad()
    backpropagate(batch_loss(params, [sample]).total)
    with_grad = sum(1 for _, t in params.registry.items() if t.grad is not None)
    assert with_grad > 0.9 * len(params.registry)


def test_adam_first_step_oracle():
    # single parameter, constant gradient g: first update is
    # -lr * g / (|g| + eps * sqrt(1 - beta2)) up to bias correction, which
    # for step 1 reduces to m_hat = g, v_hat = g^2
    reg = ParameterRegistry()
    theta = reg.add("theta", Tensor(np.array([[2.0]])))
    opt = AdamOptimizer(reg, lr=0.1)
    theta.grad = np.array([[0.5]])
    opt.step()
    expect = 2.0 - 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
    assert abs(theta.data[0, 0] - expect) < 1e-12

    # second identical step keeps moving the same direction
    theta.grad = np.array([[0.5]])
    opt.step()
    assert theta.data[0, 0] < expect


def test_adam_minimizes_quadratic():
    reg = ParameterRegistry()
    x = reg.add("x", Tensor(np.array([[4.0, -3.0]])))
    opt = AdamOptimizer(reg, lr=0.05)
    for _ in range(400):
        reg.zero_grad()
        loss = reduce_sum(multiply(x, x))
        backpropagate(loss)
        opt.step()
    assert np.abs(x.data).max() < 0.05


def test_adam_matches_out_of_place_formula_bit_for_bit():
    rng = np.random.default_rng(0)
    shapes = {"a": (3, 4), "b": (1, 5), "c": (2, 3, 2), "d": (7,)}
    reg = ParameterRegistry()
    for name, shape in shapes.items():
        reg.add(name, Tensor(rng.normal(size=shape)))
    opt = AdamOptimizer(reg, lr=1e-2)
    b1, b2, eps = opt.beta1, opt.beta2, opt.eps
    ref = {n: t.data.copy() for n, t in reg.items()}
    m = {n: np.zeros(shape) for n, shape in shapes.items()}
    v = {n: np.zeros(shape) for n, shape in shapes.items()}
    for step in range(1, 51):
        opt.lr = 1e-2 if step <= 25 else 3e-3
        for name, t in reg.items():
            # "d" has no gradient every third step, so Adam skips it
            skip = name == "d" and step % 3 == 0
            t.grad = None if skip else rng.normal(scale=10.0 ** rng.integers(-4, 3),
                                                  size=t.data.shape)
        for name, t in reg.items():
            g = t.grad
            if g is None:
                continue
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            ref[name] = ref[name] - opt.lr * (m[name] / (1.0 - b1 ** step)) / (
                np.sqrt(v[name] / (1.0 - b2 ** step)) + eps)
        opt.step()
        for name, t in reg.items():
            assert np.array_equal(t.data, ref[name]), (step, name)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("bad", [np.nan, 1e200])
def test_non_finite_gradient_norm_stops_before_the_step(monkeypatch, bad):
    # the loss stays finite; one gradient entry is NaN, or so large that the
    # squared norm overflows
    cfg = _cfg()
    params = init_model(cfg, seed=5)
    sample = prepare_sample(_scene(), cfg)
    real = training.backpropagate

    def poisoned(loss):
        real(loss)
        params.registry["lane0.ffn.w2"].grad[1, 2] = bad

    monkeypatch.setattr(training, "backpropagate", poisoned)
    before = {n: t.data.copy() for n, t in params.registry.items()}
    opt = AdamOptimizer(params.registry)
    curve = []
    with pytest.raises(TrainingDiverged, match="non-finite loss or gradient at batch 0"):
        train_epoch(params, [[sample]], opt, TrainingConfig(), 0, curve, 0)
    assert opt.step_count == 0 and curve == []
    assert all(np.array_equal(t.data, before[n]) for n, t in params.registry.items())


def test_learning_rate_schedule_boundary():
    cfg = TrainingConfig(lr_init=5e-4, lr_late=1e-4, decay_epoch=45)
    assert learning_rate(cfg, 0) == 5e-4
    assert learning_rate(cfg, 44) == 5e-4
    assert learning_rate(cfg, 45) == 1e-4
    assert learning_rate(cfg, 49) == 1e-4


def test_training_reduces_loss_and_reports():
    cfg = _cfg()
    params = init_model(cfg, seed=3)
    samples = [prepare_sample(_scene(), cfg),
               prepare_sample(_scene(n_extra_agents=2), cfg)]
    tcfg = TrainingConfig(epochs=30, batch_size=2, lr_init=2e-3, seed=0)
    result = train(params, samples, tcfg)
    assert result.steps == 30
    assert len(result.epoch_reports) == 30
    first = result.curve[0]["loss"]
    assert result.final_loss < 0.7 * first
    for row in result.curve:
        assert set(row) == {"step", "epoch", "loss", "reg", "cls", "goal",
                            "lr", "grad_norm"}


def test_training_respects_max_steps():
    cfg = _cfg()
    params = init_model(cfg, seed=4)
    samples = [prepare_sample(_scene(), cfg)]
    result = train(params, samples, TrainingConfig(epochs=50, batch_size=1,
                                                   max_steps=7, seed=0))
    assert result.steps == 7
    assert result.curve[-1]["step"] == 7


def test_divergence_error_names_batch_and_norms():
    cfg = _cfg()
    params = init_model(cfg, seed=5)
    sample = prepare_sample(_scene(), cfg)
    params.registry["agent_embed.w1"].data[:] = np.nan
    with pytest.raises(TrainingDiverged) as err:
        train(params, [sample], TrainingConfig(epochs=1, batch_size=1, seed=0))
    msg = str(err.value)
    assert "batch 0" in msg and "norms" in msg


def test_save_curves_format_and_determinism(tmp_path):
    curve = [
        {"step": 1, "epoch": 0, "loss": 1.5, "reg": 1.0, "cls": 0.25,
         "goal": 0.25, "lr": 5e-4, "grad_norm": 2.0},
        {"step": 2, "epoch": 0, "loss": 1.25, "reg": 0.8, "cls": 0.25,
         "goal": 0.2, "lr": 5e-4, "grad_norm": 1.5},
    ]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save_curves(p1, curve)
    save_curves(p2, curve)
    text = p1.read_text()
    assert text.splitlines()[0] == "step,epoch,loss,reg,cls,goal,lr,grad_norm"
    assert "wall" not in text
    assert p1.read_bytes() == p2.read_bytes()


def test_config_hash_sees_nested_changes():
    a = TrainingConfig()
    b = TrainingConfig(loss=LossConfig(epsilon=0.3))
    c = TrainingConfig()
    assert config_hash(a) != config_hash(b)
    assert config_hash(a) == config_hash(c)
    assert config_hash(a, ModelConfig()) != config_hash(a)

    doc = run_manifest(7, [a, ModelConfig()], extra={"note": "x"})
    assert doc["seed"] == 7 and doc["note"] == "x"
    assert "TrainingConfig" in doc and "ModelConfig" in doc
    assert doc["TrainingConfig"]["loss"]["epsilon"] == 0.2
