"""Loss, optimizer, and training-loop tests with hand-worked oracles."""

import contextlib
from types import SimpleNamespace

import numpy as np
import pytest

from laneformer import training
from laneformer.autodiff import (
    ParameterRegistry,
    Tensor,
    add,
    backpropagate,
    grad_check,
    multiply,
    no_grad,
    reduce_sum,
    scale,
)
from laneformer.metrics import min_fde
from laneformer.model import (
    ModelConfig,
    ModelOutput,
    init_model,
    model_forward,
    prepare_sample,
    stack_samples,
)
from laneformer.synth import TEMPLATES, GeneratorConfig, generate_scenario
from laneformer.training import (
    AdamOptimizer,
    LossConfig,
    TrainingConfig,
    TrainingDiverged,
    batch_loss,
    config_hash,
    learning_rate,
    run_manifest,
    save_curves,
    scenario_loss,
    train,
    train_epoch,
)

from test_autodiff import _assert_one_backward_per_parent
from test_model import _cfg, _scene, _tape_nodes, _toy_cfg


def test_select_best_mode_endpoint_and_ties():
    # scenario_loss trains the mode minFDE scores: min_fde's index
    gt = np.zeros((3, 2))
    modes = np.zeros((3, 3, 2))
    modes[0, -1] = (2.0, 0.0)
    modes[1, -1] = (1.0, 0.0)
    modes[2, -1] = (3.0, 0.0)
    assert min_fde(modes, gt)[1] == 1
    modes[2, -1] = (1.0, 0.0)     # tie with mode 1: lower index wins
    assert min_fde(modes, gt)[1] == 1
    modes[0, -1] = (0.0, 1.0)
    modes[1, -1] = (1.0, 0.0)     # tie with mode 0 at distance 1
    assert min_fde(modes, gt)[1] == 0


def _hand_loss(best_errors, confidences, best, **cfg):
    """scenario_loss on hand-built outputs: per target, mode `best` misses the
    ground truth by `best_errors` (N, T_f, 2) and every other mode by 10 m
    more in x, so the best mode is `best`."""
    best_errors = np.asarray(best_errors, dtype=float)
    confidences = np.asarray(confidences, dtype=float)
    n, k = confidences.shape
    gt = np.random.default_rng(0).normal(size=best_errors.shape)
    paths = np.repeat((gt + best_errors + (10.0, 0.0))[:, None], k, axis=1)
    paths[np.arange(n), best] = gt + best_errors
    out = ModelOutput(paths=Tensor(paths, requires_grad=True), scores=Tensor(confidences),
                      confidences=Tensor(confidences, requires_grad=True),
                      target_ids=list(range(n)))
    sample = SimpleNamespace(ground_truth=gt, scenario=SimpleNamespace(name="hand"))
    return scenario_loss(out, sample, LossConfig(**cfg))


def test_classification_hinge_oracle():
    exact = np.zeros((1, 3, 2))
    # one non-best mode: max(0, 0.7 + 0.2 - 0.8) = 0.1, / (1 * 1)
    loss = _hand_loss(exact, [[0.8, 0.7]], [0], epsilon=0.2)
    assert abs(loss.cls.item() - 0.1) < 1e-12
    assert loss.reg.item() == 0.0 and loss.goal.item() == 0.0
    assert loss.total.item() == loss.cls.item()
    # margin satisfied: exactly zero
    assert _hand_loss(exact, [[0.9, 0.1]], [0], epsilon=0.2).cls.item() == 0.0
    # three modes, best in the middle: (max(0,.4+.2-.5) + max(0,.1+.2-.5)) / 2
    loss3 = _hand_loss(exact, [[0.4, 0.5, 0.1]], [1], epsilon=0.2)
    assert abs(loss3.cls.item() - 0.05) < 1e-12


def test_classification_needs_two_modes():
    with pytest.raises(ValueError, match="single mode"):
        _hand_loss(np.zeros((1, 3, 2)), [[1.0]], [0])


def test_huber_values_inside_and_outside_delta():
    # residual 0.5 -> 0.5 * 0.25 = 0.125; residual 2 -> 1 * (2 - 0.5) = 1.5
    loss = _hand_loss([[[0.5, 0.0], [2.0, 0.0]]], [[0.6, 0.4]], [0], huber_delta=1.0)
    # sum = 0.125 + 1.5, normalized by N * T = 1 * 2
    assert abs(loss.reg.item() - (0.125 + 1.5) / 2.0) < 1e-12
    assert abs(loss.goal.item() - 1.5) < 1e-12


def test_goal_loss_uses_only_the_endpoint():
    loss = _hand_loss([[[9.0, 9.0], [5.0, 5.0], [0.3, 0.4]]], [[0.2, 0.8]], [1],
                      huber_delta=1.0)
    # per-coordinate Huber of (0.3, 0.4): 0.5*0.09 + 0.5*0.16 = 0.125
    assert abs(loss.goal.item() - 0.125) < 1e-12


def test_regression_normalizes_by_agents_and_steps():
    loss = _hand_loss(np.full((2, 4, 2), 0.5), [[0.6, 0.4], [0.3, 0.7]], [0, 1],
                      huber_delta=1.0)
    # every coordinate contributes 0.125; 16 coords over N*T = 8
    assert abs(loss.reg.item() - 16 * 0.125 / 8.0) < 1e-12


def test_scenario_loss_is_one_node_over_paths_and_confidences():
    loss = _hand_loss(np.full((2, 3, 2), 0.5), [[0.6, 0.4], [0.3, 0.7]], [0, 1])
    assert len(loss.total._parents) == 2
    for term in (loss.reg, loss.cls, loss.goal):
        assert term._parents == () and not term.requires_grad
    with pytest.raises(ValueError, match="huber_delta must be finite and above 0"):
        _hand_loss(np.zeros((1, 3, 2)), [[0.6, 0.4]], [0], huber_delta=0.0)


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


def _loss_of(out, sample, cfg):
    """scenario_loss's total as an op over (paths, confidences)."""
    return lambda p, c: scenario_loss(ModelOutput(paths=p, scores=out.scores, confidences=c,
                                                  target_ids=out.target_ids), sample, cfg).total


def test_scenario_loss_tapes_one_vjp_per_differentiable_operand():
    # with constant paths or constant confidences, the other operand gets
    # the gradient it gets when both are differentiable
    out, sample, cfg = _multi_target_case()
    args = tuple(Tensor(a.data.copy(), requires_grad=True) for a in (out.paths, out.confidences))
    _assert_one_backward_per_parent({"scenario_loss": (_loss_of(out, sample, cfg), args)})


def test_scenario_loss_records_no_tape_under_no_grad():
    out, sample, cfg = _multi_target_case()
    taped = scenario_loss(out, sample, cfg)
    with no_grad():
        plain = scenario_loss(out, sample, cfg)
    assert plain.total._parents == () and plain.total._backward is None
    assert not plain.total.requires_grad
    assert plain.values() == taped.values()


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


def _per_scene_replay(params, samples):
    """batch_loss's per-scene graph: each scene's forward and scenario_loss,
    the terms joined by an add chain in sample order and scaled by 1/B."""
    parts = [scenario_loss(model_forward(params, s), s) for s in samples]

    def mean(name):
        total = getattr(parts[0], name)
        for p in parts[1:]:
            total = add(total, getattr(p, name))
        return scale(total, 1.0 / len(parts))

    return {name: mean(name) for name in ("total", "reg", "cls", "goal")}


def _gradients(params):
    return {n: None if t.grad is None else t.grad.copy() for n, t in params.registry.items()}


def _assert_batch_loss_is_the_replay(params, samples):
    params.registry.zero_grad()
    want = _per_scene_replay(params, samples)
    backpropagate(want["total"])
    want_grads = _gradients(params)
    params.registry.zero_grad()
    got = batch_loss(params, samples)
    backpropagate(got.total)
    for name, term in want.items():
        assert np.array_equal(getattr(got, name).data, term.data), name
    got_grads = _gradients(params)
    assert [n for n in want_grads if (want_grads[n] is None) != (got_grads[n] is None)] == []
    assert [n for n in want_grads if want_grads[n] is not None
            and not np.array_equal(want_grads[n], got_grads[n])] == []


@pytest.mark.parametrize("config", ["toy", "default", "one_head", "two_targets"])
def test_stacked_batch_loss_equals_the_per_scene_replay(config):
    # every scene of a generated dataset shares its shapes, so these batches stack;
    # the toy config takes every B from 1 to 8 on each template, the default
    # config two per template, between them 1 to 8, at 1 to 8 agents. With one
    # head each bias coefficient is one value per scene, which numpy would
    # sum pairwise over eight scenes; with two targets the decoder's weight
    # gradients sum each scene's targets before the scenes
    cfg = ModelConfig() if config == "default" else _toy_cfg(heads=1 if config == "one_head" else 2)
    for i, template in enumerate(TEMPLATES):
        sizes = {"toy": range(1, 9), "default": (i + 1, 8 - i)}.get(config, (3, 8))
        agents = 8 - i if config == "default" else 3
        params = init_model(cfg, seed=i)
        gen = GeneratorConfig(seed=i, template=template, agent_count=agents)
        raw = [generate_scenario(gen, j) for j in range(max(sizes))]
        if config == "two_targets":
            for scene in raw:
                scene.target_ids = [2, 0]
        pool = [prepare_sample(scene, cfg) for scene in raw]
        assert stack_samples(pool) is not None, template
        for b in sizes:
            _assert_batch_loss_is_the_replay(params, pool[:b])


def test_mixed_shapes_run_scene_by_scene():
    cfg = _toy_cfg()
    params = init_model(cfg, seed=4)
    samples = [prepare_sample(generate_scenario(
        GeneratorConfig(seed=4, template=t, agent_count=3), j), cfg)
        for j, t in enumerate(("straight", "merge", "straight", "merge"))]
    assert stack_samples(samples) is None
    assert stack_samples(samples[::2]) is not None
    _assert_batch_loss_is_the_replay(params, samples)
    # four per-scene graphs of 34 nodes, then the one objective node over all four
    assert _tape_nodes(batch_loss(params, samples).total) == 4 * 34 + 1


def _spy_forwards(monkeypatch):
    """Record every output batch_loss's forwards return, in call order."""
    outputs = []

    def forward(params, sample):
        outputs.append(model_forward(params, sample))
        return outputs[-1]

    monkeypatch.setattr(training, "model_forward", forward)
    return outputs


@pytest.mark.parametrize("batch", ["one_scene", "stack_of_3", "mixed"])
def test_the_loss_node_takes_every_output_in_sample_order(batch, monkeypatch):
    cfg = _toy_cfg()
    params = init_model(cfg, seed=4)
    templates = {"one_scene": ["fork"], "stack_of_3": ["fork"] * 3,
                 "mixed": ["straight", "merge", "straight", "merge"]}[batch]
    samples = [prepare_sample(generate_scenario(
        GeneratorConfig(seed=4, template=t, agent_count=3), j), cfg)
        for j, t in enumerate(templates)]
    outputs = _spy_forwards(monkeypatch)
    loss = batch_loss(params, samples)
    assert len(outputs) == (len(samples) if batch == "mixed" else 1)
    operands = [t for out in outputs for t in (out.paths, out.confidences)]
    assert len(loss.total._parents) == len(operands)
    assert all(a is b for a, b in zip(loss.total._parents, operands))


def test_missing_ground_truth_is_named_before_any_forward(monkeypatch):
    cfg = _cfg()
    raws = [_scene(), _scene(with_gt=False), _scene(with_gt=False)]
    for i, raw in enumerate(raws):
        raw.name = f"scene{i}"
    samples = [prepare_sample(raw, cfg) for raw in raws]
    outputs = _spy_forwards(monkeypatch)
    # mixed, shape-sharing and single-scene batches whose first scene without it is scene1
    for batch in (samples, samples[1:], samples[1:2]):
        with pytest.raises(ValueError, match="scenario 'scene1' has no ground truth"):
            batch_loss(init_model(cfg, seed=0), batch)
    assert outputs == []


def test_a_stack_gives_every_scene_its_own_outputs():
    cfg = _toy_cfg()
    params = init_model(cfg, seed=5)
    gen = GeneratorConfig(seed=5, template="fork", agent_count=4)
    samples = [prepare_sample(generate_scenario(gen, j), cfg) for j in range(3)]
    stacked = stack_samples(samples)
    for taped in (True, False):
        with contextlib.nullcontext() if taped else no_grad():
            out = model_forward(params, stacked)
            singles = [model_forward(params, s) for s in samples]
        assert out.target_ids == [s.target_ids for s in samples]
        for b, single in enumerate(singles):
            for field in ("paths", "scores", "confidences"):
                assert np.array_equal(getattr(out, field).data[b], getattr(single, field).data)


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
