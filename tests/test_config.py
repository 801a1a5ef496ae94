"""The one field rule: every config field's type and range, read from key=value
files and from model manifests, fails as a ConfigError naming the file and the field."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laneformer import cli
from laneformer.cli import EXIT_CONFIG_ERROR, ConfigError, main
from laneformer.config import Rule, rules
from laneformer.model import ModelConfig
from laneformer.synth import GeneratorConfig
from laneformer.training import LossConfig, TrainingConfig

# (config class, or None for generate's count, and field) for every key a config file sets
KEYS = [(cls, f.name) for cls in (ModelConfig, LossConfig, TrainingConfig, GeneratorConfig)
        for f in dataclasses.fields(cls) if f.name != "loss"] + [(None, "count")]

VALUES = st.one_of(
    st.sampled_from(["", "none", "None", "true", "False", "yes", "0", "-1", "1", "2", "nan",
                     "inf", "-inf", "1e400", "1.5", "merge", "dashed", "solid, none"]),
    st.integers(-3, 40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(st.characters(blacklist_characters="#\r\n", blacklist_categories=("Cs",)),
            max_size=6),
)


UNPARSED = object()


def _hand_parse(cls, name, text):
    """The value `text` spells for a field, parsed by its default's type alone."""
    text = text.strip()
    default = 16 if cls is None else getattr(cls(), name)
    if name == "max_steps" and text.lower() in ("", "none"):
        return None
    if isinstance(default, bool):
        return {"true": True, "yes": True, "1": True,
                "false": False, "no": False, "0": False}[text.lower()]
    if isinstance(default, tuple):
        return tuple(part.strip() for part in text.split(","))
    if isinstance(default, float):
        return float(text)
    if isinstance(default, str):
        return text
    return int(text)


def _built(cls, name, path):
    """The value of `name` that cmd_train's or cmd_generate's overlay builds."""
    conf = cli._ConfigFile(path)
    if cls is None:
        return conf.parsed({"count": cli._COUNT})["count"]
    return getattr(conf.overlay(cls()), name)


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(KEYS), text=VALUES)
def test_one_line_config_builds_the_hand_parsed_value_or_names_file_and_field(
        tmp_path_factory, key, text):
    cls, name = key
    path = str(tmp_path_factory.getbasetemp() / "one.cfg")
    with open(path, "w") as fh:
        fh.write(f"{name}={text}\n")
    try:
        expected = _hand_parse(cls, name, text)
    except (KeyError, ValueError):
        expected = UNPARSED
    try:
        value = _built(cls, name, path)
    except ConfigError as e:
        # heads=3 breaks the cross-field rule "d_model must split evenly into heads"
        assert str(e).startswith(f"{path}: ") and name in str(e)[len(path):], str(e)
        return
    assert expected is not UNPARSED, f"{text!r} built {value!r}"
    assert value == expected and type(value) is type(expected), (value, expected)


def _wrong_values(kind):
    """JSON values that are not of a ModelConfig field's kind."""
    wrong = [st.none(), st.text(max_size=4), st.floats(),
             st.lists(st.integers(0, 3), min_size=1, max_size=3)]
    return st.one_of(*wrong, *([] if kind is bool else [st.booleans()]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(rules(ModelConfig))))
def test_manifest_value_of_a_wrong_type_names_the_manifest_and_field(data, name):
    raw = dataclasses.asdict(ModelConfig())
    raw["connection_types"] = list(raw["connection_types"])
    raw[name] = data.draw(_wrong_values(rules(ModelConfig)[name].kind))
    where = "run/manifest.json ModelConfig"
    with pytest.raises(ConfigError) as err:
        cli._manifest_model_config(raw, where)
    assert str(err.value).startswith(f"{where}: {name} must be "), str(err.value)


def test_manifest_lists_and_ints_build_the_config_they_spell():
    raw = dataclasses.asdict(ModelConfig(connection_types=("solid",), layers=1))
    raw["connection_types"] = ["solid"]
    assert cli._manifest_model_config(raw, "m") == ModelConfig(connection_types=("solid",),
                                                               layers=1)


@pytest.mark.parametrize("kwargs, message", [
    (dict(modes=True), "modes must be an integer, got True"),
    (dict(d_model=8.0), "d_model must be an integer, got 8.0"),
    (dict(layers=0), "layers must be at least 1, got 0"),
    (dict(t_history=0), "t_history must be at least 1, got 0"),
    (dict(decoder_hidden=0), "decoder_hidden must be at least 1, got 0"),
    (dict(connection_types=("solid", "foo")),
     "connection_types must be a list of solid, dashed, double_solid, none; got 'foo'"),
    (dict(use_local_attention=1), "use_local_attention must be a boolean, got 1"),
])
def test_model_config_names_the_field_that_breaks_its_rule(kwargs, message):
    with pytest.raises(ValueError) as err:
        ModelConfig(**kwargs)
    assert str(err.value) == message


def test_values_of_a_compatible_kind_build_as_they_are():
    # an int where a float is declared, numpy scalars and a list for a tuple
    assert LossConfig(huber_delta=2).huber_delta == 2
    assert type(GeneratorConfig(lane_length=40).lane_length) is int
    cfg = ModelConfig(modes=np.int64(3), use_local_attention=np.False_,
                      connection_types=["solid"])
    assert (cfg.modes, cfg.use_local_attention, cfg.connection_types) == (3, False, ["solid"])
    assert LossConfig(epsilon=np.float32(0.5)).epsilon == 0.5
    with pytest.raises(ValueError, match="lane_length must be a number, got True"):
        GeneratorConfig(lane_length=True)
    with pytest.raises(ValueError, match="modes must be an integer, got np.True_"):
        ModelConfig(modes=np.True_)


def test_rule_parse_spellings():
    flag = Rule(bool)
    assert [flag.parse("f", t) for t in ("TRUE", "yes", "1", "false", "No", "0")] == [
        True, True, True, False, False, False]
    assert Rule(int, optional=True, at_least=1).parse("m", " None ") is None
    assert Rule(int, optional=True, at_least=1).parse("m", "") is None
    with pytest.raises(ValueError, match="n must be an integer, got ''"):
        Rule(int).parse("n", "")
    with pytest.raises(ValueError, match="x must be finite and above 0, got inf"):
        Rule(float, above=0).parse("x", "1e400")
    assert math.isclose(Rule(float, at_least=0).parse("x", "2.5"), 2.5)


@pytest.mark.parametrize("command, text, named", [
    ("train", "modes=", "modes"),
    ("train", "d_model=none", "d_model"),
    ("train", "decoder_hidden=0", "decoder_hidden"),
    ("train", "connection_types=foo", "connection_types"),
    ("train", "layers=0", "layers"),
    ("train", "layers=-1", "layers"),
    ("train", "max_steps=0", "max_steps"),
    ("generate", "agent_count=", "agent_count"),
    ("generate", "count=none", "count"),
    ("generate", "template=roundabout", "template"),
])
def test_bad_setting_exits_2_naming_the_file_and_the_field(tmp_path, capsys, command, text,
                                                          named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "train":
        argv += ["--data", str(tmp_path / "no-data")]
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: {named} must be ") and "Traceback" not in err
    assert not out.exists()


def test_bad_flag_is_named_as_the_flag_not_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("modes=3\n")
    assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "no-data"),
                 "--out", str(tmp_path / "out"), "--epochs", "0"]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == "config error: --epochs must be at least 1, got 0\n"
