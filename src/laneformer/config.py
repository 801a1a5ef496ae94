"""One rule per config field, checked when a Config is built and read by
key=value parsing. A field's annotation declares its type (int, float, bool,
str, or tuple for a list of strings) and, with `| None`, that it may be
None; `setting` declares its lower bound (`at_least`, or the strict `above`)
or the `choices` a str, or each entry of a tuple, must come from. A
float must be finite and may be given as an int, a tuple as a list, and
numpy scalars count as their Python kinds; a bool is never a number."""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import typing

import numpy as np

__all__ = ["Rule", "Config", "setting", "rules"]

# each kind: its name in messages, and the types that hold it
_KINDS = {int: ("an integer", numbers.Integral), float: ("a number", numbers.Real),
          bool: ("a boolean", (bool, np.bool_)), str: ("a string", str),
          tuple: ("a list of strings", (tuple, list))}
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@dataclasses.dataclass(frozen=True)
class Rule:
    kind: type
    optional: bool = False
    at_least: float | None = None
    above: float | None = None
    choices: tuple | None = None

    def check(self, name: str, value) -> None:
        """Raise a ValueError naming `name` unless `value` meets this rule."""
        if value is None and self.optional:
            return
        if (isinstance(value, _KINDS[bool][1]) != (self.kind is bool)
                or not isinstance(value, _KINDS[self.kind][1])
                or self.kind is tuple and not all(isinstance(v, str) for v in value)):
            raise ValueError(f"{name} must be {self.expected()}, got {value!r}")
        for entry in (value if self.kind is tuple else [value]) if self.choices else []:
            if entry not in self.choices:
                some = "a list of" if self.kind is tuple else "one of"
                raise ValueError(f"{name} must be {some} {', '.join(self.choices)}; "
                                 f"got {entry!r}")
        if not ((self.kind is not float or math.isfinite(value))
                and (self.at_least is None or value >= self.at_least)
                and (self.above is None or value > self.above)):
            bounds = ["finite"] * (self.kind is float) + [
                f"{word} {bound}" for word, bound in (("at least", self.at_least),
                                                      ("above", self.above)) if bound is not None]
            raise ValueError(f"{name} must be {' and '.join(bounds)}, got {value!r}")

    def expected(self) -> str:
        return _KINDS[self.kind][0] + " or none" * self.optional

    def parse(self, name: str, text: str):
        """The checked value that key=value text spells: a boolean as true, yes
        or 1 and false, no or 0 (any case), a list as comma-separated entries,
        and None, where the rule allows it, as an empty value or none."""
        word = text.strip().lower()
        if self.optional and word in ("", "none"):
            return None
        try:
            value = (_BOOLEANS[word] if self.kind is bool else
                     tuple(part.strip() for part in text.split(",")) if self.kind is tuple
                     else self.kind(text))
        except (KeyError, ValueError):
            raise ValueError(f"{name} must be {self.expected()}, got {text!r}") from None
        self.check(name, value)
        return value


def setting(default, **bounds):
    """A dataclass field with `default` and the Rule bounds or choices in `bounds`."""
    return dataclasses.field(default=default, metadata=bounds)


@functools.cache
def rules(cls) -> dict:
    """Field name to Rule for every scalar field of config class `cls`; a field
    holding another config is left to that config's own check."""
    hints, found = typing.get_type_hints(cls), {}
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name])
        kind = args[0] if type(None) in args else hints[f.name]
        if kind in _KINDS:
            found[f.name] = Rule(kind, type(None) in args, **f.metadata)
    return found


class Config:
    """Base of the config dataclasses: building one raises a ValueError naming
    the first field that breaks its Rule."""

    def __post_init__(self):
        for name, rule in rules(type(self)).items():
            rule.check(name, getattr(self, name))
