"""The one JSON layout shared by every report dataclass."""

from __future__ import annotations

import dataclasses
from enum import Enum
from fractions import Fraction


class Report:
    """Base of the report dataclasses: `to_json_dict` returns every field in
    declaration order, keyed by its name.  Values convert recursively: an
    enum to its value, a tuple to a list, a Fraction to a float; None,
    bools, ints, floats and strings stay."""

    def to_json_dict(self) -> dict:
        return {f.name: _json(getattr(self, f.name)) for f in dataclasses.fields(self)}


def _json(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if isinstance(value, Fraction):
        return float(value)
    return value
