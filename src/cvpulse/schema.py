"""One JSON codec for the package's frozen dataclasses.

A dataclass is written field by field in definition order, a nested one as
an object and an array as a list.  Reading is strict: unknown and missing
keys are rejected and every error names the dotted key path, such as
``detector.eta_typo``.  A class with a ``kind`` field declares ``KINDS``,
the fields each kind uses; only that kind's fields and the shared ones are
written or read.

Each class calls :func:`check_fields` from ``__post_init__``, so direct
construction and the JSON route check values alike: an ``int`` field takes
an integer (numpy's too, never a bool or a float), a ``float`` field a
finite real number, and either is stored as the plain Python type.
Scenario files and sidecars are parsed with :func:`unique_keys`, which refuses a
repeated key; ``json.loads`` alone keeps its last value.
"""

from __future__ import annotations

import functools
import math
import numbers
import typing
from dataclasses import fields, is_dataclass

import numpy as np


class FieldError(ValueError):
    """A field holds a bad value; ``key`` is its dotted path."""

    def __init__(self, key: str, problem: str) -> None:
        super().__init__(f"invalid {key}: {problem}")
        self.key = key
        self.problem = problem


@functools.cache
def _types(cls) -> dict[str, object]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _names(cls, kind) -> tuple[str, ...]:
    """The fields ``cls`` writes and reads; for a kind-tagged class, those of ``kind``."""
    names = tuple(_types(cls))
    kinds = getattr(cls, "KINDS", None)
    if kinds is None:
        return names
    if not isinstance(kind, str) or kind not in kinds:
        raise FieldError("kind", f"expected one of {', '.join(kinds)}, got {kind!r}")
    tagged = {name for used in kinds.values() for name in used}
    return tuple(n for n in names if n not in tagged or n in kinds[kind])


def unique_keys(pairs) -> dict:
    """``object_pairs_hook`` of ``json.loads``: the object as a dict, refused if a key repeats."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r}")
        data[key] = value
    return data


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def check_fields(obj) -> None:
    """Check every field of a frozen dataclass against its annotated type."""
    cls = type(obj)
    if hasattr(cls, "KINDS"):
        _names(cls, obj.kind)
    for name, hint in _types(cls).items():
        value = getattr(obj, name)
        if type(value) is hint and (hint is not float or math.isfinite(value)):
            continue  # the common case, checked first: configs are built per scan
        if hint is int:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise FieldError(name, f"expected an integer, got {value!r}")
            value = int(value)
        elif hint is float:
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise FieldError(name, f"expected a finite number, got {value!r}")
            value = float(value)
        elif not isinstance(value, hint):
            raise FieldError(name, f"expected {hint.__name__}, got {value!r}")
        object.__setattr__(obj, name, value)


def to_dict(obj) -> dict:
    """JSON-ready dict of a dataclass instance."""
    out = {}
    for name in _names(type(obj), getattr(obj, "kind", None)):
        value = getattr(obj, name)
        if is_dataclass(value):
            value = to_dict(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        out[name] = value
    return out


def from_dict(cls, data, path: str = ""):
    """Build ``cls`` from a dict laid out as :func:`to_dict` writes it.

    ``path`` is the key path of ``data`` inside the document, for messages.
    """
    if not isinstance(data, dict):
        raise FieldError(path or "document", f"expected an object, got {data!r}")
    try:
        names = _names(cls, data.get("kind"))
    except FieldError as exc:
        raise FieldError(_join(path, exc.key), exc.problem) from None
    for key in data:
        if key not in names:
            raise ValueError(f"unknown key {_join(path, key)!r}; allowed: {', '.join(names)}")
    for name in names:
        if name not in data:
            raise ValueError(f"missing key {_join(path, name)!r}")
    kwargs = dict(data)
    for name, hint in _types(cls).items():
        if is_dataclass(hint) and name in kwargs:
            kwargs[name] = from_dict(hint, kwargs[name], _join(path, name))
    try:
        return cls(**kwargs)
    except FieldError as exc:
        raise FieldError(_join(path, exc.key), exc.problem) from None
    except ValueError as exc:
        if not path:
            raise
        raise FieldError(path, str(exc)) from None
