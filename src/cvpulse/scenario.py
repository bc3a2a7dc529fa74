"""Declarative scenario files: one JSON document describes a full run.

Every field has a default taken from the reference apparatus, so a scenario
file only states deviations.  Unknown keys are rejected rather than ignored,
since a typo in an efficiency name would otherwise silently change physics.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, is_dataclass, replace
from pathlib import Path

from . import schema
from .gaussian import SourceSpec
from .schema import FieldError, check_fields
from .simulate import DEFAULT_BLOCK_SIZE, DetectorModel, PhaseSchedule, RunConfig

DEFAULT_SEED = 12345
DEFAULT_PULSES = 250_000


@dataclass(frozen=True)
class Scenario:
    """A validated run description plus analysis defaults."""

    config: RunConfig
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self) -> None:
        check_fields(self)
        if self.block_size < 2:
            raise FieldError("block_size", f"must be >= 2, got {self.block_size}")
        if self.block_size > sys.maxsize:  # no schedule holds more pulses
            raise FieldError("block_size", f"must be <= {sys.maxsize}, got {self.block_size}")


def reference_scenario(
    n_pulses: int = DEFAULT_PULSES, seed: int = DEFAULT_SEED
) -> Scenario:
    """Built-in scenario reproducing the reference measurement.

    Its detector has no electronic noise because the reference variances are
    quoted relative to a shot-noise calibration from which the electronic
    background has already been removed; the worst-case floor remains the
    DetectorModel default for sensitivity studies.
    """
    config = RunConfig(
        source=SourceSpec.symmetric_mixed(1.50, 0.94),
        detector=DetectorModel(electronic_noise_var=0.0),
        schedule=PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, n_pulses),
        seed=seed,
    )
    return Scenario(config=config)


def _overlay(base, data):
    """``data`` laid over the dict of dataclass ``base``, section by section.

    A section naming another ``kind`` starts from that kind's defaults.
    """
    if not (is_dataclass(base) and isinstance(data, dict)):
        return data
    kind = data.get("kind")
    if isinstance(kind, str) and kind in getattr(base, "KINDS", ()):
        base = replace(base, kind=kind)
    merged = schema.to_dict(base)
    for key, value in data.items():
        merged[key] = _overlay(getattr(base, key), value) if key in merged else value
    return merged


def scenario_from_dict(
    data: dict,
    seed_override: int | None = None,
    n_pulses_override: int | None = None,
    block_size_override: int | None = None,
) -> Scenario:
    """Lay a scenario dictionary over the reference scenario and apply overrides.

    The run config's fields sit at the top level, next to the scenario's own.
    """
    reference = reference_scenario()
    settings = schema.to_dict(reference)
    del settings["config"]
    # checked here: RunConfig's own check would list only the config's keys
    allowed = [*schema.to_dict(reference.config), *settings]
    for key in data:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r}; allowed: {', '.join(allowed)}")
    config = _overlay(
        reference.config, {k: v for k, v in data.items() if k not in settings}
    )
    settings.update((k, v) for k, v in data.items() if k in settings)
    if seed_override is not None:
        config["seed"] = seed_override
    if n_pulses_override is not None and isinstance(config["schedule"], dict):
        config["schedule"]["n_pulses"] = n_pulses_override
    if block_size_override is not None:
        settings["block_size"] = block_size_override
    return Scenario(config=RunConfig.from_dict(config), **settings)


def load_scenario(path: str | Path, **overrides) -> Scenario:
    """Load and validate a JSON scenario file.

    ``overrides`` are those of :func:`scenario_from_dict`.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except IsADirectoryError:
        raise ValueError(f"{path} is a directory, not a scenario file") from None
    except UnicodeDecodeError as exc:
        byte, offset = exc.object[exc.start], exc.start
        raise ValueError(f"{path}: not UTF-8 text (byte 0x{byte:02x} at offset {offset})") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    return scenario_from_dict(data, **overrides)
