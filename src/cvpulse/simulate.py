"""Per-pulse Monte Carlo of the homodyne measurement chain.

Every laser pulse yields one quadrature sample.  The chain is: entangled-pair
source, relative phase on the second arm, recombination on a beamsplitter,
propagation and detection losses on the bright output port, then an additive
electronic-noise contribution in the detector.  Sampling is chunked and
deterministically seeded so that runs are bit-reproducible regardless of how
chunks are scheduled.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np
from numpy.typing import NDArray

from .gaussian import Matrix, SourceSpec
from . import schema
from .schema import FieldError, check_fields

#: Pulses handled per RNG stream; part of the reproducibility contract.
DEFAULT_CHUNK_SIZE = 65536

#: Sampling contract of the records this version writes: 1 drew each pulse's
#: standard deviation from its own cos and sin, 2 from per-stream fringe
#: coefficients and per-chunk phasors (equal to rounding, not bit for bit),
#: both with PCG64 normals; 3 draws contract 2's deviations with SFC64 normals;
#: 4 makes contract 3's draws, with coefficients from closed-form scalar
#: arithmetic and no BLAS product (equal to rounding, not bit for bit); 5 makes
#: contract 4's draws and bytes, and its sidecar binds the record by
#: ``records_sha256``, the SHA-256 of the config's canonical JSON and then of
#: every byte of the CSV; 6 adds ``values_sha256``, the SHA-256 of the config's
#: canonical JSON and then of every drawn value as a little-endian float64, in
#: pulse order; 7 drops the detector's raw-unit ``lo_photons_per_pulse`` from
#: the config, and both digests start from the canonical JSON of
#: ``{"chunk_size": ..., "config": ...}``.  Sidecars of versions 1 to 4 carry
#: neither digest, and those of version 5 no ``values_sha256``; the key those of
#: versions 1 to 6 carry is dropped as they are read.
FORMAT_VERSION = 7
_READABLE_VERSIONS = (1, 2, 3, 4, 5, 6, 7)
# the first version to carry each digest
_DIGESTS = (("records_sha256", 5), ("values_sha256", 6))

#: First line of every records CSV, and the ``format`` its sidecar names.
HEADER = "index,lo_phase_rad,value"

#: Pulses per variance block when a caller or a scenario names none.
DEFAULT_BLOCK_SIZE = 2500

#: Detector noise floor 11 dB below the shot-noise level.
DEFAULT_ELECTRONIC_NOISE_VAR = 10.0 ** -1.1

# RNG stream tag of the fast sampler; tag 1 is reserved for the tests'
# brute-force joint sampler.
_STREAM_FAST = 0

_BLOCKED_ARMS = ("none", "a", "b", "signal")

# Entries per schedule memo: a report's three scans share one ramp, as do a sweep's reports
_MEMO_SIZE = 8

#: Most threads that draw a run's scans; each holds two chunk-long rows.
_DRAW_THREADS = 4

#: Largest |phase| of a schedule: up to it, 2 phi, a ramp's span and twice the span are finite.
_MAX_PHASE = sys.float_info.max / 4.0


@dataclass(frozen=True)
class DetectorModel:
    """Efficiencies and noise of the pulsed homodyne detector.

    Defaults describe the reference apparatus: transmission from source to
    detector, homodyne mode overlap (entering squared), photodiode quantum
    efficiency, and an electronic noise floor 11 dB below shot noise.  Every
    variance is in shot-noise units, so the local-oscillator energy that
    calibrates them is not modelled.
    """

    eta_transmission: float = 0.93
    eta_homodyne: float = 0.88
    eta_detector: float = 0.945
    electronic_noise_var: float = DEFAULT_ELECTRONIC_NOISE_VAR

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("eta_transmission", "eta_homodyne", "eta_detector"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise FieldError(name, f"must lie in (0, 1], got {value}")
        if self.electronic_noise_var < 0.0:
            raise FieldError(
                "electronic_noise_var", f"must be >= 0, got {self.electronic_noise_var}"
            )

    @property
    def efficiency(self) -> float:
        """Overall detection efficiency: transmission * overlap^2 * quantum efficiency."""
        return self.eta_transmission * self.eta_homodyne**2 * self.eta_detector


@dataclass(frozen=True)
class PhaseSchedule:
    """Per-pulse local-oscillator phase program.

    Either a constant phase or a linear ramp; the ramp excludes its endpoint,
    so ``linear_ramp(0, 4 pi, n)`` covers [0, 4 pi) uniformly.
    """

    KINDS: ClassVar[dict[str, tuple[str, ...]]] = {
        "constant": ("phi",),
        "linear_ramp": ("phi_start", "phi_end"),
    }

    kind: str
    n_pulses: int
    phi: float = 0.0
    phi_start: float = 0.0
    phi_end: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0 <= self.n_pulses <= sys.maxsize:  # len() holds at most sys.maxsize
            raise FieldError(
                "n_pulses", f"pulse count must lie in [0, {sys.maxsize}], got {self.n_pulses}"
            )
        for name in ("phi", "phi_start", "phi_end"):
            if not abs(phase := getattr(self, name)) <= _MAX_PHASE:
                raise FieldError(name, f"must lie within +/-{_MAX_PHASE:.6g} rad, got {phase}")

    @classmethod
    def constant(cls, phi: float, n_pulses: int) -> "PhaseSchedule":
        return cls(kind="constant", n_pulses=n_pulses, phi=phi)

    @classmethod
    def linear_ramp(cls, phi_start: float, phi_end: float, n_pulses: int) -> "PhaseSchedule":
        return cls(
            kind="linear_ramp", n_pulses=n_pulses, phi_start=phi_start, phi_end=phi_end
        )

    def __len__(self) -> int:
        return self.n_pulses

    @property
    def step(self) -> float:
        """Phase advance from one pulse of a ramp to the next."""
        return (self.phi_end - self.phi_start) / max(self.n_pulses, 1)

    def values(self, start: int = 0, stop: int | None = None) -> NDArray[np.float64]:
        """Materialize the per-pulse phases of pulses [start, stop), all by default.

        A slice equals ``values()[start:stop]`` bit for bit, so a chunk of
        pulses sees the same phases as the whole train.
        """
        stop = self.n_pulses if stop is None else stop
        if not 0 <= start <= stop <= self.n_pulses:
            raise ValueError(
                f"pulse slice [{start}, {stop}) lies outside [0, {self.n_pulses})"
            )
        if self.kind == "constant":
            return np.full(stop - start, float(self.phi))
        # phi_start + step * k, built in place: no second array of the slice
        ramp = np.arange(start, stop, dtype=float)
        ramp *= self.step
        ramp += self.phi_start
        return ramp


@dataclass(frozen=True)
class RunConfig:
    """Full description of one simulated measurement run."""

    source: SourceSpec
    detector: DetectorModel
    schedule: PhaseSchedule
    theta: float = 0.0
    beamsplitter_r: float = 0.5
    seed: int = 0
    blocked_arm: str = "none"

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 < self.beamsplitter_r < 1.0:
            raise FieldError(
                "beamsplitter_r", f"reflectivity must lie in (0, 1), got {self.beamsplitter_r}"
            )
        if not 0 <= self.seed < 2**64:
            raise FieldError("seed", f"must be a 64-bit unsigned integer, got {self.seed}")
        if self.blocked_arm not in _BLOCKED_ARMS:
            raise FieldError(
                "blocked_arm", f"must be one of {_BLOCKED_ARMS}, got {self.blocked_arm!r}"
            )

    def to_dict(self) -> dict:
        return schema.to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return schema.from_dict(cls, data)


@dataclass(frozen=True)
class Sidecar:
    """JSON metadata written next to a records CSV: enough to regenerate it, and the
    digests that bind the CSV to it, from version 5 of its bytes and from version 6
    of its values ("" before)."""

    format_version: int
    format: str
    n_pulses: int
    chunk_size: int
    records_sha256: str
    values_sha256: str
    config: RunConfig

    def __post_init__(self) -> None:
        check_fields(self)
        if self.format_version not in _READABLE_VERSIONS:
            raise FieldError(
                "format_version",
                f"expected one of {_READABLE_VERSIONS}, got {self.format_version}",
            )
        if self.format != HEADER:  # every version has written the CSV's header here
            raise FieldError("format", f"expected {HEADER!r}, got {self.format!r}")
        if self.chunk_size < 1:  # no run draws from chunks of fewer pulses
            raise FieldError("chunk_size", f"must be >= 1, got {self.chunk_size}")
        if self.n_pulses != self.config.schedule.n_pulses:  # so never below 0
            raise FieldError(
                "n_pulses", f"must equal config.schedule.n_pulses = "
                f"{self.config.schedule.n_pulses}, got {self.n_pulses}"
            )
        for name, since in _DIGESTS:
            digest = getattr(self, name)
            if self.format_version < since and digest:
                raise FieldError(name, f"version {self.format_version} carries no digest, "
                                 f"got {digest!r}")
            if self.format_version >= since and not re.fullmatch("[0-9a-f]{64}", digest):
                raise FieldError(name, f"expected 64 lowercase hex digits, got {digest!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "Sidecar":
        # sidecars written before the field existed follow contract 1, those
        # before a digest's version carry none, and those before 7 carry the
        # detector's lo_photons_per_pulse, dropped from a copy: the caller's
        # stored config keeps it, as their digests took it
        if isinstance(data, dict):
            data = {"format_version": 1, **data}
            for name, since in _DIGESTS:
                if data["format_version"] in _READABLE_VERSIONS[: since - 1]:
                    data = {name: "", **data}
            config = data.get("config")
            detector = config.get("detector") if isinstance(config, dict) else None
            if data["format_version"] in _READABLE_VERSIONS[:6] and isinstance(detector, dict):
                detector = {k: v for k, v in detector.items() if k != "lo_photons_per_pulse"}
                data = {**data, "config": {**config, "detector": detector}}
        return schema.from_dict(cls, data)


@dataclass(frozen=True, eq=False)
class PulseTrain:
    """Columnar sequence of pulse records."""

    lo_phase: NDArray[np.float64]
    value: NDArray[np.float64]

    def __len__(self) -> int:
        return len(self.value)

    @property
    def index(self) -> NDArray[np.int64]:
        """Pulse numbers 0 .. n - 1; derived, not stored."""
        return np.arange(len(self), dtype=np.int64)


def _port_state(config: RunConfig) -> tuple[float, float, float]:
    """(v, k, v - |k|) of the symmetric state the beamsplitter recombines, v - |k| being
    e^(-2r) for ``pure_nopa``.  A blocked arm is vacuum and each arm alone is thermal,
    v I, so the port is then isotropic (k = 0) with variance R + (1 - R) v (arm a
    blocked), R v + 1 - R (arm b) or 1 (signal)."""
    source, r = config.source, config.beamsplitter_r
    if source.kind == "pure_nopa":
        two_r = 2.0 * source.r
        v, k, squeezed = math.cosh(two_r), math.sinh(two_r), math.exp(-two_r)
    else:
        v, k, squeezed = source.v, source.k, source.v - abs(source.k)
    port = {"a": r + (1.0 - r) * v, "b": r * v + (1.0 - r), "signal": 1.0}.get(config.blocked_arm)
    return (v, k, squeezed) if port is None else (port, 0.0, port)


def _fringe(config: RunConfig, theta: float) -> tuple[float, float, float]:
    """(a, b, c) of the detected variance a + b cos 2phi + c sin 2phi at relative phase
    ``theta``, electronic noise excluded: closed form, no matrix product.

    Shifted by theta on its second arm and recombined with reflectivity R, the
    state's port is v I + 2 sqrt(R (1 - R)) k [[cos, -sin], [-sin, -cos]](theta),
    and efficiency eta mixes in (1 - eta) I.  So a = eta v + 1 - eta, b = s cos theta
    and c = -s sin theta, with s = 2 eta sqrt(R (1 - R)) k; neither holds a -0.0.
    """
    v, k, _ = _port_state(config)
    eta, r = config.detector.efficiency, config.beamsplitter_r
    s = 2.0 * eta * math.sqrt(r * (1.0 - r)) * k
    return eta * v + (1.0 - eta), s * math.cos(theta) + 0.0, 0.0 - s * math.sin(theta)


def _squeezed_level(config: RunConfig) -> float:
    """a - |s|, the minimum over phi of :func:`_fringe`'s variance, summed as
    eta ((v - |k|) + (1 - 2 sqrt(R (1 - R))) |k|) + 1 - eta so that no term is a
    difference of numbers of size v + |k|."""
    _, k, squeezed = _port_state(config)
    eta, r = config.detector.efficiency, config.beamsplitter_r
    return eta * (squeezed + (1.0 - 2.0 * math.sqrt(r * (1.0 - r))) * abs(k)) + (1.0 - eta)


def detected_covariance(config: RunConfig) -> Matrix:
    """2x2 covariance of the measured output port after recombination and loss.

    Electronic noise is not included; it enters additively in
    :func:`detected_variance`.
    """
    a, b, c = _fringe(config, config.theta)
    return np.array([[a + b, c], [c, a - b]])


def detected_variance(config: RunConfig, lo_phase):
    """Analytic variance of the homodyne outcome at the given LO phase(s).

    Accepts a scalar or an array of phases; electronic noise is included.
    It is summed up from the fringe minimum, :func:`_squeezed_level`, so it
    keeps its digits near the minimum of the largest accepted source.
    """
    phi = np.asarray(lo_phase, dtype=float)
    if not np.isfinite(phi).all():
        raise ValueError("lo_phase must be finite")
    _, s, _ = _fringe(config, 0.0)
    # a + s cos(2 phi + theta) = v_min + 2 |s| cos^2(phi + theta / 2), sin^2
    # when s < 0: no term is a difference of numbers of size a
    half = phi + 0.5 * config.theta
    trig = np.cos(half) if s >= 0.0 else np.sin(half)
    var = _squeezed_level(config) + 2.0 * abs(s) * trig * trig
    var += config.detector.electronic_noise_var
    if var.ndim == 0:
        return float(var)
    return var


def _chunk_rng(seed: int, stream: int, chunk_index: int) -> np.random.Generator:
    # The whole entropy tuple is hashed, so streams and chunks never collide.
    # SFC64 (contract 3) draws the same normals faster than PCG64 did.
    return np.random.Generator(np.random.SFC64((seed, stream, chunk_index)))


def _check_size(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer (numpy's too, not a bool) of at least
    ``least``, naming it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _chunks(config: RunConfig, chunk_size: int, stream: int):
    """The chunk loop every sampler runs: yields (start, stop, rng) per RNG chunk.

    Chunk i covers pulses [i * chunk_size, (i + 1) * chunk_size) and draws
    from an rng seeded with (seed, stream, i).  No state passes from one
    chunk to the next, so a chunk is reproducible on its own and memory
    stays O(chunk_size).
    """
    _check_size("chunk size", chunk_size, 1)
    n = len(config.schedule)
    if n == 0:
        raise ValueError("empty schedule: nothing to sample")
    return (
        (start, min(start + chunk_size, n), _chunk_rng(config.seed, stream, chunk_index))
        for chunk_index, start in enumerate(range(0, n, chunk_size))
    )


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _fringe_tables(two_step: float, length: int):
    """Read-only cos 2kd and sin 2kd for k < length, shared by every ramp of step d."""
    angles = two_step * np.arange(length)
    cos_table = np.cos(angles)
    sin_table = np.sin(angles, out=angles)
    cos_table.flags.writeable = sin_table.flags.writeable = False
    return cos_table, sin_table


def _marginal_draw(config: RunConfig, chunk_size: int):
    """The per-chunk draw of the fast sampler under sampling contract 4.

    The detected variance is A + B cos 2phi + C sin 2phi, with A, B and C
    taken once from :func:`_fringe` and the electronic noise in A.
    On a ramp of step d, pulse j of a chunk starting at phase phi_s has
    2phi = 2phi_s + 2jd, so one table of cos 2jd and sin 2jd and two scalars
    per chunk give every variance without per-pulse trig.

    ``draw(start, rng, out, scratch)`` fills ``out`` with the values of the
    chunk whose first pulse is ``start`` and returns it.  ``scratch``, at
    least as long as ``out``, takes the standard deviations, so a chunk
    allocates nothing of chunk size; the draw itself holds no state, and
    threads that each pass their own ``out`` and ``scratch`` may share it.
    """
    a, b, c = _fringe(config, config.theta)
    a += config.detector.electronic_noise_var
    schedule = config.schedule
    if schedule.kind == "constant" or b == c == 0.0:
        # one variance for every pulse; without a fringe any phase will do
        two_phi = 2.0 * schedule.phi
        std = math.sqrt(a + b * math.cos(two_phi) + c * math.sin(two_phi))

        def draw(start, rng, out, scratch):
            rng.standard_normal(len(out), out=out)
            out *= std
            return out

        return draw

    step, phi_start = schedule.step, schedule.phi_start
    cos_table, sin_table = _fringe_tables(2.0 * step, min(chunk_size, len(schedule)))

    def draw(start, rng, out, scratch):
        m = len(out)
        # the two roundings of schedule.values(start, start + 1)[0]
        two_phi = 2.0 * (start * step + phi_start)
        cos_s, sin_s = math.cos(two_phi), math.sin(two_phi)
        u = b * cos_s + c * sin_s
        w = c * cos_s - b * sin_s
        # std = sqrt(a + u cos + w sin) in the scratch, with w sin parked in
        # ``out``, which the draw then overwrites
        w_sin = np.multiply(w, sin_table[:m], out=out)
        std = np.multiply(u, cos_table[:m], out=scratch[:m])
        std += a
        std += w_sin
        np.sqrt(std, out=std)
        rng.standard_normal(m, out=out)
        out *= std
        return out

    return draw


def sample_pulses(config: RunConfig, chunk_size: int = DEFAULT_CHUNK_SIZE) -> PulseTrain:
    """Draw one homodyne outcome per scheduled pulse.

    Each outcome is a zero-mean Gaussian draw with the analytic detected
    variance at that pulse's LO phase.  The stream is partitioned into chunks
    of ``chunk_size`` pulses, each seeded from (seed, stream, chunk index),
    so the result is bit-identical however the chunks are executed;
    reproducing a run therefore requires the seed and the chunk size.

    Parameters
    ----------
    config : RunConfig
        Run description; ``config.schedule`` fixes the pulse count.
    chunk_size : int
        Pulses per RNG stream.

    Returns
    -------
    PulseTrain
    """
    _check_size("chunk size", chunk_size, 1)
    # The whole train is allocated before the draw builds its tables: in
    # the records benchmark, whose check samples a fresh train, building
    # the tables first left about 1.5 MB more peak RSS (sampling contract 2).
    train = PulseTrain(lo_phase=config.schedule.values(), value=np.empty(len(config.schedule)))
    for start, values in _drawn(config, chunk_size):
        train.value[start : start + len(values)] = values
    return train


def _drawn(config: RunConfig, chunk_size: int):
    """(start, values) of each chunk of ``sample_pulses(config, chunk_size)``, drawn in turn
    into one reused buffer, sizes checked first: the one serial chunk loop."""
    chunks = _chunks(config, chunk_size, _STREAM_FAST)
    buffer, scratch = np.empty((2, min(chunk_size, len(config.schedule))))
    draw = _marginal_draw(config, chunk_size)
    return ((start, draw(start, rng, buffer[: stop - start], scratch))
            for start, stop, rng in chunks)


def _block_count(n_pulses: int, block_size: int) -> int:
    """Complete blocks of ``block_size`` in ``n_pulses``; at least one is required."""
    _check_size("block size", block_size, 2)
    if n_pulses < block_size:
        raise ValueError(
            f"need at least one full block of {block_size} pulses, got {n_pulses}"
        )
    return n_pulses // block_size


def _fringe_columns(blocks: NDArray[np.float64]) -> NDArray[np.float64]:
    """Mean cos 2phi and sin 2phi of each row of phases: one row of fringe columns per block."""
    two_phi = 2.0 * blocks
    return np.column_stack(
        [np.cos(two_phi).mean(axis=1), np.sin(two_phi, out=two_phi).mean(axis=1)]
    )


def block_variance_trace(
    train: PulseTrain, block_size: int = DEFAULT_BLOCK_SIZE
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Unbiased sample variance over consecutive non-overlapping blocks.

    Returns (fringe columns, variance per block): row i of the columns holds
    block i's mean of cos 2phi and of sin 2phi over its pulses' LO phases,
    the exact weights of the fringe in that block's expected variance.  A
    trailing partial block is discarded.
    """
    used = _block_count(len(train), block_size) * block_size
    return (
        _fringe_columns(train.lo_phase[:used].reshape(-1, block_size)),
        train.value[:used].reshape(-1, block_size).var(axis=1, ddof=1),
    )


def _reduce_blocks(blocks: NDArray[np.float64]) -> NDArray[np.float64]:
    """``blocks.var(axis=1, ddof=1)`` bit for bit, overwriting ``blocks``.

    The steps are numpy's own for ``var``: the row means, then the squared
    deviations' row sums divided by the row length less one.
    """
    means = np.add.reduce(blocks, axis=1, keepdims=True)
    means /= blocks.shape[1]
    blocks -= means
    blocks *= blocks
    variances = np.add.reduce(blocks, axis=1)
    variances /= blocks.shape[1] - 1
    return variances


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)  # 2500.0 must not hit 2500's entry
def _block_columns(schedule: PhaseSchedule, block_size: int) -> NDArray[np.float64]:
    """Read-only fringe columns of every complete block of a schedule.

    Reduced a chunk's worth of whole blocks at a time, so memory stays
    O(chunk); each row is reduced alone, so every row equals that of
    ``_fringe_columns(values().reshape(-1, block_size))`` bit for bit.
    """
    n_blocks = _block_count(len(schedule), block_size)
    per_piece = max(1, DEFAULT_CHUNK_SIZE // block_size)
    columns = np.empty((n_blocks, 2))
    for first in range(0, n_blocks, per_piece):
        last = min(first + per_piece, n_blocks)
        phases = schedule.values(first * block_size, last * block_size)
        columns[first:last] = _fringe_columns(phases.reshape(-1, block_size))
    columns.flags.writeable = False
    return columns


class _Stitch:
    """A scan's reduced blocks, filed by block index from pieces of pulses added in any order.

    :meth:`add` reduces a piece's whole blocks on the calling thread and
    files them under the index of the first.  The piece's head and tail, its
    pulses before its first block boundary and after its last, are copied
    into the blocks that straddle pieces, one longer than a piece included,
    and such a block is reduced as a one-row block once its last fragment
    arrives, so every block is reduced as in the whole train bit for bit.  A
    trailing partial block never completes and is dropped.  Threads may add
    pieces at once: only the filing holds the stitch's lock.
    """

    def __init__(self, block_size: int, reduce):
        self._size = block_size
        self._reduce = reduce
        self._lock = threading.Lock()
        self._done = {}  # first block index -> reduced rows
        self._partial = {}  # block index -> (its values, pulses filled)

    def _fill(self, index: int, offset: int, fragment) -> None:
        block, filled = self._partial.pop(index, None) or (np.empty(self._size), 0)
        block[offset : offset + len(fragment)] = fragment
        filled += len(fragment)
        if filled < self._size:
            self._partial[index] = block, filled
        else:
            self._done[index] = self._reduce(block[None])

    def add(self, start: int, values: NDArray[np.float64]) -> None:
        """File pulses [start, start + len(values)); ``reduce`` may overwrite their whole blocks."""
        size = self._size
        first = min(-start % size, len(values))  # the piece's first and last block boundaries
        last = max(first, len(values) - (start + len(values)) % size)
        inner = self._reduce(values[first:last].reshape(-1, size))
        with self._lock:
            if first:
                self._fill(start // size, start % size, values[:first])
            if len(inner):
                self._done[(start + first) // size] = inner
            if last < len(values):
                self._fill((start + last) // size, 0, values[last:])

    def blocks(self) -> NDArray[np.float64]:
        """The reduced blocks in block order."""
        if not self._done:  # the rows' shape when there are none
            return self._reduce(np.empty((0, self._size)))
        return np.concatenate([self._done[i] for i in sorted(self._done)])


def _stream_scans(
    configs: list[RunConfig], block_size: int, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> list[NDArray[np.float64]]:
    """The block variances of every config, in order, bit for bit: the one scan loop.

    The chunk tasks of all the scans form one queue in (scan, chunk) order.
    Each thread, the calling one and any it starts and joins, takes the next
    task when free, draws it into its own buffer and scratch and adds it to
    its scan's stitch, which reduces the chunk's whole blocks on that thread,
    whichever tasks finish first.  One lock guards the queue and the errors.
    A chunk's numpy calls release the GIL, and every chunk has its own RNG
    stream, so the blocks do not depend on which thread drew which chunk.
    The loop picks its threads from its input alone: one scan, or scans
    shorter than a chunk, which a thread hand-off costs more than it saves,
    run on the calling thread; otherwise one thread per CPU the process may
    use, at most :data:`_DRAW_THREADS`.

    Sizes are checked before the first task is taken.  Once a task fails no
    more are taken, and when none is running the first error in (scan,
    chunk) order is raised; one outside any task, an interrupt say, comes
    first.
    """
    chunks = [_chunks(c, chunk_size, _STREAM_FAST) for c in configs]
    lengths = [len(c.schedule) for c in configs]
    _block_count(min(lengths), block_size)
    draws = [_marginal_draw(c, chunk_size) for c in configs]
    stitches = [_Stitch(block_size, _reduce_blocks) for _ in configs]
    tasks = enumerate((stitch, draw, chunk) for scan, draw, stitch
                      in zip(chunks, draws, stitches) for chunk in scan)
    threads = 1
    if len(configs) > 1 and min(lengths) >= chunk_size:
        affinity = getattr(os, "sched_getaffinity", None)
        threads = min((len(affinity(0)) if affinity else os.cpu_count()) or 1, _DRAW_THREADS)
    lock = threading.Lock()  # guards the tasks and the errors
    errors = {}  # task index, or -1 outside any task -> the error raised there

    def work():
        index = -1
        try:
            buffer, scratch = np.empty((2, min(chunk_size, max(lengths))))
            while True:
                with lock:
                    task = None if errors else next(tasks, None)
                if task is None:
                    return
                index, (stitch, draw, (start, stop, rng)) = task
                stitch.add(start, draw(start, rng, buffer[: stop - start], scratch))
                index = -1
        except BaseException as exc:
            with lock:
                errors[index] = exc

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return [stitch.blocks() for stitch in stitches]


def stream_block_variances(
    config: RunConfig,
    block_size: int = DEFAULT_BLOCK_SIZE,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Block variances of a simulated run, sampled and reduced chunk by chunk.

    Returns exactly
    ``block_variance_trace(sample_pulses(config, chunk_size), block_size)``,
    in memory of O(chunk_size + block_size) instead of O(pulses): the fringe
    columns are a copy of the schedule's memoized :func:`_block_columns`, and
    the variances come from :func:`_stream_scans`, the one scan loop, which
    draws a single scan chunk by chunk on the calling thread.
    """
    variances = _stream_scans([config], block_size, chunk_size)[0]
    return _block_columns(config.schedule, block_size).copy(), variances


def theta_scan(
    config: RunConfig, thetas
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Noise-ellipse extremes of the detected port as the relative phase is swept.

    Returns (thetas, min variance, max variance, LO phase of the minimum,
    modulo pi).  The variance a + s cos(2 phi + theta) of :func:`_fringe`
    has extremes a -/+ |s| at every theta, so only the minimum's phase,
    (pi - theta) / 2 (plus pi / 2 when s < 0), moves, and no trig is done
    per theta.  The minimum is :func:`_squeezed_level`, in which no term is
    a difference of numbers of size v + |k|.  Electronic noise is included
    in the extremes.  Where the ellipse is a circle (v_max - v_min <= 1e-12
    v_max, as with an arm blocked or a vacuum source) the minimum has no
    phase and phi_min is NaN.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if not np.isfinite(thetas).all():
        raise ValueError("thetas must be finite")
    a, s, _ = _fringe(config, 0.0)
    noise = config.detector.electronic_noise_var
    v_min, v_max = _squeezed_level(config) + noise, a + abs(s) + noise
    if v_max - v_min <= 1e-12 * v_max:
        phi_min = np.full(len(thetas), np.nan)
    else:
        phi_min = np.mod(0.5 * (math.pi - thetas) + (0.5 * math.pi if s < 0.0 else 0.0), math.pi)
    return thetas, np.full(len(thetas), v_min), np.full(len(thetas), v_max), phi_min


def write_records(
    config: RunConfig, csv_path: str | Path, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Path:
    """Sample a run into a CSV, plus the JSON sidecar that regenerates it.

    The records are those of ``sample_pulses(config, chunk_size)``, drawn
    chunk by chunk into one reused buffer, so memory stays O(chunk_size).
    Each row is the bytes ``"%d,%.17g,%.17g\n" % row`` writes.  The
    sidecar, the CSV's path with suffix ``.json``, names the chunk size and
    binds the CSV by two SHA-256 digests, each of the canonical JSON of the
    chunk size and the config and then of every byte written
    (``records_sha256``) or of every value drawn (``values_sha256``); a CSV
    path that already ends in ``.json`` raises ValueError.
    """
    from . import records  # compiled on first use, not by every run that imports simulate

    sidecar = _sidecar_path(csv_path)
    sha = records.config_hash(FORMAT_VERSION, chunk_size, config.to_dict())
    values_sha = sha.copy()
    drawn = _drawn(config, chunk_size)

    def texts():
        yield (HEADER + "\n").encode()
        for start, values in drawn:
            values_sha.update(values.astype("<f8", copy=False))
            phases = config.schedule.values(start, start + len(values))
            yield from records.format_rows(start, phases, values)

    with open(csv_path, "wb") as fh:
        for text in texts():
            sha.update(text)
            fh.write(text)
    meta = Sidecar(FORMAT_VERSION, HEADER, len(config.schedule), chunk_size,
                   sha.hexdigest(), values_sha.hexdigest(), config)
    sidecar.write_text(json.dumps(schema.to_dict(meta), indent=2) + "\n")
    return Path(csv_path)


def read_records(csv_path: str | Path) -> PulseTrain:
    """Read a CSV written by :func:`write_records`, for callers who want the whole train.

    The values are those np.loadtxt reads, bit for bit: it reads them, a chunk of
    rows per call.  Malformed input, a row of other than 3 fields, a nan, an
    infinity or an index column other than 0, 1, ..., n - 1 included, raises
    ValueError naming the first offending line.
    """
    from . import records  # compiled on first use, not by every run that imports simulate

    phase, value, rows = np.empty(0), np.empty(0), 0
    for phases, values, end in records.read(Path(csv_path)):
        new = rows + len(values)
        if new > len(phase):  # size the columns by the rows per byte so far
            estimate = new * Path(csv_path).stat().st_size // end
            phase.resize(max(estimate * 21 // 20, new), refcheck=False)
            value.resize(len(phase), refcheck=False)
        phase[rows:new], value[rows:new] = phases, values
        rows = new
    phase.resize(rows, refcheck=False)
    value.resize(rows, refcheck=False)
    return PulseTrain(phase, value)


def _sidecar_path(csv_path: str | Path) -> Path:
    """A records CSV's sidecar, its path with suffix ``.json``, refused if that is its own."""
    sidecar = Path(csv_path).with_suffix(".json")
    if sidecar == Path(csv_path):
        raise ValueError(f"records path {csv_path} is its sidecar's path: use another suffix")
    return sidecar


def read_metadata(csv_path: str | Path) -> dict:
    """Load the JSON sidecar belonging to a records CSV."""
    return json.loads(_sidecar_path(csv_path).read_text())
