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
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np
from numpy.typing import NDArray

from .gaussian import Matrix, SourceSpec, beamsplitter, source_covariance
from . import schema
from .schema import FieldError, check_fields

#: Pulses handled per RNG stream; part of the reproducibility contract.
DEFAULT_CHUNK_SIZE = 65536

#: Sampling contract of the records this version writes: 1 drew each pulse's
#: standard deviation from its own cos and sin, 2 from per-stream fringe
#: coefficients and per-chunk phasors (equal to rounding, not bit for bit),
#: both with PCG64 normals; 3 draws contract 2's deviations with SFC64 normals.
FORMAT_VERSION = 3
_READABLE_VERSIONS = (1, 2, 3)

#: Pulses per variance block when a caller or a scenario names none.
DEFAULT_BLOCK_SIZE = 2500

#: Detector noise floor 11 dB below the shot-noise level.
DEFAULT_ELECTRONIC_NOISE_VAR = 10.0 ** -1.1

#: Raw-unit variance per local-oscillator photon in the shot-noise scan.
GAIN_PER_PHOTON = 1e-8

# RNG stream tags keep the fast sampler and the shot-noise scan statistically
# independent even under a shared seed; tag 1 is reserved for the tests'
# brute-force joint sampler.
_STREAM_FAST = 0
_STREAM_SHOT_NOISE = 2

_BLOCKED_ARMS = ("none", "a", "b", "signal")

# Entries per schedule memo: a report's three scans share one ramp, as do a sweep's reports
_MEMO_SIZE = 8

# Entries in the physics memo: a report and its theta scan ask for 4 keys, so a
# sweep round of 9 (source, efficiency) pairs asks for 36; an LRU smaller than
# a round would miss on every call
_PHYSICS_MEMO_SIZE = 64

#: Most threads that draw a run's scans; each holds two chunk-long rows.
_DRAW_THREADS = 4


@dataclass(frozen=True)
class DetectorModel:
    """Efficiencies and noise of the pulsed homodyne detector.

    Defaults describe the reference apparatus: transmission from source to
    detector, homodyne mode overlap (entering squared), photodiode quantum
    efficiency, an electronic noise floor 11 dB below shot noise, and the
    local-oscillator energy at which that floor was calibrated.
    """

    eta_transmission: float = 0.93
    eta_homodyne: float = 0.88
    eta_detector: float = 0.945
    electronic_noise_var: float = DEFAULT_ELECTRONIC_NOISE_VAR
    lo_photons_per_pulse: float = 2.5e8

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
        if self.lo_photons_per_pulse <= 0.0:
            raise FieldError(
                "lo_photons_per_pulse", f"must be > 0, got {self.lo_photons_per_pulse}"
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
    """JSON metadata written next to a records CSV: enough to regenerate it."""

    format_version: int
    format: str
    n_pulses: int
    chunk_size: int
    config: RunConfig

    def __post_init__(self) -> None:
        check_fields(self)
        if self.format_version not in _READABLE_VERSIONS:
            raise FieldError(
                "format_version",
                f"expected one of {_READABLE_VERSIONS}, got {self.format_version}",
            )
        if self.chunk_size < 1:  # no run draws from chunks of fewer pulses
            raise FieldError("chunk_size", f"must be >= 1, got {self.chunk_size}")

    @classmethod
    def from_dict(cls, data: dict) -> "Sidecar":
        # sidecars written before the field existed follow contract 1
        if isinstance(data, dict) and "format_version" not in data:
            data = {"format_version": 1, **data}
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


def _input_covariance(source: SourceSpec, blocked_arm: str) -> Matrix:
    """Two-mode covariance entering the beamsplitter, after any blocking."""
    gamma = source_covariance(source)
    if blocked_arm == "a":
        out = np.eye(4)
        out[2:, 2:] = gamma[2:, 2:]
        return out
    if blocked_arm == "b":
        out = np.eye(4)
        out[:2, :2] = gamma[:2, :2]
        return out
    if blocked_arm == "signal":
        return np.eye(4)
    return gamma


def _port_rows(reflectivity: float, thetas) -> NDArray[np.float64]:
    """Rows of the phase-shift-then-beamsplitter chain that feed the measured
    port, one 2x4 block per relative phase theta.

    The phase shift rotates the second mode's (X_B, P_B) by theta, mapping
    X -> X cos(theta) + P sin(theta), so the bright port's ellipse turns by
    theta / 2.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float)).tolist()
    # the tests' reference phase_rotation(theta, mode=1) for every theta, in
    # one stack; math.cos and math.sin give the bits it does
    cos = np.array([math.cos(t) for t in thetas])
    sin = np.array([math.sin(t) for t in thetas])
    rotations = np.tile(np.eye(4), (len(thetas), 1, 1))
    rotations[:, 2, 2] = rotations[:, 3, 3] = cos
    rotations[:, 2, 3], rotations[:, 3, 2] = sin, -sin
    return beamsplitter(reflectivity)[:2] @ rotations


@functools.lru_cache(maxsize=_PHYSICS_MEMO_SIZE)
def _covariance_stack(
    source: SourceSpec, efficiency: float, reflectivity: float, blocked_arm: str, thetas: bytes
) -> NDArray[np.float64]:
    """Read-only detected covariances of the float64 thetas whose bytes are ``thetas``.

    Keyed on values, so sources that differ only in the sign of a zero share
    an entry; that changes no bit, since the final ``(1 - eta) I`` adds +0.0
    to every entry and so leaves no -0.0 in any result.
    """
    rows = _port_rows(reflectivity, np.frombuffer(thetas))
    g = rows @ _input_covariance(source, blocked_arm) @ rows.transpose(0, 2, 1)
    out = efficiency * (0.5 * (g + g.transpose(0, 2, 1))) + (1.0 - efficiency) * np.eye(2)
    out.flags.writeable = False
    return out


def _detected_covariances(config: RunConfig, thetas) -> NDArray[np.float64]:
    """Read-only detected 2x2 covariances, one per theta, without electronic noise.

    Memoized on what they depend on, the thetas by their bits: runs that
    differ only in seed, schedule or electronic noise share one entry.
    """
    return _covariance_stack(
        config.source,
        config.detector.efficiency,
        config.beamsplitter_r,
        config.blocked_arm,
        np.asarray(thetas, dtype=float).tobytes(),
    )


def detected_covariance(config: RunConfig) -> Matrix:
    """2x2 covariance of the measured output port after recombination and loss.

    Electronic noise is not included; it enters additively in
    :func:`detected_variance`.  The array is the caller's own.
    """
    return _detected_covariances(config, config.theta)[0].copy()


def detected_variance(config: RunConfig, lo_phase):
    """Analytic variance of the homodyne outcome at the given LO phase(s).

    Accepts a scalar or an array of phases; electronic noise is included.
    """
    g = _detected_covariances(config, config.theta)[0]
    phi = np.asarray(lo_phase, dtype=float)
    if not np.isfinite(phi).all():
        raise ValueError("lo_phase must be finite")
    c, s = np.cos(phi), np.sin(phi)
    var = c * c * g[0, 0] + 2.0 * c * s * g[0, 1] + s * s * g[1, 1]
    var = var + config.detector.electronic_noise_var
    if var.ndim == 0:
        return float(var)
    return var


def _chunk_rng(seed: int, stream: int, chunk_index: int) -> np.random.Generator:
    # The whole entropy tuple is hashed, so streams and chunks never collide.
    # SFC64 (contract 3) draws the same normals faster than PCG64 did.
    return np.random.Generator(np.random.SFC64((seed, stream, chunk_index)))


def _chunks(config: RunConfig, chunk_size: int, stream: int):
    """The chunk loop every sampler runs: yields (start, stop, rng) per RNG chunk.

    Chunk i covers pulses [i * chunk_size, (i + 1) * chunk_size) and draws
    from an rng seeded with (seed, stream, i).  No state passes from one
    chunk to the next, so a chunk is reproducible on its own and memory
    stays O(chunk_size).
    """
    if chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
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
    """The per-chunk draw of the fast sampler, format version 2.

    The detected variance is A + B cos 2phi + C sin 2phi, with A, B and C
    taken once from the detected covariance and the electronic noise in A.
    On a ramp of step d, pulse j of a chunk starting at phase phi_s has
    2phi = 2phi_s + 2jd, so one table of cos 2jd and sin 2jd and two scalars
    per chunk give every variance without per-pulse trig.

    ``draw(start, rng, out, scratch)`` fills ``out`` with the values of the
    chunk whose first pulse is ``start`` and returns it.  ``scratch``, at
    least as long as ``out``, takes the standard deviations, so a chunk
    allocates nothing of chunk size; the draw itself holds no state, and
    threads that each pass their own ``out`` and ``scratch`` may share it.
    """
    g = _detected_covariances(config, config.theta)[0]
    a = 0.5 * (g[0, 0] + g[1, 1]) + config.detector.electronic_noise_var
    b, c = 0.5 * (g[0, 0] - g[1, 1]), g[0, 1]
    if config.blocked_arm != "none":
        # Both source kinds are symmetric: each mode alone is thermal, v * I.
        # With one arm blocked, both beamsplitter inputs are multiples of I,
        # so the detected covariance is too: there is no fringe, and B and C
        # are rounding noise.
        b = c = 0.0
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

    cos_table, sin_table = _fringe_tables(
        2.0 * schedule.step, min(chunk_size, len(schedule))
    )

    def draw(start, rng, out, scratch):
        m = len(out)
        two_phi = 2.0 * schedule.values(start, start + 1)[0]
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
    chunks = _chunks(config, chunk_size, _STREAM_FAST)
    # The whole train is allocated before the draw builds its tables: in
    # the records benchmark, whose check samples a fresh train, building
    # the tables first left about 1.5 MB more peak RSS (sampling contract 2).
    n = len(config.schedule)
    train = PulseTrain(lo_phase=config.schedule.values(), value=np.empty(n))
    draw = _marginal_draw(config, chunk_size)
    scratch = np.empty(min(chunk_size, n))
    for start, stop, rng in chunks:
        draw(start, rng, train.value[start:stop], scratch)
    return train


def _block_count(n_pulses: int, block_size: int) -> int:
    """Complete blocks of ``block_size`` in ``n_pulses``; at least one is required."""
    if block_size < 2:
        raise ValueError(f"block size must be >= 2, got {block_size}")
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
    blocks -= blocks.mean(axis=1, keepdims=True)
    blocks *= blocks
    variances = np.add.reduce(blocks, axis=1)
    variances /= blocks.shape[1] - 1
    return variances


@functools.lru_cache(maxsize=_MEMO_SIZE)
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
        none = self._reduce(np.empty((0, self._size)))  # the rows' shape when there are none
        return np.concatenate([none, *(self._done[i] for i in sorted(self._done))])


def _stream_scans(
    configs: list[RunConfig],
    block_size: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    threads: int | None = None,
) -> list[tuple[NDArray[np.float64], NDArray[np.float64]]]:
    """:func:`stream_block_variances` of every config, in order, bit for bit: the one scan loop.

    The chunk tasks of all the scans form one queue in (scan, chunk) order.
    Each of ``threads`` threads, the calling one and ``threads - 1`` it
    starts and joins, takes the next task when free, draws it into its own
    buffer and scratch and adds it to its scan's stitch, which reduces the
    chunk's whole blocks on that thread, whichever tasks finish first.  One
    lock guards the queue and the errors.  A chunk's numpy calls release the
    GIL, and every chunk has its own RNG stream, so the blocks do not depend
    on which thread drew which chunk.  By default scans of at least one chunk
    are drawn on one thread per CPU the process may use, at most
    :data:`_DRAW_THREADS`; shorter scans, which a thread hand-off costs more
    than it saves, on the calling thread alone.

    Sizes are checked and block columns allocated before the first task is
    taken.  Once a task fails no more are taken, and when none is running
    the first error in (scan, chunk) order is raised; one outside any task,
    an interrupt say, comes first.
    """
    scans = [
        (_chunks(c, chunk_size, _STREAM_FAST), _block_columns(c.schedule, block_size).copy(),
         _marginal_draw(c, chunk_size), _Stitch(block_size, _reduce_blocks))
        for c in configs
    ]
    lengths = [len(c.schedule) for c in configs]
    if threads is None:
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = (len(affinity(0)) if affinity else os.cpu_count()) or 1
        threads = 1 if min(lengths) < chunk_size else min(cpus, _DRAW_THREADS)
    tasks = enumerate(
        (stitch, draw, chunk) for chunks, _, draw, stitch in scans for chunk in chunks
    )
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
    return [(columns, stitch.blocks()) for _, columns, _, stitch in scans]


def stream_block_variances(
    config: RunConfig,
    block_size: int = DEFAULT_BLOCK_SIZE,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Block variances of a simulated run, sampled and reduced chunk by chunk.

    Returns exactly
    ``block_variance_trace(sample_pulses(config, chunk_size), block_size)``,
    in memory of O(chunk_size + block_size) instead of O(pulses).  It is the
    one scan loop every simulated scan runs, here on the calling thread
    alone: each chunk is drawn into one reused buffer and scratch and added to
    the stitch, which reduces the whole blocks inside it in place, reduces the
    blocks that straddle chunk boundaries and drops a trailing partial block.
    """
    return _stream_scans([config], block_size, chunk_size, threads=1)[0]


def theta_scan(
    config: RunConfig, thetas
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Noise-ellipse extremes of the detected port as the relative phase is swept.

    The detected 2x2 covariance of every theta is built in one stack and
    diagonalized analytically; returns (thetas, min variance, max variance,
    LO phase of the minimum, modulo pi).  Electronic noise is included in the
    extremes.  Where the ellipse is a circle (v_max - v_min <= 1e-12 v_max,
    as with an arm blocked or a vacuum source) the minimum has no phase and
    phi_min is NaN.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if not np.isfinite(thetas).all():
        raise ValueError("thetas must be finite")
    g = _detected_covariances(config, thetas)
    g00, g11, g01 = g[:, 0, 0], g[:, 1, 1], g[:, 0, 1]
    mean = 0.5 * (g00 + g11)
    half = np.hypot(0.5 * (g00 - g11), g01)
    noise = config.detector.electronic_noise_var
    v_min, v_max = mean - half + noise, mean + half + noise
    # orientation of the major axis; minor axis is pi/2 away
    phi_min = (0.5 * np.arctan2(2.0 * g01, g00 - g11) + math.pi / 2.0) % math.pi
    phi_min[v_max - v_min <= 1e-12 * v_max] = np.nan
    return thetas, v_min, v_max, phi_min


def shot_noise_linearity_scan(
    detector: DetectorModel, lo_levels, pulses_per_level: int, seed: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Simulated raw-unit variance of a blocked-signal run versus LO pulse energy.

    The raw model is variance = gain * lo_photons + electronic offset, with
    the offset fixed by the detector's noise floor at its calibration LO
    level; a zero level is the dark measurement.  :data:`GAIN_PER_PHOTON`
    sets the arbitrary raw-unit scale.

    Returns (levels, sample variances), one variance per level from
    ``pulses_per_level`` Gaussian draws.
    """
    levels = np.atleast_1d(np.asarray(lo_levels, dtype=float))
    if levels.size == 0:
        raise ValueError("need at least one local-oscillator level")
    if not np.all((levels >= 0.0) & (levels < np.inf)):
        raise ValueError("lo_levels must be finite and >= 0")
    if pulses_per_level < 2:
        raise ValueError(f"need at least 2 pulses per level, got {pulses_per_level}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise FieldError("seed", f"must be a 64-bit unsigned integer, got {seed!r}")
    dark_var = detector.electronic_noise_var * GAIN_PER_PHOTON * detector.lo_photons_per_pulse
    variances = np.empty_like(levels)
    for i, level in enumerate(levels):
        true_var = GAIN_PER_PHOTON * level + dark_var
        rng = _chunk_rng(seed, _STREAM_SHOT_NOISE, i)
        samples = math.sqrt(true_var) * rng.standard_normal(pulses_per_level)
        variances[i] = samples.var(ddof=1)
    return levels, variances


def write_records(
    config: RunConfig, csv_path: str | Path, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Path:
    """Sample a run into a CSV, plus the JSON sidecar that regenerates it.

    The records are those of ``sample_pulses(config, chunk_size)``, drawn
    chunk by chunk into one reused buffer, so memory stays O(chunk_size).
    Each row is the bytes ``"%d,%.17g,%.17g\n" % row`` writes.  The
    sidecar, the CSV's path with suffix ``.json``, names the chunk size; a
    CSV path that already ends in ``.json`` raises ValueError.
    """
    from . import records  # compiled on first use, not by every run that imports simulate

    csv_path = Path(csv_path)
    sidecar = csv_path.with_suffix(".json")
    if sidecar == csv_path:
        raise ValueError(f"records path {csv_path} is its sidecar's path: use another suffix")
    chunks = _chunks(config, chunk_size, _STREAM_FAST)
    buffer, scratch = np.empty((2, min(chunk_size, len(config.schedule))))
    draw = _marginal_draw(config, chunk_size)
    with open(csv_path, "w") as fh:
        fh.write(records.HEADER + "\n")
        for start, stop, rng in chunks:
            values = draw(start, rng, buffer[: stop - start], scratch)
            fh.writelines(records.format_rows(start, config.schedule.values(start, stop), values))
    meta = Sidecar(FORMAT_VERSION, records.HEADER, len(config.schedule), chunk_size, config)
    sidecar.write_text(json.dumps(schema.to_dict(meta), indent=2) + "\n")
    return csv_path


def read_records(csv_path: str | Path) -> PulseTrain:
    """Read a CSV written by :func:`write_records`, for callers who want the whole train.

    The values are those np.loadtxt reads, bit for bit.  Malformed input,
    a row of other than 3 fields, a nan, an infinity or an index column
    other than 0, 1, ..., n - 1 included, raises ValueError naming the
    first offending line.
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


def _read_blocks(csv_path: Path, block_size: int):
    """``block_variance_trace(read_records(csv_path), block_size)`` and the record count
    bit for bit: each block of lines is added to a column stitch and a variance stitch
    as it is read, so memory is O(block + read block).  No full block is no error, so
    a caller can check the count first."""
    from . import records
    columns, variances = _Stitch(block_size, _fringe_columns), _Stitch(block_size, _reduce_blocks)
    rows = 0
    for phases, values, _ in records.read(csv_path):
        columns.add(rows, phases)
        variances.add(rows, values)
        rows += len(values)
    return columns.blocks(), variances.blocks(), rows


def read_metadata(csv_path: str | Path) -> dict:
    """Load the JSON sidecar belonging to a records CSV."""
    sidecar = Path(csv_path).with_suffix(".json")
    return json.loads(sidecar.read_text())
