"""From raw pulse records to corrected variances, witnesses and a reconstructed state.

The pipeline mirrors the experimental bookkeeping: block the pulse stream into
variance estimates, fit the sinusoidal phase dependence, undo the known
detection efficiency, and assemble the two-mode covariance from the corrected
squeezed and single-beam variances.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

from .entanglement import (
    duan_simon,
    formation_entropy,
    reid_epr_product,
    SEPARABILITY_THRESHOLD,
)
from . import schema
from .gaussian import Matrix, physicality_check, symmetric_two_mode_covariance
from .simulate import DEFAULT_BLOCK_SIZE, PhaseSchedule, RunConfig, _stream_scans

#: Largest condition number of a fit's design [1, cos 2phi, sin 2phi], one
#: row per block.  Short blocks spread evenly over an LO phase span of pi
#: give sqrt 2, over 0.6 pi 3.2 and over pi/2 4.7; a ramp over 4 pi cut
#: into 6 blocks gives 3.4 and into 5 blocks 6.0.
_MAX_CONDITION = 4.0


@dataclass(frozen=True)
class ScanEstimate:
    """Fitted extremes of one phase-scan: min/max variance, location, 1-sigma error."""

    v_min: float
    v_max: float
    phase_at_min: float
    stderr: float
    n_blocks: int


def fit_variance_curve(
    columns: NDArray[np.float64],
    variances: NDArray[np.float64],
    samples_per_block: int,
) -> ScanEstimate:
    """Weighted least-squares fit of a block-variance trace to a + b cos(2 phi + c).

    A block's expected variance is a + (b cos c) C - (b sin c) S, where C and
    S are its pulses' means of cos 2phi and sin 2phi, so the fit is linear
    in those columns and exact however far the phase moves within a block.
    Weights follow the chi-square error of an unbiased sample variance,
    var(s^2) = 2 s^4 / (n - 1), and are propagated through the linear
    reparameterization (a, b cos c, -b sin c) to 1-sigma errors on the
    extremes a -/+ |b|.  A nan or an infinity in the columns or the
    variances is refused before either is used.  Columns that do not
    determine the fringe are refused: a rank-deficient design [1, C, S], or
    one whose condition number exceeds :data:`_MAX_CONDITION`.

    Parameters
    ----------
    columns : array of shape (blocks, 2)
        Mean cos 2phi and mean sin 2phi of each block, as
        :func:`~cvpulse.simulate.block_variance_trace` returns them.
    variances : array
        Unbiased variance of each block of pulses.
    samples_per_block : int
        Pulses that entered each variance estimate.

    Returns
    -------
    ScanEstimate
        ``stderr`` is the larger of the two propagated extreme errors and
        ``phase_at_min`` is reported modulo pi.
    """
    columns = np.asarray(columns, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if variances.ndim != 1 or columns.shape != (variances.size, 2):
        raise ValueError(
            "columns must hold one (cos, sin) row per block of the 1-d variances"
        )
    for name, values in (("columns", columns), ("variances", variances)):
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite block {name}: the fit needs finite values")
    n_blocks = len(variances)
    if n_blocks < 4:
        raise ValueError(f"need at least 4 blocks to fit 3 parameters, got {n_blocks}")
    design = np.column_stack([np.ones(n_blocks), columns])
    singular = np.linalg.svd(design, compute_uv=False)
    if not singular[-1] > singular[0] * n_blocks * np.finfo(float).eps:
        raise ValueError(
            f"degenerate fit: the {n_blocks} blocks' means of cos 2phi and sin 2phi do "
            "not sample the fringe independently; use more pulses per scan or a "
            "smaller block"
        )
    if singular[0] > _MAX_CONDITION * singular[-1]:
        raise ValueError(
            f"phase coverage too small: the {n_blocks} blocks must span enough of the "
            "fringe that the fit's condition number stays at most "
            f"{_MAX_CONDITION:g}, got {singular[0] / singular[-1]:.3g}; scan an LO "
            "phase span of pi in blocks that each span well under pi"
        )
    if samples_per_block < 2:
        raise ValueError(f"samples_per_block must be >= 2, got {samples_per_block}")
    # the largest variance has the smallest weight (n - 1) / (2 s^4), and it
    # is 0 where 2 s^4 overflows
    largest = float(variances.max())
    if not largest * largest < sys.float_info.max / 2.0:
        raise ValueError(
            f"fit weights overflow: block variances reach {largest:.3g}, and the "
            "weights (n - 1) / (2 s^4) of those above about 9.5e153 are 0"
        )
    weights = (samples_per_block - 1) / (2.0 * np.maximum(variances, 1e-12) ** 2)
    sqrt_w = np.sqrt(weights)
    coef = np.linalg.lstsq(design * sqrt_w[:, None], variances * sqrt_w, rcond=None)[0]
    offset, cos_amp, sin_amp = coef
    amplitude = math.hypot(cos_amp, sin_amp)
    # parameter covariance of weighted LSQ with known per-point variances
    param_cov = np.linalg.inv(design.T @ (weights[:, None] * design))
    if amplitude > 0.0:
        grad = np.array([1.0, cos_amp / amplitude, sin_amp / amplitude])
    else:
        grad = np.array([1.0, 0.0, 0.0])
    err_max = math.sqrt(max(grad @ param_cov @ grad, 0.0))
    grad[1:] = -grad[1:]
    err_min = math.sqrt(max(grad @ param_cov @ grad, 0.0))
    # a + b cos(2 phi + c) with b = amplitude, c = atan2(-sin_amp, cos_amp):
    # the minimum sits at 2 phi + c = pi.
    c_phase = math.atan2(-sin_amp, cos_amp)
    phase_at_min = ((math.pi - c_phase) / 2.0) % math.pi
    return ScanEstimate(
        v_min=float(offset - amplitude),
        v_max=float(offset + amplitude),
        phase_at_min=phase_at_min,
        stderr=max(err_min, err_max),
        n_blocks=n_blocks,
    )


def efficiency_inversion(
    v_measured: float, eta: float, extra_transmission: float = 1.0
) -> float:
    """Undo a known loss: infer the variance before a channel of transmission eta.

    Inverts v_meas = t * v + (1 - t) with t = eta * extra_transmission, the
    extra factor covering e.g. the half transmission of a single beam through
    the recombining beamsplitter.
    """
    t = eta * extra_transmission
    if not 0.0 < t <= 1.0:
        raise ValueError(f"total transmission must lie in (0, 1], got {t}")
    if not math.isfinite(v_measured):
        raise ValueError(f"measured variance must be finite, got {v_measured}")
    if v_measured <= 1.0 - t:
        raise ValueError(
            f"over-correction: measured variance {v_measured} is at or below the "
            f"vacuum floor {1.0 - t} of a channel with transmission {t}"
        )
    return 1.0 + (v_measured - 1.0) / t


@dataclass(frozen=True, eq=False)
class EntanglementReport:
    """Corrected variances, witnesses and reconstructed state of one analysis.

    ``corrected_variance`` and ``corrected_correlation`` are the diagonal and
    off-diagonal entries of the reconstructed two-mode covariance; the raw_*
    and stderr fields are populated by the Monte Carlo pipeline and left None
    for purely analytic reconstructions.
    """

    corrected_squeezed_variance: float
    corrected_variance: float
    corrected_correlation: float
    duan_simon: float
    entropy_of_formation: float
    reid_product: float
    nonseparable: bool
    covariance: Matrix = field(repr=False)
    efficiency_used: float | None = None
    duan_simon_stderr: float | None = None
    squeezed_stderr: float | None = None
    raw_squeezed_variance: float | None = None
    raw_antisqueezed_variance: float | None = None
    raw_single_beam_variance: float | None = None
    antisqueezed_consistent: bool | None = None
    seed: int | None = None
    pulses_per_scan: int | None = None

    def to_dict(self) -> dict:
        return schema.to_dict(self)

    def text_table(self) -> str:
        rows = [
            ("raw squeezed variance", self.raw_squeezed_variance),
            ("raw antisqueezed variance", self.raw_antisqueezed_variance),
            ("raw single-beam variance", self.raw_single_beam_variance),
            ("efficiency used", self.efficiency_used),
            ("corrected squeezed variance", self.corrected_squeezed_variance),
            ("corrected diagonal variance", self.corrected_variance),
            ("corrected correlation", self.corrected_correlation),
            ("sum variance (Duan-Simon)", self.duan_simon),
            ("entropy of formation [ebit]", self.entropy_of_formation),
            ("conditional-variance product (Reid)", self.reid_product),
        ]
        width = max(len(name) for name, _ in rows)
        lines = []
        for name, value in rows:
            if value is None:
                continue
            lines.append(f"{name:<{width}}  {value:10.4f}")
        verdict = "nonseparable" if self.nonseparable else "not certified nonseparable"
        lines.append(f"{'verdict':<{width}}  {verdict}")
        return "\n".join(lines)


def reconstruct_covariance(
    v_single_corrected: float, squeezed_corrected: float
) -> EntanglementReport:
    """Assemble the source covariance from two corrected variances.

    The diagonal variance is the corrected single-beam value and the
    correlation is its excess over the corrected squeezed variance; the
    antisqueezed prediction is then diagonal + correlation and is not a fit
    input.  The resulting matrix, ``report.covariance``, must pass the
    physicality check.
    """
    for name, value in (("v_single_corrected", v_single_corrected),
                        ("squeezed_corrected", squeezed_corrected)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    v = v_single_corrected
    k = v - squeezed_corrected
    gamma = symmetric_two_mode_covariance(v, k, k)
    verdict = physicality_check(gamma)
    if not verdict.passed:
        raise ValueError(
            f"reconstructed covariance is unphysical (min eigenvalue "
            f"{verdict.min_eigenvalue:.3e}); check the efficiency correction"
        )
    ds = duan_simon(gamma)
    return EntanglementReport(
        corrected_squeezed_variance=squeezed_corrected,
        corrected_variance=v,
        corrected_correlation=k,
        duan_simon=ds,
        # entropy_of_formation(gamma), whose symmetric-form and physicality
        # checks gamma has passed by construction and above
        entropy_of_formation=formation_entropy(math.sqrt((v - k) * (v - k))),
        reid_product=reid_epr_product(gamma),
        nonseparable=ds < SEPARABILITY_THRESHOLD,
        covariance=gamma,
    )


def _efficiency(config: RunConfig) -> float:
    """Detection efficiency of a run recombined 50/50, the only case reconstructed."""
    r = config.beamsplitter_r
    if r != 0.5:
        raise schema.FieldError("beamsplitter_r", f"reconstruction needs 0.5 (50/50), got {r}")
    return config.detector.efficiency


def report_from_levels(
    config: RunConfig,
    squeezed: float,
    squeezed_stderr: float,
    antisqueezed: float,
    single_beam: float | None = None,
) -> EntanglementReport:
    """Reconstruct the source from measured levels by undoing ``config``'s efficiency eta.

    The diagonal variance is the corrected single-beam level when a
    blocked-arm level was measured; otherwise it is the mean of the two
    corrected extremes, (antisqueezed + squeezed) / 2.  The sum-variance
    error is 2 sigma / eta, sigma being the squeezed level's 1-sigma error.
    """
    eta = _efficiency(config)
    squeezed_corr = efficiency_inversion(squeezed, eta)
    if single_beam is None:
        v_corr = 0.5 * (efficiency_inversion(antisqueezed, eta) + squeezed_corr)
    else:
        v_corr = efficiency_inversion(single_beam, eta, extra_transmission=0.5)
    return replace(
        reconstruct_covariance(v_corr, squeezed_corr),
        efficiency_used=eta,
        duan_simon_stderr=2.0 * squeezed_stderr / eta,
        squeezed_stderr=squeezed_stderr,
        raw_squeezed_variance=squeezed,
        raw_antisqueezed_variance=antisqueezed,
        raw_single_beam_variance=single_beam,
        seed=config.seed,
    )


def _scan_seeds(seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(count, np.uint64)
    return [int(s) for s in state]


def end_to_end_report(
    config: RunConfig,
    pulses_per_scan: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    subtract_electronic_noise: bool = False,
) -> EntanglementReport:
    """Simulate the full three-scan measurement protocol and analyze it.

    Three runs are generated from ``config``: recombined scans at relative
    phase 0 and pi (whose fitted minima must agree, since flipping the phase
    only turns the noise ellipse), and a single-beam run with the second arm
    blocked.  The two scan minima are combined, corrected for the detection
    efficiency, and the single-beam level, corrected for efficiency and the
    half transmission of the beamsplitter, fixes the diagonal variance.

    Each scan is drawn and blocked one RNG chunk at a time, never held whole.
    The chunks of all three scans form one queue, drawn by the one scan loop
    that :func:`~cvpulse.simulate.stream_block_variances` runs too: once each
    scan is at least one chunk long (``pulses_per_scan >=``
    :data:`~cvpulse.simulate.DEFAULT_CHUNK_SIZE`), by the calling thread and
    up to three threads it starts and joins, and otherwise by the calling
    thread alone.  Each chunk's blocks are filed with its scan by block index
    as soon as they are drawn, in any order, so a stalled chunk holds back no
    other.  The report does not depend on which thread drew which chunk: it
    is bit-identical either way.  Where threads draw, the process's CPU time
    can exceed the call's wall time.

    Parameters
    ----------
    config : RunConfig
        Template; its schedule is replaced by full-fringe ramps and its seed
        deterministically split across the three scans.
    pulses_per_scan : int
        Pulses per individual scan.
    block_size : int
        Pulses per variance block.
    subtract_electronic_noise : bool
        When True the configured electronic noise variance is removed from
        all measured variances before any correction.  Leaving a sizable
        noise floor unsubtracted makes the loss-only reconstruction
        overshoot the measured antisqueezed level, which the
        ``antisqueezed_consistent`` flag then reports.

    Raises
    ------
    RuntimeError
        If the two recombined scans' minima disagree beyond 4 sigma.  The
        extremes do not depend on the relative phase, so this flags a
        source or detector that drifted between the scans.
    FieldError
        If ``config.beamsplitter_r`` is not 0.5, before any scan is drawn.
    """
    eta = _efficiency(config)
    noise = config.detector.electronic_noise_var
    ramp = PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, pulses_per_scan)
    seeds = _scan_seeds(config.seed, 3)

    scans = [
        replace(config, schedule=ramp, theta=theta, blocked_arm=arm, seed=seed)
        for theta, arm, seed in zip((0.0, math.pi, 0.0), ("none", "none", "b"), seeds)
    ]
    zero, pi, (_, blocked_vars) = _stream_scans(scans, block_size)
    fit_zero = fit_variance_curve(*zero, block_size)
    fit_pi = fit_variance_curve(*pi, block_size)
    mismatch = abs(fit_zero.v_min - fit_pi.v_min)
    mismatch_err = math.hypot(fit_zero.stderr, fit_pi.stderr)
    if mismatch > 4.0 * mismatch_err:
        raise RuntimeError(
            f"recombined scans disagree: |{fit_zero.v_min:.4f} - {fit_pi.v_min:.4f}| "
            f"exceeds 4 x {mismatch_err:.4f}; the source or detector drifted between scans"
        )
    single_level = float(blocked_vars.mean())
    single_err = float(blocked_vars.std(ddof=1) / math.sqrt(len(blocked_vars)))

    # inverse-variance combination of the two equivalent squeezed minima
    w_zero = 1.0 / fit_zero.stderr**2
    w_pi = 1.0 / fit_pi.stderr**2
    squeezed_meas = (w_zero * fit_zero.v_min + w_pi * fit_pi.v_min) / (w_zero + w_pi)
    squeezed_err = 1.0 / math.sqrt(w_zero + w_pi)
    antisqueezed_meas = 0.5 * (fit_zero.v_max + fit_pi.v_max)
    if subtract_electronic_noise:
        squeezed_meas -= noise
        antisqueezed_meas -= noise
        single_level -= noise

    report = report_from_levels(
        config, squeezed_meas, squeezed_err, antisqueezed_meas, single_level
    )

    # The antisqueezed extreme is a prediction, not a fit input; compare at
    # 4 sigma.  The budget needs both sides: the measured average and the
    # prediction, whose single-beam term is amplified by 1 / (eta / 2).
    # Unsubtracted electronic noise biases the prediction by ~3x the noise
    # variance and is meant to trip this flag.
    predicted_antisq = eta * (report.corrected_variance + report.corrected_correlation)
    predicted_antisq += 1.0 - eta + (0.0 if subtract_electronic_noise else noise)
    meas_err = math.hypot(fit_zero.stderr, fit_pi.stderr) / 2.0
    pred_err = math.hypot(4.0 * single_err, squeezed_err)
    antisq_err = math.hypot(meas_err, pred_err)
    consistent = abs(antisqueezed_meas - predicted_antisq) <= 4.0 * antisq_err
    return replace(
        report, antisqueezed_consistent=consistent, pulses_per_scan=pulses_per_scan
    )
