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
from .gaussian import (PHYSICALITY_TOL, Matrix, symmetric_min_eigenvalue,
                       symmetric_two_mode_covariance)
from .simulate import (DEFAULT_BLOCK_SIZE, PhaseSchedule, RunConfig, _block_columns,
                       _check_size, _reduce_blocks, _stream_scans)

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
    var(s^2) = 2 s^4 / (n - 1).  The fit is one Householder QR of the
    weighted system [1, C, S | y] (``np.linalg.qr``, mode "raw"), which,
    unlike the normal equations, does not square the weighted design's
    condition number.  Back substitution in its triangle R gives
    (a, b cos c, -b sin c), whose covariance R^-1 R^-T is propagated through
    the reparameterization to the 1-sigma errors of the extremes a -/+ |b|.
    Columns that do not determine the fringe are refused first: a nan or an
    infinity in them, fewer than 4 blocks, a rank-deficient design [1, C, S]
    or one whose condition number exceeds :data:`_MAX_CONDITION`.  Then a
    ``samples_per_block`` that is not an integer of at least 2 is, then a nan
    or an infinity in the variances and, naming its block, a variance not
    above 0.  This is the one-scan case of the fit :func:`end_to_end_report`
    makes of its two recombined scans at once.

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
    _check_design(columns)
    _check_size("samples_per_block", samples_per_block, 2)
    return _fit_scans(columns, variances[None], samples_per_block)[0]


def _check_design(columns) -> None:
    """Refuse (blocks, 2) fringe columns that do not determine the fringe: a nan or an
    infinity in them, fewer than 4 blocks, or a design [1, C, S] that is rank-deficient
    or whose condition number exceeds :data:`_MAX_CONDITION`, by one SVD.  The design
    depends on the schedule alone, so :func:`end_to_end_report` checks it before any
    scan is drawn."""
    n_blocks = len(columns)
    if not np.isfinite(columns).all():
        raise ValueError("non-finite block columns: the fit needs finite values")
    if n_blocks < 4:
        raise ValueError(f"need at least 4 blocks to fit 3 parameters, got {n_blocks}")
    design = np.column_stack((np.ones(n_blocks), columns))  # [1, C, S]
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


def _fit_scans(columns, variances, samples_per_block: int) -> list[ScanEstimate]:
    """:func:`fit_variance_curve` of each row of ``variances`` (scans, blocks), bit for bit,
    over the (blocks, 2) ``columns`` all scans share, which, like ``samples_per_block``,
    the caller has checked: one stack of systems [1, C, S | y], the variances' checks
    and one stacked QR, each of whose slices is the QR of that scan alone."""
    n_blocks = len(columns)
    system = np.empty((len(variances), n_blocks, 4))  # [1, C, S | y] per scan
    system[:, :, 0] = 1.0
    system[:, :, 1:3] = columns
    system[:, :, 3] = variances
    if not np.isfinite(system[:, :, 3]).all():
        raise ValueError("non-finite block variances: the fit needs finite values")
    lowest = system[:, :, 3].min(axis=0)
    if not (lowest > 0.0).all():
        block = int(np.flatnonzero(lowest <= 0.0)[0])
        raise ValueError(
            f"block {block} has variance {float(lowest[block])!r}, not above 0: the fit "
            "weights (n - 1) / (2 s^4) need positive block variances"
        )
    # the largest variance has the smallest weight (n - 1) / (2 s^4), and it
    # is 0 where 2 s^4 overflows
    for largest in system[:, :, 3].max(axis=1).tolist():
        if not largest * largest < sys.float_info.max / 2.0:
            raise ValueError(
                f"fit weights overflow: block variances reach {largest:.3g}, and the "
                "weights (n - 1) / (2 s^4) of those above about 9.5e153 are 0"
            )
    weights = (samples_per_block - 1) / (2.0 * np.maximum(system[:, :, 3], 1e-12) ** 2)
    system *= np.sqrt(weights)[:, :, None]
    # each slice of the raw factor holds R^T in the lower triangle of its first
    # four columns: R's first three columns are the weighted design's
    # triangle, its fourth Q^T y
    return [_scan_estimate(raw.tolist(), n_blocks)
            for raw in np.linalg.qr(system, mode="raw")[0][:, :, :4]]


def _scan_estimate(raw: list[list[float]], n_blocks: int) -> ScanEstimate:
    """The extremes and their errors from one scan's R^T, as :func:`_fit_scans` reads it."""
    (r00, _, _, _), (r01, r11, _, _), (r02, r12, r22, _), (z0, z1, z2, _) = raw
    sin_amp = z2 / r22
    cos_amp = (z1 - r12 * sin_amp) / r11
    offset = (z0 - r01 * cos_amp - r02 * sin_amp) / r00
    amplitude = math.hypot(cos_amp, sin_amp)

    def error(g0: float, g1: float, g2: float) -> float:
        # sqrt(g^T R^-1 R^-T g): R^-1 R^-T is the parameter covariance of a
        # weighted fit with known per-point variances, and R^-T g is solved by
        # forward substitution
        x0 = g0 / r00
        x1 = (g1 - r01 * x0) / r11
        x2 = (g2 - r02 * x0 - r12 * x1) / r22
        return math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)

    unit_cos = unit_sin = 0.0
    if amplitude > 0.0:
        unit_cos, unit_sin = cos_amp / amplitude, sin_amp / amplitude
    err_max = error(1.0, unit_cos, unit_sin)
    err_min = error(1.0, -unit_cos, -unit_sin)
    # a + b cos(2 phi + c) with b = amplitude, c = atan2(-sin_amp, cos_amp):
    # the minimum sits at 2 phi + c = pi.
    c_phase = math.atan2(-sin_amp, cos_amp)
    phase_at_min = ((math.pi - c_phase) / 2.0) % math.pi
    return ScanEstimate(
        v_min=offset - amplitude,
        v_max=offset + amplitude,
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
    input.  The resulting matrix, ``report.covariance``, must be physical:
    its :func:`~cvpulse.gaussian.symmetric_min_eigenvalue`, v - hypot(k, 1),
    is at least -PHYSICALITY_TOL.
    """
    for name, value in (("v_single_corrected", v_single_corrected),
                        ("squeezed_corrected", squeezed_corrected)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    v = v_single_corrected
    k = v - squeezed_corrected
    min_eigenvalue = symmetric_min_eigenvalue(v, k, k)
    if not min_eigenvalue >= -PHYSICALITY_TOL:
        raise ValueError(
            f"reconstructed covariance is unphysical (min eigenvalue "
            f"{min_eigenvalue:.3e}); check the efficiency correction"
        )
    gamma = symmetric_two_mode_covariance(v, k, k)
    ds = duan_simon(gamma)
    return EntanglementReport(
        corrected_squeezed_variance=squeezed_corrected,
        corrected_variance=v,
        corrected_correlation=k,
        duan_simon=ds,
        # entropy_of_formation(gamma), whose symmetric-form and physicality
        # checks gamma has passed by construction and above; its argument
        # sqrt((v - k) * (v - k)) rounds to v - k exactly
        entropy_of_formation=formation_entropy(v - k),
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

    Each scan is drawn and blocked one RNG chunk at a time, never held whole,
    by the one scan loop, :func:`~cvpulse.simulate._stream_scans`, which also
    picks the threads; the report is bit-identical whichever thread drew
    which chunk.

    The two recombined scans ramp alike, so they share one fit design and are
    fitted by one stacked QR over it, each as :func:`fit_variance_curve` fits it.

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
    ValueError
        Before any scan is drawn: a FieldError if ``config.beamsplitter_r`` is
        not 0.5, one naming the count if a scan holds fewer than 4 blocks, and
        one if the ramp's blocks do not determine the fringe (see
        :func:`fit_variance_curve`).
    """
    eta = _efficiency(config)
    noise = config.detector.electronic_noise_var
    ramp = PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, pulses_per_scan)
    columns = _block_columns(ramp, block_size)
    _check_design(columns)
    seeds = np.random.SeedSequence(config.seed).generate_state(3, np.uint64).tolist()

    scans = [
        replace(config, schedule=ramp, theta=theta, blocked_arm=arm, seed=seed)
        for theta, arm, seed in zip((0.0, math.pi, 0.0), ("none", "none", "b"), seeds)
    ]
    zero_vars, pi_vars, blocked_vars = _stream_scans(scans, block_size)
    fit_zero, fit_pi = _fit_scans(columns, (zero_vars, pi_vars), block_size)
    mismatch = abs(fit_zero.v_min - fit_pi.v_min)
    mismatch_err = math.hypot(fit_zero.stderr, fit_pi.stderr)
    if mismatch > 4.0 * mismatch_err:
        raise RuntimeError(
            f"recombined scans disagree: |{fit_zero.v_min:.4f} - {fit_pi.v_min:.4f}| "
            f"exceeds 4 x {mismatch_err:.4f}; the source or detector drifted between scans"
        )
    single_level = float(blocked_vars.mean())
    # std(ddof=1), the square root of the variance of a one-row copy
    single_sd = math.sqrt(_reduce_blocks(blocked_vars[None].copy())[0])
    single_err = single_sd / math.sqrt(len(blocked_vars))

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
