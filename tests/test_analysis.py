"""Fitting, efficiency inversion, covariance reconstruction, full pipeline."""

import itertools
import math
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from cvpulse.analysis import (
    EntanglementReport,
    _fit_scans,
    efficiency_inversion,
    end_to_end_report,
    fit_variance_curve,
    reconstruct_covariance,
    report_from_levels,
)
from cvpulse.entanglement import entropy_of_formation, formation_entropy
from cvpulse.schema import FieldError
from cvpulse.gaussian import (
    PHYSICALITY_TOL,
    SourceSpec,
    physicality_check,
    symmetric_min_eigenvalue,
    symmetric_two_mode_covariance,
)
from cvpulse.scenario import reference_scenario
from cvpulse.simulate import (
    DEFAULT_CHUNK_SIZE,
    DetectorModel,
    PhaseSchedule,
    PulseTrain,
    RunConfig,
    block_variance_trace,
    detected_variance,
    sample_pulses,
    stream_block_variances,
)

from fit_reference import lstsq_fit, normal_equations_fit
from gaussian_reference import source_covariance

FLAT_DETECTOR = DetectorModel(
    eta_transmission=0.68,
    eta_homodyne=1.0,
    eta_detector=1.0,
    electronic_noise_var=0.0,
)


def _reference_config(schedule, seed=12345, **overrides):
    base = dict(
        source=SourceSpec.symmetric_mixed(1.50, 0.94),
        detector=FLAT_DETECTOR,
        schedule=schedule,
        seed=seed,
    )
    base.update(overrides)
    return RunConfig(**base)


def _noiseless_detector(eta):
    return DetectorModel(
        eta_transmission=eta, eta_homodyne=1.0, eta_detector=1.0, electronic_noise_var=0.0
    )


def _point_columns(phases):
    """Fringe columns of blocks whose pulses all sit at one phase each."""
    return np.column_stack([np.cos(2.0 * phases), np.sin(2.0 * phases)])


def test_fit_recovers_exact_sinusoid():
    """A noiseless a + b cos(2 phi) curve is recovered to near machine precision."""
    phases = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
    variances = 1.33 + 0.63 * np.cos(2.0 * phases)
    estimate = fit_variance_curve(_point_columns(phases), variances, samples_per_block=2500)
    assert estimate.v_min == pytest.approx(0.70, abs=1e-9)
    assert estimate.v_max == pytest.approx(1.96, abs=1e-9)
    assert estimate.phase_at_min == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert estimate.n_blocks == 40
    assert estimate.stderr > 0.0


def test_fit_recovers_shifted_minimum():
    """An arbitrary phase offset lands the minimum where the curve says."""
    phases = np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)
    variances = 1.2 + 0.4 * np.cos(2.0 * phases + 0.8)
    estimate = fit_variance_curve(_point_columns(phases), variances, samples_per_block=1000)
    assert estimate.v_min == pytest.approx(0.8, abs=1e-9)
    expected_min = ((math.pi - 0.8) / 2.0) % math.pi
    assert estimate.phase_at_min == pytest.approx(expected_min, abs=1e-9)


def test_fit_input_validation(capfd):
    """Too few blocks, short span, degenerate pattern, bad block size,
    overflowing weights, a nan or an infinity in the input and a variance not
    above 0 all raise, the last two before any of it reaches LAPACK.  A bad
    design is named before the variances are looked at."""
    phases = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
    columns = _point_columns(phases)
    variances = np.ones_like(phases)
    with pytest.raises(ValueError, match="4 blocks"):
        fit_variance_curve(columns[:3], variances[:3], 100)
    with pytest.raises(ValueError, match="span"):
        fit_variance_curve(_point_columns(phases[:10] * 0.1), variances[:10], 100)
    for bad in (1, math.nan, math.inf, 2.5, True):
        with pytest.raises(ValueError, match="samples_per_block"):
            fit_variance_curve(columns, variances, bad)
    assert fit_variance_curve(columns, variances, np.int64(100)) == fit_variance_curve(
        columns, variances, 100
    )
    # exactly two distinct phases pi apart: spans pi but cannot fix 3 parameters
    degenerate = np.array([0.0, math.pi, 0.0, math.pi, 0.0, math.pi])
    with pytest.raises(ValueError, match="degenerate"):
        fit_variance_curve(_point_columns(degenerate), np.ones(6), 100)
    with pytest.raises(ValueError):
        fit_variance_curve(columns, variances[:-1], 100)
    with pytest.raises(ValueError):
        fit_variance_curve(phases, variances, 100)  # phases, not columns
    # block variances of a pure_nopa r = 200 source: their weights 1 / s^4 overflow to 0
    with pytest.raises(ValueError, match="fit weights overflow"):
        fit_variance_curve(columns, math.exp(400.0) * (1.0 + 0.5 * np.cos(2.0 * phases)), 100)
    for bad in (math.nan, math.inf):
        spoiled = columns.copy()
        spoiled[5, 0] = bad
        with pytest.raises(ValueError, match="non-finite block columns"):
            fit_variance_curve(spoiled, variances, 100)
    spoiled = variances.copy()
    spoiled[5] = math.nan
    with pytest.raises(ValueError, match="non-finite block variances"):
        fit_variance_curve(columns, spoiled, 100)
    # the design is refused before the variances are looked at
    spoiled = np.ones(6)
    spoiled[2] = math.nan
    with pytest.raises(ValueError, match="degenerate"):
        fit_variance_curve(_point_columns(degenerate), spoiled, 100)
    # a variance at or below 0 would take the weight of the clamped 1e-12, or a
    # finite one of its own, and drag the fitted minimum below 0
    for bad in (-1.0, 0.0, -0.0):
        spoiled = variances.copy()
        spoiled[7] = bad
        with pytest.raises(ValueError, match=f"block 7 has variance {bad!r}, not above 0"):
            fit_variance_curve(columns, spoiled, 100)
    assert capfd.readouterr() == ("", "")


def _relative(value, reference):
    return abs(value - reference) / abs(reference)


def _assert_fit_agrees(fit, reference, stderr_tol=1e-12):
    """Both extremes and the minimum's phase to 1e-12 relative, stderr to ``stderr_tol``."""
    assert _relative(fit.v_min, reference.v_min) <= 1e-12
    assert _relative(fit.v_max, reference.v_max) <= 1e-12
    assert _relative(fit.phase_at_min, reference.phase_at_min) <= 1e-12
    assert _relative(fit.stderr, reference.stderr) <= stderr_tol
    assert fit.n_blocks == reference.n_blocks


def _recombined_scans(config, pulses):
    """Both recombined scans of the three-scan protocol: ramps over 4 pi at theta 0 and pi."""
    ramp = PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, pulses)
    return [replace(config, schedule=ramp, theta=theta) for theta in (0.0, math.pi)]


def _assert_stack_is_each_row(columns, stack, samples_per_block):
    """The stacked fit of the rows of ``stack`` is each row's own fit, bit for bit."""
    fits = [fit_variance_curve(columns, row, samples_per_block) for row in stack]
    assert _fit_scans(columns, stack, samples_per_block) == fits


def test_fit_agrees_with_the_lstsq_reference_on_the_reference_run():
    """The QR solve and the reference's lstsq solve give the same fit of both
    recombined scans of a reference run: 10^6 pulses each, blocks of 2500.
    Fitted as one stack, the two scans give their own fits bit for bit."""
    scans = [stream_block_variances(scan, 2500)
             for scan in _recombined_scans(reference_scenario().config, 1_000_000)]
    for columns, variances in scans:
        _assert_fit_agrees(fit_variance_curve(columns, variances, 2500),
                           lstsq_fit(columns, variances, 2500))
    np.testing.assert_array_equal(scans[0][0], scans[1][0])
    _assert_stack_is_each_row(scans[0][0], np.stack([v for _, v in scans]), 2500)


def test_fit_agrees_with_the_lstsq_reference_over_the_sweep_grid():
    """The benchmark's sweep grid (three sources, three transmissions, with and
    without electronic noise; 2 x 10^4 pulses per scan, blocks of 500): every
    recombined scan fits as the reference's lstsq solve fits it, and a point's
    two scans fitted as one stack give their own fits bit for bit."""
    grid = itertools.product(((1.5, 0.94), (1.5, 0.6), (2.0, 1.3)), (0.93, 0.85, 0.75),
                             (0.0, 10.0**-1.1))
    for seed, ((v, k), transmission, noise) in enumerate(grid):
        config = RunConfig(
            source=SourceSpec.symmetric_mixed(v, k),
            detector=DetectorModel(eta_transmission=transmission, eta_homodyne=0.88,
                                   eta_detector=0.945, electronic_noise_var=noise),
            schedule=PhaseSchedule.constant(0.0, 1),
            seed=seed,
        )
        scans = [stream_block_variances(scan, 500) for scan in _recombined_scans(config, 20_000)]
        for columns, variances in scans:
            _assert_fit_agrees(fit_variance_curve(columns, variances, 500),
                               lstsq_fit(columns, variances, 500))
        _assert_stack_is_each_row(scans[0][0], np.stack([v for _, v in scans]), 500)


def test_fit_keeps_its_digits_when_the_weights_span_fifteen_decades():
    """A pure_nopa r = 6 source seen ideally, 2 x 10^5 pulses in blocks of 10:
    the block variances span about 7e7, so the weights span about 5e15 and
    the weighted design is ill-conditioned.  The fit still agrees with the
    reference's lstsq solve to 1e-12 in both extremes, and its error with the
    one the reference takes from the weighted design's SVD to 1e-10.  Normal
    equations, which square the condition, miss v_min by about 1e-3 here.
    Stacked with its theta = pi scan, the scan keeps its own fit bit for bit."""
    ideal = DetectorModel(eta_transmission=1.0, eta_homodyne=1.0, eta_detector=1.0,
                          electronic_noise_var=0.0)
    config = RunConfig(
        source=SourceSpec.pure_nopa(6.0),
        detector=ideal,
        schedule=PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, 200_000),
        seed=3,
    )
    columns, variances = stream_block_variances(config, 10)
    assert variances.max() / variances.min() > 1e7
    reference = lstsq_fit(columns, variances, 10, covariance="svd")
    _assert_fit_agrees(fit_variance_curve(columns, variances, 10), reference, stderr_tol=1e-10)
    shortcut = normal_equations_fit(columns, variances, 10)
    assert _relative(shortcut.v_min, reference.v_min) > 1e-6
    _, flipped = stream_block_variances(replace(config, theta=math.pi), 10)
    _assert_stack_is_each_row(columns, np.stack([variances, flipped]), 10)


def _fit_phase_scan(train, block_size=2500):
    return fit_variance_curve(*block_variance_trace(train, block_size), block_size)


def test_fit_phase_scan_on_simulated_fringe():
    """A 10^6-pulse simulated scan reproduces the analytic extremes."""
    schedule = PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, 1_000_000)
    estimate = _fit_phase_scan(sample_pulses(_reference_config(schedule)))
    assert estimate.n_blocks == 400
    assert estimate.v_min == pytest.approx(0.7008, abs=0.01)
    assert estimate.v_max == pytest.approx(1.9792, abs=0.02)
    assert estimate.phase_at_min == pytest.approx(math.pi / 2.0, abs=0.02)
    assert abs(estimate.v_min - 0.7008) <= 4.0 * estimate.stderr


def test_fit_phase_scan_on_vacuum():
    """A blocked-signal scan fits a flat unit curve within its own error bars."""
    schedule = PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, 400_000)
    cfg = _reference_config(schedule, blocked_arm="signal", seed=4)
    estimate = _fit_phase_scan(sample_pulses(cfg))
    assert abs(estimate.v_min - 1.0) <= 5.0 * estimate.stderr
    assert abs(estimate.v_max - 1.0) <= 5.0 * estimate.stderr


def test_efficiency_inversion_reference_values():
    """The published corrections: 0.70 -> 0.56-ish and 1.17 -> 1.50 exactly."""
    assert efficiency_inversion(0.70, 0.68) == pytest.approx(
        1.0 - 0.30 / 0.68, rel=1e-12
    )
    assert efficiency_inversion(0.7008, 0.68) == pytest.approx(0.56, abs=1e-12)
    assert efficiency_inversion(1.17, 0.68, extra_transmission=0.5) == pytest.approx(
        1.50, abs=1e-12
    )


def test_efficiency_inversion_is_exact_inverse():
    """Applying loss then inverting it returns the input variance."""
    rng = np.random.default_rng(8)
    for _ in range(100):
        v = rng.uniform(0.2, 5.0)
        t = rng.uniform(0.05, 1.0)
        measured = t * v + (1.0 - t)
        assert efficiency_inversion(measured, t) == pytest.approx(v, rel=1e-12)


def test_efficiency_inversion_rejects_bad_input():
    with pytest.raises(ValueError):
        efficiency_inversion(0.7, 0.0)
    with pytest.raises(ValueError):
        efficiency_inversion(0.7, 1.2)
    with pytest.raises(ValueError, match="over-correction"):
        efficiency_inversion(0.31, 0.68)  # below the vacuum floor 0.32
    with pytest.raises(ValueError, match="over-correction"):
        efficiency_inversion(1.0 - 0.68, 0.68)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="measured variance"):
            efficiency_inversion(bad, 0.9)
    with pytest.raises(ValueError, match="transmission"):
        efficiency_inversion(0.7, math.nan)


def test_reconstruct_covariance_reference_state():
    """The published corrected pair (1.50, 0.56) yields the published witnesses."""
    report = reconstruct_covariance(1.50, 0.56)
    np.testing.assert_allclose(
        report.covariance, symmetric_two_mode_covariance(1.50, 0.94, 0.94), atol=1e-12
    )
    assert report.corrected_correlation == pytest.approx(0.94, abs=1e-12)
    assert report.duan_simon == pytest.approx(1.12, abs=1e-12)
    assert report.entropy_of_formation == pytest.approx(0.4352253867881952, abs=1e-12)
    assert report.reid_product == pytest.approx(0.8297995377777778, abs=1e-12)
    assert report.nonseparable
    assert report.raw_squeezed_variance is None  # analytic route carries no raw data


def test_reconstruct_covariance_rejects_unphysical():
    """A squeezed value too small for the diagonal variance is caught."""
    with pytest.raises(ValueError, match="unphysical"):
        reconstruct_covariance(1.0, 0.1)
    with pytest.raises(ValueError):
        reconstruct_covariance(-1.0, 0.5)
    with pytest.raises(ValueError):
        reconstruct_covariance(1.5, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="v_single_corrected"):
            reconstruct_covariance(bad, 0.5)
        with pytest.raises(ValueError, match="squeezed_corrected"):
            reconstruct_covariance(1.5, bad)


def test_closed_form_physicality_is_the_eigenvalue_check():
    """reconstruct_covariance's verdict is physicality_check's: over a grid of
    symmetric states, vacuum (minimum eigenvalue 0) and pure states on the
    boundary v^2 - k^2 = 1 among them, a state is accepted exactly when
    physicality_check passes its covariance, and v - hypot(k, 1) is
    physicality_check's minimum eigenvalue to 1e-12.  An accepted state's
    entropy, formation_entropy(v - k), is entropy_of_formation of its
    covariance bit for bit.  Over 10^4 random (v, k_x, k_p), k_x != k_p and
    unphysical states among them, symmetric_min_eigenvalue is that eigenvalue
    to 1e-12 of the largest variance v + max(|k_x|, |k_p|), with its verdict."""
    pure = [(math.cosh(2.0 * r), sign * math.sinh(2.0 * r))
            for r in (0.0, 0.1, 0.472, 1.0, 1.5) for sign in (1.0, -1.0)]
    # k < v: a squeezed variance v - k of 0 is refused before the check
    mixed = [(v, k) for v in (1.0, 1.2, 1.5, 2.0, 5.0)
             for k in np.linspace(-v, v, 21)[:-1].tolist()]
    # just inside and just outside the tolerance of 1e-9 below the boundary
    edge = [(math.hypot(k, 1.0) + shift, k) for k in (0.3, 0.94, 2.0)
            for shift in (-5e-10, -2e-9)]
    assert (1.0, 0.0) in pure
    for v, k in pure + mixed + edge:
        gamma = symmetric_two_mode_covariance(v, k, k)
        verdict = physicality_check(gamma)
        assert abs((v - math.hypot(k, 1.0)) - verdict.min_eigenvalue) <= 1e-12
        if verdict.passed:
            report = reconstruct_covariance(v, v - k)
            assert math.isclose(report.corrected_correlation, k, rel_tol=1e-12,
                                abs_tol=1e-12)
            assert report.entropy_of_formation == entropy_of_formation(report.covariance)
        else:
            with pytest.raises(ValueError, match="unphysical"):
                reconstruct_covariance(v, v - k)
    rng = np.random.default_rng(32)
    passed = 0
    for _ in range(10_000):
        v = 10.0 ** rng.uniform(0.0, 3.0)
        k_x, k_p = rng.uniform(-1.2 * v, 1.2 * v, 2).tolist()
        verdict = physicality_check(symmetric_two_mode_covariance(v, k_x, k_p))
        min_eigenvalue = symmetric_min_eigenvalue(v, k_x, k_p)
        scale = v + max(abs(k_x), abs(k_p))
        assert abs(min_eigenvalue - verdict.min_eigenvalue) <= 1e-12 * scale
        assert (min_eigenvalue >= -PHYSICALITY_TOL) == verdict.passed
        passed += verdict.passed
    assert 0 < passed < 10_000


@pytest.mark.parametrize("single_v", [None, 1.6])
def test_report_from_levels_diagonal_rules(single_v):
    """A blocked-arm level fixes the diagonal; without one the corrected extremes do."""
    eta, v, k, sigma = 0.68, 1.50, 0.94, 0.004
    squeezed = eta * (v - k) + 1.0 - eta
    antisqueezed = eta * (v + k) + 1.0 - eta
    single = None if single_v is None else 0.5 * eta * single_v + 1.0 - 0.5 * eta
    config = _reference_config(PhaseSchedule.constant(0.0, 1), seed=7)  # efficiency 0.68
    report = report_from_levels(config, squeezed, sigma, antisqueezed, single)
    diagonal = v if single_v is None else single_v
    assert report.corrected_variance == pytest.approx(diagonal, abs=1e-12)
    assert report.corrected_squeezed_variance == pytest.approx(v - k, abs=1e-12)
    assert report.corrected_correlation == pytest.approx(diagonal - (v - k), abs=1e-12)
    np.testing.assert_array_equal(
        report.covariance,
        reconstruct_covariance(
            report.corrected_variance, report.corrected_squeezed_variance
        ).covariance,
    )
    assert report.efficiency_used == eta
    assert report.squeezed_stderr == sigma
    assert report.duan_simon_stderr == pytest.approx(2.0 * sigma / eta, rel=1e-15)
    assert report.raw_squeezed_variance == squeezed
    assert report.raw_antisqueezed_variance == antisqueezed
    assert report.raw_single_beam_variance == single
    assert report.seed == 7
    assert report.antisqueezed_consistent is None and report.pulses_per_scan is None


def test_single_beam_identity():
    """Blocked-arm detected variance equals eta/2 * V + 1 - eta/2 analytically."""
    rng = np.random.default_rng(17)
    for _ in range(100):
        v = rng.uniform(1.0, 3.0)
        k = rng.uniform(0.0, 0.999) * math.sqrt(v * v - 1.0)
        eta = rng.uniform(0.3, 1.0)
        cfg = RunConfig(
            source=SourceSpec.symmetric_mixed(v, k),
            detector=_noiseless_detector(eta),
            schedule=PhaseSchedule.constant(0.0, 1),
            blocked_arm="b",
        )
        phi = rng.uniform(0.0, 2.0 * math.pi)
        expected = 0.5 * eta * v + 1.0 - 0.5 * eta
        assert detected_variance(cfg, phi) == pytest.approx(expected, abs=1e-12)


def test_loss_inversion_round_trip():
    """Correcting the analytic detected variances recovers the source exactly."""
    rng = np.random.default_rng(23)
    for _ in range(100):
        v = rng.uniform(1.05, 3.0)
        k = rng.uniform(0.1, 0.999) * math.sqrt(v * v - 1.0)
        eta = rng.uniform(0.3, 1.0)
        source = SourceSpec.symmetric_mixed(v, k)
        cfg = RunConfig(
            source=source,
            detector=_noiseless_detector(eta),
            schedule=PhaseSchedule.constant(0.0, 1),
        )
        squeezed_meas = detected_variance(cfg, math.pi / 2.0)
        single_meas = detected_variance(
            RunConfig(
                source=source,
                detector=_noiseless_detector(eta),
                schedule=PhaseSchedule.constant(0.0, 1),
                blocked_arm="b",
            ),
            0.0,
        )
        squeezed_corr = efficiency_inversion(squeezed_meas, eta)
        v_corr = efficiency_inversion(single_meas, eta, extra_transmission=0.5)
        assert squeezed_corr == pytest.approx(v - k, rel=1e-9)
        assert v_corr == pytest.approx(v, rel=1e-9)
        report = reconstruct_covariance(v_corr, squeezed_corr)
        np.testing.assert_allclose(report.covariance, source_covariance(source), atol=1e-9)
        assert report.duan_simon == pytest.approx(2.0 * (v - k), rel=1e-9)


def test_end_to_end_report_reference_run():
    """The three-scan pipeline lands on the published values in one call."""
    cfg = _reference_config(PhaseSchedule.constant(0.0, 1))
    report = end_to_end_report(cfg, pulses_per_scan=400_000)
    assert report.raw_squeezed_variance == pytest.approx(0.7008, abs=0.01)
    assert report.raw_antisqueezed_variance == pytest.approx(1.9792, abs=0.03)
    assert report.raw_single_beam_variance == pytest.approx(1.17, abs=0.01)
    assert report.corrected_squeezed_variance == pytest.approx(0.56, abs=0.015)
    assert report.corrected_variance == pytest.approx(1.50, abs=0.03)
    assert report.duan_simon == pytest.approx(1.12, abs=0.03)
    assert report.entropy_of_formation == pytest.approx(0.44, abs=0.04)
    assert report.nonseparable
    assert report.antisqueezed_consistent
    assert report.efficiency_used == pytest.approx(0.68, abs=1e-12)
    assert report.seed == 12345
    assert report.pulses_per_scan == 400_000
    # internal consistency of the symmetric reconstruction
    assert report.duan_simon == pytest.approx(
        2.0 * report.corrected_squeezed_variance, rel=1e-9
    )
    assert report.duan_simon_stderr is not None and report.duan_simon_stderr > 0.0
    # report serializes and prints
    as_dict = report.to_dict()
    assert as_dict["duan_simon"] == report.duan_simon
    assert "verdict" in report.text_table()


def test_end_to_end_report_is_deterministic():
    """Same seed, same report; different seed, different raw numbers."""
    cfg = _reference_config(PhaseSchedule.constant(0.0, 1), seed=99)
    first = end_to_end_report(cfg, pulses_per_scan=50_000)
    second = end_to_end_report(cfg, pulses_per_scan=50_000)
    assert first.duan_simon == second.duan_simon
    assert first.raw_squeezed_variance == second.raw_squeezed_variance
    other = end_to_end_report(
        _reference_config(PhaseSchedule.constant(0.0, 1), seed=100), pulses_per_scan=50_000
    )
    assert other.raw_squeezed_variance != first.raw_squeezed_variance


def test_end_to_end_report_fits_both_recombined_scans_at_once(monkeypatch):
    """A report takes one QR and one SVD: its two recombined scans share one
    design, which is checked once and factored with both scans in one stack."""
    import cvpulse.analysis as analysis_module

    calls = {"qr": 0, "svd": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(analysis_module.np.linalg, name, counted)
    end_to_end_report(_reference_config(PhaseSchedule.constant(0.0, 1)), pulses_per_scan=50_000)
    assert calls == {"qr": 1, "svd": 1}


def test_end_to_end_error_bars_are_honest():
    """The 95% interval on the sum variance covers the truth at the right rate."""
    truth = 1.12
    hits = 0
    n_seeds = 200
    for seed in range(n_seeds):
        cfg = _reference_config(PhaseSchedule.constant(0.0, 1), seed=seed)
        report = end_to_end_report(cfg, pulses_per_scan=100_000)
        half_width = 1.96 * report.duan_simon_stderr
        if abs(report.duan_simon - truth) <= half_width:
            hits += 1
    assert 0.90 <= hits / n_seeds <= 1.00


def test_electronic_noise_subtraction():
    """Subtracting the electronic floor removes its bias from the correction."""
    noisy = DetectorModel(
        eta_transmission=0.68, eta_homodyne=1.0, eta_detector=1.0,
        electronic_noise_var=10.0**-1.1,
    )
    cfg = _reference_config(PhaseSchedule.constant(0.0, 1), detector=noisy, seed=7)
    biased = end_to_end_report(cfg, pulses_per_scan=200_000)
    clean = end_to_end_report(cfg, pulses_per_scan=200_000, subtract_electronic_noise=True)
    assert clean.corrected_squeezed_variance == pytest.approx(0.56, abs=0.03)
    bias = noisy.electronic_noise_var / noisy.efficiency
    assert (
        biased.corrected_squeezed_variance - clean.corrected_squeezed_variance
        == pytest.approx(bias, abs=0.01)
    )
    assert clean.antisqueezed_consistent
    # skipping the subtraction leaves a ~3x noise-variance gap the flag catches
    assert not biased.antisqueezed_consistent


def _wrap_draws(monkeypatch, wrap):
    """Make every scan's per-chunk draw ``wrap(config, draw)``, the seam every
    chunk task passes through, on the calling thread or on a pool thread."""
    import cvpulse.simulate as simulate_module

    real = simulate_module._marginal_draw
    monkeypatch.setattr(
        simulate_module, "_marginal_draw",
        lambda config, chunk_size: wrap(config, real(config, chunk_size)),
    )


def test_scan_mismatch_detection(monkeypatch):
    """A doctored phase-pi scan trips the cross-scan consistency guard."""

    def skewed(config, draw):
        if abs(config.theta - math.pi) > 1e-9:
            return draw

        def scaled(start, rng, out, scratch):
            out = draw(start, rng, out, scratch)
            out *= 1.3  # every pulse value scaled by 1.3
            return out

        return scaled

    _wrap_draws(monkeypatch, skewed)
    cfg = _reference_config(PhaseSchedule.constant(0.0, 1), seed=3)
    with pytest.raises(RuntimeError, match="disagree") as excinfo:
        end_to_end_report(cfg, pulses_per_scan=100_000)
    # the extremes do not depend on the relative phase, so the guard cannot
    # blame it: it names a drift between the scans
    message = str(excinfo.value)
    assert "drifted between scans" in message
    assert "phase" not in message


@pytest.mark.parametrize("r", [0.3, 0.1])
def test_end_to_end_report_rejects_an_unbalanced_beamsplitter(monkeypatch, r):
    """The reconstruction assumes a 50/50 recombination; any other r is refused
    before a scan's draw is built, not reported with a wrong Duan-Simon value."""

    def no_draw(config, draw):
        raise AssertionError("a scan was drawn")

    _wrap_draws(monkeypatch, no_draw)
    cfg = _reference_config(PhaseSchedule.constant(0.0, 1), beamsplitter_r=r)
    with pytest.raises(FieldError, match="beamsplitter_r") as excinfo:
        end_to_end_report(cfg, pulses_per_scan=100_000)
    assert excinfo.value.key == "beamsplitter_r"


@pytest.mark.parametrize("pulses, block, message", [
    (8000, 2000, "degenerate fit: the 4 blocks' means"),
    (10_000, 2000, "phase coverage too small: the 5 blocks"),
])
def test_end_to_end_report_refuses_a_design_before_any_draw(monkeypatch, pulses, block, message):
    """The fit's design depends on the ramp alone, so a report whose blocks do
    not determine the fringe (4 blocks of pi each, or 5 of 0.8 pi) is refused
    before a scan's draw is built, with the message the fit gives."""

    def no_draw(config, draw):
        raise AssertionError("a scan was drawn")

    _wrap_draws(monkeypatch, no_draw)
    cfg = _reference_config(PhaseSchedule.constant(0.0, 1))
    with pytest.raises(ValueError, match=message):
        end_to_end_report(cfg, pulses_per_scan=pulses, block_size=block)
    ramp = PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, pulses)
    columns, _ = block_variance_trace(PulseTrain(ramp.values(), np.ones(pulses)), block)
    with pytest.raises(ValueError, match=message):
        fit_variance_curve(columns, np.ones(len(columns)), block)


def _record_threads(monkeypatch):
    """The thread of every chunk drawn from now on, in the order drawn."""
    drawn_on = []

    def recorded(config, draw):
        def on_thread(*args):
            drawn_on.append(threading.get_ident())
            return draw(*args)

        return on_thread

    _wrap_draws(monkeypatch, recorded)
    return drawn_on


def test_scans_of_a_chunk_or_more_are_drawn_on_threads(monkeypatch):
    """The chunks of scans of at least one chunk are drawn concurrently; those
    of shorter scans, where a thread hand-off costs more than it saves, on the
    caller's thread alone."""
    drawn_on = _record_threads(monkeypatch)
    cfg = _reference_config(PhaseSchedule.constant(0.0, 1), seed=5)
    end_to_end_report(cfg, pulses_per_scan=200_000)
    assert len(drawn_on) == 3 * 4  # 200 000 pulses are 4 chunks of 65 536 or less
    assert len(set(drawn_on)) >= 2
    drawn_on.clear()
    end_to_end_report(cfg, pulses_per_scan=20_000, block_size=500)
    assert drawn_on == [threading.get_ident()] * 3


def test_one_streamed_scan_is_drawn_on_the_calling_thread(monkeypatch):
    """A single scan, even one of several chunks on two usable CPUs, is drawn
    chunk after chunk on the caller's thread: it has no other scan's chunks to
    share out, so it stays in the memory of one chunk task."""
    import os

    drawn_on = _record_threads(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = _reference_config(PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, 200_000), seed=5)
    stream_block_variances(cfg)
    assert drawn_on == [threading.get_ident()] * 4  # 200 000 pulses are 4 chunks


def test_scans_are_drawn_in_turn_on_one_usable_cpu(monkeypatch):
    """A process that may use a single CPU draws every chunk of even
    chunk-long scans on the caller's thread: there, threads only interleave."""
    import os

    drawn_on = _record_threads(monkeypatch)
    cfg = _reference_config(PhaseSchedule.constant(0.0, 1), seed=5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    expected = end_to_end_report(cfg, pulses_per_scan=200_000)
    assert drawn_on == [threading.get_ident()] * 12
    drawn_on.clear()
    monkeypatch.delattr(os, "sched_getaffinity")  # as where it does not exist
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    report = end_to_end_report(cfg, pulses_per_scan=200_000)
    assert report.duan_simon == expected.duan_simon
    assert drawn_on == [threading.get_ident()] * 12


def test_a_stalled_chunk_holds_back_no_other_chunk_and_no_memory(monkeypatch):
    """While the first chunk of a 10^6-pulse report stalls on one of two
    threads, the other draws every other chunk, and the report's traced peak
    stays within 1.1x that of a report that does not stall: each chunk's
    blocks are filed as soon as they are drawn, whatever a thread waits on."""
    import os
    import tracemalloc

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg, n = _reference_config(PhaseSchedule.constant(0.0, 1)), 1_000_000
    tasks = 3 * math.ceil(n / DEFAULT_CHUNK_SIZE)

    def traced_peak():
        tracemalloc.start()
        try:
            end_to_end_report(cfg, n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    end_to_end_report(cfg, n)  # builds the memoized tables first
    unstalled = traced_peak()
    drawn, drawn_during_stall = [], []
    others_drawn = threading.Event()

    def stalling(config, draw):
        first_scan = (config.theta, config.blocked_arm) == (0.0, "none")

        def stalled(start, *args):
            if first_scan and start == 0:
                others_drawn.wait(timeout=10.0)
                drawn_during_stall.append(len(drawn))
            out = draw(start, *args)
            drawn.append(start)
            if len(drawn) == tasks - 1:
                others_drawn.set()
            return out

        return stalled

    _wrap_draws(monkeypatch, stalling)
    stalled = traced_peak()
    assert drawn_during_stall == [tasks - 1]
    assert len(drawn) == tasks
    assert stalled <= 1.1 * unstalled


class _Interrupt(BaseException):
    """Raised as KeyboardInterrupt would be: no ``Exception``."""


def test_an_interrupt_on_a_pool_thread_stops_every_thread(monkeypatch):
    """A BaseException a draw raises on a pool thread reaches the caller; no
    task is taken after it but one the caller's thread may take before it is
    filed, and no pool thread outlives the call."""
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    caller, started, raised_at = threading.get_ident(), [], []
    interrupted = threading.Event()

    def interrupting(config, draw):
        def drawn(*args):
            started.append(threading.get_ident())
            if threading.get_ident() == caller:
                interrupted.wait(timeout=10.0)  # the pool thread takes a task first
            else:
                raised_at.append(len(started))
                interrupted.set()
                raise _Interrupt
            return draw(*args)

        return drawn

    _wrap_draws(monkeypatch, interrupting)
    before = threading.active_count()
    with pytest.raises(_Interrupt):
        end_to_end_report(_reference_config(PhaseSchedule.constant(0.0, 1)), 200_000)
    assert threading.active_count() == before
    assert len(raised_at) == 1
    assert len(started) <= raised_at[0] + 1 < 12


class _ScanFailed(Exception):
    pass


def test_a_failed_scan_is_raised_once_no_scan_is_running(monkeypatch):
    """A chunk's error reaches the caller after every chunk has stopped; when
    several chunks fail, the error of the first in (scan, chunk) order wins,
    even when a later one fails first."""
    failing = set()

    def failing_draw(config, draw):
        scan = (config.theta, config.blocked_arm)
        if scan not in failing:
            return draw

        def fail(start, *args):
            draw(start, *args)
            if start == 0:
                time.sleep(0.05)  # fail well after the scan's next chunk has
            raise _ScanFailed(*scan, start)

        return fail

    _wrap_draws(monkeypatch, failing_draw)
    cfg = _reference_config(PhaseSchedule.constant(0.0, 1), seed=3)
    pi_scan, blocked_scan = (math.pi, "none"), (0.0, "b")
    for failing_scans in ({pi_scan}, {pi_scan, blocked_scan}):
        failing.clear()
        failing.update(failing_scans)
        before = threading.active_count()
        with pytest.raises(_ScanFailed) as excinfo:
            end_to_end_report(cfg, pulses_per_scan=200_000)
        assert excinfo.value.args == (*pi_scan, 0)
        assert threading.active_count() == before


def test_uncorrected_entanglement_degrades_with_loss():
    """Ebits certified from raw detected variances never grow as loss increases."""
    etas = np.linspace(0.05, 1.0, 40)
    ebits = []
    for eta in etas:
        cfg = RunConfig(
            source=SourceSpec.symmetric_mixed(1.50, 0.94),
            detector=_noiseless_detector(float(eta)),
            schedule=PhaseSchedule.constant(0.0, 1),
        )
        squeezed = detected_variance(cfg, math.pi / 2.0)
        # the sum variance is twice the squeezed level; the entropy takes half of it
        ebits.append(formation_entropy(squeezed))
    diffs = np.diff(ebits)
    assert np.all(diffs >= -1e-12)
    assert ebits[-1] > ebits[0]  # strictly better at eta = 1 than at heavy loss
