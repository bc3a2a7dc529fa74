"""The analysis chain fed exact levels: every figure comes back in closed form.

The levels are the benchmark's closed forms (``perfbench/checks.py``), so a
deterministic bias anywhere between the levels and the report shows here
without sampling.  The fit rows feed ``fit_variance_curve`` each block's exact
expected variance: for independent zero-mean Gaussian pulses an unbiased block
variance has expectation the mean of the level over the block's pulses.
"""

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from cvpulse.analysis import fit_variance_curve, report_from_levels
from cvpulse.gaussian import SourceSpec
from cvpulse.simulate import (
    DetectorModel,
    PhaseSchedule,
    PulseTrain,
    RunConfig,
    _block_columns,
    block_variance_trace,
    theta_scan,
)

from gaussian_reference import source_covariance

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()


def _ideal_detector(eta):
    """Efficiency eta, all of it in the transmission, and no electronic noise."""
    return DetectorModel(eta_transmission=eta, eta_homodyne=1.0, eta_detector=1.0,
                         electronic_noise_var=0.0)


def _assert_closed_form(report, v, k):
    """A symmetric source (v, k) reconstructed: squeezed variance v - k, diagonal v,
    Duan-Simon 2 (v - k), the entropy of formation of v - k and Reid
    (v - k^2 / v)^2, each to 1e-9 relative."""
    expected = {
        "corrected_squeezed_variance": v - k,
        "corrected_variance": v,
        "duan_simon": 2.0 * (v - k),
        "entropy_of_formation": checks.entropy_of_formation(v - k),
        "reid_product": (v - k * k / v) ** 2,
    }
    for name, value in expected.items():
        assert math.isclose(getattr(report, name), value, rel_tol=1e-9, abs_tol=0.0), name


@pytest.mark.parametrize("blocked_level", [False, True], ids=["extremes", "blocked arm"])
@pytest.mark.parametrize("eta", [0.5, 1.0])
@pytest.mark.parametrize(
    "source", [SourceSpec.pure_nopa(0.472), SourceSpec.symmetric_mixed(1.50, 0.94)],
    ids=["pure_nopa", "symmetric_mixed"],
)
def test_report_from_exact_levels_is_closed_form(source, eta, blocked_level):
    """Noise-free levels of a source seen with efficiency eta give back its
    closed-form report."""
    gamma = source_covariance(source)
    v, k = float(gamma[0, 0]), float(gamma[0, 2])
    config = RunConfig(source=source, detector=_ideal_detector(eta),
                       schedule=PhaseSchedule.constant(0.0, 1))
    report = report_from_levels(
        config,
        checks.squeezed(v, k, eta),
        0.0,
        checks.antisqueezed(v, k, eta),
        checks.single_beam(v, eta) if blocked_level else None,
    )
    _assert_closed_form(report, v, k)


def _exact_block_variances(v, k, eta, theta, phases, block):
    """E[s^2] of each whole block of pulses at ``phases``: the mean over the block
    of checks' level eta (v + k cos(2 phi + theta)) + 1 - eta, written through
    its extremes S and A as (S + A)/2 + (A - S)/2 cos(2 phi + theta)."""
    low, high = checks.squeezed(v, k, eta), checks.antisqueezed(v, k, eta)
    level = 0.5 * (low + high) + 0.5 * (high - low) * np.cos(2.0 * phases + theta)
    used = len(phases) - len(phases) % block
    return level[:used].reshape(-1, block).mean(axis=1)


def _columns_of_a_record(schedule, block):
    """Block columns as analyze reads them: from a record's lo_phase column."""
    phases = schedule.values()
    return block_variance_trace(PulseTrain(phases, np.zeros_like(phases)), block)[0]


@pytest.mark.parametrize("columns_of", [_block_columns, _columns_of_a_record],
                         ids=["simulated ramp", "record"])
@pytest.mark.parametrize("pulses", [65_535, 100_000])
@pytest.mark.parametrize("theta", [0.0, 0.7])
@pytest.mark.parametrize("eta", [0.5, 1.0])
@pytest.mark.parametrize(
    "source", [SourceSpec.pure_nopa(0.472), SourceSpec.symmetric_mixed(1.50, 0.94)],
    ids=["pure_nopa", "symmetric_mixed"],
)
def test_fit_of_exact_block_variances_is_closed_form(source, eta, theta, pulses, columns_of):
    """Exact block variances of a ramp over 4 pi, in blocks of 2500, fit back to
    the closed-form extremes and minimum phase, to 1e-9, and the report built
    on them is the closed-form one.  For the reference source and
    efficiency a fit at the block centres misses v_min by +0.024 at 65,535
    pulses and +0.010 at 10^5 (the blocks average the fringe over their phase
    span); fitting each block's exact means of cos 2phi and sin 2phi leaves
    no bias."""
    block = 2500
    gamma = source_covariance(source)
    v, k = float(gamma[0, 0]), float(gamma[0, 2])
    truth = checks.fringe_fit_stats(v, k, eta, 0.0, theta, pulses, block)
    schedule = PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, pulses)
    variances = _exact_block_variances(v, k, eta, theta, schedule.values(), block)
    assert len(variances) == truth["n_blocks"]
    fit = fit_variance_curve(columns_of(schedule, block), variances, block)
    assert math.isclose(fit.v_min, truth["v_min"], rel_tol=1e-9, abs_tol=0.0)
    assert math.isclose(fit.v_max, truth["v_max"], rel_tol=1e-9, abs_tol=0.0)
    assert checks.phase_distance(fit.phase_at_min, checks.min_phase(theta)) < 1e-9

    config = RunConfig(source=source, detector=_ideal_detector(eta), schedule=schedule,
                       theta=theta)
    _assert_closed_form(report_from_levels(config, fit.v_min, fit.stderr, fit.v_max), v, k)


def test_theta_scan_extremes_are_the_benchmarks_closed_form():
    """Over the benchmark's sweep grid (three sources, three transmissions, with
    and without electronic noise, 64 thetas) the scanned extremes are checks'
    squeezed and antisqueezed levels to 1e-12 relative, and the minimum sits
    at its minimum phase."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    grid = itertools.product(((1.5, 0.94), (1.5, 0.6), (2.0, 1.3)), (0.93, 0.85, 0.75),
                             (0.0, 10.0**-1.1))
    for (v, k), transmission, noise in grid:
        config = RunConfig(
            source=SourceSpec.symmetric_mixed(v, k),
            detector=DetectorModel(eta_transmission=transmission, eta_homodyne=0.88,
                                   eta_detector=0.945, electronic_noise_var=noise),
            schedule=PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, 20_000),
        )
        eta = checks.efficiency(transmission, 0.88, 0.945)
        _, v_min, v_max, phi_min = theta_scan(config, thetas)
        np.testing.assert_allclose(v_min, checks.squeezed(v, k, eta, noise), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(v_max, checks.antisqueezed(v, k, eta, noise), rtol=1e-12,
                                   atol=0.0)
        assert np.max(checks.phase_distance(phi_min, checks.min_phase(thetas))) < 1e-12
