"""Tests of the benchmark's closed-form checks; they need numpy but not cvpulse.

    python3 -m pytest perfbench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

REFERENCE_ETA = 0.6806


def test_reference_values_at_reference_efficiency():
    # the paper quotes four decimals, so agreement is to half a unit more
    assert abs(checks.squeezed(1.50, 0.94, REFERENCE_ETA) - 0.7005) <= 1e-4
    assert abs(checks.antisqueezed(1.50, 0.94, REFERENCE_ETA) - 1.9800) <= 1e-4
    assert abs(checks.single_beam(1.50, REFERENCE_ETA) - 1.1701) <= 1e-4
    assert round(checks.efficiency(0.93, 0.88, 0.945), 4) == REFERENCE_ETA


def test_electronic_noise_adds_to_every_level():
    n = 0.08
    assert checks.squeezed(1.5, 0.94, 0.6, n) == checks.squeezed(1.5, 0.94, 0.6) + n
    assert checks.antisqueezed(1.5, 0.94, 0.6, n) == checks.antisqueezed(1.5, 0.94, 0.6) + n
    assert checks.single_beam(1.5, 0.6, n) == checks.single_beam(1.5, 0.6) + n


def test_min_phase_and_wraparound():
    assert checks.min_phase(0.0) == math.pi / 2
    assert checks.min_phase(math.pi) == 0.0
    assert checks.min_phase(1.5 * math.pi) == 0.75 * math.pi
    assert checks.phase_distance(1e-12, math.pi - 1e-12) < 1e-11


def test_entropy_of_formation_of_the_reference_state():
    # corrected squeezed variance 0.56 gives the paper's 0.44 ebit
    assert abs(checks.entropy_of_formation(0.56) - 0.44) < 0.005
    assert checks.entropy_of_formation(1.0) == 0.0


def test_z_grows_with_the_number_of_checks():
    assert checks.z_for_checks(1) == checks.Z_BASE
    assert 5.0 < checks.z_for_checks(1000) < checks.z_for_checks(100_000) < 7.0


def test_sigma_and_bias_match_a_direct_simulation():
    """Self-weighted block fits of simulated pulses reproduce the predicted spread."""
    v, k, eta, noise, theta, n, block = 1.5, 0.94, 0.6, 0.05, 0.7, 20_000, 500
    stats = checks.fringe_fit_stats(v, k, eta, noise, theta, n, block)
    phi = (4.0 * math.pi / n) * np.arange(n)
    level = eta * (v + k * np.cos(2 * phi + theta)) + 1 - eta + noise
    centres = phi.reshape(-1, block).mean(axis=1)
    design = np.column_stack([np.ones_like(centres), np.cos(2 * centres), np.sin(2 * centres)])
    rng = np.random.default_rng(2026)
    fits = []
    for _ in range(400):
        s2 = (np.sqrt(level) * rng.standard_normal(n)).reshape(-1, block).var(axis=1, ddof=1)
        w = np.sqrt(1.0 / s2**2)
        offset, a, b = np.linalg.lstsq(design * w[:, None], s2 * w, rcond=None)[0]
        amp = math.hypot(a, b)
        fits.append((offset - amp, offset + amp))
    fits = np.array(fits)
    for col, key in ((0, "min"), (1, "max")):
        sigma = stats[f"sigma_{key}"]
        assert 0.85 < fits[:, col].std(ddof=1) / sigma < 1.15
        assert abs(fits[:, col].mean() - stats[f"fit_v_{key}"]) < 4 * sigma / math.sqrt(len(fits))
