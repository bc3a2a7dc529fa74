"""Closed-form expectations and tolerances for the benchmark's output checks.

Nothing here imports cvpulse: every expected value is derived from the
physics of a symmetric two-mode source (diagonal variance v, correlation k)
detected through a 50:50 recombination with overall efficiency eta and
additive electronic noise variance n, all in shot-noise units.  At LO phase
phi and relative phase theta the detected variance is

    V(phi) = eta * (v + k cos(2 phi + theta)) + 1 - eta + n,

so the fringe extremes are eta (v -/+ k) + 1 - eta + n, the minimum sits at
phi = (pi/2 - theta/2) mod pi, and with one arm blocked the level is
(eta/2) v + 1 - eta/2 + n.

The tolerance of a fitted value is z sigma plus the known bias of the
estimator.  sigma comes from chi-square statistics of block variances: an
unbiased variance of B zero-mean Gaussian samples has variance 2 V^2/(B-1),
and the extremes' error follows from the weighted least-squares fit of
a + b cos 2phi + c sin 2phi over the block centres with those weights.  The
bias allowance covers two effects of the blocking itself: a block averages
the fringe over its phase span (lower contrast), and weights taken from the
noisy block variances pull the fit low by a factor of about 1 - 4/(B-1).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

#: Base width of every statistical check, in standard deviations.
Z_BASE = 5.0

#: Chance that a run with correct outputs still fails one of its checks.
RUN_FALSE_ALARM = 1e-4

#: Tolerance of the exact (noise-free) theta-scan comparisons.
EXACT_TOL = 1e-9


def efficiency(eta_transmission: float, eta_homodyne: float, eta_detector: float) -> float:
    """Overall detection efficiency; the mode overlap enters squared."""
    return eta_transmission * eta_homodyne**2 * eta_detector


def squeezed(v: float, k: float, eta: float, noise: float = 0.0) -> float:
    return eta * (v - k) + 1.0 - eta + noise


def antisqueezed(v: float, k: float, eta: float, noise: float = 0.0) -> float:
    return eta * (v + k) + 1.0 - eta + noise


def single_beam(v: float, eta: float, noise: float = 0.0) -> float:
    return 0.5 * eta * v + 1.0 - 0.5 * eta + noise


def entropy_of_formation(x: float) -> float:
    """Ebits of formation of a symmetric state whose EPR-squeezed variance is x."""
    if x >= 1.0:
        return 0.0
    c_plus = (x**-0.5 + x**0.5) ** 2 / 4.0
    c_minus = (x**-0.5 - x**0.5) ** 2 / 4.0
    return c_plus * math.log2(c_plus) - c_minus * math.log2(c_minus)


def min_phase(theta):
    """LO phase of the fringe minimum, modulo pi."""
    return np.mod(0.5 * math.pi - 0.5 * np.asarray(theta, dtype=float), math.pi)


def phase_distance(a, b):
    """Distance between two phases defined modulo pi."""
    d = np.mod(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), math.pi)
    return np.minimum(d, math.pi - d)


def z_for_checks(n_checks: int) -> float:
    """Check width in sigma: 5, raised so a whole run keeps RUN_FALSE_ALARM."""
    per_check = RUN_FALSE_ALARM / (2.0 * max(n_checks, 1))
    return max(Z_BASE, NormalDist().inv_cdf(1.0 - per_check))


def fringe_fit_stats(
    v: float,
    k: float,
    eta: float,
    noise: float,
    theta: float,
    n_pulses: int,
    block: int,
    phi_end: float = 4.0 * math.pi,
) -> dict:
    """Expected extremes of one fitted phase scan and their 1-sigma errors.

    The scan is a ramp over [0, phi_end) of ``n_pulses`` pulses cut into
    blocks of ``block``.  Returns the closed-form extremes, the extremes the
    blocked, self-weighted fit tends to, and the chi-square sigma of each.
    """
    n_blocks = n_pulses // block
    phi = (phi_end / n_pulses) * np.arange(n_blocks * block, dtype=float)
    phi = phi.reshape(n_blocks, block)
    centres = phi.mean(axis=1)
    level = eta * (v + k * np.cos(2.0 * phi + theta)) + 1.0 - eta + noise
    expect = level.mean(axis=1)  # exact mean of an unbiased block variance
    weights = (block - 1) / (2.0 * expect**2)
    design = np.column_stack([np.ones(n_blocks), np.cos(2 * centres), np.sin(2 * centres)])
    cov = np.linalg.inv(design.T @ (weights[:, None] * design))
    offset, ca, sa = cov @ (design.T @ (weights * expect))
    amp = math.hypot(ca, sa)
    grad = np.array([1.0, ca / amp, sa / amp])
    sigma_max = math.sqrt(grad @ cov @ grad)
    grad[1:] = -grad[1:]
    sigma_min = math.sqrt(grad @ cov @ grad)
    shrink = 1.0 - 4.0 / (block - 1)
    return {
        "v_min": squeezed(v, k, eta, noise),
        "v_max": antisqueezed(v, k, eta, noise),
        "fit_v_min": shrink * (offset - amp),
        "fit_v_max": shrink * (offset + amp),
        "sigma_min": sigma_min,
        "sigma_max": sigma_max,
        "n_blocks": n_blocks,
    }


def single_beam_sigma(level: float, n_pulses: int, block: int) -> float:
    """Error of the mean of the block variances of a phase-independent level."""
    n_blocks = n_pulses // block
    return level * math.sqrt(2.0 / (block - 1)) / math.sqrt(n_blocks)


def within(name: str, actual: float, expected: float, sigma: float, z: float, bias: float = 0.0):
    """None when ``actual`` lies within z sigma + |bias| of ``expected``, else a message."""
    tol = z * sigma + abs(bias)
    if actual is not None and math.isfinite(actual) and abs(actual - expected) <= tol:
        return None
    return f"{name}: got {actual!r}, closed form {expected:.6f} +/- {tol:.6f}"
