"""General symplectic toolbox, the tests' independent derivation of the source chain.

``cvpulse`` gives the detected port of the chain (two-mode squeezed source,
phase shift on the second arm, beamsplitter, loss) in closed form, in
``simulate._fringe``.  The tests rebuild the same covariances here, one
optical element at a time, in the conventions of :mod:`cvpulse.gaussian`:
quadratures ordered (X_A, P_A, X_B, P_B) in shot-noise units, elements acting
by congruence gamma -> S gamma S^T, and a rotation by theta mapping
X -> X cos(theta) + P sin(theta).  It also keeps SourceSpec's former
physicality rule for a mixed source, the quotient bound, for the tests to
compare the closed-form rule against.

Importable both under pytest and when a test file runs as a script, since
either way this directory is on ``sys.path``.
"""

import math

import numpy as np

from cvpulse.gaussian import PHYSICALITY_TOL, Matrix, SourceSpec, symmetric_two_mode_covariance


def source_covariance(spec: SourceSpec) -> Matrix:
    """Covariance matrix of the entangled-pair source.

    For ``pure_nopa(r)`` the diagonal variance is cosh(2r) and the
    correlation sinh(2r); ``symmetric_mixed(v, k)`` uses (v, k) directly.
    """
    if spec.kind == "pure_nopa":
        return symmetric_two_mode_covariance(
            math.cosh(2.0 * spec.r), math.sinh(2.0 * spec.r), math.sinh(2.0 * spec.r)
        )
    return symmetric_two_mode_covariance(spec.v, spec.k, spec.k)


def quotient_bound_accepts(v: float, k: float) -> bool:
    """The three refusals SourceSpec made of a mixed source (v >= 1, v + |k| at
    most MAX_VARIANCE) before the closed-form rule: |k| > v, v + k = 0, and the
    uncertainty bound v - k >= 1 / (v + k) less PHYSICALITY_TOL.

    The bound cancels in v + k for k < 0: it refuses the pure states
    (cosh 2r, -sinh 2r) of large r that it accepts with the sign of k flipped.
    """
    if abs(k) > v or v + k == 0.0:
        return False
    return not v - k < 1.0 / (v + k) - PHYSICALITY_TOL


def beamsplitter(reflectivity: float = 0.5) -> Matrix:
    """Symplectic matrix of a lossless two-mode beamsplitter.

    The first output port carries sqrt(R) of the first input plus
    sqrt(1 - R) of the second; for R = 1/2 it is (A + B) / sqrt(2).
    """
    if not 0.0 < reflectivity < 1.0:
        raise ValueError(f"reflectivity must lie in (0, 1), got {reflectivity}")
    t = math.sqrt(reflectivity)
    u = math.sqrt(1.0 - reflectivity)
    return np.array(
        [
            [t, 0.0, u, 0.0],
            [0.0, t, 0.0, u],
            [u, 0.0, -t, 0.0],
            [0.0, u, 0.0, -t],
        ]
    )


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


def two_mode_squeezer(r: float) -> Matrix:
    """Symplectic matrix of a two-mode squeezing interaction of strength ``r``.

    Acting on vacuum it correlates the two X quadratures and anticorrelates
    the two P quadratures, the resource produced by a below-threshold
    nondegenerate parametric amplifier.
    """
    if not math.isfinite(r):
        raise ValueError(f"squeezing parameter must be finite, got {r}")
    c, s = math.cosh(r), math.sinh(r)
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )


def phase_rotation(theta: float, mode: int, n_modes: int = 2) -> Matrix:
    """Symplectic matrix rotating the quadratures of one mode by ``theta``."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode index {mode} out of range for {n_modes} modes")
    c, s = math.cos(theta), math.sin(theta)
    out = np.eye(2 * n_modes)
    out[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = [[c, s], [-s, c]]
    return out


def apply_transform(transform: Matrix, gamma: Matrix) -> Matrix:
    """Propagate a covariance matrix through a linear-optics element.

    Returns S gamma S^T, re-symmetrized to suppress floating-point drift.
    """
    transform = np.asarray(transform, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if transform.shape != gamma.shape or gamma.shape[0] != gamma.shape[1]:
        raise ValueError(
            f"shape mismatch: transform {transform.shape}, state {gamma.shape}"
        )
    out = transform @ gamma @ transform.T
    return (out + out.T) / 2.0


def loss_channel(gamma: Matrix, eta: float, mode: int | None = None) -> Matrix:
    """Mix one mode (or every mode) with vacuum on a beamsplitter of transmission ``eta``.

    Variances map to eta * v + (1 - eta) and cross-correlations with other
    modes scale by sqrt(eta), so eta = 1 is the identity and eta -> 0 replaces
    the mode by vacuum.

    Parameters
    ----------
    gamma : Matrix
        Input covariance matrix.
    eta : float
        Intensity transmission in (0, 1].
    mode : int or None
        Mode the loss acts on; ``None`` applies the same loss to every mode.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmission must lie in (0, 1], got {eta}")
    gamma = np.asarray(gamma, dtype=float)
    dim = gamma.shape[0]
    n_modes = dim // 2
    if mode is None:
        return eta * gamma + (1.0 - eta) * np.eye(dim)
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode index {mode} out of range for {n_modes} modes")
    scale = np.ones(dim)
    scale[2 * mode : 2 * mode + 2] = math.sqrt(eta)
    out = gamma * np.outer(scale, scale)
    out[2 * mode, 2 * mode] += 1.0 - eta
    out[2 * mode + 1, 2 * mode + 1] += 1.0 - eta
    return out


def mode_block(gamma: Matrix, mode: int) -> Matrix:
    """2x2 marginal covariance of one mode."""
    gamma = np.asarray(gamma, dtype=float)
    n_modes = gamma.shape[0] // 2
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode index {mode} out of range for {n_modes} modes")
    i = 2 * mode
    return gamma[i : i + 2, i : i + 2].copy()
