"""General symplectic toolbox, the tests' independent derivation of the source chain.

``cvpulse`` collapses the chain (two-mode squeezed source, phase shift on the
second arm, 50/50 beamsplitter, loss) into ``simulate._port_rows`` and
``simulate._covariance_stack``.  The tests rebuild the same covariances here,
one optical element at a time, in the conventions of :mod:`cvpulse.gaussian`:
quadratures ordered (X_A, P_A, X_B, P_B) in shot-noise units, elements acting
by congruence gamma -> S gamma S^T, and a rotation by theta mapping
X -> X cos(theta) + P sin(theta).

Importable both under pytest and when a test file runs as a script, since
either way this directory is on ``sys.path``.
"""

import math

import numpy as np

from cvpulse.gaussian import Matrix


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
