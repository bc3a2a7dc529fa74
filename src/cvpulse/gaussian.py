"""Covariance-matrix algebra for zero-mean Gaussian states of one or two optical modes.

Quadratures are ordered (X_A, P_A, X_B, P_B) and expressed in shot-noise units:
the vacuum has unit variance in every quadrature and the uncertainty bound reads
var(X) * var(P) >= 1.  States are plain symmetric numpy arrays; optical elements
are symplectic matrices acting by congruence, gamma -> S gamma S^T.

Phase convention: a rotation by theta maps X -> X cos(theta) + P sin(theta) and
P -> -X sin(theta) + P cos(theta).  With this sign, dephasing the second mode of
a two-mode squeezed pair by theta before a balanced beamsplitter turns the noise
ellipse of the bright output port by theta / 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.typing import NDArray

from .schema import FieldError, check_fields

Matrix = NDArray[np.float64]

#: Lowest admissible eigenvalue of gamma + i Omega; absorbs float drift of chained transforms.
PHYSICALITY_TOL = 1e-9

#: Absolute tolerance on matrix-symmetry checks.
SYMMETRY_TOL = 1e-12

#: Largest quadrature variance v + |k| of a source (60 dB above shot noise).
#: The squeezed variance, at least 1 / (v + |k|), then keeps 12 of its bits
#: next to the rounding of v + |k|, so detected variances stay positive; from
#: about 2^27 on they can round to negative values, and records to nan.
MAX_VARIANCE = 2.0**20


@functools.lru_cache(maxsize=8)
def symplectic_form(n_modes: int = 2) -> Matrix:
    """Block-diagonal symplectic form matching the (X, P) interleaved ordering.

    Built once per mode count and shared, so the array is read-only.
    """
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.kron(np.eye(n_modes), block)
    omega.flags.writeable = False
    return omega


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


def symmetric_two_mode_covariance(v: float, k_x: float, k_p: float) -> Matrix:
    """Two-mode covariance with equal marginals ``v`` and correlations (k_x, -k_p).

    X quadratures are correlated with strength ``k_x`` and P quadratures
    anticorrelated with strength ``k_p``.  No physicality validation is
    performed here; see :func:`physicality_check`.
    """
    return np.array(
        [
            [v, 0.0, k_x, 0.0],
            [0.0, v, 0.0, -k_p],
            [k_x, 0.0, v, 0.0],
            [0.0, -k_p, 0.0, v],
        ]
    )


@dataclass(frozen=True)
class SourceSpec:
    """Declarative description of the entangled-pair source.

    ``pure_nopa`` is the lossless parametric source of squeezing strength
    ``r``; ``symmetric_mixed`` is the impure generalization with diagonal
    variance ``v`` and correlation ``k``, both in shot-noise units.
    """

    KINDS: ClassVar[dict[str, tuple[str, ...]]] = {
        "pure_nopa": ("r",),
        "symmetric_mixed": ("v", "k"),
    }

    kind: str
    r: float = 0.0
    v: float = 1.0
    k: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind == "pure_nopa":
            if self.r < 0.0:
                raise FieldError("r", f"squeezing parameter must be >= 0, got {self.r}")
            if 2.0 * self.r > math.log(MAX_VARIANCE):
                raise FieldError(
                    "r", f"largest quadrature variance e^(2r) exceeds {MAX_VARIANCE:g}, "
                    f"got r = {self.r}"
                )
        else:
            if self.v < 1.0:
                raise FieldError("v", f"diagonal variance must be >= 1, got {self.v}")
            if self.v + abs(self.k) > MAX_VARIANCE:
                raise FieldError(
                    "v", f"largest quadrature variance v + |k| exceeds {MAX_VARIANCE:g}, "
                    f"got {self.v + abs(self.k):g}"
                )
            if abs(self.k) > self.v:
                raise ValueError(f"correlation |{self.k}| exceeds diagonal variance {self.v}")
            # uncertainty bound for the symmetric form: v - k >= 1 / (v + k)
            if self.v + self.k == 0.0:
                raise ValueError(
                    f"unphysical source: v + k = 0 is below 1 / (v - k) = "
                    f"{1.0 / (self.v - self.k):.6g}"
                )
            if self.v - self.k < 1.0 / (self.v + self.k) - PHYSICALITY_TOL:
                raise ValueError(
                    f"unphysical source: v - k = {self.v - self.k:.6g} is below "
                    f"1 / (v + k) = {1.0 / (self.v + self.k):.6g}"
                )

    @classmethod
    def pure_nopa(cls, r: float) -> "SourceSpec":
        return cls(kind="pure_nopa", r=r)

    @classmethod
    def symmetric_mixed(cls, v: float, k: float) -> "SourceSpec":
        return cls(kind="symmetric_mixed", v=v, k=k)


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


@dataclass(frozen=True)
class PhysicalityResult:
    """Outcome of the uncertainty-principle test gamma + i Omega >= 0."""

    passed: bool
    min_eigenvalue: float


def physicality_check(gamma: Matrix) -> PhysicalityResult:
    """Test whether a covariance matrix describes a physical state.

    The matrix must be symmetric; the verdict is the minimum eigenvalue of the
    Hermitian matrix gamma + i Omega compared against -PHYSICALITY_TOL.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1] or gamma.shape[0] % 2:
        raise ValueError(f"covariance must be square with even dimension, got {gamma.shape}")
    if np.max(np.abs(gamma - gamma.T)) > SYMMETRY_TOL:
        raise ValueError("covariance matrix is not symmetric")
    n_modes = gamma.shape[0] // 2
    herm = gamma + 1j * symplectic_form(n_modes)
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    return PhysicalityResult(min_eig >= -PHYSICALITY_TOL, min_eig)

