"""Covariance matrices of the two-mode Gaussian source and the checks they must pass.

Quadratures are ordered (X_A, P_A, X_B, P_B) and expressed in shot-noise units:
the vacuum has unit variance in every quadrature and the uncertainty bound reads
var(X) * var(P) >= 1.  States are plain symmetric 4x4 numpy arrays, since the
experiment measures one two-mode state.  The module holds the source model
(:class:`SourceSpec`), the symmetric-form covariance, the symplectic form and
the physicality test gamma + i Omega >= 0, also in closed form for that form;
:mod:`cvpulse.simulate` gives the detected port of the source in closed form.
"""

from __future__ import annotations

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

_OMEGA = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
_OMEGA.flags.writeable = False


def symplectic_form() -> Matrix:
    """Symplectic form of the two modes in the (X, P) interleaved ordering.

    Built once at import and shared, so the array is read-only.
    """
    return _OMEGA


def _require_two_mode(gamma: Matrix) -> Matrix:
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-mode covariance, got shape {gamma.shape}")
    return gamma


def symmetric_two_mode_covariance(v: float, k_x: float, k_p: float) -> Matrix:
    """Two-mode covariance with equal marginals ``v`` and correlations (k_x, -k_p).

    X quadratures are correlated with strength ``k_x`` and P quadratures
    anticorrelated with strength ``k_p``.  No physicality validation is
    performed here; see :func:`symmetric_min_eigenvalue`.
    """
    return np.array(
        [
            [v, 0.0, k_x, 0.0],
            [0.0, v, 0.0, -k_p],
            [k_x, 0.0, v, 0.0],
            [0.0, -k_p, 0.0, v],
        ]
    )


def symmetric_min_eigenvalue(v: float, k_x: float, k_p: float) -> float:
    """Least eigenvalue of gamma + i Omega for :func:`symmetric_two_mode_covariance`:
    its sum and difference modes are single-mode states of variances (v + k_x,
    v - k_p) and (v - k_x, v + k_p), and that of a state (a, b) is
    (a + b) / 2 - hypot((a - b) / 2, 1)."""
    return v - abs(k_x - k_p) / 2.0 - math.hypot((k_x + k_p) / 2.0, 1.0)


@dataclass(frozen=True)
class SourceSpec:
    """Declarative description of the entangled-pair source.

    ``pure_nopa`` is the lossless parametric source of squeezing strength
    ``r``; ``symmetric_mixed`` is the impure generalization with diagonal
    variance ``v`` and correlation ``k``, both in shot-noise units.  A mixed
    source is physical when v - hypot(k, 1), its :func:`symmetric_min_eigenvalue`,
    is at least -PHYSICALITY_TOL: v^2 - k^2 >= 1 for either sign of ``k``.
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
            min_eigenvalue = symmetric_min_eigenvalue(self.v, self.k, self.k)
            if min_eigenvalue < -PHYSICALITY_TOL:
                raise ValueError(f"unphysical source: the least eigenvalue of gamma + i Omega, "
                                 f"v - hypot(k, 1), is {min_eigenvalue:.6g} (v^2 - k^2 < 1)")

    @classmethod
    def pure_nopa(cls, r: float) -> "SourceSpec":
        return cls(kind="pure_nopa", r=r)

    @classmethod
    def symmetric_mixed(cls, v: float, k: float) -> "SourceSpec":
        return cls(kind="symmetric_mixed", v=v, k=k)


@dataclass(frozen=True)
class PhysicalityResult:
    """Outcome of the uncertainty-principle test gamma + i Omega >= 0."""

    passed: bool
    min_eigenvalue: float


def physicality_check(gamma: Matrix) -> PhysicalityResult:
    """Test whether a two-mode covariance matrix describes a physical state.

    The matrix must be 4x4 and symmetric; the verdict is the minimum
    eigenvalue of the Hermitian matrix gamma + i Omega compared against
    -PHYSICALITY_TOL.
    """
    gamma = _require_two_mode(gamma)
    if np.max(np.abs(gamma - gamma.T)) > SYMMETRY_TOL:
        raise ValueError("covariance matrix is not symmetric")
    herm = gamma + 1j * symplectic_form()
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    return PhysicalityResult(min_eig >= -PHYSICALITY_TOL, min_eig)

