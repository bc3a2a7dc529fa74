"""Separability witnesses and entanglement measures for two-mode Gaussian states.

All quantities are evaluated directly on 4x4 covariance matrices in the
(X_A, P_A, X_B, P_B) ordering of :mod:`cvpulse.gaussian`, in shot-noise units.
"""

from __future__ import annotations

import math

import numpy as np

from .gaussian import PHYSICALITY_TOL, Matrix, _require_two_mode, symmetric_min_eigenvalue

#: A sum variance below this value certifies nonseparability.
SEPARABILITY_THRESHOLD = 2.0

#: Conditional-variance product below this value certifies EPR correlations.
EPR_THRESHOLD = 1.0

_SYMMETRIC_FORM_TOL = 1e-9


def duan_simon(gamma: Matrix) -> float:
    """Sum variance [var(X_A - X_B) + var(P_A + P_B)] / 2 of a two-mode state.

    Values below :data:`SEPARABILITY_THRESHOLD` witness nonseparability for
    states with X-correlated / P-anticorrelated structure.
    """
    g = _require_two_mode(gamma)
    var_x_diff = g[0, 0] + g[2, 2] - 2.0 * g[0, 2]
    var_p_sum = g[1, 1] + g[3, 3] + 2.0 * g[1, 3]
    return float(0.5 * (var_x_diff + var_p_sum))


def reid_epr_product(gamma: Matrix) -> float:
    """Product of conditional variances var(X_B | X_A) * var(P_B | P_A).

    Each factor is the residual variance of the best linear inference of one
    beam's quadrature from the other's.  A product below
    :data:`EPR_THRESHOLD` demonstrates EPR-type correlations.
    """
    g = _require_two_mode(gamma)
    if g[0, 0] <= _SYMMETRIC_FORM_TOL or g[1, 1] <= _SYMMETRIC_FORM_TOL:
        raise ValueError("conditioning quadrature has (near-)singular variance")
    cond_x = g[2, 2] - g[0, 2] ** 2 / g[0, 0]
    cond_p = g[3, 3] - g[1, 3] ** 2 / g[1, 1]
    return float(cond_x * cond_p)


def formation_entropy(x: float) -> float:
    """Entropy of formation, in ebits, of a symmetric state with squeezed variance ``x``.

    The argument is the geometric mean of the two sum/difference variances;
    x >= 1 means no certified entanglement and returns 0.
    """
    if not x > 0.0:  # nan included
        raise ValueError(f"variance argument must be positive, got {x}")
    if x >= 1.0:
        return 0.0
    c_plus = (x**-0.5 + x**0.5) ** 2 / 4.0
    c_minus = (x**-0.5 - x**0.5) ** 2 / 4.0
    low = c_minus * math.log2(c_minus) if c_minus > 0.0 else 0.0
    return c_plus * math.log2(c_plus) - low


def _symmetric_form_params(gamma: Matrix) -> tuple[float, float, float]:
    """Extract (v, k_x, k_p) from a symmetric-form covariance, or raise."""
    g = _require_two_mode(gamma)
    if np.max(np.abs(g - g.T)) > _SYMMETRIC_FORM_TOL:
        raise ValueError("covariance matrix is not symmetric")
    diag = np.diag(g)
    zeros = [g[0, 1], g[0, 3], g[1, 2], g[2, 3]]
    if np.max(np.abs(diag - diag.mean())) > _SYMMETRIC_FORM_TOL or np.max(
        np.abs(zeros)
    ) > _SYMMETRIC_FORM_TOL:
        raise ValueError(
            "state is not in symmetric form (equal diagonal, correlations only "
            "between like quadratures)"
        )
    return float(diag.mean()), float(g[0, 2]), float(-g[1, 3])


def entropy_of_formation(gamma: Matrix) -> float:
    """Entropy of formation of a symmetric two-mode Gaussian state.

    Parameters
    ----------
    gamma : Matrix
        Physical covariance in symmetric form: equal diagonal variances,
        X quadratures correlated, P quadratures anticorrelated, no
        cross-quadrature terms.

    Returns
    -------
    float
        Ebits of formation, :func:`formation_entropy` of the geometric mean
        of the two squeezed variances; zero at and beyond the separable
        boundary, where that argument reaches 1.
    """
    v, k_x, k_p = _symmetric_form_params(gamma)
    min_eigenvalue = symmetric_min_eigenvalue(v, k_x, k_p)
    if min_eigenvalue < -PHYSICALITY_TOL:
        raise ValueError(f"unphysical covariance (min eigenvalue {min_eigenvalue:.3e})")
    return formation_entropy(math.sqrt((v - k_x) * (v - k_p)))


def variance_to_db(variance: float) -> float:
    """Express a variance in dB relative to the shot-noise level."""
    if not 0.0 < variance < math.inf:
        raise ValueError(f"variance must be positive and finite, got {variance}")
    return 10.0 * math.log10(variance)
