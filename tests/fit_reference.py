"""The tests' independent solve of the weighted fringe fit.

``cvpulse.analysis.fit_variance_curve`` solves its weighted least-squares fit
by one Householder QR of the weighted system.  The reference here solves the
same fit by ``np.linalg.lstsq`` (an SVD) and takes the parameter covariance
either as the inverse of the normal matrix, as cvpulse did before the QR, or,
where the weighted design is ill-conditioned, from the singular values and
vectors of the weighted design, V diag(1 / s^2) V^T, which never squares its
condition.  It takes valid input only: the checks and their messages belong
to cvpulse.

Importable both under pytest and when a test file runs as a script, since
either way this directory is on ``sys.path``.
"""

import math

import numpy as np

from cvpulse.analysis import ScanEstimate


def lstsq_fit(columns, variances, samples_per_block, covariance="inv") -> ScanEstimate:
    """The fit of ``fit_variance_curve`` solved by ``lstsq``; ``covariance`` is
    "inv" (inverse of the normal matrix) or "svd" (from the weighted design's SVD)."""
    columns = np.asarray(columns, dtype=float)
    variances = np.asarray(variances, dtype=float)
    design = np.column_stack([np.ones(len(variances)), columns])
    weights = (samples_per_block - 1) / (2.0 * np.maximum(variances, 1e-12) ** 2)
    weighted = design * np.sqrt(weights)[:, None]
    coef = np.linalg.lstsq(weighted, variances * np.sqrt(weights), rcond=None)[0]
    offset, cos_amp, sin_amp = coef
    amplitude = math.hypot(cos_amp, sin_amp)
    if covariance == "inv":
        param_cov = np.linalg.inv(design.T @ (weights[:, None] * design))
    elif covariance == "svd":
        _, singular, vt = np.linalg.svd(weighted, full_matrices=False)
        param_cov = (vt.T / singular**2) @ vt
    else:
        raise ValueError(f"covariance must be 'inv' or 'svd', got {covariance!r}")
    if amplitude > 0.0:
        grad = np.array([1.0, cos_amp / amplitude, sin_amp / amplitude])
    else:
        grad = np.array([1.0, 0.0, 0.0])
    err_max = math.sqrt(max(grad @ param_cov @ grad, 0.0))
    grad[1:] = -grad[1:]
    err_min = math.sqrt(max(grad @ param_cov @ grad, 0.0))
    c_phase = math.atan2(-sin_amp, cos_amp)
    return ScanEstimate(
        v_min=float(offset - amplitude),
        v_max=float(offset + amplitude),
        phase_at_min=((math.pi - c_phase) / 2.0) % math.pi,
        stderr=max(err_min, err_max),
        n_blocks=len(variances),
    )


def normal_equations_fit(columns, variances, samples_per_block) -> ScanEstimate:
    """The same fit solved through the normal equations, (A^T W A) beta = A^T W y:
    fast, but it squares the weighted design's condition number.  Tests use it
    to show that their accuracy gates tell a stable solve from this one."""
    columns = np.asarray(columns, dtype=float)
    variances = np.asarray(variances, dtype=float)
    design = np.column_stack([np.ones(len(variances)), columns])
    weights = (samples_per_block - 1) / (2.0 * np.maximum(variances, 1e-12) ** 2)
    normal = design.T @ (weights[:, None] * design)
    offset, cos_amp, sin_amp = np.linalg.solve(normal, design.T @ (weights * variances))
    amplitude = math.hypot(cos_amp, sin_amp)
    c_phase = math.atan2(-sin_amp, cos_amp)
    return ScanEstimate(
        v_min=float(offset - amplitude),
        v_max=float(offset + amplitude),
        phase_at_min=((math.pi - c_phase) / 2.0) % math.pi,
        stderr=math.nan,
        n_blocks=len(variances),
    )
