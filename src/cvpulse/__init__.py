"""Time-domain simulation and analysis of quadrature-entangled pulse pairs.

The package covers the full measurement chain of a pulsed
continuous-variable entanglement experiment: Gaussian-state algebra for the
two-mode squeezed source, separability witnesses and the entropy of
formation, a per-pulse Monte Carlo of lossy homodyne detection, and the
analysis pipeline that turns raw pulse records back into a corrected
two-mode covariance matrix.
"""

from .gaussian import (
    SourceSpec,
    physicality_check,
    symmetric_two_mode_covariance,
)
from .entanglement import (
    EPR_THRESHOLD,
    SEPARABILITY_THRESHOLD,
    duan_simon,
    entropy_of_formation,
    reid_epr_product,
    variance_to_db,
)
from .simulate import (
    DetectorModel,
    PhaseSchedule,
    PulseTrain,
    RunConfig,
    block_variance_trace,
    detected_covariance,
    detected_variance,
    read_metadata,
    read_records,
    sample_pulses,
    stream_block_variances,
    theta_scan,
    write_records,
)
from .analysis import EntanglementReport, end_to_end_report, fit_variance_curve
from . import scenario  # noqa: F401  (cvpulse.scenario resolves after import cvpulse)

__version__ = "0.1.0"

__all__ = [
    "SourceSpec",
    "physicality_check",
    "symmetric_two_mode_covariance",
    "EPR_THRESHOLD",
    "SEPARABILITY_THRESHOLD",
    "duan_simon",
    "entropy_of_formation",
    "reid_epr_product",
    "variance_to_db",
    "DetectorModel",
    "PhaseSchedule",
    "PulseTrain",
    "RunConfig",
    "block_variance_trace",
    "detected_covariance",
    "detected_variance",
    "read_metadata",
    "read_records",
    "sample_pulses",
    "stream_block_variances",
    "theta_scan",
    "write_records",
    "EntanglementReport",
    "end_to_end_report",
    "fit_variance_curve",
]
