"""The analysis chain fed exact levels: every figure comes back in closed form.

The levels are the benchmark's closed forms (``perfbench/checks.py``), so a
deterministic bias anywhere between the levels and the report shows here
without sampling.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from cvpulse.analysis import report_from_levels
from cvpulse.gaussian import SourceSpec, source_covariance
from cvpulse.simulate import DetectorModel, PhaseSchedule, RunConfig

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()


@pytest.mark.parametrize("blocked_level", [False, True], ids=["extremes", "blocked arm"])
@pytest.mark.parametrize("eta", [0.5, 1.0])
@pytest.mark.parametrize(
    "source", [SourceSpec.pure_nopa(0.472), SourceSpec.symmetric_mixed(1.50, 0.94)],
    ids=["pure_nopa", "symmetric_mixed"],
)
def test_report_from_exact_levels_is_closed_form(source, eta, blocked_level):
    """Noise-free levels of a source seen with efficiency eta give back its
    squeezed variance v - k, its diagonal v, Duan-Simon 2 (v - k) and the
    entropy of formation of v - k, to 1e-9 relative."""
    gamma = source_covariance(source)
    v, k = float(gamma[0, 0]), float(gamma[0, 2])
    detector = DetectorModel(eta_transmission=eta, eta_homodyne=1.0, eta_detector=1.0,
                             electronic_noise_var=0.0)
    config = RunConfig(source=source, detector=detector, schedule=PhaseSchedule.constant(0.0, 1))
    report = report_from_levels(
        config,
        checks.squeezed(v, k, eta),
        0.0,
        checks.antisqueezed(v, k, eta),
        checks.single_beam(v, eta) if blocked_level else None,
    )
    expected = {
        "corrected_squeezed_variance": v - k,
        "corrected_variance": v,
        "duan_simon": 2.0 * (v - k),
        "entropy_of_formation": checks.entropy_of_formation(v - k),
    }
    for name, value in expected.items():
        assert math.isclose(getattr(report, name), value, rel_tol=1e-9, abs_tol=0.0), name
