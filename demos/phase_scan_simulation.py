"""
Simulating a homodyne phase scan, pulse by pulse
================================================
"""

import math
import tempfile
from pathlib import Path

from cvpulse import (
    DetectorModel,
    PhaseSchedule,
    RunConfig,
    SourceSpec,
    block_variance_trace,
    detected_variance,
    fit_variance_curve,
    sample_pulses,
    write_records,
)

# The measurement: 250 000 pulses while the local-oscillator phase ramps
# through two full fringes.  The detector applies the reference
# efficiencies (transmission 0.93, mode overlap 0.88, photodiode 0.945).
config = RunConfig(
    source=SourceSpec.symmetric_mixed(1.50, 0.94),
    detector=DetectorModel(electronic_noise_var=0.0),
    schedule=PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, 250_000),
    seed=2026,
)

train = sample_pulses(config)
print(
    f"sampled {len(train)} pulses; first record: index {train.index[0]}, "
    f"LO phase {train.lo_phase[0]:.4f} rad, value {train.value[0]:.4f}"
)

# every 2500 consecutive pulses become one variance estimate, with the
# block's mean cos 2phi and sin 2phi: the fringe's exact weights in it
columns, variances = block_variance_trace(train, block_size=2500)
print(f"{len(variances)} blocks of 2500 pulses")
print("block  <cos 2phi>  <sin 2phi>  variance")
for i in range(0, len(variances), 10):
    print(f"{i:5d}  {columns[i, 0]:10.3f}  {columns[i, 1]:10.3f}  {variances[i]:8.4f}")

# fit the a + b cos(2 phi + c) fringe to the block trace
estimate = fit_variance_curve(columns, variances, 2500)
print(f"\nfitted minimum   : {estimate.v_min:.4f} +/- {estimate.stderr:.4f}")
print(f"fitted maximum   : {estimate.v_max:.4f}")
print(f"phase of minimum : {estimate.phase_at_min / math.pi:.4f} pi")

print(f"\nanalytic minimum : {detected_variance(config, math.pi / 2.0):.4f}")
print(f"analytic maximum : {detected_variance(config, 0.0):.4f}")

# persist the raw records (about 11 MB) plus a metadata sidecar: write_records
# draws the same run again chunk by chunk; a scratch directory keeps the demo
# from leaving them wherever it was started
with tempfile.TemporaryDirectory() as scratch:
    path = write_records(config, Path(scratch) / "phase_scan_records.csv")
    print(
        f"\nwrote {path.name} ({path.stat().st_size / 1e6:.1f} MB) and its metadata "
        f"{path.with_suffix('.json').name}; the scratch directory is removed on exit"
    )
