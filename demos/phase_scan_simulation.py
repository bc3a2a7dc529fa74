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
    detected_variance,
    fit_variance_curve,
    stream_block_variances,
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

# persist the raw records (about 11 MB) plus a metadata sidecar; a scratch
# directory keeps the demo from leaving them wherever it was started
with tempfile.TemporaryDirectory() as scratch:
    path = write_records(config, Path(scratch) / "phase_scan_records.csv")
    print(
        f"wrote {path.name} ({path.stat().st_size / 1e6:.1f} MB) and its metadata "
        f"{path.with_suffix('.json').name}; the scratch directory is removed on exit"
    )
    with open(path) as fh:
        next(fh)  # the header
        index, lo_phase, value = next(fh).split(",")
print(f"first record: index {index}, LO phase {float(lo_phase):.4f} rad, value {float(value):.4f}")

# the same run drawn again chunk by chunk, never held whole: every 2500
# consecutive pulses become one variance estimate, with the block's mean
# cos 2phi and sin 2phi, the fringe's exact weights in it
columns, variances = stream_block_variances(config, block_size=2500)
print(f"\n{len(variances)} blocks of 2500 pulses")
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
