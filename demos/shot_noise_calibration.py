"""
Shot-noise calibration: variance versus local-oscillator energy
===============================================================

With the signal path blocked, the homodyne variance in raw detector
units must grow linearly with the local-oscillator pulse energy; the
intercept is the electronic noise floor.  This linearity is what
justifies expressing every measured variance in shot-noise units, the
units cvpulse works in; this demo draws the raw-unit run with numpy.
"""

import math

import numpy as np

from cvpulse import DetectorModel

detector = DetectorModel()  # default noise floor: 11 dB below shot noise
gain = 1e-8  # raw-unit variance per LO photon, an arbitrary detector scale
working_point = 2.5e8  # LO photons per pulse at which the floor was set
dark = detector.electronic_noise_var * gain * working_point

rng = np.random.default_rng(99)
levels = np.array([0.0, 0.5e8, 1.0e8, 1.5e8, 2.0e8, 2.5e8, 3.0e8, 4.0e8])
variances = np.array([
    (math.sqrt(gain * n + dark) * rng.standard_normal(200_000)).var(ddof=1) for n in levels
])

print("LO photons/pulse   raw variance")
for n, v in zip(levels, variances):
    tag = "  <- dark (signal and LO blocked)" if n == 0 else ""
    print(f"{n:16.3g}   {v:12.5f}{tag}")

slope, offset = np.polyfit(levels, variances, 1)
print(f"\nlinear fit: variance = {slope:.3e} * photons + {offset:.4f}")

shot_at_reference = slope * working_point
print(f"shot-noise variance at the working point ({working_point:.2g} photons):"
      f" {shot_at_reference:.4f}")
print(f"electronic floor: {offset:.4f} "
      f"({10.0 * math.log10(shot_at_reference / offset):.1f} dB below shot noise)")
print("\nafter this calibration, dividing by the shot-noise variance puts all")
print("measurements in shot-noise units, where vacuum has variance 1")
