"""
Entanglement witnesses from a reported covariance matrix
========================================================

Starting point: the corrected two-mode covariance of the reference
measurement, with diagonal variances 1.50 and quadrature correlations
0.94 in shot-noise units.  From that single matrix we evaluate the
sum-variance witness, the conditional-variance product, and the number
of entangled bits the state certifies.
"""

import numpy as np

from cvpulse import (
    EPR_THRESHOLD,
    SEPARABILITY_THRESHOLD,
    duan_simon,
    entropy_of_formation,
    physicality_check,
    reid_epr_product,
    symmetric_two_mode_covariance,
    variance_to_db,
)

gamma = symmetric_two_mode_covariance(1.50, 0.94, 0.94)

print("two-mode covariance (X_A, P_A, X_B, P_B ordering):")
print(np.array2string(gamma, precision=3))

# sanity first: the matrix must describe an allowed quantum state
verdict = physicality_check(gamma)
print(f"\nphysical state: {verdict.passed} (min eigenvalue {verdict.min_eigenvalue:+.3e})")

sum_variance = duan_simon(gamma)
reid_product = reid_epr_product(gamma)
print(f"\nsum variance        : {sum_variance:.4f}  (< 2 certifies nonseparability)")
print(f"nonseparable        : {sum_variance < SEPARABILITY_THRESHOLD}")
print(f"conditional product : {reid_product:.4f}  (< 1 certifies EPR correlations)")
print(f"EPR criterion met   : {reid_product < EPR_THRESHOLD}")

print(f"\nentropy of formation: {entropy_of_formation(gamma):.4f} ebits")
# with equal X and P correlations the formula's argument is half the sum variance
print(f"(argument of the entropy formula: {sum_variance / 2.0:.4f})")

# the same numbers expressed as noise levels relative to shot noise
squeezed = gamma[0, 0] - gamma[0, 2]
print(f"\ncorrected squeezed variance {squeezed:.2f} -> {variance_to_db(squeezed):+.2f} dB")
print(f"diagonal variance           {gamma[0, 0]:.2f} -> {variance_to_db(gamma[0, 0]):+.2f} dB")
