"""Witnesses, entropy of formation and their consistency properties."""

import math

import numpy as np
import pytest

from cvpulse.analysis import reconstruct_covariance
from cvpulse.entanglement import (
    EPR_THRESHOLD,
    SEPARABILITY_THRESHOLD,
    duan_simon,
    entropy_of_formation,
    formation_entropy,
    reid_epr_product,
    variance_to_db,
)
from cvpulse.gaussian import SourceSpec, symmetric_two_mode_covariance
from gaussian_reference import apply_transform, loss_channel, phase_rotation, source_covariance
from symmetric_states import random_symmetric_state

EXPERIMENTAL_STATE = symmetric_two_mode_covariance(1.50, 0.94, 0.94)


def test_duan_simon_on_experimental_state():
    """The reconstructed experimental matrix gives a sum variance of 1.12."""
    assert abs(duan_simon(EXPERIMENTAL_STATE) - 1.12) < 1e-12


def test_duan_simon_pure_pair_closed_form():
    """Pure squeezed pairs give 2 exp(-2r), crossing the threshold at r = 0."""
    for r in (0.0, 0.2, 0.472, 1.1):
        g = source_covariance(SourceSpec.pure_nopa(r))
        assert duan_simon(g) == pytest.approx(2.0 * math.exp(-2.0 * r), rel=1e-12)
    assert duan_simon(np.eye(4)) == pytest.approx(SEPARABILITY_THRESHOLD)
    with pytest.raises(ValueError):
        duan_simon(np.eye(2))


def test_reid_product_against_regression_oracle():
    """Conditional variances match residuals of an explicit linear regression.

    Draws bivariate Gaussian samples with the experimental covariance and
    compares the regression residual variance with the analytic conditional
    variance entering the product.
    """
    rng = np.random.default_rng(17)
    n = 2_000_000
    cov_x = np.array([[1.50, 0.94], [0.94, 1.50]])
    xa, xb = rng.multivariate_normal([0.0, 0.0], cov_x, size=n).T
    slope = np.cov(xa, xb)[0, 1] / xa.var(ddof=1)
    resid_var = (xb - slope * xa).var(ddof=1)
    analytic = 1.50 - 0.94**2 / 1.50
    assert resid_var == pytest.approx(analytic, abs=0.01)
    product = reid_epr_product(EXPERIMENTAL_STATE)
    assert product == pytest.approx(analytic**2, rel=1e-12)
    assert product == pytest.approx(0.830, abs=1e-3)
    assert product < EPR_THRESHOLD


def test_reid_product_pure_pair():
    """Pure pairs give 1 / cosh(2r)^2; vacuum sits at the threshold."""
    for r in (0.3, 0.472, 0.9):
        g = source_covariance(SourceSpec.pure_nopa(r))
        assert reid_epr_product(g) == pytest.approx(
            1.0 / math.cosh(2.0 * r) ** 2, rel=1e-12
        )
    assert reid_epr_product(np.eye(4)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        reid_epr_product(np.diag([1e-12, 1.0, 1.0, 1.0]))


def test_entropy_of_formation_experimental_value():
    """The experimental state carries 0.435 ebit, quoted as 0.44."""
    ebits = entropy_of_formation(EXPERIMENTAL_STATE)
    assert type(ebits) is float
    assert ebits == pytest.approx(0.435, abs=1e-3)
    assert round(ebits, 2) == 0.44
    # the argument of the formula is the squeezed variance v - k = 0.56
    assert ebits == pytest.approx(formation_entropy(0.56), rel=1e-12)


def test_entropy_matches_witness_route():
    """For symmetric states the witness carries the full entropy information."""
    for g in (EXPERIMENTAL_STATE, source_covariance(SourceSpec.pure_nopa(0.1))):
        direct = entropy_of_formation(g)
        via_witness = formation_entropy(duan_simon(g) / 2.0)
        assert abs(direct - via_witness) < 1e-12


def test_entropy_clamps_at_separable_boundary():
    """States at or above the boundary carry exactly zero ebits."""
    assert entropy_of_formation(np.eye(4)) == 0.0
    thermal = symmetric_two_mode_covariance(1.8, 0.8, 0.8)
    assert entropy_of_formation(thermal) == 0.0
    assert formation_entropy(1.0) == 0.0
    assert formation_entropy(1.7) == 0.0
    with pytest.raises(ValueError):
        formation_entropy(0.0)


def test_formation_entropy_coefficient_identity():
    """The two coefficients always differ by one, so the entropy is positive."""
    for x in (0.1, 0.56, 0.9, 0.999):
        c_plus = (x**-0.5 + x**0.5) ** 2 / 4.0
        c_minus = (x**-0.5 - x**0.5) ** 2 / 4.0
        assert c_plus - c_minus == pytest.approx(1.0, rel=1e-12)
        assert formation_entropy(x) > 0.0


def test_entropy_monotone_in_squeezing():
    """More squeezing means strictly more ebits and a strictly smaller witness."""
    rs = np.linspace(0.0, 2.0, 21)
    ds_values = []
    ef_values = []
    for r in rs:
        g = source_covariance(SourceSpec.pure_nopa(float(r)))
        ds_values.append(duan_simon(g))
        ef_values.append(entropy_of_formation(g))
    assert np.all(np.diff(ds_values) < 0.0)
    assert np.all(np.diff(ef_values) > 0.0)


def test_entropy_rejects_bad_input():
    """Non-symmetric-form and unphysical matrices are refused."""
    skewed = EXPERIMENTAL_STATE.copy()
    skewed[0, 1] = skewed[1, 0] = 0.3
    with pytest.raises(ValueError):
        entropy_of_formation(skewed)
    rotated = apply_transform(phase_rotation(0.7, 0), EXPERIMENTAL_STATE)
    with pytest.raises(ValueError):
        entropy_of_formation(rotated)
    with pytest.raises(ValueError):
        entropy_of_formation(symmetric_two_mode_covariance(0.9, 0.0, 0.0))
    lopsided = EXPERIMENTAL_STATE.copy()
    lopsided[0, 2] += 0.1  # gamma[2, 0] keeps its value
    with pytest.raises(ValueError, match="covariance matrix is not symmetric"):
        entropy_of_formation(lopsided)
    with pytest.raises(ValueError, match="variance argument"):
        formation_entropy(math.nan)
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="variance must be"):
            variance_to_db(bad)


def test_reid_implies_duan_simon_on_random_states():
    """Over 10^4 random symmetric states, EPR correlations always imply nonseparability."""
    rng = np.random.default_rng(2024)
    counterexamples = 0
    reid_hits = 0
    for _ in range(10_000):
        g = random_symmetric_state(rng)
        if reid_epr_product(g) < EPR_THRESHOLD:
            reid_hits += 1
            if not duan_simon(g) < SEPARABILITY_THRESHOLD:
                counterexamples += 1
    assert reid_hits > 1000  # the ensemble actually exercises the implication
    assert counterexamples == 0


def test_witness_verdicts_are_consistent():
    """A reconstruction's verdict mirrors the threshold comparisons."""
    report = reconstruct_covariance(1.50, 0.56)
    assert report.nonseparable and report.duan_simon < SEPARABILITY_THRESHOLD
    assert report.reid_product < EPR_THRESHOLD
    separable = reconstruct_covariance(1.0, 1.0)
    assert not separable.nonseparable
    assert not separable.reid_product < EPR_THRESHOLD


def test_loss_degrades_entanglement():
    """A common loss channel never increases the entropy of formation."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        g = random_symmetric_state(rng, eta_range=(0.8, 1.0))
        before = entropy_of_formation(g)
        after = entropy_of_formation(loss_channel(g, rng.uniform(0.3, 1.0)))
        assert after <= before + 1e-12


def test_witness_invariant_under_opposite_rotations():
    """Equal-and-opposite phase rotations of the two modes leave the witness alone."""
    g = source_covariance(SourceSpec.pure_nopa(0.472))
    reference = duan_simon(g)
    for alpha in np.linspace(0.0, 2.0 * math.pi, 9):
        opposite = phase_rotation(float(alpha), 0) @ phase_rotation(float(-alpha), 1)
        rotated = apply_transform(opposite, g)
        assert abs(duan_simon(rotated) - reference) < 1e-12


def test_variance_to_db_published_levels():
    """The three published variances convert to the published dB levels."""
    assert variance_to_db(0.70) == pytest.approx(-1.55, abs=0.005)
    assert variance_to_db(1.96) == pytest.approx(2.92, abs=0.005)
    assert variance_to_db(0.56) == pytest.approx(-2.52, abs=0.005)
    assert variance_to_db(1.0) == 0.0
    with pytest.raises(ValueError):
        variance_to_db(0.0)
    with pytest.raises(ValueError):
        variance_to_db(-1.0)
