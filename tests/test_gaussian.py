"""Core covariance algebra: transforms, sources, loss, physicality."""

import math

import numpy as np
import pytest

from cvpulse.gaussian import (
    MAX_VARIANCE,
    PhysicalityResult,
    SourceSpec,
    physicality_check,
    symmetric_two_mode_covariance,
    symplectic_form,
)
from gaussian_reference import (
    apply_transform,
    beamsplitter,
    loss_channel,
    mode_block,
    phase_rotation,
    quotient_bound_accepts,
    source_covariance,
    two_mode_squeezer,
)


def _squeezer_moment_oracle(r):
    """Covariance of the squeezed pair from first principles.

    Writes each output quadrature as a linear combination of four independent
    unit-variance vacuum quadratures and evaluates every second moment as the
    inner product of coefficient rows, independent of the matrix machinery.
    """
    c, s = math.cosh(r), math.sinh(r)
    rows = [
        [c, 0.0, s, 0.0],  # X_A = c x_a + s x_b
        [0.0, c, 0.0, -s],  # P_A = c p_a - s p_b
        [s, 0.0, c, 0.0],  # X_B = s x_a + c x_b
        [0.0, -s, 0.0, c],  # P_B = -s p_a + c p_b
    ]
    out = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            out[i, j] = sum(rows[i][k] * rows[j][k] for k in range(4))
    return out


def _random_symplectic(rng):
    """Short random chain of squeezers, rotations and beamsplitters."""
    s = np.eye(4)
    for _ in range(rng.integers(2, 5)):
        pick = rng.integers(0, 3)
        if pick == 0:
            s = two_mode_squeezer(rng.uniform(0.0, 1.2)) @ s
        elif pick == 1:
            s = phase_rotation(rng.uniform(0.0, 2.0 * math.pi), int(rng.integers(0, 2))) @ s
        else:
            s = beamsplitter(rng.uniform(0.05, 0.95)) @ s
    return s


def test_symplectic_form_squares_to_minus_identity():
    """The form satisfies Omega @ Omega = -identity."""
    omega = symplectic_form()
    np.testing.assert_allclose(omega @ omega, -np.eye(4), atol=1e-15)


def test_symplectic_form_is_one_read_only_two_mode_array():
    """One Omega, built at import for the one two-mode state: no mode count to pass."""
    omega = symplectic_form()
    assert omega is symplectic_form()
    np.testing.assert_array_equal(omega, np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(TypeError):
        symplectic_form(2)
    with pytest.raises(ValueError, match="read-only"):
        omega[0, 1] = 2.0


def test_elementary_transforms_are_symplectic():
    """Squeezer, rotation and beamsplitter all preserve the symplectic form."""
    omega = symplectic_form()
    for s in (
        two_mode_squeezer(0.472),
        two_mode_squeezer(1.5),
        phase_rotation(0.83, 0),
        phase_rotation(2.9, 1),
        beamsplitter(0.5),
        beamsplitter(0.23),
    ):
        np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-12)


def test_random_composed_transforms_stay_symplectic():
    """1000 random chains keep || S Omega S^T - Omega || below 1e-12."""
    rng = np.random.default_rng(41)
    omega = symplectic_form()
    worst = 0.0
    for _ in range(1000):
        s = _random_symplectic(rng)
        worst = max(worst, np.max(np.abs(s @ omega @ s.T - omega)))
    assert worst < 1e-12


def test_squeezer_moments_match_first_principles_oracle():
    """Squeezer output moments agree with the direct coefficient-row oracle."""
    for r in (0.0, 0.3, 0.472, 1.1):
        via_transform = apply_transform(two_mode_squeezer(r), np.eye(4))
        np.testing.assert_allclose(via_transform, _squeezer_moment_oracle(r), atol=1e-12)


def test_squeezer_correlations_at_reference_gain():
    """r = 0.472 gives X-X correlation sinh(2r) ~ 1.090."""
    r = 0.472
    gamma = apply_transform(two_mode_squeezer(r), np.eye(4))
    assert gamma[0, 2] == pytest.approx(1.090, abs=2e-3)
    assert gamma[1, 3] == pytest.approx(-gamma[0, 2], abs=1e-12)


def test_source_covariance_matches_transform_route():
    """Closed-form source covariance equals squeezing the vacuum explicitly."""
    for r in (0.0, 0.25, 0.472, 1.3):
        closed = source_covariance(SourceSpec.pure_nopa(r))
        explicit = apply_transform(two_mode_squeezer(r), np.eye(4))
        np.testing.assert_allclose(closed, explicit, atol=1e-12)


def test_difference_variance_is_squeezed():
    """var(X_A - X_B) of the pure pair equals 2 exp(-2r)."""
    for r in (0.1, 0.472, 1.0):
        g = source_covariance(SourceSpec.pure_nopa(r))
        var_diff = g[0, 0] + g[2, 2] - 2.0 * g[0, 2]
        assert var_diff == pytest.approx(2.0 * math.exp(-2.0 * r), rel=1e-12)


def test_phase_rotation_pi_flips_signs():
    """A pi rotation of one mode negates both of its quadratures."""
    g = source_covariance(SourceSpec.pure_nopa(0.472))
    flipped = apply_transform(phase_rotation(math.pi, 1), g)
    expected = g.copy()
    expected[0:2, 2:4] *= -1.0
    expected[2:4, 0:2] *= -1.0
    np.testing.assert_allclose(flipped, expected, atol=1e-12)
    with pytest.raises(ValueError):
        phase_rotation(0.3, 2)


def test_balanced_recombination_squeezes_sum_port():
    """After a balanced beamsplitter the sum port has var(P) = exp(-2r)."""
    r = 0.472
    g = source_covariance(SourceSpec.pure_nopa(r))
    port = mode_block(apply_transform(beamsplitter(0.5), g), 0)
    assert port[1, 1] == pytest.approx(math.exp(-2.0 * r), rel=1e-12)
    assert port[0, 0] == pytest.approx(math.exp(2.0 * r), rel=1e-12)


def test_beamsplitter_preserves_vacuum():
    """Vacuum in, vacuum out for any reflectivity."""
    for refl in (0.1, 0.5, 0.77):
        out = apply_transform(beamsplitter(refl), np.eye(4))
        np.testing.assert_allclose(out, np.eye(4), atol=1e-15)
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            beamsplitter(bad)


def test_ellipse_turns_by_half_the_dephasing_angle():
    """Dephasing one arm by theta turns the output ellipse by theta / 2.

    The extreme variances of the recombined port stay pinned at exp(-/+ 2r)
    on a 16-point theta grid while the squeezed direction moves as
    pi/2 - theta/2 modulo pi.
    """
    r = 0.472
    g = source_covariance(SourceSpec.pure_nopa(r))
    lo, hi = math.exp(-2.0 * r), math.exp(2.0 * r)
    for theta in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
        chain = beamsplitter(0.5) @ phase_rotation(theta, 1)
        block = mode_block(apply_transform(chain, g), 0)
        eigs = np.linalg.eigvalsh(block)
        assert abs(eigs[0] - lo) < 1e-12
        assert abs(eigs[1] - hi) < 1e-12
        # direction of the small eigenvalue, compared modulo pi
        vec = np.linalg.eigh(block)[1][:, 0]
        phi_min = math.atan2(vec[1], vec[0]) % math.pi
        expected = (math.pi / 2.0 - theta / 2.0) % math.pi
        delta = abs((phi_min - expected + math.pi / 2.0) % math.pi - math.pi / 2.0)
        assert delta < 1e-9


def test_loss_channel_limits_and_cross_scaling():
    """eta = 1 is the identity; diagonals are affine in eta; cross terms scale sqrt(eta)."""
    g = source_covariance(SourceSpec.pure_nopa(0.8))
    np.testing.assert_allclose(loss_channel(g, 1.0), g, atol=1e-15)
    eta = 0.41
    lossy = loss_channel(g, eta, mode=1)
    assert lossy[2, 2] == pytest.approx(eta * g[2, 2] + (1.0 - eta), rel=1e-12)
    assert lossy[0, 2] == pytest.approx(math.sqrt(eta) * g[0, 2], rel=1e-12)
    assert lossy[0, 0] == g[0, 0]
    both = loss_channel(g, eta)
    np.testing.assert_allclose(both, eta * g + (1.0 - eta) * np.eye(4), atol=1e-15)
    for bad in (0.0, 1.2, -0.1):
        with pytest.raises(ValueError):
            loss_channel(g, bad)
    with pytest.raises(ValueError):
        loss_channel(g, 0.5, mode=2)


def test_loss_interpolates_monotonically_to_vacuum():
    """Every matrix entry moves monotonically from the state to vacuum as eta drops."""
    g = source_covariance(SourceSpec.symmetric_mixed(1.50, 0.94))
    etas = np.linspace(1.0, 0.05, 20)
    stack = np.array([loss_channel(g, e) for e in etas])
    diffs = np.diff(stack, axis=0)
    # per entry, all steps share one sign (or vanish)
    assert np.all((diffs <= 1e-15).all(axis=0) | (diffs >= -1e-15).all(axis=0))
    np.testing.assert_allclose(
        loss_channel(g, 1e-9), np.eye(4), atol=1e-8
    )


def test_quadrature_variance_of_single_beam_is_phase_flat():
    """One beam of the pair alone is thermal: cosh(2r) at every phase.

    A marginal of cosh(2r) times the identity gives that variance to every
    quadrature X cos(phi) + P sin(phi).
    """
    r = 0.7
    g = source_covariance(SourceSpec.pure_nopa(r))
    for mode in (0, 1):
        np.testing.assert_allclose(
            mode_block(g, mode), math.cosh(2.0 * r) * np.eye(2), rtol=1e-12, atol=0.0
        )
    np.testing.assert_array_equal(mode_block(np.eye(4), 0), np.eye(2))
    with pytest.raises(ValueError):
        mode_block(g, 5)


def test_physicality_check_vacuum_boundary():
    """Vacuum sits exactly on the uncertainty boundary: minimum eigenvalue 0."""
    result = physicality_check(np.eye(4))
    assert isinstance(result, PhysicalityResult)
    assert result.passed
    assert result.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_physicality_check_catches_sub_vacuum_noise():
    """Uncorrelated sub-vacuum variance violates the uncertainty principle."""
    bad = np.diag([0.5, 0.5, 1.0, 1.0])
    result = physicality_check(bad)
    assert not result.passed
    assert result.min_eigenvalue < -0.4
    lopsided = np.eye(4)
    lopsided[0, 1] = 0.2
    with pytest.raises(ValueError, match="not symmetric"):
        physicality_check(lopsided)


def test_physicality_check_takes_only_the_two_mode_shape():
    """A one-mode 2x2 or a three-mode 6x6 covariance, physical as it is, is refused."""
    for n in (2, 6):
        with pytest.raises(ValueError, match=rf"4x4 two-mode covariance, got shape \({n}, {n}\)"):
            physicality_check(np.eye(n))


def test_every_operation_preserves_physicality():
    """1000 random op chains on physical states keep gamma + i Omega >= -1e-9."""
    rng = np.random.default_rng(99)
    for _ in range(1000):
        if rng.random() < 0.5:
            g = source_covariance(SourceSpec.pure_nopa(rng.uniform(0.0, 1.2)))
        else:
            v = rng.uniform(1.0, 3.0)
            k = rng.uniform(0.0, 0.999 * math.sqrt(v * v - 1.0))
            g = source_covariance(SourceSpec.symmetric_mixed(v, k))
        g = apply_transform(_random_symplectic(rng), g)
        mode = [None, 0, 1][rng.integers(0, 3)]
        g = loss_channel(g, rng.uniform(0.3, 1.0), mode=mode)
        assert physicality_check(g).passed


def test_symplectic_congruence_preserves_determinant():
    """det gamma is invariant because symplectic matrices have unit determinant."""
    rng = np.random.default_rng(7)
    g = source_covariance(SourceSpec.symmetric_mixed(1.50, 0.94))
    for _ in range(50):
        s = _random_symplectic(rng)
        assert np.linalg.det(s) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.det(apply_transform(s, g)) == pytest.approx(
            np.linalg.det(g), rel=1e-9
        )


def test_transform_composition_is_associative():
    """Applying a product matrix equals applying factors in sequence."""
    g = source_covariance(SourceSpec.pure_nopa(0.6))
    a = phase_rotation(0.4, 1)
    b = beamsplitter(0.5)
    np.testing.assert_allclose(
        apply_transform(b @ a, g), apply_transform(b, apply_transform(a, g)), atol=1e-12
    )
    with pytest.raises(ValueError):
        apply_transform(np.eye(2), g)


def test_source_spec_validation():
    """Unphysical or malformed source parameters are rejected at construction."""
    SourceSpec.symmetric_mixed(1.50, 0.94)
    SourceSpec.symmetric_mixed(1.0, 0.0)
    with pytest.raises(ValueError):
        SourceSpec.symmetric_mixed(1.0, 0.5)
    with pytest.raises(ValueError):
        SourceSpec.symmetric_mixed(0.8, 0.0)
    with pytest.raises(ValueError):
        SourceSpec.symmetric_mixed(2.0, 2.5)
    with pytest.raises(ValueError):
        SourceSpec.pure_nopa(-0.1)
    with pytest.raises(ValueError):
        SourceSpec.pure_nopa(float("nan"))
    with pytest.raises(ValueError):
        two_mode_squeezer(float("inf"))
    with pytest.raises(ValueError):
        SourceSpec(kind="thermal")
    # the pure states (cosh 2r, +/-sinh 2r) up to the largest variance, either sign
    for r in np.linspace(0.0, math.log(MAX_VARIANCE) / 2.0, 300, endpoint=False).tolist():
        for sign in (1.0, -1.0):
            SourceSpec.symmetric_mixed(math.cosh(2.0 * r), sign * math.sinh(2.0 * r))


def _accepts(v, k):
    try:
        SourceSpec.symmetric_mixed(v, k)
    except ValueError:
        return False
    return True


def test_closed_form_rule_keeps_the_quotient_bound_verdicts():
    """SourceSpec's rule v - hypot(k, 1) >= -PHYSICALITY_TOL accepts and refuses
    the mixed sources the former quotient bound did: over a (v, k) grid from
    v = 1 to MAX_VARIANCE / 2 with |k| <= v, and over points 1e-8 to 1e-3 on
    either side of the boundary v^2 - k^2 = 1 for either sign of k.  Closer
    than 1e-8 the two scale the tolerance differently, and on the boundary
    the quotient bound refuses pure states of k < 0."""
    grid = [(v, t * v) for v in np.geomspace(1.0, MAX_VARIANCE / 2.0, 190).tolist()
            for t in np.linspace(-1.0, 1.0, 333).tolist()]
    edge = [(math.hypot(k, 1.0) + shift, sign * k)
            for k in np.geomspace(1e-4, MAX_VARIANCE / 4.0, 200).tolist()
            for sign in (1.0, -1.0)
            for shift in (-1e-3, -1e-6, -1e-8, 1e-8, 1e-6, 1e-3)]
    edge = [(v, k) for v, k in edge if v >= 1.0]
    assert len(grid) + len(edge) == 65_498
    verdicts = [(_accepts(v, k), quotient_bound_accepts(v, k)) for v, k in grid + edge]
    assert all(new == old for new, old in verdicts)
    assert sum(new for new, _ in verdicts) == 61_284 + 1_200


def test_source_with_noiseless_quadrature_sum_is_refused():
    """k = -v leaves var(X_A + X_B) = 2(v + k) = 0: refused as unphysical, not divided by.

    The sources beside it keep their verdicts: the bound (v - k)(v + k) >= 1
    accepts k = -1.7 and refuses k = -1.75 at v = 2.
    """
    for v in (1.0, 2.0, 1e3):
        with pytest.raises(ValueError, match=r"unphysical source: the least eigenvalue .* is -"):
            SourceSpec.symmetric_mixed(v, -v)
    SourceSpec.symmetric_mixed(2.0, -1.7)
    with pytest.raises(ValueError, match=r"unphysical source: .*, is -0.0155644 \(v\^2 - k\^2"):
        SourceSpec.symmetric_mixed(2.0, -1.75)


def test_experimental_matrix_is_physical():
    """The reconstructed experimental state passes the uncertainty test."""
    g = symmetric_two_mode_covariance(1.50, 0.94, 0.94)
    assert physicality_check(g).passed
