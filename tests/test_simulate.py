"""Pulse-level Monte Carlo: detected variances, sampling, blocking, I/O."""

import itertools
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from cvpulse.gaussian import MAX_VARIANCE, SourceSpec
from cvpulse.scenario import reference_scenario
from cvpulse.simulate import (
    DetectorModel,
    PhaseSchedule,
    RunConfig,
    block_variance_trace,
    detected_covariance,
    detected_variance,
    read_metadata,
    read_records,
    sample_pulses,
    theta_scan,
    write_records,
)
from gaussian_reference import (
    _input_covariance,
    apply_transform,
    beamsplitter,
    loss_channel,
    mode_block,
    phase_rotation,
)
from joint_sampler import sample_pulses_joint

# detector with the published overall efficiency as a single exact factor
FLAT_DETECTOR = DetectorModel(
    eta_transmission=0.68,
    eta_homodyne=1.0,
    eta_detector=1.0,
    electronic_noise_var=0.0,
)

IDEAL_DETECTOR = DetectorModel(1.0, 1.0, 1.0, 0.0)

REFERENCE_SOURCE = SourceSpec.symmetric_mixed(1.50, 0.94)


def _config(**overrides):
    base = dict(
        source=REFERENCE_SOURCE,
        detector=FLAT_DETECTOR,
        schedule=PhaseSchedule.constant(0.0, 10),
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_detector_model_defaults():
    """Default detector: published efficiencies, noise floor 11 dB under shot noise."""
    det = DetectorModel()
    assert det.efficiency == pytest.approx(0.93 * 0.88**2 * 0.945, rel=1e-12)
    assert det.efficiency == pytest.approx(0.68, abs=0.005)
    ratio_db = 10.0 * math.log10(1.0 / det.electronic_noise_var)
    assert ratio_db >= 11.0 - 1e-9
    with pytest.raises(ValueError):
        DetectorModel(eta_homodyne=1.3)
    with pytest.raises(ValueError):
        DetectorModel(electronic_noise_var=-0.1)


def test_phase_schedule_shapes():
    """Constant and ramp schedules produce the requested per-pulse phases."""
    const = PhaseSchedule.constant(0.7, 5)
    np.testing.assert_array_equal(const.values(), np.full(5, 0.7))
    ramp = PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, 8)
    values = ramp.values()
    assert len(values) == 8 == len(ramp)
    np.testing.assert_allclose(np.diff(values), 4.0 * math.pi / 8.0, rtol=1e-12)
    assert values[0] == 0.0
    assert values[-1] < 4.0 * math.pi  # endpoint excluded
    with pytest.raises(ValueError):
        PhaseSchedule(kind="random", n_pulses=3)
    with pytest.raises(ValueError):
        PhaseSchedule.constant(0.0, -1)


def test_detected_variance_published_chain():
    """The analytic chain reproduces the published detected variances."""
    cfg = _config()
    assert detected_variance(cfg, math.pi / 2.0) == pytest.approx(0.7008, abs=1e-12)
    assert detected_variance(cfg, 0.0) == pytest.approx(1.9792, abs=1e-12)
    single = _config(blocked_arm="b")
    for phi in (0.0, 0.4, math.pi / 2.0):
        assert detected_variance(single, phi) == pytest.approx(1.17, abs=1e-12)


def test_detected_variance_with_factored_efficiency():
    """The three-factor detector lands on the same published values to 2 figures."""
    cfg = _config(detector=DetectorModel(electronic_noise_var=0.0))
    assert detected_variance(cfg, math.pi / 2.0) == pytest.approx(0.70, abs=0.005)
    assert detected_variance(cfg, 0.0) == pytest.approx(1.96, abs=0.025)


def test_blocked_signal_gives_shot_noise_floor():
    """Blocking the signal beam leaves shot noise plus electronic noise."""
    noisy = DetectorModel(eta_transmission=0.68, eta_homodyne=1.0, eta_detector=1.0,
                          electronic_noise_var=0.05)
    cfg = _config(detector=noisy, blocked_arm="signal")
    for phi in (0.0, 1.0, 2.5):
        assert detected_variance(cfg, phi) == pytest.approx(1.05, abs=1e-12)


def test_phase_symmetry_between_theta_zero_and_pi():
    """Squeezing at (theta=0, phi=pi/2) equals (theta=pi, phi=0)."""
    at_zero = detected_variance(_config(theta=0.0), math.pi / 2.0)
    at_pi = detected_variance(_config(theta=math.pi), 0.0)
    assert abs(at_zero - at_pi) < 1e-12


def test_theta_scan_constant_ellipticity():
    """Extreme variances are theta-independent; the minimum moves as pi/2 - theta/2."""
    cfg = _config(source=SourceSpec.pure_nopa(0.472),
                  detector=DetectorModel(eta_transmission=1.0, eta_homodyne=1.0,
                                         eta_detector=1.0, electronic_noise_var=0.0))
    thetas = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    _, v_min, v_max, phi_min = theta_scan(cfg, thetas)
    np.testing.assert_allclose(v_min, math.exp(-2.0 * 0.472), atol=1e-12)
    np.testing.assert_allclose(v_max, math.exp(2.0 * 0.472), atol=1e-12)
    expected = (math.pi / 2.0 - thetas / 2.0) % math.pi
    delta = np.abs((phi_min - expected + math.pi / 2.0) % math.pi - math.pi / 2.0)
    assert np.max(delta) < 1e-9


@pytest.mark.parametrize(
    "overrides",
    [dict(blocked_arm="a"), dict(blocked_arm="b"), dict(blocked_arm="signal"),
     dict(source=SourceSpec.pure_nopa(0.0))],
    ids=["blocked-a", "blocked-b", "blocked-signal", "vacuum"],
)
def test_theta_scan_circle_has_no_min_phase(overrides):
    """Where the detected ellipse is a circle, phi_min is NaN, not rounding noise."""
    cfg = replace(reference_scenario().config, **overrides)
    _, v_min, v_max, phi_min = theta_scan(cfg, np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))
    assert np.all(v_max - v_min <= 1e-12 * v_max)
    assert np.all(np.isnan(phi_min))


def test_theta_scan_reference_min_phase_is_finite():
    *_, phi_min = theta_scan(
        reference_scenario().config, np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    )
    assert np.all(np.isfinite(phi_min))
    assert np.all((phi_min >= 0.0) & (phi_min < math.pi))


@pytest.mark.parametrize("r", [0.5, 0.3])
@pytest.mark.parametrize("blocked_arm", ["none", "a", "b", "signal"])
@pytest.mark.parametrize(
    "source", [SourceSpec.pure_nopa(0.472), REFERENCE_SOURCE], ids=["pure_nopa", "mixed"]
)
def test_theta_scan_matches_per_theta_covariance(source, blocked_arm, r):
    """The stacked scan agrees with diagonalizing detected_covariance one theta at a time."""
    noisy = replace(FLAT_DETECTOR, eta_homodyne=0.9, electronic_noise_var=0.05)
    cfg = _config(source=source, detector=noisy, blocked_arm=blocked_arm, beamsplitter_r=r)
    thetas = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    _, v_min, v_max, phi_min = theta_scan(cfg, thetas)
    for i, theta in enumerate(thetas):
        g = detected_covariance(replace(cfg, theta=float(theta)))
        eigenvalues, eigenvectors = np.linalg.eigh(g)
        assert v_min[i] == pytest.approx(eigenvalues[0] + 0.05, abs=1e-12)
        assert v_max[i] == pytest.approx(eigenvalues[1] + 0.05, abs=1e-12)
        if eigenvalues[1] - eigenvalues[0] > 1e-9:
            expected = math.atan2(eigenvectors[1, 0], eigenvectors[0, 0])
            delta = (phi_min[i] - expected + math.pi / 2.0) % math.pi - math.pi / 2.0
            assert abs(delta) < 1e-9


@pytest.mark.parametrize("r", [0.3, 0.5, 0.8])
@pytest.mark.parametrize(
    "source",
    [SourceSpec.pure_nopa(0.472), REFERENCE_SOURCE, SourceSpec.symmetric_mixed(1.50, -0.94),
     SourceSpec.symmetric_mixed(1.50, 0.0), SourceSpec.symmetric_mixed(1.50, -0.0)],
    ids=["pure_nopa", "mixed", "negative-k", "k+0", "k-0"],
)
def test_closed_form_port_equals_the_matrix_chain(source, r):
    """The closed-form detected covariance is the tests' element-by-element
    chain (blocking, phase shift, beamsplitter, port, loss) to 1e-14 relative,
    for every blocked arm, a theta grid and two efficiencies; no entry is -0.0."""
    thetas = np.concatenate([[0.0, -0.0, math.pi], np.linspace(-20.0, 20.0, 61)])
    for arm, detector in itertools.product(("none", "a", "b", "signal"),
                                           (DetectorModel(), IDEAL_DETECTOR)):
        for theta in thetas.tolist():
            cfg = _config(source=source, detector=detector, blocked_arm=arm, beamsplitter_r=r,
                          theta=theta)
            chain = beamsplitter(r) @ phase_rotation(theta, mode=1)
            port = mode_block(apply_transform(chain, _input_covariance(source, arm)), 0)
            expected = loss_channel(port, detector.efficiency)
            g = detected_covariance(cfg)
            assert np.max(np.abs(g - expected)) <= 1e-14 * np.max(np.abs(expected))
            assert not np.signbit(g[g == 0.0]).any()


def test_squeezed_extreme_keeps_its_digits_at_the_largest_source():
    """At the largest accepted source, v + k = 2^20, an ideal detector reads
    the squeezed variance e^(-2r) = 2^-20 to 1e-12, at every theta: it is
    not left over from a difference of numbers of size 2^20."""
    cfg = _config(source=SourceSpec.pure_nopa(math.log(MAX_VARIANCE) / 2),
                  detector=IDEAL_DETECTOR)
    _, v_min, v_max, _ = theta_scan(cfg, [0.0, 1.0])
    np.testing.assert_allclose(v_min, 2.0**-20, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(v_max, 2.0**20, rtol=1e-12, atol=0.0)


def test_detected_variance_keeps_its_digits_at_the_fringe_minimum():
    """At the largest accepted source, seen by an ideal detector, the detected
    variance at theta_scan's phase of the minimum is theta_scan's v_min to
    1e-12 relative, at theta 0 and 1 and for either sign of the correlation:
    it is summed up from the minimum, not left over from a + b cos 2phi +
    c sin 2phi, which at theta = 1 misses it by 1.2e-4."""
    two_r = math.log(MAX_VARIANCE)
    sources = (SourceSpec.pure_nopa(two_r / 2.0),
               SourceSpec.symmetric_mixed(math.cosh(two_r), -math.sinh(two_r)))
    for source, theta in itertools.product(sources, (0.0, 1.0)):
        cfg = _config(source=source, detector=IDEAL_DETECTOR, theta=theta)
        _, v_min, _, phi_min = theta_scan(cfg, [theta])
        np.testing.assert_allclose(detected_variance(cfg, phi_min), v_min, rtol=1e-12, atol=0.0)
        assert math.isclose(detected_variance(cfg, float(phi_min[0])), v_min[0],
                            rel_tol=1e-12, abs_tol=0.0)


def test_sampling_is_deterministic():
    """Equal configs produce bit-identical record streams."""
    cfg = _config(schedule=PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, 5000), seed=77)
    first = sample_pulses(cfg)
    second = sample_pulses(cfg)
    np.testing.assert_array_equal(first.value, second.value)
    np.testing.assert_array_equal(first.lo_phase, second.lo_phase)
    assert sample_pulses(replace(cfg, seed=78)).value[0] != first.value[0]


def test_chunks_are_independent_of_execution_order():
    """Any chunk can be regenerated alone from (config, seed, stream, index, size)."""
    from cvpulse.simulate import _STREAM_FAST, _chunk_rng, _marginal_draw

    n, chunk = 10_000, 1024
    cfg = _config(schedule=PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, n), seed=5)
    full = sample_pulses(cfg, chunk_size=chunk)
    stitched = np.empty(n)
    for idx in reversed(range((n + chunk - 1) // chunk)):  # deliberately out of order
        lo, hi = idx * chunk, min((idx + 1) * chunk, n)
        # a fresh draw per chunk: nothing is carried over from another chunk
        draw = _marginal_draw(cfg, chunk)
        draw(lo, _chunk_rng(cfg.seed, _STREAM_FAST, idx), stitched[lo:hi], np.empty(hi - lo))
    assert np.array_equal(stitched, full.value)


class _UnitNormals:
    """Stands in for a generator so that a draw fills ``out`` with its standard deviations."""

    def standard_normal(self, m, out):
        out.fill(1.0)
        return out


@pytest.mark.parametrize(
    "schedule, chunk",
    [
        (PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, 100_003), 65536),
        (PhaseSchedule.linear_ramp(0.3, -2.0 * math.pi, 10_001), 128),
        (PhaseSchedule.linear_ramp(1.0, -4.0 * math.pi, 3_000_000), 128),
        (PhaseSchedule.constant(0.7, 1000), 128),
    ],
    ids=["ramp", "negative-ramp", "long-negative-ramp", "constant"],
)
@pytest.mark.parametrize(
    "source", [SourceSpec.pure_nopa(0.472), REFERENCE_SOURCE], ids=["pure_nopa", "mixed"]
)
def test_sampled_std_matches_detected_variance(source, schedule, chunk):
    """Fringe coefficients and chunk phasors give sqrt(detected_variance) to 1e-14.

    The long ramp has 23 438 chunks of 128 pulses, so any drift of the
    phasors from chunk to chunk would show.
    """
    from cvpulse.simulate import _marginal_draw

    cfg = _config(source=source, detector=replace(FLAT_DETECTOR, electronic_noise_var=0.05),
                  schedule=schedule, theta=0.3)
    draw = _marginal_draw(cfg, chunk)
    n = len(schedule)
    std = np.empty(n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        draw(lo, _UnitNormals(), std[lo:hi], np.empty(hi - lo))
    expected = np.sqrt(detected_variance(cfg, schedule.values()))
    np.testing.assert_allclose(std, expected, rtol=1e-14, atol=0.0)


def test_sample_variance_matches_analytic_value():
    """10^6 squeezed-phase pulses estimate the analytic variance tightly."""
    cfg = _config(schedule=PhaseSchedule.constant(math.pi / 2.0, 1_000_000), seed=11)
    train = sample_pulses(cfg)
    assert train.value.var(ddof=1) == pytest.approx(0.7008, abs=0.004)


def test_statistical_soundness_over_seeds():
    """Sample variances stay within the 4-sigma chi-square band for ~all seeds."""
    n = 10_000
    cfg = _config(schedule=PhaseSchedule.constant(0.3, n))
    truth = detected_variance(cfg, 0.3)
    band = 4.0 * truth * math.sqrt(2.0 / (n - 1))
    misses = 0
    for seed in range(1000):
        train = sample_pulses(replace(cfg, seed=seed))
        if abs(train.value.var(ddof=1) - truth) > band:
            misses += 1
    assert misses <= 2


def test_pulse_train_indexing():
    """Trains are columns of pulse index, LO phase and value."""
    cfg = _config(schedule=PhaseSchedule.constant(0.2, 50), seed=3)
    train = sample_pulses(cfg)
    assert len(train) == 50
    assert train.index[7] == 7
    assert train.lo_phase[7] == 0.2
    with pytest.raises(ValueError):
        sample_pulses(_config(schedule=PhaseSchedule.constant(0.0, 0)))


def test_block_variance_trace_vacuum_calibration():
    """Vacuum block variances follow the chi-square spread around 1."""
    n_blocks, block = 400, 2500
    cfg = _config(
        blocked_arm="signal",
        schedule=PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, n_blocks * block),
        seed=21,
    )
    columns, variances = block_variance_trace(sample_pulses(cfg), block)
    assert len(variances) == n_blocks
    spread = 3.0 * math.sqrt(2.0 / (block - 1))
    inside = np.mean(np.abs(variances - 1.0) <= spread)
    assert inside >= 0.99
    # block columns are the mean cos 2phi and sin 2phi of each block's schedule phases
    two_phi = 2.0 * cfg.schedule.values()[:block]
    expected_first = [np.cos(two_phi).mean(), np.sin(two_phi).mean()]
    assert columns.shape == (n_blocks, 2)
    assert columns[0] == pytest.approx(expected_first, rel=1e-12)


def test_block_variance_discards_partial_tail():
    """A trailing partial block is dropped, not averaged in."""
    cfg = _config(schedule=PhaseSchedule.constant(0.0, 5400), seed=2)
    _, variances = block_variance_trace(sample_pulses(cfg), 2500)
    assert len(variances) == 2
    with pytest.raises(ValueError):
        block_variance_trace(sample_pulses(_config()), 1)
    with pytest.raises(ValueError):
        block_variance_trace(sample_pulses(_config()), 2500)


def test_constant_stream_has_zero_block_variance():
    """A degenerate stream of identical values yields exactly zero variances."""
    cfg = _config(schedule=PhaseSchedule.constant(0.0, 100))
    train = sample_pulses(cfg)
    frozen = replace(train, value=np.full(100, 1.25))
    _, variances = block_variance_trace(frozen, 10)
    np.testing.assert_array_equal(variances, np.zeros(10))


def test_joint_sampler_agrees_with_fast_path():
    """The brute-force four-variable sampler matches the marginal sampler."""
    n = 30_000
    for phi in (0.0, 0.9, math.pi / 2.0):
        cfg = _config(
            schedule=PhaseSchedule.constant(phi, n),
            seed=13,
            detector=DetectorModel(),  # includes electronic noise
            theta=0.4,
        )
        fast = sample_pulses(cfg).value.var(ddof=1)
        joint = sample_pulses_joint(cfg).value.var(ddof=1)
        truth = detected_variance(cfg, phi)
        sigma = truth * math.sqrt(2.0 / (n - 1))
        assert abs(fast - joint) <= 4.0 * math.sqrt(2.0) * sigma
        assert abs(joint - truth) <= 4.0 * sigma


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_phases_must_be_finite(bad):
    """A non-finite LO phase or relative phase is refused, not turned into
    a nan row, a RuntimeWarning or a math domain error."""
    cfg = _config()
    with pytest.raises(ValueError, match="lo_phase"):
        detected_variance(cfg, bad)
    with pytest.raises(ValueError, match="lo_phase"):
        detected_variance(cfg, [0.0, bad])
    with pytest.raises(ValueError, match="thetas"):
        theta_scan(cfg, [0.0, bad])


def test_phases_up_to_the_bound_sample_finite_values_and_larger_are_refused():
    """Up to a quarter of the largest double, a schedule's phases, their doubles,
    a ramp's span and twice it are finite, so every pulse samples a finite value;
    a phase beyond it is refused by field name."""
    bound = sys.float_info.max / 4.0
    for schedule in (PhaseSchedule.linear_ramp(-bound, bound, 200_000),
                     PhaseSchedule.linear_ramp(0.0, bound, 200_000),
                     PhaseSchedule.linear_ramp(bound, -bound, 1000),
                     PhaseSchedule.constant(-bound, 1000)):
        assert np.isfinite(sample_pulses(_config(schedule=schedule)).value).all()
    beyond = math.nextafter(bound, math.inf)
    for field, schedule in (("phi", dict(kind="constant", phi=-beyond)),
                            ("phi_start", dict(kind="linear_ramp", phi_start=beyond)),
                            ("phi_end", dict(kind="linear_ramp", phi_end=-beyond))):
        with pytest.raises(ValueError, match=f"invalid {field}: must lie within"):
            PhaseSchedule(n_pulses=10, **schedule)


def test_csv_round_trip(tmp_path):
    """Records survive CSV writing bit-for-bit, with full metadata alongside."""
    cfg = _config(schedule=PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, 300), seed=9)
    train = sample_pulses(cfg, chunk_size=128)
    path = tmp_path / "records.csv"
    write_records(cfg, path, chunk_size=128)
    back = read_records(path)
    np.testing.assert_array_equal(back.index, train.index)
    np.testing.assert_array_equal(back.lo_phase, train.lo_phase)
    np.testing.assert_array_equal(back.value, train.value)
    meta = read_metadata(path)
    assert meta["chunk_size"] == 128
    assert meta["n_pulses"] == 300
    assert RunConfig.from_dict(meta["config"]) == cfg
    assert path.read_text().splitlines()[0] == "index,lo_phase_rad,value"


@pytest.mark.parametrize("detector", [DetectorModel(), IDEAL_DETECTOR], ids=["reference", "ideal"])
def test_largest_accepted_source_writes_finite_records(tmp_path, detector):
    """At the largest quadrature variance a source may have, pure or mixed,
    no step of writing records or scanning theta overflows or takes the root
    of a negative variance, the records are finite and every scanned minimum
    variance is positive; one step further, the source is refused."""
    r_max = 0.5 * math.log(MAX_VARIANCE)
    v = 0.5 * (MAX_VARIANCE + 1.0 / MAX_VARIANCE)  # v + k = MAX_VARIANCE, v - k = its inverse
    schedule = PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, 20_000)
    with np.errstate(all="raise"):
        for source in (SourceSpec.pure_nopa(r_max), SourceSpec.symmetric_mixed(v, MAX_VARIANCE - v)):
            for theta in (0.0, 1.0, math.pi / 2, math.pi):
                for r in (0.5, 0.3):
                    config = _config(source=source, detector=detector, schedule=schedule,
                                     theta=theta, beamsplitter_r=r)
                    train = read_records(write_records(config, tmp_path / "r.csv"))
                    assert np.isfinite(train.value).all()
                    _, v_min, v_max, _ = theta_scan(config, np.linspace(0.0, 2.0 * math.pi, 64))
                    assert (v_min > 0.0).all() and np.isfinite(v_max).all()
    with pytest.raises(ValueError, match="invalid r: largest quadrature variance"):
        SourceSpec.pure_nopa(math.nextafter(r_max, math.inf))
    with pytest.raises(ValueError, match="invalid v: largest quadrature variance"):
        SourceSpec.symmetric_mixed(math.nextafter(MAX_VARIANCE, math.inf), 0.0)


def test_csv_rejects_malformed_input(tmp_path):
    """Bad header or bad rows raise with the offending line number."""
    path = tmp_path / "bad.csv"
    path.write_text("pulse,phase,val\n0,0.0,1.0\n")
    with pytest.raises(ValueError, match="line 1"):
        read_records(path)
    path.write_text("index,lo_phase_rad,value\n0,0.0,1.0\n1,0.1\n")
    with pytest.raises(ValueError, match="line 3"):
        read_records(path)
    path.write_text("index,lo_phase_rad,value\n0,zero,1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        read_records(path)
    path.write_text("index,lo_phase_rad,value\n")
    with pytest.raises(ValueError, match="no records"):
        read_records(path)


def test_csv_rejects_an_empty_file(tmp_path):
    """A file of no bytes has no header: line 1 is named, as for a wrong one."""
    path = tmp_path / "bad.csv"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match=r"^bad\.csv line 1: expected header .*, got ''$"):
        read_records(path)


def test_csv_names_the_line_of_a_field_loadtxt_rejects(tmp_path):
    """A field np.loadtxt rejects, or a byte that is not UTF-8, is named by
    file and line, not by np.loadtxt's row count or the codec's offset."""
    path = tmp_path / "bad.csv"
    path.write_text("index,lo_phase_rad,value\n0,0.5,1_0\n")
    with pytest.raises(ValueError, match=r"^bad\.csv line 2: non-numeric field in '0,0.5,1_0'$"):
        read_records(path)
    path.write_bytes(b"index,lo_phase_rad,value\n0,0.5,1.0\n1,0.5,\xff1.0\n")
    with pytest.raises(ValueError, match=r"^bad\.csv line 3: byte 0xff is not UTF-8 text$"):
        read_records(path)
    path.write_bytes(b"index,lo_phase_rad,value # \xff\n0,0.5,1.0\n")
    with pytest.raises(ValueError, match=r"^bad\.csv line 1: byte 0xff"):
        read_records(path)


def test_run_config_validation():
    """Config invariants are enforced at construction."""
    with pytest.raises(ValueError):
        _config(beamsplitter_r=1.0)
    with pytest.raises(ValueError):
        _config(blocked_arm="c")
    with pytest.raises(ValueError):
        _config(seed=-1)
    with pytest.raises(ValueError):
        _config(seed=2**64)
    with pytest.raises(ValueError):
        _config(theta=float("inf"))
    with pytest.raises(ValueError, match="seed"):
        _config(seed=True)
    with pytest.raises(ValueError, match="n_pulses"):
        _config(schedule=PhaseSchedule.constant(0.0, 2.5))
    numpy_seed = _config(seed=np.uint64(5))
    assert type(numpy_seed.to_dict()["seed"]) is int
    assert numpy_seed == _config(seed=5)
