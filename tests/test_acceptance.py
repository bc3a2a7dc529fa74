"""Acceptance gate: every shipped claim, one verdict line per criterion.

Run under pytest as part of the suite, or directly::

    python tests/test_acceptance.py

to get the seven PASS/FAIL lines without any test-runner noise.
"""

import math
import sys
import time

import numpy as np
from scipy import stats

from cvpulse.analysis import efficiency_inversion, reconstruct_covariance
from cvpulse.cli import reference_check_rows, run_reference_scans
from cvpulse.entanglement import (
    duan_simon,
    entropy_of_formation,
    reid_epr_product,
    variance_to_db,
)
from cvpulse.gaussian import (
    SourceSpec,
    beamsplitter,
    physicality_check,
    source_covariance,
    symmetric_two_mode_covariance,
    symplectic_form,
)
from cvpulse.simulate import (
    DetectorModel,
    PhaseSchedule,
    RunConfig,
    detected_variance,
    sample_pulses,
    theta_scan,
)
from gaussian_reference import apply_transform, phase_rotation, two_mode_squeezer
from joint_sampler import sample_pulses_joint
from symmetric_states import random_symmetric_state

REFERENCE_GAMMA = symmetric_two_mode_covariance(1.50, 0.94, 0.94)

FLAT_DETECTOR = DetectorModel(
    eta_transmission=0.68, eta_homodyne=1.0, eta_detector=1.0, electronic_noise_var=0.0
)

IDEAL_DETECTOR = DetectorModel(
    eta_transmission=1.0, eta_homodyne=1.0, eta_detector=1.0, electronic_noise_var=0.0
)


def _verdict(number: int, name: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}  [{detail}]")
    return ok


# ---------------------------------------------------------------- criterion 1


def criterion_reference_sum_variance():
    value = duan_simon(REFERENCE_GAMMA)
    ok = abs(value - 1.12) <= 1e-12
    return ok, f"sum variance {value:.15f}, expected 1.12 within 1e-12"


def test_acceptance_1_reference_sum_variance():
    ok, detail = criterion_reference_sum_variance()
    assert _verdict(1, "reference sum variance", ok, detail)


# ---------------------------------------------------------------- criterion 2


def criterion_reference_entropy():
    ebits = entropy_of_formation(REFERENCE_GAMMA)
    ok = abs(ebits - 0.435) <= 1e-3 and round(ebits, 2) == 0.44
    return ok, f"entropy {ebits:.6f} ebits, expected 0.435 within 1e-3"


def test_acceptance_2_reference_entropy():
    ok, detail = criterion_reference_entropy()
    assert _verdict(2, "reference entropy of formation", ok, detail)


# ---------------------------------------------------------------- criterion 3


def criterion_analytic_detection_chain():
    cfg = RunConfig(
        source=SourceSpec.symmetric_mixed(1.50, 0.94),
        detector=FLAT_DETECTOR,
        schedule=PhaseSchedule.constant(0.0, 1),
    )
    squeezed = detected_variance(cfg, math.pi / 2.0)
    antisqueezed = detected_variance(cfg, 0.0)
    single = detected_variance(
        RunConfig(
            source=SourceSpec.symmetric_mixed(1.50, 0.94),
            detector=FLAT_DETECTOR,
            schedule=PhaseSchedule.constant(0.0, 1),
            blocked_arm="b",
        ),
        0.0,
    )
    ok = (
        abs(squeezed - 0.7008) <= 1e-12
        and abs(antisqueezed - 1.9792) <= 1e-12
        and abs(antisqueezed - 1.96) <= 0.02
        and abs(single - 1.17) <= 1e-12
    )
    detail = (
        f"squeezed {squeezed:.6f} (exp 0.7008), antisqueezed {antisqueezed:.6f} "
        f"(exp 1.9792), single-beam {single:.6f} (exp 1.17)"
    )
    return ok, detail


def test_acceptance_3_analytic_detection_chain():
    ok, detail = criterion_analytic_detection_chain()
    assert _verdict(3, "analytic detection chain", ok, detail)


# ---------------------------------------------------------------- criterion 4


def criterion_decibel_levels():
    pairs = [(0.70, -1.55), (1.96, 2.92), (0.56, -2.52)]
    worst = max(abs(variance_to_db(v) - db) for v, db in pairs)
    ok = worst <= 0.005
    return ok, f"max |dB error| {worst:.5f}, allowed 0.005"


def test_acceptance_4_decibel_levels():
    ok, detail = criterion_decibel_levels()
    assert _verdict(4, "decibel conversions", ok, detail)


# ---------------------------------------------------------------- criterion 5


def criterion_full_reproduction():
    start = time.perf_counter()
    report = run_reference_scans(pulses_per_scan=1_000_000, seed=12345)
    elapsed = time.perf_counter() - start
    rows = reference_check_rows(report, 1_000_000)
    repeat = run_reference_scans(pulses_per_scan=1_000_000, seed=12345)
    ok = (
        all(r.passed for r in rows)
        and abs(report.duan_simon - 1.12) <= 0.02
        and abs(report.corrected_squeezed_variance - 0.56) <= 0.01
        and repeat.duan_simon == report.duan_simon
        and elapsed < 60.0
    )
    failed = [r.name for r in rows if not r.passed]
    detail = (
        f"{sum(r.passed for r in rows)}/{len(rows)} checks pass, "
        f"sum variance {report.duan_simon:.4f} (exp 1.12 +/- 0.02), "
        f"corrected squeezed {report.corrected_squeezed_variance:.4f} "
        f"(exp 0.56 +/- 0.01), deterministic repeat "
        f"{'identical' if repeat.duan_simon == report.duan_simon else 'DIFFERS'}, "
        f"{elapsed:.1f} s"
    )
    if failed:
        detail += f"; failing: {', '.join(failed)}"
    return ok, detail


def test_acceptance_5_full_reproduction():
    ok, detail = criterion_full_reproduction()
    assert _verdict(5, "statistical reproduction at 10^6 pulses per scan", ok, detail)


# ---------------------------------------------------------------- criterion 6


def _symplectic_closure_defect(n_chains=1000):
    rng = np.random.default_rng(61)
    omega = symplectic_form()
    worst = 0.0
    for _ in range(n_chains):
        s = np.eye(4)
        for _ in range(rng.integers(2, 5)):
            pick = rng.integers(0, 3)
            if pick == 0:
                s = two_mode_squeezer(rng.uniform(0.0, 1.2)) @ s
            elif pick == 1:
                s = phase_rotation(rng.uniform(0.0, 2.0 * math.pi), int(rng.integers(0, 2))) @ s
            else:
                s = beamsplitter(rng.uniform(0.05, 0.95)) @ s
        worst = max(worst, float(np.max(np.abs(s @ omega @ s.T - omega))))
    return worst


def _physicality_failures(n_states=1000):
    rng = np.random.default_rng(62)
    failures = 0
    for _ in range(n_states):
        gamma = random_symmetric_state(rng)
        if not physicality_check(gamma).passed:
            failures += 1
    return failures


def _ellipse_law_defect():
    cfg = RunConfig(
        source=SourceSpec.pure_nopa(0.472),
        detector=IDEAL_DETECTOR,
        schedule=PhaseSchedule.constant(0.0, 1),
    )
    thetas = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    _, v_min, v_max, phi_min = theta_scan(cfg, thetas)
    extreme_defect = max(
        float(np.max(np.abs(v_min - math.exp(-2.0 * 0.472)))),
        float(np.max(np.abs(v_max - math.exp(2.0 * 0.472)))),
    )
    expected = (math.pi / 2.0 - thetas / 2.0) % math.pi
    delta = np.abs((phi_min - expected + math.pi / 2.0) % math.pi - math.pi / 2.0)
    return extreme_defect, float(np.max(delta))


def _reid_implies_nonseparable(n_states=10_000):
    rng = np.random.default_rng(63)
    counterexamples = 0
    reid_hits = 0
    for _ in range(n_states):
        gamma = random_symmetric_state(rng)
        if reid_epr_product(gamma) < 1.0:
            reid_hits += 1
            if duan_simon(gamma) >= 2.0:
                counterexamples += 1
    return counterexamples, reid_hits


def _loss_inversion_defect(n_pairs=100):
    rng = np.random.default_rng(64)
    worst = 0.0
    for _ in range(n_pairs):
        v = rng.uniform(1.05, 3.0)
        k = rng.uniform(0.1, 0.999) * math.sqrt(v * v - 1.0)
        eta = rng.uniform(0.3, 1.0)
        source = SourceSpec.symmetric_mixed(v, k)
        det = DetectorModel(
            eta_transmission=eta, eta_homodyne=1.0, eta_detector=1.0,
            electronic_noise_var=0.0,
        )
        paired = RunConfig(
            source=source, detector=det, schedule=PhaseSchedule.constant(0.0, 1)
        )
        single = RunConfig(
            source=source, detector=det, schedule=PhaseSchedule.constant(0.0, 1),
            blocked_arm="b",
        )
        squeezed_corr = efficiency_inversion(
            detected_variance(paired, math.pi / 2.0), eta
        )
        v_corr = efficiency_inversion(
            detected_variance(single, 0.0), eta, extra_transmission=0.5
        )
        gamma = reconstruct_covariance(v_corr, squeezed_corr).covariance
        worst = max(
            worst, float(np.max(np.abs(gamma - source_covariance(source))))
        )
    return worst


def _block_variance_coverage(n_seeds=200, blocks_per_seed=10, block=2500):
    lo = stats.chi2.ppf(0.025, block - 1) / (block - 1)
    hi = stats.chi2.ppf(0.975, block - 1) / (block - 1)
    inside = 0
    total = 0
    for seed in range(n_seeds):
        cfg = RunConfig(
            source=SourceSpec.symmetric_mixed(1.50, 0.94),
            detector=FLAT_DETECTOR,
            schedule=PhaseSchedule.constant(0.0, blocks_per_seed * block),
            seed=seed,
            blocked_arm="signal",
        )
        values = sample_pulses(cfg).value.reshape(blocks_per_seed, block)
        variances = values.var(axis=1, ddof=1)
        inside += int(np.sum((variances >= lo) & (variances <= hi)))
        total += blocks_per_seed
    return inside / total


def criterion_property_battery():
    closure = _symplectic_closure_defect()
    phys_failures = _physicality_failures()
    extreme_defect, angle_defect = _ellipse_law_defect()
    counterexamples, reid_hits = _reid_implies_nonseparable()
    inversion = _loss_inversion_defect()
    coverage = _block_variance_coverage()
    ok = (
        closure < 1e-12
        and phys_failures == 0
        and extreme_defect < 1e-12
        and angle_defect < 1e-9
        and counterexamples == 0
        and reid_hits > 1000
        and inversion < 1e-9
        and 0.90 <= coverage <= 1.00
    )
    detail = (
        f"symplectic defect {closure:.2e} (<1e-12), physicality failures "
        f"{phys_failures}/1000, ellipse extreme defect {extreme_defect:.2e} "
        f"(<1e-12), angle defect {angle_defect:.2e} (<1e-9), EPR-without-"
        f"nonseparability counterexamples {counterexamples}/{reid_hits}, "
        f"loss-inversion defect {inversion:.2e} (<1e-9), variance coverage "
        f"{coverage:.3f} (in [0.90, 1.00])"
    )
    return ok, detail


def test_acceptance_6_property_battery():
    ok, detail = criterion_property_battery()
    assert _verdict(6, "model property battery", ok, detail)


# ---------------------------------------------------------------- criterion 7


def criterion_sampler_cross_check():
    start = time.perf_counter()
    n = 100_000
    worst_sigma = 0.0
    for i, phi in enumerate(np.linspace(0.0, math.pi, 8, endpoint=False)):
        cfg = RunConfig(
            source=SourceSpec.symmetric_mixed(1.50, 0.94),
            detector=DetectorModel(electronic_noise_var=0.0),
            schedule=PhaseSchedule.constant(float(phi), n),
            seed=2024 + i,
            theta=0.4,
        )
        truth = detected_variance(cfg, float(phi))
        fast = sample_pulses(cfg).value.var(ddof=1)
        joint = sample_pulses_joint(cfg).value.var(ddof=1)
        sigma_diff = truth * math.sqrt(4.0 / (n - 1))
        worst_sigma = max(worst_sigma, abs(fast - joint) / sigma_diff)
    elapsed = time.perf_counter() - start
    ok = worst_sigma <= 4.0 and elapsed < 30.0
    detail = (
        f"worst |fast - joint| = {worst_sigma:.2f} sigma over 8 phases at "
        f"10^5 pulses (allowed 4), {elapsed:.1f} s"
    )
    return ok, detail


def test_acceptance_7_sampler_cross_check():
    ok, detail = criterion_sampler_cross_check()
    assert _verdict(7, "independent sampler cross-check", ok, detail)


# ------------------------------------------------------------------- runner

_CRITERIA = (
    (1, "reference sum variance", criterion_reference_sum_variance),
    (2, "reference entropy of formation", criterion_reference_entropy),
    (3, "analytic detection chain", criterion_analytic_detection_chain),
    (4, "decibel conversions", criterion_decibel_levels),
    (5, "statistical reproduction at 10^6 pulses per scan", criterion_full_reproduction),
    (6, "model property battery", criterion_property_battery),
    (7, "independent sampler cross-check", criterion_sampler_cross_check),
)


def main() -> int:
    all_ok = True
    for number, name, fn in _CRITERIA:
        ok, detail = fn()
        _verdict(number, name, ok, detail)
        all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
