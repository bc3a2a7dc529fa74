"""The fault ledger: each reproduced fault of ROADMAP.md as a test of the right behaviour.

A row still open is a strict xfail that fails by an AssertionError naming the measured
value (``pytest -rx`` prints it): a pass fails the suite, so the change that mends a
fault removes its marker, and the row becomes an ordinary gate.  A row that fails for
any other reason is not the expected failure.  A mended row is an ordinary test here.
"""

import json
import math
import shutil
from dataclasses import replace

import numpy as np
import pytest

import cvpulse.analysis as analysis
import cvpulse.records as records
from cvpulse.analysis import end_to_end_report, report_from_levels
from cvpulse.cli import EXIT_INVALID_INPUT, EXIT_OK, main
from cvpulse.gaussian import SourceSpec
from cvpulse.scenario import reference_scenario
from cvpulse.simulate import DEFAULT_ELECTRONIC_NOISE_VAR, _fringe, _squeezed_level, _stream_scans
import reference_pulls

REFERENCE = reference_scenario().config
REFERENCE_DUAN_SIMON = 1.12  # 2 (v - k) of the reference source, symmetric_mixed(1.50, 0.94)


def _fault(item: int, what: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {item}: {what}")


@_fault(4, "analyze ignores the config's electronic noise")
def test_exact_noisy_levels_give_the_reference_duan_simon():
    """The exact extremes of the reference fringe with the detector's default noise
    floor (0.0794) reconstruct the reference source: no Monte Carlo is involved."""
    config = replace(REFERENCE, detector=replace(
        REFERENCE.detector, electronic_noise_var=DEFAULT_ELECTRONIC_NOISE_VAR))
    a, s, _ = _fringe(config, 0.0)
    noise = config.detector.electronic_noise_var
    report = report_from_levels(config, _squeezed_level(config) + noise, 0.001,
                                a + abs(s) + noise)
    assert report.duan_simon == pytest.approx(REFERENCE_DUAN_SIMON, rel=1e-9), report.duan_simon


def _simulated(out, scenario=None, pulses=50_000):
    """``simulate --pulses P`` into ``out``, over ``scenario`` when given; the CSV path."""
    out.mkdir()
    argv = ["simulate", "--pulses", str(pulses), "--out", str(out)]
    if scenario is not None:
        (out / "s.json").write_text(json.dumps(scenario))
        argv += ["--scenario", str(out / "s.json")]
    assert main(argv) == EXIT_OK
    return out / "pulses.csv"


def _analyze(capsys, csv):
    capsys.readouterr()
    code = main(["analyze", str(csv), "--out", str(csv.parent)])
    return code, capsys.readouterr().err


def test_a_swapped_sidecar_is_refused(tmp_path, capsys):
    """The sidecar of a run with eta_transmission 0.75, copied onto a reference record
    of the same length, does not bind it: analyze exits 2 naming records_sha256
    (ROADMAP item 15; it used to analyze the record with the other run's efficiency)."""
    csv = _simulated(tmp_path / "reference")
    other = _simulated(tmp_path / "other", {"detector": {"eta_transmission": 0.75}})
    shutil.copy(other.with_suffix(".json"), csv.with_suffix(".json"))
    code, err = _analyze(capsys, csv)
    assert code == EXIT_INVALID_INPUT and "records_sha256" in err, f"exit {code}: {err!r}"


def test_an_edited_value_byte_is_refused(tmp_path, capsys):
    """One digit of one value changed after simulate wrote the record: analyze exits 2
    naming records_sha256 (ROADMAP item 15; it used to read the edited record in full)."""
    csv = _simulated(tmp_path / "run")
    lines = csv.read_bytes().splitlines(keepends=True)
    digit = lines[1000][-2] - ord("0")
    lines[1000] = lines[1000][:-2] + str((digit + 1) % 10).encode() + b"\n"
    csv.write_bytes(b"".join(lines))
    code, err = _analyze(capsys, csv)
    assert code == EXIT_INVALID_INPUT and "records_sha256" in err, f"exit {code}: {err!r}"


def test_a_locked_lo_phase_is_refused_before_any_record_is_read(tmp_path, capsys, monkeypatch):
    """A record of a constant schedule holds no fringe: analyze exits 2 saying so, from
    its sidecar alone, before it hashes or reads a byte of the record (ROADMAP item 15;
    it used to read it in full, then advise more pulses or a smaller block)."""
    csv = _simulated(tmp_path / "run", {"schedule": {"kind": "constant", "phi": 0.0}}, 100_000)

    def never(*args, **kwargs):
        raise AssertionError("the record was hashed or read")

    monkeypatch.setattr(records, "read", never)
    monkeypatch.setattr(records, "blocks", never)
    code, err = _analyze(capsys, csv)
    assert code == EXIT_INVALID_INPUT
    assert err == ("error: degenerate fit: the records' LO phase is locked at 0.0 rad (a "
                   "constant schedule), so they hold no fringe to fit; record a phase ramp\n")


@_fault(2, "the fit weights bias the extremes low and the error bars are too large")
def test_duan_simon_pulls_are_standard_normal():
    """Over 300 seeds at 10^5 pulses per scan, (DS - 1.12) / duan_simon_stderr has a
    mean within 0.2 of 0 and a standard deviation in [0.85, 1.15]."""
    pulls, _ = reference_pulls.pulls(_stream_scans)  # drawn once, shared with test_surrogate
    mean, sd = float(np.mean(pulls)), float(np.std(pulls, ddof=1))
    assert abs(mean) < 0.2 and 0.85 <= sd <= 1.15, f"pull mean {mean:.3f}, sd {sd:.3f}"


@_fault(10, "nonseparable is a test on the point estimate alone")
def test_a_separable_boundary_state_is_never_certified():
    """symmetric_mixed(1.50, 0.50) is separable, with Duan-Simon exactly 2: no report
    of 200 seeds at 10^5 pulses per scan certifies it nonseparable."""
    boundary = replace(REFERENCE, source=SourceSpec.symmetric_mixed(1.50, 0.50))
    certified = sum(end_to_end_report(replace(boundary, seed=seed), 100_000).nonseparable
                    for seed in range(2000, 2200))
    assert certified == 0, f"{certified} of 200 reports certified nonseparable"


@_fault(17, "the cross-scan guard cannot see a wrong relative phase")
def test_a_pi_scan_drawn_at_0_95_pi_is_refused(monkeypatch):
    """With the pi scan drawn at theta = 0.95 pi and analysed as pi, every report of 20
    seeds at 10^5 pulses per scan is refused."""
    stream_scans = analysis._stream_scans

    def wrong_theta(scans, block_size, *args):
        scans = [replace(s, theta=0.95 * math.pi) if s.theta == math.pi else s for s in scans]
        return stream_scans(scans, block_size, *args)

    monkeypatch.setattr(analysis, "_stream_scans", wrong_theta)
    refused = 0
    for seed in range(4000, 4020):
        try:
            end_to_end_report(replace(REFERENCE, seed=seed), 100_000)
        except (RuntimeError, ValueError):
            refused += 1
    assert refused == 20, f"{refused} of 20 reports refused"
