"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from cvpulse.analysis import fit_variance_curve
from cvpulse.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INVALID_INPUT,
    EXIT_IO_ERROR,
    EXIT_OK,
    main,
)
from cvpulse.simulate import FORMAT_VERSION, block_variance_trace, read_records

REFERENCE_EFFICIENCY = 0.93 * 0.88**2 * 0.945

ROOT = Path(__file__).resolve().parents[1]


def _write_scenario(path, payload):
    """``payload`` written as JSON, or as it is when it is text (a repeated key, say,
    which json.dumps of a dict cannot write)."""
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def test_simulate_is_deterministic(tmp_path):
    """Two runs with the same seed produce byte-identical CSVs."""
    d1, d2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--pulses", "5000", "--seed", "42"]
    assert main(args + ["--out", str(d1)]) == EXIT_OK
    assert main(args + ["--out", str(d2)]) == EXIT_OK
    assert (d1 / "pulses.csv").read_bytes() == (d2 / "pulses.csv").read_bytes()
    meta = json.loads((d1 / "pulses.json").read_text())
    assert meta["n_pulses"] == 5000
    assert meta["config"]["seed"] == 42


def test_simulate_json_summary(tmp_path, capsys):
    assert main(
        ["simulate", "--pulses", "1000", "--out", str(tmp_path), "--json"]
    ) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_pulses"] == 1000
    assert summary["seed"] == 12345  # default seed
    assert summary["records"].endswith("pulses.csv")


def test_analyze_happy_path(tmp_path, capsys):
    """Simulate then analyze: the corrected squeezed variance comes out right."""
    assert main(["simulate", "--pulses", "100000", "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()  # drop the simulate banner
    code = main(
        ["analyze", str(tmp_path / "pulses.csv"), "--out", str(tmp_path), "--json"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["corrected_squeezed_variance"] == pytest.approx(0.56, abs=0.05)
    assert report["nonseparable"] is True
    assert report["duan_simon"] == pytest.approx(
        2.0 * report["corrected_squeezed_variance"], rel=1e-9
    )
    # without --scenario the sidecar config decides the efficiency
    assert report["efficiency_used"] == pytest.approx(REFERENCE_EFFICIENCY, rel=1e-12)
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["duan_simon"] == report["duan_simon"]


def test_analyze_text_output(tmp_path, capsys):
    assert main(["simulate", "--pulses", "100000", "--out", str(tmp_path)]) == EXIT_OK
    assert main(
        ["analyze", str(tmp_path / "pulses.csv"), "--out", str(tmp_path)]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "nonseparable" in out
    assert "report written" in out


def test_analyze_scenario_overrides_sidecar(tmp_path, capsys):
    """An explicit scenario file's detector wins over the CSV's sidecar metadata."""
    assert main(["simulate", "--pulses", "100000", "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()  # drop the simulate banner
    scenario = _write_scenario(
        tmp_path / "flat.json",
        {
            "detector": {
                "eta_transmission": 0.68,
                "eta_homodyne": 1.0,
                "eta_detector": 1.0,
                "electronic_noise_var": 0.0,
            }
        },
    )
    code = main(
        [
            "analyze",
            str(tmp_path / "pulses.csv"),
            "--scenario",
            scenario,
            "--out",
            str(tmp_path),
            "--json",
        ]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["efficiency_used"] == pytest.approx(0.68, rel=1e-12)
    assert report["corrected_squeezed_variance"] == pytest.approx(0.56, abs=0.05)


@pytest.mark.parametrize("config_source", ["scenario", "sidecar", "reference"])
def test_analyze_block_size_holds_for_every_config_source(tmp_path, capsys, config_source):
    """--block-size sets analyze's blocks whether the config comes from a
    --scenario file (whose own block_size it beats), the sidecar or the
    reference scenario."""
    assert main(["simulate", "--pulses", "50000", "--out", str(tmp_path)]) == EXIT_OK
    csv = tmp_path / "pulses.csv"
    argv = ["analyze", str(csv), "--block-size", "5000", "--out", str(tmp_path), "--json"]
    if config_source == "scenario":
        argv += ["--scenario", _write_scenario(tmp_path / "s.json", {"block_size": 1000})]
    elif config_source == "reference":
        csv.with_suffix(".json").unlink()
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    fit = fit_variance_curve(*block_variance_trace(read_records(csv), 5000), 5000)
    assert report["raw_squeezed_variance"] == fit.v_min


def test_analyze_refuses_an_unbalanced_beamsplitter(tmp_path, capsys):
    """simulate takes any reflectivity, but the reconstruction needs 50/50:
    records of r = 0.2 are bad input, not a report with a wrong verdict.
    The refusal comes before the fit, so records too short to fit get it too."""
    scenario = _write_scenario(tmp_path / "s.json", {"beamsplitter_r": 0.2})
    argv = ["--out", str(tmp_path)]
    for pulses in ("50000", "20000"):
        assert main(["simulate", "--scenario", scenario, "--pulses", pulses, *argv]) == EXIT_OK
        capsys.readouterr()
        assert main(["analyze", str(tmp_path / "pulses.csv"), *argv]) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: invalid beamsplitter_r:")
        assert not (tmp_path / "report.json").exists()


def test_analyze_rejects_corrupt_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header,line\n0,0.0,1.0\n")
    assert main(["analyze", str(bad), "--out", str(tmp_path)]) == EXIT_INVALID_INPUT
    assert "line 1" in capsys.readouterr().err


def test_analyze_missing_file(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert code == EXIT_INVALID_INPUT
    assert "error" in capsys.readouterr().err


def test_reproduce_paper_small_run(tmp_path, capsys):
    """A reduced-statistics reproduction passes every published check."""
    code = main(
        ["reproduce-paper", "--pulses", "100000", "--json", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 9
    names = {c["name"] for c in payload["checks"]}
    assert "sum variance (Duan-Simon)" in names
    assert "entropy of formation [ebit]" in names
    assert all(c["passed"] for c in payload["checks"])
    assert (tmp_path / "reproduction.json").exists()


def test_one_parser_serves_each_command_with_its_own_defaults(tmp_path, monkeypatch):
    """The parser is built once per process; no command's defaults reach another.

    ``reproduce-paper`` writes nothing unless given ``--out``, the others
    write to the working directory by default.
    """
    from cvpulse.cli import _build_parser

    monkeypatch.chdir(tmp_path)
    d, e = tmp_path / "d", tmp_path / "e"
    assert main(["reproduce-paper", "--pulses", "100000", "--out", str(d)]) == EXIT_OK
    assert (d / "reproduction.json").exists()
    assert main(["scan-theta", "--out", str(e)]) == EXIT_OK
    assert len((e / "theta_scan.csv").read_text().splitlines()) == 1 + 16
    assert main(["simulate", "--pulses", "1000"]) == EXIT_OK
    assert (tmp_path / "pulses.csv").exists()
    assert main(["reproduce-paper", "--pulses", "100000"]) == EXIT_OK
    assert not (tmp_path / "reproduction.json").exists()
    assert _build_parser() is _build_parser()


def test_reproduce_paper_text_table(capsys):
    assert main(["reproduce-paper", "--pulses", "100000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("PASS") == 9
    assert "FAIL" not in out


def test_reproduce_paper_check_failure_exit_code(monkeypatch, capsys):
    """A failing reproduction exits 1, not 0."""
    import cvpulse.cli as cli_module

    real = cli_module.end_to_end_report

    def shifted(*args, **kwargs):
        report = real(*args, **kwargs)
        from dataclasses import replace

        return replace(report, duan_simon=1.40)  # clearly off the published value

    monkeypatch.setattr(cli_module, "end_to_end_report", shifted)
    assert main(["reproduce-paper", "--pulses", "50000"]) == EXIT_CHECK_FAILED
    assert "SOME CHECKS FAILED" in capsys.readouterr().out


def test_consistency_guard_maps_to_exit_1(monkeypatch, capsys):
    import cvpulse.cli as cli_module

    def broken(*args, **kwargs):
        raise RuntimeError("recombined scans disagree")

    monkeypatch.setattr(cli_module, "end_to_end_report", broken)
    assert main(["reproduce-paper"]) == EXIT_CHECK_FAILED
    assert "check failed" in capsys.readouterr().err


def test_scan_theta_outputs(tmp_path, capsys):
    code = main(["scan-theta", "--points", "12", "--out", str(tmp_path), "--json"])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["points"] == 12
    assert summary["v_min_spread"] < 1e-9  # extremes do not move with theta
    lines = (tmp_path / "theta_scan.csv").read_text().splitlines()
    assert lines[0] == "theta_rad,v_min,v_max,phi_at_min_rad"
    assert len(lines) == 13


@pytest.mark.parametrize("points", ["0", "-3"])
def test_scan_theta_rejects_empty_grid(tmp_path, capsys, points):
    code = main(["scan-theta", "--points", points, "--out", str(tmp_path)])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "--points" in err
    assert not (tmp_path / "theta_scan.csv").exists()


def test_analyze_sidecar_without_config(tmp_path, capsys):
    """A sidecar lacking its config is one line of error, not a traceback."""
    assert main(["simulate", "--pulses", "10000", "--out", str(tmp_path)]) == EXIT_OK
    sidecar = tmp_path / "pulses.json"
    meta = json.loads(sidecar.read_text())
    del meta["config"]
    sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    code = main(["analyze", str(tmp_path / "pulses.csv"), "--out", str(tmp_path)])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "pulses.json" in err and "'config'" in err


def test_reproduce_paper_too_few_blocks(capsys):
    """Four blocks per scan cannot separate the fringe; the error says why."""
    assert main(["reproduce-paper", "--pulses", "10000"]) == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "4 blocks" in err
    assert "smaller block" in err


def test_reproduce_paper_refuses_a_degenerate_design_before_any_draw(monkeypatch, capsys):
    """4 blocks of 2000 pulses, each spanning pi of the 4 pi ramp, cannot
    separate the fringe: the run exits 2 with the fit's message, unsampled."""
    import cvpulse.simulate as simulate_module

    def never(*args, **kwargs):
        raise AssertionError("a scan was drawn")

    monkeypatch.setattr(simulate_module, "_marginal_draw", never)
    argv = ["reproduce-paper", "--pulses", "8000", "--block-size", "2000"]
    assert main(argv) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err.startswith(
        "error: degenerate fit: the 4 blocks' means of cos 2phi and sin 2phi do not sample"
    )


def test_scenario_unknown_key(tmp_path, capsys):
    scenario = _write_scenario(tmp_path / "s.json", {"detectr": {}})
    code = main(["simulate", "--scenario", scenario, "--out", str(tmp_path)])
    assert code == EXIT_INVALID_INPUT
    assert "unknown key" in capsys.readouterr().err


def _scenario(payload, command=("simulate",)):
    def prepare(tmp_path):
        path = _write_scenario(tmp_path / "s.json", payload)
        return [*command, "--scenario", path, "--out", str(tmp_path)]

    return prepare


def _simulated(spoil, scenario=None, bound=False):
    """Simulate a short run, four blocks long on a ramp over 2.5 pi, let ``spoil`` edit
    its files, then analyze it, with ``scenario`` as its --scenario file when one is
    given.  Four blocks of the default 4 pi ramp each span one fringe period, a design
    analyze refuses before it reads any record.  Where ``spoil`` edits the CSV, its
    sidecar is rewritten as version 4 wrote it, with no digest, so that analyze reads
    the record to the fault the row names, unless ``bound``: a record whose bytes miss
    its sidecar's records_sha256 is refused unread."""

    def prepare(tmp_path):
        ramp = _write_scenario(tmp_path / "ramp.json", {"schedule": {"phi_end": 2.5 * math.pi}})
        argv = ["simulate", "--scenario", ramp, "--pulses", "10000", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        written = (tmp_path / "pulses.csv").read_bytes()
        spoil(tmp_path)
        if not bound and (tmp_path / "pulses.csv").read_bytes() != written:
            meta = json.loads((tmp_path / "pulses.json").read_text())
            del meta["records_sha256"], meta["values_sha256"]
            (tmp_path / "pulses.json").write_text(json.dumps({**meta, "format_version": 4}))
        argv = ["analyze", str(tmp_path / "pulses.csv"), "--out", str(tmp_path)]
        if scenario is None:
            return argv
        return [*argv, "--scenario", _write_scenario(tmp_path / "s.json", scenario)]

    return prepare


def _records_of_schedule(schedule):
    """A 50,000-pulse run on ``schedule``, then analyzed as one file."""

    def prepare(tmp_path):
        scenario = _write_scenario(tmp_path / "s.json", {"schedule": schedule})
        argv = ["--out", str(tmp_path)]
        assert main(["simulate", "--scenario", scenario, "--pulses", "50000", *argv]) == EXIT_OK
        return ["analyze", str(tmp_path / "pulses.csv"), *argv]

    return prepare


def _blocked_arm_records(tmp_path):
    """A single-beam run long enough to fit, then analyzed as one file."""
    scenario = _write_scenario(tmp_path / "s.json", {"blocked_arm": "b"})
    argv = ["--out", str(tmp_path)]
    assert main(["simulate", "--scenario", scenario, "--pulses", "50000", *argv]) == EXIT_OK
    return ["analyze", str(tmp_path / "pulses.csv"), *argv]


def _analyzed_with_an_empty_scenario(records_scenario):
    """Records simulated from ``records_scenario``, analyzed with ``--scenario {}``:
    the sidecar, not the scenario, says what the records are."""

    def prepare(tmp_path):
        argv = ["--out", str(tmp_path)]
        simulated = _write_scenario(tmp_path / "records.json", records_scenario)
        assert main(["simulate", "--scenario", simulated, "--pulses", "50000", *argv]) == EXIT_OK
        empty = _write_scenario(tmp_path / "s.json", {})
        return ["analyze", str(tmp_path / "pulses.csv"), "--scenario", empty, *argv]

    return prepare


def _out_at(out, command):
    """``command`` with --out naming ``out`` under tmp_path, where ``afile`` is a
    regular file; analyze gets a short run's records to read."""

    def prepare(tmp_path):
        assert main(["simulate", "--pulses", "5000", "--out", str(tmp_path)]) == EXIT_OK
        (tmp_path / "afile").write_text("plain file")
        records = [str(tmp_path / "pulses.csv")] if command == "analyze" else []
        return [command, *records, "--out", str(tmp_path / out)]

    return prepare


def _typo_in_sidecar(out):
    meta = json.loads((out / "pulses.json").read_text())
    meta["config"]["detector"]["eta_typo"] = 0.9
    (out / "pulses.json").write_text(json.dumps(meta))


def _sidecar_repeats_its_seed(out):
    """State the sidecar's config seed twice, with its own value: every digest still
    holds, as json.loads alone keeps the last value."""
    path = out / "pulses.json"
    text = path.read_text()
    seed = json.loads(text)["config"]["seed"]
    path.write_text(text.replace(f'"seed": {seed}', f'"seed": {seed}, "seed": {seed}'))


def _format_version_after_current(out):
    meta = json.loads((out / "pulses.json").read_text())
    meta["format_version"] = FORMAT_VERSION + 1
    (out / "pulses.json").write_text(json.dumps(meta))


def _sidecar_digest(digest, version=FORMAT_VERSION):
    def spoil(out):
        meta = json.loads((out / "pulses.json").read_text())
        meta["records_sha256"], meta["format_version"] = digest(meta["records_sha256"]), version
        (out / "pulses.json").write_text(json.dumps(meta))

    return spoil


def _sidecar_chunk_size(size):
    def spoil(out):
        meta = json.loads((out / "pulses.json").read_text())
        meta["chunk_size"] = size
        (out / "pulses.json").write_text(json.dumps(meta))

    return spoil


def _sidecar_claims(n_pulses, version=FORMAT_VERSION):
    """Set the sidecar's pulse count, and its schedule's, to ``n_pulses``; a version 4
    sidecar carries no digest, so the record is read in full."""

    def spoil(out):
        meta = json.loads((out / "pulses.json").read_text())
        meta["n_pulses"] = meta["config"]["schedule"]["n_pulses"] = n_pulses
        if version < 5:
            del meta["records_sha256"], meta["values_sha256"]
        (out / "pulses.json").write_text(json.dumps({**meta, "format_version": version}))

    return spoil


def _sidecar_format(out):
    meta = json.loads((out / "pulses.json").read_text())
    meta["format"] = "npy"
    (out / "pulses.json").write_text(json.dumps(meta))


def _nan_on_line_1001(out):
    path = out / "pulses.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[1000] = lines[1000].rsplit(",", 1)[0] + ",nan\n"
    path.write_text("".join(lines))


def _index_7_on_line_2001(out):
    path = out / "pulses.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[2000] = "7," + lines[2000].split(",", 1)[1]
    path.write_text("".join(lines))


def _cut_in_a_value_halfway(out):
    """Keep the header, 2499 whole records and one whose value loses 7 digits:
    the CSV still parses."""
    path = out / "pulses.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2500]) + lines[2500][:-8])


def _underscore_on_line_2(out):
    """1_0 is a number to Python's float(), not to np.loadtxt."""
    path = out / "pulses.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].rsplit(",", 1)[0] + ",1_0\n"
    path.write_text("".join(lines))


def _emptied(out):
    (out / "pulses.csv").write_bytes(b"")


def _run(*argv):
    """A command with no scenario file."""
    return lambda tmp_path: [*argv, "--out", str(tmp_path)]


def _scenario_not_utf8(tmp_path):
    (tmp_path / "s.json").write_bytes(b"\xff\xfe{}")
    return ["simulate", "--scenario", str(tmp_path / "s.json"), "--out", str(tmp_path)]


def _scenario_a_directory(*command):
    def prepare(tmp_path):
        (tmp_path / "s.json").mkdir()
        return [*command, "--scenario", str(tmp_path / "s.json"), "--out", str(tmp_path)]

    return prepare


def _sidecar_a_directory(out):
    (out / "pulses.json").unlink()
    (out / "pulses.json").mkdir()


def _byte_ff_on_line_3(out):
    path = out / "pulses.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b",", b",\xff", 1)
    path.write_bytes(b"".join(lines))


def _sidecar_schedule_phi_end(phase):
    def spoil(out):
        meta = json.loads((out / "pulses.json").read_text())
        meta["config"]["schedule"]["phi_end"] = phase
        (out / "pulses.json").write_text(json.dumps(meta))

    return spoil


def _records_named_as_their_sidecar(tmp_path):
    """A short run's records copied to ``rec.json``, then analyzed from there."""
    assert main(["simulate", "--pulses", "5000", "--out", str(tmp_path)]) == EXIT_OK
    (tmp_path / "rec.json").write_bytes((tmp_path / "pulses.csv").read_bytes())
    return ["analyze", str(tmp_path / "rec.json"), "--out", str(tmp_path)]


def _block_0_zeroed(out):
    """Set the values of the first block's 2500 records to 0."""
    path = out / "pulses.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[1:2501] = [line.rsplit(",", 1)[0] + ",0\n" for line in lines[1:2501]]
    path.write_text("".join(lines))


def _records_without_a_sidecar(tmp_path):
    """A 1,000-pulse run, shorter than one default block, with its sidecar deleted."""
    assert main(["simulate", "--pulses", "1000", "--out", str(tmp_path)]) == EXIT_OK
    (tmp_path / "pulses.json").unlink()
    return ["analyze", str(tmp_path / "pulses.csv"), "--out", str(tmp_path)]


_PIPES = []  # read ends of the pipes a row passes as /dev/fd/N


@pytest.fixture(autouse=True)
def _close_pipes():
    yield
    while _PIPES:
        os.close(_PIPES.pop())


def _records_through_a_pipe(tmp_path):
    """A 200-pulse record (about 8.5 kB, inside a pipe's buffer) written whole into a
    pipe, whose read end is analyzed as /dev/fd/N."""
    assert main(["simulate", "--pulses", "200", "--out", str(tmp_path)]) == EXIT_OK
    read, write = os.pipe()
    _PIPES.append(read)
    os.write(write, (tmp_path / "pulses.csv").read_bytes())
    os.close(write)
    return ["analyze", f"/dev/fd/{read}", "--out", str(tmp_path)]


def _records_of_width(width):
    """Rewrite every record of the CSV with ``width`` fields, keeping the header."""

    def spoil(out):
        path = out / "pulses.csv"
        header, *rows = path.read_text().splitlines()
        rows = [",".join((row.split(",") + ["0"])[:width]) for row in rows]
        path.write_text("\n".join([header, *rows]) + "\n")

    return spoil


NAN, INF = float("nan"), float("inf")

BAD_INPUTS = [
    pytest.param(_scenario({"schedule": {"n_pulses": 2.5}}), EXIT_INVALID_INPUT,
                 "schedule.n_pulses", id="float pulse count"),
    pytest.param(_scenario({"detector": {"eta_detector": "0.9"}}), EXIT_INVALID_INPUT,
                 "detector.eta_detector", id="string efficiency"),
    pytest.param(_scenario({"detector": {"electronic_noise_var": NAN}}), EXIT_INVALID_INPUT,
                 "detector.electronic_noise_var", id="nan noise"),
    pytest.param(_scenario({"detector": {"electronic_noise_var": INF}}), EXIT_INVALID_INPUT,
                 "detector.electronic_noise_var", id="infinite noise"),
    pytest.param(_scenario({"schedule": {"phi_start": NAN}}), EXIT_INVALID_INPUT,
                 "schedule.phi_start", id="nan phase"),
    # phases whose doubles, or whose span's, overflow
    pytest.param(_scenario({"schedule": {"phi_start": -1e308, "phi_end": 1e308}},
                           command=("simulate", "--pulses", "1000")),
                 EXIT_INVALID_INPUT, "invalid schedule.phi_start: must lie within +/-",
                 id="ramp span overflows"),
    pytest.param(_scenario({"schedule": {"phi_start": 0, "phi_end": 1e308}},
                           command=("simulate", "--pulses", "200000")),
                 EXIT_INVALID_INPUT, "invalid schedule.phi_end: must lie within +/-",
                 id="doubled ramp phase overflows"),
    pytest.param(_scenario({"schedule": {"kind": "constant", "phi": 1e308}},
                           command=("scan-theta",)),
                 EXIT_INVALID_INPUT, "invalid schedule.phi: must lie within +/-",
                 id="doubled constant phase overflows"),
    pytest.param(_simulated(_sidecar_schedule_phi_end(1e308)), EXIT_INVALID_INPUT,
                 "pulses.json: invalid config.schedule.phi_end: must lie within +/-",
                 id="sidecar phase overflows"),
    pytest.param(_scenario({"seed": True}), EXIT_INVALID_INPUT, "invalid seed", id="bool seed"),
    pytest.param(_scenario({"blocked_arm": 3}), EXIT_INVALID_INPUT,
                 "invalid blocked_arm: expected str, got 3", id="blocked_arm not a string"),
    pytest.param(_scenario({"source": {"kind": "pure_nopa", "r": 0.4, "v": 3}}),
                 EXIT_INVALID_INPUT, "'source.v'", id="field of another kind"),
    pytest.param(_scenario({"source": {"kind": "pure_nopa", "r": 355}}), EXIT_INVALID_INPUT,
                 "invalid source.r: largest quadrature variance", id="squeezing writes nan"),
    pytest.param(_scenario({"source": {"kind": "pure_nopa", "r": 400}}), EXIT_INVALID_INPUT,
                 "invalid source.r: largest quadrature variance", id="squeezing overflows cosh"),
    pytest.param(_scenario({"source": {"kind": "symmetric_mixed", "v": 1e308, "k": 1e308}},
                           command=("scan-theta",)),
                 EXIT_INVALID_INPUT, "invalid source.v: largest quadrature variance",
                 id="mixed source scans nan"),
    pytest.param(_scenario({"source": {"kind": "symmetric_mixed", "v": 2.0, "k": -2.0}}),
                 EXIT_INVALID_INPUT, "invalid source: unphysical source: the least eigenvalue",
                 id="noiseless quadrature sum"),
    pytest.param(_scenario({"detector": [1]}), EXIT_INVALID_INPUT, "invalid detector",
                 id="detector not an object"),
    pytest.param(_scenario({"detectr": {}}), EXIT_INVALID_INPUT, "block_size",
                 id="unknown scenario key"),
    pytest.param(_scenario({"source": {"kind": "bogus"}}), EXIT_INVALID_INPUT,
                 "error: invalid source.kind: expected one of pure_nopa, symmetric_mixed, "
                 "got 'bogus'", id="unknown source kind"),
    pytest.param(_scenario({"schedule": {"kind": "sawtooth"}}), EXIT_INVALID_INPUT,
                 "error: invalid schedule.kind: expected one of constant, linear_ramp, "
                 "got 'sawtooth'", id="unknown schedule kind"),
    # json.loads alone keeps a repeated key's last value: here the reference efficiency
    pytest.param(_scenario('{"detector": {"eta_transmission": 0.5}, '
                           '"detector": {"electronic_noise_var": 0.0}}',
                           command=("scan-theta", "--points", "1")),
                 EXIT_INVALID_INPUT, "s.json: duplicate key 'detector'\n",
                 id="repeated scenario key"),
    pytest.param(_scenario('{"detector": {"eta_transmission": 0.5, "eta_transmission": 0.6}}'),
                 EXIT_INVALID_INPUT, "s.json: duplicate key 'eta_transmission'\n",
                 id="repeated detector key"),
    pytest.param(_scenario({"out_stem": "run"}), EXIT_INVALID_INPUT, "unknown key 'out_stem'",
                 id="output stem"),
    pytest.param(_scenario({"block_size": 1}, command=("analyze", "pulses.csv")),
                 EXIT_INVALID_INPUT, "invalid block_size: must be >= 2, got 1",
                 id="analyze block size 1"),
    pytest.param(_scenario([{"seed": 1}]), EXIT_INVALID_INPUT,
                 "top level must be a JSON object", id="scenario is a list"),
    pytest.param(_scenario_not_utf8, EXIT_INVALID_INPUT,
                 "s.json: not UTF-8 text (byte 0xff at offset 0)", id="scenario not UTF-8"),
    pytest.param(_run("simulate", "--pulses", str(10**19)), EXIT_INVALID_INPUT,
                 "invalid schedule.n_pulses: pulse count must lie in [0, 9223372036854775807]",
                 id="pulse count above sys.maxsize"),
    pytest.param(_run("reproduce-paper", "--pulses", str(10**19)), EXIT_INVALID_INPUT,
                 "invalid schedule.n_pulses: pulse count must lie in [0, 9223372036854775807]",
                 id="reproduced pulse count above sys.maxsize"),
    pytest.param(_run("reproduce-paper", "--block-size", "1"), EXIT_INVALID_INPUT,
                 "invalid block_size: must be >= 2, got 1", id="reproduced block size 1"),
    pytest.param(_records_named_as_their_sidecar, EXIT_INVALID_INPUT,
                 "rec.json is its sidecar's path", id="records path its sidecar's"),
    pytest.param(_run("analyze", "."), EXIT_INVALID_INPUT,
                 "error: . is a directory, not a records CSV", id="records path with no name"),
    pytest.param(lambda tmp_path: ["analyze", str(tmp_path), "--out", str(tmp_path)],
                 EXIT_INVALID_INPUT, "is a directory, not a records CSV",
                 id="records path a directory"),
    pytest.param(_records_through_a_pipe, EXIT_INVALID_INPUT,
                 "is not a regular file, so not a records CSV", id="records path a pipe"),
    *(pytest.param(_scenario_a_directory(*command), EXIT_INVALID_INPUT,
                   "s.json is a directory, not a scenario file",
                   id=f"{command[0]} scenario a directory")
      for command in (("simulate",), ("scan-theta",), ("analyze", "pulses.csv"))),
    pytest.param(_simulated(_sidecar_a_directory), EXIT_INVALID_INPUT,
                 "pulses.json is a directory, not a sidecar", id="sidecar a directory"),
    # arrays of more than 2^57 bytes: no overcommit setting allocates them
    pytest.param(_run("scan-theta", "--points", str(10**17)), EXIT_INVALID_INPUT,
                 "error: out of memory: Unable to allocate", id="theta grid beyond memory"),
    pytest.param(_run("reproduce-paper", "--pulses", "9000000000000000000", "--block-size", "16"),
                 EXIT_INVALID_INPUT, "error: out of memory: Unable to allocate",
                 id="block phases beyond memory"),
    pytest.param(_simulated(_typo_in_sidecar), EXIT_INVALID_INPUT,
                 "'config.detector.eta_typo'", id="unknown sidecar key"),
    pytest.param(_simulated(_nan_on_line_1001), EXIT_INVALID_INPUT, "line 1001",
                 id="non-finite record"),
    pytest.param(_simulated(_nan_on_line_1001, bound=True), EXIT_INVALID_INPUT,
                 "error: pulses.csv is not the record its sidecar binds: the sidecar "
                 "and the record's bytes do not give its records_sha256",
                 id="edited bound record"),
    pytest.param(_simulated(_index_7_on_line_2001), EXIT_INVALID_INPUT,
                 "line 2001: expected index 1999, got 7", id="index out of sequence"),
    pytest.param(_simulated(_sidecar_repeats_its_seed), EXIT_INVALID_INPUT,
                 "pulses.json: duplicate key 'seed'\n", id="repeated sidecar key"),
    pytest.param(_simulated(_format_version_after_current), EXIT_INVALID_INPUT,
                 "format_version", id="unknown format version"),
    pytest.param(_simulated(_sidecar_digest(str.upper)), EXIT_INVALID_INPUT,
                 "pulses.json: invalid records_sha256: expected 64 lowercase hex digits, got '",
                 id="records digest not lowercase hex"),
    pytest.param(_simulated(_sidecar_digest(lambda digest: digest, version=4)), EXIT_INVALID_INPUT,
                 "pulses.json: invalid records_sha256: version 4 carries no digest, got '",
                 id="records digest in a version 4 sidecar"),
    # 4x10^12 pulses' block columns would take 23.8 GiB; the record's 440 kB cannot hold them
    pytest.param(_simulated(_sidecar_claims(4 * 10**12)), EXIT_INVALID_INPUT,
                 "error: pulses.csv is not the record its sidecar binds",
                 id="sidecar claims more pulses than its record holds"),
    pytest.param(_simulated(_sidecar_claims(4 * 10**12, version=4)), EXIT_INVALID_INPUT,
                 "error: pulses.csv holds 10000 records, its sidecar says 4000000000000",
                 id="version 4 sidecar claims more pulses than its record holds"),
    pytest.param(_simulated(_sidecar_format), EXIT_INVALID_INPUT,
                 "pulses.json: invalid format: expected 'index,lo_phase_rad,value', got 'npy'",
                 id="sidecar format not the header"),
    *(pytest.param(_simulated(_sidecar_chunk_size(size)), EXIT_INVALID_INPUT,
                   f"invalid chunk_size: must be >= 1, got {size}",
                   id=f"sidecar chunk size {size}")
      for size in (0, -7)),
    pytest.param(_simulated(_underscore_on_line_2), EXIT_INVALID_INPUT,
                 "pulses.csv line 2: non-numeric field", id="underscore in a number"),
    pytest.param(_simulated(_byte_ff_on_line_3), EXIT_INVALID_INPUT,
                 "pulses.csv line 3: byte 0xff is not UTF-8 text", id="byte not UTF-8"),
    pytest.param(_simulated(_emptied), EXIT_INVALID_INPUT,
                 "pulses.csv line 1: expected header 'index,lo_phase_rad,value', got ''",
                 id="empty records file"),
    pytest.param(_simulated(_records_of_width(2)), EXIT_INVALID_INPUT,
                 "pulses.csv line 2: expected 3 fields, got 2", id="two-field records"),
    pytest.param(_simulated(_records_of_width(4)), EXIT_INVALID_INPUT,
                 "pulses.csv line 2: expected 3 fields, got 4", id="four-field records"),
    pytest.param(_simulated(_cut_in_a_value_halfway), EXIT_INVALID_INPUT,
                 "pulses.csv holds 2500 records, its sidecar says 10000", id="truncated records"),
    pytest.param(_simulated(_cut_in_a_value_halfway, scenario={"block_size": 250}),
                 EXIT_INVALID_INPUT, "pulses.csv holds 2500 records, its sidecar says 10000",
                 id="truncated records analyzed with a scenario"),
    pytest.param(_simulated(_block_0_zeroed), EXIT_INVALID_INPUT,
                 "error: block 0 has variance 0.0, not above 0", id="zero block variance"),
    pytest.param(_records_without_a_sidecar, EXIT_INVALID_INPUT,
                 "need at least one full block of 2500 pulses, got 1000",
                 id="records shorter than a block without a sidecar"),
    pytest.param(lambda tmp_path: [*_records_without_a_sidecar(tmp_path), "--block-size",
                                   str(10**30)], EXIT_INVALID_INPUT,
                 f"error: invalid block_size: must be <= {sys.maxsize}, got {10**30}",
                 id="block size above sys.maxsize without a sidecar"),
    pytest.param(lambda tmp_path: [*_records_without_a_sidecar(tmp_path), "--block-size",
                                   str(10**11)], EXIT_INVALID_INPUT,
                 f"error: need at least one full block of {10**11} pulses, got 1000",
                 id="block longer than the record without a sidecar"),
    pytest.param(_records_of_schedule({"kind": "linear_ramp", "phi_end": 1.25}),
                 EXIT_INVALID_INPUT, "phase coverage too small", id="records over 0.4 pi"),
    pytest.param(_records_of_schedule({"kind": "constant", "phi": 0.3}), EXIT_INVALID_INPUT,
                 "degenerate fit", id="records at one phase"),
    pytest.param(_records_of_schedule({"kind": "constant", "phi": 0.0}), EXIT_INVALID_INPUT,
                 "error: degenerate fit: the records' LO phase is locked at 0.0 rad (a constant "
                 "schedule), so they hold no fringe to fit", id="records at a locked LO phase"),
    pytest.param(_blocked_arm_records, EXIT_INVALID_INPUT,
                 "error: invalid blocked_arm: analyze reads a recombined scan, got 'b'",
                 id="blocked-arm records"),
    pytest.param(_analyzed_with_an_empty_scenario({"blocked_arm": "b"}), EXIT_INVALID_INPUT,
                 "error: invalid blocked_arm: analyze reads a recombined scan, got 'b'",
                 id="blocked-arm records analyzed with a scenario"),
    pytest.param(_analyzed_with_an_empty_scenario({"beamsplitter_r": 0.3}), EXIT_INVALID_INPUT,
                 "error: invalid beamsplitter_r: reconstruction needs 0.5 (50/50), got 0.3",
                 id="unbalanced records analyzed with a scenario"),
    *(pytest.param(_out_at("afile", command), EXIT_INVALID_INPUT,
                   "afile is not a directory", id=f"{command} out a file")
      for command in ("simulate", "analyze", "reproduce-paper", "scan-theta")),
    pytest.param(_out_at("afile/sub", "simulate"), EXIT_INVALID_INPUT,
                 "afile/sub is not a directory", id="out under a file"),
]


@pytest.mark.parametrize("prepare, code, fragment", BAD_INPUTS)
def test_bad_input_is_one_line_naming_its_key(tmp_path, capsys, prepare, code, fragment):
    argv = prepare(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert fragment in err


def test_scenario_unphysical_source(tmp_path, capsys):
    scenario = _write_scenario(
        tmp_path / "s.json", {"source": {"kind": "symmetric_mixed", "v": 1.0, "k": 0.9}}
    )
    code = main(["simulate", "--scenario", scenario, "--out", str(tmp_path)])
    assert code == EXIT_INVALID_INPUT
    assert "invalid source" in capsys.readouterr().err


def test_scenario_invalid_json(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text("{not json")
    code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)])
    assert code == EXIT_INVALID_INPUT
    assert "not valid JSON" in capsys.readouterr().err


def test_integer_values_of_float_fields_are_stored_as_floats(tmp_path):
    scenario = _write_scenario(
        tmp_path / "s.json", {"theta": 0, "detector": {"eta_detector": 1}}
    )
    code = main(["simulate", "--scenario", scenario, "--pulses", "1000", "--out", str(tmp_path)])
    assert code == EXIT_OK
    text = (tmp_path / "pulses.json").read_text()
    assert '"theta": 0.0,' in text and '"eta_detector": 1.0,' in text
    config = json.loads(text)["config"]
    assert type(config["theta"]) is float and type(config["detector"]["eta_detector"]) is float


def test_scenario_seed_override(tmp_path):
    """--seed beats the seed stored in the scenario file."""
    scenario = _write_scenario(
        tmp_path / "s.json", {"seed": 1, "schedule": {"n_pulses": 1000}}
    )
    code = main(
        ["simulate", "--scenario", scenario, "--seed", "2", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    meta = json.loads((tmp_path / "pulses.json").read_text())
    assert meta["config"]["seed"] == 2
    assert meta["config"]["schedule"]["n_pulses"] == 1000


def test_an_output_file_that_cannot_be_written_is_io_error(tmp_path, capsys):
    """--out is a directory, but the CSV's path is a link to itself, so
    opening it fails: exit 3."""
    (tmp_path / "pulses.csv").symlink_to(tmp_path / "pulses.csv")
    assert main(["simulate", "--pulses", "100", "--out", str(tmp_path)]) == EXIT_IO_ERROR
    assert capsys.readouterr().err.startswith("I/O error: [Errno 40] Too many levels of symbolic links")


def test_a_bad_out_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    """--out is made before a command runs: no command samples, reads or
    writes records, or scans, when its --out is a file."""
    import cvpulse.cli as cli_module
    import cvpulse.records as records

    def never(*args, **kwargs):
        raise AssertionError("the command ran before --out was made")

    for name in ("write_records", "end_to_end_report", "theta_scan"):
        monkeypatch.setattr(cli_module, name, never)
    monkeypatch.setattr(records, "blocks", never)
    afile = tmp_path / "afile"
    afile.write_text("plain file")
    (tmp_path / "pulses.csv").write_text("index,lo_phase_rad,value\n")
    for argv in (["simulate"], ["analyze", str(tmp_path / "pulses.csv")],
                 ["reproduce-paper"], ["scan-theta"]):
        assert main([*argv, "--out", str(afile)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"error: --out {afile} is not a directory\n"


@pytest.mark.parametrize("argv, output, never_called", [
    pytest.param(lambda run: ["simulate", "--pulses", "5000"], "pulses.csv",
                 ("cvpulse.cli.write_records",), id="simulate-csv"),
    pytest.param(lambda run: ["simulate", "--pulses", "5000"], "pulses.json", (), id="simulate"),
    pytest.param(lambda run: ["analyze", str(run / "pulses.csv")], "report.json",
                 ("cvpulse.records.read",), id="analyze"),
    pytest.param(lambda run: ["reproduce-paper", "--pulses", "20000"], "reproduction.json",
                 ("cvpulse.cli.end_to_end_report",), id="reproduce-paper"),
    pytest.param(lambda run: ["scan-theta"], "theta_scan.csv", ("cvpulse.cli.theta_scan",),
                 id="scan-theta"),
])
def test_an_output_file_that_is_a_directory_is_refused_before_any_work(
    tmp_path, monkeypatch, capsys, argv, output, never_called
):
    """A directory where a command's output file goes exits 2 with one line
    naming it, before any pulse is drawn or record read: no CSV is left."""
    run, out = tmp_path / "run", tmp_path / "out"
    assert main(["simulate", "--pulses", "5000", "--out", str(run)]) == EXIT_OK

    def never(*args, **kwargs):
        raise AssertionError("the command ran before its output file was checked")

    for name in never_called:
        monkeypatch.setattr(name, never)
    (out / output).mkdir(parents=True)
    capsys.readouterr()
    assert main([*argv(run), "--out", str(out)]) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == f"error: {out / output} is a directory, not an output file\n"
    assert sorted(p.name for p in out.iterdir()) == [output]


def test_a_block_longer_than_the_run_is_refused_before_any_record_is_read(
    tmp_path, monkeypatch, capsys
):
    """With a sidecar, a --block-size above its n_pulses exits 2 unread."""
    import cvpulse.records as records

    def never(*args, **kwargs):
        raise AssertionError("records were read")

    assert main(["simulate", "--pulses", "5000", "--out", str(tmp_path)]) == EXIT_OK
    monkeypatch.setattr(records, "read", never)
    capsys.readouterr()
    csv = str(tmp_path / "pulses.csv")
    argv = ["analyze", csv, "--block-size", "5001", "--out", str(tmp_path)]
    assert main(argv) == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert err == "error: need at least one full block of 5001 pulses, got 5000\n"


@pytest.mark.parametrize("schedule, problem", [
    ({"kind": "linear_ramp", "phi_end": 1.25}, "error: phase coverage too small: the 4 blocks"),
    ({}, "error: degenerate fit: the 4 blocks' means of cos 2phi and sin 2phi"),
], ids=["ramp over 0.4 pi", "each block one fringe period"])
def test_a_design_its_sidecar_fixes_is_checked_before_any_record_is_read(
    tmp_path, monkeypatch, capsys, schedule, problem
):
    """With a sidecar, the fit design of its schedule's blocks is checked before the
    record is hashed or read: 10,000 pulses on a ramp over 0.4 pi, and on the default
    ramp over 4 pi, where each of the 4 blocks spans one period of the fringe."""
    import cvpulse.records as records

    def never(*args, **kwargs):
        raise AssertionError("records were hashed or read")

    scenario = _write_scenario(tmp_path / "s.json", {"schedule": schedule})
    argv = ["--pulses", "10000", "--scenario", scenario, "--out", str(tmp_path)]
    assert main(["simulate", *argv]) == EXIT_OK
    monkeypatch.setattr(records, "read", never)
    monkeypatch.setattr(records, "blocks", never)
    capsys.readouterr()
    argv = ["analyze", str(tmp_path / "pulses.csv"), "--out", str(tmp_path)]
    assert main(argv) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err.startswith(problem)


@pytest.mark.parametrize("version", [FORMAT_VERSION, 4])
def test_a_claim_the_record_cannot_hold_builds_no_block_columns(
    tmp_path, monkeypatch, capsys, version
):
    """A sidecar that claims 10^8 pulses of a 10,000-pulse record is refused by the
    read, without the design check's block columns, whose cost grows with the claim."""
    import cvpulse.cli as cli_module

    def never(*args, **kwargs):
        raise AssertionError("block columns were built for the sidecar's claim")

    argv = _simulated(_sidecar_claims(10**8, version))(tmp_path)
    monkeypatch.setattr(cli_module, "_block_columns", never)
    capsys.readouterr()
    assert main(argv) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err.startswith(
        "error: pulses.csv is not the record its sidecar binds" if version > 4
        else "error: pulses.csv holds 10000 records, its sidecar says 100000000"
    )


def test_an_error_quoting_a_long_line_is_cut(tmp_path, capsys):
    """A 1 MB records file with no newline is one line, which the header message
    quotes: what is printed stops at the limit and says how much was cut."""
    line = "0," * 500_000
    (tmp_path / "pulses.csv").write_text(line)
    capsys.readouterr()
    argv = ["analyze", str(tmp_path / "pulses.csv"), "--out", str(tmp_path)]
    assert main(argv) == EXIT_INVALID_INPUT
    whole = f"error: pulses.csv line 1: expected header 'index,lo_phase_rad,value', got {line!r}"
    err = capsys.readouterr().err
    assert err == f"{whole[:500]}... ({len(whole) - 500} more characters cut)\n"


@pytest.mark.parametrize("n_pulses, scheduled, problem", [
    (-5, 5000, "must equal config.schedule.n_pulses = 5000, got -5"),
    (5000, 10, "must equal config.schedule.n_pulses = 10, got 5000"),
], ids=["negative count", "count off its schedule"])
def test_a_sidecar_count_the_run_cannot_have_is_refused_before_any_record_is_read(
    tmp_path, monkeypatch, capsys, n_pulses, scheduled, problem
):
    """A sidecar's n_pulses must be the count its schedule draws, so never negative."""
    import cvpulse.records as records

    def never(*args, **kwargs):
        raise AssertionError("records were read")

    assert main(["simulate", "--pulses", "5000", "--out", str(tmp_path)]) == EXIT_OK
    sidecar = tmp_path / "pulses.json"
    meta = json.loads(sidecar.read_text())
    meta["n_pulses"] = n_pulses
    meta["config"]["schedule"]["n_pulses"] = scheduled
    sidecar.write_text(json.dumps(meta))
    monkeypatch.setattr(records, "read", never)
    capsys.readouterr()
    assert main(["analyze", str(tmp_path / "pulses.csv"), "--out", str(tmp_path)]) == (
        EXIT_INVALID_INPUT
    )
    assert capsys.readouterr().err == f"error: {sidecar}: invalid n_pulses: {problem}\n"


def test_stdout_is_the_document_written(tmp_path, capsys):
    """--json prints the document a command writes; text ends on the path
    written or on the verdict."""
    assert main(["simulate", "--pulses", "50000", "--out", str(tmp_path)]) == EXIT_OK
    csv, report = str(tmp_path / "pulses.csv"), tmp_path / "report.json"
    capsys.readouterr()
    assert main(["analyze", csv, "--out", str(tmp_path), "--json"]) == EXIT_OK
    assert capsys.readouterr().out == report.read_text()
    assert main(["analyze", csv, "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == f"report written to {report}"
    d = tmp_path / "d"
    assert main(["reproduce-paper", "--pulses", "100000", "--json", "--out", str(d)]) == EXIT_OK
    reproduction = json.loads((d / "reproduction.json").read_text())
    assert json.loads(capsys.readouterr().out)["report"] == reproduction
    assert main(["reproduce-paper", "--pulses", "100000"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "all checks passed"


def test_console_script_entry_point(tmp_path):
    """The installed command runs end to end in a real process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "cvpulse.cli",
            "scan-theta",
            "--points",
            "4",
            "--out",
            str(tmp_path),
            "--json",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == EXIT_OK
    assert json.loads(result.stdout)["points"] == 4


def _imports(tmp_path, module, *commands):
    """Run ``main`` on each command in one fresh process; after each, whether
    ``module`` had been imported."""
    script = (
        "import json, sys\n"
        "import cvpulse, cvpulse.cli\n"
        "module, commands = json.loads(sys.argv[1])\n"
        "for argv in commands:\n"
        "    assert cvpulse.cli.main(argv) == 0, argv\n"
        "    print('imported:', module in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps([module, commands])],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    return [line.split(": ")[1] == "True" for line in result.stderr.splitlines()
            if line.startswith("imported: ")]


def test_only_runs_with_records_import_the_record_format(tmp_path):
    """reproduce-paper and scan-theta never compile the record format;
    simulate and analyze, each in a fresh process, do."""
    out = str(tmp_path)
    assert _imports(
        tmp_path,
        "cvpulse.records",
        ["reproduce-paper", "--pulses", "100000", "--json", "--out", out],
        ["scan-theta", "--out", out],
        ["simulate", "--pulses", "100000", "--out", out],
    ) == [False, False, True]
    assert _imports(
        tmp_path, "cvpulse.records", ["analyze", str(tmp_path / "pulses.csv"), "--out", out]
    ) == [True]


def test_importing_the_cli_loads_no_hashlib(tmp_path):
    """Importing cvpulse and its CLI, then running scan-theta, loads no hashlib (about
    3.7 MB of resident memory); the record format loads it.  (numpy.random loads it
    too, through secrets, once a run draws.)"""
    out = str(tmp_path)
    assert _imports(
        tmp_path, "hashlib",
        ["scan-theta", "--out", out],
        ["simulate", "--pulses", "20000", "--out", out],
    ) == [False, True]


def test_no_run_imports_an_executor_or_leaves_a_thread_behind(tmp_path, monkeypatch):
    """Importing the CLI and runs whose scans are shorter than a chunk, a
    chunk less one pulse or a chunk long leave concurrent.futures unimported:
    the scan loop starts its own threads.  A chunk-long report drawn on two
    CPUs joins every thread it started before it returns."""
    out = str(tmp_path)
    assert _imports(
        tmp_path,
        "concurrent.futures",
        ["reproduce-paper", "--pulses", "20000", "--block-size", "500", "--out", out],
        ["reproduce-paper", "--pulses", "65535", "--out", out],
        ["reproduce-paper", "--pulses", "65536", "--out", out],
    ) == [False, False, False]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    before = threading.active_count()
    assert main(["reproduce-paper", "--pulses", "65536", "--out", out]) == EXIT_OK
    assert threading.active_count() == before


def test_reproduce_paper_just_below_a_chunk_passes_for_nearly_every_seed(capsys):
    """65,535 pulses per scan, 26 blocks each, for seeds 0-199: a block's fringe
    is averaged over its phase span (factor 0.962 here), which a fit at the
    block centres read as a shallower fringe, v_min 0.024 high against a 0.027
    tolerance, so 94 of these seeds failed their reference checks; the block
    columns make the fit exact, and at most 2 may fail by chance."""
    failed = []
    for seed in range(200):
        code = main(["reproduce-paper", "--pulses", "65535", "--seed", str(seed)])
        capsys.readouterr()
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        if code != EXIT_OK:
            failed.append(seed)
    assert len(failed) <= 2, failed


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["reproduce-paper", "--scenario", "x.json"], "--scenario"),
        (["analyze", "pulses.csv", "--seed", "5"], "--seed"),
        (["scan-theta", "--seed", "1"], "--seed"),
        (["scan-theta", "--block-size", "3"], "--block-size"),
        (["simulate", "--block-size", "3"], "--block-size"),
    ],
)
def test_a_flag_the_command_does_not_read_is_rejected(capsys, argv, flag):
    """Each subcommand accepts only the flags it reads; others are bad input."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("argv, never_called", [
    pytest.param(lambda run: ["reproduce-paper", "--pulses", "30000", "--block-size", "10000"],
                 "cvpulse.simulate._marginal_draw", id="reproduce-paper"),
    pytest.param(lambda run: ["analyze", str(run / "pulses.csv"), "--block-size", "1500"],
                 "cvpulse.records.read", id="analyze"),
])
def test_too_few_blocks_to_fit_are_refused_before_any_pulse_is_drawn_or_read(
    tmp_path, monkeypatch, capsys, argv, never_called
):
    """Three blocks a scan cannot fit 3 parameters: refused with the fit's own
    message before a pulse is drawn or, with a sidecar, a record read."""
    assert main(["simulate", "--pulses", "5000", "--out", str(tmp_path)]) == EXIT_OK

    def never(*args, **kwargs):
        raise AssertionError("pulses were drawn or records read")

    monkeypatch.setattr(never_called, never)
    capsys.readouterr()
    assert main([*argv(tmp_path), "--out", str(tmp_path)]) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == "error: need at least 4 blocks to fit 3 parameters, got 3\n"
