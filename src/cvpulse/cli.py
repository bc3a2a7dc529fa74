"""Command-line front end.

Subcommands: ``simulate`` (generate a pulse-record CSV), ``analyze`` (fit and
correct an existing CSV), ``reproduce-paper`` (run the built-in reference
scenario and check the published values), ``scan-theta`` (sweep the relative
phase and tabulate the noise-ellipse rotation).

``main`` makes the ``--out`` directory before a command runs (a path that is a
file, or lies under one, is invalid input; so is an output file that is a
directory, refused before the command's work), then prints the command's JSON
payload with ``--json`` and its text otherwise.  ``analyze`` reads the CSV's
sidecar whenever one exists: it checks the record count against it, and refuses
records its config gives a blocked arm or an unbalanced beamsplitter, too few
pulses for four blocks, or a schedule whose blocks do not determine the fringe
(a constant LO phase included), before it reads any, whatever ``--scenario`` says;
a sidecar that claims more pulses than the record's bytes can hold is left to the read.

Exit codes: 0 success, 1 a reproduction or consistency check failed,
2 invalid input (a run too large to allocate included), 3 I/O failure.  An error
message is one line on stderr, cut after _MESSAGE_LIMIT characters.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import (
    EntanglementReport,
    _check_design,
    _efficiency,
    end_to_end_report,
    fit_variance_curve,
    report_from_levels,
)
from .entanglement import variance_to_db
from .schema import FieldError, to_dict
from .scenario import Scenario, load_scenario, scenario_from_dict
from .simulate import (
    _block_columns,
    _block_count,
    theta_scan,
    write_records,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_IO_ERROR = 3

_REFERENCE_PULSES = 1_000_000
# characters of an error message printed whole; a message may quote its input, and a
# records file with no newline is one line
_MESSAGE_LIMIT = 500


@dataclass(frozen=True)
class CheckRow:
    """One line of the reproduction report: target value, simulation, verdict."""

    name: str
    target: float
    simulated: float
    tolerance: float
    passed: bool


# (name, report field, in dB, target, rounding floor, stat. half-width at 1e6 pulses/scan)
_REFERENCE_CHECKS = (
    ("squeezed variance (raw)", "raw_squeezed_variance", False, 0.70, 0.004, 0.006),
    ("antisqueezed variance (raw)", "raw_antisqueezed_variance", False, 1.96, 0.021, 0.012),
    ("single-beam variance (raw)", "raw_single_beam_variance", False, 1.17, 0.002, 0.008),
    ("squeezed variance (corrected)", "corrected_squeezed_variance", False, 0.56, 0.002, 0.008),
    ("sum variance (Duan-Simon)", "duan_simon", False, 1.12, 0.004, 0.016),
    ("entropy of formation [ebit]", "entropy_of_formation", False, 0.44, 0.006, 0.017),
    ("squeezed level [dB]", "raw_squeezed_variance", True, -1.55, 0.008, 0.040),
    ("antisqueezed level [dB]", "raw_antisqueezed_variance", True, 2.92, 0.048, 0.030),
    ("corrected squeezed level [dB]", "corrected_squeezed_variance", True, -2.52, 0.006, 0.065),
)


def reference_check_rows(
    report: EntanglementReport, pulses_per_scan: int
) -> list[CheckRow]:
    """Compare a reproduction report against the published values.

    Tolerances combine the publication's rounding with a statistical
    half-width that scales as 1/sqrt(pulses per scan).
    """
    scale = math.sqrt(_REFERENCE_PULSES / pulses_per_scan)
    rows = []
    for name, attr, in_db, target, floor, stat in _REFERENCE_CHECKS:
        tolerance = floor + stat * scale
        simulated = getattr(report, attr)
        if in_db:
            simulated = variance_to_db(simulated)
        passed = abs(simulated - target) <= tolerance
        rows.append(CheckRow(name, target, simulated, tolerance, passed))
    return rows


def _check_table(rows: list[CheckRow]) -> str:
    width = max(len(r.name) for r in rows)
    lines = [f"{'check':<{width}}  {'target':>8}  {'simulated':>10}  {'tol':>7}  status"]
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<{width}}  {r.target:8.2f}  {r.simulated:10.4f}  "
            f"{r.tolerance:7.4f}  {status}"
        )
    return "\n".join(lines)


def _scenario(args) -> Scenario:
    """--seed, --pulses and --block-size laid over --scenario, or over the reference."""
    overrides = dict(seed_override=args.seed, n_pulses_override=args.pulses,
                     block_size_override=args.block_size)
    if args.scenario is None:
        return scenario_from_dict({}, **overrides)
    return load_scenario(args.scenario, **overrides)


def _file(path: str | Path, role: str = "an output file") -> Path:
    """``path``, a file in ``role``, refused before the command's work if it is a directory
    or anything else that exists but is not a regular file (a pipe, say: the full read
    seeks and rescans it)."""
    if Path(path).is_dir():
        raise ValueError(f"{path} is a directory, not {role}")
    if Path(path).exists() and not Path(path).is_file():
        raise ValueError(f"{path} is not a regular file, so not {role}")
    return Path(path)


def cmd_simulate(args, out_dir: Path) -> tuple[int, dict, str]:
    from . import records  # compiled on first use, not by runs without records

    csv_path = _file(out_dir / "pulses.csv")
    sidecar = _file(records.sidecar_path(csv_path))  # written after every record
    scenario = _scenario(args)
    write_records(scenario.config, csv_path)
    summary = {
        "records": str(csv_path),
        "metadata": str(sidecar),
        "n_pulses": len(scenario.config.schedule),
        "seed": scenario.config.seed,
    }
    return EXIT_OK, summary, f"wrote {summary['n_pulses']} pulses to {summary['records']}"


def cmd_analyze(args, out_dir: Path) -> tuple[int, dict, str]:
    from . import records  # compiled on first use, not by runs without records

    report_path = _file(out_dir / "report.json")
    records_path = _file(args.records, "a records CSV")  # '.' and '/' too: no name for a sidecar
    # a sidecar gives the config (a --scenario only its detector); else the scenario does
    scenario = _scenario(args)
    sidecar = _file(records.sidecar_path(records_path), "a sidecar")
    config, meta, stored = scenario.config, None, None
    if sidecar.exists():
        try:
            document = records.metadata(records_path)
            meta = records.Sidecar.from_dict(document)
        except ValueError as exc:
            raise ValueError(f"{sidecar}: {exc}") from None
        config, stored = meta.config, document["config"]
        if args.scenario is not None:
            config = replace(config, detector=scenario.config.detector)
    _efficiency(config)  # records the one-file reconstruction cannot undo are refused unread
    if config.blocked_arm != "none":
        raise FieldError(
            "blocked_arm", f"analyze reads a recombined scan, got {config.blocked_arm!r}"
        )
    if meta is not None:  # the sidecar's schedule fixes the fit design: refused unread
        schedule = meta.config.schedule
        if schedule.kind == "constant":
            raise ValueError(
                f"degenerate fit: the records' LO phase is locked at {schedule.phi!r} rad "
                "(a constant schedule), so they hold no fringe to fit; record a phase ramp"
            )
        # columns cost what the sidecar claims; the read refuses a claim the record's
        # bytes cannot hold, by its digest or its count
        if meta.n_pulses <= records_path.stat().st_size // records.SHORTEST_ROW:
            _check_design(_block_columns(schedule, scenario.block_size))
    columns, variances, rows = records.blocks(records_path, scenario.block_size, meta, stored)
    _block_count(rows, scenario.block_size)
    fit = fit_variance_curve(columns, variances, scenario.block_size)
    # single-file route: no blocked-arm level, the corrected extremes set the diagonal
    report = report_from_levels(config, fit.v_min, fit.stderr, fit.v_max)
    doc = report.to_dict()
    report_path.write_text(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK, doc, f"{report.text_table()}\nreport written to {report_path}"


def cmd_reproduce_paper(args, out_dir: Path | None) -> tuple[int, dict, str]:
    doc_path = None if out_dir is None else _file(out_dir / "reproduction.json")
    scenario = _scenario(args)
    report = end_to_end_report(scenario.config, args.pulses, block_size=scenario.block_size)
    rows = reference_check_rows(report, args.pulses)
    all_passed = all(r.passed for r in rows)
    doc = report.to_dict()
    if doc_path is not None:
        doc_path.write_text(json.dumps(doc, indent=2) + "\n")
    payload = {"checks": [to_dict(r) for r in rows], "all_passed": all_passed, "report": doc}
    verdict = "all checks passed" if all_passed else "SOME CHECKS FAILED"
    code = EXIT_OK if all_passed else EXIT_CHECK_FAILED
    return code, payload, f"{_check_table(rows)}\n{verdict}"


def cmd_scan_theta(args, out_dir: Path) -> tuple[int, dict, str]:
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    csv_path = _file(out_dir / "theta_scan.csv")
    scenario = _scenario(args)
    thetas = np.linspace(0.0, 2.0 * math.pi, args.points, endpoint=False)
    thetas, v_min, v_max, phi_min = theta_scan(scenario.config, thetas)
    table = np.column_stack([thetas, v_min, v_max, phi_min])
    np.savetxt(
        csv_path,
        table,
        fmt="%.10g",
        delimiter=",",
        header="theta_rad,v_min,v_max,phi_at_min_rad",
        comments="",
    )
    summary = {
        "points": int(len(thetas)),
        "v_min_spread": float(v_min.max() - v_min.min()),
        "v_max_spread": float(v_max.max() - v_max.min()),
        "csv": str(csv_path),
    }
    return EXIT_OK, summary, (
        f"{summary['points']} points -> {csv_path}; extreme variances are "
        f"theta-independent to {max(summary['v_min_spread'], summary['v_max_spread']):.2e}"
    )


# every flag a subcommand may take; each subcommand adds the ones it reads
_RUN_FLAGS = ("scenario", "seed", "pulses", "block_size")
_FLAGS = {
    "--scenario": dict(type=str, default=None, help="JSON scenario file"),
    "--seed": dict(type=int, default=None, help="RNG seed (64-bit)"),
    "--pulses": dict(type=int, default=None, help="pulses per run/scan"),
    "--block-size": dict(type=int, default=None, help="pulses per variance block"),
    "--points": dict(type=int, default=16, help="grid points in [0, 2 pi)"),
    "--out": dict(type=str, default=".", help="output directory"),
    "--json": dict(action="store_true", help="machine-readable output"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser as it was
    parser = argparse.ArgumentParser(
        prog="cvpulse",
        description="Simulate and analyze pulsed homodyne measurements of "
        "quadrature-entangled pulse pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, flags, **defaults):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        # the run flags a command lacks read as None in _scenario
        p.set_defaults(**{**dict.fromkeys(_RUN_FLAGS), "func": func, **defaults})
        return p

    command(
        "simulate", cmd_simulate, "generate a pulse-record CSV",
        ("--scenario", "--seed", "--pulses", "--out", "--json"),
    )
    p_an = command(
        "analyze", cmd_analyze, "fit and correct an existing record CSV",
        ("--scenario", "--block-size", "--out", "--json"),
    )
    p_an.add_argument("records", type=str, help="pulse-record CSV path")
    command(
        "reproduce-paper", cmd_reproduce_paper,
        "run the built-in reference scenario and check it",
        ("--seed", "--pulses", "--block-size", "--out", "--json"),
        out=None, pulses=_REFERENCE_PULSES,
    )
    command(
        "scan-theta", cmd_scan_theta, "sweep the relative phase",
        ("--scenario", "--points", "--out", "--json"),
    )
    return parser


def _out_dir(out: str | None) -> Path | None:
    """--out made before the command runs; a path that is or lies under a file is bad input."""
    if out is None:
        return None
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValueError(f"--out {out} is not a directory") from None
    return Path(out)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, payload, text = args.func(args, _out_dir(args.out))
        print(json.dumps(payload, indent=2) if args.json else text)
        return code
    except FileNotFoundError as exc:
        code, message = EXIT_INVALID_INPUT if exc.filename else EXIT_IO_ERROR, f"error: {exc}"
    except OSError as exc:
        code, message = EXIT_IO_ERROR, f"I/O error: {exc}"
    except RuntimeError as exc:
        code, message = EXIT_CHECK_FAILED, f"check failed: {exc}"
    except ValueError as exc:
        code, message = EXIT_INVALID_INPUT, f"error: {exc}"
    except MemoryError as exc:
        code, message = EXIT_INVALID_INPUT, f"error: out of memory: {exc}"
    if (cut := len(message) - _MESSAGE_LIMIT) > 0:
        message = f"{message[:_MESSAGE_LIMIT]}... ({cut} more characters cut)"
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
