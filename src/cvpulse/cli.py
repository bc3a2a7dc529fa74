"""Command-line front end.

Subcommands: ``simulate`` (generate a pulse-record CSV), ``analyze`` (fit and
correct an existing CSV), ``reproduce-paper`` (run the built-in reference
scenario and check the published values), ``scan-theta`` (sweep the relative
phase and tabulate the noise-ellipse rotation).

``main`` makes the ``--out`` directory before a command runs (a path that is a
file, or lies under one, is invalid input), then prints the command's JSON
payload with ``--json`` and its text otherwise.  ``analyze`` reads the CSV's
sidecar whenever one exists: it checks the record count against it, and refuses
records its config gives a blocked arm or an unbalanced beamsplitter, or fewer
pulses than a block, before it reads any, whatever ``--scenario`` says.

Exit codes: 0 success, 1 a reproduction or consistency check failed,
2 invalid input (a run too large to allocate included), 3 I/O failure.
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
    _efficiency,
    end_to_end_report,
    fit_variance_curve,
    report_from_levels,
)
from .entanglement import variance_to_db
from .schema import FieldError, to_dict
from .scenario import (
    DEFAULT_SEED,
    Scenario,
    load_scenario,
    scenario_from_dict,
)
from .simulate import (
    DEFAULT_BLOCK_SIZE,
    RunConfig,
    Sidecar,
    _block_count,
    _read_blocks,
    read_metadata,
    theta_scan,
    write_records,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_IO_ERROR = 3

_REFERENCE_PULSES = 1_000_000


@dataclass(frozen=True)
class CheckRow:
    """One line of the reproduction report: target value, simulation, verdict."""

    name: str
    target: float
    simulated: float
    tolerance: float
    passed: bool


def run_reference_scans(
    pulses_per_scan: int = _REFERENCE_PULSES,
    seed: int = DEFAULT_SEED,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> EntanglementReport:
    """Run the built-in reference scenario through the three-scan protocol."""
    config = scenario_from_dict({}, seed_override=seed, n_pulses_override=pulses_per_scan).config
    return end_to_end_report(config, pulses_per_scan, block_size=block_size)


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


def cmd_simulate(args, out_dir: Path) -> tuple[int, dict, str]:
    scenario = _scenario(args)
    csv_path = write_records(scenario.config, out_dir / "pulses.csv")
    summary = {
        "records": str(csv_path),
        "metadata": str(csv_path.with_suffix(".json")),
        "n_pulses": len(scenario.config.schedule),
        "seed": scenario.config.seed,
    }
    return EXIT_OK, summary, f"wrote {summary['n_pulses']} pulses to {summary['records']}"


def _analysis_config(args, records_path: Path) -> tuple[RunConfig, int, int | None]:
    """Config, block size and sidecar pulse count (None without a sidecar) for
    analyze.  A sidecar is read whenever it exists and its config describes the
    records; an explicit scenario then supplies only the detector (efficiency
    and electronic noise).  Without a sidecar the scenario, or else the
    reference, is the config.  Records the one-file reconstruction cannot undo
    are refused before any is read."""
    scenario = _scenario(args)
    sidecar = records_path.with_suffix(".json")
    config, n_pulses = scenario.config, None
    if sidecar.is_dir():
        raise ValueError(f"{sidecar} is a directory, not a sidecar")
    if sidecar.exists():
        try:
            meta = Sidecar.from_dict(read_metadata(records_path))
        except ValueError as exc:
            raise ValueError(f"{sidecar}: {exc}") from None
        n_pulses = meta.n_pulses
        config = meta.config
        if args.scenario is not None:
            config = replace(config, detector=scenario.config.detector)
    _efficiency(config)
    if config.blocked_arm != "none":
        raise FieldError(
            "blocked_arm", f"analyze reads a recombined scan, got {config.blocked_arm!r}"
        )
    return config, scenario.block_size, n_pulses


def cmd_analyze(args, out_dir: Path) -> tuple[int, dict, str]:
    records_path = Path(args.records)
    if records_path.is_dir():  # '.' and '/' too, which have no name to give a sidecar
        raise ValueError(f"{args.records} is a directory, not a records CSV")
    config, block_size, n_pulses = _analysis_config(args, records_path)
    if n_pulses is not None:
        _block_count(n_pulses, block_size)  # a block longer than the run is refused unread
    columns, variances, rows = _read_blocks(records_path, block_size)
    if n_pulses not in (None, rows):
        raise ValueError(f"{records_path.name} holds {rows} records, its sidecar says {n_pulses}")
    _block_count(rows, block_size)
    fit = fit_variance_curve(columns, variances, block_size)
    # single-file route: no blocked-arm level, the corrected extremes set the diagonal
    report = report_from_levels(config, fit.v_min, fit.stderr, fit.v_max)
    report_path = out_dir / "report.json"
    doc = report.to_dict()
    report_path.write_text(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK, doc, f"{report.text_table()}\nreport written to {report_path}"


def cmd_reproduce_paper(args, out_dir: Path | None) -> tuple[int, dict, str]:
    report = run_reference_scans(args.pulses, args.seed, args.block_size)
    rows = reference_check_rows(report, args.pulses)
    all_passed = all(r.passed for r in rows)
    doc = report.to_dict()
    if out_dir is not None:
        (out_dir / "reproduction.json").write_text(json.dumps(doc, indent=2) + "\n")
    payload = {"checks": [to_dict(r) for r in rows], "all_passed": all_passed, "report": doc}
    verdict = "all checks passed" if all_passed else "SOME CHECKS FAILED"
    code = EXIT_OK if all_passed else EXIT_CHECK_FAILED
    return code, payload, f"{_check_table(rows)}\n{verdict}"


def cmd_scan_theta(args, out_dir: Path) -> tuple[int, dict, str]:
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    scenario = _scenario(args)
    thetas = np.linspace(0.0, 2.0 * math.pi, args.points, endpoint=False)
    thetas, v_min, v_max, phi_min = theta_scan(scenario.config, thetas)
    csv_path = out_dir / "theta_scan.csv"
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
        out=None, seed=DEFAULT_SEED, pulses=_REFERENCE_PULSES, block_size=DEFAULT_BLOCK_SIZE,
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT if exc.filename else EXIT_IO_ERROR
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except RuntimeError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
