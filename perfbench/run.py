"""Benchmark of cvpulse, end to end and per layer.

    python3 perfbench/run.py --workload {reproduce,records,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; cvpulse is imported from ``src/``.  Each
workload builds a fixed list of operations from ``--seed`` (whole rounds,
about ``--seconds`` of work on the reference machine), times each operation
in this one process between readings of a host-speed calibration kernel
(calibrate.py), checks every output against closed-form values afterwards,
and prints one JSON object as the last line of stdout.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
alternate rounds untraced and with spans, and the last operation under
tracemalloc, and reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The set-up probe times everything from here on; its numpy import, timed on
# its own, is the kernel that scales the set-up time (see probe_setup).
_STARTED = time.perf_counter()
import numpy as np  # noqa: E402

_NUMPY_IMPORTED = time.perf_counter()

import checks  # noqa: E402
from calibrate import NUMPY_IMPORT_S, Calibration  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3  # a traced run alternates untraced and traced rounds
SETUP_PROBES = 7
ALLOC_OPS = 1  # ops run under tracemalloc in a traced run
MIB = 2.0**20

PAPER_TARGETS = {
    "squeezed variance (raw)": 0.70,
    "antisqueezed variance (raw)": 1.96,
    "single-beam variance (raw)": 1.17,
    "squeezed variance (corrected)": 0.56,
    "sum variance (Duan-Simon)": 1.12,
    "entropy of formation [ebit]": 0.44,
    "squeezed level [dB]": -1.55,
    "antisqueezed level [dB]": 2.92,
    "corrected squeezed level [dB]": -2.52,
}
REFERENCE_EFFICIENCY = checks.efficiency(0.93, 0.88, 0.945)

# (v, k) sources, all with v^2 - k^2 >= 1.36 so that a 2e4-pulse
# reconstruction stays physical by many sigma; transmissions; noise handling.
SWEEP_SOURCES = ((1.5, 0.94), (1.5, 0.6), (2.0, 1.3))
SWEEP_TRANSMISSIONS = (0.93, 0.85, 0.75)
SWEEP_NOISE = (("absent", 0.0, False), ("subtracted", 10.0**-1.1, True))
SWEEP_PULSES = 20_000
SWEEP_BLOCK = 500
SWEEP_THETAS = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)

RECORDS_PULSES = 250_000
RECORDS_BLOCK = 2500
RECORDS_SCENARIOS = 4
REPRODUCE_PULSES = 1_000_000
REPRODUCE_BLOCK = 2500


def import_cvpulse():
    """Import cvpulse from this checkout's sources and nowhere else."""
    package = SRC / "cvpulse"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: cvpulse sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import cvpulse
    import cvpulse.cli

    if Path(cvpulse.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported cvpulse from {cvpulse.__file__}, not {package}")
    return cvpulse


def op_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


def call_cli(cvpulse, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cvpulse.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass
class Op:
    """One timed call into cvpulse and the check of its output.

    ``run`` raises or returns a value; ``check(value, z)`` returns a list of
    problems and is called outside the timed region.  ``n_stat`` counts the
    statistical checks, which sets the run's sigma multiple.
    """

    run: Callable[[], object]
    check: Callable[[object, float], list[str]]
    n_stat: int
    pulses: int


class OpFailed(Exception):
    """The program refused or broke off an operation."""


# -- reproduce ---------------------------------------------------------------


def reproduce_ops(cvpulse, seed: int, rounds: int, workdir: Path) -> list[Op]:
    eta = REFERENCE_EFFICIENCY
    fit = checks.fringe_fit_stats(1.5, 0.94, eta, 0.0, 0.0, REPRODUCE_PULSES, REPRODUCE_BLOCK)
    level = checks.single_beam(1.5, eta)
    single_sigma = checks.single_beam_sigma(level, REPRODUCE_PULSES, REPRODUCE_BLOCK)

    def make(op_seed: int) -> Op:
        def run():
            code, out, err = call_cli(
                cvpulse, ["reproduce-paper", "--json", "--seed", str(op_seed)]
            )
            if code not in (0, 1):
                raise OpFailed(f"reproduce-paper exit {code}: {err.strip()}")
            return code, out

        def check(result, z):
            code, out = result
            payload = json.loads(out)
            rows = {row["name"]: row for row in payload["checks"]}
            rep = payload["report"]
            problems = [
                checks.within("raw squeezed", rep["raw_squeezed_variance"], fit["v_min"],
                              fit["sigma_min"] / math.sqrt(2), z, fit["fit_v_min"] - fit["v_min"]),
                checks.within("raw antisqueezed", rep["raw_antisqueezed_variance"], fit["v_max"],
                              fit["sigma_max"] / math.sqrt(2), z, fit["fit_v_max"] - fit["v_max"]),
                checks.within("raw single-beam", rep["raw_single_beam_variance"], level,
                              single_sigma, z),
            ]
            if set(rows) != set(PAPER_TARGETS):
                problems.append(f"reference checks {sorted(rows)} are not the paper's nine")
            for name, target in PAPER_TARGETS.items():
                row = rows.get(name)
                if row is None:
                    continue
                verdict = abs(row["simulated"] - row["target"]) <= row["tolerance"]
                if row["target"] != target or row["passed"] != verdict:
                    problems.append(f"reference check {name!r} reads {row}")
            all_passed = all(row["passed"] for row in rows.values())
            if payload["all_passed"] != all_passed or code != (0 if all_passed else 1):
                problems.append(f"verdict {payload['all_passed']} with exit {code}")
            sq_corr = 1.0 + (rep["raw_squeezed_variance"] - 1.0) / eta
            problems += [
                exact("corrected squeezed", rep["corrected_squeezed_variance"], sq_corr),
                exact("Duan-Simon sum", rep["duan_simon"], 2.0 * sq_corr),
                exact("entropy of formation", rep["entropy_of_formation"],
                      checks.entropy_of_formation(sq_corr)),
            ]
            return [p for p in problems if p]

        return Op(run, check, n_stat=3, pulses=3 * REPRODUCE_PULSES)

    return [make(s) for s in op_seeds(seed, rounds)]


def exact(name: str, actual: float, expected: float, rel: float = 1e-9):
    if abs(actual - expected) <= rel * max(1.0, abs(expected)):
        return None
    return f"{name}: got {actual!r}, closed form {expected!r}"


# -- records -----------------------------------------------------------------


def records_scenarios(seed: int) -> list[dict]:
    """Random mixed sources kept well inside the physical region (v^2 - k^2 >= 1.3)."""
    rng = np.random.default_rng(seed)
    scenarios = []
    for _ in range(RECORDS_SCENARIOS):
        v = float(rng.uniform(1.3, 2.0))
        k = float(rng.uniform(0.3, math.sqrt(v * v - 1.3)))
        scenarios.append(
            {
                "source": {"kind": "symmetric_mixed", "v": v, "k": k},
                "theta": float(rng.uniform(0.0, 2.0 * math.pi)),
                "detector": {
                    "eta_transmission": float(rng.uniform(0.75, 0.95)),
                    "electronic_noise_var": float(rng.uniform(0.0, 0.1)),
                },
            }
        )
    return scenarios


def records_ops(cvpulse, seed: int, rounds: int, workdir: Path) -> list[Op]:
    scenarios = records_scenarios(seed)
    paths = []
    for i, scenario in enumerate(scenarios):
        path = workdir / f"scenario-{i}.json"
        path.write_text(json.dumps(scenario))
        paths.append(path)
    csv = workdir / "pulses.csv"

    def make(i: int, op_seed: int) -> Op:
        scenario = scenarios[i]
        src, det = scenario["source"], scenario["detector"]
        eta = checks.efficiency(det["eta_transmission"], 0.88, 0.945)
        noise = det["electronic_noise_var"]

        def run():
            sim = call_cli(cvpulse, [
                "simulate", "--scenario", str(paths[i]), "--pulses", str(RECORDS_PULSES),
                "--seed", str(op_seed), "--out", str(workdir), "--json",
            ])
            if sim[0] != 0:
                raise OpFailed(f"simulate exit {sim[0]}: {sim[2].strip()}")
            ana = call_cli(cvpulse, ["analyze", str(csv), "--out", str(workdir), "--json"])
            if ana[0] != 0:
                raise OpFailed(f"analyze exit {ana[0]}: {ana[2].strip()}")
            return sim[1], ana[1]

        def check(result, z):
            fit = checks.fringe_fit_stats(src["v"], src["k"], eta, noise, scenario["theta"],
                                          RECORDS_PULSES, RECORDS_BLOCK)
            summary, report = json.loads(result[0]), json.loads(result[1])
            meta = cvpulse.read_metadata(csv)
            config = cvpulse.RunConfig.from_dict(meta["config"])
            fresh = cvpulse.sample_pulses(config, chunk_size=meta["chunk_size"])
            train = cvpulse.read_records(csv)
            problems = [
                checks.within("raw squeezed", report["raw_squeezed_variance"], fit["v_min"],
                              fit["sigma_min"], z, fit["fit_v_min"] - fit["v_min"]),
                checks.within("raw antisqueezed", report["raw_antisqueezed_variance"],
                              fit["v_max"], fit["sigma_max"], z, fit["fit_v_max"] - fit["v_max"]),
            ]
            if summary["n_pulses"] != RECORDS_PULSES or config.seed != op_seed:
                problems.append(f"simulate summary {summary} for seed {op_seed}")
            if (config.source.v, config.source.k, config.theta) != (
                src["v"], src["k"], scenario["theta"]
            ):
                problems.append(f"sidecar config {meta['config']} differs from the scenario")
            if not (
                np.array_equal(train.index, fresh.index)
                and np.array_equal(train.lo_phase, fresh.lo_phase)
                and np.array_equal(train.value, fresh.value)
            ):
                problems.append("records do not read back bit-identical to a fresh sample")
            for name in ("pulses.csv", "pulses.json", "report.json"):
                (workdir / name).unlink(missing_ok=True)
            return [p for p in problems if p]

        return Op(run, check, n_stat=2, pulses=RECORDS_PULSES)

    seeds = op_seeds(seed, rounds * RECORDS_SCENARIOS)
    return [make(j % RECORDS_SCENARIOS, s) for j, s in enumerate(seeds)]


# -- sweep -------------------------------------------------------------------


SWEEP_GRID = [
    (v, k, t, noise)
    for v, k in SWEEP_SOURCES
    for t in SWEEP_TRANSMISSIONS
    for noise in SWEEP_NOISE
]


def sweep_ops(cvpulse, seed: int, rounds: int, workdir: Path) -> list[Op]:
    grid = SWEEP_GRID
    expected = {}

    def expectations(point):
        if point not in expected:
            v, k, t, (_, noise, subtract) = point
            eta = checks.efficiency(t, 0.88, 0.945)
            fit = checks.fringe_fit_stats(v, k, eta, noise, 0.0, SWEEP_PULSES, SWEEP_BLOCK)
            level = checks.single_beam(v, eta, noise)
            offset = noise if subtract else 0.0
            sigma = checks.single_beam_sigma(level, SWEEP_PULSES, SWEEP_BLOCK)
            expected[point] = (fit, level, sigma, offset)
        return expected[point]

    def make(point, op_seed: int) -> Op:
        v, k, t, (_, noise, subtract) = point

        def run():
            config = cvpulse.RunConfig(
                source=cvpulse.SourceSpec.symmetric_mixed(v, k),
                detector=cvpulse.DetectorModel(
                    eta_transmission=t, eta_homodyne=0.88, eta_detector=0.945,
                    electronic_noise_var=noise,
                ),
                schedule=cvpulse.PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, SWEEP_PULSES),
                seed=op_seed,
            )
            report = cvpulse.end_to_end_report(
                config, SWEEP_PULSES, block_size=SWEEP_BLOCK, subtract_electronic_noise=subtract
            )
            return report, cvpulse.theta_scan(config, SWEEP_THETAS)

        def check(result, z):
            report, (thetas, v_min, v_max, phi_min) = result
            fit, level, single_sigma, offset = expectations(point)
            problems = [
                checks.within("raw squeezed", report.raw_squeezed_variance + offset, fit["v_min"],
                              fit["sigma_min"] / math.sqrt(2), z, fit["fit_v_min"] - fit["v_min"]),
                checks.within("raw antisqueezed", report.raw_antisqueezed_variance + offset,
                              fit["v_max"], fit["sigma_max"] / math.sqrt(2), z,
                              fit["fit_v_max"] - fit["v_max"]),
                checks.within("raw single-beam", report.raw_single_beam_variance + offset, level,
                              single_sigma, z),
            ]
            worst = max(
                np.max(np.abs(v_min - fit["v_min"])),
                np.max(np.abs(v_max - fit["v_max"])),
                np.max(checks.phase_distance(phi_min, checks.min_phase(SWEEP_THETAS))),
            )
            if len(thetas) != len(SWEEP_THETAS) or not worst <= checks.EXACT_TOL:
                problems.append(f"theta scan of {point} off the closed form by {worst:.3e}")
            return [p for p in problems if p]

        return Op(run, check, n_stat=3, pulses=3 * SWEEP_PULSES)

    seeds = op_seeds(seed, rounds * len(grid))
    return [make(grid[j % len(grid)], s) for j, s in enumerate(seeds)]


# -- driver ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: Callable
    round_size: int
    nominal_op_s: float  # measured on the reference machine; sizes the op list
    kernel: str  # calibration kernel of the same kind of work (calibrate.py)
    group: int  # operations between two calibration readings


WORKLOADS = {
    "reproduce": Workload(reproduce_ops, 1, 0.28, "sampling", 1),
    "records": Workload(records_ops, RECORDS_SCENARIOS, 1.2, "text", 1),
    "sweep": Workload(sweep_ops, len(SWEEP_GRID), 0.0085, "small_calls", len(SWEEP_GRID)),
}


def rounds_for(workload: Workload, seconds: int) -> int:
    by_time = seconds / (workload.nominal_op_s * workload.round_size)
    return max(MIN_ROUNDS, math.ceil(by_time))


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, scaled to the quiet host.

    The interpreter times its own imports and the building of the run's
    inputs, and its numpy import, which comes first, serves as the kernel:
    it is the same kind of work in the same moment, and cvpulse cannot
    change it (calibrate.py).
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    out = subprocess.run(command, check=True, capture_output=True, text=True).stdout
    numpy_s, total_s = map(float, out.split())
    return total_s * NUMPY_IMPORT_S / numpy_s


def tail(values: list[float]) -> float | None:
    """The highest percentile with at least ten values beyond it, from 40 values on."""
    if len(values) < 40:
        return None
    return sorted(values)[len(values) - 11]


def run_ops(
    ops: list[Op], z: float, first: int, cal: Calibration, group: int,
    tracer: Tracer | None = None, alloc: bool = False,
) -> dict:
    """Time each group of ops between two calibration readings, then check outputs.

    ``op_s`` holds each op's wall time scaled to the quiet host (calibrate.py).
    Checks run after the reading that closes the group, outside the timed
    region.  With a tracer, spans are recorded inside each op; with ``alloc``
    each op runs under tracemalloc and its allocation peak is kept.
    """
    res = {"op_s": [], "walls": [], "cpus": [], "peaks": [], "readings": [],
           "failures": [], "problems": []}
    before = cal.read()
    for start in range(first, first + len(ops), group):
        done = []
        for i, op in enumerate(ops[start - first:start - first + group], start=start):
            if alloc:
                tracemalloc.start()
            if tracer is not None:
                tracer.begin(i)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = op.run()
            except Exception as exc:  # a refused operation is counted, not fatal
                result = None
                res["failures"].append(f"op {i}: {type(exc).__name__}: {exc}")
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if tracer is not None:
                tracer.end()
            if alloc:
                res["peaks"].append(tracemalloc.get_traced_memory()[1] / MIB)
                tracemalloc.stop()
            if result is not None:
                res["walls"].append(wall)
                res["cpus"].append(cpu)
                done.append((i, op, result, wall))
        after = cal.read()
        res["readings"] += [before, after]
        for i, op, result, wall in done:
            res["op_s"].append(wall * cal.scale(before, after))
            try:
                found = op.check(result, z)
            except Exception as exc:  # malformed output is a check failure
                found = [f"check raised {type(exc).__name__}: {exc}"]
            res["problems"] += [f"op {i}: {p}" for p in found]
        before = cal.read()
    return res


def merge(parts: list[dict]) -> dict:
    return {key: [x for part in parts for x in part[key]] for key in parts[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    cvpulse = import_cvpulse()
    workload = WORKLOADS[args.workload]
    rounds = rounds_for(workload, args.seconds)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = workload.build(cvpulse, args.seed, rounds, workdir)
        if args.setup_only:
            print(_NUMPY_IMPORTED - _STARTED, time.perf_counter() - _STARTED)
            return 0
        z = checks.z_for_checks(sum(op.n_stat for op in ops))
        cal, group = Calibration(workload.kernel), workload.group
        if args.trace:
            # rounds alternate untraced and with spans, so drift hits both
            # alike; the last op runs under tracemalloc, which is slow
            size, body = workload.round_size, len(ops) - ALLOC_OPS
            plain, spans, tracer = [], [], Tracer()
            for first in range(0, body, size):
                chunk = ops[first:min(first + size, body)]
                if first // size % 2 == 0:
                    plain.append(run_ops(chunk, z, first, cal, group))
                    continue
                tracer.install()
                try:
                    spans.append(run_ops(chunk, z, first, cal, group, tracer))
                finally:
                    tracer.uninstall()
            plain, spans = merge(plain), merge(spans)
            allocs = run_ops(ops[body:], z, body, cal, group, alloc=True)
            failures = plain["failures"] + spans["failures"] + allocs["failures"]
            problems = plain["problems"] + spans["problems"] + allocs["problems"]
        else:
            # set-up probes are spread over the run, so that their median
            # sees the same mix of host states as the operations
            parts, setups = [], []
            step = group * math.ceil(len(ops) / SETUP_PROBES / group)
            for first in range(0, len(ops), step):
                setups.append(probe_setup(args))
                parts.append(run_ops(ops[first:first + step], z, first, cal, group))
            res = merge(parts)
            failures, problems = res["failures"], res["problems"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        layer = tracer.medians()
        metrics = {
            name: (layer.get(key, 0.0), unit)
            for name, key, unit in PER_LAYER
        }
        metrics["process.alloc_peak_mb"] = (statistics.median(allocs["peaks"]), "MB")
        metrics["process.cpu_s"] = (statistics.median(plain["cpus"]), "s")
        overhead = statistics.median(spans["op_s"]) - statistics.median(plain["op_s"])
        metrics["trace.overhead_s"] = (overhead, "s")
        (OUT / f"trace-{args.workload}.json").write_text(json.dumps(tracer.dump()))
    else:
        op_s = statistics.median(res["op_s"])
        metrics = {
            "op_s.p50": (op_s, "s"),
            "pulses_per_s": (ops[0].pulses / op_s, "pulses/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }

    for line in failures + problems[:20]:
        print(line, file=sys.stderr)
    print(f"{args.workload}: {len(ops)} ops, {len(failures)} failed, "
          f"{len(problems)} check problems, z = {z:.2f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}", file=sys.stderr)
    if not args.trace:
        q = np.percentile(res["walls"], [0, 5, 50, 95, 100])
        print("  unscaled op wall time min/p5/p50/p95/max [s] " + " ".join(f"{x:.6g}" for x in q),
              file=sys.stderr)
        print(f"  scaled op_s.tail {tail(res['op_s'])} s (not a metric: records runs too few ops)",
              file=sys.stderr)
        q = np.percentile(res["readings"], [0, 5, 50, 95, 100])
        print(f"  {workload.kernel} readings min/p5/p50/p95/max [s] "
              + " ".join(f"{x:.6g}" for x in q), file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


# (metric, tracer key, unit) read from the per-op span totals
PER_LAYER = (
    ("simulate.schedule_values.ms", "simulate.schedule_values.ms", "ms"),
    ("simulate.detected_variance.ms", "simulate.detected_variance.ms", "ms"),
    ("simulate.sample_pulses.self_ms", "simulate.sample_pulses.self_ms", "ms"),
    ("simulate.sample_pulses.pulses", "simulate.sample_pulses.count", "pulses"),
    ("simulate.block_variance_trace.ms", "simulate.block_variance_trace.ms", "ms"),
    ("simulate.write_records.ms", "simulate.write_records.ms", "ms"),
    ("simulate.write_records.bytes", "simulate.write_records.count", "bytes"),
    ("simulate.read_records.ms", "simulate.read_records.ms", "ms"),
    ("simulate.read_records.bytes", "simulate.read_records.count", "bytes"),
    ("simulate.detected_covariance.ms", "simulate.detected_covariance.ms", "ms"),
    ("simulate.detected_covariance.calls", "simulate.detected_covariance.count", "calls"),
    ("simulate.theta_scan.ms", "simulate.theta_scan.ms", "ms"),
    ("simulate.theta_scan.points", "simulate.theta_scan.count", "points"),
    ("analysis.fit_variance_curve.ms", "analysis.fit_variance_curve.ms", "ms"),
    ("analysis.fit_variance_curve.blocks", "analysis.fit_variance_curve.count", "blocks"),
    ("analysis.reconstruct_covariance.ms", "analysis.reconstruct_covariance.ms", "ms"),
    ("entanglement.entropy_of_formation.ms", "entanglement.entropy_of_formation.ms", "ms"),
    ("analysis.end_to_end_report.self_ms", "analysis.end_to_end_report.self_ms", "ms"),
    ("scenario.load_scenario.ms", "scenario.load_scenario.ms", "ms"),
    ("cli.self_ms", "cli.main.self_ms", "ms"),
)


if __name__ == "__main__":
    sys.exit(main())
