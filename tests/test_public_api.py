"""The package's public surface: the pinned export list, and every name and
call shape the benchmark and the demos use on ``cvpulse``.

``perfbench/`` and ``demos/`` call the package by these names, so a name
dropped from the package, or a parameter renamed or removed, must first
leave them.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import cvpulse
import cvpulse.cli  # noqa: F401  (perfbench reaches cvpulse.cli.main)

ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "cvpulse").glob("*.py"))

EXPORTS = [
    "SourceSpec",
    "physicality_check",
    "symmetric_two_mode_covariance",
    "EPR_THRESHOLD",
    "SEPARABILITY_THRESHOLD",
    "duan_simon",
    "entropy_of_formation",
    "reid_epr_product",
    "variance_to_db",
    "DetectorModel",
    "PhaseSchedule",
    "PulseTrain",
    "RunConfig",
    "block_variance_trace",
    "detected_covariance",
    "detected_variance",
    "read_metadata",
    "read_records",
    "sample_pulses",
    "stream_block_variances",
    "theta_scan",
    "write_records",
    "EntanglementReport",
    "efficiency_inversion",
    "end_to_end_report",
    "fit_variance_curve",
    "reconstruct_covariance",
    "Scenario",
    "load_scenario",
    "reference_scenario",
]


def test_readme_entry_point_table_is_the_export_list():
    """README's "Key entry points by layer" table names what cvpulse exports."""
    section = (ROOT / "README.md").read_text().split("Key entry points by layer:", 1)[1]
    table = section.strip().split("\n\n", 1)[0]
    assert set(re.findall(r"`(\w+)`", table)) == set(cvpulse.__all__)


def _names_reached_on_the_package(path):
    """``X`` of every ``from cvpulse import X`` and every ``cvpulse.X`` in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "cvpulse":
            yield from (alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "cvpulse"
        ):
            yield node.attr


def test_exports_are_the_pinned_list_and_resolve():
    assert cvpulse.__all__ == EXPORTS
    for name in cvpulse.__all__:
        assert hasattr(cvpulse, name), name


@pytest.mark.parametrize("path", CALLERS, ids=[f"{p.parent.name}/{p.name}" for p in CALLERS])
def test_every_name_a_caller_reaches_resolves(path):
    missing = sorted(
        {name for name in _names_reached_on_the_package(path) if not hasattr(cvpulse, name)}
    )
    assert missing == [], f"{path.name} reaches cvpulse.{missing}"


def test_the_scan_finds_names_the_benchmark_uses():
    reached = set(_names_reached_on_the_package(ROOT / "perfbench" / "run.py"))
    assert {"cli", "read_metadata", "read_records", "sample_pulses", "end_to_end_report"} <= reached


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_definition_is_exported_or_used_outside_the_tests():
    """A public top-level function or class of the package is in ``__all__``, or
    is named by some module of the package, a demo or the benchmark; code that
    only the tests use lives in ``tests/``."""
    used = set()
    for path in SOURCES + CALLERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = {
        node.name: path.name
        for path in SOURCES
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert {"symplectic_form", "physicality_check", "main"} <= defined.keys()
    unused = sorted(
        f"{module}: {name}"
        for name, module in defined.items()
        if name not in cvpulse.__all__ and name not in used
    )
    assert unused == []


def _calls_on_the_package(path):
    """(dotted name, call node) of every ``cvpulse.X(...)``, ``cvpulse.X.Y(...)``,
    ``X(...)`` and ``X.Y(...)`` in a file, ``X`` imported by ``from cvpulse import X``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "cvpulse"
        for alias in node.names
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.insert(0, func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            continue
        if func.id == "cvpulse":
            names = parts
        elif func.id in imported:
            names = [imported[func.id], *parts]
        else:
            continue
        if 1 <= len(names) <= 2:
            yield ".".join(names), node


def _shape(call):
    """Positional count and keyword names of a call."""
    return len(call.args), tuple(k.arg for k in call.keywords)


@pytest.mark.parametrize("path", CALLERS, ids=[f"{p.parent.name}/{p.name}" for p in CALLERS])
def test_every_call_a_caller_makes_binds(path):
    """Each call binds to the callee's signature by positional count and keyword names."""
    unbound = []
    for name, call in _calls_on_the_package(path):
        target = cvpulse
        for part in name.split("."):
            target = getattr(target, part)
        positional, keywords = _shape(call)
        try:
            inspect.signature(target).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {name}: {exc}")
    assert unbound == [], f"{path.name}: {unbound}"


def test_the_call_scan_finds_the_benchmark_call_shapes():
    found = {
        (name, _shape(call))
        for name, call in _calls_on_the_package(ROOT / "perfbench" / "run.py")
    }
    assert {
        ("cli.main", (1, ())),
        ("sample_pulses", (1, ("chunk_size",))),
        ("end_to_end_report", (2, ("block_size", "subtract_electronic_noise"))),
        ("SourceSpec.symmetric_mixed", (2, ())),
    } <= found
