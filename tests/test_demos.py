"""Every demo runs to completion and leaves its working directory as it found it, and
README's library quickstart runs and gives the numbers its comments state."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvpulse

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []


def test_readme_quickstart_runs_on_exported_names_and_gives_its_stated_numbers(capsys):
    """The first ``python`` block after README's "Library quickstart" heading imports only
    names cvpulse exports, and its comments' numbers hold: Duan-Simon 1.12, entropy of
    formation 0.435 ebit, and a nonseparable report."""
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    imported = {alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "cvpulse"
                for alias in node.names}
    assert imported and imported <= set(cvpulse.__all__)
    namespace = {}
    exec(compile(code, "README.md quickstart", "exec"), namespace)
    assert round(namespace["ds"], 2) == 1.12
    assert round(namespace["ebits"], 3) == 0.435
    assert namespace["report"].nonseparable
    assert "nonseparable" in capsys.readouterr().out
