"""Every demo script, and README's quick start, runs to completion against
the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_present():
    assert len(DEMOS) == 5


def readme_quick_start() -> str:
    """The Python block of README's Quick start section."""
    section = README.read_text().split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("demo", [*DEMOS, README], ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    if demo == README:
        demo = tmp_path / "quick_start.py"
        demo.write_text(readme_quick_start())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
