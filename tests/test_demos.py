"""Every demo script and the README's Library example run to completion
against the package in ``src/``, and the engine imports without the
loaders, the harness or the CLI."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr


def test_readme_library_example_exits_cleanly():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```$", readme, re.M | re.S)
    assert block is not None, "README has no python block under ## Library"
    assert "from react_irs import" not in block.group(1)
    result = run_python("-c", block.group(1))
    assert result.returncode == 0, result.stderr


def test_importing_the_engine_loads_no_loader_harness_or_cli():
    result = run_python("-c", (
        "import sys, react_irs.engine\n"
        "print(*sorted(m for m in ('react_irs.files', 'react_irs.harness', 'react_irs.cli')"
        " if m in sys.modules))"
    ))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
