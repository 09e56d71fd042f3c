"""The CI "Packaging smoke" step runs here as written, so a change to the
command line that would break it fails Tier-1 first.  Its `pip install .`
line is dropped: `adicaut` and `python` shims on PATH run the source tree's
package under this interpreter instead of an installed copy."""

import os
import shlex
import shutil
import subprocess
import sys
import textwrap
from itertools import takewhile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def smoke_script() -> str:
    "The `run: |` block of the step named `Packaging smoke ...`, dedented, without its install line."
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    step = next(i for i, line in enumerate(lines) if line.lstrip().startswith("- name: Packaging smoke"))
    run = lines[step + 1]
    assert run.strip() == "run: |"
    indent = len(run) - len(run.lstrip())
    body = takewhile(lambda line: not line.strip() or len(line) - len(line.lstrip()) > indent, lines[step + 2:])
    first, *rest = textwrap.dedent("\n".join(body)).strip().splitlines()
    assert first == "python -m pip install ."
    return "\n".join(rest) + "\n"


def test_packaging_smoke_step_replays(tmp_path):
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("bash is not installed")
    script = smoke_script()
    assert "adicaut build" in script
    shims = tmp_path / "bin"
    shims.mkdir()
    for name, argv in (("adicaut", [sys.executable, "-m", "adicaut.cli"]), ("python", [sys.executable])):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nexport PYTHONPATH={shlex.quote(str(ROOT / "src"))}\nexec {shlex.join(argv)} "$@"\n')
        shim.chmod(0o755)
    env = {**os.environ, "PATH": f"{shims}{os.pathsep}{os.environ.get('PATH', '')}", "RUNNER_TEMP": str(tmp_path)}
    result = subprocess.run([bash, "--noprofile", "--norc", "-e", "-o", "pipefail", "-c", script],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
