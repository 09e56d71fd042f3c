"""The CI "Packaging smoke" step installs the package and runs
tests/packaging_smoke.sh; Tier-1 runs that same script, so a change to the
command line that would break it fails here first.  The install line is
left out: `adicaut` and `python` shims on PATH run the source tree's
package under this interpreter instead of an installed copy."""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SCRIPT = ROOT / "tests" / "packaging_smoke.sh"


def test_the_workflow_step_is_the_install_line_and_the_script():
    step = ("      - name: Packaging smoke (installed package and entry point, run outside src)\n"
            "        run: |\n"
            "          python -m pip install .\n"
            "          bash tests/packaging_smoke.sh\n"
            "      - name: ")  # the next step starts at once: the step has exactly these two lines
    assert step in WORKFLOW.read_text(encoding="utf-8")


def test_packaging_smoke_step_replays(tmp_path):
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("bash is not installed")
    assert "set -eo pipefail\n" in SCRIPT.read_text(encoding="utf-8")
    shims = tmp_path / "bin"
    shims.mkdir()
    for name, argv in (("adicaut", [sys.executable, "-m", "adicaut.cli"]), ("python", [sys.executable])):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nexport PYTHONPATH={shlex.quote(str(ROOT / "src"))}\nexec {shlex.join(argv)} "$@"\n')
        shim.chmod(0o755)
    env = {**os.environ, "PATH": f"{shims}{os.pathsep}{os.environ.get('PATH', '')}", "RUNNER_TEMP": str(tmp_path)}
    result = subprocess.run([bash, "--noprofile", "--norc", str(SCRIPT)],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
