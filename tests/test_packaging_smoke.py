"""The CI "Packaging smoke" step installs the package and runs
tests/packaging_smoke.sh; Tier-1 runs that same script, so a change to the
command line that would break it fails here first.  The install line is
left out: an `adicaut` shim on PATH runs the source tree's package under
this interpreter instead of an installed copy."""

import os
import re
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
    shim = shims / "adicaut"
    shim.write_text(f'#!/bin/sh\nexport PYTHONPATH={shlex.quote(str(ROOT / "src"))}\n'
                    f'exec {shlex.join([sys.executable, "-m", "adicaut.cli"])} "$@"\n')
    shim.chmod(0o755)
    env = {**os.environ, "PATH": f"{shims}{os.pathsep}{os.environ.get('PATH', '')}", "RUNNER_TEMP": str(tmp_path)}
    result = subprocess.run([bash, "--noprofile", "--norc", str(SCRIPT)],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"


def test_the_script_calls_every_command_and_each_failing_exit_code():
    # every other CLI check lives in tests/test_cli.py; this keeps a later edit from dropping entry-point coverage
    text = SCRIPT.read_text(encoding="utf-8")
    calls = re.findall(r"\badicaut (\w+)", re.sub(r"(?m)^#.*", "", text))
    assert set(calls) == {"build", "act", "wp", "relations", "verify"} and len(calls) <= 12
    for code in (2, 3, 4):
        assert f'test "$code" = {code}\n' in text
    assert len(re.findall(r"(?m)^LC_ALL=C PYTHONUTF8=0 adicaut build .*\ncmp ", text)) == 2  # each compared at once
