"""Every demo script and every command-line example of the README runs to
completion.

The demos call the public API the way a reader would, and demo 03 asserts
that the two engines agree, so a demo that stops working is a failure.  The
README's ``laddergf ...`` lines run as ``python -m laddergf ...`` on the
instance files in ``demos/instances/``.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import FLAGSHIP_NUMERATOR

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_COMMANDS = [
    shlex.split(line)[1:]
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    if line.startswith("laddergf ")
]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_demos_exist():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_commands_found():
    assert len(README_COMMANDS) == 5


@pytest.mark.parametrize(
    "args", README_COMMANDS, ids=lambda args: "-".join(Path(a).name.lstrip("-") for a in args))
def test_readme_command_runs(args):
    proc = subprocess.run([sys.executable, "-m", "laddergf", *args], cwd=ROOT,
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if args[:3] == ["hilbert", "--input", "demos/instances/flagship.json"] \
            and "pretty" not in args:
        numerator = json.loads(proc.stdout)["numerator"]
        assert numerator == [str(c) for c in FLAGSHIP_NUMERATOR]
