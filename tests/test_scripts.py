"""Smoke runs of the scripts under scripts/, as a user starts them."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script, *args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("script, args, header", [
    ("ambiguity_scan.py", ("--c-num", "2"), "expression        : delta * delta"),
    ("survey_products.py", (), "expression"),
], ids=["ambiguity_scan", "survey_products"])
def test_script_runs(script, args, header):
    done = _run(script, *args)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].startswith(header)


def test_survey_refuses_unresolvable_sigma():
    done = _run("survey_products.py", "--sigma", "1e-12")
    assert done.returncode == 2
    assert "sigma 1e-12 is below the schedule's smallest height 4.8828125e-05" in done.stderr
    assert "Traceback" not in done.stderr
