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


@pytest.mark.parametrize("args, message", [
    (("--sigma", "1e-12"),
     "sigma 1e-12 is below the schedule's smallest height 4.8828125e-05"),
    (("--steps", "5"), "count must be >= 6, got 5"),
    (("--ratio", "2"), "ratio must lie in (0, 1), got 2.0"),
    (("--y0", "-1"), "y0 must be positive and finite, got -1.0"),
    (("--sigma", "-1"), "sigma must be positive and finite, got -1.0"),
], ids=["sigma", "steps", "ratio", "y0", "negative_sigma"])
def test_survey_refuses_bad_input(args, message):
    done = _run("survey_products.py", *args)
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("script, expr, message", [
    ("survey_products.py", "(x+i0)^-400", "quadrature stalled"),
    ("survey_products.py", "delta *", "expected a factor (byte offset 7)"),
    ("ambiguity_scan.py", "(x+i0)^-400", "quadrature stalled"),
], ids=["survey_stall", "survey_parse", "scan_stall"])
def test_scripts_exit_2_like_the_cli(script, expr, message):
    # argparse's usage block, then one error line: no traceback, and no numpy
    # warning about the NaN panels of a stalled quadrature
    done = _run(script, "--expr", expr)
    assert done.returncode == 2
    usage, _, error = done.stderr.rstrip("\n").rpartition("\n")
    assert usage.startswith(f"usage: {script}") and "error" not in usage
    assert error.startswith(f"{script}: error: ") and message in error


def test_scan_reports_a_failed_continuation_in_band():
    # the subtracted pairing on exp(-x^2) reads inconclusive at the searched
    # p = 2; ROADMAP item 8 makes it continue, so this case moves with it
    done = _run("ambiguity_scan.py", "--expr", "d(delta) * d(delta) * delta", "--c-num", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "subtraction order : p = 2 (needed: True)" in lines
    assert [line.split()[0] for line in lines if "[" in line] == ["tilted", "offset"] * 2
    assert any(line.startswith("gauss    not continued: subtracted pairing")
               and "p=2 is too small" in line for line in lines)
