import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from distprod import cli, extension, pairing
from distprod.cli import (
    ConfigError,
    Job,
    _phi_from_descriptor,
    job_from_file,
    main,
    run_job,
)
from distprod.pairing import NotExtendableError, ParseError, Schedule, parse_expression


class TestParser:
    def test_two_factors(self):
        expr = parse_expression("delta * pv(1/x)")
        assert [f.label for f in expr.factors] == ["delta", "pv(1/x)"]
        assert expr.powers == (0, 0)

    def test_power_folds_into_next_factor(self):
        expr = parse_expression("x^2 * delta * delta")
        assert [f.label for f in expr.factors] == ["delta", "delta"]
        assert expr.powers == (2, 0)
        assert expr.total_power == 2

    def test_repeated_one_sided_powers(self):
        expr = parse_expression("(x+i0)^-1 * (x+i0)^-1")
        assert len(expr.factors) == 2
        assert all(f.label == "(x+i0)^-1" for f in expr.factors)

    def test_minus_side_and_parameter(self):
        expr = parse_expression("(x-i0)^-3")
        assert expr.factors[0].label == "(x-i0)^-3"

    def test_unity_atom(self):
        expr = parse_expression("1 * delta")
        assert [f.label for f in expr.factors] == ["1", "delta"]

    def test_derivative_atom(self):
        expr = parse_expression("d(delta)")
        assert expr.factors[0].label == "d(delta)"

    def test_nested_derivative(self):
        expr = parse_expression("d(d(pv(1/x)))")
        assert expr.factors[0].label == "d(d(pv(1/x)))"

    def test_trailing_power_becomes_monomial(self):
        expr = parse_expression("delta * x^2")
        assert [f.label for f in expr.factors] == ["delta", "x^2"]
        assert expr.powers == (0, 0)

    def test_consecutive_powers_accumulate(self):
        expr = parse_expression("x^1 * x^2 * delta")
        assert expr.powers == (3,)

    def test_whitespace_insensitive(self):
        a = parse_expression("x^2*delta*pv(1/x)")
        b = parse_expression("  x^2 * delta   *  pv(1/x) ")
        assert a == b

    def test_pure_monomial(self):
        expr = parse_expression("x^3")
        assert expr.factors[0].label == "x^3"


class TestParseErrors:
    def test_unknown_input_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expression("delta * heaviside")
        assert err.value.offset == 8

    def test_double_star(self):
        with pytest.raises(ParseError) as err:
            parse_expression("delta ** delta")
        assert err.value.offset == 7

    def test_trailing_star(self):
        with pytest.raises(ParseError):
            parse_expression("delta * ")

    def test_missing_closing_paren(self):
        with pytest.raises(ParseError):
            parse_expression("d(delta")

    def test_zero_inverse_power(self):
        with pytest.raises(ParseError):
            parse_expression("(x+i0)^-0")

    def test_empty_expression(self):
        with pytest.raises(ParseError):
            parse_expression("")

    def test_missing_separator(self):
        with pytest.raises(ParseError) as err:
            parse_expression("delta delta")
        assert err.value.offset == 6


_ATOM = st.sampled_from([
    "delta", "pv(1/x)", "(x+i0)^-1", "(x+i0)^-2", "(x-i0)^-1", "1",
    "d(delta)", "d(pv(1/x))", "d(d(delta))",
])
_TERM = st.one_of(_ATOM, st.integers(1, 3).map(lambda k: f"x^{k}"))


@settings(max_examples=80)
@given(st.lists(_TERM, min_size=1, max_size=5))
def test_round_trip_parse_print_parse(terms):
    text = " * ".join(terms)
    first = parse_expression(text)
    printed = first.label
    second = parse_expression(printed)
    assert first == second
    assert second.label == printed


def test_format_canonical_examples():
    assert parse_expression("x^2*delta").label == "x^2 * delta"
    assert parse_expression("delta * x^2").label == "delta * x^2"
    assert parse_expression("x^0 * delta").label == "delta"


class TestDescriptors:
    def test_basic(self):
        phi = _phi_from_descriptor({"poly": [0.0, 1.0], "sigma": 1.0})
        assert phi(0.0, 1) == pytest.approx(1.0)

    def test_mu_optional(self):
        phi = _phi_from_descriptor({"poly": [1.0], "sigma": 2.0, "mu": 0.5})
        assert phi.mu == 0.5

    def test_missing_sigma(self):
        with pytest.raises(ConfigError):
            _phi_from_descriptor({"poly": [1.0]})

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            _phi_from_descriptor({"poly": [1.0], "sigma": 1.0, "width": 2})


class TestRunJob:
    def test_convergent_report(self):
        job = Job(expression="delta * pv(1/x)",
                  phis=[{"poly": [0.0, 1.0], "sigma": 1.0}])
        report = run_job(job)
        res = report["results"][0]
        assert res["pairing"]["status"] == "converged"
        assert res["pairing"]["value"][0] == pytest.approx(0.5, abs=1e-6)
        assert res["subtraction"] is None
        assert res["extensions"] is None

    def test_unity_report(self):
        report = run_job(Job(expression="1"))
        value = report["results"][0]["pairing"]["value"]
        assert value[0] == pytest.approx(math.sqrt(math.pi), abs=1e-6)
        assert value[1] == pytest.approx(0.0, abs=1e-9)

    def test_divergent_report_has_extension_blocks(self):
        job = Job(expression="delta * delta", c_grid=[[1.0]])
        report = run_job(job)
        res = report["results"][0]
        assert res["pairing"]["status"] == "diverged"
        assert res["pairing"]["s"] == pytest.approx(1.0, abs=0.05)
        assert res["subtraction"] == {"p": 0, "needed": True}
        assert len(res["extensions"]) == 2  # c = 0 plus the requested row
        base, shifted = res["extensions"]
        assert base["c"] == [[0.0, 0.0]]
        assert shifted["value"][0] == pytest.approx(base["value"][0] + 1.0, abs=1e-9)
        assert res["omega_independence"]["difference"] <= 1e-5

    def test_p_override_on_convergent_expression(self):
        job = Job(expression="delta", p_override=0)
        report = run_job(job)
        res = report["results"][0]
        assert res["subtraction"] == {"p": 0, "needed": False}
        # extension of an already convergent product reproduces the limit
        assert res["extensions"][0]["value"][0] == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_repeat(self):
        job = Job(expression="delta * delta")
        a = json.dumps(run_job(job), sort_keys=True)
        b = json.dumps(run_job(job), sort_keys=True)
        assert a == b

    def test_p_override_without_divergence_subtracts_nothing(self):
        res = run_job(Job(expression="delta * d(delta)", p_override=1))["results"][0]
        assert res["subtraction"]["error"] == (
            "pairing for 'delta * d(delta)' classified as inconclusive; it did not "
            "diverge, so nothing was subtracted and the order p=1 plays no part")

    def test_ignored_counterterms_are_noted(self):
        res = run_job(Job(expression="delta * d(delta)", c_grid=[[1, 2]]))["results"][0]
        assert res["pairing"]["status"] == "inconclusive"
        assert res["extensions"] is None
        assert res["notes"] == [
            "c_grid ignored: the pairing is inconclusive, so nothing is continued"]
        plain = run_job(Job(expression="delta * d(delta)"))["results"][0]
        assert "notes" not in plain

    def test_narrow_sigma_above_smallest_height_converges(self):
        res = run_job(Job(expression="delta", phis=[{"poly": [1], "sigma": 0.01}]))
        pairing = res["results"][0]["pairing"]
        assert pairing["status"] == "converged"
        assert pairing["value"][0] == pytest.approx(1.0, abs=1e-6)

    def test_counterterm_arity_checked(self):
        job = Job(expression="delta * delta", c_grid=[[1.0, 2.0]])
        with pytest.raises(ConfigError):
            run_job(job)


class TestJobFile:
    def test_full_round(self, tmp_path):
        doc = {
            "expression": "delta * pv(1/x)",
            "phi": [{"poly": [0.0, 1.0], "sigma": 1.0}],
            "y0": 0.1, "ratio": 0.5, "steps": 12,
            "plateau": 1.0, "support": 2.0,
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        job = job_from_file(str(path))
        assert job.expression == "delta * pv(1/x)"
        assert job.schedule == Schedule(y0=0.1, ratio=0.5, count=12)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"expression": "1", "tolerance": 1e-3}))
        with pytest.raises(ConfigError):
            job_from_file(str(path))

    def test_missing_expression(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"phi": []}))
        with pytest.raises(ConfigError):
            job_from_file(str(path))

    def test_complex_grid_forms(self, tmp_path):
        doc = {"expression": "delta * delta",
               "c_grid": [[1.0], [[0.0, 1.0]], ["1+2j"]]}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        job = job_from_file(str(path))
        assert job.c_grid == [[1.0 + 0j], [1j], [1.0 + 2j]]


def _run_job_file(tmp_path, doc, *flags):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    return main(["--job", str(path), *flags])


class TestJobValues:
    """Job values of the wrong type exit 2 instead of running wrong or crashing."""

    @pytest.mark.parametrize("key, value", [
        ("steps", 12.9), ("p", 0.5), ("y0", True), ("phi", []), ("phi", [5]),
        ("c_grid", [1, 2]), ("c_grid", [[True]]), ("expression", 5), ("out", 5),
    ])
    def test_bad_value_exit_two(self, tmp_path, capsys, key, value):
        doc = {"expression": "delta", "steps": 8, key: value}
        assert _run_job_file(tmp_path, doc) == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("phi", [
        {"poly": [1], "sigma": 1, "mu": float("nan")},
        {"poly": [float("nan")], "sigma": 1},
    ])
    def test_non_finite_phi_exit_two(self, tmp_path, capsys, phi):
        doc = {"expression": "delta", "steps": 8, "phi": [phi]}
        assert _run_job_file(tmp_path, doc) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", [
        {"poly": [1], "sigma": True},
        {"poly": [1], "sigma": 1, "mu": "0.5"},
        {"poly": [1], "sigma": "1e0"},
        {"poly": [True], "sigma": 1},
        {"poly": "12", "sigma": 1},
    ])
    def test_phi_values_must_be_numbers(self, tmp_path, capsys, phi):
        doc = {"expression": "delta", "steps": 8, "phi": [phi]}
        assert _run_job_file(tmp_path, doc) == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("c_grid", [
        [[math.nan]], [["nan+1j"]], [[math.inf]], [[[1, math.nan]]], "--c inf",
    ])
    def test_non_finite_counterterm_exit_two(self, tmp_path, capsys, c_grid):
        # json.dumps would write such a report with bare NaN/Infinity tokens
        if isinstance(c_grid, str):
            code = main(["--expr", "delta * delta", "--steps", "8", *c_grid.split()])
        else:
            code = _run_job_file(tmp_path, {"expression": "delta * delta",
                                            "steps": 8, "c_grid": c_grid})
        assert code == 2
        assert "not finite" in capsys.readouterr().err

    def test_flags_and_file_give_identical_reports(self, tmp_path):
        phi = '{"poly": [1, 0.5], "sigma": 0.8, "mu": 0.1}'
        flag_out, file_out, both_out = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        assert main(["--expr", "delta * delta", "--phi", phi, "--y0", "0.2",
                     "--ratio", "0.4", "--steps", "10", "--plateau", "0.8",
                     "--support", "1.5", "--c", "0.5", "--out", str(flag_out)]) == 0
        doc = {"expression": "delta * delta", "phi": [json.loads(phi)], "y0": 0.2,
               "ratio": 0.4, "steps": 10, "plateau": 0.8, "support": 1.5,
               "c_grid": [[0.5]], "out": str(file_out)}
        assert _run_job_file(tmp_path, doc) == 0
        assert flag_out.read_bytes() == file_out.read_bytes()
        # --job overrides the other flags, and --out the file's "out"
        assert _run_job_file(tmp_path, doc, "--expr", "1", "--steps", "3",
                             "--out", str(both_out)) == 0
        assert both_out.read_bytes() == file_out.read_bytes()


class TestMain:
    def test_classified_outcome_exit_zero(self, capsys):
        code = main(["--expr", "delta", "--steps", "8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["pairing"]["status"] == "converged"

    def test_parse_error_exit_two(self, capsys):
        code = main(["--expr", "delta @ delta"])
        assert code == 2
        assert "byte offset" in capsys.readouterr().err

    def test_missing_expr_exit_two(self, capsys):
        assert main([]) == 2

    def test_missing_job_file_exit_two(self, capsys):
        assert main(["--job", "/nonexistent/job.json"]) == 2

    def test_output_file_written_atomically(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["--expr", "1", "--out", str(out), "--steps", "8"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["expression"] == "1"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".distprod-")]
        assert leftovers == []

    def test_byte_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["--expr", "delta * pv(1/x)", "--phi",
              '{"poly": [0, 1], "sigma": 1.0}', "--out", str(out1)])
        main(["--expr", "delta * pv(1/x)", "--phi",
              '{"poly": [0, 1], "sigma": 1.0}', "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("DISTPROD_TOL", "1e-5")
        assert main(["--expr", "1", "--steps", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerances"]["convergence"] == 1e-5
        assert doc["tolerances"]["quad_abs"] == pytest.approx(1e-8)

    @pytest.mark.parametrize("raw", ["fast", "inf", "nan", "-1", "0"])
    def test_bad_env_tolerance(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("DISTPROD_TOL", raw)
        assert main(["--expr", "1"]) == 2
        assert f"DISTPROD_TOL={raw!r}" in capsys.readouterr().err

    def test_bad_cutoff_exit_two_on_convergent_product(self, capsys):
        code = main(["--expr", "delta * pv(1/x)", "--plateau", "5", "--support", "1",
                     "--steps", "8"])
        assert code == 2
        assert "plateau" in capsys.readouterr().err

    def test_c_flag_builds_one_grid_row(self, capsys):
        code = main(["--expr", "delta * delta", "--c", "0.5", "--steps", "10"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        exts = doc["results"][0]["extensions"]
        assert len(exts) == 2
        assert exts[1]["c"] == [[0.5, 0.0]]

    def test_job_loads_no_scipy(self, tmp_path):
        # scipy is a benchmark dependency only; a job must run without it
        code = ("import sys\n"
                "from distprod.cli import main\n"
                f"code = main(['--expr', 'delta * delta', '--c', '0.5', '--steps', '10',"
                f" '--out', {str(tmp_path / 'report.json')!r}])\n"
                "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        done = _python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "[]"]

    def test_package_import_leaves_cli_unloaded(self):
        done = _python("-c", "import sys, distprod; print('distprod.cli' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

    def test_module_run_warns_nothing(self):
        # runpy warns when the package import has already loaded the module it runs
        done = _python("-W", "error::RuntimeWarning", "-m", "distprod.cli",
                       "--expr", "delta", "--steps", "8")
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""


def _python(*args):
    """A fresh interpreter run with args, importing distprod from src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "delta_pv_report.json")
GOLDEN_DELTA_DELTA = os.path.join(os.path.dirname(__file__), "golden",
                                  "delta_delta_report.json")
GOLDEN_POLE_POWER = os.path.join(os.path.dirname(__file__), "golden",
                                 "pole_power_derivative_report.json")


def _compare_structurally(got, want, path=""):
    assert type(got) is type(want), f"type mismatch at {path}"
    if isinstance(want, dict):
        assert set(got) == set(want), f"key mismatch at {path}"
        for k in want:
            _compare_structurally(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"length mismatch at {path}"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_structurally(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), f"value at {path}"
    else:
        assert got == want, f"value at {path}"


def test_golden_report():
    """Frozen end-to-end report; numerical drift beyond 1e-9 is a regression."""
    job = Job(expression="delta * pv(1/x)",
              phis=[{"poly": [0.0, 1.0], "sigma": 1.0}])
    got = run_job(job)
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    _compare_structurally(got, want)


def test_golden_extension_report():
    """Frozen report with extension blocks, counterterm rows and a cutoff check."""
    job = Job(expression="delta * delta",
              phis=[{"poly": [1.0], "sigma": 0.7071067811865476, "mu": 0.0},
                    {"poly": [1.0, 1.0, 0.25], "sigma": 1.0}],
              c_grid=[[1.0 + 0j], [0.5 - 2.0j]])
    got = run_job(job)
    with open(GOLDEN_DELTA_DELTA, encoding="utf-8") as fh:
        want = json.load(fh)
    _compare_structurally(got, want)


def test_golden_pole_power_derivative_report():
    """Frozen report for a pole of order 2, a derivative and an attached power."""
    job = Job(expression="(x-i0)^-2 * x^2 * d(delta)",
              phis=[{"poly": [1, 0.5], "sigma": 1.0, "mu": 0.3},
                    {"poly": [1.0], "sigma": 0.7071067811865476, "mu": 0.0}])
    got = run_job(job)
    with open(GOLDEN_POLE_POWER, encoding="utf-8") as fh:
        want = json.load(fh)
    _compare_structurally(got, want)


def test_pv_squared_continuation_pinned():
    """The continuation and cutoff difference of pv(1/x)^2, which have no closed form."""
    res = run_job(Job(expression="pv(1/x) * pv(1/x)", c_grid=[[0]]))["results"][0]
    for block in res["extensions"]:
        assert block["value"][0] == pytest.approx(-2.2000008574118066, rel=1e-12)
    assert res["omega_independence"]["difference"] == pytest.approx(1.3449068444002088,
                                                                      rel=1e-12)


class TestWorkCount:
    """Each distinct pairing of a job runs once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"limit_pairing": 0, "subtraction_order": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        lp = counting("limit_pairing", pairing.limit_pairing)
        for module in (cli, extension, pairing):
            monkeypatch.setattr(module, "limit_pairing", lp)
        monkeypatch.setattr(cli, "subtraction_order",
                            counting("subtraction_order", cli.subtraction_order))
        return counts

    def test_counterterm_rows_add_no_pairings(self, calls):
        run_job(Job(expression="delta * delta"))
        without_rows = calls["limit_pairing"]
        calls["limit_pairing"] = 0
        run_job(Job(expression="delta * delta",
                    c_grid=[[complex(k, -k)] for k in range(16)]))
        # phi, the search (base, boosted, three probes), c = 0 and omega2
        assert without_rows == 8
        assert calls["limit_pairing"] == without_rows

    def test_one_subtraction_search_per_job(self, calls):
        phis = [{"poly": [1.0], "sigma": s} for s in (0.6, 0.7, 0.8, 0.9)]
        report = run_job(Job(expression="delta * delta", phis=phis))
        assert calls["subtraction_order"] == 1
        assert calls["limit_pairing"] == 5 + 3 * len(phis)
        assert all(r["subtraction"] == {"p": 0, "needed": True}
                   for r in report["results"])

    def test_search_error_shared_by_every_phi(self, calls, monkeypatch):
        def refuse(expr, *args):
            calls["subtraction_order"] += 1
            raise NotExtendableError(f"no subtraction order tames {expr.label!r}")

        monkeypatch.setattr(cli, "subtraction_order", refuse)
        phis = [{"poly": [1.0], "sigma": s} for s in (0.6, 0.8)]
        report = run_job(Job(expression="delta * delta", phis=phis))
        assert calls["subtraction_order"] == 1
        assert [r["subtraction"] for r in report["results"]] == [
            {"error": "no subtraction order tames 'delta * delta'"}] * 2

    def test_bad_second_phi_runs_no_pairing(self, calls, tmp_path, capsys):
        # every test function is built before the first pairing
        doc = {"expression": "delta * delta", "c_grid": [[1]],
               "phi": [{"poly": [1], "sigma": 1}, {"poly": [1], "sigma": True}]}
        assert _run_job_file(tmp_path, doc) == 2
        assert "sigma" in capsys.readouterr().err
        assert calls["limit_pairing"] == 0

    @pytest.mark.parametrize("sigma", [1e-300, 1e-12])
    def test_sigma_below_smallest_height_runs_no_pairing(self, calls, tmp_path, capsys, sigma):
        # such a phi is flat at every height: delta paired to [0, 0], "converged"
        doc = {"expression": "delta", "phi": [{"poly": [1], "sigma": sigma}]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run_job_file(tmp_path, doc) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"sigma {sigma!r}" in err and "smallest height 4.8828125e-05" in err
        assert calls["limit_pairing"] == 0

    @pytest.mark.parametrize("p", [-1, 13])
    def test_out_of_range_p_runs_no_pairing(self, calls, tmp_path, capsys, p):
        doc = {"expression": "delta * delta", "p": p}
        assert _run_job_file(tmp_path, doc) == 2
        assert calls["limit_pairing"] == 0
        assert "job key 'p' must lie in [0, 12]" in capsys.readouterr().err

    def test_p_override_without_divergence_reuses_the_pairing(self, calls):
        report = run_job(Job(expression="delta", p_override=0))
        assert calls["limit_pairing"] == 1
        assert report["results"][0]["extensions"][0]["value"][0] == pytest.approx(1.0)

    def test_p_override_on_inconclusive_pairing_still_fails(self, calls):
        report = run_job(Job(expression="delta * d(delta)", p_override=1))
        res = report["results"][0]
        assert res["pairing"]["status"] == "inconclusive"
        assert "classified as inconclusive" in res["subtraction"]["error"]
        assert res["extensions"] is None
        assert calls["limit_pairing"] == 1
