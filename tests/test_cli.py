import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from distprod import cli, extension, pairing
from distprod.cli import (
    ConfigError,
    Job,
    _phi_from_descriptor,
    job_from_file,
    main,
    run_job,
)
from distprod.expression import parse_expression
from distprod.pairing import NotExtendableError, Schedule


class TestDescriptors:
    def test_basic(self):
        phi = _phi_from_descriptor({"poly": [0.0, 1.0], "sigma": 1.0})
        assert phi.taylor(1)[1] == pytest.approx(1.0)

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

    def test_blocks_add_counterterms_to_one_pairing(self):
        c_grid = [[0.5 + 0.25j], [-1.0]]
        res = run_job(Job(expression="delta * delta", c_grid=c_grid))["results"][0]
        blocks = res["extensions"]
        assert [b["c"] for b in blocks] == [[[0.0, 0.0]], [[0.5, 0.25]], [[-1.0, 0.0]]]
        for block in blocks:
            assert set(block) == {"p", "c", "omega", "value", "Tbar_phibar",
                                  "counterterm_part"}
            assert block["p"] == 0
            assert block["omega"] == {"plateau": 1.0, "support": 2.0}
            assert block["Tbar_phibar"] == blocks[0]["Tbar_phibar"]
            tbar, ct = complex(*block["Tbar_phibar"]), complex(*block["counterterm_part"])
            assert complex(*block["value"]) == tbar + ct
        # exp(-x^2)(0) = 1, so each counterterm part is its c_0
        assert [b["counterterm_part"] for b in blocks] == [[0.0, 0.0], [0.5, 0.25], [-1.0, 0.0]]

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
        res = run_job(Job(**INCONCLUSIVE, p_override=1))["results"][0]
        assert res["subtraction"]["error"] == (
            "pairing for '(x+i0)^-1 * (x+i0)^-1' classified as inconclusive; it did not "
            "diverge, so nothing was subtracted and the order p=1 plays no part")

    def test_failed_continuation_keeps_its_order(self):
        # the search finds p = 2, but the subtracted pairing on exp(-x^2)
        # reads inconclusive (ROADMAP item 8 makes it continue: move it then)
        searched = run_job(Job(expression="d(delta) * d(delta) * delta"))["results"][0]
        given = run_job(Job(**INCONCLUSIVE, p_override=1))["results"][0]
        for res, order in ((searched, {"p": 2, "needed": True}),
                           (given, {"p": 1, "needed": False})):
            assert res["extensions"] is None
            error = res["subtraction"].pop("error")
            assert res["subtraction"] == order
            assert "classified as inconclusive" in error

    def test_diverged_phi_is_subtracted_at_the_order_found(self, monkeypatch):
        # the search returns only p: a phi whose pairing diverged is
        # subtracted at that order, and its own pairing says it was needed
        want = run_job(Job(expression="delta * delta"))["results"][0]
        monkeypatch.setattr(cli, "subtraction_order", lambda *args, **kwargs: 0)
        res = run_job(Job(expression="delta * delta"))["results"][0]
        assert res["subtraction"] == {"p": 0, "needed": True}
        assert res == want and len(res["extensions"]) == 1

    @pytest.mark.parametrize("steps", [8, 12, 16])
    def test_order_does_not_depend_on_the_schedule(self, steps):
        # the order is delta^3's wherever the job's heights stop; 2, not the
        # exact 0, is ROADMAP item 8's false convergence on every schedule
        report = run_job(Job(expression="delta * delta * delta", schedule=Schedule(count=steps)))
        assert report["results"][0]["subtraction"]["p"] == 2

    def test_failing_cutoff_change_keeps_the_order(self, monkeypatch):
        # the cutoff change's pairing stalls on NaN values: its error is the
        # job's, with the order kept
        monkeypatch.setattr(extension.CutoffChange, "__call__",
                            lambda self, x: np.full(np.shape(x), np.nan))
        res = run_job(Job(expression="pv(1/x) * pv(1/x)"))["results"][0]
        assert res["subtraction"] == {"p": 0, "needed": True, "error": (
            "cutoff-change pairing for 'pv(1/x) * pv(1/x)': quadrature stalled at "
            "height 0 (y = 0.1): error nan (target nan, 8 panels)")}
        assert res["extensions"] is None and res["omega_independence"] is None
        # a product supported at the origin pairs no cutoff change
        res = run_job(Job(expression="delta * delta"))["results"][0]
        assert res["omega_independence"]["difference"] == 0.0
        # with phibar left unsubtracted its pairing diverges too, and phibar's
        # error is the one reported
        monkeypatch.setattr(extension.SubtractedFunction, "__call__",
                            lambda self, x: self.phi(x))
        res = run_job(Job(expression="pv(1/x) * pv(1/x)"))["results"][0]
        assert res["subtraction"] == {"p": 0, "needed": True, "error": (
            "subtracted pairing for 'pv(1/x) * pv(1/x)' classified as diverged; the "
            "declared order p=0 is too small, the schedule is too coarse, or the "
            "expression is outside scope")}

    def test_stalled_subtraction_is_named(self, monkeypatch):
        # a NaN phibar stalls the subtracted pairing at its first height: the
        # error names that pairing, with the order kept
        monkeypatch.setattr(extension.SubtractedFunction, "__call__",
                            lambda self, x: np.full(np.shape(x), np.nan))
        res = run_job(Job(expression="pv(1/x) * pv(1/x)"))["results"][0]
        assert res["subtraction"] == {"p": 0, "needed": True, "error": (
            "subtracted pairing for 'pv(1/x) * pv(1/x)': quadrature stalled at "
            "height 0 (y = 0.1): error nan (target nan, 6 panels)")}
        assert res["extensions"] is None and res["omega_independence"] is None

    def test_unconverged_cutoff_change_is_named(self, monkeypatch):
        # a cutoff change that kept phi near 0 would diverge against pv(1/x)^2
        monkeypatch.setattr(extension.CutoffChange, "__call__", lambda self, x: self.phi(x))
        res = run_job(Job(expression="pv(1/x) * pv(1/x)"))["results"][0]
        assert res["subtraction"] == {"p": 0, "needed": True, "error": (
            "cutoff-change pairing for 'pv(1/x) * pv(1/x)' classified as diverged; the "
            "schedule does not resolve the cutoff shift")}

    def test_ignored_counterterms_are_noted(self):
        res = run_job(Job(**INCONCLUSIVE, c_grid=[[1, 2]]))["results"][0]
        assert res["pairing"]["status"] == "inconclusive"
        assert res["extensions"] is None
        assert res["notes"] == [
            "c_grid ignored: the pairing is inconclusive, so nothing is continued"]
        plain = run_job(Job(**INCONCLUSIVE))["results"][0]
        assert "notes" not in plain

    def test_parity_zero_converges_to_zero(self):
        # delta * d(delta) is odd, so exp(-x^2) pairs to exactly 0 at every
        # height; with p given, the continuation is that 0, nothing subtracted
        res = run_job(Job(expression="delta * d(delta)", p_override=1))["results"][0]
        assert res["pairing"]["status"] == "converged"
        assert res["pairing"]["value"] == [0.0, 0.0]
        assert res["subtraction"] == {"p": 1, "needed": False}
        assert [b["value"] for b in res["extensions"]] == [[0.0, 0.0]]

    def test_deep_parity_zero_converges_to_zero(self):
        # d^101 of delta is odd: against exp(-x^2) every I(y) is exactly 0,
        # which no quadrature computes (its kernel overflows at the first
        # height, and integrating it stalled "at error nan")
        res = run_job(Job(expression="d(" * 101 + "delta" + ")" * 101))["results"][0]
        assert res["pairing"]["status"] == "converged"
        assert res["pairing"]["value"] == [0.0, 0.0]
        assert res["pairing"]["I_re"] == res["pairing"]["I_im"] == [0.0] * 12
        assert res["subtraction"] is None

    def test_narrow_sigma_above_smallest_height_converges(self):
        res = run_job(Job(expression="delta", phis=[{"poly": [1], "sigma": 0.01}]))
        pairing = res["results"][0]["pairing"]
        assert pairing["status"] == "converged"
        assert pairing["value"][0] == pytest.approx(1.0, abs=1e-6)

    def test_counterterm_arity_checked(self):
        job = Job(expression="delta * delta", c_grid=[[1.0, 2.0]])
        with pytest.raises(ConfigError):
            run_job(job)

    def test_stalling_phi_raises_in_phi_order(self):
        # phi after phi, the first phi whose pairing stalled raised its
        # error; with every phi's pairing in one batch, it still does
        expr = parse_expression("delta * delta")
        big = {"poly": [1e305], "sigma": 0.7}      # phi times the kernel overflows
        bigger = {"poly": [1e308], "sigma": 0.7}
        alone = {}
        for name, desc in (("big", big), ("bigger", bigger)):
            with pytest.raises(pairing.QuadratureError) as exc:
                pairing.limit_pairing(expr, _phi_from_descriptor(desc))
            alone[name] = str(exc.value)
        assert alone["big"] != alone["bigger"]
        for phis, first in (([cli._DEFAULT_PHI, big], "big"),
                            ([cli._DEFAULT_PHI, bigger, big], "bigger"),
                            ([big, bigger], "big")):
            with pytest.raises(pairing.QuadratureError) as exc:
                run_job(Job(expression="delta * delta", phis=phis))
            assert str(exc.value) == alone[first]


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

    def test_overflowing_counterterm_row_exit_two(self, capsys):
        # each entry is finite, but c_2 * phi''(0) overflows: the report would
        # hold -Infinity, which is not JSON
        code = main(["--expr", "d(delta) * d(delta)", "--c", "0", "--c", "0", "--c", "1e308"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("distprod: error: counterterm vector [0j, 0j, (1e+308+0j)] "
                               "gives the non-finite value (-inf+0j)")

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

    @pytest.mark.parametrize("via", ["flags", "job_file"])
    def test_too_short_schedule_exit_two(self, tmp_path, capsys, via):
        # five heights read delta * delta as p = 4 (six and more: p = 0)
        if via == "flags":
            code = main(["--expr", "delta * delta", "--steps", "5"])
        else:
            code = _run_job_file(tmp_path, {"expression": "delta * delta", "steps": 5})
        assert code == 2
        assert "count must be >= 6, got 5" in capsys.readouterr().err

    def test_underflowing_schedule_exit_two(self, capsys):
        # the check schedule's smallest height underflows: refused with one
        # error line naming the count, before any height is built
        code = main(["--expr", "delta", "--steps", "700"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("distprod: error: count 700 ") and err.count("\n") == 1

    def test_x_to_the_zero_is_one(self, capsys):
        code = main(["--expr", "x^0"])
        assert code == 0
        res = json.loads(capsys.readouterr().out)
        assert res["normalized"] == "1"
        assert res["results"][0]["pairing"]["value"][0] == pytest.approx(math.sqrt(math.pi))

    def test_parse_error_exit_two(self, capsys):
        code = main(["--expr", "delta @ delta"])
        assert code == 2
        assert "byte offset" in capsys.readouterr().err

    def test_oversized_integer_exit_two(self, capsys):
        # one error line at the parameter's token, not int()'s own message
        code = main(["--expr", "delta * x^" + "7" * 5000])
        assert code == 2
        assert capsys.readouterr().err == (
            "distprod: error: integer parameter of 5000 digits is too large (byte offset 8)\n")

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

    def test_unhalvable_cutoff_names_the_jobs_cutoff(self, capsys):
        # the cutoff check halves the cutoff: a plateau of 5e-324 halves to 0,
        # and the one error line names the cutoff the job gave
        code = main(["--expr", "delta * delta", "--plateau", "5e-324", "--support", "1e-323"])
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("distprod: error: the cutoff check halves the cutoff "
                               "plateau=5e-324, support=1e-323: ")

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

    def test_deep_nesting_exit_two(self, capsys):
        # the 171st derivative's coefficient overflows: the parser names the
        # 'd(' that takes it, before any pairing
        code = main(["--expr", "d(" * 1200 + "delta" + ")" * 1200])
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == "distprod: error: derivative coefficient is not finite (byte offset 2058)"

    def test_overflowing_derivative_exit_two(self, capsys):
        # the coefficient of d^172 of delta is (nan+infj); it used to reach the
        # quadrature, which stalled "at error nan"
        code = main(["--expr", "d(" * 172 + "delta" + ")" * 172])
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == "distprod: error: derivative coefficient is not finite (byte offset 2)"

    def test_parity_zero_prints_exact_zeros(self, capsys):
        # d^15 of delta is odd: against exp(-x^2) every printed I(y) is 0,
        # not the quadrature's rounding noise, which reached 6.1e54
        code = main(["--expr", "d(" * 15 + "delta" + ")" * 15])
        assert code == 0
        [res] = json.loads(capsys.readouterr().out)["results"]
        assert res["pairing"]["status"] == "converged"
        assert res["pairing"]["I_re"] == [0.0] * 12

    def test_same_side_pole_of_order_three_converges(self, capsys):
        # (x-i0)^-3 against exp(-x^2) is -i pi; it read inconclusive while
        # the quadrature integrated its 1/y^3 spike on the real axis
        code = main(["--expr", "(x-i0)^-3"])
        assert code == 0
        [res] = json.loads(capsys.readouterr().out)["results"]
        assert res["pairing"]["status"] == "converged"
        re, im = res["pairing"]["value"]
        assert abs(re) <= 1e-12 and abs(im + math.pi) <= 1e-12

    def test_stalled_pairing_exit_two(self):
        # the kernel overflows (0.1^-400 is inf), so every panel is NaN; the
        # error line is all there is, with no numpy warning about the NaN
        done = _python("-m", "distprod.cli", "--expr", "(x+i0)^-400")
        assert done.returncode == 2, done.stderr
        [line] = done.stderr.splitlines()
        assert line.startswith("distprod: error: quadrature stalled")

    @pytest.mark.parametrize("flags", [
        ["--ratio", "0.8", "--steps", "6"],
        ["--y0", "30", "--steps", "6", "--phi", '{"poly": [1], "sigma": 2}'],
        ["--y0", "96", "--steps", "6", "--phi", '{"poly": [1], "sigma": 5}'],
    ])
    def test_coarse_schedule_keeps_the_order(self, capsys, flags):
        # the search runs on the default schedule, so a schedule that cannot
        # resolve its reference functions (sigma 1 below 3.0 at y0 96) or
        # settle them (ratio 0.8, y0 30) still reports delta^2's order 0;
        # the job's own continuation is what these schedules cannot settle
        code = main(["--expr", "delta * delta", *flags])
        assert code == 0
        [res] = json.loads(capsys.readouterr().out)["results"]
        assert res["pairing"]["status"] == "diverged"
        assert {k: res["subtraction"][k] for k in ("p", "needed")} == {"p": 0, "needed": True}
        assert "p=0 is too small, the schedule is too coarse" in res["subtraction"]["error"]
        # a fixed p runs no search: the job reports the same order
        code = main(["--expr", "delta * delta", "--p", "0", *flags])
        assert code == 0
        [fixed] = json.loads(capsys.readouterr().out)["results"]
        assert fixed == res

    def test_huge_pole_order_stalls_quickly(self):
        # z^(10^10) is 43 array products by repeated squaring, not 10^10 - 1:
        # the kernel overflows and the first height stalls
        done = _python("-m", "distprod.cli", "--expr", "(x+i0)^-10000000000", timeout=30)
        assert done.returncode == 2, done.stderr
        [line] = done.stderr.splitlines()
        assert line.startswith("distprod: error: quadrature stalled at height 0")


# Six heights at ratio 0.8 reach only y = 0.033, where this pairing neither
# settles nor fits a power law: a genuinely inconclusive classification.
INCONCLUSIVE = {"expression": "(x+i0)^-1 * (x+i0)^-1",
                "schedule": Schedule(count=6, ratio=0.8)}


def _python(*args, timeout=300):
    """A fresh interpreter run with args, importing distprod from src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=timeout)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "delta_pv_report.json")
GOLDEN_DELTA_DELTA = os.path.join(os.path.dirname(__file__), "golden",
                                  "delta_delta_report.json")
GOLDEN_POLE_POWER = os.path.join(os.path.dirname(__file__), "golden",
                                 "pole_power_derivative_report.json")
GOLDEN_D_DELTA_SQUARED = os.path.join(os.path.dirname(__file__), "golden",
                                      "d_delta_squared_report.json")
GOLDEN_MIXED_STATUS = os.path.join(os.path.dirname(__file__), "golden",
                                   "mixed_status_report.json")


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


def test_golden_d_delta_squared_report():
    """Frozen continuation of d(delta)^2: p = 2, value 0 and a second-order counterterm."""
    got = run_job(Job(expression="d(delta) * d(delta)", c_grid=[[0, 0, 1]]))
    with open(GOLDEN_D_DELTA_SQUARED, encoding="utf-8") as fh:
        want = json.load(fh)
    _compare_structurally(got, want)


def test_golden_mixed_status_report():
    """Frozen report whose phi differ: with p = 1 fixed, exp(-x^2) converges and
    its blocks come from the pairing, while tilted diverges and is continued."""
    job = Job(expression="delta * d(delta)",
              phis=[{"poly": [1.0], "sigma": 0.7071067811865476, "mu": 0.0},
                    {"poly": [1, 1, 0.25], "sigma": 1}],
              p_override=1, c_grid=[[1, 1]])
    got = run_job(job)
    with open(GOLDEN_MIXED_STATUS, encoding="utf-8") as fh:
        want = json.load(fh)
    assert [r["subtraction"] for r in want["results"]] == [{"p": 1, "needed": False},
                                                           {"p": 1, "needed": True}]
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
        # "limit_pairing" counts pairings: one per phi of a limit_pairings
        # batch (limit_pairing is the one-phi batch); "quadrature" counts
        # lockstep quadratures
        counts = {"limit_pairing": 0, "subtraction_order": 0, "quadrature": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        batch = pairing.limit_pairings

        def counting_pairs(expr, phis, *args, **kwargs):
            phis = list(phis)
            counts["limit_pairing"] += len(phis)
            return batch(expr, phis, *args, **kwargs)

        for module in (cli, extension, pairing):
            monkeypatch.setattr(module, "limit_pairings", counting_pairs)
        monkeypatch.setattr(cli, "subtraction_order",
                            counting("subtraction_order", cli.subtraction_order))
        monkeypatch.setattr(pairing, "_adaptive_quadrature",
                            counting("quadrature", pairing._adaptive_quadrature))
        return counts

    def test_counterterm_rows_add_no_pairings(self, calls):
        run_job(Job(expression="delta * delta"))
        without_rows = calls["limit_pairing"]
        calls["limit_pairing"] = 0
        run_job(Job(expression="delta * delta",
                    c_grid=[[complex(k, -k)] for k in range(16)]))
        # phi, the search (its order-0 check against x * offset, three
        # probes) and c = 0; delta is supported at the origin, so the cutoff
        # shift is 0 and pairs nothing
        assert without_rows == 6
        assert calls["limit_pairing"] == without_rows

    @pytest.mark.parametrize("n_phi", [1, 4])
    def test_job_stages_share_quadratures(self, calls, n_phi):
        # every phi's pairing in one quadrature, the whole search (order-0
        # check, three probes) in one, every phi's (Tbar, phibar) in
        # one (delta * delta is supported at the origin: no cutoff change is
        # paired): the subtracted pairings and the search's vanishing
        # functions are proved convergent, so their check schedules run in
        # the same quadrature as their main ones.  3 quadratures whatever the
        # number of phi
        phis = [{"poly": [1.0], "sigma": s} for s in (0.6, 0.7, 0.8, 0.9)[:n_phi]]
        run_job(Job(expression="delta * delta", phis=phis))
        assert calls["limit_pairing"] == 4 + 2 * n_phi
        assert calls["quadrature"] == 3

    def test_search_up_to_the_bound_is_one_batch(self, calls):
        # sd = 4 bounds the order by 2: the checks of orders 0, 1 and 2 and
        # the order-2 probes share one batch, and the search finds
        # 2; the order-2 pairings' check schedules share that quadrature too.
        # Besides it, phi's pairing and (Tbar, phibar), and no cutoff change:
        # d(delta) is supported at the origin
        report = run_job(Job(expression="d(delta) * d(delta)"))
        assert report["results"][0]["subtraction"] == {"p": 2, "needed": True}
        assert calls["limit_pairing"] == 1 + 6 + 1
        assert calls["quadrature"] == 3

    def test_overflowing_counterterm_row_runs_no_continuation(self, calls, monkeypatch,
                                                               capsys):
        # the row's sum depends on the row and phi alone: it is refused once
        # the order is fixed, before any (Tbar, phibar) is built or paired
        built = []
        monkeypatch.setattr(cli, "evaluate_extensions",
                            lambda *args, **kwargs: built.append(args) or [])
        monkeypatch.setattr(extension, "SubtractedFunction",
                            lambda *args: built.append(args))
        code = main(["--expr", "d(delta) * d(delta)", "--c", "0", "--c", "0", "--c", "1e308"])
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("distprod: error: counterterm vector [0j, 0j, (1e+308+0j)] "
                               "gives the non-finite value (-inf")
        assert built == []
        # the pairing and the search, nothing more
        assert calls["quadrature"] == 1 + 1

    def test_one_subtraction_search_per_job(self, calls):
        phis = [{"poly": [1.0], "sigma": s} for s in (0.6, 0.7, 0.8, 0.9)]
        report = run_job(Job(expression="delta * delta", phis=phis))
        assert calls["subtraction_order"] == 1
        assert calls["limit_pairing"] == 4 + 2 * len(phis)
        assert all(r["subtraction"] == {"p": 0, "needed": True}
                   for r in report["results"])

    def test_search_error_shared_by_every_phi(self, calls, monkeypatch):
        def refuse(expr, *args, **kwargs):
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

    @pytest.mark.parametrize("sigma", [1e-150, 1e-12])
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
        # limit_pairings refuses the batch before its first quadrature
        assert calls["quadrature"] == 0

    @pytest.mark.parametrize("sigma", [1e-300, 1e160])
    def test_sigma_without_a_normal_square_runs_no_pairing(self, calls, tmp_path, capsys,
                                                           sigma):
        # sigma^2 underflows to 0 or overflows: one error line, no traceback
        doc = {"expression": "delta * delta", "phi": [{"poly": [1], "sigma": sigma}]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run_job_file(tmp_path, doc) == 2
        assert caught == []
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"distprod: error: sigma {sigma!r} has no finite, normal square"
        assert calls["limit_pairing"] == 0

    def test_wrong_width_row_with_fixed_p_runs_no_pairing(self, calls, tmp_path, capsys):
        doc = {"expression": "delta * delta", "p": 0, "c_grid": [[1, 2]]}
        assert _run_job_file(tmp_path, doc) == 2
        assert "has 2 entries, need 1" in capsys.readouterr().err
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
        report = run_job(Job(**INCONCLUSIVE, p_override=1))
        res = report["results"][0]
        assert res["pairing"]["status"] == "inconclusive"
        assert "classified as inconclusive" in res["subtraction"]["error"]
        assert res["extensions"] is None
        assert calls["limit_pairing"] == 1
