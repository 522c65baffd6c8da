import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from distprod import cli, extension, pairing
from distprod.cli import (
    ConfigError,
    Job,
    ParseError,
    _phi_from_descriptor,
    job_from_file,
    main,
    parse_expression,
    run_job,
)
from distprod.pairing import NotExtendableError, Schedule


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
