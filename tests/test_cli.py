import json
import math
import subprocess
import sys

import numpy as np
import pytest

import divergence_lab
from divergence_lab import cli, scenarios
from divergence_lab.divergences import DivergenceSpec, ScalarFunction


def run_cli(*argv):
    return cli.main(list(argv))


def run_cli_capture(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# every command that reads or writes a path the user names; DIR stands for a
# directory, which no command can read or write as a file
UNREADABLE_PATHS = {
    "eval": ("eval", "--divergence", "DIR", "--p", ".5,.5", "--q", ".5,.5"),
    "config": ("--config", "DIR", "--show-config"),
    "verify": ("verify", "q2-example-fidelity", "--out", "DIR"),
    "check": ("check", "dpi", "--grid", "3", "--trials", "10", "--out", "DIR"),
    "generate": ("generate", "--h", "table:DIR", "--out", "DIR/family.csv"),
}


@pytest.mark.parametrize("command", UNREADABLE_PATHS)
def test_unreadable_path_exits_one(capsys, tmp_path, command):
    argv = [a.replace("DIR", str(tmp_path)) for a in UNREADABLE_PATHS[command]]
    code, _, err = run_cli_capture(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("doc, why", [
    ([1, 2], "must be a JSON object"),
    ({"family": "kl_type", "h": 5}, "'h' must be a string"),
    # a user who asked for square(kl) got kl while the outer field was dropped
    ({"name": "kl", "outer": "square"}, "must have family 'composed'")])
def test_malformed_spec_document_exits_one(capsys, tmp_path, doc, why):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli_capture(capsys, "eval", "--divergence", str(path),
                                     "--p", ".5,.5", "--q", ".5,.5")
    assert code == 1
    assert out == "" and err.startswith("error:") and why in err


class TestEval:
    def test_kl_value(self, capsys):
        code, out, _ = run_cli_capture(capsys, "eval", "--divergence", "kl",
                                       "--p", "0.5,0.5", "--q", "0.25,0.75")
        assert code == 0
        want = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert float(out.strip()) == pytest.approx(want, abs=1e-12)

    def test_bad_distribution(self, capsys):
        code, _, err = run_cli_capture(capsys, "eval", "--divergence", "kl",
                                       "--p", "0.5,0.6", "--q", "0.25,0.75")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("name, p", [("kl", "nan,1"), ("tv", "nan,nan"),
                                         ("kl", ".5,nan")])
    def test_nan_entry_exits_one(self, capsys, name, p):
        # every comparison with NaN is False, so the sum check alone passes it
        code, out, err = run_cli_capture(capsys, "eval", "--divergence", name,
                                         "--p", p, "--q", ".5,.5")
        assert code == 1
        assert out == "" and "non-finite entry nan" in err

    def test_alphabet_sizes_differ(self, capsys):
        code, out, err = run_cli_capture(capsys, "eval", "--divergence", "kl",
                                         "--p", "0.5,0.5", "--q", "0.2,0.3,0.5")
        assert code == 1
        assert out == "" and "differ in size" in err

    def test_unknown_divergence(self, capsys):
        code, _, err = run_cli_capture(capsys, "eval", "--divergence", "nope",
                                       "--p", "0.5,0.5", "--q", "0.5,0.5")
        assert code == 1

    def test_kl_type_spec_document(self, capsys, tmp_path):
        doc = tmp_path / "spec.json"
        doc.write_text(json.dumps({"family": "kl_type", "h": "name:square"}))
        code, out, _ = run_cli_capture(capsys, "eval", "--divergence", str(doc),
                                       "--p", "0.3,0.7", "--q", "0.5,0.5")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.5 * 0.2 ** 2, abs=1e-8)


class TestCheck:
    def test_dpi_pass_exit_zero(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code, out, _ = run_cli_capture(
            capsys, "check", "dpi", "--divergence", "kl", "--n", "2",
            "--grid", "10", "--trials", "1000", "--seed", "42",
            "--out", str(out_path))
        assert code == 0
        assert "no_violation_found" in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "divergence-lab/1"
        assert doc["verdict"] == "no_violation_found"
        assert doc["config"]["seed"] == 42

    def test_dpi_violation_exit_three(self, capsys):
        code, out, _ = run_cli_capture(
            capsys, "check", "dpi", "--divergence", "euclidean", "--n", "3",
            "--trials", "20000", "--seed", "42")
        assert code == 3
        assert "violation" in out and "witness" in out

    def test_sufficiency(self, capsys):
        code, out, _ = run_cli_capture(
            capsys, "check", "sufficiency", "--divergence", "euclidean",
            "--n", "3", "--trials", "2000", "--seed", "42")
        assert code == 3

    def test_decomposable(self, capsys):
        code, out, _ = run_cli_capture(
            capsys, "check", "decomposable", "--divergence", "tv_squared",
            "--grid", "50")
        assert code == 0

    @pytest.mark.parametrize("n", ["3", "1"])
    def test_decomposable_rejects_a_non_binary_alphabet(self, capsys, n):
        code, out, err = run_cli_capture(
            capsys, "check", "decomposable", "--divergence", "kl", "--n", n,
            "--grid", "5")
        assert code == 1
        assert out == "" and err.startswith("error:") and "binary" in err
        assert "Traceback" not in err

    def test_decomposable_rejects_a_non_binary_config(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 3}))
        code, out, err = run_cli_capture(
            capsys, "--config", str(path), "check", "decomposable",
            "--divergence", "kl", "--grid", "5")
        assert code == 1
        assert out == "" and err.startswith("error:") and "binary" in err

    def test_decomposable_binary_n_keeps_its_output(self, capsys):
        argv = ("check", "decomposable", "--divergence", "kl", "--grid", "5")
        assert run_cli_capture(capsys, *argv, "--n", "2") \
            == run_cli_capture(capsys, *argv)

    def test_shannon_requires_f(self, capsys):
        code, _, err = run_cli_capture(capsys, "check", "shannon", "--n", "3")
        assert code == 1

    def test_shannon_quadratic_violation(self, capsys):
        code, out, _ = run_cli_capture(
            capsys, "check", "shannon", "--f", "poly:0,-1,0.5", "--n", "3",
            "--trials", "30000", "--seed", "42")
        assert code == 3

    def test_shannon_clog_passes(self, capsys):
        code, out, _ = run_cli_capture(
            capsys, "check", "shannon", "--f", "clog:-1,0.2", "--n", "3",
            "--trials", "30000", "--seed", "42")
        assert code == 0

    def test_empty_search_exit_one(self, capsys):
        code, out, err = run_cli_capture(
            capsys, "check", "dpi", "--divergence", "kl", "--n", "2",
            "--grid", "0", "--trials", "0")
        assert code == 1
        assert out == "" and err.startswith("error: dpi: nothing to search")

    @pytest.mark.parametrize("argv", [
        ("dpi", "--n", "1"), ("dpi", "--n", "0"), ("dpi", "--n", "-1"),
        ("sufficiency", "--n", "1"),
        ("shannon", "--f", "clog:-1,0", "--n", "0"),
        ("shannon", "--f", "clog:-1,0", "--n", "1")])
    def test_alphabet_below_two_exit_one(self, capsys, argv):
        code, out, err = run_cli_capture(capsys, "check", *argv, "--trials", "100")
        assert code == 1
        assert out == "" and "at least 2 symbols" in err

    @pytest.mark.parametrize("text", ["clog:1", "clog:a,b", "poly:", "clog:1,2,3",
                                      "sin:1"])
    def test_malformed_scalar_f_is_named(self, capsys, text):
        code, out, err = run_cli_capture(capsys, "check", "shannon", "--f", text,
                                         "--n", "3", "--trials", "100")
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot parse scalar function {text!r}")

    # each flag was dropped: the check printed the report it prints without it
    @pytest.mark.parametrize("argv, flags", [
        (("sufficiency", "--n", "3", "--grid", "7", "--trials", "1000"), "--grid"),
        (("shannon", "--f", "clog:-1,0.2", "--n", "3", "--grid", "7"), "--grid"),
        (("dpi", "--n", "3", "--grid", "7", "--trials", "100"), "--grid"),
        (("decomposable", "--trials", "5", "--seed", "3", "--grid", "20"),
         "--trials, --seed"),
        (("shannon", "--f", "clog:-1,0.2", "--n", "3", "--divergence", "tv"),
         "--divergence"),
        (("dpi", "--grid", "3", "--trials", "10", "--f", "clog:-1,0.2"), "--f"),
        (("sufficiency", "--trials", "100", "--f", "clog:-1,0.2"), "--f"),
        (("decomposable", "--grid", "5", "--f", "clog:-1,0.2"), "--f")],
        ids=["sufficiency-grid", "shannon-grid", "dpi-n3-grid",
             "decomposable-trials-seed", "shannon-divergence", "dpi-f", "sufficiency-f",
             "decomposable-f"])
    def test_flag_the_property_never_reads_exits_one(self, capsys, argv, flags):
        code, out, err = run_cli_capture(capsys, "check", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: check ") and err.endswith(
            f"does not read {flags}\n")

    def test_config_values_a_property_never_reads_stay_accepted(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"grid": 7, "trials": 100, "divergence": "tv"}))
        code, out, _ = run_cli_capture(capsys, "--config", str(path), "check",
                                       "shannon", "--f", "clog:-1,0.2", "--n", "3")
        assert code == 0 and out.startswith("shannon_inequality: no_violation_found")

    def test_inconclusive_exit_one(self, capsys):
        # a NaN coefficient makes every evaluation fail
        code, out, _ = run_cli_capture(
            capsys, "check", "shannon", "--f", "clog:nan,0", "--n", "3",
            "--trials", "1000", "--seed", "42")
        assert code == 1
        assert "inconclusive" in out


class TestGenerateAndFit:
    def test_generate_csv(self, capsys, tmp_path):
        out = tmp_path / "fam.csv"
        code, _, _ = run_cli_capture(capsys, "generate", "--h", "name:square",
                                     "--out", str(out), "--points", "64")
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (64, 3)

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_generate_needs_a_point(self, capsys, tmp_path, points):
        out = tmp_path / "fam.csv"
        code, _, err = run_cli_capture(capsys, "generate", "--h", "name:square",
                                       "--out", str(out), "--points", points)
        assert code == 1
        assert f"at least 1 point, got {points}" in err
        assert not out.exists()

    def test_generate_invalid_h_rejected(self, capsys, tmp_path):
        code, _, err = run_cli_capture(
            capsys, "generate", "--h", "name:decreasing",
            "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_generate_invalid_h_with_override(self, capsys, tmp_path):
        code, _, _ = run_cli_capture(
            capsys, "generate", "--h", "name:decreasing", "--allow-invalid",
            "--out", str(tmp_path / "x.csv"))
        assert code == 0

    def test_generate_nan_h_names_it(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, err = run_cli_capture(capsys, "generate", "--h", "poly:nan",
                                       "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and "poly:nan" in err and "not finite" in err
        assert not out.exists()

    def test_fit_summary_output(self, capsys, tmp_path):
        csv_out = tmp_path / "fit.csv"
        sum_out = tmp_path / "fit.json"
        code, out, _ = run_cli_capture(
            capsys, "fit", "fdiv", "--divergence", "tv", "--pairs", "400",
            "--knots", "101", "--seed", "0", "--out", str(csv_out),
            "--summary-out", str(sum_out))
        assert code == 0
        doc = json.loads(sum_out.read_text())
        assert set(doc) >= {"residual", "passed", "threshold"}
        assert json.loads(out.strip())["residual"] == doc["residual"]

    @pytest.mark.parametrize("argv", [
        ("fdiv", "--pairs", "0"), ("fdiv", "--pairs", "-5"),
        ("fdiv", "--knots", "2"), ("fdiv", "--knots", "0"),
        ("bregman", "--knots", "2")])
    def test_degenerate_fit_sizes_exit_one(self, capsys, argv):
        code, out, err = run_cli_capture(capsys, "fit", *argv)
        assert code == 1
        assert out == "" and "at least 1 sample pair and 3 knots" in err

    @pytest.mark.parametrize("kind", ["fdiv", "bregman"])
    def test_fit_on_pairs_that_constrain_no_slope_exits_one(self, capsys, kind):
        code, out, err = run_cli_capture(capsys, "fit", kind, "--divergence", "kl",
                                         "--pairs", "1")
        assert code == 1
        assert out == "" and err.startswith("error: ") and "constrain no slope" in err

    @pytest.mark.parametrize("kind", ["fdiv", "bregman"])
    def test_fit_of_a_target_that_is_not_finite_exits_one(self, capsys, monkeypatch,
                                                          kind):
        # (x - 1)^2 with NaN above 15 is NaN at some fit pairs; such a fit ran
        # every iteration on NaN and printed a NaN residual with exit 0
        f = ScalarFunction(lambda x: np.where(np.asarray(x) > 15, np.nan,
                                              (np.asarray(x) - 1.0) ** 2),
                           perspective_limit=np.inf)
        nan = DivergenceSpec("f_divergence", "nan_above_15", f=f, validate=False)
        monkeypatch.setattr(cli, "resolve", lambda text: nan)
        code, out, err = run_cli_capture(capsys, "fit", kind, "--pairs", "400",
                                         "--knots", "101")
        assert code == 1
        assert out == "" and "nan_above_15 is not finite at" in err


class TestConfig:
    def test_show_config(self, capsys):
        code, out, _ = run_cli_capture(capsys, "--show-config")
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 42
        assert doc["grid"] == 50

    def test_divergence_defaults_to_kl(self, capsys):
        code, out, _ = run_cli_capture(capsys, "eval", "--p", "0.5,0.5",
                                       "--q", "0.3,0.7")
        assert code == 0
        want = 0.5 * math.log(0.5 / 0.3) + 0.5 * math.log(0.5 / 0.7)
        assert float(out.strip()) == pytest.approx(want, abs=1e-12)
        assert run_cli("check", "dpi", "--n", "2", "--grid", "10",
                       "--trials", "100") == 0
        assert run_cli("fit", "fdiv", "--pairs", "200", "--knots", "51") == 0

    def test_config_file_overrides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7}))
        code, out, _ = run_cli_capture(capsys, "--config", str(cfg),
                                       "--show-config")
        assert json.loads(out)["seed"] == 7

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 5, "trials": 100}))
        out_path = tmp_path / "rep.json"
        code, _, _ = run_cli_capture(
            capsys, "--config", str(cfg), "check", "dpi", "--divergence", "kl",
            "--grid", "8", "--seed", "1", "--out", str(out_path))
        doc = json.loads(out_path.read_text())
        assert doc["config"]["grid"] == 8
        assert doc["config"]["random_trials"] == 100

    @pytest.mark.parametrize("doc, why", [
        ([1, 2], "expected a JSON object"),
        ("seed", "expected a JSON object"),
        ({"sead": 3}, "unknown key 'sead'"),
        ({"seed": "abc"}, "'seed' must be int"),
        ({"seed": True}, "'seed' must be int"),
        ({"trials": 1.5}, "'trials' must be int"),
        ({"divergence": 3}, "'divergence' must be str")])
    @pytest.mark.parametrize("argv", [("--show-config",),
                                      ("check", "dpi", "--grid", "3", "--trials", "10")])
    def test_bad_config_exit_one(self, capsys, tmp_path, doc, why, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli_capture(capsys, "--config", str(cfg), *argv)
        assert code == 1
        assert out == "" and err.startswith("error: config ") and why in err

    @pytest.mark.parametrize("argv", [("verify", "q2-example-fidelity"),
                                      ("verify", "q2-example-fidelity", "--out", "r")])
    def test_config_format_outside_the_flag_choices_exit_one(self, capsys, tmp_path,
                                                             monkeypatch, argv):
        # the flag's choices bind the config file too, before any scenario runs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.scenarios, "run_scenario",
                            lambda *a: pytest.fail("a scenario ran"))
        code, out, err = run_cli_capture(capsys, "--config", str(cfg), *argv)
        assert code == 1
        assert out == "" and err.startswith("error: config ")
        assert "'format' must be one of json, markdown" in err
        assert not (tmp_path / "r").exists()

    def test_usage_error_exit_one(self, capsys):
        # malformed usage exits with code 1, not argparse's default 2
        with pytest.raises(SystemExit) as exc:
            run_cli("check")
        assert exc.value.code == 1


class TestVerify:
    def test_unknown_scenario(self, capsys):
        code, _, err = run_cli_capture(capsys, "verify", "bogus", "--seed", "1")
        assert code == 1
        assert "unknown scenario" in err

    def test_list(self, capsys):
        code, out, _ = run_cli_capture(capsys, "verify", "all", "--list")
        assert code == 0
        for sid in scenarios.SCENARIOS:
            assert sid in out

    def test_list_needs_no_target(self, capsys):
        code, out, _ = run_cli_capture(capsys, "verify", "--list")
        assert code == 0
        assert out.splitlines() == [f"{sid}: {claim}" for sid, (claim, _)
                                    in scenarios.SCENARIOS.items()]

    def test_verify_without_target_or_list_exit_one(self, capsys):
        code, out, err = run_cli_capture(capsys, "verify", "--seed", "1")
        assert code == 1 and out == ""
        assert err == "error: verify needs a target: 'all' or a scenario id, or --list\n"

    def test_single_scenario_report(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code, out, _ = run_cli_capture(
            capsys, "verify", "q2-example-fidelity", "--seed", "42",
            "--format", "json", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "divergence-lab/1"
        assert doc["scenarios"][0]["id"] == "q2-example-fidelity"
        assert doc["scenarios"][0]["status"] == "pass"
        # runtime is deliberately not part of the JSON report
        assert "runtime" not in json.dumps(doc)

    def test_markdown_report(self, capsys, tmp_path):
        out_path = tmp_path / "rep.md"
        code, _, _ = run_cli_capture(
            capsys, "verify", "q2-example-fidelity", "--seed", "42",
            "--format", "markdown", "--out", str(out_path))
        text = out_path.read_text()
        assert "| scenario | status |" in text
        assert "q2-example-fidelity" in text

    def test_markdown_report_without_out_is_printed(self, capsys):
        code, out, _ = run_cli_capture(
            capsys, "verify", "q2-example-fidelity", "--seed", "42",
            "--format", "markdown")
        assert code == 0
        assert "# divergence-lab verification report" in out
        assert "| q2-example-fidelity | pass |" in out
        assert "## q2-example-fidelity" in out


def test_console_entry_point_exists():
    proc = subprocess.run([sys.executable, "-m", "divergence_lab.cli",
                           "--show-config"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] == 42


def test_exports_resolve_once():
    names = divergence_lab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(divergence_lab, n)] == []


class TestReportHelpers:
    def test_json_safe_handles_nonfinite(self):
        doc = scenarios._json_safe({"a": float("inf"), "b": float("nan"),
                                    "c": [1.0, float("-inf")]})
        assert doc == {"a": "inf", "b": "nan", "c": [1.0, "-inf"]}
        json.dumps(doc)

    def test_emit_report_roundtrip(self, tmp_path):
        r = scenarios.ScenarioResult("demo", "claim", "pass", {"x": 1.5}, 0.1)
        path = tmp_path / "r.json"
        scenarios.emit_report([r], path, fmt="json", seed=3)
        doc = json.loads(path.read_text())
        assert doc["seed"] == 3
        assert doc["all_pass"] is True
        assert doc["scenarios"][0]["details"] == {"x": 1.5}

    def test_emit_report_empty_list(self, tmp_path):
        path = tmp_path / "empty.json"
        scenarios.emit_report([], path, fmt="json", seed=1)
        doc = json.loads(path.read_text())
        assert doc["scenarios"] == []
        assert doc["all_pass"] is True

    def test_unknown_format(self, tmp_path):
        r = scenarios.ScenarioResult("demo", "claim", "pass", {}, 0.0)
        with pytest.raises(ValueError):
            scenarios.emit_report([r], tmp_path / "x", fmt="yaml")
