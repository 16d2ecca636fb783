import json
import math

import pytest

from adiasearch import analytics, cli, schedules
from adiasearch.analytics import local_loss_exact
from adiasearch.cli import RunConfig, main
from adiasearch.errors import InvalidParameter
from adiasearch.model import SearchInstance
from adiasearch.schedules import Strategy

from conftest import EPS_REF

EPS_STR = repr(EPS_REF)


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRunConfig:
    def test_bad_strategy_rejected(self):
        with pytest.raises(InvalidParameter):
            RunConfig(strategy="diabatic", n=8)

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidParameter):
            RunConfig(strategy="parallel", n=8, T=1.0, shape="spline")

    @pytest.mark.parametrize("kwargs", [
        dict(strategy="local", n=20, epsilon=0.1, T=5.0),
        dict(strategy="local", n=20),
        dict(strategy="local", n=20, epsilon=0.1, r=8.0),
        dict(strategy="local", n=20, epsilon=0.1, shape="tanh"),
        dict(strategy="local", n=20, epsilon=0.1, beta=1.0),
        dict(strategy="parallel", n=20, T=1.0, alpha=1.0),
        dict(strategy="parallel", n=20, T=1.0, epsilon=0.1),
        dict(strategy="parallel", n=20),
        dict(strategy="linear", n=20),
        dict(strategy="linear", n=1, T=5.0),
        dict(strategy="linear", n=20, T=5.0, steps=10),
        dict(strategy="linear", n=20, T=5.0, alpha=0.0),
        dict(strategy="local", n=20, epsilon=0.1, alpha=0.0),
        dict(strategy="parallel", n=20, T=1.0, beta=0.0),
        dict(strategy="linear", n=20, T=5.0, epsilon=0.1),
    ])
    def test_build_rejections(self, kwargs):
        with pytest.raises(InvalidParameter):
            RunConfig(**kwargs).build()

    @pytest.mark.parametrize("strategy, required, field", [
        ("linear", {"T": 5.0}, "beta"),
        ("linear", {"T": 5.0}, "epsilon"),
        ("linear", {"T": 5.0}, "r"),
        ("linear", {"T": 5.0}, "shape"),
        ("local", {"epsilon": 0.1}, "beta"),
        ("local", {"epsilon": 0.1}, "T"),
        ("local", {"epsilon": 0.1}, "r"),
        ("local", {"epsilon": 0.1}, "shape"),
        ("parallel", {"T": 1.0}, "alpha"),
        ("parallel", {"T": 1.0}, "epsilon"),
    ])
    def test_input_the_strategy_does_not_take(self, strategy, required, field):
        value = "tanh" if field == "shape" else 1.0
        config = RunConfig(strategy=strategy, n=20, **required, **{field: value})
        with pytest.raises(InvalidParameter) as info:
            config.build()
        assert str(info.value) == f"--{field} does not apply to the {strategy} strategy"

    def test_build_defaults(self):
        inst, sched = RunConfig(strategy="parallel", n=20, T=2.0).build()
        assert inst == SearchInstance(20)
        assert sched.kind is Strategy.PARALLEL
        assert sched.alpha_or_beta == 1.0
        assert sched.r == 8.0
        assert sched.shape.value == "tanh"


class TestRunCommand:
    def test_files_and_stdout(self, tmp_path, capsys):
        out = tmp_path / "run1"
        code, stdout, _ = run_main(
            ["run", "--strategy", "local", "--n", "20",
             "--epsilon", EPS_STR, "--steps", "5000",
             "--output", str(out)], capsys)
        assert code == 0
        blob = json.loads((out / "result.json").read_text())
        assert sorted(blob) == ["analytic_loss", "boundary_residual", "cost",
                                "p_loss", "p_m_final", "t_eff"]
        assert json.loads(stdout) == blob
        assert blob["cost"] == pytest.approx(2 * math.sqrt(19) / EPS_REF, rel=1e-12)
        assert blob["p_loss"] == pytest.approx(blob["analytic_loss"], abs=1e-4)
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("t,a,b,lambda_plus")

    def test_byte_determinism(self, tmp_path, capsys):
        argv = ["run", "--strategy", "parallel", "--n", "16", "--T", "3.0",
                "--r", "8", "--steps", "5000"]
        blobs = []
        for name in ("x", "y"):
            out = tmp_path / name
            code, _, _ = run_main(argv + ["--output", str(out)], capsys)
            assert code == 0
            blobs.append(((out / "result.json").read_bytes(),
                          (out / "trajectory.csv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_analytic_loss_recorded(self, tmp_path, capsys):
        code, stdout, _ = run_main(
            ["run", "--strategy", "local", "--n", "20", "--epsilon", "0.15",
             "--steps", "1000", "--output", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(stdout)["analytic_loss"] == pytest.approx(
            local_loss_exact(0.15, 20), rel=1e-12)

    def test_boundary_residual_recorded(self, tmp_path, capsys):
        code, stdout, _ = run_main(
            ["run", "--strategy", "parallel", "--n", "20", "--T", "4.7", "--r", "8",
             "--steps", "2000", "--output", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(stdout)["boundary_residual"] == pytest.approx(
            0.005961181821849737, rel=1e-10)

    def test_nan_state_exits_2(self, tmp_path, capsys):
        # T = 8.7e300 overflows the step exponentials to NaN
        with pytest.warns(RuntimeWarning):
            code, _, err = run_main(
                ["run", "--strategy", "local", "--n", "20", "--epsilon", "1e-300",
                 "--output", str(tmp_path)], capsys)
        assert code == 2
        assert "norm drifted by nan" in err
        assert not (tmp_path / "result.json").exists()

    def test_size_above_max_exits_2(self, tmp_path, capsys):
        code, _, err = run_main(
            ["run", "--strategy", "local", "--n", "9007199254740993", "--epsilon", "0.1",
             "--output", str(tmp_path)], capsys)
        assert code == 2
        assert "database size must be <= 9007199254740992" in err

    def test_errors_exit_2(self, tmp_path, capsys):
        code, _, err = run_main(
            ["run", "--strategy", "local", "--n", "20",
             "--epsilon", "0.1", "--T", "12",
             "--output", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv, name", [
        (["run", "--strategy", "linear", "--n", "20", "--T", "440",
          "--alpha", "0"], "alpha"),
        (["run", "--strategy", "parallel", "--n", "20", "--T", "4.7",
          "--beta", "0"], "beta"),
        (["sweep", "--strategy", "parallel", "--variable", "inv_gamma",
          "--values", "1", "2", "--n", "20", "--beta", "0"], "beta"),
    ])
    def test_zero_scale_exits_2(self, tmp_path, capsys, argv, name):
        # zero is an input like any other, not a request for the default 1
        out = tmp_path / "out"
        code, _, err = run_main(argv + ["--output", str(out)], capsys)
        assert code == 2
        assert err == f"error: {name} must be a positive finite number, got 0.0\n"
        assert not out.exists()


class TestSweepCommand:
    def test_single_point_matches_run(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code, _, _ = run_main(
            ["sweep", "--strategy", "local", "--variable", "epsilon",
             "--values", EPS_STR, "--n", "20", "--steps", "20000",
             "--output", str(out)], capsys)
        assert code == 0
        header, row = (out / "sweep.csv").read_text().splitlines()
        assert header == ("x,loss_numeric,loss_analytic_exact,"
                          "loss_analytic_asymptotic,cost,error")
        cells = row.split(",")
        assert float(cells[0]) == pytest.approx(EPS_REF, rel=1e-11)
        assert float(cells[2]) == pytest.approx(0.004616881791654995, rel=1e-11)
        assert float(cells[1]) == pytest.approx(float(cells[2]), abs=1e-5)
        assert cells[5] == ""

        run_dir = tmp_path / "single"
        _, stdout, _ = run_main(
            ["run", "--strategy", "local", "--n", "20", "--epsilon", EPS_STR,
             "--steps", "20000", "--output", str(run_dir)], capsys)
        assert float(cells[1]) == pytest.approx(
            json.loads(stdout)["p_loss"], rel=1e-11)

    def test_parallel_jobs_byte_identical(self, tmp_path, capsys):
        argv = ["sweep", "--strategy", "parallel", "--variable", "inv_gamma",
                "--values", "1.0", "1.5", "2.0", "--n", "20", "--r", "12",
                "--steps", "4000"]
        outs = []
        for name, jobs in (("a", "1"), ("b", "3")):
            path = tmp_path / name
            code, _, _ = run_main(
                argv + ["--jobs", jobs, "--output", str(path)], capsys)
            assert code == 0
            outs.append((path / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_point_failure_is_per_row(self, tmp_path, capsys):
        # marked index 10 is invalid for n=4 but fine for n=20
        out = tmp_path / "n"
        code, _, _ = run_main(
            ["sweep", "--strategy", "local", "--variable", "n",
             "--values", "4", "20", "--epsilon", "0.2", "--marked", "10",
             "--steps", "2000", "--output", str(out)], capsys)
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        first, second = rows[0].split(","), rows[1].split(",")
        assert first[1] == "" and first[5] != ""
        assert second[5] == "" and float(second[1]) > 0

    def test_linear_epsilon_fills_error_cells(self, tmp_path, capsys):
        out = tmp_path / "lin"
        code, _, _ = run_main(
            ["sweep", "--strategy", "linear", "--variable", "n", "--values", "4", "20",
             "--T", "40", "--epsilon", "0.3", "--output", str(out)], capsys)
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[5] for row in rows] == [
            "InvalidParameter: --epsilon does not apply to the linear strategy"] * 2

    @pytest.mark.parametrize("argv, size", [
        (["--variable", "n", "--epsilon", "0.1", "--values", "-3", "10"], "-3"),
        (["--variable", "inv_gamma", "--values", "1", "2", "--n", "-5"], "-5"),
    ])
    def test_parallel_size_below_2_fills_error_cells(self, tmp_path, capsys, argv, size):
        # T is not derived from such a size; build refuses it in the row
        out = tmp_path / "neg"
        code, _, _ = run_main(
            ["sweep", "--strategy", "parallel", *argv, "--steps", "1000",
             "--output", str(out)], capsys)
        assert code == 0
        assert (out / "sweep.csv").read_text().splitlines()[1].endswith(
            f',"InvalidParameter: --n must be at least 2, got {size}"')

    def test_size_above_max_fills_error_cell(self, tmp_path, capsys):
        out = tmp_path / "big"
        code, _, _ = run_main(
            ["sweep", "--strategy", "local", "--variable", "n", "--values", "10", "1e16",
             "--epsilon", "0.1", "--steps", "1000", "--output", str(out)], capsys)
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert rows[0].endswith(",")
        assert rows[1].endswith(',"InvalidParameter: database size must be '
                                '<= 9007199254740992, got n=10000000000000000"')

    @pytest.mark.parametrize("argv, flag", [
        (["--strategy", "local", "--variable", "epsilon", "--values", "0.1", "0.2",
          "--n", "20", "--epsilon", "0.3"], "--epsilon"),
        (["--strategy", "parallel", "--variable", "inv_gamma", "--values", "1", "2",
          "--n", "20", "--T", "5"], "--T"),
        (["--strategy", "local", "--variable", "n", "--values", "10", "20",
          "--epsilon", "0.1", "--n", "50"], "--n"),
    ])
    def test_swept_variable_flag_rejected(self, tmp_path, capsys, monkeypatch,
                                          argv, flag):
        runs = []
        monkeypatch.setattr(cli, "propagate", lambda *args, **kwargs: runs.append(args))
        code, _, err = run_main(
            ["sweep", *argv, "--output", str(tmp_path)], capsys)
        assert code == 2
        assert f"error: {flag} does not apply" in err
        assert runs == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_values_must_increase(self, tmp_path, capsys):
        code, _, err = run_main(
            ["sweep", "--strategy", "local", "--variable", "epsilon",
             "--values", "0.2", "0.1", "--n", "20",
             "--output", str(tmp_path / "s")], capsys)
        assert code == 2 and "increasing" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("variable, good, template", [
        ("n", "10", ["--strategy", "local", "--epsilon", "0.1"]),
        ("epsilon", "0.1", ["--strategy", "local", "--n", "20"]),
        ("inv_gamma", "1", ["--strategy", "parallel", "--n", "20", "--r", "12"]),
    ])
    def test_values_must_be_finite(self, tmp_path, capsys, monkeypatch,
                                   variable, good, template, bad):
        runs = []
        monkeypatch.setattr(cli, "propagate", lambda *args, **kwargs: runs.append(args))
        code, _, err = run_main(
            ["sweep", "--variable", variable, "--values", good, bad, *template,
             "--output", str(tmp_path)], capsys)
        assert code == 2
        assert "finite" in err
        assert runs == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_inv_gamma_requires_parallel(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["sweep", "--strategy", "local", "--variable", "inv_gamma",
             "--values", "1", "2", "--n", "20",
             "--output", str(tmp_path / "s")], capsys)
        assert code == 2

    def test_inv_gamma_rejects_template_epsilon(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["sweep", "--strategy", "parallel", "--variable", "inv_gamma",
             "--values", "1", "2", "--n", "20", "--epsilon", "0.1",
             "--output", str(tmp_path / "s")], capsys)
        assert code == 2

    def test_epsilon_sweep_is_local_only(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["sweep", "--strategy", "parallel", "--variable", "epsilon",
             "--values", "0.1", "0.2", "--n", "20",
             "--output", str(tmp_path / "s")], capsys)
        assert code == 2

    def test_n_sweep_default_grid(self, tmp_path, capsys):
        out = tmp_path / "grid"
        code, _, _ = run_main(
            ["sweep", "--strategy", "local", "--variable", "n",
             "--epsilon", "0.3", "--steps", "1000",
             "--output", str(out)], capsys)
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 41
        assert float(rows[1].split(",")[0]) == 10
        assert float(rows[-1].split(",")[0]) == 1000

    def test_n_required_unless_swept(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["sweep", "--strategy", "parallel", "--variable", "inv_gamma",
             "--values", "1", "2", "--r", "12",
             "--output", str(tmp_path / "s")], capsys)
        assert code == 2


class TestCompareCommand:
    def test_report_contract(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code, stdout, _ = run_main(
            ["compare", "--epsilon", EPS_STR, "--r", "12", "--n", "20",
             "--steps", "40000", "--output", str(out)], capsys)
        assert code == 0
        report = json.loads((out / "compare.json").read_text())
        assert json.loads(stdout) == report
        assert report["gamma"] == pytest.approx(6 / 11, rel=1e-12)
        assert report["t_parallel"] == pytest.approx(8.654411246249188, rel=1e-12)
        assert report["local"]["cost"] == pytest.approx(
            2 * math.sqrt(19) / EPS_REF, rel=1e-12)
        assert report["cost_ratio_reference"] == pytest.approx(1.0, rel=1e-9)
        assert report["cost_ratio_numeric"] == pytest.approx(20 / 18, rel=1e-9)
        assert report["loss_ratio"] <= 0.1
        assert report["parallel"]["p_loss"] < report["local"]["p_loss"]

    def test_degenerate_size_exits_2(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["compare", "--epsilon", "0.1", "--r", "8", "--n", "2",
             "--output", str(tmp_path)], capsys)
        assert code == 2

    def test_steps_rejected_before_propagation(self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "propagate", lambda *args, **kwargs: runs.append(args))
        code, _, err = run_main(
            ["compare", "--epsilon", "0.1", "--r", "12", "--n", "20", "--steps", "500",
             "--output", str(tmp_path)], capsys)
        assert code == 2
        assert "--steps" in err
        assert runs == []
        assert not (tmp_path / "compare.json").exists()


class TestCheckCommand:
    def test_deterministic_and_passing(self, tmp_path, capsys):
        argv = ["check", "--n-list", "4", "--steps", "40000",
                "--full-steps", "4000", "--tolerance", "1.0"]
        payloads = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            code, _, _ = run_main(argv + ["--output", str(out)], capsys)
            assert code == 0
            payloads.append((out / "check.json").read_bytes())
        assert payloads[0] == payloads[1]
        report = json.loads(payloads[0])
        assert report["pass"] is True
        assert len(report["entries"]) == 3
        assert {e["strategy"] for e in report["entries"]} == {
            "linear", "local", "parallel"}

    def test_forced_failure_exits_3(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["check", "--n-list", "4", "--steps", "40000",
             "--full-steps", "4000", "--tolerance", "1e-16",
             "--output", str(tmp_path)], capsys)
        assert code == 3
        report = json.loads((tmp_path / "check.json").read_text())
        assert report["pass"] is False
        assert report["max_delta"] > 1e-16

    @pytest.mark.parametrize("flag, value", [
        ("--tolerance", "nan"), ("--tolerance", "inf"), ("--steps", "500"),
        ("--seed", "-1"), ("--full-steps", "500"), ("--n-list", "0")])
    def test_rejected_before_propagation(self, tmp_path, capsys, monkeypatch,
                                         flag, value):
        runs = []
        monkeypatch.setattr(cli, "propagate", lambda *args, **kwargs: runs.append(args))
        monkeypatch.setattr(cli, "propagate_full",
                            lambda *args, **kwargs: runs.append(args))
        code, _, err = run_main(
            ["check", "--n-list", "4", "--full-steps", "2000", flag, value,
             "--output", str(tmp_path)], capsys)
        assert code == 2
        assert flag in err
        assert runs == []
        assert not (tmp_path / "check.json").exists()

    def test_computes_no_cost_or_prediction(self, tmp_path, capsys, monkeypatch):
        # check compares final populations only
        def refuse(*args, **kwargs):
            raise AssertionError("check has no use for this")

        monkeypatch.setattr(schedules, "cost", refuse)
        monkeypatch.setattr(analytics, "loss_prediction", refuse)
        code, _, _ = run_main(
            ["check", "--n-list", "4", "--steps", "40000", "--full-steps", "4000",
             "--tolerance", "1.0", "--output", str(tmp_path)], capsys)
        assert code == 0

    def test_smallest_instance_agrees(self, tmp_path, capsys):
        out = tmp_path / "edge"
        code, _, _ = run_main(
            ["check", "--n-list", "2", "--steps", "200000",
             "--full-steps", "20000", "--output", str(out)], capsys)
        assert code == 0
        report = json.loads((out / "check.json").read_text())
        assert report["max_delta"] < 1e-7


class TestEnvironmentCap:
    """The full-space size cap is fixed at 512, whatever the environment says."""

    def test_oracle_cap_env(self, tmp_path, capsys, monkeypatch):
        # no environment variable moves the cap
        monkeypatch.setenv("ADIA_ORACLE_CAP", "1024")
        code, _, err = run_main(
            ["check", "--n-list", "513", "--steps", "40000",
             "--full-steps", "4000", "--tolerance", "1.0",
             "--output", str(tmp_path)], capsys)
        assert code == 2
        assert "n=513 exceeds the full-propagation cap 512" in err

    def test_cap_failure_runs_nothing(self, tmp_path, capsys, monkeypatch):
        # the n = 4 rows fit under the cap, but the whole batch is refused
        # before any reduced or full propagation starts
        reduced_runs = []
        monkeypatch.setattr(cli, "propagate", lambda *args, **kwargs: reduced_runs.append(args))
        code, _, err = run_main(
            ["check", "--n-list", "4", "513", "--output", str(tmp_path)], capsys)
        assert code == 2
        assert "n=513" in err
        assert reduced_runs == []
