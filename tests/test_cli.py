import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from betticurve import cli
from betticurve.cli import EXIT_OK, EXIT_RESOURCE, EXIT_SELFTEST_FAIL, EXIT_USAGE
from betticurve.estimator import convergence_study
from betticurve.homology import betti_invariant
from betticurve.manifolds import circle
from conftest import PARENT_PID, deadline, killing_trial


def read_csv(path):
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            (comments if line.startswith("#") else rows).append(line)
    header = rows[0].split(",")
    body = [r.split(",") for r in rows[1:]]
    return comments, header, body


def run_cli(tmp_path, *argv):
    return cli.main(list(argv))


class TestCurveCommand:
    def test_basic_csv(self, tmp_path):
        out = str(tmp_path / "c.csv")
        code = run_cli(tmp_path, "curve", "--n", "8", "--trials", "50",
                       "--t-min", "0.05", "--t-max", "0.25", "--steps", "5",
                       "--output", out)
        assert code == EXIT_OK
        comments, header, body = read_csv(out)
        assert header == ["t", "n", "trials", "mean", "variance", "stderr", "oracle_p"]
        assert len(body) == 5
        assert comments[0] == f"# format_version: {cli.FORMAT_VERSION}"
        config = json.loads(comments[1].split("# config: ", 1)[1])
        assert config["n"] == 8 and config["trials"] == 50

    def test_plot_script_written(self, tmp_path):
        out = str(tmp_path / "c.csv")
        run_cli(tmp_path, "curve", "--n", "6", "--trials", "10",
                "--grid", "0.1,0.2", "--output", out)
        gp = str(tmp_path / "c.gp")
        assert os.path.exists(gp)
        with open(gp) as fh:
            assert "c.csv" in fh.read()

    def test_single_step_grid(self, tmp_path):
        out = str(tmp_path / "one.csv")
        code = run_cli(tmp_path, "curve", "--n", "5", "--trials", "10",
                       "--t-min", "0.1", "--t-max", "0.1", "--steps", "1",
                       "--output", out)
        assert code == EXIT_OK
        _, _, body = read_csv(out)
        assert len(body) == 1

    def test_oracle_column_empty_beyond_domain(self, tmp_path):
        out = str(tmp_path / "c.csv")
        run_cli(tmp_path, "curve", "--n", "6", "--trials", "10",
                "--grid", "0.1,0.4", "--output", out)
        _, header, body = read_csv(out)
        k = header.index("oracle_p")
        assert body[0][k] != ""
        assert body[1][k] == ""

    def test_oracle_column_empty_above_oracle_cap(self, tmp_path):
        # the oracle is capped at MAX_ORACLE_N points; a larger Monte Carlo
        # run still succeeds, with no oracle value
        from betticurve.circle_oracle import MAX_ORACLE_N
        out = str(tmp_path / "c.csv")
        code = run_cli(tmp_path, "curve", "--n", str(MAX_ORACLE_N + 1), "--trials", "2",
                       "--grid", "0.0005,0.001", "--output", out)
        assert code == EXIT_OK
        _, header, body = read_csv(out)
        k = header.index("oracle_p")
        assert [row[k] for row in body] == ["", ""]

    def test_oracle_column_zero_for_two_points(self, tmp_path):
        out = str(tmp_path / "c.csv")
        run_cli(tmp_path, "curve", "--n", "2", "--trials", "10",
                "--grid", "0.1,0.2", "--output", out)
        _, header, body = read_csv(out)
        k = header.index("oracle_p")
        assert all(float(row[k]) == 0.0 for row in body)

    def test_json_format(self, tmp_path):
        out = str(tmp_path / "c.json")
        code = run_cli(tmp_path, "curve", "--n", "6", "--trials", "20",
                       "--grid", "0.1,0.2", "--fmt", "json", "--output", out)
        assert code == EXIT_OK
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["format_version"] == cli.FORMAT_VERSION
        assert doc["config"]["n"] == 6
        assert len(doc["columns"]["mean"]) == 2

    def test_config_round_trip_reproduces_bytes(self, tmp_path):
        out1 = str(tmp_path / "a.csv")
        run_cli(tmp_path, "curve", "--n", "7", "--trials", "40", "--seed", "9",
                "--grid", "0.05,0.15,0.25", "--output", out1)
        comments, _, _ = read_csv(out1)
        config = cli.RunConfig(**json.loads(comments[1].split("# config: ", 1)[1]))
        config.output = str(tmp_path / "b.csv")
        assert cli.run(config) == EXIT_OK
        _, _, body1 = read_csv(out1)
        _, _, body2 = read_csv(config.output)
        assert body1 == body2

    def test_config_line_is_pinned(self, tmp_path):
        # every RunConfig field appears, defaults included, in sorted key order
        out = str(tmp_path / "a.csv")
        run_cli(tmp_path, "curve", "--n", "7", "--trials", "40", "--seed", "9",
                "--grid", "0.05,0.15,0.25", "--output", out)
        comments, _, _ = read_csv(out)
        assert comments[1] == (
            '# config: {"complex_kind": "vr", "fmt": "csv", "grid": [0.05, 0.15, 0.25], '
            '"invariant": "betti1", "manifold": "circle", "master_seed": 9, '
            '"n": 7, "n_values": [], "output": ' + json.dumps(out) + ', '
            '"steps": null, "subcommand": "curve", "t": null, "t_max": null, '
            '"t_min": null, "target": null, "target_source": "reference value", '
            '"torus_dim": 2, "trials": 40, "workers": 1}')

    def test_sphere_euler_smoke(self, tmp_path):
        out = str(tmp_path / "s.csv")
        code = run_cli(tmp_path, "curve", "--manifold", "sphere",
                       "--invariant", "euler", "--n", "6", "--trials", "10",
                       "--grid", "0.3,0.8", "--output", out)
        assert code == EXIT_OK


class TestOracleCommand:
    def test_table(self, tmp_path):
        out = str(tmp_path / "o.csv")
        code = run_cli(tmp_path, "oracle", "--n", "12",
                       "--t-min", "0.05", "--t-max", "0.3", "--steps", "6",
                       "--output", out)
        assert code == EXIT_OK
        _, header, body = read_csv(out)
        assert header == ["r", "n", "p", "expected_b1", "variance_b1"]
        assert len(body) == 6
        for row in body:
            p = float(row[2])
            assert 0.0 <= p <= 1.0
            assert float(row[3]) == p
            assert float(row[4]) == p * (1 - p)

    def test_config_line_is_pinned(self, tmp_path):
        # the oracle parser sets no estimation option: RunConfig's defaults fill them
        out = str(tmp_path / "o.csv")
        run_cli(tmp_path, "oracle", "--n", "12", "--t-min", "0.05", "--t-max", "0.3",
                "--steps", "6", "--output", out)
        comments, _, _ = read_csv(out)
        assert comments[1] == (
            '# config: {"complex_kind": "vr", "fmt": "csv", "grid": [], '
            '"invariant": "betti1", "manifold": "circle", "master_seed": 0, '
            '"n": 12, "n_values": [], "output": ' + json.dumps(out) + ', '
            '"steps": 6, "subcommand": "oracle", "t": null, "t_max": 0.3, '
            '"t_min": 0.05, "target": null, "target_source": "reference value", '
            '"torus_dim": 2, "trials": 1000, "workers": 1}')

    def test_two_points_all_zero(self, tmp_path):
        out = str(tmp_path / "o.csv")
        run_cli(tmp_path, "oracle", "--n", "2", "--grid", "0.1,0.2,0.3",
                "--output", out)
        _, _, body = read_csv(out)
        assert all(float(row[2]) == 0.0 for row in body)

    def test_at_oracle_cap(self, tmp_path):
        from betticurve.circle_oracle import MAX_ORACLE_N, circle_homotopy_prob
        out = str(tmp_path / "o.csv")
        code = run_cli(tmp_path, "oracle", "--n", str(MAX_ORACLE_N), "--t-min", "0.02",
                       "--t-max", "0.32", "--steps", "6", "--output", out)
        assert code == EXIT_OK
        _, _, body = read_csv(out)
        assert len(body) == 6
        for row in body:
            assert float(row[2]) == circle_homotopy_prob(MAX_ORACLE_N, float(row[0]))

    def test_above_oracle_cap_is_usage_error(self, tmp_path, capsys):
        from betticurve.circle_oracle import MAX_ORACLE_N
        code = run_cli(tmp_path, "oracle", "--n", str(MAX_ORACLE_N + 1), "--t-min", "0.02",
                       "--t-max", "0.32", "--steps", "6", "--output", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: oracle evaluation is capped at n <= {MAX_ORACLE_N}\n")

    def test_out_of_domain_is_usage_error(self, tmp_path, capsys):
        code = run_cli(tmp_path, "oracle", "--n", "10", "--grid", "0.1,0.5",
                       "--output", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: grid point r=0.5 outside the validity domain (0, 1/3)\n"


class TestConvergeCommand:
    def test_table(self, tmp_path):
        out = str(tmp_path / "v.csv")
        code = run_cli(tmp_path, "converge", "--t", "0.1",
                       "--n-values", "4,8,16", "--trials", "100",
                       "--target", "0.5", "--output", out)
        assert code == EXIT_OK
        _, header, body = read_csv(out)
        assert header == ["n", "t", "trials", "mean", "variance", "stderr",
                          "abs_error", "target"]
        assert [row[0] for row in body] == ["4", "8", "16"]
        for row in body:
            assert float(row[6]) == pytest.approx(abs(float(row[3]) - 0.5))

    def test_any_betti_dimension(self, tmp_path):
        # --invariant takes b_k for every k, as the library does; on (1/3, 2/5)
        # the Vietoris-Rips complex of a dense circle sample is an S^3
        out = str(tmp_path / "v.csv")
        code = run_cli(tmp_path, "converge", "--invariant", "betti3", "--t", "0.36",
                       "--n-values", "10,70", "--trials", "3", "--target", "1",
                       "--output", out)
        assert code == EXIT_OK
        _, _, body = read_csv(out)
        table = convergence_study(circle(), "vr", betti_invariant(3), 0.36, (10, 70), 3, 0, 1.0)
        assert [[float(x) for x in row] for row in body] == \
            [[n, 0.36, 3, m, v, e, abs(m - 1), 1]
             for n, m, v, e in zip(table.n_values, table.mean, table.variance, table.stderr)]
        assert table.mean[-1] > 0

    def test_missing_args_usage_error(self, tmp_path):
        assert run_cli(tmp_path, "converge", "--t", "0.1") == EXIT_USAGE
        assert run_cli(tmp_path, "converge", "--n-values", "4,8",
                       "--target", "0.5") == EXIT_USAGE

    def test_missing_target_usage_error(self, tmp_path, monkeypatch, capsys):
        # a scale and sizes but no target: refused before any trial runs
        monkeypatch.setattr(cli.estimator, "_trial_values", None)
        code = run_cli(tmp_path, "converge", "--t", "0.1", "--n-values", "4,8",
                       "--output", str(tmp_path / "v.csv"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: converge needs --target\n"
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_invalid_grid_usage(self, tmp_path, monkeypatch, capsys):
        for grid in ("0.3,0.1", "nan"):
            code = run_cli(tmp_path, "curve", "--n", "5", "--trials", "10",
                           "--grid", grid, "--output", str(tmp_path / "x.csv"))
            assert code == EXIT_USAGE
        capsys.readouterr()
        code = run_cli(tmp_path, "oracle", "--n", "10", "--grid", "0.2,0.1",
                       "--output", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: grid must be strictly increasing\n"
        # an infinite scale is refused before any trial runs
        monkeypatch.setattr(cli.estimator, "_trial_values", None)
        capsys.readouterr()
        code = run_cli(tmp_path, "curve", "--n", "3", "--trials", "4",
                       "--grid", "inf", "--output", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: grid scales must be finite\n"
        # a linspace grid goes through the same check as --grid
        for linspace, message in ((["--t-min", "0.1", "--t-max", "0.2", "--steps", "0"],
                                   "--steps must be >= 1, got 0"),
                                  (["--t-min", "-0.1", "--t-max", "0.2", "--steps", "3"],
                                   "grid scales must be nonnegative")):
            capsys.readouterr()
            code = run_cli(tmp_path, "oracle", *linspace, "--output", str(tmp_path / "x.csv"))
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["curve", "oracle"])
    @pytest.mark.parametrize("steps, message", [
        ("-2", "--steps must be >= 1, got -2"),
        ("1", "--steps 1 needs --t-min equal to --t-max")])
    def test_bad_steps_usage(self, tmp_path, monkeypatch, capsys, command, steps, message):
        # refused before any trial runs, rather than dropping --t-max or
        # failing inside numpy
        monkeypatch.setattr(cli.estimator, "_trial_values", None)
        code = run_cli(tmp_path, command, "--n", "5", "--t-min", "0.1", "--t-max", "0.3",
                       f"--steps={steps}", "--output", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("name", ["betti", "betti-1", "betti01", "bettix", "foo"])
    def test_malformed_invariant_usage(self, tmp_path, monkeypatch, capsys, name):
        # refused before any trial runs; nothing is written
        monkeypatch.setattr(cli.estimator, "_trial_values", None)
        for argv in (["curve", "--n", "5", "--trials", "2", "--grid", "0.1"],
                     ["converge", "--t", "0.1", "--n-values", "4,8", "--trials", "2",
                      "--target", "0.5"]):
            capsys.readouterr()
            code = run_cli(tmp_path, *argv, f"--invariant={name}",
                           "--output", str(tmp_path / "x.csv"))
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == f"error: unknown invariant {name!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_zero_torus_dimension_usage(self, tmp_path, monkeypatch, capsys):
        # refused before any trial runs; nothing is written
        monkeypatch.setattr(cli.estimator, "_trial_values", None)
        code = run_cli(tmp_path, "curve", "--manifold", "torus", "--torus-dim", "0",
                       "--n", "5", "--trials", "2", "--grid", "0.1",
                       "--output", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: flat torus dimension must be >= 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_output_in_missing_directory_usage(self, tmp_path, monkeypatch, capsys):
        # refused before any trial runs
        monkeypatch.setattr(cli.estimator, "_trial_values", None)
        out = tmp_path / "missing" / "x.csv"
        code = run_cli(tmp_path, "curve", "--n", "5", "--trials", "2",
                       "--grid", "0.1", "--output", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: [Errno 2] No such file or directory: {str(out)!r}\n"

    @pytest.mark.parametrize("argv", [
        ["curve", "--n", "5", "--trials", "2", "--grid", "0.1"],
        ["oracle", "--n", "5", "--grid", "0.1"],
        ["converge", "--t", "0.1", "--n-values", "4,8", "--trials", "2", "--target", "0.5"]],
        ids=["curve", "oracle", "converge"])
    def test_output_is_a_directory_usage(self, tmp_path, monkeypatch, capsys, argv):
        # refused before any trial runs, with the error writing it would raise
        monkeypatch.setattr(cli.estimator, "_trial_values", None)
        code = run_cli(tmp_path, *argv, "--output", str(tmp_path))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_output_is_its_own_plot_script_usage(self, tmp_path, monkeypatch, capsys):
        # the gnuplot script would overwrite the CSV; nothing is written
        monkeypatch.setattr(cli.estimator, "_trial_values", None)
        out = tmp_path / "x.gp"
        code = run_cli(tmp_path, "curve", "--n", "5", "--trials", "2",
                       "--grid", "0.1", "--output", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: --output {out} is the path of its own gnuplot script; "
            "give the CSV another extension\n")
        assert list(tmp_path.iterdir()) == []

    def test_plot_script_is_a_directory_usage(self, tmp_path, monkeypatch, capsys):
        # refused before any trial runs; the CSV is not written either
        monkeypatch.setattr(cli.estimator, "_trial_values", None)
        (tmp_path / "d.gp").mkdir()
        code = run_cli(tmp_path, "curve", "--n", "8", "--trials", "4", "--grid", "0.1,0.2",
                       "--output", str(tmp_path / "d.csv"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: [Errno 21] Is a directory: {str(tmp_path / 'd.gp')!r}\n"
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("command", ["curve", "oracle"])
    def test_grid_with_linspace_usage(self, tmp_path, monkeypatch, capsys, command):
        # --grid does not silently win over --t-min/--t-max/--steps
        monkeypatch.setattr(cli.estimator, "_trial_values", None)
        for linspace in (["--t-min", "0.1", "--t-max", "0.2", "--steps", "2"], ["--steps", "2"]):
            capsys.readouterr()
            code = run_cli(tmp_path, command, "--n", "5", *linspace, "--grid", "0.3",
                           "--output", str(tmp_path / "x.csv"))
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == \
                "error: provide either --grid or --t-min/--t-max/--steps, not both\n"
        assert list(tmp_path.iterdir()) == []

    def test_output_in_missing_directory_converge_usage(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.estimator, "_trial_values", None)
        out = tmp_path / "missing" / "x.csv"
        code = run_cli(tmp_path, "converge", "--t", "0.1", "--n-values", "4,8",
                       "--trials", "2", "--target", "0.5", "--output", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: [Errno 2] No such file or directory: {str(out)!r}\n"

    def test_nan_scale_converge_usage(self, tmp_path, capsys):
        code = run_cli(tmp_path, "converge", "--t", "nan", "--n-values", "4,8",
                       "--trials", "2", "--target", "0.5", "--output", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: grid scales must be nonnegative\n"

    def test_zero_scale_converge(self, tmp_path, capsys):
        # converge checks its scale as curve checks its grid: t = 0 is a
        # Vietoris-Rips scale (coincident points join), and no Cech one
        out = tmp_path / "x.csv"
        code = run_cli(tmp_path, "converge", "--t", "0", "--n-values", "4,8",
                       "--trials", "2", "--target", "0.5", "--output", str(out))
        assert code == EXIT_OK
        assert out.read_text().splitlines()[-2:] == ["4,0.0,2,0.0,0.0,0.0,0.5,0.5",
                                                     "8,0.0,2,0.0,0.0,0.0,0.5,0.5"]
        capsys.readouterr()
        code = run_cli(tmp_path, "converge", "--complex", "cech", "--t", "0",
                       "--n-values", "4,8", "--trials", "2", "--target", "0.5",
                       "--output", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: grid scales must be positive\n"

    def test_non_finite_target_converge_usage(self, tmp_path, monkeypatch, capsys):
        # refused before any trial runs
        monkeypatch.setattr(cli.estimator, "_trial_values", None)
        for target in ("nan", "inf", "-inf"):
            capsys.readouterr()
            code = run_cli(tmp_path, "converge", "--t", "0.1", "--n-values", "4,8",
                           "--trials", "2", f"--target={target}",
                           "--output", str(tmp_path / "x.csv"))
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == f"error: target must be finite, got {float(target)}\n"

    def test_missing_grid_usage(self, tmp_path):
        code = run_cli(tmp_path, "curve", "--n", "5", "--trials", "10",
                       "--output", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE

    def test_budget_maps_to_resource(self, tmp_path, monkeypatch, capsys):
        from betticurve.errors import SimplexBudgetError

        def boom(*a, **k):
            raise SimplexBudgetError(100)

        monkeypatch.setattr(cli.estimator, "estimate_curve", boom)
        code = run_cli(tmp_path, "curve", "--n", "5", "--trials", "10",
                       "--grid", "0.1", "--output", str(tmp_path / "x.csv"))
        assert code == EXIT_RESOURCE
        assert capsys.readouterr().err == "error: simplex budget of 100 exceeded\n"


    def test_budget_overrun_names_the_trial(self, tmp_path, monkeypatch, capsys):
        # a real overrun under two workers: stderr names the trial to replay
        from functools import partial
        monkeypatch.setattr(cli.estimator, "estimate_curve",
                            partial(cli.estimator.estimate_curve, budget=48))
        code = run_cli(tmp_path, "curve", "--manifold", "torus", "--n", "9", "--trials", "6",
                       "--seed", "17", "--workers", "2", "--grid", "0.1,0.3,0.45",
                       "--output", str(tmp_path / "x.csv"))
        assert code == EXIT_RESOURCE
        assert capsys.readouterr().err == ("error: simplex budget of 48 exceeded\n"
                                           "error: in trial 1 of seed 17 at n=9\n")


class TestSelftest:
    def test_passes(self, capsys):
        code = cli.main(["selftest", "--trials", "600"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "all checks passed" in out
        assert out.count("PASS") >= 7
        assert "FAIL" not in out
        assert "PASS vr-b1 4-cycle t=0.25: estimator=[1] per-scale=[1] exact=[1]" in out
        assert ("PASS vr-b1 4-cycle t=0.25,0.5: estimator=[1, 0] per-scale=[1, 0] "
                "exact=[1, 0]") in out
        # past pi every pair of the sphere is joined: the octahedron's antipodes too
        assert ("PASS vr-euler octahedron past pi: estimator=[2, 1] per-scale=[2, 1] "
                "exact=[2, 1]") in out
        # the untruncated circle Cech filtration, read by euler_curve
        assert ("PASS cech-euler circle n=12: estimator=[9, 5, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, "
                "3, 1, 1] per-scale=[9, 5, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 1] "
                "exact=None") in out
        # the octahedron's 26 simplices, at the budget and one below it
        assert ("PASS vr-euler-budget octahedron: budget 26: [2] (want [2]); "
                "budget 25: simplex budget of 25 exceeded") in out
        # past pi, 63 simplices; the bound passes 58 before the last edge
        assert ("PASS vr-euler-budget octahedron past pi: budget 63: [2, 1] (want [2, 1]); "
                "budget 58: simplex budget of 58 exceeded") in out
        # the oracle's certified pass and the exact stopped sum, float for float
        assert "PASS oracle-exact n=300: oracle=[1.0, " in out

    def test_too_few_trials_is_usage_error(self):
        assert cli.main(["selftest", "--trials", "100"]) == EXIT_USAGE

    def test_zero_workers_is_usage_error(self, capsys):
        # refused up front, as curve and converge refuse it, not as a FAIL
        # line of each pooled check after the route rows have run
        code = cli.main(["selftest", "--workers", "0"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == "error: workers must be >= 1\n"
        assert captured.out == ""  # no check ran

    def test_failure_exit_code(self, monkeypatch, capsys):
        def fake_checks(config):
            yield ("doomed", False, "forced failure")

        monkeypatch.setattr(cli, "_selftest_checks", fake_checks)
        code = cli.main(["selftest", "--trials", "600"])
        assert code == EXIT_SELFTEST_FAIL
        assert "FAIL doomed" in capsys.readouterr().out


    def test_a_raising_check_fails_alone(self, monkeypatch, capsys):
        # a check outside the route rows that raises prints its FAIL line,
        # and the checks after it still run: exit 1 from the summary, not 2
        def broken(*args, **kwargs):
            raise ValueError("broken build")

        monkeypatch.setattr(cli, "vr_euler_curve", broken)
        code = cli.main(["selftest", "--trials", "500"])
        out = capsys.readouterr().out
        assert code == EXIT_SELFTEST_FAIL
        assert "FAIL vr-euler-budget octahedron: ValueError: broken build" in out
        assert "PASS cech-vr-interleaving" in out
        assert "selftest: 1 check(s) failed" in out


class TestWorkers:
    def test_environment_is_not_read(self, tmp_path, monkeypatch):
        # the command line alone sets a run's configuration
        lines = []
        for value in (None, "abc", "3"):
            if value is not None:
                monkeypatch.setenv("BETTI_WORKERS", value)
            out = str(tmp_path / "x.csv")
            assert run_cli(tmp_path, "oracle", "--n", "5", "--grid", "0.1",
                           "--output", out) == EXIT_OK
            lines.append(read_csv(out)[0][1])
        assert lines[0] == lines[1] == lines[2]
        assert json.loads(lines[0].split("# config: ", 1)[1])["workers"] == 1

    def test_worker_count_preserves_output_bytes(self, tmp_path):
        outs = []
        for workers in ("1", "3"):
            out = str(tmp_path / f"w{workers}.csv")
            run_cli(tmp_path, "curve", "--n", "9", "--trials", "30",
                    "--seed", "4", "--grid", "0.08,0.16,0.24",
                    "--workers", workers, "--output", out)
            _, header, body = read_csv(out)
            outs.append(body)
        assert outs[0] == outs[1]

    def test_killed_worker_is_one_error_line(self, tmp_path, monkeypatch, capfd):
        # a worker killed by SIGKILL: one error line naming it, exit 3, no
        # traceback (capfd also catches what the child process writes)
        monkeypatch.setenv(PARENT_PID, str(os.getpid()))
        monkeypatch.setattr(cli.estimator, "_trial_values", killing_trial)
        out = tmp_path / "x.csv"
        with deadline(10):
            code = run_cli(tmp_path, "converge", "--t", "0.1", "--n-values", "10,20",
                           "--trials", "8", "--target", "1", "--workers", "2",
                           "--output", str(out))
        assert code == EXIT_RESOURCE
        captured = capfd.readouterr()
        assert captured.err == ("error: worker process 1 of 2 exited with code -9 "
                                "before it sent its values\n")
        assert captured.out == "" and not out.exists()


class TestProcessMachinery:
    """Only a run that forks loads the modules of process fan-out."""

    MACHINERY = ("multiprocessing", "concurrent.futures", "socket", "subprocess")

    def loaded(self, tmp_path, *commands):
        """The modules of MACHINERY loaded in a fresh interpreter that imports
        betticurve and betticurve.cli and runs each command."""
        script = (f"import sys\nimport betticurve, betticurve.cli\n"
                  f"for argv in {commands!r}:\n"
                  f"    assert betticurve.cli.main(argv) == 0\n"
                  f"print(*[m for m in {self.MACHINERY!r} if m in sys.modules])\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1].split()

    def test_serial_commands_load_none(self, tmp_path):
        assert self.loaded(tmp_path,
                           ["curve", "--n", "8", "--trials", "4", "--grid", "0.1,0.2"],
                           ["oracle", "--n", "8", "--grid", "0.1,0.2"]) == []

    def test_pooled_run_loads_multiprocessing(self, tmp_path):
        assert "multiprocessing" in self.loaded(
            tmp_path, ["converge", "--t", "0.1", "--n-values", "4,8", "--trials", "4",
                       "--target", "1", "--workers", "2"])
