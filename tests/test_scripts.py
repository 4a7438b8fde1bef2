"""The scripts in ``scripts/`` run end to end on tiny inputs.

Each script is loaded as a module and its ``main`` called with small
arguments, so a change to the library calls they make fails here.
"""

import runpy
from pathlib import Path

from betticurve import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_main(name):
    return runpy.run_path(str(SCRIPTS / name))["main"]


def test_expectation_variance_figure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main = load_main("expectation_variance_figure.py")
    assert main(["--n", "6", "--trials", "4", "--steps", "3", "--prefix", "fig"]) == 0
    for name in ("fig_mc.csv", "fig_mc.gp", "fig_exact.csv"):
        assert (tmp_path / name).is_file(), name


def test_convergence_experiment(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    main = load_main("convergence_experiment.py")
    assert main(["--n-values", "4", "8", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("t = 0.1, trials = 4")
    assert "exact P(n=8, r=0.1)" in out


def test_convergence_experiment_exact_line_at_float_third(tmp_path, monkeypatch, capsys):
    # the float nearest 1/3 lies below 1/3: the script, like curve's oracle
    # column, is inside the oracle's domain there and prints the same value
    monkeypatch.chdir(tmp_path)
    t = repr(1 / 3)
    main = load_main("convergence_experiment.py")
    assert main(["--t", t, "--n-values", "4", "8", "--trials", "4"]) == 0
    exact = [line for line in capsys.readouterr().out.splitlines() if line.startswith("exact")]
    assert cli.main(["curve", "--n", "8", "--trials", "2", "--grid", t,
                     "--output", "c.csv"]) == 0
    with open("c.csv") as fh:
        oracle_p = float(fh.read().splitlines()[-1].split(",")[-1])
    assert exact == [f"exact P(n=8, r={t}) = {oracle_p:.6f}"]
