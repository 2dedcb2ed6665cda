import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import abperc
from abperc import CoupledSampler, Region, latticecoupling, sample_poisson
from abperc.cli import ExperimentConfig, build_parser, config_from_args, main, run
from abperc.reporting import TIMESTAMP_KEY


def run_cli(argv):
    return main(argv)


class TestArgumentHandling:
    def test_empty_invocation_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli([])
        assert err.value.code != 0

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["frobnicate"])
        assert err.value.code != 0

    def test_parameter_error_returns_nonzero(self, tmp_path, capsys):
        # degenerate box (L < 4r)
        code = run_cli(["percolate", "--r", "1", "--L", "2", "--trials", "5",
                        "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_config_file_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("intensity = 50\nseed = 4\n# comment\nL = 2.0\n")
        out = tmp_path / "a"
        code = run_cli(["sample", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "a.summary.json").read_text())
        assert summary["config"]["seed"] == 4
        assert summary["config"]["params"]["L"] == 2.0
        # explicit flag wins over the file value
        out2 = tmp_path / "b"
        code = run_cli(["sample", "--config", str(cfg), "--seed", "9",
                        "--out", str(out2)])
        assert code == 0
        summary2 = json.loads((tmp_path / "b.summary.json").read_text())
        assert summary2["config"]["seed"] == 9

    def test_config_file_before_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("intensity = 50\nseed = 4\n")
        out = tmp_path / "a"
        assert run_cli(["--config", str(cfg), "sample", "--seed", "9",
                        "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "a.summary.json").read_text())
        assert summary["config"]["params"]["intensity"] == 50.0
        assert summary["config"]["seed"] == 9
        assert summary["config"]["subcommand"] == "sample"

    @pytest.mark.parametrize("flags", [["--intensities", "nan"], ["--tol", "nan"],
                                       ["--L", "inf"], ["--intensities", "0.3,inf"]])
    def test_non_finite_parameter_exits_1(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        code = run_cli(["percolate", "--r", "1", "--L", "8", "--trials", "5", *flags,
                        "--out", str(out)])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_over_budget_intensity_exits_1(self, tmp_path, capsys):
        code = run_cli(["percolate", "--intensities", "1e9", "--r", "1", "--L", "10",
                        "--trials", "2", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "budget" in capsys.readouterr().err

    def test_over_budget_bracket_exits_1(self, tmp_path, capsys, monkeypatch):
        # the bracket's high end is checked before any seed is swept
        def prefix(self, intensity):
            raise AssertionError("a pattern was sampled before the budget check")

        monkeypatch.setattr(CoupledSampler, "prefix", prefix)
        code = run_cli(["percolate", "--bracket", "0.01,1e9", "--r", "1", "--L", "10",
                        "--trials", "2", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "budget" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bracket", ["0.1", "0.1,0.2,0.3"])
    def test_bracket_without_two_values_exits_1(self, tmp_path, capsys, bracket):
        code = run_cli(["percolate", "--bracket", bracket, "--L", "8", "--trials", "2",
                        "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("abperc: error:") and "--bracket" in err and "lo,hi" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["percolate", "--intensities", ",", "--L", "8", "--trials", "2"], "--intensities"),
        (["percolate", "--intensities", "", "--L", "8", "--trials", "2"], "--intensities"),
        (["lln", "--n", ",", "--trials", "1"], "--n"),
        (["lln", "--n", "100", "--tau", ",", "--trials", "1"], "--tau"),
        (["mindeg", "--n", "100", "--alpha", ",", "--trials", "1"], "--alpha"),
    ], ids=["intensities-comma", "intensities-empty", "lln-n", "lln-tau", "mindeg-alpha"])
    def test_empty_list_flag_exits_1(self, tmp_path, capsys, argv, flag):
        code = run_cli([*argv, "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("abperc: error:") and flag in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("subcommand", ["lln", "mindeg"])
    def test_over_budget_sample_size_exits_1(self, tmp_path, capsys, monkeypatch, subcommand):
        # refused before any event time beyond the first block is drawn
        def grow(self):
            raise AssertionError("sampling went past the budget check")

        monkeypatch.setattr(CoupledSampler, "_grow_times", grow)
        code = run_cli([subcommand, "--n", "1e9", "--trials", "1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf", "0.5,nan"])
    def test_non_finite_alpha_exits_1(self, tmp_path, capsys, alpha):
        code = run_cli(["mindeg", "--n", "200", "--alpha", alpha, "--trials", "2",
                        "--out", str(tmp_path / "x")])
        assert code == 1
        assert "alpha" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("tau", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["lln", "--n", "100", "--trials", "1"],
        ["mindeg", "--n", "200", "--alpha", "0.5", "--trials", "2"],
    ], ids=lambda argv: argv[0])
    def test_non_positive_or_non_finite_tau_exits_1(self, tmp_path, capsys, argv, tau):
        code = run_cli([*argv, f"--tau={tau}", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "tau" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--lambda", "inf"], ["--lambda", "nan"],
                                       ["--lambda-c", "nan"], ["--r", "nan"], ["--r", "inf"]])
    def test_bound_non_finite_parameter_exits_1(self, tmp_path, capsys, flags):
        code = run_cli(["bound", "--lambda", "1", "--lambda-c", "0.36", *flags,
                        "--out", str(tmp_path / "x")])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags", [["--t", "inf"], ["--t", "nan"], ["--epsilon", "nan"],
                                       ["--epsilon", "inf"], ["--t", "-1"]])
    def test_couple_test_bad_range_exits_1(self, tmp_path, capsys, flags):
        code = run_cli(["couple-test", "--window", "8,8", "--p-lambda", "0.6", "--p-nu", "0.3",
                        *flags, "--out", str(tmp_path / "x")])
        assert code == 1
        assert "t and epsilon must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("subcommand", ["lln", "mindeg"])
    def test_negative_trials_exits_1(self, tmp_path, capsys, subcommand):
        code = run_cli([subcommand, "--n", "200", "--trials", "-3",
                        "--out", str(tmp_path / "x")])
        assert code == 1
        assert "trials" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    @pytest.mark.parametrize("argv", [
        ["sample", "--intensity", "5"],
        ["percolate", "--intensities", "0.3", "--L", "8", "--trials", "2"],
        ["mu-c", "--lambda", "0.05", "--L", "8", "--trials", "2"],
        ["bound", "--lambda", "1", "--lambda-c", "0.5"],
        ["lln", "--n", "100", "--trials", "1"],
        ["mindeg", "--n", "100", "--trials", "1"],
        ["couple-test", "--window", "8,8", "--p-lambda", "0.6", "--p-nu", "0.3"],
    ], ids=lambda argv: argv[0])
    def test_jobs_below_one_exits_1(self, tmp_path, capsys, argv, jobs):
        code = run_cli([*argv, "--jobs", jobs, "--out", str(tmp_path / "x")])
        assert code == 1
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["percolate", "--intensities", "0.1"],
        ["percolate", "--bracket", "0.01,0.3"],
        ["mu-c", "--lambda", "0.5"],
    ], ids=["percolate-probes", "percolate-bisection", "mu-c"])
    def test_tiny_radius_exits_1(self, tmp_path, capsys, argv):
        # the unit intensity r**-d of this radius overflows a float
        code = run_cli([*argv, "--r", "1e-160", "--L", "1", "--trials", "2",
                        "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("abperc: error:") and "radius 1e-160" in err
        assert list(tmp_path.iterdir()) == []

    def test_default_bracket_overflow_exits_1(self, tmp_path, capsys):
        # r**-2 is finite here, but the default bracket's high end 2/r**2 is not
        code = run_cli(["percolate", "--r", "1e-154", "--L", "1", "--trials", "2",
                        "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("abperc: error:") and "default bracket" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fields", ["0", "-2"])
    def test_couple_test_without_fields_exits_1(self, tmp_path, capsys, monkeypatch, fields):
        def sample(*args, **kwargs):
            raise AssertionError("a field was sampled before --fields was checked")

        monkeypatch.setattr(latticecoupling, "sample_coupled_fields", sample)
        code = run_cli(["couple-test", "--window", "8,8", "--p-lambda", "0.5", "--p-nu", "0.5",
                        "--fields", fields, "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("abperc: error:") and "--fields" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["sample", "--intensity", "1"],
        ["percolate", "--intensities", "0.1", "--trials", "2"],
        ["mu-c", "--lambda", "0.5", "--trials", "2"],
    ], ids=lambda argv: argv[0])
    def test_overflowing_box_volume_exits_1(self, tmp_path, capsys, argv):
        code = run_cli([*argv, "--L", "1e200", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("abperc: error:") and "volume" in err
        assert list(tmp_path.iterdir()) == []

    def test_huge_line_reaches_budget_check(self, tmp_path, capsys):
        code = run_cli(["sample", "--L", "1e200", "--d", "1", "--intensity", "1",
                        "--out", str(tmp_path / "x")])
        assert code == 1
        assert "budget" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["sample", "--intensity", "-1"],
        ["percolate", "--bracket", "0.5,0.6", "--L", "8", "--trials", "5"],
        ["mu-c", "--lambda", "0.72", "--L", "8", "--trials", "2", "--target", "1.5"],
        ["bound", "--lambda", "nan", "--lambda-c", "0.36"],
        ["lln", "--n", "100,1e9", "--trials", "1"],
        ["mindeg", "--n", "200", "--alpha", "0.5,nan", "--trials", "2"],
        ["couple-test", "--window", "8,8", "--p-lambda", "0.6", "--p-nu", "0.3", "--t", "-1"],
    ], ids=lambda argv: argv[0])
    def test_library_failure_writes_no_file(self, tmp_path, capsys, argv):
        # each input passes run's own checks and fails inside the library
        code = run_cli([*argv, "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("abperc: error:")
        assert list(tmp_path.iterdir()) == []

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no equals sign here\n")
        assert run_cli(["sample", "--config", str(cfg), "--intensity", "1"]) == 2


class TestSubcommands:
    def test_sample_writes_pattern(self, tmp_path):
        out = tmp_path / "pts"
        assert run_cli(["sample", "--intensity", "40", "--seed", "3",
                        "--out", str(out)]) == 0
        lines = (tmp_path / "pts.csv").read_text().strip().splitlines()
        assert lines[0] == "index,x1,x2"
        summary = json.loads((tmp_path / "pts.summary.json").read_text())
        assert summary["count"] == len(lines) - 1
        assert TIMESTAMP_KEY in summary

    def test_sample_csv_round_trip(self, tmp_path):
        out = tmp_path / "pts"
        assert run_cli(["sample", "--intensity", "30", "--L", "1", "--seed", "12",
                        "--out", str(out)]) == 0
        lines = (tmp_path / "pts.csv").read_text().strip().splitlines()
        assert lines[0] == "index,x1,x2"
        expected = sample_poisson(Region("box", 1.0, 2), 30.0, 12).points
        assert len(lines) == len(expected) + 1
        rows = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in rows] == list(range(len(expected)))
        got = np.array([[float(tok) for tok in row[1:]] for row in rows])
        assert np.array_equal(got, expected)

    def test_bound_report_files(self, tmp_path):
        out = tmp_path / "bound"
        assert run_cli(["bound", "--d", "2", "--r", "1", "--lambda", "0.7182",
                        "--lambda-c", "0.3591", "--grid-size", "16",
                        "--out", str(out)]) == 0
        lines = (tmp_path / "bound.csv").read_text().strip().splitlines()
        assert lines[0].startswith("alpha,s,t,epsilon")
        assert len(lines) == 17
        summary = json.loads((tmp_path / "bound.summary.json").read_text())
        assert summary["mu_hat"] > 0
        assert summary["asymptotic_constant"] == pytest.approx(160.5, abs=0.2)

    def test_percolate_probe_only(self, tmp_path):
        out = tmp_path / "probe"
        assert run_cli(["percolate", "--intensities", "0.0,20.0", "--r", "1",
                        "--L", "8", "--trials", "20", "--out", str(out)]) == 0
        lines = (tmp_path / "probe.csv").read_text().strip().splitlines()
        assert lines[0] == "probe,trials,successes,p_hat,ci_low,ci_high"
        first = lines[1].split(",")
        assert float(first[3]) == 0.0

    def test_lln_outputs(self, tmp_path):
        out = tmp_path / "lln"
        assert run_cli(["lln", "--n", "100,400", "--tau", "2", "--trials", "3",
                        "--seed", "1", "--out", str(out)]) == 0
        data = (tmp_path / "lln.csv").read_text().strip().splitlines()
        assert data[0] == "n,tau,trial,rho,statistic"
        assert len(data) == 7
        medians = (tmp_path / "lln.medians.csv").read_text().strip().splitlines()
        assert len(medians) == 3

    def test_mindeg_outputs(self, tmp_path):
        out = tmp_path / "md"
        assert run_cli(["mindeg", "--n", "200", "--tau", "1", "--alpha", "0.3,4.0",
                        "--trials", "4", "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "md.summary.json").read_text())
        assert set(summary["fraction_zero"]) == {"0.3", "4.0"}

    def test_couple_test_outputs(self, tmp_path):
        out = tmp_path / "cpl"
        assert run_cli(["couple-test", "--window", "24,24", "--epsilon", "1",
                        "--t", "1", "--p-lambda", "0.6", "--p-nu", "0.3",
                        "--fields", "2", "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "cpl.summary.json").read_text())
        assert summary["implication_holds"] is True
        assert summary["delta_sites"] == 4
        lines = (tmp_path / "cpl.csv").read_text().strip().splitlines()
        assert len(lines) == 2 * 24 * 24 + 1

    def test_mu_c_subcritical(self, tmp_path):
        out = tmp_path / "mu"
        assert run_cli(["mu-c", "--lambda", "0.05", "--r", "1", "--L", "12",
                        "--trials", "30", "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "mu.summary.json").read_text())
        assert summary["estimate"]["no_percolation"] is True


class TestReproducibility:
    def test_rerun_and_jobs_invariance(self, tmp_path):
        base = ["lln", "--n", "100,300", "--tau", "2", "--trials", "4", "--seed", "7"]
        paths = []
        for tag, jobs in (("one", 1), ("two", 2), ("rerun", 1)):
            out = tmp_path / tag
            assert run_cli(base + ["--jobs", str(jobs), "--out", str(out)]) == 0
            paths.append(out)
        data = [(p.parent / (p.name + ".csv")).read_bytes() for p in paths]
        assert data[0] == data[1] == data[2]

    @pytest.mark.parametrize("argv", [
        ["percolate", "--intensities", "0.2,0.4", "--L", "8", "--trials", "4"],
        ["mu-c", "--lambda", "0.72", "--L", "8", "--trials", "4", "--tol", "2"],
        ["lln", "--n", "100,300", "--trials", "2"],
        ["mindeg", "--n", "200", "--alpha", "0.3,1", "--trials", "2"],
    ], ids=lambda argv: argv[0])
    def test_pool_leaves_no_process(self, tmp_path, argv):
        assert run_cli([*argv, "--jobs", "2", "--out", str(tmp_path / "x")]) == 0
        assert multiprocessing.active_children() == []

    def test_run_via_config_object(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args(["sample", "--intensity", "10", "--seed", "2",
                                  "--out", str(tmp_path / "direct")])
        config = config_from_args(args)
        assert isinstance(config, ExperimentConfig)
        assert run(config) == 0
        assert (tmp_path / "direct.csv").exists()


def _traced_peak(argv) -> int:
    """Peak bytes that Python and numpy allocate while the CLI runs ``argv``."""
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Data rows are formatted and written one at a time, so a run's memory
    does not grow with the text of its CSV (about 300 bytes a row when every
    row was held as a list and a line)."""

    def test_sample_streams_its_rows(self, tmp_path):
        argv = ["sample", "--intensity", "100000", "--seed", "1", "--out", str(tmp_path / "s")]
        peak = _traced_peak(argv)
        count = json.loads((tmp_path / "s.summary.json").read_text())["count"]
        # the sampled coordinates and their scaled copy: 32 bytes a point
        assert peak < 64 * count

    def test_couple_test_streams_its_rows(self, tmp_path):
        import scipy.stats  # noqa: F401  (imported by the run; not counted against it)

        argv = ["couple-test", "--window", "200,200", "--epsilon", "1", "--t", "1",
                "--p-lambda", "0.6", "--p-nu", "0.3", "--fields", "2",
                "--out", str(tmp_path / "c")]
        peak = _traced_peak(argv)
        sites = 2 * 200 * 200
        assert len((tmp_path / "c.csv").read_text().splitlines()) == sites + 1
        # per field: one plane of uniform floats at a time, the T, U, V and W
        # bits, and the four site bits each field keeps for its rows
        assert peak < 32 * sites


def test_cli_import_loads_no_spatial_index():
    # scipy.spatial is imported where a graph is built, not at CLI start-up,
    # which a run pays for in time and memory whatever its subcommand
    code = "import sys, abperc.cli; print('scipy.spatial' in sys.modules)"
    src = str(Path(abperc.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("given", [None, "2"])
def test_import_starts_no_openblas_threads_unless_asked(given):
    # scipy's OpenBLAS, loaded with scipy.sparse.csgraph, spins its worker
    # threads after loading; abperc calls no BLAS and keeps one thread unless
    # the caller set OPENBLAS_NUM_THREADS. Native threads are counted where
    # Linux lists them, after numpy (whose own OpenBLAS loads first) and after abperc
    code = ("import os, numpy; task = '/proc/self/task'; "
            "count = lambda: len(os.listdir(task)) if os.path.isdir(task) else 0; "
            "before = count(); import abperc; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], count() - before)")
    src = str(Path(abperc.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src, env={**env, "PYTHONPATH": src})
    value, added = out.stdout.split()
    assert value == (given or "1")
    if given is None:
        assert added == "0"
