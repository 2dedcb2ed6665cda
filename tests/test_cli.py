import json

import pytest

from abperc import CoupledSampler
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

    def test_run_via_config_object(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args(["sample", "--intensity", "10", "--seed", "2",
                                  "--out", str(tmp_path / "direct")])
        config = config_from_args(args)
        assert isinstance(config, ExperimentConfig)
        assert run(config) == 0
        assert (tmp_path / "direct.csv").exists()
