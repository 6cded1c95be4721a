"""Tests for the command-line interface."""

import csv
import json
import os
import subprocess
import sys

import pytest

import streamacq
import streamacq.harness as harness
from streamacq.cli import main
from streamacq.harness import load_csv_stream


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


SMALL_CONFIG = "strategy = rs\nn = 300\np = 4\n"


class TestGen:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = str(tmp_path / "data.csv")
        code = main(["gen", "--out", out, "--n", "50", "--p", "3",
                     "--seed", "2"])
        assert code == 0
        features, labels = load_csv_stream(out)
        assert features.shape == (550, 3)
        assert set(labels.tolist()) <= {0, 1}
        assert "wrote 550 rows x 3 features" in capsys.readouterr().out

    def test_header_layout(self, tmp_path):
        out = str(tmp_path / "data.csv")
        main(["gen", "--out", out, "--n", "50", "--p", "4"])
        with open(out, encoding="utf-8") as fh:
            assert fh.readline().strip() == "f1,f2,f3,f4,label"

    def test_bad_share_exits_nonzero(self, tmp_path, capsys):
        out = str(tmp_path / "data.csv")
        code = main(["gen", "--out", out, "--positive-share", "1.5"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_creates_three_result_files(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "results"
        code = main(["run", "--config", config, "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        for name in ("metrics.csv", "trajectory.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategy"] == "rs"
        assert summary["seed"] == 0
        printed = capsys.readouterr().out
        assert "strategy=rs seed=0" in printed

    def test_bad_config_key_exits_nonzero(self, tmp_path, capsys):
        config = write_config(tmp_path, "mystery = 3\n")
        code = main(["run", "--config", config, "--seed", "0",
                     "--out", str(tmp_path / "results")])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_config_file_exits_nonzero(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--seed", "0", "--out", str(tmp_path / "results")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_dataset_csv_run(self, tmp_path):
        data_path = str(tmp_path / "data.csv")
        main(["gen", "--out", data_path, "--n", "40", "--p", "3",
             "--seed", "1"])
        config = write_config(
            tmp_path, f"strategy = rs\ndataset = {data_path}\n")
        out = tmp_path / "results"
        code = main(["run", "--config", config, "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        assert (out / "summary.json").exists()


class TestBench:
    def test_writes_summary_table(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "table.csv"
        code = main(["bench", "--config", config, "--seeds", "0,1",
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["strategy", "n_seeds"]
        assert rows[1][0] == "rs"
        assert rows[1][1] == "2"

    def test_strategy_override_adds_rows(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "table.csv"
        code = main(["bench", "--config", config, "--seeds", "0,1",
                     "--strategies", "rs,us", "--out", str(out)])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["rs", "us"]

    def test_unknown_strategy_exits_nonzero(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "table.csv"
        code = main(["bench", "--config", config, "--seeds", "0,1",
                     "--strategies", "rs,oracle", "--out", str(out)])
        assert code == 1
        assert "unknown strategy 'oracle'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_agent_setting_fails_before_any_seed_runs(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_CONFIG + "spf1_window = 1\n")
        out = tmp_path / "table.csv"
        code = main(["bench", "--config", config, "--seeds", "0,1",
                     "--strategies", "rs,ensemble6", "--out", str(out)])
        assert code == 1
        assert "agent spf1" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_seed_exits_nonzero(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "table.csv"
        code = main(["bench", "--config", config, "--seeds", "0,0,0",
                     "--out", str(out)])
        assert code == 1
        assert "error: replication needs distinct seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_strategy_fails_before_any_seed_runs(self, tmp_path, capsys, monkeypatch):
        def no_run(config, seed):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        config = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "table.csv"
        code = main(["bench", "--config", config, "--seeds", "0,1",
                     "--strategies", "rs,us,rs", "--out", str(out)])
        assert code == 1
        assert "error: bench needs distinct strategies; repeated: ['rs']" in capsys.readouterr().err
        assert not out.exists()

    def test_single_seed_exits_nonzero(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_CONFIG)
        code = main(["bench", "--config", config, "--seeds", "0",
                     "--out", str(tmp_path / "table.csv")])
        assert code == 1
        assert "two seeds" in capsys.readouterr().err


class TestVerifyTheory:
    def test_default_grid_passes(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(["verify-theory", "--out", str(out), "--draws", "2000"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "theory verification passed" in printed
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["center_dist_sq", "closed_form", "mc_mean",
                           "mc_se", "within_tol"]
        assert len(rows) - 1 == 8
        assert all(row[4] == "1" for row in rows[1:])

    def test_too_few_draws_exits_nonzero(self, tmp_path, capsys):
        """One draw under the floor fails before anything is made."""
        out = tmp_path / "new" / "grid.csv"
        code = main(["verify-theory", "--out", str(out), "--draws", "999"])
        assert code == 1
        assert "error: --draws must be at least 1000, got 999" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_draws_at_the_floor_run(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(["verify-theory", "--out", str(out), "--draws", "1000",
                     "--grid-points", "2"])
        assert code == 0
        assert "theory verification passed" in capsys.readouterr().out
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3

    @pytest.mark.parametrize("flags, message", [
        (["--grid-points", "0"], "--grid-points must be at least 2"),
        (["--grid-points", "1"], "--grid-points must be at least 2"),
        (["--grid-max", "nan"], "--grid-max must be nonnegative and finite"),
        (["--grid-max", "-1"], "--grid-max must be nonnegative"),
        (["--grid-max", "inf"], "--grid-max must be nonnegative and finite"),
        (["--draws", "10"], "--draws must be at least 1000, got 10"),
    ])
    def test_unusable_grid_exits_nonzero(self, tmp_path, capsys, flags, message):
        """A grid the checks cannot judge fails with an error, not a pass,
        and makes no output directory."""
        out = tmp_path / "new" / "grid.csv"
        code = main(["verify-theory", "--out", str(out), "--draws", "2000", *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "theory verification passed" not in captured.out
        assert "center_dist_sq=" not in captured.out  # no grid point ran
        assert not out.parent.exists()


@pytest.mark.parametrize("command", [
    ["gen", "--n", "30", "--p", "2"],
    ["bench", "--config", "exp.cfg", "--seeds", "0,1"],
    ["verify-theory", "--draws", "2000", "--grid-points", "2"],
])
def test_out_file_goes_into_a_new_directory(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "new" / "dir" / "out.csv"
    assert main([*command, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").count("\n") >= 2
    assert [p.name for p in out.parent.iterdir()] == ["out.csv"]  # no temp file left


class TestSeedFlags:
    """Every seed flag takes non-negative integers only and names itself on failure."""

    @pytest.mark.parametrize("command, flag, value", [
        (["gen", "--out", "data.csv"], "--seed", "-1"),
        (["gen", "--out", "data.csv"], "--seed", "x"),
        (["run", "--config", "exp.cfg", "--out", "results"], "--seed", "-1"),
        (["run", "--config", "exp.cfg", "--out", "results"], "--seed", "1.5"),
        (["verify-theory", "--out", "grid.csv"], "--seed", "-3"),
        (["bench", "--config", "exp.cfg", "--out", "table.csv"], "--seeds", "0,x"),
        (["bench", "--config", "exp.cfg", "--out", "table.csv"], "--seeds", "0,-1"),
    ])
    def test_bad_seed_is_a_usage_error_naming_the_flag(self, tmp_path, monkeypatch, capsys,
                                                      command, flag, value):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, SMALL_CONFIG)
        with pytest.raises(SystemExit) as excinfo:
            main([*command, flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: seed must be a non-negative integer" in captured.err
        assert captured.out == ""  # nothing ran, not even a first seed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_seed_list_skips_blanks(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "table.csv"
        assert main(["bench", "--config", config, "--seeds", "0, 1,",
                     "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh))[1][1] == "2"


class TestConsoleScript:
    def test_module_invocation_smoke(self, tmp_path):
        # the child imports the same package as this process, installed or not
        package_root = os.path.dirname(os.path.dirname(streamacq.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        out = str(tmp_path / "data.csv")
        result = subprocess.run(
            [sys.executable, "-m", "streamacq.cli", "gen", "--out", out,
             "--n", "30", "--p", "2"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path})
        assert result.returncode == 0
        assert "wrote" in result.stdout

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
