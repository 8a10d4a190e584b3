"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _parse_params, main
from repro.data import read_csv
from repro.datasets import load_adult
from repro.exceptions import ReproError


class TestParseParams:
    def test_coercion(self):
        params = _parse_params(["theta=0.2", "k=3", "strategy=joint"])
        assert params == {"theta": 0.2, "k": 3, "strategy": "joint"}

    def test_bad_pair(self):
        with pytest.raises(ReproError):
            _parse_params(["thetacomma"])


class TestDatasets:
    def test_lists_all_four(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("housing", "german", "flare", "adult"):
            assert name in out


class TestGenerate:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        path = tmp_path / "adult.csv"
        assert main(["generate", "--dataset", "adult", "--output", str(path)]) == 0
        loaded = read_csv(path, load_adult().schema)
        assert loaded.equals(load_adult())


class TestProtectEvaluate:
    def test_protect_then_evaluate(self, tmp_path, capsys):
        masked_path = tmp_path / "masked.csv"
        code = main(
            [
                "protect",
                "--dataset", "adult",
                "--method", "pram",
                "--param", "theta=0.3",
                "--seed", "7",
                "--output", str(masked_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pram(theta=0.3)" in out
        assert masked_path.exists()

        code = main(
            ["evaluate", "--dataset", "adult", "--masked", str(masked_path), "--score", "max"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "information loss" in out
        assert "ctbil" in out and "rsrl" in out

    def test_protect_unknown_method_fails_cleanly(self, tmp_path, capsys):
        code = main(
            [
                "protect",
                "--dataset", "adult",
                "--method", "oracle",
                "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "unknown method" in capsys.readouterr().err

    def test_protect_custom_attributes(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        code = main(
            [
                "protect",
                "--dataset", "adult",
                "--method", "top_coding",
                "--attributes", "EDUCATION",
                "--output", str(path),
            ]
        )
        assert code == 0
        assert "EDUCATION" in capsys.readouterr().out


class TestEvolve:
    def test_small_evolve_run(self, tmp_path, capsys):
        best_path = tmp_path / "best.csv"
        code = main(
            [
                "evolve",
                "--dataset", "adult",
                "--score", "max",
                "--generations", "8",
                "--seed", "1",
                "--output", str(best_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "improvement %" in out
        assert "initial (o) vs final (x)" in out
        assert best_path.exists()
        loaded = read_csv(best_path, load_adult().schema)
        assert loaded.n_records == 1000


class TestExport:
    def test_export_writes_three_files(self, tmp_path, capsys):
        code = main(
            [
                "export",
                "--dataset", "adult",
                "--generations", "5",
                "--seed", "1",
                "--directory", str(tmp_path / "figs"),
            ]
        )
        assert code == 0
        written = sorted(p.name for p in (tmp_path / "figs").iterdir())
        assert len(written) == 3
        assert any("dispersion" in name for name in written)
        assert any("evolution" in name for name in written)
        assert any("improvements" in name for name in written)


class TestExperiment:
    def test_e3_cli(self, capsys):
        code = main(
            [
                "experiment",
                "--id", "e3",
                "--generations", "5",
                "--seed", "1",
                "--drop-best", "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "E3 flare without best 5%" in out

    @pytest.mark.parametrize("argv, flag", [
        (["--id", "e3", "--dataset", "adult"], "--dataset adult"),
        (["--id", "e1", "--drop-best", "0.5"], "--drop-best"),
        (["--id", "e2", "--drop-best", "0.5"], "--drop-best"),
    ])
    def test_ignored_flags_are_rejected(self, capsys, argv, flag):
        assert main(["experiment", *argv, "--generations", "5"]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
