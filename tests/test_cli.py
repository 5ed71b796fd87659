import json

import pytest
from click.testing import CliRunner

from ttrspec.cli import cli
from ttrspec.errors import NumericsError
from ttrspec.validation import CheckResult


@pytest.fixture
def runner():
    return CliRunner()


class TestScanCommand:
    def test_csv_schema_and_zero_crossings(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        res = runner.invoke(cli, [
            "scan", "--model", "dho", "--kappa", "0.7",
            "--x-min", "-1", "--x-max", "6", "--points", "1000",
            "--out", str(out)])
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,F,status,branch_id"
        rows = [line.split(",") for line in lines[1:]]
        xs = [float(r[0]) for r in rows]
        fs = [float(r[1]) for r in rows]
        ok = [r[2] == "Converged" for r in rows]
        for l in range(7):
            level = l - 0.49
            near = [i for i, x in enumerate(xs[:-1])
                    if x <= level <= xs[i + 1] and ok[i] and ok[i + 1]]
            assert any(fs[i] * fs[i + 1] <= 0 for i in near)

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["scan", "--model", "dho", "--kappa", "0.7",
                "--x-min", "-1", "--x-max", "2", "--points", "200"]
        a = runner.invoke(cli, args + ["--out", str(tmp_path / "a.csv")])
        b = runner.invoke(cli, args + ["--out", str(tmp_path / "b.csv")])
        assert a.exit_code == b.exit_code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_parity_both_rejected(self, runner):
        res = runner.invoke(cli, ["scan", "--model", "rabi-parity",
                                  "--kappa", "0.7"])
        assert res.exit_code == 2
        assert "parity" in res.output

    def test_json_format(self, runner):
        res = runner.invoke(cli, [
            "scan", "--model", "dho", "--kappa", "0.7",
            "--x-min", "-1", "--x-max", "1", "--points", "50",
            "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["model"] == "dho"
        assert {"x", "F", "status", "branch_id"} <= set(payload["points"][0])


class TestRootsCommand:
    def test_json_quoted_energies(self, runner):
        res = runner.invoke(cli, [
            "roots", "--model", "rabi-parity", "--parity", "both",
            "--kappa", "0.7", "--delta", "0.4",
            "--x-min", "-1", "--x-max", "1", "--points", "1500",
            "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["model"] == "rabi-parity"
        zeros = [r for r in payload["roots"] if r["classification"] == "Zero"]
        energies = {round(r["energy"], 6): r["parity"] for r in zeros}
        assert any(abs(e - (-0.707805)) < 1e-4 and p == -1
                   for e, p in energies.items())
        assert any(abs(e - (-0.4270437)) < 1e-5 and p == 1
                   for e, p in energies.items())
        for r in payload["roots"]:
            assert {"x", "energy", "parity", "residual", "bracket",
                    "classification"} <= set(r)
            assert len(r["bracket"]) == 2

    def test_csv_format(self, runner):
        res = runner.invoke(cli, [
            "roots", "--model", "dho", "--kappa", "0.7",
            "--x-min", "-1", "--x-max", "1", "--points", "400",
            "--format", "csv"])
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0].startswith("x_root,energy,parity")
        assert len(lines) == 3  # two zeros in [-1, 1]

    def test_oracle_only_models_rejected(self, runner):
        for model in ("gen-rabi", "rabi-modified", "jc"):
            res = runner.invoke(cli, ["roots", "--model", model,
                                      "--kappa", "0.7"])
            assert res.exit_code == 2
            assert "validate" in res.output

    def test_unknown_model(self, runner):
        res = runner.invoke(cli, ["roots", "--model", "nosuch"])
        assert res.exit_code == 2

    def test_missing_kappa(self, runner):
        res = runner.invoke(cli, ["roots", "--model", "dho"])
        assert res.exit_code == 2
        assert "kappa" in res.output

    def test_reversed_window(self, runner):
        res = runner.invoke(cli, ["roots", "--model", "dho", "--kappa", "0.7",
                                  "--x-min", "2", "--x-max", "1"])
        assert res.exit_code == 2
        res = runner.invoke(cli, ["scan", "--model", "dho", "--kappa", "0.7",
                                  "--points", "4"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("flags", [
        ["--model", "dho", "--kappa", "nan"],
        ["--model", "dho", "--kappa", "inf"],
        ["--model", "rabi", "--kappa", "-inf"],
        ["--model", "rabi-parity", "--kappa", "0.7", "--delta", "nan"],
        ["--model", "rabi", "--kappa", "0.7", "--delta", "inf"],
        ["--model", "dho", "--kappa", "0.7", "--x-max", "inf"],
        ["--model", "dho", "--kappa", "0.7", "--x-min", "nan"],
    ])
    def test_non_finite_input_rejected(self, runner, flags):
        res = runner.invoke(cli, ["roots"] + flags)
        assert res.exit_code == 2
        assert "finite" in res.output

    def test_numerical_failure_exit_code(self, runner, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericsError("synthetic failure")

        monkeypatch.setattr("ttrspec.cli.resolve_spectrum", boom)
        res = runner.invoke(cli, ["roots", "--model", "dho", "--kappa", "0.7"])
        assert res.exit_code == 3


class TestFlowCommand:
    def test_csv_schema_and_split(self, runner, tmp_path):
        out = tmp_path / "flow.csv"
        res = runner.invoke(cli, [
            "flow", "--model", "rabi-parity", "--kappa", "0.7",
            "--sweep", "delta:0:0.2:3", "--x-min", "-1", "--x-max", "0.3",
            "--points", "600", "--out", str(out)])
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep_value,track_id,x_root,energy,parity,residual"
        rows = [line.split(",") for line in lines[1:]]
        first = [r for r in rows if float(r[0]) == 0.0]
        last = [r for r in rows if float(r[0]) == 0.2]
        assert len(first) == 2 and len(last) == 2
        assert abs(float(first[0][3]) - float(first[1][3])) < 1e-9
        assert abs(float(last[0][3]) - float(last[1][3])) > 0.1

    def test_bad_sweep_spec(self, runner):
        res = runner.invoke(cli, ["flow", "--model", "dho", "--kappa", "0.7",
                                  "--sweep", "delta:0:1"])
        assert res.exit_code == 2
        res = runner.invoke(cli, ["flow", "--model", "dho", "--kappa", "0.7",
                                  "--sweep", "theta:0:1:3"])
        assert res.exit_code == 2
        for spec in ("kappa:-0.5:0.5:3", "delta:0:1:0"):
            res = runner.invoke(cli, ["flow", "--model", "dho", "--kappa", "0.7",
                                      "--sweep", spec])
            assert res.exit_code == 2, spec

    def test_non_finite_input_rejected(self, runner):
        for flags in (["--kappa", "nan", "--sweep", "delta:0:1:3"],
                      ["--kappa", "0.7", "--delta", "inf", "--sweep", "kappa:0.5:1:3"],
                      ["--kappa", "0.7", "--sweep", "kappa:nan:1:3"],
                      ["--kappa", "0.7", "--sweep", "delta:0:inf:3"]):
            res = runner.invoke(cli, ["flow", "--model", "rabi-parity"] + flags)
            assert res.exit_code == 2, flags
            assert "finite" in res.output

    def test_json_format(self, runner):
        res = runner.invoke(cli, [
            "flow", "--model", "dho", "--kappa", "0.7",
            "--sweep", "kappa:0.6:0.8:2", "--x-min", "-1", "--x-max", "0.8",
            "--points", "300", "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["sweep"] == {"name": "kappa", "lo": 0.6, "hi": 0.8,
                                    "steps": 2}
        assert payload["tracks"]


class TestValidateCommand:
    def test_single_model_passes(self, runner):
        res = runner.invoke(cli, ["validate", "--model", "jc"])
        assert res.exit_code == 0
        assert "PASS jc-closed-form" in res.output

    def test_report_written(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(cli, ["validate", "--model", "jc",
                                  "--out", str(out)])
        assert res.exit_code == 0
        report = json.loads(out.read_text())
        assert report[0]["ok"] is True

    def test_failure_exit_code(self, runner, monkeypatch):
        def fake(model=None, cfg=None):
            return [CheckResult("synthetic", False, "forced failure")]

        monkeypatch.setattr("ttrspec.cli.run_validation", fake)
        res = runner.invoke(cli, ["validate"])
        assert res.exit_code == 4
        assert "FAIL synthetic" in res.output
