import json

import pytest
from click.testing import CliRunner

from ttrspec.cli import cli
from ttrspec.errors import NumericsError
from ttrspec.validation import CheckResult, run_validation


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
        assert payload["parity"] is None
        assert {"x", "F", "status", "branch_id"} <= set(payload["points"][0])

    def test_json_names_the_sector(self, runner):
        payloads = {}
        for parity in ("plus", "minus"):
            res = runner.invoke(cli, [
                "scan", "--model", "rabi-parity", "--parity", parity,
                "--kappa", "0.7", "--delta", "0.4", "--x-min", "-1",
                "--x-max", "1", "--points", "50", "--format", "json"])
            assert res.exit_code == 0
            payloads[parity] = json.loads(res.output)
        assert payloads["plus"]["parity"] == "plus"
        assert payloads["minus"]["parity"] == "minus"


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

    def test_single_parity_json_params(self, runner):
        res = runner.invoke(cli, [
            "roots", "--model", "rabi-parity", "--parity", "plus",
            "--kappa", "0.7", "--delta", "0.4", "--x-min", "-1", "--x-max", "1",
            "--points", "400", "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["params"] == {"kappa": 0.7, "delta": 0.4}
        assert {r["parity"] for r in payload["roots"]} == {1}

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
        for command in (["roots"], ["scan"], ["flow", "--sweep", "delta:0:0.2:2"]):
            res = runner.invoke(cli, command + ["--model", "rabi", "--x-max", "0",
                                                "--points", "100"])
            assert res.exit_code == 2, command
            assert "--kappa is required" in res.output
        # a kappa sweep sets kappa at every step, so it needs no --kappa
        base = ["flow", "--model", "dho", "--sweep", "kappa:0.6:0.8:2",
                "--x-min", "-1", "--x-max", "0.8", "--points", "100"]
        res = runner.invoke(cli, base)
        assert res.exit_code == 0, res.output
        assert res.output == runner.invoke(cli, base + ["--kappa", "0.7"]).output

    def test_reversed_window(self, runner):
        res = runner.invoke(cli, ["roots", "--model", "dho", "--kappa", "0.7",
                                  "--x-min", "2", "--x-max", "1"], prog_name="ttrspec")
        assert res.exit_code == 2
        # the library's ValueError is shown like the CLI's own usage errors
        assert res.stderr.startswith("Usage: ttrspec roots [OPTIONS]\n")
        res = runner.invoke(cli, ["scan", "--model", "dho", "--kappa", "0.7",
                                  "--points", "4"])
        assert res.exit_code == 2
        # rabi solves in x = E + kappa**2; the message shows no shifted bound
        res = runner.invoke(cli, ["roots", "--model", "rabi", "--kappa", "0.7",
                                  "--x-min", "2", "--x-max", "1"])
        assert res.exit_code == 2
        assert "window must be ascending" in res.stderr
        assert "2.49" not in res.stderr and "x_lo" not in res.stderr

    @pytest.mark.parametrize("flags", [
        ["--model", "dho", "--kappa", "nan"],
        ["--model", "dho", "--kappa", "inf"],
        ["--model", "rabi", "--kappa", "-inf"],
        ["--model", "rabi-parity", "--kappa", "0.7", "--delta", "nan"],
        ["--model", "rabi", "--kappa", "0.7", "--delta", "inf"],
        ["--model", "dho", "--kappa", "0.7", "--x-max", "inf"],
        ["--model", "dho", "--kappa", "0.7", "--x-min", "nan"],
        ["--model", "rabi", "--kappa", "0.7", "--x-min", "-1", "--x-max", "inf"],
    ])
    def test_non_finite_input_rejected(self, runner, flags):
        res = runner.invoke(cli, ["roots"] + flags)
        assert res.exit_code == 2
        assert "finite" in res.output
        # rabi solves in x = E + kappa**2; the message shows no shifted bound
        assert "-0.51" not in res.output and "x_lo" not in res.output

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
        for spec in ("kappa:-0.5:0.5:3", "delta:0:1:0", "omega:1:2:2"):
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

    @pytest.mark.parametrize("model, sweep, flag, values", [
        ("dho", "kappa:0.6:0.8:2", "--kappa", ("0.7", "5")),
        ("rabi-parity", "delta:0:0.2:2", "--delta", ("0.3", "5")),
    ])
    def test_json_params_ignore_the_swept_flag(self, runner, model, sweep, flag,
                                               values):
        # every step sets the swept field, so its flag value changes nothing
        base = ["flow", "--model", model, "--kappa", "0.7", "--sweep", sweep,
                "--x-min", "-1", "--x-max", "0.8", "--points", "200",
                "--format", "json"]
        outs = [runner.invoke(cli, base + [flag, v]) for v in values]
        assert all(res.exit_code == 0 for res in outs), outs[0].output
        assert outs[0].stdout == outs[1].stdout
        name, lo = sweep.split(":")[:2]
        assert json.loads(outs[0].stdout)["params"][name] == float(lo)


@pytest.mark.parametrize("command", [
    ["roots"], ["scan"], ["flow", "--sweep", "kappa:0.5:1:3"]])
@pytest.mark.parametrize("flag, value", [
    ("--omega", "2"), ("--theta", "0.3"),
    ("--rel-tol", "0"), ("--rel-tol", "nan"), ("--rel-tol", "inf"),
    ("--max-terms", "0"),
])
def test_removed_options_rejected(runner, command, flag, value):
    res = runner.invoke(cli, command + ["--model", "dho", "--kappa", "0.7",
                                        flag, value])
    assert res.exit_code == 2
    assert "No such option" in res.output and flag in res.output


@pytest.mark.parametrize("command", [
    ["roots"], ["flow", "--sweep", "kappa:0.5:1:3"], ["scan"]])
@pytest.mark.parametrize("value", ["nan", "inf", "-1e-10"])
def test_bad_x_tol_rejected(runner, command, value):
    # the bracket tolerance is fixed, so no command takes --x-tol at all
    res = runner.invoke(cli, command + ["--model", "dho", "--kappa", "0.7",
                                        "--x-tol", value])
    assert res.exit_code == 2
    assert "No such option" in res.output and "--x-tol" in res.output


@pytest.mark.parametrize("command", [
    ["roots"], ["scan"], ["flow", "--sweep", "kappa:0.5:1:3"]])
@pytest.mark.parametrize("model, flag, value", [
    ("dho", "--delta", "0.4"),
    ("dho", "--parity", "plus"),
    ("dho", "--parity", "minus"),
    ("rabi", "--parity", "plus"),
    ("rabi", "--parity", "minus"),
])
def test_unread_model_flags_rejected(runner, command, model, flag, value):
    res = runner.invoke(cli, command + ["--model", model, "--kappa", "0.7",
                                        "--x-max", "0", "--points", "100",
                                        flag, value])
    assert res.exit_code == 2
    assert f"{flag} does not apply to model '{model}'" in res.output


_SCAN = ["scan", "--model", "dho", "--kappa", "0.7"]
_FLOW = ["flow", "--model", "dho", "--kappa", "0.7", "--sweep", "kappa:0.5:1:3"]


@pytest.mark.parametrize("target, command, error, code", [
    pytest.param("run_scan", _SCAN, NumericsError, 3, id="run_scan-command0"),
    pytest.param("run_flow", _FLOW, NumericsError, 3, id="run_flow-command1"),
    pytest.param("run_validation", ["validate"], NumericsError, 3,
                 id="run_validation-command2"),
    pytest.param("run_scan", _SCAN, ValueError, 2, id="run_scan-ValueError"),
    pytest.param("resolve_spectrum", ["roots", "--model", "dho", "--kappa", "0.7"],
                 ValueError, 2, id="resolve_spectrum-ValueError"),
    pytest.param("run_flow", _FLOW, ValueError, 2, id="run_flow-ValueError"),
])
def test_numerics_error_exits_3_from_every_command(runner, monkeypatch, target,
                                                   command, error, code):
    # a library ValueError is an argument error: exit 2 with its message
    def boom(*args, **kwargs):
        raise error("synthetic failure")

    monkeypatch.setattr(f"ttrspec.cli.{target}", boom)
    res = runner.invoke(cli, command, prog_name="ttrspec")
    assert res.exit_code == code
    usage = (f"Usage: ttrspec {command[0]} [OPTIONS]\n"
             f"Try 'ttrspec {command[0]} --help' for help.\n\n")
    assert res.stderr == {3: "error: ", 2: usage + "Error: "}[code] + "synthetic failure\n"
    assert res.stdout == ""


class TestValidateCommand:
    def test_whole_battery_passes(self):
        results = run_validation()
        assert len(results) == 11
        assert [r for r in results if not r.ok] == []

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
        def fake(model=None):
            return [CheckResult("synthetic", False, "forced failure")]

        monkeypatch.setattr("ttrspec.cli.run_validation", fake)
        res = runner.invoke(cli, ["validate"])
        assert res.exit_code == 4
        assert "FAIL synthetic" in res.output
