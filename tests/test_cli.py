"""End-to-end tests for the command-line front end."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import vacuumdata
from vacuumdata.cli import (
    RESIDUAL_GATE,
    ScenarioConfig,
    _build_parser,
    _config_from_args,
    main,
    render_report,
)
from vacuumdata.conformal import build_solution, write_solution_csv
from vacuumdata.errors import InvalidArgumentError
from vacuumdata.radial import Dimension, RadialProfile, build_grid

TOP_LEVEL_KEYS = ("scenario", "n", "params", "mass", "residuals", "decay", "checks", "iterations")


def run_cli(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture(scope="module")
def schw_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("schw")
    out_json = base / "report.json"
    bundle = base / "bundle.csv"
    code = main(
        ["smooth-schwarzschild", "--m", "1.0", "--out", str(out_json), "--profiles", str(bundle)]
    )
    return code, json.loads(out_json.read_text()), bundle, out_json


@pytest.fixture(scope="module")
def free_tau_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("free_tau")
    runs = {}
    for q in ("1.3", "1.5", "2.0"):
        out = base / f"q{q}.json"
        code = main(["free-tau", "--c", "1.0", "--q", q, "--out", str(out)])
        runs[q] = (code, json.loads(out.read_text()))
    return runs


class TestArgumentValidation:
    def test_zero_mass_rejected(self, capsys):
        code, record = run_cli(["smooth-schwarzschild", "--n", "3", "--m", "0"], capsys)
        assert code == 2
        assert record["error"]["type"] == "invalid-argument"
        assert "positive" in record["error"]["message"]

    def test_missing_mass_rejected(self, capsys):
        code, record = run_cli(["smooth-schwarzschild"], capsys)
        assert code == 2
        assert record["error"]["type"] == "invalid-argument"

    @pytest.mark.parametrize("q", ["1.2", "1.25", "3.0", "5.0"])
    def test_q_outside_admissible_interval_rejected(self, q, capsys):
        code, record = run_cli(["free-tau", "--c", "1", "--q", q], capsys)
        assert code == 2
        assert record["error"]["type"] == "invalid-argument"
        assert "q" in record["error"]["message"]

    def test_nonpositive_amplitude_rejected(self, capsys):
        code, record = run_cli(["free-tau", "--c", "0", "--q", "1.5"], capsys)
        assert code == 2
        assert record["error"]["type"] == "invalid-argument"

    def test_low_dimension_rejected(self, capsys):
        code, record = run_cli(["smooth-schwarzschild", "--n", "2", "--m", "1"], capsys)
        assert code == 2

    def test_degenerate_sampling_rejected(self, capsys):
        code, _ = run_cli(["smooth-schwarzschild", "--m", "1", "--points", "0"], capsys)
        assert code == 2
        code, _ = run_cli(["smooth-schwarzschild", "--m", "1", "--h", "0"], capsys)
        assert code == 2

    def test_config_rejects_unknown_command(self):
        with pytest.raises(InvalidArgumentError, match="command"):
            ScenarioConfig(command="plot")

    def test_config_requires_input_bundle(self):
        with pytest.raises(InvalidArgumentError, match="CSV"):
            ScenarioConfig(command="verify")

    def test_config_defaults(self):
        config = ScenarioConfig(command="free-tau", c=1.0, q=1.5)
        assert config.grid == (4000, 1.0e4, 1.01)
        assert config.controls.tol == 1e-10
        assert config.points == 64

    @pytest.mark.parametrize("argv,required", [
        (["smooth-schwarzschild", "--m", "1"], {"m": 1.0}),
        (["free-tau", "--c", "1", "--q", "1.5"], {"c": 1.0, "q": 1.5}),
        (["verify", "bundle.csv"], {"csv_path": "bundle.csv"}),
        (["mass", "bundle.csv"], {"csv_path": "bundle.csv"}),
        (["decay", "bundle.csv"], {"csv_path": "bundle.csv"}),
    ], ids=["smooth-schwarzschild", "free-tau", "verify", "mass", "decay"])
    def test_parsed_options_default_to_dataclass_fields(self, argv, required):
        args = _build_parser().parse_args(argv)
        assert _config_from_args(args) == ScenarioConfig(command=argv[0], **required)


class TestRenderReport:
    def test_scalar_formats(self):
        text = render_report(
            {"a": True, "b": None, "c": 3, "d": 0.1, "e": float("nan"), "f": [1.0, "x"]}
        )
        assert text == '{"a":true,"b":null,"c":3,"d":0.10000000000000001,"e":null,"f":[1,"x"]}\n'

    def test_numpy_scalars(self):
        text = render_report({"a": np.float64(0.5), "b": np.bool_(True), "c": np.int64(2)})
        assert text == '{"a":0.5,"b":true,"c":2}\n'

    def test_nonfinite_floats_become_null(self):
        assert render_report({"x": math.inf}) == '{"x":null}\n'
        assert render_report({"x": -math.inf}) == '{"x":null}\n'

    def test_rejects_unserializable_values(self):
        with pytest.raises(InvalidArgumentError, match="serialize"):
            render_report({"x": object()})


class TestSchwarzschildScenario:
    def test_exit_status_zero(self, schw_run):
        assert schw_run[0] == 0

    def test_report_keys(self, schw_run):
        report = schw_run[1]
        assert tuple(report) == TOP_LEVEL_KEYS
        assert tuple(report["mass"]) == ("standard", "paper_radial", "paper_surface", "diverges")
        assert tuple(report["residuals"]) == ("hamiltonian_sup", "momentum_sup", "order")
        assert tuple(report["decay"]) == ("tau", "metric", "k")
        assert tuple(report["checks"]) == (
            "monotone",
            "identity_residual",
            "lw_identity",
            "divW_identity",
        )

    def test_mass_block(self, schw_run):
        mass = schw_run[1]["mass"]
        assert mass["standard"] == pytest.approx(-1.0, rel=1e-2)
        assert not mass["diverges"]
        # Fixed normalization ratios between the three conventions at n = 3.
        assert mass["paper_radial"] / mass["standard"] == pytest.approx(0.5, rel=1e-6)
        assert mass["paper_surface"] / mass["standard"] == pytest.approx(2.0, rel=1e-6)

    def test_decay_block(self, schw_run):
        decay = schw_run[1]["decay"]
        assert decay["tau"] == pytest.approx(1.5, abs=0.05)
        assert decay["k"] == pytest.approx(1.5, abs=0.1)
        assert decay["metric"] == pytest.approx(1.0, abs=0.1)

    def test_checks_all_true(self, schw_run):
        assert all(v is True for v in schw_run[1]["checks"].values())

    def test_refinement_order_at_least_two(self, schw_run):
        assert schw_run[1]["residuals"]["order"] >= 2.0

    def test_no_classification_key(self, schw_run):
        assert "classification" not in schw_run[1]

    def test_stdout_repeats_written_report_byte_for_byte(self, schw_run, capsys):
        code = main(["smooth-schwarzschild", "--m", "1.0"])
        assert code == 0
        assert capsys.readouterr().out == schw_run[3].read_text()


class TestFreeTauScenarios:
    def test_all_exit_zero(self, free_tau_runs):
        assert [code for code, _ in free_tau_runs.values()] == [0, 0, 0]

    def test_negative_mass_classification(self, free_tau_runs):
        _, report = free_tau_runs["1.5"]
        assert report["classification"] == "negative"
        assert report["mass"]["standard"] == pytest.approx(-2.0 / 9.0, rel=2e-2)

    def test_zero_mass_classification(self, free_tau_runs):
        _, report = free_tau_runs["2.0"]
        assert report["classification"] == "zero"
        assert abs(report["mass"]["standard"]) < 1e-2

    def test_divergent_mass_classification(self, free_tau_runs):
        _, report = free_tau_runs["1.3"]
        assert report["classification"] == "negative-infinite"
        assert report["mass"]["diverges"] is True
        assert report["mass"]["standard"] is None
        assert report["mass"]["paper_surface"] is None

    def test_iteration_count_recorded(self, free_tau_runs):
        for _, report in free_tau_runs.values():
            assert report["iterations"] > 0

    def test_mean_curvature_decay_tracks_q(self, free_tau_runs):
        for q in (1.3, 1.5, 2.0):
            _, report = free_tau_runs[f"{q}"]
            assert report["decay"]["tau"] == pytest.approx(q, abs=0.05)
            assert report["decay"]["k"] == pytest.approx(q, abs=0.1)

    def test_solver_params_echoed(self, free_tau_runs):
        params = free_tau_runs["1.5"][1]["params"]
        assert params["c"] == 1.0
        assert params["q"] == 1.5
        assert params["tol"] == 1e-10
        assert params["grid"] == {"points": 4000, "r_max": 10000.0, "stretch": 1.01}


class TestCsvSubcommands:
    def test_verify_round_trip_reproduces_pass_record(self, schw_run, capsys):
        _, report, bundle, _ = schw_run
        code, reverified = run_cli(["verify", str(bundle)], capsys)
        assert code == 0
        assert reverified["checks"] == report["checks"]
        assert reverified["residuals"]["hamiltonian_sup"] == report["residuals"]["hamiltonian_sup"]
        assert reverified["residuals"]["momentum_sup"] == report["residuals"]["momentum_sup"]
        assert reverified["mass"] is None and reverified["decay"] is None

    def test_mass_subcommand_matches_build_report(self, schw_run, capsys):
        _, report, bundle, _ = schw_run
        code, out = run_cli(["mass", str(bundle)], capsys)
        assert code == 0
        assert out["mass"] == report["mass"]

    def test_decay_subcommand_matches_build_report(self, schw_run, capsys):
        _, report, bundle, _ = schw_run
        code, out = run_cli(["decay", str(bundle)], capsys)
        assert code == 0
        assert out["decay"] == report["decay"]

    def test_flat_bundle_has_zero_residuals(self, tmp_path, capsys):
        grid = build_grid(200, 50.0, 1.05)
        ones = RadialProfile(grid, np.ones(len(grid)))
        zero = RadialProfile(grid, np.zeros(len(grid)))
        path = tmp_path / "flat.csv"
        write_solution_csv(build_solution(Dimension(3), ones, zero), path)
        code, report = run_cli(["verify", str(path)], capsys)
        assert code == 0
        assert report["residuals"]["hamiltonian_sup"] == 0.0
        assert report["residuals"]["momentum_sup"] == 0.0
        assert all(v is True for v in report["checks"].values())

    def test_failed_checks_exit_nonzero(self, tmp_path, capsys):
        grid = build_grid(800, 100.0, 1.02)
        r = grid.nodes
        decreasing = RadialProfile(grid, 1.0 + np.exp(-r))
        zero = RadialProfile(grid, np.zeros(len(grid)))
        path = tmp_path / "bad.csv"
        write_solution_csv(build_solution(Dimension(3), decreasing, zero), path)
        code, report = run_cli(["verify", str(path)], capsys)
        assert code == 1
        assert report["checks"]["monotone"] is False

    def test_missing_file_reports_cleanly(self, capsys):
        code, record = run_cli(["verify", "/nonexistent/bundle.csv"], capsys)
        assert code == 2
        assert record["error"]["type"] == "invalid-argument"

    def test_truncated_bundle_is_a_parse_error(self, schw_run, tmp_path, capsys):
        clipped = tmp_path / "clipped.csv"
        text = schw_run[2].read_text()
        clipped.write_text(text[: len(text) // 2].rsplit(",", 1)[0])
        code, record = run_cli(["verify", str(clipped)], capsys)
        assert code == 2
        assert record["error"]["type"] == "parse-error"
        assert "line" in record["error"]["message"]

    def test_wrong_header_is_a_schema_error(self, tmp_path, capsys):
        path = tmp_path / "wrong.csv"
        path.write_text("r,phi\n0,1\n1,1\n")
        code, record = run_cli(["verify", str(path)], capsys)
        assert code == 2
        assert record["error"]["type"] == "schema-error"


class TestGeneralDimension:
    def test_four_dimensional_exterior(self, capsys):
        code, report = run_cli(["smooth-schwarzschild", "--n", "4", "--m", "1.0"], capsys)
        assert report["decay"]["tau"] == pytest.approx(2.0, abs=0.05)
        assert report["mass"]["standard"] == pytest.approx(-1.0, rel=1e-2)
        assert report["decay"]["metric"] == pytest.approx(2.0, abs=0.1)
        assert all(v is True for v in report["checks"].values())
        # The n = 4 interior is r^8-flat at the origin, so phi - phi(0)
        # drops below float64 resolution on the first nodes and the mean
        # curvature recovered from phi is zero there instead of ~r^3.
        # That thin shell carries a genuine momentum residual of ~1e-2
        # after conformal rescaling, which the gate correctly flags.
        assert code == 1
        assert report["residuals"]["momentum_sup"] > RESIDUAL_GATE
        assert report["residuals"]["hamiltonian_sup"] < RESIDUAL_GATE


class TestModuleEntryPoint:
    """``python -m vacuumdata`` and ``python -m vacuumdata.cli`` run the CLI
    without runpy warnings."""

    @staticmethod
    def run_module(*argv, module="vacuumdata"):
        src = str(pathlib.Path(vacuumdata.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        return subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
        )

    def test_help_exits_zero(self):
        proc = self.run_module("--help")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "smooth-schwarzschild" in proc.stdout

    def test_cli_module_help_exits_zero(self):
        proc = self.run_module("--help", module="vacuumdata.cli")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "smooth-schwarzschild" in proc.stdout

    def test_invalid_argument_record(self):
        proc = self.run_module("free-tau", "--c", "1", "--q", "5")
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["error"]["type"] == "invalid-argument"

    @pytest.mark.parametrize("argv", [
        ("free-tau", "--c", "1", "--q", "1.5", "--damping", "0.7"),
        ("free-tau", "--c", "1", "--q", "abc"),
        ("smooth-schwarzschild", "--m", "1", "--unknown"),
        ("plot",),
        (),
        ("free-tau", "--c", "1", "--q", "1.5", "--tol", "inf"),
    ], ids=["removed-damping", "non-numeric", "unknown-flag", "unknown-command", "no-command",
            "infinite-tol"])
    def test_usage_errors_give_invalid_argument_record(self, argv):
        proc = self.run_module(*argv)
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["error"]["type"] == "invalid-argument"

    @pytest.mark.parametrize("argv", [
        ("smooth-schwarzschild", "--m", "1", "--h", "1e200"),
        ("verify", "{bundle}", "--h", "1e4"),
    ], ids=["smooth-schwarzschild", "verify"])
    def test_step_at_or_above_r_max_gives_invalid_argument_record(self, argv, schw_run):
        proc = self.run_module(*(arg.format(bundle=schw_run[2]) for arg in argv))
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["error"]["type"] == "invalid-argument"

    # at 1.7e308 tau' itself overflows, before any Newton step
    @pytest.mark.parametrize("c", ["1e150", "1e300", "1.7e308"])
    def test_overflowing_seed_gives_singular_system_record(self, c):
        proc = self.run_module("free-tau", "--c", c, "--q", "1.5")
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["error"]["type"] == "singular-system"

    @pytest.fixture(scope="class")
    def n4_run(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("n4")
        out_json, bundle = base / "report.json", base / "bundle.csv"
        main(["free-tau", "--n", "4", "--c", "1", "--q", "2.2", "--grid-max", "1e3",
              "--out", str(out_json), "--profiles", str(bundle)])
        return json.loads(out_json.read_text()), bundle

    @pytest.mark.parametrize("command", ["mass", "decay"])
    @pytest.mark.parametrize("written,read", [(4, 3), (3, 4)], ids=["n4-read-at-n3", "n3-read-at-n4"])
    def test_bundle_read_at_another_dimension_gives_schema_record(self, command, written, read,
                                                                   n4_run, schw_run):
        bundle = n4_run[1] if written == 4 else schw_run[2]
        proc = self.run_module(command, str(bundle), "--n", str(read))
        assert proc.returncode == 2
        assert proc.stderr == ""
        record = json.loads(proc.stdout)["error"]
        assert record["type"] == "schema-error" and f"n={read}" in record["message"]

    def test_bundle_read_at_its_dimension_reproduces_the_report(self, n4_run):
        report, bundle = n4_run
        mass = self.run_module("mass", str(bundle), "--n", "4")
        decay = self.run_module("decay", str(bundle), "--n", "4")
        assert (mass.returncode, mass.stderr, decay.returncode, decay.stderr) == (0, "", 0, "")
        assert json.loads(mass.stdout)["mass"] == report["mass"]
        assert json.loads(decay.stdout)["decay"] == report["decay"]

    def test_verify_still_reports_a_bundle_at_another_dimension(self, n4_run):
        proc = self.run_module("verify", str(n4_run[1]))
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["checks"]["identity_residual"] is False

    # 10^14 nodes or points need more than the 47-bit user address space,
    # so the allocation fails at once on any host, overcommit or not.
    @pytest.mark.parametrize("option,value", [
        ("--grid-max", "inf"),
        ("--stretch", "inf"),
        ("--grid-points", "100000000000000"),
        ("--points", "100000000000000"),
    ], ids=["grid-max-inf", "stretch-inf", "grid-points-1e14", "points-1e14"])
    def test_unusable_grid_or_sample_size_gives_invalid_argument_record(self, option, value):
        proc = self.run_module("smooth-schwarzschild", "--m", "1", option, value)
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["error"]["type"] == "invalid-argument"
