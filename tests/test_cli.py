"""End-to-end tests for the command-line front end."""

import collections
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import vacuumdata
from vacuumdata import cli, conformal, radial, verify
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
from vacuumdata.solver import SolveControls

TOP_LEVEL_KEYS = ("scenario", "n", "params", "mass", "residuals", "decay", "checks", "iterations")


def run_cli(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def flat_bundle(tmp_path, r_max):
    """A bundle of flat data (phi = 1, tau = 0) on a 200-node grid ending at r_max."""
    grid = build_grid(200, r_max, 1.05)
    ones = RadialProfile(grid, np.ones(len(grid)))
    zero = RadialProfile(grid, np.zeros(len(grid)))
    path = tmp_path / "flat.csv"
    write_solution_csv(build_solution(Dimension(3), ones, zero), path)
    return path


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

    def test_zero_step_budget_rejected(self, capsys):
        # the solver fields are checked before every other field, so a
        # bad c given as well leaves the record unchanged
        for extra in ([], ["--c", "-1"]):
            code, record = run_cli(["free-tau", "--c", "1", "--q", "1.5", "--max-iter", "0", *extra], capsys)
            assert code == 2
            assert record["error"] == {
                "type": "invalid-argument", "message": "max_newton must be at least 1, got 0"
            }

    @pytest.mark.parametrize("field,value", [
        ("max_newton", 2.5), ("max_newton", True), ("points", 2.5), ("points", True),
    ], ids=["max-newton-2.5", "max-newton-true", "points-2.5", "points-true"])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(InvalidArgumentError) as info:
            cli.run(ScenarioConfig(command="free-tau", c=1.0, q=1.5, **{field: value}))
        assert str(info.value) == f"{field} must be an integer, got {value!r}"

    def test_low_dimension_rejected(self, capsys):
        code, record = run_cli(["smooth-schwarzschild", "--n", "2", "--m", "1"], capsys)
        assert code == 2

    def test_degenerate_sampling_rejected(self, capsys):
        code, _ = run_cli(["smooth-schwarzschild", "--m", "1", "--points", "0"], capsys)
        assert code == 2
        code, _ = run_cli(["smooth-schwarzschild", "--m", "1", "--h", "0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv,got", [
        (["smooth-schwarzschild", "--m", "1", "--h", "1e200"], "1e+200"),
        (["smooth-schwarzschild", "--m", "1", "--h", "10000"], "10000.0"),
        (["free-tau", "--c", "1", "--q", "1.5", "--h", "1e4"], "10000.0"),
        (["smooth-schwarzschild", "--m", "1", "--grid-max", "50", "--h", "50"], "50.0"),
    ], ids=["ss-1e200", "ss-at-grid-max", "free-tau-at-grid-max", "ss-at-grid-max-50"])
    def test_step_at_or_above_grid_max_refused_before_any_work(self, argv, got, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("a grid was built before the step was checked")

        monkeypatch.setattr(cli, "build_grid", no_work)
        code = main(argv)
        r_max = "50" if "50" in argv else "10000"
        record = {"error": {"type": "invalid-argument", "message": f"h must lie in (0, r_max {r_max}), got {got}"}}
        assert code == 2
        assert capsys.readouterr().out == render_report(record)

    def test_config_rejects_unknown_command(self):
        with pytest.raises(InvalidArgumentError, match="command"):
            ScenarioConfig(command="plot")

    def test_config_requires_input_bundle(self):
        with pytest.raises(InvalidArgumentError, match="CSV"):
            ScenarioConfig(command="verify")

    def test_config_defaults(self):
        config = ScenarioConfig(command="free-tau", c=1.0, q=1.5)
        assert (config.grid_points, config.r_max, config.stretch) == (4000, 1.0e4, 1.01)
        assert (config.tol, config.max_newton) == (SolveControls.tol, SolveControls.max_newton) == (1e-10, 40)
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

    def test_every_free_tau_option_fills_its_field(self):
        # each value differs from its default, so a flag wired to another
        # field, or left at its default, changes the config
        argv = ["free-tau", "--n", "4", "--c", "0.5", "--q", "2.5", "--grid-points", "300",
                "--grid-max", "500", "--stretch", "1.02", "--tol", "1e-8", "--max-iter", "7",
                "--points", "9", "--h", "0.002", "--out", "r.json",
                "--profiles", "b.csv"]
        expected = ScenarioConfig(
            command="free-tau", n=4, c=0.5, q=2.5, grid_points=300, r_max=500.0, stretch=1.02,
            tol=1e-8, max_newton=7, points=9, h=0.002, out_json="r.json", out_csv="b.csv",
        )
        assert _config_from_args(_build_parser().parse_args(argv)) == expected

    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        assert _build_parser() is _build_parser()
        argv = ["smooth-schwarzschild", "--m", "1"]
        code, report = run_cli([*argv, "--grid-max", "1e3"], capsys)
        assert code in (0, 1) and report["params"]["grid"]["r_max"] == 1000.0
        code, report = run_cli(argv, capsys)
        assert code in (0, 1) and report["params"]["grid"]["r_max"] == 10000.0

    GRID_DEFAULTS = (
        "radial grid size (default 4000)",
        "outer radius (default 10000)",
        "geometric node ratio in the far field (default 1.01)",
    )
    SOLVER_DEFAULTS = ("solver tolerance (default 1e-10)", "Newton step budget (default 40)")

    @pytest.mark.parametrize("command,shown", [
        ("smooth-schwarzschild", GRID_DEFAULTS),
        ("free-tau", GRID_DEFAULTS + SOLVER_DEFAULTS),
    ], ids=["smooth-schwarzschild", "free-tau"])
    def test_help_shows_each_default(self, command, shown, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for phrase in shown:
            assert phrase in text

    @pytest.mark.parametrize("command", [None, *cli._COMMAND_TABLE])
    def test_help_text_equals_a_fresh_parser(self, command, capsys):
        argv = ["--help"] if command is None else [command, "--help"]
        with pytest.raises(SystemExit):
            _build_parser.__wrapped__().parse_args(argv)
        fresh = capsys.readouterr().out
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
            assert capsys.readouterr().out == fresh


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


def test_library_order_study_equals_the_report(schw_run, schwarzschild_data, schwarzschild_refined_data):
    """constraint_report at its default step runs the same order study as
    the CLI: the momentum residual at 1e-2 and 5e-3, whatever h is."""
    pts = verify.default_sample_points(Dimension(3))
    rep = verify.constraint_report(schwarzschild_data, pts, refined=schwarzschild_refined_data)
    assert rep.convergence_order == schw_run[1]["residuals"]["order"]
    assert rep.convergence_order == pytest.approx(3.8956386102723033, rel=1e-12)


def test_one_coarse_hamiltonian_residual_per_run(monkeypatch, capsys):
    """The order study reuses the level report's coarse Hamiltonian residual,
    which does not depend on the stencil step."""
    grids = []
    original = verify.hamiltonian_residual

    def counted(data, points):
        grids.append(len(data.phi.grid))
        return original(data, points)

    monkeypatch.setattr(verify, "hamiltonian_residual", counted)
    code, report = run_cli(["smooth-schwarzschild", "--m", "1"], capsys)
    assert code == 0 and report["residuals"]["order"] > 2
    assert grids == [4000, 8000]


def field_counts(stencil, polyfit, fornberg, tau, f, w):
    return {"stencil": stencil, "polyfit": polyfit, "fornberg": fornberg,
            "tau_from_phi": tau, "divergence_source": f, "vector_potential": w}


DERIVED_FIELD_COUNTS = pytest.mark.parametrize("argv,expected", [
    (["smooth-schwarzschild", "--m", "1"], field_counts(7, 3, 4, tau=2, f=1, w=1)),
    (["free-tau", "--c", "1", "--q", "1.5"], field_counts(4, 3, 2, tau=1, f=1, w=1)),
    (["verify", "{bundle}"], field_counts(4, 0, 2, tau=1, f=1, w=0)),
    (["mass", "{bundle}"], field_counts(2, 0, 1, tau=1, f=0, w=0)),
    (["decay", "{bundle}"], field_counts(2, 3, 1, tau=1, f=0, w=0)),
], ids=["smooth-schwarzschild", "free-tau", "verify", "mass", "decay"])


def counted_derived_fields(monkeypatch, counts):
    """Count _apply_window, _fornberg_weights, np.polyfit and
    vector_potential calls, and the tau_from_phi and divergence_source
    calls that evaluate (miss phi's memo), into ``counts``."""

    def counted(name, fn, memo_key=None):
        def wrapper(*args, **kwargs):
            # (dim, phi, *profiles) are memoised under (memo_key, n, *profiles)
            counts[name] += memo_key is None or (memo_key, args[0].n, *args[2:]) not in args[1]._memo
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(radial, "_apply_window", counted("stencil", radial._apply_window))
    monkeypatch.setattr(radial, "_fornberg_weights", counted("fornberg", radial._fornberg_weights))
    monkeypatch.setattr(np, "polyfit", counted("polyfit", np.polyfit))
    for name, memo_key in (("tau_from_phi", "tau"), ("divergence_source", "f"), ("vector_potential", None)):
        fn = getattr(conformal, name)
        for module in (conformal, verify, cli):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn, memo_key))


def cli_argv(argv, tmp_path, schw_run):
    if argv[1] == "{bundle}":
        return [argv[0], str(schw_run[2])]
    return [*argv, "--profiles", str(tmp_path / "bundle.csv")]


@DERIVED_FIELD_COUNTS
def test_each_derived_field_computed_once(monkeypatch, capsys, tmp_path, schw_run, argv, expected):
    """Each derivative is taken once per profile (phi', phi'', tau' of every
    solution and the coarse w'), the decay fits are the only tail fits,
    and each grid runs Fornberg's recursion once for its stencils and once
    for its quadrature, here from an empty operator cache.  tau is derived
    once per phi and f once per (phi, tau), so the checks reuse what the
    build derived; the refined grid of smooth-schwarzschild derives tau
    but builds no w.  The bundle commands read the smooth-schwarzschild
    --m 1 bundle.  The discrete Lichnerowicz rows of the solvers apply
    conformal's own _apply_window (no derivative), which is not counted."""
    monkeypatch.setattr(radial, "_OPERATORS", collections.OrderedDict())
    counts = dict.fromkeys(expected, 0)
    counted_derived_fields(monkeypatch, counts)
    code, _ = run_cli(cli_argv(argv, tmp_path, schw_run), capsys)
    assert code == 0
    assert counts == expected


@DERIVED_FIELD_COUNTS
def test_warm_rerun_builds_no_operators(monkeypatch, capsys, tmp_path, schw_run, argv, expected):
    """A second identical run in one process reuses the first run's
    operators: no Fornberg recursion, the same derivatives and tail fits,
    and the same stdout and bundle bytes."""
    monkeypatch.setattr(radial, "_OPERATORS", collections.OrderedDict())
    argv = cli_argv(argv, tmp_path, schw_run)
    bundle = tmp_path / "bundle.csv"
    counts, runs = {}, []
    counted_derived_fields(monkeypatch, counts)
    for _ in range(2):
        counts.update(dict.fromkeys(expected, 0))
        code = main(argv)
        runs.append((code, capsys.readouterr().out, bundle.read_bytes() if bundle.exists() else None, dict(counts)))
    (cold_code, cold_out, cold_bundle, cold), (warm_code, warm_out, warm_bundle, warm) = runs
    assert cold == expected and warm == {**expected, "fornberg": 0}
    assert cold_code == warm_code == 0
    assert warm_out == cold_out and warm_bundle == cold_bundle


def test_cached_operators_are_read_only(monkeypatch, capsys):
    """Every array the operator caches hold after a smooth-schwarzschild and
    a free-tau run is read-only, in tuples and dataclass fields too: grids
    on the same nodes share them, so a write would reach every later run."""
    monkeypatch.setattr(radial, "_OPERATORS", collections.OrderedDict())
    assert run_cli(["smooth-schwarzschild", "--m", "1"], capsys)[0] == 0
    assert run_cli(["free-tau", "--c", "1", "--q", "1.5"], capsys)[0] == 0
    arrays, keys = [], set()

    def walk(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, (tuple, list)):
            for item in value:
                walk(item)
        elif dataclasses.is_dataclass(value):
            for field in dataclasses.fields(value):
                walk(getattr(value, field.name))

    for cache in radial._OPERATORS.values():
        keys |= set(cache)
        for value in cache.values():
            walk(value)
    assert {"deriv", "quad", ("helmholtz", 3), ("coupled", 3)} <= keys
    assert arrays and not [a for a in arrays if a.flags.writeable]


def test_only_solves_build_helmholtz_rows(monkeypatch, capsys, tmp_path):
    """The Helmholtz rows of the Lichnerowicz equation are built for the
    Newton solves alone: a smooth-schwarzschild run and verify on its
    bundle leave none in any operator cache."""
    monkeypatch.setattr(radial, "_OPERATORS", collections.OrderedDict())
    bundle = str(tmp_path / "bundle.csv")
    assert run_cli(["smooth-schwarzschild", "--m", "1", "--profiles", bundle], capsys)[0] == 0
    assert run_cli(["verify", bundle], capsys)[0] == 0
    keys = {key for cache in radial._OPERATORS.values() for key in cache}
    assert "deriv" in keys and not [key for key in keys if key[0] == "helmholtz"]


def test_window_index_and_radii_text_are_built_only_where_read(monkeypatch, capsys, tmp_path):
    """Stencils are applied by slicing: after smooth-schwarzschild --m 1 no
    node set holds the window index, and only the bundle's grid holds the
    text of its radii.  A free-tau solve builds the index once, for its
    band layouts."""
    monkeypatch.setattr(radial, "_OPERATORS", collections.OrderedDict())
    builds = collections.Counter()
    cached = radial.RadialGrid._cached

    def counted(grid, key, build):
        builds[key] += key not in grid._cache
        return cached(grid, key, build)

    monkeypatch.setattr(radial.RadialGrid, "_cached", counted)
    bundle = tmp_path / "bundle.csv"
    assert run_cli(["smooth-schwarzschild", "--m", "1", "--profiles", str(bundle)], capsys)[0] == 0
    assert len(radial._OPERATORS) == 2 and builds[("window", 7)] == 0
    holders = [nodes for nodes, cache in radial._OPERATORS.items() if "g17_radii" in cache]
    assert holders == [conformal._read_csv_table(bundle, "r,phi,dphi,tau,A,w,lw")[:, 0].tobytes()]
    assert builds["g17_radii"] == 1
    assert run_cli(["free-tau", "--c", "1", "--q", "1.5"], capsys)[0] == 0
    assert builds[("window", 7)] == 1


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


def _assert_same_report(documented, live, where="report"):
    """Same keys in the same order, floats within 1e-12 relative."""
    if isinstance(documented, dict):
        assert isinstance(live, dict) and list(documented) == list(live), where
        for key in documented:
            _assert_same_report(documented[key], live[key], f"{where}.{key}")
    elif isinstance(documented, float) or isinstance(live, float):
        assert math.isclose(documented, live, rel_tol=1e-12), where
    else:
        assert documented == live, where


def test_readme_library_example_runs():
    """The python block under "## Library" runs as printed, warnings as errors."""
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    start = readme.index("```python\n", readme.index("\n## Library\n")) + len("```python\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", readme[start:readme.index("```", start)]],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    mass, residual = proc.stdout.splitlines()
    assert mass.startswith("-0.2222")
    assert abs(float(residual.strip("[]"))) < 1e-9


def test_readme_output_matches_a_live_run(free_tau_runs):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    intro = readme.index("Output of `free-tau --c 1 --q 1.5`")
    start = readme.index("```json\n", intro) + len("```json\n")
    documented = json.loads(readme[start:readme.index("```", start)])
    code, live = free_tau_runs["1.5"]
    assert code == 0
    _assert_same_report(documented, live)


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
        code, report = run_cli(["verify", str(flat_bundle(tmp_path, 100.0))], capsys)
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


# one column of the smooth-schwarzschild bundle edited: (column, new text)
CRAFTED_BUNDLES = {
    "tau-1e308": (3, lambda text: "1e308"),
    "phi-times-1e200": (1, lambda text: repr(float(text) * 1e200)),
    "r-times-1e300": (0, lambda text: repr(float(text) * 1e300)),
    "r-times-1e-300": (0, lambda text: repr(float(text) * 1e-300)),
}


def crafted_bundle(schw_run, edit, directory):
    """The smooth-schwarzschild --m 1 bundle with one column edited."""
    column, change = CRAFTED_BUNDLES[edit]
    header, *lines = schw_run[2].read_text().splitlines()
    rows = []
    for line in lines:
        fields = line.split(",")
        fields[column] = change(fields[column])
        rows.append(",".join(fields))
    bundle = directory / f"{edit}.csv"
    bundle.write_text("\n".join([header, *rows]) + "\n")
    return bundle


def run_warnings_as_errors(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, json.loads(captured.out)


class TestOutOfRangeInput:
    """Input whose arithmetic leaves the double range ends in an error
    record, with nothing on stderr even when warnings are errors."""

    @pytest.mark.parametrize("command", ["verify", "mass", "decay"])
    @pytest.mark.parametrize("edit", list(CRAFTED_BUNDLES))
    def test_crafted_bundle_gives_error_record(self, edit, command, schw_run, tmp_path, capsys):
        bundle = crafted_bundle(schw_run, edit, tmp_path)
        code, record = run_warnings_as_errors([command, str(bundle)], capsys)
        assert code == 2
        # at tau = 1e308 mass and decay refuse the bundle on its identity first
        assert record["error"]["type"] in ("invalid-argument", "schema-error")

    def test_overflowing_power_gives_numpy_style_message(self, schw_run, tmp_path, capsys):
        bundle = crafted_bundle(schw_run, "phi-times-1e200", tmp_path)
        code, record = run_warnings_as_errors(["verify", str(bundle)], capsys)
        assert code == 2
        assert record == {"error": {
            "type": "invalid-argument",
            "message": "arithmetic on the input failed: overflow encountered in power",
        }}

    @pytest.mark.parametrize("command", ["mass", "decay"])
    def test_bundle_failing_at_every_dimension_names_none(self, command, schw_run, tmp_path, capsys):
        bundle = crafted_bundle(schw_run, "tau-1e308", tmp_path)
        code, record = run_warnings_as_errors([command, str(bundle)], capsys)
        assert code == 2
        assert record == {"error": {
            "type": "schema-error",
            "message": "bundle fails the mean-curvature identity at n=3 (residual 1e+308)"
                       " and at every other n from 3 to 10",
        }}

    def test_singular_matrix_gives_invalid_argument_record(self, monkeypatch, capsys):
        def singular(config):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "run", singular)
        code, record = run_cli(["smooth-schwarzschild", "--m", "1"], capsys)
        assert code == 2
        assert record["error"]["type"] == "invalid-argument"
        assert "Singular matrix" in record["error"]["message"]


def test_dimension_probe_that_raises_counts_as_a_failure(schw_run, monkeypatch, capsys):
    def identity(dim, phi, tau):
        if dim.n == 3:
            return 1.0
        raise FloatingPointError("overflow encountered in multiply")

    monkeypatch.setattr(cli, "_identity_residual", identity)
    code, record = run_cli(["mass", str(schw_run[2])], capsys)
    assert code == 2
    assert record["error"]["message"] == (
        "bundle fails the mean-curvature identity at n=3 (residual 1) and at every other n from 3 to 10"
    )


class TestResidualSampleOffTheGrid:
    """The residual sample reaches r = 50, and the momentum stencil steps
    2h(1 + r) past it; a grid that ends before that gives an
    evaluation-out-of-range record, never values read off fitted tails."""

    @pytest.mark.parametrize("argv,r", [
        (["free-tau", "--c", "1", "--q", "1.5", "--grid-max", "40"], "50"),
        (["smooth-schwarzschild", "--m", "1", "--grid-max", "40"], "50"),
        (["smooth-schwarzschild", "--m", "1", "--h", "200"], "20441"),
    ], ids=["free-tau-grid-max-40", "smooth-schwarzschild-grid-max-40", "smooth-schwarzschild-h-200"])
    def test_build_gives_error_record(self, argv, r, capsys):
        r_max = "40" if "--grid-max" in argv else "10000"
        code, record = run_cli(argv, capsys)
        assert code == 2
        assert record == {"error": {"type": "evaluation-out-of-range",
                                    "message": f"evaluation at r={r} beyond r_max={r_max}"}}

    def test_verify_on_a_bundle_ending_at_50_gives_error_record(self, tmp_path, capsys):
        code, record = run_cli(["verify", str(flat_bundle(tmp_path, 50.0))], capsys)
        assert code == 2
        assert record == {"error": {"type": "evaluation-out-of-range",
                                    "message": "evaluation at r=50.0836 beyond r_max=50"}}


class TestMatchingRadius:
    """The radial mass limit samples from r_max/16 out, so the matching
    radius m^{1/(n-2)} must lie inside it."""

    def test_radius_past_the_far_field_refused(self, capsys):
        code, record = run_cli(["smooth-schwarzschild", "--m", "2000"], capsys)
        assert code == 2
        assert record["error"]["type"] == "invalid-argument"
        assert "matching radius" in record["error"]["message"]

    def test_radius_inside_the_far_field_gives_the_mass(self, capsys):
        _, report = run_cli(["smooth-schwarzschild", "--m", "600"], capsys)
        assert report["mass"]["standard"] == pytest.approx(-600.0, rel=1e-8)


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

    @pytest.mark.parametrize("command", ["smooth-schwarzschild", "free-tau", "verify", "mass", "decay"])
    def test_subcommand_help_exits_zero(self, command):
        proc = self.run_module(command, "--help")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith(f"usage: vacuumdata {command} ")

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
        ("free-tau", "--c", "1", "--q", "1.5", "--continuation", "2"),
    ], ids=["removed-damping", "non-numeric", "unknown-flag", "unknown-command", "no-command",
            "infinite-tol", "removed-continuation"])
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

    @pytest.mark.parametrize("command", ["verify", "mass", "decay"])
    def test_non_ascii_byte_gives_parse_error_record(self, command, schw_run, tmp_path):
        lines = schw_run[2].read_bytes().split(b"\n")
        lines[4] = lines[4][:3] + b"\xff" + lines[4][3:]
        bundle = tmp_path / "non-ascii.csv"
        bundle.write_bytes(b"\n".join(lines))
        proc = self.run_module(command, str(bundle))
        assert proc.returncode == 2
        assert proc.stderr == ""
        record = json.loads(proc.stdout)["error"]
        assert record["type"] == "parse-error"
        assert record["message"].startswith("line 5:")

    # at 1.7e308 tau' itself overflows, before any Newton step
    @pytest.mark.parametrize("c", ["1e150", "1e300", "1.7e308"])
    def test_overflowing_seed_gives_singular_system_record(self, c):
        proc = self.run_module("free-tau", "--c", c, "--q", "1.5")
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["error"]["type"] == "singular-system"

    # README "Numerical limits": phi' sinks below the rounding floor of the
    # far field, so the decay fits degenerate and the gates fail, but the
    # run still ends in a report
    @pytest.mark.parametrize("argv,mass,divw", [
        (["--n", "5", "--m", "1"], -1.0252679, True),
        (["--n", "6", "--m", "1", "--grid-max", "1e3"], -1.1567949, False),
    ], ids=["n5", "n6-grid-max-1e3"])
    def test_high_dimension_gives_a_failing_report(self, argv, mass, divw):
        proc = self.run_module("smooth-schwarzschild", *argv)
        assert proc.returncode == 1
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        assert tuple(report) == TOP_LEVEL_KEYS
        assert report["mass"]["standard"] == pytest.approx(mass, abs=1e-7)
        assert report["decay"] == {"tau": None, "metric": None, "k": None}
        assert report["checks"] == {"monotone": True, "identity_residual": True, "lw_identity": True,
                                    "divW_identity": divw}

    def test_n6_on_the_default_grid_gives_no_tail_record(self):
        proc = self.run_module("smooth-schwarzschild", "--n", "6", "--m", "1")
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["error"]["type"] == "no-tail"

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
        assert record["type"] == "schema-error"
        assert record["message"].startswith(f"bundle fails the mean-curvature identity at n={read} (residual ")
        # the writer's n is the only one from 3 to 10 at which the bundle passes
        assert record["message"].endswith(f" but passes it at n={written}; was it written with --n {written}?")

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
