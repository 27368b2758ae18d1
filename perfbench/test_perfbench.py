"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- the generator ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    def make(seed):
        return workloads.WORKLOADS[name](seed, str(tmp_path)).inputs

    assert make(7) == make(7)
    assert make(7) != make(8)


def test_generator_keeps_each_stratum():
    for seed in range(50):
        build = workloads.build_inputs(seed)
        bands = sorted(
            next(i for i, (lo, hi) in enumerate(
                (workloads.M_FAIL_LOW, workloads.M_PASS, workloads.M_FAIL_HIGH))
                 if lo <= inp["m"] <= hi)
            for inp in build if inp["n"] == 3
        )
        assert bands == [0, 1, 2]
        assert [inp["n"] for inp in build].count(4) == 1

        sweep = workloads.tau_sweep_inputs(seed)
        n3 = [inp for inp in sweep if inp["n"] == 3]
        assert len(n3) == 18 and len(sweep) == 24
        assert sum(inp["q"] >= workloads.Q3_FAIL[0] for inp in n3) == 3
        for inp in sweep:
            assert workloads.C_RANGE[0] <= inp["c"] <= workloads.C_RANGE[1]
            assert (inp["n"] + 2) / 4 < inp["q"] < inp["n"]


def test_recheck_n4_band_edge_writes_a_bundle(tmp_path):
    # recheck's set-up needs a bundle from every input; at small c the
    # no-tail region starts near q = 2.8
    bundle = tmp_path / "edge.csv"
    code, text = workloads.call_cli(["free-tau", "--n", "4", "--c", repr(workloads.C_RANGE[0]),
                                     "--q", repr(workloads.Q4_BUNDLE[1]),
                                     "--profiles", str(bundle)])
    assert "error" not in json.loads(text) and bundle.exists()


# -- the oracles ------------------------------------------------------------

_BUILD_INPUT = {"n": 3, "m": 1.0}
_BUILD_REPORT = {
    "scenario": "smooth-schwarzschild",
    "mass": {"standard": -1.0000000110688327, "paper_radial": -0.5,
             "paper_surface": -2.0, "diverges": False},
    "residuals": {"hamiltonian_sup": 1.5e-4, "momentum_sup": 1.5e-4, "order": 2.0},
    "decay": {"tau": 1.5011, "metric": 0.9994, "k": 1.4996},
    "checks": {"monotone": True, "identity_residual": True, "lw_identity": True,
               "divW_identity": True},
}


def test_build_oracle_passes_a_good_report():
    assert workloads.build_verdict(_BUILD_INPUT, 0, _BUILD_REPORT) == []


def test_build_oracle_flags_mass_off_by_two_percent():
    report = copy.deepcopy(_BUILD_REPORT)
    report["mass"]["standard"] *= 1.02
    reasons = workloads.build_verdict(_BUILD_INPUT, 0, report)
    assert len(reasons) == 1 and reasons[0].startswith("mass.standard")


def test_build_oracle_flags_gate_and_error_record():
    report = copy.deepcopy(_BUILD_REPORT)
    report["residuals"]["momentum_sup"] = 5.5e-3
    assert "residuals.momentum_sup" in workloads.build_verdict(_BUILD_INPUT, 1, report)[0]
    error = {"error": {"type": "no-tail", "message": "x"}}
    assert workloads.build_verdict(_BUILD_INPUT, 2, error) == [
        "smooth-schwarzschild: exit 2, error record no-tail"
    ]


_SWEEP_INPUT = {"n": 3, "c": 1.0, "q": 1.5}
_SWEEP_REPORT = {
    "converged": True,
    "iterations": 22,
    "mass": {"standard": -0.2222, "paper_radial": -0.1111, "paper_surface": -0.4444,
             "diverges": False},
    "decay": {"tau": 1.4999986567210977, "metric": 0.999, "k": 1.4989724026823552},
    "checks": {"monotone": True, "identity_residual": 5.6e-10, "lw_identity": 1.2e-16,
               "divW_identity": 7.2e-10},
    "tail_limit": workloads.tail_limit_prediction(3, 1.0, 1.5) * 1.001,
}


def test_tau_sweep_oracle_passes_a_good_report():
    assert workloads.tau_sweep_verdict(_SWEEP_INPUT, _SWEEP_REPORT) == []


@pytest.mark.parametrize(
    "path, value, expected",
    [
        (("tail_limit",), workloads.tail_limit_prediction(3, 1.0, 1.5) * 1.03, "tail_limit"),
        (("decay", "k"), 1.38, "decay.k"),
        (("decay", "tau"), 1.44, "decay.tau"),
        (("checks", "divW_identity"), 2e-5, "checks.divW_identity"),
        (("converged",), False, "solve did not converge"),
    ],
)
def test_tau_sweep_oracle_flags_perturbed_report(path, value, expected):
    report = copy.deepcopy(_SWEEP_REPORT)
    target = report
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    reasons = workloads.tau_sweep_verdict(_SWEEP_INPUT, report)
    assert len(reasons) == 1 and reasons[0].startswith(expected)


def _recheck_results(build_report):
    verify = {"residuals": dict(build_report["residuals"], order=None),
              "checks": dict(build_report["checks"])}
    return {
        "verify": (0, verify),
        "mass": (0, {"mass": dict(build_report["mass"])}),
        "decay": (0, {"decay": dict(build_report["decay"])}),
    }


def test_recheck_oracle_passes_identical_blocks():
    assert workloads.recheck_verdict(_BUILD_REPORT, _recheck_results(_BUILD_REPORT)) == []


def test_recheck_oracle_flags_mass_off_by_two_percent():
    results = _recheck_results(_BUILD_REPORT)
    results["mass"][1]["mass"]["standard"] *= 1.02
    reasons = workloads.recheck_verdict(_BUILD_REPORT, results)
    assert len(reasons) == 1 and reasons[0].startswith("mass.mass.standard")


def test_recheck_oracle_flags_a_last_digit_change_beyond_1e_12():
    results = _recheck_results(_BUILD_REPORT)
    results["decay"][1]["decay"]["k"] *= 1 + 1e-11
    assert workloads.recheck_verdict(_BUILD_REPORT, results)[0].startswith("decay.decay.k")


# -- the tracer -------------------------------------------------------------

_SMALL = ["--grid-points", "400", "--grid-max", "1e3", "--points", "4"]


def test_tracer_leaves_report_bytes_unchanged(tmp_path):
    from vacuumdata import cli, radial

    bundle = str(tmp_path / "b.csv")
    commands = [
        ["free-tau", "--c", "1", "--q", "1.5", *_SMALL, "--profiles", bundle],
        ["smooth-schwarzschild", "--m", "1", *_SMALL],
        ["verify", bundle, "--points", "4"],
        ["mass", bundle],
        ["decay", bundle],
    ]
    plain = [workloads.call_cli(argv) for argv in commands]
    original_main, original_at = cli.main, radial.RadialProfile.at
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main is not original_main
        t.begin_op(0)
        traced = [workloads.call_cli(argv) for argv in commands]
    finally:
        t.uninstall()
    assert traced == plain
    assert cli.main is original_main and radial.RadialProfile.at is original_at
    layers = {span[0].split(".")[0] for span in t.spans}
    assert layers == set(tracer.LAYERS)
    metrics = tracer.layer_metrics(t.spans, 1)
    assert metrics["solver.newton_steps"] > 0
    # one residual pass each for free-tau and verify, three for smooth-schwarzschild
    assert metrics["verify.residual_points"] == 5 * 4
    assert metrics["conformal.csv_read.bytes"] == 3 * os.path.getsize(bundle)


def test_tracer_counts_each_typed_error_once_per_layer():
    t = tracer.Tracer()
    t.install()
    try:
        t.begin_op(0)
        # an admissible n = 4 seed that ends in no-tail on the default grid
        code, text = workloads.call_cli(["free-tau", "--n", "4", "--c", "1", "--q", "3.5", "--points", "4"])
    finally:
        t.uninstall()
    assert code == 2 and json.loads(text)["error"]["type"] == "no-tail"
    metrics = tracer.layer_metrics(t.spans, 1)
    assert metrics["verify.errors"] == 1
    assert metrics["cli.errors"] == 1


# -- the metric names -------------------------------------------------------


def test_emitted_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = [*tracer.layer_metrics([], 1), "trace.overhead"]
    assert per_layer == {name: tracer.layer_unit(name) for name in emitted}
    assert [w["name"] for w in spec["workloads"]] == list(run.LISTED_WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_fraction(40) == 0.75
    assert run.tail_fraction(64) == 0.75
    assert run.tail_fraction(100) == 0.9
    assert run.tail_fraction(12) == 0.5
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.75) == 4.0


# -- the host-speed scaling -------------------------------------------------


def test_scaling_reads_seconds_on_the_reference_host():
    # an op that took 2 s while the kernel took twice REFERENCE_S took 1 s
    # on the reference host
    assert hostspeed.adjusted(2.0, 2 * hostspeed.REFERENCE_S) == pytest.approx(1.0)
    assert hostspeed.adjusted(2.0, hostspeed.REFERENCE_S) == pytest.approx(2.0)


def test_a_uniformly_slower_host_reads_the_same():
    seconds = [2.0, 2.2, 1.9, 2.1, 2.0, 2.3]
    references = [0.08, 0.09, 0.07, 0.08, 0.085, 0.075]
    slower = hostspeed.scale_ops([1.5 * s for s in seconds], [1.5 * r for r in references])
    assert slower == pytest.approx(hostspeed.scale_ops(seconds, references))


def test_one_jittered_kernel_timing_moves_no_op():
    steady = hostspeed.scale_ops([2.0] * 8, [hostspeed.REFERENCE_S] * 8)
    references = [hostspeed.REFERENCE_S] * 8
    references[3] *= 3
    assert hostspeed.scale_ops([2.0] * 8, references) == pytest.approx(steady)


def test_reference_kernel_runs_no_vacuumdata_code(monkeypatch):
    for name in [m for m in sys.modules if m == "vacuumdata" or m.startswith("vacuumdata.")]:
        monkeypatch.delitem(sys.modules, name)
    assert hostspeed.time_reference(2) > 0.0
    assert not any(m == "vacuumdata" or m.startswith("vacuumdata.") for m in sys.modules)
