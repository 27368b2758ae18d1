"""The three workloads: seeded inputs, one op each, and the per-op oracles.

The generators use only :mod:`random`, so this module imports without
vacuumdata; the op classes import it lazily.  Every workload cycles over a
small pool of inputs drawn from the seed, so each input recurs in a run and
its report can be compared byte for byte with its first run.

Strata.  Several inputs sit in regions where the program's own gates or
the closed-form oracles fail at the seed.  Each pool draws a fixed number
of inputs from each region, log-uniform or uniform inside it, so the share
of failing inputs is the same for every seed and ``failed_ratio`` compares
across seeds.  The regions were measured on the default grid; the narrow
bands between them, where the verdict flips with the input on the scale of
stencil noise, are left out (see README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

# smooth-schwarzschild, n = 3, default grid: the 1e-3 residual gate fails
# in the low band (Hamiltonian) and in the high band (momentum).  In the pass
# band it fails only where m lies within ~0.3 % of one of the 64 sample
# radii, about one draw in twenty; that defect stays in.
M_FAIL_LOW = (0.25, 0.65)
M_PASS = (0.85, 1.6)
M_FAIL_HIGH = (2.9, 8.0)
M_N4 = (0.25, 4.0)  # n = 4 at --grid-max 1e3: the momentum gate always fails

C_RANGE = (0.25, 4.0)
# free-tau, n = 3: every oracle passes for q in Q3_PASS; in Q3_FAIL the k
# exponent misses q by more than 0.1 or the factor has no power-law tail.
Q3_PASS = (1.35, 2.85)
Q3_FAIL = (2.92, 2.999)
# n = 4: divW always misses its gate; from q ~ 3 on (q ~ 2.8 at c = 0.25),
# the run ends in a no-tail error record instead and writes no bundle.
Q4 = (1.5, 4.0)
Q4_BUNDLE = (1.6, 2.6)

MASS_REL_TOL = 1e-2
TAU_EXP_TOL = 0.05
K_EXP_TOL = 0.1
TAIL_LIMIT_REL_TOL = 0.02
RECHECK_REL_TOL = 1e-12

# radii, as fractions of r_max, of the CLI's surface mass estimate
_SURFACE_FRACTIONS = (0.1, 0.2, 0.4)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _round(x: float) -> float:
    """Six significant digits, so the argv text and the float agree."""
    return float(f"{x:.6g}")


def _log_strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One log-uniform draw from each of ``count`` equal log-width bins,
    in bin order."""
    edges = [lo * (hi / lo) ** (i / count) for i in range(count + 1)]
    return [_log_uniform(rng, edges[i], edges[i + 1]) for i in range(count)]


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of ``count`` equal bins, in bin order."""
    width = (hi - lo) / count
    return [rng.uniform(lo + i * width, lo + (i + 1) * width) for i in range(count)]


# tau-sweep pairs c bin i with q bin PAIRING[n][i]: a fixed Latin-square
# pairing, so that the pool's mix of cheap and costly solves (the solve time
# grows with c and falls with q) is the same for every seed, and only the
# draws inside each (c, q) cell move with it
PAIRING = {3: [(5 * i) % 18 for i in range(18)], 4: [(5 * i) % 6 for i in range(6)]}


def _ss_argv(n: int, m: float) -> list[str]:
    argv = ["smooth-schwarzschild", "--n", str(n), "--m", repr(m)]
    if n == 4:
        argv += ["--grid-max", "1e3"]
    return argv


def build_inputs(seed: int) -> list[dict]:
    """Three n = 3 inputs, one per m band, and one n = 4 input."""
    rng = random.Random(f"build-{seed}")
    inputs = [
        {"n": 3, "m": _round(_log_uniform(rng, *band))}
        for band in (M_FAIL_LOW, M_PASS, M_FAIL_HIGH)
    ]
    inputs.append({"n": 4, "m": _round(_log_uniform(rng, *M_N4))})
    rng.shuffle(inputs)
    for inp in inputs:
        inp["argv"] = _ss_argv(inp["n"], inp["m"])
    return inputs


def tau_sweep_inputs(seed: int) -> list[dict]:
    """Eighteen n = 3 and six n = 4 seeds (c, q), Latin-hypercube in c and
    q.

    Fine strata and the fixed pairing keep the pool's op-time quantiles close
    to the same for every seed.
    """
    rng = random.Random(f"tau-sweep-{seed}")
    c3 = _log_strata(rng, *C_RANGE, 18)
    q3 = _strata(rng, *Q3_PASS, 15) + _strata(rng, *Q3_FAIL, 3)
    c4 = _log_strata(rng, *C_RANGE, 6)
    q4 = _strata(rng, *Q4, 6)
    inputs = [{"n": 3, "c": _round(c), "q": _round(q3[j])} for c, j in zip(c3, PAIRING[3])]
    inputs += [{"n": 4, "c": _round(c), "q": _round(q4[j])} for c, j in zip(c4, PAIRING[4])]
    rng.shuffle(inputs)
    return inputs


def recheck_inputs(seed: int) -> list[dict]:
    """Bundles to write at set-up: a failing n = 3 smooth-schwarzschild run,
    a passing n = 3 free-tau run and an n = 4 free-tau run that fails divW."""
    rng = random.Random(f"recheck-{seed}")
    band = M_FAIL_LOW if rng.random() < 0.5 else M_FAIL_HIGH
    m = _round(_log_uniform(rng, *band))
    inputs = [{"n": 3, "m": m, "argv": _ss_argv(3, m)}]
    for n, q_band in ((3, Q3_PASS), (4, Q4_BUNDLE)):
        c, q = _round(_log_uniform(rng, *C_RANGE)), _round(rng.uniform(*q_band))
        inputs.append({"n": n, "c": c, "q": q,
                       "argv": ["free-tau", "--n", str(n), "--c", repr(c), "--q", repr(q)]})
    rng.shuffle(inputs)
    for inp in inputs:
        inp["label"] = "verify, mass, decay on the bundle of " + " ".join(inp["argv"])
    return inputs


def describe(inp: dict) -> str:
    if "label" in inp:
        return inp["label"]
    if "argv" in inp:
        return " ".join(inp["argv"])
    return f"fixed_point_solve n={inp['n']} c={inp['c']!r} q={inp['q']!r}"


# ---------------------------------------------------------------------------
# oracles: each returns the reasons an op failed, empty when it passed


def _gate_failures(report: dict) -> list[str]:
    """The CLI gates a report misses, as the exit status counts them."""
    from vacuumdata.cli import RESIDUAL_GATE

    failed = [f"checks.{k}" for k, v in (report.get("checks") or {}).items() if v is not True]
    for key, value in (report.get("residuals") or {}).items():
        if key != "order" and not (value is not None and value < RESIDUAL_GATE):
            failed.append(f"residuals.{key} {value!r} >= {RESIDUAL_GATE:g}")
    return failed


def _cli_reasons(command: str, code: int, report: dict) -> list[str]:
    if "error" in report:
        return [f"{command}: exit {code}, error record {report['error']['type']}"]
    if code != 0:
        return [f"{command}: exit {code}: " + ", ".join(_gate_failures(report) or ["?"])]
    return []


def _off(value, target: float, tol: float) -> bool:
    return value is None or not abs(value - target) <= tol


def build_verdict(inp: dict, code: int, report: dict) -> list[str]:
    """Exit status and gates; mass.standard within 1e-2 relative of -m;
    decay.tau within 0.05 of n/2."""
    reasons = _cli_reasons("smooth-schwarzschild", code, report)
    if "error" in report:
        return reasons
    m, n = inp["m"], inp["n"]
    standard = report["mass"]["standard"]
    if _off(standard, -m, MASS_REL_TOL * m):
        reasons.append(f"mass.standard {standard!r} not within {MASS_REL_TOL:g} of {-m!r}")
    tau = report["decay"]["tau"]
    if _off(tau, n / 2.0, TAU_EXP_TOL):
        reasons.append(f"decay.tau {tau!r} not within {TAU_EXP_TOL:g} of {n / 2.0:g}")
    return reasons


def tail_limit_prediction(n: int, c: float, q: float) -> float:
    return (c * math.sqrt(n - 2) / (2.0 * (n - q))) ** 2


def tau_sweep_verdict(inp: dict, report: dict) -> list[str]:
    """Converged; the four CLI gates on check_solution; decay.tau within
    0.05 and decay.k within 0.1 of q; for q <= n/2 the tail limit within
    2 % of (c sqrt(n-2) / (2 (n-q)))^2."""
    from vacuumdata.cli import DIVW_GATE, IDENTITY_GATE, LW_GATE

    if "error" in report:
        return [f"error record {report['error']['type']}"]
    n, c, q = inp["n"], inp["c"], inp["q"]
    reasons = []
    if not report["converged"]:
        reasons.append("solve did not converge")
    checks = report["checks"]
    if checks["monotone"] is not True:
        reasons.append("checks.monotone false")
    for key, gate in (("identity_residual", IDENTITY_GATE), ("lw_identity", LW_GATE),
                      ("divW_identity", DIVW_GATE)):
        if not checks[key] < gate:
            reasons.append(f"checks.{key} {checks[key]!r} >= {gate:g}")
    decay = report["decay"]
    if _off(decay["tau"], q, TAU_EXP_TOL):
        reasons.append(f"decay.tau {decay['tau']!r} not within {TAU_EXP_TOL:g} of q={q!r}")
    if _off(decay["k"], q, K_EXP_TOL):
        reasons.append(f"decay.k {decay['k']!r} not within {K_EXP_TOL:g} of q={q!r}")
    if q <= n / 2.0:
        predicted = tail_limit_prediction(n, c, q)
        limit = report["tail_limit"]
        if _off(limit, predicted, TAIL_LIMIT_REL_TOL * predicted):
            reasons.append(f"tail_limit {limit!r} not within 2 % of {predicted!r}")
    return reasons


def _close(a, b) -> bool:
    if a is None or b is None or isinstance(a, bool) or isinstance(b, bool):
        return a == b
    return abs(a - b) <= RECHECK_REL_TOL * max(abs(a), abs(b))


def _blocks_differ(name: str, got: dict, want: dict) -> list[str]:
    return [
        f"{name}.{key} {got.get(key)!r} != build-time {want[key]!r}"
        for key in want
        if not _close(got.get(key), want[key])
    ]


def recheck_verdict(build_report: dict, results: dict[str, tuple[int, dict]]) -> list[str]:
    """verify, mass and decay all exit 0, and their blocks equal the
    build-time report within 1e-12 relative."""
    residuals = {k: build_report["residuals"][k] for k in ("hamiltonian_sup", "momentum_sup")}
    compared = {
        "verify": (("residuals", residuals), ("checks", build_report["checks"])),
        "mass": (("mass", build_report["mass"]),),
        "decay": (("decay", build_report["decay"]),),
    }
    reasons = []
    for command, (code, report) in results.items():
        reasons += _cli_reasons(command, code, report)
        if "error" not in report:
            for block, want in compared[command]:
                reasons += _blocks_differ(f"{command}.{block}", report[block], want)
    return reasons


# ---------------------------------------------------------------------------
# ops: each returns (report bytes, reasons)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``vacuumdata.cli.main`` in-process and capture its stdout."""
    from vacuumdata import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Build:
    """Each op writes one smooth-schwarzschild bundle through the CLI."""

    def __init__(self, seed: int, scratch: str):
        self.inputs = build_inputs(seed)
        self.scratch = scratch

    def prepare(self) -> None:
        pass

    def run(self, index: int) -> tuple[str, list[str]]:
        inp = self.inputs[index]
        bundle = os.path.join(self.scratch, f"build-{index}.csv")
        code, text = call_cli(inp["argv"] + ["--profiles", bundle])
        return f"{code}\n{text}", build_verdict(inp, code, json.loads(text))


class TauSweep:
    """Each op solves one seeded mean-curvature profile on a shared grid and
    runs the mass, decay and consistency diagnostics on the result."""

    def __init__(self, seed: int, scratch: str):
        del scratch
        self.inputs = tau_sweep_inputs(seed)
        self.grid = None

    def prepare(self) -> None:
        import numpy as np
        import vacuumdata as vd

        self.grid = vd.build_grid(4000, 1.0e4, 1.01)
        # build and cache the grid's operators: both derivative matrices and
        # the quadrature weights
        for order in (1, 2):
            self.grid.derivative_matrix(order)
        vd.integrate_from_zero(vd.RadialProfile(self.grid, np.zeros(len(self.grid))))

    def run(self, index: int) -> tuple[str, list[str]]:
        inp = self.inputs[index]
        report = self._report(inp)
        return json.dumps(report), tau_sweep_verdict(inp, report)

    def _report(self, inp: dict) -> dict:
        import vacuumdata as vd

        n, c, q = inp["n"], inp["c"], inp["q"]
        dim = vd.Dimension(n)
        r = self.grid.nodes
        try:
            sol, trace = vd.fixed_point_solve(
                dim, vd.RadialProfile(self.grid, c * (1.0 + r * r) ** (-q / 2.0))
            )
            data = vd.assemble_initial_data(sol)
            radial = vd.adm_mass_radial(dim, sol.phi)
            surface = None
            if not radial.diverges:
                radii = tuple(f * self.grid.r_max for f in _SURFACE_FRACTIONS)
                surface = vd.adm_mass_surface(data, radii).mass_paper_surface
            decay = vd.decay_exponents(data)
            checks = vd.check_solution(sol)
            limit = vd.tail_limit_check(dim, sol.phi, c, q) if q <= n / 2.0 else None
        except vd.VacuumDataError as exc:
            return {"error": {"type": exc.code, "message": str(exc)}}
        return {
            "converged": trace.converged,
            "iterations": len(trace.outer_iterates),
            "mass": {
                "standard": radial.mass_standard,
                "paper_radial": radial.mass_paper_radial,
                "paper_surface": surface,
                "diverges": radial.diverges,
            },
            "decay": {"tau": decay.tau_exponent, "metric": decay.metric_exponent,
                      "k": decay.k_exponent},
            "checks": {
                "monotone": bool(checks.monotone),
                "identity_residual": checks.identity_residual,
                "lw_identity": checks.lw_identity,
                "divW_identity": checks.divw_identity,
            },
            "tail_limit": limit,
        }


class Recheck:
    """Set-up writes bundles through the CLI; each op re-reads one with
    verify, mass and decay and compares them with the build-time report."""

    def __init__(self, seed: int, scratch: str):
        self.inputs = recheck_inputs(seed)
        self.scratch = scratch
        self.reports: list[dict] = []

    def prepare(self) -> None:
        for index, inp in enumerate(self.inputs):
            inp["bundle"] = os.path.join(self.scratch, f"recheck-{index}.csv")
            code, text = call_cli(inp["argv"] + ["--profiles", inp["bundle"]])
            report = json.loads(text)
            if "error" in report or not os.path.exists(inp["bundle"]):
                raise RuntimeError(f"set-up run {describe(inp)} wrote no bundle: {text.strip()}")
            self.reports.append(report)

    def run(self, index: int) -> tuple[str, list[str]]:
        inp = self.inputs[index]
        n = ["--n", str(inp["n"])]
        texts, results = [], {}
        for command in ("verify", "mass", "decay"):
            code, text = call_cli([command, inp["bundle"], *n])
            texts.append(f"{code}\n{text}")
            results[command] = (code, json.loads(text))
        return "".join(texts), recheck_verdict(self.reports[index], results)


WORKLOADS = {"build": Build, "tau-sweep": TauSweep, "recheck": Recheck}
