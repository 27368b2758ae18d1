"""Spans around the public calls of vacuumdata's five layers, from outside.

``Tracer.install`` replaces every module-level binding of each function in
a layer's ``__all__`` with one wrapper.  The package's modules import each
other's functions with ``from .x import f``, so a function is rebound in
every module that holds it, not only where it is defined.  Three methods
that carry the hot loops (``RadialGrid.derivative_matrix``,
``RadialProfile.at``, ``InitialData.extrinsic_curvature``) and
``scipy.sparse.linalg.spsolve`` are wrapped as well.  ``uninstall``
restores the originals, so untraced ops run the program's own functions.

Each span is ``[name, parent, start, end, op, note]``: ``parent`` is the
index of the enclosing span or None, ``op`` the id of the op it ran in, and
``note`` a small dict some wrappers fill from the call's arguments or
result.  Spans stay in memory; ``write`` dumps them once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import weakref
from collections import defaultdict

LAYERS = ("radial", "conformal", "solver", "verify", "cli")

_METHODS = (
    ("radial", "RadialGrid", "derivative_matrix"),
    ("radial", "RadialProfile", "at"),
    ("conformal", "InitialData", "extrinsic_curvature"),
)


# notes: small facts read from a call's positional arguments or its result


def _points(args, result):
    return {"points": len(args[1])}


def _written_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _read_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _solve_trace(args, result):
    trace = result[1]
    outer = len(trace.outer_iterates)
    return {
        "outer": outer,
        "newton": len(trace.newton_residuals) - outer,
        "converged": bool(trace.converged),
    }


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._errors: list[tuple[BaseException, str]] = []
        # operator matrices handed out so far, by id; a repeat is a cache hit
        self._matrices: dict[int, weakref.ref] = {}

    # -- recording ----------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self._errors.clear()

    def _error(self, layer: str, exc: BaseException) -> None:
        """Count each typed error once per layer it leaves."""
        if any(e is exc and l == layer for e, l in self._errors):
            return
        self._errors.append((exc, layer))
        now = time.perf_counter()
        self.spans.append([f"{layer}.error", self._stack[-1] if self._stack else None,
                           now, now, self.op, {"type": type(exc).__name__}])

    def _operator_note(self, args, matrix) -> dict:
        ref = self._matrices.get(id(matrix))
        if ref is not None and ref() is matrix:
            return {"built": False}
        self._matrices[id(matrix)] = weakref.ref(matrix)
        return {"built": True}

    def _wrap(self, name, layer, fn, note=None):
        from vacuumdata.errors import VacuumDataError

        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [name, stack[-1] if stack else None, 0.0, None, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except VacuumDataError as exc:
                tracer._error(layer, exc)
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import scipy.sparse.linalg

        import vacuumdata

        modules = {layer: importlib.import_module(f"vacuumdata.{layer}") for layer in LAYERS}
        holders = [vacuumdata, *modules.values()]
        notes = {
            "hamiltonian_residual": _points,
            "momentum_residual": _points,
            "write_solution_csv": _written_bytes,
            "read_solution_csv": _read_bytes,
            "fixed_point_solve": _solve_trace,
        }
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", layer, fn, notes.get(name))
                for holder in holders:
                    if getattr(holder, name, None) is fn:
                        self._patch(holder, name, wrapper)
        for layer, cls_name, method in _METHODS:
            cls = getattr(modules[layer], cls_name)
            note = self._operator_note if method == "derivative_matrix" else None
            wrapper = self._wrap(f"{layer}.{cls_name}.{method}", layer, cls.__dict__[method], note)
            self._patch(cls, method, wrapper)
        self._patch(scipy.sparse.linalg, "spsolve",
                    self._wrap("solver.spsolve", "solver", scipy.sparse.linalg.spsolve))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, parent, start, end, op, note in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start": start,
                                     "end": end, "op": op, "note": note}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_unit(name: str) -> str:
    if name.endswith(("ratio", "overhead")):
        return "ratio"
    if name.endswith((".s", "self_s", "s_per_point")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-op layer metrics from the spans of ``ops`` traced ops.

    ``.s`` is inclusive seconds and ``.calls`` a count, both per op; spans
    outside any op (set-up) are left out.  The ratios (``hit_ratio``,
    ``converged_ratio``), ``newton_step.s`` (seconds per Newton step) and
    ``momentum.s_per_point`` are taken over all traced ops together.
    """
    fps = "solver.fixed_point_solve"
    child = [0.0] * len(spans)
    for name, parent, start, end, _op, _note in spans:
        if parent is not None:
            child[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    notes: dict[str, list[tuple[float, dict]]] = defaultdict(list)
    conformal_in_solve = 0.0
    for i, (name, parent, start, end, op, note) in enumerate(spans):
        if op is None:
            continue
        duration = end - start
        total[name] += duration
        own[name] += duration - child[i]
        calls[name] += 1
        if note is not None:
            notes[name].append((duration, note))
        if name.startswith("conformal.") and parent is not None and spans[parent][0] == fps:
            conformal_in_solve += duration

    def s(*names: str) -> float:
        return sum(total[name] for name in names) / per_op

    def count(name: str) -> float:
        return calls[name] / per_op

    def note_sum(name: str, key: str) -> float:
        return sum(note[key] for _, note in notes[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    per_op = max(ops, 1)
    deriv = "radial.RadialGrid.derivative_matrix"
    built = [d for d, note in notes[deriv] if note["built"]]
    newton = note_sum(fps, "newton")
    points = note_sum("verify.momentum_residual", "points")
    metrics = {
        "radial.operators.s": sum(built) / per_op,
        "radial.operators.builds": len(built) / per_op,
        "radial.operators.hit_ratio": ratio(calls[deriv] - len(built), calls[deriv]),
        "radial.at.calls": count("radial.RadialProfile.at"),
        "radial.at.s": s("radial.RadialProfile.at"),
        "radial.differentiate.calls": count("radial.differentiate"),
        "radial.differentiate.s": s("radial.differentiate"),
        "radial.quadrature.s": s("radial.integrate_from_zero", "radial.integrate_to_infinity"),
        "radial.fit_tail.calls": count("radial.fit_tail"),
        "radial.fit_tail.s": s("radial.fit_tail"),
        "conformal.extrinsic_curvature.calls": count("conformal.InitialData.extrinsic_curvature"),
        "conformal.extrinsic_curvature.s": s("conformal.InitialData.extrinsic_curvature"),
        "conformal.momentum_potential.calls": count("conformal.momentum_potential"),
        "conformal.momentum_potential.s": s("conformal.momentum_potential"),
        "conformal.tau_from_phi.s": s("conformal.tau_from_phi"),
        "conformal.build_solution.s": s("conformal.build_solution"),
        "conformal.initial_data.s": s("conformal.assemble_initial_data"),
        "conformal.csv_write.s": s("conformal.write_solution_csv"),
        "conformal.csv_write.bytes": note_sum("conformal.write_solution_csv", "bytes") / per_op,
        "conformal.csv_read.s": s("conformal.read_solution_csv"),
        "conformal.csv_read.bytes": note_sum("conformal.read_solution_csv", "bytes") / per_op,
        "solver.fixed_point_solve.s": s(fps),
        "solver.fixed_point_solve.self_s": own[fps] / per_op,
        "solver.outer_iterations": note_sum(fps, "outer") / per_op,
        "solver.newton_steps": newton / per_op,
        # time in fixed_point_solve outside the conformal layer, per step
        "solver.newton_step.s": ratio(total[fps] - conformal_in_solve, newton),
        "solver.spsolve.calls": count("solver.spsolve"),
        "solver.spsolve.s": s("solver.spsolve"),
        "solver.converged_ratio": ratio(note_sum(fps, "converged"), calls[fps]),
        "solver.smooth_schwarzschild_phi.s": s("solver.smooth_schwarzschild_phi"),
        "verify.hamiltonian.s": s("verify.hamiltonian_residual"),
        "verify.momentum.s": s("verify.momentum_residual"),
        "verify.residual_points": points / per_op,
        "verify.momentum.s_per_point": ratio(total["verify.momentum_residual"], points),
        "verify.mass_radial.s": s("verify.adm_mass_radial"),
        "verify.mass_surface.s": s("verify.adm_mass_surface"),
        "verify.decay.s": s("verify.decay_exponents"),
        "verify.checks.s": s("verify.check_solution"),
        "cli.main.self_s": own["cli.main"] / per_op,
        "cli.render_report.s": s("cli.render_report"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = count(f"{layer}.error")
    return metrics
