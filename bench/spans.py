"""Span tracing of chiralplate's layers, installed from outside the package.

The tracer replaces the public functions listed in ``WRAPS`` with timing
wrappers. A function is replaced in every ``chiralplate`` module that binds
it, because callers use their own bindings (``experiments`` calls the
``assemble`` it imported, ``wall_thickness_for_density`` calls its module's
``geometry_from_cell``). ``uninstall`` puts the originals back, so untraced
passes in the same process run the unmodified code. Nothing under ``src/``
is edited.

A span is ``[name, layer, start, end, parent, op]``. Spans stay in memory
and are written out at the end of a run. A layer's self time is the sum,
over its spans, of the span's duration minus the durations of its direct
child spans. Work the tracer does for its own checks (the solve residual,
the size of written files) runs outside the clock, so it never lands in a
layer's self time; it shows up only in the tracing overhead.

This module imports only the standard library, so a traced CLI process can
load it before timing the import of ``chiralplate.cli``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# Layer -> names wrapped in ``chiralplate.<layer>``: "func", "Class.method",
# or "Class.prop" for a property. ``materials`` runs only inside
# ``elements``/``assembly`` and is not timed on its own.
WRAPS = {
    "honeycomb": [
        "geometry_from_cell", "relative_density", "max_relative_density",
        "wall_thickness_for_density", "effective_E1", "effective_E2",
        "effective_G2", "effective_material", "poisson_qi", "poisson_lu",
    ],
    "plates": [
        "build_solid_mesh", "build_composite_mesh", "core_layer_count",
        "apply_boundary", "apply_load",
    ],
    "elements": [
        "element_stiffness", "conforming_stiffness_iso", "conforming_stiffness_ti",
        "incompatible_stiffness_iso", "strain_displacement",
        "strain_displacement_full", "full_elasticity_matrix",
    ],
    "assembly": [
        "assemble", "apply_constraints", "solve", "recover",
        "StressField.max_se_by_tag", "StressField.max_se",
        "GlobalSystem.K_a", "GlobalSystem.P_a",
    ],
    "experiments": [
        "run_case", "run_solid_case", "run_sweep", "mesh_convergence_study",
        "honeycomb_grid", "poisson_diagram",
    ],
    "reporting": [
        "write_sweep_csv", "write_convergence_csv", "write_honeycomb_csv",
        "write_field_csv", "write_manifest",
    ],
    "cli": [
        "main", "load_config", "cmd_solve", "cmd_sweep", "cmd_convergence",
        "cmd_honeycomb",
    ],
}

STIFFNESS = {
    "elements.conforming_stiffness_iso",
    "elements.conforming_stiffness_ti",
    "elements.incompatible_stiffness_iso",
}

# Per-layer metric -> names whose self time it sums.
TIME_GROUPS = {
    "assembly.assemble_s": {"assembly.assemble"},
    "assembly.constrain_s": {"assembly.apply_constraints"},
    "assembly.reduce_s": {"assembly.GlobalSystem.K_a", "assembly.GlobalSystem.P_a"},
    "assembly.solve_s": {"assembly.solve"},
    "assembly.recover_s": {
        "assembly.recover", "assembly.StressField.max_se_by_tag",
        "assembly.StressField.max_se",
    },
    "cli.config_s": {"cli.load_config"},
}

# Layer -> metric that sums the self time of all its spans.
LAYER_SELF = {
    "honeycomb": "honeycomb.self_s",
    "elements": "elements.self_s",
    "plates": "plates.self_s",
    "experiments": "experiments.self_s",
    "reporting": "reporting.write_s",
}

# Every time metric. Each span's self time lands in exactly one of them, so
# their sum equals the summed duration of the root spans.
TIME_METRICS = (*TIME_GROUPS, *LAYER_SELF.values(), "cli.self_s")


class Tracer:
    """Records spans around wrapped chiralplate functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.skipped = 0.0
        self.stats = {"k_bytes": 0, "free_dofs": 0, "max_rel_residual": 0.0,
                      "bytes": 0}
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def now(self) -> float:
        return time.perf_counter() - self.skipped

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, layer, tracer.now(), 0.0, parent, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = tracer.now()
                tracer.stack.pop()
            if post is not None:
                t0 = time.perf_counter()
                post(tracer, args, kwargs, result)
                tracer.skipped += time.perf_counter() - t0
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every name in ``WRAPS``; record the ones that do not exist."""
        replace = {}  # id(function) -> (function, wrapper)
        for layer, names in WRAPS.items():
            try:
                module = importlib.import_module(f"chiralplate.{layer}")
            except ImportError:
                self.missing += [f"{layer}.{n}" for n in names]
                continue
            for dotted in names:
                full = f"{layer}.{dotted}"
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                current = vars(owner).get(attr) if owner is not None else None
                if isinstance(current, property):
                    self._set(owner, attr, property(self._wrap(full, layer, current.fget)))
                elif not callable(current):
                    self.missing.append(full)
                elif owner_name:  # a method: every caller reaches it via the class
                    self._set(owner, attr, self._wrap(full, layer, current, POST.get(full)))
                else:  # a function: replaced below in every module that binds it
                    replace[id(current)] = (
                        current, self._wrap(full, layer, current, POST.get(full)))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "chiralplate" or mod_name.startswith("chiralplate.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def dump(self, path, **extra) -> None:
        payload = {"spans": self.spans, "stats": self.stats,
                   "missing": self.missing, **extra}
        with open(path, "w") as fh:
            json.dump(payload, fh)


# -- post hooks: run outside the clock --------------------------------------

def _nbytes(obj) -> int:
    """Bytes held by the arrays in ``obj`` (an array, a sparse matrix, a
    tuple of them, or an object whose attributes are arrays)."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if all(hasattr(obj, a) for a in ("data", "indices", "indptr")):
        return sum(int(getattr(obj, a).nbytes) for a in ("data", "indices", "indptr"))
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    if hasattr(obj, "__dict__"):
        return sum(int(v.nbytes) for v in vars(obj).values() if hasattr(v, "nbytes"))
    return 0


def _after_assemble(tracer, args, kwargs, result):
    tracer.stats["k_bytes"] = max(tracer.stats["k_bytes"], _nbytes(result))


def _after_solve(tracer, args, kwargs, result):
    """Relative residual ||K_a u - P_a|| / ||P_a|| of the solved system."""
    system = args[0] if args else next(iter(kwargs.values()), None)
    K, free, P, u = (getattr(system, n, None) for n in ("K", "free_dofs", "P", "u"))
    if K is None or free is None or P is None or u is None:
        if "assembly.max_rel_residual" not in tracer.missing:
            tracer.missing.append("assembly.max_rel_residual")
        return
    import numpy as np

    P_a = P[free]
    r = np.linalg.norm(K[np.ix_(free, free)] @ u[free] - P_a) / np.linalg.norm(P_a)
    stats = tracer.stats
    stats["max_rel_residual"] = max(stats["max_rel_residual"], float(r))
    stats["free_dofs"] = max(stats["free_dofs"], int(len(free)))


def _after_write(tracer, args, kwargs, result):
    for a in list(args) + list(kwargs.values()):
        if isinstance(a, (str, os.PathLike)) and os.path.isfile(a):
            tracer.stats["bytes"] += os.path.getsize(a)


POST = {
    "assembly.assemble": _after_assemble,
    "assembly.solve": _after_solve,
    **{f"reporting.{n}": _after_write for n in WRAPS["reporting"]},
}


# -- analysis ---------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def layer_metrics(spans, stats) -> dict[str, float]:
    """Per-layer metrics of one unit of work from its spans and hook stats."""
    selfs = self_times(spans)
    out = {m: 0.0 for m in TIME_METRICS}
    calls = {"honeycomb": 0, "plates": 0}
    geometry = stiffness = 0
    for span, own in zip(spans, selfs):
        name, layer, parent = span[0], span[1], span[4]
        for metric, names in TIME_GROUPS.items():
            if name in names:
                out[metric] += own
        if layer in LAYER_SELF:
            out[LAYER_SELF[layer]] += own
        elif layer == "cli" and name != "cli.load_config":
            out["cli.self_s"] += own
        if layer in calls and (parent < 0 or spans[parent][1] != layer):
            calls[layer] += 1
        geometry += name == "honeycomb.geometry_from_cell"
        stiffness += name in STIFFNESS
    out.update({
        "honeycomb.calls": calls["honeycomb"],
        "honeycomb.geometry_calls": geometry,
        "plates.calls": calls["plates"],
        "elements.stiffness_calls": stiffness,
        "assembly.k_bytes": stats["k_bytes"],
        "assembly.free_dofs": stats["free_dofs"],
        "assembly.max_rel_residual": stats["max_rel_residual"],
        "reporting.bytes": stats["bytes"],
    })
    return out


def merge(parts) -> tuple[list, dict]:
    """Concatenate span lists (re-basing parent indices) and combine stats."""
    spans, stats = [], {"k_bytes": 0, "free_dofs": 0, "max_rel_residual": 0.0,
                        "bytes": 0}
    for part_spans, part_stats in parts:
        base = len(spans)
        spans += [[n, l, s, e, p + base if p >= 0 else -1, o]
                  for n, l, s, e, p, o in part_spans]
        for key in ("k_bytes", "free_dofs", "max_rel_residual"):
            stats[key] = max(stats[key], part_stats[key])
        stats["bytes"] += part_stats["bytes"]
    return spans, stats
