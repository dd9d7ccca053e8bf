"""Span tracing from outside the program.

The benchmark wraps the public functions of each netmimo layer in every
module namespace that binds them (``from .model import sum_rate`` copies the
name into the importing module, so patching the defining module alone would
miss those calls).  Each call records a span: name, start, end, parent span
and the item being processed.  Spans stay in memory and are written out
when the run ends; the original functions are restored on exit.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Public functions traced per layer; the layer name is the netmimo module name.
LAYERS = {
    "scenario": ("realize", "build_geometry", "draw_channels", "whiten_out_of_cluster",
                 "assign_cooperation"),
    "model": ("build_interference_problem", "interference_covariance", "mmse_equalizer",
              "mse_matrix_mmse", "wsmse_objective", "sum_rate", "constraint_usage"),
    "linalg": ("hermitian_eig", "hermitian_top_eigs", "psd_inv_sqrt", "thin_svd",
               "waterfill_eval", "waterfill_budget"),
    "algorithms": ("solve_system", "dmmse_solve", "emmseia_solve", "pwf_solve",
                   "min_leakage_solve"),
    "single_user": ("solve_multi_constraint", "lagrangian_minimizer"),
    "experiment": ("parse_config", "run_sweep", "run_trial", "emit_records_csv",
                   "emit_summary_csv", "emit_cdf_csv", "read_records_csv"),
}
# The package whose modules are the layers.
PACKAGE = "netmimo"
# Per-span annotations, keyed by span label: note(args, result) is stored in
# Tracer.notes for the span.
NOTES = {
    "algorithms.solve_system": lambda args, result: (args[1].algorithm, result[1].iterations),
    "single_user.solve_multi_constraint": lambda args, result: result.iterations,
}


class Patches:
    """Attribute replacements that are undone in reverse order on
    :meth:`restore` (or on leaving the ``with`` block, even after an error)."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, replacement, modules) -> int:
        """Rebind every module-level name bound to ``original``; returns the
        number of bindings replaced."""
        count = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    count += 1
        return count

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def package_modules() -> list:
    """The imported modules of :data:`PACKAGE`, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the summed durations of its direct children.

    ``parent[i]`` is the index of span i's parent, or -1 for a top-level
    span.  Children nest inside their parent, so self times are
    non-negative and the self times of a tree add up to its root's duration.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    return dur - child


class Tracer:
    """Span recorder.  ``begin_item`` tags the spans that follow with an
    item id; ``notes`` holds per-span annotations (solver name, iterations)."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.notes: dict = {}
        self.items: list = []
        self._stack: list = []
        self._item = -1

    def begin_item(self, key) -> None:
        self._item = len(self.items)
        self.items.append(key)

    def _open(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        idx = len(self.start)
        self.name.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def span(self, label: str):
        idx = self._open(label)
        t0 = time.perf_counter()
        try:
            yield idx
        finally:
            self._close(idx, t0)

    def wrap(self, label: str, fn, note=None):
        """``fn`` wrapped so that every call records a span; ``note(args,
        result)`` may return an annotation stored for the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(label)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0)
            if note is not None:
                self.notes[idx] = note(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace the functions of :data:`LAYERS` in every namespace of
        :data:`PACKAGE` that binds them; restore the originals on exit."""
        modules = package_modules()
        with Patches() as patches:
            for layer, names in LAYERS.items():
                home = sys.modules[f"{PACKAGE}.{layer}"]
                for fname in names:
                    label = f"{layer}.{fname}"
                    original = getattr(home, fname)
                    patches.replace_everywhere(original, self.wrap(label, original, NOTES.get(label)),
                                               modules)
            yield self

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays, with self times."""
        out = {
            "name": np.asarray(self.name, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "item": np.asarray(self.item, dtype=np.int64),
        }
        out["self"] = self_times(out["start"], out["end"], out["parent"])
        return out

    def dump(self, path) -> None:
        """Write the spans (and the span-name table) to ``path`` as .npz."""
        data = self.arrays()
        np.savez(path, names=np.asarray(self.names), **data)
