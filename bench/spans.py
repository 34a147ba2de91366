"""Span tracer for the benchmark.

Wraps the functions of the maggeo modules at every place they are bound
(module globals, dispatch tables and class attributes), records one span
(name, start, end, parent) per call into compact in-memory arrays, and
folds the spans into per-layer self times and exact counts.  Nothing under
``src/maggeo`` is changed: the wrappers are installed for one traced
operation and removed afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# Modules whose public functions get a span, with the layer bucket their
# self time is booked to unless BUCKETS says otherwise.
MODULE_BUCKETS = {
    "maggeo.cli": "cli.other",
    "maggeo.config": "cli.config",
    "maggeo.io": "cli.emit",
    "maggeo.expr": "expr",
    "maggeo.geom": "geom.tensor",
    "maggeo.magcurv": "magcurv",
    "maggeo.flow": "flow",
    "maggeo.loop": "loop.other",
    "maggeo.solve": "solve.other",
}

# Private functions and methods that carry a per-layer metric, and public
# ones booked to another bucket than their module's default.
BUCKETS = {
    "maggeo.geom:ChartedSystem.metric_at": "geom.field",
    "maggeo.geom:ChartedSystem.inverse_metric_at": "geom.field",
    "maggeo.geom:ChartedSystem.two_form_at": "geom.field",
    "maggeo.geom:ChartedSystem.primitive_at": "geom.field",
    "maggeo.geom:ChartedSystem.dmetric_at": "geom.field",
    "maggeo.geom:ChartedSystem.d2metric_at": "geom.field",
    "maggeo.geom:ChartedSystem.dtwo_form_at": "geom.field",
    "maggeo.expr:Expression.__call__": "expr",
    "maggeo.magcurv:ScanReport.to_json": "cli.emit",
    "maggeo.magcurv:ScanReport.to_csv": "cli.emit",
    "maggeo.loop:_LoopGeometry.__init__": "loop.geometry",
    "maggeo.loop:_hessian_blocks": "loop.hessian",
    "maggeo.loop:hessian_form": "loop.hessian",
    "maggeo.loop:hessian_form_curvature": "loop.hessian",
    "maggeo.loop:gram_matrix": "loop.gram",
    "maggeo.loop:morse_index": "loop.index",
    "maggeo.loop:variation_basis": "loop.index",
    "maggeo.loop:sine_mode_variation": "loop.index",
    "maggeo.loop:make_test_variation": "loop.index",
    "maggeo.loop:loop_frame": "loop.index",
    "scipy.linalg:eigh": "loop.eigh",
    "maggeo.solve:shoot": "solve.shoot",
    "maggeo.solve:_residual": "solve.shoot",
    "maggeo.solve:certify": "solve.certify",
    "maggeo.solve:orbit_curvature_extrema": "solve.certify",
    "maggeo.solve:_lm_search": "solve.lm",
    "maggeo.solve:_closing_system": "solve.lm",
    "maggeo.solve:family_to_csv": "cli.emit",
    "maggeo.solve:OrbitRecord.to_json": "cli.emit",
    "maggeo.solve:SearchFailure.to_json": "cli.emit",
    "maggeo.cli:_emit": "cli.emit",
}

# The closure returned by solve._closing_system is the LM residual.
LM_RESIDUAL = "maggeo.solve:_closing_system.fvec"


def _count_nfev(tracer, orbit):
    tracer.extra["flow.nfev"] += int(orbit.meta["nfev"])
    return orbit


def _count_certified(tracer, record):
    if getattr(record, "certified", False):
        tracer.extra["solve.certified"] += 1
    return record


def _wrap_lm_residual(tracer, fvec):
    return tracer.wrap(LM_RESIDUAL, fvec)


RESULT_HOOKS = {
    "maggeo.flow:integrate": _count_nfev,
    "maggeo.solve:shoot": _count_certified,
    "maggeo.solve:_closing_system": _wrap_lm_residual,
}


def bucket_of(name):
    if name == LM_RESIDUAL:
        return "solve.lm"
    if name in BUCKETS:
        return BUCKETS[name]
    return MODULE_BUCKETS[name.split(":", 1)[0]]


def _resolve(name):
    """(owner, attribute) of a target ``module:Qual.name``; None if absent."""
    modname, qual = name.split(":", 1)
    owner = sys.modules.get(modname)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if parts[-1] not in vars(owner):
        return None
    return owner, parts[-1]


def targets():
    """Every ``module:qualname`` the tracer wraps, in a fixed order."""
    names = []
    for modname in MODULE_BUCKETS:
        mod = importlib.import_module(modname)
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == modname
                    and not attr.startswith("_")):
                names.append(f"{modname}:{attr}")
    for name in BUCKETS:
        if name not in names and _resolve(name) is not None:
            names.append(name)
    return names


def _binding_sites(original):
    """Every (container, key) in the maggeo modules that holds ``original``:
    module globals (``from .flow import integrate``) and the dicts they hold
    (the CLI dispatch table)."""
    sites = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "maggeo" or modname.startswith("maggeo.")):
            continue
        namespace = vars(mod)
        for key, value in namespace.items():
            if value is original:
                sites.append((namespace, key))
            elif isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in value.items():
                    if dvalue is original:
                        sites.append((value, dkey))
    return sites


def _assign(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Records spans of wrapped calls; one instance per traced operation."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.extra = {"flow.nfev": 0, "solve.certified": 0}
        self._patches = []

    def wrap(self, name, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        hook = RESULT_HOOKS.get(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            parent = tracer.current
            tracer.current = idx
            span_name.append(nid)
            span_parent.append(parent)
            span_end.append(0.0)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                tracer.current = parent
            if hook is not None:
                result = hook(tracer, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target at all its binding sites; restore on exit."""
        try:
            for name in targets():
                owner, attr = _resolve(name)
                original = vars(owner)[attr]
                wrapper = self.wrap(name, original)
                sites = [(owner, attr)] + [
                    (container, key) for container, key in _binding_sites(original)
                    if not (container is vars(owner) and key == attr)]
                for container, key in sites:
                    _assign(container, key, wrapper)
                    self._patches.append((container, key, original))
            yield self
        finally:
            self.uninstall()

    def uninstall(self):
        while self._patches:
            _assign(*self._patches.pop())

    # -- folding spans into per-layer metrics -------------------------------

    def spans(self):
        return len(self.span_start)

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        return name, parent, dur

    def per_name(self):
        """{name: (calls, self seconds, total seconds)} over all spans."""
        if not self.span_start:
            return {}
        name, parent, dur = self._arrays()
        n_names = len(self.names)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = np.bincount(name, weights=dur - children, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        calls = np.bincount(name, minlength=n_names)
        return {self.names[i]: (int(calls[i]), float(self_time[i]), float(total[i]))
                for i in range(n_names) if calls[i]}

    def outermost_inclusive(self, bucket):
        """(seconds, spans) over spans of ``bucket`` whose parent is not in it."""
        if not self.span_start:
            return 0.0, 0
        name, parent, dur = self._arrays()
        in_bucket = np.array([bucket_of(n) == bucket for n in self.names] + [False])
        parent_name = np.where(parent >= 0, name[parent], len(self.names))
        mask = in_bucket[name] & ~in_bucket[parent_name]
        return float(dur[mask].sum()), int(mask.sum())
