"""Span tracer for the qubeam layers, installed from outside the program.

install() replaces every public function of the layer modules, at each
module attribute that holds it (the package namespace included), with a
wrapper that records a span: name, start, end, parent span and whether it
raised. Callers look functions up at those attributes, so a call from
qubeam.sweep to full_report goes through qubeam.sweep.full_report and is
seen. uninstall() puts the originals back. Spans stay in memory in flat
arrays and are written out once, at the end.

Names are "<module>.<function>" of the defining module. A reported name
whose function no longer exists, or is never called, reads calls = 0.
"""
from array import array
import functools
import importlib
import inspect
import os
import time

import numpy as np

PACKAGE = "qubeam"
LAYERS = ("params", "dispersion", "bogoliubov", "qstate", "entangle",
          "sweep", "cli")

REPORTED = (
    "params.make_params",
    "dispersion.exact_roots", "dispersion.perturbative_roots",
    "bogoliubov.build_block",
    "qstate.amplitudes", "qstate.closed_form_ab",
    "entangle.full_report", "entangle.reduced_density",
    "entangle.phi_closed", "entangle.asymptotic_info",
    "sweep.parse_config", "sweep.run_sweep", "sweep.write_csv",
    "sweep.write_matrix", "sweep.verify_point",
    "cli.main",
)
FIELDS = ("calls", "self_s", "p50_us", "failed")
EXTRA = ("dispersion.exact_roots.max_residual_rel",
         "sweep.write_csv.bytes", "sweep.write_matrix.bytes")


def self_times(parent, duration):
    """Span duration minus the durations of its direct children.

    In one thread, children are disjoint and lie inside their parent, so
    their summed durations are the part of the parent's interval they cover.
    """
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(duration, dtype=float)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested],
                          minlength=len(duration))
    return duration - covered


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.round_starts = []
        self.max_residual_rel = 0.0
        self.bytes = {"sweep.write_csv": 0, "sweep.write_matrix": 0}
        self._stack = []
        self._wrappers = {}      # original function -> wrapper
        self._patches = []       # (module, attribute, original)
        self._hooks = {"dispersion.exact_roots": self._on_roots,
                       "sweep.write_csv": self._on_csv,
                       "sweep.write_matrix": self._on_matrix}

    # ------------------------------------------------------------ install

    def _layer_of(self, fn):
        module = getattr(fn, "__module__", "") or ""
        prefix = PACKAGE + "."
        if not module.startswith(prefix):
            return None
        layer = module[len(prefix):]
        return layer if layer in LAYERS else None

    def install(self):
        """Wrap the public layer functions; returns how many attributes."""
        modules = [importlib.import_module(PACKAGE)]
        for layer in LAYERS:
            try:
                modules.append(importlib.import_module(f"{PACKAGE}.{layer}"))
            except ImportError:
                continue          # a layer removed by a refactor
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or value.__name__.startswith("_"):
                    continue
                if value in self._wrappers.values():
                    continue
                layer = self._layer_of(value)
                if layer is None:
                    continue
                wrapper = self._wrappers.get(value)
                if wrapper is None:
                    wrapper = self._wrap(value, f"{layer}.{value.__name__}")
                    self._wrappers[value] = wrapper
                setattr(module, attr, wrapper)
                self._patches.append((module, attr, value))
        return len(self._patches)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def begin_round(self):
        self.round_starts.append(len(self.start))

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        hook = self._hooks.get(name)
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends, failed = self.start, self.end, self.failed
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            failed.append(1)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            failed[idx] = 0
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -------------------------------------------------------------- hooks
    # Hooks read what a call produced; a refactor that changes the shape of
    # an argument or result turns the hook off instead of failing the run.

    def _on_roots(self, args, kwargs, roots):
        try:
            worst = max(abs(g) / kappa for row, kappa in
                        zip(roots.residuals, roots.kappas) for g in row)
        except (AttributeError, TypeError):
            return
        self.max_residual_rel = max(self.max_residual_rel, worst)

    def _on_csv(self, args, kwargs, result):
        path = args[2] if len(args) > 2 else kwargs.get("path")
        try:
            self.bytes["sweep.write_csv"] += os.path.getsize(path)
        except (OSError, TypeError):
            pass

    def _on_matrix(self, args, kwargs, result):
        try:
            self.bytes["sweep.write_matrix"] += sum(
                os.path.getsize(p) for p in result.values())
        except (AttributeError, OSError, TypeError):
            pass

    # ------------------------------------------------------------ summary

    def _arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=float),
                np.frombuffer(self.end, dtype=float),
                np.frombuffer(self.failed, dtype=np.int8))

    def layer_metrics(self, reported=REPORTED):
        """Per traced round: calls, median self seconds, failures; and the
        median span duration in microseconds, for each reported name."""
        rounds = len(self.round_starts)
        name, parent, start, end, failed = self._arrays()
        duration = end - start
        own = self_times(parent, duration)
        round_of = (np.searchsorted(np.asarray(self.round_starts),
                                    np.arange(len(name)), side="right") - 1)
        out = {}
        for fname in reported:
            nid = self._ids.get(fname)
            mask = (name == nid) if nid is not None else np.zeros(len(name), bool)
            calls = int(mask.sum())
            if rounds and calls:
                per_round = np.bincount(round_of[mask], weights=own[mask],
                                        minlength=rounds)
                self_s = float(np.median(per_round))
                p50_us = float(np.median(duration[mask])) * 1e6
            else:
                self_s = p50_us = 0.0
            per = rounds or 1
            out[f"{fname}.calls"] = calls / per
            out[f"{fname}.self_s"] = self_s
            out[f"{fname}.p50_us"] = p50_us
            out[f"{fname}.failed"] = int(failed[mask].sum()) / per
        per = rounds or 1
        out["dispersion.exact_roots.max_residual_rel"] = self.max_residual_rel
        out["sweep.write_csv.bytes"] = self.bytes["sweep.write_csv"] / per
        out["sweep.write_matrix.bytes"] = self.bytes["sweep.write_matrix"] / per
        return out

    def write(self, path):
        """Write every span to an .npz file: names, name ids, parents,
        start and end (perf_counter seconds), failed flags, round starts."""
        name, parent, start, end, failed = self._arrays()
        np.savez(path, names=np.array(self.names, dtype=str), name=name,
                 parent=parent, start=start, end=end, failed=failed,
                 round_starts=np.asarray(self.round_starts, dtype=np.int64))
