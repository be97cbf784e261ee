"""In-memory span recorder that wraps modulon's public functions from outside.

Each wrapped call records one span ``(name, start, end, parent, run_id)``.
A function is replaced under every name a caller can look it up by: the
defining module, each ``modulon`` module that imported it, and the package
namespace.  Methods are replaced on the class.  A target the program no
longer has is listed in ``Recorder.missing`` instead of raising.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
import time

# (defining module, attribute path, span name).  The span name has the form
# "<module>.<function>"; methods use the class's method name.
TARGETS = [
    ("modulon.waves", "refine_newton", "waves.refine_newton"),
    ("modulon.bloch", "scan_bloch", "bloch.scan_bloch"),
    ("modulon.bloch", "assemble_bloch", "bloch.assemble_bloch"),
    ("modulon.bloch", "eigens", "bloch.eigens"),
    ("modulon.bloch", "fit_band", "bloch.fit_band"),
    ("modulon.bloch", "unstable_eigenfunction", "bloch.unstable_eigenfunction"),
    ("modulon.bloch", "export_spectrum_dump", "bloch.export_spectrum_dump"),
    ("modulon.bloch", "save_spectrum_summary", "bloch.save_spectrum_summary"),
    ("modulon.semigroup", "propagator_norm", "semigroup.propagator_norm"),
    ("modulon.semigroup", "probe_growth", "semigroup.probe_growth"),
    ("modulon.semigroup", "dual_propagator_norm", "semigroup.dual_propagator_norm"),
    ("modulon.semigroup", "trichotomy_split", "semigroup.trichotomy_split"),
    ("modulon.semigroup", "riesz_projection", "semigroup.riesz_projection"),
    ("modulon.evolve", "Evolver.__init__", "evolve.Evolver_init"),
    ("modulon.evolve", "Evolver.step_coef", "evolve.step_coef"),
    ("modulon.evolve", "Evolver.nonlinear", "evolve.nonlinear"),
    ("modulon.evolve", "orbital_distance", "evolve.orbital_distance"),
    ("modulon.evolve", "conserved_quantities", "evolve.conserved_quantities"),
    ("modulon.evolve", "lift_wave", "evolve.lift_wave"),
    ("modulon.experiments", "run_multiperiodic", "experiments.run_multiperiodic"),
    ("modulon.experiments", "run_localized", "experiments.run_localized"),
    ("modulon.experiments", "build_band_packet", "experiments.build_band_packet"),
    ("modulon.experiments", "save_report", "experiments.save_report"),
    ("modulon.fields", "synthesize_packet", "fields.synthesize_packet"),
    ("modulon.fields", "l2_norm", "fields.l2_norm"),
]

# spans that write a file, with the position of their path argument; the
# recorder adds the written size to a "<span>.bytes" counter
_WRITES_PATH = {"bloch.export_spectrum_dump": 1, "experiments.save_report": 1}


class Recorder:
    """Spans and counters of one process; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.counters: dict[int, dict[str, float]] = {}   # run id -> counts
        self.maxima: dict[str, float] = {}
        self.missing: list[str] = []
        self.run_id = -1            # -1 marks set-up spans
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def count(self, key: str, amount: float = 1.0):
        counts = self.counters.setdefault(self.run_id, {})
        counts[key] = counts.get(key, 0.0) + amount

    def observe_max(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def _wrap(self, name: str, fn):
        rec = self
        path_arg = _WRITES_PATH.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.names)
            rec.names.append(name)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.run.append(rec.run_id)
            rec.end.append(0.0)
            rec._stack.append(idx)
            rec.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end[idx] = time.perf_counter()
                rec._stack.pop()
            try:
                rec._after(name, args, kwargs, out, path_arg)
            except (AttributeError, KeyError, OSError):
                # the program changed what a counter reads: report, do not raise
                if name + ".counters" not in rec.missing:
                    rec.missing.append(name + ".counters")
            return out

        return wrapper

    def _after(self, name, args, kwargs, out, path_arg):
        if name == "waves.refine_newton":
            self.count("waves.newton_iters", out.newton_iterations)
        elif name == "bloch.scan_bloch":
            self.count("bloch.k_samples", len(out.k_grid))
        elif name == "bloch.eigens":
            self.observe_max("bloch.eigens.matrix_n", args[0].A_mat.shape[0])
        elif name == "evolve.Evolver_init":
            ev = args[0]
            self.observe_max("evolve.state_modes", ev.N)
            self.observe_max("evolve.fft_len", ev.tr.M)
        if path_arg is not None:
            path = args[path_arg] if len(args) > path_arg else kwargs["path"]
            self.count(name + ".bytes", os.path.getsize(path))

    # -- patching ----------------------------------------------------------------

    def install(self):
        loaded = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == "modulon" or k.startswith("modulon."))]
        for mod_name, attr, name in TARGETS:
            try:
                mod = importlib.import_module(mod_name)
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                target = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, target)
            if owner_name:
                self._patch(owner, leaf, target, wrapped)
                continue
            for m in loaded:
                if getattr(m, leaf, None) is target:
                    self._patch(m, leaf, target, wrapped)

    def _patch(self, owner, leaf, original, wrapped):
        setattr(owner, leaf, wrapped)
        self._patches.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the time covered by its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def summary(self, runs) -> dict:
        """Per span name over the given run ids: calls, total self time, and
        the duration of each call."""
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            if self.run[i] not in runs:
                continue
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += selfs[i]
            entry["durations"].append(self.end[i] - self.start[i])
        return out

    def counts(self, runs) -> dict:
        out: dict[str, float] = {}
        for run in runs:
            for key, value in self.counters.get(run, {}).items():
                out[key] = out.get(key, 0.0) + value
        return out

    def write(self, path: str):
        """Write a gzip file of JSON lines: a header with counters and missing
        targets, then one line per span: name, start, end, parent, run."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"missing": self.missing,
                                 "counters": {str(k): v for k, v in
                                              self.counters.items()},
                                 "maxima": self.maxima}) + "\n")
            for row in zip(self.names, self.start, self.end, self.parent, self.run):
                fh.write(json.dumps(row) + "\n")
