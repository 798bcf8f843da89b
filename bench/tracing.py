"""Spans and counters at the module boundaries of fluxlattice, recorded from
outside the package.

`instrument(tracer)` rebinds the public functions of each module, wherever a
fluxlattice module holds them, to wrappers that record into `tracer`; the
package source is untouched.  Coarse functions get timed spans.  The hot
methods (ExactPhase.reduce, BasisMapOperator.__matmul__ and .equals, called
about 10^5 times per exact run) and RelationReport.add only count, so the
overhead stays bounded; ExactPhase.reduce is also timed on one call in
REDUCE_SAMPLE and its total scaled from those.  numpy.linalg.eigvalsh gets a
span named after the layer of the span that calls it.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import time
from collections import Counter

REDUCE_SAMPLE = 64

# span name -> (fluxlattice module, attribute path within it)
TIMED = {
    "cli.main": ("cli", "main"),
    "phases.classify": ("phases", "classify"),
    "phases.convergents": ("phases", "Flux.convergents"),
    "algebra.multiply": ("algebra", "multiply"),
    "algebra.derive_invariant_basis": ("algebra", "derive_invariant_basis"),
    "operators.build_wavefunction": ("operators", "build_wavefunction"),
    "operators.verify_relations": ("operators", "verify_relations"),
    "operators.commutant_scan": ("operators", "commutant_monomial_check"),
    "operators.truncate": ("operators", "truncate"),
    "spectral.butterfly": ("spectral", "butterfly"),
    "spectral.spectrum": ("spectral", "spectrum"),
    "spectral.approximant_spectra": ("spectral", "approximant_spectra"),
    "spectral.hausdorff": ("spectral", "hausdorff_distance"),
    "spectral.symmetry_report": ("spectral", "ButterflyDataset.symmetry_report"),
    "spectral.csv_write": ("spectral", "ButterflyDataset.to_csv"),
    "spectral.csv_read": ("spectral", "ButterflyDataset.from_csv"),
    "spectral.json_write": ("spectral", "ButterflyDataset.to_json"),
    "spectral.json_read": ("spectral", "ButterflyDataset.from_json"),
    "landau.build": ("landau", "build_landau"),
    "landau.brackets": ("landau", "bracket_report"),
    "landau.lorentz": ("landau", "lorentz_check"),
    "landau.levels": ("landau", "hamiltonian_spectrum"),
    "landau.degeneracies": ("landau", "level_degeneracies"),
}

class Tracer:
    """Spans [name, layer, start, end, parent index] and counters of one
    workload run, kept in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name, layer, fn, args, kwargs):
        index = len(self.spans)
        record = [name, layer, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Discard whatever the code inside records (the output checks)."""
        saved = self.spans, self.counters, self._stack
        self.spans, self.counters, self._stack = [], Counter(), []
        try:
            yield
        finally:
            self.spans, self.counters, self._stack = saved

    def current_layer(self, default: str) -> str:
        return self.spans[self._stack[-1]][1] if self._stack else default

    def span_lines(self) -> list[dict]:
        return [{"run": self.run_id, "id": i, "name": name, "layer": layer,
                 "start": start, "end": end, "parent": parent}
                for i, (name, layer, start, end, parent) in enumerate(self.spans)]

    def summary(self) -> dict[str, float]:
        """Inclusive time, self time and calls per span name, self time per
        layer, and the counters."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = Counter()
        for (name, layer, start, end, _parent), inner in zip(self.spans, child_time):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - inner
            out[f"{name}.calls"] += 1
            out[f"{layer}.self_s"] += end - start - inner
        out.update(self.counters)
        return dict(out)


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def instrument(tracer: Tracer) -> None:
    """Rebind fluxlattice's public functions to recording wrappers."""
    import numpy as np

    import fluxlattice
    from fluxlattice import operators, phases, reporting

    modules = [m for n, m in sys.modules.items()
               if n == "fluxlattice" or n.startswith("fluxlattice.")]

    def after(name, result, args, kwargs):
        counters = tracer.counters
        if name == "algebra.multiply":
            counters["algebra.multiply.term_products"] += len(args[0]) * len(args[1])
        elif name == "operators.commutant_scan":
            max_exp = args[1] if len(args) > 1 else kwargs["max_exp"]
            counters["operators.commutant_scan.words"] += (2 * max_exp + 1) ** 4
        elif name == "operators.truncate":
            window = args[1] if len(args) > 1 else kwargs["window"]
            counters["operators.truncate.sites"] += math.prod(hi - lo + 1 for lo, hi in window)
        elif name == "spectral.spectrum":
            counters["spectral.samples"] += int(result.samples.size)
            counters["spectral.kpoints"] += result.k_grid ** 2
        elif name in ("spectral.csv_write", "spectral.json_write"):
            counters[f"{name}.bytes"] += os.path.getsize(args[1])
        elif name == "landau.build":
            counters["landau.dim"] = max(counters["landau.dim"], result.ham.shape[0])
            held = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
            counters["landau.operator_bytes"] = max(counters["landau.operator_bytes"], held)

    def rebind(orig, wrapper):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)

    for name, (module_name, path) in TIMED.items():
        owner, attr = _resolve(getattr(fluxlattice, module_name), path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        orig = raw.__func__ if is_classmethod else raw
        layer = name.split(".")[0]

        def wrapper(*args, _name=name, _layer=layer, _orig=orig, **kwargs):
            result = tracer.call(_name, _layer, _orig, args, kwargs)
            after(_name, result, args, kwargs)
            return result
        wrapper = functools.wraps(orig)(wrapper)
        if isinstance(owner, type):
            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        else:
            rebind(orig, wrapper)

    linalg = np.linalg
    eigvalsh = linalg.eigvalsh

    def traced_eigvalsh(a, *args, **kwargs):
        layer = tracer.current_layer("numpy")
        counters = tracer.counters
        counters[f"{layer}.eigvalsh.matrices"] += math.prod(a.shape[:-2])
        if layer == "spectral":
            counters["spectral.bloch_bytes"] = max(counters["spectral.bloch_bytes"], a.nbytes)
        return tracer.call(f"{layer}.eigvalsh", layer, eigvalsh, (a, *args), kwargs)
    linalg.eigvalsh = traced_eigvalsh

    def counted(cls, attr, key):
        orig = getattr(cls, attr)

        def wrapper(*args, **kwargs):
            tracer.counters[key] += 1
            return orig(*args, **kwargs)
        setattr(cls, attr, functools.wraps(orig)(wrapper))

    counted(operators.BasisMapOperator, "__matmul__", "operators.compose.calls")
    counted(operators.BasisMapOperator, "equals", "operators.equals.calls")

    reduce = phases.ExactPhase.reduce

    def sampled_reduce(self, flux=None):
        counters = tracer.counters
        counters["phases.reduce.calls"] += 1
        if counters["phases.reduce.calls"] % REDUCE_SAMPLE:
            return reduce(self, flux)
        start = time.perf_counter()
        try:
            return reduce(self, flux)
        finally:
            counters["phases.reduce.sampled_s"] += time.perf_counter() - start
            counters["phases.reduce.sampled"] += 1
    phases.ExactPhase.reduce = functools.wraps(reduce)(sampled_reduce)

    add = reporting.RelationReport.add

    def counted_add(self, name, holds, *args, **kwargs):
        counters = tracer.counters
        counters["reporting.checks"] += 1
        counters["reporting.checks_failed"] += not holds
        return add(self, name, holds, *args, **kwargs)
    reporting.RelationReport.add = functools.wraps(add)(counted_add)
