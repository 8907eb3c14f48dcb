"""Spans around the program's layer functions, installed from outside.

A Tracer replaces each function named in TARGETS by a timing wrapper.  The
replacement is made on every loaded freeprob module that holds the
function under any name (the defining module, freeprob.cli, the package
namespace, and any other module that imported it), so calls through any of those names are seen.  Nothing under src/ changes.

Spans (op, name, start, end, parent) stay in memory and are written out by
the caller when the run ends.  A layer's time is its self time: the span's
duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# (module, function, options); "alloc" records the tracemalloc peak inside
# the call
TARGETS = (
    ("freeprob.matmodel", "haar_unitary", {}),
    ("freeprob.matmodel", "build_m2_free_m2", {"alloc": True}),
    ("freeprob.matmodel", "realize", {}),
    ("freeprob.matmodel", "spectrum", {"by_source": True}),
    ("freeprob.matmodel", "ks_distance", {}),
    ("freeprob.matmodel", "exact_identity_residuals", {}),
    ("freeprob.matmodel", "word_trace", {}),
    ("freeprob.matmodel", "build_free_group", {}),
    ("freeprob.matmodel", "trace_factorization_check", {}),
    ("freeprob.brownfield", "default_epsilon", {}),
    ("freeprob.brownfield", "logdet_field", {"nodes": True}),
    ("freeprob.brownfield", "brown_laplacian", {}),
    ("freeprob.brownfield", "field_csv_text", {}),
    ("freeprob.brownfield", "mass_csv_text", {}),
    ("freeprob.algstruct", "close_algebra", {}),
    ("freeprob.algstruct", "find_invariant_subspace", {}),
    ("freeprob.algstruct", "kfold_transitive", {}),
    ("freeprob.algstruct", "commutant", {"alloc": True}),
    ("freeprob.algstruct", "radical", {}),
    ("freeprob.rdiagonal", "catalog_brown", {}),
    ("freeprob.rdiagonal", "pullback_radii", {}),
    ("freeprob.matio", "load_matrix", {}),
)

# every per-layer metric the traced run prints, with its unit
PER_LAYER = {
    "matmodel.haar_unitary.s": "s",
    "matmodel.build_m2_free_m2.s": "s",
    "matmodel.build_m2_free_m2.alloc_mb": "MB",
    "matmodel.realize.s": "s",
    "matmodel.spectrum.W1F12.s": "s",
    "matmodel.spectrum.E12_plus_F12.s": "s",
    "matmodel.spectrum.W1_plus_F12.s": "s",
    "matmodel.ks_distance.s": "s",
    "matmodel.exact_identity_residuals.s": "s",
    "matmodel.word_trace.s": "s",
    "matmodel.build_free_group.s": "s",
    "matmodel.trace_factorization_check.s": "s",
    "brownfield.default_epsilon.s": "s",
    "brownfield.logdet_field.s": "s",
    "brownfield.logdet_field.node_us": "us",
    "brownfield.brown_laplacian.s": "s",
    "brownfield.field_csv_text.s": "s",
    "brownfield.mass_csv_text.s": "s",
    "algstruct.close_algebra.s": "s",
    "algstruct.find_invariant_subspace.s": "s",
    "algstruct.kfold_transitive.s": "s",
    "algstruct.commutant.s": "s",
    "algstruct.commutant.calls": "count",
    "algstruct.commutant.alloc_mb": "MB",
    "algstruct.radical.s": "s",
    "rdiagonal.catalog_brown.s": "s",
    "rdiagonal.pullback_radii.s": "s",
    "matio.load_matrix.s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((self.op, name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        op, name, start, _, parent = self.spans[idx]
        self.spans[idx] = (op, name, start, time.perf_counter(), parent)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, short: str, fn, options: dict):
        tracer = self

        def traced(*args, **kwargs):
            name = short
            if options.get("by_source"):
                source = kwargs.get("source", args[1] if len(args) > 1 else "")
                name = f"{short}.{source or 'unnamed'}"
            if options.get("nodes"):
                grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
                tracer.counters[f"{short}.nodes"] += grid.nx * grid.ny
            alloc = options.get("alloc") and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            tracer.counters[f"{short}.calls"] += 1
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peaks[f"{short}.alloc_mb"] = max(
                        tracer.peaks[f"{short}.alloc_mb"], peak
                    )

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "freeprob"]
        for module_name, attr, options in TARGETS:
            owner = sys.modules[module_name]
            original = getattr(owner, attr)
            short = f"{module_name.split('.', 1)[1]}.{attr}"
            wrapper = self._wrap(short, original, options)
            self._replace(owner, attr, wrapper)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._replace(module, name, wrapper)

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (_, name, start, end, _), covered in zip(self.spans, child_time):
            totals[name] += (end - start) - covered
        return dict(totals)

    def raw_metrics(self) -> dict[str, float]:
        """Sums that the parent adds up over worker processes."""
        out = {f"{name}.s": value for name, value in self.self_times().items()}
        out.update(self.counters)
        return out
