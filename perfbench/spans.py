"""Span tracing from outside the program.

The tracer wraps the public functions of each `idbal` module in place, for
the duration of a `with` block, and records one span per call: layer, start,
end and the span that was open when the call began. Modules import helpers by
name (`from .hypotheses import ogd_update` in `learners` and `policies`), so
every module global bound to a traced function is rebound, not only the
defining module's, and the `ALGORITHMS` dispatch tables are replaced by
traced copies. Spans live in flat arrays while the block runs and are written
to one file when it ends. `LinearModel.raw_score` is deliberately left alone:
it runs about 1.7M times per dense sweep, so timing it would mostly measure
the timer.
"""
from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# layer -> (module, function) pairs whose calls count toward it
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "data.generate": (("idbal.data", "generate_synthetic"),),
    "data.parse": (("idbal.data", "parse_sparse_dataset"),),
    "data.split": (("idbal.data", "split_dataset"),),
    "data.logging": (("idbal.data", "apply_logging"),),
    "data.dense": (("idbal.data", "to_dense_matrix"),),
    "policies.prob": (("idbal.policies", "policy_prob"),),
    "policies.fit": (("idbal.policies", "fit_coarse_model"),),
    "policies.calibrate": (("idbal.policies", "calibrate_scale"),),
    "estimators.mis_error": (("idbal.estimators", "mis_error"),),
    "hypotheses.test_error": (("idbal.hypotheses", "classification_error"),),
    "hypotheses.update": (("idbal.hypotheses", "ogd_update"),),
    "hypotheses.region": tuple(
        ("idbal.hypotheses", name)
        for name in ("approx_dis_test", "approx_dis_mask", "exact_dis_test")
    ),
    "hypotheses.erm": (("idbal.hypotheses", "erm_weighted"), ("idbal.hypotheses", "update_candidates")),
    "learners.run": tuple(
        ("idbal.learners", name) for name in ("run_passive", "run_dbalw", "run_dbalwm", "run_idbal")
    ),
    "harness.aggregate": tuple(
        ("idbal.harness", name) for name in ("aggregate_curves", "auc", "best_auc")
    ),
    "harness.report": (("idbal.harness", "report"), ("idbal.harness", "records_to_json")),
    "oracle.mc": tuple(
        ("idbal.oracle", name) for name in ("mc_unbiasedness", "variance_compare", "concentration_rate")
    ),
    "oracle.geometry": tuple(
        ("idbal.oracle", name)
        for name in ("disagreement_mass", "dis_ball", "dis_region", "s_region", "adjusted_dis_coefficient")
    ),
}
# layer -> (class, classmethod names): sample construction goes through these
CLASSMETHOD_LAYERS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "estimators.sample": ("idbal.estimators", "WeightedSample", ("balanced", "phase_weighted")),
}


class Tracer:
    """Records spans while active. Use as a context manager; `call` runs a
    benchmark-side function (for example the unit being measured) as a span
    of its own, so the program's spans have a common parent."""

    def __init__(self):
        self.names: list[str] = []
        self.layer: array = array("H")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self._stack: list[int] = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str):
        code = len(self.names)
        self.names.append(layer)
        layers, starts, ends, parents, stack = self.layer, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(layers)
            layers.append(code)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items()) if name == "idbal" or name.startswith("idbal.")]
        wrapped: dict[int, object] = {}
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                fn = getattr(sys.modules.get(module_name), attr, None)
                if fn is not None:
                    wrapped[id(fn)] = self._wrap(fn, layer)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and callable(value):
                    self._rebind(module, attr, wrapped[id(value)])
                elif attr == "ALGORITHMS" and isinstance(value, dict):
                    table = {k: wrapped.get(id(v), v) for k, v in value.items()}
                    self._rebind(module, attr, table)
        for layer, (module_name, cls_name, methods) in CLASSMETHOD_LAYERS.items():
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            for method in methods:
                raw = vars(cls).get(method) if cls is not None else None
                if isinstance(raw, classmethod):
                    self._rebind(cls, method, classmethod(self._wrap(raw.__func__, layer)))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def call(self, name: str, fn, *args, **kwargs):
        return self._wrap(fn, name)(*args, **kwargs)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        """Write every span as columns (layer code, start, end, parent index,
        -1 for none) plus the code -> layer name table, in one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds). Self time is a span's duration
        minus the time covered by its direct child spans."""
        cols = self.arrays()
        duration = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        covered = np.bincount(
            cols["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        own = duration - covered
        calls = np.bincount(cols["layer"], minlength=len(self.names))
        seconds = np.bincount(cols["layer"], weights=own, minlength=len(self.names))
        totals: dict[str, tuple[int, float]] = {}
        for code, name in enumerate(self.names):
            count, spent = totals.get(name, (0, 0.0))
            totals[name] = (count + int(calls[code]), spent + float(seconds[code]))
        return totals

    def inclusive_seconds(self, layer: str) -> float:
        cols = self.arrays()
        codes = [code for code, name in enumerate(self.names) if name == layer]
        chosen = np.isin(cols["layer"], codes)
        return float((cols["end"][chosen] - cols["start"][chosen]).sum())

