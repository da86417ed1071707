"""Per-layer spans around the public functions of each ``qcrb_kit`` module.

The program has no tracing of its own, so the traced run wraps public
functions and methods from here: every reference to a wrapped function in
any ``qcrb_kit`` module is swapped for a wrapper while the tracer is
installed, and restored afterwards. A wrapper records its call count and
self time (its span minus the spans of wrapped calls made inside it), plus
the counted work and failure ratios named in ``COUNTERS``. Spans are
aggregated per function in memory as they close; the program is
single-threaded, so one span stack suffices and there is no wait time.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# module -> public functions; "Class.method" wraps a method, a bare class
# name wraps its constructor. Metric names drop the class of a method.
TARGETS = {
    "hermitian": ["eigh", "solve_symmetric_product", "psd_sqrt", "trace_product"],
    "models": [
        "ParametricStateModel.rho", "ParametricStateModel.drho",
        "ParametricStateModel.dsqrt_rho", "SpectralMixtureModel.frame_at",
        "SpectralMixtureModel.dprojectors_at",
    ],
    "quantum": [
        "sld", "wy_info_generic", "helstrom_info_spectral", "wy_info_spectral",
        "gamma_spectral", "helstrom_info_qubit_closed", "wy_info_qubit_closed",
        "relation_report",
    ],
    "classical": ["Povm", "random_povm", "outcome_probs", "classical_fisher", "bound_check"],
    "simulate": ["run_sim", "sample_outcomes"],
    "verify": ["run_suite"],
    "configio": ["model_from_config", "povm_from_config"],
    "cli": ["emit_csv", "emit_json"],
}


def _dim(m) -> int:
    return int(m.dim) if hasattr(m, "dim") else len(m)


def _n3(args, result) -> int:
    return _dim(args[0]) ** 3


# label -> (metric suffix, unit, divided by calls rather than ops, increment per call)
COUNTERS = {
    "hermitian.eigh": ("work_n3", "n3", False, _n3),
    "hermitian.solve_symmetric_product": ("work_n3", "n3", False, _n3),
    "models.dsqrt_rho": ("fd_fallback_ratio", "ratio", True,
                         lambda args, result: int(result.fd_fallback)),
    "quantum.relation_report": ("route_error_ratio", "ratio", True,
                                lambda args, result: int(bool(result.route_errors))),
    "verify.run_suite": ("failed_checks", "count", False,
                         lambda args, result: sum(not r.passed for r in result)),
}


def labels() -> list[str]:
    return [f"{mod}.{target.rsplit('.', 1)[-1]}" for mod, names in TARGETS.items() for target in names]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for label in labels():
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_ms"] = "ms"
        if label in COUNTERS:
            suffix, unit, _, _ = COUNTERS[label]
            units[f"{label}.{suffix}"] = unit
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Installs span wrappers into the loaded ``qcrb_kit`` modules on demand."""

    def __init__(self):
        self.stats = {label: {"calls": 0, "self_s": 0.0, "counted": 0} for label in labels()}
        self._stack = []  # time covered by child spans, one entry per open span
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, label, fn):
        stats = self.stats[label]
        stack = self._stack
        count = COUNTERS[label][3] if label in COUNTERS else None

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += span
                stats["calls"] += 1
                stats["self_s"] += span - children
            if count is not None:
                stats["counted"] += count(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    def install(self) -> None:
        loaded = [m for name, m in sys.modules.items() if name.startswith("qcrb_kit")]
        for mod_name, names in TARGETS.items():
            module = importlib.import_module(f"qcrb_kit.{mod_name}")
            for target in names:
                label = f"{mod_name}.{target.rsplit('.', 1)[-1]}"
                if "." in target:
                    cls_name, attr = target.split(".")
                    owner = getattr(module, cls_name)
                    self._patch(owner, attr, self._wrap(label, owner.__dict__[attr]))
                    continue
                original = getattr(module, target)
                if isinstance(original, type):
                    self._patch(original, "__init__", self._wrap(label, original.__dict__["__init__"]))
                    continue
                wrapper = self._wrap(label, original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def per_op(self, ops: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics averaged over ``ops`` traced operations."""
        out = {}
        for label, s in self.stats.items():
            out[f"{label}.calls"] = s["calls"] / ops
            out[f"{label}.self_ms"] = 1e3 * s["self_s"] / ops
            if label in COUNTERS:
                suffix, _, per_call, _ = COUNTERS[label]
                base = s["calls"] if per_call else ops
                out[f"{label}.{suffix}"] = s["counted"] / base if base else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out
