"""Outside-in layer trace for realkit.

The tracer wraps public functions of realkit's modules from the
benchmark's side; realkit itself is not changed. A wrapped name is rebound
in every realkit module that imported it (for example
`realkit.setrealize.float_phase1` and `realkit.pp.exact_simplex`), and
`from_json` constructors are rebound on their classes, so internal calls
are traced as well. Each call records a span (name, start, end, parent
span, request id) in memory; counters are updated at the same boundary.
`uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable


def _columns(counts, name, args, kwargs, result):
    cols = args[0]
    counts[name + ".columns"] += cols.shape[1] if hasattr(cols, "shape") else len(cols)


def _successes(counts, name, args, kwargs, result):
    counts[name + ".successes"] += result is not None


def _qubo(counts, name, args, kwargs, result):
    exact = kwargs.get("exact", args[3] if len(args) > 3 else True)
    counts[name + ".exact_calls"] += bool(exact)
    counts[name + ".max_n"] = max(counts[name + ".max_n"], args[2])


def _configs(counts, name, args, kwargs, result):
    counts[name + ".configs"] += len(result)


# layer name -> counter hook; the name is "<module>.<attribute path>"
LAYERS: dict[str, Callable | None] = {
    "cli.main": None,
    "numbers.parse_rational": None,
    "numbers.format_rational": None,
    "setrealize.TwoPointTarget.from_json": None,
    "pp.CorrelationTarget.from_json": None,
    "metric.FiniteMetricSpace.from_json": None,
    "regularity.PsiFunction.from_json": None,
    "contact.StepCdf.from_json": None,
    "contact.BallSystem.from_json": None,
    "setrealize.realize_subsets": None,
    "setrealize.certificate_from_dual": _successes,
    "setrealize.verify_certificate": None,
    "pp.realize_pp": None,
    "pp.enumerate_configs": _configs,
    "pp.verify_pp_certificate": None,
    "pp.positivity_screen": None,
    "lp.float_phase1": _columns,
    "lp.exact_simplex": _columns,
    "lp.solve_nonneg_exact": _successes,
    "qubo.qubo_min": _qubo,
    "qubo.qubo_topk_float": None,
    "metric.packing_number": None,
    "metric.gamma_min_pairs": None,
    "regularity.chi_hc_integral": None,
    "regularity.packing_integral": None,
    "regularity.psi_admissibility": None,
    "regularity.shell_series": None,
    "regularity.reduced_measure_check": None,
    "contact.check_two_point": None,
    "contact.ball_positivity_screen": None,
    "contact.monte_carlo_contact": None,
}

# extra per-layer metrics beside .self_s and .calls: (suffix, unit, better)
EXTRAS = {
    "lp.float_phase1": [("columns", "count", "lower")],
    "lp.exact_simplex": [("columns", "count", "lower")],
    "lp.solve_nonneg_exact": [("success_ratio", "ratio", "higher")],
    "qubo.qubo_min": [("exact_calls", "count", "lower"), ("max_n", "count", "lower")],
    "setrealize.certificate_from_dual": [("success_ratio", "ratio", "higher")],
    "pp.enumerate_configs": [("configs", "count", "lower")],
}


class Tracer:
    """Span and counter collector; spans are (name, start, end, parent, request)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request: str | None = None
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if hook is not None:
                hook(self.counts, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("realkit.") and m is not None]
        for name, hook in LAYERS.items():
            module_name, *path = name.split(".")
            owner = sys.modules[f"realkit.{module_name}"]
            if len(path) == 2:
                cls = getattr(owner, path[0])
                original = cls.__dict__[path[1]]
                cls_wrapped = staticmethod(self._wrap(name, original.__func__, hook))
                setattr(cls, path[1], cls_wrapped)
                self._undo.append(lambda c=cls, a=path[1], o=original: setattr(c, a, o))
                continue
            original = getattr(owner, path[0])
            wrapped = self._wrap(name, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._undo.append(lambda m=module, a=attr, o=original: setattr(m, a, o))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_metrics(self, passes: int, mean_pass_s: float) -> dict[str, float]:
        """Per-pass self time and calls for every layer, the extras, and
        the part of the traced batch time no root span covers."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time: dict[int, float] = defaultdict(float)
        roots = 0.0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            if parent is None:
                roots += end - start
            else:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += end - start - child_time[idx]
            calls[name] += 1
        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.self_s"] = self_s[name] / passes
            out[f"{name}.calls"] = calls[name] / passes
            for suffix, _, _ in EXTRAS.get(name, ()):
                if suffix == "success_ratio":
                    hits = self.counts[name + ".successes"]
                    out[f"{name}.{suffix}"] = hits / calls[name] if calls[name] else 0.0
                elif suffix == "max_n":
                    out[f"{name}.{suffix}"] = self.counts[f"{name}.{suffix}"]
                else:
                    out[f"{name}.{suffix}"] = self.counts[f"{name}.{suffix}"] / passes
        out["unattributed_s"] = mean_pass_s - roots / passes
        return out


def per_layer_spec() -> list[dict]:
    """The per-layer metric list, in the form BENCHMARK.json declares it."""
    spec = []
    for name in LAYERS:
        spec.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        for suffix, unit, better in EXTRAS.get(name, ()):
            spec.append({"name": f"{name}.{suffix}", "unit": unit, "better": better})
    spec.append({"name": "unattributed_s", "unit": "s", "better": "lower"})
    spec.append({"name": "trace_overhead", "unit": "ratio", "better": "lower"})
    return spec
