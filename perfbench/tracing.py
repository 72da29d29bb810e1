"""Spans around the public functions of every asymtop module.

The tracer replaces each named function at every module binding of it (the
package re-exports them, and ``cli``, ``verify`` and ``wavefunctions`` import
them by name), so calls made inside the package are recorded as well as the
benchmark's own.  Nothing under ``src/`` changes; ``uninstall`` puts the
original objects back.

A span is (name, start, end, parent span, operation id, j, error).  Spans stay
in memory until the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are sequential, so children never
overlap.  While ``enabled`` is false the wrappers record nothing.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import PARAM_CLASSES, VERIFY_CHECKS

CHECK_FUNCTIONS = tuple("check_" + name.replace("-", "_") for name in VERIFY_CHECKS)

TRACED = {
    "cli": ("main",),
    "verify": ("run_all", *CHECK_FUNCTIONS),
    "spectra": ("spectrum", "phi_state"),
    "wavefunctions": (
        "psi_eval",
        "psi_via_kernel",
        "t_matrix",
        "t_matrix_quadrature",
        "completeness_defect",
    ),
    "wigner": ("wigner_d_matrix", "wigner_D_matrix", "wigner_gram", "unitarity_defect"),
    "lambda_rep": ("ell_matrix", "weight_vector", "q_rule"),
    "so3": ("haar_rule",),
}

ROUTES = ("wigner", "lambda", "lame")
# functions whose cost is fitted against j; j is their first argument
SCALED = ("spectra.spectrum", "spectra.phi_state", "wigner.wigner_d_matrix")
J_BUCKETS = (4, 10, 20, 40, 80, 160)  # upper edges; bucket jN holds j <= N
J_FIT_MIN = 8  # below this, fixed per-call costs hide the growth in j

_BASIC = ("calls", "busy_s", "self_s")
_SCALING = tuple(f"ms_per_call.j{edge}" for edge in J_BUCKETS) + ("j_exponent",)
_UNITS = {"calls": "calls/op", "busy_s": "s/op", "self_s": "s/op", "failed": "count/op"}


def _span_names() -> list[tuple[str, tuple[str, ...]]]:
    """(span name, stats reported for it) in report order."""
    out: list[tuple[str, tuple[str, ...]]] = [("cli.main", _BASIC + ("failed",))]
    out.append(("verify.run_all", _BASIC))
    out += [(f"verify.{fn}", ("self_s",)) for fn in CHECK_FUNCTIONS]
    out += [(f"spectra.spectrum.{r}", _BASIC + ("failed",) + _SCALING) for r in ROUTES]
    out.append(("spectra.phi_state", _BASIC + _SCALING))
    for module in ("wavefunctions", "wigner", "lambda_rep", "so3"):
        for fn in TRACED[module]:
            name = f"{module}.{fn}"
            out.append((name, _BASIC + (_SCALING if name in SCALED else ())))
    return out


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name, stats in _span_names():
        for stat in stats:
            if stat.startswith("ms_per_call"):
                unit = "ms"
            elif stat == "j_exponent":
                unit = "slope"
            else:
                unit = _UNITS[stat]
            out.append((f"{name}.{stat}", unit, "lower"))
    out.append(("cli.stdout_bytes", "bytes/op", "lower"))
    out.append(("spectra.degeneracy_warnings", "count/op", "lower"))
    for cls in PARAM_CLASSES:
        out.append((f"levels.lame_probe.{cls}.failed", "share", "lower"))
    out.append(("verify.pde_residual.redraws", "count/op", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "higher"))
    return out


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        by_route = name == "spectra.spectrum"
        scaled = name in SCALED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name
            if by_route:
                route = kwargs.get("route", args[2] if len(args) > 2 else "wigner")
                label = f"{name}.{route}"
            j = args[0] if scaled and args else -1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, self.op, j, error)

        return traced

    def install(self) -> None:
        """Wrap every traced function at every binding in asymtop's modules."""
        modules = [m for n, m in sys.modules.items() if n == "asymtop" or n.startswith("asymtop.")]
        wrappers = {}
        for module, names in TRACED.items():
            home = sys.modules[f"asymtop.{module}"]
            for fn in names:
                original = getattr(home, fn)
                wrappers[id(original)] = (original, self._wrap(f"{module}.{fn}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Spans as JSON lines, gzip-compressed."""
        keys = ("name", "start", "end", "parent", "op", "j", "error")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def summary(self, op_scales: list[float]) -> dict[str, float]:
        """Span-derived per-layer metrics, normalized per operation.

        `op_scales[k]` is the host-speed factor of operation k; span times
        are scaled by the factor of their operation.
        """
        n_ops = len(op_scales)
        names = [s[0] for s in self.spans]
        scale = np.asarray(op_scales)[[s[4] for s in self.spans]]
        dur = np.array([s[2] - s[1] for s in self.spans]) * scale
        parents = np.array([s[3] for s in self.spans], dtype=int)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child

        groups: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(names):
            groups[name].append(i)
        out: dict[str, float] = {}
        for name, stats in _span_names():
            idx = np.array(groups.get(name, []), dtype=int)
            for stat in stats:
                key = f"{name}.{stat}"
                if stat == "calls":
                    out[key] = len(idx) / n_ops
                elif stat == "busy_s":
                    out[key] = float(dur[idx].sum()) / n_ops
                elif stat == "self_s":
                    out[key] = float(self_time[idx].sum()) / n_ops
                elif stat == "failed":
                    out[key] = sum(self.spans[i][6] is not None for i in idx) / n_ops
            if name.startswith(SCALED) and len(idx):
                js = np.array([self.spans[i][5] for i in idx])
                out.update(_scaling(name, js, dur[idx]))
            elif name.startswith(SCALED):
                out.update({f"{name}.{stat}": 0.0 for stat in _SCALING})
        return out


def _scaling(name: str, js: np.ndarray, dur: np.ndarray) -> dict[str, float]:
    """Mean ms per call in each j bucket, and the log-log slope in j."""
    out = {}
    lower = -1
    for edge in J_BUCKETS:
        mask = (js > lower) & (js <= edge)
        out[f"{name}.ms_per_call.j{edge}"] = 1e3 * float(dur[mask].mean()) if mask.any() else 0.0
        lower = edge
    fit_js = np.unique(js[js >= J_FIT_MIN])
    slope = 0.0
    if len(fit_js) >= 3:
        means = np.array([dur[js == j].mean() for j in fit_js])
        slope = float(np.polyfit(np.log(fit_js), np.log(means), 1)[0])
    out[f"{name}.j_exponent"] = slope
    return out
