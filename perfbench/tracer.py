"""Outside-in layer tracing: wrap the public functions of every tlc layer.

Each wrapped call records a span (function, parent span, start, end).  The
wrapper replaces the function object wherever a tlc module holds a reference
to it, not only in its defining module, because several modules import
functions by name (enumeration imports rank, compress imports closure,
stabset imports slack_matrix).  Spans stay in memory and are written when the
tracer is closed; every original is restored on exit.
"""

from __future__ import annotations

import array
import json
import sys
import time
from pathlib import Path

# (module, attribute path, metric name); "Class.method" wraps a method
LAYERS = [
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "first_independent", "linalg.first_independent"),
    ("linalg", "inverse_and_det", "linalg.inverse_and_det"),
    ("linalg", "hnf", "linalg.hnf"),
    ("linalg", "lattice_member", "linalg.lattice_member"),
    ("linalg", "lattice_determinant_rect", "linalg.lattice_determinant_rect"),
    ("linalg", "lp_feasible", "linalg.lp_feasible"),
    ("configuration", "closure", "configuration.closure"),
    ("configuration", "spans", "configuration.spans"),
    ("configuration", "Configuration.__init__", "configuration.Configuration"),
    ("configuration", "slack_matrix", "configuration.slack_matrix"),
    ("configuration", "from_slack_matrix", "configuration.from_slack_matrix"),
    ("configuration", "is_maximal_in_md", "configuration.is_maximal_in_md"),
    ("configuration", "normalize_to_binary", "configuration.normalize_to_binary"),
    ("canon", "canonical_form", "canon.canonical_form"),
    ("geometry", "complete_maximal_pair", "geometry.complete_maximal_pair"),
    ("stabset", "stab_maximal_slack", "stabset.stab_maximal_slack"),
    ("corrcone", "is_face", "corrcone.is_face"),
    ("corrcone", "certificate_encode", "corrcone.certificate_encode"),
    ("corrcone", "certificate_decode", "corrcone.certificate_decode"),
    ("corrcone", "enumerate_faces", "corrcone.enumerate_faces"),
    ("compress", "compress", "compress.compress"),
    ("compress", "decompress", "compress.decompress"),
    ("compress", "select_generators", "compress.select_generators"),
    ("compress", "phi", "compress.phi"),
    ("enumeration", "enumerate_maximal", "enumeration.enumerate_maximal"),
    ("store", "Store.put", "store.put"),
]

# per-layer ratios: metric name -> (numerator count, denominator count, unit)
RATIOS = {
    "linalg.lp_feasible.feasible_ratio": ("lp_feasible", "linalg.lp_feasible.calls", "ratio"),
    "linalg.lp_feasible.cells_mean": ("lp_cells", "linalg.lp_feasible.calls", "cells"),
    "configuration.closure.kept_ratio": ("closure_kept", "closure_patterns", "ratio"),
    "canon.canonical_form.cells_mean": ("canon_cells", "canon.canonical_form.calls", "cells"),
    "enumeration.spanning_ratio": ("enum_spanning", "enum_seeds", "ratio"),
    "enumeration.classes_per_completion": ("enum_classes", "enum_completions", "ratio"),
}
SUMS = {"store.put.bytes": ("put_bytes", "bytes")}


def _observe(name, args, result, counts):
    """Work counts taken from a call's arguments and result."""
    if name == "linalg.lp_feasible":
        aeq = args[0]
        counts["lp_cells"] += len(aeq) * (len(aeq[0]) if aeq else 0)
        counts["lp_feasible"] += result is not None
    elif name == "configuration.closure":
        counts["closure_kept"] += len(result)
        counts["closure_patterns"] += 1 << args[1]
    elif name == "canon.canonical_form":
        counts["canon_cells"] += args[0].rows * args[0].cols
    elif name == "enumeration.enumerate_maximal":
        st = result.stats
        counts["enum_seeds"] += st.seeds_total
        counts["enum_spanning"] += st.seeds_spanning
        counts["enum_completions"] += st.completions
        counts["enum_classes"] += st.classes
    elif name == "store.put":
        counts["put_bytes"] += len(args[2])


def metric_units() -> dict[str, str]:
    """Every metric Tracer.metrics() reports, with its unit."""
    units = {}
    for _, _, name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({metric: unit for metric, (_, _, unit) in RATIOS.items()})
    units.update({metric: unit for metric, (_, unit) in SUMS.items()})
    return units


def _tlc_modules():
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "tlc" or n.startswith("tlc."))]


class Tracer:
    """Context manager; while active every LAYERS function records spans."""

    def __init__(self):
        self.names = [name for _, _, name in LAYERS]
        self.span_name = array.array("H")
        self.span_parent = array.array("l")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = {k: 0 for num, den, _ in RATIOS.values() for k in (num, den)}
        self.counts.update({k: 0 for k, _ in SUMS.values()})
        self._stack: list = []  # [span index, child seconds]
        self._restore: list = []

    def _wrap(self, idx: int, name: str, fn):
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts
        s_name, s_parent, s_start, s_end = self.span_name, self.span_parent, self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = len(s_name)
            s_name.append(idx)
            s_parent.append(stack[-1][0] if stack else -1)
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                s_start[span] = t0
                s_end[span] = t1
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            _observe(name, args, result, counts)
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def __enter__(self):
        import importlib

        modules = _tlc_modules()
        for idx, (mod_name, attr, name) in enumerate(LAYERS):
            mod = importlib.import_module(f"tlc.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._rebind(owner, meth, original, self._wrap(idx, name, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(idx, name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, original, wrapper)
        return self

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def __exit__(self, *exc):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)
        return False

    def metrics(self) -> dict:
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_s"] = self.self_s[idx]
        for metric, (num, den, _) in RATIOS.items():
            base = out[den] if den in out else self.counts[den]
            out[metric] = self.counts[num] / base if base else 0.0
        for metric, (key, _) in SUMS.items():
            out[metric] = self.counts[key]
        return out

    def write(self, path: Path):
        """Spans as JSON: parallel arrays indexed by span id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def wrapped_references() -> list[str]:
    """Names in tlc modules (or on their classes) still bound to a tracer
    wrapper; empty outside a Tracer block."""
    found = []
    for m in _tlc_modules():
        for key, value in vars(m).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{m.__name__}.{key}")
            if isinstance(value, type):
                found += [f"{m.__name__}.{key}.{k}" for k, v in vars(value).items() if hasattr(v, "perfbench_span")]
    return found
