"""Timing spans around the calls into each pfspectra layer.

``Tracer.install`` replaces every wrapped public function in each
pfspectra module namespace that binds it (``build_so`` is bound in
``liecore``, ``oracle``, ``cli`` and the package itself) and every wrapped
method on its class.  Each call records one span -- name, start, end,
parent span, case id, and whether it raised -- in memory.  Self times and
counters are derived from the spans afterwards; ``uninstall`` restores
the original objects.  tracemalloc runs only around the calls named in
``MEMORY_TRACKED``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, public function or Class.method).  A span is named
# "<module>.<function>", so methods drop their class name.
WRAPPED = (
    ("liecore", "build_so"),
    ("liecore", "cartan_decompose"),
    ("liecore", "gram_schmidt"),
    ("liecore", "MatrixLieAlgebra.from_matrix"),
    ("adspec", "paired_bases"),
    ("oracle", "build_mu_block"),
    ("oracle", "TruncatedOperator.eigenvalues"),
    ("oracle", "compare_spectra"),
    ("oracle", "mu_block_residual"),
    ("oracle", "sphere_pair"),
    ("oracle", "sphere_geometry"),
    ("oracle", "group_shape_matrix"),
    ("oracle", "finite_group_oracle"),
    ("oracle", "shape_apply_raw"),
    ("oracle", "label_closed_form"),
    ("spectra", "r_trace"),
    ("spectra", "zeta_trace"),
    ("spectra", "enumerate_by_floor"),
    ("spectra", "enumerate_rows"),
    ("symmetrycheck", "austere_check_finite"),
    ("symmetrycheck", "austere_check_pf"),
    ("symmetrycheck", "product_sphere_shape"),
    ("symmetrycheck", "so9_build"),
    ("symmetrycheck", "subspace_preserved"),
    ("transport", "solve_transport"),
    ("transport", "random_group_path"),
    ("transport", "gauge_act"),
    ("transport", "coset_log"),
    ("formats", "load_document"),
    ("formats", "canonical_json"),
    ("cli", "main"),
)
MODULES = ("liecore", "adspec", "oracle", "spectra", "symmetrycheck", "transport",
           "formats", "cli")
MEMORY_TRACKED = frozenset({"liecore.build_so", "oracle.build_mu_block"})


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# Work counters read at the layer boundary: span name -> (args, kwargs,
# result) -> {counter: increment}.
_COUNTERS = {
    "adspec.paired_bases": lambda a, k, r: {"adspec.blocks": len(r.blocks)},
    "oracle.compare_spectra": lambda a, k, r: {
        "oracle.eig_compared": len(r.entries),
        "oracle.eig_computed": len(_first(a, k).labels),
    },
    "spectra.enumerate_by_floor": lambda a, k, r: {"spectra.enumerate_by_floor.rows": len(r)},
    "symmetrycheck.austere_check_finite": lambda a, k, r: {
        "symmetrycheck.austere_check_finite.entries": len(_first(a, k).entries)
    },
    "transport.solve_transport": lambda a, k, r: {
        "transport.solve_transport.steps": _first(a, k).nodes - 1
    },
    "formats.canonical_json": lambda a, k, r: {"formats.canonical_json.bytes": len(r.encode())},
}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, case, raised)
        self.counts = defaultdict(int)
        self.peak_mb = defaultdict(float)
        self.case = None
        self._stack = []
        self._restore = []

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        track = name in MEMORY_TRACKED
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            tracking = track and not tracemalloc.is_tracing()
            if tracking:
                tracemalloc.start()
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                if tracking:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peak_mb[name] = max(self.peak_mb[name], peak)
                stack.pop()
                spans[idx] = (name, start, end, parent, self.case, raised)
            if count:
                for key, inc in count(args, kwargs, result).items():
                    self.counts[key] += inc
            return result

        return traced

    def install(self) -> None:
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "pfspectra" or n.startswith("pfspectra.")]
        for module_name, attr in WRAPPED:
            module = importlib.import_module(f"pfspectra.{module_name}")
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(name, orig))
                continue
            orig = getattr(module, attr)
            traced = self.wrap(name, orig)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._patch(ns, key, traced)

    def _patch(self, owner, key, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, case, raised in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "case": case, "raised": raised}))
                fh.write("\n")


def self_times(spans) -> list:
    """Each span's duration minus the time covered by its child spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass: calls, self time, errors, counters."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    errors = defaultdict(int)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end, _, _, raised = span
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
        errors[name.split(".")[0]] += raised
    out = {}
    for module_name, attr in WRAPPED:
        name = span_name(module_name, attr)
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_s"] = self_s[name] / passes
    for name in sorted(MEMORY_TRACKED):
        out[f"{name}.peak_mb"] = tracer.peak_mb[name]
    for module_name in MODULES:
        out[f"{module_name}.errors"] = errors[module_name] / passes
    counts = tracer.counts
    for key in ("adspec.blocks", "spectra.enumerate_by_floor.rows",
                "symmetrycheck.austere_check_finite.entries",
                "transport.solve_transport.steps", "formats.canonical_json.bytes"):
        out[key] = counts[key] / passes
    computed = counts["oracle.eig_computed"]
    out["oracle.eig_used_ratio"] = counts["oracle.eig_compared"] / computed if computed else 0.0
    solve_s = total_s["transport.solve_transport"]
    out["transport.steps_per_s"] = counts["transport.solve_transport.steps"] / solve_s if solve_s else 0.0
    return out
