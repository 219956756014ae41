"""In-memory spans around the public functions of each convcompress layer.

The tracer replaces every module binding of a traced function (the
defining module, the package root, and modules that imported the name),
so calls made through ``from .x import f`` are seen as well.  A span
records its name, the op it belongs to, its parent span, start, end, any
exception it raised and the counts taken at the boundary.  A layer's self
time is its span minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

#: layer -> traced public functions.  Each layer is a module of the package.
TRACED = {
    "linalg": ("svd", "eig_sym", "ridge_solve", "reduced_rank_regression", "lasso_cd"),
    "decomp": (
        "weight_svd",
        "spatial_svd",
        "cp_als",
        "tucker_hooi",
        "tt_svd",
        "reconstruct",
        "decomposed_forward",
    ),
    "kernel": ("conv_direct",),
    "dataopt": ("data_svd", "asym_data_svd", "relu_asym", "spatial_refine"),
    "pruning": ("channel_prune", "magnitude_prune"),
    "container": ("read_container", "write_container"),
    "cli": ("cli_dispatch",),
    "gates": ("train_toy_gated",),
    "rankselect": ("greedy_energy_select", "equal_acc_select"),
}


def _macs_conv(args, kwargs, result):
    t, s, k, _ = args[0].data.shape
    return {"macs": int(t * s * k * k * result.shape[1] * result.shape[2])}


def _macs_forward(args, kwargs, result):
    per_pixel = sum(int(np.prod(f.shape)) for f in args[0].factors.values())
    return {"macs": per_pixel * result.shape[1] * result.shape[2]}


def _read_bytes(args, kwargs, result):
    return {"bytes": len(result.blob)}


def _write_bytes(args, kwargs, result):
    return {"bytes": len(args[0].blob)}


#: Counts recorded at the boundary of a span, from its arguments and result.
COUNTERS = {
    "kernel.conv_direct": _macs_conv,
    "decomp.decomposed_forward": _macs_forward,
    "container.read_container": _read_bytes,
    "container.write_container": _write_bytes,
}


class Tracer:
    """Records spans of traced calls made while an op is open."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, names in TRACED.items():
            home = sys.modules[f"convcompress.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "convcompress":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        self._op = None

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = {
                "name": name,
                "op": self._op,
                "parent": self._stack[-1] if self._stack else None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.update(counter(args, kwargs, result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


UNITS = {
    "calls": "count",
    "self_s": "s",
    "gmac_per_s": "GMAC/s",
    "bytes": "bytes",
    "lasso_solves_per_call": "count",
    "report_mismatch": "count",
    "overhead_frac": "frac",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def layer_metrics(spans: list[dict], passes: int) -> dict[str, float]:
    """Per-layer metrics of one run; counts and times are per pass."""
    child_time = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    sums = defaultdict(float)
    lasso_in_prune = 0
    for i, sp in enumerate(spans):
        name = sp["name"]
        dur = sp["end"] - sp["start"]
        calls[name] += 1
        total_s[name] += dur
        self_s[name] += dur - child_time[i]
        for key in ("macs", "bytes"):
            if key in sp:
                sums[f"{name}.{key}"] += sp[key]
        if name == "linalg.lasso_cd":
            parent = sp["parent"]
            while parent is not None and spans[parent]["name"] != "pruning.channel_prune":
                parent = spans[parent]["parent"]
            lasso_in_prune += parent is not None

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for layer, names in TRACED.items():
        for fn in names:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes
    for name in ("kernel.conv_direct", "decomp.decomposed_forward"):
        out[f"{name}.gmac_per_s"] = ratio(sums[f"{name}.macs"], total_s[name]) / 1e9
    for name in ("container.read_container", "container.write_container"):
        out[f"{name}.bytes"] = sums[f"{name}.bytes"] / passes
    out["pruning.channel_prune.lasso_solves_per_call"] = ratio(lasso_in_prune, calls["pruning.channel_prune"])
    return out
