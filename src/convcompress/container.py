"""On-disk container: a JSON manifest plus one little-endian float32 blob.

A container is a directory holding ``manifest.json`` and ``blob.bin``.
The manifest lists named entries (kind, shape, byte range, metadata map);
the blob concatenates the entries' row-major float32 payloads in manifest
order.  Arrays come back as float64; the file keeps float32.

Malformed containers raise :class:`ContainerError` with a stable ``code``:
``bad_manifest``, ``duplicate_name``, ``shape_mismatch``, ``truncated``,
``overlap`` or ``missing``.  Decomposed layers are checked against the
method tables: method, spatial order, rank arity, factor names and shapes.
Gate vectors are checked for kind, shape, finite values, sigma > 0 and
``lambda_reg``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataopt import PatchBatch
from .decomp import LAYOUTS, DecomposedLayer
from .gates import GateVector, HardConcreteGate, VibGate
from .kernel import Array, Kernel4D, factor_shapes
from .rankselect import AccTable, GridCosts, RankPlan

KINDS = ("kernel", "factor", "patchbatch", "gates", "plan")

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "blob.bin"


class ContainerError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _ints(value, what: str, minimum: int) -> tuple[int, ...]:
    """``value`` as a tuple of ints >= ``minimum``, else ``bad_manifest``."""
    if not isinstance(value, list) or not all(_is_int(v) and v >= minimum for v in value):
        raise ContainerError("bad_manifest", f"{what} must list ints >= {minimum}, got {value!r}")
    return tuple(value)


@dataclass
class Entry:
    name: str
    kind: str
    shape: tuple[int, ...]
    byte_offset: int
    byte_length: int
    metadata: dict = field(default_factory=dict)
    dtype: str = "f32"


@dataclass
class Container:
    entries: list[Entry] = field(default_factory=list)
    blob: bytes = b""

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def entry(self, name: str) -> Entry:
        for e in self.entries:
            if e.name == name:
                return e
        raise ContainerError("missing", f"no entry named {name!r}")

    def has(self, name: str) -> bool:
        return any(e.name == name for e in self.entries)

    def get(self, name: str) -> Array:
        e = self.entry(name)
        raw = self.blob[e.byte_offset : e.byte_offset + e.byte_length]
        flat = np.frombuffer(raw, dtype="<f4")
        return flat.astype(np.float64).reshape(e.shape)

    def add(self, name: str, kind: str, array, metadata: dict | None = None) -> None:
        if self.has(name):
            raise ContainerError("duplicate_name", f"entry {name!r} already present")
        if kind not in KINDS:
            raise ContainerError("bad_manifest", f"unknown entry kind {kind!r}")
        arr = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
        payload = arr.astype("<f4").tobytes()
        self.entries.append(
            Entry(
                name=name,
                kind=kind,
                shape=tuple(int(d) for d in arr.shape),
                byte_offset=len(self.blob),
                byte_length=len(payload),
                metadata=dict(metadata or {}),
            )
        )
        self.blob += payload


def write_container(container: Container, path) -> None:
    """Write manifest and blob under ``path`` (a directory, created if needed)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": "convcompress-container",
        "version": 1,
        "entries": [
            {
                "name": e.name,
                "kind": e.kind,
                "dtype": e.dtype,
                "shape": list(e.shape),
                "byte_offset": e.byte_offset,
                "byte_length": e.byte_length,
                "metadata": e.metadata,
            }
            for e in container.entries
        ],
    }
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    (root / BLOB_NAME).write_bytes(container.blob)


def read_container(path) -> Container:
    """Read and validate a container directory."""
    root = Path(path)
    mpath = root / MANIFEST_NAME
    bpath = root / BLOB_NAME
    if not mpath.is_file() or not bpath.is_file():
        raise ContainerError("bad_manifest", f"{root} is not a container directory")
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as exc:
        raise ContainerError("bad_manifest", f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("entries"), list):
        raise ContainerError("bad_manifest", "manifest lacks an entries list")
    blob = bpath.read_bytes()
    entries = []
    seen = set()
    for raw in manifest["entries"]:
        try:
            e = Entry(
                name=str(raw["name"]),
                kind=str(raw["kind"]),
                shape=_ints(raw["shape"], "shape", 0),
                byte_offset=raw["byte_offset"],
                byte_length=raw["byte_length"],
                metadata=dict(raw.get("metadata", {})),
                dtype=str(raw.get("dtype", "f32")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ContainerError("bad_manifest", f"malformed entry: {raw!r}") from exc
        if not (_is_int(e.byte_offset) and _is_int(e.byte_length)):
            raise ContainerError("bad_manifest", f"entry {e.name!r} has a non-integer byte range")
        if e.kind not in KINDS:
            raise ContainerError("bad_manifest", f"entry {e.name!r} has unknown kind {e.kind!r}")
        if e.dtype != "f32":
            raise ContainerError("bad_manifest", f"entry {e.name!r} has unsupported dtype")
        if e.name in seen:
            raise ContainerError("duplicate_name", f"duplicate entry name {e.name!r}")
        seen.add(e.name)
        if e.kind == "kernel" and not all(
            _is_int(e.metadata.get(dim, 1)) and e.metadata.get(dim, 1) >= 1 for dim in ("h", "w")
        ):
            raise ContainerError("bad_manifest", f"kernel {e.name!r}: h and w must be positive ints")
        expected = math.prod(e.shape) * 4
        if e.byte_length != expected:
            raise ContainerError(
                "shape_mismatch",
                f"entry {e.name!r}: shape {e.shape} wants {expected} bytes, "
                f"manifest says {e.byte_length}",
            )
        if e.byte_offset < 0 or e.byte_offset + e.byte_length > len(blob):
            raise ContainerError(
                "truncated",
                f"entry {e.name!r} spans [{e.byte_offset}, "
                f"{e.byte_offset + e.byte_length}) beyond blob of {len(blob)} bytes",
            )
        entries.append(e)
    spans = sorted((e.byte_offset, e.byte_offset + e.byte_length, e.name) for e in entries)
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise ContainerError("overlap", f"entries {n0!r} and {n1!r} overlap in the blob")
    return Container(entries=entries, blob=blob)


# ---------------------------------------------------------------------------
# Typed (de)serializers built on the entry primitives.
# ---------------------------------------------------------------------------


def add_kernel(container: Container, name: str, kernel: Kernel4D, h: int = 1, w: int = 1) -> None:
    container.add(name, "kernel", kernel.data, metadata={"h": int(h), "w": int(w)})
    if kernel.bias is not None:
        container.add(f"{name}/bias", "factor", kernel.bias, metadata={"role": "bias"})


def read_kernel(container: Container, name: str) -> tuple[Kernel4D, dict]:
    e = container.entry(name)
    if e.kind != "kernel":
        raise ContainerError("bad_manifest", f"entry {name!r} is not a kernel")
    bias = container.get(f"{name}/bias") if container.has(f"{name}/bias") else None
    try:
        return Kernel4D(container.get(name), bias=bias), e.metadata
    except ValueError as exc:
        raise ContainerError("shape_mismatch", f"kernel {name!r}: {exc}") from exc


def add_layer(container: Container, name: str, layer: DecomposedLayer) -> None:
    meta = {
        "method": layer.method,
        "ranks": list(layer.ranks),
        "source_dims": list(layer.source_dims),
    }
    if "order" in layer.meta:
        meta["order"] = layer.meta["order"]
    for idx, (fname, arr) in enumerate(layer.factors.items()):
        container.add(
            f"{name}/{fname}", "factor", arr, metadata={**meta, "factor": fname, "position": idx}
        )
    if layer.bias is not None:
        container.add(f"{name}/bias", "factor", layer.bias, metadata={"role": "bias"})


def read_layer(container: Container, name: str) -> DecomposedLayer:
    """Read the layer stored under ``name/`` and check it against the method
    tables: ``bad_manifest`` for an unknown method or order, a wrong rank
    arity, factors that disagree on the layer metadata or the wrong factor
    names; ``shape_mismatch`` for factor or bias shapes the ranks do not give.
    """
    prefix = f"{name}/"
    picked = [
        e
        for e in container.entries
        if e.kind == "factor" and e.name.startswith(prefix) and e.metadata.get("role") != "bias"
    ]
    if not picked:
        raise ContainerError("missing", f"no factor entries under {name!r}")
    keys = ("method", "ranks", "source_dims", "order")
    meta = {key: picked[0].metadata.get(key) for key in keys}
    if any({key: e.metadata.get(key) for key in keys} != meta for e in picked):
        raise ContainerError("bad_manifest", f"factors of {name!r} disagree on {keys}")
    method, order = meta["method"], meta["order"]
    orders = LAYOUTS.get(method, {}) if isinstance(method, str) else {}
    if not isinstance(order, (str, type(None))) or order not in orders:
        raise ContainerError("bad_manifest", f"{name!r}: no layout for {method!r}, order {order!r}")
    layout = orders[order]
    ranks = _ints(meta["ranks"], f"{name!r} ranks", 1)
    dims = _ints(meta["source_dims"], f"{name!r} source_dims", 1)
    if len(dims) != 3:
        raise ContainerError("bad_manifest", f"{name!r}: source_dims must be [t, s, k]")
    t, s, k = dims
    try:
        shapes = factor_shapes(method, s, t, k, ranks)
    except ValueError as exc:
        raise ContainerError("bad_manifest", f"{name!r}: {exc}") from exc
    names = [e.metadata.get("factor") for e in picked]
    if not all(isinstance(n, str) for n in names) or sorted(names) != sorted(layout.stages):
        raise ContainerError(
            "bad_manifest", f"{name!r} stores factors {names}, {method} has {list(layout.stages)}"
        )
    entries = dict(zip(names, picked))
    for fname, shape in zip(layout.stages, shapes):
        if entries[fname].shape != shape:
            raise ContainerError(
                "shape_mismatch",
                f"{name!r} factor {fname!r} has shape {entries[fname].shape}, "
                f"ranks {list(ranks)} give {shape}",
            )
    bias = container.get(f"{name}/bias") if container.has(f"{name}/bias") else None
    if bias is not None and bias.shape != (t,):
        raise ContainerError("shape_mismatch", f"{name!r} bias has shape {bias.shape}, not ({t},)")
    return DecomposedLayer(
        method=method,
        factors={fname: container.get(entries[fname].name) for fname in layout.stages},
        ranks=ranks,
        source_dims=dims,
        bias=bias,
        meta={} if order is None else {"order": order},
    )


def add_batch(container: Container, name: str, batch: PatchBatch) -> None:
    container.add(f"{name}/inputs", "patchbatch", batch.inputs)
    container.add(f"{name}/ref_outputs", "patchbatch", batch.ref_outputs)
    if batch.cur_outputs is not None:
        container.add(f"{name}/cur_outputs", "patchbatch", batch.cur_outputs)


def read_batch(container: Container, name: str) -> PatchBatch:
    cur = container.get(f"{name}/cur_outputs") if container.has(f"{name}/cur_outputs") else None
    return PatchBatch(
        inputs=container.get(f"{name}/inputs"),
        ref_outputs=container.get(f"{name}/ref_outputs"),
        cur_outputs=cur,
    )


def add_gates(container: Container, name: str, gates: GateVector) -> None:
    if gates.kind == "l0":
        payload = np.array([g.log_alpha for g in gates.gates])
    elif gates.kind == "vib":
        payload = np.array([[g.mu, g.sigma] for g in gates.gates])
    else:
        raise ContainerError("bad_manifest", "cannot serialize an empty gate vector")
    container.add(
        name, "gates", payload, metadata={"kind": gates.kind, "lambda_reg": gates.lambda_reg}
    )


def read_gates(container: Container, name: str) -> GateVector:
    e = container.entry(name)
    if e.kind != "gates":
        raise ContainerError("bad_manifest", f"entry {name!r} is not a gate vector")
    kind = e.metadata.get("kind")
    if kind not in ("l0", "vib"):
        raise ContainerError("bad_manifest", f"gate vector {name!r} has unknown kind {kind!r}")
    lam = e.metadata.get("lambda_reg", 0.0)
    # a finite float, or an int that converts to one
    if not (_is_int(lam) or isinstance(lam, float)) or not abs(lam) <= sys.float_info.max:
        raise ContainerError("bad_manifest", f"gate vector {name!r}: bad lambda_reg {lam!r}")
    payload = container.get(name)
    n = payload.size if kind == "l0" else payload.size // 2
    if n == 0 or payload.shape != ((n,) if kind == "l0" else (n, 2)):
        want = "(n,)" if kind == "l0" else "(n, 2)"
        raise ContainerError(
            "shape_mismatch",
            f"{kind} gate vector {name!r} must be {want} with n >= 1, got {payload.shape}",
        )
    if not np.all(np.isfinite(payload)):
        raise ContainerError("bad_manifest", f"gate vector {name!r} holds non-finite values")
    if kind == "l0":
        gate_list = [HardConcreteGate(log_alpha=float(a)) for a in payload]
    else:
        if np.any(payload[:, 1] <= 0):
            raise ContainerError("bad_manifest", f"gate vector {name!r} has sigma <= 0")
        gate_list = [VibGate(mu=float(m), sigma=float(s)) for m, s in payload]
    return GateVector(gates=gate_list, lambda_reg=float(lam))


def add_plan(container: Container, name: str, plan: RankPlan) -> None:
    flat = [r for ranks in plan.ranks for r in ranks]
    container.add(
        name,
        "plan",
        np.array(flat, dtype=np.float64),
        metadata={
            "role": "rank-plan",
            "arity": [len(r) for r in plan.ranks],
            "tau": plan.tau,
            "achieved_macs": plan.achieved_macs,
            "achieved_ratio": plan.achieved_ratio,
            "strategy": plan.strategy,
        },
    )


def read_plan(container: Container, name: str) -> RankPlan:
    e = container.entry(name)
    flat = [int(round(v)) for v in container.get(name)]
    ranks = []
    pos = 0
    for a in e.metadata["arity"]:
        ranks.append(tuple(flat[pos : pos + a]))
        pos += a
    return RankPlan(
        ranks=tuple(ranks),
        tau=float(e.metadata["tau"]),
        achieved_macs=int(e.metadata["achieved_macs"]),
        achieved_ratio=float(e.metadata["achieved_ratio"]),
        strategy=str(e.metadata["strategy"]),
    )


def _ranks_key(ranks: tuple[int, ...]) -> str:
    return ",".join(str(r) for r in ranks)


def _parse_ranks_key(key: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in key.split(","))


def add_acc_tables(
    container: Container,
    name: str,
    tables: list[AccTable],
    costs: list[GridCosts],
) -> None:
    """Store per-layer accuracy tables with their cost grids."""
    for i, (tab, cost) in enumerate(zip(tables, costs)):
        grid = list(tab.accuracies.items())
        payload = np.array([list(r) + [acc] for r, acc in grid], dtype=np.float64)
        container.add(
            f"{name}/layer{i}",
            "plan",
            payload,
            metadata={
                "role": "acc-table",
                "p_orig": tab.p_orig,
                "macs": {_ranks_key(r): cost.macs[r] for r, _ in grid},
                "macs_original": cost.macs_original,
            },
        )


def read_acc_tables(container: Container, name: str) -> tuple[list[AccTable], list[GridCosts]]:
    tables, costs = [], []
    i = 0
    while container.has(f"{name}/layer{i}"):
        e = container.entry(f"{name}/layer{i}")
        payload = container.get(f"{name}/layer{i}")
        accs = {}
        for row in np.atleast_2d(payload):
            ranks = tuple(int(round(v)) for v in row[:-1])
            accs[ranks] = float(row[-1])
        tables.append(AccTable(accuracies=accs, p_orig=float(e.metadata["p_orig"])))
        costs.append(
            GridCosts(
                macs={_parse_ranks_key(k): int(v) for k, v in e.metadata["macs"].items()},
                macs_original=int(e.metadata["macs_original"]),
            )
        )
        i += 1
    if not tables:
        raise ContainerError("missing", f"no accuracy tables under {name!r}")
    return tables, costs


def add_sv_tables(
    container: Container,
    name: str,
    sv_lists: list,
    costs: list[GridCosts],
) -> None:
    """Store per-layer singular values with their per-rank cost grids."""
    for i, (sv, cost) in enumerate(zip(sv_lists, costs)):
        container.add(
            f"{name}/layer{i}",
            "plan",
            np.asarray(sv, dtype=np.float64),
            metadata={
                "role": "sv-table",
                "macs": {_ranks_key(r): m for r, m in cost.macs.items()},
                "macs_original": cost.macs_original,
            },
        )


def read_sv_tables(container: Container, name: str) -> tuple[list, list[GridCosts]]:
    svs, costs = [], []
    i = 0
    while container.has(f"{name}/layer{i}"):
        e = container.entry(f"{name}/layer{i}")
        svs.append(container.get(f"{name}/layer{i}"))
        costs.append(
            GridCosts(
                macs={_parse_ranks_key(k): int(v) for k, v in e.metadata["macs"].items()},
                macs_original=int(e.metadata["macs_original"]),
            )
        )
        i += 1
    if not svs:
        raise ContainerError("missing", f"no singular-value tables under {name!r}")
    return svs, costs
