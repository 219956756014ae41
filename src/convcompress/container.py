"""On-disk container: a JSON manifest plus one little-endian float32 blob.

A container is a directory holding ``manifest.json`` and ``blob.bin``.
The manifest lists named entries (kind, shape, byte range, metadata map);
the blob concatenates the entries' row-major float32 payloads in manifest
order.  Arrays come back as float64; the file keeps float32.

Malformed containers raise :class:`ContainerError` with a stable ``code``:
``bad_manifest``, ``duplicate_name``, ``shape_mismatch``, ``truncated``,
``overlap`` or ``missing``.  The manifest must be UTF-8 JSON and every
payload finite, or :func:`read_container` fails with ``bad_manifest``;
:meth:`Container.add` refuses, with the same error, a payload that is not
finite as float32, so it writes only what is read back; :func:`add_kernel`
takes ``h`` and ``w`` as integers >= 1 (:func:`convcompress.linalg.integer`),
as they are read back.
Each stored value is checked by kind, with a minimum where one applies
(:func:`_field`), else ``bad_manifest``: an entry's name, kind, dtype and
byte range, a kernel's ``h`` and ``w`` and every metadata field a typed
reader reads.  A typed reader fails with ``bad_manifest`` on an entry of
another kind than it reads: ``kernel`` (``read_kernel``), ``factor``
(``read_layer``, and every ``/bias``), ``patchbatch`` (``read_batch``),
``gates`` (``read_gates``) or ``plan`` (``read_plan`` and the table
readers).  The decomposed layer ``name`` is its direct children
``name/<factor>`` (:func:`layer_of`), checked against the method tables:
method, spatial order, rank arity, factor names and shapes, and its sweep
diagnostics (:data:`DIAGNOSTICS`), all three or none.  Gate vectors are checked for
kind, shape and sigma > 0; patch batches for equal row counts
(``shape_mismatch``); rank plans and rank-selection tables for their
payload shapes (``shape_mismatch``), plans and accuracy tables for ranks
that are integers >= 1 (never rounded), accuracy tables for a rank vector
listed twice, and tables for the checks of :mod:`convcompress.rankselect`
on their values (``bad_manifest``).
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataopt import PatchBatch
from .decomp import LAYOUTS, DecomposedLayer
from .gates import GateVector, HardConcreteGate, VibGate
from .kernel import Array, Kernel4D, factor_shapes
from .linalg import integer
from .rankselect import AccTable, GridCosts, RankPlan, check_acc_table, check_sv_table

KINDS = ("kernel", "factor", "patchbatch", "gates", "plan")

#: The sweep diagnostics of ``cp_als`` and ``tucker_hooi`` that a layer
#: entry stores beside ``order``: key -> (kind, minimum) of :func:`_field`.
DIAGNOSTICS = {"iterations": (int, 1), "rel_error": (float, None), "converged": (bool, None)}

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "blob.bin"


class ContainerError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _check_finite(payload: Array, name: str) -> None:
    """``bad_manifest`` unless every float32 of entry ``name``'s payload is finite."""
    if not np.isfinite(payload).all():
        raise ContainerError("bad_manifest", f"entry {name!r} holds non-finite values")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _ints(value, what: str, minimum: int) -> tuple[int, ...]:
    """``value`` as a tuple of ints >= ``minimum``, else ``bad_manifest``."""
    if not isinstance(value, list) or not all(_is_int(v) and v >= minimum for v in value):
        raise ContainerError("bad_manifest", f"{what} must list ints >= {minimum}, got {value!r}")
    return tuple(value)


def _stored_ranks(payload: Array, where: str) -> tuple[int, ...]:
    """The ranks stored in ``payload`` as ints; ``bad_manifest`` unless each
    is an integer >= 1 (a stored rank is never rounded)."""
    values = payload.tolist()
    if not all(v >= 1 and v.is_integer() for v in values):
        raise ContainerError("bad_manifest", f"{where}: ranks must be ints >= 1, got {values}")
    return tuple(int(v) for v in values)


_REQUIRED = object()
_KIND_NAMES = {int: "an int", float: "a finite number", bool: "a bool", str: "a string"}


def _field(meta: dict, key: str, where: str, kind: type, minimum=None, default=_REQUIRED):
    """``meta[key]``, or ``default`` for a missing key if one is given;
    ``bad_manifest`` unless it is of ``kind`` and at least ``minimum`` (if
    given).  An ``int`` is never a bool; a ``float`` is an int or a float,
    finite as a float, and is returned as a float."""
    if key not in meta and default is not _REQUIRED:
        return default
    value = meta.get(key)
    if kind is float:
        # a NaN fails the comparison; an int too large for a float exceeds the bound
        ok = (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max
    else:
        ok = _is_int(value) if kind is int else isinstance(value, kind)
    if not ok or (minimum is not None and not value >= minimum):
        want = f">= {minimum}" if ok else _KIND_NAMES[kind]
        raise ContainerError("bad_manifest", f"{where}: {key} must be {want}, got {value!r}")
    return float(value) if kind is float else value


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
        with np.errstate(over="ignore"):  # past the float32 range is inf, refused next
            f32 = arr.astype("<f4")
        _check_finite(f32, name)
        payload = f32.tobytes()
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
    entries = [vars(e) for e in container.entries]
    manifest = {"format": "convcompress-container", "version": 1, "entries": entries}
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
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise ContainerError("bad_manifest", f"manifest is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("entries"), list):
        raise ContainerError("bad_manifest", "manifest lacks an entries list")
    blob = bpath.read_bytes()
    entries = []
    seen = set()
    for raw in manifest["entries"]:
        if not isinstance(raw, dict) or not isinstance(raw.get("metadata", {}), dict):
            raise ContainerError("bad_manifest", f"malformed entry: {raw!r}")
        name = _field(raw, "name", "entry", str)
        where = f"entry {name!r}"
        e = Entry(
            name=name,
            kind=_field(raw, "kind", where, str),
            shape=_ints(raw.get("shape"), f"{where} shape", 0),
            byte_offset=_field(raw, "byte_offset", where, int),
            byte_length=_field(raw, "byte_length", where, int),
            metadata=raw.get("metadata", {}),
            dtype=_field(raw, "dtype", where, str, default="f32"),
        )
        if e.kind not in KINDS:
            raise ContainerError("bad_manifest", f"{where} has unknown kind {e.kind!r}")
        if e.dtype != "f32":
            raise ContainerError("bad_manifest", f"{where} has unsupported dtype")
        if e.name in seen:
            raise ContainerError("duplicate_name", f"duplicate entry name {e.name!r}")
        seen.add(e.name)
        if e.kind == "kernel":
            for dim in ("h", "w"):
                _field(e.metadata, dim, f"kernel {e.name!r}", int, 1, default=1)
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
        _check_finite(np.frombuffer(blob, "<f4", e.byte_length // 4, e.byte_offset), e.name)
        entries.append(e)
    spans = sorted((e.byte_offset, e.byte_offset + e.byte_length, e.name) for e in entries)
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise ContainerError("overlap", f"entries {n0!r} and {n1!r} overlap in the blob")
    return Container(entries=entries, blob=blob)


# ---------------------------------------------------------------------------
# Typed (de)serializers built on the entry primitives.
# ---------------------------------------------------------------------------


def _lookup(
    container: Container, name: str, kind: str, min_shape: tuple[int, ...] | None = None
) -> tuple[Entry, Array]:
    """Entry ``name`` and its payload; ``bad_manifest`` unless it has ``kind``, and
    ``shape_mismatch`` unless its shape is as long as ``min_shape`` (if given) and no smaller."""
    e = container.entry(name)
    if e.kind != kind:
        raise ContainerError("bad_manifest", f"entry {name!r} is a {e.kind}, not a {kind}")
    if min_shape is not None and (
        len(e.shape) != len(min_shape) or any(n < m for n, m in zip(e.shape, min_shape))
    ):
        raise ContainerError(
            "shape_mismatch", f"entry {name!r} has shape {e.shape}, needs at least {min_shape}"
        )
    return e, container.get(name)


def _optional(container: Container, name: str, kind: str) -> Array | None:
    """Payload of the optional entry ``name`` of ``kind``, or None without one."""
    return _lookup(container, name, kind)[1] if container.has(name) else None


def add_kernel(container: Container, name: str, kernel: Kernel4D, h: int = 1, w: int = 1) -> None:
    meta = {"h": integer(h, "h", 1), "w": integer(w, "w", 1)}
    container.add(name, "kernel", kernel.data, metadata=meta)
    if kernel.bias is not None:
        container.add(f"{name}/bias", "factor", kernel.bias, metadata={"role": "bias"})


def read_kernel(container: Container, name: str) -> tuple[Kernel4D, dict]:
    e, payload = _lookup(container, name, "kernel")
    try:
        return Kernel4D(payload, bias=_optional(container, f"{name}/bias", "factor")), e.metadata
    except ValueError as exc:
        raise ContainerError("shape_mismatch", f"kernel {name!r}: {exc}") from exc


def add_layer(container: Container, name: str, layer: DecomposedLayer) -> None:
    meta = {
        "method": layer.method,
        "ranks": list(layer.ranks),
        "source_dims": list(layer.source_dims),
    }
    meta.update({key: layer.meta[key] for key in ("order", *DIAGNOSTICS) if key in layer.meta})
    for idx, (fname, arr) in enumerate(layer.factors.items()):
        container.add(
            f"{name}/{fname}", "factor", arr, metadata={**meta, "factor": fname, "position": idx}
        )
    if layer.bias is not None:
        container.add(f"{name}/bias", "factor", layer.bias, metadata={"role": "bias"})


def layer_of(entry_name: str) -> str | None:
    """The layer that factor entry ``entry_name`` belongs to: its parent
    path, or None for a name with no ``/``."""
    parent, slash, _ = entry_name.rpartition("/")
    return parent if slash else None


def read_layer(container: Container, name: str) -> DecomposedLayer:
    """Read the layer stored under ``name/`` and check it against the method
    tables: ``bad_manifest`` for an unknown method or order, a wrong rank
    arity, factors that disagree on the layer metadata or the wrong factor
    names; ``shape_mismatch`` for factor or bias shapes the ranks do not give.
    The layer's factors are the direct children ``name/<factor>``; its meta
    holds its order and the :data:`DIAGNOSTICS` stored, all three or none.
    """
    picked = [e for e in container.entries if e.kind == "factor"
              and layer_of(e.name) == name and e.metadata.get("role") != "bias"]
    if not picked:
        raise ContainerError("missing", f"no factor entries under {name!r}")
    keys = ("method", "ranks", "source_dims", "order", *DIAGNOSTICS)
    meta = picked[0].metadata
    if any(e.metadata.get(key) != meta.get(key) for e in picked for key in keys):
        raise ContainerError("bad_manifest", f"factors of {name!r} disagree on {keys}")
    where = repr(name)
    diagnostics = {}
    if any(key in meta for key in DIAGNOSTICS):  # all three or none
        diagnostics = {key: _field(meta, key, where, kind, minimum)
                       for key, (kind, minimum) in DIAGNOSTICS.items()}
    method = _field(meta, "method", where, str)
    # a null order is no order, as in LAYOUTS
    order = None if meta.get("order") is None else _field(meta, "order", where, str)
    orders = LAYOUTS.get(method, {})
    if order not in orders:
        raise ContainerError("bad_manifest", f"{name!r}: no layout for {method!r}, order {order!r}")
    layout = orders[order]
    ranks = _ints(meta.get("ranks"), f"{name!r} ranks", 1)
    dims = _ints(meta.get("source_dims"), f"{name!r} source_dims", 1)
    if len(dims) != 3:
        raise ContainerError("bad_manifest", f"{name!r}: source_dims must be [t, s, k]")
    t, s, k = dims
    try:
        shapes = factor_shapes(method, s, t, k, ranks)
    except ValueError as exc:
        raise ContainerError("bad_manifest", f"{name!r}: {exc}") from exc
    names = [_field(e.metadata, "factor", repr(e.name), str) for e in picked]
    if sorted(names) != sorted(layout.stages):
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
    bias = _optional(container, f"{name}/bias", "factor")
    if bias is not None and bias.shape != (t,):
        raise ContainerError("shape_mismatch", f"{name!r} bias has shape {bias.shape}, not ({t},)")
    return DecomposedLayer(
        method=method,
        factors={fname: container.get(entries[fname].name) for fname in layout.stages},
        ranks=ranks,
        source_dims=dims,
        bias=bias,
        meta={**({} if order is None else {"order": order}), **diagnostics},
    )


def add_batch(container: Container, name: str, batch: PatchBatch) -> None:
    container.add(f"{name}/inputs", "patchbatch", batch.inputs)
    container.add(f"{name}/ref_outputs", "patchbatch", batch.ref_outputs)
    if batch.cur_outputs is not None:
        container.add(f"{name}/cur_outputs", "patchbatch", batch.cur_outputs)


def read_batch(container: Container, name: str) -> PatchBatch:
    try:
        return PatchBatch(
            inputs=_lookup(container, f"{name}/inputs", "patchbatch")[1],
            ref_outputs=_lookup(container, f"{name}/ref_outputs", "patchbatch")[1],
            cur_outputs=_optional(container, f"{name}/cur_outputs", "patchbatch"),
        )
    except ValueError as exc:
        raise ContainerError("shape_mismatch", f"batch {name!r}: {exc}") from exc


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
    e, payload = _lookup(container, name, "gates")
    kind = e.metadata.get("kind")
    if kind not in ("l0", "vib"):
        raise ContainerError("bad_manifest", f"gate vector {name!r} has unknown kind {kind!r}")
    lam = _field(e.metadata, "lambda_reg", f"gate vector {name!r}", float, default=0.0)
    n = payload.size if kind == "l0" else payload.size // 2
    if n == 0 or payload.shape != ((n,) if kind == "l0" else (n, 2)):
        want = "(n,)" if kind == "l0" else "(n, 2)"
        raise ContainerError(
            "shape_mismatch",
            f"{kind} gate vector {name!r} must be {want} with n >= 1, got {payload.shape}",
        )
    if kind == "l0":
        gate_list = [HardConcreteGate(log_alpha=float(a)) for a in payload]
    else:
        if np.any(payload[:, 1] <= 0):
            raise ContainerError("bad_manifest", f"gate vector {name!r} has sigma <= 0")
        gate_list = [VibGate(mu=float(m), sigma=float(s)) for m, s in payload]
    return GateVector(gates=gate_list, lambda_reg=lam)


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
    """Read a rank plan: ``bad_manifest`` for missing, ill-typed or
    non-finite metadata, a rank that is not an integer >= 1, an
    ``achieved_macs`` below 1, or an ``arity`` that does not sum to the
    payload length."""
    e, payload = _lookup(container, name, "plan", (0,))
    where = f"plan {name!r}"
    arity = _ints(e.metadata.get("arity"), f"{where} arity", 1)
    flat = _stored_ranks(payload, where)
    if sum(arity) != len(flat):
        raise ContainerError(
            "bad_manifest", f"{where}: arity {list(arity)} does not sum to {len(flat)} ranks"
        )
    ranks = []
    pos = 0
    for a in arity:
        ranks.append(tuple(flat[pos : pos + a]))
        pos += a
    return RankPlan(
        ranks=tuple(ranks),
        tau=_field(e.metadata, "tau", where, float),
        achieved_macs=_field(e.metadata, "achieved_macs", where, int, 1),
        achieved_ratio=_field(e.metadata, "achieved_ratio", where, float),
        strategy=_field(e.metadata, "strategy", where, str),
    )


def _ranks_key(ranks: tuple[int, ...]) -> str:
    return ",".join(str(r) for r in ranks)


def _parse_ranks_key(key: str) -> tuple[int, ...]:
    """The ranks of a ``macs`` key, which must read exactly as :func:`_ranks_key`
    writes them: "01", " 1" or "1_0" would name a rank some other key names."""
    ranks = tuple(int(tok) for tok in key.split(","))
    if _ranks_key(ranks) != key:
        raise ValueError(f"rank key {key!r} is not written as {_ranks_key(ranks)!r}")
    return ranks


def _add_tables(container: Container, name: str, tables: list, costs: list[GridCosts]) -> None:
    """Store each ``(payload, grid, metadata)`` of ``tables`` as plan entry
    ``name/layer{i}``, with the MACs of ``costs[i]`` over the rank ``grid``."""
    for i, ((payload, grid, meta), cost) in enumerate(zip(tables, costs)):
        meta = {**meta, "macs": {_ranks_key(r): cost.macs[r] for r in grid},
                "macs_original": cost.macs_original}
        container.add(f"{name}/layer{i}", "plan", payload, meta)


def add_acc_tables(
    container: Container,
    name: str,
    tables: list[AccTable],
    costs: list[GridCosts],
) -> None:
    """Store per-layer accuracy tables with their cost grids."""
    rows = [([[*r, acc] for r, acc in tab.accuracies.items()], tab.accuracies,
             {"role": "acc-table", "p_orig": tab.p_orig}) for tab in tables]
    _add_tables(container, name, rows, costs)


def _read_tables(
    container: Container, name: str, what: str, min_shape: tuple[int, ...], build: Callable
) -> tuple[list, list[GridCosts]]:
    """``build(entry, payload, cost)`` of the entries ``name/layer0``, ``name/layer1``,
    ... and the :class:`GridCosts` in their metadata (``macs``, ``macs_original``);
    a ``ValueError`` of either is ``bad_manifest``."""
    tables, costs = [], []
    while container.has(key := f"{name}/layer{len(tables)}"):
        e, payload = _lookup(container, key, "plan", min_shape)
        where = f"table {key!r}"
        macs = e.metadata.get("macs")
        if not isinstance(macs, dict) or not all(_is_int(v) for v in macs.values()):
            raise ContainerError("bad_manifest", f"{where}: macs must map rank keys to ints")
        orig = _field(e.metadata, "macs_original", where, int)
        try:
            keyed = {_parse_ranks_key(key): value for key, value in macs.items()}
            cost = GridCosts(macs=keyed, macs_original=orig)
            tables.append(build(e, payload, cost))
        except ValueError as exc:
            raise ContainerError("bad_manifest", f"{where}: {exc}") from exc
        costs.append(cost)
    if not tables:
        raise ContainerError("missing", f"no {what} tables under {name!r}")
    return tables, costs


def read_acc_tables(container: Container, name: str) -> tuple[list[AccTable], list[GridCosts]]:
    def build(e: Entry, payload: Array, cost: GridCosts) -> AccTable:
        where = f"table {e.name!r}"
        accs = {_stored_ranks(row[:-1], where): float(row[-1]) for row in payload}
        if len(accs) < len(payload):
            raise ContainerError("bad_manifest", f"{where}: a rank vector is listed twice")
        p_orig = _field(e.metadata, "p_orig", where, float)
        return check_acc_table(AccTable(accuracies=accs, p_orig=p_orig), cost)

    return _read_tables(container, name, "accuracy", (1, 2), build)


def add_sv_tables(
    container: Container,
    name: str,
    sv_lists: list,
    costs: list[GridCosts],
) -> None:
    """Store per-layer singular values with their per-rank cost grids."""
    rows = [(sv, cost.macs, {"role": "sv-table"}) for sv, cost in zip(sv_lists, costs)]
    _add_tables(container, name, rows, costs)


def read_sv_tables(container: Container, name: str) -> tuple[list, list[GridCosts]]:
    return _read_tables(container, name, "singular-value", (1,),
                        lambda e, payload, cost: check_sv_table(payload, cost))
