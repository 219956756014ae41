"""Set-up, op lists and output checks of the three workloads.

A workload's inputs are built once from the seed with the numpy code in
:mod:`inputs`.  Its set-up then hands them to the program (container
writes, layer objects) and returns the ops of one pass; only those program
calls are timed, inside ``with clock:``.  An op is one timed call into the
program, followed by an untimed check of its output against the
benchmark's own references.

* ``datafree``: per layer, cp and tucker at a fixed sweep count (library
  calls), and compress -> reconstruct -> report through the CLI for
  weight-svd, spatial-svd and tt; then rank-select (greedy-energy,
  equal-acc) and gates (l0, vib).  Linear algebra on small unfoldings plus
  contractions.
* ``dataopt``: per layer but conv4, compress spatial-svd and both prune modes
  through the CLI, and the data-svd, asym, relu-asym and spatial-refine
  solvers of ``convcompress.dataopt`` on a 500-patch batch.  Linear algebra
  used as regression (eig of Z Z^T, reduced-rank regression, lasso).  The
  ``dataopt`` CLI command and ``asym3d`` are left out: at the rank rule
  they end in an SVD of a rank-deficient map that fails on some layers
  (see the README).
* ``forward``: library calls only; one feature map per layer through the
  dense kernel and six staged architectures.  Convolution primitives.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs as ref
from inputs import K, LAYERS, LayerSpec

#: Methods compressed through the CLI, then reconstructed and reported.
CLI_METHODS = ("weight-svd", "spatial-svd", "tt")
#: cp_als and tucker_hooi stop when the error settles, after 18 to 200
#: sweeps depending on the draw, which would make a pass's work differ
#: between seeds.  They are called as library functions with a fixed sweep
#: count instead: ``method -> (function, max_iters, tol that never stops)``.
FIXED_SWEEPS = {"cp": ("cp_als", 50, 0.0), "tucker": ("tucker_hooi", 5, -math.inf)}
RATIO = 0.5
GATE_STEPS = 2000
GATE_LAMBDA = 0.05
GATE_THRESHOLD = 0.05
GATE_FEATURES = 8
#: Relative tolerance of a value recomputed from float32 container storage.
FLOAT32_TOL = 1e-5
#: Staged forward output against the reference convolution, relative.
FORWARD_TOL = 1e-9


class Clock:
    """Sums the time spent inside ``with clock:`` blocks."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._start


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    """One timed call.

    ``argv`` ops go through ``cli_dispatch`` and write the container
    ``out``; other ops call ``call``.  ``check`` receives the
    parsed report (CLI) or the return value and returns the
    ``{"rel_error": float, "mismatch": bool}`` entries that apply.
    ``scored`` ops produce a layer and count in ``rel_error``.
    """

    kind: str
    layer: str
    check: Callable[[object], dict]
    argv: list | None = None
    out: Path | None = None
    call: Callable[[], object] | None = None
    scored: bool = True


def cli_call(cc, argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cc.cli.cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Reading results back.
# ---------------------------------------------------------------------------


def read_back(cc, path) -> object:
    try:
        return cc.container.read_container(path)
    except cc.container.ContainerError as exc:
        raise CheckFailed(f"output container does not read back: {exc.code}") from exc


def stored_layer(cont, name: str) -> tuple[str, list, dict, str, np.ndarray | None]:
    """``(method, ranks, factors, order, bias)`` of a stored decomposed layer."""
    prefix = f"{name}/"
    picked = [
        e
        for e in cont.entries
        if e.kind == "factor" and e.name.startswith(prefix) and e.metadata.get("role") != "bias"
    ]
    need(bool(picked), f"no factors stored under {name}")
    meta = picked[0].metadata
    factors = {e.metadata["factor"]: cont.get(e.name) for e in picked}
    bias = cont.get(f"{prefix}bias") if cont.has(f"{prefix}bias") else None
    return meta["method"], list(meta["ranks"]), factors, meta.get("order", "hv"), bias


def stored_kernel(cont, name: str) -> tuple[np.ndarray, np.ndarray | None, dict]:
    e = cont.entry(name)
    need(e.kind == "kernel", f"{name} is not a kernel entry")
    bias = cont.get(f"{name}/bias") if cont.has(f"{name}/bias") else None
    return cont.get(name), bias, e.metadata


def check_fields(report: dict, fields: tuple) -> None:
    missing = [f for f in fields if f not in report]
    need(not missing, f"report lacks fields {missing}")


LAYER_FIELDS = ("method", "ranks", "macs_before", "macs_after", "retained", "ratio", "params_before", "params_after")


def check_layer_report(report: dict, spec: LayerSpec, factors: dict, hw: int) -> None:
    """MACs and params of the report against the stored architecture."""
    before = K * K * spec.s * spec.t * hw
    after = ref.staged_macs(factors, hw, 1)
    need(report["macs_before"] == before, f"macs_before {report['macs_before']} != {before}")
    need(report["macs_after"] == after, f"macs_after {report['macs_after']} != {after} of the stored layer")
    need(report["params_after"] == after // hw, "params_after differs from the stored factor sizes")
    need(math.isclose(report["retained"], after / before, rel_tol=1e-12), "retained != macs_after / macs_before")
    need(math.isclose(report["ratio"], 1 - after / before, rel_tol=1e-9, abs_tol=1e-12), "ratio != 1 - retained")


def disagrees(reported: float, measured: float, scale: float) -> bool:
    return abs(reported - measured) > FLOAT32_TOL * (abs(measured) + scale)


# ---------------------------------------------------------------------------
# Set-up shared by the CLI workloads.
# ---------------------------------------------------------------------------


def write_model(cc, model: dict, path: Path) -> None:
    cont = cc.container.Container()
    for spec in LAYERS:
        w, b = model[spec.name]
        cc.container.add_kernel(cont, spec.name, cc.Kernel4D(w, bias=b), h=spec.hw, w=spec.hw)
    cc.container.write_container(cont, path)


def weight_svd_macs(spec: LayerSpec, r: int) -> int:
    """A k x k conv into r channels, then a 1 x 1 conv into t."""
    return (K * K * spec.s + spec.t) * r * spec.hw * spec.hw


# ---------------------------------------------------------------------------
# datafree
# ---------------------------------------------------------------------------


def inputs_datafree(seed: int) -> dict:
    """The model, and rank-selection tables derived from it: singular values
    of the weight matrices, and accuracies that fall with the discarded
    energy, each with its MAC costs."""
    model = ref.make_model(seed)
    svs, sv_costs, accs, acc_costs = [], [], [], []
    p_orig = 0.75
    for spec in LAYERS:
        w, _ = model[spec.name]
        sv = np.linalg.svd(w.reshape(spec.t, -1), compute_uv=False)
        energy = np.cumsum(sv**2) / np.sum(sv**2)
        grid = [spec.t * j // 8 for j in range(1, 9)]
        svs.append(sv)
        sv_costs.append({(r,): weight_svd_macs(spec, r) for r in range(1, sv.size + 1)})
        accs.append({(r,): p_orig * energy[r - 1] for r in grid})
        acc_costs.append({(r,): weight_svd_macs(spec, r) for r in grid})
    return {"seed": seed, "model": model, "p_orig": p_orig, "svs": svs, "sv_costs": sv_costs,
            "accs": accs, "acc_costs": acc_costs}


def setup_datafree(cc, data: dict, work: Path, clock: Clock) -> list[Op]:
    seed, model = data["seed"], data["model"]
    origs = [K * K * spec.s * spec.t * spec.hw * spec.hw for spec in LAYERS]
    with clock:
        write_model(cc, model, work / "model")
        cont = cc.container.Container()
        sv_costs = [cc.GridCosts(c, orig) for c, orig in zip(data["sv_costs"], origs)]
        cc.container.add_sv_tables(cont, "sv", data["svs"], sv_costs)
        cc.container.write_container(cont, work / "sv")
        cont = cc.container.Container()
        accs = [cc.AccTable(a, data["p_orig"]) for a in data["accs"]]
        acc_costs = [cc.GridCosts(c, orig) for c, orig in zip(data["acc_costs"], origs)]
        cc.container.add_acc_tables(cont, "acc", accs, acc_costs)
        cc.container.write_container(cont, work / "acc")

    out = work / "out"
    ops = []
    for spec in LAYERS:
        w, b = model[spec.name]
        with clock:
            kernel = cc.Kernel4D(w, bias=b)
        for method, (fn, sweeps, tol) in FIXED_SWEEPS.items():
            ranks = ref.compress_ranks(method, spec)
            kwargs = {"max_iters": sweeps, "tol": tol} | ({"seed": seed} if method == "cp" else {})
            call = _bind(cc.decomp, fn, kernel, *ranks, **kwargs)
            ops.append(Op(f"compress/{method}", spec.name, _check_fixed_sweeps(spec, w, method, ranks, sweeps), call=call))
        for method in CLI_METHODS:
            ranks = ref.compress_ranks(method, spec)
            dest = out / f"{spec.name}-{method}"
            argv = ["compress", str(work / "model"), "--layer", spec.name, "--method", method,
                    "--rank", ",".join(map(str, ranks)), "--seed", str(seed), "--out", str(dest)]
            check = _check_compress(cc, spec, w, method, ranks, dest)
            ops.append(Op(f"compress/{method}", spec.name, check, argv, dest))
            dense = out / f"{spec.name}-{method}-dense"
            argv = ["reconstruct", str(dest), "--layer", spec.name, "--out", str(dense)]
            ops.append(Op(f"reconstruct/{method}", spec.name, _check_reconstruct(cc, spec, w, dest, dense), argv, dense))
            check = _check_report(cc, spec, dest)
            ops.append(Op(f"report/{method}", spec.name, check, ["report", str(dest)], scored=False))
    for strategy, flag, table in (("greedy-energy", "--sv-table", "sv"), ("equal-acc", "--acc-table", "acc")):
        dest = out / f"plan-{strategy}"
        argv = ["rank-select", "--strategy", strategy, "--ratio", str(RATIO),
                flag, str(work / table), "--out", str(dest)]
        grid = None if strategy == "greedy-energy" else [set(a) for a in data["accs"]]
        ops.append(Op(f"rank-select/{strategy}", "model", _check_rank_select(cc, dest, grid), argv, dest, scored=False))
    for kind in ("l0", "vib"):
        dest = out / f"gates-{kind}"
        argv = ["gates", "--kind", kind, "--lambda", str(GATE_LAMBDA), "--steps", str(GATE_STEPS),
                "--threshold", str(GATE_THRESHOLD), "--features", str(GATE_FEATURES),
                "--seed", str(seed), "--out", str(dest)]
        ops.append(Op(f"gates/{kind}", "toy", _check_gates(cc, kind, dest), argv, dest, scored=False))
    return ops


def _check_compress(cc, spec, w, method, ranks, dest, heldout=None):
    """Compress op; ``rel_error`` is the kernel error, or with ``heldout``
    (patches, responses) the held-out response error."""
    def check(report):
        check_fields(report, ("command", "layer", "recon_error", "out") + LAYER_FIELDS)
        need(report["method"] == method.replace("-", "_") and report["ranks"] == list(ranks), "method or ranks differ")
        cont = read_back(cc, dest)
        _, _, kmeta = stored_kernel(cont, spec.name)
        need((kmeta.get("h"), kmeta.get("w")) == (spec.hw, spec.hw), "kernel map size not kept")
        got_method, got_ranks, factors, order, bias = stored_layer(cont, f"{spec.name}/decomposed")
        need(got_method == method.replace("-", "_") and got_ranks == list(ranks), "stored method or ranks differ")
        check_layer_report(report, spec, factors, spec.hw * spec.hw)
        dense = ref.reconstruct(got_method, factors, order)
        kernel_err = ref.rel_err(dense, w)
        result = {"mismatch": disagrees(report["recon_error"], kernel_err, 1.0)}
        if heldout is None:
            result["rel_error"] = kernel_err
        else:
            result["rel_error"] = ref.rel_err(respond(heldout[0], dense, bias), heldout[1])
        return result

    return check


def _check_fixed_sweeps(spec, w, method, ranks, sweeps):
    def check(layer):
        need(layer.method == method and tuple(layer.ranks) == tuple(ranks), "method or ranks differ")
        if method == "cp":
            need(layer.meta["iterations"] == sweeps, f"cp ran {layer.meta['iterations']} sweeps, not {sweeps}")
        return {"rel_error": ref.rel_err(ref.reconstruct(method, layer.factors), w)}

    return check


def _check_reconstruct(cc, spec, w, src, dest):
    def check(report):
        check_fields(report, ("command", "layer", "method", "ranks", "out", "recon_error"))
        method, _, factors, order, _ = stored_layer(read_back(cc, src), f"{spec.name}/decomposed")
        want = ref.reconstruct(method, factors, order)
        got, _, _ = stored_kernel(read_back(cc, dest), spec.name)
        need(got.shape == want.shape, f"dense kernel shape {got.shape} != {want.shape}")
        need(np.max(np.abs(got - want)) <= FLOAT32_TOL * np.max(np.abs(want)), "dense kernel is not the factor product")
        err = ref.rel_err(got, w)
        return {"rel_error": err, "mismatch": disagrees(report["recon_error"], err, 1.0)}

    return check


def _check_report(cc, spec, src):
    def check(report):
        check_fields(report, ("command", "input", "entries"))
        by_kind = {item["kind"]: item for item in report["entries"]}
        need(set(by_kind) == {"kernel", "layer"}, f"report lists {sorted(by_kind)}")
        hw = spec.hw * spec.hw
        item = by_kind["kernel"]
        need(item["dims"] == {"t": spec.t, "s": spec.s, "k": K, "h": spec.hw, "w": spec.hw}, "kernel dims differ")
        params = K * K * spec.s * spec.t
        need(item["macs"] == params * hw and item["params"] == params, "kernel cost differs")
        _, ranks, factors, _, _ = stored_layer(read_back(cc, src), f"{spec.name}/decomposed")
        check_fields(by_kind["layer"], LAYER_FIELDS)
        need(by_kind["layer"]["ranks"] == ranks, "layer ranks differ")
        check_layer_report(by_kind["layer"], spec, factors, hw)
        return {}

    return check


def _check_rank_select(cc, dest, grid):
    def check(report):
        check_fields(report, ("command", "strategy", "ranks", "tau", "achieved_macs", "retained", "ratio", "out"))
        ranks = [tuple(r) for r in report["ranks"]]
        need(len(ranks) == len(LAYERS), "one rank vector per layer expected")
        for i, (spec, r) in enumerate(zip(LAYERS, ranks)):
            need(len(r) == 1 and 1 <= r[0] <= spec.t, f"rank {r} out of range")
            need(grid is None or r in grid[i], f"rank {r} not on the grid")
        macs = sum(weight_svd_macs(spec, r[0]) for spec, r in zip(LAYERS, ranks))
        orig = sum(K * K * spec.s * spec.t * spec.hw * spec.hw for spec in LAYERS)
        need(report["achieved_macs"] == macs, f"achieved_macs {report['achieved_macs']} != {macs}")
        need(math.isclose(report["retained"], macs / orig, rel_tol=1e-12), "retained != achieved / original")
        need(report["retained"] <= RATIO, "plan exceeds the MAC budget")
        cont = read_back(cc, dest)
        stored = [int(round(v)) for v in cont.get("plan")]
        need(stored == [r[0] for r in ranks], "stored plan differs from the report")
        return {}

    return check


def _check_gates(cc, kind, dest):
    def check(report):
        check_fields(report, ("command", "kind", "lambda", "criteria", "threshold", "kept", "final_loss", "out"))
        crit = report["criteria"]
        need(len(crit) == GATE_FEATURES, "one criterion per feature expected")
        need(report["kept"] == [i for i, c in enumerate(crit) if c >= GATE_THRESHOLD], "kept != criteria >= threshold")
        need(math.isfinite(report["final_loss"]), "final loss is not finite")
        shape = (GATE_FEATURES,) if kind == "l0" else (GATE_FEATURES, 2)
        need(read_back(cc, dest).entry("gates").shape == shape, "stored gate shape differs")
        return {}

    return check


# ---------------------------------------------------------------------------
# dataopt
# ---------------------------------------------------------------------------


def respond(x: np.ndarray, dense: np.ndarray, bias, keep=None) -> np.ndarray:
    """(n, t) responses of a dense layer to (n, s*k*k) patches.

    ``keep`` selects the input channels of a pruned layer.
    """
    if keep is not None:
        x = x.reshape(len(x), -1, K * K)[:, keep].reshape(len(x), -1)
    pred = x @ dense.reshape(len(dense), -1).T
    return pred if bias is None else pred + bias


#: conv4 (t = 24) is left out: relu-asym and lasso take over a second each
#: there, and a run would hold only five passes.
DATAOPT_LAYERS = LAYERS[:3]


def inputs_dataopt(seed: int) -> dict:
    """The model; per layer a fitting batch, the layer's own responses to
    its inputs and a held-out batch; and the spatial-SVD factors that
    spatial-refine starts from."""
    model = ref.make_model(seed)
    batches, current, spatial = {}, {}, {}
    for i, spec in enumerate(DATAOPT_LAYERS):
        w, b = model[spec.name]
        batches[spec.name] = (ref.make_batch(spec, w, b, ref.rng_for(seed, 1, i)),
                              ref.make_batch(spec, w, b, ref.rng_for(seed, 2, i)))
        current[spec.name] = respond(batches[spec.name][0][0], w, b)
        spatial[spec.name] = ref.spatial_factors(spec, w)
    return {"model": model, "batches": batches, "current": current, "spatial": spatial}


def setup_dataopt(cc, data: dict, work: Path, clock: Clock) -> list[Op]:
    model = data["model"]
    handed = {}
    with clock:
        write_model(cc, model, work / "model")
        for spec in DATAOPT_LAYERS:
            w, b = model[spec.name]
            (x, y), _ = data["batches"][spec.name]
            cont = cc.container.Container()
            cc.container.add_batch(cont, "batch", cc.PatchBatch(inputs=x, ref_outputs=y))
            cc.container.write_container(cont, work / f"batch-{spec.name}")
            factors, ranks = data["spatial"][spec.name]
            handed[spec.name] = (
                cc.Kernel4D(w, bias=b),
                cc.PatchBatch(inputs=x, ref_outputs=y, cur_outputs=data["current"][spec.name]),
                cc.DecomposedLayer(method="spatial_svd", factors=factors, ranks=ranks,
                                   source_dims=(spec.t, spec.s, K), bias=b),
            )

    out = work / "out"
    ops = []
    for spec in DATAOPT_LAYERS:
        w, b = model[spec.name]
        train, heldout = data["batches"][spec.name]
        batch = work / f"batch-{spec.name}"
        ranks = ref.compress_ranks("spatial-svd", spec)
        spatial = out / f"{spec.name}-spatial-svd"
        argv = ["compress", str(work / "model"), "--layer", spec.name, "--method", "spatial-svd",
                "--rank", ",".join(map(str, ranks)), "--out", str(spatial)]
        check = _check_compress(cc, spec, w, "spatial-svd", ranks, spatial, heldout)
        ops.append(Op("compress/spatial-svd", spec.name, check, argv, spatial))
        kernel, patches, layer = handed[spec.name]
        (r,) = ref.dataopt_ranks("data-svd", spec)
        dense_sp = ref.reconstruct("spatial_svd", data["spatial"][spec.name][0])
        calls = {
            "data-svd": ("data_svd", (kernel, patches.ref_outputs, r), w),
            "asym": ("asym_data_svd", (patches, kernel, r), w),
            "relu-asym": ("relu_asym", (patches, kernel, r), w),
            "spatial-refine": ("spatial_refine", (layer, patches), dense_sp),
        }
        for mode, (fn, args, dense) in calls.items():
            check = _check_refined(spec, mode, r, dense, b, train, heldout)
            ops.append(Op(f"dataopt/{mode}", spec.name, check, call=_bind(cc.dataopt, fn, *args)))
        keep = ref.prune_keep(spec)
        for mode in ("lasso", "magnitude"):
            dest = out / f"{spec.name}-prune-{mode}"
            argv = ["prune", str(work / "model"), "--layer", spec.name, "--keep", str(keep), "--mode", mode]
            argv += (["--batch", str(batch)] if mode == "lasso" else []) + ["--out", str(dest)]
            check = _check_prune(cc, spec, w, mode, keep, dest, train, heldout)
            ops.append(Op(f"prune/{mode}", spec.name, check, argv, dest))
    return ops


def _check_refined(spec, mode, r, dense, bias, train, heldout):
    """A refined layer maps the responses ``z`` of ``dense`` to
    ``M (z - z_mean) + y_mean``; M must have rank r (full rank for
    spatial-refine, whose M is folded into the wrapped layer)."""
    def act(a):  # relu-asym fits the responses after the ReLU
        return np.maximum(a, 0.0) if mode == "relu-asym" else a

    def predict(res, z):
        return (z - res.z_mean) @ res.M.T + res.y_mean

    def check(res):
        m = np.asarray(res.M)
        need(m.shape == (spec.t, spec.t) and bool(np.all(np.isfinite(m))), f"M is not a finite {spec.t}x{spec.t} map")
        if mode == "spatial-refine":
            method, factors, order = res.wrapped.method, res.wrapped.factors, res.wrapped.meta.get("order", "hv")
            need(method == "spatial_svd", f"wrapped layer is {method}")
            want = m @ dense.reshape(spec.t, -1)
            got = ref.reconstruct(method, factors, order).reshape(spec.t, -1)
            need(np.max(np.abs(got - want)) <= FORWARD_TOL * np.max(np.abs(want)), "M is not folded into the layer")
        else:
            sv = np.linalg.svd(m, compute_uv=False)
            need(res.rank == r and sv[r] <= 1e-9 * sv[0], f"M has rank above {r}")
        want = act(train[1])
        if mode == "data-svd":  # projects the reference responses; reports squared units
            measured = float(np.linalg.norm(want - predict(res, want))) ** 2
            scale = float(np.linalg.norm(want)) ** 2
        else:
            measured = float(np.linalg.norm(want - act(predict(res, respond(train[0], dense, bias)))))
            scale = float(np.linalg.norm(want))
        return {
            "rel_error": ref.rel_err(act(predict(res, respond(heldout[0], dense, bias))), act(heldout[1])),
            "mismatch": disagrees(res.residual, measured, scale),
        }

    return check


def _check_prune(cc, spec, w, mode, keep, dest, train, heldout):
    def check(report):
        check_fields(report, ("command", "mode", "layer", "kept", "residual", "out",
                              "macs_before", "macs_after", "retained", "ratio"))
        kept = report["kept"]
        need(len(kept) == keep and kept == sorted(set(kept)), f"bad kept list {kept}")
        need(0 <= kept[0] and kept[-1] < spec.s, f"kept channels {kept} out of range")
        dense, bias, meta = stored_kernel(read_back(cc, dest), f"{spec.name}/pruned")
        need(dense.shape == (spec.t, keep, K, K), f"pruned kernel shape {dense.shape}")
        need(meta.get("kept") == kept, "stored kept list differs from the report")
        need((meta.get("h"), meta.get("w")) == (spec.hw, spec.hw), "pruned kernel map size not kept")
        hw = spec.hw * spec.hw
        need(report["macs_before"] == K * K * spec.s * spec.t * hw, "macs_before differs")
        after = ref.staged_macs({"w": dense}, spec.hw, spec.hw)
        need(report["macs_after"] == after, "macs_after differs from the stored kernel")
        need(math.isclose(report["retained"], keep / spec.s, rel_tol=1e-12), "retained differs")
        if mode == "lasso":
            measured = float(np.linalg.norm(train[1] - respond(train[0], dense, bias, kept)))
            scale = float(np.linalg.norm(train[1]))
        else:
            dropped = [c for c in range(spec.s) if c not in kept]
            measured, scale = float(np.linalg.norm(w[:, dropped])), float(np.linalg.norm(w))
        return {
            "rel_error": ref.rel_err(respond(heldout[0], dense, bias, kept), heldout[1]),
            "mismatch": disagrees(report["residual"], measured, scale),
        }

    return check


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def inputs_forward(seed: int) -> dict:
    """Per layer: a feature map, the reference output of the dense kernel,
    and the factor sets with the reference output of each."""
    model = ref.make_model(seed)
    layers = {}
    for i, spec in enumerate(LAYERS):
        w, _ = model[spec.name]
        x = ref.activations(ref.rng_for(seed, 3, i), spec.s, spec.hw)
        staged = {
            method: (factors, ranks, ref.conv(ref.reconstruct(method, factors), x))
            for method, (factors, ranks) in ref.forward_factors(spec, w).items()
        }
        layers[spec.name] = (w, x, ref.conv(w, x), staged)
    return {"layers": layers}


def setup_forward(cc, data: dict, work: Path, clock: Clock) -> list[Op]:
    ops = []
    for spec in LAYERS:
        w, x, dense_out, staged = data["layers"][spec.name]
        with clock:
            kernel = cc.Kernel4D(w)
        ops.append(Op("forward/dense", spec.name, _check_forward(dense_out, dense_out),
                      call=_bind(cc, "conv_direct", kernel, x)))
        for method, (factors, ranks, want) in staged.items():
            with clock:
                layer = cc.DecomposedLayer(method=method, factors=factors, ranks=ranks,
                                           source_dims=(spec.t, spec.s, K))
            ops.append(Op(f"forward/{method}", spec.name, _check_forward(want, dense_out),
                          call=_bind(cc, "decomposed_forward", layer, x)))
    return ops


def _bind(module, name: str, *args, **kwargs):
    """Call ``module.<name>`` looked up at call time, so a traced binding is used."""
    return lambda: getattr(module, name)(*args, **kwargs)


def _check_forward(staged: np.ndarray, dense_out: np.ndarray):
    """Output must equal the reference convolution of the reconstructed
    kernel; ``rel_error`` is the output error against the original layer."""

    def check(y):
        need(y.shape == staged.shape, f"output shape {y.shape} != {staged.shape}")
        dev = float(np.max(np.abs(y - staged)) / np.max(np.abs(staged)))
        need(dev <= FORWARD_TOL, f"output deviates {dev:.2e} from the reference convolution")
        return {"rel_error": ref.rel_err(y, dense_out), "deviation": dev}

    return check


#: workload -> (inputs from the seed, set-up that hands them to the program)
WORKLOADS = {
    "datafree": (inputs_datafree, setup_datafree),
    "dataopt": (inputs_dataopt, setup_dataopt),
    "forward": (inputs_forward, setup_forward),
}
