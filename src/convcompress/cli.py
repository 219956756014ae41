"""Command-line interface.

Subcommands operate on container directories (see :mod:`container`) and
print a machine-readable JSON report on stdout.  Exit codes: 0 success,
2 usage error, 1 computation error.

Conventions: ``--ratio`` always means the retained MAC fraction
(compressed / original); reports print both that and the saved fraction
to keep the two conventions apart.  Reruns with identical arguments,
inputs and ``--seed`` produce byte-identical output containers, given the
same numpy/BLAS build and the same BLAS thread count.  ``cli_dispatch``
may be called any number of times in one process; the argument parser is
built on the first call and reused, since parsing leaves it unchanged.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import container as cio
from . import dataopt, decomp, gates as gates_mod, pruning, rankselect
from .kernel import mac_cost

#: --method flag -> (method name, extractor(kernel, ranks, seed)).  Each
#: extractor looks its function up on ``decomp`` when called, so a rebound
#: (for example traced) function is the one that runs.
EXTRACTORS = {
    "weight-svd": ("weight_svd", lambda kernel, ranks, seed: decomp.weight_svd(kernel, *ranks)),
    "spatial-svd": ("spatial_svd", lambda kernel, ranks, seed: decomp.spatial_svd(kernel, *ranks)),
    "cp": ("cp", lambda kernel, ranks, seed: decomp.cp_als(kernel, *ranks, seed=seed)),
    "tucker": ("tucker", lambda kernel, ranks, seed: decomp.tucker_hooi(kernel, *ranks)),
    "tt": ("tt", lambda kernel, ranks, seed: decomp.tt_svd(kernel, *ranks)),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convcompress",
        description="Structured compression of convolution kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="decompose a kernel (data-free)")
    p.add_argument("input", help="input container directory")
    p.add_argument("--layer", required=True, help="kernel entry name")
    p.add_argument("--method", required=True, choices=sorted(EXTRACTORS))
    p.add_argument("--rank", help="rank r, or r1,r2 / r1,r2,r3 for tucker / tt")
    p.add_argument("--ratio", type=float, help="retained MAC fraction to derive ranks from")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("dataopt", help="data-optimized refinement")
    p.add_argument("input")
    p.add_argument("--layer", required=True)
    p.add_argument(
        "--mode",
        required=True,
        choices=["data-svd", "asym", "asym3d", "spatial-refine", "relu-asym"],
    )
    p.add_argument("--batch", required=True, help="container directory holding the patch batch")
    p.add_argument("--rank", help="rank r (rs,rd for asym3d)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("prune", help="prune input channels")
    p.add_argument("input")
    p.add_argument("--layer", required=True)
    p.add_argument("--keep", type=int, required=True, help="channels to keep")
    p.add_argument("--mode", choices=["lasso", "magnitude"], default="lasso")
    p.add_argument("--batch", help="patch batch container (lasso mode)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("gates", help="train stochastic gates on the built-in toy task")
    p.add_argument("--kind", choices=["l0", "vib"], default="l0")
    p.add_argument("--lambda", dest="lambda_reg", type=float, required=True)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--features", type=int, default=8)
    p.add_argument("--informative", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rank-select", help="allocate per-layer ranks under a MAC budget")
    p.add_argument("--strategy", required=True, choices=["equal-acc", "greedy-energy"])
    p.add_argument("--ratio", type=float, required=True, help="retained MAC fraction budget")
    p.add_argument("--acc-table", help="container with accuracy tables (equal-acc)")
    p.add_argument("--sv-table", help="container with singular-value tables (greedy-energy)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="summarize a container")
    p.add_argument("input")

    p = sub.add_parser("reconstruct", help="densify a decomposed layer")
    p.add_argument("input")
    p.add_argument("--layer", required=True)
    p.add_argument("--out", required=True)

    return parser


def _parse_ranks(text: str) -> tuple[int, ...]:
    try:
        ranks = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse ranks from {text!r}")
    if not ranks:
        raise ValueError("empty rank list")
    return ranks


def _map_size(cont: cio.Container, name: str) -> tuple[int, int]:
    """Feature-map size ``(h, w)`` stored with kernel entry ``name``; 1 x 1
    when the container holds no such kernel."""
    if cont.has(name) and cont.entry(name).kind == "kernel":
        kmeta = cont.entry(name).metadata
        return kmeta.get("h", 1), kmeta.get("w", 1)
    return 1, 1


def _layer_report(layer: decomp.DecomposedLayer, h: int, w: int) -> dict:
    orig = mac_cost(layer.s, layer.t, layer.k, h, w, "original")
    macs_after = layer.macs(h, w)
    return {
        "method": layer.method,
        "ranks": list(layer.ranks),
        "macs_before": orig.macs_original,
        "macs_after": macs_after,
        "retained": macs_after / orig.macs_original,
        "ratio": 1.0 - macs_after / orig.macs_original,
        "params_before": orig.params_original,
        "params_after": layer.param_count(),
    }


def _cmd_compress(args) -> dict:
    cont = cio.read_container(args.input)
    kernel, kmeta = cio.read_kernel(cont, args.layer)
    method, extract = EXTRACTORS[args.method]
    if (args.rank is None) == (args.ratio is None):
        raise UsageError("exactly one of --rank and --ratio is required")
    if args.rank is not None:
        ranks = _parse_ranks(args.rank)
    else:
        ranks = rankselect.ranks_from_ratio(method, kernel.s, kernel.t, kernel.k, args.ratio)
    layer = extract(kernel, ranks, args.seed)
    out = cio.Container()
    cio.add_kernel(out, args.layer, kernel, h=kmeta.get("h", 1), w=kmeta.get("w", 1))
    cio.add_layer(out, f"{args.layer}/decomposed", layer)
    cio.write_container(out, args.out)
    recon = decomp.reconstruct(layer)
    err = float(
        np.linalg.norm(recon.data - kernel.data) / max(np.linalg.norm(kernel.data), 1e-300)
    )
    report = {"command": "compress", "layer": args.layer, "recon_error": err, "out": args.out}
    report.update(_layer_report(layer, kmeta.get("h", 1), kmeta.get("w", 1)))
    return report


def _refined_as_weight_layer(refined: dataopt.RefinedLayer) -> decomp.DecomposedLayer:
    """Pack a refined dense kernel as a weight-SVD-architecture layer."""
    kernel = refined.wrapped
    w1_flat, w2_flat = dataopt.weight_factors(refined)  # (t, r), (r, s*k*k)
    w1 = w2_flat.reshape(refined.rank, kernel.s, kernel.k, kernel.k).transpose(2, 3, 1, 0)
    return decomp.DecomposedLayer(
        method="weight_svd",
        factors={"w1": w1, "w2": w1_flat.T},
        ranks=(refined.rank,),
        source_dims=(kernel.t, kernel.s, kernel.k),
        bias=refined.functional_bias(),
    )


def _cmd_dataopt(args) -> dict:
    cont = cio.read_container(args.input)
    batch = cio.read_batch(cio.read_container(args.batch), "batch")
    report = {"command": "dataopt", "mode": args.mode, "layer": args.layer, "out": args.out}
    out = cio.Container()
    if args.mode == "spatial-refine":
        layer = cio.read_layer(cont, f"{args.layer}/decomposed")
        refined = dataopt.spatial_refine(layer, batch)
        h, w = _map_size(cont, args.layer)
        if cont.has(args.layer):
            kernel, _ = cio.read_kernel(cont, args.layer)
            cio.add_kernel(out, args.layer, kernel, h=h, w=w)
        cio.add_layer(out, f"{args.layer}/decomposed", refined.wrapped)
        report["residual"] = refined.residual
        report.update(_layer_report(refined.wrapped, h, w))
    else:
        kernel, kmeta = cio.read_kernel(cont, args.layer)
        h, w = kmeta.get("h", 1), kmeta.get("w", 1)
        if args.rank is None:
            raise UsageError(f"--rank is required for mode {args.mode}")
        ranks = _parse_ranks(args.rank)
        if args.mode == "asym3d":
            if len(ranks) != 2:
                raise UsageError("asym3d takes --rank rs,rd")
            layer = dataopt.asym3d(kernel, batch, *ranks)
            cio.add_layer(out, f"{args.layer}/decomposed", layer)
            report["residual"] = layer.meta.get("fit_residual")
            report.update(_layer_report(layer, h, w))
        else:
            (r,) = ranks
            if args.mode == "data-svd":
                refined = dataopt.data_svd(kernel, batch.ref_outputs, r)
            elif args.mode == "asym":
                if batch.cur_outputs is None:
                    batch = dataopt.attach_current_outputs(batch, kernel)
                refined = dataopt.asym_data_svd(batch, kernel, r)
            else:  # relu-asym
                if batch.cur_outputs is None:
                    batch = dataopt.attach_current_outputs(batch, kernel)
                refined = dataopt.relu_asym(batch, kernel, r)
            layer = _refined_as_weight_layer(refined)
            cio.add_layer(out, f"{args.layer}/decomposed", layer)
            report["residual"] = refined.residual
            report.update(_layer_report(layer, h, w))
            report["method"] = args.mode.replace("-", "_")
    cio.write_container(out, args.out)
    return report


def _cmd_prune(args) -> dict:
    cont = cio.read_container(args.input)
    kernel, kmeta = cio.read_kernel(cont, args.layer)
    if args.mode == "magnitude":
        result = pruning.magnitude_prune(kernel, args.keep)
    else:
        if not args.batch:
            raise UsageError("lasso pruning needs --batch")
        batch = cio.read_batch(cio.read_container(args.batch), "batch")
        n = batch.inputs.shape[0]
        x = batch.inputs.reshape(n, kernel.s, kernel.k * kernel.k)
        result = pruning.channel_prune(kernel, x, batch.ref_outputs, args.keep)
    out = cio.Container()
    h, w = kmeta.get("h", 1), kmeta.get("w", 1)
    cio.add_kernel(out, f"{args.layer}/pruned", result.refit_kernel, h=h, w=w)
    out.entry(f"{args.layer}/pruned").metadata["kept"] = list(result.kept)
    cio.write_container(out, args.out)
    before = mac_cost(kernel.s, kernel.t, kernel.k, h, w, "original").macs_original
    after = mac_cost(result.s_prime, kernel.t, kernel.k, h, w, "original").macs_original
    report = {
        "command": "prune",
        "mode": args.mode,
        "layer": args.layer,
        "kept": list(result.kept),
        "residual": result.residual,
        "macs_before": before,
        "macs_after": after,
        "retained": after / before,
        "ratio": 1.0 - after / before,
        "out": args.out,
    }
    if args.mode == "lasso":
        report["diagnostics"] = {"lambda": result.lam, "solves": result.solves,
                                 "sweeps": result.sweeps, "converged": result.converged}
    return report


def _cmd_gates(args) -> dict:
    task = gates_mod.ToyRegressionTask(
        n_features=args.features, n_informative=args.informative
    )
    result = gates_mod.train_toy_gated(
        task,
        kind=args.kind,
        lambda_reg=args.lambda_reg,
        steps=args.steps,
        lr=args.lr,
        seed=args.seed,
    )
    crit = result.gates.criteria()
    kept = gates_mod.kept_by_criteria(crit, args.threshold)
    out = cio.Container()
    cio.add_gates(out, "gates", result.gates)
    cio.write_container(out, args.out)
    return {
        "command": "gates",
        "kind": args.kind,
        "lambda": args.lambda_reg,
        "criteria": [float(c) for c in crit],
        "threshold": args.threshold,
        "kept": list(kept),
        "final_loss": result.loss_trace[-1],
        "out": args.out,
    }


def _cmd_rank_select(args) -> dict:
    if args.strategy == "equal-acc":
        if not args.acc_table:
            raise UsageError("equal-acc needs --acc-table")
        tables, costs = cio.read_acc_tables(cio.read_container(args.acc_table), "acc")
        plan = rankselect.equal_acc_select(tables, costs, args.ratio)
    else:
        if not args.sv_table:
            raise UsageError("greedy-energy needs --sv-table")
        svs, costs = cio.read_sv_tables(cio.read_container(args.sv_table), "sv")
        plan = rankselect.greedy_energy_select(svs, costs, args.ratio)
    out = cio.Container()
    cio.add_plan(out, "plan", plan)
    cio.write_container(out, args.out)
    return {
        "command": "rank-select",
        "strategy": plan.strategy,
        "ranks": [list(r) for r in plan.ranks],
        "tau": plan.tau,
        "achieved_macs": plan.achieved_macs,
        "retained": plan.achieved_ratio,
        "ratio": 1.0 - plan.achieved_ratio,
        "out": args.out,
    }


def _cmd_report(args) -> dict:
    cont = cio.read_container(args.input)
    items = []
    seen_layers = set()
    for e in cont.entries:
        if e.kind == "kernel":
            kernel, kmeta = cio.read_kernel(cont, e.name)
            h, w = kmeta.get("h", 1), kmeta.get("w", 1)
            cost = mac_cost(kernel.s, kernel.t, kernel.k, h, w, "original")
            items.append(
                {
                    "name": e.name,
                    "kind": "kernel",
                    "dims": {"t": kernel.t, "s": kernel.s, "k": kernel.k, "h": h, "w": w},
                    "macs": cost.macs_original,
                    "params": cost.params_original,
                }
            )
        elif e.kind == "factor" and e.metadata.get("role") != "bias":
            base = e.name.rsplit("/", 1)[0]
            if base in seen_layers:
                continue
            seen_layers.add(base)
            layer = cio.read_layer(cont, base)
            h, w = _map_size(cont, base.rsplit("/", 1)[0])
            items.append({"name": base, "kind": "layer", **_layer_report(layer, h, w)})
        elif e.kind in ("patchbatch", "gates", "plan"):
            items.append(
                {"name": e.name, "kind": e.kind, "shape": list(e.shape), **e.metadata}
            )
    return {"command": "report", "input": args.input, "entries": items}


def _cmd_reconstruct(args) -> dict:
    cont = cio.read_container(args.input)
    layer = cio.read_layer(cont, f"{args.layer}/decomposed")
    recon = decomp.reconstruct(layer)
    out = cio.Container()
    cio.add_kernel(out, args.layer, recon)
    cio.write_container(out, args.out)
    report = {
        "command": "reconstruct",
        "layer": args.layer,
        "method": layer.method,
        "ranks": list(layer.ranks),
        "out": args.out,
    }
    if cont.has(args.layer):
        original, _ = cio.read_kernel(cont, args.layer)
        if original.data.shape != recon.data.shape:
            raise cio.ContainerError(
                "shape_mismatch",
                f"kernel {args.layer!r} has shape {original.data.shape}, "
                f"its layer reconstructs {recon.data.shape}",
            )
        report["recon_error"] = float(
            np.linalg.norm(recon.data - original.data)
            / max(np.linalg.norm(original.data), 1e-300)
        )
    return report


class UsageError(Exception):
    pass


_HANDLERS = {
    "compress": _cmd_compress,
    "dataopt": _cmd_dataopt,
    "prune": _cmd_prune,
    "gates": _cmd_gates,
    "rank-select": _cmd_rank_select,
    "report": _cmd_report,
    "reconstruct": _cmd_reconstruct,
}


def cli_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation / container errors
        code = getattr(exc, "code", None)
        msg = {"error": str(exc)}
        if code:
            msg["code"] = code
        print(json.dumps(msg, sort_keys=True), file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
