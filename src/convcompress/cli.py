"""Command-line interface.

Subcommands operate on container directories (see :mod:`container`) and
print a machine-readable JSON report on stdout.  Exit codes: 0 success,
2 usage error, 1 computation error.

Each ``_cmd_*`` handler maps the parsed arguments to ``(report, container)``
and neither prints nor writes; only ``report`` returns no container.
``cli_dispatch`` stamps the report's ``command`` (and ``out`` for a command
that writes) and writes the container to ``--out`` once, after its handler
returned, so a command that fails writes nothing.

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
import math
import sys

import numpy as np

from . import container as cio
from . import dataopt, decomp, gates as gates_mod, pruning, rankselect
from .kernel import METHOD_COSTS, Kernel4D, LayerCost, layer_cost, mac_cost

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


def _seed(text: str) -> int:
    """A ``--seed``: an integer >= 0, the seeds numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed >= 0:
        return seed
    raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")


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
    p.add_argument("--seed", type=_seed, default=0)
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
    p.add_argument("--seed", type=_seed, default=0)
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


def _parse_ranks(text: str, method: str, choice: str) -> tuple[int, ...]:
    """``--rank`` as one int per rank of ``method`` in the cost table; a
    wrong count is a usage error of ``choice``, the command's method flag."""
    try:
        ranks = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse ranks from {text!r}")
    names = METHOD_COSTS[method].ranks
    if len(ranks) != len(names):
        raise UsageError(f"{choice} takes --rank {','.join(names)}, got {len(ranks)} value(s)")
    return ranks


def _map_size(cont: cio.Container, name: str) -> tuple[int, int]:
    """Feature-map size ``(h, w)`` stored with kernel entry ``name``; 1 x 1
    when the container holds no such kernel."""
    if cont.has(name) and cont.entry(name).kind == "kernel":
        kmeta = cont.entry(name).metadata
        return kmeta.get("h", 1), kmeta.get("w", 1)
    return 1, 1


def _cost(cost: LayerCost) -> dict:
    """The six cost fields of a report."""
    return {"macs_before": cost.macs_original, "macs_after": cost.macs_compressed,
            "retained": cost.retained, "ratio": cost.ratio,
            "params_before": cost.params_original, "params_after": cost.params_compressed}


def _layer_report(layer: decomp.DecomposedLayer, h: int, w: int) -> dict:
    diagnostics = {key: layer.meta[key] for key in cio.DIAGNOSTICS if key in layer.meta}
    return {
        "method": layer.method,
        "ranks": list(layer.ranks),
        **_cost(layer_cost(layer.s, layer.t, layer.k, h, w, layer.param_count(), layer.method,
                           layer.ranks)),
        **({"diagnostics": diagnostics} if diagnostics else {}),
    }


def _rel_error(approx: Kernel4D, ref: Kernel4D) -> float:
    """Relative Frobenius error of the dense kernel ``approx`` against ``ref``."""
    return float(np.linalg.norm(approx.data - ref.data) / max(np.linalg.norm(ref.data), 1e-300))


def _cmd_compress(args) -> tuple[dict, cio.Container | None]:
    cont = cio.read_container(args.input)
    kernel, _ = cio.read_kernel(cont, args.layer)
    h, w = _map_size(cont, args.layer)
    method, extract = EXTRACTORS[args.method]
    if (args.rank is None) == (args.ratio is None):
        raise UsageError("exactly one of --rank and --ratio is required")
    if args.rank is not None:
        ranks = _parse_ranks(args.rank, method, f"--method {args.method}")
    else:
        ranks = rankselect.ranks_from_ratio(method, kernel.s, kernel.t, kernel.k, args.ratio)
    layer = extract(kernel, ranks, args.seed)
    out = cio.Container()
    cio.add_kernel(out, args.layer, kernel, h=h, w=w)
    cio.add_layer(out, f"{args.layer}/decomposed", layer)
    report = {"layer": args.layer, "recon_error": _rel_error(decomp.reconstruct(layer), kernel)}
    return {**report, **_layer_report(layer, h, w)}, out


def _cmd_dataopt(args) -> tuple[dict, cio.Container | None]:
    cont = cio.read_container(args.input)
    batch = cio.read_batch(cio.read_container(args.batch), "batch")
    h, w = _map_size(cont, args.layer)
    out = cio.Container()
    # the kernel the layer replaces is stored beside it; only spatial-refine,
    # which refits a stored layer, runs without one
    if cont.has(args.layer) or args.mode != "spatial-refine":
        kernel, _ = cio.read_kernel(cont, args.layer)
        cio.add_kernel(out, args.layer, kernel, h=h, w=w)
    if args.mode == "spatial-refine":
        refined = dataopt.spatial_refine(cio.read_layer(cont, f"{args.layer}/decomposed"), batch)
        layer, residual = refined.wrapped, refined.residual
    else:
        if args.rank is None:
            raise UsageError(f"--rank is required for mode {args.mode}")
        # every mode but asym3d stores the weight_svd layer of its fit
        stored = "asym3d" if args.mode == "asym3d" else "weight_svd"
        ranks = _parse_ranks(args.rank, stored, f"--mode {args.mode}")
        if args.mode == "asym3d":
            layer = dataopt.asym3d(kernel, batch, *ranks)
            residual = layer.meta["fit_residual"]
        else:
            (r,) = ranks
            # current responses always come from the layer, z = W x + b
            batch = dataopt.attach_current_outputs(batch, kernel)
            if args.mode == "data-svd":
                refined = dataopt.data_svd(kernel, batch.ref_outputs, r)
                residual = math.sqrt(refined.residual)  # summed eigenvalues are squared units
            else:
                fit = dataopt.asym_data_svd if args.mode == "asym" else dataopt.relu_asym
                refined = fit(batch, kernel, r)
                residual = refined.residual
            layer = dataopt.refined_layer(refined)
    method = args.mode.replace("-", "_") if layer.method == "weight_svd" else layer.method
    cio.add_layer(out, f"{args.layer}/decomposed", layer)
    return {"mode": args.mode, "layer": args.layer, "residual": residual,
            **_layer_report(layer, h, w), "method": method}, out


def _cmd_prune(args) -> tuple[dict, cio.Container | None]:
    cont = cio.read_container(args.input)
    kernel, _ = cio.read_kernel(cont, args.layer)
    h, w = _map_size(cont, args.layer)
    if args.mode == "magnitude":
        result = pruning.magnitude_prune(kernel, args.keep)
    else:
        if not args.batch:
            raise UsageError("lasso pruning needs --batch")
        batch = cio.read_batch(cio.read_container(args.batch), "batch")
        dataopt.check_patch_width(batch, kernel)
        x = batch.inputs.reshape(len(batch.inputs), kernel.s, kernel.k * kernel.k)
        result = pruning.channel_prune(kernel, x, batch.ref_outputs, args.keep)
    out = cio.Container()
    cio.add_kernel(out, f"{args.layer}/pruned", result.refit_kernel, h=h, w=w)
    out.entry(f"{args.layer}/pruned").metadata["kept"] = list(result.kept)
    report = {
        "mode": args.mode,
        "layer": args.layer,
        "kept": list(result.kept),
        "residual": result.residual,
        **_cost(layer_cost(kernel.s, kernel.t, kernel.k, h, w, result.refit_kernel.data.size,
                           "channel_prune", (result.s_prime,))),
    }
    if args.mode == "lasso":
        report["diagnostics"] = {"lambda": result.lam, "solves": result.solves,
                                 "sweeps": result.sweeps, "converged": result.converged}
    return report, out


def _cmd_gates(args) -> tuple[dict, cio.Container | None]:
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
    return {
        "kind": args.kind,
        "lambda": args.lambda_reg,
        "criteria": [float(c) for c in crit],
        "threshold": args.threshold,
        "kept": list(kept),
        "final_loss": result.loss_trace[-1],
    }, out


def _cmd_rank_select(args) -> tuple[dict, cio.Container | None]:
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
    return {
        "strategy": plan.strategy,
        "ranks": [list(r) for r in plan.ranks],
        "tau": plan.tau,
        "achieved_macs": plan.achieved_macs,
        "retained": plan.achieved_ratio,
        "ratio": 1.0 - plan.achieved_ratio,
    }, out


def _cmd_report(args) -> tuple[dict, cio.Container | None]:
    cont = cio.read_container(args.input)
    items = []
    seen_layers = set()
    for e in cont.entries:
        if e.kind == "kernel":
            kernel, _ = cio.read_kernel(cont, e.name)
            h, w = _map_size(cont, e.name)
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
            base = cio.layer_of(e.name)
            if base is None:
                raise cio.ContainerError("bad_manifest", f"factor {e.name!r} is under no layer")
            if base in seen_layers:
                continue
            seen_layers.add(base)
            layer = cio.read_layer(cont, base)
            h, w = _map_size(cont, base.rsplit("/", 1)[0])
            items.append({"name": base, "kind": "layer", **_layer_report(layer, h, w)})
        elif e.kind in ("patchbatch", "gates", "plan"):
            # nested: a gate vector's metadata has a "kind" key of its own
            items.append(
                {"name": e.name, "kind": e.kind, "shape": list(e.shape), "metadata": e.metadata}
            )
    return {"input": args.input, "entries": items}, None


def _cmd_reconstruct(args) -> tuple[dict, cio.Container | None]:
    cont = cio.read_container(args.input)
    layer = cio.read_layer(cont, f"{args.layer}/decomposed")
    recon = decomp.reconstruct(layer)
    out = cio.Container()
    h, w = _map_size(cont, args.layer)
    cio.add_kernel(out, args.layer, recon, h=h, w=w)
    report = {
        "layer": args.layer,
        "method": layer.method,
        "ranks": list(layer.ranks),
    }
    if cont.has(args.layer):
        original, _ = cio.read_kernel(cont, args.layer)
        if original.data.shape != recon.data.shape:
            raise cio.ContainerError(
                "shape_mismatch",
                f"kernel {args.layer!r} has shape {original.data.shape}, "
                f"its layer reconstructs {recon.data.shape}",
            )
        report["recon_error"] = _rel_error(recon, original)
    return report, out


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
        report, out = _HANDLERS[args.command](args)
        if out is not None:
            cio.write_container(out, args.out)
            report["out"] = args.out
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
    report["command"] = args.command
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
