"""Median and quartile spread of each metric over a set of benchmark runs.

Usage, from the repository root:

    python3 bench/summarize.py [RESULT.json ...] [--out SUMMARY.json]

Without result files it reads every ``.bench_out/*.json`` written by
``bench/run.py``.  For each workload and metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` that the bound of ``BENCHMARK.json`` is set against.
End-to-end metrics come from untraced runs only, per-layer metrics from
traced runs only.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(paths) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    for path in paths:
        run = json.loads(Path(path).read_text())
        workload = run["env"]["workload"]
        if "per_layer" in run:  # a traced run: its plain passes share the process with traced ones
            for name, value in run["per_layer"].items():
                values[workload][name].append(value)
            continue
        for name, value in run["end_to_end"].items():
            values[workload][name].append(value)
        for name in ("fail_frac", "op_p50_ms", "pass_wall_s", "setup_wall_s"):
            values[workload][name].append(run[name])
    out = {}
    for workload, metrics in sorted(values.items()):
        out[workload] = {}
        for name, vals in sorted(metrics.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            out[workload][name] = {
                "runs": len(vals),
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else None,
            }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("results", nargs="*")
    p.add_argument("--out")
    args = p.parse_args(argv)
    paths = args.results or sorted((ROOT / ".bench_out").glob("*-trace*.json"))
    summary = summarize(paths)
    for workload, metrics in summary.items():
        for name, m in metrics.items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:9s} {name:48s} n={m['runs']:2d} median={m['median']:.6g} spread={spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
