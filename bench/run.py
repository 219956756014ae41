"""Closed-loop benchmark of convcompress: one caller, one op at a time.

Usage, from the repository root:

    python3 bench/run.py --workload {datafree,dataopt,forward} --seed N \
        --seconds S --trace {0,1}

Set-up builds a seeded 4-layer model and every input with the benchmark's
own numpy code.  The run then repeats whole passes over the workload's ops
until ``--seconds`` have elapsed (at least two passes) and checks every
op's output.  The first pass warms up and is not timed into the figures;
``pass_s`` sums each op's median latency over the timed passes and scales
the sum by a speed probe (see ``Probe``).  The last stdout line is one
JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  A traced run
alternates plain and traced passes so the tracing overhead is measured.
Full results go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-up runs in blocks of at least SETUP_BLOCK_SECONDS, one before the
#: timed loop and then, between passes, one each time another
#: 1/SETUP_BLOCKS of the run has passed, so the blocks sample the whole run
#: as the passes do.  A block's time is its fastest set-up; ``setup_s`` is
#: the median of the blocks, scaled by the speed probe like ``pass_s``.
SETUP_BLOCKS = 8
SETUP_BLOCK_SECONDS = 0.5
#: The speed probe: PROBE_STEPS small Tucker reconstructions, at most every
#: PROBE_EVERY_S seconds, between ops.  Scaled times read as they would on
#: a machine where the probe's median is PROBE_REF_S; on a 2-vCPU x86-64 VM
#: with numpy 2.4.6 and OpenBLAS 0.3.31 it ran 4.0 to 6.3 ms.
PROBE_STEPS = 20
PROBE_EVERY_S = 0.1
PROBE_REF_S = 4.5e-3
#: BLAS threads, pinned before numpy loads and recorded in every result.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("datafree", "dataopt", "forward"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import convcompress from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "convcompress" / "__init__.py").is_file():
        sys.exit(f"bench: no convcompress sources under {src}")
    sys.path.insert(0, str(src))
    import convcompress
    import convcompress.cli  # noqa: F401  (the package root does not import it)

    if Path(convcompress.__file__).resolve().parent != (src / "convcompress").resolve():
        sys.exit(f"bench: imported convcompress from {convcompress.__file__}, not {src}")
    return convcompress


def environment(np, seed: int, workload: str) -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "workload": workload,
        "seed": seed,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": f"{deps['blas']['name']} {deps['blas'].get('version', '?')}",
        "lapack": f"{deps['lapack']['name']} {deps['lapack'].get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loop": "closed, 1 client",
    }


def setup_block(wl, cc, setup, data, work: Path) -> tuple[float, int, list]:
    """Time the program calls of repeated set-ups: ``(fastest, set-ups, ops)``."""
    times = []
    begin = time.perf_counter()
    while not times or time.perf_counter() - begin < SETUP_BLOCK_SECONDS:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        clock = wl.Clock()
        ops = setup(cc, data, work, clock)
        times.append(clock.seconds)
    return min(times), len(times), ops


def run_op(wl, cc, op, tracer, op_id: int) -> dict:
    """Time one op, then check its output outside the timed region."""
    rec = {"kind": op.kind, "layer": op.layer, "ok": False, "scored": op.scored}
    if op.out is not None:  # every pass writes afresh; a check never reads a stale output
        shutil.rmtree(op.out, ignore_errors=True)
    if tracer is not None:
        tracer.begin_op(op_id)
    start = time.perf_counter()
    try:
        result = wl.cli_call(cc, op.argv) if op.argv is not None else op.call()
    except Exception as exc:  # the program raised instead of returning
        rec["seconds"] = time.perf_counter() - start
        rec["error"] = f"raised {type(exc).__name__}: {exc}"
        return rec
    finally:
        if tracer is not None:
            tracer.end_op()
    rec["seconds"] = time.perf_counter() - start
    if op.argv is not None:
        code, stdout, stderr = result
        if code != 0:
            rec["error"] = f"exit {code}: {stderr.strip()}"
            return rec
        try:
            result = json.loads(stdout)
        except json.JSONDecodeError:
            rec["error"] = "check: report is not JSON"
            rec["wrong"] = True
            return rec
    try:
        rec.update(op.check(result))
    except Exception as exc:  # any failed check marks the op, the run goes on
        rec["error"] = f"check: {type(exc).__name__}: {exc}"
        rec["wrong"] = True
        return rec
    rec["ok"] = True
    return rec


def run_pass(wl, cc, ops, tracer, first_id: int, probe, tally) -> None:
    for i, op in enumerate(ops):
        probe.maybe()
        tally.add(i, run_op(wl, cc, op, tracer, first_id + i))
    tally.passes += 1


class Tally:
    """Latencies and counts of a set of passes.

    Only each op's latencies are kept, not its records: a ``forward`` run
    makes tens of thousands of ops, and keeping them all would make peak
    memory grow with the program's speed.
    """

    def __init__(self, ops):
        self.ops = ops
        self.passes = 0
        self.seconds = [[] for _ in ops]
        self.kinds = defaultdict(
            lambda: {"ops": 0, "failed": 0, "mismatch": 0, "rel_sum": 0.0, "rel_n": 0, "errors": Counter()}
        )
        self.wrong = False
        self.scored_sum, self.scored_n = 0.0, 0
        self.deviation = None

    def add(self, i: int, rec: dict) -> None:
        self.seconds[i].append(rec["seconds"])
        k = self.kinds[rec["kind"]]
        k["ops"] += 1
        k["mismatch"] += bool(rec.get("mismatch"))
        if "rel_error" in rec:
            k["rel_sum"] += rec["rel_error"]
            k["rel_n"] += 1
        if not rec["ok"]:
            k["failed"] += 1
            k["errors"][rec["error"]] += 1
        self.wrong |= bool(rec.get("wrong"))
        if rec["scored"]:  # a failed op scores 1.0, the error of no output
            self.scored_sum += rec["rel_error"] if rec["ok"] else 1.0
            self.scored_n += 1
        if "deviation" in rec:
            self.deviation = max(rec["deviation"], self.deviation or 0.0)

    def count(self, field: str) -> int:
        return sum(k[field] for k in self.kinds.values())

    def pass_seconds(self) -> float:
        """Wall time of one pass: the sum over its ops of each op's median latency."""
        return sum(statistics.median(s) for s in self.seconds)

    def summary(self) -> dict:
        """Per op kind: counts, median latency, mean error and failure messages."""
        out = {}
        for name, k in sorted(self.kinds.items()):
            seconds = [t for op, s in zip(self.ops, self.seconds) if op.kind == name for t in s]
            out[name] = {
                "ops": k["ops"],
                "failed": k["failed"],
                "report_mismatch": k["mismatch"],
                "median_ms": 1e3 * statistics.median(seconds),
                "ok_rel_error": k["rel_sum"] / k["rel_n"] if k["rel_n"] else None,
                "errors": dict(k["errors"]),
            }
        return out


class Probe:
    """Times a fixed piece of the benchmark's own work at intervals.

    The probe is the program's kind of work, small numpy contractions and
    norms driven from Python plus a little JSON, but no program code, so
    no change to the program moves it.  Samples are spread evenly over the
    run, so their median measures how fast the shared machine ran such
    work while the run's ops were timed.
    """

    def __init__(self, np):
        self.np = np
        rng = np.random.default_rng(0)
        self.core = rng.normal(size=(3, 3, 8, 8))
        self.u1, self.u2 = rng.normal(size=(16, 8)), rng.normal(size=(16, 8))
        self.samples: list[float] = []
        self._last = -float("inf")

    def maybe(self) -> None:
        if time.perf_counter() - self._last < PROBE_EVERY_S:
            return
        np = self.np
        start = time.perf_counter()
        for _ in range(PROBE_STEPS):
            dense = np.einsum("xyab,sa,tb->tsxy", self.core, self.u1, self.u2)
            json.dumps({"norm": float(np.linalg.norm(dense)), "shape": dense.shape})
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def speed(self) -> float:
        """PROBE_REF_S over the probe's median time: > 1 on a faster machine."""
        return PROBE_REF_S / statistics.median(self.samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    cc = import_program()
    import numpy as np

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans as tr
    import workloads as wl

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs, setup = wl.WORKLOADS[args.workload]
        data = inputs(args.seed)
        fastest, setup_count, ops = setup_block(wl, cc, setup, data, work)
        setup_blocks = [fastest]

        tracer = tr.Tracer() if args.trace else None
        probe = Probe(np)
        warm, timed, traced = Tally(ops), Tally(ops), Tally(ops)
        next_id = 0
        begin = time.perf_counter()
        while timed.passes < 1 or time.perf_counter() - begin < args.seconds:
            # the first pass warms up
            run_pass(wl, cc, ops, None, next_id, probe, timed if warm.passes else warm)
            next_id += len(ops)
            if tracer is not None:
                tracer.install()
                try:
                    run_pass(wl, cc, ops, tracer, next_id, probe, traced)
                finally:
                    tracer.uninstall()
                next_id += len(ops)
            if time.perf_counter() - begin >= len(setup_blocks) * args.seconds / SETUP_BLOCKS:
                # the passes' outputs go with the old work directory; every pass writes afresh
                fastest, count, _ = setup_block(wl, cc, setup, data, work)
                setup_blocks.append(fastest)
                setup_count += count
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tallies = (warm, timed, traced)
    attempted = sum(t.count("ops") for t in tallies)
    failed = sum(t.count("failed") for t in tallies)
    correct = not any(t.wrong for t in tallies)
    end_to_end = {
        "pass_s": (timed.pass_seconds() * probe.speed(), "s"),
        "rel_error": (timed.scored_sum / timed.scored_n, "frac"),
        "setup_s": (statistics.median(setup_blocks) * probe.speed(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    op_samples = timed.count("ops")
    result = {
        "env": environment(np, args.seed, args.workload),
        "seconds": args.seconds,
        "passes": timed.passes,
        "ops_per_pass": len(ops),
        "op_samples": op_samples,
        "op_p50_ms": 1e3 * statistics.median(t for s in timed.seconds for t in s),
        "fail_frac": timed.count("failed") / op_samples,
        "setup_count": setup_count,
        "setup_s_blocks": setup_blocks,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "kinds": timed.summary(),
        "pass_wall_s": timed.pass_seconds(),
        "setup_wall_s": statistics.median(setup_blocks),
        "probe": {"count": len(probe.samples), "median_s": statistics.median(probe.samples),
                  "speed": probe.speed()},
        "op_median_ms": {f"{op.kind}@{op.layer}": 1e3 * statistics.median(s) for op, s in zip(ops, timed.seconds)},
    }
    if timed.deviation is not None:
        result["max_forward_deviation"] = timed.deviation

    if tracer is not None:
        layer = tr.layer_metrics(tracer.spans, traced.passes)
        layer["cli.report_mismatch"] = traced.count("mismatch") / traced.passes
        layer["trace.overhead_frac"] = traced.pass_seconds() / timed.pass_seconds() - 1
        result["per_layer"] = layer
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = {name: {"value": value, "unit": tr.unit_of(name)} for name, value in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(json.dumps(result["env"], sort_keys=True))
    for name, k in result["kinds"].items():
        line = (
            f"{name:28s} ops={k['ops']:4d} failed={k['failed']:3d}"
            f" mismatch={k['report_mismatch']:3d} median={k['median_ms']:.2f}ms"
        )
        print(line + "".join(f"\n    {n}x {msg}" for msg, n in k["errors"].items()))
    print(
        f"passes={timed.passes} op_samples={op_samples} op_p50_ms={result['op_p50_ms']:.6g}"
        f" fail_frac={result['fail_frac']:.4f} pass_wall_s={result['pass_wall_s']:.6g}"
        f" probe_speed={result['probe']['speed']:.4f}"
    )
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
