"""CLI surface: subcommand flows, exit codes, report fields, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convcompress
from convcompress.cli import cli_dispatch
from convcompress.container import (
    Container,
    add_acc_tables,
    add_batch,
    add_kernel,
    add_sv_tables,
    read_container,
    read_kernel,
    read_layer,
    write_container,
)
from convcompress.dataopt import PatchBatch, sample_patches
from convcompress.kernel import Kernel4D, conv_direct, mac_cost, matricize_spatial
from convcompress.rankselect import AccTable, GridCosts


@pytest.fixture
def model_dir(tmp_path):
    rng = np.random.default_rng(11)
    kernel = Kernel4D(rng.normal(size=(6, 4, 3, 3)))
    c = Container()
    add_kernel(c, "conv1", kernel, h=8, w=8)
    path = tmp_path / "model"
    write_container(c, path)
    return path, kernel


@pytest.fixture
def batch_dir(tmp_path, model_dir):
    _, kernel = model_dir
    rng = np.random.default_rng(12)
    maps = []
    for _ in range(25):
        x = rng.normal(size=(kernel.s, 6, 6))
        maps.append((x, conv_direct(kernel, x)))
    batch = sample_patches(maps, per_image=8, k=kernel.k, seed=3)
    c = Container()
    add_batch(c, "batch", batch)
    path = tmp_path / "batch"
    write_container(c, path)
    return path


def run(capsys, *argv):
    code = cli_dispatch([str(a) for a in argv])
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


class TestUsageErrors:
    def test_no_arguments_exits_2(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert "usage" in err

    def test_unknown_flag_named(self, capsys, model_dir, tmp_path):
        path, _ = model_dir
        code, _, err = run(
            capsys, "compress", path, "--layer", "conv1", "--method", "cp",
            "--rank", "2", "--out", tmp_path / "o", "--frobnicate",
        )
        assert code == 2
        assert "--frobnicate" in err

    def test_rank_and_ratio_mutually_exclusive(self, capsys, model_dir, tmp_path):
        path, _ = model_dir
        code, _, err = run(
            capsys, "compress", path, "--layer", "conv1", "--method", "cp",
            "--rank", "2", "--ratio", "0.5", "--out", tmp_path / "o",
        )
        assert code == 2
        assert "exactly one" in err

    def test_computation_error_exits_1(self, capsys, model_dir, tmp_path):
        path, _ = model_dir
        code, _, err = run(
            capsys, "compress", path, "--layer", "conv1", "--method", "tucker",
            "--rank", "99,99", "--out", tmp_path / "o",
        )
        assert code == 1
        assert "rank" in err

    def test_missing_container_exits_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "compress", tmp_path / "nope", "--layer", "x", "--method", "cp",
            "--rank", "1", "--out", tmp_path / "o",
        )
        assert code == 1
        assert "bad_manifest" in err


class TestCompressReconstruct:
    def test_spatial_rank4_reconstruct_error_is_sv_tail(self, capsys, model_dir, tmp_path):
        path, kernel = model_dir
        code, rep, _ = run(
            capsys, "compress", path, "--layer", "conv1", "--method", "spatial-svd",
            "--rank", "4", "--out", tmp_path / "comp",
        )
        assert code == 0
        sv = np.linalg.svd(matricize_spatial(kernel), compute_uv=False)
        want = float(np.sqrt(np.sum(sv[4:] ** 2)) / np.linalg.norm(kernel.data))
        assert rep["recon_error"] == pytest.approx(want, rel=1e-6)

        code, rep2, _ = run(
            capsys, "reconstruct", tmp_path / "comp", "--layer", "conv1",
            "--out", tmp_path / "rec",
        )
        assert code == 0
        assert rep2["recon_error"] == pytest.approx(want, rel=1e-4)  # via f32 storage

    def test_ratio_flag_derives_ranks(self, capsys, model_dir, tmp_path):
        path, _ = model_dir
        code, rep, _ = run(
            capsys, "compress", path, "--layer", "conv1", "--method", "tucker",
            "--ratio", "0.6", "--out", tmp_path / "comp",
        )
        assert code == 0
        assert rep["retained"] <= 0.6
        assert len(rep["ranks"]) == 2

    def test_tt_ratio_derives_ranks_tt_svd_accepts(self, capsys, model_dir, tmp_path):
        path, kernel = model_dir  # t=6, s=4: the chained bond bounds bind
        code, rep, err = run(
            capsys, "compress", path, "--layer", "conv1", "--method", "tt",
            "--ratio", "0.5", "--out", tmp_path / "comp",
        )
        assert code == 0, err
        assert rep["retained"] <= 0.5
        r1, r2, r3 = rep["ranks"]
        assert r2 <= r1 * kernel.k and r3 <= r2 * kernel.k
        assert read_layer(read_container(tmp_path / "comp"), "conv1").ranks == (r1, r2, r3)

    def test_report_macs_match_cost_model(self, capsys, model_dir, tmp_path):
        path, kernel = model_dir
        run(
            capsys, "compress", path, "--layer", "conv1", "--method", "weight-svd",
            "--rank", "3", "--out", tmp_path / "comp",
        )
        code, rep, _ = run(capsys, "report", tmp_path / "comp")
        assert code == 0
        by_kind = {e["kind"]: e for e in rep["entries"]}
        h = w = 8
        assert by_kind["kernel"]["macs"] == 9 * kernel.s * kernel.t * h * w
        want = (9 * kernel.s + kernel.t) * 3 * h * w
        assert by_kind["layer"]["macs_after"] == want


class TestDataoptCli:
    @pytest.mark.parametrize("mode,rank", [("data-svd", "3"), ("asym", "3"), ("relu-asym", "3"), ("asym3d", "5,4")])
    def test_modes_produce_layers(self, capsys, model_dir, batch_dir, tmp_path, mode, rank):
        path, _ = model_dir
        code, rep, _ = run(
            capsys, "dataopt", path, "--layer", "conv1", "--mode", mode,
            "--batch", batch_dir, "--rank", rank, "--out", tmp_path / f"d-{mode}",
        )
        assert code == 0
        assert "residual" in rep
        assert (tmp_path / f"d-{mode}" / "manifest.json").exists()

    def test_spatial_refine_flow(self, capsys, model_dir, batch_dir, tmp_path):
        path, kernel = model_dir
        run(
            capsys, "compress", path, "--layer", "conv1", "--method", "spatial-svd",
            "--rank", "5", "--out", tmp_path / "sp",
        )
        code, rep, _ = run(
            capsys, "dataopt", tmp_path / "sp", "--layer", "conv1",
            "--mode", "spatial-refine", "--batch", batch_dir, "--out", tmp_path / "spr",
        )
        assert code == 0
        assert rep["method"] == "spatial_svd"
        out = read_container(tmp_path / "spr")
        _, kmeta = read_kernel(out, "conv1")
        h, w = kmeta["h"], kmeta["w"]
        assert (h, w) == (8, 8)
        layer = read_layer(out, "conv1/decomposed")
        assert rep["macs_before"] == mac_cost(kernel.s, kernel.t, kernel.k, h, w, "original").macs_original
        assert rep["macs_after"] == layer.macs(h, w)
        code, stored, _ = run(capsys, "report", tmp_path / "spr")
        assert code == 0
        (item,) = [e for e in stored["entries"] if e["name"] == "conv1/decomposed"]
        assert item["macs_before"] == rep["macs_before"]
        assert item["macs_after"] == rep["macs_after"]


class TestPruneCli:
    def test_magnitude(self, capsys, model_dir, tmp_path):
        path, kernel = model_dir
        code, rep, _ = run(
            capsys, "prune", path, "--layer", "conv1", "--keep", "3",
            "--mode", "magnitude", "--out", tmp_path / "p",
        )
        assert code == 0
        assert len(rep["kept"]) == 3
        pruned, _ = read_kernel(read_container(tmp_path / "p"), "conv1/pruned")
        assert pruned.s == 3

    def test_lasso_needs_batch(self, capsys, model_dir, tmp_path):
        path, _ = model_dir
        code, _, err = run(
            capsys, "prune", path, "--layer", "conv1", "--keep", "2", "--out", tmp_path / "p",
        )
        assert code == 2
        assert "--batch" in err

    def test_lasso_flow(self, capsys, model_dir, batch_dir, tmp_path):
        path, _ = model_dir
        code, rep, _ = run(
            capsys, "prune", path, "--layer", "conv1", "--keep", "3",
            "--batch", batch_dir, "--out", tmp_path / "p",
        )
        assert code == 0
        assert len(rep["kept"]) <= 3
        assert rep["ratio"] == pytest.approx(1 - len(rep["kept"]) / 4)

    def test_lasso_with_bias_reports_true_residual_and_diagnostics(self, capsys, tmp_path):
        rng = np.random.default_rng(13)
        kernel = Kernel4D(rng.normal(size=(6, 5, 3, 3)), bias=rng.normal(scale=5.0, size=6))
        model = Container()
        add_kernel(model, "conv1", kernel, h=8, w=8)
        write_container(model, tmp_path / "model")
        x = rng.normal(size=(200, 5 * 9)) + 0.5
        y = x @ kernel.data.reshape(6, -1).T + kernel.bias
        batch = Container()
        add_batch(batch, "batch", PatchBatch(inputs=x, ref_outputs=y))
        write_container(batch, tmp_path / "batch")
        code, rep, _ = run(
            capsys, "prune", tmp_path / "model", "--layer", "conv1", "--keep", "4",
            "--batch", tmp_path / "batch", "--out", tmp_path / "p",
        )
        assert code == 0
        pruned, _ = read_kernel(read_container(tmp_path / "p"), "conv1/pruned")
        kept_x = x.reshape(200, 5, 9)[:, rep["kept"]].reshape(200, -1)
        # stored as float32, so the stored layer's error matches to float32 rounding
        err = np.linalg.norm(y - kept_x @ pruned.data.reshape(6, -1).T - pruned.bias)
        assert rep["residual"] == pytest.approx(err, rel=1e-4)
        assert rep["macs_after"] == mac_cost(4, 6, 3, 8, 8, "original").macs_original
        diag = rep["diagnostics"]
        assert set(diag) == {"lambda", "solves", "sweeps", "converged"}
        assert diag["converged"] is True and diag["solves"] >= 1 and diag["sweeps"] >= diag["solves"]


class TestGatesCli:
    def test_train_and_store(self, capsys, tmp_path):
        code, rep, _ = run(
            capsys, "gates", "--kind", "vib", "--lambda", "0.02", "--steps", "800",
            "--threshold", "0.05", "--seed", "1", "--out", tmp_path / "g",
        )
        assert code == 0
        assert len(rep["criteria"]) == 8
        assert rep["kept"] == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--steps", "0"], "steps must be at least 1"),
            (["--features", "3", "--informative", "5"], "n_informative <= n_features"),
            (["--informative", "0"], "n_informative <= n_features"),
            (["--threshold", "-1"], "threshold must be positive"),
            (["--lr", "-1"], "lr must be finite and positive"),
            (["--lr", "nan"], "lr must be finite and positive"),
            (["--lambda", "-0.5"], "lambda_reg must be finite and nonnegative"),
            (["--lambda", "nan"], "lambda_reg must be finite and nonnegative"),
        ],
        ids=["steps-0", "informative-over-features", "informative-0", "threshold-negative",
             "lr-negative", "lr-nan", "lambda-negative", "lambda-nan"],
    )
    def test_bad_arguments_fail_and_write_nothing(self, capsys, tmp_path, argv, message):
        code, _, err = run(
            capsys, "gates", "--kind", "l0", "--lambda", "0.05", "--steps", "50",
            *argv, "--out", tmp_path / "g",
        )
        assert code == 1
        assert message in json.loads(err)["error"]
        assert not (tmp_path / "g").exists()


class TestRankSelectCli:
    def test_both_strategies(self, capsys, tmp_path):
        tables = [
            AccTable(accuracies={(1,): 0.6, (2,): 0.8, (3,): 0.9}, p_orig=0.9)
            for _ in range(2)
        ]
        costs = [GridCosts(macs={(1,): 100, (2,): 200, (3,): 300}, macs_original=400)] * 2
        c = Container()
        add_acc_tables(c, "acc", tables, costs)
        add_sv_tables(c, "sv", [np.array([3.0, 2.0, 1.0]), np.array([5.0, 1.0, 0.5])], costs)
        write_container(c, tmp_path / "tables")

        code, rep, _ = run(
            capsys, "rank-select", "--strategy", "equal-acc", "--ratio", "0.7",
            "--acc-table", tmp_path / "tables", "--out", tmp_path / "plan1",
        )
        assert code == 0
        assert rep["retained"] <= 0.7

        code, rep2, _ = run(
            capsys, "rank-select", "--strategy", "greedy-energy", "--ratio", "0.7",
            "--sv-table", tmp_path / "tables", "--out", tmp_path / "plan2",
        )
        assert code == 0
        assert rep2["retained"] <= 0.7

    def test_strategy_table_mismatch(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "rank-select", "--strategy", "equal-acc", "--ratio", "0.5",
            "--out", tmp_path / "p",
        )
        assert code == 2
        assert "--acc-table" in err


class TestParserReuse:
    """cli_dispatch builds its parser once per process; no call may see
    another call's arguments or state."""

    def test_omitted_flag_takes_its_default_after_a_call_that_set_it(
        self, capsys, model_dir, tmp_path
    ):
        """A compress without --seed right after one with --seed 5 runs
        with seed 0: it writes what an explicit --seed 0 writes."""
        path, _ = model_dir
        common = ["compress", path, "--layer", "conv1", "--method", "cp", "--rank", "2"]
        for out, seed in (("seed5", ["--seed", "5"]), ("default", []), ("seed0", ["--seed", "0"])):
            assert run(capsys, *common, *seed, "--out", tmp_path / out)[0] == 0
        blob = {out: (tmp_path / out / "blob.bin").read_bytes()
                for out in ("seed5", "default", "seed0")}
        assert blob["default"] == blob["seed0"]
        assert blob["default"] != blob["seed5"]

    def test_valid_call_after_a_usage_error(self, capsys, model_dir, tmp_path):
        path, _ = model_dir
        code, _, _ = run(capsys, "compress", path, "--method", "nope", "--out", tmp_path / "o")
        assert code == 2
        code, rep, _ = run(capsys, "report", path)
        assert code == 0
        assert rep["entries"][0]["name"] == "conv1"


_RERUN = """
import json, sys
from convcompress.cli import cli_dispatch
for argv in json.loads(sys.argv[1]):
    if cli_dispatch(argv) != 0:
        sys.exit(f"pipeline failed: {argv}")
"""


def _write_batch(path, kernel, n, rng):
    x = rng.normal(size=(n, kernel.s * kernel.k * kernel.k))
    batch = PatchBatch(
        inputs=x + 0.1 * rng.normal(size=x.shape),
        ref_outputs=x @ kernel.as_matrix().T + kernel.bias,
    )
    c = Container()
    add_batch(c, "batch", batch)
    write_container(c, path)
    return str(path)


class TestDeterminism:
    def test_identical_seed_gives_byte_identical_outputs(self, capsys, model_dir, tmp_path):
        path, _ = model_dir
        for out in ("r1", "r2"):
            code, _, _ = run(
                capsys, "compress", path, "--layer", "conv1", "--method", "cp",
                "--rank", "4", "--seed", "9", "--out", tmp_path / out,
            )
            assert code == 0
        for fname in ("manifest.json", "blob.bin"):
            a = (tmp_path / "r1" / fname).read_bytes()
            b = (tmp_path / "r2" / fname).read_bytes()
            assert a == b

    def test_in_process_reruns_are_byte_identical(self, capsys, model_dir, tmp_path):
        """Each subcommand run twice in one process, with the other runs in
        between, writes the same bytes both times."""
        path, _ = model_dir
        pipelines = {
            "tt": ["compress", path, "--layer", "conv1", "--method", "tt", "--rank", "2,2,3"],
            "spatial": ["compress", path, "--layer", "conv1", "--method", "spatial-svd",
                        "--ratio", "0.5"],
            "gates-l0": ["gates", "--kind", "l0", "--lambda", "0.05", "--steps", "200"],
            "gates-vib": ["gates", "--kind", "vib", "--lambda", "0.05", "--steps", "200",
                          "--seed", "3"],
        }
        for run_id in ("a", "b"):
            for name, argv in pipelines.items():
                assert run(capsys, *argv, "--out", tmp_path / f"{name}-{run_id}")[0] == 0
        for name in pipelines:
            for fname in ("manifest.json", "blob.bin"):
                a = (tmp_path / f"{name}-a" / fname).read_bytes()
                assert a == (tmp_path / f"{name}-b" / fname).read_bytes(), (name, fname)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_reruns_in_fresh_processes_are_byte_identical(self, tmp_path, threads):
        """Same inputs, same numpy/BLAS build and same BLAS thread count give
        byte-identical containers across processes.  The 64 x 64 layer makes
        the asym regression large enough for BLAS to split it across threads
        (with OpenBLAS its container differs between 1 and 2 threads)."""
        rng = np.random.default_rng(2020)
        kernels = {
            "wide": Kernel4D(rng.normal(size=(64, 64, 3, 3)), bias=rng.normal(size=64)),
            "thin": Kernel4D(rng.normal(size=(64, 8, 3, 3)), bias=rng.normal(size=64)),
            "narrow": Kernel4D(rng.normal(size=(16, 16, 3, 3))),
        }
        model = Container()
        for name, kernel in kernels.items():
            add_kernel(model, name, kernel, h=16, w=16)
        model_dir = str(tmp_path / "model")
        write_container(model, model_dir)
        wide_batch = _write_batch(tmp_path / "wide-batch", kernels["wide"], 500, rng)
        thin_batch = _write_batch(tmp_path / "thin-batch", kernels["thin"], 400, rng)

        pipelines = {
            "tucker": ["compress", model_dir, "--layer", "narrow", "--method", "tucker",
                       "--rank", "8,8"],
            "asym": ["dataopt", model_dir, "--layer", "wide", "--mode", "asym",
                     "--batch", wide_batch, "--rank", "24"],
            "prune": ["prune", model_dir, "--layer", "thin", "--keep", "4", "--batch", thin_batch],
            "gates-l0": ["gates", "--kind", "l0", "--lambda", "0.05", "--steps", "300"],
            "gates-vib": ["gates", "--kind", "vib", "--lambda", "0.05", "--steps", "300"],
        }
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        src = str(Path(convcompress.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for run_id in ("a", "b"):
            argvs = [argv + ["--out", str(tmp_path / f"{name}-{run_id}")]
                     for name, argv in pipelines.items()]
            subprocess.run([sys.executable, "-c", _RERUN, json.dumps(argvs)], env=env,
                           check=True, capture_output=True, timeout=120)
        for name in pipelines:
            for fname in ("manifest.json", "blob.bin"):
                a = (tmp_path / f"{name}-a" / fname).read_bytes()
                b = (tmp_path / f"{name}-b" / fname).read_bytes()
                assert a == b, f"{name}/{fname} differs between processes at {threads} threads"
