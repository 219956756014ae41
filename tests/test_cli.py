"""CLI surface: subcommand flows, exit codes, report fields, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import convcompress
from convcompress import cli, linalg
from convcompress.cli import cli_dispatch
from convcompress.container import (
    Container,
    ContainerError,
    add_acc_tables,
    add_batch,
    add_gates,
    add_kernel,
    add_layer,
    add_plan,
    add_sv_tables,
    read_batch,
    read_container,
    read_kernel,
    read_layer,
    write_container,
)
from convcompress.dataopt import (
    PatchBatch,
    asym_data_svd,
    attach_current_outputs,
    data_svd,
    refined_layer,
    relu_asym,
    sample_patches,
)
from convcompress.decomp import cp_als, reconstruct, tucker_hooi, weight_svd
from convcompress.gates import GateVector, HardConcreteGate
from convcompress.kernel import Kernel4D, conv_direct, mac_cost, matricize_spatial
from convcompress.rankselect import AccTable, GridCosts, RankPlan


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

    @pytest.mark.parametrize(
        "argv,flag",
        [(["dataopt", "{spatial}", "--mode", "spatial-refine", "--batch", "{batch}",
           "--rank", "3"], "--rank"),
         (["prune", "{model}", "--mode", "magnitude", "--keep", "2", "--batch", "{batch}"],
          "--batch")],
        ids=["spatial-refine-rank", "magnitude-batch"],
    )
    def test_flag_the_mode_ignores_is_a_usage_error(
        self, capsys, model_dir, batch_dir, tmp_path, argv, flag
    ):
        path, _ = model_dir
        code, _, _ = run(capsys, "compress", path, "--layer", "conv1", "--method", "spatial-svd",
                         "--rank", "5", "--out", tmp_path / "sp")
        assert code == 0
        dirs = {"model": path, "spatial": tmp_path / "sp", "batch": batch_dir}
        command, *flags = [a.format(**dirs) for a in argv]
        code, out, err = run(capsys, command, *flags, "--layer", "conv1", "--out", tmp_path / "o")
        assert code == 2 and out is None
        assert f"takes no {flag}" in err
        assert not (tmp_path / "o").exists()

    def test_computation_error_exits_1(self, capsys, model_dir, tmp_path):
        path, _ = model_dir
        code, _, err = run(
            capsys, "compress", path, "--layer", "conv1", "--method", "tucker",
            "--rank", "99,99", "--out", tmp_path / "o",
        )
        assert code == 1
        assert "rank" in err

    @pytest.mark.parametrize(
        "argv, method, ranks",
        [(["compress", "--method", "tucker", "--rank", "9,1"], "tucker", (9, 1)),
         (["dataopt", "--mode", "asym3d", "--rank", "5,7"], "asym3d", (5, 7)),
         (["compress", "--method", "tt", "--rank", "4,13,2"], "tt", (4, 13, 2))],
        ids=["tucker", "asym3d", "tt"],
    )
    def test_rank_beyond_its_limit_exits_1_with_the_cost_model_message(
        self, capsys, model_dir, batch_dir, tmp_path, argv, method, ranks
    ):
        path, kernel = model_dir
        command, *flags = argv
        if command == "dataopt":
            flags += ["--batch", batch_dir]
        code, out, err = run(capsys, command, path, "--layer", "conv1", *flags,
                             "--out", tmp_path / "o")
        assert code == 1 and out is None
        with pytest.raises(ValueError) as want:
            mac_cost(kernel.s, kernel.t, kernel.k, 1, 1, method, ranks)
        assert json.loads(err)["error"] == str(want.value)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv,names",
        [
            (["compress", "--method", "weight-svd", "--rank", "3,4"], "r"),
            (["compress", "--method", "tucker", "--rank", "3"], "r1,r2"),
            (["compress", "--method", "tt", "--rank", "3,4"], "r1,r2,r3"),
            (["dataopt", "--mode", "asym", "--rank", "3,4"], "r"),
        ],
        ids=["weight-svd", "tucker", "tt", "dataopt-asym"],
    )
    def test_wrong_rank_count_is_a_usage_error(
        self, capsys, model_dir, batch_dir, tmp_path, argv, names
    ):
        path, _ = model_dir
        command, *flags = argv
        if command == "dataopt":
            flags += ["--batch", batch_dir]
        code, _, err = run(
            capsys, command, path, "--layer", "conv1", *flags, "--out", tmp_path / "o"
        )
        assert code == 2
        assert f"takes --rank {names}," in err
        assert not (tmp_path / "o").exists()

    def test_unparsable_rank_exits_1(self, capsys, model_dir, tmp_path):
        path, _ = model_dir
        code, out, err = run(
            capsys, "compress", path, "--layer", "conv1", "--method", "tucker",
            "--rank", "2,x", "--out", tmp_path / "o",
        )
        assert code == 1 and out is None
        assert "cannot parse ranks" in json.loads(err)["error"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [["compress", "{model}", "--layer", "conv1", "--method", "cp", "--rank", "2"],
         ["gates", "--lambda", "0.05", "--steps", "10"]],
        ids=["compress", "gates"],
    )
    def test_negative_seed_is_a_usage_error(self, capsys, model_dir, tmp_path, argv):
        """numpy's generators take no negative seed: ``--seed`` refuses one
        before the command runs, naming the flag."""
        argv = [a.format(model=model_dir[0]) for a in argv]
        code, out, err = run(capsys, *argv, "--seed", "-1", "--out", tmp_path / "o")
        assert code == 2 and out is None
        assert "argument --seed: must be an integer >= 0, got '-1'" in err
        assert not (tmp_path / "o").exists()

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
        assert read_layer(read_container(tmp_path / "comp"), "conv1/decomposed").ranks == (r1, r2, r3)

    def test_reconstruct_keeps_the_map_size(self, capsys, tmp_path):
        """compress -> reconstruct -> prune counts MACs at the stored map
        size, as the original container does."""
        model = Container()
        kernel = Kernel4D(np.random.default_rng(15).normal(size=(16, 8, 3, 3)))
        add_kernel(model, "conv1", kernel, h=32, w=32)
        write_container(model, tmp_path / "model")
        steps = [
            ["compress", tmp_path / "model", "--method", "weight-svd", "--rank", "4"],
            ["reconstruct", tmp_path / "comp"],
            ["prune", tmp_path / "recon", "--keep", "4", "--mode", "magnitude"],
        ]
        for argv, out in zip(steps, ("comp", "recon", "pruned")):
            code, rep, _ = run(capsys, *argv, "--layer", "conv1", "--out", tmp_path / out)
            assert code == 0
        code, original, _ = run(capsys, "report", tmp_path / "model")
        assert rep["macs_before"] == original["entries"][0]["macs"] == 16 * 8 * 9 * 32 * 32

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


class TestSweepDiagnosticsCli:
    """``compress --method cp|tucker`` and ``report`` print the solver's sweep
    diagnostics as the library reports them; other layers print none."""

    KEYS = ("iterations", "rel_error", "converged")
    SOLVES = {"cp": (("--rank", "3", "--seed", "4"), lambda kernel: cp_als(kernel, 3, seed=4)),
              "tucker": (("--rank", "2,3"), lambda kernel: tucker_hooi(kernel, 2, 3))}

    @pytest.mark.parametrize("method", sorted(SOLVES))
    def test_reports_equal_the_library_meta(self, capsys, model_dir, tmp_path, method):
        path, _ = model_dir
        flags, solve = self.SOLVES[method]
        kernel, _ = read_kernel(read_container(path), "conv1")  # the float32 values as read
        want = {key: solve(kernel).meta[key] for key in self.KEYS}
        for out in ("a", "b"):
            code, rep, _ = run(capsys, "compress", path, "--layer", "conv1", "--method", method,
                               *flags, "--out", tmp_path / out)
            assert code == 0 and rep["diagnostics"] == want
        code, rep, _ = run(capsys, "report", tmp_path / "a")
        (layer,) = [e for e in rep["entries"] if e["kind"] == "layer"]
        assert code == 0 and layer["diagnostics"] == want
        for fname in ("manifest.json", "blob.bin"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    @pytest.mark.parametrize("method, rank", [("weight-svd", "3"), ("spatial-svd", "4"),
                                              ("tt", "2,3,2")])
    def test_other_layers_store_none(self, capsys, model_dir, tmp_path, method, rank):
        path, _ = model_dir
        code, rep, _ = run(capsys, "compress", path, "--layer", "conv1", "--method", method,
                           "--rank", rank, "--out", tmp_path / "c")
        assert code == 0 and "diagnostics" not in rep
        code, rep, _ = run(capsys, "report", tmp_path / "c")
        assert code == 0 and all("diagnostics" not in e for e in rep["entries"])
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert not any(key in e["metadata"] for e in manifest["entries"] for key in self.KEYS)


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


@pytest.fixture
def biased_dirs(tmp_path):
    """A kernel with a 3-sigma bias, and batches on noisy patches: one
    holding the responses of clean patches, one the layer's own responses,
    and one ("noisy") that also stores current responses off ``W x + b`` by
    0.5-sigma noise, which the CLI does not use."""
    rng = np.random.default_rng(14)
    kernel = Kernel4D(rng.normal(size=(6, 4, 3, 3)), bias=3.0 * rng.normal(size=6))
    model = Container()
    add_kernel(model, "conv1", kernel, h=8, w=8)
    write_container(model, tmp_path / "model")
    x = rng.normal(size=(400, 4 * 9))
    x_hat = x + 0.1 * rng.normal(size=x.shape)
    for name, clean in (("prefixed", x), ("own", x_hat)):
        c = Container()
        y = clean @ kernel.as_matrix().T + kernel.bias
        add_batch(c, "batch", PatchBatch(inputs=x_hat, ref_outputs=y))
        write_container(c, tmp_path / name)
    y, own = (clean @ kernel.as_matrix().T + kernel.bias for clean in (x, x_hat))
    c = Container()
    add_batch(c, "batch", PatchBatch(inputs=x_hat, ref_outputs=y,
                                     cur_outputs=own + 0.5 * rng.normal(size=own.shape)))
    write_container(c, tmp_path / "noisy")
    return tmp_path


class TestDataoptStoredLayer:
    """Every mode stores a layer whose error on the fitting batch is the
    reported residual, for a kernel with a bias (containers hold float32)."""

    @pytest.mark.parametrize(
        "mode,rank,batch",
        [("data-svd", "3", "own"), ("asym", "3", "prefixed"), ("relu-asym", "3", "prefixed"),
         ("asym3d", "5,4", "prefixed"), ("spatial-refine", None, "prefixed"),
         ("asym", "3", "noisy"), ("relu-asym", "3", "noisy")],
    )
    def test_stored_layer_error_is_the_residual(self, capsys, biased_dirs, mode, rank, batch):
        tmp_path = biased_dirs
        model = tmp_path / "model"
        if mode == "spatial-refine":
            assert run(capsys, "compress", model, "--layer", "conv1", "--method", "spatial-svd",
                       "--rank", "5", "--out", tmp_path / "sp")[0] == 0
            model = tmp_path / "sp"
        argv = ["dataopt", model, "--layer", "conv1", "--mode", mode,
                "--batch", tmp_path / batch, "--out", tmp_path / "d"]
        code, rep, _ = run(capsys, *argv, *(["--rank", rank] if rank else []))
        assert code == 0
        stored = reconstruct(read_layer(read_container(tmp_path / "d"), "conv1/decomposed"))
        fitted = read_batch(read_container(tmp_path / batch), "batch")

        def act(a):
            return np.maximum(a, 0.0) if mode == "relu-asym" else a

        out = fitted.inputs @ stored.as_matrix().T + stored.bias
        err = float(np.linalg.norm(act(fitted.ref_outputs) - act(out)))
        assert rep["residual"] == pytest.approx(err, rel=1e-5)

    def test_data_svd_residual_is_a_frobenius_norm(self, capsys, biased_dirs):
        """The root of the summed discarded eigenvalues, in the units of
        every other mode's residual."""
        tmp_path = biased_dirs
        code, rep, _ = run(capsys, "dataopt", tmp_path / "model", "--layer", "conv1",
                           "--mode", "data-svd", "--batch", tmp_path / "own", "--rank", "3",
                           "--out", tmp_path / "d")
        assert code == 0
        kernel, _ = read_kernel(read_container(tmp_path / "model"), "conv1")
        fitted = read_batch(read_container(tmp_path / "own"), "batch")
        assert rep["residual"] == math.sqrt(data_svd(kernel, fitted.ref_outputs, 3).residual)


#: mode -> (library fit(kernel, batch with current outputs, r), batch of biased_dirs)
WEIGHT_SVD_MODES = {
    "data-svd": (lambda kernel, batch, r: data_svd(kernel, batch.ref_outputs, r), "own"),
    "asym": (lambda kernel, batch, r: asym_data_svd(batch, kernel, r), "prefixed"),
    "relu-asym": (lambda kernel, batch, r: relu_asym(batch, kernel, r), "prefixed"),
}


class TestWhatDataoptStores:
    """``dataopt`` writes the kernel it read, with its map size, beside the
    layer it found; the weight-SVD modes store the library fit's own split."""

    @pytest.mark.parametrize("mode", sorted(WEIGHT_SVD_MODES))
    def test_weight_svd_modes_store_the_refined_layer(self, capsys, biased_dirs, mode):
        tmp_path = biased_dirs
        fit, batch = WEIGHT_SVD_MODES[mode]
        code, _, _ = run(capsys, "dataopt", tmp_path / "model", "--layer", "conv1", "--mode", mode,
                         "--batch", tmp_path / batch, "--rank", "3", "--out", tmp_path / "d")
        assert code == 0
        stored = read_layer(read_container(tmp_path / "d"), "conv1/decomposed")
        kernel, _ = read_kernel(read_container(tmp_path / "model"), "conv1")
        fitted = attach_current_outputs(read_batch(read_container(tmp_path / batch), "batch"),
                                        kernel)
        want = refined_layer(fit(kernel, fitted, 3))
        assert list(stored.factors) == ["w1", "w2"]
        for name in ("w1", "w2"):
            assert np.array_equal(stored.factors[name],
                                  want.factors[name].astype(np.float32).astype(np.float64)), name
        assert np.array_equal(stored.bias, want.bias.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize(
        "mode,rank,batch",
        [("data-svd", "3", "own"), ("asym", "3", "prefixed"), ("relu-asym", "3", "prefixed"),
         ("asym3d", "5,4", "prefixed"), ("spatial-refine", None, "prefixed")],
    )
    def test_every_mode_stores_the_kernel(self, capsys, biased_dirs, mode, rank, batch):
        """So ``report`` prices the layer on the 8 x 8 map, as ``dataopt``
        did, and ``reconstruct`` gives a ``recon_error``."""
        tmp_path = biased_dirs
        model = tmp_path / "model"
        if mode == "spatial-refine":
            assert run(capsys, "compress", model, "--layer", "conv1", "--method", "spatial-svd",
                       "--rank", "5", "--out", tmp_path / "sp")[0] == 0
            model = tmp_path / "sp"
        argv = ["dataopt", model, "--layer", "conv1", "--mode", mode,
                "--batch", tmp_path / batch, "--out", tmp_path / "d"]
        code, rep, _ = run(capsys, *argv, *(["--rank", rank] if rank else []))
        assert code == 0
        kernel, kmeta = read_kernel(read_container(tmp_path / "d"), "conv1")
        original, _ = read_kernel(read_container(tmp_path / "model"), "conv1")
        assert (kmeta["h"], kmeta["w"]) == (8, 8)
        assert np.array_equal(kernel.data, original.data)
        assert np.array_equal(kernel.bias, original.bias)
        code, listed, _ = run(capsys, "report", tmp_path / "d")
        assert code == 0
        (item,) = [e for e in listed["entries"] if e["name"] == "conv1/decomposed"]
        assert (item["macs_before"], item["macs_after"]) == (rep["macs_before"], rep["macs_after"])
        code, dense, _ = run(capsys, "reconstruct", tmp_path / "d", "--layer", "conv1",
                             "--out", tmp_path / "r")
        assert code == 0
        assert math.isfinite(dense["recon_error"])

    @pytest.mark.parametrize("mode", sorted(WEIGHT_SVD_MODES))
    def test_rank_beyond_the_weight_svd_limit(self, capsys, tmp_path, mode):
        """On a biased 6x1x1x1 kernel r = 3 exceeds s*k*k = 1: exit 1 with the
        cost table's message, and no ``--out``."""
        rng = np.random.default_rng(18)
        kernel = Kernel4D(rng.normal(size=(6, 1, 1, 1)), bias=rng.normal(size=6))
        c = Container()
        add_kernel(c, "conv1", kernel, h=4, w=4)
        write_container(c, tmp_path / "model")
        x = rng.normal(size=(50, 1))
        c = Container()
        add_batch(c, "batch", PatchBatch(inputs=x, ref_outputs=x @ kernel.as_matrix().T
                                         + kernel.bias + 0.1 * rng.normal(size=(50, 6))))
        write_container(c, tmp_path / "batch")
        code, out, err = run(capsys, "dataopt", tmp_path / "model", "--layer", "conv1",
                             "--mode", mode, "--batch", tmp_path / "batch", "--rank", "3",
                             "--out", tmp_path / "o")
        with pytest.raises(ValueError) as want:
            mac_cost(1, 6, 1, 1, 1, "weight_svd", (3,))
        assert str(want.value) == "weight_svd rank r=3 exceeds 1 at (s, t, k)=(1, 6, 1)"
        assert code == 1 and out is None
        assert json.loads(err)["error"] == str(want.value)
        assert not (tmp_path / "o").exists()


class TestPatchWidth:
    """A batch whose patches are not the kernel's s*k*k inputs fails with
    the library's wording in every command that reads one."""

    @pytest.mark.parametrize(
        "argv",
        [["dataopt", "--mode", "data-svd", "--rank", "3"],
         ["dataopt", "--mode", "asym", "--rank", "3"],
         ["dataopt", "--mode", "relu-asym", "--rank", "3"],
         ["dataopt", "--mode", "asym3d", "--rank", "5,4"],
         ["prune", "--mode", "lasso", "--keep", "2"]],
        ids=["data-svd", "asym", "relu-asym", "asym3d", "prune-lasso"],
    )
    def test_wide_batch_is_rejected(self, capsys, model_dir, tmp_path, argv):
        path, _ = model_dir  # 4 input channels, k = 3: 36-wide patches
        rng = np.random.default_rng(16)
        c = Container()
        add_batch(c, "batch", PatchBatch(inputs=rng.normal(size=(60, 45)),
                                         ref_outputs=rng.normal(size=(60, 6))))
        write_container(c, tmp_path / "wide")
        command, *flags = argv
        code, _, err = run(capsys, command, path, "--layer", "conv1", *flags,
                           "--batch", tmp_path / "wide", "--out", tmp_path / "o")
        assert code == 1
        assert json.loads(err)["error"] == "patch width 45 does not match kernel 36"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "mode,rank,message",
        [("data-svd", "3", "ref_outputs must be (n, 6), got (60, 5)"),
         ("asym", "3", "cur_outputs shape (60, 6) != ref shape (60, 5)"),
         ("relu-asym", "3", "cur_outputs shape (60, 6) != ref shape (60, 5)"),
         ("asym3d", "5,4", "cur_outputs shape (60, 6) != ref shape (60, 5)")],
        ids=["data-svd", "asym", "relu-asym", "asym3d"],
    )
    def test_other_output_count_is_rejected(self, capsys, model_dir, tmp_path, mode, rank,
                                            message):
        # data-svd builds no current responses, so data_svd itself refuses
        path, _ = model_dir  # 6 output channels
        rng = np.random.default_rng(17)
        c = Container()
        add_batch(c, "batch", PatchBatch(inputs=rng.normal(size=(60, 36)),
                                         ref_outputs=rng.normal(size=(60, 5))))
        write_container(c, tmp_path / "five")
        code, _, err = run(capsys, "dataopt", path, "--layer", "conv1", "--mode", mode,
                           "--rank", rank, "--batch", tmp_path / "five", "--out", tmp_path / "o")
        assert code == 1
        assert json.loads(err)["error"] == message
        assert not (tmp_path / "o").exists()


@pytest.fixture
def mismatch_dir(tmp_path, model_dir):
    """A container whose kernel has another shape than the layer stored
    beside it reconstructs."""
    _, kernel = model_dir
    c = Container()
    add_kernel(c, "conv1", Kernel4D(np.ones((6, 5, 3, 3))))
    add_layer(c, "conv1/decomposed", weight_svd(kernel, 2))
    write_container(c, tmp_path / "mismatch")
    return tmp_path / "mismatch"


@pytest.fixture
def tables_dir(tmp_path):
    costs = [GridCosts(macs={(1,): 100, (2,): 200}, macs_original=400)] * 2
    c = Container()
    add_sv_tables(c, "sv", [np.array([3.0, 2.0]), np.array([5.0, 1.0])], costs)
    write_container(c, tmp_path / "tables")
    return tmp_path / "tables"


@pytest.mark.parametrize(
    "argv",
    [["reconstruct", "{mismatch}", "--layer", "conv1"],
     ["compress", "{model}", "--layer", "conv1", "--method", "weight-svd", "--rank", "0"],
     ["dataopt", "{model}", "--layer", "conv1", "--mode", "asym", "--batch", "{batch}",
      "--rank", "0"],
     ["prune", "{model}", "--layer", "conv1", "--mode", "magnitude", "--keep", "0"],
     ["rank-select", "--strategy", "greedy-energy", "--ratio", "0.1", "--sv-table", "{tables}"]],
    ids=["reconstruct-shape-mismatch", "compress-rank-0", "dataopt-rank-0", "prune-keep-0",
         "rank-select-infeasible"],
)
def test_failed_command_writes_nothing(
    capsys, model_dir, batch_dir, mismatch_dir, tables_dir, tmp_path, argv
):
    """The output container is written only after the command succeeded."""
    dirs = {"model": model_dir[0], "batch": batch_dir, "mismatch": mismatch_dir,
            "tables": tables_dir}
    code, out, _ = run(capsys, *(a.format(**dirs) for a in argv), "--out", tmp_path / "o")
    assert code != 0 and out is None
    assert not (tmp_path / "o").exists()


class TestReportOtherEntries:
    def test_batch_gates_and_plan(self, capsys, tmp_path):
        """Patch batches, gate vectors and rank plans are listed with their
        entry kind, name, shape and metadata."""
        rng = np.random.default_rng(15)
        c = Container()
        add_batch(c, "batch", PatchBatch(inputs=rng.normal(size=(10, 36)),
                                         ref_outputs=rng.normal(size=(10, 6)),
                                         cur_outputs=rng.normal(size=(10, 6))))
        add_gates(c, "gates", GateVector([HardConcreteGate(0.5), HardConcreteGate(-1.0)], 0.25))
        add_plan(c, "plan", RankPlan(ranks=((3,), (2, 4)), tau=0.05, achieved_macs=1200,
                                     achieved_ratio=0.4, strategy="equal_acc"))
        write_container(c, tmp_path / "c")
        code, rep, _ = run(capsys, "report", tmp_path / "c")
        assert code == 0
        assert rep["entries"] == [
            {"name": "batch/inputs", "kind": "patchbatch", "shape": [10, 36], "metadata": {}},
            {"name": "batch/ref_outputs", "kind": "patchbatch", "shape": [10, 6], "metadata": {}},
            {"name": "batch/cur_outputs", "kind": "patchbatch", "shape": [10, 6], "metadata": {}},
            {"name": "gates", "kind": "gates", "shape": [2],
             "metadata": {"kind": "l0", "lambda_reg": 0.25}},
            {"name": "plan", "kind": "plan", "shape": [3],
             "metadata": {"role": "rank-plan", "arity": [1, 2], "tau": 0.05, "achieved_macs": 1200,
                          "achieved_ratio": 0.4, "strategy": "equal_acc"}},
        ]

    def test_factor_under_no_layer_is_a_bad_manifest(self, capsys, tmp_path):
        """A factor entry names its layer by its parent path; one whose name
        has no ``/`` is malformed, not missing."""
        c = Container()
        c.add("a", "factor", np.ones(3))
        write_container(c, tmp_path / "c")
        code, out, err = run(capsys, "report", tmp_path / "c")
        assert code == 1 and out is None
        assert json.loads(err) == {"code": "bad_manifest", "error": "factor 'a' is under no layer"}


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
        assert (rep["params_before"], rep["params_after"]) == (kernel.data.size, pruned.data.size)

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
            (["--threshold", "2"], "threshold prunes every channel"),
        ],
        ids=["steps-0", "informative-over-features", "informative-0", "threshold-negative",
             "lr-negative", "lr-nan", "lambda-negative", "lambda-nan", "threshold-keeps-none"],
    )
    def test_bad_arguments_fail_and_write_nothing(self, capsys, tmp_path, argv, message):
        code, _, err = run(
            capsys, "gates", "--kind", "l0", "--lambda", "0.05", "--steps", "50",
            *argv, "--out", tmp_path / "g",
        )
        assert code == 1
        assert message in json.loads(err)["error"]
        assert not (tmp_path / "g").exists()


    @pytest.mark.parametrize(
        "steps, message",
        [("4", "parameters diverged at step 3"), ("5", "loss diverged at step 4")],
        ids=["last-update", "loss"],
    )
    def test_divergence_is_a_coded_error(self, capsys, tmp_path, steps, message):
        """A VIB sigma that underflows to 0 in the last update, or a loss that
        goes non-finite, fails with the ``diverged`` code and writes nothing."""
        code, out, err = run(
            capsys, "gates", "--kind", "vib", "--lambda", "0.1", "--lr", "1.0",
            "--steps", steps, "--out", tmp_path / "g",
        )
        assert code == 1 and out is None
        assert json.loads(err)["code"] == "diverged"
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

    def test_table_without_p_orig_is_a_coded_error(self, capsys, tmp_path):
        c = Container()
        costs = [GridCosts(macs={(1,): 100, (2,): 200}, macs_original=400)]
        add_acc_tables(c, "acc", [AccTable(accuracies={(1,): 0.6, (2,): 0.8}, p_orig=0.9)], costs)
        del c.entry("acc/layer0").metadata["p_orig"]
        write_container(c, tmp_path / "tables")
        code, out, err = run(
            capsys, "rank-select", "--strategy", "equal-acc", "--ratio", "0.7",
            "--acc-table", tmp_path / "tables", "--out", tmp_path / "plan",
        )
        assert code == 1 and out is None
        assert json.loads(err)["code"] == "bad_manifest"
        assert not (tmp_path / "plan").exists()

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


class TestDataoptTakesTheBatchOnce:
    """Each ``dataopt`` call checks the batch's arrays, and the regression's
    Y and Z, once, and warns of an underdetermined batch once."""

    MODES = [("data-svd", "3"), ("asym", "3"), ("relu-asym", "3"), ("asym3d", "5,4"),
             ("spatial-refine", None)]

    @pytest.mark.parametrize("mode,rank", MODES, ids=[m for m, _ in MODES])
    def test_underdetermined_batch_warns_once(self, capsys, model_dir, tmp_path, mode, rank):
        path, kernel = model_dir  # 6 output channels
        x = np.random.default_rng(19).normal(size=(4, 36))
        c = Container()
        with pytest.warns(UserWarning, match="fewer samples"):
            add_batch(c, "batch", PatchBatch(inputs=x, ref_outputs=x @ kernel.as_matrix().T))
        write_container(c, tmp_path / "few")
        if mode == "spatial-refine":
            assert run(capsys, "compress", path, "--layer", "conv1", "--method", "spatial-svd",
                       "--rank", "5", "--out", tmp_path / "sp")[0] == 0
            path = tmp_path / "sp"
        argv = ["dataopt", path, "--layer", "conv1", "--mode", mode, "--batch", tmp_path / "few",
                "--out", tmp_path / "d", *(["--rank", rank] if rank else [])]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            code, _, _ = run(capsys, *argv)
        assert code == 0
        assert sum("fewer samples" in str(w.message) for w in record) == 1

    def test_asym_checks_each_array_once(self, capsys, model_dir, batch_dir, tmp_path,
                                         monkeypatch):
        path, _ = model_dir
        checked = []
        float_array = linalg.float_array

        def counting(a, what, ndim=None):
            checked.append(what)
            return float_array(a, what, ndim)

        monkeypatch.setattr(linalg, "float_array", counting)
        code, _, _ = run(capsys, "dataopt", path, "--layer", "conv1", "--mode", "asym",
                         "--batch", batch_dir, "--rank", "3", "--out", tmp_path / "d")
        assert code == 0
        assert {what: checked.count(what) for what in ("inputs", "ref_outputs", "Y", "Z")} == {
            "inputs": 1, "ref_outputs": 1, "Y": 1, "Z": 1}


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


# ---------------------------------------------------------------------------
# Every handler, driven with generated arguments.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_dirs(tmp_path_factory):
    """Small valid inputs for every command: a biased 6x4x3x3 kernel on a
    5 x 4 map, its spatial SVD, a 40-patch batch and rank-selection tables."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(17)
    kernel = Kernel4D(rng.normal(size=(6, 4, 3, 3)), bias=rng.normal(size=6))
    c = Container()
    add_kernel(c, "conv1", kernel, h=5, w=4)
    write_container(c, root / "model")
    assert cli_dispatch(["compress", str(root / "model"), "--layer", "conv1", "--method",
                         "spatial-svd", "--rank", "3", "--out", str(root / "spatial")]) == 0
    x = rng.normal(size=(40, 36))
    c = Container()
    add_batch(c, "batch", PatchBatch(inputs=x, ref_outputs=x @ kernel.as_matrix().T))
    write_container(c, root / "batch")
    costs = [GridCosts(macs={(1,): 100, (2,): 200, (3,): 300}, macs_original=400)] * 2
    c = Container()
    tables = [AccTable(accuracies={(1,): 0.6, (2,): 0.8, (3,): 0.9}, p_orig=0.9)] * 2
    add_acc_tables(c, "acc", tables, costs)
    add_sv_tables(c, "sv", [np.array([3.0, 2.0, 1.0]), np.array([5.0, 1.0, 0.5])], costs)
    write_container(c, root / "tables")
    return root


RANKS = st.one_of(
    st.integers(1, 6).map(str),
    st.lists(st.integers(-1, 7), min_size=1, max_size=4).map(lambda rs: ",".join(map(str, rs))),
)
REALS = st.one_of(st.floats(0.3, 1.0), st.floats(-0.5, 1.5),
                  st.sampled_from([0.0, float("nan"), float("inf")]))


def _flatten(parts) -> list:
    return [a for p in parts for a in ([p] if isinstance(p, str) else p)]


def _opt(flag, strategy):
    """``["flag=value"]`` (so that a value may start with "-")."""
    return strategy.map(lambda v: [f"{flag}={v}"])


def _maybe(flag, strategy):
    """``_opt(flag, strategy)`` or nothing."""
    return st.one_of(st.just([]), _opt(flag, strategy))


SOURCES = st.sampled_from(["{model}", "{model}", "{model}", "{spatial}", "{batch}"])
ARGVS = {
    "compress": st.tuples(
        SOURCES, st.just(["--layer", "conv1"]),
        _opt("--method", st.sampled_from(sorted(cli.EXTRACTORS))),
        st.one_of(_opt("--rank", RANKS), _opt("--ratio", REALS),
                  st.tuples(_maybe("--rank", RANKS), _maybe("--ratio", REALS)).map(_flatten)),
        _maybe("--seed", st.integers(0, 3)),
    ),
    "dataopt": st.tuples(
        SOURCES, st.just(["--layer", "conv1", "--batch", "{batch}"]),
        _opt("--mode", st.sampled_from(["data-svd", "asym", "asym3d", "spatial-refine",
                                        "relu-asym"])),
        _maybe("--rank", RANKS),
    ),
    "prune": st.tuples(
        SOURCES, st.just(["--layer", "conv1"]),
        _opt("--mode", st.sampled_from(["lasso", "magnitude"])),
        _opt("--keep", st.integers(-1, 5)), _maybe("--batch", st.just("{batch}")),
    ),
    "gates": st.tuples(
        _opt("--kind", st.sampled_from(["l0", "vib"])), _opt("--lambda", REALS),
        _maybe("--steps", st.integers(-1, 20)), _maybe("--lr", REALS),
        _maybe("--threshold", REALS), _maybe("--features", st.integers(0, 6)),
        _maybe("--informative", st.integers(0, 6)), _maybe("--seed", st.integers(0, 3)),
    ),
    "rank-select": st.tuples(
        _opt("--strategy", st.sampled_from(["equal-acc", "greedy-energy"])),
        _opt("--ratio", REALS),
        _maybe("--acc-table", st.sampled_from(["{tables}", "{tables}", "{model}"])),
        _maybe("--sv-table", st.sampled_from(["{tables}", "{tables}", "{model}"])),
    ),
    "report": st.tuples(SOURCES),
    "reconstruct": st.tuples(st.sampled_from(["{spatial}", "{spatial}", "{model}"]),
                             _opt("--layer", st.sampled_from(["conv1", "conv2"]))),
}


@pytest.mark.parametrize("command", sorted(ARGVS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_handler_fails_only_with_a_coded_error(fuzz_dirs, command, data):
    """Each handler returns a report and, for every command but ``report``,
    a container; or it fails with a UsageError, a ContainerError or a
    ValueError (or the gate trainer's documented FloatingPointError on a
    diverged loss), and ``cli_dispatch`` then exits non-zero with no
    ``--out``."""
    dirs = {name: fuzz_dirs / name for name in ("model", "spatial", "batch", "tables")}
    argv = [a.format(**dirs) for a in _flatten(data.draw(ARGVS[command]))]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        argv = [command, *argv] + ([] if command == "report" else ["--out", str(out)])
        args = cli._build_parser().parse_args(argv)
        try:
            report, container = cli._HANDLERS[command](args)
        except (cli.UsageError, ContainerError, ValueError, FloatingPointError) as exc:
            if isinstance(exc, FloatingPointError):
                assert command == "gates" and "diverged" in str(exc), argv
            with contextlib.redirect_stdout(io.StringIO()) as so, \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli_dispatch(argv)
            assert code == (2 if isinstance(exc, cli.UsageError) else 1), argv
            assert not so.getvalue() and not out.exists(), argv
        else:
            json.dumps(report)
            assert (container is None) == (command == "report"), argv


def _stored_layers(cont):
    """Names of the decomposed layers a container holds."""
    return sorted({e.name.rsplit("/", 1)[0] for e in cont.entries
                   if e.kind == "factor" and e.metadata.get("role") != "bias"})


@pytest.mark.parametrize("command", ["compress", "dataopt", "prune", "reconstruct"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_written_containers_read_back_priced_by_the_cost_model(fuzz_dirs, command, data):
    """Whenever a handler succeeds, its container reads back with the same
    entries, and ``mac_cost`` prices every stored layer at its ranks on the
    map of the kernel stored beside it (1 x 1 without one) as ``layer.macs``."""
    dirs = {name: fuzz_dirs / name for name in ("model", "spatial", "batch", "tables")}
    argv = [a.format(**dirs) for a in _flatten(data.draw(ARGVS[command]))]
    args = cli._build_parser().parse_args([command, *argv, "--out", "unused"])
    try:
        _, written = cli._HANDLERS[command](args)
    except (cli.UsageError, ContainerError, ValueError):
        return
    with tempfile.TemporaryDirectory() as tmp:
        write_container(written, tmp)
        back = read_container(tmp)
    assert [e.name for e in back.entries] == [e.name for e in written.entries], argv
    for e in back.entries:
        assert e.metadata == written.entry(e.name).metadata, (argv, e.name)
        assert np.array_equal(back.get(e.name), written.get(e.name)), (argv, e.name)
    for name in _stored_layers(back):
        layer = read_layer(back, name)
        base = name.rsplit("/", 1)[0]
        h, w = (1, 1)
        if back.has(base):
            kmeta = read_kernel(back, base)[1]
            h, w = kmeta["h"], kmeta["w"]
        cost = mac_cost(layer.s, layer.t, layer.k, h, w, layer.method, layer.ranks)
        assert cost.macs_compressed == layer.macs(h, w), (argv, name)
