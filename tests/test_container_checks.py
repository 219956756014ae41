"""The container reader is total: stored layers are checked against the method
tables, and every malformed manifest fails with a documented error code."""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convcompress.cli import cli_dispatch
from convcompress.container import (
    Container,
    ContainerError,
    add_kernel,
    add_layer,
    read_container,
    read_gates,
    read_kernel,
    read_layer,
    write_container,
)
from convcompress.dataopt import asym3d, sample_patches
from convcompress.decomp import (
    DecomposedLayer,
    cp_als,
    spatial_svd,
    tt_svd,
    tucker_hooi,
    weight_svd,
)
from convcompress.kernel import Kernel4D, conv_direct

#: The codes the container module documents.
CODES = {"bad_manifest", "duplicate_name", "shape_mismatch", "truncated", "overlap", "missing"}

T, S, K = 5, 4, 3


def _kernel(seed=0, bias=True):
    rng = np.random.default_rng(seed)
    return Kernel4D(rng.normal(size=(T, S, K, K)), bias=rng.normal(size=T) if bias else None)


def _write(path, kernel, layer):
    c = Container()
    add_kernel(c, "conv1", kernel, h=6, w=5)
    add_layer(c, "conv1/decomposed", layer)
    write_container(c, path)
    return Path(path)


def _edit(path, edit):
    """Apply ``edit`` to the parsed manifest of the container at ``path``."""
    mpath = Path(path) / "manifest.json"
    manifest = json.loads(mpath.read_text())
    edit(manifest)
    mpath.write_text(json.dumps(manifest))


def _layer_entries(manifest):
    return [e for e in manifest["entries"] if e["name"].startswith("conv1/decomposed/")
            and e["metadata"].get("role") != "bias"]


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _read_code(path, name="conv1/decomposed"):
    with pytest.raises(ContainerError) as err:
        read_layer(read_container(path), name)
    return err.value.code


class TestLayerAgainstTables:
    def test_rank_one_factor_under_rank_two_metadata(self, tmp_path):
        """w1 stored at rank 1 while the metadata says rank 2: einsum would
        broadcast it into a wrong kernel, and the report would count rank-2
        MACs for factors that cost less."""
        kernel = _kernel()
        full = weight_svd(kernel, 2)
        factors = {"w1": full.factors["w1"][..., :1], "w2": full.factors["w2"]}
        bad = DecomposedLayer("weight_svd", factors, (2,), full.source_dims, bias=full.bias)
        path = _write(tmp_path / "c", kernel, bad)
        assert _read_code(path) == "shape_mismatch"
        for argv in (("reconstruct", path, "--layer", "conv1", "--out", tmp_path / "o"),
                     ("report", path)):
            code, out, err = _cli(*argv)
            assert code == 1 and out == ""
            assert json.loads(err)["code"] == "shape_mismatch"

    @pytest.mark.parametrize(
        "key, value",
        [("method", "original"), ("method", "tt"), ("method", "cp"), ("order", "hv"),
         ("ranks", [2, 3]), ("ranks", [0]), ("source_dims", [5, 4]), ("factor", "w9")],
    )
    def test_bad_manifest(self, tmp_path, key, value):
        """Unknown method or order, wrong rank arity, bad ranks or dims, and
        factor names the method does not have."""
        path = _write(tmp_path / "c", _kernel(), weight_svd(_kernel(), 2))

        def edit(manifest):
            entries = _layer_entries(manifest)
            for e in entries if key != "factor" else entries[-1:]:
                e["metadata"][key] = value

        _edit(path, edit)
        assert _read_code(path) == "bad_manifest"

    def test_factors_disagreeing_on_ranks(self, tmp_path):
        path = _write(tmp_path / "c", _kernel(), tucker_hooi(_kernel(), 2, 3))
        _edit(path, lambda m: _layer_entries(m)[0]["metadata"].update(ranks=[3, 3]))
        assert _read_code(path) == "bad_manifest"

    def test_swapped_spatial_order(self, tmp_path):
        path = _write(tmp_path / "c", _kernel(), spatial_svd(_kernel(), 3, order="hv"))
        _edit(path, lambda m: [e["metadata"].update(order="vh") for e in _layer_entries(m)])
        assert _read_code(path) == "shape_mismatch"

    def test_bias_of_wrong_length(self, tmp_path):
        kernel = _kernel()
        layer = weight_svd(kernel, 2)
        path = _write(tmp_path / "c", kernel, DecomposedLayer(
            "weight_svd", layer.factors, layer.ranks, layer.source_dims, bias=np.ones(T + 1)))
        assert _read_code(path) == "shape_mismatch"

    def test_reconstruct_against_a_kernel_of_other_shape(self, tmp_path):
        kernel = _kernel(bias=False)
        path = _write(tmp_path / "c", kernel, weight_svd(kernel, 2))
        _edit(path, lambda m: m["entries"][0].update(shape=[S, T, K, K]))
        code, _, err = _cli("reconstruct", path, "--layer", "conv1", "--out", tmp_path / "o")
        assert code == 1 and json.loads(err)["code"] == "shape_mismatch"


class TestManifestGaps:
    def _kernel_container(self, tmp_path):
        path = tmp_path / "c"
        c = Container()
        add_kernel(c, "conv1", _kernel(bias=False), h=6, w=5)
        write_container(c, path)
        return path

    def _code(self, path):
        with pytest.raises(ContainerError) as err:
            read_container(path)
        return err.value.code

    def test_entries_not_a_list(self, tmp_path):
        path = self._kernel_container(tmp_path)
        _edit(path, lambda m: m.update(entries=5))
        assert self._code(path) == "bad_manifest"

    def test_negative_dims(self, tmp_path):
        path = self._kernel_container(tmp_path)
        _edit(path, lambda m: m["entries"][0].update(shape=[-2, -2, 3, 3]))
        assert self._code(path) == "bad_manifest"

    def test_size_beyond_int64(self, tmp_path):
        """2**80 float32 entries: an int64 product wraps to 0 bytes."""
        path = self._kernel_container(tmp_path)
        _edit(path, lambda m: m["entries"][0].update(shape=[2**40, 2**40, 1, 1], byte_length=0))
        assert self._code(path) == "shape_mismatch"

    @pytest.mark.parametrize("value", ["xxxx", 0, -3, 2.5, True, None, [4]])
    def test_map_size_not_a_positive_int(self, tmp_path, value):
        path = self._kernel_container(tmp_path)
        _edit(path, lambda m: m["entries"][0]["metadata"].update(h=value))
        assert self._code(path) == "bad_manifest"
        code, out, err = _cli("report", path)
        assert code == 1 and out == ""
        assert json.loads(err)["code"] == "bad_manifest"

    def test_kernel_entry_that_is_not_a_kernel(self, tmp_path):
        path = self._kernel_container(tmp_path)
        _edit(path, lambda m: m["entries"][0].update(shape=[T * S * K * K]))
        with pytest.raises(ContainerError) as err:
            read_kernel(read_container(path), "conv1")
        assert err.value.code == "shape_mismatch"


class TestGateVectors:
    NAN, INF = float("nan"), float("inf")
    L0 = {"kind": "l0", "lambda_reg": 0.1}
    VIB = {"kind": "vib", "lambda_reg": 0.1}

    @pytest.mark.parametrize(
        "payload, metadata, code",
        [
            ([0.5, -1.0], {"kind": "l1", "lambda_reg": 0.1}, "bad_manifest"),
            ([[0.5, 1.0]], {"lambda_reg": 0.1}, "bad_manifest"),
            ([0.5, NAN], L0, "bad_manifest"),
            ([[0.5, 1.0], [INF, 1.0]], VIB, "bad_manifest"),
            ([[0.5, 1.0], [0.5, 0.0]], VIB, "bad_manifest"),
            ([[0.5, -2.0]], VIB, "bad_manifest"),
            ([0.5], {"kind": "l0", "lambda_reg": "abc"}, "bad_manifest"),
            ([0.5], {"kind": "l0", "lambda_reg": None}, "bad_manifest"),
            ([0.5], {"kind": "l0", "lambda_reg": True}, "bad_manifest"),
            ([0.5], {"kind": "l0", "lambda_reg": NAN}, "bad_manifest"),
            ([0.5], {"kind": "l0", "lambda_reg": 10**400}, "bad_manifest"),
            ([0.5, 1.0, 2.0], VIB, "shape_mismatch"),
            ([[0.5, 1.0], [0.5, 1.0]], L0, "shape_mismatch"),
            ([[0.5, 1.0, 1.0]], VIB, "shape_mismatch"),
            (np.empty(0), L0, "shape_mismatch"),
            (np.empty((0, 2)), VIB, "shape_mismatch"),
        ],
        ids=["unknown-kind", "missing-kind", "nan-log-alpha", "inf-mu", "zero-sigma",
             "negative-sigma", "lambda-string", "lambda-null", "lambda-bool", "lambda-nan",
             "lambda-huge-int", "vib-1d", "l0-2d", "vib-3-columns", "l0-empty", "vib-empty"],
    )
    def test_malformed_gate_vector(self, tmp_path, payload, metadata, code):
        """Each cause gives its coded error, never a raw TypeError or
        ValueError, and no input is silently read as another gate kind."""
        c = Container()
        c.add("gates", "gates", np.array(payload), metadata=metadata)
        write_container(c, tmp_path / "g")
        with pytest.raises(ContainerError) as err:
            read_gates(read_container(tmp_path / "g"), "gates")
        assert err.value.code == code

    def test_zero_dim_payload(self, tmp_path):
        c = Container()
        c.add("gates", "gates", np.array([0.5]), metadata=self.L0)
        write_container(c, tmp_path / "g")
        _edit(tmp_path / "g", lambda m: m["entries"][0].update(shape=[]))
        with pytest.raises(ContainerError) as err:
            read_gates(read_container(tmp_path / "g"), "gates")
        assert err.value.code == "shape_mismatch"


# ---------------------------------------------------------------------------
# Fuzz: one manifest field mutated, then read, report and reconstruct.
# ---------------------------------------------------------------------------


def _asym3d_layer(kernel):
    rng = np.random.default_rng(7)
    maps = [(x, conv_direct(kernel, x)) for x in rng.normal(size=(6, S, 5, 5))]
    return asym3d(kernel, sample_patches(maps, per_image=10, k=K, seed=1), 4, 3)


BUILDERS = {
    "weight_svd": lambda kernel: weight_svd(kernel, 2),
    "spatial_svd-hv": lambda kernel: spatial_svd(kernel, 3, order="hv"),
    "spatial_svd-vh": lambda kernel: spatial_svd(kernel, 3, order="vh"),
    "cp": lambda kernel: cp_als(kernel, 2, max_iters=3),
    "tucker": lambda kernel: tucker_hooi(kernel, 2, 3),
    "tt": lambda kernel: tt_svd(kernel, 2, 3, 2),
    "asym3d": _asym3d_layer,
}


@functools.lru_cache(maxsize=None)
def _base(case, bias):
    """Manifest text and blob of a valid container for ``case``."""
    kernel = _kernel(seed=3, bias=bias)
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "c", kernel, BUILDERS[case](kernel))
        return (path / "manifest.json").read_text(), (path / "blob.bin").read_bytes()


FIELDS = ["name", "kind", "dtype", "shape", "byte_offset", "byte_length", "metadata"] + [
    f"metadata.{key}"
    for key in ("h", "w", "method", "ranks", "source_dims", "order", "factor", "position", "role")
]

VALUES = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([
        2**40, 2**63, True, None, 2.5, "xxxx", "", {}, {"h": 0}, "conv1", "conv1/decomposed",
        "conv1/decomposed/w1", "conv1/bias", "factor", "kernel", "plan", "bias", "hv", "vh",
        "w1", "w2", "wh", "wv", "core", "original", "weight_svd", "spatial_svd", "cp", "tucker",
        "tt", "asym3d",
    ]),
    st.lists(st.integers(-2, 9), max_size=4),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    case=st.sampled_from(sorted(BUILDERS)),
    bias=st.booleans(),
    index=st.integers(0, 20),
    field=st.sampled_from(FIELDS + ["entries"]),
    everywhere=st.booleans(),
    value=VALUES,
)
def test_mutated_manifest_reads_or_fails_with_a_documented_code(
    case, bias, index, field, everywhere, value
):
    """Any single mutated field (optionally set on every entry) gives a valid
    read or a ContainerError with a documented code, through the library and
    through the CLI, never another exception."""
    text, blob = _base(case, bias)
    manifest = json.loads(text)
    entries = manifest["entries"]
    if field == "entries":
        manifest["entries"] = value
    else:
        for e in entries if everywhere else [entries[index % len(entries)]]:
            if field.startswith("metadata."):
                e["metadata"][field.split(".", 1)[1]] = value
            else:
                e[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c"
        path.mkdir()
        (path / "manifest.json").write_text(json.dumps(manifest))
        (path / "blob.bin").write_bytes(blob)
        try:
            cont = read_container(path)
            read_kernel(cont, "conv1")
            read_layer(cont, "conv1/decomposed")
        except ContainerError as exc:
            assert exc.code in CODES
        for argv in (("report", path), ("reconstruct", path, "--layer", "conv1", "--out", path / "o")):
            code, _, err = _cli(*argv)
            assert code in (0, 1), (argv[0], err)
            if code == 1:
                assert json.loads(err).get("code") in CODES, (argv[0], err)
