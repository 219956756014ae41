"""The container reader is total: stored layers are checked against the method
tables, and every malformed manifest, non-finite payload or truncated blob
fails with a documented error code."""

import ast
import contextlib
import functools
import io
import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import convcompress.container as container_mod
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
    read_acc_tables,
    read_batch,
    read_container,
    read_gates,
    read_kernel,
    read_layer,
    read_plan,
    read_sv_tables,
    write_container,
)
from convcompress.dataopt import PatchBatch, asym3d, sample_patches
from convcompress.decomp import (
    DecomposedLayer,
    cp_als,
    spatial_svd,
    tt_svd,
    tucker_hooi,
    weight_svd,
)
from convcompress.gates import GateVector, HardConcreteGate
from convcompress.kernel import Kernel4D, conv_direct
from convcompress.rankselect import AccTable, GridCosts, RankPlan

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


#: One value of each JSON kind, and the two ints and floats that are not
#: finite numbers as floats.
VALUES_BY_KIND = {"string": "7", "int": 7, "float": 2.5, "bool": True, "null": None,
                  "list": [7], "nan": float("nan"), "huge-int": 10**400}
#: kind -> the names in :data:`VALUES_BY_KIND` of the values it accepts
ACCEPTED = {str: {"string"}, int: {"int", "huge-int"}, float: {"int", "float"},
            bool: {"bool"}}
MISSING = object()


def _bad_values(kind, minimum=None, default=False):
    """``(id, value)`` of every value that a field of ``kind`` refuses: those
    of :data:`VALUES_BY_KIND` it does not accept, one below ``minimum`` and,
    without a ``default``, none at all (:data:`MISSING`)."""
    bad = [(name, v) for name, v in VALUES_BY_KIND.items() if name not in ACCEPTED[kind]]
    if minimum is not None:
        bad.append(("below-minimum", minimum - 1))
    if not default:
        bad.append(("missing", MISSING))
    return bad


def _set(target, key, value):
    if value is MISSING:
        target.pop(key, None)
    else:
        target[key] = value


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
         ("ranks", [2, 3]), ("ranks", [0]), ("source_dims", [5, 4]), ("factor", "w9"),
         *[pytest.param(key, value, id=f"{key}-{name}")
           for key in ("method", "factor") for name, value in _bad_values(str)],
         pytest.param("ranks", MISSING, id="ranks-missing"),
         pytest.param("source_dims", MISSING, id="source_dims-missing")],
    )
    def test_bad_manifest(self, tmp_path, key, value):
        """Unknown method or order, wrong rank arity, bad ranks or dims, and
        factor names the method does not have."""
        path = _write(tmp_path / "c", _kernel(), weight_svd(_kernel(), 2))

        def edit(manifest):
            entries = _layer_entries(manifest)
            for e in entries if key != "factor" else entries[-1:]:
                _set(e["metadata"], key, value)

        _edit(path, edit)
        assert _read_code(path) == "bad_manifest"
        code, out, err = _cli("report", path)
        assert code == 1 and out == "" and json.loads(err)["code"] == "bad_manifest"

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

    def test_layer_is_its_direct_children(self, tmp_path):
        """An asym output stores its refined layer under ``conv1/decomposed/``
        beside the kernel's bias ``conv1/bias``: the layer ``conv1`` is not
        those factors with that bias, it is missing."""
        kernel = _kernel()
        model = _write(tmp_path / "m", kernel, weight_svd(kernel, 2))
        batch = _batch_dir(tmp_path / "b", kernel)
        assert _cli("dataopt", model, "--layer", "conv1", "--mode", "asym", "--rank", "2",
                    "--batch", batch, "--out", tmp_path / "o")[0] == 0
        cont = read_container(tmp_path / "o")
        assert _read_code(tmp_path / "o", "conv1") == "missing"
        layer = read_layer(cont, "conv1/decomposed")
        assert np.array_equal(layer.bias, cont.get("conv1/decomposed/bias"))

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

    @pytest.mark.parametrize("value", [[], "", [["h", 3]]], ids=["list", "string", "pairs"])
    def test_metadata_that_is_not_a_map(self, tmp_path, value):
        """An entry's metadata must be a JSON object: no other value is read
        as one."""
        path = self._kernel_container(tmp_path)
        _edit(path, lambda m: m["entries"][0].update(metadata=value))
        assert self._code(path) == "bad_manifest"
        code, out, err = _cli("report", path)
        assert code == 1 and out == ""
        assert json.loads(err)["code"] == "bad_manifest"

    def test_manifest_that_is_not_utf8(self, tmp_path):
        """A Latin-1 byte in the manifest is ``bad_manifest``, as invalid
        JSON is, in the library and through ``report``."""
        path = self._kernel_container(tmp_path)
        mpath = path / "manifest.json"
        mpath.write_bytes(mpath.read_bytes().replace(b'"conv1"', b'"conv\xe91"'))
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
            ([0.5], {"kind": "l0", "lambda_reg": -0.5}, "bad_manifest"),
            ([0.5], {"kind": "l0", "lambda_reg": 10**400}, "bad_manifest"),
            ([0.5, 1.0, 2.0], VIB, "shape_mismatch"),
            ([[0.5, 1.0], [0.5, 1.0]], L0, "shape_mismatch"),
            ([[0.5, 1.0, 1.0]], VIB, "shape_mismatch"),
            (np.empty(0), L0, "shape_mismatch"),
            (np.empty((0, 2)), VIB, "shape_mismatch"),
            ([0.5], {"kind": "l0", "lambda_reg": [0.1]}, "bad_manifest"),
        ],
        ids=["unknown-kind", "missing-kind", "nan-log-alpha", "inf-mu", "zero-sigma",
             "negative-sigma", "lambda-string", "lambda-null", "lambda-bool", "lambda-nan",
             "lambda-negative", "lambda-huge-int", "vib-1d", "l0-2d", "vib-3-columns",
             "l0-empty", "vib-empty", "lambda-list"],
    )
    def test_malformed_gate_vector(self, tmp_path, payload, metadata, code):
        """Each cause gives its coded error, never a raw TypeError or
        ValueError, and no input is silently read as another gate kind.
        ``Container.add`` refuses a non-finite payload, so the payload is
        written into the blob after a finite one of its shape."""
        payload = np.array(payload, dtype="<f4")
        c = Container()
        c.add("gates", "gates", np.zeros(payload.shape), metadata=metadata)
        write_container(c, tmp_path / "g")
        (tmp_path / "g" / "blob.bin").write_bytes(payload.tobytes())
        with pytest.raises(ContainerError) as err:
            read_gates(read_container(tmp_path / "g"), "gates")
        assert err.value.code == code

    def test_missing_lambda_reads_as_zero(self, tmp_path):
        c = Container()
        c.add("gates", "gates", np.array([0.5]), metadata={"kind": "l0"})
        write_container(c, tmp_path / "g")
        assert read_gates(read_container(tmp_path / "g"), "gates").lambda_reg == 0.0

    def test_zero_dim_payload(self, tmp_path):
        c = Container()
        c.add("gates", "gates", np.array([0.5]), metadata=self.L0)
        write_container(c, tmp_path / "g")
        _edit(tmp_path / "g", lambda m: m["entries"][0].update(shape=[]))
        with pytest.raises(ContainerError) as err:
            read_gates(read_container(tmp_path / "g"), "gates")
        assert err.value.code == "shape_mismatch"


class TestRankTables:
    """Rank plans and rank-selection tables fail with ``bad_manifest`` for
    each missing or ill-typed metadata field, never a raw exception."""

    NAN = float("nan")

    @staticmethod
    def _tables(tmp_path, edit):
        costs = [GridCosts(macs={(1,): 100, (2,): 200}, macs_original=400)]
        c = Container()
        add_acc_tables(c, "acc", [AccTable(accuracies={(1,): 0.6, (2,): 0.8}, p_orig=0.9)], costs)
        add_sv_tables(c, "sv", [np.array([3.0, 1.0])], costs)
        write_container(c, tmp_path / "t")
        _edit(tmp_path / "t", lambda m: [edit(e["metadata"]) for e in m["entries"]])
        return read_container(tmp_path / "t")

    @pytest.mark.parametrize("value", [MISSING, "0.9", True, 1.5, NAN, [0.9], 10**400, None],
                             ids=["missing", "string", "bool", "above-one", "nan", "list",
                                  "huge-int", "null"])
    def test_bad_p_orig(self, tmp_path, value):
        def edit(meta):
            if meta["role"] == "acc-table":
                _set(meta, "p_orig", value)

        cont = self._tables(tmp_path, edit)
        with pytest.raises(ContainerError) as err:
            read_acc_tables(cont, "acc")
        assert err.value.code == "bad_manifest"
        assert self._rank_select_code(tmp_path, "acc") == "bad_manifest"

    @pytest.mark.parametrize(
        "key, value",
        [("macs", MISSING), ("macs", [100, 200]), ("macs", {"1": 100, "2": "200"}),
         ("macs", {"1": 100, "2": 2.5}), ("macs", {"1": 100, "two": 200}),
         ("macs_original", MISSING), ("macs_original", 400.0), ("macs_original", "400"),
         ("macs_original", 0), ("macs_original", True), ("macs_original", [400]),
         ("macs_original", None), ("macs_original", NAN)],
        ids=["macs-missing", "macs-list", "macs-string", "macs-float", "rank-key-not-int",
             "orig-missing", "orig-float", "orig-string", "orig-zero", "orig-bool", "orig-list",
             "orig-null", "orig-nan"],
    )
    @pytest.mark.parametrize("table", ["acc", "sv"])
    def test_bad_grid_costs(self, tmp_path, key, value, table):
        cont = self._tables(tmp_path, lambda meta: _set(meta, key, value))
        reader = read_acc_tables if table == "acc" else read_sv_tables
        with pytest.raises(ContainerError) as err:
            reader(cont, table)
        assert err.value.code == "bad_manifest"
        assert self._rank_select_code(tmp_path, table) == "bad_manifest"

    @staticmethod
    def _rank_select_code(tmp_path, table):
        """The error code of ``rank-select`` on the tables written by
        :meth:`_tables`, after checking it failed and wrote nothing."""
        _, strategy, flag = TestTablePayloads.TABLES[table]
        code, out, err = _cli("rank-select", "--strategy", strategy, "--ratio", "0.7", flag,
                              tmp_path / "t", "--out", tmp_path / "o")
        assert code == 1 and out == "" and not (tmp_path / "o").exists()
        return json.loads(err)["code"]

    @pytest.mark.parametrize(
        "macs",
        [{"1": 100, "01": 300, "2": 200}, {" 1": 100, "2": 200}, {"1": 100, "2": 200, "1_0": 5},
         {"+1": 100, "2": 200}, {"1": 100, "2 ": 200}],
        ids=["leading-zero", "leading-space", "underscore", "plus-sign", "trailing-space"],
    )
    @pytest.mark.parametrize("table", ["acc", "sv"])
    def test_rank_key_not_written_as_the_writer_writes_it(self, tmp_path, macs, table):
        """A key that int() reads but _ranks_key would not write, which
        could name the rank of another key, is refused, not parsed."""
        cont = self._tables(tmp_path, lambda meta: meta.update(macs=macs))
        reader = read_acc_tables if table == "acc" else read_sv_tables
        with pytest.raises(ContainerError) as err:
            reader(cont, table)
        assert err.value.code == "bad_manifest"
        assert "rank key" in str(err.value)

    @staticmethod
    def _plan(tmp_path, edit):
        c = Container()
        add_plan(c, "plan", RankPlan(ranks=((3,), (2, 4)), tau=0.05, achieved_macs=1200,
                                     achieved_ratio=0.4, strategy="equal_acc"))
        write_container(c, tmp_path / "p")
        _edit(tmp_path / "p", lambda m: edit(m["entries"][0]["metadata"]))
        return read_container(tmp_path / "p")

    @pytest.mark.parametrize(
        "key, value",
        [("arity", MISSING), ("arity", 3), ("arity", [1, "2"]), ("arity", [1, 0, 2]),
         ("arity", [1, 1]), ("arity", [2, 2]), ("tau", MISSING), ("tau", "0.05"),
         ("achieved_macs", MISSING), ("achieved_macs", 1200.5), ("achieved_ratio", MISSING),
         ("achieved_ratio", [0.4]), ("strategy", MISSING), ("strategy", 7), ("tau", NAN),
         ("achieved_ratio", float("inf")), ("tau", True), ("tau", [0.05]), ("tau", 10**400),
         ("achieved_macs", "1200"), ("achieved_macs", True), ("achieved_macs", [1200]),
         ("achieved_macs", 0), ("achieved_ratio", "0.4"), ("achieved_ratio", False),
         ("achieved_ratio", NAN), ("achieved_ratio", 10**400), ("strategy", True),
         ("strategy", ["equal_acc"]), ("strategy", 2.5), ("arity", None), ("tau", None),
         ("achieved_macs", None), ("achieved_ratio", None), ("strategy", None)],
        ids=["arity-missing", "arity-int", "arity-string", "arity-zero", "arity-short",
             "arity-long", "tau-missing", "tau-string", "macs-missing", "macs-float",
             "ratio-missing", "ratio-list", "strategy-missing", "strategy-int", "tau-nan",
             "ratio-inf", "tau-bool", "tau-list", "tau-huge-int", "macs-string", "macs-bool",
             "macs-list", "macs-zero", "ratio-string", "ratio-bool", "ratio-nan",
             "ratio-huge-int", "strategy-bool", "strategy-list", "strategy-float",
             "arity-null", "tau-null", "macs-null", "ratio-null", "strategy-null"],
    )
    def test_bad_plan(self, tmp_path, key, value):
        """No command reads a plan: its reader alone refuses each value."""
        with pytest.raises(ContainerError) as err:
            read_plan(self._plan(tmp_path, lambda meta: _set(meta, key, value)), "plan")
        assert err.value.code == "bad_manifest"


class TestTablePayloads:
    """A rank-selection table or plan payload of the wrong shape is
    ``shape_mismatch``; one whose values the rankselect checks refuse is
    ``bad_manifest``, in the reader and through ``rank-select``."""

    #: table -> (reader, rank-select strategy, table flag)
    TABLES = {"acc": (read_acc_tables, "equal-acc", "--acc-table"),
              "sv": (read_sv_tables, "greedy-energy", "--sv-table")}

    @staticmethod
    def _rank_select(path, table, payload, out):
        """Write ``payload`` as the only ``table`` entry, priced at ranks 1
        and 2, and run ``rank-select`` on it; returns the CLI result."""
        meta = {"role": f"{table}-table", "p_orig": 0.9, "macs": {"1": 100, "2": 200},
                "macs_original": 400}
        c = Container()
        c.add(f"{table}/layer0", "plan", payload, meta)
        write_container(c, path)
        _, strategy, flag = TestTablePayloads.TABLES[table]
        return _cli("rank-select", "--strategy", strategy, "--ratio", "0.7", flag, path,
                    "--out", out)

    @pytest.mark.parametrize(
        "table, payload, code",
        [("acc", np.full((2, 2, 2), 0.5), "shape_mismatch"),
         ("acc", np.array([[0.6], [0.8]]), "shape_mismatch"),
         ("acc", np.zeros((0, 2)), "shape_mismatch"),
         ("acc", np.array([[1.0, 0.6], [7.0, 0.8]]), "bad_manifest"),
         ("sv", np.array([[3.0, 1.0]]), "shape_mismatch"),
         ("sv", np.zeros(0), "shape_mismatch"),
         ("sv", np.array([3.0, -1.0]), "bad_manifest"),
         ("sv", np.array([1.0, 3.0]), "bad_manifest"),
         ("sv", np.array([3.0, 2.0, 1.0]), "bad_manifest"),
         ("acc", np.array([[1.0, 0.5], [1.0, 0.7], [2.0, 0.8]]), "bad_manifest"),
         ("acc", np.array([[1.0, 0.6], [1.6, 0.8]]), "bad_manifest"),
         ("acc", np.array([[0.0, 0.6], [2.0, 0.8]]), "bad_manifest")],
        ids=["acc-3d", "acc-one-column", "acc-no-row", "acc-rank-not-priced", "sv-2d",
             "sv-empty", "sv-negative", "sv-ascending", "sv-rank-not-priced",
             "acc-repeated-ranks", "acc-rank-fraction", "acc-rank-zero"],
    )
    def test_bad_table_payload(self, tmp_path, table, payload, code):
        status, out, err = self._rank_select(tmp_path / "t", table, payload, tmp_path / "o")
        assert status == 1 and out == ""
        assert json.loads(err)["code"] == code
        assert not (tmp_path / "o").exists()
        with pytest.raises(ContainerError) as got:
            self.TABLES[table][0](read_container(tmp_path / "t"), table)
        assert got.value.code == code

    @pytest.mark.parametrize(
        "table, payload",
        [("acc", np.array([[1.0, 0.6], [2.0, 0.8]])), ("sv", np.array([3.0, 1.0]))],
    )
    def test_valid_table_payload(self, tmp_path, table, payload):
        assert self._rank_select(tmp_path / "t", table, payload, tmp_path / "o")[0] == 0

    @pytest.mark.parametrize("payload", [[2.6, 3], [0, 3], [-2, 3]],
                             ids=["fraction", "zero", "negative"])
    def test_plan_rank_that_is_not_an_integer_of_one_or_more(self, tmp_path, payload):
        """Such a rank is refused, not rounded or passed on."""
        c = Container()
        c.add("plan", "plan", np.array(payload, dtype=np.float64),
              {"role": "rank-plan", "arity": [1, 1], "tau": 0.0, "achieved_macs": 10,
               "achieved_ratio": 0.5, "strategy": "equal_acc"})
        write_container(c, tmp_path / "p")
        with pytest.raises(ContainerError) as err:
            read_plan(read_container(tmp_path / "p"), "plan")
        assert err.value.code == "bad_manifest"

    def test_plan_payload_that_is_not_a_vector(self, tmp_path):
        c = Container()
        c.add("plan", "plan", np.ones((2, 2)),
              {"role": "rank-plan", "arity": [2, 2], "tau": 0.0, "achieved_macs": 10,
               "achieved_ratio": 0.5, "strategy": "equal_acc"})
        write_container(c, tmp_path / "p")
        with pytest.raises(ContainerError) as err:
            read_plan(read_container(tmp_path / "p"), "plan")
        assert err.value.code == "shape_mismatch"


def _poison(path, name, value, index=0):
    """Overwrite float32 number ``index`` of entry ``name``'s payload with ``value``."""
    manifest = json.loads((Path(path) / "manifest.json").read_text())
    (entry,) = [e for e in manifest["entries"] if e["name"] == name]
    bpath = Path(path) / "blob.bin"
    blob = bytearray(bpath.read_bytes())
    at = entry["byte_offset"] + 4 * index
    blob[at : at + 4] = struct.pack("<f", value)
    bpath.write_bytes(bytes(blob))


def _batch_dir(path, kernel, rows=60, ref_rows=60):
    """A batch of ``rows`` patches for ``kernel`` with ``ref_rows`` reference
    rows; unequal counts are written entry by entry, as PatchBatch refuses them."""
    x = np.random.default_rng(5).normal(size=(rows, S * K * K))
    y = x @ kernel.as_matrix().T
    c = Container()
    if rows == ref_rows:
        add_batch(c, "batch", PatchBatch(inputs=x, ref_outputs=y, cur_outputs=y))
    else:
        c.add("batch/inputs", "patchbatch", x)
        c.add("batch/ref_outputs", "patchbatch", y[:ref_rows])
    write_container(c, path)
    return Path(path)


def _tables_dir(path):
    costs = [GridCosts(macs={(1,): 100, (2,): 200, (3,): 300}, macs_original=400)] * 2
    c = Container()
    tables = [AccTable(accuracies={(1,): 0.6, (2,): 0.8, (3,): 0.9}, p_orig=0.9)] * 2
    add_acc_tables(c, "acc", tables, costs)
    add_sv_tables(c, "sv", [np.array([3.0, 2.0, 1.0]), np.array([5.0, 1.0, 0.5])], costs)
    write_container(c, path)
    return Path(path)


class TestStoredValues:
    """Every payload must be finite: ``read_container`` rejects a NaN or an
    infinity anywhere in an entry as ``bad_manifest``, whichever reader or
    command would have used the entry."""

    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "entry", ["conv1", "conv1/bias", "conv1/decomposed/w1", "conv1/decomposed/bias"]
    )
    def test_non_finite_model_entry(self, tmp_path, entry, value):
        kernel = _kernel()
        path = _write(tmp_path / "c", kernel, weight_svd(kernel, 2))
        _poison(path, entry, value, index=3)
        with pytest.raises(ContainerError) as err:
            read_container(path)
        assert err.value.code == "bad_manifest"
        for argv in (("report", path),
                     ("reconstruct", path, "--layer", "conv1", "--out", tmp_path / "o")):
            code, out, err = _cli(*argv)
            assert code == 1 and out == ""
            assert json.loads(err)["code"] == "bad_manifest"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [("dataopt", "--mode", "data-svd", "--rank", "2"),
         ("dataopt", "--mode", "asym", "--rank", "2"),
         ("prune", "--mode", "lasso", "--keep", "2")],
        ids=["data-svd", "asym", "lasso"],
    )
    def test_non_finite_batch_input(self, tmp_path, argv):
        kernel = _kernel()
        model = _write(tmp_path / "m", kernel, weight_svd(kernel, 2))
        batch = _batch_dir(tmp_path / "b", kernel)
        command, *flags = argv
        cmd = (command, model, "--layer", "conv1", *flags, "--batch", batch, "--out")
        assert _cli(*cmd, tmp_path / "ok")[0] == 0
        _poison(batch, "batch/inputs", self.NAN, index=7)
        code, out, err = _cli(*cmd, tmp_path / "o")
        assert code == 1 and out == ""
        assert json.loads(err)["code"] == "bad_manifest"
        assert not (tmp_path / "o").exists()

    def test_batch_rows_disagree(self, tmp_path):
        kernel = _kernel()
        model = _write(tmp_path / "m", kernel, weight_svd(kernel, 2))
        batch = _batch_dir(tmp_path / "b", kernel, rows=60, ref_rows=59)
        with pytest.raises(ContainerError) as err:
            read_batch(read_container(batch), "batch")
        assert err.value.code == "shape_mismatch"
        code, out, err = _cli("dataopt", model, "--layer", "conv1", "--mode", "asym",
                              "--rank", "2", "--batch", batch, "--out", tmp_path / "o")
        assert code == 1 and out == ""
        assert json.loads(err)["code"] == "shape_mismatch"

    @pytest.mark.parametrize(
        "strategy, flag, entry",
        [("greedy-energy", "--sv-table", "sv/layer1"), ("equal-acc", "--acc-table", "acc/layer0")],
    )
    def test_non_finite_table(self, tmp_path, strategy, flag, entry):
        path = _tables_dir(tmp_path / "t")
        cmd = ("rank-select", "--strategy", strategy, "--ratio", "0.7", flag, path, "--out")
        assert _cli(*cmd, tmp_path / "ok")[0] == 0
        _poison(path, entry, self.NAN, index=1)
        code, out, err = _cli(*cmd, tmp_path / "o")
        assert code == 1 and out == ""
        assert json.loads(err)["code"] == "bad_manifest"


def _everything_dir(path, kernel):
    """One container holding an entry of every kind: a kernel with its bias,
    its spatial SVD, a batch, gates, a rank plan and both kinds of table."""
    c = Container()
    add_kernel(c, "conv1", kernel, h=6, w=5)
    add_layer(c, "conv1/decomposed", spatial_svd(kernel, 3))
    x = np.random.default_rng(6).normal(size=(20, S * K * K))
    y = x @ kernel.as_matrix().T
    add_batch(c, "batch", PatchBatch(inputs=x, ref_outputs=y, cur_outputs=y))
    add_gates(c, "gates", GateVector([HardConcreteGate(0.5), HardConcreteGate(-1.0)], 0.25))
    add_plan(c, "plan", RankPlan(ranks=((3,), (2, 4)), tau=0.05, achieved_macs=1200,
                                 achieved_ratio=0.4, strategy="equal_acc"))
    costs = [GridCosts(macs={(1,): 100, (2,): 200}, macs_original=400)]
    add_acc_tables(c, "acc", [AccTable(accuracies={(1,): 0.6, (2,): 0.8}, p_orig=0.9)], costs)
    add_sv_tables(c, "sv", [np.array([3.0, 1.0])], costs)
    write_container(c, path)
    return Path(path)


#: typed reader -> the name it reads and the entries it reads under that name
READS = {
    "read_kernel": (read_kernel, "conv1", ["conv1", "conv1/bias"]),
    "read_layer": (read_layer, "conv1/decomposed", ["conv1/decomposed/bias"]),
    "read_batch": (read_batch, "batch", ["batch/inputs", "batch/ref_outputs",
                                         "batch/cur_outputs"]),
    "read_gates": (read_gates, "gates", ["gates"]),
    "read_plan": (read_plan, "plan", ["plan"]),
    "read_acc_tables": (read_acc_tables, "acc", ["acc/layer0"]),
    "read_sv_tables": (read_sv_tables, "sv", ["sv/layer0"]),
}


class TestEntryKinds:
    """Each typed reader accepts one entry kind for each entry it reads and
    rejects an entry of another kind under that name as ``bad_manifest``."""

    @pytest.mark.parametrize("reader", sorted(READS))
    def test_valid_entries_read(self, tmp_path, reader):
        fn, name, _ = READS[reader]
        fn(read_container(_everything_dir(tmp_path / "c", _kernel())), name)

    #: entry kind -> another kind to store it under
    OTHER = {"kernel": "factor", "factor": "plan", "patchbatch": "gates", "gates": "plan",
             "plan": "patchbatch"}

    @pytest.mark.parametrize(
        "reader, entry",
        [(reader, entry) for reader, (_, _, entries) in sorted(READS.items()) for entry in entries],
    )
    def test_entry_of_another_kind(self, tmp_path, reader, entry):
        fn, name, _ = READS[reader]
        path = _everything_dir(tmp_path / "c", _kernel())
        _edit(path, lambda m: [e.update(kind=self.OTHER[e["kind"]])
                               for e in m["entries"] if e["name"] == entry])
        with pytest.raises(ContainerError) as err:
            fn(read_container(path), name)
        assert err.value.code == "bad_manifest"


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


# ---------------------------------------------------------------------------
# Fuzz: one float32 of the blob made non-finite, or the blob cut short.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _blob_bases():
    """Manifest text and blob of a valid model, batch and table container."""
    kernel = _kernel(seed=4)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"model": _everything_dir(Path(tmp) / "model", kernel),
                 "batch": _batch_dir(Path(tmp) / "batch", kernel),
                 "tables": _tables_dir(Path(tmp) / "tables")}
        return {name: ((p / "manifest.json").read_text(), (p / "blob.bin").read_bytes())
                for name, p in paths.items()}


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    target=st.sampled_from(["model", "batch", "tables"]),
    index=st.integers(0, 20),
    position=st.integers(0, 10**6),
    value=st.sampled_from([float("nan"), float("inf"), float("-inf"), None]),
    cut=st.integers(0, 10**6),
)
def test_corrupted_blob_reads_or_fails_with_a_documented_code(target, index, position, value, cut):
    """A NaN or infinite float32 written into a random entry (``value``), or
    the blob cut to ``cut`` bytes (``value`` None): every typed reader and
    every command that reads the container gives a valid read or a
    ContainerError with a documented code, never another exception."""
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {}
        for name, (text, blob) in _blob_bases().items():
            if name == target and value is None:
                cut %= len(blob) + 1
                blob = blob[:cut]
            elif name == target:
                entries = json.loads(text)["entries"]
                e = entries[index % len(entries)]
                at = e["byte_offset"] + 4 * (position % (e["byte_length"] // 4))
                blob = blob[:at] + struct.pack("<f", value) + blob[at + 4:]
            dirs[name] = Path(tmp) / name
            dirs[name].mkdir()
            (dirs[name] / "manifest.json").write_text(text)
            (dirs[name] / "blob.bin").write_bytes(blob)
        intact = value is None and cut == len(_blob_bases()[target][1])
        try:
            cont = read_container(dirs[target])
        except ContainerError as exc:
            assert not intact
            assert exc.code == ("truncated" if value is None else "bad_manifest")
        else:
            assert intact
            for reader, name, _ in READS.values():
                try:
                    reader(cont, name)
                except ContainerError as exc:
                    assert exc.code == "missing" and target != "model"
        out = Path(tmp) / "o"
        model, batch, tables = dirs["model"], dirs["batch"], dirs["tables"]
        for argv in (
            ("report", dirs[target]),
            ("reconstruct", model, "--layer", "conv1", "--out", out),
            ("dataopt", model, "--layer", "conv1", "--mode", "asym", "--batch", batch,
             "--rank", "2", "--out", out),
            ("rank-select", "--strategy", "greedy-energy", "--ratio", "0.7", "--sv-table",
             tables, "--out", out),
            ("rank-select", "--strategy", "equal-acc", "--ratio", "0.7", "--acc-table",
             tables, "--out", out),
        ):
            code, _, err = _cli(*argv)
            assert code in (0, 1), (argv[0], err)
            if code == 1:
                assert json.loads(err).get("code") in CODES, (argv[0], err)


def test_raised_codes_are_the_documented_codes():
    """The codes that the package raises as ``ContainerError`` literals, the
    set this module checks against and the list in the container module's
    docstring are one set."""
    raised = set()
    for path in Path(container_mod.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) == "ContainerError":
                code = node.args[0]
                assert isinstance(code, ast.Constant), (path.name, node.lineno)
                raised.add(code.value)
    listed = re.search(r"stable ``code``:(.*?)\.", container_mod.__doc__, re.S).group(1)
    assert raised == CODES == set(re.findall(r"``(\w+)``", listed))


class TestSweepDiagnostics:
    """A cp or tucker layer stores its sweep diagnostics beside ``order``;
    ``read_layer`` returns all three or refuses the layer as ``bad_manifest``."""

    KEYS = ("iterations", "rel_error", "converged")

    @pytest.mark.parametrize("case", sorted(BUILDERS))
    def test_round_trip(self, tmp_path, case):
        """The read layer's meta holds exactly what the solver reported;
        the other methods store none of it."""
        layer = BUILDERS[case](_kernel())
        path = _write(tmp_path / "c", _kernel(), layer)
        want = {key: layer.meta[key] for key in ("order", *self.KEYS) if key in layer.meta}
        assert read_layer(read_container(path), "conv1/decomposed").meta == want
        assert (case in ("cp", "tucker")) == all(key in want for key in self.KEYS)
        stored = json.loads((path / "manifest.json").read_text())
        for e in _layer_entries(stored):
            assert {key: e["metadata"][key] for key in self.KEYS if key in e["metadata"]} == {
                key: want[key] for key in self.KEYS if key in want}

    DROP = object()

    @pytest.mark.parametrize(
        "key, value",
        [("iterations", 0), ("iterations", 2.0), ("iterations", "3"), ("iterations", True),
         ("iterations", None), ("iterations", DROP), ("rel_error", "0.5"),
         ("rel_error", float("nan")), ("rel_error", [0.5]), ("rel_error", True),
         ("rel_error", None), ("rel_error", DROP), ("converged", 1), ("converged", "true"),
         ("converged", None), ("converged", DROP), ("iterations", [3]),
         ("rel_error", 10**400), ("converged", [True]), ("converged", 1.0)],
        ids=["iters-zero", "iters-float", "iters-string", "iters-bool", "iters-null",
             "iters-missing", "error-string", "error-nan", "error-list", "error-bool",
             "error-null", "error-missing", "converged-int", "converged-string",
             "converged-null", "converged-missing", "iters-list", "error-huge-int",
             "converged-list", "converged-float"],
    )
    @pytest.mark.parametrize("case", ["cp", "tucker"])
    def test_tampered(self, tmp_path, case, key, value):
        path = _write(tmp_path / "c", _kernel(), BUILDERS[case](_kernel()))

        def edit(manifest):
            for e in _layer_entries(manifest):
                if value is self.DROP:
                    e["metadata"].pop(key)
                else:
                    e["metadata"][key] = value

        _edit(path, edit)
        assert _read_code(path) == "bad_manifest"
        code, out, err = _cli("report", path)
        assert code == 1 and out == "" and json.loads(err)["code"] == "bad_manifest"

    @pytest.mark.parametrize("key", KEYS)
    def test_factors_that_disagree(self, tmp_path, key):
        """Diagnostics stored on every factor are read back; a factor that
        lacks one of them fails as ``bad_manifest``."""
        path = _write(tmp_path / "c", _kernel(), weight_svd(_kernel(), 2))
        _edit(path, lambda m: [e["metadata"].update(iterations=3, rel_error=0.5, converged=True)
                               for e in _layer_entries(m)])
        layer = read_layer(read_container(path), "conv1/decomposed")
        assert layer.meta == {"iterations": 3, "rel_error": 0.5, "converged": True}
        _edit(path, lambda m: _layer_entries(m)[-1]["metadata"].pop(key))
        assert _read_code(path) == "bad_manifest"


class TestFieldRule:
    """Every stored value is read by kind, with a minimum where one applies:
    any other value is ``bad_manifest`` from its reader and through the
    command that reads it.  The fields here are those that no other test
    tampers with: an entry's own fields, a kernel's ``w`` and a layer's
    ``order``."""

    #: field -> (kind, minimum, has a default, entries it is set on)
    FIELDS = {
        "name": (str, None, False, "entry"),
        "kind": (str, None, False, "entry"),
        "dtype": (str, None, True, "entry"),
        "byte_offset": (int, None, False, "entry"),
        "byte_length": (int, None, False, "entry"),
        "w": (int, 1, True, "kernel"),
        "order": (str, None, True, "layer"),
    }

    @pytest.mark.parametrize(
        "field, value",
        [pytest.param(field, value, id=f"{field}-{name}")
         for field, (kind, minimum, default, _) in FIELDS.items()
         for name, value in _bad_values(kind, minimum, default)
         if (field, name) != ("order", "null")],  # a null order is no order
    )
    def test_model_field(self, tmp_path, field, value):
        path = _write(tmp_path / "c", _kernel(), spatial_svd(_kernel(), 3))
        target = self.FIELDS[field][3]

        def edit(manifest):
            if target == "layer":
                for e in _layer_entries(manifest):
                    _set(e["metadata"], field, value)
            else:
                (kernel,) = [e for e in manifest["entries"] if e["name"] == "conv1"]
                _set(kernel if target == "entry" else kernel["metadata"], field, value)

        _edit(path, edit)
        with pytest.raises(ContainerError) as err:
            read_layer(read_container(path), "conv1/decomposed")
        assert err.value.code == "bad_manifest"
        code, out, err = _cli("report", path)
        assert code == 1 and out == "" and json.loads(err)["code"] == "bad_manifest"
