"""Container round trips, validation error codes, typed serializers."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from convcompress.dataopt import PatchBatch
from convcompress.decomp import spatial_svd, tt_svd
from convcompress.gates import GateVector, HardConcreteGate, VibGate
from convcompress.kernel import Kernel4D
from convcompress.rankselect import AccTable, GridCosts, RankPlan


class TestRoundTrip:
    def test_empty_container(self, tmp_path):
        write_container(Container(), tmp_path / "c")
        back = read_container(tmp_path / "c")
        assert back.entries == [] and back.blob == b""

    def test_single_kernel_bit_exact(self, tmp_path):
        kernel = Kernel4D(np.array([1.5, -2.25, 0.5, 4.0]).reshape(1, 4, 1, 1))
        c = Container()
        add_kernel(c, "conv", kernel, h=3, w=5)
        write_container(c, tmp_path / "c")
        back, meta = read_kernel(read_container(tmp_path / "c"), "conv")
        assert np.array_equal(back.data, kernel.data)  # values are f32-exact
        assert meta == {"h": 3, "w": 5}

    def test_blob_byte_identical_after_rewrite(self, tmp_path):
        rng = np.random.default_rng(0)
        c = Container()
        c.add("a", "factor", rng.normal(size=(3, 4)))
        c.add("b", "factor", rng.normal(size=(7,)))
        write_container(c, tmp_path / "c1")
        back = read_container(tmp_path / "c1")
        write_container(back, tmp_path / "c2")
        assert (tmp_path / "c1" / "blob.bin").read_bytes() == (
            tmp_path / "c2" / "blob.bin"
        ).read_bytes()
        assert (tmp_path / "c1" / "manifest.json").read_text() == (
            tmp_path / "c2" / "manifest.json"
        ).read_text()

    def test_new_blob_grows_in_place(self, tmp_path):
        """``add`` appends to a new container's blob without copying it; the
        written blob is still the payloads as float32, in order, and reads
        back as bytes."""
        rng = np.random.default_rng(1)
        arrays = [rng.normal(size=(3, 4)), rng.normal(size=(7,))]
        c = Container()
        blob = c.blob
        for name, array in zip("ab", arrays):
            c.add(name, "factor", array)
        assert c.blob is blob and isinstance(blob, bytearray)
        write_container(c, tmp_path / "c")
        written = (tmp_path / "c" / "blob.bin").read_bytes()
        assert written == b"".join(a.astype("<f4").tobytes() for a in arrays)
        assert type(read_container(tmp_path / "c").blob) is bytes

    @settings(max_examples=25, deadline=None)
    @given(
        shapes=st.lists(
            st.lists(st.integers(1, 5), min_size=1, max_size=3), min_size=1, max_size=4
        ),
        seed=st.integers(0, 2**16),
    )
    def test_random_entry_round_trip(self, shapes, seed):
        import tempfile

        rng = np.random.default_rng(seed)
        c = Container()
        arrays = {}
        for i, shape in enumerate(shapes):
            arr = rng.normal(size=tuple(shape)).astype(np.float32).astype(np.float64)
            arrays[f"e{i}"] = arr
            c.add(f"e{i}", "factor", arr)
        with tempfile.TemporaryDirectory() as tmp:
            write_container(c, f"{tmp}/c")
            back = read_container(f"{tmp}/c")
        for name, arr in arrays.items():
            assert np.array_equal(back.get(name), arr)


class TestValidation:
    def _write_manifest(self, tmp_path, entries, blob):
        root = tmp_path / "bad"
        root.mkdir(exist_ok=True)
        manifest = {"format": "convcompress-container", "version": 1, "entries": entries}
        (root / "manifest.json").write_text(json.dumps(manifest))
        (root / "blob.bin").write_bytes(blob)
        return root

    def _entry(self, **kw):
        base = {
            "name": "x",
            "kind": "factor",
            "dtype": "f32",
            "shape": [2],
            "byte_offset": 0,
            "byte_length": 8,
            "metadata": {},
        }
        base.update(kw)
        return base

    def test_truncated_blob(self, tmp_path):
        root = self._write_manifest(tmp_path, [self._entry()], b"\0" * 4)
        with pytest.raises(ContainerError) as err:
            read_container(root)
        assert err.value.code == "truncated"

    def test_overlapping_entries(self, tmp_path):
        entries = [
            self._entry(name="a"),
            self._entry(name="b", byte_offset=4),
        ]
        root = self._write_manifest(tmp_path, entries, b"\0" * 12)
        with pytest.raises(ContainerError) as err:
            read_container(root)
        assert err.value.code == "overlap"

    def test_corrupted_offset_is_overlap_not_crash(self, tmp_path):
        """Dial an entry's offset onto its neighbour: a clean error code."""
        c = Container()
        c.add("a", "factor", np.ones(2))
        c.add("b", "factor", np.ones(2))
        write_container(c, tmp_path / "c")
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        manifest["entries"][1]["byte_offset"] = 4
        (tmp_path / "c" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ContainerError) as err:
            read_container(tmp_path / "c")
        assert err.value.code == "overlap"

    def test_shape_length_mismatch(self, tmp_path):
        root = self._write_manifest(
            tmp_path, [self._entry(shape=[3])], b"\0" * 8
        )
        with pytest.raises(ContainerError) as err:
            read_container(root)
        assert err.value.code == "shape_mismatch"

    def test_duplicate_names(self, tmp_path):
        entries = [self._entry(), self._entry(byte_offset=8)]
        root = self._write_manifest(tmp_path, entries, b"\0" * 16)
        with pytest.raises(ContainerError) as err:
            read_container(root)
        assert err.value.code == "duplicate_name"

    def test_bad_json(self, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        (root / "manifest.json").write_text("{not json")
        (root / "blob.bin").write_bytes(b"")
        with pytest.raises(ContainerError) as err:
            read_container(root)
        assert err.value.code == "bad_manifest"

    def test_missing_entry(self):
        with pytest.raises(ContainerError) as err:
            Container().entry("ghost")
        assert err.value.code == "missing"


class TestTypedSerializers:
    def test_layer_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        kernel = Kernel4D(rng.normal(size=(4, 3, 3, 3)), bias=rng.normal(size=4))
        for layer in (spatial_svd(kernel, 3, order="vh"), tt_svd(kernel, 2, 3, 2)):
            c = Container()
            add_layer(c, "conv/decomposed", layer)
            write_container(c, tmp_path / layer.method)
            back = read_layer(read_container(tmp_path / layer.method), "conv/decomposed")
            assert back.method == layer.method
            assert back.ranks == layer.ranks
            assert back.source_dims == layer.source_dims
            assert back.meta.get("order") == layer.meta.get("order")
            for name, arr in layer.factors.items():
                assert np.allclose(back.factors[name], arr, atol=1e-6)
            assert np.allclose(back.bias, kernel.bias, atol=1e-6)

    def test_batch_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        batch = PatchBatch(
            inputs=rng.normal(size=(20, 18)),
            ref_outputs=rng.normal(size=(20, 4)),
            cur_outputs=rng.normal(size=(20, 4)),
        )
        c = Container()
        add_batch(c, "batch", batch)
        write_container(c, tmp_path / "b")
        back = read_batch(read_container(tmp_path / "b"), "batch")
        assert back.inputs.shape == (20, 18)
        assert back.cur_outputs is not None

    def test_gates_round_trip(self, tmp_path):
        for gv in (
            GateVector(gates=[HardConcreteGate(log_alpha=0.25), HardConcreteGate(log_alpha=-1.5)], lambda_reg=0.5),
            GateVector(gates=[VibGate(mu=0.5, sigma=0.25)], lambda_reg=0.01),
        ):
            c = Container()
            add_gates(c, "gates", gv)
            write_container(c, tmp_path / gv.kind)
            back = read_gates(read_container(tmp_path / gv.kind), "gates")
            assert back.kind == gv.kind
            assert back.lambda_reg == pytest.approx(gv.lambda_reg)
            assert len(back.gates) == len(gv.gates)

    def test_plan_round_trip(self, tmp_path):
        plan = RankPlan(
            ranks=((3,), (2, 4), (1, 1, 2)),
            tau=0.05,
            achieved_macs=123456789,
            achieved_ratio=0.43,
            strategy="equal_acc",
        )
        c = Container()
        add_plan(c, "plan", plan)
        write_container(c, tmp_path / "p")
        back = read_plan(read_container(tmp_path / "p"), "plan")
        assert back.ranks == plan.ranks
        assert back.achieved_macs == plan.achieved_macs
        assert back.tau == pytest.approx(plan.tau)

    def test_tables_round_trip(self, tmp_path):
        tables = [AccTable(accuracies={(1,): 0.8, (2,): 0.9}, p_orig=0.92)]
        costs = [GridCosts(macs={(1,): 100, (2,): 200}, macs_original=300)]
        c = Container()
        add_acc_tables(c, "acc", tables, costs)
        add_sv_tables(c, "sv", [np.array([3.0, 1.0])], costs)
        write_container(c, tmp_path / "t")
        back = read_container(tmp_path / "t")
        tabs, cost_back = read_acc_tables(back, "acc")
        assert tabs[0].accuracies == {(1,): pytest.approx(0.8), (2,): pytest.approx(0.9)}
        assert cost_back[0].macs == costs[0].macs
        svs, cost_back2 = read_sv_tables(back, "sv")
        assert np.allclose(svs[0], [3.0, 1.0])
        assert cost_back2[0].macs_original == 300
