"""Each library input check raises its documented exception with its message,
and a MAC count below 1 is refused wherever a rank plan or cost grid is built
or read."""

import contextlib
import dataclasses
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from convcompress import linalg
from convcompress.cli import cli_dispatch
from convcompress.container import (
    Container,
    ContainerError,
    add_acc_tables,
    add_gates,
    add_kernel,
    add_plan,
    read_acc_tables,
    read_container,
    read_plan,
    write_container,
)
from convcompress.dataopt import (
    PatchBatch,
    asym3d,
    asym_data_svd,
    attach_current_outputs,
    data_svd,
    refined_kernel,
    relu_asym,
    sample_patches,
)
from convcompress.decomp import (
    DecomposedLayer,
    cp_als,
    spatial_svd,
    tucker_hooi,
    weight_svd,
    with_factors,
)
from convcompress.gates import (
    GateVector,
    HardConcreteGate,
    ToyRegressionTask,
    VibGate,
    hc_penalty,
    prune_by_gates,
    train_toy_gated,
    vib_penalty,
)
from convcompress.kernel import (
    Kernel4D,
    aggregate_ratio,
    check_ranks,
    clamp_ranks,
    feature_map,
    layer_cost,
    mac_cost,
    max_ranks,
    unmatricize_spatial,
    unmatricize_weight,
)
from convcompress.pruning import channel_prune, magnitude_prune
from convcompress.rankselect import (
    AccTable,
    GridCosts,
    RankPlan,
    check_sv_table,
    equal_acc_select,
    greedy_energy_select,
    ranks_from_ratio,
)

T, S, K = 4, 3, 3


def raises(exc, message):
    """``pytest.raises`` of ``exc`` whose message is exactly ``message``."""
    return pytest.raises(exc, match=f"^{re.escape(message)}$")


@pytest.fixture(scope="module")
def kernel():
    rng = np.random.default_rng(50)
    return Kernel4D(rng.normal(size=(T, S, K, K)), bias=rng.normal(size=T))


@pytest.fixture(scope="module")
def batch(kernel):
    """Patches with their reference responses and no current responses."""
    x = np.random.default_rng(51).normal(size=(20, S * K * K))
    return PatchBatch(inputs=x, ref_outputs=x @ kernel.as_matrix().T)


def replace_cur(batch, cur):
    """``batch`` with current responses ``cur``."""
    return PatchBatch(batch.inputs, batch.ref_outputs, cur_outputs=cur)


class TestContainer:
    def test_add_a_duplicate_name(self):
        c = Container()
        c.add("a", "kernel", np.zeros(3))
        with raises(ContainerError, "entry 'a' already present") as err:
            c.add("a", "kernel", np.zeros(3))
        assert err.value.code == "duplicate_name"

    def test_add_an_unknown_kind(self):
        with raises(ContainerError, "unknown entry kind 'weights'") as err:
            Container().add("a", "weights", np.zeros(3))
        assert err.value.code == "bad_manifest"

    def test_add_an_empty_gate_vector(self):
        with raises(ContainerError, "cannot serialize an empty gate vector") as err:
            add_gates(Container(), "gates", GateVector(gates=[]))
        assert err.value.code == "bad_manifest"


class TestDataopt:
    def test_patch_batch_of_non_matrices(self):
        with raises(ValueError, "inputs and ref_outputs must be 2-D"):
            PatchBatch(inputs=np.zeros(5), ref_outputs=np.zeros((5, T)))
        with raises(ValueError, "inputs and ref_outputs must be 2-D"):
            PatchBatch(inputs=np.zeros((5, 2)), ref_outputs=np.zeros((5, T, 1)))

    def test_patch_batch_current_outputs_of_another_shape(self):
        with raises(ValueError, "cur_outputs shape (5, 3) != ref shape (5, 4)"):
            PatchBatch(np.zeros((5, 2)), np.zeros((5, T)), cur_outputs=np.zeros((5, 3)))

    def test_attached_responses_that_overflow(self):
        """A finite kernel on finite patches whose responses overflow."""
        ones = PatchBatch(np.ones((5, S * K * K)), np.zeros((5, T)))
        huge = Kernel4D(np.full((T, S, K, K), 1e308))
        with np.errstate(over="ignore"), raises(ValueError, "cur_outputs contains non-finite entries"):
            attach_current_outputs(ones, huge)

    def test_attached_responses_of_another_output_count(self, batch):
        wider = Kernel4D(np.zeros((T + 1, S, K, K)))
        with raises(ValueError, "cur_outputs shape (20, 5) != ref shape (20, 4)"):
            attach_current_outputs(batch, wider)

    def test_z_mean_without_current_outputs(self, batch):
        with raises(ValueError, "batch has no current outputs"):
            batch.z_mean

    @pytest.mark.parametrize("per_image", [0, -1])
    def test_sample_patches_per_image_below_one(self, per_image):
        maps = [(np.zeros((S, 5, 5)), np.zeros((T, 5, 5)))]
        with raises(ValueError, f"per_image must be >= 1, got {per_image}"):
            sample_patches(maps, per_image=per_image, k=3)

    def test_sample_patches_even_size(self):
        maps = [(np.zeros((S, 5, 5)), np.zeros((T, 5, 5)))]
        with raises(ValueError, "patch size must be odd and >= 1, got 2"):
            sample_patches(maps, per_image=2, k=2)

    def test_sample_patches_maps_of_unequal_dims(self):
        maps = [(np.zeros((S, 5, 5)), np.zeros((T, 5, 5))),
                (np.zeros((S, 5, 5)), np.zeros((T, 4, 5)))]
        with raises(ValueError, "map pair 1: spatial dims differ, (3, 5, 5) vs (4, 4, 5)"):
            sample_patches(maps, per_image=2, k=3)

    def test_data_svd_responses_not_n_by_t(self, kernel):
        with raises(ValueError, "ref_outputs must be (n, 4), got (6, 5)"):
            data_svd(kernel, np.zeros((6, T + 1)), 2)
        with raises(ValueError, "ref_outputs must be (n, 4), got (6,)"):
            data_svd(kernel, np.zeros(6), 2)

    def test_refined_kernel_of_a_decomposed_fit(self, kernel, batch):
        layer = weight_svd(kernel, 2)
        fit = asym_data_svd(replace_cur(batch, batch.ref_outputs), layer, 2)
        with raises(ValueError, "refined layer does not wrap a dense kernel"):
            refined_kernel(fit)

    def test_relu_asym_without_current_outputs(self, kernel, batch):
        want = "batch has no current outputs; call attach_current_outputs first"
        with raises(ValueError, want):
            relu_asym(batch, kernel, 2)

    @pytest.mark.parametrize("schedule", [(), (1.0, 0.0), (-1.0,)])
    def test_relu_asym_schedule_empty_or_not_positive(self, kernel, batch, schedule):
        with raises(ValueError, "lambda schedule must be nonempty and positive"):
            relu_asym(replace_cur(batch, batch.ref_outputs), kernel, 2, lambda_schedule=schedule)


class TestDecomp:
    def test_layer_of_an_unknown_method(self):
        with raises(ValueError, "unknown method 'svd'"):
            DecomposedLayer("svd", {"w1": np.zeros((2, 2))}, (2,), (2, 2, 1))

    def test_spatial_svd_of_an_unknown_order(self, kernel):
        with raises(ValueError, "order must be 'hv' or 'vh', got 'xy'"):
            spatial_svd(kernel, 2, order="xy")

    def test_with_factors_of_an_unknown_name(self, kernel):
        layer = weight_svd(kernel, 2)
        with raises(ValueError, "layer has no factors named ['w3', 'wx']"):
            with_factors(layer, wx=np.zeros(2), w3=np.zeros(2), w1=layer.factors["w1"])


class TestGates:
    L0 = GateVector([HardConcreteGate(0.5), HardConcreteGate(-0.5)])
    VIB = GateVector([VibGate(1.0, 0.5), VibGate(0.2, 1.0)])

    def test_hc_penalty_of_vib_gates(self):
        with raises(ValueError, "hc_penalty needs hard-concrete gates"):
            hc_penalty(self.VIB)

    def test_vib_penalty_of_l0_gates(self):
        with raises(ValueError, "vib_penalty needs Gaussian gates"):
            vib_penalty(self.L0)

    def test_prune_by_gates_of_another_count(self, kernel):
        with raises(ValueError, "2 gates for 4 output channels"):
            prune_by_gates(self.L0, kernel, 0.1)

    def test_train_an_unknown_kind(self):
        with raises(ValueError, "kind must be 'l0' or 'vib', got 'l1'"):
            train_toy_gated(ToyRegressionTask(), "l1", 0.1, steps=1)


class TestKernel:
    @pytest.mark.parametrize("shape, t, s", [((0, 2, 3, 3), 0, 2), ((2, 0, 1, 1), 2, 0)])
    def test_kernel_of_no_channels(self, shape, t, s):
        with raises(ValueError, f"channel counts must be positive, got t={t}, s={s}"):
            Kernel4D(np.zeros(shape))

    def test_feature_map_not_3d(self):
        with raises(ValueError, "feature map must be 3-D (channels, h, w), got shape (4, 4)"):
            feature_map(np.zeros((4, 4)))

    @pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 4), (2, 4, 0)])
    def test_feature_map_of_an_empty_dim(self, shape):
        with raises(ValueError, f"feature map dims must be positive, got {shape}"):
            feature_map(np.zeros(shape))

    def test_unmatricize_weight_of_the_wrong_shape(self):
        with raises(ValueError, "expected shape (27, 4), got (4, 27)"):
            unmatricize_weight(np.zeros((4, 27)), T, S, K)

    def test_unmatricize_spatial_of_the_wrong_shape(self):
        with raises(ValueError, "expected shape (9, 12), got (12, 9)"):
            unmatricize_spatial(np.zeros((12, 9)), T, S, K)

    def test_max_ranks_of_an_unknown_method(self):
        with raises(ValueError, "unknown method 'svd'"):
            max_ranks("svd", S, T, K)

    def test_aggregate_ratio_of_no_layers(self):
        with raises(ValueError, "no layer costs to aggregate"):
            aggregate_ratio([])


class TestLinalg:
    def test_matrix_not_2d(self):
        with raises(ValueError, "matrix must be 2-D, got shape (3,)"):
            linalg.svd(np.zeros(3))
        with raises(ValueError, "X must be 2-D, got shape (2, 2, 2)"):
            linalg.lasso_cd(np.zeros((2, 2, 2)), np.zeros(2), 0.1)

    @pytest.mark.parametrize("r", [0, 3])
    def test_truncate_out_of_range(self, r):
        res = linalg.svd(np.eye(2))
        with raises(ValueError, f"rank {r} out of range [1, 2]"):
            res.truncate(r)

    def test_eig_sym_of_a_non_square_matrix(self):
        with raises(ValueError, "matrix must be square, got (2, 3)"):
            linalg.eig_sym(np.zeros((2, 3)))

    def test_ridge_solve_of_unequal_column_counts(self):
        with raises(ValueError, "Y and Z need equal column counts, got (2, 5) vs (3, 4)"):
            linalg.ridge_solve(np.zeros((2, 5)), np.ones((3, 4)))

    def test_ridge_solve_of_a_negative_eps(self):
        with raises(ValueError, "eps must be >= 0"):
            linalg.ridge_solve(np.ones((2, 5)), np.ones((3, 5)), eps=-1e-3)

    def test_lasso_cd_of_a_wrong_response_length(self):
        with raises(ValueError, "y length 4 does not match X rows 5"):
            linalg.lasso_cd(np.ones((5, 2)), np.ones(4), 0.1)


class TestPruning:
    @pytest.mark.parametrize("shape", [(10, S * K * K), (10, S + 1, K * K), (10, S, K)])
    def test_channel_prune_of_bad_patches(self, kernel, shape):
        with raises(ValueError, f"x must be (n, {S}, {K * K}), got {shape}"):
            channel_prune(kernel, np.ones(shape), np.ones((10, T)), 2)

    @pytest.mark.parametrize("shape", [(9, T), (10, T + 1), (10,)])
    def test_channel_prune_of_bad_responses(self, kernel, shape):
        with raises(ValueError, f"y must be (10, {T}), got {shape}"):
            channel_prune(kernel, np.ones((10, S, K * K)), np.ones(shape), 2)


COST = GridCosts({(1,): 10, (2,): 20}, 40)
TABLE = AccTable({(1,): 0.5, (2,): 0.8}, 0.9)


class TestRankselect:
    def test_empty_accuracy_table(self):
        with raises(ValueError, "accuracy table is empty"):
            AccTable({}, 0.9)

    @pytest.mark.parametrize("acc", [1.5, -0.1])
    def test_accuracy_outside_the_unit_interval(self, acc):
        with raises(ValueError, f"accuracy {acc} for ranks (2,) outside [0, 1]"):
            AccTable({(1,): 0.5, (2,): acc}, 0.9)

    @pytest.mark.parametrize("sv", [np.ones((2, 1)), np.ones(0)])
    def test_check_sv_table_of_a_non_vector(self, sv):
        with raises(ValueError, "singular values must be a nonempty vector"):
            check_sv_table(sv, COST)

    def test_selectors_without_tables(self):
        with raises(ValueError, "no accuracy tables"):
            equal_acc_select([], [], 0.5)
        with raises(ValueError, "no singular value lists"):
            greedy_energy_select([], [], 0.5)

    def test_selectors_with_mismatched_counts(self):
        with raises(ValueError, "2 tables vs 1 cost grids"):
            equal_acc_select([TABLE, TABLE], [COST], 0.5)
        with raises(ValueError, "1 layers vs 2 cost grids"):
            greedy_energy_select([np.array([2.0, 1.0])], [COST, COST], 0.5)

    def test_equal_acc_select_of_disagreeing_original_accuracies(self):
        other = AccTable({(1,): 0.5, (2,): 0.8}, 0.8)
        with raises(ValueError, "tables disagree on the original accuracy"):
            equal_acc_select([TABLE, other], [COST, COST], 0.5)

    def test_greedy_when_macs_do_not_grow_with_rank(self):
        flat = GridCosts({(1,): 20, (2,): 20}, 40)
        with raises(ValueError, "layer 1: MACs not increasing in rank"):
            greedy_energy_select([np.array([2.0, 1.0])] * 2, [COST, flat], 0.4)


class TestMacCountsBelowOne:
    """A MAC count must be an integer >= 1: a grid or a plan priced at 0 or
    below would give a budget ratio of the wrong sign."""

    @pytest.mark.parametrize("macs", [-50, 0])
    def test_grid_costs_refuse_an_option(self, macs):
        want = f"MACs must be >= 1, got {{(1,): {macs}, (2,): 100}}, original 400"
        with raises(ValueError, want):
            GridCosts({(1,): macs, (2,): 100}, 400)

    @pytest.mark.parametrize("orig", [-400, 0])
    def test_grid_costs_refuse_the_original(self, orig):
        with raises(ValueError, f"MACs must be >= 1, got {{(1,): 100}}, original {orig}"):
            GridCosts({(1,): 100}, orig)

    def test_grid_costs_accept_one(self):
        assert GridCosts({(1,): 1}, 1).macs == {(1,): 1}

    @staticmethod
    def _tables(path, macs):
        costs = [GridCosts({(1,): 100, (2,): 200}, 400)] * 2
        c = Container()
        add_acc_tables(c, "acc", [AccTable({(1,): 0.6, (2,): 0.8}, 0.9)] * 2, costs)
        write_container(c, path)
        manifest_path = Path(path) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["entries"][0]["metadata"]["macs"] = macs
        manifest_path.write_text(json.dumps(manifest))
        return Path(path)

    @pytest.mark.parametrize("macs", [-50, 0])
    def test_stored_table(self, tmp_path, macs):
        path = self._tables(tmp_path / "t", {"1": macs, "2": 100})
        want = (f"table 'acc/layer0': MACs must be >= 1, "
                f"got {{(1,): {macs}, (2,): 100}}, original 400")
        with raises(ContainerError, want) as err:
            read_acc_tables(read_container(path), "acc")
        assert err.value.code == "bad_manifest"
        out, errs = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errs):
            code = cli_dispatch(["rank-select", "--strategy", "equal-acc", "--ratio", "0.3",
                                 "--acc-table", str(path), "--out", str(tmp_path / "o")])
        assert code == 1 and out.getvalue() == ""
        assert json.loads(errs.getvalue())["code"] == "bad_manifest"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("achieved", [-50, 0])
    def test_stored_plan(self, tmp_path, achieved):
        c = Container()
        add_plan(c, "plan", RankPlan(ranks=((3,), (2, 4)), tau=0.05, achieved_macs=1200,
                                     achieved_ratio=0.4, strategy="equal_acc"))
        c.entries[0].metadata["achieved_macs"] = achieved
        write_container(c, tmp_path / "p")
        want = f"plan 'plan': achieved_macs must be >= 1, got {achieved}"
        with raises(ContainerError, want) as err:
            read_plan(read_container(tmp_path / "p"), "plan")
        assert err.value.code == "bad_manifest"


def poisoned(a, value):
    """A float copy of ``a`` with its first entry set to ``value``."""
    a = np.array(a, dtype=np.float64)
    a.flat[0] = value
    return a


NON_FINITE = pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])


@NON_FINITE
class TestNonFiniteInputs:
    """Every float array the library takes in is refused, by name, when an
    entry is not finite."""

    @pytest.mark.parametrize("field", ["inputs", "ref_outputs", "cur_outputs"])
    def test_patch_batch_field(self, batch, field, value):
        arrays = {"inputs": batch.inputs, "ref_outputs": batch.ref_outputs,
                  "cur_outputs": batch.ref_outputs}
        arrays[field] = poisoned(arrays[field], value)
        with raises(ValueError, f"{field} contains non-finite entries"):
            PatchBatch(**arrays)

    @pytest.mark.parametrize("name", ["x", "y"])
    def test_channel_prune(self, kernel, batch, name, value):
        arrays = {"x": batch.inputs.reshape(-1, S, K * K), "y": batch.ref_outputs}
        arrays[name] = poisoned(arrays[name], value)
        with raises(ValueError, f"{name} contains non-finite entries"):
            channel_prune(kernel, arrays["x"], arrays["y"], 2)

    def test_data_svd_responses(self, kernel, batch, value):
        with raises(ValueError, "ref_outputs contains non-finite entries"):
            data_svd(kernel, poisoned(batch.ref_outputs, value), 2)

    def test_lasso_gram_correlations(self, value):
        with raises(ValueError, "c contains non-finite entries"):
            linalg.lasso_gram(np.eye(2), poisoned([1.0, 1.0], value), 0.1)

    def test_lasso_gram_warm_start(self, value):
        beta0 = poisoned([0.0, 0.0], value)
        with raises(ValueError, "beta0 contains non-finite entries"):
            linalg.lasso_gram(np.eye(2), [1.0, 1.0], 0.1, beta0=beta0)

    def test_lasso_cd_response(self, value):
        x = np.random.default_rng(52).normal(size=(5, 3))
        with raises(ValueError, "y contains non-finite entries"):
            linalg.lasso_cd(x, poisoned(np.ones(5), value), 0.1)

    def test_singular_value_table(self, value):
        with raises(ValueError, "singular value table contains non-finite entries"):
            check_sv_table(poisoned([2.0, 1.0], value), COST)
        with raises(ValueError, "layer 0: singular value table contains non-finite entries"):
            greedy_energy_select([poisoned([2.0, 1.0], value)], [COST], 0.5)


A = np.random.default_rng(53).normal(size=(5, 4))
Z = np.random.default_rng(54).normal(size=(3, 30))
Y = np.random.default_rng(55).normal(size=(4, 30))
MAPS = [(np.random.default_rng(56).normal(size=(S, 6, 6)),
         np.random.default_rng(57).normal(size=(T, 6, 6)))]
TASK = ToyRegressionTask(n_samples=24, n_features=4, n_informative=2)


@pytest.fixture(scope="module")
def fitted(kernel, batch):
    """``batch`` with the kernel's current responses."""
    return attach_current_outputs(batch, kernel)


def stored_kernel_metadata(kernel, **size) -> dict:
    """The metadata ``add_kernel`` stores with ``kernel`` at map ``size``."""
    c = Container()
    add_kernel(c, "a", kernel, **size)
    return c.entry("a").metadata


#: id -> (the name the message gives, a valid value, the call of that value
#: with the kernel and the fitted batch).  Every scalar integer argument is here.
INTEGER_ARGUMENTS = {
    "svd-r": ("rank", 2, lambda k, b, v: linalg.svd(A, v)),
    "truncate-r": ("rank", 2, lambda k, b, v: linalg.svd(A).truncate(v)),
    "rrr_fitter-r": ("rank", 2, lambda k, b, v: linalg.rrr_fitter(Z, v)(Y)),
    "reduced_rank_regression-r": ("rank", 2, lambda k, b, v: linalg.reduced_rank_regression(Y, Z, v)),
    "orthonormal_extend-r": ("rank", 3, lambda k, b, v: linalg.orthonormal_extend(np.eye(4)[:, :2], v)),
    "data_svd-r": ("rank", 2, lambda k, b, v: data_svd(k, b.ref_outputs, v)),
    "asym_data_svd-r": ("rank", 2, lambda k, b, v: asym_data_svd(b, k, v)),
    "relu_asym-r": ("rank", 2, lambda k, b, v: relu_asym(b, k, v, max_outer=1)),
    "channel_prune-s_prime": (
        "s_prime", 2, lambda k, b, v: channel_prune(k, b.inputs.reshape(-1, S, K * K), b.ref_outputs, v)),
    "magnitude_prune-s_prime": ("s_prime", 2, lambda k, b, v: magnitude_prune(k, v)),
    "cp_als-max_iters": ("CP max_iters", 3, lambda k, b, v: cp_als(k, 2, max_iters=v)),
    "tucker_hooi-max_iters": ("tucker max_iters", 2, lambda k, b, v: tucker_hooi(k, 2, 2, max_iters=v)),
    "lasso_gram-max_sweeps": (
        "max_sweeps", 2, lambda k, b, v: linalg.lasso_gram(A.T @ A, A.T @ A[:, 0], 0.1, max_sweeps=v)),
    "lasso_solver-max_sweeps": (
        "max_sweeps", 2, lambda k, b, v: linalg.lasso_solver(A.T @ A, A.T @ A[:, 0], max_sweeps=v)(0.1)),
    "lasso_cd-max_sweeps": (
        "max_sweeps", 500, lambda k, b, v: linalg.lasso_cd(A, A[:, 0], 0.1, max_sweeps=v)),
    "train_toy_gated-steps": ("steps", 3, lambda k, b, v: train_toy_gated(TASK, "l0", 0.1, steps=v)),
    "relu_asym-max_outer": ("max_outer", 1, lambda k, b, v: relu_asym(b, k, 2, max_outer=v)),
    "sample_patches-per_image": ("per_image", 4, lambda k, b, v: sample_patches(MAPS, v, 3)),
    "sample_patches-k": ("k", 3, lambda k, b, v: sample_patches(MAPS, 4, v)),
    "sample_patches-seed": ("seed", 2, lambda k, b, v: sample_patches(MAPS, 4, 3, seed=v)),
    "cp_als-seed": ("seed", 2, lambda k, b, v: cp_als(k, 2, max_iters=3, seed=v)),
    "train_toy_gated-seed": (
        "seed", 2, lambda k, b, v: train_toy_gated(TASK, "vib", 0.1, steps=3, seed=v)),
    "ToyRegressionTask-n_samples": ("n_samples", 24, lambda k, b, v: ToyRegressionTask(n_samples=v)),
    "ToyRegressionTask-n_features": ("n_features", 6, lambda k, b, v: ToyRegressionTask(n_features=v)),
    "ToyRegressionTask-n_informative": (
        "n_informative", 2, lambda k, b, v: ToyRegressionTask(n_informative=v)),
    "mac_cost-s": ("s", 8, lambda k, b, v: mac_cost(v, 8, 3, 4, 4, "weight_svd", (4,))),
    "mac_cost-t": ("t", 8, lambda k, b, v: mac_cost(8, v, 3, 4, 4, "weight_svd", (4,))),
    "mac_cost-k": ("k", 3, lambda k, b, v: mac_cost(8, 8, v, 4, 4, "weight_svd", (4,))),
    "mac_cost-h": ("h", 4, lambda k, b, v: mac_cost(8, 8, 3, v, 4, "weight_svd", (4,))),
    "mac_cost-w": ("w", 4, lambda k, b, v: mac_cost(8, 8, 3, 4, v, "weight_svd", (4,))),
    "check_ranks-s": ("s", 8, lambda k, b, v: check_ranks("tucker", v, 8, 3, (2, 3))),
    "max_ranks-t": ("t", 8, lambda k, b, v: max_ranks("cp", 8, v, 3)),
    "clamp_ranks-k": ("k", 3, lambda k, b, v: clamp_ranks("tt", 8, 8, v, (9, 9, 9))),
    "unmatricize_weight-s": ("s", S, lambda k, b, v: unmatricize_weight(np.ones((27, 4)), T, v, K)),
    "unmatricize_spatial-t": ("t", T, lambda k, b, v: unmatricize_spatial(np.ones((9, 12)), v, S, K)),
    "ranks_from_ratio-s": ("s", 8, lambda k, b, v: ranks_from_ratio("weight_svd", v, 8, 3, 0.5)),
    "layer_cost-params": ("params", 60, lambda k, b, v: layer_cost(8, 8, 3, 4, 4, v, "weight_svd", (4,))),
    "DecomposedLayer.macs-h": ("h", 2, lambda k, b, v: weight_svd(k, 2).macs(v, 2)),
    "DecomposedLayer.macs-w": ("w", 2, lambda k, b, v: weight_svd(k, 2).macs(2, v)),
    "add_kernel-h": ("h", 2, lambda k, b, v: stored_kernel_metadata(k, h=v)),
    "add_kernel-w": ("w", 2, lambda k, b, v: stored_kernel_metadata(k, w=v)),
    "GridCosts-macs": ("MACs", 10, lambda k, b, v: GridCosts({(2,): v}, 40)),
    "GridCosts-macs_original": ("MACs", 40, lambda k, b, v: GridCosts({(2,): 10}, v)),
}


def same_bits(a, b) -> bool:
    """``a`` and ``b`` hold the same types of objects with the same bits: an
    int and a numpy integer of one value count as the same."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_bits(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_bits(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_bits, a, b))
    if a is None or isinstance(a, str):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", list(INTEGER_ARGUMENTS))
class TestIntegerArguments:
    """Every scalar integer argument goes through ``linalg.integer``: a float
    is refused by name, never truncated, and a numpy integer is an int."""

    @pytest.mark.parametrize("value", [2.0, 2.5, np.float64(2.0)])
    def test_a_float_is_refused(self, kernel, fitted, case, value):
        what, _, call = INTEGER_ARGUMENTS[case]
        with raises(ValueError, f"{what} must be an integer, got {value!r}"):
            call(kernel, fitted, value)

    def test_a_numpy_integer_gives_the_bits_of_an_int(self, kernel, fitted, case):
        _, valid, call = INTEGER_ARGUMENTS[case]
        assert same_bits(call(kernel, fitted, np.int64(valid)), call(kernel, fitted, valid))


#: id -> (a call of an integer just below its minimum, the message it gives).
BELOW_MINIMUM = {
    "cp_als-seed": (lambda k, b: cp_als(k, 2, seed=-1), "seed must be >= 0, got -1"),
    "sample_patches-seed": (lambda k, b: sample_patches(MAPS, 4, 3, seed=-1),
                            "seed must be >= 0, got -1"),
    "train_toy_gated-seed": (lambda k, b: train_toy_gated(TASK, "l0", 0.1, seed=-2),
                             "seed must be >= 0, got -2"),
    "n_samples": (lambda k, b: ToyRegressionTask(n_samples=0), "n_samples must be >= 1, got 0"),
    "max_sweeps": (lambda k, b: linalg.lasso_gram(np.eye(2), [1.0, 1.0], 0.1, max_sweeps=0),
                   "max_sweeps must be >= 1, got 0"),
    "max_outer": (lambda k, b: relu_asym(b, k, 2, max_outer=-1), "max_outer must be >= 0, got -1"),
    "channel_prune-s_prime": (
        lambda k, b: channel_prune(k, b.inputs.reshape(-1, S, K * K), b.ref_outputs, S),
        f"s_prime {S} out of range [1, {S - 1}]"),
    "magnitude_prune-s_prime": (lambda k, b: magnitude_prune(k, 0), f"s_prime 0 out of range [1, {S}]"),
    "data_svd-r": (lambda k, b: data_svd(k, b.ref_outputs, T + 1), f"rank {T + 1} out of range [1, {T}]"),
    "mac_cost-h": (lambda k, b: mac_cost(8, 8, 3, 0, 4, "weight_svd", (4,)), "h must be >= 1, got 0"),
    "mac_cost-w": (lambda k, b: mac_cost(8, 8, 3, 4, -1, "original"), "w must be >= 1, got -1"),
    "max_ranks-s": (lambda k, b: max_ranks("tt", 0, 8, 3), "s must be >= 1, got 0"),
    "unmatricize_weight-k": (lambda k, b: unmatricize_weight(np.ones((0, 4)), T, S, 0),
                             "k must be >= 1, got 0"),
    "layer_cost-params": (lambda k, b: layer_cost(8, 8, 3, 4, 4, 0, "weight_svd", (4,)),
                          "params must be >= 1, got 0"),
    "DecomposedLayer.macs-h": (lambda k, b: weight_svd(k, 2).macs(0, 2), "h must be >= 1, got 0"),
    "add_kernel-h": (lambda k, b: stored_kernel_metadata(k, h=0), "h must be >= 1, got 0"),
    "add_kernel-w": (lambda k, b: stored_kernel_metadata(k, w=-1), "w must be >= 1, got -1"),
}


@pytest.mark.parametrize("case", list(BELOW_MINIMUM))
def test_an_integer_below_its_minimum_is_refused(kernel, fitted, case):
    call, message = BELOW_MINIMUM[case]
    with raises(ValueError, message):
        call(kernel, fitted)


#: id -> the call of an ``eps``; each reaches ``psd_inverse``'s one rule.
EPS_CALLS = {
    "psd_inverse": lambda k, b, eps: linalg.psd_inverse(Z @ Z.T, eps),
    "ridge_solve": lambda k, b, eps: linalg.ridge_solve(Y, Z, eps=eps),
    "reduced_rank_regression": lambda k, b, eps: linalg.reduced_rank_regression(Y, Z, 2, eps=eps),
    "rrr_fitter": lambda k, b, eps: linalg.rrr_fitter(Z, 2, eps=eps)(Y),
    "asym_data_svd": lambda k, b, eps: asym_data_svd(b, k, 2, eps=eps),
    "relu_asym": lambda k, b, eps: relu_asym(b, k, 2, eps=eps),
    "asym3d": lambda k, b, eps: asym3d(k, b, 2, 2, eps=eps),
}


class TestFloatParameters:
    """A float parameter that is NaN, infinite or out of its range is refused
    by name rather than surfacing later as another error or a quiet result."""

    @pytest.mark.parametrize(
        "eps, message",
        [(-1.0, "eps must be >= 0"), (-np.inf, "eps must be >= 0"),
         (np.nan, "eps must be finite"), (np.inf, "eps must be finite")],
        ids=["negative", "-inf", "nan", "inf"],
    )
    @pytest.mark.parametrize("case", list(EPS_CALLS))
    def test_eps(self, kernel, fitted, case, eps, message):
        with raises(ValueError, message):
            EPS_CALLS[case](kernel, fitted, eps)

    def test_lasso_gram_of_a_nan_lambda(self):
        with raises(ValueError, "lambda must be >= 0"):
            linalg.lasso_gram(np.eye(2), [1.0, 1.0], np.nan)

    @pytest.mark.parametrize("schedule", [(1.0, np.nan), (np.inf,), (0.5, np.inf, 2.0)])
    def test_relu_asym_of_a_non_finite_lambda(self, kernel, fitted, schedule):
        with raises(ValueError, "lambda schedule must be nonempty and positive"):
            relu_asym(fitted, kernel, 2, lambda_schedule=schedule)

    @pytest.mark.parametrize("noise", [np.nan, np.inf, -np.inf])
    def test_toy_task_of_a_non_finite_noise(self, noise):
        with raises(ValueError, f"noise_std must be finite, got {noise}"):
            ToyRegressionTask(noise_std=noise)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39, -1e39])
def test_container_add_refuses_what_read_container_refuses(value):
    """A payload that is not finite as float32, a float64 past the float32
    range included, is refused when added, not when read back."""
    c = Container()
    with raises(ContainerError, "entry 'a' holds non-finite values") as err:
        c.add("a", "kernel", [1.0, value])
    assert err.value.code == "bad_manifest"
    assert c.entries == [] and c.blob == b""
