"""Channel pruning: lasso selection with refit, magnitude baseline."""

import numpy as np
import pytest

from convcompress import linalg
from convcompress.kernel import Kernel4D
from convcompress.pruning import _channel_features, channel_prune, magnitude_prune

from _oracles import channel_prune_doubling_reference


def planted_setup(seed, s=6, support=(0, 2), t=4, k=3, n=150):
    """Responses generated from a known subset of input channels."""
    rng = np.random.default_rng(seed)
    kernel = Kernel4D(rng.normal(size=(t, s, k, k)))
    x = rng.normal(size=(n, s, k * k))
    y = np.zeros((n, t))
    for i in support:
        y += x[:, i] @ kernel.data[:, i].reshape(t, k * k).T
    return kernel, x, y


class TestChannelPrune:
    def test_recovers_planted_support(self):
        kernel, x, y = planted_setup(0)
        result = channel_prune(kernel, x, y, s_prime=2)
        assert result.kept == (0, 2)
        assert result.residual <= 1e-6

    def test_forbids_keeping_all_channels(self):
        kernel, x, y = planted_setup(1)
        with pytest.raises(ValueError, match="s_prime"):
            channel_prune(kernel, x, y, s_prime=kernel.s)

    def test_dead_channel_is_dropped(self):
        """With one input channel identically zero in the data, pruning a
        single channel removes exactly that one at negligible residual."""
        rng = np.random.default_rng(2)
        s, t, k, n = 5, 3, 3, 120
        kernel = Kernel4D(rng.normal(size=(t, s, k, k)))
        x = rng.normal(size=(n, s, k * k))
        x[:, 3] = 0.0
        y = np.einsum("nsp,tsp->nt", x, kernel.data.reshape(t, s, k * k))
        result = channel_prune(kernel, x, y, s_prime=s - 1)
        assert 3 not in result.kept
        assert result.residual <= 1e-8

    def test_residual_nonincreasing_in_kept_count(self):
        rng = np.random.default_rng(3)
        s, t, k, n = 8, 4, 3, 200
        kernel = Kernel4D(rng.normal(size=(t, s, k, k)))
        x = rng.normal(size=(n, s, k * k))
        y = np.einsum("nsp,tsp->nt", x, kernel.data.reshape(t, s, k * k))
        y += 0.05 * rng.normal(size=y.shape)
        r6 = channel_prune(kernel, x, y, s_prime=6)
        r3 = channel_prune(kernel, x, y, s_prime=3)
        assert r6.residual <= r3.residual + 1e-9

    def test_refit_beats_lasso_scaling(self):
        """The least-squares refit over the kept channels can reproduce the
        scaled lasso solution, so its residual is never worse."""
        kernel, x, y = planted_setup(4, support=(1, 3, 4))
        result = channel_prune(kernel, x, y, s_prime=3)
        design = x[:, list(result.kept)].reshape(x.shape[0], -1)
        # residual of the best fit cannot exceed the all-channel data error
        assert result.residual <= np.linalg.norm(y) + 1e-12
        # and the refit is the least-squares optimum over the kept design
        refit = result.refit_kernel.data.reshape(kernel.t, -1)
        grad = 2.0 * (design @ refit.T - y).T @ design
        assert np.linalg.norm(grad) <= 1e-4 * max(1.0, np.linalg.norm(y))

    def test_near_full_keep_reproduces_outputs(self):
        """Keeping every channel the data actually uses reproduces the
        original responses through the refit."""
        kernel, x, y = planted_setup(5, s=6, support=(0, 1, 2, 3, 4))
        result = channel_prune(kernel, x, y, s_prime=5)
        assert set(result.kept) == {0, 1, 2, 3, 4}
        assert result.residual <= 1e-6

    def test_beta_flags_match_kept(self):
        kernel, x, y = planted_setup(6)
        result = channel_prune(kernel, x, y, s_prime=2)
        for i in range(kernel.s):
            assert (result.beta[i] != 0.0) == (i in result.kept)
        assert result.refit_kernel.s == len(result.kept)

    def test_residual_is_error_of_returned_layer_with_bias(self):
        """With a large bias in the responses, the refit layer (bias
        included) reproduces its reported residual on the fitting batch."""
        rng = np.random.default_rng(12)
        t, s, k, n = 6, 5, 3, 200
        kernel = Kernel4D(rng.normal(size=(t, s, k, k)), bias=rng.normal(scale=5.0, size=t))
        x = rng.normal(size=(n, s, k * k)) + 0.5
        y = np.einsum("nsp,tsp->nt", x, kernel.data.reshape(t, s, k * k)) + kernel.bias
        result = channel_prune(kernel, x, y, s_prime=4)
        layer = result.refit_kernel
        pred = x[:, list(result.kept)].reshape(n, -1) @ layer.data.reshape(t, -1).T + layer.bias
        assert result.residual == pytest.approx(np.linalg.norm(y - pred), rel=1e-12)
        # the fitted bias is the least-squares intercept: residuals average to zero
        assert np.max(np.abs((y - pred).mean(axis=0))) <= 1e-10 * np.max(np.abs(y))

    def test_recovers_planted_support_at_64_channels(self):
        """Slight noise makes every channel enter the first lasso solve, so
        the full penalty search runs on a 64-channel layer."""
        kernel, x, y = planted_setup(13, s=64, support=tuple(range(1, 64, 4)), t=64, n=500)
        noise = 1e-3 * np.random.default_rng(14).normal(size=y.shape)
        result = channel_prune(kernel, x, y + noise, s_prime=16)
        assert result.kept == tuple(range(1, 64, 4))
        assert result.solves > 20
        # the planted weights alone leave exactly the noise
        assert result.residual <= np.linalg.norm(noise)

    def test_reports_lasso_diagnostics(self):
        kernel, x, y = planted_setup(14, support=(0, 1, 2, 3, 4, 5))
        result = channel_prune(kernel, x, y, s_prime=2)
        assert result.converged
        assert result.lam > 1e-4
        assert 22 <= result.solves <= 221
        assert result.sweeps >= result.solves
        again = channel_prune(kernel, x, y, s_prime=2)
        assert (again.lam, again.solves, again.sweeps) == (result.lam, result.solves, result.sweeps)

    def test_all_zero_input_rejected(self):
        kernel, x, y = planted_setup(7)
        with pytest.raises(ValueError, match="zero"):
            channel_prune(kernel, np.zeros_like(x), y, s_prime=2)


class TestMagnitudePrune:
    def test_zero_channel_dropped(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(3, 4, 3, 3))
        data[:, 2] = 0.0
        result = magnitude_prune(Kernel4D(data), s_prime=3)
        assert result.kept == (0, 1, 3)
        assert result.residual == 0.0

    def test_tie_break_keeps_lowest_indices(self):
        data = np.ones((2, 5, 3, 3))
        result = magnitude_prune(Kernel4D(data), s_prime=2)
        assert result.kept == (0, 1)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(9)
        kernel = Kernel4D(rng.normal(size=(4, 7, 3, 3)))
        result = magnitude_prune(kernel, s_prime=4)
        norms = [np.linalg.norm(kernel.data[:, i]) for i in range(7)]
        oracle = tuple(sorted(sorted(range(7), key=lambda i: (-norms[i], i))[:4]))
        assert result.kept == oracle

    def test_residual_is_dropped_norm(self):
        rng = np.random.default_rng(10)
        kernel = Kernel4D(rng.normal(size=(3, 5, 3, 3)))
        result = magnitude_prune(kernel, s_prime=3)
        dropped = [i for i in range(5) if i not in result.kept]
        want = np.sqrt(sum(np.linalg.norm(kernel.data[:, i]) ** 2 for i in dropped))
        assert result.residual == pytest.approx(want)

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(11)
        kernel = Kernel4D(rng.normal(size=(3, 4, 3, 3)))
        result = magnitude_prune(kernel, s_prime=4)
        assert result.kept == (0, 1, 2, 3)
        assert np.array_equal(result.refit_kernel.data, kernel.data)


class TestRefitSolves:
    def test_wide_design_is_solved_once(self, monkeypatch):
        """Keeping 60 of 64 channels with 500 patches gives a 540-column
        design: the exact solve is refused before any eigendecomposition, and
        only the ridged fallback eigendecomposes the 540 x 540 system."""
        from convcompress import linalg

        rng = np.random.default_rng(13)
        s = t = 64
        k, n = 3, 500
        kernel = Kernel4D(rng.normal(size=(t, s, k, k)))
        x = rng.normal(size=(n, s, k * k))
        y = np.einsum("nsp,tsp->nt", x, kernel.data.reshape(t, s, k * k))
        shapes = []
        eigh = linalg._eigh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "_eigh", counting)
        result = channel_prune(kernel, x, y, s_prime=60)
        assert len(result.kept) == 60
        assert shapes.count((540, 540)) == 1


def centred_correlations(kernel, x, y):
    """The features and correlations ``channel_prune`` forms from the
    centred batch."""
    feats = _channel_features(x - x.mean(axis=0), kernel)
    return feats, feats.T @ (y - y.mean(axis=0)).ravel()


def outcome(prune, kernel, x, y, keep):
    try:
        return prune(kernel, x, y, keep)
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestDoublingSearchPinned:
    """The search that enters the penalty grid 1e-4 * 2**k at its top and
    halves down it picks the penalty, the channels and the refit layer of the
    copy that doubled up from 1e-4 wherever the number of survivors falls
    as the penalty rises, in fewer solves where the penalty lies in the
    upper half of the grid."""

    @staticmethod
    def random_problem(rng):
        """A random layer and batch whose centred feature Gram has full rank,
        at a data scale from 1e-6 to 1e6, and a kept count from 1 to s - 1."""
        while True:
            s, t, n = int(rng.integers(2, 17)), int(rng.integers(1, 9)), int(rng.integers(2, 40))
            k = int(rng.choice([1, 3]))
            if n * t < s:
                continue
            kernel = Kernel4D(rng.normal(size=(t, s, k, k)), bias=rng.normal(size=t))
            x = 10.0 ** rng.uniform(-6, 6) * rng.normal(size=(n, s, k * k))
            y = np.einsum("nsp,tsp->nt", x, kernel.data.reshape(t, s, k * k))
            y = rng.random() * y + rng.random() * np.abs(y).max() * rng.normal(size=y.shape)
            if np.linalg.matrix_rank(centred_correlations(kernel, x, y)[0]) == s:
                return kernel, x, y, int(rng.integers(1, s))

    @staticmethod
    def bench_problem(rng, t, s, n=500):
        """A layer and batch of the benchmark's conv1-3 kind: post-ReLU
        patches, perturbed by N(0, 0.1^2), and the clean responses."""
        kernel = Kernel4D(rng.normal(size=(t, s, 3, 3)) / np.sqrt(9 * s), bias=0.1 * rng.normal(size=t))
        clean = np.maximum(rng.normal(size=(n, s, 9)), 0.0)
        y = np.einsum("nsp,tsp->nt", clean, kernel.data.reshape(t, s, 9)) + kernel.bias
        return kernel, clean + 0.1 * rng.normal(size=clean.shape), y

    @staticmethod
    def compare(kernel, x, y, keep):
        """Both outcomes, when neither refuses; else the same refusal.

        With the penalty first bracketed at grid point i and max|c| first
        reached at grid point top, the copy solves 1 (i = 0) or i + 21 times
        and the search top + 1 or top - i + 22 times."""
        got = outcome(channel_prune, kernel, x, y, keep)
        want = outcome(channel_prune_doubling_reference, kernel, x, y, keep)
        if isinstance(want, str):
            assert got == want
            return None
        grid = 1e-4 * 2.0 ** np.arange(400)
        top = int(np.argmax(grid >= np.abs(centred_correlations(kernel, x, y)[1]).max()))
        i_got, i_want = (int(np.argmax(grid >= r.lam)) for r in (got, want))
        assert want.solves == (i_want + 21 if i_want else 1)
        assert got.solves == (top - i_got + 22 if i_got else top + 1)
        return got, want

    @staticmethod
    def same_selection(got, want) -> bool:
        return (got.kept == want.kept and got.lam.hex() == want.lam.hex()
                and got.refit_kernel.data.tobytes() == want.refit_kernel.data.tobytes()
                and got.refit_kernel.bias.tobytes() == want.refit_kernel.bias.tobytes()
                and got.residual == want.residual)

    def test_random_full_rank_problems(self):
        rng = np.random.default_rng(2917)
        solves = np.zeros(2, dtype=int)
        compared = fewer = more = differ = 0
        for _ in range(300):
            kernel, x, y, keep = self.random_problem(rng)
            pair = self.compare(kernel, x, y, keep)
            if pair is None:
                continue
            got, want = pair
            if not self.same_selection(got, want):
                # a survivor count that rises with the penalty somewhere on
                # the grid can stop the search, coming down, above the copy
                assert got.lam > want.lam and len(got.kept) <= keep
                differ += 1
            compared += 1
            solves += (got.solves, want.solves)
            fewer += got.solves < want.solves
            more += got.solves > want.solves
        assert compared >= 200 and differ <= compared // 100
        # most problems need fewer solves, some more (a penalty in the lower
        # half of the grid), and the total falls
        assert fewer > 2 * more > 0
        assert solves[0] < solves[1]

    @pytest.mark.parametrize("t, s", [(8, 8), (16, 8), (16, 16)], ids=["conv1", "conv2", "conv3"])
    def test_benchmark_layer_shapes(self, t, s):
        rng = np.random.default_rng([t, s])
        for keep in range(1, s):
            got, want = self.compare(*self.bench_problem(rng, t, s), keep)
            assert self.same_selection(got, want)
            assert got.solves < want.solves


class TestSearchEdges:
    def test_feasible_at_the_floor_keeps_the_floor(self):
        """A dead input channel leaves s - 1 live ones, so every penalty,
        1e-4 too, keeps at most s - 1 channels."""
        kernel, x, y = planted_setup(21, s=5, support=(0, 1, 2, 3))
        x[:, 4] = 0.0
        result = channel_prune(kernel, x, y, s_prime=4)
        assert result.lam == 1e-4
        assert result.kept == (0, 1, 2, 3)

    def test_correlations_at_or_below_the_floor_remove_every_channel(self):
        kernel, x, y = planted_setup(22)
        x, y = 1e-5 * x, 1e-5 * y
        assert np.abs(centred_correlations(kernel, x, y)[1]).max() <= 1e-4
        with pytest.raises(RuntimeError, match="lasso removed every channel"):
            channel_prune(kernel, x, y, s_prime=2)

    def test_first_solve_is_one_sweep_to_zero_at_the_top_of_the_grid(self, monkeypatch):
        kernel, x, y = planted_setup(23, support=(0, 1, 2, 3, 4, 5))
        calls = []
        solver = linalg.lasso_solver

        def recording(g, c, *args):
            solve = solver(g, c, *args)

            def recorded(lam, beta0=None):
                calls.append((lam, beta0, solve(lam, beta0)))
                return calls[-1][2]

            return recorded

        monkeypatch.setattr(linalg, "lasso_solver", recording)
        result = channel_prune(kernel, x, y, s_prime=2)
        lam_max = np.abs(centred_correlations(kernel, x, y)[1]).max()
        lam, beta0, first = calls[0]
        assert beta0 is None
        assert (first.sweeps, first.converged, first.beta.any()) == (1, True, False)
        assert lam >= lam_max > lam / 2
        assert len(calls) == result.solves
        # the descent before the bisection tries grid points only
        steps = np.log2([c[0] / 1e-4 for c in calls[:result.solves - 20]])
        assert np.array_equal(steps, np.round(steps))

    @pytest.mark.parametrize("which, scale", [("G", (1e160, 1.0)), ("c", (1.0, 3e305))],
                             ids=["gram", "correlations"])
    def test_overflow_is_refused_as_before(self, which, scale):
        """Finite patches and responses whose Gram or correlations overflow."""
        kernel, x, y = planted_setup(24)
        x, y = scale[0] * x, scale[1] * y
        with np.errstate(over="ignore", invalid="ignore"):
            feats, corr = centred_correlations(kernel, x, y)
            assert np.isfinite(feats).all()
            finite = np.isfinite(feats.T @ feats).all(), np.isfinite(corr).all()
            assert finite == (which == "c", which == "G")
            with pytest.raises(ValueError, match=f"^{which} contains non-finite entries$"):
                channel_prune(kernel, x, y, s_prime=2)
            with pytest.raises(ValueError, match=f"^{which} contains non-finite entries$"):
                channel_prune_doubling_reference(kernel, x, y, s_prime=2)
