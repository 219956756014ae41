"""Channel pruning: lasso selection with refit, magnitude baseline."""

import numpy as np
import pytest

from convcompress.kernel import Kernel4D
from convcompress.pruning import channel_prune, magnitude_prune


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
        eig_sym = linalg.eig_sym

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eig_sym(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "eig_sym", counting)
        result = channel_prune(kernel, x, y, s_prime=60)
        assert len(result.kept) == 60
        assert shapes.count((540, 540)) == 1
