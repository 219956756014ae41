"""Stochastic gates: sampling chains, penalties, gradients, toy training."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from _oracles import train_toy_gated_inline
from convcompress.gates import (
    DivergedError,
    GateVector,
    HardConcreteGate,
    ToyRegressionTask,
    VibGate,
    hc_deterministic,
    hc_grads,
    hc_penalty,
    hc_sample,
    kept_by_criteria,
    prune_by_gates,
    train_toy_gated,
    vib_grads,
    vib_penalty,
    vib_sample,
)
from convcompress.kernel import Kernel4D, mac_cost


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestHcSample:
    def test_midpoint_with_standard_constants(self):
        z = hc_sample(HardConcreteGate(log_alpha=0.0), 0.5)
        # sigmoid(0) = 0.5, stretched: 0.5 * 1.2 - 0.1 = 0.5
        assert z == pytest.approx(0.5)

    def test_saturation(self):
        assert hc_sample(HardConcreteGate(log_alpha=60.0), 0.5) == 1.0
        assert hc_sample(HardConcreteGate(log_alpha=-60.0), 0.5) == 0.0

    def test_boundary_u_rejected(self):
        g = HardConcreteGate(log_alpha=0.0)
        for u in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="u must"):
                hc_sample(g, u)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            g = HardConcreteGate(log_alpha=float(rng.uniform(-6, 6)))
            z = hc_sample(g, float(rng.uniform(1e-9, 1 - 1e-9)))
            assert 0.0 <= z <= 1.0

    def test_monte_carlo_active_probability(self):
        """Empirical P(z > 0) over 1e5 draws matches the penalty term."""
        rng = np.random.default_rng(1)
        u = np.clip(rng.uniform(size=100_000), 1e-12, 1 - 1e-12)
        for log_alpha in (-1.0, 0.0, 1.5):
            g = HardConcreteGate(log_alpha=log_alpha)
            frac = np.mean([hc_sample(g, ui) > 0.0 for ui in u])
            assert abs(frac - g.active_probability()) <= 0.02

    def test_deterministic_values(self):
        """Both test-time conventions agree with Monte-Carlo estimates:
        the clipped mean is the u=1/2 sample, the expectation matches the
        empirical sample mean."""
        rng = np.random.default_rng(14)
        g = HardConcreteGate(log_alpha=0.4)
        assert hc_deterministic(g, "clipped_mean") == hc_sample(g, 0.5)
        u = np.clip(rng.uniform(size=40_000), 1e-12, 1 - 1e-12)
        mc = np.mean([hc_sample(g, ui) for ui in u])
        assert abs(hc_deterministic(g, "expected") - mc) <= 0.01
        with pytest.raises(ValueError, match="mode"):
            hc_deterministic(g, "median")


class TestHardConcreteConstants:
    def test_constants_are_fixed(self):
        """beta, zeta and gamma read as the standard constants and cannot be
        set per gate, so a gate is fully described by its log_alpha."""
        g = HardConcreteGate(log_alpha=0.0)
        assert (g.beta, g.zeta, g.gamma) == (2.0 / 3.0, 1.1, -0.1)
        with pytest.raises(TypeError):
            HardConcreteGate(0.0, beta=0.3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.beta = 0.3
        assert [f.name for f in dataclasses.fields(HardConcreteGate)] == ["log_alpha"]


class TestHcPenalty:
    def test_single_gate_standard_constants(self):
        gv = GateVector(gates=[HardConcreteGate(log_alpha=0.0)])
        want = sigmoid(-(2.0 / 3.0) * math.log(0.1 / 1.1))
        assert hc_penalty(gv) == pytest.approx(want)
        assert want == pytest.approx(sigmoid(1.5986), abs=1e-4)

    def test_empty_vector(self):
        assert hc_penalty(GateVector(gates=[])) == 0.0

    def test_strictly_increasing_in_log_alpha(self):
        values = [
            hc_penalty(GateVector(gates=[HardConcreteGate(log_alpha=a)]))
            for a in np.linspace(-4, 4, 30)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError, match="mixes"):
            GateVector(gates=[HardConcreteGate(log_alpha=0.0), VibGate(mu=1.0, sigma=1.0)])

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.5], ids=["nan", "inf", "negative"])
    def test_lambda_reg_checked(self, lam):
        """A gate vector holds only a penalty weight the trainer accepts and
        ``read_gates`` reads back."""
        message = f"^lambda_reg must be finite and nonnegative, got {lam}$"
        with pytest.raises(ValueError, match=message):
            GateVector(gates=[HardConcreteGate(log_alpha=0.0)], lambda_reg=lam)

    def test_frozen(self):
        """The checked penalty weight cannot be replaced after construction."""
        gv = GateVector(gates=[HardConcreteGate(log_alpha=0.0)], lambda_reg=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            gv.lambda_reg = math.nan
        assert gv.lambda_reg == 0.5


class TestHcGrads:
    def test_zero_in_clipped_region(self):
        dz, _ = hc_grads(HardConcreteGate(log_alpha=30.0), 0.9)  # saturated at 1
        assert dz == 0.0
        dz, _ = hc_grads(HardConcreteGate(log_alpha=-30.0), 0.1)  # clipped at 0
        assert dz == 0.0

    def test_sample_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        checked = 0
        while checked < 100:
            la = float(rng.uniform(-2, 2))
            u = float(rng.uniform(0.05, 0.95))
            z0 = hc_sample(HardConcreteGate(log_alpha=la - h), u)
            z1 = hc_sample(HardConcreteGate(log_alpha=la + h), u)
            if z0 in (0.0, 1.0) or z1 in (0.0, 1.0):
                continue  # keep to interior points
            want = (z1 - z0) / (2 * h)
            got, _ = hc_grads(HardConcreteGate(log_alpha=la), u)
            assert abs(got - want) <= 1e-4 * max(1.0, abs(want))
            checked += 1

    def test_penalty_grad_matches_finite_differences(self):
        h = 1e-6
        for la in np.linspace(-3, 3, 25):
            p0 = hc_penalty(GateVector(gates=[HardConcreteGate(log_alpha=la - h)]))
            p1 = hc_penalty(GateVector(gates=[HardConcreteGate(log_alpha=la + h)]))
            want = (p1 - p0) / (2 * h)
            _, got = hc_grads(HardConcreteGate(log_alpha=la), 0.5)
            assert abs(got - want) <= 1e-6


class TestVib:
    def test_sample_affine(self):
        g = VibGate(mu=0.7, sigma=0.3)
        assert vib_sample(g, 0.0) == pytest.approx(0.7)
        assert vib_sample(VibGate(mu=0.0, sigma=1.0), 1.234) == pytest.approx(1.234)

    def test_sample_mean_concentrates_on_mu(self):
        rng = np.random.default_rng(3)
        g = VibGate(mu=0.4, sigma=0.25)
        n = 100_000
        eps = rng.standard_normal(n)
        mean = np.mean([vib_sample(g, e) for e in eps[:20_000]])
        assert abs(mean - g.mu) <= 3 * g.sigma / math.sqrt(20_000)

    def test_penalty_values(self):
        assert vib_penalty(GateVector(gates=[VibGate(mu=0.0, sigma=0.5)])) == 0.0
        got = vib_penalty(GateVector(gates=[VibGate(mu=0.8, sigma=0.8)]))
        assert got == pytest.approx(math.log(2.0))
        assert vib_penalty(GateVector(gates=[])) == 0.0

    def test_penalty_never_negative(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            gv = GateVector(
                gates=[VibGate(mu=float(rng.uniform(-5, 5)), sigma=float(rng.uniform(0.01, 5)))]
            )
            assert vib_penalty(gv) >= 0.0

    @pytest.mark.parametrize(
        "make, message",
        [(lambda: VibGate(mu=0.1, sigma=0.0), "sigma must be positive"),
         (lambda: HardConcreteGate(math.nan), "log_alpha must be finite, got nan"),
         (lambda: VibGate(math.nan, 1.0), "mu must be finite, got nan"),
         (lambda: VibGate(1.0, math.nan), "sigma must be finite, got nan"),
         (lambda: VibGate(1.0, math.inf), "sigma must be finite, got inf")],
        ids=["zero-sigma", "nan-log-alpha", "nan-mu", "nan-sigma", "inf-sigma"],
    )
    def test_sigma_positive_enforced(self, make, message):
        """A gate's parameters are checked when it is built: each finite, by
        name, and a VIB sigma positive."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_frozen(self):
        """A built gate keeps the parameters its checks passed."""
        g = VibGate(mu=1.0, sigma=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.sigma = math.nan
        assert g.snr() == 1.0

    def test_penalty_grads_match_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(50):
            mu = float(rng.uniform(-2, 2))
            sigma = float(rng.uniform(0.2, 2))
            dmu, dsigma = vib_grads(VibGate(mu=mu, sigma=sigma))
            f = lambda m, s: math.log1p(m**2 / s**2)
            want_mu = (f(mu + h, sigma) - f(mu - h, sigma)) / (2 * h)
            want_sigma = (f(mu, sigma + h) - f(mu, sigma - h)) / (2 * h)
            assert abs(dmu - want_mu) <= 1e-6
            assert abs(dsigma - want_sigma) <= 1e-6


class TestPruneByGates:
    def test_zero_mu_always_pruned(self):
        rng = np.random.default_rng(5)
        kernel = Kernel4D(rng.normal(size=(3, 2, 3, 3)))
        gv = GateVector(
            gates=[VibGate(mu=0.0, sigma=0.5), VibGate(mu=1.0, sigma=0.1), VibGate(mu=0.9, sigma=0.2)]
        )
        result = prune_by_gates(gv, kernel, threshold=1e-9)
        assert 0 not in result.kept and result.kept == (1, 2)

    def test_tiny_threshold_keeps_strictly_positive(self):
        rng = np.random.default_rng(6)
        kernel = Kernel4D(rng.normal(size=(3, 2, 3, 3)))
        gv = GateVector(gates=[HardConcreteGate(log_alpha=float(a)) for a in (-1.0, 0.0, 2.0)])
        result = prune_by_gates(gv, kernel, threshold=1e-12)
        assert result.kept == (0, 1, 2)

    def test_all_pruned_raises(self):
        kernel = Kernel4D(np.ones((2, 2, 1, 1)))
        gv = GateVector(gates=[VibGate(mu=0.0, sigma=1.0), VibGate(mu=0.0, sigma=1.0)])
        with pytest.raises(ValueError, match="prunes every channel"):
            prune_by_gates(gv, kernel, threshold=0.5)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
    def test_threshold_must_be_positive(self, threshold):
        kernel = Kernel4D(np.ones((2, 2, 1, 1)))
        gv = GateVector(gates=[VibGate(mu=1.0, sigma=1.0)] * 2)
        for call in (lambda: prune_by_gates(gv, kernel, threshold),
                     lambda: kept_by_criteria(gv.criteria(), threshold)):
            with pytest.raises(ValueError, match="threshold must be positive"):
                call()

    def test_reports_mac_ratio(self):
        kernel = Kernel4D(np.ones((4, 3, 3, 3)))
        gv = GateVector(
            gates=[VibGate(mu=1.0, sigma=0.1)] * 2 + [VibGate(mu=0.0, sigma=1.0)] * 2
        )
        result = prune_by_gates(gv, kernel, threshold=0.5, h=8, w=8)
        assert result.kernel.t == 2
        assert result.cost.ratio == pytest.approx(0.5)
        # field for field, the dense layer cut to the kept output channels
        orig, slim = (mac_cost(3, t, 3, 8, 8, "original") for t in (4, 2))
        assert result.cost == dataclasses.replace(
            orig, method="gate_prune", ranks=(2,), macs_compressed=slim.macs_original,
            params_compressed=slim.params_original)


class TestToyTraining:
    def test_unregularized_keeps_informative_gates_open(self):
        task = ToyRegressionTask()
        for kind in ("l0", "vib"):
            res = train_toy_gated(task, kind, lambda_reg=0.0, steps=800, lr=0.05, seed=0)
            crit = res.gates.criteria()
            assert np.all(crit[: task.n_informative] > 0.5)

    def test_planted_noise_gates_close(self):
        task = ToyRegressionTask()
        settings = {"l0": (0.5, 3000), "vib": (0.02, 2000)}
        for kind, (lam, steps) in settings.items():
            hits = 0
            for seed in range(5):
                res = train_toy_gated(task, kind, lambda_reg=lam, steps=steps, lr=0.05, seed=seed)
                crit = res.gates.criteria()
                noise_closed = np.all(crit[task.n_informative :] < 0.05)
                info_open = np.all(crit[: task.n_informative] > 0.5)
                hits += bool(noise_closed and info_open)
            assert hits >= 4, f"{kind}: only {hits}/5 seeds separated the planted noise"

    def test_doubling_lambda_never_opens_gates(self):
        task = ToyRegressionTask()
        chains = {"l0": ([0.25, 0.5, 1.0, 2.0], 3000), "vib": ([0.005, 0.01, 0.02, 0.04], 2000)}
        for kind, (chain, steps) in chains.items():
            for seed in range(5):
                counts = []
                for lam in chain:
                    res = train_toy_gated(task, kind, lambda_reg=lam, steps=steps, lr=0.05, seed=seed)
                    counts.append(int(np.sum(res.gates.criteria() >= 0.05)))
                assert all(b <= a for a, b in zip(counts, counts[1:])), (kind, seed, counts)

    def test_deterministic_given_seed(self):
        task = ToyRegressionTask()
        a = train_toy_gated(task, "vib", lambda_reg=0.01, steps=100, lr=0.05, seed=7)
        b = train_toy_gated(task, "vib", lambda_reg=0.01, steps=100, lr=0.05, seed=7)
        assert a.loss_trace == b.loss_trace
        assert np.array_equal(a.draws, b.draws)

    def test_divergent_lr_detected(self):
        task = ToyRegressionTask()
        with pytest.raises(FloatingPointError, match="diverged"):
            train_toy_gated(task, "l0", lambda_reg=0.1, steps=500, lr=50.0, seed=0)

    def test_vib_sigma_underflow_is_a_diverged_loss(self):
        """A VIB sigma that underflows to 0 makes the penalty non-finite: the
        run fails as diverged, with no numpy divide-by-zero warning."""
        with pytest.raises(FloatingPointError, match="diverged"):
            train_toy_gated(ToyRegressionTask(), "vib", lambda_reg=0.0, lr=1.0, seed=0)

    def test_diverged_error_carries_its_code(self):
        assert issubclass(DivergedError, FloatingPointError)
        assert DivergedError("diverged").code == "diverged"

    @pytest.mark.parametrize("steps", [4, 5])
    def test_divergence_in_the_last_update_is_caught(self, steps):
        """The update after the last checked loss leaves a VIB sigma at 0
        (4 steps) before the next loss would go non-finite (5 steps)."""
        with pytest.raises(DivergedError, match="diverged"):
            train_toy_gated(ToyRegressionTask(), "vib", lambda_reg=0.1, steps=steps, lr=1.0)

    def test_large_but_finite_run_returns(self):
        """Parameters and loss that are huge but finite are not a divergence."""
        res = train_toy_gated(ToyRegressionTask(), "l0", lambda_reg=0.1, steps=75, lr=50.0)
        assert res.loss_trace[-1] > 1e300 and math.isfinite(res.loss_trace[-1])
        assert np.isfinite(res.weights).all()

    def test_draws_replay_losses(self):
        """The logged noise draws rebuild the recorded first-step loss."""
        task = ToyRegressionTask()
        res = train_toy_gated(task, "l0", lambda_reg=0.3, steps=5, lr=0.05, seed=3)
        rng = np.random.default_rng(3)
        x, y, _ = task.materialize(rng)
        w0 = rng.normal(scale=0.1, size=task.n_features)
        u0 = res.draws[0]
        s = 1.0 / (1.0 + np.exp(-((np.log(u0) - np.log1p(-u0) + 1.0) / (2.0 / 3.0))))
        z0 = np.clip(s * 1.2 - 0.1, 0.0, 1.0)
        pred = x @ (w0 * z0)
        p_active = 1.0 / (1.0 + np.exp(-(1.0 - (2.0 / 3.0) * math.log(0.1 / 1.1))))
        loss = float(np.sum((pred - y) ** 2)) / task.n_samples + 0.3 * 8 * p_active
        assert loss == pytest.approx(res.loss_trace[0], rel=1e-12)

    @pytest.mark.parametrize(
        "lr, lam, message",
        [
            (-1.0, 0.1, "lr must be finite and positive"),
            (0.0, 0.1, "lr must be finite and positive"),
            (math.nan, 0.1, "lr must be finite and positive"),
            (math.inf, 0.1, "lr must be finite and positive"),
            (0.05, -0.5, "lambda_reg must be finite and nonnegative"),
            (0.05, math.nan, "lambda_reg must be finite and nonnegative"),
            (0.05, math.inf, "lambda_reg must be finite and nonnegative"),
        ],
    )
    def test_lr_and_lambda_validated(self, lr, lam, message):
        with pytest.raises(ValueError, match=message):
            train_toy_gated(ToyRegressionTask(), "l0", lambda_reg=lam, steps=5, lr=lr)

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError, match="steps must be at least 1"):
            train_toy_gated(ToyRegressionTask(), "l0", lambda_reg=0.1, steps=0)

    @pytest.mark.parametrize("features, informative", [(3, 5), (4, 0), (0, 0)])
    def test_informative_features_must_fit(self, features, informative):
        with pytest.raises(ValueError, match="n_informative <= n_features"):
            ToyRegressionTask(n_features=features, n_informative=informative)


class TestSaturation:
    def test_extreme_log_alpha_saturates_without_warning(self):
        """At log_alpha = +-1000 the sigmoid's exp overflows; every public
        helper still returns exactly 0 or 1 and leaks no RuntimeWarning."""
        open_gate, shut_gate = HardConcreteGate(1000.0), HardConcreteGate(-1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hc_sample(open_gate, 0.5) == 1.0
            assert hc_sample(shut_gate, 0.5) == 0.0
            for mode in ("clipped_mean", "expected"):
                assert hc_deterministic(open_gate, mode) == 1.0
                assert hc_deterministic(shut_gate, mode) == 0.0
            assert hc_grads(open_gate, 0.3) == (0.0, 0.0)
            assert hc_grads(shut_gate, 0.3) == (0.0, 0.0)
            assert open_gate.active_probability() == 1.0
            assert shut_gate.active_probability() == 0.0
            gates = GateVector([open_gate, shut_gate])
            assert gates.criteria().tolist() == [1.0, 0.0]
            assert hc_penalty(gates) == 1.0


class TestTrainerOracle:
    @pytest.mark.parametrize("kind, lam", [("l0", 0.5), ("vib", 0.02)])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_inline_loop_exactly(self, kind, lam, seed):
        """The trainer, built on the shared gate functions, reproduces the
        loop with the formulas written inline bit for bit."""
        task = ToyRegressionTask()
        got = train_toy_gated(task, kind, lambda_reg=lam, steps=300, lr=0.05, seed=seed)
        want = train_toy_gated_inline(task, kind, lambda_reg=lam, steps=300, lr=0.05, seed=seed)
        assert np.array_equal(got.draws, want["draws"])
        assert got.loss_trace == want["loss_trace"]
        assert np.array_equal(got.weights, want["weights"])
        assert np.array_equal(got.gates.criteria(), want["criteria"])

    def test_scalar_helpers_use_the_trainer_arithmetic(self):
        """hc_sample, hc_grads and hc_deterministic equal the trainer's
        inline formulas exactly at noise values whose 1 - u is inexact,
        where log1p(-u) and log(1 - u) round differently."""
        beta, zeta, gamma = 2.0 / 3.0, 1.1, -0.1
        u = np.arange(1, 1000) / 1000
        for la in (-1.3, 0.0, 0.7):
            s = 1.0 / (1.0 + np.exp(-((np.log(u) - np.log1p(-u) + la) / beta)))
            sb = s * (zeta - gamma) + gamma
            dz = np.where((sb > 0.0) & (sb < 1.0), (zeta - gamma) * s * (1.0 - s) / beta, 0.0)
            g = HardConcreteGate(log_alpha=la)
            assert [hc_sample(g, float(ui)) for ui in u] == np.clip(sb, 0.0, 1.0).tolist()
            assert [hc_grads(g, float(ui))[0] for ui in u] == dz.tolist()
            mid = (np.arange(20_000) + 0.5) / 20_000
            s = 1.0 / (1.0 + np.exp(-((np.log(mid) - np.log1p(-mid) + la) / beta)))
            assert hc_deterministic(g, "expected") == np.mean(
                np.clip(s * (zeta - gamma) + gamma, 0.0, 1.0))


class TestTrainerAtBenchmarkScale:
    @pytest.mark.parametrize("kind", ["l0", "vib"])
    @pytest.mark.parametrize("seed", [1, 47])
    def test_matches_inline_loop_over_2000_steps(self, kind, seed):
        """At the length and penalty of a ``gates`` benchmark run, 8
        features and lambda = 0.05, the trainer on the stacked gate step
        still reproduces the inline loop bit for bit."""
        task = ToyRegressionTask(n_features=8)
        got = train_toy_gated(task, kind, lambda_reg=0.05, steps=2000, lr=0.05, seed=seed)
        want = train_toy_gated_inline(task, kind, lambda_reg=0.05, steps=2000, lr=0.05, seed=seed)
        assert np.array_equal(got.draws, want["draws"])
        assert got.loss_trace == want["loss_trace"]
        assert got.weights.tobytes() == want["weights"].tobytes()
        assert got.gates.criteria().tobytes() == want["criteria"].tobytes()
