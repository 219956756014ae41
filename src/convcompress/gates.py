"""Stochastic channel gates: hard-concrete (L0) and Gaussian (VIB).

Both gate families multiply a channel by a sampled factor z and add a
differentiable penalty to the training loss; channels whose gates end up
inactive can be removed.  The hard-concrete sample path is

    s  = sigmoid((log u - log(1 - u) + log_alpha) / beta)
    sb = s * (zeta - gamma) + gamma
    z  = clip(sb, 0, 1)

with the standard constants beta=2/3, zeta=1.1, gamma=-0.1, and penalty
term sigmoid(log_alpha - beta * log(-gamma / zeta)) per gate, which equals
the probability that the gate is sampled nonzero.  The Gaussian gate is
z = mu + eps * sigma with penalty log(1 + mu^2 / sigma^2) per gate.

A small full-batch trainer exercises the gates on planted-feature
regression tasks; it is deterministic given a seed and logs every noise
draw for replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernel import Array, Kernel4D, mac_cost, LayerCost

HC_BETA = 2.0 / 3.0
HC_ZETA = 1.1
HC_GAMMA = -0.1


def _sigmoid(x):
    with np.errstate(over="ignore"):  # saturates cleanly to 0/1
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


@dataclass
class HardConcreteGate:
    """Clipped, stretched concrete gate with learnable log_alpha."""

    log_alpha: float
    beta: float = HC_BETA
    zeta: float = HC_ZETA
    gamma: float = HC_GAMMA

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if not self.gamma < 0.0 < 1.0 < self.zeta:
            raise ValueError("stretch must satisfy gamma < 0 < 1 < zeta")

    def active_probability(self) -> float:
        """P(z != 0) under the sampling distribution; the penalty term."""
        return float(_sigmoid(self.log_alpha - self.beta * math.log(-self.gamma / self.zeta)))


@dataclass
class VibGate:
    """Gaussian multiplicative gate with learnable mean and spread."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def snr(self) -> float:
        """mu^2 / sigma^2; channels with a small ratio can be removed."""
        return self.mu**2 / self.sigma**2


@dataclass
class GateVector:
    """One gate per channel plus the penalty weight used in training."""

    gates: list
    lambda_reg: float = 0.0

    def __post_init__(self):
        if not self.gates:
            return
        kinds = {type(g) for g in self.gates}
        if len(kinds) > 1:
            raise ValueError("gate vector mixes gate kinds")

    @property
    def kind(self) -> str:
        if not self.gates:
            return "empty"
        return "l0" if isinstance(self.gates[0], HardConcreteGate) else "vib"

    def criteria(self) -> Array:
        """Per-gate keep criterion: P(z != 0) for L0 gates, snr for VIB."""
        if self.kind == "l0":
            return np.array([g.active_probability() for g in self.gates])
        return np.array([g.snr() for g in self.gates])


def hc_sample(gate: HardConcreteGate, u: float) -> float:
    """Sample z in [0, 1] from the hard-concrete distribution at noise u."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must be strictly inside (0, 1), got {u}")
    s = _sigmoid((math.log(u) - math.log(1.0 - u) + gate.log_alpha) / gate.beta)
    sb = s * (gate.zeta - gate.gamma) + gate.gamma
    return float(min(1.0, max(0.0, sb)))


def hc_deterministic(gate: HardConcreteGate, mode: str = "clipped_mean") -> float:
    """Deterministic test-time value of a hard-concrete gate.

    Two conventions are offered and neither is canonical:
    ``clipped_mean`` pushes the mean parameter through the stretch-and-clip
    (the sample at u = 1/2); ``expected`` integrates the sample over the
    noise by midpoint quadrature.
    """
    if mode == "clipped_mean":
        return hc_sample(gate, 0.5)
    if mode == "expected":
        u = (np.arange(20_000) + 0.5) / 20_000
        s = _sigmoid((np.log(u) - np.log1p(-u) + gate.log_alpha) / gate.beta)
        z = np.clip(s * (gate.zeta - gate.gamma) + gate.gamma, 0.0, 1.0)
        return float(np.mean(z))
    raise ValueError(f"mode must be 'clipped_mean' or 'expected', got {mode!r}")


def hc_penalty(gates: GateVector) -> float:
    """Sum of per-gate active probabilities (the L0 relaxation penalty)."""
    if gates.kind == "empty":
        return 0.0
    if gates.kind != "l0":
        raise ValueError("hc_penalty needs hard-concrete gates")
    return float(sum(g.active_probability() for g in gates.gates))


def hc_grads(gate: HardConcreteGate, u: float) -> tuple[float, float]:
    """(dz/dlog_alpha, dF_term/dlog_alpha) at noise u.

    The sample gradient is zero wherever the stretched sample is clipped.
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must be strictly inside (0, 1), got {u}")
    s = float(_sigmoid((math.log(u) - math.log(1.0 - u) + gate.log_alpha) / gate.beta))
    sb = s * (gate.zeta - gate.gamma) + gate.gamma
    if 0.0 < sb < 1.0:
        dz = (gate.zeta - gate.gamma) * s * (1.0 - s) / gate.beta
    else:
        dz = 0.0
    p = gate.active_probability()
    return dz, p * (1.0 - p)


def vib_sample(gate: VibGate, eps: float) -> float:
    """Reparameterized Gaussian sample z = mu + eps * sigma."""
    return float(gate.mu + eps * gate.sigma)


def vib_penalty(gates: GateVector) -> float:
    """Sum of log(1 + mu^2 / sigma^2) over the gates."""
    if gates.kind == "empty":
        return 0.0
    if gates.kind != "vib":
        raise ValueError("vib_penalty needs Gaussian gates")
    return float(sum(math.log1p(g.snr()) for g in gates.gates))


def vib_grads(gate: VibGate) -> tuple[float, float]:
    """(dF_term/dmu, dF_term/dsigma) of the penalty term of one gate."""
    denom = gate.sigma**2 + gate.mu**2
    return 2.0 * gate.mu / denom, -2.0 * gate.mu**2 / (gate.sigma * denom)


@dataclass(frozen=True)
class GatePruneResult:
    kernel: Kernel4D
    kept: tuple[int, ...]
    cost: LayerCost


def prune_by_gates(
    gates: GateVector, kernel: Kernel4D, threshold: float, h: int = 1, w: int = 1
) -> GatePruneResult:
    """Drop output channels whose gate criterion falls below ``threshold``.

    Reports the achieved MAC reduction: the cost model's original layer
    with t reduced to the kept count.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    crit = gates.criteria()
    if crit.size != kernel.t:
        raise ValueError(f"{crit.size} gates for {kernel.t} output channels")
    kept = tuple(int(i) for i in np.flatnonzero(crit >= threshold))
    if not kept:
        raise ValueError("threshold prunes every channel")
    pruned = Kernel4D(
        kernel.data[list(kept)].copy(),
        bias=None if kernel.bias is None else kernel.bias[list(kept)].copy(),
    )
    orig = mac_cost(kernel.s, kernel.t, kernel.k, h, w, "original")
    slim = mac_cost(kernel.s, len(kept), kernel.k, h, w, "original")
    cost = replace(
        orig,
        method="gate_prune",
        ranks=(len(kept),),
        macs_compressed=slim.macs_original,
        params_compressed=slim.params_original,
    )
    return GatePruneResult(kernel=pruned, kept=kept, cost=cost)


@dataclass(frozen=True)
class ToyRegressionTask:
    """Planted-feature linear regression: the first ``n_informative``
    features drive the response, the rest are pure noise inputs."""

    n_samples: int = 256
    n_features: int = 8
    n_informative: int = 4
    noise_std: float = 0.05

    def materialize(self, rng: np.random.Generator) -> tuple[Array, Array, Array]:
        x = rng.normal(size=(self.n_samples, self.n_features))
        w_true = np.zeros(self.n_features)
        signs = rng.choice([-1.0, 1.0], size=self.n_informative)
        w_true[: self.n_informative] = signs * rng.uniform(1.0, 2.0, size=self.n_informative)
        y = x @ w_true + self.noise_std * rng.normal(size=self.n_samples)
        return x, y, w_true


@dataclass
class ToyTrainResult:
    gates: GateVector
    weights: Array
    loss_trace: list[float]
    draws: Array
    task: ToyRegressionTask


def train_toy_gated(
    task: ToyRegressionTask,
    kind: str,
    lambda_reg: float,
    steps: int = 2000,
    lr: float = 0.05,
    seed: int = 0,
) -> ToyTrainResult:
    """Full-batch gradient descent on a gated linear model.

    Minimizes mean squared error plus ``lambda_reg`` times the gate penalty,
    with analytic reparameterized gradients.  Deterministic given the seed;
    the per-step noise draws are returned for replay.  Raises if the loss
    goes non-finite (divergent learning rate).
    """
    if kind not in ("l0", "vib"):
        raise ValueError(f"kind must be 'l0' or 'vib', got {kind!r}")
    rng = np.random.default_rng(seed)
    x, y, _ = task.materialize(rng)
    n, p = x.shape
    weights = rng.normal(scale=0.1, size=p)
    if kind == "l0":
        log_alpha = np.full(p, 1.0)
        log_ratio = HC_BETA * math.log(-HC_GAMMA / HC_ZETA)
    else:
        mu = np.full(p, 1.0)
        log_sigma = np.full(p, math.log(0.5))
    loss_trace = []
    draws = np.empty((steps, p))
    for step in range(steps):
        if kind == "l0":
            u = np.clip(rng.uniform(size=p), 1e-12, 1.0 - 1e-12)
            draws[step] = u
            s = _sigmoid((np.log(u) - np.log1p(-u) + log_alpha) / HC_BETA)
            sb = s * (HC_ZETA - HC_GAMMA) + HC_GAMMA
            z = np.clip(sb, 0.0, 1.0)
            dz_dla = np.where(
                (sb > 0.0) & (sb < 1.0), (HC_ZETA - HC_GAMMA) * s * (1.0 - s) / HC_BETA, 0.0
            )
            p_active = _sigmoid(log_alpha - log_ratio)
            penalty = float(np.sum(p_active))
            dpen = p_active * (1.0 - p_active)
        else:
            eps = rng.normal(size=p)
            draws[step] = eps
            sigma = np.exp(log_sigma)
            z = mu + eps * sigma
            denom = sigma**2 + mu**2
            penalty = float(np.sum(np.log1p(mu**2 / sigma**2)))
            dpen_dmu = 2.0 * mu / denom
            dpen_dsigma = -2.0 * mu**2 / (sigma * denom)
        pred = x @ (weights * z)
        err = pred - y
        with np.errstate(over="ignore"):  # divergence saturates to inf and is caught below
            loss = float(err @ err) / n + lambda_reg * penalty
        if not math.isfinite(loss):
            raise FloatingPointError(f"loss diverged at step {step}; lower the learning rate")
        loss_trace.append(loss)
        g_wz = (2.0 / n) * (x.T @ err)
        grad_w = g_wz * z
        if kind == "l0":
            grad_la = g_wz * weights * dz_dla + lambda_reg * dpen
            weights = weights - lr * grad_w
            log_alpha = log_alpha - lr * grad_la
        else:
            grad_mu = g_wz * weights + lambda_reg * dpen_dmu
            grad_ls = (g_wz * weights * eps + lambda_reg * dpen_dsigma) * sigma
            weights = weights - lr * grad_w
            mu = mu - lr * grad_mu
            log_sigma = log_sigma - lr * grad_ls
    if kind == "l0":
        gate_list = [HardConcreteGate(log_alpha=float(a)) for a in log_alpha]
    else:
        gate_list = [VibGate(mu=float(m), sigma=float(np.exp(ls))) for m, ls in zip(mu, log_sigma)]
    return ToyTrainResult(
        gates=GateVector(gates=gate_list, lambda_reg=lambda_reg),
        weights=weights,
        loss_trace=loss_trace,
        draws=draws,
        task=task,
    )
