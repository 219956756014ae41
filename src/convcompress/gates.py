"""Stochastic channel gates: hard-concrete (L0) and Gaussian (VIB).

Both gate families multiply a channel by a sampled factor z and add a
differentiable penalty to the training loss; channels whose gates end up
inactive can be removed.  The hard-concrete sample path is

    s  = sigmoid((log u - log(1 - u) + log_alpha) / beta)
    sb = s * (zeta - gamma) + gamma
    z  = clip(sb, 0, 1)

with the fixed constants beta=2/3, zeta=1.1, gamma=-0.1, and penalty
term sigmoid(log_alpha - beta * log(-gamma / zeta)) per gate, which equals
the probability that the gate is sampled nonzero.  The Gaussian gate is
z = mu + eps * sigma with penalty log(1 + mu^2 / sigma^2) per gate.

Each formula, with its gradient, is written once as an array-valued
private function that the scalar helpers, the criteria and the trainer share.
The sigmoid saturates to exactly 0 or 1 when its exp overflows; that
overflow is ignored once per public call (``np.errstate`` on
``train_toy_gated``, ``hc_sample``, ``hc_grads``, ``hc_deterministic``,
``HardConcreteGate.active_probability`` and ``GateVector.criteria``), not
inside the private functions, which run about ten times per training step.

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
_HC_WIDTH = HC_ZETA - HC_GAMMA
_HC_LOG_RATIO = HC_BETA * math.log(-HC_GAMMA / HC_ZETA)


def _sigmoid(x):
    """Logistic function; callers ignore the overflow of its saturated tails."""
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def _logit(u):
    """log(u) - log(1 - u) of noise u, checked to lie strictly inside (0, 1)."""
    if not np.all((0.0 < u) & (u < 1.0)):
        raise ValueError(f"u must be strictly inside (0, 1), got {u}")
    return np.log(u) - np.log1p(-u)


def _hc_stretch(logit, log_alpha):
    """Hard-concrete sample z and dz/dlog_alpha (0 where clipped) at noise ``logit``."""
    s = _sigmoid((logit + log_alpha) / HC_BETA)
    sb = s * _HC_WIDTH + HC_GAMMA
    dz = np.where((sb > 0.0) & (sb < 1.0), _HC_WIDTH * s * (1.0 - s) / HC_BETA, 0.0)
    return np.minimum(np.maximum(sb, 0.0), 1.0), dz


def _hc_active(log_alpha):
    """P(z != 0) of hard-concrete gates: the L0 penalty term."""
    return _sigmoid(log_alpha - _HC_LOG_RATIO)


def _vib_term(mu, sigma):
    """VIB penalty log(1 + mu^2 / sigma^2) per gate and its (d/dmu, d/dsigma)."""
    mu2, sigma2 = mu**2, sigma**2
    denom = sigma2 + mu2
    return np.log1p(mu2 / sigma2), 2.0 * mu / denom, -2.0 * mu2 / (sigma * denom)


@dataclass(frozen=True)
class HardConcreteGate:
    """Clipped, stretched concrete gate with learnable log_alpha."""

    log_alpha: float
    beta = HC_BETA  # fixed constants, not fields
    zeta = HC_ZETA
    gamma = HC_GAMMA

    @np.errstate(over="ignore")
    def active_probability(self) -> float:
        """P(z != 0) under the sampling distribution; the penalty term."""
        return float(_hc_active(self.log_alpha))


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

    @np.errstate(over="ignore")
    def criteria(self) -> Array:
        """Per-gate keep criterion: P(z != 0) for L0 gates, snr for VIB."""
        if self.kind == "l0":
            return _hc_active(np.array([g.log_alpha for g in self.gates]))
        return np.array([g.snr() for g in self.gates])


@np.errstate(over="ignore")
def hc_sample(gate: HardConcreteGate, u: float) -> float:
    """Sample z in [0, 1] from the hard-concrete distribution at noise u."""
    return float(_hc_stretch(_logit(u), gate.log_alpha)[0])


@np.errstate(over="ignore")
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
        return float(np.mean(_hc_stretch(_logit(u), gate.log_alpha)[0]))
    raise ValueError(f"mode must be 'clipped_mean' or 'expected', got {mode!r}")


def hc_penalty(gates: GateVector) -> float:
    """Sum of per-gate active probabilities (the L0 relaxation penalty)."""
    if gates.kind not in ("l0", "empty"):
        raise ValueError("hc_penalty needs hard-concrete gates")
    return float(gates.criteria().sum())


@np.errstate(over="ignore")
def hc_grads(gate: HardConcreteGate, u: float) -> tuple[float, float]:
    """(dz/dlog_alpha, dF_term/dlog_alpha) at noise u.

    The sample gradient is zero wherever the stretched sample is clipped.
    """
    _, dz = _hc_stretch(_logit(u), gate.log_alpha)
    p = _hc_active(gate.log_alpha)
    return float(dz), float(p * (1.0 - p))


def vib_sample(gate: VibGate, eps: float) -> float:
    """Reparameterized Gaussian sample z = mu + eps * sigma."""
    return float(gate.mu + eps * gate.sigma)


def vib_penalty(gates: GateVector) -> float:
    """Sum of log(1 + mu^2 / sigma^2) over the gates."""
    if gates.kind not in ("vib", "empty"):
        raise ValueError("vib_penalty needs Gaussian gates")
    return float(sum(_vib_term(g.mu, g.sigma)[0] for g in gates.gates))


def vib_grads(gate: VibGate) -> tuple[float, float]:
    """(dF_term/dmu, dF_term/dsigma) of the penalty term of one gate."""
    _, dmu, dsigma = _vib_term(gate.mu, gate.sigma)
    return float(dmu), float(dsigma)


@dataclass(frozen=True)
class GatePruneResult:
    kernel: Kernel4D
    kept: tuple[int, ...]
    cost: LayerCost


def kept_by_criteria(crit: Array, threshold: float) -> tuple[int, ...]:
    """Indices of the gates whose keep criterion reaches ``threshold`` (> 0)."""
    if not threshold > 0:  # also rejects NaN
        raise ValueError(f"threshold must be positive, got {threshold}")
    return tuple(int(i) for i in np.flatnonzero(crit >= threshold))


def prune_by_gates(
    gates: GateVector, kernel: Kernel4D, threshold: float, h: int = 1, w: int = 1
) -> GatePruneResult:
    """Drop output channels whose gate criterion falls below ``threshold``.

    Reports the achieved MAC reduction: the cost model's original layer
    with t reduced to the kept count.
    """
    crit = gates.criteria()
    if crit.size != kernel.t:
        raise ValueError(f"{crit.size} gates for {kernel.t} output channels")
    kept = kept_by_criteria(crit, threshold)
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

    def __post_init__(self):
        if not 1 <= self.n_informative <= self.n_features:
            raise ValueError(
                f"need 1 <= n_informative <= n_features, got {self.n_informative} "
                f"informative of {self.n_features} features"
            )

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


@np.errstate(over="ignore")  # sigmoid saturation; a diverged loss is caught below
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
    goes non-finite (divergent learning rate).  ``lr`` must be finite and
    positive and ``lambda_reg`` finite and nonnegative.
    """
    if kind not in ("l0", "vib"):
        raise ValueError(f"kind must be 'l0' or 'vib', got {kind!r}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and positive, got {lr}")
    if not (math.isfinite(lambda_reg) and lambda_reg >= 0):
        raise ValueError(f"lambda_reg must be finite and nonnegative, got {lambda_reg}")
    rng = np.random.default_rng(seed)
    x, y, _ = task.materialize(rng)
    n, p = x.shape
    weights = rng.normal(scale=0.1, size=p)
    loss_trace = []
    # every step's noise in one draw: the same stream as one draw per step
    if kind == "l0":
        log_alpha = np.full(p, 1.0)
        draws = np.clip(rng.uniform(size=(steps, p)), 1e-12, 1.0 - 1e-12)
        logits = _logit(draws)
    else:
        mu = np.full(p, 1.0)
        log_sigma = np.full(p, math.log(0.5))
        draws = rng.normal(size=(steps, p))
    for step in range(steps):
        if kind == "l0":
            z, dz_dla = _hc_stretch(logits[step], log_alpha)
            p_active = _hc_active(log_alpha)
            penalty = float(p_active.sum())
            dpen = p_active * (1.0 - p_active)
        else:
            eps = draws[step]
            sigma = np.exp(log_sigma)
            z = mu + eps * sigma
            terms, dpen_dmu, dpen_dsigma = _vib_term(mu, sigma)
            penalty = float(terms.sum())
        pred = x @ (weights * z)
        err = pred - y
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
