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
The hard-concrete one, ``_hard_concrete(n)``, is built for rows of n gates
and evaluates the sample and the penalty term as two rows of one array: one
sigmoid call gives the stretch s and P(z != 0), and one product gives both
of their derivatives.  The trainer stacks the weights over the gate
parameters and steps them with one update, so a training step makes few
numpy calls on its short per-gate arrays, with the bits of the formulas
evaluated one at a time.
The sigmoid saturates to exactly 0 or 1 when its exp overflows; that
overflow is ignored once per public call (``np.errstate`` on
``train_toy_gated``, ``hc_sample``, ``hc_grads``, ``hc_deterministic``,
``HardConcreteGate.active_probability`` and ``GateVector.criteria``), not
inside the private functions, which the trainer calls once per step.

A small full-batch trainer exercises the gates on planted-feature
regression tasks; it is deterministic given a seed and logs every noise
draw for replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import Array, Kernel4D, LayerCost, layer_cost
from .linalg import integer

HC_BETA = 2.0 / 3.0
HC_ZETA = 1.1
HC_GAMMA = -0.1
_HC_WIDTH = HC_ZETA - HC_GAMMA
_HC_LOG_RATIO = HC_BETA * math.log(-HC_GAMMA / HC_ZETA)


def _logit(u):
    """log(u) - log(1 - u) of noise u, checked to lie strictly inside (0, 1)."""
    if not np.all((0.0 < u) & (u < 1.0)):
        raise ValueError(f"u must be strictly inside (0, 1), got {u}")
    return np.log(u) - np.log1p(-u)


def _hc_noise(logit):
    """Noise logits stacked over the constant -log_ratio along axis -2: the
    rows (logit, -log_ratio) that :func:`_hard_concrete` adds log_alpha to."""
    logit = np.atleast_1d(logit)
    return np.stack([logit, np.full_like(logit, -_HC_LOG_RATIO)], axis=-2)


def _hard_concrete(n: int):
    """The hard-concrete gate math for rows of ``n`` gates, as a function
    ``gate(noise, log_alpha)`` of the stacked rows of :func:`_hc_noise`.

    ``gate`` returns the sample z, dz/dlog_alpha (0 where clipped), the
    penalty term P(z != 0) and its derivative.  One sigmoid over both rows
    gives s = sigmoid((logit + log_alpha) / beta) and
    p = sigmoid(log_alpha - log_ratio): adding -log_ratio is exactly
    subtracting it, dividing by 1 is exact, and dividing by the negated
    scale is exactly negating the quotient.  One product then gives
    width * s * (1 - s) and p * (1 - p).  The constants are stored at the
    full row length because numpy charges about as much to broadcast an
    operand as to apply the operation to a few gates.
    """
    ones, zeros = np.ones((2, n)), np.zeros(n)
    one = ones[0]
    neg_scale = np.repeat([[-HC_BETA], [-1.0]], n, axis=1)
    slope_scale = np.repeat([[_HC_WIDTH], [1.0]], n, axis=1)
    width, gamma, beta = (np.full(n, c) for c in (_HC_WIDTH, HC_GAMMA, HC_BETA))

    def gate(noise, log_alpha):
        sp = ones / (ones + np.exp((noise + log_alpha) / neg_scale))
        sb = sp[0] * width + gamma
        slope = slope_scale * sp * (ones - sp)
        dz = np.where((sb > zeros) & (sb < one), slope[0] / beta, zeros)
        return np.minimum(np.maximum(sb, zeros), one), dz, sp[1], slope[1]

    return gate


def _hc_at(logit, log_alpha):
    """:func:`_hard_concrete` called once, at noise logits ``logit``; the
    penalty row takes no noise, so any logit serves for it alone."""
    noise = _hc_noise(logit)
    return _hard_concrete(noise.shape[-1])(noise, log_alpha)


def _vib_term(mu, sigma):
    """VIB penalty log(1 + mu^2 / sigma^2) per gate and its (d/dmu, d/dsigma)."""
    mu2, sigma2 = mu**2, sigma**2
    denom = sigma2 + mu2
    return np.log1p(mu2 / sigma2), 2.0 * mu / denom, -2.0 * mu2 / (sigma * denom)


def _check_lambda_reg(lambda_reg: float) -> None:
    if not (math.isfinite(lambda_reg) and lambda_reg >= 0):
        raise ValueError(f"lambda_reg must be finite and nonnegative, got {lambda_reg}")


@dataclass(frozen=True)
class HardConcreteGate:
    """Clipped, stretched concrete gate with learnable log_alpha."""

    log_alpha: float
    beta = HC_BETA  # fixed constants, not fields
    zeta = HC_ZETA
    gamma = HC_GAMMA

    def __post_init__(self):
        if not math.isfinite(self.log_alpha):
            raise ValueError(f"log_alpha must be finite, got {self.log_alpha}")

    @np.errstate(over="ignore")
    def active_probability(self) -> float:
        """P(z != 0) under the sampling distribution; the penalty term."""
        return float(_hc_at(0.0, self.log_alpha)[2][0])


@dataclass(frozen=True)
class VibGate:
    """Gaussian multiplicative gate with learnable mean and spread."""

    mu: float
    sigma: float

    def __post_init__(self):
        for name in ("mu", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def snr(self) -> float:
        """mu^2 / sigma^2; channels with a small ratio can be removed."""
        return self.mu**2 / self.sigma**2


@dataclass(frozen=True)
class GateVector:
    """One gate per channel plus the penalty weight used in training."""

    gates: list
    lambda_reg: float = 0.0

    def __post_init__(self):
        _check_lambda_reg(self.lambda_reg)
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
            return _hc_at(np.zeros(len(self.gates)), np.array([g.log_alpha for g in self.gates]))[2]
        return np.array([g.snr() for g in self.gates])


@np.errstate(over="ignore")
def hc_sample(gate: HardConcreteGate, u: float) -> float:
    """Sample z in [0, 1] from the hard-concrete distribution at noise u."""
    return float(_hc_at(_logit(u), gate.log_alpha)[0][0])


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
        return float(np.mean(_hc_at(_logit(u), gate.log_alpha)[0]))
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
    _, dz, _, dpen = _hc_at(_logit(u), gate.log_alpha)
    return float(dz[0]), float(dpen[0])


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
    """Indices of the gates whose keep criterion reaches ``threshold`` (> 0);
    a threshold that keeps no gate is refused."""
    if not threshold > 0:  # also rejects NaN
        raise ValueError(f"threshold must be positive, got {threshold}")
    kept = tuple(int(i) for i in np.flatnonzero(crit >= threshold))
    if not kept:
        raise ValueError("threshold prunes every channel")
    return kept


def prune_by_gates(
    gates: GateVector, kernel: Kernel4D, threshold: float, h: int = 1, w: int = 1
) -> GatePruneResult:
    """Drop output channels whose gate criterion falls below ``threshold``.

    Reports the achieved MAC reduction: the :func:`layer_cost` of the
    pruned kernel's entries against the original layer.
    """
    crit = gates.criteria()
    if crit.size != kernel.t:
        raise ValueError(f"{crit.size} gates for {kernel.t} output channels")
    kept = kept_by_criteria(crit, threshold)
    pruned = Kernel4D(
        kernel.data[list(kept)].copy(),
        bias=None if kernel.bias is None else kernel.bias[list(kept)].copy(),
    )
    cost = layer_cost(kernel.s, kernel.t, kernel.k, h, w, pruned.data.size, "gate_prune",
                      (len(kept),))
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
        for name, minimum in (("n_samples", 1), ("n_features", None), ("n_informative", None)):
            object.__setattr__(self, name, integer(getattr(self, name), name, minimum))
        if not math.isfinite(self.noise_std):
            raise ValueError(f"noise_std must be finite, got {self.noise_std}")
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


class DivergedError(FloatingPointError):
    """A toy training run whose loss or parameters went non-finite."""

    code = "diverged"


@dataclass
class ToyTrainResult:
    gates: GateVector
    weights: Array
    loss_trace: list[float]
    draws: Array
    task: ToyRegressionTask


# sigmoid saturation, or a VIB sigma that underflows to 0: a diverged loss is caught below
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
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
    the per-step noise draws are returned for replay.  Raises
    :class:`DivergedError` if the loss or a parameter goes non-finite, or a
    VIB sigma reaches 0 (divergent learning rate).  ``lr`` must be finite and
    positive and ``lambda_reg`` finite and nonnegative.
    """
    if kind not in ("l0", "vib"):
        raise ValueError(f"kind must be 'l0' or 'vib', got {kind!r}")
    steps = integer(steps, "steps")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and positive, got {lr}")
    _check_lambda_reg(lambda_reg)
    rng = np.random.default_rng(integer(seed, "seed", 0))
    x, y, _ = task.materialize(rng)
    n, p = x.shape
    xt = x.T
    weights = rng.normal(scale=0.1, size=p)
    loss_trace = []
    # theta stacks the weights over the gate parameters, so that one update
    # steps them all; the names below are views of its rows.  Every step's
    # noise comes in one draw: the same stream as one draw per step.
    if kind == "l0":
        theta = np.array([weights, np.full(p, 1.0)])
        weights, log_alpha = theta
        draws = np.clip(rng.uniform(size=(steps, p)), 1e-12, 1.0 - 1e-12)
        noise = _hc_noise(_logit(draws))
        hard_concrete = _hard_concrete(p)
    else:
        theta = np.array([weights, np.full(p, 1.0), np.full(p, math.log(0.5))])
        weights, mu, log_sigma = theta
        draws = rng.normal(size=(steps, p))
    grad = np.empty_like(theta)
    grad_w, *grad_gate = grad
    # scalars at full length, like the constants of _hard_concrete
    mse_scale, lam, lrs = np.full(p, 2.0 / n), np.full(p, lambda_reg), np.full_like(theta, lr)
    for step in range(steps):
        if kind == "l0":
            z, dz_dla, p_active, dpen = hard_concrete(noise[step], log_alpha)
            penalty = float(p_active.sum())
        else:
            eps = draws[step]
            sigma = np.exp(log_sigma)
            z = mu + eps * sigma
            terms, dpen_dmu, dpen_dsigma = _vib_term(mu, sigma)
            penalty = float(terms.sum())
        err = x @ (weights * z) - y
        loss = float(err @ err) / n + lambda_reg * penalty
        if not math.isfinite(loss):
            raise DivergedError(f"loss diverged at step {step}; lower the learning rate")
        loss_trace.append(loss)
        g_wz = mse_scale * (xt @ err)
        g_w = g_wz * weights
        np.multiply(g_wz, z, out=grad_w)
        if kind == "l0":
            np.add(g_w * dz_dla, lam * dpen, out=grad_gate[0])
        else:
            np.add(g_w, lam * dpen_dmu, out=grad_gate[0])
            np.multiply(g_w * eps + lam * dpen_dsigma, sigma, out=grad_gate[1])
        theta -= lrs * grad
    weights = weights.copy()
    params = [weights, log_alpha] if kind == "l0" else [weights, mu, np.exp(log_sigma)]
    if not all(np.isfinite(a).all() for a in params) or (kind == "vib" and not params[2].all()):
        raise DivergedError(f"parameters diverged at step {steps - 1}; lower the learning rate")
    if kind == "l0":
        gate_list = [HardConcreteGate(log_alpha=float(a)) for a in log_alpha]
    else:
        gate_list = [VibGate(mu=float(m), sigma=float(s)) for m, s in zip(mu, params[2])]
    return ToyTrainResult(
        gates=GateVector(gates=gate_list, lambda_reg=lambda_reg),
        weights=weights,
        loss_trace=loss_trace,
        draws=draws,
        task=task,
    )
