"""Stochastic-gradient Hamiltonian Monte Carlo step and the weight prior.

The stepper treats `grads` as the direction of motion: callers performing
posterior sampling pass the negative gradient of the potential (loss plus
negative log prior).  It takes moment-rescaled (adaptive) steps and adds
noise N(0, 2*friction*lr), the calibration of friction-damped SGHMC (Chen,
Fox & Guestrin, ICML 2014), directly to each parameter increment, so
`friction=0` reproduces the deterministic adaptive optimizer exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nnet import ParamSpec

__all__ = ["GlorotPrior", "AdamState", "adam_sghmc_step"]

# Moment decay rates and the denominator guard of the adaptive step.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class GlorotPrior:
    """Independent zero-mean Gaussian prior per tensor with fan-balanced
    variance gain**2 * 2 / (fan_in + fan_out)."""

    sigma2: tuple[float, ...]

    @classmethod
    def for_specs(cls, specs: list[ParamSpec], gain: float = 1.0) -> "GlorotPrior":
        return cls(tuple(gain**2 * 2.0 / (s.fan_in + s.fan_out) for s in specs))

    def neg_log_grad(self, params):
        """Gradient of -log p: theta / sigma^2 per tensor."""
        return [p / s2 for p, s2 in zip(params, self.sigma2)]


@dataclass
class AdamState:
    """First/second moment accumulators and step counter."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            t=0,
        )


def adam_sghmc_step(
    params,
    grads,
    state: AdamState,
    lr: float,
    friction: float,
    rng: np.random.Generator,
):
    """Adaptive moment step with posterior-exploration noise on the increment.

    With `friction=0` this is exactly the deterministic adaptive optimizer
    (moving along `grads`) and draws nothing from `rng`; otherwise
    N(0, 2*friction*lr) noise is added to the final parameter increment.

    Returns:
        (new_params, state) with `state`, and its moment arrays, updated in
        place.
    """
    state.t += 1
    c1 = 1.0 - BETA1**state.t
    c2 = 1.0 - BETA2**state.t
    std = np.sqrt(2.0 * friction * lr)
    new_p = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        mhat = m / c1
        vhat = v / c2
        delta = lr * mhat / (np.sqrt(vhat) + EPS)
        if std > 0.0:
            delta = delta + rng.normal(0.0, std, size=p.shape)
        new_p.append(p + delta)
    return new_p, state
