"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .autograd import Tensor

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # moment decay rates and the denominator's guard


@dataclass
class AdamState:
    """The learning rate, Adam's one hyperparameter (required, finite, positive), plus the moment buffers."""

    lr: float
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be finite and positive, got {self.lr}")


def adam_step(params: Mapping[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update; zeroes gradients afterwards.

    Every parameter must carry a gradient; moment buffers are created
    lazily with the parameter's shape and dtype.  Parameters and moments
    are updated in place: on its first step under ``state`` a parameter's
    data is copied into a buffer the optimizer owns, and every later step
    writes into that buffer, so copy ``p.data`` before keeping it.
    """
    missing = [name for name, p in params.items() if p.grad is None]
    if missing:
        raise ValueError(f"parameters without gradients: {missing}")
    state.step_count += 1
    t = state.step_count
    correction1 = 1.0 - _BETA1**t
    correction2 = 1.0 - _BETA2**t
    for name, p in params.items():
        g = p.grad
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = state.first_moment[name] = np.zeros_like(p.data)
            v = state.second_moment[name] = np.zeros_like(p.data)
            p.data = p.data.copy()
        # The textbook update, one operation at a time in its order:
        #   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g
        #   p = p - lr*(m/c1) / (sqrt(v/c2) + eps)
        step = np.multiply(g, 1.0 - _BETA1, out=np.empty_like(m))
        m *= _BETA1
        m += step
        np.multiply(g, 1.0 - _BETA2, out=step)
        step *= g
        v *= _BETA2
        v += step
        denom = np.divide(v, correction2, out=step)
        np.sqrt(denom, out=denom)
        denom += _EPS
        update = m / correction1
        update *= state.lr
        update /= denom
        p.data -= update
        p.grad = None
