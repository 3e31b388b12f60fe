"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .autograd import Tensor


@dataclass
class AdamState:
    """Optimizer hyperparameters plus per-parameter moment buffers."""

    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)


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
    correction1 = 1.0 - state.beta1**t
    correction2 = 1.0 - state.beta2**t
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
        step = np.multiply(g, 1.0 - state.beta1, out=np.empty_like(m))
        m *= state.beta1
        m += step
        np.multiply(g, 1.0 - state.beta2, out=step)
        step *= g
        v *= state.beta2
        v += step
        denom = np.divide(v, correction2, out=step)
        np.sqrt(denom, out=denom)
        denom += state.eps
        update = m / correction1
        update *= state.lr
        update /= denom
        p.data -= update
        p.grad = None
