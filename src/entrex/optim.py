"""Adam optimizer over named parameter tensors.

An ``AdamState`` serves one view of one dtype: the names it was first
stepped with.  It updates by segments: the parameters of at most one
dimension share one flat buffer the state owns and one pass of the
update, and each matrix is a segment of its own.  A vector's ``.data`` is
a view into that buffer, which every step writes, so copy it before
keeping it.  New values go in place, as ``RelationModel.load_state``
writes them; a replaced ``.data`` raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .autograd import Tensor

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # moment decay rates and the denominator's guard


@dataclass
class AdamState:
    """The learning rate, Adam's one hyperparameter (required, finite, positive), plus the moment buffers.

    Only ``lr`` is set by the caller.  ``first_moment`` and
    ``second_moment`` are keyed by parameter name; a vector's moments are
    views into its segment's buffers.
    """

    lr: float
    step_count: int = field(default=0, init=False)
    first_moment: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    # The array each parameter's .data must be; a matrix's is None until its first update.
    _slots: dict[str, np.ndarray | None] = field(default_factory=dict, init=False, repr=False)
    # The vectors' segment: parameter, moment and gathered-gradient buffers, then the names in their order.
    _vectors: tuple = field(default=(), init=False, repr=False)
    _matrices: list[str] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be finite and positive, got {self.lr}")


def adam_step(params: Mapping[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update; zeroes gradients afterwards.

    Every parameter must carry a gradient, and ``params`` must be the view
    ``state`` was first stepped with: the same names, every vector of one
    dtype, and each ``.data`` the array the state placed there; any other
    call raises before anything changes.  On its first update a parameter
    is copied into a buffer the state owns and ``.data`` points there, a
    vector's into the one buffer all vectors share; every later step
    writes into those buffers, so copy ``p.data`` before keeping it.  New
    values between steps go in place, as ``load_state`` writes them.
    """
    missing = [name for name, p in params.items() if p.grad is None]
    if missing:
        raise ValueError(f"parameters without gradients: {missing}")
    if not state._slots:
        _bind(params, state)
    elif params.keys() != state._slots.keys():
        raise ValueError(
            f"names differ from the view this AdamState serves: new {sorted(params.keys() - state._slots.keys())}, "
            f"absent {sorted(state._slots.keys() - params.keys())}"
        )
    replaced = [name for name, slot in state._slots.items() if slot is not None and params[name].data is not slot]
    if replaced:
        raise ValueError(f"parameters whose .data is not the array this AdamState placed: {replaced}")
    state.step_count += 1
    t = state.step_count
    correction1 = 1.0 - _BETA1**t
    correction2 = 1.0 - _BETA2**t
    if state._vectors:
        data, m, v, gathered, names = state._vectors
        g = np.concatenate([params[name].grad for name in names], axis=None, out=gathered)
        _update(data, g, m, v, state.lr, correction1, correction2)
        for name in names:
            params[name].grad = None
    for name in state._matrices:
        p = params[name]
        if state._slots[name] is None:
            # Allocated here, not in _bind, so each takes memory the gradients updated before it freed.
            state.first_moment[name] = np.zeros_like(p.data)
            state.second_moment[name] = np.zeros_like(p.data)
            p.data = state._slots[name] = p.data.copy()
        _update(p.data, p.grad, state.first_moment[name], state.second_moment[name], state.lr, correction1, correction2)
        p.grad = None


def _bind(params: Mapping[str, Tensor], state: AdamState) -> None:
    """Give ``state`` the names of ``params`` and the vectors' segment; raises first if the vectors' dtypes differ."""
    vectors = [name for name, p in params.items() if p.data.ndim <= 1]
    if len({params[name].data.dtype for name in vectors}) > 1:
        raise ValueError(f"vector parameters of more than one dtype: { {n: str(params[n].data.dtype) for n in vectors} }")
    state._slots = dict.fromkeys(params)
    state._matrices = [name for name in params if name not in vectors]
    if not vectors:
        return
    data = np.concatenate([params[name].data for name in vectors], axis=None)
    m, v = np.zeros_like(data), np.zeros_like(data)
    state._vectors = (data, m, v, np.empty_like(data), vectors)
    start = 0
    for name in vectors:
        p = params[name]
        shape, stop = p.data.shape, start + p.data.size
        p.data = state._slots[name] = data[start:stop].reshape(shape)
        state.first_moment[name] = m[start:stop].reshape(shape)
        state.second_moment[name] = v[start:stop].reshape(shape)
        start = stop


def _update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, lr: float, c1: float, c2: float) -> None:
    """The textbook update of one segment in place, one operation at a time in its order:
    m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g;  p = p - lr*(m/c1) / (sqrt(v/c2) + eps)
    """
    step = np.multiply(g, 1.0 - _BETA1, out=np.empty_like(m))
    m *= _BETA1
    m += step
    np.multiply(g, 1.0 - _BETA2, out=step)
    step *= g
    v *= _BETA2
    v += step
    denom = np.divide(v, c2, out=step)
    np.sqrt(denom, out=denom)
    denom += _EPS
    update = m / c1
    update *= lr
    update /= denom
    p -= update
