"""Adam over named parameter tensors, in one flat buffer updated in tiles on up to two CPUs.

An ``AdamState`` serves one view of one dtype: the names it was first
stepped with.  That step copies every parameter of the view into one flat
buffer the state owns, beside two flat moments, and points each ``.data``
at its slice; every step writes there, so copy ``.data`` before keeping
it.  New values go in place, as ``load_state`` writes them; a replaced
``.data`` raises.  A step walks the buffer in tiles of ``_TILE`` elements;
with two CPUs, a view of at least two whole tiles updates the second half
of them on the process's worker thread (``worker._WORKER``).  The update is
elementwise, so the bits do not depend on the tiles or the thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import worker
from .autograd import Tensor

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # moment decay rates and the denominator's guard
_TILE = 2**16  # elements per tile: six float32 tiles fit one core's 2 MiB L2


@dataclass
class AdamState:
    """The learning rate, Adam's one hyperparameter (required, finite, positive), plus the flat buffers.

    Only ``lr`` is set by the caller.  ``first_moment`` and ``second_moment``
    map each name to a view into a flat buffer of the view's one dtype.
    ``adam_step`` updates in tiles, on two CPUs from two whole tiles, to the same bits.
    """

    lr: float
    step_count: int = field(default=0, init=False)
    first_moment: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    # The array each parameter's .data must be, in the buffer's order.
    _slots: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)
    # The flat parameter and moment buffers, then each tile's start, stop and (slot index, start, stop) pieces.
    _flat: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be finite and positive, got {self.lr}")


def adam_step(params: Mapping[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update of the state's flat buffer, tile by tile; zeroes gradients afterwards.

    Every parameter must carry a gradient, and ``params`` must be the view
    ``state`` was first stepped with: the same names, all of one dtype, and
    each ``.data`` the array the state placed there.  An empty view and any
    other call raise before anything changes.  A view of at least ``2 *
    _TILE`` elements on two CPUs updates half its tiles on the worker thread
    unless it is busy; the bits are the same either way.
    """
    if not params:
        raise ValueError("an empty parameter view: adam_step has nothing to update")
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
    replaced = [name for name, slot in state._slots.items() if params[name].data is not slot]
    if replaced:
        raise ValueError(f"parameters whose .data is not the array this AdamState placed: {replaced}")
    state.step_count += 1
    c1, c2 = 1.0 - _BETA1**state.step_count, 1.0 - _BETA2**state.step_count
    grads = [params[name].grad.reshape(-1) for name in state._slots]
    data, m, v, tiles = state._flat

    def update(tiles):
        gathered = np.empty(_TILE, dtype=data.dtype)  # owned by the thread that runs these tiles
        for start, stop, pieces in tiles:
            g = np.concatenate([grads[k][lo:hi] for k, lo, hi in pieces], out=gathered[: stop - start])
            _update(data[start:stop], g, m[start:stop], v[start:stop], state.lr, c1, c2)

    if data.size < 2 * _TILE:
        update(tiles)
    else:
        half = (len(tiles) + 1) // 2
        worker._WORKER.run(lambda: update(tiles[:half]), lambda: update(tiles[half:]))
    for p in params.values():
        p.grad = None


def _bind(params: Mapping[str, Tensor], state: AdamState) -> None:
    """Copy ``params`` into the state's flat buffer and plan its tiles; raises first if their dtypes differ."""
    dtypes = {name: str(p.data.dtype) for name, p in params.items()}
    if len(set(dtypes.values())) > 1:
        raise ValueError(f"parameters of more than one dtype: {dtypes}")
    data = np.concatenate([p.data for p in params.values()], axis=None)
    m, v = np.zeros_like(data), np.zeros_like(data)
    tiles, start = [(a, min(a + _TILE, data.size), []) for a in range(0, data.size, _TILE)], 0
    for k, (name, p) in enumerate(params.items()):
        shape, stop = p.data.shape, start + p.data.size
        p.data = state._slots[name] = data[start:stop].reshape(shape)
        state.first_moment[name] = m[start:stop].reshape(shape)
        state.second_moment[name] = v[start:stop].reshape(shape)
        for a, b, pieces in tiles:
            if start < b and stop > a:  # the tile holds part of this parameter
                pieces.append((k, max(start, a) - start, min(stop, b) - start))
        start = stop
    state._flat = data, m, v, tiles


def _update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, lr: float, c1: float, c2: float) -> None:
    """The textbook update of one tile in place, one operation at a time in its order:
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
