"""Adam over named parameter tensors, stepped in place in tiles on up to two CPUs.

The model owns the parameters; an ``AdamState`` owns only its two flat
moments.  A state serves one view: the names it was first stepped with,
whose arrays must be one contiguous run of one buffer, in the view's
order (``autograd.flat_parameters`` lays such a buffer out; a lone
``parameter`` is a run of itself).  The first step checks that, raising
by name before anything changes, and from then on every step writes that
run in place, so copy ``.data`` before keeping it.  New values go in
place, as ``load_state`` writes them; a replaced ``.data`` raises.  A step
walks the run in tiles of ``_TILE`` elements; with two CPUs, a view of at
least two whole tiles updates the second half of them on the process's
worker thread (``worker._WORKER``).  The update is elementwise, so the
bits do not depend on the tiles or the thread.
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
    """The learning rate, Adam's one hyperparameter (required, finite, positive), plus the moments the state owns.

    Only ``lr`` is set by the caller.  ``first_moment`` and ``second_moment``
    map each name to a view into a flat moment buffer laid out as the view's
    run of parameters.  ``adam_step`` updates in tiles, on two CPUs from two
    whole tiles, to the same bits.
    """

    lr: float
    step_count: int = field(default=0, init=False)
    first_moment: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    # The array each parameter's .data must be, in the run's order.
    _slots: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)
    # The parameters' run and the two moment buffers, then each tile's start, stop and (slot index, start, stop) pieces.
    _flat: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be finite and positive, got {self.lr}")


def adam_step(params: Mapping[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update of the view's run of parameters, in place, tile by tile; zeroes gradients.

    Every parameter must carry a gradient, and ``params`` must be the view
    ``state`` was first stepped with: the same names, each ``.data`` still
    the array it was then, and on the first step one contiguous run of one
    buffer in dict order.  An empty view and any other call raise before
    anything changes.  A view of at least ``2 * _TILE`` elements on two CPUs
    updates half its tiles on the worker thread unless it is busy; the bits
    are the same either way.
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
        raise ValueError(f"parameters whose .data is not the array this AdamState was first stepped with: {replaced}")
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
    """Take the run of one buffer that ``params`` are, allocate its moments and plan its tiles.

    Raises first, naming each parameter whose ``.data`` does not continue
    the run: a view of another buffer or dtype, a strided view, or one that
    does not start where the previous one ends.
    """
    first = next(iter(params.values())).data
    buffer = _owner(first)
    end, broken = first.ctypes.data, []
    for name, p in params.items():
        a = p.data
        if _owner(a) is not buffer or a.dtype != buffer.dtype or not a.flags.c_contiguous or a.ctypes.data != end:
            broken.append(name)
        end = a.ctypes.data + a.nbytes
    if broken:
        raise ValueError(f"parameters that break the view's one contiguous run of one buffer: {broken}")
    offset = (first.ctypes.data - buffer.ctypes.data) // buffer.itemsize
    data = buffer.ravel(order="K")[offset : offset + sum(p.data.size for p in params.values())]
    m, v = np.zeros_like(data), np.zeros_like(data)
    tiles, start = [(a, min(a + _TILE, data.size), []) for a in range(0, data.size, _TILE)], 0
    for k, (name, p) in enumerate(params.items()):
        shape, stop = p.data.shape, start + p.data.size
        state._slots[name] = p.data
        state.first_moment[name] = m[start:stop].reshape(shape)
        state.second_moment[name] = v[start:stop].reshape(shape)
        for a, b, pieces in tiles:
            if start < b and stop > a:  # the tile holds part of this parameter
                pieces.append((k, max(start, a) - start, min(stop, b) - start))
        start = stop
    state._flat = data, m, v, tiles


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    return a if a.base is None else a.base


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
