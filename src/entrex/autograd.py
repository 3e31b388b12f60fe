"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: every op builds its forward value eagerly and records a
backward closure plus parent links on the output tensor.  Calling
``backward()`` on a scalar walks the tape in reverse topological order,
accumulating gradients into every parameter (leaf) that the loss depends
on.  The tape is rebuilt on each forward pass; tensors and tapes are
single-threaded.  An inference forward records no tape, so the model may
run some of its ops on the process's worker thread (``worker._RowWorker``).

``backward()`` consumes the tape as it walks it: once a node's closure has
run, the node holds no gradient, parents or closure, so each activation
and intermediate gradient is freed after its last consumer.  Only leaves
keep ``.grad``.  A second walk through a consumed node, from the same loss
or from a new op on one of its intermediates, raises before any gradient
changes; run the forward again instead.  The first ``backward()`` in a
process also asks glibc's malloc to keep freed memory rather than return
it to the OS, so the next step reuses the pages this one freed.

Only an op with a parameter (``requires_grad``) among its inputs records
a tape; an output computed from constants alone has none, and calling
``backward()`` on it raises.

A tensor owns its ``.grad`` (``_accumulate`` states the rule): no other
gradient shares its memory, and later backward passes add into it in place.
Copy a gradient to keep it past the next backward or optimizer step.
"""

from __future__ import annotations

import ctypes
import functools
import math
from typing import Mapping

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into each leaf's .grad, consuming the tape.

        Each non-leaf node gives up its gradient, parents and closure just
        before its closure runs, so the closure's gradient is its own to hand
        over, and on return no intermediate keeps a gradient or a tape.
        Raises if the tape, or any part of it, was consumed by an earlier call.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            raise ValueError(
                "backward() needs a tape, but this tensor was computed from constants only"
            )
        _keep_freed_memory()
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward_fn is _consumed:
                _consumed()  # before any closure has added into a gradient
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        _accumulate(self, np.ones_like(self.data))
        while topo:
            node = topo.pop()
            fn = node._backward_fn
            if fn is None:  # a leaf keeps its gradient
                continue
            g = node.grad
            node.grad, node._parents, node._backward_fn = None, (), _consumed
            fn(g)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


@functools.cache
def _keep_freed_memory() -> None:
    """Ask glibc's malloc to keep the memory that backward() frees.

    backward() frees most of a step's tape at the top of the heap.  glibc's
    adaptive default hands the heap top back to the OS once it exceeds
    twice the largest block it has unmapped so far, and the next forward
    faults every page in again: 600-700 page faults and 1.4-2 ms of kernel
    time per step of the benchmark's train workload on a 2-vCPU x86_64 host.
    So from the first backward() on, the heap is trimmed only beyond 1 GiB
    and arrays below 32 MiB come from it, as from a caching allocator.
    Where the C library has no mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 2**30)  # M_TRIM_THRESHOLD
    mallopt(-3, 2**25)  # M_MMAP_THRESHOLD, glibc's largest on 64-bit


def _consumed(g=None) -> None:
    """The closure of a node whose tape backward() has already consumed."""
    raise ValueError("backward() already ran through this tape; run the forward again")


def parameter(data) -> Tensor:
    """A parameter holding a copy of ``data``: the caller's array is never updated in place."""
    return Tensor(np.array(data, order="C"), requires_grad=True)


def flat_parameters(shapes: Mapping[str, tuple[int, ...]], dtype) -> dict[str, Tensor]:
    """Parameters named and shaped as ``shapes``, in its order, as consecutive views of one zeroed flat buffer.

    Each ``.data`` is a view whose ``.base`` is that buffer, so any run of
    consecutive names is one contiguous run of it (``optim`` steps such a run).
    """
    sizes = [math.prod(shape) for shape in shapes.values()]
    buffer, params, start = np.zeros(sum(sizes), dtype=dtype), {}, 0
    for (name, shape), size in zip(shapes.items(), sizes):
        params[name] = Tensor(buffer[start : start + size].reshape(shape), requires_grad=True)
        start += size
    return params


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add gradient g into t.grad, which t owns.

    backward() takes each node's gradient before it runs the node's closure,
    so a closure's g is its own to hand over: on first write g, or a view of
    it, becomes t.grad.  Only ``add`` copies, for a second same-shape operand.
    Later writes add in place, so callers must copy t.grad before keeping it.
    """
    if t.grad is None:
        t.grad = np.asarray(g)  # a ufunc on 0-d arrays returns a numpy scalar
    else:
        t.grad += g


def _grad_buffer(t: Tensor) -> np.ndarray:
    """t.grad, created as zeros on first use, for ops that scatter into it."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents, out._backward_fn = parents, backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            shared = a.requires_grad and a is not b and a.data.shape == b.data.shape == g.shape
            _accumulate(b, _unbroadcast(g.copy() if shared else g, b.data.shape))

    return _make(out, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s

    def backward(g):
        _accumulate(a, g * s)

    return _make(out, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(
            f"matmul needs operands of rank >= 2, got {a.data.shape} @ {b.data.shape}"
        )
    out = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        if b.requires_grad:
            at = a.data.swapaxes(-1, -2)
            # One row in a: each element of at @ g is one product, so the broadcast product has its bits.
            _accumulate(b, _unbroadcast(at * g if a.data.shape[-2] == 1 else at @ g, b.data.shape))

    return _make(out, (a, b), backward)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ValueError("embedding ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(
            f"embedding id out of range [0,{table.data.shape[0]}): "
            f"[{ids.min()},{ids.max()}]"
        )
    out = table.data[ids]

    def backward(g):
        np.add.at(_grad_buffer(table), ids, g)

    return _make(out, (table,), backward)


def softmax(x: Tensor, scale: float) -> Tensor:
    """Softmax over the last axis of ``x * scale``.

    The scaled copy is the one buffer that is shifted, exponentiated and
    normalised: the operations of ``softmax(scale(x, scale))`` in the same
    order, so the same bits, with one allocation instead of two.  Pass the
    scale as a Python float: a NumPy float64 scalar would promote float32
    scores to float64.
    """
    s = x.data * scale
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        g -= dot
        g *= s
        g *= scale
        _accumulate(x, g)

    return _make(s, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Affine normalization over the last axis with eps 1e-5: xhat * gain + bias.

    The centred array serves the variance and becomes xhat: the operations
    of ``(x - x.mean()) * (1 / sqrt(x.var() + 1e-5))`` in numpy's order,
    with one mean and one subtraction.  Each mean is numpy's sum and
    division by the row length, without ``np.mean``'s Python wrapper.  The
    gain and bias then apply as ``xhat * gain + bias`` would, in one tape
    node.
    """
    xhat = x.data - _row_mean(x.data)
    inv = 1.0 / np.sqrt(_row_mean(np.square(xhat)) + 1e-5)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def backward(g):
        if x.requires_grad:
            gn = g * gain.data
            gm = _row_mean(gn)
            _accumulate(x, (gn - gm - xhat * _row_mean(gn * xhat)) * inv)
        if gain.requires_grad:
            _accumulate(gain, _unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:  # last: bias.grad may become g itself, which the lines above read
            _accumulate(bias, _unbroadcast(g, bias.data.shape))

    return _make(out, (x, gain, bias), backward)


def _row_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)``, bit for bit: the same sum, divided by the row length."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    # tanh approximation; derivative computed analytically below.  The cube
    # is two products: numpy's generic power is about 100x slower.  u, then
    # tanh(u), are built in place in one array, in the order of
    # C * (x + A * (x * x * x)).
    t = x.data * x.data
    t *= x.data
    t *= _GELU_A
    t += x.data
    t *= _GELU_C
    np.tanh(t, out=t)
    out = 0.5 * x.data
    out *= 1.0 + t

    def backward(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x.data**2)
        gx = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t**2) * du
        _accumulate(x, g * gx)

    return _make(out, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout, training mode only; ``EncoderConfig`` checks that ``p`` is in [0, 1)."""
    dtype = x.data.dtype
    keep = (rng.random(x.data.shape) >= p).astype(dtype) * dtype.type(1.0 / (1.0 - p))
    out = x.data * keep

    def backward(g):
        _accumulate(x, g * keep)

    return _make(out, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _make(out, (x,), backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = x.data.transpose(axes)

    def backward(g):  # the inverse permutation only here: inference forwards never need it
        _accumulate(x, g.transpose(np.argsort(axes)))

    return _make(out, (x,), backward)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if not 0 <= start < stop <= x.data.shape[0]:
        raise ValueError(f"row slice [{start},{stop}) invalid for shape {x.data.shape}")
    out = x.data[start:stop]

    def backward(g):
        _grad_buffer(x)[start:stop] += g

    return _make(out, (x,), backward)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over rows of the negative log softmax probability of each row's target.

    ``logits`` is one row ``[k]`` with an int target or ``[m, k]`` with
    ``[m]`` int targets, ``k >= 2``; log-sum-exp stable.  This is the one
    place that checks a class index against its label count.
    """
    x = logits.data
    t = np.asarray(targets)
    if x.ndim not in (1, 2) or x.shape[0] == 0 or x.shape[-1] < 2:
        raise ValueError(f"cross_entropy needs [k] or [m, k] logits with m >= 1, k >= 2, got {x.shape}")
    if t.dtype.kind not in "iu" or t.shape != x.shape[:-1]:
        raise ValueError(f"targets (shape {t.shape}, dtype {t.dtype}) do not match logits {x.shape}")
    k = x.shape[-1]
    if any(not 0 <= i < k for i in t.flat):
        raise ValueError(f"target out of range [0,{k}): [{t.min()},{t.max()}]")
    pick = t if x.ndim == 1 else (np.arange(t.size), t)  # each row's target logit
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=-1, keepdims=True)
    loss = ((m + np.log(z))[..., 0] - x[pick]).sum() / t.size

    def backward(g):
        p = e / z
        p[pick] -= 1.0
        _accumulate(logits, p * (g / t.size))

    return _make(np.asarray(loss), (logits,), backward)
