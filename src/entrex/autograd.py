"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: every op builds its forward value eagerly and records a
backward closure plus parent links on the output tensor.  Calling
``backward()`` on a scalar walks the tape in reverse topological order,
accumulating gradients into every tensor that requires them.  The tape
is rebuilt on each forward pass; tensors and tapes are single-threaded.

A tensor owns its ``.grad``: no other tensor's gradient shares its memory,
and later backward passes add into it in place.  Callers that keep a
gradient past the next backward or optimizer step must copy it.
"""

from __future__ import annotations

import math

import numpy as np


class NumericsError(ArithmeticError):
    """Non-finite value produced where a finite one is required."""


_CHECK_FINITE = False


def set_debug_check_finite(enabled: bool) -> None:
    """Optional debug mode: raise as soon as any op emits a non-finite value."""
    global _CHECK_FINITE
    _CHECK_FINITE = enabled


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
        """Accumulate d(self)/d(leaf) into .grad over the recorded tape."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            return
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
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        _accumulate(self, np.ones_like(self.data), owned=True)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=True)


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add gradient g into t.grad, which t owns.

    On first write an ``owned`` g (a fresh buffer nothing else holds)
    becomes t.grad as it is; any other g may be a view of another tensor's
    gradient and is copied.  Later writes add in place, so callers must
    copy t.grad before they keep it.
    """
    if t.grad is None:
        # asarray: a ufunc on 0-d arrays returns a numpy scalar, not an array
        t.grad = np.asarray(g) if owned else np.array(g, copy=True)
    else:
        t.grad += g


def _grad_buffer(t: Tensor) -> np.ndarray:
    """t.grad, created as zeros on first use, for ops that scatter into it."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _CHECK_FINITE and not np.all(np.isfinite(data)):
        op = backward_fn.__qualname__.split(".", 1)[0]
        raise NumericsError(f"non-finite value in the forward pass of {op}")
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
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
        for t in (a, b):
            if t.requires_grad:
                # a reduced (broadcast) gradient is fresh; an unreduced one is g itself
                _accumulate(t, _unbroadcast(g, t.data.shape), owned=t.data.shape != g.shape)

    return _make(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape), owned=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape), owned=True)

    return _make(out, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s

    def backward(g):
        _accumulate(a, g * s, owned=True)

    return _make(out, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(
            f"matmul needs operands of rank >= 2, got {a.data.shape} @ {b.data.shape}"
        )
    out = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape), owned=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape), owned=True)

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


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        _accumulate(x, s * (g - dot), owned=True)

    return _make(s, (x,), backward)


def layer_norm(x: Tensor) -> Tensor:
    """Normalization over the last axis with eps 1e-5, without gain or bias."""
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.data - mean) * inv

    def backward(g):
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g - gm - xhat * (g * xhat).mean(axis=-1, keepdims=True)) * inv
        _accumulate(x, gx, owned=True)

    return _make(xhat, (x,), backward)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    # tanh approximation; derivative computed analytically below.  The cube
    # is two products: numpy's generic power is about 100x slower.
    u = _GELU_C * (x.data + _GELU_A * (x.data * x.data * x.data))
    t = np.tanh(u)
    out = 0.5 * x.data * (1.0 + t)

    def backward(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x.data**2)
        gx = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t**2) * du
        _accumulate(x, g * gx, owned=True)

    return _make(out, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in training mode."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0,1), got {p}")
    if p == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p) / (1.0 - p)
    keep = keep.astype(x.data.dtype)
    out = x.data * keep

    def backward(g):
        _accumulate(x, g * keep, owned=True)

    return _make(out, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _make(out, (x,), backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = x.data.transpose(axes)
    inverse = np.argsort(axes)

    def backward(g):
        _accumulate(x, g.transpose(inverse))

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
        _accumulate(logits, p * (g / t.size), owned=True)

    return _make(np.asarray(loss), (logits,), backward)
