"""Property tests: optimised ops against their textbook formulas, and gradient ownership."""

import math
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entrex import autograd as ag
from entrex.autograd import Tensor, parameter
from entrex.optim import _BETA1, _BETA2, _EPS, AdamState, adam_step
from gradcheck import check_gradients, mean_all, tape_nodes


def _gelu_reference(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def _float_arrays(dtype, lo, hi, max_side=8):
    width = np.dtype(dtype).itemsize * 8
    return hnp.arrays(
        dtype,
        hnp.array_shapes(min_dims=1, max_dims=2, max_side=max_side),
        elements=st.floats(lo, hi, width=width),
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(_float_arrays(np.float64, -50, 50), _float_arrays(np.float32, -50, 50)))
def test_gelu_forward_matches_cube_by_power(x):
    """x*x*x in place of x**3 moves the output by a few ulp of |x|.

    The formula adds 1 to tanh(u), which cancels for negative x, so the
    bound is in units of |x| (the scale of 0.5*x*(1 + tanh u)), not of
    the output.
    """
    out = ag.gelu(Tensor(x)).data
    ref = _gelu_reference(x)
    assert out.dtype == x.dtype
    eps = np.finfo(x.dtype).eps
    assert (np.abs(out - ref) <= 4 * eps * np.abs(x)).all()


@settings(max_examples=100, deadline=None)
@given(_float_arrays(np.float32, -1.5, 50))
def test_gelu_float32_without_cancellation_within_few_ulp(x):
    """Where 1 + tanh(u) does not cancel, float32 outputs agree to a few ulp."""
    np.testing.assert_array_max_ulp(ag.gelu(Tensor(x)).data, _gelu_reference(x), maxulp=4)


def _textbook_adam(p, grads, lr):
    """Allocating Adam with the module's constants: a fresh array for every intermediate."""
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = _BETA1 * m + (1.0 - _BETA1) * g
        v = _BETA2 * v + (1.0 - _BETA2) * g * g
        m_hat = m / (1.0 - _BETA1**t)
        v_hat = v / (1.0 - _BETA2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + _EPS)
    return p, m, v


@st.composite
def _adam_runs(draw):
    shapes = draw(st.lists(hnp.array_shapes(max_dims=2, max_side=6), min_size=1, max_size=4))
    steps = draw(st.integers(1, 6))
    params = [draw(hnp.arrays(np.float32, s, elements=st.floats(-4, 4, width=32))) for s in shapes]
    grads = [
        [draw(hnp.arrays(np.float32, s, elements=st.floats(-10, 10, width=32))) for _ in range(steps)]
        for s in shapes
    ]
    lr = draw(st.sampled_from([1e-3, 1e-2, 0.1]))
    return params, grads, lr


@settings(max_examples=100, deadline=None)
@given(_adam_runs())
def test_adam_step_bit_identical_to_textbook(run):
    params, grads, lr = run
    tensors = {f"p{i}": parameter(p.copy()) for i, p in enumerate(params)}
    state = AdamState(lr=lr)
    for step in range(len(grads[0])):
        for i, t in enumerate(tensors.values()):
            t.grad = grads[i][step].copy()
        adam_step(tensors, state)
    for i, (name, t) in enumerate(tensors.items()):
        p, m, v = _textbook_adam(params[i], grads[i], lr)
        assert t.data.dtype == np.float32
        assert (t.data == p).all()
        assert (state.first_moment[name] == m).all()
        assert (state.second_moment[name] == v).all()


_GRAPH_OPS = ("add", "mul", "reshape", "transpose", "slice_rows", "embedding_lookup")


@st.composite
def _shared_leaf_graphs(draw):
    """Float64 leaves of one shape or of one row of it (sides <= 4), and ops over them.

    Each op reads a leaf or an earlier result.  An ``add`` or ``mul`` takes a second operand of the same shape (the
    first one itself included, as in ``x + x``) or of one row, which
    broadcasts; either side may come first.
    """
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # Magnitudes in [0.5, 1.5]: near zero, a product of leaves has a
    # gradient below the finite difference's error (h^2 times its third
    # derivative), and ten squarings of a larger value overflow.
    elements = st.floats(0.5, 1.5) | st.floats(-1.5, -0.5)
    leaves = [
        draw(hnp.arrays(np.float64, (draw(st.sampled_from((rows, 1))), cols), elements=elements))
        for _ in range(draw(st.integers(1, 3)))
    ]
    shapes = [a.shape for a in leaves]
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        i = draw(st.integers(0, len(shapes) - 1))
        r, c = shapes[i]
        op = draw(st.sampled_from(_GRAPH_OPS))
        if op in ("add", "mul"):
            j = draw(st.sampled_from([j for j, s in enumerate(shapes) if s in ((r, c), (1, c))]))
            arg, shape = (j, draw(st.booleans())), (r, c)
        elif op in ("reshape", "transpose"):
            arg, shape = None, (c, r)
        elif op == "slice_rows":
            start = draw(st.integers(0, r - 1))
            arg = (start, draw(st.integers(start + 1, r)))
            shape = (arg[1] - start, c)
        else:
            arg = draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=4))
            shape = (len(arg), c)
        steps.append((op, i, arg))
        shapes.append(shape)
    return leaves, steps


def _graph_loss(leaves, steps):
    """Run ``steps``; the loss projects every result no later op reads."""
    nodes, read = list(leaves), set()
    for op, i, arg in steps:
        x = nodes[i]
        read.add(i)
        if op in ("add", "mul"):
            j, swap = arg
            read.add(j)
            a, b = (nodes[j], x) if swap else (x, nodes[j])
            nodes.append(getattr(ag, op)(a, b))
        elif op == "reshape":
            nodes.append(ag.reshape(x, x.data.shape[::-1]))
        elif op == "transpose":
            nodes.append(ag.transpose(x, (1, 0)))
        elif op == "slice_rows":
            nodes.append(ag.slice_rows(x, *arg))
        else:
            nodes.append(ag.embedding_lookup(x, np.array(arg)))
    rng = np.random.default_rng(0)
    terms = [
        mean_all(ag.mul(n, Tensor(rng.standard_normal(n.data.shape))))
        for k, n in enumerate(nodes)
        if k not in read
    ]
    loss = terms[0]
    for term in terms[1:]:
        loss = ag.add(loss, term)
    return loss


@settings(max_examples=50, deadline=None)
@given(_shared_leaf_graphs())
def test_gradients_handed_on_as_views_stay_correct_and_unshared(graph):
    """A closure hands its own gradient on: leaf gradients are right and share no memory."""
    arrays, steps = graph
    leaves = {f"x{i}": parameter(a) for i, a in enumerate(arrays)}
    loss = _graph_loss(list(leaves.values()), steps)
    nodes = tape_nodes(loss)
    loss.backward()
    leaf_ids = {id(t) for t in leaves.values()}
    assert all(t.grad is None for t in nodes if id(t) not in leaf_ids)
    for a, b in combinations([t.grad for t in leaves.values()], 2):
        assert not np.shares_memory(a, b)
    for t in leaves.values():
        t.grad = None
    check_gradients(lambda: _graph_loss(list(leaves.values()), steps), leaves)
