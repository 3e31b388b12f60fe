"""Property tests: optimised ops against their textbook formulas, and gradient ownership."""

import math
import threading
from itertools import combinations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entrex import autograd as ag
from entrex import optim
from entrex import worker as worker_module
from entrex.autograd import Tensor, parameter
from entrex.optim import _BETA1, _BETA2, _EPS, _TILE, AdamState, adam_step
from gradcheck import check_gradients, project, tape_nodes


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
@example(np.array([-1.3459221], dtype=np.float32))  # 1 + tanh(u) = 0.18: 6 ulp of the output, within this bound
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
@given(_float_arrays(np.float32, -0.671875, 50))
def test_gelu_float32_without_cancellation_within_few_ulp(x):
    """Where 1 + tanh(u) does not cancel, float32 outputs agree to a few ulp.

    1 + tanh(u) >= 1/2 from x = -0.67472 up; -0.671875 is the float32 bound
    just above.  A dense float32 grid reads at most 3 ulp there and 2 ulp
    on [0, 50], but 6 ulp on [-1.5, -0.675], where the sum cancels.
    """
    np.testing.assert_array_max_ulp(ag.gelu(Tensor(x)).data, _gelu_reference(x), maxulp=4)


def _unfused_softmax(x, c, g):
    """softmax(scale(x, c)) as the two ops computed it: the output, and x's gradient from g."""
    y = x * c
    e = np.exp(y - y.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    return s, s * (g - (g * s).sum(axis=-1, keepdims=True)) * c


def _unfused_layer_norm(x, gain, bias, g):
    """xhat * gain + bias as three ops computed it: the output, and the gradients of x,
    gain and bias from g, the last two summed over the leading axes as an add would."""
    mean = x.mean(axis=-1, keepdims=True)
    inv = 1 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (x - mean) * inv
    gn = g * gain
    gx = (gn - gn.mean(axis=-1, keepdims=True) - xhat * (gn * xhat).mean(axis=-1, keepdims=True)) * inv
    lead = tuple(range(x.ndim - 1))
    return xhat * gain + bias, gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def _unfused_gelu(x, g):
    C, A = ag._GELU_C, ag._GELU_A
    u = C * (x + A * (x * x * x))
    t = np.tanh(u)
    du = C * (1.0 + 3.0 * A * x**2)
    return 0.5 * x * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)


# name: (operand count, op on tensors, formula on arrays returning the output and each operand's gradient)
_KERNELS = {
    "softmax": (1, lambda c, x: ag.softmax(x, c), lambda c, g, x: _unfused_softmax(x, c, g)),
    "layer_norm": (3, lambda c, *xs: ag.layer_norm(*xs), lambda c, g, *xs: _unfused_layer_norm(*xs, g)),
    "gelu": (1, lambda c, x: ag.gelu(x), lambda c, g, x: _unfused_gelu(x, g)),
}


@st.composite
def _kernel_inputs(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=9))
    width = np.dtype(dtype).itemsize * 8
    x = draw(hnp.arrays(dtype, shape, elements=st.floats(-50, 50, width=width)))
    gain, bias = (draw(hnp.arrays(dtype, shape[-1:], elements=st.floats(-4, 4, width=width))) for _ in range(2))
    g = draw(hnp.arrays(dtype, shape, elements=st.floats(-10, 10, width=width)))
    scale = draw(st.floats(0.01, 4.0))  # a Python float, as the model passes it
    return (x, gain, bias), g, scale


@settings(max_examples=150, deadline=None)
@given(kernel=st.sampled_from(sorted(_KERNELS)), inputs=_kernel_inputs())
def test_kernels_bit_identical_to_the_unfused_formulas(kernel, inputs):
    """softmax(x, c), layer_norm(x, gain, bias) and gelu write fewer arrays
    than the formulas they replace, in the same operations and order: the
    same bits forward and backward, in float32 and float64."""
    arrays, g, scale = inputs
    n, op, reference = _KERNELS[kernel]
    out_ref, *grads_ref = reference(scale, g, *arrays[:n])
    tensors = [parameter(a.copy()) for a in arrays[:n]]
    out = op(scale, *tensors)
    out._backward_fn(g.copy())
    np.testing.assert_array_equal(out.data, out_ref, strict=True)
    for t, grad_ref in zip(tensors, grads_ref, strict=True):
        np.testing.assert_array_equal(t.grad, grad_ref, strict=True)


def _flat(arrays):
    """Parameters holding copies of ``arrays``, in order, as one run of one flat buffer."""
    tensors = ag.flat_parameters({f"p{i}": a.shape for i, a in enumerate(arrays)}, arrays[0].dtype)
    for t, a in zip(tensors.values(), arrays, strict=True):
        t.data[...] = a
    return tensors


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
    tensors = _flat(params)
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


def test_adam_over_tiles_gives_the_same_bits_on_the_worker_inline_and_textbook(monkeypatch):
    """A view of about 2.4 tiles, its parameters across the tile edges, stepped 3 times in float32:
    with the worker, with one CPU (inline) and by the textbook formula, every bit agrees."""
    rng = np.random.default_rng(50)
    shapes = [(300, 257), (_TILE - 5,), (7,), (97, 180), ()]
    params = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    grads = [[rng.standard_normal(s).astype(np.float32) for _ in range(3)] for s in shapes]
    update, on_main = optim._update, []

    def recording_update(*args):
        on_main.append(threading.current_thread() is threading.main_thread())
        update(*args)

    def stepped():
        tensors = _flat(params)
        state = AdamState(lr=1e-2)
        for step in range(3):
            for i, t in enumerate(tensors.values()):
                t.grad = grads[i][step].copy()
            adam_step(tensors, state)
        return [(t.data, state.first_moment[name], state.second_moment[name]) for name, t in tensors.items()]

    monkeypatch.setattr(optim, "_update", recording_update)
    threaded = stepped()
    if worker_module._cpu_count() > 1:
        assert sorted(on_main) == [False] * 3 + [True] * 6  # per step two tiles on the caller, one on the worker
    monkeypatch.setattr(worker_module, "_cpu_count", lambda: 1)
    inline = stepped()
    for i, ((p, m, v), (p_inline, m_inline, v_inline)) in enumerate(zip(threaded, inline, strict=True)):
        expected = _textbook_adam(params[i], grads[i], 1e-2)
        for got, got_inline, want in zip((p, m, v), (p_inline, m_inline, v_inline), expected, strict=True):
            np.testing.assert_array_equal(got, want, strict=True)
            np.testing.assert_array_equal(got_inline, want, strict=True)


_GRAPH_OPS = ("add", "layer_norm", "reshape", "transpose", "slice_rows", "embedding_lookup")


@st.composite
def _shared_leaf_graphs(draw):
    """Float64 leaves of one shape or of one row of it (sides <= 4), and ops over them.

    Each op reads a leaf or an earlier result.  An ``add`` takes a second
    operand of the same shape (the first one itself included, as in
    ``x + x``) or of one row, which broadcasts; either side may come first.
    A ``layer_norm`` draws its gain and its bias the same way, but
    normalises a leaf: at a row of equal values a LayerNorm turns the step
    h into about h / sqrt(1e-5), the width of its own linear region, so
    finite differences cannot follow one LayerNorm into another.
    """
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # Magnitudes in [0.5, 1.5]: near zero, a product of leaves has a
    # gradient below the finite difference's error (h^2 times its third
    # derivative).
    elements = st.floats(0.5, 1.5) | st.floats(-1.5, -0.5)
    leaves = [
        draw(hnp.arrays(np.float64, (draw(st.sampled_from((rows, 1))), cols), elements=elements))
        for _ in range(draw(st.integers(1, 3)))
    ]
    shapes = [a.shape for a in leaves]
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        op = draw(st.sampled_from(_GRAPH_OPS))
        i = draw(st.integers(0, (len(leaves) if op == "layer_norm" else len(shapes)) - 1))
        r, c = shapes[i]
        operands = [j for j, s in enumerate(shapes) if s in ((r, c), (1, c))]
        if op == "add":
            arg, shape = (draw(st.sampled_from(operands)), draw(st.booleans())), (r, c)
        elif op == "layer_norm":
            arg, shape = (draw(st.sampled_from(operands)), draw(st.sampled_from(operands))), (r, c)
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
        if op == "add":
            j, swap = arg
            read.add(j)
            nodes.append(ag.add(nodes[j], x) if swap else ag.add(x, nodes[j]))
        elif op == "layer_norm":
            read.update(arg)
            nodes.append(ag.layer_norm(x, *(nodes[j] for j in arg)))
        elif op == "reshape":
            nodes.append(ag.reshape(x, x.data.shape[::-1]))
        elif op == "transpose":
            nodes.append(ag.transpose(x, (1, 0)))
        elif op == "slice_rows":
            nodes.append(ag.slice_rows(x, *arg))
        else:
            nodes.append(ag.embedding_lookup(x, np.array(arg)))
    rng = np.random.default_rng(0)
    terms = [project(n, rng.standard_normal(n.data.shape)) for k, n in enumerate(nodes) if k not in read]
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
