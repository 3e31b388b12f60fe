"""Property tests: optimised ops against their textbook formulas."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entrex import autograd as ag
from entrex.autograd import Tensor, parameter
from entrex.optim import AdamState, adam_step


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


def _textbook_adam(p, grads, lr, beta1, beta2, eps):
    """Allocating Adam: a fresh array for every intermediate."""
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
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
    beta1 = draw(st.sampled_from([0.0, 0.5, 0.9]))
    beta2 = draw(st.sampled_from([0.9, 0.999]))
    return params, grads, lr, beta1, beta2


@settings(max_examples=100, deadline=None)
@given(_adam_runs())
def test_adam_step_bit_identical_to_textbook(run):
    params, grads, lr, beta1, beta2 = run
    tensors = {f"p{i}": parameter(p.copy()) for i, p in enumerate(params)}
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2)
    for step in range(len(grads[0])):
        for i, t in enumerate(tensors.values()):
            t.grad = grads[i][step].copy()
        adam_step(tensors, state)
    for i, (name, t) in enumerate(tensors.items()):
        p, m, v = _textbook_adam(params[i], grads[i], lr, beta1, beta2, state.eps)
        assert t.data.dtype == np.float32
        assert (t.data == p).all()
        assert (state.first_moment[name] == m).all()
        assert (state.second_moment[name] == v).all()
