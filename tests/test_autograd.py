"""Gradient checks for every differentiable op, plus Adam trace tests."""

import json
import math
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from entrex import autograd as ag
from entrex import worker as worker_module
from entrex.autograd import Tensor, parameter
from entrex.optim import _BETA1, _BETA2, _EPS, _TILE, AdamState, adam_step
from gradcheck import check_gradients, finite_difference_grad, max_rel_error, mean_all, project, tape_nodes


def _rng(seed=0):
    return np.random.default_rng(seed)


def _rand(rng, *shape):
    return parameter(rng.standard_normal(shape))


def _project(out: Tensor, rng) -> Tensor:
    """Reduce op output to a scalar through a fixed random projection."""
    return project(out, rng.standard_normal(out.data.shape))


class TestForwardValues:
    def test_softmax_symmetry(self):
        s = ag.softmax(Tensor(np.array([0.0, 0.0])), 1.0)
        np.testing.assert_allclose(s.data, [0.5, 0.5])

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(_rng(1).standard_normal((4, 7)) * 5)
        s = ag.softmax(x, 1.0).data
        assert (s >= 0).all()
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 5), (4, 9, 9)])
    def test_softmax_equals_the_straight_line_formula(self, shape, dtype):
        """Forward and backward are bit-equal to the textbook formulas."""
        rng = _rng(5)
        data = (rng.standard_normal(shape) * 4).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        e = np.exp(data - data.max(axis=-1, keepdims=True))
        expected = e / e.sum(axis=-1, keepdims=True)
        x = parameter(data)
        s = ag.softmax(x, 1.0)
        s._backward_fn(g.copy())  # a closure owns, and may overwrite, the gradient it is handed
        assert s.data.dtype == dtype
        assert np.array_equal(s.data, expected)
        assert np.array_equal(x.grad, expected * (g - (g * expected).sum(axis=-1, keepdims=True)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "a_shape, b_shape", [((1, 128), (128, 512)), ((4, 1, 32), (4, 32, 77)), ((4, 1, 32), (32, 77))]
    )
    def test_matmul_one_row_weight_gradient_equals_the_product(self, a_shape, b_shape, dtype):
        """With one row in a, b's gradient is bit-equal to a.T @ g (summed over
        the batch when b is broadcast)."""
        rng = _rng(6)
        a = Tensor(rng.standard_normal(a_shape).astype(dtype))
        b = parameter(rng.standard_normal(b_shape).astype(dtype))
        out = ag.matmul(a, b)
        g = rng.standard_normal(out.data.shape).astype(dtype)
        out._backward_fn(g)
        expected = a.data.swapaxes(-1, -2) @ g
        if expected.shape != b_shape:
            expected = expected.sum(axis=0)
        assert b.grad.dtype == dtype
        assert np.array_equal(b.grad, expected)

    def test_layer_norm_of_constant_vector_is_zero(self):
        x = Tensor(np.full(6, 3.25))
        out = ag.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_cross_entropy_uniform_is_log_k(self):
        for k in (2, 5, 11):
            loss = ag.cross_entropy(Tensor(np.zeros(k)), 0)
            np.testing.assert_allclose(loss.item(), math.log(k), rtol=1e-12)

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.zeros(4)
        logits[2] = 50.0
        assert ag.cross_entropy(Tensor(logits), 2).item() < 1e-12

    def test_cross_entropy_matches_naive_formula(self):
        rng = _rng(3)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            logits = rng.standard_normal(k) * 3
            target = int(rng.integers(k))
            t = parameter(logits.copy())
            loss = ag.cross_entropy(t, target)
            p = np.exp(logits) / np.exp(logits).sum()
            np.testing.assert_allclose(loss.item(), -np.log(p[target]), rtol=1e-10)
            loss.backward()
            expected = p.copy()
            expected[target] -= 1.0
            np.testing.assert_allclose(t.grad, expected, atol=1e-10)

    def test_cross_entropy_target_out_of_range(self):
        with pytest.raises(ValueError):
            ag.cross_entropy(Tensor(np.zeros(3)), 3)
        with pytest.raises(ValueError, match="out of range"):
            ag.cross_entropy(Tensor(np.zeros((2, 3))), [0, -1])

    def test_cross_entropy_rows_is_mean_of_single_rows(self):
        rng = _rng(4)
        logits = rng.standard_normal((5, 6)) * 3
        targets = rng.integers(6, size=5)
        rows = [ag.cross_entropy(Tensor(logits[i]), int(targets[i])).item() for i in range(5)]
        loss = ag.cross_entropy(Tensor(logits), targets)
        assert loss.data.shape == ()
        np.testing.assert_allclose(loss.item(), np.mean(rows), rtol=1e-12)

    @pytest.mark.parametrize(
        "shape, targets",
        [
            ((3,), [1]),             # a [k] row takes an int target
            ((2, 3), 1),             # [m, k] rows take [m] targets
            ((2, 3), [0, 1, 2]),
            ((2, 3), [0.0, 1.0]),    # float targets
            ((2, 3), [True, False]),
            ((2, 2, 3), [[0, 1], [1, 0]]),
            ((0, 3), np.zeros(0, dtype=int)),
        ],
    )
    def test_cross_entropy_rejects_mismatched_targets(self, shape, targets):
        with pytest.raises(ValueError):
            ag.cross_entropy(Tensor(np.zeros(shape)), targets)

    def test_matmul_shape_mismatch_reports_shapes(self):
        with pytest.raises(ValueError, match=r"\(3,\)"):
            ag.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))

    def test_embedding_rejects_bad_ids(self):
        table = parameter(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            ag.embedding_lookup(table, np.array([0, 4]))


class TestGradients:
    """Analytic gradients match central finite differences (h=1e-5, 64-bit)."""

    def test_add_broadcast(self):
        rng = _rng(10)
        a, b = _rand(rng, 3, 4), _rand(rng, 4)
        check_gradients(lambda: _project(ag.add(a, b), _rng(99)), {"a": a, "b": b})

    def test_scale(self):
        rng = _rng(12)
        a = _rand(rng, 4, 3)
        check_gradients(lambda: _project(ag.scale(a, -1.7), _rng(99)), {"a": a})

    def test_matmul_2d(self):
        rng = _rng(13)
        a, b = _rand(rng, 3, 4), _rand(rng, 4, 2)
        check_gradients(lambda: _project(ag.matmul(a, b), _rng(99)), {"a": a, "b": b})

    def test_matmul_batched(self):
        rng = _rng(14)
        a, b = _rand(rng, 2, 3, 4), _rand(rng, 2, 4, 3)
        check_gradients(lambda: _project(ag.matmul(a, b), _rng(99)), {"a": a, "b": b})

    def test_matmul_batched_times_2d(self):
        rng = _rng(15)
        a, b = _rand(rng, 2, 3, 4), _rand(rng, 4, 5)
        check_gradients(lambda: _project(ag.matmul(a, b), _rng(99)), {"a": a, "b": b})

    @pytest.mark.parametrize("a_shape, b_shape", [((1, 4), (4, 5)), ((2, 1, 4), (4, 5)), ((1, 4), (2, 4, 5))])
    def test_matmul_one_row(self, a_shape, b_shape):
        """One row in a, against a 2-D b, a b broadcast over a's batch, and a 3-D b that a is broadcast to."""
        rng = _rng(19)
        a, b = _rand(rng, *a_shape), _rand(rng, *b_shape)
        check_gradients(lambda: _project(ag.matmul(a, b), _rng(99)), {"a": a, "b": b})

    def test_embedding_lookup(self):
        rng = _rng(16)
        table = _rand(rng, 6, 3)
        ids = np.array([0, 2, 2, 5, 1])
        check_gradients(
            lambda: _project(ag.embedding_lookup(table, ids), _rng(99)), {"table": table}
        )

    def test_softmax_axes(self):
        """Softmax runs over the last axis, of a matrix and of the [h, m, n] attention
        scores, which it scales first."""
        rng = _rng(17)
        for shape in ((3, 4), (2, 3, 4)):
            for scale in (1.0, 0.35):
                x = _rand(rng, *shape)
                check_gradients(lambda: _project(ag.softmax(x, scale), _rng(99)), {"x": x})

    def test_layer_norm(self):
        """x, gain and bias, with the gain and bias over the last axis of a 1-D, 2-D or 3-D x."""
        rng = _rng(18)
        for shape in ((6,), (3, 6), (2, 3, 6)):
            x, gain, bias = _rand(rng, *shape), _rand(rng, 6), _rand(rng, 6)
            check_gradients(
                lambda: _project(ag.layer_norm(x, gain, bias), _rng(99)), {"x": x, "gain": gain, "bias": bias}
            )

    def test_layer_norm_bias_shares_a_leaf(self):
        """On one row the bias gradient can be the incoming gradient itself, so it
        is written last: the gradients of x and the gain still read it unchanged."""
        rng = _rng(19)
        x, w = _rand(rng, 6), _rand(rng, 6)
        check_gradients(lambda: _project(ag.layer_norm(x, w, w), _rng(99)), {"x": x, "w": w})
        check_gradients(lambda: _project(ag.layer_norm(w, x, w), _rng(99)), {"x": x, "w": w})

    def test_gelu(self):
        rng = _rng(20)
        x = _rand(rng, 4, 4)
        check_gradients(lambda: _project(ag.gelu(x), _rng(99)), {"x": x})

    def test_dropout_fixed_mask(self):
        rng = _rng(23)
        x = _rand(rng, 5, 5)
        # reseeding per call fixes the mask so the function is differentiable
        check_gradients(
            lambda: _project(ag.dropout(x, 0.4, _rng(7)), _rng(99)), {"x": x}
        )

    def test_reshape_transpose_slice(self):
        rng = _rng(24)
        x = _rand(rng, 4, 6)
        def build():
            y = ag.reshape(x, (2, 2, 6))
            y = ag.transpose(y, (1, 0, 2))
            y = ag.reshape(y, (4, 6))
            return _project(ag.slice_rows(y, 1, 3), _rng(99))
        check_gradients(build, {"x": x})

    def test_cross_entropy_gradient(self):
        rng = _rng(25)
        x = _rand(rng, 7)
        check_gradients(lambda: ag.cross_entropy(x, 4), {"x": x})

    def test_cross_entropy_rows_gradient(self):
        rng = _rng(27)
        x = _rand(rng, 4, 5)
        check_gradients(lambda: ag.cross_entropy(x, [4, 0, 2, 4]), {"x": x})

    def test_composite_expression(self):
        rng = _rng(26)
        w1, w2, b = _rand(rng, 5, 4), _rand(rng, 4, 3), _rand(rng, 3)
        x = Tensor(rng.standard_normal((2, 5)))
        def build():
            h = ag.gelu(ag.matmul(x, w1))
            out = ag.add(ag.matmul(h, w2), b)
            row_mean = ag.matmul(Tensor(np.full((1, 2), 0.5)), out)
            return ag.cross_entropy(ag.reshape(row_mean, (3,)), 1)
        check_gradients(build, {"w1": w1, "w2": w2, "b": b})


class TestTapeMechanics:
    def test_gradients_accumulate_across_backwards(self):
        x = parameter(np.array([[2.0]]))
        mean_all(ag.matmul(x, x)).backward()
        g1 = x.grad.copy()
        mean_all(ag.matmul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * g1)

    def test_shared_parent_grad_not_aliased(self):
        a = parameter(np.ones(3))
        b = parameter(np.ones(3))
        mean_all(ag.add(a, b)).backward()
        a.grad[0] = 42.0
        assert b.grad[0] != 42.0

    def test_diamond_graph_accumulates_both_paths(self):
        x = parameter(np.array([[3.0]]))
        y = ag.add(ag.matmul(x, x), ag.scale(x, 2.0))  # x^2 + 2x
        mean_all(y).backward()
        np.testing.assert_allclose(x.grad, [[8.0]])

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            parameter(np.zeros(3)).backward()

    def test_backward_requires_a_tape(self):
        """A loss computed from constants only has no tape to walk."""
        x = Tensor(np.array([[2.0]]))
        loss = mean_all(ag.matmul(x, x))
        assert not loss.requires_grad and loss._parents == ()
        with pytest.raises(ValueError, match="computed from constants"):
            loss.backward()
        assert x.grad is None

    @pytest.mark.parametrize(
        "build",
        [
            lambda x, y: [ag.add(x, y)],
            lambda x, y: [ag.reshape(x, (3, 2))],
            lambda x, y: [ag.transpose(x, (1, 0))],
            lambda x, y: [ag.reshape(ag.transpose(ag.add(x, x), (1, 0)), (6,))],
        ],
        ids=["add", "reshape", "transpose", "chain"],
    )
    def test_pass_through_grads_own_their_memory(self, build):
        """Leaf gradients share no memory, and no intermediate keeps one."""
        rng = _rng(32)
        x, y = _rand(rng, 2, 3), _rand(rng, 2, 3)
        outs = build(x, y)
        loss = mean_all(outs[-1])
        graph = tape_nodes(loss)
        loss.backward()
        leaves = [t for t in graph if t._backward_fn is None]
        assert {id(t) for t in leaves} <= {id(x), id(y)}
        for a, b in combinations([t.grad for t in leaves], 2):
            assert not np.shares_memory(a, b)
        assert len(graph) > len(leaves)
        assert all(t.grad is None and t._parents == () for t in graph if t._backward_fn is not None)

    def test_pass_through_grads_are_views_of_one_buffer(self):
        """Reshapes and transposes of a 1 MiB leaf hand on views: backward() needs one buffer.

        mean_all's matmul makes the chain's only new gradient; copying it at
        each pass-through op would hold two buffers at once."""
        x = parameter(_rng(35).standard_normal((256, 512)))

        def chain():
            return mean_all(ag.transpose(ag.transpose(ag.reshape(x, (512, 256)), (1, 0)), (1, 0)))

        chain().backward()  # unmeasured: one-time caches of numpy and the interpreter
        x.grad = None
        loss = chain()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(x.grad, np.full(x.data.shape, 1.0 / x.data.size))
        assert peak <= x.data.nbytes + 64 * 1024, (peak, x.data.nbytes)

    def test_second_backward_raises(self):
        x = parameter(np.array([[2.0]]))
        loss = mean_all(ag.matmul(x, x))
        loss.backward()
        grad = x.grad.copy()
        with pytest.raises(ValueError, match="already ran through this tape"):
            loss.backward()
        assert np.array_equal(x.grad, grad)

    def test_new_op_on_a_consumed_intermediate_raises(self):
        """A consumed node still requires grad, so it is never taken for a constant."""
        x, w = parameter(np.array([[2.0]])), parameter(np.array([[3.0]]))
        y = ag.scale(x, 2.0)
        mean_all(y).backward()
        grad = x.grad.copy()
        assert y.requires_grad
        with pytest.raises(ValueError, match="already ran through this tape"):
            mean_all(ag.matmul(y, w)).backward()
        assert np.array_equal(x.grad, grad) and w.grad is None

    def test_constants_get_no_grad(self):
        rng = _rng(33)
        x = _rand(rng, 2, 3)
        consts = [Tensor(rng.standard_normal(s)) for s in ((2, 3), (3,), (3, 4), (1, 3))]
        y = ag.matmul(ag.add(ag.add(x, consts[0]), consts[1]), consts[2])
        z = ag.layer_norm(x, consts[3], consts[1])
        ag.add(mean_all(y), mean_all(z)).backward()
        assert x.grad is not None
        assert all(c.grad is None for c in consts)

    def test_scatter_grads_accumulate_with_other_uses(self):
        """embedding_lookup and slice_rows add into a gradient another op began."""
        rng = _rng(34)
        table = _rand(rng, 6, 3)
        ids = np.array([4, 1, 1])
        def build():
            rows = ag.add(ag.embedding_lookup(table, ids), ag.slice_rows(table, 2, 5))
            return _project(ag.add(rows, ag.scale(ag.slice_rows(table, 0, 3), 2.0)), _rng(99))
        check_gradients(build, {"table": table})

    def test_forward_backward_bit_deterministic(self):
        rng = _rng(31)
        w = rng.standard_normal((8, 8))
        x = rng.standard_normal((4, 8))
        results = []
        for _ in range(2):
            wt = parameter(w.copy())
            out = mean_all(ag.gelu(ag.matmul(Tensor(x), wt)))
            out.backward()
            results.append((out.item(), wt.grad.copy()))
        assert results[0][0] == results[1][0]
        assert (results[0][1] == results[1][1]).all()


def test_flat_parameters_are_consecutive_views_of_one_zeroed_buffer():
    params = ag.flat_parameters({"w": (2, 3), "s": (), "b": (4,)}, np.float32)
    buffer = params["w"].data.base
    assert buffer.dtype == np.float32 and buffer.shape == (11,) and not buffer.any()
    for (name, p), (start, shape) in zip(params.items(), [(0, (2, 3)), (6, ()), (7, (4,))], strict=True):
        assert p.requires_grad and p.data.base is buffer and p.data.shape == shape, name
        assert p.data.ctypes.data == buffer[start:].ctypes.data, name


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = parameter(np.array([1.5, -2.0]))
        state = AdamState(lr=0.1)
        for _ in range(3):
            p.grad = np.zeros(2)
            adam_step({"p": p}, state)
        np.testing.assert_allclose(p.data, [1.5, -2.0])
        assert state.step_count == 3

    def test_first_step_moves_by_lr_sign(self):
        p = parameter(np.array([0.0]))
        p.grad = np.array([0.3])
        state = AdamState(lr=1e-2)
        adam_step({"p": p}, state)
        np.testing.assert_allclose(p.data, [-1e-2 * 0.3 / (0.3 + 1e-8)], rtol=1e-9)

    def test_missing_gradient_rejected(self):
        p = parameter(np.array([0.0]))
        with pytest.raises(ValueError, match="p"):
            adam_step({"p": p}, AdamState(lr=0.1))

    def test_an_empty_view_is_rejected(self):
        state = AdamState(lr=0.1)
        with pytest.raises(ValueError, match="an empty parameter view"):
            adam_step({}, state)
        assert state.step_count == 0 and not state.first_moment

    @pytest.mark.parametrize("size, halves", [(2 * _TILE - 1, 0), (2 * _TILE, 1)])
    def test_only_a_view_of_two_whole_tiles_asks_for_the_worker(self, size, halves, monkeypatch):
        class Recording:
            calls = 0

            def run(self, top, bottom):
                self.calls += 1
                return top(), bottom()

        monkeypatch.setattr(worker_module, "_WORKER", recording := Recording())
        params = ag.flat_parameters({"a": (size - 3,), "b": (3,)}, np.float32)
        for p in params.values():
            p.data[...] = 1.0
            p.grad = np.ones_like(p.data)
        adam_step(params, AdamState(lr=0.1))
        assert recording.calls == halves

    def test_gradients_zeroed_after_step(self):
        p = parameter(np.array([0.0]))
        p.grad = np.array([1.0])
        adam_step({"p": p}, AdamState(lr=0.1))
        assert p.grad is None

    def test_updates_in_place_without_touching_the_callers_array(self):
        w = np.array([1.0, -2.0])
        p = parameter(w)
        state = AdamState(lr=0.1)
        p.grad = np.array([0.5, 0.5])
        adam_step({"p": p}, state)
        buffer = p.data
        p.grad = np.array([0.5, 0.5])
        adam_step({"p": p}, state)
        np.testing.assert_array_equal(w, [1.0, -2.0])
        assert p.data is buffer and (buffer < w).all()

    @pytest.mark.parametrize("field", [{"step_count": 3}, {"first_moment": {}}], ids=["step_count", "first_moment"])
    def test_only_the_learning_rate_is_set_by_the_caller(self, field):
        with pytest.raises(TypeError):
            AdamState(lr=0.1, **field)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="learning rate must be finite and positive"):
            AdamState(lr=lr)

    def test_ten_step_trace_matches_reference(self):
        """Hand-rolled Adam on a 1-D quadratic, compared to 1e-10."""
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        w_ref = 4.0
        m = v = 0.0
        trace_ref = []
        for t in range(1, 11):
            g = w_ref - 3.0  # d/dw 0.5*(w-3)^2
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            w_ref -= lr * m_hat / (math.sqrt(v_hat) + eps)
            trace_ref.append(w_ref)

        p = parameter(np.array([4.0]))
        state = AdamState(lr=lr)
        trace = []
        for _ in range(10):
            p.grad = p.data - 3.0
            adam_step({"w": p}, state)
            trace.append(float(p.data[0]))
        np.testing.assert_allclose(trace, trace_ref, atol=1e-10)


class TestAdamSegments:
    """The parameters are one run of one buffer the caller laid out, stepped where they lie; each moment is
    a run of one flat buffer the state owns."""

    @staticmethod
    def _params(rng):
        params = ag.flat_parameters({"a": (3,), "w": (2, 3), "b": (5,), "s": ()}, np.float64)
        for p in params.values():
            p.data[...] = rng.standard_normal(p.data.shape)
        return params

    @staticmethod
    def _fill_grads(params, rng):
        grads = {name: rng.standard_normal(p.data.shape).astype(p.data.dtype) for name, p in params.items()}
        for name, p in params.items():
            p.grad = grads[name].copy()
        return grads

    def test_every_parameter_and_moment_is_a_view_of_one_buffer(self):
        rng = _rng(40)
        params = self._params(rng)
        state = AdamState(lr=0.1)
        grads = self._fill_grads(params, rng)
        buffer, slots = params["a"].data.base, {name: p.data for name, p in params.items()}
        before = buffer.copy()
        adam_step(params, state)
        assert buffer is not None and (buffer != before).all()
        np.testing.assert_array_equal(buffer, np.concatenate([p.data for p in params.values()], axis=None))
        for name, p in params.items():
            assert p.data is slots[name]
            m, v = state.first_moment[name], state.second_moment[name]
            assert p.data.base is buffer
            assert m.base is state.first_moment["a"].base is not None
            assert v.base is state.second_moment["a"].base is not None
            # From zero moments, the first step leaves (1 - beta1) g and (1 - beta2) g g in each name's slot.
            np.testing.assert_array_equal(m, grads[name] * (1.0 - _BETA1), strict=True)
            np.testing.assert_array_equal(v, grads[name] * (1.0 - _BETA2) * grads[name], strict=True)

    def test_values_written_in_place_are_stepped_with_the_old_moments(self):
        rng = _rng(41)
        params = self._params(rng)
        state = AdamState(lr=0.1)
        self._fill_grads(params, rng)
        adam_step(params, state)
        moments = {name: (state.first_moment[name].copy(), state.second_moment[name].copy()) for name in params}
        slots = {name: p.data for name, p in params.items()}
        loaded = {name: rng.standard_normal(params[name].data.shape) for name in ("a", "w")}
        for name, x in loaded.items():
            params[name].data[...] = x
        before = {name: p.data.copy() for name, p in params.items()}
        grads = self._fill_grads(params, rng)
        adam_step(params, state)
        c1, c2 = 1.0 - _BETA1**2, 1.0 - _BETA2**2
        for name, p in params.items():
            m0, v0 = moments[name]
            g = grads[name]
            m = _BETA1 * m0 + (1.0 - _BETA1) * g
            v = _BETA2 * v0 + (1.0 - _BETA2) * g * g
            expected = before[name] - 0.1 * (m / c1) / (np.sqrt(v / c2) + _EPS)
            np.testing.assert_array_equal(p.data, expected, strict=True)
            np.testing.assert_array_equal(state.first_moment[name], m, strict=True)
            np.testing.assert_array_equal(state.second_moment[name], v, strict=True)
        assert all(p.data is slots[name] for name, p in params.items())

    @pytest.mark.parametrize(
        "change, names",
        [
            (lambda params: params.pop("w"), ["w"]),
            (lambda params: params.update(x=parameter(np.zeros(2))), ["x"]),
            (lambda params: setattr(params["b"], "data", params["b"].data.astype(np.float32)), ["b"]),
            (lambda params: setattr(params["w"], "data", params["w"].data.astype(np.float32)), ["w"]),
            (lambda params: setattr(params["w"], "data", np.zeros((3, 2))), ["w"]),
            (lambda params: setattr(params["a"], "data", params["a"].data.copy()), ["a"]),
            (lambda params: setattr(params["w"], "data", params["w"].data.copy()), ["w"]),
        ],
        ids=[
            "absent name", "new name", "vector of another dtype", "matrix of another dtype", "matrix of another shape",
            "replaced vector", "replaced matrix of the same shape",
        ],
    )
    def test_another_view_is_rejected_by_name_before_any_change(self, change, names):
        rng = _rng(42)
        params = self._params(rng)
        state = AdamState(lr=0.1)
        self._fill_grads(params, rng)
        adam_step(params, state)
        change(params)
        self._fill_grads(params, rng)
        data = {name: p.data.copy() for name, p in params.items()}
        moments = {name: (m.copy(), state.second_moment[name].copy()) for name, m in state.first_moment.items()}
        with pytest.raises(ValueError) as error:
            adam_step(params, state)
        for name in names:
            assert repr(name) in str(error.value)
        assert state.step_count == 1
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, data[name], strict=True)
            assert p.grad is not None
        for name, (m, v) in moments.items():
            np.testing.assert_array_equal(state.first_moment[name], m, strict=True)
            np.testing.assert_array_equal(state.second_moment[name], v, strict=True)

    @pytest.mark.parametrize(
        "change, names",
        [
            (lambda params: dict(reversed(params.items())), ["b", "w", "a"]),
            (lambda params: {name: p for name, p in params.items() if name != "w"}, ["b"]),
            (lambda params: {**params, **ag.flat_parameters({"x": (2,), "y": (4,)}, np.float64)}, ["x", "y"]),
            (lambda params: {**params, "b": parameter(params["b"].data.astype(np.float32))}, ["b", "s"]),
            (lambda params: {**params, "w": parameter(params["w"].data.astype(np.float32))}, ["w", "b"]),
            (lambda params: {**params, "w": Tensor(params["w"].data.T, requires_grad=True)}, ["w"]),
        ],
        ids=[
            "reversed order", "gap", "two buffers", "vector of another dtype", "matrix of another dtype", "transposed",
        ],
    )
    def test_a_view_that_is_not_one_run_is_rejected_by_name_before_any_change(self, change, names):
        """The first step takes the view's parameters where they lie, so they must be one contiguous run of one
        buffer in dict order; every parameter that breaks the run is named."""
        rng = _rng(43)
        params = change(self._params(rng))
        self._fill_grads(params, rng)
        data = {name: p.data for name, p in params.items()}
        values = {name: a.copy() for name, a in data.items()}
        state = AdamState(lr=0.1)
        with pytest.raises(ValueError, match="break the view's one contiguous run of one buffer") as error:
            adam_step(params, state)
        assert str(names) in str(error.value)
        assert state.step_count == 0 and not state.first_moment and not state.second_moment
        for name, p in params.items():
            assert p.data is data[name] and p.grad is not None
            np.testing.assert_array_equal(p.data, values[name], strict=True)


@pytest.mark.parametrize("module", ["entrex.optim", "entrex.autograd"])
def test_the_optimizer_and_autograd_load_neither_the_model_nor_the_pipeline(module):
    """In a fresh interpreter: Adam reaches the worker thread through its own module, never the model's."""
    code = f"import json, sys; sys.path.insert(0, 'src'); import {module}; print(json.dumps(sorted(sys.modules)))"
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert module in loaded and "entrex.model" not in loaded and "entrex.pipeline" not in loaded


def test_finite_difference_helper_self_check():
    """The oracle itself: FD of x^2 at 3 is 6."""
    x = np.array([3.0])
    g = finite_difference_grad(lambda: float(x[0] ** 2), x)
    assert max_rel_error(np.array([6.0]), g) < 1e-8
