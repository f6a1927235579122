import math
import re

import numpy as np
import pytest

from helpers import (reference_adam_step, reference_bilinear, reference_folded_adam_step,
                     reference_lstm_seq)

from sdpkit import autodiff as ad
from sdpkit.errors import AutodiffError


def check_op(build, params, tol=1e-7):
    report = ad.gradient_check(build, params, epsilon=1e-5, tolerance=tol)
    assert report.passed, str(report)
    return report


def param(rng, *shape, name=""):
    return ad.Parameter(rng.standard_normal(shape), name=name)


def assert_close(got, want, rtol=1e-12, err_msg=""):
    """Equal to `rtol` relative to the largest entry of `want`: a sum whose terms
    cancel is off by the rounding of its terms, not of its small result."""
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max(),
                               err_msg=err_msg)


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.constant([0.0])).data[0] == 0.5

    def test_softmax_uniform(self):
        p = ad.softmax_rows(ad.constant([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(p.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = ad.softmax_rows(ad.constant(rng.standard_normal((5, 7)) * 30))
        np.testing.assert_allclose(p.data.sum(axis=1), np.ones(5), atol=1e-12)

    def test_sigmoid_output_range(self):
        # strictly inside (0,1) for inputs below the float64 saturation point
        rng = np.random.default_rng(1)
        s = ad.sigmoid(ad.constant(rng.standard_normal(100) * 8)).data
        assert np.all(s > 0) and np.all(s < 1)

    def test_bilinear_hand_expansion(self):
        # x=[1,0], y=[0,1]: x^T W y picks out W[0,1]
        x = ad.constant([[1.0, 0.0]])
        y = ad.constant([[0.0, 1.0]])
        w = ad.constant([[3.0, 5.0], [7.0, 11.0]])
        assert ad.bilinear(x, w, y, [(1, 1)]).data[0, 0, 0] == 5.0

    def test_bilinear_multi_slice_permutation(self):
        rng = np.random.default_rng(2)
        x = ad.constant(rng.standard_normal((3, 4)))
        y = ad.constant(rng.standard_normal((5, 4)))
        w = rng.standard_normal((6, 4, 4))
        perm = rng.permutation(6)
        s = ad.bilinear(x, ad.constant(w), y, [(3, 5)]).data[0]
        s_perm = ad.bilinear(x, ad.constant(w[perm]), y, [(3, 5)]).data[0]
        np.testing.assert_array_equal(s[perm], s_perm)

    def test_no_nan_inf_on_extreme_inputs(self):
        big = ad.constant(np.array([[-1e9, 0.0, 1e9], [300.0, -300.0, 50.0]]))
        for out in (ad.sigmoid(big), ad.tanh(big), ad.softmax_rows(big),
                    ad.sigmoid_cross_entropy(big, np.ones(big.shape)),
                    ad.softmax_cross_entropy(big, [1, 0])):
            assert np.all(np.isfinite(out.data))

    def test_sigmoid_xent_value_at_zero(self):
        loss = ad.sigmoid_cross_entropy(ad.constant([[0.0]]), [[1.0]])
        assert loss.data[0, 0] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_softmax_xent_uniform_is_log_k(self):
        for k in (2, 3, 7):
            loss = ad.softmax_cross_entropy(ad.constant([[1.5] * k]), [0])
            assert loss.data[0] == pytest.approx(math.log(k), abs=1e-12)

    def test_matmul_shape_error_names_op(self):
        with pytest.raises(AutodiffError, match="matmul"):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


    def test_float32_input_becomes_float64(self):
        assert ad.Tensor(np.ones(3, np.float32)).data.dtype == np.float64


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = ad.Parameter(np.arange(6.0).reshape(2, 3))
        ad.sum_all(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sigmoid_xent_gradient_at_zero(self):
        # d/ds of -log sigmoid(s) at s=0 with target 1 is sigma(0)-1 = -0.5
        s = ad.Parameter([[0.0]])
        ad.sum_all(ad.sigmoid_cross_entropy(s, [[1.0]])).backward()
        assert s.grad[0, 0] == -0.5

    def test_fully_masked_loss_gives_exact_zero_grads(self):
        rng = np.random.default_rng(3)
        w = param(rng, 4, 4, name="w")
        x = param(rng, 2, 4, name="x")
        logits = ad.matmul(x, w)
        loss = ad.sum_all(ad.mul(ad.sigmoid_cross_entropy(logits, np.ones((2, 4))),
                                 ad.constant(np.zeros((2, 4)))))
        loss.backward()
        assert float(loss.data) == 0.0
        np.testing.assert_array_equal(w.grad, np.zeros((4, 4)))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 4)))

    def test_backward_on_detached_tensor(self):
        with pytest.raises(AutodiffError, match="detached"):
            ad.sum_all(ad.constant([1.0, 2.0])).backward()

    def test_backward_requires_scalar(self):
        x = ad.Parameter([1.0, 2.0])
        with pytest.raises(AutodiffError, match="scalar"):
            ad.scale(x, 2.0).backward()

    def test_backward_is_linear(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((3, 3))

        def grad_of(a, b):
            x = ad.Parameter(base, name="x")
            loss1 = ad.sum_all(ad.sigmoid(x))
            loss2 = ad.sum_all(ad.mul(x, x))
            (a * loss1 + b * loss2).backward()
            return x.grad

        g1 = grad_of(1.0, 0.0)
        g2 = grad_of(0.0, 1.0)
        combined = grad_of(2.5, -1.5)
        np.testing.assert_allclose(combined, 2.5 * g1 - 1.5 * g2, rtol=1e-12)

    def test_fanout_accumulates_once(self):
        x = ad.Parameter([2.0])
        y = ad.mul(x, x)  # x used twice
        ad.sum_all(y).backward()
        assert x.grad[0] == 4.0


class TestPerPrimitiveGradients:
    """Central-difference checks, dims <= 6, 64-bit floats, rel err < 1e-7."""

    def test_add_broadcast(self):
        rng = np.random.default_rng(10)
        a, b = param(rng, 3, 4, name="a"), param(rng, 4, name="b")
        check_op(lambda: ad.sum_all(ad.sigmoid(ad.add(a, b))), [a, b])

    def test_mul_broadcast(self):
        rng = np.random.default_rng(11)
        a, b = param(rng, 3, 4, name="a"), param(rng, 3, 1, name="b")
        check_op(lambda: ad.sum_all(ad.tanh(ad.mul(a, b))), [a, b])

    def test_matmul(self):
        rng = np.random.default_rng(12)
        a, b = param(rng, 3, 4, name="a"), param(rng, 4, 2, name="b")
        check_op(lambda: ad.sum_all(ad.tanh(ad.matmul(a, b))), [a, b])

    def test_transpose_axes(self):
        rng = np.random.default_rng(13)
        a = param(rng, 2, 3, 4, name="a")
        check_op(lambda: ad.sum_all(ad.mul(ad.transpose(a, (2, 0, 1)),
                                           ad.transpose(a, (2, 0, 1)))), [a])

    def test_concat_and_slice(self):
        rng = np.random.default_rng(14)
        a, b = param(rng, 2, 3, name="a"), param(rng, 3, 3, name="b")

        def build():
            joined = ad.concat([a, b], axis=0)
            return ad.sum_all(ad.sigmoid(ad.slice_rows(joined, 1, 4)))

        check_op(build, [a, b])

    def test_flip_rows(self):
        rng = np.random.default_rng(15)
        a = param(rng, 4, 2, name="a")
        check_op(lambda: ad.sum_all(ad.mul(ad.flip_rows(a), ad.constant(
            np.arange(8.0).reshape(4, 2)))), [a])

    def test_sigmoid_tanh_softmax(self):
        rng = np.random.default_rng(16)
        a = param(rng, 4, 5, name="a")
        check_op(lambda: ad.sum_all(ad.sigmoid(a)), [a])
        check_op(lambda: ad.sum_all(ad.tanh(a)), [a])
        weights = ad.constant(np.linspace(0.5, 1.5, 20).reshape(4, 5))
        check_op(lambda: ad.sum_all(ad.mul(ad.softmax_rows(a), weights)), [a])

    def test_mean_all(self):
        rng = np.random.default_rng(17)
        a = param(rng, 3, 3, name="a")
        check_op(lambda: ad.mean_all(ad.mul(a, a)), [a])

    def test_lookup(self):
        rng = np.random.default_rng(18)
        table = param(rng, 5, 3, name="table")
        ids = np.array([0, 2, 2, 4])
        check_op(lambda: ad.sum_all(ad.tanh(ad.lookup(table, ids))), [table])

    def test_pick_cells(self):
        # (B, L, T+1, T) label scores; one cell is picked twice and accumulates
        rng = np.random.default_rng(20)
        a = param(rng, 2, 3, 4, 3, name="a")
        sentences, heads, deps = np.array([1, 0, 1]), np.array([2, 0, 2]), np.array([1, 2, 1])
        check_op(lambda: ad.sum_all(ad.softmax_cross_entropy(
            ad.pick_cells(a, sentences, heads, deps), [0, 2, 1])), [a])

    def test_bilinear_2d(self):
        rng = np.random.default_rng(21)
        x, w, y = param(rng, 3, 4, name="x"), param(rng, 4, 5, name="w"), param(rng, 2, 5, name="y")
        check_op(lambda: ad.sum_all(ad.tanh(ad.bilinear(x, w, y, [(3, 2)]))), [x, w, y])

    def test_bilinear_3d(self):
        rng = np.random.default_rng(22)
        x, w, y = param(rng, 3, 4, name="x"), param(rng, 2, 4, 4, name="w"), param(rng, 3, 4, name="y")
        check_op(lambda: ad.sum_all(ad.sigmoid(ad.bilinear(x, w, y, [(3, 3)]))), [x, w, y])

    def test_sigmoid_cross_entropy(self):
        rng = np.random.default_rng(23)
        a = param(rng, 4, 4, name="a")
        targets = (rng.random((4, 4)) < 0.5).astype(float)
        check_op(lambda: ad.sum_all(ad.sigmoid_cross_entropy(a, targets)), [a])

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(24)
        a = param(rng, 5, 4, name="a")
        ids = np.array([0, 3, 1, 1, 2])
        check_op(lambda: ad.sum_all(ad.softmax_cross_entropy(a, ids)), [a])

    def test_dropout_frozen_mask(self):
        rng = np.random.default_rng(25)
        a = param(rng, 4, 4, name="a")

        def build():
            # same seed every call keeps the mask frozen, as the checker requires
            return ad.sum_all(ad.dropout(a, 0.5, np.random.default_rng(99)))

        check_op(build, [a])

    def test_lstm_seq(self):
        # a 4-step and a 2-step sequence packed row after row, read both ways
        rng = np.random.default_rng(26)
        n, d_in, h = 6, 3, 2
        x = param(rng, n, d_in, name="x")
        w = param(rng, d_in, 4 * h, name="w")
        u = param(rng, h, 4 * h, name="u")
        b = param(rng, 4 * h, name="b")
        weights = ad.constant(np.linspace(-1, 1, n * h).reshape(n, h))
        for reverse in (False, True):
            check_op(lambda: ad.sum_all(ad.mul(ad.lstm_seq(x, w, u, b, [4, 2], reverse=reverse),
                                               weights)),
                     [x, w, u, b])

    def test_quadratic_loss_matches_2x(self):
        rng = np.random.default_rng(27)
        x = param(rng, 6, name="x")
        report = check_op(lambda: ad.sum_all(ad.mul(x, x)), [x], tol=1e-9)
        x.grad = None
        loss = ad.sum_all(ad.mul(x, x))
        loss.backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)
        assert report.max_rel_error < 1e-9


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = ad.Parameter([1.0, -2.0], name="p")
        p.grad = np.zeros(2)
        ad.adam_step([p])
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert p.grad is None

    def test_lr_zero_is_identity(self):
        p = ad.Parameter([1.0, -2.0], name="p")
        p.grad = np.array([0.3, -0.7])
        ad.adam_step([p], lr=0.0)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_constant_gradient_update_approaches_lr_sign(self):
        # with a constant gradient g, bias-corrected Adam steps converge to
        # lr * g / (|g| + eps) ~= lr * sign(g)
        p = ad.Parameter([0.0], name="p")
        lr = 0.01
        g = np.array([3.7])
        prev = p.data.copy()
        for _ in range(5000):
            p.grad = g.copy()
            prev = p.data.copy()
            ad.adam_step([p], lr=lr)
        last_update = prev - p.data
        np.testing.assert_allclose(last_update, [lr], rtol=1e-4)

    def test_unpopulated_grad_skips_parameter(self):
        p = ad.Parameter([1.0], name="p")
        q = ad.Parameter([1.0], name="q")
        q.grad = np.array([1.0])
        ad.adam_step([p, q], lr=0.1)
        assert p.step == 0 and q.step == 1
        np.testing.assert_array_equal(p.data, [1.0])
        assert q.data[0] != 1.0


class TestKernelsMatchReference:
    """The fused kernels against the per-step, einsum and textbook forms."""

    @staticmethod
    def _lstm(x, w, u, b, g, x_grad=True):
        """Run ad.lstm_seq on x as one sequence under upstream gradient g;
        returns (out, grads, reference)."""
        tx = ad.Parameter(x, name="x") if x_grad else ad.constant(x)
        tw, tu, tb = (ad.Parameter(a, name=n) for a, n in ((w, "w"), (u, "u"), (b, "b")))
        out = ad.lstm_seq(tx, tw, tu, tb, [len(x)])
        ad.sum_all(ad.mul(out, ad.constant(g))).backward()
        return out.data, (tx.grad, tw.grad, tu.grad, tb.grad), reference_lstm_seq(x, w, u, b, g)

    @staticmethod
    def _lstm_weights(rng, d_in, hidden):
        limit_w = np.sqrt(6.0 / (d_in + 4 * hidden))
        limit_u = np.sqrt(6.0 / (5 * hidden))
        return (rng.uniform(-limit_w, limit_w, (d_in, 4 * hidden)),
                rng.uniform(-limit_u, limit_u, (hidden, 4 * hidden)),
                rng.standard_normal(4 * hidden) * 0.1)

    @pytest.mark.parametrize("steps,d_in,hidden,x_grad", [
        (1, 3, 2, True), (5, 7, 3, True), (6, 4, 4, False), (41, 600, 300, True)],
        ids=["T1", "d_in-ne-H", "x-constant", "600-to-300"])
    def test_lstm_seq(self, steps, d_in, hidden, x_grad):
        rng = np.random.default_rng(steps * 1000 + d_in)
        x = rng.standard_normal((steps, d_in))
        w, u, b = self._lstm_weights(rng, d_in, hidden)
        g = rng.standard_normal((steps, hidden))
        out, grads, (ref_out, *ref_grads) = self._lstm(x, w, u, b, g, x_grad)
        assert_close(out, ref_out)
        for name, got, want in zip("xwub", grads, ref_grads):
            if name == "x" and not x_grad:
                assert got is None
                continue
            assert_close(got, want, err_msg=name)
        if steps == 1:
            np.testing.assert_array_equal(grads[2], np.zeros_like(u))

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("lengths", [(1, 1, 1), (5, 5, 5), (7, 4, 4, 1), (2, 7, 1, 4, 4)],
                             ids=["all-one", "all-equal", "mixed", "unsorted"])
    def test_batched_lstm_seq_matches_each_sequence(self, lengths, reverse):
        rng = np.random.default_rng(sum(lengths))
        rows, d_in, hidden = sum(lengths), 5, 3
        x = rng.standard_normal((rows, d_in))
        w, u, b = self._lstm_weights(rng, d_in, hidden)
        g = rng.standard_normal((rows, hidden))
        tx, tw, tu, tb = (ad.Parameter(a, name=n) for a, n in ((x, "x"), (w, "w"), (u, "u"),
                                                                (b, "b")))
        out = ad.lstm_seq(tx, tw, tu, tb, lengths, reverse=reverse)
        ad.sum_all(ad.mul(out, ad.constant(g))).backward()
        sums = [np.zeros_like(a) for a in (w, u, b)]
        first = 0
        for r, n in enumerate(lengths):
            # sequence r is rows first..first+n-1, read backwards with `reverse`
            seq = np.arange(first, first + n)[::-1 if reverse else 1]
            first += n
            ref_out, ref_dx, *ref_grads = reference_lstm_seq(x[seq], w, u, b, g[seq])
            assert_close(out.data[seq], ref_out, err_msg=f"out {r}")
            assert_close(tx.grad[seq], ref_dx, err_msg=f"x {r}")
            for total, grad in zip(sums, ref_grads):
                total += grad
        for name, got, want in zip("wub", (tw.grad, tu.grad, tb.grad), sums):
            assert_close(got, want, err_msg=name)

    @pytest.mark.parametrize("lengths", [(3, 0, 2), (4, -1, 2), (3, 3), (2, 2), ()],
                             ids=["zero", "negative", "too-many-rows", "too-few-rows", "none"])
    def test_lstm_seq_rejects_lengths_that_do_not_cover_the_rows(self, lengths):
        rng = np.random.default_rng(31)
        w, u, b = self._lstm_weights(rng, 3, 2)
        with pytest.raises(AutodiffError, match="lengths must be positive"):
            ad.lstm_seq(ad.constant(rng.standard_normal((5, 3))), *map(ad.constant, (w, u, b)),
                        lengths)

    def _lstm_run(self, lengths, reverse=False):
        """Output and x/w/u/b gradients of one lstm_seq call on fixed inputs."""
        rng = np.random.default_rng(34)
        rows, d_in, hidden = sum(lengths), 5, 3
        params = [ad.Parameter(a, name=n) for a, n in zip(
            (rng.standard_normal((rows, d_in)), *self._lstm_weights(rng, d_in, hidden)), "xwub")]
        out = ad.lstm_seq(*params, lengths, reverse=reverse)
        ad.sum_all(ad.mul(out, ad.constant(rng.standard_normal((rows, hidden))))).backward()
        return [out.data] + [p.grad.copy() for p in params]

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_lstm_seq_cache_hit_is_bit_identical_to_a_cold_call(self, reverse):
        lengths = (2, 7, 1, 4, 4)
        ad._packing.cache_clear()
        cold = self._lstm_run(lengths, reverse)
        hits = ad._packing.cache_info().hits
        warm = self._lstm_run(lengths, reverse)
        assert ad._packing.cache_info().hits == hits + 1
        for got, want in zip(warm, cold):
            assert got.tobytes() == want.tobytes()

    def test_lstm_seq_packing_is_cached_per_direction(self):
        ad._packing.cache_clear()
        self._lstm_run((3, 1, 2))
        self._lstm_run((3, 1, 2), reverse=True)
        assert ad._packing.cache_info().currsize == 2
        key = np.array([3, 1, 2], dtype=np.int64).tobytes()
        forward, reverse = ad._packing(key, False), ad._packing(key, True)
        assert ad._packing.cache_info().hits == 2
        assert not np.array_equal(forward[3], reverse[3])  # src

    def test_lstm_seq_packing_arrays_are_read_only(self):
        key = np.array([3, 1, 2], dtype=np.int64).tobytes()
        steps, bounds, live0, src, prev = ad._packing(key, True)
        assert (steps, bounds, live0) == (3, (0, 3, 5, 6), 3)
        for array in (src, prev, *ad._gate_constants(4)):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_lstm_seq_packing_cache_is_bounded(self):
        ad._packing.cache_clear()
        bound = ad._packing.cache_info().maxsize
        assert bound is not None
        for n in range(1, bound + 10):
            ad._packing(np.array([n, 1], dtype=np.int64).tobytes(), False)
        assert ad._packing.cache_info().currsize == bound

    @pytest.mark.parametrize("shapes", [
        ((5, 3), (4, 8), (2, 8), (8,)), ((5, 3), (3, 8), (2, 6), (8,)),
        ((5, 3), (3, 8), (2, 8), (7,)), ((5,), (3, 8), (2, 8), (8,)),
    ], ids=["w", "u", "b", "x"])
    def test_lstm_seq_shape_error_names_the_shapes(self, shapes):
        x, w, u, b = (ad.constant(np.ones(shape)) for shape in shapes)
        named = ", ".join(f"{name} {shape}" for name, shape in zip("xwub", shapes))
        with pytest.raises(AutodiffError, match=re.escape(named)):
            ad.lstm_seq(x, w, u, b, [3, 2])

    def test_lstm_seq_saturated_gates(self):
        rng = np.random.default_rng(30)
        steps, d_in, hidden = 6, 3, 4
        x = rng.standard_normal((steps, d_in))
        w = np.zeros((d_in, 4 * hidden))
        u = rng.standard_normal((hidden, 4 * hidden)) * 0.01
        b = np.where(np.arange(4 * hidden) % 2 == 0, 50.0, -50.0)
        g = rng.standard_normal((steps, hidden))
        out, grads, (ref_out, *ref_grads) = self._lstm(x, w, u, b, g)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-15)
        for name, got, want in zip("xwub", grads, ref_grads):
            assert np.all(np.isfinite(got)), name
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15, err_msg=name)

    @pytest.mark.parametrize("w_shape", [(6, 5), (4, 6, 5)], ids=["2d", "3d"])
    def test_bilinear(self, w_shape):
        # the result is y-major: x_i W y_j at [j, i], the reference's [i, j]
        rng = np.random.default_rng(len(w_shape))
        x, w, y = (rng.standard_normal(shape) for shape in ((7, 6), w_shape, (8, 5)))
        g = rng.standard_normal(w_shape[:-2] + (7, 8))
        tx, tw, ty = ad.Parameter(x, "x"), ad.Parameter(w, "w"), ad.Parameter(y, "y")
        out = ad.bilinear(tx, tw, ty, [(7, 8)])  # one sentence
        assert out.shape == (1,) + w_shape[:-2] + (8, 7)
        ad.sum_all(ad.mul(out, ad.constant(np.swapaxes(g, -1, -2)[None]))).backward()
        ref_out, *ref_grads = reference_bilinear(x, w, y, g)
        assert_close(out.data[0], np.swapaxes(ref_out, -1, -2))
        for name, got, want in zip("xwy", (tx.grad, tw.grad, ty.grad), ref_grads):
            assert_close(got, want, err_msg=name)

    @staticmethod
    def _ragged_bilinear(rng, w_shape, sizes, g=None):
        """A packed bilinear over sentences of `sizes` (n_b, m_b), backpropagated from
        the y-major upstream gradient `g` (random if None); returns
        (x, w, y, g, out, tx, tw, ty)."""
        counts = np.array(sizes)
        (rows_x, rows_y), (n, m) = counts.sum(axis=0), counts.max(axis=0)
        x, y = rng.standard_normal((rows_x, w_shape[-2])), rng.standard_normal((rows_y, w_shape[-1]))
        w = rng.standard_normal(w_shape)
        if g is None:
            g = np.swapaxes(rng.standard_normal((len(sizes),) + w_shape[:-2] + (n, m)), -1, -2)
        tx, tw, ty = ad.Parameter(x, "x"), ad.Parameter(w, "w"), ad.Parameter(y, "y")
        out = ad.bilinear(tx, tw, ty, sizes)
        assert out.shape == g.shape
        ad.sum_all(ad.mul(out, ad.constant(g))).backward()
        return x, w, y, g, out, tx, tw, ty

    @pytest.mark.parametrize("w_shape", [(6, 5), (4, 6, 5)], ids=["2d", "3d"])
    def test_batched_bilinear_matches_each_row(self, w_shape):
        # packed rows of several sentences: every sentence's block of the result
        # and of the x and y gradients equals the one-sentence reference
        for sizes in ([(1, 1)] * 3, [(4, 5)] * 3, [(7, 2), (1, 8), (3, 3), (5, 1)]):
            rng = np.random.default_rng(10 + len(w_shape) + len(sizes))
            x, w, y, g, out, tx, tw, ty = self._ragged_bilinear(rng, w_shape, sizes)
            dw = np.zeros_like(w)
            x0 = y0 = 0
            for b, (n, m) in enumerate(sizes):
                xs, ys = slice(x0, x0 + n), slice(y0, y0 + m)
                ref_out, ref_dx, ref_dw, ref_dy = reference_bilinear(
                    x[xs], w, y[ys], np.swapaxes(g[b, ..., :m, :n], -1, -2))
                assert_close(out.data[b, ..., :m, :n], np.swapaxes(ref_out, -1, -2),
                             err_msg=f"out {sizes}")
                assert_close(tx.grad[xs], ref_dx, err_msg=f"x {sizes}")
                assert_close(ty.grad[ys], ref_dy, err_msg=f"y {sizes}")
                dw += ref_dw
                x0, y0 = x0 + n, y0 + m
            assert_close(tw.grad, dw, err_msg=f"w {sizes}")

    @pytest.mark.parametrize("w_shape", [(6, 5), (4, 6, 5)], ids=["2d", "3d"])
    def test_ragged_bilinear_padding_is_zero_and_passes_no_gradient(self, w_shape):
        sizes = [(2, 5), (4, 1), (3, 3)]
        pad = np.ones((3, 5, 4), dtype=bool)
        for b, (n, m) in enumerate(sizes):
            pad[b, :m, :n] = False
        if len(w_shape) == 3:
            pad = np.broadcast_to(pad[:, None], (3, w_shape[0], 5, 4))
        first = self._ragged_bilinear(np.random.default_rng(5), w_shape, sizes)
        out, g = first[4], first[3]
        assert np.all(out.data[pad] == 0.0)
        # an upstream gradient that differs only on padding gives the same gradients
        other = g.copy()
        other[pad] = 1e3
        second = self._ragged_bilinear(np.random.default_rng(5), w_shape, sizes, other)
        assert not np.array_equal(g, other)
        for got, want in zip(second[5:], first[5:]):
            np.testing.assert_array_equal(got.grad, want.grad)

    def test_bilinear_rejects_sizes_that_do_not_cover_the_rows(self):
        x, y = ad.constant(np.ones((5, 2))), ad.constant(np.ones((4, 3)))
        w = ad.constant(np.ones((2, 3)))
        assert ad.bilinear(x, w, y, [(2, 1), (3, 3)]).shape == (2, 3, 3)
        for sizes in ([(2, 1), (2, 3)], [(5, 4), (0, 0)], [(5, 4, 1)]):
            with pytest.raises(AutodiffError):
                ad.bilinear(x, w, y, sizes)

    def test_adam_step_is_bit_identical(self):
        # to the folded form of `reference_folded_adam_step`
        rng = np.random.default_rng(31)
        big = (2, 3, ad._ADAM_BLOCK // 5 + 1)
        assert np.prod(big) > ad._ADAM_BLOCK and np.prod(big) % ad._ADAM_BLOCK
        shapes = {"big": big, "small": (7,), "idle": (4, 4)}
        start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        # Parameter adopts its array, so each side gets its own copy
        fused = [ad.Parameter(start[name].copy(), name=name) for name in shapes]
        reference = [ad.Parameter(start[name].copy(), name=name) for name in shapes]
        for _ in range(3):
            for p, q in zip(fused, reference):
                if p.name != "idle":
                    p.grad = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 2)
                    q.grad = p.grad.copy()
            ad.adam_step(fused, lr=0.01)
            reference_folded_adam_step(reference, lr=0.01)
        for p, q in zip(fused, reference):
            for attr in ("data", "m", "v"):
                assert np.array_equal(getattr(p, attr), getattr(q, attr)), (p.name, attr)
            assert p.step == q.step == (0 if p.name == "idle" else 3)
            assert p.grad is None
        np.testing.assert_array_equal(fused[2].data, start["idle"])

    def test_adam_runs_over_a_parameter_set_are_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(32)
        shapes = {"e": (5,), "a": (3, ad._ADAM_BLOCK // 2 + 7), "d": (2, 2), "c": (9,), "b": (4,)}
        start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        flat = ad.parameter_set({name: start[name].copy() for name in shapes})
        assert list(flat) == list(shapes)  # the dict keeps the given order
        fused = [flat[name] for name in sorted(shapes)]
        reference = [ad.Parameter(start[name].copy(), name=name) for name in sorted(shapes)]
        runs = []
        adam_run = ad._adam_run
        monkeypatch.setattr(ad, "_adam_run",
                            lambda run, *args: (runs.append([p.name for p in run]),
                                                adam_run(run, *args)))
        # "c" skips the second step, which splits the runs then and after
        for skip, want in (("", ["abcde"]), ("c", ["ab", "de"]), ("", ["ab", "c", "de"])):
            runs.clear()
            for p, q in zip(fused, reference):
                if p.name != skip:
                    q.grad = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 2)
                    p.grad = q.grad.copy()
            ad.adam_step(fused, lr=0.01)
            reference_folded_adam_step(reference, lr=0.01)
            assert ["".join(run) for run in runs] == want
        for p, q in zip(fused, reference):
            for attr in ("data", "m", "v"):
                assert np.array_equal(getattr(p, attr), getattr(q, attr)), (p.name, attr)
            assert p.step == q.step == (2 if p.name == "c" else 3)
            assert p.grad is None

    def test_adam_step_is_within_a_bound_of_the_textbook_form(self):
        # The folded form rounds differently from the textbook form. With
        # gradients from 1e-6 to 10, over 3 steps, the data differ by at most
        # 4 eps (|data| + 4 lr), and the moments, scaled back to m = (1-b1) M
        # and v = (1-b2) V, by at most 2 eps of the largest |g| and g^2 seen
        # at each element.
        rng = np.random.default_rng(33)
        eps, lr, size = np.finfo(np.float64).eps, 0.01, 3 * ad._ADAM_BLOCK // 2
        start = rng.standard_normal(size) * 10.0 ** rng.uniform(-6, 1, size)
        fused, textbook = ad.Parameter(start.copy(), "p"), ad.Parameter(start.copy(), "p")
        largest = np.zeros(size)
        for _ in range(3):
            g = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-6, 1, size)
            largest = np.maximum(largest, np.abs(g))
            fused.grad, textbook.grad = g.copy(), g.copy()
            ad.adam_step([fused], lr=lr)
            reference_adam_step([textbook], lr=lr)
        assert not np.array_equal(fused.data, textbook.data)
        assert np.all(np.abs(fused.data - textbook.data)
                      <= 4 * eps * (np.abs(textbook.data) + 4 * lr))
        assert np.all(np.abs((1 - 0.9) * fused.m - textbook.m) <= 2 * eps * largest)
        assert np.all(np.abs((1 - 0.999) * fused.v - textbook.v) <= 2 * eps * largest ** 2)

    def test_adam_step_rejects_a_non_contiguous_parameter(self):
        p = ad.Parameter(np.ones((3, 4)), name="p")
        p.data = np.asfortranarray(p.data)
        p.grad = np.ones((3, 4))
        with pytest.raises(AutodiffError, match="C-contiguous"):
            ad.adam_step([p])


class TestGradientCheckMachinery:
    def test_nondeterministic_closure_detected(self):
        p = ad.Parameter([1.0], name="p")
        state = {"k": 0.0}

        def closure():
            state["k"] += 1.0
            return ad.sum_all(ad.scale(p, state["k"]))

        with pytest.raises(AutodiffError, match="deterministic"):
            ad.gradient_check(closure, [p])

    def test_frozen_dropout_forward_is_repeatable(self):
        p = ad.Parameter(np.arange(4.0), name="p")

        def closure():
            return ad.sum_all(ad.dropout(p, 0.5, np.random.default_rng(7)))

        with ad.no_grad():
            assert float(closure().data) == float(closure().data)
