import contextlib
import math
import re

import numpy as np
import pytest

from helpers import (adam_step, reference_adam_step, reference_bilinear,
                     reference_folded_adam_step, reference_lstm_seq)

from sdpkit import autodiff as ad
from sdpkit.errors import AutodiffError


def check_op(build, params, tol=1e-7):
    report = ad.gradient_check(build, params, epsilon=1e-5, tolerance=tol)
    assert report.passed, str(report)
    return report


def ones(*shape):
    return ad.constant(np.ones(shape))


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

    def test_sigmoid_takes_the_form_that_cannot_overflow(self):
        # 1 / (1 + e^-x) from 0 up and e^x / (1 + e^x) below it, each bit for bit
        x = np.linspace(-3.0, 3.0, 601)
        s = ad.sigmoid(ad.constant(x)).data
        up, down = x >= 0, x < 0
        np.testing.assert_array_equal(s[up], 1.0 / (1.0 + np.exp(-x[up])))
        np.testing.assert_array_equal(s[down], np.exp(x[down]) / (1.0 + np.exp(x[down])))

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

    @pytest.mark.parametrize("call,message", [
        (lambda: ad.add(ones(2, 3), ones(2)), r"add: incompatible shapes \(2, 3\) and \(2,\)"),
        (lambda: ad.mul(ones(2, 3), ones(3, 2)), r"mul: incompatible shapes \(2, 3\) and \(3, 2\)"),
        (lambda: ad.matmul(ones(2, 3), ones(3)),
         r"matmul: expects 2-D operands, got \(2, 3\) and \(3,\)"),
        (lambda: ad.matmul(ones(3), ones(3, 2)),
         r"matmul: expects 2-D operands, got \(3,\) and \(3, 2\)"),
        (lambda: ad.pick_cells(ones(2, 3, 4, 3), [[0]], [[1]], [[1]]),
         "pick_cells: sentences, heads and deps must be equal-length vectors"),
        (lambda: ad.bilinear(ones(2, 3), ones(3, 3), ones(3), [(2, 1)]),
         r"bilinear: x and y must be matrices, got \(2, 3\), \(3,\)"),
        (lambda: ad.bilinear(ones(2, 3), ones(3, 3), ones(2, 4), [(2, 2)]),
         r"bilinear: shape mismatch: x \(2, 3\), w \(3, 3\), y \(2, 4\)"),
        (lambda: ad.softmax_cross_entropy(ones(3, 2), [0, 1]),
         r"softmax_cross_entropy: target_ids shape \(2,\) does not match 3 rows"),
    ], ids=["add", "mul", "matmul-1d-right", "matmul-1d-left", "pick_cells-2d", "bilinear-1d-y",
            "bilinear-y-width", "xent-rows"])
    def test_operands_of_the_wrong_shape_name_the_op(self, call, message):
        with pytest.raises(AutodiffError, match=message):
            call()

    @pytest.mark.parametrize("call,message", [
        (lambda a: ad.concat([], axis=0), "concat: needs at least one part"),
        (lambda a: ad.slice_rows(a, 2, 2), r"slice_rows: range \[2,2\) invalid for 3 rows"),
        (lambda a: ad.slice_rows(a, -1, 2), r"slice_rows: range \[-1,2\) invalid"),
        (lambda a: ad.lookup(a, [-1]), "lookup: id out of range"),
        (lambda a: ad.lookup(a, [3]), "lookup: id out of range"),
        (lambda a: ad.softmax_cross_entropy(a, [0, 0, -1]), "softmax_cross_entropy: target id"),
        (lambda a: ad.softmax_cross_entropy(ad.constant(a.data[:1]), [2]),
         "softmax_cross_entropy: target id"),
        (lambda a: ad.dropout(a, 1.0, np.random.default_rng(0)),
         r"dropout: rate must be in \[0,1\), got 1.0"),
        (lambda a: ad.dropout(a, -0.1, np.random.default_rng(0)),
         r"dropout: rate must be in \[0,1\), got -0.1"),
    ], ids=["concat-empty", "slice-empty", "slice-negative", "lookup-negative", "lookup-past-end",
            "xent-negative", "xent-past-end", "dropout-one", "dropout-negative"])
    def test_out_of_range_arguments_name_the_op(self, call, message):
        with pytest.raises(AutodiffError, match=message):
            call(ad.constant(np.ones((3, 2))))

    def test_concat_of_one_part_is_that_part(self):
        a = ad.constant(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(ad.concat([a], axis=1).data, a.data)

    def test_slice_rows_takes_the_whole_range(self):
        a = ad.constant(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(ad.slice_rows(a, 0, 3).data, a.data)


    def test_float32_input_becomes_float64(self):
        assert ad.Tensor(np.ones(3, np.float32)).data.dtype == np.float64


    def test_repr_names_the_shape_and_whether_it_needs_a_gradient(self):
        assert repr(ad.constant(np.zeros((2, 3)))) == "Tensor(shape=(2, 3), requires_grad=False)"
        assert repr(ad.Parameter([1.0])) == "Tensor(shape=(1,), requires_grad=True)"

    def test_the_default_dtype_is_float64(self):
        # the benchmark refuses to run on any other
        assert ad.default_dtype() is np.float64
        assert ad.constant([1]).data.dtype == np.float64


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
            ad.add(ad.scale(loss1, a), ad.scale(loss2, b)).backward()
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

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_first_gradient_not_owned_is_a_fresh_copy_with_positive_zeros(self, order):
        t = ad.Tensor(np.zeros((2, 3), order=order), requires_grad=True)
        g = np.array([[-0.0, 1.0, -2.0], [0.0, -0.0, 3.0]])
        ad._accumulate(t, g)
        assert not np.shares_memory(t.grad, g)
        assert t.grad.flags.f_contiguous == (order == "F")
        np.testing.assert_array_equal(t.grad, g)
        assert not np.signbit(t.grad[t.grad == 0]).any()  # as fresh zeros plus g
        ad._accumulate(t, g)
        np.testing.assert_array_equal(t.grad, 2 * g)


    @pytest.mark.parametrize("leave", ["return", "raise"])
    def test_no_grad_records_nothing_and_restores_recording_on_exit(self, leave):
        p = ad.Parameter([1.0, 2.0])
        with pytest.raises(ValueError) if leave == "raise" else contextlib.nullcontext():
            with ad.no_grad():
                inside = ad.mul(p, p)
                if leave == "raise":
                    raise ValueError
        if leave == "return":
            assert not inside.requires_grad and inside._backward is None
        after = ad.sum_all(ad.mul(p, p))
        assert after.requires_grad
        after.backward()
        np.testing.assert_array_equal(p.grad, [2.0, 4.0])

    @pytest.mark.parametrize("op", [
        lambda c: ad.lookup(c, [1, 0, 1]),
        lambda c: ad.pick_cells(ad.reshape(c, (1, 2, 3, 1)), [0], [2], [0]),
        lambda c: ad.slice_rows(c, 0, 1),
        lambda c: ad.softmax_cross_entropy(c, [2, 0]),
    ], ids=["lookup", "pick_cells", "slice_rows", "softmax_cross_entropy"])
    def test_a_gather_or_loss_of_a_constant_records_no_backward(self, op):
        out = op(ad.constant(np.arange(6.0).reshape(2, 3)))
        assert not out.requires_grad and out._backward is None and out._parents == ()

    def test_a_constant_operand_of_a_matmul_gets_no_gradient(self):
        c = ad.constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        p = ad.Parameter(np.ones((2, 4)))
        ad.sum_all(ad.matmul(c, p)).backward()
        assert c.grad is None
        np.testing.assert_array_equal(p.grad, c.data.T @ np.ones((3, 4)))


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

    def test_shift(self):
        rng = np.random.default_rng(26)
        a = param(rng, 2, 3, name="a")
        np.testing.assert_array_equal(ad.shift(a, 2.5).data, a.data + 2.5)
        check_op(lambda: ad.sum_all(ad.tanh(ad.shift(a, 2.5))), [a])

    def test_mean_all(self):
        rng = np.random.default_rng(17)
        a = param(rng, 3, 3, name="a")
        check_op(lambda: ad.mean_all(ad.mul(a, a)), [a])

    @pytest.mark.parametrize("kind", ["parameter", "parameter_set", "tensor"])
    def test_lookup(self, kind):
        # the gradient is a scatter-add into zeros, bit for bit, on the first
        # backward of a step and on an accumulated second one; a -0.0 upstream
        # leaves no -0.0 in the table's gradient
        rng = np.random.default_rng(18)
        start = rng.standard_normal((5, 3))
        table = {"parameter": lambda: ad.Parameter(start, name="table"),
                 "parameter_set": lambda: ad.parameter_set({"a": np.ones(2),
                                                            "table": start})["table"],
                 "tensor": lambda: ad.Tensor(start, requires_grad=True)}[kind]()
        ids = np.array([0, 2, 2, 4])
        if kind != "tensor":
            check_op(lambda: ad.sum_all(ad.tanh(ad.lookup(table, ids))), [table])
        want = np.zeros((5, 3))
        for step in range(2):
            g = rng.standard_normal((4, 3))
            g[1:3, 0] = -0.0
            ad.sum_all(ad.mul(ad.lookup(table, ids), ad.constant(g))).backward()
            scattered = np.zeros((5, 3))
            np.add.at(scattered, ids, g)
            want += scattered
            assert table.grad.tobytes() == want.tobytes(), step
        assert not np.signbit(table.grad[table.grad == 0]).any()
        if kind != "tensor":
            assert table.grad is table._buffer

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

    def test_dropout_zeroes_and_rescales(self):
        a = ad.constant(np.ones((50, 4)))
        assert ad.dropout(a, 0.0, np.random.default_rng(0)) is a
        out = ad.dropout(a, 0.5, np.random.default_rng(0)).data
        assert set(np.unique(out).tolist()) == {0.0, 2.0}

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
        adam_step([p])
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert p.grad is None

    def test_lr_zero_is_identity(self):
        p = ad.Parameter([1.0, -2.0], name="p")
        p.grad = np.array([0.3, -0.7])
        adam_step([p], lr=0.0)
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
            adam_step([p], lr=lr)
        last_update = prev - p.data
        np.testing.assert_allclose(last_update, [lr], rtol=1e-4)

    def test_unpopulated_grad_skips_parameter(self):
        p = ad.Parameter([1.0], name="p")
        q = ad.Parameter([1.0], name="q")
        q.grad = np.array([1.0])
        adam_step([p, q], lr=0.1)
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

    @staticmethod
    def _bilstm_runs(lengths, d_in, hidden, reverse, x_grad):
        """One two-direction lstm_seq call and two one-direction calls joined by
        concat, on the same inputs and upstream gradient; returns the output and
        the x and six weight gradients of each, as arrays."""
        rng = np.random.default_rng(len(lengths) * 100 + hidden)
        rows = sum(lengths)
        x = rng.standard_normal((rows, d_in))
        fw = TestKernelsMatchReference._lstm_weights(rng, d_in, hidden)
        bw = TestKernelsMatchReference._lstm_weights(rng, d_in, hidden)
        g = ad.constant(rng.standard_normal((rows, 2 * hidden)))
        runs = []
        for merged in (True, False):
            tx = ad.Parameter(x, name="x") if x_grad else ad.constant(x)
            tfw, tbw = ([ad.Parameter(a, name=f"{d}/{n}") for a, n in zip(triple, "wub")]
                        for d, triple in (("fw", fw), ("bw", bw)))
            if merged:
                out = ad.lstm_seq(tx, *tfw, lengths, reverse=reverse, bw=tbw)
            else:
                out = ad.concat([ad.lstm_seq(tx, *tfw, lengths, reverse=reverse),
                                 ad.lstm_seq(tx, *tbw, lengths, reverse=not reverse)], axis=1)
            ad.sum_all(ad.mul(out, g)).backward()
            runs.append([out.data, tx.grad] + [p.grad for p in tfw + tbw])
        return runs

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward-first", "reverse-first"])
    @pytest.mark.parametrize("lengths,d_in,hidden,x_grad", [
        ((2, 7, 1, 4, 4), 5, 3, True), ((6,), 4, 2, True), ((1, 1, 1), 3, 2, True),
        (tuple(np.random.default_rng(16).integers(5, 13, 16).tolist()), 16, 8, True),
        ((9, 3, 6), 24, 40, True), ((4, 2, 3), 5, 3, False)],
        ids=["unsorted", "one-sequence", "all-one", "16-sentences", "wide-hidden", "x-constant"])
    def test_two_direction_lstm_seq_equals_two_calls_and_concat(self, lengths, d_in, hidden,
                                                                x_grad, reverse):
        merged, separate = self._bilstm_runs(lengths, d_in, hidden, reverse, x_grad)
        assert merged[0].shape == (sum(lengths), 2 * hidden)
        names = ["out", "x", "fw w", "fw u", "fw b", "bw w", "bw u", "bw b"]
        for name, got, want in zip(names, merged, separate):
            if name == "x" and not x_grad:
                assert got is None and want is None
                continue
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("bw_shapes,named", [
        (((3, 12), (3, 12), (12,)), "bw w (3, 12), bw u (3, 12), bw b (12,)"),
        (((4, 8), (2, 8), (8,)), "bw w (4, 8), bw u (2, 8), bw b (8,)"),
        (((3, 8), (2, 8), (6,)), "bw w (3, 8), bw u (2, 8), bw b (6,)"),
    ], ids=["hidden", "input-width", "bias"])
    def test_two_direction_lstm_seq_refuses_a_mismatched_second_direction(self, bw_shapes,
                                                                          named):
        x, w, u, b = (ad.constant(np.ones(shape)) for shape in ((5, 3), (3, 8), (2, 8), (8,)))
        bw = [ad.constant(np.ones(shape)) for shape in bw_shapes]
        with pytest.raises(AutodiffError, match=re.escape(f"got x (5, 3), {named}")):
            ad.lstm_seq(x, w, u, b, [3, 2], bw=bw)

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
        for sizes, message in (([(2, 1), (2, 3)], r"sum to \(5, 4\) rows"),
                               ([(5, 4), (0, 0)], r"sum to \(5, 4\) rows"),
                               ([(5, 4, 1)], r"sizes must be \(B, 2\)"),
                               (np.zeros((0, 2), dtype=int), r"got shape \(0, 2\)")):
            with pytest.raises(AutodiffError, match=message):
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
            adam_step(fused, lr=0.01)
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
            adam_step(fused, lr=0.01)
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
            adam_step([fused], lr=lr)
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
            adam_step([p])


class TestGradientCheckMachinery:
    def test_nondeterministic_closure_detected(self):
        p = ad.Parameter([1.0], name="p")
        state = {"k": 0.0}

        def closure():
            state["k"] += 1.0
            return ad.sum_all(ad.scale(p, state["k"]))

        with pytest.raises(AutodiffError, match="deterministic"):
            ad.gradient_check(closure, [p], 1e-5, 1e-4)

    def test_frozen_dropout_forward_is_repeatable(self):
        p = ad.Parameter(np.arange(4.0), name="p")

        def closure():
            return ad.sum_all(ad.dropout(p, 0.5, np.random.default_rng(7)))

        with ad.no_grad():
            assert float(closure().data) == float(closure().data)

    def test_wrong_gradient_fails_and_names_its_parameter(self):
        good, bad = ad.Parameter([1.0, 2.0], name="good"), ad.Parameter([3.0], name="bad")

        def wrong_square(a):  # the value a^2 with the gradient of a^2 / 2
            return ad._result(a.data ** 2, (a,), lambda g: ad._accumulate(a, g * a.data))

        def closure():
            return ad.add(ad.sum_all(ad.mul(good, good)), ad.sum_all(wrong_square(bad)))

        report = ad.gradient_check(closure, [good, bad], 1e-5, 1e-4)
        assert not report.passed and report.worst == "bad"
        assert report.per_param["good"] < 1e-8
        assert report.max_rel_error == report.per_param["bad"] == pytest.approx(0.5)

    def test_a_check_at_its_tolerance_passes(self):
        assert ad.GradCheckReport(1e-4, 1e-4, "p").passed

    def test_the_report_lists_each_parameter_by_name(self):
        report = ad.GradCheckReport(2.5e-6, 1e-4, "w", {"w": 2.5e-6, "b": 1e-9})
        assert str(report).splitlines() == [
            "gradient check: max_rel_error=2.500e-06 tolerance=1.0e-04 PASS (worst: w)",
            "  b: 1.000e-09", "  w: 2.500e-06"]
        assert str(ad.GradCheckReport(0.5, 1e-4, "b")).endswith("FAIL (worst: b)")

    def test_a_tie_names_the_later_parameter(self):
        # so a check with no error at all still names a parameter
        used, unused = ad.Parameter([0.0], name="used"), ad.Parameter([1.0], name="unused")
        report = ad.gradient_check(lambda: ad.sum_all(used), [used, unused], 1e-5, 1e-4)
        assert report.per_param == {"used": 0.0, "unused": 0.0}
        assert report.worst == "unused"
