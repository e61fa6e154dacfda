import copy
import math
import warnings

import numpy as np
import pytest
from conftest import central_diff, rel_err
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lenetkit import nn
from lenetkit.data import Dataset, Sample
from lenetkit.errors import InvalidShape, InvalidState
from lenetkit.nn import (
    COLUMN_BYTES,
    LeNetModel,
    Workspace,
    avgpool2d_backward,
    avgpool2d_forward,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    init_params,
    model_backward,
    model_forward,
    param_shapes,
    sigmoid_backward,
    sigmoid_forward,
    softmax,
)
from lenetkit.train import evaluate

FD_TOL = 1e-4


def naive_conv2d(x, k, b):
    """Six-nested-loop reference convolution."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    out = np.zeros((n, cout, h - kh + 1, w - kw + 1))
    for ni in range(n):
        for o in range(cout):
            for i in range(h - kh + 1):
                for j in range(w - kw + 1):
                    acc = b[o]
                    for c in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += x[ni, c, i + u, j + v] * k[o, c, u, v]
                    out[ni, o, i, j] = acc
    return out


class TestConvForward:
    def test_all_ones(self):
        x = np.ones((1, 1, 3, 3))
        k = np.ones((1, 1, 2, 2))
        out = conv2d_forward(x, k, np.zeros(1))
        np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), 4.0))

    def test_delta_kernel_crops(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, 6, 7))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 0, 0] = 1.0
        out = conv2d_forward(x, k, np.zeros(1))
        np.testing.assert_array_equal(out[:, 0], x[:, 0, :4, :5])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 6, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        np.testing.assert_allclose(conv2d_forward(x, k, b), naive_conv2d(x, k, b),
                                   rtol=1e-12, atol=1e-12)

    def test_kernel_larger_than_input(self):
        with pytest.raises(InvalidShape):
            conv2d_forward(np.zeros((1, 1, 3, 3)), np.zeros((1, 1, 4, 4)), np.zeros(1))

    # n images, `rows` output rows per block: x's 12 output rows fall into
    # blocks of `rows`, the last one shorter where rows does not divide 12
    @pytest.mark.parametrize("n, rows", [(1, 1), (3, 3), (8, 8), (9, 5), (11, 7), (12, 8)])
    def test_blocked_into_out_equals_the_plain_call(self, n, rows, monkeypatch):
        rng = np.random.default_rng(n)
        x, k, b = rng.normal(size=(n, 2, 14, 7)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)
        plain = conv2d_forward(x, k, b)  # all 12 rows of columns fit in one block
        monkeypatch.setattr(nn, "COLUMN_BYTES", 8 * 2 * 3 * 3 * rows * 5 * n)
        ws = Workspace()
        got = conv2d_forward(x, k, b, workspace=ws)
        # equal values; the last bit may differ where a block's GEMM rounds
        # unlike the whole one's (LeNet's own shapes are checked bit for bit)
        np.testing.assert_allclose(got, plain, rtol=1e-13, atol=1e-13)
        assert got.transpose(1, 2, 3, 0).flags.c_contiguous  # [O,Ho,Wo,N] memory
        assert ws.buffers["cols"].size == 2 * 3 * 3 * rows * 5 * n


class TestConvBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 5, 5))
        k = rng.normal(size=(2, 2, 3, 3))
        dx, dk, db = conv2d_backward(x, k, np.zeros((1, 2, 3, 3)))
        assert not dx.any() and not dk.any() and not db.any()

    def test_scalar_product_rule(self):
        x = np.full((1, 1, 1, 1), 3.0)
        k = np.full((1, 1, 1, 1), 5.0)
        dout = np.full((1, 1, 1, 1), 2.0)
        dx, dk_grad, db = conv2d_backward(x, k, dout)
        assert dk_grad[0, 0, 0, 0] == 3.0 * 2.0
        assert dx[0, 0, 0, 0] == 5.0 * 2.0
        assert db[0] == 2.0

    def test_finite_difference(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 5, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        proj = rng.normal(size=(2, 3, 3, 4))  # fixed projection -> scalar loss

        def loss():
            return float((conv2d_forward(x, k, b) * proj).sum())

        dx, dk, db = conv2d_backward(x, k, proj)
        assert rel_err(dx, central_diff(loss, x)) <= FD_TOL
        assert rel_err(dk, central_diff(loss, k)) <= FD_TOL
        assert rel_err(db, central_diff(loss, b)) <= FD_TOL

    def test_shape_mismatch(self):
        with pytest.raises(InvalidShape):
            conv2d_backward(np.zeros((1, 1, 5, 5)), np.zeros((1, 1, 3, 3)),
                            np.zeros((1, 1, 2, 2)))

    @pytest.mark.parametrize("x_shape, k_shape, dout_shape", [
        ((1, 5, 5), (1, 1, 3, 3), (1, 1, 3, 3)),     # x of rank 3
        ((1, 2, 5, 5), (1, 1, 3, 3), (1, 1, 3, 3)),  # x/kernel channel mismatch
        ((1, 1, 3, 3), (1, 1, 4, 4), (1, 1, 0, 0)),  # kernel larger than x
    ])
    def test_bad_x_or_kernel_raises_invalid_shape(self, x_shape, k_shape, dout_shape):
        with pytest.raises(InvalidShape):
            conv2d_backward(np.zeros(x_shape), np.zeros(k_shape), np.zeros(dout_shape))


class TestAvgPool:
    def test_window_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(avgpool2d_forward(x), [[[[2.5]]]])

    def test_constant_input(self):
        x = np.full((2, 3, 4, 4), 7.25)
        np.testing.assert_array_equal(avgpool2d_forward(x), np.full((2, 3, 2, 2), 7.25))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 1, 4, 4))
        out = avgpool2d_forward(x)
        for i in range(2):
            for j in range(2):
                expect = x[0, 0, 2 * i:2 * i + 2, 2 * j:2 * j + 2].mean()
                np.testing.assert_allclose(out[0, 0, i, j], expect, rtol=1e-12)

    def test_odd_dims_rejected(self):
        with pytest.raises(InvalidShape):
            avgpool2d_forward(np.zeros((1, 1, 3, 4)))

    def test_backward_uniform_spread(self):
        dx = avgpool2d_backward((1, 1, 2, 2), np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(dx, np.full((1, 1, 2, 2), 0.25))

    def test_backward_zeros(self):
        dx = avgpool2d_backward((1, 2, 4, 4), np.zeros((1, 2, 2, 2)))
        assert not dx.any()

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 4, 6))
        proj = rng.normal(size=(1, 2, 2, 3))

        def loss():
            return float((avgpool2d_forward(x) * proj).sum())

        dx = avgpool2d_backward(x.shape, proj)
        assert rel_err(dx, central_diff(loss, x)) <= FD_TOL

    @pytest.mark.parametrize("shape", [(8, 6, 28, 28), (3, 16, 10, 10), (1, 1, 2, 2)])
    def test_backward_equals_repeat_form_bit_for_bit(self, shape):
        n, c, h, w = shape
        dout = np.random.default_rng(14).normal(size=(n, c, h // 2, w // 2))
        dout.flat[:3] = [5e-324, 3e-308, 1.7e308]  # subnormal, near-subnormal, huge
        repeated = np.repeat(np.repeat(dout, 2, axis=2), 2, axis=3) / 4.0
        assert avgpool2d_backward(shape, dout).tobytes() == repeated.tobytes()


class TestSigmoid:
    def test_analytic_values(self):
        y = sigmoid_forward(np.array([0.0]))
        assert y[0] == 0.5
        dx = sigmoid_backward(y, np.array([1.0]))
        assert dx[0] == 0.25

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.normal(scale=5.0, size=100)
        np.testing.assert_allclose(sigmoid_forward(x) + sigmoid_forward(-x), 1.0,
                                   atol=1e-12)

    def test_saturation_is_finite(self):
        y = sigmoid_forward(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, [0.0, 1.0], atol=1e-300)

    def test_finite_difference(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4))
        proj = rng.normal(size=(3, 4))

        def loss():
            return float((sigmoid_forward(x) * proj).sum())

        dx = sigmoid_backward(sigmoid_forward(x), proj)
        assert rel_err(dx, central_diff(loss, x)) <= FD_TOL


@settings(max_examples=200, deadline=None)
@given(x=hnp.arrays(np.float64, st.integers(1, 40),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_sigmoid_bounded_monotone_and_symmetric(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, y_neg = sigmoid_forward(x), sigmoid_forward(-x)
    assert np.all((y >= 0.0) & (y <= 1.0))
    order = np.argsort(x, kind="stable")
    assert np.all(np.diff(y[order]) >= 0.0)
    np.testing.assert_allclose(y + y_neg, 1.0, rtol=0, atol=1e-15)


def test_sigmoid_backward_into_dy_gives_the_fresh_call_bits():
    rng = np.random.default_rng(28)
    y = sigmoid_forward(rng.normal(size=(3, 6, 28, 28)))
    dy = np.ascontiguousarray(rng.normal(size=y.shape).transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    fresh = sigmoid_backward(y, dy)
    got = sigmoid_backward(y, dy, out=dy)
    assert got is dy and got.tobytes() == fresh.tobytes()


class TestDense:
    def test_identity_weights(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(dense_forward(x, np.eye(4), np.zeros(4)), x)

    def test_hand_example(self):
        out = dense_forward(np.array([[1.0, 2.0]]), np.array([[1.0], [1.0]]),
                            np.array([3.0]))
        np.testing.assert_array_equal(out, [[6.0]])

    def test_finite_difference(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        proj = rng.normal(size=(2, 2))

        def loss():
            return float((dense_forward(x, w, b) * proj).sum())

        dx, dw, db = dense_backward(x, w, proj)
        assert rel_err(dx, central_diff(loss, x)) <= FD_TOL
        assert rel_err(dw, central_diff(loss, w)) <= FD_TOL
        assert rel_err(db, central_diff(loss, b)) <= FD_TOL

    def test_shape_mismatch(self):
        with pytest.raises(InvalidShape):
            dense_forward(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))


class TestSoftmax:
    def test_uniform_logits(self):
        np.testing.assert_allclose(softmax(np.zeros((2, 5))), 0.2, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(4, 3))
        np.testing.assert_allclose(softmax(z + 17.5), softmax(z), atol=1e-12)

    def test_hand_example(self):
        p = softmax(np.array([[0.0, math.log(2.0)]]))
        np.testing.assert_allclose(p, [[1.0 / 3.0, 2.0 / 3.0]], rtol=1e-12)

    def test_large_logits_neither_overflow_nor_underflow_to_nan(self):
        p = softmax(np.array([[1000.0, 0.0], [-1000.0, -1000.0]]))
        np.testing.assert_array_equal(p, [[1.0, 0.0], [0.5, 0.5]])

    def test_rows_normalized_and_bounded(self):
        # strict (0,1) openness holds while logit gaps stay below ~36,
        # where float64 exp() can still distinguish the competitors
        rng = np.random.default_rng(11)
        z = np.clip(rng.normal(scale=20.0, size=(50, 7)), -15.0, 15.0)
        p = softmax(z)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(p > 0.0) and np.all(p < 1.0)


class TestModelForward:
    def test_output_shape_and_normalization(self):
        model = init_params(0, num_classes=3)
        x = np.random.default_rng(12).uniform(0, 1, (2, 1, 32, 32))
        probs, _ = model_forward(model, x)
        assert probs.shape == (2, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_identical_inputs_identical_rows(self):
        model = init_params(1)
        x = np.random.default_rng(13).uniform(0, 1, (1, 1, 32, 32))
        probs, _ = model_forward(model, np.concatenate([x, x], axis=0))
        np.testing.assert_array_equal(probs[0], probs[1])

    def test_intermediate_shape_chain(self):
        model = init_params(2)
        x = np.random.default_rng(14).uniform(0, 1, (3, 1, 32, 32))
        _, trace = model_forward(model, x)
        assert trace.sig1.shape == (3, 6, 28, 28)
        assert trace.pool1.shape == (3, 6, 14, 14)
        assert trace.sig2.shape == (3, 16, 10, 10)
        assert trace.flat.shape == (3, 400)
        assert trace.sig3.shape == (3, 120)
        assert trace.sig4.shape == (3, 84)
        assert trace.logits.shape == (3, 3)

    @pytest.mark.parametrize("shape", [(1, 1, 28, 28), (1, 3, 32, 32),
                                       (1, 1, 32, 30), (1, 32, 32)])
    def test_wrong_input_shapes_raise(self, shape):
        model = init_params(3)
        with pytest.raises(InvalidShape):
            model_forward(model, np.zeros(shape))


class TestForwardOnly:
    """The forward that ``evaluate`` and ``predict`` run, and drop the trace of."""

    def test_activations_are_channel_major_views_of_the_workspace(self):
        model = init_params(9)
        _, trace = model_forward(model, np.zeros((3, 1, 32, 32)))
        assert [getattr(trace, name).shape for name in ("sig1", "pool1", "sig2", "flat")] == [
            (3, 6, 28, 28), (3, 6, 14, 14), (3, 16, 10, 10), (3, 400)]
        for name in ("sig1", "pool1", "sig2"):  # [C,H,W,N] memory, the batch innermost
            assert getattr(trace, name).transpose(1, 2, 3, 0).flags.c_contiguous, name
        assert trace.flat.T.flags.c_contiguous
        assert set(model.workspace.buffers) == {"cols"}  # no activation lives there

    def test_evaluate_holds_at_most_one_conv1_block_of_columns(self):
        rng = np.random.default_rng(32)
        samples = [Sample(rng.uniform(0, 1, (1, 32, 32)), i % 3, f"s{i}") for i in range(64)]
        model = init_params(9)
        evaluate(model, Dataset(samples, ["a", "b", "c"], "test"))
        assert model.workspace.buffers["cols"].nbytes <= COLUMN_BYTES


def _layouts(a, perm):
    """a's values held C-contiguous, batch-innermost and in axis order perm."""
    return [np.ascontiguousarray(a),
            np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2),
            np.ascontiguousarray(a.transpose(perm)).transpose(np.argsort(perm))]


# N from 1 to 70 crosses every change in the number of row blocks of conv1's
# columns (one up to N = 6, then 2 to 14) and of conv2's (one up to N = 8)
@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 70), perm=st.permutations(range(4)), seed=st.integers(0, 2**32 - 1))
def test_layers_return_the_same_bits_in_every_layout(n, perm, seed):
    rng = np.random.default_rng(seed)
    model = init_params(seed)
    k1, k2 = model.params["conv1.kernel"], model.params["conv2.kernel"]
    b1, b2 = rng.normal(size=6), rng.normal(size=16)
    x, pool1 = rng.uniform(0, 1, (n, 1, 32, 32)), rng.uniform(0, 1, (n, 6, 14, 14))
    dout1, dout2 = rng.normal(size=(n, 6, 28, 28)), rng.normal(size=(n, 16, 10, 10))
    upstream = rng.normal(size=(n, 3))
    results = []
    for xl, pl, d1, d2 in zip(*(_layouts(a, perm) for a in (x, pool1, dout1, dout2))):
        got = [conv2d_forward(xl, k1, b1), *conv2d_backward(xl, k1, d1),
               conv2d_forward(pl, k2, b2), *conv2d_backward(pl, k2, d2),
               avgpool2d_forward(d1), avgpool2d_backward(d1.shape, pl),
               sigmoid_forward(d1), sigmoid_backward(pl, pl)]
        probs, trace = model_forward(model, xl)
        got += [probs, *model_backward(model, trace, upstream).values()]
        results.append([a.tobytes() for a in got])
    assert results[1] == results[0] and results[2] == results[0]


class TestModelBackward:
    def test_zero_upstream_zero_grads(self):
        model = init_params(4)
        x = np.random.default_rng(15).uniform(0, 1, (2, 1, 32, 32))
        _, trace = model_forward(model, x)
        grads = model_backward(model, trace, np.zeros((2, 3)))
        for name, grad in grads.items():
            assert not grad.any(), name

    def test_returns_fresh_gradients_in_parameter_order(self):
        rng = np.random.default_rng(27)
        model = init_params(12, num_classes=4)
        x, upstream = rng.uniform(0, 1, (3, 1, 32, 32)), rng.normal(size=(3, 4))
        _, trace = model_forward(model, x)
        traced = [trace.x, trace.sig1, trace.pool1, trace.sig2, trace.flat,
                  trace.sig3, trace.sig4, trace.logits, upstream]
        grads = model_backward(model, trace, upstream)
        assert [(name, grad.shape) for name, grad in grads.items()] == param_shapes(4)
        held = [*model.workspace.buffers.values(), *traced, *model.params.values()]
        for name, grad in grads.items():
            assert not any(np.shares_memory(grad, a) for a in held), name
        before = {name: grad.copy() for name, grad in grads.items()}
        _train_step(model, rng.uniform(0, 1, (3, 1, 32, 32)), rng.normal(size=(3, 4)))
        _assert_same_grads(grads, before)

    def test_whole_model_finite_difference(self):
        # one-sample batch; >= 200 randomly sampled parameter coordinates
        from lenetkit.loss import cross_entropy

        rng = np.random.default_rng(16)
        model = init_params(5)
        x = rng.uniform(0, 1, (1, 1, 32, 32))
        target = [2]

        def loss_value():
            _, tr = model_forward(model, x)
            return cross_entropy(tr.logits, target).mean_loss

        _, trace = model_forward(model, x)
        out = cross_entropy(trace.logits, target)
        grads = model_backward(model, trace, out.dlogits)

        eps = 1e-5
        checked = 0
        for name, value in model.params.items():
            flat_v = value.reshape(-1)
            flat_g = grads[name].reshape(-1)
            take = min(25, flat_v.size)
            for i in rng.choice(flat_v.size, size=take, replace=False):
                old = flat_v[i]
                flat_v[i] = old + eps
                fp = loss_value()
                flat_v[i] = old - eps
                fm = loss_value()
                flat_v[i] = old
                fd = (fp - fm) / (2 * eps)
                assert abs(flat_g[i] - fd) / max(1.0, abs(fd)) <= FD_TOL, name
                checked += 1
        assert checked >= 200

    def test_identical_traces_identical_grads(self):
        model = init_params(6)
        x = np.random.default_rng(17).uniform(0, 1, (2, 1, 32, 32))
        upstream = np.random.default_rng(18).normal(size=(2, 3))
        _, t1 = model_forward(model, x)
        grads1 = model_backward(model, t1, upstream)
        _, t2 = model_forward(model, x)
        _assert_same_grads(model_backward(model, t2, upstream), grads1)

    def test_a_second_backward_from_one_trace_gives_equal_gradients(self):
        model = init_params(7)
        rng = np.random.default_rng(19)
        x, upstream = rng.uniform(0, 1, (1, 1, 32, 32)), rng.normal(size=(1, 3))
        _, trace = model_forward(model, x)
        first = model_backward(model, trace, upstream)
        _assert_same_grads(model_backward(model, trace, upstream), first)

    def test_a_missing_trace_raises(self):
        with pytest.raises(InvalidState):
            model_backward(init_params(7), None, np.zeros((1, 3)))

    # conv1's columns come in 1, 2 and 6 blocks of rows
    @pytest.mark.parametrize("n, blocks", [(6, 1), (8, 2), (32, 6)])
    def test_conv1_kernel_gradient_over_row_blocks_matches_the_whole_columns(self, n, blocks):
        rng = np.random.default_rng(n)
        model = init_params(n)
        p = model.params
        upstream = rng.normal(size=(n, 3))
        _, trace = model_forward(model, rng.uniform(0, 1, (n, 1, 32, 32)))
        grads = model_backward(model, trace, upstream)
        # the chain down to conv1's output gradient, from the public layers
        dsig4 = dense_backward(trace.sig4, p["fc_out.weight"], upstream)[0]
        dsig3 = dense_backward(trace.sig3, p["fc2.weight"], sigmoid_backward(trace.sig4, dsig4))[0]
        dflat = dense_backward(trace.flat, p["fc1.weight"], sigmoid_backward(trace.sig3, dsig3))[0]
        dsig2 = avgpool2d_backward(trace.sig2.shape, dflat.reshape(n, 16, 5, 5))
        dpool1 = conv2d_backward(trace.pool1, p["conv2.kernel"],
                                 sigmoid_backward(trace.sig2, dsig2))[0]
        dconv1 = sigmoid_backward(trace.sig1, avgpool2d_backward(trace.sig1.shape, dpool1))
        want = conv2d_backward(trace.x, p["conv1.kernel"], dconv1)[1]
        assert len(nn._row_blocks(p["conv1.kernel"], dconv1.shape)) == blocks
        got = grads["conv1.kernel"]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _train_step(model, x, upstream):
    """Forward and backward; returns the gradients."""
    _, trace = model_forward(model, x)
    return model_backward(model, trace, upstream)


def _assert_same_grads(got, want):
    assert list(got) == list(want)
    for name, grad in got.items():
        np.testing.assert_array_equal(grad, want[name], err_msg=name)


class TestWorkspace:
    def test_an_older_trace_backpropagates_after_later_forwards(self):
        rng = np.random.default_rng(20)
        x1, x2 = rng.uniform(0, 1, (2, 2, 1, 32, 32))
        upstream = rng.normal(size=(2, 3))
        model = init_params(8)
        model_forward(model, rng.uniform(0, 1, (5, 1, 32, 32)))  # larger buffers first
        _, t1 = model_forward(model, x1)
        _, t2 = model_forward(model, x2)
        model_forward(model, rng.uniform(0, 1, (64, 1, 32, 32)))
        model_forward(model, rng.uniform(0, 1, (3, 1, 32, 32)))
        for x, trace in ((x1, t1), (x2, t2)):
            _assert_same_grads(model_backward(model, trace, upstream),
                               _train_step(init_params(8), x, upstream))

    def test_backward_equals_the_bare_call_whatever_the_workspace_holds(self):
        rng = np.random.default_rng(24)
        x, other = rng.normal(size=(2, 2, 3, 7, 7))
        k, k_t = rng.normal(size=(4, 3, 3, 2)), rng.normal(size=(4, 3, 2, 3))
        b, dout = np.zeros(4), rng.normal(size=(2, 4, 5, 6))
        bare = conv2d_backward(x, k, dout)
        # another input's columns; x's for a transposed kernel of the same size;
        # x's own, then (on the second call) the first backward's spent ones
        for held, kernel, calls in ((other, k, 1), (x, k_t, 1), (x, k, 2)):
            ws = Workspace()
            conv2d_forward(held, kernel, b, workspace=ws)
            for _ in range(calls):
                for got, want in zip(conv2d_backward(x, k, dout, workspace=ws), bare):
                    np.testing.assert_array_equal(got, want)

    def test_forward_on_an_array_refilled_in_place_equals_a_fresh_call(self):
        rng = np.random.default_rng(25)
        x, k, b = rng.normal(size=(2, 3, 7, 7)), rng.normal(size=(4, 3, 3, 3)), np.ones(4)
        ws = Workspace()
        conv2d_forward(x, k, b, workspace=ws)
        x[...] = rng.normal(size=x.shape)
        np.testing.assert_array_equal(conv2d_forward(x, k, b, workspace=ws),
                                      conv2d_forward(x, k, b))

    @pytest.mark.parametrize("n", [1, 8, 32, 64])
    def test_a_second_backward_after_later_forwards_gives_equal_gradients(self, n):
        rng = np.random.default_rng(26)
        model = init_params(8)
        upstream = rng.normal(size=(n, 3))
        _, trace = model_forward(model, rng.uniform(0, 1, (n, 1, 32, 32)))
        first = model_backward(model, trace, upstream)
        _train_step(model, rng.uniform(0, 1, (40, 1, 32, 32)), rng.normal(size=(40, 3)))
        _assert_same_grads(model_backward(model, trace, upstream), first)

    def test_a_training_step_at_n32_holds_conv2s_whole_columns(self):
        rng = np.random.default_rng(29)
        model = init_params(8)
        _train_step(model, rng.uniform(0, 1, (32, 1, 32, 32)), rng.normal(size=(32, 3)))
        # conv2's [150, 10*10*32] columns; conv1's whole [25, 28*28*32] would be 5,017,600 B
        assert model.workspace.buffers["cols"].nbytes == 8 * 150 * 100 * 32 == 3_840_000

    def test_a_trace_of_another_model_raises(self):
        x = np.random.default_rng(21).uniform(0, 1, (1, 1, 32, 32))
        a, b = init_params(8), init_params(8)
        _, trace = model_forward(a, x)
        model_forward(b, x)
        with pytest.raises(InvalidState):
            model_backward(b, trace, np.zeros((1, 3)))

    def test_same_shaped_steps_reuse_the_buffers(self):
        rng = np.random.default_rng(22)
        model = init_params(8)
        _train_step(model, rng.uniform(0, 1, (4, 1, 32, 32)), rng.normal(size=(4, 3)))
        first = dict(model.workspace.buffers)
        assert set(first) == {"cols", "dx"}
        _train_step(model, rng.uniform(0, 1, (4, 1, 32, 32)), rng.normal(size=(4, 3)))
        for role, buffer in first.items():
            assert np.shares_memory(model.workspace.buffers[role], buffer), role

    def test_deepcopy_of_a_used_model_shares_no_buffer(self):
        rng = np.random.default_rng(23)
        x, upstream = rng.uniform(0, 1, (3, 1, 32, 32)), rng.normal(size=(3, 3))
        model = init_params(8)
        _train_step(model, x, upstream)
        clone = copy.deepcopy(model)
        for role, buffer in model.workspace.buffers.items():
            assert not np.shares_memory(clone.workspace.buffers[role], buffer), role
        for name, value in model.params.items():
            assert not np.shares_memory(value, clone.params[name]), name
        _assert_same_grads(_train_step(model, x, upstream),
                           _train_step(clone, x, upstream))


class TestInitParams:
    def test_deterministic_per_seed(self):
        m1, m2 = init_params(42), init_params(42)
        assert list(m1.params) == list(m2.params)
        for name, value in m1.params.items():
            np.testing.assert_array_equal(value, m2.params[name])

    def test_different_seeds_differ(self):
        m1, m2 = init_params(0), init_params(1)
        assert any(not np.array_equal(value, m2.params[name])
                   for name, value in m1.params.items())

    def test_biases_zero(self):
        model = init_params(9)
        for name, value in model.params.items():
            if name.endswith(".bias"):
                assert not value.any(), name

    def test_conv1_glorot_bound(self):
        # fan_in = 1*5*5 = 25, fan_out = 6*5*5 = 150
        bound = math.sqrt(6.0 / (25 + 150))
        k = init_params(10).params["conv1.kernel"]
        assert np.all(np.abs(k) < bound)
        assert k.max() > 0.8 * bound  # actually fills the range

    def test_num_classes_respected(self):
        model = init_params(11, num_classes=5)
        assert model.params["fc_out.weight"].shape == (84, 5)
        assert model.params["fc_out.bias"].shape == (5,)
        probs, _ = model_forward(model, np.zeros((1, 1, 32, 32)))
        assert probs.shape == (1, 5)
