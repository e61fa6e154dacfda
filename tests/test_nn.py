import math

import numpy as np
import pytest
from conftest import central_diff, rel_err

from lenetkit.errors import InvalidShape, InvalidState
from lenetkit.nn import (
    LeNetModel,
    avgpool2d_backward,
    avgpool2d_forward,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    init_params,
    model_backward,
    model_forward,
    sigmoid_backward,
    sigmoid_forward,
    softmax,
)

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


class TestModelBackward:
    def test_zero_upstream_zero_grads(self):
        model = init_params(4)
        x = np.random.default_rng(15).uniform(0, 1, (2, 1, 32, 32))
        _, trace = model_forward(model, x)
        model_backward(model, trace, np.zeros((2, 3)))
        for p in model.param_list():
            assert not p.grad.any(), p.name

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
        model_backward(model, trace, out.dlogits)

        eps = 1e-5
        checked = 0
        for p in model.param_list():
            flat_v = p.value.reshape(-1)
            flat_g = p.grad.reshape(-1)
            take = min(25, flat_v.size)
            for i in rng.choice(flat_v.size, size=take, replace=False):
                old = flat_v[i]
                flat_v[i] = old + eps
                fp = loss_value()
                flat_v[i] = old - eps
                fm = loss_value()
                flat_v[i] = old
                fd = (fp - fm) / (2 * eps)
                assert abs(flat_g[i] - fd) / max(1.0, abs(fd)) <= FD_TOL, p.name
                checked += 1
        assert checked >= 200

    def test_identical_traces_identical_grads(self):
        model = init_params(6)
        x = np.random.default_rng(17).uniform(0, 1, (2, 1, 32, 32))
        upstream = np.random.default_rng(18).normal(size=(2, 3))
        _, t1 = model_forward(model, x)
        model_backward(model, t1, upstream)
        grads1 = {p.name: p.grad.copy() for p in model.param_list()}
        _, t2 = model_forward(model, x)
        model_backward(model, t2, upstream)
        for p in model.param_list():
            np.testing.assert_array_equal(p.grad, grads1[p.name])

    def test_consumed_trace_raises(self):
        model = init_params(7)
        x = np.random.default_rng(19).uniform(0, 1, (1, 1, 32, 32))
        _, trace = model_forward(model, x)
        model_backward(model, trace, np.zeros((1, 3)))
        with pytest.raises(InvalidState):
            model_backward(model, trace, np.zeros((1, 3)))
        with pytest.raises(InvalidState):
            model_backward(model, None, np.zeros((1, 3)))


class TestInitParams:
    def test_deterministic_per_seed(self):
        m1, m2 = init_params(42), init_params(42)
        for p1, p2 in zip(m1.param_list(), m2.param_list()):
            np.testing.assert_array_equal(p1.value, p2.value)

    def test_different_seeds_differ(self):
        m1, m2 = init_params(0), init_params(1)
        assert any(not np.array_equal(p1.value, p2.value)
                   for p1, p2 in zip(m1.param_list(), m2.param_list()))

    def test_biases_zero(self):
        model = init_params(9)
        for p in model.param_list():
            if p.name.endswith(".bias"):
                assert not p.value.any(), p.name

    def test_conv1_glorot_bound(self):
        # fan_in = 1*5*5 = 25, fan_out = 6*5*5 = 150
        bound = math.sqrt(6.0 / (25 + 150))
        k = init_params(10)["conv1.kernel"].value
        assert np.all(np.abs(k) < bound)
        assert k.max() > 0.8 * bound  # actually fills the range

    def test_num_classes_respected(self):
        model = init_params(11, num_classes=5)
        assert model["fc_out.weight"].value.shape == (84, 5)
        assert model["fc_out.bias"].value.shape == (5,)
        probs, _ = model_forward(model, np.zeros((1, 1, 32, 32)))
        assert probs.shape == (1, 5)
