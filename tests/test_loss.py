import math
import warnings

import numpy as np
import pytest
from conftest import central_diff, rel_err
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lenetkit.errors import InvalidConfig, InvalidLabel
from lenetkit.loss import (
    FocalConfig,
    cross_entropy,
    focal_loss,
    inverse_frequency_alpha,
)

FD_TOL = 1e-4


class TestCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        logits = np.array([[50.0, 0.0, 0.0]])
        out = cross_entropy(logits, [0])
        assert 0.0 <= out.mean_loss < 1e-20

    def test_uniform_logits(self):
        out = cross_entropy(np.zeros((4, 3)), [0, 1, 2, 0])
        np.testing.assert_allclose(out.mean_loss, math.log(3.0), atol=1e-12)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        out = cross_entropy(rng.normal(size=(6, 4)), rng.integers(0, 4, size=6))
        np.testing.assert_allclose(out.dlogits.sum(axis=1), 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 4))
        targets = [1, 3, 0]

        def loss():
            return cross_entropy(logits, targets).mean_loss

        out = cross_entropy(logits, targets)
        assert rel_err(out.dlogits, central_diff(loss, logits)) <= FD_TOL

    def test_target_out_of_range(self):
        with pytest.raises(InvalidLabel):
            cross_entropy(np.zeros((2, 3)), [0, 3])
        with pytest.raises(InvalidLabel):
            cross_entropy(np.zeros((1, 3)), [-1])

    def test_per_sample_matches_mean(self):
        rng = np.random.default_rng(2)
        out = cross_entropy(rng.normal(size=(5, 3)), rng.integers(0, 3, size=5))
        np.testing.assert_allclose(out.per_sample.mean(), out.mean_loss, rtol=1e-15)


class TestFocalLoss:
    def test_gamma_zero_reduces_to_cross_entropy(self):
        # equal values, not merely close: at scale 300 most probabilities
        # underflow, and a -0.0 gradient entry still equals cross-entropy's 0.0
        rng = np.random.default_rng(3)
        for scale in np.repeat([1.0, 3.0, 30.0, 300.0], 10):
            n, k = rng.integers(1, 9), rng.integers(2, 6)
            logits = rng.normal(scale=scale, size=(n, k))
            targets = rng.integers(0, k, size=n)
            fl = focal_loss(logits, targets, FocalConfig(gamma=0.0))
            ce = cross_entropy(logits, targets)
            assert fl.mean_loss == ce.mean_loss
            np.testing.assert_array_equal(fl.per_sample, ce.per_sample)
            np.testing.assert_array_equal(fl.dlogits, ce.dlogits)

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    @pytest.mark.parametrize("gap", [28.0, 35.0, 60.0, 700.0])
    def test_confidently_wrong_keeps_its_gradient(self, gap, gamma):
        # row n has target n while another class leads it by `gap` logits
        logits = np.array([[0.0, gap, 0.0], [0.0, 0.0, gap], [gap, 0.0, 0.0]])
        targets = np.array([0, 1, 2])
        alpha = np.array([0.5, 1.0, 2.0])
        cfg = FocalConfig(gamma=gamma, alpha=alpha)
        out = focal_loss(logits, targets, cfg)

        log_pt = -(gap + math.log1p(2.0 * math.exp(-gap)))  # z_t - logsumexp(z)
        expect = -alpha * (1.0 - math.exp(log_pt)) ** gamma * log_pt
        np.testing.assert_allclose(out.per_sample, expect, rtol=1e-12)

        def loss():
            return focal_loss(logits, targets, cfg).mean_loss

        assert rel_err(out.dlogits, central_diff(loss, logits)) <= FD_TOL
        # rel_err floors at 1, so a vanished gradient would pass it at large gaps
        np.testing.assert_allclose(out.dlogits[np.arange(3), targets],
                                   -alpha / 3, rtol=1e-9)

    def test_confident_correct_vanishes(self):
        out = focal_loss(np.array([[40.0, 0.0]]), [0], FocalConfig(gamma=2.0))
        assert out.mean_loss < 1e-30

    def test_scalar_hand_value(self):
        # p_t = 0.9 exactly via logits = ln of a normalized distribution
        logits = np.log(np.array([[0.9, 0.05, 0.05]]))
        out = focal_loss(logits, [0], FocalConfig(gamma=2.0))
        expect = (0.1 ** 2) * (-math.log(0.9))
        np.testing.assert_allclose(out.mean_loss, expect, rtol=1e-12)
        np.testing.assert_allclose(out.mean_loss, 1.05361e-3, rtol=1e-4)

    def test_never_exceeds_cross_entropy(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(scale=2.0, size=(20, 3))
        targets = rng.integers(0, 3, size=20)
        fl = focal_loss(logits, targets, FocalConfig(gamma=2.0))
        ce = cross_entropy(logits, targets)
        assert np.all(fl.per_sample <= ce.per_sample + 1e-15)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0])
    def test_gradient_matches_finite_differences(self, gamma):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 3))
        targets = [2, 0, 1, 1]
        cfg = FocalConfig(gamma=gamma, alpha=[0.5, 1.0, 2.0])

        def loss():
            return focal_loss(logits, targets, cfg).mean_loss

        out = focal_loss(logits, targets, cfg)
        assert rel_err(out.dlogits, central_diff(loss, logits)) <= FD_TOL

    def test_alpha_weights_scale_per_sample_loss(self):
        logits = np.zeros((2, 2))
        cfg = FocalConfig(gamma=0.0, alpha=[2.0, 0.5])
        out = focal_loss(logits, [0, 1], cfg)
        np.testing.assert_allclose(out.per_sample,
                                   [2.0 * math.log(2), 0.5 * math.log(2)],
                                   rtol=1e-12)

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            FocalConfig(gamma=-1.0)
        with pytest.raises(InvalidConfig):
            FocalConfig(alpha=[1.0, -2.0])
        with pytest.raises(InvalidConfig):  # a class weighted 0 would never be learned
            FocalConfig(alpha=[1.0, 0.0, 2.0])
        with pytest.raises(InvalidConfig):
            focal_loss(np.zeros((1, 3)), [0], FocalConfig(alpha=[1.0, 1.0]))

    def test_target_out_of_range(self):
        with pytest.raises(InvalidLabel):
            focal_loss(np.zeros((1, 2)), [2], FocalConfig())


class TestBatchProperties:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(10, 4))
        targets = rng.integers(0, 4, size=10)
        perm = rng.permutation(10)
        cfg = FocalConfig(gamma=2.0)
        for fn in (lambda z, t: cross_entropy(z, t),
                   lambda z, t: focal_loss(z, t, cfg)):
            base = fn(logits, targets).mean_loss
            shuffled = fn(logits[perm], targets[perm]).mean_loss
            assert abs(base - shuffled) <= 1e-12


class TestInverseFrequencyAlpha:
    def test_balanced_counts_give_uniform(self):
        np.testing.assert_allclose(inverse_frequency_alpha([10, 10, 10]), 1.0)

    def test_rare_class_upweighted(self):
        alpha = inverse_frequency_alpha([120, 561, 416])
        assert alpha[0] > alpha[2] > alpha[1]
        np.testing.assert_allclose(alpha[0] * 120, alpha[1] * 561, rtol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidConfig):
            inverse_frequency_alpha([3, 0, 2])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_extreme_logits_warn_not_and_give_no_finite_loss_with_a_non_finite_gradient(data):
    # each row holds at least one of +-inf and +-1e308
    n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 5))
    extreme = st.sampled_from([np.inf, -np.inf, 1e308, -1e308])
    logits = data.draw(hnp.arrays(np.float64, (n, k),
                                  elements=extreme | st.floats(-50.0, 50.0)))
    logits[np.arange(n), data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))] = \
        data.draw(hnp.arrays(np.float64, n, elements=extreme))
    targets = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    alpha = data.draw(st.none() | hnp.arrays(np.float64, k, elements=st.floats(0.1, 10.0)))
    cfg = FocalConfig(gamma=data.draw(st.floats(0.0, 5.0)), alpha=alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = cross_entropy(logits, targets), focal_loss(logits, targets, cfg)
    for out in outs:
        assert not np.isfinite(out.mean_loss) or np.isfinite(out.dlogits).all()


def test_focal_at_a_target_logit_of_minus_inf_matches_cross_entropy():
    logits = np.array([[-np.inf, 0.0, 0.0]])
    fl = focal_loss(logits, [0], FocalConfig(gamma=2.0))
    ce = cross_entropy(logits, [0])
    assert fl.mean_loss == ce.mean_loss == np.inf
    np.testing.assert_array_equal(fl.dlogits, [[-1.0, 0.5, 0.5]])
    np.testing.assert_array_equal(ce.dlogits, [[-1.0, 0.5, 0.5]])
