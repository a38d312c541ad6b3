"""Network math tests; gradients are checked against central finite differences."""

import math

import numpy as np
import pytest

from lifedrop import nn
from lifedrop.data import Dataset
from lifedrop.harness import ConfigError, RunConfig
from lifedrop.regularizers import RegularizerConfig, alpha_affine, classical_gain, gaussian_gain


def toy_network(weight_lists, bias_lists):
    return [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
            for w, b in zip(weight_lists, bias_lists)]


def random_network(arch, input_dim, class_count, seed):
    return nn.init_network(list(arch), input_dim, class_count, seed=seed)


def mask_scales(masks):
    """Scales that drop units: a 1 in a binary mask gives that unit a gain of 0 and no offset."""
    return [(1.0 - np.asarray(m, dtype=np.float64), None) for m in masks]


def loss_of(network, x, y, scales=None):
    probs, _ = nn.forward(network, x, scales=scales)
    return nn.cross_entropy(probs[np.arange(y.shape[0]), y])


def numeric_grads(network, x, y, scales=None, eps=1e-5):
    """Central finite differences over every weight and bias."""
    grads = []
    for li, (weights, bias) in enumerate(network):
        dw = np.zeros_like(weights)
        for idx in np.ndindex(*weights.shape):
            w_plus = weights.copy()
            w_plus[idx] += eps
            w_minus = weights.copy()
            w_minus[idx] -= eps
            up = _with_layer(network, li, w_plus, bias)
            down = _with_layer(network, li, w_minus, bias)
            dw[idx] = (loss_of(up, x, y, scales) - loss_of(down, x, y, scales)) / (2 * eps)
        db = np.zeros_like(bias)
        for j in range(bias.shape[0]):
            b_plus = bias.copy()
            b_plus[j] += eps
            b_minus = bias.copy()
            b_minus[j] -= eps
            up = _with_layer(network, li, weights, b_plus)
            down = _with_layer(network, li, weights, b_minus)
            db[j] = (loss_of(up, x, y, scales) - loss_of(down, x, y, scales)) / (2 * eps)
        grads.append((dw, db))
    return grads


def _with_layer(network, index, weights, bias):
    layers = list(network)
    layers[index] = (weights, bias)
    return layers


def copy_network(network):
    return [(w.copy(), b.copy()) for w, b in network]


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
            worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def hidden_preactivations(network, x, scales=None):
    """Each hidden layer's z * gain + offset, recomputed from the activations forward keeps."""
    _, (activations, _) = nn.forward(network, x, scales=scales)
    out = []
    for l, layer in enumerate(network[:-1]):
        z = nn.dense_forward(layer, activations[l])
        if scales is not None:
            gain, offset = scales[l]
            z = z * gain if offset is None else z * gain + offset
        out.append(z)
    return out


def min_abs_hidden_preactivation(network, x, scales=None):
    return min(float(np.abs(zt).min()) for zt in hidden_preactivations(network, x, scales))


class TestDenseForward:
    def test_identity_weights(self):
        layer = (np.eye(2), np.zeros(2))
        assert np.array_equal(nn.dense_forward(layer, np.array([[3.0, -1.0]])), [[3.0, -1.0]])

    def test_hand_multiplied_example(self):
        layer = (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([10.0, 20.0]))
        assert np.array_equal(nn.dense_forward(layer, np.array([[1.0, 1.0]])), [[13.0, 27.0]])

    def test_zero_weights_give_constant(self):
        layer = (np.zeros((1, 3)), np.array([5.0]))
        out = nn.dense_forward(layer, np.random.default_rng(0).normal(size=(4, 3)))
        assert np.array_equal(out, np.full((4, 1), 5.0))

    def test_shape_mismatch_rejected(self):
        layer = (np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            nn.dense_forward(layer, np.array([[1.0, 2.0, 3.0]]))


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        assert np.allclose(nn.softmax(np.zeros((1, 4))), 0.25, atol=1e-15)

    def test_closed_form_example(self):
        out = nn.softmax(np.array([[math.log(1.0), math.log(3.0)]]))
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-14)

    def test_large_logits_do_not_overflow(self):
        out = nn.softmax(np.array([[1000.0, 1000.0]]))
        assert np.array_equal(out, [[0.5, 0.5]])

    def test_rows_sum_to_one(self):
        z = np.random.default_rng(3).normal(size=(50, 10)) * 20
        assert np.abs(nn.softmax(z).sum(axis=1) - 1.0).max() < 1e-12

    def test_shift_invariance(self):
        z = np.random.default_rng(4).normal(size=(5, 6))
        assert np.allclose(nn.softmax(z), nn.softmax(z + 7.0), atol=1e-12)


class TestCrossEntropy:
    # cross_entropy takes each row's probability of its true class
    def test_perfect_prediction_is_zero(self):
        assert nn.cross_entropy(np.array([1.0])) == 0.0

    def test_uniform_over_ten_classes(self):
        assert abs(nn.cross_entropy(np.array([0.1])) - math.log(10)) < 1e-12

    def test_batch_mean(self):
        expected = (-math.log(0.5) - math.log(0.75)) / 2
        assert abs(nn.cross_entropy(np.array([0.5, 0.75])) - expected) < 1e-12

    def test_zero_probability_is_clamped(self):
        assert abs(nn.cross_entropy(np.array([0.0])) - (-math.log(1e-12))) < 1e-9

    def test_never_negative(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(20, 5))
        probs = nn.softmax(z)
        labels = rng.integers(0, 5, size=20)
        assert nn.cross_entropy(probs[np.arange(20), labels]) >= 0.0


class TestInitNetwork:
    def test_same_seed_bitwise_identical(self):
        a = nn.init_network([4, 3], 5, 2, seed=12)
        b = nn.init_network([4, 3], 5, 2, seed=12)
        for (wa, ba), (wb, bb) in zip(a, b):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_biases_start_at_zero(self):
        net = nn.init_network([7], 3, 4, seed=0)
        assert all(np.array_equal(b, np.zeros(w.shape[0])) for w, b in net)

    def test_first_layer_weight_std(self):
        # 512 x 3072 draws is plenty to pin the sample std near sqrt(2/3072).
        net = nn.init_network([512], 3072, 10, seed=1)
        std = net[0][0].std()
        target = math.sqrt(2.0 / 3072.0)
        assert abs(std - target) / target < 0.10

    def test_layer_shapes_and_maskability(self):
        net = nn.init_network([6, 5], 8, 3, seed=2)
        assert [(w.shape, b.shape) for w, b in net] == [((6, 8), (6,)), ((5, 6), (5,)), ((3, 5), (3,))]
        assert all(w.dtype == b.dtype == np.float64 for w, b in net)
        # every layer but the output takes a gain
        _, (_, gains) = nn.forward(net, np.zeros((1, 8)), scales=mask_scales([np.zeros(6), np.zeros(5)]))
        assert len(gains) == 2

    def test_zero_width_rejected(self):
        # init_network trusts its widths: they are checked once, where the run is configured
        for widths in ([4, 0], []):
            with pytest.raises(ConfigError):
                RunConfig(architecture=widths, regularizer=RegularizerConfig("none"), output_dir="unused")


class TestNetworkValidation:
    def test_chain_mismatch_rejected(self):
        l0 = (np.zeros((4, 3)), np.zeros(4))
        l1 = (np.zeros((2, 5)), np.zeros(2))
        with pytest.raises(ValueError):
            nn.forward([l0, l1], np.zeros((1, 3)))


class TestForward:
    def test_zero_masks_equal_no_masks(self):
        net = random_network([5, 4], 6, 3, seed=8)
        x = np.random.default_rng(1).normal(size=(4, 6))
        plain, _ = nn.forward(net, x)
        masked, _ = nn.forward(net, x, scales=mask_scales([np.zeros(5), np.zeros(4)]))
        assert np.array_equal(plain, masked)

    def test_all_ones_mask_silences_layer(self):
        net = random_network([5, 4], 6, 3, seed=8)
        x = np.random.default_rng(2).normal(size=(3, 6))
        _, (activations, gains) = nn.forward(net, x, scales=mask_scales([np.ones(5), np.zeros(4)]))
        assert np.array_equal(activations[1], np.zeros((3, 5)))
        assert np.array_equal(gains[0], np.zeros(5))

    def test_single_masked_unit_equals_zeroed_outgoing_weights(self):
        # Dropping unit u of layer 0 must match deleting its outgoing
        # connections, bit for bit.
        net = random_network([5, 4], 6, 3, seed=21)
        x = np.random.default_rng(3).normal(size=(4, 6))
        mask = np.zeros(5)
        mask[2] = 1.0
        masked, _ = nn.forward(net, x, scales=mask_scales([mask, np.zeros(4)]))

        cut = net[1][0].copy()
        cut[:, 2] = 0.0
        surgically = _with_layer(net, 1, cut, net[1][1])
        plain, _ = nn.forward(surgically, x)
        assert np.array_equal(masked, plain)

    def test_mask_applied_before_relu(self):
        # A masked unit with negative pre-activation contributes relu(0) = 0,
        # identical to relu of the zeroed pre-activation.
        net = toy_network([[[1.0], [-1.0]], [[1.0, 1.0], [2.0, 2.0]]],
                          [[0.0, 0.0], [0.0, 0.0]])
        _, (activations, gains) = nn.forward(net, [[3.0]], scales=mask_scales([[1.0, 0.0]]))
        assert np.array_equal(gains[0], [0.0, 1.0])
        assert np.array_equal(hidden_preactivations(net, [[3.0]], mask_scales([[1.0, 0.0]]))[0], [[0.0, -3.0]])
        assert np.array_equal(activations[1], [[0.0, 0.0]])

    def test_trace_relu_relation(self):
        net = random_network([6, 5], 4, 3, seed=5)
        x = np.random.default_rng(6).normal(size=(7, 4))
        probs, (activations, gains) = nn.forward(net, x)
        assert len(activations) == 4 and activations[-1] is probs
        assert np.array_equal(activations[0], x)
        for l, layer in enumerate(net[:-1]):
            assert np.array_equal(activations[l + 1], np.maximum(nn.dense_forward(layer, activations[l]), 0.0))
        assert gains == [None, None]

    def test_scales_rescale_preactivations(self):
        net = random_network([5], 6, 3, seed=9)
        x = np.random.default_rng(7).normal(size=(2, 6))
        gain = np.full((2, 5), 2.0)
        offset = np.full((2, 5), 0.25)
        _, (activations, _) = nn.forward(net, x, scales=[(gain, offset)])
        assert np.array_equal(activations[1], np.maximum(nn.dense_forward(net[0], x) * 2.0 + 0.25, 0.0))

    def test_batch_shape_rejected(self):
        net = random_network([5], 6, 3, seed=8)
        with pytest.raises(ValueError):
            nn.forward(net, np.zeros((2, 7)))


def out_of_place_pass(network, x, scales, labels):
    """(activations, grads) by the textbook formulas, each step a new array."""
    activations = [x]
    for l, (w, b) in enumerate(network[:-1]):
        z = activations[-1] @ w.T + b
        if scales is not None:
            gain, offset = scales[l]
            z = z * gain if offset is None else z * gain + offset
        activations.append(np.maximum(z, 0.0))
    activations.append(nn.softmax(activations[-1] @ network[-1][0].T + network[-1][1]))
    dz = (activations[-1] - np.eye(network[-1][0].shape[0])[labels]) / labels.shape[0]
    grads = [None] * len(network)
    for l in range(len(network) - 1, -1, -1):
        grads[l] = (dz.T @ activations[l], dz.sum(axis=0))
        if l > 0:
            dz = (dz @ network[l][0]) * (activations[l] > 0)
            if scales is not None:
                dz = dz * scales[l - 1][0]
    return activations, grads


NOISE_DRAWS = {"none": None, "classical": classical_gain, "gaussian": gaussian_gain, "alpha": alpha_affine}


def noise_scales(kind, widths, n, seed):
    draw = NOISE_DRAWS[kind]
    return None if draw is None else [draw((n, w), 0.4, np.random.default_rng(seed + l)) for l, w in enumerate(widths)]


class TestInPlace:
    # forward, backward and sgd_step work in place; their results must be the
    # out-of-place formulas' bit for bit, and the caller's inputs untouched

    @pytest.mark.parametrize("kind", sorted(NOISE_DRAWS))
    def test_pass_equals_out_of_place_formulas_bitwise(self, kind):
        widths = (24, 16, 16)
        net = random_network(widths, 12, 5, seed=31)
        rng = np.random.default_rng(32)
        x = rng.normal(size=(40, 12))
        y = rng.integers(0, 5, size=40)
        scales = noise_scales(kind, widths, 40, seed=33)
        want_activations, want_grads = out_of_place_pass(net, x, scales, y)
        probs, trace = nn.forward(net, x, scales=scales)
        grads = nn.backward(net, trace, y)
        assert probs is trace[0][-1]
        assert [a.tobytes() for a in trace[0]] == [a.tobytes() for a in want_activations]
        assert [(dw.tobytes(), db.tobytes()) for dw, db in grads] == \
            [(dw.tobytes(), db.tobytes()) for dw, db in want_grads]

    @pytest.mark.parametrize("kind", sorted(NOISE_DRAWS))
    def test_no_input_is_written(self, kind):
        widths = (16, 16)
        rng = np.random.default_rng(34)
        features = rng.normal(size=(30, 8))
        dataset = Dataset(features, np.arange(30) % 3, name="floats", class_count=3)
        kept = features.copy()
        x = dataset.rows(slice(5, 25))
        assert np.shares_memory(x, dataset.features)
        net = random_network(widths, 8, 3, seed=35)
        scales = noise_scales(kind, widths, 20, seed=36)
        held_scales = [(g.copy(), None if o is None else o.copy()) for g, o in scales or ()]
        _, trace = nn.forward(net, x, scales=scales)
        held_trace = [a.copy() for a in trace[0]]
        nn.backward(net, trace, dataset.labels[5:25])
        assert trace[0][0] is x and features.tobytes() == kept.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(trace[0], held_trace))
        for (g, o), (g0, o0) in zip(scales or (), held_scales):
            assert np.array_equal(g, g0) and (o is None or np.array_equal(o, o0))


class TestBackward:
    def test_output_layer_shortcut(self):
        # d(loss)/d(logits) = (probs - one-hot labels) / batch surfaces
        # directly as the output layer's bias gradient.
        net = random_network([3], 2, 2, seed=14)
        x = np.array([[0.3, -1.2]])
        probs, trace = nn.forward(net, x)
        grads = nn.backward(net, trace, np.array([0]))
        assert np.allclose(grads[-1][1], probs[0] - [1.0, 0.0], atol=1e-15)

    def test_output_gradients_equal_the_one_hot_form_bitwise(self):
        # backward subtracts 1 at each row's label; that must round exactly like
        # probs - one_hot(labels), also where a probability is exactly 0
        net = random_network([4], 3, 5, seed=3)
        rng = np.random.default_rng(71)
        x = rng.normal(size=(6, 3)) * 1000.0
        labels = rng.integers(0, 5, size=6)
        probs, trace = nn.forward(net, x)
        assert (probs[np.arange(6), labels] == 0.0).any()
        dz = (probs - np.eye(5)[labels]) / 6
        dw, db = nn.backward(net, trace, labels)[-1]
        assert np.array_equal(dw, dz.T @ trace[0][1]) and np.array_equal(db, dz.sum(axis=0))

    def test_fully_masked_layer_gets_zero_gradient(self):
        net = random_network([4, 4], 5, 3, seed=15)
        x = np.random.default_rng(8).normal(size=(3, 5))
        y = np.array([0, 1, 2])
        _, trace = nn.forward(net, x, scales=mask_scales([np.ones(4), np.zeros(4)]))
        grads = nn.backward(net, trace, y)
        assert np.array_equal(grads[0][0], np.zeros((4, 5)))
        assert np.array_equal(grads[0][1], np.zeros(4))

    def test_matches_finite_differences_unmasked(self):
        worst = 0.0
        for seed in [0, 1, 2]:
            net = random_network([4, 3], 3, 2, seed=seed)
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(size=(3, 3)) * 2.0
            y = rng.integers(0, 2, size=3)
            assert min_abs_hidden_preactivation(net, x) > 1e-3  # stay off the ReLU kink
            _, trace = nn.forward(net, x)
            worst = max(worst, max_relative_error(nn.backward(net, trace, y),
                                                  numeric_grads(net, x, y)))
        assert worst < 1e-6

    def test_matches_finite_differences_with_masks(self):
        net = random_network([5, 4], 3, 2, seed=8)
        rng = np.random.default_rng(68)
        x = rng.normal(size=(2, 3)) * 2.0
        y = np.array([0, 1])
        masks = [np.array([0.0, 1.0, 0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0, 0.0])]
        scales = mask_scales(masks)
        _, trace = nn.forward(net, x, scales=scales)
        # unmasked units must sit clear of the ReLU kink or finite
        # differences pick up O(eps) crossing error
        clears = [np.abs(zt[:, g == 1]).min() for zt, g in zip(hidden_preactivations(net, x, scales), trace[1])]
        assert min(clears) > 1e-3
        analytic = nn.backward(net, trace, y)
        assert max_relative_error(analytic, numeric_grads(net, x, y, scales=scales)) < 1e-6

    def test_matches_finite_differences_with_scales(self):
        net = random_network([4], 3, 2, seed=17)
        rng = np.random.default_rng(70)
        x = rng.normal(size=(2, 3)) * 2.0
        y = np.array([1, 0])
        scales = [(rng.uniform(0.5, 1.5, size=(2, 4)), rng.uniform(-0.2, 0.2, size=(2, 4)))]
        _, trace = nn.forward(net, x, scales=scales)
        analytic = nn.backward(net, trace, y)
        assert max_relative_error(analytic, numeric_grads(net, x, y, scales=scales)) < 1e-6

    def test_mismatched_trace_rejected(self):
        net = random_network([4], 3, 2, seed=0)
        other = random_network([5], 3, 2, seed=0)
        _, trace = nn.forward(other, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            nn.backward(net, trace, np.array([0]))


class TestSgdStep:
    def test_zero_gradients_leave_network_unchanged(self):
        net = random_network([3], 2, 2, seed=1)
        before = copy_network(net)
        nn.sgd_step(net, [(np.zeros_like(w), np.zeros_like(b)) for w, b in net], 0.1)
        for (w, _), (w0, _) in zip(net, before):
            assert np.array_equal(w, w0)

    def test_single_parameter_arithmetic(self):
        net = toy_network([[[2.0]]], [[0.0]])
        nn.sgd_step(net, [(np.array([[0.5]]), np.array([0.0]))], 1.0)
        assert net[0][0][0, 0] == 1.5

    def test_two_equal_steps_double_the_shift(self):
        net = random_network([3], 2, 2, seed=2)
        before = copy_network(net)
        for _ in range(2):  # sgd_step consumes its gradients, so each step gets fresh ones
            nn.sgd_step(net, [(np.full_like(w, 0.1), np.full_like(b, 0.1)) for w, b in net], 0.2)
        for (w, _), (w0, _) in zip(net, before):
            assert np.allclose(w, w0 - 2 * 0.2 * 0.1, atol=1e-15)

    def test_in_place_step_equals_new_value_bitwise(self):
        net = random_network([16, 8], 12, 4, seed=3)
        rng = np.random.default_rng(3)
        grads = [(rng.normal(size=w.shape), rng.normal(size=b.shape)) for w, b in net]
        expected = [(w - 0.037 * dw, b - 0.037 * db) for (w, b), (dw, db) in zip(net, grads)]
        held = list(net)  # the caller's (W, b) pairs, taken before the step
        assert nn.sgd_step(net, grads, 0.037) is None
        for (w, b), (w_new, b_new) in zip(held, expected):
            assert np.array_equal(w, w_new) and np.array_equal(b, b_new)

    def test_bad_learning_rate_rejected(self):
        # sgd_step trusts its rate: it is checked once, where the run is configured
        for rate in (0.0, -0.1):
            with pytest.raises(ConfigError):
                RunConfig(architecture=[3], regularizer=RegularizerConfig("none"), output_dir="unused",
                          learning_rate=rate)


def test_loss_drops_on_separable_data():
    # Two well-separated clusters; 200 full-batch steps must cut the loss
    # by at least 90%.
    rng = np.random.default_rng(44)
    x = np.vstack([rng.normal(-2.0, 0.3, size=(40, 4)), rng.normal(2.0, 0.3, size=(40, 4))])
    y = np.repeat([0, 1], 40)
    net = nn.init_network([8], 4, 2, seed=7)
    first = loss_of(net, x, y)
    for _ in range(200):
        _, trace = nn.forward(net, x)
        nn.sgd_step(net, nn.backward(net, trace, y), 0.5)
    assert loss_of(net, x, y) <= 0.1 * first
