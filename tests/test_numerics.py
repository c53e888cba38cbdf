import numpy as np
import pytest

from semroi.numerics import (
    LayerNormParams,
    LinearParams,
    ShapeError,
    bilinear_sample_many_vjp,
    check_vjp,
    conv1x1_vjp,
    layer_norm,
    layer_norm_vjp,
    linear,
    linear_vjp,
    norm_relu_linear_vjp,
    softmax_spatial,
    softmax_spatial_vjp,
)
from semroi.oracles import relu_vjp
from semroi.sampler import GridSize, RoIBox, block_average_pool_vjp


def test_linear_identity():
    p = LinearParams(np.eye(2), np.zeros(2))
    assert np.array_equal(linear(np.array([3.0, 4.0]), p), [3.0, 4.0])


def test_linear_zero_weight_gives_bias():
    p = LinearParams(np.zeros((2, 2)), np.array([1.0, -1.0]))
    assert np.array_equal(linear(np.array([9.0, 9.0]), p), [1.0, -1.0])


def test_linear_hand_product():
    p = LinearParams(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))
    assert np.array_equal(linear(np.array([1.0, 1.0]), p), [3.0, 7.0])


def test_linear_batched_rows_match_single():
    rng = np.random.default_rng(0)
    p = LinearParams(rng.standard_normal((3, 4)), rng.standard_normal(3))
    xs = rng.standard_normal((5, 4))
    batched = linear(xs, p)
    for i in range(5):
        np.testing.assert_allclose(batched[i], linear(xs[i], p), rtol=0, atol=1e-14)


def test_linear_dim_mismatch_names_both_dims():
    p = LinearParams(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ShapeError, match="4.*3|3.*4"):
        linear(np.zeros(4), p)


def test_linear_and_layer_norm_reject_a_heads_axis():
    rng = np.random.default_rng(0)
    stacked = (rng.standard_normal((3, 2, 4)), rng.standard_normal((3, 2)))
    flat = (rng.standard_normal((2, 4)), rng.standard_normal(2))
    for x, p in ((np.zeros((3, 5, 4)), LinearParams(*flat)), (np.zeros((5, 4)), LinearParams(*stacked))):
        with pytest.raises(ShapeError, match="linear"):
            linear_vjp(x, p)
    norm = LayerNormParams(np.ones(4), np.zeros(4))
    with pytest.raises(ShapeError, match="layer_norm"):
        layer_norm_vjp(np.zeros((3, 5, 4)), norm)
    with pytest.raises(ShapeError, match="layer_norm"):
        layer_norm_vjp(np.zeros((5, 4)), LayerNormParams(np.ones((3, 4)), np.zeros((3, 4))))


def test_layer_norm_constant_input_is_zero():
    p = LayerNormParams(np.ones(4), np.zeros(4))
    out = layer_norm(np.full(4, 7.3), p)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_layer_norm_hand_two_point():
    p = LayerNormParams(np.ones(2), np.zeros(2))
    out = layer_norm(np.array([1.0, -1.0]), p)
    assert np.abs(out - np.array([1.0, -1.0])).max() < 1e-3


def test_layer_norm_shift_invariance():
    rng = np.random.default_rng(1)
    p = LayerNormParams(rng.standard_normal(6), rng.standard_normal(6))
    x = rng.standard_normal(6)
    np.testing.assert_allclose(layer_norm(x + 17.5, p), layer_norm(x, p), atol=1e-10)


def test_layer_norm_gain_equivariance():
    rng = np.random.default_rng(2)
    gain = rng.standard_normal(5)
    x = rng.standard_normal(5)
    base = layer_norm(x, LayerNormParams(gain, np.zeros(5)))
    scaled = layer_norm(x, LayerNormParams(3.0 * gain, np.zeros(5)))
    np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-12)


def test_relu_examples():
    assert np.array_equal(relu_vjp(np.array([-1.0, 0.0, 2.0]))[0], [0.0, 0.0, 2.0])
    assert np.array_equal(relu_vjp(np.array([-3.0, -0.1]))[0], [0.0, 0.0])


def test_relu_idempotent():
    x = np.random.default_rng(3).standard_normal(20)
    once = relu_vjp(x)[0]
    np.testing.assert_array_equal(relu_vjp(once)[0], once)


def test_softmax_uniform_logits():
    out = softmax_spatial(np.zeros((1, 2, 2)), gamma=13.0)
    np.testing.assert_allclose(out, 0.25, atol=1e-12)


def test_softmax_hand_case():
    logits = np.array([[[np.log(2.0), 0.0], [0.0, 0.0]]])
    out = softmax_spatial(logits, gamma=1.0)
    np.testing.assert_allclose(out[0], [[0.4, 0.2], [0.2, 0.2]], atol=1e-12)


def test_softmax_shift_invariance_per_slice():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((3, 2, 4))
    shifted = logits.copy()
    shifted[1] += 100.0
    np.testing.assert_allclose(
        softmax_spatial(shifted, 7.0), softmax_spatial(logits, 7.0), atol=1e-12
    )


def test_softmax_slices_normalized_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        out = softmax_spatial(rng.standard_normal((4, 3, 5)), gamma=50.0)
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=(1, 2)), 1.0, atol=1e-9)


def test_softmax_rejects_bad_gamma():
    for gamma in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma"):
            softmax_spatial(np.zeros((1, 2, 2)), gamma=gamma)


def test_softmax_finite_on_extreme_logits():
    logits = np.array([[[1e3, -1e3], [500.0, 0.0]]])
    out = softmax_spatial(logits, gamma=50.0)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-9)


def sample_point(fmap, y, x):
    """(C,) bilinear sample of ``fmap`` at one point."""
    return bilinear_sample_many_vjp(fmap, [y], [x])[0][:, 0]


def test_bilinear_integer_coordinate_is_exact():
    rng = np.random.default_rng(6)
    fmap = rng.standard_normal((3, 4, 5))
    np.testing.assert_array_equal(sample_point(fmap, 1.0, 2.0), fmap[:, 1, 2])


def test_bilinear_midpoint_is_mean():
    fmap = np.random.default_rng(7).standard_normal((2, 3, 3))
    got = sample_point(fmap, 1.0, 1.5)
    np.testing.assert_allclose(got, 0.5 * (fmap[:, 1, 1] + fmap[:, 1, 2]), atol=1e-14)


def test_bilinear_clamps_out_of_range():
    fmap = np.random.default_rng(8).standard_normal((2, 4, 4))
    np.testing.assert_array_equal(sample_point(fmap, -5.0, -5.0), fmap[:, 0, 0])
    np.testing.assert_array_equal(sample_point(fmap, 99.0, 99.0), fmap[:, -1, -1])


def test_bilinear_linear_along_axis():
    fmap = np.random.default_rng(9).standard_normal((1, 4, 4))
    a = sample_point(fmap, 2.0, 1.0)
    b = sample_point(fmap, 3.0, 1.0)
    for t in (0.25, 0.5, 0.8):
        np.testing.assert_allclose(
            sample_point(fmap, 2.0 + t, 1.0), (1 - t) * a + t * b, atol=1e-12
        )


def test_conv1x1_matches_per_position_products():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 2, 3))
    p = LinearParams(rng.standard_normal((5, 4)), rng.standard_normal(5))
    out, _ = conv1x1_vjp(x, p)
    for j in range(2):
        for k in range(3):
            np.testing.assert_allclose(
                out[:, j, k], p.weight @ x[:, j, k] + p.bias, atol=1e-12
            )


@pytest.mark.parametrize("x_shape", [(4, 5), (1, 5)])
def test_norm_relu_linear_keeps_its_input_and_extended_precision(x_shape):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(x_shape).astype(np.longdouble)
    before = x.copy()
    norm = LayerNormParams(*rng.standard_normal((2, 5)).astype(np.longdouble))
    lin = LinearParams(rng.standard_normal((2, 5)).astype(np.longdouble),
                       rng.standard_normal(2).astype(np.longdouble))
    y, rec = norm_relu_linear_vjp(x, norm, lin)
    grads = rec.backward(np.ones(y.shape, dtype=np.longdouble))
    assert np.array_equal(x, before)
    assert y.dtype == np.longdouble
    assert [g.dtype for g in grads] == [np.longdouble] * 5
    assert grads[0].shape == x.shape


def test_norm_relu_linear_rejects_mismatched_shapes():
    norm = LayerNormParams(np.ones(5), np.zeros(5))
    lin = LinearParams(np.zeros((2, 5)), np.zeros(2))
    for x in (np.zeros((4, 6)), np.zeros((1, 4, 5)), np.zeros(5)):
        with pytest.raises(ShapeError, match="norm_relu_linear"):
            norm_relu_linear_vjp(x, norm, lin)
    with pytest.raises(ShapeError, match="norm_relu_linear"):
        norm_relu_linear_vjp(np.zeros((4, 5)), LayerNormParams(np.ones(6), np.zeros(6)), lin)


# ---------------------------------------------------------------------------
# gradient checks: every differentiable op, 20 seeds each


def _linear_case(seed):
    # odd seeds feed a row batch, even seeds a vector
    rng = np.random.default_rng(seed)
    args = {
        "x": rng.standard_normal((4, 3) if seed % 2 else 3),
        "weight": rng.standard_normal((2, 3)),
        "bias": rng.standard_normal(2),
    }

    def fn(x, weight, bias):
        y, rec = linear_vjp(x, LinearParams(weight, bias))
        return y, lambda g: dict(zip(("x", "weight", "bias"), rec.backward(g)))

    return fn, args


def _layer_norm_case(seed):
    # odd seeds feed a vector, even seeds a row batch
    rng = np.random.default_rng(seed)
    args = {
        "x": rng.standard_normal(4 if seed % 2 else (3, 4)),
        "gain": rng.standard_normal(4),
        "shift": rng.standard_normal(4),
    }

    def fn(x, gain, shift):
        y, rec = layer_norm_vjp(x, LayerNormParams(gain, shift))
        return y, lambda g: dict(zip(("x", "gain", "shift"), rec.backward(g)))

    return fn, args


def _norm_relu_linear_case(seed):
    rng = np.random.default_rng(seed)
    args = {
        "x": rng.standard_normal((4, 5)),
        "gain": rng.standard_normal(5),
        "shift": rng.standard_normal(5),
        "weight": rng.standard_normal((2, 5)),
        "bias": rng.standard_normal(2),
    }

    def fn(x, gain, shift, weight, bias):
        y, rec = norm_relu_linear_vjp(x, LayerNormParams(gain, shift), LinearParams(weight, bias))
        return y, lambda g: dict(zip(("x", "gain", "shift", "weight", "bias"), rec.backward(g)))

    return fn, args


def _relu_case(seed):
    rng = np.random.default_rng(seed)
    args = {"x": rng.standard_normal(10)}

    def fn(x):
        y, rec = relu_vjp(x)
        return y, lambda g: {"x": rec.backward(g)[0]}

    return fn, args


def _softmax_case(seed):
    rng = np.random.default_rng(seed)
    args = {"logits": rng.standard_normal((2, 3, 3)) * 0.5}

    def fn(logits):
        y, rec = softmax_spatial_vjp(logits, gamma=50.0)
        return y, lambda g: {"logits": rec.backward(g)[0]}

    return fn, args


def _conv1x1_case(seed):
    rng = np.random.default_rng(seed)
    args = {
        "x": rng.standard_normal((3, 2, 2)),
        "weight": rng.standard_normal((2, 3)),
        "bias": rng.standard_normal(2),
    }

    def fn(x, weight, bias):
        y, rec = conv1x1_vjp(x, LinearParams(weight, bias))
        return y, lambda g: dict(zip(("x", "weight", "bias"), rec.backward(g)))

    return fn, args


def _bilinear_case(seed):
    rng = np.random.default_rng(seed)
    ys = rng.uniform(0.2, 2.8, size=6)
    xs = rng.uniform(0.2, 2.8, size=6)
    args = {"fmap": rng.standard_normal((2, 4, 4))}

    def fn(fmap):
        y, rec = bilinear_sample_many_vjp(fmap, ys, xs)
        return y, lambda g: {"fmap": rec.backward(g)[0]}

    return fn, args


def _block_average_pool_case(seed):
    rng = np.random.default_rng(seed)
    box = RoIBox(-1.4, 2.3, 3.1, 6.8)  # crosses the left and bottom borders
    args = {"fmap": rng.standard_normal((2, 5, 4))}

    def fn(fmap):
        y, rec = block_average_pool_vjp(fmap, box, GridSize(3, 2))
        return y, lambda g: {"fmap": rec.backward(g)[0]}

    return fn, args


OP_CASES = {
    "linear": _linear_case,
    "layer_norm": _layer_norm_case,
    "norm_relu_linear": _norm_relu_linear_case,
    "relu": _relu_case,
    "softmax_spatial": _softmax_case,
    "conv1x1": _conv1x1_case,
    "bilinear_sample_many": _bilinear_case,
    "block_average_pool": _block_average_pool_case,
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_vjp_matches_finite_differences(name):
    worst = 0.0
    for seed in range(20):
        fn, args = OP_CASES[name](seed)
        report = check_vjp(fn, args, seed=seed)
        worst = max(worst, report.max_rel_err)
        assert report.passed, f"{name} seed {seed}: {report}"
    assert worst < 1e-4


def test_check_vjp_catches_sign_flip():
    rng = np.random.default_rng(0)
    args = {
        "x": rng.standard_normal(3),
        "weight": rng.standard_normal((2, 3)),
        "bias": rng.standard_normal(2),
    }

    def corrupted(x, weight, bias):
        y, rec = linear_vjp(x, LinearParams(weight, bias))

        def vjp(g):
            gx, gw, gb = rec.backward(g)
            return {"x": -gx, "weight": gw, "bias": gb}

        return y, vjp

    report = check_vjp(corrupted, args, seed=0)
    assert not report.passed
    assert report.worst.startswith("x[")


def test_check_vjp_rejects_a_float64_downcast():
    args = {"x": np.random.default_rng(0).standard_normal(3)}

    def downcast(x):
        y, rec = relu_vjp(x.astype(float))
        return y, lambda g: {"x": rec.backward(g)[0]}

    with pytest.raises(TypeError, match="float64"):
        check_vjp(downcast, args, seed=0)
