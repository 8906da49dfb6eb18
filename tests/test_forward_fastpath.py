"""The functional forward is bit-identical to a plain reference sweep.

``Network.forward_with_blobs`` rounds each FP16 blob once (a layer
that only copies values over already-rounded blobs is not rounded
again), feeds 1x1 convolutions to the GEMM without an im2col gather
and folds MAX pooling over in-range taps without a padded copy.  The
reference executor below does none of that: it rounds after every
layer the policy applies to, lowers every convolution through
``im2col`` and max-pools over a ``-inf``-padded copy.  Every output
and captured blob must match it byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Concat,
    Convolution,
    Dropout,
    Network,
    Pooling,
    PoolMethod,
    ReLU,
    Softmax,
)
from repro.nn.weights import initialize_network
from repro.nn.zoo import get_model
from repro.numerics import quant
from repro.numerics.half import round_fp16
from repro.numerics.quant import Precision, PrecisionPolicy
from repro.split import enumerate_cuts, half_policies, split_network
from repro.tensors import BlobShape
from repro.tensors.im2col import (
    clear_patch_caches,
    conv2d_gemm,
    im2col,
    patch_cache_info,
)
from repro.tensors.layout import conv_output_hw, pool_output_hw


# -- reference executor -----------------------------------------------------

def reference_conv(layer, x, weight, bias):
    """Grouped convolution, every group lowered through im2col."""
    n = x.shape[0]
    cin = layer.in_channels // layer.group
    cout = layer.num_output // layer.group
    outs = []
    for g in range(layer.group):
        xg = x[:, g * cin:(g + 1) * cin]
        wg = weight[g * cout:(g + 1) * cout].reshape(cout, -1)
        patches = im2col(xg, layer.kernel_size, layer.stride, layer.pad)
        out = np.empty((n, cout, patches.shape[2]), dtype=np.float32)
        np.matmul(wg, patches, out=out)
        out += bias[g * cout:(g + 1) * cout].reshape(1, -1, 1)
        outs.append(out)
    oh, ow = conv_output_hw(x.shape[2], x.shape[3], layer.kernel_size,
                            layer.stride, layer.pad)
    return np.concatenate(outs, axis=1).reshape(n, -1, oh, ow)


def reference_max_pool(x, kernel, stride, pad):
    """Max over a -inf padded copy, windows folded in row-major order."""
    n, c, h, w = x.shape
    oh, ow = pool_output_hw(h, w, kernel, stride, pad)
    xp = np.full((n, c, h + 2 * pad + kernel, w + 2 * pad + kernel),
                 -np.inf, dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x

    def window(di, dj):
        return xp[:, :, di:di + stride * (oh - 1) + 1:stride,
                  dj:dj + stride * (ow - 1) + 1:stride]

    out = np.array(window(0, 0))
    for di in range(kernel):
        for dj in range(kernel):
            if di or dj:
                np.maximum(out, window(di, dj), out=out)
    return out


def _reference_layer(layer, inputs, params):
    if isinstance(layer, Convolution):
        return [reference_conv(layer, inputs[0], params["weight"],
                               params["bias"])]
    if isinstance(layer, Pooling) and layer.method is PoolMethod.MAX:
        s = inputs[0].shape
        k, stride, pad = layer._geometry(BlobShape(*s))
        return [reference_max_pool(inputs[0], k, stride, pad)]
    saved = layer.params
    layer.params = params
    try:
        return layer.forward(inputs)
    finally:
        layer.params = saved


def reference_forward(net, x, policy, capture=()):
    """Unfused in-order sweep that rounds after every applicable layer."""
    x = np.asarray(x, dtype=np.float32)
    if policy.quantize_input_blob:
        x = round_fp16(x)
    blobs = {net.input_blob: x}
    for layer in net.layers:
        applies = policy.applies_to(layer.name)
        params = layer.params
        if policy.quantize_weights and applies and params:
            params = {role: round_fp16(a) for role, a in params.items()}
        outputs = _reference_layer(
            layer, [blobs[b] for b in layer.bottoms], params)
        for top, out in zip(layer.tops, outputs):
            out = np.asarray(out, dtype=np.float32)
            if policy.quantize_activations and applies:
                out = round_fp16(out)
            blobs[top] = out
    return blobs[net.output_blob], {b: blobs[b] for b in capture}


def assert_same_bytes(got, want, what=""):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), f"{what} diverged"


def check(net, x, policy, capture=()):
    out, caps = net.forward_with_blobs(x, policy, capture)
    ref_out, ref_caps = reference_forward(net, x, policy, capture)
    assert_same_bytes(out, ref_out, "output")
    assert set(capture) <= set(caps)
    for name in capture:
        assert_same_bytes(caps[name], ref_caps[name], name)


# -- fixtures ---------------------------------------------------------------

def _model(name):
    net = get_model(name)
    initialize_network(net, seed=0)
    return net


def _batch(net, n, seed=0):
    s = net.input_shape
    return np.random.default_rng(seed).standard_normal(
        (n, s.c, s.h, s.w)).astype(np.float32)


@pytest.fixture(scope="module")
def mini():
    return _model("googlenet-mini")


@pytest.fixture(scope="module")
def micro():
    return _model("googlenet-micro")


def _layers_of(net, cls):
    return frozenset(l.name for l in net.layers if isinstance(l, cls))


# -- googlenet --------------------------------------------------------------

@pytest.mark.parametrize("policy,n", [
    (PrecisionPolicy.fp32(), 8),
    (PrecisionPolicy.fp16(), 1),
    (PrecisionPolicy.fp16(), 8),
], ids=["fp32-b8", "fp16-b1", "fp16-b8"])
def test_googlenet_mini_matches_reference(mini, policy, n):
    check(mini, _batch(mini, n), policy)


@pytest.mark.parametrize("cls", [Concat, Pooling, ReLU],
                         ids=["concat", "pool", "relu"])
def test_fp16_only_copy_layers_are_still_rounded(mini, cls):
    # The filtered layers read blobs produced outside the filter, which
    # are not exact in binary16, so each must still round its output.
    selected = _layers_of(mini, cls)
    producers = {t for l in mini.layers if l.name not in selected
                 for t in l.tops}
    assert any(b in producers for name in selected
               for b in mini.layer(name).bottoms)
    policy = PrecisionPolicy.fp16_only(selected)
    x = _batch(mini, 2, seed=1)
    check(mini, x, policy)
    assert not np.array_equal(mini.forward(x, policy),
                              mini.forward(x, PrecisionPolicy.fp32()))


def test_split_back_half_rounds_its_unrounded_input(micro):
    x = _batch(micro, 2, seed=2)
    for policy in (PrecisionPolicy.fp16(),
                   PrecisionPolicy.fp16_only(_layers_of(micro, Concat))):
        front_policy, back_policy = half_policies(policy)
        assert not back_policy.quantize_input_blob
        for cut in enumerate_cuts(micro):
            front, back = split_network(micro, cut)
            _, caps = front.forward_with_blobs(x, front_policy,
                                               capture=(cut.blob,))
            check(back, caps[cut.blob], back_policy)


@pytest.mark.parametrize("name", ["alexnet-mini", "tinydet-micro"])
@pytest.mark.parametrize("policy", [PrecisionPolicy.fp32(),
                                    PrecisionPolicy.fp16()],
                         ids=["fp32", "fp16"])
def test_other_zoo_networks_match_reference(name, policy):
    net = _model(name)
    check(net, _batch(net, 2, seed=3), policy)


def test_fp16_rounds_each_googlenet_blob_once(mini, monkeypatch):
    calls = []

    def counting(a):
        calls.append(a.shape)
        return round_fp16(a)

    x = _batch(mini, 1)
    mini.forward(x, PrecisionPolicy.fp16())  # rounds and caches weights
    monkeypatch.setattr(quant, "round_fp16", counting)
    mini.forward(x, PrecisionPolicy.fp16())
    # Input, 57 convolutions, 2 LRNs, the global average pool, the
    # classifier and the softmax; no ReLU, MAX pool, Concat or Dropout.
    assert len(calls) == 63


# -- captures and copy layers off the zoo path ------------------------------

def _mixed_net():
    """Out-of-place and leaky ReLUs, ceil-mode pooling, 1x1 conv, concat."""
    net = Network("mixed", "data", BlobShape(1, 4, 9, 9))
    net.add(Convolution("conv_a", "data", "a", num_output=6,
                        kernel_size=3, in_channels=4, pad=1))
    net.add(ReLU("relu_a", "a", "a_r"))
    net.add(Pooling("pool_a", "a_r", "p", method=PoolMethod.MAX,
                    kernel_size=3, stride=2))
    net.add(Convolution("conv_b", "p", "b", num_output=4,
                        kernel_size=1, in_channels=6))
    net.add(ReLU("relu_b", "b", "b"))
    net.add(ReLU("leaky", "p", "l", negative_slope=0.1))
    net.add(Concat("cat", ["b", "l", "p"], "cat"))
    net.add(Dropout("drop", "cat", "cat"))
    net.add(Pooling("pool_g", "cat", "g", method=PoolMethod.AVE,
                    global_pooling=True))
    net.add(Softmax("prob", "g", "prob"))
    initialize_network(net, seed=5)
    return net


@pytest.mark.parametrize("policy", [
    PrecisionPolicy.fp32(),
    PrecisionPolicy.fp16(),
    PrecisionPolicy.fp16_only({"relu_a", "pool_a", "cat"}),
    PrecisionPolicy.fp16_only({"conv_a", "leaky", "drop"}),
    PrecisionPolicy(Precision.FP16, True, True, quantize_input=False),
], ids=["fp32", "fp16", "copies-only", "mixed-filter", "no-input"])
def test_captures_including_pre_relu_blobs(policy):
    net = _mixed_net()
    x = _batch(net, 3, seed=4)
    check(net, x, policy, capture=["a", "a_r", "p", "l", "cat"])
    check(net, x, policy)


# -- kernels ----------------------------------------------------------------

_SPECIALS = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan],
                     dtype=np.float32)


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_max_pool_matches_padded_reference_on_grid(dtype):
    # Ties between +0.0 and -0.0 make the fold order observable; NaN
    # and infinities check propagation and the dropped -inf padding.
    rng = np.random.default_rng(7)
    cases = 0
    for h in range(1, 8):
        for w in range(1, 8):
            for k in range(1, 5):
                for stride in range(1, 5):
                    for pad in range(min(k, 3)):
                        if min(h, w) + 2 * pad < k:
                            continue
                        x = _SPECIALS[rng.integers(
                            0, len(_SPECIALS), size=(2, 3, h, w))
                        ].astype(dtype)
                        layer = Pooling("p", "a", "b",
                                        method=PoolMethod.MAX,
                                        kernel_size=k, stride=stride,
                                        pad=pad)
                        got = layer.forward([x])[0]
                        want = reference_max_pool(x, k, stride, pad)
                        assert_same_bytes(got, want,
                                          f"{(h, w, k, stride, pad)}")
                        cases += 1
    assert cases > 1400


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("sliced", [False, True],
                         ids=["contiguous", "group-slice"])
def test_1x1_conv_gemm_skips_the_gather(dtype, sliced):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 12, 7, 5)).astype(dtype)
    if sliced:
        x = x[:, 4:8]  # one group of a grouped conv: not contiguous
        assert not x.flags.c_contiguous
    w = rng.standard_normal((6, x.shape[1], 1, 1)).astype(dtype)
    b = rng.standard_normal(6).astype(dtype)
    want = np.empty((3, 6, 35), dtype=dtype)
    np.matmul(w.reshape(6, -1), im2col(x, 1, 1, 0), out=want)
    want += b.reshape(1, -1, 1)
    clear_patch_caches()
    got = conv2d_gemm(x, w, b, stride=1, pad=0)
    assert patch_cache_info() == {"index_entries": 0,
                                  "scratch_entries": 0}
    assert_same_bytes(got, want.reshape(3, 6, 7, 5))
