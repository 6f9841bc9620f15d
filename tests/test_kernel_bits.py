"""The forward kernels against the formulas they replaced, bit for bit.

Each reference below is an earlier, plainer statement of a kernel in
`familykit.tensor`: RoPE on half-width tables, the softmax shift by
`np.max`, cross-entropy on out-of-place float64 temporaries, and silu and
rmsnorm without reused buffers. The kernels make fewer passes over memory;
these properties pin that they still round every value the same way.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from familykit import tensor
from familykit.tensor import (Tensor, backward, cross_entropy, k_cross_entropy,
                              k_masked_softmax, k_matmul, k_rmsnorm, k_rope, k_silu,
                              k_softmax, rope_tables)

SPECIAL = np.array([0.0, -0.0, 1e30, -1e30])


def bits(x: np.ndarray) -> np.ndarray:
    """The raw bytes of `x`, so that -0.0 differs from 0.0 and NaN from NaN."""
    x = np.ascontiguousarray(x)
    return x.view(np.dtype(f"u{x.itemsize}"))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(bits(a), bits(b))


def with_specials(rng: np.random.Generator, shape, dtype, share: float) -> np.ndarray:
    """Standard normal values with a `share` of them replaced by +-0.0 and +-1e30."""
    x = rng.standard_normal(shape)
    hit = rng.random(shape) < share
    x[hit] = rng.choice(SPECIAL, size=int(hit.sum()))
    return x.astype(dtype)


# ---------------------------------------------------------------------------
# the formulas the kernels replaced
# ---------------------------------------------------------------------------

def rope_reference(x, cos, sin):
    """Rotation on the (..., Dh/2) halves with half-width cos/sin tables."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def masked_softmax_reference(scores, allowed):
    scores = scores.copy()
    np.copyto(scores, -np.inf, where=~allowed)
    scores -= np.max(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= k_matmul(scores, np.ones((scores.shape[-1], 1), scores.dtype))
    return scores


def softmax_reference(x, axis):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def cross_entropy_reference(logits, targets, ignore_index=-1):
    """(loss, gradient of the loss) with every temporary out of place."""
    vocab = logits.shape[-1]
    tflat = targets.reshape(-1)
    kflat = tflat != ignore_index
    flat = logits.reshape(-1, vocab).astype(np.float64)
    m = np.max(flat, axis=-1)
    lse = m + np.log(np.sum(np.exp(flat - m[:, None]), axis=-1))
    nll = lse - flat[np.arange(flat.shape[0]), np.where(kflat, tflat, 0)]
    loss = np.float64(nll[kflat].sum() / kflat.sum())
    p = softmax_reference(logits.reshape(-1, vocab), axis=-1).astype(np.float64)
    p[np.arange(p.shape[0]), np.where(kflat, tflat, 0)] -= 1.0
    p[~kflat] = 0.0
    p *= 1.0 / int(kflat.sum())
    return loss, p.reshape(logits.shape).astype(logits.dtype)


def silu_reference(x):
    return x * (1.0 / (1.0 + np.exp(-x)))


def rmsnorm_reference(x, gamma, eps):
    mean_sq = np.sum(np.square(x), axis=-1, keepdims=True) / x.shape[-1]
    inv = (1.0 / np.sqrt(mean_sq + np.asarray(eps, x.dtype))).astype(x.dtype)
    return x * inv * gamma


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(b=st.integers(1, 3), t=st.integers(1, 64), h=st.integers(1, 4),
       half=st.integers(1, 8), offset=st.integers(0, 200), share=st.sampled_from([0.0, 0.3]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_rope_and_its_backward_match_the_two_half_rotation(b, t, h, half, offset, share,
                                                           dtype, seed):
    rng = np.random.default_rng(seed)
    dh = 2 * half
    x = with_specials(rng, (b, t, h, dh), dtype, share)
    g = with_specials(rng, (b, t, h, dh), dtype, share)
    c, s = rope_tables(np.arange(offset, offset + t), dh, 10000.0, dtype=dtype)
    assert same_bits(c, np.concatenate([c[:, :half]] * 2, axis=-1))
    assert same_bits(s[:, :half], -s[:, half:])
    cos, sin = c[:, None, :half], s[:, None, half:]
    assert same_bits(k_rope(x, c[:, None], s[:, None]), rope_reference(x, cos, sin))
    # the same values in a layout whose channel axis is strided
    strided = np.ascontiguousarray(x.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1)
    assert same_bits(k_rope(strided, c[:, None], s[:, None]), rope_reference(x, cos, sin))
    # the backward of the autodiff op is the same kernel with -S
    assert same_bits(k_rope(g, c[:, None], -s[:, None]), rope_reference(g, cos, -sin))
    xt = Tensor(x, requires_grad=True, dtype=dtype)
    out = tensor.rope(xt, c[:, None], s[:, None])
    out._bwd(g)
    assert same_bits(xt.grad, rope_reference(g, cos, -sin))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.sampled_from([1, 5, 32, 128, tensor.WIDE_CALL_ROWS, 2 * tensor.WIDE_CALL_ROWS]),
       width=st.sampled_from([8, 13, 24, 64]), share=st.sampled_from([0.0, 0.2, 0.6]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_masked_softmax_matches_the_np_max_shift_on_both_arms(rows, width, share, dtype, seed):
    # rows below and from WIDE_CALL_ROWS take the two arms of the row max;
    # scores hold -inf and ties of 0.0 with -0.0, and every row keeps at
    # least one finite allowed score
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((rows, width))
    hit = rng.random(scores.shape) < share
    scores[hit] = rng.choice([-np.inf, 0.0, -0.0], size=int(hit.sum()))
    allowed = rng.random(scores.shape) < 0.7
    keep = rng.integers(0, width, rows)
    allowed[np.arange(rows), keep] = True
    scores[np.arange(rows), keep] = rng.choice([0.0, -0.0, 1.5], size=rows)
    scores = scores.astype(dtype).reshape(1, rows, width)
    allowed = allowed.reshape(1, rows, width)
    want = masked_softmax_reference(scores, allowed)
    assert same_bits(k_masked_softmax(scores.copy(), allowed), want)
    row_max = tensor._row_max(scores)
    assert np.array_equal(row_max, np.max(scores, axis=-1, keepdims=True))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(b=st.integers(1, 4), t=st.integers(1, 70), vocab=st.integers(2, 300),
       ignored=st.sampled_from([0.0, 0.3, 0.9]), scale=st.sampled_from([1.0, 30.0]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_cross_entropy_value_and_gradient_match(b, t, vocab, ignored, scale, dtype, seed):
    rng = np.random.default_rng(seed)
    logits = (scale * rng.standard_normal((b, t, vocab))).astype(dtype)
    targets = rng.integers(0, vocab, (b, t))
    targets[rng.random((b, t)) < ignored] = -1
    targets.reshape(-1)[rng.integers(0, b * t)] = rng.integers(0, vocab)
    before = logits.copy()
    want_loss, want_grad = cross_entropy_reference(logits, targets)
    assert same_bits(np.asarray(k_cross_entropy(logits, targets)), np.asarray(want_loss))
    assert same_bits(logits, before)  # the caller's logits are not touched
    x = Tensor(logits, requires_grad=True, dtype=dtype)
    loss = cross_entropy(x, targets)
    backward(loss)
    assert same_bits(np.asarray(loss.data), np.asarray(want_loss))
    assert same_bits(x.grad, want_grad)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shape=st.sampled_from([(1, 1, 8), (2, 5, 32), (8, 64, 32), (3, 7, 13)]),
       share=st.sampled_from([0.0, 0.3]), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
def test_silu_rmsnorm_and_softmax_match(shape, share, dtype, seed):
    rng = np.random.default_rng(seed)
    x = with_specials(rng, shape, dtype, share)
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(k_silu(x), silu_reference(x))
        gamma = rng.standard_normal(shape[-1]).astype(dtype)
        assert same_bits(k_rmsnorm(x, gamma, 1e-5), rmsnorm_reference(x, gamma, 1e-5))
        assert same_bits(k_softmax(x, axis=-1), softmax_reference(x, axis=-1))
