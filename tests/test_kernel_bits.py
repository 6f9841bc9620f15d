"""The forward kernels against the formulas they replaced, bit for bit.

Each reference below is an earlier, plainer statement of a kernel in
`familykit.tensor` or `familykit.inference`: RoPE on half-width tables, the
softmax shift by `np.max`, cross-entropy on out-of-place float64
temporaries, silu and rmsnorm without reused buffers, the tiled product
that padded every operand through a pad call, attention that padded keys
and values before laying them out, and the max softmax probability through
`np.max` and `np.sum`. The kernels make fewer passes over memory and fewer
calls; these properties pin that they still round every value the same way.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pad_keys

from familykit import tensor
from familykit.errors import InputError
from familykit.inference import confidence
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


def matmul_reference(a, b):
    """The tiled product with every operand padded through a pad call (a
    no-op at whole tiles), `...` slices, and the product always sliced."""
    if a.ndim >= 2 and b.ndim == 2:
        rows = a.reshape(-1, a.shape[-1])
    else:
        rows, b = a, b[:, :, None]
    n = rows.shape[-2]
    padded = np.ascontiguousarray(pad_keys(rows, n + (-n % tensor.ROW_TILE)))
    tiles = padded.reshape(padded.shape[:-2] + (-1, tensor.ROW_TILE, padded.shape[-1]))
    out = np.matmul(tiles, np.ascontiguousarray(b)).reshape(padded.shape[:-1] + (b.shape[-1],))
    return out[..., :n, :].reshape(a.shape[:-1] + (b.shape[-1],))


def masked_softmax_reference(scores, allowed):
    scores = scores.copy()
    np.copyto(scores, -np.inf, where=~allowed)
    scores -= np.max(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= matmul_reference(scores, np.ones((scores.shape[-1], 1), scores.dtype))
    return scores


def attention_reference(q, k, v, allowed, scale):
    """Attention with keys and values padded to the mask width first and
    laid out head-major after, in a second copy; returns what `_attention`
    returns."""
    b, t, hq, _ = q.shape
    hkv, n_keys = k.shape[2], allowed.shape[1]
    qh = tensor._head_major(q, hkv)
    kt = np.ascontiguousarray(np.swapaxes(pad_keys(k.transpose(0, 2, 1, 3), n_keys), -1, -2))
    vh = np.ascontiguousarray(pad_keys(v.transpose(0, 2, 1, 3), n_keys))
    s = matmul_reference(qh, kt)
    s = np.multiply(s, np.asarray(scale, s.dtype), out=s if s.flags.c_contiguous else None)
    p = masked_softmax_reference(s.reshape(b, hkv, hq // hkv, t, n_keys), allowed).reshape(s.shape)
    return tensor._token_major(matmul_reference(p, vh), t), p, qh, kt, vh


def confidence_reference(logits_row):
    row = np.asarray(logits_row, dtype=np.float64)
    return float(1.0 / np.sum(np.exp(row - np.max(row))))


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


def _operands(rng, arity, n, m, strided, dtype):
    """(a, b) of `arity` with n rows per matrix of a and m columns of b. A
    strided pair takes every other column of wider buffers, a layout BLAS
    cannot take; numpy copies such an operand for a matrix product but, with
    one column, computes the matrix-vector product its own way."""
    a_shape, b_shape = ((3, n, 12), (12, m)) if arity == "nd x 2d" else \
        ((2, 3, n, 6), (2, 3, 6, m))
    if not strided:
        return (with_specials(rng, a_shape, dtype, 0.05),
                with_specials(rng, b_shape, dtype, 0.05))
    wide = [with_specials(rng, shape[:-1] + (2 * shape[-1],), dtype, 0.05)
            for shape in (a_shape, b_shape)]
    return wide[0][..., ::2], wide[1][..., ::2]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arity", ["nd x 2d", "4d x 4d"])
def test_matmul_matches_the_padded_product_at_every_row_count(arity, dtype):
    # 1 to 40 rows: one to five tiles and every remainder, with contiguous
    # and strided operands, against one column (the softmax denominator's
    # shape) and several; the result keeps the old layout too (a strided
    # view only where a 4-d product was padded), which attention reads
    rng = np.random.default_rng(17)
    for n, m, strided in itertools.product(range(1, 41), (1, 9), (False, True)):
        a, b = _operands(rng, arity, n, m, strided, dtype)
        assert a.flags.c_contiguous != strided and b.flags.c_contiguous != strided
        before = a.copy(), b.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = k_matmul(a, b), matmul_reference(a, b)
        assert same_bits(got, want), (n, m, strided)
        assert got.flags.c_contiguous == want.flags.c_contiguous, (n, m, strided)
        assert same_bits(a, before[0]) and same_bits(b, before[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arity", ["nd x 2d", "4d x 4d"])
def test_one_tile_rows_equal_their_rows_in_a_call_of_three_tiles(arity, dtype):
    # a call of at most one tile goes to BLAS without a tile axis; each of
    # its 1 to 8 rows still has the bits of the same row among 3 tiles,
    # taken from the start, the middle and the end of the longer call
    rng = np.random.default_rng(23)
    tile = tensor.ROW_TILE
    for n, m in itertools.product(range(1, tile + 1), (1, 9)):
        a_shape, b_shape = ((1, 3 * tile, 12), (12, m)) if arity == "nd x 2d" else \
            ((2, 3, 3 * tile, 6), (2, 3, 6, m))
        whole = with_specials(rng, a_shape, dtype, 0.05)
        b = with_specials(rng, b_shape, dtype, 0.05)
        with np.errstate(over="ignore", invalid="ignore"):
            among = k_matmul(whole, b)
            for start in (0, tile + 3, 3 * tile - n):
                alone = k_matmul(np.ascontiguousarray(whole[..., start:start + n, :]), b)
                assert same_bits(alone, among[..., start:start + n, :]), (n, m, start)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(b=st.integers(1, 2), hkv=st.integers(1, 2), rep=st.integers(1, 3),
       dh=st.sampled_from([2, 8]), width=st.sampled_from([8, 16, 64]),
       whole_cache=st.booleans(), data=st.data(),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_attention_matches_padding_before_layout(b, hkv, rep, dh, width, whole_cache, data,
                                                 dtype, seed):
    # keys shorter than the mask width, as a forward gives them (T queries
    # over T keys), and spanning it, as decode passes its whole cache (T
    # queries from some offset, zero keys past the rows written)
    rng = np.random.default_rng(seed)
    t = data.draw(st.integers(1, width), label="t")
    start = data.draw(st.integers(0, width - t), label="start") if whole_cache else 0
    n = width if whole_cache else data.draw(st.integers(t, width), label="n")
    q = rng.standard_normal((b, t, hkv * rep, dh)).astype(dtype)
    k, v = (rng.standard_normal((b, n, hkv, dh)).astype(dtype) for _ in range(2))
    if whole_cache:
        k[:, start + t:] = v[:, start + t:] = 0
    allowed = np.tri(width, width, dtype=bool)[start:start + t]
    got = tensor._attention(q, k, v, allowed, 0.35)
    want = attention_reference(q, k, v, allowed, 0.35)
    for g, w in zip(got, want):
        assert same_bits(g, w)
        assert g.flags.c_contiguous == w.flags.c_contiguous


@settings(max_examples=80, deadline=None, derandomize=True)
@given(vocab=st.integers(1, 300), ties=st.integers(1, 4), share=st.sampled_from([0.0, 0.3]),
       magnitude=st.sampled_from([1.0, 80.0, 1e30, 3.4e38]),
       dtype=st.sampled_from([np.float32, np.float64]), as_list=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_confidence_matches_np_max_and_np_sum(vocab, ties, share, magnitude, dtype, as_list,
                                              seed):
    # rows whose maximum is tied, rows with 0.0 and -0.0, and magnitudes up
    # to float32's largest; the caller's row is never written
    rng = np.random.default_rng(seed)
    row = magnitude * rng.uniform(-1.0, 1.0, vocab)
    row[rng.random(vocab) < share] = rng.choice([0.0, -0.0])
    row[rng.integers(0, vocab, ties)] = row.max()
    row = row.astype(dtype)
    before = row.copy()
    arg = row.tolist() if as_list else row
    got = confidence(arg)
    assert np.float64(got).tobytes() == np.float64(confidence_reference(arg)).tobytes()
    assert 0.0 < got <= 1.0 and same_bits(row, before)
    for bad in (np.nan, np.inf, -np.inf):
        row[rng.integers(0, vocab)] = bad
        with pytest.raises(InputError):
            confidence(row)
