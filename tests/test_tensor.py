import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import finite_difference_grads, mean_all, pad_keys, sum_all

from familykit import kernels, tensor
from familykit.errors import (DegenerateBatchError, GraphError, InputError, ShapeError)
from familykit.tensor import (Tensor, add, attention, backward, causal_mask, cross_entropy,
                              embedding, k_masked_softmax, k_matmul, k_softmax,
                              matmul, masked_softmax, mul, reshape, rmsnorm, rope,
                              rope_tables, silu)


def rand(shape, seed=0, dtype=np.float32):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    eye = Tensor(np.eye(2, dtype=np.float32))
    out = matmul(eye, eye)
    assert np.array_equal(out.data, np.eye(2, dtype=np.float32))


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0], [1.0]])
    assert np.array_equal(matmul(a, b).data, np.array([[2.0], [4.0]], np.float32))


def test_matmul_against_triple_loop():
    a, b = rand((5, 7), 1), rand((7, 3), 2)
    out = matmul(Tensor(a), Tensor(b)).data
    expected = np.zeros((5, 3), np.float64)
    for i in range(5):
        for j in range(3):
            for t in range(7):
                expected[i, j] += float(a[i, t]) * float(b[t, j])
    assert np.max(np.abs(out - expected)) < 1e-6


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(rand((2, 3))), Tensor(rand((4, 2))))


# ---------------------------------------------------------------------------
# row stability of the forward product: a row computed alone, inside a
# 5-row slice and inside the whole batch gives the same bits
# ---------------------------------------------------------------------------

# desk linear products (in, out), including the tiled softmax denominator
DESK_LINEAR = [(32, 32), (32, 16), (32, 128), (128, 32), (32, 259), (64, 1)]
# desk attention products (rows, contracted, out): scores, then context
DESK_ATTENTION = [(128, 8, 64), (128, 64, 8)]


def _slices(n):
    """Row indices to check, each with the start of a 5-row slice holding it."""
    return [(i, max(0, min(i - 2, n - 5))) for i in sorted({0, 5, n // 2, n - 1}) if i < n]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k,m", DESK_LINEAR)
def test_matmul_nd_by_2d_row_stable(dtype, k, m):
    rng = np.random.default_rng(k * 1000 + m)
    b = rng.standard_normal((k, m)).astype(dtype)
    for n in (512, 37, 13):  # the desk batch's 8 x 64 rows, and two counts off the tile
        a = rng.standard_normal((n, k)).astype(dtype)
        full = k_matmul(a, b)
        if n == 512:
            assert np.array_equal(k_matmul(a.reshape(8, 64, k), b).reshape(n, m), full)
        for i, s in _slices(n):
            assert np.array_equal(k_matmul(a[i:i + 1], b)[0], full[i]), (n, i)
            assert np.array_equal(k_matmul(a[s:s + 5], b)[i - s], full[i]), (n, i)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,k,m", DESK_ATTENTION + [(37, 8, 64), (2, 64, 8)])
def test_matmul_4d_by_4d_row_stable(dtype, n, k, m):
    rng = np.random.default_rng(n * 100 + k)
    a = rng.standard_normal((8 if n > 5 else 1, 2, n, k)).astype(dtype)
    b = rng.standard_normal(a.shape[:2] + (k, m)).astype(dtype)
    full = k_matmul(a, b)
    for bi in (0, a.shape[0] - 1):
        for i, s in _slices(n):
            alone = k_matmul(a[bi:bi + 1, :, i:i + 1], b[bi:bi + 1])
            assert np.array_equal(alone[0, :, 0], full[bi, :, i]), (bi, i)
            if n >= 5:
                five = k_matmul(a[bi:bi + 1, :, s:s + 5], b[bi:bi + 1])
                assert np.array_equal(five[0, :, i - s], full[bi, :, i]), (bi, i)


def test_matmul_rejects_other_arities():
    with pytest.raises(ShapeError):
        k_matmul(rand(3), rand((3, 2)))
    with pytest.raises(ShapeError):
        k_matmul(rand((2, 3, 4)), rand((2, 4, 5)))


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def softmax(x) -> np.ndarray:
    return k_softmax(np.asarray(x, np.float32), axis=-1)


def test_softmax_symmetry():
    out = softmax([0.0, 0.0, 0.0])
    assert np.allclose(out, np.full(3, 1 / 3), atol=1e-7)


def test_softmax_no_overflow():
    out = softmax([1000.0, 0.0])
    assert abs(out[0] - 1.0) < 1e-12 and abs(out[1]) < 1e-12


def test_softmax_formula_oracle():
    x = np.array([1.0, 2.0, 3.0])
    expected = np.exp(x) / np.exp(x).sum()
    assert np.allclose(softmax(x), expected, atol=1e-6)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-30, 30))
@example([34.26621773848947, 34.145205292526356], 30.0)  # moves a probability by 1.9e-6
def test_softmax_rows_sum_to_one_and_shift_invariant(vals, shift):
    x = np.array(vals, np.float32)
    p = softmax(x)
    assert abs(float(p.sum()) - 1.0) < 1e-6
    shifted = x + np.float32(shift)
    p2 = softmax(shifted)
    # rounding x + shift moves each logit by at most half a float32 spacing at
    # max |x + shift|, which to first order moves p_i by at most
    # p_i (1 - p_i) spacing <= spacing / 4; each softmax then adds about
    # len(x) + 2 roundings of one eps (the exps, the additions of the sum and
    # the division)
    eps = np.finfo(np.float32).eps
    bound = np.spacing(np.max(np.abs(shifted))) / 4 + 2 * (len(x) + 2) * eps
    assert np.max(np.abs(p - p2)) <= bound


# ---------------------------------------------------------------------------
# rmsnorm
# ---------------------------------------------------------------------------

def test_rmsnorm_ones():
    d = 8
    out = rmsnorm(Tensor(np.ones(d)), Tensor(np.ones(d)), eps=1e-12).data
    assert np.allclose(out, np.ones(d), atol=1e-6)


def test_rmsnorm_zero_gamma():
    out = rmsnorm(Tensor(rand(8)), Tensor(np.zeros(8)), eps=1e-5).data
    assert np.array_equal(out, np.zeros(8, np.float32))


def test_rmsnorm_scalar_loop_oracle():
    x, g, eps = rand((3, 6), 4), rand(6, 5), 1e-5
    out = rmsnorm(Tensor(x), Tensor(g), eps).data
    for i in range(3):
        ms = sum(float(v) ** 2 for v in x[i]) / 6
        inv = 1.0 / (ms + eps) ** 0.5
        for j in range(6):
            assert abs(out[i, j] - float(x[i, j]) * inv * float(g[j])) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rmsnorm_matches_mean_formula_bitwise(dtype):
    # the mean square is a sum divided by the width; np.mean is the reference
    for seed, shape in enumerate([(1, 32), (7, 32), (2, 3, 259), (4, 1)]):
        for scale in (1e-3, 1.0, 1e3):
            x, g = rand(shape, seed, dtype) * dtype(scale), rand(shape[-1], seed + 10, dtype)
            ms = np.mean(np.square(x), axis=-1, keepdims=True)
            inv = (1.0 / np.sqrt(ms + np.asarray(1e-5, dtype))).astype(dtype)
            out = rmsnorm(Tensor(x, dtype=dtype), Tensor(g, dtype=dtype), 1e-5).data
            assert out.dtype == dtype and np.array_equal(out, x * inv * g)


def test_rmsnorm_requires_positive_eps():
    with pytest.raises(InputError):
        rmsnorm(Tensor(rand(4)), Tensor(np.ones(4)), eps=0.0)


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_confident_logits():
    targets = np.array([[2]])
    logits = np.full((1, 1, 4), -50.0, np.float32)
    logits[0, 0, 2] = 50.0
    loss = cross_entropy(Tensor(logits), targets)
    assert float(loss.data) < 1e-6


def test_cross_entropy_uniform_is_log_vocab():
    loss = cross_entropy(Tensor(np.zeros((2, 3, 4), np.float32)),
                         np.zeros((2, 3), np.int64))
    assert abs(float(loss.data) - np.log(4)) < 1e-7


def test_cross_entropy_logsumexp_oracle():
    logits = rand((2, 4, 7), 9)
    targets = np.random.default_rng(10).integers(0, 7, (2, 4))
    targets[0, 1] = -1  # ignored
    loss = float(cross_entropy(Tensor(logits), targets).data)
    acc, n = 0.0, 0
    for b in range(2):
        for t in range(4):
            if targets[b, t] == -1:
                continue
            row = logits[b, t].astype(np.float64)
            lse = np.log(np.exp(row - row.max()).sum()) + row.max()
            acc += lse - row[targets[b, t]]
            n += 1
    assert abs(loss - acc / n) < 1e-9


def test_cross_entropy_empty_batch():
    with pytest.raises(DegenerateBatchError):
        cross_entropy(Tensor(rand((1, 2, 4))), np.full((1, 2), -1))


def test_cross_entropy_bad_target():
    with pytest.raises(InputError):
        cross_entropy(Tensor(rand((1, 1, 4))), np.array([[9]]))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    w = Tensor(rand((3, 4)), requires_grad=True)
    backward(sum_all(w))
    assert np.array_equal(w.grad, np.ones((3, 4), np.float32))


def test_backward_quadratic_closed_form():
    w = Tensor(rand((3, 3), 2), requires_grad=True)
    x = Tensor(rand((3, 1), 3))
    y = matmul(w, x)
    backward(sum_all(mul(y, y)))
    expected = 2.0 * (w.data @ x.data) @ x.data.T
    assert np.max(np.abs(w.grad - expected)) < 1e-5


def test_add_and_mul_reject_operands_of_different_shapes():
    a = Tensor(rand((2, 3)), requires_grad=True)
    for b in (rand(3), rand((1, 3)), rand((2, 2, 3))):
        for op in (add, mul):
            with pytest.raises(ShapeError):
                op(a, Tensor(b))
        with pytest.raises(ShapeError):
            a + b


def test_backward_rejects_nonscalar():
    w = Tensor(rand((2, 2)), requires_grad=True)
    with pytest.raises(GraphError):
        backward(matmul(w, w))


def test_backward_rejects_detached_loss():
    with pytest.raises(GraphError):
        backward(sum_all(Tensor(rand((2, 2)))))


# ---------------------------------------------------------------------------
# per-op gradients vs central finite differences (fp64 twins, h=1e-3)
# ---------------------------------------------------------------------------

def fd_check(build_loss, params, rtol=1e-3, atol=1e-7):
    loss = build_loss()
    backward(loss)
    ad = {id(p): p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
          for p in params}
    for p in params:
        p.grad = None
    fd = finite_difference_grads(build_loss, params, h=1e-3)
    for p in params:
        a, b = ad[id(p)], fd[id(p)]
        assert np.all(np.abs(a - b) <= atol + rtol * np.maximum(np.abs(a), np.abs(b))), \
            f"grad mismatch: max abs diff {np.max(np.abs(a - b))}"


@pytest.mark.parametrize("a_shape,b_shape,dtype", [
    ((3, 4), (4, 2), np.float64),
    ((2, 3, 4), (4, 5), np.float64),               # apply_linear
    ((2, 2, 3, 4), (2, 2, 4, 3), np.float64),      # attention scores and context
    ((8, 16, 32), (32, 24), np.float32),
], ids=["2d-2d", "3d-2d", "4d-4d", "3d-2d-float32"])
def test_grad_matmul_and_add(a_shape, b_shape, dtype):
    a = Tensor(rand(a_shape, 1, dtype), requires_grad=True, dtype=dtype)
    b = Tensor(rand(b_shape, 2, dtype), requires_grad=True, dtype=dtype)
    build_loss = lambda: sum_all(mul(matmul(a, b), matmul(a, b)))
    if dtype == np.float64:
        fd_check(build_loss, [a, b])
        return
    # float32 gradients stay float32 and match a float64 einsum reference
    backward(build_loss())
    a64, b64 = a.data.astype(np.float64), b.data.astype(np.float64)
    g = 2.0 * np.einsum("btk,kn->btn", a64, b64)
    for got, ref in [(a.grad, np.einsum("btn,kn->btk", g, b64)),
                     (b.grad, np.einsum("btk,btn->kn", a64, g))]:
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())


def test_grad_rmsnorm():
    x = Tensor(rand((2, 5), 3, np.float64), requires_grad=True, dtype=np.float64)
    g = Tensor(rand(5, 4, np.float64), requires_grad=True, dtype=np.float64)
    fd_check(lambda: sum_all(mul(rmsnorm(x, g, 1e-5), Tensor(rand((2, 5), 5, np.float64), dtype=np.float64))), [x, g])


def test_grad_softmax_and_silu():
    x = Tensor(rand((3, 6), 6, np.float64), requires_grad=True, dtype=np.float64)
    w = Tensor(rand((3, 6), 7, np.float64), dtype=np.float64)
    everywhere = np.ones(x.shape, bool)
    fd_check(lambda: sum_all(mul(masked_softmax(x, everywhere), w)), [x])
    fd_check(lambda: sum_all(mul(silu(x), w)), [x])


def test_grad_masked_softmax():
    x = Tensor(rand((1, 1, 4, 4), 8, np.float64), requires_grad=True, dtype=np.float64)
    allowed = np.tril(np.ones((4, 4), bool))
    w = Tensor(rand((1, 1, 4, 4), 9, np.float64), dtype=np.float64)
    fd_check(lambda: sum_all(mul(masked_softmax(x, allowed[None, None]), w)), [x])


@pytest.mark.parametrize("which", ["q", "k", "v"])
@pytest.mark.parametrize("rep", [1, 2])
def test_grad_attention(rep, which):
    # 3 query positions attend over the first 3 (the op pads them) or all 5
    # of 5 key positions, token-major
    b, hkv, t, dh = 2, 2, 3, 4
    for n_given, n_keys in ((3, 5), (5, 5)):
        q = Tensor(rand((b, t, rep * hkv, dh), 40, np.float64), dtype=np.float64)
        k = Tensor(rand((b, n_given, hkv, dh), 41, np.float64), dtype=np.float64)
        v = Tensor(rand((b, n_given, hkv, dh), 42, np.float64), dtype=np.float64)
        w = Tensor(rand(q.shape, 43, np.float64), dtype=np.float64)
        x = {"q": q, "k": k, "v": v}[which]
        x.requires_grad = True
        fd_check(lambda: sum_all(mul(attention(q, k, v, causal_mask(t, n_keys), 0.5), w)), [x])


def _desk_attention_inputs(dtype, t=64, b=8, n_given=64, seed=44):
    """Desk-shaped token-major q (b, t, 4, 8), `n_given` of ctx_len = 64
    keys and values (b, n_given, 2, 8), and the causal mask."""
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal(shape).astype(dtype)
               for shape in ((b, t, 4, 8), (b, n_given, 2, 8), (b, n_given, 2, 8)))
    return q, k, v, causal_mask(t, 64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_row_stable(dtype):
    # one query position alone, inside a 5-position slice and inside the
    # whole call gives the same bits: what cached decoding relies on
    t = 40
    q, k, v, allowed = _desk_attention_inputs(dtype, t=t, b=2)
    full = kernels.attention(q, k, v, allowed, 0.35)
    for i, s in _slices(t):
        for lo, n in ((i, 1), (s, 5)):
            part = kernels.attention(q[:, lo:lo + n], k, v, allowed[lo:lo + n], 0.35)
            assert np.array_equal(part[:, i - lo], full[:, i]), (i, n)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_pads_keys_it_is_not_given(dtype):
    # the first 21 keys and values attend as all 64 with zeros after them
    q, k, v, allowed = _desk_attention_inputs(dtype, t=21, b=2)
    zeroed = [np.concatenate([x[:, :21], np.zeros_like(x[:, 21:])], axis=1) for x in (k, v)]
    assert np.array_equal(kernels.attention(q, k[:, :21], v[:, :21], allowed, 0.35),
                          kernels.attention(q, *zeroed, allowed, 0.35))
    with pytest.raises(ShapeError):  # more keys than the mask has columns
        kernels.attention(q, k, v, allowed[:, :63], 0.35)


def test_attention_op_value_is_the_kernel():
    q, k, v, allowed = _desk_attention_inputs(np.float32, t=21, n_given=21)
    saved = [x.copy() for x in (q, k, v)]
    ts = [Tensor(x, requires_grad=True) for x in (q, k, v)]
    out = attention(*ts, allowed, 0.35)
    assert out.shape == q.shape
    assert np.array_equal(out.data, kernels.attention(q, k, v, allowed, 0.35))
    for x, before in zip((q, k, v), saved):  # the in-place score buffer is the op's own
        assert np.array_equal(x, before)


def transpose(a: Tensor, axes) -> Tensor:
    """Autodiff transpose (contiguous, both ways), for reference graphs."""
    inv = tuple(np.argsort(axes))
    return tensor._make(np.ascontiguousarray(a.data.transpose(axes)), (a,), lambda g:
                        tensor._accumulate(a, np.ascontiguousarray(g.transpose(inv))))


def pad_rows(a: Tensor, length: int) -> Tensor:
    """Autodiff zero rows appended along axis -2 up to `length`."""
    t = a.data.shape[-2]
    return tensor._make(pad_keys(a.data, length), (a,),
                        lambda g: tensor._accumulate(a, g[..., :t, :]))


@pytest.mark.parametrize("t", [64, 21])
def test_attention_matches_composed_ops_bitwise(t):
    # the one node gives the values and gradients of the graph it replaces
    # (head-major transposes, key padding, matmul, scale, masked_softmax,
    # matmul, transpose back) bit for bit; t keys are given, padded to 64
    q, k, v, allowed = _desk_attention_inputs(np.float32, t=t, n_given=t)
    g = rand(q.shape, 45)
    b, _, hq, dh = q.shape
    results = []
    for one_node in (True, False):
        ts = [Tensor(x, requires_grad=True) for x in (q, k, v)]
        if one_node:
            out = attention(*ts, allowed, 0.35)
        else:
            qh = reshape(transpose(ts[0], (0, 2, 1, 3)), (b, 2, 2 * t, dh))
            kh, vh = (pad_rows(transpose(x, (0, 2, 1, 3)), 64) for x in ts[1:])
            scores = matmul(qh, transpose(kh, (0, 1, 3, 2))) * 0.35
            ctx = matmul(masked_softmax(scores, np.concatenate([allowed] * 2)), vh)
            out = transpose(reshape(ctx, (b, hq, t, dh)), (0, 2, 1, 3))
        backward(sum_all(mul(out, Tensor(g))))
        results.append([out.data] + [x.grad for x in ts])
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def test_grad_rope():
    # token-major (B, T, H, Dh) with tables broadcast over the heads
    x = Tensor(rand((1, 3, 2, 4), 10, np.float64), requires_grad=True, dtype=np.float64)
    cos, sin = rope_tables(np.arange(3), 4, 10000.0, dtype=np.float64)
    w = Tensor(rand((1, 3, 2, 4), 11, np.float64), dtype=np.float64)
    fd_check(lambda: sum_all(mul(rope(x, cos[:, None], sin[:, None]), w)), [x])


def test_grad_embedding_and_cross_entropy():
    table = Tensor(rand((7, 4), 12, np.float64), requires_grad=True, dtype=np.float64)
    proj = Tensor(rand((4, 5), 13, np.float64), requires_grad=True, dtype=np.float64)
    ids = np.array([[0, 3, 6, 3]])
    targets = np.array([[3, 4, 0, -1]])
    fd_check(lambda: cross_entropy(matmul(embedding(table, ids), proj), targets),
             [table, proj])


def test_grad_reshape():
    x = Tensor(rand((2, 3, 4), 14, np.float64), requires_grad=True, dtype=np.float64)
    w = Tensor(rand((4, 6), 15, np.float64), dtype=np.float64)
    fd_check(lambda: mean_all(mul(reshape(x, (4, 6)), w)), [x])


# ---------------------------------------------------------------------------
# masked softmax semantics and determinism
# ---------------------------------------------------------------------------

def test_masked_softmax_exact_zero_outside_mask():
    scores = rand((1, 1, 3, 3), 20)
    allowed = np.tril(np.ones((3, 3), bool))
    p = k_masked_softmax(scores, np.broadcast_to(allowed[None, None], scores.shape))
    assert np.all(p[0, 0][~allowed] == 0.0)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-6)


def test_masked_softmax_ignores_masked_scores_and_row_count():
    # the property cached decoding relies on: at the ctx_len key axis every
    # attention call uses, a row's probabilities are the same bits whatever
    # its scores at masked keys (future keys in a forward, zero-filled cache
    # in decode) and however many query rows share the call; the kernel
    # overwrites its input, so each call gets a copy
    rng = np.random.default_rng(21)
    ctx, rows = 64, 40
    allowed = causal_mask(rows, ctx)[None, None]
    for dtype in (np.float32, np.float64):
        scores = rng.standard_normal((1, 2, rows, ctx)).astype(dtype)
        full = k_masked_softmax(scores.copy(), allowed)
        for junk in (np.zeros_like(scores), 50 * rng.standard_normal(scores.shape).astype(dtype)):
            masked = np.where(allowed, scores, junk)
            assert np.array_equal(k_masked_softmax(masked.copy(), allowed), full)
            for i in (0, 1, 7, 8, 20, rows - 1):
                alone = k_masked_softmax(masked[:, :, i:i + 1].copy(), allowed[:, :, i:i + 1])
                assert np.array_equal(alone, full[:, :, i:i + 1]), (dtype, i)
                s = max(0, min(i - 2, rows - 5))
                five = k_masked_softmax(masked[:, :, s:s + 5].copy(), allowed[:, :, s:s + 5])
                assert np.array_equal(five[:, :, i - s], full[:, :, i]), (dtype, i)


def test_op_determinism():
    a, b = rand((6, 6), 30), rand((6, 6), 31)
    r1 = matmul(Tensor(a), Tensor(b)).data
    r2 = matmul(Tensor(a), Tensor(b)).data
    assert np.array_equal(r1, r2)
    s1 = softmax(a)
    s2 = softmax(a)
    assert np.array_equal(s1, s2)
