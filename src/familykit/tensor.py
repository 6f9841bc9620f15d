"""Dense tensors with reverse-mode automatic differentiation, for training.

Values are numpy arrays (float32 by default, float64 supported for test
twins); every operation is a pure function that records its parents and a
backward closure on the output. The numeric kernels live in module-level
`k_*` functions, and each autodiff op computes its value by its kernel, so
a value computed through the graph is bit-identical to one computed
directly. Only training runs on these ops. Evaluation, calibration, the
identity check, analysis and decoding run the same kernels without a graph
through `familykit.kernels`, whose names match the ops here, so the model
writes its math once over either module (see `model.forward_exits`).

Every forward matrix product goes through `k_matmul`, which zero-pads the
rows to a multiple of `ROW_TILE` and runs BLAS (`np.matmul`, or `np.dot` on
one 2-d tile) on tiles of `ROW_TILE` rows, so every BLAS call of a product
has one shape however many rows the caller has. The kernel that computes a
product depends on the call shape (numpy sends one row to gemv, and a BLAS
build may switch kernels by size), but at one shape it computes a row the
same way wherever it sits. With attention's key axis fixed at `ctx_len` as
well (see `model.block_forward`), a row's result never depends on how many
rows are computed with it. That row-stability is what makes incremental
decoding bit-equal to full-prefix forward passes. Gradients are never
compared against a cached forward, so `matmul`'s backward calls `np.matmul`
on the operands as they are.

Attention is one op, `attention` over `k_attention`, on token-major q, k
and v; only it knows the head-major layout. Its scores are one buffer,
scaled, masked, exponentiated and normalized in place: fresh full-size
temporaries, not the arithmetic, were most of its cost. A kernel that
overwrites an argument says so, and its callers pass a buffer they own.
Its backward keeps the operand layouts of separate `matmul`, `scale` and
`masked_softmax` nodes, so values and gradients are theirs bit for bit.

A train step frees its whole graph at once. By default glibc then returns
the heap top to the kernel (its trim threshold follows the largest freed
mmap chunk, about 2 MB at the desk shapes) and maps chunks above its mmap
threshold afresh, so every step faulted the same ~10 MB of pages in again.
Importing this module sets both thresholds high once, through `mallopt`,
so freed arrays stay mapped for the next step; `HEAP_NOT_KEPT` says why
not where that did not apply. Only where arrays live changes, never a
value.

OpenBLAS runs one thread per CPU by default, and LAPACK's blocked
Cholesky and the inverse of its factor gave other last bits on two threads
than on one, so a compression plan followed the host's CPU count. Importing
this module also sets numpy's bundled OpenBLAS to one thread, through the
library's own setter, whatever `OPENBLAS_NUM_THREADS` says; `BLAS_NOT_PINNED`
says why not where numpy has no such library or setter.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateBatchError, GraphError, InputError, ShapeError

Array = np.ndarray

MMAP_THRESHOLD = 32 << 20  # glibc's largest on 64-bit: smaller chunks come from the heap
TRIM_THRESHOLD = 128 << 20  # free heap kept mapped before glibc trims its top


def _keep_freed_heap() -> str | None:
    """Raise glibc's mmap and trim thresholds; None if both applied, else why not."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError) as exc:
        return f"the C library has no mallopt ({exc})"
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # parameter numbers from glibc's malloc.h; mallopt returns 1 on success
    for name, param, value in (("M_MMAP_THRESHOLD", -3, MMAP_THRESHOLD),
                               ("M_TRIM_THRESHOLD", -1, TRIM_THRESHOLD)):
        if mallopt(param, value) != 1:
            return f"mallopt refused {name} = {value}"
    return None


# None: freed arrays stay mapped between train steps; otherwise the reason they do not
HEAP_NOT_KEPT: str | None = _keep_freed_heap()


def _one_blas_thread() -> str | None:
    """Run numpy's bundled OpenBLAS on one thread; None if that applied, else why not."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_-*.so"))
    if not found:
        return f"numpy bundles no scipy-openblas library in {libs}"
    try:  # numpy has loaded this library already: this is the same copy
        set_threads = ctypes.CDLL(str(found[0])).scipy_openblas_set_num_threads64_
    except (OSError, AttributeError) as exc:
        return f"the bundled OpenBLAS has no thread-count setter ({exc})"
    set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
    set_threads(1)
    return None


# None: numpy's BLAS runs one thread, so no value depends on the CPU count; otherwise why not
BLAS_NOT_PINNED: str | None = _one_blas_thread()


# ---------------------------------------------------------------------------
# numeric kernels (no autodiff; `familykit.kernels` exports them for graph-free forwards)
# ---------------------------------------------------------------------------

ROW_TILE = 8  # rows per BLAS call in every forward product


def k_matmul(a: Array, b: Array) -> Array:
    """Row-stable matrix product for nd x 2d and 4d x 4d operands: one
    fixed-shape BLAS call per `ROW_TILE` rows of `a` (its leading axes
    folded, or per (B, H) matrix of a 4-d operand).

    A row count that is a multiple of `ROW_TILE` is used as it is, copied
    only if it is strided. Any other is copied once into a fresh zero
    buffer of whole tiles, and the product's padding rows are sliced off
    after (a strided view for a 4-d operand). Only a call of more than one
    tile gets a tile axis (and `b` an axis to broadcast against it). One
    tile, as a decode step of one position has, is multiplied as the 2-d or
    4-d array it is: the same single BLAS call at the same shape, without
    numpy's set-up of a loop over tiles. A 2-d tile goes through `np.dot`,
    which hands two contiguous matrices to the same BLAS routine as
    `np.matmul` (gemm, or gemv for one column) without a ufunc's per-call
    set-up. Every operand reaches BLAS contiguous, because numpy may
    compute a strided one by another loop (numpy 2.4 does for a one-column
    product), which rounds a row differently from the same row in a BLAS
    call."""
    if a.ndim >= 2 and b.ndim == 2:
        rows, lead = a.reshape(-1, a.shape[-1]), ()
    elif a.ndim == 4 and b.ndim == 4:
        rows, lead = a, a.shape[:2]
    else:
        raise ShapeError(f"unsupported matmul arity: {a.shape} @ {b.shape}")
    n, width = rows.shape[-2:]
    pad = -n % ROW_TILE
    if pad:
        tiled = np.zeros(lead + (n + pad, width), rows.dtype)
        if lead:
            tiled[:, :, :n] = rows
        else:
            tiled[:n] = rows
    else:
        tiled = np.ascontiguousarray(rows)
    b = np.ascontiguousarray(b)
    if n <= ROW_TILE:
        out = np.matmul(tiled, b) if lead else np.dot(tiled, b)
    else:  # one call per tile: each (B, H) matrix of b against each of its tiles
        out = np.matmul(tiled.reshape(lead + (-1, ROW_TILE, width)), b[:, :, None] if lead else b)
        out = out.reshape(lead + (n + pad, -1)) if pad else out
    if pad:
        out = out[:, :, :n] if lead else out[:n]
    return out.reshape(a.shape[:-1] + (b.shape[-1],))


def _rmsnorm(x: Array, gamma: Array, eps: float) -> tuple[Array, Array]:
    """`k_rmsnorm` and the inverse RMS that its gradient reuses."""
    # the row sum over the width gives np.mean's bits (its float64 quotient
    # rounds to the same float32) without the Python-level wrappers of
    # np.mean and np.sum, which outweigh one-row calls; every step stays in
    # x's dtype, so the inverse needs no cast
    mean_sq = np.add.reduce(np.square(x), axis=-1, keepdims=True) / x.shape[-1]
    inv = 1.0 / np.sqrt(mean_sq + np.asarray(eps, x.dtype))
    out = x * inv
    out *= gamma  # (x * inv) * gamma, as the expression rounds it
    return out, inv


def k_rmsnorm(x: Array, gamma: Array, eps: float) -> Array:
    return _rmsnorm(x, gamma, eps)[0]


def k_softmax(x: Array, axis: int) -> Array:
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


WIDE_CALL_ROWS = 256  # rows from which `_row_max` avoids numpy's per-row reduce


def _row_max(x: Array) -> Array:
    """np.max(x, axis=-1, keepdims=True), exactly. A maximum is one of its
    operands, so any order of comparisons gives the same value, NaN included
    (only the sign of a zero maximum may differ, which no caller sees:
    z - 0.0 == z - -0.0 for every z but a zero, and exp(0.0) == exp(-0.0)).
    numpy's reduce along a narrow last axis pays about 140 ns per row, so a
    call of `WIDE_CALL_ROWS` or more rows takes the elementwise maximum of 8
    column-strided slices, then one reduce over their (8, rows) transpose;
    fewer rows, as in decoding, cost less through the one reduce."""
    rows = x.reshape(-1, x.shape[-1])
    if len(rows) < WIDE_CALL_ROWS or rows.shape[1] % 8:
        return np.maximum.reduce(x, axis=-1, keepdims=True)
    m = np.maximum(rows[:, 0::8], rows[:, 1::8])
    for j in range(2, 8):
        np.maximum(m, rows[:, j::8], out=m)
    return np.maximum.reduce(np.ascontiguousarray(m.T), axis=0).reshape(x.shape[:-1] + (1,))


def k_masked_softmax(scores: Array, allowed: Array) -> Array:
    """Softmax over the last axis restricted to `allowed` (bool, broadcast
    against `scores`), computed in place: `scores` is overwritten with the
    probabilities and returned, so callers pass a C-contiguous buffer they
    own.

    Disallowed entries become -inf, so their probability is exp(-inf) =
    exactly 0.0: causality holds bit-exactly, and nothing of a row depends
    on its scores at disallowed entries. The denominator is the tiled
    product `e @ ones`, so at a fixed key length (attention always uses
    `ctx_len`) a row's probabilities are the same bits however many rows
    share the call -- the property that makes cached decoding match
    full-prefix forwards.
    """
    np.copyto(scores, -np.inf, where=~allowed)
    scores -= _row_max(scores)
    np.exp(scores, out=scores)
    ones = np.empty((scores.shape[-1], 1), scores.dtype)
    ones.fill(1)  # np.ones, without its Python-level wrapper around these two calls
    scores /= k_matmul(scores, ones)
    return scores


def _head_major(x: Array, hkv: int) -> Array:
    """(B, T, Hkv * rep, Dh) -> (B, Hkv, rep * T, Dh), C-contiguous."""
    b, t, hq, dh = x.shape
    return np.ascontiguousarray(
        x.reshape(b, t, hkv, hq // hkv, dh).transpose(0, 2, 3, 1, 4)).reshape(b, hkv, -1, dh)


def _token_major(x: Array, t: int) -> Array:
    """(B, Hkv, rep * T, Dh) -> (B, T, Hkv * rep, Dh), C-contiguous."""
    b, hkv, rows, dh = x.shape
    return np.ascontiguousarray(
        x.reshape(b, hkv, rows // t, t, dh).transpose(0, 3, 1, 2, 4)).reshape(b, t, -1, dh)


def _attention(q: Array, k: Array, v: Array, allowed: Array,
               scale: float) -> tuple[Array, ...]:
    """`k_attention`, and the head-major probabilities, queries, transposed
    keys and values that its gradient reuses.

    Keys and values are laid out (B, Hkv, Dh, L) and (B, Hkv, L, Dh). When
    they span the mask's L columns they are transposed, copied only if that
    layout is not already theirs (decode's cache is kept in it, see
    `inference.GenState`); shorter ones are copied into a fresh zero buffer
    of L columns."""
    b, t, hq, _ = q.shape
    hkv, n, n_keys = k.shape[2], k.shape[1], allowed.shape[1]
    if n > n_keys:
        raise ShapeError(f"{n} keys do not fit the mask's {n_keys} columns")
    qh = _head_major(q, hkv)
    if n == n_keys:
        kt = np.ascontiguousarray(k.transpose(0, 2, 3, 1))
        vh = np.ascontiguousarray(v.transpose(0, 2, 1, 3))
    else:
        kt = np.zeros((b, hkv, k.shape[3], n_keys), k.dtype)
        kt[:, :, :, :n] = k.transpose(0, 2, 3, 1)
        vh = np.zeros((b, hkv, n_keys, v.shape[3]), v.dtype)
        vh[:, :, :n] = v.transpose(0, 2, 1, 3)
    s = k_matmul(qh, kt)
    # scaled in place, or into a fresh buffer where k_matmul returned a
    # strided view of its padded tiles: the softmax then runs on contiguous
    # rows, as in a full forward, whatever loop numpy picks for strided exp
    s = np.multiply(s, np.asarray(scale, s.dtype), out=s if s.flags.c_contiguous else None)
    p = k_masked_softmax(s.reshape(b, hkv, hq // hkv, t, n_keys), allowed).reshape(s.shape)
    return _token_major(k_matmul(p, vh), t), p, qh, kt, vh


def k_attention(q: Array, k: Array, v: Array, allowed: Array, scale: float) -> Array:
    """softmax(scale * q k^T, masked to `allowed`) v, token-major: q and the
    context are (B, T, Hq, Dh), k and v (B, L', Hkv, Dh) for the first L' of
    the L columns of the (T, L) mask. Inside, the rep = Hq / Hkv query heads
    of a KV head are stacked into rep * T rows, keys and values zero-padded
    to L, and the scores viewed (B, Hkv, rep, T, L) so that the mask
    broadcasts: nothing is repeated per query head."""
    return _attention(q, k, v, allowed, scale)[0]


def _silu(x: Array) -> tuple[Array, Array]:
    """`k_silu` and the sigmoid 1 / (1 + exp(-x)) that its gradient reuses,
    computed in one buffer."""
    sig = np.negative(x)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    return x * sig, sig


def k_silu(x: Array) -> Array:
    return _silu(x)[0]


def k_rope(x: Array, cos: Array, sin: Array) -> Array:
    """Rotate head channel i with channel i + Dh/2: x * C + swap_halves(x) * S
    for the full-width tables C = [cos, cos] and S = [-sin, sin] of
    `rope_tables` in x's dtype, broadcast against x's (..., Dh), e.g.
    (T, 1, Dh) for (B, T, H, Dh). That is the two-half rotation
    [x1 cos - x2 sin, x1 sin + x2 cos] bit for bit: x2 * -s == -(x2 * s)
    and a + -b == a - b exactly, and addition commutes. The halves swap in
    one copy, each half viewed as one element of a void dtype."""
    d = x.shape[-1]
    half = np.dtype(f"V{d // 2 * x.itemsize}")  # the string form builds in half the time
    pairs = np.ascontiguousarray(x).reshape(-1, d).view(half)
    swapped = np.empty(x.shape, x.dtype)
    swapped.reshape(-1, d).view(half)[:, ::-1] = pairs
    swapped *= sin
    out = x * cos
    out += swapped
    return out


def rope_tables(positions: Array, head_dim: int, base: float, dtype=np.float32):
    """Full-width tables (C, S) = ([cos, cos], [-sin, sin]) of `k_rope` for
    absolute `positions`, each shaped (len, head_dim)."""
    half = head_dim // 2
    inv_freq = base ** (-np.arange(half, dtype=np.float64) / half)
    ang = np.asarray(positions, np.float64)[:, None] * inv_freq[None, :]
    cos, sin = np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)
    return np.concatenate([cos, cos], axis=-1), np.concatenate([-sin, sin], axis=-1)


def k_embedding(table: Array, ids: Array) -> Array:
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise InputError(f"token id out of range [0, {table.shape[0]})")
    return table[ids]


IGNORE_INDEX = -1  # the target of a position that is not scored


def k_nll(logits: Array, targets: Array) -> Array:
    """Negative log-softmax of the target class at each position whose
    target is not `IGNORE_INDEX`, in position order: a 1-d float64 array,
    empty if every position is ignored.

    Each position's value is computed from its own row alone, in float64,
    so it does not depend on the rows computed with it.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"targets {targets.shape} do not match logits {logits.shape[:-1]}")
    vocab = logits.shape[-1]
    kflat = (targets != IGNORE_INDEX).reshape(-1)
    kept = targets.reshape(-1)[kflat]
    if kept.size and (kept.min() < 0 or kept.max() >= vocab):
        raise InputError("target id outside [0, vocab)")
    flat = logits.reshape(-1, vocab)
    # target logits and row maxima are read before widening, which is exact;
    # then one float64 copy is shifted and exponentiated in place
    picked = flat[np.arange(flat.shape[0]), np.where(kflat, targets.reshape(-1), 0)]
    m = np.max(flat, axis=-1).astype(np.float64)
    shifted = flat.astype(np.float64)
    shifted -= m[:, None]
    np.exp(shifted, out=shifted)
    nll = m + np.log(np.sum(shifted, axis=-1)) - picked
    return nll[kflat]


def mean_nll(nll: Array) -> np.float64:
    """Mean of the per-position values of `k_nll`, as float64 so that
    downstream loss aggregation is stable."""
    if not nll.size:
        raise DegenerateBatchError("cross_entropy over zero effective positions")
    return np.float64(nll.sum() / nll.size)


# ---------------------------------------------------------------------------
# autodiff
# ---------------------------------------------------------------------------

class Tensor:
    """An immutable-by-convention array plus its place in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        self.data: Array = np.asarray(data, dtype=dtype)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable[[Array], None] | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    # `+` and `*` as on arrays, so the block math runs on Tensors and arrays alike
    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__


def _as_tensor(x, dtype) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


def _accumulate(t: Tensor, g: Array) -> None:
    """Add `g` to `t.grad`; a first gradient that is a view is copied, C-contiguous."""
    if g.dtype != t.data.dtype:
        g = g.astype(t.data.dtype)
    if t.grad is None:
        t.grad = g.copy() if g.base is not None else g
    else:
        t.grad = t.grad + g


def _make(data: Array, parents: Sequence[Tensor], bwd) -> Tensor:
    data = np.asarray(data)
    out = Tensor(data, dtype=data.dtype)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._bwd = bwd
    return out


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; accumulates into `.grad`."""
    if loss.data.shape != ():
        raise GraphError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise GraphError("loss is detached from every trainable parameter")
    order: list[Tensor] = []  # every node after all of its parents
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(order):
        if node._bwd is not None:
            node._bwd(node.grad)
            node.grad = None  # free intermediate grads; leaves keep theirs


# ---------------------------------------------------------------------------
# differentiable operations
# ---------------------------------------------------------------------------

def param(p: Tensor) -> Tensor:
    """A parameter as an operand of these ops: the Tensor itself."""
    return p


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner extents differ: {a.data.shape} @ {b.data.shape}")
    out_data = k_matmul(a.data, b.data)

    def bwd(g: Array) -> None:
        a2, g2 = a.data, g
        if b.data.ndim == 2:  # fold leading axes into rows: one BLAS call, not one per batch
            a2, g2 = a2.reshape(-1, a2.shape[-1]), g.reshape(-1, g.shape[-1])
        if a.requires_grad:
            ga = (g2 @ np.swapaxes(b.data, -1, -2)).reshape(g.shape[:-1] + (b.data.shape[-2],))
            _accumulate(a, ga)
        if b.requires_grad:
            _accumulate(b, np.swapaxes(a2, -1, -2) @ g2)

    return _make(out_data, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add does not broadcast: {a.data.shape} + {b.data.shape}")

    def bwd(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _make(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul does not broadcast: {a.data.shape} * {b.data.shape}")

    def bwd(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _make(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    def bwd(g: Array) -> None:
        _accumulate(a, g * np.asarray(s, a.data.dtype))

    return _make(a.data * np.asarray(s, a.data.dtype), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def bwd(g: Array) -> None:
        _accumulate(a, g.reshape(a.data.shape))

    return _make(out_data, (a,), bwd)


def silu(a: Tensor) -> Tensor:
    out_data, sig = _silu(a.data)

    def bwd(g: Array) -> None:
        _accumulate(a, g * (sig * (1.0 + a.data * (1.0 - sig))))

    return _make(out_data, (a,), bwd)


def rmsnorm(x: Tensor, gamma: Tensor, eps: float) -> Tensor:
    """y = x / sqrt(mean(x^2) + eps) * gamma over the last axis."""
    if eps <= 0:
        raise InputError("rmsnorm eps must be > 0")
    out_data, inv = _rmsnorm(x.data, gamma.data, eps)

    def bwd(g: Array) -> None:
        d = x.data.shape[-1]
        gg = g * gamma.data
        if x.requires_grad:
            dot = np.sum(gg * x.data, axis=-1, keepdims=True)
            _accumulate(x, gg * inv - x.data * (inv ** 3) * (dot / d))
        if gamma.requires_grad:
            gain_grad = g * x.data * inv
            _accumulate(gamma, gain_grad.reshape(-1, d).sum(axis=0))

    return _make(out_data, (x, gamma), bwd)


def _softmax_backward(p: Array, g: Array) -> Array:
    """p * (g - rowsum(g * p)), the gradient through a softmax of output p,
    computed in g's buffer, which it overwrites."""
    g -= np.sum(g * p, axis=-1, keepdims=True)
    g *= p
    return g


def masked_softmax(scores: Tensor, allowed: Array) -> Tensor:
    """Softmax over the last axis confined to `allowed` (bool, broadcastable)."""
    p = k_masked_softmax(scores.data.copy(), allowed)

    def bwd(g: Array) -> None:
        _accumulate(scores, _softmax_backward(p, g.copy()))

    return _make(p, (scores,), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, allowed: Array, scale: float) -> Tensor:
    """`k_attention` as one node with parents (q, k, v). It keeps the
    head-major probabilities P, and its backward is that of FlashAttention
    (Dao et al., arXiv 2205.14135, App. B) without the tiling: dV = P^T g,
    dP = g V^T, dS = P * (dP - rowsum(dP * P)) * scale, dQ = dS K and
    dK = (Q^T dS)^T, handed back token-major and cut to the L' keys given."""
    out_data, p, qh, kt, vh = _attention(q.data, k.data, v.data, allowed, scale)
    t, n = q.data.shape[1], k.data.shape[1]

    def bwd(g: Array) -> None:
        g = _head_major(g, vh.shape[1])
        if v.requires_grad:
            _accumulate(v, (np.swapaxes(p, -1, -2) @ g)[:, :, :n].transpose(0, 2, 1, 3))
        if not (q.requires_grad or k.requires_grad):
            return
        ds = _softmax_backward(p, g @ np.swapaxes(vh, -1, -2))
        ds *= np.asarray(scale, ds.dtype)
        if q.requires_grad:
            _accumulate(q, _token_major(ds @ np.swapaxes(kt, -1, -2), t))
        if k.requires_grad:
            _accumulate(k, (np.swapaxes(qh, -1, -2) @ ds)[..., :n].transpose(0, 3, 1, 2))

    return _make(out_data, (q, k, v), bwd)


def causal_mask(t_q: int, t_k: int) -> Array:
    """allowed[i, j] = (key position j) <= (query position i)."""
    return np.tri(t_q, t_k, dtype=bool)


def rope(x: Tensor, cos: Array, sin: Array) -> Tensor:
    out_data = k_rope(x.data, cos, sin)

    def bwd(g: Array) -> None:  # the transposed rotation is the inverse one, R(-theta)
        _accumulate(x, k_rope(g, cos, -sin))

    return _make(out_data, (x,), bwd)


def embedding(table: Tensor, ids: Array) -> Tensor:
    ids = np.asarray(ids)
    out_data = k_embedding(table.data, ids)

    def bwd(g: Array) -> None:
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        _accumulate(table, gt)

    return _make(out_data, (table,), bwd)


def cross_entropy(logits: Tensor, targets: Array) -> Tensor:
    """`mean_nll` of `k_nll` as a float64 scalar Tensor, with its gradient."""
    loss = mean_nll(k_nll(logits.data, targets))
    vocab = logits.data.shape[-1]
    tflat = np.asarray(targets).reshape(-1)
    kflat = tflat != IGNORE_INDEX

    def bwd(g: Array) -> None:
        p = k_softmax(logits.data.reshape(-1, vocab), axis=-1).astype(np.float64)
        p[np.arange(p.shape[0]), np.where(kflat, tflat, 0)] -= 1.0
        p[~kflat] = 0.0
        p *= float(g) / int(kflat.sum())
        _accumulate(logits, p.reshape(logits.data.shape))

    return _make(np.asarray(loss), (logits,), bwd)
