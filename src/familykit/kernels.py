"""Raw-array versions of the forward ops of `familykit.tensor`, same names.

The compute ops are the very `k_*` kernels that the autodiff ops wrap,
`attention` (`k_attention`, in place on its own score buffer) among them;
`param` and `reshape` give the values and memory layout of their autodiff
namesakes without recording a graph. Training runs
`model.forward_exits` over `tensor`; evaluation, calibration, the identity
check, analysis and cached decoding run it (or `model.block_forward`) over
this module, so every path agrees bit for bit and only training builds a
graph.
"""

from __future__ import annotations

import numpy as np

from .tensor import (Tensor, k_attention as attention, k_embedding as embedding,
                     k_matmul as matmul, k_rmsnorm as rmsnorm, k_rope as rope,
                     k_silu as silu)

Array = np.ndarray


def param(p: Tensor) -> Array:
    """A parameter as an operand of these ops: its array."""
    return p.data


def reshape(a: Array, shape) -> Array:
    return a.reshape(shape)

