"""Full-sequence causal evaluation: per-branch NLL and perplexity.

Evaluation trains nothing, so its forward runs on the raw kernels of
`familykit.kernels` and builds no graph; the logits and the loss are the
values the autodiff path of training computes, bit for bit. Each batch's
windows are split into at most one group per CPU (`familykit.parallel`);
the forward and the per-position NLL are row-stable, and the batch's mean
is taken over the groups' NLLs in window order, so the split changes no
bit.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import ConfigError, DataError
from .model import FamilialModel, forward_exits
from .parallel import map_groups
from .tensor import k_nll, mean_nll
from .training import targets_for

EVAL_BATCH = 64


def branch_nll(model: FamilialModel, ids: np.ndarray, branch: int,
               window: int | None = None) -> tuple[float, int]:
    """Sum of next-token negative log-likelihoods over non-overlapping
    windows, and the number of scored positions."""
    window = model.config.ctx_len if window is None else window
    if window < 2:
        raise ConfigError(f"eval window must be >= 2 tokens, got {window}")
    ids = np.asarray(ids, dtype=np.int64)
    n_windows = len(ids) // window
    if n_windows == 0:
        raise DataError(f"need at least {window} tokens to evaluate, got {len(ids)}")
    rows = ids[:n_windows * window].reshape(n_windows, window)
    total = 0.0
    count = 0
    for start in range(0, n_windows, EVAL_BATCH):
        batch = rows[start:start + EVAL_BATCH]
        targets = targets_for(batch)

        def group_nll(a: int, b: int) -> np.ndarray:
            logits = forward_exits(model, batch[a:b], [branch], ops=kernels)[0]
            return k_nll(logits, targets[a:b])

        nll = np.concatenate(map_groups(group_nll, len(batch)))
        total += float(mean_nll(nll)) * nll.size
        count += nll.size
    return total, count


def branch_perplexity(model: FamilialModel, ids: np.ndarray, branch: int,
                      window: int | None = None) -> float:
    total, count = branch_nll(model, ids, branch, window)
    return float(np.exp(total / count))
