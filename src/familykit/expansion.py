"""Stabilized block expansion: append zero-residual blocks to one branch.

New blocks are grafted after the branch's existing blocks with their
attention output projection and MLP down projection zeroed, so at step 0
each new block contributes exactly nothing and the expanded branch is a
bit-exact identity extension of the original. Internal projections are
either freshly Gaussian ("randomized") or copied from an existing layer
("clone"); the two arms of that ablation differ in nothing else, and
`familykit expand --ablate` trains both on the same schedule.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import kernels
from .data import ByteTokenizer
from .errors import ConfigError
from .model import (FamilialModel, FamilyConfig, copy_model, finite, forward_exits, init_block,
                    param_count, set_freeze)
from .rng import SplitRng

log = logging.getLogger(__name__)

INIT_MODES = ("randomized", "clone")


@dataclass(frozen=True)
class ExpansionSpec:
    target_branch: int
    n_new_blocks: int = 3
    init_mode: str = "randomized"
    clone_source: int = 0
    gaussian_std: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.n_new_blocks < 1:
            raise ConfigError("n_new_blocks must be >= 1")
        if self.init_mode not in INIT_MODES:
            raise ConfigError(f"init_mode must be one of {INIT_MODES}")
        if not finite(self.gaussian_std) or self.gaussian_std < 0:
            raise ConfigError("gaussian_std must be finite and >= 0")


@dataclass
class ExpansionReport:
    added_params: int
    trainable: list[str]
    frozen_count: int


def _new_block(cfg: FamilyConfig, model: FamilialModel, spec: ExpansionSpec, index: int):
    rng = SplitRng(spec.seed).split(f"expand/block/{index}")
    if spec.init_mode == "clone":
        if not 0 <= spec.clone_source < cfg.n_layers:
            raise ConfigError(f"clone_source {spec.clone_source} outside backbone "
                              f"[0, {cfg.n_layers})")
        block = copy.deepcopy(model.backbone[spec.clone_source])
    else:
        block = init_block(cfg, rng, f"new.{index}", std=spec.gaussian_std)
    # zero-residual constraint: the block's two output projections start at
    # zero (dense, even where a cloned source was factored), so its residual
    # contribution is exactly zero at step 0
    zero = init_block(cfg, None, "zero")
    block.w_o, block.w_down = zero.w_o, zero.w_down
    return block


def grown_scope(cfg: FamilyConfig,
                spec: ExpansionSpec) -> tuple[FamilyConfig, Callable[[str], bool]]:
    """The config that `spec` grows `cfg` into, and a test of whether a
    parameter or matrix name lies in the grown part: the new blocks of the
    target branch and its vocabulary projection. Expansion trains exactly
    that part, and compression factors its matrices."""
    target, n_new = spec.target_branch, spec.n_new_blocks
    if not 0 <= target < cfg.n_branches:
        raise ConfigError(f"target_branch {target} is not a branch of the model")
    bb = list(cfg.branch_blocks)
    bb[target] += n_new
    grown = replace(cfg, branch_blocks=tuple(bb))  # checks the size bound before the names
    head = f"exits.{target}.lm_proj"
    prefixes = tuple(f"exits.{target}.blocks.{j}." for j in range(bb[target] - n_new, bb[target]))
    return grown, lambda name: name == head or name.startswith(prefixes + (head + ".",))


def expand(model: FamilialModel, spec: ExpansionSpec) -> tuple[FamilialModel, ExpansionReport]:
    """Append spec.n_new_blocks zero-residual blocks to the target branch.

    Returns a new model; everything except the new blocks and the target
    branch's vocabulary projection is frozen.
    """
    cfg = model.config
    grown_config, grown = grown_scope(cfg, spec)
    expanded = copy_model(model)
    before = param_count(expanded)
    for i in range(spec.n_new_blocks):
        expanded.exits[spec.target_branch].blocks.append(_new_block(cfg, expanded, spec, i))
    expanded.config = grown_config
    frozen = set_freeze(expanded, lambda name: not grown(name))

    added = param_count(expanded) - before
    report = ExpansionReport(
        added_params=added,
        trainable=sorted(n for n, f in frozen.items() if not f),
        frozen_count=sum(frozen.values()),
    )
    return expanded, report


def verify_identity(base_model: FamilialModel, expanded_model: FamilialModel,
                    probe_batch: np.ndarray, branch: int) -> float:
    """Max |logit difference| between base and expanded branch on a probe.

    Must be exactly 0.0 before any training step: the zeroed projections
    make each new block's output exactly zero even in binary32.
    """
    if base_model.config.vocab != expanded_model.config.vocab:
        raise ConfigError("models have different vocabularies")
    base = forward_exits(base_model, probe_batch, [branch], ops=kernels)[0]
    grown = forward_exits(expanded_model, probe_batch, [branch], ops=kernels)[0]
    return float(np.max(np.abs(grown - base)))


def token_cosines(h_in: np.ndarray, h_out: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-token cosine between input and output hidden rows; zero-norm rows
    score 0 and raise the degenerate flag. Bit-identical rows score exactly
    1.0 (an identity block must not lose that to rounding)."""
    h_in = np.asarray(h_in, np.float64)
    h_out = np.asarray(h_out, np.float64)
    scores = np.zeros(h_in.shape[0])
    degenerate = False
    for t in range(h_in.shape[0]):
        ni = np.linalg.norm(h_in[t])
        no = np.linalg.norm(h_out[t])
        if ni == 0.0 or no == 0.0:
            degenerate = True
        elif np.array_equal(h_in[t], h_out[t]):
            scores[t] = 1.0
        else:
            scores[t] = float(h_in[t] @ h_out[t] / (ni * no))
    return scores, degenerate


def layer_cosine_similarity(model: FamilialModel, text_tokens: np.ndarray,
                            branch: int | None = None) -> tuple[np.ndarray, list[str], bool]:
    """cos(h_in, h_out) per block and token along one branch's forward path.

    Returns (matrix[layers, tokens], layer labels, degenerate flag); rows
    cover the backbone prefix then the branch blocks. Zero-norm hidden
    vectors score 0 and set the degenerate flag.
    """
    cfg = model.config
    if branch is None:
        branch = cfg.n_branches - 1
    tokens = np.asarray(text_tokens, dtype=np.int64)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if tokens.size == 0:
        raise ConfigError("text must be nonempty")
    cosines: list[tuple[str, np.ndarray, bool]] = []

    def record(name: str, h_in: np.ndarray, h_out: np.ndarray) -> None:
        cosines.append((name, *token_cosines(h_in[0], h_out[0])))

    forward_exits(model, tokens, [branch], on_block=record, ops=kernels)
    labels = [name for name, _, _ in cosines]
    scores = np.array([row for _, row, _ in cosines]).reshape(len(cosines), tokens.shape[1])
    degenerate = any(bad for _, _, bad in cosines)
    if degenerate:
        log.warning("zero-norm hidden state encountered; cosine set to 0")
    return scores, labels, degenerate


def cosine_csv_rows(scores: np.ndarray, tokens: np.ndarray) -> list[str]:
    tok = ByteTokenizer()
    rows = ["layer,token_index,token_text,cosine"]
    flat = np.asarray(tokens).reshape(-1)
    for layer in range(scores.shape[0]):
        for t in range(scores.shape[1]):
            text = tok.decode_text([flat[t]]) if flat[t] < 256 else f"<{int(flat[t])}>"
            text = text.replace('"', '""')
            rows.append(f'{layer},{t},"{text}",{scores[layer, t]:.9g}')
    return rows
