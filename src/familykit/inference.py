"""Confidence-thresholded early-exit decoding with shared KV state.

Per new token the allowed exits are evaluated shallow to deep; the first
whose max softmax probability reaches the threshold emits. Positions keep
a per-layer KV cache plus the residual tapped at every exit depth, so no
(position, layer) pair is ever computed twice. When a token exits early,
deeper layers for its position are skipped; under the default "lazy"
policy their KV entries are backfilled only when a later token actually
climbs that deep ("always" backfills immediately after each emission).

Each block step is the model's own `block_forward` run over the raw
kernels of `familykit.kernels`, with a hook that writes the step's keys
and values into the cache and returns the whole zero-filled `ctx_len`
cache: the key extent that a full-prefix forward pads to. With the
row-stable kernels a row's result is then independent of how many rows
run with it, so cached logits are bit-identical to a full-prefix forward
of the same depth. The RoPE tables and the causal mask are built for all
`ctx_len` positions once per stream; each step slices its rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .data import EOS
from .errors import ConfigError, InputError
from .model import BlockWeights, FamilialModel, FamilyConfig, block_forward, head_logits
from .rng import SplitRng
from .tensor import causal_mask, k_softmax, rope_tables


@dataclass(frozen=True)
class ExitPolicy:
    """Early-exit decoding policy: threshold on max softmax probability."""

    threshold: float
    allowed_exits: tuple[int, ...] = ()
    mode: str = "greedy"            # "greedy" | "sample"
    temperature: float = 1.0
    seed: int = 0
    backfill: str = "lazy"          # "lazy" | "always"

    def resolve_exits(self, cfg: FamilyConfig) -> tuple[int, ...]:
        exits = tuple(sorted(self.allowed_exits)) or tuple(range(cfg.n_branches))
        if not exits or exits[-1] != cfg.n_branches - 1:
            raise ConfigError("allowed exits must be nonempty and include the final branch")
        if any(not 0 <= e < cfg.n_branches for e in exits):
            raise ConfigError("allowed exit out of range")
        if self.mode not in ("greedy", "sample"):
            raise ConfigError(f"unknown decode mode {self.mode!r}")
        if self.backfill not in ("lazy", "always"):
            raise ConfigError(f"unknown backfill policy {self.backfill!r}")
        if not np.isfinite(self.threshold):
            raise ConfigError(f"exit threshold must be finite, got {self.threshold}")
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")
        return exits


@dataclass
class TokenRecord:
    step: int
    token_id: int
    exit_branch: int
    exit_depth: int
    confidences: list[float]

    def to_json(self) -> str:
        return json.dumps({"step": self.step, "token_id": self.token_id,
                           "exit_depth": self.exit_depth,
                           "confidences": [round(c, 9) for c in self.confidences]})


@dataclass
class GenerationTrace:
    prompt: list[int]
    tokens: list[int] = field(default_factory=list)
    records: list[TokenRecord] = field(default_factory=list)
    truncated: bool = False

    def jsonl(self) -> str:
        return "\n".join(r.to_json() for r in self.records) + ("\n" if self.records else "")


def confidence(logits_row: np.ndarray) -> float:
    """Max softmax probability of one vocabulary row, in [0, 1]."""
    row = np.asarray(logits_row, dtype=np.float64)
    if not np.all(np.isfinite(row)):
        raise InputError("confidence requires finite logits")
    return float(np.max(k_softmax(row, axis=-1)))


class GenState:
    """Decode-time state over a frozen model; one generation stream."""

    def __init__(self, model: FamilialModel, exits: tuple[int, ...]):
        self.model = model
        cfg = model.config
        self.cfg = cfg
        self.depth = np.zeros(cfg.ctx_len, np.int64)
        self.hidden = np.zeros((cfg.ctx_len, cfg.hidden), np.float32)
        self.n_positions = 0
        self.branch_frontier = {k: 0 for k in exits}
        self.branch_out = {k: np.zeros((cfg.ctx_len, cfg.hidden), np.float32) for k in exits}
        self.tapped = {k: np.zeros((cfg.ctx_len, cfg.hidden), np.float32)
                       for k in range(cfg.n_branches)}
        self.cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}  # block key -> (K, V)
        self.cos, self.sin = rope_tables(np.arange(cfg.ctx_len), cfg.head_dim, cfg.rope_base)
        self.mask = causal_mask(cfg.ctx_len, cfg.ctx_len)
        self.exec_count: dict[tuple, int] = {}

    # -- position ingestion --------------------------------------------------

    def push_token(self, token: int) -> int:
        if token < 0 or token >= self.cfg.vocab:
            raise InputError(f"token id {token} outside vocab")
        p = self.n_positions
        self.hidden[p] = self.model.embedding.data[token]
        self.depth[p] = 0
        for k, d in enumerate(self.cfg.exit_depths):
            if d == 0:
                self.tapped[k][p] = self.hidden[p]
        self.n_positions += 1
        return p

    # -- core block step on a contiguous row range ---------------------------

    def _block_rows(self, block: BlockWeights, rows: np.ndarray, start: int,
                    key: tuple, name: str) -> np.ndarray:
        """Run one block on the residual rows of positions [start, stop),
        attending over its cached keys and values (zero beyond the rows
        written so far); returns the updated rows."""
        cfg = self.cfg
        stop = start + len(rows)
        for p in range(start, stop):
            self.exec_count[key + (p,)] = self.exec_count.get(key + (p,), 0) + 1
        if key not in self.cache:
            shape = (1, cfg.kv_heads, cfg.ctx_len, cfg.head_dim)
            self.cache[key] = (np.zeros(shape, np.float32), np.zeros(shape, np.float32))
        keys, values = self.cache[key]

        def kv(k: np.ndarray, v: np.ndarray):
            keys[:, :, start:stop] = k
            values[:, :, start:stop] = v
            return keys, values

        out = block_forward(block, rows[None], cfg, self.cos[start:stop], self.sin[start:stop],
                            self.mask[start:stop], name=name, ops=kernels, kv=kv)
        return out[0]

    # -- backbone / branch advancement ---------------------------------------

    def advance_backbone(self, pos: int, depth_target: int) -> None:
        """Bring every position <= pos to `depth_target` backbone layers.

        Depths are non-increasing in position, so for each layer the rows
        still below it form a contiguous suffix; each (position, layer)
        runs exactly once over the lifetime of the stream.
        """
        for li in range(depth_target):
            start = pos + 1
            while start > 0 and self.depth[start - 1] <= li:
                start -= 1
            if start > pos:
                continue  # everyone already past this layer
            out = self._block_rows(self.model.backbone[li], self.hidden[start:pos + 1],
                                   start, key=("backbone", li), name=f"backbone.{li}")
            self.hidden[start:pos + 1] = out
            self.depth[start:pos + 1] = li + 1
            for k, d in enumerate(self.cfg.exit_depths):
                if d == li + 1:
                    self.tapped[k][start:pos + 1] = out

    def ensure_branch(self, branch: int, pos: int) -> None:
        """Run branch blocks for positions [frontier, pos] of one exit."""
        start = self.branch_frontier[branch]
        if start > pos:
            return
        rows = self.tapped[branch][start:pos + 1].copy()
        head = self.model.exits[branch]
        for j, block in enumerate(head.blocks):
            rows = self._block_rows(block, rows, start, key=("branch", branch, j),
                                    name=f"exits.{branch}.blocks.{j}")
        self.branch_out[branch][start:pos + 1] = rows
        self.branch_frontier[branch] = pos + 1

    def exit_logits(self, branch: int, pos: int) -> np.ndarray:
        """Vocabulary row for `branch` at position `pos` (advancing lazily)."""
        self.advance_backbone(pos, self.cfg.exit_depths[branch])
        self.ensure_branch(branch, pos)
        h = self.branch_out[branch][pos][None, None]  # (1, 1, hidden)
        return head_logits(self.model.exits[branch], h, self.cfg, branch,
                           ops=kernels)[0, 0]


def _decode_token(logits: np.ndarray, policy: ExitPolicy, rng: SplitRng | None) -> int:
    if policy.mode == "greedy":
        return int(np.argmax(logits))  # argmax takes the lowest index on ties
    probs = k_softmax(np.asarray(logits, np.float64) / policy.temperature, axis=-1)
    return rng.choice_from_probs(probs)


def generate(model: FamilialModel, prompt, policy: ExitPolicy, max_new: int,
             state_out: list | None = None) -> GenerationTrace:
    """Early-exit autoregressive decoding.

    Exits are evaluated shallowest first; the first confidence >= threshold
    emits, otherwise the final branch does. Exceeding the context window
    sets `truncated` instead of erroring. Greedy mode is fully
    deterministic; sampling uses the policy seed.
    """
    cfg = model.config
    exits = policy.resolve_exits(cfg)
    if max_new < 0:
        raise InputError(f"max_new must be >= 0, got {max_new}")
    prompt = [int(t) for t in np.asarray(prompt, dtype=np.int64).reshape(-1)]
    if not prompt:
        raise InputError("prompt must be nonempty")
    if len(prompt) > cfg.ctx_len:
        raise InputError(f"prompt of {len(prompt)} tokens exceeds ctx_len {cfg.ctx_len}")
    rng = SplitRng(policy.seed).split("generate") if policy.mode == "sample" else None

    state = GenState(model, exits)
    if state_out is not None:
        state_out.append(state)
    for t in prompt:
        state.push_token(t)
    trace = GenerationTrace(prompt=list(prompt))

    for step in range(max_new):
        query = state.n_positions - 1
        confidences: list[float] = []
        chosen = exits[-1]
        logits = None
        for k in exits:
            logits = state.exit_logits(k, query)
            conf = confidence(logits)
            confidences.append(conf)
            if conf >= policy.threshold:
                chosen = k
                break
        token = _decode_token(logits, policy, rng)
        trace.records.append(TokenRecord(
            step=step, token_id=token, exit_branch=chosen,
            exit_depth=cfg.exit_depths[chosen], confidences=confidences))
        trace.tokens.append(token)
        if token == EOS:
            break
        if state.n_positions >= cfg.ctx_len:
            trace.truncated = True
            break
        state.push_token(token)
        if policy.backfill == "always":
            state.advance_backbone(query, cfg.n_layers)
            for k in exits:
                state.ensure_branch(k, query)
    return trace
