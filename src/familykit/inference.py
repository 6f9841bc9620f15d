"""Confidence-thresholded early-exit decoding with shared KV state.

Per new token the exits are evaluated shallow to deep; the first
whose max softmax probability reaches the threshold emits, otherwise the
final exit does. Every block keeps a KV cache, its output rows and a
frontier (the positions it has run), so a (position, block) pair runs
again only after a rollback has discarded it.

Decoding is self-speculative. The shallowest exit runs at each new
position: where it fires, its token is final; elsewhere its token is a
draft, pushed so that the next position can run. Once `ROW_TILE` drafts
are undecided (or decoding must stop), each deeper exit runs in turn over
the positions still undecided, one multi-row call per block, and the first
exit that fires at a position (or the final one) decides its token.
Positions are accepted in order up to the first decided token that differs
from its draft, which takes the decided token; `GenState.rollback` forgets
every position after it. When a token exits early, deeper layers for its
position are skipped; under the default "lazy" policy they run only when a
later position climbs that deep, and "always" backfills every pushed
position through every block after each verified window.

Each block step is the model's own `block_forward` run over the raw
kernels of `familykit.kernels`, with a hook that writes the step's keys
and values into the cache and returns the whole zero-filled `ctx_len`
cache: the key extent that a full-prefix forward pads to. With the
row-stable kernels a row's result is then independent of how many rows
run with it, so cached logits are bit-identical to a full-prefix forward
of the same depth, and a verified row equals the same row decoded alone:
tokens, confidences and exits are those of one-token-at-a-time decoding.
The RoPE tables and the causal mask are built for all `ctx_len` positions
once per stream; each step slices its rows.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .data import EOS
from .errors import ConfigError, InputError
from .model import BlockWeights, FamilialModel, block_forward, head_logits
from .rng import SplitRng
from .tensor import ROW_TILE, causal_mask, k_softmax, rope_tables


@dataclass(frozen=True)
class ExitPolicy:
    """Early-exit decoding policy: threshold on max softmax probability."""

    threshold: float
    mode: str = "greedy"            # "greedy" | "sample"
    temperature: float = 1.0
    seed: int = 0
    backfill: str = "lazy"          # "lazy" | "always"

    def validate(self) -> None:
        if self.mode not in ("greedy", "sample"):
            raise ConfigError(f"unknown decode mode {self.mode!r}")
        if self.backfill not in ("lazy", "always"):
            raise ConfigError(f"unknown backfill policy {self.backfill!r}")
        if not np.isfinite(self.threshold):
            raise ConfigError(f"exit threshold must be finite, got {self.threshold}")
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed}")


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
    """Max softmax probability of one vocabulary row, in [0, 1].

    The row is widened into one float64 copy of its own (never the caller's
    array), which is shifted and exponentiated in place; the maximum and the
    sum are the ufunc reductions that `np.max` and `np.sum` wrap, so the
    bits are theirs without their Python-level wrappers."""
    row = np.array(logits_row, dtype=np.float64)
    if not np.logical_and.reduce(np.isfinite(row), axis=None):
        raise InputError("confidence requires finite logits")
    row -= np.maximum.reduce(row, axis=None)
    np.exp(row, out=row)
    # the softmax of the top entry, exp(0) / sum: the same bits as the
    # largest entry of the whole softmax, because rounded division is monotone
    return float(1.0 / np.add.reduce(row, axis=None))


EMBEDDING = ("embedding",)  # GenState buffer key of the embedded rows


class GenState:
    """Decode-time state over a frozen model; one generation stream.

    Every block that has run keeps its frontier and, written and zeroed on
    the position axis, the rows it produced (ctx_len, hidden) and its keys
    and values. Keys are allocated (1, kv_heads, head_dim, ctx_len) and
    values (1, kv_heads, ctx_len, head_dim), the layouts attention
    multiplies them in, and `cache` holds token-major (1, ctx_len,
    kv_heads, head_dim) views of both: writes and rollbacks go through the
    views, and attention, handed them, finds its layouts already there and
    copies nothing. Backbone layer 0 reads the embedded rows (key
    `EMBEDDING`), each later layer the one before it, and branch k's first
    block backbone layer `exit_depths[k] - 1`. `generate` advances blocks
    lazily, or under "always" backfills every pushed position through every
    block after each verified window, and rolls back the positions after a
    rejected draft. `exec_count` counts the rows each block key has run and
    `discarded_rows` the rows that rollbacks threw away, so that every row
    ever run is either under a frontier or discarded.
    """

    def __init__(self, model: FamilialModel):
        self.model = model
        cfg = model.config
        self.cfg = cfg
        self.n_positions = 0
        self.rows: dict[tuple, np.ndarray] = defaultdict(
            lambda: np.zeros((cfg.ctx_len, cfg.hidden), np.float32))
        self.frontier: dict[tuple, int] = {}  # block key -> positions run
        self.cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = defaultdict(  # key -> (K, V)
            lambda: (np.zeros((1, cfg.kv_heads, cfg.head_dim, cfg.ctx_len),
                              np.float32).transpose(0, 3, 1, 2),
                     np.zeros((1, cfg.kv_heads, cfg.ctx_len, cfg.head_dim),
                              np.float32).transpose(0, 2, 1, 3)))
        self.cos, self.sin = rope_tables(np.arange(cfg.ctx_len), cfg.head_dim, cfg.rope_base)
        self.mask = causal_mask(cfg.ctx_len, cfg.ctx_len)
        self.exec_count: dict[tuple, int] = {}
        self.discarded_rows = 0

    def push_token(self, token: int) -> None:
        if token < 0 or token >= self.cfg.vocab:
            raise InputError(f"token id {token} outside vocab")
        if self.n_positions >= self.cfg.ctx_len:
            raise InputError(f"context of {self.cfg.ctx_len} positions is full")
        self.rows[EMBEDDING][self.n_positions] = self.model.embedding.data[token]
        self.n_positions += 1

    def rollback(self, n: int) -> None:
        """Forget every position from `n` on: each frontier above `n` comes
        back to `n`, and the rows and KV entries past it are zeroed, as if
        those positions had never been pushed."""
        if not 0 <= n <= self.n_positions:
            raise InputError(f"cannot roll {self.n_positions} positions back to {n}")
        for key, stop in self.frontier.items():
            if stop > n:
                self.discarded_rows += stop - n
                self.rows[key][n:stop] = 0
                for buf in self.cache[key]:
                    buf[:, n:stop] = 0
                self.frontier[key] = n
        self.rows[EMBEDDING][n:self.n_positions] = 0
        self.n_positions = n

    def _block_rows(self, block: BlockWeights, rows: np.ndarray, start: int,
                    key: tuple) -> np.ndarray:
        """Run one block on the residual rows of positions [start, stop),
        attending over its cached keys and values (zero beyond the rows
        written so far); returns the updated rows."""
        stop = start + len(rows)
        self.exec_count[key] = self.exec_count.get(key, 0) + stop - start
        keys, values = self.cache[key]

        def kv(k: np.ndarray, v: np.ndarray):
            keys[:, start:stop] = k
            values[:, start:stop] = v
            return keys, values

        out = block_forward(block, rows[None], self.cfg, self.cos[start:stop],
                            self.sin[start:stop], self.mask[start:stop], ops=kernels, kv=kv)
        return out[0]

    def _advance(self, blocks: list[tuple[tuple, BlockWeights]], source: tuple,
                 pos: int) -> tuple:
        """Run each of `blocks` ((key, weights), in path order) on the
        positions from its frontier to `pos`, off the rows of the block
        before it (the first off `source`); returns the last rows' key."""
        for key, block in blocks:
            start = self.frontier.get(key, 0)
            if start <= pos:
                self.rows[key][start:pos + 1] = self._block_rows(
                    block, self.rows[source][start:pos + 1], start, key)
                self.frontier[key] = pos + 1
            source = key
        return source

    def advance_backbone(self, pos: int, depth: int) -> None:
        """Bring every position <= pos through the first `depth` backbone layers."""
        self._advance([(("backbone", li), self.model.backbone[li]) for li in range(depth)],
                      EMBEDDING, pos)

    def ensure_branch(self, branch: int, pos: int) -> tuple:
        """Run the blocks of `branch` for every position <= pos, whose
        backbone rows must already be there; returns the key of the rows
        its head reads."""
        depth = self.cfg.exit_depths[branch]
        blocks = [(("branch", branch, j), block)
                  for j, block in enumerate(self.model.exits[branch].blocks)]
        return self._advance(blocks, ("backbone", depth - 1) if depth else EMBEDDING, pos)

    def exit_logits(self, branch: int, positions: list[int]) -> np.ndarray:
        """Vocabulary rows (len(positions), vocab) of `branch` at the
        ascending `positions`, advancing every block on its path lazily up
        to the last of them, one call per block."""
        last = positions[-1]
        self.advance_backbone(last, self.cfg.exit_depths[branch])
        h = self.rows[self.ensure_branch(branch, last)][positions][None]  # (1, n, hidden)
        return head_logits(self.model.exits[branch], h, self.cfg, branch, ops=kernels)[0]


def _decode_token(logits: np.ndarray, policy: ExitPolicy, u: float) -> int:
    """Greedy argmax, or the inverse CDF of the tempered softmax at the
    step's uniform `u`. A temperature so small that the tempered logits
    overflow leaves no distribution: that is a ConfigError."""
    if policy.mode == "greedy":
        return int(np.argmax(logits))  # argmax takes the lowest index on ties
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as NaN below
        probs = k_softmax(np.asarray(logits, np.float64) / policy.temperature, axis=-1)
    cdf = np.cumsum(probs)
    if np.isnan(cdf[-1]):  # a NaN anywhere reaches the total
        raise ConfigError(f"temperature {policy.temperature!r} overflows the tempered logits")
    cdf /= cdf[-1]
    return int(np.searchsorted(cdf, u, side="right"))


def _verify(state: GenState, records: list[TokenRecord], undecided: list[int], base: int,
            policy: ExitPolicy, uniforms: list[float]) -> None:
    """Decide the drafted `records[i]` for i in `undecided` (record i
    queries position base + i) exit by exit past the first, each exit in
    one call over the positions still undecided. A position that decides a
    token other than its draft takes that token and ends the window: the
    records after it are dropped, and deeper exits skip their positions."""
    final = state.cfg.n_branches - 1
    for k in range(1, final + 1):
        if not undecided:
            break
        still = []
        for i, logits in zip(undecided, state.exit_logits(k, [base + i for i in undecided])):
            record = records[i]
            conf = confidence(logits)
            record.confidences.append(conf)
            if conf < policy.threshold and k != final:
                still.append(i)
                continue
            token = _decode_token(logits, policy, uniforms[record.step])
            record.exit_branch, record.exit_depth = k, state.cfg.exit_depths[k]
            if token != record.token_id:
                record.token_id = token
                del records[i + 1:]
                break
        undecided = still


def generate(model: FamilialModel, prompt, policy: ExitPolicy, max_new: int,
             state_out: list | None = None) -> GenerationTrace:
    """Early-exit autoregressive decoding.

    Exits are evaluated shallowest first; the first confidence >= threshold
    emits, otherwise the final branch does. Exceeding the context window
    sets `truncated` instead of erroring. Greedy mode is fully
    deterministic; sampling draws one uniform per step from the policy
    seed and takes the inverse CDF of the deciding exit's distribution at
    it. The shallowest exit drafts and deeper exits verify (see the module
    notes); the trace is that of decoding one token at a time.
    """
    cfg = model.config
    policy.validate()
    if max_new < 0:
        raise InputError(f"max_new must be >= 0, got {max_new}")
    prompt = [int(t) for t in np.asarray(prompt, dtype=np.int64).reshape(-1)]
    if not prompt:
        raise InputError("prompt must be nonempty")
    if len(prompt) > cfg.ctx_len:
        raise InputError(f"prompt of {len(prompt)} tokens exceeds ctx_len {cfg.ctx_len}")
    rng = SplitRng(policy.seed).split("generate") if policy.mode == "sample" else None

    state = GenState(model)
    if state_out is not None:
        state_out.append(state)
    for t in prompt:
        state.push_token(t)
    trace = GenerationTrace(prompt=list(prompt))
    final = cfg.n_branches - 1
    uniforms: list[float] = []  # one per step, drawn once; a redone step reuses its own

    while len(trace.records) < max_new:
        base = state.n_positions - 1
        records: list[TokenRecord] = []
        undecided: list[int] = []
        while True:  # draft until ROW_TILE positions are undecided or decoding must stop
            step = len(trace.records) + len(records)
            if step == len(uniforms):
                uniforms.append(float(rng.uniform(())) if rng else 0.0)
            logits = state.exit_logits(0, [state.n_positions - 1])[0]
            conf = confidence(logits)
            token = _decode_token(logits, policy, uniforms[step])
            records.append(TokenRecord(step=step, token_id=token, exit_branch=0,
                                       exit_depth=cfg.exit_depths[0], confidences=[conf]))
            if conf < policy.threshold and final > 0:
                undecided.append(len(records) - 1)
            if (token == EOS or state.n_positions >= cfg.ctx_len or step + 1 == max_new
                    or len(undecided) == ROW_TILE):
                break
            state.push_token(token)

        _verify(state, records, undecided, base, policy, uniforms)
        state.rollback(base + len(records))
        trace.records += records
        trace.tokens += [r.token_id for r in records]
        token = records[-1].token_id
        stop = token == EOS or state.n_positions >= cfg.ctx_len
        trace.truncated = stop and token != EOS
        if not stop:
            state.push_token(token)
        if policy.backfill == "always" and state.n_positions > len(prompt):
            # every position whose token has been pushed, as after each token
            state.advance_backbone(state.n_positions - 2, cfg.n_layers)
            for k in range(final + 1):
                state.ensure_branch(k, state.n_positions - 2)
        if stop:
            break
    return trace
