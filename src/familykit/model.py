"""Shared-backbone decoder transformer with multiple exit heads.

One stack of pre-norm GQA blocks is shared by every branch; branch k taps
the residual stream after backbone layer `exit_depths[k]`, runs its own
branch blocks, and projects to the vocabulary through an untied head.
Sub-models at different exits are therefore nested prefixes of one
parameter store, never copies.

`weight_slots` is the one walk of that store, read out by `named_parameters`
and filled by `from_parameters`. `block_forward` is the one statement of
the block math and `forward_exits` the one forward loop, both over an op
module the caller picks: training passes the autodiff ops of `tensor`;
evaluation, calibration, the identity check, analysis and cached decoding
pass the raw kernels of `kernels` that those ops wrap. Both compute the
same values bit for bit, and only training builds a graph.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from types import ModuleType
from typing import Callable, Iterator, Union

import numpy as np

from . import tensor
from .errors import ConfigError, InputError, IntegrityError, ShapeError
from .rng import SplitRng
from .tensor import Tensor, causal_mask, rope_tables

INIT_STD = 0.02
MAX_ELEMENTS = 1 << 36  # 256 GiB of float32: a bound on parameters and on any one buffer

BLOCK_MATRICES = ("w_q", "w_k", "w_v", "w_o", "w_gate", "w_up", "w_down")
BLOCK_NORMS = ("attn_norm", "mlp_norm")


@dataclass(frozen=True)
class FamilyConfig:
    """Architecture description for one model family."""

    n_layers: int
    hidden: int
    q_heads: int
    kv_heads: int
    vocab: int
    ctx_len: int
    exit_depths: tuple[int, ...]
    branch_blocks: tuple[int, ...] | int  # one int: the same count for every exit
    mlp_mult: int = 4
    rms_eps: float = 1e-5
    rope_base: float = 10000.0

    def __post_init__(self):
        object.__setattr__(self, "exit_depths", tuple(int(d) for d in self.exit_depths))
        bb = self.branch_blocks
        if isinstance(bb, int):
            bb = (bb,) * len(self.exit_depths)
        object.__setattr__(self, "branch_blocks", tuple(int(b) for b in bb))
        self.validate()

    def validate(self) -> None:
        if self.vocab < 2:
            raise ConfigError("vocab must be >= 2")
        if self.ctx_len < 1:
            raise ConfigError("ctx_len must be >= 1")
        if self.q_heads < 1 or self.kv_heads < 1 or self.q_heads % self.kv_heads:
            raise ConfigError("q_heads must be a positive multiple of kv_heads")
        if self.hidden < 1 or self.hidden % self.q_heads:
            raise ConfigError("hidden must be a positive multiple of q_heads")
        if self.head_dim % 2:
            raise ConfigError("head dimension must be even for rotary embedding")
        if not self.exit_depths:
            raise ConfigError("at least one exit is required")
        if len(self.branch_blocks) != len(self.exit_depths):
            raise ConfigError("branch_blocks must give one count per exit")
        if any(b < 0 for b in self.branch_blocks):
            raise ConfigError("branch_blocks counts must be >= 0")
        depths = self.exit_depths
        if list(depths) != sorted(set(depths)):
            raise ConfigError("exit_depths must be strictly increasing")
        if depths[-1] != self.n_layers:
            raise ConfigError("last exit depth must equal n_layers")
        # n_layers == 0 with exit_depths == (0,) is the degenerate head-only
        # model used for parameter accounting; otherwise depths start at 1.
        if self.n_layers > 0 and depths[0] < 1:
            raise ConfigError("exit depths must be >= 1")
        if self.n_layers < 0:
            raise ConfigError("n_layers must be >= 0")
        if self.mlp_mult < 1:
            raise ConfigError("mlp_mult must be >= 1")
        if not finite(self.rms_eps, self.rope_base) or self.rms_eps <= 0 or self.rope_base <= 0:
            raise ConfigError("rms_eps and rope_base must be positive and finite")
        with np.errstate(over="ignore"):  # the model computes in float32
            eps32 = np.float32(self.rms_eps)
        if not (np.isfinite(eps32) and eps32 > 0):
            raise ConfigError(f"rms_eps {self.rms_eps!r} is 0 or infinite in float32")
        # counted in Python ints before anything is allocated: the parameters,
        # and the scores, MLP rows and logits of one full-context sequence
        h, block = self.hidden, sum(a * b for a, b in _block_shapes(self).values())
        sizes = {"parameters": (self.vocab * h + (self.n_layers + sum(self.branch_blocks))
                                * (block + 2 * h) + self.n_branches * (h + h * self.vocab)),
                 "forward buffer": self.ctx_len * max(self.q_heads * self.ctx_len,
                                                      self.mlp_mult * h, self.vocab)}
        for what, n in sizes.items():
            if n > MAX_ELEMENTS:
                raise ConfigError(f"{what} of {n} elements exceed the bound of {MAX_ELEMENTS}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.q_heads

    @property
    def n_branches(self) -> int:
        return len(self.exit_depths)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FamilyConfig":
        return from_fields(cls, d, "model config")


def finite(*values) -> bool:
    """Every value is a number a float holds: not NaN or +-inf, and no int
    beyond float range, which would overflow where the math converts it."""
    return all(-sys.float_info.max <= v <= sys.float_info.max for v in values)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON value checks by dataclass field annotation; JSON lists arrive as tuples
_FIELD_CHECKS = {
    "int": _is_int,
    "float": lambda v: isinstance(v, float) or _is_int(v),
    "str": lambda v: isinstance(v, str),
    "None": lambda v: v is None,
    "tuple[int, ...]": lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
    "tuple[float, ...]": lambda v: isinstance(v, tuple) and all(
        isinstance(x, float) or _is_int(x) for x in v),
}


def from_fields(cls, doc: dict, where: str, **fixed):
    """Dataclass `cls` from the JSON object `doc` plus the caller's `fixed`
    fields. Every key of `doc` must be one of the other fields, every field
    without a default must be given, and each value must have the JSON type
    its field's annotation names; anything else is a ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {doc!r}")
    types = {f.name: f.type for f in fields(cls) if f.name not in fixed}
    unknown = set(doc) - set(types)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    missing = {f.name for f in fields(cls) if f.default is MISSING
               and f.default_factory is MISSING} - set(doc) - set(fixed)
    if missing:
        raise ConfigError(f"missing {where} keys: {sorted(missing)}")
    doc = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
    for key, value in doc.items():
        if not any(_FIELD_CHECKS[t](value) for t in types[key].split(" | ")):
            raise ConfigError(f"{where} {key!r} has the wrong type: {value!r}")
    return cls(**doc, **fixed)


def desk_config() -> FamilyConfig:
    """Smallest configuration exercising sharing, GQA grouping and nesting."""
    return FamilyConfig(n_layers=4, hidden=32, q_heads=4, kv_heads=2, vocab=259,
                        ctx_len=64, exit_depths=(2, 4), branch_blocks=(1, 1))


@dataclass
class Factored:
    """Low-rank replacement for a weight matrix: y = (x @ b) @ a."""

    b: Tensor  # (in, r), applied first
    a: Tensor  # (r, out), applied second


Weight = Union[Tensor, Factored]


@dataclass
class BlockWeights:
    w_q: Weight
    w_k: Weight
    w_v: Weight
    w_o: Weight
    w_gate: Weight
    w_up: Weight
    w_down: Weight
    attn_norm: Tensor
    mlp_norm: Tensor


@dataclass
class ExitHead:
    blocks: list[BlockWeights]
    final_norm: Tensor
    lm_proj: Weight


@dataclass
class FamilialModel:
    config: FamilyConfig
    embedding: Tensor
    backbone: list[BlockWeights]
    exits: list[ExitHead]

    @property
    def freeze_mask(self) -> dict[str, bool]:
        """Parameter name -> frozen, read off each parameter's `requires_grad`."""
        return {name: not p.requires_grad for name, p in named_parameters(self)}


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _matrix(rng: SplitRng | None, label: str, shape, std: float) -> Tensor:
    data = np.zeros(shape, np.float32) if rng is None else rng.split(label).gaussian(shape, std=std)
    return Tensor(data, requires_grad=True)


def _gain(cfg: FamilyConfig) -> Tensor:
    return Tensor(np.ones(cfg.hidden, np.float32), requires_grad=True)


def _block_shapes(cfg: FamilyConfig) -> dict[str, tuple[int, int]]:
    h, dh = cfg.hidden, cfg.head_dim
    kv = cfg.kv_heads * dh
    m = cfg.mlp_mult * h
    return {"w_q": (h, h), "w_k": (h, kv), "w_v": (h, kv), "w_o": (h, h),
            "w_gate": (h, m), "w_up": (h, m), "w_down": (m, h)}


def init_block(cfg: FamilyConfig, rng: SplitRng | None, label: str,
               std: float = INIT_STD) -> BlockWeights:
    """Gaussian projections (all zero when `rng` is None), unit norm gains."""
    shapes = _block_shapes(cfg)
    mats = {m: _matrix(rng, f"{label}.{m}", shapes[m], std) for m in BLOCK_MATRICES}
    return BlockWeights(**mats, attn_norm=_gain(cfg), mlp_norm=_gain(cfg))


def init_model(config: FamilyConfig, seed: int) -> FamilialModel:
    """Gaussian(0, 0.02^2) projections, unit norm gains; branch block j of
    exit k starts as a copy of backbone layer exit_depths[k] + j when that
    layer exists, else fresh Gaussian."""
    rng = SplitRng(seed).split("init")
    emb = _matrix(rng, "embedding", (config.vocab, config.hidden), INIT_STD)
    backbone = [init_block(config, rng, f"backbone.{i}") for i in range(config.n_layers)]
    exits = []
    for k, depth in enumerate(config.exit_depths):
        blocks = [copy.deepcopy(backbone[depth + j]) if depth + j < config.n_layers
                  else init_block(config, rng, f"exits.{k}.blocks.{j}")
                  for j in range(config.branch_blocks[k])]
        exits.append(ExitHead(
            blocks=blocks, final_norm=_gain(config),
            lm_proj=_matrix(rng, f"exits.{k}.lm_proj", (config.hidden, config.vocab), INIT_STD),
        ))
    return FamilialModel(config=config, embedding=emb, backbone=backbone, exits=exits)


# ---------------------------------------------------------------------------
# parameter traversal
# ---------------------------------------------------------------------------

LINEAR_SLOTS = BLOCK_MATRICES + ("lm_proj",)  # slots that may hold a Factored weight


def weight_slots(model: FamilialModel) -> Iterator[tuple[str, object, str]]:
    """(name, owner, attribute) of every weight slot, in checkpoint order.

    This is the one walk of the model's structure: parameter names, copies,
    casts and every assembly by `from_parameters` are built on it.
    """
    def block(prefix: str, b: BlockWeights):
        return ((f"{prefix}.{m}", b, m) for m in BLOCK_MATRICES + BLOCK_NORMS)

    yield "embedding", model, "embedding"
    for i, b in enumerate(model.backbone):
        yield from block(f"backbone.{i}", b)
    for k, head in enumerate(model.exits):
        for j, b in enumerate(head.blocks):
            yield from block(f"exits.{k}.blocks.{j}", b)
        yield f"exits.{k}.final_norm", head, "final_norm"
        yield f"exits.{k}.lm_proj", head, "lm_proj"


def named_parameters(model: FamilialModel) -> list[tuple[str, Tensor]]:
    """Every parameter by checkpoint name; a factored slot gives `{name}.A`
    then `{name}.B`."""
    out: list[tuple[str, Tensor]] = []
    for name, owner, attr in weight_slots(model):
        w = getattr(owner, attr)
        if isinstance(w, Factored):
            out += [(f"{name}.A", w.a), (f"{name}.B", w.b)]
        else:
            out.append((name, w))
    return out


def from_parameters(config: FamilyConfig, params: dict[str, Tensor]) -> FamilialModel:
    """The model of `config` with each named Tensor in its slot: the inverse
    of `named_parameters`, and the one way in for every model that is not
    freshly initialised. A linear slot (in, out) may instead take a
    `{name}.B` (in, r) and `{name}.A` (r, out) pair. A parameter that is
    missing, misshapen, unpaired or fits no slot is an IntegrityError."""
    params, h = dict(params), config.hidden
    shapes = {**_block_shapes(config), **dict.fromkeys(BLOCK_NORMS + ("final_norm",), (h,)),
              "embedding": (config.vocab, h), "lm_proj": (h, config.vocab)}

    def empty() -> BlockWeights:
        return BlockWeights(**dict.fromkeys(BLOCK_MATRICES + BLOCK_NORMS))

    model = FamilialModel(config, None, [empty() for _ in range(config.n_layers)],
                          [ExitHead([empty() for _ in range(n)], None, None)
                           for n in config.branch_blocks])
    for name, owner, attr in weight_slots(model):
        shape = shapes[attr]
        if name in params:
            w = params.pop(name)
            if w.shape != shape:
                raise IntegrityError(f"{name} has shape {list(w.shape)}; "
                                     f"the config implies {list(shape)}")
        elif attr in LINEAR_SLOTS and {f"{name}.A", f"{name}.B"} <= params.keys():
            w = Factored(b=params.pop(f"{name}.B"), a=params.pop(f"{name}.A"))
            if len(w.b.shape) != 2 or w.b.shape[0] != shape[0] or \
                    w.a.shape != (w.b.shape[1], shape[1]):
                raise IntegrityError(
                    f"{name} factors have shapes {list(w.b.shape)} and {list(w.a.shape)}; "
                    f"the config implies [{shape[0]}, r] and [r, {shape[1]}]")
        else:
            raise IntegrityError(f"missing parameter {name!r}")
        setattr(owner, attr, w)
    if params:
        raise IntegrityError(f"parameters the config cannot place: {sorted(params)}")
    return model


def param_count(model: FamilialModel) -> int:
    """Exact integer count of the model's parameters."""
    return sum(p.data.size for _, p in named_parameters(model))


def set_freeze(model: FamilialModel, freeze_predicate: Callable[[str], bool]) -> dict[str, bool]:
    """Freeze the parameters whose names satisfy the predicate and unfreeze
    the rest, by clearing or setting their `requires_grad`: frozen subgraphs
    drop out of backward, and training gives them no moments. Returns the
    resulting `freeze_mask`.
    """
    for name, p in named_parameters(model):
        p.requires_grad = not freeze_predicate(name)
    return model.freeze_mask


def copy_model(model: FamilialModel) -> FamilialModel:
    """Copy sharing no array with `model`; gradients are dropped."""
    return from_parameters(model.config, {name: Tensor(p.data.copy(), p.requires_grad, p.dtype)
                                          for name, p in named_parameters(model)})


def extract_submodel(model: FamilialModel, branch: int) -> FamilialModel:
    """Standalone single-exit copy: backbone prefix plus the chosen head."""
    cfg = model.config
    if not 0 <= branch < cfg.n_branches:
        raise InputError(f"branch {branch} out of range")
    depth = cfg.exit_depths[branch]
    head = model.exits[branch]
    sub_cfg = replace(cfg, n_layers=depth, exit_depths=(depth,),
                      branch_blocks=(len(head.blocks),))
    sub = copy_model(FamilialModel(config=sub_cfg, embedding=model.embedding,
                                   backbone=model.backbone[:depth], exits=[head]))
    set_freeze(sub, lambda name: False)
    return sub


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def apply_linear(x, w: Weight, name: str,
                 tap: Callable[[str, np.ndarray], None] | None = None,
                 ops: ModuleType = tensor):
    if tap is not None:
        tap(name, x)
    if isinstance(w, Factored):
        return ops.matmul(ops.matmul(x, ops.param(w.b)), ops.param(w.a))
    return ops.matmul(x, ops.param(w))


def block_forward(block: BlockWeights, h, cfg: FamilyConfig,
                  cos: np.ndarray, sin: np.ndarray, allowed: np.ndarray, name: str = "",
                  tap: Callable[[str, np.ndarray], None] | None = None,
                  ops: ModuleType = tensor, kv=None):
    """One pre-norm decoder block: causal GQA attention then gated MLP.

    `h` holds residual rows (B, T, hidden) in the value type of `ops`:
    Tensors under `tensor`, arrays under `kernels`. Queries, keys and values
    stay token-major, (B, T, heads, head_dim), for the one attention op,
    which pads keys and values to the `ctx_len` columns of the (T, ctx_len)
    mask `allowed`: every call attends over one key extent, so it stays
    row-stable. `kv(k, v)`, when given, receives the rotated keys and values
    of these rows and returns the ones to attend over (cached decoding
    writes its cache and returns it whole). A `tap` sees each linear input
    under its slot's full name `{name}.{attribute}`; untapped, `apply_linear`
    gets the bare attribute, so no name is formatted per call.
    """
    b, t, _ = h.shape
    dh = cfg.head_dim
    if allowed.shape != (t, cfg.ctx_len):
        raise ShapeError(f"attention mask {allowed.shape} is not ({t}, {cfg.ctx_len})")
    cos, sin = cos[:, None], sin[:, None]  # broadcast over the heads
    prefix = "" if tap is None else f"{name}."

    a = ops.rmsnorm(h, ops.param(block.attn_norm), cfg.rms_eps)
    q, k, v = (ops.reshape(apply_linear(a, getattr(block, m), prefix + m, tap, ops),
                           (b, t, -1, dh)) for m in ("w_q", "w_k", "w_v"))
    q, k = ops.rope(q, cos, sin), ops.rope(k, cos, sin)
    if kv is not None:
        k, v = kv(k, v)
    ctx = ops.reshape(ops.attention(q, k, v, allowed, 1.0 / math.sqrt(dh)), (b, t, cfg.hidden))
    h = h + apply_linear(ctx, block.w_o, prefix + "w_o", tap, ops)

    m = ops.rmsnorm(h, ops.param(block.mlp_norm), cfg.rms_eps)
    gate = ops.silu(apply_linear(m, block.w_gate, prefix + "w_gate", tap, ops))
    up = apply_linear(m, block.w_up, prefix + "w_up", tap, ops)
    return h + apply_linear(gate * up, block.w_down, prefix + "w_down", tap, ops)


def head_logits(head: ExitHead, h, cfg: FamilyConfig, branch: int,
                tap: Callable[[str, np.ndarray], None] | None = None,
                ops: ModuleType = tensor):
    """Vocabulary logits of exit `branch` from the output of its blocks."""
    h = ops.rmsnorm(h, ops.param(head.final_norm), cfg.rms_eps)
    return apply_linear(h, head.lm_proj, f"exits.{branch}.lm_proj", tap, ops)


def forward_exits(model: FamilialModel, tokens, branches: list[int],
                  tap: Callable[[str, np.ndarray], None] | None = None,
                  on_block: Callable[[str, object, object], None] | None = None,
                  ops: ModuleType = tensor) -> list:
    """Logits of `branches` (strictly ascending) over a (B, T) token batch from one pass.

    The backbone runs only as deep as the deepest requested exit; each
    branch's blocks and head run off the residual stream tapped at its exit
    depth, so no block runs twice. Values are Tensors under `tensor` and
    arrays under `kernels`: `tap(name, x)` sees the input of every linear
    slot and `on_block(name, h_in, h_out)` every block application.
    """
    cfg = model.config
    for k in branches:
        if not 0 <= k < cfg.n_branches:
            raise InputError(f"branch {k} out of range")
    if not branches or any(a >= b for a, b in zip(branches, branches[1:])):
        raise InputError(f"branches must be nonempty, ascending and distinct, got {branches}")
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    t = tokens.shape[1]
    if t > cfg.ctx_len:
        raise InputError(f"sequence length {t} exceeds ctx_len {cfg.ctx_len}")
    cos, sin = rope_tables(np.arange(t), cfg.head_dim, cfg.rope_base,
                           dtype=model.embedding.data.dtype)
    allowed = causal_mask(t, cfg.ctx_len)

    def run(block: BlockWeights, h, name: str):
        out = block_forward(block, h, cfg, cos, sin, allowed, name=name, tap=tap, ops=ops)
        if on_block is not None:
            on_block(name, h, out)
        return out

    def exit_head(k: int, h):
        for j, block in enumerate(model.exits[k].blocks):
            h = run(block, h, f"exits.{k}.blocks.{j}")
        return head_logits(model.exits[k], h, cfg, k, tap, ops)

    h = ops.embedding(ops.param(model.embedding), tokens)
    outs = []
    for depth in range(cfg.exit_depths[branches[-1]] + 1):
        if depth:
            h = run(model.backbone[depth - 1], h, f"backbone.{depth - 1}")
        outs += [exit_head(k, h) for k in branches if cfg.exit_depths[k] == depth]
    return outs


def forward_branch(model: FamilialModel, tokens, branch: int) -> Tensor:
    """Logits (B, T, vocab) of one branch: backbone prefix plus its head."""
    return forward_exits(model, tokens, [branch])[0]


def forward_all_branches(model: FamilialModel, tokens) -> list[Tensor]:
    """All branch logits from exactly one backbone pass (hidden states are
    tapped at each exit depth, never recomputed)."""
    return forward_exits(model, tokens, list(range(model.config.n_branches)))
