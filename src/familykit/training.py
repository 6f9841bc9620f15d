"""Joint optimization of all branches: weighted loss aggregation,
warmup-cosine learning rate, AdamW with moments for trainable parameters
(`requires_grad` set) only.

The total objective is a weighted sum of per-branch causal LM losses; the
final branch always carries weight 1.0 while auxiliary branch weights
follow a decay schedule so early deep supervision fades before the main
branch converges.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .data import PAD, WindowSampler
from .errors import ConfigError, DivergenceError
from .model import FamilialModel, finite, forward_all_branches, named_parameters
from .tensor import IGNORE_INDEX, Tensor, add, backward, cross_entropy, scale

log = logging.getLogger(__name__)

LAMBDA_KINDS = ("constant", "linear_decay", "cosine_decay")


@dataclass(frozen=True)
class LambdaSchedule:
    """Time-dependent branch-loss weights; the main branch stays at 1.0."""

    kind: str
    initial: tuple[float, ...]
    final: tuple[float, ...]
    total_steps: int

    def __post_init__(self):
        if not finite(*self.initial, *self.final):
            raise ConfigError("branch weights must be finite")
        object.__setattr__(self, "initial", tuple(float(x) for x in self.initial))
        object.__setattr__(self, "final", tuple(float(x) for x in self.final))
        if self.kind == "constant" and self.final != self.initial:
            raise ConfigError("a constant schedule's final weights must equal its initial ones")
        if self.kind not in LAMBDA_KINDS:
            raise ConfigError(f"unknown lambda schedule kind {self.kind!r}")
        if len(self.initial) != len(self.final):
            raise ConfigError("initial and final weights must have equal length")
        if not self.initial:
            raise ConfigError("schedule needs at least one branch")
        if any(w < 0 for w in self.initial + self.final):
            raise ConfigError("branch weights must be nonnegative")
        if self.initial[-1] != 1.0 or self.final[-1] != 1.0:
            raise ConfigError("final-branch weight must be constant at 1.0")
        if self.kind != "constant":
            for k, (a, b) in enumerate(zip(self.initial[:-1], self.final[:-1])):
                if b > a:
                    raise ConfigError(f"auxiliary branch {k} weight must not increase")
        if self.total_steps < 0:
            raise ConfigError("total_steps must be >= 0")

    @classmethod
    def default(cls, n_branches: int, total_steps: int) -> "LambdaSchedule":
        """Auxiliary branches decay linearly 1.0 -> 0.1; main branch fixed."""
        return cls(kind="linear_decay",
                   initial=(1.0,) * n_branches,
                   final=(0.1,) * (n_branches - 1) + (1.0,),
                   total_steps=total_steps)

    @classmethod
    def branch_only(cls, n_branches: int, branch: int, total_steps: int) -> "LambdaSchedule":
        """Weight on one branch only, apart from the mandatory main-branch 1.0.

        Used for expansion training: with the backbone and all other heads
        frozen, the main-branch term contributes nothing to backward, so this
        is the standard autoregressive objective on the target branch.
        """
        w = [0.0] * n_branches
        w[branch] = 1.0
        w[-1] = 1.0
        return cls(kind="constant", initial=tuple(w), final=tuple(w),
                   total_steps=total_steps)


def lambda_at(schedule: LambdaSchedule, step: int) -> list[float]:
    """Branch weights at a step; steps past total_steps clamp to the final values."""
    if step < 0:
        raise ConfigError("step must be >= 0")
    t = min(step, schedule.total_steps)
    frac = (t / schedule.total_steps) if schedule.total_steps > 0 else 1.0
    if schedule.kind == "constant":
        return list(schedule.initial)
    if schedule.kind == "linear_decay":
        return [a + (b - a) * frac for a, b in zip(schedule.initial, schedule.final)]
    # cosine_decay
    w = 0.5 * (1.0 + math.cos(math.pi * frac))
    return [b + (a - b) * w for a, b in zip(schedule.initial, schedule.final)]


@dataclass(frozen=True)
class TrainConfig:
    peak_lr: float
    warmup_steps: int
    total_steps: int
    batch: int
    seq_len: int
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.95
    adam_eps: float = 1e-8
    grad_clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not finite(self.peak_lr, self.weight_decay, self.beta1, self.beta2,
                      self.adam_eps, self.grad_clip_norm):
            raise ConfigError("peak_lr, weight_decay, betas, adam_eps and grad_clip_norm "
                              "must be finite")
        if self.peak_lr <= 0 or self.adam_eps <= 0:
            raise ConfigError("peak_lr and adam_eps must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        if self.weight_decay < 0 or self.grad_clip_norm < 0:
            raise ConfigError("weight_decay and grad_clip_norm must be >= 0 "
                              "(a clip norm of 0 means no clipping)")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ConfigError("warmup_steps must lie in [0, total_steps]")
        if self.batch < 1 or self.seq_len < 2:
            raise ConfigError("batch must be >= 1 and seq_len >= 2")


def lr_at(config: TrainConfig, step: int) -> float:
    """Linear 0 -> peak over warmup, then cosine peak -> 0.1 * peak."""
    if step < 0:
        raise ConfigError("step must be >= 0")
    if step < config.warmup_steps:
        return config.peak_lr * step / config.warmup_steps
    span = max(1, config.total_steps - config.warmup_steps)
    progress = min(1.0, (step - config.warmup_steps) / span)
    return config.peak_lr * (0.1 + 0.9 * 0.5 * (1.0 + math.cos(math.pi * progress)))


def joint_loss(branch_losses, weights) -> Tensor:
    """Weighted sum of branch losses, accumulated in binary64.

    Zero-weight branches are left out of the graph so backward never
    traverses them; their contribution to the value is exactly 0.0.
    """
    if len(branch_losses) != len(weights):
        raise ConfigError("branch_losses and weights must have equal length")
    if any(w < 0 for w in weights):
        raise ConfigError("weights must be nonnegative")
    terms = []
    for loss_k, w in zip(branch_losses, weights):
        if w == 0.0:
            continue
        if not isinstance(loss_k, Tensor):
            loss_k = Tensor(loss_k, dtype=np.float64)
        elif loss_k.data.dtype != np.float64:
            raise ConfigError("branch losses must be binary64 scalars")
        terms.append(scale(loss_k, float(w)))
    if not terms:
        return Tensor(0.0, dtype=np.float64)
    return reduce(add, terms)


@dataclass
class StepMetrics:
    step: int
    branch_losses: list[float]
    lambdas: list[float]
    lr: float
    grad_norm: float
    all_frozen: bool = False


@dataclass
class TrainState:
    model: FamilialModel
    config: TrainConfig
    schedule: LambdaSchedule
    step: int = 0
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    metrics: list[StepMetrics] = field(default_factory=list)


def targets_for(batch: np.ndarray) -> np.ndarray:
    """Next-token targets: final position ignored, padding ignored."""
    targets = np.full_like(batch, IGNORE_INDEX)
    targets[:, :-1] = batch[:, 1:]
    targets[targets == PAD] = IGNORE_INDEX
    return targets


def train_step(state: TrainState, batch: np.ndarray) -> StepMetrics:
    """One joint step: forward all branches, Eq-style weighted loss,
    backward, global-norm clip, AdamW on unfrozen parameters."""
    model, cfg = state.model, state.config
    # AdamW moments (m, v) exist exactly for the parameters with requires_grad
    # set: a pair already held is kept, a new one starts at zeros
    trainable = [(n, p) for n, p in named_parameters(model) if p.requires_grad]
    state.moments = {n: state.moments.get(n) or (np.zeros_like(p.data), np.zeros_like(p.data))
                     for n, p in trainable}
    lambdas = lambda_at(state.schedule, state.step)

    logits = forward_all_branches(model, batch)
    targets = targets_for(batch)
    losses = [cross_entropy(lg, targets) for lg in logits]
    total = joint_loss(losses, lambdas)
    loss_values = [float(l.data) for l in losses]
    if not all(np.isfinite(loss_values)) or not np.isfinite(float(total.data)):
        raise DivergenceError(f"non-finite loss at step {state.step}: {loss_values}")

    lr = lr_at(cfg, state.step)
    grad_norm = 0.0
    all_frozen = not trainable
    if all_frozen:
        log.warning("train_step at step %d with every parameter frozen", state.step)
    elif total.requires_grad:
        backward(total)
        sq = 0.0
        for _, p in trainable:
            if p.grad is not None:
                sq += float(np.sum(np.square(p.grad.astype(np.float64))))
        grad_norm = math.sqrt(sq)
        clip = cfg.grad_clip_norm
        factor = clip / grad_norm if (clip > 0 and grad_norm > clip) else 1.0
        t = state.step + 1
        bc1 = 1.0 - cfg.beta1 ** t
        bc2 = 1.0 - cfg.beta2 ** t
        for name, p in trainable:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if factor != 1.0:
                g = g * np.float32(factor)
            m, v = state.moments[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)
            if cfg.weight_decay and p.data.ndim >= 2:  # decay matrices, not norm gains
                update = update + cfg.weight_decay * p.data
            p.data -= np.float32(lr) * update
        for _, p in trainable:
            p.grad = None

    metrics = StepMetrics(step=state.step, branch_losses=loss_values,
                          lambdas=list(lambdas), lr=lr, grad_norm=grad_norm,
                          all_frozen=all_frozen)
    state.metrics.append(metrics)
    state.step += 1
    return metrics


METRICS_HEADER = "step,branch,loss,lambda,lr,grad_norm"


def metrics_rows(metrics: list[StepMetrics], arm: str | None = None) -> list[str]:
    rows = []
    for m in metrics:
        for k, (loss_k, lam) in enumerate(zip(m.branch_losses, m.lambdas)):
            row = f"{m.step},{k},{loss_k:.9g},{lam:.9g},{m.lr:.9g},{m.grad_norm:.9g}"
            if arm is not None:
                row += f",{arm}"
            rows.append(row)
    return rows


def metrics_csv(runs: list[StepMetrics] | dict[str, list[StepMetrics]]) -> str:
    """CSV text of one run's metrics, or of several runs keyed by arm under
    one header that adds an `arm` column."""
    arms = runs if isinstance(runs, dict) else {None: runs}
    header = METRICS_HEADER + (",arm" if isinstance(runs, dict) else "")
    rows = [row for arm, metrics in arms.items() for row in metrics_rows(metrics, arm)]
    return "".join(f"{line}\n" for line in [header, *rows])


def run_training(model: FamilialModel, corpus_ids: np.ndarray, config: TrainConfig,
                 schedule: LambdaSchedule, resume: tuple[int, dict] | None = None,
                 log_every: int = 100, until: int | None = None) -> TrainState:
    """Drive train_step from the deterministic window sampler until
    config.total_steps (or `until`, for interrupting a run that will be
    resumed); resuming from a checkpoint's `(step, moments)` continues the
    exact uninterrupted trajectory."""
    step, moments = resume or (0, {})
    state = TrainState(model=model, config=config, schedule=schedule, step=step,
                       moments=moments)
    sampler = WindowSampler(corpus_ids, config.seq_len, config.batch, config.seed)
    stop = config.total_steps if until is None else min(until, config.total_steps)
    while state.step < stop:
        metrics = train_step(state, sampler.batch_at(state.step))
        if log_every and metrics.step % log_every == 0:
            log.info("step %d losses %s lr %.3g", metrics.step,
                     [f"{x:.4f}" for x in metrics.branch_losses], metrics.lr)
    return state
