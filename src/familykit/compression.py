"""Post-training low-rank decomposition with activation whitening.

A calibration pass accumulates per-matrix input Gram matrices; each target
matrix W is decomposed once, by SVD of W @ F, where F is a whitening
factor with F @ F.T equal to the Gram (Cholesky when definite, symmetric
SVD otherwise; both, like F^-1, from numpy's LAPACK). Truncating in the
whitened basis minimizes the activation reconstruction error
||W X - W' X||_F rather than plain weight error, and that error at rank r
is the tail of the whitened singular values, sqrt(sum_{i>r} s_i^2). The
one decomposition gives both a matrix's truncation loss L_min and its
factor pair at whatever rank the plan settles on.

Per-matrix removal ratios are distributed within a group proportionally to
one score per matrix, `inverted_log_score(L_min)`, then integer ranks are
nudged until the achieved parameter removal lands within 2% of target.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, parallel
from .errors import ConfigError, DefinitenessError, IntegrityError, NumericError
from .evaluation import branch_perplexity
from .linalg import cholesky_array, svd_array
from .model import (LINEAR_SLOTS, FamilialModel, copy_model, forward_exits, from_parameters,
                    named_parameters, param_count, weight_slots)
from .tensor import Tensor

log = logging.getLogger(__name__)

RIDGE_FACTOR = 1e-6
SVD_CLAMP = 1e-8
RATIO_BOUNDS = (0.05, 0.95)
BUDGET_TOLERANCE = 0.02
SCORE_CLAMP = 1.0 + 1e-6


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

CALIB_CHUNK = 8  # windows whose Gram products are summed as one; divides parallel.MIN_GROUP


def gram(x: np.ndarray) -> np.ndarray:
    """x x^T summed over the positions of x (..., width), in binary64."""
    x2d = x.reshape(-1, x.shape[-1]).astype(np.float64)
    return x2d.T @ x2d


def capture_activations(model: FamilialModel, calib_tokens: np.ndarray,
                        scope) -> dict[str, np.ndarray]:
    """Input Gram of every matrix selected by `scope`, by name, over
    calibration forward passes (fixed order, no graph) of the branches that
    reach them: k for `exits.k.*`, the final branch for the backbone.

    Each Gram is the sum, from -0.0 and in window order, of one product per
    `CALIB_CHUNK` windows. A batch of `MIN_GROUP` windows per usable CPU is
    split into one group of whole chunks per CPU (`familykit.parallel`),
    each run in one forward that is row-stable, so the split changes no bit.
    Each group returns its chunk products (`MIN_GROUP // CALIB_CHUNK` per
    tapped array), and they are added group by group in window order."""
    calib_tokens = np.asarray(calib_tokens, dtype=np.int64)
    if calib_tokens.ndim == 1:
        calib_tokens = calib_tokens[None, :]
    if calib_tokens.size == 0:
        raise ConfigError("calibration set is empty")
    final = model.config.n_branches - 1
    branches = sorted({int(name.split(".")[1]) if name.startswith("exits.") else final
                       for name, _, attr in weight_slots(model)
                       if attr in LINEAR_SLOTS and scope(name)})
    if not branches:
        raise ConfigError("scope selected no matrices during calibration")

    def chunk_products(batch: np.ndarray) -> dict[str, list[np.ndarray]]:
        """Each tapped matrix's products, one per chunk of `batch`, in tap order."""
        products, last = {}, (None, [])

        def tap(name: str, x: np.ndarray) -> None:
            nonlocal last
            if scope(name):
                # w_q, w_k and w_v read one array in a forward, and so do
                # w_gate and w_up: each chunk of such an array makes one product
                if x is not last[0]:
                    last = x, [gram(x[i:i + CALIB_CHUNK]) for i in range(0, len(x), CALIB_CHUNK)]
                products[name] = last[1]

        forward_exits(model, batch, branches, tap=tap, ops=kernels)
        return products

    grams: dict[str, np.ndarray] = {}
    step = parallel.MIN_GROUP * parallel.usable_cpus()
    for start in range(0, calib_tokens.shape[0], step):
        batch = calib_tokens[start:start + step]
        for group in parallel.map_groups(lambda a, b: chunk_products(batch[a:b]),
                                         len(batch), CALIB_CHUNK):
            for name, chunks in group.items():
                for product in chunks:
                    # -0.0 is the exact additive identity, so a first Gram keeps its bits
                    grams[name] = grams.get(name, -0.0) + product
    return grams


def ridged(gram: np.ndarray) -> np.ndarray:
    """Add the standard diagonal ridge: 1e-6 * trace / dim."""
    dim = gram.shape[0]
    return gram + (RIDGE_FACTOR * np.trace(gram) / dim) * np.eye(dim)


# ---------------------------------------------------------------------------
# whitening and decomposition
# ---------------------------------------------------------------------------

@dataclass
class WhitenFactors:
    factor: np.ndarray   # F with F @ F.T == gram
    inverse: np.ndarray  # F^-1
    path: str            # "cholesky" or "svd"


def whiten(gram: np.ndarray) -> WhitenFactors:
    """Whitening factor of a symmetric Gram matrix.

    Primary path is Cholesky (F = L, inverse by LAPACK `inv`); on a
    non-positive-definite pivot it falls back to the symmetric SVD path
    F = U_s sqrt(S_s), whose inverse clamps singular values below
    1e-8 * max before inverting.
    """
    gram = np.asarray(gram, dtype=np.float64)
    try:
        lower = cholesky_array(gram)
        return WhitenFactors(factor=lower, inverse=np.linalg.inv(lower), path="cholesky")
    except DefinitenessError:
        log.info("gram not positive definite; falling back to SVD whitening")
    u_s, s_s, _ = svd_array(gram)
    s_clamped = np.maximum(s_s, SVD_CLAMP * (s_s[0] if s_s[0] > 0 else 1.0))
    root = np.sqrt(s_clamped)
    factor = u_s * root[None, :]
    inverse = (1.0 / root)[:, None] * u_s.T
    return WhitenFactors(factor=factor, inverse=inverse, path="svd")


def rank_for_ratio(out_dim: int, in_dim: int, ratio: float) -> int:
    """Rank whose factored size (out+in)*r fits the (1-ratio) budget, >= 1."""
    r = int(math.floor((1.0 - ratio) * out_dim * in_dim / (out_dim + in_dim)))
    if r < 1:
        log.warning("ratio %.3f leaves no rank for %dx%d; clamping to 1", ratio, out_dim, in_dim)
        r = 1
    return min(r, min(out_dim, in_dim))


@dataclass
class Decomposition:
    """Whitened SVD of W (out x in): W @ F == u @ diag(s) @ vt, with F^-1."""

    u: np.ndarray
    s: np.ndarray        # nonincreasing
    vt: np.ndarray
    inverse: np.ndarray  # F^-1

    def factors(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) with A (out x r), B (r x in) and A @ B the rank-r minimizer
        of ||W X - W' X||_F; r is clamped to [1, min(out, in)]."""
        rank = max(1, min(int(rank), len(self.s)))
        root = np.sqrt(self.s[:rank])
        a = self.u[:, :rank] * root[None, :]
        b = (root[:, None] * self.vt[:rank, :]) @ self.inverse
        return a, b


def decompose(w: np.ndarray, gram: np.ndarray | WhitenFactors) -> Decomposition:
    """One whitening (none if `gram` is given as its factors) and one SVD;
    every rank's factors and loss are read off it."""
    wf = gram if isinstance(gram, WhitenFactors) else whiten(gram)
    u, s, vt = svd_array(np.asarray(w, dtype=np.float64) @ wf.factor)
    return Decomposition(u=u, s=s, vt=vt, inverse=wf.inverse)


def truncation_loss(decomposition: Decomposition, rank: int) -> float:
    """||W X - W' X||_F at the given retained rank: the whitened singular
    values past `rank`, sqrt(sum_{i>r} s_i^2), since (W - W') F is their part
    of the SVD. On the SVD whitening path F @ F.T exceeds the Gram by the
    clamp alone, so the tail exceeds the loss by at most that much."""
    return math.sqrt(float(np.sum(decomposition.s[rank:] ** 2)))


# ---------------------------------------------------------------------------
# ratio allocation (grouped, inverted-log scores)
# ---------------------------------------------------------------------------

def inverted_log_score(l_min: float) -> float:
    """The paper's allocation score 1 / log(L_min), with L_min clamped to
    just above 1 so that the score stays finite and positive."""
    return 1.0 / math.log(max(l_min, SCORE_CLAMP))


def allocate_ratios(groups: dict[str, dict[str, float]],
                    target_ratio: float) -> dict[str, float]:
    """Per-matrix removal ratio from {group id: {matrix: score}}:
    len(G) * R * s_i / sum(s), clamped to [0.05, 0.95]. The unclamped group
    mean equals R exactly."""
    if not 0.0 < target_ratio < 1.0:
        raise ConfigError("target ratio must be in (0, 1)")
    lo, hi = RATIO_BOUNDS
    out: dict[str, float] = {}
    for group_id, scores in groups.items():
        if any(not np.isfinite(s) or s <= 0 for s in scores.values()):
            raise NumericError(f"group {group_id} has degenerate scores")
        total = math.fsum(scores.values())
        # evaluation order makes the symmetric case exact: len * s / total
        # is exactly 1.0 when every score is equal
        raw = {m: len(scores) * s / total * target_ratio for m, s in scores.items()}
        clamped = {m: min(max(r, lo), hi) for m, r in raw.items()}
        if all(clamped[m] != raw[m] for m in scores):
            log.warning("group %s: every ratio clamped; using uniform %.3f",
                        group_id, target_ratio)
            clamped = {m: target_ratio for m in scores}
        out.update(clamped)
    return out


# ---------------------------------------------------------------------------
# plan construction and application
# ---------------------------------------------------------------------------

@dataclass
class PlanEntry:
    name: str
    l_min: float
    score: float
    ratio: float
    rank: int
    params_before: int
    params_after: int

    def to_dict(self) -> dict:
        return {"name": self.name, "L_min": self.l_min, "score": self.score,
                "ratio": self.ratio, "rank": self.rank,
                "params_before": self.params_before, "params_after": self.params_after}


@dataclass
class CompressionPlan:
    target_ratio: float
    entries: list[PlanEntry]
    factors: dict[str, tuple[np.ndarray, np.ndarray]]  # name -> (A, B), math layout
    params_before: int
    params_after: int

    @property
    def achieved_ratio(self) -> float:
        return 1.0 - self.params_after / self.params_before

    def to_dict(self) -> dict:
        return {"target_ratio": self.target_ratio,
                "achieved_ratio": self.achieved_ratio,
                "params_before": self.params_before,
                "params_after": self.params_after,
                "matrices": [e.to_dict() for e in self.entries]}


def group_of(name: str) -> str:
    """One group per decoder block, backbone or branch, and one shared group
    for the vocabulary heads."""
    return "heads" if name.endswith(".lm_proj") else name.rsplit(".", 1)[0]


def build_plan(model: FamilialModel, grams: dict[str, np.ndarray],
               target_ratio: float) -> CompressionPlan:
    """Eq-driven per-matrix ratios from the input Grams by matrix name, floor
    ranks, then a rank repair pass so the achieved removal over the scope
    lands within 2% of target."""
    names = sorted(grams)
    params = dict(named_parameters(model))
    factored = [n for n in names if n not in params]
    if factored:  # a factored slot cannot be planned again
        raise ConfigError(f"{factored} are already factored")
    weights = {n: params[n].data.T.astype(np.float64) for n in names}  # W (out x in)
    dims = {n: weights[n].shape for n in names}
    # matrices that read one input have equal Grams: each is whitened once
    whitened: dict[bytes, WhitenFactors] = {}
    decomps = {}
    for n in names:
        gram = ridged(grams[n])
        key = gram.tobytes()
        if key not in whitened:
            whitened[key] = whiten(gram)
        decomps[n] = decompose(weights[n], whitened[key])
    losses = {n: truncation_loss(decomps[n], rank_for_ratio(*dims[n], target_ratio))
              for n in names}
    scores = {n: inverted_log_score(losses[n]) for n in names}
    groups: dict[str, dict[str, float]] = {}
    for n in names:
        groups.setdefault(group_of(n), {})[n] = scores[n]
    ratios = allocate_ratios(groups, target_ratio)

    ranks = {n: rank_for_ratio(dims[n][0], dims[n][1], ratios[n]) for n in names}
    before = sum(dims[n][0] * dims[n][1] for n in names)
    target_after = (1.0 - target_ratio) * before

    def after(rk: dict[str, int]) -> int:
        return sum((dims[n][0] + dims[n][1]) * rk[n] for n in names)

    # integer rank repair: floor rounding alone can overshoot the removal
    # target by more than 2% at small sizes
    while True:
        err = after(ranks) - target_after
        best = None
        for n in names:
            for delta in (-1, 1):
                r = ranks[n] + delta
                if not 1 <= r <= min(dims[n]):
                    continue
                new_err = err + delta * (dims[n][0] + dims[n][1])
                if abs(new_err) < abs(err) - 1e-9:
                    if best is None or abs(new_err) < abs(best[2]):
                        best = (n, delta, new_err)
        if best is None:
            break
        ranks[best[0]] += best[1]

    entries = []
    factors = {}
    for n in names:
        out_dim, in_dim = dims[n]
        a, b = decomps[n].factors(ranks[n])
        factors[n] = (a.astype(np.float32), b.astype(np.float32))
        entries.append(PlanEntry(
            name=n, l_min=losses[n], score=scores[n], ratio=ratios[n],
            rank=ranks[n], params_before=out_dim * in_dim,
            params_after=(out_dim + in_dim) * ranks[n]))

    plan = CompressionPlan(target_ratio=target_ratio, entries=entries, factors=factors,
                           params_before=before, params_after=after(ranks))
    if abs(plan.achieved_ratio - target_ratio) > BUDGET_TOLERANCE:
        raise NumericError(
            f"achieved removal {plan.achieved_ratio:.4f} misses target "
            f"{target_ratio:.4f} by more than {BUDGET_TOLERANCE:.0%}")
    return plan


def apply_compression(model: FamilialModel, plan: CompressionPlan) -> FamilialModel:
    """A copy of the model with each planned matrix replaced by its factor
    pair; every parameter outside the plan is untouched bit for bit."""
    params = dict(named_parameters(copy_model(model)))
    for entry in plan.entries:
        if params.pop(entry.name, None) is None:
            raise IntegrityError(f"plan names {entry.name!r}; the model holds no dense "
                                 "matrix of that name (absent or already factored)")
        a, b = (Tensor(np.ascontiguousarray(f.T), requires_grad=True)
                for f in plan.factors[entry.name])
        if a.shape[:1] != (entry.rank,) or b.shape[1:] != (entry.rank,):
            raise IntegrityError(f"plan factors for {entry.name} do not have rank {entry.rank}")
        params[f"{entry.name}.A"], params[f"{entry.name}.B"] = a, b
    return from_parameters(model.config, params)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class CompressionReport:
    branch: int
    ppl_base: float
    ppl_compressed: float
    params_base: int
    params_compressed: int
    plan: CompressionPlan

    @property
    def ppl_delta(self) -> float:
        return self.ppl_compressed - self.ppl_base

    def csv_rows(self) -> list[str]:
        rows = ["metric,value",
                f"branch,{self.branch}",
                f"ppl_base,{self.ppl_base:.9g}",
                f"ppl_compressed,{self.ppl_compressed:.9g}",
                f"ppl_delta,{self.ppl_delta:.9g}",
                f"params_base,{self.params_base}",
                f"params_compressed,{self.params_compressed}"]
        rows.append("matrix,L_min")
        for e in self.plan.entries:
            rows.append(f"{e.name},{e.l_min:.9g}")
        return rows

    def summary(self) -> str:
        return (f"branch {self.branch}: perplexity {self.ppl_base:.4f} -> "
                f"{self.ppl_compressed:.4f} (delta {self.ppl_delta:+.4f}), "
                f"params {self.params_base} -> {self.params_compressed} "
                f"({self.plan.achieved_ratio:.1%} of scope removed)")


def measure_compression(base: FamilialModel, compressed: FamilialModel,
                        eval_tokens: np.ndarray, branch: int,
                        plan: CompressionPlan) -> CompressionReport:
    if base.config.vocab != compressed.config.vocab:
        raise ConfigError("models have different vocabularies")
    return CompressionReport(
        branch=branch,
        ppl_base=branch_perplexity(base, eval_tokens, branch),
        ppl_compressed=branch_perplexity(compressed, eval_tokens, branch),
        params_base=param_count(base)["total"],
        params_compressed=param_count(compressed)["total"],
        plan=plan,
    )
