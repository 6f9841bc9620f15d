"""The three workloads and their correctness checks.

Each workload is a closed loop with one caller in one process: the next
operation starts only after the previous one returns. It repeats a round
of fixed work (fixed by the seed) until its time is up.

On a shared host the same work runs up to twice as slow for seconds to
minutes at a time, in CPU time as much as in wall time. So a small
reference probe (fixed numpy and Python work, no familykit code) runs
between the operations of every round, and the round's times are
divided by its host-speed factor: the round's median probe time over
PROBE_NOMINAL_S. Times are therefore reported at one reference host
speed; the raw ones go to the result record. Medians are then taken per
recurring operation over rounds, and totals and medians over operations.

Every check counts as one operation attempted; a failed check or an
exception counts as one failed.
"""

from __future__ import annotations

import math
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from familykit import (compression, data, evaluation, expansion, inference,
                       model as fk_model, training)

import inputs
import tracing

BATCH, SEQ = 8, 64            # desk training shapes
TRAJECTORY_STEPS = 15         # train: steps from a seeded init per round
EXPANSION_STEPS = 10          # grow: frozen-backbone steps per cycle
EXPANDED_BRANCH, NEW_BLOCKS, RATIO = 0, 3, 0.4
TTFT_REPEATS = 4
POLICIES = {
    "tau0": inference.ExitPolicy(threshold=0.0),
    "tau0.5": inference.ExitPolicy(threshold=0.5),
    "tau_max": inference.ExitPolicy(threshold=1.5),
    "tau0.5_eager": inference.ExitPolicy(threshold=0.5, backfill="always"),
}
FULL_PREFIX_SAMPLE = 4        # serve prompts re-checked against a full-prefix forward


class Checks:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def error(self, what: str) -> None:
        """Count the exception being handled as a failed operation."""
        traceback.print_exc()
        self.check(False, f"{what}: exception")


_PROBE_A = np.random.default_rng(0).standard_normal((256, 32)).astype(np.float32)
_PROBE_B = np.random.default_rng(1).standard_normal((32, 128)).astype(np.float32)
PROBE_NOMINAL_S = 2.5e-3    # probe time at the reference host speed


def reference_probe() -> float:
    """Seconds for a fixed mix of small einsums and interpreter work."""
    t0 = perf_counter()
    for _ in range(8):
        np.einsum("ij,jk->ik", _PROBE_A, _PROBE_B)
    acc = 0
    for i in range(6000):
        acc += i * i
    return perf_counter() - t0


class HostSpeed:
    """Reference probes of the current round and the factors of past rounds."""

    def __init__(self):
        self.probes: list[float] = []
        self.factors: list[float] = []

    def probe(self) -> None:
        self.probes.append(reference_probe())

    def close_round(self, *timings: "Timings") -> None:
        factor = statistics.median(self.probes) / PROBE_NOMINAL_S
        self.probes.clear()
        self.factors.append(factor)
        for t in timings:
            t.close_round(factor)


class Timings:
    """Times of recurring operations, at the reference host speed."""

    def __init__(self):
        self.raw: list[float] = []
        self.per_op: dict = {}
        self._pending: list = []

    def add(self, key, seconds: float) -> None:
        self.raw.append(seconds)
        self._pending.append((key, seconds))

    def close_round(self, factor: float) -> None:
        for key, seconds in self._pending:
            self.per_op.setdefault(key, []).append(seconds / factor)
        self._pending.clear()

    def typical(self) -> dict:
        """Each operation's median over rounds."""
        return {k: statistics.median(v) for k, v in self.per_op.items()}

    def total(self, keys=None) -> float:
        typical = self.typical()
        return math.fsum(typical[k] for k in (typical if keys is None else keys))


@dataclass
class Segment:
    """What one timed segment of a workload measured."""

    tok_per_s: float            # tokens of one round / its total typical time
    latency: Timings            # the operations behind latency_ms.p50
    stage_s: float              # typical time of the workload's stage
    loss_nats: float
    rounds: int
    units: int                  # requests served: steps, cycles or prompts
    host_factor: float          # median host-speed factor over rounds
    policy_rates: dict[str, float] = field(default_factory=dict)


def run_rounds(seconds: float, min_rounds: int, body, checks: Checks, what: str) -> int:
    """Run `body(round)` until `seconds` would be exceeded by one more round
    of median length; at least `min_rounds` rounds. Returns rounds done."""
    start = perf_counter()
    durations: list[float] = []
    while (len(durations) < min_rounds
           or perf_counter() - start + statistics.median(durations) <= seconds):
        t0 = perf_counter()
        try:
            body(len(durations))
        except Exception:   # counted and reported; the run still prints its result
            checks.error(f"{what} round {len(durations)}")
            break
        durations.append(perf_counter() - t0)
    return len(durations)


def _count_params(model, rec) -> None:
    params = fk_model.named_parameters(model)
    rec.add("training.total_params", sum(p.data.size for _, p in params))
    rec.add("training.trainable_params", sum(p.data.size for n, p in params
                                             if not model.freeze_mask.get(n, False)))


def _check_finite(m: training.StepMetrics, what: str, checks: Checks) -> None:
    checks.check(all(math.isfinite(x) for x in m.branch_losses),
                 f"{what} step {m.step}: non-finite loss {m.branch_losses}")


def train(setup: inputs.SetUp, seconds: float, rec, checks: Checks,
          min_rounds: int = 3) -> Segment:
    """Joint training from a seeded init: rounds of TRAJECTORY_STEPS steps."""
    inp = setup.inputs
    cfg = fk_model.desk_config()
    tcfg = training.TrainConfig(peak_lr=3e-3, warmup_steps=5, total_steps=TRAJECTORY_STEPS,
                                batch=BATCH, seq_len=SEQ, seed=inp.seed)
    schedule = training.LambdaSchedule.default(cfg.n_branches, TRAJECTORY_STEPS)
    sampler = data.WindowSampler(inp.corpus, SEQ, BATCH, inp.seed)
    steps, trajectory, host = Timings(), Timings(), HostSpeed()
    finals: list[float] = []

    def one_round(r: int) -> None:
        host.probe()
        t_start = perf_counter()
        model = fk_model.init_model(cfg, inp.seed)
        state = training.TrainState(model=model, config=tcfg, schedule=schedule)
        joint = []
        for step in range(TRAJECTORY_STEPS):
            rec.rid = r * TRAJECTORY_STEPS + step
            host.probe()
            t0 = perf_counter()
            m = training.train_step(state, sampler.batch_at(step))
            steps.add(step, perf_counter() - t0)
            joint.append(sum(w * loss for w, loss in zip(m.lambdas, m.branch_losses)))
            _check_finite(m, "train", checks)
        trajectory.add("trajectory", perf_counter() - t_start)
        host.close_round(steps, trajectory)
        checks.check(joint[-1] < joint[0], f"train: final loss {joint[-1]} not below "
                                           f"step-0 loss {joint[0]}")
        if finals:
            checks.check(joint[-1] == finals[0], "train: final loss differs between rounds")
        finals.append(joint[-1])
        _count_params(model, rec)

    rounds = run_rounds(seconds, min_rounds, one_round, checks, "train")
    return Segment(tok_per_s=BATCH * SEQ * TRAJECTORY_STEPS / steps.total(), latency=steps,
                   stage_s=trajectory.total(), loss_nats=finals[0], rounds=rounds,
                   units=len(steps.raw), host_factor=statistics.median(host.factors))


def _uniform_groups(plan) -> int:
    groups: dict[str, list[float]] = {}
    for e in plan.entries:
        groups.setdefault(compression.group_of(e.name), []).append(e.ratio)
    return sum(all(r == plan.target_ratio for r in ratios) for ratios in groups.values())


def grow(setup: inputs.SetUp, seconds: float, rec, checks: Checks,
         min_rounds: int = 4) -> Segment:
    """Cycles of expand -> frozen-backbone steps -> compress -> perplexity."""
    inp = setup.inputs
    warm = setup.model
    warm_params = inputs.param_bytes(warm)
    spec = expansion.ExpansionSpec(target_branch=EXPANDED_BRANCH, n_new_blocks=NEW_BLOCKS,
                                   seed=inp.seed)
    probe = inp.eval_ids[:4 * 16].reshape(4, 16)
    blocks = warm.config.branch_blocks[EXPANDED_BRANCH]
    scope = {f"exits.{EXPANDED_BRANCH}.blocks.{j}.{m}"
             for j in range(blocks, blocks + NEW_BLOCKS) for m in fk_model.BLOCK_MATRICES}
    scope.add(f"exits.{EXPANDED_BRANCH}.lm_proj")
    tcfg = training.TrainConfig(peak_lr=1e-3, warmup_steps=5, total_steps=EXPANSION_STEPS,
                                batch=BATCH, seq_len=SEQ, seed=inp.seed)
    sampler = data.WindowSampler(inp.corpus, SEQ, BATCH, inp.seed)
    steps, compress, host = Timings(), Timings(), HostSpeed()
    nll: list[float] = []

    def cycle(r: int) -> None:
        rec.rid = r
        grown, _ = expansion.expand(warm, spec)
        deviation = expansion.verify_identity(warm, grown, probe, EXPANDED_BRANCH)
        checks.check(deviation == 0.0, f"grow: identity deviation {deviation} at init")
        schedule = training.LambdaSchedule.branch_only(grown.config.n_branches,
                                                       EXPANDED_BRANCH, EXPANSION_STEPS)
        state = training.TrainState(model=grown, config=tcfg, schedule=schedule)
        for step in range(EXPANSION_STEPS):
            host.probe()
            t0 = perf_counter()
            m = training.train_step(state, sampler.batch_at(step))
            steps.add(step, perf_counter() - t0)
            _check_finite(m, "grow", checks)
        after = inputs.param_bytes(grown)
        frozen = [n for n, f in grown.freeze_mask.items() if f]
        checks.check(all(after[n] == warm_params[n] for n in frozen),
                     "grow: a frozen parameter changed during expansion steps")
        _count_params(grown, rec)

        host.probe()
        t0 = perf_counter()
        calib = compression.capture_activations(grown, inp.calib, scope=scope.__contains__)
        plan = compression.build_plan(grown, calib, RATIO)
        compressed = compression.apply_compression(grown, plan)
        compress.add("compress", perf_counter() - t0)
        host.probe()
        host.close_round(steps, compress)
        before = sum(e.params_before for e in plan.entries)
        removed = before - sum(e.params_after for e in plan.entries)
        checks.check(abs(100 * removed - 40 * before) <= 2 * before,
                     f"grow: removed {removed} of {before} parameters, not 40% +- 2%")
        rec.add("compression.plan_entries", len(plan.entries))
        rec.add("compression.uniform_groups", _uniform_groups(plan))

        ppl = evaluation.branch_perplexity(compressed, inp.eval_ids, EXPANDED_BRANCH)
        checks.check(math.isfinite(ppl), f"grow: perplexity {ppl}")
        if nll:
            checks.check(math.log(ppl) == nll[0], "grow: perplexity differs between cycles")
        nll.append(math.log(ppl))

    rounds = run_rounds(seconds, min_rounds, cycle, checks, "grow")
    return Segment(tok_per_s=BATCH * SEQ * EXPANSION_STEPS / steps.total(), latency=steps,
                   stage_s=compress.total(), loss_nats=nll[0], rounds=rounds, units=rounds,
                   host_factor=statistics.median(host.factors))


def _check_policies(out: dict, depths: tuple, i: int, checks: Checks) -> None:
    shallow, deep = depths[0], depths[-1]
    checks.check(all(r.exit_depth == shallow for r in out["tau0"].records),
                 f"serve prompt {i}: a token did not exit at depth {shallow} at tau 0")
    checks.check(all(r.exit_depth == deep for r in out["tau_max"].records),
                 f"serve prompt {i}: a token did not exit at depth {deep} at tau > 1")
    checks.check(out["tau0.5"].tokens == out["tau0.5_eager"].tokens,
                 f"serve prompt {i}: lazy and eager backfill emit different tokens")


def _count_decode(out: dict, states: dict, rec) -> None:
    """Exit and backfill counts at tau = 0.5, from the public generation
    traces and decode states."""
    lazy, eager = out["tau0.5"], out["tau0.5_eager"]
    rec.add("inference.tokens", len(lazy.tokens))
    rec.add("inference.exits_evaluated", sum(len(x.confidences) for x in lazy.records))
    rec.add("inference.depth_sum", sum(x.exit_depth for x in lazy.records))
    rec.add("inference.block_rows.lazy", sum(states["tau0.5"].exec_count.values()))
    rec.add("inference.tokens.eager", len(eager.tokens))
    rec.add("inference.block_rows.eager", sum(states["tau0.5_eager"].exec_count.values()))


def serve(setup: inputs.SetUp, seconds: float, rec, checks: Checks,
          min_rounds: int = 3) -> Segment:
    """Rounds over the prompt set: TTFT, then greedy decoding until the context
    fills under each policy, then perplexity of every branch."""
    inp = setup.inputs
    model = setup.model
    cfg = model.config
    ttft, decode, evals, host = Timings(), Timings(), Timings(), HostSpeed()
    tokens: dict[tuple[str, int], int] = {}
    losses: list[float] = []
    emitted_tau_max: dict[int, list[int]] = {}

    def one_round(r: int) -> None:
        for i, prompt in enumerate(inp.prompts):
            rec.rid = i
            # at tau > 1 the first token's cost depends on the prompt length
            # only, not on which exit it takes
            host.probe()
            for _ in range(TTFT_REPEATS):
                t0 = perf_counter()
                inference.generate(model, prompt, POLICIES["tau_max"], max_new=1)
                ttft.add(i, perf_counter() - t0)
            out, states = {}, {}
            for label, policy in POLICIES.items():
                state_out: list = []
                host.probe()
                t0 = perf_counter()
                out[label] = inference.generate(model, prompt, policy, max_new=cfg.ctx_len,
                                                state_out=state_out)
                decode.add((label, i), perf_counter() - t0)
                states[label] = state_out[0]
                tokens[label, i] = len(out[label].tokens)
            _check_policies(out, cfg.exit_depths, i, checks)
            emitted_tau_max[i] = out["tau_max"].tokens
            _count_decode(out, states, rec)
        rec.rid = tracing.SHARED
        host.probe()
        t0 = perf_counter()
        ppls = [evaluation.branch_perplexity(model, inp.eval_ids, k)
                for k in range(cfg.n_branches)]
        evals.add("eval", perf_counter() - t0)
        host.close_round(ttft, decode, evals)
        loss = statistics.fmean(math.log(p) for p in ppls)
        checks.check(math.isfinite(loss), f"serve: branch perplexities {ppls}")
        if losses:
            checks.check(loss == losses[0], "serve: perplexity differs between rounds")
        losses.append(loss)

    rounds = run_rounds(seconds, min_rounds, one_round, checks, "serve")
    rec.rid = tracing.NO_REQUEST
    check_full_prefix(model, inp, emitted_tau_max, checks)
    rates = {}
    for label in POLICIES:
        keys = [k for k in tokens if k[0] == label]
        rates[label] = sum(tokens[k] for k in keys) / decode.total(keys)
    return Segment(tok_per_s=sum(tokens.values()) / decode.total(), latency=ttft,
                   stage_s=evals.total(), loss_nats=losses[0], rounds=rounds,
                   units=rounds * len(inp.prompts),
                   host_factor=statistics.median(host.factors), policy_rates=rates)


def check_full_prefix(model, inp: inputs.Inputs, emitted: dict[int, list[int]],
                      checks: Checks) -> None:
    """Untimed: tokens decoded at tau > 1 equal the greedy argmax of one
    full-prefix forward of the final branch, on a seeded sample of prompts."""
    final = model.config.n_branches - 1
    pick = inputs.seeded_rng(inp.seed, "full-prefix")
    for i in pick.sample(sorted(emitted), FULL_PREFIX_SAMPLE):
        prompt, tokens = inp.prompts[i], emitted[i]
        seq = np.concatenate([prompt, np.asarray(tokens[:-1], np.int64)])
        logits = fk_model.forward_branch(model, seq[None], final).data[0]
        expected = logits[len(prompt) - 1:].argmax(axis=-1).tolist()
        checks.check(expected == tokens,
                     f"serve prompt {i}: cached decode differs from full-prefix argmax")


def exit_depth_at_half(model, inp: inputs.Inputs) -> float:
    """Mean exit depth of greedy decoding at tau = 0.5 over the prompt set."""
    depths = []
    for prompt in inp.prompts:
        trace = inference.generate(model, prompt, POLICIES["tau0.5"],
                                   max_new=model.config.ctx_len)
        depths += [r.exit_depth for r in trace.records]
    return statistics.fmean(depths)


WORKLOADS = {"train": train, "grow": grow, "serve": serve}
