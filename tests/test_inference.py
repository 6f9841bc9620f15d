import json

import numpy as np
import pytest

from familykit import inference
from familykit.data import BOS
from familykit.errors import ConfigError, InputError
from familykit.inference import ExitPolicy, GenerationTrace, TokenRecord, confidence, generate
from familykit.model import (desk_config, extract_submodel, forward_branch, init_model)
from familykit.tensor import k_softmax


def _prompt(seed=0, n=6):
    rng = np.random.default_rng(seed)
    return [BOS] + [int(t) for t in rng.integers(0, 256, n - 1)]


# ---------------------------------------------------------------------------
# confidence metric
# ---------------------------------------------------------------------------

def test_confidence_uniform():
    assert abs(confidence(np.zeros(4)) - 0.25) < 1e-12


def test_confidence_saturates():
    row = np.zeros(6)
    row[3] = 1000.0
    assert abs(confidence(row) - 1.0) < 1e-12


def test_confidence_oracle():
    row = np.random.default_rng(1).standard_normal(17)
    expected = float(np.max(np.exp(row) / np.exp(row).sum()))
    assert abs(confidence(row) - expected) < 1e-9
    assert 0.0 <= confidence(row) <= 1.0


def test_confidence_rejects_nonfinite():
    with pytest.raises(InputError):
        confidence(np.array([np.nan, 0.0]))


# ---------------------------------------------------------------------------
# threshold extremes
# ---------------------------------------------------------------------------

def test_tau_zero_exits_at_shallowest(trained_small):
    trace = generate(trained_small, _prompt(2), ExitPolicy(threshold=0.0), max_new=16)
    assert all(r.exit_depth == 2 for r in trace.records)
    assert all(len(r.confidences) == 1 for r in trace.records)


def test_tau_above_one_equals_full_depth_greedy(trained_small):
    hi = generate(trained_small, _prompt(3), ExitPolicy(threshold=1.5), max_new=16)
    final_only = generate(trained_small, _prompt(3),
                          ExitPolicy(threshold=0.0, allowed_exits=(1,)), max_new=16)
    assert hi.tokens == final_only.tokens
    assert all(r.exit_depth == 4 for r in hi.records)
    assert all(len(r.confidences) == 2 for r in hi.records)


def test_policy_validation(trained_small):
    with pytest.raises(ConfigError):
        generate(trained_small, _prompt(), ExitPolicy(threshold=0.5,
                                                      allowed_exits=(0,)), 4)
    with pytest.raises(ConfigError):
        generate(trained_small, _prompt(), ExitPolicy(threshold=0.5, mode="beam"), 4)
    with pytest.raises(InputError):
        generate(trained_small, [], ExitPolicy(threshold=0.5), 4)
    with pytest.raises(InputError):
        generate(trained_small, list(range(100)), ExitPolicy(threshold=0.5), 4)


# ---------------------------------------------------------------------------
# consistency with extraction (bit-exact logits through the KV cache)
# ---------------------------------------------------------------------------

def test_emitted_tokens_match_extracted_submodels(trained_small):
    subs = {k: extract_submodel(trained_small, k) for k in (0, 1)}
    state_out = []
    trace = generate(trained_small, _prompt(4), ExitPolicy(threshold=0.6),
                     max_new=20, state_out=state_out)
    depths = {r.exit_depth for r in trace.records}
    context = list(trace.prompt)
    for r in trace.records:
        sub_logits = forward_branch(subs[r.exit_branch], np.asarray([context]), 0)
        row = sub_logits.data[0, -1]
        assert int(np.argmax(row)) == r.token_id
        # cached incremental logits are bit-identical to the standalone
        # full-prefix forward
        inc = state_out[0].exit_logits(r.exit_branch, len(context) - 1)
        assert np.array_equal(row, inc)
        context.append(r.token_id)
    assert len(depths) >= 1


def test_kv_reuse_matches_full_prefix_recompute(trained_small):
    state_out = []
    trace = generate(trained_small, _prompt(5), ExitPolicy(threshold=1.5),
                     max_new=12, state_out=state_out)
    context = list(trace.prompt) + trace.tokens[:-1]
    full = forward_branch(trained_small, np.asarray([context]), 1).data[0, -1]
    inc = state_out[0].exit_logits(1, len(context) - 1)
    assert np.max(np.abs(full - inc)) <= 1e-5  # holds exactly, bound per contract
    assert np.array_equal(full, inc)


def test_no_position_layer_recompute_lazy_and_always(trained_small):
    for backfill in ("lazy", "always"):
        state_out = []
        generate(trained_small, _prompt(6), ExitPolicy(threshold=0.6,
                                                       backfill=backfill),
                 max_new=16, state_out=state_out)
        assert max(state_out[0].exec_count.values()) <= 1


def test_evaluated_exits_read_back_without_recompute(trained_small, monkeypatch):
    # every (branch, position) evaluated while decoding is read back after
    # generation from the stored rows: no block runs again, same bits
    seen = []
    real = inference.confidence
    monkeypatch.setattr(inference, "confidence", lambda row: seen.append(row) or real(row))
    for backfill in ("lazy", "always"):
        seen.clear()
        state_out = []
        trace = generate(trained_small, _prompt(4), ExitPolicy(threshold=0.6, backfill=backfill),
                         max_new=20, state_out=state_out)
        state = state_out[0]
        counts = dict(state.exec_count)
        logits = iter(seen)
        for r in trace.records:
            pos = len(trace.prompt) - 1 + r.step
            for k in range(len(r.confidences)):
                assert np.array_equal(state.exit_logits(k, pos), next(logits)), (k, pos)
        assert next(logits, None) is None
        assert state.exec_count == counts and set(counts.values()) == {1}


def test_lazy_and_always_backfill_agree(trained_small):
    for tau in (0.0, 0.5, 0.8):
        lazy = generate(trained_small, _prompt(7), ExitPolicy(threshold=tau),
                        max_new=16)
        always = generate(trained_small, _prompt(7),
                          ExitPolicy(threshold=tau, backfill="always"), max_new=16)
        assert lazy.tokens == always.tokens
        assert [r.exit_depth for r in lazy.records] == \
            [r.exit_depth for r in always.records]


def test_lazy_skips_deep_layers_until_needed(trained_small):
    # with every token exiting at depth 2, backbone layers 3-4 never run
    state_out = []
    generate(trained_small, _prompt(8), ExitPolicy(threshold=0.0), max_new=10,
             state_out=state_out)
    deep = [k for k in state_out[0].exec_count if k[0] == "backbone" and k[1] >= 2]
    assert deep == []
    # the always policy fills them eagerly
    state_out = []
    generate(trained_small, _prompt(8), ExitPolicy(threshold=0.0, backfill="always"),
             max_new=10, state_out=state_out)
    deep = [k for k in state_out[0].exec_count if k[0] == "backbone" and k[1] >= 2]
    assert deep


def test_per_token_execution_bound(trained_small):
    cfg = trained_small.config
    state_out = []
    trace = generate(trained_small, _prompt(9), ExitPolicy(threshold=0.6),
                     max_new=12, state_out=state_out)
    # per generated token: new-position executions stay within the deepest
    # evaluated depth plus the evaluated branches' head blocks
    # (audited globally: every (position, layer) pair ran at most once, and
    # positions beyond the deepest evaluated depth never ran)
    for key, count in state_out[0].exec_count.items():
        assert count == 1
        if key[0] == "backbone":
            assert key[1] < cfg.n_layers


# ---------------------------------------------------------------------------
# sampling, truncation, histogram
# ---------------------------------------------------------------------------

def test_sampling_deterministic_per_seed(trained_small):
    pol = ExitPolicy(threshold=1.5, mode="sample", temperature=0.9, seed=11)
    a = generate(trained_small, _prompt(10), pol, max_new=10)
    b = generate(trained_small, _prompt(10), pol, max_new=10)
    assert a.tokens == b.tokens
    c = generate(trained_small, _prompt(10),
                 ExitPolicy(threshold=1.5, mode="sample", temperature=0.9, seed=12),
                 max_new=10)
    assert a.tokens != c.tokens or a.tokens == c.tokens  # smoke: both valid traces
    assert len(c.tokens) == 10


def test_context_overflow_sets_truncated_flag(trained_small):
    ctx = trained_small.config.ctx_len
    prompt = _prompt(12, ctx - 3)
    trace = generate(trained_small, prompt, ExitPolicy(threshold=1.5), max_new=10)
    assert trace.truncated
    assert len(trace.tokens) == 4  # positions ctx-3 .. ctx-1 plus the final fit


def exit_histogram(trace: GenerationTrace) -> tuple[dict[int, int], float]:
    """Per-exit-depth counts and mean exit depth over a trace."""
    if not trace.records:
        raise InputError("trace is empty")
    counts: dict[int, int] = {}
    for r in trace.records:
        counts[r.exit_depth] = counts.get(r.exit_depth, 0) + 1
    mean = sum(r.exit_depth for r in trace.records) / len(trace.records)
    return counts, mean


def test_exit_histogram_counts_and_mean():
    trace = GenerationTrace(prompt=[BOS])
    for i, depth in enumerate([2, 4, 2, 4]):
        trace.records.append(TokenRecord(step=i, token_id=1, exit_branch=depth // 2 - 1,
                                         exit_depth=depth, confidences=[0.5]))
        trace.tokens.append(1)
    counts, mean = exit_histogram(trace)
    assert counts == {2: 2, 4: 2}
    assert mean == 3.0
    # recount oracle straight off the raw trace
    assert counts == {d: sum(1 for r in trace.records if r.exit_depth == d)
                      for d in {r.exit_depth for r in trace.records}}


def test_exit_histogram_all_final(trained_small):
    trace = generate(trained_small, _prompt(13), ExitPolicy(threshold=1.5), max_new=8)
    counts, mean = exit_histogram(trace)
    assert counts == {4: 8} and mean == 4.0
    with pytest.raises(InputError):
        exit_histogram(GenerationTrace(prompt=[BOS]))


def test_trace_jsonl_schema(trained_small):
    trace = generate(trained_small, _prompt(14), ExitPolicy(threshold=0.6), max_new=5)
    lines = trace.jsonl().strip().splitlines()
    assert len(lines) == 5
    rec = json.loads(lines[0])
    assert set(rec) == {"step", "token_id", "exit_depth", "confidences"}


def test_offline_threshold_sweep_monotone(trained_small):
    """Mean exit depth over fixed contexts is nondecreasing in the threshold."""
    prompts = [_prompt(20 + i) for i in range(8)]
    per_token_confs = []
    for p in prompts:
        trace = generate(trained_small, p, ExitPolicy(threshold=1.5), max_new=8)
        per_token_confs.extend(trace.records)
    depths = trained_small.config.exit_depths

    def mean_depth(tau):
        out = []
        for rec in per_token_confs:
            chosen = len(depths) - 1
            for k, conf in enumerate(rec.confidences):
                if conf >= tau:
                    chosen = k
                    break
            out.append(depths[chosen])
        return float(np.mean(out))

    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 0.95, 1.01]
    means = [mean_depth(t) for t in grid]
    assert all(means[i] <= means[i + 1] + 1e-12 for i in range(len(means) - 1))
    assert means[0] == depths[0] and means[-1] == depths[-1]
