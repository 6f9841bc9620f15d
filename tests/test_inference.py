import json

import numpy as np
import pytest

from familykit import inference, tensor
from familykit.data import BOS
from familykit.errors import ConfigError, InputError
from familykit.data import EOS
from familykit.inference import (ExitPolicy, GenerationTrace, GenState, TokenRecord, confidence,
                                 generate)
from familykit.model import (desk_config, extract_submodel, forward_branch, init_model)
from familykit.rng import SplitRng
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


def test_confidence_equals_softmax_max():
    # 1 / sum(exp(r - max r)) has the bits of the largest softmax entry:
    # that entry is exp(0) / sum exactly, and rounded division is monotone
    rng = np.random.default_rng(5)
    for i in range(2000):
        n = int(rng.integers(2, 400))
        row = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        if i % 3 == 0:
            row[rng.integers(0, n, 2)] = row.max()  # a tie at the max
        row = row.astype(np.float32 if i % 2 else np.float64)
        expected = float(np.max(k_softmax(np.asarray(row, np.float64), axis=-1)))
        assert confidence(row) == expected, (i, n)


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
    prompt = _prompt(3)
    hi = generate(trained_small, prompt, ExitPolicy(threshold=1.5), max_new=16)
    # the greedy argmax of one full-prefix forward of the final branch
    logits = forward_branch(trained_small, [prompt + hi.tokens[:-1]], 1).data[0]
    assert logits[len(prompt) - 1:].argmax(-1).tolist() == hi.tokens
    assert all(r.exit_depth == 4 for r in hi.records)
    assert all(len(r.confidences) == 2 for r in hi.records)


def test_policy_validation(trained_small):
    with pytest.raises(ConfigError):
        generate(trained_small, _prompt(), ExitPolicy(threshold=0.5, mode="beam"), 4)
    for seed in (-1, 2**64):  # checked in greedy mode too, which draws nothing
        with pytest.raises(ConfigError):
            generate(trained_small, _prompt(), ExitPolicy(threshold=0.5, seed=seed), 4)
    with pytest.raises(InputError):
        generate(trained_small, [], ExitPolicy(threshold=0.5), 4)
    with pytest.raises(InputError):
        generate(trained_small, list(range(100)), ExitPolicy(threshold=0.5), 4)


def test_push_token_on_full_context_raises(trained_small):
    state = GenState(trained_small)
    for t in _prompt(1, trained_small.config.ctx_len):
        state.push_token(t)
    with pytest.raises(InputError):
        state.push_token(5)


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
        inc = state_out[0].exit_logits(r.exit_branch, [len(context) - 1])[0]
        assert np.array_equal(row, inc)
        context.append(r.token_id)
    assert len(depths) >= 1


def test_kv_reuse_matches_full_prefix_recompute(trained_small):
    state_out = []
    trace = generate(trained_small, _prompt(5), ExitPolicy(threshold=1.5),
                     max_new=12, state_out=state_out)
    context = list(trace.prompt) + trace.tokens[:-1]
    full = forward_branch(trained_small, np.asarray([context]), 1).data[0, -1]
    inc = state_out[0].exit_logits(1, [len(context) - 1])[0]
    assert np.max(np.abs(full - inc)) <= 1e-5  # holds exactly, bound per contract
    assert np.array_equal(full, inc)


def test_decode_attention_reads_its_cache_without_a_copy(trained_small, monkeypatch):
    # the cache is kept in attention's layouts, so the keys and values that
    # a decode block multiplies, over the prompt and then over one new row,
    # are the cache's own memory
    laid_out = []
    real = tensor._attention
    monkeypatch.setattr(tensor, "_attention",
                        lambda *args: laid_out.append(real(*args)) or laid_out[-1])
    state = GenState(trained_small)
    for t in _prompt(3):
        state.push_token(t)
    state.advance_backbone(state.n_positions - 1, 1)
    state.push_token(7)
    state.advance_backbone(state.n_positions - 1, 1)
    keys, values = state.cache[("backbone", 0)]
    assert len(laid_out) == 2
    for _, _, _, kt, vh in laid_out:
        assert np.shares_memory(kt, keys) and np.shares_memory(vh, values)


def assert_rows_accounted(state):
    """Every block row that ran is under its block's frontier or was
    discarded by a rollback; with nothing discarded each ran once."""
    assert sum(state.exec_count.values()) == sum(state.frontier.values()) + state.discarded_rows
    if state.discarded_rows == 0:
        assert state.exec_count == state.frontier


def test_no_position_layer_recompute_lazy_and_always(trained_small):
    for backfill in ("lazy", "always"):
        state_out = []
        generate(trained_small, _prompt(6), ExitPolicy(threshold=0.6,
                                                       backfill=backfill),
                 max_new=16, state_out=state_out)
        assert_rows_accounted(state_out[0])


def test_evaluated_exits_read_back_without_recompute(trained_small, monkeypatch):
    # every (branch, position) evaluated while decoding is read back after
    # generation from the stored rows: no block runs again, and the row is
    # one that decoding scored, with the recorded confidence
    seen = set()
    real = inference.confidence
    monkeypatch.setattr(inference, "confidence",
                        lambda row: seen.add(row.tobytes()) or real(row))
    for backfill in ("lazy", "always"):
        seen.clear()
        state_out = []
        trace = generate(trained_small, _prompt(4), ExitPolicy(threshold=0.6, backfill=backfill),
                         max_new=20, state_out=state_out)
        state = state_out[0]
        counts = dict(state.exec_count)
        for r in trace.records:
            pos = len(trace.prompt) - 1 + r.step
            for k, conf in enumerate(r.confidences):
                row = state.exit_logits(k, [pos])[0]
                assert row.tobytes() in seen, (k, pos)
                assert real(row) == conf, (k, pos)
        assert state.exec_count == counts
        assert_rows_accounted(state)


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
    # (audited globally: every (position, layer) pair ran once unless a
    # rollback discarded it, and positions beyond the deepest evaluated
    # depth never ran)
    assert_rows_accounted(state_out[0])
    for key in state_out[0].exec_count:
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


def sequential_sample(model, prompt, tau, temperature, seed, max_new):
    """Reference sampler: one token at a time, each exit's logits from a
    full-prefix forward of its extracted sub-model, and one uniform per step
    taken at the inverse CDF of the deciding exit's tempered softmax."""
    cfg = model.config
    subs = [extract_submodel(model, k) for k in range(cfg.n_branches)]
    rng = SplitRng(seed).split("generate")
    context, records, truncated = list(prompt), [], False
    for step in range(max_new):
        u = rng.uniform(())
        confs = []
        for k in range(cfg.n_branches):
            logits = forward_branch(subs[k], np.asarray([context]), 0).data[0, -1]
            confs.append(confidence(logits))
            if confs[-1] >= tau:
                break
        probs = k_softmax(np.asarray(logits, np.float64) / temperature, axis=-1)
        cdf = np.cumsum(probs)
        token = int(np.searchsorted(cdf / cdf[-1], u, side="right"))
        records.append((step, token, k, confs))
        if token == EOS:
            break
        if len(context) >= cfg.ctx_len:
            truncated = True
            break
        context.append(token)
    return records, truncated


def test_sampling_matches_sequential_reference(trained_small):
    for seed in (3, 11):
        for tau in (0.5, 1.5):
            trace = generate(trained_small, _prompt(seed), ExitPolicy(
                threshold=tau, mode="sample", temperature=0.9, seed=seed), max_new=24)
            records, truncated = sequential_sample(trained_small, _prompt(seed), tau, 0.9,
                                                   seed, 24)
            assert [(r.step, r.token_id, r.exit_branch, r.confidences)
                    for r in trace.records] == records, (seed, tau)
            assert trace.truncated == truncated


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
