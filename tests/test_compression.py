import logging
import math

import numpy as np
import pytest

from familykit import compression, kernels, parallel
from familykit.compression import (CALIB_CHUNK, allocate_ratios,
                                   apply_compression, build_plan, capture_activations,
                                   decompose, gram, group_of,
                                   inverted_log_score, rank_for_ratio, ridged,
                                   truncation_loss, whiten)
from familykit.errors import ConfigError, DefinitenessError, IntegrityError
from familykit.evaluation import branch_perplexity
from familykit.expansion import ExpansionSpec, expand
from familykit.linalg import cholesky_array
from familykit.model import (BLOCK_MATRICES, Factored, desk_config, forward_branch,
                             forward_exits, init_model, named_parameters, param_count,
                             weight_slots)


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def spd(n, seed=0, samples=None):
    x = rand((n, samples or 4 * n), seed)
    return x @ x.T


def default_scope(n_new=3, target=0, original_blocks=1):
    names = {f"exits.{target}.blocks.{j}.{m}"
             for j in range(original_blocks, original_blocks + n_new)
             for m in BLOCK_MATRICES}
    names.add(f"exits.{target}.lm_proj")
    return names


@pytest.fixture(scope="module")
def expanded(trained_small):
    grown, _ = expand(trained_small, ExpansionSpec(target_branch=0, n_new_blocks=3,
                                                   seed=31))
    return grown


# ---------------------------------------------------------------------------
# calibration capture
# ---------------------------------------------------------------------------

def test_gram_of_one_hot_sample():
    e2 = np.zeros(5)
    e2[2] = 1.0
    assert np.array_equal(gram(e2[None, None]), np.outer(e2, e2))


def test_capture_scope_and_accumulation(expanded):
    calib_tokens = np.random.default_rng(32).integers(0, 256, (8, 24))
    scope = default_scope()
    one = capture_activations(expanded, calib_tokens, scope.__contains__)
    assert set(one) == scope
    assert not any(n.startswith("backbone.") for n in one)

    # two half batches agree with the single concatenated pass
    first = capture_activations(expanded, calib_tokens[:4], scope.__contains__)
    second = capture_activations(expanded, calib_tokens[4:], scope.__contains__)
    for name in scope:
        merged = first[name] + second[name]
        scale = max(np.abs(one[name]).max(), 1.0)
        assert np.max(np.abs(merged - one[name])) / scale < 1e-6


@pytest.mark.parametrize("scope", [default_scope(), {"exits.1.blocks.0.w_up"},
                                   {"backbone.1.w_q", "exits.0.lm_proj"}],
                         ids=["grown-branch-0", "branch-1", "backbone"])
def test_capture_runs_only_the_branches_in_scope(expanded, monkeypatch, scope):
    # branch k for a matrix under exits.k., the final branch for a backbone
    # matrix; the Grams are those of a pass over every branch, bit for bit
    calib_tokens = np.random.default_rng(33).integers(0, 256, (40, 24))
    full = {}

    def tap(name, x):
        if name in scope:
            full[name] = full.get(name, -0.0) + gram(x)
    for start in range(0, 40, CALIB_CHUNK):
        forward_exits(expanded, calib_tokens[start:start + CALIB_CHUNK], [0, 1], ops=kernels,
                      tap=tap)
    ran = []

    def recorded(model, tokens, branches, **kwargs):
        ran.append((len(tokens), branches))
        return forward_exits(model, tokens, branches, **kwargs)
    monkeypatch.setattr(compression, "forward_exits", recorded)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    grams = capture_activations(expanded, calib_tokens, scope.__contains__)
    want = sorted({int(n.split(".")[1]) if n.startswith("exits.") else 1 for n in scope})
    # batches of 16 windows per CPU: two groups of 16, then one of 8
    assert sorted(ran) == [(8, want), (16, want), (16, want)]
    assert set(grams) == scope
    for name in scope:
        assert np.array_equal(grams[name], full[name])


def test_capture_rejects_empty_scope_before_forwarding(expanded, monkeypatch):
    def no_forward(*args, **kwargs):
        raise AssertionError("forwarded with nothing to calibrate")
    monkeypatch.setattr(compression, "forward_exits", no_forward)
    for scope in (lambda n: False, lambda n: n == "embedding", lambda n: n.endswith("_norm")):
        with pytest.raises(ConfigError, match="scope selected no matrices"):
            capture_activations(expanded, np.zeros((2, 4), np.int64), scope)


def test_capture_rejects_empty(expanded):
    with pytest.raises(ConfigError):
        capture_activations(expanded, np.zeros((0, 4), np.int64), lambda n: True)
    with pytest.raises(ConfigError):
        capture_activations(expanded, np.zeros((2, 4), np.int64), lambda n: False)


# ---------------------------------------------------------------------------
# whitening
# ---------------------------------------------------------------------------

def test_whiten_identity():
    wf = whiten(np.eye(4))
    assert np.allclose(wf.factor, np.eye(4), atol=1e-12)
    assert np.allclose(wf.inverse, np.eye(4), atol=1e-12)


def test_whiten_diagonal_svd_path():
    # the zero pivot sends whitening down the SVD path, which clamps the
    # zero singular value to 1e-8 * 4.0 before taking its root
    wf = whiten(np.diag([4.0, 1.0, 0.0]))
    assert wf.path == "svd"
    assert np.allclose(np.abs(wf.factor), np.diag([2.0, 1.0, 2e-4]), atol=1e-9)


def test_whiten_round_trip_random_spd():
    # 24 samples give a definite Gram (Cholesky), 3 a rank-3 one (SVD path)
    for samples, path in ((None, "cholesky"), (3, "svd")):
        gram = spd(6, seed=33, samples=samples)
        wf = whiten(gram)
        assert wf.path == path
        assert np.allclose(wf.factor @ wf.factor.T, gram, atol=1e-7 * np.abs(gram).max())
        assert np.linalg.norm(wf.inverse @ wf.factor - np.eye(6)) < 1e-5


def test_whiten_falls_back_on_rank_deficient(caplog):
    x = rand((6, 2), 34)  # rank 2 < dim 6
    gram = x @ x.T
    with caplog.at_level(logging.INFO):
        wf = whiten(gram)
    assert wf.path == "svd"
    with pytest.raises(DefinitenessError):
        cholesky_array(gram)


# ---------------------------------------------------------------------------
# truncation loss (Gram identity, monotonicity)
# ---------------------------------------------------------------------------

def test_full_rank_truncation_loss_negligible():
    w = rand((6, 8), 35)
    x = rand((8, 40), 36)
    gram = x @ x.T
    wx_norm = np.linalg.norm(w @ x)
    assert truncation_loss(decompose(w, whiten(gram)), rank=6) <= 1e-4 * wx_norm


def test_rank_one_matrix_lossless_at_any_rank():
    w = np.outer(rand(6, 37), rand(4, 38))
    gram = spd(4, 39)
    for r in (1, 2, 3):
        assert truncation_loss(decompose(w, whiten(gram)), r) < 1e-6


def test_identity_gram_matches_plain_svd_tail():
    w = rand((8, 8), 40)
    s = np.linalg.svd(w, compute_uv=False)
    for r in (1, 3, 5, 7):
        expected = math.sqrt(float(np.sum(s[r:] ** 2)))
        assert abs(truncation_loss(decompose(w, whiten(np.eye(8))), r) - expected) < 1e-8


def test_truncation_loss_monotone_in_rank():
    w = rand((7, 9), 41)
    gram = spd(9, 42)
    losses = [truncation_loss(decompose(w, whiten(gram)), r) for r in range(1, 8)]
    assert all(losses[i] >= losses[i + 1] - 1e-9 for i in range(len(losses) - 1))


def test_gram_identity_matches_materialized_activations():
    w = rand((5, 6), 43)
    x = rand((6, 50), 44)
    gram = x @ x.T
    a, b = decompose(w, whiten(gram)).factors(3)
    via_gram = truncation_loss(decompose(w, whiten(gram)), 3)
    direct = np.linalg.norm(w @ x - (a @ b) @ x)
    assert abs(via_gram - direct) / max(direct, 1e-12) < 1e-5


def test_svd_whitening_tail_loss_bounds_trace_loss():
    # a rank-3 Gram takes the SVD whitening path, whose clamp lifts each
    # singular value to at least 1e-8 * s_max: F @ F.T exceeds the Gram by
    # at most that much, so the tail exceeds the Gram-identity loss by at
    # most 1e-8 * max(s_max, 1) * ||W - W'||_F^2. The factors go through F^-1
    # (condition number ~1e4 here), so both sides also carry rounding near
    # 1e-9 relative; 1e-8 allows for it.
    w = rand((6, 8), 60)
    x = rand((8, 3), 61)
    gram = x @ x.T
    assert whiten(gram).path == "svd"
    dec = decompose(w, whiten(gram))
    s_max = float(np.linalg.svd(gram, compute_uv=False)[0])
    for r in range(1, 6):
        a, b = dec.factors(r)
        diff = w - a @ b
        trace = math.sqrt(max(float(np.trace(diff @ gram @ diff.T)), 0.0))
        tail = truncation_loss(dec, r)
        slack = 1e-8 * max(s_max, 1.0) * float(np.sum(diff ** 2))
        assert trace <= tail * (1 + 1e-8)
        assert tail <= math.sqrt(trace ** 2 + slack) * (1 + 1e-8)


# ---------------------------------------------------------------------------
# ratio allocation
# ---------------------------------------------------------------------------

def test_equal_losses_give_target_everywhere():
    group = {m: inverted_log_score(7.0) for m in ("a", "b", "c")}
    assert allocate_ratios({"g": group}, 0.4) == {"a": 0.4, "b": 0.4, "c": 0.4}


def test_two_to_one_score_split():
    ratios = allocate_ratios({"g": {"a": 2.0, "b": 1.0}}, 0.3)
    assert abs(ratios["a"] - 0.4) < 1e-12 and abs(ratios["b"] - 0.2) < 1e-12


def test_group_mean_equals_target_before_clamping():
    rng = np.random.default_rng(45)
    losses = {f"m{i}": float(v) for i, v in enumerate(rng.uniform(1.5, 40.0, 6))}
    scores = {m: inverted_log_score(loss) for m, loss in losses.items()}
    raw = {m: len(losses) * 0.37 * scores[m] / math.fsum(scores.values())
           for m in losses}
    assert abs(np.mean(list(raw.values())) - 0.37) < 1e-12


def test_all_clamped_falls_back_to_uniform(caplog):
    # one huge score and one tiny score force both members out of bounds
    with caplog.at_level(logging.WARNING):
        ratios = allocate_ratios({"g": {"a": 1e9, "b": 1e-9}}, 0.5)
    assert ratios == {"a": 0.5, "b": 0.5}
    assert any("clamped" in r.message for r in caplog.records)


def test_tiny_loss_is_clamped_not_crashing():
    group = {"a": inverted_log_score(1e-12), "b": inverted_log_score(5.0)}
    ratios = allocate_ratios({"g": group}, 0.3)
    # near-zero loss dominates: its share approaches the len*R bound of 0.6
    assert 0.59 < ratios["a"] <= 0.6
    assert ratios["b"] == 0.05  # floor clamp


# ---------------------------------------------------------------------------
# decomposition (Eq. 7 style factors)
# ---------------------------------------------------------------------------

def test_identity_gram_full_rank_reconstructs():
    w = rand((8, 6), 46)
    a, b = decompose(w, whiten(np.eye(6))).factors(6)
    assert np.linalg.norm(a @ b - w) / np.linalg.norm(w) < 1e-4


def test_rank_one_weight_reconstructs_exactly():
    w = np.outer(rand(6, 47), rand(5, 48))
    gram = spd(5, 49)
    for r in (1, 2, 4):
        a, b = decompose(w, whiten(gram)).factors(r)
        assert np.linalg.norm(a @ b - w) < 1e-5


def test_whitened_truncation_is_eckart_young_optimal():
    w = rand((8, 6), 50)
    gram = spd(6, 51)
    a, b = decompose(w, whiten(gram)).factors(3)
    wf = whiten(gram)
    ours = np.linalg.norm((w - a @ b) @ wf.factor)
    u, s, vt = np.linalg.svd(w @ wf.factor)
    optimal = math.sqrt(float(np.sum(s[3:] ** 2)))
    assert ours <= optimal + 1e-5
    assert abs(ours - optimal) < 1e-5


def test_identity_gram_matches_plain_truncated_svd():
    w = rand((8, 8), 52)
    a, b = decompose(w, whiten(np.eye(8))).factors(3)
    u, s, vt = np.linalg.svd(w)
    plain = u[:, :3] @ np.diag(s[:3]) @ vt[:3]
    assert np.max(np.abs(a @ b - plain)) < 1e-5


def test_rank_budget_formula():
    # (out + in) * r <= (1 - ratio) * out * in, floored, at least 1
    assert rank_for_ratio(32, 32, 0.4) == math.floor(0.6 * 1024 / 64)
    assert rank_for_ratio(4, 4, 0.99) == 1
    assert rank_for_ratio(100, 2, 0.0) == 1  # capped at min(out, in) - floor side
    assert rank_for_ratio(8, 8, 0.0) == 4


def test_decompose_factor_shapes():
    w = rand((32, 16), 53)
    r = rank_for_ratio(32, 16, 0.5)
    a, b = decompose(w, whiten(spd(16, 54))).factors(r)
    assert a.shape == (32, r) and b.shape == (r, 16)


# ---------------------------------------------------------------------------
# plan building and application
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def plan_and_calib(expanded):
    calib_tokens = np.random.default_rng(55).integers(0, 256, (32, 48))
    scope = default_scope()
    calib = capture_activations(expanded, calib_tokens, scope.__contains__)
    plan = build_plan(expanded, calib, 0.4)
    return plan, calib


def test_plan_hits_forty_percent_with_integer_counts(plan_and_calib, expanded):
    plan, _ = plan_and_calib
    before = sum(e.params_before for e in plan.entries)
    after = sum(e.params_after for e in plan.entries)
    assert plan.params_before == before and plan.params_after == after
    assert abs((before - after) / before - 0.4) <= 0.02
    assert all(e.rank >= 1 for e in plan.entries)


def test_build_plan_decomposes_each_matrix_once(expanded, plan_and_calib, monkeypatch):
    import familykit.compression as comp
    _, calib = plan_and_calib
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(comp, "decompose", counting)
    plan = build_plan(expanded, calib, 0.4)
    assert len(calls) == len(plan.entries) == len(calib)


def test_rank_repair_tie_goes_to_the_first_name():
    # two 32 x 32 matrices in groups of their own: each floors to rank 9 at
    # 40%, which keeps 1152 of the 1228.8 parameters due; +1 on either
    # leaves the same |error| 12.8, and the first name in sorted order moves
    model = init_model(desk_config(), seed=3)
    grams = {f"backbone.{i}.w_q": np.eye(32) for i in (1, 0)}
    plan = build_plan(model, grams, 0.4)
    assert {e.name: e.rank for e in plan.entries} == {"backbone.0.w_q": 10,
                                                      "backbone.1.w_q": 9}


def test_plan_grouping_is_per_block_plus_heads(plan_and_calib):
    plan, _ = plan_and_calib
    groups = {group_of(e.name) for e in plan.entries}
    assert "heads" in groups
    assert sum(g.startswith("exits.0.blocks.") for g in groups) == 3


def test_backbone_matrices_group_by_block(trained_small):
    calib_tokens = np.random.default_rng(56).integers(0, 256, (8, 48))
    calib = capture_activations(trained_small, calib_tokens,
                                lambda name: name.startswith("backbone."))
    plan = build_plan(trained_small, calib, 0.4)
    assert len(plan.entries) == 4 * len(BLOCK_MATRICES)
    assert {group_of(e.name) for e in plan.entries} == {f"backbone.{i}" for i in range(4)}
    assert group_of("exits.1.lm_proj") == "heads"


def test_apply_compression_swaps_only_planned_slots(expanded, plan_and_calib):
    plan, _ = plan_and_calib
    before = {n: p.data.copy() for n, p in named_parameters(expanded)}
    compressed = apply_compression(expanded, plan)
    planned = {e.name for e in plan.entries}
    for name, owner_param in named_parameters(compressed):
        base = name[:-2] if name.endswith((".A", ".B")) else name
        if base in planned:
            assert name.endswith((".A", ".B"))
        else:
            assert np.array_equal(before[name], owner_param.data), name
    # factored forward shape: y = (x @ B) @ A
    slots = {name: getattr(owner, attr) for name, owner, attr in weight_slots(compressed)}
    assert isinstance(slots[plan.entries[0].name], Factored)
    # param_count reflects factored sizes
    delta = param_count(expanded) - param_count(compressed)
    assert delta == plan.params_before - plan.params_after


def test_empty_plan_is_identity(expanded, plan_and_calib):
    plan, _ = plan_and_calib
    from dataclasses import replace
    empty = replace(plan, entries=[], factors={}, params_after=plan.params_before)
    same = apply_compression(expanded, empty)
    for (n, p), (_, q) in zip(named_parameters(expanded), named_parameters(same)):
        assert np.array_equal(p.data, q.data), n


def test_full_rank_plan_keeps_logits_close(expanded, plan_and_calib):
    _, calib = plan_and_calib
    import dataclasses
    from familykit.compression import CompressionPlan, PlanEntry
    entries, factors = [], {}
    params = dict(named_parameters(expanded))
    for name, gram in calib.items():
        w = params[name].data.T.astype(np.float64)
        rank = min(w.shape)
        a, b = decompose(w, whiten(ridged(gram))).factors(rank)
        factors[name] = (a.astype(np.float32), b.astype(np.float32))
        entries.append(PlanEntry(name=name, l_min=0.0, score=1.0, ratio=0.0,
                                 rank=rank, params_before=w.size,
                                 params_after=(w.shape[0] + w.shape[1]) * rank))
    plan = CompressionPlan(target_ratio=0.0, entries=entries, factors=factors,
                           params_before=sum(e.params_before for e in entries),
                           params_after=sum(e.params_after for e in entries))
    compressed = apply_compression(expanded, plan)
    tokens = np.random.default_rng(56).integers(0, 256, (2, 24))
    base = forward_branch(expanded, tokens, 0).data
    comp = forward_branch(compressed, tokens, 0).data
    assert np.max(np.abs(base - comp)) < 1e-3


def test_plan_model_mismatch_rejected(expanded, plan_and_calib, trained_small):
    plan, _ = plan_and_calib
    with pytest.raises(IntegrityError):
        apply_compression(trained_small, plan)  # un-expanded model lacks the blocks
    compressed = apply_compression(expanded, plan)
    with pytest.raises(IntegrityError):
        apply_compression(compressed, plan)  # already factored
    from dataclasses import replace
    first = replace(plan.entries[0], rank=plan.entries[0].rank + 1)
    with pytest.raises(IntegrityError):  # the factors have another rank
        apply_compression(expanded, replace(plan, entries=[first, *plan.entries[1:]]))


def test_measure_compression_direction(expanded, plan_and_calib, eval_corpus):
    import numpy as np
    from familykit.compression import measure_compression
    plan, calib = plan_and_calib
    eval_ids = np.frombuffer(eval_corpus.read_bytes(), np.uint8).astype(np.int64)

    same = measure_compression(expanded, expanded, eval_ids, 0, plan)
    assert same.ppl_delta == 0.0

    extreme = build_plan(expanded, calib, 0.9)
    squeezed = apply_compression(expanded, extreme)
    report = measure_compression(expanded, squeezed, eval_ids, 0, extreme)
    assert report.ppl_delta > 0.0
    assert "perplexity" in report.summary()
    rows = report.csv_rows()
    assert rows[0] == "metric,value"
    assert any(row.startswith("exits.0.lm_proj,") for row in rows)


def test_budget_miss_raises(expanded):
    # a single square matrix cannot land within 2% of a 4% removal target:
    # its rank grid only offers 0% or >= 6.25%
    x = rand((32, 64), 57)
    import familykit.compression as comp
    with pytest.raises(comp.NumericError):
        build_plan(expanded, {"exits.0.blocks.1.w_q": gram(x.T[None])}, 0.04)
