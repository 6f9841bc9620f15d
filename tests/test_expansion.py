from dataclasses import replace

import numpy as np
import pytest

from familykit.errors import ConfigError
from familykit.expansion import (ExpansionSpec, cosine_csv_rows, expand, grown_scope,
                                 layer_cosine_similarity, token_cosines, verify_identity)
from familykit.model import (BLOCK_MATRICES, LINEAR_SLOTS, Factored, block_forward,
                             desk_config, forward_branch, init_model, named_parameters,
                             param_count, weight_slots)
from familykit.tensor import Tensor, causal_mask, rope_tables
from familykit.training import LambdaSchedule, TrainConfig, TrainState, train_step


def _probe(seed=0, shape=(3, 12)):
    return np.random.default_rng(seed).integers(0, 259, shape)


@pytest.fixture()
def base_model():
    return init_model(desk_config(), seed=21)


def test_identity_at_init_exact(base_model):
    grown, _ = expand(base_model, ExpansionSpec(target_branch=0, seed=1))
    for seed in range(5):
        assert verify_identity(base_model, grown, _probe(seed), 0) == 0.0


def test_paper_default_adds_three_blocks(base_model):
    grown, _ = expand(base_model, ExpansionSpec(target_branch=0, seed=1))
    assert len(grown.exits[0].blocks) == len(base_model.exits[0].blocks) + 3
    assert grown.config.branch_blocks == (4, 1)


def test_new_block_output_exactly_zero(base_model):
    grown, _ = expand(base_model, ExpansionSpec(target_branch=0, seed=2))
    cfg = grown.config
    block = grown.exits[0].blocks[-1]
    h = Tensor(np.random.default_rng(3).standard_normal((2, 5, cfg.hidden))
               .astype(np.float32))
    cos, sin = rope_tables(np.arange(5), cfg.head_dim, cfg.rope_base)
    out = block_forward(block, h, cfg, cos, sin, causal_mask(5, cfg.ctx_len))
    assert np.array_equal(out.data, h.data)


def test_added_param_count_matches_shape_oracle(base_model):
    before = param_count(base_model)
    spec = ExpansionSpec(target_branch=0, n_new_blocks=3, seed=4)
    grown, report = expand(base_model, spec)
    cfg = base_model.config
    h, kv, m = cfg.hidden, cfg.kv_heads * cfg.head_dim, cfg.mlp_mult * cfg.hidden
    one_block = h * h + 2 * h * kv + h * h + 2 * h * m + m * h + 2 * h
    assert report.added_params == 3 * one_block
    assert param_count(grown) - before == report.added_params


def test_trainable_set_is_new_blocks_plus_lm_head_exactly(base_model):
    grown, report = expand(base_model, ExpansionSpec(target_branch=0,
                                                     n_new_blocks=2, seed=5))
    expected = {f"exits.0.blocks.{j}.{m}" for j in (1, 2)
                for m in ("w_q", "w_k", "w_v", "w_o", "w_gate", "w_up", "w_down",
                          "attn_norm", "mlp_norm")}
    expected.add("exits.0.lm_proj")
    trainable = {n for n, frozen in grown.freeze_mask.items() if not frozen}
    assert trainable == expected
    assert sorted(report.trainable) == sorted(expected)


def test_grown_scope_selects_the_matrices_compression_factors(base_model):
    spec = ExpansionSpec(target_branch=0, n_new_blocks=3, seed=1)
    config, grown = grown_scope(base_model.config, spec)
    expanded, _ = expand(base_model, spec)
    assert config == expanded.config
    linear = [name for name, _, attr in weight_slots(expanded) if attr in LINEAR_SLOTS]
    expected = {f"exits.0.blocks.{j}.{m}" for j in (1, 2, 3) for m in BLOCK_MATRICES}
    assert {name for name in linear if grown(name)} == expected | {"exits.0.lm_proj"}
    with pytest.raises(ConfigError):
        grown_scope(base_model.config, ExpansionSpec(target_branch=2))


def test_clone_mode_copies_internals_then_zeroes_outputs(base_model):
    spec = ExpansionSpec(target_branch=0, n_new_blocks=1, init_mode="clone",
                         clone_source=1, seed=6)
    grown, _ = expand(base_model, spec)
    new = grown.exits[0].blocks[-1]
    src = base_model.backbone[1]
    for mat in ("w_q", "w_k", "w_v", "w_gate", "w_up"):
        assert np.array_equal(getattr(new, mat).data, getattr(src, mat).data)
    assert np.all(new.w_o.data == 0.0) and np.all(new.w_down.data == 0.0)
    assert verify_identity(base_model, grown, _probe(6), 0) == 0.0


def test_clone_of_factored_source_zeroes_outputs_dense(base_model):
    # a compressed source block holds its projections as factor pairs
    src = base_model.backbone[1]
    for slot in ("w_q", "w_o", "w_down"):
        w = getattr(src, slot).data
        setattr(src, slot, Factored(b=Tensor(w[:, :2], requires_grad=True),
                                    a=Tensor(np.eye(2, w.shape[1], dtype=np.float32),
                                             requires_grad=True)))
    grown, _ = expand(base_model, ExpansionSpec(target_branch=0, n_new_blocks=1,
                                                init_mode="clone", clone_source=1, seed=6))
    new = grown.exits[0].blocks[-1]
    assert np.all(new.w_o.data == 0.0) and np.all(new.w_down.data == 0.0)
    assert verify_identity(base_model, grown, _probe(6), 0) == 0.0
    # the cloned factor pair is part of the new block, so it trains
    assert not any(grown.freeze_mask[f"exits.0.blocks.1.w_q.{f}"] for f in "AB")


def test_clone_source_out_of_range(base_model):
    with pytest.raises(ConfigError):
        expand(base_model, ExpansionSpec(target_branch=0, init_mode="clone",
                                         clone_source=99, seed=7))
    with pytest.raises(ConfigError):
        ExpansionSpec(target_branch=0, n_new_blocks=0)
    with pytest.raises(ConfigError):
        ExpansionSpec(target_branch=0, init_mode="xavier")


def test_deviation_positive_after_one_step_and_backbone_frozen(base_model):
    grown, _ = expand(base_model, ExpansionSpec(target_branch=0, seed=8))
    frozen_before = {n: p.data.copy() for n, p in named_parameters(grown)
                     if grown.freeze_mask[n]}
    tc = TrainConfig(peak_lr=1e-3, warmup_steps=0, total_steps=10, batch=3,
                     seq_len=12, seed=8)
    state = TrainState(model=grown, config=tc,
                       schedule=LambdaSchedule.branch_only(2, 0, 10))
    probe = _probe(8)
    for step in range(3):
        train_step(state, _probe(100 + step))
    assert verify_identity(base_model, grown, probe, 0) > 0.0
    for n, p in named_parameters(grown):
        if grown.freeze_mask[n]:
            assert np.array_equal(frozen_before[n], p.data), n


def test_gradient_liveness_through_zero_projections(base_model):
    from familykit.model import forward_all_branches
    from familykit.tensor import backward, cross_entropy
    from familykit.training import joint_loss, targets_for
    grown, _ = expand(base_model, ExpansionSpec(target_branch=0, seed=9))
    batch = _probe(9)
    logits = forward_all_branches(grown, batch)
    backward(joint_loss([cross_entropy(lg, targets_for(batch)) for lg in logits],
                        [1.0, 1.0]))
    for block in grown.exits[0].blocks[1:]:
        assert block.w_o.grad is not None and np.linalg.norm(block.w_o.grad) > 0
        assert block.w_down.grad is not None and np.linalg.norm(block.w_down.grad) > 0


def test_non_target_branch_untouched(base_model):
    probe = _probe(10)
    before = forward_branch(base_model, probe, 1).data.copy()
    grown, _ = expand(base_model, ExpansionSpec(target_branch=0, seed=10))
    assert np.array_equal(forward_branch(grown, probe, 1).data, before)
    tc = TrainConfig(peak_lr=2e-3, warmup_steps=0, total_steps=5, batch=3,
                     seq_len=12, seed=10)
    state = TrainState(model=grown, config=tc,
                       schedule=LambdaSchedule.branch_only(2, 0, 5))
    for step in range(5):
        train_step(state, _probe(200 + step))
    assert np.array_equal(forward_branch(grown, probe, 1).data, before)


def test_vocab_mismatch_rejected(base_model):
    other = init_model(replace(desk_config(), vocab=128), seed=11)
    with pytest.raises(ConfigError):
        verify_identity(base_model, other, _probe(11) % 128, 0)


# ---------------------------------------------------------------------------
# cosine similarity diagnostic
# ---------------------------------------------------------------------------

def test_token_cosines_synthetic():
    h = np.random.default_rng(12).standard_normal((4, 8))
    scores, degenerate = token_cosines(h, -h)
    assert np.allclose(scores, -1.0) and not degenerate
    scores, degenerate = token_cosines(np.zeros((2, 8)), h[:2])
    assert degenerate and np.all(scores == 0.0)
    scores, _ = token_cosines(h, h)
    assert np.allclose(scores, 1.0)


def test_expanded_blocks_have_unit_cosine_at_init(base_model):
    grown, _ = expand(base_model, ExpansionSpec(target_branch=0, seed=13))
    tokens = _probe(13, (1, 9))
    scores, labels, degenerate = layer_cosine_similarity(grown, tokens, branch=0)
    assert not degenerate
    assert scores.shape == (2 + 4, 9)  # 2 backbone layers + 4 branch blocks
    new_rows = [i for i, lab in enumerate(labels) if lab.startswith("exits.0.blocks.")][1:]
    for i in new_rows:
        assert np.all(scores[i] == 1.0), labels[i]
    assert np.all(scores >= -1.0) and np.all(scores <= 1.0)


def test_cosine_csv_format(base_model):
    tokens = np.array([256, 65, 32, 102])  # BOS, 'A', ' ', 'f'
    scores, _, _ = layer_cosine_similarity(base_model, tokens, branch=0)
    rows = cosine_csv_rows(scores, tokens)
    assert rows[0] == "layer,token_index,token_text,cosine"
    assert rows[1].startswith('0,0,"<256>"')
    assert rows[2].startswith('0,1,"A"')
    assert len(rows) == 1 + scores.size


def test_empty_text_rejected(base_model):
    with pytest.raises(ConfigError):
        layer_cosine_similarity(base_model, np.zeros((1, 0), np.int64))
