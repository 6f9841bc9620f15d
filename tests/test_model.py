from dataclasses import replace

import numpy as np
import pytest

from conftest import cast_model, pad_keys, tiny_config

from familykit import kernels, model as fk_model, tensor
from familykit.errors import ConfigError, InputError, IntegrityError, ShapeError
from familykit.evaluation import branch_nll
from familykit.model import (FamilyConfig, block_forward, desk_config,
                             extract_submodel, forward_all_branches, forward_branch,
                             forward_exits, from_parameters, init_model, named_parameters,
                             param_count, set_freeze)
from familykit.tensor import (Tensor, causal_mask, k_masked_softmax, k_matmul, k_rmsnorm,
                              k_rope, k_silu, rope_tables)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_published_scale_shapes_validate():
    # 40-layer, 5120-hidden, 40/8 heads, 8K context, nested exits at 3/22/40
    cfg = FamilyConfig(n_layers=40, hidden=5120, q_heads=40, kv_heads=8,
                       vocab=151_936, ctx_len=8192, exit_depths=(3, 22, 40),
                       branch_blocks=(1, 1, 1))
    assert cfg.head_dim == 128 and cfg.n_branches == 3


@pytest.mark.parametrize("bad", [
    dict(q_heads=3, kv_heads=2),            # not a multiple
    dict(hidden=30),                        # not divisible by q_heads
    dict(exit_depths=(2, 1)),               # not increasing
    dict(exit_depths=(1, 3)),               # last != n_layers
    dict(vocab=1),
    dict(ctx_len=0),
    dict(branch_blocks=(1,)),               # wrong arity
    dict(rms_eps=1e39),                     # inf in the model's float32
    dict(rms_eps=3.5e38),
    dict(rms_eps=1e-50),                    # 0.0 in float32
])
def test_invalid_configs_rejected(bad):
    base = dict(n_layers=2, hidden=16, q_heads=2, kv_heads=1, vocab=31,
                ctx_len=16, exit_depths=(1, 2), branch_blocks=(0, 0))
    base.update(bad)
    with pytest.raises(ConfigError):
        FamilyConfig(**base)


def test_rms_eps_float32_subnormal_accepted():
    assert replace(desk_config(), rms_eps=1e-45).rms_eps == 1e-45


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError):
        FamilyConfig.from_dict({**desk_config().to_dict(), "dropout": 0.1})


def test_branch_blocks_scalar_broadcasts():
    cfg = FamilyConfig(n_layers=4, hidden=32, q_heads=4, kv_heads=2, vocab=259,
                      ctx_len=64, exit_depths=(2, 4), branch_blocks=1)
    assert cfg.branch_blocks == (1, 1)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_branch_blocks_copied_from_following_layer():
    model = init_model(desk_config(), seed=0)
    # exit 0 at depth 2: its block starts as a copy of backbone layer index 2
    for mat in ("w_q", "w_k", "w_v", "w_o", "w_gate", "w_up", "w_down"):
        assert np.array_equal(getattr(model.exits[0].blocks[0], mat).data,
                              getattr(model.backbone[2], mat).data)
    # and it is a copy, not an alias
    model.backbone[2].w_q.data[0, 0] += 1.0
    assert not np.array_equal(model.exits[0].blocks[0].w_q.data,
                              model.backbone[2].w_q.data)


def test_last_exit_blocks_fall_back_to_gaussian():
    cfg = desk_config()
    assert cfg.branch_blocks == (1, 1)
    model = init_model(cfg, seed=0)
    # exit 1 at depth 4 == n_layers: no following layer exists
    for i in range(cfg.n_layers):
        assert not np.array_equal(model.exits[1].blocks[0].w_q.data,
                                  model.backbone[i].w_q.data)


def test_degenerate_single_exit_transformer():
    cfg = FamilyConfig(n_layers=4, hidden=32, q_heads=4, kv_heads=2, vocab=259,
                       ctx_len=64, exit_depths=(4,), branch_blocks=(0,))
    model = init_model(cfg, seed=1)
    logits = forward_branch(model, np.arange(8)[None], 0)
    assert logits.data.shape == (1, 8, 259)


def test_init_deterministic():
    a = init_model(desk_config(), seed=5)
    b = init_model(desk_config(), seed=5)
    for (n1, p1), (n2, p2) in zip(named_parameters(a), named_parameters(b)):
        assert n1 == n2 and np.array_equal(p1.data, p2.data)


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------

def test_causality_exact():
    model = init_model(desk_config(), seed=2)
    tokens = np.arange(24).reshape(2, 12) % 259
    base = forward_branch(model, tokens, 0).data
    edited = tokens.copy()
    edited[:, 7] = (edited[:, 7] + 3) % 259
    after = forward_branch(model, edited, 0).data
    assert np.array_equal(base[:, :7], after[:, :7])
    assert not np.array_equal(base[:, 7:], after[:, 7:])


def count_blocks(monkeypatch) -> list:
    """Patch `model.block_forward` to record the name of every block it runs."""
    names = []

    def counted(*args, **kwargs):
        names.append(kwargs["name"])
        return block_forward(*args, **kwargs)

    monkeypatch.setattr(fk_model, "block_forward", counted)
    return names


def test_last_branch_is_full_depth(monkeypatch):
    cfg = desk_config()
    model = init_model(cfg, seed=3)
    blocks = count_blocks(monkeypatch)
    forward_branch(model, np.arange(6)[None], cfg.n_branches - 1)
    assert len(blocks) == cfg.n_layers + cfg.branch_blocks[-1]


def test_single_layer_single_head_hand_oracle():
    cfg = FamilyConfig(n_layers=1, hidden=4, q_heads=1, kv_heads=1, vocab=11,
                       ctx_len=4, exit_depths=(1,), branch_blocks=(0,), mlp_mult=2)
    model = init_model(cfg, seed=4)
    tokens = np.array([[3, 8]])
    got = forward_branch(model, tokens, 0).data[0]

    # independent scalar-style re-derivation of the block
    def rms(x, g):
        return x / np.sqrt((x * x).mean(-1, keepdims=True) + cfg.rms_eps) * g

    blk = model.backbone[0]
    h = model.embedding.data[tokens[0]].astype(np.float64)
    a = rms(h, blk.attn_norm.data.astype(np.float64))
    q = a @ blk.w_q.data.astype(np.float64)
    k = a @ blk.w_k.data.astype(np.float64)
    v = a @ blk.w_v.data.astype(np.float64)
    half = 2
    inv_freq = cfg.rope_base ** (-np.arange(half) / half)
    for arr in (q, k):
        for pos in range(2):
            ang = pos * inv_freq
            x1, x2 = arr[pos, :half].copy(), arr[pos, half:].copy()
            arr[pos, :half] = x1 * np.cos(ang) - x2 * np.sin(ang)
            arr[pos, half:] = x1 * np.sin(ang) + x2 * np.cos(ang)
    s10 = float(q[1] @ k[0]) / 2.0
    s11 = float(q[1] @ k[1]) / 2.0
    e = np.exp(np.array([s10, s11]) - max(s10, s11))
    w = e / e.sum()
    ctx = np.stack([v[0], w[0] * v[0] + w[1] * v[1]])
    h = h + ctx @ blk.w_o.data.astype(np.float64)
    m = rms(h, blk.mlp_norm.data.astype(np.float64))
    gate = m @ blk.w_gate.data.astype(np.float64)
    gate = gate / (1.0 + np.exp(-gate)) * 1.0
    up = m @ blk.w_up.data.astype(np.float64)
    h = h + (gate * up) @ blk.w_down.data.astype(np.float64)
    head = model.exits[0]
    out = rms(h, head.final_norm.data.astype(np.float64)) @ head.lm_proj.data.astype(np.float64)
    assert np.max(np.abs(got - out)) < 1e-5


def test_forward_all_branches_matches_each_branch_bitwise():
    model = init_model(desk_config(), seed=6)
    tokens = np.arange(16).reshape(2, 8)
    outs = forward_all_branches(model, tokens)
    for k in range(2):
        assert np.array_equal(outs[k].data, forward_branch(model, tokens, k).data)


def test_branch_nll_of_every_exit_equals_one_exit_calls():
    # cmd_eval scores every exit in one pass; each keeps its one-exit bits
    model = init_model(desk_config(), seed=6)
    ids = np.random.default_rng(6).integers(0, 256, 70 * 64 + 5)  # bytes: no PAD
    together = branch_nll(model, ids, [0, 1])
    assert together == [branch_nll(model, ids, [k])[0] for k in (0, 1)]
    assert together[0][1] == together[1][1] == 70 * 63


def test_forward_all_branches_single_exit():
    model = init_model(tiny_config(exit_depths=(2,), branch_blocks=(0,)), seed=6)
    tokens = np.arange(8).reshape(1, 8) % 31
    outs = forward_all_branches(model, tokens)
    assert len(outs) == 1
    assert np.array_equal(outs[0].data, forward_branch(model, tokens, 0).data)


def test_no_recompute_call_count(monkeypatch):
    cfg = desk_config()
    model = init_model(cfg, seed=7)
    blocks = count_blocks(monkeypatch)
    forward_all_branches(model, np.arange(6)[None])
    assert len(blocks) == cfg.n_layers + sum(cfg.branch_blocks)
    assert len(set(blocks)) == len(blocks)


def test_backbone_sharing_by_reference():
    model = init_model(desk_config(), seed=8)
    tokens = np.arange(6)[None]
    before = forward_branch(model, tokens, 1).data.copy()
    # mutate a shared backbone layer "through branch 0 training"
    model.backbone[0].w_q.data += 0.05
    after = forward_branch(model, tokens, 1).data
    assert not np.array_equal(before, after)


def test_rotary_position_offset_invariance():
    # attention sees only relative positions: shifting every rotary angle
    # by 7 positions leaves the block output unchanged up to rounding
    cfg = desk_config()
    model = init_model(cfg, seed=9)
    h = model.embedding.data[np.arange(10)][None]
    outs = []
    for offset in (0, 7):
        cos, sin = rope_tables(np.arange(offset, offset + 10), cfg.head_dim, cfg.rope_base)
        outs.append(block_forward(model.backbone[0], h, cfg, cos, sin,
                                  causal_mask(10, cfg.ctx_len), ops=kernels))
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-5


def test_block_forward_rejects_mask_of_wrong_width():
    # every attention call spans ctx_len keys; any other mask is a caller bug
    cfg = desk_config()
    model = init_model(cfg, seed=9)
    h = model.embedding.data[np.arange(5)][None]
    cos, sin = rope_tables(np.arange(5), cfg.head_dim, cfg.rope_base)
    for mask in (causal_mask(5, 5), causal_mask(5, cfg.ctx_len + 1), causal_mask(4, cfg.ctx_len)):
        with pytest.raises(ShapeError):
            block_forward(model.backbone[0], h, cfg, cos, sin, mask, ops=kernels)


def test_block_attention_is_one_node(monkeypatch):
    # under `tensor`, a block's attention context is one node whose parents
    # are exactly the roped queries, the roped keys and the reshaped value
    # projection: no transpose, padding, scale or masked_softmax node sits
    # between the projections and the op, or between the op and w_o
    cfg = desk_config()
    model = init_model(cfg, seed=9)
    t = 10
    roped = []

    def recorded(*args, _original=tensor.rope):
        roped.append(_original(*args))
        return roped[-1]
    monkeypatch.setattr(tensor, "rope", recorded)
    linear_inputs = {}
    cos, sin = rope_tables(np.arange(t), cfg.head_dim, cfg.rope_base)
    block_forward(model.backbone[0], tensor.Tensor(model.embedding.data[np.arange(t)][None]),
                  cfg, cos, sin, causal_mask(t, cfg.ctx_len),
                  tap=lambda name, x: linear_inputs.setdefault(name, x))

    def kind(node):
        return node._bwd.__qualname__.split(".")[0]

    (node,) = linear_inputs[".w_o"]._parents
    assert kind(linear_inputs[".w_o"]) == "reshape" and kind(node) == "attention"
    q, k, v = node._parents
    assert len(roped) == 2 and q is roped[0] and k is roped[1]
    assert kind(v) == "reshape" and v.shape == (1, t, cfg.kv_heads, cfg.head_dim)
    (v_proj,) = v._parents
    assert kind(v_proj) == "matmul" and v_proj._parents[0] is linear_inputs[".w_v"]


def test_gqa_with_equal_heads_is_plain_mha():
    cfg = FamilyConfig(n_layers=1, hidden=16, q_heads=4, kv_heads=4, vocab=11,
                       ctx_len=8, exit_depths=(1,), branch_blocks=(0,), mlp_mult=2)
    model = init_model(cfg, seed=10)
    tokens = np.array([[1, 4, 9, 2]])
    got = forward_branch(model, tokens, 0).data

    # plain MHA path built from the same kernels, no grouping logic at all
    blk = model.backbone[0]
    b, t, dh, hq = 1, 4, cfg.head_dim, cfg.q_heads
    h = model.embedding.data[tokens]
    a = k_rmsnorm(h, blk.attn_norm.data, cfg.rms_eps)
    q = k_matmul(a, blk.w_q.data).reshape(b, t, hq, dh).transpose(0, 2, 1, 3)
    k = k_matmul(a, blk.w_k.data).reshape(b, t, hq, dh).transpose(0, 2, 1, 3)
    v = k_matmul(a, blk.w_v.data).reshape(b, t, hq, dh).transpose(0, 2, 1, 3)
    cos, sin = rope_tables(np.arange(t), dh, cfg.rope_base)
    q = k_rope(np.ascontiguousarray(q), cos, sin)
    k = pad_keys(k_rope(np.ascontiguousarray(k), cos, sin), cfg.ctx_len)
    scores = k_matmul(q, np.ascontiguousarray(k.transpose(0, 1, 3, 2)))
    scores = scores * np.asarray(1.0 / np.sqrt(dh), np.float32)
    allowed = np.tril(np.ones((t, cfg.ctx_len), bool))
    probs = k_masked_softmax(scores, np.broadcast_to(allowed[None, None], scores.shape))
    ctx = np.ascontiguousarray(k_matmul(probs, pad_keys(np.ascontiguousarray(v), cfg.ctx_len))
                               .transpose(0, 2, 1, 3)).reshape(b, t, cfg.hidden)
    h = h + k_matmul(ctx, blk.w_o.data)
    m = k_rmsnorm(h, blk.mlp_norm.data, cfg.rms_eps)
    h = h + k_matmul(k_silu(k_matmul(m, blk.w_gate.data)) * k_matmul(m, blk.w_up.data),
                     blk.w_down.data)
    head = model.exits[0]
    out = k_matmul(k_rmsnorm(h, head.final_norm.data, cfg.rms_eps), head.lm_proj.data)
    assert np.array_equal(got, out)


def test_token_and_length_validation():
    model = init_model(tiny_config(), seed=11)
    with pytest.raises(InputError):
        forward_branch(model, np.array([[40]]), 0)      # vocab is 31
    with pytest.raises(InputError):
        forward_branch(model, np.zeros((1, 30), np.int64), 0)  # ctx is 16
    with pytest.raises(InputError):
        forward_branch(model, np.array([[1]]), 5)


@pytest.mark.parametrize("branches", [[], [1, 0], [0, 0]],
                         ids=["empty", "unsorted", "repeated"])
def test_malformed_branch_list_rejected(branches):
    # never fewer arrays than branches, a branch run twice, or an IndexError
    model = init_model(tiny_config(), seed=11)
    with pytest.raises(InputError, match="ascending"):
        forward_exits(model, np.array([[1, 2]]), branches)


# ---------------------------------------------------------------------------
# extraction and parameter accounting
# ---------------------------------------------------------------------------

def test_extract_matches_branch_bitwise():
    model = init_model(desk_config(), seed=12)
    tokens = np.arange(12).reshape(2, 6)
    for k in range(2):
        sub = extract_submodel(model, k)
        assert np.array_equal(forward_branch(sub, tokens, 0).data,
                              forward_branch(model, tokens, k).data)


def test_extract_last_branch_param_accounting():
    model = init_model(desk_config(), seed=13)
    exit0 = sum(p.data.size for n, p in named_parameters(model) if n.startswith("exits.0."))
    sub = extract_submodel(model, 1)
    assert param_count(sub) == param_count(model) - exit0


def test_extract_shallow_branch_depth():
    model = init_model(desk_config(), seed=14)
    sub = extract_submodel(model, 0)
    assert sub.config.n_layers == 2
    assert sub.config.exit_depths == (2,)
    assert len(sub.exits[0].blocks) == 1


LM = "exits.0.lm_proj"  # (16, 31) under tiny_config


def _factored(params, b_shape, a_shape):
    """`exits.0.lm_proj` replaced by a factor pair of the given shapes."""
    del params[LM]
    params[f"{LM}.B"], params[f"{LM}.A"] = Tensor(np.ones(b_shape)), Tensor(np.ones(a_shape))


@pytest.mark.parametrize("edit", [
    lambda ps: ps.pop("embedding"),
    lambda ps: ps.update(embedding=Tensor(ps["embedding"].data.T)),
    lambda ps: ps.update({"exits.2.lm_proj": ps[LM]}),
    lambda ps: _factored(ps, (16, 2), (2, 31)) or ps.pop(f"{LM}.A"),
    lambda ps: _factored(ps, (16, 2), (3, 31)),
    lambda ps: _factored(ps, (15, 2), (2, 31)),
    lambda ps: ps.update({f"{LM}.B": Tensor(np.ones((16, 2))),
                          f"{LM}.A": Tensor(np.ones((2, 31)))}),
    lambda ps: ps.update({"embedding.B": Tensor(np.ones((31, 2))),
                          "embedding.A": Tensor(np.ones((2, 16)))}) or ps.pop("embedding"),
], ids=["missing", "misshapen", "unplaceable", "factor-unpaired", "factor-ranks-differ",
        "factor-misfits", "dense-and-factored", "factored-non-linear-slot"])
def test_from_parameters_rejects_what_fits_no_slot(edit):
    cfg = tiny_config()
    params = dict(named_parameters(init_model(cfg, seed=4)))
    from_parameters(cfg, params)
    edit(params)
    with pytest.raises(IntegrityError):
        from_parameters(cfg, params)


def test_param_count_closed_form_block():
    cfg = desk_config()
    model = init_model(cfg, seed=15)
    h, dh = cfg.hidden, cfg.head_dim
    kv = cfg.kv_heads * dh
    m = cfg.mlp_mult * h
    block = h * h + 2 * h * kv + h * h + 2 * h * m + m * h + 2 * h
    head = block + h + h * cfg.vocab
    assert param_count(model) == cfg.vocab * h + cfg.n_layers * block + 2 * head


def test_param_count_zero_layer_degenerate():
    cfg = FamilyConfig(n_layers=0, hidden=8, q_heads=2, kv_heads=1, vocab=13,
                       ctx_len=4, exit_depths=(0,), branch_blocks=(0,))
    model = init_model(cfg, seed=16)
    assert param_count(model) == 13 * 8 + (8 + 8 * 13)  # embedding + norm + head
    logits = forward_branch(model, np.array([[1, 2]]), 0)
    assert logits.data.shape == (1, 2, 13)


def test_set_freeze_predicate():
    model = init_model(tiny_config(), seed=17)
    mask = set_freeze(model, lambda name: name.startswith("backbone."))
    assert all(frozen == name.startswith("backbone.") for name, frozen in mask.items())
    assert all(p.requires_grad != mask[n] for n, p in named_parameters(model))
    set_freeze(model, lambda name: False)
    assert all(not f for f in model.freeze_mask.values())


def test_cast_model_float64_matches_float32_closely():
    model = init_model(tiny_config(), seed=18)
    twin = cast_model(model, np.float64)
    tokens = np.array([[1, 2, 3, 4]])
    a = forward_branch(model, tokens, 1).data
    b = forward_branch(twin, tokens, 1).data
    assert b.dtype == np.float64
    assert np.max(np.abs(a - b)) < 1e-4
