"""The exact contracts over randomly drawn small family shapes.

Every contract here is bit for bit, on configurations drawn over n_layers
1-4, any valid exit depths, 0-2 branch blocks per exit, a q/kv head ratio
of 1, 2 or 4, head_dim 2-16, ctx_len 4-64, vocab 5-300 and mlp_mult 1-4,
optionally with one linear slot replaced by a factored pair of random rank:

- the forward over `kernels` equals the forward over the autodiff ops;
- all branches from one pass equal each branch run alone;
- cached early-exit decoding at tau 0, 0.5 and 1.5, lazy and always,
  gives the logits of the extracted sub-model's full-prefix forward, and
  leaves the decode state of one-token-at-a-time decoding: its frontiers,
  and rows and caches equal to a fresh state's run to them, with every
  block row that ran either under a frontier or discarded by a rollback;
  under lazy backfill, after every verified window, no block has run past
  the last position at which an exit that reads it was evaluated;
- an expanded branch equals the original at init;
- `from_parameters` over `named_parameters` gives back every name in order
  with its bits and `requires_grad` flag, and `copy_model` does the same
  sharing no array with its source;
- save -> load -> save gives identical bytes;
- eval NLL sums, calibration Grams and the plan built from them have the
  same bits at 1, 2 and 3 workers.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from familykit import inference, kernels, parallel
from familykit.checkpoint import load_checkpoint, save_checkpoint
from familykit.compression import build_plan, capture_activations
from familykit.errors import NumericError
from familykit.evaluation import EVAL_BATCH, branch_nll
from familykit.expansion import ExpansionSpec, expand, verify_identity
from familykit.inference import EMBEDDING, ExitPolicy, GenState, confidence, generate
from familykit.model import (LINEAR_SLOTS, FamilyConfig, copy_model, extract_submodel,
                             forward_all_branches, forward_branch, forward_exits,
                             from_parameters, init_model, named_parameters, weight_slots)
from familykit.tensor import Tensor


@st.composite
def families(draw):
    n_layers = draw(st.integers(1, 4))
    exit_depths = tuple(d for d in range(1, n_layers) if draw(st.booleans())) + (n_layers,)
    kv_heads = draw(st.integers(1, 2))
    q_heads = kv_heads * draw(st.sampled_from([1, 2, 4]))
    head_dim = draw(st.sampled_from([2, 4, 6, 8, 12, 16]))
    cfg = FamilyConfig(
        n_layers=n_layers, hidden=q_heads * head_dim, q_heads=q_heads, kv_heads=kv_heads,
        vocab=draw(st.integers(5, 300)), ctx_len=draw(st.integers(4, 64)),
        exit_depths=exit_depths,
        branch_blocks=tuple(draw(st.integers(0, 2)) for _ in exit_depths),
        mlp_mult=draw(st.integers(1, 4)))
    model = init_model(cfg, seed=draw(st.integers(0, 2**32 - 1)))
    # a larger head gain spreads the confidences, so tau 0.5 exits at mixed depths
    gain = draw(st.sampled_from([1.0, 40.0]))
    for head in model.exits:
        head.lm_proj.data *= np.float32(gain)
    if draw(st.booleans()):
        params = dict(named_parameters(model))
        name = draw(st.sampled_from([name for name, _, attr in weight_slots(model)
                                     if attr in LINEAR_SLOTS]))
        w = params.pop(name).data
        rank = draw(st.integers(1, min(w.shape)))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        params[f"{name}.B"] = Tensor(rng.standard_normal((w.shape[0], rank)) * 0.1,
                                     requires_grad=True)
        params[f"{name}.A"] = Tensor(rng.standard_normal((rank, w.shape[1])) * 0.1,
                                     requires_grad=True)
        model = from_parameters(cfg, params)
    tokens = np.asarray(draw(st.lists(st.integers(0, cfg.vocab - 1), min_size=2,
                                      max_size=min(cfg.ctx_len, 12))))
    return model, tokens


def _check_forwards(model, tokens):
    n = model.config.n_branches
    batch = np.stack([tokens, tokens[::-1]])
    graph = forward_exits(model, batch, list(range(n)))
    raw = forward_exits(model, batch, list(range(n)), ops=kernels)
    for k in range(n):
        assert np.array_equal(graph[k].data, raw[k])
    for k, logits in enumerate(forward_all_branches(model, batch)):
        assert np.array_equal(logits.data, forward_branch(model, batch, k).data)


def _exit_paths(cfg) -> dict:
    """The decode-state keys of the blocks that each exit reads."""
    return {k: [("backbone", li) for li in range(cfg.exit_depths[k])]
            + [("branch", k, j) for j in range(cfg.branch_blocks[k])]
            for k in range(cfg.n_branches)}


def _sequential_frontier(cfg, trace, backfill, n_positions) -> dict:
    """Block frontiers after decoding one token at a time: a block has run
    every position up to the last query that evaluated an exit on its path,
    and under "always" every position whose emitted token was pushed."""
    blocks = _exit_paths(cfg)
    frontier = {}
    for record in trace.records:
        query = len(trace.prompt) - 1 + record.step
        for k in range(len(record.confidences)):
            frontier.update((key, query + 1) for key in blocks[k])
    if backfill == "always" and n_positions > len(trace.prompt):
        for key in {key for path in blocks.values() for key in path}:
            frontier[key] = max(frontier.get(key, 0), n_positions - 1)
    return frontier


def _check_state(model, state, trace, backfill):
    assert sum(state.exec_count.values()) == sum(state.frontier.values()) + state.discarded_rows
    assert state.frontier == _sequential_frontier(model.config, trace, backfill,
                                                  state.n_positions)
    fresh = GenState(model)
    for t in (trace.prompt + trace.tokens)[:state.n_positions]:
        fresh.push_token(t)
    # deepest reach first, and a backbone layer before a branch it feeds
    for key, stop in sorted(state.frontier.items(), key=lambda kv: (-kv[1], kv[0][0])):
        if key[0] == "backbone":
            fresh.advance_backbone(stop - 1, key[1] + 1)
        else:
            fresh.ensure_branch(key[1], stop - 1)
    assert fresh.frontier == state.frontier
    for key in [EMBEDDING, *state.frontier]:
        assert np.array_equal(fresh.rows[key], state.rows[key]), key
    for key in state.frontier:
        for ours, theirs in zip(state.cache[key], fresh.cache[key]):
            assert np.array_equal(ours, theirs), key


def _audited_verify(cfg):
    """`inference._verify`, then a check of the window it verified: no
    block's frontier passes one beyond the last position at which an exit
    that reads the block has been evaluated, in this window or before. The
    shallowest exit is evaluated at each drafted position (record i of a
    window queries position base + i), a deeper exit at the positions that
    `_verify` asks `exit_logits` for."""
    paths, reach, verify = _exit_paths(cfg), {}, inference._verify

    def evaluated(branch, pos):
        for key in paths[branch]:
            reach[key] = max(reach.get(key, 0), pos + 1)

    def audited(state, records, undecided, base, *rest):
        for i, record in enumerate(records):
            evaluated(record.exit_branch, base + i)
        with mock.patch.object(state, "exit_logits", wraps=state.exit_logits) as calls:
            rejected = verify(state, records, undecided, base, *rest)
        for (branch, positions), _ in calls.call_args_list:
            evaluated(branch, positions[-1])
        for key, stop in state.frontier.items():
            assert stop <= reach.get(key, 0), (key, stop, reach.get(key, 0))
        return rejected
    return audited


def _check_decoding(model, prompt, max_new):
    subs = [extract_submodel(model, k) for k in range(model.config.n_branches)]
    for tau in (0.0, 0.5, 1.5):
        for backfill in ("lazy", "always"):
            state_out = []
            policy = ExitPolicy(threshold=tau, backfill=backfill)
            verify = _audited_verify(model.config) if backfill == "lazy" else inference._verify
            with mock.patch.object(inference, "_verify", verify):
                trace = generate(model, prompt, policy, max_new=max_new, state_out=state_out)
            _check_state(model, state_out[0], trace, backfill)
            context = list(prompt)
            for record in trace.records:
                pos = len(context) - 1
                for k, conf in enumerate(record.confidences):
                    full = forward_branch(subs[k], np.asarray([context]), 0).data[0, -1]
                    assert np.array_equal(full, state_out[0].exit_logits(k, [pos])[0])
                    assert confidence(full) == conf
                assert int(np.argmax(full)) == record.token_id
                context.append(record.token_id)


def _check_expansion(model, tokens, spec):
    grown, _ = expand(model, spec)
    probe = tokens[None]
    assert verify_identity(model, grown, probe, spec.target_branch) == 0.0
    assert np.array_equal(forward_branch(grown, probe, spec.target_branch).data,
                          forward_branch(model, probe, spec.target_branch).data)


def _check_round_trip(model):
    source = copy_model(model)
    for i, (_, p) in enumerate(named_parameters(source)):
        p.requires_grad = i % 3 != 0  # some frozen, so both flags must come back
    named = named_parameters(source)
    for twin, shares in ((from_parameters(source.config, dict(named)), True),
                         (copy_model(source), False)):
        again = named_parameters(twin)
        assert [name for name, _ in again] == [name for name, _ in named]
        for (name, p), (_, q) in zip(named, again):
            assert (q.dtype, q.shape, q.requires_grad) == (p.dtype, p.shape, p.requires_grad)
            assert q.data.tobytes() == p.data.tobytes(), name
            assert np.shares_memory(q.data, p.data) == shares, name
    with tempfile.TemporaryDirectory() as root:
        first, second = Path(root) / "a", Path(root) / "b"
        save_checkpoint(first, source, seed=3)
        loaded, seed, _ = load_checkpoint(first)
        save_checkpoint(second, loaded, seed)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(families(), st.data())
def test_exact_contracts_hold_on_random_families(family, data):
    model, tokens = family
    cfg = model.config
    _check_forwards(model, tokens)
    prompt = tokens[:data.draw(st.integers(1, len(tokens)))].tolist()
    _check_decoding(model, prompt, max_new=data.draw(st.integers(1, 6)))
    _check_expansion(model, tokens, ExpansionSpec(
        target_branch=data.draw(st.integers(0, cfg.n_branches - 1)),
        n_new_blocks=data.draw(st.integers(1, 2)),
        init_mode=data.draw(st.sampled_from(["randomized", "clone"])),
        clone_source=data.draw(st.integers(0, cfg.n_layers - 1)),
        seed=data.draw(st.integers(0, 1000))))
    _check_round_trip(model)


def _eval_and_calibration_bits(model, ids, window, calib):
    """Bytes of every branch's NLL sum and count, the Grams and the plan."""
    scope = dict(named_parameters(model)).__contains__  # a factored slot is out of scope
    nll = [(np.float64(total).tobytes(), count) for total, count in
           (branch_nll(model, ids, k, window) for k in range(model.config.n_branches))]
    calibration = capture_activations(model, calib, scope)
    grams = {name: g.tobytes() for name, g in calibration.items()}
    try:
        plan = build_plan(model, calibration, 0.4)
    except NumericError as exc:  # tiny matrices may miss the budget: then equally
        return nll, grams, repr(exc)
    return nll, grams, plan.to_dict(), {name: (a.tobytes(), b.tobytes())
                                        for name, (a, b) in plan.factors.items()}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(families(), st.data())
def test_worker_count_changes_no_bit_on_random_families(family, data):
    model, _ = family
    cfg = model.config
    window = data.draw(st.integers(2, cfg.ctx_len))
    # one window, counts that are no multiple of 8 or of the worker count,
    # and more than one eval batch; under 2 * MIN_GROUP windows, one group
    n_windows = data.draw(st.sampled_from([1, 13, 37, 53, EVAL_BATCH + 3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    ids = rng.integers(0, cfg.vocab, n_windows * window + data.draw(st.integers(0, window - 1)))
    calib = ids[:n_windows * window].reshape(n_windows, window)
    outcomes = []
    for k in (1, 2, 3):
        with mock.patch.object(parallel, "usable_cpus", lambda: k):
            outcomes.append(_eval_and_calibration_bits(model, ids, window, calib))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
