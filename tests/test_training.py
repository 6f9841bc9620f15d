import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import desk_run_config, make_corpus, tiny_config, unigram_entropy

import familykit
from familykit import tensor
from familykit.data import WindowSampler
from familykit.errors import ConfigError, DivergenceError
from familykit.model import (copy_model, desk_config, forward_all_branches, init_model,
                             named_parameters, set_freeze)
from familykit.tensor import Tensor, backward, cross_entropy
from familykit.training import (LambdaSchedule, TrainConfig, TrainState, joint_loss,
                                lambda_at, lr_at, metrics_csv, metrics_rows, run_training,
                                targets_for, train_step)


# ---------------------------------------------------------------------------
# joint loss
# ---------------------------------------------------------------------------

def _scalars(values) -> list[Tensor]:
    """Branch losses as `train_step` passes them: float64 scalar Tensors."""
    return [Tensor(v, dtype=np.float64) for v in values]


def test_joint_loss_main_branch_only():
    losses = _scalars([2.5, 1.25, 0.75])
    assert float(joint_loss(losses, [0.0, 0.0, 1.0]).data) == 0.75


def test_joint_loss_hand_case():
    assert float(joint_loss(_scalars([2.0, 3.0]), [1.0, 1.0]).data) == 5.0


def test_joint_loss_dot_product_oracle():
    rng = np.random.default_rng(0)
    losses = rng.uniform(0.1, 9.0, 3)
    weights = rng.uniform(0.0, 2.0, 3)
    ours = float(joint_loss(_scalars(losses), list(weights)).data)
    oracle = float(np.dot(losses.astype(np.float64), weights.astype(np.float64)))
    assert abs(ours - oracle) <= 1e-12 * abs(oracle)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.01, 10), min_size=1, max_size=5),
       st.floats(0.125, 8))
def test_joint_loss_linearity(losses, alpha):
    weights = [1.0] * len(losses)
    a = float(joint_loss(_scalars(losses), [alpha * w for w in weights]).data)
    b = alpha * float(joint_loss(_scalars(losses), weights).data)
    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def test_joint_loss_rejects_float32_losses():
    with pytest.raises(ConfigError):
        joint_loss([Tensor(1.0)], [1.0])


def test_joint_loss_length_mismatch():
    with pytest.raises(ConfigError):
        joint_loss(_scalars([1.0, 2.0]), [1.0])


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_lambda_endpoints_and_midpoint():
    sched = LambdaSchedule(kind="linear_decay", initial=(1.0, 1.0),
                           final=(0.0, 1.0), total_steps=100)
    assert lambda_at(sched, 0) == [1.0, 1.0]
    assert lambda_at(sched, 100) == [0.0, 1.0]
    assert lambda_at(sched, 50) == [0.5, 1.0]
    # steps beyond total clamp to the final values
    assert lambda_at(sched, 1000) == [0.0, 1.0]


def test_lambda_cosine_midpoint():
    sched = LambdaSchedule(kind="cosine_decay", initial=(1.0, 1.0),
                           final=(0.1, 1.0), total_steps=100)
    lam = lambda_at(sched, 50)[0]
    assert abs(lam - (0.1 + 0.9 * 0.5)) < 1e-12


def test_lambda_schedule_validation():
    with pytest.raises(ConfigError):
        LambdaSchedule("linear_decay", (1.0, 0.9), (0.1, 0.9), 10)  # main != 1.0
    with pytest.raises(ConfigError):
        LambdaSchedule("linear_decay", (0.5, 1.0), (0.9, 1.0), 10)  # aux increases
    with pytest.raises(ConfigError):
        LambdaSchedule("exp", (1.0,), (1.0,), 10)
    with pytest.raises(ConfigError, match="nonnegative"):
        LambdaSchedule("constant", (1.0, -0.1, 1.0), (1.0, -0.1, 1.0), 10)
    # a constant schedule's final weights are read, not replaced by the initial ones
    with pytest.raises(ConfigError, match="constant"):
        LambdaSchedule("constant", (0.5, 1.0), (0.1, 1.0), 10)
    with pytest.raises(ConfigError, match="finite"):
        LambdaSchedule("constant", (0.5, 1.0), (math.nan, 1.0), 10)
    assert LambdaSchedule("constant", (0.5, 1.0), (0.5, 1.0), 10).final == (0.5, 1.0)


def test_lambda_purity():
    sched = LambdaSchedule.default(3, 77)
    assert lambda_at(sched, 31) == lambda_at(sched, 31)


def test_lr_schedule_endpoints():
    cfg = TrainConfig(peak_lr=2e-3, warmup_steps=10, total_steps=110,
                      batch=1, seq_len=4)
    assert lr_at(cfg, 0) == 0.0
    assert lr_at(cfg, 10) == 2e-3
    # cosine midpoint: peak * (0.1 + 0.9 * (1 + cos(pi/2)) / 2) == 0.55 * peak
    mid = lr_at(cfg, 60)
    assert abs(mid - 2e-3 * 0.55) < 1e-15
    assert abs(lr_at(cfg, 110) - 2e-3 * 0.1) < 1e-15
    assert lr_at(cfg, 10_000) == lr_at(cfg, 110)
    assert lr_at(cfg, 37) == lr_at(cfg, 37)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(peak_lr=0.0, warmup_steps=0, total_steps=1, batch=1, seq_len=4)
    with pytest.raises(ConfigError):
        TrainConfig(peak_lr=1e-3, warmup_steps=5, total_steps=1, batch=1, seq_len=4)


# ---------------------------------------------------------------------------
# train_step contracts
# ---------------------------------------------------------------------------

def _small_state(seed=0, **tc):
    model = init_model(tiny_config(), seed=seed)
    defaults = dict(peak_lr=1e-3, warmup_steps=0, total_steps=50, batch=2,
                    seq_len=8, seed=seed)
    defaults.update(tc)
    cfg = TrainConfig(**defaults)
    return TrainState(model=model, config=cfg,
                      schedule=LambdaSchedule.default(2, cfg.total_steps))


def _batch(seed=0, shape=(2, 8), vocab=31):
    return np.random.default_rng(seed).integers(0, vocab, shape)


def test_all_frozen_step_advances_without_update():
    state = _small_state()
    set_freeze(state.model, lambda name: True)
    before = {n: p.data.copy() for n, p in named_parameters(state.model)}
    metrics = train_step(state, _batch())
    assert metrics.all_frozen
    assert state.step == 1
    for n, p in named_parameters(state.model):
        assert np.array_equal(before[n], p.data)


def test_one_hot_weights_leave_deep_layers_without_gradient():
    model = init_model(desk_config(), seed=1)
    batch = _batch(1, (2, 10), 259)
    logits = forward_all_branches(model, batch)
    targets = targets_for(batch)
    losses = [cross_entropy(lg, targets) for lg in logits]
    backward(joint_loss(losses, [1.0, 0.0]))
    for name, p in named_parameters(model):
        grad = p.grad
        above = (name.startswith(("backbone.2", "backbone.3", "exits.1")))
        if above:
            assert grad is None or np.all(grad == 0.0), name
        if name == "embedding" or name.startswith("exits.0"):
            assert grad is not None and np.any(grad != 0.0), name


def test_lambda_doubling_scales_branch_gradients_exactly():
    model = init_model(desk_config(), seed=2)
    batch = _batch(2, (2, 10), 259)
    targets = targets_for(batch)

    def grads(weight0):
        logits = forward_all_branches(model, batch)
        losses = [cross_entropy(lg, targets) for lg in logits]
        backward(joint_loss(losses, [weight0, 1.0]))
        out = {n: p.grad.copy() for n, p in named_parameters(model)
               if n.startswith("exits.0.") and p.grad is not None}
        for _, p in named_parameters(model):
            p.grad = None
        return out

    g1, g2 = grads(0.35), grads(0.7)
    for name in g1:
        denom = np.maximum(np.abs(g2[name]), 1e-30)
        assert np.max(np.abs(g2[name] - 2.0 * g1[name]) / denom) < 1e-6, name


def test_frozen_parameters_bit_identical_across_steps():
    state = _small_state(seed=3)
    set_freeze(state.model, lambda name: name.startswith("backbone.0"))
    frozen_before = {n: p.data.copy() for n, p in named_parameters(state.model)
                     if state.model.freeze_mask[n]}
    for step in range(5):
        train_step(state, _batch(step))
    for n, p in named_parameters(state.model):
        if state.model.freeze_mask[n]:
            assert np.array_equal(frozen_before[n], p.data)
        # moments exist exactly for trainable parameters
        assert (n in state.moments) == (not state.model.freeze_mask[n])


def test_cleared_requires_grad_freezes_without_set_freeze():
    # requires_grad is the one record of freezing: a parameter cleared
    # directly gets no moment and no update, weight decay included
    state = _small_state(seed=4)
    w_q = state.model.backbone[0].w_q
    w_q.requires_grad = False
    before = w_q.data.copy()
    for step in range(3):
        train_step(state, _batch(step))
    assert np.array_equal(before, w_q.data)
    assert "backbone.0.w_q" not in state.moments
    assert state.model.freeze_mask["backbone.0.w_q"]


def test_freezing_mid_run_drops_moments_and_unfreezing_restarts_them():
    # the other freezing tests freeze before the first step; here a parameter
    # trains for 2 steps, is frozen for 2, then trains again
    state = _small_state(seed=5)
    w_q = state.model.backbone[0].w_q
    for step in range(2):
        train_step(state, _batch(step))
    old = tuple(a.copy() for a in state.moments["backbone.0.w_q"])
    assert all(np.any(a != 0) for a in old)
    kept = state.moments["backbone.0.w_k"]
    w_q.requires_grad = False
    before = w_q.data.copy()
    for step in range(2, 4):
        train_step(state, _batch(step))
    assert "backbone.0.w_q" not in state.moments
    assert np.array_equal(before, w_q.data)
    assert all(a is b for a, b in zip(state.moments["backbone.0.w_k"], kept))

    w_q.requires_grad = True

    def step_with_w_q_moments(pair):
        twin = TrainState(model=copy_model(state.model), config=state.config,
                          schedule=state.schedule, step=state.step,
                          moments={n: tuple(a.copy() for a in mv)
                                   for n, mv in state.moments.items()})
        twin.moments["backbone.0.w_q"] = tuple(a.copy() for a in pair)
        train_step(twin, _batch(4))
        return twin

    zeros = step_with_w_q_moments((np.zeros_like(before),) * 2)
    stale = step_with_w_q_moments(old)
    train_step(state, _batch(4))
    # the unfrozen parameter steps exactly as from zero moments, not its old ones
    for (n, p), (_, q) in zip(named_parameters(state.model), named_parameters(zeros.model)):
        assert np.array_equal(p.data, q.data), n
    for n, (m, v) in state.moments.items():
        assert np.array_equal(m, zeros.moments[n][0]) and np.array_equal(v, zeros.moments[n][1])
    assert not np.array_equal(w_q.data, stale.model.backbone[0].w_q.data)


def test_divergence_aborts():
    state = _small_state(seed=4)
    state.model.backbone[0].w_q.data[:] = np.nan
    with pytest.raises(DivergenceError):
        train_step(state, _batch(4))


def test_k1_reduces_to_plain_causal_lm_with_adamw_oracle():
    """With a single exit and weight 1.0, the joint trainer must equal a
    hand-rolled causal-LM AdamW loop, step for step."""
    cfg = tiny_config(exit_depths=(2,), branch_blocks=(0,))
    ref = init_model(cfg, seed=5)
    ours = init_model(cfg, seed=5)
    tc = TrainConfig(peak_lr=2e-3, warmup_steps=2, total_steps=8, batch=2,
                     seq_len=8, seed=5)
    schedule = LambdaSchedule(kind="constant", initial=(1.0,), final=(1.0,), total_steps=8)
    corpus = np.frombuffer(make_corpus(2048, seed=5), np.uint8).astype(np.int64) % 31
    sampler = WindowSampler(corpus, tc.seq_len, tc.batch, tc.seed)

    ref_params = dict(named_parameters(ref))
    m_state = {n: np.zeros_like(p.data) for n, p in ref_params.items()}
    v_state = {n: np.zeros_like(p.data) for n, p in ref_params.items()}
    ref_losses = []
    for step in range(tc.total_steps):
        batch = sampler.batch_at(step)
        logits = forward_all_branches(ref, batch)[0]
        loss = cross_entropy(logits, targets_for(batch))
        ref_losses.append(float(loss.data))
        backward(loss)
        sq = sum(float(np.sum(np.square(p.grad.astype(np.float64))))
                 for p in ref_params.values() if p.grad is not None)
        gn = math.sqrt(sq)
        factor = tc.grad_clip_norm / gn if gn > tc.grad_clip_norm else 1.0
        lr = lr_at(tc, step)
        t = step + 1
        for n, p in ref_params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if factor != 1.0:
                g = g * np.float32(factor)
            m_state[n] = m_state[n] * tc.beta1 + (1 - tc.beta1) * g
            v_state[n] = v_state[n] * tc.beta2 + (1 - tc.beta2) * np.square(g)
            upd = (m_state[n] / (1 - tc.beta1 ** t)) / (
                np.sqrt(v_state[n] / (1 - tc.beta2 ** t)) + tc.adam_eps)
            if p.data.ndim >= 2:
                upd = upd + tc.weight_decay * p.data
            p.data -= np.float32(lr) * upd
            p.grad = None

    state = run_training(ours, corpus, tc, schedule, log_every=0)
    our_losses = [m.branch_losses[0] for m in state.metrics]
    assert our_losses == ref_losses
    for n, p in named_parameters(ours):
        assert np.array_equal(p.data, ref_params[n].data), n


def test_short_run_beats_unigram_entropy():
    corpus = make_corpus(1024, seed=6)
    ids = np.frombuffer(corpus, np.uint8).astype(np.int64)
    model = init_model(desk_config(), seed=6)
    tc = TrainConfig(peak_lr=3e-3, warmup_steps=10, total_steps=200, batch=4,
                     seq_len=16, seed=6)
    state = run_training(model, ids, tc, LambdaSchedule.default(2, 200), log_every=0)
    bound = unigram_entropy(corpus)
    assert all(loss < bound for loss in state.metrics[-1].branch_losses)


def test_metrics_csv_schema():
    state = _small_state(seed=7)
    for step in range(3):
        train_step(state, _batch(step))
    lines = metrics_csv(state.metrics).splitlines()
    assert lines[0] == "step,branch,loss,lambda,lr,grad_norm"
    assert len(lines) == 1 + 3 * 2  # one row per branch per step
    assert lines[1].startswith("0,0,") and lines[2].startswith("0,1,")
    rows_with_arm = metrics_rows(state.metrics, arm="clone")
    assert rows_with_arm[0].endswith(",clone")


def test_training_identical_across_processes(tmp_path):
    # gradients run through BLAS; with its thread count pinned, a fresh process
    # must reproduce the parameters, optimizer moments and metrics byte for byte
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(make_corpus(16 * 1024, seed=9))
    doc = desk_run_config(corpus)
    doc["train"].update(total_steps=6, warmup_steps=2)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    src = str(Path(familykit.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = []
    for name in ("one", "two"):
        subprocess.run([sys.executable, "-m", "familykit.cli", "train", "--config", str(cfg),
                        "--out", str(tmp_path / name)], env=env, check=True,
                       capture_output=True, timeout=300)
        out = tmp_path / name
        files = sorted((out / "checkpoint").iterdir()) + [out / "metrics.csv"]
        runs.append({f.name: f.read_bytes() for f in files})
    assert {"weights.bin", "optim.bin", "metrics.csv"} <= set(runs[0])
    assert runs[0] == runs[1]


def test_warning_when_everything_frozen(caplog):
    state = _small_state(seed=8)
    set_freeze(state.model, lambda name: True)
    with caplog.at_level("WARNING"):
        train_step(state, _batch(8))
    assert any("frozen" in r.message for r in caplog.records)


def test_train_steps_reuse_freed_memory():
    # a step frees its whole graph; with the heap kept mapped (tensor.HEAP_NOT_KEPT
    # is None) the next step allocates into those pages instead of faulting fresh ones
    if tensor.HEAP_NOT_KEPT:
        pytest.skip(tensor.HEAP_NOT_KEPT)
    import resource

    cfg = TrainConfig(peak_lr=1e-3, warmup_steps=0, total_steps=50, batch=8, seq_len=64,
                      seed=1)
    state = TrainState(model=init_model(desk_config(), seed=1), config=cfg,
                       schedule=LambdaSchedule.default(2, cfg.total_steps))
    batches = [_batch(step, (8, 64), 259) for step in range(7)]
    for batch in batches[:2]:
        train_step(state, batch)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for batch in batches[2:]:
        train_step(state, batch)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_heap_setting_reports_why_it_did_not_apply(monkeypatch):
    class NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(tensor.ctypes, "CDLL", NoMallopt)
    assert "no mallopt" in tensor._keep_freed_heap()


def test_import_runs_numpy_blas_on_one_thread():
    """A fresh process that asks OpenBLAS for 2 threads and imports familykit
    reads back 1, so compression's factors do not follow the host's CPU count.
    OpenBLAS caps its thread count at the usable CPUs, so on a 1-CPU runner
    the child reads 1 with or without the setting and this test cannot fail."""
    if tensor.BLAS_NOT_PINNED:
        pytest.skip(tensor.BLAS_NOT_PINNED)
    src = str(Path(familykit.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = ("import ctypes, pathlib, numpy, familykit\n"
             "lib, = (pathlib.Path(numpy.__file__).resolve().parent.parent / 'numpy.libs')"
             ".glob('libscipy_openblas64_-*.so')\n"
             "print(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())\n")
    out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "1"


def test_blas_setting_reports_why_it_did_not_apply(monkeypatch):
    class NoSetter:
        def __init__(self, name):
            pass

    monkeypatch.setattr(tensor.ctypes, "CDLL", NoSetter)
    assert "no thread-count setter" in tensor._one_blas_thread()
