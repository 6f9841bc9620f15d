"""Acceptance suite: every release criterion as one gated test.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output). The heavyweight pipeline (train 500 steps on the 100 KiB
corpus, expand 300 steps, compress, eval, generate) runs once in a session
fixture and is shared by the criteria that inspect its artifacts.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import (cast_model, desk_run_config, finite_difference_grads, make_corpus,
                      unigram_entropy)

from familykit.checkpoint import load_checkpoint, save_checkpoint
from familykit.cli import main as cli_main
from familykit.compression import (allocate_ratios, decompose, inverted_log_score,
                                   truncation_loss, whiten)
from familykit.data import BOS
from familykit.errors import NumericError
from familykit.evaluation import branch_perplexity
from familykit.expansion import ExpansionSpec, expand, verify_identity
from familykit.inference import ExitPolicy, generate
from familykit.model import (FamilyConfig, desk_config, extract_submodel,
                             forward_all_branches, forward_branch, init_model,
                             named_parameters)
from familykit.tensor import Tensor, backward, cross_entropy
from familykit.training import joint_loss, targets_for


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {num:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. identity at initialization (exact zero-residual expansion)
# ---------------------------------------------------------------------------

def test_criterion_01_identity_at_init():
    t0 = time.perf_counter()
    model = init_model(desk_config(), seed=42)
    grown, _ = expand(model, ExpansionSpec(target_branch=0, n_new_blocks=3, seed=42))
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        prompt = rng.integers(0, 259, (1, int(rng.integers(2, 32))))
        worst = max(worst, verify_identity(model, grown, prompt, branch=0))
    elapsed = time.perf_counter() - t0
    report(1, "identity-at-init", worst == 0.0 and elapsed < 60,
           f"max deviation {worst} over 100 prompts in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. gradient correctness (autodiff vs central finite differences)
# ---------------------------------------------------------------------------

def test_criterion_02_gradient_correctness():
    t0 = time.perf_counter()
    cfg = FamilyConfig(n_layers=2, hidden=16, q_heads=2, kv_heads=1, vocab=31,
                       ctx_len=8, exit_depths=(1, 2), branch_blocks=(0, 0), mlp_mult=2)
    model = cast_model(init_model(cfg, seed=42), np.float64)
    batch = np.random.default_rng(42).integers(0, 31, (2, 6))
    targets = targets_for(batch)

    def loss_fn():
        logits = forward_all_branches(model, batch)
        return joint_loss([cross_entropy(lg, targets) for lg in logits], [0.7, 1.0])

    params = list(named_parameters(model))
    backward(loss_fn())
    ad = {n: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
          for n, p in params}
    for _, p in params:
        p.grad = None
    # h=1e-4 keeps the O(h^2) truncation term well below the gradient scale;
    # gradients under 1e-6 on both sides are numerically zero at this loss
    # scale and compared absolutely (a pure ratio is ill-posed there)
    fd = finite_difference_grads(loss_fn, [p for _, p in params], h=1e-4)

    worst = 0.0
    n_checked = 0
    for n, p in params:
        a, b = ad[n], fd[id(p)]
        mag = np.maximum(np.abs(a), np.abs(b))
        live = mag > 1e-6
        assert np.all(np.abs(a - b)[~live] <= 1e-9), n
        if live.any():
            worst = max(worst, float((np.abs(a - b)[live] / mag[live]).max()))
            n_checked += int(live.sum())
    elapsed = time.perf_counter() - t0
    report(2, "gradient-correctness", worst < 1e-3 and elapsed < 300,
           f"max rel err {worst:.2e} over {n_checked} live gradients, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. loss aggregation and weight linearity
# ---------------------------------------------------------------------------

def test_criterion_03_joint_loss_aggregation():
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(50):
        k = int(rng.integers(1, 6))
        losses = rng.uniform(0.05, 8.0, k)
        weights = rng.uniform(0.0, 3.0, k)
        ours = float(joint_loss([Tensor(x, dtype=np.float64) for x in losses],
                                list(weights)).data)
        oracle = float(np.dot(losses, weights))
        ok = ok and abs(ours - oracle) <= 1e-12 * max(abs(oracle), 1.0)

    model = init_model(desk_config(), seed=42)
    batch = rng.integers(0, 259, (2, 12))
    targets = targets_for(batch)

    def branch_grads(weight0):
        logits = forward_all_branches(model, batch)
        backward(joint_loss([cross_entropy(lg, targets) for lg in logits],
                            [weight0, 1.0]))
        grads = {n: p.grad.copy() for n, p in named_parameters(model)
                 if n.startswith("exits.0.") and p.grad is not None}
        for _, p in named_parameters(model):
            p.grad = None
        return grads

    g1, g2 = branch_grads(0.4), branch_grads(0.8)
    worst_scale = 0.0
    for n in g1:
        denom = np.maximum(np.abs(g2[n]), 1e-30)
        worst_scale = max(worst_scale,
                          float(np.max(np.abs(g2[n] - 2.0 * g1[n]) / denom)))
    report(3, "joint-loss-aggregation", ok and worst_scale < 1e-6,
           f"dot-product oracle ok, doubling error {worst_scale:.2e}")


# ---------------------------------------------------------------------------
# 4. frozen backbone protocol over 300 expansion-training steps
# ---------------------------------------------------------------------------

def test_criterion_04_frozen_backbone(pipeline):
    base, _, _ = load_checkpoint(pipeline["train"] / "checkpoint")
    grown, _, _ = load_checkpoint(pipeline["expand"] / "checkpoint")
    base_params = dict(named_parameters(base))
    ok = True
    detail = ""
    for name, p in named_parameters(grown):
        is_new = name.startswith("exits.0.blocks.") and \
            int(name.split(".")[3]) >= 1
        is_head = name == "exits.0.lm_proj"
        if is_new or is_head:
            continue
        if not np.array_equal(p.data, base_params[name].data):
            ok, detail = False, f"{name} changed"
            break
    trainable = {n for n, frozen in grown.freeze_mask.items() if not frozen}
    expected = {f"exits.0.blocks.{j}.{m}" for j in (1, 2, 3)
                for m in ("w_q", "w_k", "w_v", "w_o", "w_gate", "w_up", "w_down",
                          "attn_norm", "mlp_norm")} | {"exits.0.lm_proj"}
    if trainable != expected:
        ok, detail = False, f"trainable set mismatch: {trainable ^ expected}"
    report(4, "frozen-backbone", ok, detail or
           "all pre-existing parameters bit-identical after 300 steps")


# ---------------------------------------------------------------------------
# 5. compression accounting at R = 0.4
# ---------------------------------------------------------------------------

def test_criterion_05_compression_accounting(pipeline):
    plan = json.loads((pipeline["compress"] / "plan.json").read_text())
    before = sum(int(e["params_before"]) for e in plan["matrices"])
    after = sum(int(e["params_after"]) for e in plan["matrices"])
    achieved = (before - after) / before
    ok = abs(achieved - 0.4) <= 0.02
    # the exit code enforces the same bound: an unachievable budget must
    # raise the numeric error the CLI maps to a nonzero exit
    from familykit.compression import build_plan, gram
    grown, _, _ = load_checkpoint(pipeline["expand"] / "checkpoint")
    rigged = {"exits.0.blocks.1.w_q":
              gram(np.random.default_rng(0).standard_normal((1, 64, 32)))}
    with pytest.raises(NumericError):
        build_plan(grown, rigged, 0.04)
    report(5, "compression-accounting", ok,
           f"removed {achieved:.2%} of {before} scope params (target 40% +/- 2%)")


# ---------------------------------------------------------------------------
# 6. whitened decomposition numerics
# ---------------------------------------------------------------------------

def test_criterion_06_decomposition_numerics():
    rng = np.random.default_rng(42)
    w = rng.standard_normal((8, 8))
    x = rng.standard_normal((8, 64))
    gram = x @ x.T

    a, b = decompose(w, whiten(gram)).factors(8)
    recon = np.linalg.norm(w @ x - (a @ b) @ x) / np.linalg.norm(w @ x)
    full_rank_ok = recon < 1e-4

    losses = [truncation_loss(decompose(w, whiten(gram)), r) for r in range(1, 9)]
    monotone_ok = all(losses[i] >= losses[i + 1] - 1e-9 for i in range(7))

    a3, b3 = decompose(w, whiten(np.eye(8))).factors(3)
    u, s, vt = np.linalg.svd(w)
    plain = u[:, :3] @ np.diag(s[:3]) @ vt[:3]
    eckart_ok = np.max(np.abs(a3 @ b3 - plain)) < 1e-5

    ratios = allocate_ratios({"g": {m: inverted_log_score(3.3) for m in "abc"}}, 0.4)
    symmetric_ok = all(r == 0.4 for r in ratios.values())
    uneven = {m: inverted_log_score(loss) for m, loss in zip("abc", (2.7, 9.1, 30.0))}
    raw_mean = np.mean([len(uneven) * s / math.fsum(uneven.values()) * 0.4
                        for s in uneven.values()])
    mean_ok = abs(raw_mean - 0.4) < 1e-12

    ok = full_rank_ok and monotone_ok and eckart_ok and symmetric_ok and mean_ok
    report(6, "decomposition-numerics", ok,
           f"full-rank rel {recon:.1e}; monotone {monotone_ok}; "
           f"identity-gram==svd {eckart_ok}; symmetric ratio exact {symmetric_ok}; "
           f"group mean exact {mean_ok}")


# ---------------------------------------------------------------------------
# 7. early-exit threshold extremes and monotonicity
# ---------------------------------------------------------------------------

def test_criterion_07_early_exit_extremes(pipeline):
    model, _, _ = load_checkpoint(pipeline["train"] / "checkpoint")
    corpus_text = make_corpus(8 * 1024, seed=9).decode()
    prompts = []
    rng = np.random.default_rng(42)
    for i in range(50):
        if i % 5 == 4:  # mix in hard random-byte prompts
            prompts.append([BOS] + [int(t) for t in rng.integers(0, 256, 8)])
        else:
            start = int(rng.integers(0, len(corpus_text) - 40))
            prompts.append([BOS] + list(corpus_text[start:start + 12].encode()))

    shallow_ok = True
    all_records = []
    bit_equal_ok = True
    final = model.config.n_branches - 1
    for p in prompts:
        lo = generate(model, p, ExitPolicy(threshold=0.0), max_new=6)
        shallow_ok = shallow_ok and all(r.exit_depth == 2 for r in lo.records)
        hi = generate(model, p, ExitPolicy(threshold=1.5), max_new=6)
        # the greedy argmax of one full-prefix forward of the final branch
        logits = forward_branch(model, [p + hi.tokens[:-1]], final).data[0]
        bit_equal_ok = bit_equal_ok and logits[len(p) - 1:].argmax(-1).tolist() == hi.tokens
        all_records.extend(hi.records)

    depths = model.config.exit_depths

    def mean_depth(tau):
        vals = []
        for rec in all_records:
            chosen = len(depths) - 1
            for k, conf in enumerate(rec.confidences):
                if conf >= tau:
                    chosen = k
                    break
            vals.append(depths[chosen])
        return float(np.mean(vals))

    grid = [0.0, 0.25, 0.5, 0.75, 0.9, 1.01]
    means = [mean_depth(t) for t in grid]
    monotone_ok = all(means[i] <= means[i + 1] + 1e-12 for i in range(len(means) - 1))
    mixed = means[0] < means[2] < means[-1] or means[0] == means[-1]
    ok = shallow_ok and bit_equal_ok and monotone_ok
    report(7, "early-exit-extremes", ok,
           f"tau=0 all-shallow {shallow_ok}; tau>1 bit-equal greedy {bit_equal_ok}; "
           f"mean depth over tau grid {['%.2f' % m for m in means]} "
           f"monotone {monotone_ok} (mixed-difficulty spread: {mixed})")


# ---------------------------------------------------------------------------
# 8. exported sub-models evaluate identically to in-family branches
# ---------------------------------------------------------------------------

def test_criterion_08_submodel_equivalence(pipeline, eval_corpus, tmp_path):
    model, _, _ = load_checkpoint(pipeline["train"] / "checkpoint")
    eval_ids = np.frombuffer(eval_corpus.read_bytes(), np.uint8).astype(np.int64)
    worst = 0.0
    for k in range(model.config.n_branches):
        rc = cli_main(["export", "--checkpoint", str(pipeline["train"] / "checkpoint"),
                       "--branch", str(k), "--out", str(tmp_path / f"b{k}")])
        assert rc == 0
        sub, _, _ = load_checkpoint(tmp_path / f"b{k}" / "checkpoint")
        ppl_family = branch_perplexity(model, eval_ids, k)
        ppl_sub = branch_perplexity(sub, eval_ids, 0)
        worst = max(worst, abs(ppl_family - ppl_sub))
    report(8, "submodel-equivalence", worst <= 1e-6,
           f"max perplexity difference {worst:.2e} across branches")


# ---------------------------------------------------------------------------
# 9. training sanity on a 100 KiB corpus
# ---------------------------------------------------------------------------

def test_criterion_09_training_sanity(pipeline, corpus_100k):
    bound = unigram_entropy(corpus_100k.read_bytes())
    lines = (pipeline["train"] / "metrics.csv").read_text().splitlines()[1:]
    last_step = max(int(line.split(",")[0]) for line in lines)
    final = {}
    for line in lines:
        step, branch, loss = line.split(",")[:3]
        if int(step) == last_step:
            final[int(branch)] = float(loss)
    below = all(loss < bound for loss in final.values())
    nested = final[1] <= final[0] + 0.05
    report(9, "training-sanity", below and nested,
           f"final losses {[round(final[k], 4) for k in sorted(final)]} vs "
           f"unigram entropy {bound:.4f}; deeper<=shallower+0.05: {nested}")


# ---------------------------------------------------------------------------
# 10. randomized-vs-clone ablation harness
# ---------------------------------------------------------------------------

def test_criterion_10_ablation_harness(pipeline, tmp_path):
    out = tmp_path / "ablate"
    rc = cli_main(["expand", "--config", str(pipeline["config"]),
                   "--checkpoint", str(pipeline["train"] / "checkpoint"),
                   "--out", str(out), "--ablate",
                   "--train.total_steps=50", "--train.warmup_steps=5"])
    assert rc == 0
    rows = (out / "ablation.csv").read_text().splitlines()
    assert rows[0] == "step,branch,loss,lambda,lr,grad_norm,arm"
    traces = {"randomized": {}, "clone": {}}
    for row in rows[1:]:
        step, branch, loss, *_rest, arm = row.split(",")
        if branch == "0":
            traces[arm][int(step)] = float(loss)
    same_start = traces["randomized"][0] == traces["clone"][0]
    diverged = any(traces["randomized"][s] != traces["clone"][s]
                   for s in range(1, 11))
    final_rand = traces["randomized"][49]
    final_clone = traces["clone"][49]
    ordering = "randomized lower" if final_rand < final_clone else "clone lower"
    report(10, "ablation-harness", same_start and diverged,
           f"step-0 equal {same_start}; diverged by step 10 {diverged}; "
           f"final {final_rand:.4f} vs {final_clone:.4f} ({ordering}, reported only)")


# ---------------------------------------------------------------------------
# 11. determinism and persistence
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path, corpus_100k, eval_corpus):
    cfg_doc = desk_run_config(corpus_100k, eval_corpus=str(eval_corpus))
    cfg_doc["train"].update(total_steps=60, warmup_steps=6)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg_doc))

    def run_pipeline(root):
        root.mkdir()
        assert cli_main(["train", "--config", str(cfg_path),
                         "--out", str(root / "t")]) == 0
        assert cli_main(["expand", "--config", str(cfg_path),
                         "--checkpoint", str(root / "t" / "checkpoint"),
                         "--out", str(root / "x"),
                         "--train.total_steps=40", "--train.warmup_steps=4"]) == 0
        assert cli_main(["compress", "--config", str(cfg_path),
                         "--checkpoint", str(root / "x" / "checkpoint"),
                         "--out", str(root / "c")]) == 0
        assert cli_main(["generate", "--checkpoint", str(root / "c" / "checkpoint"),
                         "--prompt", "the fox", "--tau", "0.5", "--max-new", "16",
                         "--out", str(root / "g")]) == 0

    run_pipeline(tmp_path / "one")
    run_pipeline(tmp_path / "two")
    identical = True
    compared = 0
    for rel in ("t/checkpoint", "x/checkpoint", "c/checkpoint"):
        for f in sorted((tmp_path / "one" / rel).iterdir()):
            other = tmp_path / "two" / rel / f.name
            identical = identical and f.read_bytes() == other.read_bytes()
            compared += 1
    for rel in ("t/metrics.csv", "c/plan.json", "g/trace.jsonl"):
        identical = identical and (tmp_path / "one" / rel).read_bytes() == \
            (tmp_path / "two" / rel).read_bytes()
        compared += 1

    # checkpoint round-trip: save(load(x)) is byte-identical to x
    model, seed, _ = load_checkpoint(tmp_path / "one" / "c" / "checkpoint")
    save_checkpoint(tmp_path / "rt", model, seed)
    for f in sorted((tmp_path / "rt").iterdir()):
        src = tmp_path / "one" / "c" / "checkpoint" / f.name
        identical = identical and f.read_bytes() == src.read_bytes()
        compared += 1
    report(11, "determinism-and-persistence", identical,
           f"{compared} artifacts byte-identical across repeated runs")


# ---------------------------------------------------------------------------
# 12. end-to-end budget
# ---------------------------------------------------------------------------

def test_criterion_12_budget(pipeline):
    total = sum(pipeline["times"].values())
    stages = ", ".join(f"{k} {v:.0f}s" for k, v in pipeline["times"].items())
    report(12, "end-to-end-budget", total < 30 * 60,
           f"train+expand+compress+eval+generate = {total:.0f}s ({stages})")
