import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from familykit.cli import main as cli_main
from familykit.model import (FamilialModel, FamilyConfig, copy_model, desk_config,
                             init_model, named_parameters)
from familykit.tensor import Tensor, matmul, reshape, scale
from familykit.training import LambdaSchedule, TrainConfig, run_training

NOUNS = ["fox", "box", "cat", "dog", "bird", "tree", "river", "stone", "house",
         "cloud", "road", "mouse", "garden", "window", "candle", "forest",
         "meadow", "harbor"]
VERBS = ["sat on", "ran to", "looked at", "slept near", "jumped over",
         "walked past", "hid under", "sang to", "waited by", "drifted past"]
ADJS = ["small", "quiet", "bright", "old", "gentle", "swift", "warm", "pale"]


def make_corpus(n_bytes: int, seed: int = 0) -> bytes:
    """Deterministic pseudo-English with strong local structure."""
    rnd = random.Random(seed)
    out = []
    total = 0
    while total < n_bytes:
        a, b = rnd.choice(NOUNS), rnd.choice(NOUNS)
        v = rnd.choice(VERBS)
        if rnd.random() < 0.4:
            s = f"the {rnd.choice(ADJS)} {a} {v} the {b}. "
        else:
            s = f"the {a} {v} the {b}. "
        out.append(s)
        total += len(s)
    return "".join(out)[:n_bytes].encode()


def unigram_entropy(data: bytes) -> float:
    """Oracle: byte-frequency entropy in nats, straight from counts."""
    counts = np.bincount(np.frombuffer(data, np.uint8), minlength=256).astype(np.float64)
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def sum_all(x: Tensor) -> Tensor:
    """Scalar sum of every element, built from the autodiff matmul."""
    flat = reshape(x, (1, -1))
    return reshape(matmul(flat, Tensor(np.ones((flat.shape[1], 1)), dtype=x.dtype)), ())


def pad_keys(x: np.ndarray, length: int) -> np.ndarray:
    """(..., T, D) -> (..., length, D): zero rows after the T given ones."""
    out = np.zeros(x.shape[:-2] + (length, x.shape[-1]), x.dtype)
    out[..., :x.shape[-2], :] = x
    return out


def mean_all(x: Tensor) -> Tensor:
    return scale(sum_all(x), 1.0 / x.data.size)


def finite_difference_grads(loss_fn, params, h: float = 1e-3) -> dict[int, np.ndarray]:
    """Central-difference gradients of `loss_fn` w.r.t. each parameter tensor,
    keyed by id(param). Independent of the reverse-mode path: only
    re-evaluates the forward."""
    grads = {}
    for p in params:
        g = np.zeros_like(p.data, dtype=np.float64)
        flat = p.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            gf[i] = (up - down) / (2.0 * h)
        grads[id(p)] = g
    return grads


def cast_model(model: FamilialModel, dtype) -> FamilialModel:
    """Copy of the model with every parameter in `dtype` (float64 twins)."""
    out = copy_model(model)
    for _, p in named_parameters(out):
        p.data = p.data.astype(dtype)
    return out


def tiny_config(**overrides) -> FamilyConfig:
    base = dict(n_layers=2, hidden=16, q_heads=2, kv_heads=1, vocab=31, ctx_len=16,
                exit_depths=(1, 2), branch_blocks=(0, 0), mlp_mult=2)
    base.update(overrides)
    return FamilyConfig(**base)


@pytest.fixture(scope="session")
def corpus_100k(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("corpus") / "train.txt"
    path.write_bytes(make_corpus(100 * 1024, seed=0))
    return path


@pytest.fixture(scope="session")
def eval_corpus(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("corpus-eval") / "eval.txt"
    path.write_bytes(make_corpus(8 * 1024, seed=1))
    return path


def desk_run_config(corpus: Path, **paths) -> dict:
    return {
        "seed": 42,
        "model": {"n_layers": 4, "hidden": 32, "q_heads": 4, "kv_heads": 2,
                  "vocab": 259, "ctx_len": 64, "exit_depths": [2, 4],
                  "branch_blocks": [1, 1]},
        "train": {"peak_lr": 1e-3, "warmup_steps": 50, "total_steps": 500,
                  "batch": 8, "seq_len": 64},
        "expansion": {"target_branch": 0, "n_new_blocks": 3,
                      "init_mode": "randomized"},
        "compression": {"ratio": 0.4, "calib_sequences": 64, "calib_tokens": 64},
        "paths": {"corpus": str(corpus), **paths},
    }


@pytest.fixture(scope="session")
def trained_small(corpus_100k):
    """A quickly trained desk model for inference/compression tests."""
    ids = np.frombuffer(corpus_100k.read_bytes(), np.uint8).astype(np.int64)
    model = init_model(desk_config(), seed=7)
    cfg = TrainConfig(peak_lr=3e-3, warmup_steps=20, total_steps=200, batch=8,
                      seq_len=64, seed=7)
    run_training(model, ids, cfg, LambdaSchedule.default(2, 200), log_every=0)
    return model


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory, corpus_100k, eval_corpus):
    """The full desk pipeline via the CLI: train 500 -> expand 300 -> compress
    -> eval -> generate, with per-stage wall times."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(desk_run_config(
        corpus_100k, eval_corpus=str(eval_corpus))))
    times = {}

    def run(stage, argv):
        t0 = time.perf_counter()
        rc = cli_main(argv)
        times[stage] = time.perf_counter() - t0
        assert rc == 0, f"{stage} exited with {rc}"

    run("train", ["train", "--config", str(cfg_path), "--out", str(root / "train")])
    run("expand", ["expand", "--config", str(cfg_path),
                   "--checkpoint", str(root / "train" / "checkpoint"),
                   "--out", str(root / "expand"),
                   "--train.total_steps=300", "--train.warmup_steps=30"])
    run("compress", ["compress", "--config", str(cfg_path),
                     "--checkpoint", str(root / "expand" / "checkpoint"),
                     "--out", str(root / "compress")])
    run("eval", ["eval", "--checkpoint", str(root / "train" / "checkpoint"),
                 "--eval-corpus", str(eval_corpus), "--out", str(root / "eval")])
    run("generate", ["generate", "--checkpoint", str(root / "train" / "checkpoint"),
                     "--prompt", "the fox sat on the", "--tau", "0.5",
                     "--max-new", "32", "--out", str(root / "generate")])
    return {"root": root, "config": cfg_path, "times": times,
            "train": root / "train", "expand": root / "expand",
            "compress": root / "compress", "eval": root / "eval",
            "generate": root / "generate"}
