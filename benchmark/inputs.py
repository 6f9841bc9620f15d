"""Seeded inputs and the shared set-up of every workload.

Everything the program receives is generated here from the workload seed:
a pseudo-English training corpus, held-out text (evaluation windows and
prompts), calibration windows and a warm-start checkpoint. Nothing is
downloaded or read from the repository.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from familykit import checkpoint, model as fk_model, training

CORPUS_BYTES = 64 * 1024
HELDOUT_BYTES = 8 * 1024
EVAL_TOKENS = 2048            # held-out prefix scored by eval and by grow's perplexity
PROMPT_LENGTHS = tuple(range(4, 33, 4))   # stratified over 1..ctx/2, same for every seed
CALIB_SEQUENCES = 32

# The warm start is the cheapest training that still leaves branch 0 confident
# on some tokens and not on others: mean exit depth at tau = 0.5 lands
# strictly between 2 and 4 (about 2.5 to 3.2 over seeds 1..8).
WARM_STEPS = 60

NOUNS = ("fox", "lantern", "harbor", "meadow", "kettle", "sparrow", "wagon", "orchard",
         "miller", "river", "candle", "garden", "bridge", "weaver", "stone", "cloud",
         "shepherd", "window", "forest", "ladder")
VERBS = ("carried", "watched", "followed", "mended", "painted", "crossed", "found",
         "counted", "opened", "passed")
ADJS = ("small", "quiet", "bright", "old", "gentle", "swift", "warm", "pale", "green")
LINKS = ("and then", "while", "because", "so", "but")


def seeded_rng(seed: int, label: str) -> random.Random:
    return random.Random(f"familykit-bench/{seed}/{label}")


def _phrase(rnd: random.Random) -> str:
    noun = rnd.choice(NOUNS)
    return f"the {rnd.choice(ADJS)} {noun}" if rnd.random() < 0.4 else f"the {noun}"


def pseudo_english(n_bytes: int, rnd: random.Random) -> np.ndarray:
    """Byte ids of sentences with strong local structure (learnable in a few
    dozen steps, so early exits become confident on part of the text)."""
    parts, total = [], 0
    while total < n_bytes:
        s = f"{_phrase(rnd)} {rnd.choice(VERBS)} {_phrase(rnd)}"
        if rnd.random() < 0.3:
            s += f" {rnd.choice(LINKS)} {_phrase(rnd)} {rnd.choice(VERBS)} {_phrase(rnd)}"
        s += ". "
        parts.append(s)
        total += len(s)
    raw = "".join(parts)[:n_bytes].encode("ascii")
    return np.frombuffer(raw, np.uint8).astype(np.int64)


@dataclass
class Inputs:
    seed: int
    corpus: np.ndarray          # training text
    eval_ids: np.ndarray        # held-out text that is scored
    prompts: list[np.ndarray]   # held-out prompts, lengths PROMPT_LENGTHS in seeded order
    calib: np.ndarray           # (CALIB_SEQUENCES, ctx) calibration windows


def make_inputs(seed: int, ctx_len: int) -> Inputs:
    corpus = pseudo_english(CORPUS_BYTES, seeded_rng(seed, "corpus"))
    heldout = pseudo_english(HELDOUT_BYTES, seeded_rng(seed, "heldout"))
    pick = seeded_rng(seed, "prompts")
    lengths = list(PROMPT_LENGTHS)
    pick.shuffle(lengths)
    prompt_text = heldout[EVAL_TOKENS:]
    prompts = []
    for n in lengths:
        start = pick.randrange(len(prompt_text) - n)
        prompts.append(prompt_text[start:start + n].copy())
    windows = len(corpus) // ctx_len
    rows = seeded_rng(seed, "calibration").sample(range(windows), CALIB_SEQUENCES)
    calib = np.stack([corpus[w * ctx_len:(w + 1) * ctx_len] for w in rows])
    return Inputs(seed=seed, corpus=corpus, eval_ids=heldout[:EVAL_TOKENS].copy(),
                  prompts=prompts, calib=calib)


def warm_config(seed: int) -> training.TrainConfig:
    return training.TrainConfig(peak_lr=1e-2, warmup_steps=10, total_steps=WARM_STEPS,
                                batch=4, seq_len=32, seed=seed)


def param_bytes(model) -> dict[str, bytes]:
    return {name: p.data.tobytes() for name, p in fk_model.named_parameters(model)}


@dataclass
class SetUp:
    inputs: Inputs
    trained: object     # the warm-start model as trained
    model: object       # the same model after a checkpoint save/load round trip
    seconds: float


def set_up(seed: int, workdir: Path) -> SetUp:
    """Generate inputs, train the warm start and round-trip it through a
    checkpoint; the whole of it is the benchmark's set-up time."""
    t0 = perf_counter()
    cfg = fk_model.desk_config()
    inputs = make_inputs(seed, cfg.ctx_len)
    trained = fk_model.init_model(cfg, seed)
    training.run_training(trained, inputs.corpus, warm_config(seed),
                          training.LambdaSchedule.default(cfg.n_branches, WARM_STEPS),
                          log_every=0)
    path = checkpoint.save_checkpoint(workdir / "warm", trained, seed)
    loaded, _, _ = checkpoint.load_checkpoint(path)
    return SetUp(inputs=inputs, trained=trained, model=loaded, seconds=perf_counter() - t0)
