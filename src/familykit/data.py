"""Byte-level tokenizer and deterministic corpus batching."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError, InputError
from .rng import SplitRng

BOS = 256
EOS = 257
PAD = 258
VOCAB_SIZE = 259


class ByteTokenizer:
    """Bytes are their own ids (0..255); BOS/EOS/PAD occupy 256..258.

    decode(encode(s)) == s for every byte string; special ids are dropped
    on decode.
    """

    vocab_size = VOCAB_SIZE
    bos = BOS
    eos = EOS
    pad = PAD

    def encode(self, data: bytes | str) -> np.ndarray:
        if isinstance(data, str):
            data = data.encode("utf-8")
        return np.frombuffer(bytes(data), dtype=np.uint8).astype(np.int64)

    def decode(self, ids) -> bytes:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= VOCAB_SIZE):
            raise InputError("token id outside the byte vocabulary")
        return bytes(int(i) for i in ids if i < 256)

    def decode_text(self, ids) -> str:
        return self.decode(ids).decode("utf-8", errors="replace")


def load_corpus(path: str | Path) -> np.ndarray:
    """Tokenize a corpus file to byte ids."""
    raw = Path(path).read_bytes()
    if not raw:
        raise DataError(f"corpus {path} is empty")
    return ByteTokenizer().encode(raw)


class WindowSampler:
    """Non-overlapping seq_len windows, shuffled by a seeded permutation per
    epoch. `windows` is one (n_windows, seq_len) view of the corpus ids.
    batch_at(step) is a pure function of (corpus, seq_len, batch, seed,
    step), which is what makes training resumable bit-exactly."""

    def __init__(self, ids: np.ndarray, seq_len: int, batch: int, seed: int):
        ids = np.asarray(ids, dtype=np.int64)
        seq_len = int(seq_len)
        self.n_windows = len(ids) // seq_len
        self.batch = int(batch)
        self.seed = int(seed)
        if self.n_windows < self.batch:
            raise DataError(
                f"corpus has {self.n_windows} windows of {seq_len} tokens; "
                f"need at least one batch of {batch}")
        self.windows = ids[:self.n_windows * seq_len].reshape(self.n_windows, seq_len)
        self.batches_per_epoch = self.n_windows // self.batch

    def batch_at(self, step: int) -> np.ndarray:
        epoch, idx = divmod(step, self.batches_per_epoch)
        perm = SplitRng(self.seed).split(f"data/epoch/{epoch}").permutation(self.n_windows)
        return self.windows[perm[idx * self.batch:(idx + 1) * self.batch]]
