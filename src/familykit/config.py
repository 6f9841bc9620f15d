"""Run configuration: one JSON document, strict keys, dotted overrides.

Every command takes `--config run.json` plus any number of
`--section.key=value` overrides; unknown keys anywhere are an error so a
typo can never silently fall back to a default. The top-level `seed` is
the run's one seed: the train and expansion sections take it, so a `seed`
key in either is unknown.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .expansion import ExpansionSpec
from .model import FamilyConfig, from_fields
from .training import LambdaSchedule, TrainConfig

ENV_SEED = "FAMILYKIT_SEED"

_TOP_KEYS = {"seed", "model", "train", "lambda", "expansion", "compression", "paths"}


@dataclass(frozen=True)
class CompressionConfig:
    ratio: float = 0.4
    calib_sequences: int = 64
    calib_tokens: int = 64

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ConfigError("compression ratio must be in (0, 1)")
        if self.calib_sequences < 1 or self.calib_tokens < 2:
            raise ConfigError("calibration size must be positive")


@dataclass(frozen=True)
class Paths:
    corpus: str | None = None
    eval_corpus: str | None = None
    checkpoint: str | None = None
    out: str | None = None


@dataclass
class RunConfig:
    seed: int
    model: FamilyConfig
    paths: Paths
    train: TrainConfig | None = None
    lambda_schedule: LambdaSchedule | None = None
    expansion: ExpansionSpec | None = None
    compression: CompressionConfig | None = None

    def schedule_or_default(self) -> LambdaSchedule:
        if self.lambda_schedule is not None:
            return self.lambda_schedule
        if self.train is None:
            raise ConfigError("a train section is required to build a schedule")
        return LambdaSchedule.default(self.model.n_branches, self.train.total_steps)


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _section(doc: dict, name: str) -> dict:
    if not isinstance(doc[name], dict):
        raise ConfigError(f"{name} must be an object, got {doc[name]!r}")
    return doc[name]


def _apply_override(doc: dict, dotted: str, raw: str) -> None:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def parse_overrides(args: list[str]) -> list[tuple[str, str]]:
    """`--a.b.c=value` pairs; anything else is a config error."""
    out = []
    for arg in args:
        if not arg.startswith("--") or "=" not in arg:
            raise ConfigError(f"unrecognized argument {arg!r} (overrides look like --a.b=v)")
        key, _, value = arg[2:].partition("=")
        out.append((key, value))
    return out


def build_run_config(doc: dict, overrides: list[tuple[str, str]] = ()) -> RunConfig:
    doc = json.loads(json.dumps(doc))  # deep copy, JSON-typed
    for key, value in overrides:
        _apply_override(doc, key, value)
    _check_keys(doc, _TOP_KEYS, "config")
    if "model" not in doc:
        raise ConfigError("config needs a model section")
    model = FamilyConfig.from_dict(doc["model"])

    seed = doc.get("seed")
    if seed is None:
        env = os.environ.get(ENV_SEED)
        if env is None:
            raise ConfigError(f"seed is mandatory (set it in the config or via {ENV_SEED})")
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"{ENV_SEED}={env!r} is not an integer") from None
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")

    train = None
    if "train" in doc:
        train = from_fields(TrainConfig, doc["train"], "train", seed=seed)

    schedule = None
    if "lambda" in doc:
        if train is None:
            raise ConfigError("a lambda section requires a train section")
        ldoc = {"kind": "linear_decay", "initial": [1.0] * model.n_branches,
                **_section(doc, "lambda")}
        ldoc.setdefault("final", ldoc["initial"])
        schedule = from_fields(LambdaSchedule, ldoc, "lambda",
                               total_steps=train.total_steps)
        if len(schedule.initial) != model.n_branches:
            raise ConfigError("lambda weights must list one value per branch")

    expansion = None
    if "expansion" in doc:
        expansion = from_fields(ExpansionSpec, doc["expansion"], "expansion", seed=seed)

    compression = None
    if "compression" in doc:
        compression = from_fields(CompressionConfig, doc["compression"], "compression")

    return RunConfig(seed=seed, model=model,
                     paths=from_fields(Paths, doc.get("paths", {}), "paths"),
                     train=train, lambda_schedule=schedule,
                     expansion=expansion, compression=compression)


def load_run_config(path: str | Path, overrides: list[tuple[str, str]] = ()) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    return build_run_config(doc, overrides)
