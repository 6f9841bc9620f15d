"""familykit command line: train | expand | compress | eval | generate | analyze | export.

Every command is a pure function of (config, inputs, seed); artifacts land
under --out. Exit codes: 0 ok, 2 config error (including a path that
cannot be read or written), 3 data error, 4 numeric or divergence error,
5 integrity error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .checkpoint import (OptimizerSnapshot, ensure_compatible, load_checkpoint,
                         save_checkpoint)
from .compression import (apply_compression, build_plan, capture_activations,
                          measure_compression)
from .config import RunConfig, load_run_config, parse_overrides
from .data import BOS, ByteTokenizer, WindowSampler, load_corpus
from .errors import (ConfigError, DataError, FamilyKitError, IntegrityError,
                     NumericError)
from .evaluation import branch_perplexity
from .expansion import (ablation_run, cosine_csv_rows, expand, layer_cosine_similarity,
                        verify_identity)
from .inference import ExitPolicy, generate
from .model import (BLOCK_MATRICES, FamilyConfig, extract_submodel, init_model,
                    param_count)
from .rng import SplitRng
from .training import (LambdaSchedule, TrainState, run_training, write_metrics_csv)

log = logging.getLogger("familykit")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_INTEGRITY = 5


def _out_dir(args, cfg: RunConfig | None) -> Path:
    """The output directory, not yet created: a command that is rejected
    before writing its first artifact leaves nothing behind."""
    out = args.out or (cfg.out if cfg else None)
    if not out:
        raise ConfigError("an output directory is required (--out or paths.out)")
    return Path(out)


def _artifact(out: Path, name: str) -> Path:
    """The path of artifact `name`, creating the output directory first."""
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _corpus_ids(cfg: RunConfig) -> np.ndarray:
    if not cfg.corpus:
        raise ConfigError("paths.corpus is required for this command")
    if not Path(cfg.corpus).exists():
        raise ConfigError(f"corpus path {cfg.corpus} does not exist")
    return load_corpus(cfg.corpus)


def _load_model(args, cfg: RunConfig | None, expected=None):
    ckpt = args.checkpoint or (cfg.checkpoint if cfg else None)
    if not ckpt:
        raise ConfigError("a checkpoint is required (--checkpoint or paths.checkpoint)")
    model, seed, optim = load_checkpoint(ckpt)
    if expected is None and cfg is not None:
        expected = cfg.model
    if expected is not None:
        ensure_compatible(expected, model.config, f"checkpoint {ckpt}")
    return model, seed, optim


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, parse_overrides(args.override))
    if cfg.train is None:
        raise ConfigError("train command needs a train section")
    out = _out_dir(args, cfg)
    ids = _corpus_ids(cfg)
    schedule = cfg.schedule_or_default()
    state = None
    if args.resume:
        model, _, optim = load_checkpoint(args.resume)
        ensure_compatible(cfg.model, model.config, f"checkpoint {args.resume}")
        if optim is None:
            raise IntegrityError(f"{args.resume} has no optimizer state to resume from")
        state = TrainState(model=model, config=cfg.train, schedule=schedule,
                           step=optim.step, moments_m=optim.moments_m,
                           moments_v=optim.moments_v)
    else:
        model = init_model(cfg.model, cfg.seed)
    state = run_training(model, ids, cfg.train, schedule, state=state,
                         until=args.stop_at)
    snapshot = OptimizerSnapshot(step=state.step, moments_m=state.moments_m,
                                 moments_v=state.moments_v)
    save_checkpoint(_artifact(out, "checkpoint"), model, cfg.seed, optimizer=snapshot)
    write_metrics_csv(_artifact(out, "metrics.csv"), state.metrics)
    final = state.metrics[-1] if state.metrics else None
    if final:
        print(f"trained {state.step} steps; final losses "
              f"{[f'{x:.4f}' for x in final.branch_losses]}")
    print(f"checkpoint: {out / 'checkpoint'}")
    return EXIT_OK


def cmd_expand(args) -> int:
    overrides = parse_overrides(args.override)
    if args.init:
        overrides.append(("expansion.init_mode", args.init))
    cfg = load_run_config(args.config, overrides)
    if cfg.expansion is None or cfg.train is None:
        raise ConfigError("expand command needs expansion and train sections")
    out = _out_dir(args, cfg)
    model, _, _ = _load_model(args, cfg)
    ids = _corpus_ids(cfg)
    spec = cfg.expansion

    expanded, report = expand(model, spec)
    probe_rng = SplitRng(cfg.seed).split("identity-probe")
    probe = probe_rng.integers(0, cfg.model.vocab, (4, min(16, cfg.model.ctx_len)))
    deviation = verify_identity(model, expanded, probe, spec.target_branch)
    report.identity_deviation = deviation
    print(f"identity deviation at t=0: {deviation}")

    schedule = LambdaSchedule.branch_only(expanded.config.n_branches,
                                          spec.target_branch, cfg.train.total_steps)
    if args.ablate:
        result = ablation_run(model, ids, spec, cfg.train)
        for i, (arm, state) in enumerate(result.states.items()):
            write_metrics_csv(_artifact(out, "ablation.csv"), state.metrics, arm=arm, append=i > 0)
        state = result.states[spec.init_mode]
        print(f"ablation traces written to {out / 'ablation.csv'}")
    else:
        state = run_training(expanded, ids, cfg.train, schedule)
    trained = state.model
    save_checkpoint(_artifact(out, "checkpoint"), trained, cfg.seed,
                    optimizer=OptimizerSnapshot(step=state.step, moments_m=state.moments_m,
                                                moments_v=state.moments_v))
    write_metrics_csv(_artifact(out, "metrics.csv"), state.metrics)
    _artifact(out, "expansion_report.json").write_text(
        json.dumps(asdict(report), indent=2) + "\n", encoding="utf-8")
    print(f"added {report.added_params} parameters; trainable {len(report.trainable)} tensors")
    print(f"checkpoint: {out / 'checkpoint'}")
    return EXIT_OK


def _compression_scope(cfg: RunConfig) -> tuple[FamilyConfig, set[str]]:
    """The post-expansion config the checkpoint must have, and the names of
    the matrices compression factors in it: the expanded blocks and the head."""
    if cfg.expansion is None:
        raise ConfigError("compress command needs the expansion section that produced "
                          "the checkpoint (to locate the expanded blocks)")
    target, n_new = cfg.expansion.target_branch, cfg.expansion.n_new_blocks
    if not 0 <= target < cfg.model.n_branches:
        raise ConfigError(f"expansion.target_branch {target} is not a branch of the model")
    bb = list(cfg.model.branch_blocks)
    bb[target] += n_new
    names = {f"exits.{target}.blocks.{j}.{m}"
             for j in range(bb[target] - n_new, bb[target])
             for m in BLOCK_MATRICES}
    names.add(f"exits.{target}.lm_proj")
    return replace(cfg.model, branch_blocks=tuple(bb)), names


def cmd_compress(args) -> int:
    cfg = load_run_config(args.config, parse_overrides(args.override))
    if cfg.compression is None:
        raise ConfigError("compress command needs a compression section")
    expected, scope_names = _compression_scope(cfg)
    out = _out_dir(args, cfg)
    model, seed, _ = _load_model(args, cfg, expected=expected)
    comp = cfg.compression

    calib_source = cfg.eval_corpus or cfg.corpus
    if not calib_source or not Path(calib_source).exists():
        raise ConfigError("compress needs paths.eval_corpus or paths.corpus for calibration")
    ids = load_corpus(calib_source)
    sampler = WindowSampler(ids, comp.calib_tokens, 1, cfg.seed)
    rng = SplitRng(cfg.seed).split("calibration")
    n = min(comp.calib_sequences, sampler.n_windows)
    picks = rng.permutation(sampler.n_windows)[:n]
    calib_tokens = np.stack([sampler.window(int(w)) for w in picks])

    calib = capture_activations(model, calib_tokens, scope=lambda name: name in scope_names)
    plan = build_plan(model, calib, comp.ratio)
    compressed = apply_compression(model, plan)
    _artifact(out, "plan.json").write_text(json.dumps(plan.to_dict(), indent=2) + "\n",
                                   encoding="utf-8")
    eval_ids = load_corpus(cfg.eval_corpus) if cfg.eval_corpus else ids
    report = measure_compression(model, compressed, eval_ids,
                                 cfg.expansion.target_branch, plan)
    _artifact(out, "measure.csv").write_text("\n".join(report.csv_rows()) + "\n", encoding="utf-8")
    save_checkpoint(_artifact(out, "checkpoint"), compressed, seed)
    print(report.summary())
    print(f"achieved removal {plan.achieved_ratio:.2%} of target {comp.ratio:.0%} scope")
    print(f"checkpoint: {out / 'checkpoint'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config, parse_overrides(args.override)) if args.config else None
    model, _, _ = _load_model(args, cfg)
    corpus = args.eval_corpus or (cfg.eval_corpus if cfg else None)
    if not corpus:
        raise ConfigError("eval needs --eval-corpus or paths.eval_corpus")
    ids = load_corpus(corpus)
    out = _out_dir(args, cfg)
    rows = ["branch,exit_depth,perplexity"]
    print(f"{'branch':>6} {'depth':>6} {'perplexity':>12}")
    for k in range(model.config.n_branches):
        ppl = branch_perplexity(model, ids, k, window=args.window)
        rows.append(f"{k},{model.config.exit_depths[k]},{ppl:.9g}")
        print(f"{k:>6} {model.config.exit_depths[k]:>6} {ppl:>12.4f}")
    _artifact(out, "eval.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg = load_run_config(args.config, parse_overrides(args.override)) if args.config else None
    model, _, _ = _load_model(args, cfg)
    out = _out_dir(args, cfg)
    tok = ByteTokenizer()
    prompt = [BOS] + list(tok.encode(args.prompt))
    policy = ExitPolicy(threshold=args.tau,
                        mode="sample" if args.sample else "greedy",
                        temperature=args.temperature,
                        seed=args.seed if args.seed is not None else (cfg.seed if cfg else 0),
                        backfill=args.backfill)
    trace = generate(model, prompt, policy, max_new=args.max_new)
    text = tok.decode_text(trace.tokens)
    _artifact(out, "trace.jsonl").write_text(trace.jsonl(), encoding="utf-8")
    depths = [r.exit_depth for r in trace.records]
    print(text)
    mean_depth = (sum(depths) / len(depths)) if depths else float("nan")
    print(f"[{len(trace.tokens)} tokens, mean exit depth "
          f"{mean_depth:.2f}, truncated={trace.truncated}]")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = load_run_config(args.config, parse_overrides(args.override)) if args.config else None
    model, _, _ = _load_model(args, cfg)
    out = _out_dir(args, cfg)
    tok = ByteTokenizer()
    tokens = np.asarray([BOS] + list(tok.encode(args.text)))
    scores, labels, degenerate = layer_cosine_similarity(model, tokens, branch=args.branch)
    rows = cosine_csv_rows(scores, tokens)
    _artifact(out, "cosine.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {scores.shape[0]} layers x {scores.shape[1]} tokens to {out / 'cosine.csv'}"
          + (" (degenerate rows present)" if degenerate else ""))
    return EXIT_OK


def cmd_export(args) -> int:
    cfg = load_run_config(args.config, parse_overrides(args.override)) if args.config else None
    model, seed, _ = _load_model(args, cfg)
    out = _out_dir(args, cfg)
    sub = extract_submodel(model, args.branch)
    save_checkpoint(_artifact(out, "checkpoint"), sub, seed)
    counts = param_count(sub)
    print(f"exported branch {args.branch}: {counts['total']} parameters "
          f"-> {out / 'checkpoint'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="familykit",
                                     description="multi-exit transformer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True, needs_checkpoint=False):
        p.add_argument("--config", required=needs_config, default=None)
        p.add_argument("--checkpoint", required=needs_checkpoint, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("train", help="joint multi-branch training")
    common(p)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--stop-at", type=int, default=None,
                   help="pause after this step; resume continues the same schedule")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("expand", help="stabilized block expansion + frozen-backbone training")
    common(p, needs_checkpoint=True)
    p.add_argument("--ablate", action="store_true",
                   help="run randomized and clone arms, emit two-arm trace CSV")
    p.add_argument("--init", choices=("randomized", "clone"), default=None,
                   help="shorthand for --expansion.init_mode=...")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("compress", help="whitened SVD compression of expanded blocks")
    common(p, needs_checkpoint=True)
    p.set_defaults(fn=cmd_compress)

    p = sub.add_parser("eval", help="per-branch perplexity")
    common(p, needs_config=False, needs_checkpoint=True)
    p.add_argument("--eval-corpus", default=None)
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("generate", help="early-exit decoding")
    common(p, needs_config=False, needs_checkpoint=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--max-new", type=int, default=64)
    p.add_argument("--sample", action="store_true")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--backfill", choices=("lazy", "always"), default="lazy")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("analyze", help="per-layer input/output cosine similarity")
    common(p, needs_config=False, needs_checkpoint=True)
    p.add_argument("--text", default="A fox sat on a box")
    p.add_argument("--branch", type=int, default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("export", help="extract one branch as a standalone model")
    common(p, needs_config=False, needs_checkpoint=True)
    p.add_argument("--branch", type=int, required=True)
    p.set_defaults(fn=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    args.override = extra
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except FamilyKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
