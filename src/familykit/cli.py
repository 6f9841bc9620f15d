"""familykit command line: train | expand | compress | eval | generate | analyze | export.

Every command is a pure function of (config, inputs, seed); artifacts land
under --out. `main` reads every command's inputs before the command runs:
the `--section.key=value` overrides, which need `--config`, the run config,
and the paths, where a flag wins over the config's `paths` section. Any
other argument is an error. Exit codes (`EXIT_CODES`): 0 ok, 2 config error
(including a path that cannot be read or written), 3 data error, 4 numeric
or divergence error, 5 integrity error, 1 any other familykit error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .checkpoint import ensure_compatible, load_checkpoint, save_checkpoint, write_file
from .compression import (apply_compression, build_plan, capture_activations,
                          measure_compression)
from .config import Paths, load_run_config, parse_overrides
from .data import BOS, ByteTokenizer, WindowSampler, load_corpus
from .errors import (ConfigError, DataError, FamilyKitError, IntegrityError,
                     NumericError)
from .evaluation import branch_nll
from .expansion import (INIT_MODES, cosine_csv_rows, expand, grown_scope,
                        layer_cosine_similarity, verify_identity)
from .inference import ExitPolicy, generate
from .model import extract_submodel, init_model, param_count
from .rng import SplitRng
from .training import LambdaSchedule, metrics_csv, run_training

log = logging.getLogger("familykit")

EXIT_OK = 0
# (exception class, exit code, message prefix), most specific first
EXIT_CODES = (
    (ConfigError, 2, "config error"),
    (DataError, 3, "data error"),
    (NumericError, 4, "numeric error"),
    (IntegrityError, 5, "integrity error"),
    (FamilyKitError, 1, "error"),
    (OSError, 2, "config error"),
)


def _out_dir(args) -> Path:
    """The output directory, not yet created: a command that is rejected
    before writing its first artifact leaves nothing behind."""
    if not args.paths.out:
        raise ConfigError("an output directory is required (--out or paths.out)")
    return Path(args.paths.out)


def _corpus_ids(path: str | None, source: str) -> np.ndarray:
    """The token ids of the corpus at `path`, which `source` names."""
    if not path:
        raise ConfigError(f"this command needs {source}")
    if not Path(path).exists():
        raise ConfigError(f"corpus path {path} does not exist")
    return load_corpus(path)


def _load_model(args, expected=None):
    ckpt = args.paths.checkpoint
    if not ckpt:
        raise ConfigError("a checkpoint is required (--checkpoint or paths.checkpoint)")
    model, seed, optim = load_checkpoint(ckpt)
    if expected is None and args.cfg is not None:
        expected = args.cfg.model
    if expected is not None:
        ensure_compatible(expected, model.config, f"checkpoint {ckpt}")
    return model, seed, optim


def cmd_train(args) -> int:
    cfg = args.cfg
    if cfg.train is None:
        raise ConfigError("train command needs a train section")
    if args.stop_at is not None and args.stop_at < 0:
        raise ConfigError(f"--stop-at must be >= 0, got {args.stop_at}")
    out = _out_dir(args)
    ids = _corpus_ids(args.paths.corpus, "paths.corpus")
    schedule = cfg.schedule_or_default()
    resume = None
    if args.resume:
        model, seed, resume = load_checkpoint(args.resume)
        ensure_compatible(cfg.model, model.config, f"checkpoint {args.resume}")
        if resume is None:
            raise IntegrityError(f"{args.resume} has no optimizer state to resume from")
        # another seed samples other windows: the result would be neither run
        if seed != cfg.seed:
            raise ConfigError(f"{args.resume} was trained under seed {seed}, not {cfg.seed}")
        if resume[0] > cfg.train.total_steps:
            raise ConfigError(f"{args.resume} is at step {resume[0]}, past train.total_steps "
                              f"{cfg.train.total_steps}")
    else:
        model = init_model(cfg.model, cfg.seed)
    state = run_training(model, ids, cfg.train, schedule, resume=resume, until=args.stop_at)
    save_checkpoint(out / "checkpoint", model, cfg.seed, optimizer=(state.step, state.moments))
    write_file(out / "metrics.csv", metrics_csv(state.metrics))
    final = state.metrics[-1] if state.metrics else None
    if final:
        print(f"trained {state.step} steps; final losses "
              f"{[f'{x:.4f}' for x in final.branch_losses]}")
    print(f"checkpoint: {out / 'checkpoint'}")
    return EXIT_OK


def cmd_expand(args) -> int:
    cfg = args.cfg
    if cfg.expansion is None or cfg.train is None:
        raise ConfigError("expand command needs expansion and train sections")
    out = _out_dir(args)
    model, _, _ = _load_model(args)
    ids = _corpus_ids(args.paths.corpus, "paths.corpus")
    spec = replace(cfg.expansion, init_mode=args.init) if args.init else cfg.expansion

    expanded, report = expand(model, spec)
    probe_rng = SplitRng(cfg.seed).split("identity-probe")
    probe = probe_rng.integers(0, cfg.model.vocab, (4, min(16, cfg.model.ctx_len)))
    deviation = verify_identity(model, expanded, probe, spec.target_branch)
    print(f"identity deviation at t=0: {deviation}")

    schedule = LambdaSchedule.branch_only(expanded.config.n_branches,
                                          spec.target_branch, cfg.train.total_steps)
    # every arm is grown, and so checked, before any arm trains
    grown = {arm: expanded if arm == spec.init_mode
             else expand(model, replace(spec, init_mode=arm))[0]
             for arm in (INIT_MODES if args.ablate else (spec.init_mode,))}
    states = {arm: run_training(m, ids, cfg.train, schedule) for arm, m in grown.items()}
    if args.ablate:
        write_file(out / "ablation.csv",
                   metrics_csv({arm: arm_state.metrics for arm, arm_state in states.items()}))
        print(f"ablation traces written to {out / 'ablation.csv'}")
    state = states[spec.init_mode]
    save_checkpoint(out / "checkpoint", state.model, cfg.seed,
                    optimizer=(state.step, state.moments))
    write_file(out / "metrics.csv", metrics_csv(state.metrics))
    write_file(out / "expansion_report.json",
               json.dumps({"identity_deviation": deviation, **asdict(report)}, indent=2) + "\n")
    print(f"added {report.added_params} parameters; trainable {len(report.trainable)} tensors")
    print(f"checkpoint: {out / 'checkpoint'}")
    return EXIT_OK


def cmd_compress(args) -> int:
    cfg = args.cfg
    if cfg.compression is None:
        raise ConfigError("compress command needs a compression section")
    if cfg.expansion is None:
        raise ConfigError("compress command needs the expansion section that produced "
                          "the checkpoint (to locate the expanded blocks)")
    expected, scope = grown_scope(cfg.model, cfg.expansion)
    out = _out_dir(args)
    model, seed, _ = _load_model(args, expected=expected)
    comp = cfg.compression

    # calibrate on the training text; measure on held-out text when there is one
    ids = _corpus_ids(args.paths.corpus, "paths.corpus for calibration")
    measure_ids = (_corpus_ids(args.paths.eval_corpus, "paths.eval_corpus")
                   if args.paths.eval_corpus else ids)
    # one batch of calib_sequences windows: a corpus that holds fewer is a DataError
    sampler = WindowSampler(ids, comp.calib_tokens, comp.calib_sequences, cfg.seed)
    rng = SplitRng(cfg.seed).split("calibration")
    calib_tokens = sampler.windows[rng.permutation(sampler.n_windows)[:comp.calib_sequences]]

    grams = capture_activations(model, calib_tokens, scope=scope)
    plan = build_plan(model, grams, comp.ratio)
    compressed = apply_compression(model, plan)
    report = measure_compression(model, compressed, measure_ids,
                                 cfg.expansion.target_branch, plan)
    write_file(out / "plan.json", json.dumps(plan.to_dict(), indent=2) + "\n")
    write_file(out / "measure.csv", "\n".join(report.csv_rows()) + "\n")
    save_checkpoint(out / "checkpoint", compressed, seed)
    print(report.summary())
    print(f"achieved removal {plan.achieved_ratio:.2%} of target {comp.ratio:.0%} scope")
    print(f"checkpoint: {out / 'checkpoint'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, _, _ = _load_model(args)
    ids = _corpus_ids(args.paths.eval_corpus, "--eval-corpus or paths.eval_corpus")
    out = _out_dir(args)
    rows = ["branch,exit_depth,perplexity"]
    print(f"{'branch':>6} {'depth':>6} {'perplexity':>12}")
    nlls = branch_nll(model, ids, list(range(model.config.n_branches)), window=args.window)
    for k, (total, count) in enumerate(nlls):
        ppl = float(np.exp(total / count))
        rows.append(f"{k},{model.config.exit_depths[k]},{ppl:.9g}")
        print(f"{k:>6} {model.config.exit_depths[k]:>6} {ppl:>12.4f}")
    write_file(out / "eval.csv", "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_generate(args) -> int:
    model, _, _ = _load_model(args)
    out = _out_dir(args)
    tok = ByteTokenizer()
    prompt = [BOS] + list(tok.encode(args.prompt))
    policy = ExitPolicy(threshold=args.tau,
                        mode="sample" if args.sample else "greedy",
                        temperature=args.temperature,
                        seed=args.seed if args.seed is not None
                        else (args.cfg.seed if args.cfg else 0))
    trace = generate(model, prompt, policy, max_new=args.max_new)
    text = tok.decode_text(trace.tokens)
    write_file(out / "trace.jsonl", trace.jsonl())
    depths = [r.exit_depth for r in trace.records]
    print(text)
    mean_depth = (sum(depths) / len(depths)) if depths else float("nan")
    print(f"[{len(trace.tokens)} tokens, mean exit depth "
          f"{mean_depth:.2f}, truncated={trace.truncated}]")
    return EXIT_OK


def cmd_analyze(args) -> int:
    model, _, _ = _load_model(args)
    out = _out_dir(args)
    tok = ByteTokenizer()
    tokens = np.asarray([BOS] + list(tok.encode(args.text)))
    scores, labels, degenerate = layer_cosine_similarity(model, tokens, branch=args.branch)
    rows = cosine_csv_rows(scores, tokens)
    write_file(out / "cosine.csv", "\n".join(rows) + "\n")
    print(f"wrote {scores.shape[0]} layers x {scores.shape[1]} tokens to {out / 'cosine.csv'}"
          + (" (degenerate rows present)" if degenerate else ""))
    return EXIT_OK


def cmd_export(args) -> int:
    model, seed, _ = _load_model(args)
    out = _out_dir(args)
    sub = extract_submodel(model, args.branch)
    save_checkpoint(out / "checkpoint", sub, seed)
    print(f"exported branch {args.branch}: {param_count(sub)} parameters "
          f"-> {out / 'checkpoint'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="familykit",
                                     description="multi-exit transformer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True, loads_checkpoint=True):
        p.add_argument("--config", required=needs_config, default=None)
        if loads_checkpoint:  # optional: the config's paths.checkpoint stands in
            p.add_argument("--checkpoint", default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("train", help="joint multi-branch training")
    common(p, loads_checkpoint=False)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--stop-at", type=int, default=None,
                   help="pause after this step; resume continues the same schedule")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("expand", help="stabilized block expansion + frozen-backbone training")
    common(p)
    p.add_argument("--ablate", action="store_true",
                   help="run randomized and clone arms, emit two-arm trace CSV")
    p.add_argument("--init", choices=("randomized", "clone"), default=None,
                   help="shorthand for --expansion.init_mode=...")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("compress", help="whitened SVD compression of expanded blocks")
    common(p)
    p.set_defaults(fn=cmd_compress)

    p = sub.add_parser("eval", help="per-branch perplexity")
    common(p, needs_config=False)
    p.add_argument("--eval-corpus", default=None)
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("generate", help="early-exit decoding")
    common(p, needs_config=False)
    p.add_argument("--prompt", required=True)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--max-new", type=int, default=64)
    p.add_argument("--sample", action="store_true")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("analyze", help="per-layer input/output cosine similarity")
    common(p, needs_config=False)
    p.add_argument("--text", default="A fox sat on a box")
    p.add_argument("--branch", type=int, default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("export", help="extract one branch as a standalone model")
    common(p, needs_config=False)
    p.add_argument("--branch", type=int, required=True)
    p.set_defaults(fn=cmd_export)

    return parser


def _read_inputs(args, extra: list[str]) -> None:
    """Parse the overrides, load the run config into `args.cfg` and resolve
    the paths into `args.paths`, each flag over the config's `paths`."""
    overrides = parse_overrides(extra)
    if args.config is None and overrides:
        raise ConfigError(f"overrides need --config: {extra}")
    args.cfg = load_run_config(args.config, overrides) if args.config else None
    flags = {name: getattr(args, name, None) for name in ("checkpoint", "out", "eval_corpus")}
    args.paths = replace(args.cfg.paths if args.cfg else Paths(),
                         **{name: value for name, value in flags.items() if value})


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args, extra = build_parser().parse_known_args(argv)
    try:
        _read_inputs(args, extra)
        return args.fn(args)
    except tuple(cls for cls, _, _ in EXIT_CODES) as exc:
        _, code, prefix = next(entry for entry in EXIT_CODES if isinstance(exc, entry[0]))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
