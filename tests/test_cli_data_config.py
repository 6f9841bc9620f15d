import json
import math
import os
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import desk_run_config, make_corpus

from familykit import cli, errors
from familykit.checkpoint import load_checkpoint, save_checkpoint
from familykit.cli import main as cli_main
from familykit.config import (CompressionConfig, Paths, build_run_config, load_run_config,
                              parse_overrides)
from familykit.data import ByteTokenizer, WindowSampler, load_corpus
from familykit.errors import ConfigError, DataError, InputError
from familykit.evaluation import branch_perplexity
from familykit.expansion import ExpansionSpec
from familykit.model import FamilyConfig, desk_config, init_model, named_parameters
from familykit.training import LambdaSchedule, TrainConfig


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.binary(max_size=200))
def test_tokenizer_bijective_on_bytes(data):
    tok = ByteTokenizer()
    assert tok.decode(tok.encode(data)) == data


def test_tokenizer_specials():
    tok = ByteTokenizer()
    assert tok.decode([72, 256, 105, 257, 258]) == b"Hi"  # specials dropped
    with pytest.raises(InputError):
        tok.decode([300])


def test_tokenizer_text_round_trip():
    tok = ByteTokenizer()
    s = "A fox sat on a box"
    assert tok.decode_text(tok.encode(s)) == s


# ---------------------------------------------------------------------------
# corpus windows
# ---------------------------------------------------------------------------

def test_window_sampler_pure_and_deterministic():
    ids = np.arange(1000) % 256
    s1 = WindowSampler(ids, seq_len=16, batch=4, seed=9)
    s2 = WindowSampler(ids, seq_len=16, batch=4, seed=9)
    for step in (0, 3, 17, 50):
        assert np.array_equal(s1.batch_at(step), s2.batch_at(step))
    assert not np.array_equal(s1.batch_at(0), WindowSampler(ids, 16, 4, 10).batch_at(0))


def test_window_sampler_epoch_reshuffles():
    ids = np.arange(16 * 8) % 256
    s = WindowSampler(ids, seq_len=16, batch=2, seed=1)
    first_epoch = [s.batch_at(i) for i in range(s.batches_per_epoch)]
    second_epoch = [s.batch_at(i + s.batches_per_epoch)
                    for i in range(s.batches_per_epoch)]
    seen1 = np.sort(np.concatenate([b[:, 0] for b in first_epoch]))
    seen2 = np.sort(np.concatenate([b[:, 0] for b in second_epoch]))
    assert np.array_equal(seen1, seen2)  # same windows, different order


def test_corpus_too_short_raises(tmp_path):
    ids = np.arange(30)
    with pytest.raises(DataError):
        WindowSampler(ids, seq_len=16, batch=4, seed=0)
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    with pytest.raises(DataError):
        load_corpus(empty)


# ---------------------------------------------------------------------------
# run config
# ---------------------------------------------------------------------------

def _doc(corpus="/tmp/x"):
    return desk_run_config(corpus)


def test_unknown_keys_rejected_everywhere():
    for path, key in [((), "typo"), (("model",), "dropout"), (("train",), "lr"),
                      (("paths",), "output"), (("compression",), "rank"),
                      (("train",), "seed"), (("expansion",), "seed")]:
        doc = _doc()
        node = doc
        for part in path:
            node = node[part]
        node[key] = 1
        with pytest.raises(ConfigError):
            build_run_config(doc)


def test_seed_env_fallback(monkeypatch):
    doc = _doc()
    del doc["seed"]
    monkeypatch.delenv("FAMILYKIT_SEED", raising=False)
    with pytest.raises(ConfigError):
        build_run_config(doc)
    monkeypatch.setenv("FAMILYKIT_SEED", "77")
    assert build_run_config(doc).seed == 77


def test_overrides_dotted_paths():
    doc = _doc()
    cfg = build_run_config(doc, [("train.peak_lr", "3e-4"), ("model.ctx_len", "32"),
                                 ("compression.ratio", "0.5"), ("train.grad_clip_norm", "0")])
    assert cfg.train.peak_lr == 3e-4
    assert cfg.train.grad_clip_norm == 0  # no clipping, still legal
    assert cfg.model.ctx_len == 32
    assert cfg.compression.ratio == 0.5
    with pytest.raises(ConfigError):
        build_run_config(doc, [("train.learning_rate", "1")])
    with pytest.raises(ConfigError):
        parse_overrides(["--no-equals"])


def test_lambda_section_arity_checked():
    doc = _doc()
    doc["lambda"] = {"kind": "linear_decay", "initial": [1.0], "final": [1.0]}
    with pytest.raises(ConfigError):
        build_run_config(doc)
    doc["lambda"] = {"kind": "linear_decay", "initial": [1.0, 1.0],
                     "final": [0.1, 1.0]}
    cfg = build_run_config(doc)
    assert cfg.lambda_schedule.final == (0.1, 1.0)


@pytest.mark.parametrize("key,value", [
    ("exit_depths", 2), ("exit_depths", None), ("exit_depths", ["a", 4]),
    ("branch_blocks", "x"), ("hidden", "32"),
], ids=["depths-int", "depths-null", "depths-str-item", "blocks-str", "hidden-str"])
def test_mistyped_model_fields_rejected(tmp_path, key, value):
    # a run config gives exit 2, the same config in a checkpoint manifest exit 5
    doc = _doc()
    doc["model"][key] = value
    with pytest.raises(ConfigError):
        build_run_config(doc)
    save_checkpoint(tmp_path / "c", init_model(desk_config(), seed=1), seed=1)
    path = tmp_path / "c" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"][key] = value
    path.write_text(json.dumps(manifest))
    assert cli_main(["export", "--checkpoint", str(tmp_path / "c"), "--branch", "0",
                     "--out", str(tmp_path / "out")]) == 5


@pytest.mark.parametrize("section,key,value", [
    ("train", "batch", "abc"), ("train", "warmup_steps", None), ("train", "seq_len", 2.5),
    ("compression", "ratio", "abc"), ("expansion", "target_branch", KeyError),
    ("lambda", "total_steps", 5), ("paths", "out", 5), (None, "seed", "abc"),
], ids=["batch-str", "warmup-null", "seq-len-float", "ratio-str", "no-target-branch",
        "lambda-total-steps", "out-int", "seed-str"])
def test_mistyped_run_config_exits_2(tmp_path, section, key, value):
    # a one-step run on a real corpus: only the config can make it fail
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(make_corpus(8 * 1024, seed=4))
    doc = desk_run_config(corpus)
    doc["train"].update(total_steps=1, warmup_steps=0)
    node = doc if section is None else doc.setdefault(section, {})
    if value is KeyError:
        del node[key]
    else:
        node[key] = value
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("override", [
    "train.peak_lr=NaN", "train.peak_lr=Infinity", "train.beta1=2", "train.beta2=-1",
    "train.adam_eps=-1", "train.weight_decay=NaN", "train.grad_clip_norm=NaN",
    "model.rms_eps=NaN", "model.rms_eps=1e39", "model.rms_eps=3.5e38", "model.rms_eps=1e-50",
    "model.rope_base=Infinity", "model.rope_base=NaN",
    "model.hidden=-8", "lambda.initial=[NaN, 1.0]", "expansion.gaussian_std=NaN",
    "expansion.gaussian_std=-1", "seed=-5", "seed=18446744073709551616",
    "train.seed=-1", "expansion.seed=-2", "stop-at=-1",
])
def test_out_of_range_numbers_exit_2_before_writing(tmp_path, override):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(make_corpus(8 * 1024, seed=4))
    doc = desk_run_config(corpus)
    doc["train"].update(total_steps=1, warmup_steps=0)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out), f"--{override}"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    ["model.ctx_len=1000000000000"],
    ["model.hidden=4000000000000"],
    ["model.vocab=1000000000000"],
    ["model.n_layers=1000000000000", "model.exit_depths=[2, 1000000000000]"],
], ids=["ctx_len", "hidden", "vocab", "n_layers"])
def test_huge_model_sizes_exit_2_before_allocating(tmp_path, capsys, overrides):
    # each passes every structural check; only the size bound rejects it,
    # before a parameter or buffer is allocated
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(make_corpus(8 * 1024, seed=4))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(desk_run_config(corpus)))
    out = tmp_path / "o"
    argv = ["train", "--config", str(cfg), "--out", str(out)]
    assert cli_main(argv + [f"--{o}" for o in overrides]) == 2
    assert "exceed the bound" in capsys.readouterr().err
    assert not out.exists()


_SECTION_KEYS = {
    "model": [f.name for f in fields(FamilyConfig)],
    "train": [f.name for f in fields(TrainConfig)],
    "lambda": [f.name for f in fields(LambdaSchedule)],
    "expansion": [f.name for f in fields(ExpansionSpec)],
    "compression": [f.name for f in fields(CompressionConfig)],
    "paths": [f.name for f in fields(Paths)],
}
_OVERRIDE_KEYS = st.one_of(
    st.sampled_from([f"{s}.{k}" for s, keys in _SECTION_KEYS.items() for k in keys]),
    st.sampled_from(["seed", "model", "train", "typo", "model.dropout", "train.lr.x",
                     "paths.out.x", ""]))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.integers(-10**400, 10**400), st.integers(-3, 600),
    st.floats(allow_nan=True, allow_infinity=True))
_OVERRIDE_VALUES = st.one_of(
    _JSON_SCALARS.map(json.dumps), st.lists(_JSON_SCALARS, max_size=4).map(json.dumps),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "abc", "[NaN, 1.0]"]))


def _float_fields(obj):
    """Values of every float-annotated field, nested dataclasses included."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _float_fields(value)
        elif "float" in str(f.type) and value is not None:
            yield from value if isinstance(value, tuple) else (value,)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_OVERRIDE_KEYS, _OVERRIDE_VALUES)
def test_random_override_gives_config_error_or_finite_config(key, value):
    try:
        cfg = build_run_config(_doc(), [(key, value)])
    except ConfigError:
        return
    assert all(math.isfinite(float(x)) for x in _float_fields(cfg))


@pytest.fixture(scope="module")
def one_step_run(tmp_path_factory):
    """A desk run config over a real corpus, and a directory for outputs."""
    root = tmp_path_factory.mktemp("override-cli")
    corpus = root / "corpus.txt"
    corpus.write_bytes(make_corpus(8 * 1024, seed=4))
    cfg = root / "run.json"
    cfg.write_text(json.dumps(desk_run_config(corpus)))
    return cfg, root


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_OVERRIDE_KEYS, _OVERRIDE_VALUES)
@example("train.seed", "-1")
def test_random_override_through_cli_exits_with_a_documented_code(one_step_run, key, value):
    # one training step at most; a rejected run leaves no --out behind
    cfg, root = one_step_run
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        out = Path(tmp) / "o"
        try:
            code = cli_main(["train", "--config", str(cfg), "--stop-at", "1",
                             "--out", str(out), f"--{key}={value}"])
        except SystemExit as exc:  # argparse rejects the argument line itself
            code = exc.code
        assert code in (0, 2, 3, 4), (key, value, code)
        assert code == 0 or not out.exists(), (key, value, code)


def test_compress_target_branch_out_of_range_exits_2(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_doc()))
    save_checkpoint(tmp_path / "c", init_model(desk_config(), seed=1), seed=1)
    assert cli_main(["compress", "--config", str(cfg), "--checkpoint", str(tmp_path / "c"),
                     "--out", str(tmp_path / "o"), "--expansion.target_branch=5"]) == 2


def test_compress_huge_n_new_blocks_exits_2(tmp_path, capsys):
    # the grown config is checked against the size bound before a name is
    # built for each new block
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_doc()))
    save_checkpoint(tmp_path / "c", init_model(desk_config(), seed=1), seed=1)
    assert cli_main(["compress", "--config", str(cfg), "--checkpoint", str(tmp_path / "c"),
                     "--out", str(tmp_path / "o"),
                     "--expansion.n_new_blocks=100000000000000000000"]) == 2
    assert "exceed the bound" in capsys.readouterr().err


@pytest.mark.parametrize("final", ["[0.1, 1.0]", "[NaN, 1.0]"], ids=["other", "nan"])
def test_constant_lambda_with_another_final_exits_2(tmp_path, final):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(make_corpus(8 * 1024, seed=4))
    doc = desk_run_config(corpus)
    doc["train"].update(total_steps=1, warmup_steps=0)
    doc["lambda"] = {"kind": "constant", "initial": [0.5, 1.0]}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out),
                     f"--lambda.final={final}"]) == 2
    assert not out.exists()


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_run_config(bad)


# ---------------------------------------------------------------------------
# command surface
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mini_pipeline(tmp_path_factory):
    """A fast 40-step pipeline exercising every command."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    corpus.write_bytes(make_corpus(24 * 1024, seed=3))
    doc = desk_run_config(corpus)
    doc["train"].update(total_steps=40, warmup_steps=4, peak_lr=3e-3, batch=4,
                        seq_len=32)
    doc["compression"].update(calib_sequences=24, calib_tokens=32)
    cfg = root / "run.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["train", "--config", str(cfg), "--out", str(root / "t")]) == 0
    assert cli_main(["expand", "--config", str(cfg),
                     "--checkpoint", str(root / "t" / "checkpoint"),
                     "--out", str(root / "x"),
                     "--train.total_steps=20", "--train.warmup_steps=2"]) == 0
    assert cli_main(["compress", "--config", str(cfg),
                     "--checkpoint", str(root / "x" / "checkpoint"),
                     "--out", str(root / "c")]) == 0
    return {"root": root, "cfg": cfg, "corpus": corpus}


def test_cli_artifacts_exist(mini_pipeline):
    root = mini_pipeline["root"]
    assert (root / "t" / "checkpoint" / "manifest.json").exists()
    assert (root / "t" / "metrics.csv").exists()
    assert (root / "x" / "expansion_report.json").exists()
    report = json.loads((root / "x" / "expansion_report.json").read_text())
    assert report["identity_deviation"] == 0.0
    plan = json.loads((root / "c" / "plan.json").read_text())
    assert abs(plan["achieved_ratio"] - 0.4) <= 0.02
    assert {"name", "L_min", "score", "ratio", "rank", "params_before",
            "params_after"} <= set(plan["matrices"][0])
    assert (root / "c" / "measure.csv").exists()
    assert not list(root.rglob("*.tmp"))  # every artifact was renamed into place


def test_cli_compress_calibrates_on_corpus_and_measures_on_eval_corpus(mini_pipeline,
                                                                      monkeypatch):
    root = mini_pipeline["root"]
    held_out = root / "held_out.txt"
    held_out.write_bytes(make_corpus(4 * 1024, seed=4).upper())  # shares no window
    doc = json.loads(mini_pipeline["cfg"].read_text())
    doc["paths"]["eval_corpus"] = str(held_out)
    cfg = root / "run_eval.json"
    cfg.write_text(json.dumps(doc))
    seen = {}
    for name, at in (("capture_activations", 1), ("measure_compression", 2)):  # token arg
        def recorded(*args, _original=getattr(cli, name), _name=name, _at=at, **kw):
            seen[_name] = np.asarray(args[_at])
            return _original(*args, **kw)
        monkeypatch.setattr(cli, name, recorded)
    assert cli_main(["compress", "--config", str(cfg),
                     "--checkpoint", str(root / "x" / "checkpoint"),
                     "--out", str(root / "c_eval")]) == 0
    train_bytes = mini_pipeline["corpus"].read_bytes()
    for window in seen["capture_activations"]:
        assert bytes(window.astype(np.uint8)) in train_bytes
    assert np.array_equal(seen["measure_compression"], load_corpus(held_out))


@pytest.mark.parametrize("init", ["randomized", "clone"])
def test_cli_expand_ablate_keeps_the_spec_arm(mini_pipeline, tmp_path, init):
    """`--ablate` only adds ablation.csv: the spec's arm is the run that
    `expand` makes without the flag, and its trace is that run's metrics."""
    root = mini_pipeline["root"]
    argv = ["expand", "--config", str(mini_pipeline["cfg"]), "--init", init,
            "--checkpoint", str(root / "t" / "checkpoint"),
            "--train.total_steps=12", "--train.warmup_steps=2"]
    plain, ablate = tmp_path / "plain", tmp_path / "ablate"
    assert cli_main(argv + ["--out", str(plain)]) == 0
    assert cli_main(argv + ["--out", str(ablate), "--ablate"]) == 0
    files = sorted(p.relative_to(plain) for p in plain.rglob("*") if p.is_file())
    assert sorted(p.relative_to(ablate) for p in ablate.rglob("*")
                  if p.is_file() and p.name != "ablation.csv") == files
    for name in files:
        assert (plain / name).read_bytes() == (ablate / name).read_bytes(), name
    metrics = (plain / "metrics.csv").read_text().splitlines()
    rows = (ablate / "ablation.csv").read_text().splitlines()
    assert rows[0] == metrics[0] + ",arm"
    assert [r for r in rows[1:] if r.endswith(f",{init}")] == [m + f",{init}"
                                                               for m in metrics[1:]]


def test_cli_expand_ablate_grows_every_arm_before_training(mini_pipeline, tmp_path,
                                                            monkeypatch):
    """A clone_source outside the backbone is the clone arm's config error:
    `--ablate` with a randomized spec reports it before any arm trains."""
    calls = []
    monkeypatch.setattr(cli, "run_training", lambda *args, **kw: calls.append(args))
    root = mini_pipeline["root"]
    assert cli_main(["expand", "--config", str(mini_pipeline["cfg"]), "--ablate",
                     "--checkpoint", str(root / "t" / "checkpoint"),
                     "--out", str(tmp_path / "o"), "--expansion.clone_source=99"]) == 2
    assert calls == [] and not (tmp_path / "o").exists()


def test_cli_metrics_has_rows_per_branch(mini_pipeline):
    lines = (mini_pipeline["root"] / "t" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "step,branch,loss,lambda,lr,grad_norm"
    assert len(lines) == 1 + 40 * 2


def test_cli_eval_generate_analyze_export(mini_pipeline, tmp_path):
    root, corpus = mini_pipeline["root"], mini_pipeline["corpus"]
    ckpt = str(root / "t" / "checkpoint")
    assert cli_main(["eval", "--checkpoint", ckpt, "--eval-corpus", str(corpus),
                     "--out", str(tmp_path / "e")]) == 0
    lines = (tmp_path / "e" / "eval.csv").read_text().splitlines()
    assert lines[0] == "branch,exit_depth,perplexity" and len(lines) == 3

    assert cli_main(["generate", "--checkpoint", ckpt, "--prompt", "the fox",
                     "--tau", "0.5", "--max-new", "12",
                     "--out", str(tmp_path / "g")]) == 0
    trace_lines = (tmp_path / "g" / "trace.jsonl").read_text().strip().splitlines()
    assert 1 <= len(trace_lines) <= 12
    assert set(json.loads(trace_lines[0])) == {"step", "token_id", "exit_depth",
                                               "confidences"}

    assert cli_main(["analyze", "--checkpoint", ckpt, "--text", "A fox sat on a box",
                     "--out", str(tmp_path / "a")]) == 0
    cos_lines = (tmp_path / "a" / "cosine.csv").read_text().splitlines()
    assert cos_lines[0] == "layer,token_index,token_text,cosine"

    assert cli_main(["export", "--checkpoint", ckpt, "--branch", "0",
                     "--out", str(tmp_path / "s")]) == 0
    sub, _, _ = load_checkpoint(tmp_path / "s" / "checkpoint")
    assert sub.config.n_layers == 2

    # exported sub-model evaluates identically to the in-family branch
    ids = load_corpus(corpus)
    family, _, _ = load_checkpoint(ckpt)
    assert branch_perplexity(sub, ids, 0) == branch_perplexity(family, ids, 0)


@pytest.mark.parametrize("args", [["--branch", "5"], ["--branch", "-1"],
                                  ["--text", "x" * 100]],
                         ids=["branch-past-last", "branch-negative", "text-past-ctx-len"])
def test_cli_analyze_rejects_bad_branch_and_text(tmp_path, args):
    save_checkpoint(tmp_path / "c", init_model(desk_config(), seed=2), seed=2)
    assert cli_main(["analyze", "--checkpoint", str(tmp_path / "c"),
                     "--out", str(tmp_path / "a"), *args]) == 2
    assert not (tmp_path / "a").exists()  # a rejected command leaves no --out behind


@pytest.mark.parametrize("command,flag,bad", [
    ("generate", "--tau", "nan"), ("generate", "--tau", "inf"), ("generate", "--max-new", "-1"),
    ("generate", "--temperature", "nan"), ("generate", "--temperature", "0"),
    ("generate", "--temperature", "-1"),
    ("generate", "--seed", "-1"), ("generate", "--seed", "18446744073709551616"),
    ("eval", "--window", "0"), ("eval", "--window", "-1"),
], ids=["tau-nan", "tau-inf", "max-new-negative", "temperature-nan", "temperature-zero",
        "temperature-negative", "seed-negative", "seed-2**64", "window-zero",
        "window-negative"])
def test_cli_generate_and_eval_reject_bad_numbers(tmp_path, command, flag, bad):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(make_corpus(8 * 1024, seed=5))
    save_checkpoint(tmp_path / "c", init_model(desk_config(), seed=2), seed=2)
    argv = [command, "--checkpoint", str(tmp_path / "c")]
    argv += ["--prompt", "the fox", "--max-new", "2"] if command == "generate" else \
        ["--eval-corpus", str(corpus)]
    if flag in ("--temperature", "--seed"):
        argv.append("--sample")
    artifact = "trace.jsonl" if command == "generate" else "eval.csv"
    assert cli_main(argv + ["--out", str(tmp_path / "bad"), flag, bad]) == 2
    assert not (tmp_path / "bad").exists()  # a rejected command leaves no --out behind
    # the same command with a valid value runs, so the exit above is the flag's
    good = {"--tau": "0.5", "--max-new": "0", "--window": "2", "--temperature": "0.9",
            "--seed": "3"}[flag]
    assert cli_main(argv + ["--out", str(tmp_path / "good"), flag, good]) == 0
    assert (tmp_path / "good" / artifact).exists()


def _checkpoint_command(tmp_path, command) -> list[str]:
    """A runnable `command` on a seeded desk checkpoint, without --out."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(make_corpus(8 * 1024, seed=5))
    save_checkpoint(tmp_path / "c", init_model(desk_config(), seed=2), seed=2)
    return [command, "--checkpoint", str(tmp_path / "c"), *{
        "eval": ["--eval-corpus", str(corpus)],
        "generate": ["--prompt", "the fox", "--max-new", "2"],
        "analyze": [],
        "export": ["--branch", "0"]}[command]]


@pytest.mark.parametrize("stray", ["--x=1", "garbage", "--backfill=always"],
                         ids=["override", "bare-word", "removed-flag"])
@pytest.mark.parametrize("command", ["eval", "generate", "analyze", "export"])
def test_cli_stray_argument_without_config_exits_2(tmp_path, command, stray):
    argv = _checkpoint_command(tmp_path, command)
    assert cli_main(argv + ["--out", str(tmp_path / "bad"), stray]) == 2
    assert not (tmp_path / "bad").exists()  # a rejected command leaves no --out behind
    assert cli_main(argv + ["--out", str(tmp_path / "good")]) == 0


@pytest.mark.parametrize("command", ["eval", "generate", "analyze", "export"])
def test_cli_overrides_with_config(tmp_path, command):
    argv = _checkpoint_command(tmp_path, command)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_doc()))
    argv += ["--config", str(cfg)]
    for bad in ("--model.nope=1", "garbage"):
        assert cli_main(argv + ["--out", str(tmp_path / "bad"), bad]) == 2
        assert not (tmp_path / "bad").exists()
    assert cli_main(argv + ["--out", str(tmp_path / "good"), "--train.total_steps=100"]) == 0


def test_cli_checkpoint_from_config_paths(tmp_path):
    save_checkpoint(tmp_path / "c", init_model(desk_config(), seed=2), seed=2)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(desk_run_config(tmp_path / "corpus.txt",
                                              checkpoint=str(tmp_path / "c"))))
    assert cli_main(["export", "--config", str(cfg), "--branch", "0",
                     "--out", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "checkpoint" / "manifest.json").exists()
    # no checkpoint at all, or one given to train, which loads none, exits 2
    assert cli_main(["export", "--branch", "0", "--out", str(tmp_path / "x")]) == 2
    assert cli_main(["train", "--config", str(cfg), "--checkpoint", str(tmp_path / "c"),
                     "--out", str(tmp_path / "t")]) == 2
    assert not (tmp_path / "x").exists() and not (tmp_path / "t").exists()


def test_cli_exit_codes_table(monkeypatch, capsys):
    coded = {errors.ConfigError: 2, errors.DataError: 3, errors.NumericError: 4,
             errors.IntegrityError: 5}
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.FamilyKitError)]
    for cls in classes + [OSError]:
        expected = 2 if cls is OSError else next(
            (code for base, code in coded.items() if issubclass(cls, base)), 1)

        _, code, prefix = next(entry for entry in cli.EXIT_CODES if issubclass(cls, entry[0]))
        assert code == expected, cls

        def fail(args, cls=cls):
            raise cls("boom")
        monkeypatch.setattr(cli, "cmd_export", fail)
        capsys.readouterr()
        assert cli_main(["export", "--checkpoint", "c", "--branch", "0"]) == expected, cls
        assert capsys.readouterr().err == f"{prefix}: boom\n"


def test_cli_expand_init_flag_sets_init_mode(mini_pipeline, tmp_path):
    root, cfg = mini_pipeline["root"], mini_pipeline["cfg"]
    argv = ["expand", "--config", str(cfg), "--checkpoint", str(root / "t" / "checkpoint"),
            "--train.total_steps=2", "--train.warmup_steps=0"]
    metrics = {}
    for name, extra in [("flag", ["--init", "clone"]),
                        ("override", ["--expansion.init_mode=clone"]),
                        ("randomized", [])]:
        assert cli_main(argv + extra + ["--out", str(tmp_path / name)]) == 0
        metrics[name] = (tmp_path / name / "metrics.csv").read_bytes()
    assert metrics["flag"] == metrics["override"] != metrics["randomized"]


def test_cli_exit_codes(mini_pipeline, tmp_path):
    root, cfg = mini_pipeline["root"], mini_pipeline["cfg"]
    # config error: unknown override key
    assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--train.nope=1"]) == 2
    # config error: missing corpus path
    doc = json.loads(cfg.read_text())
    doc["paths"]["corpus"] = str(tmp_path / "missing.txt")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli_main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # data error: corpus shorter than one batch
    tiny = tmp_path / "tiny.txt"
    tiny.write_bytes(b"abc")
    doc["paths"]["corpus"] = str(tiny)
    bad.write_text(json.dumps(doc))
    assert cli_main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
    # numeric/divergence error
    assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--train.peak_lr=1e6", "--train.warmup_steps=0",
                     "--train.total_steps=30"]) == 4
    # integrity error: config/checkpoint mismatch
    assert cli_main(["eval", "--config", str(cfg), "--checkpoint",
                     str(root / "x" / "checkpoint"), "--eval-corpus",
                     str(mini_pipeline["corpus"]), "--out", str(tmp_path / "o")]) == 5


@pytest.mark.parametrize("case", ["out-is-a-file", "corpus-is-a-directory",
                                  "corpus-missing"])
def test_cli_unusable_paths_exit_2(tmp_path, capsys, case):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(make_corpus(4 * 1024, seed=6))
    out = tmp_path / "out"
    if case == "out-is-a-file":
        out.write_text("not a directory")
    elif case == "corpus-is-a-directory":
        corpus = tmp_path / "corpus-dir"
        corpus.mkdir()
    else:
        corpus = tmp_path / "missing.txt"
    doc = desk_run_config(corpus)
    doc["train"].update(total_steps=2, warmup_steps=1, batch=2, seq_len=16)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_cli_resume_reproduces_uninterrupted_run(mini_pipeline, tmp_path):
    cfg = mini_pipeline["cfg"]
    full = tmp_path / "full"
    part = tmp_path / "part"
    done = tmp_path / "done"
    assert cli_main(["train", "--config", str(cfg), "--out", str(full)]) == 0
    assert cli_main(["train", "--config", str(cfg), "--out", str(part),
                     "--stop-at", "15"]) == 0
    # resuming continues the interrupted trajectory under the same schedule,
    # so the checkpoint after 40 steps is byte-identical
    assert cli_main(["train", "--config", str(cfg), "--out", str(done),
                     "--resume", str(part / "checkpoint")]) == 0
    for name in ("manifest.json", "weights.bin", "optim.bin"):
        assert (full / "checkpoint" / name).read_bytes() == \
            (done / "checkpoint" / name).read_bytes(), name


@pytest.mark.parametrize("override", ["seed=7", "train.total_steps=39"])
def test_cli_resume_of_another_run_exits_2(mini_pipeline, tmp_path, capsys, override):
    # the step-40 checkpoint of seed 42, resumed under seed 7 or with fewer
    # total steps, would continue neither run; nothing is written
    root, cfg = mini_pipeline["root"], mini_pipeline["cfg"]
    assert json.loads(cfg.read_text())["seed"] == 42
    out = tmp_path / "o"
    capsys.readouterr()
    assert cli_main(["train", "--config", str(cfg), "--out", str(out), f"--{override}",
                     "--resume", str(root / "t" / "checkpoint")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_compress_needs_calib_sequences_windows(mini_pipeline, tmp_path):
    # 24 KiB in 32-token windows is 768 windows; asking for more is a data
    # error before any artifact is written, not a smaller calibration set
    root, cfg = mini_pipeline["root"], mini_pipeline["cfg"]
    out = tmp_path / "o"
    assert cli_main(["compress", "--config", str(cfg), "--checkpoint",
                     str(root / "x" / "checkpoint"), "--out", str(out),
                     "--compression.calib_sequences=769"]) == 3
    assert not out.exists()


def test_cli_compress_rejects_a_short_eval_corpus_before_writing(mini_pipeline, tmp_path,
                                                                capsys):
    # the held-out perplexity is measured before the first artifact is written,
    # so a held-out corpus too short to evaluate leaves no plan.json behind
    root, cfg = mini_pipeline["root"], mini_pipeline["cfg"]
    short = tmp_path / "short.txt"
    short.write_bytes(b"abcde")
    out = tmp_path / "o"
    capsys.readouterr()
    assert cli_main(["compress", "--config", str(cfg), "--checkpoint",
                     str(root / "x" / "checkpoint"), "--out", str(out),
                     f"--paths.eval_corpus={short}"]) == 3
    assert "need at least" in capsys.readouterr().err
    assert not out.exists()


def test_cli_resume_requires_optimizer_state(mini_pipeline, tmp_path):
    root, cfg = mini_pipeline["root"], mini_pipeline["cfg"]
    # compressed checkpoints carry no optimizer state
    assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--resume", str(root / "c" / "checkpoint")]) == 5
