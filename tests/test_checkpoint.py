import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cast_model, make_corpus, tiny_config

from familykit.cli import main as cli_main
from familykit import checkpoint
from familykit.checkpoint import (FORMAT_VERSION, OPTIM, WEIGHTS, config_fingerprint,
                                  ensure_compatible, load_checkpoint, save_checkpoint,
                                  write_file)
from familykit.compression import apply_compression, build_plan, capture_activations
from familykit.errors import IntegrityError
from familykit.expansion import ExpansionSpec, expand
from familykit.model import (BLOCK_MATRICES, desk_config, extract_submodel, forward_branch,
                             init_model, named_parameters)
from familykit.training import LambdaSchedule, TrainConfig, metrics_csv, run_training


def _files(path):
    return sorted(p.name for p in path.iterdir())


def test_round_trip_bit_identical(tmp_path):
    model = init_model(tiny_config(), seed=3)
    a = tmp_path / "a"
    b = tmp_path / "b"
    save_checkpoint(a, model, seed=3)
    loaded, seed, optim = load_checkpoint(a)
    assert seed == 3 and optim is None
    save_checkpoint(b, loaded, seed=seed)
    for name in _files(a):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    for (n1, p1), (n2, p2) in zip(named_parameters(model), named_parameters(loaded)):
        assert n1 == n2 and np.array_equal(p1.data, p2.data)


def test_freeze_mask_round_trips(tmp_path):
    model, _ = expand(init_model(desk_config(), seed=4),
                      ExpansionSpec(target_branch=0, n_new_blocks=2, seed=4))
    save_checkpoint(tmp_path / "c", model, seed=4)
    loaded, _, _ = load_checkpoint(tmp_path / "c")
    assert loaded.freeze_mask == model.freeze_mask
    for (n, p), (_, q) in zip(named_parameters(model), named_parameters(loaded)):
        assert p.requires_grad == q.requires_grad, n


def test_factored_weights_round_trip(tmp_path, trained_small):
    grown, _ = expand(trained_small, ExpansionSpec(target_branch=0, n_new_blocks=2, seed=5))
    calib = np.random.default_rng(5).integers(0, 256, (8, 32))
    scope = {f"exits.0.blocks.{j}.{m}" for j in (1, 2)
             for m in ("w_q", "w_k", "w_v", "w_o", "w_gate", "w_up", "w_down")}
    scope.add("exits.0.lm_proj")
    plan = build_plan(grown, capture_activations(grown, calib, scope.__contains__), 0.4)
    compressed = apply_compression(grown, plan)
    save_checkpoint(tmp_path / "c", compressed, seed=5)
    loaded, _, _ = load_checkpoint(tmp_path / "c")
    tokens = np.arange(20).reshape(2, 10)
    assert np.array_equal(forward_branch(loaded, tokens, 0).data,
                          forward_branch(compressed, tokens, 0).data)
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    names = {e["name"] for e in manifest["params"]}
    assert "exits.0.lm_proj.A" in names and "exits.0.lm_proj.B" in names
    # save -> load -> save is byte-identical with factored entries too
    save_checkpoint(tmp_path / "d", loaded, seed=5)
    for name in _files(tmp_path / "c"):
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "d" / name).read_bytes()


def test_manifest_structure(tmp_path):
    model = init_model(tiny_config(), seed=6)
    save_checkpoint(tmp_path / "c", model, seed=6)
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["format_version"] == FORMAT_VERSION == 2
    assert manifest["seed"] == 6
    assert manifest["sha256"] == {
        WEIGHTS: hashlib.sha256((tmp_path / "c" / WEIGHTS).read_bytes()).hexdigest()}
    entry = manifest["params"][0]
    assert set(entry) == {"name", "dtype", "shape", "byte_offset", "byte_length",
                          "trainable"}
    assert entry["dtype"] == "f32"
    total = sum(e["byte_length"] for e in manifest["params"])
    assert total == (tmp_path / "c" / "weights.bin").stat().st_size


def test_version_and_missing_param_errors(tmp_path):
    model = init_model(tiny_config(), seed=7)
    save_checkpoint(tmp_path / "c", model, seed=7)
    manifest_path = tmp_path / "c" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    for version in (1, 99):  # version 1 manifests record no blob digests
        doc["format_version"] = version
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(IntegrityError):
            load_checkpoint(tmp_path / "c")
    doc["format_version"] = FORMAT_VERSION
    doc["params"] = [e for e in doc["params"] if e["name"] != "embedding"]
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(IntegrityError):
        load_checkpoint(tmp_path / "c")
    with pytest.raises(IntegrityError):
        load_checkpoint(tmp_path / "nope")


def test_fingerprint_compatibility():
    a = tiny_config()
    b = tiny_config(hidden=32, q_heads=4)
    assert config_fingerprint(a) == config_fingerprint(tiny_config())
    assert config_fingerprint(a) != config_fingerprint(b)
    with pytest.raises(IntegrityError) as exc:
        ensure_compatible(a, b, "test")
    assert config_fingerprint(a) in str(exc.value)
    assert config_fingerprint(b) in str(exc.value)


def test_resume_is_bit_identical(tmp_path):
    """Training 6 steps, checkpointing, then 6 more must equal one 12-step run:
    same metrics rows, byte-identical final checkpoints."""
    corpus = np.frombuffer(make_corpus(4096, seed=8), np.uint8).astype(np.int64) % 31
    cfg = tiny_config()
    sched = LambdaSchedule.default(2, 12)

    full_model = init_model(cfg, seed=8)
    tc_full = TrainConfig(peak_lr=2e-3, warmup_steps=2, total_steps=12, batch=2,
                          seq_len=8, seed=8)
    full = run_training(full_model, corpus, tc_full, sched, log_every=0)
    save_checkpoint(tmp_path / "full", full_model, 8, (full.step, full.moments))

    part_model = init_model(cfg, seed=8)
    half = run_training(part_model, corpus, tc_full, sched, log_every=0, until=6)
    save_checkpoint(tmp_path / "half", part_model, 8, (half.step, half.moments))

    resumed_model, _, optim = load_checkpoint(tmp_path / "half")
    resumed = run_training(resumed_model, corpus, tc_full, sched, resume=optim, log_every=0)
    save_checkpoint(tmp_path / "resumed", resumed_model, 8, (resumed.step, resumed.moments))

    full_rows = metrics_csv(full.metrics).splitlines()
    tail_rows = metrics_csv(resumed.metrics).splitlines()[1:]
    assert full_rows[1 + 6 * 2:] == tail_rows  # rows for steps 6..11 identical
    for name in _files(tmp_path / "full"):
        assert (tmp_path / "full" / name).read_bytes() == \
            (tmp_path / "resumed" / name).read_bytes(), name


def _edit_manifest(ckpt, edit):
    path = ckpt / "manifest.json"
    doc = json.loads(path.read_text())
    entries = {e["name"]: e for e in doc["params"]}
    edit(entries)
    doc["params"] = list(entries.values())
    path.write_text(json.dumps(doc))


def _rank2_plan(model, seed):
    """Hand-made plan, no calibration: the last block of branch 0 and the
    branch-0 head factored at rank 2."""
    from familykit.compression import CompressionPlan, PlanEntry
    j = len(model.exits[0].blocks) - 1
    names = [f"exits.0.blocks.{j}.{m}" for m in BLOCK_MATRICES] + ["exits.0.lm_proj"]
    rng = np.random.default_rng(seed)
    entries, factors = [], {}
    params = dict(named_parameters(model))
    for name in names:
        in_dim, out_dim = params[name].shape
        factors[name] = (rng.standard_normal((out_dim, 2)).astype(np.float32),
                         rng.standard_normal((2, in_dim)).astype(np.float32))
        entries.append(PlanEntry(name=name, l_min=0.0, score=1.0, ratio=0.5, rank=2,
                                 params_before=in_dim * out_dim,
                                 params_after=2 * (in_dim + out_dim)))
    return CompressionPlan(target_ratio=0.5, entries=entries, factors=factors,
                           params_before=sum(e.params_before for e in entries),
                           params_after=sum(e.params_after for e in entries))


def _compressed_desk(seed):
    """Desk model with branch 0 grown by one block, and that model compressed."""
    grown, _ = expand(init_model(desk_config(), seed=seed),
                      ExpansionSpec(target_branch=0, n_new_blocks=1, seed=seed))
    return grown, apply_compression(grown, _rank2_plan(grown, seed))


def _shape_edit(entries):
    entries["embedding"]["shape"] = [259]


def _length_edit(entries):
    entries["backbone.0.w_q"]["byte_length"] += 4


def _rank_edit(entries):
    a = entries["exits.0.lm_proj.A"]
    a["shape"] = [a["shape"][0] - 1, a["shape"][1]]
    a["byte_length"] = 4 * a["shape"][0] * a["shape"][1]


def _unpaired_edit(entries):
    del entries["exits.0.lm_proj.A"]


def _unplaceable_edit(entries):
    entries["exits.2.lm_proj"] = dict(entries["exits.1.lm_proj"], name="exits.2.lm_proj")


@pytest.mark.parametrize("edit", [_shape_edit, _length_edit, _rank_edit, _unpaired_edit,
                                  _unplaceable_edit],
                         ids=["plain-shape", "byte-length", "factor-rank", "factor-unpaired",
                              "unplaceable"])
def test_entries_checked_against_config(tmp_path, edit):
    _, compressed = _compressed_desk(seed=9)
    save_checkpoint(tmp_path / "c", compressed, seed=9)
    load_checkpoint(tmp_path / "c")
    _edit_manifest(tmp_path / "c", edit)
    with pytest.raises(IntegrityError):
        load_checkpoint(tmp_path / "c")


@pytest.mark.parametrize("damage", ["truncated", "missing", "nan", "inf-moment"])
def test_damaged_weights_rejected(tmp_path, damage):
    # NaN and inf are saved as such, so their blobs match their digests and
    # the finiteness check is what refuses them
    model = init_model(desk_config(), seed=10)
    optimizer = None
    if damage == "nan":
        dict(named_parameters(model))["exits.0.blocks.0.w_up"].data[0, 0] = np.nan
    if damage == "inf-moment":
        optimizer = (1, {n: (np.zeros_like(p.data), np.zeros_like(p.data))
                         for n, p in named_parameters(model)})
        optimizer[1]["exits.0.blocks.0.w_up"][1][0, 0] = np.inf
    save_checkpoint(tmp_path / "c", model, seed=10, optimizer=optimizer)
    blob = tmp_path / "c" / "weights.bin"
    if damage == "truncated":
        blob.write_bytes(blob.read_bytes()[:blob.stat().st_size // 2])
    elif damage == "missing":
        blob.unlink()
    with pytest.raises(IntegrityError):
        load_checkpoint(tmp_path / "c")
    assert cli_main(["eval", "--checkpoint", str(tmp_path / "c"),
                     "--out", str(tmp_path / "out")]) == 5


@pytest.fixture(scope="module")
def saved_with_moments(tmp_path_factory):
    path = tmp_path_factory.mktemp("pristine") / "c"
    _with_moments(path, seed=14)
    return path


@settings(max_examples=30, deadline=None, derandomize=True)
@given(name=st.sampled_from([WEIGHTS, OPTIM]), flip=st.booleans(),
       where=st.floats(0.0, 1.0, exclude_max=True), xor=st.integers(1, 255))
def test_any_truncation_or_byte_flip_exits_5(saved_with_moments, name, flip, where, xor):
    # a flipped byte mostly leaves a finite float32, which only the blob's
    # digest can tell from the saved one
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "c"
        shutil.copytree(saved_with_moments, ckpt)
        raw = bytearray((ckpt / name).read_bytes())
        at = int(where * len(raw))
        if flip:
            raw[at] ^= xor
        else:
            del raw[at:]
        (ckpt / name).write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            load_checkpoint(ckpt)
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--out", str(Path(tmp) / "out")]) == 5


@pytest.mark.parametrize("cut", range(3))
def test_interrupted_save_never_loads_a_mix(tmp_path, monkeypatch, cut):
    # a save over an earlier checkpoint stops before its cut-th rename
    # (weights, moments, manifest): every checkpoint file then holds the
    # earlier save or the new one whole, and the directory loads as the
    # earlier checkpoint or not at all
    _with_moments(tmp_path / "new", seed=16)
    _with_moments(tmp_path / "c", seed=15)
    names = sorted(p.name for p in (tmp_path / "c").iterdir())
    old, new = ({n: (tmp_path / d / n).read_bytes() for n in names} for d in ("c", "new"))
    replace, renames = checkpoint.os.replace, []

    def interrupted(src, dst):
        if len(renames) == cut:
            raise OSError("interrupted")
        renames.append(dst)
        replace(src, dst)

    monkeypatch.setattr(checkpoint.os, "replace", interrupted)
    with pytest.raises(OSError):
        _with_moments(tmp_path / "c", seed=16)
    monkeypatch.undo()
    renamed = [WEIGHTS, OPTIM][:cut]
    assert [Path(p).name for p in renames] == renamed
    for n in names:
        assert (tmp_path / "c" / n).read_bytes() == (new if n in renamed else old)[n]
    if cut == 0:
        assert load_checkpoint(tmp_path / "c")[1] == 15
    else:
        with pytest.raises(IntegrityError):
            load_checkpoint(tmp_path / "c")


def test_write_file_fsyncs_the_temporary_file_before_renaming(tmp_path, monkeypatch):
    # a power loss after the rename must find the file's bytes on disk
    calls, fsync, replace = [], checkpoint.os.fsync, checkpoint.os.replace
    tmp = tmp_path / "out" / ".a.txt.tmp"

    def recorded_fsync(fd):
        calls.append(("fsync", tmp.exists() and
                      os.path.samestat(os.fstat(fd), os.stat(tmp))))
        fsync(fd)

    def recorded_replace(src, dst):
        calls.append(("replace", Path(src) == tmp and Path(dst) == tmp_path / "out" / "a.txt"))
        replace(src, dst)

    monkeypatch.setattr(checkpoint.os, "fsync", recorded_fsync)
    monkeypatch.setattr(checkpoint.os, "replace", recorded_replace)
    write_file(tmp_path / "out" / "a.txt", "caf\u00e9\n")
    assert calls == [("fsync", True), ("replace", True)]
    assert (tmp_path / "out" / "a.txt").read_bytes() == "caf\u00e9\n".encode("utf-8")
    assert _files(tmp_path / "out") == ["a.txt"]


def test_failed_artifact_write_keeps_the_earlier_file_whole(tmp_path, monkeypatch):
    # a second eval into the same --out whose rename fails leaves the first
    # eval.csv as it was, no temporary file, and exits 2 like any OSError
    save_checkpoint(tmp_path / "c", init_model(desk_config(), seed=4), seed=4)
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(make_corpus(2048, seed=4))
    argv = ["eval", "--checkpoint", str(tmp_path / "c"), "--eval-corpus", str(corpus),
            "--out", str(tmp_path / "o")]
    assert cli_main(argv) == 0
    first = (tmp_path / "o" / "eval.csv").read_bytes()

    def refused(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(checkpoint.os, "replace", refused)
    assert cli_main(argv + ["--window", "16"]) == 2
    assert (tmp_path / "o" / "eval.csv").read_bytes() == first
    assert _files(tmp_path / "o") == ["eval.csv"]


def _with_moments(path, seed=12):
    """A desk checkpoint with AdamW moments for every parameter; returns
    its manifest."""
    model = init_model(desk_config(), seed=seed)
    rng = np.random.default_rng(seed)
    moments = {n: tuple(rng.standard_normal(p.shape).astype(np.float32) for _ in "mv")
               for n, p in named_parameters(model)}
    save_checkpoint(path, model, seed=seed, optimizer=(3, moments))
    return json.loads((path / "manifest.json").read_text())


def _first(entries, name):
    return next(e for e in entries if e["name"] == name)


@pytest.mark.parametrize("edit", [
    lambda doc: _first(doc["optimizer"]["entries"], "embedding::m")["shape"].reverse(),
    lambda doc: _first(doc["optimizer"]["entries"], "embedding::m").update(name="embedding"),
    lambda doc: _first(doc["optimizer"]["entries"], "embedding::m").update(name="nothing::m"),
    lambda doc: _first(doc["optimizer"]["entries"], "embedding::m").update(name="embedding::w"),
    lambda doc: doc["optimizer"]["entries"].append(
        dict(_first(doc["optimizer"]["entries"], "embedding::m"))),
    lambda doc: doc["optimizer"]["entries"].remove(
        _first(doc["optimizer"]["entries"], "embedding::v")),
    lambda doc: doc["params"].append(dict(_first(doc["params"], "embedding"))),
    lambda doc: _first(doc["params"], "embedding").update(trainable="yes"),
], ids=["moment-shape-transposed", "moment-without-kind", "moment-of-no-parameter",
        "moment-of-unknown-kind", "moment-twice", "moment-unpaired", "parameter-twice",
        "trainable-not-bool"])
def test_malformed_tables_exit_5(tmp_path, edit):
    # before, these loaded: a transposed moment failed later inside AdamW,
    # a renamed one landed under '' and training restarted it from zeros,
    # and a repeated parameter silently took the last copy
    doc = _with_moments(tmp_path / "c")
    load_checkpoint(tmp_path / "c")
    edit(doc)
    (tmp_path / "c" / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(IntegrityError):
        load_checkpoint(tmp_path / "c")
    assert cli_main(["eval", "--checkpoint", str(tmp_path / "c"),
                     "--out", str(tmp_path / "out")]) == 5


def test_parameters_without_moments_load(tmp_path):
    # a checkpoint may hold moments for some parameters only, or none
    doc = _with_moments(tmp_path / "c")
    entries = doc["optimizer"]["entries"]
    entries[:] = [e for e in entries if not e["name"].startswith("embedding::")]
    (tmp_path / "c" / "manifest.json").write_text(json.dumps(doc))
    _, _, (_, moments) = load_checkpoint(tmp_path / "c")
    assert "embedding" not in moments and len(moments) == len(entries) // 2
    doc["optimizer"]["entries"] = []
    (tmp_path / "c" / "manifest.json").write_text(json.dumps(doc))
    assert load_checkpoint(tmp_path / "c")[2] == (3, {})


@pytest.mark.parametrize("damage", [
    lambda doc: "{not json",
    lambda doc: json.dumps({k: v for k, v in doc.items() if k != "config"}),
    lambda doc: json.dumps({k: v for k, v in doc.items() if k != "params"}),
], ids=["invalid-json", "no-config", "no-params"])
def test_malformed_manifest_exits_5(tmp_path, damage):
    save_checkpoint(tmp_path / "c", init_model(tiny_config(), seed=11), seed=11)
    path = tmp_path / "c" / "manifest.json"
    path.write_text(damage(json.loads(path.read_text())))
    assert cli_main(["export", "--checkpoint", str(tmp_path / "c"), "--branch", "0",
                     "--out", str(tmp_path / "out")]) == 5


BLOCK_SLOTS = ["w_q", "w_k", "w_v", "w_o", "w_gate", "w_up", "w_down", "attn_norm",
               "mlp_norm"]


def _block_names(prefix, factored=()):
    names = []
    for m in BLOCK_SLOTS:
        names += [f"{prefix}.{m}.A", f"{prefix}.{m}.B"] if m in factored \
            else [f"{prefix}.{m}"]
    return names


def test_parameter_names_pin_checkpoint_layout():
    """Golden checkpoint order: embedding, backbone blocks, then per exit its
    blocks, final norm and head; a factored slot holds .A then .B in place."""
    desk = ["embedding"]
    for i in range(4):
        desk += _block_names(f"backbone.{i}")
    grown = list(desk)
    for k in range(2):
        desk += _block_names(f"exits.{k}.blocks.0") + [f"exits.{k}.final_norm",
                                                       f"exits.{k}.lm_proj"]
    model = init_model(desk_config(), seed=12)
    assert [n for n, _ in named_parameters(model)] == desk

    grown_model, _ = expand(model, ExpansionSpec(target_branch=0, n_new_blocks=3, seed=12))
    expected = list(grown)
    for j in range(4):
        expected += _block_names(f"exits.0.blocks.{j}")
    expected += ["exits.0.final_norm", "exits.0.lm_proj"]
    expected += _block_names("exits.1.blocks.0") + ["exits.1.final_norm", "exits.1.lm_proj"]
    assert [n for n, _ in named_parameters(grown_model)] == expected

    _, compressed = _compressed_desk(seed=12)
    expected = list(grown) + _block_names("exits.0.blocks.0")
    expected += _block_names("exits.0.blocks.1", factored=BLOCK_MATRICES)
    expected += ["exits.0.final_norm", "exits.0.lm_proj.A", "exits.0.lm_proj.B"]
    expected += _block_names("exits.1.blocks.0") + ["exits.1.final_norm", "exits.1.lm_proj"]
    assert [n for n, _ in named_parameters(compressed)] == expected


def test_copies_drop_grads_and_share_no_arrays():
    grown, compressed = _compressed_desk(seed=13)
    for source in (grown, compressed):
        for _, p in named_parameters(source):
            p.grad = np.ones_like(p.data)
        results = [expand(source, ExpansionSpec(target_branch=1, n_new_blocks=1))[0],
                   extract_submodel(source, 0), extract_submodel(source, 1),
                   cast_model(source, np.float32), cast_model(source, np.float64)]
        if source is grown:
            results.append(apply_compression(source, _rank2_plan(source, 13)))
        arrays = [a for _, p in named_parameters(source) for a in (p.data, p.grad)]
        for result in results:
            for name, q in named_parameters(result):
                assert q.grad is None, name
                assert not any(np.shares_memory(q.data, a) for a in arrays), name
