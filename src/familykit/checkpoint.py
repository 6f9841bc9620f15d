"""Checkpoint directory format.

`manifest.json` carries the model config, a parameter table (name, dtype,
shape, byte offset/length, trainable flag), the seed, format_version and
the sha256 of each blob it describes; `weights.bin` is the concatenation
of all parameters as row-major little-endian binary32. The optimizer
state (when present) is a `(step, moments)` pair, `moments` mapping a
parameter name to its AdamW `(m, v)` arrays; the moments use the same
entry scheme in `optim.bin` so training resumes bit-exactly. Saving is
deterministic: save -> load -> save reproduces files byte for byte.

Loading checks each blob against its digest before parsing it, so a
truncated or altered blob is an `IntegrityError` even where its values
stay finite. Each file is written whole by `write_file`, the blobs first
and the manifest last: a save cut short leaves no partial file under a
checkpoint name, and a manifest never describes blobs that were not
written whole (an earlier manifest left in place fails its digest check
against the new blobs).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import ConfigError, IntegrityError
from .model import FamilialModel, FamilyConfig, from_parameters, named_parameters
from .tensor import Tensor

FORMAT_VERSION = 2  # 2: the manifest records a sha256 per blob
MANIFEST = "manifest.json"
WEIGHTS = "weights.bin"
OPTIM = "optim.bin"


def config_fingerprint(config: FamilyConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def ensure_compatible(expected: FamilyConfig, found: FamilyConfig, what: str) -> None:
    if expected != found:
        raise IntegrityError(
            f"{what}: config mismatch (expected fingerprint "
            f"{config_fingerprint(expected)}, checkpoint has {config_fingerprint(found)})")


def _pack(entries: list[tuple[str, np.ndarray, bool]]):
    table = []
    blobs = []
    offset = 0
    for name, arr, trainable in entries:
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        table.append({
            "name": name,
            "dtype": "f32",
            "shape": [int(s) for s in arr.shape],
            "byte_offset": offset,
            "byte_length": len(raw),
            "trainable": bool(trainable),
        })
        blobs.append(raw)
        offset += len(raw)
    return table, b"".join(blobs)


def write_file(path: str | Path, data: str | bytes) -> None:
    """Write `data` (text as UTF-8, bytes as given) to `path`, creating its
    directory: under `.{name}.tmp` beside it, flushed and fsynced, then
    renamed into place. `path` holds its earlier contents or `data` whole,
    also after a power loss, and a write that raises removes its temporary file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path: str | Path, model: FamilialModel, seed: int,
                    optimizer: tuple[int, dict] | None = None) -> Path:
    path = Path(path)
    table, blob = _pack([(name, p.data, p.requires_grad) for name, p in named_parameters(model)])
    blobs = {WEIGHTS: blob}
    manifest = {
        "format_version": FORMAT_VERSION,
        "seed": int(seed),
        "config": model.config.to_dict(),
        "params": table,
    }
    if optimizer is not None:
        step, moments = optimizer
        otable, blobs[OPTIM] = _pack([(f"{pname}::{kind}", moment, True)
                                      for pname, pair in moments.items()
                                      for kind, moment in zip("mv", pair)])
        manifest["optimizer"] = {"step": int(step), "entries": otable}
    manifest["sha256"] = {name: hashlib.sha256(data).hexdigest() for name, data in blobs.items()}
    for name, data in blobs.items():
        write_file(path / name, data)
    write_file(path / MANIFEST, json.dumps(manifest, indent=2) + "\n")
    return path


def _field(doc, key: str, kind: type):
    value = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(value, kind):
        raise IntegrityError(f"checkpoint manifest: {key!r} is missing or malformed")
    return value


def _read_blob(path: Path, manifest: dict) -> bytes:
    """The bytes of a blob, checked against the sha256 the manifest records."""
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise IntegrityError(f"cannot read {path}: {exc}") from exc
    if hashlib.sha256(blob).hexdigest() != manifest["sha256"].get(path.name):
        raise IntegrityError(f"{path} does not match the sha256 its manifest records")
    return blob


def _read_manifest(path: Path) -> dict:
    manifest_path = path / MANIFEST
    if not manifest_path.exists():
        raise IntegrityError(f"no manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise IntegrityError(f"{manifest_path} is not valid JSON: {exc}") from exc
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != FORMAT_VERSION:
        raise IntegrityError(f"unsupported checkpoint format_version {version!r}")
    for key, kind in (("seed", int), ("config", dict), ("params", list), ("sha256", dict)):
        _field(manifest, key, kind)
    return manifest


def _read_array(blob: bytes, entry: dict, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """The array a table entry describes, checked against the blob and, when
    given, against the shape the config implies for it; NaN or inf in it
    means a damaged artifact."""
    name = _field(entry, "name", str)
    found = tuple(_field(entry, "shape", list))
    offset, length = _field(entry, "byte_offset", int), _field(entry, "byte_length", int)
    if _field(entry, "dtype", str) != "f32":
        raise IntegrityError(f"unsupported dtype {entry['dtype']!r} for {name}")
    if not all(isinstance(s, int) and s >= 0 for s in found):
        raise IntegrityError(f"{name}: malformed shape {list(found)}")
    if shape is not None and found != tuple(shape):
        raise IntegrityError(f"{name} has shape {list(found)}; the config implies {list(shape)}")
    count = math.prod(found)
    if length != 4 * count or offset < 0 or offset + length > len(blob):
        raise IntegrityError(f"{name}: {length} bytes at offset {offset} do not hold "
                             f"{count} float32 values inside a {len(blob)}-byte blob")
    array = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(found).copy()
    if not np.isfinite(array).all():
        raise IntegrityError(f"{name} holds non-finite values")
    return array


def load_checkpoint(path: str | Path) -> tuple[FamilialModel, int, tuple[int, dict] | None]:
    """Model, seed and optimizer state `(step, moments)`, or None, of a
    checkpoint directory.

    Every entry is read, then `from_parameters` assembles the model of the
    config from them, which checks each against the shape the config
    implies; a linear slot may instead hold a factor pair `{name}.B`
    (in, r) and `{name}.A` (r, out). A parameter has one `<param>::m` and
    `<param>::v` moment pair in its shape, or none.
    """
    path = Path(path)
    manifest = _read_manifest(path)
    try:
        config = FamilyConfig.from_dict(manifest["config"])
    except ConfigError as exc:
        raise IntegrityError(f"checkpoint manifest: {exc}") from exc
    blob = _read_blob(path / WEIGHTS, manifest)
    entries = {_field(e, "name", str): e for e in manifest["params"]}
    if len(entries) != len(manifest["params"]):
        raise IntegrityError("checkpoint manifest names a parameter more than once")
    # every entry is read before any is placed: together they may read the blob once
    if sum(max(_field(e, "byte_length", int), 0) for e in entries.values()) != len(blob):
        raise IntegrityError(f"the parameters' byte lengths do not add up to {WEIGHTS}")

    def param(entry: dict) -> Tensor:
        trainable = entry.get("trainable", True)
        if not isinstance(trainable, bool):
            raise IntegrityError(f"{entry['name']}: 'trainable' must be true or false, "
                                 f"got {trainable!r}")
        return Tensor(_read_array(blob, entry), requires_grad=trainable)

    model = from_parameters(config, {name: param(entry) for name, entry in entries.items()})
    shapes = {name: p.shape for name, p in named_parameters(model)}

    optimizer = None
    if "optimizer" in manifest:
        section = manifest["optimizer"]
        step = _field(section, "step", int)
        oblob = _read_blob(path / OPTIM, manifest)
        table = _field(section, "entries", list)
        moments = {_field(e, "name", str): e for e in table}
        owners = dict.fromkeys(name.rpartition("::")[0] for name in moments)  # in table order
        if len(moments) != len(table) or not set(owners) <= set(shapes) or \
                set(moments) != {f"{name}::{kind}" for name in owners for kind in "mv"}:
            raise IntegrityError("optimizer entries must be one <param>::m and <param>::v "
                                 "pair per parameter of the model")
        optimizer = (step, {name: tuple(_read_array(oblob, moments[f"{name}::{kind}"],
                                                    shapes[name]) for kind in "mv")
                            for name in owners})
    return model, int(manifest["seed"]), optimizer
