"""The benchmark under benchmark/ drives familykit from outside: its traced
run rebinds public functions by name, and its serve workload reads decode
state. A rename here would turn its runs into failed operations, so these
tests pin what it uses. They only read benchmark/."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from familykit.inference import ExitPolicy, generate
from familykit.model import apply_linear, desk_config, init_model

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    for mod_name, attr, _, _ in _tracing().TARGETS:
        owner = importlib.import_module(f"familykit.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)


def test_apply_linear_argument_order():
    assert list(inspect.signature(apply_linear).parameters)[:4] == ["x", "w", "name", "tap"]


def test_decode_state_exec_count_keys():
    model = init_model(desk_config(), seed=1)
    state_out = []
    generate(model, [256, 5, 9], ExitPolicy(threshold=1.5), max_new=3, state_out=state_out)
    keys = list(state_out[0].exec_count)
    assert {k[0] for k in keys} == {"backbone", "branch"}
    for key in keys:
        assert len(key) == (2 if key[0] == "backbone" else 3), key
        assert all(isinstance(i, int) for i in key[1:]), key
    assert ("backbone", 0) in keys and ("branch", 1, 0) in keys
