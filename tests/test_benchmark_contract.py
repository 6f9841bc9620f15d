"""The benchmark under benchmark/ drives familykit from outside: its traced
run rebinds public functions by name, and its serve workload reads decode
state. A rename here would turn its runs into failed operations, so these
tests pin what it uses. They only read benchmark/."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from familykit.inference import ExitPolicy, generate
from familykit.model import apply_linear, desk_config, init_model

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
TRACING = BENCHMARK / "tracing.py"


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


@pytest.fixture(scope="module")
def bench_setup(tmp_path_factory):
    """The benchmark's modules and its seed-1 set-up; they import each other
    by bare name, so benchmark/ is on sys.path while they load."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARK))
        inputs, tracing, workloads = (importlib.import_module(name)
                                      for name in ("inputs", "tracing", "workloads"))
    return inputs.set_up(1, tmp_path_factory.mktemp("bench")), tracing, workloads


@pytest.mark.parametrize("name", ["train", "grow", "serve"])
def test_workload_round_passes_its_checks(bench_setup, name):
    # one round of each workload, as the benchmark runs it: a broken call or a
    # wrong output is a failed check here
    setup, tracing, workloads = bench_setup
    checks = workloads.Checks()
    workloads.WORKLOADS[name](setup, 0.0, tracing.Recorder(), checks, min_rounds=1)
    assert checks.attempted > 0 and checks.failed == 0, checks.notes
