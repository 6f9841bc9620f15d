"""Window groups: at most one per usable CPU and none under MIN_GROUP
windows, in window order, errors as raised.

The worker count is substituted by patching `parallel.usable_cpus`, the one
function that reads it. Bit-equality of eval and calibration at 1, 2 and 3
workers over random families is in `test_family_properties.py`.
"""

import os
import signal
import threading
import time
from unittest import mock

import numpy as np
import pytest

from familykit import parallel
from familykit.compression import capture_activations
from familykit.errors import InputError
from familykit.evaluation import EVAL_BATCH, branch_nll
from familykit.model import desk_config, init_model


def workers(k: int):
    return mock.patch.object(parallel, "usable_cpus", lambda: k)


MIN = parallel.MIN_GROUP


@pytest.mark.parametrize("n", [1, 15, 16, 17, 31, 32, 33, 47, 48, 64, 67, 100])
@pytest.mark.parametrize("unit", [1, 4, 8, 16])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_group_bounds_cover_the_windows_in_whole_units(n, unit, k):
    with workers(k):
        bounds = parallel.group_bounds(n, unit)
    assert len(bounds) == max(1, min(k, n // MIN))
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    assert all(stop % unit == 0 for _, stop in bounds[:-1])
    assert len(bounds) == 1 or min(stop - start for start, stop in bounds) >= MIN
    whole = [(stop - start) // unit for start, stop in bounds]
    assert whole == sorted(whole, reverse=True) and whole[0] - whole[-1] <= 1


def test_usable_cpus_is_the_affinity_mask():
    assert parallel.usable_cpus() == len(parallel.os.sched_getaffinity(0))


@pytest.mark.parametrize("k, n", [(1, 3 * MIN), (4, MIN - 1), (4, 2 * MIN - 1)])
def test_one_group_runs_inline(k, n):
    caller = threading.get_ident()
    with workers(k):
        assert parallel.map_groups(lambda a, b: (a, b, threading.get_ident()), n, 2) == [
            (0, n, caller)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_a_forked_child_runs_groups_on_a_pool_of_its_own():
    # the child has none of the parent's pool threads: work it handed to the
    # parent's pool would wait in a queue that no thread of the child takes from
    def two_groups():
        return parallel.map_groups(lambda a, b: (a, b), 2 * MIN) == [(0, MIN), (MIN, 2 * MIN)]

    with workers(2):
        assert two_groups()  # the pool exists before the fork
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = two_groups()
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 20
        while not (status := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's groups did not finish in 20 s")
            time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


def test_results_come_back_in_window_order():
    def slow_first(a, b):
        time.sleep(0.05 if a == 0 else 0.0)
        return list(range(a, b))

    n = 3 * MIN + 5
    with workers(3):
        groups = parallel.map_groups(slow_first, n, 2)
    assert [w for g in groups for w in g] == list(range(n))
    assert len(groups) == 3


def test_the_first_error_in_window_order_is_raised_after_every_group_ends():
    finished = []

    def fail_late_groups(a, b):
        group = a // MIN
        if group:
            time.sleep(0.05 * (4 - group))
            finished.append(group)
            raise KeyError(f"group {group}")
        return group

    with workers(4), pytest.raises(KeyError) as info:
        parallel.map_groups(fail_late_groups, 4 * MIN)
    assert info.value.args == ("group 1",)
    assert sorted(finished) == [1, 2, 3]


def _raised(fn, k):
    with workers(k), pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("where", [-1, -3])
def test_worker_errors_surface_as_the_serial_code_raises_them(where):
    # a token id >= vocab in the last window(s): the last group's forward
    # fails, in a last batch of two groups (eval) or two or three (calibration)
    cfg = desk_config()
    model = init_model(cfg, seed=5)
    n_windows = EVAL_BATCH + 2 * MIN
    ids = np.random.default_rng(1).integers(0, cfg.vocab, (n_windows, cfg.ctx_len))
    ids[where, -1] = cfg.vocab
    calls = {"eval": lambda: branch_nll(model, ids.reshape(-1), [1]),
             "calibration": lambda: capture_activations(model, ids, scope=lambda n: True)}
    for fn in calls.values():
        serial = _raised(fn, 1)
        assert serial == (InputError, f"token id out of range [0, {cfg.vocab})")
        assert _raised(fn, 2) == serial and _raised(fn, 3) == serial
