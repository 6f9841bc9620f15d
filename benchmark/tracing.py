"""Per-layer tracing from outside the program.

A `Tracer` rebinds the public functions of each familykit layer to wrappers
that record one span per call: name, start, end, parent span and request
id. A function is rebound under every name that refers to it, including
the names other modules imported (`familykit.inference.k_matmul`,
`familykit.compression.svd_array`, ...), and restored afterwards. Spans
stay in memory until the run ends. Counts that the program returns
publicly (generation traces, compression plans, whitening paths, decode
state) are added by the workloads through `Recorder.add`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LINEAR_SPANS = {m: f"model.linear.{role}" for m, role in (
    ("w_q", "qkv"), ("w_k", "qkv"), ("w_v", "qkv"), ("w_o", "o"), ("w_gate", "mlp"),
    ("w_up", "mlp"), ("w_down", "mlp"), ("lm_proj", "lm_proj"))}


def _linear_span(args, kwargs) -> str:
    name = kwargs.get("name", args[2] if len(args) > 2 else None) or ""
    return LINEAR_SPANS.get(name.rsplit(".", 1)[-1], "model.linear.other")


def _matmul_flop(tracer, args, out) -> None:
    a, b = args[0], args[1]
    tracer.add("tensor.k_matmul.flop", 2.0 * a.size * b.shape[-1])


def _whiten_path(tracer, args, out) -> None:
    if out.path == "svd":
        tracer.add("compression.whiten.svd_fallbacks")


# (familykit module, attribute, span name or function of the call's arguments,
#  hook on the return value)
TARGETS = (
    ("tensor", "backward", "tensor.backward", None),
    ("tensor", "k_matmul", "tensor.k_matmul", _matmul_flop),
    ("tensor", "masked_softmax", "tensor.masked_softmax", None),
    ("tensor", "k_masked_softmax", "tensor.masked_softmax", None),
    ("tensor", "rmsnorm", "tensor.rmsnorm", None),
    ("tensor", "k_rmsnorm", "tensor.rmsnorm", None),
    ("tensor", "cross_entropy", "tensor.cross_entropy", None),
    ("model", "apply_linear", _linear_span, None),
    ("model", "block_forward", "model.block_forward", None),
    ("model", "forward_branch", "model.forward_branch", None),
    ("model", "forward_all_branches", "model.forward_all_branches", None),
    ("model", "named_parameters", "model.named_parameters", None),
    ("data", "WindowSampler.batch_at", "data.batch_at", None),
    ("training", "train_step", "training.train_step", None),
    ("linalg", "svd_array", "linalg.svd_array", None),
    ("linalg", "cholesky_array", "linalg.cholesky_array", None),
    ("compression", "capture_activations", "compression.capture_activations", None),
    ("compression", "build_plan", "compression.build_plan", None),
    ("compression", "truncation_loss", "compression.truncation_loss", None),
    ("compression", "decompose", "compression.decompose", None),
    ("compression", "whiten", "compression.whiten", _whiten_path),
    ("compression", "apply_compression", "compression.apply", None),
    ("evaluation", "branch_perplexity", "evaluation.branch_perplexity", None),
    ("inference", "GenState.advance_backbone", "inference.advance_backbone", None),
    ("inference", "GenState.ensure_branch", "inference.ensure_branch", None),
    ("inference", "confidence", "inference.confidence", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save", None),
    ("checkpoint", "load_checkpoint", "checkpoint.load", None),
    ("expansion", "expand", "expansion.expand", None),
    ("expansion", "verify_identity", "expansion.verify_identity", None),
)

# Request ids: a step, cycle or prompt index, or one of these.
SHARED = -1       # work a round shares between its requests (serve's eval pass)
SETUP = -2        # set-up
NO_REQUEST = -3   # untimed checks


class Recorder:
    """Request id and public counts of an untraced segment."""

    def __init__(self):
        self.rid = NO_REQUEST
        self.counts: dict[str, float] = defaultdict(float)

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value


class Tracer(Recorder):
    """Recorder that also keeps a span per call of every traced function.

    Spans are stored column-wise in flat arrays, which the garbage collector
    does not scan; a list of per-span objects would make every collection
    slower as the trace grows.
    """

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.rids = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        names, starts, ends, parents, rids = (self.names, self.starts, self.ends,
                                              self.parents, self.rids)
        stack, tracer = self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name(args, kwargs) if callable(name) else name)
            parents.append(stack[-1] if stack else -1)
            rids.append(tracer.rid)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, out)
            return out

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "familykit" or n.startswith("familykit.")]
        try:
            for mod_name, attr, name, hook in TARGETS:
                module = importlib.import_module(f"familykit.{mod_name}")
                if "." in attr:   # a method: rebinding the class covers every caller
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._rebind(cls, meth, self._wrap(getattr(cls, meth), name, hook))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(original, name, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)
            yield self
        finally:
            while self._saved:
                owner, attr, value = self._saved.pop()
                setattr(owner, attr, value)

    def columns(self) -> dict[str, np.ndarray]:
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        return {"name_table": np.array(table),
                "name": np.array([code[n] for n in self.names], np.int32),
                "start": np.frombuffer(self.starts, np.float64).copy(),
                "end": np.frombuffer(self.ends, np.float64).copy(),
                "parent": np.frombuffer(self.parents, np.int64).copy(),
                "request": np.frombuffer(self.rids, np.int64).copy()}

    def write_spans(self, path: Path) -> None:
        np.savez(path, **self.columns())


def span_stats(cols: dict, keep: np.ndarray) -> tuple[dict, dict, dict]:
    """Inclusive time, self time and call count per span name over the spans
    selected by the boolean mask `keep`. A call nested directly in a call of
    the same name (recursion, a kernel under its autodiff op) adds to self
    time but not to inclusive time or calls."""
    name, parent = cols["name"], cols["parent"]
    dur = cols["end"] - cols["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    nested = has_parent & (name[np.where(has_parent, parent, 0)] == name)
    outer = keep & ~nested
    k = len(cols["name_table"])
    incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
    self_t = np.bincount(name[keep], weights=(dur - child)[keep], minlength=k)
    calls = np.bincount(name[outer], minlength=k)
    table = [str(n) for n in cols["name_table"]]
    return (defaultdict(float, zip(table, incl.tolist())),
            defaultdict(float, zip(table, self_t.tolist())),
            defaultdict(int, zip(table, calls.tolist())))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, traced, untraced, setups: int) -> dict[str, float]:
    """Per-layer metrics of a traced segment. Times and counts are per
    request: a train step (train), a grow cycle (grow) or a served prompt
    (serve); checkpoint times are per set-up. Times are divided by the
    segment's host-speed factor, like the end-to-end ones."""
    cols = tracer.columns()
    incl, self_t, calls = span_stats(cols, cols["request"] >= SHARED)
    s_incl, _, _ = span_stats(cols, cols["request"] == SETUP)
    c = tracer.counts
    n = traced.units
    slow = traced.host_factor

    def ms(table, name):
        return table[name] * 1e3 / n / slow

    def sec(table, name):
        return table[name] / n / slow

    rates = untraced.policy_rates
    return {
        "tensor.backward_ms": ms(self_t, "tensor.backward"),
        "tensor.k_matmul.calls": calls["tensor.k_matmul"] / n,
        "tensor.k_matmul.gflop": c["tensor.k_matmul.flop"] * 1e-9 / n,
        "tensor.masked_softmax_ms": ms(self_t, "tensor.masked_softmax"),
        "tensor.rmsnorm_ms": ms(self_t, "tensor.rmsnorm"),
        "tensor.cross_entropy_ms": ms(self_t, "tensor.cross_entropy"),
        "model.linear.qkv_ms": ms(incl, "model.linear.qkv"),
        "model.linear.o_ms": ms(incl, "model.linear.o"),
        "model.linear.mlp_ms": ms(incl, "model.linear.mlp"),
        "model.linear.lm_proj_ms": ms(incl, "model.linear.lm_proj"),
        "model.forward_all_branches_ms": ms(incl, "model.forward_all_branches"),
        "model.forward_branch_ms": ms(incl, "model.forward_branch"),
        "model.block_forward.calls": calls["model.block_forward"] / n,
        "model.named_parameters.calls": calls["model.named_parameters"] / n,
        "training.train_step_ms": ms(incl, "training.train_step"),
        "training.optimizer_ms": ms(self_t, "training.train_step"),
        "training.trainable_share": _ratio(c["training.trainable_params"],
                                           c["training.total_params"]),
        "data.batch_at_ms": ms(incl, "data.batch_at"),
        "linalg.svd_array.calls": calls["linalg.svd_array"] / n,
        "linalg.svd_array_s": sec(self_t, "linalg.svd_array"),
        "linalg.cholesky_array_s": sec(self_t, "linalg.cholesky_array"),
        "compression.capture_activations_s": sec(incl, "compression.capture_activations"),
        "compression.build_plan_s": sec(incl, "compression.build_plan"),
        "compression.truncation_loss.calls": calls["compression.truncation_loss"] / n,
        "compression.decompose.calls": calls["compression.decompose"] / n,
        "compression.decompose.useful_ratio": _ratio(c["compression.plan_entries"],
                                                     calls["compression.decompose"]),
        "compression.whiten.svd_fallbacks": c["compression.whiten.svd_fallbacks"] / n,
        "compression.uniform_groups": c["compression.uniform_groups"] / n,
        "compression.apply_ms": ms(incl, "compression.apply"),
        "evaluation.branch_perplexity_s": sec(incl, "evaluation.branch_perplexity"),
        "inference.advance_backbone_ms": ms(incl, "inference.advance_backbone"),
        "inference.ensure_branch_ms": ms(incl, "inference.ensure_branch"),
        "inference.confidence_ms": ms(incl, "inference.confidence"),
        "inference.exit_logits.per_token": _ratio(c["inference.exits_evaluated"],
                                                  c["inference.tokens"]),
        "inference.exit_accept_ratio": _ratio(c["inference.tokens"],
                                              c["inference.exits_evaluated"]),
        "inference.block_rows_per_token.lazy": _ratio(c["inference.block_rows.lazy"],
                                                      c["inference.tokens"]),
        "inference.block_rows_per_token.eager": _ratio(c["inference.block_rows.eager"],
                                                       c["inference.tokens.eager"]),
        "inference.mean_exit_depth": _ratio(c["inference.depth_sum"], c["inference.tokens"]),
        "inference.tok_per_s.tau0": rates.get("tau0", 0.0),
        "inference.tok_per_s.tau0.5": rates.get("tau0.5", 0.0),
        "inference.tok_per_s.tau_max": rates.get("tau_max", 0.0),
        "inference.tok_per_s.tau0.5_eager": rates.get("tau0.5_eager", 0.0),
        "checkpoint.save_ms": s_incl["checkpoint.save"] * 1e3 / setups / slow,
        "checkpoint.load_ms": s_incl["checkpoint.load"] * 1e3 / setups / slow,
        "expansion.expand_ms": ms(incl, "expansion.expand"),
        "expansion.verify_identity_ms": ms(incl, "expansion.verify_identity"),
        "bench.trace_overhead_pct": 100.0 * (_ratio(untraced.tok_per_s, traced.tok_per_s) - 1.0),
    }
