"""familykit benchmark: one workload per invocation, result as the last line.

    python3 benchmark/run.py --workload {train,grow,serve} --seed N --seconds S --trace {0,1}

Run it from the root of a source tree; it imports familykit from `src/`.
With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it measures half the time untraced and half traced and prints
the per-layer metrics, including the tracing overhead. Spans and a full
result record are written under `.bench_out/`. See benchmark/README.md
for what each workload and metric means.
"""

from __future__ import annotations

import os

# Pinned before numpy loads so every run uses the same BLAS thread count;
# 1 is at most nproc on any machine and keeps a shared machine's noise low.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
PROBES_PER_SETUP = 5         # reference probes before and after each set-up


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git; a tree
    exported without .git reports "unknown"."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": openblas, "blas_threads": BLAS_THREADS,
            "git_sha": git_sha(ROOT)}


def end_to_end(seg, setup_s: list[float]) -> tuple[dict[str, float], dict[str, int], dict]:
    """End-to-end values, the samples behind each, and what the record keeps
    besides: the host-speed factor and the raw latency median and tail. The
    tail is not a metric: on a shared host it measures the host's slow
    phases more than the program."""
    lat = seg.latency
    values = {"setup_s": statistics.median(setup_s), "tok_per_s": seg.tok_per_s,
              "latency_ms.p50": statistics.median(lat.typical().values()) * 1e3,
              "stage_s": seg.stage_s, "loss_nats": seg.loss_nats}
    samples = {"setup_s": len(setup_s), "tok_per_s": seg.rounds,
               "latency_ms.p50": len(lat.raw), "stage_s": seg.rounds, "loss_nats": seg.rounds}
    deciles = statistics.quantiles(lat.raw, n=10)
    extra = {"host_factor": seg.host_factor, "raw_latency_ms.p50": deciles[4] * 1e3,
             "raw_latency_ms.p90": deciles[8] * 1e3, "latency_samples": len(lat.raw)}
    return values, samples, extra


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "grow", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "familykit" / "__init__.py").is_file():
        print(f"benchmark: no familykit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import inputs
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    load_start = os.getloadavg()[0]
    OUT.mkdir(exist_ok=True)
    checks = workloads.Checks()
    tracer = tracing.Tracer() if args.trace else None
    run = workloads.WORKLOADS[args.workload]
    values: dict[str, float] = {}
    samples: dict[str, int] = {}
    info: dict = {}

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        try:
            setups, setup_s = [], []
            with tracer.installed() if tracer else contextlib.nullcontext():
                for k in range(SETUP_REPEATS):
                    if tracer:
                        tracer.rid = tracing.SETUP
                    probes = [workloads.reference_probe() for _ in range(PROBES_PER_SETUP)]
                    setups.append(inputs.set_up(args.seed, Path(tmp) / str(k)))
                    probes += [workloads.reference_probe() for _ in range(PROBES_PER_SETUP)]
                    factor = statistics.median(probes) / workloads.PROBE_NOMINAL_S
                    setup_s.append(setups[-1].seconds / factor)
            if tracer:
                tracer.rid = tracing.NO_REQUEST
            setup = setups[-1]
            loaded = inputs.param_bytes(setup.model)
            checks.check(loaded == inputs.param_bytes(setup.trained),
                         "set-up: checkpoint round trip changed a parameter")
            checks.check(all(inputs.param_bytes(s.model) == loaded for s in setups),
                         "set-up: repeated set-ups gave different warm starts")
            depth = workloads.exit_depth_at_half(setup.model, setup.inputs)
            info["warm_start_mean_exit_depth_tau0.5"] = depth
            checks.check(2.0 < depth < 4.0, f"set-up: mean exit depth {depth} at tau 0.5 "
                                            "is not strictly between 2 and 4")
            if tracer is None:
                seg = run(setup, args.seconds, tracing.Recorder(), checks)
                values, samples, extra = end_to_end(seg, setup_s)
                info.update(extra)
            else:
                # one round per half suffices: no latency percentiles here
                plain = run(setup, args.seconds / 2, tracing.Recorder(), checks, min_rounds=1)
                with tracer.installed():
                    traced = run(setup, args.seconds / 2, tracer, checks, min_rounds=1)
                values = tracing.per_layer(tracer, traced, plain, len(setups))
                samples = {"traced_requests": traced.units, "untraced_requests": plain.units}
                info["host_factor"] = {"untraced": plain.host_factor,
                                       "traced": traced.host_factor}
                tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        except Exception:   # counted and reported; never a silent abort
            checks.error(f"{args.workload} workload")

    if set(values) != set(units) and checks.failed == 0:
        raise SystemExit(f"benchmark: metrics {sorted(set(values) ^ set(units))} do not "
                         "match BENCHMARK.json")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(np),
              "load_avg_1m": {"start": load_start, "end": os.getloadavg()[0]},
              "samples": samples, "info": info, "failures": checks.notes}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, unit in units.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:40s} {values.get(name, float('nan')):14.6g} {unit}{n}")
    print(json.dumps(record))
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": max(checks.attempted, 1), "failed": checks.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
