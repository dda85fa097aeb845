"""qtesters benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): qkd-bulk, qkd-sweep-traced, bound-search,
cli-verify.  One process, one thread: BLAS/OpenMP thread variables are set
to 1 before numpy is imported; fresh processes (set-up time, memory slope)
run one at a time.

``--trace 0`` runs passes of the workload until ``--seconds`` is used up and
reports, as the JSON object on the last line of stdout:

* ``setup_s``: median over 3 fresh processes of ``import qtesters`` plus
  building the workload's configs and testers;
* ``wall_s``: median over the passes of one pass's time (the calls only,
  checks excluded);
* ``peak_rss_mb``: peak resident memory of this process.

Both times are in seconds at a reference CPU speed: a speed gauge
(common.SpeedGauge) samples the speed this process gets while it is timed,
and the raw time is scaled by it.  On a shared host this is what makes runs
comparable; the raw times are printed beside them.

Lines before the JSON object give the rest of the workload's figures with
sample counts: raw times, ``op_ms.p50`` (median call latency),
``rounds_per_s`` (QKD workloads), ``run_ms.p50``/``p90`` (qkd-sweep-traced),
``bound_value_bits`` (bound-search) and ``error_rate``; and the run's
provenance.  All of it also goes to ``perfbench/out/result-*.json``.

``--trace 1`` runs one untraced and one traced pass (a span around every call,
parented by the pass), then the per-layer probes of layers.py, and reports
every per-layer metric plus ``trace.overhead_pct``, the traced pass's time
over the untraced one's.  Spans are kept in memory and written at exit to
``perfbench/out/spans-*.json``.  The earlier baseline table is printed beside
the same quantities derived from the per-layer metrics.

Every output is checked; ``failed`` counts operations whose output was wrong
or whose call raised.  Exit code 2 if qtesters cannot be imported from this
checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter

import common

SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description="qtesters benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own smoke test")
    return p.parse_args(argv)


def _provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        from qtesters import kernels
        backend = kernels.active_backend()
    except (ImportError, AttributeError):
        backend = "n/a"
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend,
        "numba_installed": find_spec("numba") is not None,
        "seed": seed,
        "threads": {v: os.environ[v] for v in common.THREAD_VARS},
    }


def _wall(results) -> float:
    return sum(r.seconds for r in results)


def _untraced(w, args, ops, extra) -> tuple:
    setups = [common.run_probe("setup", args.workload, str(args.seed))
              for _ in range(SETUP_REPEATS)]
    passes, walls, walls_raw = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        with common.SpeedGauge() as gauge:
            results = w.run_pass(ops, common.Tracer(False), gauge.clock)
        passes.append(results)
        walls_raw.append(_wall(results))
        walls.append(walls_raw[-1] * gauge.factor())
        if perf_counter() - start + (perf_counter() - t0) > args.seconds:
            break
    latencies = [r.seconds * 1e3 for p in passes for r in p]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] * s["factor"] for s in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (common.peak_rss_kb() / 1024, "MB"),
    }
    extra["setup_s.raw"] = (statistics.median(s["setup_s"] for s in setups), "s")
    extra["wall_s.raw"] = (statistics.median(walls_raw), "s")
    extra["op_ms.p50"] = (statistics.median(latencies), "ms")
    rounds = sum(r.op.rounds for r in passes[0])
    if rounds:
        extra["rounds_per_s"] = (rounds / statistics.median(walls_raw), "1/s")
    if args.workload == "qkd-sweep-traced":
        extra["run_ms.p50"] = (statistics.median(latencies), "ms")
        extra["run_ms.p90"] = (statistics.quantiles(latencies, n=10)[-1], "ms")
    if args.workload == "bound-search":
        extra["bound_value_bits"] = (
            sum(r.output.value for r in passes[0]
                if r.op.layer == "bounds.estimate_bound" and r.output is not None),
            "bit")
    extra["samples"] = {"setup_s": len(setups), "wall_s": len(walls), "op_ms": len(latencies)}
    extra["pass_wall_s"] = walls
    extra["pass_wall_s.raw"] = walls_raw
    return metrics, passes


def _traced(w, args, ops, scratch, extra) -> tuple:
    import layers

    with common.SpeedGauge() as plain:
        untraced = w.run_pass(ops, common.Tracer(False), plain.clock)
    gauge = common.SpeedGauge()
    tracer = common.Tracer(True, gauge.clock)
    with gauge:
        traced = w.run_pass(ops, tracer, gauge.clock)
    metrics, checks = layers.measure(tracer, scratch, args.smoke)
    overhead = (_wall(traced) * gauge.factor()) / (_wall(untraced) * plain.factor()) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    extra["baseline"] = layers.baseline_rows(metrics)
    extra["span_summary"] = tracer.summary()
    spans_path = common.OUT_DIR / f"spans-{args.workload}-s{args.seed}.json"
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["id", "parent", "name", "start_s", "end_s", "count"],
                   "spans": tracer.spans}, fh)
    return metrics, [untraced, traced], checks


def main(argv=None) -> int:
    args = _parse(argv)
    common.pin_threads()
    try:
        common.import_qtesters()
    except ImportError as exc:
        print(f"error: cannot import qtesters from this checkout: {exc}", file=sys.stderr)
        return 2
    import workloads as w

    if args.workload not in w.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {w.WORKLOADS}",
              file=sys.stderr)
        return 2
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    provenance = _provenance(args.seed)
    extra: dict = {}
    with tempfile.TemporaryDirectory(dir=common.OUT_DIR) as tmp:
        scratch = Path(tmp)
        ops = w.build(args.workload, args.seed, scratch, args.smoke)
        if args.trace:
            metrics, passes, checks = _traced(w, args, ops, scratch, extra)
        else:
            metrics, passes = _untraced(w, args, ops, extra)
            checks = []
    checks = [r.failures for p in passes for r in p] + checks
    failed = sum(1 for c in checks if c)
    attempted = len(checks)
    extra["error_rate"] = (failed / attempted, "1")
    messages = [f for c in checks for f in c]

    print("provenance " + json.dumps(provenance, sort_keys=True))
    for m in messages:
        print(f"FAILED {m}")
    for name, (value, unit) in {**metrics, **{k: v for k, v in extra.items()
                                              if isinstance(v, tuple)}}.items():
        print(f"metric {name} {value:.6g} {unit}")
    if "samples" in extra:
        print("samples " + json.dumps(extra["samples"], sort_keys=True))
    for row in extra.get("baseline", ()):
        print(f"baseline {row['what']}: earlier {row['baseline']:g} {row['unit']}, "
              f"here {row['here']:.4g} {row['unit']} ({row['ratio']:.2f}x)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(common.OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json",
              "w") as fh:
        json.dump({**result, "provenance": provenance, "failures": messages,
                   "extra": extra}, fh, indent=1, default=list)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
