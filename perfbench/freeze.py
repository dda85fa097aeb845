"""Recompute ``frozen.json``, the reference values the benchmark checks against.

    python3 perfbench/freeze.py

It records, at the current commit:

* the trace fingerprint of every (config, run seed) in the sweep's pool;
* the payload fingerprint of every ``verify`` seed of the cli-verify workload;
* the best bound found for each random pair of the bound-search workload.

It also runs every pooled input through the workload's output checks and
exits 1 if any fails.  Rerun it only when a change is meant to alter these
outputs, and say so in the change: a mismatch is otherwise a failed
operation in every benchmark run.
"""

from __future__ import annotations

import json
import sys
import tempfile

import common


def main() -> int:
    common.pin_threads()
    common.import_qtesters()
    from qtesters import bounds

    import workloads as w

    failures = []
    frozen = {"sweep": {}, "verify": {}, "bound_ceiling_bits": {}}
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.OUT_DIR) as tmp:
        trace_path = f"{tmp}/trace.csv"
        for name in w.CONFIGS:
            run = w.qkd_runner(name)
            for run_seed in range(w.SWEEP_SEED_POOL):
                stats = run(w.qkd_config(name, w.SWEEP_ROUNDS, run_seed), trace=trace_path)
                failures += w.check_stats(name, stats)
                with open(trace_path, "rb") as fh:
                    frozen["sweep"][f"{name}/{run_seed}"] = w.trace_fingerprint(fh.read(), stats)
            for run_seed in range(w.BULK_SEED_POOL):
                failures += w.check_stats(name, run(w.qkd_config(name, w.BULK_ROUNDS, run_seed)))
            print(f"{name}: pools checked", file=sys.stderr)
    for seed in w.VERIFY_SEEDS:
        code, report = w.cli_main(w.verify_argv(seed))
        if code != 0 or report["status"] != "pass":
            failures.append(f"verify seed {seed}: exit {code}")
        frozen["verify"][str(seed)] = w.verify_fingerprint(report["payload"])
    for case, t1, t2, cfg, exact in w.bound_cases():
        if exact is None:
            frozen["bound_ceiling_bits"][case] = bounds.estimate_bound(t1, t2, cfg).value
    with open(w.FROZEN_PATH, "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
