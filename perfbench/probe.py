"""Fresh-process probes; ``run.py`` starts them one at a time and waits.

    python3 perfbench/probe.py setup <workload> <seed>
        time ``import qtesters`` plus building the workload's configs and
        testers; print {"setup_s": ..., "factor": ...}, where ``factor``
        scales it to the reference speed (common.SpeedGauge)
    python3 perfbench/probe.py rss <rounds>
        run extended D=2 without Eve for <rounds> rounds; print the process's
        peak resident memory {"maxrss_kb": ...}
"""

from __future__ import annotations

import json
import sys

import common


def main(argv: list) -> int:
    common.pin_threads()
    if argv[0] == "setup":
        with common.SpeedGauge(common.PYTHON) as gauge:
            t0 = gauge.clock()
            common.import_qtesters()
            import workloads as w

            w.build(argv[1], int(argv[2]), common.OUT_DIR)
            own = gauge.clock() - t0
        print(json.dumps({"setup_s": own, "factor": gauge.factor()}))
        return 0
    common.import_qtesters()
    import workloads as w

    if argv[0] == "rss":
        w.qkd.run_extended(w.qkd_config("ext2.none", int(argv[1]), 0))
        print(json.dumps({"maxrss_kb": common.peak_rss_kb()}))
    else:
        raise SystemExit(f"unknown probe {argv[0]!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
