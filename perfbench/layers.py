"""Per-layer timings for the traced run.

Each probe calls one module's public functions from outside, inside a span,
and turns the span durations into one metric.  Which end-to-end metric each
should move, and on which workload:

* ``qkd.round_us.<protocol>.<eve>``: ``wall_s`` and ``rounds_per_s`` on
  qkd-bulk; barely qkd-sweep-traced; not bound-search.
* ``qkd.fixed_ms.<protocol>`` (a one-round run: tables and config checks),
  ``muub.verify_prop_maximal_ms.ext4`` and ``qkd.trace_us_per_round.*``:
  ``wall_s`` and ``run_ms.*`` on qkd-sweep-traced only.
* ``qkd.draws_us_per_round``: qkd-bulk.  ``qkd.rss_bytes_per_round``:
  ``peak_rss_mb`` on qkd-bulk.
* ``bounds.*`` and ``muub.partner_*``: ``wall_s`` on bound-search (and on
  cli-verify, whose bounds suite runs the same search);
  ``bounds.value_bits`` and ``bounds.starts_at_best.*`` are the search's
  quality: lower is better for the first, higher for the second.
* ``tester.*``, ``qmath.*``, ``ppovm.*``, ``cli.*``: ``wall_s`` on cli-verify.

``kernels`` has no metric of its own: it is measured through
``qkd.round_us.*`` and ``bounds.exp_map_us.*``.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

from qtesters import bounds, muub, ppovm, qkd, qmath, tester
from qtesters.qmath import RngHandle

import common
import workloads as w

SUITES = ("qmath", "tester", "ppovm", "bounds", "muub", "props")
AT_BEST_TOL = 1e-6  # bits


def _median_time(tracer, name, fn, reps):
    return statistics.median(tracer.timed(name, fn)[1] for _ in range(reps))


def _per_call_us(tracer, name, fn, calls, reps=5):
    def batch():
        for _ in range(calls):
            fn()

    return statistics.median(tracer.timed(name, batch, calls)[1] for _ in range(reps)) / calls * 1e6


def _qkd(tracer, scratch: Path, smoke: bool, m: dict, checks: list):
    n = 2_000 if smoke else 20_000
    fixed = {}
    for protocol in w.PROTOCOLS:
        name = f"{protocol}.none"
        run, cfg = w.qkd_runner(name), w.qkd_config(name, 1, 0)
        fixed[protocol] = _median_time(tracer, w.layer_name(run), lambda: run(cfg), 5)
        m[f"qkd.fixed_ms.{protocol}"] = (fixed[protocol] * 1e3, "ms")
    untraced = {}
    for name in w.CONFIGS:
        run, cfg = w.qkd_runner(name), w.qkd_config(name, n, 0)
        checks.append(w.check_stats(name, run(cfg)))
        untraced[name] = _median_time(tracer, w.layer_name(run), lambda: run(cfg), 3)
        protocol = name.split(".")[0]
        m[f"qkd.round_us.{name}"] = ((untraced[name] - fixed[protocol]) / n * 1e6, "us")
    trace_path = str(scratch / "layer-trace.csv")
    for protocol in ("lm05", "ext4"):
        name = f"{protocol}.none"
        run, cfg = w.qkd_runner(name), w.qkd_config(name, n, 0)
        traced = _median_time(tracer, w.layer_name(run), lambda: run(cfg, trace=trace_path), 3)
        m[f"qkd.trace_us_per_round.{protocol}"] = ((traced - untraced[name]) / n * 1e6, "us")
    draws_n = 10 * n
    draws = _median_time(tracer, "qmath.RngHandle.generator",
                         lambda: RngHandle(0).generator().random((draws_n, 9)), 5)
    m["qkd.draws_us_per_round"] = (draws / draws_n * 1e6, "us")
    small, large = (2_000, 12_000) if smoke else (20_000, 120_000)
    with tracer.span("probe.rss", 2):
        rss = {rounds: common.run_probe("rss", str(rounds))["maxrss_kb"]
               for rounds in (small, large)}
    m["qkd.rss_bytes_per_round"] = ((rss[large] - rss[small]) * 1024 / (large - small), "B")

    s1, s2 = tester.named_tester_set("bell"), tester.bell_tester_set(
        measurement_rotation=muub.balanced_qubit_rotation())
    f1, f2 = muub.build_named_basis("pauli", 2), muub.build_named_basis("pauli-unbiased", 2)
    t = _median_time(tracer, "muub.verify_prop_maximal",
                     lambda: muub.verify_prop_maximal(s1, s2, f1, f2), 5)
    m["muub.verify_prop_maximal_ms.ext4"] = (t * 1e3, "ms")


def _bounds(tracer, scratch: Path, smoke: bool, m: dict, checks: list):
    calls = 20 if smoke else 300
    gen = RngHandle(0, 1).generator()
    for d in (2, 3, 4):
        gens = bounds.su_generators(d)
        theta = gen.uniform(-np.pi, np.pi, d * d - 1)
        m[f"bounds.exp_map_us.d{d}"] = (_per_call_us(
            tracer, "bounds.unitary_from_params",
            lambda: bounds.unitary_from_params(theta, gens), calls), "us")
    for case, d, bipartite in (("d3", 3, False), ("d4bip", 4, True)):
        t1, t2 = w.random_pair(d, bipartite, 0)
        u = qmath.haar_random_unitary(d, gen)
        m[f"bounds.entropy_sum_us.{case}"] = (_per_call_us(
            tracer, "bounds.entropy_sum", lambda: bounds.entropy_sum(t1, t2, u), calls), "us")

    # one pass of the bound-search workload, in its own order
    results = w.run_pass(w.build("bound-search", 0, scratch), tracer)
    total = 0.0
    for r in results:
        checks.append(r.failures)
        if r.output is None:
            continue
        if r.op.label == "weyl3":
            m["muub.partner_s_per_start.weyl3"] = (r.seconds / w.PARTNER_STARTS, "s")
            m["muub.partner_residual.weyl3"] = (float(r.output[1]), "1")
            continue
        finals = [s[1] for s in r.output.starts]
        best = min(finals)
        total += r.output.value
        m[f"bounds.search_s_per_start.{r.op.label}"] = (r.seconds / len(finals), "s")
        m[f"bounds.starts_at_best.{r.op.label}"] = (
            sum(f <= best + AT_BEST_TOL for f in finals) / len(finals), "1")
    m["bounds.value_bits"] = (total, "bit")


def _micro(tracer, smoke: bool, m: dict):
    calls = 20 if smoke else 500
    gen = RngHandle(0, 2).generator()
    t = tester.random_tester(3, gen)
    u = qmath.haar_random_unitary(3, gen)
    p = tester.outcome_distribution(t, u)
    m["tester.outcome_distribution_us.d3"] = (_per_call_us(
        tracer, "tester.outcome_distribution", lambda: tester.outcome_distribution(t, u),
        calls), "us")
    m["tester.shannon_entropy_us"] = (_per_call_us(
        tracer, "tester.shannon_entropy", lambda: tester.shannon_entropy(p), calls), "us")
    m["qmath.haar_random_unitary_us.d4"] = (_per_call_us(
        tracer, "qmath.haar_random_unitary", lambda: qmath.haar_random_unitary(4, gen),
        calls), "us")
    elements, choi = ppovm.tester_elements(t), ppovm.choi_operator(u)
    m["ppovm.probability_via_choi_us"] = (_per_call_us(
        tracer, "ppovm.probability_via_choi",
        lambda: ppovm.probability_via_choi(elements, choi), calls), "us")


def _cli(tracer, smoke: bool, m: dict, checks: list):
    for suite in SUITES:
        (code, report), dt = tracer.timed("cli.main", lambda: w.cli_main(w.verify_argv(0, suite)))
        checks.append([] if code == 0 and report["status"] == "pass" else
                      [f"verify --suite {suite}: exit {code}"])
        m[f"cli.verify_suite_s.{suite}"] = (dt, "s")
    # a short run, so that argparse and canonical JSON are a visible share;
    # the two calls alternate so drift in machine speed hits both alike
    rounds = 100
    argv = ["qkd", "extended", "--D", "2", "--rounds", str(rounds), "--seed", "1", "--json-only"]
    cfg = qkd.default_extended_config(D=2, rounds=rounds, seed=1)
    codes, via_cli, bare = [], [], []
    for _ in range(3 if smoke else 21):
        via_cli.append(tracer.timed("cli.main", lambda: codes.append(w.cli_main(argv)[0]))[1])
        bare.append(tracer.timed("qkd.run_extended", lambda: qkd.run_extended(cfg))[1])
    checks.append([f"cli qkd exit codes {codes}"] if any(codes) else [])
    m["cli.overhead_ms.qkd"] = ((statistics.median(via_cli) - statistics.median(bare)) * 1e3, "ms")


def measure(tracer, scratch: Path, smoke: bool) -> tuple:
    """Every per-layer metric as {name: (value, unit)}, and one list of
    failure messages per output the probes checked (empty if correct)."""
    m: dict = {}
    checks: list = []
    with tracer.span("layers"):
        _qkd(tracer, scratch, smoke, m, checks)
        _bounds(tracer, scratch, smoke, m, checks)
        _micro(tracer, smoke, m)
        _cli(tracer, smoke, m, checks)
    return m, checks


# (what the baseline table timed, its value, unit, the same quantity derived
# from this run's per-layer metrics)
BASELINE = (
    ("run_lm05 1e5 rounds cf=0.3 no Eve", 409, "ms",
     lambda m: m["qkd.fixed_ms.lm05"][0] + 100 * m["qkd.round_us.lm05.none"][0]),
    ("run_lm05 1e5 rounds cf=0.3 qmm", 661, "ms",
     lambda m: m["qkd.fixed_ms.lm05"][0] + 100 * m["qkd.round_us.lm05.qmm"][0]),
    ("run_lm05 1e5 rounds cf=0.3 intercept", 743, "ms",
     lambda m: m["qkd.fixed_ms.lm05"][0] + 100 * m["qkd.round_us.lm05.intercept"][0]),
    ("lm05 tables (here: a 1-round run)", 0.4, "ms", lambda m: m["qkd.fixed_ms.lm05"][0]),
    ("run_extended 1e5 rounds qmm D=2", 1110, "ms",
     lambda m: m["qkd.fixed_ms.ext2"][0] + 100 * m["qkd.round_us.ext2.qmm"][0]),
    ("run_extended 1e5 rounds qmm D=4", 1270, "ms",
     lambda m: m["qkd.fixed_ms.ext4"][0] + 100 * m["qkd.round_us.ext4.qmm"][0]),
    ("extended tables D=2 (here: a 1-round run)", 2.6, "ms", lambda m: m["qkd.fixed_ms.ext2"][0]),
    ("extended tables D=4 (here: a 1-round run)", 13, "ms", lambda m: m["qkd.fixed_ms.ext4"][0]),
    ("estimate_bound 0Z/0X 16 starts", 0.68, "s",
     lambda m: 16 * m["bounds.search_s_per_start.0Z0X"][0]),
    ("estimate_bound random d=3 16 starts (other pair)", 5.0, "s",
     lambda m: 16 * m["bounds.search_s_per_start.d3"][0]),
    ("estimate_bound random d=4 bipartite 4 starts (other pair)", 2.6, "s",
     lambda m: 4 * m["bounds.search_s_per_start.d4bip"][0]),
    ("one objective call d=3 (here: exp map + public entropy_sum)", 130, "us",
     lambda m: m["bounds.exp_map_us.d3"][0] + m["bounds.entropy_sum_us.d3"][0]),
    ("find_unbiased_partner weyl d=3 4 starts", 2.2, "s",
     lambda m: 4 * m["muub.partner_s_per_start.weyl3"][0]),
)


def baseline_rows(m: dict) -> list:
    """The earlier baseline table beside this run's figures, with their ratio."""
    rows = []
    for what, then, unit, derive in BASELINE:
        now = derive(m)
        rows.append({"what": what, "unit": unit, "baseline": then, "here": now,
                     "ratio": now / then})
    return rows
