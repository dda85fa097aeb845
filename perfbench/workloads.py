"""The benchmark's four workloads, built from the public qtesters API.

Each workload is a fixed list of operations (one public call each) that a
single caller runs in a closed loop: the next call starts when the previous
one returns.  Every operation's output is checked; a wrong output or a raised
exception is a failed operation, so a faster wrong answer is never a gain.

* ``qkd-bulk``: one untraced 50k-round run of each of the 9 protocol x Eve
  configs.  Per-round kernel time (and the per-round draws and records
  arrays, in peak memory) dominates.
* ``qkd-sweep-traced``: 108 short runs (12 run seeds x 9 configs) with a
  per-round CSV trace.  Fixed per-run cost (table build, structure checks)
  and trace I/O dominate; each trace and its stats are pinned by a frozen
  SHA-256.
* ``bound-search``: a fixed list of ``estimate_bound`` calls (three oracle
  pairs, a Haar-random d=3 pair, a random d=4 bipartite pair) and one
  ``find_unbiased_partner`` call.  No QKD code runs.
* ``cli-verify``: ``cli.main(["verify", "--suite", "all", ...])`` in-process
  over fixed seeds; each payload is pinned by a frozen SHA-256.

The workload seed picks the run seeds of the QKD workloads from pools whose
every member passes the output checks (and, for the sweep, has a frozen
fingerprint).  ``bound-search`` and ``cli-verify`` run fixed inputs in a
seed-shuffled order: their cost per call depends strongly on the input
(simplex iterations to converge), so seed-dependent inputs would make the
run-to-run spread a property of the seed instead of the code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import numbers
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from qtesters import bounds, cli, muub, qkd, tester
from qtesters.qmath import RngHandle

WORKLOADS = ("qkd-bulk", "qkd-sweep-traced", "bound-search", "cli-verify")

PROTOCOLS = ("lm05", "ext2", "ext4")
EVES = {"none": "none", "qmm": "qmm-equivalent-tester", "intercept": "intercept-resend"}
CONFIGS = tuple(f"{p}.{e}" for p in PROTOCOLS for e in EVES)
LM05_CONTROL_FRACTION = 0.3
SIGMAS = 4.0  # statistical checks accept a deviation of up to this many standard errors

BULK_ROUNDS = 50_000
BULK_SEED_POOL = 16  # run seeds 0..15
SWEEP_ROUNDS = 2_000
SWEEP_SEED_POOL = 32  # run seeds 0..31 per config, each with a frozen fingerprint
SWEEP_SEEDS_PER_CONFIG = 12
VERIFY_SEEDS = (0, 1, 2, 3)

# bound-search: (case, tester 1, tester 2, starts, exact bound in bits)
ORACLE_CASES = (("0Z0X", "0Z", "0X", 8, 1.0), ("0ZpZ", "0Z", "+Z", 8, 1.0),
                ("0ZpX", "0Z", "+X", 8, 0.0))
# (case, d, bipartite, starts); both testers are random, drawn from stream k
RANDOM_CASES = (("d3", 3, False, 8), ("d4bip", 4, True, 4))
BOUND_INPUT_SEED = 1910
BOUND_SEARCH_SEED = 7665
PARTNER_STARTS = 2
ORACLE_TOL = 1e-6  # bits
CEILING_SLACK = 1e-6  # bits a random-pair bound may exceed its frozen value
PARTNER_RESIDUAL_MAX = 1e-12

FROZEN_PATH = Path(__file__).with_name("frozen.json")


@dataclass
class Op:
    """One call into the public API and the check of its output."""

    layer: str  # span name: the public function called
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]  # returns failure messages, empty if correct
    rounds: int = 0  # simulated rounds, for QKD runs


@dataclass
class OpResult:
    op: Op
    output: object
    seconds: float
    failures: list


def run_pass(ops, tracer, clock=perf_counter) -> list:
    """Run every op once, in order, inside a "pass" span; time the calls only
    (checks run outside the timed region), by ``clock``."""
    results = []
    with tracer.span("pass"):
        for op in ops:
            out = None
            t0 = clock()
            try:
                with tracer.span(op.layer):
                    out = op.call()
            except Exception as exc:  # a failing call is a failed operation
                results.append(OpResult(op, None, clock() - t0, [f"raised {exc!r}"]))
                continue
            dt = clock() - t0
            try:
                failures = op.check(out)
            except Exception as exc:  # a check that cannot read the output fails it
                failures = [f"check raised {exc!r}"]
            results.append(OpResult(op, out, dt, failures))
    return results


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

def canonical(obj):
    """JSON-ready copy with floats rounded to 9 significant digits and
    magnitudes below 1e-9 set to 0, so that reordered floating-point
    arithmetic (roundoff near 1e-16) keeps a fingerprint while any change
    to the random stream or to a checked value moves it."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    x = float(obj)
    return 0.0 if abs(x) < 1e-9 else float(f"{x:.9g}")


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _canonical_bytes(obj) -> bytes:
    return json.dumps(canonical(obj), sort_keys=True).encode()


def trace_fingerprint(csv_bytes: bytes, stats) -> str:
    """SHA-256 of a run's trace CSV (line endings normalised to "\\n") and its
    canonical stats."""
    return _sha(csv_bytes.replace(b"\r\n", b"\n"), _canonical_bytes(stats.to_json()))


def verify_fingerprint(payload: dict) -> str:
    """SHA-256 of a canonical ``verify`` payload without its ``backend`` label,
    which names the implementation, not the result."""
    return _sha(_canonical_bytes({k: v for k, v in payload.items() if k != "backend"}))


def load_frozen() -> dict:
    with open(FROZEN_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# QKD
# ---------------------------------------------------------------------------

def qkd_config(name: str, rounds: int, seed: int):
    protocol, eve = name.split(".")
    strategy = qkd.EveStrategy(kind=EVES[eve])
    if protocol == "lm05":
        return qkd.default_lm05_config(rounds=rounds, control_fraction=LM05_CONTROL_FRACTION,
                                       eve=strategy, seed=seed)
    return qkd.default_extended_config(D=int(protocol[3:]), rounds=rounds, eve=strategy,
                                       seed=seed)


def qkd_runner(name: str):
    return qkd.run_lm05 if name.startswith("lm05") else qkd.run_extended


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _within(x: float, p: float, n: int) -> bool:
    return n > 0 and abs(x - p) <= SIGMAS * math.sqrt(p * (1.0 - p) / n)


def check_stats(name: str, stats) -> list:
    """No-Eve runs are error-free; the sift fraction and the fixed-set hijack's
    accuracy agree with their exact values to within SIGMAS standard errors."""
    protocol, eve = name.split(".")
    bad = []
    if eve == "none" and stats.bob_error_rate != 0:
        bad.append(f"{name}: bob_error_rate {stats.bob_error_rate} without Eve")
    p = 1.0 - LM05_CONTROL_FRACTION if protocol == "lm05" else 0.5
    if not _within(stats.sift_fraction, p, stats.rounds):
        bad.append(f"{name}: sift_fraction {stats.sift_fraction} vs {p}")
    if protocol != "lm05" and eve == "qmm":
        a = qkd.analytic_eve_accuracy(int(protocol[3:]))
        if not _within(stats.eve_accuracy, a, stats.eve_rounds):
            bad.append(f"{name}: eve_accuracy {stats.eve_accuracy} vs {a}")
    return bad


def _bulk_ops(seed: int, smoke: bool) -> list:
    rounds = 2_000 if smoke else BULK_ROUNDS
    run_seed = seed % BULK_SEED_POOL
    ops = []
    for name in CONFIGS:
        cfg = qkd_config(name, rounds, run_seed)
        run = qkd_runner(name)
        ops.append(Op(layer_name(run), f"{name}/s{run_seed}", lambda run=run, cfg=cfg: run(cfg),
                      lambda stats, name=name: check_stats(name, stats), rounds))
    return ops


def _sweep_ops(seed: int, scratch: Path, smoke: bool, frozen: dict) -> list:
    rng = random.Random(seed)
    trace_path = scratch / "sweep-trace.csv"
    ops = []
    for name in CONFIGS:
        run = qkd_runner(name)
        for run_seed in rng.sample(range(SWEEP_SEED_POOL), 1 if smoke else SWEEP_SEEDS_PER_CONFIG):
            key = f"{name}/{run_seed}"
            cfg = qkd_config(name, SWEEP_ROUNDS, run_seed)

            def check(stats, name=name, key=key):
                bad = check_stats(name, stats)
                if trace_fingerprint(trace_path.read_bytes(), stats) != frozen["sweep"][key]:
                    bad.append(f"{key}: trace fingerprint mismatch")
                return bad

            ops.append(Op(layer_name(run), key,
                          lambda run=run, cfg=cfg: run(cfg, trace=str(trace_path)),
                          check, SWEEP_ROUNDS))
    return ops


# ---------------------------------------------------------------------------
# Bound search
# ---------------------------------------------------------------------------

def _search(starts: int, stream: int) -> bounds.SearchConfig:
    return bounds.SearchConfig(starts=starts, rng=RngHandle(BOUND_SEARCH_SEED, stream))


def random_pair(d: int, bipartite: bool, stream: int):
    gen = RngHandle(BOUND_INPUT_SEED, stream).generator()
    return (tester.random_tester(d, gen, bipartite=bipartite),
            tester.random_tester(d, gen, bipartite=bipartite))


def bound_cases() -> list:
    """(case, t1, t2, SearchConfig, exact value or None) for every
    ``estimate_bound`` call of the bound-search workload."""
    cases = [(case, tester.named_tester(a), tester.named_tester(b), _search(starts, k), exact)
             for k, (case, a, b, starts, exact) in enumerate(ORACLE_CASES)]
    for k, (case, d, bipartite, starts) in enumerate(RANDOM_CASES, start=len(cases)):
        t1, t2 = random_pair(d, bipartite, k)
        cases.append((case, t1, t2, _search(starts, k), None))
    return cases


def partner_call():
    basis = muub.build_named_basis("weyl", 3)
    cfg = _search(PARTNER_STARTS, 99)
    return lambda: muub.find_unbiased_partner(basis, cfg)


def _bound_ops(frozen: dict) -> list:
    ops = []
    for case, t1, t2, cfg, exact in bound_cases():
        if exact is not None:
            def check(est, case=case, exact=exact):
                ok = abs(est.value - exact) <= ORACLE_TOL
                return [] if ok else [f"{case}: bound {est.value} vs exact {exact}"]
        else:
            def check(est, case=case, ceiling=frozen["bound_ceiling_bits"][case]):
                ok = est.value <= ceiling + CEILING_SLACK
                return [] if ok else [f"{case}: bound {est.value} above frozen {ceiling}"]
        ops.append(Op("bounds.estimate_bound", case,
                      lambda t1=t1, t2=t2, cfg=cfg: bounds.estimate_bound(t1, t2, cfg), check))

    def partner_check(out):
        residual = out[1]
        ok = residual < PARTNER_RESIDUAL_MAX
        return [] if ok else [f"weyl3 partner residual {residual}"]

    ops.append(Op("muub.find_unbiased_partner", "weyl3", partner_call(), partner_check))
    return ops


# ---------------------------------------------------------------------------
# CLI verify
# ---------------------------------------------------------------------------

def cli_main(argv: list) -> tuple:
    """Run ``cli.main(argv)`` in-process; return (exit code, parsed report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def verify_argv(seed: int, suite: str = "all") -> list:
    return ["verify", "--suite", suite, "--seed", str(seed), "--json-only"]


def _verify_ops(smoke: bool, frozen: dict) -> list:
    ops = []
    for seed in VERIFY_SEEDS[:1] if smoke else VERIFY_SEEDS:
        def check(out, seed=seed):
            code, report = out
            bad = [] if code == 0 and report["status"] == "pass" else [
                f"verify seed {seed}: exit {code}, status {report['status']}"]
            if verify_fingerprint(report["payload"]) != frozen["verify"][str(seed)]:
                bad.append(f"verify seed {seed}: payload fingerprint mismatch")
            return bad

        ops.append(Op("cli.main", f"verify/s{seed}",
                      lambda seed=seed: cli_main(verify_argv(seed)), check))
    return ops


def build(workload: str, seed: int, scratch: Path, smoke: bool = False) -> list:
    """The workload's ops for this seed, in the order a pass runs them."""
    frozen = load_frozen()
    if workload == "qkd-bulk":
        ops = _bulk_ops(seed, smoke)
    elif workload == "qkd-sweep-traced":
        ops = _sweep_ops(seed, scratch, smoke, frozen)
    elif workload == "bound-search":
        ops = _bound_ops(frozen)
    elif workload == "cli-verify":
        ops = _verify_ops(smoke, frozen)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    random.Random(seed).shuffle(ops)
    return ops
