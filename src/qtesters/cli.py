"""Command-line front end.

Subcommands
-----------
verify      randomized consistency/property suites (qmath, tester, ppovm,
            bounds, muub, props, all)
bound       entropic-bound search for a tester pair, classified against
            log2 of the smaller outcome count: trivial, intermediate,
            maximal or above-cap
muub-check  mutual-unbiasedness verdict for two unitary bases
basis       list or dump the named unitary bases
qkd         Monte-Carlo protocol runs (lm05, extended)

Every invocation prints one JSON report to stdout:
``{"command", "status", "elapsed_ms", "stages_ms", "provenance", "payload"}``.
``stages_ms`` maps each timed stage to its wall milliseconds: for
``verify``, one entry per suite run; for ``bound``, ``search``; for
``qkd``, ``tables``, ``rounds`` and ``trace`` (trace I/O); empty for the
other commands.  ``provenance`` gives the ``qtesters``, ``numpy`` and
``python`` versions that produced the report.  The payloads of ``bound``,
``muub-check`` and ``qkd`` hold their effective settings under ``config``;
``bound`` records each tester under ``t1`` and ``t2`` as its name, as
given, or, when it was read from a file, as its ``to_json()`` literal.
Payload floats keep 12 significant digits (below), so such a literal
reruns its report exactly when the file's entries have at most 12.
No flag is silently ignored: ``muub-check --d`` sizes a named basis, and
with two basis files it is a usage error (exit 2), as ``--name`` or
``--d`` (the options of ``basis dump``) is with ``basis list``.
Identical argv (seeds included) produce byte-identical payloads: timings
and provenance stay outside the payload, keys are sorted and floats are
canonicalized to 12 significant digits.  Human-readable logs go to stderr
and are silenced by ``--json-only``.  Exit codes: 0 pass, 1 check
failure, 2 usage or config error.  A usage error (an unknown flag, a
missing or malformed argument) also prints a report, with status
``error`` and the argparse message in ``payload.error``; only ``-h`` /
``--help`` prints help text instead, and exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import sys
import time

import numpy as np

from . import __version__, bounds, muub, ppovm, qkd, qmath, tester
from .qmath import RngHandle

_PROVENANCE = {"qtesters": __version__, "numpy": np.__version__,
               "python": platform.python_version()}


def _canon(obj):
    """Canonical JSON form: sorted keys, floats at 12 significant digits."""
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    return obj


def _dump(report: dict) -> str:
    return json.dumps(_canon(report), sort_keys=True)


def _log(quiet: bool, msg: str) -> None:
    """Print a human-readable log line to stderr, unless ``quiet``."""
    if not quiet:
        print(msg, file=sys.stderr)


def _resolve_tester(spec: str) -> tuple:
    """(tester, record): a tester name is recorded as given, a file's tester
    as its canonical literal, so a report names its input by content and
    never by a file's free-text label."""
    try:
        return tester.named_tester(spec), spec
    except ValueError as exc:
        name_error = exc
    try:
        with open(spec) as fh:
            t = tester.tester_from_json(json.load(fh))
        return t, t.to_json()
    except OSError as exc:
        # the name's own error says what is wrong with a malformed name
        raise ValueError(f"{name_error}; nor is {spec!r} a readable file: {exc}") from None


def _resolve_basis(spec: str, d: int) -> muub.UnitaryBasis:
    if spec in muub.BASIS_NAMES:
        return muub.build_named_basis(spec, d)
    try:
        with open(spec) as fh:
            return muub.basis_from_json(json.load(fh))
    except OSError as exc:
        raise ValueError(f"{spec!r} is neither a basis name nor a readable file: {exc}")


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _judged(checks: list) -> list:
    """The suites' one pass rule, in place: a check with ``max_dev`` gets
    ``tol`` 1e-9 unless it has one, and passes when ``max_dev <= tol``
    unless it already has ``pass``."""
    for ch in checks:
        if "max_dev" in ch:
            ch.setdefault("tol", 1e-9)
            ch.setdefault("pass", ch["max_dev"] <= ch["tol"])
    return checks


def _suite_qmath(seed: int) -> list:
    gen = RngHandle(seed, 101).generator()
    checks = []

    def rint(n):
        return gen.integers(-3, 4, size=(n, n)) + 1j * gen.integers(-3, 4, size=(n, n))

    ab = np.kron(qmath.SIGMA_X, qmath.SIGMA_Z)
    ref = np.array([[qmath.SIGMA_X[i, j] * qmath.SIGMA_Z[k, l]
                     for j in range(2) for l in range(2)]
                    for i in range(2) for k in range(2)])
    checks.append({"name": "tensor-index-formula", "max_dev": float(np.max(np.abs(ab - ref)))})
    a, b, c = rint(2), rint(3), rint(2)
    dev = np.max(np.abs(np.kron(np.kron(a, b), c) - np.kron(a, np.kron(b, c))))
    checks.append({"name": "tensor-associativity", "max_dev": float(dev)})
    m = gen.standard_normal((9, 9)) + 1j * gen.standard_normal((9, 9))
    dev = abs(np.trace(np.einsum("iaja->ij", m.reshape(3, 3, 3, 3))) - np.trace(m))
    checks.append({"name": "partial-trace-preserves-trace", "max_dev": float(dev)})
    a2, b2 = rint(3), rint(3)
    dev = np.max(np.abs(np.einsum("iaja->ij", np.kron(a2, b2).reshape(3, 3, 3, 3))
                        - np.trace(b2) * a2))
    checks.append({"name": "partial-trace-of-product", "max_dev": float(dev)})
    m = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    pt = m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)  # system factor transposed
    dev = np.max(np.abs(pt.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4) - m))
    checks.append({"name": "partial-transpose-involution", "max_dev": float(dev)})
    s = np.eye(9, dtype=complex).reshape(3, 3, 3, 3).transpose(0, 1, 3, 2).reshape(9, 9)
    dev = np.max(np.abs(s @ np.kron(a2, b2) @ s - np.kron(b2, a2)))
    checks.append({"name": "swap-conjugation", "max_dev": float(dev)})
    ua, ub = qmath.haar_random_unitary(3, gen), qmath.haar_random_unitary(3, gen)
    # column stacking, the transpose of the row-major flattening
    lhs = abs(np.vdot(ua.T.reshape(-1), ub.T.reshape(-1))) ** 2
    rhs = abs(np.trace(ua.conj().T @ ub)) ** 2
    checks.append({"name": "vectorize-trace-overlap", "max_dev": float(abs(lhs - rhs))})
    dev = np.max(np.abs(ua.T.reshape(-1).reshape(3, 3).T - ua))
    checks.append({"name": "vectorize-roundtrip", "max_dev": float(dev)})
    u = qmath.haar_random_unitary(4, gen)
    dev = np.max(np.abs(u.conj().T @ u - np.eye(4)))
    checks.append({"name": "haar-unitarity", "max_dev": float(dev)})
    h = RngHandle(seed, 102)
    dev = np.max(np.abs(qmath.haar_random_unitary(2, h.generator())
                        - qmath.haar_random_unitary(2, h.generator())))
    checks.append({"name": "haar-determinism", "max_dev": float(dev)})
    # |Tr u|^2 of 10 000 draws, taken in stacks of 1000 to bound memory
    tr2 = np.empty(10_000)
    for k in range(0, tr2.size, 1000):
        us = qmath.haar_random_unitary(2, gen, shape=(1000,))
        tr2[k:k + 1000] = np.abs(np.trace(us, axis1=-2, axis2=-1)) ** 2
    m1 = np.mean(tr2)
    checks.append({"name": "haar-first-moment", "max_dev": float(abs(m1 - 1.0)), "tol": 0.05})
    return _judged(checks)


# The tester and ppovm suites draw in the order they always have: the same
# gen.integers, gen.uniform and gen.standard_normal calls, with the same
# shapes, so every seed keeps its samples.  The Ginibre normals are kept, and
# the Haar draws and the orthonormal completions then run as stacks, one call
# per matrix size and draw shape (qmath.haar_from_normals and
# qmath.complete_onb both run the phase-fixed QR per matrix, so each matrix of
# a stack is its own call's bit for bit).  The functions a suite checks are
# still called once per sample.

def _haar_stacks(normals: list) -> list:
    """``qmath.haar_from_normals`` of each array in ``normals``, with one QR
    per shape of array."""
    by_shape = {}
    for i, g in enumerate(normals):
        by_shape.setdefault(g.shape, []).append(i)
    out = [None] * len(normals)
    for idx in by_shape.values():
        for i, u in zip(idx, qmath.haar_from_normals(np.stack([normals[i] for i in idx]))):
            out[i] = u
    return out


def _random_testers(gen, specs) -> list:
    """``tester.random_tester(d, gen, bipartite)`` then
    ``qmath.haar_random_unitary(d, gen)`` for each (d, bipartite) in
    ``specs``: the same draws in the same order, orthonormalized as stacks.
    Returns (tester, unitary) per spec."""
    normals = []
    for d, bipartite in specs:
        n = d * d if bipartite else d
        normals += [gen.standard_normal((2, 2, n, n)), gen.standard_normal((2, d, d))]
    us = _haar_stacks(normals)
    return [(tester._tester_from_pair(pair, d), u)
            for (d, _), pair, u in zip(specs, us[::2], us[1::2])]


def _suite_tester(seed: int) -> list:
    gen = RngHandle(seed, 201).generator()
    checks = []
    worst = 0.0
    for t, u in _random_testers(gen, [(d, k % 2 == 1) for d in (2, 3) for k in range(10)]):
        worst = max(worst, abs(tester.outcome_distribution(t, u).sum() - 1.0))
    checks.append({"name": "distribution-normalization", "max_dev": worst})
    t = tester.random_tester(2, gen)
    u = qmath.haar_random_unitary(2, gen)
    base = tester.outcome_distribution(t, u)
    worst = 0.0
    for phi in gen.uniform(0, 2 * np.pi, 5):
        p = tester.outcome_distribution(t, np.exp(1j * phi) * u)
        worst = max(worst, float(np.max(np.abs(p - base))))
    checks.append({"name": "global-phase-invariance", "max_dev": worst, "tol": 1e-12})
    ok = True
    # per sample: the draws of three random qubit testers (two each), then w;
    # only the first tester is built, so only its pair and w are
    # orthonormalized.  With its projectors reversed, and with them rephased,
    # it gives two testers equivalent to it at every unitary, so the relation
    # must hold among the three
    normals = gen.standard_normal((20, 7, 2, 2, 2))
    for us in qmath.haar_from_normals(normals[:, [0, 1, 6]]):
        t, w = tester._tester_from_pair(us[:2], 2), us[2]
        rev = tester.Tester(input=t.input, projectors=t.projectors[::-1], dim=2)
        ph = tester.Tester(input=t.input, projectors=np.exp(0.7j) * np.array(t.projectors), dim=2)
        # reflexive, symmetric, transitive
        for a, b in ((t, t), (t, rev), (rev, t), (rev, ph), (t, ph)):
            ok &= tester.are_equivalent(a, b, w)
    checks.append({"name": "equivalence-relation", "pass": bool(ok), "tol": 1e-9})
    trials = 100
    drawn = {}  # d -> per trial: its number, basis normals, (probe, target, target), mappings
    for trial in range(trials):
        d = 2 if gen.integers(2) else 3
        g_basis = gen.standard_normal((2, d, d))
        picks = [int(gen.integers(d)), int(gen.integers(d))]
        g_map1 = gen.standard_normal((2, 2, d, d))  # the completions of one mapping
        picks.append(int(gen.integers(d)))
        g_map2 = gen.standard_normal((2, 2, d, d))
        drawn.setdefault(d, []).append((trial, g_basis, picks, np.stack([g_map1, g_map2])))
    samples = [None] * trials
    for d, rows in drawn.items():
        numbers, g_basis, picks, g_maps = (np.array(x) for x in zip(*rows))
        bases = qmath.haar_from_normals(g_basis)
        states = bases.swapaxes(-1, -2)[np.arange(len(rows))[:, None], picks]
        psi = states[:, 0]
        # a unitary taking psi to each target of the trial: complete the
        # (target, psi) pairs to bases and map the second onto the first
        firsts = states[:, [1, 0, 2, 0]].reshape(len(rows), 2, 2, d)
        onb = qmath.complete_onb(firsts, qmath.haar_from_normals(g_maps))
        maps = onb[..., 0, :, :] @ onb[..., 1, :, :].conj().swapaxes(-1, -2)
        for trial, basis, probe, (u1, u2) in zip(numbers, bases, psi, maps):
            samples[trial] = (d, basis, probe, u1, u2)
    agreements = 0
    for d, basis, probe, u1, u2 in samples:
        t = tester.Tester(input=probe, projectors=tuple(basis.T), dim=d)
        eig = tester.is_eigenoperator(u2.conj().T @ u1, probe)
        agreements += tester.can_distinguish(t, u1, u2) == (not eig)
    checks.append({"name": "distinguish-eigenoperator-agreement",
                   "agreements": agreements, "trials": trials,
                   "pass": agreements == trials, "tol": 1e-9})
    h = tester.shannon_entropy(np.array([0.5, 0.25, 0.25]))
    checks.append({"name": "entropy-dyadic", "max_dev": abs(h - 1.5)})
    return _judged(checks)


def _suite_ppovm(seed: int) -> list:
    gen = RngHandle(seed, 301).generator()
    checks = []
    samples = [(d, k) for d in (2, 3) for k in range(50)]
    drawn = _random_testers(gen, [(d, k % 2 == 1) for d, k in samples])
    for (d, k), (t, u) in zip(samples, drawn):
        direct = tester.outcome_distribution(t, u)
        via = ppovm.probability_via_choi(ppovm.tester_elements(t), ppovm.choi_operator(u))
        checks.append({
            "name": f"direct-vs-process-rule-d{d}-{k:02d}",
            "bipartite": k % 2 == 1,
            "max_dev": float(np.max(np.abs(direct - via))),
        })
    return _judged(checks)


def _suite_bounds(seed: int) -> list:
    checks = []
    t0z, t0x = tester.named_tester("0Z"), tester.named_tester("0X")
    tpx, tpz = tester.named_tester("+X"), tester.named_tester("+Z")
    i2 = np.eye(2, dtype=complex)
    hrot = (i2 - 1j * qmath.SIGMA_Y) / np.sqrt(2)
    fixtures = [
        ("entropy-sum-0Z-+X-sy", bounds.entropy_sum(t0z, tpx, qmath.SIGMA_Y), 0.0),
        ("entropy-sum-0Z-0X-H", bounds.entropy_sum(t0z, t0x, hrot), 1.0),
        ("entropy-sum-0Z-0X-I", bounds.entropy_sum(t0z, t0x, i2), 1.0),
    ]
    for name, got, want in fixtures:
        checks.append({"name": name, "max_dev": abs(got - want), "tol": 1e-6})
    checks.append({"name": "overlap-bound-ZX",
                   "max_dev": abs(bounds.mub_overlap_bound(t0z, t0x) - 1.0), "tol": 1e-12})
    checks.append({"name": "overlap-bound-ZZ",
                   "max_dev": abs(bounds.mub_overlap_bound(t0z, t0z) - 0.0), "tol": 1e-12})
    cfg = bounds.SearchConfig(starts=8, rng=RngHandle(seed, 401))
    est = bounds.estimate_bound(t0z, t0x, cfg)
    checks.append({"name": "bound-0Z-0X", "value": est.value,
                   "max_dev": abs(est.value - 1.0), "tol": 1e-3})
    est0 = bounds.estimate_bound(t0z, tpx, cfg)
    checks.append({"name": "bound-0Z-+X", "value": est0.value,
                   "max_dev": est0.value, "tol": 1e-6})
    gen = RngHandle(seed, 402).generator()
    est2 = bounds.estimate_bound(t0z, tpz, cfg)
    sample_min = bounds.entropy_sum(t0z, tpz, qmath.haar_random_unitary(2, gen, shape=(300,))).min()
    checks.append({"name": "bound-0Z-+Z-upper-bound-soundness",
                   "value": est2.value,
                   "pass": bool(est2.value <= sample_min + 1e-9 and est2.value > 1e-3)})
    return _judged(checks)


def _suite_muub(seed: int) -> list:
    checks = []
    for name, d in (("pauli", 2), ("rotation", 2), ("hadamard-pair", 2),
                    ("pauli-unbiased", 2), ("weyl", 2), ("weyl", 3)):
        # the raw elements: the checked constructor would raise before a False
        ok = muub.is_orthogonal_unitary_basis(muub._named_elements(name, d))
        checks.append({"name": f"named-basis-{name}-d{d}", "pass": bool(ok)})
    rot = muub.build_named_basis("rotation", 2)
    had = muub.build_named_basis("hadamard-pair", 2)
    pauli = muub.build_named_basis("pauli", 2)
    pub = muub.build_named_basis("pauli-unbiased", 2)
    r = muub.are_muub(rot, had)
    checks.append({"name": "muub-rotation-hadamard", "kappa": r.kappa,
                   "pass": bool(r.verdict and abs((r.kappa or 0) - 2.0) <= 1e-6)})
    r = muub.are_muub(pauli, pub)
    checks.append({"name": "muub-pauli-unbiased", "kappa": r.kappa,
                   "pass": bool(r.verdict and abs((r.kappa or 0) - 1.0) <= 1e-6)})
    r = muub.are_muub(pauli, pauli)
    checks.append({"name": "muub-pauli-self", "pass": bool(not r.verdict)})
    checks.append({"name": "hs-overlap-I-rot",
                   "pass": abs(muub.hs_overlap(np.eye(2), had.elements[0]) - 2.0) <= 1e-9})
    return checks


def _suite_props(seed: int) -> list:
    checks = []
    s1 = tester.named_tester_set("z")
    s2 = tester.named_tester_set("x")
    rot = muub.build_named_basis("rotation", 2)
    samples = muub.rotation_span_samples(16)
    rep = muub.verify_prop_trivial(s1, s2, list(rot), samples)
    checks.append({"name": "trivial-bound-fixture", "pass": bool(rep.verdict)})
    gen = RngHandle(seed, 501).generator()
    ok = True
    for w in qmath.haar_random_unitary(2, gen, shape=(10,)):
        s1c = _conjugate_set(s1, w)
        s2c = _conjugate_set(s2, w)
        usc = w @ rot.elements @ w.conj().T
        smc = w @ samples @ w.conj().T
        ok &= muub.verify_prop_trivial(s1c, s2c, usc, smc).verdict
    checks.append({"name": "trivial-bound-conjugated-copies", "pass": bool(ok)})
    had = muub.build_named_basis("hadamard-pair", 2)
    repm = muub.verify_prop_maximal(s1, tester.named_tester_set("xcomp"), rot, had)
    checks.append({"name": "maximal-bound-D2", "pass": bool(repm.verdict)})
    bell = tester.named_tester_set("bell")
    bellrot = tester.named_tester_set("bell-rot")
    pauli = muub.build_named_basis("pauli", 2)
    pub = muub.build_named_basis("pauli-unbiased", 2)
    repm4 = muub.verify_prop_maximal(bell, bellrot, pauli, pub)
    checks.append({"name": "maximal-bound-D4", "pass": bool(repm4.verdict)})
    worst_low, worst_high = 0.0, 0.0
    for pair in ((rot, had), (pauli, pub)):
        for w in qmath.haar_random_unitary(2, gen, shape=(50,)):
            a = muub.UnitaryBasis(2, w @ pair[0].elements @ w.conj().T)
            b = muub.UnitaryBasis(2, w @ pair[1].elements @ w.conj().T)
            cross = muub.embedded_cross_overlaps(a, b)
            worst_low = min(worst_low, float(cross.min()))
            worst_high = max(worst_high, float(cross.max() - a.D))
    checks.append({"name": "cross-overlap-range", "min_excess": worst_low,
                   "max_excess": worst_high,
                   "pass": bool(worst_low >= -1e-9 and worst_high <= 1e-9)})
    return checks


def _conjugate_set(s: tester.TesterSet, w: np.ndarray) -> tester.TesterSet:
    """The set with every probe and projector state rotated by w, each
    tester's states as one stacked product."""
    testers = []
    for t in s:
        states = (w @ np.stack((t.input,) + t.projectors)[..., None])[..., 0]
        testers.append(tester.Tester(input=states[0], projectors=tuple(states[1:]),
                                     dim=t.dim, label=t.label))
    return tester.TesterSet(testers=tuple(testers), dim=s.dim)


_SUITES = {
    "qmath": _suite_qmath,
    "tester": _suite_tester,
    "ppovm": _suite_ppovm,
    "bounds": _suite_bounds,
    "muub": _suite_muub,
    "props": _suite_props,
}


def _cmd_verify(args, log, stages) -> tuple:
    RngHandle(args.seed)  # a bad seed is an error before any suite runs
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    payload = {"seed": args.seed, "suites": {}}
    all_pass = True
    for name in names:
        log(f"running suite {name} ...")
        started = time.perf_counter()
        checks = _SUITES[name](args.seed)
        stages[name] = round((time.perf_counter() - started) * 1000, 3)
        ok = all(c["pass"] for c in checks)
        all_pass &= ok
        payload["suites"][name] = {"pass": ok, "checks": checks}
        log(f"  {name}: {'pass' if ok else 'FAIL'} ({len(checks)} checks)")
    return all_pass, payload


def _cmd_bound(args, log, stages) -> tuple:
    t1, rec1 = _resolve_tester(args.t1)
    t2, rec2 = _resolve_tester(args.t2)
    cfg = bounds.SearchConfig(starts=args.starts, max_iterations=args.iters,
                              tolerance=args.tol, rng=RngHandle(args.seed))
    log(f"searching bound for ({args.t1}, {args.t2}) with {cfg.starts} starts ...")
    started = time.perf_counter()
    est = bounds.estimate_bound(t1, t2, cfg)
    stages["search"] = round((time.perf_counter() - started) * 1000, 3)
    payload = est.to_json()
    payload.update({
        "t1": rec1, "t2": rec2,
        "config": {"starts": cfg.starts, "iters": cfg.max_iterations,
                   "tol": cfg.tolerance, "seed": cfg.rng.seed},
        "classification": bounds.classify_saturation(
            est.value, min(t1.n_outcomes, t2.n_outcomes)),
    })
    return True, payload


def _cmd_muub_check(args, log, stages) -> tuple:
    if args.d is not None and args.b1 not in muub.BASIS_NAMES and args.b2 not in muub.BASIS_NAMES:
        raise ValueError("--d sets the dimension of a named basis, and neither --b1 nor --b2 "
                         "is a basis name")
    d = 2 if args.d is None else args.d
    b1 = _resolve_basis(args.b1, d)
    b2 = _resolve_basis(args.b2, d)
    report = muub.are_muub(b1, b2, tol=args.tol)
    log(f"verdict: {report.verdict} (kappa={report.kappa})")
    return bool(report.verdict), {"b1": args.b1, "b2": args.b2, **report.to_json(),
                                  "config": {"d": b1.dim, "tol": args.tol}}


def _cmd_basis(args, log, stages) -> tuple:
    if args.action == "list":
        given = [flag for flag, value in (("--name", args.name), ("--d", args.d))
                 if value is not None]
        if given:
            raise ValueError(f"basis list does not take {' or '.join(given)}; --name and --d "
                             "are for basis dump")
        return True, {"names": list(muub.BASIS_NAMES)}
    name = "pauli" if args.name is None else args.name
    b = muub.build_named_basis(name, 2 if args.d is None else args.d)
    return True, {"name": name, **b.to_json()}


_EVE_SHORT = {"none": "none", "qmm": "qmm-equivalent-tester", "intercept": "intercept-resend"}


def _cmd_qkd(args, log, stages) -> tuple:
    if args.config:
        overrides = [flag for flag, value in (
            ("--rounds", args.rounds), ("--seed", args.seed), ("--eve", args.eve),
            ("--D", args.D), ("--control-fraction", args.control_fraction),
        ) if value is not None]
        if overrides:
            raise ValueError(f"--config cannot be combined with {', '.join(overrides)}")
        with open(args.config) as fh:
            cfg = qkd.config_from_json(json.load(fh))
    else:
        if args.protocol == "lm05" and args.D is not None:
            raise ValueError("--D applies to the extended protocol only")
        if args.protocol == "extended" and args.control_fraction is not None:
            raise ValueError("--control-fraction applies to the lm05 protocol only")
        # only the flags given, as the fixture configs hold every default; the
        # checks above keep --D and --control-fraction to the one that takes it
        given = {"rounds": args.rounds, "seed": args.seed, "D": args.D,
                 "control_fraction": args.control_fraction,
                 "eve": None if args.eve is None else qkd.EveStrategy(kind=_EVE_SHORT[args.eve])}
        make = qkd.default_lm05_config if args.protocol == "lm05" else qkd.default_extended_config
        cfg = make(**{k: v for k, v in given.items() if v is not None})
    log(f"simulating {args.protocol} for {cfg.rounds} rounds (eve={cfg.eve.kind}) ...")
    run = qkd.run_lm05 if args.protocol == "lm05" else qkd.run_extended
    stats = run(cfg, trace=args.trace, stages=stages)
    payload = {
        "protocol": args.protocol,
        "config": cfg.settings_json(),
        "stats": stats.to_json(),
    }
    return True, payload


class _UsageError(Exception):
    """An argparse usage error, raised instead of exiting the process."""

    def __init__(self, message: str, usage: str, command):
        super().__init__(message)
        self.usage = usage
        self.command = command


class _Parser(argparse.ArgumentParser):
    # subparsers are built with the parent's class, so they raise it too
    def error(self, message):
        command = self.prog.partition(" ")[2] or None
        raise _UsageError(message, self.format_usage(), command)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call (building it
    takes about a millisecond; ``main`` in-process pays it once)."""
    p = _Parser(prog="qtesters", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json-only", action="store_true",
                        help="suppress stderr logs; print only the JSON report")

    sp = sub.add_parser("verify", help="run randomized consistency suites")
    sp.add_argument("--suite", default="all",
                    choices=sorted(_SUITES) + ["all"])
    sp.add_argument("--seed", type=int, default=0)
    common(sp)

    sp = sub.add_parser("bound", help="estimate the entropic bound for a tester pair")
    sp.add_argument("--t1", required=True, help="tester name or JSON file")
    sp.add_argument("--t2", required=True, help="tester name or JSON file")
    sp.add_argument("--starts", type=int, default=16)
    sp.add_argument("--iters", type=int, default=2000,
                    help="gradient-descent iterations per start at most; a start "
                         "stopped by this cap is reported as not converged")
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="a start converges when the Frobenius norm of its traceless "
                         "gradient on U(d) is at most this")
    sp.add_argument("--seed", type=int, default=0)
    common(sp)

    sp = sub.add_parser("muub-check", help="check two unitary bases for mutual unbiasedness")
    sp.add_argument("--b1", required=True, help="basis name or JSON file")
    sp.add_argument("--b2", required=True, help="basis name or JSON file")
    sp.add_argument("--d", type=int, default=None,
                    help="dimension of a named basis, default 2 (weyl: 2 to "
                         f"{muub.WEYL_MAX_D}); an error when neither basis is a name")
    sp.add_argument("--tol", type=float, default=1e-6)
    common(sp)

    sp = sub.add_parser("basis", help="list or dump named unitary bases")
    sp.add_argument("action", choices=["list", "dump"])
    sp.add_argument("--name", default=None, help="dump only; default pauli")
    sp.add_argument("--d", type=int, default=None,
                    help=f"dump only; default 2 (weyl: 2 to {muub.WEYL_MAX_D})")
    common(sp)

    sp = sub.add_parser("qkd", help="run a key-distribution simulation")
    sp.add_argument("protocol", choices=["lm05", "extended"])
    sp.add_argument("--rounds", type=int, default=None, help="default 100000")
    sp.add_argument("--control-fraction", type=float, default=None,
                    help="lm05 only; default 0")
    sp.add_argument("--eve", default=None, choices=sorted(_EVE_SHORT), help="default none")
    sp.add_argument("--D", type=int, default=None, help="extended only; 2 or 4, default 2")
    sp.add_argument("--seed", type=int, default=None, help="default 0")
    sp.add_argument("--config", default=None, help="protocol config JSON file")
    sp.add_argument("--trace", default=None,
                    help="write a per-round CSV log here: a header line, then one line of "
                         "integers per round (-1 in unused fields), \\r\\n line ends, "
                         "written per block of 8192 rounds. A file is rewritten in place "
                         "and cut after the header before any row is written; a FIFO or "
                         "device is written to but not cut. The log is complete only once "
                         "the run returns")
    common(sp)
    return p


_HANDLERS = {
    "verify": _cmd_verify,
    "bound": _cmd_bound,
    "muub-check": _cmd_muub_check,
    "basis": _cmd_basis,
    "qkd": _cmd_qkd,
}


def _report(command, status: str, started: float, stages: dict, payload: dict) -> str:
    return _dump({
        "command": command,
        "status": status,
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
        "stages_ms": stages,
        "provenance": _PROVENANCE,
        "payload": payload,
    })


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    started = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        _log("--json-only" in argv, f"{exc.usage}error: {exc}")
        print(_report(exc.command, "error", started, {}, {"error": str(exc)}))
        return 2
    except SystemExit as exc:
        # -h / --help prints its text and exits 0
        return int(exc.code) if exc.code else 0
    log = functools.partial(_log, args.json_only)
    stages = {}  # stage name -> wall ms, filled in by the handler
    started = time.perf_counter()
    try:
        passed, payload = _HANDLERS[args.command](args, log, stages)
        status = "pass" if passed else "fail"
        code = 0 if passed else 1
    except (ValueError, OSError, KeyError) as exc:
        log(f"error: {exc}")
        payload = {"error": str(exc)}
        status = "error"
        code = 2
    print(_report(args.command, status, started, stages, payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
