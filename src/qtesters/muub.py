"""Orthogonal unitary bases and mutual unbiasedness.

Two orthogonal unitary bases {P_i} and {Q_j} of a common D-dimensional
subspace of the d x d matrices are mutually unbiased when every cross
overlap |Tr(P_i^dag Q_j)|^2 equals one constant kappa, which is forced to
1 for D = d^2 and to d for D = d.  This module verifies that condition,
builds the named fixture bases, and runs executable checks of the two
structure results that connect tester statistics to such bases:

* trivial-bound check: tester sets that are jointly deterministic on a
  unitary family force that family to be pairwise orthogonal, and the
  testers to be outcome-equivalent on the family's span;
* maximal-bound check: two unitary families that are deterministic for one
  complete tester set while uniform for the other form a MUUB pair, with
  every embedded cross overlap inside [0, D].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .bounds import SearchConfig, _multistart, entropy_sum
from .qmath import DEFAULT_TOL, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z
from .tester import (
    ENTROPY_ZERO_TOL,
    TesterSet,
    are_equivalent,
    is_complete_set,
    is_eigenoperator,
    outcome_distribution,
    shannon_entropy,
)

KAPPA_TOL = 1e-6

BASIS_NAMES = ("pauli", "rotation", "hadamard-pair", "weyl", "pauli-unbiased")


def hs_overlap(u: np.ndarray, v: np.ndarray):
    """Squared Hilbert-Schmidt overlap |Tr(u^dag v)|^2 = |sum_ij conj(u_ij) v_ij|^2.

    ``u`` and ``v`` of shapes (..., d, d) broadcast over leading axes: a float
    for two matrices, an array for stacks (``hs_overlap(a[:, None], b)`` for
    every pair of the stacks ``a`` and ``b``).
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape[-2:] != v.shape[-2:]:
        raise ValueError("operators have different shapes")
    ov = np.abs((u.conj() * v).sum(axis=(-2, -1))) ** 2
    return float(ov) if ov.ndim == 0 else ov


def is_orthogonal_unitary_basis(elements, tol: float = DEFAULT_TOL) -> bool:
    """True iff all elements are unitary, pairwise Hilbert-Schmidt orthogonal,
    and their count is d or d^2."""
    els = [np.asarray(e, dtype=complex) for e in elements]
    if not els or els[0].ndim != 2:
        return False
    d = els[0].shape[0]
    if len(els) not in (d, d * d):
        return False
    if any(e.shape != (d, d) for e in els):
        return False
    els = np.stack(els)
    if not qmath.is_unitary(els, tol):
        return False
    off_diagonal = hs_overlap(els[:, None], els)[~np.eye(len(els), dtype=bool)]
    return bool((off_diagonal <= tol * tol).all())


@dataclass(frozen=True, eq=False)
class UnitaryBasis:
    """Pairwise HS-orthogonal unitaries spanning a D in {d, d^2} subspace."""

    dim: int
    elements: tuple

    def __post_init__(self):
        els = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not is_orthogonal_unitary_basis(els):
            raise ValueError("elements are not an orthogonal unitary basis of size d or d^2")
        if els[0].shape[0] != self.dim:
            raise ValueError("element dimension does not match dim")
        object.__setattr__(self, "elements", els)

    @property
    def D(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def to_json(self) -> dict:
        return {"dim": self.dim, "elements": [qmath.matrix_to_json(e) for e in self.elements]}


def basis_from_json(obj: dict) -> UnitaryBasis:
    """UnitaryBasis from its JSON literal; a malformed literal raises ValueError."""
    try:
        dim = int(obj["dim"])
        elements = tuple(qmath.matrix_from_json(e) for e in obj["elements"])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"bad basis literal: {type(exc).__name__}: {exc}") from exc
    return UnitaryBasis(dim=dim, elements=elements)


@dataclass(frozen=True, eq=False)
class MuubReport:
    overlaps: np.ndarray
    kappa: float | None   # None when the overlaps are not constant
    expected_kappa: float
    verdict: bool

    def to_json(self) -> dict:
        return {
            "overlaps": [[float(x) for x in row] for row in self.overlaps],
            "kappa": None if self.kappa is None else float(self.kappa),
            "expected_kappa": float(self.expected_kappa),
            "verdict": bool(self.verdict),
        }


def are_muub(a: UnitaryBasis, b: UnitaryBasis, tol: float = KAPPA_TOL) -> MuubReport:
    """Full cross-overlap matrix plus the constant-kappa verdict."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    if a.dim != b.dim:
        raise ValueError("bases act on different dimensions")
    if a.D != b.D:
        raise ValueError("bases span subspaces of different sizes")
    d, dd = a.dim, a.D
    expected = 1.0 if dd == d * d else float(d)
    overlaps = hs_overlap(np.stack(a.elements)[:, None], np.stack(b.elements))
    mean = float(overlaps.mean())
    constant = bool(np.max(np.abs(overlaps - mean)) <= tol)
    verdict = constant and abs(mean - expected) <= tol
    return MuubReport(
        overlaps=overlaps,
        kappa=mean if constant else None,
        expected_kappa=expected,
        verdict=verdict,
    )


def _weyl_basis(d: int) -> tuple:
    """Clock-and-shift products X^a Z^b with omega = exp(2 pi i / d)."""
    omega = np.exp(2j * np.pi / d)
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    clock = np.diag(omega ** np.arange(d))
    out = []
    for a in range(d):
        for b in range(d):
            out.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return tuple(out)


def balanced_qubit_rotation() -> np.ndarray:
    """The qubit unitary (I + i(sx+sy+sz))/2, whose overlap with every Pauli
    is exactly 1; it turns the Pauli basis into its unbiased partner."""
    return 0.5 * (np.eye(2, dtype=complex) + 1j * (SIGMA_X + SIGMA_Y + SIGMA_Z))


def build_named_basis(name: str, d: int) -> UnitaryBasis:
    """Named bases: "pauli" (d=2), "rotation" {I, i sy} (d=2), "hadamard-pair"
    {(I -+ i sy)/sqrt 2} (d=2), "weyl" (any d), "pauli-unbiased" (d=2)."""
    if name == "weyl":
        if d < 2:
            raise ValueError("weyl basis needs d >= 2")
        return UnitaryBasis(dim=d, elements=_weyl_basis(d))
    if d != 2:
        raise ValueError(f"basis {name!r} is only defined for d=2")
    i2 = np.eye(2, dtype=complex)
    if name == "pauli":
        return UnitaryBasis(dim=2, elements=tuple(PAULIS))
    if name == "rotation":
        return UnitaryBasis(dim=2, elements=(i2, 1j * SIGMA_Y))
    if name == "hadamard-pair":
        return UnitaryBasis(
            dim=2,
            elements=((i2 - 1j * SIGMA_Y) / np.sqrt(2), (i2 + 1j * SIGMA_Y) / np.sqrt(2)),
        )
    if name == "pauli-unbiased":
        v = balanced_qubit_rotation()
        return UnitaryBasis(dim=2, elements=tuple(p @ v for p in PAULIS))
    raise ValueError(f"unknown basis name: {name!r}")


def rotation_span_samples(n: int = 16) -> list:
    """Unitaries cos(theta) I + sin(theta) (i sy) covering the span of the
    "rotation" basis (modulo global phase)."""
    i2 = np.eye(2, dtype=complex)
    thetas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return [np.cos(th) * i2 + np.sin(th) * (1j * SIGMA_Y) for th in thetas]


# ---------------------------------------------------------------------------
# Executable structure checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrivialBoundReport:
    hypothesis_pass: bool
    s1_pass: bool            # family pairwise HS-orthogonal
    s2_pass: bool            # testers equivalent on every span sample
    failures: tuple

    @property
    def verdict(self) -> bool:
        return self.hypothesis_pass and self.s1_pass and self.s2_pass


def _stack(mats, d: int) -> np.ndarray:
    """The matrices as one complex (n, d, d) stack, also for n = 0."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    return np.stack(mats) if mats else np.empty((0, d, d), dtype=complex)


def verify_prop_trivial(s1: TesterSet, s2: TesterSet, us, span_samples,
                        tol: float = DEFAULT_TOL) -> TrivialBoundReport:
    """Check the trivial-bound structure result on concrete data.

    Hypothesis: both sets complete; every cross tester pair has zero
    entropy sum on every element of ``us``; no U_m^dag U_n (m != n) is an
    eigenoperator of any probe.  Conclusions checked: ``us`` pairwise
    HS-orthogonal (s1) and all tester pairs outcome-equivalent on each
    span sample (s2).  Failures are recorded, never raised.

    Each tester pair's entropy sums are one stacked ``entropy_sum`` call
    over all of ``us``, and its equivalences one stacked ``are_equivalent``
    call over all span samples; their rows are the scalar calls' bit for
    bit, and failures are listed in (sample, tester, tester) order.
    """
    failures = []
    us = _stack(us, s1.dim)
    if not is_complete_set(s1, tol) or not is_complete_set(s2, tol):
        failures.append("tester sets are not complete")
    pairs = [(ta, tb) for ta in s1 for tb in s2]
    sums = [entropy_sum(ta, tb, us) for ta, tb in pairs]
    for m in range(len(us)):
        for (ta, tb), h in zip(pairs, sums):
            if h[m] > ENTROPY_ZERO_TOL:
                failures.append(
                    f"entropy sum {h[m]:.3e} bits nonzero for ({ta.label},{tb.label})"
                )
    probes = [t.input for t in s1] + [t.input for t in s2]
    for m in range(len(us)):
        for n in range(len(us)):
            if m == n:
                continue
            w = us[m].conj().T @ us[n]
            for psi in probes:
                if is_eigenoperator(w, psi, tol):
                    failures.append(f"U_{m}^dag U_{n} is an eigenoperator of a probe")
    hypothesis = not failures
    overlaps = hs_overlap(us[:, None], us)
    s1_pass = True
    for m, n in zip(*np.triu_indices(len(us), 1)):
        if overlaps[m, n] > tol * tol:
            s1_pass = False
            failures.append(f"family elements {m},{n} are not HS-orthogonal")
    s2_pass = True
    testers = list(s1) + list(s2)
    pairs = [(ti, tj) for i, ti in enumerate(testers) for tj in testers[i + 1:]]
    ws = _stack(span_samples, s1.dim)
    equiv = [are_equivalent(ti, tj, ws, tol=1e-8) for ti, tj in pairs]
    for k in range(len(ws)):
        for (ti, tj), eq in zip(pairs, equiv):
            if not eq[k]:
                s2_pass = False
                failures.append(f"testers {ti.label},{tj.label} not equivalent on a span sample")
    return TrivialBoundReport(
        hypothesis_pass=hypothesis,
        s1_pass=s1_pass,
        s2_pass=s2_pass,
        failures=tuple(failures),
    )


@dataclass(frozen=True, eq=False)
class MaximalBoundReport:
    hypothesis_pass: bool
    range_pass: bool          # every embedded cross overlap inside [0, D]
    muub: MuubReport
    failures: tuple

    @property
    def verdict(self) -> bool:
        return self.hypothesis_pass and self.range_pass and self.muub.verdict


def embedded_cross_overlaps(a: UnitaryBasis, b: UnitaryBasis) -> np.ndarray:
    """|Tr(U_m^dag U'_n)|^2 with the unitaries embedded the way the testers
    apply them: as u (x) I_d when D = d^2, bare otherwise.

    Tr((u (x) I_d)^dag (v (x) I_d)) = d Tr(u^dag v), so the embedded
    overlaps are d^2 times the bare ones, and no embedding is formed.
    """
    scale = a.dim ** 2 if a.D == a.dim ** 2 else 1
    return scale * hs_overlap(np.stack(a.elements)[:, None], np.stack(b.elements))


def maximal_hypothesis(s1: TesterSet, s2: TesterSet, fam1: UnitaryBasis,
                       fam2: UnitaryBasis, tol: float = 1e-6) -> tuple:
    """The maximal-bound hypothesis for two families of one dimension and
    size D: s1 deterministic on fam1 and uniform on fam2, and s2 the other
    way around, all within ``tol`` bits.

    Returns (rows, failures): rows[s][i] is tester i of set s on fam1 then
    fam2, and each set's rows are one checked ``outcome_distribution``
    call, so a leaking row raises; each set's entropies are one
    ``shannon_entropy`` call, and failures are listed per check, then per
    tester, then per element.
    """
    dd = fam1.D
    us = np.concatenate((np.stack(fam1.elements), np.stack(fam2.elements)))
    rows = tuple(outcome_distribution(ts, us) for ts in (s1, s2))
    hs = [shannon_entropy(r).reshape(len(r), 2, dd) for r in rows]
    failures = []
    for s, f in ((0, 0), (0, 1), (1, 1), (1, 0)):
        expect, target = ("deterministic", 0.0) if s == f else ("uniform", np.log2(dd))
        h = hs[s][:, f]
        failures += [f"set{s + 1}/family{f + 1}: tester {(s1, s2)[s].testers[i].label} entropy "
                     f"{h[i, j]:.6f} bits, expected {expect}"
                     for i, j in zip(*np.nonzero(np.abs(h - target) > tol))]
    return rows, failures


def verify_prop_maximal(s1: TesterSet, s2: TesterSet, fam1: UnitaryBasis,
                        fam2: UnitaryBasis, tol: float = 1e-6) -> MaximalBoundReport:
    """Check the maximal-bound structure result on concrete data.

    Hypothesis: both sets complete, and ``maximal_hypothesis`` within
    ``tol`` bits.  Conclusions checked: every embedded cross overlap lies in
    [0, D] (range check) and the two families verify as a MUUB pair.
    Families of different dimension or size raise ValueError.
    """
    report = are_muub(fam1, fam2)
    complete = is_complete_set(s1) and is_complete_set(s2)
    failures = [] if complete else ["tester sets are not complete"]
    failures += maximal_hypothesis(s1, s2, fam1, fam2, tol)[1]
    hypothesis = not failures
    cross = embedded_cross_overlaps(fam1, fam2)
    range_pass = bool(np.all(cross >= -DEFAULT_TOL) and np.all(cross <= fam1.D + DEFAULT_TOL))
    if not range_pass:
        failures.append("an embedded cross overlap left [0, D]")
    return MaximalBoundReport(hypothesis, range_pass, report, tuple(failures))


def _partner_objective(basis: UnitaryBasis):
    """Squared deviation of all cross overlaps |Tr(P_k^dag P_l V)|^2 from 1,
    for each V of a (k, d, d) stack of unitaries.

    Tr(P_k^dag P_l V) = sum_ij (P_k^dag P_l)_ij V_ji, so the D^2 traces for
    one V are a single stacked matrix-vector product with the products
    P_k^dag P_l, formed once.
    """
    d, dd = basis.dim, basis.D
    els = np.stack(basis.elements)
    pairs = (np.swapaxes(els.conj(), -1, -2)[:, None] @ els[None]).reshape(dd * dd, d * d)

    def g(v):
        vt = np.swapaxes(v, -1, -2).reshape(v.shape[:-2] + (d * d, 1))
        traces = (pairs @ vt)[..., 0]
        return ((np.abs(traces) ** 2 - 1.0) ** 2).sum(-1)
    return g


def find_unbiased_partner(basis: UnitaryBasis, cfg: SearchConfig):
    """Search for a right-multiplier V making {P_j V} unbiased to {P_j}.

    Only meaningful for D = d^2 bases (where {P_j V} is automatically an
    orthogonal unitary basis of the full matrix space).  Minimizes the
    squared deviation of all cross overlaps from 1 with the lockstep
    multi-start simplex descent used for bound estimation: the starts are
    independent, and the first start with the least residual wins.  The
    search tolerances are fixed (xatol 1e-10, fatol 1e-14); ``cfg`` supplies
    the starts, the iteration limit and the seed, and ``cfg.tolerance`` is
    not used.  Returns (partner, residual); the caller judges whether the
    residual is small enough to accept.
    """
    d = basis.dim
    if basis.D != d * d:
        raise ValueError("partner search is implemented for full bases (D = d^2) only")
    runs = _multistart(_partner_objective(basis), d, cfg, 1e-10, 1e-14)
    v = runs.u[runs.best]
    partner = UnitaryBasis(dim=d, elements=tuple(p @ v for p in basis))
    return partner, float(runs.final[runs.best])
