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

A ``UnitaryBasis`` holds its elements as one read-only (D, d, d) array, and
``hs_overlap`` gives the overlap of one pair or of every pair of two stacks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qmath
from .bounds import SearchConfig, _multistart
from .qmath import DEFAULT_TOL, PAULIS, SIGMA_Y, balanced_qubit_rotation
from .tester import (
    ENTROPY_ZERO_TOL,
    TesterSet,
    _is_multiple,
    is_complete_set,
    outcome_amplitudes,
    outcome_distribution,
    shannon_entropy,
)

KAPPA_TOL = 1e-6
# bits: how far an entropy of the maximal-bound hypothesis may be from 0
# (deterministic) or from log2 D (uniform)
MAXIMAL_TOL = 1e-6
# largest gap between two sorted outcome distributions that still counts as
# equivalent on a span sample, in the trivial-bound check
SPAN_EQUIV_TOL = 1e-8

BASIS_NAMES = ("pauli", "rotation", "hadamard-pair", "weyl", "pauli-unbiased")
# largest d of a named weyl basis: its d^2 elements and the (d^2, d^2)
# matrix of their overlaps take 16 d^4 bytes each, 16 MB at d = 32
WEYL_MAX_D = 32


def hs_overlap(u: np.ndarray, v: np.ndarray):
    """Squared Hilbert-Schmidt overlap |Tr(u^dag v)|^2 = |sum_ij conj(u_ij) v_ij|^2.

    For two d x d matrices it is a float.  For an (n, d, d) stack ``u`` and
    an (m, d, d) stack ``v`` it is the (n, m) array of the overlap of every
    pair (u_i, v_j): one product of the flattened stacks, |U^* V^T|^2, so no
    (n, m, d, d) temporary is formed.  Any other pair of shapes raises
    ValueError.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.ndim != v.ndim or u.ndim not in (2, 3) or u.shape[-2:] != v.shape[-2:]:
        raise ValueError(f"operators of shapes {u.shape} and {v.shape} do not pair")
    size = u.shape[-2] * u.shape[-1]
    ov = np.abs(u.reshape(-1, size).conj() @ v.reshape(-1, size).T) ** 2
    return float(ov[0, 0]) if u.ndim == 2 else ov


def is_orthogonal_unitary_basis(elements) -> bool:
    """True iff the elements (a sequence of matrices or one (D, d, d) stack)
    are d x d unitaries within ``DEFAULT_TOL``, pairwise Hilbert-Schmidt
    orthogonal (every overlap at most ``DEFAULT_TOL`` squared), and their
    count is d or d^2."""
    try:
        els = np.asarray(elements, dtype=complex)
    except ValueError:  # matrices of different shapes
        return False
    return _is_orthogonal_unitary_stack(els)


def _is_orthogonal_unitary_stack(els: np.ndarray) -> bool:
    """``is_orthogonal_unitary_basis`` for elements already converted to
    one complex array."""
    if els.ndim != 3 or not els.size or len(els) not in (els.shape[1], els.shape[1] ** 2):
        return False
    if not qmath.is_unitary(els):
        return False
    # unitaries have finite overlaps, and each one's overlap with itself,
    # zeroed, passes the test
    overlaps = hs_overlap(els, els)
    overlaps.flat[::len(els) + 1] = 0.0
    return bool(qmath._MAX(overlaps, axis=None) <= DEFAULT_TOL * DEFAULT_TOL)


@dataclass(frozen=True, eq=False)
class UnitaryBasis:
    """Pairwise HS-orthogonal unitaries spanning a D in {d, d^2} subspace.

    ``elements`` is one read-only complex (D, d, d) array, copied from the
    given matrices and checked once on construction.
    """

    dim: int
    elements: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", qmath.int_field(vars(self), "dim"))
        try:
            els = np.array(self.elements, dtype=complex)  # the one copy, checked in place
        except ValueError:  # matrices of different shapes
            els = None
        if els is None or not _is_orthogonal_unitary_stack(els):
            raise ValueError("elements are not an orthogonal unitary basis of size d or d^2")
        if els.shape[1] != self.dim:
            raise ValueError("element dimension does not match dim")
        els.setflags(write=False)
        object.__setattr__(self, "elements", els)

    @property
    def D(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def to_json(self) -> dict:
        return {"dim": self.dim, "elements": [qmath.matrix_to_json(e) for e in self.elements]}


def basis_from_json(obj: dict) -> UnitaryBasis:
    """UnitaryBasis from its JSON literal; a malformed literal raises
    ValueError, also one with a key other than dim and elements."""
    try:
        dim = qmath.int_field(obj, "dim")
        elements = tuple(qmath.matrix_from_json(e) for e in obj["elements"])
        qmath.check_keys(obj, ("dim", "elements"), "basis")
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
    _check_alike(a, b)
    d, dd = a.dim, a.D
    expected = 1.0 if dd == d * d else float(d)
    overlaps = hs_overlap(a.elements, b.elements)
    mean = float(overlaps.mean())
    constant = bool(np.max(np.abs(overlaps - mean)) <= tol)
    verdict = constant and abs(mean - expected) <= tol
    return MuubReport(
        overlaps=overlaps,
        kappa=mean if constant else None,
        expected_kappa=expected,
        verdict=verdict,
    )


def _check_alike(a: UnitaryBasis, b: UnitaryBasis) -> None:
    """Raise ValueError unless the two families share their dimension and size."""
    if a.dim != b.dim:
        raise ValueError("bases act on different dimensions")
    if a.D != b.D:
        raise ValueError("bases span subspaces of different sizes")


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


def _named_elements(name: str, d: int) -> tuple:
    """The elements of a named basis, unchecked; a d out of range raises
    ValueError before anything is allocated."""
    if name == "weyl":
        if d < 2:
            raise ValueError("weyl basis needs d >= 2")
        if d > WEYL_MAX_D:
            raise ValueError(f"weyl basis needs d <= {WEYL_MAX_D}, got d={d}")
        return _weyl_basis(d)
    if d != 2:
        raise ValueError(f"basis {name!r} is only defined for d=2")
    i2 = np.eye(2, dtype=complex)
    if name == "pauli":
        return tuple(PAULIS)
    if name == "rotation":
        return (i2, 1j * SIGMA_Y)
    if name == "hadamard-pair":
        return ((i2 - 1j * SIGMA_Y) / np.sqrt(2), (i2 + 1j * SIGMA_Y) / np.sqrt(2))
    if name == "pauli-unbiased":
        v = balanced_qubit_rotation()
        return tuple(p @ v for p in PAULIS)
    raise ValueError(f"unknown basis name: {name!r}")


def build_named_basis(name: str, d: int) -> UnitaryBasis:
    """Named bases: "pauli" (d=2), "rotation" {I, i sy} (d=2), "hadamard-pair"
    {(I -+ i sy)/sqrt 2} (d=2), "weyl" (2 <= d <= WEYL_MAX_D = 32: its
    elements and its orthogonality check take about 16 MB each at d = 32),
    "pauli-unbiased" (d=2).

    ``d`` is read as ``UnitaryBasis`` reads ``dim`` (``qmath.int_field``),
    so 2.0 is 2, and a bool, a fractional float or a string raises
    ValueError naming ``d``.  Each named basis is then built and checked
    once per process: a repeat call returns the same read-only object, as
    ``tester.named_tester_set`` does.  An unknown name or a d out of range
    raises ValueError on every call, before anything is allocated, and is
    not stored.  So the process keeps at most the four d = 2-only bases and
    one weyl basis per d requested, 16 d^4 bytes each (16 MB at d = 32).
    """
    return _named_basis(name, qmath.int_field({"d": d}, "d"))


@functools.cache
def _named_basis(name: str, d: int) -> UnitaryBasis:
    return UnitaryBasis(dim=d, elements=_named_elements(name, d))


def rotation_span_samples(n: int = 16) -> np.ndarray:
    """The (n, 2, 2) stack of unitaries cos(theta) I + sin(theta) (i sy),
    theta at n equal steps of [0, 2 pi), covering the span of the
    "rotation" basis (modulo global phase)."""
    i2 = np.eye(2, dtype=complex)
    thetas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)[:, None, None]
    return np.cos(thetas) * i2 + np.sin(thetas) * (1j * SIGMA_Y)


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


def verify_prop_trivial(s1: TesterSet, s2: TesterSet, us, span_samples) -> TrivialBoundReport:
    """Check the trivial-bound structure result on concrete data.

    Hypothesis: both sets complete; every cross tester pair has zero
    entropy sum on every element of ``us``; no U_m^dag U_n (m != n) is an
    eigenoperator of any probe.  Conclusions checked: ``us`` pairwise
    HS-orthogonal (s1) and all tester pairs outcome-equivalent on each
    span sample (s2).  Failures are recorded, never raised.  Completeness,
    the eigenoperator test and orthogonality (overlap at most its square)
    use ``DEFAULT_TOL``, the entropy sums ``ENTROPY_ZERO_TOL`` bits, and
    the equivalences ``SPAN_EQUIV_TOL``.

    Each set's distributions are one checked ``outcome_distribution`` call
    over all of ``us`` and one over all span samples, s1's first, so a
    failing row raises; every row is the single-tester call's bit for bit.
    The eigenoperator test takes the images of the probes under every
    U_m^dag U_n (x) I_d from one ``outcome_amplitudes`` call per set, the
    Born rule's own product, so no Kronecker product is formed.  Failures
    are listed in (sample, tester, tester) order.
    """
    failures = []
    us = _stack(us, s1.dim)
    if not is_complete_set(s1) or not is_complete_set(s2):
        failures.append("tester sets are not complete")
    if s1.dim != s2.dim:
        raise ValueError("testers act on different dimensions")
    h1, h2 = (shannon_entropy(outcome_distribution(s, us)) for s in (s1, s2))
    sums = (h1[:, None] + h2[None]).transpose(2, 0, 1)  # element, s1 tester, s2 tester
    failures += [f"entropy sum {sums[m, i, j]:.3e} bits nonzero for "
                 f"({s1.testers[i].label},{s2.testers[j].label})"
                 for m, i, j in zip(*np.nonzero(sums > ENTROPY_ZERO_TOL))]
    el = np.arange(len(us))
    m_idx, n_idx = np.nonzero(el[:, None] != el)  # every ordered pair m != n
    if m_idx.size:
        ws = us[m_idx].conj().swapaxes(-1, -2) @ us[n_idx]
        # each probe after U_m^dag U_n, as the Born rule sends it: (tester,
        # pair) images, turned to (pair, tester)
        eig = np.concatenate([
            _is_multiple(outcome_amplitudes(s, ws)[0].swapaxes(0, 1).reshape(len(ws), len(s), -1),
                         s.input) for s in (s1, s2)], axis=1)
        failures += [f"U_{m_idx[k]}^dag U_{n_idx[k]} is an eigenoperator of a probe"
                     for k in np.nonzero(eig)[0]]
    hypothesis = not failures
    # the pairs m < n whose overlap fails, in row-major order
    apart = np.nonzero((el[:, None] < el) & (hs_overlap(us, us) > DEFAULT_TOL * DEFAULT_TOL))
    failures += [f"family elements {m},{n} are not HS-orthogonal" for m, n in zip(*apart)]
    ws = _stack(span_samples, s1.dim)
    p1, p2 = (outcome_distribution(s, ws) for s in (s1, s2))
    # every tester's sorted rows, s1's then s2's; the rows of a set with
    # fewer outcomes are padded with -1, so they differ from the other
    # set's by 1 or more and, as in are_equivalent, are never equivalent
    p = np.full((len(p1) + len(p2), len(ws), max(p1.shape[-1], p2.shape[-1])), -1.0)
    p[:len(p1), :, :p1.shape[-1]], p[len(p1):, :, :p2.shape[-1]] = p1, p2
    p.sort(axis=-1)
    ts = np.arange(len(p))
    i, j = np.nonzero(ts[:, None] < ts)  # every tester pair i < j, in row-major order
    equiv = qmath._MAX(np.abs(p[i] - p[j]), axis=-1) <= SPAN_EQUIV_TOL  # tester pair, sample
    testers = s1.testers + s2.testers
    failures += [f"testers {testers[i[q]].label},{testers[j[q]].label} not equivalent "
                 "on a span sample" for q in np.nonzero(~equiv.T)[1]]
    return TrivialBoundReport(
        hypothesis_pass=hypothesis,
        s1_pass=not apart[0].size,
        s2_pass=bool(equiv.all()),
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
    return scale * hs_overlap(a.elements, b.elements)


def maximal_hypothesis(s1: TesterSet, s2: TesterSet, fam1: UnitaryBasis,
                       fam2: UnitaryBasis) -> tuple:
    """The maximal-bound hypothesis for two families of one dimension and
    size D: s1 deterministic on fam1 and uniform on fam2, and s2 the other
    way around, all within ``MAXIMAL_TOL`` bits.

    Returns (rows, failures): rows[s][i] is tester i of set s on fam1 then
    fam2, and each set's rows are one checked ``outcome_distribution``
    call, so a leaking row raises; each set's entropies are one
    ``shannon_entropy`` call, and failures are listed per check, then per
    tester, then per element.  Families of different dimension or size
    raise ``are_muub``'s ValueError.
    """
    _check_alike(fam1, fam2)
    dd = fam1.D
    us = np.concatenate((fam1.elements, fam2.elements))
    rows = tuple(outcome_distribution(ts, us) for ts in (s1, s2))
    hs = [shannon_entropy(r).reshape(len(r), 2, dd) for r in rows]
    failures = []
    for s, f in ((0, 0), (0, 1), (1, 1), (1, 0)):
        expect, target = ("deterministic", 0.0) if s == f else ("uniform", np.log2(dd))
        h = hs[s][:, f]
        failures += [f"set{s + 1}/family{f + 1} element {j}: tester "
                     f"{(s1, s2)[s].testers[i].label} entropy {h[i, j]:.6f} bits, "
                     f"expected {expect}"
                     for i, j in zip(*np.nonzero(np.abs(h - target) > MAXIMAL_TOL))]
    return rows, failures


def verify_prop_maximal(s1: TesterSet, s2: TesterSet, fam1: UnitaryBasis,
                        fam2: UnitaryBasis) -> MaximalBoundReport:
    """Check the maximal-bound structure result on concrete data.

    Hypothesis: both sets complete, and ``maximal_hypothesis`` within
    ``MAXIMAL_TOL`` bits.  Conclusions checked: every embedded cross
    overlap lies in [0, D] (range check) and the two families verify as a
    MUUB pair.  Families of different dimension or size raise ValueError.
    """
    report = are_muub(fam1, fam2)
    complete = is_complete_set(s1) and is_complete_set(s2)
    failures = [] if complete else ["tester sets are not complete"]
    failures += maximal_hypothesis(s1, s2, fam1, fam2)[1]
    hypothesis = not failures
    cross = embedded_cross_overlaps(fam1, fam2)
    range_pass = bool(np.all(cross >= -DEFAULT_TOL) and np.all(cross <= fam1.D + DEFAULT_TOL))
    if not range_pass:
        failures.append("an embedded cross overlap left [0, D]")
    return MaximalBoundReport(hypothesis, range_pass, report, tuple(failures))


def _partner_objective(basis: UnitaryBasis):
    """Squared deviation of all cross overlaps |Tr(P_k^dag P_l V)|^2 from 1,
    for each V of a (k, d, d) stack of unitaries, and its Hermitian
    gradient omega = (i/2)(Y - Y^dag) for V <- exp(iH) V, with
    Y = sum_kl 4 r_kl conj(t_kl) V Q_kl, Q_kl = P_k^dag P_l,
    t_kl = Tr(Q_kl V) and r_kl = |t_kl|^2 - 1.

    Tr(Q_kl V) = sum_ij (Q_kl)_ij V_ji, so the D^2 traces for one V are a
    single stacked matrix-vector product with the products Q_kl, formed
    once, and the sum over Q_kl in Y is one product with the same matrix.
    """
    d, dd = basis.dim, basis.D
    els = basis.elements
    pairs = (np.swapaxes(els.conj(), -1, -2)[:, None] @ els[None]).reshape(dd * dd, d * d)

    def g(v):
        vt = np.swapaxes(v, -1, -2).reshape(v.shape[:-2] + (d * d, 1))
        traces = (pairs @ vt)[..., 0]
        r = np.abs(traces) ** 2 - 1.0
        y = v @ ((4.0 * r * traces.conj())[..., None, :] @ pairs).reshape(v.shape)
        return (r ** 2).sum(-1), 0.5j * (y - y.conj().swapaxes(-1, -2))
    return g


# gradient-norm stop of a partner start, and the residual at which a start
# that stops ends the whole search: every |Tr(P_k^dag P_l V)|^2 is then
# within 1e-12 of 1
_PARTNER_GTOL, _PARTNER_TARGET = 1e-13, 1e-24


def find_unbiased_partner(basis: UnitaryBasis, cfg: SearchConfig):
    """Search for a right-multiplier V making {P_j V} unbiased to {P_j}.

    Only meaningful for D = d^2 bases (where {P_j V} is automatically an
    orthogonal unitary basis of the full matrix space).  Minimizes the
    squared deviation of all cross overlaps from 1 with the lockstep
    multi-start gradient descent used for bound estimation.  A start
    converges at a gradient norm of 1e-13, a fixed tolerance; ``cfg``
    supplies the starts, the iteration limit and the seed, and
    ``cfg.tolerance`` is not used.

    The search ends at the first iteration where a start converges (or its
    step vanishes) at a residual of at most 1e-24, or when every start has
    stopped; the first start with the least residual at that point wins.
    So a start that finds a partner ends the others; with many starts, the
    partner returned can differ from the one the best start would reach if
    every start ran to the end.  Returns (partner, residual); the caller
    judges whether the residual is small enough to accept.
    """
    d = basis.dim
    if basis.D != d * d:
        raise ValueError("partner search is implemented for full bases (D = d^2) only")
    runs = _multistart(_partner_objective(basis), d, cfg, _PARTNER_GTOL,
                       target=_PARTNER_TARGET)
    v = runs.u[runs.best]
    partner = UnitaryBasis(dim=d, elements=basis.elements @ v)
    return partner, float(runs.final[runs.best])
