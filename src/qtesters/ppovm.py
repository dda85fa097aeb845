"""Process-operator formulation of testers.

A tester's statistics can be produced without touching the probe directly.
The channel ``u`` is represented by its rank-one process operator
E(u) = |u)(u| on (output, probe-input), with |u) = (u (x) I) sum_i |i>|i>
the row-major flattening of u.  With the probe reshaped to a
(probe-input, ancilla) matrix Psi and projector k to an (output, ancilla)
matrix X_k (a one-dimensional ancilla for an ancilla-free tester),
<chi_k|(u (x) I)|psi> = (m_k|u) for |m_k) = vec(X_k Psi^dag).  So each
tester element is rank one, T_k = |m_k)(m_k|, and

    p_k = |(m_k|u)|^2 = (u|T_k|u) = Tr[T_k E].

A complete measurement's elements sum to I (x) [Tr_anc rho]^t.  For the
probe |0> measured in the computational basis T_k = |k><k| (x) |0><0|, the
recorded witness for the factor order; the cross-check against the direct
rule |<chi_k|U|psi>|^2 is the arbiter and is enforced by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .qmath import DEFAULT_TOL
from .tester import LEAK_TOL, Tester


@dataclass(frozen=True, eq=False)
class ChoiOperator:
    """Positive semidefinite process operator; rank one with trace d for
    unitary channels."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = qmath.as_matrix(self.matrix)
        n = self.dim * self.dim
        if m.shape != (n, n):
            raise ValueError(f"process operator must be {n}x{n} for d={self.dim}")
        if np.abs(m - m.conj().T).max() > DEFAULT_TOL:
            raise ValueError("process operator is not Hermitian")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -DEFAULT_TOL:
            raise ValueError(f"process operator is not PSD (min eigenvalue {evals.min():.3e})")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class TesterElementSet:
    """PPOVM elements T_k for one tester as one (n, d^2, d^2) stack, plus the
    probe density operator."""

    elements: np.ndarray
    probe: np.ndarray
    complete: bool

    def __post_init__(self):
        els = np.array(self.elements, dtype=complex)
        if els.ndim != 3 or els.shape[1] != els.shape[2]:
            raise ValueError(f"tester elements must be a stack of square matrices, got {els.shape}")
        if not np.isfinite(els).all():
            raise ValueError("matrix has non-finite entries")
        # eigvalsh reads only the lower triangle, so Hermiticity is checked first
        if np.abs(els - els.conj().swapaxes(1, 2)).max(initial=0.0) > DEFAULT_TOL:
            raise ValueError("tester element is not Hermitian")
        evals = np.linalg.eigvalsh(els)
        if evals.size and evals.min() < -DEFAULT_TOL:
            raise ValueError(f"tester element not PSD (min eigenvalue {evals.min():.3e})")
        els.setflags(write=False)
        object.__setattr__(self, "elements", els)
        object.__setattr__(self, "probe", qmath.as_matrix(self.probe))

    def normalization(self) -> np.ndarray:
        return self.elements.sum(0)


def choi_operator(u: np.ndarray) -> ChoiOperator:
    """Rank-one process operator of a unitary channel (trace d)."""
    u = qmath.assert_unitary(u)
    w = u.reshape(-1)  # (u (x) I) sum_i |i>|i>, row-major layout
    return ChoiOperator(dim=u.shape[0], matrix=np.outer(w, w.conj()))


def tester_elements(t: Tester) -> TesterElementSet:
    """PPOVM elements T_k = |m_k)(m_k|, m_k = vec(X_k Psi^dag), all at once.

    One stacked matmul gives every conj(X_k) Psi^t = conj(X_k Psi^dag) from
    the conjugated projector rows, and one outer product gives every T_k.
    """
    d = t.dim
    rows = t.projector_matrix()
    psi = t.input.reshape(d, -1)
    m_conj = (rows.reshape(len(rows), d, -1) @ psi.T).reshape(len(rows), d * d)
    elements = m_conj.conj()[:, :, None] * m_conj[:, None, :]
    complete = bool(np.abs(rows.T @ rows.conj() - np.eye(t.input.size)).max() <= DEFAULT_TOL)
    rho = np.outer(t.input, t.input.conj())
    return TesterElementSet(elements=elements, probe=rho, complete=complete)


def probability_via_choi(ts: TesterElementSet, e: ChoiOperator) -> np.ndarray:
    """p_k = Tr[T_k E] for every k from one matvec against E, as a float
    array clamped to [0, 1] after a reality check; it must be finite and sum
    to 1 within 1e-9 unless the sum is below 1 - 1e-6 (a leaky tester)."""
    if ts.elements.shape[1:] != e.matrix.shape:
        raise ValueError(f"element shape {ts.elements.shape[1:]} does not match the process "
                         f"operator {e.matrix.shape}")
    vals = ts.elements.reshape(len(ts.elements), -1) @ e.matrix.T.reshape(-1)
    imag = np.abs(vals.imag) > DEFAULT_TOL
    if imag.any():
        raise ValueError(f"Tr[T_k E] has imaginary part {vals.imag[imag][0]:.3e}")
    p = np.clip(vals.real, 0.0, 1.0)
    if not np.isfinite(p).all():
        raise ValueError(f"probabilities are not finite: {p}")
    total = float(p.sum())
    if total >= 1.0 - LEAK_TOL and abs(total - 1.0) > DEFAULT_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return p
