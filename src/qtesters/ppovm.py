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

The functions return plain arrays.  E and the T_k are outer products of a
vector with itself, built from a checked unitary and a validated ``Tester``,
so they are PSD by construction and are not checked again.
"""

from __future__ import annotations

import numpy as np

from . import qmath
from .qmath import DEFAULT_TOL
from .tester import LEAK_TOL, Tester


def choi_operator(u: np.ndarray) -> np.ndarray:
    """The (d^2, d^2) rank-one process operator |u)(u| of a unitary channel
    (trace d); a non-unitary ``u`` raises ValueError."""
    u = qmath.assert_unitary(u)
    w = u.reshape(-1)  # (u (x) I) sum_i |i>|i>, row-major layout
    return np.outer(w, w.conj())


def tester_elements(t: Tester) -> np.ndarray:
    """PPOVM elements T_k = |m_k)(m_k|, m_k = vec(X_k Psi^dag), all at once,
    as one read-only (n, d^2, d^2) stack.

    One stacked matmul gives every conj(X_k) Psi^t = conj(X_k Psi^dag) from
    the conjugated projector rows, and one outer product gives every T_k.
    """
    d = t.dim
    rows = t.projector_matrix()
    psi = t.input.reshape(d, -1)
    m_conj = (rows.reshape(len(rows), d, -1) @ psi.T).reshape(len(rows), d * d)
    elements = m_conj.conj()[:, :, None] * m_conj[:, None, :]
    elements.setflags(write=False)
    return elements


def probability_via_choi(elements: np.ndarray, e: np.ndarray) -> np.ndarray:
    """p_k = Tr[T_k E] for every element of the (n, d^2, d^2) stack from one
    matvec against the process operator E, as a float array clamped to
    [0, 1] after a reality check; it must be finite and sum to 1 within
    1e-9 unless the sum is below 1 - 1e-6 (a leaky tester)."""
    if elements.shape[1:] != e.shape:
        raise ValueError(f"element shape {elements.shape[1:]} does not match the process "
                         f"operator {e.shape}")
    vals = elements.reshape(len(elements), -1) @ e.T.reshape(-1)
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
