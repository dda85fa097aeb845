"""Dense complex linear algebra for small-dimensional quantum objects.

All conventions used by the rest of the package are fixed here, once:

* Tensor factors are ordered (system, ancilla): ``tensor(A, B)`` puts ``A``
  on the system slot, and a bipartite pure state is a flat vector with
  row-major index ``i * d_anc + k`` for the basis ket ``|i>_sys |k>_anc``.
* ``vectorize`` maps a d x d operator ``u`` to the vector of dimension d^2
  whose amplitude at position (i, j) is ``<j|u|i>`` (column stacking).  The
  unnormalised maximally entangled state ``sum_i |i>|i>`` is therefore
  ``vectorize(identity)``, and ``<<a|b>> = Tr(a^dag b)``.
* Unitarity and orthonormality are checked in max norm with tolerance
  ``DEFAULT_TOL = 1e-9`` unless a caller overrides it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z)


@dataclass(frozen=True)
class RngHandle:
    """Deterministic random-stream handle.

    The same (seed, stream) pair always reproduces the same draw sequence.
    A handle is single-consumer: concurrent users must take distinct
    stream ids rather than sharing one generator.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"rng {name} must be a non-negative integer, not {value!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this handle's stream."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(seq))


def as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def as_state(v, unnormalized: bool = False, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a pure-state vector (unit norm unless explicitly waived)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError("state has non-finite entries")
    if not unnormalized:
        nrm2 = float(np.vdot(v, v).real)
        if abs(nrm2 - 1.0) > tol:
            raise ValueError(f"state norm^2 = {nrm2!r} is not 1 within {tol}")
    return v


def as_states(vs, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``as_state`` for every row of an (n, size) stack at once, with its
    checks and messages; the first failing row is reported."""
    vs = np.asarray(vs, dtype=complex)
    if not np.isfinite(vs).all():
        raise ValueError("state has non-finite entries")
    # einsum raises no overflow warning: a huge entry gives inf, which fails
    nrm2 = np.einsum("ij,ij->i", vs.conj(), vs).real
    dev = np.abs(nrm2 - 1.0)
    if dev.max(initial=0.0) > tol:
        raise ValueError(f"state norm^2 = {float(nrm2[dev > tol][0])!r} is not 1 within {tol}")
    return vs


def is_unitary(u: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff u is a square matrix, or a stack (..., d, d) of them, and
    every matrix is unitary within tol."""
    u = np.asarray(u)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        return False
    # a unitary's entries are at most 1 in modulus; testing that first keeps
    # huge or non-finite entries out of the product
    if not (np.abs(u) <= 1 + tol).all():
        return False
    gram = u.conj().swapaxes(-1, -2) @ u
    return bool(np.abs(gram - np.eye(u.shape[-1])).max(initial=0.0) <= tol)


def assert_unitary(u: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    u = as_matrix(u)
    if not is_unitary(u, tol):
        dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
        raise ValueError(f"matrix is not unitary: max|u^dag u - I| = {dev:.3e} > {tol}")
    return u


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with entry ((i,k),(j,l)) = A_ij * B_kl.

    Two vectors combine to the flat product state with index i*dim(b) + k.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim == 1 and b.ndim == 1:
        return np.kron(a, b)
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace_ancilla(m: np.ndarray, d: int) -> np.ndarray:
    """Trace out the second (ancilla) tensor factor of a (d*k) x (d*k) matrix."""
    m = as_matrix(m)
    n = m.shape[0]
    if m.shape[0] != m.shape[1] or n % d != 0:
        raise ValueError(f"cannot split a {m.shape} matrix into system dim {d} x ancilla")
    k = n // d
    return np.einsum("iaja->ij", m.reshape(d, k, d, k))


def partial_transpose_first(m: np.ndarray, d: int) -> np.ndarray:
    """Transpose the first (system) tensor factor only."""
    m = as_matrix(m)
    n = m.shape[0]
    if m.shape[0] != m.shape[1] or n % d != 0:
        raise ValueError(f"cannot split a {m.shape} matrix into system dim {d} x ancilla")
    k = n // d
    return m.reshape(d, k, d, k).transpose(2, 1, 0, 3).reshape(n, n)


def swap_operator(d: int) -> np.ndarray:
    """The operator on H_d (x) H_d with S|a>|b> = |b>|a>."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return np.eye(d * d, dtype=complex).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)


def vectorize(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: amplitude at (i, j) is <j|m|i>.

    For unitaries this realizes the operator/maximally-entangled-state
    isomorphism: vectorize(identity(d)) = sum_i |i>|i> (unnormalised) and
    the induced inner product is <<a|b>> = Tr(a^dag b).
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("vectorize expects a square matrix")
    return np.array(m.T.reshape(-1))


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize` (exact, by construction)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector of size {v.size} is not a vectorized square matrix")
    return np.array(v.reshape(d, d).T)


def max_entangled_state(d: int) -> np.ndarray:
    """Unnormalised sum_i |i>|i> (norm sqrt(d))."""
    return vectorize(np.eye(d, dtype=complex))


def haar_random_unitary(d: int, rng, shape: tuple = ()) -> np.ndarray:
    """Haar-distributed d x d unitaries, a stack of leading shape ``shape``,
    deterministic per (seed, stream).

    QR orthonormalization of a complex Ginibre matrix with the R-diagonal
    phase correction; ``rng`` may be an RngHandle (same handle => same
    matrices) or a live numpy Generator (consumes its stream).  Each matrix
    takes its real part, then its imaginary part, from the stream, and QR
    runs per matrix, so a stack consumes the generator exactly as the same
    number of sequential scalar calls would and its matrices are theirs bit
    for bit.  ``shape=()`` gives one d x d matrix.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    gen = rng.generator() if isinstance(rng, RngHandle) else rng
    g = gen.standard_normal(tuple(shape) + (2, d, d))
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[..., None, :]


def haar_random_state(d: int, rng) -> np.ndarray:
    """Haar-random pure state (first column of a Haar unitary)."""
    return haar_random_unitary(d, rng)[:, 0].copy()


def complete_onb(first: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unitary whose first column is ``first``, completed by Gram-Schmidt
    from the columns of the unitary ``w`` (Haar-randomly for a Haar ``w``)."""
    first = as_state(first)
    d = first.size
    cols = [first]
    for i in range(d):
        if len(cols) == d:
            break
        v = w[:, i].copy()
        for c in cols:
            v -= np.vdot(c, v) * c
        nrm = np.linalg.norm(v)
        if nrm > 1e-6:
            cols.append(v / nrm)
    if len(cols) != d:
        raise RuntimeError("orthonormal completion failed")  # would need d collinear draws
    return np.column_stack(cols)


def unitary_mapping(source: np.ndarray, target: np.ndarray, rng) -> np.ndarray:
    """A unitary sending ``source`` to ``target`` exactly, Haar-random on the
    orthogonal complement.

    The two completions are drawn from ``rng`` as one stack of two, the
    target's first, which takes them bit for bit as two sequential draws
    would.
    """
    w_target, w_source = haar_random_unitary(np.size(target), rng, shape=(2,))
    return complete_onb(target, w_target) @ complete_onb(source, w_source).conj().T


# ---------------------------------------------------------------------------
# JSON literals: matrices and states as [re, im] pairs, row-major, with
# explicit "rows"/"cols" fields.  States are stored as single-column matrices.
# ---------------------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> dict:
    m = as_matrix(m)
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Matrix from its JSON literal; a malformed literal raises ValueError."""
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = obj["entries"]
        if len(entries) != rows * cols:
            raise ValueError(f"literal claims {rows}x{cols} but has {len(entries)} entries")
        flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
        return flat.reshape(rows, cols)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"bad matrix literal: {type(exc).__name__}: {exc}") from exc


def state_to_json(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex).reshape(-1, 1)
    return matrix_to_json(v)


def state_from_json(obj: dict) -> np.ndarray:
    m = matrix_from_json(obj)
    if m.shape[1] != 1:
        raise ValueError("state literal must have cols = 1")
    return m.reshape(-1)
