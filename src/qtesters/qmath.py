"""Dense complex linear algebra for small-dimensional quantum objects.

All conventions used by the rest of the package are fixed here, once:

* Tensor factors are ordered (system, ancilla): ``np.kron(A, B)`` puts
  ``A`` on the system slot, and a bipartite pure state is a flat vector
  with row-major index ``i * d_anc + k`` for the basis ket
  ``|i>_sys |k>_anc``.
* Everything is flattened row-major, one convention: ``u.reshape(-1)`` has
  ``<i|u|j>`` at position i * d + j, so it is ``(u (x) I) sum_i |i>|i>``
  and ``<<a|b>> = Tr(a^dag b)``.  The Born rule, ``ppovm``, the bound
  gradient and ``max_entangled_state`` all use this layout.
* Unitarity and orthonormality are checked in max norm with tolerance
  ``DEFAULT_TOL = 1e-9``.
* One orthonormalization, the phase-fixed QR, makes both the Haar draws
  and the completions of a state to a basis.
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


def balanced_qubit_rotation() -> np.ndarray:
    """The qubit unitary (I + i(sx+sy+sz))/2, whose overlap with every Pauli
    is exactly 1; it turns the Pauli basis into its unbiased partner."""
    return 0.5 * (np.eye(2, dtype=complex) + 1j * (SIGMA_X + SIGMA_Y + SIGMA_Z))


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


def as_states(vs) -> np.ndarray:
    """Validate every row of an (n, size) stack as a pure-state vector, with
    finite entries and unit norm within ``DEFAULT_TOL``; the first failing
    row is reported."""
    vs = np.asarray(vs, dtype=complex)
    # einsum raises no overflow or invalid-value warning: a huge or infinite
    # entry gives an inf norm and a NaN entry a NaN norm, and as the norm
    # test is False for both, every non-finite row fails it
    nrm2 = np.einsum("ij,ij->i", vs.conj(), vs).real
    ok = np.abs(nrm2 - 1.0) <= DEFAULT_TOL
    if not ok.all():
        if not np.isfinite(vs).all():
            raise ValueError("state has non-finite entries")
        bad = float(nrm2[~ok][0])
        raise ValueError(f"state norm^2 = {bad!r} is not 1 within {DEFAULT_TOL}")
    return vs


def is_unitary(u: np.ndarray) -> bool:
    """True iff u is a square matrix, or a stack (..., d, d) of them, and
    every matrix is unitary within ``DEFAULT_TOL``."""
    u = np.asarray(u)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        return False
    # a unitary's entries are at most 1 in modulus; testing that first keeps
    # huge or non-finite entries out of the product
    if not (np.abs(u) <= 1 + DEFAULT_TOL).all():
        return False
    gram = u.conj().swapaxes(-1, -2) @ u
    return bool(np.abs(gram - np.eye(u.shape[-1])).max(initial=0.0) <= DEFAULT_TOL)


def assert_unitary(u: np.ndarray) -> np.ndarray:
    u = as_matrix(u)
    if not is_unitary(u):
        dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
        raise ValueError(f"matrix is not unitary: max|u^dag u - I| = {dev:.3e} > {DEFAULT_TOL}")
    return u


def max_entangled_state(d: int) -> np.ndarray:
    """Unnormalised sum_i |i>|i> (norm sqrt(d)): the identity flattened."""
    return np.eye(d, dtype=complex).reshape(-1)


def _phase_fixed_qr(a: np.ndarray) -> np.ndarray:
    """The unitary Q of the QR of each matrix of the stack ``a``, its columns
    rephased so that R has a real non-negative diagonal (Mezzadri, Notices
    AMS 54, 592, 2007).  A diagonal entry of R that is exactly 0 keeps
    phase 1.  QR runs per matrix, so each matrix is the same bit for bit
    whatever else is in the stack."""
    q, r = np.linalg.qr(a)
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    ph = np.divide(ph, np.abs(ph), out=np.ones_like(ph), where=ph != 0)
    return q * ph[..., None, :]


def haar_from_normals(g: np.ndarray) -> np.ndarray:
    """Haar-distributed d x d unitaries from Ginibre normals ``g`` of shape
    (..., 2, d, d): one unitary per leading index, of shape (..., d, d).

    Stream contract: matrix i of the flattened stack is built from normals
    [2d^2 i, 2d^2 (i + 1)) of ``g`` in C order, its real part (d^2 values)
    first, then its imaginary part.  The complex Ginibre matrix is
    orthonormalized by the phase-fixed QR, per matrix, so normals drawn in
    any order can be orthonormalized later, in one call per matrix size.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim < 3 or g.shape[-3] != 2 or g.shape[-1] != g.shape[-2] or g.shape[-1] < 1:
        raise ValueError(f"Ginibre normals must have shape (..., 2, d, d), got {g.shape}")
    return _phase_fixed_qr((g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0))


def haar_random_unitary(d: int, gen: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Haar-distributed d x d unitaries, a stack of leading shape ``shape``,
    drawn from the numpy Generator ``gen``, whose stream they consume.

    It is ``haar_from_normals(gen.standard_normal(shape + (2, d, d)))``:
    matrix i of the stack takes normals [2d^2 i, 2d^2 (i + 1)) of the call's
    draw, real part first, then imaginary part, so a stack consumes the
    generator exactly as the same number of sequential scalar calls would
    and its matrices are theirs bit for bit.  ``shape=()`` gives one d x d
    matrix.  For the same matrices twice, draw each from its own
    ``RngHandle.generator()``.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return haar_from_normals(gen.standard_normal(tuple(shape) + (2, d, d)))


def complete_onb(first: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unitaries whose first column is ``first``, completed from the columns
    of the unitaries ``w`` (Haar-randomly for a Haar ``w``).

    ``first`` is a stack (..., d) of states and ``w`` a stack (..., d, d) of
    the same leading shape; the result is (..., d, d), and one state with
    one d x d ``w`` gives one matrix.  Every row of ``first`` is checked as
    a state.  Each result is the phase-fixed QR of (first, w_0 ... w_{d-2}),
    the columns of ``w`` but its last, with column 0 then set to ``first``
    exactly: the Gram-Schmidt completion of ``first`` by those columns, in
    exact arithmetic.  Each matrix of a stack is its one-row call's bit for
    bit.  A ``w`` whose leading columns depend on ``first`` still gives a
    unitary, with the dependent columns replaced.
    """
    first = np.asarray(first, dtype=complex)
    lead, d = first.shape[:-1], first.shape[-1]
    w = np.asarray(w, dtype=complex)
    if w.shape != lead + (d, d):
        raise ValueError(f"completion unitaries of shape {w.shape} do not match states "
                         f"of shape {first.shape}")
    first = as_states(first.reshape(-1, d)).reshape(first.shape)
    q = _phase_fixed_qr(np.concatenate((first[..., None], w[..., :, :d - 1]), -1))
    q[..., 0] = first
    return q


# ---------------------------------------------------------------------------
# JSON literals: matrices and states as [re, im] pairs, row-major, with
# explicit "rows"/"cols" fields.  States are stored as single-column matrices.
# ---------------------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> dict:
    m = as_matrix(m)
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries}


def int_field(obj: dict, key: str, default=None, error=ValueError) -> int:
    """The integer field ``key`` of a JSON object: an integer or an integral
    float such as 1e5.  Any other value, a bool or a string included, raises
    ``error`` naming the field; a missing field without a default, KeyError."""
    value = obj[key] if default is None else obj.get(key, default)
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or
                                       isinstance(value, float) and value.is_integer()):
        raise error(f"{key} must be an integer, not {value!r}")
    return int(value)


def check_keys(obj: dict, keys: tuple, what: str) -> None:
    """Raise ValueError naming every key of the JSON object ``obj`` that is
    not in ``keys``, so a misspelled field of a ``what`` literal never runs
    with its default."""
    unknown = [k for k in obj if k not in keys]
    if unknown:
        raise ValueError(f"bad {what} literal: unknown keys {unknown}")


def matrix_from_json(obj: dict) -> np.ndarray:
    """Matrix from its JSON literal; a malformed literal raises ValueError,
    also one with a key other than rows, cols and entries, with a bool for
    the real or imaginary half of an entry, or with a non-finite entry,
    which ``matrix_to_json`` could not write back."""
    try:
        rows, cols = int_field(obj, "rows"), int_field(obj, "cols")
        entries = obj["entries"]
        check_keys(obj, ("rows", "cols", "entries"), "matrix")
        if len(entries) != rows * cols:
            raise ValueError(f"literal claims {rows}x{cols} but has {len(entries)} entries")
        flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
        for k, (re, im) in enumerate(entries):
            if isinstance(re, bool) or isinstance(im, bool):
                raise ValueError(f"matrix entry {k} must be two numbers, not {[re, im]!r}")
        return as_matrix(flat.reshape(rows, cols))
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
