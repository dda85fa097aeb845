"""Testers: pure probe states paired with projective measurements.

A tester probes an unknown unitary ``u`` acting on a d-dimensional system:
the probe is sent through ``u`` (or ``u (x) I`` for a bipartite probe with
an ancilla) and measured against an orthonormal projector family.  The
outcome statistics are all the information the tester produces.

Two storage layouts are used, following the two tester classes:

* ancilla-free: probe and projectors live in dimension d, the unitary is
  applied directly;
* bipartite: probe and projectors live in dimension d^2 with factor order
  (system, ancilla), and the unitary is embedded as ``u (x) I_d``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .qmath import DEFAULT_TOL

ENTROPY_ZERO_TOL = 1e-9   # bits; threshold for "deterministic" outcome statistics
LEAK_TOL = 1e-6


class LeakyMeasurementError(ValueError):
    """Transformed probe escaped the projector span (probability lost)."""


class HypothesisViolation(ValueError):
    """A distinguishability query was made outside its deterministic regime."""


@dataclass(frozen=True, eq=False)
class Tester:
    """Probe state plus an ordered orthonormal projector family.

    ``dim`` is the dimension d of the tested unitary; the probe has size d
    (ancilla-free) or d^2 (bipartite).  The projector count is d or d^2;
    a bipartite tester with only d projectors spans a proper subspace and
    can leak probability.
    """

    input: np.ndarray
    projectors: tuple
    dim: int
    label: str = ""

    def __post_init__(self):
        d = self.dim
        if d < 1:
            raise ValueError(f"tester dimension must be at least 1, got dim={d}")
        # the probe and the projectors are validated as one stack, probe first
        flat = [np.asarray(v, dtype=complex).reshape(-1) for v in (self.input, *self.projectors)]
        size, n = flat[0].size, len(flat) - 1
        if size not in (d, d * d):
            raise ValueError(f"probe size {size} is neither d nor d^2 for d={d}")
        if any(p.size != size for p in flat[1:]):
            raise ValueError("projector dimension differs from the probe dimension")
        if n not in (d, d * d) or n > size:
            raise ValueError(f"projector count {n} must be d or d^2 and fit the space")
        states = np.array(flat)
        psi, projs = states[0], states[1:]
        m = projs.conj()
        # a state's entries are at most 1 in modulus: testing that first keeps
        # huge or non-finite entries out of the products.  The projector norms
        # are the Gram diagonal, and as_states, for the message of the first
        # bad row, runs only once a norm has failed
        small = np.abs(states).max() <= 1 + DEFAULT_TOL  # False for a NaN entry too
        if small:
            dev = m @ projs.T
            dev.flat[::n + 1] -= 1.0  # the Gram matrix minus the identity
            dev = np.abs(dev)
        if (not small or abs(np.vdot(psi, psi).real - 1.0) > DEFAULT_TOL
                or dev.diagonal().max() > DEFAULT_TOL):
            qmath.as_states(states)
        if dev.max() > DEFAULT_TOL:
            raise ValueError("projectors are not orthonormal")
        m.setflags(write=False)
        object.__setattr__(self, "input", psi)
        object.__setattr__(self, "projectors", tuple(projs))
        object.__setattr__(self, "_projector_matrix", m)

    @property
    def is_bipartite(self) -> bool:
        return self.input.size == self.dim * self.dim

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)

    def projector_matrix(self) -> np.ndarray:
        """Rows are the conjugated projector states, so amps = M @ state
        (read-only, computed once)."""
        return self._projector_matrix

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "dim": self.dim,
            "input": qmath.state_to_json(self.input),
            "projectors": [qmath.state_to_json(p) for p in self.projectors],
        }


def tester_from_json(obj: dict) -> Tester:
    """Tester from its JSON literal; a malformed literal raises ValueError,
    also one with a key other than those of ``Tester.to_json()``."""
    try:
        psi = qmath.state_from_json(obj["input"])
        projs = tuple(qmath.state_from_json(p) for p in obj["projectors"])
        dim, label = qmath.int_field(obj, "dim"), obj.get("label", "")
        if not isinstance(label, str):
            raise ValueError(f"label must be a string, not {label!r}")
        qmath.check_keys(obj, ("label", "dim", "input", "projectors"), "tester")
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"bad tester literal: {type(exc).__name__}: {exc}") from exc
    return Tester(input=psi, projectors=projs, dim=dim, label=label)


@dataclass(frozen=True, eq=False)
class TesterStack:
    """Testers of one dimension and one probe and projector shape.

    ``input`` and ``projector_matrix()`` are the members' probes and
    projector matrices stacked on a leading axis (read-only), so the Born
    rule takes the whole stack as it takes one tester.  The members need
    not share projectors.
    """

    testers: tuple
    dim: int

    def __post_init__(self):
        ts = tuple(self.testers)
        if not ts:
            raise ValueError("empty tester set")
        if any(t.dim != self.dim for t in ts):
            raise ValueError("testers have mixed dimensions")
        self._check_members(ts)
        probes = np.stack([t.input for t in ts])
        m = np.stack([t.projector_matrix() for t in ts])
        probes.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "testers", ts)
        object.__setattr__(self, "input", probes)
        object.__setattr__(self, "_projector_matrix", m)

    @staticmethod
    def _check_members(ts):
        if len({t.projector_matrix().shape for t in ts}) > 1:
            raise ValueError("testers have mixed probe or projector shapes")

    def projector_matrix(self) -> np.ndarray:
        return self._projector_matrix

    def __iter__(self):
        return iter(self.testers)

    def __len__(self) -> int:
        return len(self.testers)


@dataclass(frozen=True, eq=False)
class TesterSet(TesterStack):
    """Testers sharing one measurement, stacked as a ``TesterStack``;
    completeness is checked separately."""

    @staticmethod
    def _check_members(ts):
        if not _share_projectors(ts):
            raise ValueError("testers do not share one projector list")


def _share_projectors(testers) -> bool:
    """True iff every tester's projectors have the first tester's count and
    size and lie within ``DEFAULT_TOL`` of them entrywise, compared as one
    stack."""
    if len({t.projector_matrix().shape for t in testers}) > 1:
        return False
    m = np.stack([t.projector_matrix() for t in testers])
    return bool(np.abs(m - m[0]).max() <= DEFAULT_TOL)


def outcome_amplitudes(t: Tester | TesterStack, u: np.ndarray) -> tuple:
    """The two products of the Born rule for u of shape (..., d, d):
    (sent, m, amps), with ``sent`` the probe after u as (system, ancilla)
    matrices, ``amps`` the amplitudes <chi_k| U |psi> = m vec(sent), and
    ``m`` the projector matrix, broadcast against them.

    The probe, reshaped to (system, ancilla), is multiplied by u directly,
    which applies u (x) I_d to a bipartite probe and u to an ancilla-free
    one (a single column), with no Kronecker product formed.  For a tester
    stack, the members' axis goes before u's stack axes.
    """
    psi = t.input.reshape(t.input.shape[:-1] + (t.dim, -1))
    m = t.projector_matrix()
    if psi.ndim == 3:  # a tester stack: its members' axis goes before u's stack axes
        ones = (1,) * (u.ndim - 2)
        psi = psi.reshape(psi.shape[:1] + ones + psi.shape[1:])
        m = m.reshape(m.shape[:1] + ones + m.shape[1:])
    sent = u @ psi
    column = sent.reshape(sent.shape[:-2] + (t.input.shape[-1], 1))
    return sent, m, (m @ column)[..., 0]


def outcome_probabilities(t: Tester | TesterStack, u: np.ndarray) -> np.ndarray:
    """Unchecked p_k = |<chi_k| U |psi>|^2 for u of shape (..., d, d): the
    Born rule for one tester, or for each member of a tester stack (a
    tester set is one), which every entropy, bound and structure check
    reads.

    The amplitudes are ``outcome_amplitudes``.  A stack's members each meet
    u through their own probe and projector matrix, so they need not share
    projectors.  Every product is stacked per member and unitary, so each
    row of the result is the same bit for bit whatever else is in the
    stack.  So ``muub.maximal_hypothesis`` takes one call per tester set
    over both families; ``muub.verify_prop_trivial`` takes one per tester
    set over the whole family, which gives every cross pair's entropy sum,
    and one per tester set over all span samples, which gives every pair's
    equivalence; and the bound search takes one call per pair of testers
    of one shape.  The QKD outcome tables evaluate the same rule
    as stacked products over control states too, in ``qkd``.
    """
    return np.abs(outcome_amplitudes(t, u)[2]) ** 2


def outcome_distribution(t: Tester | TesterStack, u: np.ndarray) -> np.ndarray:
    """The checked Born rule: ``outcome_probabilities`` as a float array of
    shape ``u.shape[:-2] + (n_outcomes,)`` for a tester, and
    ``(members,) + u.shape[:-2] + (n_outcomes,)`` for a tester stack, for u
    of shape (..., d, d).

    It checks the shape of u, then per row that no probability leaked and
    that the row sums to 1 (a non-unitary or non-finite u fails here), and
    only then clamps each entry to at most 1.  Each row of a stack is the
    single-tester, single-matrix call's bit for bit.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (t.dim, t.dim):
        raise ValueError(f"unitary shape {u.shape} does not match d={t.dim}")
    p = outcome_probabilities(t, u)
    total = p.sum(-1)
    ok = abs(total - 1.0) <= DEFAULT_TOL
    if not ok.all():  # a leaking row fails this test too, and is reported first
        leak = total < 1.0 - LEAK_TOL
        if leak.any():
            raise LeakyMeasurementError(
                f"leaky measurement: outcome probabilities sum to {float(total[leak].min()):.9f}"
            )
        raise ValueError(f"probabilities sum to {float(total[~ok][0])!r}, not 1")
    return np.minimum(p, 1.0)


def shannon_entropy(p):
    """-sum p log2 p in bits over the last axis, with 0*log(0) = 0; entries
    that are not positive add nothing.

    A float for one distribution, an array of shape ``p.shape[:-1]`` for a
    stack, each row the single-distribution value bit for bit.  The sum is
    ``_entropy_logs``, which the bound search's gradient shares.
    """
    h = _entropy_logs(np.asarray(p, dtype=float))[0]
    return float(h) if h.ndim == 0 else h


def _entropy_logs(p: np.ndarray) -> tuple:
    """(H, seen, lg) for a float array p: H = -sum q log2 q over the last
    axis, with seen = p > 0, q = p where seen and 1 elsewhere, lg = log2 q."""
    seen = p > 0
    q = np.where(seen, p, 1.0)
    lg = np.log2(q)
    return -np.add.reduce(q * lg, -1), seen, lg


def is_complete_set(s) -> bool:
    """True iff inputs are orthonormal, resolve the identity, and the
    measurement is shared by every member, each within ``DEFAULT_TOL``.

    A ``TesterSet`` passed the shared-measurement check when it was built,
    so only its stacked probes are read."""
    if isinstance(s, TesterSet):
        inputs = s.input
    else:
        testers = list(s)
        if not testers:
            raise ValueError("empty tester set")
        if not _share_projectors(testers):
            return False
        inputs = np.stack([t.input for t in testers])
    gram = inputs.conj() @ inputs.T
    if np.max(np.abs(gram - np.eye(len(inputs)))) > DEFAULT_TOL:
        return False
    resolution = inputs.T @ inputs.conj()
    return bool(np.max(np.abs(resolution - np.eye(inputs.shape[1]))) <= DEFAULT_TOL)


def are_equivalent(t1: Tester, t2: Tester, u: np.ndarray, tol: float = DEFAULT_TOL):
    """True iff the two outcome distributions agree as multisets within tol.

    ``u`` of shape (..., d, d) gives a bool for one matrix and a bool array
    of shape ``u.shape[:-2]`` for a stack.  Each row gets the checks of
    ``outcome_distribution``, and its verdict is the scalar call's.
    """
    if t1.dim != t2.dim:
        raise ValueError("testers act on different dimensions")
    p1 = np.sort(outcome_distribution(t1, u), axis=-1)
    p2 = np.sort(outcome_distribution(t2, u), axis=-1)
    if p1.shape[-1] != p2.shape[-1]:
        ok = np.zeros(p1.shape[:-1], dtype=bool)
    else:
        ok = np.max(np.abs(p1 - p2), axis=-1) <= tol
    return bool(ok) if ok.ndim == 0 else ok


def is_eigenoperator(op: np.ndarray, state: np.ndarray):
    """True iff op|psi> = lambda |psi> for some complex lambda, within
    ``DEFAULT_TOL``.

    ``op`` of shape (..., n, n) and ``state`` of shape (..., n) broadcast
    on their leading axes: a bool for one matrix and one state, else a
    bool array of the broadcast shape, each entry the scalar call's
    verdict.  Every matrix must be finite and every state a unit vector.
    """
    op = np.asarray(op, dtype=complex)
    if op.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim={op.ndim}")
    if not np.isfinite(op).all():
        raise ValueError("matrix has non-finite entries")
    psi = np.atleast_1d(np.asarray(state, dtype=complex))
    qmath.as_states(psi.reshape(-1, psi.shape[-1]))
    if op.shape[-2:] != psi.shape[-1:] * 2:
        raise ValueError("operator and state dimensions differ")
    v = (op @ psi[..., None])[..., 0]
    lam = (psi.conj() * v).sum(-1)
    ok = np.abs(v - lam[..., None] * psi).max(-1) <= DEFAULT_TOL
    return bool(ok) if ok.ndim == 0 else ok


def _schmidt_rank(psi: np.ndarray, d: int) -> int:
    sv = np.linalg.svd(psi.reshape(d, -1), compute_uv=False)
    return int(np.sum(sv > np.sqrt(DEFAULT_TOL)))


def can_distinguish(t: Tester, u1: np.ndarray, u2: np.ndarray) -> bool:
    """For a tester that is deterministic on both unitaries, decide whether
    their outcomes differ.

    Raises HypothesisViolation when either entropy is nonzero, and rejects
    bipartite testers with entangled probes (operators of the form
    ``u (x) I`` only have separable eigenvectors, so the eigenoperator
    picture does not apply there) and stacks of unitaries.
    """
    if t.is_bipartite and _schmidt_rank(t.input, t.dim) > 1:
        raise ValueError("distinguishability requires a separable (ancilla-free) probe")
    p1 = outcome_distribution(t, u1)
    p2 = outcome_distribution(t, u2)
    if p1.ndim > 1 or p2.ndim > 1:
        raise ValueError("distinguishability takes two d x d unitaries, not stacks")
    h1 = shannon_entropy(p1)
    h2 = shannon_entropy(p2)
    if h1 > ENTROPY_ZERO_TOL or h2 > ENTROPY_ZERO_TOL:
        raise HypothesisViolation(
            f"hypothesis violated: entropies ({h1:.3e}, {h2:.3e}) bits are not both zero"
        )
    return int(np.argmax(p1)) != int(np.argmax(p2))


# ---------------------------------------------------------------------------
# Named testers and tester sets (qubit fixtures used throughout, plus the
# Bell-probe family for the D = d^2 case).
# ---------------------------------------------------------------------------

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
XPLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
XMINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)

Z_BASIS = (KET0, KET1)
X_BASIS = (XPLUS, XMINUS)

_NAMED_INPUTS = {"0": KET0, "1": KET1, "+": XPLUS, "-": XMINUS}
_NAMED_BASES = {"Z": Z_BASIS, "X": X_BASIS}

TESTER_NAMES = ("0Z", "1Z", "+X", "-X", "0X", "1X", "+Z", "-Z")


def bell_states() -> tuple:
    """The four Bell states ordered as (sigma_k (x) I) applied to sum|ii>/sqrt(2)."""
    phi = qmath.max_entangled_state(2) / np.sqrt(2)
    return tuple(np.kron(p, np.eye(2)) @ phi for p in qmath.PAULIS)


def named_tester(name: str) -> Tester:
    """Qubit testers "0Z", "1Z", "+X", "-X", "0X", "1X", "+Z", "-Z" and "bell:k"."""
    if name.startswith("bell:"):
        index = name.split(":", 1)[1]
        try:
            k = int(index)
        except ValueError:
            k = -1
        if not 0 <= k < 4:
            raise ValueError(f"bell tester index must be 0..3, not {index!r}")
        bells = bell_states()
        return Tester(input=bells[k], projectors=bells, dim=2, label=name)
    if len(name) == 2 and name[0] in _NAMED_INPUTS and name[1] in _NAMED_BASES:
        return Tester(
            input=_NAMED_INPUTS[name[0]],
            projectors=_NAMED_BASES[name[1]],
            dim=2,
            label=name,
        )
    raise ValueError(f"unknown tester name: {name!r}")


def bell_tester_set(measurement_rotation: np.ndarray | None = None) -> TesterSet:
    """Complete set of Bell-probe testers; the shared Bell measurement can be
    rotated by ``(V (x) I)`` for a given qubit unitary V."""
    bells = bell_states()
    if measurement_rotation is None:
        projs = bells
    else:
        v = qmath.assert_unitary(measurement_rotation)
        w = np.kron(v, np.eye(2))
        projs = tuple(w @ b for b in bells)
    return TesterSet(
        testers=tuple(
            Tester(input=b, projectors=projs, dim=2, label=f"bell:{k}")
            for k, b in enumerate(bells)
        ),
        dim=2,
    )


def random_tester(d: int, rng, bipartite: bool = False) -> Tester:
    """Haar-random tester: random probe, random full orthonormal measurement.

    The measurement basis and the unitary whose first column is the probe
    are drawn as one stack of two, which takes them from the numpy
    Generator ``rng`` bit for bit as two sequential draws would.
    """
    n = d * d if bipartite else d
    basis, probe = qmath.haar_random_unitary(n, rng, shape=(2,))
    return Tester(input=probe[:, 0], projectors=tuple(basis.T), dim=d)


def named_tester_set(name: str) -> TesterSet:
    """Complete tester sets: "z" = {0Z,1Z}, "x" = {+X,-X}, "xcomp" = {0X,1X},
    "bell" = Bell-probe testers, "bell-rot" = Bell-probe testers whose Bell
    measurement is rotated by ``qmath.balanced_qubit_rotation()``."""
    if name == "z":
        members = ("0Z", "1Z")
    elif name == "x":
        members = ("+X", "-X")
    elif name == "xcomp":
        members = ("0X", "1X")
    elif name == "bell":
        return bell_tester_set()
    elif name == "bell-rot":
        return bell_tester_set(measurement_rotation=qmath.balanced_qubit_rotation())
    else:
        raise ValueError(f"unknown tester set name: {name!r}")
    return TesterSet(testers=tuple(named_tester(n) for n in members), dim=2)
