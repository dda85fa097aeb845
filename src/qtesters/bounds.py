"""Entropic bounds for tester pairs.

The bound for a pair of testers is the infimum over all unitaries of the
summed outcome entropies.  ``estimate_bound`` searches for it with
multi-start Riemannian steepest descent on U(d) (Abrudan, Eriksson &
Koivunen, IEEE TSP 56(3), 1134, 2008): each step multiplies the unitary by
the exp of its traceless Hermitian gradient, so the global phase, which
leaves every outcome distribution unchanged, never moves.  The search
result is an upper bound on the true infimum together with a per-start
trace, never a certificate.

``_multistart`` is the one search, shared with the MUUB partner search.
Its objectives see stacks of unitaries and return their values and
Hermitian gradients; the su(d) coordinates of the start points and their
exp map are private to the search, which returns each start's unitary.

All live starts of a search share each objective call: one call
evaluates the stacked trial points of every live start, so a call costs a
few stacked numpy calls, not one Python call per start.  One iteration
is that call between the stop test and the step-size update, plus one
``eigh`` of the gradients once some start moved (``_multistart`` lists
its parts).  Its arrays are tiny, so its cost is mostly the number of
numpy calls it makes, and the loop keeps that number low.

Backtracking runs in stacks, and each start keeps its own iteration
clock: after a rejected step, a start's next call tries its next 2
halvings of the step size as two rows, then 4, then 8, and it keeps its
first accepted row.  Each start still ends where one trial step per
iteration takes it, bit for bit, and ``nfev = nit + 1`` counts that
descent's evaluations; the rows the objective evaluates can exceed it.
The starts stay independent: the exp maps and the objective compute each
row with stacked (per-matrix) products, ``eigh`` and last-axis
reductions only, so a start's path does not depend on which other rows
share a call.  A search given a value target (the partner search) ends
once one start is done at or below it.  That stop needs one clock for
all starts, so such a search takes one trial per start per call, and the
first k starts of a run are a k-start run's bit for bit only without a
target (``estimate_bound``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qmath
from .qmath import RngHandle
from .tester import (
    Tester,
    TesterStack,
    _entropy_logs,
    outcome_amplitudes,
    outcome_distribution,
    shannon_entropy,
)

TRIVIAL_SATURATION_TOL = 1e-6  # bits
_INV_LN2 = 1.0 / np.log(2.0)


@dataclass(frozen=True)
class SearchConfig:
    starts: int = 16
    max_iterations: int = 2000
    tolerance: float = 1e-10  # gradient-norm stop of estimate_bound's starts
    rng: RngHandle = field(default_factory=lambda: RngHandle(seed=0))

    def __post_init__(self):
        for key in ("starts", "max_iterations"):
            # a bool or a non-integral float raises; 50.0 becomes 50
            object.__setattr__(self, key, qmath.int_field(vars(self), key))
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance!r}")


@dataclass(frozen=True, eq=False)
class BoundEstimate:
    """Best entropy sum found, the unitary achieving it, the per-start
    (initial value, final value) trace, and per start the objective
    evaluations, the descent iterations and whether the start stopped
    before ``max_iterations`` (at a gradient norm of at most the tolerance,
    or at a vanishing step)."""

    value: float
    minimizer: np.ndarray
    starts: tuple
    nfev: tuple
    nit: tuple
    converged: tuple

    def to_json(self) -> dict:
        return {
            "value": float(self.value),
            "minimizer": qmath.matrix_to_json(self.minimizer),
            "starts": [[float(a), float(b)] for a, b in self.starts],
            "nfev": [int(n) for n in self.nfev],
            "nit": [int(n) for n in self.nit],
            "converged": [bool(c) for c in self.converged],
        }


def su_generators(d: int) -> np.ndarray:
    """Traceless Hermitian basis of su(d): the d^2 - 1 generalized Gell-Mann
    matrices (symmetric, antisymmetric, then diagonal), stacked."""
    if d < 2:
        raise ValueError(f"su(d) needs d >= 2, got d={d}")
    gens = []
    for j in range(d):
        for k in range(j + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[j, k] = g[k, j] = 1.0
            gens.append(g)
            g = np.zeros((d, d), dtype=complex)
            g[j, k] = -1j
            g[k, j] = 1j
            gens.append(g)
    for l in range(1, d):
        g = np.zeros((d, d), dtype=complex)
        g[:l, :l] = np.eye(l)
        g[l, l] = -l
        gens.append(np.sqrt(2.0 / (l * (l + 1))) * g)
    return np.stack(gens)


def entropy_sum(t1: Tester, t2: Tester, u: np.ndarray):
    """Summed outcome entropies (bits) of the two testers at u.

    ``u`` of shape (..., d, d) gives a float for one matrix and an array of
    shape ``u.shape[:-2]`` for a stack.  Each row gets the checks of
    ``outcome_distribution``, and its value is the scalar call's bit for bit.
    """
    if t1.dim != t2.dim:
        raise ValueError("testers act on different dimensions")
    p1, p2 = outcome_distribution(t1, u), outcome_distribution(t2, u)
    return shannon_entropy(p1) + shannon_entropy(p2)


def unitary_from_params(theta: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """exp(i sum_k theta_k G_k) (special unitary for traceless generators).

    ``theta`` of shape (..., n) gives unitaries of shape (..., d, d).  Each
    row goes through its own stacked products and ``eigh``, so its unitary
    is the same bit for bit whatever else is in the stack.
    """
    theta = np.asarray(theta, dtype=float)
    n, d = gens.shape[0], gens.shape[-1]
    h = (theta[..., None, :] @ gens.reshape(n, d * d)).reshape(theta.shape[:-1] + (d, d))
    return _expi_eig(*np.linalg.eigh(h), 1.0)


def _expi_eig(w: np.ndarray, v: np.ndarray, t) -> np.ndarray:
    """exp(i t h) for a (..., d, d) stack of Hermitian h from its ``eigh``
    (w, v), t a scalar or one value per matrix; each matrix is computed on
    its own.  ``_expi_eig(*np.linalg.eigh(h), t)`` is the exp map of
    ``unitary_from_params``, and the search reuses one ``eigh`` for all of
    a start's trial steps."""
    phase = np.exp(1j * np.asarray(t)[..., None] * w)
    return (v * phase[..., None, :]) @ v.conj().swapaxes(-1, -2)


# Armijo sufficient-decrease fraction; the first step size, the clip range of
# the Barzilai-Borwein step, and the step size below which a start stops
_ARMIJO = 1e-4
_MU_START, _MU_LOW, _MU_HIGH, _MU_STOP = 0.5, 1e-6, 1e3, 1e-14


class _Runs(NamedTuple):
    """Per-start results of ``_multistart``, in start order."""

    u: np.ndarray          # (starts, d, d) unitary where each start stopped
    initial: np.ndarray    # objective at each start point
    final: np.ndarray      # objective at u
    nfev: np.ndarray
    nit: np.ndarray
    # stopped by its own test (gradient norm or vanished step); False at the
    # iteration cap, and for a start still live when another met the target
    converged: np.ndarray

    @property
    def best(self) -> int:
        """The first start with the least final value."""
        return int(np.argmin(self.final))


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(a^dag b) for each pair of rows of two (k, d, d) stacks."""
    return np.add.reduce((a.conj() * b).real.reshape(len(a), -1), -1)


def _multistart(g, d: int, cfg: SearchConfig, gtol: float, *, target=None) -> _Runs:
    """Riemannian steepest descent on U(d) from cfg.starts points, every
    live start's trial steps in one objective call.

    The start points are exp maps (``unitary_from_params``) of su(d)
    coordinates drawn uniformly in [-pi, pi)^(d^2 - 1).  ``g`` maps a
    (k, d, d) stack of unitaries to (values, omega): the k values and the
    Hermitian gradients, df = tr(omega H) for U <- exp(iH) U; it must
    compute each row independently of the others.

    Each start runs the one-trial descent: an iteration takes the trial step
    U <- exp(-i mu omega0) U, with omega0 the traceless part of omega.  The
    step is kept when f drops by at least 1e-4 mu |omega0|_F^2; then mu
    becomes the Barzilai-Borwein step <s,s>/<s,y> (s = -mu omega0, y the
    change in omega0), or 2 mu when <s,y> <= 0, clipped to [1e-6, 1e3].  A
    rejected step halves mu, which starts at 0.5.  A start stops at
    |omega0|_F <= gtol (or a gradient that is not finite), at mu < 1e-14, or
    after ``cfg.max_iterations`` iterations, the only stop that leaves it
    not converged.  nfev = nit + 1 counts the evaluations of that one-trial
    descent.

    Backtracking runs in stacks, and each start keeps its own iteration
    clock.  A rejected step leaves U and omega0 as they were, so after one
    the start's next call tries its next 2 halvings of mu as two rows of
    the call, after those its next 4, then 8, and so on, every row from the
    one ``eigh`` of its omega0.  The rows stop short of mu < 1e-14 and of
    ``cfg.max_iterations``.  The start keeps its first accepted row and
    counts every iteration that row stands for; the rows after it are
    wasted.  So ``g`` can evaluate more rows than nfev counts, and a start
    ends with the u, value, nit and convergence of the one-trial descent,
    bit for bit.

    One iteration is: the stop test, which records and drops the starts
    that stop; the ``eigh`` of omega0, when some start moved; the trial
    rows' exp maps and one call of ``g``, projected onto su(d); the Armijo
    test, and in a wide call each start's first accepted row; then, for
    the starts that accepted, the Barzilai-Borwein step, and for the rest
    their halved mu.  A call where every width is 1 (narrow: after an
    iteration where every start accepted, and always with a target) lays
    out no rows, and an iteration where every start or none accepts merges
    nothing.

    With a ``target``, the whole run ends at the first iteration where a
    start stops by its own test with a value at most ``target`` (a NaN value
    never does): every start still live then is recorded at that iteration,
    not converged.  That stop needs one clock for all starts, so each start
    takes one trial per call, and which start wins can depend on the other
    starts.  Without a target, the starts are independent: the first k
    starts of a run are a k-start run's bit for bit, and a caller reduces
    them in start order.
    """
    eye = np.eye(d, dtype=complex)

    def grad(u):
        # g, with omega projected onto su(d)
        f, omega = g(u)
        return f, omega - (omega.trace(0, -2, -1) / d)[:, None, None] * eye

    n, cap, gtol2 = cfg.starts, cfg.max_iterations, gtol * gtol
    x0 = cfg.rng.generator().uniform(-np.pi, np.pi, size=(n, d * d - 1))
    u = unitary_from_params(x0, su_generators(d))
    f, omega = grad(u)
    initial, sq = f.copy(), _inner(omega, omega)
    mu, it = np.full(n, _MU_START), np.zeros(n, dtype=int)
    # width: the rows of a start's next call, always 1 with a target;
    # moved: some omega is newer than (w, v)
    width, moved = np.ones(n, dtype=int), True
    w, v = np.empty((n, d)), np.empty_like(u)
    final, nit = np.empty(n), np.empty(n, dtype=int)
    converged = np.empty(n, dtype=bool)
    # the arrays below hold the live starts only, listed in live
    live, out = np.arange(n), np.empty_like(u)
    while True:
        done = (sq <= gtol2) | ~np.isfinite(sq) | (mu < _MU_STOP)
        stop = done | (it >= cap)
        if target is not None and np.count_nonzero(done & (f <= target)):
            stop[:] = True
        if np.count_nonzero(stop):
            gone = live[stop]
            out[gone], final[gone], nit[gone], converged[gone] = u[stop], f[stop], it[stop], done[stop]
            keep = ~stop
            live, u, f, omega, sq, mu, it, width, w, v = (
                a[keep] for a in (live, u, f, omega, sq, mu, it, width, w, v))
            if live.size == 0:
                return _Runs(out, initial, final, nit + 1, nit, converged)
        if moved:
            w, v = np.linalg.eigh(omega)
        widest = width.max()
        narrow = widest == 1
        if narrow:
            # every start takes one row: no layout, no pick
            mu_try, rows, steps = mu, 1, 1
            u_try = _expi_eig(w, v, -mu) @ u
            f_try, omega_try = grad(u_try)
            hit = f_try <= f - _ARMIJO * mu * sq
        else:
            # row (i, j) tries start i's mu halved j more times (exactly), as
            # its iteration it_i + j would; none at mu < 1e-14 or past the cap
            col = np.arange(widest)
            mu_grid = np.ldexp(mu[:, None], -col)
            grid = ((col < width[:, None]) & (it[:, None] + col < cap)
                    & (mu_grid >= _MU_STOP))
            at = np.nonzero(grid)[0]
            mu_try, rows = mu_grid[grid], np.add.reduce(grid, 1)
            u_try = _expi_eig(w.take(at, 0), v.take(at, 0), -mu_try) @ u.take(at, 0)
            f_try, omega_try = grad(u_try)
            # each start's first accepted row, the argmax along its row of
            # the grid (its first row if none); a start that accepts none
            # stays put, every row a rejected iteration
            accept = np.zeros_like(grid)
            accept[grid] = f_try <= f[at] - _ARMIJO * mu_try * sq[at]
            first = accept.argmax(1)
            hit = np.logical_or.reduce(accept, 1)
            k = np.add.accumulate(rows) - rows + first
            steps = np.where(hit, first + 1, rows)
        it += steps
        nhit = np.count_nonzero(hit)
        moved = nhit > 0
        if moved:
            if not narrow:  # each start's kept row
                mu_try, u_try, f_try, omega_try = (
                    mu_try[k], u_try.take(k, 0), f_try[k], omega_try.take(k, 0))
            sy = -mu_try * _inner(omega, omega_try - omega)
            bb = np.divide(mu_try * mu_try * sq, sy, out=2.0 * mu_try, where=sy > 0)
            bb = np.minimum(np.maximum(bb, _MU_LOW), _MU_HIGH)
        if nhit == live.size:
            # every start moves, nothing merges, and every width is 1
            u, f, omega, mu = u_try, f_try, omega_try, bb
            if not narrow:
                width = np.ones_like(width)
            sq = _inner(omega, omega)
            continue
        halved = np.ldexp(mu, -rows)
        if moved:
            mu = np.where(hit, bb, halved)
            u = np.where(hit[:, None, None], u_try, u)
            f = np.where(hit, f_try, f)
            omega = np.where(hit[:, None, None], omega_try, omega)
            sq = _inner(omega, omega)
        else:
            mu = halved
        if target is None:
            width = np.where(hit, 1, 2 * width)


def _entropy_terms(t: Tester | TesterStack):
    """The map from a (k, d, d) stack u to the outcome entropies of t at each
    unitary and X = A C^dag, which gives their gradient omega = i (X - X^dag):
    A is the probe after u, and C = devec(M^dag (w . a)) with a the
    amplitudes, M the projector matrix and w_k = dH/dp_k = -(log2 p_k +
    1/ln 2), 0 where p_k = 0.  M^dag is formed once, with a stack's members'
    axis before u's stack axis, as ``outcome_amplitudes`` lays it out."""
    mc = t.projector_matrix().conj()
    if isinstance(t, TesterStack):
        mc = mc[:, None]

    def terms(u):
        sent, a = outcome_amplitudes(t, u)
        h, seen, lg = _entropy_logs(np.abs(a) ** 2)
        w = np.where(seen, -(lg + _INV_LN2), 0.0)
        c = ((w * a)[..., None, :] @ mc).reshape(sent.shape)
        return h, sent @ c.conj().swapaxes(-1, -2)
    return terms


def _entropy_objective(t1: Tester, t2: Tester):
    """entropy_sum at each unitary of a (k, d, d) stack, without the per-call
    checks, which the search does not need, and its Hermitian gradient
    omega = i (X - X^dag), with X summed over the two testers.

    Two testers of one probe and projector shape are one ``TesterStack``:
    one Born-rule product and one entropy call per evaluation give both
    entropies.  Otherwise each tester takes its own.  Either way the value
    is h1 + h2, each term the single-tester call's bit for bit.
    """
    if t1.projector_matrix().shape != t2.projector_matrix().shape:
        terms1, terms2 = _entropy_terms(t1), _entropy_terms(t2)

        def terms(u):
            (h1, x1), (h2, x2) = terms1(u), terms2(u)
            return h1 + h2, x1 + x2
    else:
        pair = _entropy_terms(TesterStack((t1, t2), t1.dim))

        def terms(u):
            h, x = pair(u)
            return np.add.reduce(h, 0), np.add.reduce(x, 0)

    def g(u):
        h, x = terms(u)
        return h, 1j * (x - x.conj().swapaxes(-1, -2))
    return g


def estimate_bound(t1: Tester, t2: Tester, cfg: SearchConfig) -> BoundEstimate:
    """Multi-start gradient descent for min_u of entropy_sum(t1, t2, u).

    A start converges when the Frobenius norm of its traceless gradient is
    at most ``cfg.tolerance``.  Deterministic per SearchConfig seed; the
    best value is monotone nonincreasing in the number of starts.
    """
    if t1.dim != t2.dim:
        raise ValueError("testers act on different dimensions")
    runs = _multistart(_entropy_objective(t1, t2), t1.dim, cfg, cfg.tolerance)
    best = runs.best
    return BoundEstimate(
        value=max(float(runs.final[best]), 0.0),
        minimizer=runs.u[best],
        starts=tuple(zip(runs.initial.tolist(), runs.final.tolist())),
        nfev=tuple(runs.nfev.tolist()),
        nit=tuple(runs.nit.tolist()),
        converged=tuple(runs.converged.tolist()),
    )


def mub_overlap_bound(t1: Tester, t2: Tester) -> float:
    """The Maassen-Uffink bound -log2 max_ij |<chi_i|zeta_j>|^2 of the two
    testers' measurements {chi_i} and {zeta_j} (Maassen & Uffink, PRL 60,
    1103, 1988; Coles et al., RMP 89, 015002, 2017).

    The overlaps are the entries of M1 M2^dag, M a tester's projector
    matrix, whose orthonormality its constructor checked.  Measurements of
    different sizes raise ValueError.
    """
    m1, m2 = t1.projector_matrix(), t2.projector_matrix()
    if m1.shape[1] != m2.shape[1]:
        raise ValueError("measurement bases act on different dimensions")
    overlap = np.max(np.abs(m1 @ m2.conj().T) ** 2)
    return float(-np.log2(overlap))


def classify_saturation(value: float, n_outcomes: int) -> str:
    """"trivial" below 1e-6 bits, "maximal" within 1e-6 of log2(n_outcomes),
    "above-cap" above that, else "intermediate".  For a tester pair, log2 of
    the smaller outcome count caps the bound only when a unitary can make the
    other tester deterministic, which an entangled bipartite probe may bar."""
    excess = value - np.log2(n_outcomes)
    if value <= TRIVIAL_SATURATION_TOL:
        return "trivial"
    if abs(excess) <= TRIVIAL_SATURATION_TOL:
        return "maximal"
    return "above-cap" if excess > 0 else "intermediate"
