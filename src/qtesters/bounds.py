"""Entropic bounds for tester pairs.

The bound for a pair of testers is the infimum over all unitaries of the
summed outcome entropies.  ``estimate_bound`` searches for it with
multi-start Nelder-Mead over a traceless-Hermitian-generator
parameterization of SU(d); the global phase is dropped because it provably
leaves every outcome distribution unchanged.  The search result is an
upper bound on the true infimum together with a per-start trace, never a
certificate.

All starts of a search run in lockstep: each simplex step evaluates the
objective once on the stacked points of every live start, so the cost of a
step is a few stacked numpy calls, not one Python call per start.  The
starts stay independent: the objective computes each row with stacked
(per-matrix) products and last-axis reductions only, so a start's values do
not depend on which other starts share a call, and every start follows the
path that scipy's non-adaptive Nelder-Mead takes from the same point (up
to the evaluation-budget stop described in ``_multistart``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qmath
from .qmath import RngHandle
from .tester import Tester, outcome_distribution, outcome_probabilities, shannon_entropy

TRIVIAL_SATURATION_TOL = 1e-6  # bits


@dataclass(frozen=True)
class SearchConfig:
    starts: int = 16
    max_iterations: int = 2000
    tolerance: float = 1e-10  # bits; function-value convergence target
    rng: RngHandle = field(default_factory=lambda: RngHandle(seed=0))

    def __post_init__(self):
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
    evaluations, the iterations (counted as scipy counts them) and whether
    the start met its tolerances before ``max_iterations`` or the evaluation
    budget."""

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
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


# scipy's non-adaptive Nelder-Mead and its initial simplex's relative and
# zero steps.  With reflection coefficient 1, every trial point is
# c * xbar - (c - 1) * worst, for c = 2 (reflect), 3 (expand, coefficient 2),
# 3/2 and 1/2 (outside and inside contraction, coefficient 1/2); this rounds
# exactly as scipy's formulas do.  Shrinks halve each vertex's offset.
_REFLECT, _EXPAND, _OUTSIDE, _INSIDE = 2.0, 3.0, 1.5, 0.5
_SIGMA = 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025


class _Runs(NamedTuple):
    """Per-start results of ``_multistart``, in start order."""

    x: np.ndarray          # (starts, n) best vertex of each final simplex
    initial: np.ndarray    # objective at each start point
    final: np.ndarray      # objective at x
    nfev: np.ndarray
    nit: np.ndarray        # 1 + simplex steps taken, as scipy counts
    converged: np.ndarray  # stopped by the xatol/fatol test

    @property
    def best(self) -> int:
        """The first start with the least final value."""
        return int(np.argmin(self.final))


def _sort_simplices(sim: np.ndarray, fsim: np.ndarray) -> tuple:
    """Order each simplex's vertices by value, with scipy's default argsort."""
    ind = np.argsort(fsim, axis=-1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, ind], fsim[rows, ind]


def _multistart(f, n_params: int, cfg: SearchConfig, xatol: float, fatol: float) -> _Runs:
    """Nelder-Mead from cfg.starts points drawn uniformly in [-pi, pi)^n_params,
    all starts in lockstep.

    ``f`` maps a (k, n_params) stack of points to their k values and must
    compute each row independently of the others.  Every start then takes
    the steps of scipy's non-adaptive Nelder-Mead with options ``xatol``,
    ``fatol``, ``maxiter=cfg.max_iterations`` and
    ``maxfev=4*cfg.max_iterations``, with one difference: a start stops at
    the first iteration boundary where its evaluation count has reached
    maxfev, where scipy stops mid-iteration.  Per step, one call of ``f``
    evaluates the reflections of all live starts, one more the single
    further point (expansion, outside or inside contraction) of each start
    that needs one, and one more the shrunk simplices of the starts that
    shrink.  The starts are independent, and a caller reduces them in start
    order.
    """
    n = n_params
    maxiter, maxfev = cfg.max_iterations, 4 * cfg.max_iterations
    x0 = cfg.rng.generator().uniform(-np.pi, np.pi, size=(cfg.starts, n))
    k = np.arange(n)
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + _NONZDELT) * x0, _ZDELT)
    fsim = f(sim.reshape(-1, n)).reshape(cfg.starts, n + 1)
    initial = fsim[:, 0].copy()
    # sorted twice, as scipy does: with ties, argsort of sorted values need
    # not be the identity
    sim, fsim = _sort_simplices(*_sort_simplices(sim, fsim))
    # per-start results, filled in as each start stops
    x, final = np.empty((cfg.starts, n)), np.empty(cfg.starts)
    nfev, nit = np.empty(cfg.starts, dtype=int), np.empty(cfg.starts, dtype=int)
    converged = np.empty(cfg.starts, dtype=bool)
    # sim, fsim and nf hold the live starts only, listed in live; all of
    # them have taken the same number of steps, it - 1
    live, nf, it = np.arange(cfg.starts), np.full(cfg.starts, n + 1), 1
    while True:
        over = nf >= maxfev if it < maxiter else np.ones(live.size, dtype=bool)
        # scipy's tolerance test; the vertices are sorted by value, so the
        # largest |f_0 - f_j| is f_n - f_0, and the x test runs only when
        # some start passes the f test
        done = ~over & (fsim[:, -1] - fsim[:, 0] <= fatol)
        if done.any():
            done[done] = np.abs(sim[done, 1:] - sim[done, :1]).max(axis=(1, 2)) <= xatol
        stop = over | done
        if stop.any():
            gone = live[stop]
            x[gone], final[gone] = sim[stop, 0], fsim[stop, 0]
            nfev[gone], nit[gone], converged[gone] = nf[stop], it, done[stop]
            live, sim, fsim, nf = live[~stop], sim[~stop], fsim[~stop], nf[~stop]
            if live.size == 0:
                return _Runs(x, initial, final, nfev, nit, converged)
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        worst = sim[:, -1]
        xr = _REFLECT * xbar - (_REFLECT - 1) * worst
        fxr = f(xr)
        expand = fxr < fsim[:, 0]
        accept = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~accept & (fxr < fsim[:, -1])
        second = ~accept
        c = np.where(expand, _EXPAND, np.where(outside, _OUTSIDE, _INSIDE))[:, None]
        x2 = c * xbar - (c - 1) * worst
        f2 = np.full_like(fxr, np.nan)
        if second.any():
            f2[second] = f(x2[second])
        # the second point replaces the worst vertex if the expansion beats
        # the reflection, the outside contraction is no worse than it, or the
        # inside contraction beats the worst vertex; a failed contraction
        # shrinks the simplex; otherwise the reflection replaces it
        better = np.where(expand, f2 < fxr, np.where(outside, f2 <= fxr, f2 < fsim[:, -1]))
        use2 = second & better
        shrink = second & ~expand & ~better
        shrinking = shrink.any()
        if shrinking:
            # taken before the worst vertex is replaced below
            sh = sim[shrink]
            sh[:, 1:] = sh[:, :1] + _SIGMA * (sh[:, 1:] - sh[:, :1])
        sim[:, -1] = np.where(use2[:, None], x2, xr)
        fsim[:, -1] = np.where(use2, f2, fxr)
        nf += 1 + second
        if shrinking:
            sim[shrink] = sh
            fsim[shrink, 1:] = f(sh[:, 1:].reshape(-1, n)).reshape(-1, n)
            nf[shrink] += n
        it += 1
        sim, fsim = _sort_simplices(sim, fsim)


def _entropy_objective(t1: Tester, t2: Tester, gens: np.ndarray):
    """entropy_sum at the exp map of each row of a (k, n) stack of parameters,
    without the per-call checks, which the search does not need."""
    def f(theta):
        u = unitary_from_params(theta, gens)
        p1, p2 = outcome_probabilities(t1, u), outcome_probabilities(t2, u)
        return shannon_entropy(p1) + shannon_entropy(p2)
    return f


def estimate_bound(t1: Tester, t2: Tester, cfg: SearchConfig) -> BoundEstimate:
    """Multi-start simplex search for min_u of entropy_sum(t1, t2, u).

    Deterministic per SearchConfig seed; the best value is monotone
    nonincreasing in the number of starts.
    """
    if t1.dim != t2.dim:
        raise ValueError("testers act on different dimensions")
    d = t1.dim
    gens = su_generators(d)
    runs = _multistart(_entropy_objective(t1, t2, gens), d * d - 1, cfg, 1e-8, cfg.tolerance)
    best = runs.best
    return BoundEstimate(
        value=max(float(runs.final[best]), 0.0),
        minimizer=unitary_from_params(runs.x[best], gens),
        starts=tuple(zip(runs.initial.tolist(), runs.final.tolist())),
        nfev=tuple(runs.nfev.tolist()),
        nit=tuple(runs.nit.tolist()),
        converged=tuple(runs.converged.tolist()),
    )


def mub_overlap_bound(meas1, meas2) -> float:
    """-log2 max_{ij} |<chi_i|zeta_j>|^2 for two orthonormal measurement bases."""
    m1 = np.stack([np.asarray(v, dtype=complex).reshape(-1) for v in meas1])
    m2 = np.stack([np.asarray(v, dtype=complex).reshape(-1) for v in meas2])
    if m1.shape[1] != m2.shape[1]:
        raise ValueError("measurement bases act on different dimensions")
    for m in (m1, m2):
        gram = m.conj() @ m.T
        if np.max(np.abs(gram - np.eye(m.shape[0]))) > qmath.DEFAULT_TOL:
            raise ValueError("measurement basis is not orthonormal")
    overlap = np.max(np.abs(m1.conj() @ m2.T) ** 2)
    return float(-np.log2(overlap))


def classify_saturation(value: float, n_outcomes: int) -> str:
    """"trivial" below 1e-6 bits, "maximal" within 1e-6 of log2(n_outcomes):
    for a tester pair, the smaller outcome count, as a unitary that makes the
    other tester deterministic leaves a sum of at most log2 of it."""
    if value <= TRIVIAL_SATURATION_TOL:
        return "trivial"
    if value >= np.log2(n_outcomes) - TRIVIAL_SATURATION_TOL:
        return "maximal"
    return "intermediate"
