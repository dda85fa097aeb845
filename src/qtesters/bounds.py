"""Entropic bounds for tester pairs.

The bound for a pair of testers is the infimum over all unitaries of the
summed outcome entropies.  ``estimate_bound`` searches for it with
multi-start gradient-free descent over a traceless-Hermitian-generator
parameterization of SU(d); the global phase is dropped because it provably
leaves every outcome distribution unchanged.  The search result is an
upper bound on the true infimum together with a per-start trace, never a
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import qmath
from .qmath import RngHandle
from .tester import Tester, outcome_probabilities, shannon_entropy, tester_entropy

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
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True, eq=False)
class BoundEstimate:
    """Best entropy sum found, the unitary achieving it, and the per-start
    (initial value, final value) trace."""

    value: float
    minimizer: np.ndarray
    starts: tuple

    def to_json(self) -> dict:
        return {
            "value": float(self.value),
            "minimizer": qmath.matrix_to_json(self.minimizer),
            "starts": [[float(a), float(b)] for a, b in self.starts],
        }


def su_generators(d: int) -> np.ndarray:
    """Traceless Hermitian basis of su(d): the d^2 - 1 generalized Gell-Mann
    matrices (symmetric, antisymmetric, then diagonal), stacked."""
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


def entropy_sum(t1: Tester, t2: Tester, u: np.ndarray) -> float:
    """Summed outcome entropies (bits) of the two testers at u."""
    if t1.dim != t2.dim:
        raise ValueError("testers act on different dimensions")
    return tester_entropy(t1, u) + tester_entropy(t2, u)


def unitary_from_params(theta: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """exp(i sum_k theta_k G_k) (special unitary for traceless generators)."""
    w, v = np.linalg.eigh(np.tensordot(np.asarray(theta, dtype=float), gens, axes=1))
    return (v * np.exp(1j * w)) @ v.conj().T


def _multistart(f, n_params: int, cfg: SearchConfig, xatol: float, fatol: float):
    """Nelder-Mead from cfg.starts points drawn uniformly in [-pi, pi)^n_params.

    Returns (best value, its parameters, per-start (initial, final) trace);
    starts run independently and are reduced in start order.
    """
    theta0s = cfg.rng.generator().uniform(-np.pi, np.pi, size=(cfg.starts, n_params))
    options = {"xatol": xatol, "fatol": fatol, "maxiter": cfg.max_iterations,
               "maxfev": 4 * cfg.max_iterations}
    trace = []
    best_val, best_theta = np.inf, theta0s[0]
    for theta0 in theta0s:
        res = minimize(f, theta0, method="Nelder-Mead", options=options)
        trace.append((float(f(theta0)), float(res.fun)))
        if res.fun < best_val:
            best_val, best_theta = float(res.fun), res.x
    return best_val, best_theta, tuple(trace)


def estimate_bound(t1: Tester, t2: Tester, cfg: SearchConfig) -> BoundEstimate:
    """Multi-start simplex search for min_u of entropy_sum(t1, t2, u).

    Deterministic per SearchConfig seed; the best value is monotone
    nonincreasing in the number of starts.
    """
    if t1.dim != t2.dim:
        raise ValueError("testers act on different dimensions")
    d = t1.dim
    gens = su_generators(d)

    def f(theta):
        # entropy_sum without its per-call checks, which the search does not need
        u = unitary_from_params(theta, gens)
        return (shannon_entropy(outcome_probabilities(t1, u))
                + shannon_entropy(outcome_probabilities(t2, u)))

    best_val, best_theta, trace = _multistart(f, d * d - 1, cfg, 1e-8, cfg.tolerance)
    minimizer = unitary_from_params(best_theta, gens)
    return BoundEstimate(value=max(best_val, 0.0), minimizer=minimizer, starts=trace)


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
    """"trivial" below 1e-6 bits, "maximal" within 1e-6 of log2(outcomes)."""
    if value <= TRIVIAL_SATURATION_TOL:
        return "trivial"
    if value >= np.log2(n_outcomes) - TRIVIAL_SATURATION_TOL:
        return "maximal"
    return "intermediate"
