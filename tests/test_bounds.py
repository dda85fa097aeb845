import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize

import oracles
from qtesters import bounds, muub, qmath
from qtesters.bounds import (
    BoundEstimate,
    SearchConfig,
    entropy_sum,
    estimate_bound,
    mub_overlap_bound,
    su_generators,
)
from qtesters.qmath import RngHandle
from qtesters.tester import (
    X_BASIS,
    Z_BASIS,
    LeakyMeasurementError,
    named_tester,
    random_tester,
)

I2 = np.eye(2, dtype=complex)
H_ROT = (I2 - 1j * qmath.SIGMA_Y) / np.sqrt(2)

T0Z = named_tester("0Z")
T0X = named_tester("0X")
TPX = named_tester("+X")
TPZ = named_tester("+Z")


class TestEntropySum:
    def test_trivial_saturation_at_sigma_y(self):
        assert entropy_sum(T0Z, TPX, qmath.SIGMA_Y) == pytest.approx(0.0, abs=1e-9)

    def test_unit_saturation_at_rotation(self):
        assert entropy_sum(T0Z, T0X, H_ROT) == pytest.approx(1.0, abs=1e-9)

    def test_identity_splits_zero_plus_one(self):
        assert entropy_sum(T0Z, T0X, I2) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self, gen):
        for _ in range(10):
            u = qmath.haar_random_unitary(2, gen)
            assert entropy_sum(T0Z, TPX, u) == entropy_sum(TPX, T0Z, u)

    @pytest.mark.parametrize("d,bipartite", [(2, False), (3, False), (2, True), (3, True)])
    def test_stack_rows_equal_scalar_calls(self, gen, d, bipartite):
        t1 = random_tester(d, gen, bipartite=bipartite)
        t2 = random_tester(d, gen, bipartite=bipartite)
        us = qmath.haar_random_unitary(d, gen, shape=(2, 3))
        h = entropy_sum(t1, t2, us)
        assert h.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            scalar = entropy_sum(t1, t2, us[idx])
            assert type(scalar) is float and scalar == h[idx]

    def test_stack_with_a_leaky_row_raises(self, leaky_tester):
        t = leaky_tester
        us = np.stack([I2, qmath.SIGMA_Z, qmath.SIGMA_X])
        assert entropy_sum(t, t, us[:2]).tolist() == [2.0, 2.0]
        with pytest.raises(LeakyMeasurementError):
            entropy_sum(t, t, qmath.SIGMA_X)
        with pytest.raises(LeakyMeasurementError):
            entropy_sum(t, t, us)


class TestEstimateBound:
    def test_mub_pair_reaches_one(self):
        cfg = SearchConfig(starts=32, rng=RngHandle(seed=1))
        est = estimate_bound(T0Z, T0X, cfg)
        assert abs(est.value - 1.0) <= 1e-4

    def test_compatible_pair_reaches_zero(self):
        cfg = SearchConfig(starts=32, rng=RngHandle(seed=1))
        est = estimate_bound(T0Z, TPX, cfg)
        assert 0.0 <= est.value <= 1e-6

    def test_same_measurement_pair_matches_grid_oracle(self):
        cfg = SearchConfig(starts=32, rng=RngHandle(seed=1))
        est = estimate_bound(T0Z, TPZ, cfg)
        assert est.value > 1e-3
        assert abs(est.value - oracles.BOUND_0Z_PZ) <= 1e-3

    def test_frozen_oracle_value_reproducible(self):
        got = oracles.bloch_grid_min(oracles.KET0, oracles.Z_STATES,
                                     oracles.XPLUS, oracles.Z_STATES, n=96)
        assert abs(got - oracles.BOUND_0Z_PZ) <= 1e-4

    def test_value_consistent_with_minimizer(self):
        cfg = SearchConfig(starts=8, rng=RngHandle(seed=2))
        est = estimate_bound(T0Z, T0X, cfg)
        assert qmath.is_unitary(est.minimizer, 1e-9)
        assert entropy_sum(T0Z, T0X, est.minimizer) == pytest.approx(est.value, abs=1e-7)

    def test_upper_bound_soundness(self):
        cfg = SearchConfig(starts=8, rng=RngHandle(seed=3))
        est = estimate_bound(T0Z, TPZ, cfg)
        g = RngHandle(seed=4).generator()
        sample_min = entropy_sum(T0Z, TPZ, qmath.haar_random_unitary(2, g, shape=(1000,))).min()
        assert est.value <= sample_min + 1e-9

    def test_identical_input_floor(self):
        # same probe, measurement bases of an unbiased pair: the observable
        # bound is a floor for the searched value
        cfg = SearchConfig(starts=16, rng=RngHandle(seed=5))
        est = estimate_bound(T0Z, T0X, cfg)
        floor = mub_overlap_bound(Z_BASIS, X_BASIS)
        assert est.value >= floor - 1e-6

    def test_deterministic_per_seed(self):
        cfg = SearchConfig(starts=6, rng=RngHandle(seed=9))
        a = estimate_bound(T0Z, TPZ, cfg)
        b = estimate_bound(T0Z, TPZ, cfg)
        assert a.value == b.value
        assert a.starts == b.starts
        np.testing.assert_array_equal(a.minimizer, b.minimizer)

    def test_monotone_in_starts(self):
        small = estimate_bound(T0Z, TPZ, SearchConfig(starts=3, rng=RngHandle(seed=7)))
        large = estimate_bound(T0Z, TPZ, SearchConfig(starts=12, rng=RngHandle(seed=7)))
        assert large.value <= small.value + 1e-12
        assert small.starts == large.starts[:3]

    def test_per_start_trace_improves(self):
        est = estimate_bound(T0Z, T0X, SearchConfig(starts=8, rng=RngHandle(seed=6)))
        assert len(est.starts) == 8
        for initial, final in est.starts:
            assert final <= initial + 1e-12

    def test_rejects_fewer_than_one_iteration(self):
        with pytest.raises(ValueError, match="max_iterations"):
            SearchConfig(max_iterations=0)

    def test_dimension_mismatch(self, gen):
        from qtesters.tester import random_tester
        with pytest.raises(ValueError):
            entropy_sum(T0Z, random_tester(3, gen), I2)

    def test_json_payload(self):
        est = estimate_bound(T0Z, T0X, SearchConfig(starts=2, rng=RngHandle(seed=0)))
        payload = est.to_json()
        assert set(payload) == {"value", "minimizer", "starts", "nfev", "nit", "converged"}
        for key in ("starts", "nfev", "nit", "converged"):
            assert len(payload[key]) == 2

    def test_unconverged_starts_are_the_ones_at_max_iterations(self):
        gen = RngHandle(1910, 3).generator()
        t1, t2 = random_tester(3, gen), random_tester(3, gen)
        cfg = SearchConfig(starts=8, rng=RngHandle(7665, 3))
        est = estimate_bound(t1, t2, cfg)
        unconverged = [i for i, ok in enumerate(est.converged) if not ok]
        assert unconverged == [i for i, n in enumerate(est.nit) if n == cfg.max_iterations]
        assert unconverged == [1, 5]
        assert all(n < 4 * cfg.max_iterations for n in est.nfev)


def _named_objective(a, b):
    t1, t2 = named_tester(a), named_tester(b)
    return bounds._entropy_objective(t1, t2, su_generators(2)), 3


def _random_objective(d, bipartite=False):
    gen = RngHandle(seed=11).generator()
    t1 = random_tester(d, gen, bipartite=bipartite)
    t2 = random_tester(d, gen, bipartite=bipartite)
    return bounds._entropy_objective(t1, t2, su_generators(d)), d * d - 1


def _partner_objective(d):
    basis = muub.build_named_basis("weyl", d)
    return muub._partner_objective(basis, su_generators(d)), d * d - 1


class TestLockstepSearch:
    """The lockstep search against scipy's Nelder-Mead, start by start."""

    @pytest.mark.parametrize("make, starts, xatol, fatol", [
        (lambda: _named_objective("0Z", "0X"), 8, 1e-8, 1e-10),
        (lambda: _named_objective("0Z", "+Z"), 8, 1e-8, 1e-10),
        (lambda: _random_objective(3), 4, 1e-8, 1e-10),
        (lambda: _partner_objective(3), 2, 1e-10, 1e-14),
    ], ids=["0Z-0X", "0Z-+Z", "random-d3", "weyl3-partner"])
    def test_matches_scipy_per_start(self, make, starts, xatol, fatol):
        f, n = make()
        cfg = SearchConfig(starts=starts, rng=RngHandle(seed=3, stream=1))
        runs = bounds._multistart(f, n, cfg, xatol, fatol)
        x0s = cfg.rng.generator().uniform(-np.pi, np.pi, size=(starts, n))
        options = {"xatol": xatol, "fatol": fatol, "maxiter": cfg.max_iterations,
                   "maxfev": 4 * cfg.max_iterations}
        for i, x0 in enumerate(x0s):
            ref = minimize(lambda th: f(th[None])[0], x0, method="Nelder-Mead",
                           options=options)
            assert abs(runs.final[i] - ref.fun) <= 1e-12
            np.testing.assert_allclose(runs.x[i], ref.x, rtol=0, atol=1e-12)
            assert runs.initial[i] == f(x0[None])[0]
            assert (runs.nfev[i], runs.nit[i], runs.converged[i]) == (
                ref.nfev, ref.nit, ref.success)

    @pytest.mark.parametrize("make", [
        lambda: _random_objective(2), lambda: _random_objective(3),
        lambda: _random_objective(4), lambda: _random_objective(4, bipartite=True),
        lambda: _partner_objective(3),
    ], ids=["d2", "d3", "d4", "d4-bipartite", "weyl3-partner"])
    @pytest.mark.parametrize("batch", [1, 2, 3, 5, 8])
    def test_objective_rows_do_not_depend_on_the_batch(self, make, batch):
        f, n = make()
        theta = RngHandle(seed=batch).generator().uniform(-np.pi, np.pi, size=(batch, n))
        values = f(theta)
        assert values.shape == (batch,)
        for i in range(batch):
            assert values[i] == f(theta[i:i + 1])[0]

    def test_exp_map_rows_do_not_depend_on_the_batch(self, gen):
        gens = su_generators(4)
        theta = gen.uniform(-np.pi, np.pi, size=(2, 3, 15))
        u = bounds.unitary_from_params(theta, gens)
        assert u.shape == (2, 3, 4, 4)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(u[idx], bounds.unitary_from_params(theta[idx], gens))


class TestMubOverlapBound:
    def test_unbiased_pair(self):
        assert mub_overlap_bound(Z_BASIS, X_BASIS) == pytest.approx(1.0, abs=1e-12)

    def test_same_basis(self):
        assert mub_overlap_bound(Z_BASIS, Z_BASIS) == pytest.approx(0.0, abs=1e-12)

    def test_rotated_basis(self):
        th = np.pi / 3
        rotated = (np.array([np.cos(th), np.sin(th)], dtype=complex),
                   np.array([-np.sin(th), np.cos(th)], dtype=complex))
        want = -np.log2(max(np.cos(np.pi / 6) ** 2, np.sin(np.pi / 6) ** 2))
        assert mub_overlap_bound(Z_BASIS, rotated) == pytest.approx(want, abs=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            mub_overlap_bound((np.array([1, 0]), np.array([1, 1]) / np.sqrt(2)), Z_BASIS)


class TestSuGenerators:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_count_traceless_hermitian(self, d):
        gens = su_generators(d)
        assert gens.shape == (d * d - 1, d, d)
        for g in gens:
            assert abs(np.trace(g)) <= 1e-12
            np.testing.assert_allclose(g, g.conj().T, atol=1e-12)

    def test_pairwise_hs_orthogonal(self):
        gens = su_generators(3)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                assert abs(np.trace(gens[i].conj().T @ gens[j])) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_exponential_is_unitary(self, gen, d):
        gens = su_generators(d)
        theta = gen.uniform(-np.pi, np.pi, len(gens))
        u = bounds.unitary_from_params(theta, gens)
        assert qmath.is_unitary(u, 1e-9)
        h = np.tensordot(theta, gens, axes=1)
        np.testing.assert_allclose(u, expm(1j * h), rtol=0, atol=1e-12)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(starts=0)
        with pytest.raises(ValueError):
            SearchConfig(tolerance=0.0)

    def test_classification(self):
        assert bounds.classify_saturation(1e-9, 2) == "trivial"
        assert bounds.classify_saturation(1.0, 2) == "maximal"
        assert bounds.classify_saturation(0.4, 2) == "intermediate"
