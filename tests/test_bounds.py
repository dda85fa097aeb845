import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from test_fingerprints import SEARCH_CASES
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
    KET0,
    KET1,
    LeakyMeasurementError,
    Tester,
    bell_states,
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
    def test_different_dimensions_raise(self):
        t3 = random_tester(3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="^testers act on different dimensions$"):
            estimate_bound(T0Z, t3, SearchConfig(starts=1))

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
        assert qmath.is_unitary(est.minimizer)
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
        floor = mub_overlap_bound(T0Z, T0X)
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
        cfg = SearchConfig(starts=8, max_iterations=80, rng=RngHandle(7665, 3))
        est = estimate_bound(t1, t2, cfg)
        unconverged = [i for i, ok in enumerate(est.converged) if not ok]
        assert unconverged == [i for i, n in enumerate(est.nit) if n == cfg.max_iterations]
        assert unconverged == [0, 4, 5, 6, 7]
        assert all(n <= cfg.max_iterations for n in est.nit)
        assert [n - 1 for n in est.nfev] == list(est.nit)


def _random_objective(d, bipartite=False):
    gen = RngHandle(seed=11).generator()
    t1 = random_tester(d, gen, bipartite=bipartite)
    t2 = random_tester(d, gen, bipartite=bipartite)
    return bounds._entropy_objective(t1, t2), d


def _partner_objective(d):
    basis = muub.build_named_basis("weyl", d)
    return muub._partner_objective(basis), d


class TestLockstepSearch:
    """The pieces every start of the lockstep search goes through compute
    each row independently of the other rows of a call."""

    @pytest.mark.parametrize("make", [
        lambda: _random_objective(2), lambda: _random_objective(3),
        lambda: _random_objective(4), lambda: _random_objective(4, bipartite=True),
        lambda: _partner_objective(3),
    ], ids=["d2", "d3", "d4", "d4-bipartite", "weyl3-partner"])
    @pytest.mark.parametrize("batch", [1, 2, 3, 5, 8])
    def test_objective_rows_do_not_depend_on_the_batch(self, make, batch):
        g, d = make()
        u = qmath.haar_random_unitary(d, RngHandle(seed=batch).generator(), shape=(batch,))
        values, omega = g(u)
        assert values.shape == (batch,) and omega.shape == (batch, d, d)
        for i in range(batch):
            value, om = g(u[i:i + 1])
            assert values[i] == value[0]
            assert omega[i].tobytes() == om[0].tobytes()

    def test_exp_map_rows_do_not_depend_on_the_batch(self, gen):
        gens = su_generators(4)
        theta = gen.uniform(-np.pi, np.pi, size=(2, 3, 15))
        u = bounds.unitary_from_params(theta, gens)
        assert u.shape == (2, 3, 4, 4)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(u[idx], bounds.unitary_from_params(theta[idx], gens))


def _bell_zz():
    """A Bell probe measured in the product basis Z (x) Z: four outcomes on
    a probe of size 4, so it shares no shape with an ancilla-free tester."""
    return Tester(input=bell_states()[0], projectors=tuple(np.eye(4)), dim=2, label="bell-zz")


def _same_runs(a, b):
    for field in bounds._Runs._fields:
        x, y = getattr(a, field), getattr(b, field)
        if (x.dtype, x.shape, x.tobytes()) != (y.dtype, y.shape, y.tobytes()):
            return field
    return None


def _central_differences(g, u, eps=1e-5):
    """tr(omega G) for each su(d) generator G, by central differences of g
    along exp(+-i eps G) u: (generators, k)."""
    gens = su_generators(u.shape[-1])
    w, v = np.linalg.eigh(gens)
    out = []
    for sign in (1, -1):
        step = (v * np.exp(sign * 1j * eps * w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
        out.append(np.stack([g(s @ u)[0] for s in step]))
    return (out[0] - out[1]) / (2 * eps)


class TestGradients:
    """The Hermitian gradient omega of each objective, df = tr(omega H) for
    u <- exp(iH) u, against central differences along every su(d)
    generator; omega is traceless, as a global phase moves no value."""

    @pytest.mark.parametrize("make, atol", [
        (lambda: _random_objective(2), 5e-9), (lambda: _random_objective(3), 5e-9),
        (lambda: _random_objective(4), 5e-9),
        (lambda: _random_objective(2, bipartite=True), 5e-9),
        (lambda: _random_objective(3, bipartite=True), 5e-9),
        (lambda: (bounds._entropy_objective(T0X, _bell_zz()), 2), 5e-9),
        (lambda: (bounds._entropy_objective(_bell_zz(), T0X), 2), 5e-9),
        (lambda: _partner_objective(3), 5e-7),
    ], ids=["d2", "d3", "d4", "d2-bipartite", "d3-bipartite", "0X-bell", "bell-0X",
            "weyl3-partner"])
    def test_matches_central_differences(self, make, atol):
        g, d = make()
        u = qmath.haar_random_unitary(d, RngHandle(seed=19).generator(), shape=(3,))
        _, omega = g(u)
        np.testing.assert_allclose(omega, omega.conj().swapaxes(-1, -2), rtol=0, atol=1e-12)
        assert np.abs(np.trace(omega, axis1=-2, axis2=-1)).max() <= 1e-10
        along = np.einsum("kij,gji->gk", omega, su_generators(d)).real
        np.testing.assert_allclose(along, _central_differences(g, u), rtol=0, atol=atol)


def _entropy_search(cfg, **kw):
    gen = RngHandle(seed=15).generator()
    t1, t2 = random_tester(3, gen), random_tester(3, gen)
    return bounds._multistart(bounds._entropy_objective(t1, t2), 3, cfg, cfg.tolerance, **kw)


def _partner_search(cfg, **kw):
    g = muub._partner_objective(muub.build_named_basis("weyl", 3))
    return bounds._multistart(g, 3, cfg, 1e-13, **kw)


def _nan_ball(g, centre, radius, omega_too):
    """g, but NaN (the value, and omega too if asked) for every unitary
    within ``radius`` of ``centre``; rows stay independent."""
    def holed(u):
        f, omega = g(u)
        inside = np.abs(u - centre).max(axis=(-2, -1)) < radius
        f = np.where(inside, np.nan, f)
        if omega_too:
            omega = np.where(inside[:, None, None], np.nan, omega)
        return f, omega
    return holed


def _holed_objective(omega_too):
    """A d = 3 entropy objective, the same inside a NaN ball around start 2's
    point, and the 6-start SearchConfig of that start."""
    gen = RngHandle(seed=12).generator()
    t1, t2 = random_tester(3, gen), random_tester(3, gen)
    g = bounds._entropy_objective(t1, t2)
    cfg = SearchConfig(starts=6, max_iterations=300, rng=RngHandle(seed=13))
    x0 = cfg.rng.generator().uniform(-np.pi, np.pi, size=(cfg.starts, 8))
    centre = bounds.unitary_from_params(x0[2], su_generators(3))
    return g, _nan_ball(g, centre, 1e-3, omega_too), cfg


def _holed_search(omega_too, **kw):
    """A 6-start entropy search run clean, and run again with start 2's
    point inside a NaN ball (``kw`` goes to the second run only)."""
    g, holed_g, cfg = _holed_objective(omega_too)
    clean = bounds._multistart(g, 3, cfg, cfg.tolerance)
    holed = bounds._multistart(holed_g, 3, cfg, cfg.tolerance, **kw)
    return cfg, clean, holed, np.arange(cfg.starts) != 2


class TestDescentSearch:
    @pytest.mark.parametrize("search", [_entropy_search, _partner_search],
                             ids=["entropy", "partner"])
    def test_first_starts_are_a_shorter_run(self, search):
        n, k = 5, 2
        long = search(SearchConfig(starts=n, max_iterations=300, rng=RngHandle(seed=14)))
        short = search(SearchConfig(starts=k, max_iterations=300, rng=RngHandle(seed=14)))
        head = bounds._Runs(*(field[:k] for field in long))
        assert _same_runs(head, short) is None

    @pytest.mark.parametrize("omega_too", [False, True], ids=["value", "value-and-omega"])
    def test_nan_rows_leave_the_other_starts_alone(self, omega_too):
        cfg, clean, holed, others = _holed_search(omega_too)
        assert _same_runs(bounds._Runs(*(f[others] for f in holed)),
                          bounds._Runs(*(f[others] for f in clean))) is None
        assert np.isnan(holed.initial[2]) and np.isnan(holed.final[2])
        # a NaN gradient stops the start at once; a NaN value rejects every
        # step until the step size vanishes
        if omega_too:
            assert holed.nit[2] == 0
        else:
            assert 0 < holed.nit[2] < cfg.max_iterations
        assert holed.nfev[2] == holed.nit[2] + 1

    def test_target_ends_the_run_at_the_first_winner(self):
        cfg = SearchConfig(starts=2, rng=RngHandle(7665, 99))
        full, cut = _partner_search(cfg), _partner_search(cfg, target=1e-24)
        assert full.best == cut.best == 0
        assert full.u[0].tobytes() == cut.u[0].tobytes()
        assert (full.final[0], full.nit[0]) == (cut.final[0], cut.nit[0])
        assert cut.nit.tolist() == [45, 45] and cut.converged.tolist() == [True, False]
        assert (cut.nfev == cut.nit + 1).all()

    def test_unreachable_target_changes_nothing(self):
        cfg = SearchConfig(starts=4, max_iterations=300, rng=RngHandle(seed=14))
        assert _same_runs(_entropy_search(cfg, target=-1.0), _entropy_search(cfg)) is None

    @pytest.mark.parametrize("omega_too", [False, True], ids=["value", "value-and-omega"])
    def test_nan_start_never_ends_the_run(self, omega_too):
        # every finite value meets an infinite target, so the run ends where
        # the first finite start is done, after the NaN start has stopped
        _, clean, holed, others = _holed_search(omega_too, target=np.inf)
        end = clean.nit[others].min()
        assert np.isnan(holed.final[2]) and holed.nit[2] < end
        assert (holed.nit[others] == end).all()
        assert holed.converged[others].tolist() == (clean.nit[others] == end).tolist()

    def test_max_iterations_leaves_converged_false(self):
        cfg = SearchConfig(starts=4, max_iterations=5, rng=RngHandle(seed=16))
        runs = _entropy_search(cfg)
        assert (runs.nit == 5).all() and (runs.nfev == 6).all()
        assert not runs.converged.any()
        assert (runs.final <= runs.initial).all() and (runs.final < runs.initial).any()

    def test_one_start(self):
        runs = _entropy_search(SearchConfig(starts=1, rng=RngHandle(seed=14)))
        assert runs.u.shape == (1, 3, 3) and runs.converged.all()
        u = runs.u[0]
        assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-12


def _search_case(case, **kw):
    """The objective, dimension and SearchConfig of a fingerprinted search
    case (``kw`` goes to the SearchConfig)."""
    pair, starts, stream = SEARCH_CASES[case]
    t1, t2 = pair()
    cfg = SearchConfig(starts=starts, rng=RngHandle(7665, stream), **kw)
    return bounds._entropy_objective(t1, t2), t1.dim, cfg


def _both(g, d, cfg, gtol, **kw):
    """The stacked search and the one-trial reference on one objective."""
    return (bounds._multistart(g, d, cfg, gtol, **kw),
            oracles.loop_multistart(g, d, cfg, gtol, **kw))


class TestStackedBacktracking:
    """Trying a start's next halvings as extra rows of one objective call
    gives each start the one-trial loop's result bit for bit: every field,
    the unitaries included, compared as raw bytes."""

    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_search_cases(self, case):
        g, d, cfg = _search_case(case)
        new, ref = _both(g, d, cfg, cfg.tolerance)
        assert _same_runs(new, ref) is None

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("bipartite", [False, True], ids=["plain", "ancilla"])
    def test_random_pairs(self, d, bipartite):
        gen = RngHandle(2110, d + 10 * bipartite).generator()
        for k in range(2):
            t1 = random_tester(d, gen, bipartite=bipartite)
            t2 = random_tester(d, gen, bipartite=bipartite)
            cfg = SearchConfig(starts=4, rng=RngHandle(2111, 2 * d + k))
            new, ref = _both(bounds._entropy_objective(t1, t2), d, cfg, cfg.tolerance)
            assert _same_runs(new, ref) is None

    @pytest.mark.parametrize("case", ["0Z0X", "d4bip"])
    @pytest.mark.parametrize("cap", [1, 2, 5, 47])
    def test_iteration_caps(self, case, cap):
        g, d, cfg = _search_case(case, max_iterations=cap)
        new, ref = _both(g, d, cfg, cfg.tolerance)
        assert _same_runs(new, ref) is None
        assert new.nit.max() <= cap

    @pytest.mark.parametrize("omega_too", [False, True], ids=["value", "value-and-omega"])
    def test_nan_balls(self, omega_too):
        _, g, cfg = _holed_objective(omega_too)
        new, ref = _both(g, 3, cfg, cfg.tolerance)
        assert _same_runs(new, ref) is None

    def test_partner_search_with_target(self):
        g = muub._partner_objective(muub.build_named_basis("weyl", 3))
        cfg = SearchConfig(starts=2, rng=RngHandle(7665, 99))
        new, ref = _both(g, 3, cfg, 1e-13, target=1e-24)
        assert _same_runs(new, ref) is None

    def test_huge_iteration_cap_runs(self):
        g, d, cfg = _search_case("0Z0X")
        huge = SearchConfig(starts=cfg.starts, max_iterations=10 ** 30, rng=cfg.rng)
        assert _same_runs(bounds._multistart(g, d, huge, cfg.tolerance),
                          bounds._multistart(g, d, cfg, cfg.tolerance)) is None

    @pytest.mark.parametrize("starts", [16, 64])
    @pytest.mark.parametrize("d, bipartite", [(3, False), (4, True)], ids=["d3", "d4-ancilla"])
    def test_wide_runs(self, d, bipartite, starts):
        # with many starts some start backtracks in almost every call: after
        # the first call, 44 of 50 (16 starts) and 57 of 60 (64 starts) of
        # the d = 3 run's calls give some start two or more rows, and 223 of
        # 263 and 265 of 282 of the d = 4 run's
        gen = RngHandle(2112, d).generator()
        t1 = random_tester(d, gen, bipartite=bipartite)
        t2 = random_tester(d, gen, bipartite=bipartite)
        cfg = SearchConfig(starts=starts, rng=RngHandle(2113, starts))
        new, ref = _both(bounds._entropy_objective(t1, t2), d, cfg, cfg.tolerance)
        assert _same_runs(new, ref) is None

    @pytest.mark.parametrize("case, most", [("0Z0X", 30), ("d4bip", 360)])
    def test_objective_calls(self, case, most):
        # the one-trial loop takes 68 and 456 calls: the first evaluation,
        # then one per iteration of the longest start
        g, d, cfg = _search_case(case)
        runs, calls = _counted_search(g, d, cfg, cfg.tolerance)
        assert len(calls) <= most
        # nfev still counts the one-trial loop's evaluations
        assert (runs.nfev == runs.nit + 1).all() and runs.nfev.max() > len(calls)

    @pytest.mark.parametrize("case, calls, rows", [
        ("0Z0X", 26, 413), ("0ZpZ", 23, 425), ("0ZpX", 33, 477), ("d3", 59, 720),
        ("d4bip", 331, 1428)])
    def test_search_work_is_pinned(self, case, calls, rows):
        """The objective calls and the rows they evaluate, exactly: a change
        to the loop's cost per call cannot hide a change to its work."""
        g, d, cfg = _search_case(case)
        sizes = _counted_search(g, d, cfg, cfg.tolerance)[1]
        assert (len(sizes), sum(sizes)) == (calls, rows)

    def test_partner_search_work_is_pinned(self):
        g = muub._partner_objective(muub.build_named_basis("weyl", 3))
        cfg = SearchConfig(starts=2, rng=RngHandle(7665, 99))
        sizes = _counted_search(g, 3, cfg, 1e-13, target=1e-24)[1]
        assert (len(sizes), sum(sizes)) == (46, 92)


def _counted_search(g, d, cfg, gtol, **kw):
    """The stacked search's runs, and the number of rows of each call of g."""
    sizes = []

    def counted(u):
        sizes.append(len(u))
        return g(u)
    return bounds._multistart(counted, d, cfg, gtol, **kw), sizes


def _pairs(d):
    gen = RngHandle(seed=30 + d).generator()
    plain = random_tester(d, gen), random_tester(d, gen)
    bip = random_tester(d, gen, bipartite=True), random_tester(d, gen, bipartite=True)
    return {"plain": plain, "ancilla": bip, "mixed": (plain[0], bip[0])}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["plain", "ancilla", "mixed"])
@pytest.mark.parametrize("swap", [False, True], ids=["t1-t2", "t2-t1"])
def test_entropy_objective_equals_entropy_sum(d, kind, swap):
    t1, t2 = _pairs(d)[kind]
    if swap:
        t1, t2 = t2, t1
    u = qmath.haar_random_unitary(d, RngHandle(seed=d).generator(), shape=(5,))
    got = bounds._entropy_objective(t1, t2)(u)[0]
    assert got.tobytes() == entropy_sum(t1, t2, u).tobytes()
    assert got.tobytes() == oracles.pairwise_entropy_objective(t1, t2)(u).tobytes()


class TestMubOverlapBound:
    def test_unbiased_pair(self):
        assert mub_overlap_bound(T0Z, T0X) == pytest.approx(1.0, abs=1e-12)

    def test_same_basis(self):
        assert mub_overlap_bound(T0Z, T0Z) == pytest.approx(0.0, abs=1e-12)

    def test_rotated_basis(self):
        th = np.pi / 3
        rotated = (np.array([np.cos(th), np.sin(th)], dtype=complex),
                   np.array([-np.sin(th), np.cos(th)], dtype=complex))
        t = Tester(input=KET0, projectors=rotated, dim=2)
        want = -np.log2(max(np.cos(np.pi / 6) ** 2, np.sin(np.pi / 6) ** 2))
        assert mub_overlap_bound(T0Z, t) == pytest.approx(want, abs=1e-12)

    def test_rejects_non_orthonormal(self):
        # the bound reads checked testers: the Tester constructor rejects the basis
        with pytest.raises(ValueError, match="^projectors are not orthonormal$"):
            Tester(input=KET1, projectors=(KET0, np.array([1, 1]) / np.sqrt(2)), dim=2)

    def test_rejects_different_dimensions(self):
        with pytest.raises(ValueError, match="^measurement bases act on different dimensions$"):
            mub_overlap_bound(T0Z, named_tester("bell:0"))

    def test_equals_the_raw_vector_overlaps(self):
        # the products of the former raw-vector form, |chi^* zeta^T|^2
        gen = np.random.default_rng(2)
        t1, t2 = random_tester(3, gen), random_tester(3, gen)
        m1, m2 = np.stack(t1.projectors), np.stack(t2.projectors)
        want = float(-np.log2(np.max(np.abs(m1.conj() @ m2.T) ** 2)))
        assert mub_overlap_bound(t1, t2) == want


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
        assert qmath.is_unitary(u)
        h = np.tensordot(theta, gens, axes=1)
        np.testing.assert_allclose(u, expm(1j * h), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_exp_map_with_one_t_per_matrix(self, gen, d):
        # the search's trial step: a stack of Hermitian h, each with its own t
        g = gen.standard_normal((5, 2, d, d))
        h = g[:, 0] + 1j * g[:, 1]
        h = h + h.conj().swapaxes(-1, -2)
        t = gen.uniform(-2.0, 2.0, 5)
        u = bounds._expi_eig(*np.linalg.eigh(h), t)
        assert u.shape == (5, d, d)
        for k in range(5):
            np.testing.assert_allclose(u[k], expm(1j * t[k] * h[k]), rtol=0, atol=1e-12)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(starts=0)
        with pytest.raises(ValueError):
            SearchConfig(tolerance=0.0)

    @pytest.mark.parametrize("key, value", [
        ("max_iterations", 50.5), ("max_iterations", True), ("max_iterations", "50"),
        ("starts", True), ("starts", 2.5), ("starts", False),
    ])
    def test_counts_must_be_integers(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be an integer, not {value!r}$"):
            SearchConfig(**{key: value})

    def test_integral_float_counts_become_ints(self):
        cfg = SearchConfig(starts=np.float64(3.0), max_iterations=50.0)
        assert (cfg.starts, cfg.max_iterations) == (3, 50)
        assert type(cfg.starts) is int and type(cfg.max_iterations) is int

    def test_classification(self):
        assert bounds.classify_saturation(1e-9, 2) == "trivial"
        assert bounds.classify_saturation(1.0, 2) == "maximal"
        assert bounds.classify_saturation(0.4, 2) == "intermediate"
        assert bounds.classify_saturation(1.0 + 2e-6, 2) == "above-cap"
