import re

import numpy as np
import pytest

import oracles
from qtesters import qmath, tester
from qtesters.tester import (
    HypothesisViolation,
    LeakyMeasurementError,
    Tester,
    TesterSet,
    TesterStack,
    are_equivalent,
    can_distinguish,
    is_complete_set,
    is_eigenoperator,
    named_tester,
    named_tester_set,
    outcome_distribution,
    outcome_probabilities,
    random_tester,
    shannon_entropy,
)

I2 = np.eye(2, dtype=complex)
H_ROT = (I2 - 1j * qmath.SIGMA_Y) / np.sqrt(2)


class TestOutcomeDistribution:
    def test_fixed_point(self):
        p = outcome_distribution(named_tester("0Z"), I2)
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)

    def test_hadamard_rotation_uniform(self):
        p = outcome_distribution(named_tester("0Z"), H_ROT)
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)

    def test_bell_tester_deterministic_on_pauli(self):
        # (sigma_x (x) I) maps the k-th Bell probe onto a single Bell outcome
        t = named_tester("bell:0")
        p = outcome_distribution(t, qmath.SIGMA_X)
        np.testing.assert_allclose(p, [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_normalization_over_random_testers(self, gen):
        for d in (2, 3):
            for k in range(8):
                t = random_tester(d, gen, bipartite=k % 2 == 1)
                u = qmath.haar_random_unitary(d, gen)
                total = outcome_distribution(t, u).sum()
                assert abs(total - 1.0) <= 1e-9

    def test_leaky_subspace_tester_raises(self):
        # projectors live in the ancilla-|1> plane, probe in the ancilla-|0> plane
        ket0, ket1 = tester.KET0, tester.KET1
        t = Tester(
            input=np.kron(ket0, ket0),
            projectors=(np.kron(ket0, ket1), np.kron(ket1, ket1)),
            dim=2,
        )
        with pytest.raises(LeakyMeasurementError):
            outcome_distribution(t, I2)

    def test_global_phase_invariance_quarter_turns(self, gen):
        t = random_tester(2, gen)
        u = qmath.haar_random_unitary(2, gen)
        base = outcome_distribution(t, u)
        for phase in (1j, -1.0, -1j):
            p = outcome_distribution(t, phase * u)
            assert np.max(np.abs(p - base)) <= 5e-16

    def test_global_phase_invariance_random_angle(self, gen):
        t = random_tester(3, gen, bipartite=True)
        u = qmath.haar_random_unitary(3, gen)
        base = outcome_distribution(t, u)
        for phi in gen.uniform(0, 2 * np.pi, 4):
            p = outcome_distribution(t, np.exp(1j * phi) * u)
            assert np.max(np.abs(p - base)) <= 1e-12


@pytest.mark.parametrize("d,bipartite", [(2, False), (3, False), (2, True), (3, True)])
def test_stacked_rows_equal_single_matrix_calls(gen, d, bipartite):
    t = random_tester(d, gen, bipartite=bipartite)
    us = qmath.haar_random_unitary(d, gen, shape=(2, 3))
    p = outcome_distribution(t, us)
    assert p.shape == (2, 3, t.n_outcomes) and p.dtype == float
    h = shannon_entropy(p)
    assert h.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        single = outcome_distribution(t, us[idx])
        assert single.shape == (t.n_outcomes,) and np.array_equal(p[idx], single)
        h_single = shannon_entropy(single)
        assert type(h_single) is float and h_single == h[idx]


@pytest.mark.parametrize("d,bipartite", [(2, False), (3, False), (2, True), (3, True)])
def test_tester_set_rows_equal_single_tester_calls(gen, d, bipartite):
    base = random_tester(d, gen, bipartite=bipartite)
    probes = qmath.haar_random_unitary(base.input.size, gen).T  # orthonormal rows
    s = TesterSet(testers=tuple(Tester(input=p, projectors=base.projectors, dim=d)
                                for p in probes), dim=d)
    us = qmath.haar_random_unitary(d, gen, shape=(2, 3))
    p = outcome_distribution(s, us)
    assert p.shape == (len(s), 2, 3, base.n_outcomes)
    assert outcome_distribution(s, us[1, 2]).shape == (len(s), base.n_outcomes)
    for i, t in enumerate(s):
        assert np.array_equal(p[i], outcome_distribution(t, us))
        assert np.array_equal(outcome_distribution(s, us[1, 2])[i], outcome_distribution(t, us[1, 2]))


@pytest.mark.parametrize("d,bipartite", [(2, False), (3, False), (2, True), (3, True)])
def test_tester_stack_rows_equal_single_tester_calls(gen, d, bipartite):
    # members with their own projectors: no shared measurement
    testers = tuple(random_tester(d, gen, bipartite=bipartite) for _ in range(3))
    s = TesterStack(testers, d)
    us = qmath.haar_random_unitary(d, gen, shape=(2, 3))
    p = outcome_probabilities(s, us)
    assert p.shape == (3, 2, 3, testers[0].n_outcomes)
    for i, t in enumerate(testers):
        assert p[i].tobytes() == outcome_probabilities(t, us).tobytes()
        for idx in np.ndindex(2, 3):
            assert p[i][idx].tobytes() == outcome_probabilities(t, us[idx]).tobytes()


def test_tester_stack_rejects_mixed_members(gen, leaky_tester):
    plain, bip = random_tester(2, gen), random_tester(2, gen, bipartite=True)
    with pytest.raises(ValueError, match=r"^testers have mixed probe or projector shapes$"):
        TesterStack((plain, bip), 2)
    with pytest.raises(ValueError, match=r"^testers have mixed probe or projector shapes$"):
        TesterStack((bip, leaky_tester), 2)
    with pytest.raises(ValueError, match=r"^testers have mixed dimensions$"):
        TesterStack((plain, random_tester(3, gen)), 2)
    with pytest.raises(ValueError, match=r"^empty tester set$"):
        TesterStack((), 2)


def test_tester_set_leak_raises(leaky_tester):
    s = TesterSet(testers=(leaky_tester,), dim=leaky_tester.dim)
    with pytest.raises(LeakyMeasurementError):
        outcome_distribution(s, np.stack([np.eye(2), qmath.SIGMA_X]))


class TestStackedErrors:
    def test_leak_message(self, leaky_tester):
        us = np.stack([I2, qmath.SIGMA_Z, qmath.SIGMA_X])
        want = r"^leaky measurement: outcome probabilities sum to 0\.000000000$"
        with pytest.raises(LeakyMeasurementError, match=want):
            outcome_distribution(leaky_tester, qmath.SIGMA_X)
        with pytest.raises(LeakyMeasurementError, match=want):
            outcome_distribution(leaky_tester, us)

    def test_sum_message(self):
        want = r"^probabilities sum to 4\.0, not 1$"
        with pytest.raises(ValueError, match=want):
            outcome_distribution(named_tester("0Z"), 2 * I2)
        with pytest.raises(ValueError, match=want):
            outcome_distribution(named_tester("0Z"), np.stack([I2, 2 * I2, H_ROT]))

    def test_shape_message(self):
        with pytest.raises(ValueError, match=r"^unitary shape \(2, 3\) does not match d=2$"):
            outcome_distribution(named_tester("0Z"), np.ones((2, 3)))

    def test_can_distinguish_rejects_a_stack(self):
        with pytest.raises(ValueError, match="not stacks"):
            can_distinguish(named_tester("0Z"), np.stack([I2, I2]), qmath.SIGMA_X)
        with pytest.raises(ValueError, match="not stacks"):
            can_distinguish(named_tester("0Z"), I2, np.stack([I2, qmath.SIGMA_X]))


class TestShannonEntropy:
    def test_deterministic(self):
        assert shannon_entropy(np.array([1.0, 0.0])) == 0.0

    def test_uniform_four(self):
        assert shannon_entropy(np.full(4, 0.25)) == pytest.approx(2.0, abs=1e-12)

    def test_dyadic(self):
        assert shannon_entropy(np.array([0.5, 0.25, 0.25])) == pytest.approx(1.5, abs=1e-12)

    def test_range(self, gen):
        for _ in range(20):
            p = gen.dirichlet(np.ones(4))
            h = shannon_entropy(p)
            assert -1e-12 <= h <= 2.0 + 1e-12


def entropy_of(t, u):
    return shannon_entropy(outcome_distribution(t, u))


class TestTesterEntropy:
    def test_fixtures(self):
        assert entropy_of(named_tester("0Z"), I2) == pytest.approx(0.0, abs=1e-9)
        assert entropy_of(named_tester("0X"), H_ROT) == pytest.approx(0.0, abs=1e-9)
        assert entropy_of(named_tester("0Z"), H_ROT) == pytest.approx(1.0, abs=1e-9)


class TestCompleteSets:
    def test_z_pair_complete(self):
        assert is_complete_set(TesterSet(testers=(named_tester("0Z"), named_tester("1Z")), dim=2))

    def test_single_tester_incomplete(self):
        assert not is_complete_set(TesterSet(testers=(named_tester("0Z"),), dim=2))

    def test_mixed_measurements_rejected(self):
        with pytest.raises(ValueError, match=r"^testers do not share one projector list$"):
            TesterSet(testers=(named_tester("0Z"), named_tester("+X")), dim=2)

    def test_probes_that_are_not_orthonormal(self):
        # three probes in dimension 2: the Gram test fails, not the resolution
        s = TesterSet(testers=tuple(named_tester(n) for n in ("0Z", "1Z", "+Z")), dim=2)
        assert is_complete_set(s) is False

    def test_bell_set_complete(self):
        assert is_complete_set(named_tester_set("bell"))

    def test_tester_set_requires_shared_measurement(self):
        with pytest.raises(ValueError, match=r"^testers do not share one projector list$"):
            TesterSet(testers=(named_tester("0Z"), named_tester("0X")), dim=2)

    def test_projector_size_or_count_mismatch(self, leaky_tester):
        bell = named_tester("bell:0")
        # same count (2), different size: a message, not a broadcasting error
        with pytest.raises(ValueError, match=r"^testers do not share one projector list$"):
            TesterSet(testers=(named_tester("0Z"), leaky_tester), dim=2)
        with pytest.raises(ValueError, match=r"^testers do not share one projector list$"):
            TesterSet(testers=(bell, leaky_tester), dim=2)

    @pytest.mark.parametrize("shift, shared", [(0.9e-9, True), (1.1e-9, False)])
    def test_projector_tolerance_on_the_last_member(self, shift, shared):
        z = np.eye(2, dtype=complex)
        # a phase shift keeps the moved projector normalized to well inside 1e-9
        moved = (z[0], z[1] * np.exp(1j * shift))
        testers = (named_tester("0Z"), Tester(input=tester.KET1, projectors=moved, dim=2))
        if shared:
            assert is_complete_set(TesterSet(testers=testers, dim=2))
        else:
            with pytest.raises(ValueError, match=r"^testers do not share one projector list$"):
                TesterSet(testers=testers, dim=2)


class TestStackDim:
    """``TesterStack`` and ``TesterSet`` read ``dim`` as ``Tester`` does."""

    @pytest.mark.parametrize("cls", [TesterStack, TesterSet])
    def test_integral_float_dim_becomes_int(self, cls):
        s = cls(testers=(named_tester("0Z"), named_tester("1Z")), dim=2.0)
        assert type(s.dim) is int and s.dim == 2
        assert outcome_distribution(s, I2).tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("cls", [TesterStack, TesterSet])
    @pytest.mark.parametrize("dim", [True, 2.5, "2"])
    def test_dim_that_is_not_an_integer(self, cls, dim):
        with pytest.raises(ValueError, match=f"^dim must be an integer, not {re.escape(repr(dim))}$"):
            cls(testers=(named_tester("0Z"), named_tester("1Z")), dim=dim)


class TestEquivalence:
    def test_different_dimensions_raise(self, gen):
        with pytest.raises(ValueError, match="^testers act on different dimensions$"):
            are_equivalent(named_tester("0Z"), random_tester(3, gen), I2)

    def test_reflexive(self, gen):
        t = random_tester(2, gen)
        u = qmath.haar_random_unitary(2, gen)
        assert are_equivalent(t, t, u)

    def test_rotated_pair_equivalent(self):
        # both distributions are (1/2, 1/2) at the quarter rotation
        assert are_equivalent(named_tester("0Z"), named_tester("+X"), H_ROT)

    def test_different_statistics(self):
        assert not are_equivalent(named_tester("0Z"), named_tester("0X"), I2)

    def test_symmetric_and_transitive(self, gen):
        z = named_tester_set("z")
        x = named_tester_set("x")
        family = list(z) + list(x)
        for th in gen.uniform(0, 2 * np.pi, 5):
            w = np.cos(th) * I2 + np.sin(th) * (1j * qmath.SIGMA_Y)
            for a in family:
                for b in family:
                    assert are_equivalent(a, b, w, tol=1e-9) == are_equivalent(b, a, w, tol=1e-9)
            assert are_equivalent(family[0], family[2], w, tol=1e-9)
            assert are_equivalent(family[2], family[3], w, tol=1e-9)
            assert are_equivalent(family[0], family[3], w, tol=1e-9)

    def test_stack_rows_equal_scalar_calls(self, gen):
        for d in (2, 3):
            for bipartite in (False, True):
                t = random_tester(d, gen, bipartite=bipartite)
                basis = qmath.haar_random_unitary(d * d if bipartite else d, gen)
                rotated = Tester(input=basis[:, 0].copy(), projectors=t.projectors, dim=d)
                us = qmath.haar_random_unitary(d, gen, shape=(2, 4))
                for a, b in ((t, t), (t, rotated)):
                    got = are_equivalent(a, b, us, tol=1e-6)
                    assert got.shape == (2, 4) and got.dtype == bool
                    for idx in np.ndindex(2, 4):
                        scalar = are_equivalent(a, b, us[idx], tol=1e-6)
                        assert type(scalar) is bool and scalar == got[idx]
        z0, z1, px = named_tester("0Z"), named_tester("1Z"), named_tester("+X")
        us = qmath.haar_random_unitary(2, gen, shape=(5,))
        assert are_equivalent(z0, z1, us).all()
        assert not are_equivalent(z0, px, us).any()

    def test_stack_with_a_leaky_row_raises(self, leaky_tester):
        t = leaky_tester
        us = np.stack([I2, qmath.SIGMA_Z, qmath.SIGMA_X])
        assert are_equivalent(t, t, us[:2]).all()
        with pytest.raises(LeakyMeasurementError):
            are_equivalent(t, t, qmath.SIGMA_X)
        with pytest.raises(LeakyMeasurementError):
            are_equivalent(t, t, us)


class TestEigenoperator:
    def test_sigma_z_on_ket0(self):
        assert is_eigenoperator(qmath.SIGMA_Z, tester.KET0) is True

    def test_sigma_y_on_ket0(self):
        assert is_eigenoperator(qmath.SIGMA_Y, tester.KET0) is False

    def test_separable_factorization(self, gen):
        for _ in range(20):
            u = qmath.haar_random_unitary(2, gen)
            a = qmath.haar_random_unitary(2, gen)[:, 0].copy()
            b = qmath.haar_random_unitary(2, gen)[:, 0].copy()
            lhs = is_eigenoperator(np.kron(u, I2), np.kron(a, b))
            rhs = is_eigenoperator(u, a)
            assert lhs == rhs

    @pytest.mark.parametrize("op,state", [
        (I2, np.ones(4) / 2),
        (np.stack([I2, I2]), np.ones(3) / np.sqrt(3)),
        (np.eye(3), tester.KET0),
        (np.ones(2), tester.KET0),
        (np.full((2, 2), np.nan), tester.KET0),
        (I2, np.array([1.0, 1.0])),
        (I2, np.array([np.inf, 0.0])),
    ])
    def test_bad_input_raises_the_scalar_message(self, op, state):
        got = _outcome(is_eigenoperator, op, state)
        assert got[0] is ValueError
        assert got == _outcome(oracles.scalar_is_eigenoperator, op, state)


class TestCanDistinguish:
    def test_sigma_z_not_distinguished(self):
        assert can_distinguish(named_tester("0Z"), I2, qmath.SIGMA_Z) is False

    def test_sigma_x_distinguished(self):
        assert can_distinguish(named_tester("0Z"), I2, qmath.SIGMA_X) is True

    def test_nondeterministic_raises(self):
        with pytest.raises(HypothesisViolation):
            can_distinguish(named_tester("0Z"), I2, H_ROT)

    def test_entangled_probe_rejected(self):
        with pytest.raises(ValueError, match="separable"):
            can_distinguish(named_tester("bell:0"), I2, qmath.SIGMA_X)

    def test_agrees_with_eigenoperator_criterion(self, gen):
        for _ in range(60):
            d = int(gen.integers(2, 4))
            basis = qmath.haar_random_unitary(d, gen)
            projs = tuple(basis[:, i].copy() for i in range(d))
            psi = projs[int(gen.integers(d))]
            t = Tester(input=psi, projectors=projs, dim=d)
            u1 = oracles.sequential_unitary_mapping(psi, projs[int(gen.integers(d))], gen)
            u2 = oracles.sequential_unitary_mapping(psi, projs[int(gen.integers(d))], gen)
            eig = is_eigenoperator(u2.conj().T @ u1, psi)
            assert can_distinguish(t, u1, u2) != eig


class TestNamedTesters:
    def test_all_names_build(self):
        for name in tester.TESTER_NAMES:
            t = named_tester(name)
            assert t.label == name and t.dim == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_tester("2Y")
        with pytest.raises(ValueError):
            named_tester("bell:7")

    @pytest.mark.parametrize("index", ["0_3", " 1", "+2", "01", "\u0661", "", "4", "-0"])
    def test_bell_index_is_one_of_the_four_digits(self, index):
        with pytest.raises(ValueError, match=f"^bell tester index must be 0..3, not {re.escape(repr(index))}$"):
            named_tester(f"bell:{index}")

    def test_bell_rot_is_a_named_set(self):
        """The one registry: config files and the D = 4 fixture name it."""
        got = named_tester_set("bell-rot")
        want = tester.bell_tester_set(measurement_rotation=qmath.balanced_qubit_rotation())
        assert is_complete_set(got) and [t.label for t in got] == [t.label for t in want]
        assert got.input.tobytes() == want.input.tobytes()
        assert got.projector_matrix().tobytes() == want.projector_matrix().tobytes()
        with pytest.raises(ValueError, match="unknown tester set name"):
            named_tester_set("bell-rotated")

    @pytest.mark.parametrize("name", tester.TESTER_NAMES + ("bell:0", "bell:1", "bell:2",
                                                            "bell:3"))
    def test_a_named_tester_is_built_once(self, name):
        assert named_tester(name) is named_tester(name)

    @pytest.mark.parametrize("name", ["z", "x", "xcomp", "bell", "bell-rot"])
    def test_a_named_set_is_built_once(self, name):
        s = named_tester_set(name)
        assert named_tester_set(name) is s
        # the set's own members: "z", "x" and "xcomp" hold the named testers
        if name in ("z", "x", "xcomp"):
            assert all(t is named_tester(t.label) for t in s)

    @pytest.mark.parametrize("lookup, name", [(named_tester, "2Y"), (named_tester, "bell:7"),
                                              (named_tester_set, "bell-rotated")])
    def test_an_unknown_name_raises_on_every_call(self, lookup, name):
        stored = lookup.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError):
                lookup(name)
        assert lookup.cache_info().currsize == stored

    @pytest.mark.parametrize("t", [named_tester("+X"), named_tester("bell:1"),
                                   named_tester_set("bell-rot").testers[2]],
                             ids=["+X", "bell:1", "bell-rot-member-2"])
    def test_a_named_tester_cannot_be_written(self, t):
        with pytest.raises(ValueError, match="read-only"):
            t.input[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            t.projectors[-1][0] = 0
        with pytest.raises(ValueError, match="read-only"):
            t.projector_matrix()[0, 0] = 0

    def test_a_built_tester_keeps_no_reference_to_its_arguments(self):
        probe, projs = tester.XPLUS.copy(), [tester.KET0.copy(), tester.KET1.copy()]
        t = Tester(input=probe, projectors=tuple(projs), dim=2)
        probe[:] = projs[0][:] = 0
        assert t.input.tolist() == tester.XPLUS.tolist()
        assert t.projectors[0].tolist() == tester.KET0.tolist()

    def test_json_roundtrip(self):
        t = named_tester("bell:2")
        t2 = tester.tester_from_json(t.to_json())
        assert t2.label == t.label
        np.testing.assert_allclose(t2.input, t.input)
        for a, b in zip(t2.projectors, t.projectors):
            np.testing.assert_allclose(a, b)

    def test_tester_validation(self):
        with pytest.raises(ValueError):
            Tester(input=np.array([1, 0, 0], dtype=complex),
                   projectors=(tester.KET0, tester.KET1), dim=2)
        with pytest.raises(ValueError):
            Tester(input=tester.KET0, projectors=(tester.KET0, tester.XPLUS), dim=2)

    def test_integral_float_dim_becomes_int(self):
        t = Tester(input=tester.KET0, projectors=(tester.KET0, tester.KET1), dim=2.0)
        assert type(t.dim) is int and t.dim == 2
        assert outcome_distribution(t, I2).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("dim", [True, 2.5, "2", None])
    def test_dim_that_is_not_an_integer(self, dim):
        with pytest.raises(ValueError, match=f"^dim must be an integer, not {re.escape(repr(dim))}$"):
            Tester(input=tester.KET0, projectors=(tester.KET0, tester.KET1), dim=dim)

    @pytest.mark.parametrize("bad,message", [
        (np.array([np.nan, 0]), "state has non-finite entries"),
        (np.array([1, 1]), r"state norm\^2 = 2\.0 is not 1 within 1e-09"),
        (np.array([1e200, 0]), r"state norm\^2 = inf is not 1 within 1e-09"),
    ])
    @pytest.mark.parametrize("slot", ["probe", "first-projector", "last-projector"])
    def test_member_checks_keep_their_messages(self, bad, message, slot):
        probe, projs = tester.KET0, [tester.KET0, tester.KET1]
        if slot == "probe":
            probe = bad
        else:
            projs[0 if slot == "first-projector" else 1] = bad
        with pytest.raises(ValueError, match=f"^{message}$"):
            Tester(input=probe, projectors=tuple(projs), dim=2)


def _outcome(fn, *args):
    """("ok", the result) or (exception type, message) of fn(*args)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _with_entry(v, x):
    v = v.copy()
    v[0] = x
    return v


# what is done to one slot of a valid tester: its norm^2 just inside or just
# outside 1 +- DEFAULT_TOL, or a NaN, infinite or huge first entry
_SLOT_CHANGES = {
    **{f"norm2{e:+.1e}": (lambda v, e=e: v * np.sqrt(1 + e)) for e in (0.5e-9, -0.5e-9, 2e-9, -2e-9)},
    **{name: (lambda v, x=x: _with_entry(v, x)) for name, x in
       (("nan", np.nan), ("inf", np.inf), ("1e200", 1e200))},
}


def _construction_cases():
    """(probe, projectors, dim) inputs: valid random testers; one slot of
    some of them changed by each of _SLOT_CHANGES, or a NaN in it while the
    probe's norm is bad; and non-orthonormal projectors."""
    gen = np.random.default_rng(26)
    cases = {}
    for d in (2, 3):
        for kind in ("plain", "bipartite"):
            for k in range(3):
                t = random_tester(d, gen, bipartite=kind == "bipartite")
                cases[f"d{d}-{kind}-{k}"] = (t.input, t.projectors, d)
    for name, (probe, projs, d) in list(cases.items())[::3]:
        for slot in range(1 + len(projs)):
            for change, f in _SLOT_CHANGES.items():
                states = [probe] + list(projs)
                states[slot] = f(states[slot])
                cases[f"{name}-slot{slot}-{change}"] = (states[0], tuple(states[1:]), d)
            states = [2 * probe] + list(projs)
            states[slot] = _with_entry(states[slot], np.nan)
            cases[f"{name}-slot{slot}-nan-and-probe-norm"] = (states[0], tuple(states[1:]), d)
    for d in (2, 3):
        basis = qmath.haar_random_unitary(d, gen)
        skew = basis[:, 0] + 1e-3 * basis[:, 1]
        cases[f"d{d}-skew"] = (basis[:, 0], (skew / np.linalg.norm(skew),) + tuple(basis.T[1:]), d)
    cases["0-in-Z-and-X"] = (tester.KET0, (tester.KET0, tester.XPLUS), 2)
    return [pytest.param(*args, id=name) for name, args in cases.items()]


@pytest.mark.parametrize("probe,projs,d", _construction_cases())
def test_construction_matches_loop_oracle(probe, projs, d):
    """Same verdict, exception type and message as the parent's checks, and
    on success the same arrays bit for bit."""
    got = _outcome(lambda: Tester(input=probe, projectors=projs, dim=d))
    want = _outcome(oracles.loop_tester_checks, probe, projs, d)
    assert got[0] == want[0] and (got[0] == "ok" or got[1] == want[1])
    if got[0] == "ok":
        t, (psi, stack, m) = got[1], want[1]
        assert t.input.tobytes() == psi.tobytes()
        assert np.stack(t.projectors).tobytes() == stack.tobytes()
        assert t.projector_matrix().tobytes() == m.tobytes()


def test_projectors_of_another_size_than_the_probe():
    with pytest.raises(ValueError, match="^projector dimension differs from the probe dimension$"):
        Tester(input=tester.KET0, projectors=tester.bell_states(), dim=2)


# A scaled identity and a NaN matrix: neither is unitary, and before the row
# sums were tested unclamped both passed as distributions ([1, 0] and NaNs).
NOT_UNITARY = {"2I": 2 * I2, "1.01I": 1.01 * I2, "nan": np.full((2, 2), np.nan, dtype=complex)}


class TestRandomTester:
    @pytest.mark.parametrize("d,bipartite", [(2, False), (2, True), (3, False), (3, True)])
    def test_draws_equal_two_sequential_draws(self, d, bipartite):
        n = d * d if bipartite else d
        g1, g2 = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(20):
            t = tester.random_tester(d, g1, bipartite=bipartite)
            basis = qmath.haar_random_unitary(n, g2)
            probe = qmath.haar_random_unitary(n, g2)[:, 0].copy()
            assert np.array_equal(t.input, probe)
            assert np.array_equal(np.stack(t.projectors), basis.T)
        assert np.array_equal(g1.standard_normal(3), g2.standard_normal(3))


class TestNonUnitaryInput:
    @pytest.mark.parametrize("name", sorted(NOT_UNITARY))
    def test_outcome_distribution_rejects(self, name):
        with pytest.raises(ValueError, match="not 1"):
            outcome_distribution(named_tester("0Z"), NOT_UNITARY[name])

    @pytest.mark.parametrize("name", sorted(NOT_UNITARY))
    def test_entropy_sum_rejects(self, name):
        from qtesters.bounds import entropy_sum

        t1, t2 = named_tester("0Z"), named_tester("1Z")
        with pytest.raises(ValueError, match="not 1"):
            entropy_sum(t1, t2, NOT_UNITARY[name])
        with pytest.raises(ValueError, match="not 1"):
            entropy_sum(t1, t2, np.stack([I2, NOT_UNITARY[name], H_ROT]))

    @pytest.mark.parametrize("name", sorted(NOT_UNITARY))
    def test_are_equivalent_rejects(self, name):
        t1, t2 = named_tester("0Z"), named_tester("1Z")
        with pytest.raises(ValueError, match="not 1"):
            are_equivalent(t1, t2, NOT_UNITARY[name])
        with pytest.raises(ValueError, match="not 1"):
            are_equivalent(t1, t2, np.stack([I2, H_ROT, NOT_UNITARY[name]]))

