import tracemalloc

import numpy as np
import pytest

import oracles
from qtesters import muub, qmath
from qtesters.bounds import SearchConfig, entropy_sum
from qtesters.muub import (
    UnitaryBasis,
    are_muub,
    balanced_qubit_rotation,
    build_named_basis,
    embedded_cross_overlaps,
    find_unbiased_partner,
    hs_overlap,
    is_orthogonal_unitary_basis,
    rotation_span_samples,
    verify_prop_maximal,
    verify_prop_trivial,
)
from qtesters.qmath import RngHandle
from qtesters.tester import (
    ENTROPY_ZERO_TOL,
    Tester,
    TesterSet,
    are_equivalent,
    bell_tester_set,
    named_tester,
    named_tester_set,
)

I2 = np.eye(2, dtype=complex)
H_ROT = (I2 - 1j * qmath.SIGMA_Y) / np.sqrt(2)


class TestHsOverlap:
    def test_identity_with_itself(self):
        assert hs_overlap(I2, I2) == pytest.approx(4.0, abs=1e-12)

    def test_orthogonal_paulis(self):
        assert hs_overlap(qmath.SIGMA_X, qmath.SIGMA_Y) == pytest.approx(0.0, abs=1e-12)

    def test_identity_with_rotation(self):
        # Tr((I - i sy)/sqrt2) = sqrt(2), squared modulus 2
        assert hs_overlap(I2, H_ROT) == pytest.approx(2.0, abs=1e-12)

    def test_range_and_phase_equality(self, gen):
        d = 3
        for _ in range(20):
            u = qmath.haar_random_unitary(d, gen)
            v = qmath.haar_random_unitary(d, gen)
            ov = hs_overlap(u, v)
            assert -1e-12 <= ov <= d * d + 1e-9
        u = qmath.haar_random_unitary(d, gen)
        assert hs_overlap(u, np.exp(0.4j) * u) == pytest.approx(d * d, abs=1e-9)


class TestOrthogonalUnitaryBasis:
    def test_pauli_basis(self):
        assert is_orthogonal_unitary_basis(list(qmath.PAULIS))

    def test_rotation_pair(self):
        assert is_orthogonal_unitary_basis([I2, 1j * qmath.SIGMA_Y])

    def test_overlapping_pair_rejected(self):
        assert not is_orthogonal_unitary_basis([I2, H_ROT])

    def test_wrong_count_rejected(self):
        assert not is_orthogonal_unitary_basis([I2, qmath.SIGMA_X, qmath.SIGMA_Y])

    def test_basis_type_validates(self):
        with pytest.raises(ValueError):
            UnitaryBasis(dim=2, elements=(I2, H_ROT))

    def test_elements_are_one_read_only_copy(self):
        given = np.stack([I2, 1j * qmath.SIGMA_Y])
        b = UnitaryBasis(dim=2, elements=given)
        assert b.elements.shape == (2, 2, 2) and b.elements.dtype == complex
        with pytest.raises(ValueError, match="read-only"):
            b.elements[0, 0, 0] = 0
        given[0] = 0
        np.testing.assert_array_equal(b.elements[0], I2)


class TestAreMuub:
    def test_rotation_vs_hadamard_pair(self):
        report = are_muub(build_named_basis("rotation", 2), build_named_basis("hadamard-pair", 2))
        assert report.verdict
        assert report.kappa == pytest.approx(2.0, abs=1e-6)
        np.testing.assert_allclose(report.overlaps, 2.0, atol=1e-6)

    def test_pauli_vs_unbiased_partner(self):
        report = are_muub(build_named_basis("pauli", 2), build_named_basis("pauli-unbiased", 2))
        assert report.verdict
        assert report.kappa == pytest.approx(1.0, abs=1e-6)
        assert report.overlaps.shape == (4, 4)
        np.testing.assert_allclose(report.overlaps, 1.0, atol=1e-6)

    def test_basis_vs_itself_fails(self):
        report = are_muub(build_named_basis("pauli", 2), build_named_basis("pauli", 2))
        assert not report.verdict
        assert report.kappa is None

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            are_muub(build_named_basis("pauli", 2), build_named_basis("rotation", 2))

    def test_json(self):
        report = are_muub(build_named_basis("rotation", 2), build_named_basis("hadamard-pair", 2))
        obj = report.to_json()
        assert obj["verdict"] is True and obj["expected_kappa"] == 2.0


class TestNamedBases:
    def test_rotation_members(self):
        b = build_named_basis("rotation", 2)
        np.testing.assert_allclose(b.elements[0], I2)
        np.testing.assert_allclose(b.elements[1], 1j * qmath.SIGMA_Y)

    def test_pauli_members(self):
        b = build_named_basis("pauli", 2)
        for got, want in zip(b.elements, qmath.PAULIS):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_weyl_relations(self, d):
        # Tr((X^a Z^b)^dag X^c Z^e) = d * delta_ac delta_be
        b = build_named_basis("weyl", d)
        assert b.D == d * d
        els = list(b)
        for i, (a1, b1) in enumerate((a, bb) for a in range(d) for bb in range(d)):
            for j, (a2, b2) in enumerate((a, bb) for a in range(d) for bb in range(d)):
                tr = np.trace(els[i].conj().T @ els[j])
                want = d if (a1, b1) == (a2, b2) else 0.0
                assert abs(tr - want) <= 1e-9

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_named_basis("clifford", 2)

    def test_unsupported_dim(self):
        with pytest.raises(ValueError):
            build_named_basis("pauli", 3)

    def test_weyl_dimension_cap(self, monkeypatch):
        # the basis and its overlap check hold 16 d^4 bytes each (16 MiB at
        # d = 32), not one (D, D, d, d) product of 16 d^6 bytes
        tracemalloc.start()
        try:
            assert build_named_basis("weyl", muub.WEYL_MAX_D).D == muub.WEYL_MAX_D ** 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 16 * muub.WEYL_MAX_D ** 4
        monkeypatch.setattr(muub, "_weyl_basis", lambda d: pytest.fail(f"built d={d}"))
        d = muub.WEYL_MAX_D + 1
        with pytest.raises(ValueError, match=rf"^weyl basis needs d <= {d - 1}, got d={d}$"):
            build_named_basis("weyl", d)

    def test_json_roundtrip(self):
        b = build_named_basis("weyl", 3)
        b2 = muub.basis_from_json(b.to_json())
        assert b2.D == 9
        for x, y in zip(b2, b):
            np.testing.assert_allclose(x, y, atol=1e-15)


class TestCompletenessSum:
    @pytest.mark.parametrize("name,d", [("pauli", 2), ("weyl", 3)])
    def test_normalized_vectorizations_resolve_identity(self, name, d, gen):
        # sum_j |<<u~|B~_j>>|^2 = 1 for any unitary u and any full basis B
        basis = build_named_basis(name, d)
        u = qmath.haar_random_unitary(d, gen)
        total = sum(hs_overlap(u, bj) for bj in basis) / (d * d)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestPropTrivial:
    def test_fixture_passes(self):
        rep = verify_prop_trivial(
            named_tester_set("z"), named_tester_set("x"),
            list(build_named_basis("rotation", 2)), rotation_span_samples(16),
        )
        assert rep.hypothesis_pass and rep.s1_pass and rep.s2_pass
        assert rep.verdict and not rep.failures

    def test_eigenoperator_violation_detected(self):
        rep = verify_prop_trivial(
            named_tester_set("z"), named_tester_set("x"),
            [I2, qmath.SIGMA_Z], rotation_span_samples(4),
        )
        assert not rep.hypothesis_pass

    def test_covariant_under_common_rotation(self, gen):
        s1, s2 = named_tester_set("z"), named_tester_set("x")
        us = list(build_named_basis("rotation", 2))
        samples = rotation_span_samples(8)
        base = verify_prop_trivial(s1, s2, us, samples)
        for _ in range(5):
            w = qmath.haar_random_unitary(2, gen)
            rot_sets = [_conjugate(s, w) for s in (s1, s2)]
            rep = verify_prop_trivial(
                rot_sets[0], rot_sets[1],
                [w @ u @ w.conj().T for u in us],
                [w @ u @ w.conj().T for u in samples],
            )
            assert (rep.hypothesis_pass, rep.s1_pass, rep.s2_pass) == (
                base.hypothesis_pass, base.s1_pass, base.s2_pass)

    def test_orthogonality_follows_from_hypothesis(self, gen):
        # randomized instances: whenever the hypothesis holds, the family is
        # orthogonal
        for _ in range(10):
            w = qmath.haar_random_unitary(2, gen)
            s1 = _conjugate(named_tester_set("z"), w)
            s2 = _conjugate(named_tester_set("x"), w)
            us = [w @ u @ w.conj().T for u in build_named_basis("rotation", 2)]
            rep = verify_prop_trivial(s1, s2, us, [])
            assert rep.hypothesis_pass
            assert rep.s1_pass

    def test_failures_listed_in_sample_then_pair_order(self, gen):
        # the stacked checks report what per-sample scalar loops would, in
        # the same order
        s1, s2 = named_tester_set("z"), named_tester_set("x")
        us = list(qmath.haar_random_unitary(2, gen, shape=(3,)))
        samples = list(qmath.haar_random_unitary(2, gen, shape=(4,)))
        rep = verify_prop_trivial(s1, s2, us, samples)
        want_h = [f"entropy sum {h:.3e} bits nonzero for ({a.label},{b.label})"
                  for u in us for a in s1 for b in s2
                  for h in [entropy_sum(a, b, u)] if h > ENTROPY_ZERO_TOL]
        testers = list(s1) + list(s2)
        want_s2 = [f"testers {a.label},{b.label} not equivalent on a span sample"
                   for w in samples for i, a in enumerate(testers) for b in testers[i + 1:]
                   if not are_equivalent(a, b, w, tol=1e-8)]
        assert want_h and want_s2
        assert [f for f in rep.failures if f.startswith("entropy sum")] == want_h
        assert [f for f in rep.failures if f.startswith("testers ")] == want_s2


def _conjugate(s, w):
    return TesterSet(
        testers=tuple(
            Tester(input=w @ t.input, projectors=tuple(w @ p for p in t.projectors),
                   dim=t.dim, label=t.label)
            for t in s
        ),
        dim=s.dim,
    )


def _basis_set(basis, label):
    """The complete tester set whose probes and shared measurement are the
    columns of ``basis``."""
    cols = tuple(basis.T)
    return TesterSet(tuple(Tester(input=c, projectors=cols, dim=len(c), label=f"{label}{k}")
                           for k, c in enumerate(cols)), len(basis))


def _trivial_cases():
    gen = np.random.default_rng(2026)
    z, x, bell = named_tester_set("z"), named_tester_set("x"), named_tester_set("bell")
    rot = list(build_named_basis("rotation", 2))
    haar = qmath.haar_random_unitary
    w = haar(2, gen)
    cases = {
        "fixture": (z, x, rot, rotation_span_samples(16)),
        "eigenoperator": (z, x, [I2, qmath.SIGMA_Z], rotation_span_samples(4)),
        "haar": (z, x, haar(2, gen, shape=(3,)), haar(2, gen, shape=(4,))),
        "conjugated": (_conjugate(z, w), _conjugate(x, w), [w @ u @ w.conj().T for u in rot],
                       [w @ u @ w.conj().T for u in rotation_span_samples(8)]),
        "haar-sets-d3": (_basis_set(haar(3, gen), "a"), _basis_set(haar(3, gen), "b"),
                         haar(3, gen, shape=(3,)), haar(3, gen, shape=(5,))),
        "empty-us": (z, x, [], rotation_span_samples(4)),
        "empty-samples": (z, x, rot, []),
        "both-empty": (z, named_tester_set("xcomp"), [], []),
        "incomplete": (TesterSet((named_tester("0Z"),), 2), x, rot, rotation_span_samples(4)),
        # at I both sets are deterministic, so padded rows of the narrower set
        # would match the other set's
        "shapes-one-element": (z, bell, [I2], [I2] + list(haar(2, gen, shape=(3,)))),
        "shapes-two-elements": (z, bell, rot, rotation_span_samples(4)),
        "shapes-bell": (bell, named_tester_set("bell-rot"), [qmath.SIGMA_X], haar(2, gen, shape=(2,))),
        "dimensions": (z, _basis_set(haar(3, gen), "c"), [], []),
        "not-unitary": (z, x, [I2, 2 * I2], []),
    }
    return [pytest.param(*args, id=name) for name, args in cases.items()]


@pytest.mark.parametrize("s1,s2,us,samples", _trivial_cases())
def test_prop_trivial_matches_loop_oracle(s1, s2, us, samples):
    """The whole report, or the exception type and message, is the loop's."""
    def outcome(fn):
        try:
            r = fn(s1, s2, us, samples)
        except ValueError as exc:
            return type(exc), str(exc)
        return r.hypothesis_pass, r.s1_pass, r.s2_pass, r.failures

    assert outcome(verify_prop_trivial) == outcome(oracles.loop_verify_prop_trivial)


class TestPropMaximal:
    def test_qubit_fixture(self):
        rep = verify_prop_maximal(
            named_tester_set("z"), named_tester_set("xcomp"),
            build_named_basis("rotation", 2), build_named_basis("hadamard-pair", 2),
        )
        assert rep.hypothesis_pass and rep.range_pass
        assert rep.muub.verdict and rep.muub.kappa == pytest.approx(2.0, abs=1e-6)

    def test_same_family_violates_hypothesis(self):
        rot = build_named_basis("rotation", 2)
        rep = verify_prop_maximal(named_tester_set("z"), named_tester_set("xcomp"), rot, rot)
        assert not rep.hypothesis_pass

    def test_bell_fixture(self):
        rep = verify_prop_maximal(
            named_tester_set("bell"),
            bell_tester_set(measurement_rotation=balanced_qubit_rotation()),
            build_named_basis("pauli", 2), build_named_basis("pauli-unbiased", 2),
        )
        assert rep.hypothesis_pass and rep.range_pass
        assert rep.muub.verdict and rep.muub.kappa == pytest.approx(1.0, abs=1e-6)

    def test_embedded_range_on_random_rotations(self, gen):
        pairs = [
            (build_named_basis("rotation", 2), build_named_basis("hadamard-pair", 2)),
            (build_named_basis("pauli", 2), build_named_basis("pauli-unbiased", 2)),
        ]
        for a, b in pairs:
            for _ in range(25):
                w = qmath.haar_random_unitary(2, gen)
                ra = UnitaryBasis(2, tuple(w @ u @ w.conj().T for u in a))
                rb = UnitaryBasis(2, tuple(w @ u @ w.conj().T for u in b))
                cross = embedded_cross_overlaps(ra, rb)
                assert cross.min() >= -1e-9
                assert cross.max() <= ra.D + 1e-9


class TestPartnerSearch:
    def test_pauli_partner_found(self):
        partner, residual = find_unbiased_partner(
            build_named_basis("pauli", 2),
            SearchConfig(starts=12, max_iterations=4000, rng=RngHandle(seed=3)),
        )
        assert residual <= 1e-12
        assert are_muub(build_named_basis("pauli", 2), partner).verdict

    def test_weyl_partner_found_at_d3(self):
        weyl = build_named_basis("weyl", 3)
        partner, residual = find_unbiased_partner(
            weyl, SearchConfig(starts=8, max_iterations=6000, rng=RngHandle(seed=11)))
        assert residual <= 1e-12
        rep = are_muub(weyl, partner)
        assert rep.verdict and rep.kappa == pytest.approx(1.0, abs=1e-6)

    def test_weyl_partner_found_at_d4(self):
        weyl = build_named_basis("weyl", 4)
        partner, residual = find_unbiased_partner(
            weyl, SearchConfig(starts=2, rng=RngHandle(7665, 99)))
        assert residual < 1e-12
        assert are_muub(weyl, partner).verdict

    @pytest.mark.parametrize("d, iterations", [(3, 45), (4, 109)])
    def test_search_ends_once_a_start_finds_a_partner(self, monkeypatch, d, iterations):
        """The losing start stops with the winner instead of running on to
        the iteration cap: 2 starts evaluate at most 2 (nit + 1) rows."""
        rows = []
        objective = muub._partner_objective

        def counted(basis):
            g = objective(basis)

            def h(v):
                rows.append(len(v))
                return g(v)
            return h

        monkeypatch.setattr(muub, "_partner_objective", counted)
        _, residual = find_unbiased_partner(build_named_basis("weyl", d),
                                            SearchConfig(starts=2, rng=RngHandle(7665, 99)))
        assert residual < 1e-24
        assert sum(rows) <= 2 * (iterations + 1)

    def test_rotation_basis_rejected(self):
        with pytest.raises(ValueError):
            find_unbiased_partner(build_named_basis("rotation", 2),
                                  SearchConfig(starts=1, rng=RngHandle(seed=0)))


class TestSpanSamples:
    def test_all_unitary(self):
        for u in rotation_span_samples(16):
            assert qmath.is_unitary(u, 1e-12)


class TestStackedOverlaps:
    def test_scalar_call_returns_float(self):
        assert isinstance(hs_overlap(I2, H_ROT), float)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stacks_match_pairwise_oracle(self, d, gen):
        # a Haar stack of D = d unitaries and the D = d^2 Weyl basis, both orders
        import oracles

        a = qmath.haar_random_unitary(d, gen, shape=(d,))
        b = build_named_basis("weyl", d).elements
        for x, y in ((a, b), (b, a), (b, b), (a[:1], a)):
            got = hs_overlap(x, y)
            assert got.shape == (len(x), len(y))
            np.testing.assert_allclose(got, oracles.pairwise_hs_overlaps(x, y),
                                       rtol=0, atol=1e-12)

    def test_shape_mismatch_raises(self):
        stack = np.stack([I2, H_ROT])
        for u, v in ((I2, np.eye(3)), (stack, np.eye(3)[None]), (I2, stack), (stack, I2),
                     (stack[None], stack[None]), (I2[0], I2[0])):
            with pytest.raises(ValueError, match="do not pair"):
                hs_overlap(u, v)

    def test_embedded_cross_overlaps_memory(self):
        # the (256, 256) overlaps of two d = 16 Weyl bases take 1 MiB; a
        # (D, D, d, d) temporary would take 256 MiB
        a, b = build_named_basis("weyl", 16), build_named_basis("weyl", 16)
        tracemalloc.start()
        try:
            cross = embedded_cross_overlaps(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cross.shape == (256, 256)
        assert peak <= 8 * 2 ** 20

    @pytest.mark.parametrize("pair", [("rotation", "hadamard-pair"), ("pauli", "pauli-unbiased")])
    def test_embedded_cross_overlaps_match_kron_oracle(self, pair, gen):
        import oracles

        a, b = (build_named_basis(n, 2) for n in pair)
        embed = 2 if a.D == 4 else 1
        for w in [I2] + list(qmath.haar_random_unitary(2, gen, shape=(5,))):
            ra = UnitaryBasis(2, tuple(w @ u @ w.conj().T for u in a))
            rb = UnitaryBasis(2, tuple(w @ u @ w.conj().T for u in b))
            np.testing.assert_allclose(embedded_cross_overlaps(ra, rb),
                                       oracles.pairwise_hs_overlaps(ra, rb, embed),
                                       rtol=0, atol=1e-12)

    def test_embedded_cross_overlaps_weyl3(self, gen):
        import oracles

        weyl = build_named_basis("weyl", 3)
        w = qmath.haar_random_unitary(3, gen)
        other = UnitaryBasis(3, tuple(w @ u for u in weyl))
        np.testing.assert_allclose(embedded_cross_overlaps(weyl, other),
                                   oracles.pairwise_hs_overlaps(weyl, other, 3),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cross_overlaps_match_hs_overlap(self, d, gen):
        # the stacked call agrees with the scalar call on every pair
        a = qmath.haar_random_unitary(d, gen, shape=(d * d,))
        b = build_named_basis("weyl", d).elements
        for x, y in ((a, b), (b, a), (b, b), (a[:3], a)):
            got = hs_overlap(x, y)
            assert got.shape == (len(x), len(y))
            want = [[hs_overlap(p, q) for q in y] for p in x]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_are_muub_overlaps_match_pairwise_oracle(self):
        import oracles

        a, b = build_named_basis("pauli", 2), build_named_basis("pauli-unbiased", 2)
        np.testing.assert_allclose(are_muub(a, b).overlaps, oracles.pairwise_hs_overlaps(a, b),
                                   rtol=0, atol=1e-12)


class TestOrthogonalUnitaryBasisRejects:
    """Malformed families give False, never an exception."""

    def test_mixed_shapes(self):
        assert is_orthogonal_unitary_basis([I2, np.eye(3)]) is False
        assert is_orthogonal_unitary_basis([I2, np.ones(2)]) is False

    def test_not_matrices(self):
        assert is_orthogonal_unitary_basis([1.0, 2.0]) is False
        assert is_orthogonal_unitary_basis([]) is False

    def test_non_unitary_element(self):
        # HS-orthogonal to I but not unitary
        assert is_orthogonal_unitary_basis([I2, 2 * qmath.SIGMA_Y]) is False

    def test_huge_and_non_finite_entries(self):
        # rejected before any product can overflow (no RuntimeWarning)
        assert is_orthogonal_unitary_basis([I2, 1e200 * qmath.SIGMA_Y]) is False
        assert is_orthogonal_unitary_basis([I2, np.full((2, 2), np.nan)]) is False


class TestPropChecksOnStacks:
    def test_trivial_reports_non_orthogonal_pairs_in_order(self):
        rep = verify_prop_trivial(named_tester_set("z"), named_tester_set("x"),
                                  [I2, H_ROT, 1j * qmath.SIGMA_Y], [])
        assert not rep.s1_pass
        assert [f for f in rep.failures if f.startswith("family")] == [
            "family elements 0,1 are not HS-orthogonal",
            "family elements 1,2 are not HS-orthogonal",
        ]

    def test_maximal_failures_match_scalar_entropies(self):
        from qtesters.tester import outcome_distribution, shannon_entropy

        s1, s2 = named_tester_set("z"), named_tester_set("xcomp")
        rot = build_named_basis("rotation", 2)
        rep = verify_prop_maximal(s1, s2, rot, rot)
        want = []
        for ts, expect, who in ((s1, "deterministic", "set1/family1"),
                                (s1, "uniform", "set1/family2"),
                                (s2, "deterministic", "set2/family2"),
                                (s2, "uniform", "set2/family1")):
            target = 0.0 if expect == "deterministic" else 1.0
            for t in ts:
                for j, u in enumerate(rot):
                    h = shannon_entropy(outcome_distribution(t, u))
                    if abs(h - target) > 1e-6:
                        want.append(f"{who} element {j}: tester {t.label} entropy {h:.6f} bits, "
                                    f"expected {expect}")
        assert want and [f for f in rep.failures if " entropy " in f] == want
        assert len(set(want)) == len(want)

    def test_maximal_family_shape_mismatch_raises(self):
        s1, s2 = named_tester_set("z"), named_tester_set("xcomp")
        rot = build_named_basis("rotation", 2)
        with pytest.raises(ValueError, match=r"^bases act on different dimensions$"):
            verify_prop_maximal(s1, s2, rot, build_named_basis("weyl", 3))
        with pytest.raises(ValueError, match=r"^bases span subspaces of different sizes$"):
            verify_prop_maximal(s1, s2, rot, build_named_basis("pauli", 2))
