import re

import numpy as np
import pytest

import oracles
from qtesters import ppovm, qmath, tester
from qtesters.ppovm import (
    ChoiOperator,
    TesterElementSet,
    choi_operator,
    probability_via_choi,
    tester_elements,
)
from qtesters.tester import (
    named_tester,
    outcome_distribution,
    outcome_probabilities,
    random_tester,
)

I2 = np.eye(2, dtype=complex)


class TestChoiOperator:
    def test_identity_channel(self):
        e = choi_operator(I2)
        psi = qmath.max_entangled_state(2)
        np.testing.assert_allclose(e.matrix, np.outer(psi, psi.conj()), atol=1e-14)
        assert np.trace(e.matrix).real == pytest.approx(2.0, abs=1e-12)

    def test_sigma_x_channel(self):
        w = np.array([0, 1, 1, 0], dtype=complex)
        np.testing.assert_allclose(choi_operator(qmath.SIGMA_X).matrix,
                                   np.outer(w, w.conj()), atol=1e-14)

    def test_rank_one_scaling(self, gen):
        for d in (2, 3):
            e = choi_operator(qmath.haar_random_unitary(d, gen)).matrix
            np.testing.assert_allclose(e @ e, d * e, atol=1e-10)
            assert np.trace(e).real == pytest.approx(d, abs=1e-10)

    def test_injective_modulo_phase(self, gen):
        u = qmath.haar_random_unitary(2, gen)
        v = np.exp(0.731j) * u
        np.testing.assert_allclose(choi_operator(u).matrix, choi_operator(v).matrix, atol=1e-12)
        assert abs(np.trace(u.conj().T @ v)) ** 2 == pytest.approx(4.0, abs=1e-9)
        w = qmath.haar_random_unitary(2, gen)
        gap = np.max(np.abs(choi_operator(u).matrix - choi_operator(w).matrix))
        assert gap > 1e-3 and abs(np.trace(u.conj().T @ w)) ** 2 < 4.0 - 1e-3

    def test_psd_validation(self):
        with pytest.raises(ValueError):
            ChoiOperator(dim=2, matrix=-np.eye(4, dtype=complex))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            choi_operator(np.array([[1, 1], [0, 1]], dtype=complex))


class TestTesterElements:
    def test_witness_closed_form(self):
        # probe |0>, computational measurement: T_k = |k><k| (x) |0><0|
        els = tester_elements(named_tester("0Z"))
        rho0 = np.outer(tester.KET0, tester.KET0.conj())
        for k in range(2):
            p_k = np.outer(tester.Z_BASIS[k], tester.Z_BASIS[k].conj())
            np.testing.assert_allclose(els.elements[k], qmath.tensor(p_k, rho0), atol=1e-14)

    def test_all_elements_psd(self, gen):
        for d in (2, 3):
            for k in range(6):
                t = random_tester(d, gen, bipartite=k % 2 == 1)
                els = tester_elements(t)
                for e in els.elements:
                    assert np.linalg.eigvalsh(e).min() >= -1e-9

    def test_normalization_sum(self, gen):
        for d in (2, 3):
            for k in range(6):
                t = random_tester(d, gen, bipartite=k % 2 == 1)
                els = tester_elements(t)
                assert els.complete
                danc = d if t.is_bipartite else 1
                marginal = qmath.partial_trace_ancilla(els.probe, d) if danc > 1 else els.probe
                want = qmath.tensor(np.eye(d, dtype=complex), marginal.T)
                np.testing.assert_allclose(els.normalization(), want, atol=1e-9)

    def test_projector_phase_invariance(self, gen):
        t = random_tester(2, gen)
        phases = np.exp(1j * gen.uniform(0, 2 * np.pi, t.n_outcomes))
        t2 = tester.Tester(
            input=t.input,
            projectors=tuple(ph * p for ph, p in zip(phases, t.projectors)),
            dim=t.dim,
        )
        a = tester_elements(t)
        b = tester_elements(t2)
        for x, y in zip(a.elements, b.elements):
            np.testing.assert_allclose(x, y, atol=1e-12)


class TestProbabilityViaChoi:
    def test_deterministic_case(self):
        p = probability_via_choi(tester_elements(named_tester("0Z")),
                                 choi_operator(I2))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)

    def test_normalization(self, gen):
        t = random_tester(3, gen, bipartite=True)
        u = qmath.haar_random_unitary(3, gen)
        p = probability_via_choi(tester_elements(t), choi_operator(u))
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_direct_rule(self, gen):
        for d in (2, 3):
            for k in range(30):
                t = random_tester(d, gen, bipartite=k % 2 == 1)
                u = qmath.haar_random_unitary(d, gen)
                direct = outcome_distribution(t, u)
                via = probability_via_choi(tester_elements(t), choi_operator(u))
                assert np.max(np.abs(direct - via)) <= 1e-9

    def test_dimension_mismatch(self, gen):
        t = random_tester(2, gen)
        with pytest.raises(ValueError):
            probability_via_choi(tester_elements(t),
                                 choi_operator(qmath.haar_random_unitary(3, gen)))


KINDS = ("ancilla-free", "bipartite", "leaky-bipartite")


def _tester_of_kind(kind, d, gen):
    """A random tester; "leaky-bipartite" keeps d of the d^2 projectors."""
    if kind != "leaky-bipartite":
        return random_tester(d, gen, bipartite=kind == "bipartite")
    basis = qmath.haar_random_unitary(d * d, gen)
    return tester.Tester(input=qmath.haar_random_state(d * d, gen),
                         projectors=tuple(basis[:, i].copy() for i in range(d)), dim=d)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", (2, 3))
class TestStackedElements:
    """The stacked rank-one elements against the np.kron construction."""

    def test_match_kron_reference(self, gen, d, kind):
        for _ in range(5):
            t = _tester_of_kind(kind, d, gen)
            els = tester_elements(t).elements
            assert isinstance(els, np.ndarray) and els.shape == (t.n_outcomes, d * d, d * d)
            ref = oracles.kron_tester_elements(t.input, t.projectors, d)
            np.testing.assert_allclose(els, ref, rtol=0, atol=1e-12)

    def test_each_element_rank_one(self, gen, d, kind):
        t = _tester_of_kind(kind, d, gen)
        for t_k in tester_elements(t).elements:
            np.testing.assert_allclose(t_k @ t_k, np.trace(t_k) * t_k, rtol=0, atol=1e-12)

    def test_probability_matches_direct_rule(self, gen, d, kind):
        for _ in range(5):
            t = _tester_of_kind(kind, d, gen)
            u = qmath.haar_random_unitary(d, gen)
            via = probability_via_choi(tester_elements(t), choi_operator(u))
            if kind == "leaky-bipartite":
                direct = outcome_probabilities(t, u)
            else:
                direct = outcome_distribution(t, u)
            np.testing.assert_allclose(via, direct, rtol=0, atol=1e-12)


class TestProbabilityViaChoiErrors:
    def test_shape_mismatch_message(self, gen):
        t = random_tester(2, gen)
        want = r"^element shape \(4, 4\) does not match the process operator \(9, 9\)$"
        with pytest.raises(ValueError, match=want):
            probability_via_choi(tester_elements(t),
                                 choi_operator(qmath.haar_random_unitary(3, gen)))

    def test_imaginary_part_message(self):
        # an imaginary diagonal part of 5e-10 passes the 1e-9 Hermiticity
        # check, and the PSD operator E = 1e9 I scales it to Tr[T E] = 1e9 + 0.5j
        t_k = np.zeros((4, 4), dtype=complex)
        t_k[0, 0] = 1.0 + 5e-10j
        ts = TesterElementSet(elements=(t_k,), probe=np.eye(2), complete=False)
        e = ChoiOperator(dim=2, matrix=1e9 * np.eye(4))
        with pytest.raises(ValueError, match=r"^Tr\[T_k E\] has imaginary part 5\.000e-01$"):
            probability_via_choi(ts, e)

    def test_non_finite_message(self):
        # 2 * 1e308 overflows, and the overflows of opposite sign add to NaN
        a, b = np.array([1, 1, 0, 0]), np.array([1, -1, 0, 0])
        ts = TesterElementSet(elements=(2 * np.outer(a, a),), probe=np.eye(2), complete=False)
        with np.errstate(over="ignore", invalid="ignore"):
            e = ChoiOperator(dim=2, matrix=1e308 * np.outer(b, b))
            with pytest.raises(ValueError, match=r"^probabilities are not finite: \[nan\]$"):
                probability_via_choi(ts, e)

    @pytest.mark.parametrize("second,total", [
        (0.5, "1.25"),                          # above 1 + 1e-9
        (0.25 - 1e-7, "0.9999998999999999"),    # below 1 - 1e-9, not below 1 - 1e-6
    ])
    def test_sum_message(self, second, total):
        # against E(I), Tr[T_k E] is T_k[0, 0] + T_k[0, 3] + T_k[3, 0] + T_k[3, 3]
        ts = TesterElementSet(elements=(np.diag([0.75, 0, 0, 0]), np.diag([0, 0, 0, second])),
                              probe=np.eye(2), complete=False)
        with pytest.raises(ValueError, match=rf"^probabilities sum to {re.escape(total)}, not 1$"):
            probability_via_choi(ts, choi_operator(I2))

    def test_subnormalized_sum_is_not_checked(self):
        # a sum below 1 - 1e-6 is a tester whose projectors leave out part of the space
        ts = TesterElementSet(elements=(np.diag([0.5, 0, 0, 0]), np.diag([0, 0, 0, 0.25])),
                              probe=np.eye(2), complete=False)
        p = probability_via_choi(ts, choi_operator(I2))
        assert type(p) is np.ndarray and p.dtype == float and p.tolist() == [0.5, 0.25]

    def test_element_not_hermitian_message(self):
        # eigvalsh reads the lower triangle only, so this element would pass
        # the PSD check, and gives Tr[T E] = 1 + 0.5j against E(I)
        t_k = np.zeros((4, 4), dtype=complex)
        t_k[0, 0], t_k[0, 3] = 1.0, 0.5j
        with pytest.raises(ValueError, match=r"^tester element is not Hermitian$"):
            TesterElementSet(elements=(np.eye(4), t_k), probe=np.eye(2), complete=False)

    def test_element_not_psd_message(self):
        with pytest.raises(ValueError, match=r"^tester element not PSD \(min eigenvalue"):
            TesterElementSet(elements=(np.eye(4), -np.eye(4)), probe=np.eye(2), complete=False)
