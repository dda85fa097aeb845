import numpy as np
import pytest

import oracles
from qtesters import qmath
from qtesters.qmath import RngHandle


class TestTensor:
    def test_identity_case(self):
        np.testing.assert_array_equal(qmath.tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_bookkeeping(self):
        ket0 = np.array([1, 0], dtype=complex)
        ket1 = np.array([0, 1], dtype=complex)
        out = qmath.tensor(ket0, ket1)
        np.testing.assert_array_equal(out, np.array([0, 1, 0, 0], dtype=complex))

    def test_index_formula(self):
        a, b = qmath.SIGMA_X, qmath.SIGMA_Z
        got = qmath.tensor(a, b)
        for i in range(2):
            for k in range(2):
                for j in range(2):
                    for l in range(2):
                        assert got[i * 2 + k, j * 2 + l] == a[i, j] * b[k, l]

    def test_associative_on_integer_entries(self, gen):
        mats = [gen.integers(-3, 4, size=(2, 2)) + 1j * gen.integers(-3, 4, size=(2, 2))
                for _ in range(3)]
        left = qmath.tensor(qmath.tensor(mats[0], mats[1]), mats[2])
        right = qmath.tensor(mats[0], qmath.tensor(mats[1], mats[2]))
        np.testing.assert_array_equal(left, right)


class TestPartialTraceAncilla:
    def test_identity(self):
        np.testing.assert_allclose(qmath.partial_trace_ancilla(np.eye(4), 2), 2 * np.eye(2))

    def test_mes_marginal(self):
        psi = qmath.max_entangled_state(2)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(qmath.partial_trace_ancilla(rho, 2), np.eye(2), atol=1e-14)

    def test_trace_preserved(self, gen):
        m = gen.standard_normal((9, 9)) + 1j * gen.standard_normal((9, 9))
        assert abs(np.trace(qmath.partial_trace_ancilla(m, 3)) - np.trace(m)) <= 1e-12

    def test_tensor_product_law(self, gen):
        a = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        b = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        got = qmath.partial_trace_ancilla(qmath.tensor(a, b), 3)
        np.testing.assert_allclose(got, np.trace(b) * a, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qmath.partial_trace_ancilla(np.eye(6), 4)


class TestPartialTransposeFirst:
    def test_product_case(self, gen):
        rho = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
        sig = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
        got = qmath.partial_transpose_first(qmath.tensor(rho, sig), 2)
        np.testing.assert_allclose(got, qmath.tensor(rho.T, sig), atol=1e-14)

    def test_involution(self, gen):
        m = gen.standard_normal((9, 9)) + 1j * gen.standard_normal((9, 9))
        twice = qmath.partial_transpose_first(qmath.partial_transpose_first(m, 3), 3)
        np.testing.assert_array_equal(twice, m)

    def test_mes_gives_swap(self):
        # entrywise against the swap index rule S[(a,b),(c,e)] = [a==e][b==c]
        psi = qmath.max_entangled_state(2)
        got = qmath.partial_transpose_first(np.outer(psi, psi.conj()), 2)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for e in range(2):
                        want = 1.0 if (a == e and b == c) else 0.0
                        assert got[a * 2 + b, c * 2 + e] == want


class TestSwapOperator:
    def test_swaps_basis_products(self):
        s = qmath.swap_operator(2)
        for a in range(2):
            for b in range(2):
                vec = np.zeros(4, dtype=complex)
                vec[a * 2 + b] = 1.0
                out = s @ vec
                assert out[b * 2 + a] == 1.0 and np.count_nonzero(out) == 1

    def test_involution(self):
        s = qmath.swap_operator(3)
        np.testing.assert_allclose(s @ s, np.eye(9), atol=1e-14)

    def test_conjugation(self, gen):
        a = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        b = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        s = qmath.swap_operator(3)
        np.testing.assert_allclose(s @ qmath.tensor(a, b) @ s, qmath.tensor(b, a), atol=1e-12)

    def test_hermitian_unitary(self):
        s = qmath.swap_operator(4)
        np.testing.assert_array_equal(s, s.conj().T)
        assert qmath.is_unitary(s)


class TestVectorize:
    def test_identity_gives_mes(self):
        np.testing.assert_array_equal(qmath.vectorize(np.eye(2)),
                                      np.array([1, 0, 0, 1], dtype=complex))

    def test_sigma_x_placement(self):
        np.testing.assert_array_equal(qmath.vectorize(qmath.SIGMA_X),
                                      np.array([0, 1, 1, 0], dtype=complex))

    def test_amplitude_convention(self, gen):
        u = qmath.haar_random_unitary(3, gen)
        v = qmath.vectorize(u)
        for i in range(3):
            for j in range(3):
                assert v[i * 3 + j] == u[j, i]

    def test_trace_overlap(self, gen):
        for _ in range(20):
            ua = qmath.haar_random_unitary(3, gen)
            ub = qmath.haar_random_unitary(3, gen)
            lhs = abs(np.vdot(qmath.vectorize(ua), qmath.vectorize(ub))) ** 2
            rhs = abs(np.trace(ua.conj().T @ ub)) ** 2
            assert abs(lhs - rhs) <= 1e-10

    def test_linear_and_invertible(self, gen):
        a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        b = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        np.testing.assert_array_equal(qmath.vectorize(2 * a + 3j * b),
                                      2 * qmath.vectorize(a) + 3j * qmath.vectorize(b))
        np.testing.assert_array_equal(qmath.devectorize(qmath.vectorize(a)), a)


class TestRngHandle:
    @pytest.mark.parametrize("field", ["seed", "stream"])
    @pytest.mark.parametrize("value", [-1, 1.0, 2.5, True, "3", None])
    def test_rejects_what_is_not_a_non_negative_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^rng {field} must be a non-negative integer"):
            RngHandle(**{"seed": 0, field: value})

    def test_numpy_integers_accepted(self):
        h = RngHandle(seed=np.int64(11), stream=np.uint8(3))
        assert h.generator().random() == RngHandle(seed=11, stream=3).generator().random()


class TestHaarSampling:
    def test_unitarity(self, gen):
        for d in (1, 2, 3, 5):
            u = qmath.haar_random_unitary(d, gen)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12

    def test_handle_determinism(self):
        h = RngHandle(seed=11, stream=3)
        np.testing.assert_array_equal(qmath.haar_random_unitary(2, h),
                                      qmath.haar_random_unitary(2, h))

    def test_streams_differ(self):
        a = qmath.haar_random_unitary(2, RngHandle(seed=11, stream=0))
        b = qmath.haar_random_unitary(2, RngHandle(seed=11, stream=1))
        assert np.max(np.abs(a - b)) > 1e-3

    def test_first_moment(self):
        # E |Tr u|^2 = 1 under the invariant measure
        g = RngHandle(seed=5).generator()
        us = qmath.haar_random_unitary(2, g, shape=(10_000,))
        mean = np.mean(np.abs(np.trace(us, axis1=-2, axis2=-1)) ** 2)
        assert abs(mean - 1.0) <= 0.05

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)], ids=["one", "5", "2x3"])
    def test_stack_equals_sequential_draws(self, d, shape):
        g_seq, g_stack = np.random.default_rng(7), np.random.default_rng(7)
        seq = [qmath.haar_random_unitary(d, g_seq) for _ in range(int(np.prod(shape)))]
        stack = qmath.haar_random_unitary(d, g_stack, shape=shape)
        assert stack.shape == shape + (d, d)
        assert stack.tobytes() == np.stack(seq).tobytes()
        assert g_stack.random() == g_seq.random()

    def test_stack_from_handle(self):
        h = RngHandle(seed=11, stream=3)
        stack = qmath.haar_random_unitary(2, h, shape=(3,))
        assert stack[0].tobytes() == qmath.haar_random_unitary(2, h).tobytes()


class TestUnitaryMapping:
    def test_maps_source_to_target(self, gen):
        for d in (2, 3):
            src = qmath.haar_random_state(d, gen)
            dst = qmath.haar_random_state(d, gen)
            u = qmath.unitary_mapping(src, dst, gen)
            assert qmath.is_unitary(u, 1e-9)
            assert np.max(np.abs(u @ src - dst)) < 1e-9

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stacked_draw_equals_two_sequential_draws(self, d):
        states = qmath.haar_random_unitary(d, RngHandle(seed=d, stream=1))
        src, dst = states[:, 0], states[:, -1]
        stacked, sequential = np.random.default_rng(d), np.random.default_rng(d)
        for _ in range(3):  # each call continues the same stream
            u = qmath.unitary_mapping(src, dst, stacked)
            assert u.tobytes() == oracles.sequential_unitary_mapping(src, dst,
                                                                     sequential).tobytes()
        assert stacked.random() == sequential.random()


class TestValidation:
    def test_as_state_norm(self):
        with pytest.raises(ValueError):
            qmath.as_state([1.0, 1.0])
        v = qmath.as_state([1.0, 1.0], unnormalized=True)
        assert v.size == 2

    def test_as_states_checks_every_row(self):
        ok = qmath.as_states(np.eye(3))
        assert ok.shape == (3, 3) and ok.dtype == complex
        with pytest.raises(ValueError, match="non-finite"):
            qmath.as_states([[1, 0], [np.inf, 0]])
        with pytest.raises(ValueError, match=r"^state norm\^2 = 4\.0 is not 1"):
            qmath.as_states([[1, 0], [0, 2], [3, 0]])

    def test_is_unitary_on_a_stack(self, gen):
        us = qmath.haar_random_unitary(3, gen, shape=(4,))
        assert qmath.is_unitary(us)
        bad = us.copy()
        bad[2] *= 0.9  # entries stay below 1, so the Gram test rejects it
        assert not qmath.is_unitary(bad)
        assert not qmath.is_unitary(np.ones((2, 2, 3)))
        assert not qmath.is_unitary(np.ones(3))

    def test_assert_unitary(self):
        with pytest.raises(ValueError):
            qmath.assert_unitary(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            qmath.as_matrix(np.array([[np.inf, 0], [0, 1]]))


class TestJsonLiterals:
    def test_matrix_roundtrip(self, gen):
        m = gen.standard_normal((2, 3)) + 1j * gen.standard_normal((2, 3))
        obj = qmath.matrix_to_json(m)
        assert obj["rows"] == 2 and obj["cols"] == 3
        np.testing.assert_array_equal(qmath.matrix_from_json(obj), m)

    def test_state_roundtrip(self, gen):
        v = qmath.haar_random_state(3, gen)
        np.testing.assert_array_equal(qmath.state_from_json(qmath.state_to_json(v)), v)

    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            qmath.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})

    def test_state_literal_must_be_column(self):
        obj = qmath.matrix_to_json(np.eye(2))
        with pytest.raises(ValueError):
            qmath.state_from_json(obj)
