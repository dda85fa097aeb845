import numpy as np
import pytest

import oracles
from qtesters import qmath
from qtesters.qmath import RngHandle


class TestMaxEntangledState:
    def test_sum_of_basis_products(self):
        for d in (1, 2, 3, 4):
            want = sum(np.kron(e, e) for e in np.eye(d, dtype=complex))
            got = qmath.max_entangled_state(d)
            assert got.dtype == complex
            np.testing.assert_array_equal(got, want)


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
        np.testing.assert_array_equal(qmath.haar_random_unitary(2, h.generator()),
                                      qmath.haar_random_unitary(2, h.generator()))

    def test_streams_differ(self):
        a = qmath.haar_random_unitary(2, RngHandle(seed=11, stream=0).generator())
        b = qmath.haar_random_unitary(2, RngHandle(seed=11, stream=1).generator())
        assert np.max(np.abs(a - b)) > 1e-3

    def test_dimension_below_1(self, gen):
        with pytest.raises(ValueError, match="^dimension must be >= 1$"):
            qmath.haar_random_unitary(0, gen)

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

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 4)], ids=["one", "3", "2x4"])
    def test_from_normals_equals_the_draw(self, d, shape):
        g_normals, g_draw = np.random.default_rng(d), np.random.default_rng(d)
        got = qmath.haar_from_normals(g_normals.standard_normal(shape + (2, d, d)))
        assert got.shape == shape + (d, d)
        assert got.tobytes() == qmath.haar_random_unitary(d, g_draw, shape=shape).tobytes()

    def test_interleaved_draws_orthonormalized_per_size(self):
        # integers and normals of two sizes drawn in one order, the QR run later per size
        sizes = [2, 3, 3, 2, 2, 3, 2, 2, 3, 3]
        sequential, staged = np.random.default_rng(3), np.random.default_rng(3)
        want = [(int(sequential.integers(5)), qmath.haar_random_unitary(d, sequential))
                for d in sizes]
        picks, normals = [], {2: [], 3: []}
        for d in sizes:
            picks.append(int(staged.integers(5)))
            normals[d].append(staged.standard_normal((2, d, d)))
        stacks = {d: iter(qmath.haar_from_normals(np.stack(g))) for d, g in normals.items()}
        for d, pick, (want_pick, want_u) in zip(sizes, picks, want):
            assert pick == want_pick
            assert next(stacks[d]).tobytes() == want_u.tobytes()
        assert staged.random() == sequential.random()

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2), (2, 2, 3), (2, 0, 0)])
    def test_from_normals_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match=r"^Ginibre normals must have shape \(\.\.\., 2, d, d\)"):
            qmath.haar_from_normals(np.zeros(shape))


class TestCompleteOnb:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stack_equals_one_row_calls(self, d, gen):
        w = qmath.haar_random_unitary(d, gen, shape=(2, 3))
        first = qmath.haar_random_unitary(d, gen, shape=(2, 3))[..., 0]
        got = qmath.complete_onb(first, w)
        assert got.shape == (2, 3, d, d)
        for i in range(2):
            for j in range(3):
                assert got[i, j].tobytes() == qmath.complete_onb(first[i, j], w[i, j]).tobytes()
        assert qmath.is_unitary(got)
        assert np.array_equal(got[..., 0], first)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_is_the_phase_fixed_qr_of_first_and_w(self, d, gen):
        """Q^dag (first, w_0 ... w_{d-2}) is upper triangular with a real
        positive diagonal: the Gram-Schmidt completion of first."""
        w = qmath.haar_random_unitary(d, gen, shape=(50,))
        first = qmath.haar_random_unitary(d, gen, shape=(50,))[..., 0]
        got = qmath.complete_onb(first, w)
        r = got.conj().swapaxes(-1, -2) @ np.concatenate((first[..., None], w[..., :d - 1]), -1)
        assert np.abs(np.tril(r, -1)).max(initial=0.0) <= 1e-12
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        assert np.abs(diag.imag).max() <= 1e-12 and diag.real.min() > 1e-12
        assert np.array_equal(got[..., 0], first)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_w_column_parallel_to_the_state(self, d, gen):
        w = qmath.haar_random_unitary(d, gen)
        first = np.exp(0.7j) * w[:, 0]
        got = qmath.complete_onb(first, w)
        assert qmath.is_unitary(got)
        assert np.array_equal(got[:, 0], first)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_all_collinear_w(self, d):
        e0 = np.eye(d)[0]
        collinear = np.outer(e0, np.ones(d))  # every column is |0>, the state itself
        got = qmath.complete_onb(np.stack([e0, e0]), np.stack([np.eye(d), collinear]))
        assert qmath.is_unitary(got)
        assert np.array_equal(got[..., 0], np.stack([e0, e0]))

    def test_rows_and_shapes_checked(self):
        with pytest.raises(ValueError, match=r"^state norm\^2 = 4\.0 is not 1"):
            qmath.complete_onb(np.array([[1, 0], [0, 2]]), np.stack([np.eye(2)] * 2))
        with pytest.raises(ValueError, match="do not match states"):
            qmath.complete_onb(np.eye(2)[0], np.eye(3))


class TestUnitaryMapping:
    def test_maps_source_to_target(self, gen):
        for d in (2, 3):
            src = qmath.haar_random_unitary(d, gen)[:, 0].copy()
            dst = qmath.haar_random_unitary(d, gen)[:, 0].copy()
            u = oracles.sequential_unitary_mapping(src, dst, gen)
            assert qmath.is_unitary(u)
            assert np.max(np.abs(u @ src - dst)) < 1e-9


class TestValidation:
    def test_as_states_checks_every_row(self):
        ok = qmath.as_states(np.eye(3))
        assert ok.shape == (3, 3) and ok.dtype == complex
        with pytest.raises(ValueError, match="non-finite"):
            qmath.as_states([[1, 0], [np.inf, 0]])
        with pytest.raises(ValueError, match=r"^state norm\^2 = 4\.0 is not 1"):
            qmath.as_states([[1, 0], [0, 2], [3, 0]])

    # the pytest config turns any warning into an error, so these also check
    # that the norm test of a non-finite or huge row warns of nothing
    @pytest.mark.parametrize("entry", [np.nan, complex(0, np.nan), np.inf, -np.inf,
                                       complex(np.inf, np.inf)])
    def test_as_states_non_finite_row(self, entry):
        with pytest.raises(ValueError, match="^state has non-finite entries$"):
            qmath.as_states([[1, 0], [entry, 0]])

    def test_as_states_huge_finite_row(self):
        with pytest.raises(ValueError, match=r"^state norm\^2 = inf is not 1 within 1e-09$"):
            qmath.as_states([[1, 0], [0, 1e200]])

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
        v = qmath.haar_random_unitary(3, gen)[:, 0].copy()
        np.testing.assert_array_equal(qmath.state_from_json(qmath.state_to_json(v)), v)

    @pytest.mark.parametrize("half", [float("nan"), float("inf"), -1e309])
    def test_non_finite_entry_rejected(self, half):
        # matrix_to_json could not write it back
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            qmath.matrix_from_json({"rows": 1, "cols": 2, "entries": [[1, 0], [0, half]]})

    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            qmath.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})

    def test_state_literal_must_be_column(self):
        obj = qmath.matrix_to_json(np.eye(2))
        with pytest.raises(ValueError):
            qmath.state_from_json(obj)

    @pytest.mark.parametrize("key", ["rows", "cols"])
    @pytest.mark.parametrize("value", [2.5, "2", True, None, float("nan"), float("inf")])
    def test_matrix_shape_fields_are_not_coerced(self, key, value):
        obj = {**qmath.matrix_to_json(np.eye(2)), key: value}
        with pytest.raises(ValueError, match=f"^{key} must be an integer, not "):
            qmath.matrix_from_json(obj)

    def test_matrix_integral_float_shape_accepted(self):
        obj = {**qmath.matrix_to_json(np.eye(2)), "rows": 2.0, "cols": 2.0}
        np.testing.assert_array_equal(qmath.matrix_from_json(obj), np.eye(2))


class TestIntField:
    def test_reads_integers_and_integral_floats(self):
        obj = {"a": 3, "b": 1e5, "c": -2.0}
        assert [qmath.int_field(obj, k) for k in "abc"] == [3, 100_000, -2]
        assert type(qmath.int_field(obj, "b")) is int
        assert qmath.int_field(obj, "missing", 7) == 7

    @pytest.mark.parametrize("value", [2.5, "2", True, False, None, [2], float("nan")])
    def test_rejects_everything_else_naming_the_field(self, value):
        with pytest.raises(ValueError, match=r"^dim must be an integer, not "):
            qmath.int_field({"dim": value}, "dim")

    def test_missing_field_without_default(self):
        with pytest.raises(KeyError):
            qmath.int_field({}, "dim")

    def test_error_class(self):
        class Custom(ValueError):
            pass
        with pytest.raises(Custom, match=r"^seed must be an integer, not 0\.5$"):
            qmath.int_field({"seed": 0.5}, "seed", 0, error=Custom)
