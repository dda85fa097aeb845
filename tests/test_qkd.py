import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from qtesters import cli, qkd
from qtesters.qkd import (
    ConfigError,
    EveStrategy,
    ProtocolConfig,
    analytic_eve_accuracy,
    config_from_json,
    default_extended_config,
    default_lm05_config,
    run_extended,
    run_lm05,
)
from qtesters.muub import UnitaryBasis, build_named_basis
from qtesters.qmath import RngHandle
from qtesters.tester import (HypothesisViolation, Tester, TesterSet, named_tester,
                              named_tester_set)


def within_3_sigma(rate, se, target):
    return abs(rate - target) <= 3 * max(se, 1e-12)


class TestAnalyticEveAccuracy:
    def test_binary(self):
        assert analytic_eve_accuracy(2) == pytest.approx(0.75, abs=1e-12)

    def test_quaternary(self):
        assert analytic_eve_accuracy(4) == pytest.approx(0.625, abs=1e-12)

    def test_limiting_case(self):
        assert analytic_eve_accuracy(10**9) == pytest.approx(0.5, abs=1e-8)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            analytic_eve_accuracy(1)


class TestLm05:
    def test_noiseless_run_is_perfect(self):
        stats = run_lm05(default_lm05_config(rounds=100_000, control_fraction=0.25, seed=1))
        assert stats.bob_errors == 0
        assert stats.cm_mismatches == 0
        assert stats.cm_comparisons > 0
        assert stats.sifted + stats.control_rounds == stats.rounds

    def test_hijack_without_control_is_invisible(self):
        stats = run_lm05(default_lm05_config(
            rounds=30_000, control_fraction=0.0,
            eve=EveStrategy(kind="qmm-equivalent-tester"), seed=2))
        assert stats.eve_accuracy == 1.0
        assert stats.bob_errors == 0

    @pytest.mark.parametrize("policy", ["fixed-zero", "random-input"])
    def test_hijack_control_mismatch_matches_enumeration(self, policy):
        resend = ([oracles.KET0] if policy == "fixed-zero"
                  else [oracles.KET0, oracles.KET1, oracles.XPLUS, oracles.XMINUS])
        expected = oracles.enumerate_cm_mismatch(resend)
        stats = run_lm05(default_lm05_config(
            rounds=100_000, control_fraction=0.5,
            eve=EveStrategy(kind="qmm-equivalent-tester", resend_policy=policy), seed=3))
        assert within_3_sigma(stats.cm_mismatch_rate, stats.cm_mismatch_se, expected)

    def test_intercept_resend_rates_match_enumeration(self):
        mismatch, decode_err = oracles.enumerate_intercept_rates()
        stats = run_lm05(default_lm05_config(
            rounds=100_000, control_fraction=0.4,
            eve=EveStrategy(kind="intercept-resend"), seed=4))
        assert within_3_sigma(stats.cm_mismatch_rate, stats.cm_mismatch_se, mismatch)
        assert within_3_sigma(stats.bob_error_rate, stats.bob_error_se, decode_err)
        # her own-basis flip detection is error-free
        assert stats.eve_accuracy == 1.0

    def test_rejects_wrong_encodings(self):
        cfg = default_lm05_config(rounds=10)
        bad = ProtocolConfig(
            d=2, D=2, rounds=10, control_fraction=0.0, eve=EveStrategy(),
            tester_sets=cfg.tester_sets,
            encoding_sets=(UnitaryBasis(2, (np.eye(2, dtype=complex),
                                            np.diag([1, -1]).astype(complex))),),
            rng=RngHandle(seed=0),
        )
        with pytest.raises(ConfigError):
            run_lm05(bad)


class TestExtended:
    def test_noiseless_run(self):
        stats = run_extended(default_extended_config(D=2, rounds=100_000, seed=5))
        assert stats.bob_errors == 0
        assert within_3_sigma(stats.sift_fraction, stats.sift_se, 0.5)

    @pytest.mark.parametrize("D,target", [(2, 0.75), (4, 0.625)])
    def test_hijack_accuracy_matches_analytic(self, D, target):
        stats = run_extended(default_extended_config(
            D=D, rounds=50_000, eve=EveStrategy(kind="qmm-equivalent-tester"), seed=6))
        assert stats.eve_rounds >= 10_000
        assert within_3_sigma(stats.eve_accuracy, stats.eve_accuracy_se, target)
        assert within_3_sigma(stats.eve_accuracy, stats.eve_accuracy_se,
                              analytic_eve_accuracy(D))

    def test_uniform_set_policy_same_accuracy(self):
        stats = run_extended(default_extended_config(
            D=2, rounds=50_000,
            eve=EveStrategy(kind="qmm-equivalent-tester", set_policy="uniform"), seed=7))
        assert within_3_sigma(stats.eve_accuracy, stats.eve_accuracy_se, 0.75)

    def test_hijack_disturbs_bob(self):
        # wrong-family unitaries scramble Bob's decode in half the kept rounds
        stats = run_extended(default_extended_config(
            D=2, rounds=50_000, eve=EveStrategy(kind="qmm-equivalent-tester"), seed=8))
        assert within_3_sigma(stats.bob_error_rate, stats.bob_error_se, 0.25)

    def test_intercept_resend_runs(self):
        stats = run_extended(default_extended_config(
            D=4, rounds=30_000,
            eve=EveStrategy(kind="intercept-resend", set_policy="uniform"), seed=9))
        assert 0.0 < stats.bob_error_rate < 1.0
        assert stats.eve_accuracy > 0.5

    def test_hypothesis_violation_fails_fast(self):
        cfg = ProtocolConfig(
            d=2, D=2, rounds=10, control_fraction=0.0, eve=EveStrategy(),
            tester_sets=(named_tester_set("z"), named_tester_set("x")),
            encoding_sets=(build_named_basis("rotation", 2),
                           build_named_basis("hadamard-pair", 2)),
            rng=RngHandle(seed=0),
        )
        with pytest.raises(HypothesisViolation):
            run_extended(cfg)

    def test_control_mode_not_modeled(self):
        cfg = default_extended_config(D=2, rounds=10)
        bad = ProtocolConfig(
            d=2, D=2, rounds=10, control_fraction=0.5, eve=EveStrategy(),
            tester_sets=cfg.tester_sets, encoding_sets=cfg.encoding_sets,
            rng=RngHandle(seed=0),
        )
        with pytest.raises(ConfigError):
            run_extended(bad)


class TestReproducibility:
    def test_lm05_stats_identical_for_identical_config(self):
        make = lambda: default_lm05_config(
            rounds=20_000, control_fraction=0.3,
            eve=EveStrategy(kind="qmm-equivalent-tester"), seed=42)
        a, b = run_lm05(make()), run_lm05(make())
        assert a == b
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

    def test_extended_stats_identical_for_identical_config(self):
        make = lambda: default_extended_config(
            D=4, rounds=20_000, eve=EveStrategy(kind="qmm-equivalent-tester"), seed=42)
        a, b = run_extended(make()), run_extended(make())
        assert a == b

    def test_different_streams_differ(self):
        a = run_extended(default_extended_config(D=2, rounds=5_000, seed=42,
                                                 eve=EveStrategy(kind="qmm-equivalent-tester")))
        b = run_extended(default_extended_config(D=2, rounds=5_000, seed=42, stream=1,
                                                 eve=EveStrategy(kind="qmm-equivalent-tester")))
        assert a != b


class TestTrace:
    def test_lm05_trace_csv(self):
        buf = io.StringIO()
        run_lm05(default_lm05_config(rounds=50, control_fraction=0.5, seed=0), trace=buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 51
        header = lines[0].split(",")
        assert header[0] == "round" and "bob_tester" in header and "cm_mismatch" in header

    def test_extended_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        run_extended(default_extended_config(D=2, rounds=40, seed=0), trace=str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 41
        assert lines[0].split(",")[1] == "bob_set"


    @pytest.mark.parametrize("run, cfg", [
        (run_lm05, default_lm05_config(rounds=9_000, control_fraction=0.3, seed=4,
                                       eve=EveStrategy(kind="intercept-resend"))),
        (run_extended, default_extended_config(D=4, rounds=9_000, seed=4,
                                               eve=EveStrategy(kind="qmm-equivalent-tester"))),
    ], ids=["lm05", "ext4"])
    def test_path_and_handle_get_the_same_bytes(self, tmp_path, run, cfg):
        path = tmp_path / "trace.csv"
        buf = io.StringIO(newline="")
        assert run(cfg, trace=str(path)) == run(cfg, trace=buf)
        assert path.read_bytes() == buf.getvalue().encode("ascii")
        assert path.read_bytes().count(b"\r\n") == 9_001

    def test_one_round_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        run_extended(default_extended_config(D=2, rounds=1, seed=0), trace=str(path))
        header, row = path.read_bytes().split(b"\r\n")[:2]
        assert path.read_bytes() == header + b"\r\n" + row + b"\r\n"
        assert header.split(b",")[:2] == [b"round", b"bob_set"]
        assert row.startswith(b"0,") and len(row.split(b",")) == 14

    def test_cli_trace_matches_run(self, tmp_path, capsys):
        via_cli, direct = tmp_path / "cli.csv", tmp_path / "run.csv"
        assert cli.main(["qkd", "extended", "--D", "4", "--eve", "intercept", "--rounds", "300",
                         "--seed", "7", "--trace", str(via_cli), "--json-only"]) == 0
        run_extended(default_extended_config(D=4, rounds=300, seed=7,
                                             eve=EveStrategy(kind="intercept-resend")),
                     trace=str(direct))
        assert via_cli.read_bytes() == direct.read_bytes()


def _csv_writer_rows(table):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(table.tolist())
    return buf.getvalue()


# digit-width edges, the int64 extremes and the values a record holds
CSV_FIELDS = st.one_of(
    st.sampled_from([0, -1, 9, 10, 99, 100, 9999, 10000, -9, -10, -99, -100, -9999, -10000,
                     10**9 - 1, 10**9, 2**63 - 1, -2**63]),
    st.integers(-2**63, 2**63 - 1),
    st.integers(-1, 4),
)


@st.composite
def int64_tables(draw):
    n = draw(st.integers(1, 6))
    c = draw(st.integers(1, 14))
    table = draw(hnp.arrays(np.int64, (n, c), elements=CSV_FIELDS))
    if draw(st.booleans()):  # a block of round indices, as the trace writes
        start = draw(st.sampled_from([0, 9_999_990, 10**7, 2**40]) | st.integers(0, 10**12))
        table[:, 0] = np.arange(start, start + n)
    return table


class TestCsvEncoder:
    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(table=int64_tables())
    def test_matches_csv_writer(self, table):
        assert qkd._csv_rows(table) == _csv_writer_rows(table)

    def test_full_block_of_a_long_run(self):
        gen = np.random.default_rng(3)
        start = 10**7 - 4000
        table = np.column_stack((np.arange(start, start + qkd._BLOCK),
                                 gen.integers(-1, 4, size=(qkd._BLOCK, 13))))
        assert qkd._csv_rows(table) == _csv_writer_rows(table)


class TestConfigJson:
    def test_roundtrip_named_sets(self):
        obj = {
            "d": 2, "D": 4, "rounds": 500, "control_fraction": 0.0,
            "eve": {"kind": "qmm-equivalent-tester"},
            "tester_sets": ["bell", "bell-rot"],
            "encoding_sets": ["pauli", "pauli-unbiased"],
            "seed": 5,
        }
        cfg = config_from_json(obj)
        stats = run_extended(cfg)
        assert stats.rounds == 500

    def test_inline_literals(self):
        base = default_lm05_config(rounds=200, control_fraction=0.1, seed=1)
        obj = base.to_json()
        cfg = config_from_json(obj)
        stats = run_lm05(cfg)
        assert stats == run_lm05(base)

    def test_all_dust_table_row_is_not_a_distribution(self):
        with pytest.raises(ConfigError, match="not a distribution"):
            qkd._snap_rows(np.array([[1e-12, 1e-12]]))

    @pytest.mark.parametrize("key", ["d", "D", "rounds", "seed", "stream"])
    @pytest.mark.parametrize("value", [2.7, True, False, "12", None, float("inf")])
    def test_integer_fields_are_not_coerced(self, key, value):
        obj = {**default_lm05_config(rounds=12).to_json(), key: value}
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            config_from_json(obj)

    def test_integral_float_accepted(self):
        obj = {**default_lm05_config(rounds=12).to_json(), "rounds": 1e5, "seed": 3.0}
        cfg = config_from_json(obj)
        assert cfg.rounds == 100_000 and type(cfg.rounds) is int
        assert cfg.rng.seed == 3 and type(cfg.rng.seed) is int

    @pytest.mark.parametrize("value", ["0.5", True, None])
    def test_control_fraction_must_be_a_number(self, value):
        obj = {**default_lm05_config(rounds=12).to_json(), "control_fraction": value}
        with pytest.raises(ConfigError, match="control_fraction must be a number"):
            config_from_json(obj)

    def test_bad_config_raises(self):
        with pytest.raises(ConfigError):
            config_from_json({"rounds": 10})
        with pytest.raises(ConfigError):
            EveStrategy(kind="siphon")
        with pytest.raises(ConfigError):
            default_lm05_config(rounds=0)


class TestTablesAgainstKronOracle:
    """The stacked tables equal per-(tester, unitary) products with the
    embedding u (x) I_d formed by np.kron, bit for bit after snapping."""

    @pytest.mark.parametrize("D", [2, 4])
    def test_extended_p_out(self, D):
        cfg = default_extended_config(D=D, rounds=10)
        want = np.array([[[[oracles.kron_outcome_probabilities(t.input, t.projectors, t.dim, u)
                            for u in fam] for fam in cfg.encoding_sets]
                          for t in s] for s in cfg.tester_sets])
        got = qkd._extended_tables(cfg)["p_out"]
        assert got.shape == (2, D, 2, D, D)
        assert np.array_equal(got, qkd._snap_rows(want))

    def test_lm05_p_bob(self):
        cfg = default_lm05_config(rounds=10)
        testers, tables = qkd._lm05_tables(cfg)
        want = np.array([[oracles.kron_outcome_probabilities(t.input, t.projectors, t.dim, u)
                          for u in cfg.encoding_sets[0]] for t in testers])
        assert np.array_equal(tables["p_bob"], qkd._snap_rows(want))


class TestConfigDimensions:
    def _config(self, **kw):
        base = default_extended_config(D=2, rounds=10)
        args = dict(d=2, D=2, rounds=10, control_fraction=0.0, eve=EveStrategy(),
                    tester_sets=base.tester_sets, encoding_sets=base.encoding_sets,
                    rng=RngHandle(seed=0))
        args.update(kw)
        return ProtocolConfig(**args)

    def test_family_size_not_D(self):
        with pytest.raises(ConfigError, match="D=9"):
            self._config(D=9)

    def test_family_dim_not_d(self):
        with pytest.raises(ConfigError, match="d=2"):
            self._config(encoding_sets=(build_named_basis("weyl", 3),) * 2, D=9)

    def test_tester_set_dim_not_d(self):
        with pytest.raises(ConfigError, match="d=3"):
            self._config(d=3)


LM05_TABLE_CONFIGS = [(policy, kind) for policy in qkd.RESEND_POLICIES for kind in qkd.EVE_KINDS]


def _assert_tables_equal(got, want):
    assert sorted(got) == sorted(want)
    for key, w in want.items():
        g = got[key]
        assert g.dtype == w.dtype and g.shape == w.shape, key
        assert np.array_equal(g, w), key


class TestTablesAgainstLoopOracle:
    """Every table equals the entry-by-entry loop construction bit for bit."""

    @pytest.mark.parametrize("policy, kind", LM05_TABLE_CONFIGS)
    def test_lm05(self, policy, kind):
        cfg = default_lm05_config(rounds=10, control_fraction=0.3,
                                  eve=EveStrategy(kind=kind, resend_policy=policy))
        testers, tables = qkd._lm05_tables(cfg)
        assert testers == [t for s in cfg.tester_sets for t in s]
        _assert_tables_equal(tables, oracles.loop_lm05_tables(cfg))

    @pytest.mark.parametrize("D", [2, 4])
    @pytest.mark.parametrize("kind", qkd.EVE_KINDS)
    def test_extended(self, D, kind):
        cfg = default_extended_config(D=D, rounds=10, eve=EveStrategy(kind=kind))
        _assert_tables_equal(qkd._extended_tables(cfg), oracles.loop_extended_tables(cfg))


class TestSnapRows:
    def test_transposed_view(self):
        table = np.array([[[0.2, 0.6], [1e-12, 0.2]], [[1, 0], [0.5, 0.5]]]).transpose(1, 0, 2)
        got = qkd._snap_rows(table)
        np.testing.assert_allclose(got, [[[0.25, 0.75], [1, 0]], [[0, 1], [0.5, 0.5]]],
                                   rtol=0, atol=1e-15)
        assert np.array_equal(got, oracles.snap_rows(table))

    def test_input_left_unchanged(self):
        table = np.array([[1e-12, 0.5, 0.5]])
        qkd._snap_rows(table)
        assert table[0, 0] == 1e-12


# a full block of rounds, and the tail block of a 20 000-round run
KERNEL_BLOCKS = [qkd._BLOCK, 20_000 - 2 * qkd._BLOCK]


class TestKernelsAgainstRecordOracle:
    """The record columns, stacked, and the counts equal the row-gather
    kernels' records and counts bit for bit on the same draws."""

    @pytest.mark.parametrize("n", KERNEL_BLOCKS)
    @pytest.mark.parametrize("policy, kind", LM05_TABLE_CONFIGS)
    def test_lm05(self, policy, kind, n):
        cfg = default_lm05_config(rounds=10, eve=EveStrategy(kind=kind, resend_policy=policy))
        _, tables = qkd._lm05_tables(cfg)
        cum = {k: qkd._cumulative(v) for k, v in tables.items() if k.startswith("p_")}
        draws = np.random.default_rng(n).random((n, 8))
        eve_kind = qkd.EVE_KINDS.index(kind)
        cols, counts = qkd._lm05_rounds(draws, eve_kind, 0.3, cum, tables)
        rec, want = oracles.record_lm05_rounds(draws, eve_kind, 0.3, tables)
        assert len(cols) == len(qkd._LM05_COLUMNS)
        got = np.column_stack(cols)
        assert got.dtype == rec.dtype and np.array_equal(got, rec)
        assert np.array_equal(counts, want)

    @pytest.mark.parametrize("n", KERNEL_BLOCKS)
    @pytest.mark.parametrize("policy", qkd.SET_POLICIES)
    @pytest.mark.parametrize("kind", qkd.EVE_KINDS)
    @pytest.mark.parametrize("D", [2, 4])
    def test_extended(self, D, kind, policy, n):
        cfg = default_extended_config(D=D, rounds=10,
                                      eve=EveStrategy(kind=kind, set_policy=policy))
        tables = qkd._extended_tables(cfg)
        cum = {k: qkd._cumulative(tables[k]) for k in ("p_out", "collapse", "p_proj")}
        draws = np.random.default_rng(n).random((n, 9))
        eve_kind, set_policy = qkd.EVE_KINDS.index(kind), qkd.SET_POLICIES.index(policy)
        cols, counts = qkd._extended_rounds(draws, eve_kind, set_policy, D, cum,
                                            tables["decode"])
        rec, want = oracles.record_extended_rounds(draws, eve_kind, set_policy, D, tables)
        assert len(cols) == len(qkd._EXT_COLUMNS)
        got = np.column_stack(cols)
        assert got.dtype == rec.dtype and np.array_equal(got, rec)
        assert np.array_equal(counts, want)


def _bench_run(protocol, kind):
    """One of the benchmark's nine protocol x Eve configurations, 20 000 rounds."""
    eve = EveStrategy(kind=kind)
    if protocol == "lm05":
        return run_lm05, default_lm05_config(rounds=20_000, control_fraction=0.3, eve=eve,
                                             seed=11)
    return run_extended, default_extended_config(D=int(protocol[3:]), rounds=20_000, eve=eve,
                                                 seed=11)


class TestTracedAndUntracedAgree:
    @pytest.mark.parametrize("kind", qkd.EVE_KINDS)
    @pytest.mark.parametrize("protocol", ["lm05", "ext2", "ext4"])
    def test_same_stats(self, protocol, kind):
        run, cfg = _bench_run(protocol, kind)
        buf = io.StringIO(newline="")
        assert run(cfg) == run(cfg, trace=buf)
        assert buf.getvalue().count("\r\n") == cfg.rounds + 1


class TestSample:
    def test_threshold_lands_in_next_bin(self):
        cum = qkd._cumulative(np.array([[0.25, 0.25, 0.25, 0.25]]))
        assert cum.shape == (3, 1)
        r = np.array([0.0, 0.2499, 0.25, 0.5, 0.75, 0.9999])
        got = qkd._sample(cum, (np.zeros(6, dtype=np.int64),), r)
        assert got.tolist() == [0, 0, 1, 2, 3, 3]

    def test_deterministic_rows(self):
        cum = qkd._cumulative(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        r = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])
        for row, bin_ in enumerate([1, 0, 2]):
            assert qkd._sample(cum, (np.full(3, row),), r).tolist() == [bin_] * 3

    def test_rows_by_index_tuple(self):
        table = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.0, 1.0]]])
        cum = qkd._cumulative(table)
        i, j = np.array([0, 0, 1, 1, 1]), np.array([0, 1, 0, 0, 1])
        r = np.array([0.9, 0.1, 0.4, 0.5, 0.0])
        assert qkd._sample(cum, (i, j), r).tolist() == [0, 1, 0, 1, 1]

    @pytest.mark.parametrize("row", [3, -1])
    def test_out_of_range_index_raises(self, row):
        cum = qkd._cumulative(np.full((3, 2), 0.5))
        with pytest.raises(ValueError):
            qkd._sample(cum, (np.array([0, row]),), np.array([0.1, 0.1]))


def _config(sets, encs, D=2, d=2):
    return ProtocolConfig(d=d, D=D, rounds=10, control_fraction=0.0, eve=EveStrategy(),
                          tester_sets=sets, encoding_sets=encs, rng=RngHandle(seed=0))


def _computational_set(d):
    eye = np.eye(d, dtype=complex)
    return TesterSet(tuple(Tester(input=eye[k], projectors=tuple(eye), dim=d, label=f"{k}")
                           for k in range(d)), dim=d)


class TestTableErrors:
    """The exact message of every table error that a valid config can reach.

    Three checks have no test.  "uses ancilla-free testers": a complete
    bipartite qubit set has 4 members, so the member count check fires
    first.  "probe lies in neither control basis": a probe that passes the
    measurement-state check is a basis vector of its own set's control
    basis up to the 1e-9 tolerances.  "deterministic outcomes do not
    separate digits": at D = d = 2 a collision forces a diagonal family
    member, and then no partner family is unbiased and uniform for the set.
    """

    ZX = (named_tester_set("z"), named_tester_set("x"))
    QUBIT_COUNT = r"^the qubit protocol needs d=2, two 2-member tester sets and 2 encodings$"

    def test_lm05_needs_d_2(self):
        cfg = _config((_computational_set(3),) * 2, (build_named_basis("weyl", 3),), D=9, d=3)
        with pytest.raises(ConfigError, match=self.QUBIT_COUNT):
            run_lm05(cfg)

    def test_lm05_needs_2_encodings(self):
        with pytest.raises(ConfigError, match=self.QUBIT_COUNT):
            run_lm05(_config(self.ZX, (build_named_basis("pauli", 2),), D=4))

    def test_lm05_needs_4_testers(self):
        cfg = _config((named_tester_set("bell"), named_tester_set("z")),
                      (build_named_basis("rotation", 2),))
        with pytest.raises(ConfigError, match=self.QUBIT_COUNT):
            run_lm05(cfg)

    def test_lm05_probe_not_a_measurement_state(self):
        plus_z = TesterSet((named_tester("+Z"), named_tester("-Z")), dim=2)
        cfg = _config((plus_z, named_tester_set("x")), (build_named_basis("rotation", 2),))
        with pytest.raises(ConfigError, match=r"^tester '\+Z' probe is not a measurement state$"):
            run_lm05(cfg)

    def test_lm05_not_deterministic_on_encoding(self):
        cfg = _config(self.ZX, (build_named_basis("hadamard-pair", 2),))
        with pytest.raises(ConfigError, match=r"^tester '0Z' is not deterministic on encoding 0$"):
            run_lm05(cfg)

    def test_lm05_stay_flip(self):
        z_enc = UnitaryBasis(2, (np.eye(2, dtype=complex), np.diag([1, -1]).astype(complex)))
        with pytest.raises(ConfigError,
                           match=r"^encodings must act as \(stay, flip\) on every probe$"):
            run_lm05(_config(self.ZX, (z_enc,)))

    def test_extended_needs_two_families(self):
        with pytest.raises(ConfigError, match=r"^the D-ary protocol needs two encoding families$"):
            run_extended(_config(self.ZX, (build_named_basis("rotation", 2),)))

    def test_extended_sets_need_D_members(self):
        encs = (build_named_basis("pauli", 2), build_named_basis("pauli-unbiased", 2))
        with pytest.raises(ConfigError, match=r"^tester sets must have D members$"):
            run_extended(_config(self.ZX, encs, D=4))

    def test_extended_hypothesis_message(self):
        encs = (build_named_basis("rotation", 2), build_named_basis("hadamard-pair", 2))
        failure = "set2/family2: tester {} entropy 1.000000 bits, expected deterministic"
        want = ("tester sets are not deterministic/uniform on the encoding families: "
                + "; ".join(failure.format(t) for t in ("+X", "+X", "-X")))
        with pytest.raises(HypothesisViolation) as info:
            run_extended(_config(self.ZX, encs))
        assert str(info.value) == want
