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
from qtesters.tester import HypothesisViolation, named_tester_set


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
