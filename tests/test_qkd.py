import io
import json

import numpy as np
import pytest

import oracles
from qtesters import qkd
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
