import csv
import io
import json
import os
import stat

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
from qtesters.qmath import SIGMA_X, RngHandle, haar_random_unitary
from qtesters.tester import (HypothesisViolation, LeakyMeasurementError, Tester, TesterSet,
                              bell_states, named_tester, named_tester_set)


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

    def test_a_second_fixture_config_builds_no_tester(self, monkeypatch):
        """The named sets and families are built once per process; every
        config still asks for each set's completeness, which was tested on
        the first."""
        first = default_extended_config(D=4)
        built, checked, tested = [], [], []

        def counting_init(self, real=Tester.__post_init__):
            built.append(self)
            real(self)

        def counting_check(s, real=qkd.is_complete_set):
            checked.append(s)
            return real(s)
        monkeypatch.setattr(Tester, "__post_init__", counting_init)
        monkeypatch.setattr(qkd, "is_complete_set", counting_check)
        monkeypatch.setattr(qkd.tester_mod, "_probes_complete", tested.append)
        monkeypatch.setattr(UnitaryBasis, "__post_init__", built.append)
        second = default_extended_config(D=4)
        assert built == [] and tested == []
        assert checked == list(second.tester_sets) == list(first.tester_sets)
        assert all(a is b for a, b in zip(second.encoding_sets, first.encoding_sets))
        qkd.tester_mod.bell_tester_set()  # the spy sees each tester that is built
        assert len(built) == 4

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
    def test_lm05_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        run_lm05(default_lm05_config(rounds=50, control_fraction=0.5, seed=0), trace=str(path))
        lines = path.read_text().strip().splitlines()
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
    def test_trace_has_one_crlf_line_per_round(self, tmp_path, run, cfg):
        path = tmp_path / "trace.csv"
        assert run(cfg, trace=str(path)) == run(cfg)
        data = path.read_bytes()
        assert data.count(b"\r\n") == 9_001 and data.count(b"\n") == 9_001
        header, *rows, tail = data.split(b"\r\n")
        assert tail == b""
        width = len(header.split(b","))
        assert [r.split(b",")[0] for r in rows] == [str(i).encode() for i in range(9_000)]
        assert {len(r.split(b",")) for r in rows} == {width}

    @pytest.mark.parametrize("run", [run_lm05, run_extended], ids=["lm05", "ext4"])
    @pytest.mark.parametrize("trace", ["handle", "bool", "pipe-fd"])
    def test_only_a_path_is_a_trace(self, run, trace):
        """A handle, a bool (fd 1 to ``open()``) or an int file descriptor
        raises ``TypeError`` before anything is opened, so the descriptor
        stays open and gets nothing."""
        cfg = default_lm05_config(rounds=10) if run is run_lm05 else default_extended_config(
            D=4, rounds=10)
        r, w = os.pipe()
        try:
            target = {"handle": io.StringIO(), "bool": True, "pipe-fd": w}[trace]
            with pytest.raises(TypeError):
                run(cfg, trace=target)
            os.fstat(w)  # still open: raises OSError if the run closed it
            os.set_blocking(r, False)
            with pytest.raises(BlockingIOError):
                os.read(r, 1)  # the pipe is empty
        finally:
            os.close(r)
            os.close(w)

    def test_path_like_target_gets_the_str_path_bytes(self, tmp_path):
        cfg = default_extended_config(D=4, rounds=300, seed=3,
                                      eve=EveStrategy(kind="intercept-resend"))
        assert run_extended(cfg, trace=tmp_path / "t.csv") == run_extended(
            cfg, trace=str(tmp_path / "s.csv"))
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()

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

    def test_shorter_trace_over_a_longer_one(self, tmp_path):
        path = tmp_path / "trace.csv"
        run_extended(default_extended_config(D=4, rounds=20_000, seed=2,
                                             eve=EveStrategy(kind="intercept-resend")),
                     trace=str(path))
        assert path.read_bytes().count(b"\r\n") == 20_001  # three blocks
        cfg = default_lm05_config(rounds=40, control_fraction=0.3, seed=2)
        run_lm05(cfg, trace=str(path))
        run_lm05(cfg, trace=str(tmp_path / "fresh.csv"))
        assert path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    def test_failed_run_leaves_only_its_header(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        run_extended(default_extended_config(D=4, rounds=20_000, seed=2), trace=str(path))
        seen = []

        def fail(start, columns):  # the file as the first rows are about to be encoded
            seen.append(path.read_bytes())
            raise RuntimeError("encoder failed")

        monkeypatch.setattr(qkd, "_csv_rows", fail)
        with pytest.raises(RuntimeError, match="encoder failed"):
            run_lm05(default_lm05_config(rounds=40, seed=2), trace=str(path))
        header = (",".join(("round",) + qkd._LM05_COLUMNS) + "\r\n").encode("ascii")
        assert seen == [header]
        assert path.read_bytes() == header

    def test_devnull_gets_the_untraced_stats(self):
        cfg = default_extended_config(D=2, rounds=300, seed=5,
                                      eve=EveStrategy(kind="qmm-equivalent-tester"))
        assert run_extended(cfg, trace=os.devnull) == run_extended(cfg)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_gets_the_whole_trace(self, tmp_path):
        fifo = tmp_path / "trace.fifo"
        os.mkfifo(fifo)
        # a non-blocking reader opened first, so opening the writer does not block
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            cfg = default_lm05_config(rounds=40, control_fraction=0.3, seed=2)
            file = tmp_path / "trace.csv"
            assert run_lm05(cfg, trace=str(fifo)) == run_lm05(cfg, trace=str(file))
            assert os.read(reader, 1 << 16) == file.read_bytes()
        finally:
            os.close(reader)

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        with open(tmp_path / "by_open.csv", "w"):
            pass
        run_lm05(default_lm05_config(rounds=10, seed=0), trace=str(tmp_path / "trace.csv"))
        assert (stat.S_IMODE((tmp_path / "trace.csv").stat().st_mode)
                == stat.S_IMODE((tmp_path / "by_open.csv").stat().st_mode))


def _csv_writer_rows(start, columns):
    """What ``csv.writer`` writes for the rows (round, record) of rounds
    ``start``, ``start + 1``, ..., a bool field read as the int it is."""
    rows = zip(range(start, start + len(columns[0])), *(c.tolist() for c in columns))
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([[int(v) for v in row] for row in rows])
    return buf.getvalue().encode("ascii")


# digit-width edges, the int64 extremes and the values a record holds
CSV_FIELDS = st.one_of(
    st.sampled_from([0, -1, 9, 10, 99, 100, 9999, 10000, -9, -10, -99, -100, -9999, -10000,
                     10**9 - 1, 10**9, 2**63 - 1, -2**63]),
    st.integers(-2**63, 2**63 - 1),
    st.integers(-1, 4),
)
# the first round of a block: small, just below and at a digit-width edge, and large
CSV_STARTS = st.sampled_from([0, 9_999_990, 10**7, 2**40]) | st.integers(0, 10**12)


@st.composite
def record_blocks(draw, kinds=st.just("int64")):
    """A block's first round and its record columns: 1-13 columns of 1-6
    rows, each an int64 column drawn from ``CSV_FIELDS`` or a bool column,
    as ``kinds`` draws them."""
    n = draw(st.integers(1, 6))
    columns = tuple(
        draw(hnp.arrays(np.int64, n, elements=CSV_FIELDS)) if kind == "int64"
        else draw(hnp.arrays(np.bool_, n))
        for kind in draw(st.lists(kinds, min_size=1, max_size=13)))
    return draw(CSV_STARTS), columns


class TestCsvEncoder:
    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(block=record_blocks())
    def test_matches_csv_writer(self, block):
        assert qkd._csv_rows(*block) == _csv_writer_rows(*block)

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(block=record_blocks(st.sampled_from(["int64", "bool"])))
    def test_bool_and_mixed_columns_match_csv_writer(self, block):
        assert qkd._csv_rows(*block) == _csv_writer_rows(*block)

    @pytest.mark.parametrize("protocol", ["lm05", "ext4"])
    def test_kernel_records_match_csv_writer(self, protocol):
        # int64 and bool columns, as the kernels return them
        draws = np.random.default_rng(5).random((300, 9))
        eve = EveStrategy(kind="intercept-resend")
        if protocol == "lm05":
            tables = qkd._lm05_tables(default_lm05_config(rounds=10, eve=eve))
            cum = {k: qkd._cumulative(v) for k, v in tables.items() if k.startswith("p_")}
            args = (draws, 2, 0.3, cum, tables)
            kernel = qkd._lm05_rounds
        else:
            tables = qkd._extended_tables(default_extended_config(D=4, rounds=10, eve=eve))
            cum = {k: qkd._cumulative(tables[k]) for k in ("p_out", "collapse", "p_proj")}
            args = (draws, 2, 0, 4, cum, tables["decode"])
            kernel = qkd._extended_rounds
        counts, columns = kernel(*args, True)
        untraced, no_columns = kernel(*args, False)
        assert no_columns is None and np.array_equal(untraced, counts)
        assert {c.dtype for c in columns} == {np.dtype(np.int64), np.dtype(np.bool_)}
        assert qkd._csv_rows(9_999_900, columns) == _csv_writer_rows(9_999_900, columns)

    def test_full_block_of_a_long_run(self):
        # the round width changes inside the block, and it spans several chunks
        gen = np.random.default_rng(3)
        start = 10**7 - 4000
        columns = tuple(gen.integers(-1, 4, size=(13, qkd._BLOCK)))
        want = _csv_writer_rows(start, columns)
        assert qkd._BLOCK >= 2 * qkd._CHUNK
        assert qkd._csv_rows(start, columns) == want
        # chunk by chunk, as _simulate encodes it
        assert b"".join(qkd._csv_rows(start + a, tuple(c[a:a + qkd._CHUNK] for c in columns))
                        for a in range(0, qkd._BLOCK, qkd._CHUNK)) == want


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

    def test_misspelled_keys_are_rejected_by_name(self):
        obj = {"rounds": 2000, "tester_sets": ["z", "x"], "encoding_sets": ["rotation"],
               "contol_fraction": 0.3, "eve": {"knd": "intercept-resend"}}
        with pytest.raises(ConfigError, match=r"unknown keys \['contol_fraction', 'eve\.knd'\]"):
            config_from_json(obj)
        cfg = default_lm05_config(rounds=12)
        with pytest.raises(ConfigError, match=r"unknown keys \['eve\.knd'\]"):
            config_from_json({**cfg.to_json(), "eve": {"knd": "none"}})
        assert set(qkd._CONFIG_KEYS) == set(cfg.to_json())
        assert set(qkd._EVE_KEYS) == set(cfg.eve.to_json())

    def test_unknown_resend_policy(self):
        with pytest.raises(ConfigError, match="^unknown resend policy 'x'$"):
            EveStrategy(resend_policy="x")

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
        tables = qkd._lm05_tables(cfg)
        want = np.array([[oracles.kron_outcome_probabilities(t.input, t.projectors, t.dim, u)
                          for u in cfg.encoding_sets[0]] for s in cfg.tester_sets for t in s])
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

    @pytest.mark.parametrize("rounds", [1e3, 2.5, True])
    def test_rounds_must_be_an_integer(self, rounds):
        with pytest.raises(ConfigError, match=f"^rounds must be an integer, not {rounds!r}$"):
            self._config(rounds=rounds)

    @pytest.mark.parametrize("key, value", [("d", 2.0), ("d", True), ("D", 2.0), ("D", True)])
    def test_dimensions_must_be_integers(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be an integer, not {value!r}$"):
            self._config(**{key: value})

    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_control_fraction_must_be_a_number(self, value):
        with pytest.raises(ConfigError, match=f"^control_fraction must be a number, not {value!r}$"):
            self._config(control_fraction=value)

    def test_numpy_numbers_become_plain(self):
        cfg = self._config(d=np.int64(2), D=np.int32(2), control_fraction=np.float32(0.5))
        assert cfg.to_json()["d"] == 2 and type(cfg.d) is int and type(cfg.D) is int
        assert cfg.control_fraction == 0.5 and type(cfg.control_fraction) is float

    def test_numpy_integer_rounds(self):
        cfg = self._config(rounds=np.int64(10))
        assert type(cfg.rounds) is int and cfg.rounds == 10
        assert run_extended(cfg) == run_extended(self._config(rounds=10))
        assert json.loads(json.dumps(cfg.to_json()))["rounds"] == 10


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
        _assert_tables_equal(qkd._lm05_tables(cfg), oracles.loop_lm05_tables(cfg))

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
    kernels' records and counts bit for bit on the same draws; the counts
    come from the round masks, so they are the same whether the block is
    traced (the columns formed, and for the D-ary kernel every round
    evaluated) or not (no columns, and the sifted D-ary rounds only)."""

    @pytest.mark.parametrize("n", KERNEL_BLOCKS)
    @pytest.mark.parametrize("policy, kind", LM05_TABLE_CONFIGS)
    def test_lm05(self, policy, kind, n):
        cfg = default_lm05_config(rounds=10, eve=EveStrategy(kind=kind, resend_policy=policy))
        tables = qkd._lm05_tables(cfg)
        cum = {k: qkd._cumulative(v) for k, v in tables.items() if k.startswith("p_")}
        draws = np.random.default_rng(n).random((n, 8))
        eve_kind = qkd.EVE_KINDS.index(kind)
        args = (draws, eve_kind, 0.3, cum, tables)
        untraced, no_columns = qkd._lm05_rounds(*args, False)
        counts, cols = qkd._lm05_rounds(*args, True)
        rec, want = oracles.record_lm05_rounds(draws, eve_kind, 0.3, tables)
        assert len(cols) == len(qkd._LM05_COLUMNS)
        got = np.column_stack(cols)
        assert got.dtype == rec.dtype and np.array_equal(got, rec)
        assert np.array_equal(counts, want)
        assert np.array_equal(untraced, want) and no_columns is None

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
        args = (draws, eve_kind, set_policy, D, cum, tables["decode"])
        untraced, no_columns = qkd._extended_rounds(*args, False)
        counts, cols = qkd._extended_rounds(*args, True)
        rec, want = oracles.record_extended_rounds(draws, eve_kind, set_policy, D, tables)
        assert len(cols) == len(qkd._EXT_COLUMNS)
        got = np.column_stack(cols)
        assert got.dtype == rec.dtype and np.array_equal(got, rec)
        assert np.array_equal(counts, want)
        assert np.array_equal(untraced, want) and no_columns is None


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
    def test_same_stats(self, tmp_path, protocol, kind):
        run, cfg = _bench_run(protocol, kind)
        path = tmp_path / "trace.csv"
        assert run(cfg) == run(cfg, trace=str(path))
        assert path.read_bytes().count(b"\r\n") == cfg.rounds + 1


class TestRecordsOnlyWhenTraced:
    @pytest.mark.parametrize("protocol, kernel", [("lm05", "_lm05_rounds"),
                                                  ("ext4", "_extended_rounds")])
    def test_untraced_run_builds_no_records(self, tmp_path, monkeypatch, protocol, kernel):
        kernel_fn, calls = getattr(qkd, kernel), []

        def spy_kernel(*args):
            counts, columns = kernel_fn(*args)
            calls.append((args[-1], columns is not None))  # (traced, columns formed)
            return counts, columns
        monkeypatch.setattr(qkd, kernel, spy_kernel)
        run, cfg = _bench_run(protocol, "intercept-resend")
        run(cfg)
        assert calls == [(False, False)] * 3  # the 20 000 rounds take 3 blocks
        calls.clear()
        run(cfg, trace=str(tmp_path / "trace.csv"))
        assert calls == [(True, True)] * 3


class TestEncoderOnlyWhenTraced:
    @pytest.mark.parametrize("protocol", ["lm05", "ext4"])
    def test_untraced_run_never_encodes(self, tmp_path, monkeypatch, protocol):
        encode, calls = qkd._csv_rows, []

        def spy(start, columns):
            calls.append((start, len(columns[0])))
            return encode(start, columns)
        monkeypatch.setattr(qkd, "_csv_rows", spy)
        run, cfg = _bench_run(protocol, "intercept-resend")
        run(cfg)
        assert calls == []
        run(cfg, trace=str(tmp_path / "trace.csv"))
        # every round once, in order, in chunks of at most _CHUNK rows
        starts, sizes = zip(*calls)
        assert starts == (0,) + tuple(np.cumsum(sizes[:-1]).tolist())
        assert sum(sizes) == cfg.rounds and max(sizes) <= qkd._CHUNK
        # no chunk crosses a block: the 20 000 rounds take blocks of 8192, 8192, 3616
        blocks = [min(qkd._BLOCK, cfg.rounds - b) for b in range(0, cfg.rounds, qkd._BLOCK)]
        assert len(calls) == sum(-(-b // qkd._CHUNK) for b in blocks)


class TestUntracedExtendedRunSamplesSiftedRounds:
    """Every ``_sample`` call of an untraced D-ary run gets exactly its
    block's sifted rounds, each draw column gathered in round order; a
    traced run's calls get every round of the block."""

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("kind", qkd.EVE_KINDS)
    @pytest.mark.parametrize("protocol", ["ext2", "ext4"])
    def test_sample_calls_get_the_sifted_rounds(self, tmp_path, monkeypatch, protocol, kind,
                                                traced):
        kernel_fn, sample_fn, blocks = qkd._extended_rounds, qkd._sample, []

        def spy_kernel(draws, *args):
            blocks.append((draws, []))
            return kernel_fn(draws, *args)

        def spy_sample(cum, flat, r):
            blocks[-1][1].append((r.copy(), r.flags.c_contiguous))
            return sample_fn(cum, flat, r)
        monkeypatch.setattr(qkd, "_extended_rounds", spy_kernel)
        monkeypatch.setattr(qkd, "_sample", spy_sample)
        run, cfg = _bench_run(protocol, kind)
        run(cfg, trace=str(tmp_path / "trace.csv") if traced else None)
        assert [len(draws) for draws, _ in blocks] == [qkd._BLOCK, qkd._BLOCK, 3616]
        # the draw columns sampled, in call order: Eve's collapse (intercept
        # only), Eve's outcome (any Eve), Bob's outcome
        sampled = {"none": [8], "qmm-equivalent-tester": [6, 8],
                   "intercept-resend": [5, 6, 8]}[kind]
        for draws, calls in blocks:
            sift = qkd._index(draws[:, 0], 2) == qkd._index(draws[:, 2], 2)
            rows = draws if traced else draws[sift]
            assert len(calls) == len(sampled)
            for (r, contiguous), k in zip(calls, sampled):
                assert np.array_equal(r, rows[:, k]) and (traced or contiguous)


class TestKernelsFormRowsByArithmetic:
    @pytest.mark.parametrize("kind", qkd.EVE_KINDS)
    @pytest.mark.parametrize("protocol", ["lm05", "ext2", "ext4"])
    def test_untraced_run_never_ravels(self, monkeypatch, protocol, kind):
        run, cfg = _bench_run(protocol, kind)

        def ravel(*args, **kwargs):
            raise AssertionError("a round kernel called np.ravel_multi_index")
        monkeypatch.setattr(np, "ravel_multi_index", ravel)
        assert run(cfg).rounds == 20_000


_ROW_CONFIGS = ([pytest.param(qkd._lm05_tables, default_lm05_config(
    rounds=10, control_fraction=0.3, eve=EveStrategy(kind=kind, resend_policy=policy)),
    id=f"lm05-{kind}-{policy}") for policy, kind in LM05_TABLE_CONFIGS]
    + [pytest.param(qkd._extended_tables, default_extended_config(
        D=D, rounds=10, eve=EveStrategy(kind=kind, set_policy=policy)),
        id=f"ext{D}-{kind}-{policy}")
        for D in (2, 4) for kind in qkd.EVE_KINDS for policy in qkd.SET_POLICIES])


class TestFlatRows:
    """``_rows`` gives ``np.ravel_multi_index`` of in-range index columns on
    every table a kernel reads by flat row, whether the leading axes come as
    their index column or as a shared flat row over several of them."""

    @pytest.mark.parametrize("build, cfg", _ROW_CONFIGS)
    def test_equals_ravel_multi_index(self, build, cfg):
        tables = build(cfg)
        # a distribution table's rows are its distributions, decode's its entries
        shapes = {k: v.shape[:-1] for k, v in tables.items()
                  if k.startswith("p_") or k == "collapse"}
        if "decode" in tables:
            shapes["decode"] = tables["decode"].shape
        gen = np.random.default_rng(27)
        for name, shape in shapes.items():
            idx = tuple(gen.integers(0, n, 500) for n in shape)
            want = np.ravel_multi_index(idx, shape)
            for k in range(1, len(shape)):  # the first k axes as one flat row
                lead = np.ravel_multi_index(idx[:k], shape[:k])
                got = qkd._rows(shape, lead, *idx[k:])
                assert got.dtype == np.int64 and np.array_equal(got, want), (name, k)

    def test_columns_are_not_written(self):
        lead, i = np.array([0, 1, 2]), np.array([1, 0, 1])
        assert qkd._rows((3, 2), lead, i).tolist() == [1, 2, 5]
        assert lead.tolist() == [0, 1, 2] and i.tolist() == [1, 0, 1]


class TestSample:
    """``_sample`` on flat rows, built here with ``np.ravel_multi_index`` and
    checked against the cumulative-sum oracle on the gathered rows."""

    @staticmethod
    def _oracle(table, idx, r):
        return oracles.row_sample(oracles.row_cumulative(table)[idx], r)

    def test_threshold_lands_in_next_bin(self):
        table = np.array([[0.25, 0.25, 0.25, 0.25]])
        cum = qkd._cumulative(table)
        assert cum.shape == (3, 1)
        r = np.array([0.0, 0.2499, 0.25, 0.5, 0.75, 0.9999])
        rows = np.zeros(6, dtype=np.int64)
        got = qkd._sample(cum, rows, r)
        assert got.tolist() == [0, 0, 1, 2, 3, 3]
        assert np.array_equal(got, self._oracle(table, rows, r))

    def test_deterministic_rows(self):
        table = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        cum = qkd._cumulative(table)
        r = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])
        for row, bin_ in enumerate([1, 0, 2]):
            rows = np.full(3, row)
            assert qkd._sample(cum, rows, r).tolist() == [bin_] * 3
            assert np.array_equal(qkd._sample(cum, rows, r), self._oracle(table, rows, r))

    def test_rows_by_index_tuple(self):
        table = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.0, 1.0]]])
        cum = qkd._cumulative(table)
        i, j = np.array([0, 0, 1, 1, 1]), np.array([0, 1, 0, 0, 1])
        r = np.array([0.9, 0.1, 0.4, 0.5, 0.0])
        got = qkd._sample(cum, np.ravel_multi_index((i, j), (2, 2)), r)
        assert got.tolist() == [0, 1, 0, 1, 1]
        assert np.array_equal(got, self._oracle(table, (i, j), r))

    def test_shared_flat_index(self):
        gen = np.random.default_rng(3)
        tables = [gen.random((3, 4, 5)) for _ in range(2)]
        tables = [t / t.sum(-1, keepdims=True) for t in tables]
        idx = (gen.integers(0, 3, 100), gen.integers(0, 4, 100))
        flat = np.ravel_multi_index(idx, (3, 4))
        r = gen.random(100)
        for table in tables:
            got = qkd._sample(qkd._cumulative(table), flat, r)
            assert np.array_equal(got, self._oracle(table, idx, r))


def _config(sets, encs, D=2, d=2):
    return ProtocolConfig(d=d, D=D, rounds=10, control_fraction=0.0, eve=EveStrategy(),
                          tester_sets=sets, encoding_sets=encs, rng=RngHandle(seed=0))


def _computational_set(d):
    eye = np.eye(d, dtype=complex)
    return TesterSet(tuple(Tester(input=eye[k], projectors=tuple(eye), dim=d, label=f"{k}")
                           for k in range(d)), dim=d)


def _perturbed(cfg, v):
    """The config with its second encoding family right-multiplied by v."""
    f1, f2 = cfg.encoding_sets
    return _config(cfg.tester_sets, (f1, UnitaryBasis(2, tuple(u @ v for u in f2))), D=cfg.D)


def _conjugated(cfg, w):
    """The config with every probe and projector rotated by w (x) I (the
    ``cli._conjugate_set`` pattern) and every family element conjugated as
    w u w^dag, which leaves every outcome distribution unchanged."""
    wk = np.kron(w, np.eye(cfg.tester_sets[0].testers[0].input.size // cfg.d))
    encs = tuple(UnitaryBasis(2, tuple(w @ u @ w.conj().T for u in f))
                 for f in cfg.encoding_sets)
    return _config(tuple(cli._conjugate_set(s, wk) for s in cfg.tester_sets), encs, D=cfg.D)


def _gate_configs(D):
    """A fixture, 10 Haar-conjugated copies of it, and its second family
    right-multiplied by exp(i delta H) for three deltas."""
    base = default_extended_config(D=D, rounds=10)
    ws = haar_random_unitary(2, RngHandle(D, 7).generator(), shape=(10,))
    conjugated = [_conjugated(base, w) for w in ws]
    lam, q = np.linalg.eigh(np.array([[0.3, 0.5 - 0.2j], [0.5 + 0.2j, -0.7]]))
    perturbed = [_perturbed(base, (q * np.exp(1j * delta * lam)) @ q.conj().T)
                 for delta in (1e-7, 1e-5, 1e-3)]
    return [base] + conjugated + perturbed


class TestGateAgainstTheoremCheck:
    """The run's own hypothesis check plus ``are_muub`` accepts and rejects
    the configs that the whole ``verify_prop_maximal`` gate did, with the
    same table and, on a hypothesis failure, the same message less the range
    conclusion."""

    @pytest.mark.parametrize("D", [2, 4])
    def test_same_verdicts_tables_and_messages(self, D):
        seen = set()
        for cfg in _gate_configs(D):
            report, want = oracles.gated_extended_p_out(cfg)
            if want is not None:
                seen.add("accepted")
                assert np.array_equal(qkd._extended_tables(cfg)["p_out"], want)
                continue
            with pytest.raises(HypothesisViolation) as info:
                qkd._extended_tables(cfg)
            if report.hypothesis_pass:
                seen.add("not unbiased")
                assert str(info.value).startswith(
                    "the encoding families are not mutually unbiased: ")
            else:
                seen.add("hypothesis")
                failures = [f for f in report.failures if f != oracles.RANGE_FAILURE]
                assert str(info.value) == oracles.GATE_MESSAGE + "; ".join(failures[:3])
        assert seen == {"accepted", "not unbiased", "hypothesis"}


class TestTableErrors:
    """The exact message of every table error that a valid config can reach.

    Two checks have no test.  "uses ancilla-free testers": a complete
    bipartite qubit set has 4 members, so the member count check fires
    first.  "probe lies in neither control basis": a probe that passes the
    measurement-state check is a basis vector of its own set's control
    basis up to the 1e-9 tolerances.  "deterministic outcomes do not
    separate digits" is reached only through a stand-in hypothesis check:
    at D = d = 2 a collision forces a diagonal family member, and then no
    partner family is unbiased and uniform for the set.
    """

    ZX = (named_tester_set("z"), named_tester_set("x"))
    QUBIT_COUNT = (r"^the qubit protocol needs d=2, two 2-member tester sets and one family of "
                   r"2 encodings; encoding families: {}$")

    def test_lm05_needs_d_2(self):
        cfg = _config((_computational_set(3),) * 2, (build_named_basis("weyl", 3),), D=9, d=3)
        with pytest.raises(ConfigError, match=self.QUBIT_COUNT.format(1)):
            run_lm05(cfg)

    def test_lm05_needs_2_encodings(self):
        with pytest.raises(ConfigError, match=self.QUBIT_COUNT.format(1)):
            run_lm05(_config(self.ZX, (build_named_basis("pauli", 2),), D=4))

    def test_lm05_needs_one_family(self):
        encs = (build_named_basis("rotation", 2), build_named_basis("hadamard-pair", 2))
        with pytest.raises(ConfigError, match=self.QUBIT_COUNT.format(2)):
            run_lm05(_config(self.ZX, encs))

    def test_lm05_needs_4_testers(self):
        cfg = _config((named_tester_set("bell"), named_tester_set("z")),
                      (build_named_basis("rotation", 2),))
        with pytest.raises(ConfigError, match=self.QUBIT_COUNT.format(1)):
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
        failure = "set2/family2 element {}: tester {} entropy 1.000000 bits, expected deterministic"
        want = ("tester sets are not deterministic/uniform on the encoding families: "
                + "; ".join(failure.format(j, t) for j, t in ((0, "+X"), (1, "+X"), (0, "-X"))))
        with pytest.raises(HypothesisViolation) as info:
            run_extended(_config(self.ZX, encs))
        assert str(info.value) == want

    def test_extended_colliding_outcomes(self, monkeypatch):
        # the D=2 fixture's own rows, except that tester 0 of set 1 reads
        # family 1's digit 1 off the outcome that it reads digit 0 off
        real = qkd.maximal_hypothesis

        def colliding(*args):
            rows, failures = real(*args)
            assert failures == []
            rows = (rows[0].copy(), rows[1])
            rows[0][0, 1] = rows[0][0, 0]  # rows[set][tester, family * D + digit]
            return rows, []
        monkeypatch.setattr(qkd, "maximal_hypothesis", colliding)
        with pytest.raises(HypothesisViolation,
                           match=r"^deterministic outcomes do not separate digits$"):
            run_extended(default_extended_config(D=2, rounds=10))

    def test_extended_families_not_unbiased(self):
        # a 1e-5 rotation keeps every entropy within the 1e-6-bit hypothesis,
        # but moves the cross overlaps by 2e-5, past are_muub's 1e-6
        delta = 1e-5
        cfg = _perturbed(default_extended_config(D=4, rounds=10),
                         np.cos(delta) * np.eye(2) + 1j * np.sin(delta) * SIGMA_X)
        with pytest.raises(HypothesisViolation, match=(
                r"^the encoding families are not mutually unbiased: "
                r"the largest \|overlap - kappa\| is 2\.000e-05$")):
            run_extended(cfg)

    def test_extended_leaky_set(self):
        # complete Bell probes, but only 2 of the 4 Bell projectors
        bells = bell_states()
        leaky = TesterSet(tuple(Tester(input=b, projectors=bells[:2], dim=2) for b in bells),
                          dim=2)
        encs = (build_named_basis("pauli", 2), build_named_basis("pauli-unbiased", 2))
        want = r"^leaky measurement: outcome probabilities sum to 0\.000000000$"
        with pytest.raises(LeakyMeasurementError, match=want):
            run_extended(_config((leaky, leaky), encs, D=4))
