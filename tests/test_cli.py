import json
import platform
import subprocess
import sys

import numpy as np
import pytest

import qtesters
from qtesters import cli, muub


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, json.loads(out.out), out.err


class TestVerify:
    def test_ppovm_suite_lists_100_checks(self, capsys):
        code, report, _ = run_cli(capsys, "verify", "--suite", "ppovm", "--seed", "7")
        assert code == 0 and report["status"] == "pass"
        checks = report["payload"]["suites"]["ppovm"]["checks"]
        assert len(checks) == 100
        assert all(c["pass"] for c in checks)

    def test_payloads_byte_identical_across_runs(self, capsys):
        _, r1, _ = run_cli(capsys, "verify", "--suite", "muub", "--seed", "3", "--json-only")
        _, r2, _ = run_cli(capsys, "verify", "--suite", "muub", "--seed", "3", "--json-only")
        assert json.dumps(r1["payload"], sort_keys=True) == json.dumps(r2["payload"], sort_keys=True)

    def test_stages_ms_has_one_key_per_suite_run(self, capsys):
        _, report, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "0", "--json-only")
        stages = report["stages_ms"]
        assert sorted(stages) == sorted(report["payload"]["suites"]) == sorted(cli._SUITES)
        assert all(isinstance(ms, float) and ms >= 0 for ms in stages.values())
        _, report, _ = run_cli(capsys, "verify", "--suite", "muub", "--seed", "0", "--json-only")
        assert list(report["stages_ms"]) == ["muub"]

    def test_stages_ms_keys_for_qkd_and_bound(self, capsys):
        _, report, _ = run_cli(capsys, "qkd", "lm05", "--rounds", "100", "--json-only")
        assert sorted(report["stages_ms"]) == ["rounds", "tables", "trace"]
        _, report, _ = run_cli(capsys, "bound", "--t1", "0Z", "--t2", "0X", "--starts", "1",
                               "--iters", "20", "--json-only")
        assert list(report["stages_ms"]) == ["search"]
        assert all(isinstance(ms, float) and ms >= 0 for ms in report["stages_ms"].values())

    def test_json_only_suppresses_stderr(self, capsys):
        _, _, err = run_cli(capsys, "verify", "--suite", "qmath", "--seed", "0", "--json-only")
        assert err == ""
        _, _, err = run_cli(capsys, "verify", "--suite", "qmath", "--seed", "0")
        assert "suite" in err


class TestProvenance:
    @pytest.mark.parametrize("argv", [
        ("basis", "list"),
        ("verify", "--suite", "muub"),
        ("muub-check", "--b1", "pauli", "--b2", "pauli"),
        ("bound", "--t1", "0Z", "--t2", "nosuch"),
        ("bound", "--badflag"),
    ], ids=["pass", "verify", "fail", "error", "usage-error"])
    def test_every_report_has_provenance(self, capsys, argv):
        _, report, _ = run_cli(capsys, *argv, "--json-only")
        assert report["provenance"] == {"qtesters": qtesters.__version__,
                                        "numpy": np.__version__,
                                        "python": platform.python_version()}
        assert "provenance" not in report["payload"]


class TestBound:
    def test_mub_pair_payload(self, capsys):
        code, report, _ = run_cli(capsys, "bound", "--t1", "0Z", "--t2", "0X",
                                  "--starts", "8", "--seed", "1", "--json-only")
        assert code == 0
        payload = report["payload"]
        assert payload["value"] == pytest.approx(1.0, abs=1e-3)
        assert payload["classification"] == "maximal"
        assert len(payload["starts"]) == 8
        assert len(payload["nfev"]) == len(payload["nit"]) == 8
        assert payload["converged"] == [True] * 8
        assert payload["minimizer"]["rows"] == 2
        assert payload["config"] == {"starts": 8, "iters": 2000, "tol": 1e-10, "seed": 1}

    def test_zero_iterations_exits_2(self, capsys):
        code, report, _ = run_cli(capsys, "bound", "--t1", "0Z", "--t2", "0X", "--starts", "2",
                                  "--iters", "0", "--json-only")
        assert code == 2 and report["status"] == "error"
        assert "max_iterations" in report["payload"]["error"]

    def test_usage_error_exits_2(self, capsys):
        assert cli.main(["bound", "--t1", "0Z", "--badflag"]) == 2

    def test_usage_error_prints_one_json_report(self, capsys):
        code, report, err = run_cli(capsys, "bound", "--t1", "0Z", "--badflag")
        assert code == 2 and report["status"] == "error" and report["command"] == "bound"
        assert "--t2" in report["payload"]["error"]
        assert "usage: qtesters bound" in err
        code, report, err = run_cli(capsys, "bound", "--t1", "0Z", "--t2", "0X", "--starts", "x",
                                    "--json-only")
        assert code == 2 and "invalid int value" in report["payload"]["error"]
        assert err == ""
        code, report, _ = run_cli(capsys, "nope", "--json-only")
        assert code == 2 and report["command"] is None and "invalid choice" in report["payload"]["error"]

    def test_help_exits_0(self, capsys):
        assert cli.main(["bound", "-h"]) == 0
        assert cli.main(["--help"]) == 0
        assert "usage: qtesters" in capsys.readouterr().out

    def test_unknown_tester_exits_2(self, capsys):
        code, report, _ = run_cli(capsys, "bound", "--t1", "0Z", "--t2", "9Q", "--json-only")
        assert code == 2 and report["status"] == "error"

    def test_tester_file_input(self, capsys, tmp_path):
        from qtesters.tester import named_tester

        path = tmp_path / "t.json"
        path.write_text(json.dumps(named_tester("+X").to_json()))
        code, report, _ = run_cli(capsys, "bound", "--t1", "0Z", "--t2", str(path),
                                  "--starts", "8", "--seed", "1", "--json-only")
        assert code == 0
        assert report["payload"]["value"] == pytest.approx(0.0, abs=1e-5)

    @pytest.mark.parametrize("zz_first", [False, True])
    def test_classification_does_not_depend_on_order(self, capsys, tmp_path, zz_first):
        from qtesters.tester import KET0, KET1, Tester

        zz = tuple(np.kron(a, b) for a in (KET0, KET1) for b in (KET0, KET1))
        cases = [
            # probe |00> measured in Z (x) Z has 4 outcomes, and 0X has 2;
            # either can be made deterministic, so 1 bit = log2 2 is the
            # largest bound
            (zz[0], 1.0, "maximal"),
            # the Bell probe (|00> + |11>)/sqrt2 in Z (x) Z has 1 + H_Z(u|0>)
            # bits under u (x) I, and 0X has H_X(u|0>); Maassen-Uffink puts
            # H_Z + H_X >= 1, so the bound is 2 bits, above log2 2
            ((zz[0] + zz[3]) / np.sqrt(2), 2.0, "above-cap"),
        ]
        path = tmp_path / "zz.json"
        t1, t2 = (str(path), "0X") if zz_first else ("0X", str(path))
        for psi, value, label in cases:
            path.write_text(json.dumps(Tester(input=psi, projectors=zz, dim=2,
                                              label="zz").to_json()))
            code, report, _ = run_cli(capsys, "bound", "--t1", t1, "--t2", t2,
                                      "--starts", "8", "--seed", "1", "--json-only")
            assert code == 0
            assert report["payload"]["value"] == pytest.approx(value, abs=1e-3)
            assert report["payload"]["classification"] == label


class TestMuubCheck:
    def test_verdict_true_exits_0(self, capsys):
        code, report, _ = run_cli(capsys, "muub-check", "--b1", "rotation",
                                  "--b2", "hadamard-pair", "--json-only")
        assert code == 0
        assert report["payload"]["kappa"] == pytest.approx(2.0, abs=1e-6)
        assert report["payload"]["config"] == {"d": 2, "tol": 1e-6}

    def test_verdict_false_exits_1(self, capsys):
        code, report, _ = run_cli(capsys, "muub-check", "--b1", "pauli",
                                  "--b2", "pauli", "--json-only")
        assert code == 1 and report["status"] == "fail"

    def test_d_with_two_basis_files_exits_2(self, capsys, tmp_path):
        w3 = tmp_path / "w3.json"
        w3.write_text(json.dumps(muub.build_named_basis("weyl", 3).to_json()))
        code, report, _ = run_cli(capsys, "muub-check", "--b1", str(w3), "--b2", str(w3),
                                  "--d", "7", "--json-only")
        assert code == 2 and report["status"] == "error"
        assert "--d" in report["payload"]["error"]
        # without --d, or with a named basis for --d to size, the check runs
        for d_args in ([], ["--d", "3"]):
            b1 = "weyl" if d_args else str(w3)
            code, report, _ = run_cli(capsys, "muub-check", "--b1", b1, "--b2", str(w3),
                                      *d_args, "--json-only")
            assert code == 1 and report["payload"]["config"]["d"] == 3


class TestBasis:
    def test_list(self, capsys):
        code, report, _ = run_cli(capsys, "basis", "list", "--json-only")
        assert code == 0 and "weyl" in report["payload"]["names"]

    @pytest.mark.parametrize("flags", [["--name", "weyl"], ["--d", "3"],
                                       ["--name", "nosuch", "--d", "7"]])
    def test_list_with_a_dump_flag_exits_2(self, capsys, flags):
        code, report, _ = run_cli(capsys, "basis", "list", *flags, "--json-only")
        assert code == 2 and report["status"] == "error"
        named = [f for f in ("--name", "--d") if f in flags]
        assert report["payload"]["error"].startswith(
            f"basis list does not take {' or '.join(named)};")

    def test_dump_defaults_to_pauli_d2(self, capsys):
        code, report, _ = run_cli(capsys, "basis", "dump", "--json-only")
        assert code == 0 and report["payload"]["name"] == "pauli"
        assert report["payload"] == {"name": "pauli",
                                     **muub.build_named_basis("pauli", 2).to_json()}

    def test_dump_weyl_d3(self, capsys):
        code, report, _ = run_cli(capsys, "basis", "dump", "--name", "weyl",
                                  "--d", "3", "--json-only")
        assert code == 0
        assert len(report["payload"]["elements"]) == 9
        assert report["payload"]["elements"][0]["rows"] == 3


class TestQkd:
    def test_lm05_run(self, capsys):
        code, report, _ = run_cli(capsys, "qkd", "lm05", "--rounds", "2000",
                                  "--control-fraction", "0.2", "--eve", "qmm",
                                  "--seed", "5", "--json-only")
        assert code == 0
        stats = report["payload"]["stats"]
        assert stats["rounds"] == 2000
        assert stats["eve_accuracy"] == 1.0

    def test_extended_with_config_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "d": 2, "D": 2, "rounds": 1000,
            "eve": {"kind": "qmm-equivalent-tester"},
            "tester_sets": ["z", "xcomp"],
            "encoding_sets": ["rotation", "hadamard-pair"],
            "seed": 9,
        }))
        code, report, _ = run_cli(capsys, "qkd", "extended", "--config", str(cfgfile),
                                  "--json-only")
        assert code == 0
        assert report["payload"]["stats"]["sifted"] > 0

    def test_config_with_overrides_rejected(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "rounds": 10, "tester_sets": ["z", "xcomp"],
            "encoding_sets": ["rotation", "hadamard-pair"],
        }))
        code, report, _ = run_cli(capsys, "qkd", "extended", "--config", str(cfgfile),
                                  "--rounds", "99", "--json-only")
        assert code == 2

    def test_config_with_eve_override_rejected(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "rounds": 10, "tester_sets": ["z", "xcomp"],
            "encoding_sets": ["rotation", "hadamard-pair"],
        }))
        code, report, _ = run_cli(capsys, "qkd", "extended", "--config", str(cfgfile),
                                  "--eve", "qmm", "--json-only")
        assert code == 2 and "--eve" in report["payload"]["error"]

    def test_empty_tester_set_in_config_exits_2(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "rounds": 10, "tester_sets": [[], "x"], "encoding_sets": ["rotation"],
        }))
        code, report, _ = run_cli(capsys, "qkd", "lm05", "--config", str(cfgfile),
                                  "--json-only")
        assert code == 2 and report["status"] == "error"
        assert "empty tester set" in report["payload"]["error"]

    def test_empty_encoding_sets_in_config_exits_2(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "rounds": 10, "tester_sets": ["z", "x"], "encoding_sets": [],
        }))
        code, report, _ = run_cli(capsys, "qkd", "lm05", "--config", str(cfgfile),
                                  "--json-only")
        assert code == 2 and report["status"] == "error"
        assert "encoding_sets" in report["payload"]["error"]

    def test_extended_rejects_control_fraction(self, capsys):
        code, report, _ = run_cli(capsys, "qkd", "extended", "--rounds", "10",
                                  "--control-fraction", "0.5", "--json-only")
        assert code == 2 and report["status"] == "error"

    def test_lm05_rejects_D(self, capsys):
        code, report, _ = run_cli(capsys, "qkd", "lm05", "--rounds", "10", "--D", "4",
                                  "--json-only")
        assert code == 2 and report["status"] == "error"

    def test_d_flag_is_not_accepted(self, capsys):
        assert cli.main(["qkd", "lm05", "--rounds", "10", "--d", "7"]) == 2

    def test_trace_flag(self, capsys, tmp_path):
        path = tmp_path / "rounds.csv"
        code, _, _ = run_cli(capsys, "qkd", "extended", "--rounds", "100",
                             "--seed", "0", "--trace", str(path), "--json-only")
        assert code == 0
        assert len(path.read_text().strip().splitlines()) == 101


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run([sys.executable, "-m", "qtesters.cli", "basis", "list",
                               "--json-only"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "pass"
        assert proc.stderr == ""

    def test_import_loads_no_scipy(self):
        code = ("import sys, qtesters, qtesters.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestMalformedLiterals:
    """Malformed tester, basis and config literals exit 2 with a JSON error."""

    def _file(self, tmp_path, obj, name="in.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    def _expect_error(self, capsys, *argv):
        code, report, _ = run_cli(capsys, *argv, "--json-only")
        assert code == 2 and report["status"] == "error"
        return report["payload"]["error"]

    def test_tester_literal_not_an_object(self, capsys, tmp_path):
        path = self._file(tmp_path, [1])
        self._expect_error(capsys, "bound", "--t1", path, "--t2", "0X", "--starts", "1")

    def test_tester_literal_with_bad_state(self, capsys, tmp_path):
        path = self._file(tmp_path, {"dim": 2, "input": [1], "projectors": []})
        self._expect_error(capsys, "bound", "--t1", path, "--t2", "0X", "--starts", "1")

    def test_basis_literal_with_bad_element(self, capsys, tmp_path):
        path = self._file(tmp_path, {"dim": 2, "elements": [1]})
        self._expect_error(capsys, "muub-check", "--b1", path, "--b2", "pauli")

    def test_basis_literal_with_huge_entries(self, capsys, tmp_path):
        big = {"rows": 2, "cols": 2, "entries": [[1e300, 0.0]] * 4}
        path = self._file(tmp_path, {"dim": 2, "elements": [big, big]})
        self._expect_error(capsys, "muub-check", "--b1", path, "--b2", "rotation")

    def test_config_not_an_object(self, capsys, tmp_path):
        path = self._file(tmp_path, ["z", "x"])
        self._expect_error(capsys, "qkd", "lm05", "--config", path)

    def test_config_eve_not_an_object(self, capsys, tmp_path):
        path = self._file(tmp_path, {"rounds": 10, "tester_sets": ["z", "x"],
                                     "encoding_sets": ["rotation"], "eve": "qmm"})
        self._expect_error(capsys, "qkd", "lm05", "--config", path)

    def test_config_family_size_not_D(self, capsys, tmp_path):
        path = self._file(tmp_path, {"d": 2, "D": 9, "rounds": 10, "tester_sets": ["z", "x"],
                                     "encoding_sets": ["rotation"]})
        assert "D=9" in self._expect_error(capsys, "qkd", "lm05", "--config", path)

    @pytest.mark.parametrize("rounds", [2.7, True, "12"])
    def test_config_rounds_not_an_integer(self, capsys, tmp_path, rounds):
        path = self._file(tmp_path, {"rounds": rounds, "tester_sets": ["z", "x"],
                                     "encoding_sets": ["rotation"]})
        error = self._expect_error(capsys, "qkd", "lm05", "--config", path)
        assert "rounds must be an integer" in error

    def test_negative_seed_fails_before_the_tables(self, capsys):
        code, report, _ = run_cli(capsys, "qkd", "lm05", "--rounds", "10", "--seed", "-1",
                                  "--json-only")
        assert code == 2 and report["status"] == "error"
        assert report["payload"]["error"].startswith("rng seed must be a non-negative integer")
        assert report["stages_ms"] == {}

    @pytest.mark.parametrize("dim,message", [
        # (-2)^2 = 4 matches the probe size, so only the sign is wrong
        (-2, "tester dimension must be at least 1, got dim=-2"),
        # a valid tester, but su(1) has no generators to search over
        (1, "su(d) needs d >= 2, got d=1"),
    ])
    def test_bound_on_a_dimension_below_2(self, capsys, tmp_path, dim, message):
        from qtesters.qmath import state_to_json

        basis = [state_to_json(e) for e in np.eye(dim * dim)]
        path = self._file(tmp_path, {"dim": dim, "input": basis[0], "projectors": basis})
        error = self._expect_error(capsys, "bound", "--t1", path, "--t2", path, "--starts", "1")
        assert error == message

    def test_nan_tolerance(self, capsys):
        error = self._expect_error(capsys, "bound", "--t1", "0Z", "--t2", "0X",
                                   "--starts", "1", "--tol", "nan")
        assert "tolerance" in error


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("argv", [
    ("muub-check", "--b1", "pauli", "--b2", "pauli"),
    ("bound", "--t1", "0Z", "--t2", "0X", "--starts", "1"),
], ids=["muub-check", "bound"])
def test_tolerance_must_be_finite_and_positive(capsys, argv, tol):
    code, report, _ = run_cli(capsys, *argv, "--tol", tol, "--json-only")
    assert code == 2 and report["status"] == "error"
    assert "tolerance must be finite and positive" in report["payload"]["error"]
