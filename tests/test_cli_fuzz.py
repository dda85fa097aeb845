"""Property test of the CLI error contract over generated JSON files.

Each example writes one JSON value as a tester, basis or protocol-config
file and runs ``cli.main`` on it in-process.  The values are arbitrary JSON
(NaN and infinities included) or valid literals with up to two parts
replaced, dropped or rebuilt, so both the parsers and the checks behind
them are reached.  Whatever the file holds, ``main`` must return 0, 1 or 2,
print exactly one strict-JSON report whose status matches the exit code,
and let no exception escape.  Round counts are kept small so that a valid
config finishes quickly.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtesters import cli, muub, qkd, tester

JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10), st.integers(), st.floats(), st.text(max_size=8),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)

TESTER_LITERALS = [tester.named_tester(n).to_json() for n in ("+X", "bell:1")]
BASIS_LITERALS = [muub.build_named_basis(n, d).to_json()
                  for n, d in (("pauli", 2), ("rotation", 2), ("weyl", 3))]
CONFIG_LITERALS = [
    qkd.default_lm05_config(rounds=50, control_fraction=0.3).to_json(),
    {"d": 2, "D": 2, "rounds": 50, "tester_sets": ["z", "xcomp"],
     "encoding_sets": ["rotation", "hadamard-pair"],
     "eve": {"kind": "qmm-equivalent-tester", "set_policy": "uniform"}, "seed": 1},
    {"d": 2, "D": 4, "rounds": 50, "tester_sets": ["bell", "bell-rot"],
     "encoding_sets": ["pauli", "pauli-unbiased"], "eve": {"kind": "intercept-resend"}},
]
MAX_ROUNDS = 200


def _mutate(draw, obj):
    """``obj`` with one nested part replaced, dropped or itself mutated."""
    if isinstance(obj, (dict, list)) and obj:
        key = draw(st.sampled_from(sorted(obj) if isinstance(obj, dict) else range(len(obj))))
        out = dict(obj) if isinstance(obj, dict) else list(obj)
        action = draw(st.sampled_from(("descend", "descend", "replace", "drop")))
        if action == "drop":
            del out[key]
        else:
            out[key] = _mutate(draw, obj[key]) if action == "descend" else draw(JSON_VALUES)
        return out
    return draw(JSON_VALUES)


@st.composite
def _json_files(draw, literals):
    if draw(st.integers(0, 3)) == 0:
        return draw(JSON_VALUES)
    obj = draw(st.sampled_from(literals))
    for _ in range(draw(st.integers(0, 2))):
        obj = _mutate(draw, obj)
    return obj


def _small_rounds(cfg):
    """Caps a finite numeric round count, so a valid config runs briefly."""
    if isinstance(cfg, dict):
        rounds = cfg.get("rounds")
        if (isinstance(rounds, (int, float)) and not isinstance(rounds, bool)
                and math.isfinite(rounds) and rounds > MAX_ROUNDS):
            cfg = {**cfg, "rounds": MAX_ROUNDS}
    return cfg


def _strict_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run(path, obj, argv):
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, lines
    report = json.loads(lines[0], parse_constant=_strict_constant)
    assert report["status"] == {0: "pass", 1: "fail", 2: "error"}[code]
    assert err.getvalue() == ""


FUZZ = settings(derandomize=True, deadline=None, max_examples=150, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(obj=_json_files(TESTER_LITERALS), other=st.sampled_from(("0X", "+Z")))
def test_tester_files(fuzz_dir, obj, other):
    path = fuzz_dir / "tester.json"
    _run(path, obj, ["bound", "--t1", str(path), "--t2", other,
                     "--starts", "1", "--iters", "20", "--json-only"])


@FUZZ
@given(obj=_json_files(BASIS_LITERALS), other=st.sampled_from(("pauli", "rotation", None)))
def test_basis_files(fuzz_dir, obj, other):
    path = fuzz_dir / "basis.json"
    _run(path, obj, ["muub-check", "--b1", str(path), "--b2", other or str(path), "--json-only"])


@FUZZ
@given(obj=_json_files(CONFIG_LITERALS), protocol=st.sampled_from(("lm05", "extended")))
def test_config_files(fuzz_dir, obj, protocol):
    path = fuzz_dir / "config.json"
    _run(path, _small_rounds(obj), ["qkd", protocol, "--config", str(path), "--json-only"])
