"""Property tests of the CLI error contract over generated JSON files and
generated argv.

Each file example writes one JSON value as a tester, basis or
protocol-config file and runs ``cli.main`` on it in-process.  The values
are arbitrary JSON (NaN and infinities included) or valid literals with up
to two parts replaced, dropped or rebuilt, so both the parsers and the
checks behind them are reached.  The argv examples are built from the
parser's own commands, flags and choices mixed with junk values, so they
reach argparse's usage errors as well as the handlers.  Whatever the
input, ``main`` must return 0, 1 or 2, print exactly one strict-JSON report
whose status matches the exit code, and let no exception escape.  A
tester or basis file must exit 2 when its ``dim``, or a matrix's ``rows``
or ``cols``, is a bool, a string or a non-integral float; when the literal
or one of its matrices has a key that its ``to_json()`` does not write;
when a tester's label is not a string; or when the real or imaginary half
of a matrix entry is a bool or a string.  Of those examples, 1 in 4 hold
a literal its reader accepts; of the rest, 2 in 5 set one integer field to
a value that looks like an integer, 1 in 5 add a key, and 1 in 5 set one
entry half to a bool, a string or a number.  A config file must exit 2
when one of its inline tester or basis literals would; half of its
examples add a key to one of them or to one of their matrices.  Round
counts, starts and iterations are kept small so that a valid run finishes
quickly.

Every tester, basis and matrix literal those examples hold that its reader
accepts, and every config that ``ProtocolConfig.to_json()`` writes, reads
back to itself: ``to_json(from_json(x))`` equals ``x`` on every key ``x``
has, with numbers compared as floats.
"""

import argparse
import contextlib
import copy
import io
import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtesters import cli, muub, qkd, qmath, tester

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
TESTER_MATRICES, BASIS_MATRICES = ("input", "projectors"), ("elements",)  # keys of matrix literals
# the keys each literal may have: those its to_json() writes
TESTER_KEYS, BASIS_KEYS = tuple(TESTER_LITERALS[0]), tuple(BASIS_LITERALS[0])
MATRIX_KEYS = tuple(BASIS_LITERALS[0]["elements"][0])
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


def _main(argv) -> tuple:
    """Runs ``cli.main`` and checks its exit code and its one report;
    returns the exit code and what it wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, lines
    report = json.loads(lines[0], parse_constant=_strict_constant)
    assert report["status"] == {0: "pass", 1: "fail", 2: "error"}[code]
    return code, err.getvalue()


def _run(path, obj, argv) -> int:
    path.write_text(json.dumps(obj))
    code, err = _main(argv)
    assert err == ""
    return code


def _not_an_integer(value) -> bool:
    """A bool, a string or a non-integral float (NaN and the infinities too)."""
    return isinstance(value, (bool, str)) or isinstance(value, float) and not value.is_integer()


def _matrices(obj, matrix_keys) -> list:
    """The matrix literals (dicts) under a key of ``matrix_keys`` of the
    literal ``obj``, as the value there or in a list there."""
    if not isinstance(obj, dict):
        return []
    matrices = []
    for k in matrix_keys:
        v = obj.get(k)
        matrices += [v] if isinstance(v, dict) else v if isinstance(v, list) else []
    return [m for m in matrices if isinstance(m, dict)]


def _integer_slots(obj, matrix_keys) -> list:
    """(dict, key) for the ``dim`` of the literal ``obj`` and for the ``rows``
    and ``cols`` of each of its matrix literals."""
    if not isinstance(obj, dict):
        return []
    return [(obj, "dim")] + [(m, f) for m in _matrices(obj, matrix_keys)
                             for f in ("rows", "cols")]


def _entry_halves(obj, matrix_keys) -> list:
    """(entry, 0 or 1) for each half of each two-item entry of a matrix
    literal of ``obj``."""
    return [(e, i) for m in _matrices(obj, matrix_keys)
            if isinstance(m.get("entries"), list)
            for e in m["entries"] if isinstance(e, list) and len(e) == 2 for i in (0, 1)]


def _bad_integer_field(obj, matrix_keys) -> bool:
    """Whether an integer field of ``obj`` is present and not an integer.  The
    readers reach every such field unless the literal fails earlier, which
    also exits 2."""
    return any(k in m and _not_an_integer(m[k]) for m, k in _integer_slots(obj, matrix_keys))


def _not_strict(obj, keys, matrix_keys) -> bool:
    """Whether the literal ``obj`` or one of its matrices has a key outside
    ``keys`` or ``MATRIX_KEYS``, its label is not a string, or an entry half
    is a bool or a string.  The readers reach all of these unless the
    literal fails earlier, which also exits 2."""
    if not isinstance(obj, dict):
        return False
    return (any(k not in keys for k in obj)
            or "label" in obj and not isinstance(obj["label"], str)
            or any(k not in MATRIX_KEYS for m in _matrices(obj, matrix_keys) for k in m)
            or any(isinstance(e[i], (bool, str)) for e, i in _entry_halves(obj, matrix_keys)))


INTEGER_LOOKALIKES = [2.5, 2.9, 1.5, "2", "4", True, False, float("nan"), 2.0, 4.0, 2]
# keys of one literal or another, misspelled or not, and entry-half values
KEY_LOOKALIKES = ["lable", "Dim", "label", "dim", "rows", "entries", "elements", "projectors", ""]
HALF_LOOKALIKES = [True, False, "1", "0", 1, 0, 1.0, 0.0]


@st.composite
def _literal_files(draw, literals, matrix_keys):
    """1 time in 4, one of ``literals`` with its values unmutated, each
    integer field written as an int or as the equal float (Hypothesis never
    repeats an example, so a literal copied as it is could be drawn only
    once); otherwise ``_json_files`` with at most one more edit: 2 times in
    5, one integer field set to a value from ``INTEGER_LOOKALIKES``
    (integral floats and integers among them); 1 time in 5, a key from
    ``KEY_LOOKALIKES`` added to the literal or one of its matrices (if it
    is not there); 1 time in 5, one entry half set to a value from
    ``HALF_LOOKALIKES``."""
    if draw(st.integers(0, 3)) == 0:  # a literal its reader accepts
        obj = copy.deepcopy(draw(st.sampled_from(literals)))
        for m, k in _integer_slots(obj, matrix_keys):
            m[k] = draw(st.sampled_from((int, float)))(m[k])
        return obj
    obj = copy.deepcopy(draw(_json_files(literals)))
    edit = draw(st.sampled_from(("none", "integer", "integer", "key", "half")))
    slots, halves = _integer_slots(obj, matrix_keys), _entry_halves(obj, matrix_keys)
    if edit == "integer" and slots:
        m, k = draw(st.sampled_from(slots))
        m[k] = draw(st.sampled_from(INTEGER_LOOKALIKES))
    elif edit == "key" and isinstance(obj, dict):
        target = draw(st.sampled_from([obj] + _matrices(obj, matrix_keys)))
        target.setdefault(draw(st.sampled_from(KEY_LOOKALIKES)), draw(JSON_LEAVES))
    elif edit == "half" and halves:
        e, i = draw(st.sampled_from(halves))
        e[i] = draw(st.sampled_from(HALF_LOOKALIKES))
    return obj


FUZZ = settings(derandomize=True, deadline=None, max_examples=150, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(obj=_literal_files(TESTER_LITERALS, TESTER_MATRICES), other=st.sampled_from(("0X", "+Z")))
def test_tester_files(fuzz_dir, obj, other):
    path = fuzz_dir / "tester.json"
    code = _run(path, obj, ["bound", "--t1", str(path), "--t2", other,
                            "--starts", "1", "--iters", "20", "--json-only"])
    if _bad_integer_field(obj, TESTER_MATRICES) or _not_strict(obj, TESTER_KEYS, TESTER_MATRICES):
        assert code == 2


@FUZZ
@given(obj=_literal_files(BASIS_LITERALS, BASIS_MATRICES),
       other=st.sampled_from(("pauli", "rotation", None)))
def test_basis_files(fuzz_dir, obj, other):
    path = fuzz_dir / "basis.json"
    code = _run(path, obj, ["muub-check", "--b1", str(path), "--b2", other or str(path),
                            "--json-only"])
    if _bad_integer_field(obj, BASIS_MATRICES) or _not_strict(obj, BASIS_KEYS, BASIS_MATRICES):
        assert code == 2


def _nested_literals(cfg) -> list:
    """(literal, its keys, its matrix keys) for each tester literal of a
    tester set and each basis literal of ``encoding_sets`` of the config
    ``cfg``."""
    if not isinstance(cfg, dict):
        return []
    sets, families = cfg.get("tester_sets"), cfg.get("encoding_sets")
    testers = [t for s in (sets if isinstance(sets, list) else []) if isinstance(s, list)
               for t in s if isinstance(t, dict)]
    bases = [b for b in (families if isinstance(families, list) else []) if isinstance(b, dict)]
    return ([(t, TESTER_KEYS, TESTER_MATRICES) for t in testers]
            + [(b, BASIS_KEYS, BASIS_MATRICES) for b in bases])


@st.composite
def _config_files(draw):
    """``_json_files`` of ``CONFIG_LITERALS`` with, 1 time in 2, a key from
    ``KEY_LOOKALIKES`` added to one of its inline tester or basis literals,
    or to one of their matrices (if it is not there)."""
    obj = copy.deepcopy(draw(_json_files(CONFIG_LITERALS)))
    nested = _nested_literals(obj)
    if nested and draw(st.booleans()):
        literal, _, matrix_keys = draw(st.sampled_from(nested))
        target = draw(st.sampled_from([literal] + _matrices(literal, matrix_keys)))
        target.setdefault(draw(st.sampled_from(KEY_LOOKALIKES)), draw(JSON_LEAVES))
    return obj


@FUZZ
@given(obj=_config_files(), protocol=st.sampled_from(("lm05", "extended")))
def test_config_files(fuzz_dir, obj, protocol):
    path = fuzz_dir / "config.json"
    code = _run(path, _small_rounds(obj), ["qkd", protocol, "--config", str(path), "--json-only"])
    # the config reader reads every inline literal with the tester and basis readers
    if any(_bad_integer_field(lit, mk) or _not_strict(lit, keys, mk)
           for lit, keys, mk in _nested_literals(obj)):
        assert code == 2


def _agrees(x, y) -> bool:
    """Whether ``y`` equals ``x`` on every key that ``x`` has, at every
    depth, with numbers compared as floats."""
    if isinstance(x, dict):
        return isinstance(y, dict) and all(k in y and _agrees(v, y[k]) for k, v in x.items())
    if isinstance(x, list):
        return isinstance(y, list) and len(x) == len(y) and all(map(_agrees, x, y))
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return (isinstance(y, (int, float)) and not isinstance(y, bool)
                and float(x) == float(y))
    return type(x) is type(y) and x == y


def _check_round_trips(obj, read, matrix_keys):
    """``obj`` and each of its matrix literals, where its reader accepts
    it, reads back to itself."""
    cases = [(obj, read, lambda value: value.to_json())]
    cases += [(m, qmath.matrix_from_json, qmath.matrix_to_json)
              for m in _matrices(obj, matrix_keys)]
    for literal, reader, writer in cases:
        try:
            value = reader(literal)
        except ValueError:
            continue
        written = writer(value)
        assert _agrees(literal, written), (literal, written)


@FUZZ
@given(obj=_literal_files(TESTER_LITERALS, TESTER_MATRICES))
def test_accepted_tester_literals_round_trip(obj):
    _check_round_trips(obj, tester.tester_from_json, TESTER_MATRICES)


@FUZZ
@given(obj=_literal_files(BASIS_LITERALS, BASIS_MATRICES))
def test_accepted_basis_literals_round_trip(obj):
    _check_round_trips(obj, muub.basis_from_json, BASIS_MATRICES)


@st.composite
def _configs(draw):
    """A config as ``ProtocolConfig.to_json()`` writes it, through JSON text."""
    eve = qkd.EveStrategy(*(draw(st.sampled_from(choices)) for choices in (
        qkd.EVE_KINDS, qkd.RESEND_POLICIES, qkd.SET_POLICIES)))
    common = {"rounds": draw(st.integers(1, 10 ** 12)), "eve": eve,
              "seed": draw(st.integers(0, 2 ** 64)), "stream": draw(st.integers(0, 2 ** 16))}
    if draw(st.booleans()):
        cfg = qkd.default_lm05_config(control_fraction=draw(st.floats(0, 1)), **common)
    else:
        cfg = qkd.default_extended_config(D=draw(st.sampled_from((2, 4))), **common)
    return json.loads(json.dumps(cfg.to_json()))


@FUZZ
@given(obj=_configs())
def test_written_configs_round_trip(obj):
    written = qkd.config_from_json(obj).to_json()
    assert _agrees(obj, written)
    assert _agrees(written, obj)


def _vocabulary():
    """Per command, its flags (flag -> choices, or None for a free value, or
    () for a switch) and the choices of its positionals."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    vocab = {}
    for name, sp in sub.choices.items():
        flags, positionals = {}, []
        for act in sp._actions:
            if isinstance(act, argparse._HelpAction):
                continue
            if not act.option_strings:
                positionals.extend(act.choices)
            else:
                flags[act.option_strings[0]] = () if act.nargs == 0 else act.choices
        vocab[name] = (flags, positionals)
    return vocab


VOCAB = _vocabulary()
ALL_FLAGS = sorted({f for flags, _ in VOCAB.values() for f in flags})
POSITIONALS = sorted({p for _, pos in VOCAB.values() for p in pos})
JUNK = ["0", "1", "2", "3", "-1", "nan", "inf", "-inf", "0.5", "1e-3", "x", "", "0Z", "pauli"]
# A valid, quick argv tail per command, which the generated tokens extend
# or override; the default suite "all" and a 16-start bound search are too
# slow to run per example, so "all" is never drawn either.
BASE = {"verify": ["--suite", "muub"],
        "bound": ["--t1", "0Z", "--t2", "0X", "--starts", "1", "--iters", "20"],
        "muub-check": ["--b1", "pauli", "--b2", "rotation"],
        "qkd": ["--rounds", "50"]}


@st.composite
def _argvs(draw, trace_paths):
    command = draw(st.sampled_from(sorted(VOCAB) + ["nope", "", "--json-only"]))
    flags, positionals = VOCAB.get(command, ({}, []))
    argv = [command]
    if positionals and draw(st.integers(0, 4)):
        argv.append(draw(st.sampled_from(positionals)))
    if draw(st.integers(0, 3)):
        argv += BASE.get(command, [])
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("own-flag",) * 6 + ("any-flag", "positional", "junk")))
        if kind == "positional":
            argv.append(draw(st.sampled_from(positionals or POSITIONALS)))
        elif kind == "junk":
            argv.append(draw(st.sampled_from(JUNK)))
        else:
            flag = draw(st.sampled_from(sorted(flags) if kind == "own-flag" and flags
                                        else ALL_FLAGS))
            argv.append(flag)
            choices = flags.get(flag)
            if choices == () or draw(st.integers(0, 9)) == 0:  # a switch, or a value left out
                continue
            if flag == "--trace":  # never write outside the test's directory
                pool = trace_paths
            elif choices:
                pool = [c for c in choices if c != "all"] + ["x"]
            else:  # junk, and the values the base argv gives this flag
                pool = JUNK + [v for tail in BASE.values()
                               for f, v in zip(tail, tail[1:]) if f == flag]
            argv.append(draw(st.sampled_from(pool)))
    return argv


@FUZZ
@given(data=st.data())
def test_generated_argv(fuzz_dir, data):
    argv = data.draw(_argvs([str(fuzz_dir / "trace.csv"), str(fuzz_dir), ""]))
    # a token after a --trace whose value was left out becomes its path, so
    # run where a stray relative file can land
    cwd = os.getcwd()
    os.chdir(fuzz_dir)
    try:
        _, err = _main(argv)
    finally:
        os.chdir(cwd)
    if "--json-only" in argv:
        assert err == ""
