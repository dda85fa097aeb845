"""Monte-Carlo simulation of two-way (bidirectional) key distribution.

Two protocols are modeled, both with the same cast: Bob owns testers and
sends their probe states forward, Alice encodes by applying a unitary to
whatever arrives and returns it, Bob measures the returned state with the
tester he started with.

* ``run_lm05`` - the qubit protocol.  Bob draws a tester uniformly from
  the union of two complete sets; Alice either encodes a bit (identity =
  0, the flip i*sigma_y = 1) or, with the configured control fraction,
  measures the incoming qubit in a random basis and publishes the result.
  Control rounds where her basis matches the basis of Bob's probe are
  compared against the state he actually sent; the mismatch rate is the
  eavesdropping alarm.

* ``run_extended`` - the D-ary protocol.  Bob draws one of two complete
  tester sets and a tester within it; Alice draws one of two unitary
  encoding families and a digit.  After her public family announcement the
  rounds where Bob's set is uniform for her family are discarded; on the
  kept rounds his deterministic outcome decodes the digit.  A run first
  checks, on its own outcome rows, that each tester set is deterministic on
  its own family and uniform on the other, and then, with ``are_muub``,
  that the families are mutually unbiased unitary bases; ``verify --suite
  props`` checks the theorem's range conclusion.

The adversary is configurable: ``none``, a tester-hijack
(``qmm-equivalent-tester``: Eve keeps Bob's probe, runs her own tester
against Alice, then applies her inferred unitary to the kept probe), or
``intercept-resend`` (Eve measures in flight, never storing anything).

A run first builds its outcome tables.  Each is one stacked Born-rule
product |M (U psi)|^2 over whole arrays of probes or control states psi,
conjugated measurement rows M and encodings U, with entries below 1e-9
snapped to exact zeros, and is kept as cumulative thresholds.  A block of
rounds samples every round's outcome at once: the round's table indices
give one flat row index, and its uniform draw is compared with each
threshold of that row.  The kernels form each flat row by integer
arithmetic (``_rows``), with the strides taken from the table's shape; the
index columns are in range by construction, so nothing checks them.
Tables that share leading axes share their leading product: Bob's
(set, tester) serves his outcome row and his decode row, Eve's hers, and
two samples of one round that read equally shaped tables share one flat
row.  A block yields its counts straight from the round masks, and forms
one array per record column only when the run is traced.  Every count of
the D-ary protocol reads only the sifted rounds, so an untraced D-ary block
gathers those rounds' draws first and evaluates only them; a traced block
records, and so evaluates, every round.  Each round's outcome depends only
on its own draws and the tables, so the counts are the same either way.

All per-round randomness is pre-drawn in a fixed column layout, in
blocks of rounds that continue one generator stream, so a run is
bit-for-bit reproducible from its (seed, stream) and its memory does not
grow with the round count.

Trace format.  Given ``trace``, a path (a ``str``, ``bytes`` or
``os.PathLike``, and nothing else: a handle, an int file descriptor or a
bool raises ``TypeError`` before anything is opened), a run writes a CSV
file: a header line ``round,<record columns>`` (the columns are
``_LM05_COLUMNS`` and ``_EXT_COLUMNS``), then one line per round holding
the round index and the round's record, all decimal integers, with -1 in
the fields the round does not use.  Lines end in "\\r\\n", and nothing
is quoted, so the bytes are those ``csv.writer`` would write.  A block's
rows are encoded straight from its record columns, one uint8 plane per
byte position of a fixed-width row with the zero padding dropped, and are
encoded and written in chunks of at most 4096 rows, so the encoder's
temporaries stay small whatever the block size.  The path is rewritten
in place, as bytes: it is not truncated on open, but a regular file is
cut after the header, before any row is written, so it never holds an
older trace's rows after this run's header; a FIFO or a device is written
to but not cut.  The trace is complete only once the run returns.

A JSON config (``config_from_json``) has the keys of
``ProtocolConfig.to_json()``; an unknown key, also one under ``eve``, is
rejected by name, so a misspelled setting never runs with its default.
"""

from __future__ import annotations

import numbers
import os
import stat
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import tester as tester_mod
from .muub import (UnitaryBasis, are_muub, basis_from_json, build_named_basis,
                   maximal_hypothesis)
from .qmath import RngHandle, int_field
from .tester import HypothesisViolation, TesterSet, is_complete_set

EVE_KINDS = ("none", "qmm-equivalent-tester", "intercept-resend")
RESEND_POLICIES = ("fixed-zero", "random-input")
SET_POLICIES = ("fixed", "uniform")

_SNAP = 1e-9  # probabilities below this are treated as exact zeros in the tables
_BLOCK = 8192  # rounds simulated per block of draws; bounds memory at any round count
_CHUNK = 4096  # trace rows encoded per call; bounds the encoder's temporaries


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class EveStrategy:
    """Adversary model; the policies pin down every choice Eve makes.

    ``resend_policy`` fixes the state her hijack sends forward in the
    qubit protocol ("fixed-zero" or "random-input"); ``set_policy`` fixes
    how she picks her tester set in the D-ary protocol ("fixed" = always
    the first set, "uniform").
    """

    kind: str = "none"
    resend_policy: str = "fixed-zero"
    set_policy: str = "fixed"

    def __post_init__(self):
        if self.kind not in EVE_KINDS:
            raise ConfigError(f"unknown eve kind {self.kind!r}; choose from {EVE_KINDS}")
        if self.resend_policy not in RESEND_POLICIES:
            raise ConfigError(f"unknown resend policy {self.resend_policy!r}")
        if self.set_policy not in SET_POLICIES:
            raise ConfigError(f"unknown set policy {self.set_policy!r}")

    def to_json(self) -> dict:
        return {"kind": self.kind, "resend_policy": self.resend_policy,
                "set_policy": self.set_policy}


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    d: int
    D: int
    rounds: int
    control_fraction: float
    eve: EveStrategy
    tester_sets: tuple
    encoding_sets: tuple
    rng: RngHandle

    def __post_init__(self):
        for key in ("d", "D", "rounds"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{key} must be an integer, not {value!r}")
            # a numpy integer becomes a plain int, which to_json() can write
            object.__setattr__(self, key, int(value))
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        cf = self.control_fraction
        if isinstance(cf, bool) or not isinstance(cf, numbers.Real):
            raise ConfigError(f"control_fraction must be a number, not {cf!r}")
        object.__setattr__(self, "control_fraction", float(cf))
        if not 0.0 <= self.control_fraction <= 1.0:
            raise ConfigError("control fraction must lie in [0, 1]")
        if len(self.tester_sets) != 2:
            raise ConfigError("exactly two tester sets are required")
        for s in self.tester_sets:
            if not is_complete_set(s):
                raise ConfigError("tester sets must be complete")
            if s.dim != self.d:
                raise ConfigError(f"a tester set acts on dimension {s.dim}, not d={self.d}")
        for f in self.encoding_sets:
            if f.dim != self.d or f.D != self.D:
                raise ConfigError(f"an encoding family has dim {f.dim} and {f.D} members, "
                                  f"not d={self.d} and D={self.D}")

    def settings_json(self) -> dict:
        """``to_json()`` without the tester and encoding literals."""
        return {
            "d": self.d,
            "D": self.D,
            "rounds": self.rounds,
            "control_fraction": self.control_fraction,
            "eve": self.eve.to_json(),
            "seed": self.rng.seed,
            "stream": self.rng.stream,
        }

    def to_json(self) -> dict:
        return {**self.settings_json(),
                "tester_sets": [[t.to_json() for t in s] for s in self.tester_sets],
                "encoding_sets": [b.to_json() for b in self.encoding_sets]}


@dataclass(frozen=True)
class ProtocolStats:
    """Aggregated round outcomes with binomial standard errors."""

    rounds: int
    control_rounds: int
    sifted: int
    sift_fraction: float
    sift_se: float
    bob_errors: int
    bob_error_rate: float
    bob_error_se: float
    cm_comparisons: int
    cm_mismatches: int
    cm_mismatch_rate: float
    cm_mismatch_se: float
    eve_rounds: int
    eve_correct: int
    eve_accuracy: float
    eve_accuracy_se: float

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _rate(successes: int, n: int) -> tuple:
    if n <= 0:
        return 0.0, 0.0
    p = successes / n
    return p, float(np.sqrt(p * (1.0 - p) / n))


def _snap_rows(table: np.ndarray) -> np.ndarray:
    """Zero out sub-1e-9 probabilities and renormalize each distribution, so
    a deterministic row yields its one outcome for every uniform draw.

    Raises ConfigError for a row with no entry of at least 1e-9, which is
    not a distribution.
    """
    t = np.where(table < _SNAP, 0.0, table)
    total = t.sum(axis=-1, keepdims=True)
    if not total.all():
        raise ConfigError("an outcome table row is not a distribution: no entry is >= 1e-9")
    t /= total
    return t


def _cumulative(table: np.ndarray) -> np.ndarray:
    """Cumulative sums along each distribution, without the last bin, with
    the bin axis first: entry [j, *idx] is row idx's threshold j."""
    c = np.cumsum(table, axis=-1)[..., :-1]
    return np.ascontiguousarray(c.transpose((-1,) + tuple(range(c.ndim - 1))))


def _sample(cum: np.ndarray, flat: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per round, the first bin of flat row ``flat`` of ``cum`` (a
    ``_cumulative`` table, its row axes taken row-major) whose cumulative
    probability exceeds r, or the last bin if none does.

    The kernels form ``flat`` with ``_rows`` from the table shapes, so that
    samples from tables with equal leading axes share their leading
    product; it is used as given, with no range check.
    """
    thresholds = cum.reshape(len(cum), -1)
    out = (thresholds[0][flat] <= r).astype(np.int64)
    for c in thresholds[1:]:
        out += c[flat] <= r
    return out


def _rows(shape: tuple, lead: np.ndarray, *idx: np.ndarray) -> np.ndarray:
    """Flat (row-major) row numbers in a table whose rows have shape
    ``shape``, by integer arithmetic, with every stride taken from
    ``shape``.  ``idx`` are the index columns of the last ``len(idx)`` axes
    and ``lead`` is the flat row number over the axes before them (for one
    leading axis, its index column), so one leading product serves every
    table that starts with the same axes.  Nothing is range-checked: the
    kernels' index columns are in range by construction.
    """
    axes = shape[len(shape) - len(idx):]
    flat = lead * axes[0]  # a new array: the columns given are never written
    flat += idx[0]
    for n, i in zip(axes[1:], idx[1:]):
        flat *= n
        flat += i
    return flat


def _index(x: np.ndarray, n: int) -> np.ndarray:
    """Uniform draws in [0, 1) mapped to integers 0..n-1."""
    return (x * n).astype(np.int64)


def _int_size(w: int) -> int:
    """Bytes of the smallest integer type that holds +-(10**w - 1)."""
    return 1 if w <= 2 else 2 if w <= 4 else 4 if w <= 9 else 8


def _digit_planes(mag: np.ndarray, out: np.ndarray) -> None:
    """Write the w = ``len(out)`` decimal digits of the unsigned magnitudes
    ``mag`` as ASCII, the most significant first: ``out[i]`` (shaped as
    ``mag``) gets digit i, and a leading zero, but never the last digit,
    stays 0.  Of a w-digit magnitude, q_i = the leading i + 1 digits takes
    one division by a power of ten for each i < w - 1 (q_(w-1) is the
    magnitude), and digit i is q_i - 10 q_(i-1), exact modulo 256, so each
    step after the divisions is one call over every digit position."""
    w = len(out)
    q = np.empty(out.shape, mag.dtype)  # q[i]: the leading i + 1 digits
    for i in range(w - 1):
        np.floor_divide(mag, mag.dtype.type(10 ** (w - 1 - i)), out=q[i])
    q[-1] = mag
    q8 = q.astype(np.uint8)
    np.add(q8, np.uint8(ord("0")), out=out)
    if w > 1:
        out[1:] -= q8[:-1] * np.uint8(10)
        out[:-1] *= q[:-1] != 0  # leading zeros stay 0


def _csv_rows(start: int, columns) -> bytes:
    """The trace rows of rounds ``start``, ``start + 1``, ... holding the
    record ``columns`` (a sequence of equal-length, non-empty 1-D int64 or
    bool arrays, a bool written as 0 or 1) as the ASCII bytes of what
    ``csv.writer`` writes: decimal fields joined by "," with each row ended
    by "\\r\\n".

    A row has fixed width, and each of its byte positions is one uint8
    plane of a (position, row) grid: the round's digits, then for each
    column a separator, a sign byte (only when the rows hold a negative
    value) and w digits.  Every column shares the one slot width w, the
    digit count of the largest magnitude, so each digit position is written
    for all columns at once.  The sign byte of a non-negative value and
    leading zeros stay 0, and dropping the 0 bytes from the transposed grid
    with ``bytes.translate`` leaves the text.  The zero bytes are kept few,
    with no sign plane unless a value is negative, because ``translate``
    slows as they grow, the more so at unpredictable positions.
    """
    n = len(columns[0])
    x = np.stack(columns)  # [column, row]
    lo, hi = int(x.min()), int(x.max())
    w, w_round, sign = len(str(max(hi, -lo))), len(str(start + n - 1)), int(lo < 0)
    slot = 1 + sign + w
    grid = np.zeros((w_round + len(columns) * slot + 2, n), dtype=np.uint8)
    _digit_planes(np.arange(start, start + n, dtype=f"u{_int_size(w_round)}"), grid[:w_round])
    slots = grid[w_round:-2].reshape(len(columns), slot, n)  # [column, byte, row]
    slots[:, 0] = ord(",")
    size = _int_size(w)
    x = x.astype(f"i{size}", copy=False)
    if sign:
        np.multiply(x < 0, np.uint8(ord("-")), out=slots[:, 1])
    # the unsigned view of abs() is the true magnitude, even for the most
    # negative value, whose abs() wraps to itself
    _digit_planes(np.abs(x, out=x).view(f"u{size}"), slots[:, 1 + sign:].transpose(1, 0, 2))
    grid[-2:] = ((ord("\r"),), (ord("\n"),))
    return grid.T.tobytes().translate(None, b"\0")


def _open_in_place(path, flags: int) -> int:
    """``open()``'s opener for a trace path: the file is not truncated on
    open (``_simulate`` cuts it after the header), and a new file gets the
    0o666 mode, less the umask, that ``open()`` itself would give it."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _simulate(cfg: ProtocolConfig, build, n_draws: int, columns: tuple, counted: tuple,
              trace, stages: dict | None) -> ProtocolStats:
    """Build the round kernel with ``build()`` and run it block by block
    over one generator stream, streaming the records to the path ``trace``
    when given; return the run's stats.

    The kernel is called as ``rounds_fn(draws, traced)``, ``traced`` being
    whether a trace is open.  It returns a block's integer counts, summed
    over all blocks and named by the ``ProtocolStats`` fields in
    ``counted``, and the block's record columns when traced, else ``None``;
    counts not named are 0, and ``sifted`` defaults to the non-control
    rounds.  ``_csv_rows`` encodes the columns as they are, ``_CHUNK`` rows
    at a time, each chunk written as it is encoded, so the encoder's
    temporaries stay small however long the block.  ``stages``, when given,
    gains the wall milliseconds spent in the tables (``build()``), in the
    rounds (forming a traced block's record columns too) and in the trace
    (encoding and I/O).

    ``trace`` goes through ``os.fspath``, so a handle, an int file
    descriptor or a bool raises ``TypeError`` before anything is built or
    opened.  The path is opened for bytes without truncation and rewritten
    in place: the header is written first, and a regular file is then cut
    after it, before any row is written, so an older trace at that path
    never shows after this run's header.  A FIFO or a device is written to
    but not cut.  The trace is complete only once the run returns; a run
    that fails leaves the rows written so far.
    """
    path = None if trace is None else os.fspath(trace)
    started = time.perf_counter()
    rounds_fn = build()
    if stages is not None:
        stages["tables"] = _ms(time.perf_counter() - started)
    gen = cfg.rng.generator()
    t_rounds = 0.0
    started = time.perf_counter()
    with nullcontext() if path is None else open(path, "wb", opener=_open_in_place) as fh:
        if fh is not None:
            fh.write((",".join(("round",) + columns) + "\r\n").encode("ascii"))
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()  # flushes the header, then cuts an older trace after it
        totals = 0
        for start in range(0, cfg.rounds, _BLOCK):
            n = min(_BLOCK, cfg.rounds - start)
            t1 = time.perf_counter()
            counts, record = rounds_fn(gen.random((n, n_draws)), fh is not None)
            totals = totals + counts
            t_rounds += time.perf_counter() - t1
            if record is not None:
                for a in range(0, n, _CHUNK):
                    fh.write(_csv_rows(start + a, [c[a:a + _CHUNK] for c in record]))
    if stages is not None:
        stages["rounds"] = _ms(t_rounds)
        stages["trace"] = _ms(time.perf_counter() - started - t_rounds)
    c = dict(control_rounds=0, cm_comparisons=0, cm_mismatches=0)
    c.update(zip(counted, totals.tolist()))
    c.setdefault("sifted", cfg.rounds - c["control_rounds"])
    c["eve_rounds"] = 0 if cfg.eve.kind == "none" else c["sifted"]
    sift_fraction, sift_se = _rate(c["sifted"], cfg.rounds)
    bob_rate, bob_se = _rate(c["bob_errors"], c["sifted"])
    cm_rate, cm_se = _rate(c["cm_mismatches"], c["cm_comparisons"])
    eve_acc, eve_se = _rate(c["eve_correct"], c["eve_rounds"])
    return ProtocolStats(rounds=cfg.rounds, sift_fraction=sift_fraction, sift_se=sift_se,
                         bob_error_rate=bob_rate, bob_error_se=bob_se, cm_mismatch_rate=cm_rate,
                         cm_mismatch_se=cm_se, eve_accuracy=eve_acc, eve_accuracy_se=eve_se, **c)


def _ms(seconds: float) -> float:
    return round(seconds * 1000, 3)


def analytic_eve_accuracy(D: int) -> float:
    """Sifted-key accuracy of a fixed-set equivalent-tester hijack against a
    uniform family choice: certain in half the rounds, uniform in the rest.

    No protocol run calls it.  The tests and the benchmark's output check
    (``perfbench/workloads.py`` ``check_stats``) read it, so it can move to
    the test oracles or go only together with a change to the benchmark."""
    if D < 2:
        raise ValueError("D must be >= 2")
    return 0.5 * 1.0 + 0.5 * (1.0 / D)


# ---------------------------------------------------------------------------
# Qubit protocol
# ---------------------------------------------------------------------------

def default_lm05_config(rounds: int = 100_000, control_fraction: float = 0.0,
                        eve: EveStrategy | None = None, seed: int = 0,
                        stream: int = 0) -> ProtocolConfig:
    """Fixture config: the sets "z" = {0Z, 1Z} and "x" = {+X, -X} with the
    rotation family.  The tester sets and the family are the named ones,
    built and checked once per process and shared read-only, and each set's
    completeness is tested once; a call runs only the config's field
    checks."""
    return ProtocolConfig(
        d=2,
        D=2,
        rounds=rounds,
        control_fraction=control_fraction,
        eve=eve or EveStrategy(),
        tester_sets=(tester_mod.named_tester_set("z"), tester_mod.named_tester_set("x")),
        encoding_sets=(build_named_basis("rotation", 2),),
        rng=RngHandle(seed=seed, stream=stream),
    )


def _lm05_tables(cfg: ProtocolConfig):
    testers = [t for s in cfg.tester_sets for t in s]
    fams = cfg.encoding_sets
    if cfg.d != 2 or len(fams) != 1 or fams[0].D != 2 or len(testers) != 4:
        raise ConfigError("the qubit protocol needs d=2, two 2-member tester sets and one family "
                          f"of 2 encodings; encoding families: {len(fams)}")
    enc = fams[0].elements
    probes = np.concatenate([s.input for s in cfg.tester_sets])[:, :, None]  # columns
    rows = np.concatenate([s.projector_matrix() for s in cfg.tester_sets])
    cm = np.stack([s.testers[0].projector_matrix() for s in cfg.tester_sets])
    states = cm.conj()[..., None]  # states[b, m]: state m of control basis b, a column

    # [tester, u]: u is the identity (the probe as sent), then each encoding
    us = np.concatenate((np.eye(2)[None], enc))
    p_sent = np.abs(rows[:, None] @ (us @ probes[:, None]))[..., 0] ** 2
    own, p_bob = p_sent[:, 0], p_sent[:, 1:]
    self_idx = own.argmax(-1)
    p_state_in_basis = np.abs(cm @ probes[:, None])[..., 0] ** 2
    in_basis = p_state_in_basis.max(-1) > 1.0 - 1e-9
    basis_id = 1 - in_basis[:, ::-1].argmax(-1)  # the last basis holding the probe
    state_idx = p_state_in_basis[np.arange(len(testers)), basis_id].argmax(-1)
    # per tester, in this order: a probe that is no measurement state, an
    # encoding (0, then 1) it is not deterministic on, encodings that do not
    # stay and flip, and a probe in neither control basis
    bob_idx = p_bob.argmax(-1)
    fails = np.column_stack((own.max(-1) < 1.0 - 1e-9, p_bob.max(-1) < 1.0 - 1e-9,
                             (bob_idx[:, 0] != self_idx) | (bob_idx[:, 1] == self_idx),
                             ~in_basis.any(-1)))
    if fails.any():
        ti, check = np.argwhere(fails)[0]
        label = testers[ti].label
        raise ConfigError((f"tester {label!r} probe is not a measurement state",
                           f"tester {label!r} is not deterministic on encoding 0",
                           f"tester {label!r} is not deterministic on encoding 1",
                           "encodings must act as (stay, flip) on every probe",
                           f"tester {label!r} probe lies in neither control basis")[check])

    ket0 = np.eye(2, dtype=complex)[:1, :, None]
    resend = ket0 if cfg.eve.resend_policy == "fixed-zero" else probes
    # [b, m, bit]: encoding bit applied to state m of basis b, measured in basis b
    p_enc_state_basis = np.abs(cm[:, None, None] @ (enc @ states[:, :, None]))[..., 0] ** 2
    return dict(
        p_bob=_snap_rows(p_bob),
        self_idx=self_idx,
        basis_id=basis_id,
        state_idx=state_idx,
        p_state_in_basis=_snap_rows(p_state_in_basis),
        p_cm_eve=_snap_rows(np.abs(cm @ resend[:, None])[..., 0] ** 2),
        p_enc_state_basis=_snap_rows(p_enc_state_basis),
        # [b, m, tester] and [b, m, b2]: state m of basis b, measured by each
        p_basis_state_tester=_snap_rows(np.abs(rows @ states[:, :, None])[..., 0] ** 2),
        p_basis_basis=_snap_rows(np.abs(cm @ states[:, :, None])[..., 0] ** 2),
    )


# draws columns: 0 bob tester, 1 alice mode, 2 alice bit/basis, 3 eve choice,
#   4 eve collapse, 5 eve outcome, 6 alice cm outcome, 7 bob outcome.
# record columns, in this order; a round leaves the fields it does not use at -1
_LM05_COLUMNS = ("bob_tester", "mode", "alice_bit", "alice_basis", "eve_choice",
                 "alice_cm_outcome", "bob_outcome", "bob_bit", "cm_matched",
                 "cm_mismatch", "eve_bit")
# the kernel's counts, in this order, named by their ProtocolStats fields
_LM05_COUNTS = ("control_rounds", "bob_errors", "cm_comparisons", "cm_mismatches", "eve_correct")


def _lm05_rounds(draws, eve_kind, control_fraction, cum, tables, traced):
    """Counts and, when ``traced``, the record columns (``_LM05_COLUMNS``,
    else ``None``) of one block of qubit-protocol rounds.

    Every round is evaluated as an encoding round and as a control round,
    and its mode picks the fields its record keeps.
    eve_kind: 0 none, 1 equivalent-tester hijack, 2 intercept-resend.
    counts: ``_LM05_COUNTS``, taken from the round masks.
    """
    self_idx, basis_id, state_idx = tables["self_idx"], tables["basis_id"], tables["state_idx"]
    n_testers = self_idx.size
    t = _index(draws[:, 0], n_testers)
    cm = draws[:, 1] < control_fraction
    enc = ~cm
    bit = _index(draws[:, 2], 2)  # alice's bit in encoding mode, her basis in control mode
    if eve_kind == 0:
        # p_bob[t, bit] and p_state_in_basis[t, basis] share one row shape
        flat = _rows(cum["p_bob"].shape[1:], t, bit)
        out = _sample(cum["p_bob"], flat, draws[:, 7])
        cm_out = _sample(cum["p_state_in_basis"], flat, draws[:, 6])
        enc_choice = cm_choice = ebit = -1  # Eve's record fields stay -1
    elif eve_kind == 1:
        bob_shape = cum["p_bob"].shape[1:]
        enc_choice = _index(draws[:, 3], n_testers)
        eout = _sample(cum["p_bob"], _rows(bob_shape, enc_choice, bit), draws[:, 5])
        ebit = (eout != self_idx[enc_choice]).astype(np.int64)
        out = _sample(cum["p_bob"], _rows(bob_shape, t, ebit), draws[:, 7])
        cm_choice = _index(draws[:, 3], tables["p_cm_eve"].shape[0])
        cm_out = _sample(cum["p_cm_eve"], _rows(cum["p_cm_eve"].shape[1:], cm_choice, bit),
                         draws[:, 6])
    else:
        enc_choice = cm_choice = _index(draws[:, 3], 2)
        m = _sample(cum["p_state_in_basis"],
                    _rows(cum["p_state_in_basis"].shape[1:], t, enc_choice), draws[:, 4])
        # p_enc_state_basis[b, m, bit] and p_basis_basis[b, m, b2] share one row shape
        flat = _rows(cum["p_basis_basis"].shape[1:], enc_choice, m, bit)
        eout = _sample(cum["p_enc_state_basis"], flat, draws[:, 5])
        ebit = eout != m
        out = _sample(cum["p_basis_state_tester"],
                      _rows(cum["p_basis_state_tester"].shape[1:], enc_choice, eout, t),
                      draws[:, 7])
        cm_out = _sample(cum["p_basis_basis"], flat, draws[:, 6])
    bob_bit = out != self_idx[t]
    matched = cm & (bit == basis_id[t])
    mismatch = matched & (cm_out != state_idx[t])
    counts = np.array([
        np.count_nonzero(cm),
        np.count_nonzero(enc & (bob_bit != bit)),
        np.count_nonzero(matched),
        np.count_nonzero(mismatch),
        0 if eve_kind == 0 else np.count_nonzero(enc & (ebit == bit)),
    ])
    if not traced:
        return counts, None
    return counts, (t, cm, np.where(enc, bit, -1), np.where(cm, bit, -1),
                    np.where(enc, enc_choice, cm_choice), np.where(cm, cm_out, -1),
                    np.where(enc, out, -1), np.where(enc, bob_bit, -1), np.where(cm, matched, -1),
                    np.where(matched, mismatch, -1), np.where(enc, ebit, -1))


def run_lm05(cfg: ProtocolConfig, trace=None, stages: dict | None = None) -> ProtocolStats:
    """Simulate the qubit protocol; optionally write a per-round CSV trace
    to the path ``trace`` (see the module docstring) and record stage times
    in ``stages``."""
    def build():
        tables = _lm05_tables(cfg)
        eve_kind = EVE_KINDS.index(cfg.eve.kind)
        cum = {k: _cumulative(v) for k, v in tables.items() if k.startswith("p_")}
        return lambda draws, traced: _lm05_rounds(draws, eve_kind, cfg.control_fraction, cum,
                                                  tables, traced)
    return _simulate(cfg, build, 8, _LM05_COLUMNS, _LM05_COUNTS, trace, stages)


# ---------------------------------------------------------------------------
# D-ary protocol
# ---------------------------------------------------------------------------

def default_extended_config(D: int = 2, rounds: int = 100_000,
                            eve: EveStrategy | None = None, seed: int = 0,
                            stream: int = 0) -> ProtocolConfig:
    """Fixture configs: D=2 uses the Z/X computational-probe sets with the
    rotation pair families; D=4 uses the Bell-probe sets with the Pauli
    family and its unbiased partner.  The tester sets and families are the
    named ones, built and checked once per process and shared read-only,
    and each set's completeness is tested once; a call runs only the
    config's field checks."""
    if D == 2:
        sets = (tester_mod.named_tester_set("z"), tester_mod.named_tester_set("xcomp"))
        encs = (build_named_basis("rotation", 2), build_named_basis("hadamard-pair", 2))
    elif D == 4:
        sets = (tester_mod.named_tester_set("bell"), tester_mod.named_tester_set("bell-rot"))
        encs = (build_named_basis("pauli", 2), build_named_basis("pauli-unbiased", 2))
    else:
        raise ConfigError("bundled fixtures exist for D=2 and D=4 only")
    return ProtocolConfig(
        d=2, D=D, rounds=rounds, control_fraction=0.0, eve=eve or EveStrategy(),
        tester_sets=sets, encoding_sets=encs, rng=RngHandle(seed=seed, stream=stream),
    )


def _extended_tables(cfg: ProtocolConfig):
    if len(cfg.encoding_sets) != 2:
        raise ConfigError("the D-ary protocol needs two encoding families")
    s1, s2 = cfg.tester_sets
    f1, f2 = cfg.encoding_sets
    dd = cfg.D
    if len(s1) != dd or len(s2) != dd:
        raise ConfigError("tester sets must have D members")
    # the hypothesis is checked on Bob's own rows; at a finite tolerance it
    # does not imply unbiased families, so the MUUB verdict is checked too
    dists, failures = maximal_hypothesis(s1, s2, f1, f2)
    if failures:
        raise HypothesisViolation("tester sets are not deterministic/uniform on the encoding "
                                  "families: " + "; ".join(failures[:3]))
    muub = are_muub(f1, f2)
    if not muub.verdict:
        dev = np.abs(muub.overlaps - muub.expected_kappa).max()
        raise HypothesisViolation("the encoding families are not mutually unbiased: the "
                                  f"largest |overlap - kappa| is {dev:.3e}")
    # p_out[s, ti, sa, j]: tester ti of set s on element j of family sa
    p_out = _snap_rows(np.stack(dists).reshape(2, dd, 2, dd, -1))
    # decode[s, ti, k]: the digit of family s that tester ti of set s reads off outcome k.
    # In exact arithmetic no entry stays -1.  Set s is complete, so its D probes
    # psi_i are an orthonormal basis, and it has D outcomes chi_k (fewer would
    # leak, which outcome_distribution rejects); with A_j = U_j (x) I for
    # family s, write A_j psi_i = e^(i t_ij) chi_(p_j(i)).  For V of the
    # other family, uniformity gives each of the D terms of
    #   Tr(A_j^dag (V (x) I)) = sum_i e^(-i t_ij) <chi_(p_j(i)) | (V (x) I) psi_i>
    # the modulus 1/sqrt(D), and are_muub makes the sum's squared modulus D, so
    # all D terms share one phase.  A collision p_j(i) = p_j'(i), j != j', then
    # gives every point i that p_j and p_j' share the same phase
    # e^(i(t_ij' - t_ij)), so Tr(A_j^dag A_j') = the sum of it over the shared
    # points is not 0, against the HS-orthogonality of U_j and U_j'.  At the
    # checks' tolerances (MAXIMAL_TOL bits, KAPPA_TOL, DEFAULT_TOL) these
    # bounds still close for D <= 46.  For D = d^2 with d <= 540, uniformity on
    # the whole other family also makes each probe nearly maximally entangled,
    # so |<psi|(U_j^dag U_j' (x) I)|psi>| ~ |Tr(U_j^dag U_j')| / d ~ 0, which a
    # collision would make ~1.  For D = d >= 47 neither bound closes, so the
    # check below stays.
    decode = np.full((2, dd, dd), -1, dtype=np.int64)
    np.put_along_axis(decode, p_out[[0, 1], :, [0, 1]].argmax(-1), np.arange(dd), axis=-1)
    if (decode < 0).any():
        raise HypothesisViolation("deterministic outcomes do not separate digits")
    # collapse[se, sb, ti]: probe ti of set sb measured in the probe basis of
    # set se; p_proj[se, k, sb]: projector k of set se measured by set sb
    probes = np.stack((s1.input, s2.input))
    collapse = np.abs(probes.conj()[:, None, None] @ probes[None, :, :, :, None])[..., 0] ** 2
    meas = np.stack([s1.testers[0].projector_matrix(), s2.testers[0].projector_matrix()])
    p_proj = np.abs(meas @ meas.conj()[:, :, None, :, None])[..., 0] ** 2
    return dict(p_out=p_out, decode=decode, collapse=_snap_rows(collapse),
                p_proj=_snap_rows(p_proj))


# draws columns: 0 bob set, 1 bob tester, 2 alice set, 3 alice digit, 4 eve set,
#   5 eve tester/collapse, 6 eve outcome, 7 eve fallback guess, 8 bob outcome.
# record columns, in this order; a round leaves the fields it does not use at -1
_EXT_COLUMNS = ("bob_set", "bob_tester", "alice_set", "alice_digit", "eve_set",
                "eve_tester_or_collapse", "eve_outcome", "eve_digit", "bob_outcome",
                "bob_digit", "sifted", "bob_error", "eve_correct")
_EXT_COUNTS = ("sifted", "bob_errors", "eve_correct")


def _extended_rounds(draws, eve_kind, eve_set_policy, n_digits, cum, decode, traced):
    """Counts and, when ``traced``, the record columns (``_EXT_COLUMNS``,
    else ``None``) of one block of D-ary protocol rounds.

    Every count reads only the sifted rounds, the rounds where Bob's set is
    Alice's.  So an untraced block gathers those rows once (``keep``) and
    evaluates only them; a traced block evaluates and records every round.
    A round's outcome depends only on its own draws and the tables, so both
    give the same counts.
    eve_set_policy: 0 fixed set 0, 1 uniform.
    counts: ``_EXT_COUNTS``, taken from the round masks.
    """
    sb = _index(draws[:, 0], 2)
    sa = _index(draws[:, 2], 2)
    sift = sb == sa
    n_sifted = np.count_nonzero(sift)
    if traced:
        def col(k):
            return draws[:, k]
    else:
        # one take per column read, which also makes it contiguous; a boolean
        # row gather (draws[sift]) costs more than it saves
        keep = np.flatnonzero(sift)

        def col(k):
            return draws[:, k].take(keep)
        sb = sa = sb.take(keep)  # equal on the sifted rounds
        sift = True  # every round kept is sifted
    tb = _index(col(1), n_digits)
    dig = _index(col(3), n_digits)
    p_out = cum["p_out"]
    # flat rows: p_out[s, ti, sa, j] and decode[s, ti, k] share their leading
    # (set, tester) axes, so Bob's and Eve's (set, tester) products serve both
    out_shape, decode_shape, flat_decode = p_out.shape[1:], decode.shape, decode.reshape(-1)
    bob = _rows(out_shape[:2], sb, tb)
    if eve_kind == 0:
        out = _sample(p_out, _rows(out_shape, bob, sa, dig), col(8))
    else:
        se = np.zeros_like(sb) if eve_set_policy == 0 else _index(col(4), 2)
        if eve_kind == 1:
            te = _index(col(5), n_digits)
        else:
            te = _sample(cum["collapse"], _rows(cum["collapse"].shape[1:], se, sb, tb), col(5))
        eve = _rows(out_shape[:2], se, te)
        eout = _sample(p_out, _rows(out_shape, eve, sa, dig), col(6))
        eraw = flat_decode[_rows(decode_shape, eve, eout)]
        del eve  # a block-sized array, freed before the rest of the block is formed
        if eve_kind == 1:
            out = _sample(p_out, _rows(out_shape, bob, se, eraw), col(8))
        else:
            out = _sample(cum["p_proj"], _rows(cum["p_proj"].shape[1:], se, eout, sb), col(8))
        edig = np.where(se == sa, eraw, _index(col(7), n_digits))
    bdig = flat_decode[_rows(decode_shape, bob, out)]
    error = sift & (bdig != dig)
    counts = np.array([n_sifted, np.count_nonzero(error),
                       0 if eve_kind == 0 else np.count_nonzero(sift & (edig == dig))])
    if not traced:
        return counts, None
    if eve_kind == 0:
        unused = np.full(sb.shape, -1)  # Eve's record fields
        eve_cols, ecorrect = (unused,) * 4, unused
    else:
        eve_cols, ecorrect = (se, te, eout, edig), np.where(sift, edig == dig, -1)
    return counts, (sb, tb, sa, dig, *eve_cols, out, bdig, sift, np.where(sift, error, -1),
                    ecorrect)


def run_extended(cfg: ProtocolConfig, trace=None, stages: dict | None = None) -> ProtocolStats:
    """Simulate the D-ary protocol; optionally write a per-round CSV trace
    to the path ``trace`` (see the module docstring) and record stage times
    in ``stages``."""
    if cfg.control_fraction != 0.0:
        raise ConfigError("control mode is not modeled for the D-ary protocol")

    def build():
        tables = _extended_tables(cfg)
        eve_kind = EVE_KINDS.index(cfg.eve.kind)
        set_policy = SET_POLICIES.index(cfg.eve.set_policy)
        cum = {k: _cumulative(tables[k]) for k in ("p_out", "collapse", "p_proj")}
        return lambda draws, traced: _extended_rounds(draws, eve_kind, set_policy, cfg.D, cum,
                                                      tables["decode"], traced)
    return _simulate(cfg, build, 9, _EXT_COLUMNS, _EXT_COUNTS, trace, stages)


# ---------------------------------------------------------------------------
# Config JSON (mirrors ProtocolConfig; set/basis entries may be registry
# names or inline literals)
# ---------------------------------------------------------------------------

def resolve_tester_set(spec) -> TesterSet:
    if isinstance(spec, str):
        return tester_mod.named_tester_set(spec)
    testers = tuple(tester_mod.tester_from_json(t) for t in spec)
    if not testers:
        raise ConfigError("empty tester set")
    return TesterSet(testers=testers, dim=testers[0].dim)


def resolve_basis(spec, d: int) -> UnitaryBasis:
    if isinstance(spec, str):
        return build_named_basis(spec, d)
    return basis_from_json(spec)


_CONFIG_KEYS = ("d", "D", "rounds", "control_fraction", "eve", "tester_sets", "encoding_sets",
                "seed", "stream")  # the keys of ProtocolConfig.to_json()
_EVE_KEYS = ("kind", "resend_policy", "set_policy")  # the keys of EveStrategy.to_json()


def config_from_json(obj: dict) -> ProtocolConfig:
    """ProtocolConfig from its JSON object; a malformed config raises
    ConfigError, or ValueError from a malformed tester or basis literal.
    An unknown key, at the top level or under ``eve``, is a ConfigError
    that names it, so a misspelled setting never falls back to a default;
    ``tester_sets`` and ``encoding_sets`` must be JSON arrays."""
    if not isinstance(obj, dict):
        raise ConfigError("bad protocol config: not a JSON object")
    try:
        d = int_field(obj, "d", 2, error=ConfigError)
        eve_obj = obj.get("eve", {})
        if not isinstance(eve_obj, dict):
            raise ConfigError("bad protocol config: eve is not a JSON object")
        unknown = [k for k in obj if k not in _CONFIG_KEYS]
        unknown += [f"eve.{k}" for k in eve_obj if k not in _EVE_KEYS]
        if unknown:
            raise ConfigError(f"bad protocol config: unknown keys {unknown}")
        eve = EveStrategy(**eve_obj)
        for key in ("tester_sets", "encoding_sets"):
            # a string or an object would run on its characters or its keys
            if not isinstance(obj.get(key, []), list):
                raise ConfigError(f"bad protocol config: {key} must be a JSON array, "
                                  f"not {obj[key]!r}")
        tester_sets = tuple(resolve_tester_set(s) for s in obj["tester_sets"])
        encoding_sets = tuple(resolve_basis(b, d) for b in obj["encoding_sets"])
        if not encoding_sets:
            raise ConfigError("bad protocol config: encoding_sets is empty")
        return ProtocolConfig(
            d=d,
            D=int_field(obj, "D", encoding_sets[0].D, error=ConfigError),
            rounds=int_field(obj, "rounds", error=ConfigError),
            control_fraction=obj.get("control_fraction", 0.0),
            eve=eve,
            tester_sets=tester_sets,
            encoding_sets=encoding_sets,
            rng=RngHandle(seed=int_field(obj, "seed", 0, error=ConfigError),
                          stream=int_field(obj, "stream", 0, error=ConfigError)),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad protocol config: {exc}") from exc
