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
  kept rounds his deterministic outcome decodes the digit.  The two tester
  sets must be deterministic on their own family and uniform on the other
  (checked up front, fail fast), which forces the families to be mutually
  unbiased unitary bases.

The adversary is configurable: ``none``, a tester-hijack
(``qmm-equivalent-tester``: Eve keeps Bob's probe, runs her own tester
against Alice, then applies her inferred unitary to the kept probe), or
``intercept-resend`` (Eve measures in flight, never storing anything).

All per-round randomness is pre-drawn in a fixed column layout, in
blocks of rounds that continue one generator stream, so a run is
bit-for-bit reproducible from its (seed, stream) and its memory does not
grow with the round count.

Trace format.  Given ``trace`` (a path, or an open text handle), a run
writes a CSV file: a header line ``round,<record columns>`` (the columns
are listed in ``_lm05_rounds`` and ``_extended_rounds``), then one line
per round holding the round index and the round's record, all decimal
integers, with -1 in the fields the round does not use.  Lines end in
"\\r\\n", and nothing is quoted, so the bytes are those ``csv.writer``
would write.  Rows are encoded and written once per block of 8192 rounds.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import muub as muub_mod
from . import tester as tester_mod
from .muub import UnitaryBasis, balanced_qubit_rotation, build_named_basis, verify_prop_maximal
from .qmath import RngHandle
from .tester import HypothesisViolation, TesterSet, is_complete_set, outcome_probabilities

EVE_KINDS = ("none", "qmm-equivalent-tester", "intercept-resend")
RESEND_POLICIES = ("fixed-zero", "random-input")
SET_POLICIES = ("fixed", "uniform")

_SNAP = 1e-9  # probabilities below this are treated as exact zeros in the tables
_BLOCK = 8192  # rounds simulated per block of draws; bounds memory at any round count


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
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
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

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "D": self.D,
            "rounds": self.rounds,
            "control_fraction": self.control_fraction,
            "eve": self.eve.to_json(),
            "tester_sets": [[t.to_json() for t in s] for s in self.tester_sets],
            "encoding_sets": [b.to_json() for b in self.encoding_sets],
            "seed": self.rng.seed,
            "stream": self.rng.stream,
        }


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
    t = np.array(table, dtype=float)
    flat = t.reshape(-1, t.shape[-1])
    flat[flat < _SNAP] = 0.0
    total = flat.sum(axis=1, keepdims=True)
    if not total.all():
        raise ConfigError("an outcome table row is not a distribution: no entry is >= 1e-9")
    flat /= total
    return t


def _dist(projs: np.ndarray, state: np.ndarray) -> np.ndarray:
    return np.abs(projs @ state) ** 2


def _cumulative(table: np.ndarray) -> np.ndarray:
    """Cumulative sums along each distribution, without the last bin."""
    return np.cumsum(table, axis=-1)[..., :-1]


def _sample(cum_rows: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per row, the first bin whose cumulative probability exceeds r (the
    last bin if none does), for rows gathered from a ``_cumulative`` table."""
    return (cum_rows <= r[:, None]).sum(axis=1)


def _index(x: np.ndarray, n: int) -> np.ndarray:
    """Uniform draws in [0, 1) mapped to integers 0..n-1."""
    return (x * n).astype(np.int64)


_POW10 = 10 ** np.arange(20, dtype=np.uint64)  # every power of ten below 2**64


def _csv_rows(table: np.ndarray) -> str:
    """The rows of a non-empty 2-D int64 table as ``csv.writer`` writes
    them: decimal fields joined by "," with each row ended by "\\r\\n".

    Field j gets a fixed-width slot in one (rows, width) uint8 grid: a sign
    byte, w_j digit bytes (w_j = the digit count of the column's largest
    magnitude) and a separator.  The sign byte of a non-negative value and
    leading zeros stay 0, and dropping the 0 bytes leaves the text.
    Adjacent columns of equal width are converted together, in the
    smallest integer type that holds them.
    """
    n = table.shape[0]
    widths = [len(str(max(hi, -lo)))
              for hi, lo in zip(table.max(axis=0).tolist(), table.min(axis=0).tolist())]
    ends = np.cumsum(np.add(widths, 2))  # slot j ends just past its separator
    grid = np.zeros((n, ends[-1] + 1), dtype=np.uint8)
    grid[:, ends[:-1] - 1] = ord(",")
    grid[:, -2:] = (ord("\r"), ord("\n"))
    a = 0
    for w, run in itertools.groupby(widths):
        b = a + len(list(run))
        size = 1 if w <= 2 else 2 if w <= 4 else 4 if w <= 9 else 8  # holds +-(10**w - 1)
        x = table[:, a:b].astype(f"i{size}")
        signs = ends[a:b] - w - 2
        grid[:, signs] = (x < 0) * np.uint8(ord("-"))
        # the unsigned view of abs() is the true magnitude, even for the most
        # negative value, whose abs() wraps to itself
        mag = np.abs(x, out=x).view(f"u{size}")
        q = mag[:, :, None] // _POW10[w - 1::-1].astype(mag.dtype)
        leading = q[:, :, :-1] == 0
        q %= 10
        q += ord("0")
        digits = q.astype(np.uint8, copy=False)
        digits[:, :, :-1][leading] = 0
        grid[:, (signs[:, None] + 1 + np.arange(w)).ravel()] = digits.reshape(n, -1)
        a = b
    text = grid.tobytes()
    del grid
    return text.translate(None, b"\0").decode("ascii")


def _simulate(cfg: ProtocolConfig, n_draws: int, columns: tuple, rounds_fn, trace,
              stages: dict | None) -> np.ndarray:
    """Run ``rounds_fn(draws)`` block by block over one generator stream,
    streaming the records to ``trace`` (a path or text handle) when given.

    ``rounds_fn`` returns a block of records and a vector of integer counts;
    the counts summed over all blocks are returned.  ``stages``, when given,
    gains the wall milliseconds spent in the rounds and in trace I/O.
    """
    gen = cfg.rng.generator()
    t_rounds = 0.0
    started = time.perf_counter()
    own = isinstance(trace, (str, bytes))
    fh = open(trace, "w", newline="") if own else trace
    try:
        if fh is not None:
            fh.write(",".join(("round",) + columns) + "\r\n")
        totals = 0
        for start in range(0, cfg.rounds, _BLOCK):
            n = min(_BLOCK, cfg.rounds - start)
            t1 = time.perf_counter()
            rec, counts = rounds_fn(gen.random((n, n_draws)))
            totals = totals + counts
            t_rounds += time.perf_counter() - t1
            if fh is not None:
                fh.write(_csv_rows(np.column_stack((np.arange(start, start + n), rec))))
    finally:
        if own:
            fh.close()
    if stages is not None:
        stages["rounds"] = _ms(t_rounds)
        stages["trace"] = _ms(time.perf_counter() - started - t_rounds)
    return totals


def _ms(seconds: float) -> float:
    return round(seconds * 1000, 3)


def analytic_eve_accuracy(D: int) -> float:
    """Sifted-key accuracy of a fixed-set equivalent-tester hijack against a
    uniform family choice: certain in half the rounds, uniform in the rest."""
    if D < 2:
        raise ValueError("D must be >= 2")
    return 0.5 * 1.0 + 0.5 * (1.0 / D)


# ---------------------------------------------------------------------------
# Qubit protocol
# ---------------------------------------------------------------------------

def default_lm05_config(rounds: int = 100_000, control_fraction: float = 0.0,
                        eve: EveStrategy | None = None, seed: int = 0,
                        stream: int = 0) -> ProtocolConfig:
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
    enc = list(cfg.encoding_sets[0])
    if cfg.d != 2 or len(enc) != 2 or len(testers) != 4:
        raise ConfigError("the qubit protocol needs d=2, two 2-member tester sets and 2 encodings")
    if any(t.is_bipartite for t in testers):
        raise ConfigError("the qubit protocol uses ancilla-free testers")
    cm_bases = [np.stack([p.conj() for p in s.testers[0].projectors]) for s in cfg.tester_sets]

    n_t = len(testers)
    p_bob = np.empty((n_t, 2, 2))
    self_idx = np.empty(n_t, dtype=np.int64)
    basis_id = np.empty(n_t, dtype=np.int64)
    state_idx = np.empty(n_t, dtype=np.int64)
    p_state_in_basis = np.empty((n_t, 2, 2))
    # row 0: the probe measured as sent (identity); rows 1, 2: the encodings
    enc_stack = np.stack([np.eye(2, dtype=complex)] + enc)
    for ti, t in enumerate(testers):
        own, *p_enc = outcome_probabilities(t, enc_stack)
        if own.max() < 1.0 - 1e-9:
            raise ConfigError(f"tester {t.label!r} probe is not a measurement state")
        self_idx[ti] = int(np.argmax(own))
        for bit, p in enumerate(p_enc):
            if p.max() < 1.0 - 1e-9:
                raise ConfigError(
                    f"tester {t.label!r} is not deterministic on encoding {bit}"
                )
            p_bob[ti, bit] = p
        if int(np.argmax(p_bob[ti, 0])) != self_idx[ti] or int(np.argmax(p_bob[ti, 1])) == self_idx[ti]:
            raise ConfigError("encodings must act as (stay, flip) on every probe")
        found = None
        for b, mb in enumerate(cm_bases):
            p = _dist(mb, t.input)
            p_state_in_basis[ti, b] = p
            if p.max() > 1.0 - 1e-9:
                found = (b, int(np.argmax(p)))
        if found is None:
            raise ConfigError(f"tester {t.label!r} probe lies in neither control basis")
        basis_id[ti], state_idx[ti] = found

    if cfg.eve.resend_policy == "fixed-zero":
        resend = [np.array([1, 0], dtype=complex)]
    else:
        resend = [t.input for t in testers]
    p_cm_eve = np.stack([
        np.stack([_dist(mb, e) for mb in cm_bases]) for e in resend
    ])

    p_enc_state_basis = np.empty((2, 2, 2, 2))
    p_basis_basis = np.empty((2, 2, 2, 2))
    p_basis_state_tester = np.empty((2, 2, n_t, 2))
    for b in range(2):
        for m in range(2):
            state = cm_bases[b][m].conj()
            for bit, u in enumerate(enc):
                p_enc_state_basis[b, m, bit] = _dist(cm_bases[b], u @ state)
            for b2 in range(2):
                p_basis_basis[b, m, b2] = _dist(cm_bases[b2], state)
            for ti, t in enumerate(testers):
                p_basis_state_tester[b, m, ti] = _dist(t.projector_matrix(), state)

    tables = dict(
        p_bob=_snap_rows(p_bob),
        self_idx=self_idx,
        basis_id=basis_id,
        state_idx=state_idx,
        p_state_in_basis=_snap_rows(p_state_in_basis),
        p_cm_eve=_snap_rows(p_cm_eve),
        p_enc_state_basis=_snap_rows(p_enc_state_basis),
        p_basis_state_tester=_snap_rows(p_basis_state_tester),
        p_basis_basis=_snap_rows(p_basis_basis),
    )
    return testers, tables


_LM05_COLUMNS = ("bob_tester", "mode", "alice_bit", "alice_basis", "eve_choice",
                 "alice_cm_outcome", "bob_outcome", "bob_bit", "cm_matched",
                 "cm_mismatch", "eve_bit")


def _lm05_rounds(draws, eve_kind, control_fraction, cum, tables):
    """Records and counts for one block of qubit-protocol rounds.

    draws columns: 0 bob tester, 1 alice mode, 2 alice bit/basis,
      3 eve choice, 4 eve collapse, 5 eve outcome, 6 alice cm outcome,
      7 bob outcome.
    rec columns: 0 bob tester, 1 mode, 2 alice bit, 3 alice basis,
      4 eve choice, 5 alice cm outcome, 6 bob outcome, 7 bob bit,
      8 cm matched, 9 cm mismatch, 10 eve bit.  Unused fields stay -1.
    eve_kind: 0 none, 1 equivalent-tester hijack, 2 intercept-resend.
    counts: control rounds, bob errors, cm comparisons, cm mismatches,
      eve correct.
    """
    self_idx, basis_id, state_idx = tables["self_idx"], tables["basis_id"], tables["state_idx"]
    n_testers = self_idx.size
    rec = np.full((draws.shape[0], 11), -1, dtype=np.int64)
    t = _index(draws[:, 0], n_testers)
    cm = draws[:, 1] < control_fraction
    rec[:, 0] = t
    rec[:, 1] = cm

    enc = ~cm
    de, te = draws[enc], t[enc]
    bit = _index(de[:, 2], 2)
    rec[enc, 2] = bit
    if eve_kind == 0:
        out = _sample(cum["p_bob"][te, bit], de[:, 7])
    elif eve_kind == 1:
        tev = _index(de[:, 3], n_testers)
        rec[enc, 4] = tev
        eout = _sample(cum["p_bob"][tev, bit], de[:, 5])
        ebit = (eout != self_idx[tev]).astype(np.int64)
        rec[enc, 10] = ebit
        out = _sample(cum["p_bob"][te, ebit], de[:, 7])
    else:
        be = _index(de[:, 3], 2)
        rec[enc, 4] = be
        m = _sample(cum["p_state_in_basis"][te, be], de[:, 4])
        eout = _sample(cum["p_enc_state_basis"][be, m, bit], de[:, 5])
        rec[enc, 10] = eout != m
        out = _sample(cum["p_basis_state_tester"][be, eout, te], de[:, 7])
    rec[enc, 6] = out
    rec[enc, 7] = out != self_idx[te]

    dc, tc = draws[cm], t[cm]
    basis = _index(dc[:, 2], 2)
    rec[cm, 3] = basis
    if eve_kind == 0:
        out = _sample(cum["p_state_in_basis"][tc, basis], dc[:, 6])
    elif eve_kind == 1:
        choice = _index(dc[:, 3], tables["p_cm_eve"].shape[0])
        rec[cm, 4] = choice
        out = _sample(cum["p_cm_eve"][choice, basis], dc[:, 6])
    else:
        be = _index(dc[:, 3], 2)
        rec[cm, 4] = be
        m = _sample(cum["p_state_in_basis"][tc, be], dc[:, 4])
        out = _sample(cum["p_basis_basis"][be, m, basis], dc[:, 6])
    rec[cm, 5] = out
    matched = basis == basis_id[tc]
    rec[cm, 8] = matched
    rec[cm, 9] = np.where(matched, out != state_idx[tc], -1)

    counts = np.array([
        np.sum(cm),
        np.sum(enc & (rec[:, 7] != rec[:, 2])),
        np.sum(rec[:, 8] == 1),
        np.sum(rec[:, 9] == 1),
        np.sum(enc & (rec[:, 10] == rec[:, 2])),
    ])
    return rec, counts


def run_lm05(cfg: ProtocolConfig, trace=None, stages: dict | None = None) -> ProtocolStats:
    """Simulate the qubit protocol; optionally write a per-round CSV trace
    (see the module docstring) and record stage times in ``stages``."""
    started = time.perf_counter()
    _, tables = _lm05_tables(cfg)
    eve_kind = EVE_KINDS.index(cfg.eve.kind)
    cum = {k: _cumulative(v) for k, v in tables.items() if k.startswith("p_")}
    if stages is not None:
        stages["tables"] = _ms(time.perf_counter() - started)
    control_rounds, bob_errors, cm_comparisons, cm_mismatches, eve_correct = (
        int(c) for c in _simulate(
            cfg, 8, _LM05_COLUMNS,
            lambda draws: _lm05_rounds(draws, eve_kind, cfg.control_fraction, cum, tables),
            trace, stages))
    sifted = cfg.rounds - control_rounds
    eve_rounds = 0 if eve_kind == 0 else sifted
    return _assemble_stats(cfg.rounds, control_rounds, sifted, bob_errors,
                           cm_comparisons, cm_mismatches, eve_rounds, eve_correct)


# ---------------------------------------------------------------------------
# D-ary protocol
# ---------------------------------------------------------------------------

def default_extended_config(D: int = 2, rounds: int = 100_000,
                            eve: EveStrategy | None = None, seed: int = 0,
                            stream: int = 0) -> ProtocolConfig:
    """Fixture configs: D=2 uses the Z/X computational-probe sets with the
    rotation pair families; D=4 uses the Bell-probe sets with the Pauli
    family and its unbiased partner."""
    if D == 2:
        sets = (tester_mod.named_tester_set("z"), tester_mod.named_tester_set("xcomp"))
        encs = (build_named_basis("rotation", 2), build_named_basis("hadamard-pair", 2))
    elif D == 4:
        sets = (tester_mod.named_tester_set("bell"),
                tester_mod.bell_tester_set(measurement_rotation=balanced_qubit_rotation()))
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
    report = verify_prop_maximal(s1, s2, f1, f2, tol=1e-6)
    if not report.hypothesis_pass or not report.muub.verdict:
        raise HypothesisViolation(
            "tester sets are not deterministic/uniform on the encoding families: "
            + "; ".join(report.failures[:3])
        )
    sets = [list(s1), list(s2)]
    # p_out[s, ti, sa, j]: tester ti of set s on element j of family sa; one
    # stacked call per tester over both families
    fams = np.stack([np.stack(f1.elements), np.stack(f2.elements)])
    p_out = _snap_rows([[outcome_probabilities(t, fams) for t in ts] for ts in sets])
    decode = np.full((2, dd, dd), -1, dtype=np.int64)
    for s in range(2):
        for ti in range(dd):
            for j in range(dd):
                k = int(np.argmax(p_out[s, ti, s, j]))
                if decode[s, ti, k] != -1:
                    raise HypothesisViolation("deterministic outcomes do not separate digits")
                decode[s, ti, k] = j
    collapse = np.empty((2, 2, dd, dd))
    for se in range(2):
        probe_basis = np.stack([t.input.conj() for t in sets[se]])
        for sb in range(2):
            for ti, t in enumerate(sets[sb]):
                collapse[se, sb, ti] = np.abs(probe_basis @ t.input) ** 2
    p_proj = np.empty((2, dd, 2, dd))
    for se in range(2):
        for k in range(dd):
            chi = sets[se][0].projectors[k]
            for sb in range(2):
                p_proj[se, k, sb] = _dist(sets[sb][0].projector_matrix(), chi)
    return dict(p_out=p_out, decode=decode, collapse=_snap_rows(collapse),
                p_proj=_snap_rows(p_proj))


_EXT_COLUMNS = ("bob_set", "bob_tester", "alice_set", "alice_digit", "eve_set",
                "eve_tester_or_collapse", "eve_outcome", "eve_digit", "bob_outcome",
                "bob_digit", "sifted", "bob_error", "eve_correct")


def _extended_rounds(draws, eve_kind, eve_set_policy, n_digits, cum, decode):
    """Records and counts for one block of D-ary protocol rounds.

    draws columns: 0 bob set, 1 bob tester, 2 alice set, 3 alice digit,
      4 eve set, 5 eve tester/collapse, 6 eve outcome,
      7 eve fallback guess, 8 bob outcome.
    rec columns: 0 bob set, 1 bob tester, 2 alice set, 3 alice digit,
      4 eve set, 5 eve tester/collapse, 6 eve outcome, 7 eve digit,
      8 bob outcome, 9 bob digit, 10 sifted, 11 bob error, 12 eve correct.
      Unused fields stay -1.
    eve_set_policy: 0 fixed set 0, 1 uniform.
    counts: sifted, bob errors, eve correct.
    """
    rec = np.full((draws.shape[0], 13), -1, dtype=np.int64)
    sb = _index(draws[:, 0], 2)
    tb = _index(draws[:, 1], n_digits)
    sa = _index(draws[:, 2], 2)
    dig = _index(draws[:, 3], n_digits)
    rec[:, 0] = sb
    rec[:, 1] = tb
    rec[:, 2] = sa
    rec[:, 3] = dig
    p_out = cum["p_out"]
    if eve_kind == 0:
        out = _sample(p_out[sb, tb, sa, dig], draws[:, 8])
    else:
        se = np.zeros_like(sb) if eve_set_policy == 0 else _index(draws[:, 4], 2)
        rec[:, 4] = se
        if eve_kind == 1:
            te = _index(draws[:, 5], n_digits)
            rec[:, 5] = te
            eout = _sample(p_out[se, te, sa, dig], draws[:, 6])
            eraw = decode[se, te, eout]
            out = _sample(p_out[sb, tb, se, eraw], draws[:, 8])
        else:
            m = _sample(cum["collapse"][se, sb, tb], draws[:, 5])
            rec[:, 5] = m
            eout = _sample(p_out[se, m, sa, dig], draws[:, 6])
            eraw = decode[se, m, eout]
            out = _sample(cum["p_proj"][se, eout, sb], draws[:, 8])
        rec[:, 6] = eout
        rec[:, 7] = np.where(se == sa, eraw, _index(draws[:, 7], n_digits))
    rec[:, 8] = out
    bdig = decode[sb, tb, out]
    rec[:, 9] = bdig
    sift = sb == sa
    rec[:, 10] = sift
    rec[:, 11] = np.where(sift, bdig != dig, -1)
    if eve_kind != 0:
        rec[:, 12] = np.where(sift, rec[:, 7] == dig, -1)
    counts = np.array([np.sum(sift), np.sum(rec[:, 11] == 1), np.sum(rec[:, 12] == 1)])
    return rec, counts


def run_extended(cfg: ProtocolConfig, trace=None, stages: dict | None = None) -> ProtocolStats:
    """Simulate the D-ary protocol; optionally write a per-round CSV trace
    (see the module docstring) and record stage times in ``stages``."""
    if cfg.control_fraction != 0.0:
        raise ConfigError("control mode is not modeled for the D-ary protocol")
    started = time.perf_counter()
    tables = _extended_tables(cfg)
    eve_kind = EVE_KINDS.index(cfg.eve.kind)
    set_policy = SET_POLICIES.index(cfg.eve.set_policy)
    cum = {k: _cumulative(tables[k]) for k in ("p_out", "collapse", "p_proj")}
    if stages is not None:
        stages["tables"] = _ms(time.perf_counter() - started)
    sifted, bob_errors, eve_correct = (
        int(c) for c in _simulate(
            cfg, 9, _EXT_COLUMNS,
            lambda draws: _extended_rounds(draws, eve_kind, set_policy, cfg.D, cum,
                                           tables["decode"]),
            trace, stages))
    eve_rounds = 0 if eve_kind == 0 else sifted
    return _assemble_stats(cfg.rounds, 0, sifted, bob_errors, 0, 0,
                           eve_rounds, eve_correct)


def _assemble_stats(rounds, control_rounds, sifted, bob_errors, cm_comparisons,
                    cm_mismatches, eve_rounds, eve_correct) -> ProtocolStats:
    sift_fraction, sift_se = _rate(sifted, rounds)
    bob_rate, bob_se = _rate(bob_errors, sifted)
    cm_rate, cm_se = _rate(cm_mismatches, cm_comparisons)
    eve_acc, eve_se = _rate(eve_correct, eve_rounds)
    return ProtocolStats(
        rounds=rounds, control_rounds=control_rounds, sifted=sifted,
        sift_fraction=sift_fraction, sift_se=sift_se,
        bob_errors=bob_errors, bob_error_rate=bob_rate, bob_error_se=bob_se,
        cm_comparisons=cm_comparisons, cm_mismatches=cm_mismatches,
        cm_mismatch_rate=cm_rate, cm_mismatch_se=cm_se,
        eve_rounds=eve_rounds, eve_correct=eve_correct,
        eve_accuracy=eve_acc, eve_accuracy_se=eve_se,
    )


# ---------------------------------------------------------------------------
# Config JSON (mirrors ProtocolConfig; set/basis entries may be registry
# names or inline literals)
# ---------------------------------------------------------------------------

def resolve_tester_set(spec) -> TesterSet:
    if isinstance(spec, str):
        if spec == "bell-rot":
            return tester_mod.bell_tester_set(measurement_rotation=balanced_qubit_rotation())
        return tester_mod.named_tester_set(spec)
    testers = tuple(tester_mod.tester_from_json(t) for t in spec)
    if not testers:
        raise ConfigError("empty tester set")
    return TesterSet(testers=testers, dim=testers[0].dim)


def resolve_basis(spec, d: int) -> UnitaryBasis:
    if isinstance(spec, str):
        return build_named_basis(spec, d)
    return muub_mod.basis_from_json(spec)


def config_from_json(obj: dict) -> ProtocolConfig:
    """ProtocolConfig from its JSON object; a malformed config raises
    ConfigError, or ValueError from a malformed tester or basis literal."""
    if not isinstance(obj, dict):
        raise ConfigError("bad protocol config: not a JSON object")
    try:
        d = int(obj.get("d", 2))
        eve_obj = obj.get("eve", {})
        if not isinstance(eve_obj, dict):
            raise ConfigError("bad protocol config: eve is not a JSON object")
        eve = EveStrategy(
            kind=eve_obj.get("kind", "none"),
            resend_policy=eve_obj.get("resend_policy", "fixed-zero"),
            set_policy=eve_obj.get("set_policy", "fixed"),
        )
        tester_sets = tuple(resolve_tester_set(s) for s in obj["tester_sets"])
        encoding_sets = tuple(resolve_basis(b, d) for b in obj["encoding_sets"])
        if not encoding_sets:
            raise ConfigError("bad protocol config: encoding_sets is empty")
        return ProtocolConfig(
            d=d,
            D=int(obj.get("D", encoding_sets[0].D)),
            rounds=int(obj["rounds"]),
            control_fraction=float(obj.get("control_fraction", 0.0)),
            eve=eve,
            tester_sets=tester_sets,
            encoding_sets=encoding_sets,
            rng=RngHandle(seed=int(obj.get("seed", 0)), stream=int(obj.get("stream", 0))),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad protocol config: {exc}") from exc
