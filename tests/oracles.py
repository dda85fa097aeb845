"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: entropy
sums are minimized by dense grid scans over explicit Euler-angle matrices,
protocol rates come from exhaustive enumeration of the finite round state
space, and the round kernels gather each round's table row by its full
index.  The frozen constants asserted by the tests were produced by these
functions; the tests also re-run them at moderate resolution to keep the
constants honest.  Some references are former library paths kept whole:
``gated_extended_p_out``, the D-ary protocol's earlier gate, which calls
the library's own theorem check, ``sequential_unitary_mapping``, and
``pairwise_entropy_objective``, the bound search's objective with one
Born-rule product per tester, which calls the library's Born rule, and
``loop_suite_tester`` and ``loop_suite_ppovm``, the ``verify`` tester and
ppovm suites with one Haar draw and one completion per library call, and
``loop_multistart``, the bound search with one trial step per start per
objective call, which calls the library's exp map.  ``loop_tester_checks``
is the ``Tester`` constructor's validation through ``qmath.as_states`` and
one Gram product, ``scalar_is_eigenoperator`` the eigenoperator test for
one matrix and one state with ``np.vdot``, ``complete_as_list`` the former
list path of ``tester.is_complete_set``, which compares the shared
measurement itself, and ``loop_verify_prop_trivial`` the trivial-bound
check with one library call per tester, tester pair, matrix pair and
probe.  The ``former_`` checks are the library's checked entry points as
they were before each took one conversion and one reduction per check:
``is_unitary`` and ``assert_unitary``, ``is_orthogonal_unitary_basis``,
the ``UnitaryBasis`` constructor, ``is_eigenoperator`` and
``can_distinguish``; each must give the same verdicts, results,
exception types and messages.
"""

import numpy as np

from qtesters import bounds, muub, ppovm, qmath, tester
from qtesters.qmath import RngHandle
from qtesters.tester import outcome_probabilities, shannon_entropy

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
XPLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
XMINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
Z_STATES = (KET0, KET1)
X_STATES = (XPLUS, XMINUS)

# Frozen output of bloch_grid_min(Z on |0>, Z on |x+>) at n=160: the summed
# entropy of the two testers is minimized by diagonal unitaries, at 1 bit.
BOUND_0Z_PZ = 1.0

# Frozen matched-basis control-mode mismatch rates from enumerate_cm_mismatch.
CM_MISMATCH_QMM = 0.5          # any fixed resend state, and the random-input policy
CM_MISMATCH_INTERCEPT = 0.25   # intercept-resend in a random basis
BOB_ERROR_INTERCEPT = 0.25


def _entropy_bits(p):
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    mask = p > 1e-300
    out = np.zeros_like(p)
    out[mask] = -p[mask] * np.log2(p[mask])
    return out.sum(axis=-1)


def _euler_grid(n):
    """SU(2) sampled as Rz(a) Ry(b) Rz(c) over a dense angle grid."""
    a = np.linspace(0, 2 * np.pi, n, endpoint=False)
    b = np.linspace(0, np.pi, n)
    c = np.linspace(0, 2 * np.pi, n, endpoint=False)
    aa, bb, cc = (x.ravel() for x in np.meshgrid(a, b, c, indexing="ij"))
    za = np.exp(-0.5j * aa)
    zc = np.exp(-0.5j * cc)
    cb, sb = np.cos(bb / 2), np.sin(bb / 2)
    u = np.empty((aa.size, 2, 2), dtype=complex)
    u[:, 0, 0] = za * cb * zc
    u[:, 0, 1] = -za * sb / zc
    u[:, 1, 0] = sb * zc / za
    u[:, 1, 1] = cb / (za * zc)
    return u


def bloch_grid_min(input1, meas1, input2, meas2, n=120):
    """Brute-force min over SU(2) of the two testers' summed entropies."""
    u = _euler_grid(n)
    m1 = np.stack([v.conj() for v in meas1])
    m2 = np.stack([v.conj() for v in meas2])
    p1 = np.abs(np.einsum("kj,nji,i->nk", m1, u, input1)) ** 2
    p2 = np.abs(np.einsum("kj,nji,i->nk", m2, u, input2)) ** 2
    return float(np.min(_entropy_bits(p1) + _entropy_bits(p2)))


def enumerate_cm_mismatch(resend_states):
    """Expected matched-basis mismatch rate when the control measurement hits
    an adversary state instead of the probe Bob sent.

    Averages over Bob's four probe states, the matching control basis, and
    the adversary's resend distribution.
    """
    bases = {0: Z_STATES, 1: X_STATES}
    basis_of = [(0, 0), (0, 1), (1, 0), (1, 1)]  # (basis, index) per probe below
    probes = [KET0, KET1, XPLUS, XMINUS]
    total = 0.0
    for probe_i, probe in enumerate(probes):
        b, idx = basis_of[probe_i]
        p_match = np.mean([abs(np.vdot(bases[b][idx], e)) ** 2 for e in resend_states])
        total += 1.0 - p_match
    return total / len(probes)


def enumerate_intercept_rates():
    """(matched-basis CM mismatch, decode error rate) for an adversary that
    measures in a random basis on both passes, by exhaustive enumeration."""
    bases = {0: Z_STATES, 1: X_STATES}
    probes = [(KET0, 0, 0), (KET1, 0, 1), (XPLUS, 1, 0), (XMINUS, 1, 1)]
    i2 = np.eye(2, dtype=complex)
    isy = np.array([[0, 1], [-1, 0]], dtype=complex)
    mismatch = 0.0
    decode_err = 0.0
    for probe, b_bob, idx_bob in probes:
        for b_eve in (0, 1):  # adversary basis, probability 1/2 each
            for m, estate in enumerate(bases[b_eve]):
                p_collapse = abs(np.vdot(estate, probe)) ** 2
                # control comparison in Bob's own basis
                p_right = abs(np.vdot(bases[b_bob][idx_bob], estate)) ** 2
                mismatch += 0.5 * p_collapse * (1.0 - p_right)
                # encoding rounds: Alice applies u (probability 1/2 per bit),
                # the adversary remeasures in her basis, and Bob measures the
                # twice-collapsed state against his own projectors
                for bit, u in enumerate((i2, isy)):
                    evolved = u @ estate
                    for ostate in bases[b_eve]:
                        p_out = abs(np.vdot(ostate, evolved)) ** 2
                        p_bob_right = abs(np.vdot(bases[b_bob][(idx_bob + bit) % 2], ostate)) ** 2
                        decode_err += 0.25 * p_collapse * p_out * (1.0 - p_bob_right)
    n_probe = len(probes)
    return mismatch / n_probe, decode_err / n_probe


def kron_outcome_probabilities(probe, projectors, d, u):
    """|<chi_k| (u (x) I) |psi>|^2 with the embedding formed explicitly by
    np.kron; the identity has the ancilla's size, 1 for an ancilla-free probe."""
    psi = np.asarray(probe, dtype=complex)
    rows = np.stack([np.asarray(c, dtype=complex).conj() for c in projectors])
    return np.abs(rows @ (np.kron(u, np.eye(psi.size // d)) @ psi)) ** 2


def pairwise_hs_overlaps(a, b, embed_dim=1):
    """|Tr(A^dag B)|^2 for every pair, one np.trace per pair, with each
    matrix first embedded as m (x) I_embed_dim."""
    i_e = np.eye(embed_dim)
    return np.array([[abs(np.trace(np.kron(p, i_e).conj().T @ np.kron(q, i_e))) ** 2
                      for q in b] for p in a])


def kron_tester_elements(probe, projectors, d):
    """PPOVM elements T_k = Tr_anc[(P_k (x) I)(I (x) S rho^t S)], one
    np.kron-built operator per projector.

    The ambient space is ordered (output, ancilla, probe-input).  The probe
    density operator rho lives on (probe-input, ancilla); it is partially
    transposed on its first factor and reordered by the factor swap S to
    (ancilla, probe-input).  An ancilla-free probe has a one-dimensional
    ancilla.  Returns the (n, d^2, d^2) stack.
    """
    psi = np.asarray(probe, dtype=complex)
    danc = psi.size // d
    rho = np.outer(psi, psi.conj())
    rho_t = rho.reshape(d, danc, d, danc).transpose(2, 1, 0, 3).reshape(psi.size, psi.size)
    swap = np.zeros((psi.size, psi.size))
    for a in range(d):
        for b in range(danc):
            swap[b * d + a, a * danc + b] = 1.0
    srs = swap @ rho_t @ swap.T
    i_d = np.eye(d)
    elements = []
    for chi in projectors:
        p_k = np.outer(chi, np.conj(chi))
        big = (np.kron(p_k, i_d) @ np.kron(i_d, srs)).reshape(d, danc, d, d, danc, d)
        elements.append(np.einsum("mbnpbq->mnpq", big).reshape(d * d, d * d))
    return np.stack(elements)


def _born(rows, state):
    """|<m_k|state>|^2 for the conjugated measurement rows m_k^*."""
    return np.abs(rows @ state) ** 2


def snap_rows(table):
    """Entries below 1e-9 set to 0, then each distribution (last axis)
    divided by its sum, one distribution at a time."""
    t = np.array(table, dtype=float)
    for idx in np.ndindex(t.shape[:-1]):
        row = t[idx]
        row[row < 1e-9] = 0.0
        row /= row.sum()
    return t


def loop_lm05_tables(cfg):
    """The qubit protocol's outcome tables, filled one entry at a time.

    Bob's tables come from the np.kron rule; every control-mode table is
    a control basis measured on one state.  Inputs are assumed valid.
    """
    testers = [t for s in cfg.tester_sets for t in s]
    enc = list(cfg.encoding_sets[0])
    cm_bases = [np.stack([p.conj() for p in s.testers[0].projectors]) for s in cfg.tester_sets]
    n_t = len(testers)
    p_bob = np.empty((n_t, 2, 2))
    self_idx = np.empty(n_t, dtype=np.int64)
    basis_id = np.empty(n_t, dtype=np.int64)
    state_idx = np.empty(n_t, dtype=np.int64)
    p_state_in_basis = np.empty((n_t, 2, 2))
    for ti, t in enumerate(testers):
        own = kron_outcome_probabilities(t.input, t.projectors, 2, np.eye(2))
        self_idx[ti] = np.argmax(own)
        for bit, u in enumerate(enc):
            p_bob[ti, bit] = kron_outcome_probabilities(t.input, t.projectors, 2, u)
        for b, mb in enumerate(cm_bases):
            p = _born(mb, t.input)
            p_state_in_basis[ti, b] = p
            if p.max() > 1.0 - 1e-9:
                basis_id[ti], state_idx[ti] = b, np.argmax(p)
    if cfg.eve.resend_policy == "fixed-zero":
        resend = [KET0]
    else:
        resend = [t.input for t in testers]
    p_cm_eve = np.empty((len(resend), 2, 2))
    for e, state in enumerate(resend):
        for b, mb in enumerate(cm_bases):
            p_cm_eve[e, b] = _born(mb, state)
    p_enc_state_basis = np.empty((2, 2, 2, 2))
    p_basis_basis = np.empty((2, 2, 2, 2))
    p_basis_state_tester = np.empty((2, 2, n_t, 2))
    for b in range(2):
        for m in range(2):
            state = cm_bases[b][m].conj()
            for bit, u in enumerate(enc):
                p_enc_state_basis[b, m, bit] = _born(cm_bases[b], u @ state)
            for b2 in range(2):
                p_basis_basis[b, m, b2] = _born(cm_bases[b2], state)
            for ti, t in enumerate(testers):
                p_basis_state_tester[b, m, ti] = _born(np.stack([p.conj() for p in t.projectors]),
                                                       state)
    return dict(
        p_bob=snap_rows(p_bob), self_idx=self_idx, basis_id=basis_id, state_idx=state_idx,
        p_state_in_basis=snap_rows(p_state_in_basis), p_cm_eve=snap_rows(p_cm_eve),
        p_enc_state_basis=snap_rows(p_enc_state_basis),
        p_basis_state_tester=snap_rows(p_basis_state_tester),
        p_basis_basis=snap_rows(p_basis_basis),
    )


def loop_extended_tables(cfg):
    """The D-ary protocol's outcome tables, filled one entry at a time, with
    Bob's table from the np.kron rule.  Inputs are assumed valid."""
    sets = [list(s) for s in cfg.tester_sets]
    dd = cfg.D
    p_out = np.empty((2, dd, 2, dd, len(sets[0][0].projectors)))
    for s in range(2):
        for ti, t in enumerate(sets[s]):
            for sa, fam in enumerate(cfg.encoding_sets):
                for j, u in enumerate(fam):
                    p_out[s, ti, sa, j] = kron_outcome_probabilities(t.input, t.projectors,
                                                                     t.dim, u)
    p_out = snap_rows(p_out)
    decode = np.full((2, dd, dd), -1, dtype=np.int64)
    for s in range(2):
        for ti in range(dd):
            for j in range(dd):
                decode[s, ti, np.argmax(p_out[s, ti, s, j])] = j
    collapse = np.empty((2, 2, dd, dd))
    for se in range(2):
        probe_basis = np.stack([t.input.conj() for t in sets[se]])
        for sb in range(2):
            for ti, t in enumerate(sets[sb]):
                collapse[se, sb, ti] = _born(probe_basis, t.input)
    p_proj = np.empty((2, dd, 2, dd))
    for se in range(2):
        for k in range(dd):
            chi = sets[se][0].projectors[k]
            for sb in range(2):
                p_proj[se, k, sb] = _born(np.stack([p.conj() for p in sets[sb][0].projectors]),
                                          chi)
    return dict(p_out=p_out, decode=decode, collapse=snap_rows(collapse),
                p_proj=snap_rows(p_proj))


GATE_MESSAGE = "tester sets are not deterministic/uniform on the encoding families: "
RANGE_FAILURE = "an embedded cross overlap left [0, D]"


def gated_extended_p_out(cfg):
    """Bob's D-ary table behind the protocol's former gate: the whole
    ``verify_prop_maximal`` theorem check, passed when its hypothesis and its
    MUUB verdict hold, then one broadcast Born-rule product over both tester
    sets and both families, snapped.

    Returns (report, p_out), with p_out None when the gate rejects; the run
    then raised HypothesisViolation with ``GATE_MESSAGE`` followed by the
    first three report failures, joined by "; ".
    """
    from qtesters.muub import verify_prop_maximal

    s1, s2 = cfg.tester_sets
    f1, f2 = cfg.encoding_sets
    report = verify_prop_maximal(s1, s2, f1, f2)
    if not report.hypothesis_pass or not report.muub.verdict:
        return report, None
    testers = [t for s in cfg.tester_sets for t in s]
    d, dd, n = cfg.d, cfg.D, testers[0].input.size
    probes = np.stack([t.input for t in testers]).reshape(2, dd, n)
    rows = np.stack([t.projector_matrix() for t in testers]).reshape(2, dd, -1, n)
    fams = np.stack([np.stack(f1.elements), np.stack(f2.elements)])
    amps = (fams @ probes.reshape(2, dd, 1, 1, d, -1)).reshape(2, dd, 2, dd, n, 1)
    return report, snap_rows(np.abs(rows[:, :, None, None] @ amps)[..., 0] ** 2)


def row_cumulative(table):
    """Cumulative sums along each distribution, without the last bin, with
    the bin axis last."""
    return np.cumsum(table, axis=-1)[..., :-1]


def row_sample(cum_rows, r):
    """Per row, the first bin whose cumulative probability exceeds r (the
    last bin if none does), for rows gathered from a ``row_cumulative``
    table."""
    return (cum_rows <= r[:, None]).sum(axis=1)


def _uniform_index(x, n):
    return (x * n).astype(np.int64)


def record_lm05_rounds(draws, eve_kind, control_fraction, tables):
    """Records (rows of the 11 qubit-protocol columns) and counts for one
    block of rounds, with the encoding and control rounds gathered apart
    and each round's table row gathered by its full index."""
    cum = {k: row_cumulative(v) for k, v in tables.items() if k.startswith("p_")}
    self_idx, basis_id, state_idx = tables["self_idx"], tables["basis_id"], tables["state_idx"]
    n_testers = self_idx.size
    rec = np.full((draws.shape[0], 11), -1, dtype=np.int64)
    t = _uniform_index(draws[:, 0], n_testers)
    cm = draws[:, 1] < control_fraction
    rec[:, 0] = t
    rec[:, 1] = cm

    enc = ~cm
    de, te = draws[enc], t[enc]
    bit = _uniform_index(de[:, 2], 2)
    rec[enc, 2] = bit
    if eve_kind == 0:
        out = row_sample(cum["p_bob"][te, bit], de[:, 7])
    elif eve_kind == 1:
        tev = _uniform_index(de[:, 3], n_testers)
        rec[enc, 4] = tev
        eout = row_sample(cum["p_bob"][tev, bit], de[:, 5])
        ebit = (eout != self_idx[tev]).astype(np.int64)
        rec[enc, 10] = ebit
        out = row_sample(cum["p_bob"][te, ebit], de[:, 7])
    else:
        be = _uniform_index(de[:, 3], 2)
        rec[enc, 4] = be
        m = row_sample(cum["p_state_in_basis"][te, be], de[:, 4])
        eout = row_sample(cum["p_enc_state_basis"][be, m, bit], de[:, 5])
        rec[enc, 10] = eout != m
        out = row_sample(cum["p_basis_state_tester"][be, eout, te], de[:, 7])
    rec[enc, 6] = out
    rec[enc, 7] = out != self_idx[te]

    dc, tc = draws[cm], t[cm]
    basis = _uniform_index(dc[:, 2], 2)
    rec[cm, 3] = basis
    if eve_kind == 0:
        out = row_sample(cum["p_state_in_basis"][tc, basis], dc[:, 6])
    elif eve_kind == 1:
        choice = _uniform_index(dc[:, 3], tables["p_cm_eve"].shape[0])
        rec[cm, 4] = choice
        out = row_sample(cum["p_cm_eve"][choice, basis], dc[:, 6])
    else:
        be = _uniform_index(dc[:, 3], 2)
        rec[cm, 4] = be
        m = row_sample(cum["p_state_in_basis"][tc, be], dc[:, 4])
        out = row_sample(cum["p_basis_basis"][be, m, basis], dc[:, 6])
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


def record_extended_rounds(draws, eve_kind, eve_set_policy, n_digits, tables):
    """Records (rows of the 13 D-ary protocol columns) and counts for one
    block of rounds, each round's table row gathered by its full index."""
    cum = {k: row_cumulative(tables[k]) for k in ("p_out", "collapse", "p_proj")}
    decode = tables["decode"]
    rec = np.full((draws.shape[0], 13), -1, dtype=np.int64)
    sb = _uniform_index(draws[:, 0], 2)
    tb = _uniform_index(draws[:, 1], n_digits)
    sa = _uniform_index(draws[:, 2], 2)
    dig = _uniform_index(draws[:, 3], n_digits)
    rec[:, 0] = sb
    rec[:, 1] = tb
    rec[:, 2] = sa
    rec[:, 3] = dig
    p_out = cum["p_out"]
    if eve_kind == 0:
        out = row_sample(p_out[sb, tb, sa, dig], draws[:, 8])
    else:
        se = np.zeros_like(sb) if eve_set_policy == 0 else _uniform_index(draws[:, 4], 2)
        rec[:, 4] = se
        if eve_kind == 1:
            te = _uniform_index(draws[:, 5], n_digits)
            rec[:, 5] = te
            eout = row_sample(p_out[se, te, sa, dig], draws[:, 6])
            eraw = decode[se, te, eout]
            out = row_sample(p_out[sb, tb, se, eraw], draws[:, 8])
        else:
            m = row_sample(cum["collapse"][se, sb, tb], draws[:, 5])
            rec[:, 5] = m
            eout = row_sample(p_out[se, m, sa, dig], draws[:, 6])
            eraw = decode[se, m, eout]
            out = row_sample(cum["p_proj"][se, eout, sb], draws[:, 8])
        rec[:, 6] = eout
        rec[:, 7] = np.where(se == sa, eraw, _uniform_index(draws[:, 7], n_digits))
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


def sequential_unitary_mapping(source, target, gen):
    """A unitary sending the state ``source`` to the state ``target``
    exactly, Haar-random on the orthogonal complement: the completions of
    the target and then of the source are drawn from ``gen`` one after the
    other, and the source's basis is mapped onto the target's."""
    d = np.size(target)
    w_target = qmath.haar_random_unitary(d, gen)
    w_source = qmath.haar_random_unitary(d, gen)
    return (qmath.complete_onb(target, w_target)
            @ qmath.complete_onb(source, w_source).conj().T)


def pairwise_entropy_objective(t1, t2):
    """The values of ``bounds._entropy_objective``, with one Born-rule
    product and one entropy call per tester."""
    def g(u):
        p1, p2 = outcome_probabilities(t1, u), outcome_probabilities(t2, u)
        return shannon_entropy(p1) + shannon_entropy(p2)
    return g


def loop_suite_tester(seed):
    """``cli._suite_tester`` drawing and orthonormalizing one sample at a time."""
    gen = RngHandle(seed, 201).generator()
    checks = []
    worst = 0.0
    for d in (2, 3):
        for k in range(10):
            t = tester.random_tester(d, gen, bipartite=k % 2 == 1)
            u = qmath.haar_random_unitary(d, gen)
            worst = max(worst, abs(tester.outcome_distribution(t, u).sum() - 1.0))
    checks.append({"name": "distribution-normalization", "max_dev": worst})
    t = tester.random_tester(2, gen)
    u = qmath.haar_random_unitary(2, gen)
    base = tester.outcome_distribution(t, u)
    worst = 0.0
    for phi in gen.uniform(0, 2 * np.pi, 5):
        p = tester.outcome_distribution(t, np.exp(1j * phi) * u)
        worst = max(worst, float(np.max(np.abs(p - base))))
    checks.append({"name": "global-phase-invariance", "max_dev": worst, "tol": 1e-12})
    ok = True
    for _ in range(20):
        # the second and third testers are drawn, as the suite draws them, but unread
        t, _, _ = (tester.random_tester(2, gen) for _ in range(3))
        w = qmath.haar_random_unitary(2, gen)
        projs = list(t.projectors)
        rev = tester.Tester(input=t.input, projectors=projs[::-1], dim=2)
        ph = tester.Tester(input=t.input, projectors=[np.exp(0.7j) * p for p in projs], dim=2)
        for a, b in ((t, t), (t, rev), (rev, t), (rev, ph), (t, ph)):
            ok &= tester.are_equivalent(a, b, w)
    checks.append({"name": "equivalence-relation", "pass": bool(ok)})
    agreements = 0
    trials = 100
    for _ in range(trials):
        d = 2 if gen.integers(2) else 3
        basis = qmath.haar_random_unitary(d, gen)
        projs = tuple(basis[:, i].copy() for i in range(d))
        psi = projs[int(gen.integers(d))]
        t = tester.Tester(input=psi, projectors=projs, dim=d)
        u1 = sequential_unitary_mapping(psi, projs[int(gen.integers(d))], gen)
        u2 = sequential_unitary_mapping(psi, projs[int(gen.integers(d))], gen)
        eig = tester.is_eigenoperator(u2.conj().T @ u1, psi)
        if tester.can_distinguish(t, u1, u2) != (not eig):
            continue
        agreements += 1
    checks.append({"name": "distinguish-eigenoperator-agreement",
                   "agreements": agreements, "trials": trials,
                   "pass": agreements == trials})
    h = tester.shannon_entropy(np.array([0.5, 0.25, 0.25]))
    checks.append({"name": "entropy-dyadic", "max_dev": abs(h - 1.5)})
    for ch in checks:
        ch.setdefault("tol", 1e-9)
        if "pass" not in ch:
            ch["pass"] = ch["max_dev"] <= ch["tol"]
    return checks


def loop_suite_ppovm(seed):
    """``cli._suite_ppovm`` drawing and orthonormalizing one sample at a time."""
    gen = RngHandle(seed, 301).generator()
    checks = []
    for d in (2, 3):
        for k in range(50):
            t = tester.random_tester(d, gen, bipartite=k % 2 == 1)
            u = qmath.haar_random_unitary(d, gen)
            direct = tester.outcome_distribution(t, u)
            via = ppovm.probability_via_choi(ppovm.tester_elements(t), ppovm.choi_operator(u))
            dev = float(np.max(np.abs(direct - via)))
            checks.append({
                "name": f"direct-vs-process-rule-d{d}-{k:02d}",
                "bipartite": k % 2 == 1,
                "max_dev": dev,
                "tol": 1e-9,
                "pass": dev <= 1e-9,
            })
    return checks


def _loop_traceless(omega):
    d = omega.shape[-1]
    return omega - (np.trace(omega, axis1=-2, axis2=-1) / d)[:, None, None] * np.eye(d)


def loop_multistart(g, d, cfg, gtol, *, target=None):
    """``bounds._multistart`` taking one trial step per live start per
    objective call, so a start's every rejected step costs a call."""
    b = bounds
    x0 = cfg.rng.generator().uniform(-np.pi, np.pi, size=(cfg.starts, d * d - 1))
    u = b.unitary_from_params(x0, b.su_generators(d))
    f, omega = g(u)
    omega, initial = _loop_traceless(omega), f.copy()
    mu = np.full(cfg.starts, b._MU_START)
    final, nit = np.empty(cfg.starts), np.empty(cfg.starts, dtype=int)
    converged = np.empty(cfg.starts, dtype=bool)
    live, it, out = np.arange(cfg.starts), 0, np.empty_like(u)
    while True:
        sq = b._inner(omega, omega)
        done = (sq <= gtol * gtol) | ~np.isfinite(sq) | (mu < b._MU_STOP)
        stop = done | (it >= cfg.max_iterations)
        if target is not None and (done & (f <= target)).any():
            stop[:] = True
        if stop.any():
            gone = live[stop]
            out[gone], final[gone], nit[gone], converged[gone] = u[stop], f[stop], it, done[stop]
            keep = ~stop
            live, u, f, omega, mu, sq = (a[keep] for a in (live, u, f, omega, mu, sq))
            if live.size == 0:
                return b._Runs(out, initial, final, nit + 1, nit, converged)
        u_try = b._expi_eig(*np.linalg.eigh(omega), -mu) @ u
        f_try, omega_try = g(u_try)
        omega_try = _loop_traceless(omega_try)
        accept = f_try <= f - b._ARMIJO * mu * sq
        sy = -mu * b._inner(omega, omega_try - omega)
        bb = np.divide(mu * mu * sq, sy, out=2.0 * mu, where=sy > 0)
        mu = np.where(accept, np.clip(bb, b._MU_LOW, b._MU_HIGH), 0.5 * mu)
        u = np.where(accept[:, None, None], u_try, u)
        f = np.where(accept, f_try, f)
        omega = np.where(accept[:, None, None], omega_try, omega)
        it += 1


def loop_tester_checks(probe, projectors, dim):
    """``Tester``'s checks: every state through ``qmath.as_states``, then
    one orthonormality test of the projectors.  Returns (probe, projector
    stack, conjugated projector matrix) or raises what ``Tester`` would."""
    if dim < 1:
        raise ValueError(f"tester dimension must be at least 1, got dim={dim}")
    flat = [np.asarray(v, dtype=complex).reshape(-1) for v in (probe, *projectors)]
    size, n = flat[0].size, len(flat) - 1
    if size not in (dim, dim * dim):
        raise ValueError(f"probe size {size} is neither d nor d^2 for d={dim}")
    if any(p.size != size for p in flat[1:]):
        raise ValueError("projector dimension differs from the probe dimension")
    if n not in (dim, dim * dim) or n > size:
        raise ValueError(f"projector count {n} must be d or d^2 and fit the space")
    states = qmath.as_states(np.stack(flat))
    psi, projs = states[0], states[1:]
    m = projs.conj()
    if np.abs(m @ projs.T - np.eye(n)).max() > qmath.DEFAULT_TOL:
        raise ValueError("projectors are not orthonormal")
    return psi, projs, m


def scalar_is_eigenoperator(op, state):
    """``tester.is_eigenoperator`` for one matrix and one state."""
    op = qmath.as_matrix(op)
    psi = qmath.as_states(np.reshape(state, (1, -1)))[0]
    if op.shape != (psi.size, psi.size):
        raise ValueError("operator and state dimensions differ")
    v = op @ psi
    lam = np.vdot(psi, v)
    return bool(np.max(np.abs(v - lam * psi)) <= qmath.DEFAULT_TOL)


def complete_as_list(testers):
    """The former list path of ``tester.is_complete_set``: True iff the
    members share one measurement (count, size, and entries within
    ``DEFAULT_TOL``, compared as one stack), and their probes are
    orthonormal and resolve the identity, each within ``DEFAULT_TOL``."""
    testers = list(testers)
    if not testers:
        raise ValueError("empty tester set")
    if len({t.projector_matrix().shape for t in testers}) > 1:
        return False
    m = np.stack([t.projector_matrix() for t in testers])
    if not np.abs(m - m[0]).max() <= qmath.DEFAULT_TOL:
        return False
    inputs = np.stack([t.input for t in testers])
    gram = inputs.conj() @ inputs.T
    if np.max(np.abs(gram - np.eye(len(inputs)))) > qmath.DEFAULT_TOL:
        return False
    resolution = inputs.T @ inputs.conj()
    return bool(np.max(np.abs(resolution - np.eye(inputs.shape[1]))) <= qmath.DEFAULT_TOL)


def loop_verify_prop_trivial(s1, s2, us, span_samples):
    """``muub.verify_prop_trivial`` with one ``entropy_sum`` call per cross
    tester pair, one ``scalar_is_eigenoperator`` call per matrix pair and
    probe on the explicit ``np.kron`` of U_m^dag U_n and the ancilla's
    identity, one ``are_equivalent`` call per tester pair, and completeness
    checked on the members as a list by ``complete_as_list``."""
    failures = []
    us = muub._stack(us, s1.dim)
    if not complete_as_list(s1) or not complete_as_list(s2):
        failures.append("tester sets are not complete")
    pairs = [(ta, tb) for ta in s1 for tb in s2]
    sums = [bounds.entropy_sum(ta, tb, us) for ta, tb in pairs]
    for m in range(len(us)):
        for (ta, tb), h in zip(pairs, sums):
            if h[m] > tester.ENTROPY_ZERO_TOL:
                failures.append(
                    f"entropy sum {h[m]:.3e} bits nonzero for ({ta.label},{tb.label})")
    probes = [t.input for t in s1] + [t.input for t in s2]
    for m in range(len(us)):
        for n in range(len(us)):
            if m == n:
                continue
            w = us[m].conj().T @ us[n]
            for psi in probes:
                # U_m^dag U_n (x) I on a probe of size d (no ancilla) or d^2
                w_probe = np.kron(w, np.eye(psi.size // len(w)))
                if scalar_is_eigenoperator(w_probe, psi):
                    failures.append(f"U_{m}^dag U_{n} is an eigenoperator of a probe")
    hypothesis = not failures
    overlaps = muub.hs_overlap(us, us)
    s1_pass = True
    for m, n in zip(*np.triu_indices(len(us), 1)):
        if overlaps[m, n] > qmath.DEFAULT_TOL * qmath.DEFAULT_TOL:
            s1_pass = False
            failures.append(f"family elements {m},{n} are not HS-orthogonal")
    s2_pass = True
    testers = list(s1) + list(s2)
    pairs = [(ti, tj) for i, ti in enumerate(testers) for tj in testers[i + 1:]]
    ws = muub._stack(span_samples, s1.dim)
    equiv = [tester.are_equivalent(ti, tj, ws, tol=muub.SPAN_EQUIV_TOL) for ti, tj in pairs]
    for k in range(len(ws)):
        for (ti, tj), eq in zip(pairs, equiv):
            if not eq[k]:
                s2_pass = False
                failures.append(f"testers {ti.label},{tj.label} not equivalent on a span sample")
    return muub.TrivialBoundReport(hypothesis, s1_pass, s2_pass, tuple(failures))


def former_is_unitary(u):
    """``qmath.is_unitary`` with its former reductions: ``all`` of an
    entrywise test, then a fresh identity."""
    u = np.asarray(u)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        return False
    if not (np.abs(u) <= 1 + qmath.DEFAULT_TOL).all():
        return False
    gram = u.conj().swapaxes(-1, -2) @ u
    return bool(np.abs(gram - np.eye(u.shape[-1])).max(initial=0.0) <= qmath.DEFAULT_TOL)


def former_assert_unitary(u):
    """``qmath.assert_unitary`` through ``former_is_unitary``."""
    u = qmath.as_matrix(u)
    if not former_is_unitary(u):
        dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
        raise ValueError(f"matrix is not unitary: max|u^dag u - I| = {dev:.3e} > "
                         f"{qmath.DEFAULT_TOL}")
    return u


def former_is_orthogonal_unitary_basis(elements):
    """``muub.is_orthogonal_unitary_basis`` with the off-diagonal overlaps
    picked out by a fresh boolean mask."""
    try:
        els = np.asarray(elements, dtype=complex)
    except ValueError:
        return False
    if els.ndim != 3 or not els.size or len(els) not in (els.shape[1], els.shape[1] ** 2):
        return False
    if not former_is_unitary(els):
        return False
    off_diagonal = muub.hs_overlap(els, els)[~np.eye(len(els), dtype=bool)]
    return bool((off_diagonal <= qmath.DEFAULT_TOL * qmath.DEFAULT_TOL).all())


def former_unitary_basis(dim, elements):
    """``muub.UnitaryBasis``'s checks, with the elements converted once to
    be checked and once more to be kept.  Returns (dim, elements) or raises
    what ``UnitaryBasis`` would."""
    dim = qmath.int_field({"dim": dim}, "dim")
    if not former_is_orthogonal_unitary_basis(elements):
        raise ValueError("elements are not an orthogonal unitary basis of size d or d^2")
    els = np.array(elements, dtype=complex)
    if els.shape[1] != dim:
        raise ValueError("element dimension does not match dim")
    return dim, els


def former_is_eigenoperator(op, state):
    """``tester.is_eigenoperator`` with the ``ndarray`` sum and max methods
    in its multiple test."""
    op = qmath.as_matrix(op)
    psi = qmath.as_states(np.reshape(state, (1, -1)))[0]
    if op.shape != (psi.size, psi.size):
        raise ValueError("operator and state dimensions differ")
    v = op @ psi
    lam = (psi.conj() * v).sum(-1)
    return bool(np.abs(v - lam[..., None] * psi).max(-1) <= qmath.DEFAULT_TOL)


def former_can_distinguish(t, u1, u2):
    """``tester.can_distinguish`` with one checked Born-rule call and one
    entropy per unitary, in order."""
    if t.is_bipartite and tester._schmidt_rank(t.input, t.dim) > 1:
        raise ValueError("distinguishability requires a separable (ancilla-free) probe")
    p1 = tester.outcome_distribution(t, u1)
    p2 = tester.outcome_distribution(t, u2)
    if p1.ndim > 1 or p2.ndim > 1:
        raise ValueError("distinguishability takes two d x d unitaries, not stacks")
    h1 = shannon_entropy(p1)
    h2 = shannon_entropy(p2)
    if h1 > tester.ENTROPY_ZERO_TOL or h2 > tester.ENTROPY_ZERO_TOL:
        raise tester.HypothesisViolation(
            f"hypothesis violated: entropies ({h1:.3e}, {h2:.3e}) bits are not both zero")
    return int(np.argmax(p1)) != int(np.argmax(p2))
