"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: entropy
sums are minimized by dense grid scans over explicit Euler-angle matrices,
and protocol rates come from exhaustive enumeration of the finite round
state space.  The frozen constants asserted by the tests were produced by
these functions; the tests also re-run them at moderate resolution to keep
the constants honest.
"""

import numpy as np

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
