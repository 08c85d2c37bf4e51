"""Shared test helpers: independent oracles and random-state generators."""

import numpy as np
from scipy.linalg import expm

import gradion as g

I2 = np.eye(2, dtype=complex)
SZ2 = np.array([[-1, 0], [0, 1]], dtype=complex)  # sigma_z |1> = +|1>
SP2 = np.array([[0, 0], [1, 0]], dtype=complex)
SM2 = np.array([[0, 1], [0, 0]], dtype=complex)


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def embed3(op, ion):
    mats = [I2, I2, I2]
    mats[ion - 1] = op
    return kron3(*mats)


def pulse_oracle(ion, theta, phi):
    """Matrix-exponential oracle for the carrier rotation."""
    return embed3(expm(1j * (theta / 2.0) *
                       (np.exp(-1j * phi) * SP2 + np.exp(1j * phi) * SM2)), ion)


def spin_hamiltonian_oracle(w, J, J13):
    z = [embed3(SZ2, i) for i in (1, 2, 3)]
    return (0.5 * (w[0] * z[0] + w[1] * z[1] + w[2] * z[2])
            - 0.5 * J * (z[0] @ z[1] + z[1] @ z[2])
            - 0.5 * J13 * z[0] @ z[2])


def drive_hamiltonian_oracle(ion, phi, rabi):
    """Co-rotating drive -(rabi/2)(e^{-i phi} sigma_+ + e^{i phi} sigma_-) on one ion."""
    return -0.5 * rabi * embed3(np.exp(-1j * phi) * SP2 + np.exp(1j * phi) * SM2, ion)


def free_oracle(w, J, J13, t):
    return expm(-1j * spin_hamiltonian_oracle(w, J, J13) * t)


def cnot_permutation(control, target):
    U = np.zeros((8, 8), dtype=complex)
    for b in range(8):
        bits = [(b >> 2) & 1, (b >> 1) & 1, b & 1]
        bits[target - 1] ^= bits[control - 1]
        U[(bits[0] << 2) | (bits[1] << 1) | bits[2], b] = 1.0
    return U


def phase_aligned_deviation(U, V):
    """max |U - e^{i phi} V| over the best global phase."""
    idx = np.unravel_index(np.argmax(np.abs(V)), np.asarray(V).shape)
    phase = V[idx] / U[idx]
    phase /= abs(phase)
    return float(np.max(np.abs(phase * np.asarray(U) - np.asarray(V))))


def haar_qubit(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def random_couplings(rng, w_scale=1e7):
    """Valid coupling set with moderate frequencies (keeps phases float-exact)."""
    J = rng.uniform(1e2, 1e4)
    return g.CouplingSet(
        w=rng.uniform(0.1 * w_scale, w_scale, 3), dwdz=0.0,
        J=J, J13=rng.uniform(0.0, J),
        eps=np.zeros((3, 3)), eps_max=0.0, eta=1e-6, eta_prime=np.full((3, 3), 1e-6))


def schedule_oracle_unitary(schedule, couplings):
    """Independent composition of a schedule: expm for frees, expm for pulses."""
    U = np.eye(8, dtype=complex)
    for item in schedule.items:
        if isinstance(item, g.FreeEvolution):
            seg = free_oracle(
                couplings.w if schedule.frame == g.LAB else np.zeros(3),
                couplings.J, couplings.J13, item.duration)
        else:
            seg = np.eye(8, dtype=complex)
            for p in item.pulses:
                seg = pulse_oracle(p.ion, p.theta, p.phi) @ seg
        U = seg @ U
    return U
