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


def commensuration_scan_oracle(w, theta, rabi_nominal, tolerance=1e-3, window=0.2):
    """The per-candidate loop `commensurate_pulse` replaced, kept as its reference."""
    TWO_PI = g.TWO_PI
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if np.any(w <= 0.0):
        raise ValueError("qubit frequencies must be positive")
    if theta <= 0.0 or rabi_nominal <= 0.0:
        raise ValueError("theta and nominal Rabi frequency must be positive")
    t_nominal = theta / rabi_nominal
    anchor = w[len(w) // 2]
    n_lo = max(1, int(np.floor(anchor * t_nominal * (1.0 - window) / TWO_PI)))
    n_hi = int(np.ceil(anchor * t_nominal * (1.0 + window) / TWO_PI))
    if n_hi - n_lo > 2_000_000:
        raise ValueError(
            f"commensuration scan of {n_hi - n_lo} candidates; narrow the "
            f"window or shorten the nominal pulse")
    best = None  # (max residual, T, residual vector)
    for n in range(n_lo, n_hi + 1):
        T = TWO_PI * n / anchor
        residuals = w * T - TWO_PI * np.round(w * T / TWO_PI)
        worst = float(np.max(np.abs(residuals)))
        if best is None or worst < best[0]:
            best = (worst, T, residuals)
    if best is None or best[0] > tolerance:
        raise g.CommensurationError(best[0] if best else np.inf, tolerance)
    worst, T, residuals = best
    cycles = np.asarray(np.round(w * T / TWO_PI), dtype=int)
    cycles3 = tuple(int(c) for c in np.resize(cycles, 3))
    return g.CommensurationResult(T, theta / T, cycles3, tuple(residuals), worst)
