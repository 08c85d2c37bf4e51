"""Dense operators on the three-qubit space.

Basis: |b1 b2 b3> at index 4*b1 + 2*b2 + b3 (ion 1 owns the most
significant bit). Single-qubit matrices are written in the ordered basis
(|0>, |1>) with sigma_z |1> = +|1>; sigma_y is fixed by
U(theta, pi/2) = exp(i theta/2 sigma_y) for the pulse operator of
`pulses.single_qubit_rotation`, i.e. sigma_y = -i(sigma_+ - sigma_-).

`embed` builds a (x) b (x) c as one broadcast product of the three 2x2
factors, (a_ij b_kl) c_mn at row 4i + 2k + m and column 4j + 2l + n. These
are the products numpy's ``kron(kron(a, b), c)`` forms, in the same order,
so every entry, signed zeros included, is bit-identical to it.

`Z_SIGNS` is the one encoding of the basis diagonal: row 4*b1 + 2*b2 + b3
holds the sigma_z eigenvalues (s1, s2, s3) of |b1 b2 b3>, so the diagonal
of the 8x8 sigma_z on ion i is the column ``Z_SIGNS[:, i - 1]``. The spin
spectrum, the carrier table, phase damping and `cnot_matrix` read it.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .constants import _integer

Z_SIGNS = np.array(list(product((-1.0, 1.0), repeat=3)))
Z_SIGNS.flags.writeable = False

IDENTITY_2 = np.eye(2, dtype=complex)
HADAMARD_2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def embed(op: np.ndarray, ion: int) -> np.ndarray:
    """Promote a single-qubit operator to the 8x8 space acting on ``ion`` (1-3)."""
    if _integer(ion) not in (1, 2, 3):
        raise ValueError(f"ion index must be 1, 2, or 3, got {ion}")
    factors = [IDENTITY_2, IDENTITY_2, IDENTITY_2]
    factors[ion - 1] = np.asarray(op, dtype=complex)
    a, b, c = factors
    return ((a[:, None, None, :, None, None] * b[None, :, None, None, :, None])
            * c[None, None, :, None, None, :]).reshape(8, 8)


def cnot_matrix(control: int, target: int) -> np.ndarray:
    """Canonical CNOT permutation: flips the target bit (1 << (3 - target)) when
    the control bit is 1."""
    if control == target or {_integer(control), _integer(target)} - {1, 2, 3}:
        raise ValueError("control and target must be distinct ions in 1..3")
    b = np.arange(8)
    U = np.zeros((8, 8), dtype=complex)
    U[b ^ (Z_SIGNS[:, control - 1] > 0) * (1 << (3 - target)), b] = 1.0
    return U


def hadamard_matrix(ion: int) -> np.ndarray:
    """Hadamard on one ion: |0> -> (|0>+|1>)/sqrt2, |1> -> (|0>-|1>)/sqrt2."""
    return embed(HADAMARD_2, ion)


def reduced_density(state: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace of a pure state or 8x8 density matrix onto distinct ``keep`` ions."""
    keep0 = sorted({_integer(i) - 1 for i in keep if _integer(i) in (1, 2, 3)})
    if len(keep0) != len(keep):
        raise ValueError(f"ion index must be 1, 2, or 3, each kept once, got {keep!r}")
    state = np.asarray(state, dtype=complex)
    rho = np.outer(state, state.conj()) if state.ndim == 1 else state
    tensor = rho.reshape(2, 2, 2, 2, 2, 2)
    drop = [i for i in range(3) if i not in keep0]
    for axis in reversed(drop):
        tensor = np.trace(tensor, axis1=axis, axis2=axis + tensor.ndim // 2)
    dim = 2 ** len(keep0)
    return tensor.reshape(dim, dim)


def max_unitarity_defect(U: np.ndarray) -> float:
    """Entrywise deviation of U^dagger U from the identity."""
    U = np.asarray(U)
    return float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))


def deviation_up_to_phase(U: np.ndarray, V: np.ndarray) -> float:
    """Max entrywise |U - e^{i phi} V| after aligning the global phase."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    flat = np.argmax(np.abs(V))
    idx = np.unravel_index(flat, V.shape)
    if abs(U[idx]) == 0.0:
        return float(np.max(np.abs(U - V)))
    phase = (V[idx] / U[idx])
    phase /= abs(phase)
    return float(np.max(np.abs(phase * U - V)))
