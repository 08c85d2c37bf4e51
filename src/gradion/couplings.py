"""Qubit frequencies, gradient-induced Ising couplings, and spin spectra.

A static magnetic gradient along the chain makes each qubit's transition
frequency position dependent. In the strong-field (Paschen-Back) regime the
slope is the same for every ion,

    dw/dz = g mu_B B' / hbar,

and the gradient couples the spins through the shared vibrational modes:

    J_ij   = sum_l  hbar / (2 m nu_l^2) D_il D_jl (dw/dz)^2 = (hbar/2) (dw/dz)^2 [K^-1]_ij
    eps_il = D_il sqrt(hbar / (2 m nu_l)) (dw/dz) / nu_l

with K the Hessian of the chain. J and J13 are taken from the closed-form
entries of K^-1 that `normal_modes` carries, so J12 = J23 holds by
construction. eps_il plays the role of an extra Lamb-Dicke parameter; the
model is valid while max |eps_il| stays well below 1 (0.05 is used as the
design ceiling).

`solve_chain` runs layout -> equilibrium -> modes -> couplings as one `Chain`.

Pauli convention used everywhere: sigma_z |1> = +|1>, sigma_z |0> = -|0>.
This is forced by the eight-level spectrum listed in `spin_spectrum` and it
silently flips downstream correction operators if changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONSTANTS, PhysicalConstants, _finite_real
from .operators import Z_SIGNS
from .trap import (EquilibriumSolution, NormalModes, TrapLayout, normal_modes,
                   solve_equilibrium)

#: Values `FieldConfig` accepts, ends included: the gradient (T/m), the
#: offset b0 (T) and eta. With them, every layout inside
#: `trap.STIFFNESS_RANGE` keeps w, J, J13, eps and eta' = sqrt(eta^2 + eps^2)
#: finite, with eps^2 included; real fields sit near 1e3 T/m, 1 T and 1e-6.
FIELD_RANGE = {"gradient": (0.0, 1e50), "b0": (-1e100, 1e100), "eta": (0.0, 1e100)}


@dataclass(frozen=True)
class FieldConfig:
    """Static magnetic field: uniform offset b0 (T) and gradient (T/m).

    ``eta`` is the bare microwave Lamb-Dicke parameter (about 1e-6 for a
    13 GHz drive); it only matters through eta' = sqrt(eta^2 + eps^2).
    The Paschen-Back form of the qubit frequencies assumes b0 is large; the
    assumption is not enforced numerically.
    """

    gradient: float  # T/m
    b0: float = 1.0  # T
    eta: float = 1e-6

    def __post_init__(self) -> None:
        for name, (lo, hi) in FIELD_RANGE.items():
            value = getattr(self, name)
            if not (_finite_real(value) and lo <= float(value) <= hi):
                least = "non-negative" if lo == 0.0 else f"at least {lo:g}"
                raise ValueError(f"field {name} must be finite, {least} and at most {hi:g}, "
                                 f"got {value!r}")
            object.__setattr__(self, name, float(value))


@dataclass(frozen=True)
class CouplingSet:
    """Spin Hamiltonian parameters of the chain (all rad/s except eps, eta)."""

    w: np.ndarray  # qubit frequencies w_i(z0_i), shape (3,)
    dwdz: float  # common frequency gradient, rad/(s m)
    J: float  # nearest-neighbor coupling J12 = J23
    J13: float  # outer-pair coupling
    eps: np.ndarray  # signed effective Lamb-Dicke parameters, shape (3, 3)
    eps_max: float  # max |eps|
    eta: float
    eta_prime: np.ndarray  # sqrt(eta^2 + eps^2), shape (3, 3)


@dataclass(frozen=True)
class SpinSpectrum:
    """Eigenenergies of the spin part of the chain Hamiltonian.

    ``energies[b]`` belongs to |b1 b2 b3> with b = 4*b1 + 2*b2 + b3.
    """

    energies: np.ndarray  # rad/s, shape (8,)


@dataclass(frozen=True)
class CarrierSpectrum:
    """Conditional carrier transition frequencies.

    ``transitions[i, k]`` is the spin-flip frequency of ion i+1 given the
    other two ions in state k (k = 2*b + b', bits ordered by ion index:
    ion 1 -> (b2, b3), ion 2 -> (b1, b3), ion 3 -> (b1, b2)).
    ``spreads[i]`` is the maximal difference for ion i+1: 2(J + J13) for the
    outer ions and 4J for the center ion.
    """

    transitions: np.ndarray  # rad/s, shape (3, 4)
    spreads: np.ndarray  # rad/s, shape (3,)


def frequency_gradient(gradient, constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """dw/dz = g mu_B B' / hbar in rad/(s m) for a field gradient B' in T/m,
    scalar or array; ``gradient=1.0`` gives the frequency shift per tesla."""
    return constants.g_factor * constants.mu_b * gradient / constants.hbar


def qubit_frequencies(field: FieldConfig, eq: EquilibriumSolution,
                      constants: PhysicalConstants = DEFAULT_CONSTANTS,
                      ) -> tuple[np.ndarray, float]:
    """Position-dependent qubit frequencies and their common gradient.

    w_i = w_hf + (g mu_B / hbar) (b0 + B' z0_i);  dw/dz = g mu_B B' / hbar.
    """
    dwdz = frequency_gradient(field.gradient, constants)
    w = constants.hyperfine + frequency_gradient(1.0, constants) * (
        field.b0 + field.gradient * eq.positions)
    return w, float(dwdz)


def neighbor_resonance_shift(field: FieldConfig, h: float,
                             constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Qubit frequency difference g mu_B B' h / hbar between neighboring ions."""
    if not (_finite_real(h) and h > 0.0):
        raise ValueError(f"inter-ion distance must be finite and positive, got {h!r}")
    return constants.g_factor * constants.mu_b * field.gradient * float(h) / constants.hbar


def effective_lamb_dicke(modes: NormalModes, field: FieldConfig,
                         constants: PhysicalConstants = DEFAULT_CONSTANTS,
                         ) -> tuple[np.ndarray, float, np.ndarray]:
    """Gradient-induced Lamb-Dicke matrix eps_il, its max modulus, and eta'.

    eps is stored signed (the mode-matrix entry carries its sign); the
    validity ceiling applies to |eps|.
    """
    dwdz = frequency_gradient(field.gradient, constants)
    eps = modes.D * _lamb_dicke_scale(modes.nu, dwdz, constants)
    eta_prime = np.sqrt(field.eta**2 + eps**2)
    return eps, float(np.max(np.abs(eps))), eta_prime


# The two helpers below work elementwise on broadcast arrays of nu, [K^-1]
# entries and dw/dz with the float operations of a single chain, so a search
# stage gets values bit-identical to one chain and gradient at a time.

def _lamb_dicke_scale(nu, dwdz, constants):
    """sqrt(hbar / (2 m nu_l)) (dw/dz) / nu_l, so that eps_il = D_il times it.

    It is non-negative, and rounding is monotonic, so max_il |eps_il| is
    exactly max_l (max_i |D_il|) times it.
    """
    ground_width = np.sqrt(constants.hbar / (2.0 * constants.mass * nu))
    return ground_width * dwdz / nu


def _ising(kinv, dwdz, constants):
    """J_ij = (hbar/2) (dw/dz)^2 [K^-1]_ij for an entry ``kinv`` of K^-1."""
    return 0.5 * constants.hbar * (dwdz * dwdz) * kinv


def compute_couplings(modes: NormalModes, field: FieldConfig, eq: EquilibriumSolution,
                      constants: PhysicalConstants = DEFAULT_CONSTANTS) -> CouplingSet:
    """Assemble the full coupling set for a solved chain.

    J and J13 follow from [K^-1]_12 and [K^-1]_13, so they are invariant
    under any per-column sign flip of D.
    """
    w, dwdz = qubit_frequencies(field, eq, constants)
    eps, eps_max, eta_prime = effective_lamb_dicke(modes, field, constants)
    return CouplingSet(w=w, dwdz=dwdz, J=float(_ising(modes.kinv12, dwdz, constants)),
                       J13=float(_ising(modes.kinv13, dwdz, constants)),
                       eps=eps, eps_max=eps_max, eta=field.eta, eta_prime=eta_prime)


@dataclass(frozen=True)
class Chain:
    """A trap layout in a field, solved: equilibrium, normal modes, couplings."""

    layout: TrapLayout
    field: FieldConfig
    equilibrium: EquilibriumSolution
    modes: NormalModes
    couplings: CouplingSet


def solve_chain(layout: TrapLayout, field: FieldConfig) -> Chain:
    """Equilibrium, modes and couplings of ``layout`` in ``field``, all with
    ``layout.constants``; solver errors propagate."""
    eq = solve_equilibrium(layout)
    modes = normal_modes(layout, eq)
    return Chain(layout, field, eq, modes,
                 compute_couplings(modes, field, eq, layout.constants))


def _spin_diagonal(w, J: float, J13: float) -> np.ndarray:
    """E = sum_i w_i s_i / 2 - J s1 s2 / 2 - J s2 s3 / 2 - J13 s1 s3 / 2 for
    every basis state, indexed by 4*b1 + 2*b2 + b3."""
    s1, s2, s3 = Z_SIGNS.T
    return 0.5 * (Z_SIGNS @ w) - 0.5 * J * (s1 * s2 + s2 * s3) - 0.5 * J13 * s1 * s3


def spin_spectrum(couplings: CouplingSet) -> SpinSpectrum:
    """All eight spin eigenenergies, indexed by 4*b1 + 2*b2 + b3."""
    return SpinSpectrum(_spin_diagonal(couplings.w, couplings.J, couplings.J13))


def carrier_spectrum(couplings: CouplingSet) -> CarrierSpectrum:
    """Conditional carrier frequencies: spectrum differences flipping one bit."""
    E = spin_spectrum(couplings).energies
    # ion i's s_i = -1 and s_i = +1 states pair up in index order, the order of k
    transitions = np.array([E[s > 0] - E[s < 0] for s in Z_SIGNS.T])
    spreads = transitions.max(axis=1) - transitions.min(axis=1)
    return CarrierSpectrum(transitions, spreads)


def heating_time_scaled(reference_time: float, reference_size: float,
                        size: float) -> float:
    """Rescale a motional heating time by the fourth power of trap size.

    Heating rates grow as R^-4 when a trap is shrunk, so the heating time
    scales as (size / reference_size)^4. A result beyond the float range is
    refused.
    """
    if not all(_finite_real(x) and x > 0.0 for x in (reference_time, reference_size, size)):
        raise ValueError("times and sizes must be finite and positive")
    with np.errstate(over="ignore"):  # an overflow gives inf, refused below
        scaled = float(np.float64(reference_time) * (np.float64(size) / reference_size) ** 4)
    if not math.isfinite(scaled):
        raise ValueError("scaled heating time overflows the float range")
    return scaled
