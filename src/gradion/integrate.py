"""Exact Schrodinger propagation of pulse schedules.

The validation oracle for the ideal segment model: every segment evolves
under a constant Hamiltonian -- the spin-spin terms during free intervals,
and during pulses the co-rotating drive

    H_drive = -(Omega/2) (e^{-i phi} sigma_+ + e^{i phi} sigma_-)

on the addressed ion plus the spin-spin terms, which are always on: the
ideal model drops them while pulsing, the propagator never does. A
constant Hermitian H = V diag(E) V^dagger has the closed-form propagator
V exp(-i E t) V^dagger, so each segment is exact up to float round-off and
no step size enters. Interaction frame only; the counter-rotating
lab-frame problem at qubit frequency is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .couplings import CouplingSet
from .operators import embed
from .pulses import (INTERACTION, FreeEvolution, PulseSchedule, PulseSlot,
                     SpinState, apply_schedule, spin_energies)


@dataclass(frozen=True)
class IntegrationResult:
    state: SpinState
    fidelity_to_ideal: float
    norm_drift: float


def _drive_hamiltonian(slot: PulseSlot) -> tuple[np.ndarray, float]:
    durations = {p.duration for p in slot.pulses}
    if len(durations) != 1:
        raise ValueError("simultaneous pulses must share one realized duration")
    H = np.zeros((8, 8), dtype=complex)
    for p in slot.pulses:
        coupling_op = np.array([[0.0, np.exp(1j * p.phi)],
                                [np.exp(-1j * p.phi), 0.0]])
        H -= 0.5 * p.rabi * embed(coupling_op, p.ion)
    return H, durations.pop()


def segment_hamiltonians(schedule: PulseSchedule, couplings: CouplingSet):
    """(hamiltonian, physical duration) per segment, in order.

    Pulse segments carry the spin-spin terms too; pass couplings with
    J = J13 = 0 for exactly single-qubit pulses.
    """
    h_spin = np.diag(spin_energies(couplings, schedule.frame)).astype(complex)
    for item in schedule.items:
        if isinstance(item, FreeEvolution):
            yield h_spin, item.duration
        else:
            h_drive, duration = _drive_hamiltonian(item)
            yield h_drive + h_spin, duration


def integrate_segment_unitary(hamiltonian: np.ndarray, duration: float) -> np.ndarray:
    """exp(-i H t) of a constant Hermitian H, from its eigendecomposition."""
    energies, vectors = np.linalg.eigh(hamiltonian)
    return (vectors * np.exp(-1j * energies * duration)) @ vectors.conj().T


def integrate_exact(state: SpinState, schedule: PulseSchedule,
                    couplings: CouplingSet) -> IntegrationResult:
    """Propagate the schedule exactly and report fidelity against the ideal model."""
    if schedule.frame != INTERACTION:
        raise ValueError("the integrator works in the interaction frame only")
    if state.frame != schedule.frame:
        raise ValueError("state and schedule frames differ")
    psi = state.amplitudes
    for hamiltonian, duration in segment_hamiltonians(schedule, couplings):
        psi = integrate_segment_unitary(hamiltonian, duration) @ psi
    drift = abs(np.linalg.norm(psi) - 1.0)
    ideal = apply_schedule(state, schedule, couplings)
    fidelity = float(abs(np.vdot(ideal.amplitudes, psi)) ** 2)
    return IntegrationResult(SpinState(psi / np.linalg.norm(psi), state.frame),
                             fidelity, float(drift))
