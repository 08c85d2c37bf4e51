"""Exact Schrodinger propagation of pulse schedules.

The validation oracle for the ideal segment model: every segment evolves
under a constant Hamiltonian -- the spin-spin terms during free intervals,
and during pulses the co-rotating drive

    H_drive = -(Omega/2) (e^{-i phi} sigma_+ + e^{i phi} sigma_-)

on the addressed ion plus the spin-spin terms, which are always on: the
ideal model drops them while pulsing, the propagator never does. Each
segment's exp(-i H t) is exact up to float round-off, and no step size
enters. The propagators come from the stage builder both segment models
share, `pulses.stage_propagators` (``exact=True``, named here too): a
single-ion pulse splits into four closed-form 2x2 blocks, and only slots
of simultaneous pulses go through `integrate_segment_unitary`, one `eigh`
over the stack of all of them.

Interaction frame only; the counter-rotating lab-frame problem at qubit
frequency is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .couplings import CouplingSet
from .pulses import (FreeEvolution, PulseSchedule, SpinState, _drive_hamiltonian,
                     apply_schedule, integrate_segment_unitary, spin_energies,
                     stage_propagators)


@dataclass(frozen=True)
class IntegrationResult:
    state: SpinState
    fidelity_to_ideal: float
    norm_drift: float


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


def integrate_exact(state: SpinState, schedule: PulseSchedule,
                    couplings: CouplingSet) -> IntegrationResult:
    """Propagate the schedule exactly and report fidelity against the ideal model."""
    if state.frame != schedule.frame:
        raise ValueError("state and schedule frames differ")
    psi = state.amplitudes
    for U in stage_propagators(schedule, couplings, exact=True)[0]:
        psi = U @ psi
    drift = abs(np.linalg.norm(psi) - 1.0)
    ideal = apply_schedule(state, schedule, couplings)
    fidelity = float(abs(np.vdot(ideal.amplitudes, psi)) ** 2)
    return IntegrationResult(SpinState(psi / np.linalg.norm(psi), state.frame),
                             fidelity, float(drift))
