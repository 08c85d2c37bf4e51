"""Exact Schrodinger propagation of pulse schedules.

The validation oracle for the ideal segment model: every segment evolves
under a constant Hamiltonian -- the spin-spin terms during free intervals,
and during pulses the co-rotating drive

    H_drive = -(Omega/2) (e^{-i phi} sigma_+ + e^{i phi} sigma_-)

on the addressed ion plus the spin-spin terms, which are always on: the
ideal model drops them while pulsing, the propagator never does. Each
segment's exp(-i H t) is exact up to float round-off, and no step size
enters. `stage_propagators` builds every segment of a schedule at once, in
three kinds:

* a free segment is diagonal, exp(-i E t) with E the spin spectrum;
* a single-ion pulse couples only the four basis pairs that differ in the
  driven ion's bit, so H splits into four 2x2 blocks B = m I + (B - m I)
  with m the mean of the pair's energies, and with
  w^2 = ((E_lo - E_hi)/2)^2 + (Omega/2)^2 each block propagates as
  e^{-i m t} [cos(w t) I - i sin(w t)/w (B - m I)], sin(w t)/w -> t at w = 0;
* a slot of simultaneous pulses goes through `integrate_segment_unitary`,
  V exp(-i E t) V^dagger from the eigendecomposition H = V diag(E) V^dagger,
  one `eigh` over the stack of all such slots.

Interaction frame only; the counter-rotating lab-frame problem at qubit
frequency is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .couplings import CouplingSet
from .operators import Z_SIGNS, embed
from .pulses import (INTERACTION, FreeEvolution, PulseSchedule, PulseSlot,
                     SpinState, apply_schedule, spin_energies)

#: per ion, the basis indices with its bit clear and, aligned, with it set
_PAIRS_LO = np.array([np.flatnonzero(s < 0) for s in Z_SIGNS.T])
_PAIRS_HI = np.array([np.flatnonzero(s > 0) for s in Z_SIGNS.T])


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


def integrate_segment_unitary(hamiltonian: np.ndarray, duration) -> np.ndarray:
    """exp(-i H t) of a constant Hermitian H, from its eigendecomposition.

    Broadcasts over a stack of Hamiltonians (..., 8, 8) with one duration
    each (shape ``...``).
    """
    energies, vectors = np.linalg.eigh(hamiltonian)
    phases = np.exp(-1j * energies * np.asarray(duration)[..., None])
    return (vectors * phases[..., None, :]) @ np.swapaxes(vectors.conj(), -1, -2)


def _single_pulse_propagators(slots, energies: np.ndarray) -> np.ndarray:
    """(n, 8, 8) closed-form propagators of single-ion pulse slots."""
    pulses = [slot.pulses[0] for slot in slots]
    ions = np.array([p.ion for p in pulses]) - 1
    rabi = np.array([p.rabi for p in pulses])[:, None]
    t = np.array([p.duration for p in pulses])[:, None]
    coupling = -0.5 * rabi * np.exp(1j * np.array([p.phi for p in pulses]))[:, None]
    lo, hi = _PAIRS_LO[ions], _PAIRS_HI[ions]
    mean = 0.5 * (energies[lo] + energies[hi])
    half_gap = 0.5 * (energies[lo] - energies[hi])
    w = np.sqrt(half_gap ** 2 + (0.5 * rabi) ** 2)
    sinc = np.divide(np.sin(w * t), w, out=np.broadcast_to(t, w.shape).copy(),
                     where=w > 0.0)
    phase = np.exp(-1j * mean * t)
    cos_term, sin_term = phase * np.cos(w * t), -1j * phase * sinc
    k = np.arange(len(pulses))[:, None]
    U = np.zeros((len(pulses), 8, 8), dtype=complex)
    U[k, lo, lo] = cos_term + sin_term * half_gap
    U[k, hi, hi] = cos_term - sin_term * half_gap
    U[k, lo, hi] = sin_term * coupling
    U[k, hi, lo] = sin_term * coupling.conj()
    return U


def stage_propagators(schedule: PulseSchedule, couplings: CouplingSet,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Exact propagator (n, 8, 8) and wall-clock duration (n,) of every segment.

    Segment k's propagator is exp(-i H_k t_k) with H_k and the physical
    duration t_k of `segment_hamiltonians`; its wall-clock duration is the
    item's booked ``duration``. See the module docstring for the three kinds.
    """
    items = schedule.items
    energies = spin_energies(couplings, schedule.frame)
    walls = np.array([item.duration for item in items], dtype=float)
    U = np.zeros((len(items), 8, 8), dtype=complex)
    free, single, joint = [], [], []
    for k, item in enumerate(items):
        if isinstance(item, FreeEvolution):
            free.append(k)
        elif len(item.pulses) == 1:
            single.append(k)
        else:
            joint.append(k)
    if free:
        diagonal = np.exp(-1j * energies * walls[free][:, None])
        U[np.array(free)[:, None], np.arange(8), np.arange(8)] = diagonal
    if single:
        U[single] = _single_pulse_propagators([items[k] for k in single], energies)
    if joint:
        drives = [_drive_hamiltonian(items[k]) for k in joint]
        U[joint] = integrate_segment_unitary(
            np.array([h for h, _ in drives]) + np.diag(energies),
            np.array([t for _, t in drives]))
    return U, walls


def integrate_exact(state: SpinState, schedule: PulseSchedule,
                    couplings: CouplingSet) -> IntegrationResult:
    """Propagate the schedule exactly and report fidelity against the ideal model."""
    if schedule.frame != INTERACTION:
        raise ValueError("the integrator works in the interaction frame only")
    if state.frame != schedule.frame:
        raise ValueError("state and schedule frames differ")
    psi = state.amplitudes
    for U in stage_propagators(schedule, couplings)[0]:
        psi = U @ psi
    drift = abs(np.linalg.norm(psi) - 1.0)
    ideal = apply_schedule(state, schedule, couplings)
    fidelity = float(abs(np.vdot(ideal.amplitudes, psi)) ** 2)
    return IntegrationResult(SpinState(psi / np.linalg.norm(psi), state.frame),
                             fidelity, float(drift))
