"""Three-ion teleportation: encode, measure, correct, account.

Ion 1 holds the unknown qubit alpha |0> + beta |1>, ion 2 starts in
(|0> + |1>)/sqrt2, ion 3 in |1>. A CNOT(2,3) turns ions 2,3 into the Bell
pair (|01> + |10>)/sqrt2; CNOT(1,2) and a Hadamard on ion 1 rotate the
joint state so the four outcomes of measuring ions 1,2 each occur with
probability 1/4 and leave ion 3 one Pauli away from the input:

    outcome 00 -> sigma_x, 01 -> identity, 10 -> i sigma_y, 11 -> sigma_z.

Gate modes: "ideal" applies exact gate matrices (zero duration);
"scheduled" composes the microwave pulse schedules segment by segment;
"integrated" replaces each segment unitary with the exact propagator of its
constant Hamiltonian, spin-spin terms kept active during pulses. Both build
their stage schedules from the config's derived `PulseContext`.
Optional per-qubit dephasing (phase damping applied after every schedule
segment, scaled by the segment's wall-clock duration) switches the run to
density-matrix propagation; it requires a mode with durations, so "ideal"
rejects nonzero rates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .couplings import CouplingSet
from .integrate import DriveModel, integrate_segment_unitary, segment_hamiltonians
from .operators import (cnot_matrix, embed, hadamard_matrix, pauli_z,
                        projector_12, reduced_density)
from .pulses import (INTERACTION, PulseContext, PulseSchedule, SpinState,
                     T_M_DEFAULT, RABI_DEFAULT, build_cnot, composite_z_rotation,
                     hadamard_schedule, segment_unitary)

GATE_MODES = ("ideal", "scheduled", "integrated")

#: outcome bits -> (name, 2x2 correction on ion 3). The i sigma_y entry is
#: the real rotation [[0, 1], [-1, 0]]: it sends alpha |1> - beta |0> to
#: alpha |0> + beta |1> with no leftover phase.
CORRECTIONS = {
    (0, 0): ("sigma_x", np.array([[0, 1], [1, 0]], dtype=complex)),
    (0, 1): ("identity", np.eye(2, dtype=complex)),
    (1, 0): ("i_sigma_y", np.array([[0, 1], [-1, 0]], dtype=complex)),
    (1, 1): ("sigma_z", np.array([[-1, 0], [0, 1]], dtype=complex)),
}


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs of one teleportation run.

    ``dephasing`` is a per-qubit phase-damping rate in 1/s (scalar applies
    to all three). ``couplings`` may be omitted in ideal mode only.
    ``pulses`` is derived: the interaction-frame `PulseContext` of
    ``couplings``, ``t_m`` and ``rabi`` that builds every stage schedule.
    """

    alpha: complex
    beta: complex
    gate_mode: str = "ideal"
    seed: int | None = None
    couplings: CouplingSet | None = None
    dephasing: tuple[float, float, float] = (0.0, 0.0, 0.0)
    t_m: float = T_M_DEFAULT
    rabi: float = RABI_DEFAULT
    pulses: PulseContext = field(init=False)

    def __post_init__(self) -> None:
        if self.gate_mode not in GATE_MODES:
            raise ValueError(f"gate mode must be one of {GATE_MODES}")
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-10:
            raise ValueError("input amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
        rates = self.dephasing
        if np.isscalar(rates):
            rates = (float(rates),) * 3
        rates = tuple(float(r) for r in rates)
        if len(rates) != 3 or any(r < 0.0 for r in rates):
            raise ValueError("dephasing needs three non-negative rates")
        object.__setattr__(self, "dephasing", rates)
        if self.gate_mode == "ideal" and any(r > 0.0 for r in rates):
            raise ValueError("dephasing needs schedule durations; use scheduled or "
                             "integrated gate mode")
        if self.gate_mode != "ideal" and self.couplings is None:
            raise ValueError(f"{self.gate_mode} mode requires a coupling set")
        object.__setattr__(self, "pulses", PulseContext(
            self.couplings, INTERACTION, self.t_m, self.rabi))


@dataclass(frozen=True)
class TeleportRecord:
    """Outcome, correction, fidelity, and timing of one run."""

    outcome: tuple[int, int]
    correction: str
    fidelity: float
    outcome_probability: float
    total_duration: float
    stage_durations: dict
    seed: int | None
    gate_mode: str
    alpha: complex
    beta: complex
    dephasing: tuple[float, float, float]
    qubit3_state: np.ndarray | None = None  # 2 amplitudes (pure runs)
    qubit3_density: np.ndarray | None = None  # 2x2 (dephased runs)

    def to_json(self) -> str:
        """Single JSON object; complex numbers become [re, im] pairs."""
        def c2(z):
            return [float(np.real(z)), float(np.imag(z))]

        payload = {
            "outcome": f"{self.outcome[0]}{self.outcome[1]}",
            "correction": self.correction,
            "fidelity": self.fidelity,
            "outcome_probability": self.outcome_probability,
            "total_duration_s": self.total_duration,
            "stage_durations_s": dict(self.stage_durations),
            "seed": self.seed,
            "config": {
                "gate_mode": self.gate_mode,
                "alpha": c2(self.alpha),
                "beta": c2(self.beta),
                "dephasing_per_qubit_hz": list(self.dephasing),
            },
        }
        if self.qubit3_state is not None:
            payload["qubit3_state"] = [c2(z) for z in self.qubit3_state]
        if self.qubit3_density is not None:
            payload["qubit3_density"] = [[c2(z) for z in row]
                                         for row in self.qubit3_density]
        return json.dumps(payload, sort_keys=True)


# -- algebraic protocol steps (ideal gates) ---------------------------------

def prepare_initial(alpha: complex, beta: complex,
                    frame: str = INTERACTION) -> SpinState:
    """(alpha |0> + beta |1>) x (|0> + |1>)/sqrt2 x |1>."""
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-10:
        raise ValueError("input amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
    return SpinState.product([alpha, beta],
                             [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
                             [0.0, 1.0], frame)


def entangle_23(state: SpinState) -> SpinState:
    """Ideal CNOT(2,3): leaves ions 2,3 in (|01> + |10>)/sqrt2."""
    return SpinState(cnot_matrix(2, 3) @ state.amplitudes, state.frame)


def encode_and_rotate(state: SpinState) -> SpinState:
    """Ideal CNOT(1,2) followed by the Hadamard on ion 1."""
    amps = hadamard_matrix(1) @ (cnot_matrix(1, 2) @ state.amplitudes)
    return SpinState(amps, state.frame)


def measure_ions12(state: SpinState, rng: np.random.Generator,
                   force: tuple[int, int] | None = None,
                   ) -> tuple[tuple[int, int], SpinState, float]:
    """Projective measurement of ions 1, 2 in the computational basis.

    Samples one of the four outcomes from the state (or takes ``force``),
    collapses, renormalizes, and returns (bits, collapsed state, probability).
    """
    tensor = state.amplitudes.reshape(2, 2, 2)
    probs = np.sum(np.abs(tensor) ** 2, axis=2).reshape(4)
    if force is not None:
        k = 2 * force[0] + force[1]
    else:
        k = int(rng.choice(4, p=probs / probs.sum()))
    b1, b2 = k >> 1, k & 1
    p = float(probs[k])
    if p <= 0.0:
        raise ValueError(f"outcome {b1}{b2} has zero probability")
    collapsed = np.zeros((2, 2, 2), dtype=complex)
    collapsed[b1, b2] = tensor[b1, b2] / np.sqrt(p)
    return (b1, b2), SpinState(collapsed.reshape(8), state.frame), p


def bob_correct(state: SpinState, bits: tuple[int, int]) -> SpinState:
    """Apply the outcome's correction on ion 3 (ideal matrix)."""
    if bits not in CORRECTIONS:
        raise ValueError(f"invalid measurement bits {bits!r}")
    _, op = CORRECTIONS[bits]
    return SpinState(embed(op, 3) @ state.amplitudes, state.frame)


def qubit3_amplitudes(state: SpinState, bits: tuple[int, int]) -> np.ndarray:
    """Ion-3 amplitudes of a post-measurement product state."""
    return state.amplitudes.reshape(2, 2, 2)[bits[0], bits[1]].copy()


def fidelity(output, alpha: complex, beta: complex) -> float:
    """|<target|psi>|^2 for a 2-vector, <target|rho|target> for a 2x2 matrix."""
    target = np.array([alpha, beta], dtype=complex)
    output = np.asarray(output, dtype=complex)
    if output.ndim == 1:
        return float(abs(np.vdot(target, output)) ** 2)
    return float(np.real(np.vdot(target, output @ target)))


# -- scheduled gate assembly --------------------------------------------------

def correction_schedule(bits: tuple[int, int],
                        ctx: PulseContext = PulseContext()) -> PulseSchedule:
    """Microwave realization of each correction (equal to it up to global phase)."""
    if bits == (0, 0):
        return ctx.schedule(ctx.slot("x180 ion3", (3, np.pi, 0.0)))
    if bits == (0, 1):
        return ctx.schedule()
    if bits == (1, 0):
        return ctx.schedule(ctx.slot("y180 ion3", (3, np.pi, np.pi / 2.0)))
    if bits == (1, 1):
        half = composite_z_rotation(3, +1, ctx)
        return half + half
    raise ValueError(f"invalid measurement bits {bits!r}")


def protocol_schedules(ctx: PulseContext) -> dict:
    """The coherent stages as pulse schedules."""
    return {
        "entangle": build_cnot(2, 3, ctx),
        "encode": build_cnot(1, 2, ctx),
        "rotate": hadamard_schedule(1, ctx),
    }


class _DensityTracker:
    """8x8 density-matrix propagation with per-qubit phase damping."""

    def __init__(self, state: SpinState, rates):
        self.rho = np.outer(state.amplitudes, state.amplitudes.conj())
        self.rates = rates
        self.z_ops = [pauli_z(q) for q in (1, 2, 3)]

    def unitary(self, U: np.ndarray) -> None:
        self.rho = U @ self.rho @ U.conj().T

    def dephase(self, duration: float) -> None:
        for q, rate in enumerate(self.rates):
            if rate <= 0.0 or duration <= 0.0:
                continue
            keep = 0.5 * (1.0 + np.exp(-rate * duration))
            z = self.z_ops[q]
            self.rho = keep * self.rho + (1.0 - keep) * (z @ self.rho @ z)

    def measure(self, rng, force):
        probs = np.array([np.real(np.trace(projector_12(b >> 1, b & 1) @ self.rho))
                          for b in range(4)])
        k = 2 * force[0] + force[1] if force is not None else int(
            rng.choice(4, p=probs / probs.sum()))
        p = float(probs[k])
        if p <= 0.0:
            raise ValueError("sampled outcome has zero probability")
        proj = projector_12(k >> 1, k & 1)
        self.rho = proj @ self.rho @ proj / p
        return (k >> 1, k & 1), p


def _segment_unitaries(schedule: PulseSchedule, couplings: CouplingSet, mode: str):
    """(unitary, wall-clock duration) per segment under the chosen gate model."""
    if mode == "integrated":
        hams = segment_hamiltonians(schedule, couplings, DriveModel())
        for item, (H, physical) in zip(schedule.items, hams):
            yield integrate_segment_unitary(H, physical), item.duration
    else:
        for item in schedule.items:
            yield segment_unitary(item, couplings, schedule.frame), item.duration


def run_teleport(config: ProtocolConfig,
                 force_outcome: tuple[int, int] | None = None) -> TeleportRecord:
    """Execute the full protocol and return its record.

    Fidelity is measured between the corrected ion-3 output and the input
    (alpha, beta). With a fixed seed the run is fully deterministic.
    """
    rng = np.random.default_rng(config.seed)
    state = prepare_initial(config.alpha, config.beta)
    noisy = any(r > 0.0 for r in config.dephasing)
    durations: dict[str, float] = {"prepare": 0.0}

    if config.gate_mode == "ideal":
        state = entangle_23(state)
        state = encode_and_rotate(state)
        durations.update(entangle=0.0, encode=0.0, rotate=0.0, correct=0.0)
        bits, collapsed, prob = measure_ions12(state, rng, force_outcome)
        corrected = bob_correct(collapsed, bits)
        out = qubit3_amplitudes(corrected, bits)
        return TeleportRecord(
            outcome=bits, correction=CORRECTIONS[bits][0],
            fidelity=fidelity(out, config.alpha, config.beta),
            outcome_probability=prob, total_duration=0.0,
            stage_durations=durations, seed=config.seed,
            gate_mode=config.gate_mode, alpha=config.alpha, beta=config.beta,
            dephasing=config.dephasing, qubit3_state=out)

    stages = protocol_schedules(config.pulses)
    tracker = _DensityTracker(state, config.dephasing) if noisy else None
    amps = state.amplitudes

    def run_stage(name: str, schedule: PulseSchedule):
        nonlocal amps
        durations[name] = schedule.total_duration
        for U, wall in _segment_unitaries(schedule, config.couplings,
                                          config.gate_mode):
            if tracker is not None:
                tracker.unitary(U)
                tracker.dephase(wall)
            else:
                amps = U @ amps

    for name in ("entangle", "encode", "rotate"):
        run_stage(name, stages[name])

    if tracker is not None:
        bits, prob = tracker.measure(rng, force_outcome)
    else:
        bits, collapsed, prob = measure_ions12(
            SpinState(amps, INTERACTION), rng, force_outcome)
        amps = collapsed.amplitudes

    run_stage("correct", correction_schedule(bits, config.pulses))

    if tracker is not None:
        rho3 = reduced_density(tracker.rho, (3,))
        fid = fidelity(rho3, config.alpha, config.beta)
        out_state, out_density = None, rho3
    else:
        out = qubit3_amplitudes(SpinState(amps, INTERACTION), bits)
        fid = fidelity(out, config.alpha, config.beta)
        out_state, out_density = out, None

    return TeleportRecord(
        outcome=bits, correction=CORRECTIONS[bits][0], fidelity=fid,
        outcome_probability=prob,
        total_duration=float(sum(durations.values())),
        stage_durations=durations, seed=config.seed, gate_mode=config.gate_mode,
        alpha=config.alpha, beta=config.beta, dephasing=config.dephasing,
        qubit3_state=out_state, qubit3_density=out_density)
