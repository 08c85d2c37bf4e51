"""Three-ion teleportation: encode, measure, correct, account.

Ion 1 holds the unknown qubit alpha |0> + beta |1>, ion 2 starts in
(|0> + |1>)/sqrt2, ion 3 in |1>. A CNOT(2,3) turns ions 2,3 into the Bell
pair (|01> + |10>)/sqrt2; CNOT(1,2) and a Hadamard on ion 1 rotate the
joint state so the four outcomes of measuring ions 1,2 each occur with
probability 1/4 and leave ion 3 one Pauli away from the input:

    outcome 00 -> sigma_x, 01 -> identity, 10 -> i sigma_y, 11 -> sigma_z.

One stage runner serves all three gate modes: the coherent stages
entangle, encode and rotate, the measurement of ions 1,2, then the
correct stage. A stage is a sequence of steps, each a unitary and a
wall-clock duration. In "ideal" mode the coherent steps are the three
exact gate matrices of `IDEAL_STAGES` and the correction one more, all of
zero duration. "scheduled" and "integrated" run pulse schedules. These
read only J, t_m and the Rabi frequency in the interaction frame, so each
chain's schedules are compiled once: the three coherent stages joined
into one schedule, each stage's duration, and the four correction
schedules, kept in a bounded module-level cache keyed by those three
values. A run then builds its segment unitaries in one
`pulses.stage_propagators` pass over the joined schedule and one over its
correction: ideal ones, or in "integrated" the exact propagators of their
constant Hamiltonians, spin-spin terms kept active during pulses.
Propagators are not cached; they depend on the full coupling set.
Optional per-qubit dephasing (phase damping applied after every step,
scaled by its wall-clock duration) makes the register a density matrix;
it requires a mode with durations, so "ideal" rejects nonzero rates.
Damping qubit q for a time t maps rho to keep rho + (1 - keep) z rho z with
keep = (1 + e^{-rate_q t}) / 2. Since z is diagonal, that multiplies the
entry (i, j) by 1 where basis states i and j agree in qubit q's bit and by
e^{-rate_q t} where they differ. The three qubits' damping after a step is
therefore one real factor F = exp(-t R), elementwise, with
R_ij = sum of rate_q over the qubits q in which i and j differ, and the
step is rho <- F * (U rho U^dagger).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np

from .constants import _finite_complex, _finite_real, _integer
from .couplings import CouplingSet
from .operators import Z_SIGNS, cnot_matrix, embed, hadamard_matrix, reduced_density
from .pulses import (INTERACTION, PulseContext, PulseSchedule, SpinState,
                     T_M_DEFAULT, RABI_DEFAULT, build_cnot, composite_z_rotation,
                     _check_timing, hadamard_schedule, stage_propagators)

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

#: the coherent stages as exact gates; the ideal correction stage is
#: ``embed(CORRECTIONS[bits][1], 3)``
IDEAL_STAGES = {
    "entangle": cnot_matrix(2, 3),
    "encode": cnot_matrix(1, 2),
    "rotate": hadamard_matrix(1),
}

#: _FLIPS[i, j, q] is 1 where basis states i and j differ in qubit q's bit, else 0
_FLIPS = 0.5 * (1.0 - Z_SIGNS[:, None, :] * Z_SIGNS[None, :, :])


def _check_amplitudes(alpha: complex, beta: complex) -> None:
    # magnitudes above 2 fail before they are squared, which could overflow
    if not (_finite_complex(alpha) and _finite_complex(beta)
            and abs(alpha) <= 2.0 and abs(beta) <= 2.0
            and abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-10):
        raise ValueError("input amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")


def _dephasing_rates(rates) -> tuple[float, float, float]:
    """Three finite, non-negative rates as floats, from a real scalar (0-d
    arrays too), or a list, tuple or array of three."""
    if isinstance(rates, np.ndarray):
        rates = rates.tolist()
    if not isinstance(rates, (list, tuple)):
        rates = (rates,) * 3
    if not (len(rates) == 3 and all(_finite_real(r) and r >= 0.0 for r in rates)):
        raise ValueError("dephasing needs three finite, non-negative rates")
    return tuple(map(float, rates))


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs of one teleportation run.

    ``seed`` is None or a non-negative integer, stored as a Python int.
    ``dephasing`` is a per-qubit phase-damping rate in 1/s (a real scalar
    applies to all three), stored as a tuple of three floats.
    ``couplings`` may be omitted in ideal mode only. ``rabi`` is finite and
    positive, ``t_m`` finite and non-negative, both stored as Python floats.
    """

    alpha: complex
    beta: complex
    gate_mode: str = "ideal"
    seed: int | None = None
    couplings: CouplingSet | None = None
    dephasing: tuple[float, float, float] = (0.0, 0.0, 0.0)
    t_m: float = T_M_DEFAULT
    rabi: float = RABI_DEFAULT

    def __post_init__(self) -> None:
        if self.gate_mode not in GATE_MODES:
            raise ValueError(f"gate mode must be one of {GATE_MODES}")
        _check_amplitudes(self.alpha, self.beta)
        if self.seed is not None:
            seed = _integer(self.seed)
            if seed is None or seed < 0:
                raise ValueError(f"seed must be a non-negative integer or None, "
                                 f"got {self.seed!r}")
            object.__setattr__(self, "seed", seed)
        rates = _dephasing_rates(self.dephasing)
        object.__setattr__(self, "dephasing", rates)
        if self.gate_mode == "ideal" and any(r > 0.0 for r in rates):
            raise ValueError("dephasing needs schedule durations; use scheduled or "
                             "integrated gate mode")
        if self.gate_mode != "ideal" and self.couplings is None:
            raise ValueError(f"{self.gate_mode} mode requires a coupling set")
        _check_timing(self)

    @property
    def pulses(self) -> PulseContext:
        """The interaction-frame `PulseContext` of ``couplings``, ``t_m`` and
        ``rabi`` that builds every stage schedule."""
        return PulseContext(self.couplings, INTERACTION, self.t_m, self.rabi)


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
        return json.dumps(payload, sort_keys=True, allow_nan=False)


# -- protocol steps ---------------------------------------------------------

def prepare_initial(alpha: complex, beta: complex) -> SpinState:
    """(alpha |0> + beta |1>) x (|0> + |1>)/sqrt2 x |1>."""
    _check_amplitudes(alpha, beta)
    return SpinState.product([alpha, beta],
                             [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
                             [0.0, 1.0])


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


_COHERENT = ("entangle", "encode", "rotate")


@dataclass(frozen=True)
class _Compiled:
    """A protocol's stages, ready to run: the coherent stages joined in
    order, each one's duration, and the correction per outcome index
    2 b1 + b2."""

    coherent: PulseSchedule | np.ndarray  # ideal mode: a read-only stack of gates
    durations: tuple[float, float, float]
    corrections: tuple[PulseSchedule | np.ndarray, ...]


def _read_only(matrices) -> np.ndarray:
    stack = np.array(matrices)
    stack.flags.writeable = False
    return stack


_IDEAL = _Compiled(
    _read_only([IDEAL_STAGES[name] for name in _COHERENT]), (0.0, 0.0, 0.0),
    tuple(_read_only([embed(CORRECTIONS[bits][1], 3)]) for bits in CORRECTIONS))

#: compiled schedules kept, oldest dropped first; the bundled presets at one
#: (t_m, rabi) need 12
_COMPILED_SIZE = 64
_compiled: dict[tuple[float, float, float], _Compiled] = {}
_compiled_lock = threading.Lock()


def _compile(config: ProtocolConfig) -> _Compiled:
    """The config's interaction-frame schedules, built on the first use of
    its (J, t_m, rabi). A refused build raises and is not kept."""
    key = (float(config.couplings.J), config.t_m, config.rabi)
    compiled = _compiled.get(key)
    if compiled is None:
        ctx = config.pulses
        stages = protocol_schedules(ctx)
        compiled = _Compiled(
            stages["entangle"] + stages["encode"] + stages["rotate"],
            tuple(stages[name].total_duration for name in _COHERENT),
            tuple(correction_schedule(bits, ctx) for bits in CORRECTIONS))
        with _compiled_lock:
            if len(_compiled) >= _COMPILED_SIZE:
                del _compiled[next(iter(_compiled))]
            _compiled[key] = compiled
    return compiled


# -- stage runner -----------------------------------------------------------

class _Register:
    """The three ions' state: 8 amplitudes, or an 8x8 density matrix with
    per-qubit phase damping when any dephasing rate is positive."""

    def __init__(self, amplitudes: np.ndarray, rates=(0.0, 0.0, 0.0)):
        self.rates = rates
        self.mixed = any(r > 0.0 for r in rates)
        self.state = (np.outer(amplitudes, amplitudes.conj()) if self.mixed
                      else amplitudes)
        if self.mixed:
            self.damping_rates = _FLIPS @ np.asarray(rates, dtype=float)

    def evolve(self, unitaries, walls) -> None:
        """Apply each step's unitary in order, each followed (density matrix
        only) by its wall-clock duration of phase damping."""
        if not self.mixed:
            for U in unitaries:
                self.state = U @ self.state
            return
        factors = np.exp(-np.multiply.outer(walls, self.damping_rates))
        rho = self.state
        for U_k, U_k_dagger, F_k in zip(unitaries, unitaries.conj().swapaxes(1, 2),
                                        factors):
            rho = F_k * (U_k @ rho @ U_k_dagger)
        self.state = rho

    def measure(self, rng: np.random.Generator,
                force: tuple[int, int] | None = None) -> tuple[tuple[int, int], float]:
        """Sample (or force) the ions-1,2 outcome, collapse onto it, return (bits, p)."""
        if force is not None and (type(force) is not tuple
                                  or tuple(map(_integer, force)) not in CORRECTIONS):
            raise ValueError(f"forced outcome must be one of {tuple(CORRECTIONS)}, "
                             f"got {force!r}")
        weights = np.real(np.diagonal(self.state)) if self.mixed \
            else np.abs(self.state) ** 2
        probs = weights.reshape(4, 2).sum(axis=1)
        if force is not None:
            k = 2 * int(force[0]) + int(force[1])
        else:
            k = int(rng.choice(4, p=probs / probs.sum()))
        p = float(probs[k])
        if p <= 0.0:
            raise ValueError(f"outcome {k >> 1}{k & 1} has zero probability")
        block = slice(2 * k, 2 * k + 2)
        collapsed = np.zeros_like(self.state)
        if self.mixed:
            collapsed[block, block] = self.state[block, block] / p
        else:
            collapsed[block] = self.state[block] / np.sqrt(p)
        self.state = collapsed
        return (k >> 1, k & 1), p

    def qubit3(self, bits: tuple[int, int]) -> np.ndarray:
        """Ion-3 amplitudes of the collapsed state, or ion 3's density matrix."""
        if self.mixed:
            return reduced_density(self.state, (3,))
        return self.state.reshape(2, 2, 2)[bits].copy()


def _steps(stage, config: ProtocolConfig):
    """(unitaries, wall-clock durations) of a stage's steps in the config's gate mode."""
    if config.gate_mode == "ideal":
        return stage, np.zeros(len(stage))
    return stage_propagators(stage, config.couplings, config.gate_mode == "integrated")


def _run_stage(register: _Register, stage, config: ProtocolConfig) -> float:
    """Evolve the register through one stage; return the stage's duration."""
    register.evolve(*_steps(stage, config))
    return 0.0 if config.gate_mode == "ideal" else stage.total_duration


def run_teleport(config: ProtocolConfig,
                 force_outcome: tuple[int, int] | None = None) -> TeleportRecord:
    """Execute the full protocol and return its record.

    Fidelity is measured between the corrected ion-3 output and the input
    (alpha, beta). With a fixed seed the run is fully deterministic.
    """
    rng = np.random.default_rng(config.seed)
    compiled = _IDEAL if config.gate_mode == "ideal" else _compile(config)
    register = _Register(prepare_initial(config.alpha, config.beta).amplitudes,
                         config.dephasing)
    _run_stage(register, compiled.coherent, config)
    durations = {"prepare": 0.0}
    durations.update(zip(_COHERENT, compiled.durations))
    bits, prob = register.measure(rng, force_outcome)
    durations["correct"] = _run_stage(
        register, compiled.corrections[2 * bits[0] + bits[1]], config)
    out = register.qubit3(bits)
    return TeleportRecord(
        outcome=bits, correction=CORRECTIONS[bits][0],
        fidelity=fidelity(out, config.alpha, config.beta),
        outcome_probability=prob,
        total_duration=float(sum(durations.values())),
        stage_durations=durations, seed=config.seed, gate_mode=config.gate_mode,
        alpha=config.alpha, beta=config.beta, dephasing=config.dephasing,
        qubit3_state=None if register.mixed else out,
        qubit3_density=out if register.mixed else None)
