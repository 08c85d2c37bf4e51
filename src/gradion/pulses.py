"""Microwave pulse alphabet, refocusing scaffolds, and gate schedules.

Everything is expressed with one primitive, the resonant carrier rotation
of a single addressed ion in the interaction picture,

    U(theta, phi) = exp[ i theta/2 (e^{-i phi} sigma_+ + e^{i phi} sigma_-) ],

plus free evolution under the always-on spin Hamiltonian. A schedule is an
ordered list of segments: pulse slots (one or more simultaneous rotations
on distinct ions, booked at the fixed implementation time t_m) and free
intervals. One `PulseContext` -- frame, slot time t_m, Rabi frequency,
and optional lab-frame commensuration -- fixes how every builder realizes a
rotation as a pulse. Segment unitaries are ideal: rotations act
instantaneously and spin-spin phases accrue only during free intervals;
`integrate.integrate_exact` propagates the full constant Hamiltonian of
every segment exactly, spin-spin terms included during pulses, and so
quantifies what that idealization discards.

Sign conventions (sigma_z |1> = +|1>) make two identities hold exactly:

* the four-interval refocusing scaffold leaves only the chosen sigma_z sigma_z
  term, and exp(-i pi/4 szsz) is first reached at t = 7 pi / (2 J) -- the
  coupling enters the Hamiltonian as -J/2 szsz, so the accumulated phase is
  +J t / 2 and must wrap past 2 pi to reach -pi/4;
* U(pi/2, pi/2) U(pi/2, 0) U(7 pi/2, pi/2) = exp(+i pi/4 sigma_z) with no
  global phase; flipping the sign of both pi/2 phase offsets inverts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import TWO_PI
from .couplings import CouplingSet, spin_spectrum
from .operators import embed

LAB = "lab"
INTERACTION = "interaction"
FRAMES = (LAB, INTERACTION)

T_M_DEFAULT = 2.5e-6  # s, booked wall-clock time of any single rotation
RABI_DEFAULT = TWO_PI * 1.0e6  # rad/s


class CommensurationError(RuntimeError):
    """No pulse length near the nominal one wraps all qubit phases well enough."""

    def __init__(self, best_residual: float, tolerance: float):
        super().__init__(
            f"best commensuration residual {best_residual:.3e} rad exceeds "
            f"tolerance {tolerance:.3e} rad")
        self.best_residual = best_residual
        self.tolerance = tolerance


@dataclass(frozen=True)
class SpinState:
    """Normalized amplitudes of |b1 b2 b3> (index 4*b1 + 2*b2 + b3) plus frame tag."""

    amplitudes: np.ndarray
    frame: str = INTERACTION

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (8,):
            raise ValueError("spin state needs eight amplitudes")
        if self.frame not in FRAMES:
            raise ValueError(f"unknown frame {self.frame!r}")
        if abs(np.linalg.norm(amps) - 1.0) > 1e-10:
            raise ValueError("spin state is not normalized")

    @classmethod
    def product(cls, q1, q2, q3, frame: str = INTERACTION) -> "SpinState":
        """Build |q1> x |q2> x |q3> from three 2-component qubit states."""
        amps = np.kron(np.kron(np.asarray(q1, complex), np.asarray(q2, complex)),
                       np.asarray(q3, complex))
        amps = amps / np.linalg.norm(amps)
        return cls(amps, frame)


@dataclass(frozen=True)
class Pulse:
    """One carrier rotation: ion, angle, phase, Rabi frequency, realized length.

    ``duration`` is theta / rabi; in the lab frame it is nudged onto a common
    multiple of the qubit periods and the integers N_i with the leftover
    phases are recorded (w_i * duration = 2 pi N_i + residual_i).
    """

    ion: int
    theta: float
    phi: float
    rabi: float
    duration: float
    cycles: tuple[int, int, int] | None = None
    residuals: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class PulseSlot:
    """Simultaneous rotations on distinct ions, booked at one wall-clock slot."""

    pulses: tuple[Pulse, ...]
    duration: float
    label: str = ""

    def __post_init__(self) -> None:
        ions = [p.ion for p in self.pulses]
        if len(set(ions)) != len(ions):
            raise ValueError("simultaneous pulses must target distinct ions")
        if not (math.isfinite(self.duration) and self.duration >= 0.0):
            raise ValueError("slot duration must be finite and non-negative")


@dataclass(frozen=True)
class FreeEvolution:
    """Evolution under the bare spin Hamiltonian for ``duration`` seconds."""

    duration: float
    label: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration >= 0.0):
            raise ValueError("free evolution duration must be finite and non-negative")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered segments (applied first to last) with a frame tag."""

    items: tuple
    frame: str = INTERACTION

    @property
    def total_duration(self) -> float:
        return float(sum(item.duration for item in self.items))

    def pulses(self):
        for item in self.items:
            if isinstance(item, PulseSlot):
                yield from item.pulses

    def __add__(self, other: "PulseSchedule") -> "PulseSchedule":
        if other.frame != self.frame:
            raise ValueError("cannot concatenate schedules in different frames")
        return PulseSchedule(self.items + other.items, self.frame)


# -- elementary unitaries ---------------------------------------------------

def rotation_2x2(theta: float, phi: float) -> np.ndarray:
    """cos(t/2) I + i sin(t/2) [[0, e^{i phi}], [e^{-i phi}, 0]]."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, 1j * s * np.exp(1j * phi)],
                     [1j * s * np.exp(-1j * phi), c]])


def single_qubit_rotation(ion: int, theta: float, phi: float) -> np.ndarray:
    """8x8 unitary of one addressed rotation, identity on the other ions."""
    return embed(rotation_2x2(theta, phi), ion)


def spin_energies(couplings: CouplingSet, frame: str) -> np.ndarray:
    """Diagonal of the spin Hamiltonian; the interaction frame drops the w_i terms."""
    if frame == INTERACTION:
        couplings = replace(couplings, w=np.zeros(3))
    elif frame != LAB:
        raise ValueError(f"unknown frame {frame!r}")
    return spin_spectrum(couplings).energies


def free_evolution(couplings: CouplingSet, t: float, frame: str = INTERACTION) -> np.ndarray:
    """Diagonal unitary exp(-i H0 t) of the spin Hamiltonian."""
    if t < 0.0:
        raise ValueError("evolution time must be non-negative")
    return np.diag(np.exp(-1j * spin_energies(couplings, frame) * t))


# -- pulse commensuration ---------------------------------------------------

@dataclass(frozen=True)
class CommensurationResult:
    """Pulse length T with w_i T = 2 pi N_i + residual_i for every ion."""

    duration: float
    rabi: float
    cycles: tuple[int, int, int]
    residuals: tuple[float, ...]
    max_residual: float


_SCAN_CHUNK = 4096  # candidates per array; a whole window at once would cost MBs


def commensurate_pulse(w, theta: float, rabi_nominal: float,
                       tolerance: float = 1e-3, window: float = 0.2,
                       ) -> CommensurationResult:
    """Tune a pulse length so every qubit's free phase wraps to ~2 pi N.

    Candidates are the exact wrap times of the middle frequency,
    T = 2 pi N / w_mid, within ``window`` of the nominal length
    theta / rabi_nominal; the one minimizing the worst wrapped phase over
    all ions wins, the first (smallest N) on a tie. The Rabi frequency is
    then re-derived as theta / T. The candidates are scanned as arrays of
    `_SCAN_CHUNK`, so memory stays flat however wide the window; a window
    of more than 2,000,000 candidates is refused with a ValueError.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w) & (w > 0.0)):
        raise ValueError("qubit frequencies must be a non-empty 1-D array of "
                         "finite, positive values")
    if not all(math.isfinite(x) and x > 0.0 for x in (theta, rabi_nominal)):
        raise ValueError("theta and nominal Rabi frequency must be finite and positive")
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be non-negative: {tolerance!r}")
    if not 0.0 <= window < 1.0:
        raise ValueError(f"window must be in [0, 1): {window!r}")
    t_nominal = theta / rabi_nominal
    anchor = w[len(w) // 2]
    if not anchor * t_nominal * (1.0 + window) / TWO_PI < 2.0 ** 53:
        raise ValueError("commensuration scan beyond 2**53 wrap periods, where "
                         "candidate counts are no longer exact floats")
    n_lo = max(1, int(np.floor(anchor * t_nominal * (1.0 - window) / TWO_PI)))
    n_hi = int(np.ceil(anchor * t_nominal * (1.0 + window) / TWO_PI))
    if n_hi - n_lo > 2_000_000:
        raise ValueError(
            f"commensuration scan of {n_hi - n_lo} candidates; narrow the "
            f"window or shorten the nominal pulse")
    best = None  # (max residual, T, residual vector)
    for start in range(n_lo, n_hi + 1, _SCAN_CHUNK):
        n = np.arange(start, min(start + _SCAN_CHUNK, n_hi + 1), dtype=float)
        T = TWO_PI * n / anchor
        wT = w[:, np.newaxis] * T
        residuals = wT - TWO_PI * np.round(wT / TWO_PI)
        worst = np.max(np.abs(residuals), axis=0)
        k = int(np.argmin(worst))
        if best is None or worst[k] < best[0]:
            best = (float(worst[k]), T[k], residuals[:, k])
    if best is None or best[0] > tolerance:
        raise CommensurationError(best[0] if best else np.inf, tolerance)
    worst, T, residuals = best
    cycles = np.asarray(np.round(w * T / TWO_PI), dtype=int)
    cycles3 = tuple(int(c) for c in np.resize(cycles, 3))
    return CommensurationResult(T, theta / T, cycles3, tuple(residuals), worst)


# -- schedule builders ------------------------------------------------------

@dataclass(frozen=True)
class PulseContext:
    """How every builder turns a rotation into a pulse of length theta / rabi.

    Each slot is booked at ``t_m``. ``commensurate`` nudges lab-frame pulse
    lengths onto whole qubit periods of ``couplings`` (`commensurate_pulse`),
    fitting each distinct rotation angle once per context (a CNOT uses
    three); a refused fit is not kept, so it is raised again on every use.
    The refocusing schedules take J from ``couplings`` too.
    """

    couplings: CouplingSet | None = None
    frame: str = INTERACTION
    t_m: float = T_M_DEFAULT
    rabi: float = RABI_DEFAULT
    commensurate: bool = False
    _fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.frame not in FRAMES:
            raise ValueError(f"unknown frame {self.frame!r}; choose from {FRAMES}")
        if not (math.isfinite(self.rabi) and self.rabi > 0.0):
            raise ValueError(f"Rabi frequency must be finite and positive: {self.rabi!r}")
        if not (math.isfinite(self.t_m) and self.t_m >= 0.0):
            raise ValueError(f"slot time t_m must be finite and non-negative: "
                             f"{self.t_m!r}")
        if self.commensurate and (self.frame != LAB or self.couplings is None):
            raise ValueError("pulse-length commensuration needs the lab frame and "
                             "the coupling set's qubit frequencies")

    def _pulse(self, ion: int, theta: float, phi: float) -> Pulse:
        if self.commensurate:
            fit = self._fits.get(theta)
            if fit is None:
                fit = self._fits[theta] = commensurate_pulse(
                    self.couplings.w, theta, self.rabi)
            return Pulse(ion, theta, phi, fit.rabi, fit.duration,
                         cycles=fit.cycles, residuals=tuple(fit.residuals[:3]))
        return Pulse(ion, theta, phi, self.rabi, theta / self.rabi)

    def slot(self, label: str, *rotations: tuple[int, float, float]) -> PulseSlot:
        """One t_m slot of simultaneous (ion, theta, phi) rotations."""
        return PulseSlot(tuple(self._pulse(*r) for r in rotations), self.t_m, label)

    def schedule(self, *items) -> PulseSchedule:
        return PulseSchedule(items, self.frame)


def composite_z_rotation(ion: int, sense: int = +1,
                         ctx: PulseContext = PulseContext()) -> PulseSchedule:
    """Three-pulse composite equal to exp(+i pi/4 sigma_z) (sense=+1) or its inverse.

    Applied order: U(7 pi/2, s pi/2), U(pi/2, 0), U(pi/2, s pi/2) with
    s = sense. The product has no leftover global phase.
    """
    if sense not in (+1, -1):
        raise ValueError("sense must be +1 or -1")
    tag = f"z{'+' if sense > 0 else '-'}45 ion{ion}"
    return ctx.schedule(ctx.slot(tag, (ion, 3.5 * np.pi, sense * np.pi / 2)),
                        ctx.slot(tag, (ion, 0.5 * np.pi, 0.0)),
                        ctx.slot(tag, (ion, 0.5 * np.pi, sense * np.pi / 2)))


def refocused_zz(ctx: PulseContext, pair: tuple[int, int] = (2, 3)) -> PulseSchedule:
    """Schedule for exp(-i pi/4 sigma_z_i sigma_z_j) on an adjacent pair.

    Four free quarters of t = 7 pi / (2 J), interleaved with pi pulses: the
    spectator ion is flipped after quarters 1 and 3, the pair ions together
    after quarters 2 and 4. Every sigma_z and every other sigma_z sigma_z
    term then averages to zero over the four quarters -- including the w_i
    terms, so the identity holds in the lab frame too -- while the pair
    coupling survives with full weight t.
    """
    i, j = pair
    if {i, j} not in ({1, 2}, {2, 3}):
        raise ValueError("refocused pair must be adjacent ions (1,2) or (2,3)")
    if ctx.couplings is None or ctx.couplings.J <= 0.0:
        raise ValueError("refocusing needs a coupling set with a positive "
                         "nearest-neighbor coupling J")
    spectator = ({1, 2, 3} - {i, j}).pop()
    quarter = FreeEvolution(7.0 * np.pi / (2.0 * ctx.couplings.J) / 4.0, "zz quarter")
    flip_spectator = ctx.slot(f"pi ion{spectator}", (spectator, np.pi, 0.0))
    flip_pair = ctx.slot(f"pi ion{i}+ion{j}", (i, np.pi, 0.0), (j, np.pi, 0.0))
    return ctx.schedule(quarter, flip_spectator, quarter, flip_pair,
                        quarter, flip_spectator, quarter, flip_pair)


def build_cnot(control: int, target: int, ctx: PulseContext) -> PulseSchedule:
    """Six-factor CNOT schedule on an adjacent (control, target) pair.

    Composition, in application order:

        e^{+i pi/4 sy_t} . e^{-i pi/4 sz_c sz_t} . e^{-i pi/4 sz_t}
                         . e^{+i pi/4 sz_c} . e^{-i pi/4 sy_t}

    With sigma_z |1> = +|1>, the target quarter-turn must be the -pi/4 sense:
    the +pi/4 sense makes the product a zero-controlled NOT (flips the
    target when the control is |0>) instead of the canonical gate.
    """
    if {control, target} not in ({1, 2}, {2, 3}):
        raise ValueError("CNOT needs an adjacent pair coupled by J")
    zz = refocused_zz(ctx, (min(control, target), max(control, target)))
    opening = ctx.schedule(
        ctx.slot(f"y+90 ion{target}", (target, 0.5 * np.pi, 0.5 * np.pi)))
    closing = ctx.schedule(
        ctx.slot(f"y-90 ion{target}", (target, 3.5 * np.pi, 0.5 * np.pi)))
    return (opening + zz + composite_z_rotation(target, -1, ctx)
            + composite_z_rotation(control, +1, ctx) + closing)


def hadamard_schedule(ion: int, ctx: PulseContext = PulseContext()) -> PulseSchedule:
    """Hadamard from the pulse alphabet: two +45 z composites, then U(pi/2, pi/2).

    Equals the |0> -> (|0>+|1>)/sqrt2, |1> -> (|0>-|1>)/sqrt2 map up to a
    global phase of -i.
    """
    half = composite_z_rotation(ion, +1, ctx)
    return half + half + ctx.schedule(
        ctx.slot(f"y+90 ion{ion}", (ion, 0.5 * np.pi, 0.5 * np.pi)))


# -- applying schedules -----------------------------------------------------

def slot_unitary(slot: PulseSlot) -> np.ndarray:
    U = np.eye(8, dtype=complex)
    for pulse in slot.pulses:
        U = single_qubit_rotation(pulse.ion, pulse.theta, pulse.phi) @ U
    return U


def segment_unitary(item, couplings: CouplingSet, frame: str) -> np.ndarray:
    if isinstance(item, FreeEvolution):
        return free_evolution(couplings, item.duration, frame)
    return slot_unitary(item)


def schedule_unitary(schedule: PulseSchedule, couplings: CouplingSet) -> np.ndarray:
    """Composed 8x8 unitary of the whole schedule (ideal segment model)."""
    U = np.eye(8, dtype=complex)
    for item in schedule.items:
        U = segment_unitary(item, couplings, schedule.frame) @ U
    return U


def apply_schedule(state: SpinState, schedule: PulseSchedule,
                   couplings: CouplingSet) -> SpinState:
    """Left-multiply the state by each segment's ideal unitary in order."""
    if state.frame != schedule.frame:
        raise ValueError(
            f"frame mismatch: state is {state.frame!r}, schedule is {schedule.frame!r}")
    amps = state.amplitudes
    for item in schedule.items:
        amps = segment_unitary(item, couplings, schedule.frame) @ amps
    return SpinState(amps, state.frame)


# -- wire format -------------------------------------------------------------

def serialize_schedule(schedule: PulseSchedule) -> str:
    """Line format: ``PULSE ion theta phi rabi T`` or ``FREE T``.

    Numbers are float reprs, which parse back exactly. Simultaneous pulses
    of one slot appear on consecutive lines; the flat file keeps per-pulse
    lengths, not slot bookkeeping.
    """
    lines = [f"# frame={schedule.frame}"]
    for item in schedule.items:
        if isinstance(item, FreeEvolution):
            lines.append(f"FREE {float(item.duration)!r}")
        else:
            for p in item.pulses:
                numbers = " ".join(repr(float(x))
                                   for x in (p.theta, p.phi, p.rabi, p.duration))
                lines.append(f"PULSE {p.ion} {numbers}")
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> PulseSchedule:
    """Inverse of `serialize_schedule`; parsed pulses become single-pulse slots."""
    frame = INTERACTION
    items: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip() if not raw.lstrip().startswith("#") else ""
        if raw.lstrip().startswith("# frame="):
            frame = raw.split("=", 1)[1].strip()
            if frame not in FRAMES:
                raise ValueError(f"schedule line {lineno}: unknown frame {frame!r}; "
                                 f"choose from {FRAMES}")
            continue
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "FREE" and len(fields) == 2:
                items.append(FreeEvolution(float(fields[1])))
            elif fields[0] == "PULSE" and len(fields) == 6:
                ion = int(fields[1])
                if ion not in (1, 2, 3):
                    raise ValueError(f"ion index must be 1, 2, or 3, got {ion}")
                theta, phi, rabi, dur = map(float, fields[2:])
                if not all(map(math.isfinite, (theta, phi, rabi))):
                    raise ValueError("theta, phi and rabi must be finite")
                items.append(PulseSlot((Pulse(ion, theta, phi, rabi, dur),), dur))
            else:
                raise ValueError("unrecognized segment")
        except (ValueError, IndexError) as exc:
            raise ValueError(f"schedule line {lineno}: {exc}") from exc
    return PulseSchedule(tuple(items), frame)
