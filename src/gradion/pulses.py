"""Microwave pulse alphabet, refocusing scaffolds, and gate schedules.

Everything is expressed with one primitive, the resonant carrier rotation
of a single addressed ion in the interaction picture,

    U(theta, phi) = exp[ i theta/2 (e^{-i phi} sigma_+ + e^{i phi} sigma_-) ],

plus free evolution under the always-on spin Hamiltonian. A schedule is an
ordered list of segments: pulse slots (one or more simultaneous rotations
on distinct ions, booked at the fixed implementation time t_m) and free
intervals. One `PulseContext` -- frame, slot time t_m, Rabi frequency,
and optional lab-frame commensuration -- fixes how every builder realizes a
rotation as a pulse. `stage_propagators` builds all of a schedule's
segment propagators at once, in the ideal segment model (``exact=False``)
or the exact one (``exact=True``, see `integrate`). Ideal rotations act
instantaneously, so spin-spin phases accrue only during free intervals;
the exact model keeps the spin-spin terms on during pulses too, and so
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
from dataclasses import dataclass, field

import numpy as np

from .constants import TWO_PI, _finite_real, _integer
from .couplings import CouplingSet, _spin_diagonal
from .operators import Z_SIGNS, embed

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
        if not abs(np.linalg.norm(amps) - 1.0) <= 1e-10:  # NaN fails too
            raise ValueError("spin state is not normalized")

    @classmethod
    def product(cls, q1, q2, q3, frame: str = INTERACTION) -> "SpinState":
        """Build |q1> x |q2> x |q3> from three 2-component qubit states."""
        a, b, c = (np.asarray(q, complex) for q in (q1, q2, q3))
        # the products kron(kron(a, b), c) forms, in its order, without its overhead;
        # a non-finite factor or an overflow (inf, or NaN from inf * 0) gives a
        # non-finite norm, refused below with no warning
        with np.errstate(over="ignore", invalid="ignore"):
            amps = ((a[:, None, None] * b[None, :, None]) * c[None, None, :]).ravel()
            norm = np.linalg.norm(amps)
        if not 0.0 < norm < math.inf:  # NaN fails too
            raise ValueError("product state needs finite, nonzero qubit states, "
                             "got a zero or non-finite norm")
        return cls(amps / norm, frame)


@dataclass(frozen=True)
class Pulse:
    """One carrier rotation: ion, angle, phase, Rabi frequency, realized length.

    The ion is 1, 2 or 3; theta, phi and rabi are finite (``rabi = 0`` is an
    undriven pulse) and the duration is finite and non-negative.

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

    def __post_init__(self) -> None:
        if _integer(self.ion) not in (1, 2, 3):
            raise ValueError(f"ion index must be 1, 2, or 3, got {self.ion!r}")
        if not (_finite_real(self.theta) and _finite_real(self.phi) and _finite_real(self.rabi)):
            raise ValueError("theta, phi and rabi must be finite")
        if not (_finite_real(self.duration) and self.duration >= 0.0):
            raise ValueError("pulse duration must be finite and non-negative")


@dataclass(frozen=True)
class PulseSlot:
    """Simultaneous rotations on distinct ions, booked at one wall-clock slot."""

    pulses: tuple[Pulse, ...]
    duration: float
    label: str = ""

    def __post_init__(self) -> None:
        ions = [p.ion for p in self.pulses]
        if not ions:
            raise ValueError("a pulse slot needs at least one pulse")
        if len(set(ions)) != len(ions):
            raise ValueError("simultaneous pulses must target distinct ions")
        if not (_finite_real(self.duration) and self.duration >= 0.0):
            raise ValueError("slot duration must be finite and non-negative")


@dataclass(frozen=True)
class FreeEvolution:
    """Evolution under the bare spin Hamiltonian for ``duration`` seconds."""

    duration: float
    label: str = ""

    def __post_init__(self) -> None:
        if not (_finite_real(self.duration) and self.duration >= 0.0):
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
        w = np.zeros(3)
    elif frame == LAB:
        w = couplings.w
    else:
        raise ValueError(f"unknown frame {frame!r}")
    return _spin_diagonal(w, couplings.J, couplings.J13)


def free_evolution(couplings: CouplingSet, t: float, frame: str = INTERACTION) -> np.ndarray:
    """Diagonal unitary exp(-i H0 t) of the spin Hamiltonian."""
    if not (_finite_real(t) and t >= 0.0):
        raise ValueError(f"evolution time must be finite and non-negative, got {t!r}")
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
_UNIT_ROUNDOFF = 2.0 ** -53  # u: a float operation's relative error is at most u


def commensurate_pulse(w, theta: float, rabi_nominal: float,
                       tolerance: float = 1e-3, window: float = 0.2,
                       ) -> CommensurationResult:
    """Tune a pulse length so every qubit's free phase wraps to ~2 pi N.

    Candidates are the exact wrap times of the middle frequency a = w_mid,
    T = 2 pi n / a, within ``window`` of the nominal length
    theta / rabi_nominal; the one minimizing the worst wrapped phase over
    all ions wins, the first (smallest n) on a tie. The Rabi frequency is
    then re-derived as theta / T.

    Only the n that can win are evaluated. Another ion i is left
    2 pi dist(n s, Z) off a wrap, s = w_i / a - round(w_i / a), and that
    never exceeds the worst residual. So every n whose worst residual is at
    most a bound eps lies in C(eps): the n with |n s - m| <= delta for an
    integer m, delta = eps / 2 pi plus the margin below, one short run of n
    per m. The steering ion i is the one whose C(eps) is estimated smallest,
    N (|s| + 2 delta) + 2 delta / |s| for a window of N. C(eps), plus the n
    nearest m / |s| for each m, is evaluated with the same float expressions
    the whole window would be. If the least worst residual found is at most
    eps, it is the window's least, and its first n the window's first, since
    every n at or under eps is in C(eps). Otherwise that residual bounds the
    window's least and becomes eps for a second pass, which is then final.
    The first pass takes eps = 4 tolerance, so that a fit refused by less
    than a factor 4, as most are, needs no second. With one ion, every other
    ion on a harmonic of a (s = 0), or C(eps) estimated as large as the
    window, the whole window is evaluated instead.

    The margin covers float error. In cycles, with u = 2**-53, r = w_i / a
    and n up to the window's top n_hi: the evaluated residual of ion i is
    within 3u eps / 2 pi + 5u n_hi r + u of dist(n r, Z) = dist(n s, Z),
    from the roundings of 2 pi n, of its division by a, of the product with
    w_i and of the wrap; n times the float s is within u n_hi r of n s; and the
    computed ends of a run, m / |s| -+ delta / |s|, are within 3u n_hi of
    the exact ones, which 8u n_hi |s| of delta covers. The margin is
    16u (eps / 2 pi + n_hi (r + |s|) + 1), at least twice their sum, so it
    also covers the rounding of delta itself.

    Candidates go through arrays of at most a few `_SCAN_CHUNK`, so memory
    stays flat however wide the window; a window of more than 2,000,000
    candidates is refused with a ValueError.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.ndim != 1 or w.size == 0 or not (np.isfinite(w) & (w > 0.0)).all():
        raise ValueError("qubit frequencies must be a non-empty 1-D array of "
                         "finite, positive values")
    if not all(_finite_real(x) and x > 0.0 for x in (theta, rabi_nominal)):
        raise ValueError("theta and nominal Rabi frequency must be finite and positive")
    if not ((_finite_real(tolerance) or tolerance == math.inf and _finite_real(1.0 / tolerance))
            and tolerance >= 0.0):  # inf accepts any fit; a complex inf's 1/x is complex
        raise ValueError(f"tolerance must be non-negative: {tolerance!r}")
    if not (_finite_real(window) and 0.0 <= window < 1.0):
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
    eps = 4.0 * tolerance
    while (steering := _steering(w, anchor, n_lo, n_hi, eps)) is not None:
        best = _best_wrap(w, anchor, _near_wraps(n_lo, n_hi, *steering))
        if best[0] <= eps:
            break
        eps = best[0]
    else:  # no steering ion, or C(eps) as large as the window
        best = _best_wrap(w, anchor, (
            np.arange(start, min(start + _SCAN_CHUNK, n_hi + 1), dtype=float)
            for start in range(n_lo, n_hi + 1, _SCAN_CHUNK)))
    if best is None or best[0] > tolerance:
        raise CommensurationError(best[0] if best else np.inf, tolerance)
    worst, T, residuals = best
    cycles = (w * T / TWO_PI).round().astype(int).tolist()
    cycles3 = tuple((cycles * 3)[:3])  # fewer than three ions repeat cyclically
    return CommensurationResult(T, theta / T, cycles3, tuple(residuals), worst)


def _steering(w, anchor, n_lo: int, n_hi: int, eps: float):
    """(|s|, delta) of the ion whose C(eps) (see `commensurate_pulse`) is
    estimated smallest, or None when no estimate is below the window's size."""
    size = n_hi - n_lo + 1
    eps_cycles = eps / TWO_PI
    best = (size, None)
    for i, wi in enumerate(w):
        if i == len(w) // 2:
            continue
        r = float(wi / anchor)
        s = abs(r - round(r))  # exact: round(r) is 0 or within a factor 2 of r
        if s == 0.0:
            continue
        delta = eps_cycles + 16.0 * _UNIT_ROUNDOFF * (eps_cycles + n_hi * (r + s) + 1.0)
        estimate = size * (s + 2.0 * delta) + 2.0 * delta / s
        if estimate < best[0]:
            best = (estimate, (s, delta))
    return best[1]


def _near_wraps(n_lo: int, n_hi: int, s: float, delta: float):
    """Yield, ascending and each once, every n in [n_lo, n_hi] with
    |n s - m| <= delta for an integer m (s > 0), and for each m the n
    nearest m / s, in arrays of at most a few `_SCAN_CHUNK`."""
    # n per block: each n adds s values of m and 2 delta of candidates; a
    # run cut by the block's ends adds up to 2 delta / s more
    step = max(_SCAN_CHUNK, int(_SCAN_CHUNK / (
        s + 2.0 * delta + 2.0 * delta / (s * _SCAN_CHUNK))))
    reach = max(delta / s, 0.5)  # a run reaching half a step holds the n nearest m / s
    for start in range(n_lo, n_hi + 1, step):
        stop = min(start + step - 1, n_hi)
        center = np.arange(math.floor(start * s - delta) - 1,
                           math.ceil(stop * s + delta) + 2, dtype=float) / s
        # a run outside the block shrinks to its nearest end
        lo = np.ceil(center - reach).clip(start, stop)
        hi = np.floor(center + reach).clip(start, stop)
        np.maximum(lo[1:], hi[:-1] + 1.0, out=lo[1:])  # runs overlap once 2 delta > s
        counts = (hi - lo + 1.0).clip(0.0).astype(int)
        first = (lo - counts.cumsum() + counts).repeat(counts)
        yield first + np.arange(first.size, dtype=float)


def _best_wrap(w, anchor, chunks):
    """(worst residual, T, residual vector) of the first wrap count of
    ``chunks``, ascending float arrays, with the least worst residual, or None."""
    best = None
    for n in chunks:
        T = TWO_PI * n / anchor
        wT = w[:, np.newaxis] * T
        residuals = wT - TWO_PI * (wT / TWO_PI).round()
        worst = np.abs(residuals).max(axis=0)
        k = int(worst.argmin())
        if best is None or worst[k] < best[0]:
            best = (float(worst[k]), T[k], residuals[:, k])
    return best


# -- schedule builders ------------------------------------------------------

def _check_timing(config) -> None:
    """Refuse ``config``'s rabi (rad/s) unless finite and positive, or its t_m (s)
    unless finite and non-negative; store both as Python floats."""
    rabi, t_m = config.rabi, config.t_m
    if not (_finite_real(rabi) and rabi > 0.0):
        raise ValueError(f"Rabi frequency must be finite and positive: {rabi!r}")
    if not (_finite_real(t_m) and t_m >= 0.0):
        raise ValueError(f"slot time t_m must be finite and non-negative: {t_m!r}")
    if not type(rabi) is type(t_m) is float:
        object.__setattr__(config, "rabi", float(rabi))
        object.__setattr__(config, "t_m", float(t_m))


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
        _check_timing(self)
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
    if _integer(sense) not in (+1, -1):
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

#: per ion, the basis indices with its bit clear and, aligned, with it set
_PAIRS_LO = np.array([np.flatnonzero(s < 0) for s in Z_SIGNS.T])
_PAIRS_HI = np.array([np.flatnonzero(s > 0) for s in Z_SIGNS.T])
#: per ion, the flat 8x8 positions of its blocks, (lo-lo, hi-hi, lo-hi, hi-lo) x pair
_BLOCK_POSITIONS = np.stack((8 * _PAIRS_LO + _PAIRS_LO, 8 * _PAIRS_HI + _PAIRS_HI,
                             8 * _PAIRS_LO + _PAIRS_HI, 8 * _PAIRS_HI + _PAIRS_LO), axis=1)


def _rotation_blocks(pulses) -> np.ndarray:
    """(n, 4, 1) ideal blocks: the carrier rotation, in `rotation_2x2`'s arithmetic."""
    theta, phi = np.array([(p.theta, p.phi) for p in pulses]).T[..., None]
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.concatenate((c, c, 1j * s * np.exp([1j, -1j] * phi)), axis=1)[..., None]


def _carrier_blocks(pulses, energies: np.ndarray) -> np.ndarray:
    """(n, 4, 4) exact pulse blocks, spin energies kept: per basis pair,
    e^{-imt}[cos(wt) I - i sin(wt)/w (B - mI)] with sin(wt)/w -> t at w = 0."""
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
    return np.stack((cos_term + sin_term * half_gap, cos_term - sin_term * half_gap,
                     sin_term * coupling, sin_term * coupling.conj()), axis=1)


def _place_blocks(U: np.ndarray, rows, pulses, blocks: np.ndarray) -> None:
    """Write each pulse's blocks into its row of the (m, 8, 8) stack U."""
    ions = np.array([p.ion for p in pulses]) - 1
    U.reshape(len(U), 64)[np.asarray(rows)[:, None, None], _BLOCK_POSITIONS[ions]] = blocks


def _drive_hamiltonian(slot: PulseSlot) -> tuple[np.ndarray, float]:
    """The slot's drive -(rabi/2)(e^{-i phi} sigma_+ + e^{i phi} sigma_-) summed
    over its pulses, each pulse's two entries written at its lo-hi and hi-lo
    block positions, and the slot's one realized duration."""
    durations = {p.duration for p in slot.pulses}
    if len(durations) != 1:
        raise ValueError("simultaneous pulses must share one realized duration")
    H = np.zeros(64, dtype=complex)
    for p in slot.pulses:
        H[_BLOCK_POSITIONS[p.ion - 1, 2:]] -= 0.5 * p.rabi * np.array(
            [[np.exp(1j * p.phi)], [np.exp(-1j * p.phi)]])
    return H.reshape(8, 8), durations.pop()


def integrate_segment_unitary(hamiltonian: np.ndarray, duration) -> np.ndarray:
    """exp(-i H t) of a constant Hermitian H, from its eigendecomposition.

    Broadcasts over a stack of Hamiltonians (..., 8, 8) with one duration
    each (shape ``...``).
    """
    energies, vectors = np.linalg.eigh(hamiltonian)
    phases = np.exp(-1j * energies * np.asarray(duration)[..., None])
    return (vectors * phases[..., None, :]) @ np.swapaxes(vectors.conj(), -1, -2)


def stage_propagators(schedule: PulseSchedule, couplings: CouplingSet,
                      exact: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Propagator (n, 8, 8) and wall-clock duration (n,) of every segment.

    A free segment is the diagonal exp(-i E t). A pulse couples only the
    basis pairs that differ in its ion's bit: four 2x2 blocks, the carrier
    rotation itself (ideal) or its closed form with the spin energies kept
    (exact). Simultaneous pulses are the product of their blocks (ideal) or
    go through one stacked `integrate_segment_unitary` (exact).
    """
    items = schedule.items
    if exact and schedule.frame != INTERACTION:
        raise ValueError("the exact segment model works in the interaction frame only")
    energies = spin_energies(couplings, schedule.frame)
    walls = np.array([item.duration for item in items], dtype=float)
    U = np.zeros((len(items), 8, 8), dtype=complex)
    free, first, later, joint = [], [], ([], []), []  # later: an ideal slot's 2nd, 3rd
    for k, item in enumerate(items):
        if isinstance(item, FreeEvolution):
            free.append(k)
        elif exact and len(item.pulses) > 1:
            joint.append(k)
        else:
            first.append(k)
            for rank in range(1, len(item.pulses)):
                later[rank - 1].append(k)
    if free:
        diagonal = np.exp(-1j * energies * walls[free][:, None])
        U[np.array(free)[:, None], np.arange(8), np.arange(8)] = diagonal
    if first:
        pulses = [items[k].pulses[0] for k in first]
        _place_blocks(U, first, pulses, _carrier_blocks(pulses, energies) if exact
                      else _rotation_blocks(pulses))
    for rank, owners in enumerate(later, start=1):
        if owners:
            pulses = [items[k].pulses[rank] for k in owners]
            placed = np.zeros((len(owners), 8, 8), dtype=complex)
            _place_blocks(placed, range(len(owners)), pulses, _rotation_blocks(pulses))
            U[owners] = placed @ U[owners]
    if joint:
        H, t = zip(*(_drive_hamiltonian(items[k]) for k in joint))
        U[joint] = integrate_segment_unitary(np.array(H) + np.diag(energies), np.array(t))
    return U, walls


def segment_unitary(item, couplings: CouplingSet, frame: str) -> np.ndarray:
    """Ideal unitary of one segment: `stage_propagators` of a one-segment schedule."""
    return stage_propagators(PulseSchedule((item,), frame), couplings, exact=False)[0][0]


def schedule_unitary(schedule: PulseSchedule, couplings: CouplingSet) -> np.ndarray:
    """Composed 8x8 unitary of the whole schedule (ideal segment model)."""
    U = np.eye(8, dtype=complex)
    for step in stage_propagators(schedule, couplings, exact=False)[0]:
        U = step @ U
    return U


def apply_schedule(state: SpinState, schedule: PulseSchedule,
                   couplings: CouplingSet) -> SpinState:
    """Left-multiply the state by each segment's ideal unitary in order."""
    if state.frame != schedule.frame:
        raise ValueError(
            f"frame mismatch: state is {state.frame!r}, schedule is {schedule.frame!r}")
    amps = state.amplitudes
    for step in stage_propagators(schedule, couplings, exact=False)[0]:
        amps = step @ amps
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
                theta, phi, rabi, dur = map(float, fields[2:])
                items.append(PulseSlot((Pulse(int(fields[1]), theta, phi, rabi, dur),),
                                       dur))
            else:
                raise ValueError("unrecognized segment")
        except (ValueError, IndexError) as exc:
            raise ValueError(f"schedule line {lineno}: {exc}") from exc
    return PulseSchedule(tuple(items), frame)
