"""Trapping potential, equilibrium positions, and vibrational normal modes.

Three ions on the z axis, each in its own harmonic well, repelling each
other through the Coulomb interaction:

    V(z) = sum_i  m W_i^2 (z_i - zc_i)^2 / 2  +  sum_{i<j} e^2 / (4 pi eps0 |z_i - z_j|)

One record, `TrapLayout` (d, W1, W2), holds both layouts: a micro-trap
array (wells at -d, 0, +d, the outer two of frequency W1 and the center one
of W2) and a single linear trap as its d = 0 case (W1 = W2). The magnetic
gradient exerts no net force here; the equilibrium is set by the trap and
Coulomb terms alone. The chain is mirror-symmetric by construction, so the
equilibrium is the root of one scalar cubic and the Hessian splits into one
antisymmetric mode and a 2x2 symmetric block: the normal modes and the two
entries of its inverse the couplings need are closed forms, computed
elementwise over arrays of layouts by `_chain_modes`, with no eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONSTANTS, PhysicalConstants, _finite_real


class ConvergenceError(RuntimeError):
    """Never raised: `solve_equilibrium` is closed-form. Kept only because
    the benchmark's tracer (perfbench/tracing.py) names it."""


class UnstableModesError(RuntimeError):
    """Hessian has a non-positive eigenvalue: configuration is not a stable minimum."""


#: Stiffnesses (N/m) a layout may have: each trap's m W^2 and, in a
#: micro-trap array, the Coulomb scale k / d^3. Inside this range every
#: closed form below stays finite, squares of the Hessian entries included;
#: real traps sit near 1e-11 N/m.
STIFFNESS_RANGE = (1e-100, 1e100)


def _stiff(force: float, per_length: float) -> bool:
    """Whether force / per_length lies in STIFFNESS_RANGE, tested without
    dividing, so no value over- or underflows into a false answer; NaN fails."""
    lo, hi = STIFFNESS_RANGE
    return lo * per_length <= force <= hi * per_length


@dataclass(frozen=True)
class TrapLayout:
    """The mirror-symmetric three-ion chain: wells at -d, 0 and +d (m), the
    outer two of angular frequency ``w1`` and the center one of ``w2`` (rad/s).

    ``d = 0`` is a single linear trap, whose one frequency is ``w1 == w2``.
    `multi_trap` and `linear` are the constructors; ``mode``, ``centers``
    and ``frequencies`` are derived from the three fields.
    """

    d: float
    w1: float
    w2: float
    constants: PhysicalConstants = DEFAULT_CONSTANTS

    def __post_init__(self) -> None:
        d, w1, w2 = self.d, self.w1, self.w2
        if not (_finite_real(d) and _finite_real(w1) and _finite_real(w2)):
            raise ValueError(f"trap spacing and frequencies must be finite, got d = {d!r} m, "
                             f"W1 = {w1!r}, W2 = {w2!r} rad/s")
        d, w1, w2 = float(d), float(w1), float(w2)
        for name, value in (("d", d), ("w1", w1), ("w2", w2)):
            object.__setattr__(self, name, value)
        if d < 0.0:
            raise ValueError(f"trap spacing d must be non-negative, got {d!r} m")
        if not (w1 > 0.0 and w2 > 0.0):
            raise ValueError("trap frequencies must be strictly positive")
        if d == 0.0 and w1 != w2:
            raise ValueError("a linear trap (d = 0) has one trap frequency: W1 must equal W2")
        mass = self.constants.mass
        if not (_stiff(mass * w1 * w1, 1.0) and _stiff(mass * w2 * w2, 1.0)):
            raise ValueError(f"trap frequencies {[w1, w2]} rad/s give a stiffness m W^2 "
                             f"outside {STIFFNESS_RANGE} N/m")
        if d > 0.0 and not _stiff(self.constants.coulomb, d * d * d):
            raise ValueError(f"trap spacing d = {d!r} m gives a Coulomb stiffness "
                             f"k / d^3 outside {STIFFNESS_RANGE} N/m")

    @property
    def mode(self) -> str:
        """The layout's kind: "multi" for one micro-trap per ion (d > 0),
        "linear" for one shared well (d = 0)."""
        return "multi" if self.d > 0.0 else "linear"

    @property
    def centers(self) -> np.ndarray:
        """Trap centers (-d, 0, d) in m; a linear trap's are all +0.0."""
        return np.array([0.0 - self.d, 0.0, self.d])

    @property
    def frequencies(self) -> np.ndarray:
        """Trap frequencies (W1, W2, W1) in rad/s."""
        return np.array([self.w1, self.w2, self.w1])

    @classmethod
    def multi_trap(cls, d: float, w1: float, w2: float,
                   constants: PhysicalConstants = DEFAULT_CONSTANTS) -> "TrapLayout":
        """Micro-trap array: wells at -d, 0, +d with outer frequency w1 and center w2."""
        if not (_finite_real(d) and d > 0.0):
            raise ValueError(f"multi-trap layout requires a finite, positive trap spacing d, "
                             f"got {d!r} m")
        return cls(d, w1, w2, constants)

    @classmethod
    def linear(cls, w: float,
               constants: PhysicalConstants = DEFAULT_CONSTANTS) -> "TrapLayout":
        """Single linear trap of angular frequency w holding all three ions."""
        return cls(0.0, w, w, constants)


@dataclass(frozen=True)
class EquilibriumSolution:
    """Classical rest positions of the chain.

    ``delta`` is the displacement of the outer ions from their own trap
    center (equal on both sides by symmetry) and ``h`` the distance between
    neighboring ions, h = d + delta (d = 0 in a linear trap).
    """

    positions: np.ndarray  # m, strictly increasing
    delta: float  # m
    h: float  # m
    residual: float  # N, infinity-norm of the gradient at the solution
    iterations: int  # Newton steps on the scalar cubic for delta


@dataclass(frozen=True)
class NormalModes:
    """Vibrational frequencies nu (ascending, rad/s) and orthogonal mode matrix D.

    Columns of D are mode vectors; the Hessian K factorizes as
    D diag(m nu^2) D^T. Each column's sign is fixed so its largest-magnitude
    entry is positive (couplings are bilinear in D, so this is cosmetic but
    keeps results reproducible). ``kinv12`` and ``kinv13`` are the entries
    [K^-1]_12 = [K^-1]_23 and [K^-1]_13 (m/N) the Ising couplings scale.
    """

    nu: np.ndarray
    D: np.ndarray
    kinv12: float
    kinv13: float


# -- potential core (works for any number of ions; public API wraps 3) -----

def _potential(positions, centers, freqs, constants) -> float:
    m = constants.mass
    harmonic = 0.5 * m * np.sum(freqs**2 * (positions - centers) ** 2)
    coulomb = 0.0
    n = len(positions)
    for i in range(n):
        for j in range(i + 1, n):
            coulomb += constants.coulomb / abs(positions[i] - positions[j])
    return harmonic + coulomb


def _gradient(positions, centers, freqs, constants) -> np.ndarray:
    m = constants.mass
    grad = m * freqs**2 * (positions - centers)
    n = len(positions)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            r = positions[i] - positions[j]
            grad[i] -= constants.coulomb / (r * abs(r))
    return grad


def _hessian(positions, centers, freqs, constants) -> np.ndarray:
    """Analytic Hessian (n, n) of `_potential` at any positions."""
    m = constants.mass
    n = len(positions)
    hess = np.diag(m * freqs**2)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            curv = 2.0 * constants.coulomb / abs(positions[i] - positions[j]) ** 3
            hess[i, i] += curv
            hess[i, j] -= curv
    return hess


# -- the mirror-symmetric chain in closed form ------------------------------
#
# Both helpers work elementwise on broadcast arrays, so a whole search stage
# gets, value for value, what `solve_equilibrium` and `normal_modes` give one
# layout at a time. Squares are written x * x: a numpy scalar's ** 2 is
# libm's pow, which can differ from the array square in the last bit.

def _outer_displacement(w1, d: float, constants):
    """The positive root delta of delta (d + delta)^2 = c, c = 5 k / (4 m W1^2),
    for each W1 of ``w1``, and the number of Newton steps: for a single W1,
    the steps it took; for several, the most any one took.

    The cubic is increasing and convex for delta > 0: Newton's method from
    min(c / d^2, c^(1/3)), above the root, falls monotonically; an element
    stops at the first step that does not lower it, a few ulp from the root.
    """
    c = 1.25 * constants.coulomb / (constants.mass * (w1 * w1))
    delta = np.minimum(c / (d * d), np.cbrt(c)) if d > 0.0 else np.cbrt(c)
    steps = 0
    while True:
        steps += 1
        h = d + delta
        lower = delta - (delta * h * h - c) / (h * (h + 2.0 * delta))
        # a stopped element recomputes the same ``lower``, so it stays stopped
        if not (lower < delta).any():
            return delta, steps
        delta = np.minimum(lower, delta)


def _chain_modes(w1, w2, h, constants):
    """Hessian eigenvalues (..., 3), the symmetric modes' half-column values
    ``centre`` and ``side`` with the ``wide`` mask, and the inverse entries
    [K^-1]_12, [K^-1]_13 of the symmetric chain with outer frequency W1,
    center frequency W2 and ion spacing h.

    With c1 = 2k/h^3 and c2 = k/(4h^3) the Hessian is
    [[a, -c1, -c2], [-c1, b, -c1], [-c2, -c1, a]], a = m W1^2 + c1 + c2,
    b = m W2^2 + 2 c1. The antisymmetric mode (1, 0, -1)/sqrt2 has eigenvalue
    a + c2; the symmetric modes (x, y sqrt2, x)/sqrt2 diagonalize the block
    [[A, -sqrt2 c1], [-sqrt2 c1, b]], A = m W1^2 + c1, whose determinant
    det = m^2 W1^2 W2^2 + 2 c1 m W1^2 + c1 m W2^2 is a sum of positive terms.
    Its eigenvalues are lam+ = (A + b + disc) / 2 and lam- = det / lam+, and
    each eigenvector takes the row form (sqrt2 c1, A - lam) or
    (b - lam, sqrt2 c1) that does not cancel. The cofactors give
    [K^-1]_12 = c1 / det and [K^-1]_13 = (c1^2 + b c2) / ((a + c2) det).
    Eigenvalues come in the order (lam-, lam+, a + c2), unsorted; the mode
    vectors, in the same order, are `_mode_matrix` of (centre, side, wide):
    the lam- mode is (centre/sqrt2, side, centre/sqrt2), and the lam+ mode
    takes the magnitudes (side/sqrt2, centre, side/sqrt2). Both values are
    non-negative, so no mode matrix is needed for the largest |D_il| of a mode.
    """
    kh3 = constants.coulomb / (h * h * h)
    c1, c2 = 2.0 * kh3, 0.25 * kh3
    mw1 = constants.mass * (w1 * w1)
    mw2 = constants.mass * (w2 * w2)
    A, b = mw1 + c1, mw2 + 2.0 * c1
    anti = A + 2.0 * c2
    det = mw1 * mw2 + 2.0 * c1 * mw1 + c1 * mw2
    s = A - b
    disc = np.sqrt(s * s + 8.0 * (c1 * c1))
    upper = 0.5 * (A + b + disc)
    shape = np.broadcast_shapes(np.shape(w1), np.shape(w2), np.shape(h))
    lam = np.empty(shape + (3,))
    lam[..., 0], lam[..., 1], lam[..., 2] = det / upper, upper, anti
    # block eigenvectors: lam- -> (q, t), lam+ -> (-t, q) when A >= b, else
    # lam- -> (t, q), lam+ -> (q, -t); t = (|A - b| + disc) / 2 adds no
    # opposite signs, and the two share the norm sqrt(q^2 + t^2)
    q = math.sqrt(2.0) * c1
    t = 0.5 * (np.abs(s) + disc)
    norm = np.sqrt(q * q + t * t)
    q, t = q / norm, t / norm
    wide = s >= 0.0
    return (lam, np.where(wide, q, t), np.where(wide, t, q), wide,
            c1 / det, (c1 * c1 + b * c2) / (anti * det))


def _mode_matrix(centre, side, wide):
    """The mode vectors (..., 3, 3), as columns in `_chain_modes`' eigenvalue
    order, from its half-column values ``centre``, ``side`` and ``wide``."""
    r = math.sqrt(0.5)
    D = np.empty(np.shape(centre) + (3, 3))
    D[..., 0, 0] = D[..., 2, 0] = r * centre
    D[..., 1, 0] = side
    D[..., 0, 1] = D[..., 2, 1] = r * np.where(wide, -side, side)
    D[..., 1, 1] = np.where(wide, centre, -centre)
    D[..., :, 2] = (r, 0.0, -r)
    return D


# -- public operations ------------------------------------------------------

def total_potential(layout: TrapLayout, positions: np.ndarray) -> float:
    """Chain potential energy (J) at the given strictly increasing positions."""
    positions = np.asarray(positions, dtype=float)
    if positions.shape != (3,):
        raise ValueError("expected three ion positions")
    if not np.all(np.diff(positions) > 0.0):
        raise ValueError("ion positions must be strictly increasing (no overlap)")
    return _potential(positions, layout.centers, layout.frequencies, layout.constants)


def potential_gradient(layout: TrapLayout, positions: np.ndarray) -> np.ndarray:
    """Analytic gradient of ``total_potential`` (N)."""
    positions = np.asarray(positions, dtype=float)
    if not np.all(np.diff(positions) > 0.0):
        raise ValueError("ion positions must be strictly increasing (no overlap)")
    return _gradient(positions, layout.centers, layout.frequencies, layout.constants)


def potential_hessian(layout: TrapLayout, positions: np.ndarray) -> np.ndarray:
    """Analytic Hessian of ``total_potential`` (N/m)."""
    positions = np.asarray(positions, dtype=float)
    return _hessian(positions, layout.centers, layout.frequencies, layout.constants)


def solve_equilibrium(layout: TrapLayout) -> EquilibriumSolution:
    """Rest positions of the mirror-symmetric chain, in closed form.

    The middle ion stays at its trap center; the outer ions move out by the
    one positive root delta of delta (d + delta)^2 = c, c = 5 k / (4 m W1^2)
    (k the Coulomb constant, d = 0 in a linear trap), so W2 does not enter;
    `_outer_displacement` finds it by Newton's method.
    """
    const, centers = layout.constants, layout.centers
    delta, steps = _outer_displacement(layout.w1, layout.d, const)
    z = centers + float(delta) * np.array([-1.0, 0.0, 1.0])
    residual = float(np.max(np.abs(_gradient(z, centers, layout.frequencies, const))))
    return EquilibriumSolution(z, float(delta), float(z[1] - z[0]), residual, steps)


def linear_spacing(w: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Closed-form ion spacing of the symmetric three-ion chain in one well.

    The outer ions sit at +-(5/4)^(1/3) (e^2/(4 pi eps0 m W^2))^(1/3).
    """
    if not (_finite_real(w) and (x := float(w)) > 0.0 and _stiff(constants.mass * x * x, 1.0)):
        raise ValueError(f"trap frequency must be finite and positive, with a stiffness "
                         f"m W^2 inside {STIFFNESS_RANGE} N/m, got {w!r} rad/s")
    return float(np.cbrt(1.25 * constants.coulomb / (constants.mass * x**2)))


def linear_frequency_for_spacing(h: float,
                                 constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Trap frequency at which the three-ion chain spacing equals h."""
    if not (_finite_real(h) and (x := float(h)) > 0.0
            and _stiff(1.25 * constants.coulomb, x * x * x)):
        raise ValueError(f"spacing must be finite and positive, with a stiffness "
                         f"m W^2 = 5 k / (4 h^3) inside {STIFFNESS_RANGE} N/m, got {h!r} m")
    return float(np.sqrt(1.25 * constants.coulomb / (constants.mass * x**3)))


def normal_modes(layout: TrapLayout, eq: EquilibriumSolution) -> NormalModes:
    """Vibrational modes of the chain at its symmetric equilibrium ``eq``.

    nu_l = sqrt(lambda_l / m) with lambda_l the Hessian eigenvalues, from
    the closed form of `_chain_modes` at spacing eq.h.
    """
    evals, centre, side, wide, kinv12, kinv13 = _chain_modes(layout.w1, layout.w2, eq.h,
                                                            layout.constants)
    if not np.all(evals > 0.0):  # NaN fails too
        raise UnstableModesError(
            f"non-positive Hessian eigenvalue {evals.min():.3e}; configuration unstable")
    order = np.argsort(evals, kind="stable")
    evals, vecs = evals[order], _mode_matrix(centre, side, wide)[:, order]
    nu = np.sqrt(evals / layout.constants.mass)
    for col in range(3):
        mags = np.abs(vecs[:, col])
        # near-ties resolve to the lowest index, so the sign stays stable
        # against last-ulp reordering of symmetric mode vectors
        lead = int(np.flatnonzero(mags >= mags.max() * (1.0 - 1e-9))[0])
        if vecs[lead, col] < 0.0:
            vecs[:, col] = -vecs[:, col]
    return NormalModes(nu, vecs, float(kinv12), float(kinv13))
