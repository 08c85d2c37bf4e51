"""Trapping potential, equilibrium positions, and vibrational normal modes.

Three ions on the z axis, each in its own harmonic well, repelling each
other through the Coulomb interaction:

    V(z) = sum_i  m W_i^2 (z_i - zc_i)^2 / 2  +  sum_{i<j} e^2 / (4 pi eps0 |z_i - z_j|)

Two layouts are supported: a micro-trap array (three wells spaced by d,
outer wells sharing one frequency) and a single linear trap (all three
wells coincide). The magnetic gradient exerts no net force here; the
equilibrium is set by the trap and Coulomb terms alone. Both layouts are
mirror-symmetric, so the equilibrium is the root of one scalar cubic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants, DEFAULT_CONSTANTS


class ConvergenceError(RuntimeError):
    """Equilibrium solver failed to reach the gradient tolerance.

    Never raised now that `solve_equilibrium` is closed-form; kept while
    the benchmark's tracer (perfbench/tracing.py) still imports it.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (last residual {residual:.3e} N after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


class UnstableModesError(RuntimeError):
    """Hessian has a non-positive eigenvalue: configuration is not a stable minimum."""


def _close(x: float, ref: float) -> bool:
    """|x - ref| within 1e-12 of |ref|, with no absolute term."""
    return abs(x - ref) <= 1e-12 * abs(ref)


@dataclass(frozen=True)
class TrapLayout:
    """Geometry and trap frequencies of the three-ion chain.

    mode
        "multi" for one micro-trap per ion, "linear" for a single shared well.
    centers
        Trap centers zc_i in m. Linear mode: all exactly equal. Multi mode:
        strictly increasing, evenly spaced by ``d``.
    frequencies
        Angular trap frequencies W_i in rad/s. The outer traps are required
        to share one frequency so that the two nearest-neighbor couplings
        come out equal.
    d
        Neighboring trap distance in m (multi mode only).
    """

    mode: str
    centers: np.ndarray
    frequencies: np.ndarray
    d: float | None
    constants: PhysicalConstants = DEFAULT_CONSTANTS

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=float)
        freqs = np.asarray(self.frequencies, dtype=float)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "frequencies", freqs)
        if centers.shape != (3,) or freqs.shape != (3,):
            raise ValueError("layout needs exactly three trap centers and frequencies")
        # scalar checks, relative only: an absolute term would swamp um spacings
        zc, w = centers.tolist(), freqs.tolist()
        if not all(math.isfinite(x) for x in zc + w):
            raise ValueError("trap centers and frequencies must be finite")
        if any(x <= 0.0 for x in w):
            raise ValueError("trap frequencies must be strictly positive")
        if not _close(w[0], w[2]):
            raise ValueError("outer trap frequencies W1 and W3 must be equal")
        if self.mode == "multi":
            d = self.d
            if d is None or not 0.0 < d < math.inf:
                raise ValueError("multi-trap layout requires a finite, positive trap spacing d")
            steps = (zc[1] - zc[0], zc[2] - zc[1])
            if not all(x > 0.0 and _close(x, d) for x in steps):
                raise ValueError("multi-trap centers must increase in even steps of d")
        elif self.mode == "linear":
            if not zc[0] == zc[1] == zc[2]:
                raise ValueError("linear layout requires coincident trap centers")
            if not all(_close(x, w[0]) for x in w):
                raise ValueError("linear layout requires one common trap frequency")
        else:
            raise ValueError(f"unknown layout mode {self.mode!r}")

    @classmethod
    def multi_trap(cls, d: float, w1: float, w2: float,
                   constants: PhysicalConstants = DEFAULT_CONSTANTS) -> "TrapLayout":
        """Micro-trap array: wells at -d, 0, +d with outer frequency w1 and center w2."""
        centers = np.array([-d, 0.0, d])
        return cls("multi", centers, np.array([w1, w2, w1]), d, constants)

    @classmethod
    def linear(cls, w: float,
               constants: PhysicalConstants = DEFAULT_CONSTANTS) -> "TrapLayout":
        """Single linear trap of angular frequency w holding all three ions."""
        return cls("linear", np.zeros(3), np.full(3, w), None, constants)


@dataclass(frozen=True)
class EquilibriumSolution:
    """Classical rest positions of the chain.

    ``delta`` is the displacement of the outer ions from their own trap
    center (equal on both sides by symmetry) and ``h`` the distance between
    neighboring ions; in multi-trap mode h = d + delta.
    """

    positions: np.ndarray  # m, strictly increasing
    delta: float  # m
    h: float  # m
    residual: float  # N, infinity-norm of the gradient at the solution
    iterations: int  # Newton steps on the scalar cubic for delta


@dataclass(frozen=True)
class NormalModes:
    """Vibrational frequencies nu (ascending, rad/s) and orthogonal mode matrix D.

    Columns of D are mode vectors; the Hessian factorizes as
    D diag(m nu^2) D^T. Each column's sign is fixed so its largest-magnitude
    entry is positive (couplings are bilinear in D, so this is cosmetic but
    keeps results reproducible).
    """

    nu: np.ndarray
    D: np.ndarray


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
    """Hessian (..., n, n) for frequencies (..., n): a leading axis of freqs
    gives a stack of Hessians at the same positions, each entry computed by
    the same float operations as a single one."""
    m = constants.mass
    n = len(positions)
    diag = np.arange(n)
    hess = np.zeros(np.shape(freqs) + (n,))
    hess[..., diag, diag] = m * freqs**2
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            curv = 2.0 * constants.coulomb / abs(positions[i] - positions[j]) ** 3
            hess[..., i, i] += curv
            hess[..., i, j] -= curv
    return hess


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
    (k the Coulomb constant, d = 0 in a linear trap), so W2 does not enter.
    The cubic is increasing and convex for delta > 0: Newton's method from
    min(c / d^2, c^(1/3)), above the root, falls monotonically and stops at
    the first step that does not lower delta, a few ulp from the root.
    ``TrapLayout`` admits W3 and the multi-trap spacing within 1e-12
    relative of W1 and d, which bounds the error of using W1 and d near 1e-12.
    """
    const = layout.constants
    d = layout.d if layout.mode == "multi" else 0.0
    c = 1.25 * const.coulomb / (const.mass * layout.frequencies[0] ** 2)
    delta = min(c / d**2, np.cbrt(c)) if d > 0.0 else np.cbrt(c)
    iterations = 0
    while True:
        h = d + delta
        iterations += 1
        lower = delta - (delta * h * h - c) / (h * (h + 2.0 * delta))
        if not lower < delta:
            break
        delta = lower
    z = layout.centers + delta * np.array([-1.0, 0.0, 1.0])
    residual = float(np.max(np.abs(_gradient(z, layout.centers, layout.frequencies, const))))
    return EquilibriumSolution(z, float(delta), float(z[1] - z[0]), residual, iterations)


def linear_spacing(w: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Closed-form ion spacing of the symmetric three-ion chain in one well.

    The outer ions sit at +-(5/4)^(1/3) (e^2/(4 pi eps0 m W^2))^(1/3).
    """
    return float(np.cbrt(1.25 * constants.coulomb / (constants.mass * w**2)))


def linear_frequency_for_spacing(h: float,
                                 constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Trap frequency at which the three-ion chain spacing equals h."""
    if h <= 0.0:
        raise ValueError("spacing must be positive")
    return float(np.sqrt(1.25 * constants.coulomb / (constants.mass * h**3)))


def normal_modes(layout: TrapLayout, eq: EquilibriumSolution) -> NormalModes:
    """Diagonalize the Hessian at equilibrium into vibrational modes.

    nu_l = sqrt(lambda_l / m) with lambda_l the Hessian eigenvalues.
    """
    hess = _hessian(eq.positions, layout.centers, layout.frequencies, layout.constants)
    evals, vecs = np.linalg.eigh(hess)
    if np.any(evals <= 0.0):
        raise UnstableModesError(
            f"non-positive Hessian eigenvalue {evals.min():.3e}; configuration unstable")
    nu = np.sqrt(evals / layout.constants.mass)
    for col in range(3):
        mags = np.abs(vecs[:, col])
        # near-ties resolve to the lowest index, so the sign stays stable
        # against last-ulp reordering of symmetric mode vectors
        lead = int(np.flatnonzero(mags >= mags.max() * (1.0 - 1e-9))[0])
        if vecs[lead, col] < 0.0:
            vecs[:, col] = -vecs[:, col]
    return NormalModes(nu, vecs)
