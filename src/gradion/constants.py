"""Physical constants for the three-ion chain model.

All values are SI. Frequencies are angular (rad/s) throughout the package;
the reporting layer divides by 2*pi where a table wants cycles. Every numeric
input is vetted by `_finite_real` or `_integer`; each caller keeps its range test.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * np.pi

ELEMENTARY_CHARGE = 1.602176634e-19  # C
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m
HBAR = 1.054571817e-34  # J s
BOHR_MAGNETON = 9.2740100783e-24  # J/T
ATOMIC_MASS = 1.66053906660e-27  # kg

# Default ion mass. The bundled table1-*/table3-* reference rows are only
# consistent with a mass near 174 u (the 174Yb value); the 171Yb+ isotope
# mass (170.936 u) shifts the equilibrium displacement and couplings by
# 1.5-3%, outside the reproduction tolerances. Override per run if needed.
DEFAULT_MASS_AMU = 173.9389

# 171Yb+ hyperfine splitting, used as the zero-field qubit frequency offset.
DEFAULT_HYPERFINE = TWO_PI * 12.6428e9  # rad/s


def _finite_real(x) -> bool:
    """Whether ``x`` is a finite Python or numpy int or float; False, with no
    error or warning, for a bool, complex, str, None, array or an int beyond
    the float range."""
    if type(x) is float or isinstance(x, np.floating):  # the common case first
        return math.isfinite(x)
    if type(x) is int:  # compared exactly: math.isfinite overflows past the float range
        return -sys.float_info.max <= x <= sys.float_info.max
    return isinstance(x, np.integer)


def _integer(x) -> int | None:
    """``x`` as a Python int if a Python or numpy integer other than a bool,
    else None: 2.0, "2" and True are refused."""
    return x if type(x) is int else int(x) if isinstance(x, np.integer) else None


@dataclass(frozen=True)
class PhysicalConstants:
    """Constant bundle threaded through every computation."""

    charge: float = ELEMENTARY_CHARGE
    epsilon0: float = VACUUM_PERMITTIVITY
    hbar: float = HBAR
    mu_b: float = BOHR_MAGNETON
    amu: float = ATOMIC_MASS
    mass: float = DEFAULT_MASS_AMU * ATOMIC_MASS  # kg
    g_factor: float = 2.0
    hyperfine: float = DEFAULT_HYPERFINE  # rad/s

    def __post_init__(self) -> None:
        for name in ("charge", "epsilon0", "hbar", "mu_b", "amu", "mass",
                     "g_factor", "hyperfine"):
            value = getattr(self, name)
            if not (_finite_real(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and strictly positive")
            if type(value) is not float:
                object.__setattr__(self, name, float(value))
        mass_amu = self.mass / self.amu
        if not 100.0 <= mass_amu <= 300.0:
            raise ValueError(f"ion mass {mass_amu:.3f} u outside sanity range [100, 300]")

    @property
    def coulomb(self) -> float:
        """e^2 / (4 pi eps0) in J m."""
        return self.charge**2 / (4.0 * np.pi * self.epsilon0)

    def with_mass_amu(self, mass_amu: float) -> "PhysicalConstants":
        return replace(self, mass=mass_amu * self.amu)


DEFAULT_CONSTANTS = PhysicalConstants()
