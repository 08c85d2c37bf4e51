"""Shared test helpers: independent oracles and random-state generators."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st
from scipy.linalg import expm

import gradion as g
from gradion.operators import Z_SIGNS, embed
from gradion.pulses import free_evolution, single_qubit_rotation, spin_energies
from gradion.search import CandidateParams
from gradion.trap import UnstableModesError, _gradient, _hessian, _potential

I2 = np.eye(2, dtype=complex)
SZ2 = np.array([[-1, 0], [0, 1]], dtype=complex)  # sigma_z |1> = +|1>
SP2 = np.array([[0, 0], [1, 0]], dtype=complex)
SM2 = np.array([[0, 1], [0, 0]], dtype=complex)


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def embed3(op, ion):
    mats = [I2, I2, I2]
    mats[ion - 1] = op
    return kron3(*mats)


def pulse_oracle(ion, theta, phi):
    """Matrix-exponential oracle for the carrier rotation."""
    return embed3(expm(1j * (theta / 2.0) *
                       (np.exp(-1j * phi) * SP2 + np.exp(1j * phi) * SM2)), ion)


def spin_hamiltonian_oracle(w, J, J13):
    z = [embed3(SZ2, i) for i in (1, 2, 3)]
    return (0.5 * (w[0] * z[0] + w[1] * z[1] + w[2] * z[2])
            - 0.5 * J * (z[0] @ z[1] + z[1] @ z[2])
            - 0.5 * J13 * z[0] @ z[2])


def drive_hamiltonian_oracle(ion, phi, rabi):
    """Co-rotating drive -(rabi/2)(e^{-i phi} sigma_+ + e^{i phi} sigma_-) on one ion."""
    return -0.5 * rabi * embed3(np.exp(-1j * phi) * SP2 + np.exp(1j * phi) * SM2, ion)


#: the dense sigma_z of each ion, built by Kronecker products
PAULI_Z_ORACLE = tuple(embed3(SZ2, ion) for ion in (1, 2, 3))


def dense_evolve_oracle(self, U, wall):
    """`evolve_oracle` with phase damping as the dense z @ rho @ z, the form
    the sign masks replaced, kept as their reference."""
    if not self.mixed:
        self.state = U @ self.state
        return
    rho = U @ self.state @ U.conj().T
    for z, rate in zip(PAULI_Z_ORACLE, self.rates):
        if rate > 0.0 and wall > 0.0:
            keep = 0.5 * (1.0 + np.exp(-rate * wall))
            rho = keep * rho + (1.0 - keep) * (z @ rho @ z)
    self.state = rho


# -- the per-segment step runner `integrate.stage_propagators` and the merged
# damping factor replaced: one `eigh` per segment and phase damping one qubit
# at a time, kept verbatim as their reference

def _drive_hamiltonian_oracle(slot):
    durations = {p.duration for p in slot.pulses}
    if len(durations) != 1:
        raise ValueError("simultaneous pulses must share one realized duration")
    H = np.zeros((8, 8), dtype=complex)
    for p in slot.pulses:
        coupling_op = np.array([[0.0, np.exp(1j * p.phi)],
                                [np.exp(-1j * p.phi), 0.0]])
        H -= 0.5 * p.rabi * embed(coupling_op, p.ion)
    return H, durations.pop()


def segment_hamiltonians_oracle(schedule, couplings):
    """(hamiltonian, physical duration) per segment, in order."""
    h_spin = np.diag(spin_energies(couplings, schedule.frame)).astype(complex)
    for item in schedule.items:
        if isinstance(item, g.FreeEvolution):
            yield h_spin, item.duration
        else:
            h_drive, duration = _drive_hamiltonian_oracle(item)
            yield h_drive + h_spin, duration


def integrate_segment_unitary_oracle(hamiltonian, duration):
    """exp(-i H t) of a constant Hermitian H, from its eigendecomposition."""
    energies, vectors = np.linalg.eigh(hamiltonian)
    return (vectors * np.exp(-1j * energies * duration)) @ vectors.conj().T


_Z_MASKS_ORACLE = tuple(np.outer(s, s) for s in Z_SIGNS.T)


def evolve_oracle(self, U, wall):
    """Apply U, then (density matrix only) ``wall`` seconds of phase damping."""
    if not self.mixed:
        self.state = U @ self.state
        return
    rho = U @ self.state @ U.conj().T
    for mask, rate in zip(_Z_MASKS_ORACLE, self.rates):
        if rate > 0.0 and wall > 0.0:
            keep = 0.5 * (1.0 + np.exp(-rate * wall))
            rho = keep * rho + (1.0 - keep) * (mask * rho)
    self.state = rho


# -- the per-segment ideal path `pulses.stage_propagators` replaced: one
# embedded rotation per pulse, multiplied up per slot, kept verbatim as its
# reference

def slot_unitary(slot: g.PulseSlot) -> np.ndarray:
    U = np.eye(8, dtype=complex)
    for pulse in slot.pulses:
        U = single_qubit_rotation(pulse.ion, pulse.theta, pulse.phi) @ U
    return U


def segment_unitary(item, couplings: g.CouplingSet, frame: str) -> np.ndarray:
    if isinstance(item, g.FreeEvolution):
        return free_evolution(couplings, item.duration, frame)
    return slot_unitary(item)


def steps_oracle(stage, config):
    """(unitary, wall-clock duration) per step of a stage in the config's gate mode."""
    if config.gate_mode == "ideal":
        for U in stage:  # a stack of exact gates
            yield U, 0.0
    elif config.gate_mode == "integrated":
        hams = segment_hamiltonians_oracle(stage, config.couplings)
        for item, (H, physical) in zip(stage.items, hams):
            yield integrate_segment_unitary_oracle(H, physical), item.duration
    else:
        for item in stage.items:
            yield segment_unitary(item, config.couplings, stage.frame), item.duration


def run_stage_oracle(register, stage, config, evolve=evolve_oracle):
    """`teleport._run_stage` one step at a time; ``evolve(register, U, wall)``
    applies a step."""
    for U, wall in steps_oracle(stage, config):
        evolve(register, U, wall)
    return 0.0 if config.gate_mode == "ideal" else stage.total_duration


def carrier_spectrum_oracle(couplings):
    """The bit-loop `couplings.carrier_spectrum` the sign-table form replaced,
    kept as its reference."""
    spectrum = g.spin_spectrum(couplings).energies
    transitions = np.empty((3, 4))
    for ion in range(3):
        bit = 2 - ion  # ion 1 owns the most significant bit
        others = [b for b in range(3) if b != ion]
        for k in range(4):
            partial = [(k >> 1) & 1, k & 1]
            bits = [0, 0, 0]
            bits[others[0]], bits[others[1]] = partial
            low = (bits[0] << 2) | (bits[1] << 1) | bits[2]
            transitions[ion, k] = spectrum[low | (1 << bit)] - spectrum[low]
    spreads = transitions.max(axis=1) - transitions.min(axis=1)
    return g.CarrierSpectrum(transitions, spreads)


def _signs(index: int) -> np.ndarray:
    """sigma_z eigenvalues (s1, s2, s3) of basis state |b1 b2 b3>."""
    bits = np.array([(index >> 2) & 1, (index >> 1) & 1, index & 1])
    return 2.0 * bits - 1.0


def spin_energy_oracle(couplings, index: int) -> float:
    """Closed-form energy of one basis state of the spin Hamiltonian.

    E = sum_i w_i s_i / 2 - J s1 s2 / 2 - J s2 s3 / 2 - J13 s1 s3 / 2.

    The per-state form `couplings.spin_spectrum` replaced, kept as its
    reference.
    """
    s = _signs(index)
    return float(
        0.5 * np.dot(couplings.w, s)
        - 0.5 * couplings.J * (s[0] * s[1] + s[1] * s[2])
        - 0.5 * couplings.J13 * s[0] * s[2]
    )


def free_oracle(w, J, J13, t):
    return expm(-1j * spin_hamiltonian_oracle(w, J, J13) * t)


def cnot_permutation(control, target):
    U = np.zeros((8, 8), dtype=complex)
    for b in range(8):
        bits = [(b >> 2) & 1, (b >> 1) & 1, b & 1]
        bits[target - 1] ^= bits[control - 1]
        U[(bits[0] << 2) | (bits[1] << 1) | bits[2], b] = 1.0
    return U


def phase_aligned_deviation(U, V):
    """max |U - e^{i phi} V| over the best global phase."""
    idx = np.unravel_index(np.argmax(np.abs(V)), np.asarray(V).shape)
    phase = V[idx] / U[idx]
    phase /= abs(phase)
    return float(np.max(np.abs(phase * np.asarray(U) - np.asarray(V))))


def haar_qubit(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def random_couplings(rng, w_scale=1e7):
    """Valid coupling set with moderate frequencies (keeps phases float-exact)."""
    J = rng.uniform(1e2, 1e4)
    return g.CouplingSet(
        w=rng.uniform(0.1 * w_scale, w_scale, 3), dwdz=0.0,
        J=J, J13=rng.uniform(0.0, J),
        eps=np.zeros((3, 3)), eps_max=0.0, eta=1e-6, eta_prime=np.full((3, 3), 1e-6))


def schedule_oracle_unitary(schedule, couplings):
    """Independent composition of a schedule: expm for frees, expm for pulses."""
    U = np.eye(8, dtype=complex)
    for item in schedule.items:
        if isinstance(item, g.FreeEvolution):
            seg = free_oracle(
                couplings.w if schedule.frame == g.LAB else np.zeros(3),
                couplings.J, couplings.J13, item.duration)
        else:
            seg = np.eye(8, dtype=complex)
            for p in item.pulses:
                seg = pulse_oracle(p.ion, p.theta, p.phi) @ seg
        U = seg @ U
    return U


def commensuration_scan_oracle(w, theta, rabi_nominal, tolerance=1e-3, window=0.2):
    """The per-candidate loop `commensurate_pulse` replaced, kept as its reference."""
    TWO_PI = g.TWO_PI
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if np.any(w <= 0.0):
        raise ValueError("qubit frequencies must be positive")
    if theta <= 0.0 or rabi_nominal <= 0.0:
        raise ValueError("theta and nominal Rabi frequency must be positive")
    t_nominal = theta / rabi_nominal
    anchor = w[len(w) // 2]
    n_lo = max(1, int(np.floor(anchor * t_nominal * (1.0 - window) / TWO_PI)))
    n_hi = int(np.ceil(anchor * t_nominal * (1.0 + window) / TWO_PI))
    if n_hi - n_lo > 2_000_000:
        raise ValueError(
            f"commensuration scan of {n_hi - n_lo} candidates; narrow the "
            f"window or shorten the nominal pulse")
    best = None  # (max residual, T, residual vector)
    for n in range(n_lo, n_hi + 1):
        T = TWO_PI * n / anchor
        residuals = w * T - TWO_PI * np.round(w * T / TWO_PI)
        worst = float(np.max(np.abs(residuals)))
        if best is None or worst < best[0]:
            best = (worst, T, residuals)
    if best is None or best[0] > tolerance:
        raise g.CommensurationError(best[0] if best else np.inf, tolerance)
    worst, T, residuals = best
    cycles = np.asarray(np.round(w * T / TWO_PI), dtype=int)
    cycles3 = tuple(int(c) for c in np.resize(cycles, 3))
    return g.CommensurationResult(T, theta / T, cycles3, tuple(residuals), worst)


# Stopping threshold: 1e-18 N absolute, tightened to 1e-9 of the force scale
# at the starting point -- 1e-18 N alone can be a few percent of the Coulomb
# force for micron-scale chains, which would accept visibly wrong equilibria.
GRADIENT_TOLERANCE = 1e-18  # N
RELATIVE_GRADIENT_TOLERANCE = 1e-9
MAX_NEWTON_ITERATIONS = 200


class OracleConvergenceError(RuntimeError):
    """`newton_equilibrium_oracle` failed to reach the gradient tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (last residual {residual:.3e} N after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


def newton_equilibrium_oracle(guess, centers, freqs, constants):
    """Damped Newton descent on the chain potential.

    Steps are halved until the energy decreases and the ion ordering is
    preserved (the potential extended by |distances| would otherwise let a
    full Newton step relabel ions). The energy comparison carries a few-ulp
    slack so rounding noise near the minimum cannot stall the line search.
    """
    z = np.asarray(guess, dtype=float).copy()
    energy = _potential(z, centers, freqs, constants)
    grad = _gradient(z, centers, freqs, constants)
    tolerance = min(GRADIENT_TOLERANCE,
                    max(RELATIVE_GRADIENT_TOLERANCE * float(np.max(np.abs(grad))),
                        1e-30))
    iteration = 0
    for iteration in range(1, MAX_NEWTON_ITERATIONS + 1):
        residual = float(np.max(np.abs(grad)))
        if residual < tolerance:
            return z, residual, iteration - 1
        step = np.linalg.solve(_hessian(z, centers, freqs, constants), grad)
        slack = 8.0 * np.finfo(float).eps * abs(energy)
        scale = 1.0
        for _ in range(60):
            trial = z - scale * step
            if np.all(np.diff(trial) > 0.0):
                trial_energy = _potential(trial, centers, freqs, constants)
                if trial_energy <= energy + slack:
                    break
            scale *= 0.5
        else:
            break
        z, energy = trial, trial_energy
        grad = _gradient(z, centers, freqs, constants)
    residual = float(np.max(np.abs(grad)))
    if residual < tolerance:
        return z, residual, iteration
    raise OracleConvergenceError("equilibrium solver did not converge", residual, iteration)


def oracle_positions(layout):
    """Rest positions by `newton_equilibrium_oracle`, from the guess the old
    solver used: the trap centers, or +-one Coulomb length in a linear trap."""
    c = layout.constants
    if layout.mode == "multi":
        guess = layout.centers.copy()
    else:
        ell = (c.coulomb / (c.mass * layout.frequencies[0] ** 2)) ** (1.0 / 3.0)
        guess = np.array([-ell, 0.0, ell])
    return newton_equilibrium_oracle(guess, layout.centers, layout.frequencies, c)[0]


def exact_outer_displacement(layout, bits=80):
    """Positive root of delta (d + delta)^2 = 5 k / (4 m W1^2) in exact
    rational arithmetic on the float inputs, bisected to 2^-bits of delta."""
    c = layout.constants
    d = Fraction(layout.d) if layout.mode == "multi" else Fraction(0)
    lhs = 4 * Fraction(c.mass) * Fraction(float(layout.frequencies[0])) ** 2
    rhs = 5 * Fraction(c.coulomb)
    lo, hi = Fraction(0), Fraction(1)
    while hi * (d + hi) ** 2 * lhs < rhs:
        hi *= 2
    while (hi - lo) > hi / 2**bits:
        mid = (lo + hi) / 2
        if mid * (d + mid) ** 2 * lhs < rhs:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def stiffness_corner_layouts():
    """Layouts just inside every corner of `trap.STIFFNESS_RANGE`: the softest
    and stiffest m W^2 for W1 and W2, and the same for k / d^3 (two linear
    traps and eight micro-trap arrays)."""
    c = g.DEFAULT_CONSTANTS
    lo, hi = g.trap.STIFFNESS_RANGE
    ws = (np.sqrt(lo / c.mass) * (1 + 1e-9), np.sqrt(hi / c.mass) * (1 - 1e-9))
    ds = ((c.coulomb / hi) ** (1 / 3) * (1 + 1e-9),
          (c.coulomb / lo) ** (1 / 3) * (1 - 1e-9))
    layouts = [g.TrapLayout.linear(w) for w in ws]
    return layouts + [g.TrapLayout.multi_trap(d, w1, w2) for d in ds for w1 in ws for w2 in ws]


def layouts():
    """Hypothesis strategy: micro-trap layouts over the search's default
    ranges (d 1-7 um, W1 2pi 0.3-4 MHz, W2 2pi 0.05-3 MHz) and linear traps
    (W 2pi 0.05-4 MHz)."""
    mhz = g.TWO_PI * 1e6
    multi = st.builds(lambda d, w1, w2: g.TrapLayout.multi_trap(d * 1e-6, w1 * mhz, w2 * mhz),
                      st.floats(1.0, 7.0), st.floats(0.3, 4.0), st.floats(0.05, 3.0))
    linear = st.builds(lambda w: g.TrapLayout.linear(w * mhz), st.floats(0.05, 4.0))
    return st.one_of(multi, linear)


def exact_inverse_hessian(layout, h):
    """[K^-1]_12 and [K^-1]_13 of the symmetric chain with ion spacing ``h``,
    in exact rational arithmetic on the float inputs: K is the Hessian of
    `trap._hessian`, inverted by Gauss-Jordan elimination on Fractions."""
    c = layout.constants
    k, m = Fraction(c.coulomb), Fraction(c.mass)
    h = Fraction(float(h))
    w = [Fraction(float(x)) for x in layout.frequencies]
    z = [-h, Fraction(0), h]
    K = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        K[i][i] = m * w[i] ** 2
        for j in range(3):
            if j != i:
                curv = 2 * k / abs(z[i] - z[j]) ** 3
                K[i][i] += curv
                K[i][j] -= curv
    aug = [row + [Fraction(int(i == j)) for j in range(3)] for i, row in enumerate(K)]
    for col in range(3):
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for row in range(3):
            if row != col:
                factor = aug[row][col]
                aug[row] = [x - factor * y for x, y in zip(aug[row], aug[col])]
    return aug[0][4], aug[0][5]


def normal_modes_eigh_oracle(layout, eq):
    """`trap.normal_modes` as a batched ``eigh`` of the Hessian, the form the
    closed-form modes replaced, kept as their reference. Returns (nu, D)."""
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
    return nu, vecs


def ising_matrix_oracle(D, nu, dwdz, constants) -> np.ndarray:
    """J_ij = (hbar/2) (dw/dz)^2 sum_l D_il D_jl / (m nu_l^2), the mode sum
    the closed-form [K^-1] entries replaced, kept as their reference.

    Raises ValueError wherever J12 != J23 (beyond 1e-8 relative).
    ``float_power`` is libm's pow, the same as a Python float's ``**``.
    """
    inv_mnu2 = 1.0 / (constants.mass * nu**2)
    scale = constants.hbar * 0.5 * np.float_power(dwdz, 2)
    jmat = (np.expand_dims(scale, (-2, -1)) * (D * inv_mnu2[..., np.newaxis, :])
            @ np.swapaxes(D, -2, -1))
    j12, j23 = jmat[..., 0, 1], jmat[..., 1, 2]
    tolerance = 1e-8 * np.maximum(np.maximum(np.abs(j12), np.abs(j23)), 1e-300)
    if np.any(np.abs(j12 - j23) > tolerance):
        raise ValueError(
            "nearest-neighbor couplings differ; layout must keep W1 == W3")
    return jmat


def exact_force_residual(layout, positions):
    """Largest net force on an ion at ``positions``, in exact rational
    arithmetic on the float inputs, relative to k / h^2 (h the ion spacing)."""
    c = layout.constants
    k, m = Fraction(c.coulomb), Fraction(c.mass)
    z = [Fraction(float(x)) for x in positions]
    forces = []
    for i in range(3):
        force = -m * Fraction(float(layout.frequencies[i])) ** 2 \
            * (z[i] - Fraction(float(layout.centers[i])))
        for j in range(3):
            if j != i:
                r = z[i] - z[j]
                force += k / r**2 if r > 0 else -k / r**2
        forces.append(abs(force))
    return float(max(forces) * (z[1] - z[0]) ** 2 / k)


# Grid helpers of the search, copied so the oracle does not follow the code
# it judges.

def _grid(grid: tuple[float, float, int]) -> np.ndarray:
    lo, hi, count = grid
    return np.linspace(lo, hi, count) if count > 1 else np.array([lo])


def _refined(grid: tuple[float, float, int], best: float) -> tuple[float, float, int]:
    lo, hi, count = grid
    step = (hi - lo) / max(count - 1, 1)
    return (max(lo, best - step), min(hi, best + step), count)


def _better(j, eps, grad, best) -> bool:
    if best is None:
        return True
    bj, beps, bgrad = best
    if j != bj:
        return j > bj
    if eps != beps:
        return eps < beps
    return grad < bgrad


def _sweep_gradient_oracle(base, grid, space, constants, best, trace):
    """Evaluate every gradient of ``grid`` on the solved chain of ``base``.

    ``best`` is None or ((J, eps_max, gradient), evaluation); the updated
    best is returned. An infeasible base yields one rejection entry per grid
    point. ``trace`` entries are (params, J, eps_max, feasible).
    """
    if not base.feasible:
        if trace is not None:
            trace.extend([(base.params, np.nan, np.nan, False)] * grid[2])
        return best
    for grad in _grid(grid):
        grad = float(grad)
        field = g.FieldConfig(gradient=grad)
        couplings = g.compute_couplings(base.modes, field, base.equilibrium, constants)
        feasible = couplings.eps_max < space.eps_ceiling
        better = feasible and _better(couplings.J, couplings.eps_max, grad,
                                      best and best[0])
        if trace is None and not better:
            continue
        # params only for kept entries: a table1 sweep makes 15,360 evaluations
        params = replace(base.params, gradient=grad)
        if trace is not None:
            trace.append((params, couplings.J, couplings.eps_max, feasible))
        if better:
            best = ((couplings.J, couplings.eps_max, grad),
                    g.CandidateEvaluation(params, True, equilibrium=base.equilibrium,
                                          modes=base.modes, couplings=couplings))
    return best


def _oracle_result(best_eval, evaluations, trace):
    if best_eval is None:
        return g.SearchResult(None, 0.0, 0.0, np.inf, np.nan, np.nan,
                              evaluations, False, trace)
    c, eq = best_eval.couplings, best_eval.equilibrium
    return g.SearchResult(best_eval.params, c.J, c.J13, c.eps_max, eq.delta, eq.h,
                          evaluations, True, trace)


def sweep_search_oracle(mode, spacing, space=None, constants=g.DEFAULT_CONSTANTS,
                        collect_trace=False):
    """The per-point searches the stage-array search replaced, kept as its
    reference: ``mode`` "multi" is `maximize_J_multitrap(spacing)`, "linear"
    is `maximize_J_linear(spacing)`. Each grid point runs `compute_couplings`
    on a chain solved once per trap-frequency pair."""
    space = space or g.SearchSpace()
    evaluations = 0
    trace = [] if collect_trace else None
    best = None  # ((J, eps, gradient), evaluation)
    if mode == "multi":
        d = spacing
        stage_space = space
        for _stage in range(2):
            for w1 in _grid(stage_space.w1):
                for w2 in _grid(stage_space.w2):
                    base = g.evaluate_candidate(
                        CandidateParams(d, float(w1), float(w2),
                                        float(stage_space.gradient[0])),
                        constants)
                    best = _sweep_gradient_oracle(base, stage_space.gradient, space,
                                                  constants, best, trace)
                    evaluations += stage_space.gradient[2]
            if best is None:
                break
            p = best[1].params
            stage_space = replace(space,
                                  w1=_refined(space.w1, p.w1),
                                  w2=_refined(space.w2, p.w2),
                                  gradient=_refined(space.gradient, p.gradient))
        return _oracle_result(best[1] if best else None, evaluations,
                              tuple(trace or ()))
    w = g.linear_frequency_for_spacing(spacing, constants)
    base = g.evaluate_candidate(CandidateParams(0.0, w, w, float(space.gradient[0])),
                                constants)
    grid = space.gradient
    for _stage in range(2):
        best = _sweep_gradient_oracle(base, grid, space, constants, best, trace)
        evaluations += grid[2]
        if best is None:
            break
        grid = _refined(space.gradient, best[1].params.gradient)
    return _oracle_result(best[1] if best else None, evaluations, tuple(trace or ()))
