"""Numeric invariant suite behind ``gradion verify``.

Each check returns (name, passed, detail). The suite reproduces the bundled
reference rows and exercises the exact algebraic identities the gate and
protocol layers rely on. It is a quick self-check; the full test suite
lives in tests/.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .constants import TWO_PI
from .couplings import (CouplingSet, FieldConfig, heating_time_scaled,
                        neighbor_resonance_shift, solve_chain)
from .integrate import integrate_exact
from .operators import cnot_matrix, deviation_up_to_phase, max_unitarity_defect
from .presets import PRESETS, REFERENCE, preset_layout_field
from .pulses import (FreeEvolution, INTERACTION, LAB, PulseContext, PulseSchedule,
                     SpinState, build_cnot, refocused_zz, schedule_unitary,
                     single_qubit_rotation)
from .teleport import IDEAL_STAGES, ProtocolConfig, prepare_initial, run_teleport
from .trap import (TrapLayout, linear_frequency_for_spacing, potential_hessian,
                   total_potential)


def _d4_chain():
    return solve_chain(*preset_layout_field("table1-d4"))


def _random_couplings(rng) -> CouplingSet:
    J = rng.uniform(1e2, 1e4)
    return CouplingSet(
        w=rng.uniform(1e5, 1e7, 3), dwdz=0.0, J=J, J13=rng.uniform(0.0, J),
        eps=np.zeros((3, 3)), eps_max=0.0, eta=FieldConfig.eta,
        eta_prime=np.zeros((3, 3)))


def check_table1_d4():
    chain = _d4_chain()
    eq, c = chain.equilibrium, chain.couplings
    ref = REFERENCE["table1-d4"]
    checks = [
        ("delta", eq.delta * 1e6, ref["delta_um"], 0.01),
        ("h", eq.h * 1e6, ref["h_um"], 0.01),
        ("eps_max", c.eps_max, ref["eps_max"], 0.03),
        ("J", c.J / (TWO_PI * 1e3), ref["j_2pi_khz"], 0.03),
        ("J13", c.J13 / (TWO_PI * 1e3), ref["j13_2pi_khz"], 0.04),
    ]
    worst = max(abs(got / want - 1.0) / tol for _, got, want, tol in checks)
    detail = ", ".join(f"{n}={got:.4g} (ref {want})" for n, got, want, _ in checks)
    return "table1-d4 row reproduction", worst < 1.0, detail


def check_table3_rows():
    worst = 0.0
    for name in (f"table3-h{h_um}" for h_um in range(2, 7)):
        row, ref = PRESETS[name], REFERENCE[name]
        w = linear_frequency_for_spacing(row["h_um"] * 1e-6)
        worst = max(worst, abs(w / (TWO_PI * 1e6 * row["w_2pi_mhz"]) - 1.0) / 0.02)
        c = solve_chain(TrapLayout.linear(w),
                        FieldConfig(row["gradient_t_per_m"])).couplings
        worst = max(worst, abs(c.J / (TWO_PI * 1e3) / ref["j_2pi_khz"] - 1.0) / 0.03)
        worst = max(worst, abs(c.J13 / (TWO_PI * 1e3) / ref["j13_2pi_khz"] - 1.0) / 0.03)
    return "table3 rows (W from h; J, J13)", worst < 1.0, f"worst margin use {worst:.2f}"


def check_modes_d4():
    got = _d4_chain().modes.nu / (TWO_PI * 1e6)
    want = np.array([1.32, 1.54, 1.70])
    ok = np.all(np.abs(got / want - 1.0) < 0.02)
    return "normal modes at table1-d4", bool(ok), f"nu={np.round(got, 4)} x2pi MHz"


def check_neighbor_shift():
    shift = neighbor_resonance_shift(FieldConfig(500.0), 4.628e-6)
    got = shift / (TWO_PI * 1e6)
    return "neighbor resonance shift", abs(got / 64.8 - 1.0) < 0.01, f"{got:.2f} x2pi MHz"


def check_heating():
    t = heating_time_scaled(4e-3, 100e-6, 4e-6)
    exact = 4e-3 * (4.0 / 100.0) ** 4
    ok = abs(t - exact) <= 1e-12 * exact and 9e-9 < t < 11.5e-9
    return "heating-time scaling", ok, f"{t*1e9:.2f} ns"


def check_cnot_duration():
    sched = build_cnot(2, 3, PulseContext(_d4_chain().couplings))
    t_zz = sum(i.duration for i in sched.items if isinstance(i, FreeEvolution))
    ok = abs(sched.total_duration / 3.84e-3 - 1.0) < 0.02 and \
        abs(t_zz / 3.82e-3 - 1.0) < 0.02
    return "cnot schedule duration", ok, (
        f"total {sched.total_duration*1e3:.3f} ms, zz {t_zz*1e3:.3f} ms")


def check_refocusing_lab():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        c = _random_couplings(rng)
        target = np.diag(np.exp(-1j * np.pi / 4 *
                                np.array([1, -1, -1, 1, 1, -1, -1, 1.0])))
        U = schedule_unitary(refocused_zz(PulseContext(c, LAB)), c)
        worst = max(worst, deviation_up_to_phase(U, target))
    return "lab-frame refocusing identity", worst < 1e-9, f"max deviation {worst:.2e}"


def check_cnot_identity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for pair in ((2, 3), (1, 2)):
        for _ in range(5):
            c = _random_couplings(rng)
            U = schedule_unitary(build_cnot(*pair, PulseContext(c, LAB)), c)
            worst = max(worst, deviation_up_to_phase(U, cnot_matrix(*pair)))
    return "cnot equals the canonical gate", worst < 1e-9, f"max deviation {worst:.2e}"


def check_ideal_teleport():
    rng = np.random.default_rng(13)
    worst = 1.0
    for _ in range(100):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        for outcome in ((0, 0), (0, 1), (1, 0), (1, 1)):
            rec = run_teleport(ProtocolConfig(v[0], v[1], seed=0),
                               force_outcome=outcome)
            worst = min(worst, rec.fidelity)
    return "ideal teleportation fidelity", worst > 1.0 - 1e-9, f"min fidelity {worst:.12f}"


def check_branch_probabilities():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(50):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        amps = prepare_initial(v[0], v[1]).amplitudes
        for gate in IDEAL_STAGES.values():
            amps = gate @ amps
        probs = np.sum(np.abs(amps.reshape(4, 2)) ** 2, axis=1)
        worst = max(worst, float(np.max(np.abs(probs - 0.25))))
    return "outcome probabilities are 1/4", worst < 1e-12, f"max |p-1/4| {worst:.2e}"


def check_unitarity():
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(10):
        c = _random_couplings(rng)
        for U in (schedule_unitary(build_cnot(2, 3, PulseContext(c)), c),
                  single_qubit_rotation(1, rng.uniform(0, 4 * np.pi),
                                        rng.uniform(0, TWO_PI))):
            worst = max(worst, max_unitarity_defect(U))
    return "unitarity of emitted operators", worst < 1e-10, f"max defect {worst:.2e}"


def check_hessian():
    chain = _d4_chain()
    layout, eq = chain.layout, chain.equilibrium
    analytic = potential_hessian(layout, eq.positions)
    step = 3e-9
    fd = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            zs = [eq.positions.copy() for _ in range(4)]
            zs[0][a] += step; zs[0][b] += step
            zs[1][a] += step; zs[1][b] -= step
            zs[2][a] -= step; zs[2][b] += step
            zs[3][a] -= step; zs[3][b] -= step
            vals = [total_potential(layout, z) for z in zs]
            fd[a, b] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * step**2)
    rel = np.max(np.abs(fd - analytic)) / np.max(np.abs(analytic))
    return "analytic hessian vs finite differences", rel < 1e-6, f"rel dev {rel:.2e}"


def check_closed_form_modes():
    chain = _d4_chain()
    layout, modes = chain.layout, chain.modes
    hessian = potential_hessian(layout, chain.equilibrium.positions)
    rebuilt = modes.D @ np.diag(layout.constants.mass * modes.nu**2) @ modes.D.T
    rel = np.max(np.abs(rebuilt - hessian)) / np.max(np.abs(hessian))
    return "closed-form modes rebuild the hessian", rel < 1e-12, f"rel dev {rel:.2e}"


def check_integrator():
    c = _d4_chain().couplings
    sched = PulseSchedule(build_cnot(2, 3, PulseContext(c)).items[:1], INTERACTION)
    state = SpinState.product([1, 1], [1, -1], [1, 1j])
    res = integrate_exact(state, sched, replace(c, J=0.0, J13=0.0))
    ideal = single_qubit_rotation(3, np.pi / 2, np.pi / 2) @ state.amplitudes
    err = np.linalg.norm(res.state.amplitudes - ideal)
    return "integrator matches ideal pulses", err < 1e-8, f"state error {err:.2e}"


def run_all():
    checks = [
        check_table1_d4, check_table3_rows, check_modes_d4, check_neighbor_shift,
        check_heating, check_cnot_duration, check_refocusing_lab,
        check_cnot_identity, check_ideal_teleport, check_branch_probabilities,
        check_unitarity, check_hessian, check_closed_form_modes, check_integrator,
    ]
    return [fn() for fn in checks]
