"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its runtime (visible under ``pytest -s``);
a failed assertion marks the criterion red. Tolerances are pinned here and
nowhere else.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

import gradion as g
from gradion.operators import max_unitarity_defect

from util import (cnot_permutation, drive_hamiltonian_oracle, haar_qubit,
                  phase_aligned_deviation, random_couplings, spin_hamiltonian_oracle)


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(number, elapsed, detail):
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f} s) {detail}")


def test_criterion_1_table1_d4_row():
    with Stopwatch() as sw:
        chain = g.solve_chain(*g.preset_layout_field("table1-d4"))
    eq, c = chain.equilibrium, chain.couplings
    assert eq.delta * 1e6 == pytest.approx(0.628, rel=0.01)
    assert eq.h * 1e6 == pytest.approx(4.628, rel=0.01)
    assert c.eps_max == pytest.approx(0.0340, rel=0.03)
    assert c.J / (g.TWO_PI * 1e3) == pytest.approx(0.459, rel=0.03)
    assert c.J13 / (g.TWO_PI * 1e3) == pytest.approx(0.135, rel=0.04)
    assert sw.elapsed < 1.0
    report(1, sw.elapsed,
           f"table1-d4: delta={eq.delta*1e6:.4f} um, h={eq.h*1e6:.4f} um, "
           f"eps_max={c.eps_max:.4f}, J={c.J/(g.TWO_PI*1e3):.4f}, "
           f"J13={c.J13/(g.TWO_PI*1e3):.4f} x2pi kHz")


def test_criterion_2_table3_rows():
    listed = {2: (1.77, 750.0, 1.12, 0.794), 3: (0.966, 300.0, 0.605, 0.429),
              4: (0.628, 150.0, 0.359, 0.254), 5: (0.449, 100.0, 0.311, 0.220),
              6: (0.342, 50.0, 0.134, 0.0952)}
    details = []
    for h_um, (w_ref, gradient, j_ref, j13_ref) in listed.items():
        with Stopwatch() as sw:
            w = g.linear_frequency_for_spacing(h_um * 1e-6)
            c = g.solve_chain(g.TrapLayout.linear(w), g.FieldConfig(gradient)).couplings
        assert w / (g.TWO_PI * 1e6) == pytest.approx(w_ref, rel=0.02)
        assert c.J / (g.TWO_PI * 1e3) == pytest.approx(j_ref, rel=0.03)
        assert c.J13 / (g.TWO_PI * 1e3) == pytest.approx(j13_ref, rel=0.03)
        assert sw.elapsed < 1.0
        details.append(f"h={h_um}: W={w/(g.TWO_PI*1e6):.4f}, "
                       f"J={c.J/(g.TWO_PI*1e3):.4f}")
    report(2, sw.elapsed, "; ".join(details))


def test_criterion_3_normal_modes():
    with Stopwatch() as sw:
        modes = g.solve_chain(*g.preset_layout_field("table1-d4")).modes
    got = modes.nu / (g.TWO_PI * 1e6)
    assert got == pytest.approx([1.32, 1.54, 1.70], rel=0.02)
    report(3, sw.elapsed, f"nu = {np.round(got, 4)} x2pi MHz")


def test_criterion_4_neighbor_shift():
    with Stopwatch() as sw:
        shift = g.neighbor_resonance_shift(g.FieldConfig(500.0), 4.628e-6)
    assert shift / (g.TWO_PI * 1e6) == pytest.approx(64.8, rel=0.01)
    report(4, sw.elapsed, f"shift = {shift/(g.TWO_PI*1e6):.2f} x2pi MHz")


def test_criterion_5_heating_estimate():
    with Stopwatch() as sw:
        t = g.heating_time_scaled(4e-3, 100e-6, 4e-6)
    assert t == pytest.approx(4e-3 * (4 / 100) ** 4, rel=1e-12)
    assert t == pytest.approx(10.24e-9, rel=0.10)
    report(5, sw.elapsed, f"heating time = {t*1e9:.2f} ns")


def test_criterion_6_cnot_duration():
    with Stopwatch() as sw:
        c = g.solve_chain(*g.preset_layout_field("table1-d4")).couplings
        sched = g.build_cnot(2, 3, g.PulseContext(c))
        t_zz = sum(i.duration for i in sched.items
                   if isinstance(i, g.FreeEvolution))
    assert t_zz == pytest.approx(7 * np.pi / (2 * c.J), rel=1e-12)
    assert t_zz * 1e3 == pytest.approx(3.82, rel=0.02)
    assert sched.total_duration * 1e3 == pytest.approx(3.84, rel=0.02)
    report(6, sw.elapsed,
           f"zz segment {t_zz*1e3:.3f} ms, full schedule "
           f"{sched.total_duration*1e3:.3f} ms")


def test_criterion_7_property_suite():
    rng = np.random.default_rng(1234)
    zz_target = np.diag(np.exp(-1j * np.pi / 4 *
                               np.array([1, -1, -1, 1, 1, -1, -1, 1.0])))
    with Stopwatch() as sw:
        # refocusing identity in the lab frame, 100 random coupling sets
        worst_refocus = 0.0
        for _ in range(100):
            c = random_couplings(rng)
            U = g.schedule_unitary(g.refocused_zz(g.PulseContext(c, g.LAB)), c)
            worst_refocus = max(worst_refocus,
                                phase_aligned_deviation(U, zz_target))
        assert worst_refocus < 1e-9

        # CNOT equals the canonical gate, both orientations
        worst_cnot = 0.0
        unitarity = 0.0
        for pair in ((2, 3), (1, 2)):
            for _ in range(10):
                c = random_couplings(rng)
                U = g.schedule_unitary(
                    g.build_cnot(*pair, g.PulseContext(c, g.LAB)), c)
                worst_cnot = max(worst_cnot,
                                 phase_aligned_deviation(U, cnot_permutation(*pair)))
                unitarity = max(unitarity, max_unitarity_defect(U))
        assert worst_cnot < 1e-9
        assert unitarity < 1e-10

        # ideal teleportation: 1000 Haar inputs x 4 forced outcomes
        worst_fidelity = 1.0
        for _ in range(1000):
            a, b = haar_qubit(rng)
            for outcome in ((0, 0), (0, 1), (1, 0), (1, 1)):
                rec = g.run_teleport(g.ProtocolConfig(a, b, seed=0),
                                     force_outcome=outcome)
                worst_fidelity = min(worst_fidelity, rec.fidelity)
        assert worst_fidelity > 1 - 1e-9

        # analytic branch probabilities
        worst_prob = 0.0
        for _ in range(200):
            a, b = haar_qubit(rng)
            amps = g.prepare_initial(a, b).amplitudes
            for gate in g.IDEAL_STAGES.values():
                amps = gate @ amps
            probs = np.sum(np.abs(amps.reshape(4, 2)) ** 2, axis=1)
            worst_prob = max(worst_prob, float(np.max(np.abs(probs - 0.25))))
        assert worst_prob < 1e-12

        # analytic Hessian vs finite differences
        chain = g.solve_chain(*g.preset_layout_field("table1-d4"))
        layout, eq = chain.layout, chain.equilibrium
        analytic = g.potential_hessian(layout, eq.positions)
        step = 3e-9
        fd = np.zeros((3, 3))
        for a_ in range(3):
            for b_ in range(3):
                vals = []
                for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    z = eq.positions.copy()
                    z[a_] += sa * step
                    z[b_] += sb * step
                    vals.append(g.total_potential(layout, z))
                fd[a_, b_] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * step**2)
        hess_dev = np.max(np.abs(fd - analytic)) / np.max(np.abs(analytic))
        assert hess_dev < 1e-6
    assert sw.elapsed < 60.0
    report(7, sw.elapsed,
           f"refocus {worst_refocus:.1e}, cnot {worst_cnot:.1e}, "
           f"min fidelity {worst_fidelity:.12f}, probs {worst_prob:.1e}, "
           f"unitarity {unitarity:.1e}, hessian {hess_dev:.1e}")


def test_criterion_8_search_reproduction():
    with Stopwatch() as sw:
        multi = g.maximize_J_multitrap(4e-6)
    assert sw.elapsed < 1.0
    assert multi.feasible
    assert multi.J >= g.TWO_PI * 459.0 * 0.97
    assert multi.eps_max < 0.05
    elapsed_multi = sw.elapsed

    with Stopwatch() as sw:
        linear = g.maximize_J_linear(4e-6)
    assert sw.elapsed < 1.0
    assert linear.feasible
    assert linear.J >= g.TWO_PI * 359.0 * 0.97
    assert linear.eps_max < 0.05
    report(8, elapsed_multi + sw.elapsed,
           f"table1 --d 4: J={multi.J/(g.TWO_PI*1e3):.3f} x2pi kHz "
           f"(eps {multi.eps_max:.4f}, {elapsed_multi:.3f} s); "
           f"table3 --h 4: J={linear.J/(g.TWO_PI*1e3):.3f} x2pi kHz "
           f"(eps {linear.eps_max:.4f}, {sw.elapsed:.3f} s)")


def test_criterion_9_integrator_consistency():
    c = g.solve_chain(*g.preset_layout_field("table1-d4")).couplings
    rabi = g.TWO_PI * 1e6
    slot = g.PulseSlot((g.Pulse(2, np.pi, 0.4, rabi, np.pi / rabi),), 2.5e-6)
    sched = g.PulseSchedule((slot,), g.INTERACTION)
    state = g.SpinState.product([1, 1j], [1, -1], [0.6, 0.8])
    with Stopwatch() as sw:
        res = g.integrate_exact(state, sched, replace(c, J=0.0, J13=0.0))
        ideal = g.single_qubit_rotation(2, np.pi, 0.4) @ state.amplitudes
        pulse_err = float(np.linalg.norm(res.state.amplitudes - ideal))
        assert pulse_err < 1e-8

        items = sched.items + (g.FreeEvolution(2e-4),)
        longer = g.PulseSchedule(items, g.INTERACTION)
        out = g.integrate_exact(state, longer, c).state.amplitudes
        h_spin = spin_hamiltonian_oracle(np.zeros(3), c.J, c.J13)
        h_pulse = drive_hamiltonian_oracle(2, 0.4, rabi) + h_spin
        want = (expm(-1j * h_spin * 2e-4) @ expm(-1j * h_pulse * np.pi / rabi)
                @ state.amplitudes)
        oracle_err = float(np.linalg.norm(out - want))
        assert oracle_err <= 1e-12
    assert sw.elapsed < 1.0
    report(9, sw.elapsed,
           f"pulse-limit error {pulse_err:.2e}, expm oracle error {oracle_err:.2e}")
