from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import gradion as g
from gradion.integrate import (integrate_segment_unitary, segment_hamiltonians,
                               stage_propagators)
from gradion.operators import max_unitarity_defect
from gradion.teleport import CORRECTIONS, correction_schedule, protocol_schedules

from util import (drive_hamiltonian_oracle, integrate_segment_unitary_oracle,
                  random_couplings, segment_hamiltonians_oracle, spin_hamiltonian_oracle)


def plus_state():
    return g.SpinState.product([1, 1], [1, -1j], [0.6, 0.8])


def one_pulse_schedule(ion=2, theta=np.pi, phi=0.3, rabi=g.TWO_PI * 1e6):
    slot = g.PulseSlot((g.Pulse(ion, theta, phi, rabi, theta / rabi),), 2.5e-6)
    return g.PulseSchedule((slot,), g.INTERACTION)


class TestPulseLimit:
    def test_matches_ideal_rotation_without_ising(self, rng):
        couplings = random_couplings(rng)
        state = plus_state()
        sched = one_pulse_schedule()
        res = g.integrate_exact(state, sched, replace(couplings, J=0.0, J13=0.0))
        ideal = g.single_qubit_rotation(2, np.pi, 0.3) @ state.amplitudes
        assert np.linalg.norm(res.state.amplitudes - ideal) < 1e-8
        assert res.fidelity_to_ideal == pytest.approx(1.0, abs=1e-10)

    def test_simultaneous_pulses(self, rng):
        couplings = random_couplings(rng)
        rabi = g.TWO_PI * 1e6
        slot = g.PulseSlot((g.Pulse(2, np.pi, 0.0, rabi, np.pi / rabi),
                            g.Pulse(3, np.pi, 0.0, rabi, np.pi / rabi)), 2.5e-6)
        sched = g.PulseSchedule((slot,), g.INTERACTION)
        state = plus_state()
        res = g.integrate_exact(state, sched, replace(couplings, J=0.0, J13=0.0))
        ideal = (g.single_qubit_rotation(3, np.pi, 0.0)
                 @ g.single_qubit_rotation(2, np.pi, 0.0) @ state.amplitudes)
        assert np.linalg.norm(res.state.amplitudes - ideal) < 1e-8


class TestExpmOracle:
    @pytest.mark.parametrize("preset", sorted(g.PRESETS))
    def test_protocol_segments_match_expm(self, preset):
        # every segment the integrated teleport mode propagates: the three
        # coherent stages and all four correction schedules, each distinct
        # (H, t) once, since scipy's expm dominates the run time
        couplings = g.solve_chain(*g.preset_layout_field(preset)).couplings
        ctx = g.PulseContext(couplings)
        schedules = list(protocol_schedules(ctx).values())
        schedules += [correction_schedule(bits, ctx) for bits in CORRECTIONS]
        segments = {(H.tobytes(), t): (H, t) for sched in schedules
                    for H, t in segment_hamiltonians(sched, couplings)}
        worst = max(float(np.max(np.abs(integrate_segment_unitary(H, t)
                                        - expm(-1j * H * t))))
                    for H, t in segments.values())
        assert worst <= 1e-12

    def test_pulse_and_free_schedule_matches_oracle(self, d4_chain):
        # independent Hamiltonians: the drive and spin terms from tests/util.py
        couplings = d4_chain.couplings
        rabi = g.TWO_PI * 1e6
        items = one_pulse_schedule(rabi=rabi).items + (g.FreeEvolution(2e-4),)
        sched = g.PulseSchedule(items, g.INTERACTION)
        state = plus_state()
        res = g.integrate_exact(state, sched, couplings)
        h_spin = spin_hamiltonian_oracle(np.zeros(3), couplings.J, couplings.J13)
        h_pulse = drive_hamiltonian_oracle(2, 0.3, rabi) + h_spin
        want = (expm(-1j * h_spin * 2e-4) @ expm(-1j * h_pulse * np.pi / rabi)
                @ state.amplitudes)
        assert np.linalg.norm(res.state.amplitudes - want) <= 1e-12
        assert res.norm_drift <= 1e-13

    def test_long_segments_stay_exact(self, d4_chain):
        # a 101 pi pulse and a 0.1 s free interval: long segments need no
        # step control and keep the propagator unitary
        couplings = d4_chain.couplings
        rabi = g.TWO_PI * 1e6
        items = (one_pulse_schedule(theta=101 * np.pi, rabi=rabi).items
                 + (g.FreeEvolution(0.1),))
        sched = g.PulseSchedule(items, g.INTERACTION)
        for H, t in segment_hamiltonians(sched, couplings):
            U = integrate_segment_unitary(H, t)
            assert max_unitarity_defect(U) <= 1e-12
            assert np.max(np.abs(U - expm(-1j * H * t))) <= 1e-12
        res = g.integrate_exact(plus_state(), sched, couplings)
        assert res.norm_drift <= 1e-12


def oracle_propagators(schedule, couplings):
    return [integrate_segment_unitary_oracle(H, t)
            for H, t in segment_hamiltonians_oracle(schedule, couplings)]


class TestStagePropagators:
    """Diagonal, 2x2-block and stacked-`eigh` propagators against one `eigh`
    per segment."""

    @pytest.mark.parametrize("preset", sorted(g.PRESETS))
    def test_protocol_and_corrections_match_eigh_oracle(self, preset):
        couplings = g.solve_chain(*g.preset_layout_field(preset)).couplings
        worst = 0.0
        for rabi in (g.TWO_PI * 0.5e6, g.TWO_PI * 1e6, g.TWO_PI * 2e6):
            ctx = g.PulseContext(couplings, rabi=rabi)
            schedules = list(protocol_schedules(ctx).values())
            schedules += [correction_schedule(bits, ctx) for bits in CORRECTIONS]
            for sched in schedules:
                U, walls = stage_propagators(sched, couplings)
                assert walls.tolist() == [item.duration for item in sched.items]
                oracle = oracle_propagators(sched, couplings)
                assert U.shape == (len(oracle), 8, 8)
                worst = max([worst, *(float(np.max(np.abs(u - v)))
                                      for u, v in zip(U, oracle))])
        assert worst <= 1e-13

    # Omega t stays below 50 rad: the eigh oracle's own error grows with the
    # rotated angle (8e-14 at 200 rad), the closed form's does not
    @settings(max_examples=200, deadline=None)
    @given(J=st.floats(-2e4, 2e4), J13=st.floats(-2e4, 2e4),
           rabi=st.one_of(st.just(0.0), st.floats(0.0, g.TWO_PI * 2e6)),
           phi=st.floats(-2 * np.pi, 2 * np.pi), duration=st.floats(0.0, 4e-6),
           ion=st.sampled_from((1, 2, 3)))
    def test_single_pulse_closed_form(self, d4_chain, J, J13, rabi, phi, duration, ion):
        couplings = replace(d4_chain.couplings, J=J, J13=J13)
        pulse = g.Pulse(ion, rabi * duration, phi, rabi, duration)
        sched = g.PulseSchedule((g.PulseSlot((pulse,), 2.5e-6),), g.INTERACTION)
        U, walls = stage_propagators(sched, couplings)
        assert walls.tolist() == [2.5e-6]
        assert np.max(np.abs(U[0] - oracle_propagators(sched, couplings)[0])) <= 1e-13
        assert max_unitarity_defect(U[0]) <= 1e-14

    def test_undriven_pulse_is_free_evolution(self, d4_chain):
        # Omega = 0 leaves w = 0 on the ion-2 pairs whose neighbors are
        # antiparallel, where sin(w t)/w takes its limit t
        couplings = d4_chain.couplings
        pulse = g.Pulse(2, 0.0, 0.3, 0.0, 1e-6)
        sched = g.PulseSchedule((g.PulseSlot((pulse,), 2.5e-6),), g.INTERACTION)
        U, _ = stage_propagators(sched, couplings)
        assert np.max(np.abs(U[0] - g.free_evolution(couplings, 1e-6))) <= 1e-15
        flat = replace(couplings, J=0.0, J13=0.0)
        assert np.array_equal(stage_propagators(sched, flat)[0][0], np.eye(8))

    def test_segment_kinds_in_order(self, d4_chain):
        couplings = d4_chain.couplings
        ctx = g.PulseContext(couplings)
        sched = g.refocused_zz(ctx) + ctx.schedule(ctx.slot("pair", (1, np.pi, 0.2),
                                                            (3, np.pi, 1.1)))
        U, walls = stage_propagators(sched, couplings)
        oracle = oracle_propagators(sched, couplings)
        assert len(U) == len(walls) == len(oracle) == 9
        assert max(float(np.max(np.abs(u - v))) for u, v in zip(U, oracle)) <= 1e-13
        assert stage_propagators(g.PulseSchedule(()), couplings)[0].shape == (0, 8, 8)

    def test_exact_model_is_interaction_frame_only(self, d4_chain):
        sched = g.refocused_zz(g.PulseContext(d4_chain.couplings, g.LAB))
        with pytest.raises(ValueError, match="interaction frame only"):
            stage_propagators(sched, d4_chain.couplings)
        assert stage_propagators(sched, d4_chain.couplings, exact=False)[0].shape == (8, 8, 8)

    def test_slot_pulses_must_share_a_duration(self, d4_chain):
        rabi = g.TWO_PI * 1e6
        slot = g.PulseSlot((g.Pulse(1, np.pi, 0.0, rabi, np.pi / rabi),
                            g.Pulse(2, np.pi / 2, 0.0, rabi, np.pi / 2 / rabi)), 2.5e-6)
        with pytest.raises(ValueError, match="share one realized duration"):
            stage_propagators(g.PulseSchedule((slot,)), d4_chain.couplings)

    def test_stacked_eigh_matches_one_call_per_segment(self, d4_chain):
        couplings = d4_chain.couplings
        sched = protocol_schedules(g.PulseContext(couplings))["entangle"]
        H, t = zip(*segment_hamiltonians(sched, couplings))
        stacked = integrate_segment_unitary(np.array(H), np.array(t))
        for k in range(len(H)):
            assert np.array_equal(stacked[k], integrate_segment_unitary(H[k], t[k]))
            assert np.array_equal(stacked[k], integrate_segment_unitary_oracle(H[k], t[k]))


class TestCnotResidualIsingPhase:
    def test_infidelity_scale(self, d4_chain):
        # The ideal model drops spin-spin evolution during the ~9.5 us of
        # pulsing; the integrator keeps it. The resulting infidelity for the
        # table1-d4 CNOT is a few 1e-5 (J * pulse time ~ 3e-2 rad).
        couplings = d4_chain.couplings
        sched = g.build_cnot(2, 3, g.PulseContext(couplings))
        state = g.SpinState.product([1, 1], [1, 1], [0, 1])
        res = g.integrate_exact(state, sched, couplings)
        infidelity = 1.0 - res.fidelity_to_ideal
        assert 1e-6 < infidelity < 1e-4
        assert infidelity == pytest.approx(4.575e-5, rel=0.01)
        assert res.norm_drift < 1e-9

    def test_validation(self, d4_chain, rng):
        couplings = d4_chain.couplings
        state = plus_state()
        with pytest.raises(ValueError):
            g.integrate_exact(state, g.refocused_zz(g.PulseContext(couplings, g.LAB)), couplings)
        lab_state = g.SpinState(state.amplitudes, g.LAB)
        with pytest.raises(ValueError):
            g.integrate_exact(lab_state, one_pulse_schedule(), couplings)
