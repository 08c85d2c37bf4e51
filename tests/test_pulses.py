import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import gradion as g
from gradion.operators import max_unitarity_defect

from util import (cnot_permutation, commensuration_scan_oracle, free_oracle,
                  phase_aligned_deviation, pulse_oracle, random_couplings,
                  schedule_oracle_unitary)

CNOT_ANGLES = (0.5 * np.pi, np.pi, 3.5 * np.pi)

Z2Z3_TARGET = np.diag(np.exp(-1j * np.pi / 4 *
                             np.array([1, -1, -1, 1, 1, -1, -1, 1.0])))


class TestSingleQubitRotation:
    def test_zero_angle_is_identity(self):
        assert np.allclose(g.single_qubit_rotation(2, 0.0, 1.3), np.eye(8))

    def test_pi_pulse_maps_against_expm_oracle(self, rng):
        for ion in (1, 2, 3):
            for _ in range(5):
                theta, phi = rng.uniform(0, 4 * np.pi), rng.uniform(0, 2 * np.pi)
                assert np.allclose(g.single_qubit_rotation(ion, theta, phi),
                                   pulse_oracle(ion, theta, phi), atol=1e-12)
        # pi pulse at phi=0 sends |0 b2 b3> to i |1 b2 b3>
        U = g.single_qubit_rotation(1, np.pi, 0.0)
        for b in range(4):
            col = U[:, b]
            assert col[b + 4] == pytest.approx(1j)
            assert np.linalg.norm(np.delete(col, b + 4)) < 1e-14

    def test_inverse(self, rng):
        theta, phi = rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
        U = g.single_qubit_rotation(3, theta, phi)
        V = g.single_qubit_rotation(3, -theta, phi)
        assert np.allclose(U @ V, np.eye(8), atol=1e-12)

    def test_bad_ion_index(self):
        with pytest.raises(ValueError):
            g.single_qubit_rotation(0, np.pi, 0.0)

    def test_unitarity(self, rng):
        for _ in range(20):
            U = g.single_qubit_rotation(int(rng.integers(1, 4)),
                                        rng.uniform(0, 4 * np.pi),
                                        rng.uniform(0, 2 * np.pi))
            assert max_unitarity_defect(U) < 1e-10


class TestFreeEvolution:
    def test_zero_time_identity(self, rng):
        couplings = random_couplings(rng)
        assert np.allclose(g.free_evolution(couplings, 0.0, g.LAB), np.eye(8))

    def test_interaction_frame_against_oracle(self, rng):
        couplings = random_couplings(rng)
        t = np.pi / (2 * couplings.J)
        oracle = free_oracle(np.zeros(3), couplings.J, couplings.J13, t)
        assert np.allclose(g.free_evolution(couplings, t, g.INTERACTION), oracle,
                           atol=1e-12)

    def test_lab_frame_ground_state_phase(self, rng):
        couplings = random_couplings(rng)
        t = 1.7e-4
        U = g.free_evolution(couplings, t, g.LAB)
        expected = np.exp(1j * (0.5 * np.sum(couplings.w) + couplings.J
                                + 0.5 * couplings.J13) * t)
        assert U[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_negative_time_rejected(self, rng):
        with pytest.raises(ValueError):
            g.free_evolution(random_couplings(rng), -1.0)


class TestRefocusedZZ:
    def test_identity_both_frames(self, rng):
        for frame in (g.INTERACTION, g.LAB):
            for _ in range(10):
                couplings = random_couplings(rng)
                sched = g.refocused_zz(g.PulseContext(couplings, frame))
                U = g.schedule_unitary(sched, couplings)
                assert phase_aligned_deviation(U, Z2Z3_TARGET) < 1e-9

    def test_pair_12(self, rng):
        couplings = random_couplings(rng)
        target = np.diag(np.exp(-1j * np.pi / 4 *
                                np.array([1, 1, -1, -1, -1, -1, 1, 1.0])))
        sched = g.refocused_zz(g.PulseContext(couplings, g.LAB), pair=(1, 2))
        assert phase_aligned_deviation(g.schedule_unitary(sched, couplings),
                                       target) < 1e-9

    def test_identity_at_13ghz_lab_scale(self, d4_chain):
        # realistic qubit frequencies: each quarter accrues ~8e7 rad of
        # phase, so double precision can cancel it no better than
        # eps * w * t/4 ~ 1e-8; the identity must hold at that floor
        from dataclasses import replace
        couplings = replace(
            d4_chain.couplings,
            w=g.TWO_PI * np.array([13.0e9 - 64.8e6, 13.0e9, 13.0e9 + 64.8e6]))
        sched = g.refocused_zz(g.PulseContext(couplings, g.LAB))
        U = g.schedule_unitary(sched, couplings)
        t = 7 * np.pi / (2 * couplings.J)
        noise_floor = np.finfo(float).eps * np.max(couplings.w) * t / 4
        assert phase_aligned_deviation(U, Z2Z3_TARGET) < 4 * noise_floor

    def test_matches_expm_oracle_composition(self, rng):
        couplings = random_couplings(rng)
        sched = g.refocused_zz(g.PulseContext(couplings, g.LAB))
        assert np.allclose(g.schedule_unitary(sched, couplings),
                           schedule_oracle_unitary(sched, couplings), atol=1e-10)

    def test_duration_accounting(self, d4_chain):
        couplings = d4_chain.couplings
        sched = g.refocused_zz(g.PulseContext(couplings))
        t = 7 * np.pi / (2 * couplings.J)
        assert t * 1e3 == pytest.approx(3.82, rel=0.02)
        free_total = sum(i.duration for i in sched.items
                         if isinstance(i, g.FreeEvolution))
        assert free_total == pytest.approx(t, rel=1e-12)
        assert sched.total_duration == pytest.approx(t + 4 * 2.5e-6, rel=1e-12)
        # six pi pulses in four slots (the pair ions flip together)
        assert sum(1 for _ in sched.pulses()) == 6
        assert sum(1 for i in sched.items if isinstance(i, g.PulseSlot)) == 4

    def test_sign_tracking_oracle(self, rng):
        # quarter-interval bookkeeping: track the sign of each sigma_z through
        # the pi pulses and accumulate each Hamiltonian term's weight
        couplings = random_couplings(rng)
        sched = g.refocused_zz(g.PulseContext(couplings, g.INTERACTION), pair=(2, 3))
        signs = np.ones(3)
        weights = {"z1": 0.0, "z2": 0.0, "z3": 0.0,
                   "z1z2": 0.0, "z1z3": 0.0, "z2z3": 0.0}
        for item in sched.items:
            if isinstance(item, g.FreeEvolution):
                weights["z1"] += signs[0] * item.duration
                weights["z2"] += signs[1] * item.duration
                weights["z3"] += signs[2] * item.duration
                weights["z1z2"] += signs[0] * signs[1] * item.duration
                weights["z1z3"] += signs[0] * signs[2] * item.duration
                weights["z2z3"] += signs[1] * signs[2] * item.duration
            else:
                for p in item.pulses:
                    assert p.theta == pytest.approx(np.pi)
                    signs[p.ion - 1] *= -1.0
        t = 7 * np.pi / (2 * couplings.J)
        assert np.all(signs == 1.0)
        for name in ("z1", "z2", "z3", "z1z2", "z1z3"):
            assert abs(weights[name]) < 1e-18
        assert weights["z2z3"] == pytest.approx(t, rel=1e-12)

    def test_requires_positive_coupling(self, rng):
        from dataclasses import replace
        couplings = replace(random_couplings(rng), J=0.0)
        with pytest.raises(ValueError):
            g.refocused_zz(g.PulseContext(couplings))

    def test_rejects_outer_pair(self, rng):
        with pytest.raises(ValueError):
            g.refocused_zz(g.PulseContext(random_couplings(rng)), pair=(1, 3))


class TestCompositeZ:
    def test_equals_quarter_turn(self, rng):
        couplings = random_couplings(rng)
        sz = np.array([[-1, 0], [0, 1]], dtype=complex)
        for sense in (+1, -1):
            sched = g.composite_z_rotation(2, sense)
            U = g.schedule_unitary(sched, couplings)
            target = np.kron(np.kron(np.eye(2), expm(1j * sense * np.pi / 4 * sz)),
                             np.eye(2))
            assert phase_aligned_deviation(U, target) < 1e-9
            assert sched.total_duration == pytest.approx(3 * 2.5e-6)

    def test_composite_times_inverse_is_identity(self, rng):
        couplings = random_couplings(rng)
        sched = g.composite_z_rotation(1, +1) + g.composite_z_rotation(1, -1)
        U = g.schedule_unitary(sched, couplings)
        assert phase_aligned_deviation(U, np.eye(8)) < 1e-10

    def test_spectators_untouched(self, rng):
        couplings = random_couplings(rng)
        sched = g.composite_z_rotation(2, +1)
        for _ in range(5):
            q = [rng.standard_normal(2) + 1j * rng.standard_normal(2)
                 for _ in range(3)]
            state = g.SpinState.product(*q)
            out = g.apply_schedule(state, sched, couplings)
            for keep in (1, 3):
                before = g.operators.reduced_density(state.amplitudes, (keep,))
                after = g.operators.reduced_density(out.amplitudes, (keep,))
                assert np.allclose(before, after, atol=1e-12)


class TestBuildCnot:
    @pytest.mark.parametrize("pair", [(2, 3), (1, 2), (3, 2), (2, 1)])
    def test_equals_canonical_cnot(self, rng, pair):
        for frame in (g.INTERACTION, g.LAB):
            couplings = random_couplings(rng)
            sched = g.build_cnot(*pair, g.PulseContext(couplings, frame))
            U = g.schedule_unitary(sched, couplings)
            assert phase_aligned_deviation(U, cnot_permutation(*pair)) < 1e-9

    def test_duration_table1_d4(self, d4_chain):
        couplings = d4_chain.couplings
        sched = g.build_cnot(2, 3, g.PulseContext(couplings))
        assert sched.total_duration * 1e3 == pytest.approx(3.84, rel=0.02)

    def test_double_cnot_is_identity(self, rng):
        couplings = random_couplings(rng)
        sched = g.build_cnot(2, 3, g.PulseContext(couplings))
        U = g.schedule_unitary(sched, couplings)
        assert phase_aligned_deviation(U @ U, np.eye(8)) < 1e-9

    def test_rejects_uncoupled_or_distant_pairs(self, rng):
        from dataclasses import replace
        couplings = random_couplings(rng)
        with pytest.raises(ValueError):
            g.build_cnot(1, 3, g.PulseContext(couplings))
        with pytest.raises(ValueError):
            g.build_cnot(2, 3, g.PulseContext(replace(couplings, J=-1.0)))

    def test_hadamard_schedule(self, rng):
        couplings = random_couplings(rng)
        sched = g.hadamard_schedule(1)
        U = g.schedule_unitary(sched, couplings)
        target = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(4))
        assert phase_aligned_deviation(U, target) < 1e-10
        assert sched.total_duration == pytest.approx(7 * 2.5e-6)


class TestCommensuration:
    def test_single_frequency_exact(self):
        w = g.TWO_PI * 10e6
        fit = g.commensurate_pulse([w], np.pi, g.TWO_PI * 1e6)
        assert fit.max_residual < 1e-12
        assert fit.duration == pytest.approx(g.TWO_PI * fit.cycles[0] / w, rel=1e-15)
        assert fit.rabi == pytest.approx(np.pi / fit.duration, rel=1e-15)

    def test_ladder_beats_tolerance_and_matches_bruteforce(self):
        w = g.TWO_PI * np.array([13.0e9 - 64.8e6, 13.0e9, 13.0e9 + 64.8e6])
        theta, rabi = np.pi, g.TWO_PI * 1e6
        fit = g.commensurate_pulse(w, theta, rabi)
        assert fit.max_residual < 1e-3
        # independent exhaustive scan over the same window
        t_nom = theta / rabi
        best = np.inf
        for n in range(int(w[1] * t_nom * 0.8 / g.TWO_PI),
                       int(np.ceil(w[1] * t_nom * 1.2 / g.TWO_PI)) + 1):
            T = g.TWO_PI * n / w[1]
            wrapped = np.abs(np.mod(w * T + np.pi, g.TWO_PI) - np.pi)
            best = min(best, wrapped.max())
        # the oracle wraps phases by a different float route; allow ulp-level slack
        assert fit.max_residual <= best + 1e-9

    def test_zero_tolerance_fails(self):
        w = g.TWO_PI * np.array([12.99e9, 13.0e9, 13.017e9])
        with pytest.raises(g.CommensurationError) as err:
            g.commensurate_pulse(w, np.pi, g.TWO_PI * 1e6, tolerance=0.0)
        assert err.value.best_residual > 0.0

    def test_oversized_scan_rejected(self):
        with pytest.raises(ValueError, match="scan"):
            g.commensurate_pulse([g.TWO_PI * 13e9], np.pi, g.TWO_PI * 1.0)

    def test_cycles_reproduce_phases_exactly(self, rng):
        w = g.TWO_PI * (13.0e9 + rng.uniform(-50e6, 50e6, 3))
        w.sort()
        fit = g.commensurate_pulse(w, np.pi, g.TWO_PI * 1e6, tolerance=np.inf)
        for wi, n, r in zip(w, fit.cycles, fit.residuals):
            assert wi * fit.duration - g.TWO_PI * n == pytest.approx(r, abs=1e-12)
            assert abs(r) <= fit.max_residual + 1e-15

    def test_lab_frame_cnot_carries_cycle_data(self, d4_chain):
        couplings = d4_chain.couplings
        sched = g.build_cnot(2, 3, g.PulseContext(couplings, g.LAB, commensurate=True))
        for pulse in sched.pulses():
            assert pulse.cycles is not None
            assert max(abs(r) for r in pulse.residuals) < 1e-3
            assert pulse.duration == pytest.approx(pulse.theta / pulse.rabi,
                                                   rel=1e-12)

    def test_commensurate_rejected_off_lab_frame(self, rng):
        with pytest.raises(ValueError):
            g.PulseContext(random_couplings(rng), commensurate=True)

    @pytest.mark.parametrize("w, theta, rabi, kwargs, message", [
        ([np.nan], np.pi, 1e7, {}, "qubit frequencies"),
        ([8e10, np.nan, 8e10], np.pi, 1e7, {}, "qubit frequencies"),
        ([np.inf], np.pi, 1e7, {}, "qubit frequencies"),
        ([-8e10], np.pi, 1e7, {}, "qubit frequencies"),
        ([], np.pi, 1e7, {}, "qubit frequencies"),
        ([[8e10, 8e10]], np.pi, 1e7, {}, "qubit frequencies"),
        ([8e10], np.nan, 1e7, {}, "theta and nominal Rabi"),
        ([8e10], np.inf, 1e7, {}, "theta and nominal Rabi"),
        ([8e10], 0.0, 1e7, {}, "theta and nominal Rabi"),
        ([8e10], np.pi, np.nan, {}, "theta and nominal Rabi"),
        ([8e10], np.pi, np.inf, {}, "theta and nominal Rabi"),
        ([8e10], np.pi, -1e7, {}, "theta and nominal Rabi"),
        ([8e10], np.pi, 1e7, {"tolerance": np.nan}, "tolerance"),
        ([8e10], np.pi, 1e7, {"tolerance": -1e-3}, "tolerance"),
        ([8e10], np.pi, 1e7, {"window": np.nan}, "window"),
        ([8e10], np.pi, 1e7, {"window": np.inf}, "window"),
        ([8e10], np.pi, 1e7, {"window": -0.1}, "window"),
        ([8e10], np.pi, 1e7, {"window": 1.0}, "window"),
        ([8e10], 1e10, 1e-3, {"window": 0.0}, "2\\*\\*53"),
        ([8e10], 1e300, 1e-300, {}, "2\\*\\*53"),
    ], ids=["w-nan", "w-nan-entry", "w-inf", "w-negative", "w-empty", "w-2d",
            "theta-nan", "theta-inf", "theta-zero", "rabi-nan", "rabi-inf",
            "rabi-negative", "tolerance-nan", "tolerance-negative", "window-nan",
            "window-inf", "window-negative", "window-one", "beyond-2**53",
            "nominal-length-overflow"])
    def test_bad_input_rejected(self, w, theta, rabi, kwargs, message):
        with pytest.raises(ValueError, match=message):
            g.commensurate_pulse(w, theta, rabi, **kwargs)

    @staticmethod
    def fit_or_refusal(fit, *args):
        try:
            return fit(*args)
        except g.CommensurationError as err:
            return err.best_residual

    def test_scan_equals_loop_bit_for_bit(self, d4_chain):
        # half the default window halves the cost of the per-candidate oracle
        cases = [(g.solve_chain(*g.preset_layout_field(name)).couplings.w,
                  theta, g.TWO_PI * 2e6, 1e-3, 0.1)
                 for name in g.PRESETS for theta in CNOT_ANGLES]
        # the default window at 3.5 pi spans 14,225 candidates: four chunks
        cases.append((d4_chain.couplings.w, 3.5 * np.pi, g.TWO_PI * 2e6))
        # one frequency wraps exactly at most candidates: ties across four chunks
        cases.append(([g.TWO_PI * 13e9], np.pi, g.TWO_PI * 0.2e6))
        refusals = 0
        for args in cases:
            got = self.fit_or_refusal(g.commensurate_pulse, *args)
            want = self.fit_or_refusal(commensuration_scan_oracle, *args)
            assert type(got) is type(want)
            if isinstance(want, float):
                refusals += 1
                assert got == want
                continue
            for name in ("duration", "rabi", "cycles", "residuals", "max_residual"):
                a, b = getattr(got, name), getattr(want, name)
                assert type(a) is type(b) and a == b, name
            assert [type(r) for r in got.residuals] == [type(r) for r in want.residuals]
        assert 0 < refusals < len(cases)

    def test_widest_scan_keeps_memory_flat(self):
        w, theta, rabi = [g.TWO_PI * 13e9], np.pi, g.TWO_PI * 1.4e3
        candidates = 0.4 * w[0] * theta / rabi / g.TWO_PI
        assert 1.8e6 < candidates < 2e6  # just under the scan guard
        tracemalloc.start()
        try:
            start = time.perf_counter()
            g.commensurate_pulse(w, theta, rabi)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6  # one window-sized float array alone is 15 MB
        assert elapsed < 0.5

    @staticmethod
    def count_fits(monkeypatch):
        thetas = []
        fit = g.commensurate_pulse

        def counting(w, theta, rabi_nominal):
            thetas.append(theta)
            return fit(w, theta, rabi_nominal)

        monkeypatch.setattr("gradion.pulses.commensurate_pulse", counting)
        return thetas

    def test_one_fit_per_angle(self, d4_chain, monkeypatch):
        thetas = self.count_fits(monkeypatch)
        ctx = g.PulseContext(d4_chain.couplings, g.LAB, commensurate=True)
        sched = g.build_cnot(2, 3, ctx)
        assert sorted(thetas) == sorted(CNOT_ANGLES)
        for p in sched.pulses():
            fit = g.commensurate_pulse(d4_chain.couplings.w, p.theta, ctx.rabi)
            assert (p.duration, p.rabi, p.cycles, p.residuals) == (
                fit.duration, fit.rabi, fit.cycles, fit.residuals)

    def test_refused_fit_is_not_kept(self, monkeypatch):
        thetas = self.count_fits(monkeypatch)
        couplings = g.solve_chain(*g.preset_layout_field("table1-d7")).couplings
        ctx = g.PulseContext(couplings, g.LAB, rabi=g.TWO_PI * 2e6, commensurate=True)
        messages, fitted = [], []
        for _ in range(2):
            with pytest.raises(g.CommensurationError) as err:
                g.build_cnot(2, 3, ctx)
            messages.append(str(err.value))
            fitted.append(list(thetas))
        assert messages[0] == messages[1]
        assert fitted[0] and fitted[1] == fitted[0] * 2


class TestPulseContext:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_rabi_rejected(self, bad):
        with pytest.raises(ValueError, match="Rabi frequency must be finite and positive"):
            g.PulseContext(rabi=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_t_m_rejected(self, bad):
        with pytest.raises(ValueError, match="t_m must be finite and non-negative"):
            g.PulseContext(t_m=bad)

    def test_unknown_frame_rejected(self):
        with pytest.raises(ValueError, match="unknown frame 'rotating'"):
            g.PulseContext(frame="rotating")

    def test_commensurate_needs_couplings(self):
        with pytest.raises(ValueError, match="qubit frequencies"):
            g.PulseContext(frame=g.LAB, commensurate=True)

    def test_refocusing_needs_couplings(self):
        with pytest.raises(ValueError, match="needs a coupling set"):
            g.build_cnot(2, 3, g.PulseContext())

    def test_slot_realizes_rotations(self):
        ctx = g.PulseContext(t_m=3e-6, rabi=g.TWO_PI * 2e6)
        slot = ctx.slot("pair", (1, np.pi, 0.0), (3, np.pi / 2, 0.5))
        assert slot.duration == 3e-6 and slot.label == "pair"
        assert [(p.ion, p.theta, p.phi) for p in slot.pulses] == [
            (1, np.pi, 0.0), (3, np.pi / 2, 0.5)]
        for p in slot.pulses:
            assert p.rabi == ctx.rabi and p.duration == p.theta / ctx.rabi
        assert ctx.schedule(slot).items == (slot,)
        assert ctx.schedule().frame == g.INTERACTION

    def test_refocusing_reuses_flip_slots(self, rng):
        items = g.refocused_zz(g.PulseContext(random_couplings(rng), g.LAB)).items
        assert items[1] is items[5] and items[3] is items[7]


class TestApplySchedule:
    def test_empty_schedule_is_identity(self, rng):
        couplings = random_couplings(rng)
        state = g.SpinState.product([1, 1j], [1, 0], [0.6, 0.8])
        out = g.apply_schedule(state, g.PulseSchedule((), g.INTERACTION), couplings)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_refocused_on_plus_states_matches_oracle(self, rng):
        couplings = random_couplings(rng)
        sched = g.refocused_zz(g.PulseContext(couplings))
        state = g.SpinState.product([1, 0], [1, 1], [1, 1])
        out = g.apply_schedule(state, sched, couplings)
        oracle = schedule_oracle_unitary(sched, couplings) @ state.amplitudes
        assert np.allclose(out.amplitudes, oracle, atol=1e-10)

    def test_linearity(self, rng):
        couplings = random_couplings(rng)
        sched = g.build_cnot(2, 3, g.PulseContext(couplings))
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        alpha, beta = 0.3, 0.4j
        mix = alpha * a + beta * b
        scale = np.linalg.norm(mix)
        out_mix = g.apply_schedule(g.SpinState(mix / scale), sched, couplings)
        out_a = g.apply_schedule(g.SpinState(a), sched, couplings)
        out_b = g.apply_schedule(g.SpinState(b), sched, couplings)
        superposed = (alpha * out_a.amplitudes + beta * out_b.amplitudes) / scale
        assert np.allclose(out_mix.amplitudes, superposed, atol=1e-12)

    def test_norm_drift_over_many_segments(self, rng):
        couplings = random_couplings(rng)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        state = g.SpinState(amps)
        items = []
        for _ in range(10_000):
            if rng.random() < 0.5:
                items.append(g.FreeEvolution(rng.uniform(0, 1e-4)))
            else:
                ion = int(rng.integers(1, 4))
                theta = rng.uniform(0, 2 * np.pi)
                phi = rng.uniform(0, 2 * np.pi)
                items.append(g.PulseSlot(
                    (g.Pulse(ion, theta, phi, g.TWO_PI * 1e6,
                             theta / (g.TWO_PI * 1e6)),), 2.5e-6))
        out = g.apply_schedule(state, g.PulseSchedule(tuple(items)), couplings)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-8

    def test_frame_mismatch_rejected(self, rng):
        couplings = random_couplings(rng)
        state = g.SpinState.product([1, 0], [1, 0], [1, 0], frame=g.LAB)
        with pytest.raises(ValueError):
            g.apply_schedule(state,
                             g.refocused_zz(g.PulseContext(couplings, g.INTERACTION)),
                             couplings)


@st.composite
def random_gate_schedules(draw):
    """A CNOT or Hadamard schedule over random couplings, in either frame."""
    couplings = random_couplings(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    frame = draw(st.sampled_from((g.LAB, g.INTERACTION)))
    t_m = draw(st.floats(0.0, 1e-5))
    rabi = g.TWO_PI * 1e6 * draw(st.floats(0.5, 2.0))
    ctx = g.PulseContext(couplings, frame, t_m, rabi)
    if draw(st.booleans()):
        control, target = draw(st.sampled_from(((1, 2), (2, 1), (2, 3), (3, 2))))
        sched = g.build_cnot(control, target, ctx)
    else:
        sched = g.hadamard_schedule(draw(st.integers(1, 3)), ctx)
    return sched, couplings


def flat_fields(schedule):
    """Every value the wire format carries, segment by segment."""
    fields = []
    for item in schedule.items:
        if isinstance(item, g.FreeEvolution):
            fields.append(("FREE", item.duration))
        else:
            fields.extend(("PULSE", p.ion, p.theta, p.phi, p.rabi, p.duration)
                          for p in item.pulses)
    return fields


class TestSerialization:
    def test_round_trip_unitary(self, d4_chain):
        couplings = d4_chain.couplings
        sched = g.build_cnot(2, 3, g.PulseContext(couplings))
        parsed = g.parse_schedule(g.serialize_schedule(sched))
        assert parsed.frame == sched.frame
        U1 = g.schedule_unitary(sched, couplings)
        U2 = g.schedule_unitary(parsed, couplings)
        assert np.allclose(U1, U2, atol=1e-12)

    def test_line_format(self, d4_chain):
        sched = g.refocused_zz(g.PulseContext(d4_chain.couplings))
        text = g.serialize_schedule(sched)
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 10  # 6 pulses + 4 free intervals
        for line in lines:
            assert re.match(r"^(PULSE \d [\d.e+-]+ [\d.e+-]+ [\d.e+-]+ [\d.e+-]+"
                            r"|FREE [\d.e+-]+)$", line)
        # each number parses back to the exact float it was written from
        for line, original in zip(lines, flat_fields(sched)):
            assert [float(x) for x in line.split()[1:]] == list(original[1:])

    def test_parse_error_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            g.parse_schedule("FREE 1e-3\nPULSE nonsense\n")

    def test_unknown_frame_rejected_at_parse(self):
        with pytest.raises(ValueError, match="schedule line 1: unknown frame 'bogus'"):
            g.parse_schedule("# frame=bogus\nFREE 1e-3\n")

    @pytest.mark.parametrize("ion", [0, 4, 7, -1])
    def test_bad_ion_rejected_at_parse(self, ion):
        with pytest.raises(ValueError, match="schedule line 2: ion index"):
            g.parse_schedule(f"FREE 1e-3\nPULSE {ion} 3.14 0 6.28e6 5e-7\n")

    @pytest.mark.parametrize("line, message", [
        ("FREE nan", "free evolution duration must be finite"),
        ("FREE inf", "free evolution duration must be finite"),
        ("PULSE 2 3.14 0 6.28e6 nan", "slot duration must be finite"),
        ("PULSE 2 3.14 0 6.28e6 inf", "slot duration must be finite"),
        ("PULSE 2 inf 0 6.28e6 5e-7", "theta, phi and rabi must be finite"),
        ("PULSE 2 3.14 nan 6.28e6 5e-7", "theta, phi and rabi must be finite"),
        ("PULSE 2 3.14 0 -inf 5e-7", "theta, phi and rabi must be finite"),
    ], ids=["free-nan", "free-inf", "slot-nan", "slot-inf", "theta-inf", "phi-nan",
            "rabi-inf"])
    def test_non_finite_rejected_at_parse(self, line, message):
        with pytest.raises(ValueError, match=f"schedule line 2: {message}"):
            g.parse_schedule(f"FREE 1e-3\n{line}\n")

    @settings(max_examples=100, deadline=None)
    @given(drawn=random_gate_schedules())
    def test_round_trip_property(self, drawn):
        sched, couplings = drawn
        text = g.serialize_schedule(sched)
        parsed = g.parse_schedule(text)
        assert parsed.frame == sched.frame
        assert g.serialize_schedule(parsed) == text
        assert flat_fields(parsed) == flat_fields(sched)
        deviation = np.max(np.abs(g.schedule_unitary(sched, couplings)
                                  - g.schedule_unitary(parsed, couplings)))
        assert deviation <= 1e-12

    def test_concat_frame_mismatch(self, rng):
        couplings = random_couplings(rng)
        a = g.refocused_zz(g.PulseContext(couplings, g.LAB))
        b = g.refocused_zz(g.PulseContext(couplings, g.INTERACTION))
        with pytest.raises(ValueError):
            _ = a + b
