import dataclasses
import importlib
import json
import sys
from functools import lru_cache, partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradion as g
from gradion.operators import embed, reduced_density
from gradion.pulses import spin_energies
from gradion.teleport import CORRECTIONS, correction_schedule, protocol_schedules

import util
from util import (dense_evolve_oracle, embed3, haar_qubit, run_stage_oracle,
                  spin_energy_oracle)


def ideal_stages(state, names=("entangle", "encode", "rotate")):
    """Apply the named exact gates of ``g.IDEAL_STAGES`` in order."""
    amps = state.amplitudes
    for name in names:
        amps = g.IDEAL_STAGES[name] @ amps
    return g.SpinState(amps, state.frame)


class TestPrepare:
    def test_basis_input(self):
        state = g.prepare_initial(1.0, 0.0)
        idx_001, idx_011 = 0b001, 0b011
        amps = state.amplitudes
        assert amps[idx_001] == pytest.approx(1 / np.sqrt(2))
        assert amps[idx_011] == pytest.approx(1 / np.sqrt(2))
        assert np.linalg.norm(np.delete(amps, [idx_001, idx_011])) < 1e-14

    def test_balanced_input(self):
        state = g.prepare_initial(1 / np.sqrt(2), 1 / np.sqrt(2))
        for idx in (0b001, 0b011, 0b101, 0b111):
            assert state.amplitudes[idx] == pytest.approx(0.5)

    def test_norm_and_validation(self, rng):
        a, b = haar_qubit(rng)
        assert np.linalg.norm(g.prepare_initial(a, b).amplitudes) == \
            pytest.approx(1.0)
        with pytest.raises(ValueError):
            g.prepare_initial(1.0, 0.5)


class TestEntangle:
    def test_matches_bell_expansion(self, rng):
        a, b = haar_qubit(rng)
        state = ideal_stages(g.prepare_initial(a, b), ("entangle",))
        expected = np.kron([a, b], np.kron([1, 0], [0, 1])
                           + np.kron([0, 1], [1, 0])) / np.sqrt(2)
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-9

    def test_bell_pair_purity(self, rng):
        a, b = haar_qubit(rng)
        state = ideal_stages(g.prepare_initial(a, b), ("entangle",))
        rho23 = reduced_density(state.amplitudes, (2, 3))
        bell = (np.kron([1, 0], [0, 1]) + np.kron([0, 1], [1, 0])) / np.sqrt(2)
        assert np.real(np.trace(rho23 @ rho23)) == pytest.approx(1.0, abs=1e-12)
        assert np.real(bell @ rho23 @ bell) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_one_leaves_qubit1_in_zero(self):
        state = ideal_stages(g.prepare_initial(1.0, 0.0), ("entangle",))
        assert np.linalg.norm(state.amplitudes[4:]) < 1e-14


class TestEncodeAndRotate:
    def test_branch_probabilities_quarter(self, rng):
        for _ in range(25):
            a, b = haar_qubit(rng)
            state = ideal_stages(g.prepare_initial(a, b))
            probs = np.sum(np.abs(state.amplitudes.reshape(4, 2)) ** 2, axis=1)
            assert np.max(np.abs(probs - 0.25)) < 1e-12

    def test_branch_states(self, rng):
        a, b = haar_qubit(rng)
        state = ideal_stages(g.prepare_initial(a, b))
        tensor = state.amplitudes.reshape(4, 2) * 2.0  # each branch carries 1/2
        # outcome 01 already holds the input state
        assert np.allclose(tensor[1], [a, b], atol=1e-12)
        # outcome 00 holds alpha|1> + beta|0>
        assert np.allclose(tensor[0], [b, a], atol=1e-12)
        # outcome 10 holds alpha|1> - beta|0>
        assert np.allclose(tensor[2], [-b, a], atol=1e-12)
        # outcome 11 holds alpha|0> - beta|1>
        assert np.allclose(tensor[3], [a, -b], atol=1e-12)

    def test_basis_input_branch_states(self):
        state = ideal_stages(g.prepare_initial(1.0, 0.0))
        tensor = state.amplitudes.reshape(4, 2) * 2.0
        expected = [[0, 1], [1, 0], [0, 1], [1, 0]]  # |1>,|0>,|1>,|0>
        assert np.allclose(tensor, expected, atol=1e-12)

    def test_no_information_leaks(self, rng):
        # Input independence before the classical message: the measurement
        # distribution on ions 1,2 is uniform, and ion 3 alone is maximally
        # mixed (the four branch states form a Pauli twirl of the input).
        # The full 1,2 reduction keeps input-dependent coherences -- the
        # branch states are pairwise non-orthogonal -- but those are exactly
        # what the computational-basis measurement erases.
        for _ in range(10):
            a, b = haar_qubit(rng)
            state = ideal_stages(g.prepare_initial(a, b))
            rho12 = reduced_density(state.amplitudes, (1, 2))
            assert np.max(np.abs(np.diag(rho12) - 0.25)) < 1e-10
            rho3 = reduced_density(state.amplitudes, (3,))
            assert np.max(np.abs(rho3 - np.eye(2) / 2)) < 1e-10


class TestMeasurement:
    def test_quarter_probabilities(self, rng):
        a, b = haar_qubit(rng)
        state = ideal_stages(g.prepare_initial(a, b))
        for forced in ((0, 0), (0, 1), (1, 0), (1, 1)):
            bits, collapsed, p = g.measure_ions12(state, rng, force=forced)
            assert bits == forced
            assert p == pytest.approx(0.25, abs=1e-12)
            assert np.linalg.norm(collapsed.amplitudes) == pytest.approx(1.0)

    def test_product_state_outcome_certain(self, rng):
        state = g.SpinState.product([1, 0], [1, 0], [0.8, 0.6j])
        bits, collapsed, p = g.measure_ions12(state, rng)
        assert bits == (0, 0)
        assert p == pytest.approx(1.0)
        assert np.allclose(collapsed.amplitudes, state.amplitudes)

    def test_sampling_statistics(self):
        rng = np.random.default_rng(7)
        state = ideal_stages(g.prepare_initial(0.6, 0.8j))
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            bits, _, _ = g.measure_ions12(state, rng)
            counts[2 * bits[0] + bits[1]] += 1
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) < 4 * sigma)

    def test_seeded_determinism(self):
        state = ideal_stages(g.prepare_initial(0.6, 0.8))
        runs = [g.measure_ions12(state, np.random.default_rng(123))[0]
                for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


class TestCorrections:
    def test_each_branch_restored(self, rng):
        a, b = haar_qubit(rng)
        state = ideal_stages(g.prepare_initial(a, b))
        for forced in ((0, 0), (0, 1), (1, 0), (1, 1)):
            bits, collapsed, _ = g.measure_ions12(state, rng, force=forced)
            corrected = embed(CORRECTIONS[bits][1], 3) @ collapsed.amplitudes
            out = corrected.reshape(2, 2, 2)[bits]
            assert g.fidelity(out, a, b) == pytest.approx(1.0, abs=1e-12)

    def test_correction_matrices(self):
        # sigma_x on alpha|1>+beta|0>;  i sigma_y = [[0,1],[-1,0]] on
        # alpha|1>-beta|0>; both return alpha|0>+beta|1> exactly
        a, b = 0.6, 0.8j
        assert np.allclose(CORRECTIONS[(0, 0)][1] @ [b, a], [a, b])
        assert np.allclose(CORRECTIONS[(1, 0)][1] @ [-b, a], [a, b])
        assert np.allclose(CORRECTIONS[(0, 1)][1], np.eye(2))
        sz = CORRECTIONS[(1, 1)][1]
        out = sz @ [a, -b]
        assert g.fidelity(out, a, b) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_bits_rejected(self, rng):
        # k = 2 b1 + b2 must not map (0, 2) to 10 or (1, -1) to 01, nor index past 11
        state = ideal_stages(g.prepare_initial(1.0, 0.0))
        for bits in ((0, 2), (1, -1), (2, 0)):
            with pytest.raises(ValueError, match="forced outcome"):
                g.run_teleport(g.ProtocolConfig(1.0, 0.0, seed=0), force_outcome=bits)
            with pytest.raises(ValueError, match="forced outcome"):
                g.measure_ions12(state, rng, force=bits)


class TestFidelity:
    def test_trivial_cases(self):
        assert g.fidelity([1, 0], 1.0, 0.0) == pytest.approx(1.0)
        assert g.fidelity([0, 1], 1.0, 0.0) == pytest.approx(0.0)
        assert g.fidelity([0.6, 0.8], 0.6, 0.8) == pytest.approx(1.0)
        rho = np.array([[0.5, 0], [0, 0.5]])
        assert g.fidelity(rho, 1.0, 0.0) == pytest.approx(0.5)


class TestRunIdeal:
    def test_fidelity_one_any_seed(self, rng):
        for seed in (0, 7, 123):
            a, b = haar_qubit(rng)
            rec = g.run_teleport(g.ProtocolConfig(a, b, seed=seed))
            assert rec.fidelity > 1 - 1e-9
            assert rec.total_duration == 0.0
            assert rec.outcome_probability == pytest.approx(0.25, abs=1e-12)

    def test_forced_outcomes(self, rng):
        a, b = haar_qubit(rng)
        for forced in ((0, 0), (0, 1), (1, 0), (1, 1)):
            rec = g.run_teleport(g.ProtocolConfig(a, b, seed=0),
                                 force_outcome=forced)
            assert rec.outcome == forced
            assert rec.fidelity > 1 - 1e-9

    def test_numpy_integer_seed_is_stored_as_int(self, d4_chain):
        config = g.ProtocolConfig(0.6, 0.8, gate_mode="scheduled", seed=np.int64(3),
                                  couplings=d4_chain.couplings)
        assert type(config.seed) is int and config.seed == 3
        record = g.run_teleport(config)
        assert json.loads(record.to_json())["seed"] == 3
        assert record.to_json() == g.run_teleport(
            dataclasses.replace(config, seed=3)).to_json()

    @pytest.mark.parametrize("bad", [1.5, -1, np.int64(-2), np.float64(2.0), "3"])
    def test_bad_seed_rejected_at_construction(self, d4_chain, bad):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            g.ProtocolConfig(0.6, 0.8, gate_mode="scheduled", seed=bad,
                             couplings=d4_chain.couplings)

    def test_config_validation(self, d4_chain):
        with pytest.raises(ValueError):
            g.ProtocolConfig(1.0, 0.5)
        with pytest.raises(ValueError):
            g.ProtocolConfig(1.0, 0.0, gate_mode="scheduled")  # no couplings
        with pytest.raises(ValueError):
            g.ProtocolConfig(1.0, 0.0, dephasing=(0.0, 0.0, 10.0))  # ideal mode
        with pytest.raises(ValueError):
            g.ProtocolConfig(1.0, 0.0, gate_mode="fancy")

    @pytest.mark.parametrize("alpha, beta", [(np.nan, 1.0), (1.0, np.nan),
                                             (complex(0.0, np.nan), 1.0),
                                             (np.inf, 0.0)])
    def test_non_finite_amplitudes_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="amplitudes"):
            g.ProtocolConfig(alpha, beta)
        with pytest.raises(ValueError, match="amplitudes"):
            g.prepare_initial(alpha, beta)

    def test_record_json_refuses_nan(self):
        record = g.run_teleport(g.ProtocolConfig(0.6, 0.8, seed=1))
        json.loads(record.to_json())
        with pytest.raises(ValueError):
            dataclasses.replace(record, fidelity=np.nan).to_json()

    @pytest.mark.parametrize("mode", ["ideal", "scheduled", "integrated"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0,
                                     (0.0, np.nan, 0.0), (np.inf, 0.0, 0.0)])
    def test_bad_dephasing_rejected_at_construction(self, d4_chain, mode, bad):
        with pytest.raises(ValueError, match="three finite, non-negative rates"):
            g.ProtocolConfig(1.0, 0.0, gate_mode=mode, couplings=d4_chain.couplings,
                             dephasing=bad)

    @pytest.mark.parametrize("mode", ["ideal", "scheduled", "integrated"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_rabi_rejected_at_construction(self, d4_chain, mode, bad):
        with pytest.raises(ValueError, match="Rabi frequency"):
            g.ProtocolConfig(1.0, 0.0, gate_mode=mode, couplings=d4_chain.couplings,
                             rabi=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_t_m_rejected_at_construction(self, d4_chain, bad):
        with pytest.raises(ValueError, match="t_m"):
            g.ProtocolConfig(1.0, 0.0, gate_mode="scheduled",
                             couplings=d4_chain.couplings, t_m=bad)

    def test_pulse_context_derived(self, d4_chain):
        config = g.ProtocolConfig(0.6, 0.8, gate_mode="scheduled",
                                  couplings=d4_chain.couplings, t_m=1e-6, rabi=2e6)
        ctx = config.pulses
        assert ctx.couplings is d4_chain.couplings
        assert (ctx.frame, ctx.t_m, ctx.rabi, ctx.commensurate) == (
            g.INTERACTION, 1e-6, 2e6, False)


class TestRunScheduled:
    def test_agrees_with_ideal(self, d4_chain, rng):
        couplings = d4_chain.couplings
        for forced in ((0, 0), (0, 1), (1, 0), (1, 1)):
            a, b = haar_qubit(rng)
            ideal = g.run_teleport(g.ProtocolConfig(a, b, seed=3),
                                   force_outcome=forced)
            sched = g.run_teleport(
                g.ProtocolConfig(a, b, gate_mode="scheduled", seed=3,
                                 couplings=couplings), force_outcome=forced)
            assert sched.outcome == ideal.outcome
            assert sched.fidelity == pytest.approx(ideal.fidelity, abs=1e-9)
            assert sched.outcome_probability == pytest.approx(
                ideal.outcome_probability, abs=1e-9)
            # states agree up to a global phase
            overlap = abs(np.vdot(sched.qubit3_state, ideal.qubit3_state))
            assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_duration_near_7_7_ms(self, d4_chain):
        couplings = d4_chain.couplings
        rec = g.run_teleport(g.ProtocolConfig(0.6, 0.8, gate_mode="scheduled",
                                              seed=1, couplings=couplings))
        assert 7.5e-3 < rec.total_duration < 7.9e-3
        stages = protocol_schedules(g.PulseContext(couplings))
        expected = sum(s.total_duration for s in stages.values()) \
            + correction_schedule(rec.outcome).total_duration
        assert rec.total_duration == pytest.approx(expected, rel=1e-12)
        assert rec.stage_durations["entangle"] == pytest.approx(
            stages["entangle"].total_duration, rel=1e-12)

    def test_correction_schedules_match_matrices(self, d4_chain, rng):
        couplings = d4_chain.couplings
        from util import phase_aligned_deviation
        for bits, (_, matrix) in CORRECTIONS.items():
            sched = correction_schedule(bits)
            U = g.schedule_unitary(sched, couplings)
            target = np.kron(np.eye(4, dtype=complex), matrix)
            assert phase_aligned_deviation(U, target) < 1e-10


class TestRunIntegrated:
    def test_close_to_ideal(self, d4_chain, rng):
        couplings = d4_chain.couplings
        a, b = haar_qubit(rng)
        rec = g.run_teleport(g.ProtocolConfig(a, b, gate_mode="integrated", seed=5,
                                              couplings=couplings))
        # residual spin-spin phase during pulses costs ~1e-4 at most
        assert rec.fidelity > 1 - 5e-4
        assert rec.total_duration > 7e-3

    def test_with_dephasing_returns_density(self, d4_chain):
        couplings = d4_chain.couplings
        rate = 1.0 / 100e-3
        rec = g.run_teleport(
            g.ProtocolConfig(0.6, 0.8, gate_mode="integrated", seed=5,
                             couplings=couplings,
                             dephasing=(0.0, 0.0, rate)), force_outcome=(0, 1))
        assert rec.qubit3_density is not None
        assert np.trace(rec.qubit3_density) == pytest.approx(1.0, abs=1e-8)
        # close to the scheduled-mode dephased run, which shares the channels
        sched = g.run_teleport(
            g.ProtocolConfig(0.6, 0.8, gate_mode="scheduled", seed=5,
                             couplings=couplings,
                             dephasing=(0.0, 0.0, rate)), force_outcome=(0, 1))
        assert rec.fidelity == pytest.approx(sched.fidelity, abs=1e-3)
        payload = json.loads(rec.to_json())
        assert "qubit3_density" in payload and "qubit3_state" not in payload


class TestDephasing:
    """Qubit-3 phase damping, pushed through the protocol by hand.

    A damping event between the two transverse rotations of the first CNOT
    propagates as an X error on the teleported state (the interleaved
    segments are sigma_z-diagonal or pi flips, which phase damping commutes
    through); later events commute to the very end as plain damping. Hence

        F(|0>) = (1 + exp(-rate * tau1)) / 2     tau1 = in-CNOT window
        F(|+>) = (1 + exp(-rate * tau2)) / 2     tau2 = everything after

    since an X error is invisible on |+> and fatal on |0>, while tail
    damping does the opposite. Events landing between the pulses of the
    ion-3 z composite evade this bookkeeping; each contributes at most
    (1 - exp(-rate t_m))/2, so with t_m = 0 the formulas are exact.
    """

    def test_closed_form_exact_with_instant_slots(self, d4_chain):
        couplings = d4_chain.couplings
        rate = 1.0 / 100e-3  # T2 = 100 ms
        stages = protocol_schedules(g.PulseContext(couplings, t_m=0.0))
        free = {name: sum(i.duration for i in sched.items
                          if isinstance(i, g.FreeEvolution))
                for name, sched in stages.items()}
        tau1 = free["entangle"]
        tau2 = free["encode"] + free["rotate"]
        forced = (0, 1)  # identity correction: no extra duration

        rec0 = g.run_teleport(
            g.ProtocolConfig(1.0, 0.0, gate_mode="scheduled", seed=2, t_m=0.0,
                             couplings=couplings, dephasing=(0.0, 0.0, rate)),
            force_outcome=forced)
        assert rec0.fidelity == pytest.approx(0.5 * (1 + np.exp(-rate * tau1)),
                                              abs=1e-10)

        s = 1 / np.sqrt(2)
        rec_plus = g.run_teleport(
            g.ProtocolConfig(s, s, gate_mode="scheduled", seed=2, t_m=0.0,
                             couplings=couplings, dephasing=(0.0, 0.0, rate)),
            force_outcome=forced)
        assert rec_plus.fidelity == pytest.approx(0.5 * (1 + np.exp(-rate * tau2)),
                                                  abs=1e-10)

    def test_closed_form_with_booked_slots(self, d4_chain):
        # realistic t_m = 2.5 us: the composite-interior events perturb the
        # two-window formula by a few (rate t_m)/2 ~ 1e-5 each
        couplings = d4_chain.couplings
        rate = 1.0 / 100e-3
        t_m = 2.5e-6
        stages = protocol_schedules(g.PulseContext(couplings, t_m=t_m))
        tau1 = stages["entangle"].total_duration - t_m
        forced = (0, 1)
        tau2 = t_m + stages["encode"].total_duration \
            + stages["rotate"].total_duration

        rec0 = g.run_teleport(
            g.ProtocolConfig(1.0, 0.0, gate_mode="scheduled", seed=2,
                             couplings=couplings, dephasing=(0.0, 0.0, rate)),
            force_outcome=forced)
        assert rec0.fidelity == pytest.approx(0.5 * (1 + np.exp(-rate * tau1)),
                                              abs=6 * rate * t_m)

        s = 1 / np.sqrt(2)
        rec_plus = g.run_teleport(
            g.ProtocolConfig(s, s, gate_mode="scheduled", seed=2,
                             couplings=couplings, dephasing=(0.0, 0.0, rate)),
            force_outcome=forced)
        assert rec_plus.fidelity == pytest.approx(0.5 * (1 + np.exp(-rate * tau2)),
                                                  abs=6 * rate * t_m)

    def test_fidelity_drop_bounded_by_error_weight(self, d4_chain):
        # every damping event flips sigma_z with weight (1 - e^{-rate tau})/2,
        # so the no-error trajectory keeps weight >= 1 - 3 rate T / 2
        couplings = d4_chain.couplings
        rate = 1.0 / 100e-3
        rec = g.run_teleport(
            g.ProtocolConfig(0.6, 0.8, gate_mode="scheduled", seed=9,
                             couplings=couplings, dephasing=(rate, rate, rate)))
        assert 1 - 1.5 * rate * rec.total_duration < rec.fidelity < 1.0
        assert rec.qubit3_density is not None
        assert np.trace(rec.qubit3_density) == pytest.approx(1.0, abs=1e-10)
        weaker = g.run_teleport(
            g.ProtocolConfig(0.6, 0.8, gate_mode="scheduled", seed=9,
                             couplings=couplings,
                             dephasing=(rate / 10, rate / 10, rate / 10)))
        assert weaker.fidelity > rec.fidelity


class TestRecord:
    def test_json_round_trip_and_determinism(self, d4_chain):
        couplings = d4_chain.couplings
        config = g.ProtocolConfig(0.6, 0.8j, gate_mode="scheduled", seed=11,
                                  couplings=couplings)
        first = g.run_teleport(config).to_json()
        second = g.run_teleport(config).to_json()
        assert first == second
        payload = json.loads(first)
        for key in ("outcome", "correction", "fidelity", "total_duration_s",
                    "stage_durations_s", "seed", "config", "qubit3_state"):
            assert key in payload
        assert payload["seed"] == 11
        assert payload["config"]["alpha"] == [0.6, 0.0]
        assert set(payload["stage_durations_s"]) == {
            "prepare", "entangle", "encode", "rotate", "correct"}


@lru_cache(maxsize=None)
def preset_couplings(name):
    return g.solve_chain(*g.preset_layout_field(name)).couplings


RATE_PATTERNS = ((0.0, 0.0, 0.0), (30.0, 5.0, 80.0), (0.0, 100.0, 0.0),
                 (250.0, 250.0, 250.0))


def record_set(seeds):
    """Records of every preset x gate mode x `RATE_PATTERNS` x seed."""
    records = []
    for name in sorted(g.PRESETS):
        couplings = preset_couplings(name)
        for mode in ("scheduled", "integrated"):
            for rates in RATE_PATTERNS:
                for seed in seeds:
                    a, b = haar_qubit(np.random.default_rng(seed))
                    config = g.ProtocolConfig(complex(a), complex(b), gate_mode=mode,
                                              seed=seed, couplings=couplings,
                                              dephasing=rates)
                    records.append(g.run_teleport(config))
    return records


def assert_records_agree(fast, oracle, tolerance=1e-12):
    """Pure scheduled records byte for byte; every other record with the same
    sampled outcome and durations, and its numbers within ``tolerance``."""
    assert len(fast) == len(oracle)
    worst = 0.0
    for a, b in zip(fast, oracle):
        if a.gate_mode == "scheduled" and a.qubit3_state is not None:
            assert a.to_json() == b.to_json()
            continue
        assert (a.outcome, a.stage_durations, a.total_duration) == \
            (b.outcome, b.stage_durations, b.total_duration)
        out_a, out_b = ((r.qubit3_state if r.qubit3_density is None else r.qubit3_density)
                        for r in (a, b))
        worst = max(worst, abs(a.fidelity - b.fidelity),
                    abs(a.outcome_probability - b.outcome_probability),
                    float(np.max(np.abs(out_a - out_b))))
    assert worst <= tolerance


class TestStepRunnerOracle:
    """Closed-form stage propagators and the merged damping factor against the
    per-segment `eigh`, per-qubit damping runner they replaced."""

    def test_records_match_step_runner(self, monkeypatch):
        seeds = (1, 2, 3, 4, 5, 6)
        fast = record_set(seeds)
        monkeypatch.setattr(importlib.import_module("gradion.teleport"), "_run_stage",
                            run_stage_oracle)
        oracle = record_set(seeds)
        assert len(fast) == 576
        assert_records_agree(fast, oracle)


class TestKronFreeOperators:
    """The broadcast `embed`, array `spin_spectrum`, closed-form propagators
    and merged phase damping against the kron-built, dense, one-step-at-a-time
    oracles."""

    def test_records_match_kron_oracle(self, monkeypatch):
        seeds = (1, 2, 3)
        fast = record_set(seeds)
        for module in (util, *(importlib.import_module(f"gradion.{name}") for name in
                               ("operators", "pulses", "integrate", "teleport"))):
            monkeypatch.setattr(module, "embed", embed3)
        monkeypatch.setattr(importlib.import_module("gradion.pulses"), "_spin_diagonal",
                            lambda w, J, J13: np.array(
                                [spin_energy_oracle(SimpleNamespace(w=w, J=J, J13=J13), b)
                                 for b in range(8)]))
        monkeypatch.setattr(importlib.import_module("gradion.teleport"), "_run_stage",
                            partial(run_stage_oracle, evolve=dense_evolve_oracle))
        assert_records_agree(fast, record_set(seeds))

    @pytest.mark.parametrize("mode", ["scheduled", "integrated"])
    def test_only_state_preparation_calls_kron(self, monkeypatch, d4_chain, mode):
        # a kron back on the per-segment path would multiply this count
        callers = []
        kron = np.kron

        def counting_kron(a, b):
            callers.append(sys._getframe(1).f_code.co_name)
            return kron(a, b)

        monkeypatch.setattr(np, "kron", counting_kron)
        config = g.ProtocolConfig(0.6, 0.8j, gate_mode=mode, seed=4,
                                  couplings=d4_chain.couplings, dephasing=(30.0, 5.0, 80.0))
        g.run_teleport(config)
        assert callers == ["product", "product"]


@st.composite
def protocol_inputs(draw):
    """A Haar-random input qubit, a preset coupling set and a run seed."""
    a, b = haar_qubit(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    couplings = preset_couplings(draw(st.sampled_from(sorted(g.PRESETS))))
    return complex(a), complex(b), couplings, draw(st.integers(0, 2**31 - 1))


class TestRunnerProperties:
    """Invariants of the one stage runner, in every gate mode."""

    @settings(max_examples=25, deadline=None)
    @given(inputs=protocol_inputs(), mode=st.sampled_from(("ideal", "scheduled")))
    def test_every_outcome_has_probability_quarter(self, inputs, mode):
        a, b, couplings, seed = inputs
        config = g.ProtocolConfig(a, b, gate_mode=mode, seed=seed,
                                  couplings=None if mode == "ideal" else couplings)
        for forced in CORRECTIONS:
            rec = g.run_teleport(config, force_outcome=forced)
            assert rec.outcome == forced
            assert rec.outcome_probability == pytest.approx(0.25, abs=1e-9)
            assert rec.fidelity >= 1 - 1e-9

    @settings(max_examples=15, deadline=None)
    @given(inputs=protocol_inputs())
    def test_integrated_probabilities_within_pulse_ising_bound(self, inputs):
        # The spin-spin terms stay on during pulses, so the branch weights
        # move off 1/4 (by ~5e-3 at table1-d4). Dropping H_spin from a pulse
        # of length t moves the state by at most |H_spin| t, and a branch
        # weight by at most twice the state's move.
        a, b, couplings, seed = inputs
        config = g.ProtocolConfig(a, b, gate_mode="integrated", seed=seed,
                                  couplings=couplings)
        pulse_time = sum(max(p.duration for p in item.pulses)
                         for sched in protocol_schedules(config.pulses).values()
                         for item in sched.items if isinstance(item, g.PulseSlot))
        h_spin = np.max(np.abs(spin_energies(couplings, g.INTERACTION)))
        probs = []
        for forced in CORRECTIONS:
            rec = g.run_teleport(config, force_outcome=forced)
            assert rec.outcome == forced
            probs.append(rec.outcome_probability)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert max(abs(p - 0.25) for p in probs) <= 2 * h_spin * pulse_time

    @settings(max_examples=25, deadline=None)
    @given(inputs=protocol_inputs(), mode=st.sampled_from(("scheduled", "integrated")))
    def test_density_and_pure_paths_agree_at_vanishing_dephasing(self, inputs, mode):
        # a rate of 1e-300 keeps the density-matrix path but damps by exactly 1
        a, b, couplings, seed = inputs
        for forced in CORRECTIONS:
            pure, mixed = (g.run_teleport(
                g.ProtocolConfig(a, b, gate_mode=mode, seed=seed, couplings=couplings,
                                 dephasing=rate), force_outcome=forced)
                for rate in (0.0, 1e-300))
            assert pure.qubit3_density is None and mixed.qubit3_state is None
            assert mixed.outcome == pure.outcome
            assert mixed.outcome_probability == pytest.approx(
                pure.outcome_probability, abs=1e-12)
            psi = pure.qubit3_state
            assert np.max(np.abs(mixed.qubit3_density - np.outer(psi, psi.conj()))) \
                <= 1e-12
