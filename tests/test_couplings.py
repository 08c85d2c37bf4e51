import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradion as g
from gradion.couplings import FIELD_RANGE
from gradion.operators import Z_SIGNS, cnot_matrix
from util import (SZ2, carrier_spectrum_oracle, cnot_permutation, embed3,
                  exact_inverse_hessian, ising_matrix_oracle, layouts,
                  normal_modes_eigh_oracle, random_couplings, spin_energy_oracle,
                  spin_hamiltonian_oracle, stiffness_corner_layouts)


class TestQubitFrequencies:
    def test_gradient_formula(self, d4_chain):
        field, eq = d4_chain.field, d4_chain.equilibrium
        w, dwdz = g.qubit_frequencies(field, eq)
        c = g.DEFAULT_CONSTANTS
        assert dwdz == pytest.approx(2 * c.mu_b * 500.0 / c.hbar, rel=1e-12)
        # cross-check through the reference neighbor splitting
        assert (w[1] - w[0]) / (g.TWO_PI * 1e6) == pytest.approx(64.8, rel=0.01)
        assert w[2] - w[1] == pytest.approx(w[1] - w[0], rel=1e-9)

    def test_zero_gradient_uniform(self, d4_chain):
        eq = d4_chain.equilibrium
        w, dwdz = g.qubit_frequencies(g.FieldConfig(0.0), eq)
        assert dwdz == 0.0
        assert np.ptp(w) == 0.0

    def test_neighbor_shift(self):
        shift = g.neighbor_resonance_shift(g.FieldConfig(500.0), 4.628e-6)
        assert shift / (g.TWO_PI * 1e6) == pytest.approx(64.8, rel=0.01)
        assert g.neighbor_resonance_shift(g.FieldConfig(0.0), 4.628e-6) == 0.0
        assert g.neighbor_resonance_shift(g.FieldConfig(500.0), 2 * 4.628e-6) \
            == pytest.approx(2 * shift, rel=1e-12)
        with pytest.raises(ValueError):
            g.neighbor_resonance_shift(g.FieldConfig(500.0), -1e-6)

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
    def test_neighbor_shift_refuses_non_finite_distance(self, h):
        with pytest.raises(ValueError, match="finite and positive"):
            g.neighbor_resonance_shift(g.FieldConfig(500.0), h)

    @pytest.mark.parametrize("name", sorted(g.PRESETS))
    def test_g_factor_scales_couplings_exactly(self, name):
        # dw/dz is linear in g, so halving g halves eps and quarters J, exactly
        half = replace(g.DEFAULT_CONSTANTS, g_factor=1.0)
        layout, field = g.preset_layout_field(name)
        layout_half, _ = g.preset_layout_field(name, half)
        for gradient in np.linspace(10.0, 2000.0, 25):
            field = replace(field, gradient=float(gradient))
            full = g.solve_chain(layout, field).couplings
            c = g.solve_chain(layout_half, field).couplings
            assert c.dwdz == full.dwdz / 2
            assert c.J == full.J / 4
            assert c.J13 == full.J13 / 4
            assert np.array_equal(c.eps, full.eps / 2)
            assert c.eps_max == full.eps_max / 2


class TestFieldValidation:
    @pytest.mark.parametrize("name", ["gradient", "b0", "eta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, name, bad):
        values = {"gradient": 500.0, "b0": 1.0, "eta": 1e-6, name: bad}
        with pytest.raises(ValueError, match="finite"):
            g.FieldConfig(**values)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            g.FieldConfig(-1.0)
        with pytest.raises(ValueError, match="non-negative"):
            g.FieldConfig(500.0, eta=-1e-6)

    @pytest.mark.parametrize("name, value", [
        ("gradient", 1e150), ("gradient", 1e300), ("b0", 1e300), ("b0", -1e300),
        ("eta", 1e200), *[(name, np.nextafter(hi, np.inf))
                          for name, (_lo, hi) in FIELD_RANGE.items()]])
    def test_out_of_range_rejected(self, name, value):
        # 1e150 T/m gave J = inf; b0 = 1e300 inf qubit frequencies; eta = 1e200
        # an OverflowError in eta'
        values = {"gradient": 500.0, "b0": 1.0, "eta": 1e-6, name: value}
        with pytest.raises(ValueError, match=f"field {name} must be finite, .* at most"):
            g.FieldConfig(**values)

    def test_range_corners_stay_finite(self):
        # every layout corner of trap.STIFFNESS_RANGE in every field corner of
        # FIELD_RANGE: no warning (an error under the test settings), all finite
        for gradient, b0, eta in itertools.product(*FIELD_RANGE.values()):
            field = g.FieldConfig(gradient, b0=b0, eta=eta)
            for layout in stiffness_corner_layouts():
                c = g.solve_chain(layout, field).couplings
                values = [*c.w, c.J, c.J13, *c.eps.ravel(), c.eps_max, *c.eta_prime.ravel(),
                          *g.carrier_spectrum(c).transitions.ravel()]
                assert np.all(np.isfinite(values)), (layout, field)


class TestCouplings:
    def test_table1_d4_values(self, d4_chain):
        couplings = d4_chain.couplings
        assert couplings.J / (g.TWO_PI * 1e3) == pytest.approx(0.459, rel=0.03)
        assert couplings.J13 / (g.TWO_PI * 1e3) == pytest.approx(0.135, rel=0.04)
        assert couplings.eps_max == pytest.approx(0.0340, rel=0.03)

    def test_table3_h4_values(self):
        couplings = g.solve_chain(*g.preset_layout_field("table3-h4")).couplings
        assert couplings.J / (g.TWO_PI * 1e3) == pytest.approx(0.359, rel=0.03)
        assert couplings.J13 / (g.TWO_PI * 1e3) == pytest.approx(0.254, rel=0.03)
        assert couplings.eps_max == pytest.approx(0.0263, rel=0.03)

    def test_zero_gradient_kills_couplings(self, d4_chain):
        eq, modes = d4_chain.equilibrium, d4_chain.modes
        couplings = g.compute_couplings(modes, g.FieldConfig(0.0), eq)
        assert couplings.J == 0.0 and couplings.J13 == 0.0
        assert np.all(couplings.eps == 0.0)
        assert np.all(couplings.eta_prime == couplings.eta)

    def test_lamb_dicke_formula_and_eta_prime(self, d4_chain):
        field, modes = d4_chain.field, d4_chain.modes
        eps, eps_max, eta_prime = g.effective_lamb_dicke(modes, field)
        c = g.DEFAULT_CONSTANTS
        dwdz = 2 * c.mu_b * field.gradient / c.hbar
        for i in range(3):
            for l in range(3):
                expected = modes.D[i, l] * np.sqrt(c.hbar / (2 * c.mass * modes.nu[l])) \
                    * dwdz / modes.nu[l]
                assert eps[i, l] == pytest.approx(expected, rel=1e-12)
        assert eps_max == pytest.approx(np.max(np.abs(eps)), rel=1e-15)
        assert np.allclose(eta_prime, np.sqrt(field.eta**2 + eps**2), rtol=1e-12)

    def test_sign_flip_invariance_of_J(self, d4_chain, rng):
        field, eq, modes = d4_chain.field, d4_chain.equilibrium, d4_chain.modes
        couplings = d4_chain.couplings
        for _ in range(10):
            signs = rng.choice([-1.0, 1.0], size=3)
            flipped = replace(modes, D=modes.D * signs[np.newaxis, :])
            c2 = g.compute_couplings(flipped, field, eq)
            assert c2.J == pytest.approx(couplings.J, rel=1e-12)
            assert c2.J13 == pytest.approx(couplings.J13, rel=1e-12)
            assert c2.eps_max == couplings.eps_max

    def test_j12_equals_j23_for_symmetric_layouts(self, rng):
        c = g.DEFAULT_CONSTANTS
        for _ in range(10):
            layout = g.TrapLayout.multi_trap(rng.uniform(2e-6, 7e-6),
                                             g.TWO_PI * rng.uniform(0.3e6, 3e6),
                                             g.TWO_PI * rng.uniform(0.1e6, 3e6))
            eq = g.solve_equilibrium(layout)
            modes = g.normal_modes(layout, eq)
            dwdz = 2 * c.mu_b * 500.0 / c.hbar
            jmat = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    jmat[i, j] = sum(
                        c.hbar / (2 * c.mass * modes.nu[l] ** 2)
                        * modes.D[i, l] * modes.D[j, l] * dwdz**2 for l in range(3))
            assert abs(jmat[0, 1] - jmat[1, 2]) <= 1e-10 * abs(jmat[0, 1])
            packaged = g.compute_couplings(modes, g.FieldConfig(500.0), eq)
            assert packaged.J == pytest.approx(jmat[0, 1], rel=1e-10)
            assert packaged.J13 == pytest.approx(jmat[0, 2], rel=1e-10)

    def test_mode_sum_equals_inverse_hessian_route(self, d4_chain, rng):
        # J_ij = (hbar/2) (dw/dz)^2 [K^-1]_ij since K = m D diag(nu^2) D^T;
        # inverting the Hessian directly is an independent route to the same
        # couplings, with no eigendecomposition involved
        layout, eq = d4_chain.layout, d4_chain.equilibrium
        couplings = d4_chain.couplings
        c = g.DEFAULT_CONSTANTS
        kinv = np.linalg.inv(g.potential_hessian(layout, eq.positions))
        jmat = 0.5 * c.hbar * couplings.dwdz**2 * kinv
        assert couplings.J == pytest.approx(jmat[0, 1], rel=1e-10)
        assert couplings.J13 == pytest.approx(jmat[0, 2], rel=1e-10)

    def test_gradient_axis_matches_scalar_expressions(self, d4_chain, rng):
        # a whole gradient axis in one call must give, bit for bit, what the
        # same helpers give one Python-float gradient at a time, and eps_max
        # as max_l (max_i |D_il|) times the scale must equal max |eps|
        from gradion.couplings import _ising, _lamb_dicke_scale
        modes, c = d4_chain.modes, g.DEFAULT_CONSTANTS
        grads = rng.uniform(1.0, 2000.0, 20_000)
        dwdz = g.couplings.frequency_gradient(grads, c)
        J = _ising(modes.kinv12, dwdz, c)
        scale = _lamb_dicke_scale(modes.nu, dwdz[:, np.newaxis], c)
        eps_max = np.max(np.max(np.abs(modes.D), axis=0) * scale, axis=-1)
        for k, x in enumerate(dwdz.tolist()):
            assert J[k] == _ising(modes.kinv12, x, c)
            eps = modes.D * _lamb_dicke_scale(modes.nu, x, c)
            assert np.array_equal(scale[k], _lamb_dicke_scale(modes.nu, x, c))
            assert eps_max[k] == np.max(np.abs(eps))

    @settings(max_examples=200, deadline=None)
    @given(layout=layouts(), gradient=st.floats(50.0, 1500.0))
    def test_couplings_match_exact_inverse_hessian(self, layout, gradient):
        # [K^-1] entries and J, J13 within a few ulp of exact rational values
        chain = g.solve_chain(layout, g.FieldConfig(gradient))
        modes, c = chain.modes, chain.couplings
        k12, k13 = exact_inverse_hessian(layout, chain.equilibrium.h)
        scale = Fraction(0.5 * layout.constants.hbar) * Fraction(c.dwdz) ** 2
        ulp = np.finfo(float).eps
        for got, exact in ((modes.kinv12, k12), (modes.kinv13, k13),
                           (c.J, scale * k12), (c.J13, scale * k13)):
            assert abs(Fraction(got) - exact) <= 8 * ulp * exact
        # J within 1e-13 of the mode sum over the eigh oracle's modes; J13 is
        # a difference of mode terms there, good only to a few 1e-13, so the
        # exact values above are its judge
        nu, D = normal_modes_eigh_oracle(layout, chain.equilibrium)
        jmat = ising_matrix_oracle(D, nu, c.dwdz, layout.constants)
        assert c.J == pytest.approx(jmat[0, 1], rel=1e-13, abs=0)

    def test_scaling_with_gradient(self, d4_chain):
        eq, modes = d4_chain.equilibrium, d4_chain.modes
        low = g.compute_couplings(modes, g.FieldConfig(200.0), eq)
        high = g.compute_couplings(modes, g.FieldConfig(600.0), eq)
        assert high.eps_max == pytest.approx(3.0 * low.eps_max, rel=1e-12)
        assert high.J == pytest.approx(9.0 * low.J, rel=1e-12)
        assert high.J13 == pytest.approx(9.0 * low.J13, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(d_um=st.floats(1.0, 8.0), w1_mhz=st.floats(0.3, 4.0),
           w2_mhz=st.floats(0.05, 3.0),
           gradients=st.lists(st.floats(1.0, 2000.0), min_size=2, max_size=6))
    def test_couplings_are_exact_powers_of_gradient(self, d_um, w1_mhz, w2_mhz,
                                                    gradients):
        # J / B'^2 and eps_max / B' along a gradient axis, each from its own solve
        layout = g.TrapLayout.multi_trap(d_um * 1e-6, g.TWO_PI * w1_mhz * 1e6,
                                         g.TWO_PI * w2_mhz * 1e6)
        scaled = []
        for grad in gradients:
            c = g.solve_chain(layout, g.FieldConfig(grad)).couplings
            scaled.append((c.J / grad**2, c.eps_max / grad))
        for j, eps in scaled[1:]:
            assert j == pytest.approx(scaled[0][0], rel=1e-12)
            assert eps == pytest.approx(scaled[0][1], rel=1e-12)


class TestSpinSpectrum:
    def test_corner_energies_closed_form(self, rng):
        couplings = random_couplings(rng)
        w, J, J13 = couplings.w, couplings.J, couplings.J13
        spectrum = g.spin_spectrum(couplings)
        assert spectrum.energies[0] == pytest.approx(
            -0.5 * np.sum(w) - J - 0.5 * J13, rel=1e-14)
        assert spectrum.energies[7] == pytest.approx(
            +0.5 * np.sum(w) - J - 0.5 * J13, rel=1e-14)
        # second listed state |100>
        assert spectrum.energies[4] == pytest.approx(
            0.5 * (w[0] - w[1] - w[2]) + 0.5 * J13, rel=1e-14)

    def test_decoupled_limit(self, rng):
        couplings = random_couplings(rng)
        bare = replace(couplings, J=0.0, J13=0.0)
        spectrum = g.spin_spectrum(bare)
        for b in range(8):
            signs = np.array([1 if b & (4 >> i) else -1 for i in range(3)])
            assert spectrum.energies[b] == pytest.approx(
                0.5 * float(signs @ bare.w), rel=1e-14)

    def test_matches_explicit_matrix(self, rng):
        for _ in range(10):
            couplings = random_couplings(rng)
            H = spin_hamiltonian_oracle(couplings.w, couplings.J, couplings.J13)
            diag = np.real(np.diagonal(H))
            energies = g.spin_spectrum(couplings).energies
            assert np.max(np.abs(energies - diag)) <= 1e-12 * np.max(np.abs(diag))

    def test_bit_identical_to_scalar_oracle(self, rng):
        # every preset with randomised w, J and J13, in the lab frame and in
        # the interaction frame (w = 0, where index 0 carries -0.0 terms)
        cases = [random_couplings(rng) for _ in range(20)]
        for name in sorted(g.PRESETS):
            base = g.solve_chain(*g.preset_layout_field(name)).couplings
            cases.append(base)
            cases += [replace(base, w=base.w * rng.uniform(0.5, 2.0, 3),
                              J=base.J * rng.uniform(0.1, 10.0),
                              J13=base.J13 * rng.uniform(0.1, 10.0))
                      for _ in range(50)]
        for couplings in cases:
            for c in (couplings, replace(couplings, w=np.zeros(3))):
                oracle = np.array([spin_energy_oracle(c, b) for b in range(8)])
                assert g.spin_spectrum(c).energies.tobytes() == oracle.tobytes()


class TestSignTable:
    def test_columns_are_pauli_z_diagonals(self):
        for ion in (1, 2, 3):
            diagonal = np.diagonal(embed3(SZ2, ion))
            assert np.array_equal(Z_SIGNS[:, ion - 1], diagonal.real)
            assert not np.any(diagonal.imag)

    def test_read_only(self):
        with pytest.raises(ValueError):
            Z_SIGNS[0, 0] = 1.0

    def test_cnot_matrix_bytes_match_bit_loop_oracle(self):
        for control in (1, 2, 3):
            for target in (1, 2, 3):
                if control == target:
                    with pytest.raises(ValueError):
                        cnot_matrix(control, target)
                    continue
                assert (cnot_matrix(control, target).tobytes()
                        == cnot_permutation(control, target).tobytes())


class TestCarrierSpectrum:
    def test_bytes_match_bit_loop_oracle(self, rng):
        sets = [g.solve_chain(*g.preset_layout_field(name)).couplings
                for name in sorted(g.PRESETS)]
        sets += [random_couplings(rng, w_scale) for w_scale in (1e3, 1e7, 1e11)
                 for _ in range(100)]
        for couplings in sets:
            spec, oracle = g.carrier_spectrum(couplings), carrier_spectrum_oracle(couplings)
            assert spec.transitions.tobytes() == oracle.transitions.tobytes()
            assert spec.spreads.tobytes() == oracle.spreads.tobytes()

    def test_entries_are_spectrum_differences(self, rng):
        couplings = random_couplings(rng)
        spec = g.carrier_spectrum(couplings)
        energies = [spin_energy_oracle(couplings, b) for b in range(8)]
        for ion, bit in ((1, 2), (2, 1), (3, 0)):
            seen = []
            for low in range(8):
                if low & (1 << bit):
                    continue
                seen.append(energies[low | (1 << bit)] - energies[low])
            assert sorted(seen) == pytest.approx(sorted(spec.transitions[ion - 1]),
                                                 rel=1e-12)

    def test_spreads(self, rng):
        couplings = random_couplings(rng)
        spec = g.carrier_spectrum(couplings)
        assert spec.spreads[1] == pytest.approx(4 * couplings.J, rel=1e-12)
        assert spec.spreads[0] == pytest.approx(
            2 * (couplings.J + couplings.J13), rel=1e-12)
        assert spec.spreads[2] == pytest.approx(
            2 * (couplings.J + couplings.J13), rel=1e-12)

    def test_degenerate_when_uncoupled(self, rng):
        couplings = replace(random_couplings(rng), J=0.0, J13=0.0)
        spec = g.carrier_spectrum(couplings)
        assert np.max(spec.spreads) == 0.0
        for ion in range(3):
            assert np.ptp(spec.transitions[ion]) == 0.0


class TestHeatingTime:
    def test_reference_scaling(self):
        t = g.heating_time_scaled(4e-3, 100e-6, 4e-6)
        assert t == pytest.approx(4e-3 * (4 / 100) ** 4, rel=1e-12)
        assert 9e-9 < t < 11.5e-9  # "order of nanoseconds"

    def test_identity_and_power(self):
        assert g.heating_time_scaled(4e-3, 100e-6, 100e-6) == pytest.approx(4e-3)
        assert g.heating_time_scaled(1.0, 1e-6, 2e-6) == pytest.approx(16.0)
        with pytest.raises(ValueError):
            g.heating_time_scaled(1.0, 1e-6, -2e-6)

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, position, bad):
        args = [4e-3, 100e-6, 4e-6]
        args[position] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            g.heating_time_scaled(*args)

    @pytest.mark.parametrize("args", [(1.0, 1e-100, 1e100), (1e300, 1e-6, 1e-3)])
    def test_overflow_refused(self, args):
        # the first overflows in the fourth power, the second in the product
        with pytest.raises(ValueError, match="overflows"):
            g.heating_time_scaled(*args)


class TestSolveChain:
    def test_matches_step_by_step_pipeline_with_layout_constants(self):
        constants = g.DEFAULT_CONSTANTS.with_mass_amu(171.0)
        layout, field = g.preset_layout_field("table1-d4", constants)
        chain = g.solve_chain(layout, field)
        eq = g.solve_equilibrium(layout)
        modes = g.normal_modes(layout, eq)
        want = g.compute_couplings(modes, field, eq, constants)
        assert chain.layout is layout and chain.field is field
        np.testing.assert_array_equal(chain.equilibrium.positions, eq.positions)
        np.testing.assert_array_equal(chain.modes.nu, modes.nu)
        np.testing.assert_array_equal(chain.modes.D, modes.D)
        got = chain.couplings
        assert (got.J, got.J13, got.dwdz, got.eps_max) == (
            want.J, want.J13, want.dwdz, want.eps_max)
        np.testing.assert_array_equal(got.w, want.w)
        np.testing.assert_array_equal(got.eps, want.eps)
        default = g.solve_chain(*g.preset_layout_field("table1-d4")).couplings
        assert abs(got.J / default.J - 1.0) > 1e-3
        assert abs(got.eps_max / default.eps_max - 1.0) > 1e-3
