import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradion as g
from gradion import trap

import util
from util import (exact_force_residual, exact_outer_displacement, layouts,
                  normal_modes_eigh_oracle, newton_equilibrium_oracle, oracle_positions,
                  stiffness_corner_layouts)


def make_multi(d=4e-6, w1=g.TWO_PI * 1.37e6, w2=g.TWO_PI * 1.24e6):
    return g.TrapLayout.multi_trap(d, w1, w2)


W = g.TWO_PI * 1e6

# 0.1 um wells at 2pi * 0.05 MHz: the old solver's stop rule, 1e-9 of the
# force at the trap centers, is 6e-5 of the Coulomb force of the 21.7 um chain
SMALL_SPACING = dict(d=0.1e-6, w1=g.TWO_PI * 0.05e6, w2=g.TWO_PI * 0.05e6)


def preset_layouts():
    return [g.preset_layout_field(name)[0] for name in sorted(g.PRESETS)]


def sound_layouts():
    """Presets, the stage-1 W1 grid at d = 1..7 um, and 20 linear traps."""
    grid = [make_multi(d * 1e-6, float(w1))
            for d in range(1, 8) for w1 in np.linspace(*g.SearchSpace().w1)]
    linear = [g.TrapLayout.linear(float(w))
              for w in np.geomspace(g.TWO_PI * 0.05e6, g.TWO_PI * 10e6, 20)]
    return preset_layouts() + grid + linear


def extreme_layouts():
    return [make_multi(**SMALL_SPACING),
            make_multi(1e-3, g.TWO_PI * 10e6, g.TWO_PI * 1e6),
            make_multi(50e-6, g.TWO_PI * 0.1e6, g.TWO_PI * 3e6)]


class TestTotalPotential:
    def test_pure_coulomb_at_centers(self):
        # ions exactly at their centers: the harmonic terms vanish
        layout = g.TrapLayout.multi_trap(1.0, g.TWO_PI * 1e6, g.TWO_PI * 1e6)
        expected = g.DEFAULT_CONSTANTS.coulomb * (1.0 + 1.0 + 0.5)
        assert np.isclose(g.total_potential(layout, layout.centers), expected,
                          rtol=1e-14)

    def test_parity_symmetry(self):
        layout = make_multi()
        z = np.array([-4.7e-6, 0.1e-6, 4.5e-6])
        assert np.isclose(g.total_potential(layout, z),
                          g.total_potential(layout, -z[::-1]), rtol=1e-14)

    def test_rejects_overlapping_ions(self):
        layout = make_multi()
        with pytest.raises(ValueError):
            g.total_potential(layout, np.array([0.0, 0.0, 1e-6]))
        with pytest.raises(ValueError):
            g.total_potential(layout, np.array([1e-6, 0.0, 2e-6]))

    def test_gradient_vanishes_at_linear_equilibrium(self):
        layout = g.TrapLayout.linear(g.TWO_PI * 0.628e6)
        eq = g.solve_equilibrium(layout)
        force_scale = layout.constants.coulomb / eq.h**2
        # analytic gradient at the solution
        assert np.max(np.abs(g.potential_gradient(layout, eq.positions))) \
            < 1e-9 * force_scale
        # central finite differences of the potential itself
        step = 2e-11
        for axis in range(3):
            zp, zm = eq.positions.copy(), eq.positions.copy()
            zp[axis] += step
            zm[axis] -= step
            fd = (g.total_potential(layout, zp) - g.total_potential(layout, zm)) \
                / (2 * step)
            assert abs(fd) < 1e-9 * force_scale


class TestSolveEquilibrium:
    def test_table1_d4_row(self):
        eq = g.solve_equilibrium(make_multi())
        assert eq.delta * 1e6 == pytest.approx(0.628, rel=0.01)
        assert eq.h * 1e6 == pytest.approx(4.628, rel=0.01)
        assert eq.h == pytest.approx(4e-6 + eq.delta, rel=1e-12, abs=0)

    def test_table3_h4_spacing(self):
        eq = g.solve_equilibrium(g.TrapLayout.linear(g.TWO_PI * 0.628e6))
        assert eq.h * 1e6 == pytest.approx(4.0, rel=0.01)

    def test_single_ion_rests_at_trap_center(self):
        center = np.array([1.3e-6])
        freqs = np.array([g.TWO_PI * 1e6])
        z, residual, _ = newton_equilibrium_oracle(
            np.array([0.2e-6]), center, freqs, g.DEFAULT_CONSTANTS)
        assert z[0] == pytest.approx(center[0], abs=1e-18)
        assert residual < 1e-18

    def test_reflection_symmetry(self, rng):
        for _ in range(20):
            d = rng.uniform(1e-6, 8e-6)
            w1 = g.TWO_PI * rng.uniform(0.3e6, 3e6)
            w2 = g.TWO_PI * rng.uniform(0.1e6, 3e6)
            eq = g.solve_equilibrium(g.TrapLayout.multi_trap(d, w1, w2))
            assert abs(eq.positions[0] + eq.positions[2] - 2 * eq.positions[1]) \
                < 1e-12 * eq.h

    def test_linear_spacing_closed_form(self, rng):
        for _ in range(20):
            w = g.TWO_PI * rng.uniform(0.2e6, 3e6)
            layout = g.TrapLayout.linear(w)
            eq = g.solve_equilibrium(layout)
            spacing = g.linear_spacing(w)
            # np.cbrt of the same c; the Newton step may lower it by one ulp
            assert abs(abs(eq.positions[2]) - spacing) <= np.spacing(spacing)
            exact = exact_outer_displacement(layout)
            assert abs(Fraction(spacing) - exact) <= exact * Fraction(2) ** -52

    def test_nonconvergence_is_diagnostic(self, monkeypatch):
        monkeypatch.setattr(util, "MAX_NEWTON_ITERATIONS", 1)
        layout = make_multi()
        with pytest.raises(util.OracleConvergenceError) as err:
            newton_equilibrium_oracle(layout.centers, layout.centers,
                                      layout.frequencies, layout.constants)
        assert err.value.residual > 0.0 and err.value.iterations == 1
        assert "residual" in str(err.value)

    def test_delta_within_8_ulp_of_exact_root(self):
        for layout in sound_layouts() + extreme_layouts():
            eq = g.solve_equilibrium(layout)
            exact = exact_outer_displacement(layout)
            ulps = abs(Fraction(eq.delta) - exact) / Fraction(math.ulp(float(exact)))
            assert ulps <= 8, (layout, float(ulps))
            assert 1 <= eq.iterations <= 10

    def test_positions_match_newton_oracle(self):
        for layout in sound_layouts():
            eq = g.solve_equilibrium(layout)
            assert np.max(np.abs(eq.positions - oracle_positions(layout))) \
                <= 1e-8 * eq.h, layout

    def test_force_balance_is_exact_to_rounding(self):
        for layout in preset_layouts():
            eq = g.solve_equilibrium(layout)
            assert exact_force_residual(layout, eq.positions) <= 4e-15, layout
            assert eq.residual <= 1e-14 * layout.constants.coulomb / eq.h**2

    def test_small_spacing_force_balance(self):
        layout = make_multi(**SMALL_SPACING)
        eq = g.solve_equilibrium(layout)
        assert eq.h == pytest.approx(21.66e-6, rel=1e-3)
        assert exact_force_residual(layout, eq.positions) <= 1e-15

    def test_exact_mirror_symmetry_independent_of_w2(self, rng):
        for _ in range(20):
            d = rng.uniform(1e-6, 8e-6)
            w1 = g.TWO_PI * rng.uniform(0.3e6, 3e6)
            eq = g.solve_equilibrium(g.TrapLayout.multi_trap(d, w1, g.TWO_PI * 1e6))
            z = eq.positions
            assert z[1] == 0.0
            assert z[0] + z[2] == 2 * z[1]
            for w2 in g.TWO_PI * rng.uniform(0.1e6, 3e6, 3):
                other = g.solve_equilibrium(g.TrapLayout.multi_trap(d, w1, w2))
                assert np.array_equal(other.positions, z)
                assert (other.delta, other.h) == (eq.delta, eq.h)

class TestNormalModes:
    def test_linear_chain_closed_form(self):
        w = g.TWO_PI * 0.9e6
        layout = g.TrapLayout.linear(w)
        eq = g.solve_equilibrium(layout)
        modes = g.normal_modes(layout, eq)
        assert modes.nu == pytest.approx(
            w * np.sqrt(np.array([1.0, 3.0, 29.0 / 5.0])), rel=1e-10)
        # sign convention: the largest-magnitude entry of each column positive
        expected = np.column_stack([
            np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
            np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0),
            np.array([-1.0, 2.0, -1.0]) / np.sqrt(6.0),
        ])
        assert np.allclose(modes.D, expected, atol=1e-9)

    def test_table1_d4_frequencies(self, d4_chain):
        modes = d4_chain.modes
        assert modes.nu / (g.TWO_PI * 1e6) == pytest.approx([1.32, 1.54, 1.70],
                                                            rel=0.02)

    def test_hessian_matches_finite_differences(self, d4_chain):
        layout, eq = d4_chain.layout, d4_chain.equilibrium
        analytic = g.potential_hessian(layout, eq.positions)
        step = 3e-9
        fd = np.zeros((3, 3))
        for a in range(3):
            for b in range(3):
                corners = []
                for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    z = eq.positions.copy()
                    z[a] += sa * step
                    z[b] += sb * step
                    corners.append(g.total_potential(layout, z))
                fd[a, b] = (corners[0] - corners[1] - corners[2] + corners[3]) \
                    / (4 * step**2)
        assert np.max(np.abs(fd - analytic)) / np.max(np.abs(analytic)) < 1e-6

    def test_orthogonality_and_reconstruction(self, rng):
        for _ in range(15):
            layout = g.TrapLayout.multi_trap(rng.uniform(2e-6, 7e-6),
                                             g.TWO_PI * rng.uniform(0.3e6, 3e6),
                                             g.TWO_PI * rng.uniform(0.1e6, 3e6))
            eq = g.solve_equilibrium(layout)
            modes = g.normal_modes(layout, eq)
            assert np.max(np.abs(modes.D.T @ modes.D - np.eye(3))) < 1e-12
            hessian = g.potential_hessian(layout, eq.positions)
            rebuilt = modes.D @ np.diag(layout.constants.mass * modes.nu**2) \
                @ modes.D.T
            assert np.max(np.abs(rebuilt - hessian)) < 1e-10 * np.max(np.abs(hessian))
            assert np.all(modes.nu > 0)

    def test_unstable_configuration_raises(self, d4_chain, monkeypatch):
        layout, eq = d4_chain.layout, d4_chain.equilibrium
        chain_modes = trap._chain_modes

        def negated(*args):
            evals, *rest = chain_modes(*args)
            return (-evals, *rest)

        monkeypatch.setattr(trap, "_chain_modes", negated)
        with pytest.raises(g.UnstableModesError):
            g.normal_modes(layout, eq)


#: below this gap between Hessian eigenvalues, relative to the largest, an
#: eigensolver's mode vectors are not accurate to 1e-13 (the error of eigh
#: scales as 1e-16 over the gap), so the vectors are not compared there
NEAR_DEGENERATE = 1e-2


class TestClosedFormModes:
    """The closed-form modes against an eigh of the Hessian."""

    @settings(max_examples=200, deadline=None)
    @given(layout=layouts(), gradient=st.floats(50.0, 1500.0))
    def test_modes_match_eigh_oracle(self, layout, gradient):
        chain = g.solve_chain(layout, g.FieldConfig(gradient))
        modes = chain.modes
        nu, D = normal_modes_eigh_oracle(layout, chain.equilibrium)
        assert np.max(np.abs(modes.nu - nu) / nu) <= 1e-13
        eps = D * g.couplings._lamb_dicke_scale(nu, chain.couplings.dwdz, layout.constants)
        eps_ratio = chain.couplings.eps_max / np.max(np.abs(eps))
        lam = nu * nu
        gap = np.min(np.diff(lam)) / lam[-1]
        if gap >= NEAR_DEGENERATE:
            assert np.max(np.abs(modes.D - D)) <= 1e-13
            assert abs(eps_ratio - 1.0) <= 1e-13
        assert np.max(np.abs(modes.D - D)) * gap <= 4e-15
        assert abs(eps_ratio - 1.0) * gap <= 4e-15

    @settings(max_examples=200, deadline=None)
    @given(layout=layouts())
    def test_orthonormal_and_rebuild_hessian(self, layout):
        eq = g.solve_equilibrium(layout)
        modes = g.normal_modes(layout, eq)
        assert np.all(np.diff(modes.nu) >= 0.0)
        assert np.max(np.abs(modes.D.T @ modes.D - np.eye(3))) <= 2e-15
        hessian = g.potential_hessian(layout, eq.positions)
        rebuilt = modes.D @ np.diag(layout.constants.mass * modes.nu**2) @ modes.D.T
        assert np.max(np.abs(rebuilt - hessian)) <= 1e-14 * np.max(np.abs(hessian))
        for col in modes.D.T:
            mags = np.abs(col)
            assert col[np.flatnonzero(mags >= mags.max() * (1.0 - 1e-9))[0]] > 0.0

    def test_arrays_match_single_layouts_bit_for_bit(self):
        # a search stage evaluates these helpers over (W1, W2) arrays; every
        # value must be what solve_equilibrium and normal_modes give alone
        c = g.DEFAULT_CONSTANTS
        space = g.SearchSpace()
        w1s, w2s = np.linspace(*space.w1), np.linspace(*space.w2)
        for d in np.random.default_rng(4).uniform(1e-6, 7e-6, 20).tolist() + [4e-6]:
            delta, _steps = trap._outer_displacement(w1s, d, c)
            evals, centre, side, wide, kinv12, kinv13 = trap._chain_modes(
                w1s[:, np.newaxis], w2s, (d + delta)[:, np.newaxis], c)
            D = trap._mode_matrix(centre, side, wide)
            for i, w1 in enumerate(w1s.tolist()):
                for j, w2 in enumerate(w2s.tolist()):
                    layout = g.TrapLayout.multi_trap(d, w1, w2)
                    eq = g.solve_equilibrium(layout)
                    assert (eq.delta, eq.h) == (delta[i], d + delta[i])
                    modes = g.normal_modes(layout, eq)
                    order = np.argsort(evals[i, j], kind="stable")
                    assert np.array_equal(modes.nu, np.sqrt(evals[i, j][order] / c.mass))
                    assert np.array_equal(np.abs(modes.D), np.abs(D[i, j][:, order]))
                    assert (modes.kinv12, modes.kinv13) == (kinv12[i, j], kinv13[i, j])


class TestConstantsValidation:
    @pytest.mark.parametrize("name", ["charge", "epsilon0", "hbar", "mu_b", "amu",
                                      "mass", "g_factor", "hyperfine"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_rejected(self, name, bad):
        if name in ("mass", "g_factor", "hyperfine"):
            with pytest.raises(ValueError, match=f"{name} must be finite and strictly positive"):
                g.PhysicalConstants(**{name: bad})
        else:  # a fixed constant: no value of it can be set
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                g.PhysicalConstants(**{name: bad})

    def test_fixed_constants(self):
        c = g.PhysicalConstants()
        assert [f.name for f in dataclasses.fields(c)] == ["mass", "g_factor", "hyperfine"]
        # e^2 / (4 pi eps0) as the former per-access property computed it
        assert c.coulomb == 2.3070775523417355e-28
        assert (c.hbar, c.mu_b, c.amu) == (1.054571817e-34, 9.2740100783e-24,
                                           1.66053906660e-27)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.hbar = 1.0


class TestLayoutValidation:
    @pytest.mark.parametrize("make, args, match", [
        (g.TrapLayout, (-1e-6, W, W), "non-negative"),
        *[(g.TrapLayout, (4e-6, W, W)[:i] + (bad,) + (4e-6, W, W)[i + 1:], "finite")
          for i in range(3) for bad in (np.nan, np.inf, -np.inf)],
        # d = 0 is one linear trap: its two frequencies must agree exactly
        (g.TrapLayout, (0.0, W, W * (1 + 2**-52)), "W1 must equal W2"),
        (g.TrapLayout, (0.0, W, 0.5 * W), "W1 must equal W2"),
        (g.TrapLayout.multi_trap, (0.0, W, W), "finite, positive trap spacing"),
        (g.TrapLayout.multi_trap, (np.nan, W, W), "finite, positive trap spacing"),
        (g.TrapLayout.multi_trap, (np.inf, W, W), "finite"),
    ])
    def test_bad_layout_refused(self, make, args, match):
        with pytest.raises(ValueError, match=match):
            make(*args)

    def test_derived_arrays_match_the_stored_format(self):
        # bit for bit the arrays multi_trap and linear used to store
        for layout in preset_layouts():
            d, w1, w2 = layout.d, layout.w1, layout.w2
            if layout.mode == "multi":
                centers, freqs = np.array([-d, 0.0, d]), np.array([w1, w2, w1])
            else:
                assert (d, w1) == (0.0, w2)
                centers, freqs = np.zeros(3), np.full(3, w1)
            assert layout.centers.tobytes() == centers.tobytes()
            assert layout.frequencies.tobytes() == freqs.tobytes()
        assert g.TrapLayout.linear(W) == g.TrapLayout(0.0, W, W)
        assert g.TrapLayout.multi_trap(4e-6, W, 2 * W).mode == "multi"

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            g.TrapLayout.linear(-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frequency_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            g.TrapLayout.linear(bad)
        with pytest.raises(ValueError, match="finite"):
            g.TrapLayout.multi_trap(4e-6, bad, g.TWO_PI * 1e6)
        with pytest.raises(ValueError, match="finite"):
            g.TrapLayout.multi_trap(4e-6, g.TWO_PI * 1e6, bad)

    def test_frequency_for_spacing_inverts_spacing(self):
        w = g.linear_frequency_for_spacing(4e-6)
        assert g.linear_spacing(w) == pytest.approx(4e-6, rel=1e-12, abs=0)

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 0.0, -4e-6, 1e-200, 1e200])
    def test_frequency_for_spacing_refuses_bad_spacing(self, h):
        with pytest.raises(ValueError, match="spacing must be finite and positive"):
            g.linear_frequency_for_spacing(h)

    @pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf, 0.0, -g.TWO_PI * 1e6,
                                   g.TWO_PI * 1e-200, g.TWO_PI * 1e200])
    def test_spacing_refuses_bad_frequency(self, w):
        # -2pi MHz used to give the spacing of +2pi MHz
        with pytest.raises(ValueError, match="trap frequency must be finite and positive"):
            g.linear_spacing(w)

    @pytest.mark.parametrize("w1_mhz", [1e-206, 1e-150, 1e200])
    def test_extreme_frequency_refused_before_nan(self, w1_mhz):
        # m W1^2 or 5 k / (4 m W1^2) leaves the float range, which gave NaN
        # eigenvalues and an IndexError in normal_modes' sign fix
        with pytest.raises(ValueError, match="stiffness"):
            g.TrapLayout.multi_trap(4e-6, g.TWO_PI * w1_mhz * 1e6, g.TWO_PI * 1.2e6)
        with pytest.raises(ValueError, match="stiffness"):
            g.TrapLayout.linear(g.TWO_PI * w1_mhz * 1e6)

    @pytest.mark.parametrize("d", [1e-200, 1e-50, 1e30, 1e200])
    def test_extreme_spacing_refused(self, d):
        with pytest.raises(ValueError, match="stiffness"):
            g.TrapLayout.multi_trap(d, g.TWO_PI * 1e6, g.TWO_PI * 1e6)

    def test_stiffness_range_edges_solve_finite(self):
        # every closed form stays finite, with no floating-point warning, at
        # the edges of the accepted range
        for layout in stiffness_corner_layouts():
            chain = g.solve_chain(layout, g.FieldConfig(1e4))
            cs = chain.couplings
            values = [chain.equilibrium.h, *chain.modes.nu, *chain.modes.D.ravel(),
                      cs.J, cs.J13, cs.eps_max, *cs.w]
            assert np.all(np.isfinite(values)) and chain.equilibrium.h > 0.0
