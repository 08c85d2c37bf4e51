import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradion as g
from gradion import search, trap
from gradion.couplings import FIELD_RANGE
from gradion.search import CandidateParams

from util import sweep_search_oracle


def multi_params(d_um, w1_mhz, w2_mhz, grad):
    return CandidateParams(d_um * 1e-6, g.TWO_PI * w1_mhz * 1e6, g.TWO_PI * w2_mhz * 1e6,
                           grad)


class TestEvaluateCandidate:
    def test_table1_d4_row(self):
        ev = g.evaluate_candidate(multi_params(4, 1.37, 1.24, 500.0))
        assert ev.feasible
        assert ev.equilibrium.delta * 1e6 == pytest.approx(0.628, rel=0.01)
        assert ev.equilibrium.h * 1e6 == pytest.approx(4.628, rel=0.01)
        assert ev.couplings.J / (g.TWO_PI * 1e3) == pytest.approx(0.459, rel=0.03)
        assert ev.couplings.J13 / (g.TWO_PI * 1e3) == pytest.approx(0.135, rel=0.04)
        assert ev.couplings.eps_max == pytest.approx(0.0340, rel=0.03)

    def test_table3_h2_row(self):
        ev = g.evaluate_candidate(
            CandidateParams(0.0, g.TWO_PI * 1.77e6, g.TWO_PI * 1.77e6, 750.0))
        assert ev.feasible
        assert ev.couplings.J / (g.TWO_PI * 1e3) == pytest.approx(1.12, rel=0.03)
        assert ev.couplings.J13 / (g.TWO_PI * 1e3) == pytest.approx(0.794, rel=0.03)

    def test_zero_gradient_feasible_with_zero_J(self):
        ev = g.evaluate_candidate(multi_params(4, 1.37, 1.24, 0.0))
        assert ev.feasible
        assert ev.couplings.J == 0.0


class TestMultitrapSearch:
    def small_space(self):
        return g.SearchSpace(
            w1=(g.TWO_PI * 1.0e6, g.TWO_PI * 2.0e6, 5),
            w2=(g.TWO_PI * 0.8e6, g.TWO_PI * 1.6e6, 5),
            gradient=(100.0, 800.0, 15))

    def test_beats_reference_row(self):
        result = g.maximize_J_multitrap(4e-6, self.small_space())
        assert result.feasible
        assert result.J >= g.TWO_PI * 459.0 * 0.97
        assert result.eps_max < 0.05
        assert result.evaluations > 0

    def test_beats_reference_row_d7(self):
        space = g.SearchSpace(w1=(g.TWO_PI * 0.5e6, g.TWO_PI * 1.2e6, 5),
                              w2=(g.TWO_PI * 0.4e6, g.TWO_PI * 1.0e6, 5),
                              gradient=(100.0, 400.0, 7))
        result = g.maximize_J_multitrap(7e-6, space)
        assert result.feasible
        assert result.J >= g.TWO_PI * 197.0 * 0.97
        assert result.eps_max < 0.05

    def test_empty_ceiling_infeasible(self):
        space = g.SearchSpace(w1=(g.TWO_PI * 1e6, g.TWO_PI * 2e6, 2),
                              w2=(g.TWO_PI * 1e6, g.TWO_PI * 2e6, 2),
                              gradient=(100.0, 200.0, 2), eps_ceiling=1e-9)
        result = g.maximize_J_multitrap(4e-6, space)
        assert not result.feasible
        assert result.params is None

    def test_reproducibility(self):
        space = self.small_space()
        r1 = g.maximize_J_multitrap(4e-6, space)
        r2 = g.maximize_J_multitrap(4e-6, space)
        assert r1.params == r2.params
        assert r1.J == r2.J and r1.evaluations == r2.evaluations

    def test_optimum_reevaluates_identically(self):
        result = g.maximize_J_multitrap(4e-6, self.small_space())
        ev = g.evaluate_candidate(result.params)
        assert ev.couplings.J == pytest.approx(result.J, rel=1e-12)
        assert ev.couplings.eps_max == pytest.approx(result.eps_max, rel=1e-12)

    def test_monotone_in_gradient_and_optimum_at_ceiling(self):
        result = g.maximize_J_multitrap(4e-6, self.small_space(),
                                        collect_trace=True)
        by_w = {}
        for params, J, eps, feas in result.trace:
            if params.w1 is None or np.isnan(J):
                continue
            by_w.setdefault((params.w1, params.w2), []).append(
                (params.gradient, J, eps, feas))
        assert by_w
        for points in by_w.values():
            points.sort()
            js = [p[1] for p in points]
            assert all(j2 >= j1 - 1e-18 for j1, j2 in zip(js, js[1:]))
            feasible = [p for p in points if p[3]]
            if feasible:
                best = max(feasible, key=lambda p: p[1])
                assert best[0] == max(p[0] for p in feasible)
        # the reported optimum dominates every feasible evaluated point
        all_feasible_j = [J for _, J, _, feas in result.trace if feas]
        assert result.J >= max(all_feasible_j) - 1e-18

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            g.maximize_J_multitrap(-1.0, self.small_space())
        with pytest.raises(ValueError):
            g.SearchSpace(eps_ceiling=2.0)
        with pytest.raises(ValueError):
            g.SearchSpace(w1=(-1.0, 1.0, 2))

    @pytest.mark.parametrize("d", [np.nan, np.inf, -np.inf, 0.0, -4e-6, 1e-200, 1e200])
    def test_refuses_bad_spacing(self, d):
        # 1e-200 and 1e200 m are finite, but k / d^3 leaves TrapLayout's range
        with pytest.raises(ValueError, match="spacing"):
            g.maximize_J_multitrap(d, self.small_space())

    @pytest.mark.parametrize("axis", ["w1", "w2"])
    @pytest.mark.parametrize("scale", [1e-60, 1e60])
    def test_refuses_grid_beyond_stiffness_range(self, axis, scale):
        lo, hi, count = getattr(self.small_space(), axis)
        grid = (lo * scale, hi, count) if scale < 1.0 else (lo, hi * scale, count)
        space = replace(self.small_space(), **{axis: grid})
        with pytest.raises(ValueError, match="stiffness"):
            g.maximize_J_multitrap(4e-6, space)


class TestSearchSpaceValidation:
    @pytest.mark.parametrize("grid", [(1e150, 1e300, 4), (50.0, 1e51, 3)])
    def test_refuses_gradient_beyond_field_range(self, grid):
        # (1e150, 1e300) used to overflow J into inf, with a RuntimeWarning
        with pytest.raises(ValueError, match="search grid gradient must stay within"):
            g.SearchSpace(gradient=grid)

    @pytest.mark.parametrize("axis", ["w1", "w2", "gradient"])
    @pytest.mark.parametrize("grid", [(1.0, np.inf, 3), (np.nan, 2.0, 3), (1.0, np.nan, 3),
                                      (2.0, 1.0, 3), (0.0, 1.0, 3), (1.0, 2.0, 0),
                                      (1.0, 2.0, 2.5), (1.0, 2.0, "3"), (1.0, 2.0, None)])
    def test_refuses_bad_grid(self, axis, grid):
        with pytest.raises(ValueError, match=f"search grid {axis} must be finite"):
            g.SearchSpace(**{axis: grid})

    def test_accepts_numpy_integer_counts(self):
        space = g.SearchSpace(gradient=(50.0, 150.0, np.int64(3)))
        plain = g.SearchSpace(gradient=(50.0, 150.0, 3))
        assert_same_search(g.maximize_J_linear(4e-6, space),
                           g.maximize_J_linear(4e-6, plain))

    @pytest.mark.parametrize("axis", ["w1", "w2", "gradient"])
    def test_numpy_integer_count_kept_as_int(self, axis):
        lo, hi, _count = getattr(g.SearchSpace(), axis)
        space = g.SearchSpace(**{axis: (lo, hi, np.int64(3))})
        assert getattr(space, axis) == (lo, hi, 3) and type(getattr(space, axis)[2]) is int
        result = g.maximize_J_multitrap(4e-6, space)
        assert type(result.evaluations) is int

    @pytest.mark.parametrize("axis", ["w1", "w2", "gradient"])
    @pytest.mark.parametrize("count", [True, False, np.True_])
    def test_refuses_bool_count(self, axis, count):
        # True used to pass as a count of one
        lo, hi, _count = getattr(g.SearchSpace(), axis)
        with pytest.raises(ValueError, match=f"search grid {axis} must be finite and "
                                             f"positive, with an integer count >= 1"):
            g.SearchSpace(**{axis: (lo, hi, count)})


class TestLinearSearch:
    def test_frequency_from_spacing(self):
        result = g.maximize_J_linear(4e-6, g.SearchSpace(gradient=(50, 150, 3)))
        assert result.feasible
        assert result.params.w1 / (g.TWO_PI * 1e6) == pytest.approx(0.628, rel=0.02)

    def test_reference_gradient_recovers_row(self):
        # gradient grid topping out at the row's 150 T/m
        result = g.maximize_J_linear(4e-6, g.SearchSpace(gradient=(50, 150, 3)))
        assert result.params.gradient == pytest.approx(150.0)
        assert result.J / (g.TWO_PI * 1e3) == pytest.approx(0.359, rel=0.03)
        assert result.J13 / (g.TWO_PI * 1e3) == pytest.approx(0.254, rel=0.03)

    def test_beats_reference_row_with_wide_grid(self):
        result = g.maximize_J_linear(4e-6, g.SearchSpace(gradient=(50, 1500, 30)))
        assert result.feasible
        assert result.J >= g.TWO_PI * 359.0 * 0.97
        assert result.eps_max < 0.05

    def test_spacing_scaling_of_frequency(self):
        w1 = g.linear_frequency_for_spacing(4e-6)
        w2 = g.linear_frequency_for_spacing(8e-6)
        assert w2 == pytest.approx(w1 * 2 ** -1.5, rel=1e-12)

    def test_optimum_at_largest_feasible_gradient(self):
        result = g.maximize_J_linear(4e-6, g.SearchSpace(gradient=(50, 1500, 30)),
                                     collect_trace=True)
        feasible = [p for p in result.trace if p[3]]
        assert result.params.gradient == max(p[0].gradient for p in feasible)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            g.maximize_J_linear(0.0)

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, -4e-6, 1e-200, 1e200])
    def test_refuses_non_finite_or_extreme_spacing(self, h):
        # nan used to search and report "no feasible point"; inf to warn
        with pytest.raises(ValueError, match="spacing must be finite and positive"):
            g.maximize_J_linear(h)


def bits(x):
    return struct.pack("<d", x)


def assert_same_search(result, oracle):
    """Equal SearchResults, floats bit for bit (NaN included), traces entry by entry."""
    assert result.params == oracle.params
    assert result.feasible == oracle.feasible
    assert result.evaluations == oracle.evaluations
    for name in ("J", "J13", "eps_max", "delta", "h"):
        assert bits(getattr(result, name)) == bits(getattr(oracle, name)), name
    assert len(result.trace) == len(oracle.trace)
    for got, want in zip(result.trace, oracle.trace):
        assert got[0] == want[0]
        assert bits(got[1]) == bits(want[1]) and bits(got[2]) == bits(want[2])
        assert type(got[3]) is type(want[3]) and got[3] == want[3]


def small_space(**changes):
    base = dict(w1=(g.TWO_PI * 1.0e6, g.TWO_PI * 2.0e6, 4),
                w2=(g.TWO_PI * 0.8e6, g.TWO_PI * 1.6e6, 5),
                gradient=(100.0, 800.0, 6))
    base.update(changes)
    return g.SearchSpace(**base)


class TestGFactor:
    """eps scales as g and J as g^2, exactly for powers of two: at g = 1 the
    search under ceiling c admits the points it admits at g = 2 under 2c."""

    HALF = replace(g.DEFAULT_CONSTANTS, g_factor=1.0)

    @pytest.mark.parametrize("search, spacing", [(g.maximize_J_linear, 4e-6),
                                                 (g.maximize_J_multitrap, 4e-6)])
    def test_search_honours_g_factor(self, search, spacing):
        half = search(spacing, g.SearchSpace(), self.HALF)
        full = search(spacing, g.SearchSpace(eps_ceiling=0.1))
        assert half.params == full.params
        assert half.J == full.J / 4
        assert half.J13 == full.J13 / 4
        assert half.eps_max == full.eps_max / 2


class TestRowArraySearchMatchesOracle:
    """The stage-array search against the per-point search, which runs the
    same closed-form helpers one point at a time."""

    @pytest.mark.parametrize("d_um", [1, 2, 3, 4, 5, 6, 7])
    def test_table1_rows(self, d_um):
        result = g.maximize_J_multitrap(d_um * 1e-6, collect_trace=True)
        assert_same_search(result, sweep_search_oracle("multi", d_um * 1e-6,
                                                       collect_trace=True))
        assert result.evaluations == 15_360

    @pytest.mark.parametrize("d", np.random.default_rng(8).uniform(1e-6, 7e-6, 30))
    def test_random_spacings(self, d):
        assert_same_search(g.maximize_J_multitrap(float(d), collect_trace=True),
                           sweep_search_oracle("multi", float(d), collect_trace=True))

    @pytest.mark.parametrize("h_um", [2, 3, 4, 5, 6])
    def test_linear_rows(self, h_um):
        assert_same_search(g.maximize_J_linear(h_um * 1e-6, collect_trace=True),
                           sweep_search_oracle("linear", h_um * 1e-6, collect_trace=True))

    def test_no_trace_unless_collected(self):
        result = g.maximize_J_multitrap(4e-6, small_space())
        assert result.trace == ()
        assert_same_search(result, sweep_search_oracle("multi", 4e-6, small_space()))

    @pytest.mark.parametrize("axes", [
        dict(w1=(g.TWO_PI * 1.3e6, g.TWO_PI * 1.3e6, 1)),
        dict(w2=(g.TWO_PI * 1.2e6, g.TWO_PI * 1.2e6, 1)),
        dict(gradient=(150.0, 150.0, 1)),
        dict(w1=(g.TWO_PI * 1.3e6, g.TWO_PI * 1.3e6, 1),
             w2=(g.TWO_PI * 1.2e6, g.TWO_PI * 1.2e6, 1),
             gradient=(150.0, 150.0, 1)),
        dict(eps_ceiling=1e-9),
    ])
    def test_edge_spaces(self, axes):
        space = small_space(**axes)
        for mode, spacing in (("multi", 4e-6), ("linear", 4e-6)):
            run = g.maximize_J_multitrap if mode == "multi" else g.maximize_J_linear
            result = run(spacing, space, collect_trace=True)
            assert_same_search(result, sweep_search_oracle(mode, spacing, space,
                                                           collect_trace=True))
            assert result.feasible == (axes.get("eps_ceiling") is None)

    def test_unstable_center_frequencies_are_rejections(self, monkeypatch):
        # flip the eigenvalues of every W2 below 1.2 MHz: normal_modes raises
        # for those chains, and the stage arrays must reject the same points
        chain_modes = trap._chain_modes

        def flipped(w1, w2, h, constants):
            evals, *rest = chain_modes(w1, w2, h, constants)
            low = np.broadcast_to(np.asarray(w2) < g.TWO_PI * 1.2e6, evals.shape[:-1])
            evals[low] = -evals[low]
            return (evals, *rest)

        monkeypatch.setattr(trap, "_chain_modes", flipped)
        monkeypatch.setattr(search, "_chain_modes", flipped)
        space = small_space()
        result = g.maximize_J_multitrap(4e-6, space, collect_trace=True)
        assert_same_search(result, sweep_search_oracle("multi", 4e-6, space,
                                                       collect_trace=True))
        rejected = [p for p, J, _eps, _feas in result.trace if np.isnan(J)]
        assert rejected and all(p.w2 < g.TWO_PI * 1.2e6 for p in rejected)
        assert result.params.w2 >= g.TWO_PI * 1.2e6

    def test_stiffness_range_edges(self):
        # grids spanning all of TrapLayout's stiffness range: finite arrays,
        # no floating-point warning, the same points as the per-point search
        c = g.DEFAULT_CONSTANTS
        lo, hi = trap.STIFFNESS_RANGE
        w = (np.sqrt(lo / c.mass) * (1 + 1e-9), np.sqrt(hi / c.mass) * (1 - 1e-9), 3)
        space = g.SearchSpace(w1=w, w2=w, gradient=(1.0, 1e4, 4), eps_ceiling=0.5)
        for d in ((c.coulomb / hi) ** (1 / 3) * (1 + 1e-9),
                  (c.coulomb / lo) ** (1 / 3) * (1 - 1e-9)):
            result = g.maximize_J_multitrap(d, space, collect_trace=True)
            assert result.feasible
            assert_same_search(result, sweep_search_oracle("multi", d, space,
                                                           collect_trace=True))

    def test_all_unstable_is_infeasible(self, monkeypatch):
        chain_modes = trap._chain_modes

        def negated(w1, w2, h, constants):
            evals, *rest = chain_modes(w1, w2, h, constants)
            return (-evals, *rest)

        monkeypatch.setattr(search, "_chain_modes", negated)
        result = g.maximize_J_multitrap(4e-6, small_space(), collect_trace=True)
        assert not result.feasible and result.params is None
        assert len(result.trace) == result.evaluations == 4 * 5 * 6
        assert all(np.isnan(J) and not feas for _p, J, _eps, feas in result.trace)


@st.composite
def search_draws(draw):
    """A small random search: a layout and spacing, and a SearchSpace with
    counts 1-6, a ceiling in [1e-3, 0.5] and gradients within FIELD_RANGE."""
    def grid(lo_exp, hi_exp, top=np.inf):
        lo = 10.0 ** draw(st.floats(lo_exp, hi_exp))
        hi = min(lo * 10.0 ** draw(st.floats(0.0, 2.0)), top)
        return (lo, hi, draw(st.integers(1, 6)))

    mode = draw(st.sampled_from(["multi", "linear"]))
    spacing = draw(st.floats(1e-6, 7e-6) if mode == "multi" else st.floats(2e-6, 6e-6))
    top = FIELD_RANGE["gradient"][1]
    space = g.SearchSpace(
        w1=grid(5.5, 7.0), w2=grid(5.0, 7.0),
        gradient=grid(*draw(st.sampled_from([(0.0, 3.5), (-3.0, 50.0)])), top=top),
        eps_ceiling=draw(st.floats(1e-3, 0.5)))
    return mode, spacing, space


class TestReadOut:
    """The winner's reported numbers come out of the stage arrays; they equal
    what the per-point search and `evaluate_candidate` give, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(drawn=search_draws(), collect_trace=st.booleans())
    def test_random_spaces_match_oracle(self, drawn, collect_trace):
        mode, spacing, space = drawn
        run = g.maximize_J_multitrap if mode == "multi" else g.maximize_J_linear
        result = run(spacing, space, collect_trace=collect_trace)
        assert_same_search(result, sweep_search_oracle(mode, spacing, space,
                                                       collect_trace=collect_trace))

    @pytest.mark.parametrize("number", [float, np.float64])
    @pytest.mark.parametrize("run, spacing_um",
                             [(g.maximize_J_multitrap, d) for d in range(1, 8)]
                             + [(g.maximize_J_linear, h) for h in range(2, 7)])
    def test_table_rows_equal_evaluate_candidate(self, run, spacing_um, number):
        # a numpy spacing still gives Python floats
        result = run(number(spacing_um * 1e-6))
        evaluation = g.evaluate_candidate(result.params)
        c, eq = evaluation.couplings, evaluation.equilibrium
        for name, want in (("J", c.J), ("J13", c.J13), ("eps_max", c.eps_max),
                           ("delta", eq.delta), ("h", eq.h)):
            got = getattr(result, name)
            assert type(got) is float and bits(got) == bits(want), name


class TestNoModeMatrix:
    """A search reads each mode's largest |D_il| from `trap._chain_modes`'
    half-column values; only `normal_modes` builds a mode matrix."""

    @pytest.mark.parametrize("collect_trace", [False, True])
    @pytest.mark.parametrize("run", [g.maximize_J_multitrap, g.maximize_J_linear])
    def test_search_never_builds_a_mode_matrix(self, monkeypatch, run, collect_trace):
        unpatched = repr(run(4e-6, collect_trace=collect_trace))

        def refused(*args):
            raise AssertionError("the search built a mode matrix")

        monkeypatch.setattr(trap, "_mode_matrix", refused)
        monkeypatch.setattr(search, "_mode_matrix", refused, raising=False)
        assert repr(run(4e-6, collect_trace=collect_trace)) == unpatched

    def test_mode_maxima_equal_the_mode_matrix_maxima(self):
        # the stage's per-mode bound against the columns of the mode matrix
        c, r = g.DEFAULT_CONSTANTS, np.sqrt(0.5)
        rng = np.random.default_rng(7)
        w1, w2 = g.TWO_PI * 10.0 ** rng.uniform(4.0, 7.0, (2, 400))
        h = 10.0 ** rng.uniform(-7.0, -5.0, 400)
        _evals, centre, side, wide, _k12, _k13 = trap._chain_modes(w1, w2, h, c)
        assert wide.any() and not wide.all()
        top = np.abs(trap._mode_matrix(centre, side, wide)).max(axis=-2)
        assert np.array_equal(top[:, 0], np.maximum(r * centre, side))
        assert np.array_equal(top[:, 1], np.maximum(r * side, centre))
        assert np.all(top[:, 2] == r)


class TestStageMemory:
    def test_stage_peak_stays_under_eight_grid_arrays(self):
        # One default-space stage allocates its Lamb-Dicke bound one mode at a
        # time, so no temporary is larger than one (W1, W2, gradient) float
        # array (16 x 16 x 30 x 8 B = 60 KiB), and it builds no mode matrix.
        # With numpy 2.4.6 its peak is 393 KiB, 6.5 such arrays (426 KiB, 7.1,
        # while a stage built a (W1, W2, 3, 3) mode-matrix stack); building the
        # bound as (3, W1, W2, gradient) arrays instead peaks at 553 KiB, 9.2,
        # and fails this test.
        space = g.SearchSpace()
        grid = space.w1[2] * space.w2[2] * space.gradient[2] * 8
        search._sweep_stage(4e-6, space, g.DEFAULT_CONSTANTS, None)  # caches warm
        tracemalloc.start()
        try:
            search._sweep_stage(4e-6, space, g.DEFAULT_CONSTANTS, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * grid, f"{peak / 1024:.0f} KiB"
