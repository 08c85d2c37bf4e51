import numpy as np
import pytest

import gradion as g


def assert_same_layout_field(a, b):
    (la, fa), (lb, fb) = a, b
    assert (la.mode, la.d, la.constants) == (lb.mode, lb.d, lb.constants)
    np.testing.assert_array_equal(la.centers, lb.centers)
    np.testing.assert_array_equal(la.frequencies, lb.frequencies)
    assert fa == fb


class TestLayoutField:
    @pytest.mark.parametrize("name", sorted(g.PRESETS))
    def test_preset_rows_match_preset_lookup(self, name):
        assert_same_layout_field(g.layout_field(g.PRESETS[name]),
                                 g.preset_layout_field(name))

    def test_constants_reach_the_layout(self):
        constants = g.DEFAULT_CONSTANTS.with_mass_amu(171.0)
        layout, _ = g.layout_field(g.PRESETS["table1-d4"], constants)
        assert layout.constants == constants

    def test_linear_from_spacing(self):
        constants = g.DEFAULT_CONSTANTS.with_mass_amu(171.0)
        layout, field = g.layout_field(
            {"mode": "linear", "h_um": 4.5, "gradient_t_per_m": 200.0,
             "b0_t": 0.8, "eta": 2e-6}, constants)
        w = g.linear_frequency_for_spacing(4.5e-6, constants)
        assert layout.mode == "linear"
        np.testing.assert_array_equal(layout.frequencies, np.full(3, w))
        assert field == g.FieldConfig(200.0, b0=0.8, eta=2e-6)
        eq = g.solve_equilibrium(layout)
        assert eq.h == pytest.approx(4.5e-6, rel=1e-9, abs=0)

    @pytest.mark.parametrize("settings, message", [
        ({}, "no layout given"),
        ({"mode": "linear", "w_2pi_mhz": 1.0}, "no field gradient"),
        ({"mode": "multi", "gradient_t_per_m": 1.0, "d_um": 4.0}, "needs w1_2pi_mhz"),
        ({"mode": "linear", "gradient_t_per_m": 1.0}, "w_2pi_mhz or h_um"),
        ({"mode": "ring", "gradient_t_per_m": 1.0}, "unknown layout mode"),
    ])
    def test_incomplete_settings_rejected(self, settings, message):
        with pytest.raises(ValueError, match=message):
            g.layout_field(settings)

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown preset"):
            g.preset_layout_field("table9-z1")
