"""Bundled parameter presets.

``table1-d{1..7}``: the paper's micro-trap rows, keyed by trap spacing d
in um, each carrying its trap frequencies and gradient; they are not the
search's optima (`table1 --d 4` finds J = 1.245 x2pi kHz against the
row's 0.459). ``table3-h{2..6}``: the paper's linear-trap rows keyed by ion
spacing h in um. ``REFERENCE`` holds the reference row values each preset
reproduces (frequencies in 2pi-units); the verification suite checks them.
`layout_field` builds the trap layout and field of any such settings dict.
"""

from __future__ import annotations

from .constants import TWO_PI, PhysicalConstants, DEFAULT_CONSTANTS
from .couplings import FieldConfig
from .trap import TrapLayout, linear_frequency_for_spacing

#: preset name -> plain parameter dict (um, 2pi MHz, T/m)
PRESETS: dict[str, dict] = {
    "table1-d1": {"mode": "multi", "d_um": 1.0, "w1_2pi_mhz": 3.20, "w2_2pi_mhz": 0.097, "gradient_t_per_m": 1200.0},
    "table1-d2": {"mode": "multi", "d_um": 2.0, "w1_2pi_mhz": 2.72, "w2_2pi_mhz": 1.27, "gradient_t_per_m": 1000.0},
    "table1-d3": {"mode": "multi", "d_um": 3.0, "w1_2pi_mhz": 1.85, "w2_2pi_mhz": 1.10, "gradient_t_per_m": 600.0},
    "table1-d4": {"mode": "multi", "d_um": 4.0, "w1_2pi_mhz": 1.37, "w2_2pi_mhz": 1.24, "gradient_t_per_m": 500.0},
    "table1-d5": {"mode": "multi", "d_um": 5.0, "w1_2pi_mhz": 1.21, "w2_2pi_mhz": 1.05, "gradient_t_per_m": 400.0},
    "table1-d6": {"mode": "multi", "d_um": 6.0, "w1_2pi_mhz": 0.971, "w2_2pi_mhz": 0.891, "gradient_t_per_m": 300.0},
    "table1-d7": {"mode": "multi", "d_um": 7.0, "w1_2pi_mhz": 0.732, "w2_2pi_mhz": 0.700, "gradient_t_per_m": 200.0},
    "table3-h2": {"mode": "linear", "h_um": 2.0, "w_2pi_mhz": 1.77, "gradient_t_per_m": 750.0},
    "table3-h3": {"mode": "linear", "h_um": 3.0, "w_2pi_mhz": 0.966, "gradient_t_per_m": 300.0},
    "table3-h4": {"mode": "linear", "h_um": 4.0, "w_2pi_mhz": 0.628, "gradient_t_per_m": 150.0},
    "table3-h5": {"mode": "linear", "h_um": 5.0, "w_2pi_mhz": 0.449, "gradient_t_per_m": 100.0},
    "table3-h6": {"mode": "linear", "h_um": 6.0, "w_2pi_mhz": 0.342, "gradient_t_per_m": 50.0},
}

#: reference row values the presets reproduce (same unit conventions)
REFERENCE: dict[str, dict] = {
    "table1-d1": {"delta_um": 0.779, "eps_max": 0.0376, "h_um": 1.779, "j_2pi_khz": 1.60, "j13_2pi_khz": 0.746},
    "table1-d2": {"delta_um": 0.531, "eps_max": 0.0422, "h_um": 2.531, "j_2pi_khz": 1.07, "j13_2pi_khz": 0.337},
    "table1-d3": {"delta_um": 0.578, "eps_max": 0.0427, "h_um": 3.578, "j_2pi_khz": 0.645, "j13_2pi_khz": 0.179},
    "table1-d4": {"delta_um": 0.628, "eps_max": 0.0340, "h_um": 4.628, "j_2pi_khz": 0.459, "j13_2pi_khz": 0.135},
    "table1-d5": {"delta_um": 0.558, "eps_max": 0.0382, "h_um": 5.558, "j_2pi_khz": 0.334, "j13_2pi_khz": 0.0820},
    "table1-d6": {"delta_um": 0.612, "eps_max": 0.0356, "h_um": 6.612, "j_2pi_khz": 0.254, "j13_2pi_khz": 0.0623},
    "table1-d7": {"delta_um": 0.777, "eps_max": 0.0319, "h_um": 7.777, "j_2pi_khz": 0.197, "j13_2pi_khz": 0.0515},
    "table3-h2": {"eps_max": 0.0276, "j_2pi_khz": 1.12, "j13_2pi_khz": 0.794},
    "table3-h3": {"eps_max": 0.0271, "j_2pi_khz": 0.605, "j13_2pi_khz": 0.429},
    "table3-h4": {"eps_max": 0.0263, "j_2pi_khz": 0.359, "j13_2pi_khz": 0.254},
    "table3-h5": {"eps_max": 0.0289, "j_2pi_khz": 0.311, "j13_2pi_khz": 0.220},
    "table3-h6": {"eps_max": 0.0218, "j_2pi_khz": 0.134, "j13_2pi_khz": 0.0952},
}


def layout_field(settings: dict,
                 constants: PhysicalConstants = DEFAULT_CONSTANTS,
                 ) -> tuple[TrapLayout, FieldConfig]:
    """Trap layout and field from plain settings: a preset row, or a config
    merged over one. "linear" derives W from h_um when w_2pi_mhz is absent."""
    mode = settings.get("mode")
    if mode is None:
        raise ValueError("no layout given; pass --preset, or mode/... in a config")
    gradient = settings.get("gradient_t_per_m")
    if gradient is None:
        raise ValueError("no field gradient given (gradient_t_per_m)")
    given = {name: settings[k] for k, name in (("b0_t", "b0"), ("eta", "eta")) if k in settings}
    field = FieldConfig(gradient=gradient, **given)
    if mode == "multi":
        for key in ("d_um", "w1_2pi_mhz", "w2_2pi_mhz"):
            if key not in settings:
                raise ValueError(f"multi-trap layout needs {key}")
        layout = TrapLayout.multi_trap(settings["d_um"] * 1e-6,
                                       TWO_PI * settings["w1_2pi_mhz"] * 1e6,
                                       TWO_PI * settings["w2_2pi_mhz"] * 1e6,
                                       constants)
    elif mode == "linear":
        if "w_2pi_mhz" in settings:
            w = TWO_PI * settings["w_2pi_mhz"] * 1e6
        elif "h_um" in settings:
            w = linear_frequency_for_spacing(settings["h_um"] * 1e-6, constants)
        else:
            raise ValueError("linear layout needs w_2pi_mhz or h_um")
        layout = TrapLayout.linear(w, constants)
    else:
        raise ValueError(f"unknown layout mode {mode!r}")
    return layout, field


def preset_layout_field(name: str,
                        constants: PhysicalConstants = DEFAULT_CONSTANTS,
                        ) -> tuple[TrapLayout, FieldConfig]:
    """Materialize a preset into a trap layout and field configuration."""
    try:
        row = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return layout_field(row, constants)
