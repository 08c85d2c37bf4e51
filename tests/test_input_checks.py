"""Every numeric input of the public API goes through one of three checks:
a finite real number, a finite complex number (the teleported amplitudes),
or an integer that is not a bool. Each site refuses anything else with its
own ValueError, and never with a warning."""

import warnings

import numpy as np
import pytest

import gradion as g
from gradion.operators import cnot_matrix, embed, reduced_density

NOT_REAL = {repr(x): x for x in ("x", None, True, np.bool_(True), 1 + 0j, np.complex128(1),
                                  np.nan, np.inf, -np.inf)}
NOT_REAL["10**400"] = 10**400  # an int beyond the float range
NOT_INTEGER = {repr(x): x for x in (2.0, np.float64(2), "2", True, None)}
#: not a finite Python or numpy int, float or complex
NOT_NUMBER = {repr(x): x for x in ("x", None, True, np.bool_(True), np.nan, np.inf,
                                    complex(np.nan, 0.0), complex(1.0, np.inf),
                                    np.complex128(complex(0.0, np.nan)),
                                    np.complex64(complex(-np.inf, 0.0)))}
NOT_NUMBER["10**400"] = 10**400
NOT_NUMBER["array(1.0)"] = np.array(1.0)  # a 0-d array, not a number

W = g.TWO_PI * np.array([12.99e9, 13.0e9, 13.017e9])
PULSE = g.Pulse(1, 1.0, 0.0, 1.0, 1.0)
IDEAL = g.ProtocolConfig(1.0, 0.0)
RHO = np.eye(8) / 8.0


def _couplings():
    return g.solve_chain(*g.preset_layout_field("table1-d4")).couplings


def _dephased(rates):
    return g.ProtocolConfig(1.0, 0.0, "scheduled", couplings=_couplings(), dephasing=rates)


def _spacing_search(d):
    return g.maximize_J_multitrap(d, g.SearchSpace(w1=(1e6, 1e7, 2), w2=(1e6, 1e7, 2),
                                                   gradient=(50.0, 100.0, 2)))


#: (site, call taking the value under test, the site's message, a valid value)
REAL_SITES = [
    ("PhysicalConstants.g_factor", lambda x: g.PhysicalConstants(g_factor=x),
     "g_factor must be finite and strictly positive", 2),
    ("PhysicalConstants.hyperfine", lambda x: g.PhysicalConstants(hyperfine=x),
     "hyperfine must be finite and strictly positive", 80_000_000_000),
    ("PhysicalConstants.with_mass_amu", g.DEFAULT_CONSTANTS.with_mass_amu,
     "mass must be finite and strictly positive", 174),
    ("TrapLayout.d", lambda x: g.TrapLayout(x, 1e7, 1e7),
     "trap spacing and frequencies must be finite", 0),
    ("TrapLayout.w1", lambda x: g.TrapLayout(4e-6, x, 1e7),
     "trap spacing and frequencies must be finite", 10_000_000),
    ("TrapLayout.w2", lambda x: g.TrapLayout(4e-6, 1e7, x),
     "trap spacing and frequencies must be finite", 10_000_000),
    ("TrapLayout.multi_trap", lambda x: g.TrapLayout.multi_trap(x, 1e7, 1e7),
     "multi-trap layout requires a finite, positive trap spacing", 4e-6),
    ("linear_spacing", g.linear_spacing, "trap frequency must be finite and positive",
     10_000_000),
    ("linear_frequency_for_spacing", g.linear_frequency_for_spacing,
     "spacing must be finite and positive", 4e-6),
    ("FieldConfig.gradient", lambda x: g.FieldConfig(x), "field gradient must be finite",
     500),
    ("FieldConfig.b0", lambda x: g.FieldConfig(500.0, b0=x), "field b0 must be finite", 1),
    ("FieldConfig.eta", lambda x: g.FieldConfig(500.0, eta=x), "field eta must be finite",
     0),
    ("neighbor_resonance_shift",
     lambda x: g.neighbor_resonance_shift(g.FieldConfig(500.0), x),
     "inter-ion distance must be finite and positive", 1),
    ("heating_time_scaled.reference_time", lambda x: g.heating_time_scaled(x, 1.0, 2.0),
     "times and sizes must be finite and positive", 3),
    ("heating_time_scaled.reference_size", lambda x: g.heating_time_scaled(1.0, x, 2.0),
     "times and sizes must be finite and positive", 3),
    ("heating_time_scaled.size", lambda x: g.heating_time_scaled(1.0, 2.0, x),
     "times and sizes must be finite and positive", 3),
    ("SearchSpace.w1 low", lambda x: g.SearchSpace(w1=(x, 1e7, 3)),
     "search grid w1 must be finite and positive", 1_000_000),
    ("SearchSpace.w2 high", lambda x: g.SearchSpace(w2=(1e6, x, 3)),
     "search grid w2 must be finite and positive", 10_000_000),
    ("SearchSpace.gradient high", lambda x: g.SearchSpace(gradient=(50.0, x, 3)),
     "search grid gradient must be finite and positive", 1000),
    ("SearchSpace.eps_ceiling", lambda x: g.SearchSpace(eps_ceiling=x),
     r"eps ceiling must lie in \(0, 1\)", 0.05),
    ("maximize_J_multitrap", _spacing_search, "trap spacing d must be finite and positive",
     4e-6),
    ("Pulse.theta", lambda x: g.Pulse(1, x, 0.0, 1.0, 1.0),
     "theta, phi and rabi must be finite", 3),
    ("Pulse.phi", lambda x: g.Pulse(1, 1.0, x, 1.0, 1.0),
     "theta, phi and rabi must be finite", 0),
    ("Pulse.rabi", lambda x: g.Pulse(1, 1.0, 0.0, x, 1.0),
     "theta, phi and rabi must be finite", 6_000_000),
    ("Pulse.duration", lambda x: g.Pulse(1, 1.0, 0.0, 1.0, x),
     "pulse duration must be finite and non-negative", 0),
    ("PulseSlot.duration", lambda x: g.PulseSlot((PULSE,), x),
     "slot duration must be finite and non-negative", 0),
    ("FreeEvolution.duration", lambda x: g.FreeEvolution(x),
     "free evolution duration must be finite and non-negative", 0),
    ("free_evolution", lambda x: g.free_evolution(_couplings(), x),
     "evolution time must be finite and non-negative", 0),
    ("commensurate_pulse.theta",
     lambda x: g.commensurate_pulse(W, x, 6e6, tolerance=np.inf),
     "theta and nominal Rabi frequency must be finite and positive", 3),
    ("commensurate_pulse.rabi_nominal",
     lambda x: g.commensurate_pulse(W, np.pi, x, tolerance=np.inf),
     "theta and nominal Rabi frequency must be finite and positive", 6_000_000),
    # an infinite tolerance accepts any fit, so +inf is not in this row
    ("commensurate_pulse.tolerance", lambda x: g.commensurate_pulse(W, np.pi, 6e6, x),
     "tolerance must be non-negative", 1),
    ("commensurate_pulse.window",
     lambda x: g.commensurate_pulse(W, np.pi, 6e6, tolerance=np.inf, window=x),
     r"window must be in \[0, 1\)", 0),
    ("PulseContext.rabi", lambda x: g.PulseContext(rabi=x),
     "Rabi frequency must be finite and positive", 6_000_000),
    ("PulseContext.t_m", lambda x: g.PulseContext(t_m=x),
     "slot time t_m must be finite and non-negative", 0),
    ("ProtocolConfig.rabi", lambda x: g.ProtocolConfig(1.0, 0.0, rabi=x),
     "Rabi frequency must be finite and positive", 6_000_000),
    ("ProtocolConfig.t_m", lambda x: g.ProtocolConfig(1.0, 0.0, t_m=x),
     "slot time t_m must be finite and non-negative", 0),
    ("ProtocolConfig.dephasing", _dephased, "dephasing needs three finite, non-negative rates",
     30),
    ("ProtocolConfig.dephasing element", lambda x: _dephased([0.0, x, 0.0]),
     "dephasing needs three finite, non-negative rates", 30),
]

#: (site, call taking an amplitude of magnitude 1 under test, the site's message)
AMPLITUDE_SITES = [
    ("ProtocolConfig.alpha", lambda x: g.ProtocolConfig(x, 0.0),
     "input amplitudes must satisfy"),
    ("ProtocolConfig.beta", lambda x: g.ProtocolConfig(0.0, x),
     "input amplitudes must satisfy"),
    ("prepare_initial", lambda x: g.prepare_initial(x, 0.0), "input amplitudes must satisfy"),
]

#: (site, call taking the value under test, the site's message, a valid value)
INTEGER_SITES = [
    ("Pulse.ion", lambda i: g.Pulse(i, 1.0, 0.0, 1.0, 1.0), "ion index must be 1, 2, or 3",
     2),
    ("SearchSpace.w1 count", lambda n: g.SearchSpace(w1=(1e6, 1e7, n)),
     "search grid w1 must be finite and positive, with an integer count", 3),
    ("SearchSpace.gradient count", lambda n: g.SearchSpace(gradient=(50.0, 100.0, n)),
     "search grid gradient must be finite and positive, with an integer count", 3),
    ("composite_z_rotation.sense", lambda s: g.composite_z_rotation(1, s),
     r"sense must be \+1 or -1", 1),
    ("ProtocolConfig.seed", lambda s: g.ProtocolConfig(1.0, 0.0, seed=s),
     "seed must be a non-negative integer or None", 7),
    ("run_teleport.force_outcome", lambda b: g.run_teleport(IDEAL, force_outcome=(b, 1)),
     "forced outcome must be one of", 0),
    ("embed", lambda i: embed(np.eye(2), i), "ion index must be 1, 2, or 3", 2),
    ("cnot_matrix.control", lambda i: cnot_matrix(i, 3),
     "control and target must be distinct ions in 1..3", 2),
    ("cnot_matrix.target", lambda i: cnot_matrix(1, i),
     "control and target must be distinct ions in 1..3", 2),
    ("reduced_density.keep", lambda i: reduced_density(RHO, (i,)),
     "ion index must be 1, 2, or 3", 2),
]


def _cases(sites, values, skip=lambda site, value: False):
    return [pytest.param(call, message, value, id=f"{site}-{label}")
            for site, call, message, *_good in sites for label, value in values.items()
            if not skip(site, value)]


def _refused(call, value, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call(value)


@pytest.mark.parametrize("call, message, value", _cases(
    REAL_SITES, NOT_REAL,
    skip=lambda site, value: site == "commensurate_pulse.tolerance" and value == np.inf))
def test_real_site_refuses_non_real(call, message, value):
    _refused(call, value, message)


@pytest.mark.parametrize("call, message, value", _cases(
    INTEGER_SITES, NOT_INTEGER,
    skip=lambda site, value: site == "ProtocolConfig.seed" and value is None))
def test_integer_site_refuses_non_integer(call, message, value):
    _refused(call, value, message)


@pytest.mark.parametrize("site, call, good", [(site, call, good)
                                              for site, call, _message, good in REAL_SITES],
                         ids=[site for site, *_ in REAL_SITES])
def test_real_site_accepts_numpy_numbers(site, call, good):
    values = [good, np.float64(good), np.float32(good)]
    if good == int(good):
        values.append(np.int64(good))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in values:
            call(value)


@pytest.mark.parametrize("site, call, good", [(site, call, good)
                                              for site, call, _message, good in INTEGER_SITES],
                         ids=[site for site, *_ in INTEGER_SITES])
def test_integer_site_accepts_numpy_integers(site, call, good):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (good, np.int64(good), np.int8(good)):
            call(value)


@pytest.mark.parametrize("call, message, value", _cases(AMPLITUDE_SITES, NOT_NUMBER))
def test_amplitude_site_refuses_non_number(call, message, value):
    _refused(call, value, message)


@pytest.mark.parametrize("call, message, value", _cases(
    AMPLITUDE_SITES, {repr(x): x for x in (1e200, np.float64(-1e200), np.complex128(1e200j),
                                           2.0, 0.5)}))
def test_amplitude_site_refuses_unnormalized(call, message, value):
    # magnitudes whose square overflows are refused too, with no error or warning
    _refused(call, value, message)


@pytest.mark.parametrize("site, call", [(site, call) for site, call, _ in AMPLITUDE_SITES],
                         ids=[site for site, *_ in AMPLITUDE_SITES])
def test_amplitude_site_accepts_numbers(site, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (1, -1.0, 1j, complex(0.6, 0.8), np.complex128(1j), np.complex64(1),
                      np.clongdouble(-1j), np.float64(1), np.float32(-1), np.int64(1),
                      np.int8(-1)):
            call(value)


@pytest.mark.parametrize("rates", [
    np.array([True, False, True]), np.array(True), [1.0, 2.0], (1.0, 2.0, 3.0, 4.0),
    np.zeros(1), np.zeros((3, 1)), [[1.0, 2.0, 3.0]], np.array([1.0, 2.0, 3.0]) * 1j, "abc",
    {1.0, 2.0, 3.0}],
    ids=["bool array", "0-d bool array", "two", "four", "shape (1,)", "shape (3, 1)",
         "nested", "complex array", "str", "set"])
def test_dephasing_refuses_non_rates(rates):
    _refused(_dephased, rates, "dephasing needs three finite, non-negative rates")


@pytest.mark.parametrize("rates", [
    30, 30.0, np.float32(30), np.array(30.0), [30, 30.0, 30],
    (np.int64(30), np.float64(30), 30.0), np.full(3, 30.0), np.full(3, 30, dtype=np.int8)],
    ids=["int", "float", "float32", "0-d array", "list", "numpy tuple", "float array",
         "int8 array"])
def test_dephasing_stored_as_three_floats(rates):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stored = _dephased(rates).dephasing
    assert stored == (30.0, 30.0, 30.0) and all(type(r) is float for r in stored)


def test_forced_outcome_must_be_a_pair_tuple():
    for force in ([0, 1], (0,), (0, 1, 0), "01"):
        with pytest.raises(ValueError, match="forced outcome must be one of"):
            g.run_teleport(IDEAL, force_outcome=force)


def test_reduced_density_refuses_repeated_ion():
    for keep in ((3, 3), (1, np.int64(1))):
        with pytest.raises(ValueError, match="ion index must be 1, 2, or 3, each kept once"):
            reduced_density(RHO, keep)


class TestStoredAsFloat:
    """A numpy float input is stored as a Python float, so float32 and float64
    inputs give what the same value as a Python float gives."""

    def test_mass(self):
        for mass_amu in (np.float32(173.9389), np.float64(173.9389)):
            assert g.DEFAULT_CONSTANTS.with_mass_amu(mass_amu) == \
                g.DEFAULT_CONSTANTS.with_mass_amu(float(mass_amu))

    def test_layout_and_field(self):
        d, w1, w2, gradient = np.float32(4e-6), np.float32(1.2e7), np.float32(9e6), \
            np.float32(500.0)
        reference = g.solve_chain(g.TrapLayout(float(d), float(w1), float(w2)),
                                  g.FieldConfig(float(gradient)))
        for kind in (np.float32, np.float64):
            layout = g.TrapLayout(kind(d), kind(w1), kind(w2))
            field = g.FieldConfig(kind(gradient), b0=kind(1.0), eta=kind(1e-6))
            assert all(type(v) is float for v in (layout.d, layout.w1, layout.w2,
                                                   field.gradient, field.b0, field.eta))
            chain = g.solve_chain(layout, field)
            assert chain.couplings.J == reference.couplings.J
            assert chain.couplings.eps.tobytes() == reference.couplings.eps.tobytes()
            assert chain.equilibrium.positions.tobytes() == \
                reference.equilibrium.positions.tobytes()

    def test_schedule(self):
        couplings = _couplings()
        rabi, t_m = np.float32(g.TWO_PI * 1e6), np.float32(2.5e-6)
        reference = g.build_cnot(2, 3, g.PulseContext(couplings, rabi=float(rabi),
                                                      t_m=float(t_m)))
        record = g.run_teleport(g.ProtocolConfig(0.6, 0.8, "scheduled", 3, couplings,
                                                 rabi=float(rabi), t_m=float(t_m)))
        for kind in (np.float32, np.float64):
            ctx = g.PulseContext(couplings, rabi=kind(rabi), t_m=kind(t_m))
            assert type(ctx.rabi) is float and type(ctx.t_m) is float
            schedule = g.build_cnot(2, 3, ctx)
            assert g.serialize_schedule(schedule) == g.serialize_schedule(reference)
            assert all(type(p.duration) is float for p in schedule.pulses())
            config = g.ProtocolConfig(0.6, 0.8, "scheduled", 3, couplings,
                                      rabi=kind(rabi), t_m=kind(t_m))
            assert type(config.rabi) is float and type(config.t_m) is float
            assert g.run_teleport(config).to_json() == record.to_json()
