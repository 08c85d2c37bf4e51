"""Three trapped ions in a magnetic field gradient.

Desk-scale simulator of a three-ion chain whose spins couple through a
static magnetic gradient: trap equilibria and normal modes, the induced
Ising couplings, refocused microwave pulse schedules realizing a CNOT, and
the full teleportation protocol with fidelity and timing accounting.
"""

from .constants import TWO_PI, PhysicalConstants, DEFAULT_CONSTANTS
from .trap import (EquilibriumSolution, NormalModes, TrapLayout, UnstableModesError,
                   linear_frequency_for_spacing, linear_spacing, normal_modes,
                   potential_gradient, potential_hessian, solve_equilibrium,
                   total_potential)
from .couplings import (CarrierSpectrum, Chain, CouplingSet, FieldConfig,
                        SpinSpectrum, carrier_spectrum, compute_couplings,
                        effective_lamb_dicke, heating_time_scaled,
                        neighbor_resonance_shift, qubit_frequencies, solve_chain,
                        spin_spectrum)
from .pulses import (CommensurationError, CommensurationResult, FreeEvolution,
                     INTERACTION, LAB, Pulse, PulseContext, PulseSchedule, PulseSlot,
                     SpinState, apply_schedule, build_cnot, commensurate_pulse,
                     composite_z_rotation, free_evolution, hadamard_schedule,
                     parse_schedule, refocused_zz, schedule_unitary,
                     serialize_schedule, single_qubit_rotation)
from .integrate import IntegrationResult, integrate_exact
from .search import (CandidateEvaluation, CandidateParams, SearchResult, SearchSpace,
                     evaluate_candidate, maximize_J_linear, maximize_J_multitrap)
from .teleport import (IDEAL_STAGES, ProtocolConfig, TeleportRecord, fidelity,
                       prepare_initial, run_teleport)
from .presets import PRESETS, REFERENCE, layout_field, preset_layout_field

__version__ = "0.1.0"
