"""The benchmark's layer attribution still sees the functions it wraps.

perfbench/tracing.py wraps each TRACED function wherever a gradion module
holds a reference to it. A TRACED function that is renamed, turned into a
method, or called other than through a module global silently drops out of
the per-layer counters; these tests catch that.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import gradion as g
import gradion.cli  # noqa: F401  (TRACED names cli.main)

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_functions(tracing):
    for layer, name in tracing.TRACED:
        obj = getattr(importlib.import_module(f"gradion.{layer}"), name, None)
        assert inspect.isfunction(obj), f"gradion.{layer}.{name}"


def run_counted(tracing, task):
    """The tracer after running ``task()`` as one counted root span."""
    tracer = tracing.Tracer()
    tracer.counting = True
    tracer.install()
    try:
        tracer.open_root("task", 0)
        task()
        tracer.close_root()
    finally:
        tracer.uninstall()
    return tracer


def count_calls(tracing, task):
    """Traced call counts of ``task()`` run as one root span."""
    return {name: n for (_root, name), n in run_counted(tracing, task).calls.items()}


@pytest.mark.parametrize("preset", ["table1-d4", "table3-h4"])
def test_equilibrium_counter_of_one_chain(tracing, preset):
    # the tracer imports trap.ConvergenceError and reads .iterations
    assert tracing.Tracer()._find_references()
    tracer = run_counted(tracing, lambda: g.solve_chain(*g.preset_layout_field(preset)))
    assert tracer.calls[("task", "trap.solve_equilibrium")] == 1
    assert 1 <= tracer.counts["trap.newton_iterations"] <= 10
    assert tracer.counts["trap.rejected"] == 0


@pytest.fixture(scope="module")
def d4_couplings():
    return g.solve_chain(*g.preset_layout_field("table1-d4")).couplings


def test_call_counts_of_one_chain_and_one_scheduled_run(tracing):
    def task():
        chain = g.solve_chain(*g.preset_layout_field("table1-d4"))
        config = g.ProtocolConfig(0.6, 0.8, gate_mode="scheduled", seed=1,
                                  couplings=chain.couplings)
        g.run_teleport(config, force_outcome=(0, 0))

    assert count_calls(tracing, task) == {
        "trap.solve_equilibrium": 1,
        "trap.normal_modes": 1,
        "couplings.compute_couplings": 1,
        "teleport.run_teleport": 1,
        "teleport.protocol_schedules": 1,
        "pulses.build_cnot": 2,
        "pulses.segment_unitary": 40,
    }


def test_call_counts_of_one_ideal_run(tracing):
    config = g.ProtocolConfig(0.6, 0.8, seed=1)
    assert count_calls(tracing, lambda: g.run_teleport(config, force_outcome=(0, 0))) \
        == {"teleport.run_teleport": 1}


def test_call_counts_of_one_dephased_integrated_run(tracing, d4_couplings):
    config = g.ProtocolConfig(0.6, 0.8, gate_mode="integrated", seed=1,
                              couplings=d4_couplings, dephasing=(30.0, 5.0, 80.0))
    assert count_calls(tracing, lambda: g.run_teleport(config, force_outcome=(0, 0))) \
        == {
            "teleport.run_teleport": 1,
            "teleport.protocol_schedules": 1,
            "pulses.build_cnot": 2,
            # one stacked call per CNOT stage, for its two paired refocusing flips
            "integrate.integrate_segment_unitary": 2,
        }


def test_call_counts_of_one_lab_frame_cnot(tracing, d4_couplings):
    ctx = g.PulseContext(d4_couplings, g.LAB, commensurate=True)
    assert count_calls(tracing, lambda: g.build_cnot(2, 3, ctx)) == {
        "pulses.build_cnot": 1,
        "pulses.commensurate_pulse": 3,
    }
