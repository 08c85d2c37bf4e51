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


def count_calls(tracing, task):
    """Traced call counts of ``task()`` run as one root span."""
    tracer = tracing.Tracer()
    tracer.counting = True
    tracer.install()
    try:
        tracer.open_root("task", 0)
        task()
        tracer.close_root()
    finally:
        tracer.uninstall()
    return {name: n for (_root, name), n in tracer.calls.items()}


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
            "integrate.segment_hamiltonians": 4,
            "integrate.integrate_segment_unitary": 40,
        }
