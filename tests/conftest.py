import importlib

import numpy as np
import pytest

import gradion as g


@pytest.fixture(scope="session")
def d4_chain():
    """Solved table1-d4 preset."""
    return g.solve_chain(*g.preset_layout_field("table1-d4"))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def cold_schedules():
    """`gradion.teleport`'s compiled-schedule cache, emptied before the test
    and after it."""
    teleport = importlib.import_module("gradion.teleport")
    teleport._compiled.clear()
    yield teleport._compiled
    teleport._compiled.clear()
