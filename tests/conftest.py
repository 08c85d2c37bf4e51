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
