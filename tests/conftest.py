"""Shared fixtures.

The expensive objects (the model, the full automorphism list, the
collineation group) are session scoped so the suite builds each exactly
once.
"""

import numpy as np
import pytest

from witt12.design import construct
from witt12.plane import PLANE
from witt12.symmetry import (
    all_automorphisms,
    all_collineations,
    automorphism_group,
    stabilizer_of,
)


@pytest.fixture(scope="session")
def model():
    return construct()


@pytest.fixture(scope="session")
def autos(model):
    # an array, so the numpy oracles index it by columns
    return np.array(all_automorphisms(model), dtype=np.int16)


@pytest.fixture(scope="session")
def summary(model):
    return automorphism_group(model)


@pytest.fixture(scope="session")
def collineations():
    return all_collineations(PLANE)


@pytest.fixture(scope="session")
def u_stabilizer(model):
    return stabilizer_of(PLANE, model.u)


@pytest.fixture(scope="session")
def lines_through_u(model):
    return tuple(g for g in PLANE.lines if model.u.index in g.points)
