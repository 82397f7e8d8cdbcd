"""Shared fixtures.

The expensive objects (the model, the full automorphism list, the
collineation group) are session scoped so the suite builds each exactly
once.
"""

import itertools

import numpy as np
import pytest

from witt12 import gf3
from witt12.design import construct
from witt12.plane import PLANE
from witt12.symmetry import all_automorphisms, automorphism_group, stabilizer_of


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
    # every canonical matrix (first nonzero entry 1, in row-major
    # lexicographic order after its leading zeros) that gf3.det keeps
    out = []
    for k in range(9):
        for tail in itertools.product(range(3), repeat=8 - k):
            flat = (0,) * k + (1,) + tail
            m = (flat[0:3], flat[3:6], flat[6:9])
            if gf3.det(gf3.Mat(m)) != 0:
                out.append(m)
    return tuple(out)


@pytest.fixture(scope="session")
def u_stabilizer(model):
    return stabilizer_of(model.u)


@pytest.fixture(scope="session")
def lines_through_u(model):
    return tuple(g for g in PLANE.lines if model.u.index in g.points)
