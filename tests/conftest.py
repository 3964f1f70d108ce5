import dataclasses

import numpy as np
import pytest

from solwave import (PotentialSpec, find_excited_state, find_ground_state)

# closed-form 1D oracle at (m^2=1, b=1, omega=0.8): R(x) = A sech(kappa x)
KAPPA = 0.6
AMP = np.sqrt(0.72)
ORACLE = {"i0": 1.2, "i1": 0.144, "v0": 0.912, "e0": 1.824}

# cubic-quintic: U(a) = a^2/2 - a^4/4 + 0.1 a^6/6, whose n = 3 ground state
# at omega = 0.7 is stable (dQ/domega < 0)
CQ = PotentialSpec(mass_sq=1.0, terms=((1.0, 4), (-0.1, 6)), amplitude_cap=10.0)

# |R| R: an odd exponent, the one power the shot's stages take of abs(R)
ODD = PotentialSpec(mass_sq=1.0, terms=((1.0, 3),), amplitude_cap=8.5)

# even and odd exponents together, one coupling defocusing
MIXED = PotentialSpec(mass_sq=1.0, terms=((1.0, 4), (0.3, 5), (-0.05, 6)), amplitude_cap=10.0)


@pytest.fixture(scope="session")
def cubic():
    return PotentialSpec(mass_sq=1.0, terms=((1.0, 4),), amplitude_cap=8.5)


@pytest.fixture(scope="session")
def wave_1d(cubic):
    return find_ground_state(cubic, 0.8, 1)


@pytest.fixture(scope="session")
def wave_2d(cubic):
    return find_ground_state(cubic, 0.8, 2)


@pytest.fixture(scope="session")
def wave_3d(cubic):
    return find_ground_state(cubic, 0.8, 3)


@pytest.fixture(scope="session")
def wave_k1(cubic):
    return find_excited_state(cubic, 0.8, 1)


@pytest.fixture(scope="session")
def wave_k2(cubic):
    return find_excited_state(cubic, 0.8, 2)


def full_grid(grid):
    """The grid with no axis halved: the same cells, all of them stored."""
    return dataclasses.replace(grid, mirrored=None, reversal=0)


def unfold(grid, field, time_odd=False):
    """The full grid's array of a field stored on grid: each mirrored axis
    gets its lower half back as the reflection of the stored upper half,
    and axis 0 of a reversed grid as reversal conj of that reflection,
    negated for a field odd in t (psi_dot)."""
    for axis, mirrored in enumerate(grid.mirrored):
        if mirrored:
            field = np.concatenate([np.flip(field, axis), field], axis=axis)
    if grid.reversal:
        image = np.conj(np.flip(field, 0))
        if (grid.reversal < 0) != time_odd:
            image = -image
        field = np.concatenate([image, field])
    return field
