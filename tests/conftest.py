import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from biphase import Basis, StateVector

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)


def random_amplitudes(rng: np.random.Generator) -> np.ndarray:
    raw = rng.normal(size=3) + 1j * rng.normal(size=3)
    return raw / np.linalg.norm(raw)


def random_state(rng: np.random.Generator, basis: Basis = Basis.PMZ) -> StateVector:
    return StateVector.normalized(random_amplitudes(rng), basis)


def plate_moments(state: StateVector, chi: float) -> tuple[float, float]:
    """m = <psi|H|psi> and q = <H psi|H psi> of the plate generator H(chi), built here from its entries."""
    c, s = math.cos(2.0 * chi), math.sin(2.0 * chi)
    h_psi = 2.0 * np.array([[0.0, c, s], [c, 0.0, 0.0], [s, 0.0, 0.0]]) @ state.amplitudes
    return float(np.vdot(state.amplitudes, h_psi).real), float(np.vdot(h_psi, h_psi).real)
