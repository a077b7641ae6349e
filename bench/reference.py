"""Reference physics for the benchmark's correctness checks, numpy only.

At fixed orientation chi a plate acts on plate-basis amplitudes as the
one-parameter group Q(delta) = exp(i delta H(chi)) with the real symmetric
generator

    H = 2 [[0, c, s], [c, 0, 0], [s, 0, 0]],   c = cos 2chi, s = sin 2chi,

whose spectrum {2, -2, 0} and eigenvectors are known in closed form.  None
of this touches biphase, so the checks stay independent of the code path
being timed: end states come from the spectral form and dynamical phases
from delta <psi|H|psi>.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

#: Change of basis taking Fock amplitudes to plate-basis amplitudes.
_R = math.sqrt(0.5)
FOCK_TO_PMZ = np.array([[_R, 0.0, _R], [_R, 0.0, -_R], [0.0, 1.0, 0.0]])


def principal(angle: float) -> float:
    """Angle reduced to (-pi, pi]."""
    a = math.remainder(float(angle), 2.0 * math.pi)
    return a + 2.0 * math.pi if a <= -math.pi else a


def angle_gap(a: float, b: float) -> float:
    """Distance between two angles measured mod 2 pi."""
    return abs(principal(a - b))


def generator(chi: float) -> np.ndarray:
    c, s = math.cos(2.0 * chi), math.sin(2.0 * chi)
    return 2.0 * np.array([[0.0, c, s], [c, 0.0, 0.0], [s, 0.0, 0.0]])


def _eigenbasis(chi: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (2, -2, 0) of H(chi) and its orthonormal eigenvectors as columns."""
    c, s = math.cos(2.0 * chi), math.sin(2.0 * chi)
    vectors = np.array([[_R, _R, 0.0], [_R * c, -_R * c, s], [_R * s, -_R * s, -c]])
    return np.array([2.0, -2.0, 0.0]), vectors


def plate(delta: float, chi: float) -> np.ndarray:
    """Q(delta, chi) = exp(i delta H(chi)) from the spectral form."""
    values, vectors = _eigenbasis(chi)
    return (vectors * np.exp(1j * delta * values)) @ vectors.T


def plate_eigenvalues(delta: float) -> np.ndarray:
    return np.exp(1j * delta * np.array([2.0, -2.0, 0.0]))


def chain(plates) -> np.ndarray:
    """Product of plates in traversal order: the first listed acts first."""
    total = np.eye(3, dtype=complex)
    for delta, chi in plates:
        total = plate(delta, chi) @ total
    return total


def dynamical_phase(state: np.ndarray, delta: float, chi: float) -> float:
    """Exact dynamical phase delta <psi|H|psi> picked up through one plate."""
    return float(delta * np.real(np.vdot(state, generator(chi) @ state)))


def segment_length(state: np.ndarray, delta: float, chi: float) -> float:
    """Ray-space length |delta| sqrt(<H^2> - <H>^2) of one plate segment."""
    h_state = generator(chi) @ state
    mean = float(np.real(np.vdot(state, h_state)))
    second = float(np.real(np.vdot(h_state, h_state)))
    return abs(delta) * math.sqrt(max(0.0, second - mean * mean))


def evolve_chain(state: np.ndarray, plates) -> tuple[list[np.ndarray], list[float]]:
    """States entering each plate plus the final state, and each plate's dynamical phase."""
    states = [state]
    dynamical = []
    for delta, chi in plates:
        dynamical.append(dynamical_phase(states[-1], delta, chi))
        states.append(plate(delta, chi) @ states[-1])
    return states, dynamical


def normalized(amplitudes, basis: str) -> np.ndarray:
    """Plate-basis unit vector for a config state, as the CLI reads it."""
    amps = np.asarray(amplitudes, dtype=complex)
    norm = float(np.linalg.norm(amps))
    if abs(norm * norm - 1.0) > 1e-12:
        amps = amps / norm
    return FOCK_TO_PMZ @ amps if basis == "fock" else amps


def eigenvalue_gap(found, expected) -> float:
    """Largest distance between two eigenvalue multisets, matched greedily."""
    left = list(np.asarray(found, dtype=complex))
    worst = 0.0
    for value in np.asarray(expected, dtype=complex):
        k = min(range(len(left)), key=lambda i: abs(left[i] - value))
        worst = max(worst, abs(left.pop(k) - value))
    return worst


def orthogonal_state(u: np.ndarray, target: complex, rng: np.random.Generator) -> np.ndarray | None:
    """A unit state psi with <psi|U psi> = target, or None if none exists.

    U is unitary, so <psi|U psi> = sum_k p_k lambda_k over its eigenvalues
    with weights p_k = |<v_k|psi>|^2; solve for the weights and give each
    eigenvector a random phase.  Targets at or near zero make the overlap
    orthogonal or nearly so.
    """
    values, vectors = np.linalg.eig(u)
    vectors, _ = np.linalg.qr(vectors)
    system = np.array([values.real, values.imag, np.ones(3)])
    try:
        weights = np.linalg.solve(system, np.array([target.real, target.imag, 1.0]))
    except np.linalg.LinAlgError:
        return None
    if np.any(weights < 1e-3):
        return None
    phases = np.exp(2j * math.pi * rng.random(3))
    psi = vectors @ (np.sqrt(weights) * phases)
    return psi / np.linalg.norm(psi)


def overlap_phase_tolerance(overlap: complex) -> float:
    """Allowed error of arg<a|b>: rounding in the overlap divided by its size."""
    return 1e-9 + 1e-12 / max(abs(overlap), 1e-300)


def phase_of(z: complex) -> float:
    return principal(cmath.phase(z))
