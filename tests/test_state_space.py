import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from biphase import (
    BASIS_CHANGE,
    Basis,
    BasisMismatchError,
    Curve,
    NumericError,
    StateVector,
    UsageError,
    angle_distance,
    curve_velocity,
    gauge_transform,
    inner,
    overlap_series,
    principal,
    ray_distance,
    to_fock,
    to_pmz,
)
from biphase.state_space import NORM_TOL
from conftest import random_state

S = math.sqrt(0.5)

coords = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def unit_triples(draw):
    parts = [draw(coords) for _ in range(6)]
    vec = np.array(
        [complex(parts[0], parts[1]), complex(parts[2], parts[3]), complex(parts[4], parts[5])]
    )
    norm = np.linalg.norm(vec)
    assume(norm > 1e-3)
    return vec / norm


angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(angles)
def test_principal_lands_on_the_half_open_branch(x):
    y = principal(x)
    assert -math.pi < y <= math.pi
    # same angle modulo full turns
    assert math.isclose(math.cos(y), math.cos(x), abs_tol=1e-12)
    assert math.isclose(math.sin(y), math.sin(x), abs_tol=1e-12)
    assert principal(y) == y


def test_principal_folds_the_negative_half_turn_up():
    assert principal(-math.pi) == math.pi
    assert principal(math.pi) == math.pi
    assert principal(3.0 * math.pi) == pytest.approx(math.pi)


@given(angles, angles)
def test_angle_distance_is_symmetric_and_bounded(a, b):
    d = angle_distance(a, b)
    assert 0.0 <= d <= math.pi
    assert angle_distance(b, a) == pytest.approx(d, abs=1e-12)


def test_basis_change_is_special_orthogonal():
    a = BASIS_CHANGE.matrix
    assert np.allclose(a @ a.T, np.eye(3), atol=1e-15)
    assert np.linalg.det(a) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(BASIS_CHANGE.inverse, a.T)


def test_basis_change_matrix_is_frozen():
    with pytest.raises(ValueError):
        BASIS_CHANGE.matrix[0, 0] = 2.0


def test_two_photon_single_mode_splits_evenly():
    c = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), Basis.FOCK)
    d = to_pmz(c)
    assert np.allclose(d.amplitudes, [S, S, 0.0], atol=1e-15)


def test_one_photon_per_mode_is_the_third_plate_state():
    d = StateVector(np.array([0.0, 0.0, 1.0], dtype=complex), Basis.PMZ)
    c = to_fock(d)
    assert np.allclose(c.amplitudes, [0.0, 1.0, 0.0], atol=1e-15)


@given(unit_triples())
def test_basis_round_trip_is_lossless(vec):
    c = StateVector.normalized(vec, Basis.FOCK)
    back = to_fock(to_pmz(c))
    assert back.basis is Basis.FOCK
    assert np.allclose(back.amplitudes, c.amplitudes, atol=1e-14)
    assert abs(np.linalg.norm(to_pmz(c).amplitudes) - 1.0) < 1e-12


def test_basis_conversions_reject_the_wrong_tag():
    d = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), Basis.PMZ)
    with pytest.raises(BasisMismatchError):
        to_pmz(d)
    with pytest.raises(BasisMismatchError):
        to_fock(to_fock(d))


def test_state_vector_validates_shape_norm_and_finiteness():
    with pytest.raises(UsageError):
        StateVector(np.array([1.0, 0.0], dtype=complex), Basis.PMZ)
    with pytest.raises(UsageError):
        StateVector(np.array([1.0, 1.0, 0.0], dtype=complex), Basis.PMZ)
    with pytest.raises(NumericError):
        StateVector(np.array([np.nan, 0.0, 0.0], dtype=complex), Basis.PMZ)
    with pytest.raises(UsageError):
        StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), "pmz")


def test_state_vector_is_immutable():
    state = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), Basis.PMZ)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_normalized_keeps_unit_input_bit_exact():
    amps = np.array([0.6, 0.8j, 0.0])
    state = StateVector.normalized(amps, Basis.PMZ)
    assert state.amplitudes[0] == 0.6 and state.amplitudes[1] == 0.8j


def test_normalized_rescales_and_rejects_zero():
    state = StateVector.normalized(np.array([3.0, 4.0j, 0.0]), Basis.PMZ)
    assert np.allclose(state.amplitudes, [0.6, 0.8j, 0.0])
    with pytest.raises(NumericError):
        StateVector.normalized(np.zeros(3, dtype=complex), Basis.PMZ)


def test_inner_conjugates_the_first_argument(rng):
    a = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), Basis.PMZ)
    b = StateVector(np.array([1.0j, 0.0, 0.0]), Basis.PMZ)
    assert inner(a, b) == pytest.approx(1.0j)
    x, y = random_state(rng), random_state(rng)
    assert inner(x, y) == pytest.approx(np.conj(inner(y, x)))
    with pytest.raises(BasisMismatchError):
        inner(a, StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), Basis.FOCK))


def test_ray_distance_extremes_and_gauge_invariance(rng):
    a = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), Basis.PMZ)
    b = StateVector(np.array([0.0, 1.0, 0.0], dtype=complex), Basis.PMZ)
    assert ray_distance(a, b) == pytest.approx(1.0)
    spun = StateVector(a.amplitudes * np.exp(0.61j), Basis.PMZ)
    assert ray_distance(a, spun) == pytest.approx(0.0, abs=1e-7)
    x, y = random_state(rng), random_state(rng)
    respun = StateVector(y.amplitudes * np.exp(-1.2j), Basis.PMZ)
    assert ray_distance(x, respun) == pytest.approx(ray_distance(x, y), abs=1e-12)


def great_circle(n: int) -> Curve:
    s = np.linspace(0.0, math.pi / 2.0, n)
    amps = np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], axis=1).astype(complex)
    return Curve(s, amps, Basis.PMZ)


def test_curve_validation():
    s = np.array([0.0, 1.0, 1.0])
    amps = np.stack([[1, 0, 0]] * 3).astype(complex)
    with pytest.raises(UsageError):
        Curve(s, amps, Basis.PMZ)  # non-increasing parameter
    with pytest.raises(UsageError):
        Curve(np.array([0.0]), amps[:1], Basis.PMZ)  # single sample
    bad = amps.copy()
    bad[1] = [1.0, 1.0, 0.0]
    with pytest.raises(UsageError):
        Curve(np.array([0.0, 0.5, 1.0]), bad, Basis.PMZ)  # non-unit row
    with pytest.raises(UsageError):
        Curve(np.array([0.0, 1.0]), amps[:2, :2], Basis.PMZ)  # wrong width


@given(st.lists(st.tuples(unit_triples(), st.floats(min_value=-3e-12, max_value=3e-12)), min_size=2, max_size=6))
def test_curve_norm_check_keeps_the_verdict_of_the_squared_moduli(rows):
    # rows scaled to |c|^2 = 1 + excess around the tolerance; the reference
    # verdict sums |c|^2, the check squared real and imaginary parts
    amps = np.stack([vec * math.sqrt(1.0 + excess) for vec, excess in rows])
    old = np.abs(np.sum(np.abs(amps) ** 2, axis=1) - 1.0)
    assume(np.min(np.abs(old - NORM_TOL)) >= 1e-14)
    s = np.arange(float(len(rows)))
    if np.max(old) > NORM_TOL:
        with pytest.raises(UsageError):
            Curve(s, amps, Basis.PMZ)
    else:
        Curve(s, amps, Basis.PMZ)


def test_curve_accessors_round_trip():
    curve = great_circle(5)
    assert len(curve) == 5
    assert curve.state(0).amplitudes[0] == 1.0
    assert curve.state(-1).amplitudes[1] == pytest.approx(1.0)
    pairs = list(curve.samples())
    assert pairs[2][0] == pytest.approx(math.pi / 4.0)
    rebuilt = Curve.from_states([p for p, _ in pairs], [st for _, st in pairs])
    assert np.allclose(rebuilt.amplitudes, curve.amplitudes)
    assert rebuilt.basis is Basis.PMZ


def test_from_states_rejects_mixed_bases_and_length_mismatch():
    a = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), Basis.PMZ)
    b = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), Basis.FOCK)
    with pytest.raises(BasisMismatchError):
        Curve.from_states([0.0, 1.0], [a, b])
    with pytest.raises(UsageError):
        Curve.from_states([0.0], [a, a])


def test_gauge_transform_callable_and_array_agree():
    curve = great_circle(33)
    phased_fn = gauge_transform(curve, lambda t: 0.3 * t + 0.1)
    phased_arr = gauge_transform(curve, 0.3 * curve.s + 0.1)
    assert np.allclose(phased_fn.amplitudes, phased_arr.amplitudes, atol=1e-15)
    # rays untouched: per-sample magnitudes identical
    assert np.allclose(np.abs(phased_fn.amplitudes), np.abs(curve.amplitudes), atol=1e-15)


def test_gauge_transform_rejects_bad_alpha():
    curve = great_circle(9)
    with pytest.raises(UsageError):
        gauge_transform(curve, np.zeros(4))
    with pytest.raises(NumericError):
        gauge_transform(curve, lambda t: math.inf)


def test_curve_velocity_matches_the_analytic_tangent():
    curve = great_circle(801)
    vel = curve_velocity(curve)
    expected = np.stack(
        [-np.sin(curve.s), np.cos(curve.s), np.zeros_like(curve.s)], axis=1
    )
    assert np.max(np.abs(vel - expected)) < 5e-6  # second-order in the step
    with pytest.raises(UsageError):
        curve_velocity(great_circle(2))


def test_overlap_series_on_the_great_circle():
    curve = great_circle(101)
    series = overlap_series(curve)
    assert series.shape == (100,)
    step = math.pi / 2.0 / 100.0
    assert np.allclose(series, math.cos(step), atol=1e-12)
