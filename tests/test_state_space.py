import math
import warnings

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
    PlateSpec,
    StateVector,
    Unitary3,
    UsageError,
    angle_distance,
    compose,
    curve_velocity,
    eigen,
    gauge_transform,
    geodesic_between,
    inner,
    overlap_series,
    parallel_lift,
    plate_eigen,
    principal,
    q_matrix,
    ray_distance,
    to_fock,
    to_pmz,
)
from biphase.state_space import NORM_TOL, _ROUNDING
from conftest import random_amplitudes, random_state

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


def numpy_state_verdict(amps):
    """The error type the StateVector checks raised when they ran as numpy calls on the triple, or None."""
    if not np.all(np.isfinite(amps.view(float))):
        return NumericError
    with np.errstate(over="ignore"):
        norm_sq = float(np.sum(np.abs(amps) ** 2))
    return UsageError if abs(norm_sq - 1.0) > NORM_TOL else None


def state_verdict(amps):
    try:
        StateVector(amps, Basis.PMZ)
    except (NumericError, UsageError) as exc:
        return type(exc)
    return None


# |c|^2 = 1 + k 1e-13 on both sides of NORM_TOL; k = +-10 itself is left
# out, where the two forms' sums may round to opposite sides
norm_offsets = [k for k in range(-25, 26) if abs(k) != 10] + [-10.02, -9.98, 9.98, 10.02]


@given(st.integers(0, 2**32 - 1), st.sampled_from(norm_offsets))
def test_state_check_keeps_the_verdicts_of_the_numpy_form(seed, k):
    rng = np.random.default_rng(seed)
    amps = random_amplitudes(rng) * math.sqrt(1.0 + k * 1e-13)
    assert state_verdict(amps) is numpy_state_verdict(amps)
    assert state_verdict(amps) is (UsageError if abs(k) > 10 else None)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 5),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e155, 1e200, 1e308]),
)
def test_state_check_keeps_the_verdicts_on_non_finite_and_huge_parts(seed, slot, value):
    parts = random_amplitudes(np.random.default_rng(seed)).view(float).copy()
    parts[slot] = value
    amps = parts.view(complex)
    expected = NumericError if not math.isfinite(value) else UsageError
    assert state_verdict(amps) is numpy_state_verdict(amps) is expected


@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 30.0, 1e6]))
def test_gauge_factor_is_the_bits_of_the_complex_exponential(seed, size):
    rng = np.random.default_rng(seed)
    curve = geodesic_between(random_state(rng), random_state(rng), 41)
    alpha = size * rng.normal(size=41)
    phased = gauge_transform(curve, alpha)
    assert np.array_equal(phased.amplitudes, np.exp(1j * alpha)[:, None] * curve.amplitudes)


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


@pytest.mark.parametrize("size", [1e308, 1e-200, 5e-324])
def test_normalized_rescales_a_norm_that_overflows_or_underflows(size):
    # |c| of (size, size, 0) overflows to inf or falls below the 1e-15 floor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = StateVector.normalized(np.array([size, size, 0.0]), Basis.PMZ)
        assert np.allclose(state.amplitudes, [S, S, 0.0], rtol=0.0, atol=1e-15)
        single = StateVector.normalized(np.array([0.0, 1j * size, 0.0]), Basis.PMZ)
        assert np.array_equal(single.amplitudes, [0.0, 1j, 0.0])
    # a normal-range triple takes the plain division, bit for bit
    amps = np.array([3.0, 4.0j, 1e-3])
    assert np.array_equal(StateVector.normalized(amps, Basis.PMZ).amplitudes, amps / np.linalg.norm(amps))


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


def test_curve_takes_column_major_amplitudes():
    amps = np.asfortranarray(great_circle(9).amplitudes)
    curve = Curve(np.linspace(0.0, 1.0, 9), amps, Basis.PMZ)
    assert np.array_equal(curve.amplitudes, amps)
    assert np.allclose(curve_velocity(curve), np.gradient(amps, curve.s, axis=0, edge_order=2), atol=1e-12)


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


# -- trusted constructions pass the public checks ---------------------------


def public_curve(curve):
    """The curve through the public constructor, which must accept it unchanged."""
    checked = Curve(curve.s, curve.amplitudes, curve.basis)
    assert np.array_equal(checked.s, curve.s) and np.array_equal(checked.amplitudes, curve.amplitudes)
    assert not curve.s.flags.writeable and not curve.amplitudes.flags.writeable
    # the trusted bound covers the measured worst row
    assert checked._defect <= curve._defect <= NORM_TOL
    return checked


def public_state(state):
    checked = StateVector(state.amplitudes, state.basis)
    assert np.array_equal(checked.amplitudes, state.amplitudes) and checked.basis is state.basis
    assert state.amplitudes.dtype == complex and not state.amplitudes.flags.writeable
    return checked


@st.composite
def endpoint_pairs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_state(rng)
    kind = draw(st.sampled_from(["random", "orthogonal", "near-degenerate"]))
    if kind == "random":
        return a, random_state(rng)
    raw = random_amplitudes(rng)
    across = raw - np.vdot(a.amplitudes, raw) * a.amplitudes
    across /= np.linalg.norm(across)
    if kind == "orthogonal":
        return a, StateVector.normalized(across, Basis.PMZ)
    # rays a small angle apart, down to a few times DEGENERACY_TOL
    angle = 10.0 ** draw(st.floats(-8.5, -2.0))
    phase = np.exp(1j * draw(st.floats(-math.pi, math.pi)))
    return a, StateVector.normalized(phase * (math.cos(angle) * a.amplitudes + math.sin(angle) * across), Basis.PMZ)


@given(endpoint_pairs(), st.sampled_from([3, 5, 41, 2001]), st.integers(0, 2**32 - 1), st.floats(0.0, 30.0))
def test_trusted_outputs_pass_the_public_constructors(pair, n, seed, size):
    rng = np.random.default_rng(seed)
    geodesic = geodesic_between(*pair, n)
    gauged = gauge_transform(geodesic, size * rng.normal(size=n))
    curves = [geodesic, gauged]
    if n >= 3:
        curves.append(parallel_lift(gauged))
    for curve in curves:
        public_curve(curve)
        for index in (0, -1, int(rng.integers(n))):
            public_state(curve.state(index))
    plates = [PlateSpec(float(d), float(c)) for d, c in rng.uniform(-size - 1.0, size + 1.0, (3, 2))]
    chain = compose([q_matrix(spec) for spec in plates])
    systems = [plate_eigen(plates[0]), eigen(chain), eigen(Unitary3(chain.matrix, chain.basis))]
    for system in systems:
        for state in system.states:
            public_state(state)


def test_a_geodesic_between_endpoints_at_the_norm_tolerance_is_checked():
    # |a|^2 - 1 = -9.8e-13 leaves the tangent of a ray 2e-9 away with a
    # component 4.9e-4 along a, so the trusted bound, 2.9e-12, defers to the
    # public check; the rows run from a to b exactly, within NORM_TOL of
    # unit norm, and the check measures and accepts them
    a = StateVector(np.array([1.0 - 4.9e-13, 0.0, 0.0]), Basis.PMZ)
    b = StateVector.normalized(np.array([math.cos(2e-9), math.sin(2e-9), 0.0]), Basis.PMZ)
    curve = geodesic_between(a, b, 41)
    # a trusted curve would carry the bound, 2.9e-12; the measured worst row is smaller
    assert 9e-13 < curve._defect <= NORM_TOL
    end = curve.amplitudes[-1]
    assert np.max(np.abs(end / np.linalg.norm(end) - b.amplitudes)) <= 1e-15
    # rows within one rounding of the tolerance: states and gauged rows are
    # measured by the public checks, which accept them
    x = math.sqrt(1.0 + NORM_TOL - 1e-15)
    edge = Curve(np.array([0.0, 1.0]), np.array([[x, 0.0, 0.0], [0.0, 0.0, x]]), Basis.PMZ)
    assert NORM_TOL - _ROUNDING < edge._defect <= NORM_TOL
    public_state(edge.state(-1))
    public_curve(gauge_transform(edge, [0.3, -1.2]))
