import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphase import (
    Basis,
    Curve,
    DegenerateRayError,
    GeodesicScenario,
    NumericError,
    PlateSpec,
    StateVector,
    UsageError,
    angle_distance,
    curve_length,
    curve_velocity,
    detect_phase_jump,
    evolve,
    gauge_transform,
    generalized_geodesic_check,
    geodesic_between,
    geodesic_frame,
    geodesic_residual,
    geometric_phase,
    horizontality_residual,
    inner,
    pancharatnam,
    parallel_lift,
    q_stack,
    ray_distance,
    two_level_curve,
    two_level_fringe,
    two_level_scenario,
)
from conftest import plate_moments, random_state

HALF_ANGLE = GeodesicScenario(d1=math.sqrt(3.0) / 2.0, d2=0.5, smax=math.pi / 4.0)


def pmz(*amps: complex) -> StateVector:
    return StateVector.normalized(np.array(amps, dtype=complex), Basis.PMZ)


def test_geodesic_frame_properties(rng):
    for _ in range(20):
        a, b = random_state(rng), random_state(rng)
        anchor, tangent, s0 = geodesic_frame(a, b)
        assert anchor is a
        assert abs(inner(a, tangent)) < 1e-12
        assert abs(np.linalg.norm(tangent.amplitudes) - 1.0) < 1e-12
        assert s0 == pytest.approx(math.acos(min(1.0, abs(inner(a, b)))), abs=1e-12)
        assert 0.0 < s0 < math.pi / 2.0 + 1e-12


def test_geodesic_frame_rejects_a_shared_ray(rng):
    a = random_state(rng)
    respun = StateVector(a.amplitudes * np.exp(0.7j), Basis.PMZ)
    with pytest.raises(DegenerateRayError):
        geodesic_frame(a, respun)


@pytest.mark.parametrize("theta", [3e-9, 1e-8, 2e-8, 1e-6, 1.0])
@pytest.mark.parametrize("phase", [0.0, 0.4, -2.9])
def test_geodesic_frame_resolves_small_angles(theta, phase):
    # the overlap cos(theta) rounds to within eps of 1 for theta below about
    # 1e-8; the norm of the orthogonal part still carries sin(theta) to a few ulp
    axis = np.array([0.6, -0.8j])
    a = pmz(1.0, 0.0, 0.0)
    b = StateVector(np.exp(1j * phase) * np.array([math.cos(theta), *(math.sin(theta) * axis)]), Basis.PMZ)
    _, tangent, s0 = geodesic_frame(a, b)
    assert s0 == pytest.approx(theta, rel=1e-12)
    assert ray_distance(a, b) == pytest.approx(math.sin(theta), rel=1e-12)
    # b re-gauged to a real overlap with a: the tangent drops b's phase; its
    # component along a is the rounding of b's first amplitude over sin(theta)
    assert np.max(np.abs(tangent.amplitudes - np.array([0.0, *axis]))) <= 1e-15 / theta


@pytest.mark.parametrize("theta", [0.0, 1e-12, 1e-9])
def test_geodesic_frame_refuses_rays_at_or_below_the_tolerance(theta):
    a = pmz(1.0, 0.0, 0.0)
    b = StateVector(np.array([math.cos(theta), math.sin(theta), 0.0]) * np.exp(0.3j), Basis.PMZ)
    with pytest.raises(DegenerateRayError):
        geodesic_frame(a, b)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 41, 2001]))
def test_geodesic_rows_are_the_bits_of_the_broadcast_form(seed, n):
    rng = np.random.default_rng(seed)
    a, b = random_state(rng), random_state(rng)
    start, tangent, s0 = geodesic_frame(a, b)
    s = np.linspace(0.0, s0, n)
    p, u = start.amplitudes.view(float), tangent.amplitudes.view(float)
    rows = np.cos(s)[:, None] * p + np.sin(s)[:, None] * u
    curve = geodesic_between(a, b, n)
    assert np.array_equal(curve.s, s)
    assert np.array_equal(curve.amplitudes.view(float).reshape(n, 6), rows)


def test_geodesic_between_orthogonal_axes_is_the_great_circle():
    curve = geodesic_between(pmz(1, 0, 0), pmz(0, 1, 0), 101)
    assert curve.s[-1] == pytest.approx(math.pi / 2.0)
    expected = np.stack(
        [np.cos(curve.s), np.sin(curve.s), np.zeros_like(curve.s)], axis=1
    )
    assert np.max(np.abs(curve.amplitudes - expected)) < 1e-12


def test_the_geodesic_to_an_orthogonal_ray_ignores_last_bit_noise(rng):
    # <a|b> of an orthogonal pair is rounding noise of about 1e-16; its phase
    # used to re-gauge b, so a last-bit change of b turned the sampled endpoint
    a, c = random_state(rng), random_state(rng)
    b = StateVector.normalized(c.amplitudes - inner(a, c) * a.amplitudes, Basis.PMZ)
    eps = np.finfo(float).eps
    for k in range(6):
        parts = b.amplitudes.view(float).copy()
        parts[k] = np.nextafter(parts[k], math.inf)
        nudged = StateVector(parts.view(complex), Basis.PMZ)
        assert 0.0 < abs(inner(a, nudged)) < 1e-15
        assert geodesic_frame(a, nudged)[2] == math.pi / 2.0
        end = geodesic_between(a, nudged, 41).amplitudes[-1]
        assert np.max(np.abs(end - nudged.amplitudes)) <= 4.0 * eps


def test_geodesic_endpoints(rng):
    a, b = random_state(rng), random_state(rng)
    curve = geodesic_between(a, b, 51)
    assert np.array_equal(curve.state(0).amplitudes, a.amplitudes)
    # far endpoint is b regauged so its overlap with a is real positive
    regauged = b.amplitudes * np.exp(-1j * pancharatnam(a, b))
    assert np.max(np.abs(curve.state(-1).amplitudes - regauged)) < 1e-12
    with pytest.raises(UsageError):
        geodesic_between(a, b, 1)


def test_geodesic_satisfies_its_equation_analytically(rng):
    # with unit-speed parameterization the chord obeys acc = -curve exactly
    a, b = random_state(rng), random_state(rng)
    anchor, tangent, s0 = geodesic_frame(a, b)
    s = np.linspace(0.0, s0, 201)
    amps = (
        np.cos(s)[:, None] * anchor.amplitudes + np.sin(s)[:, None] * tangent.amplitudes
    )
    acc = -np.cos(s)[:, None] * anchor.amplitudes - np.sin(s)[:, None] * tangent.amplitudes
    assert np.max(np.abs(acc + amps)) < 1e-9
    vel = -np.sin(s)[:, None] * anchor.amplitudes + np.cos(s)[:, None] * tangent.amplitudes
    horizontal = np.einsum("ij,ij->i", np.conj(amps), vel)
    assert np.max(np.abs(horizontal)) < 1e-12


def test_geodesic_residual_small_on_true_geodesics(rng):
    curve = geodesic_between(random_state(rng), random_state(rng), 1001)
    assert geodesic_residual(curve) < 1e-5
    assert horizontality_residual(curve) < 1e-8


def test_geodesic_residual_flags_latitude_circles():
    # a circle at constant polar angle is not a great circle
    s = np.linspace(0.0, 1.2, 1001)
    tilt = math.pi / 6.0
    amps = np.stack(
        [
            np.full_like(s, math.cos(tilt)),
            math.sin(tilt) * np.cos(s),
            math.sin(tilt) * np.sin(s),
        ],
        axis=1,
    ).astype(complex)
    assert geodesic_residual(Curve(s, amps, Basis.PMZ)) > 1e-2


components = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=50)
@given(
    st.lists(components, min_size=6, max_size=6),
    st.floats(0.05, 3.0),
    st.sampled_from([1.0, -1.0]),
    st.floats(-math.pi, math.pi),
    st.sampled_from([401, 2001]),
)
# eigenvectors of H(0) for 2 (no length) and for 0 (a constant curve)
@example([1.0, 1.0, 0.0, 0.0, 0.0, 0.0], 3.0, -1.0, 0.0, 401)
@example([0.0, 0.0, 1.0, 0.0, 0.0, 0.0], 0.05, 1.0, 0.0, 2001)
def test_functionals_of_a_plate_curve_converge_to_the_closed_forms(parts, size, sign, chi, n):
    # psi(d) = exp(i d H) psi0 has constant m and q: length |delta| sqrt(q - m^2),
    # horizontality |m| and geodesic residual sqrt(q (4 - q)).  Central and
    # edge differences of a curve whose k-th derivative is at most 2^k err by
    # at most (8/3) h^2 in the velocity, which bounds the three errors below;
    # the second difference adds rounding of about eps / h^2.
    raw = np.array(parts[:3]) + 1j * np.array(parts[3:])
    if np.linalg.norm(raw) < 0.1:
        raw = np.array([1.0, 0.5j, -0.25])
    state = StateVector.normalized(raw, Basis.PMZ)
    delta = sign * size
    curve = evolve(PlateSpec(delta, chi), state, n)
    h = size / (n - 1)
    m, q = plate_moments(state, chi)
    variance = max(0.0, q - m * m)
    assert abs(horizontality_residual(curve) - abs(m)) <= 3.0 * h**2
    eps = np.finfo(float).eps
    assert abs(geodesic_residual(curve) - math.sqrt(max(0.0, q * (4.0 - q)))) <= 7.0 * h**2 + 8.0 * eps / h**2
    # the integrand sqrt(q - m^2) errs by at most min(sqrt(e), e / sqrt(q - m^2)), e = 22 h^2
    rate_error = min(math.sqrt(22.0) * h, 22.0 * h**2 / math.sqrt(variance) if variance else math.inf)
    assert abs(curve_length(curve) - size * math.sqrt(variance)) <= size * rate_error


def test_geodesic_residual_refuses_a_step_whose_square_underflows():
    # 401 samples 2.5e-303 apart
    curve = evolve(PlateSpec(1e-300, 0.2), pmz(0.6, 0.48 + 0.3j, -0.2 + 0.52j), 401)
    with pytest.raises(NumericError, match="underflows"):
        geodesic_residual(curve)


def test_geodesic_residual_refuses_a_step_whose_square_overflows():
    # 2001 samples 4e304 apart
    curve = evolve(PlateSpec(8e307, 0.2), pmz(0.6, 0.48 + 0.3j, -0.2 + 0.52j), 2001)
    with pytest.raises(NumericError, match="overflows"):
        geodesic_residual(curve)


def test_two_level_orbit_is_a_great_circle_of_the_sphere():
    # constant-speed rotation orbits solve acc = -curve even when tilted
    scenario = GeodesicScenario(d1=math.sqrt(3.0) / 2.0, d2=0.5, smax=1.2)
    curve = two_level_curve(scenario, 1001)
    assert geodesic_residual(curve) < 1e-5
    # but only zero coupling makes the orbit horizontal
    assert horizontality_residual(curve) == pytest.approx(scenario.coupling, abs=1e-6)


def test_residual_check_validates_the_grid(rng):
    a, b = random_state(rng), random_state(rng)
    curve = geodesic_between(a, b, 101)
    warped = Curve(curve.s**2 + curve.s + 0.1, curve.amplitudes, Basis.PMZ)
    with pytest.raises(UsageError):
        geodesic_residual(warped)
    short = geodesic_between(a, b, 4)
    with pytest.raises(UsageError):
        geodesic_residual(short)
    two = geodesic_between(a, b, 2)
    with pytest.raises(UsageError):
        horizontality_residual(two)


def test_parallel_lift_leaves_horizontal_curves_alone(rng):
    curve = geodesic_between(random_state(rng), random_state(rng), 501)
    lifted = parallel_lift(curve)
    assert np.max(np.abs(lifted.amplitudes - curve.amplitudes)) < 1e-12


def test_parallel_lift_matches_the_linear_gauge():
    # constant coupling makes the lift angle exactly -s * coupling
    curve = two_level_curve(HALF_ANGLE, 2001)
    lifted = parallel_lift(curve)
    exact = np.exp(-1j * HALF_ANGLE.coupling * curve.s)[:, None] * curve.amplitudes
    assert np.max(np.abs(lifted.amplitudes - exact)) < 1e-5


def test_parallel_lift_produces_a_horizontal_curve():
    lifted = parallel_lift(two_level_curve(HALF_ANGLE, 8001))
    assert horizontality_residual(lifted) < 1e-8


def test_parallel_lift_preserves_rays_and_the_geometric_phase(rng):
    state = random_state(rng)
    curve = evolve(PlateSpec(0.9, 0.3), state, 4001)
    lifted = parallel_lift(curve)
    overlaps = np.abs(np.einsum("ij,ij->i", np.conj(lifted.amplitudes), curve.amplitudes))
    assert np.max(np.abs(overlaps - 1.0)) < 1e-12
    assert geometric_phase(lifted).geometric == pytest.approx(
        geometric_phase(curve).geometric, abs=1e-6
    )


def test_parallel_lift_needs_three_samples(rng):
    with pytest.raises(UsageError):
        parallel_lift(geodesic_between(random_state(rng), random_state(rng), 2))


def test_curve_length_of_a_ray_constant_curve_vanishes():
    s = np.linspace(0.0, 1.0, 101)
    amps = np.exp(1j * s)[:, None] * np.array([[1.0, 0.0, 0.0]], dtype=complex)
    # the radicand cancels to rounding before the square root, so the
    # quadrature floor sits near sqrt(machine epsilon) times the span
    assert curve_length(Curve(s, amps, Basis.PMZ)) < 1e-7


def test_curve_length_of_the_great_circle():
    curve = geodesic_between(pmz(1, 0, 0), pmz(0, 1, 0), 2001)
    assert curve_length(curve) == pytest.approx(math.pi / 2.0, abs=1e-6)


def test_curve_length_is_gauge_invariant():
    curve = two_level_curve(HALF_ANGLE, 2001)
    base = curve_length(curve)
    moved = curve_length(gauge_transform(curve, lambda t: 0.05 * math.sin(2.0 * t)))
    assert moved == pytest.approx(base, abs=1e-8)


def test_curve_length_needs_three_samples(rng):
    with pytest.raises(UsageError):
        curve_length(geodesic_between(random_state(rng), random_state(rng), 2))


def test_geodesics_minimize_length_among_smooth_paths(rng):
    for _ in range(20):
        a, b = random_state(rng), random_state(rng)
        curve = geodesic_between(a, b, 1001)
        s0 = float(curve.s[-1])
        bump_dir = rng.normal(size=3) + 1j * rng.normal(size=3)
        size = float(rng.uniform(0.01, 0.1))
        bump = size * np.sin(np.pi * curve.s / s0)[:, None] * bump_dir[None, :]
        amps = curve.amplitudes + bump
        amps = amps / np.linalg.norm(amps, axis=1)[:, None]
        detour = Curve(curve.s, amps, Basis.PMZ)
        assert curve_length(detour) >= s0 - 1e-6


def test_scenario_validation():
    with pytest.raises(UsageError):
        GeodesicScenario(d1=1.0, d2=0.0, smax=1.0, family=3)
    with pytest.raises(UsageError):
        GeodesicScenario(d1=1.0, d2=1.0, smax=1.0)
    with pytest.raises(UsageError):
        GeodesicScenario(d1=1.0, d2=0.0, smax=0.0)
    with pytest.raises(UsageError):
        GeodesicScenario(d1=math.nan, d2=0.0, smax=1.0)


def test_scenario_coupling_value():
    assert HALF_ANGLE.coupling == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)
    assert GeodesicScenario(d1=0.6, d2=-0.8, smax=1.0).coupling == pytest.approx(-0.96)


def test_two_level_curve_matches_plate_evolution(rng):
    # family 1 rides the middle-coupling plate at chi = 0
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    d1, d2 = math.cos(phi), math.sin(phi)
    scenario = GeodesicScenario(d1=d1, d2=d2, smax=1.4)
    curve = two_level_curve(scenario, 301)
    driven = evolve(PlateSpec(0.7, 0.0), pmz(d1, d2, 0), 301)
    assert np.max(np.abs(curve.amplitudes - driven.amplitudes)) < 1e-12
    assert np.allclose(curve.s, 2.0 * driven.s)


def test_two_level_curve_second_family_uses_the_outer_pair(rng):
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    d1, d2 = math.cos(phi), math.sin(phi)
    scenario = GeodesicScenario(d1=d1, d2=d2, smax=1.4, family=2)
    curve = two_level_curve(scenario, 301)
    driven = evolve(PlateSpec(0.7, math.pi / 4.0), pmz(d1, 0, d2), 301)
    assert np.max(np.abs(curve.amplitudes - driven.amplitudes)) < 1e-12
    assert np.max(np.abs(curve.amplitudes[:, 1])) == 0.0


def test_two_level_curve_has_unit_speed():
    vel = curve_velocity(two_level_curve(HALF_ANGLE, 2001))
    speed = np.linalg.norm(vel, axis=1)
    assert np.max(np.abs(speed - 1.0)) < 1e-6


def test_two_level_curve_needs_two_samples():
    with pytest.raises(UsageError):
        two_level_curve(HALF_ANGLE, 1)


def test_two_level_scenario_frozen_values():
    theta, geometric = two_level_scenario(HALF_ANGLE)
    assert theta == pytest.approx(math.atan(math.sqrt(3.0) / 2.0), abs=1e-15)
    assert theta == pytest.approx(0.7137243789447656, abs=1e-15)
    assert geometric == pytest.approx(0.03354961735693396, abs=1e-15)


def test_two_level_scenario_with_unit_coupling_is_dynamical_only():
    s = math.sqrt(0.5)
    theta, geometric = two_level_scenario(GeodesicScenario(d1=s, d2=s, smax=0.8))
    assert theta == pytest.approx(0.8, abs=1e-12)
    assert geometric == pytest.approx(0.0, abs=1e-12)


def test_two_level_scenario_tracks_the_sampled_curve(rng):
    for _ in range(10):
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        scenario = GeodesicScenario(
            d1=math.cos(phi), d2=math.sin(phi), smax=float(rng.uniform(0.1, 3.0))
        )
        theta, geometric = two_level_scenario(scenario)
        report = geometric_phase(two_level_curve(scenario, 4001))
        assert angle_distance(theta, report.pancharatnam) < 1e-8
        assert geometric == pytest.approx(report.geometric, abs=1e-6)


def test_two_level_scenario_is_continuous_through_the_crossing():
    base = GeodesicScenario(d1=math.sqrt(3.0) / 2.0, d2=0.5, smax=math.pi / 2.0)
    eps = 1e-3
    below = two_level_scenario(
        GeodesicScenario(d1=base.d1, d2=base.d2, smax=math.pi / 2.0 - eps)
    )[1]
    above = two_level_scenario(
        GeodesicScenario(d1=base.d1, d2=base.d2, smax=math.pi / 2.0 + eps)
    )[1]
    assert abs(above - below) < 1e-2


def test_two_level_fringe_agrees_below_the_crossing():
    for s in (0.2, 0.7, 1.3):
        theta, geometric = two_level_fringe(HALF_ANGLE, s)
        scenario = GeodesicScenario(d1=HALF_ANGLE.d1, d2=HALF_ANGLE.d2, smax=s)
        assert (theta, geometric) == pytest.approx(two_level_scenario(scenario), abs=1e-12)


def test_fringe_reading_jumps_at_the_crossing():
    jump = detect_phase_jump(HALF_ANGLE, 1e-3)
    assert jump == pytest.approx(-3.1410153035772037, abs=1e-12)
    assert abs(jump + math.pi) < 1e-2
    # the defect closes linearly in epsilon
    closer = detect_phase_jump(HALF_ANGLE, 5e-4)
    assert abs(closer + math.pi) == pytest.approx(0.5 * abs(jump + math.pi), rel=1e-3)


def test_no_jump_at_unit_coupling():
    s = math.sqrt(0.5)
    assert detect_phase_jump(GeodesicScenario(d1=s, d2=s, smax=math.pi), 1e-3) == 0.0
    assert detect_phase_jump(GeodesicScenario(d1=s, d2=-s, smax=math.pi), 1e-3) == 0.0


def test_detect_phase_jump_epsilon_window():
    for epsilon in (0.0, 0.1, -1e-3, 0.5):
        with pytest.raises(UsageError):
            detect_phase_jump(HALF_ANGLE, epsilon)


def test_generalized_geodesic_identity_analytic():
    grid = np.linspace(0.0, math.pi, 721)
    for chi in (0.0, 0.2, math.pi / 8.0, 1.1):
        assert generalized_geodesic_check(chi, grid, method="analytic") < 1e-12


def test_generalized_geodesic_identity_finite_difference():
    grid = np.linspace(0.0, 0.2, 201)  # step 1e-3
    assert generalized_geodesic_check(0.3, grid, method="fd") < 1e-5


def test_generalized_geodesic_check_validation():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(UsageError):
        generalized_geodesic_check(0.3, grid[:4])
    with pytest.raises(UsageError):
        generalized_geodesic_check(0.3, grid**2)
    with pytest.raises(UsageError):
        generalized_geodesic_check(0.3, grid[::-1])
    with pytest.raises(UsageError):
        generalized_geodesic_check(0.3, grid, method="exact")


def test_real_part_carries_no_matching_identity():
    # the imaginary part obeys the harmonic identity; the real part does not
    chi = math.pi / 8.0
    h = 1e-3
    deltas = np.array([math.pi / 6.0 - h, math.pi / 6.0, math.pi / 6.0 + h])
    real = q_stack(deltas, chi).real
    second = (real[2] - 2.0 * real[1] + real[0]) / h**2
    residual = second + 4.0 * real[1]
    assert abs(residual[2, 2]) > 1e-2
