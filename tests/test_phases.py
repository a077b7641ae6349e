import cmath
import math

import numpy as np
import pytest

from biphase import (
    Basis,
    BasisMismatchError,
    Curve,
    GeodesicScenario,
    IndeterminatePhaseError,
    PhaseReport,
    PlateSpec,
    StateVector,
    UsageError,
    angle_distance,
    bargmann_limit,
    dynamical_phase_closed_form,
    dynamical_phase_numeric,
    evolve,
    gauge_transform,
    geometric_phase,
    inner,
    interference_intensity,
    pancharatnam,
    parallel_lift,
    principal,
    transformation_phase,
    two_level_curve,
    vertex_product,
    visibility,
)
from conftest import random_state

S = math.sqrt(0.5)


def pmz(*amps: complex) -> StateVector:
    return StateVector.normalized(np.array(amps, dtype=complex), Basis.PMZ)


def qwp_eigenvector(chi: float) -> StateVector:
    return pmz(S, S * math.cos(2 * chi), S * math.sin(2 * chi))


def test_pancharatnam_reads_the_relative_phase(rng):
    a = random_state(rng)
    spun = StateVector(a.amplitudes * cmath.exp(1.2j), Basis.PMZ)
    assert pancharatnam(a, spun) == pytest.approx(1.2, abs=1e-12)
    assert pancharatnam(a, a) == 0.0


def test_pancharatnam_is_antisymmetric(rng):
    a, b = random_state(rng), random_state(rng)
    assert pancharatnam(a, b) == pytest.approx(-pancharatnam(b, a), abs=1e-12)


def test_pancharatnam_orthogonal_states_are_indeterminate():
    with pytest.raises(IndeterminatePhaseError):
        pancharatnam(pmz(1, 0, 0), pmz(0, 1, 0))


def test_pancharatnam_threshold_is_adjustable():
    a = pmz(1, 0, 0)
    nearly = pmz(1e-6, math.sqrt(1.0 - 1e-12), 0)
    assert pancharatnam(a, nearly) == pytest.approx(0.0)
    with pytest.raises(IndeterminatePhaseError):
        pancharatnam(a, nearly, threshold=1e-3)


def test_visibility_values():
    a = pmz(1, 0, 0)
    assert visibility(a, a) == 1.0
    assert visibility(a, pmz(0, 1, 0)) == 0.0
    assert visibility(a, pmz(S, S, 0)) == pytest.approx(S, abs=1e-15)


def test_interference_intensity_examples():
    a = pmz(1, 0, 0)
    assert interference_intensity(a, a, 0.0) == pytest.approx(4.0)
    for phi in np.linspace(-math.pi, math.pi, 7):
        assert interference_intensity(a, pmz(0, 1, 0), float(phi)) == pytest.approx(2.0)
    assert interference_intensity(a, pmz(S, S, 0), math.pi) == pytest.approx(2.0 - math.sqrt(2.0))


def test_interference_intensity_peaks_at_the_pancharatnam_phase(rng):
    for _ in range(20):
        a, b = random_state(rng), random_state(rng)
        v = visibility(a, b)
        if v < 1e-9:
            continue
        peak = pancharatnam(a, b)
        assert interference_intensity(a, b, peak) == pytest.approx(2.0 + 2.0 * v, abs=1e-12)
        samples = [
            interference_intensity(a, b, float(phi))
            for phi in np.linspace(-math.pi, math.pi, 41)
        ]
        assert max(samples) <= 2.0 + 2.0 * v + 1e-12
        assert min(samples) >= 2.0 - 2.0 * v - 1e-12


def test_closed_form_dynamical_phase_examples():
    assert dynamical_phase_closed_form(pmz(1, 0, 0), PlateSpec(0.7, 0.3)) == 0.0
    top = dynamical_phase_closed_form(qwp_eigenvector(0.2), PlateSpec(math.pi / 4.0, 0.2))
    assert top == pytest.approx(math.pi / 2.0, abs=1e-12)
    mixed = dynamical_phase_closed_form(pmz(S, S, 0), PlateSpec(math.pi / 8.0, 0.0))
    assert mixed == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_closed_form_needs_plate_basis():
    fock = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), Basis.FOCK)
    with pytest.raises(BasisMismatchError):
        dynamical_phase_closed_form(fock, PlateSpec(0.3, 0.0))


def test_quadrature_on_a_constant_curve_vanishes():
    amps = np.tile(np.array([1.0, 0.0, 0.0], dtype=complex), (9, 1))
    curve = Curve(np.linspace(0.0, 1.0, 9), amps, Basis.PMZ)
    assert dynamical_phase_numeric(curve) == pytest.approx(0.0, abs=1e-15)


def test_quadrature_matches_the_closed_form():
    spec = PlateSpec(math.pi / 4.0, 0.2)
    curve = evolve(spec, qwp_eigenvector(0.2), 2001)
    assert dynamical_phase_numeric(curve) == pytest.approx(math.pi / 2.0, abs=1e-6)


def test_quadrature_needs_three_samples():
    amps = np.tile(np.array([1.0, 0.0, 0.0], dtype=complex), (2, 1))
    with pytest.raises(UsageError):
        dynamical_phase_numeric(Curve(np.array([0.0, 1.0]), amps, Basis.PMZ))


def test_lifted_curve_has_no_dynamical_phase():
    scenario = GeodesicScenario(d1=math.sqrt(3.0) / 2.0, d2=0.5, smax=math.pi / 4.0)
    lifted = parallel_lift(two_level_curve(scenario, 8001))
    assert abs(dynamical_phase_numeric(lifted)) < 1e-8


def test_cyclic_eigenvector_report():
    spec = PlateSpec(math.pi / 4.0, 0.3)
    curve = evolve(spec, qwp_eigenvector(0.3), 2001)
    report = geometric_phase(curve)
    assert report.pancharatnam == pytest.approx(math.pi / 2.0, abs=1e-8)
    assert report.dynamical == pytest.approx(math.pi / 2.0, abs=1e-6)
    assert report.geometric == pytest.approx(0.0, abs=1e-6)
    assert report.visibility == pytest.approx(1.0, abs=1e-12)


def test_unit_coupling_two_level_curve_is_purely_dynamical():
    scenario = GeodesicScenario(d1=S, d2=S, smax=0.9)
    report = geometric_phase(two_level_curve(scenario, 4001))
    assert report.pancharatnam == pytest.approx(0.9, abs=1e-10)
    assert report.dynamical == pytest.approx(0.9, abs=1e-8)
    assert report.geometric == pytest.approx(0.0, abs=1e-8)


def test_geometric_phase_rejects_orthogonal_endpoints():
    s = np.linspace(0.0, math.pi / 2.0, 51)
    amps = np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], axis=1).astype(complex)
    with pytest.raises(IndeterminatePhaseError):
        geometric_phase(Curve(s, amps, Basis.PMZ))


def test_gauge_covariance_of_the_report(rng):
    for _ in range(5):
        state = random_state(rng)
        spec = PlateSpec(float(rng.uniform(0.2, 1.2)), float(rng.uniform(-1.0, 1.0)))
        curve = evolve(spec, state, 4001)
        base = geometric_phase(curve)
        a0, a1 = rng.uniform(-0.3, 0.3, size=2)
        alpha = lambda t: a0 * t + a1 * math.sin(2.0 * t)  # noqa: E731
        moved = geometric_phase(gauge_transform(curve, alpha))
        shift = alpha(float(curve.s[-1])) - alpha(0.0)
        assert angle_distance(moved.pancharatnam, base.pancharatnam + shift) < 1e-8
        assert moved.dynamical - base.dynamical == pytest.approx(shift, abs=1e-6)
        assert moved.geometric == pytest.approx(base.geometric, abs=1e-6)


def test_phase_report_enforces_its_own_decomposition():
    with pytest.raises(UsageError):
        PhaseReport(pancharatnam=0.5, dynamical=0.1, geometric=0.3, visibility=0.9)
    with pytest.raises(UsageError):
        PhaseReport(pancharatnam=0.5, dynamical=0.1, geometric=principal(0.4), visibility=1.5)
    report = PhaseReport(0.5, 0.1, principal(0.4), 0.9)
    assert report.geometric == pytest.approx(0.4)


def test_transformation_phase_of_the_identity(rng):
    state = random_state(rng)
    total, rate = transformation_phase(state, PlateSpec(0.0, 0.4))
    assert total == pytest.approx(0.0, abs=1e-12)
    assert rate == pytest.approx(0.0, abs=1e-12)


def test_transformation_phase_against_direct_overlap(rng):
    from biphase import q_matrix

    for _ in range(100):
        state = random_state(rng)
        spec = PlateSpec(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))
        out = StateVector(q_matrix(spec).matrix @ state.amplitudes, Basis.PMZ)
        z = inner(state, out)
        if abs(z) < 1e-6:
            continue
        total, imag = transformation_phase(state, spec)
        assert total == pytest.approx(principal(cmath.phase(z)), abs=1e-12)
        assert imag == pytest.approx(z.imag, abs=1e-12)


def test_transformation_phase_orthogonal_output_is_indeterminate():
    # the half-wave plate at chi = pi/4 maps (1, 1, 0) onto (-1, 1, 0)
    with pytest.raises(IndeterminatePhaseError):
        transformation_phase(pmz(S, S, 0), PlateSpec(math.pi / 2.0, math.pi / 4.0))


def test_transformation_phase_needs_plate_basis():
    fock = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), Basis.FOCK)
    with pytest.raises(BasisMismatchError):
        transformation_phase(fock, PlateSpec(0.3, 0.0))


def test_thin_plate_phase_is_dominated_by_the_dynamical_part(rng):
    # per-plate geometric residue shrinks cubically with thickness
    checked = 0
    for _ in range(20):
        state = random_state(rng)
        chi = float(rng.uniform(-math.pi, math.pi))
        coarse = geometric_residue(state, 0.2, chi)
        if abs(coarse) < 1e-8:
            continue
        fine = geometric_residue(state, 0.1, chi)
        assert abs(fine) <= 0.35 * abs(coarse)
        checked += 1
    assert checked >= 10


def geometric_residue(state: StateVector, delta: float, chi: float) -> float:
    spec = PlateSpec(delta, chi)
    total, _ = transformation_phase(state, spec)
    return principal(total - dynamical_phase_closed_form(state, spec))


def test_vertex_product_degenerate_cases(rng):
    a = random_state(rng)
    assert vertex_product([a, a]) == pytest.approx(0.0, abs=1e-12)
    reals = [pmz(1, 0, 0), pmz(S, S, 0), pmz(0.6, 0.8, 0)]
    assert vertex_product(reals) == pytest.approx(0.0, abs=1e-12)


def test_vertex_product_frozen_triangle():
    triangle = [pmz(1, 0, 0), pmz(S, S, 0), pmz(S, S * 1j, 0)]
    assert vertex_product(triangle) == pytest.approx(-math.pi / 4.0, abs=1e-12)


def test_vertex_product_is_cyclic_and_reverses_sign(rng):
    states = [random_state(rng) for _ in range(4)]
    base = vertex_product(states)
    rolled = vertex_product(states[1:] + states[:1])
    assert angle_distance(base, rolled) < 1e-12
    assert angle_distance(vertex_product(states[::-1]), -base) < 1e-12


def test_vertex_product_validation(rng):
    with pytest.raises(UsageError):
        vertex_product([random_state(rng)])
    with pytest.raises(BasisMismatchError):
        vertex_product([pmz(1, 0, 0), random_state(rng, Basis.FOCK)])
    with pytest.raises(IndeterminatePhaseError):
        vertex_product([pmz(1, 0, 0), pmz(0, 1, 0), pmz(0, 0, 1)])


def test_bargmann_limit_of_a_constant_curve():
    amps = np.tile(np.array([S, S, 0.0], dtype=complex), (5, 1))
    curve = Curve(np.linspace(0.0, 1.0, 5), amps, Basis.PMZ)
    assert bargmann_limit(curve) == pytest.approx(0.0, abs=1e-15)


def test_bargmann_limit_recovers_the_geometric_phase():
    scenario = GeodesicScenario(d1=math.sqrt(3.0) / 2.0, d2=0.5, smax=math.pi / 4.0)
    curve = two_level_curve(scenario, 2001)
    report = geometric_phase(curve)
    assert bargmann_limit(curve) == pytest.approx(report.geometric, abs=1e-3)
    lifted = parallel_lift(curve)
    assert bargmann_limit(lifted) == pytest.approx(report.geometric, abs=1e-3)


def test_bargmann_limit_validation():
    amps = np.tile(np.array([1.0, 0.0, 0.0], dtype=complex), (2, 1))
    with pytest.raises(UsageError):
        bargmann_limit(Curve(np.array([0.0, 1.0]), amps, Basis.PMZ))


@pytest.mark.xfail(
    strict=True,
    reason="known defect: np.gradient divides by products of steps, which underflow below a step of about 1e-154",
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dynamical_phase_numeric_resolves_a_tiny_step():
    state = qwp_eigenvector(0.2)
    spec = PlateSpec(1e-300, 0.2)
    numeric = dynamical_phase_numeric(evolve(spec, state, 401))
    assert abs(numeric - dynamical_phase_closed_form(state, spec)) <= 1e-15
