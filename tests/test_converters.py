import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from biphase import (
    BASIS_CHANGE,
    Basis,
    BasisMismatchError,
    ConvergenceError,
    NumericError,
    PlateSpec,
    StateVector,
    TransmissionPair,
    Unitary3,
    UsageError,
    compose,
    eigen,
    evolve,
    g_matrix,
    plate_coefficients,
    principal,
    propagate,
    q_matrix,
    q_stack,
)
from biphase.converters import _g_entries, eigenvalue_arg
from conftest import random_state

S = math.sqrt(0.5)


def random_spec(rng) -> PlateSpec:
    return PlateSpec(
        delta=float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi)),
        chi=float(rng.uniform(-math.pi, math.pi)),
    )


def test_plate_spec_rejects_non_finite_parameters():
    with pytest.raises(UsageError):
        PlateSpec(math.nan, 0.0)
    with pytest.raises(UsageError):
        PlateSpec(0.0, math.inf)


def test_plate_coefficients_frozen_point():
    pair = plate_coefficients(PlateSpec(math.pi / 3.0, math.pi / 12.0))
    assert pair.t == pytest.approx(0.5 + 0.75j, abs=1e-15)
    assert pair.r == pytest.approx(0.4330127018922193j, abs=1e-15)
    assert pair.deviation < 1e-15


def test_plate_coefficients_are_lossless_everywhere(rng):
    for _ in range(200):
        assert plate_coefficients(random_spec(rng)).deviation < 1e-14


def test_half_wave_plate_g_matrix():
    pair = plate_coefficients(PlateSpec(math.pi / 2.0, math.pi / 4.0))
    g = g_matrix(pair).matrix
    expected = np.array([[0, 0, -1], [0, -1, 0], [-1, 0, 0]], dtype=complex)
    assert np.max(np.abs(g - expected)) < 1e-15


def entrywise_g(t: complex, r: complex) -> np.ndarray:
    # independent transcription of the nine entries, scalar cmath only
    s2 = math.sqrt(2.0)
    tc, rc = t.conjugate(), r.conjugate()
    return np.array(
        [
            [t * t, s2 * t * r, r * r],
            [-s2 * t * rc, t * tc - r * rc, s2 * tc * r],
            [rc * rc, -s2 * tc * rc, tc * tc],
        ]
    )


def test_g_matrix_matches_scalar_transcription(rng):
    for _ in range(50):
        pair = plate_coefficients(random_spec(rng))
        got = g_matrix(pair).matrix
        assert np.max(np.abs(got - entrywise_g(pair.t, pair.r))) < 1e-15


def test_g_matrix_is_special_unitary(rng):
    for _ in range(200):
        g = g_matrix(plate_coefficients(random_spec(rng))).matrix
        assert np.max(np.abs(np.conj(g.T) @ g - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(g) - 1.0) < 1e-12


def test_zero_thickness_g_is_the_identity():
    g = g_matrix(plate_coefficients(PlateSpec(0.0, 0.7))).matrix
    assert np.array_equal(g, np.eye(3, dtype=complex))


def test_g_matrix_rejects_lossy_coefficients():
    lossy = TransmissionPair(1.0 + 0.0j, 0.1j)
    assert lossy.deviation == pytest.approx(0.01)
    with pytest.raises(NumericError):
        g_matrix(lossy)


def test_g_matrix_acts_on_fock_amplitudes():
    g = g_matrix(plate_coefficients(PlateSpec(0.4, 0.1)))
    assert g.basis is Basis.FOCK
    with pytest.raises(BasisMismatchError):
        g.apply(StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), Basis.PMZ))


def test_quarter_wave_plate_q_matrix():
    q = q_matrix(PlateSpec(math.pi / 4.0, 0.0)).matrix
    expected = np.array([[0, 1j, 0], [1j, 0, 0], [0, 0, 1]], dtype=complex)
    assert np.max(np.abs(q - expected)) < 1e-12


def test_half_wave_plate_q_matrix_is_diagonal():
    q = q_matrix(PlateSpec(math.pi / 2.0, math.pi / 4.0)).matrix
    assert np.max(np.abs(q - np.diag([-1.0, 1.0, -1.0]))) < 1e-12


def symmetric_table(delta: float, chi: float) -> np.ndarray:
    """Hand-derived trigonometric form of Q, symmetric with real diagonal."""
    c2d, s2d = math.cos(2 * delta), math.sin(2 * delta)
    c2x, s2x = math.cos(2 * chi), math.sin(2 * chi)
    c4x, s4x = math.cos(4 * chi), math.sin(4 * chi)
    cd2, sd2 = math.cos(delta) ** 2, math.sin(delta) ** 2
    return np.array(
        [
            [c2d, 1j * s2d * c2x, 1j * s2d * s2x],
            [1j * s2d * c2x, cd2 - sd2 * c4x, -sd2 * s4x],
            [1j * s2d * s2x, -sd2 * s4x, cd2 + sd2 * c4x],
        ]
    )


def test_q_matrix_matches_the_symmetric_table(rng):
    q = q_matrix(PlateSpec(0.3, 0.2)).matrix
    assert np.max(np.abs(q - symmetric_table(0.3, 0.2))) < 1e-12
    for _ in range(50):
        spec = random_spec(rng)
        got = q_matrix(spec).matrix
        assert np.max(np.abs(got - symmetric_table(spec.delta, spec.chi))) < 1e-12


def test_q_matrix_structure(rng):
    for _ in range(100):
        q = q_matrix(random_spec(rng)).matrix
        assert np.max(np.abs(q - q.T)) < 1e-12
        assert np.max(np.abs(np.diag(q).imag)) < 1e-12
        assert np.max(np.abs(np.conj(q.T) @ q - np.eye(3))) < 1e-12


def test_q_semigroup_in_thickness(rng):
    for _ in range(50):
        chi = float(rng.uniform(-math.pi, math.pi))
        d1, d2 = rng.uniform(-2.0, 2.0, size=2)
        lhs = q_matrix(PlateSpec(d1, chi)).matrix @ q_matrix(PlateSpec(d2, chi)).matrix
        rhs = q_matrix(PlateSpec(d1 + d2, chi)).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_q_stack_agrees_with_single_builds():
    deltas = np.linspace(-1.0, 2.0, 7)
    stack = q_stack(deltas, 0.45)
    for d, q in zip(deltas, stack):
        assert np.array_equal(q, q_matrix(PlateSpec(float(d), 0.45)).matrix)


def oracle_q_stack(deltas, chi: float) -> np.ndarray:
    """Q as the conjugation A G(t, r) A^T of the Fock-basis converter."""
    deltas = np.asarray(deltas, dtype=float)
    t = np.cos(deltas) + 1j * np.sin(deltas) * math.cos(2.0 * chi)
    r = 1j * np.sin(deltas) * math.sin(2.0 * chi)
    a = BASIS_CHANGE.matrix
    return a @ _g_entries(t, r) @ a.T


# thin and very thick plates, and exact degeneracies delta = k pi/2
thicknesses = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-1e9, max_value=1e9),
    st.integers(min_value=-600_000_000, max_value=600_000_000).map(lambda k: k * math.pi / 2.0),
)
# axis-aligned and diagonal orientations chi = k pi/4 as well as generic ones
orientations = st.one_of(
    st.integers(min_value=-16, max_value=16).map(lambda k: k * math.pi / 4.0),
    st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi),
)
components = st.floats(min_value=-1.0, max_value=1.0)


@given(st.lists(thicknesses, min_size=1, max_size=8), orientations)
def test_spectral_q_stack_matches_the_conjugated_g_oracle(deltas, chi):
    stack = q_stack(deltas, chi)
    assert stack.shape == (len(deltas), 3, 3)
    assert np.max(np.abs(stack - oracle_q_stack(deltas, chi))) <= 1e-12
    defect = np.conj(np.swapaxes(stack, 1, 2)) @ stack - np.eye(3)
    assert np.max(np.abs(defect)) <= 1e-12


@given(thicknesses, orientations, st.lists(components, min_size=6, max_size=6), st.integers(2, 40))
def test_spectral_evolve_matches_the_conjugated_g_oracle(delta, chi, parts, n):
    raw = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    assume(np.linalg.norm(raw) > 1e-3)
    state = StateVector.normalized(raw, Basis.PMZ)
    curve = evolve(PlateSpec(delta, chi), state, n)
    assert np.array_equal(curve.amplitudes[0], state.amplitudes)
    # the grid runs over |delta|, or over [0, 1] with thickness delta * t when
    # the plate is too thin (or zero) for a strictly increasing |delta| grid
    if curve.s[-1] == abs(delta):
        thickness = math.copysign(1.0, delta) * curve.s
    else:
        thickness = delta * curve.s
    expected = oracle_q_stack(thickness, chi) @ state.amplitudes
    assert np.max(np.abs(curve.amplitudes - expected)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(curve.amplitudes, axis=1) - 1.0)) <= 1e-12


def test_evolve_resolves_a_subnormal_plate():
    state = StateVector.normalized(np.array([0.6, 0.48 + 0.3j, -0.2 + 0.52j]), Basis.PMZ)
    curve = evolve(PlateSpec(5e-324, 0.3), state, 3)
    assert len(curve) == 3
    assert np.max(np.abs(curve.amplitudes - state.amplitudes)) <= 1e-15


def q_matrix_explicit(spec: PlateSpec) -> Unitary3:
    """Closed-form trigonometric entry table for Q, kept as a recorded erratum.

    This table is retained verbatim as an independent surface to compare
    q_matrix against.  Its (0, 2) entry carries sin(delta) where the
    spectral form yields sin(2*delta); the two constructions agree in every
    other entry, and ``explicit_entry_mismatch`` measures the single
    deviating one instead of silently reconciling the forms.
    """
    d, x = spec.delta, spec.chi
    c2d = math.cos(2.0 * d)
    s2d = math.sin(2.0 * d)
    c2x = math.cos(2.0 * x)
    s2x = math.sin(2.0 * x)
    c4x = math.cos(4.0 * x)
    s4x = math.sin(4.0 * x)
    cd2 = math.cos(d) ** 2
    sd2 = math.sin(d) ** 2
    q = np.array([
        [c2d, 1j * s2d * c2x, 1j * math.sin(d) * s2x],
        [1j * s2d * c2x, cd2 - sd2 * c4x, -s4x * sd2],
        [1j * s2d * s2x, -s4x * sd2, cd2 + sd2 * c4x],
    ], dtype=complex)
    return Unitary3(q, Basis.PMZ)


def explicit_entry_mismatch(spec: PlateSpec) -> float:
    """Absolute difference between the two Q constructions at entry (0, 2).

    Analytically |sin(2 delta) - sin(delta)| * |sin(2 chi)|; every other
    entry agrees to rounding.
    """
    diff = q_matrix(spec).matrix - q_matrix_explicit(spec).matrix
    return float(abs(diff[0, 2]))


def test_explicit_table_deviates_in_one_corner_only():
    spec = PlateSpec(0.3, 0.2)
    diff = np.abs(q_matrix(spec).matrix - q_matrix_explicit(spec).matrix)
    predicted = abs(math.sin(0.6) - math.sin(0.3)) * abs(math.sin(0.4))
    assert explicit_entry_mismatch(spec) == pytest.approx(predicted, abs=1e-12)
    assert diff[0, 2] == pytest.approx(predicted, abs=1e-12)
    masked = diff.copy()
    masked[0, 2] = 0.0
    assert np.max(masked) < 1e-12


def test_explicit_table_collapses_on_axis_aligned_plates():
    spec = PlateSpec(0.9, 0.0)  # sin(2 chi) = 0 removes the deviating factor
    assert explicit_entry_mismatch(spec) < 1e-15
    diff = q_matrix(spec).matrix - q_matrix_explicit(spec).matrix
    assert np.max(np.abs(diff)) < 1e-12


def test_compose_applies_the_first_plate_first():
    q1 = q_matrix(PlateSpec(0.3, 0.1))
    q2 = q_matrix(PlateSpec(0.7, 0.9))
    total = compose([q1, q2]).matrix
    assert np.allclose(total, q2.matrix @ q1.matrix, atol=1e-15)
    assert not np.allclose(total, q1.matrix @ q2.matrix, atol=1e-3)


def test_compose_validates_input():
    with pytest.raises(UsageError):
        compose([])
    q = q_matrix(PlateSpec(0.3, 0.1))
    g = g_matrix(plate_coefficients(PlateSpec(0.3, 0.1)))
    with pytest.raises(BasisMismatchError):
        compose([q, g])


def test_q_is_the_conjugated_g(rng):
    a = BASIS_CHANGE.matrix
    for _ in range(50):
        spec = random_spec(rng)
        g = g_matrix(plate_coefficients(spec)).matrix
        assert np.max(np.abs(q_matrix(spec).matrix - a @ g @ a.T)) < 1e-12


def test_eigen_spectrum_law(rng):
    for _ in range(50):
        delta = float(rng.uniform(0.05, 1.5))
        chi = float(rng.uniform(-math.pi, math.pi))
        system = eigen(q_matrix(PlateSpec(delta, chi)))
        args = [principal(cmath.phase(v)) for v in system.values]
        assert args == pytest.approx([-2.0 * delta, 0.0, 2.0 * delta], abs=1e-10)


def test_eigen_spectrum_wraps_past_the_branch_cut():
    system = eigen(q_matrix(PlateSpec(2.0, 0.3)))
    args = sorted(principal(cmath.phase(v)) for v in system.values)
    assert args == pytest.approx([4.0 - 2.0 * math.pi, 0.0, 2.0 * math.pi - 4.0], abs=1e-10)


def test_quarter_wave_eigenvector_is_the_coupling_direction():
    for chi in (0.0, 0.2, math.pi / 5.0):
        system = eigen(q_matrix(PlateSpec(math.pi / 4.0, chi)))
        values = system.values
        assert values == pytest.approx([-1j, 1.0, 1j], abs=1e-10)
        top = system.states[2].amplitudes
        analytic = np.array([1.0, math.cos(2 * chi), math.sin(2 * chi)]) * S
        assert np.max(np.abs(top - analytic)) < 1e-10


def test_eigen_pairs_satisfy_the_eigenvalue_equation(rng):
    for _ in range(50):
        u = q_matrix(random_spec(rng))
        for value, state in eigen(u).pairs:
            residual = u.matrix @ state.amplitudes - value * state.amplitudes
            assert np.max(np.abs(residual)) < 1e-9


def test_eigen_is_deterministic():
    u = q_matrix(PlateSpec(0.8, 0.35))
    first = eigen(u)
    second = eigen(u)
    assert np.array_equal(first.values, second.values)
    for a, b in zip(first.states, second.states):
        assert np.array_equal(a.amplitudes, b.amplitudes)


def full_sort_key(value: complex, vector: np.ndarray) -> tuple:
    """The rounded (argument, eigenvector) key eigen once built for every pair."""
    lex = tuple((round(c.real, 12), round(c.imag, 12)) for c in vector)
    return (round(eigenvalue_arg(value), 12), lex)


def test_eigen_order_equals_the_full_lexicographic_key(rng):
    # eigen compares rounded eigenvectors only when two rounded arguments tie;
    # its order must be the one the full key gives on every kind of input
    chis = [float(chi) for chi in np.linspace(-math.pi, math.pi, 25)]
    deltas = [k * math.pi / 4.0 for k in range(-8, 9)] + [k * math.pi / 2.0 for k in (-101, -7, 5, 101)]
    matrices = [q_matrix(random_spec(rng)) for _ in range(200)]
    matrices += [q_matrix(PlateSpec(delta, chi)) for delta in deltas for chi in chis]
    for _ in range(200):
        matrices.append(compose([q_matrix(random_spec(rng)) for _ in range(int(rng.integers(1, 17)))]))
    for u in matrices:
        keys = [full_sort_key(value, state.amplitudes) for value, state in eigen(u).pairs]
        assert len(set(keys)) == 3
        assert keys == sorted(keys)


def test_eigen_keeps_orthonormal_vectors_at_degeneracies():
    # delta = pi/2 doubles the -1 eigenvalue; the QR factor of the eigenvector
    # matrix keeps an orthonormal basis inside the degenerate eigenspace
    system = eigen(q_matrix(PlateSpec(math.pi / 2.0, 0.3)))
    values = sorted(system.values, key=lambda v: v.real)
    assert values[0] == pytest.approx(-1.0, abs=1e-10)
    assert values[1] == pytest.approx(-1.0, abs=1e-10)
    assert values[2] == pytest.approx(1.0, abs=1e-10)
    vecs = np.stack([s.amplitudes for s in system.states], axis=1)
    assert np.max(np.abs(np.conj(vecs.T) @ vecs - np.eye(3))) < 1e-10


def assert_orthonormal_eigenpairs(u: Unitary3) -> None:
    system = eigen(u)
    vecs = np.stack([s.amplitudes for s in system.states], axis=1)
    assert np.max(np.abs(np.conj(vecs.T) @ vecs - np.eye(3))) <= 1e-12
    assert np.max(np.abs(u.matrix @ vecs - vecs * system.values[None, :])) <= 1e-12


def test_eigen_is_orthonormal_on_random_plate_chains(rng):
    for _ in range(200):
        count = int(rng.integers(1, 17))
        assert_orthonormal_eigenpairs(compose([q_matrix(random_spec(rng)) for _ in range(count)]))


@pytest.mark.parametrize("gap", [1e-4, 1e-8, 1e-12, 0.0])
def test_eigen_is_orthonormal_at_constructed_near_degeneracies(rng, gap):
    for _ in range(50):
        v, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        t, s = rng.uniform(-math.pi, math.pi, size=2)
        phases = np.exp(1j * np.array([t, t + gap, s]))
        assert_orthonormal_eigenpairs(Unitary3(v @ np.diag(phases) @ np.conj(v.T), Basis.PMZ))


def test_half_wave_double_eigenvalue_is_reported_at_plus_pi():
    # the doubled -1 of an odd multiple of a half-wave plate comes out of
    # the solver with imaginary parts of either sign; both copies read +pi
    for k in (1, 3, 5, 101):
        for chi in np.linspace(-math.pi, math.pi, 601):
            system = eigen(q_matrix(PlateSpec(k * math.pi / 2.0, float(chi))))
            args = [eigenvalue_arg(v) for v in system.values]
            assert args == pytest.approx([0.0, math.pi, math.pi], abs=1e-12)


def test_eigenvalue_arg_folds_only_the_lower_half_turn():
    assert eigenvalue_arg(complex(-1.0, -1e-16)) == math.pi
    assert eigenvalue_arg(complex(-1.0, 0.0)) == math.pi
    assert eigenvalue_arg(cmath.exp(-1j * (math.pi - 1e-9))) == pytest.approx(1e-9 - math.pi, abs=1e-15)
    assert eigenvalue_arg(1j) == pytest.approx(0.5 * math.pi)


def test_eigen_rejects_non_unitary_input():
    with pytest.raises(NumericError):
        eigen(Unitary3(1.5 * np.eye(3, dtype=complex), Basis.PMZ))


def test_eigenvector_phase_convention(rng):
    # leading significant component is real and positive
    for _ in range(30):
        system = eigen(q_matrix(random_spec(rng)))
        for state in system.states:
            lead = next(c for c in state.amplitudes if abs(c) > 1e-12)
            assert abs(lead.imag) < 1e-12
            assert lead.real > 0.0


def test_evolve_endpoints_and_grid(rng):
    state = random_state(rng)
    spec = PlateSpec(0.9, 0.25)
    curve = evolve(spec, state, 41)
    assert np.array_equal(curve.state(0).amplitudes, state.amplitudes)
    assert curve.s[0] == 0.0 and curve.s[-1] == pytest.approx(0.9)
    endpoint = q_matrix(spec).matrix @ state.amplitudes
    assert np.max(np.abs(curve.state(-1).amplitudes - endpoint)) < 1e-12


def test_evolve_zero_thickness_is_constant_on_a_unit_interval(rng):
    state = random_state(rng)
    curve = evolve(PlateSpec(0.0, 0.4), state, 11)
    assert curve.s[-1] == 1.0
    assert np.array_equal(curve.state(0).amplitudes, state.amplitudes)
    assert np.max(np.abs(curve.amplitudes - state.amplitudes[None, :])) < 1e-15


def test_evolve_negative_thickness_runs_over_its_magnitude(rng):
    state = random_state(rng)
    spec = PlateSpec(-0.7, 0.3)
    curve = evolve(spec, state, 31)
    assert curve.s[-1] == pytest.approx(0.7)
    endpoint = q_matrix(spec).matrix @ state.amplitudes
    assert np.max(np.abs(curve.state(-1).amplitudes - endpoint)) < 1e-12


@pytest.mark.parametrize("delta", [0.9, -0.7, 0.0, 5e-324, 30.0])
def test_propagate_is_the_endpoint_of_evolve(rng, delta):
    for n in (2, 3, 41, 2001):
        state = random_state(rng)
        spec = PlateSpec(delta, float(rng.uniform(-math.pi, math.pi)))
        assert np.array_equal(propagate(spec, state).amplitudes, evolve(spec, state, n).amplitudes[-1])


def test_zero_thickness_returns_the_input_bit_exactly(rng):
    state = random_state(rng)
    spec = PlateSpec(0.0, 0.4)
    assert np.array_equal(propagate(spec, state).amplitudes, state.amplitudes)
    assert np.array_equal(evolve(spec, state, 7).amplitudes, np.tile(state.amplitudes, (7, 1)))


def test_propagate_drives_plate_basis_amplitudes_only():
    fock = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), Basis.FOCK)
    with pytest.raises(BasisMismatchError):
        propagate(PlateSpec(0.5, 0.0), fock)


def test_evolve_validates_input(rng):
    state = random_state(rng)
    with pytest.raises(UsageError):
        evolve(PlateSpec(0.5, 0.0), state, 1)
    fock = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), Basis.FOCK)
    with pytest.raises(BasisMismatchError):
        evolve(PlateSpec(0.5, 0.0), fock, 5)


def test_unitary3_shape_check():
    with pytest.raises(UsageError):
        Unitary3(np.eye(2, dtype=complex), Basis.PMZ)
