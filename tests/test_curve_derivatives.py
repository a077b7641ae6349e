"""The derivative data a Curve shares among its finite-difference functionals.

Each functional must return exactly what it returns when it differentiates
and squares the curve itself, so the references below recompute everything
from ``np.gradient``, ``np.einsum`` and ``np.allclose``, in the same real
arithmetic.  Two earlier forms, the seven-pass geodesic residual and the
``np.hypot`` modulus, stay as bounds on the rounding of the current ones.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import biphase
from biphase import (
    Basis,
    Curve,
    NumericError,
    PlateSpec,
    UsageError,
    curve_length,
    curve_velocity,
    dynamical_phase_numeric,
    evolve,
    gauge_transform,
    geodesic_between,
    geodesic_residual,
    geometric_phase,
    horizontality_residual,
    parallel_lift,
)
from biphase.state_space import MIN_PRODUCT_STEP, _uniform_step
from conftest import random_state

# -- references: each functional as it was written before the sharing ------


def ref_velocity(s, amps):
    if np.diff(s).min() >= MIN_PRODUCT_STEP:
        h = ref_uniform_step(s)
        if h is not None:
            velocity = np.gradient(amps.view(float), h, axis=0, edge_order=2).view(complex)
        else:
            velocity = np.gradient(amps, s, axis=0, edge_order=2)
    else:
        span = s[-1] - s[0]
        velocity = np.gradient(amps, (s - s[0]) / span, axis=0, edge_order=2)
        velocity = (velocity.view(float) / span).view(complex)
    # a velocity that overflows is refused, not integrated
    if not np.all(np.isfinite(velocity.view(float))):
        raise NumericError("velocity overflows")
    return velocity


def ref_vertical(s, amps):
    return np.einsum("ij,ij->i", np.conj(amps), ref_velocity(s, amps))


def ref_uniform_step(x):
    h = float(x[-1] - x[0]) / (x.size - 1)
    rounding = 8.0 * math.ulp(max(abs(float(x[0])), abs(float(x[-1]))))
    if not np.allclose(np.diff(x), h, rtol=1e-9, atol=rounding):
        return None
    return h


def ref_simpson(y, x):
    h = ref_uniform_step(x)
    intervals = x.size - 1
    if h is not None and intervals >= 2 and intervals % 2 == 0:
        total = float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2])))
    else:
        total = float(np.trapezoid(y, x))
    # a sum that overflows is refused, not returned
    if not math.isfinite(total):
        raise NumericError("quadrature overflows")
    return total


def ref_dynamical_phase(s, amps):
    return ref_simpson(ref_vertical(s, amps).imag, s)


def ref_parallel_lift(s, amps):
    rate = -ref_vertical(s, amps).imag
    alpha = np.concatenate(([0.0], np.cumsum(np.diff(s) * (rate[1:] + rate[:-1]) / 2.0)))
    if not np.all(np.isfinite(alpha)):
        raise NumericError("gauge angles must be finite at every sample")
    return np.exp(1j * alpha)[:, None] * amps


def real_rows(x):
    return x.view(float).reshape(x.shape[0], -1)


def sum_squares(rows):
    return np.einsum("ij,ij->i", rows, rows)


def squared_moduli(x):
    squares = sum_squares(real_rows(x))
    # a square that overflows is refused, not compared
    if not np.all(np.isfinite(squares)):
        raise NumericError("squared derivative overflows")
    return squares


def ref_horizontality(s, amps):
    if np.diff(s).min() < MIN_PRODUCT_STEP:
        raise NumericError("step too small")
    squared_moduli(ref_velocity(s, amps))
    return math.sqrt(float(np.max(squared_moduli(ref_vertical(s, amps)))))


def ref_curve_length(s, amps):
    if np.diff(s).min() < MIN_PRODUCT_STEP:
        raise NumericError("step too small")
    vel = ref_velocity(s, amps)
    vertical = np.einsum("ij,ij->i", np.conj(amps), vel)
    radicand = squared_moduli(vel) - squared_moduli(vertical)
    if float(np.min(radicand)) < -1e-12:
        raise NumericError("negative radicand")
    return ref_simpson(np.sqrt(np.clip(radicand, 0.0, None)), s)


def residual_grid(s):
    """The step of a grid the residual accepts, or the typed error it raises."""
    if s.size < 5:
        raise UsageError("too few samples")
    h = ref_uniform_step(s)
    if h is None:
        raise UsageError("not uniform")
    if np.diff(s).min() < MIN_PRODUCT_STEP:
        raise NumericError("step too small")
    return h


def ref_geodesic_residual(s, amps):
    h = residual_grid(s)
    f = real_rows(amps)
    speed_sq = squared_moduli(ref_velocity(s, amps))[1:-1]
    h_sq = h * h
    acc = f[:-2] + f[2:] + (speed_sq * h_sq - 2.0)[:, None] * f[1:-1]
    return math.sqrt(float(np.max(sum_squares(acc)))) / h_sq


def seven_pass_geodesic_residual(s, amps):
    """The residual as (f_{i-1} - 2 f_i + f_{i+1}) / h^2 + speed^2 f_i, before the three-pass form."""
    h = residual_grid(s)
    f = real_rows(amps)
    speed_sq = sum_squares(real_rows(ref_velocity(s, amps))[1:-1])
    acc = (f[:-2] - 2.0 * f[1:-1] + f[2:]) / h**2
    return math.sqrt(float(np.max(sum_squares(acc + speed_sq[:, None] * f[1:-1]))))


def hypot_horizontality(s, amps):
    vertical = ref_vertical(s, amps)
    return float(np.max(np.hypot(vertical.real, vertical.imag)))


CONSUMERS = [
    (dynamical_phase_numeric, ref_dynamical_phase),
    (lambda curve: parallel_lift(curve).amplitudes, ref_parallel_lift),
    (horizontality_residual, ref_horizontality),
    (curve_length, ref_curve_length),
    (geodesic_residual, ref_geodesic_residual),
]


def outcome(fn, *args):
    """The value of fn(*args), or the type of the typed error it raised."""
    try:
        return fn(*args)
    except (NumericError, UsageError) as exc:
        return type(exc)


def same(a, b) -> bool:
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.array_equal(a, b, equal_nan=True)


# -- random curves on uniform, perturbed, scattered and tiny-step grids ----


@st.composite
def curves(draw, kinds=("uniform", "perturbed", "scattered", "tiny"), min_samples=3):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_samples, 40))
    kind = draw(st.sampled_from(kinds))
    if kind == "tiny":
        span = 10.0 ** draw(st.floats(-320.0, -150.0))
    else:
        span = draw(st.floats(1e-3, 1e3))
    origin = 0.0 if kind == "tiny" else draw(st.floats(-10.0, 10.0))
    if kind == "scattered":
        t = np.sort(rng.uniform(0.0, 1.0, n))
        t[0], t[-1] = 0.0, 1.0
    else:
        t = np.linspace(0.0, 1.0, n)
    if kind == "perturbed":
        # nudges around the 1e-9 relative tolerance of the uniformity test
        t[1:-1] += rng.normal(0.0, 10.0 ** draw(st.floats(-13.0, -7.0)), n - 2)
    s = origin + span * t
    if not np.all(np.diff(s) > 0.0):
        # scattered samples that coincide after rounding
        s = origin + span * np.linspace(0.0, 1.0, n)
    omega = draw(st.floats(0.1, 4.0))
    a, b = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    amps = np.cos(omega * t)[:, None] * a + (np.sin(omega * t) * np.exp(1j * omega * t))[:, None] * b
    amps /= np.linalg.norm(amps, axis=1)[:, None]
    return Curve(s, amps, Basis.PMZ)


@given(curves())
def test_every_consumer_matches_its_own_differentiation(curve):
    s, amps = curve.s, curve.amplitudes
    with warnings.catch_warnings():
        # on subnormal spans the reference warns before it refuses the velocity
        # or the quadrature
        warnings.simplefilter("ignore", RuntimeWarning)
        for function, reference in CONSUMERS:
            assert same(outcome(function, curve), outcome(reference, s, amps)), function


def test_one_gradient_serves_every_functional_of_a_curve(monkeypatch, rng):
    curve = gauge_transform(
        geodesic_between(random_state(rng), random_state(rng), 201),
        lambda t: 0.3 * math.sin(2.0 * t),
    )
    calls = []
    velocity = biphase.state_space.curve_velocity

    def counting(*args, **kwargs):
        calls.append(1)
        return velocity(*args, **kwargs)

    squares = []
    sum_squares_of = biphase.state_space._sum_squares

    def counting_squares(rows):
        squares.append(rows.shape)
        return sum_squares_of(rows)

    monkeypatch.setattr(biphase.state_space, "curve_velocity", counting)
    monkeypatch.setattr(biphase.state_space, "_sum_squares", counting_squares)
    geometric_phase(curve)
    parallel_lift(curve)
    curve_length(curve)
    horizontality_residual(curve)
    geodesic_residual(curve)
    assert len(calls) == 1
    # speed^2 from the six real parts and |vertical|^2 from two, once each
    assert sorted(squares) == [(201, 2), (201, 6)]


def test_cached_derivatives_are_read_only_and_public_velocity_is_fresh(rng):
    curve = geodesic_between(random_state(rng), random_state(rng), 41)
    for cached in (curve._velocity, curve._vertical, curve._speed_sq, curve._vertical_sq):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0.0
    fresh = curve_velocity(curve)
    assert fresh.flags.writeable
    assert fresh is not curve._velocity and not np.shares_memory(fresh, curve._velocity)
    assert np.array_equal(fresh, curve._velocity)


def test_derived_curves_differentiate_their_own_samples(rng):
    curve = geodesic_between(random_state(rng), random_state(rng), 41)
    curve._velocity  # fill the source's cache first
    curve._speed_sq, curve._vertical_sq
    for derived in (gauge_transform(curve, lambda t: 0.7 * t * t), parallel_lift(curve)):
        assert not {"_velocity", "_vertical", "_speed_sq", "_vertical_sq"} & set(vars(derived))
        assert not np.shares_memory(derived._velocity, curve._velocity)
        assert np.array_equal(derived._velocity, ref_velocity(derived.s, derived.amplitudes))
        assert np.array_equal(derived._vertical, ref_vertical(derived.s, derived.amplitudes))
        assert np.array_equal(derived._speed_sq, squared_moduli(derived._velocity))
        assert np.array_equal(derived._vertical_sq, squared_moduli(derived._vertical))


@given(curves(kinds=("uniform", "perturbed"), min_samples=5))
def test_three_pass_residual_and_sum_of_squares_modulus_stay_at_rounding(curve):
    if curve._step is None:
        # a perturbed grid beyond the uniformity tolerance has no residual
        return
    s, amps = curve.s, curve.amplitudes
    eps = np.finfo(float).eps
    old = seven_pass_geodesic_residual(s, amps)
    horizontal = hypot_horizontality(s, amps)
    new = geodesic_residual(curve)
    # both forms round unit rows, about eps each, and the products with
    # h^2 speed^2 to eps of their size, then divide by h^2: a few eps / h^2
    h_sq = curve._step**2
    bound = 16.0 * eps * (1.0 + h_sq * float(curve._speed_sq[1:-1].max())) / h_sq
    assert abs(new - old) <= bound + 4.0 * eps * old
    # each row moves by at most 1 ulp, so the largest does too
    assert abs(horizontality_residual(curve) - horizontal) <= math.ulp(horizontal)


def test_squares_that_overflow_are_a_typed_error():
    # a step of 2**-511 passes the step check, and the end stencil
    # (-3 psi_0 + 4 psi_1 - psi_2) / 2h of rows e, -e, e reads -4 e / h:
    # finite, but its square, 16 / h^2 = 2**1026, is not
    n = 7
    s = 2.0**-511 * np.arange(n)
    amps = np.zeros((n, 3), dtype=complex)
    amps[:, 0] = [1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0]
    curve = Curve(s, amps, Basis.PMZ)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.all(np.isfinite(curve._velocity))
        for function in (curve_length, horizontality_residual, geodesic_residual):
            with pytest.raises(NumericError, match="squared speed overflows"):
                function(curve)


def test_squared_derivatives_of_a_too_thin_plate_are_a_typed_error(rng):
    # 401 samples 2.5e-303 apart: rounding noise of eps / step would read
    # about 1e287 as a horizontality residual and NaN as a length
    curve = evolve(PlateSpec(1e-300, 0.2), random_state(rng), 401)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for function in (horizontality_residual, curve_length):
            with pytest.raises(NumericError, match="too small"):
                function(curve)
        # the phase functionals read only Im<psi|dpsi/ds>, still resolved
        assert math.isfinite(dynamical_phase_numeric(curve))
        assert np.all(np.isfinite(parallel_lift(curve).amplitudes))


@pytest.mark.parametrize("function", [dynamical_phase_numeric, geometric_phase, parallel_lift])
def test_a_velocity_that_overflows_is_a_typed_error(function):
    # rays that turn by 2 rad over a subnormal span of 1e-308 move at about
    # 2e308, past the largest double
    s = np.linspace(0.0, 1e-308, 11)
    turn = np.linspace(0.0, 2.0, 11)
    amps = np.stack([np.cos(turn), np.sin(turn), np.zeros(11)], axis=1) * np.exp(1j * turn)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match="velocity overflows"):
            function(Curve(s, amps, Basis.PMZ))


@pytest.mark.parametrize(
    "function, message",
    [
        (dynamical_phase_numeric, "quadrature overflows"),
        (geometric_phase, "quadrature overflows"),
        (parallel_lift, "gauge angles must be finite"),
    ],
)
def test_a_quadrature_that_overflows_is_a_typed_error(function, message):
    # rays that turn by 1 rad over a subnormal span of 1e-308 move at about
    # 1e308: the velocity stays finite, but its weighted sums overflow
    s = np.linspace(0.0, 1e-308, 11)
    turn = np.linspace(0.0, 1.0, 11)
    amps = np.stack([np.cos(turn), np.sin(turn), np.zeros(11)], axis=1) * np.exp(1j * turn)[:, None]
    curve = Curve(s, amps, Basis.PMZ)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.all(np.isfinite(curve._velocity))
        with pytest.raises(NumericError, match=message):
            function(curve)


# -- the uniform stencil against np.gradient's non-uniform one --------------


@given(
    st.integers(3, 60),
    st.sampled_from(["uniform", "perturbed", "tiny"]),
    st.floats(-15.0, -2.0),
    st.floats(0.1, 4.0),
    st.integers(0, 2**32 - 1),
)
def test_uniform_stencil_stays_within_its_bound_of_np_gradient(n, kind, noise, omega, seed):
    rng = np.random.default_rng(seed)
    # tiny spans keep every step above MIN_PRODUCT_STEP, where np.gradient
    # is defined
    span = 10.0 ** rng.uniform(-140.0, -100.0) if kind == "tiny" else 10.0 ** rng.uniform(-3.0, 3.0)
    t = np.linspace(0.0, 1.0, n)
    if kind != "uniform":
        t[1:-1] += rng.uniform(-1.0, 1.0, n - 2) * 10.0**noise / (n - 1)
    s = span * t
    a, b = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    amps = np.cos(omega * t)[:, None] * a + (np.sin(omega * t) * np.exp(1j * omega * t))[:, None] * b
    amps /= np.linalg.norm(amps, axis=1)[:, None]
    curve = Curve(s, amps, Basis.PMZ)
    assert curve._min_step >= MIN_PRODUCT_STEP
    gradient = np.gradient(curve.amplitudes, curve.s, axis=0, edge_order=2)
    velocity = curve_velocity(curve)
    h = curve._step
    if h is None:
        assert np.array_equal(velocity, gradient)
        return
    # d, the largest deviation of a step from h, is then within the relative
    # term 1e-9 h of _uniform_step's tolerance plus the coordinates' rounding,
    # which is far smaller here.  To first order in d / h the end weights
    # differ by 2 d / h^2 and d / h^2, on differences of at most D and 2 D:
    # 4 (d / h^2) D.  The test allows twice that and a second-order term,
    # plus the rounding of weights of about 4 / h on unit rows.
    d = float(np.max(np.abs(np.diff(curve.s) - h)))
    assert d <= 1e-9 * h + 8.0 * math.ulp(float(curve.s[-1]))
    f = curve.amplitudes.view(float)
    moves = float(np.max(np.abs(np.diff(f, axis=0))))
    eps = np.finfo(float).eps
    bound = 8.0 * d / h**2 * moves * (1.0 + 4.0 * d / h) + 64.0 * eps / h
    assert float(np.max(np.abs((velocity - gradient).view(float)))) <= bound


# -- the uniform-step test against np.allclose -----------------------------


@given(
    st.integers(2, 300),
    st.floats(-1e6, 1e6),
    st.floats(1e-12, 1e6),
    st.floats(-15.0, -6.0),
    st.integers(0, 2**32 - 1),
)
def test_uniform_step_agrees_with_allclose(n, start, span, noise, seed):
    grid = np.linspace(start, start + span, n)
    rng = np.random.default_rng(seed)
    for x in (grid, grid + rng.normal(0.0, 10.0**noise * span / n, n)):
        assert _uniform_step(x, np.diff(x)) == ref_uniform_step(x)


@given(
    st.integers(2, 2001),
    st.floats(-1e300, 1e300),
    st.floats(-300.0, 300.0),
    st.booleans(),
)
def test_linspace_grids_are_uniform_at_every_offset_and_span(n, start, log_span, descending):
    # the tolerance's rounding term is the coordinates' own: a linspace grid
    # passes however far its offset sits from its span, and at any scale
    span = 10.0**log_span
    assume(math.isfinite(start + span) and math.isfinite(start - span))
    x = np.linspace(start - span, start, n) if descending else np.linspace(start, start + span, n)
    h = _uniform_step(x, np.diff(x))
    assert h is not None and h == (float(x[-1]) - float(x[0])) / (n - 1)


def test_scattered_tiny_grids_are_not_uniform():
    # steps 1, 2, 3 and 4e-13 passed the former absolute floor of 1e-12
    x = np.array([0.0, 1e-13, 3e-13, 6e-13, 1e-12])
    assert _uniform_step(x, np.diff(x)) is None
    for scale in (1e-300, 1e-100, 1.0, 1e100):
        assert _uniform_step(scale * x, np.diff(scale * x)) is None
        uniform = scale * np.linspace(0.0, 1e-12, 5)
        assert _uniform_step(uniform, np.diff(uniform)) is not None


def test_uniform_step_refuses_an_overflowing_span():
    # np.isclose compares infinite steps by equality and takes an
    # infinite tolerance when the span overflows
    for x in (np.array([-1e308, 1e308]), np.array([-1.5e308, -0.5e308, 0.5e308, 1.5e308])):
        with np.errstate(over="ignore"):
            steps = x[1:] - x[:-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError, match="overflows"):
                _uniform_step(x, steps)
