"""The derivative data a Curve shares among its finite-difference functionals.

Each functional must return exactly what it returned when it differentiated
the curve itself, so the references below recompute everything from
``np.gradient``, ``np.einsum`` and ``np.allclose``.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    steps = np.diff(x)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=1e-9, atol=1e-12 * max(1.0, abs(float(x[-1] - x[0])))):
        return None
    return h


def ref_simpson(y, x):
    span = float(x[-1] - x[0])
    intervals = x.size - 1
    if ref_uniform_step(x) is not None and intervals >= 2 and intervals % 2 == 0:
        h = span / intervals
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


def ref_horizontality(s, amps):
    if np.diff(s).min() < MIN_PRODUCT_STEP:
        raise NumericError("step too small")
    return float(np.max(np.abs(ref_vertical(s, amps))))


def ref_curve_length(s, amps):
    if np.diff(s).min() < MIN_PRODUCT_STEP:
        raise NumericError("step too small")
    vel = ref_velocity(s, amps)
    speed_sq = np.einsum("ij,ij->i", np.conj(vel), vel).real
    vertical = np.einsum("ij,ij->i", np.conj(amps), vel)
    radicand = speed_sq - np.abs(vertical) ** 2
    if float(np.min(radicand)) < -1e-12:
        raise NumericError("negative radicand")
    return ref_simpson(np.sqrt(np.clip(radicand, 0.0, None)), s)


def ref_geodesic_residual(s, amps):
    if s.size < 5:
        raise UsageError("too few samples")
    h = ref_uniform_step(s)
    if h is None:
        raise UsageError("not uniform")
    if h < MIN_PRODUCT_STEP:
        raise NumericError("step too small")
    acc = (amps[:-2] - 2.0 * amps[1:-1] + amps[2:]) / h**2
    vel = (amps[2:] - amps[:-2]) / (2.0 * h)
    speed_sq = np.einsum("ij,ij->i", np.conj(vel), vel).real
    return float(np.max(np.linalg.norm(acc + speed_sq[:, None] * amps[1:-1], axis=1)))


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
def curves(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 40))
    kind = draw(st.sampled_from(["uniform", "perturbed", "scattered", "tiny"]))
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
    gradient = np.gradient

    def counting(*args, **kwargs):
        calls.append(1)
        return gradient(*args, **kwargs)

    monkeypatch.setattr(np, "gradient", counting)
    geometric_phase(curve)
    parallel_lift(curve)
    curve_length(curve)
    horizontality_residual(curve)
    assert len(calls) == 1


def test_cached_derivatives_are_read_only_and_public_velocity_is_fresh(rng):
    curve = geodesic_between(random_state(rng), random_state(rng), 41)
    for cached in (curve._velocity, curve._vertical):
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
    for derived in (gauge_transform(curve, lambda t: 0.7 * t * t), parallel_lift(curve)):
        assert "_velocity" not in vars(derived) and "_vertical" not in vars(derived)
        assert not np.shares_memory(derived._velocity, curve._velocity)
        assert np.array_equal(derived._velocity, ref_velocity(derived.s, derived.amplitudes))
        assert np.array_equal(derived._vertical, ref_vertical(derived.s, derived.amplitudes))


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
        assert _uniform_step(x) == ref_uniform_step(x)


def test_uniform_step_refuses_an_overflowing_span():
    # np.isclose compares infinite steps by equality and takes an
    # infinite tolerance when the span overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x in (np.array([-1e308, 1e308]), np.array([-1.5e308, -0.5e308, 0.5e308, 1.5e308])):
            with pytest.raises(NumericError, match="overflows"):
                _uniform_step(x)
