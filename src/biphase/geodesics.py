"""Geodesics in the Hilbert-space unit sphere and the two-level plate scenario.

A curve of unit vectors is geodesic when its acceleration points back along
itself, d2 psi/ds2 = -<dpsi|dpsi> psi, and horizontal when <psi|dpsi/ds> = 0.
The great-circle arc

    psi(s) = a cos s + u sin s,   u orthonormal to a,

satisfies both identically, and connects any two distinct rays once the
endpoint is re-gauged to a real non-negative overlap.  The two-level plate
scenario (third plate-basis amplitude zero, converter orientation with
cos 2chi = 1) evolves on such an arc up to gauge, which is what makes its
geometric phase expressible through tan(theta) = c tan(s) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .converters import _eigenbasis, _generator
from .errors import DegenerateRayError, NumericError, UsageError
from .phases import _simpson
from .state_space import (
    MIN_PRODUCT_STEP,
    Basis,
    Curve,
    StateVector,
    _ROUNDING,
    _orthogonal_part,
    _real_rows,
    _sum_squares,
    _uniform_step,
    gauge_transform,
)

#: Ray separations at or below this give no unique geodesic direction.
DEGENERACY_TOL = 1e-9

#: Couplings within this of |c| = 1 freeze the two-level ray entirely.
UNIT_COUPLING_TOL = 1e-12


def geodesic_frame(a: StateVector, b: StateVector) -> tuple[StateVector, StateVector, float]:
    """Arc data (start, unit tangent, arc length) for the geodesic a -> b.

    b is re-gauged so its overlap with a is real non-negative; the returned
    tangent u is the normalized part w of the re-gauged b orthogonal to a
    (``_orthogonal_part``), and the arc length is s0 = atan2(|w|, |<a|b>|),
    accurate to a few ulp at every angle, where arccos|<a|b>| loses half its
    digits near 0.  The curve a cos s + u sin s then lands exactly on the
    re-gauged b at s0.  Rays with |w| at or below ``DEGENERACY_TOL`` are
    refused.
    """
    overlap, w, gap = _orthogonal_part(a, b)
    if gap <= DEGENERACY_TOL:
        raise DegenerateRayError("states lie on the same ray; the geodesic direction is undefined")
    # w / |w| is finite and unit within a few eps
    tangent = StateVector._trusted(np.array([c / gap for c in w]), a.basis)
    return a, tangent, math.atan2(gap, overlap)


def geodesic_between(a: StateVector, b: StateVector, n: int) -> Curve:
    """Sample the geodesic from a to the re-gauged b on n uniform points.

    Orthogonal endpoints are fine (quarter circle, s0 = pi/2); only a pair
    on one common ray is rejected.  The curve is built without the public
    checks, which it passes by construction: s0 is at least about
    ``DEGENERACY_TOL``, so ``np.linspace`` steps are far above the spacing
    of doubles and strictly increasing, and cos, sin and the endpoint states
    are finite.  A row cos(s) a + sin(s) u has |norm^2 - 1| at most
    max(|a|^2 - 1, |u|^2 - 1) + |sin 2s| |Re<a|u>|, plus rounding, and
    |sin 2s| <= 2 s0; a bound above ``NORM_TOL`` (from endpoints at the edge
    of it) leaves the rows to the public checks.
    """
    if n < 2:
        raise UsageError("a sampled curve needs at least 2 points")
    start, tangent, s0 = geodesic_frame(a, b)
    s = np.linspace(0.0, s0, n)
    cos, sin = np.cos(s), np.sin(s)
    p, u = start.amplitudes.view(float).tolist(), tangent.amplitudes.view(float).tolist()
    # one contiguous multiply-add per real column, then one transposing copy:
    # cos(s) p_k + sin(s) u_k are the bits of the complex products
    columns = np.empty((6, n))
    product = np.empty(n)
    for k in range(6):
        np.multiply(cos, p[k], out=columns[k])
        np.multiply(sin, u[k], out=product)
        columns[k] += product
    rows = np.ascontiguousarray(columns.T)
    pp = sum(x * x for x in p)
    uu = sum(x * x for x in u)
    pu = sum(x * y for x, y in zip(p, u))
    defect = max(abs(pp - 1.0), abs(uu - 1.0)) + min(1.0, 2.0 * s0) * abs(pu)
    return Curve._trusted(s, rows.view(complex), a.basis, defect + _ROUNDING)


def geodesic_residual(curve: Curve) -> float:
    """Max norm of d2psi/ds2 + <dpsi|dpsi> psi over interior samples.

    The first derivative is the curve's shared velocity (``curve_velocity``),
    which on a grid of equal steps h is the central difference
    (psi_{i+1} - psi_{i-1}) / 2h inside, and <dpsi|dpsi> is the curve's
    shared squared speed; the second derivative is the central difference
    (psi_{i-1} - 2 psi_i + psi_{i+1}) / h^2.  The residual times h^2 is
    formed on the real view of the amplitudes in three row passes,

        psi_{i-1} + psi_{i+1} + (h^2 <dpsi|dpsi> - 2) psi_i,

    and the largest norm, a square root of a sum of squares, is divided by
    h^2 once.  A true geodesic leaves a residual of order step^2 only; the
    rounding of unit rows, about eps each, puts a floor of about
    4 eps / h^2 under it.
    """
    if len(curve) < 5:
        raise UsageError("the residual check needs at least 5 samples")
    h = curve._step
    if h is None:
        raise UsageError("samples must be uniformly spaced")
    if curve._min_step < MIN_PRODUCT_STEP:
        raise NumericError(
            f"step {curve._min_step!r} is too small for second differences: its square underflows"
        )
    h_sq = h * h
    if math.isinf(h_sq):
        raise NumericError(f"step {h!r} is too large for second differences: its square overflows")
    f = _real_rows(curve.amplitudes)
    weight = curve._speed_sq[1:-1] * h_sq
    weight -= 2.0
    acc = np.add(f[:-2], f[2:])
    centre = np.multiply(weight[:, None], f[1:-1])
    acc += centre
    return math.sqrt(float(_sum_squares(acc).max())) / h_sq


def _squarable_derivatives(curve: Curve) -> tuple[np.ndarray, np.ndarray]:
    """The curve's shared speed^2 and |<psi|dpsi/ds>|^2, for the functionals that square derivatives.

    A finite difference carries rounding noise of about eps |psi| / step.
    Below ``MIN_PRODUCT_STEP`` that noise swamps the velocity, and its
    square can overflow, so such a grid is refused before anything is
    squared.  The phase functionals read only Im<psi|dpsi/ds>, which stays
    resolved there.
    """
    if curve._min_step < MIN_PRODUCT_STEP:
        raise NumericError(
            f"step {curve._min_step!r} is too small for squared derivatives: "
            "its rounding noise, about eps / step, swamps them"
        )
    return curve._speed_sq, curve._vertical_sq


def horizontality_residual(curve: Curve) -> float:
    """Max |<psi|dpsi/ds>| over the curve, via finite differences.

    The modulus is the square root of the curve's shared |<psi|dpsi/ds>|^2,
    a sum of squares of the real and imaginary parts.
    """
    return math.sqrt(float(_squarable_derivatives(curve)[1].max()))


def parallel_lift(curve: Curve) -> Curve:
    """Re-gauge a curve so it rides the horizontal sections of its rays.

    Applies exp(i alpha(s)) with alpha(s) = -integral of Im<psi|dpsi/ds'>,
    accumulated by the trapezoid rule from the first sample.  Rays are
    untouched; the lifted curve has |<psi|dpsi/ds>| at the discretization
    floor, and on it the Pancharatnam phase of the endpoints is purely
    geometric.  An angle sum that overflows is refused with ``NumericError``.
    """
    if len(curve) < 3:
        raise UsageError("the lift needs at least 3 samples")
    rate = curve._vertical.imag
    alpha = np.empty(len(curve))
    alpha[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        # the steps times -(rate sum) / 2, formed as (rate sum) / -2: the same bits
        np.cumsum(curve._steps * (rate[1:] + rate[:-1]) / -2.0, out=alpha[1:])
    return gauge_transform(curve, alpha)  # refuses angles that are not finite


def curve_length(curve: Curve) -> float:
    """Ray-space length: quadrature of sqrt(<dpsi|dpsi> - |<psi|dpsi>|^2).

    The subtraction removes the vertical (pure-gauge) part of the velocity,
    so the length is gauge invariant and vanishes on constant curves.  Both
    squares are the curve's shared sums of squares over real views.
    """
    if len(curve) < 3:
        raise UsageError("length quadrature needs at least 3 samples")
    speed_sq, vertical_sq = _squarable_derivatives(curve)
    radicand = speed_sq - vertical_sq
    if float(radicand.min()) < -1e-12:
        raise NumericError("length integrand went negative beyond rounding tolerance")
    return _simpson(np.sqrt(np.clip(radicand, 0.0, None)), curve.s, curve._step)


@dataclass(frozen=True)
class GeodesicScenario:
    """Two-level sub-evolution: one plate-basis amplitude stays zero.

    Family 1 keeps the pair in components (1, 2) and needs converter
    orientation cos 2chi = 1; family 2 keeps the pair in components (1, 3)
    with sin 2chi = 1.  The end parameter is the optical depth s = 2 delta.
    """

    d1: complex
    d2: complex
    smax: float
    family: int = 1

    def __post_init__(self) -> None:
        if self.family not in (1, 2):
            raise UsageError("family must be 1 or 2")
        z1, z2 = complex(self.d1), complex(self.d2)
        parts = (z1.real, z1.imag, z2.real, z2.imag, float(self.smax))
        if not all(math.isfinite(p) for p in parts):
            raise UsageError("scenario parameters must be finite")
        if abs(abs(z1) ** 2 + abs(z2) ** 2 - 1.0) > 1e-12:
            raise UsageError("|d1|^2 + |d2|^2 must equal 1")
        if not self.smax > 0.0:
            raise UsageError("smax must be positive")

    @property
    def coupling(self) -> float:
        """The real combination c = d1 d2* + d1* d2, bounded by |c| <= 1."""
        return float(2.0 * (complex(self.d1) * complex(self.d2).conjugate()).real)


def two_level_curve(scenario: GeodesicScenario, n: int) -> Curve:
    """Closed-form evolution of the scenario pair over s in [0, smax].

    The occupied pair rotates as (d1 cos s + i d2 sin s,
    d2 cos s + i d1 sin s); the spectator amplitude stays zero.  The curve
    has unit parameter speed, so s is simultaneously arc length.
    """
    if n < 2:
        raise UsageError("a sampled curve needs at least 2 points")
    s = np.linspace(0.0, scenario.smax, n)
    first = scenario.d1 * np.cos(s) + 1j * scenario.d2 * np.sin(s)
    partner = scenario.d2 * np.cos(s) + 1j * scenario.d1 * np.sin(s)
    spectator = np.zeros_like(first)
    if scenario.family == 1:
        amps = np.stack([first, partner, spectator], axis=1)
    else:
        amps = np.stack([first, spectator, partner], axis=1)
    return Curve(s, amps, Basis.PMZ)


def _theta_continuous(c: float, s: float) -> float:
    # Unwrap tan(theta) = c tan(s) by continuity from theta(0) = 0: each
    # half-period of s advances theta by a signed half-turn.
    if c == 0.0:
        return 0.0
    k = round(s / math.pi)
    return math.copysign(math.pi, c) * k + math.atan(c * math.tan(s - k * math.pi))


def two_level_scenario(scenario: GeodesicScenario) -> tuple[float, float]:
    """Interference angle and geometric phase of the scenario at s = smax.

    theta solves tan(theta) = c tan(s) on the branch continuous from
    theta(0) = 0, and the geometric phase is theta - s c.  Both are smooth
    through s = pi/2 on this branch; the advertised pi jump belongs to the
    principal-branch fringe reading, see detect_phase_jump.
    """
    c = scenario.coupling
    theta = _theta_continuous(c, scenario.smax)
    return theta, theta - scenario.smax * c


def two_level_fringe(scenario: GeodesicScenario, s: float) -> tuple[float, float]:
    """Principal-branch fringe reading (theta, geometric phase) at s.

    theta = arctan(c tan s) confines the interference angle to
    (-pi/2, pi/2), the reading a fringe fit reports.  It matches the
    continuity branch until s = pi/2 and then trails it by a half-turn,
    which is exactly what makes the phase jump visible.
    """
    c = scenario.coupling
    theta = math.atan(c * math.tan(s))
    return theta, theta - s * c


def detect_phase_jump(scenario: GeodesicScenario, epsilon: float) -> float:
    """Geometric-phase step across s = pi/2 on the fringe reading.

    Returns phi_g(pi/2 + epsilon) - phi_g(pi/2 - epsilon).  For couplings
    0 < |c| < 1 the magnitude approaches pi as epsilon shrinks; at
    |c| = 1 the ray never moves and the geometric phase is identically
    zero, reported as 0 without evaluating the branch.
    """
    if not 0.0 < epsilon < 0.1:
        raise UsageError("epsilon must sit in (0, 0.1)")
    c = scenario.coupling
    if 1.0 - abs(c) <= UNIT_COUPLING_TOL:
        return 0.0
    before = two_level_fringe(scenario, 0.5 * math.pi - epsilon)[1]
    after = two_level_fringe(scenario, 0.5 * math.pi + epsilon)[1]
    return after - before


def _check_waves(delta_grid: np.ndarray | list[float]) -> tuple[float, np.ndarray, np.ndarray]:
    """Step h, Im exp(2i delta) and sin(2 delta) of a validated geodesic-check grid.

    None of them depends on chi, so a caller checking several orientations
    on one grid computes them once.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.ndim != 1 or deltas.size < 5:
        raise UsageError("the delta grid needs at least 5 points")
    if not np.isfinite(deltas).all():
        raise UsageError("the delta grid must be finite")
    steps = np.diff(deltas)
    if (steps <= 0.0).any():
        raise UsageError("the delta grid must be strictly increasing")
    h = _uniform_step(deltas, steps)
    if h is None:
        raise UsageError("samples must be uniformly spaced")
    return h, np.exp(2j * deltas).imag, np.sin(2.0 * deltas)


def _geodesic_residuals(chi: float, waves: tuple[float, np.ndarray, np.ndarray]) -> tuple[float, float]:
    """(fd, analytic) residuals of ``generalized_geodesic_check`` on ``_check_waves`` of its grid.

    Im Q = sin(2 delta) (P+ - P-) is non-zero only at the entries (0, 1) and
    (0, 2) and their mirror images, which ``q_stack`` computes bit for bit
    alike; every other entry, and its residual, is exactly 0.  So the two
    independent entries, formed with the operations ``q_stack`` uses, give
    the residuals of the whole matrix stack.
    """
    h, wave, sine = waves
    v = _eigenbasis(chi)
    imag = wave[:, None] * (v[0, 0] * v[1:, 0] - v[0, 1] * v[1:, 1])
    acc = (imag[:-2] - 2.0 * imag[1:-1] + imag[2:]) / h**2
    fd = float(np.max(np.abs(acc + 4.0 * imag[1:-1])))
    # Im Q = sin(2 delta) H/2, whose second derivative is -4 sin(2 delta) H/2
    second = (-4.0 * sine)[:, None] * (0.5 * _generator(chi))[0, 1:]
    analytic = float(np.max(np.abs(second + 4.0 * imag)))
    return fd, analytic


def generalized_geodesic_check(
    chi: float, delta_grid: np.ndarray | list[float], *, method: str = "fd"
) -> float:
    """Residual of the oscillator identity Im(d2Q/ddelta2 + 4Q) = 0.

    Every imaginary entry of the converter matrix carries sin(2 delta), so
    the imaginary part obeys a harmonic-oscillator equation in delta while
    the real part generically does not.  ``method="fd"`` differentiates the
    computed matrices with central differences on the grid (residual of
    order step^2); ``method="analytic"`` uses the exact second derivative
    and leaves pure rounding noise.
    """
    fd, analytic = _geodesic_residuals(chi, _check_waves(delta_grid))
    if method == "analytic":
        return analytic
    if method != "fd":
        raise UsageError("method must be 'fd' or 'analytic'")
    return fd
