"""Phase functionals over states and discretized curves.

Three quantities organize everything here.  The Pancharatnam phase of an
ordered pair of non-orthogonal states is arg<A|B>, the phase a two-beam
interferometer locates as its intensity maximum.  The dynamical phase of a
curve is Im integral <psi|dpsi/ds> ds.  Their difference, reduced to the
principal branch, is the geometric phase, which depends only on the ray
trajectory: re-gauging the curve by exp(i alpha(s)) shifts the first two
by alpha(s2) - alpha(s1) and cancels in the difference.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .angles import principal
from .converters import PlateSpec, _generator, q_matrix
from .errors import BasisMismatchError, IndeterminatePhaseError, NumericError, UsageError
from .state_space import Basis, Curve, StateVector, inner, overlap_series

#: Overlap magnitude below which a relative phase is indeterminate.
ORTHOGONALITY_TOL = 1e-9


@dataclass(frozen=True)
class PhaseReport:
    """Pancharatnam, dynamical, and geometric phase of one curve.

    ``geometric`` always equals the principal-branch reduction of
    ``pancharatnam - dynamical``; construction enforces the identity.
    """

    pancharatnam: float
    dynamical: float
    geometric: float
    visibility: float

    def __post_init__(self) -> None:
        expected = principal(self.pancharatnam - self.dynamical)
        if abs(expected - self.geometric) > 1e-12:
            raise UsageError("geometric phase must equal pancharatnam - dynamical")
        if not -1e-12 <= self.visibility <= 1.0 + 1e-12:
            raise UsageError("visibility must sit in [0, 1]")


def pancharatnam(a: StateVector, b: StateVector, *, threshold: float = ORTHOGONALITY_TOL) -> float:
    """Pancharatnam phase arg<a|b> on the principal branch (-pi, pi]."""
    return _overlap_phase(inner(a, b), threshold)


def visibility(a: StateVector, b: StateVector) -> float:
    """Interference fringe visibility |<a|b>|, clipped into [0, 1]."""
    return _overlap_visibility(inner(a, b))


def interference_intensity(a: StateVector, b: StateVector, phi: float) -> float:
    """Two-beam intensity 2 + 2 |<a|b>| cos(phi - arg<a|b>).

    Defined for any pair; orthogonal states simply give the flat value 2.
    The maximum over phi sits at the Pancharatnam phase of (a, b).
    """
    return _overlap_intensity(inner(a, b), phi)


# The three readings of an overlap z = <a|b>, shared with callers that
# compute overlaps for many pairs at once.


def _overlap_phase(z: complex, threshold: float = ORTHOGONALITY_TOL) -> float:
    if abs(z) < threshold:
        raise IndeterminatePhaseError(
            f"states are orthogonal within {threshold!r}; relative phase undefined"
        )
    return principal(cmath.phase(z))


def _overlap_visibility(z: complex) -> float:
    return min(1.0, abs(z))


def _overlap_intensity(z: complex, phi: float) -> float:
    return 2.0 + 2.0 * abs(z) * math.cos(phi - cmath.phase(z))


def dynamical_phase_closed_form(state: StateVector, spec: PlateSpec) -> float:
    """Dynamical phase accumulated through a plate, in closed form.

    Along a plate at fixed chi the integrand Im<psi|dpsi/ddelta> is the
    constant expectation <psi|H(chi)|psi> of the real symmetric generator,
    so the integral collapses to delta * <psi|H|psi> with psi the
    plate-basis amplitudes of the input state.
    """
    if state.basis is not Basis.PMZ:
        raise BasisMismatchError("closed form needs plate-basis amplitudes")
    return float(spec.delta * _moments(_generator(spec.chi), state.amplitudes)[0])


def _moments(h: np.ndarray, amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m = <psi|H|psi> and q = <H psi|H psi> row by row, for a generator H or a stack with one per row.

    Both come from one matrix-vector product H psi and a conjugated dot
    product each per row, the same operations for any number of rows, so a
    sweep point's dynamical phase delta m is bit-identical to the run of
    that point.
    """
    h_psi = np.matmul(h, amplitudes[..., None])[..., 0]
    return np.vecdot(amplitudes, h_psi).real, np.vecdot(h_psi, h_psi).real


def _simpson(y: np.ndarray, x: np.ndarray, h: float | None) -> float:
    """Composite Simpson on a uniform grid with an even interval count.

    Falls back to the trapezoid rule otherwise, which keeps the quadrature
    at or above the O(step^2) accuracy of the finite-difference integrands
    it is fed.  ``h`` is the grid's common step, or None when the grid is
    not uniform, as the curve's shared step knows.  A sum that overflows,
    as a finite integrand can on a subnormal span, is refused.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    intervals = x.size - 1
    with np.errstate(over="ignore", invalid="ignore"):
        if h is not None and intervals >= 2 and intervals % 2 == 0:
            total = float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))
        else:
            total = float(np.trapezoid(y, x))
    if not math.isfinite(total):
        raise NumericError(f"quadrature overflows: the sum is {total!r}")
    return total


def dynamical_phase_numeric(curve: Curve) -> float:
    """Quadrature estimate of Im integral <psi|dpsi/ds> ds over a curve.

    Velocities come from second-order finite differences, so the estimate
    converges as O(step^2) under refinement of a smooth curve.
    """
    if len(curve) < 3:
        raise UsageError("quadrature needs at least 3 samples")
    return _simpson(curve._vertical.imag, curve.s, curve._step)


def geometric_phase(curve: Curve, *, threshold: float = ORTHOGONALITY_TOL) -> PhaseReport:
    """Phase decomposition of a curve between its two endpoint states."""
    a = curve.state(0)
    b = curve.state(-1)
    z = inner(a, b)
    if abs(z) < threshold:
        raise IndeterminatePhaseError(
            "endpoint states are orthogonal; the Pancharatnam phase is undefined"
        )
    pan = principal(cmath.phase(z))
    dyn = dynamical_phase_numeric(curve)
    return PhaseReport(
        pancharatnam=pan,
        dynamical=dyn,
        geometric=principal(pan - dyn),
        visibility=min(1.0, abs(z)),
    )


def transformation_phase(
    state: StateVector, spec: PlateSpec, *, threshold: float = ORTHOGONALITY_TOL
) -> tuple[float, float]:
    """Phase acquired under one plate: (arg<d|Q d>, Im<d|Q d>).

    The imaginary part obeys the plate identity

        Im<d|Q d> = sin(2 delta) <d|H(chi)|d> / 2,

    since Q = cos(2 delta) (1 - P0) + i sin(2 delta) H/2 + P0 with P0 the
    projector on the zero eigenvector of the generator H.
    """
    if state.basis is not Basis.PMZ:
        raise BasisMismatchError("transformation phase needs plate-basis amplitudes")
    out = q_matrix(spec).matrix @ state.amplitudes
    z = complex(np.vdot(state.amplitudes, out))
    if abs(z) < threshold:
        raise IndeterminatePhaseError("plate output is orthogonal to the input")
    return principal(cmath.phase(z)), z.imag


def vertex_product(
    states: Sequence[StateVector], *, threshold: float = ORTHOGONALITY_TOL
) -> float:
    """Polygon geometric phase -arg{<sN|s1><s1|s2>...<s(N-1)|sN>}.

    The closing overlap <sN|s1> makes the product gauge invariant, so the
    result depends only on the rays of the vertices.  Any overlap below
    ``threshold`` in magnitude is an error: the polygon is then degenerate.
    """
    if len(states) < 2:
        raise UsageError("a vertex product needs at least 2 states")
    basis = states[0].basis
    for st in states[1:]:
        if st.basis is not basis:
            raise BasisMismatchError("vertex states must share one basis")
    total = 0.0
    closing = inner(states[-1], states[0])
    if abs(closing) < threshold:
        raise IndeterminatePhaseError("closing overlap is orthogonal within tolerance")
    total += cmath.phase(closing)
    for left, right in zip(states[:-1], states[1:]):
        z = inner(left, right)
        if abs(z) < threshold:
            raise IndeterminatePhaseError("consecutive vertices are orthogonal within tolerance")
        total += cmath.phase(z)
    return principal(-total)


def bargmann_limit(curve: Curve, *, threshold: float = ORTHOGONALITY_TOL) -> float:
    """Vertex product over all samples of a curve, including the closing leg.

    As the sampling refines, the consecutive overlaps absorb the dynamical
    phase and the value converges to the geometric phase of the curve; on a
    parallel-lifted curve it reduces to -arg<psi(s2)|psi(s1)> directly.
    """
    if len(curve) < 3:
        raise UsageError("the sampled vertex product needs at least 3 samples")
    amps = curve.amplitudes
    consecutive = overlap_series(curve)
    closing = complex(np.vdot(amps[-1], amps[0]))
    if abs(closing) < threshold or float(np.abs(consecutive).min()) < threshold:
        raise IndeterminatePhaseError("an overlap in the sampled polygon is orthogonal")
    total = float(np.angle(consecutive).sum()) + cmath.phase(closing)
    return principal(-total)
