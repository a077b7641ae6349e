"""Three-level biphoton polarization states and discretized state curves.

A frequency-degenerate collinear biphoton lives in the span of |2,0>, |1,1>
and |0,2>, where (Nx, Ny) counts photons in the two linear polarization
modes.  Two coefficient conventions are used throughout the package:

* ``FOCK``: amplitudes over the photon-number triple (|2,0>, |1,1>, |0,2>),
  the convention the G converter matrices act on;
* ``PMZ``: amplitudes over |Psi+> = (|2,0> + |0,2>)/sqrt(2),
  |Psi-> = (|2,0> - |0,2>)/sqrt(2) and |Psi0> = |1,1>, the convention the
  Q converter matrices act on.

States carry an explicit basis tag so the two conventions can never be
mixed silently.  The fixed change of basis is the real orthogonal matrix

    A = [[1/sqrt2, 0, 1/sqrt2], [1/sqrt2, 0, -1/sqrt2], [0, 1, 0]],

with PMZ amplitudes d = A c and Fock amplitudes c = A^T d.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .errors import BasisMismatchError, NumericError, UsageError

#: Allowed deviation of |c1|^2 + |c2|^2 + |c3|^2 from one.
NORM_TOL = 1e-12
#: Smallest step whose square is a normal double: the square root of 2**-1022.
MIN_PRODUCT_STEP = 2.0**-511
#: Bound on how far rounding moves a |c|^2 when a unit row is multiplied by a
#: unit phase, combined with another by cos and sin, or summed in another order.
_ROUNDING = 16.0 * sys.float_info.epsilon


class Basis(enum.Enum):
    """Coefficient convention of a three-level state."""

    FOCK = "fock"
    PMZ = "pmz"


@dataclass(frozen=True, eq=False)
class BasisChange:
    """Real orthogonal matrix taking Fock amplitudes to PMZ amplitudes."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise UsageError("basis change must be a 3x3 real matrix")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def inverse(self) -> np.ndarray:
        # Orthogonal, so the transpose inverts it exactly.
        return self.matrix.T


_S = math.sqrt(0.5)

BASIS_CHANGE = BasisChange(np.array([
    [_S, 0.0, _S],
    [_S, 0.0, -_S],
    [0.0, 1.0, 0.0],
]))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude triple tagged with its basis.

    Instances are immutable; the amplitude array is copied on construction
    and marked read-only.
    """

    amplitudes: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (3,):
            raise UsageError(f"state needs exactly 3 amplitudes, got shape {amps.shape}")
        if not isinstance(self.basis, Basis):
            raise UsageError(f"basis must be a Basis member, got {self.basis!r}")
        # three Python complex numbers cost less to check than numpy calls on a triple
        x, y, z = amps.tolist()
        if not (cmath.isfinite(x) and cmath.isfinite(y) and cmath.isfinite(z)):
            raise NumericError("state amplitudes must be finite")
        norm_sq = x.real * x.real + x.imag * x.imag + y.real * y.real + y.imag * y.imag
        norm_sq += z.real * z.real + z.imag * z.imag
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise UsageError(f"state is not unit norm: |c|^2 = {norm_sq!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _trusted(cls, amplitudes: np.ndarray, basis: Basis) -> "StateVector":
        """A state from a fresh complex triple that passes every public check by construction.

        The caller owns ``amplitudes``, which this marks read-only, and says
        why they are finite and unit within a few eps.
        """
        amplitudes.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amplitudes)
        object.__setattr__(state, "basis", basis)
        return state

    @classmethod
    def normalized(cls, amplitudes, basis: Basis) -> "StateVector":
        """Build a state from an arbitrary nonzero amplitude triple.

        Amplitudes already unit within ``NORM_TOL`` are kept bit-exact so a
        serialized state round-trips without perturbation.  A triple whose
        norm overflows, or falls below 1e-15, is first divided by its largest
        real or imaginary part, so every nonzero finite triple is a direction,
        subnormal ones included.
        """
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.shape != (3,):
            raise UsageError(f"state needs exactly 3 amplitudes, got shape {amps.shape}")
        if not np.isfinite(amps.view(float)).all():
            raise NumericError("state amplitudes must be finite")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(amps))
        if not 1e-15 <= norm < math.inf:
            parts = np.ascontiguousarray(amps).view(float)
            largest = float(np.max(np.abs(parts)))
            if largest == 0.0:
                raise NumericError("cannot normalize a zero amplitude triple")
            # real division: complex division forms 1 / largest, which
            # overflows for a subnormal one
            amps = (parts / largest).view(complex)
            norm = float(np.linalg.norm(amps))
        if abs(norm * norm - 1.0) > NORM_TOL:
            amps = amps / norm
        return cls(amps, basis)


def _require_same_basis(a: StateVector, b: StateVector) -> None:
    if a.basis is not b.basis:
        raise BasisMismatchError(f"mixed bases: {a.basis.value} vs {b.basis.value}")


def to_pmz(state: StateVector) -> StateVector:
    """Re-express Fock amplitudes in the plate basis (d = A c)."""
    if state.basis is not Basis.FOCK:
        raise BasisMismatchError("to_pmz expects a Fock-basis state")
    return StateVector(BASIS_CHANGE.matrix @ state.amplitudes, Basis.PMZ)


def to_fock(state: StateVector) -> StateVector:
    """Re-express plate-basis amplitudes in the Fock basis (c = A^T d)."""
    if state.basis is not Basis.PMZ:
        raise BasisMismatchError("to_fock expects a plate-basis state")
    return StateVector(BASIS_CHANGE.inverse @ state.amplitudes, Basis.FOCK)


def inner(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product <a|b>, conjugating the first argument."""
    _require_same_basis(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _orthogonal_part(a: StateVector, b: StateVector) -> tuple[float, list[complex], float]:
    """|<a|b>|, the part w = b' - |<a|b>| a of b orthogonal to a, and its norm |w|.

    b' is b re-gauged by conj(z) / |z|, z = <a|b>, so that <a|b'> is real
    and non-negative.  A |z| at or below ``_ROUNDING`` is rounding noise,
    whose phase would re-gauge b at random, so it counts as z = 0: b keeps
    its own phase, w = b, and the arc is a quarter circle whatever the last
    bits of the amplitudes.  For unit rays an
    angle theta apart |w| = sin(theta) and |<a|b>| = cos(theta).  |w| is
    formed from the components of w, not as sqrt(1 - |z|^2): rounding of z
    moves w along a, orthogonal to w itself, so it changes |w| only to
    second order, and sin(theta) keeps a few ulp of relative accuracy far
    below the sqrt(eps) that 1 - |z|^2 resolves.  The arithmetic is on
    Python complex numbers.
    """
    _require_same_basis(a, b)
    x0, x1, x2 = a.amplitudes.tolist()
    y0, y1, y2 = b.amplitudes.tolist()
    z = x0.conjugate() * y0 + x1.conjugate() * y1 + x2.conjugate() * y2
    overlap = abs(z)
    if overlap <= _ROUNDING:
        overlap, unit = 0.0, 1.0
    else:
        unit = z.conjugate() / overlap
    w = [y * unit - overlap * x for x, y in ((x0, y0), (x1, y1), (x2, y2))]
    gap = math.hypot(w[0].real, w[0].imag, w[1].real, w[1].imag, w[2].real, w[2].imag)
    return overlap, w, gap


def ray_distance(a: StateVector, b: StateVector) -> float:
    """Fubini-Study chord sin(theta) = sqrt(1 - |<a|b>|^2) between the rays of a and b.

    Gauge invariant: multiplying either state by a unit phase leaves the
    value unchanged.  It is the norm of the part of b orthogonal to a
    (``_orthogonal_part``), which resolves rays far closer than the
    sqrt(eps) that 1 - |<a|b>|^2 can.
    """
    return _orthogonal_part(a, b)[2]


@dataclass(frozen=True, eq=False)
class Curve:
    """Discretized one-parameter family of states sharing one basis tag.

    Attributes
    ----------
    s:
        Strictly increasing real parameter samples, shape (n,).
    amplitudes:
        Complex amplitudes, shape (n, 3), one unit-norm row per sample.
    basis:
        Common basis tag of every sample.

    The derivative data that the finite-difference functionals share (the
    velocity, the vertical series <psi_i|dpsi_i/ds>, their squared moduli
    per sample and the uniform step) is computed on first use, once per
    instance, and kept read-only.  A curve also keeps ``_defect``, a bound
    on |row norm^2 - 1|: the measured worst row for a public construction,
    a proven bound for a trusted one.
    """

    s: np.ndarray
    amplitudes: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        s = np.array(self.s, dtype=float)
        # row-major, so each row's real and imaginary parts form one real view
        amps = np.array(self.amplitudes, dtype=complex, order="C")
        if s.ndim != 1 or s.size < 2:
            raise UsageError("a curve needs at least 2 samples")
        if amps.shape != (s.size, 3):
            raise UsageError(f"amplitudes shape {amps.shape} does not match {s.size} samples")
        if not np.isfinite(s).all() or not np.isfinite(amps.view(float)).all():
            raise NumericError("curve samples must be finite")
        if not (np.diff(s) > 0.0).all():
            raise UsageError("curve parameters must be strictly increasing")
        worst = float(np.abs(_sum_squares(_real_rows(amps)) - 1.0).max())
        if worst > NORM_TOL:
            raise UsageError(f"curve contains a non-unit sample, |c|^2 off by {worst!r}")
        if not isinstance(self.basis, Basis):
            raise UsageError(f"basis must be a Basis member, got {self.basis!r}")
        s.flags.writeable = False
        amps.flags.writeable = False
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_defect", worst)

    @classmethod
    def _trusted(cls, s: np.ndarray, amplitudes: np.ndarray, basis: Basis, defect: float) -> "Curve":
        """A curve from arrays that pass every public check by construction.

        The caller says why ``s`` is finite and strictly increasing, why
        ``amplitudes`` is finite with one row per sample, and why ``defect``
        bounds every row's |norm^2 - 1|.  A bound above ``NORM_TOL`` proves
        nothing, so the public constructor then measures the rows instead.
        Both arrays are marked read-only; the caller keeps no writeable view.
        """
        if defect > NORM_TOL:
            return cls(s, amplitudes, basis)
        s.flags.writeable = False
        amplitudes.flags.writeable = False
        curve = object.__new__(cls)
        object.__setattr__(curve, "s", s)
        object.__setattr__(curve, "amplitudes", amplitudes)
        object.__setattr__(curve, "basis", basis)
        object.__setattr__(curve, "_defect", defect)
        return curve

    def __len__(self) -> int:
        return int(self.s.size)

    def state(self, index: int) -> StateVector:
        """Sample at ``index`` as a StateVector (negative indices allowed).

        The row is finite, and its |norm^2 - 1| is at most ``_defect`` in the
        curve's arithmetic; the state's own arithmetic moves it by at most
        ``_ROUNDING``.  Within ``NORM_TOL`` the row passes the public check
        and is taken as it is.
        """
        row = self.amplitudes[index]
        if self._defect + _ROUNDING > NORM_TOL:
            return StateVector(row, self.basis)
        return StateVector._trusted(row.copy(), self.basis)

    def samples(self) -> Iterator[tuple[float, StateVector]]:
        for i in range(len(self)):
            yield float(self.s[i]), self.state(i)

    @functools.cached_property
    def _steps(self) -> np.ndarray:
        return self.s[1:] - self.s[:-1]

    @functools.cached_property
    def _min_step(self) -> float:
        return float(self._steps.min())

    @functools.cached_property
    def _step(self) -> float | None:
        return _uniform_step(self.s, self._steps)

    @functools.cached_property
    def _velocity(self) -> np.ndarray:
        # a span too short for the rays' turn overflows the velocity
        with np.errstate(over="ignore", invalid="ignore"):
            velocity = curve_velocity(self)
        if not np.isfinite(velocity.view(float)).all():
            raise NumericError(f"velocity overflows over the span {float(self.s[-1] - self.s[0])!r}")
        velocity.flags.writeable = False
        return velocity

    @functools.cached_property
    def _vertical(self) -> np.ndarray:
        vertical = np.einsum("ij,ij->i", np.conj(self.amplitudes), self._velocity)
        vertical.flags.writeable = False
        return vertical

    @functools.cached_property
    def _speed_sq(self) -> np.ndarray:
        """<dpsi|dpsi> per sample, the sum of squares of the velocity's real view."""
        return _squared_moduli(self._velocity, "speed")

    @functools.cached_property
    def _vertical_sq(self) -> np.ndarray:
        """|<psi|dpsi/ds>|^2 per sample, the sum of squares of the vertical series' parts."""
        return _squared_moduli(self._vertical, "vertical velocity")

    @classmethod
    def from_states(cls, s_values: Sequence[float], states: Sequence[StateVector]) -> "Curve":
        if len(states) != len(s_values):
            raise UsageError("one parameter value per state is required")
        if not states:
            raise UsageError("a curve needs at least 2 samples")
        basis = states[0].basis
        for st in states[1:]:
            if st.basis is not basis:
                raise BasisMismatchError("curve samples must share one basis")
        amps = np.stack([st.amplitudes for st in states])
        return cls(np.asarray(s_values, dtype=float), amps, basis)


def _real_rows(x: np.ndarray) -> np.ndarray:
    """The real view of complex rows (or of complex numbers, one per row), real and imaginary parts side by side."""
    return x.view(float).reshape(x.shape[0], -1)


def _sum_squares(rows: np.ndarray) -> np.ndarray:
    """Sum of squares of each real row: a squared norm, with no complex modulus."""
    return np.einsum("ij,ij->i", rows, rows)


def _squared_moduli(x: np.ndarray, what: str) -> np.ndarray:
    """Read-only squared moduli of complex rows (or numbers) ``x``, refused when one overflows.

    A finite difference of unit rows on a step just above
    ``MIN_PRODUCT_STEP`` can be finite while its square is not.
    """
    with np.errstate(over="ignore"):
        squares = _sum_squares(_real_rows(x))
    if not squares.max() < math.inf:
        raise NumericError(f"the squared {what} overflows")
    squares.flags.writeable = False
    return squares


def gauge_transform(curve: Curve, alpha: Union[Callable[[float], float], Sequence[float]]) -> Curve:
    """Multiply each sample by exp(i alpha(s)).

    ``alpha`` is either a real function of the curve parameter or a
    precomputed array with one value per sample.  Rays are untouched; only
    the representative phases move.  The output is built without the
    public checks: it keeps the curve's finite, strictly increasing grid,
    finite unit phases times finite rows are finite, and a row's
    |norm^2 - 1| moves by at most one rounding, ``_ROUNDING``.
    """
    if callable(alpha):
        values = np.array([float(alpha(t)) for t in curve.s.tolist()], dtype=float)
    else:
        values = np.asarray(alpha, dtype=float)
        if values.shape != curve.s.shape:
            raise UsageError("need exactly one gauge angle per curve sample")
    if not np.isfinite(values).all():
        raise NumericError("gauge angles must be finite at every sample")
    # exp(i alpha) from its cosine and sine, the bits np.exp(1j * alpha) gives at less cost
    factor = np.empty(values.shape, dtype=complex)
    np.cos(values, out=factor.real)
    np.sin(values, out=factor.imag)
    phased = factor[:, None] * curve.amplitudes
    return Curve._trusted(curve.s, phased, curve.basis, curve._defect + _ROUNDING)


def _uniform_step(x: np.ndarray, steps: np.ndarray) -> float | None:
    """The common step h = span / (n - 1) of a sample grid, or None when the grid is not uniform.

    ``steps`` are the differences x[1:] - x[:-1].  A grid is uniform when
    every step is within 8 ulp(max|x|) + 1e-9 |h| of h: ``np.allclose``'s
    test, formed as one maximum.  The first term is the rounding of the
    coordinates themselves: ``np.linspace`` rounds start + i step and places
    the last point at stop, which moves its steps from h by up to about
    2.3 ulp of the largest coordinate in random trials, so its grids pass
    at every offset and span, while steps that differ beyond that rounding,
    at any scale, do not.  A span that overflows is refused; there the
    tolerance itself would be infinite.
    """
    first, last = float(x[0]), float(x[-1])
    span = last - first
    if not math.isfinite(span):
        raise NumericError(f"grid span {span!r} overflows")
    h = span / (x.size - 1)
    if float(np.abs(steps - h).max()) > 8.0 * math.ulp(max(abs(first), abs(last))) + 1e-9 * abs(h):
        return None
    return h


def curve_velocity(curve: Curve) -> np.ndarray:
    """Finite-difference velocity d(amplitudes)/ds, shape (n, 3).

    Central differences at interior samples and second-order one-sided
    stencils at the ends, so the result is O(step^2) accurate on smooth
    curves.  Needs at least 3 samples.  The stencil follows the grid:

    * a uniform grid (``Curve._step``, the rule ``_simpson`` and
      ``geodesic_residual`` use too) with no step below ``MIN_PRODUCT_STEP``
      takes the uniform stencil of its common step h on the real view of
      the amplitudes: (psi_{i+1} - psi_{i-1}) / 2h inside, and
      (-3 psi_0 + 4 psi_1 - psi_2) / 2h and its mirror image at the ends, as
      ``np.gradient`` forms them for a scalar spacing.  Steps within d of h
      move the result from the non-uniform stencil's by at most
      4 (d / h^2) max|psi_{i+1} - psi_i|, to first order in d / h, plus
      rounding: at most about 4e-9 of the largest difference quotient, or
      the coordinates' own rounding where that is larger;
    * any other grid takes ``np.gradient``'s non-uniform stencil;
    * a grid with a step below ``MIN_PRODUCT_STEP``, where the non-uniform
      weights divide by products of steps that underflow, is differentiated
      against the unit interval (s - s_0) / span and the result divided by
      the span.
    """
    if len(curve) < 3:
        raise UsageError("derivatives need at least 3 samples")
    s = curve.s
    if curve._min_step >= MIN_PRODUCT_STEP:
        h = curve._step
        if h is None:
            return np.gradient(curve.amplitudes, s, axis=0, edge_order=2)
        f = curve.amplitudes.view(float)
        velocity = np.empty_like(f)
        np.subtract(f[2:], f[:-2], out=velocity[1:-1])
        velocity[1:-1] /= 2.0 * h
        # the six-part end rows in Python floats: the roundings of numpy's
        # element-wise products and sums, without its per-call cost
        lo, mid, hi = 0.5 / h, 2.0 / h, 1.5 / h
        velocity[0] = [-hi * a + mid * b + -lo * c for a, b, c in zip(*f[:3].tolist())]
        velocity[-1] = [lo * a + -mid * b + hi * c for a, b, c in zip(*f[-3:].tolist())]
        return velocity.view(complex)
    span = s[-1] - s[0]
    velocity = np.gradient(curve.amplitudes, (s - s[0]) / span, axis=0, edge_order=2)
    # divide the real and imaginary parts: complex division forms 1 / span,
    # which overflows for a subnormal span
    return (velocity.view(float) / span).view(complex)


def overlap_series(curve: Curve) -> np.ndarray:
    """Consecutive overlaps <psi_i|psi_{i+1}>, shape (n-1,)."""
    amps = curve.amplitudes
    return np.einsum("ij,ij->i", np.conj(amps[:-1]), amps[1:])
