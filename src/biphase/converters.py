"""Linear phase-plate converters acting on three-level biphoton states.

A loss-free plate of optical thickness ``delta`` whose fast axis sits at
angle ``chi`` acts on plate-basis amplitudes as the one-parameter unitary
group

    Q(delta, chi) = exp(i delta H(chi)),
    H(chi) = 2 [[0, c, s], [c, 0, 0], [s, 0, 0]],  c = cos 2chi, s = sin 2chi.

H is real symmetric with eigenvalues (2, -2, 0) and an eigenbasis that
does not depend on delta, so Q = V diag(exp(i lambda delta)) V^T with
spectrum {exp(2i delta), exp(-2i delta), 1}; a quarter-wave plate
(delta = pi/4) therefore has eigenvalues {i, -i, 1}.  This spectral form
is the normative definition of Q in this package.

The same plate has single-photon amplitude transmission and reflection

    t = cos(delta) + i sin(delta) cos(2 chi),
    r = i sin(delta) sin(2 chi),

with |t|^2 + |r|^2 = 1.  On the two-photon triple it acts in the Fock
basis through the symmetric-square matrix G(t, r), and the conjugation
A G A^T by the fixed basis change reproduces Q; that independent
construction is kept as the oracle the spectral form is tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .angles import principal
from .errors import (
    BasisMismatchError,
    ConvergenceError,
    NumericError,
    UsageError,
)
from .state_space import Basis, Curve, StateVector

#: Allowed deviation of |t|^2 + |r|^2 from one on g_matrix input.
COEFFICIENT_TOL = 1e-9
#: Unitarity tolerance of constructed converter matrices.
UNITARITY_TOL = 1e-10
#: Residual tolerance of the eigen-decomposition.
EIGEN_RESIDUAL_TOL = 1e-9
#: Eigenvalue arguments this close above -pi are reported as +pi.
HALF_TURN_TOL = 1e-12


@dataclass(frozen=True)
class PlateSpec:
    """Phase plate parameters: optical thickness delta, orientation chi."""

    delta: float
    chi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and math.isfinite(self.chi)):
            raise UsageError("plate parameters must be finite")


@dataclass(frozen=True)
class TransmissionPair:
    """Amplitude transmission t and reflection r of one plate."""

    t: complex
    r: complex

    @property
    def deviation(self) -> float:
        """How far |t|^2 + |r|^2 sits from one."""
        return abs(abs(self.t) ** 2 + abs(self.r) ** 2 - 1.0)


@dataclass(frozen=True, eq=False)
class Unitary3:
    """3x3 complex matrix tagged with the basis it acts on."""

    matrix: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (3, 3):
            raise UsageError("converter matrices are 3x3")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def apply(self, state: StateVector) -> StateVector:
        """Act on a state carrying the matching basis tag."""
        if state.basis is not self.basis:
            raise BasisMismatchError(
                f"matrix acts on {self.basis.value} amplitudes, state is {state.basis.value}"
            )
        return StateVector(self.matrix @ state.amplitudes, self.basis)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalue and eigenvector pairs of a converter matrix.

    Pairs are sorted by ascending ``eigenvalue_arg`` of the eigenvalue and
    each eigenvector's global phase is fixed by making its first component
    above 1e-12 in magnitude real and positive.
    """

    pairs: tuple[tuple[complex, StateVector], ...]

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.pairs], dtype=complex)

    @property
    def states(self) -> tuple[StateVector, ...]:
        return tuple(s for _, s in self.pairs)


def plate_coefficients(spec: PlateSpec) -> TransmissionPair:
    """Transmission and reflection amplitudes of a plate."""
    t = complex(math.cos(spec.delta), math.sin(spec.delta) * math.cos(2.0 * spec.chi))
    r = complex(0.0, math.sin(spec.delta) * math.sin(2.0 * spec.chi))
    return TransmissionPair(t, r)


def _g_entries(t, r) -> np.ndarray:
    """Stack of G matrices for broadcastable (t, r), shape (..., 3, 3)."""
    t = np.asarray(t, dtype=complex)
    r = np.asarray(r, dtype=complex)
    t, r = np.broadcast_arrays(t, r)
    tc = np.conj(t)
    rc = np.conj(r)
    s2 = math.sqrt(2.0)
    g = np.empty(t.shape + (3, 3), dtype=complex)
    g[..., 0, 0] = t * t
    g[..., 0, 1] = s2 * t * r
    g[..., 0, 2] = r * r
    g[..., 1, 0] = -s2 * t * rc
    g[..., 1, 1] = t * tc - r * rc
    g[..., 1, 2] = s2 * tc * r
    g[..., 2, 0] = rc * rc
    g[..., 2, 1] = -s2 * tc * rc
    g[..., 2, 2] = tc * tc
    return g


def g_matrix(pair: TransmissionPair) -> Unitary3:
    """Converter matrix on Fock amplitudes.

    The input pair must satisfy |t|^2 + |r|^2 = 1 within ``COEFFICIENT_TOL``;
    the result is then special-unitary (det G = 1) up to rounding.
    """
    if pair.deviation > COEFFICIENT_TOL:
        raise NumericError(
            f"|t|^2 + |r|^2 deviates from 1 by {pair.deviation!r}, not a loss-free plate"
        )
    return Unitary3(_g_entries(pair.t, pair.r), Basis.FOCK)


def _generator(chi: float) -> np.ndarray:
    """The plate generator H(chi) = 2 [[0, c, s], [c, 0, 0], [s, 0, 0]]."""
    c, s = math.cos(2.0 * chi), math.sin(2.0 * chi)
    return 2.0 * np.array([[0.0, c, s], [c, 0.0, 0.0], [s, 0.0, 0.0]])


def _eigenbasis(chi: float) -> np.ndarray:
    """Real orthogonal V with H(chi) = V diag(2, -2, 0) V^T.

    Columns are (1, c, s)/sqrt2, (1, -c, -s)/sqrt2 and (0, -s, c).
    """
    c, s = math.cos(2.0 * chi), math.sin(2.0 * chi)
    r = math.sqrt(0.5)
    return np.array([[r, r, 0.0], [r * c, -r * c, -s], [r * s, -r * s, c]])


def q_stack(deltas, chi: float) -> np.ndarray:
    """Q(delta_i, chi) for an array of thickness values, shape (..., 3, 3).

    Computed in the spectral form sum_k exp(i lambda_k delta) v_k v_k^T
    over the eigenpairs of H(chi), the normative definition of Q in this
    package; the Fock-basis conjugation A G A^T (``_g_entries``) is the
    oracle it is tested against.  With lambda = (2, -2, 0) and P+, P-, P0
    the projectors v_k v_k^T, the real part is P0 + cos(2 delta) (P+ + P-)
    and the imaginary part sin(2 delta) (P+ - P-): each entry takes real
    multiply-adds only, and Q comes out exactly symmetric.
    """
    v = _eigenbasis(chi)
    plus, minus, zero = v.T[:, :, None] * v.T[:, None, :]
    e = np.exp(2j * np.asarray(deltas, dtype=float))[..., None, None]
    q = np.empty(e.shape[:-2] + (3, 3), dtype=complex)
    q.real = zero + e.real * (plus + minus)
    q.imag = e.imag * (plus - minus)
    return q


def q_matrix(spec: PlateSpec) -> Unitary3:
    """Converter matrix on plate-basis amplitudes, Q = exp(i delta H(chi))."""
    return Unitary3(q_stack(np.array([spec.delta]), spec.chi)[0], Basis.PMZ)


def compose(matrices: Sequence[Unitary3]) -> Unitary3:
    """Product of converter matrices in physical traversal order.

    ``compose([q1, q2, q3])`` returns q3 @ q2 @ q1: the first listed plate
    acts first.  All factors must share one basis tag.
    """
    if not matrices:
        raise UsageError("compose needs at least one matrix")
    basis = matrices[0].basis
    total = np.eye(3, dtype=complex)
    for u in matrices:
        if u.basis is not basis:
            raise BasisMismatchError("compose requires a common basis")
        total = u.matrix @ total
    return Unitary3(total, basis)


def _first_significant(column: np.ndarray) -> int:
    for i, value in enumerate(column):
        if abs(value) > 1e-12:
            return i
    return int(np.argmax(np.abs(column)))


def _rounded_components(column: np.ndarray) -> tuple:
    return tuple((round(c.real, 12), round(c.imag, 12)) for c in column)


def eigenvalue_arg(value: complex) -> float:
    """Principal argument of an eigenvalue with half-turns reported as +pi.

    A degenerate -1 eigenvalue comes out of the solver with imaginary parts
    of either sign at rounding level; arguments within ``HALF_TURN_TOL`` of
    -pi are folded to +pi so both copies carry one argument.
    """
    a = principal(cmath.phase(value))
    return math.pi if a <= HALF_TURN_TOL - math.pi else a


def eigen(u: Unitary3) -> EigenSystem:
    """Eigen-decomposition of a unitary converter matrix.

    Eigenvalues come from ``np.linalg.eig``; the eigenvectors are the
    columns of the QR factor of its eigenvector matrix.  For a normal
    matrix those columns are orthonormal eigenvectors (Schur vectors), also
    for degenerate or nearly degenerate spectra, because Gram-Schmidt
    never leaves an eigenspace.  Raises ``NumericError`` when the input is
    not unitary within ``UNITARITY_TOL`` and ``ConvergenceError`` when the
    factorization misses the residual or unit-modulus tolerances.
    """
    m = u.matrix
    defect = float(np.max(np.abs(np.conj(m.T) @ m - np.eye(3))))
    if defect > UNITARITY_TOL:
        raise NumericError(f"matrix is not unitary: max |U*U - I| = {defect!r}")
    values, raw = np.linalg.eig(m)
    if float(np.max(np.abs(np.abs(values) - 1.0))) > UNITARITY_TOL:
        raise ConvergenceError("eigenvalues left the unit circle")
    vectors = np.linalg.qr(raw)[0]
    for k in range(3):
        col = vectors[:, k]
        lead = col[_first_significant(col)]
        vectors[:, k] = col * (np.conj(lead) / abs(lead))
    residuals = np.linalg.norm(m @ vectors - vectors * values[None, :], axis=0)
    if float(residuals.max()) > EIGEN_RESIDUAL_TOL:
        raise ConvergenceError(f"eigen residual {residuals.max()!r} above tolerance")

    # Rounded arguments order the pairs; only a tie falls back to comparing
    # the rounded eigenvectors lexicographically.
    args = [round(eigenvalue_arg(v), 12) for v in values]
    if len(set(args)) == 3:
        order = sorted(range(3), key=args.__getitem__)
    else:
        order = sorted(range(3), key=lambda k: (args[k], _rounded_components(vectors[:, k])))
    pairs = tuple(
        (complex(values[k]), StateVector(vectors[:, k], u.basis)) for k in order
    )
    return EigenSystem(pairs)


def _propagate_rows(chi: float, thickness: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Rows Q(thickness_i, chi) psi, shape (n, 3), in the eigenbasis of H(chi).

    Each row is sum_k exp(i lambda_k s) (V^T psi)_k v_k, formed by
    element-wise multiply-adds, so its rounding does not depend on how many
    rows are computed together: a row of ``evolve`` is bit-identical to
    ``propagate`` at the same thickness.  Rows of zero thickness are the
    identity analytically and return the input bit-exactly instead of the
    rounded V V^T product.
    """
    v = _eigenbasis(chi)
    coeffs = v.T @ amplitudes
    # exp(i lambda s) for the eigenvalues lambda = (2, -2, 0) of H
    e = np.exp(2j * thickness)[:, None]
    rows = (e * coeffs[0]) * v[:, 0] + (e.conj() * coeffs[1]) * v[:, 1] + coeffs[2] * v[:, 2]
    rows[thickness == 0.0] = amplitudes
    return rows


def propagate(spec: PlateSpec, state: StateVector) -> StateVector:
    """State after the plate, Q(delta, chi) applied to plate-basis amplitudes.

    The endpoint of ``evolve`` without the samples in between, bit for bit.
    """
    if state.basis is not Basis.PMZ:
        raise BasisMismatchError("propagate drives plate-basis amplitudes")
    return StateVector(_propagate_rows(spec.chi, np.array([spec.delta]), state.amplitudes)[0], Basis.PMZ)


def evolve(spec: PlateSpec, state: StateVector, n: int) -> Curve:
    """Curve traced while the plate thickens from zero to ``spec.delta``.

    Samples sit at s_i = |delta| * i / (n - 1) with the state Q(s_i, chi)
    applied to the input, signed like delta, and the last sample is the
    ``propagate`` endpoint.  When that grid is not strictly increasing (a
    zero-thickness plate, or one so thin that the samples repeat subnormal
    values), the curve runs over the unit interval t_i = i / (n - 1) with
    thickness delta * t_i instead, so the parameter grid stays strictly
    increasing in every case.
    """
    if state.basis is not Basis.PMZ:
        raise BasisMismatchError("evolve drives plate-basis amplitudes")
    if n < 2:
        raise UsageError("evolve needs at least 2 samples")
    grid = np.linspace(0.0, abs(spec.delta), n)
    if np.all(np.diff(grid) > 0.0):
        thickness = math.copysign(1.0, spec.delta) * grid
    else:
        grid = np.linspace(0.0, 1.0, n)
        thickness = spec.delta * grid
    return Curve(grid, _propagate_rows(spec.chi, thickness, state.amplitudes), Basis.PMZ)
