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
basis through the symmetric-square matrix G(t, r) = Sym^2(J) of the SU(2)
Jones matrix J = [[t, r], [-conj(r), conj(t)]], and the conjugation
A G A^T by the fixed basis change reproduces Q; that independent
construction is kept as the oracle the spectral form is tested against.

Sym^2 is a group homomorphism, so a plate chain is A Sym^2(J_k ... J_1) A^T.
``q_matrix`` therefore returns a converter that carries its pair (t, r)
and builds its 3x3 matrix only on first access; ``compose`` multiplies the
2x2 pairs of such converters, renormalising after each product, so a long
chain stays unitary to rounding; and ``eigen`` solves the product in closed
form from the two eigenvectors u+, u- of J: the eigenvalues l+^2, 1, l-^2
of A Sym^2(J) A^T sit on A Sym^2(u+), on A (u+ v u-) and on A Sym^2(u-).
A half-turn composite thus gets the canonical basis {Sym^2(u+), Sym^2(u-)}
of its doubled -1 eigenspace.  J = +-I is the one fully degenerate case;
its composite is the identity, reported on the identity columns.  Matrices
built from explicit entries carry no pair and keep the 3x3 product and the
eig + QR solver.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import FrozenInstanceError, dataclass
from typing import Sequence

import numpy as np

from .angles import principal
from .errors import (
    BasisMismatchError,
    ConvergenceError,
    NumericError,
    UsageError,
)
from .state_space import _S, BASIS_CHANGE, Basis, Curve, StateVector

#: Allowed deviation of |t|^2 + |r|^2 from one on g_matrix input.
COEFFICIENT_TOL = 1e-9
#: Unitarity tolerance of constructed converter matrices.
UNITARITY_TOL = 1e-10
#: Residual tolerance of the eigen-decomposition.
EIGEN_RESIDUAL_TOL = 1e-9
#: Eigenvalue arguments this close above -pi are reported as +pi.
HALF_TURN_TOL = 1e-12
#: Largest |delta| or |chi| of a plate, so that 2 delta and 2 chi stay finite.
MAX_PLATE_PARAMETER = sys.float_info.max / 2


@dataclass(frozen=True)
class PlateSpec:
    """Phase plate parameters: optical thickness delta, orientation chi."""

    delta: float
    chi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and math.isfinite(self.chi)):
            raise UsageError("plate parameters must be finite")
        if max(abs(self.delta), abs(self.chi)) > MAX_PLATE_PARAMETER:
            raise UsageError(f"plate parameters must be at most {MAX_PLATE_PARAMETER!r} in magnitude")


@dataclass(frozen=True)
class TransmissionPair:
    """Amplitude transmission t and reflection r of one plate."""

    t: complex
    r: complex

    @property
    def deviation(self) -> float:
        """How far |t|^2 + |r|^2 sits from one."""
        return abs(abs(self.t) ** 2 + abs(self.r) ** 2 - 1.0)


class Unitary3:
    """3x3 complex matrix tagged with the basis it acts on.

    Instances are immutable and ``matrix`` is read-only.  A plate from
    ``q_matrix``, or a product of such plates from ``compose``, also carries
    the SU(2) pair (a, b) of its Jones matrix J = [[a, b], [-conj(b), conj(a)]]
    and builds ``matrix`` from it on first access.  A converter built from a
    matrix never carries a pair.
    """

    __slots__ = ("basis", "_matrix", "_pair", "_build")

    def __init__(self, matrix, basis: Basis) -> None:
        m = np.array(matrix, dtype=complex)
        if m.shape != (3, 3):
            raise UsageError("converter matrices are 3x3")
        m.flags.writeable = False
        for name, value in (("basis", basis), ("_matrix", m), ("_pair", None), ("_build", None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _su2(cls, a: complex, b: complex, build) -> "Unitary3":
        """A plate-basis converter carrying the pair (a, b); ``build()`` returns its matrix."""
        u = object.__new__(cls)
        object.__setattr__(u, "basis", Basis.PMZ)
        object.__setattr__(u, "_matrix", None)
        object.__setattr__(u, "_pair", (a, b))
        object.__setattr__(u, "_build", build)
        return u

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            m = self._build()
            m.flags.writeable = False
            object.__setattr__(self, "_matrix", m)
        return self._matrix

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


def _plate_pair(spec: PlateSpec) -> tuple[complex, complex]:
    """The plate's (t, r) as Python complex numbers."""
    sin = math.sin(spec.delta)
    t = complex(math.cos(spec.delta), sin * math.cos(2.0 * spec.chi))
    r = complex(0.0, sin * math.sin(2.0 * spec.chi))
    return t, r


def plate_coefficients(spec: PlateSpec) -> TransmissionPair:
    """Transmission and reflection amplitudes of a plate."""
    return TransmissionPair(*_plate_pair(spec))


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
    """Converter matrix on plate-basis amplitudes, Q = exp(i delta H(chi)).

    It carries the plate's pair (t, r); the matrix is built by ``q_stack``
    on first access.
    """
    t, r = _plate_pair(spec)
    return Unitary3._su2(t, r, lambda: q_stack(np.array([spec.delta]), spec.chi)[0])


def _sym2_matrix(a: complex, b: complex) -> np.ndarray:
    """A Sym^2(J) A^T for J = [[a, b], [-conj(b), conj(a)]].

    The entries are those of ``_g_entries``, formed in Python complex
    arithmetic.
    """
    ac, bc = a.conjugate(), b.conjugate()
    s2 = math.sqrt(2.0)
    g = np.array([
        [a * a, s2 * a * b, b * b],
        [-s2 * a * bc, a * ac - b * bc, s2 * ac * b],
        [bc * bc, -s2 * ac * bc, ac * ac],
    ])
    return BASIS_CHANGE.matrix @ g @ BASIS_CHANGE.inverse


def compose(matrices: Sequence[Unitary3]) -> Unitary3:
    """Product of converter matrices in physical traversal order.

    ``compose([q1, q2, q3])`` returns q3 @ q2 @ q1: the first listed plate
    acts first.  All factors must share one basis tag.  When every factor
    carries an SU(2) pair, the pairs are multiplied instead, with the
    product renormalised to |a|^2 + |b|^2 = 1 after each factor, and the
    result carries the product pair; otherwise the 3x3 matrices are
    multiplied.
    """
    if not matrices:
        raise UsageError("compose needs at least one matrix")
    basis = matrices[0].basis
    if any(u.basis is not basis for u in matrices):
        raise BasisMismatchError("compose requires a common basis")
    if all(u._pair is not None for u in matrices):
        a, b = 1.0 + 0.0j, 0.0j
        for u in matrices:
            a2, b2 = u._pair
            a, b = a2 * a - b2 * b.conjugate(), a2 * b + b2 * a.conjugate()
            norm = math.hypot(a.real, a.imag, b.real, b.imag)
            a, b = a / norm, b / norm
        return Unitary3._su2(a, b, lambda: _sym2_matrix(a, b))
    total = np.eye(3, dtype=complex)
    for u in matrices:
        total = u.matrix @ total
    return Unitary3(total, basis)


def _first_significant(column) -> int:
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


def _pair_order(values, columns) -> list[int]:
    """Ascending rounded ``eigenvalue_arg``; only a tie compares the rounded eigenvectors ``columns[k]``."""
    args = [round(eigenvalue_arg(v), 12) for v in values]
    if len(set(args)) == 3:
        return sorted(range(3), key=args.__getitem__)
    return sorted(range(3), key=lambda k: (args[k], _rounded_components(columns[k])))


def _eigensystem(values, columns, basis: Basis) -> EigenSystem:
    """Pair the eigenvalues with the eigenvectors ``columns[k]`` in ``_pair_order``.

    Every caller passes finite orthonormal columns: the identity, the real
    eigenbasis V(chi), Sym^2 of an orthonormal 2x2 pair taken through the
    orthogonal A, or the QR factor of a finite matrix, each then multiplied
    by unit phases.  So each column is unit within a few eps, far inside
    ``NORM_TOL``, and becomes a state without the public checks.
    """
    return EigenSystem(
        tuple(
            (complex(values[k]), StateVector._trusted(np.array(columns[k], dtype=complex), basis))
            for k in _pair_order(values, columns)
        )
    )


def _phase_fixed(column) -> list[complex]:
    """The column times the unit phase that makes its first significant component real and positive.

    Python complex arithmetic, so the bits do not follow numpy's SIMD tier.
    """
    lead = column[_first_significant(column)]
    unit = lead.conjugate() / abs(lead)
    return [c * unit for c in column]


def _spin1_eigen(a: complex, b: complex) -> EigenSystem:
    """Closed-form eigensystem of A Sym^2(J) A^T for J = [[a, b], [-conj(b), conj(a)]].

    J has the eigenvalues l+- = Re a +- i sin(theta), sin(theta) = |(Im a, b)|,
    on orthonormal u+ and u- = (-conj(u+_2), conj(u+_1)), the image of u+
    under the antiunitary map that commutes with every SU(2) matrix.  The
    spin-1 pairs are l+^2 on Sym^2(u+), 1 on the symmetrised u+ v u- and
    l-^2 on Sym^2(u-), taken to the plate basis by A.  A 2x2 residual r of
    unit vectors bounds their residuals by 2r + r^2.
    """
    defect = abs(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag - 1.0)
    if defect > UNITARITY_TOL:
        raise NumericError(f"SU(2) pair is not unit norm: ||a|^2 + |b|^2 - 1| = {defect!r}")
    y, c = a.imag, b
    sin = math.hypot(y, abs(c))
    if sin == 0.0:
        # J = +-I, so the composite is the identity
        return _eigensystem(np.ones(3, dtype=complex), np.eye(3, dtype=complex), Basis.PMZ)
    plus = complex(a.real, sin)
    if sin < sys.float_info.min:
        # u+ depends only on the direction of (y, b); a subnormal one is lifted
        # by an exact power of two, because norms there keep too few digits
        y, c = y * 2.0**600, c * 2.0**600
        sin = math.hypot(y, abs(c))
    # u+ solves the row of J - l+ whose diagonal entry, i (y -+ sin), does not cancel
    p, q = (complex(y + sin), 1j * c.conjugate()) if y >= 0.0 else (c, complex(0.0, sin - y))
    norm = math.hypot(abs(p), abs(q))
    p, q = p / norm, q / norm
    r = math.hypot(abs(a * p + b * q - plus * p), abs(a.conjugate() * q - b.conjugate() * p - plus * q))
    if 2.0 * r + r * r > EIGEN_RESIDUAL_TOL:
        raise ConvergenceError(f"SU(2) eigen residual {r!r} above tolerance")
    v1, v2 = -q.conjugate(), p.conjugate()
    s2 = math.sqrt(2.0)
    square = plus * plus
    values = (square, 1.0 + 0.0j, square.conjugate())
    # the Fock columns Sym^2(u+), u+ v u-, Sym^2(u-), each taken to the plate
    # basis by A and phase-fixed, all in Python complex arithmetic
    fock = (
        (p * p, s2 * p * q, q * q),
        (s2 * p * v1, p * v2 + q * v1, s2 * q * v2),
        (v1 * v1, s2 * v1 * v2, v2 * v2),
    )
    columns = [_phase_fixed((_S * c0 + _S * c2, _S * c0 - _S * c2, c1)) for c0, c1, c2 in fock]
    return _eigensystem(values, columns, Basis.PMZ)


def eigen(u: Unitary3) -> EigenSystem:
    """Eigen-decomposition of a unitary converter matrix.

    A plate or plate chain that carries its SU(2) pair is solved in closed
    form (``_spin1_eigen``): the unitarity check there is the pair's norm
    defect against ``UNITARITY_TOL``, and the residual bound 2r + r^2 of its
    2x2 residual r is held to ``EIGEN_RESIDUAL_TOL``.  Any other matrix goes
    to ``np.linalg.eig`` for the eigenvalues; the eigenvectors are the
    columns of the QR factor of its eigenvector matrix.  For a normal
    matrix those columns are orthonormal eigenvectors (Schur vectors), also
    for degenerate or nearly degenerate spectra, because Gram-Schmidt
    never leaves an eigenspace.  Raises ``NumericError`` when the input is
    not unitary within ``UNITARITY_TOL`` and ``ConvergenceError`` when the
    factorization misses the residual or unit-modulus tolerances.
    ``plate_eigen`` gives one plate's eigensystem from its parameters.
    """
    if u._pair is not None:
        return _spin1_eigen(*u._pair)
    m = u.matrix
    defect = float(np.max(np.abs(np.conj(m.T) @ m - np.eye(3))))
    if defect > UNITARITY_TOL:
        raise NumericError(f"matrix is not unitary: max |U*U - I| = {defect!r}")
    values, raw = np.linalg.eig(m)
    if float(np.max(np.abs(np.abs(values) - 1.0))) > UNITARITY_TOL:
        raise ConvergenceError("eigenvalues left the unit circle")
    columns = [_phase_fixed(column) for column in np.linalg.qr(raw)[0].T.tolist()]
    vectors = np.array(columns).T
    residuals = np.linalg.norm(m @ vectors - vectors * values[None, :], axis=0)
    if not float(residuals.max()) <= EIGEN_RESIDUAL_TOL:  # NaN fails too
        raise ConvergenceError(f"eigen residual {residuals.max()!r} above tolerance")
    return _eigensystem(values, columns, u.basis)


def _plate_spectrum(spec: PlateSpec) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues exp(2i delta), exp(-2i delta), 1 of Q and the matching columns of V(chi).

    The columns carry ``eigen``'s phase convention: V is real and its first
    two columns lead with sqrt(1/2) > 0, so only the third, (0, -s, c), can
    need its sign flipped.
    """
    e = cmath.exp(2j * spec.delta)
    vectors = _eigenbasis(spec.chi)
    if vectors[_first_significant(vectors[:, 2]), 2] < 0.0:
        vectors[:, 2] = -vectors[:, 2]
    return np.array([e, e.conjugate(), 1.0]), vectors


def plate_eigen(spec: PlateSpec) -> EigenSystem:
    """Eigen-decomposition of one plate's Q(delta, chi), in closed form.

    Q = exp(i delta H(chi)) has the eigenvalues exp(2i delta), exp(-2i delta)
    and 1 on the columns of the eigenbasis V(chi) of H, whatever delta is,
    so no solver runs and no rounding of Q enters: inside the doubled
    eigenspace of a plate at delta = k pi/2 the vectors stay the columns of
    V.  Phase convention and pair order are those of ``eigen``.
    """
    values, vectors = _plate_spectrum(spec)
    return _eigensystem(values, vectors.T, Basis.PMZ)


def _plate_eigenvalues(spec: PlateSpec) -> np.ndarray:
    """The eigenvalues of ``plate_eigen`` in its order, without building eigenvector states."""
    values, vectors = _plate_spectrum(spec)
    return values[_pair_order(values, vectors.T)]


def _propagate_rows(v: np.ndarray, thickness, amplitudes: np.ndarray) -> np.ndarray:
    """Rows Q(thickness, chi) psi, in the eigenbasis V of H(chi).

    ``v`` is V (``_eigenbasis``) or a stack of them with one per row;
    thickness, amplitudes (rows of 3) and ``v`` broadcast against each
    other.  Each row is sum_k exp(i lambda_k s) (V^T psi)_k v_k, formed by
    element-wise multiply-adds with no matmul over the rows, so its rounding
    does not depend on how many rows are computed together: a row of
    ``evolve`` is bit-identical to ``propagate`` at the same thickness, and
    a sweep point to the run of that point.  Rows of zero thickness are the
    identity analytically and return the input bit-exactly instead of the
    rounded V V^T product.
    """
    thickness = np.asarray(thickness, dtype=float)
    # (V^T psi)_k = sum_j V[j, k] psi_j
    coeffs = v[..., 0, :] * amplitudes[..., :1] + v[..., 1, :] * amplitudes[..., 1:2] + v[..., 2, :] * amplitudes[..., 2:]
    # exp(i lambda s) for the eigenvalues lambda = (2, -2, 0) of H
    e = np.exp(2j * thickness)[..., None]
    rows = (e * coeffs[..., :1]) * v[..., 0] + (e.conj() * coeffs[..., 1:2]) * v[..., 1] + coeffs[..., 2:] * v[..., 2]
    return np.where((thickness == 0.0)[..., None], amplitudes, rows)


def propagate(spec: PlateSpec, state: StateVector) -> StateVector:
    """State after the plate, Q(delta, chi) applied to plate-basis amplitudes.

    The endpoint of ``evolve`` without the samples in between, bit for bit.
    """
    if state.basis is not Basis.PMZ:
        raise BasisMismatchError("propagate drives plate-basis amplitudes")
    return StateVector(_propagate_rows(_eigenbasis(spec.chi), spec.delta, state.amplitudes), Basis.PMZ)


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
    return Curve(grid, _propagate_rows(_eigenbasis(spec.chi), thickness, state.amplitudes), Basis.PMZ)
