"""Operator models: linear and nonlinear maps, monotone M, constants.

H and A are single-valued maps; M is multivalued, and the solvers only ever
touch it through its resolvent plus a monotone selection used for empirical
validation. One class, ``AffineLinear``, implements every linear map
x -> W x - b, whatever its role: W is a positive scalar w (w*I in any
dimension, never stored as a matrix) or a square matrix, which an eigenpair
Q diag(w) Q^T given alone builds only when read. ``ScaledIdentity``
(alias ``ScaledIdentityMulti``) and ``LinearMonotone`` are its scalar and
symmetric-matrix cases. ``DiagonalNonlinear`` is the nonlinear coordinatewise
H, ``ShiftedSubdifferential`` the genuinely multivalued coordinatewise M.
The catalog functions read the five constants off these kinds exactly.

Naming convention for the five constants: gamma and tau are H's strong
monotonicity and Lipschitz constants, r and s are A's strong monotonicity
w.r.t. H and Lipschitz constants, eta is M's strong monotonicity constant.
(The literature reuses gamma for several roles; this module fixes the
assignment above throughout.)
"""

import contextlib
import functools
import weakref
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UnsupportedOperatorError",
    "InconsistentConstantsError",
    "OperatorConstants",
    "ScaledIdentity",
    "AffineLinear",
    "DiagonalNonlinear",
    "LinearMonotone",
    "ScaledIdentityMulti",
    "ShiftedSubdifferential",
    "h_constants",
    "coupling_constants",
    "m_constant",
    "catalog_constants",
    "Violation",
    "ValidationReport",
    "validate_constants",
]

_CONSISTENCY_TOL = 1e-9
_PROBED = weakref.WeakValueDictionary()  # the bases that passed the probe, by id


class UnsupportedOperatorError(TypeError):
    """An operation was requested for a non-catalog operator kind."""


class InconsistentConstantsError(ValueError):
    """Declared operator constants violate a structural requirement."""


@dataclass(frozen=True)
class OperatorConstants:
    """The five constants (gamma, tau, r, s, eta) of a problem instance.

    Construction rejects inconsistent declarations: all constants must be
    strictly positive, gamma cannot exceed tau, and r cannot exceed s*tau.
    """

    gamma: float
    tau: float
    r: float
    s: float
    eta: float

    def __post_init__(self):
        for name in ("gamma", "tau", "r", "s", "eta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise InconsistentConstantsError(
                    "%s must be a strictly positive finite real, got %r" % (name, value)
                )
        if self.gamma > self.tau * (1 + _CONSISTENCY_TOL):
            raise InconsistentConstantsError(
                "gamma=%g exceeds tau=%g; a gamma-strongly-monotone, tau-Lipschitz "
                "map forces gamma <= tau" % (self.gamma, self.tau)
            )
        if self.r > self.s * self.tau * (1 + _CONSISTENCY_TOL):
            raise InconsistentConstantsError(
                "r=%g exceeds s*tau=%g" % (self.r, self.s * self.tau)
            )


# ---------------------------------------------------------------------------
# operators


class AffineLinear:
    """x -> W x - offset, as H, as A or as a linear (single-valued) M.

    The weight W is a positive scalar w, meaning w*I in any dimension unless
    an offset fixes it, or a square matrix; ``scale`` and ``matrix`` hold the
    one that applies and are None otherwise. As M, ``selection`` is ``apply``.

    A matrix W may come as an ``eigenpair`` (basis, values): an orthogonal Q
    and a vector w with W = Q diag(w) Q^T, kept read-only for
    ``ResolventEngine.fixed_point_map`` and ``h_constants``. Q is an n x n array
    or any object that offers ``Q @ v``, ``Q.T @ v`` and ``Y @ Q.T`` and, for
    ``numpy.asarray``, its dense form, such as the reflectors of
    ``problems.ReflectorBasis``: every reader of the basis but ``matrix`` uses
    its products only. Given alone, the eigenpair is the weight: ``matrix``
    (and ``weight``) is built as the symmetric part of (Q w) Q^T on its first
    read, and never if nothing reads it. The eigenpair is checked once on one
    seeded probe vector v, in O(n^2): Q(Q^T v) must give v back and, when a
    weight is given too, Q(w * Q^T v) must give W v, each to 1e-9 relative,
    else ``ValueError``. With no weight the probe reads only Q, so a basis
    object that passed it once (H's, shared by A) is not probed again.
    """

    def __init__(self, weight=None, offset=None, eigenpair=None):
        if weight is None and eigenpair is not None:
            self.scale, self.dim = None, np.size(eigenpair[1])
        else:
            weight = np.asarray(weight, dtype=float)
            if weight.ndim == 0:
                if not (np.isfinite(weight) and weight > 0):
                    raise ValueError("a scalar weight must be strictly positive")
                self.weight = self.scale = float(weight)
                self.matrix, self.dim = None, None
            elif weight.ndim == 2 and weight.shape[0] == weight.shape[1]:
                self.weight = self.matrix = weight
                self.scale, self.dim = None, weight.shape[0]
                weight.setflags(write=False)
            else:
                raise ValueError("the weight must be a scalar or a square matrix")
        self.offset = None
        if offset is not None:
            self.offset = np.atleast_1d(np.asarray(offset, dtype=float))
            if self.dim not in (None, self.offset.shape[0]):
                raise ValueError("offset dimension does not match matrix")
            self.dim = self.offset.shape[0]
            self.offset.setflags(write=False)
        self.eigenpair = None if eigenpair is None else self._checked_eigenpair(*eigenpair, weight)

    def _checked_eigenpair(self, basis, values, weight):
        if isinstance(basis, np.ndarray) or not hasattr(basis, "T"):
            # an array (or nested lists); any other basis is kept as it is, since
            # numpy.asarray would build its dense form
            basis = np.asarray(basis, dtype=float)
            basis.setflags(write=False)
        values = np.asarray(values, dtype=float)
        if (self.scale is not None or basis.shape != (self.dim, self.dim)
                or values.shape != (self.dim,) or not np.isfinite(values).all()):
            raise ValueError("an eigenpair needs a matrix weight and an n x n basis with n finite values")
        if not (weight is None and _PROBED.get(id(basis)) is basis):  # else the same probe passed
            v = np.random.default_rng(0).standard_normal(self.dim)
            qv = basis.T @ v
            size = np.linalg.norm(v)
            if not (np.linalg.norm(basis @ qv - v) <= _CONSISTENCY_TOL * size
                    and (weight is None
                         or np.linalg.norm(basis @ (values * qv) - weight @ v)
                         <= _CONSISTENCY_TOL * size * np.max(np.abs(values)))):
                raise ValueError("the eigenpair does not reproduce the matrix on a probe vector")
            with contextlib.suppress(TypeError):  # a basis without weak references is probed each time
                _PROBED[id(basis)] = basis
        values.setflags(write=False)
        return basis, values

    @functools.cached_property
    def matrix(self):
        # set in __init__ unless the eigenpair is the weight; the dense Q is built here if need be
        q, w = self.eigenpair
        q = np.asarray(q)
        mat = (q * w) @ q.T
        mat = (mat + mat.T) / 2.0
        mat.setflags(write=False)
        return mat

    @functools.cached_property
    def weight(self):
        return self.matrix

    def apply(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        wx = self.matrix @ x if self.scale is None else self.scale * x
        return wx if self.offset is None else wx - self.offset

    selection = apply

    def __repr__(self):
        weight = "dim=%d" % self.dim if self.scale is None else "%g" % self.scale
        return "%s(%s)" % (type(self).__name__, weight)


class ScaledIdentity(AffineLinear):
    """x -> scale * x in any dimension; as M, M(u) = {scale * u}."""

    def __init__(self, scale):
        super().__init__(float(scale))


ScaledIdentityMulti = ScaledIdentity


class LinearMonotone(AffineLinear):
    """M(u) = {B u} for a symmetric positive definite matrix B."""

    def __init__(self, matrix):
        super().__init__(np.atleast_2d(np.asarray(matrix, dtype=float)))
        if not np.allclose(self.matrix, self.matrix.T, rtol=0, atol=1e-10):
            raise ValueError("matrix must be symmetric")


class DiagonalNonlinear:
    """Per-coordinate smooth map x_i -> f(x_i).

    ``deriv_range`` declares analytically known bounds (lo, hi) on f', which
    double as the strong-monotonicity and Lipschitz constants of the map.
    """

    dim = None

    def __init__(self, f, fprime, deriv_range):
        lo, hi = float(deriv_range[0]), float(deriv_range[1])
        if not (0 < lo <= hi):
            raise ValueError("deriv_range must satisfy 0 < lo <= hi")
        self.f = f
        self.fprime = fprime
        self.deriv_range = (lo, hi)

    def apply(self, x):
        return np.asarray(self.f(np.atleast_1d(np.asarray(x, dtype=float))), dtype=float)

    def jacobian(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.diag(np.asarray(self.fprime(x), dtype=float))

    def __repr__(self):
        return "DiagonalNonlinear(deriv_range=%r)" % (self.deriv_range,)


class ShiftedSubdifferential:
    """Per-coordinate M(u) = shift*u + d|u|, genuinely multivalued at 0.

    ``selection`` returns the sign-based monotone selection used for
    empirical validation; resolvents handle the full subdifferential
    through its dead zone.
    """

    dim = None

    def __init__(self, shift):
        shift = float(shift)
        if not (np.isfinite(shift) and shift > 0):
            raise ValueError("shift must be strictly positive")
        self.shift = shift

    def selection(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.shift * x + np.sign(x)


# ---------------------------------------------------------------------------
# catalog constants


def _spd_extremes(op):
    # read off the eigenpair when there is one, so that no matrix is built
    if op.eigenpair is not None:
        eigs = np.sort(op.eigenpair[1])
    else:
        eigs = np.linalg.eigvalsh((op.matrix + op.matrix.T) / 2.0)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0:
        raise UnsupportedOperatorError("matrix is not positive definite")
    return lo, hi


def _check_affine(op, role):
    if not isinstance(op, AffineLinear):
        raise UnsupportedOperatorError("no cataloged constants for %r as %s" % (op, role))


def h_constants(op):
    """(gamma, tau) for a catalog single-valued operator."""
    if isinstance(op, DiagonalNonlinear):
        return op.deriv_range
    _check_affine(op, "H")
    if op.scale is not None:
        return op.scale, op.scale
    if op.eigenpair is None and not np.allclose(op.matrix, op.matrix.T, rtol=0, atol=1e-12):
        raise UnsupportedOperatorError(
            "constants for non-symmetric affine operators are not cataloged"
        )
    return _spd_extremes(op)


def coupling_constants(a_op, h_op):
    """(r, s): A's strong monotonicity w.r.t. H and A's Lipschitz constant.

    Cataloged for affine A and H only; the cross-operator constant r is
    exact for these, never estimated.
    """
    _check_affine(a_op, "A")
    _check_affine(h_op, "H")
    if a_op.scale is not None:  # <a d, W_H d> >= a*gamma ||d||^2
        return a_op.scale * h_constants(h_op)[0], a_op.scale
    if h_op.scale is not None:  # <W_A d, h d> >= h*lo(W_A) ||d||^2
        lo, hi = h_constants(a_op)
        return h_op.scale * lo, hi
    # cataloged only when A's matrix is a positive multiple of H's,
    # where <c*W d, W d> = c ||W d||^2 >= c*gamma^2 ||d||^2 exactly
    wa, wh = a_op.matrix, h_op.matrix
    c = float(np.sum(wa * wh)) / float(np.sum(wh * wh))
    if c <= 0 or not np.allclose(wa, c * wh, rtol=1e-9, atol=1e-12):
        raise UnsupportedOperatorError(
            "affine A must be a positive multiple of H for exact coupling constants"
        )
    gamma, tau = h_constants(h_op)
    return c * gamma * gamma, c * tau


def m_constant(m_op):
    """eta for a catalog multivalued operator."""
    if isinstance(m_op, ShiftedSubdifferential):
        return m_op.shift
    _check_affine(m_op, "M")
    return m_op.scale if m_op.scale is not None else _spd_extremes(m_op)[0]


def catalog_constants(h_op, a_op, m_op):
    """Assemble exact OperatorConstants for a cataloged (H, A, M) triple."""
    gamma, tau = h_constants(h_op)
    r, s = coupling_constants(a_op, h_op)
    return OperatorConstants(gamma=gamma, tau=tau, r=r, s=s, eta=m_constant(m_op))


# ---------------------------------------------------------------------------
# empirical validation


@dataclass(frozen=True)
class Violation:
    check: str
    sample_index: int
    lhs: float
    rhs: float


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations


def validate_constants(h_op, a_op, m_op, constants, samples, seed, dim=None):
    """Falsification-only check of declared constants on random pairs.

    Draws ``samples`` standard-normal pairs (x, y) and tests every declared
    inequality; violations are report content, never exceptions. Sampling can
    only falsify the constants, not certify them.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if dim is None:
        for op in (h_op, a_op, m_op):
            if getattr(op, "dim", None) is not None:
                dim = op.dim
                break
    if dim is None:
        raise ValueError("dim is required when all operators are dimension-agnostic")

    rng = np.random.default_rng(seed)
    report = ValidationReport()
    c = constants
    for i in range(samples):
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        d = x - y
        dn2 = float(np.dot(d, d))
        dn = np.sqrt(dn2)
        hd = h_op.apply(x) - h_op.apply(y)
        ad = a_op.apply(x) - a_op.apply(y)
        md = m_op.selection(x) - m_op.selection(y)

        def _tol(rhs):
            return 1e-10 * (1.0 + abs(rhs))

        checks = [
            ("h_lipschitz", float(np.linalg.norm(hd)), c.tau * dn, "<="),
            ("h_strong_monotone", float(np.dot(hd, d)), c.gamma * dn2, ">="),
            ("a_lipschitz", float(np.linalg.norm(ad)), c.s * dn, "<="),
            ("a_strong_monotone_wrt_h", float(np.dot(ad, hd)), c.r * dn2, ">="),
            ("m_strong_monotone", float(np.dot(md, d)), c.eta * dn2, ">="),
        ]
        for name, lhs, rhs, sense in checks:
            ok = lhs <= rhs + _tol(rhs) if sense == "<=" else lhs >= rhs - _tol(rhs)
            if not ok:
                report.violations.append(
                    Violation(check=name, sample_index=i, lhs=lhs, rhs=rhs)
                )
    return report
