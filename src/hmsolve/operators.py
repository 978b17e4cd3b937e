"""Operator models: single-valued maps, multivalued monotone maps, constants.

Single-valued operators realize the maps H and A; multivalued operators
realize M, which the solvers only ever touch through its resolvent plus a
monotone selection used for empirical validation.

Naming convention for the five constants: gamma and tau are H's strong
monotonicity and Lipschitz constants, r and s are A's strong monotonicity
w.r.t. H and Lipschitz constants, eta is M's strong monotonicity constant.
(The literature reuses gamma for several roles; this module fixes the
assignment above throughout.)
"""

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
# single-valued operators


class ScaledIdentity:
    """x -> scale * x. Dimension-agnostic."""

    is_linear = True
    dim = None

    def __init__(self, scale):
        scale = float(scale)
        if not (np.isfinite(scale) and scale > 0):
            raise ValueError("scale must be strictly positive")
        self.scale = scale

    def apply(self, x):
        return self.scale * np.atleast_1d(np.asarray(x, dtype=float))

    def jacobian(self, x):
        n = np.atleast_1d(np.asarray(x)).shape[0]
        return self.scale * np.eye(n)

    def linear_parts(self, dim):
        return self.scale * np.eye(dim), np.zeros(dim)

    def __repr__(self):
        return "ScaledIdentity(%g)" % self.scale


class AffineLinear:
    """x -> W x - offset."""

    is_linear = True

    def __init__(self, matrix, offset=None):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("matrix must be square")
        self.dim = self.matrix.shape[0]
        if offset is None:
            offset = np.zeros(self.dim)
        self.offset = np.atleast_1d(np.asarray(offset, dtype=float))
        if self.offset.shape[0] != self.dim:
            raise ValueError("offset dimension does not match matrix")
        self.matrix.setflags(write=False)
        self.offset.setflags(write=False)

    def apply(self, x):
        return self.matrix @ np.atleast_1d(np.asarray(x, dtype=float)) - self.offset

    def jacobian(self, x):
        return self.matrix

    def linear_parts(self, dim):
        if dim != self.dim:
            raise ValueError("dimension mismatch")
        return self.matrix, self.offset

    @property
    def is_symmetric(self):
        return np.allclose(self.matrix, self.matrix.T, rtol=0, atol=1e-12)

    def __repr__(self):
        return "AffineLinear(dim=%d)" % self.dim


class DiagonalNonlinear:
    """Per-coordinate smooth map x_i -> f(x_i).

    ``deriv_range`` declares analytically known bounds (lo, hi) on f', which
    double as the strong-monotonicity and Lipschitz constants of the map.
    """

    is_linear = False
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


# ---------------------------------------------------------------------------
# multivalued operators


class LinearMonotone:
    """M(u) = {B u} for a symmetric positive definite matrix B."""

    is_linear = True

    def __init__(self, matrix):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(self.matrix, self.matrix.T, rtol=0, atol=1e-10):
            raise ValueError("matrix must be symmetric")
        self.dim = self.matrix.shape[0]
        self.matrix.setflags(write=False)

    def selection(self, x):
        return self.matrix @ np.atleast_1d(np.asarray(x, dtype=float))

    def jacobian(self, x):
        return self.matrix

    def linear_matrix(self, dim):
        if dim != self.dim:
            raise ValueError("dimension mismatch")
        return self.matrix


class ScaledIdentityMulti:
    """M(u) = {scale * u}."""

    is_linear = True
    dim = None

    def __init__(self, scale):
        scale = float(scale)
        if not (np.isfinite(scale) and scale > 0):
            raise ValueError("scale must be strictly positive")
        self.scale = scale

    def selection(self, x):
        return self.scale * np.atleast_1d(np.asarray(x, dtype=float))

    def jacobian(self, x):
        n = np.atleast_1d(np.asarray(x)).shape[0]
        return self.scale * np.eye(n)

    def linear_matrix(self, dim):
        return self.scale * np.eye(dim)


class ShiftedSubdifferential:
    """Per-coordinate M(u) = shift*u + d|u|, genuinely multivalued at 0.

    ``selection`` returns the sign-based monotone selection used for
    empirical validation; resolvents handle the full subdifferential
    through its dead zone.
    """

    is_linear = False
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


def _spd_extremes(matrix):
    eigs = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0:
        raise UnsupportedOperatorError("matrix is not positive definite")
    return lo, hi


def h_constants(op):
    """(gamma, tau) for a catalog single-valued operator."""
    if isinstance(op, ScaledIdentity):
        return op.scale, op.scale
    if isinstance(op, AffineLinear):
        if not op.is_symmetric:
            raise UnsupportedOperatorError(
                "constants for non-symmetric affine operators are not cataloged"
            )
        return _spd_extremes(op.matrix)
    if isinstance(op, DiagonalNonlinear):
        return op.deriv_range
    raise UnsupportedOperatorError("unknown operator kind: %r" % (op,))


def coupling_constants(a_op, h_op):
    """(r, s): A's strong monotonicity w.r.t. H and A's Lipschitz constant.

    Cataloged combinations only; the cross-operator constant r is exact for
    these, never estimated.
    """
    if isinstance(a_op, ScaledIdentity) and isinstance(h_op, ScaledIdentity):
        return a_op.scale * h_op.scale, a_op.scale
    if isinstance(a_op, ScaledIdentity) and isinstance(h_op, AffineLinear):
        gamma, _ = h_constants(h_op)
        return a_op.scale * gamma, a_op.scale
    if isinstance(a_op, AffineLinear) and isinstance(h_op, ScaledIdentity):
        if not a_op.is_symmetric:
            raise UnsupportedOperatorError("non-symmetric A is not cataloged")
        lo, hi = _spd_extremes(a_op.matrix)
        return h_op.scale * lo, hi
    if isinstance(a_op, AffineLinear) and isinstance(h_op, AffineLinear):
        # cataloged only when A's matrix is a positive multiple of H's,
        # where <c*W d, W d> = c ||W d||^2 >= c*gamma^2 ||d||^2 exactly
        wa, wh = a_op.matrix, h_op.matrix
        denom = float(np.sum(wh * wh))
        c = float(np.sum(wa * wh)) / denom
        if c <= 0 or not np.allclose(wa, c * wh, rtol=1e-9, atol=1e-12):
            raise UnsupportedOperatorError(
                "affine A must be a positive multiple of H for exact coupling constants"
            )
        gamma, tau = h_constants(h_op)
        return c * gamma * gamma, c * tau
    raise UnsupportedOperatorError(
        "no cataloged coupling constants for %r w.r.t. %r" % (a_op, h_op)
    )


def m_constant(m_op):
    """eta for a catalog multivalued operator."""
    if isinstance(m_op, ScaledIdentityMulti):
        return m_op.scale
    if isinstance(m_op, ShiftedSubdifferential):
        return m_op.shift
    if isinstance(m_op, LinearMonotone):
        return _spd_extremes(m_op.matrix)[0]
    raise UnsupportedOperatorError("unknown multivalued kind: %r" % (m_op,))


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
    samples: int
    dim: int
    seed: int
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations


def validate_constants(h_op, a_op, m_op, constants, samples, seed, dim=None, scale=1.0):
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
    report = ValidationReport(samples=samples, dim=dim, seed=seed)
    c = constants
    for i in range(samples):
        x = scale * rng.standard_normal(dim)
        y = scale * rng.standard_normal(dim)
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
