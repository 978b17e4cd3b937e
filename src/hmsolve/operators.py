"""Operator models: linear and nonlinear maps, monotone M, constants.

H and A are single-valued maps; M is multivalued, and the solvers only ever
touch it through its resolvent plus a monotone selection used for empirical
validation. One class, ``AffineLinear``, implements every linear map
x -> W x - b, whatever its role: W is a positive scalar w (w*I in any
dimension, never stored as a matrix) or a square matrix. ``ScaledIdentity``
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
# operators


class AffineLinear:
    """x -> W x - offset, as H, as A or as a linear (single-valued) M.

    The weight W is a positive scalar w, meaning w*I in any dimension unless
    an offset fixes it, or a square matrix; ``scale`` and ``matrix`` hold the
    one that applies and are None otherwise. As M, ``selection`` is ``apply``.
    """

    def __init__(self, weight, offset=None):
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

    def apply(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        wx = self.scale * x if self.matrix is None else self.matrix @ x
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


def _spd_extremes(matrix):
    eigs = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0:
        raise UnsupportedOperatorError("matrix is not positive definite")
    return lo, hi


def _weight(op, role):
    if not isinstance(op, AffineLinear):
        raise UnsupportedOperatorError("no cataloged constants for %r as %s" % (op, role))
    return op.weight


def h_constants(op):
    """(gamma, tau) for a catalog single-valued operator."""
    if isinstance(op, DiagonalNonlinear):
        return op.deriv_range
    w = _weight(op, "H")
    if op.matrix is None:
        return w, w
    if not np.allclose(w, w.T, rtol=0, atol=1e-12):
        raise UnsupportedOperatorError(
            "constants for non-symmetric affine operators are not cataloged"
        )
    return _spd_extremes(w)


def coupling_constants(a_op, h_op):
    """(r, s): A's strong monotonicity w.r.t. H and A's Lipschitz constant.

    Cataloged for affine A and H only; the cross-operator constant r is
    exact for these, never estimated.
    """
    wa, wh = _weight(a_op, "A"), _weight(h_op, "H")
    if a_op.matrix is None:  # <a d, W_H d> >= a*gamma ||d||^2
        return wa * h_constants(h_op)[0], wa
    if h_op.matrix is None:  # <W_A d, h d> >= h*lo(W_A) ||d||^2
        lo, hi = h_constants(a_op)
        return wh * lo, hi
    # cataloged only when A's matrix is a positive multiple of H's,
    # where <c*W d, W d> = c ||W d||^2 >= c*gamma^2 ||d||^2 exactly
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
    w = _weight(m_op, "M")
    return w if m_op.matrix is None else _spd_extremes(w)[0]


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
