"""Operator models: linear and nonlinear maps, monotone M, constants.

H and A are single-valued maps; M is multivalued, and the solvers only ever
touch it through its resolvent plus a monotone selection used for empirical
validation. One class, ``AffineLinear``, implements every linear map
x -> W x - b, whatever its role: W is a positive scalar w (w*I in any
dimension, never stored as a matrix) or a square matrix, which an eigenpair
Q diag(w) Q^T given instead builds only when read. ``ScaledIdentity``
(alias ``ScaledIdentityMulti``) and ``LinearMonotone`` are its scalar and
symmetric-matrix cases. ``DiagonalNonlinear`` is the nonlinear coordinatewise
H, ``ShiftedSubdifferential`` the genuinely multivalued coordinatewise M.
``catalog_constants`` is the one place that states the five constants of a
triple of these kinds: the exact best value of each, never an estimate.

Naming convention for the five constants: gamma and tau are H's strong
monotonicity and Lipschitz constants, r and s are A's strong monotonicity
w.r.t. H and Lipschitz constants, eta is M's strong monotonicity constant.
(The literature reuses gamma for several roles; this module fixes the
assignment above throughout.)
"""

import contextlib
import functools
import weakref
from dataclasses import dataclass

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
    "catalog_constants",
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
    an offset fixes it, or a finite square matrix; ``scale`` and ``matrix`` hold the
    one that applies and are None otherwise. As M, ``selection`` is ``apply``.

    Instead of a weight, a matrix W may come as an ``eigenpair`` (basis, values):
    an orthogonal Q and a vector w with W = Q diag(w) Q^T, kept read-only for
    ``ResolventEngine.fixed_point_map`` and ``catalog_constants``; a weight and an
    eigenpair together are a ``ValueError``. Q is an n x n array or any object that
    offers ``Q @ V`` and ``Q.T @ V`` and, for ``numpy.asarray``, its dense form, such
    as the reflectors of ``problems.ReflectorBasis``: every reader of the basis but
    ``matrix`` uses its products only. ``matrix`` (and ``weight``) is built as the
    symmetric part of (Q w) Q^T on its first read, and never if nothing reads it.
    Q is checked once on one seeded probe vector v, in O(n^2): Q(Q^T v) must give v
    back to 1e-9 relative, else ``ValueError``; a basis object that passed the probe
    once (H's, shared by A) is not probed again.
    """

    def __init__(self, weight=None, offset=None, eigenpair=None):
        if eigenpair is not None:
            if weight is not None:
                raise ValueError("give a weight or an eigenpair, not both")
            self.scale, self.dim = None, np.size(eigenpair[1])
        else:
            weight = np.asarray(weight, dtype=float)
            if weight.ndim == 0:
                if not (np.isfinite(weight) and weight > 0):
                    raise ValueError("a scalar weight must be strictly positive")
                self.weight = self.scale = float(weight)
                self.matrix, self.dim = None, None
            elif weight.ndim == 2 and weight.shape[0] == weight.shape[1]:
                if not np.isfinite(weight).all():
                    raise ValueError("a matrix weight must be finite")
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
        self.eigenpair = None if eigenpair is None else self._checked_eigenpair(*eigenpair)

    def _checked_eigenpair(self, basis, values):
        if isinstance(basis, np.ndarray) or not hasattr(basis, "T"):
            # an array (or nested lists); any other basis is kept as it is, since
            # numpy.asarray would build its dense form
            basis = np.asarray(basis, dtype=float)
            basis.setflags(write=False)
        values = np.asarray(values, dtype=float)
        if (basis.shape != (self.dim, self.dim) or values.shape != (self.dim,)
                or not np.isfinite(values).all()):
            raise ValueError("an eigenpair needs an n x n basis and n finite values")
        if _PROBED.get(id(basis)) is not basis:  # else the same probe passed
            v = np.random.default_rng(0).standard_normal(self.dim)
            if not np.linalg.norm(basis @ (basis.T @ v) - v) <= _CONSISTENCY_TOL * np.linalg.norm(v):
                raise ValueError("the eigenpair's basis is not orthogonal on a probe vector")
            with contextlib.suppress(TypeError):  # a basis without weak references is probed each time
                _PROBED[id(basis)] = basis
        values.setflags(write=False)
        return basis, values

    @functools.cached_property
    def matrix(self):
        # set in __init__ unless an eigenpair is given; the dense Q is built here if need be
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


ScaledIdentityMulti = ScaledIdentity  # kept: the benchmark's nonlinear-resolve builds its M with it


class LinearMonotone(AffineLinear):
    """M(u) = {B u} for a symmetric positive definite matrix B. No src path builds one; it is kept
    because the benchmark's nonlinear-resolve builds its Newton-path M with it."""

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


def _on_one_basis(h_op, a_op):
    """(Q, h, a) when W_H and W_A are Q diag(h) Q^T and Q diag(a) Q^T on one basis object Q, else None."""
    if not (isinstance(h_op, AffineLinear) and isinstance(a_op, AffineLinear)):
        return None
    if h_op.scale is not None and a_op.scale is not None:
        return None, h_op.scale, a_op.scale
    eh, ea = h_op.eigenpair, a_op.eigenpair
    return (*eh, ea[1]) if eh and ea and eh[0] is ea[0] else None


def _extremes(op):
    """(lambda_min(sym W), ||W||_2) of an affine operator's weight W; off its values when diagonal."""
    if op.scale is not None:
        return op.scale, op.scale
    if op.eigenpair is not None:
        return float(np.min(op.eigenpair[1])), float(np.max(np.abs(op.eigenpair[1])))
    sym = (op.matrix + op.matrix.T) / 2.0
    return float(np.linalg.eigvalsh(sym)[0]), float(np.linalg.norm(op.matrix, 2))


def catalog_constants(h_op, a_op, m_op):
    """The exact OperatorConstants of an (H, A, M) triple: each the best its inequality admits.

    With sym W = (W + W^T)/2: gamma = lambda_min(sym W_H) and tau = ||W_H||_2, or a
    ``DiagonalNonlinear`` H's ``deriv_range``; r = lambda_min(sym(W_H^T W_A)) and
    s = ||W_A||_2; eta = lambda_min(sym W_M), or a ``ShiftedSubdifferential``'s shift.
    Scalar weights, and eigenpairs on one basis object, are read off their values in
    O(n) with no matrix (r = min(h*a), s = max|a|); other weights by ``eigvalsh`` and
    the 2-norm. ``UnsupportedOperatorError`` for a non-affine A or M and for a matrix A
    with a nonlinear H; ``InconsistentConstantsError`` when a constant is not positive.
    """
    if not (isinstance(h_op, (AffineLinear, DiagonalNonlinear)) and isinstance(a_op, AffineLinear)
            and isinstance(m_op, (AffineLinear, ShiftedSubdifferential))):
        raise UnsupportedOperatorError("no cataloged constants for H, A, M = %r, %r, %r" % (h_op, a_op, m_op))
    nonlinear_h = isinstance(h_op, DiagonalNonlinear)
    if nonlinear_h and a_op.scale is None:
        raise UnsupportedOperatorError("no cataloged constants for a matrix A with a nonlinear H")
    gamma, tau = h_op.deriv_range if nonlinear_h else _extremes(h_op)
    if a_op.scale is not None:  # <a d, H x - H y> >= a*gamma ||d||^2
        r, s = a_op.scale * gamma, a_op.scale
    elif _on_one_basis(h_op, a_op):  # as fixed_point_map's diagonal form: W_H^T W_A = Q diag(h*a) Q^T
        h, a = h_op.eigenpair[1], a_op.eigenpair[1]
        r, s = float(np.min(h * a)), float(np.max(np.abs(a)))
    else:
        cross = np.dot(np.transpose(h_op.weight), a_op.matrix)
        r, s = float(np.linalg.eigvalsh((cross + cross.T) / 2.0)[0]), _extremes(a_op)[1]
    eta = m_op.shift if isinstance(m_op, ShiftedSubdifferential) else _extremes(m_op)[0]
    return OperatorConstants(gamma=gamma, tau=tau, r=r, s=s, eta=eta)
