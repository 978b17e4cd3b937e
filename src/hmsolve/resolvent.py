"""Resolvent engine: computes x = (H + lam*M)^{-1}(u).

Three strategies, selected automatically from the operator kinds:

* ``closed-form-linear``: when H and M are both affine, K x = u + b_H + lam*b_M
  with K = W_H + lam*W_M: a division when both weights are scalars, else an
  LU of the matrix with a scalar weight added to its diagonal only.
* ``separable-scalar``: one vectorised pass over all coordinates when H (a
  scalar weight or ``DiagonalNonlinear``) and M = c*t + w*|t| act
  coordinatewise, affine offsets moved into u. With g(t) = H(t) + lam*c*t,
  the dead zone |u - g(0)| <= lam*w is exactly 0 and the rest solves
  g(x) = u - lam*w*sign(u - g(0)) by masked safeguarded Newton/bisection.
* ``newton-general``: damped Newton with Armijo backtracking on
  G(x) = H(x) + lam*m(x) - u for the general smooth case.
"""

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from . import operators as ops

__all__ = [
    "ResolventDivergenceError",
    "ResolventEngine",
    "resolvent_lipschitz_bound",
    "CLOSED_FORM",
    "SEPARABLE",
    "NEWTON",
]

CLOSED_FORM = "closed-form-linear"
SEPARABLE = "separable-scalar"
NEWTON = "newton-general"


class ResolventDivergenceError(RuntimeError):
    """The inner solve failed to reach its tolerance within the iteration cap.

    Signals a hypothesis violation (non-monotone configuration) or a bad lam.
    """


def resolvent_lipschitz_bound(constants, lam):
    """Lipschitz constant 1/(gamma + lam*eta) of the resolvent."""
    if not lam > 0:
        raise ValueError("lam must be strictly positive")
    return 1.0 / (constants.gamma + lam * constants.eta)


def _offset(op):
    has = isinstance(op, ops.AffineLinear) and op.offset is not None
    return op.offset if has else 0.0


def _weight_sum(a, b):
    """a + b for weights that are each a scalar (times I) or a matrix.

    A scalar added to a matrix goes on its diagonal only.
    """
    if np.ndim(a) == np.ndim(b):
        return a + b
    w, k = (a, np.array(b)) if np.ndim(a) == 0 else (b, np.array(a))
    k[np.diag_indices_from(k)] += w
    return k


def _coordinate_failure(reason, index, failed, resid):
    k = np.flatnonzero(failed)[0]
    return ResolventDivergenceError("separable inner solve %s at coordinate %d: "
                                    "|g(t) - target| = %g" % (reason, index[k], abs(resid[k])))


class ResolventEngine:
    """Immutable solver for u in H(x) + lam*M(x); ``resolve`` is reentrant."""

    inner_tolerance = 1e-12  # residual at which the iterative strategies stop

    def __init__(self, h_op, m_op, lam, dim, max_inner_steps=100):
        if not lam > 0:
            raise ValueError("lam must be strictly positive")
        self.h = h_op
        self.m = m_op
        self.lam = float(lam)
        self.dim = int(dim)
        self.max_inner_steps = int(max_inner_steps)
        self.strategy = self._auto_strategy()
        # affine parts W x - b move their offsets into u: u + b_H + lam*b_M. A full
        # vector even when zero: without it spd-solve's peak RSS rose 7% (heap layout)
        self._shift = np.zeros(self.dim) + _offset(self.h) + self.lam * _offset(self.m)
        self._k = self._lu = None  # K when it is a scalar, else only its LU
        if self.strategy == CLOSED_FORM:
            k = _weight_sum(self.h.weight, self.lam * self.m.weight)
            if np.ndim(k):
                self._lu = lu_factor(k)
            else:
                self._k = k

    # -- strategy selection

    def _auto_strategy(self):
        affine_h, affine_m = (isinstance(op, ops.AffineLinear) for op in (self.h, self.m))
        coordinatewise_h = isinstance(self.h, ops.DiagonalNonlinear) or (
            affine_h and self.h.matrix is None)
        if isinstance(self.m, ops.ShiftedSubdifferential):
            if not coordinatewise_h:
                raise ValueError("a subdifferential M requires a coordinatewise H")
            return SEPARABLE
        if affine_h and affine_m:
            return CLOSED_FORM
        if coordinatewise_h and affine_m and self.m.matrix is None:
            return SEPARABLE
        return NEWTON

    # -- solving

    def resolve(self, u):
        """Return x with u in H(x) + lam*M(x)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape[0] != self.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (u.shape[0], self.dim))
        if self.strategy == NEWTON:
            return self._resolve_newton(u)
        u = u + self._shift
        if self.strategy == CLOSED_FORM:  # a non-finite u gives a non-finite x
            return u / self._k if self._lu is None else lu_solve(self._lu, u, check_finite=False)
        return self._resolve_separable(u)

    def _resolve_separable(self, u):
        sub = isinstance(self.m, ops.ShiftedSubdifferential)
        c, w = (self.m.shift, 1.0) if sub else (self.m.scale, 0.0)  # M(t) = c*t + w*|t|
        lam, lw = self.lam, self.lam * w
        if isinstance(self.h, ops.AffineLinear):  # a scalar weight, offset already in u
            # h*x + lam*c*x + lam*w*d|x| contains u  =>  soft threshold
            return np.sign(u) * np.maximum(np.abs(u) - lw, 0.0) / (self.h.scale + lam * c)
        g = lambda t: self.h.apply(t) + lam * c * t
        gp = lambda t: self.h.fprime(t) + lam * c
        g0 = g(np.zeros_like(u))
        # NaN compares false, so a NaN coordinate stays active and fails loudly
        active = np.flatnonzero(~(np.abs(u - g0) <= lw))
        out = np.zeros_like(u)
        out[active] = self._solve_increasing(g, gp, (u - lw * np.sign(u - g0))[active], active)
        return out

    def _solve_increasing(self, g, gp, target, index):
        """Roots of the increasing coordinatewise map g(t) = target, all at once.

        Joint doubling bracket, then Newton with bisection fallback; converged
        coordinates are frozen, so each follows its own scalar iterates.
        """
        lo, hi = -np.ones_like(target), np.ones_like(target)
        for doublings in range(201):
            g_lo, g_hi = g(lo), g(hi)
            open_lo, open_hi = ~(g_lo <= target), ~(g_hi >= target)
            if not (open_lo.any() or open_hi.any()):
                break
            if doublings == 200:
                resid = np.where(open_lo, g_lo, g_hi) - target
                raise _coordinate_failure("found no bracket after 200 doublings",
                                          index, open_lo | open_hi, resid)
            lo[open_lo] *= 2.0
            hi[open_hi] *= 2.0
        t = 0.5 * (lo + hi)
        for _ in range(self.max_inner_steps):
            ft = g(t) - target
            live = ~(np.abs(ft) <= self.inner_tolerance)
            if not live.any():
                return t
            hi = np.where(live & (ft > 0), t, hi)
            lo = np.where(live & ~(ft > 0), t, lo)
            d = gp(t)
            cand = t - np.divide(ft, d, out=np.zeros_like(ft), where=d > 0)
            cand = np.where((lo < cand) & (cand < hi), cand, 0.5 * (lo + hi))
            t = np.where(live, cand, t)
        raise _coordinate_failure(
            "did not reach tolerance %g within %d steps"
            % (self.inner_tolerance, self.max_inner_steps), index, live, ft)

    def _resolve_newton(self, u):
        lam = self.lam
        x = np.zeros(self.dim)
        g = self.h.apply(x) + lam * self.m.selection(x) - u
        phi = float(np.dot(g, g))
        for _ in range(self.max_inner_steps):
            if np.sqrt(phi) <= self.inner_tolerance:
                return x
            jac = _weight_sum(self.h.jacobian(x), lam * self.m.weight)
            step = np.linalg.solve(jac, g)
            t = 1.0
            while t >= 1e-12:
                cand = x - t * step
                gc = self.h.apply(cand) + lam * self.m.selection(cand) - u
                phic = float(np.dot(gc, gc))
                if phic <= (1.0 - 1e-4 * t) * phi:
                    x, g, phi = cand, gc, phic
                    break
                t *= 0.5
            else:
                raise ResolventDivergenceError("Armijo line search stalled")
        raise ResolventDivergenceError(
            "newton inner solve did not reach tolerance %g within %d steps"
            % (self.inner_tolerance, self.max_inner_steps)
        )

    # -- residual accounting

    def inclusion_residual(self, x, u):
        """Norm of H(x) + lam*m(x) - u for the selection m(x) in M(x) that witnesses it.

        At a zero coordinate of a subdifferential part the selection is the
        clipped value forced by the inclusion, making the residual exact.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        u = np.atleast_1d(np.asarray(u, dtype=float))
        hx = self.h.apply(x)
        if isinstance(self.m, ops.ShiftedSubdifferential):
            c = self.m.shift
            sub = np.where(x != 0.0, np.sign(x), np.clip((u - hx) / self.lam - c * x, -1.0, 1.0))
            m = c * x + sub
        else:
            m = self.m.selection(x)
        return float(np.linalg.norm(hx + self.lam * m - u))
