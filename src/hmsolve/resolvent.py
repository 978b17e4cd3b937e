"""Resolvent engine: computes x = (H + lam*M)^{-1}(u).

Three strategies, selected automatically from the operator kinds; each turns
a non-finite u into a non-finite x without an inner solve. Affine offsets move
into u first: u + b_H + lam*b_M.

* ``closed-form-linear`` (H and M affine) and ``separable-scalar`` (M = c*t +
  w*|t| per coordinate, a diagonal weight with w = 0 or a subdifferential with
  w = 1) name the operator class. For a diagonal H both take one closed form,
  x = ``shrink``(u, lam*w)/k with k = h + lam*c, a division alone when w = 0.
  Otherwise a matrix H or M solves with an LU of K = W_H + lam*W_M, and a
  ``DiagonalNonlinear`` H solves g(x) = u - lam*w*sign(u - g(0)), g(t) = H(t) +
  lam*c*t, off the dead zone |u - g(0)| <= lam*w, by masked safeguarded
  Newton/bisection in the bracket that g' >= gamma + lam*c gives.
* ``newton-general``: damped Newton with Armijo backtracking on
  G(x) = H(x) + lam*m(x) - u for the general smooth case.

``ResolventEngine.fixed_point_map`` alone picks the form of F(x) = R[H x - lam*A x]:
diagonal, soft-thresholded when w = 1, or one ``resolve`` per evaluation.
"""

import functools
import math

import numpy as np

from . import operators as ops

__all__ = ["ResolventDivergenceError", "ResolventEngine", "CLOSED_FORM", "SEPARABLE", "NEWTON"]

CLOSED_FORM = "closed-form-linear"
SEPARABLE = "separable-scalar"
NEWTON = "newton-general"


class ResolventDivergenceError(RuntimeError):
    """The inner solve failed to reach its tolerance within the iteration cap.

    Signals a hypothesis violation (non-monotone configuration) or a bad lam.
    """


def _offset(op):
    has = isinstance(op, ops.AffineLinear) and op.offset is not None
    return op.offset if has else 0.0


def _weight_sum(a, b, beta):
    """a + beta*b for weights, one a matrix and the other a scalar (times I), a vector (its diagonal) or a matrix.

    A scalar or a vector goes on the matrix's diagonal only; the result is a new
    Fortran-ordered array, which LAPACK may overwrite without a copy.
    """
    mat, scale, w = (b, beta, a) if np.ndim(b) == 2 else (a, 1.0, beta * b)
    k = np.multiply(mat, scale, order="F")
    if np.ndim(w) == 2:
        k += w
    else:
        k[np.diag_indices_from(k)] += w
    return k


def vector_norm(v):
    """||v|| of a 1-d float array by ``np.linalg.norm``'s own sqrt(v.dot(v)), bit for bit at a third
    of its cost, unless only the squares overflow: then that of v/max|v_i|, scaled."""
    norm = math.sqrt(v.dot(v))
    if norm == math.inf and np.isfinite(v).all():  # from ||v|| ~ 1.3e154 on
        scale = float(np.max(np.abs(v)))
        norm = scale * vector_norm(v / scale)
    return norm


def shrink(v, theta):
    """v - min(max(v, -theta), theta), in place on v: sign(v)*max(|v| - theta, 0) bit for bit, +0 if |v| <= theta."""
    clipped = np.maximum(v, -theta)
    v -= np.minimum(clipped, theta, out=clipped)
    return v


def _coordinate_failure(reason, index, failed, resid):
    k = np.flatnonzero(failed)[0]
    return ResolventDivergenceError("separable inner solve %s at coordinate %d: "
                                    "|g(t) - target| = %g" % (reason, index[k], abs(resid[k])))


class ResolventEngine:
    """Solver for u in H(x) + lam*M(x); an LU of a matrix K is kept once ``resolve`` needs it."""

    inner_tolerance = 1e-12  # iterative stop: residual / max(1, |target|), or / max(1, ||u||) for Newton
    max_inner_steps = 100  # inner steps after which they raise ResolventDivergenceError

    def __init__(self, h_op, m_op, lam, dim):
        if not (np.isfinite(lam) and lam > 0):
            raise ValueError("lam must be finite and strictly positive, got %r" % (lam,))
        self.h = h_op
        self.m = m_op
        self.lam = float(lam)
        self.dim = int(dim)
        # M(t) = c*t + w*|t| per coordinate, or None; for a diagonal H, k = h + lam*c
        self._cw = ((m_op.shift, 1.0) if isinstance(m_op, ops.ShiftedSubdifferential)
                    else (m_op.weight, 0.0) if ops.diagonal(m_op) else None)
        self._k = h_op.weight + self.lam * self._cw[0] if self._cw and ops.diagonal(h_op) else None
        self.strategy = self._auto_strategy()
        self._shift = _offset(self.h) + self.lam * _offset(self.m)  # b_H + lam*b_M

    # -- strategy selection

    def _auto_strategy(self):
        coordinatewise_h = isinstance(self.h, ops.DiagonalNonlinear) or ops.diagonal(self.h)
        if self._cw and self._cw[1]:
            if not coordinatewise_h:
                raise ValueError("a subdifferential M requires a coordinatewise H")
            return SEPARABLE
        if isinstance(self.h, ops.AffineLinear) and isinstance(self.m, ops.AffineLinear):
            return CLOSED_FORM
        return SEPARABLE if coordinatewise_h and self._cw else NEWTON

    # -- solving

    def resolve(self, u):
        """Return x with u in H(x) + lam*M(x)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape[0] != self.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (u.shape[0], self.dim))
        if self.strategy == NEWTON:
            return self._resolve_newton(u)
        u = u + self._shift  # a new array, which the LU may overwrite
        if self._k is not None:  # the closed form: a non-finite u gives a non-finite x
            w = self._cw[1]
            return (shrink(u, self.lam * w) if w else u) / self._k  # at w = 0 the division alone
        if self.strategy == CLOSED_FORM:
            return self._k_solve(u)
        return self._resolve_separable(u)

    @functools.cached_property
    def _k_solve(self):
        """b -> K^-1 b, free to overwrite b, by an LU of the matrix K = W_H + lam*W_M, factored in place."""
        from scipy.linalg import lu_factor, lu_solve  # only a matrix K needs scipy, whose import outlasts a small run

        lu = lu_factor(_weight_sum(self.h.weight, self.m.weight, self.lam), overwrite_a=True, check_finite=False)
        return lambda b: lu_solve(lu, b, overwrite_b=True, check_finite=False)

    def fixed_point_map(self, a_op):
        """G(x) = R[H x - lam*A x] in the coordinates the operators act on, in one of two forms.

        * diagonal, when the closed form's k = h + lam*c exists and W_A = a is a scalar or a
          vector (``operators.diagonal``): with t = (h - lam*a)/k and c_hat = lam*(b_A + b_M)/k,
          G(x) = t*x + c_hat, or ``shrink``(t*x + c_hat, lam/k) when w = 1. Nothing is factored.
        * resolve, for every other problem: G(x) = ``resolve``(H x - lam*A x); an LU of a
          matrix K is factored on the first call. Either way G(x) is a fresh array: G never returns or writes x.
        """
        if self._k is None or not ops.diagonal(a_op):
            return lambda x: self.resolve(self.h.apply(x) - self.lam * a_op.apply(x))
        k = self._k
        t = (self.h.weight - self.lam * a_op.weight) / k
        b = self.lam * (_offset(a_op) + _offset(self.m))
        c = b / k if np.ndim(b) else 0.0
        theta = self.lam / k if self._cw[1] else None

        def g(x):  # t*x + c_hat in one fresh array, never x itself, soft-thresholded in place when w = 1
            v = t * x
            v += c
            return v if theta is None else shrink(v, theta)
        return g

    def _resolve_separable(self, u):  # a DiagonalNonlinear H
        c, w = self._cw
        lam, lw = self.lam, self.lam * w
        if not np.isfinite(u).all():  # no root to search for
            return np.full_like(u, np.nan)
        g0 = self.h.apply(np.zeros_like(u))  # g(0) = H(0)
        active = np.flatnonzero(~(np.abs(u - g0) <= lw))
        c = c[active] if np.ndim(c) else c  # g is only taken on the active coordinates
        g = lambda t: self.h.apply(t) + lam * c * t
        gp = lambda t: self.h.fprime(t) + lam * c
        target, slope = (u - lw * np.sign(u - g0))[active], self.h.deriv_range[0] + lam * c
        out = np.zeros_like(u)
        out[active] = self._solve_increasing(g, gp, target, g0[active], slope, active)
        return out

    def _solve_increasing(self, g, gp, target, g0, slope, index):
        """Roots of the increasing coordinatewise map g(t) = target, all at once.

        g' >= slope > 0 brackets each root between 0 and (target - g(0))/slope, so Newton
        from 0 first steps inside it; bisection is the fallback. A coordinate converges at
        |g(t) - target| <= inner_tolerance*max(1, |target|) and is frozen there, so each
        follows its own scalar iterates; a slope above the true one may leave a root
        outside its bracket, which then raises at the step cap.
        """
        with np.errstate(over="ignore"):  # a finite target may have an infinite bracket
            reach = (gap := target - g0) / slope
        if not np.isfinite(reach).all():
            raise _coordinate_failure("found no finite bracket", index, ~np.isfinite(reach), gap)
        lo, hi = np.minimum(reach, 0.0), np.maximum(reach, 0.0)
        t = np.zeros_like(reach)
        tol = self.inner_tolerance * np.maximum(1.0, np.abs(target))
        for _ in range(self.max_inner_steps):
            ft = g(t) - target
            live = ~(np.abs(ft) <= tol)
            if not live.any():
                return t
            hi = np.where(live & (ft > 0), t, hi)
            lo = np.where(live & ~(ft > 0), t, lo)
            d = gp(t)
            cand = t - np.divide(ft, d, out=np.zeros_like(ft), where=d > 0)
            cand = np.where((lo < cand) & (cand < hi), cand, 0.5 * (lo + hi))
            t = np.where(live, cand, t)
        raise _coordinate_failure(
            "did not reach relative tolerance %g within %d steps"
            % (self.inner_tolerance, self.max_inner_steps), index, live, ft)

    def _resolve_newton(self, u):
        if not np.isfinite(u).all():  # no root to search for
            return np.full_like(u, np.nan)
        lam = self.lam
        x = np.zeros(self.dim)
        g = self.h.apply(x) + lam * self.m.selection(x) - u
        # the merit ||g/s||^2, s = 1 unless ||g||^2 overflows: where it is finite, the tests on it bit for bit
        s = 1.0 if np.dot(g, g) < np.inf else 2.0 ** math.frexp(vector_norm(g))[1]
        phi = float(np.dot(g / s, g / s))
        tol = self.inner_tolerance * max(1.0, vector_norm(u))
        for _ in range(self.max_inner_steps):
            if np.sqrt(phi) * s <= tol:
                return x
            jac = _weight_sum(self.h.jacobian(x), self.m.weight, lam)
            step = np.linalg.solve(jac, g)
            t = 1.0
            while t >= 1e-12:
                cand = x - t * step
                gc = self.h.apply(cand) + lam * self.m.selection(cand) - u
                phic = float(np.dot(gc / s, gc / s))
                if phic <= (1.0 - 1e-4 * t) * phi:
                    x, g, phi = cand, gc, phic
                    break
                t *= 0.5
            else:
                raise ResolventDivergenceError("Armijo line search stalled")
        raise ResolventDivergenceError(
            "newton inner solve did not reach relative tolerance %g within %d steps"
            % (self.inner_tolerance, self.max_inner_steps)
        )
