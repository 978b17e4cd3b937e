"""Problem builders, one ``gen_<kind>`` for each problem kind of the CLI.

Each generator but ``gen_explicit``, which takes operators and declared
constants inline, returns a ProblemInstance with the exact constants of
``catalog_constants`` and a known_solution of 0 in A(x) + M(x) in closed form.
``gen_spd_linear``'s operators act on y = Q^T x for its ``basis`` Q; x* is in x.
"""

import numpy as np

from .operators import (
    _CONSISTENCY_TOL,
    AffineLinear,
    InconsistentConstantsError,
    OperatorConstants,
    ScaledIdentity,
    ShiftedSubdifferential,
    catalog_constants,
)
from .schemes import ProblemInstance

__all__ = ["gen_scalar_affine", "gen_spd_linear", "gen_soft_threshold", "gen_explicit", "ReflectorBasis"]


def gen_scalar_affine(b=2.0, lam=1.0):
    """Scalar instance: H = I, A(u) = u - b, M = I; solution b/2.

    The inclusion 0 = (x - b) + x pins the solution at b/2, and all five
    constants equal one.
    """
    h = ScaledIdentity(1.0)
    a = AffineLinear(1.0, np.array([float(b)]))
    m = ScaledIdentity(1.0)
    return ProblemInstance(
        h=h, a=a, m=m, constants=catalog_constants(h, a, m), lam=lam, dim=1,
        known_solution=np.array([float(b) / 2.0]),
    )


#: Q's number of reflectors k: O(kn) work and memory for Q and for each product with it
_REFLECTORS = 3


class ReflectorBasis:
    """An orthogonal n x n Q = H_1 ... H_k held as its reflectors H_i = I - 2 v_i v_i^T, never as a matrix.

    Each v_i is a unit row of the k x n array ``v`` (Golub and Van Loan, ch. 5). ``Q @ V``, for a
    vector or an n x m matrix V, takes k rank-one updates of a copy of V, O(knm) work. Each
    H_i is symmetric, so ``Q.T`` is the basis of the same rows in reverse order.
    """

    __array_ufunc__ = None  # ndarray @ Q, and any ufunc on Q, raise TypeError

    def __init__(self, v):
        v.setflags(write=False)
        self._v = v
        self.shape = (v.shape[1], v.shape[1])

    @property
    def T(self):
        return ReflectorBasis(self._v[::-1])

    def __matmul__(self, x):
        out = np.array(x, dtype=float)
        for v in self._v[::-1]:  # H_k acts first
            out -= np.multiply.outer(v, 2.0 * (v @ out))
        return out


def gen_spd_linear(dim=50, eigen_range=(1.0, 1.2), seed=0, c_a=1.0, m=1.0,
                   b_scale=1.0, lam=0.6):
    """SPD instance with known spectrum and A tied affinely to H.

    H is a seeded random orthogonal conjugation of a linspace spectrum, so
    gamma and tau are its exact extreme eigenvalues. A(x) = c_a*H x - b ties
    A to H, making the cross-operator constant exact: with d = x - y,
    <A x - A y, H x - H y> = c_a ||H d||^2 >= c_a gamma^2 ||d||^2, so
    r = c_a*gamma^2 and s = c_a*tau. M = m*I gives eta = m. The instance's
    ``basis`` is Q, a ``ReflectorBasis`` of ``_REFLECTORS`` unit vectors drawn
    from the seed before b, and its operators act on y = Q^T x: H = diag(h)
    for the spectrum h, A(y) = c_a*h*y - Q^T b, so no n x n array is built.
    The solution of (c_a*H + m*I) x = b is Q((Q^T b) / (c_a*h + m)).
    Generation takes 4 products with Q: Q^T b, x* and the basis probe's 2.
    """
    lo, hi = float(eigen_range[0]), float(eigen_range[1])
    if not (0 < lo <= hi) or dim < 1:
        raise ValueError("eigen_range must lie in (0, inf) with lo <= hi, dim >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((_REFLECTORS, dim))
    q = ReflectorBasis(v / np.linalg.norm(v, axis=1, keepdims=True))
    spectrum = np.linspace(lo, hi, dim)
    qb = q.T @ (b_scale * rng.standard_normal(dim))

    h = AffineLinear(spectrum)
    a = AffineLinear(c_a * spectrum, qb)
    mm = ScaledIdentity(m)
    xstar = q @ (qb / (c_a * spectrum + m))
    return ProblemInstance(
        h=h, a=a, m=mm, constants=catalog_constants(h, a, mm), lam=lam, dim=dim,
        known_solution=xstar, basis=q,
    )


def gen_soft_threshold(dim=50, c=1.0, b=None, lam=0.5, seed=0):
    """Genuinely multivalued instance: H = I, A(u) = u - b, M(u) = c*u + d|u|.

    Per coordinate the inclusion 0 in (x - b_i) + c*x + d|x| has the closed
    form x_i = softthreshold(b_i, 1)/(1 + c). ``b`` may be a scalar, a
    vector, or None (a seeded uniform draw on [-3, 3]).
    """
    if not c > 0:
        raise ValueError("c must be strictly positive")
    if b is None:
        rng = np.random.default_rng(seed)
        b_vec = rng.uniform(-3.0, 3.0, dim)
    else:
        b_vec = np.broadcast_to(np.asarray(b, dtype=float), (dim,)).copy()
    h = ScaledIdentity(1.0)
    a = AffineLinear(1.0, b_vec)
    m = ShiftedSubdifferential(c)
    xstar = np.sign(b_vec) * np.maximum(np.abs(b_vec) - 1.0, 0.0) / (1.0 + c)
    return ProblemInstance(
        h=h, a=a, m=m, constants=catalog_constants(h, a, m), lam=lam, dim=dim,
        known_solution=xstar,
    )


def _operator_from_dict(key, d, multivalued=False):
    if not isinstance(d, dict):
        raise ValueError("explicit problem key %r must be an operator object, got %r" % (key, d))
    kind = d["kind"]
    if kind == "scaled-identity":
        return ScaledIdentity(d["scale"])
    if multivalued and kind == "shifted-subdifferential":
        return ShiftedSubdifferential(d["shift"])
    if not multivalued and kind == "affine":
        return AffineLinear(np.atleast_2d(np.asarray(d["matrix"], float)), d.get("offset"))
    raise ValueError("unknown %soperator kind %r" % ("multivalued " if multivalued else "", kind))


#: (constant, the inequality it states, +1 if it bounds from below, -1 if from above)
_INEQUALITIES = (("tau", "h_lipschitz", -1), ("gamma", "h_strong_monotone", 1),
                 ("s", "a_lipschitz", -1), ("r", "a_strong_monotone_wrt_h", 1),
                 ("eta", "m_strong_monotone", 1))


def gen_explicit(dim, h, a, m, constants, lam=1.0, known_solution=None):
    """A ProblemInstance from operators and constants given inline.

    Each declared constant is held against the exact one of ``catalog_constants``:
    gamma, r and eta may not exceed it and tau and s may not fall below it, to a
    relative ``_CONSISTENCY_TOL``; else the constants are inconsistent.
    """
    inst = ProblemInstance(
        h=_operator_from_dict("h", h), a=_operator_from_dict("a", a),
        m=_operator_from_dict("m", m, multivalued=True),
        constants=OperatorConstants(**constants), lam=float(lam), dim=int(dim),
        known_solution=known_solution,
    )
    exact = catalog_constants(inst.h, inst.a, inst.m)
    for name, inequality, side in _INEQUALITIES:
        declared, best = getattr(inst.constants, name), getattr(exact, name)
        if not side * (declared - best) <= _CONSISTENCY_TOL * best:
            raise InconsistentConstantsError("declared %s = %.6g fails %s: the exact %s is %.6g"
                                             % (name, declared, inequality, name, best))
    return inst
