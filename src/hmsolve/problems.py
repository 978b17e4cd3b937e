"""Benchmark problem generators with exact constants and known solutions.

Each generator returns a ProblemInstance whose constants are the exact ones
that ``catalog_constants`` reads off its operators, and whose known_solution
solves the inclusion 0 in A(x) + M(x) in closed form.
"""

import functools

import numpy as np
from scipy.linalg import lapack

from .operators import (
    AffineLinear,
    ScaledIdentity,
    ShiftedSubdifferential,
    catalog_constants,
)
from .schemes import ProblemInstance

__all__ = ["gen_scalar_affine", "gen_spd_linear", "gen_soft_threshold", "ReflectorBasis"]


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
        metadata={"kind": "scalar-affine", "b": float(b)},
    )


def _in_place(routine, *args, lwork=None, overwrite="a"):
    """Run the LAPACK ``routine`` in place on its F-ordered float64 argument ``overwrite``; its outputs without info.

    ``lwork`` None takes the optimal workspace from a query: scipy's default is
    the unblocked minimum, ~3x slower for ``dorgqr`` at n = 1000.
    """
    flags = {"overwrite_" + overwrite: 1}
    if lwork is None:
        lwork = int(routine(*args, lwork=-1, **flags)[-2][0])
    *out, info = routine(*args, lwork=lwork, **flags)
    if info != 0:
        raise np.linalg.LinAlgError("%s failed with info %d" % (routine.__name__, info))
    return out


class ReflectorBasis:
    """An orthogonal n x n Q held as Householder reflectors, never as a matrix.

    Q = Q_r diag(s): Q_r is the product of the reflectors stored as LAPACK's QR
    routines store them (Golub and Van Loan, ch. 5), each below the diagonal of
    its column of the F-ordered buffer ``qr`` with its scalar in ``tau``, and s
    holds n signs. ``Q @ v`` and ``Q.T @ v``, for a vector or an n x k matrix
    v, are each one unblocked ``dormqr``, with the signs as exact flips: Q v =
    Q_r (s*v) and Q^T v = s*(Q_r^T v). ``numpy.asarray(Q)`` is the dense Q,
    read-only and C-ordered, built once on first read by ``dorgqr`` on a copy of
    the buffer. ``dormqr`` may write into the buffer and restore it, so one basis
    is not for products from several threads at once.
    """

    __array_ufunc__ = None  # ndarray @ Q, and any ufunc on Q, raise TypeError rather than build Q

    def __init__(self, qr, tau, signs):
        for a in (qr, tau, signs):
            a.setflags(write=False)
        self._qr, self._tau, self._signs = qr, tau, signs
        self.shape = qr.shape

    @property
    def T(self):
        # a new view each time: a cached one would make a reference cycle, which keeps the
        # n x n buffer alive after its instance until the cyclic collector runs
        return _Transposed(self)

    def _product(self, trans, c):
        """Q_r c (``trans`` b"N") or Q_r^T c (b"T"), overwriting c: a new n-vector or F-ordered n x k matrix."""
        block = c.reshape(self.shape[0], -1, order="F")
        # hmsolve multiplies vectors only, where the unblocked code wins: 0.5 against 1.6 ms at n = 1000
        out = _in_place(lapack.dormqr, b"L", trans, self._qr, self._tau, block, lwork=block.shape[1], overwrite="c")
        return out[0].reshape(c.shape, order="F")

    def __matmul__(self, v):
        return self._product(b"N", np.multiply(np.asarray(v, dtype=float).T, self._signs).T)

    @functools.cached_property
    def _dense(self):
        q = np.ascontiguousarray(_in_place(lapack.dorgqr, self._qr.copy(order="F"), self._tau)[0])
        q *= self._signs
        q.setflags(write=False)
        return q

    def __array__(self, dtype=None, copy=None):
        return np.array(self._dense, dtype=dtype, copy=copy)


class _Transposed:
    """Q^T of a ``ReflectorBasis`` Q: ``Q.T @ v``, and Q again as ``.T``."""

    __array_ufunc__ = None

    def __init__(self, basis):
        self.T, self.shape = basis, basis.shape

    def __matmul__(self, v):
        out = self.T._product(b"T", np.array(v, dtype=float, order="F"))
        np.multiply(out.T, self.T._signs, out=out.T)
        return out

    def __array__(self, dtype=None, copy=None):
        return np.array(np.asarray(self.T).T, dtype=dtype, copy=copy)


def _random_orthogonal(dim, rng):
    # Haar Q as n - 1 random Householder reflectors (Stewart, SIAM J. Numer. Anal.
    # 17 (1980) 403-409): column j of the one F-ordered buffer gets n - j fresh
    # normals, and ``dlarfg`` turns them in place into beta on the diagonal, the
    # reflector below it and tau_j, as ``dgeqrf`` does per column, with O(n^2)
    # work in all. The law is that of the sign-fixed QR factor of a Gaussian
    # matrix (Mezzadri 2007): a QR's trailing update leaves an iid Gaussian block,
    # independent of the reflectors already formed (orthogonal invariance), so
    # its reflectors are those of independent Gaussian columns. The last column
    # gets no reflector (tau = 0), as in ``dgeqrf``, and the signs of the betas
    # make Q diag(s) Haar; H, A, T, c and x* do not depend on them bit for bit,
    # since each sign multiplies both factors of every product.
    qr, tau = np.zeros((dim, dim), order="F"), np.zeros(dim)
    for j in range(dim):
        column = rng.standard_normal(out=qr[j:, j])
        if j < dim - 1:
            column[0], _, tau[j] = lapack.dlarfg(dim - j, column[0], column[1:], overwrite_x=1)
    return ReflectorBasis(qr, tau, np.sign(np.diag(qr)))


def gen_spd_linear(dim=50, eigen_range=(1.0, 1.2), seed=0, c_a=1.0, m=1.0,
                   b_scale=1.0, lam=0.6):
    """SPD instance with known spectrum and A tied affinely to H.

    H is a seeded random orthogonal conjugation of a linspace spectrum, so
    gamma and tau are its exact extreme eigenvalues. A(x) = c_a*H x - b ties
    A to H, making the cross-operator constant exact: with d = x - y,
    <A x - A y, H x - H y> = c_a ||H d||^2 >= c_a gamma^2 ||d||^2, so
    r = c_a*gamma^2 and s = c_a*tau. M = m*I gives eta = m. H and A are
    given as eigenpairs on the one basis Q, and Q is a ``ReflectorBasis``:
    n - 1 Householder reflectors drawn from the seed in place by ``dlarfg``,
    in O(n^2) work with no QR, a Haar-distributed Q (Stewart 1980), each
    product with Q or Q^T one ``dormqr``. So the reflectors' buffer is the one
    n x n array built here: a dense Q, H or A is formed (by ``dorgqr``) only
    when something reads it. A seed names a different Q and b than in
    versions that took Q from the QR of a Gaussian matrix; the spectrum, the
    constants and the law of Q are the same. The solution of
    (c_a*H + m*I) x = b is Q((Q^T b) / (c_a*h + m)) for H's spectrum h.
    """
    lo, hi = float(eigen_range[0]), float(eigen_range[1])
    if not (0 < lo <= hi) or dim < 1:
        raise ValueError("eigen_range must lie in (0, inf) with lo <= hi, dim >= 1")
    rng = np.random.default_rng(seed)
    q = _random_orthogonal(dim, rng)
    spectrum = np.linspace(lo, hi, dim) if dim > 1 else np.array([lo])
    b = b_scale * rng.standard_normal(dim)

    h = AffineLinear(eigenpair=(q, spectrum))
    a = AffineLinear(offset=b, eigenpair=(q, c_a * spectrum))
    mm = ScaledIdentity(m)
    xstar = q @ ((q.T @ b) / (c_a * spectrum + m))
    return ProblemInstance(
        h=h, a=a, m=mm, constants=catalog_constants(h, a, mm), lam=lam, dim=dim,
        known_solution=xstar,
        metadata={
            "kind": "spd-linear",
            "eigen_range": (lo, hi),
            "seed": int(seed),
            "c_a": float(c_a),
            "m": float(m),
            "coupling": "A = c_a*H - b, hence r = c_a*gamma^2 and s = c_a*tau",
        },
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
        metadata={"kind": "soft-threshold", "c": float(c), "seed": int(seed)},
    )
