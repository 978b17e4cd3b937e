"""Benchmark problem generators with exact constants and known solutions.

Each generator returns a ProblemInstance whose declared constants are
analytically exact for its operators and whose known_solution solves the
inclusion 0 in A(x) + M(x) in closed form.
"""

import numpy as np
from scipy.linalg import lapack

from .operators import (
    AffineLinear,
    OperatorConstants,
    ScaledIdentity,
    ScaledIdentityMulti,
    ShiftedSubdifferential,
)
from .schemes import ProblemInstance

__all__ = ["gen_scalar_affine", "gen_spd_linear", "gen_soft_threshold"]


def gen_scalar_affine(b=2.0, lam=1.0):
    """Scalar instance: H = I, A(u) = u - b, M = I; solution b/2.

    The inclusion 0 = (x - b) + x pins the solution at b/2, and all five
    constants equal one.
    """
    h = ScaledIdentity(1.0)
    a = AffineLinear(1.0, np.array([float(b)]))
    m = ScaledIdentityMulti(1.0)
    constants = OperatorConstants(1.0, 1.0, 1.0, 1.0, 1.0)
    return ProblemInstance(
        h=h, a=a, m=m, constants=constants, lam=lam, dim=1,
        known_solution=np.array([float(b) / 2.0]),
        metadata={"kind": "scalar-affine", "b": float(b)},
    )


def _in_place(routine, a, *args):
    """Run the LAPACK ``routine`` in place on the F-ordered float64 ``a``; its outputs without info."""
    # scipy's default lwork is the unblocked minimum: ~3x slower at n = 1000
    lwork = int(routine(a, *args, lwork=-1, overwrite_a=1)[-2][0])
    *out, info = routine(a, *args, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError("%s failed with info %d" % (routine.__name__, info))
    return out


def _random_orthogonal(dim, rng):
    # Q of G = QR for a Gaussian G, its columns times the signs of diag(R)
    # (Mezzadri 2007): those signs make Q Haar-distributed, the seed makes it
    # reproducible, and H, A, T, c and x* do not depend on them bit for bit,
    # since each sign multiplies both factors of every product. One F-ordered
    # buffer holds G, then R and the reflectors, then Q; Q is returned C-ordered.
    qr, tau = _in_place(lapack.dgeqrf, np.asfortranarray(rng.standard_normal((dim, dim))))[:2]
    signs = np.sign(np.diag(qr))
    q = np.ascontiguousarray(_in_place(lapack.dorgqr, qr, tau)[0])
    q *= signs
    return q


def gen_spd_linear(dim=50, eigen_range=(1.0, 1.2), seed=0, c_a=1.0, m=1.0,
                   b_scale=1.0, lam=0.6):
    """SPD instance with known spectrum and A tied affinely to H.

    H is a seeded random orthogonal conjugation of a linspace spectrum, so
    gamma and tau are its exact extreme eigenvalues. A(x) = c_a*H x - b ties
    A to H, making the cross-operator constant exact: with d = x - y,
    <A x - A y, H x - H y> = c_a ||H d||^2 >= c_a gamma^2 ||d||^2, so
    r = c_a*gamma^2 and s = c_a*tau. M = m*I gives eta = m. H and A are
    given as eigenpairs on the one basis Q, so no n x n matrix but Q is built
    here: a dense H or A is formed only when something reads its ``matrix``.
    Q is drawn by one in-place LAPACK QR (``dgeqrf`` then ``dorgqr``) of a
    seeded Gaussian matrix; each seed gives the same instance as the
    sign-fixed ``numpy.linalg.qr`` factor of that draw.
    The solution of (c_a*H + m*I) x = b is Q((Q^T b) / (c_a*h + m)) for H's
    spectrum h.
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
    mm = ScaledIdentityMulti(m)
    tau = hi if dim > 1 else lo
    constants = OperatorConstants(
        gamma=lo, tau=tau, r=c_a * lo * lo, s=c_a * tau, eta=m
    )
    xstar = q @ ((q.T @ b) / (c_a * spectrum + m))
    return ProblemInstance(
        h=h, a=a, m=mm, constants=constants, lam=lam, dim=dim,
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
    constants = OperatorConstants(1.0, 1.0, 1.0, 1.0, float(c))
    xstar = np.sign(b_vec) * np.maximum(np.abs(b_vec) - 1.0, 0.0) / (1.0 + c)
    return ProblemInstance(
        h=h, a=a, m=m, constants=constants, lam=lam, dim=dim,
        known_solution=xstar,
        metadata={"kind": "soft-threshold", "c": float(c), "seed": int(seed)},
    )
