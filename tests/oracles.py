"""Test oracles: checks the tests hold the library to, which the library does not ship.

``validate_constants`` is the falsification oracle for operator constants:
sampling can only falsify a declared constant, never certify it, so the
library states its constants exactly (``operators.catalog_constants``) and the
tests hold them to this sampler.

``dense_q`` and ``in_x`` give a basis Q, and an instance with one, as dense matrices in x,
built from products with Q only, for tests that hold the diagonal form in Q's
coordinates to a dense LU path.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from hmsolve import operators as ops


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


def resolvent_lipschitz_bound(constants, lam):
    """Lipschitz constant 1/(gamma + lam*eta) of the resolvent."""
    if not lam > 0:
        raise ValueError("lam must be strictly positive")
    return 1.0 / (constants.gamma + lam * constants.eta)


def inclusion_residual(engine, x, u):
    """Norm of H(x) + lam*m(x) - u for the selection m(x) in M(x) that witnesses it.

    At a zero coordinate of a subdifferential part the selection is the
    clipped value forced by the inclusion, making the residual exact.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    hx = engine.h.apply(x)
    if isinstance(engine.m, ops.ShiftedSubdifferential):
        c = engine.m.shift
        sub = np.where(x != 0.0, np.sign(x), np.clip((u - hx) / engine.lam - c * x, -1.0, 1.0))
        m = c * x + sub
    else:
        m = engine.m.selection(x)
    return float(np.linalg.norm(hx + engine.lam * m - u))


def dense_q(basis):
    """The n x n Q of a basis object, from its products alone: Q @ I."""
    return basis @ np.eye(basis.shape[0])


def in_x(problem):
    """The same instance with dense H and A acting on x and no basis: W = Q diag(w) Q^T, b_A = Q b_y.

    M is m*I, the same in every orthogonal basis, and the constants and x* carry over.
    """
    q = dense_q(problem.basis)

    def dense(op):  # symmetrised, as an LU oracle expects an SPD H
        mat = (q * op.weight) @ q.T
        return (mat + mat.T) / 2.0

    h = ops.AffineLinear(dense(problem.h))
    a = ops.AffineLinear(dense(problem.a), q @ problem.a.offset)
    return replace(problem, h=h, a=a, basis=None)
