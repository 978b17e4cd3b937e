"""Test oracles: checks the tests hold the library to, which the library does not ship.

``validate_constants`` is the falsification oracle for operator constants:
sampling can only falsify a declared constant, never certify it, so the
library states its constants exactly (``operators.catalog_constants``) and the
tests hold them to this sampler.

``dense_q`` and ``in_x`` give a basis Q, and an instance with one, as dense matrices in x,
built from products with Q only, for tests that hold the diagonal form in Q's
coordinates to a dense LU path.

``plain_run_scheme`` is the relaxed two-step loop in its plain form, the reference
that ``schemes.run_scheme`` is held to bit for bit.

``per_term_envelope`` is ``analysis.envelope`` with each step term taken by one
``StepSequence.value`` call, the reference that the step table ``analysis._steps``
is held to bit for bit.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from hmsolve import operators as ops
from hmsolve.schemes import IterationTrace, StoppingRule, as_vector, casting, vector_norm


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


def plain_run_scheme(name, problem, x0, xi=None, mu=None, stop=None, keep_iterates=True):
    """The relaxed two-step loop of ``schemes.run_scheme`` in its plain form, the reference it is held to.

    Each step builds every linear combination in fresh temporaries and scans the new iterate with
    ``np.isfinite(...).all()``; errors[n] is taken once y_(n+1) is known finite. ``run_scheme`` must
    give the same trace bit for bit and hand G the same inputs.
    """
    name = name.upper()
    xi, mu = casting(name, xi, mu)
    stop = stop or StoppingRule()
    x = np.asarray(as_vector(x0), dtype=float)
    if x.shape[0] == 1 and problem.dim > 1:
        x = np.full(problem.dim, x[0])
    if x.shape[0] != problem.dim:
        raise ValueError("start dimension mismatch")
    kappa = problem.contraction_factor()
    xstar = problem.known_solution
    basis, g = problem.coordinates()
    ystar = None if xstar is None else problem._solution_coordinates
    start = time.perf_counter_ns()

    y = x if basis is None or not x.any() else basis.T @ x  # Q^T 0 = 0: a zero start needs no product
    gy = g(y)
    ys = [y] if keep_iterates else None
    residuals = [vector_norm(gy - y)]
    errors = None if xstar is None else []
    wall = [time.perf_counter_ns() - start]

    n = 0
    diverged = False
    # "not <=" keeps a NaN residual going, into the non-finite iterate check
    while not residuals[-1] <= stop.tol and n < stop.max_steps:
        xi_n, mu_n = xi.value(n), mu.value(n)
        gr = gy if mu_n == 0.0 else g((1.0 - mu_n) * y + mu_n * gy)
        y_next = gr if xi_n == 1.0 else (1.0 - xi_n) * y + xi_n * gr
        diverged = not np.isfinite(y_next).all()
        if diverged:
            break
        if errors is not None:
            errors.append(vector_norm(y - ystar))
        y, gy = y_next, g(y_next)
        if keep_iterates:
            ys.append(y)
        residuals.append(vector_norm(gy - y))
        wall.append(time.perf_counter_ns() - start)
        n += 1

    x = y if basis is None else basis @ y
    if errors is not None:
        errors.append(vector_norm(x - xstar))
    return IterationTrace(
        algorithm=name,
        iterates=[x],
        residuals=residuals,
        errors=errors,
        wall_nanos=wall,
        steps_used=n,
        converged=residuals[-1] <= stop.tol,
        kappa=kappa,
        solution_norm=None if xstar is None else float(np.linalg.norm(xstar)),
        diverged=diverged,
        coordinates=ys,
    )


def _terms(seq, n):
    """The first n terms of the step sequence ``seq``, as an array."""
    return np.array([seq.value(k) for k in range(n)], dtype=float)


def per_term_envelope(scheme, kappa, xi, mu, e0, n):
    """``analysis.envelope`` as it was before the step table: its terms built one ``value`` call at a time."""
    if not 0.0 <= kappa < 1.0:
        raise ValueError("kappa must lie in [0, 1)")
    if e0 < 0:
        raise ValueError("e0 must be nonnegative")
    xi, mu = casting(scheme, xi, mu)
    xis, mus = _terms(xi, n), _terms(mu, n)
    factors = (1.0 - xis) + xis * (kappa * (1.0 - mus * (1.0 - kappa)))
    return e0 * np.concatenate(([1.0], np.cumprod(factors)))
