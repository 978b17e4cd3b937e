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

``exact_kappa``, ``exact_optimal_lambda`` and ``exact_feasible_lambda`` are the closed forms
of ``analysis`` in exact rationals, and ``kappa_cancellation_rounding`` what rounding may cost
kappa where its radicand cancels. Below them, the toolkit every test file shares: Hypothesis
strategies, the nonlinear H ``tanh_h``, the call recorder ``recorded`` and ``traced_peak``.
"""

import fractions
import functools
import math
import time
import tracemalloc
from dataclasses import dataclass, field, replace

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from hmsolve import operators as ops
from hmsolve.analysis import contraction_factor
from hmsolve.schemes import IterationTrace, StoppingRule, as_vector, casting, make_step_sequence, vector_norm


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
    kappa = contraction_factor(problem.constants, problem.lam)
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
        casting=(xi, mu),
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


def _sqrt(x):
    """The square root of a nonnegative Fraction, to far below one rounding of a float."""
    bits = 400 + x.denominator.bit_length()
    return fractions.Fraction(math.isqrt(int(x * 4 ** bits)), 2 ** bits)


def _rounded(x):
    """A nonnegative Fraction rounded once to a float, inf past the largest one."""
    return float(x) if x <= np.finfo(float).max else math.inf


def exact_kappa(c, lam):
    """kappa at lam from exact rationals, rounded once."""
    q, lam = fractions.Fraction, fractions.Fraction(lam)
    radicand = q(c.tau) ** 2 - 2 * lam * q(c.r) + lam ** 2 * q(c.s) ** 2
    return _rounded(_sqrt(max(radicand, q(0)) / (q(c.gamma) + lam * q(c.eta)) ** 2))


def kappa_cancellation_rounding(c, lam):
    """What the rounding of kappa's radicand R = tau^2 - 2*lam*r + lam^2*s^2 may cost kappa beyond 4 ulps.

    R's seven roundings move it by about 3.5*eps times its terms' sum, R + 4*lam*r: 4*ulp(kappa) holds the share
    of R, and err = 16*eps*lam*r bounds the share of the terms that cancel. Carried through the square root, err
    moves kappa by (sqrt(R + err) - sqrt(max(R - err, 0)))/(gamma + lam*eta) at most: next to nothing where
    2*lam*r is small beside R, and sqrt(err)/(gamma + lam*eta) where R cancels to 0. From exact rationals.
    """
    q, lam = fractions.Fraction, fractions.Fraction(lam)
    radicand = max(q(c.tau) ** 2 - 2 * lam * q(c.r) + lam ** 2 * q(c.s) ** 2, q(0))
    err = 16 * q(np.finfo(float).eps) * lam * q(c.r)
    return _rounded((_sqrt(radicand + err) - _sqrt(max(radicand - err, q(0)))) / (q(c.gamma) + lam * q(c.eta)))


def exact_optimal_lambda(c):
    """lam* = (r*gamma + eta*tau^2)/(s^2*gamma + r*eta) from exact rationals, rounded once."""
    q = fractions.Fraction
    return float((q(c.r) * q(c.gamma) + q(c.eta) * q(c.tau) ** 2) / (q(c.s) ** 2 * q(c.gamma) + q(c.r) * q(c.eta)))


def exact_feasible_lambda(c):
    """``feasible_lambda``'s interval from exact rationals, each end rounded once (inf past the largest float)."""
    q = fractions.Fraction
    denom, num = q(c.s) ** 2 - q(c.eta) ** 2, q(c.r) + q(c.gamma) * q(c.eta)
    disc = num ** 2 - denom * (q(c.tau) ** 2 - q(c.gamma) ** 2)
    if denom <= 0 or disc <= 0:
        return None
    root = _sqrt(disc)
    return _rounded(max(q(0), (num - root) / denom)), _rounded((num + root) / denom)


_STEP = st.floats(min_value=0.0, max_value=1.0)

#: step sequences of all four families; a table of up to 8 entries may end in 0, making its sum
#: finite, or in 1
sequences = st.one_of(
    _STEP.map(lambda v: make_step_sequence("constant", value=v)),
    st.integers(1, 5).map(lambda k: make_step_sequence("harmonic", offset=k)),
    st.integers(1, 5).map(lambda k: make_step_sequence("one-minus-harmonic", offset=k)),
    st.tuples(st.lists(_STEP, min_size=1, max_size=8), st.sampled_from([[], [0.0], [1.0]])).map(
        lambda t: make_step_sequence("custom-table", table=t[0] + t[1])),
)


def _consistent_constants(gamma, tau_extra, r, s_scale, eta):
    tau = gamma + tau_extra
    s = s_scale * max(r / tau, 1e-3)
    return ops.OperatorConstants(gamma=gamma, tau=tau, r=min(r, s * tau), s=s, eta=eta)


#: consistent constants of order one
constants = st.builds(
    _consistent_constants,
    gamma=st.floats(min_value=0.1, max_value=2.0),
    tau_extra=st.floats(min_value=0.0, max_value=2.0),
    r=st.floats(min_value=0.1, max_value=2.0),
    s_scale=st.floats(min_value=1.0, max_value=3.0),
    eta=st.floats(min_value=0.1, max_value=2.0),
)

#: a positive normal float, log-uniform across the float exponents
positive = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1021, 1024))


@st.composite
def scale_free_constants(draw):
    """Constants each drawn by ``positive``, consistent by construction: gamma <= tau and r/s <= tau."""
    gamma, tau, s, r, eta = (draw(positive) for _ in range(5))
    gamma, tau = sorted((gamma, tau))
    r = min(r, s * tau)
    assume(0.0 < r and r / s <= tau)  # s*tau may underflow to 0, or as a subnormal round far above s times tau
    return ops.OperatorConstants(gamma=gamma, tau=tau, r=r, s=s, eta=eta)


@st.composite
def triples(draw):
    """(H, A, M, seed) from the catalog, with random offsets on H and A.

    H is a scalar, a positive vector or a matrix whose symmetric part is positive definite,
    symmetric or not; A a scalar, a positive multiple of H or W_H^-T P for such a matrix P, so
    that W_H^T W_A = P; M a scalar, a positive vector, such a matrix or, when H is diagonal, a
    subdifferential.
    """
    dim = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    scale = st.floats(min_value=0.2, max_value=3.0)

    def matrix(skews):  # Q diag(w) Q^T plus a skew part, which leaves the symmetric part alone
        q, g = np.linalg.qr(rng.standard_normal((dim, dim)))[0], rng.standard_normal((dim, dim))
        w = (q * rng.uniform(0.2, 3.0, dim)) @ q.T
        return (w + w.T) / 2.0 + draw(st.sampled_from(skews)) * (g - g.T)

    def pick(**kinds):
        return kinds[draw(st.sampled_from(sorted(kinds)))]()

    h = ops.AffineLinear(pick(scalar=lambda: draw(scale), vector=lambda: rng.uniform(0.2, 3.0, dim),
                              matrix=lambda: matrix([0.0, 0.5, 2.0])), rng.standard_normal(dim))
    w_h = h.weight * np.eye(dim) if h.matrix is None else h.matrix
    a = ops.AffineLinear(pick(scalar=lambda: draw(scale), multiple=lambda: draw(scale) * h.weight,
                              inverse=lambda: np.linalg.solve(w_h.T, matrix([0.0, 1.0]))),
                         rng.standard_normal(dim))
    m = pick(scalar=lambda: ops.ScaledIdentity(draw(scale)), matrix=lambda: ops.AffineLinear(matrix([0.0, 1.0])),
             vector=lambda: ops.AffineLinear(rng.uniform(0.2, 3.0, dim)),
             **({} if h.matrix is not None else {"subdifferential": lambda: ops.ShiftedSubdifferential(draw(scale))}))
    return h, a, m, seed


def tanh_h(a):
    """H(t) = t + a*tanh(t) per coordinate, with f' = 1 + a*sech(t)^2 in [1, 1 + a]; sech^2 is taken
    as 1 - tanh^2, which overflows at no t."""
    return ops.DiagonalNonlinear(lambda t: t + a * np.tanh(t), lambda t: 1 + a * (1 - np.tanh(t) ** 2), (1, 1 + a))


def recorded(monkeypatch, owner, name):
    """Wrap ``owner.<name>`` for the test: the returned list gets each call's result, its length the call count."""
    results, wrapped = [], getattr(owner, name)

    @functools.wraps(wrapped)
    def recording(*args, **kwargs):
        results.append(wrapped(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, recording)
    return results


def traced_peak(call):
    """(call(), the peak of the memory that tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
