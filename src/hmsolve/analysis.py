"""Quantitative theory: contraction factor, feasibility, envelopes, rates, audits.

Everything here is a pure function of immutable inputs. The contraction factor kappa = sqrt(tau^2 - 2*lam*r +
lam^2*s^2) / (gamma + lam*eta) drives all of it: when s > eta, the feasible-lam interval is exactly the set where
kappa < 1, and kappa's minimiser lam* has a closed form. kappa and lam* are taken over powers of two, exact
scalings, so that no term leaves the float range. The error envelope of each scheme is the product of the per-step
bounds of its (xi, mu) casting, and ``check_envelope`` checks a run against it; the rate comparison classifies the
ratio of measured error sequences; and the equivalence audit pairs two runs by the castings they record: a relaxed
run q with an unrelaxed run s (xi = 1) of the same mu. Both bounds read ``_steps``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .operators import _CONSISTENCY_TOL, InconsistentConstantsError
from .resolvent import ResolventEngine
from .schemes import ONE, vector_norm

__all__ = [
    "contraction_factor",
    "feasible_lambda",
    "optimal_lambda",
    "envelope",
    "check_envelope",
    "RateReport",
    "rate_compare",
    "AuditReport",
    "equivalence_audit",
    "DEFAULT_AUDIT_SLACK",
]

#: absolute slack for inequality audits on converged runs; the second term
#: accounts for inexact resolvents
DEFAULT_AUDIT_SLACK = 1e-8 + 10.0 * ResolventEngine.inner_tolerance


def contraction_factor(constants, lam):
    """kappa = sqrt(tau^2 - 2*lam*r + lam^2*s^2) / (gamma + lam*eta), taken over powers of two."""
    if not lam > 0:
        raise ValueError("lam must be strictly positive")
    c, frexp, ldexp = constants, math.frexp, math.ldexp
    (tau, kt), (r, kr), (s, ks), (gamma, kg), (eta, ke), (lam, kl) = map(frexp, (c.tau, c.r, c.s, c.gamma, c.eta, lam))
    # mantissas times 2^k: the numerator over 2^e > max(tau, lam*s), the denominator over 2^f > max(gamma, lam*eta)
    e, f = max(kt, kl + ks), max(kg, kl + ke)
    tau2 = ldexp(tau * tau, 2 * (kt - e))
    radicand = tau2 - ldexp(2.0 * lam * r, kl + kr - 2 * e) + ldexp(lam * lam * s * s, 2 * (kl + ks - e))
    # OperatorConstants' r/s <= tau*(1 + delta) keeps it >= -tau^2*(2*delta + delta^2), less a few ulps of tau^2
    if radicand < -tau2 * ((2.0 + _CONSISTENCY_TOL) * _CONSISTENCY_TOL + 1e-14):
        raise InconsistentConstantsError("negative radicand %g * 4^%d in contraction factor" % (radicand, e))
    try:
        return ldexp(math.sqrt(max(radicand, 0.0)) / (ldexp(gamma, kg - f) + ldexp(lam * eta, kl + ke - f)), e - f)
    except OverflowError:  # kappa past the largest float
        return math.inf


def feasible_lambda(constants):
    """The open interval (lo, hi) of lam with kappa < 1, or None.

    lo and hi are center -/+ radius with center = (r + gamma*eta)/(s^2 - eta^2)
    and radius = sqrt(disc)/(s^2 - eta^2), lo clipped at 0. None when s <= eta,
    where the formula does not apply (``optimal_lambda`` covers that regime),
    or when disc = (r + gamma*eta)^2 - (s^2 - eta^2)(tau^2 - gamma^2) <= 0,
    where no lam gives kappa < 1, or when the ends round to one float.
    """
    c = constants
    if c.s <= c.eta:
        return None
    # tau, gamma in units of 2^a, s, eta of 2^b and r of 2^(a+b), putting tau and s in [1/2, 1): no term passes 4
    (tau, a), (s, b) = math.frexp(c.tau), math.frexp(c.s)
    gamma, eta, r = math.ldexp(c.gamma, -a), math.ldexp(c.eta, -b), math.ldexp(c.r, -a - b)
    denom, num = s * s - eta * eta, r + gamma * eta
    disc = num * num - denom * (tau * tau - gamma * gamma)
    if disc <= 0:
        return None
    center, radius = num / denom, math.sqrt(disc) / denom
    with np.errstate(over="ignore"):  # lam is 2^(a-b) times lam in these units; an end past the largest float, inf
        lo, hi = np.ldexp([max(0.0, center - radius), center + radius], a - b).tolist()
    return (lo, hi) if lo < hi else None


def optimal_lambda(constants):
    """The kappa-minimising lam* = (r*gamma + eta*tau^2)/(s^2*gamma + r*eta), clamped to the positive floats.

    Returns (lam*, kappa(lam*)). The lam^2 terms cancel in d(kappa^2)/d(lam) = 0,
    so lam* is the only stationary point on lam > 0, and kappa falls before it
    and rises after it: lam* is the global minimiser in every regime, and the
    constants are infeasible exactly when kappa(lam*) >= 1.
    """
    c, frexp, ldexp = constants, math.frexp, math.ldexp
    (tau, kt), (r, kr), (s, ks), (gamma, kg), (eta, ke) = map(frexp, (c.tau, c.r, c.s, c.gamma, c.eta))
    # mantissas times 2^k: numerator over 2^e > max(r*gamma, eta*tau^2), denominator over 2^f > max(s^2*gamma, r*eta)
    e, f = max(kr + kg, ke + 2 * kt), max(2 * ks + kg, kr + ke)
    try:
        lam = max(ldexp((ldexp(r * gamma, kr + kg - e) + ldexp(eta * tau * tau, ke + 2 * kt - e))
                        / (ldexp(s * s * gamma, 2 * ks + kg - f) + ldexp(r * eta, kr + ke - f)), e - f), math.ulp(0.0))
    except OverflowError:
        lam = math.nextafter(math.inf, 0.0)
    return lam, contraction_factor(constants, lam)


def _steps(xi, mu, kappa, n):
    """The step table of the sequences (xi, mu) for k < n: arrays xi_k, mu_k and 1 - mu_k (1 - kappa)."""
    xis, mus = (np.broadcast_to(seq.value(np.arange(n)), (n,)) for seq in (xi, mu))
    return xis, mus, 1.0 - mus * (1.0 - kappa)


def envelope(kappa, xi, mu, e0, n):
    """Error bounds e0 * prod_{k<m} f_k for m = 0..n, as an array of n + 1.

    f_k = (1 - xi_k) + xi_k * kappa * (1 - mu_k (1 - kappa)) bounds one step of
    the relaxed two-step iteration under the (xi, mu) casting, a scheme's being
    ``casting(name, xi, mu)``: kappa for FH, 1 - xi_k (1 - kappa) for MANN,
    kappa (1 - mu_k (1 - kappa)) for NEW and 1 - xi_k (1 - kappa (1 - mu_k (1 - kappa)))
    for ZGY.

    Per F evaluation the two-step bounds never win. A NEW or ZGY step costs
    two F evaluations and an FH or MANN step one, and for kappa, xi, mu in
    [0, 1] each two-step factor is at least the one-step factor squared:

    * NEW: kappa (1 - mu (1 - kappa)) - kappa^2 = kappa (1 - mu)(1 - kappa) >= 0,
      with equality at mu = 1 (FH applied twice).
    * ZGY: the factor falls as mu grows, so it is at least its value at mu = 1,
      1 - xi + xi kappa^2 = (1 - xi) 1^2 + xi kappa^2 >= ((1 - xi) + xi kappa)^2
      = (1 - xi (1 - kappa))^2 by the convexity of t -> t^2 (Jensen).
    """
    if not 0.0 <= kappa < 1.0:
        raise ValueError("kappa must lie in [0, 1)")
    if e0 < 0:
        raise ValueError("e0 must be nonnegative")
    xis, _, shrink = _steps(xi, mu, kappa, n)
    factors = (1.0 - xis) + xis * (kappa * shrink)
    return e0 * np.concatenate(([1.0], np.cumprod(factors)))


def check_envelope(trace, kappa):
    """(bounds, passed): ``trace``'s errors against the envelope of the (xi, mu) casting it records, whatever its label.

    bounds has one entry per error, and passed[n] is errors[n] - bounds[n] <=
    DEFAULT_AUDIT_SLACK, which a NaN error fails. None when the trace has no
    errors or kappa is not below 1, where no envelope holds.
    """
    if trace.errors is None or not kappa < 1.0:
        return None
    errors = np.asarray(trace.errors, dtype=float)
    bounds = envelope(kappa, *trace.casting, trace.errors[0], errors.size - 1)
    return bounds, errors - bounds <= DEFAULT_AUDIT_SLACK


# ---------------------------------------------------------------------------
# rate comparison


@dataclass
class RateReport:
    """Paired-trace comparison: pi_n = e_a(n)/e_b(n) plus a verdict.

    ``pi`` has one entry per common step; censored entries (either error
    below the floating-point noise floor or not finite) are None and excluded
    from the verdict. The verdict classifies the fitted geometric decay ratio
    of the trailing window of pi: its last quarter of uncensored entries, at
    least 3. A pair with a diverged run, or with fewer than two uncensored
    entries, gets no fit: the ratio is NaN and the verdict ``undecided``.
    """

    pi: list
    verdict: str
    fitted_ratio: float


def rate_compare(trace_a, trace_b, decision_margin=0.05):
    """Compare the convergence rates of two error traces on the same problem.

    Both traces need errors against a known solution; only their common
    steps count. Verdicts: ``a-faster`` when the trailing window of pi is
    nonincreasing with fitted geometric ratio < 1 - decision_margin,
    ``same-rate`` when the fitted ratio lies within the margin of 1,
    ``undecided`` otherwise. ``check_envelope`` checks each trace's envelope.
    """
    if trace_a.errors is None or trace_b.errors is None:
        raise ValueError("rate comparison requires traces with a known solution")
    n_common = min(len(trace_a.errors), len(trace_b.errors))
    thresh = 10.0 * np.finfo(float).eps * (1.0 + (trace_a.solution_norm or trace_b.solution_norm or 0.0))

    ea = np.asarray(trace_a.errors[:n_common], dtype=float)
    eb = np.asarray(trace_b.errors[:n_common], dtype=float)
    censored = ~(np.isfinite(ea) & np.isfinite(eb)) | (ea < thresh) | (eb < thresh)
    verdict = "undecided"
    ratio = float("nan")
    # a ratio of finite errors may still overflow, as in scalar float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        pis = np.divide(ea, eb, out=np.zeros(n_common), where=~censored)
        usable = np.flatnonzero(~censored)
        if usable.size >= 2 and not (trace_a.diverged or trace_b.diverged):
            window = usable[-max(3, math.ceil(0.25 * usable.size)):]
            vals = pis[window]
            ratio = float(np.exp(np.polyfit(window.astype(float), np.log(vals), 1)[0]))
            nonincreasing = np.all(vals[1:] <= vals[:-1] * (1.0 + 1e-12) + 1e-300)
            if ratio < 1.0 - decision_margin and nonincreasing:
                verdict = "a-faster"
            elif 1.0 - decision_margin <= ratio <= 1.0 + decision_margin:
                verdict = "same-rate"

    return RateReport(
        pi=[None if cut else p for cut, p in zip(censored.tolist(), pis.tolist())],
        verdict=verdict,
        fitted_ratio=ratio,
    )


# ---------------------------------------------------------------------------
# equivalence auditing


@dataclass
class AuditReport:
    """Gap recursion audit of a pair of runs, one relaxed and one unrelaxed.

    gaps[n] = ||a_n - b_n||. When the pair is comparable (see
    ``equivalence_audit``) and both traces carry errors, two recursion forms
    on the gap between the relaxed run q and the unrelaxed run s are checked:
    the forward form with coefficient (1 - xi_n mu_n (1-kappa)) and
    inhomogeneity driven by s's errors, and the symmetric form with
    coefficient (1 - mu_n (1-kappa)) driven by q's errors. Violations are
    exceedances beyond ``DEFAULT_AUDIT_SLACK``; a NaN exceedance is none.
    """

    gaps: list
    gap_converged: bool
    recursion_checked: bool
    violations_forward: int = 0
    violations_symmetric: int = 0
    max_violation_forward: float = 0.0
    max_violation_symmetric: float = 0.0

    @property
    def violations(self):
        return self.violations_forward + self.violations_symmetric


def _exceedances(excess):
    """(count, largest) of the positive entries of ``excess``; NaN is not positive."""
    hit = excess[excess > 0]
    return hit.size, float(hit.max(initial=0.0))


def equivalence_audit(trace_a, trace_b, kappa, gap_tol=1e-8):
    """Audit the equivalence-of-convergence recursions on any pair of runs.

    The (xi, mu) castings that the two traces record decide the pairing. The pair is
    comparable when one run is unrelaxed (its casting's xi is the constant 1) and both
    castings share mu; the other run is then the relaxed q, and trace_a when both are
    unrelaxed. The recursions are checked only for a comparable pair
    with kappa < 1 whose traces both carry errors; every pair gets its gaps.
    Traces of unequal length are truncated to the common length. Gaps are taken
    in the ``coordinates`` of runs on one problem, ||y_a,n - y_b,n|| = ||x_a,n - x_b,n||
    for an orthogonal Q; a trace without them is a ValueError.
    """
    if trace_a.coordinates is None or trace_b.coordinates is None:
        raise ValueError("the audit needs every y_n: run with keep_iterates=True")
    (xi_a, mu_a), (xi_b, mu_b) = trace_a.casting, trace_b.casting
    # non-finite iterates and errors propagate silently, as in scalar float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        gaps, ya, yb = [], trace_a.coordinates, trace_b.coordinates
        for n, (a, b) in enumerate(zip(ya, yb)):  # a pair that repeats the last one, array for array, repeats its gap
            gaps.append(gaps[-1] if n and a is ya[n - 1] and b is yb[n - 1] else vector_norm(a - b))
        report = AuditReport(gaps=gaps, gap_converged=gaps[-1] <= gap_tol, recursion_checked=False)
        if (mu_a != mu_b or ONE not in (xi_a, xi_b) or not kappa < 1.0
                or trace_a.errors is None or trace_b.errors is None):
            return report
        q, s, xi_q = (trace_a, trace_b, xi_a) if xi_b == ONE else (trace_b, trace_a, xi_b)
        m = len(gaps) - 1  # zip truncated the gaps to the common length
        xis, mus, shrink = _steps(xi_q, mu_a, kappa, m)
        g0, g1 = np.array(gaps[:-1]), np.array(gaps[1:])
        rho_scale = (1.0 - xis) * (1.0 + kappa * shrink)
        forward = (1.0 - xis * mus * (1.0 - kappa)) * g0 + rho_scale * np.asarray(s.errors[:m])
        symmetric = shrink * g0 + rho_scale * np.asarray(q.errors[:m])
        report.recursion_checked = True
        report.violations_forward, report.max_violation_forward = _exceedances(g1 - forward - DEFAULT_AUDIT_SLACK)
        report.violations_symmetric, report.max_violation_symmetric = _exceedances(
            g1 - symmetric - DEFAULT_AUDIT_SLACK)
    return report
