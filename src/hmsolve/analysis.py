"""Quantitative theory: contraction factor, feasibility, envelopes, rates.

Everything here is a pure function of immutable inputs. The contraction
factor kappa = sqrt(tau^2 - 2*lam*r + lam^2*s^2) / (gamma + lam*eta) drives
all of it: when s > eta, the feasible-lam interval is exactly the set where
kappa < 1 (for s <= eta it is ``outside_scope``); the minimiser of kappa over
lam has a closed form in every regime; the error envelope of each scheme is
the product of the per-step bounds of its (xi, mu) casting; and the rate
comparison classifies the ratio of measured error sequences.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import InconsistentConstantsError
from .resolvent import ResolventEngine
from .schemes import casting

__all__ = [
    "contraction_factor",
    "FeasibilityResult",
    "feasible_lambda",
    "optimal_lambda",
    "envelope",
    "BoundarySharpnessReport",
    "boundary_sharpness",
    "EnvelopeCheck",
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
    """kappa = sqrt(tau^2 - 2*lam*r + lam^2*s^2) / (gamma + lam*eta)."""
    if not lam > 0:
        raise ValueError("lam must be strictly positive")
    c = constants
    radicand = c.tau * c.tau - 2.0 * lam * c.r + lam * lam * c.s * c.s
    if radicand < -1e-12 * max(1.0, c.tau * c.tau):
        # cannot happen for consistent constants (r <= s*tau keeps the
        # discriminant nonpositive); flags corrupted inputs
        raise InconsistentConstantsError(
            "negative radicand %g in contraction factor" % radicand
        )
    return math.sqrt(max(radicand, 0.0)) / (c.gamma + lam * c.eta)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the feasible-lam interval computation.

    ``outside_scope`` marks the s <= eta regime, where the interval formula
    does not apply; ``optimal_lambda`` covers every regime.
    """

    feasible: bool
    interval: tuple = None
    s_greater_eta: bool = False
    discriminant_positive: bool = False
    outside_scope: bool = False


def feasible_lambda(constants):
    """Open interval of lam with kappa < 1, from center +/- radius, clipped at 0.

    Preconditions: s > eta and (r + gamma*eta)^2 > (s^2 - eta^2)(tau^2 - gamma^2).
    """
    c = constants
    if c.s <= c.eta:
        return FeasibilityResult(feasible=False, s_greater_eta=False, outside_scope=True)
    denom = c.s * c.s - c.eta * c.eta
    num = c.r + c.gamma * c.eta
    disc = num * num - denom * (c.tau * c.tau - c.gamma * c.gamma)
    if disc <= 0:
        return FeasibilityResult(
            feasible=False, s_greater_eta=True, discriminant_positive=False
        )
    center = num / denom
    radius = math.sqrt(disc) / denom
    lo = max(0.0, center - radius)
    hi = center + radius
    return FeasibilityResult(
        feasible=True,
        interval=(lo, hi),
        s_greater_eta=True,
        discriminant_positive=True,
    )


def optimal_lambda(constants):
    """The kappa-minimising lam* = (r*gamma + eta*tau^2)/(s^2*gamma + r*eta).

    Returns (lam*, kappa(lam*)). The lam^2 terms cancel in d(kappa^2)/d(lam) = 0,
    so lam* is the only stationary point on lam > 0, and kappa falls before it
    and rises after it: lam* is the global minimiser in every regime, and the
    constants are infeasible exactly when kappa(lam*) >= 1.
    """
    c = constants
    lam = (c.r * c.gamma + c.eta * c.tau * c.tau) / (c.s * c.s * c.gamma + c.r * c.eta)
    return lam, contraction_factor(constants, lam)


def envelope(scheme, kappa, xi, mu, e0, n):
    """Error bounds e0 * prod_{k<m} f_k for m = 0..n, as an array of n + 1.

    f_k = (1 - xi_k) + xi_k * kappa * (1 - mu_k (1 - kappa)) bounds one step of
    the relaxed two-step iteration under the (xi, mu) casting of ``scheme``:
    kappa for FH, 1 - xi_k (1 - kappa) for MANN, kappa (1 - mu_k (1 - kappa))
    for NEW and 1 - xi_k (1 - kappa (1 - mu_k (1 - kappa))) for ZGY. Sequences
    a casting does not use may be None.
    """
    if not 0.0 <= kappa < 1.0:
        raise ValueError("kappa must lie in [0, 1)")
    if e0 < 0:
        raise ValueError("e0 must be nonnegative")
    xi, mu = casting(scheme, xi, mu)
    xis = np.array([xi.value(k) for k in range(n)])
    mus = np.array([mu.value(k) for k in range(n)])
    factors = (1.0 - xis) + xis * (kappa * (1.0 - mus * (1.0 - kappa)))
    return e0 * np.concatenate(([1.0], np.cumprod(factors)))


@dataclass(frozen=True)
class BoundarySharpnessReport:
    midpoint_kappa: float
    endpoint_kappas: tuple
    endpoint_sharp: tuple     # True when kappa = 1 within 1e-9, or clipped at 0
    lower_clipped: bool
    exterior_kappas: tuple    # (below lower, above upper); None when clipped
    exterior_ge_one: tuple

    @property
    def passed(self):
        return (
            self.midpoint_kappa < 1.0
            and all(self.endpoint_sharp)
            and all(ok for ok in self.exterior_ge_one if ok is not None)
        )


def boundary_sharpness(constants):
    """Check that the feasible interval is exactly the kappa < 1 region.

    kappa must be < 1 at the midpoint, equal to 1 within 1e-9 at both
    endpoints (except a lower endpoint clipped at 0, where the lam->0 limit
    is tau/gamma), and >= 1 - 1e-9 at 1e-6 outside them.
    """
    tol, eps = 1e-9, 1e-6
    feas = feasible_lambda(constants)
    if not feas.feasible:
        raise ValueError("constants admit no feasible interval")
    lo, hi = feas.interval
    lower_clipped = lo == 0.0
    mid_kappa = contraction_factor(constants, 0.5 * (lo + hi))

    if lower_clipped:
        k_lo = constants.tau / constants.gamma
        lo_sharp = abs(k_lo - 1.0) <= tol  # limit value tau/gamma
        ext_lo = None
        ext_lo_ok = None
    else:
        k_lo = contraction_factor(constants, lo)
        lo_sharp = abs(k_lo - 1.0) <= tol
        ext_lo = contraction_factor(constants, lo - eps) if lo > eps else None
        ext_lo_ok = None if ext_lo is None else ext_lo >= 1.0 - tol
    k_hi = contraction_factor(constants, hi)
    ext_hi = contraction_factor(constants, hi + eps)
    return BoundarySharpnessReport(
        midpoint_kappa=mid_kappa,
        endpoint_kappas=(k_lo, k_hi),
        endpoint_sharp=(lo_sharp, abs(k_hi - 1.0) <= tol),
        lower_clipped=lower_clipped,
        exterior_kappas=(ext_lo, ext_hi),
        exterior_ge_one=(ext_lo_ok, ext_hi >= 1.0 - tol),
    )


# ---------------------------------------------------------------------------
# rate comparison


@dataclass(frozen=True)
class EnvelopeCheck:
    n: int
    bound: float
    measured: float
    passed: bool


@dataclass
class RateReport:
    """Paired-trace comparison: pi_n = e_a(n)/e_b(n) plus a verdict.

    ``pi`` has one entry per common step; censored entries (either error
    below the floating-point noise floor) are None and excluded from the
    verdict. The verdict classifies the fitted geometric decay ratio of the
    trailing window of pi: its last quarter of uncensored entries, at least 3.
    """

    pi: list
    censored: list
    verdict: str
    fitted_ratio: float
    envelope_checks_a: list = field(default_factory=list)
    envelope_checks_b: list = field(default_factory=list)


def _censor_threshold(solution_norm):
    return 10.0 * np.finfo(float).eps * (1.0 + (solution_norm or 0.0))


def _envelope_checks(trace, kappa, xi, mu, n_common, slack):
    bounds = envelope(trace.algorithm, kappa, xi, mu, trace.errors[0], n_common - 1)
    return [EnvelopeCheck(n, bound, measured, measured <= bound + slack)
            for n, (bound, measured) in enumerate(zip(bounds.tolist(), trace.errors))]


def rate_compare(trace_a, trace_b, kappa=None, xi=None, mu=None,
                 decision_margin=0.05, slack=DEFAULT_AUDIT_SLACK):
    """Compare two error traces on the same problem with known solution.

    Verdicts: ``a-faster`` when the trailing window of pi is nonincreasing
    with fitted geometric ratio < 1 - decision_margin, ``same-rate`` when the
    fitted ratio lies within the margin of 1, ``undecided`` otherwise.

    When ``kappa`` is given, each trace is checked against the envelope of
    its own scheme (``trace.algorithm``) under the sequences ``xi`` and
    ``mu``; a scheme whose casting needs a sequence not supplied is an error.
    """
    if trace_a.errors is None or trace_b.errors is None:
        raise ValueError("rate comparison requires traces with a known solution")
    n_common = min(len(trace_a.errors), len(trace_b.errors))
    thresh = _censor_threshold(trace_a.solution_norm or trace_b.solution_norm)

    pi, censored = [], []
    for n in range(n_common):
        ea, eb = trace_a.errors[n], trace_b.errors[n]
        if eb < thresh or ea < thresh:
            pi.append(None)
            censored.append(True)
        else:
            pi.append(ea / eb)
            censored.append(False)

    usable = [(n, p) for n, p in enumerate(pi) if p is not None]
    verdict = "undecided"
    ratio = float("nan")
    if usable:
        w = max(3, int(math.ceil(0.25 * len(usable))))
        window = usable[-w:]
        vals = [p for _, p in window]
        if any(p == 0.0 for p in vals):
            ratio = 0.0
        elif len(window) >= 2:
            ns = np.array([n for n, _ in window], dtype=float)
            logs = np.log([p for _, p in window])
            slope = np.polyfit(ns, logs, 1)[0]
            ratio = float(np.exp(slope))
        else:
            ratio = 1.0
        nonincreasing = all(
            vals[i + 1] <= vals[i] * (1.0 + 1e-12) + 1e-300
            for i in range(len(vals) - 1)
        )
        if ratio < 1.0 - decision_margin and nonincreasing:
            verdict = "a-faster"
        elif 1.0 - decision_margin <= ratio <= 1.0 + decision_margin:
            verdict = "same-rate"

    checks_a, checks_b = [], []
    if kappa is not None and kappa < 1.0:
        checks_a = _envelope_checks(trace_a, kappa, xi, mu, n_common, slack)
        checks_b = _envelope_checks(trace_b, kappa, xi, mu, n_common, slack)

    return RateReport(
        pi=pi,
        censored=censored,
        verdict=verdict,
        fitted_ratio=ratio,
        envelope_checks_a=checks_a,
        envelope_checks_b=checks_b,
    )


# ---------------------------------------------------------------------------
# equivalence auditing


@dataclass
class AuditReport:
    """Gap recursion audit between a two-step relaxed run and an unrelaxed one.

    gaps[n] = ||q_n - s_n||. Two recursion forms are checked when both traces
    carry errors: the forward form with coefficient (1 - xi_n mu_n (1-kappa))
    and inhomogeneity driven by the unrelaxed trace's errors, and the symmetric
    form with coefficient (1 - mu_n (1-kappa)) driven by the relaxed trace's
    errors. Violations are exceedances beyond ``DEFAULT_AUDIT_SLACK``.
    """

    gaps: list
    final_gap: float
    gap_converged: bool
    truncated: bool
    recursion_checked: bool
    violations_forward: int = 0
    violations_symmetric: int = 0
    max_violation_forward: float = 0.0
    max_violation_symmetric: float = 0.0

    @property
    def violations(self):
        return self.violations_forward + self.violations_symmetric


def equivalence_audit(q_trace, s_trace, xi, mu, kappa,
                      gap_tol=1e-8):
    """Audit the equivalence-of-convergence recursions on a pair of runs.

    ``q_trace`` is the relaxed two-step run driven by (xi, mu); ``s_trace``
    is the unrelaxed two-step run driven by the same mu. Traces of unequal
    length are truncated to the common length.
    """
    n_common = min(len(q_trace.iterates), len(s_trace.iterates))
    truncated = n_common != max(len(q_trace.iterates), len(s_trace.iterates))
    gaps = [
        float(np.linalg.norm(q_trace.iterates[n] - s_trace.iterates[n]))
        for n in range(n_common)
    ]

    report = AuditReport(
        gaps=gaps,
        final_gap=gaps[-1],
        gap_converged=gaps[-1] <= gap_tol,
        truncated=truncated,
        recursion_checked=False,
    )

    if q_trace.errors is None or s_trace.errors is None or kappa is None:
        return report
    report.recursion_checked = True
    for n in range(n_common - 1):
        xi_n, mu_n = xi.value(n), mu.value(n)
        shrink = 1.0 - mu_n * (1.0 - kappa)
        rho_scale = (1.0 - xi_n) * (1.0 + kappa * shrink)
        # forward form: coefficient 1 - xi*mu*(1-kappa), driven by s-errors
        bound_f = (1.0 - xi_n * mu_n * (1.0 - kappa)) * gaps[n] + rho_scale * s_trace.errors[n]
        excess_f = gaps[n + 1] - bound_f - DEFAULT_AUDIT_SLACK
        if excess_f > 0:
            report.violations_forward += 1
            report.max_violation_forward = max(report.max_violation_forward, excess_f)
        # symmetric form: coefficient 1 - mu*(1-kappa), driven by q-errors
        bound_s = shrink * gaps[n] + rho_scale * q_trace.errors[n]
        excess_s = gaps[n + 1] - bound_s - DEFAULT_AUDIT_SLACK
        if excess_s > 0:
            report.violations_symmetric += 1
            report.max_violation_symmetric = max(report.max_violation_symmetric, excess_s)
    return report
