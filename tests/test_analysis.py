import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmsolve.analysis import (
    DEFAULT_AUDIT_SLACK,
    contraction_factor,
    envelope,
    equivalence_audit,
    feasible_lambda,
    optimal_lambda,
    rate_compare,
)
from hmsolve.operators import InconsistentConstantsError, OperatorConstants
from hmsolve.problems import gen_scalar_affine, gen_spd_linear
from hmsolve.schemes import (
    CASTINGS,
    ONE,
    IterationTrace,
    StoppingRule,
    casting,
    make_step_sequence,
    run_fh,
    run_new,
    run_scheme,
    run_zgy,
)


def _consistent_constants(gamma, tau_extra, r, s_scale, eta):
    tau = gamma + tau_extra
    s = s_scale * max(r / tau, 1e-3)
    return OperatorConstants(gamma=gamma, tau=tau, r=min(r, s * tau), s=s, eta=eta)


_constants = st.builds(
    _consistent_constants,
    gamma=st.floats(min_value=0.1, max_value=2.0),
    tau_extra=st.floats(min_value=0.0, max_value=2.0),
    r=st.floats(min_value=0.1, max_value=2.0),
    s_scale=st.floats(min_value=1.0, max_value=3.0),
    eta=st.floats(min_value=0.1, max_value=2.0),
)


class TestContractionFactor:
    def test_unit_constants_lam_one_is_zero(self):
        # sqrt(1 - 2 + 1)/2 = 0
        assert contraction_factor(OperatorConstants(1, 1, 1, 1, 1), 1.0) == 0.0

    def test_scalar_arithmetic_oracle(self):
        # sqrt(1 - 1 + 0.25)/1.5 = 1/3
        assert contraction_factor(OperatorConstants(1, 1, 1, 1, 1), 0.5) == pytest.approx(
            1 / 3, abs=1e-15
        )

    def test_wider_constants_oracle(self):
        # gamma=1, tau=1, r=1, s=2, eta=1, lam=1: sqrt(1-2+4)/2 = sqrt(3)/2
        c = OperatorConstants(1, 1, 1, 2, 1)
        assert contraction_factor(c, 1.0) == pytest.approx(math.sqrt(3) / 2, abs=1e-15)

    def test_small_lambda_limit_is_tau_over_gamma(self):
        c = OperatorConstants(gamma=2, tau=3, r=1, s=1, eta=0.5)
        assert contraction_factor(c, 1e-12) == pytest.approx(1.5, abs=1e-9)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            contraction_factor(OperatorConstants(1, 1, 1, 1, 1), 0.0)

    @settings(max_examples=200)
    @given(c=_constants, lam=st.floats(min_value=1e-3, max_value=1e3))
    def test_always_finite_nonnegative(self, c, lam):
        k = contraction_factor(c, lam)
        assert k >= 0.0 and math.isfinite(k)


class TestFeasibleLambda:
    def test_interval_oracle(self):
        # center = (1 + 1)/(4 - 1) = 2/3, radius = sqrt(4 - 0)/3 = 2/3
        interval = feasible_lambda(OperatorConstants(1, 1, 1, 2, 1))
        assert interval is not None
        assert interval[0] == pytest.approx(0.0, abs=1e-15)
        assert interval[1] == pytest.approx(4 / 3, abs=1e-12)

    def test_s_equal_eta_outside_scope(self):
        assert feasible_lambda(OperatorConstants(1, 1, 1, 1, 1)) is None

    def test_negative_discriminant_infeasible(self):
        # (r + gamma*eta)^2 = 4 < (s^2 - eta^2)(tau^2 - gamma^2) = 3*8 = 24
        c = OperatorConstants(gamma=1, tau=3, r=1, s=2, eta=1)
        assert c.s > c.eta
        assert feasible_lambda(c) is None

    def test_unclipped_interval(self):
        # gamma=1, tau=1.05, r=1, s=2, eta=1: center 2/3,
        # radius = sqrt(4 - 3*0.1025)/3
        c = OperatorConstants(1, 1.05, 1, 2, 1)
        interval = feasible_lambda(c)
        radius = math.sqrt(4 - 3 * (1.05 ** 2 - 1)) / 3
        assert interval == pytest.approx((2 / 3 - radius, 2 / 3 + radius), abs=1e-12)
        assert interval[0] > 0


class TestOptimalLambda:
    def test_finds_zero_at_lam_one(self):
        # lam* = (1 + 1)/(1 + 1) = 1, where kappa = sqrt(1 - 2 + 1)/2 = 0
        assert optimal_lambda(OperatorConstants(1, 1, 1, 1, 1)) == (1.0, 0.0)

    def test_s_le_eta_regime_still_usable(self):
        # s < eta is out of scope for the interval formula but lam* is not:
        # lam* = (1 + 2)/(1 + 2) = 1, kappa = sqrt(1 - 2 + 1)/3 = 0
        c = OperatorConstants(gamma=1, tau=1, r=1, s=1, eta=2)
        assert feasible_lambda(c) is None
        lam, kappa = optimal_lambda(c)
        assert lam == 1.0 and kappa < 1

    def test_hopeless_constants_report_failure(self):
        # kappa -> tau/gamma = 3 for small lam and s/eta = 2 for large lam;
        # lam* = (1 + 9)/(4 + 1) = 2 gives kappa = sqrt(21)/3
        c = OperatorConstants(gamma=1, tau=3, r=1, s=2, eta=1)
        lam, kappa = optimal_lambda(c)
        assert lam == 2.0
        assert kappa == pytest.approx(math.sqrt(21) / 3, abs=1e-15)
        assert kappa >= 1

    @settings(max_examples=300)
    @given(c=_constants, lam=st.floats(min_value=1e-4, max_value=1e4))
    def test_never_above_any_lambda(self, c, lam):
        lam_star, kappa_star = optimal_lambda(c)
        assert lam_star > 0
        # compare squares: near kappa = 0 the square root turns rounding of
        # order 1e-17 in the radicand into an error of order 1e-9 in kappa
        assert kappa_star ** 2 <= contraction_factor(c, lam) ** 2 + 1e-12


class TestEnvelopes:
    def test_fh_oracle(self):
        assert envelope("FH", 0.5, None, None, 1.0, 3).tolist() == [1.0, 0.5, 0.25, 0.125]

    def test_fh_step_zero_is_initial_error(self):
        assert envelope("FH", 0.9, None, None, 7.0, 0).tolist() == [7.0]

    def test_new_collapses_to_fh_when_mu_zero(self):
        mu = make_step_sequence("constant", value=0.0)
        assert np.array_equal(envelope("NEW", 1 / 3, None, mu, 2.0, 5),
                              envelope("FH", 1 / 3, None, None, 2.0, 5))

    def test_new_oracle_mu_one(self):
        # kappa = 1/3, mu = 1: each step multiplies by (1/3)*(1/3) = 1/9
        mu = make_step_sequence("constant", value=1.0)
        assert envelope("NEW", 1 / 3, None, mu, 1.0, 2)[2] == pytest.approx(1 / 81, abs=1e-15)

    def test_new_never_above_fh(self):
        mu = make_step_sequence("constant", value=0.7)
        new = envelope("NEW", 0.6, None, mu, 1.0, 10)
        assert np.all(new <= envelope("FH", 0.6, None, None, 1.0, 10) + 1e-15)

    def test_rejects_kappa_out_of_range(self):
        with pytest.raises(ValueError):
            envelope("FH", 1.0, None, None, 1.0, 1)

    def test_relaxed_oracles(self):
        # kappa = 1/2, xi = 1/2, mu = 1/2: MANN factor 1 - 1/4 = 3/4; ZGY
        # factor 1 - (1/2)(1 - (1/2)(3/4)) = 11/16; harmonic xi gives MANN
        # factors 1 - (1/(k+1))(1/2) = 1/2, 3/4, 5/6 for k = 0, 1, 2
        half = make_step_sequence("constant", value=0.5)
        harmonic = make_step_sequence("harmonic", offset=1)
        assert envelope("MANN", 0.5, half, None, 1.0, 2).tolist() == [1.0, 0.75, 0.5625]
        assert envelope("zgy", 0.5, half, half, 1.0, 1).tolist() == [1.0, 11 / 16]
        assert envelope("MANN", 0.5, harmonic, None, 1.0, 3) == pytest.approx(
            [1.0, 1 / 2, 3 / 8, 5 / 16], rel=1e-15)

    def test_missing_sequence_rejected(self):
        with pytest.raises(ValueError):
            envelope("ZGY", 0.5, None, make_step_sequence("constant", value=0.5), 1.0, 3)

    @settings(max_examples=500, deadline=None)
    @given(kappa=st.floats(0.0, 1.0, exclude_max=True), xi=st.floats(0.0, 1.0),
           mu=st.floats(0.0, 1.0))
    def test_two_step_factor_never_wins_per_f_evaluation(self, kappa, xi, mu):
        # a NEW or ZGY step costs two F evaluations, an FH or MANN step one: the
        # two-step factor is at least the one-step factor squared (proof in envelope)
        xi, mu = (make_step_sequence("constant", value=v) for v in (xi, mu))
        assert (envelope("NEW", kappa, None, mu, 1.0, 1)[1]
                >= envelope("FH", kappa, None, None, 1.0, 2)[2] - 1e-15)
        assert (envelope("ZGY", kappa, xi, mu, 1.0, 1)[1]
                >= envelope("MANN", kappa, xi, None, 1.0, 2)[2] - 1e-15)


class TestBoundarySharpness:
    """The feasible interval is exactly the kappa < 1 region: kappa is 1 within
    1e-9 at both ends (tau/gamma, the lam -> 0 limit, at a lower end clipped at
    0) and >= 1 - 1e-9 at 1e-6 outside them."""

    def test_clipped_interval_sharp(self):
        c = OperatorConstants(1, 1, 1, 2, 1)
        lo, hi = feasible_lambda(c)
        assert lo == 0.0
        assert abs(c.tau / c.gamma - 1.0) <= 1e-9
        assert abs(contraction_factor(c, hi) - 1.0) <= 1e-9
        assert contraction_factor(c, hi + 1e-6) >= 1.0 - 1e-9
        # midpoint lam = 2/3: sqrt(1 - 4/3 + 16/9)/(5/3) = sqrt(13)/5
        assert contraction_factor(c, 0.5 * (lo + hi)) == pytest.approx(math.sqrt(13) / 5,
                                                                      abs=1e-12)

    def test_unclipped_interval_sharp(self):
        c = OperatorConstants(1, 1.05, 1, 2, 1)
        lo, hi = feasible_lambda(c)
        assert lo > 0.0
        assert contraction_factor(c, 0.5 * (lo + hi)) < 1.0
        assert all(abs(contraction_factor(c, lam) - 1.0) <= 1e-9 for lam in (lo, hi))

    def test_exterior_kappa_at_least_one(self):
        c = OperatorConstants(1, 1.05, 1, 2, 1)
        lo, hi = feasible_lambda(c)
        assert contraction_factor(c, lo - 1e-6) >= 1.0 - 1e-9
        assert contraction_factor(c, hi + 1e-6) >= 1.0 - 1e-9

    def test_infeasible_constants_rejected(self):
        assert feasible_lambda(OperatorConstants(gamma=1, tau=3, r=1, s=2, eta=1)) is None

    def test_kappa_grid_inside_and_outside(self):
        c = OperatorConstants(1, 1, 1, 2, 1)
        lo, hi = feasible_lambda(c)
        for lam in np.linspace(lo + 1e-6, hi - 1e-6, 100):
            assert contraction_factor(c, lam) < 1.0
        for lam in np.linspace(hi + 1e-6, hi + 1.0, 10):
            assert contraction_factor(c, lam) >= 1.0 - 1e-12


class TestRateCompare:
    def _scalar_traces(self, steps=20):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        x0 = [1.0 + 3.0 ** 30]
        stop = StoppingRule(tol=-1.0, max_steps=steps)
        mu = make_step_sequence("constant", value=1.0)
        fast = run_new(p, x0, mu, stop)
        slow = run_fh(p, x0, stop)
        return p, fast, slow, mu

    def test_self_comparison_same_rate(self):
        p, _, slow, _ = self._scalar_traces()
        report = rate_compare(slow, slow)
        assert report.verdict == "same-rate"
        assert all(p == 1.0 for p in report.pi if p is not None)

    def test_two_step_beats_one_step(self):
        # exact scalar ratios: pi_n = (1/9)^n / (1/3)^n = (1/3)^n
        p, fast, slow, mu = self._scalar_traces()
        kappa = p.contraction_factor()
        report = rate_compare(fast, slow)
        assert report.verdict == "a-faster"
        assert report.fitted_ratio == pytest.approx(1 / 3, rel=1e-6)
        for n, val in enumerate(report.pi):
            if val is not None:
                assert val == pytest.approx((1 / 3) ** n, rel=1e-9)
        # slack scales with the (deliberately huge) starting error so a few
        # ulps of rounding in the envelope product do not count as violations
        for trace in (fast, slow):
            bounds = envelope(trace.algorithm, kappa, None, mu, trace.errors[0], trace.steps_used)
            assert np.all(np.asarray(trace.errors) <= bounds + 1e-8 * fast.errors[0])

    def test_reversed_order_not_a_faster(self):
        p, fast, slow, _ = self._scalar_traces()
        report = rate_compare(slow, fast)
        assert report.verdict != "a-faster"

    def test_censoring_near_fixed_point(self):
        # long runs hit the floating-point floor; those entries must be censored
        p, fast, slow, _ = self._scalar_traces(steps=120)
        report = rate_compare(fast, slow)
        assert None in report.pi
        assert report.verdict == "a-faster"

    def test_non_finite_errors_censored(self):
        # an error that overflowed to inf, or is NaN, gives no ratio
        def trace(errors):
            n = len(errors)
            return IterationTrace(
                algorithm="FH", iterates=[np.zeros(1)] * n, residuals=[0.0] * n, errors=errors,
                wall_nanos=[0] * n, steps_used=n - 1, converged=False, kappa=0.5,
            )

        report = rate_compare(trace([1.0, math.inf, 1.0, math.inf, 1.0, 0.5]),
                              trace([2.0, 2.0, math.inf, math.inf, math.nan, 1.0]))
        assert report.pi == [0.5, None, None, None, None, 0.5]

    def test_requires_errors(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        trace = run_fh(p, [4.0])
        bad = run_fh(
            type(p)(
                h=p.h, a=p.a, m=p.m, constants=p.constants, lam=p.lam,
                dim=p.dim, known_solution=None,
            ),
            [4.0],
        )
        with pytest.raises(ValueError):
            rate_compare(trace, bad)


class TestEquivalenceAudit:
    def test_scalar_gap_and_recursions(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        xi = make_step_sequence("constant", value=0.5)
        mu = make_step_sequence("constant", value=0.5)
        stop = StoppingRule(tol=-1.0, max_steps=50)
        q = run_zgy(p, [4.0], xi, mu, stop)
        s = run_new(p, [4.0], mu, stop)
        report = equivalence_audit(q, s, xi, mu, p.contraction_factor())
        assert report.recursion_checked
        assert report.gap_converged
        assert report.gaps[-1] <= 1e-8
        assert report.violations == 0

    def test_xi_one_collapses_gap_recursion(self):
        # with xi = 1 the relaxed scheme differs from the unrelaxed one only
        # through its own first step; the gap still contracts
        p = gen_scalar_affine(b=2.0, lam=0.5)
        xi = make_step_sequence("constant", value=1.0)
        mu = make_step_sequence("constant", value=0.5)
        stop = StoppingRule(tol=-1.0, max_steps=40)
        q = run_zgy(p, [4.0], xi, mu, stop)
        s = run_new(p, [4.0], mu, stop)
        report = equivalence_audit(q, s, xi, mu, p.contraction_factor())
        assert report.violations == 0
        assert report.gap_converged

    def test_identical_traces_zero_gap(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        mu = make_step_sequence("constant", value=0.5)
        stop = StoppingRule(tol=-1.0, max_steps=10)
        s = run_new(p, [4.0], mu, stop)
        report = equivalence_audit(
            s, s, make_step_sequence("constant", value=0.5), mu, p.contraction_factor()
        )
        assert report.gaps[-1] == 0.0
        assert all(g == 0.0 for g in report.gaps)

    def test_truncation_flagged(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        mu = make_step_sequence("constant", value=0.5)
        xi = make_step_sequence("constant", value=0.5)
        q = run_zgy(p, [4.0], xi, mu, StoppingRule(tol=-1.0, max_steps=8))
        s = run_new(p, [4.0], mu, StoppingRule(tol=-1.0, max_steps=12))
        report = equivalence_audit(q, s, xi, mu, p.contraction_factor())
        assert len(report.gaps) == 9

    def test_trace_with_only_its_last_iterate_rejected(self):
        # such a trace would give one gap, x_N against the other run's x_0
        p = gen_scalar_affine(b=2.0, lam=0.5)
        mu = make_step_sequence("constant", value=0.5)
        stop = StoppingRule(tol=-1.0, max_steps=8)
        full = run_new(p, [4.0], mu, stop)
        last = run_new(p, [4.0], mu, stop, keep_iterates=False)
        assert len(last.iterates) == 1 and len(last.residuals) == 9
        for pair in ((full, last), (last, full), (last, last)):
            with pytest.raises(ValueError, match="keep_iterates"):
                equivalence_audit(*pair, mu, mu, p.contraction_factor())

    @pytest.mark.parametrize("dim", [1, 7, 200])
    @pytest.mark.parametrize("b_scale", [1.0, 1e12])
    @pytest.mark.parametrize("start", [0.0, 1.0])
    def test_spd_linear_gaps_are_those_of_the_mapped_back_iterates(self, dim, b_scale, start):
        # the gaps are taken between coordinates y_n = Q^T x_n; the x_n = Q y_n mapped back
        # give the same gaps within 32 units of rounding of ||x_a,n|| + ||x_b,n|| (measured: 3.2)
        p = gen_spd_linear(dim, seed=dim, b_scale=b_scale)
        half = make_step_sequence("constant", value=0.5)
        stop = StoppingRule(tol=-1.0, max_steps=60)
        traces = {name: run_scheme(name, p, np.full(dim, start), half, half, stop)
                  for name in ("FH", "ZGY", "MANN", "NEW")}
        basis = p.coordinates()[0]
        xs = {name: (basis @ np.array(t.coordinates).T).T for name, t in traces.items()}
        for a, b in itertools.combinations(traces, 2):
            report = equivalence_audit(traces[a], traces[b], half, half, p.contraction_factor())
            x_gaps = np.linalg.norm(xs[a] - xs[b], axis=1)
            scale = np.linalg.norm(xs[a], axis=1) + np.linalg.norm(xs[b], axis=1)
            assert np.all(np.abs(report.gaps - x_gaps) <= 32 * np.finfo(float).eps / 2 * scale), (a, b)


_STEP = st.floats(min_value=0.0, max_value=1.0)

#: step sequences of all four families; a table may end in 0 or 1
_SEQUENCE = st.one_of(
    _STEP.map(lambda v: make_step_sequence("constant", value=v)),
    st.integers(1, 5).map(lambda k: make_step_sequence("harmonic", offset=k)),
    st.integers(1, 5).map(lambda k: make_step_sequence("one-minus-harmonic", offset=k)),
    st.tuples(st.lists(_STEP, min_size=1, max_size=6), st.sampled_from([[], [0.0], [1.0]])).map(
        lambda t: make_step_sequence("custom-table", table=t[0] + t[1])),
)


def _poisoned(draw, values, specials):
    """``values`` with up to two entries replaced by non-finite ``specials``."""
    spots = st.tuples(st.integers(0, len(values) - 1), st.sampled_from(specials))
    for i, v in draw(st.lists(spots, max_size=2)):
        values[i] = v
    return values


@st.composite
def _trace(draw, dim):
    """An IterationTrace built directly, with coordinates and errors that may be inf or NaN."""
    n = draw(st.integers(1, 12))
    flat = draw(st.lists(st.floats(-10.0, 10.0), min_size=n * dim, max_size=n * dim))
    coordinates = list(np.array(_poisoned(draw, flat, [math.inf, -math.inf, math.nan])).reshape(n, dim))
    errors = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    errors = None if draw(st.integers(0, 4)) == 0 else _poisoned(draw, errors, [math.inf, math.nan])
    return IterationTrace(
        algorithm=draw(st.sampled_from(tuple(CASTINGS))), iterates=coordinates[-1:], residuals=[0.0] * n,
        errors=errors, wall_nanos=[0] * n,
        steps_used=n - 1, converged=False, kappa=0.0, coordinates=coordinates,
    )


def _audit_loop(trace_a, trace_b, xi, mu, kappa):
    """The audit as a per-step loop over Python floats, pairing the runs as the CLI
    once did: the reference for ``equivalence_audit``'s array form.

    Returns (gaps, recursion_checked, violations and maxima of the forward and
    the symmetric form).
    """
    params = None
    for q, s in ((trace_a, trace_b), (trace_b, trace_a)):
        xi_q, mu_q = casting(q.algorithm, xi, mu)
        xi_s, mu_s = casting(s.algorithm, xi, mu)
        if xi_s == ONE and mu_q == mu_s:
            params = q, s, xi_q, mu_q
            break
    q, s, xi, mu = params or (trace_a, trace_b, ONE, ONE)
    n_common = min(len(q.coordinates), len(s.coordinates))
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = [float(np.linalg.norm(q.coordinates[n] - s.coordinates[n])) for n in range(n_common)]
    if params is None or not kappa < 1.0 or q.errors is None or s.errors is None:
        return gaps, False, 0, 0, 0.0, 0.0
    vf = vs = 0
    mf = ms = 0.0
    for n in range(n_common - 1):
        xi_n, mu_n = xi.value(n), mu.value(n)
        shrink = 1.0 - mu_n * (1.0 - kappa)
        rho_scale = (1.0 - xi_n) * (1.0 + kappa * shrink)
        bound_f = (1.0 - xi_n * mu_n * (1.0 - kappa)) * gaps[n] + rho_scale * s.errors[n]
        excess_f = gaps[n + 1] - bound_f - DEFAULT_AUDIT_SLACK
        if excess_f > 0:
            vf, mf = vf + 1, max(mf, excess_f)
        bound_s = shrink * gaps[n] + rho_scale * q.errors[n]
        excess_s = gaps[n + 1] - bound_s - DEFAULT_AUDIT_SLACK
        if excess_s > 0:
            vs, ms = vs + 1, max(ms, excess_s)
    return gaps, True, vf, vs, mf, ms


class TestEquivalenceAuditReference:
    @staticmethod
    def _fields(report):
        return (report.gaps, report.recursion_checked, report.violations_forward,
                report.violations_symmetric, report.max_violation_forward,
                report.max_violation_symmetric)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), xi=_SEQUENCE, mu=_SEQUENCE,
           kappa=st.floats(0.0, 1.0, exclude_max=True))
    def test_array_form_matches_scalar_loop(self, data, dim, xi, mu, kappa):
        a, b = data.draw(_trace(dim)), data.draw(_trace(dim))
        report = equivalence_audit(a, b, xi, mu, kappa)
        swapped = equivalence_audit(b, a, xi, mu, kappa)
        # gaps compare NaN-aware; counts and maxima exactly
        np.testing.assert_equal(self._fields(report), _audit_loop(a, b, xi, mu, kappa))
        np.testing.assert_equal(self._fields(swapped), _audit_loop(b, a, xi, mu, kappa))
        # swapping the runs keeps what the audit reports. When both runs are
        # unrelaxed, the two forms differ only in which run's errors they
        # multiply by 1 - xi = 0, so a swap may exchange their counts.
        np.testing.assert_equal(
            (swapped.gaps, swapped.gaps[-1], swapped.gap_converged,
             swapped.recursion_checked, swapped.violations,
             max(swapped.max_violation_forward, swapped.max_violation_symmetric)),
            (report.gaps, report.gaps[-1], report.gap_converged,
             report.recursion_checked, report.violations,
             max(report.max_violation_forward, report.max_violation_symmetric)))
