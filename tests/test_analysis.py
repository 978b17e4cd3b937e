import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmsolve.analysis import (
    boundary_sharpness,
    contraction_factor,
    envelope,
    equivalence_audit,
    feasible_lambda,
    optimal_lambda,
    rate_compare,
)
from hmsolve.operators import InconsistentConstantsError, OperatorConstants
from hmsolve.problems import gen_scalar_affine
from hmsolve.schemes import StoppingRule, make_step_sequence, run_fh, run_new, run_zgy


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
        feas = feasible_lambda(OperatorConstants(1, 1, 1, 2, 1))
        assert feas.feasible
        assert feas.interval[0] == pytest.approx(0.0, abs=1e-15)
        assert feas.interval[1] == pytest.approx(4 / 3, abs=1e-12)

    def test_s_equal_eta_outside_scope(self):
        feas = feasible_lambda(OperatorConstants(1, 1, 1, 1, 1))
        assert not feas.feasible
        assert feas.outside_scope

    def test_negative_discriminant_infeasible(self):
        # (r + gamma*eta)^2 = 4 < (s^2 - eta^2)(tau^2 - gamma^2) = 3*8 = 24
        feas = feasible_lambda(OperatorConstants(gamma=1, tau=3, r=1, s=2, eta=1))
        assert not feas.feasible
        assert feas.s_greater_eta and not feas.discriminant_positive

    def test_unclipped_interval(self):
        # gamma=1, tau=1.05, r=1, s=2, eta=1: center 2/3,
        # radius = sqrt(4 - 3*0.1025)/3
        c = OperatorConstants(1, 1.05, 1, 2, 1)
        feas = feasible_lambda(c)
        radius = math.sqrt(4 - 3 * (1.05 ** 2 - 1)) / 3
        assert feas.interval == pytest.approx((2 / 3 - radius, 2 / 3 + radius), abs=1e-12)
        assert feas.interval[0] > 0


class TestOptimalLambda:
    def test_finds_zero_at_lam_one(self):
        # lam* = (1 + 1)/(1 + 1) = 1, where kappa = sqrt(1 - 2 + 1)/2 = 0
        assert optimal_lambda(OperatorConstants(1, 1, 1, 1, 1)) == (1.0, 0.0)

    def test_s_le_eta_regime_still_usable(self):
        # s < eta is out of scope for the interval formula but lam* is not:
        # lam* = (1 + 2)/(1 + 2) = 1, kappa = sqrt(1 - 2 + 1)/3 = 0
        c = OperatorConstants(gamma=1, tau=1, r=1, s=1, eta=2)
        assert feasible_lambda(c).outside_scope
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


class TestBoundarySharpness:
    def test_clipped_interval_sharp(self):
        report = boundary_sharpness(OperatorConstants(1, 1, 1, 2, 1))
        assert report.lower_clipped
        assert report.passed
        assert report.midpoint_kappa < 1.0
        # midpoint lam = 2/3: sqrt(1 - 4/3 + 16/9)/(5/3) = sqrt(13)/5
        assert report.midpoint_kappa == pytest.approx(math.sqrt(13) / 5, abs=1e-12)

    def test_unclipped_interval_sharp(self):
        report = boundary_sharpness(OperatorConstants(1, 1.05, 1, 2, 1))
        assert not report.lower_clipped
        assert report.passed
        assert all(abs(k - 1.0) <= 1e-9 for k in report.endpoint_kappas)

    def test_exterior_kappa_at_least_one(self):
        report = boundary_sharpness(OperatorConstants(1, 1.05, 1, 2, 1))
        assert report.exterior_kappas[0] >= 1.0 - 1e-9
        assert report.exterior_kappas[1] >= 1.0 - 1e-9

    def test_infeasible_constants_rejected(self):
        with pytest.raises(ValueError):
            boundary_sharpness(OperatorConstants(gamma=1, tau=3, r=1, s=2, eta=1))

    def test_kappa_grid_inside_and_outside(self):
        c = OperatorConstants(1, 1, 1, 2, 1)
        lo, hi = feasible_lambda(c).interval
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
        # slack scales with the (deliberately huge) starting error so a few
        # ulps of rounding in the envelope product do not count as violations
        report = rate_compare(fast, slow, kappa=kappa, mu=mu, slack=1e-8 * fast.errors[0])
        assert report.verdict == "a-faster"
        assert report.fitted_ratio == pytest.approx(1 / 3, rel=1e-6)
        for n, val in enumerate(report.pi):
            if val is not None:
                assert val == pytest.approx((1 / 3) ** n, rel=1e-9)
        assert all(c.passed for c in report.envelope_checks_a)
        assert all(c.passed for c in report.envelope_checks_b)

    def test_reversed_order_not_a_faster(self):
        p, fast, slow, _ = self._scalar_traces()
        report = rate_compare(slow, fast)
        assert report.verdict != "a-faster"

    def test_censoring_near_fixed_point(self):
        # long runs hit the floating-point floor; those entries must be censored
        p, fast, slow, _ = self._scalar_traces(steps=120)
        report = rate_compare(fast, slow)
        assert any(report.censored)
        assert report.verdict == "a-faster"

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
        assert report.final_gap <= 1e-8
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
        assert report.final_gap == 0.0
        assert all(g == 0.0 for g in report.gaps)

    def test_truncation_flagged(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        mu = make_step_sequence("constant", value=0.5)
        xi = make_step_sequence("constant", value=0.5)
        q = run_zgy(p, [4.0], xi, mu, StoppingRule(tol=-1.0, max_steps=8))
        s = run_new(p, [4.0], mu, StoppingRule(tol=-1.0, max_steps=12))
        report = equivalence_audit(q, s, xi, mu, p.contraction_factor())
        assert report.truncated
        assert len(report.gaps) == 9
