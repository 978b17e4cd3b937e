import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmsolve.analysis import (
    DEFAULT_AUDIT_SLACK,
    check_envelope,
    contraction_factor,
    envelope,
    equivalence_audit,
    feasible_lambda,
    optimal_lambda,
    rate_compare,
)
from hmsolve.operators import _CONSISTENCY_TOL, InconsistentConstantsError, OperatorConstants
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
from oracles import (constants, exact_feasible_lambda, exact_kappa, exact_optimal_lambda, kappa_cancellation_rounding,
                     per_term_envelope, positive, scale_free_constants, sequences)


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

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_radicand_floor_follows_the_consistency_tolerance(self, scale):
        # gamma = tau = scale, s = eta = 1 and r = scale*(1 + e) put lam* at scale, where the
        # radicand is -2*e*scale^2: r <= s*tau*(1 + delta) keeps it >= -tau^2*(2*delta + delta^2)
        for e in (5e-10, _CONSISTENCY_TOL):
            assert optimal_lambda(OperatorConstants(scale, scale, scale * (1 + e), 1, 1))[1] == 0.0
        # e = 2*delta, past the constructor that rejects it, puts the radicand below that floor
        corrupt = types.SimpleNamespace(gamma=scale, tau=scale, r=scale * (1 + 2e-9), s=1, eta=1)
        with pytest.raises(InconsistentConstantsError, match="negative radicand"):
            optimal_lambda(corrupt)

    # spd-linear's constants at m = 2: gamma = 1, tau = s = 1.2, r = 1 and eta = 2, so s/eta = 0.6
    SPD_M2 = OperatorConstants(gamma=1, tau=1.2, r=1, s=1.2, eta=2)

    @pytest.mark.parametrize("lam", [1e-3, 0.6, 7.0, 1e100, 1e154])
    def test_below_the_overflow_kappa_is_the_plain_form_bit_for_bit(self, lam):
        c = self.SPD_M2
        plain = math.sqrt(c.tau * c.tau - 2.0 * lam * c.r + lam * lam * c.s * c.s) / (c.gamma + lam * c.eta)
        assert contraction_factor(c, lam) == plain

    def test_radicand_floor_is_taken_over_lambda_squared(self):
        # past the overflow the radicand is -19 over lam^2; an unscaled floor, -tau^2*2e-9, would
        # pass it
        corrupt = types.SimpleNamespace(gamma=1, tau=1e150, r=1e201, s=1, eta=1)
        with pytest.raises(InconsistentConstantsError, match="negative radicand"):
            contraction_factor(corrupt, 1e200)

    @pytest.mark.parametrize("lam", [1e200, 1e308])
    def test_large_lambda_limit_is_s_over_eta(self, lam):
        # lam^2*s^2 overflows past lam*s of about 1.3e154, while kappa -> s/eta as lam -> inf
        assert abs(contraction_factor(self.SPD_M2, lam) - 0.6) <= 4 * math.ulp(0.6)

    @pytest.mark.parametrize("lam", [1.4e154, 1e156, 1e160, 1e200, 1e308])
    def test_past_the_overflow_kappa_is_the_exact_one(self, lam):
        # tau = 1e150 and r = tau/2 keep the tau and r terms visible just past the overflow
        c = OperatorConstants(gamma=3, tau=1e150, r=5e149, s=1, eta=0.7)
        exact = exact_kappa(c, lam)
        assert abs(contraction_factor(c, lam) - exact) <= 4 * math.ulp(exact)

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3, 1e100])
    def test_past_the_overflow_of_tau_over_lam_kappa_is_the_exact_one(self, lam):
        # tau^2 and (tau/lam)^2 overflow too here: every term is taken over max(tau, lam*s)^2
        c = OperatorConstants(1, 1e200, 1, 1e200, 1)
        exact = exact_kappa(c, lam)
        assert abs(contraction_factor(c, lam) - exact) <= 4 * math.ulp(exact)

    @pytest.mark.parametrize("c, lam", [
        (OperatorConstants(1, 1e200, 1, 1e200, 1), 1e199), (OperatorConstants(1, 1e200, 1, 1e200, 1), 1e200),
        (OperatorConstants(gamma=1e8, tau=1.7e308, r=1e308, s=1.9, eta=1e-300), 1.5e308),
        (OperatorConstants(1, 1e200, 1, 1, 1), 1e-3), (OperatorConstants(1, 1e200, 1, 1, 1), 1.0)])
    def test_past_each_overflow_kappa_is_the_exact_one(self, c, lam):
        # lam*s itself overflows, yet kappa is finite: about s/eta = 1e200 for the first two, and with
        # the r and gamma terms visible in the third (2*lam*r against lam^2*s^2, gamma against lam*eta);
        # in the last two tau^2 alone overflows, and tau's own exponent sets the scale
        exact = exact_kappa(c, lam)
        assert abs(contraction_factor(c, lam) - exact) <= 4 * math.ulp(exact)

    @pytest.mark.parametrize("eta", [1e300, 1.5e308])
    def test_past_the_overflow_eta_is_scaled_down_only(self, eta):
        # lam^2 overflows with s < 1 and tau < lam, so the denominator is taken over lam*eta's own power of
        # two: eta is never scaled up, which would overflow it. kappa = sqrt(1 - 2e149 + 1e300)/(1 + 1e160*eta)
        # is s/eta to within 1e-149 relative, a subnormal
        kappa = contraction_factor(OperatorConstants(1, 1, 1e-11, 1e-10, eta), 1e160)
        assert abs(kappa - 1e-10 / eta) <= 4 * math.ulp(0.0)

    @pytest.mark.parametrize("c, lam", [
        (OperatorConstants(1e-100, 1e-100, 1, 1e100, 1), 1e-170),
        (OperatorConstants(1, 1.2e154, 1, 1, 1), 1e-160),
        (OperatorConstants(7.928790497061357e-158, 1.379560376550614e151, 1, 1, 1e-100), 7.636726054827598e-162)])
    def test_below_the_underflow_of_lam_squared_kappa_is_the_exact_one(self, c, lam):
        # lam*lam underflows below lam = 2^-511. In the first, lam^2*s^2 = 1e-140, the largest term, would go
        # with it, and the radicand would read tau^2 - 2*lam*r = -2e-170: "negative radicand". tau^2 would
        # overflow in the second; in the third gamma + lam*eta is near the subnormals and kappa is 1.7e308
        exact = exact_kappa(c, lam)
        assert abs(contraction_factor(c, lam) - exact) <= 4 * math.ulp(exact)

    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(c=scale_free_constants(), lam=positive)
    def test_no_negative_radicand_at_any_scale(self, c, lam):
        kappa = contraction_factor(c, lam)
        assert kappa >= 0.0

    def test_past_the_largest_float_kappa_is_inf(self):
        # kappa is s/eta = 1e350 to within 1e-80 relative, past the largest float
        assert contraction_factor(OperatorConstants(1e-30, 1e-30, 5e269, 1e300, 1e-50), 1e100) == math.inf

    # lam subnormal, with lam*eta = 1e-20 the denominator's largest term: only lam's exponent keeps it normal
    @example(c=OperatorConstants(1e-300, 1, 1e-10, 1, 1e300), lam=1e-320)
    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(c=scale_free_constants(), lam=positive)
    def test_kappa_is_the_exact_one_at_any_scale(self, c, lam):
        # |kappa - exact| <= 4*ulp(exact), widened where the radicand cancels by its rounding carried through the
        # square root (oracles.kappa_cancellation_rounding); kappa never raises "negative radicand"
        exact = exact_kappa(c, lam)
        kappa = contraction_factor(c, lam)
        assert kappa == exact or abs(kappa - exact) <= 4 * math.ulp(exact) + kappa_cancellation_rounding(c, lam)

    @settings(max_examples=200)
    @given(c=constants, lam=st.floats(min_value=1e-3, max_value=1e3))
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


    # gamma = 2, tau = 2.5, eta = 0.5, so that eta^2, gamma*eta and gamma^2 each differ from
    # eta/eta, gamma/eta and gamma/gamma. s = 2.5: s^2 - eta^2 = 6, r + gamma*eta = 5.25 and
    # disc = 5.25^2 - 6*2.25 = 3.75^2; s = 1.5: s^2 - eta^2 = 2, r + gamma*eta = 2.125 and
    # disc = 2.125^2 - 2*2.25 = 0.125^2, below 1. Every figure is exact in binary
    @pytest.mark.parametrize("r, s, interval", [(4.25, 2.5, (0.25, 1.5)), (1.125, 1.5, (1.0, 1.125))])
    def test_interval_with_gamma_and_eta_not_one(self, r, s, interval):
        c = OperatorConstants(gamma=2.0, tau=2.5, r=r, s=s, eta=0.5)
        assert feasible_lambda(c) == interval
        # kappa = 1 at both ends: 2.125/2.125 and 2.75/2.75, or 2.5/2.5 and 2.5625/2.5625
        assert [contraction_factor(c, lam) for lam in interval] == [1.0, 1.0]


    @pytest.mark.parametrize("c, interval", [
        # tau^2 - gamma^2 was inf - inf, and the upper end NaN; in units of powers of two no term passes 4
        (OperatorConstants(1e160, 1e160, 1e300, 1e140, 1), (0.0, 2e20)),
        # s^2 - eta^2 underflowed to 0, a ZeroDivisionError; the upper end, about 2.2e350, is past the largest float
        (OperatorConstants(1e100, 1e100, 1e-150, 1e-250, 1e-251), (0.0, math.inf)),
        # gamma above tau, within the consistency tolerance, puts center - radius below 0
        (OperatorConstants(1 + 5e-10, 1, 1, 2, 1), (0.0, 1.3333333339166667))])
    def test_ends_are_the_exact_ones_at_any_scale(self, c, interval):
        assert feasible_lambda(c) == exact_feasible_lambda(c) == interval

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(c=scale_free_constants())
    def test_interval_is_none_or_ordered_at_any_scale(self, c):
        interval = feasible_lambda(c)
        assert interval is None or 0.0 <= interval[0] < interval[1]  # and neither end NaN

    def test_tangent_constants_have_no_interval(self):
        # gamma = eta = 0.5, tau = s = 2.5, r = 5.75: disc = 6^2 - 6*6 = 0 exactly, and kappa
        # touches 1 at lam* = 6/6 = 1 without going below it
        c = OperatorConstants(gamma=0.5, tau=2.5, r=5.75, s=2.5, eta=0.5)
        assert feasible_lambda(c) is None
        assert optimal_lambda(c) == (1.0, 1.0)


class TestOptimalLambda:
    # tau or s past about 1.3e154, so that tau^2 or s^2 overflows, in constants OperatorConstants accepts:
    # lam* = inf/inf, with the r terms visible (r*gamma = 2e308 against eta*tau^2 = 5e309 and r*eta
    # = 5e307 against gamma*s^2 = 8e308) and with lam* far from 1; inf/finite at lam* = 100;
    # finite/inf = 0 at lam* = 0.01; and tau/s past 1e154
    HUGE = [OperatorConstants(1, 1e200, 1, 1e200, 1), OperatorConstants(2, 1e155, 1e308, 2e154, 0.5),
            OperatorConstants(2, 3e160, 1e300, 1e158, 0.5), OperatorConstants(0.5, 7e170, 3e200, 2e160, 3.0),
            OperatorConstants(1, 1e155, 1, 1e154, 1), OperatorConstants(1, 1e154, 1, 1e155, 1),
            OperatorConstants(1, 1e300, 1, 1e145, 1e-10)]

    @pytest.mark.parametrize("c", HUGE)
    def test_past_the_overflow_lam_star_is_the_exact_one(self, c):
        exact = exact_optimal_lambda(c)
        lam, kappa = optimal_lambda(c)
        assert abs(lam - exact) <= 4 * math.ulp(exact)
        assert kappa == contraction_factor(c, lam)
        assert abs(kappa - exact_kappa(c, lam)) <= 4 * math.ulp(kappa)

    def test_below_the_underflow_of_lam_squared_lam_star_is_the_exact_one(self):
        # lam* = 1e-200, where kappa raised "negative radicand -1e-200". There the radicand cancels to about
        # 1e-17 of its terms, so kappa is held to the exact one within the rounding of those terms
        c = OperatorConstants(1e-100, 1e-100, 1, 1e100, 1)
        lam, kappa = optimal_lambda(c)
        assert abs(lam - exact_optimal_lambda(c)) <= 4 * math.ulp(lam)
        assert kappa == contraction_factor(c, lam)
        rounding = 4 * math.sqrt(np.finfo(float).eps) * max(c.tau, lam * c.s) / (c.gamma + lam * c.eta)
        assert abs(kappa - exact_kappa(c, lam)) <= rounding

    # s^2 overflows while tau is ordinary; s^2*gamma + r*eta underflows to 0; and lam* = 2.8e161, where lam^2*s^2
    # overflows and the radicand tau^2 - 2*lam*r + lam^2*s^2 = 0.39 - 0.78 + 0.39 cancels to about 0
    @example(c=OperatorConstants(0.5, 0.5, 0.25, 4.4989137945431964e+161, 0.5))
    @example(c=OperatorConstants(0.5, 0.5, 1.1113793747425387e-162, 2.2227587494850775e-162, 2.2227587494850775e-162))
    @example(c=OperatorConstants(0.5, 0.625, 1.3892242184281734e-162, 2.2227587494850775e-162, 1))
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(c=scale_free_constants())
    def test_lam_star_is_the_exact_one_at_any_scale(self, c):
        # never raises: lam* is within 4 ulps of the exact one where that is a normal float, and clamped to the
        # positive floats where it is not
        lam, kappa = optimal_lambda(c)
        try:
            exact = exact_optimal_lambda(c)
        except OverflowError:  # past the largest float
            exact = math.inf
        clamped = min(max(exact, math.ulp(0.0)), np.finfo(float).max)
        assert math.ulp(0.0) <= lam and abs(lam - clamped) <= 4 * math.ulp(clamped)
        assert kappa == contraction_factor(c, lam)

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

    @pytest.mark.parametrize("r, s, lam_star", [(4.25, 2.5, 31 / 39), (1.125, 1.5, 86 / 81)])
    def test_minimiser_with_gamma_and_eta_not_one(self, r, s, lam_star):
        # lam* = (r*gamma + eta*tau^2)/(s^2*gamma + r*eta): 11.625/14.625 and 5.375/5.0625
        c = OperatorConstants(gamma=2.0, tau=2.5, r=r, s=s, eta=0.5)
        lam, kappa = optimal_lambda(c)
        assert lam == pytest.approx(lam_star, rel=1e-15)
        assert kappa == contraction_factor(c, lam) < 1.0
        # a brute scan of kappa over the feasible interval finds nothing lower
        lo, hi = feasible_lambda(c)
        assert min(contraction_factor(c, x) for x in np.linspace(lo, hi, 2001)) >= kappa - 1e-12

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(c=constants)
    def test_interval_is_where_kappa_is_below_one(self, c):
        # for s > eta: kappa = 1 at each unclipped end and < 1 at the midpoint, or no lam at
        # all gives kappa < 1 when the interval is None
        if not c.s > c.eta:
            return
        interval = feasible_lambda(c)
        if interval is None:
            assert optimal_lambda(c)[1] >= 1.0 - 1e-9
            return
        lo, hi = interval
        for end in (lo, hi):
            if end > 0.0:
                assert abs(contraction_factor(c, end) - 1.0) <= 1e-9
        assert contraction_factor(c, 0.5 * (lo + hi)) < 1.0

    @settings(max_examples=300)
    @given(c=constants, lam=st.floats(min_value=1e-4, max_value=1e4))
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
                wall_nanos=[0] * n, steps_used=n - 1, converged=False, kappa=0.5, casting=casting("FH"),
            )

        report = rate_compare(trace([1.0, math.inf, 1.0, math.inf, 1.0, 0.5]),
                              trace([2.0, 2.0, math.inf, math.inf, math.nan, 1.0]))
        assert report.pi == [0.5, None, None, None, None, 0.5]

    @pytest.mark.parametrize("errors_a, errors_b, verdict, ratio", [
        # one uncensored ratio measures no rate: pi_0 = 1 for any pair from one x_0
        ([1.0], [1.0], "undecided", None),
        ([1.0, 0.0, 0.0], [1.0, 0.5, 0.0], "undecided", None),
        # two are the fewest that fit one: (1/4) / 1 over one step
        ([1.0, 0.25], [1.0, 1.0], "a-faster", 0.25),
        ([1.0, 1.0, 0.0], [1.0, 1.0, 0.0], "same-rate", 1.0),
    ])
    def test_fewer_than_two_ratios_give_no_fit(self, errors_a, errors_b, verdict, ratio):
        def trace(errors):
            n = len(errors)
            return IterationTrace(
                algorithm="FH", iterates=[np.zeros(1)] * n, residuals=[0.0] * n, errors=errors,
                wall_nanos=[0] * n, steps_used=n - 1, converged=True, kappa=0.5, casting=casting("FH"),
            )

        report = rate_compare(trace(errors_a), trace(errors_b))
        assert report.verdict == verdict
        if ratio is None:
            assert math.isnan(report.fitted_ratio)
        else:
            assert report.fitted_ratio == pytest.approx(ratio, rel=1e-12)

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


def _made_trace(algorithm, coordinates, errors, xi=None, mu=None):
    """An IterationTrace built directly, with 1-d coordinates and the casting of ``algorithm`` under (xi, mu)."""
    n = len(coordinates)
    return IterationTrace(algorithm=algorithm, iterates=[np.array([coordinates[-1]])], residuals=[0.0] * n,
                          errors=list(errors), wall_nanos=[0] * n, steps_used=n - 1, converged=False,
                          kappa=0.5, casting=casting(algorithm, xi, mu),
                          coordinates=[np.array([v]) for v in coordinates])


class TestCertificateTolerances:
    """Each certificate tolerance held to a literal of the test's own, never read from the module:
    a looser tolerance, or a check that passes an excess of 1e-6, fails here."""

    def test_audit_slack_value(self):
        assert DEFAULT_AUDIT_SLACK == 1e-8 + 10 * 1e-12

    def test_envelope_flags_an_excess_of_1e_minus_6(self):
        # FH at kappa = 0.5 from e0 = 1: bounds 1, 0.5, 0.25, 0.125, held with equality but at the end
        trace = _made_trace("FH", [0.0] * 4, [1.0, 0.5, 0.25, 0.125 + 1e-6])
        bounds, passed = check_envelope(trace, 0.5)
        assert bounds.tolist() == [1.0, 0.5, 0.25, 0.125]
        assert passed.tolist() == [True, True, True, False]

    @pytest.mark.parametrize("error_q, error_s, gap, forward, symmetric", [
        (0.0, 0.0, 0.75, 0, 0), (0.0, 0.0, 0.75 + 1e-6, 0, 1), (0.0, 0.0, 0.875 + 1e-6, 1, 1),
        (0.5, 0.25, 1.046875, 0, 0), (0.5, 0.25, 1.046875 + 1e-6, 1, 0), (0.5, 0.25, 1.09375 + 1e-6, 1, 1),
    ])
    def test_audit_flags_an_excess_of_1e_minus_6(self, error_q, error_s, gap, forward, symmetric):
        # ZGY (q) against NEW (s) at xi = mu = kappa = 0.5, the gap going from 1 to ``gap``:
        # the forward bound is (1 - xi*mu*(1 - kappa)) + (1 - xi)(1 + kappa*(1 - mu*(1 - kappa))) e_s
        # = 0.875 + 0.6875 e_s and the symmetric one (1 - mu*(1 - kappa)) + 0.6875 e_q = 0.75 + 0.6875 e_q,
        # each held with equality or exceeded by 1e-6
        half = make_step_sequence("constant", value=0.5)
        q = _made_trace("ZGY", [1.0, gap], [error_q, 0.0], half, half)
        s = _made_trace("NEW", [0.0, 0.0], [error_s, 0.0], mu=half)
        report = equivalence_audit(q, s, 0.5)
        assert report.recursion_checked
        assert (report.violations_forward, report.violations_symmetric) == (forward, symmetric)

    def test_an_excess_of_exactly_the_slack_passes(self):
        # errors and gaps from 0 to the slack, where every bound is 0: each meets its bound plus slack
        slack = 1e-8 + 10 * 1e-12
        half = make_step_sequence("constant", value=0.5)
        bounds, passed = check_envelope(_made_trace("FH", [0.0] * 2, [0.0, slack]), 0.5)
        assert bounds.tolist() == [0.0, 0.0] and passed.tolist() == [True, True]
        report = equivalence_audit(_made_trace("ZGY", [0.0, slack], [0.0, 0.0], half, half),
                                   _made_trace("NEW", [0.0, 0.0], [0.0, 0.0], mu=half), 0.5)
        assert report.recursion_checked and report.violations == 0

    @pytest.mark.parametrize("kappa", [1.0, 1.5])
    def test_no_envelope_checked_at_kappa_one_or_above(self, kappa):
        assert check_envelope(_made_trace("FH", [0.0] * 2, [1.0, 10.0]), kappa) is None

    @pytest.mark.parametrize("kappa", [1.0, 1.5])
    def test_no_recursion_checked_at_kappa_one_or_above(self, kappa):
        # no recursion holds without a contraction, so a pair far past every bound is not checked
        half = make_step_sequence("constant", value=0.5)
        q = _made_trace("ZGY", [1.0, 10.0], [0.0, 0.0], half, half)
        s = _made_trace("NEW", [0.0, 0.0], [0.0, 0.0], mu=half)
        report = equivalence_audit(q, s, kappa)
        assert not report.recursion_checked and report.violations == 0

    @pytest.mark.parametrize("gap, converged", [(2e-8, False), (1e-8, True), (5e-9, True)])
    def test_default_gap_tolerance(self, gap, converged):
        half = make_step_sequence("constant", value=0.5)
        q = _made_trace("ZGY", [1.0, gap], [0.0, 0.0], half, half)
        s = _made_trace("NEW", [0.0, 0.0], [0.0, 0.0], mu=half)
        assert equivalence_audit(q, s, 0.5).gap_converged is converged


class TestRecordedCastings:
    """Each check reads the (xi, mu) casting that its run records, never a pair restated by the caller."""

    def test_envelope_of_a_harmonic_mann_run(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        harmonic = make_step_sequence("harmonic", offset=1)
        trace = run_scheme("MANN", p, [4.0], xi=harmonic, stop=StoppingRule(tol=-1.0, max_steps=30))
        kappa = p.contraction_factor()
        bounds, passed = check_envelope(trace, kappa)
        expected = envelope("MANN", kappa, harmonic, None, trace.errors[0], trace.steps_used)
        assert bounds.tobytes() == expected.tobytes() and passed.all()
        # (1, 0), FH's casting, gives other bounds
        assert not np.array_equal(bounds, envelope("FH", kappa, None, None, trace.errors[0], trace.steps_used))

    def test_castings_of_unequal_mu_are_not_paired(self):
        # ZGY at mu = 0.5 and NEW at mu = 0.9 satisfy no recursion together; at one mu they do
        p = gen_spd_linear(50, seed=3)
        half, most = (make_step_sequence("constant", value=v) for v in (0.5, 0.9))
        x0, kappa = np.zeros(50), p.contraction_factor()
        new = run_scheme("NEW", p, x0, mu=most)
        report = equivalence_audit(run_scheme("ZGY", p, x0, half, half), new, kappa)
        assert not report.recursion_checked and report.violations == 0
        report = equivalence_audit(run_scheme("ZGY", p, x0, half, most), new, kappa)
        assert report.recursion_checked and report.violations == 0


class TestEquivalenceAudit:
    def test_scalar_gap_and_recursions(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        xi = make_step_sequence("constant", value=0.5)
        mu = make_step_sequence("constant", value=0.5)
        stop = StoppingRule(tol=-1.0, max_steps=50)
        q = run_zgy(p, [4.0], xi, mu, stop)
        s = run_new(p, [4.0], mu, stop)
        report = equivalence_audit(q, s, p.contraction_factor())
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
        report = equivalence_audit(q, s, p.contraction_factor())
        assert report.violations == 0
        assert report.gap_converged

    def test_identical_traces_zero_gap(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        mu = make_step_sequence("constant", value=0.5)
        stop = StoppingRule(tol=-1.0, max_steps=10)
        s = run_new(p, [4.0], mu, stop)
        report = equivalence_audit(s, s, p.contraction_factor())
        assert report.gaps[-1] == 0.0
        assert all(g == 0.0 for g in report.gaps)

    def test_truncation_flagged(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        mu = make_step_sequence("constant", value=0.5)
        xi = make_step_sequence("constant", value=0.5)
        q = run_zgy(p, [4.0], xi, mu, StoppingRule(tol=-1.0, max_steps=8))
        s = run_new(p, [4.0], mu, StoppingRule(tol=-1.0, max_steps=12))
        report = equivalence_audit(q, s, p.contraction_factor())
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
                equivalence_audit(*pair, p.contraction_factor())

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
            report = equivalence_audit(traces[a], traces[b], p.contraction_factor())
            x_gaps = np.linalg.norm(xs[a] - xs[b], axis=1)
            scale = np.linalg.norm(xs[a], axis=1) + np.linalg.norm(xs[b], axis=1)
            assert np.all(np.abs(report.gaps - x_gaps) <= 32 * np.finfo(float).eps / 2 * scale), (a, b)


def _poisoned(draw, values, specials):
    """``values`` with up to two entries replaced by non-finite ``specials``."""
    spots = st.tuples(st.integers(0, len(values) - 1), st.sampled_from(specials))
    for i, v in draw(st.lists(spots, max_size=2)):
        values[i] = v
    return values


@st.composite
def _trace(draw, dim, xi, mu):
    """An IterationTrace built directly, cast under (xi, mu), with coordinates and errors that may be inf or NaN."""
    n = draw(st.integers(1, 12))
    flat = draw(st.lists(st.floats(-10.0, 10.0), min_size=n * dim, max_size=n * dim))
    coordinates = list(np.array(_poisoned(draw, flat, [math.inf, -math.inf, math.nan])).reshape(n, dim))
    errors = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    errors = None if draw(st.integers(0, 4)) == 0 else _poisoned(draw, errors, [math.inf, math.nan])
    algorithm = draw(st.sampled_from(tuple(CASTINGS)))
    return IterationTrace(
        algorithm=algorithm, iterates=coordinates[-1:], residuals=[0.0] * n,
        errors=errors, wall_nanos=[0] * n, steps_used=n - 1, converged=False, kappa=0.0,
        casting=casting(algorithm, xi, mu), coordinates=coordinates,
    )


def _audit_loop(trace_a, trace_b, kappa):
    """The audit as a per-step loop over Python floats, pairing the runs as the CLI
    once did: the reference for ``equivalence_audit``'s array form.

    Returns (gaps, recursion_checked, violations and maxima of the forward and
    the symmetric form).
    """
    params = None
    for q, s in ((trace_a, trace_b), (trace_b, trace_a)):
        xi_q, mu_q = q.casting
        xi_s, mu_s = s.casting
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


class TestStepTableReference:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data(), name=st.sampled_from(tuple(CASTINGS)), xi=sequences, mu=sequences,
           kappa=st.floats(0.0, 1.0, exclude_max=True), n=st.integers(0, 300))
    def test_bounds_and_terms_match_the_per_term_forms_bit_for_bit(self, data, name, xi, mu, kappa, n):
        # tables are read up to 300 steps past their end, which repeats their last entry
        for seq in (xi, mu):
            terms = [seq.value(k) for k in range(n)]
            assert all(type(t) is float for t in terms)  # an int n takes the scalar path
            assert np.broadcast_to(seq.value(np.arange(n)), (n,)).tobytes() == np.array(terms).tobytes()
        e0 = data.draw(st.floats(0.0, 10.0))
        bounds = envelope(name, kappa, xi, mu, e0, n)
        assert bounds.tobytes() == per_term_envelope(name, kappa, xi, mu, e0, n).tobytes()
        errors = data.draw(st.lists(st.floats(0.0, 10.0), min_size=n + 1, max_size=n + 1))
        bounds, passed = check_envelope(_made_trace(name, [0.0] * (n + 1), errors, xi, mu), kappa)
        reference = per_term_envelope(name, kappa, xi, mu, errors[0], n)
        assert bounds.tobytes() == reference.tobytes()
        assert passed.tolist() == (np.array(errors) - reference <= DEFAULT_AUDIT_SLACK).tolist()


class TestEquivalenceAuditReference:
    @staticmethod
    def _fields(report):
        return (report.gaps, report.recursion_checked, report.violations_forward,
                report.violations_symmetric, report.max_violation_forward,
                report.max_violation_symmetric)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), xi=sequences, mu=sequences,
           kappa=st.floats(0.0, 1.0, exclude_max=True))
    def test_array_form_matches_scalar_loop(self, data, dim, xi, mu, kappa):
        a, b = data.draw(_trace(dim, xi, mu)), data.draw(_trace(dim, xi, mu))
        report = equivalence_audit(a, b, kappa)
        swapped = equivalence_audit(b, a, kappa)
        # gaps compare NaN-aware; counts and maxima exactly
        np.testing.assert_equal(self._fields(report), _audit_loop(a, b, kappa))
        np.testing.assert_equal(self._fields(swapped), _audit_loop(b, a, kappa))
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
