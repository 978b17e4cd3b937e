import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from hmsolve.analysis import optimal_lambda
from hmsolve.operators import (
    AffineLinear,
    DiagonalNonlinear,
    LinearMonotone,
    OperatorConstants,
    ScaledIdentity,
    ScaledIdentityMulti,
    ShiftedSubdifferential,
)
from hmsolve.problems import gen_scalar_affine, gen_spd_linear
from hmsolve.resolvent import (
    CLOSED_FORM,
    NEWTON,
    SEPARABLE,
    ResolventDivergenceError,
    ResolventEngine,
    vector_norm,
)
from hmsolve.schemes import make_step_sequence, run_scheme
from oracles import dense_q, in_x, inclusion_residual, recorded, resolvent_lipschitz_bound, tanh_h, traced_peak


def _scalar_reference(eng, u):
    """Coordinate-by-coordinate separable resolve: the vectorised solver's oracle."""
    c, w = (eng.m.shift, 1.0) if isinstance(eng.m, ShiftedSubdifferential) else (eng.m.scale, 0.0)
    lam = eng.lam
    g = lambda t: float(eng.h.f(np.array([t]))[0]) + lam * c * t
    gp = lambda t: float(eng.h.fprime(np.array([t]))[0]) + lam * c
    out = np.zeros_like(u)
    for i, ui in enumerate(u):
        if abs(ui - g(0.0)) <= lam * w:
            continue
        target = ui - lam * w * np.sign(ui - g(0.0))
        reach = (target - g(0.0)) / (eng.h.deriv_range[0] + lam * c)
        lo, hi, t = min(0.0, reach), max(0.0, reach), 0.0
        while abs(g(t) - target) > eng.inner_tolerance * max(1.0, abs(target)):
            ft, d = g(t) - target, gp(t)
            hi, lo = (t, lo) if ft > 0 else (hi, t)
            cand = t - ft / d
            t = cand if lo < cand < hi else 0.5 * (lo + hi)
        out[i] = t
    return out


class TestResolve:
    def test_identity_pair(self):
        # (I + I) x = u
        eng = ResolventEngine(ScaledIdentity(1), ScaledIdentityMulti(1), 1.0, dim=2)
        assert np.allclose(eng.resolve((2, 4)), [1, 2], atol=1e-12)

    def test_soft_threshold_scalar(self):
        # solve (1 + lam*c) x + lam*d|x| in u for u=3, c=1, lam=1:
        # x = softthreshold(3, 1)/(1 + 1) = 1; check 1 + 1*(1 + 1) = 3
        eng = ResolventEngine(ScaledIdentity(1), ShiftedSubdifferential(1.0), 1.0, dim=1)
        x = eng.resolve([3.0])
        assert x[0] == pytest.approx(1.0, abs=1e-12)
        assert 1.0 + 1.0 * (1.0 * 1.0 + 1.0) == 3.0
        assert inclusion_residual(eng, x, [3.0]) <= 1e-10

    def test_diagonal_linear_per_coordinate(self):
        # (h_i + 2) x_i = u_i with h = diag(1, 4)
        eng = ResolventEngine(AffineLinear(np.diag([1.0, 4.0])), ScaledIdentityMulti(1), 2.0, dim=2)
        assert np.allclose(eng.resolve((3, 6)), [1, 1], atol=1e-12)

    def test_subdifferential_zero_coordinate_exact(self):
        # |u| <= lam pins x at 0 with the clipped selection closing the inclusion
        eng = ResolventEngine(ScaledIdentity(1), ShiftedSubdifferential(1.0), 1.0, dim=1)
        x = eng.resolve([0.5])
        assert x[0] == 0.0
        assert inclusion_residual(eng, x, [0.5]) <= 1e-12

    @pytest.mark.parametrize("h, m, lam", [(1.0, 1.0, 1.0), (1.5, 0.5, 0.8), (1.0, 1.0, 0.6),
                                           (0.3, 2.0, 1 / 3)])
    @pytest.mark.parametrize("n", [1, 7, 200])
    def test_scalar_closed_form_matches_dense_lu(self, h, m, lam, n):
        # K = (h + lam*m) I stays a scalar; the LU of the dense K is the oracle
        rng = np.random.default_rng(n)
        b, u = rng.standard_normal(n), 10.0 * rng.standard_normal(n)
        eng = ResolventEngine(AffineLinear(h, b), ScaledIdentityMulti(m), lam, dim=n)
        assert eng.strategy == CLOSED_FORM
        dense_k = h * np.eye(n) + lam * (m * np.eye(n))
        assert np.array_equal(eng.resolve(u), lu_solve(lu_factor(dense_k), u + b))

    def test_diagonal_division_keeps_the_sign_of_zero(self):
        # with w = 0 the closed form is (u + b_H + lam*b_M)/k alone, bit for bit: -0 offsets
        # and a -0 input give -0, as nothing adds a +0 to them
        h = AffineLinear(np.array([2.0, 3.0]), [-0.0, 1.0])
        m = AffineLinear(np.array([1.0, 0.5]), [-0.0, -2.0])
        eng = ResolventEngine(h, m, 0.5, dim=2)
        assert eng.strategy == CLOSED_FORM
        x = eng.resolve(np.array([-0.0, 4.0]))
        assert np.array_equal(x, [0.0, 4.0 / 3.25]) and np.signbit(x[0])

    @pytest.mark.parametrize("m, strategy", [(ScaledIdentityMulti(0.7), CLOSED_FORM),
                                             (ShiftedSubdifferential(0.7), SEPARABLE)])
    def test_scalar_h_offset_resolves(self, m, strategy):
        # H x = 1.5 x - b: a resolve that dropped b would leave residual ||b||
        rng = np.random.default_rng(3)
        b, u = rng.standard_normal(6), 3.0 * rng.standard_normal(6)
        eng = ResolventEngine(AffineLinear(1.5, b), m, 0.9, dim=6)
        assert eng.strategy == strategy
        x = eng.resolve(u)
        assert inclusion_residual(eng, x, u) <= 1e-12

    def test_strategy_auto_selection(self):
        assert ResolventEngine(ScaledIdentity(1), ScaledIdentityMulti(1), 1.0, dim=2).strategy == CLOSED_FORM
        assert ResolventEngine(ScaledIdentity(1), ShiftedSubdifferential(1), 1.0, dim=2).strategy == SEPARABLE
        assert ResolventEngine(tanh_h(1.0), LinearMonotone(np.eye(2)), 1.0, dim=2).strategy == NEWTON
        assert ResolventEngine(tanh_h(1.0), ScaledIdentityMulti(1), 1.0, dim=2).strategy == SEPARABLE
        with pytest.raises(ValueError):
            ResolventEngine(AffineLinear(np.eye(2)), ShiftedSubdifferential(1), 1.0, dim=2)

    def test_newton_matches_inclusion(self):
        eng = ResolventEngine(tanh_h(1.0), LinearMonotone(np.diag([1.0, 2.0])), 0.7, dim=2)
        u = np.array([1.3, -2.4])
        x = eng.resolve(u)
        assert inclusion_residual(eng, x, u) <= eng.inner_tolerance

    def test_separable_nonlinear_scalar_solve(self):
        eng = ResolventEngine(tanh_h(1.0), ShiftedSubdifferential(0.5), 1.0, dim=3)
        u = np.array([4.0, -3.0, 0.2])
        x = eng.resolve(u)
        assert inclusion_residual(eng, x, u) <= 10 * eng.inner_tolerance
        assert x[2] == 0.0  # inside the dead zone

    def test_roundtrip_inverse_composition(self):
        # resolve(H(x) + lam*m(x)) = x for single-valued m
        for h, m in [
            (ScaledIdentity(1.5), ScaledIdentityMulti(0.5)),
            (tanh_h(1.0), ScaledIdentityMulti(1.0)),
        ]:
            eng = ResolventEngine(h, m, 0.8, dim=4)
            x = np.array([0.3, -1.2, 2.0, 0.0])
            u = h.apply(x) + 0.8 * m.selection(x)
            assert np.allclose(eng.resolve(u), x, atol=1e-9)

    @pytest.mark.parametrize("m", [ScaledIdentityMulti(0.7), ShiftedSubdifferential(0.7)])
    @pytest.mark.parametrize("dim", [10, 100])
    def test_separable_matches_scalar_reference(self, m, dim):
        rng = np.random.default_rng(dim)
        u = 3.0 * rng.standard_normal(dim)
        u[::7] = 0.0
        eng = ResolventEngine(tanh_h(1.0), m, 1.3, dim=dim)
        assert np.array_equal(eng.resolve(u), _scalar_reference(eng, u))

    def test_separable_cap_names_coordinate(self, monkeypatch):
        monkeypatch.setattr(ResolventEngine, "max_inner_steps", 1)
        eng = ResolventEngine(tanh_h(1.0), ScaledIdentityMulti(1), 1.0, dim=2)
        with pytest.raises(ResolventDivergenceError, match=r"coordinate 1: \|g\(t\) - target\|"):
            eng.resolve(np.array([0.0, 7.5]))

    @pytest.mark.parametrize("m", [ScaledIdentityMulti(0.5), ShiftedSubdifferential(0.5)])
    @pytest.mark.parametrize("bad", [np.nan, 1e308, np.inf, -np.inf])
    def test_separable_unsolvable_coordinate_raises(self, m, bad):
        # g' >= 0.5 + 0.1*0.5 brackets the root of 1e308 by (1e308 - g(0))/0.55, which
        # overflows; NaN and +-inf have no root at all, and give a non-finite x as the
        # closed forms do. Neither may raise a RuntimeWarning (an error under this suite)
        h = DiagonalNonlinear(lambda t: 0.5 * (t + np.tanh(t)),
                              lambda t: 0.5 * (2 - np.tanh(t) ** 2), (0.5, 1.0))
        eng = ResolventEngine(h, m, 0.1, dim=3)
        u = np.array([0.3, bad, -2.0])
        if np.isfinite(bad):
            with pytest.raises(ResolventDivergenceError, match="no finite bracket at coordinate 1: "):
                eng.resolve(u)
        else:
            assert not np.isfinite(eng.resolve(u)[1])

    @pytest.mark.parametrize("m", [ScaledIdentityMulti(0.5), ShiftedSubdifferential(0.5)])
    def test_separable_far_target_solved(self, m):
        # a 1e80 target is bracketed by gamma + lam*eta at once; f' = 2 - tanh^2 cannot overflow
        h = DiagonalNonlinear(lambda t: t + np.tanh(t), lambda t: 2 - np.tanh(t) ** 2, (1.0, 2.0))
        eng = ResolventEngine(h, m, 1.0, dim=3)
        u = np.array([0.3, 1e80, -2.0])
        x = eng.resolve(u)
        assert inclusion_residual(eng, x, u) <= eng.inner_tolerance * 1e80
        assert x[1] == pytest.approx(1e80 / 1.5, rel=1e-12)

    @pytest.mark.parametrize("m", [ScaledIdentityMulti(0.5), ShiftedSubdifferential(0.5)])
    def test_separable_overstated_gamma_raises(self, m):
        # f' = 2 - tanh^2 has infimum 1, not the declared 1.9: the bracket of a target near
        # 100 ends near 100/2.4 = 42, where g is near 63, and the solve raises rather than
        # return an x outside the inner tolerance
        h = DiagonalNonlinear(lambda t: t + np.tanh(t), lambda t: 2 - np.tanh(t) ** 2, (1.9, 2.0))
        eng = ResolventEngine(h, m, 1.0, dim=3)
        with pytest.raises(ResolventDivergenceError, match="relative tolerance .* coordinate 1: "):
            eng.resolve(np.array([0.3, 100.0, -2.0]))

    @pytest.mark.parametrize("m,strategy", [(ScaledIdentityMulti(0.5), SEPARABLE),
                                            (LinearMonotone(np.eye(3)), NEWTON)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_skips_inner_solve(self, m, strategy, bad):
        # no inner solve evaluates H, and no RuntimeWarning (an error under this suite)
        h = tanh_h(1.0)
        h.f = h.fprime = None
        eng = ResolventEngine(h, m, 1.0, dim=3)
        assert eng.strategy == strategy
        assert not np.isfinite(eng.resolve(np.array([0.3, bad, -2.0]))).any()

    def test_divergence_error_on_tiny_cap(self, monkeypatch):
        monkeypatch.setattr(ResolventEngine, "max_inner_steps", 1)
        eng = ResolventEngine(tanh_h(1.0), LinearMonotone(np.eye(2)), 1.0, dim=2)
        with pytest.raises(ResolventDivergenceError):
            eng.resolve(np.array([10.0, -10.0]))

    def test_newton_backtracks_an_overshooting_step(self):
        # g(t) = 11t - 10 tanh t + 0.1t has g'(0) = 1.1: the full Newton step from 0 to the
        # target 100 lands at 100/1.1, where g is near 990, and Armijo halves it three times
        points = []
        f = lambda t: points.append(float(t[0])) or 11 * t - 10 * np.tanh(t)
        h = DiagonalNonlinear(f, lambda t: 11 - 10 / np.cosh(t) ** 2, (1.0, 11.0))
        eng = ResolventEngine(h, LinearMonotone(0.1 * np.eye(1)), 1.0, dim=1)
        assert eng.strategy == NEWTON
        x = eng.resolve(np.array([100.0]))
        assert points[1] == pytest.approx(100 / 1.1, rel=1e-14)
        assert points[2:5] == [points[1] * t for t in (0.5, 0.25, 0.125)]
        assert inclusion_residual(eng, x, np.array([100.0])) <= eng.inner_tolerance * 100

    @pytest.mark.parametrize("scale", [1e100, 1e154, 1e200, 1e300])
    def test_newton_solves_past_the_overflow_of_the_squares(self, scale):
        # ||u||^2 and ||g||^2 overflow from ||u|| ~ 1.3e154 on: the tolerance and the merit stay
        # finite, so the solve meets its relative tolerance where it once returned x = 0 unsolved
        eng = ResolventEngine(tanh_h(1.0), LinearMonotone(2.0 * np.eye(3)), 1.0, dim=3)
        assert eng.strategy == NEWTON
        u = scale * np.array([1.0, -2.0, 0.3])
        with np.errstate(over="ignore"):  # as hmsolve.cli.main runs
            x = eng.resolve(u)
            residual = vector_norm(eng.h.apply(x) + 2.0 * x - u)
            assert residual <= eng.inner_tolerance * vector_norm(u)
        np.testing.assert_allclose(x, (u - np.sign(u)) / 3.0, rtol=1e-12)  # 3x + tanh(x) = u

    def test_newton_backtracks_alike_past_the_overflow_of_the_squares(self):
        # the overshooting step above at the target 1e200, where ||g||^2 = 1e400 is no float: the
        # merit, taken over a power of two, still rejects the full step and halves it three times
        points = []
        f = lambda t: points.append(float(t[0])) or 11 * t - 10 * np.tanh(t)
        h = DiagonalNonlinear(f, lambda t: 11 - 10 / np.cosh(t) ** 2, (1.0, 11.0))
        eng = ResolventEngine(h, LinearMonotone(0.1 * np.eye(1)), 1.0, dim=1)
        with np.errstate(over="ignore"):  # as hmsolve.cli.main runs
            x = eng.resolve(np.array([1e200]))
        assert points[1] == pytest.approx(1e200 / 1.1, rel=1e-14)
        assert points[2:5] == [points[1] * t for t in (0.5, 0.25, 0.125)]
        assert x[0] == pytest.approx((1e200 + 10.0) / 11.1, rel=1e-12)

    def test_newton_line_search_stalls_on_an_ascent_direction(self):
        # an H that declares f' = -1 for f(t) = t makes the Jacobian -1 + 0.5: every Newton
        # step climbs, and no step length down to 1e-12 meets the Armijo test
        h = DiagonalNonlinear(lambda t: t, lambda t: -np.ones_like(t), (1.0, 1.0))
        eng = ResolventEngine(h, LinearMonotone(0.5 * np.eye(2)), 1.0, dim=2)
        with pytest.raises(ResolventDivergenceError, match="Armijo line search stalled"):
            eng.resolve(np.array([1.0, -2.0]))

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            ResolventEngine(ScaledIdentity(1), ScaledIdentityMulti(1), 0.0, dim=1)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_nonfinite_lambda(self, lam):
        with pytest.raises(ValueError, match="lam must be finite"):
            ResolventEngine(ScaledIdentity(1), ScaledIdentityMulti(1), lam, dim=1)


class TestLipschitzBound:
    def test_half(self):
        c = OperatorConstants(1, 1, 1, 1, 1)
        assert resolvent_lipschitz_bound(c, 1.0) == 0.5

    def test_small_lambda_limit(self):
        c = OperatorConstants(1, 1, 1, 1, 1)
        assert resolvent_lipschitz_bound(c, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_scalar_arithmetic_oracle(self):
        c = OperatorConstants(gamma=2, tau=2, r=1, s=3, eta=3)
        assert resolvent_lipschitz_bound(c, 4.0) == pytest.approx(1 / 14)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            resolvent_lipschitz_bound(OperatorConstants(1, 1, 1, 1, 1), 0.0)


class TestNonexpansiveness:
    @pytest.mark.parametrize(
        "h,m,constants",
        [
            (ScaledIdentity(1), ScaledIdentityMulti(1), OperatorConstants(1, 1, 1, 1, 1)),
            (
                ScaledIdentity(1),
                ShiftedSubdifferential(2.0),
                OperatorConstants(1, 1, 1, 1, 2.0),
            ),
        ],
    )
    def test_lipschitz_audit(self, h, m, constants):
        lam = 0.7
        eng = ResolventEngine(h, m, lam, dim=10)
        bound = resolvent_lipschitz_bound(constants, lam)
        rng = np.random.default_rng(11)
        for _ in range(300):
            u = rng.standard_normal(10)
            v = rng.standard_normal(10)
            lhs = np.linalg.norm(eng.resolve(u) - eng.resolve(v))
            assert lhs <= bound * np.linalg.norm(u - v) + 2 * eng.inner_tolerance


_entries = st.one_of(
    st.just(0.0),
    st.floats(min_value=-0.5, max_value=0.5),  # in the subdifferential dead zone for all lam
    st.floats(min_value=-20.0, max_value=20.0),
)


@settings(max_examples=200, deadline=None)
@given(
    u=st.lists(_entries, min_size=1, max_size=12),
    a=st.floats(min_value=0.0, max_value=2.0),
    c=st.floats(min_value=0.1, max_value=2.0),
    lam=st.floats(min_value=0.5, max_value=3.0),
    subdifferential=st.booleans(),
)
def test_separable_inclusion_property(u, a, c, lam, subdifferential):
    # H(t) = t + a*tanh(t) per coordinate, g(0) = 0: the dead zone is |u| <= lam*w
    h = tanh_h(a)
    m = ShiftedSubdifferential(c) if subdifferential else ScaledIdentityMulti(c)
    u = np.array(u)
    eng = ResolventEngine(h, m, lam, dim=u.shape[0])
    assert eng.strategy == SEPARABLE
    x = eng.resolve(u)
    # each coordinate stops at a residual of inner_tolerance relative to its target
    assert inclusion_residual(eng, x, u) <= 10 * eng.inner_tolerance * max(1.0, np.linalg.norm(u))
    dead = np.abs(u) <= (lam if subdifferential else 0.0)
    assert np.all(x[dead] == 0.0)


@pytest.mark.parametrize("scale", [1e4, 1e5])
@pytest.mark.parametrize("m", [ScaledIdentityMulti(1.0), LinearMonotone(np.eye(4))],
                         ids=[SEPARABLE, NEWTON])
def test_inner_stop_is_relative(m, scale):
    # rounding keeps |g(t) - target| near |u|*1e-16: an absolute stop at 1e-12 made 31 to 89
    # of these 200 resolves raise, at the step cap or in a stalled line search
    h = tanh_h(0.5)
    eng = ResolventEngine(h, m, 50.0, dim=4)
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = scale * rng.standard_normal(4)
        x = eng.resolve(u)
        assert inclusion_residual(eng, x, u) <= 10 * eng.inner_tolerance * max(1.0, np.linalg.norm(u))


_scales = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def _soft_threshold_case(draw):
    """(engine, A, x): H = diag(h) - b_H, A = diag(a) - b, M = c*t + d|t|, x possibly with one non-finite entry.

    h and a are scalars or vectors, lam and c lie in [1e-3, 1e3], and the coordinates where x
    is 0 and |b| <= 1/2 put u = H x - lam*A x + b_H = lam*b deep in the dead zone |u| <= lam.
    """
    dim = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    weight = lambda: draw(_scales) if draw(st.booleans()) else 10.0 ** rng.uniform(-1.0, 1.0, dim)
    h, a = AffineLinear(weight(), draw(st.sampled_from([None, rng.standard_normal(dim)]))), weight()
    b = rng.uniform(-3.0, 3.0, dim) * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    x = rng.uniform(-3.0, 3.0, dim) * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    dead = rng.random(dim) < 0.5
    x[dead], b[dead] = 0.0, rng.uniform(-0.5, 0.5, dead.sum())
    x[rng.integers(dim)] = draw(st.sampled_from([0.0, np.nan, np.inf, -np.inf]))
    eng = ResolventEngine(h, ShiftedSubdifferential(draw(_scales)), draw(_scales), dim)
    return eng, AffineLinear(a, b), x


@settings(max_examples=300, deadline=None)
@given(case=_soft_threshold_case())
def test_soft_threshold_diagonal_form_matches_resolve(case):
    # G(x) = shrink(t*x + c_hat, lam/k) against resolve(H x - lam*A x) = shrink(u, lam)/k
    eng, a, x = case
    lam, k = eng.lam, eng.h.weight + eng.lam * eng.m.shift
    offset_h = 0.0 if eng.h.offset is None else eng.h.offset
    given_x = x.copy()
    with np.errstate(invalid="ignore", over="ignore"):  # 0*inf and inf - inf give NaN
        g = eng.fixed_point_map(a)(x)
        ref = eng.resolve(eng.h.apply(x) - lam * a.apply(x))
        u = eng.h.apply(x) - lam * a.apply(x) + offset_h  # what resolve thresholds
    assert np.array_equal(x, given_x, equal_nan=True)  # shrink works in place on its own vector only
    # resolve's soft threshold is sign(u)*max(|u| - lam, 0)/k bit for bit, the sign of a zero aside
    assert np.array_equal(ref, np.sign(u) * np.maximum(np.abs(u) - lam, 0.0) / k, equal_nan=True)
    finite = np.isfinite(x)
    assert not np.isfinite(g[~finite]).any() and not np.isfinite(ref[~finite]).any()
    # each form rounds every term of u/k, and lam/k, a few times: an error of a few ulps of their sum
    terms = (np.abs(eng.h.weight * x) + lam * np.abs(a.weight * x) + lam * np.abs(a.offset)
             + np.abs(offset_h) + lam) / k
    assert np.all(np.abs(g - ref)[finite] <= 8 * np.finfo(float).eps * np.broadcast_to(terms, x.shape)[finite])
    # deep in the dead zone both are 0, the diagonal form +0
    deep = finite & (x == 0.0) & (np.abs(a.offset) <= 0.5)
    assert np.all(ref[deep] == 0.0) and not np.signbit(g[deep]).any() and np.all(g[deep] == 0.0)


def _assert_close(x, y):
    assert np.linalg.norm(x - y) <= 1e-13 * max(1.0, np.linalg.norm(y))


def _built(op):
    """Whether ``op`` holds an n x n array."""
    return any(np.ndim(value) == 2 for value in vars(op).values())


def _probes(dim, seed=0):
    rng = np.random.default_rng(seed)
    return [scale * rng.standard_normal(dim) for scale in (0.0, 1e-3, 1.0, 1e3)]


def _spectral_problem(dim, t_signs):
    """spd-linear whose T has eigenvalues t = (h - lam*a)/(h + lam*m) of the given signs."""
    if t_signs == "negative":  # c_a = 2, lam = 1: t = -h/(h + m)
        return gen_spd_linear(dim, seed=dim, c_a=2.0, lam=1.0)
    p = gen_spd_linear(dim, seed=dim, lam=0.6)
    if t_signs == "positive":
        return p
    # the same Q, with a != c_a*h: h - lam*a runs from 0.7 down to -0.9
    return dataclasses.replace(p, a=AffineLinear(np.linspace(0.5, 3.5, dim), p.a.offset))


class TestSpectralAffineMap:
    """spd-linear's H and A are vectors in the basis Q: T = Q diag(t) Q^T from them, no LU, no dense H or A."""

    @pytest.mark.parametrize("dim", [1, 7, 200])
    @pytest.mark.parametrize("t_signs", ["positive", "negative", "mixed"])
    def test_f_map_matches_dense_spectral_form(self, dim, t_signs):
        p = _spectral_problem(dim, t_signs)
        h, a = p.h.weight, p.a.weight
        k = h + p.lam * p.m.scale
        t = (h - p.lam * a) / k
        if dim > 1:  # one eigenvalue has one sign
            assert set(np.sign(t)) == {"positive": {1.0}, "negative": {-1.0}, "mixed": {1.0, -1.0}}[t_signs]
        q = dense_q(p.basis)
        dense_t = (q * t) @ q.T
        c = q @ (p.lam * p.a.offset / k)  # A's offset is Q^T b
        for x in _probes(dim, dim):
            diff = np.linalg.norm(p.f_map(x) - (dense_t @ x + c))
            assert diff <= 1e-13 * max(1.0, np.linalg.norm(x))
        assert not (_built(p.h) or _built(p.a))

    @pytest.mark.parametrize("dim", [1, 7, 200])
    @pytest.mark.parametrize("lam, c_a, m", [(0.6, 1.0, 1.0), (0.05, 2.0, 0.5), (1.0, 1.0, 1.0),
                                             (3.0, 0.3, 2.0), (50.0, 5.0, 1.0), ("auto", 1.0, 0.7)])
    def test_matches_lu_path(self, dim, lam, c_a, m):
        p = gen_spd_linear(dim, eigen_range=(1.0, 3.0), seed=dim, c_a=c_a, m=m)
        if lam == "auto":  # the replaced problem's engine gets the new lam
            p = dataclasses.replace(p, lam=optimal_lambda(p.constants)[0])
            assert p.engine.lam == p.lam != 0.6
        else:
            p = dataclasses.replace(p, lam=lam)
        # the same problem as dense matrices in x takes the LU path
        dense = in_x(p)
        assert dense.engine.lam == p.lam and dense.engine.strategy == CLOSED_FORM
        for x in _probes(dim):
            _assert_close(p.f_map(x), dense.f_map(x))

    def test_f_map_builds_no_n_by_n_array(self):
        dim = 300
        p = _spectral_problem(dim, "mixed")
        x = np.linspace(-1.0, 1.0, dim)
        peak = traced_peak(lambda: [p.f_map(x) for _ in range(2)])[1]  # the first call builds t and c_hat
        assert peak < 8 * dim * dim

    def test_spd_linear_factors_nothing(self, monkeypatch):
        factored = recorded(monkeypatch, scipy.linalg, "lu_factor")
        p = gen_spd_linear(50, seed=2)
        p.f_map(np.zeros(50))
        assert factored == []
        assert not (_built(p.h) or _built(p.a))

    def test_other_affine_problems_keep_lu_or_scalar_path(self, monkeypatch):
        factored = recorded(monkeypatch, scipy.linalg, "lu_factor")
        p = gen_spd_linear(6, seed=1)
        diagonal = p.engine.fixed_point_map(p.a)  # G in Q's coordinates
        # a matrix H or M takes the LU path; a matrix A with a vector H and a scalar M, the
        # resolve form with a division by the vector k
        for h, a, m, lu in [(AffineLinear(np.diag(p.h.weight)), p.a, p.m, 1),
                            (p.h, p.a, LinearMonotone(np.eye(6)), 1),
                            (p.h, AffineLinear(np.diag(p.a.weight), p.a.offset), p.m, 0)]:
            f = ResolventEngine(h, m, 0.6, 6).fixed_point_map(a)
            before = len(factored)
            for y in _probes(6):
                _assert_close(f(y), diagonal(y))
            assert len(factored) == before + lu
        # scalar weights stay a division, a scalar H and M with a matrix A too
        for engine, a, dim in [(gen_scalar_affine(lam=0.5).engine, gen_scalar_affine().a, 1),
                               (ResolventEngine(ScaledIdentity(1.0), ScaledIdentityMulti(1.0), 0.5, 3),
                                AffineLinear(2.0 * np.eye(3), [1.0, 2.0, 3.0]), 3)]:
            f = engine.fixed_point_map(a)
            for x in _probes(dim):
                _assert_close(f(x), engine.resolve(engine.h.apply(x) - engine.lam * a.apply(x)))
        assert len(factored) == 2


class TestEigenbasisRuns:
    """spd-linear runs iterate in y = Q^T x; the same H and A as dense matrices in x take the LU path."""

    @pytest.mark.parametrize("name", ["FH", "MANN", "NEW", "ZGY"])
    @pytest.mark.parametrize("dim", [1, 7, 200])
    @pytest.mark.parametrize("t_signs", ["positive", "negative", "mixed"])
    def test_matches_dense_path(self, name, dim, t_signs):
        p = _spectral_problem(dim, t_signs)
        dense = in_x(p)
        assert p.coordinates()[0] is p.basis and dense.coordinates()[0] is None
        half = make_step_sequence("constant", value=0.5)
        x0 = np.random.default_rng(dim).standard_normal(dim)
        spectral, lu = (run_scheme(name, problem, x0, half, half) for problem in (p, dense))
        assert (spectral.steps_used, spectral.converged, spectral.diverged) == (
            lu.steps_used, lu.converged, lu.diverged)
        assert spectral.converged
        assert np.array_equal(lu.coordinates[0], x0)  # without a basis y = x
        # x_n = Q y_n of the spectral run against the LU run's x_n
        mapped = (p.coordinates()[0] @ np.array(spectral.coordinates).T).T
        tol = 1e-13 * max(1.0, np.linalg.norm(p.known_solution))
        for field, got in [("residuals", spectral.residuals), ("errors", spectral.errors),
                           ("iterates", spectral.iterates), ("coordinates", mapped)]:
            gap = np.abs(np.array(got) - np.array(getattr(lu, field)))
            assert gap.max() <= tol, field

    def test_errors_are_those_of_the_iterates(self):
        # bench's oracle recomputes the last error from the last iterate; the earlier
        # errors are those of the coordinates y_n against y* = Q^T x*
        p = gen_spd_linear(50, seed=4)
        half = make_step_sequence("constant", value=0.5)
        for name in ("FH", "MANN", "NEW", "ZGY"):
            trace = run_scheme(name, p, np.ones(50), half, half)
            assert trace.steps_used > 0 and len(trace.errors) == len(trace.coordinates)
            assert len(trace.iterates) == 1
            assert trace.errors[-1] == float(np.linalg.norm(trace.iterates[-1] - p.known_solution))
            for y, error in zip(trace.coordinates[:-1], trace.errors):
                assert error == float(np.linalg.norm(y - p._solution_coordinates))
