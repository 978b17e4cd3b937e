import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmsolve.operators import (
    AffineLinear,
    DiagonalNonlinear,
    LinearMonotone,
    OperatorConstants,
    ScaledIdentity,
    ScaledIdentityMulti,
    ShiftedSubdifferential,
)
from hmsolve.resolvent import (
    CLOSED_FORM,
    NEWTON,
    SEPARABLE,
    ResolventDivergenceError,
    ResolventEngine,
    resolvent_lipschitz_bound,
)


def _tanh_op():
    return DiagonalNonlinear(
        lambda t: t + np.tanh(t), lambda t: 1 + 1 / np.cosh(t) ** 2, (1.0, 2.0)
    )


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
        lo, hi = -1.0, 1.0
        while g(lo) > target:
            lo *= 2.0
        while g(hi) < target:
            hi *= 2.0
        t = 0.5 * (lo + hi)
        while abs(g(t) - target) > eng.inner_tolerance:
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
        assert eng.inclusion_residual(x, [3.0]) <= 1e-10

    def test_diagonal_linear_per_coordinate(self):
        # (h_i + 2) x_i = u_i with h = diag(1, 4)
        eng = ResolventEngine(AffineLinear(np.diag([1.0, 4.0])), ScaledIdentityMulti(1), 2.0, dim=2)
        assert np.allclose(eng.resolve((3, 6)), [1, 1], atol=1e-12)

    def test_subdifferential_zero_coordinate_exact(self):
        # |u| <= lam pins x at 0 with the clipped selection closing the inclusion
        eng = ResolventEngine(ScaledIdentity(1), ShiftedSubdifferential(1.0), 1.0, dim=1)
        x = eng.resolve([0.5])
        assert x[0] == 0.0
        assert eng.inclusion_residual(x, [0.5]) <= 1e-12

    def test_strategy_auto_selection(self):
        assert ResolventEngine(ScaledIdentity(1), ScaledIdentityMulti(1), 1.0, dim=2).strategy == CLOSED_FORM
        assert ResolventEngine(ScaledIdentity(1), ShiftedSubdifferential(1), 1.0, dim=2).strategy == SEPARABLE
        assert ResolventEngine(_tanh_op(), LinearMonotone(np.eye(2)), 1.0, dim=2).strategy == NEWTON
        assert ResolventEngine(_tanh_op(), ScaledIdentityMulti(1), 1.0, dim=2).strategy == SEPARABLE
        with pytest.raises(ValueError):
            ResolventEngine(AffineLinear(np.eye(2)), ShiftedSubdifferential(1), 1.0, dim=2)

    def test_newton_matches_inclusion(self):
        eng = ResolventEngine(_tanh_op(), LinearMonotone(np.diag([1.0, 2.0])), 0.7, dim=2)
        u = np.array([1.3, -2.4])
        x = eng.resolve(u)
        assert eng.inclusion_residual(x, u) <= eng.inner_tolerance

    def test_separable_nonlinear_scalar_solve(self):
        eng = ResolventEngine(_tanh_op(), ShiftedSubdifferential(0.5), 1.0, dim=3)
        u = np.array([4.0, -3.0, 0.2])
        x = eng.resolve(u)
        assert eng.inclusion_residual(x, u) <= 10 * eng.inner_tolerance
        assert x[2] == 0.0  # inside the dead zone

    def test_roundtrip_inverse_composition(self):
        # resolve(H(x) + lam*m(x)) = x for single-valued m
        for h, m in [
            (ScaledIdentity(1.5), ScaledIdentityMulti(0.5)),
            (_tanh_op(), ScaledIdentityMulti(1.0)),
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
        eng = ResolventEngine(_tanh_op(), m, 1.3, dim=dim)
        assert np.array_equal(eng.resolve(u), _scalar_reference(eng, u))

    def test_separable_cap_names_coordinate(self):
        eng = ResolventEngine(_tanh_op(), ScaledIdentityMulti(1), 1.0, dim=2, max_inner_steps=1)
        with pytest.raises(ResolventDivergenceError, match=r"coordinate 1: \|g\(t\) - target\|"):
            eng.resolve(np.array([0.0, 7.5]))

    @pytest.mark.parametrize("m", [ScaledIdentityMulti(0.5), ShiftedSubdifferential(0.5)])
    @pytest.mark.parametrize("bad", [np.nan, 1e80, np.inf, -np.inf])
    def test_separable_unsolvable_coordinate_raises(self, m, bad):
        # NaN and +-inf have no root; 1e80 has none within 200 doublings
        eng = ResolventEngine(_tanh_op(), m, 1.0, dim=3)
        with pytest.raises(ResolventDivergenceError, match="coordinate 1: "):
            eng.resolve(np.array([0.3, bad, -2.0]))

    def test_divergence_error_on_tiny_cap(self):
        eng = ResolventEngine(
            _tanh_op(), LinearMonotone(np.eye(2)), 1.0, dim=2, max_inner_steps=1
        )
        with pytest.raises(ResolventDivergenceError):
            eng.resolve(np.array([10.0, -10.0]))

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            ResolventEngine(ScaledIdentity(1), ScaledIdentityMulti(1), 0.0, dim=1)


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
    h = DiagonalNonlinear(lambda t: t + a * np.tanh(t),
                          lambda t: 1.0 + a * (1.0 - np.tanh(t) ** 2), (1.0, 1.0 + a))
    m = ShiftedSubdifferential(c) if subdifferential else ScaledIdentityMulti(c)
    u = np.array(u)
    eng = ResolventEngine(h, m, lam, dim=u.shape[0])
    assert eng.strategy == SEPARABLE
    x = eng.resolve(u)
    assert eng.inclusion_residual(x, u) <= 10 * eng.inner_tolerance
    dead = np.abs(u) <= (lam if subdifferential else 0.0)
    assert np.all(x[dead] == 0.0)
