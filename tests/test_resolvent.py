import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from hmsolve import resolvent
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
)
from hmsolve.schemes import make_step_sequence, run_scheme
from oracles import inclusion_residual, resolvent_lipschitz_bound


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
        assert ResolventEngine(_tanh_op(), LinearMonotone(np.eye(2)), 1.0, dim=2).strategy == NEWTON
        assert ResolventEngine(_tanh_op(), ScaledIdentityMulti(1), 1.0, dim=2).strategy == SEPARABLE
        with pytest.raises(ValueError):
            ResolventEngine(AffineLinear(np.eye(2)), ShiftedSubdifferential(1), 1.0, dim=2)

    def test_newton_matches_inclusion(self):
        eng = ResolventEngine(_tanh_op(), LinearMonotone(np.diag([1.0, 2.0])), 0.7, dim=2)
        u = np.array([1.3, -2.4])
        x = eng.resolve(u)
        assert inclusion_residual(eng, x, u) <= eng.inner_tolerance

    def test_separable_nonlinear_scalar_solve(self):
        eng = ResolventEngine(_tanh_op(), ShiftedSubdifferential(0.5), 1.0, dim=3)
        u = np.array([4.0, -3.0, 0.2])
        x = eng.resolve(u)
        assert inclusion_residual(eng, x, u) <= 10 * eng.inner_tolerance
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

    def test_separable_cap_names_coordinate(self, monkeypatch):
        monkeypatch.setattr(ResolventEngine, "max_inner_steps", 1)
        eng = ResolventEngine(_tanh_op(), ScaledIdentityMulti(1), 1.0, dim=2)
        with pytest.raises(ResolventDivergenceError, match=r"coordinate 1: \|g\(t\) - target\|"):
            eng.resolve(np.array([0.0, 7.5]))

    @pytest.mark.parametrize("m", [ScaledIdentityMulti(0.5), ShiftedSubdifferential(0.5)])
    @pytest.mark.parametrize("bad", [np.nan, 1e80, np.inf, -np.inf])
    def test_separable_unsolvable_coordinate_raises(self, m, bad):
        # 1e80 has no root within 200 doublings; NaN and +-inf have none at all,
        # and give a non-finite x as the closed forms do
        eng = ResolventEngine(_tanh_op(), m, 1.0, dim=3)
        u = np.array([0.3, bad, -2.0])
        if np.isfinite(bad):
            with pytest.raises(ResolventDivergenceError, match="coordinate 1: "):
                eng.resolve(u)
        else:
            assert not np.isfinite(eng.resolve(u)[1])

    @pytest.mark.parametrize("m,strategy", [(ScaledIdentityMulti(0.5), SEPARABLE),
                                            (LinearMonotone(np.eye(3)), NEWTON)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_skips_inner_solve(self, m, strategy, bad):
        # no inner solve evaluates H, and no RuntimeWarning (an error under this suite)
        h = _tanh_op()
        h.f = h.fprime = None
        eng = ResolventEngine(h, m, 1.0, dim=3)
        assert eng.strategy == strategy
        assert not np.isfinite(eng.resolve(np.array([0.3, bad, -2.0]))).any()

    def test_divergence_error_on_tiny_cap(self, monkeypatch):
        monkeypatch.setattr(ResolventEngine, "max_inner_steps", 1)
        eng = ResolventEngine(_tanh_op(), LinearMonotone(np.eye(2)), 1.0, dim=2)
        with pytest.raises(ResolventDivergenceError):
            eng.resolve(np.array([10.0, -10.0]))

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
    h = DiagonalNonlinear(lambda t: t + a * np.tanh(t),
                          lambda t: 1.0 + a * (1.0 - np.tanh(t) ** 2), (1.0, 1.0 + a))
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
    h = DiagonalNonlinear(lambda t: t + 0.5 * np.tanh(t),
                          lambda t: 1.0 + 0.5 * (1.0 - np.tanh(t) ** 2), (1.0, 1.5))
    eng = ResolventEngine(h, m, 50.0, dim=4)
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = scale * rng.standard_normal(4)
        x = eng.resolve(u)
        assert inclusion_residual(eng, x, u) <= 10 * eng.inner_tolerance * max(1.0, np.linalg.norm(u))


def _counting_lu(monkeypatch):
    """Count every ``lu_factor`` call the resolvent module makes in the returned list."""
    factored = []
    lu_factor_ = resolvent.lu_factor
    monkeypatch.setattr(resolvent, "lu_factor",
                        lambda *args, **kwargs: factored.append(1) or lu_factor_(*args, **kwargs))
    return factored


def _x_space_f(engine, a_op):
    """x -> F(x) from the engine's fixed_point_map (Q, G): G itself, or Q G(Q^T x)."""
    q, g = engine.fixed_point_map(a_op)
    return g if q is None else lambda x: q @ g(q.T @ x)


def _assert_close(x, y):
    assert np.linalg.norm(x - y) <= 1e-13 * max(1.0, np.linalg.norm(y))


def _built(op):
    """Whether ``op``'s n x n matrix exists; an eigenpair-only weight builds it on first read."""
    return "matrix" in vars(op)


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
    q = p.h.eigenpair[0]
    a = AffineLinear(offset=p.a.offset, eigenpair=(q, np.linspace(0.5, 3.5, dim)))
    return dataclasses.replace(p, a=a)


class TestSpectralAffineMap:
    """spd-linear's H and A share one eigenbasis Q: T = Q diag(t) Q^T from it, no LU, no dense H or A."""

    @pytest.mark.parametrize("dim", [1, 7, 200])
    @pytest.mark.parametrize("t_signs", ["positive", "negative", "mixed"])
    def test_f_map_matches_dense_spectral_form(self, dim, t_signs):
        p = _spectral_problem(dim, t_signs)
        (q, h), a = p.h.eigenpair, p.a.eigenpair[1]
        k = h + p.lam * p.m.scale
        t = (h - p.lam * a) / k
        if dim > 1:  # one eigenvalue has one sign
            assert set(np.sign(t)) == {"positive": {1.0}, "negative": {-1.0}, "mixed": {1.0, -1.0}}[t_signs]
        q = np.asarray(q)
        dense_t = (q * t) @ q.T
        c = q @ ((q.T @ (p.lam * p.a.offset)) / k)
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
        f = _x_space_f(p.engine, p.a)
        # the same matrices without eigenpairs take the LU path
        lu_engine = ResolventEngine(AffineLinear(p.h.matrix), p.m, p.lam, dim)
        lu_f = _x_space_f(lu_engine, AffineLinear(p.a.matrix, p.a.offset))
        for x in _probes(dim):
            _assert_close(f(x), lu_f(x))

    def test_f_map_builds_no_n_by_n_array(self):
        dim = 300
        p = _spectral_problem(dim, "mixed")
        x = np.linspace(-1.0, 1.0, dim)
        tracemalloc.start()
        try:
            for _ in range(2):  # the first call builds t and c_hat
                p.f_map(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * dim * dim

    def test_spd_linear_factors_nothing(self, monkeypatch):
        factored = _counting_lu(monkeypatch)
        p = gen_spd_linear(50, seed=2)
        p.f_map(np.zeros(50))
        assert factored == []
        assert not (_built(p.h) or _built(p.a))

    def test_other_affine_problems_keep_lu_or_scalar_path(self, monkeypatch):
        factored = _counting_lu(monkeypatch)
        p = gen_spd_linear(6, seed=1)
        q, offset = p.h.eigenpair[0], p.a.offset
        spectral = _x_space_f(p.engine, p.a)
        # equal bases that are not one object (here the dense Q); an A without an
        # eigenpair; a matrix M = I
        for a, m in [(AffineLinear(offset=offset, eigenpair=(np.array(q), p.a.eigenpair[1])), p.m),
                     (AffineLinear(p.a.matrix, offset), p.m),
                     (p.a, LinearMonotone(np.eye(6)))]:
            f = _x_space_f(ResolventEngine(p.h, m, 0.6, 6), a)
            for x in _probes(6):
                _assert_close(f(x), spectral(x))
        assert len(factored) == 3
        # scalar weights stay a division, a scalar H and M with a matrix A too
        for engine, a, dim in [(gen_scalar_affine(lam=0.5).engine, gen_scalar_affine().a, 1),
                               (ResolventEngine(ScaledIdentity(1.0), ScaledIdentityMulti(1.0), 0.5, 3),
                                AffineLinear(2.0 * np.eye(3), [1.0, 2.0, 3.0]), 3)]:
            f = _x_space_f(engine, a)
            for x in _probes(dim):
                _assert_close(f(x), engine.resolve(engine.h.apply(x) - engine.lam * a.apply(x)))
        assert len(factored) == 3


class TestEigenbasisRuns:
    """spd-linear runs iterate in y = Q^T x; the same H and A as dense matrices take the LU path."""

    @pytest.mark.parametrize("name", ["FH", "MANN", "NEW", "ZGY"])
    @pytest.mark.parametrize("dim", [1, 7, 200])
    @pytest.mark.parametrize("t_signs", ["positive", "negative", "mixed"])
    def test_matches_dense_path(self, name, dim, t_signs):
        p = _spectral_problem(dim, t_signs)
        dense = dataclasses.replace(p, h=AffineLinear(p.h.matrix),
                                    a=AffineLinear(p.a.matrix, p.a.offset))
        assert p.coordinates()[0] is p.h.eigenpair[0] and dense.coordinates()[0] is None
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
