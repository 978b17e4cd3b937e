import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import lapack

from hmsolve import problems
from hmsolve.operators import AffineLinear
from hmsolve.problems import ReflectorBasis, gen_scalar_affine, gen_soft_threshold, gen_spd_linear
from hmsolve.schemes import StoppingRule, make_step_sequence, run_scheme
from oracles import validate_constants


@pytest.mark.parametrize("problem", [gen_scalar_affine(), gen_soft_threshold(dim=40)])
def test_identity_a_has_no_dense_matrix(problem):
    # A(u) = u - b keeps its weight a scalar: no n x n array anywhere on it
    assert problem.a.matrix is None and problem.a.scale == 1.0
    assert all(np.ndim(value) < 2 for value in vars(problem.a).values())


class TestScalarAffine:
    def test_default_solution(self):
        # 0 in (u - b) + u  =>  u = b/2
        p = gen_scalar_affine(b=2.0, lam=1.0)
        assert p.known_solution[0] == 1.0

    def test_half_b(self):
        assert gen_scalar_affine(b=0.5).known_solution[0] == 0.25

    def test_fixed_point_residual(self):
        p = gen_scalar_affine(b=3.0, lam=0.5)
        assert np.linalg.norm(p.f_map(p.known_solution) - p.known_solution) <= 1e-12

    def test_unit_constants(self):
        c = gen_scalar_affine().constants
        assert (c.gamma, c.tau, c.r, c.s, c.eta) == (1, 1, 1, 1, 1)


class TestSpdLinear:
    def test_solution_solves_inclusion(self):
        # A(u*) + m u* = 0 componentwise for the single-valued part
        p = gen_spd_linear(12, seed=3)
        u = p.known_solution
        assert np.linalg.norm(p.a.apply(u) + 1.0 * u) <= 1e-10

    @pytest.mark.parametrize("dim, c_a, m", [(1, 1.0, 1.0), (7, 2.0, 0.5), (200, 0.3, 2.0)])
    def test_solution_solves_linear_system_to_rounding(self, dim, c_a, m):
        # x* comes from H's eigenpair; (c_a*H + m*I) x* = b is checked on the dense H
        p = gen_spd_linear(dim, seed=dim, c_a=c_a, m=m)
        x, b = p.known_solution, p.a.offset
        assert np.linalg.norm(c_a * (p.h.matrix @ x) + m * x - b) <= 1e-13 * max(1.0, np.linalg.norm(b))

    @pytest.mark.parametrize("dim", [1, 7, 200])
    def test_dense_h_is_built_on_first_read(self, dim):
        # bit for bit the symmetrised (Q h) Q^T that the generator once built up front
        p = gen_spd_linear(dim, seed=dim)
        assert "matrix" not in vars(p.h) and "matrix" not in vars(p.a)
        q, h = p.h.eigenpair
        q = np.asarray(q)
        dense = (q * h) @ q.T
        assert np.array_equal(p.h.matrix, (dense + dense.T) / 2.0)
        assert "matrix" not in vars(p.a)

    @pytest.mark.parametrize("dim", [1, 2, 300])
    def test_constants_read_off_the_eigenpairs(self, dim, monkeypatch):
        # the closed forms bit for bit, with no eigvalsh, no dorgqr and no dense H or A
        def dense_route(*args, **kwargs):
            raise AssertionError("a dense route was taken")

        monkeypatch.setattr(np.linalg, "eigvalsh", dense_route)
        monkeypatch.setattr(problems.lapack, "dorgqr", dense_route)
        c = gen_spd_linear(dim, eigen_range=(0.5, 3.0), seed=dim, c_a=1.5, m=0.7).constants
        tau = 3.0 if dim > 1 else 0.5
        assert (c.gamma, c.tau, c.r, c.s, c.eta) == (0.5, tau, 1.5 * 0.5 * 0.5, 1.5 * tau, 0.7)

    def test_h_and_a_share_one_eigenbasis(self):
        p = gen_spd_linear(9, seed=4, c_a=1.5)
        assert p.h.eigenpair[0] is p.a.eigenpair[0]
        assert np.array_equal(p.a.eigenpair[1], 1.5 * p.h.eigenpair[1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 7, 300])
    def test_basis_is_the_sign_fixed_qr_factor(self, dim, seed):
        # the reflectors, betas and signs are numpy's replay of the same draws to a few ulps
        basis = problems._random_orthogonal(dim, np.random.default_rng(seed))
        buffer, tau = _replay(dim, seed)
        np.testing.assert_array_max_ulp(basis._qr, buffer, maxulp=8)
        np.testing.assert_array_max_ulp(basis._tau, tau, maxulp=8)
        assert np.array_equal(basis._signs, np.sign(np.diag(buffer)))
        # and Q is the sign-fixed QR factor of G = Q_r R, R upper triangular with the betas on
        # its diagonal and fresh normals above: a Gaussian matrix whose QR meets the same draws
        # (Stewart 1980), through numpy's QR; a tolerance, as numpy and scipy may link different
        # LAPACK builds
        upper = np.triu(np.random.default_rng(seed + 100).standard_normal((dim, dim)), 1) + np.diag(np.diag(buffer))
        q, r = np.linalg.qr(_householder_q(buffer, tau, np.ones(dim)) @ upper)
        assert np.max(np.abs(np.asarray(basis) - q * np.sign(np.diag(r)))) <= 1e-13

    @pytest.mark.parametrize("dim", [2, 4])
    def test_basis_is_haar(self, dim):
        # moments of a Haar Q over 4000 seeds: E tr Q = 0, E (tr Q)^2 = 1, E Q_00^2 = 1/n
        # (each about 0.02 by sampling); Q without its signs gives E tr Q = 0.83 at dim 4
        qs = np.array([np.asarray(problems._random_orthogonal(dim, np.random.default_rng(seed)))
                       for seed in range(4000)])
        trace = np.trace(qs, axis1=1, axis2=2)
        assert abs(np.mean(trace)) <= 0.1
        assert abs(np.mean(trace ** 2) - 1.0) <= 0.1
        assert abs(np.mean(qs[:, 0, 0] ** 2) - 1.0 / dim) <= 0.03

    def test_generator_runs_no_qr(self, monkeypatch):
        # n - 1 reflectors from dlarfg, no dgeqrf: O(n^2) work for Q
        calls = {"dgeqrf": 0, "dlarfg": 0}
        for name in calls:
            monkeypatch.setattr(lapack, name, _counted(getattr(lapack, name), calls, name))
        gen_spd_linear(40, seed=3)
        assert calls == {"dgeqrf": 0, "dlarfg": 39}

    def test_seed_names_a_fixed_instance(self):
        # a golden pin: a change to the seed -> instance map shows here
        expected = [-0.3593828861116359, -0.25440766869002945, -0.16525191028707714,
                    0.19390648449990344, 0.5076479779289605]
        np.testing.assert_allclose(gen_spd_linear(5, seed=0).known_solution, expected, rtol=1e-14, atol=0)

    def test_basis_is_c_ordered_and_read_only(self):
        q = np.asarray(gen_spd_linear(20, seed=5).h.eigenpair[0])
        assert q.flags.c_contiguous and not q.flags.writeable

    def test_generator_holds_few_n_by_n_buffers(self):
        # one F-ordered buffer for the reflectors and nothing else n x n: a QR of a
        # Gaussian draw peaks at 2 n^2, a copy that f2py makes of a non-Fortran input too
        dim = 300
        gen_spd_linear(2)
        tracemalloc.start()
        try:
            gen_spd_linear(dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * dim * dim

    def test_lapack_failure_raises(self):
        def dgeqrf(a, lwork, overwrite_a):
            return a, np.ones(1), -4

        with pytest.raises(np.linalg.LinAlgError, match="dgeqrf failed with info -4"):
            problems._in_place(dgeqrf, np.eye(2, order="F"))

    def test_fixed_point_residual(self):
        for seed in range(5):
            p = gen_spd_linear(30, seed=seed)
            assert np.linalg.norm(p.f_map(p.known_solution) - p.known_solution) <= 1e-9

    def test_constants_validated_on_instance(self):
        p = gen_spd_linear(15, seed=2)
        report = validate_constants(p.h, p.a, p.m, p.constants, samples=500, seed=0)
        assert report.passed

    def test_seeded_reproducibility(self):
        a = gen_spd_linear(10, seed=42)
        b = gen_spd_linear(10, seed=42)
        assert np.array_equal(a.a.matrix, b.a.matrix)
        assert np.array_equal(a.known_solution, b.known_solution)
        c = gen_spd_linear(10, seed=43)
        assert not np.array_equal(a.a.matrix, c.a.matrix)

    def test_eigen_range_respected(self):
        p = gen_spd_linear(20, eigen_range=(2.0, 5.0), seed=0)
        w = np.linalg.eigvalsh(p.h.matrix)
        assert w.min() == pytest.approx(2.0, abs=1e-9)
        assert w.max() == pytest.approx(5.0, abs=1e-9)
        assert (p.constants.gamma, p.constants.tau) == (2.0, 5.0)

    def test_dim_one_reduces_to_scalar_behavior(self):
        p = gen_spd_linear(1, eigen_range=(1.0, 1.0), seed=0, lam=1.0)
        # H = [1], A = H x - b, M = I: same structure as the scalar instance
        assert p.contraction_factor() == pytest.approx(0.0, abs=1e-9)
        assert np.linalg.norm(p.f_map(p.known_solution) - p.known_solution) <= 1e-12

    def test_contraction_below_one_at_default_lambda(self):
        for seed in range(5):
            assert gen_spd_linear(25, seed=seed).contraction_factor() < 1.0


def _replay(dim, seed):
    """The buffer and tau that the generator's draws give, by numpy: per column j, n - j normals x,
    beta = -sign(x_0) ||x|| on the diagonal, v = x[1:] / (x_0 - beta) below it, tau_j = (beta - x_0) / beta;
    the last column keeps its one draw and tau = 0."""
    rng = np.random.default_rng(seed)
    buffer, tau = np.zeros((dim, dim)), np.zeros(dim)
    for j in range(dim):
        x = rng.standard_normal(dim - j)
        buffer[j, j] = alpha = x[0]
        if j < dim - 1:
            buffer[j, j] = beta = -np.copysign(np.linalg.norm(x), alpha)
            tau[j], buffer[j + 1:, j] = (beta - alpha) / beta, x[1:] / (alpha - beta)
    return buffer, tau


def _householder_q(buffer, tau, signs):
    """(H_0 ... H_{n-1}) diag(signs) for H_j = I - tau_j u u^T, u = (0, ..., 0, 1, buffer[j+1:, j]), by numpy."""
    q = np.eye(len(tau))
    for j in reversed(range(len(tau))):
        u = np.concatenate(([1.0], buffer[j + 1:, j]))
        q[j:] -= tau[j] * np.outer(u, u @ q[j:])
    return q * signs


def _dorgqr_q(basis):
    """The dense Q as earlier versions built it from the same buffer: dorgqr in place, a C-ordered copy, the signs."""
    def optimal(routine, *args):
        return int(routine(*args, lwork=-1, overwrite_a=1)[-2][0])

    qr = basis._qr.copy(order="F")
    q = lapack.dorgqr(qr, basis._tau, lwork=optimal(lapack.dorgqr, qr, basis._tau), overwrite_a=1)[0]
    q = np.ascontiguousarray(q)
    q *= basis._signs
    return q


def _counted(routine, calls, name):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return routine(*args, **kwargs)
    return wrapper


def _close(x, y):
    # rounding level: the reflectors and the explicit Q round differently
    return np.max(np.abs(x - y)) <= 1e-13 * max(1.0, np.linalg.norm(y))


class TestReflectorBasis:
    """spd-linear's Q is Householder reflectors: products by dormqr, a dense Q only when read."""

    @pytest.mark.parametrize("dim", [1, 2, 7, 300])
    def test_dense_forms_are_the_parents_bit_for_bit(self, dim):
        # the parent's dense construction from the buffer, and a Householder product by numpy
        p = gen_spd_linear(dim, seed=dim, c_a=1.5)
        q, h = p.h.eigenpair
        assert isinstance(q, ReflectorBasis) and "_dense" not in vars(q)
        expected = _dorgqr_q(q)
        assert np.max(np.abs(expected - _householder_q(q._qr, q._tau, q._signs))) <= 1e-14
        assert np.array_equal(np.asarray(q), expected)
        assert np.array_equal(np.asarray(q.T), expected.T)
        for op, w in [(p.h, h), (p.a, 1.5 * h)]:
            dense = (expected * w) @ expected.T
            assert np.array_equal(op.matrix, (dense + dense.T) / 2.0)

    @pytest.mark.parametrize("dim", [1, 2, 7, 300])
    def test_products_match_the_dense_q(self, dim):
        p = gen_spd_linear(dim, seed=dim, c_a=2.0, m=0.5)
        q, h = p.h.eigenpair
        dense = _householder_q(q._qr, q._tau, q._signs)
        b = p.a.offset
        rng = np.random.default_rng(dim)
        v, y = rng.standard_normal(dim), rng.standard_normal((70, dim))
        assert _close(q.T @ b, dense.T @ b)
        assert _close(q @ v, dense @ v)
        assert _close(q @ y.T, dense @ y.T) and _close(q.T @ y.T, dense.T @ y.T)
        assert _close(p.known_solution, dense @ ((dense.T @ b) / (2.0 * h + 0.5)))
        assert "_dense" not in vars(q)

    def test_products_leave_their_operands_alone(self):
        q = gen_spd_linear(9, seed=1).h.eigenpair[0]
        v, y = np.linspace(-1.0, 1.0, 9), np.ones((3, 9))
        before = (v.copy(), y.copy())
        q @ v, q.T @ v, q @ y.T, q.T @ y.T
        assert np.array_equal(v, before[0]) and np.array_equal(y, before[1])
        assert q.T.T is q and q.T.shape == q.shape == (9, 9)

    def test_buffer_freed_with_its_instance(self):
        # no reference cycle: the QR's n x n buffer goes when the instance does, not at a
        # later cyclic collection (a cycle raised spd-solve's peak RSS by one buffer)
        gc.disable()
        try:
            p = gen_spd_linear(50, seed=1)
            p.coordinates()
            basis = weakref.ref(p.h.eigenpair[0])
            assert basis().T.T is basis()
            del p
            assert basis() is None
        finally:
            gc.enable()

    def test_no_silent_dense_form(self):
        # only Q @ V, Q.T @ V and .T are offered: anything else raises rather than build Q
        q, h = gen_spd_linear(5, seed=1).h.eigenpair
        for op in (lambda: q * h, lambda: np.ones((2, 5)) @ q, lambda: np.ones((2, 5)) @ q.T,
                   lambda: q + q):
            with pytest.raises(TypeError):
                op()
        assert "_dense" not in vars(q)

    @pytest.mark.parametrize("dim", [1, 7, 200])
    @pytest.mark.parametrize("name", ["FH", "NEW"])
    def test_runs_match_the_dense_q(self, dim, name):
        # the same eigenpairs on the explicit Q: one basis object, so the same diagonal form
        p = gen_spd_linear(dim, seed=dim)
        (q, h), a = p.h.eigenpair, p.a.eigenpair[1]
        dense = _householder_q(q._qr, q._tau, q._signs)
        on_dense = dataclasses.replace(p, h=AffineLinear(eigenpair=(dense, h)),
                                       a=AffineLinear(offset=p.a.offset, eigenpair=(dense, a)))
        assert on_dense.coordinates()[0] is dense
        x0 = np.random.default_rng(dim).standard_normal(dim)
        half = make_step_sequence("constant", value=0.5)
        stop = StoppingRule(tol=-1.0, max_steps=150)  # three row blocks of kept iterates
        reflected, explicit = (run_scheme(name, problem, x0, mu=half, stop=stop) for problem in (p, on_dense))
        assert reflected.steps_used == explicit.steps_used == 150
        for field in ("iterates", "residuals", "errors"):
            assert _close(np.array(getattr(reflected, field)), np.array(getattr(explicit, field))), field

    def test_a_shared_basis_is_probed_once(self, monkeypatch):
        # x* takes 2 products, H's probe 2 and F's c_hat 1; A's probe of the same basis takes none
        calls = {"dormqr": 0}
        monkeypatch.setattr(lapack, "dormqr", _counted(lapack.dormqr, calls, "dormqr"))
        p = gen_spd_linear(30, seed=1)
        p.coordinates()
        assert calls == {"dormqr": 5}

    @pytest.mark.parametrize("weight", [False, True])
    @pytest.mark.parametrize("form", ["reflectors", "array"])
    def test_probe_rejects_a_bad_basis(self, form, weight):
        dim = 6
        draw = np.asfortranarray(np.random.default_rng(3).standard_normal((dim, dim)))
        qr, tau = problems._in_place(lapack.dgeqrf, draw)[:2]
        signs = np.sign(np.diag(qr))
        good = ReflectorBasis(qr, tau, signs)
        w = np.linspace(1.0, 2.0, dim)
        dense = np.asarray(good)
        mat = (dense * w) @ dense.T if weight else None
        # halving tau leaves reflectors that are not orthogonal
        bad = ReflectorBasis(qr.copy(order="F"), 0.5 * tau, signs.copy())
        wrong = [(bad, w), (ReflectorBasis(qr[:5, :5].copy(order="F"), tau[:5].copy(), signs[:5].copy()), w)]
        if form == "array":
            wrong = [(np.array(basis), values) for basis, values in wrong]
        right = (good if form == "reflectors" else dense, w)
        if weight:  # a weight comes with no eigenpair, not even the right one
            wrong.append(right)
        else:
            AffineLinear(eigenpair=right)
        for basis, values in wrong:
            with pytest.raises(ValueError):
                AffineLinear(mat, eigenpair=(basis, values))


class TestSoftThreshold:
    def test_known_solution_formula(self):
        # b_i = 3: u_i = softthreshold(3, 1)/(1 + c) = 2/2 = 1 for c = 1
        p = gen_soft_threshold(1, c=1.0, b=[3.0])
        assert p.known_solution[0] == pytest.approx(1.0, abs=1e-12)

    def test_dead_zone_maps_to_zero(self):
        p = gen_soft_threshold(1, c=1.0, b=[0.5])
        assert p.known_solution[0] == 0.0

    def test_zero_b_zero_solution(self):
        p = gen_soft_threshold(4, b=np.zeros(4))
        assert np.array_equal(p.known_solution, np.zeros(4))

    def test_negative_b_sign(self):
        p = gen_soft_threshold(1, c=1.0, b=[-3.0])
        assert p.known_solution[0] == pytest.approx(-1.0, abs=1e-12)

    def test_fixed_point_residual_random_b(self):
        for seed in range(5):
            p = gen_soft_threshold(40, seed=seed)
            assert np.linalg.norm(p.f_map(p.known_solution) - p.known_solution) <= 1e-10

    def test_constants_validated_on_instance(self):
        p = gen_soft_threshold(10, c=2.0, seed=1)
        report = validate_constants(p.h, p.a, p.m, p.constants, samples=500, seed=0)
        assert report.passed

    def test_seeded_reproducibility(self):
        a = gen_soft_threshold(10, seed=8)
        b = gen_soft_threshold(10, seed=8)
        assert np.array_equal(a.known_solution, b.known_solution)
