import dataclasses
import gc
import weakref

import numpy as np
import pytest

from hmsolve.problems import ReflectorBasis, gen_scalar_affine, gen_soft_threshold, gen_spd_linear
from hmsolve.schemes import StoppingRule, make_step_sequence, run_scheme
from oracles import dense_q, in_x, traced_peak, validate_constants


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
        # A(u*) + m u* = 0 componentwise for the single-valued part, in the coordinates A acts on
        p = gen_spd_linear(12, seed=3)
        y = p.basis.T @ p.known_solution
        assert np.linalg.norm(p.a.apply(y) + 1.0 * y) <= 1e-10

    @pytest.mark.parametrize("dim, c_a, m", [(1, 1.0, 1.0), (7, 2.0, 0.5), (200, 0.3, 2.0)])
    def test_solution_solves_linear_system_to_rounding(self, dim, c_a, m):
        # x* comes from H's spectrum in Q's coordinates; (c_a*H + m*I) x* = b is checked on the dense H
        p = gen_spd_linear(dim, seed=dim, c_a=c_a, m=m)
        dense = in_x(p)
        x, b = p.known_solution, dense.a.offset
        assert np.linalg.norm(c_a * (dense.h.matrix @ x) + m * x - b) <= 1e-13 * max(1.0, np.linalg.norm(b))

    @pytest.mark.parametrize("dim", [1, 2, 300])
    def test_constants_read_off_the_weights(self, dim, monkeypatch):
        # the closed forms bit for bit, with no eigvalsh and no dense H or A
        def dense_route(*args, **kwargs):
            raise AssertionError("a dense route was taken")

        monkeypatch.setattr(np.linalg, "eigvalsh", dense_route)
        c = gen_spd_linear(dim, eigen_range=(0.5, 3.0), seed=dim, c_a=1.5, m=0.7).constants
        tau = 3.0 if dim > 1 else 0.5
        assert (c.gamma, c.tau, c.r, c.s, c.eta) == (0.5, tau, 1.5 * 0.5 * 0.5, 1.5 * tau, 0.7)

    def test_h_and_a_are_vectors_in_the_basis(self):
        # the instance holds Q; H and A are diag(h) and diag(c_a*h) in its coordinates
        p = gen_spd_linear(9, seed=4, c_a=1.5)
        assert isinstance(p.basis, ReflectorBasis) and p.h.matrix is None and p.a.matrix is None
        assert np.array_equal(p.h.weight, np.linspace(1.0, 1.2, 9))
        assert np.array_equal(p.a.weight, 1.5 * p.h.weight)

    def test_seed_names_a_fixed_instance(self):
        # a golden pin: a change to the seed -> instance map shows here
        expected = [-0.36316426595787965, -0.23879575384808016, -0.145199228988387,
                    0.17847323601305354, 0.49112799158166676]
        np.testing.assert_allclose(gen_spd_linear(5, seed=0).known_solution, expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 7, 300])
    def test_reflectors_are_the_seeds_draws(self, dim, seed):
        # numpy's replay of the generator's draws: three normalised rows of normals, then b,
        # which A holds as Q^T b
        p = gen_spd_linear(dim, seed=seed, b_scale=2.0)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((3, dim))
        assert np.array_equal(p.basis._v, v / np.linalg.norm(v, axis=1, keepdims=True))
        assert np.array_equal(p.a.offset, p.basis.T @ (2.0 * rng.standard_normal(dim)))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_q_t_b_is_standard_normal(self, dim):
        # moments of y = Q^T b over 4000 seeds: E y = 0, E y y^T = I (each about 0.02 by sampling)
        y = np.array([gen_spd_linear(dim, seed=seed).a.offset for seed in range(4000)])
        assert np.max(np.abs(y.mean(axis=0))) <= 0.1
        assert np.max(np.abs(y.T @ y / len(y) - np.eye(dim))) <= 0.1

    def test_generator_runs_no_factorization(self, monkeypatch):
        # O(1) products with Q and no QR or eigensolver: Q^T b and x* take 1 product each and
        # the instance's probe of Q 2; F's c_hat reads Q^T b off A and takes none
        def dense_route(*args, **kwargs):
            raise AssertionError("a dense route was taken")

        for name in ("qr", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, dense_route)
        calls = [0]
        product = ReflectorBasis.__matmul__

        def counted(self, x):
            calls[0] += 1
            return product(self, x)

        monkeypatch.setattr(ReflectorBasis, "__matmul__", counted)
        p = gen_spd_linear(40, seed=3)
        assert calls == [4]
        p.coordinates()
        p.coordinates()
        assert calls == [4]

    def test_generator_holds_o_n_memory(self):
        # k reflectors and a few n-vectors, where one n x n buffer would take 800 MB
        dim = 10 ** 4
        gen_spd_linear(2)
        peak = traced_peak(lambda: gen_spd_linear(dim))[1]
        assert peak <= 64 * 8 * dim

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
        assert np.array_equal(a.basis._v, b.basis._v) and np.array_equal(a.a.offset, b.a.offset)
        assert np.array_equal(a.known_solution, b.known_solution)
        c = gen_spd_linear(10, seed=43)
        assert not np.array_equal(a.basis._v, c.basis._v)

    def test_eigen_range_respected(self):
        p = gen_spd_linear(20, eigen_range=(2.0, 5.0), seed=0)
        w = np.linalg.eigvalsh(in_x(p).h.matrix)
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


def _householder_q(v):
    """H_1 ... H_k for H_i = I - 2 v_i v_i^T, the rows v_i of ``v``, as a dense product by numpy."""
    q = np.eye(v.shape[1])
    for row in v:
        q = q @ (np.eye(v.shape[1]) - 2.0 * np.outer(row, row))
    return q


def _close(x, y):
    # rounding level: the reflectors and the explicit Q round differently
    return np.max(np.abs(x - y)) <= 1e-13 * max(1.0, np.linalg.norm(y))


class TestReflectorBasis:
    """spd-linear's Q is k Householder reflectors: O(kn) products, never a matrix."""

    @pytest.mark.parametrize("dim", [1, 2, 7, 300])
    def test_dense_forms_are_the_householder_product(self, dim):
        q = gen_spd_linear(dim, seed=dim, c_a=1.5).basis
        assert isinstance(q, ReflectorBasis) and q._v.shape == (3, dim)
        assert np.allclose(np.linalg.norm(q._v, axis=1), 1.0, rtol=1e-15, atol=0)
        dense = dense_q(q)
        assert np.max(np.abs(dense - _householder_q(q._v))) <= 1e-14
        assert np.max(np.abs(dense_q(q.T) - dense.T)) <= 1e-14
        assert np.max(np.abs(dense @ dense.T - np.eye(dim))) <= 1e-14
        # a non-diagonal Q, so the dense W_H that an LU oracle reads is not diagonal
        assert np.count_nonzero(dense - np.diag(np.diag(dense))) == dim * (dim - 1)

    @pytest.mark.parametrize("dim", [1, 2, 7, 300])
    def test_products_match_the_dense_q(self, dim):
        p = gen_spd_linear(dim, seed=dim, c_a=2.0, m=0.5)
        q, h = p.basis, p.h.weight
        dense = _householder_q(q._v)
        rng = np.random.default_rng(dim)
        rng.standard_normal((3, dim))
        b = rng.standard_normal(dim)  # the generator's b, which A holds as Q^T b
        v, y = rng.standard_normal(dim), rng.standard_normal((70, dim))
        assert _close(p.a.offset, dense.T @ b)
        assert _close(q @ v, dense @ v)
        assert _close(q @ y.T, dense @ y.T) and _close(q.T @ y.T, dense.T @ y.T)
        assert _close(q.T.T @ v, dense @ v)
        assert _close(p.known_solution, dense @ ((dense.T @ b) / (2.0 * h + 0.5)))

    def test_products_leave_their_operands_alone(self):
        q = gen_spd_linear(9, seed=1).basis
        v, y = np.linspace(-1.0, 1.0, 9), np.ones((3, 9))
        before = (v.copy(), y.copy(), q._v.copy())
        q @ v, q.T @ v, q @ y.T, q.T @ y.T
        assert np.array_equal(v, before[0]) and np.array_equal(y, before[1])
        assert np.array_equal(q._v, before[2]) and not q._v.flags.writeable
        assert q.T.shape == q.shape == (9, 9)

    def test_basis_freed_with_its_instance(self):
        # no reference cycle: Q goes when the instance does, not at a later cyclic collection
        gc.disable()
        try:
            p = gen_spd_linear(50, seed=1)
            p.coordinates()
            basis = weakref.ref(p.basis)
            transposed = basis().T
            del p
            assert basis() is None and transposed.shape == (50, 50)
        finally:
            gc.enable()

    def test_no_silent_dense_form(self):
        # only Q @ V, Q.T @ V and .T are offered: anything else raises rather than build Q
        p = gen_spd_linear(5, seed=1)
        q, h = p.basis, p.h.weight
        for op in (lambda: q * h, lambda: np.ones((2, 5)) @ q, lambda: np.ones((2, 5)) @ q.T,
                   lambda: q + q):
            with pytest.raises(TypeError):
                op()

    @pytest.mark.parametrize("dim", [1, 7, 200])
    @pytest.mark.parametrize("name", ["FH", "NEW"])
    def test_runs_match_the_dense_q(self, dim, name):
        # the same operators on the explicit Q as the basis: the same diagonal form
        p = gen_spd_linear(dim, seed=dim)
        dense = _householder_q(p.basis._v)
        on_dense = dataclasses.replace(p, basis=dense)
        assert on_dense.coordinates()[0] is dense
        x0 = np.random.default_rng(dim).standard_normal(dim)
        half = make_step_sequence("constant", value=0.5)
        stop = StoppingRule(tol=-1.0, max_steps=150)
        reflected, explicit = (run_scheme(name, problem, x0, mu=half, stop=stop) for problem in (p, on_dense))
        assert reflected.steps_used == explicit.steps_used == 150
        for field in ("coordinates", "iterates", "residuals", "errors"):
            assert _close(np.array(getattr(reflected, field)), np.array(getattr(explicit, field))), field

    @pytest.mark.parametrize("form", ["reflectors", "array"])
    def test_probe_rejects_a_bad_basis(self, form):
        dim = 6
        v = np.random.default_rng(3).standard_normal((3, dim))
        unit = v / np.linalg.norm(v, axis=1, keepdims=True)
        p = gen_spd_linear(dim, seed=3)
        # halved vectors leave reflectors I - 2 v v^T that are not orthogonal
        bad = ReflectorBasis(0.5 * unit)
        short = v[:, :5] / np.linalg.norm(v[:, :5], axis=1, keepdims=True)
        wrong = [bad, ReflectorBasis(short)]
        right = ReflectorBasis(unit.copy())
        if form == "array":
            wrong, right = [dense_q(basis) for basis in wrong], dense_q(right)
        assert dataclasses.replace(p, basis=right).basis is right
        for basis in wrong:
            with pytest.raises(ValueError, match="probe"):
                dataclasses.replace(p, basis=basis)

    def test_apply_is_coordinatewise(self):
        # w * y - offset in Q's coordinates: no product with Q and no dense W at a dim where W is 32 MB
        p = gen_spd_linear(2000, seed=1, c_a=1.5)
        y = np.random.default_rng(1).standard_normal(2000)
        assert np.array_equal(p.h.apply(y), p.h.weight * y)
        assert np.array_equal(p.a.apply(y), p.a.weight * y - p.a.offset)
        assert all(np.ndim(value) < 2 for op in (p.h, p.a) for value in vars(op).values())
        # and the dense forms in x to rounding
        p = gen_spd_linear(50, seed=2, c_a=1.5)
        dense, q = in_x(p), p.basis
        x = np.random.default_rng(2).standard_normal(50)
        assert _close(q @ p.h.apply(q.T @ x), dense.h.matrix @ x)
        assert _close(q @ p.a.apply(q.T @ x), dense.a.apply(x))


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
