import tracemalloc

import numpy as np
import pytest

from hmsolve import problems
from hmsolve.operators import validate_constants
from hmsolve.problems import gen_scalar_affine, gen_soft_threshold, gen_spd_linear


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
        dense = (q * h) @ q.T
        assert np.array_equal(p.h.matrix, (dense + dense.T) / 2.0)
        assert "matrix" not in vars(p.a)

    def test_h_and_a_share_one_eigenbasis(self):
        p = gen_spd_linear(9, seed=4, c_a=1.5)
        assert p.h.eigenpair[0] is p.a.eigenpair[0]
        assert np.array_equal(p.a.eigenpair[1], 1.5 * p.h.eigenpair[1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 7, 300])
    def test_basis_is_the_sign_fixed_qr_factor(self, dim, seed):
        # the same draw through numpy's QR, columns times the signs of diag(R); a
        # tolerance, since numpy and scipy may link different LAPACK builds
        q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
        expected = q * np.sign(np.diag(r))
        assert np.max(np.abs(problems._random_orthogonal(dim, np.random.default_rng(seed)) - expected)) <= 1e-13

    def test_basis_is_c_ordered_and_read_only(self):
        q = gen_spd_linear(20, seed=5).h.eigenpair[0]
        assert q.flags.c_contiguous and not q.flags.writeable

    def test_generator_holds_few_n_by_n_buffers(self):
        # one F-ordered buffer for the QR and the returned C-ordered Q at most:
        # a copy that f2py makes of a non-Fortran input, or numpy's QR, peaks at ~4 n^2
        dim = 300
        gen_spd_linear(2)
        tracemalloc.start()
        try:
            gen_spd_linear(dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * dim * dim

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
