import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from hmsolve.analysis import envelope
from hmsolve.operators import (
    AffineLinear,
    DiagonalNonlinear,
    InconsistentConstantsError,
    LinearMonotone,
    OperatorConstants,
    ScaledIdentity,
    ScaledIdentityMulti,
    ShiftedSubdifferential,
    UnsupportedOperatorError,
    catalog_constants,
)
from hmsolve.problems import gen_scalar_affine, gen_soft_threshold
from hmsolve.resolvent import ResolventEngine
from hmsolve.schemes import as_vector, casting, run_fh
from oracles import tanh_h, triples, validate_constants


class TestApply:
    def test_scaled_identity(self):
        assert np.array_equal(ScaledIdentity(2).apply((1, 3)), [2, 6])

    def test_affine_hand_evaluation(self):
        # apply(x) = A x - b at x = 0 gives -b
        op = AffineLinear(np.eye(2), (1, 1))
        assert np.array_equal(op.apply((0, 0)), [-1, -1])

    @pytest.mark.parametrize("w", [1.0, 0.7, 2.5])
    @pytest.mark.parametrize("n", [1, 5, 100])
    def test_scalar_weight_matches_dense_identity(self, w, n):
        # the dense w*I matvec is the oracle, bit for bit
        rng = np.random.default_rng(n)
        x, b = rng.standard_normal(n), rng.standard_normal(n)
        op = AffineLinear(w, b)
        assert op.matrix is None and op.dim == n
        assert np.array_equal(op.apply(x), w * np.eye(n) @ x - b)
        assert np.array_equal(AffineLinear(w).selection(x), w * np.eye(n) @ x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            AffineLinear(np.array([[1.0, bad], [0.0, 1.0]]))

    def test_diagonal_nonlinear_odd_at_origin(self):
        assert np.array_equal(tanh_h(1.0).apply([0.0]), [0.0])


class TestVectorWeight:
    """A vector weight w is diag(w): applied coordinatewise, with no matrix."""

    def test_kept_read_only_with_no_matrix(self):
        w = np.linspace(1.0, 2.0, 6)
        op = AffineLinear(w, np.ones(6))
        assert op.weight is w and not w.flags.writeable
        assert op.matrix is None and op.scale is None and op.dim == 6
        assert "dim=6" in repr(op)

    @pytest.mark.parametrize("n", [1, 5, 100])
    def test_matches_the_dense_diagonal(self, n):
        # the dense diag(w) matvec is the oracle, bit for bit
        rng = np.random.default_rng(n)
        w, x, b = rng.uniform(-2.0, 2.0, n), rng.standard_normal(n), rng.standard_normal(n)
        assert np.array_equal(AffineLinear(w, b).apply(x), np.diag(w) @ x - b)
        assert np.array_equal(AffineLinear(w).selection(x), np.diag(w) @ x)

    @pytest.mark.parametrize("weight, offset", [
        (np.array([1.0, np.nan]), None),
        (np.array([1.0, np.inf]), None),
        (np.ones(3), np.ones(4)),  # the offset's dimension is not the weight's
        (np.ones((2, 3)), None),  # not square
        (np.ones((2, 2, 2)), None),
    ])
    def test_bad_weight_raises(self, weight, offset):
        with pytest.raises(ValueError):
            AffineLinear(weight, offset)


class TestConstantsRecord:
    def test_all_positive_required(self):
        with pytest.raises(InconsistentConstantsError):
            OperatorConstants(gamma=0.0, tau=1, r=1, s=1, eta=1)

    def test_gamma_le_tau(self):
        with pytest.raises(InconsistentConstantsError):
            OperatorConstants(gamma=2.0, tau=1.0, r=1, s=1, eta=1)

    def test_r_le_s_tau(self):
        with pytest.raises(InconsistentConstantsError):
            OperatorConstants(gamma=1, tau=1, r=3.0, s=2.0, eta=1)

    def test_r_above_a_subnormal_s_tau(self):
        # s times tau is 2.896e-323, yet s*tau rounds to the subnormal r = 2.964e-323 (written 3e-323), 2.4%
        # above it: r <= s*tau let r through, and kappa raised "negative radicand" at lam = 2.06e76
        with pytest.raises(InconsistentConstantsError, match=r"r/s=7\.89227e-124 exceeds tau=7\.70998e-124"):
            OperatorConstants(gamma=3.066196725530573e-156, tau=7.709981562618043e-124, r=3e-323,
                              s=3.7560714346219987e-200, eta=4.604821597010471e-24)

    def test_consistent_accepted(self):
        c = OperatorConstants(1, 1, 1, 2, 1)
        assert c.s == 2


def _constants(h=ScaledIdentity(1.0), a=ScaledIdentity(1.0), m=ScaledIdentityMulti(1.0)):
    c = catalog_constants(h, a, m)
    return c.gamma, c.tau, c.r, c.s, c.eta


class TestCatalog:
    def test_scaled_identity_h(self):
        assert _constants(h=ScaledIdentity(1.0))[:2] == (1.0, 1.0)

    def test_spd_diag_eigenvalues(self):
        # eigenvalue oracle on a diagonal matrix
        gamma, tau = _constants(h=AffineLinear(np.diag([1.0, 4.0])))[:2]
        assert gamma == pytest.approx(1.0, abs=1e-12)
        assert tau == pytest.approx(4.0, abs=1e-12)

    def test_constants_read_off_a_vector_weight(self, monkeypatch):
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        w = np.linspace(1.0, 2.0, 6)
        op = AffineLinear(w[::-1])
        assert _constants(h=op, m=op) == (1.0, 2.0, 1.0, 1.0, 1.0)
        # a diagonal A too: r = min(h*a), s = max|a|, read off the values
        a = AffineLinear(3.0 - w)
        assert _constants(h=op, a=a)[2:4] == (min(w[::-1] * (3.0 - w)), 2.0)
        assert _constants(h=ScaledIdentity(2.0), a=a)[2:4] == (2.0, 2.0)
        # a negative entry: gamma = -0.5 is exact, and no positive constant exists
        with pytest.raises(InconsistentConstantsError, match="gamma"):
            catalog_constants(AffineLinear(w - 1.5), op, op)

    @pytest.mark.parametrize("vector_h", [True, False])
    def test_vector_weight_beside_a_matrix_is_its_diagonal(self, vector_h):
        # r = lambda_min(sym(W_H^T W_A)) with diag(w) for the vector, against the dense pair
        rng = np.random.default_rng(4)
        w, mat = np.linspace(1.0, 2.0, 5), np.eye(5) + 0.1 * rng.standard_normal((5, 5))
        h, a = (w, mat) if vector_h else (mat @ mat.T + np.eye(5), w)
        dense = catalog_constants(AffineLinear(np.diag(h) if vector_h else h),
                                  AffineLinear(a if vector_h else np.diag(a)), ScaledIdentity(1.0))
        mixed = catalog_constants(AffineLinear(h), AffineLinear(a), ScaledIdentity(1.0))
        assert mixed == dense

    def test_m_scaled_identity(self):
        # <3u - 3v, u - v> = 3||u - v||^2, scalar oracle
        assert _constants(m=ScaledIdentityMulti(3.0))[4] == 3.0

    def test_m_subdifferential(self):
        assert _constants(m=ShiftedSubdifferential(0.5))[4] == 0.5

    def test_m_linear_monotone(self):
        assert _constants(m=LinearMonotone(np.diag([2.0, 5.0])))[4] == pytest.approx(2.0)

    def test_coupling_scaled_pair(self):
        assert _constants(a=ScaledIdentity(2.0))[2:4] == (2.0, 2.0)

    def test_coupling_proportional_affine(self):
        h_mat = np.diag([1.0, 4.0])
        r, s = _constants(h=AffineLinear(h_mat), a=AffineLinear(0.5 * h_mat, (1, 1)))[2:4]
        assert r == pytest.approx(0.5 * 1.0 ** 2)
        assert s == pytest.approx(0.5 * 4.0)

    def test_coupling_unrelated_exact(self):
        # W_H^T W_A = [[1, 0.5], [2, 8]], whose symmetric part [[1, 1.25], [1.25, 8]] has
        # lambda_min (9 - sqrt(49 + 4*1.25^2))/2; the symmetric W_A has norm (3 + sqrt(2))/2
        r, s = _constants(h=AffineLinear(np.diag([1.0, 4.0])),
                          a=AffineLinear(np.array([[1.0, 0.5], [0.5, 2.0]])))[2:4]
        assert r == pytest.approx((9.0 - np.sqrt(49.0 + 4 * 1.25 ** 2)) / 2.0, rel=1e-14)
        assert s == pytest.approx((3.0 + np.sqrt(2.0)) / 2.0, rel=1e-14)

    def test_non_symmetric_weights(self):
        # H = [[1, 1], [0, 1]]: sym H has eigenvalues 1/2 and 3/2, and ||H||_2 is the golden ratio
        h = AffineLinear(np.array([[1.0, 1.0], [0.0, 1.0]]))
        gamma, tau, r, s, _ = _constants(h=h, a=ScaledIdentity(2.0))
        assert gamma == pytest.approx(0.5, rel=1e-14) and r == pytest.approx(1.0, rel=1e-14)
        assert tau == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, rel=1e-14) and s == 2.0

    def test_nonlinear_h(self):
        # <a d, H x - H y> >= a*gamma ||d||^2 with gamma the least slope of H
        h = tanh_h(1.0)
        assert _constants(h=h, a=ScaledIdentity(0.5)) == (1.0, 2.0, 0.5, 0.5, 1.0)
        with pytest.raises(UnsupportedOperatorError):
            catalog_constants(h, AffineLinear(np.eye(2)), ScaledIdentityMulti(1.0))

    @pytest.mark.parametrize("h, a, m", [
        (ScaledIdentity(1.0), tanh_h(1.0), ScaledIdentityMulti(1.0)),
        (ScaledIdentity(1.0), ScaledIdentity(1.0), tanh_h(1.0)),
        (ShiftedSubdifferential(1.0), ScaledIdentity(1.0), ScaledIdentityMulti(1.0)),
    ])
    def test_unsupported_kinds(self, h, a, m):
        with pytest.raises(UnsupportedOperatorError):
            catalog_constants(h, a, m)

    def test_full_catalog(self):
        c = catalog_constants(
            ScaledIdentity(1.0), ScaledIdentity(2.0), ScaledIdentityMulti(3.0)
        )
        assert (c.gamma, c.tau, c.r, c.s, c.eta) == (1.0, 1.0, 2.0, 2.0, 3.0)


def _weight(op, dim):
    """The n x n weight of an affine ``op``, or shift*I for a subdifferential: the part that sets its constants."""
    if isinstance(op, ShiftedSubdifferential):
        return op.shift * np.eye(dim)
    return op.matrix if op.matrix is not None else op.weight * np.eye(dim)


class TestExactCatalog:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(triple=triples())
    def test_constants_hold_and_are_attained(self, triple):
        # sampling falsifies an overstated gamma, r or eta, or an understated tau or s;
        # the vector that attains each constant falsifies the other side
        h, a, m, seed = triple
        dim = h.dim
        c = catalog_constants(h, a, m)
        assert validate_constants(h, a, m, c, samples=50, seed=seed, dim=dim).passed
        wh, wa, wm = (_weight(op, dim) for op in (h, a, m))

        def least(mat):  # the unit eigenvector of sym(mat)'s smallest eigenvalue
            return np.linalg.eigh((mat + mat.T) / 2.0)[1][:, 0]

        def largest(mat):  # the unit right singular vector of mat's largest singular value
            return np.linalg.svd(mat)[2][0]

        attained = {
            "gamma": (lambda v: v @ wh @ v)(least(wh)),
            "tau": np.linalg.norm(wh @ largest(wh)),
            "r": (lambda v: (wa @ v) @ (wh @ v))(least(wh.T @ wa)),
            "s": np.linalg.norm(wa @ largest(wa)),
            "eta": (lambda v: v @ wm @ v)(least(wm)),
        }
        for name, at_vector in attained.items():
            assert abs(getattr(c, name) - at_vector) <= 1e-12 * getattr(c, name), name


class TestValidation:
    def test_identity_with_unit_constants_passes(self):
        c = OperatorConstants(1, 1, 1, 1, 1)
        report = validate_constants(
            ScaledIdentity(1), ScaledIdentity(1), ScaledIdentityMulti(1),
            c, samples=200, seed=0, dim=5,
        )
        assert report.passed

    def test_understated_lipschitz_violates(self):
        # ||x - y|| > 0.5 ||x - y|| for any distinct pair
        c = OperatorConstants(gamma=0.5, tau=0.5, r=0.5, s=1, eta=1)
        report = validate_constants(
            ScaledIdentity(1), ScaledIdentity(1), ScaledIdentityMulti(1),
            c, samples=50, seed=0, dim=3,
        )
        assert any(v.check == "h_lipschitz" for v in report.violations)

    def test_double_identity_a(self):
        # <2(x - y), x - y> = 2||x - y||^2 exactly
        c = OperatorConstants(gamma=1, tau=1, r=2, s=2, eta=1)
        report = validate_constants(
            ScaledIdentity(1), ScaledIdentity(2), ScaledIdentityMulti(1),
            c, samples=200, seed=1, dim=4,
        )
        assert report.passed

    @pytest.mark.parametrize("dim", [1, 10, 100])
    def test_catalog_constants_self_consistent(self, dim):
        h = ScaledIdentity(1.5)
        a = ScaledIdentity(0.7)
        m = ShiftedSubdifferential(2.0)
        c = catalog_constants(h, a, m)
        report = validate_constants(h, a, m, c, samples=1000, seed=dim, dim=dim)
        assert report.passed

    def test_tightened_constant_falsified(self):
        # shrinking tau by a factor 1 - 1e-3 must be caught on a scaled identity
        h = ScaledIdentity(1.0)
        tight = OperatorConstants(
            gamma=1.0 * (1 - 1e-3), tau=1.0 * (1 - 1e-3), r=1.0 * (1 - 1e-3), s=1.0, eta=1.0
        )
        report = validate_constants(
            h, ScaledIdentity(1.0), ScaledIdentityMulti(1.0),
            tight, samples=1000, seed=7, dim=10,
        )
        assert not report.passed

    def test_spd_catalog_passes(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((20, 20))
        q, _ = np.linalg.qr(g)
        h_mat = (q * np.linspace(1, 4, 20)) @ q.T
        h = AffineLinear((h_mat + h_mat.T) / 2)
        a = AffineLinear(0.5 * h.matrix, rng.standard_normal(20))
        m = ScaledIdentityMulti(1.0)
        report = validate_constants(
            h, a, m, catalog_constants(h, a, m), samples=1000, seed=2
        )
        assert report.passed


@pytest.mark.parametrize("build, message", [
    (lambda: AffineLinear(0.0), "a scalar weight must be strictly positive"),
    (lambda: LinearMonotone([[1.0, 1.0], [0.0, 1.0]]), "matrix must be symmetric"),
    (lambda: DiagonalNonlinear(np.tanh, np.tanh, (2.0, 1.0)), "deriv_range must satisfy 0 < lo <= hi"),
    (lambda: ShiftedSubdifferential(0.0), "shift must be strictly positive"),
    (lambda: gen_soft_threshold(dim=3, c=0.0), "c must be strictly positive"),
    (lambda: ResolventEngine(ScaledIdentity(1), ScaledIdentity(1), 1.0, 2).resolve(np.zeros(3)),
     "dimension mismatch: 3 vs 2"),
    (lambda: as_vector([[1.0, 2.0]]), "expected a scalar or a non-empty 1-d sequence"),
    (lambda: dataclasses.replace(gen_scalar_affine(), known_solution=[1.0, 2.0]),
     "known_solution dimension mismatch"),
    (lambda: run_fh(gen_scalar_affine(), [0.0, 0.0]), "start dimension mismatch"),
    (lambda: envelope(0.5, *casting("fh"), -1.0, 3), "e0 must be nonnegative"),
], ids=["affine-scalar", "linear-monotone", "deriv-range", "shift", "soft-threshold-c", "resolve-dim",
        "as-vector-2d", "known-solution-dim", "start-dim", "envelope-e0"])
def test_input_checks_raise(build, message):
    # each constructor or entry point refuses a bad input by a ValueError that names it
    with pytest.raises(ValueError, match=message):
        build()
