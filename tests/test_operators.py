import numpy as np
import pytest

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
    coupling_constants,
    h_constants,
    m_constant,
    validate_constants,
)


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

    def test_diagonal_nonlinear_odd_at_origin(self):
        op = DiagonalNonlinear(
            lambda t: t + np.tanh(t), lambda t: 1 + 1 / np.cosh(t) ** 2, (1.0, 2.0)
        )
        assert np.array_equal(op.apply([0.0]), [0.0])


def _eigenpair(n=6):
    rng = np.random.default_rng(n)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    w = np.linspace(1.0, 2.0, n)
    return q, w, (q * w) @ q.T


class TestEigenpair:
    def test_kept_read_only_on_one_basis(self):
        q, w, mat = _eigenpair()
        op = AffineLinear(mat, eigenpair=(q, w))
        assert op.eigenpair[0] is q and np.array_equal(op.eigenpair[1], w)
        assert not (q.flags.writeable or op.eigenpair[1].flags.writeable)
        assert AffineLinear(mat).eigenpair is None

    @pytest.mark.parametrize("wrong", [
        lambda q, w: (q, w[::-1]),  # the values in the wrong order
        lambda q, w: (q[:, ::-1], w),  # the basis in the wrong order
        lambda q, w: (2.0 * q, w / 4.0),  # reproduces W on every vector, but not orthogonal
        lambda q, w: (q[:5, :5], w[:5]),  # the wrong size
        lambda q, w: (q, np.full(6, np.nan)),
    ])
    def test_mismatch_raises(self, wrong):
        q, w, mat = _eigenpair()
        with pytest.raises(ValueError):
            AffineLinear(mat, eigenpair=wrong(q, w))

    def test_eigenpair_alone_is_the_weight(self):
        q, w, mat = _eigenpair()
        op = AffineLinear(offset=np.ones(6), eigenpair=(q, w))
        assert op.dim == 6 and op.scale is None and "matrix" not in vars(op)
        x = np.linspace(-1.0, 1.0, 6)
        assert np.linalg.norm(op.apply(x) - (mat @ x - 1.0)) <= 1e-13
        assert op.weight is op.matrix and not op.matrix.flags.writeable
        # no weight to reproduce: only the basis is probed, so reordered values are another W
        reordered = AffineLinear(eigenpair=(q, w[::-1]))
        assert np.allclose(reordered.matrix, (q * w[::-1]) @ q.T, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("wrong", [
        lambda q, w: (2.0 * q, w / 4.0),  # reproduces W on every vector, but not orthogonal
        lambda q, w: (q[:, ::2], w),  # not square
        lambda q, w: (q[:5, :5], w),  # the wrong size
        lambda q, w: (q, np.full(6, np.nan)),
    ])
    def test_eigenpair_alone_mismatch_raises(self, wrong):
        q, w, _ = _eigenpair()
        with pytest.raises(ValueError):
            AffineLinear(eigenpair=wrong(q, w))

    def test_scalar_weight_has_no_eigenpair(self):
        with pytest.raises(ValueError):
            AffineLinear(2.0, np.ones(3), eigenpair=(np.eye(3), np.full(3, 2.0)))


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

    def test_consistent_accepted(self):
        c = OperatorConstants(1, 1, 1, 2, 1)
        assert c.s == 2


class TestCatalog:
    def test_scaled_identity_h(self):
        assert h_constants(ScaledIdentity(1.0)) == (1.0, 1.0)

    def test_spd_diag_eigenvalues(self):
        # eigenvalue oracle on a diagonal matrix
        gamma, tau = h_constants(AffineLinear(np.diag([1.0, 4.0])))
        assert gamma == pytest.approx(1.0, abs=1e-12)
        assert tau == pytest.approx(4.0, abs=1e-12)

    def test_constants_read_off_an_eigenpair(self, monkeypatch):
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        q, w, _ = _eigenpair()
        op = AffineLinear(eigenpair=(q, w[::-1]))
        assert h_constants(op) == (1.0, 2.0) and m_constant(op) == 1.0
        assert "matrix" not in vars(op)
        with pytest.raises(UnsupportedOperatorError):
            h_constants(AffineLinear(eigenpair=(q, w - 1.5)))

    def test_m_scaled_identity(self):
        # <3u - 3v, u - v> = 3||u - v||^2, scalar oracle
        assert m_constant(ScaledIdentityMulti(3.0)) == 3.0

    def test_m_subdifferential(self):
        assert m_constant(ShiftedSubdifferential(0.5)) == 0.5

    def test_m_linear_monotone(self):
        assert m_constant(LinearMonotone(np.diag([2.0, 5.0]))) == pytest.approx(2.0)

    def test_coupling_scaled_pair(self):
        r, s = coupling_constants(ScaledIdentity(2.0), ScaledIdentity(1.0))
        assert (r, s) == (2.0, 2.0)

    def test_coupling_proportional_affine(self):
        h_mat = np.diag([1.0, 4.0])
        r, s = coupling_constants(AffineLinear(0.5 * h_mat, (1, 1)), AffineLinear(h_mat))
        assert r == pytest.approx(0.5 * 1.0 ** 2)
        assert s == pytest.approx(0.5 * 4.0)

    def test_coupling_unrelated_rejected(self):
        with pytest.raises(UnsupportedOperatorError):
            coupling_constants(
                AffineLinear(np.array([[1.0, 0.5], [0.5, 2.0]])),
                AffineLinear(np.diag([1.0, 4.0])),
            )

    def test_full_catalog(self):
        c = catalog_constants(
            ScaledIdentity(1.0), ScaledIdentity(2.0), ScaledIdentityMulti(3.0)
        )
        assert (c.gamma, c.tau, c.r, c.s, c.eta) == (1.0, 1.0, 2.0, 2.0, 3.0)


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
