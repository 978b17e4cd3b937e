import dataclasses
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hmsolve.analysis import DEFAULT_AUDIT_SLACK, _steps, contraction_factor, envelope, optimal_lambda
from hmsolve.operators import (
    AffineLinear,
    LinearMonotone,
    OperatorConstants,
    ScaledIdentity,
    ScaledIdentityMulti,
    ShiftedSubdifferential,
    catalog_constants,
)
from hmsolve.problems import gen_scalar_affine, gen_soft_threshold, gen_spd_linear
from hmsolve.resolvent import ResolventEngine
from hmsolve.schemes import (
    ProblemInstance,
    StepSequence,
    StoppingRule,
    as_vector,
    casting,
    make_step_sequence,
    run_fh,
    run_mann,
    run_new,
    run_scheme,
    run_zgy,
    vector_norm,
)
from oracles import in_x, plain_run_scheme, recorded, sequences, tanh_h, traced_peak, triples, validate_constants

ONE = make_step_sequence("constant", value=1.0)
ZERO = make_step_sequence("constant", value=0.0)
HALF = make_step_sequence("constant", value=0.5)


def test_as_vector_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        as_vector([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_vector([float("inf")])


def test_as_vector_immutable():
    v = as_vector([1.0, 2.0])
    with pytest.raises(ValueError):
        v[0] = 3.0


class TestStepSequences:
    def test_constant_properties(self):
        seq = make_step_sequence("constant", value=0.9)
        assert seq.sums_to_infinity
        assert seq.lower_bound == 0.9
        assert seq.value(17) == 0.9

    def test_harmonic(self):
        seq = make_step_sequence("harmonic", offset=1)
        assert [seq.value(n) for n in range(3)] == [1.0, 0.5, 1 / 3]
        assert seq.sums_to_infinity

    def test_zero_constant_does_not_diverge(self):
        assert not make_step_sequence("constant", value=0.0).sums_to_infinity

    def test_one_minus_harmonic(self):
        seq = make_step_sequence("one-minus-harmonic", offset=2)
        assert seq.value(0) == 0.5
        assert seq.lower_bound == 0.5

    def test_custom_table_repeats_last(self):
        seq = make_step_sequence("custom-table", table=[0.1, 0.4])
        assert seq.value(0) == 0.1 and seq.value(5) == 0.4
        assert seq.sums_to_infinity

    def test_custom_table_takes_an_array(self):
        seq = StepSequence("custom-table", np.array([0.1, 0.2]))
        assert seq.param == (0.1, 0.2) and seq.value(3) == 0.2
        for table in (np.array([]), "0.1,0.2", None):
            with pytest.raises(ValueError, match="custom-table requires a non-empty list"):
                StepSequence("custom-table", table)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_step_sequence("constant", value=1.5)
        with pytest.raises(ValueError, match="must lie in"):
            StepSequence("constant", 5.0)
        with pytest.raises(ValueError, match="unknown family 'bogus'"):  # and a family outside STEP_FAMILIES
            StepSequence("bogus")

    @pytest.mark.parametrize("family, param", [("harmonic", {"value": 0.5}), ("constant", {"value": 0.5, "ofset": 3}),
                                               ("custom-table", {"table": [0.5], "offset": 1})])
    def test_parameter_of_another_family_rejected(self, family, param):
        with pytest.raises(ValueError, match="step family %r takes no" % family):
            make_step_sequence(family, **param)

    def test_properties_are_derived_not_declared(self):
        with pytest.raises(TypeError):
            StepSequence("harmonic", 1, sums_to_infinity=False)
        assert StepSequence("harmonic").sums_to_infinity


def _identity_problem(lam):
    return ProblemInstance(
        h=ScaledIdentity(1),
        a=ScaledIdentity(1),
        m=ScaledIdentityMulti(1),
        constants=OperatorConstants(1, 1, 1, 1, 1),
        lam=lam,
        dim=1,
        known_solution=[0.0],
    )


class TestProblemInstance:
    @pytest.mark.parametrize("role", ["h", "a", "m"])
    def test_rejects_operator_of_other_dimension(self, role):
        ops = {"h": ScaledIdentity(1), "a": ScaledIdentity(1), "m": ScaledIdentityMulti(1)}
        ops[role] = LinearMonotone(np.eye(2)) if role == "m" else AffineLinear(np.eye(2))
        with pytest.raises(ValueError, match="acts on dimension 2, not 3"):
            ProblemInstance(**ops, constants=OperatorConstants(1, 1, 1, 1, 1), lam=1.0, dim=3)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_rejects_empty_dimension(self, dim):
        # dimension-agnostic operators alone would accept any dim
        with pytest.raises(ValueError, match="dim must be at least 1"):
            ProblemInstance(h=ScaledIdentity(1), a=ScaledIdentity(1), m=ScaledIdentityMulti(1),
                            constants=OperatorConstants(1, 1, 1, 1, 1), lam=1.0, dim=dim)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_lambda_not_finite_and_positive(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and strictly positive"):
            ProblemInstance(h=ScaledIdentity(1), a=ScaledIdentity(1), m=ScaledIdentityMulti(1),
                            constants=OperatorConstants(1, 1, 1, 1, 1), lam=lam, dim=1)


@pytest.mark.parametrize("kwargs", [{"max_steps": -1}, {"tol": float("nan")}, {"tol": float("inf")},
                                    {"tol": -float("inf")}])
def test_stopping_rule_rejects_meaningless_inputs(kwargs):
    with pytest.raises(ValueError, match="tol must not be NaN and max_steps not negative"):
        StoppingRule(**kwargs)
    # a negative tol is valid: it disables the residual test
    assert StoppingRule(tol=-1.0, max_steps=0).max_steps == 0


@pytest.mark.parametrize("kwargs, message", [
    ({"max_steps": 2.7}, "max_steps must be a whole number, got 2.7"),
    ({"max_steps": True}, "max_steps must be a whole number, got True"),
    ({"max_steps": float("inf")}, "max_steps must be a whole number, got inf"),
    ({"tol": "1e-3"}, "tol must be a number, got '1e-3'"),
    ({"tol": [1e-3]}, r"tol must be a number, got \[0.001\]"),
])
def test_stopping_rule_takes_numbers_only(kwargs, message):
    with pytest.raises(ValueError, match=message):
        StoppingRule(**kwargs)
    # a whole float is taken as the int it names
    stop = StoppingRule(tol=0, max_steps=3.0)
    assert (stop.tol, stop.max_steps) == (0.0, 3) and type(stop.max_steps) is int


class TestFMap:
    def test_identity_problem_maps_to_origin(self):
        p = _identity_problem(1.0)
        assert np.allclose(p.f_map([7.0]), [0.0], atol=1e-12)

    def test_scalar_resolvent_value(self):
        # R[3 - 1.5] = 1.5/1.5 = 1 with lam = 0.5
        p = _identity_problem(0.5)
        assert p.f_map([3.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_known_solution_is_fixed_point(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        assert np.linalg.norm(p.f_map(p.known_solution) - p.known_solution) <= 1e-10


class TestRunFH:
    def test_one_step_exact_when_kappa_zero(self):
        p = gen_scalar_affine(b=2.0, lam=1.0)
        assert contraction_factor(p.constants, p.lam) == 0.0
        trace = run_fh(p, [40.0])
        assert trace.steps_used == 1
        assert trace.errors[-1] == 0.0
        assert trace.converged

    def test_exact_one_third_contraction(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        trace = run_fh(p, [4.0], StoppingRule(tol=-1.0, max_steps=10))
        for n in range(10):
            assert trace.errors[n + 1] / trace.errors[n] == pytest.approx(1 / 3, abs=1e-12)

    def test_start_at_solution_is_stationary(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        trace = run_fh(p, p.known_solution)
        assert trace.steps_used == 0
        assert trace.errors == [0.0]
        assert trace.converged

    def test_monotone_error_decrease(self):
        p = gen_spd_linear(20, seed=4)
        kappa = contraction_factor(p.constants, p.lam)
        assert kappa < 1
        trace = run_fh(p, np.zeros(20))
        for n in range(trace.steps_used):
            assert trace.errors[n + 1] <= kappa * trace.errors[n] + 1e-8

    def test_trace_lengths(self):
        p = gen_spd_linear(10, seed=1)
        trace = run_fh(p, np.zeros(10))
        assert len(trace.errors) == trace.steps_used + 1
        assert len(trace.residuals) == trace.steps_used + 1
        assert trace.residuals[-1] <= 1e-10


class TestRunZGY:
    def test_frozen_when_xi_zero(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        trace = run_zgy(p, [5.0], ZERO, HALF, StoppingRule(tol=-1.0, max_steps=5))
        assert all(y[0] == 5.0 for y in trace.coordinates)

    def test_hand_rolled_five_steps(self):
        # independent scalar recursion for b = 2, lam = 0.5, xi = mu = 1/2
        p = gen_scalar_affine(b=2.0, lam=0.5)
        f = lambda x: (0.5 * x + 1.0) / 1.5
        q = 4.0
        expected = [q]
        for _ in range(5):
            r = 0.5 * q + 0.5 * f(q)
            q = 0.5 * q + 0.5 * f(r)
            expected.append(q)
        trace = run_zgy(p, [4.0], HALF, HALF, StoppingRule(tol=-1.0, max_steps=5))
        got = [y[0] for y in trace.coordinates]
        assert got == pytest.approx(expected, abs=1e-12)


class TestRunMann:
    def test_per_step_bound(self):
        # e_{n+1} <= (1 - xi (1 - kappa)) e_n with kappa = 1/3, xi = 1/2
        p = gen_scalar_affine(b=2.0, lam=0.5)
        trace = run_mann(p, [4.0], HALF, StoppingRule(tol=-1.0, max_steps=20))
        for n in range(20):
            assert trace.errors[n + 1] <= (2 / 3) * trace.errors[n] + 1e-12

    def test_stationary_at_solution(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        trace = run_mann(p, p.known_solution, HALF)
        assert trace.steps_used == 0


class TestRunNew:
    def test_mu_one_squares_contraction(self):
        # s_{n+1} = F(F(s_n)): errors contract by kappa^2 = 1/9 per step
        p = gen_scalar_affine(b=2.0, lam=0.5)
        trace = run_new(p, [1.0 + 3.0 ** 12], ONE, StoppingRule(tol=-1.0, max_steps=5))
        for n in range(5):
            assert trace.errors[n + 1] / trace.errors[n] == pytest.approx(1 / 9, rel=1e-12)

    def test_stationary_at_solution(self):
        p = gen_scalar_affine(b=2.0, lam=0.5)
        trace = run_new(p, p.known_solution, HALF)
        assert trace.steps_used == 0

    def test_per_step_contraction_bound(self):
        p = gen_spd_linear(20, seed=9)
        kappa = contraction_factor(p.constants, p.lam)
        mu = make_step_sequence("constant", value=0.7)
        trace = run_new(p, np.zeros(20), mu)
        factor = kappa * (1 - 0.7 * (1 - kappa))
        for n in range(trace.steps_used):
            assert trace.errors[n + 1] <= factor * trace.errors[n] + 1e-8


def _watching(p, watch):
    """Make ``p``'s runs record ``watch(y)`` for each y they hand G, F in p's coordinates, in the returned list."""
    seen, (basis, g) = [], p.coordinates()
    p.coordinates = lambda: (basis, lambda y: (seen.append(watch(y)), g(y))[1])
    return seen


def _counting_f_evaluations(p):
    """Make ``p`` record each F evaluation ``run_scheme`` makes, in its coordinates, in the returned list."""
    return _watching(p, lambda y: 1)


class TestFEvaluationCounts:
    @pytest.mark.parametrize("name,per_step", [("FH", 1), ("MANN", 1), ("NEW", 2), ("ZGY", 2)])
    def test_per_step(self, name, per_step):
        p = gen_spd_linear(6, seed=1)
        calls = _counting_f_evaluations(p)
        trace = run_scheme(name, p, np.zeros(6), HALF, HALF, StoppingRule(tol=-1.0, max_steps=10))
        assert trace.steps_used == 10
        # one evaluation at the start, then per_step for each of the 10 steps
        assert len(calls) == 1 + 10 * per_step
        # a mu table mixing 0 and nonzero entries, read past its end: step n costs 1 + (mu_n != 0), with
        # mu_n the casting's, as the step table gives it
        mixed = make_step_sequence("custom-table", table=[0.0, 0.5, 0.0, 0.0, 1.0, 0.0, 0.3])
        calls.clear()
        run_scheme(name, p, np.zeros(6), HALF, mixed, StoppingRule(tol=-1.0, max_steps=10))
        mus = _steps(*casting(name, HALF, mixed), contraction_factor(p.constants, p.lam), 10)[1]
        assert len(calls) == 1 + int(np.sum(1 + (mus != 0.0)))

    def test_zero_mu_reuses_f_of_x(self):
        p = gen_spd_linear(6, seed=1)
        calls = _counting_f_evaluations(p)
        run_new(p, np.zeros(6), ZERO, StoppingRule(tol=-1.0, max_steps=10))
        assert len(calls) == 11


class TestCollapseIdentities:
    @pytest.mark.parametrize("dim", [1, 8])
    def test_bitwise_equal_to_fh(self, dim):
        p = gen_spd_linear(dim, seed=2) if dim > 1 else gen_scalar_affine(b=2.0, lam=0.5)
        x0 = np.full(p.dim, 3.0)
        stop = StoppingRule(tol=1e-10, max_steps=200)
        fh = run_fh(p, x0, stop)
        for trace in (
            run_zgy(p, x0, ONE, ZERO, stop),
            run_mann(p, x0, ONE, stop),
            run_new(p, x0, ZERO, stop),
        ):
            assert len(trace.coordinates) == len(fh.coordinates)
            for a, b in zip(trace.coordinates + trace.iterates, fh.coordinates + fh.iterates):
                assert np.array_equal(a, b)
            assert trace.casting == fh.casting == (ONE, ZERO)

    @pytest.mark.parametrize("name, expected", [
        ("FH", lambda xi, mu: (ONE, ZERO)), ("MANN", lambda xi, mu: (xi, ZERO)),
        ("NEW", lambda xi, mu: (ONE, mu)), ("ZGY", lambda xi, mu: (xi, mu)),
    ])
    def test_each_run_records_its_casting(self, name, expected):
        # given both sequences, each scheme records the pair it ran with: a sequence its casting
        # does not use is replaced by the constant it fixes
        xi, mu = make_step_sequence("harmonic", offset=1), make_step_sequence("constant", value=0.3)
        trace = run_scheme(name, gen_scalar_affine(b=2.0, lam=0.5), [3.0], xi, mu, StoppingRule(max_steps=5))
        assert trace.casting == expected(xi, mu)


class TestEnvelopeProperty:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(triple=triples(), xi=sequences, mu=sequences,
           steps=st.integers(1, 50))
    def test_errors_stay_under_own_envelope(self, triple, xi, mu, steps):
        h, a, m, seed = triple
        constants = catalog_constants(h, a, m)
        lam, kappa = optimal_lambda(constants)
        if not kappa < 1.0:
            return
        p = ProblemInstance(h=h, a=a, m=m, constants=constants, lam=lam, dim=h.dim)
        x0 = 3.0 * np.random.default_rng(seed).standard_normal(h.dim)
        fh = run_fh(p, x0, StoppingRule(tol=1e-13))
        assert fh.converged
        # the measured errors are off the true ones by at most residual/(1 - kappa),
        # at step 0 and at step n alike
        slack = 2.0 * fh.residuals[-1] / (1.0 - kappa) + DEFAULT_AUDIT_SLACK
        p = dataclasses.replace(p, known_solution=fh.iterates[-1])
        for name in ("FH", "MANN", "NEW", "ZGY"):
            trace = run_scheme(name, p, x0, xi, mu, StoppingRule(tol=-1.0, max_steps=steps))
            bounds = envelope(kappa, *casting(name, xi, mu), trace.errors[0], steps)
            assert np.all(np.asarray(trace.errors) <= bounds + slack), name


class TestContractionOfF:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(triple=triples())
    def test_cataloged_triples_property(self, triple):
        # the catalog's constants survive sampling, and F is a kappa(lam*)-contraction
        h, a, m, seed = triple
        dim = h.dim
        constants = catalog_constants(h, a, m)
        assert validate_constants(h, a, m, constants, samples=50, seed=seed, dim=dim).passed
        lam, kappa = optimal_lambda(constants)
        if not kappa < 1.0:
            return
        p = ProblemInstance(h=h, a=a, m=m, constants=constants, lam=lam, dim=dim)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            x, y = 3.0 * rng.standard_normal((2, dim))
            lhs = np.linalg.norm(p.f_map(x) - p.f_map(y))
            assert lhs <= kappa * np.linalg.norm(x - y) + 1e-10

    def test_random_pair_audit(self):
        p = gen_spd_linear(15, seed=6)
        kappa = contraction_factor(p.constants, p.lam)
        rng = np.random.default_rng(0)
        for _ in range(300):
            x = rng.standard_normal(15)
            y = rng.standard_normal(15)
            lhs = np.linalg.norm(p.f_map(x) - p.f_map(y))
            assert lhs <= kappa * np.linalg.norm(x - y) + 1e-8

    def test_divergent_run_flagged(self):
        # F(x) = (1 - 2*lam) x / (1 + lam) has slope -5/4 at lam = 3
        p = ProblemInstance(
            h=ScaledIdentity(1),
            a=ScaledIdentity(2),
            m=ScaledIdentityMulti(1),
            constants=OperatorConstants(1, 1, 2, 2, 1),
            lam=3.0,
            dim=1,
            known_solution=[0.0],
        )
        assert contraction_factor(p.constants, p.lam) >= 1.0
        trace = run_fh(p, [4.0], StoppingRule(tol=1e-10, max_steps=10))
        assert trace.kappa >= 1.0
        assert not trace.converged
        assert not trace.diverged

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stops_at_first_nonfinite_iterate(self):
        # kappa >= 1 at lam = 50: the iterates grow until H x - lam*A x overflows
        p = gen_spd_linear(20, seed=0, c_a=5.0, lam=50.0)
        finite_inputs = _watching(p, lambda y: np.isfinite(y).all())
        trace = run_fh(p, np.zeros(20))
        assert trace.diverged and not trace.converged
        assert len(finite_inputs) == trace.steps_used + 1 and all(finite_inputs)
        assert len(trace.residuals) == len(trace.coordinates) == trace.steps_used + 1
        assert trace.steps_used < StoppingRule().max_steps


def _resolved_f(p, x):
    """F(x) through the resolvent, the way every non-affine problem evaluates it; in y = Q^T x with a basis Q."""
    q = p.basis
    y = x if q is None else q.T @ x
    fy = p.engine.resolve(p.h.apply(y) - p.lam * p.a.apply(y))
    return fy if q is None else q @ fy


def _explicit_affine(h, a, m, dim, lam=0.4):
    return ProblemInstance(h=h, a=a, m=m, constants=catalog_constants(h, a, m), lam=lam, dim=dim)


def _spd_matrix(dim):
    w = np.eye(dim) + 0.1 * np.random.default_rng(dim).standard_normal((dim, dim))
    return w @ w.T


class TestAffineFastPath:
    """Affine H, A and M: F's diagonal form t*x + c, or one resolve per evaluation, built on first use."""

    @staticmethod
    def _assert_equivalent(p, seed=0):
        rng = np.random.default_rng(seed)
        for scale in (1e-3, 1.0, 1e3):
            x = scale * rng.standard_normal(p.dim)
            diff = np.linalg.norm(p.f_map(x) - _resolved_f(p, x))
            assert diff <= 1e-13 * max(1.0, np.linalg.norm(x))

    @pytest.mark.parametrize("dim", [1, 7, 200])
    @pytest.mark.parametrize("lam,c_a", [(0.2, 1.0), (0.6, 1.0), (1.0, 0.5), (0.3, 2.0), (50.0, 5.0)])
    def test_spd_linear_matches_resolvent(self, dim, lam, c_a):
        self._assert_equivalent(gen_spd_linear(dim, seed=dim, c_a=c_a, lam=lam, m=0.7), dim)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_scalar_affine_matches_resolvent(self, lam):
        p = gen_scalar_affine(b=2.0, lam=lam)
        self._assert_equivalent(p)
        # scalar weights make t = (1 - lam)/(1 + lam) a division and F(x) = t*x + c bit for bit
        x = np.array([0.7])
        assert np.array_equal(p.f_map(x), (1.0 - lam) / (1.0 + lam) * x + lam * 2.0 / (1.0 + lam))
        # that is the diagonal form with no basis, so runs evaluate F through f_map
        assert p.basis is None and p.coordinates() == (None, p.f_map)

    @pytest.mark.parametrize("dim", [1, 6])
    def test_mixed_weights_match_resolvent(self, dim):
        rng = np.random.default_rng(dim)
        w = np.eye(dim) + 0.1 * rng.standard_normal((dim, dim))
        spd, offset = w @ w.T, rng.standard_normal(dim)
        for h, a, m in [  # matrix H with scalar A and M, scalar H with matrix A
            (AffineLinear(spd, offset), AffineLinear(0.8, offset), ScaledIdentityMulti(1.5)),
            (ScaledIdentity(2.0), AffineLinear(spd, offset), ScaledIdentityMulti(0.5)),
            (ScaledIdentity(2.0), AffineLinear(1.2, offset), LinearMonotone(spd)),
        ]:
            self._assert_equivalent(_explicit_affine(h, a, m, dim), dim)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(triple=triples())
    def test_cataloged_triples_match_resolvent(self, triple):
        h, a, m, seed = triple
        assume(not isinstance(m, ShiftedSubdifferential))  # never affine
        self._assert_equivalent(_explicit_affine(h, a, m, a.dim), seed)

    def test_k_is_factored_once_on_first_use(self, monkeypatch):
        factored = recorded(monkeypatch, scipy.linalg, "lu_factor")
        spd = gen_spd_linear(7, seed=7)
        # H as the matrix diag(h) in Q's coordinates: spd-linear's own F would factor nothing
        p = dataclasses.replace(spd, h=AffineLinear(np.diag(spd.h.weight)))
        assert factored == []  # not while the problem is built
        p.engine.resolve(np.zeros(7))
        p.f_map(np.zeros(7))  # F's resolve form uses the LU that resolve made
        p.engine.resolve(np.ones(7))
        assert len(factored) == 1
        assert np.linalg.norm(p.f_map(np.ones(7)) - spd.f_map(np.ones(7))) <= 1e-13

    @pytest.mark.parametrize("problem", [lambda: gen_spd_linear(6, seed=1),  # spectral
                                         lambda: gen_soft_threshold(6, seed=1)])  # no basis
    def test_wrong_dimension_raises(self, problem):
        p = problem()
        for x in (np.zeros(5), np.zeros(7)):
            with pytest.raises(ValueError):
                p.f_map(x)

    def test_affine_runs_make_no_resolve_call(self, monkeypatch):
        calls = recorded(monkeypatch, ResolventEngine, "resolve")
        p = gen_spd_linear(20, seed=3)
        for name in ("FH", "ZGY", "MANN", "NEW"):
            trace = run_scheme(name, p, np.zeros(20), HALF, HALF, StoppingRule(max_steps=50))
            assert trace.steps_used > 0
        assert calls == []

    def test_soft_threshold_runs_make_no_resolve_call(self, monkeypatch):
        # M = c*t + d|t| with scalar H and A weights takes the diagonal form, soft-thresholded
        p = gen_soft_threshold(12, seed=1)
        resolves = recorded(monkeypatch, ResolventEngine, "resolve")
        evaluations = _counting_f_evaluations(p)
        trace = run_new(p, np.zeros(12), HALF, StoppingRule(tol=-1.0, max_steps=10))
        assert trace.steps_used == 10 and len(evaluations) == 21
        assert resolves == []

    @pytest.mark.parametrize("problem", [
        lambda: ProblemInstance(h=tanh_h(0.5), a=AffineLinear(1.0, np.linspace(-1, 1, 12)),
                                m=ScaledIdentityMulti(1.0),
                                constants=OperatorConstants(1.0, 1.5, 1.0, 1.0, 1.0),
                                lam=0.5, dim=12),
        # affine but not diagonal: a dense H, scalar H and M with a matrix A, a matrix M
        lambda: _explicit_affine(AffineLinear(_spd_matrix(12)), AffineLinear(0.8, np.linspace(-1, 1, 12)),
                                 ScaledIdentityMulti(1.0), 12),
        lambda: _explicit_affine(ScaledIdentity(2.0), AffineLinear(_spd_matrix(12), np.linspace(-1, 1, 12)),
                                 ScaledIdentityMulti(0.5), 12),
        lambda: _explicit_affine(ScaledIdentity(2.0), AffineLinear(1.2, np.linspace(-1, 1, 12)),
                                 LinearMonotone(_spd_matrix(12)), 12),
    ])
    def test_other_problems_resolve_once_per_evaluation(self, problem, monkeypatch):
        p = problem()
        resolves = recorded(monkeypatch, ResolventEngine, "resolve")
        evaluations = _counting_f_evaluations(p)
        run_new(p, np.zeros(12), HALF, StoppingRule(tol=-1.0, max_steps=10))
        assert len(resolves) == len(evaluations) == 21

    def test_scalar_weights_build_no_matrix(self):
        dim = 5000
        p = ProblemInstance(h=ScaledIdentity(1.0), a=AffineLinear(2.0, np.ones(dim)),
                            m=ScaledIdentityMulti(1.0),
                            constants=OperatorConstants(1.0, 1.0, 2.0, 2.0, 1.0),
                            lam=0.3, dim=dim)
        x = np.linspace(-1.0, 1.0, dim)
        fx, peak = traced_peak(lambda: p.f_map(x))
        assert peak < 2 ** 20  # a dim x dim matrix would take 200 MB
        assert np.allclose(fx, (0.4 * x + 0.3) / 1.3, rtol=0, atol=1e-15)
        # the diagonal form G(x) = t*x + c with t = (h - lam*a)/k and c = lam*b_A/k, k = h + lam*m
        g = p.engine.fixed_point_map(p.a)
        k = 1.0 + 0.3 * 1.0
        assert p.basis is None and np.array_equal(g(x), (1.0 - 0.3 * 2.0) / k * x + 0.3 * np.ones(dim) / k)


class TestEigenbasisHotPath:
    """spd-linear runs evaluate F in H's eigenbasis, never through ``f_map``; other problems keep it."""

    def test_f_map_calls(self, monkeypatch):
        calls = recorded(monkeypatch, ProblemInstance, "f_map")
        spd = gen_spd_linear(12, seed=1)
        dense = in_x(spd)
        explicit = _explicit_affine(dense.h, dense.a, dense.m, 12)
        for p, evaluations in [(spd, 0), (gen_soft_threshold(12, seed=1), 21), (explicit, 21)]:
            del calls[:]
            trace = run_new(p, np.zeros(12), HALF, StoppingRule(tol=-1.0, max_steps=10))
            assert trace.steps_used == 10 and len(calls) == evaluations

    def test_fixed_point_map_built_once(self, monkeypatch):
        calls = recorded(monkeypatch, ResolventEngine, "fixed_point_map")
        p = gen_spd_linear(12, seed=1)
        p.f_map(np.zeros(12))
        assert p.coordinates()[0] is p.basis
        for name in ("FH", "MANN", "NEW", "ZGY"):
            run_scheme(name, p, np.zeros(12), HALF, HALF, StoppingRule(tol=-1.0, max_steps=5))
        assert len(calls) == 1

    def test_zero_start_needs_no_product(self):
        # y_0 = x_0 = 0, which Q^T 0 gives bit for bit; a nonzero start takes Q^T x_0.
        # Either run maps x_N = Q y_N back, by one product. The first run on a problem
        # with x* takes y* = Q^T x* before it starts
        p = gen_spd_linear(12, seed=1)
        basis, g = p.coordinates()
        used = []

        class Watched:
            @property
            def T(self):
                used.append("Q^T")
                return basis.T

            def __matmul__(self, v):
                used.append("Q")
                return basis @ v

        p.basis = Watched()
        stop = StoppingRule(tol=-1.0, max_steps=0)
        assert run_fh(p, np.zeros(12), stop).iterates[0].tolist() == [0.0] * 12
        assert used == ["Q^T", "Q"]
        run_fh(p, np.full(12, 0.5), stop)
        assert used == ["Q^T", "Q", "Q^T", "Q"]
        # a run that keeps every y_n still maps x_N alone back, and y* is not taken again
        del used[:]
        trace = run_fh(p, np.zeros(12), StoppingRule(tol=-1.0, max_steps=150))
        assert used == ["Q"] and len(trace.coordinates) == 151 and len(trace.iterates) == 1


#: a run measures errors[n] = ||y_n - y*|| for n < N; they agree with ||x_n - x*|| of the
#: x_n = Q y_n mapped back from its coordinates within this many units of rounding times
#: ||x_n|| + ||x*||, on dims up to 200 (measured: at most 5.1). A contracting run has
#: ||x_n|| <= 2||x*|| + ||x_0||, so there max(1, ||x*||, ||x_0||) may stand for it
LAST_ONLY_ROUNDING = 32
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _mapped_back(p, trace):
    """The x_n = Q y_n of ``trace``'s coordinates, by one product with Q."""
    basis, ys = p.coordinates()[0], np.array(trace.coordinates)
    return ys if basis is None else (basis @ ys.T).T


class TestLastIterateOnly:
    """Errors taken in y-space against those of the mapped-back x_n; ``keep_iterates=False``
    keeps no coordinates and changes nothing else."""

    @staticmethod
    def _check(p, x0, name):
        stop = StoppingRule(tol=1e-10 * max(1.0, np.linalg.norm(p.known_solution)), max_steps=60)
        full = run_scheme(name, p, x0, HALF, HALF, stop)
        last = run_scheme(name, p, x0, HALF, HALF, stop, keep_iterates=False)
        assert (last.steps_used, last.residuals, last.errors, last.converged, last.diverged) == (
            full.steps_used, full.residuals, full.errors, full.converged, full.diverged)
        assert last.coordinates is None and len(full.coordinates) == len(full.errors)
        assert len(last.iterates) == 1 and np.array_equal(last.iterates[0], full.iterates[0])
        x_errors = [vector_norm(x - p.known_solution) for x in _mapped_back(p, full)]
        scale = max(1.0, np.linalg.norm(p.known_solution), np.linalg.norm(x0))
        gap = np.max(np.abs(np.subtract(full.errors, x_errors)))
        assert gap <= LAST_ONLY_ROUNDING * UNIT_ROUNDOFF * scale
        # what the benchmark's oracle recomputes, exactly
        assert last.errors[-1] == float(np.linalg.norm(last.iterates[-1] - p.known_solution))
        return full, x_errors

    @pytest.mark.parametrize("dim", [1, 7, 200])
    @pytest.mark.parametrize("b_scale", [1e-6, 1.0, 1e12])
    def test_agrees_with_a_run_that_keeps_its_iterates(self, dim, b_scale):
        p = gen_spd_linear(dim, seed=1, b_scale=b_scale)
        for start in (0.0, 1.0):
            for name in ("FH", "MANN", "NEW", "ZGY"):
                self._check(p, np.full(dim, start), name)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(dim=st.integers(1, 200), log_b_scale=st.floats(-6.0, 12.0), seed=st.integers(0, 999),
           start=st.sampled_from([0.0, 1.0, -7.5]), name=st.sampled_from(["FH", "MANN", "NEW", "ZGY"]))
    def test_agrees_with_a_run_that_keeps_its_iterates_property(self, dim, log_b_scale, seed,
                                                                 start, name):
        p = gen_spd_linear(dim, seed=seed, b_scale=10.0 ** log_b_scale)
        self._check(p, np.full(dim, start), name)

    @pytest.mark.parametrize("make", [lambda: gen_soft_threshold(12, seed=1),
                                      lambda: gen_scalar_affine(b=2.0, lam=0.5)])
    def test_basis_free_errors_are_bitwise_unchanged(self, make):
        # without a basis the coordinates are the iterates themselves
        p = make()
        for name in ("FH", "MANN", "NEW", "ZGY"):
            full, x_errors = self._check(p, np.full(p.dim, 4.0), name)
            assert full.errors == x_errors and np.array_equal(full.coordinates[-1], full.iterates[0])

    def test_without_solution_keeps_the_last_iterate(self):
        p = gen_spd_linear(12, seed=1)
        p.known_solution = None
        stop = StoppingRule(tol=-1.0, max_steps=20)
        full = run_zgy(p, np.ones(12), HALF, HALF, stop)
        last = run_zgy(p, np.ones(12), HALF, HALF, stop, keep_iterates=False)
        assert last.errors is None and last.coordinates is None and len(last.residuals) == 21
        assert len(last.iterates) == 1 and np.array_equal(last.iterates[0], full.iterates[0])
        np.testing.assert_allclose(last.iterates[0], _mapped_back(p, full)[-1], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("make", [lambda: gen_spd_linear(500, seed=1),
                                      lambda: gen_soft_threshold(500, seed=1)])
    @pytest.mark.parametrize("name", ["FH", "ZGY"])
    def test_holds_no_path_without_keep_iterates(self, make, name):
        # errors are taken as the run steps, so with x* known a run still keeps no y_n:
        # 4,000 kept y_n at dim 500 would take 16 MB
        p = make()
        trace, peak = traced_peak(lambda: run_scheme(name, p, np.ones(500), HALF, HALF,
                                                     StoppingRule(tol=-1.0, max_steps=4000), keep_iterates=False))
        assert trace.steps_used == 4000 and len(trace.errors) == 4001 and trace.coordinates is None
        assert peak < 2 * 2 ** 20

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_returns_its_last_finite_iterate(self):
        p = gen_spd_linear(20, seed=0, c_a=5.0, lam=50.0)
        xstar = p.known_solution
        full = run_fh(p, np.zeros(20))
        for known in (xstar, None):
            p.known_solution = known
            last = run_fh(p, np.zeros(20), keep_iterates=False)
            assert last.diverged and len(last.iterates) == 1
            assert np.isfinite(last.iterates[0]).all()
        # the iterates grow to ~1e308, and the rounding of the errors with them; every
        # error, ||x_N - x*|| = 1.6e308 too, stays below the largest float
        p.known_solution = xstar
        xs = _mapped_back(p, full)
        x_errors = np.array([vector_norm(x - xstar) for x in xs])
        scale = np.array([vector_norm(x) for x in xs]) + np.linalg.norm(xstar)
        errors = np.array(full.errors)
        finite = np.isfinite(x_errors)
        assert np.isfinite(errors).all() and finite.all() and errors[-1] > 1e308
        assert np.all(np.abs(errors - x_errors)[finite] <= LAST_ONLY_ROUNDING * UNIT_ROUNDOFF * scale[finite])


def test_norms_overflow_only_with_the_vector():
    # np.linalg.norm squares the entries, so it reads inf from ||v|| ~ 1.3e154 on
    big = np.full(4, 1e200)
    with np.errstate(over="ignore"):  # as hmsolve.cli.main runs
        assert np.linalg.norm(big) == np.inf and vector_norm(big) == 2e200
        assert vector_norm(np.full(4, 1e308)) == np.inf  # ||v|| = 2e308 is not a float
        for v in (np.array([np.inf, 1.0]), np.array([np.nan, 1e200]), np.zeros(3)):
            assert np.array_equal(vector_norm(v), np.linalg.norm(v), equal_nan=True)
    # vector_norm takes numpy's own sqrt(v.dot(v)): bit for bit the same, with subnormal and
    # zero entries too, up to the dims and scales whose squares overflow (here 1e153 at dim 2000)
    rng = np.random.default_rng(0)
    with np.errstate(over="ignore"):
        for dim in (1, 50, 1000, 2000):
            for scale in (1e-320, 1e-300, 1e-8, 1.0, 1e8, 1e150, 1e153):
                v = scale * rng.standard_normal(dim)
                for _ in range(2):
                    norm = float(np.linalg.norm(v))
                    if norm == np.inf:
                        top = np.max(np.abs(v))
                        norm = top * float(np.linalg.norm(v / top))
                    assert vector_norm(v) == norm
                    v[::3] = 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_run_reports_finite_norms_until_it_diverges():
    # kappa >= 1: FH's iterates pass 1e154 at about step 202 and overflow at step 404.
    # The residual or error of a finite vector is np.linalg.norm's below 1e154 and, above,
    # that of the vector scaled down by an exact power of two, up to rounding. Only the
    # last F(x_n) - x_n and x_N - x* pass the largest float
    p = gen_spd_linear(20, seed=0, c_a=5.0, lam=50.0)
    trace = run_fh(p, np.zeros(20))
    assert trace.diverged and trace.steps_used == 403
    assert np.isfinite(trace.errors[:-1]).all() and np.isfinite(trace.residuals[:-2]).all()
    assert max(trace.errors) > 1e300
    g, ystar = p.coordinates()[1], p._solution_coordinates
    norms = [(r, g(y) - y) for r, y in zip(trace.residuals, trace.coordinates)]
    norms += [(e, y - ystar) for e, y in zip(trace.errors[:-1], trace.coordinates)]
    for norm, v in norms:
        if not np.isfinite(v).all():
            assert norm == np.inf
        elif np.abs(v).max() < 1e150:
            assert norm == np.linalg.norm(v)
        else:
            assert norm == pytest.approx(2.0 ** 600 * np.linalg.norm(v * 2.0 ** -600), rel=1e-15)


@pytest.mark.parametrize("problem", [lambda: gen_spd_linear(50, seed=2), lambda: gen_soft_threshold(50, seed=2)])
def test_wall_nanos_is_the_time_elapsed(problem):
    # nonnegative and nondecreasing from the run's start, and never above its wall time
    p = problem()
    start = time.perf_counter_ns()
    trace = run_new(p, np.ones(50), HALF, StoppingRule(tol=-1.0, max_steps=40))
    elapsed = time.perf_counter_ns() - start
    wall = trace.wall_nanos
    assert len(wall) == 41 and wall[0] >= 0
    assert all(later >= earlier for earlier, later in zip(wall, wall[1:]))
    assert wall[-1] <= elapsed


def test_spd_linear_errors_match_closed_form():
    # T = Q diag(t) Q^T with t = (h - lam*a)/(h + lam*m), and a step of the relaxed
    # iteration multiplies each eigencomponent of the error by 1 - xi + xi*t(1 - mu + mu*t)
    p = gen_spd_linear(200, seed=1, lam=0.6)
    q, h = p.basis, p.h.weight
    t = (h - p.lam * p.a.weight) / (h + p.lam * p.m.scale)
    e0 = q.T @ -p.known_solution
    steps = np.arange(31)[:, None]
    stop = StoppingRule(tol=-1.0, max_steps=30)
    for trace, factor in [(run_fh(p, np.zeros(200), stop), t),
                          (run_new(p, np.zeros(200), HALF, stop), t * (0.5 + 0.5 * t))]:
        predicted = np.linalg.norm(factor ** steps * e0, axis=1)
        # absolute: relative error means nothing at the rounding floor the runs reach
        assert np.max(np.abs(np.array(trace.errors) - predicted)) <= 1e-14 * max(
            1.0, np.linalg.norm(p.known_solution))


@pytest.mark.parametrize("m", [ScaledIdentityMulti(1.0), LinearMonotone(np.eye(4))])
def test_overflowing_nonlinear_run_ends_diverged(m):
    # kappa > 1 and H x - lam*A x overflows on the first F evaluation: the
    # separable and Newton resolvents hand the runner a non-finite iterate
    p = ProblemInstance(h=tanh_h(0.5), a=ScaledIdentity(5.0), m=m,
                        constants=OperatorConstants(1.0, 1.5, 5.0, 5.0, 1.0), lam=50.0, dim=4)
    with np.errstate(over="ignore", invalid="ignore"):  # as hmsolve.cli.main runs
        trace = run_fh(p, np.full(4, 1e307))
    assert trace.diverged and not trace.converged
    assert trace.steps_used == 0


def _soft_auto():
    from hmsolve.cli import build_problem

    return build_problem({"problem": {"kind": "soft-threshold", "dim": 30, "seed": 3}, "lambda": "auto"})


def _resolve_form():  # scalar H and M with a matrix A: G is one resolve per evaluation
    return _explicit_affine(ScaledIdentity(2.0), AffineLinear(_spd_matrix(8), np.linspace(-1, 1, 8)),
                            ScaledIdentityMulti(0.5), 8)


def _separable():  # a DiagonalNonlinear H: G solves coordinatewise
    return ProblemInstance(h=tanh_h(0.5), a=AffineLinear(1.0, np.linspace(-1, 1, 12)), m=ScaledIdentityMulti(1.0),
                           constants=OperatorConstants(1.0, 1.5, 1.0, 1.0, 1.0), lam=0.5, dim=12)


#: (label, problem factory, x_0): every form of G that a run can take, with and without x*, a
#: run that diverges and one whose iterates' squares overflow
KERNEL_PROBLEMS = [
    ("spd-x0-0", lambda: gen_spd_linear(20, seed=4), 0.0),
    ("spd-x0-1", lambda: gen_spd_linear(20, seed=4), 1.0),
    ("soft-0.7", lambda: gen_soft_threshold(30, seed=3, lam=0.7), 1.0),
    ("soft-auto", _soft_auto, 1.0),
    ("scalar-affine", lambda: gen_scalar_affine(b=2.0, lam=0.5), 3.0),
    ("resolve-form", _resolve_form, 1.0),
    ("separable", _separable, 1.0),
    ("diverging", lambda: gen_spd_linear(20, seed=0, c_a=5.0, lam=50.0), 0.0),
    ("b-scale-1e160", lambda: gen_spd_linear(20, seed=1, b_scale=1e160), 1.0),
]
KERNEL_SEQUENCES = [make_step_sequence("constant", value=0.5), make_step_sequence("harmonic", offset=1),
                    make_step_sequence("custom-table", table=[0.5, 0.0, 1.0, 0.25, 0.0, 1.0, 0.75])]


#: a problem for each form of G: diagonal in a basis, diagonal and soft-thresholded, diagonal with
#: scalar weights, and one resolve per evaluation
G_FORMS = [lambda: gen_spd_linear(30, seed=2), lambda: gen_soft_threshold(30, seed=2),
           lambda: gen_scalar_affine(b=2.0, lam=0.5), _resolve_form]


def _recorded_run(runner, make, x0, name, seq, keep, stop):
    """``runner``'s trace on a fresh problem, the inputs it handed G (copied at the call) and its warnings."""
    p = make()
    inputs = _watching(p, lambda y: np.array(y, copy=True))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = runner(name, p, np.full(p.dim, x0), seq, seq, stop, keep)
    return trace, inputs, {(w.category, str(w.message)) for w in caught}


def _bits(values):
    return None if values is None else np.asarray(values, dtype=float).tobytes()


def _against_the_plain_loop(make, x0, keep, stop):
    """Each scheme's run_scheme trace under each of KERNEL_SEQUENCES against the plain loop's: every trace
    field bit for bit, and G's inputs. {(family, scheme): (trace, how many G inputs the fill saved)}."""
    traces = {}
    for seq in KERNEL_SEQUENCES:
        for name in ("FH", "MANN", "NEW", "ZGY"):
            lean, lean_inputs, lean_warned = _recorded_run(run_scheme, make, x0, name, seq, keep, stop)
            plain, plain_inputs, plain_warned = _recorded_run(plain_run_scheme, make, x0, name, seq, keep, stop)
            assert (lean.steps_used, lean.converged, lean.diverged, lean.casting) == (
                plain.steps_used, plain.converged, plain.diverged, plain.casting)
            for field in ("residuals", "errors", "iterates"):
                assert _bits(getattr(lean, field)) == _bits(getattr(plain, field)), field
            assert (lean.coordinates is None) == (plain.coordinates is None) == (not keep)
            if keep:
                assert _bits(lean.coordinates) == _bits(plain.coordinates)
            # once y_n repeats bit for bit the kernel fills the trace in without G: its inputs are a prefix of
            # the plain loop's, whose remaining inputs repeat the kernel's last step's inputs (1 or 2 a step)
            lean_bits, plain_bits = ([y.tobytes() for y in inputs] for inputs in (lean_inputs, plain_inputs))
            rest = plain_bits[len(lean_bits):]
            per_step = 1 if casting(name, seq, seq)[1].value(0) == 0.0 else 2  # G evaluations of a constant step
            assert plain_bits[:len(lean_bits)] == lean_bits
            assert len(rest) % per_step == 0 and rest == lean_bits[-per_step:] * (len(rest) // per_step)
            assert lean_warned <= plain_warned
            traces[seq.family, name] = lean, len(rest)
    return traces


@pytest.mark.parametrize("keep", [True, False])
@pytest.mark.parametrize("label, make, x0", KERNEL_PROBLEMS, ids=[k[0] for k in KERNEL_PROBLEMS])
def test_run_scheme_is_the_plain_loop_bit_for_bit(label, make, x0, keep):
    # the lean kernel (one scratch vector, in-place relaxations, the error as the finite test)
    # against the plain loop: every trace field, and every input handed to G, bit for bit
    traces = _against_the_plain_loop(make, x0, keep, StoppingRule(max_steps=600))
    fh = traces["constant", "FH"][0]
    if label == "diverging":  # FH's y_404 is the first non-finite iterate
        assert fh.diverged and fh.steps_used == 403
    if label == "b-scale-1e160":  # the errors' squares overflow, and vector_norm rescales
        assert np.isfinite(fh.errors).all() and fh.errors[0] > 1e154 and 1e154 < fh.solution_norm < np.inf


@pytest.mark.parametrize("label, make, x0", KERNEL_PROBLEMS, ids=[k[0] for k in KERNEL_PROBLEMS])
def test_run_scheme_is_the_plain_loop_bit_for_bit_to_the_cap(label, make, x0):
    # with the residual test off a convergent run may reach a floating-point fixed point before the cap and
    # be filled in; FH's casting (1, 0) is constant under every sequence family, and FH reaches one on each
    # form of G
    traces = _against_the_plain_loop(make, x0, True, StoppingRule(tol=-1.0, max_steps=300))
    assert all(trace.steps_used == 300 or trace.diverged for trace, _ in traces.values())
    if label != "diverging":  # kappa > 1: nothing repeats
        assert all(traces[seq.family, "FH"][1] > 0 for seq in KERNEL_SEQUENCES)
    # the other castings under a varying sequence are never filled in, whatever their steps
    assert all(saved == 0 for (family, name), (_, saved) in traces.items() if family != "constant" and name != "FH")


@pytest.mark.parametrize("keep", [True, False])
@pytest.mark.parametrize("name, most", [("FH", 3), ("NEW", 5)])
def test_run_at_kappa_zero_stops_calling_g_once_it_repeats(name, most, keep):
    # kappa = 0 at auto lambda: G(y_1) is the fixed point in floats, and a run to the cap without the residual
    # test evaluates G at most `most` times instead of 1 + 40 times its per-step cost, with the plain loop's trace
    p, stop, x0 = _soft_auto(), StoppingRule(tol=-1.0, max_steps=40), np.ones(30)
    calls = _counting_f_evaluations(p)
    trace = run_fh(p, x0, stop, keep) if name == "FH" else run_new(p, x0, HALF, stop, keep)
    plain = plain_run_scheme(name, _soft_auto(), x0, mu=HALF, stop=stop, keep_iterates=keep)
    assert contraction_factor(p.constants, p.lam) == 0.0 and len(calls) <= most
    for field in ("residuals", "errors", "iterates", "coordinates"):
        assert _bits(getattr(trace, field)) == _bits(getattr(plain, field)), field
    assert (trace.steps_used, trace.converged, trace.diverged) == (40, False, False)


@pytest.mark.parametrize("make", G_FORMS, ids=["diagonal-basis", "diagonal-shrink", "diagonal-scalar", "resolve"])
@pytest.mark.parametrize("name", ["FH", "MANN", "NEW", "ZGY"])
def test_kept_coordinates_are_distinct_and_never_written(make, name):
    # keep_iterates stores references: each computed y_n is its own array, G never writes its argument
    # or returns it, and no later step writes a stored y_n; once y_n repeats y_(n-1) bit for bit, the
    # rest of the run repeats the read-only y_n
    p = make()
    basis, g = p.coordinates()
    seen = {}

    def snapshotting(y):
        before = y.copy()
        gy = g(y)
        assert np.array_equal(y, before) and not np.shares_memory(gy, y)
        seen[id(y)] = (y, before)
        return gy

    p.coordinates = lambda: (basis, snapshotting)
    trace = run_scheme(name, p, np.ones(p.dim), HALF, HALF, StoppingRule(tol=-1.0, max_steps=25))
    ys = trace.coordinates
    assert len(ys) == 26
    computed = next((n for n in range(1, 26) if ys[n] is ys[n - 1]), 26)
    for i, y in enumerate(ys[:computed]):
        assert all(not np.shares_memory(y, other) for other in ys[i + 1:computed])
        # every y_n went to G as soon as it existed, and still holds what G saw
        assert seen[id(y)][0] is y and np.array_equal(y, seen[id(y)][1])
    assert all(y is ys[computed - 1] for y in ys[computed:])
    assert computed == 26 or not ys[-1].flags.writeable


@pytest.mark.parametrize("make", G_FORMS, ids=["diagonal-basis", "diagonal-shrink", "diagonal-scalar", "resolve"])
def test_g_returns_a_fresh_array_and_never_writes_its_argument(make):
    p = make()
    g = p.engine.fixed_point_map(p.a)
    x = np.random.default_rng(0).standard_normal(p.dim)
    x.setflags(write=False)  # a write into x would raise
    first, second = g(x), g(x)
    assert not (np.shares_memory(first, x) or np.shares_memory(first, second))
    assert np.array_equal(first, second)

