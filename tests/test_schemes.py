import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmsolve.analysis import DEFAULT_AUDIT_SLACK, contraction_factor, envelope, optimal_lambda
from hmsolve.operators import (
    AffineLinear,
    LinearMonotone,
    OperatorConstants,
    ScaledIdentity,
    ScaledIdentityMulti,
    ShiftedSubdifferential,
    catalog_constants,
    validate_constants,
)
from hmsolve.problems import gen_scalar_affine, gen_spd_linear
from hmsolve.schemes import (
    ProblemInstance,
    StoppingRule,
    make_step_sequence,
    run_fh,
    run_mann,
    run_new,
    run_scheme,
    run_zgy,
)

ONE = make_step_sequence("constant", value=1.0)
ZERO = make_step_sequence("constant", value=0.0)
HALF = make_step_sequence("constant", value=0.5)


class TestStepSequences:
    def test_constant_properties(self):
        seq = make_step_sequence("constant", value=0.9)
        assert seq.sums_to_infinity
        assert seq.lower_bound == 0.9
        assert not seq.tends_to_zero
        assert seq.value(17) == 0.9

    def test_harmonic(self):
        seq = make_step_sequence("harmonic", offset=1)
        assert [seq.value(n) for n in range(3)] == [1.0, 0.5, 1 / 3]
        assert seq.sums_to_infinity and seq.tends_to_zero

    def test_zero_constant_does_not_diverge(self):
        assert not make_step_sequence("constant", value=0.0).sums_to_infinity

    def test_one_minus_harmonic(self):
        seq = make_step_sequence("one-minus-harmonic", offset=2)
        assert seq.value(0) == 0.5
        assert seq.lower_bound == 0.5
        assert not seq.tends_to_zero

    def test_custom_table_repeats_last(self):
        seq = make_step_sequence("custom-table", table=[0.1, 0.4])
        assert seq.value(0) == 0.1 and seq.value(5) == 0.4
        assert seq.sums_to_infinity

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_step_sequence("constant", value=1.5)


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
        assert p.residual(p.known_solution) <= 1e-10


class TestRunFH:
    def test_one_step_exact_when_kappa_zero(self):
        p = gen_scalar_affine(b=2.0, lam=1.0)
        assert p.contraction_factor() == 0.0
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
        kappa = p.contraction_factor()
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
        assert all(it[0] == 5.0 for it in trace.iterates)

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
        got = [it[0] for it in trace.iterates]
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
        kappa = p.contraction_factor()
        mu = make_step_sequence("constant", value=0.7)
        trace = run_new(p, np.zeros(20), mu)
        factor = kappa * (1 - 0.7 * (1 - kappa))
        for n in range(trace.steps_used):
            assert trace.errors[n + 1] <= factor * trace.errors[n] + 1e-8


def _counting_f_map(p):
    """Make ``p`` record each F evaluation in the returned list."""
    calls = []
    f_map = p.f_map

    def counting(x):
        calls.append(1)
        return f_map(x)

    p.f_map = counting
    return calls


class TestFEvaluationCounts:
    @pytest.mark.parametrize("name,per_step", [("FH", 1), ("MANN", 1), ("NEW", 2), ("ZGY", 2)])
    def test_per_step(self, name, per_step):
        p = gen_spd_linear(6, seed=1)
        calls = _counting_f_map(p)
        trace = run_scheme(name, p, np.zeros(6), HALF, HALF, StoppingRule(tol=-1.0, max_steps=10))
        assert trace.steps_used == 10
        # one evaluation at the start, then per_step for each of the 10 steps
        assert len(calls) == 1 + 10 * per_step

    def test_zero_mu_reuses_f_of_x(self):
        p = gen_spd_linear(6, seed=1)
        calls = _counting_f_map(p)
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
            assert len(trace.iterates) == len(fh.iterates)
            for a, b in zip(trace.iterates, fh.iterates):
                assert np.array_equal(a, b)


@st.composite
def _cataloged_triple(draw):
    """(H, A, M, seed) from the catalog, with random offsets on H and A.

    H is a scalar or a random SPD weight, A a scalar or a positive multiple
    of H, M a scalar, an SPD matrix or, when H is a scalar, a subdifferential.
    """
    dim = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    scale = st.floats(min_value=0.2, max_value=3.0)

    def spd():
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        w = (q * rng.uniform(0.5, 2.0, dim)) @ q.T
        return (w + w.T) / 2.0

    h = AffineLinear(spd() if draw(st.booleans()) else draw(scale), rng.standard_normal(dim))
    a_weight = draw(scale) * (h.weight if draw(st.booleans()) else 1.0)
    a = AffineLinear(a_weight, rng.standard_normal(dim))
    kinds = ["scalar", "spd"] + (["subdifferential"] if h.matrix is None else [])
    m = {"scalar": lambda: ScaledIdentityMulti(draw(scale)),
         "spd": lambda: LinearMonotone(spd()),
         "subdifferential": lambda: ShiftedSubdifferential(draw(scale))}[
        draw(st.sampled_from(kinds))]()
    return h, a, m, seed


_STEP = st.floats(min_value=0.0, max_value=1.0)

#: step sequences of all four families; a table may end in 0, making its sum finite
_SEQUENCE = st.one_of(
    _STEP.map(lambda v: make_step_sequence("constant", value=v)),
    st.integers(1, 5).map(lambda k: make_step_sequence("harmonic", offset=k)),
    st.integers(1, 5).map(lambda k: make_step_sequence("one-minus-harmonic", offset=k)),
    st.tuples(st.lists(_STEP, min_size=1, max_size=8), st.booleans()).map(
        lambda t: make_step_sequence("custom-table", table=t[0] + [0.0] * t[1])),
)


class TestEnvelopeProperty:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(triple=_cataloged_triple(), xi=_SEQUENCE, mu=_SEQUENCE,
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
            bounds = envelope(name, kappa, xi, mu, trace.errors[0], steps)
            assert np.all(np.asarray(trace.errors) <= bounds + slack), name


class TestContractionOfF:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(triple=_cataloged_triple())
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
        assert p.contraction_factor() >= 1.0
        trace = run_fh(p, [4.0], StoppingRule(tol=1e-10, max_steps=10))
        assert trace.hypothesis_violated
        assert not trace.converged
        assert not trace.diverged

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stops_at_first_nonfinite_iterate(self):
        # kappa >= 1 at lam = 50: the iterates grow until H x - lam*A x overflows
        p = gen_spd_linear(20, seed=0, c_a=5.0, lam=50.0)
        finite_inputs = []
        f_map = p.f_map
        p.f_map = lambda x: (finite_inputs.append(np.isfinite(x).all()), f_map(x))[1]
        trace = run_fh(p, np.zeros(20))
        assert trace.diverged and not trace.converged
        assert all(finite_inputs)
        assert len(trace.residuals) == len(trace.iterates) == trace.steps_used + 1
        assert trace.steps_used < StoppingRule().max_steps
