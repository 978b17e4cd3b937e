"""The four iterative schemes as castings of one relaxed two-step iteration.

All four algorithms iterate relaxations of the fixed-point map
F(x) = R[H x - lam*A x], where R is the resolvent of (H, lam*M), through

    r_n = (1-mu_n) x_n + mu_n F(x_n);  x_{n+1} = (1-xi_n) x_n + xi_n F(r_n)

and differ only in the step sequences (xi, mu) they feed it (``CASTINGS``):
FH = (1, 0), MANN = (xi, 0), NEW = (1, mu) and ZGY = (xi, mu).
"""

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .operators import OperatorConstants
from .resolvent import ResolventEngine

__all__ = [
    "as_vector",
    "StepSequence",
    "make_step_sequence",
    "StoppingRule",
    "ProblemInstance",
    "IterationTrace",
    "ONE",
    "ZERO",
    "CASTINGS",
    "casting",
    "run_scheme",
    "run_fh",
    "run_zgy",
    "run_mann",
    "run_new",
]


def as_vector(entries):
    """Coerce ``entries`` to an immutable 1-d float64 array.

    Scalars become 1-d vectors of dimension one. Non-finite entries are
    rejected.
    """
    v = np.atleast_1d(np.asarray(entries, dtype=float)).copy()
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a scalar or a non-empty 1-d sequence of reals")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class StepSequence:
    """A [0,1]-valued step-size sequence with symbolically derived properties.

    Series-level properties (divergence of the sum, vanishing limit, uniform
    lower bound) are derived per family at construction, never sampled: no
    finite sample can witness them.
    """

    family: str
    value_param: float = 0.0
    offset: int = 1
    table: tuple = ()
    sums_to_infinity: bool = False
    tends_to_zero: bool = False
    lower_bound: float = 0.0

    def value(self, n):
        if self.family == "constant":
            return self.value_param
        if self.family == "harmonic":
            return 1.0 / (n + self.offset)
        if self.family == "one-minus-harmonic":
            return 1.0 - 1.0 / (n + self.offset)
        if self.family == "custom-table":
            return self.table[n] if n < len(self.table) else self.table[-1]
        raise ValueError("unknown family %r" % (self.family,))


def make_step_sequence(family, value=None, offset=None, table=None):
    """Build a StepSequence and derive its declared properties.

    constant(c): diverging sum iff c > 0, lower bound c.
    harmonic(k): 1/(n+k); diverging sum, vanishing terms.
    one-minus-harmonic(k): 1 - 1/(n+k); diverging sum, lower bound at n = 0.
    custom-table: finite table, last entry repeated forever.
    """
    if family == "constant":
        if value is None or not 0.0 <= value <= 1.0:
            raise ValueError("constant step value must lie in [0, 1]")
        return StepSequence(
            family=family, value_param=float(value),
            sums_to_infinity=value > 0, tends_to_zero=value == 0,
            lower_bound=float(value),
        )
    if family == "harmonic":
        offset = 1 if offset is None else int(offset)
        if offset < 1:
            raise ValueError("harmonic offset must be >= 1")
        return StepSequence(
            family=family, offset=offset,
            sums_to_infinity=True, tends_to_zero=True, lower_bound=0.0,
        )
    if family == "one-minus-harmonic":
        offset = 1 if offset is None else int(offset)
        if offset < 1:
            raise ValueError("offset must be >= 1")
        return StepSequence(
            family=family, offset=offset,
            sums_to_infinity=True, tends_to_zero=False,
            lower_bound=1.0 - 1.0 / offset,
        )
    if family == "custom-table":
        if not table:
            raise ValueError("custom-table requires a non-empty table")
        table = tuple(float(v) for v in table)
        if any(not 0.0 <= v <= 1.0 for v in table):
            raise ValueError("table values must lie in [0, 1]")
        return StepSequence(
            family=family, table=table,
            sums_to_infinity=table[-1] > 0,
            tends_to_zero=table[-1] == 0,
            lower_bound=min(table),
        )
    raise ValueError("unknown family %r" % (family,))


ONE = make_step_sequence("constant", value=1.0)
ZERO = make_step_sequence("constant", value=0.0)

#: each scheme as the relaxed two-step iteration: name -> (xi, mu) casting
#: built from the caller's sequences
CASTINGS = {
    "FH": lambda xi, mu: (ONE, ZERO),
    "ZGY": lambda xi, mu: (xi, mu),
    "MANN": lambda xi, mu: (xi, ZERO),
    "NEW": lambda xi, mu: (ONE, mu),
}


def casting(name, xi=None, mu=None):
    """The (xi, mu) sequences with which the relaxed two-step iteration is ``name``.

    ``name`` is case-insensitive; a sequence the casting needs but which is
    not given is an error.
    """
    cast = CASTINGS[name.upper()](xi, mu)
    if None in cast:
        raise ValueError("scheme %s needs the %s sequence"
                         % (name.upper(), "xi" if cast[0] is None else "mu"))
    return cast


@dataclass(frozen=True)
class StoppingRule:
    """Stop when the fixed-point residual ||F(x) - x|| <= tol or at the cap.

    A negative tol disables the residual test entirely (fixed-length runs);
    a NaN tol, which no residual meets, and a negative cap are errors.
    """

    tol: float = 1e-10
    max_steps: int = 100_000

    def __post_init__(self):
        if np.isnan(self.tol) or self.max_steps < 0:
            raise ValueError("tol must not be NaN and max_steps not negative, got %r" % (self,))


@dataclass
class ProblemInstance:
    """The triple (H, A, M) with constants, lam and optionally the solution."""

    h: object
    a: object
    m: object
    constants: OperatorConstants
    lam: float
    dim: int
    known_solution: object = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be finite and strictly positive, got %r" % (self.lam,))
        if not self.dim >= 1:
            raise ValueError("dim must be at least 1")
        for op in (self.h, self.a, self.m):
            if getattr(op, "dim", None) not in (None, self.dim):
                raise ValueError("%r acts on dimension %d, not %d" % (op, op.dim, self.dim))
        self.engine = ResolventEngine(self.h, self.m, self.lam, self.dim)
        if self.known_solution is not None:
            self.known_solution = as_vector(self.known_solution)
            if self.known_solution.shape[0] != self.dim:
                raise ValueError("known_solution dimension mismatch")

    @functools.cached_property
    def _map(self):
        return self.engine.fixed_point_map(self.a)

    def coordinates(self):
        """(Q, G) with F(x) = Q G(Q^T x): the coordinates y = Q^T x that ``run_scheme`` iterates in.

        Both come from ``ResolventEngine.fixed_point_map``. Where Q is None, G is
        ``f_map`` itself, so each F evaluation of such a run is an ``f_map`` call.
        """
        basis, g = self._map
        return (None, self.f_map) if basis is None else (basis, g)

    def f_map(self, x):
        """F(x) = R[H x - lam*A x], in the form ``ResolventEngine.fixed_point_map`` chose.

        That map is built on the first call to this or to ``coordinates``; with an
        eigenbasis Q, F(x) = Q G(Q^T x) builds no n x n array.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            raise ValueError("dimension mismatch: %s vs %d" % (x.shape, self.dim))
        basis, g = self._map
        return g(x) if basis is None else basis @ g(basis.T @ x)

    def contraction_factor(self):
        from .analysis import contraction_factor

        return contraction_factor(self.constants, self.lam)


@dataclass
class IterationTrace:
    """Per-step record of one algorithm run; mutable, but unchanged by the library once returned.

    ``wall_nanos[n]`` counts from the run's start, before Q^T x_0 and the first F
    evaluation, to the end of step n. It times the iteration loop only: on an eigenbasis
    run the products that map iterates back to x, and the error norms, come after its last entry.
    """

    algorithm: str
    iterates: list
    residuals: list
    errors: list
    wall_nanos: list
    steps_used: int
    converged: bool
    kappa: float
    solution_norm: float = None
    diverged: bool = False


#: rows of iterates mapped back to x-space per product with Q, which bounds that step's extra memory
BACK_MAP_ROWS = 64


def run_scheme(name, problem, x0, xi=None, mu=None, stop=None):
    """Run scheme ``name`` as the relaxed two-step iteration of its casting.

    Records iterates, residuals and errors each step. A step with mu_n = 0
    reuses F(x_n) as F(r_n), and one with xi_n = 1 takes F(r_n) as the next
    iterate, so FH and MANN cost one F evaluation per step, NEW and ZGY two,
    and the degenerate castings reproduce FH bit for bit. The run stops,
    ``diverged``, at the first non-finite iterate without evaluating F on it.

    Every step is a linear combination of x and F(x), so the loop runs in the
    coordinates y = Q^T x of ``problem.coordinates()``, with the residual
    ||G(y) - y|| = ||F(x) - x||: O(n) per step on spectral problems. A zero x_0
    starts at y_0 = x_0 with no product. After the loop the kept y_n become
    x_n = Q y_n, a block of rows Y at a time as (Q Y^T)^T (iterates[0] stays
    x_0), and the errors are ||x_n - x*||.
    """
    name = name.upper()
    xi, mu = casting(name, xi, mu)
    stop = stop or StoppingRule()
    x = np.asarray(as_vector(x0), dtype=float)
    if x.shape[0] == 1 and problem.dim > 1:
        x = np.full(problem.dim, x[0])
    if x.shape[0] != problem.dim:
        raise ValueError("start dimension mismatch")
    kappa = problem.contraction_factor()
    xstar = problem.known_solution
    basis, g = problem.coordinates()
    start = time.perf_counter_ns()

    y = x if basis is None or not x.any() else basis.T @ x  # Q^T 0 = 0: a zero start needs no product
    gy = g(y)
    iterates = [x.copy()]
    residuals = [float(np.linalg.norm(gy - y))]
    wall = [time.perf_counter_ns() - start]

    n = 0
    diverged = False
    # "not <=" keeps a NaN residual going, into the non-finite iterate check
    while not residuals[-1] <= stop.tol and n < stop.max_steps:
        xi_n, mu_n = xi.value(n), mu.value(n)
        gr = gy if mu_n == 0.0 else g((1.0 - mu_n) * y + mu_n * gy)
        y = gr if xi_n == 1.0 else (1.0 - xi_n) * y + xi_n * gr
        diverged = not np.isfinite(y).all()
        if diverged:
            break
        gy = g(y)
        iterates.append(y.copy())
        residuals.append(float(np.linalg.norm(gy - y)))
        wall.append(time.perf_counter_ns() - start)
        n += 1

    if basis is not None:  # a row block of y's at a time becomes x's: X = (Q Y^T)^T
        for i in range(1, len(iterates), BACK_MAP_ROWS):
            rows = slice(i, i + BACK_MAP_ROWS)
            iterates[rows] = (basis @ np.array(iterates[rows]).T).T
    return IterationTrace(
        algorithm=name,
        iterates=iterates,
        residuals=residuals,
        errors=None if xstar is None else [float(np.linalg.norm(v - xstar)) for v in iterates],
        wall_nanos=wall,
        steps_used=n,
        converged=residuals[-1] <= stop.tol,
        kappa=kappa,
        solution_norm=None if xstar is None else float(np.linalg.norm(xstar)),
        diverged=diverged,
    )


def run_fh(problem, u0, stop=None):
    """One-step scheme: u_{n+1} = F(u_n)."""
    return run_scheme("FH", problem, u0, stop=stop)


def run_zgy(problem, q0, xi, mu, stop=None):
    """Two-step relaxed scheme with sequences xi_n and mu_n."""
    return run_scheme("ZGY", problem, q0, xi, mu, stop)


def run_mann(problem, v0, xi, stop=None):
    """One-step relaxed scheme: v_{n+1} = (1-xi_n) v_n + xi_n F(v_n)."""
    return run_scheme("MANN", problem, v0, xi=xi, stop=stop)


def run_new(problem, s0, mu, stop=None):
    """Two-step scheme with an unrelaxed outer application of F."""
    return run_scheme("NEW", problem, s0, mu=mu, stop=stop)
