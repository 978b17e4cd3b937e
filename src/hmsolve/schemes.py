"""The four iterative schemes as castings of one relaxed two-step iteration.

All four algorithms iterate relaxations of the fixed-point map
F(x) = R[H x - lam*A x], where R is the resolvent of (H, lam*M), through

    r_n = (1-mu_n) x_n + mu_n F(x_n);  x_{n+1} = (1-xi_n) x_n + xi_n F(r_n)

and differ only in the step sequences (xi, mu) they feed it (``CASTINGS``):
FH = (1, 0), MANN = (xi, 0), NEW = (1, mu) and ZGY = (xi, mu).
"""

import collections
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .operators import OperatorConstants
from .resolvent import ResolventEngine, vector_norm

__all__ = [
    "as_vector", "as_number", "STEP_FAMILIES", "StepSequence", "make_step_sequence", "StoppingRule",
    "ProblemInstance", "IterationTrace", "vector_norm", "ONE", "ZERO", "CASTINGS", "casting",
    "run_scheme", "run_fh", "run_zgy", "run_mann", "run_new",
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


def as_number(v, what, whole=False, least=None):
    """``v``, a number (not text, true/false or a list), whole if asked, finite and at least ``least`` if given."""
    if (np.ndim(v) or np.asarray(v).dtype.kind not in "iuf" or whole and not float(v).is_integer()
            or least is not None and not least <= v < math.inf):
        raise ValueError("%s must be a %s%s, got %r" % (
            what, "whole number" if whole else "number", "" if least is None else " >= %g" % least, v))
    return int(v) if whole else float(v)


def _unit(v, what="constant step value"):
    if not 0.0 <= as_number(v, what) <= 1.0:
        raise ValueError("%s must lie in [0, 1]" % what)
    return float(v)


def _offset(k):
    return as_number(1 if k is None else k, "offset", whole=True, least=1)


def _table(t):
    if t is None or isinstance(t, str) or len(t) == 0:
        raise ValueError("custom-table requires a non-empty list of numbers, got %r" % (t,))
    return tuple(_unit(v, "table values") for v in t)


StepFamily = collections.namedtuple("StepFamily", "param check term properties")

#: family -> its one parameter's name, the check returning the parameter taken, the n-th term (n an int or
#: an integer array) and the series properties (sum diverges, lower bound); a table repeats its last entry
STEP_FAMILIES = {
    "constant": StepFamily("value", _unit, lambda c, n: c, lambda c: (c > 0, c)),
    "harmonic": StepFamily("offset", _offset, lambda k, n: 1.0 / (n + k), lambda k: (True, 0.0)),
    "one-minus-harmonic": StepFamily("offset", _offset, lambda k, n: 1.0 - 1.0 / (n + k),
                                     lambda k: (True, 1.0 - 1.0 / k)),
    "custom-table": StepFamily("table", _table, lambda t, n: (t[n] if n < len(t) else t[-1]) if isinstance(n, int)
                               else np.take(t, n, mode="clip"), lambda t: (t[-1] > 0, min(t))),
}


@dataclass(frozen=True)
class StepSequence:
    """A [0,1]-valued step-size sequence: a family of ``STEP_FAMILIES`` and its parameter.

    The parameter is checked, and the series properties derived from it, at construction:
    never sampled (no finite sample can witness them) nor declared.
    """

    family: str
    param: object = None
    sums_to_infinity: bool = field(init=False)
    lower_bound: float = field(init=False)

    def __post_init__(self):
        if self.family not in STEP_FAMILIES:
            raise ValueError("unknown family %r" % (self.family,))
        family = STEP_FAMILIES[self.family]
        param = family.check(self.param)
        for name, value in zip(("param", "sums_to_infinity", "lower_bound"), (param, *family.properties(param))):
            object.__setattr__(self, name, value)

    def value(self, n):
        """The n-th term, or for an integer array n the terms at n (a constant gives its one value)."""
        return STEP_FAMILIES[self.family].term(self.param, n)


def make_step_sequence(family, **param):
    """StepSequence(family, param), its one parameter given by name (``value``, ``offset`` or ``table``)."""
    other = param.keys() - {STEP_FAMILIES[family].param if family in STEP_FAMILIES else None}
    if other:
        raise ValueError("step family %r takes no %s" % (family, ", ".join(sorted(other))))
    return StepSequence(family, *param.values())


ONE = StepSequence("constant", 1.0)
ZERO = StepSequence("constant", 0.0)

#: each scheme as the relaxed two-step iteration, name -> its (xi, mu) casting: ONE or ZERO where the casting
#: fixes a sequence, "xi" or "mu" where it takes the caller's sequence of that name (``run_<name>``'s keyword)
CASTINGS = {"FH": (ONE, ZERO), "ZGY": ("xi", "mu"), "MANN": ("xi", ZERO), "NEW": (ONE, "mu")}


def casting(name, xi=None, mu=None):
    """The (xi, mu) sequences with which the relaxed two-step iteration is ``name``: its row of ``CASTINGS``
    with the caller's sequences filled in.

    ``name`` is case-insensitive; a sequence the casting takes but which is
    not given is an error.
    """
    row, given = CASTINGS[name.upper()], {"xi": xi, "mu": mu}
    cast = tuple(given[seq] if isinstance(seq, str) else seq for seq in row)
    if None in cast:
        raise ValueError("scheme %s needs the %s sequence" % (name.upper(), row[cast.index(None)]))
    return cast


@dataclass(frozen=True)
class StoppingRule:
    """Stop when the fixed-point residual ||F(x) - x|| <= tol or at the cap.

    tol is a finite number and max_steps a whole one. A negative tol disables the residual test entirely
    (fixed-length runs); a NaN tol, which no residual meets, an infinite one and a negative cap are errors.
    """

    tol: float = 1e-10
    max_steps: int = 100_000

    def __post_init__(self):
        object.__setattr__(self, "tol", as_number(self.tol, "tol"))
        object.__setattr__(self, "max_steps", as_number(self.max_steps, "max_steps", whole=True))
        if not math.isfinite(self.tol) or self.max_steps < 0:
            raise ValueError("tol must not be NaN and max_steps not negative, nor tol infinite, got %r" % (self,))


@dataclass
class ProblemInstance:
    """The triple (H, A, M) with constants, lam and optionally the solution.

    ``basis`` is None, or an orthogonal n x n Q whose coordinates y = Q^T x the operators
    act on: F(x) = Q G(Q^T x) for the G of those operators, and spd-linear's H and A are
    vectors there. Q is an array or any object that offers ``Q @ V``, ``Q.T @ V`` and
    ``shape``, such as ``problems.ReflectorBasis``; it is checked on one seeded probe
    vector v, where Q(Q^T v) must give v back to 1e-9 relative, else ``ValueError``.
    ``known_solution`` and ``f_map`` are in x. ``metadata``, the ``problem`` block of ``summary.json``, is
    left empty by the generators and filled by ``cli.build_problem`` with the kind and its builder's arguments.
    """

    h: object
    a: object
    m: object
    constants: OperatorConstants
    lam: float
    dim: int
    known_solution: object = None
    metadata: dict = field(default_factory=dict)
    basis: object = None

    def __post_init__(self):
        if not self.dim >= 1:
            raise ValueError("dim must be at least 1")
        for op in (self.h, self.a, self.m):
            if getattr(op, "dim", None) not in (None, self.dim):
                raise ValueError("%r acts on dimension %d, not %d" % (op, op.dim, self.dim))
        self.engine = ResolventEngine(self.h, self.m, self.lam, self.dim)
        if self.basis is not None:
            v = np.random.default_rng(0).standard_normal(self.dim)
            if (getattr(self.basis, "shape", None) != (self.dim, self.dim)
                    or not np.linalg.norm(self.basis @ (self.basis.T @ v) - v) <= 1e-9 * np.linalg.norm(v)):
                raise ValueError("the basis is not an orthogonal %d x %d Q on a probe vector" % ((self.dim,) * 2))
        if self.known_solution is not None:
            self.known_solution = as_vector(self.known_solution)
            if self.known_solution.shape[0] != self.dim:
                raise ValueError("known_solution dimension mismatch")

    @functools.cached_property
    def _map(self):
        return self.engine.fixed_point_map(self.a)

    def coordinates(self):
        """(Q, G) with F(x) = Q G(Q^T x): the coordinates y = Q^T x that ``run_scheme`` iterates in.

        Q is ``basis`` and G comes from ``ResolventEngine.fixed_point_map``. Without a basis
        the pair is (None, ``f_map``), so each F evaluation of such a run is an ``f_map`` call.
        """
        return (None, self.f_map) if self.basis is None else (self.basis, self._map)

    @functools.cached_property
    def _solution_coordinates(self):
        """y* = Q^T x*, x* in the coordinates of ``coordinates()``; taken by the first run with x*."""
        return self.known_solution if self.basis is None else self.basis.T @ self.known_solution

    def f_map(self, x):
        """F(x) = R[H x - lam*A x] for x in R^n: G(x), or Q G(Q^T x) with a basis Q; G is built on first use."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            raise ValueError("dimension mismatch: %s vs %d" % (x.shape, self.dim))
        return self._map(x) if self.basis is None else self.basis @ self._map(self.basis.T @ x)


@dataclass
class IterationTrace:
    """Per-step record of one algorithm run; mutable, but unchanged by the library once returned.

    Each list but ``iterates`` = [x_N] has an entry per step n = 0, ..., N; on request ``coordinates``
    keeps every y_n = Q^T x_n of ``ProblemInstance.coordinates()``, so x_n = ``Q @ coordinates[n]``
    (y_n = x_n without Q). ``wall_nanos[n]`` runs from before Q^T x_0 to the end of step n, the error of y_n
    included, or of the fill of a repeating run; mapping x_N back and its error in x come after ``wall_nanos[N]``.
    ``casting`` is the (xi, mu) pair that ``casting`` gave the run; ``analysis`` reads its envelope and pairing off it.
    ``algorithm`` is the run's label, which ``analysis`` does not read. ``kappa`` is the contraction factor
    at the problem's lam, evaluated once per run; the CLI reads the kappa it writes off its runs.
    """

    algorithm: str
    iterates: list
    residuals: list
    errors: list
    wall_nanos: list
    steps_used: int
    converged: bool
    kappa: float
    casting: tuple
    solution_norm: float = None
    diverged: bool = False
    coordinates: list = None


def _relax(a, b, w):  # (1 - w)*a + w*b in one fresh array: the plain expression's bits, one temporary fewer
    v = (1.0 - w) * a
    v += w * b
    return v


def run_scheme(name, problem, x0, xi=None, mu=None, stop=None, keep_iterates=True):
    """Run scheme ``name`` as the relaxed two-step iteration of its casting.

    Step n takes r_n = (1-mu_n) y_n + mu_n G(y_n) and y_(n+1) = (1-xi_n) y_n + xi_n G(r_n), then
    G(y_(n+1)). A step with mu_n = 0 reuses G(y_n) as G(r_n), and one with xi_n = 1 takes G(r_n) as
    y_(n+1), so FH and MANN cost one F evaluation per step, NEW and ZGY two, and the degenerate castings
    reproduce FH bit for bit. The run stops, ``diverged``, at the first non-finite iterate without
    evaluating F on it; with x* known, a finite errors[n+1] = ||y_(n+1) - y*|| proves y_(n+1) finite,
    y* being finite, and only a non-finite one (inf without x*) scans the entries of y_(n+1). Constant steps
    map y_n alone to y_(n+1): once y_n = y_(n-1) bit for bit, every later step repeats step n, so a run that
    would go on fills its trace in to the cap without G, with the read-only y_n as each later y_n.

    Every step is a linear combination of x and F(x), so the loop runs in the coordinates y = Q^T x of
    ``problem.coordinates()``, with the residual ||G(y) - y|| = ||F(x) - x||: O(n) per step on diagonal-form
    problems. A zero x_0 starts at y_0 = x_0 with no product. Only x_N = Q y_N is mapped back, by one
    product, as ``iterates``; ``keep_iterates`` keeps every y_n as ``coordinates``, and without it a run
    holds O(n) memory at any length. errors[n], with y* = Q^T x* cached on the problem, is ||x_n - x*||
    up to a few rounding units of ||x_n|| + ||x*||, Q being orthogonal; errors[N] is ||x_N - x*|| exactly.
    """
    from .analysis import contraction_factor  # at call time: analysis imports this module
    name = name.upper()
    xi, mu = casting(name, xi, mu)
    (xi_term, xi_param), (mu_term, mu_param) = ((STEP_FAMILIES[s.family].term, s.param) for s in (xi, mu))
    stop = stop or StoppingRule()
    x = as_vector(x0)
    if x.shape[0] == 1 and problem.dim > 1:
        x = np.full(problem.dim, x[0])
    if x.shape[0] != problem.dim:
        raise ValueError("start dimension mismatch")
    kappa = contraction_factor(problem.constants, problem.lam)
    xstar = problem.known_solution
    basis, g = problem.coordinates()
    ystar = None if xstar is None else problem._solution_coordinates
    start = time.perf_counter_ns()

    y = x if basis is None or not x.any() else basis.T @ x  # Q^T 0 = 0: a zero start needs no product
    scratch = np.empty_like(y)  # each residual's and error's difference, in turn
    error = (lambda v: math.inf) if ystar is None else lambda v: vector_norm(np.subtract(v, ystar, out=scratch))
    gy = g(y)
    ys = [y] if keep_iterates else None
    residuals = [vector_norm(np.subtract(gy, y, out=scratch))]
    errors = None if xstar is None else [error(y)]
    wall = [time.perf_counter_ns() - start]

    n, diverged, constant = 0, False, xi.family == mu.family == "constant"
    # "not <=" keeps a NaN residual going, into the non-finite iterate check
    while not residuals[-1] <= stop.tol and n < stop.max_steps:
        if constant and n and residuals[-1] == residuals[-2] and y.tobytes() == y_last.tobytes():
            y.setflags(write=False)
            for values in (v for v in (residuals, errors, ys) if v is not None):
                values += values[-1:] * (stop.max_steps - n)
            wall += [time.perf_counter_ns() - start] * (stop.max_steps - n)
            n = stop.max_steps
            break
        xi_n, mu_n = xi_term(xi_param, n), mu_term(mu_param, n)
        gr = gy if mu_n == 0.0 else g(_relax(y, gy, mu_n))
        y_next = gr if xi_n == 1.0 else _relax(y, gr, xi_n)
        if diverged := not math.isfinite(e := error(y_next)) and not np.isfinite(y_next).all():
            break
        if errors is not None:
            errors.append(e)
        y_last, y, gy = y, y_next, g(y_next)
        if keep_iterates:
            ys.append(y)
        residuals.append(vector_norm(np.subtract(gy, y, out=scratch)))
        wall.append(time.perf_counter_ns() - start)
        n += 1

    x = y if basis is None else basis @ y
    if errors is not None and basis is not None:
        errors[-1] = vector_norm(x - xstar)
    return IterationTrace(
        algorithm=name, iterates=[x], residuals=residuals, errors=errors, wall_nanos=wall, steps_used=n,
        converged=residuals[-1] <= stop.tol, kappa=kappa, casting=(xi, mu), diverged=diverged, coordinates=ys,
        solution_norm=None if xstar is None else vector_norm(xstar))


def run_fh(problem, u0, stop=None, keep_iterates=True):
    """One-step scheme: u_{n+1} = F(u_n)."""
    return run_scheme("FH", problem, u0, stop=stop, keep_iterates=keep_iterates)


def run_zgy(problem, q0, xi, mu, stop=None, keep_iterates=True):
    """Two-step relaxed scheme with sequences xi_n and mu_n."""
    return run_scheme("ZGY", problem, q0, xi, mu, stop, keep_iterates)


def run_mann(problem, v0, xi, stop=None, keep_iterates=True):
    """One-step relaxed scheme: v_{n+1} = (1-xi_n) v_n + xi_n F(v_n)."""
    return run_scheme("MANN", problem, v0, xi=xi, stop=stop, keep_iterates=keep_iterates)


def run_new(problem, s0, mu, stop=None, keep_iterates=True):
    """Two-step scheme with an unrelaxed outer application of F."""
    return run_scheme("NEW", problem, s0, mu=mu, stop=stop, keep_iterates=keep_iterates)
