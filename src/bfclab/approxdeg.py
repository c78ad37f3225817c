"""Approximate degree via minimax-error linear programs.

For a target degree d the coefficients of all monomials of size <= d are LP
variables and the maximum pointwise error is minimized; the degree-d
feasibility question is whether that optimum stays within the error budget.
For partial functions the error rows cover only the domain while bounding
rows keep the polynomial inside [0, 1] on the whole cube.

The program is solved on orbits.  Variables whose transposition fixes the
function (values and domain) fall into classes, and averaging a feasible
polynomial over the permutations within the classes keeps its degree, its
error and its [0, 1] bound (Minsky-Papert symmetrization), so the
polynomials constant on orbits suffice: one row per class-weight vector and
one column per class-degree vector.  A function may also declare signed
permutations of its variables that fix it (``PartialFn.generators``, e.g.
the vertex relabelings of the tournament sink, which reverse edges, or the
swaps of equal blocks of a composition);
averaging over the group they generate with the classes keeps the optimum
too (Bodi, Herr and Joswig), so the class program is Reynolds-averaged
onto one row per group orbit.  Inputs without symmetries get the
unreduced program unchanged.  Every optimum, feasible or not, is lifted to
monomials and re-checked once, on the unreduced rows at one input per
orbit.  A degree scan builds the orbit program once and starts at degree 1
for a non-constant function, by an exact argument, not presumed
monotonicity.

Feasibility at exactly the error budget counts as feasible (the budget is a
non-strict bound, and e.g. the degree-1 approximation of AND_2 sits exactly
on it); a 1e-7 tolerance absorbs float noise.  Degree answers are integers
decided by gaps far larger than that.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import linprog
from .functions import (
    DEFAULT_MAX_ARITY,
    PartialFn,
    PolynomialVerificationError,
    and_n,
    interchangeable_classes,
    sink,
    sink_edge_vars,
    subset_transform,
    symmetry_orbits,
)

DEFAULT_EPS = 1.0 / 3.0
FEAS_SLACK = 1e-7


# ---------------------------------------------------------------------------
# Multilinear polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultilinearPoly:
    """Real multilinear polynomial; ``terms`` maps variable-subset bitmasks
    to coefficients."""

    arity: int
    terms: dict

    @property
    def degree(self) -> int:
        sizes = [int(s).bit_count() for s, c in self.terms.items() if c != 0]
        return max(sizes, default=0)

    def eval(self, z) -> float:
        """Evaluate at a real point (exact on Boolean points)."""
        if len(z) != self.arity:
            raise ValueError("point dimension mismatch")
        total = 0.0
        for s, c in self.terms.items():
            prod = c
            mask = s
            while mask:
                low = mask & -mask
                prod *= z[low.bit_length() - 1]
                mask ^= low
            total += prod
        return total

    def table(self) -> np.ndarray:
        """Values on all Boolean points, via the subset-sum transform."""
        arr = np.zeros(1 << self.arity)
        for s, c in self.terms.items():
            arr[s] += c
        return subset_transform(arr)

    def max_error_on(self, f: PartialFn) -> float:
        """Largest deviation from ``f`` over the domain."""
        if f.arity != self.arity:
            raise ValueError("arity mismatch")
        dom = f.defined_array().astype(bool)
        diff = np.abs(self.table() - f.value_array())[dom]
        return float(diff.max()) if diff.size else 0.0

    def serialize(self) -> str:
        """One term per line: subset bitmask and fixed-point coefficient."""
        lines = [
            f"{s} {c:.12f}"
            for s, c in sorted(self.terms.items())
            if c != 0 or s == 0
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str, arity: int) -> "MultilinearPoly":
        terms = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            s, c = line.split()
            terms[int(s)] = float(c)
        return cls(arity, terms)


# ---------------------------------------------------------------------------
# Minimax LPs
# ---------------------------------------------------------------------------

@functools.cache
def _subsets_of_size(arity: int, size: int) -> tuple[int, ...]:
    return tuple(sorted(sum(1 << i for i in combo)
                        for combo in combinations(range(arity), size)))


def monomial_subsets(arity: int, degree: int) -> list[int]:
    """All variable subsets of size <= degree, ascending by (size, mask)."""
    return [m for size in range(degree + 1)
            for m in _subsets_of_size(arity, size)]


def _monomial_matrix(points, subsets) -> np.ndarray:
    idx = np.asarray(points, dtype=np.int64)[:, None]
    subsets = np.asarray(subsets, dtype=np.int64)
    return ((idx & subsets) == subsets).astype(float)


#: C(a, b) for every class weight and class degree a table can have
_PASCAL = np.array(
    [[math.comb(a, b) for b in range(DEFAULT_MAX_ARITY + 1)]
     for a in range(DEFAULT_MAX_ARITY + 1)],
    float,
)


def _binomial_basis(weights: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Entry ``(r, c)`` is ``prod_b C(weights[r, b], degrees[c, b])``: on a
    point with ``w_b`` ones in class ``b``, the number of monomials that are
    1 there and hold ``j_b`` variables of each class ``b``."""
    out = np.ones((len(weights), len(degrees)))
    for b in range(weights.shape[1]):
        out *= _PASCAL[weights[:, b, None], degrees[:, b]]
    return out


class _OrbitProgram:
    """The minimax program of ``f`` on the orbits of the group generated by
    the permutations within each class of ``classes`` and the declared
    generators of ``f``, built once per degree scan; :meth:`at` adds the
    columns of one degree.

    Class orbits are the class-weight vectors ``(w_1..w_k)``, numbered in
    mixed radix with the first class least significant; monomial orbits are
    the class-degree vectors ``(j_1..j_k)`` with ``sum j <= degree``, in
    order of ``(sum j, number)``.  With every class a singleton both orders
    are those of the cube and of :func:`monomial_subsets`, so the program is
    the unreduced one, row for row and column for column.

    Declared generators join the class orbits into group orbits, numbered
    in ascending order of their smallest inputs, and the program is
    Reynolds-averaged: the row of a group orbit is the mean of the
    class-weight rows of its inputs, that is the value there of the group
    average of the polynomial.  Averaging keeps the degree (a signed
    permutation is affine in each variable), the error and the [0, 1]
    bound, and an invariant polynomial is its own average, so the optimum
    stays.  The columns stay the class-degree columns.

    ``vals`` and ``dom`` are the values and domain rows, ``orbit`` the row
    of every input, ``minima`` the smallest input of each group orbit.
    Raises :class:`PolynomialVerificationError` unless ``f`` is constant on
    the orbits (checked exactly on every input).
    """

    def __init__(self, f: PartialFn, classes):
        sizes = np.array([len(c) for c in classes], dtype=np.int64)
        radix = np.cumprod(np.concatenate([[1], sizes + 1]))
        count, radix = int(radix[-1]), radix[:-1]
        weights = (np.arange(count)[:, None] // radix) % (sizes + 1)
        total = weights.sum(axis=1)
        order = np.argsort(total, kind="stable")
        # orbit of every input (and of every subset, read as an input)
        idx = np.arange(1 << f.arity)
        point_orbit = np.zeros(1 << f.arity, dtype=np.int64)
        for cls, r in zip(classes, radix):
            point_orbit += r * np.bitwise_count(idx & sum(1 << i for i in cls))
        label, minima = symmetry_orbits(f, classes)
        orbit, average, rows = point_orbit, None, count
        if f.generators:
            orbit, rows = np.searchsorted(minima, label), len(minima)
            # the inputs in order of their group orbits: where each orbit
            # starts, the class orbit of each input, and the orbit sizes
            by_orbit = np.argsort(orbit, kind="stable")
            average = (np.flatnonzero(np.diff(orbit[by_orbit], prepend=-1)),
                       point_orbit[by_orbit], np.bincount(orbit)[:, None])
        values, defined = f.value_array(), f.defined_array().astype(bool)
        vals, on_dom = np.zeros(rows), np.zeros(rows, bool)
        vals[orbit], on_dom[orbit] = values, defined
        if not (np.array_equal(vals[orbit], values)
                and np.array_equal(on_dom[orbit], defined)):
            raise PolynomialVerificationError("f is not constant on its orbits")
        self.arity, self.weights, self.average = f.arity, weights, average
        self.columns, self.totals = weights[order], total[order]
        self.column_of = np.argsort(order)[point_orbit]   # of every subset
        self.vals, self.dom, self.orbit = vals, np.flatnonzero(on_dom), orbit
        self.minima, self.min_vals = minima, values[minima].astype(float)
        self.min_dom = np.flatnonzero(defined[minima])
        # the degree, basis and subsets that :meth:`at` built last
        self.built, self.basis = -1, np.zeros((count, 0))
        self.subsets = np.zeros(0, dtype=np.int64)

    def at(self, degree: int):
        """``(basis, subsets, lift)``: the basis at ``degree``, its monomial
        subsets and the column of each (None under declared generators).
        Above the degree built last only the new columns and subsets are
        made; the averaged basis sums the rows of each group orbit's
        inputs over the whole basis."""
        if degree < self.built:
            self.built, self.basis = -1, self.basis[:, :0]
            self.subsets = self.subsets[:0]
        new = (self.totals > self.built) & (self.totals <= degree)
        subsets = [m for size in range(self.built + 1, degree + 1)
                   for m in _subsets_of_size(self.arity, size)]
        self.basis = np.hstack(
            [self.basis, _binomial_basis(self.weights, self.columns[new])])
        self.subsets = np.concatenate(
            [self.subsets, np.array(subsets, dtype=np.int64)])
        self.built, basis, subsets = degree, self.basis, self.subsets
        if self.average is not None:
            starts, members, size = self.average
            return (np.add.reduceat(basis[members], starts) / size,
                    subsets, None)
        return basis, subsets, self.column_of[subsets]


def _minimax_lp(basis, vals, err_points, bound_points, nm):
    """Minimax program on the given point subsets, in the slack form
    ``e = 1 - slack``, whose right-hand side is nonnegative as
    ``linprog.solve`` requires.
    Variables: the slack, then coeff+ / coeff- per basis column."""
    n_err, n_bound = len(err_points), len(bound_points)
    rows = np.zeros((2 * n_err + 2 * n_bound + 1, 1 + 2 * nm))
    # p(x) - f(x) <= e and f(x) - p(x) <= e, then p(x) <= 1 and -p(x) <= 0,
    # filled in place; the coeff- columns negate the coeff+ ones
    plus = rows[:-1, 1 : 1 + nm]
    for top, points in ((0, err_points), (2 * n_err, bound_points)):
        end = top + len(points)
        plus[top:end] = basis[points]
        np.negative(plus[top:end], out=plus[end : end + len(points)])
    np.negative(plus, out=rows[:-1, 1 + nm :])
    rows[: 2 * n_err, 0] = 1.0
    rows[-1, 0] = 1.0
    rhs = np.ones(len(rows))
    v_err = vals[err_points]
    np.add(v_err, 1.0, out=rhs[:n_err])
    np.subtract(1.0, v_err, out=rhs[n_err : 2 * n_err])
    rhs[2 * n_err + n_bound : -1] = 0.0
    return linprog.LinearProgram.build(objective=rows[-1].copy(), rows=rows,
                                       rhs=rhs)


_DIRECT_POINT_LIMIT = 256      # the whole program is the first active set
_CUT_BATCH = 64                # violated points added per exchange round


def _new_violators(excess, points, active):
    """Up to ``_CUT_BATCH`` of ``points`` with positive ``excess`` that the
    sorted points ``active`` do not hold yet, worst first."""
    order = np.argsort(excess)[::-1]
    order = order[(excess[order] > 0) & ~np.isin(points[order], active)]
    return points[order[:_CUT_BATCH]]


def _minimax(basis, vals, dom, bounded: bool):
    """Minimize the worst error of ``basis @ coeffs`` against ``vals`` on the
    points ``dom`` (ascending row indices of ``basis``); ``bounded`` also
    keeps the values within [0, 1] on every row.

    Up to ``_DIRECT_POINT_LIMIT`` points the whole program is solved once.
    Above it an exchange loop solves it on an active set of points, first a
    spread sample of the domain.  Each round re-checks its sub-solution on
    its own sub-program (``linprog.SimplexError`` if that fails: a broken
    optimum's violators mean nothing), then activates the worst violators
    not active yet; a round that activates none ends the loop, and the
    active optimum is then a global one (a subset value never exceeds the
    full one).  The active set only grows, so the loop ends.

    Returns ``(outcome, error)``: the final ``linprog.LpOutcome`` (its
    solution is the slack, then coeff+ / coeff- per basis column) and the
    worst deviation measured on ``dom``.
    """
    points, nm = basis.shape
    everywhere = np.arange(points)
    direct = points <= _DIRECT_POINT_LIMIT
    # active points, ascending: error rows and [0, 1] rows
    err_on = dom
    if not direct:
        seed = np.linspace(0, len(dom) - 1, min(len(dom), 4 * nm + 8))
        err_on = dom[np.unique(seed.astype(int))]
    bound_on = (everywhere if direct else err_on) if bounded else dom[:0]
    while True:
        lp = _minimax_lp(basis, vals, err_on, bound_on, nm)
        outcome = linprog.solve(lp)
        if not outcome.optimal:
            raise linprog.SimplexError(f"minimax LP ended {outcome.status}")
        coeffs = outcome.solution[1 : 1 + nm] - outcome.solution[1 + nm :]
        table = basis @ coeffs
        deviation = np.abs(table[dom] - vals[dom])
        if direct:
            break
        ok, worst = linprog.check_certificate(lp, outcome.solution)
        if not ok:
            raise linprog.SimplexError(
                f"exchange-round optimum violates its program by {worst:.3g}")
        sub_error = 1.0 - outcome.value
        new_err = _new_violators(deviation - (sub_error + 1e-12), dom, err_on)
        new_bound = everywhere[:0]
        if bounded:
            excess = np.maximum(table - 1.0, -table) - 1e-12
            new_bound = _new_violators(excess, everywhere, bound_on)
        if len(new_err) == 0 and len(new_bound) == 0:
            break
        err_on = np.union1d(err_on, new_err)
        bound_on = np.union1d(bound_on, new_bound)
    return outcome, float(deviation.max())


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    error: float
    witness: MultilinearPoly
    certificate_ok: bool


def _monomial_fit(program, degree: int, eps: float, bounded: bool):
    """Best degree-``degree`` multilinear fit over the cube of the function
    of ``program``, solved on its orbits and lifted back.  Without declared
    generators the coefficient of a subset is that of its orbit column.
    With them the witness is lifted through its cube table, which one
    Mobius transform turns into monomial coefficients; the ones above
    ``degree`` must vanish (their sum bounds how far the lifted witness
    strays from that table) and are dropped.  The witness is measured and
    re-checked on the unreduced program's rows (columns unreduced) at the
    smallest input of each orbit.  It is invariant, and the function is
    constant on orbits, so all rows of an orbit take the same values: the
    verdict is the whole cube's."""
    basis, subsets, lift = program.at(degree)
    outcome, _ = _minimax(basis, program.vals, program.dom, bounded)
    sol, orbit_nm = outcome.solution, basis.shape[1]
    orbit_coeffs = sol[1 : 1 + orbit_nm] - sol[1 + orbit_nm :]
    if lift is None:
        table = subset_transform((basis @ orbit_coeffs)[program.orbit], -1)
        coeffs = table[subsets]
        table[subsets] = 0.0
        residue = np.abs(table).sum()
        if residue > 1e-9:
            raise PolynomialVerificationError(
                f"averaged witness leaves {residue:.3g} above degree {degree}")
    else:
        coeffs = orbit_coeffs[lift]
    solution = np.concatenate(
        [sol[:1], np.maximum(coeffs, 0.0), np.maximum(-coeffs, 0.0)])
    mono = _monomial_matrix(program.minima, subsets)
    vals, dom = program.min_vals, program.min_dom
    error = float(np.abs((mono @ coeffs)[dom] - vals[dom]).max())
    bounds = np.arange(len(program.minima)) if bounded else dom[:0]
    recheck = _minimax_lp(mono, vals, dom, bounds, len(subsets))
    cert_ok, _ = linprog.check_certificate(recheck, solution)
    nz = np.abs(coeffs) > 1e-12
    terms = dict(zip(subsets[nz].tolist(), coeffs[nz].tolist()))
    witness = MultilinearPoly(program.arity, terms or {0: 0.0})
    return FeasibilityResult(error <= eps + FEAS_SLACK, error, witness, cert_ok)


def _degree_fits(f: PartialFn, eps: float, bounded: bool, degree: int = 0):
    """Check the arguments; ``decide(d)`` fits ``f`` on one orbit program."""
    _check_eps(eps)
    if not (bounded or f.is_total):
        raise ValueError("use bdeg_feasible for partial functions")
    if not 0 <= degree <= f.arity:
        raise ValueError("degree out of range")
    if bounded and f.dom_size == 0:
        raise ValueError("function has empty domain")
    program = _OrbitProgram(f, interchangeable_classes(f))
    return lambda d: _monomial_fit(program, d, eps, bounded)


def adeg_feasible(f: PartialFn, degree: int, eps: float = DEFAULT_EPS):
    """Is there a degree-``degree`` polynomial within ``eps`` of ``f`` on the
    whole cube?  Requires a total function."""
    return _degree_fits(f, eps, False, degree)(degree)


def bdeg_feasible(f: PartialFn, degree: int, eps: float = DEFAULT_EPS):
    """Like adeg_feasible but errors count on the domain only, while the
    polynomial must stay within [0, 1] on every Boolean point."""
    return _degree_fits(f, eps, True, degree)(degree)


def _check_eps(eps: float) -> None:
    if not 1e-4 <= eps < 0.5:
        raise ValueError(f"error budget must lie in [1e-4, 1/2), got {eps}")


def _scan(f: PartialFn, eps: float, decide):
    """The lowest degree ``decide`` finds feasible for ``f`` and its
    decision.  Scans build the orbit program once and start at degree 1
    where ``f`` takes both values, by an exact argument, not by presumed
    monotonicity: a constant ``c`` errs there by ``max(c, 1 - c) >= 1/2``,
    in floats too.  A decision, feasible or not, whose optimum failed its
    re-check raises ``linprog.SimplexError``: an infeasible verdict on a
    broken optimum means nothing either."""
    first = 0 if f.is_constant() or eps + FEAS_SLACK >= 0.5 else 1
    for d in range(first, f.arity + 1):
        res = decide(d)
        if not res.certificate_ok:
            raise linprog.SimplexError(f"degree-{d} optimum failed its re-check")
        if res.feasible:
            return d, res
    raise AssertionError("full degree must be feasible")


def adeg(f: PartialFn, eps: float = DEFAULT_EPS) -> int:
    """Minimum degree approximating a total function within ``eps``."""
    return _scan(f, eps, _degree_fits(f, eps, bounded=False))[0]


def bdeg(f: PartialFn, eps: float = DEFAULT_EPS) -> int:
    """Minimum degree of a [0, 1]-bounded polynomial within ``eps`` on the
    domain of a partial function."""
    return _scan(f, eps, _degree_fits(f, eps, bounded=True))[0]


# ---------------------------------------------------------------------------
# Amplification
# ---------------------------------------------------------------------------

def amplified_value(m: int, x):
    """A_m(x) for odd ``m >= 1``: the probability that a coin of
    heads-probability ``x`` wins a best-of-m vote.  Maps [0, 1] to [0, 1],
    fixes 0, 1/2 and 1, and pushes values near {0, 1} exponentially closer.
    Evaluated as the binomial tail: exact on Fractions, where ``x = a/b``
    makes it one integer over ``b**m``; summed by ``math.fsum`` on floats,
    and term by term on arrays."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"amplifier degree must be odd and positive, got {m}")
    wins = range((m + 1) // 2, m + 1)
    if isinstance(x, Fraction):
        a, b = x.numerator, x.denominator
        return Fraction(
            sum(math.comb(m, j) * a**j * (b - a) ** (m - j) for j in wins), b**m
        )
    terms = (math.comb(m, j) * x**j * (1.0 - x) ** (m - j) for j in wins)
    return math.fsum(terms) if isinstance(x, float) else sum(terms)


# ---------------------------------------------------------------------------
# Constructive approximation of the tournament sink detector
# ---------------------------------------------------------------------------

def build_sink_polynomial(k: int, eps: float = DEFAULT_EPS) -> MultilinearPoly:
    """Explicit low-degree approximation of the k-vertex sink detector.

    Since a tournament has at most one sink, the detector equals the plain
    sum over vertices of the (k-1)-literal indicator "all incident edges
    point in".  Each indicator is approximated by a bounded low-degree
    polynomial for the (k-1)-variable AND, sharpened by a majority-vote
    amplifier until its error is below eps/k.  A vertex's copy depends only
    on its k - 1 incident edges, so it is built on their 2**(k-1) points:
    the base witness's table read through the edge orientations (one xor
    mask), amplified pointwise by :func:`amplified_value`, and turned into
    coefficients on subsets of those edges by one Mobius transform.  The
    copies are summed and the result is verified pointwise over the full
    cube; failure raises instead of returning silently.
    """
    if not 2 <= k <= 5:
        raise ValueError(f"sink construction supports 2 <= k <= 5, got {k}")
    _check_eps(eps)

    base_fn = and_n(k - 1)
    _, base = _scan(base_fn, DEFAULT_EPS, _degree_fits(base_fn, DEFAULT_EPS, True))
    base_err = max(base.error, 1e-12)

    target = eps / k * (1.0 - 1e-6)
    m = 1
    while amplified_value(m, base_err) > target:
        m += 2
        if m > 401:
            raise PolynomialVerificationError(
                "amplifier degree search did not converge"
            )
    amplified = amplified_value(m, base.witness.table())

    pairs = sink_edge_vars(k)
    local = np.arange(1 << (k - 1))
    bits = (local[:, None] >> np.arange(k - 1)) & 1
    total = np.zeros(1 << len(pairs))
    for v in range(k):
        edges = [e for e, pair in enumerate(pairs) if v in pair]
        # base variable i is 1 when the i-th incident edge points into v:
        # x_e for an edge i -> v, 1 - x_e for an edge v -> j
        flip = sum(1 << i for i, e in enumerate(edges) if pairs[e][0] == v)
        coeffs = subset_transform(amplified[local ^ flip], -1)
        total[bits @ (1 << np.array(edges))] += coeffs

    nonzero = np.flatnonzero(total)
    poly = MultilinearPoly(len(pairs), dict(zip(nonzero.tolist(),
                                                total[nonzero].tolist())))
    worst = poly.max_error_on(sink(k))
    if worst > eps + 1e-9:
        raise PolynomialVerificationError(
            f"sink approximation error {worst} exceeds budget {eps}"
        )
    return poly
