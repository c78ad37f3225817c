"""Approximate degree via minimax-error linear programs.

For a target degree d the coefficients of all monomials of size <= d are LP
variables and the maximum pointwise error is minimized; the degree-d
feasibility question is whether that optimum stays within the error budget.
For partial functions the error rows cover only the domain while bounding
rows keep the polynomial inside [0, 1] on the whole cube.

The program is solved on orbits.  Variables whose transposition fixes the
function (values and domain) fall into classes, and a function may declare
signed permutations of its variables that fix it (``PartialFn.generators``,
e.g. the vertex relabelings of the tournament sink, which reverse edges, or
the swaps of equal blocks of a composition).  Averaging a feasible
polynomial over the group they generate keeps its degree, its error and its
[0, 1] bound (Minsky-Papert symmetrization; Bodi, Herr and Joswig), so the
invariant polynomials suffice, evaluated at one input per orbit (Gatermann
and Parrilo): one row per orbit minimum and one column per orbit of signed
basis functions, with nothing of the size of the cube beyond the orbit
labels.  Inputs without symmetries get the unreduced program unchanged.
The witness is read off the columns; its exact values at the orbit minima
give its error and re-check every optimum, feasible or not.  All of
the program but the function's values at the minima is built once per
group per process, within a 2 MiB LRU (``_GROUP_CACHE_BYTES``).  A degree
scan starts at degree 1 for a non-constant function, by an exact
argument, not presumed monotonicity.  Its first degree's program is built
and solved from the slack basis; each later degree adds its new orbit
columns to the previous degree's optimal tableau and continues pivoting
from there (column generation: orbits of monomials keep their size, so a
degree's columns are the first of the next one's).  Every decision of a
scan is still re-checked on exact sums at the orbit minima, and a single
decision (:func:`adeg_feasible`, :func:`bdeg_feasible`) is one solve from
the slack basis.

Feasibility at exactly the error budget counts as feasible (the budget is a
non-strict bound, and e.g. the degree-1 approximation of AND_2 sits exactly
on it); a 1e-7 tolerance absorbs float noise.  Degree answers are integers
decided by gaps far larger than that.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import linprog
from .functions import (
    PartialFn,
    PolynomialVerificationError,
    and_n,
    interchangeable_classes,
    sink,
    sink_edge_vars,
    subset_orbits,
    subset_positions,
    subset_transform,
    symmetry_orbits,
    variable_orbits,
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


_GROUP_CACHE_BYTES = 2 << 20   # array bytes that _GROUPS keeps, at most
_GROUPS: OrderedDict = OrderedDict()   # key -> (tuple, bytes), LRU first


def _cached(key, build):
    """``build()``, a tuple, kept per ``key`` in the LRU ``_GROUPS`` with its
    arrays checked finite and read-only once built (:func:`linprog.freeze`;
    a raise keeps nothing), if it fits."""
    if key in _GROUPS:
        _GROUPS.move_to_end(key)
        return _GROUPS[key][0]
    value = build()
    arrays = [a for a in value if isinstance(a, np.ndarray)]
    for a in arrays:
        linprog.freeze(a)
    if (size := sum(a.nbytes for a in arrays)) <= _GROUP_CACHE_BYTES:
        _GROUPS[key] = value, size
        while sum(n for _, n in _GROUPS.values()) > _GROUP_CACHE_BYTES:
            _GROUPS.popitem(last=False)
    return value


class _OrbitProgram:
    """The minimax program of ``f`` on the orbits of the group generated by
    the permutations within each class of ``classes`` and the declared
    generators of ``f``; :meth:`at` gives the columns of one degree.

    Its rows are the orbit minima of :func:`symmetry_orbits`, ascending, with
    the values ``vals`` and the rows ``dom`` on the domain.  Its columns are
    the invariant polynomials of :func:`subset_orbits`, one per orbit of
    ``±b_S`` with ``N`` (``negated``) the variables in the orbits of the
    negated ones: each is the orbit's signed sum, and an orbit that meets
    both signs sums to 0 and is dropped.  Averaging over the group keeps a
    polynomial's degree, error and [0, 1] bound, so the optimum stays.
    Without symmetries the program is the unreduced one, row for row and
    column for column.  All but ``vals`` and ``dom`` is built once per
    group, by :func:`_cached`.  Raises :class:`PolynomialVerificationError`
    unless ``f`` is constant on the orbits, warm group or cold (checked on
    every input: ``classes`` is the caller's; generators fix ``f``).
    """

    def __init__(self, f: PartialFn, classes):
        self.arity, self.classes = f.arity, tuple(map(tuple, classes))
        self.generators = tuple((tuple(p), neg) for p, neg in f.generators)
        self.key = (self.arity, self.classes, self.generators)
        label, self.minima, self.negated = _cached(self.key, lambda: self._orbits(f))
        values, defined = f.value_array(), f.defined_array()
        if not (np.array_equal(values[label], values)
                and np.array_equal(defined[label], defined)):
            raise PolynomialVerificationError("f is not constant on its orbits")
        self.vals = values[self.minima].astype(float)
        self.dom = np.flatnonzero(defined[self.minima])

    def _orbits(self, f: PartialFn):
        label, minima = symmetry_orbits(f, self.classes)
        # N: the variables whose orbit holds one that a generator negates
        orbit = variable_orbits(f, self.classes)
        hit = {orbit[i] for _, neg in self.generators
               for i in range(self.arity) if neg >> i & 1}
        negated = sum(1 << i for i, r in enumerate(orbit) if r in hit)
        return label, minima, negated

    def at(self, degree: int):
        """``(basis, subsets, kept, column, sign)`` at ``degree``: the basis,
        :func:`monomial_subsets`, those kept, and their columns and signs."""
        return _cached(self.key + (degree,), lambda: self._columns(degree))

    def _columns(self, degree: int):
        subsets = np.array(monomial_subsets(self.arity, degree), np.int64)
        label = subset_orbits(self.generators, self.classes, subsets)
        kept = np.flatnonzero(label[::2] != label[1::2])
        first, odd = np.divmod(label[2 * kept], 2)   # orbit minimum, sign
        order, sign = np.argsort(first, kind="stable"), 1 - 2 * odd
        starts = np.flatnonzero(kept[order] == first[order])
        s, x = subsets[kept], self.minima[:, None]
        free, flips = s & ~self.negated, np.bitwise_count(x & s & self.negated)
        values = ((x & free) == free) * np.where(flips & 1, -sign, sign)
        basis = np.add.reduceat(values[:, order], starts, axis=1).astype(float)
        return basis, subsets, kept, np.unique(first, return_inverse=True)[1], sign


def _minimax_rows(basis, err_points, bound_points):
    """Minimax program rows on the given point subsets, in the slack form
    ``e = 1 - slack``, the objective last.  Variables: the slack, then
    coeff+ / coeff- per basis column."""
    n_err, n_bound, nm = len(err_points), len(bound_points), basis.shape[1]
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
    return rows


def _minimax_lp(rows, vals, err_points):
    """The program of :func:`_minimax_rows`, whose right-hand side, from
    ``vals``, is nonnegative as ``linprog.solve`` requires."""
    rhs, n_err = np.ones(len(rows)), len(err_points)
    v_err = vals[err_points]
    np.add(v_err, 1.0, out=rhs[:n_err])
    np.subtract(1.0, v_err, out=rhs[n_err : 2 * n_err])
    rhs[len(rows) // 2 + n_err : -1] = 0.0
    return linprog.LinearProgram.build(objective=rows[-1], rows=rows, rhs=rhs)


_DIRECT_POINT_LIMIT = 256      # the whole program is the first active set
_CUT_BATCH = 64                # violated points added per exchange round


def _new_violators(excess, points, active):
    """Up to ``_CUT_BATCH`` of ``points`` with positive ``excess`` that the
    sorted points ``active`` do not hold yet, worst first."""
    order = np.argsort(excess)[::-1]
    order = order[(excess[order] > 0) & ~np.isin(points[order], active)]
    return points[order[:_CUT_BATCH]]


class _Start(NamedTuple):
    """Where a degree scan continues: the previous degree's final outcome,
    the tableau column of each variable of its program (slack, coeff+,
    coeff-) and its active points, error rows and [0, 1] rows."""

    outcome: linprog.LpOutcome
    order: np.ndarray
    err_on: np.ndarray
    bound_on: np.ndarray


def _minimax(basis, vals, dom, bounded: bool, first_rows=_minimax_rows,
             start: _Start | None = None):
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
    full one).  The active set only grows, so the loop ends.  The rows of
    the first active set come from ``first_rows``, which may keep them.

    With a ``start`` from the previous degree of a scan, whose columns are
    the first ones of ``basis``, the first round keeps its active points and
    continues its tableau with the coeff+ / coeff- columns of the new basis
    columns alone (``linprog.extend``): its optimal basis stays feasible.
    A round that adds points solves its program from the slack basis.

    Returns the final ``linprog.LpOutcome``, whose solution is the slack,
    then coeff+ / coeff- per basis column, and the start of the next degree.
    """
    points, nm = basis.shape
    everywhere = np.arange(points)
    direct = points <= _DIRECT_POINT_LIMIT
    if start is None:   # active points, ascending: error rows and [0, 1] rows
        err_on = dom
        if not direct:
            seed = np.linspace(0, len(dom) - 1, min(len(dom), 4 * nm + 8))
            err_on = dom[np.unique(seed.astype(int))]
        bound_on = (everywhere if direct else err_on) if bounded else dom[:0]
        rows = first_rows(basis, err_on, bound_on)
    else:
        err_on, bound_on = start.err_on, start.bound_on
        rows = None if direct else _minimax_rows(basis, err_on, bound_on)
    while True:
        if start is None:
            lp = _minimax_lp(rows, vals, err_on)
            outcome, order = linprog.solve(lp), np.arange(1 + 2 * nm)
        else:
            outcome, order = _continued(start, basis)
            lp, start = None if direct else _minimax_lp(rows, vals, err_on), None
        if not outcome.optimal:
            raise linprog.SimplexError(f"minimax LP ended {outcome.status}")
        outcome.solution = outcome.solution[order]
        if not direct:
            ok, worst = linprog.check_certificate(lp, outcome.solution)
            if not ok:
                raise linprog.SimplexError(
                    f"exchange-round optimum violates its program by {worst:.3g}")
            table = basis @ (outcome.solution[1 : 1 + nm]
                             - outcome.solution[1 + nm :])
            sub_error = 1.0 - outcome.value
            deviation = np.abs(table[dom] - vals[dom])
            new_err = _new_violators(deviation - (sub_error + 1e-12), dom, err_on)
            new_bound = everywhere[:0]
            if bounded:
                excess = np.maximum(table - 1.0, -table) - 1e-12
                new_bound = _new_violators(excess, everywhere, bound_on)
        if direct or len(new_err) == len(new_bound) == 0:
            return outcome, _Start(outcome, order, err_on, bound_on)
        err_on = np.union1d(err_on, new_err)
        bound_on = np.union1d(bound_on, new_bound)
        rows = _minimax_rows(basis, err_on, bound_on)


def _continued(start: _Start, basis):
    """``start``'s tableau continued with the coeff+ / coeff- columns of the
    basis columns its program lacks, on its active points, and the tableau
    column of each variable of the program of ``basis``: the new columns
    follow the old ones in the tableau."""
    old, width = (len(start.order) - 1) // 2, len(start.order)
    k = basis.shape[1] - old
    new = _minimax_rows(basis[:, old:], start.err_on, start.bound_on)[:, 1:]
    outcome = linprog.extend(start.outcome, new, np.zeros(2 * k))
    order = np.concatenate([start.order[: 1 + old], width + np.arange(k),
                            start.order[1 + old :], width + k + np.arange(k)])
    return outcome, order


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    error: float
    witness: MultilinearPoly
    certificate_ok: bool


def _recheck(values, vals, dom, bounded: bool, slack: float) -> bool:
    """Do the values p at the orbit minima meet the unreduced program's rows
    there within ``linprog.CERTIFICATE_TOL``: |p - f| <= 1 - slack on ``dom``,
    0 <= slack <= 1, and 0 <= p <= 1 if ``bounded``?  A NaN fails."""
    excess = np.concatenate([np.abs(values[dom] - vals[dom]) - (1.0 - slack),
                             [-slack, slack - 1.0],
                             *((values - 1.0, -values) if bounded else ())])
    return bool(excess.max() <= linprog.CERTIFICATE_TOL)


def _monomial_fit(program, degree: int, eps: float, bounded: bool,
                  start: _Start | None = None):
    """Best degree-``degree`` multilinear fit over the cube of the function
    of ``program``, solved on its orbits, from the previous degree's
    ``start`` if given (:func:`_minimax`).  The witness is read off: the
    coefficient of ``b_S`` is its column's times its sign, and only the
    variables of ``N`` are expanded through ``1 - 2 x_i``.  Its exact values
    at the orbit minima give the error and :func:`_recheck`, whose verdict is
    the whole cube's: the witness is invariant and f constant on orbits.
    Returns the decision and the start of the next degree."""
    def rows(matrix, err, bound):   # the orbit rows, kept per active set
        return _cached(program.key + (degree, err.tobytes(), bound.tobytes()),
                       lambda: (_minimax_rows(matrix, err, bound),))[0]
    basis, subsets, kept, column, sign = program.at(degree)
    vals, dom, nm = program.vals, program.dom, basis.shape[1]
    outcome, after = _minimax(basis, vals, dom, bounded, rows, start)
    sol = outcome.solution
    coeffs = np.zeros(len(subsets))
    coeffs[kept] = (sol[1 : 1 + nm] - sol[1 + nm :])[column] * sign
    for i in np.flatnonzero(program.negated >> np.arange(program.arity) & 1):
        has = np.flatnonzero(subsets >> i & 1)   # b_S = (1 - 2 x_i) b_(S - i)
        coeffs[subset_positions(subsets, subsets[has] ^ 1 << i)] += coeffs[has]
        coeffs[has] *= -2.0
    mono = _cached(program.key + (degree, "mono"),   # after the solve's peak
                   lambda: (_monomial_matrix(program.minima, subsets),))[0]
    values = np.array(linprog.rows_fsum(mono, coeffs))
    error = float(np.abs(values[dom] - vals[dom]).max())
    cert_ok = _recheck(values, vals, dom, bounded, float(sol[0]))
    nz = np.abs(coeffs) > 1e-12
    terms = dict(zip(subsets[nz].tolist(), coeffs[nz].tolist()))
    witness = MultilinearPoly(program.arity, terms or {0: 0.0})
    return FeasibilityResult(error <= eps + FEAS_SLACK, error, witness,
                             cert_ok), after


def _degree_fits(f: PartialFn, eps: float, bounded: bool, degree: int = 0):
    """Check the arguments; ``decide(d, start=None)`` fits ``f`` on one
    orbit program (:func:`_monomial_fit`)."""
    _check_eps(eps)
    if not (bounded or f.is_total):
        raise ValueError("use bdeg_feasible for partial functions")
    if not 0 <= degree <= f.arity:
        raise ValueError("degree out of range")
    if bounded and f.dom_size == 0:
        raise ValueError("function has empty domain")
    program = _OrbitProgram(f, interchangeable_classes(f))
    return lambda d, start=None: _monomial_fit(program, d, eps, bounded, start)


def adeg_feasible(f: PartialFn, degree: int, eps: float = DEFAULT_EPS):
    """Is there a degree-``degree`` polynomial within ``eps`` of ``f`` on the
    whole cube?  Requires a total function.  One decision, solved from the
    slack basis."""
    return _degree_fits(f, eps, False, degree)(degree)[0]


def bdeg_feasible(f: PartialFn, degree: int, eps: float = DEFAULT_EPS):
    """Like adeg_feasible but errors count on the domain only, while the
    polynomial must stay within [0, 1] on every Boolean point."""
    return _degree_fits(f, eps, True, degree)(degree)[0]


def _check_eps(eps: float) -> None:
    if not 1e-4 <= eps < 0.5:
        raise ValueError(f"error budget must lie in [1e-4, 1/2), got {eps}")


def _scan(f: PartialFn, eps: float, decide) -> int:
    """The lowest degree ``decide`` finds feasible for ``f``.  Scans start
    at degree 1 where ``f`` takes both values, by an exact argument, not by
    presumed monotonicity: a constant ``c`` errs there by
    ``max(c, 1 - c) >= 1/2``, in floats too.  Each degree continues from
    the previous degree's final tableau, whose columns are the first of its
    own (orbits of monomials keep their size).  Every decision, feasible or
    not, is re-checked on exact sums (:func:`_recheck`), and one whose
    optimum failed raises ``linprog.SimplexError``: an infeasible verdict
    on a broken optimum means nothing either."""
    first = 0 if f.is_constant() or eps + FEAS_SLACK >= 0.5 else 1
    start = None
    for d in range(first, f.arity + 1):
        res, start = decide(d, start)
        if not res.certificate_ok:
            raise linprog.SimplexError(f"degree-{d} optimum failed its re-check")
        if res.feasible:
            return d
    raise AssertionError("full degree must be feasible")


def adeg(f: PartialFn, eps: float = DEFAULT_EPS) -> int:
    """Minimum degree approximating a total function within ``eps``."""
    return _scan(f, eps, _degree_fits(f, eps, bounded=False))


def bdeg(f: PartialFn, eps: float = DEFAULT_EPS) -> int:
    """Minimum degree of a [0, 1]-bounded polynomial within ``eps`` on the
    domain of a partial function."""
    return _scan(f, eps, _degree_fits(f, eps, bounded=True))


# ---------------------------------------------------------------------------
# Amplification
# ---------------------------------------------------------------------------

def amplified_value(m: int, x):
    """A_m(x) for odd ``m >= 1``: the probability that a coin of
    heads-probability ``x`` wins a best-of-m vote.  Maps [0, 1] to [0, 1],
    fixes 0, 1/2 and 1, and pushes values near {0, 1} exponentially closer.
    Evaluated as the binomial tail, each ``C(m, j)`` stepped exactly from
    the last: exact on Fractions, where ``x = a/b`` makes it one integer
    over ``b**m``; summed by ``math.fsum`` on floats, in log space once
    ``C(m, j)`` leaves the float range, and term by term on arrays."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"amplifier degree must be odd and positive, got {m}")

    def wins():   # (j, C(m, j)) for the winning head counts j
        j = (m + 1) // 2
        c = math.comb(m, j)
        for j in range(j, m + 1):
            yield j, c
            c = c * (m - j) // (j + 1)

    if isinstance(x, Fraction):
        a, b = x.numerator, x.denominator
        return Fraction(sum(c * a**j * (b - a) ** (m - j) for j, c in wins()),
                        b**m)
    terms = (c * x**j * (1.0 - x) ** (m - j) for j, c in wins())
    try:
        return math.fsum(terms) if isinstance(x, float) else sum(terms)
    except OverflowError:   # C(m, j) beyond the float range: add in log space
        if x in (0.0, 1.0):
            return x
        return math.fsum(math.exp(math.log(c) + j * math.log(x)
                                  + (m - j) * math.log1p(-x)) for j, c in wins())


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
    base = bdeg_feasible(base_fn, bdeg(base_fn))
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
