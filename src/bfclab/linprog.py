"""Dense linear programming with post-hoc certificate verification.

Every program here has one form: ``max c.x  s.t.  A x <= b,  x >= 0`` with
``b >= 0``, so the slack basis is feasible and a single phase of a small,
deterministic tableau simplex in double precision solves it.  :func:`solve`
starts from the slack basis; :func:`extend` adds columns to a solved
program and continues from its optimal basis, which stays feasible (column
generation, Gilmore and Gomory 1961).  The reduced costs are the tableau's
last row, so one rank-one update per pivot covers the constraints and the
objective.  There is one pivot rule: Dantzig's column (most negative
reduced cost), the ratio test on a graded perturbation of the right-hand
side (Charnes 1952), lowest index on ties in both.  The perturbation is the
only anti-degeneracy device; ``MAX_PIVOTS`` is the backstop, a declared
resource bound (:class:`IterationLimitExceeded`, exit 3).  Instance sizes
in this package stay below a few thousand rows.

:class:`LinearProgram` checks a program's shape and coefficients once,
when it is made.  :func:`solve` and :func:`extend` do not check what they
return.  Each caller that publishes an answer re-checks it once on exact
sums (:func:`rows_fsum`): of every row of its program with
:func:`check_certificate`, or of a degree witness at each orbit minimum;
the solver's arithmetic is never trusted on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FEASIBILITY_TOL = 1e-9      # internal pivot / ratio tolerance
CERTIFICATE_TOL = 1e-7      # external re-check tolerance
MAX_PIVOTS = 1_000_000


class SimplexError(Exception):
    """Base class for solver failures."""


class IterationLimitExceeded(SimplexError):
    """Pivot cap hit."""


@dataclass
class LinearProgram:
    """``max objective.x  s.t.  rows x <= rhs,  x >= 0``.  Rows are dense.

    Checked once, when made, however it is made: the arrays become float
    arrays (a float64 one is kept, not copied; ``rows=[]`` stands for no
    rows), and a mis-shaped ``rows`` or a coefficient that is not finite
    raises ``ValueError``.
    """

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        c = self.objective = np.asarray(self.objective, dtype=float)
        b = self.rhs = np.asarray(self.rhs, dtype=float)
        a = self.rows = np.asarray(self.rows, dtype=float)
        if a.size == 0 == len(b) * len(c):   # e.g. rows=[] for no rows
            a = self.rows = a.reshape(len(b), len(c))
        if a.shape != (len(b), len(c)):
            raise ValueError("constraint matrix shape mismatch")
        if not all(np.isfinite(arr).all() for arr in (c, b, a)):
            raise ValueError("coefficients must be finite")

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rhs)


@dataclass
class LpOutcome:
    """Solve result, unchecked: callers that publish it re-check the
    solution with :func:`check_certificate`.  ``pivots`` counts the pivots
    of this solve alone; ``tableau`` is its final tableau, which
    :func:`extend` continues."""

    status: str                  # "optimal" | "unbounded"
    solution: np.ndarray | None
    value: float | None
    pivots: int = 0
    tableau: "_Tableau | None" = field(default=None, repr=False,
                                       compare=False)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


_ROW_BLOCK = 256            # rows per temporary, to bound transient memory


def rows_fsum(rows: np.ndarray, x: np.ndarray) -> list:
    """``rows @ x``, each row's nonzero products summed exactly rounded, by
    blocks of ``_ROW_BLOCK`` rows: one ``np.nonzero`` per block finds the
    nonzero coefficients in row order, and their products are split by row."""
    sums = []
    for start in range(0, len(rows), _ROW_BLOCK):
        block = rows[start : start + _ROW_BLOCK]
        row, col = block.nonzero()
        terms = (block[row, col] * x[col]).tolist()
        ends = row.searchsorted(np.arange(1, len(block) + 1)).tolist()
        sums += [math.fsum(terms[a:b]) for a, b in zip([0] + ends, ends)]
    return sums


def check_certificate(lp: LinearProgram, solution):
    """Recompute every constraint residual, each row's left side summed with
    ``math.fsum``; pass iff the worst is within ``CERTIFICATE_TOL``.  Returns
    ``(passed, worst_violation)``: the largest signed violation, the rows'
    before the bounds', or 0.0 if none is larger.  A bound's residual is
    ``0.0 - x_j``, which keeps the sign of a zero ``x_j`` from reaching the
    result."""
    x = np.asarray(solution, dtype=float)
    out = [lhs - b for lhs, b in zip(rows_fsum(lp.rows, x), lp.rhs.tolist())]
    worst = max(max(out + [0.0 - v for v in x.tolist()], default=0.0), 0.0)
    return worst <= CERTIFICATE_TOL, worst


class _Tableau:
    """Tableau of ``A x + s = b,  x, s >= 0,  b >= 0``, started from the
    slack basis; :meth:`add_columns` appends structural columns to it.

    Two right-hand sides travel through the pivots: the true one (read out at
    the end) and a graded-perturbation copy used for ratio tests, which
    breaks the massive degeneracy of minimax programs; it is the only
    anti-degeneracy device (its exact limit is the lexicographic rule of
    Dantzig, Orden and Wolfe), and ``MAX_PIVOTS`` bounds what it leaves.
    The last row holds the reduced costs ``z = cost - cost_B . B^{-1} A`` of
    the negated objective; the slack basis costs nothing, so ``z`` starts as
    that cost, and every pivot updates it with the constraint rows.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, objective: np.ndarray):
        m, n = a.shape
        self.objective = objective
        width = n + m + 2
        self.t = np.zeros((m + 1, width))
        self.t[:m, :n] = a
        self.t.reshape(-1)[n : m * (width + 1) : width + 1] = 1.0  # slacks
        self.t[m, :n] = -objective
        grade = 1e-9 * np.arange(1.0, m + 1.0) / m
        self.t[:m, -2] = b + grade
        self.t[:m, -1] = b
        self.no_ratios = np.full(m, np.inf)
        self.basis = list(range(n, n + m))

    def add_columns(self, cols: np.ndarray, cost: np.ndarray) -> None:
        """Append the structural columns ``cols`` (one row per constraint)
        of objective ``cost``, priced through the current basis ``B``: the
        slack block holds ``B^{-1}`` over the duals ``y``, so they enter as
        ``B^{-1} cols`` with reduced costs ``y . cols - cost``.  They go in
        before the slack block, whose indices in ``basis`` shift to match;
        the basis stays feasible, so :meth:`run` continues from it."""
        m, k = len(self.basis), cols.shape[1]
        n = self.t.shape[1] - m - 2
        priced = self.t[:, n : n + m] @ cols
        priced[m] -= cost
        self.t = np.hstack([self.t[:, :n], priced, self.t[:, n:]])
        self.basis = [j + k if j >= n else j for j in self.basis]
        self.objective = np.concatenate([self.objective, cost])

    def run(self):
        """Maximize the objective from the current basis.  Returns
        "optimal" or "unbounded"; raises IterationLimitExceeded after
        ``MAX_PIVOTS`` pivots, which count this run's alone."""
        t = self.t
        m = t.shape[0] - 1
        z, rhs = t[m, :-2], t[:m, -2]
        self.pivots = 0
        while True:
            col = int(z.argmin())  # argmin takes the lowest index on ties
            if z[col] >= -FEASIBILITY_TOL:
                return "optimal"
            colvals = t[:m, col]
            ok = colvals > FEASIBILITY_TOL
            if np.count_nonzero(ok) == 0:
                return "unbounded"
            ratios = np.divide(rhs, colvals, out=self.no_ratios.copy(), where=ok)
            np.maximum(ratios, 0.0, out=ratios)
            row = int(ratios.argmin())
            # pivot: the pivot row's entry at col becomes exactly 1.0, so
            # every other row's (z's too) becomes x - x * 1.0, +0.0 if finite
            t[row] /= t[row, col]
            colv = t[:, col].copy()
            colv[row] = 0.0
            t -= colv[:, None] * t[row]
            self.basis[row] = col
            self.pivots += 1
            if self.pivots >= MAX_PIVOTS:
                raise IterationLimitExceeded(
                    f"simplex exceeded {MAX_PIVOTS} pivots"
                )


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve ``lp``, checked when it was made, whose ``rhs`` must be
    nonnegative.  Deterministic: identical programs produce identical
    outcomes.  The outcome is not re-checked here; see
    :func:`check_certificate`."""
    if (lp.rhs < 0).any():
        raise ValueError("rhs must be nonnegative")
    return _finish(_Tableau(lp.rows, lp.rhs, lp.objective))


def extend(outcome: LpOutcome, cols, cost) -> LpOutcome:
    """Add the columns ``cols`` of objective ``cost`` to the program that
    ``outcome`` solved optimally and continue from its final tableau, which
    becomes the new outcome's (:meth:`_Tableau.add_columns`).  The new
    variables follow the old ones in the solution.  Not re-checked here."""
    tab = outcome.tableau
    tab.add_columns(np.asarray(cols, dtype=float), np.asarray(cost, dtype=float))
    return _finish(tab)


def _finish(tab: _Tableau) -> LpOutcome:
    """Run ``tab`` and read out its outcome."""
    if tab.run() == "unbounded":
        return LpOutcome("unbounded", None, None, tab.pivots)
    n = len(tab.objective)
    y = np.zeros(n + len(tab.basis))
    y[tab.basis] = tab.t[:-1, -1]
    x = 0.0 + y[:n]
    value = rows_fsum(tab.objective[None], x)[0]
    return LpOutcome("optimal", x, value, tab.pivots, tab)
