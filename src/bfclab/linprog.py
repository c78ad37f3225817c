"""Dense linear programming with post-hoc certificate verification.

A deliberately small, deterministic two-phase tableau simplex in double
precision.  The pivot rule is Dantzig's (most negative reduced cost, lowest
index on ties) with a switch to Bland's rule after a run of degenerate pivots,
which guarantees termination.  Instance sizes in this package stay below a few
thousand rows, and every reported optimum is re-verified against the original
program with compensated summation, so the solver's internal arithmetic never
has to be trusted on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

FEASIBILITY_TOL = 1e-9      # internal pivot / ratio tolerance
CERTIFICATE_TOL = 1e-7      # default external re-check tolerance
MAX_PIVOTS = 1_000_000
_DEGENERATE_RUN = 40        # pivots without progress before Bland's rule kicks in

LE, EQ, GE = "<=", "==", ">="


class SimplexError(Exception):
    """Base class for solver failures."""


class IterationLimitExceeded(SimplexError):
    """Pivot cap hit; distinct from infeasibility by construction."""


@dataclass
class LinearProgram:
    """``opt c.x  s.t.  A x (<=|==|>=) b,  lower <= x <= upper``.

    ``lower``/``upper`` entries may be ``-inf``/``+inf``.  Rows are dense.
    Programs made by :meth:`build` are validated there, once; :func:`solve`
    validates any other program itself.
    """

    objective: np.ndarray
    maximize: bool
    rows: np.ndarray
    relations: list
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    _validated: bool = field(default=False, init=False, repr=False,
                             compare=False)

    @classmethod
    def build(cls, objective, maximize, rows, relations, rhs,
              lower=None, upper=None) -> "LinearProgram":
        c = np.asarray(objective, dtype=float)
        a = np.asarray(rows, dtype=float).reshape(len(relations), len(c))
        b = np.asarray(rhs, dtype=float)
        lo = np.full(len(c), -np.inf) if lower is None else np.asarray(lower, float)
        hi = np.full(len(c), np.inf) if upper is None else np.asarray(upper, float)
        lp = cls(c, maximize, a, list(relations), b, lo, hi)
        lp.validate()
        lp._validated = True
        return lp

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.relations)

    def validate(self) -> None:
        if self.rows.shape != (self.num_rows, self.num_vars):
            raise ValueError("constraint matrix shape mismatch")
        if len(self.rhs) != self.num_rows:
            raise ValueError("rhs length mismatch")
        unknown = set(self.relations) - {LE, EQ, GE}
        if unknown:
            raise ValueError(f"unknown relation {unknown.pop()!r}")
        for arr in (self.objective, self.rows, self.rhs):
            if not np.all(np.isfinite(arr)):
                raise ValueError("coefficients must be finite")

    def dump(self) -> str:
        """Plain-text inequality form, one constraint per line, for external
        cross-checking."""

        def term(c, j):
            return f"{c:+.12g} x{j}"

        lines = [("max " if self.maximize else "min ")
                 + " ".join(term(c, j) for j, c in enumerate(self.objective) if c)]
        for row, rel, b in zip(self.rows, self.relations, self.rhs):
            body = " ".join(term(c, j) for j, c in enumerate(row) if c) or "0"
            lines.append(f"{body} {rel} {b:.12g}")
        for j, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if lo != -np.inf or hi != np.inf:
                lines.append(f"{lo:.12g} <= x{j} <= {hi:.12g}")
        return "\n".join(lines) + "\n"


@dataclass
class LpOutcome:
    """Solve result.  ``max_violation`` is re-measured from the original
    program with compensated summation, independent of solver internals."""

    status: str                  # "optimal" | "infeasible" | "unbounded"
    solution: np.ndarray | None
    value: float | None
    max_violation: float | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


_ROUNDING = 2.0 ** -52      # twice the unit roundoff of a double
_ROW_BLOCK = 256            # rows per temporary, to bound transient memory
_EXACT_CELLS = 2048         # programs this small are summed row by row


def _row_fsum(row: np.ndarray, x: np.ndarray) -> float:
    """Compensated sum of ``row * x`` over the nonzero entries of ``row``."""
    nz = row != 0
    return math.fsum((row[nz] * x[nz]).tolist())


def _rows_fsum(rows: np.ndarray, pick, x: np.ndarray) -> list:
    """:func:`_row_fsum` of the rows ``pick``.  At a finite point the
    products of zero coefficients are zeros, and zero terms never change
    ``math.fsum`` (CPython 3.10 to 3.13 return +0.0 for every zero sum), so
    they are summed along instead of masked out row by row."""
    if not np.isfinite(x).all():  # 0 * inf is not zero
        return [_row_fsum(rows[i], x) for i in pick]
    sums = []
    for start in range(0, len(pick), _ROW_BLOCK):
        block = rows[pick[start : start + _ROW_BLOCK]] * x
        sums += [math.fsum(r) for r in block.tolist()]
    return sums


def _rows_that_can_be_worst(lp: LinearProgram, x: np.ndarray, floor: float):
    """Indices of the rows whose residual can reach the largest one, which
    is at least ``floor``.

    One product ``rows @ x`` estimates every row, and a bound on its
    rounding error gives each row an interval that holds the residual its
    compensated sum gives.  A row whose interval ends below the largest
    lower end (or below ``floor``) cannot be the worst.  Non-finite
    estimates keep every row.
    """
    rows = lp.rows
    rel = np.array(lp.relations)
    with np.errstate(invalid="ignore", over="ignore"):
        est = rows @ x - lp.rhs
        est = np.where(rel == LE, est, np.where(rel == GE, -est, np.abs(est)))
        size = np.empty(len(est))
        ax = np.abs(x)
        for start in range(0, len(est), _ROW_BLOCK):
            size[start : start + _ROW_BLOCK] = (
                np.abs(rows[start : start + _ROW_BLOCK]) @ ax
            )
        width = _ROUNDING * ((lp.num_vars + 4) * size + 2 * np.abs(est))
        width += 1e-300  # room for underflow in the products
    if not (np.isfinite(est).all() and np.isfinite(width).all()):
        return np.arange(len(est))
    floor = max((est - width).max(), floor)
    return np.flatnonzero(est + width >= floor)


def _worst_residual(lp: LinearProgram, x: Sequence[float]):
    """Largest signed constraint violation (0.0 for a program without any),
    each row's left side summed with ``math.fsum``.

    Programs above ``_EXACT_CELLS`` entries re-sum only the rows that can
    be the worst; ``max`` over them, in row order, returns the same float
    (sign of zero included) as over every row.
    """
    x = np.asarray(x, dtype=float)
    bounds = []
    for lo, hi, v in zip(lp.lower.tolist(), lp.upper.tolist(), x.tolist()):
        if lo != -math.inf:
            bounds.append(lo - v)
        if hi != math.inf:
            bounds.append(v - hi)
    if lp.rows.size <= _EXACT_CELLS:
        pick = np.arange(lp.num_rows)
    else:
        pick = _rows_that_can_be_worst(lp, x, max(bounds, default=-math.inf))
    out = []
    for i, lhs in zip(pick.tolist(), _rows_fsum(lp.rows, pick, x)):
        rel, b = lp.relations[i], float(lp.rhs[i])
        if rel == LE:
            out.append(lhs - b)
        elif rel == GE:
            out.append(b - lhs)
        else:
            out.append(abs(lhs - b))
    return max(out + bounds, default=0.0)


def check_certificate(lp: LinearProgram, solution, tol: float = CERTIFICATE_TOL):
    """Recompute every constraint residual; pass iff the worst is within
    ``tol``.  Returns ``(passed, worst_violation)``."""
    worst = max(_worst_residual(lp, solution), 0.0)
    return worst <= tol, worst


def objective_value(lp: LinearProgram, solution) -> float:
    return _row_fsum(lp.objective, np.asarray(solution, dtype=float))


class _Tableau:
    """Standard-form tableau: min c.y, A y = b, y >= 0, b >= 0.

    Two right-hand sides travel through the pivots: the true one (read out at
    the end) and a graded-perturbation copy used for ratio tests, which
    breaks the massive degeneracy of minimax programs.  Bland's rule takes
    over after a run of non-improving pivots, so termination is guaranteed
    even if the perturbation leaves ties.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, basis: list):
        m, n = a.shape
        self.t = np.zeros((m, n + 2))
        self.t[:, :n] = a
        grade = 1e-9 * (1.0 + np.arange(m)) / m
        self.t[:, n] = b + grade
        self.t[:, n + 1] = b
        self.basis = list(basis)
        self.n = n
        self.pivots = 0

    def _pivot(self, row: int, col: int) -> None:
        t = self.t
        t[row] /= t[row, col]
        colv = t[:, col].copy()
        colv[row] = 0.0
        t -= np.outer(colv, t[row])
        t[:, col] = 0.0
        t[row, col] = 1.0
        self.basis[row] = col
        self.pivots += 1

    def true_rhs(self, row: int) -> float:
        return self.t[row, -1]

    def run(self, cost: np.ndarray, pivot_budget: int):
        """Minimize ``cost . y`` from the current basis.  Returns "optimal"
        or "unbounded"; raises IterationLimitExceeded on budget exhaustion."""
        t = self.t
        m = t.shape[0]
        # reduced costs: z = cost - cost_B . B^{-1} A, maintained across pivots
        z = cost.astype(float).copy()
        for r, j in enumerate(self.basis):
            if z[j]:
                z -= z[j] * t[r, :-2]
        stall = 0
        while True:
            if stall < _DEGENERATE_RUN:
                col = int(np.argmin(z))
                if z[col] >= -FEASIBILITY_TOL:
                    return "optimal"
            else:
                negs = np.nonzero(z < -FEASIBILITY_TOL)[0]  # Bland: lowest index
                if len(negs) == 0:
                    return "optimal"
                col = int(negs[0])
            colvals = t[:, col]
            ok = colvals > FEASIBILITY_TOL
            if not ok.any():
                return "unbounded"
            ratios = np.full(m, np.inf)
            ratios[ok] = t[ok, -2] / colvals[ok]
            np.maximum(ratios, 0.0, out=ratios)
            row = int(np.argmin(ratios))  # argmin takes the lowest index on ties
            if stall >= _DEGENERATE_RUN:
                best = ratios[row]
                cands = np.nonzero(ratios <= best + FEASIBILITY_TOL)[0]
                row = int(min(cands, key=lambda r: self.basis[r]))
            progress = ratios[row] * (-z[col])
            self._pivot(row, col)
            z -= z[col] * t[row, :-2]
            z[col] = 0.0
            stall = 0 if progress > FEASIBILITY_TOL else stall + 1
            if self.pivots >= pivot_budget:
                raise IterationLimitExceeded(
                    f"simplex exceeded {pivot_budget} pivots"
                )


def solve(lp: LinearProgram, max_pivots: int = MAX_PIVOTS) -> LpOutcome:
    """Solve a dense LP.  Deterministic: identical programs produce identical
    outcomes.  Optimal outcomes carry a re-measured worst violation."""
    if not lp._validated:
        lp.validate()
    n = lp.num_vars
    m = lp.num_rows

    # Variable transforms to y >= 0: shift at a finite lower bound, reflect at
    # a finite upper bound, or split a free variable into a difference.
    col_of = []          # per original var: (kind, y-columns, offset)
    ncols = 0
    extra_rows = []      # upper-bound rows introduced by shifts
    for j in range(n):
        lo, hi = lp.lower[j], lp.upper[j]
        if lo != -np.inf:
            col_of.append(("shift", ncols, lo))
            if hi != np.inf:
                extra_rows.append((j, hi - lo))
            ncols += 1
        elif hi != np.inf:
            col_of.append(("reflect", ncols, hi))
            ncols += 1
        else:
            col_of.append(("split", ncols, 0.0))
            ncols += 2

    rows_total = m + len(extra_rows)
    a = np.zeros((rows_total, ncols))
    b = np.zeros(rows_total)
    rel = list(lp.relations) + [LE] * len(extra_rows)
    b[:m] = lp.rhs
    for j, (kind, c0, off) in enumerate(col_of):
        col = lp.rows[:, j]
        if kind == "shift":
            a[:m, c0] = col
            b[:m] -= col * off
        elif kind == "reflect":
            a[:m, c0] = -col
            b[:m] -= col * off
        else:
            a[:m, c0] = col
            a[:m, c0 + 1] = -col
    for r, (j, span) in enumerate(extra_rows):
        kind, c0, _ = col_of[j]
        a[m + r, c0] = 1.0
        b[m + r] = span

    # Orient rows to b >= 0, then add slack and artificial columns.
    for r in range(rows_total):
        if b[r] < 0:
            a[r] = -a[r]
            b[r] = -b[r]
            if rel[r] == LE:
                rel[r] = GE
            elif rel[r] == GE:
                rel[r] = LE

    slack_cols = sum(1 for r in rel if r != EQ)
    art_rows = [r for r in range(rows_total) if rel[r] != LE]
    full = np.zeros((rows_total, ncols + slack_cols + len(art_rows)))
    full[:, :ncols] = a
    basis = [-1] * rows_total
    c = ncols
    for r in range(rows_total):
        if rel[r] == LE:
            full[r, c] = 1.0
            basis[r] = c
            c += 1
        elif rel[r] == GE:
            full[r, c] = -1.0
            c += 1
    art0 = c
    for r in art_rows:
        full[r, c] = 1.0
        basis[r] = c
        c += 1

    tab = _Tableau(full, b, basis)

    if art_rows:
        phase1 = np.zeros(full.shape[1])
        phase1[art0:] = 1.0
        status = tab.run(phase1, max_pivots)
        if status == "unbounded":  # cannot happen: phase-1 cost is bounded below
            raise SimplexError("phase 1 reported unbounded")
        art_sum = math.fsum(
            tab.t[r, -1] for r, j in enumerate(tab.basis) if j >= art0
        )
        if art_sum > 1e-7:
            return LpOutcome("infeasible", None, None, None)
        # Drive surviving artificials out of the basis where possible.
        for r, j in enumerate(tab.basis):
            if j >= art0:
                cand = np.nonzero(np.abs(tab.t[r, :art0]) > FEASIBILITY_TOL)[0]
                if len(cand):
                    tab._pivot(r, int(cand[0]))
        tab.t[:, art0:tab.n] = 0.0  # forbid artificial re-entry

    cost = np.zeros(full.shape[1])
    sense = -1.0 if lp.maximize else 1.0
    for j, (kind, c0, off) in enumerate(col_of):
        cj = lp.objective[j] * sense
        if kind == "shift":
            cost[c0] = cj
        elif kind == "reflect":
            cost[c0] = -cj
        else:
            cost[c0] = cj
            cost[c0 + 1] = -cj
    status = tab.run(cost, max_pivots)
    if status == "unbounded":
        return LpOutcome("unbounded", None, None, None)

    y = np.zeros(full.shape[1])
    for r, j in enumerate(tab.basis):
        y[j] = tab.t[r, -1]
    x = np.zeros(n)
    for j, (kind, c0, off) in enumerate(col_of):
        if kind == "shift":
            x[j] = off + y[c0]
        elif kind == "reflect":
            x[j] = off - y[c0]
        else:
            x[j] = y[c0] - y[c0 + 1]

    _, worst = check_certificate(lp, x, tol=0.0)
    return LpOutcome("optimal", x, objective_value(lp, x), worst)
