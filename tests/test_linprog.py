import hashlib
import math

import numpy as np
import pytest

from bfclab import linprog as L


def simple_lp():
    return L.LinearProgram(objective=[1.0], rows=[[1.0]], rhs=[3.0])


def test_bounded_maximum():
    lp = simple_lp()
    out = L.solve(lp)
    assert out.status == "optimal"
    assert out.value == pytest.approx(3.0, abs=1e-9)
    assert L.check_certificate(lp, out.solution)[1] <= 1e-9


def test_unbounded():
    lp = L.LinearProgram(objective=[1.0], rows=[[0.0]], rhs=[1.0])
    assert L.solve(lp).status == "unbounded"


def test_fbs_lp_for_or3_at_zero():
    # three singleton blocks, unit load per variable: optimum 3, all p_j = 1
    from bfclab.measures import fbs_program

    lp = fbs_program([0b001, 0b010, 0b100], 3)
    out = L.solve(lp)
    assert out.value == pytest.approx(3.0, abs=1e-9)
    assert out.solution == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
    ok, worst = L.check_certificate(lp, out.solution)
    assert ok and worst <= 1e-7


def test_certificate_catches_perturbation():
    lp = simple_lp()
    out = L.solve(lp)
    ok, _ = L.check_certificate(lp, out.solution)
    assert ok
    bad = out.solution.copy()
    bad[0] += 1e-3  # pushes the tight row past its rhs
    ok, worst = L.check_certificate(lp, bad)
    assert not ok and worst >= 1e-3 - 1e-9


def test_determinism_bitwise():
    lp1 = L.LinearProgram(
        objective=[1.0, 2.0], rows=[[1.0, 1.0], [2.0, 1.0]], rhs=[4.0, 6.0]
    )
    a = L.solve(lp1)
    b = L.solve(lp1)
    assert a.value == b.value
    assert np.array_equal(a.solution, b.solution)


def test_objective_scaling_keeps_argmax():
    rows = [[1.0, 1.0], [2.0, 1.0]]
    base = L.LinearProgram([1.0, 2.0], rows, [4.0, 6.0])
    scaled = L.LinearProgram([3.5, 7.0], rows, [4.0, 6.0])
    a, b = L.solve(base), L.solve(scaled)
    assert b.value == pytest.approx(3.5 * a.value, rel=1e-12)
    assert np.array_equal(a.solution, b.solution)


def test_iteration_limit_distinct_from_infeasible(monkeypatch):
    lp = L.LinearProgram(
        objective=[1.0, 2.0], rows=[[1.0, 1.0], [2.0, 1.0]], rhs=[4.0, 6.0]
    )
    monkeypatch.setattr(L, "MAX_PIVOTS", 1)
    with pytest.raises(L.IterationLimitExceeded):
        L.solve(lp)


def test_solve_rejects_a_negative_rhs_before_any_pivot(monkeypatch):
    lp = L.LinearProgram(
        objective=[1.0, 2.0], rows=[[1.0, 1.0], [2.0, 1.0]], rhs=[4.0, -6.0]
    )
    monkeypatch.setattr(L, "_Tableau",
                        lambda *args: pytest.fail("solve built a tableau"))
    with pytest.raises(ValueError, match="nonnegative"):
        L.solve(lp)
    # the re-check itself takes any finite rhs
    assert L.check_certificate(lp, [0.0, 0.0]) == (False, 6.0)


def test_rejects_nonfinite_and_malformed():
    with pytest.raises(ValueError):
        L.LinearProgram([np.inf], [[1.0]], [1.0])
    with pytest.raises(ValueError):
        L.LinearProgram([1.0], [[1.0]], [np.nan])
    # a matrix of the wrong shape is refused, not reshaped into another
    # program (2 x 3 rows would have read as [[1, 0], [5, 0], [1, 7]])
    for rows, rhs in (([[1, 0, 5], [0, 1, 7]], [1, 2, 3]),
                      ([[1, 0], [0, 1]], [1, 2, 3]), ([], [1.0])):
        with pytest.raises(ValueError, match="shape mismatch"):
            L.LinearProgram([1, 1], rows, rhs)
    assert L.LinearProgram([1, 1], [], []).rows.shape == (0, 2)


def test_every_program_is_checked_when_made():
    # NaN or inf in any array, or a mis-shaped one, raises before any solve
    good = dict(objective=[1.0, 1.0], rows=[[1.0, 2.0]], rhs=[1.0])
    bad = ([(name, value) for name in good for value in (np.nan, np.inf)]
           + [("rows", [[1.0, 2.0], [3.0, 4.0]]), ("rows", [[1.0], [2.0]]),
              ("rows", [[1.0, 2.0, 3.0]]), ("rhs", [1.0, 2.0]),
              ("objective", [1.0]), ("rows", [])])
    for name, value in bad:
        fields = dict(good)
        if np.ndim(value) == 0:   # the first entry made non-finite
            fields[name] = np.array(good[name], dtype=float)
            fields[name].reshape(-1)[0] = value
        else:
            fields[name] = value
        match = "finite" if np.ndim(value) == 0 else "shape mismatch"
        with pytest.raises(ValueError, match=match):
            L.LinearProgram(**fields)
        with pytest.raises(ValueError, match=match):
            L.LinearProgram(*fields.values())


def test_built_program_is_validated_once(monkeypatch):
    checked, isfinite = [], np.isfinite
    monkeypatch.setattr(np, "isfinite",
                        lambda a: checked.append(np.shape(a)) or isfinite(a))
    # float64 arrays are kept, not copied; objective, rhs, rows are checked
    objective, rows, rhs = np.ones(1), np.ones((1, 1)), np.ones(1)
    lp = L.LinearProgram(objective, rows, rhs)
    assert lp.objective is objective and lp.rows is rows and lp.rhs is rhs
    assert checked == [(1,), (1,), (1, 1)]
    assert L.solve(lp).value == pytest.approx(1.0)
    assert len(checked) == 3


def test_agreement_with_external_solver_on_random_instances():
    scipy_lp = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(5150)
    for _ in range(25):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(0, 6, size=m).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
        # min c.x on 0 <= x <= 10: maximize -c.x, the caps as rows
        lp = L.LinearProgram(-c, np.vstack([a, np.eye(n)]),
                             np.concatenate([b, np.full(n, 10.0)]))
        mine = L.solve(lp)
        ref = scipy_lp(c, A_ub=a, b_ub=b, bounds=[(0, 10)] * n, method="highs")
        assert mine.status == "optimal" and ref.status == 0
        assert -mine.value == pytest.approx(ref.fun, abs=1e-6)
        ok, _ = L.check_certificate(lp, mine.solution)
        assert ok


def per_row_worst(lp, x):
    """Worst residual as one ``math.fsum`` per row gives it: the reference
    for the vectorized re-check."""
    x = np.asarray(x, dtype=float)
    out = []
    for row, b in zip(lp.rows, lp.rhs):
        lhs = math.fsum(float(c) * float(v) for c, v in zip(row, x) if c)
        out.append(lhs - b)
    for v in x:
        out.append(0.0 - v)
    return max(max(out, default=0.0), 0.0)


def as_le(row, rel, rhs):
    """The ``<=`` rows of ``row rel rhs``: a ``>=`` row negated, an ``==``
    row as both."""
    return {"<=": [(row, rhs)], ">=": [(-row, -rhs)],
            "==": [(row, rhs), (-row, -rhs)]}[rel]


def tied_lp(rng, m, n):
    """Random rows over many magnitudes and relations, written as ``<=``
    rows, then copies of the worst row (as itself, negated with the relation
    flipped, and with one coefficient a unit in the last place away)
    scattered among them.  Most points are nonnegative, so a row is the
    worst; the others let a bound ``x_j >= 0`` win."""
    scale = 10.0 ** rng.integers(-6, 7, size=(m, n))
    a = rng.normal(size=(m, n)) * scale * (rng.random((m, n)) < 0.7)
    x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    if rng.random() < 0.75:
        x = np.abs(x)
    rel = [["<=", ">=", "=="][int(i)] for i in rng.integers(0, 3, m)]
    b = a @ x + rng.normal(size=m) * 10.0 ** rng.integers(-16, 1, size=m)

    def build(rows):
        return L.LinearProgram(np.zeros(n), [r for r, _ in rows],
                               [rhs for _, rhs in rows])

    worst = int(np.argmax([per_row_worst(build(as_le(a[i], rel[i], b[i])), x)
                           for i in range(m)]))
    row, r, rhs = a[worst], rel[worst], b[worst]
    nudged = row.copy()
    k = int(np.flatnonzero(row)[0]) if row.any() else 0
    nudged[k] = np.nextafter(nudged[k], np.inf)
    flipped = {"<=": ">=", ">=": "<=", "==": "=="}[r]
    extra = [(row, r, rhs), (-row, flipped, -rhs), (nudged, r, rhs), (row, r, rhs)]
    rows = [as_le(*t) for t in zip(a, rel, b)]
    for e in extra:
        rows.insert(int(rng.integers(0, len(rows) + 1)), as_le(*e))
    return build([pair for group in rows for pair in group]), x


@pytest.fixture(params=["filtered", "every-row"])
def residual_path(request, monkeypatch):
    """Run a test on both ways of summing the rows: "filtered" masks each
    row's zero coefficients out before its ``math.fsum``, "every-row" is
    ``rows_fsum``, which finds the nonzero coefficients of a block of rows
    at once, in blocks small enough that the test programs span several."""
    if request.param == "filtered":
        monkeypatch.setattr(L, "rows_fsum", lambda rows, x: [
            math.fsum((r[r != 0] * x[r != 0]).tolist()) for r in rows])
    else:
        monkeypatch.setattr(L, "_ROW_BLOCK", 5)
    return request.param


def test_vectorized_worst_residual_is_bit_identical_to_per_row_fsum(residual_path):
    rng = np.random.default_rng(2718)
    for _ in range(60):
        lp, x = tied_lp(rng, int(rng.integers(1, 40)), int(rng.integers(1, 12)))
        want = per_row_worst(lp, x)
        ok, got = L.check_certificate(lp, x)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert ok == (want <= 1e-7)
        # a point that satisfies everything: the worst is a tie at zero
        feasible = L.LinearProgram(lp.objective, lp.rows,
                                   lp.rows @ x + 1.0)
        got = L.check_certificate(feasible, x)[1]
        assert np.float64(got).tobytes() == np.float64(
            per_row_worst(feasible, x)).tobytes()


def test_cancellation_does_not_hide_the_worst_row(residual_path):
    # the product loses the 1 of the first row (it reads 0 or 2), the
    # compensated sum keeps it: the first row is the worst, not the second
    lp = L.LinearProgram(np.zeros(3),
                         [[1e16, 1.0, -1e16], [0.5, 0.0, 0.0]],
                         [0.0, 0.0])
    got = L.check_certificate(lp, [1.0, 1.0, 1.0])[1]
    assert got == per_row_worst(lp, [1.0, 1.0, 1.0]) == 1.0


def test_zero_products_do_not_change_a_zero_sum(residual_path):
    # masked, the first row sums [-0.0]; with its zero coefficient, [-0.0, 0.0]
    lp = L.LinearProgram(np.zeros(2), [[1.0, 0.0], [-1.0, 0.0]],
                         [0.0, 1.0])
    x = [-0.0, 1.0]
    got = L.check_certificate(lp, x)[1]
    assert np.float64(got).tobytes() == np.float64(per_row_worst(lp, x)).tobytes()
    # at an optimal origin only the bounds reach zero, as 0.0 - x_j = +0.0
    lp = L.LinearProgram([-1.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]],
                         [1.0, 1.0])
    out = L.solve(lp)
    assert out.solution.tolist() == [0.0, 0.0]
    want = np.float64(per_row_worst(lp, out.solution)).tobytes()
    got = L.check_certificate(lp, out.solution)[1]
    assert np.float64(got).tobytes() == want == bytes(8)


def test_vectorized_worst_residual_on_a_minimax_program(residual_path):
    from bfclab import approxdeg as A
    from bfclab import functions as F

    f = F.or_n(7)
    res = A.adeg_feasible(f, 2)
    subsets = A.monomial_subsets(7, 2)
    mono = A._monomial_matrix(range(128), subsets)
    dom = np.arange(128)
    lp = A._minimax_lp(A._minimax_rows(mono, dom, dom[:0]),
                       f.value_array().astype(float), dom)
    coeffs = np.array([res.witness.terms.get(s, 0.0) for s in subsets])
    x = np.concatenate([[1 - res.error], np.maximum(coeffs, 0),
                        np.maximum(-coeffs, 0)])
    got = L.check_certificate(lp, x)[1]
    assert np.float64(got).tobytes() == np.float64(per_row_worst(lp, x)).tobytes()


def test_non_finite_points_re_sum_every_row(residual_path):
    lp = L.LinearProgram([0.0, 0.0], [[1.0, 2.0], [0.0, -1.0]],
                         [1.0, 0.0])
    for x in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
        got = L.check_certificate(lp, x)[1]
        want = per_row_worst(lp, x)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# -- kernel pinning -----------------------------------------------------------

def degenerate_bounded_program():
    """The bounded degree-2 minimax program of a seeded arity-6 partial
    function (half the cube defined), whose [0, 1] rows on the whole cube
    make it heavily degenerate."""
    from bfclab import approxdeg as A

    rng = np.random.default_rng(11)
    defined = np.flatnonzero(rng.random(64) < 0.5)
    values = rng.integers(0, 2, 64).astype(float)
    subsets = A.monomial_subsets(6, 2)
    mono = A._monomial_matrix(range(64), subsets)
    return A._minimax_lp(A._minimax_rows(mono, defined, np.arange(64)),
                         values, defined)


def pinned_programs():
    """Unreduced minimax programs of the zoo members of arity at most 4 at
    every degree, the fbs programs of their inputs, a degenerate bounded
    program and an unbounded program."""
    from conftest import zoo_members

    from bfclab import approxdeg as A
    from bfclab import measures as M

    programs = []
    for f in zoo_members(4):
        n, vals = f.arity, f.value_array().astype(float)
        dom = np.flatnonzero(f.defined_array())
        bounds = dom[:0] if f.is_total else np.arange(1 << n)
        for d in range(n + 1):
            subsets = A.monomial_subsets(n, d)
            mono = A._monomial_matrix(range(1 << n), subsets)
            rows = A._minimax_rows(mono, dom, bounds)
            programs.append(A._minimax_lp(rows, vals, dom))
        for x in dom.tolist():
            blocks = M.minimal_sensitive_blocks(f, x)
            if blocks:
                programs.append(M.fbs_program(blocks, n))
    programs.append(degenerate_bounded_program())
    programs.append(L.LinearProgram([1.0, 1.0], [[1.0, -1.0]], [1.0]))
    return programs


def count_pivots(monkeypatch):
    """The list to which every later ``_Tableau.run`` appends its pivots."""
    pivots = []
    run = L._Tableau.run

    def counting_run(self, *args):
        try:
            return run(self, *args)
        finally:
            pivots.append(self.pivots)

    monkeypatch.setattr(L._Tableau, "run", counting_run)
    return pivots


def outcome_digest(programs, monkeypatch):
    """sha256 over each program's status, solution bytes, value and pivot
    count, with the count of programs."""
    pivots = count_pivots(monkeypatch)
    h = hashlib.sha256()
    for lp in programs:
        out = L.solve(lp)
        h.update(repr((out.status, out.value, pivots[-1])).encode())
        if out.solution is not None:
            h.update(out.solution.tobytes())
    return len(programs), h.hexdigest()


def test_solver_outcomes_are_pinned(monkeypatch):
    # the kernel's outcomes, pinned: a change to any pivot choice, solution
    # bit or pivot count changes the digest
    assert outcome_digest(pinned_programs(), monkeypatch) == (
        311, "75eaf78a1e18b70bd61c3e682fe45a10d8c9cae205ea8da0fc96f1aa2c79c9db")


def test_added_columns_continue_to_the_cold_optimum(monkeypatch):
    # solve the first k columns, then add the rest to that final tableau:
    # the optimum is the cold one and passes its re-check on the whole
    # program; each outcome counts the pivots of its own run
    pivots = count_pivots(monkeypatch)
    rng = np.random.default_rng(2029)
    programs = [degenerate_bounded_program()]
    for _ in range(40):
        m, n = rng.integers(2, 12, size=2)
        rows = np.vstack([rng.normal(size=(m, n)), np.ones(n)])   # sum x <= 5
        programs.append(L.LinearProgram(rng.normal(size=n), rows,
                                        np.append(rng.random(m), 5.0)))
    for lp in programs:
        cold = L.solve(lp)
        assert cold.pivots == pivots[-1]
        n = lp.num_vars
        for k in sorted({0, 1, n // 2, n - 1}):
            first = L.solve(L.LinearProgram(lp.objective[:k],
                                            lp.rows[:, :k], lp.rhs))
            warm = L.extend(first, lp.rows[:, k:], lp.objective[k:])
            assert warm.optimal and warm.tableau is first.tableau
            assert (first.pivots, warm.pivots) == tuple(pivots[-2:])
            assert abs(warm.value - cold.value) <= 1e-12, (k, warm, cold)
            assert L.check_certificate(lp, warm.solution)[0]
    # the degenerate program takes fewer pivots from half its columns' optimum
    lp = programs[0]
    half = lp.num_vars // 2
    first = L.solve(L.LinearProgram(lp.objective[:half],
                                    lp.rows[:, :half], lp.rhs))
    assert L.extend(first, lp.rows[:, half:],
                    lp.objective[half:]).pivots < L.solve(lp).pivots


def test_a_degenerate_degree_program_solves_within_its_pivot_budget(
        monkeypatch):
    # the degree-6 program of f'∘xor:4 for the outer or:3 (413 rows x 145
    # columns), heavily degenerate: the one pivot rule on the perturbed rhs
    # takes a few hundred pivots to an optimum that passes its re-check
    from bfclab import approxdeg as A
    from bfclab import functions as F
    from bfclab.verify import bs_chain_parts

    pivots = count_pivots(monkeypatch)
    f = F.compose(bs_chain_parts(F.or_n(3)).f_prime, [F.xor_n(4)] * 3)
    res = A.bdeg_feasible(f, 6)
    assert not res.feasible and res.certificate_ok
    assert len(pivots) == 1 and pivots[0] < 1000
