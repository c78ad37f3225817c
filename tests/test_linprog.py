import math

import numpy as np
import pytest

from bfclab import linprog as L


def simple_lp(maximize=True):
    return L.LinearProgram.build(
        objective=[1.0], maximize=maximize, rows=[[1.0]],
        relations=[L.LE], rhs=[3.0], lower=[0.0],
    )


def test_bounded_maximum():
    out = L.solve(simple_lp())
    assert out.status == "optimal"
    assert out.value == pytest.approx(3.0, abs=1e-9)
    assert out.max_violation <= 1e-9


def test_infeasible_pair():
    lp = L.LinearProgram.build(
        objective=[1.0], maximize=True, rows=[[1.0], [1.0]],
        relations=[L.GE, L.LE], rhs=[1.0, 0.0], lower=[0.0],
    )
    assert L.solve(lp).status == "infeasible"


def test_unbounded():
    lp = L.LinearProgram.build(
        objective=[1.0], maximize=True, rows=[[0.0]],
        relations=[L.LE], rhs=[1.0], lower=[0.0],
    )
    assert L.solve(lp).status == "unbounded"


def test_equality_and_free_variables():
    # min x + y  s.t.  x + y == 2, x - y == 0, x,y free
    lp = L.LinearProgram.build(
        objective=[1.0, 1.0], maximize=False,
        rows=[[1.0, 1.0], [1.0, -1.0]], relations=[L.EQ, L.EQ],
        rhs=[2.0, 0.0],
    )
    out = L.solve(lp)
    assert out.status == "optimal"
    assert out.solution == pytest.approx([1.0, 1.0], abs=1e-8)


def test_upper_bounded_variable():
    lp = L.LinearProgram.build(
        objective=[1.0], maximize=True, rows=[[0.0]], relations=[L.LE],
        rhs=[1.0], lower=[0.0], upper=[2.5],
    )
    assert L.solve(lp).value == pytest.approx(2.5, abs=1e-9)


def test_reflected_variable_without_lower_bound():
    # max x with x <= 4 as a pure upper bound, objective drives x upward
    lp = L.LinearProgram.build(
        objective=[1.0], maximize=True, rows=[[1.0]], relations=[L.LE],
        rhs=[10.0], upper=[4.0],
    )
    assert L.solve(lp).value == pytest.approx(4.0, abs=1e-9)


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
    ok, _ = L.check_certificate(lp, out.solution, tol=1e-7)
    assert ok
    bad = out.solution.copy()
    bad[0] += 1e-3  # pushes the tight row past its rhs
    ok, worst = L.check_certificate(lp, bad, tol=1e-7)
    assert not ok and worst >= 1e-3 - 1e-9


def test_determinism_bitwise():
    lp1 = L.LinearProgram.build(
        objective=[1.0, 2.0], maximize=True,
        rows=[[1.0, 1.0], [2.0, 1.0]], relations=[L.LE, L.LE],
        rhs=[4.0, 6.0], lower=[0.0, 0.0],
    )
    a = L.solve(lp1)
    b = L.solve(lp1)
    assert a.value == b.value
    assert np.array_equal(a.solution, b.solution)


def test_objective_scaling_keeps_argmax():
    rows = [[1.0, 1.0], [2.0, 1.0]]
    base = L.LinearProgram.build([1.0, 2.0], True, rows, [L.LE, L.LE],
                                 [4.0, 6.0], lower=[0.0, 0.0])
    scaled = L.LinearProgram.build([3.5, 7.0], True, rows, [L.LE, L.LE],
                                   [4.0, 6.0], lower=[0.0, 0.0])
    a, b = L.solve(base), L.solve(scaled)
    assert b.value == pytest.approx(3.5 * a.value, rel=1e-12)
    assert np.array_equal(a.solution, b.solution)


def test_iteration_limit_distinct_from_infeasible():
    lp = L.LinearProgram.build(
        objective=[1.0, 2.0], maximize=True,
        rows=[[1.0, 1.0], [2.0, 1.0]], relations=[L.LE, L.LE],
        rhs=[4.0, 6.0], lower=[0.0, 0.0],
    )
    with pytest.raises(L.IterationLimitExceeded):
        L.solve(lp, max_pivots=1)


def test_rejects_nonfinite_and_malformed():
    with pytest.raises(ValueError):
        L.LinearProgram.build([np.inf], True, [[1.0]], [L.LE], [1.0])
    with pytest.raises(ValueError):
        L.LinearProgram.build([1.0], True, [[1.0]], ["<"], [1.0])


def test_solve_validates_hand_built_programs_only():
    def hand_built(**change):
        fields = dict(objective=np.array([1.0]), maximize=True,
                      rows=np.array([[1.0]]), relations=[L.LE],
                      rhs=np.array([1.0]), lower=np.array([0.0]),
                      upper=np.array([np.inf]))
        fields.update(change)
        return L.LinearProgram(**fields)

    assert L.solve(hand_built()).value == pytest.approx(1.0)
    with pytest.raises(ValueError):
        L.solve(hand_built(rows=np.array([[np.nan]])))
    with pytest.raises(ValueError):
        L.solve(hand_built(relations=["<"]))
    with pytest.raises(ValueError):
        L.solve(hand_built(rhs=np.array([1.0, 2.0])))


def test_built_program_is_validated_once(monkeypatch):
    calls = []
    validate = L.LinearProgram.validate
    monkeypatch.setattr(L.LinearProgram, "validate",
                        lambda self: calls.append(1) or validate(self))
    lp = L.LinearProgram.build([1.0], True, [[1.0]], [L.LE], [1.0], lower=[0.0])
    assert L.solve(lp).value == pytest.approx(1.0)
    assert len(calls) == 1


def test_dump_one_constraint_per_line():
    lp = L.LinearProgram.build(
        objective=[1.0, 2.0], maximize=True,
        rows=[[1.0, 1.0], [2.0, 1.0]], relations=[L.LE, L.LE],
        rhs=[4.0, 6.0], lower=[0.0, 0.0], upper=[np.inf, 5.0],
    )
    text = lp.dump()
    lines = text.strip().splitlines()
    assert lines[0].startswith("max")
    assert lines[1] == "+1 x0 +1 x1 <= 4"
    assert lines[2] == "+2 x0 +1 x1 <= 6"
    assert any("x1 <= 5" in line for line in lines)


def test_agreement_with_external_solver_on_random_instances():
    scipy_lp = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(5150)
    for _ in range(25):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(0, 6, size=m).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
        lp = L.LinearProgram.build(c, False, a, [L.LE] * m, b,
                                   lower=np.zeros(n), upper=np.full(n, 10.0))
        mine = L.solve(lp)
        ref = scipy_lp(c, A_ub=a, b_ub=b, bounds=[(0, 10)] * n, method="highs")
        assert mine.status == "optimal" and ref.status == 0
        assert mine.value == pytest.approx(ref.fun, abs=1e-6)
        ok, _ = L.check_certificate(lp, mine.solution, tol=1e-7)
        assert ok


def per_row_worst(lp, x):
    """Worst residual as one ``math.fsum`` per row gives it: the reference
    for the vectorized re-check."""
    x = np.asarray(x, dtype=float)
    out = []
    for row, rel, b in zip(lp.rows, lp.relations, lp.rhs):
        lhs = math.fsum(float(c) * float(v) for c, v in zip(row, x) if c)
        if rel == L.LE:
            out.append(lhs - b)
        elif rel == L.GE:
            out.append(b - lhs)
        else:
            out.append(abs(lhs - b))
    for j, (lo, hi) in enumerate(zip(lp.lower, lp.upper)):
        if lo != -np.inf:
            out.append(lo - x[j])
        if hi != np.inf:
            out.append(x[j] - hi)
    return max(max(out, default=0.0), 0.0)


def tied_lp(rng, m, n):
    """Random rows over many magnitudes, then copies of the worst row (as
    itself, negated with the relation flipped, and with one coefficient a
    unit in the last place away) scattered among them."""
    scale = 10.0 ** rng.integers(-6, 7, size=(m, n))
    a = rng.normal(size=(m, n)) * scale * (rng.random((m, n)) < 0.7)
    x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    rel = [[L.LE, L.GE, L.EQ][int(i)] for i in rng.integers(0, 3, m)]
    b = a @ x + rng.normal(size=m) * 10.0 ** rng.integers(-16, 1, size=m)
    lo = np.where(rng.random(n) < 0.5, -np.inf, x - rng.random(n))
    hi = np.where(rng.random(n) < 0.5, np.inf, x + rng.random(n))
    lp = L.LinearProgram.build(np.zeros(n), False, a, rel, b, lo, hi)
    worst = int(np.argmax([per_row_worst(
        L.LinearProgram.build(np.zeros(n), False, a[i : i + 1], rel[i : i + 1],
                              b[i : i + 1]), x) for i in range(m)]))
    row, r, rhs = a[worst], rel[worst], b[worst]
    nudged = row.copy()
    k = int(np.flatnonzero(row)[0]) if row.any() else 0
    nudged[k] = np.nextafter(nudged[k], np.inf)
    flipped = {L.LE: L.GE, L.GE: L.LE, L.EQ: L.EQ}[r]
    extra = [(row, r, rhs), (-row, flipped, -rhs), (nudged, r, rhs), (row, r, rhs)]
    rows, rels, rhss = list(a), list(rel), list(b)
    for e_row, e_rel, e_rhs in extra:
        at = int(rng.integers(0, len(rows) + 1))
        rows.insert(at, e_row)
        rels.insert(at, e_rel)
        rhss.insert(at, e_rhs)
    return L.LinearProgram.build(np.zeros(n), False, rows, rels, rhss, lo, hi), x


@pytest.fixture(params=["filtered", "every-row"])
def residual_path(request, monkeypatch):
    """Run a test with the row filter on every program, and with none."""
    if request.param == "filtered":
        monkeypatch.setattr(L, "_EXACT_CELLS", 0)
    return request.param


def test_vectorized_worst_residual_is_bit_identical_to_per_row_fsum(residual_path):
    rng = np.random.default_rng(2718)
    for _ in range(60):
        lp, x = tied_lp(rng, int(rng.integers(1, 40)), int(rng.integers(1, 12)))
        want = per_row_worst(lp, x)
        ok, got = L.check_certificate(lp, x, tol=1e-7)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert ok == (want <= 1e-7)
        # a point that satisfies everything: the worst is a tie at zero
        feasible = L.LinearProgram.build(lp.objective, False, lp.rows,
                                         [L.LE] * lp.num_rows, lp.rows @ x + 1.0)
        got = L.check_certificate(feasible, x)[1]
        assert np.float64(got).tobytes() == np.float64(
            per_row_worst(feasible, x)).tobytes()


def test_cancellation_does_not_hide_the_worst_row(residual_path):
    # the product loses the 1 of the first row (it reads 0 or 2), the
    # compensated sum keeps it: the first row is the worst, not the second
    lp = L.LinearProgram.build(np.zeros(3), False,
                               [[1e16, 1.0, -1e16], [0.5, 0.0, 0.0]],
                               [L.LE, L.LE], [0.0, 0.0])
    got = L.check_certificate(lp, [1.0, 1.0, 1.0], tol=0.0)[1]
    assert got == per_row_worst(lp, [1.0, 1.0, 1.0]) == 1.0


def test_zero_products_do_not_change_a_zero_sum(residual_path):
    # masked, the first row sums [-0.0]; with its zero coefficient, [-0.0, 0.0]
    lp = L.LinearProgram.build(np.zeros(2), False, [[1.0, 0.0], [-1.0, 0.0]],
                               [L.LE, L.LE], [0.0, 1.0])
    x = [-0.0, 1.0]
    got = L.check_certificate(lp, x, tol=0.0)[1]
    assert np.float64(got).tobytes() == np.float64(per_row_worst(lp, x)).tobytes()


def test_vectorized_worst_residual_on_a_minimax_program(residual_path):
    from bfclab import approxdeg as A
    from bfclab import functions as F

    f = F.or_n(7)
    res = A.adeg_feasible(f, 2)
    subsets = A.monomial_subsets(7, 2)
    mono = A._monomial_matrix(7, subsets)
    dom = np.arange(128)
    lp = A._minimax_lp(mono, f.value_array().astype(float), dom, dom[:0],
                       len(subsets))
    coeffs = np.array([res.witness.terms.get(s, 0.0) for s in subsets])
    x = np.concatenate([[1 - res.error], np.maximum(coeffs, 0),
                        np.maximum(-coeffs, 0)])
    got = L.check_certificate(lp, x, tol=0.0)[1]
    assert np.float64(got).tobytes() == np.float64(per_row_worst(lp, x)).tobytes()


def test_non_finite_points_re_sum_every_row(residual_path):
    lp = L.LinearProgram.build([0.0, 0.0], False, [[1.0, 2.0], [0.0, 1.0]],
                               [L.LE, L.GE], [1.0, 0.0])
    for x in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
        got = L.check_certificate(lp, x)[1]
        want = per_row_worst(lp, x)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
