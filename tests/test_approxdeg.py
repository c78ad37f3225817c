import functools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from bfclab import approxdeg as A
from bfclab import functions as F
from bfclab import linprog as L
from bfclab import measures as M
from bfclab import verify as V
from bfclab.approxdeg import MultilinearPoly
from bfclab.cli import main
from bfclab.functions import PartialFn

from conftest import random_partial_fn, random_total_fn, zoo_members

ANALYTIC_AND2 = MultilinearPoly(2, {0b01: 1 / 3, 0b10: 1 / 3})


def test_and2_degree1_feasible_with_quarter_error():
    res = A.adeg_feasible(F.and_n(2), 1, 1 / 3)
    assert res.feasible and res.certificate_ok
    assert res.error <= 1 / 3 + 1e-7
    assert res.witness.max_error_on(F.and_n(2)) <= 1 / 3 + 1e-7


def test_and2_analytic_witness_sits_on_the_boundary():
    err = ANALYTIC_AND2.max_error_on(F.and_n(2))
    assert err == pytest.approx(1 / 3, abs=1e-12)
    f = F.and_n(2)
    subsets = A.monomial_subsets(2, 1)
    mono = A._monomial_matrix(range(4), subsets)
    dom = np.nonzero(f.defined_array())[0]
    lp = A._minimax_lp(A._minimax_rows(mono, dom, dom[:0]),
                       f.value_array().astype(float), dom)
    # solution layout: slack, then coeff+ / coeff- per monomial
    x = np.zeros(lp.num_vars)
    x[0] = 1 - 1 / 3
    for i, s in enumerate(subsets):
        x[1 + i] = ANALYTIC_AND2.terms.get(s, 0.0)
    ok, worst = L.check_certificate(lp, x, tol=1e-7)
    assert ok, worst


def test_and2_degree0_infeasible():
    res = A.adeg_feasible(F.and_n(2), 0, 1 / 3)
    assert not res.feasible
    assert res.error == pytest.approx(0.5, abs=1e-9)


def test_adeg_examples():
    assert A.adeg(F.and_n(2)) == 1
    for n in range(1, 6):
        assert A.adeg(F.xor_n(n)) == n


def test_xor_infeasible_below_full_degree():
    for n in (2, 3, 4):
        res = A.adeg_feasible(F.xor_n(n), n - 1)
        assert not res.feasible
        assert res.error >= 0.5 - 1e-9  # parity resists any lower degree


def test_feasibility_monotone_in_degree():
    rng = np.random.default_rng(66)
    for _ in range(10):
        f = random_total_fn(rng, 3)
        feasible_from = None
        for d in range(4):
            ok = A.adeg_feasible(f, d).feasible
            if feasible_from is None and ok:
                feasible_from = d
            if feasible_from is not None:
                assert ok


def test_adeg_invariant_under_negation_and_shift():
    rng = np.random.default_rng(14)
    for _ in range(8):
        f = random_total_fn(rng, 3)
        a = int(rng.integers(0, 8))
        assert A.adeg(f) == A.adeg(f.negate()) == A.adeg(f.xor_shift(a))


def test_bdeg_pror1_is_identity_degree():
    assert A.bdeg(F.pror(1)) == 1


def test_bdeg_never_exceeds_full_domain_bdeg():
    # adding domain points only adds error rows, so the optimum cannot drop
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        size = 1 << n
        defined = int(rng.integers(1, 1 << size))
        ext_values = int(rng.integers(0, 1 << size))
        pf = PartialFn(n, defined, ext_values & defined)
        full = PartialFn.total(n, ext_values)
        assert A.bdeg(pf) <= A.bdeg(full)


def test_bounded_degree_can_exceed_unbounded_degree_of_extension():
    # pinned instance: the best degree-1 approximation of the extension
    # leaves [0, 1], and no bounded degree-1 polynomial serves the
    # subdomain, so the bounded partial degree is strictly larger
    pf = PartialFn(3, 0b1111110, 0b0011111 & 0b1111110)
    ext = PartialFn.total(3, 0b0011111)
    assert A.adeg(ext) == 1
    assert A.bdeg(pf) == 2


def test_bdeg_restriction_monotone():
    rng = np.random.default_rng(21)
    for _ in range(20):
        pf = random_partial_fn(rng, 3)
        i = int(rng.integers(0, 3))
        b = int(rng.integers(0, 2))
        sub = pf.restrict({i: b})
        if sub.dom_size == 0:
            continue
        assert A.bdeg(sub) <= A.bdeg(pf)


def test_bdeg_witness_respects_bounds_everywhere():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pf = random_partial_fn(rng, 3)
        d = A.bdeg(pf)
        res = A.bdeg_feasible(pf, d)
        assert res.feasible and res.certificate_ok
        table = res.witness.table()
        assert table.min() >= -1e-7 and table.max() <= 1 + 1e-7


def test_bdeg_pror_sweep_recorded():
    values = {n: A.bdeg(F.pror(n)) for n in range(2, 8)}
    assert values[2] == 1
    assert all(values[n] <= values[n + 1] for n in range(2, 7))
    ratios = [values[n] / math.sqrt(n) for n in sorted(values)]
    assert all(0.2 <= r <= 3.0 for r in ratios)


def test_eval_poly_examples():
    p = MultilinearPoly(2, {0b11: 1.0})
    assert p.eval((1, 1)) == 1
    assert p.eval((0.5, 0.5)) == 0.25
    assert ANALYTIC_AND2.eval((1, 0)) == pytest.approx(1 / 3)


def test_poly_table_matches_pointwise_eval():
    rng = np.random.default_rng(2)
    terms = {int(s): float(rng.normal()) for s in rng.integers(0, 16, size=6)}
    p = MultilinearPoly(4, terms)
    table = p.table()
    for x in range(16):
        z = [(x >> i) & 1 for i in range(4)]
        assert table[x] == pytest.approx(p.eval(z), abs=1e-12)


def test_witness_serialization_roundtrip():
    res = A.adeg_feasible(F.and_n(2), 1)
    text = res.witness.serialize()
    back = MultilinearPoly.deserialize(text, 2)
    assert back.degree == res.witness.degree
    for s, c in res.witness.terms.items():
        assert back.terms[s] == pytest.approx(c, abs=1e-9)


def test_eps_validation():
    with pytest.raises(ValueError):
        A.adeg_feasible(F.and_n(2), 1, 0.5)
    with pytest.raises(ValueError):
        A.adeg_feasible(F.and_n(2), 1, 1e-5)
    with pytest.raises(ValueError):
        A.adeg_feasible(F.pror(2), 1)  # partial needs the bounded route


def test_amplifier_fixed_points_and_shape():
    # exact on Fractions: fixes 0, 1/2 and 1, and A_m(1 - x) = 1 - A_m(x)
    for m in (1, 3, 9, 15):
        assert A.amplified_value(m, Fraction(0)) == 0
        assert A.amplified_value(m, Fraction(1, 2)) == Fraction(1, 2)
        assert A.amplified_value(m, Fraction(1)) == 1
        for x in (Fraction(1, 4), Fraction(1, 3), Fraction(5, 7)):
            assert A.amplified_value(m, 1 - x) == 1 - A.amplified_value(m, x)
        grid = np.linspace(0, 1, 101)
        tails = A.amplified_value(m, grid)
        assert tails.min() >= 0 and tails.max() <= 1
    assert A.amplified_value(1, Fraction(1, 3)) == Fraction(1, 3)


def test_amplifier_error_decay():
    assert A.amplified_value(9, 1 / 3) < 0.15
    assert A.amplified_value(9, 2 / 3) > 0.85
    for m in range(1, 43, 2):
        assert A.amplified_value(m, 1 / 3) <= math.exp(-m / 36.0) + 1e-12


def test_amplifier_sums_past_the_float_range_of_its_binomials():
    # the first odd m with a C(m, j) beyond the float range, where the
    # float sum must go to log space
    m = next(m for m in range(1, 4001, 2)
             if math.comb(m, m // 2) > sys.float_info.max)
    with pytest.raises(OverflowError):
        float(math.comb(m, m // 2))
    for x in (0.3, 0.5, 0.52, 0.9, 0.999):
        exact = float(A.amplified_value(m, Fraction(x)))
        assert A.amplified_value(m, x) == pytest.approx(exact, abs=1e-12)
    assert (A.amplified_value(m, 0.0), A.amplified_value(m, 1.0)) == (0, 1)


def test_amplifier_rejects_even_degree():
    # and any degree below 1, which the binomial tail would not reject
    for m in (4, 2, 0, -3):
        with pytest.raises(ValueError, match="odd and positive"):
            A.amplified_value(m, 0.5)


def exact_sink_coefficients(k, eps):
    """The sink construction's coefficients in exact rationals, by another
    route: the table of the sum over vertices of A_m(base witness at the
    vertex's edge literals) on the whole cube, and one exact Mobius
    transform over all edges."""
    base_fn = F.and_n(k - 1)
    base = A.bdeg_feasible(base_fn, A.bdeg(base_fn))
    terms = {s: Fraction(c) for s, c in base.witness.terms.items()}
    base_err = max(base.error, 1e-12)
    m = next(m for m in range(1, 403, 2)
             if A.amplified_value(m, base_err) <= eps / k * (1 - 1e-6))
    amplify = functools.cache(lambda y: A.amplified_value(m, y))
    pairs = F.sink_edge_vars(k)
    table = []
    for x in range(1 << len(pairs)):
        total = Fraction(0)
        for v in range(k):
            # bit i: the i-th edge at v points into v
            incident = [(x >> e & 1) == (j == v)
                        for e, (i, j) in enumerate(pairs) if v in (i, j)]
            point = sum(1 << i for i, into in enumerate(incident) if into)
            total += amplify(sum(c for s, c in terms.items() if s & point == s))
        table.append(total)
    step = 1
    while step < len(table):
        for x in range(len(table)):
            if x & step:
                table[x] -= table[x ^ step]
        step *= 2
    return table


@pytest.mark.parametrize("k, eps", [(3, 1 / 3), (4, 1 / 3), (4, 0.1),
                                    (5, 0.05)])
def test_sink_polynomial_matches_the_exact_construction(k, eps):
    poly = A.build_sink_polynomial(k, eps)
    exact = exact_sink_coefficients(k, eps)
    assert set(poly.terms) == {s for s, c in enumerate(exact) if c != 0}
    worst = max(abs(poly.terms.get(s, 0.0) - float(c))
                for s, c in enumerate(exact))
    assert worst <= 1e-12
    table = poly.table()
    for perm, neg in F.sink(k).generators:
        image = F._signed_permutation_image(poly.arity, perm, neg)
        assert np.abs(table[image] - table).max() <= 1e-12


@pytest.mark.parametrize("k", [3, 4])
def test_sink_polynomial_pointwise(k):
    poly = A.build_sink_polynomial(k, 1 / 3)
    err = poly.max_error_on(F.sink(k))
    assert err <= 1 / 3 + 1e-9
    assert poly.degree <= k - 1


def test_sink_polynomial_degree_dominates_lp_minimum():
    poly = A.build_sink_polynomial(4, 1 / 3)
    assert poly.degree >= A.adeg(F.sink(4))


def test_sink_polynomial_rejects_large_k():
    with pytest.raises(ValueError):
        A.build_sink_polynomial(6)


def test_adeg_is_invariant_under_complement_and_reversal():
    # verify_symmetric scans one profile per class and reuses its degree:
    # 1 - f and f(not x) (the reversed profile) keep adeg exactly
    degrees = {}
    for n in range(1, 7):
        for code in range(1, (1 << (n + 1)) - 1):
            profile = tuple((code >> w) & 1 for w in range(n + 1))
            spec = F.SymmetricSpectrum(n, profile)
            degrees[profile] = A.adeg(F.from_spectrum(spec))
    assert len(degrees) == 240
    for profile, d in degrees.items():
        flipped = tuple(1 - v for v in profile)
        for image in (flipped, profile[::-1], flipped[::-1]):
            assert degrees[image] == d, (profile, image)


def highs_minimax_error(f, degree, bounded):
    """Optimal minimax error from HiGHS, on a program built independently."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    subsets = A.monomial_subsets(f.arity, degree)
    mono = A._monomial_matrix(range(1 << f.arity), subsets)
    dom = f.defined_array().astype(bool)
    vals = f.value_array().astype(float)
    nm = len(subsets)
    rows = [
        np.hstack([-np.ones((dom.sum(), 1)), mono[dom]]),
        np.hstack([-np.ones((dom.sum(), 1)), -mono[dom]]),
    ]
    rhs = [vals[dom], -vals[dom]]
    if bounded:
        zero = np.zeros((mono.shape[0], 1))
        rows += [np.hstack([zero, mono]), np.hstack([zero, -mono])]
        rhs += [np.ones(mono.shape[0]), np.zeros(mono.shape[0])]
    c = np.zeros(1 + nm)
    c[0] = 1.0
    res = scipy_opt.linprog(
        c, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
        bounds=[(0, None)] + [(None, None)] * nm, method="highs",
    )
    return res.fun


def test_minimax_optima_match_external_solver():
    rng = np.random.default_rng(88)
    for _ in range(8):
        f = random_total_fn(rng, 3)
        d = int(rng.integers(0, 3))
        mine = A.adeg_feasible(f, d).error
        assert mine == pytest.approx(highs_minimax_error(f, d, False), abs=1e-7)
        pf = random_partial_fn(rng, 3)
        mine = A.bdeg_feasible(pf, d).error
        assert mine == pytest.approx(highs_minimax_error(pf, d, True), abs=1e-7)


def path_promise_or(seed: int, n: int = 9) -> PartialFn:
    """0 at the origin, 1 on the unit vectors, seeded bits on the adjacent
    pairs of a seeded path through the variables: a domain that few
    transpositions fix (the tests assert the classes they rely on)."""
    rng = np.random.default_rng(seed)
    order = [int(i) for i in rng.permutation(n)]
    entries = {0: 0, **{1 << i: 1 for i in range(n)}}
    for a, b in zip(order, order[1:]):
        entries[(1 << a) | (1 << b)] = int(rng.integers(0, 2))
    return PartialFn.from_entries(n, entries)


def undeclared(f):
    """The same table with no declared generators."""
    return PartialFn(f.arity, f.defined, f.values)


@pytest.fixture
def solve_calls(monkeypatch):
    """Row counts of the LPs handed to ``linprog.solve``."""
    calls = []
    solve = L.solve

    def counting_solve(lp, *args, **kwargs):
        calls.append(lp.num_rows)
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(L, "solve", counting_solve)
    return calls


@pytest.mark.parametrize("d", [1, 2])
def test_bounded_exchange_loop_matches_external_solver(d, solve_calls):
    # 512 points, no interchangeable variables: the orbit program is the
    # whole cube, above the direct limit, so the exchange loop runs
    f = path_promise_or(0)
    assert F.interchangeable_classes(f) == [[i] for i in range(9)]
    assert 1 << f.arity > A._DIRECT_POINT_LIMIT
    res = A.bdeg_feasible(f, d)
    assert len(solve_calls) > 1
    assert res.certificate_ok
    assert res.error == pytest.approx(highs_minimax_error(f, d, True), abs=1e-7)


def test_a_continued_exchange_loop_reaches_the_cold_optimum(solve_calls,
                                                            monkeypatch):
    # degree 2 of path_promise_or(0) from degree 1's final tableau and
    # active points: the first round continues that tableau, rounds that
    # add points solve cold, and the optimum is the cold one, a global
    # optimum of the whole 512-point program
    f = path_promise_or(0)
    program = A._OrbitProgram(f, F.interchangeable_classes(f))
    low, high = program.at(1)[0], program.at(2)[0]
    vals, dom = program.vals, program.dom
    cold, _ = A._minimax(high, vals, dom, True)
    _, start = A._minimax(low, vals, dom, True)
    extended, extend = [], L.extend
    monkeypatch.setattr(L, "extend",
                        lambda *args: extended.append(1) or extend(*args))
    solve_calls.clear()
    warm, after = A._minimax(high, vals, dom, True, start=start)
    assert len(extended) == 1 and len(solve_calls) >= 1   # rounds added points
    assert warm.value == pytest.approx(cold.value, abs=1e-9)
    everywhere = np.arange(len(vals))
    whole = A._minimax_lp(A._minimax_rows(high, dom, everywhere), vals, dom)
    assert L.check_certificate(whole, warm.solution)[0]
    assert len(after.order) == 1 + 2 * high.shape[1]


def test_bounded_pror10_is_one_lp_on_weight_orbits(solve_calls):
    # 1024 points, one class of 10 interchangeable variables: 11 orbits,
    # two of them (weights 0 and 1) in the domain
    f = F.pror(10)
    res = A.bdeg_feasible(f, 2)
    assert solve_calls == [2 * 2 + 2 * 11 + 1]
    assert res.certificate_ok
    assert res.error == pytest.approx(highs_minimax_error(f, 2, True), abs=1e-7)


def test_one_lp_per_decision_on_small_cubes(solve_calls, monkeypatch):
    # the whole program is solved at once: no point can violate it, so no
    # violator is looked for
    monkeypatch.setattr(A, "_new_violators",
                        lambda *args: pytest.fail("looked for violators"))
    cases = [
        (A.adeg_feasible, F.and_n(2), 1),
        (A.adeg_feasible, F.xor_n(3), 2),
        (A.adeg_feasible, F.or_n(8), 1),   # 256 points: the direct limit
        (A.adeg_feasible, undeclared(F.sink(4)), 2),   # no symmetry at all
        (A.bdeg_feasible, F.pror(4), 2),
        (A.bdeg_feasible, F.pror(8), 1),
    ]
    for decide, f, d in cases:
        assert 1 << f.arity <= A._DIRECT_POINT_LIMIT
        solve_calls.clear()
        decide(f, d)
        assert len(solve_calls) == 1, (f.arity, d, solve_calls)


def test_a_violating_exchange_round_optimum_is_an_internal_error(solve_calls,
                                                                monkeypatch):
    # a solve that calls a violating point "optimal" in the second round:
    # the loop re-checks the round's sub-solution on its own sub-program and
    # stops there, before it chases that solution's violators
    solve = L.solve

    def breaking_solve(lp):
        outcome = solve(lp)
        if len(solve_calls) == 2:
            outcome.solution[0] += 1e-3   # the slack: past every tight row
        return outcome

    monkeypatch.setattr(L, "solve", breaking_solve)
    f = path_promise_or(0)
    with pytest.raises(L.SimplexError, match="exchange-round optimum"):
        A.bdeg_feasible(f, 1)
    assert len(solve_calls) == 2


# -- orbit reduction ----------------------------------------------------------

def test_interchangeable_classes_detection():
    classes = F.interchangeable_classes
    for n in (1, 4, 7):
        assert classes(F.or_n(n)) == [list(range(n))]
    or_and = F.compose(F.or_n(3), [F.and_n(3)] * 3)
    assert classes(or_and) == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    # the shift 0b101 negates variables 0 and 2
    assert classes(F.pror_shifted(9, 5)) == [[0, 2], [1, 3, 4, 5, 6, 7, 8]]
    assert classes(F.sink(4)) == [[i] for i in range(6)]
    assert classes(F.mux(2)) == [[0], [1], [2], [3], [4], [5]]


def test_interchangeable_classes_respect_the_domain():
    # values all 0, so (0 1) fixes them; it moves the domain {0, e_0}
    # (inputs 0b00 and 0b01) onto {0, e_1}
    f = PartialFn.from_entries(2, {0b00: 0, 0b01: 0})
    assert f.values == 0
    assert F.interchangeable_classes(f) == [[0], [1]]
    g = PartialFn.from_entries(2, {0b00: 0, 0b01: 0, 0b10: 0})
    assert F.interchangeable_classes(g) == [[0, 1]]


def unreduced_errors(f, bounded):
    """Optimal error per degree of the program on the whole cube."""
    vals = f.value_array().astype(float)
    dom = np.flatnonzero(f.defined_array())
    out = []
    for d in range(f.arity + 1):
        mono = A._monomial_matrix(range(1 << f.arity),
                                  A.monomial_subsets(f.arity, d))
        sol = A._minimax(mono, vals, dom, bounded)[0].solution
        table = mono @ (sol[1 : 1 + mono.shape[1]] - sol[1 + mono.shape[1] :])
        out.append(float(np.abs(table[dom] - vals[dom]).max()))
    return out


def equality_inputs():
    inputs = []
    for n in range(1, 6):
        inputs += [F.or_n(n), F.and_n(n), F.xor_n(n), F.maj_n(n), F.pror(n)]
        inputs += [F.pror_shifted(n, a) for a in (1, (1 << n) - 1)]
    inputs += [F.mux(1), F.sink(2), F.sink(3), F.rub(2)]
    pieces = [F.or_n(2), F.and_n(2), F.xor_n(2), F.pror(2)]
    for outer in pieces:
        for inner in pieces:
            inputs.append(F.compose(outer, [inner, inner]))
    rng = np.random.default_rng(404)
    for n in (5, 6):
        for _ in range(4):
            code = int(rng.integers(1, (1 << (n + 1)) - 1))
            profile = tuple((code >> w) & 1 for w in range(n + 1))
            inputs.append(F.from_spectrum(F.SymmetricSpectrum(n, profile)))
    small = [F.and_n(2), F.or_n(2), F.xor_n(2), F.and_n(3), F.maj_n(3)]
    for _ in range(6):
        inner = [small[int(i)] for i in rng.integers(0, 5, rng.integers(2, 4))]
        if sum(g.arity for g in inner) <= 6:
            inputs.append(F.compose(F.pror(len(inner)), inner))
    return inputs


def test_orbit_program_matches_unreduced_program():
    for f in equality_inputs():
        bounded = not f.is_total
        decide = A.bdeg_feasible if bounded else A.adeg_feasible
        reduced = [decide(f, d) for d in range(f.arity + 1)]
        assert all(r.certificate_ok for r in reduced)
        errors = [r.error for r in reduced]
        full = unreduced_errors(f, bounded)
        assert errors == pytest.approx(full, abs=1e-9), f
        slack = A.DEFAULT_EPS + A.FEAS_SLACK
        degree = next(d for d, e in enumerate(full) if e <= slack)
        assert (A.bdeg(f) if bounded else A.adeg(f)) == degree


def scan_inputs():
    """Zoo members and two-block compositions of arity at most 6 with a
    domain, and promise ORs on seeded paths."""
    members = zoo_members(6)
    outers = [f for f in members if f.arity == 2]
    inputs = members + [F.compose(f, [g, g]) for f in outers
                        for g in members if g.arity <= 3]
    inputs += [path_promise_or(seed, n=6) for seed in (0, 1)]
    return [f for f in inputs if f.dom_size]


def test_degree_scans_stop_at_the_first_feasible_degree():
    # a scan continues each degree from the last one's tableau; the
    # decisions it is compared with are single ones, each solved cold
    kinds = set()
    for f in scan_inputs() + cache_guard_inputs():
        decide, scan = ((A.adeg_feasible, A.adeg) if f.is_total
                        else (A.bdeg_feasible, A.bdeg))
        degree = scan(f)
        below = [decide(f, d) for d in range(degree)]
        assert not any(r.feasible for r in below), f
        assert decide(f, degree).feasible, f
        # the premise of starting non-constant scans at degree 1
        assert (degree == 0) == f.is_constant(), f
        if degree:
            assert below[0].error == 0.5, f
        kinds.add((f.is_total, degree == 0))
    assert kinds == {(True, True), (True, False), (False, False)}


def test_a_group_builds_its_orbits_once(monkeypatch):
    # one symmetry_orbits call per group while the group cache holds it, and
    # none for a second function of the same group
    calls = []
    orbits = A.symmetry_orbits

    def counting_orbits(f, classes):
        calls.append(f.arity)
        return orbits(f, classes)

    monkeypatch.setattr(A, "symmetry_orbits", counting_orbits)
    for scan, f, degree in [(A.adeg, F.sink(5), 3), (A.adeg, F.xor_n(4), 4),
                            (A.bdeg, F.compose(F.pror(2), [F.and_n(3)] * 2), 2)]:
        calls.clear()
        assert scan(f) == degree and calls == [f.arity]
        assert scan(f) == degree and calls == [f.arity]
    calls.clear()
    A.adeg_feasible(F.xor_n(4), 2)
    assert (A.adeg(F.or_n(4)), A.adeg(F.maj_n(4)), A.bdeg(F.pror(4))) == (2, 1, 2)
    assert calls == []
    A.adeg(F.or_n(5))
    assert calls == [5]


@pytest.fixture
def rechecks(monkeypatch):
    """One ``(minima, monomials)`` per call of ``approxdeg._recheck``: the
    shape of the unreduced monomial matrix whose row sums it is handed.
    Setting ``rechecks.reject`` to a predicate on that shape fails the
    re-checks it holds for."""
    calls, summed = Rechecks(), []
    rows_fsum, recheck = L.rows_fsum, A._recheck

    def recording_fsum(rows, x):
        summed.append(rows.shape)
        return rows_fsum(rows, x)

    def recording_recheck(values, *args):
        shape = summed[-1]
        assert len(values) == shape[0]
        calls.append(shape)
        return recheck(values, *args) and not calls.reject(shape)

    monkeypatch.setattr(L, "rows_fsum", recording_fsum)
    monkeypatch.setattr(A, "_recheck", recording_recheck)
    return calls


class Rechecks(list):
    @staticmethod
    def reject(shape):
        return False


def exact_error(witness, f):
    """The worst error of ``witness`` on the domain of ``f``, summed in
    Fractions and rounded once."""
    terms = [(s, Fraction(c)) for s, c in witness.terms.items()]
    return float(max(abs(sum(c for s, c in terms if x & s == s) - f.eval(x))
                     for x in f.domain()))


def test_lifted_witness_is_invariant_and_rechecked_on_the_cube(rechecks):
    declared = F.compose(F.or_n(2), [F.and_n(3)] * 2)
    f = undeclared(declared)
    res = A.adeg_feasible(f, 2)
    assert res.certificate_ok
    # the one re-check of the orbit program's witness (16 orbits, 6
    # monomial orbits): its values at the 16 minima, unreduced monomials
    assert rechecks == [(16, 22)]
    assert exact_error(res.witness, f) == res.error
    t = res.witness.terms
    assert t[0b000011] == t[0b000101] == t[0b000110]   # pairs inside block 0
    assert t[0b001001] == t[0b100100]                  # one per block
    # the declared block swap joins the 16 class orbits into 10 group
    # orbits; the re-check keeps the unreduced monomials
    rechecks.clear()
    lifted = A.adeg_feasible(declared, 2)
    assert lifted.certificate_ok and rechecks == [(10, 22)]
    assert lifted.error == pytest.approx(res.error, abs=1e-9)
    assert lifted.witness.max_error_on(f) == pytest.approx(lifted.error,
                                                           abs=1e-12)
    t = lifted.witness.terms
    assert t[0b000011] == pytest.approx(t[0b110000], abs=1e-12)
    assert t[0b001001] == pytest.approx(t[0b100100], abs=1e-12)


def test_a_rejected_witness_stops_the_degree_scan(monkeypatch, capsys):
    monkeypatch.setattr(A, "_recheck", lambda *args: False)
    assert not A.adeg_feasible(F.or_n(4), 2).certificate_ok
    with pytest.raises(L.SimplexError, match="re-check"):
        A.adeg(F.or_n(4))
    assert main(["verify-pror", "--inner", "and:2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: SimplexError")
    assert main(["verify-symmetric", "--n-max", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: SimplexError")


def test_a_rejected_infeasible_decision_stops_the_degree_scan(rechecks):
    # or:4 is infeasible at degree 1; only that decision's re-check (five
    # weight orbits, 5 unreduced monomials) is rejected
    assert not A.adeg_feasible(F.or_n(4), 1).feasible
    rechecks.reject = lambda shape: shape == (5, 5)
    assert A.adeg_feasible(F.or_n(4), 2).certificate_ok
    with pytest.raises(L.SimplexError, match="degree-1 optimum failed"):
        A.adeg(F.or_n(4))
    assert rechecks == [(5, 5), (5, 11), (5, 5)]


def test_a_rejected_continued_decision_stops_the_degree_scan(rechecks,
                                                             solve_calls):
    # or:11 is infeasible at degrees 1 and 2: its scan solves degree 1 and
    # continues that tableau at degree 2, whose re-check alone (twelve
    # weight orbits, 67 unreduced monomials) is rejected
    f = F.or_n(11)
    assert not A.adeg_feasible(f, 2).feasible
    rechecks.clear()
    solve_calls.clear()
    rechecks.reject = lambda shape: shape == (12, 67)
    with pytest.raises(L.SimplexError, match="degree-2 optimum failed"):
        A.adeg(f)
    assert rechecks == [(12, 12), (12, 67)] and len(solve_calls) == 1


def test_every_decision_of_and3_of_xor4_is_certified():
    # every decision of the scan, the infeasible degrees 1 to 3 too, must
    # pass its re-check, or the scan raises SimplexError
    assert A.adeg(F.compose(F.and_n(3), [F.xor_n(4)] * 3)) == 4


@pytest.fixture
def certificate_checks(monkeypatch):
    """Row counts of the programs handed to ``linprog.check_certificate``."""
    checks = []
    check = L.check_certificate

    def counting_check(lp, *args, **kwargs):
        checks.append(lp.num_rows)
        return check(lp, *args, **kwargs)

    monkeypatch.setattr(L, "check_certificate", counting_check)
    return checks


def test_each_published_answer_is_rechecked_once(certificate_checks,
                                                 solve_calls, rechecks,
                                                 monkeypatch):
    checks, solves = certificate_checks, solve_calls
    cases = [
        (A.adeg_feasible, F.or_n(4), 2, False),
        (A.adeg_feasible, undeclared(F.sink(4)), 2, False),  # the program solved
        (A.adeg_feasible, F.sink(5), 3, False),         # declared generators
        (A.bdeg_feasible, F.pror(4), 1, False),
        (A.bdeg_feasible, path_promise_or(0), 1, True),  # 512 points
    ]
    for decide, f, d, exchange in cases:
        checks.clear()
        solves.clear()
        rechecks.clear()
        assert decide(f, d).certificate_ok
        assert len(rechecks) == 1, (f.arity, d, rechecks)
        if not exchange:
            assert len(solves) == 1 and checks == [], (f.arity, d, checks)
    # the exchange loop also re-checks each round's sub-solution, on the
    # program solved, before the one re-check of the published witness
    assert len(solves) > 1 and checks == solves
    # a degree scan: one re-check per degree tried, from degree 1 on
    rechecks.clear()
    assert A.adeg(F.or_n(4)) == 2 and len(rechecks) == 2
    # one per fbs LP
    checks.clear()
    solves.clear()
    rechecks.clear()
    for f in (F.or_n(3), F.maj_n(5), F.sink(4)):
        M.fractional_block_sensitivity(f)
    assert len(checks) == len(solves) > 0 and rechecks == []
    # verify-symmetric: one re-check per fit, each on the unreduced
    # monomials of the degree fitted, and one solve per degree scan, whose
    # later degrees continue its tableau
    fits, scans = [], []
    fit, scan = A._monomial_fit, A._scan

    def recording_fit(program, degree, *args):
        fits.append(len(A.monomial_subsets(program.arity, degree)))
        return fit(program, degree, *args)

    def recording_scan(f, *args):
        scans.append(f)
        return scan(f, *args)

    monkeypatch.setattr(A, "_monomial_fit", recording_fit)
    monkeypatch.setattr(A, "_scan", recording_scan)
    checks.clear()
    solves.clear()
    rechecks.clear()
    assert not V.verify_symmetric(n_max=3).failed
    assert len(rechecks) == len(fits) > len(scans) == len(solves) > 0
    assert checks == []
    assert [monomials for _, monomials in rechecks] == fits
    # none from linprog.solve alone
    rechecks.clear()
    L.solve(L.LinearProgram.build([1.0], [[1.0]], [3.0]))
    assert checks == [] and rechecks == []


def unreduced_recheck(values, vals, dom, bounded, slack, mono, coeffs):
    """``linprog.check_certificate`` on the unreduced minimax program at the
    orbit minima, with the solution ``slack``, then coeff+ / coeff-, and the
    worst residual of the same rows read off ``values``."""
    bounds = np.arange(len(mono)) if bounded else dom[:0]
    lp = A._minimax_lp(A._minimax_rows(mono, dom, bounds), vals, dom)
    x = np.concatenate([[slack], np.maximum(coeffs, 0.0),
                        np.maximum(-coeffs, 0.0)])
    ok, worst = L.check_certificate(lp, x)
    excess = [np.abs(values[dom] - vals[dom]) - (1.0 - slack), [-slack, slack - 1.0]]
    if bounded:
        excess += [values - 1.0, -values]
    pointwise = max(0.0, *(max(e, default=0.0) for e in excess))
    return ok, worst, pointwise


def test_pointwise_recheck_agrees_with_the_unreduced_program(monkeypatch):
    # every decision of each input: the verdict of check_certificate on the
    # re-check program that the values replace, and its worst residual
    seen, summed = [], []
    rows_fsum, recheck = L.rows_fsum, A._recheck

    def recording_fsum(rows, x):
        summed.append((rows, x.copy()))
        return rows_fsum(rows, x)

    def recording_recheck(*args):
        verdict = recheck(*args)
        seen.append((verdict, args + summed[-1]))
        return verdict

    monkeypatch.setattr(L, "rows_fsum", recording_fsum)
    monkeypatch.setattr(A, "_recheck", recording_recheck)
    # path_promise_or(0) runs the exchange loop; from degree 3 on each of
    # its decisions takes half a minute, so its degrees stop at 2
    cases = [(A.adeg_feasible, F.or_n(4), 4), (A.adeg_feasible, F.sink(5), 10),
             (A.bdeg_feasible, F.pror(4), 4),
             (A.adeg_feasible, F.compose(F.or_n(2), [F.sink(3)] * 2), 6),
             (A.bdeg_feasible, path_promise_or(0), 2)]
    for decide, f, top in cases:
        for d in range(top + 1):
            decide(f, d)
    assert len(seen) == sum(top + 1 for _, _, top in cases)
    for verdict, args in seen:
        ok, worst, pointwise = unreduced_recheck(*args)
        assert verdict is ok is True
        assert abs(pointwise - worst) <= 1e-15, (worst, pointwise)
    # nudged past each row by 1e-6, ten times the tolerance
    feasible = [args for _, args in seen if args[3]]   # bounded: pror:4
    values, vals, dom, bounded, slack = feasible[1][:5]
    assert A._recheck(values, vals, dom, bounded, slack)
    i = dom[np.argmax(np.abs(values[dom] - vals[dom]))]
    for nudge, verdict in ((1e-8, True), (1e-6, False)):
        bad = values.copy()
        bad[i] += np.sign(values[i] - vals[i]) * (1.0 - slack + nudge
                                                  - abs(values[i] - vals[i]))
        assert A._recheck(bad, vals, dom, bounded, slack) is verdict
    off = np.setdiff1d(np.arange(len(values)), dom)[0]   # a bound row alone
    for value, verdict in ((1.0, True), (1.0 + 1e-6, False), (-1e-6, False)):
        bad = values.copy()
        bad[off] = value
        assert A._recheck(bad, vals, dom, bounded, slack) is verdict
    for wrong in (-1e-6, 1.0 + 1e-6):
        assert A._recheck(values, vals, dom, bounded, wrong) is False
    assert A._recheck(values, vals, dom, bounded, float("nan")) is False


def test_only_the_orbit_program_is_built(monkeypatch):
    # every LP of a scan is 1 + 2 * (orbit columns) wide, the exchange
    # loop's too: no program on the unreduced monomials.  A scan builds its
    # first degree's program; each later degree continues that tableau
    columns, widths, continued = [], [], []
    minimax, build, extend = A._minimax, L.LinearProgram.build, L.extend

    def recording_minimax(basis, *args):
        columns.append(basis.shape[1])
        return minimax(basis, *args)

    def recording_build(objective, rows, rhs):
        widths.append((len(objective), 1 + 2 * columns[-1]))
        return build(objective, rows, rhs)

    def recording_extend(outcome, cols, cost):
        out = extend(outcome, cols, cost)
        continued.append((len(out.tableau.objective), 1 + 2 * columns[-1]))
        return out

    monkeypatch.setattr(A, "_minimax", recording_minimax)
    monkeypatch.setattr(L.LinearProgram, "build", recording_build)
    monkeypatch.setattr(L, "extend", recording_extend)
    declared = F.compose(F.or_n(3), [F.and_n(3)] * 3)
    assert A.adeg(declared) == 3
    assert len(columns) == 3 and len(widths) == 1 and len(continued) == 2
    assert all(width == want for width, want in widths + continued)
    assert columns[-1] < len(A.monomial_subsets(9, 3))
    widths.clear()
    assert not A.bdeg_feasible(path_promise_or(0), 2).feasible
    assert len(widths) > 1   # exchange rounds
    assert all(width == want for width, want in widths)
def test_a_function_not_constant_on_its_orbits_is_rejected(monkeypatch):
    # one class of all six edges of sink:4: its orbits are the weights, on
    # which sink:4 is not constant; re-checking the minima alone would
    # certify a witness that fails elsewhere on the cube
    monkeypatch.setattr(
        A, "interchangeable_classes", lambda f: [list(range(f.arity))]
    )
    with pytest.raises(A.PolynomialVerificationError, match="not constant"):
        A.adeg_feasible(F.sink(4), 2)


def test_trivial_group_hands_solve_the_unreduced_program(monkeypatch):
    seen = []
    solve = L.solve

    def capturing_solve(lp, *args, **kwargs):
        seen.append(lp)
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(L, "solve", capturing_solve)
    rng = np.random.default_rng(12)
    partial = random_partial_fn(rng, 3)
    while len(F.interchangeable_classes(partial)) < 3:
        partial = random_partial_fn(rng, 3)
    for f, d, bounded in [(undeclared(F.sink(4)), 2, False), (partial, 1, True),
                          (path_promise_or(3, n=7), 2, True)]:
        assert len(F.interchangeable_classes(f)) == f.arity
        seen.clear()
        (A.bdeg_feasible if bounded else A.adeg_feasible)(f, d)
        subsets = A.monomial_subsets(f.arity, d)
        mono = A._monomial_matrix(range(1 << f.arity), subsets)
        dom = np.flatnonzero(f.defined_array())
        bounds = np.arange(len(mono)) if bounded else dom[:0]
        want = A._minimax_lp(A._minimax_rows(mono, dom, bounds),
                             f.value_array().astype(float), dom)
        (got,) = seen
        for field in ("objective", "rows", "rhs"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def test_orbit_program_extends_its_basis_bit_for_bit():
    # at(d) after at(d - 1), for every degree up to 4, gives the program
    # that a fresh one builds at d from a cleared group cache, under declared
    # generators (sink:4, sink:5 and the compositions) too; so does a degree
    # below the last one
    pieces = [F.and_n(3), F.or_n(2), F.xor_n(2)]
    inputs = zoo_members(7) + [F.sink(5)]
    inputs += [F.compose(F.or_n(2), [F.and_n(3)] * 2),
               F.compose(F.pror(3), pieces), F.compose(F.xor_n(2), pieces[1:])]
    assert any(len(F.interchangeable_classes(f)) < f.arity
               for f in inputs[-3:])
    for f in inputs:
        classes = F.interchangeable_classes(f)
        climbing = A._OrbitProgram(f, classes)
        for d in list(range(min(f.arity, 4) + 1)) + [1]:
            got = climbing.at(d)
            A._GROUPS.clear()   # a cold build, not the cached arrays again
            want = A._OrbitProgram(f, classes).at(d)
            assert all(g is not w for g, w in zip(got, want))
            for g, w in zip(got, want):
                assert (g is None) == (w is None), (f, d)
                if g is not None:
                    assert (g.dtype, g.shape) == (w.dtype, w.shape), (f, d)
                    assert g.tobytes() == w.tobytes(), (f, d)


# -- the group cache ---------------------------------------------------------

def profile_classes(n):
    """One non-constant total weight profile of arity ``n`` per class under
    complement and reversal."""
    seen, out = set(), []
    for code in range(1, (1 << (n + 1)) - 1):
        p = tuple((code >> w) & 1 for w in range(n + 1))
        if p not in seen:
            seen |= {q for r in (p, p[::-1]) for q in (r, tuple(1 - v for v in r))}
            out.append(p)
    return out


def cache_guard_inputs():
    """Every non-constant profile class at arity 4-6, six promise-OR
    compositions, or:11, sink:5 and or:3 o (and:3)^3."""
    inputs = [F.from_spectrum(F.SymmetricSpectrum(n, p))
              for n in (4, 5, 6) for p in profile_classes(n)]
    small = [F.and_n(2), F.or_n(2), F.xor_n(2), F.and_n(3), F.maj_n(3)]
    for i, j in [(0, 0), (0, 1), (2, 3), (3, 3), (1, 4), (4, 4)]:
        inputs.append(F.compose(F.pror(2), [small[i], small[j]]))
    return inputs + [F.or_n(11), F.sink(5),
                     F.compose(F.or_n(3), [F.and_n(3)] * 3)]


def decisions(f):
    """Every field of the decision at every degree, floats by their bits."""
    decide = A.adeg_feasible if f.is_total else A.bdeg_feasible
    out = []
    for d in range(f.arity + 1):
        r = decide(f, d)
        terms = sorted((s, c.hex()) for s, c in r.witness.terms.items())
        out.append((r.feasible, r.error.hex(), r.certificate_ok,
                    r.witness.arity, terms))
    return out


def test_warm_decisions_repeat_cold_ones_bit_for_bit(monkeypatch):
    inputs = cache_guard_inputs()
    assert len(inputs) == 9 + 19 + 35 + 6 + 3
    # or:11 at every degree alone is 2.4 MB; room for all, so the second
    # pass is warm throughout
    monkeypatch.setattr(A, "_GROUP_CACHE_BYTES", 64 << 20)
    cold = [decisions(f) for f in inputs]
    assert A._GROUPS
    # other groups in between, none of an arity in the list
    others = [F.or_n(7), F.maj_n(7), F.xor_n(8), F.pror_shifted(7, 1),
              F.compose(F.xor_n(2), [F.and_n(4)] * 2)]
    calls = []
    orbits = A.symmetry_orbits
    monkeypatch.setattr(A, "symmetry_orbits",
                        lambda f, classes: calls.append(f.arity)
                        or orbits(f, classes))
    for i, f in enumerate(inputs):
        decisions(others[i % len(others)])
        assert decisions(f) == cold[i], f
    assert set(calls) <= {7, 8}   # every group of the list stayed warm


class Interrupt(BaseException):
    """Stands for an interrupt raised from a signal handler mid-build."""


def test_a_build_that_raises_leaves_no_entry(monkeypatch):
    f, first = F.xor_n(5), True
    orbits, monomials = A.symmetry_orbits, A._monomial_matrix

    def once(real):
        def build(*args):
            nonlocal first
            if first:
                first = False
                raise Interrupt()
            return real(*args)
        return build

    monkeypatch.setattr(A, "symmetry_orbits", once(orbits))
    with pytest.raises(Interrupt):
        A.adeg(f)
    assert not A._GROUPS
    assert A.adeg(f) == 5
    want, keys = decisions(f), list(A._GROUPS)
    # the monomials at the minima, interrupted after the group, its columns
    # and its orbit rows were stored
    A._GROUPS.clear()
    A._OrbitProgram(f, F.interchangeable_classes(f))
    first = True
    monkeypatch.setattr(A, "_monomial_matrix", once(monomials))
    with pytest.raises(Interrupt):
        A.adeg_feasible(f, 2)
    assert (5, ((0, 1, 2, 3, 4),), ()) in A._GROUPS
    assert len(A._GROUPS) == 3 and not any("mono" in k for k in A._GROUPS)
    assert decisions(f) == want and set(A._GROUPS) == set(keys)


def test_the_group_cache_stays_within_its_budget(monkeypatch):
    inputs = cache_guard_inputs()[::3]
    assert F.or_n(11) in inputs
    want = [decisions(f) for f in inputs]
    # 64 KiB holds a few groups; 256 bytes almost no entry, so nearly every
    # array is built, used and dropped
    for budget in (64 << 10, 256):
        monkeypatch.setattr(A, "_GROUP_CACHE_BYTES", budget)
        A._GROUPS.clear()
        stored = set()
        for f, w in zip(inputs, want):
            assert decisions(f) == w, f
            assert sum(size for _, size in A._GROUPS.values()) <= budget
            stored |= set(A._GROUPS)
        assert len(stored) > len(A._GROUPS)   # the least recently used went


def test_a_warm_group_still_checks_each_function(monkeypatch):
    # or:6 warms the group of the weights of six variables; with its one
    # class forced on sink:4, sink:4 meets that warm group and is not
    # constant on it
    A.adeg_feasible(F.or_n(6), 2)
    warm = set(A._GROUPS)
    assert (6, (tuple(range(6)),), ()) in warm
    monkeypatch.setattr(
        A, "interchangeable_classes", lambda f: [list(range(f.arity))]
    )
    with pytest.raises(A.PolynomialVerificationError, match="not constant"):
        A.adeg_feasible(undeclared(F.sink(4)), 2)
    assert set(A._GROUPS) == warm


def test_cached_arrays_are_read_only(monkeypatch):
    built, build = [], L.LinearProgram.build

    def recording_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(L.LinearProgram, "build", recording_build)
    f = F.sink(4)
    program = A._OrbitProgram(f, F.interchangeable_classes(f))
    A.adeg_feasible(f, 2)
    arrays = [a for value, _ in A._GROUPS.values() for a in value
              if isinstance(a, np.ndarray)]
    assert any(a is program.minima for a in arrays) and len(arrays) > 8
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.reshape(-1)[:1] = 0
    # the one program's rows are cached ones, checked finite when cached
    assert len(built) == 1 and any(built[0].rows is a for a in arrays)
    assert L._FINITE.get(id(built[0].rows)) is built[0].rows


# -- declared signed-permutation symmetries ----------------------------------

@pytest.mark.parametrize("k", [3, 4])
def test_declared_generators_match_the_undeclared_program(k):
    f = F.sink(k)
    g = undeclared(f)
    assert f.generators and not g.generators
    for decide in (A.adeg_feasible, A.bdeg_feasible):
        for d in range(f.arity + 1):
            a, b = decide(f, d), decide(g, d)
            assert (a.feasible, a.certificate_ok) == (b.feasible,
                                                      b.certificate_ok)
            assert a.error == pytest.approx(b.error, abs=1e-9)
            assert a.witness.max_error_on(f) == pytest.approx(a.error,
                                                              abs=1e-9)
    assert (A.adeg(f), A.bdeg(f)) == (A.adeg(g), A.bdeg(g))


def declared_zoo():
    """Compositions of arity at most 8 and zoo members that declare
    generators, by name."""
    c = F.compose
    return {
        "or:3 o and:2": c(F.or_n(3), [F.and_n(2)] * 3),
        "maj:3 o xor:2": c(F.maj_n(3), [F.xor_n(2)] * 3),
        "pror:3 o (and:2,and:2,or:2)":
            c(F.pror(3), [F.and_n(2), F.and_n(2), F.or_n(2)]),
        "or:2 o sink:3": c(F.or_n(2), [F.sink(3)] * 2),
        "mux:2": F.mux(2),
        "mux:3": F.mux(3),
        "rub:3": F.rub(3),
    }


@pytest.mark.parametrize("name", list(declared_zoo()))
def test_declared_and_undeclared_copies_agree(name):
    f = declared_zoo()[name]
    g = undeclared(f)
    assert f.generators and not g.generators
    assert M.measure_function(f).json_doc() == M.measure_function(g).json_doc()
    if name == "mux:3":
        # 2048 unreduced points: the undeclared degree-3 decision alone runs
        # for about a minute (error 1/2, as here), so the 80-orbit answers
        # are pinned instead
        assert A.adeg(f) == 4
        assert A.adeg_feasible(f, 3).error == pytest.approx(0.5, abs=1e-9)
        return
    modes = (False, True) if f.is_total else (True,)
    if name == "rub:3":
        # the undeclared bounded scan (216 points, each with its [0, 1]
        # rows) takes seconds, so rub:3 is compared on adeg alone
        modes = (False,)
    for bounded in modes:
        d_f, d_g = (A._scan(h, A.DEFAULT_EPS,
                            A._degree_fits(h, A.DEFAULT_EPS, bounded))
                    for h in (f, g))
        assert d_f == d_g, (name, bounded)
        decide = A.bdeg_feasible if bounded else A.adeg_feasible
        assert decide(f, d_f).error == pytest.approx(decide(g, d_g).error,
                                                     abs=1e-9)


def test_adeg_of_sink5_on_twelve_orbits(solve_calls):
    # HiGHS on the unreduced 1024-point program gives 1/2 at degree 2 and
    # 1/4 at degree 3; the constants are asserted here to spare the suite
    # that solve
    f = F.sink(5)
    assert A.adeg(f) == 3
    assert set(solve_calls) == {2 * 12 + 1}
    low, high = A.adeg_feasible(f, 2), A.adeg_feasible(f, 3)
    assert not low.feasible and high.feasible and high.certificate_ok
    assert low.error == pytest.approx(0.5, abs=1e-9)
    assert high.error == pytest.approx(0.25, abs=1e-9)
    assert high.witness.degree <= 3
    assert high.witness.max_error_on(f) == pytest.approx(0.25, abs=1e-9)


def averaged_monomial_basis(f, degree):
    """The basis the orbit program used to build, as an oracle: the
    whole-cube monomial matrix with each row replaced by the mean of the
    rows of its group orbit (the Reynolds average of every monomial), and
    the orbit of every input."""
    label, minima = F.symmetry_orbits(f, F.interchangeable_classes(f))
    orbit = np.searchsorted(minima, label)
    mono = A._monomial_matrix(range(1 << f.arity),
                              A.monomial_subsets(f.arity, degree))
    sums = np.zeros((len(minima), mono.shape[1]))
    np.add.at(sums, orbit, mono)
    return (sums / np.bincount(orbit)[:, None])[orbit], orbit


SIGNED_INPUTS = {
    "sink:3": F.sink(3),
    "sink:4": F.sink(4),
    "mux:2": F.mux(2),
    "pror_shifted(4, 1)": F.pror_shifted(4, 1),
    "or:2 o sink:3": F.compose(F.or_n(2), [F.sink(3)] * 2),
    "or:3 o and:2": F.compose(F.or_n(3), [F.and_n(2)] * 3),
}


@pytest.mark.parametrize("name", list(SIGNED_INPUTS))
def test_signed_orbit_columns_span_the_averaged_basis(name):
    # at every degree the columns, spread over the cube by the orbit map,
    # span what the averaged monomials span, and are independent: this
    # pins the sign of each b_S and the orbits dropped for meeting both
    f = SIGNED_INPUTS[name]
    program = A._OrbitProgram(f, F.interchangeable_classes(f))
    rank = np.linalg.matrix_rank
    for d in range(f.arity + 1):
        oracle, orbit = averaged_monomial_basis(f, d)
        columns = program.at(d)[0][orbit]
        assert rank(np.hstack([oracle, columns])) == rank(oracle), (name, d)
        assert rank(columns) == rank(oracle) == columns.shape[1], (name, d)
    # sink:3 reverses every edge with a relabeling: b_{e} = 1 - 2 x_e
    # averages to 0, so degree 1 adds no column
    if name == "sink:3":
        assert program.at(1)[0].shape == program.at(0)[0].shape


def test_each_degree_extends_the_columns_of_the_last():
    # what lets a scan continue the last degree's tableau: a degree's orbit
    # columns are the first columns of the next degree's, bit for bit
    for f in list(SIGNED_INPUTS.values()) + cache_guard_inputs():
        program = A._OrbitProgram(f, F.interchangeable_classes(f))
        for d in range(f.arity):
            low, high = program.at(d)[0], program.at(d + 1)[0]
            assert np.array_equal(high[:, : low.shape[1]], low), (f, d)


def test_adeg_of_maj3_of_mux2_on_364_orbits(monkeypatch):
    # arity 18: the degree-3 program has 13 columns, against 988 monomials
    shapes = []
    minimax = A._minimax

    def recording_minimax(basis, *args):
        shapes.append(basis.shape)
        return minimax(basis, *args)

    monkeypatch.setattr(A, "_minimax", recording_minimax)
    assert A.adeg(F.compose(F.maj_n(3), [F.mux(2)] * 3)) == 3
    assert shapes == [(364, 2), (364, 6), (364, 13)]
    assert len(A.monomial_subsets(18, 3)) == 988


def not_fixed_by_its_generator():
    f = F.sink(3)
    perm, _ = f.generators[0]   # the vertex swap without its edge reversal
    return PartialFn(f.arity, f.defined, f.values, ((perm, 0),))


def test_a_declared_generator_that_does_not_fix_f_is_rejected(monkeypatch,
                                                              capsys):
    # rejected when built, so no degree or measure ever sees it
    with pytest.raises(A.PolynomialVerificationError, match="does not fix"):
        not_fixed_by_its_generator()
    monkeypatch.setitem(F.ZOO, "sink", lambda k: not_fixed_by_its_generator())
    assert main(["measures", "--zoo", "sink:3"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: PolynomialVerificationError")
