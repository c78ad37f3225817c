from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfclab import functions as F
from bfclab import linprog as L
from bfclab import measures as M
from bfclab.cli import main
from bfclab.functions import PartialFn

from conftest import (
    all_sensitive_blocks,
    bs_oracle,
    bs_oracle_at,
    depth_oracle,
    random_total_fn,
    zoo_members,
)


def partial_fns(max_arity):
    """Partial functions of arity 1..max_arity from two table integers."""
    def build(n):
        tables = st.integers(0, (1 << (1 << n)) - 1)
        return st.builds(lambda d, v: PartialFn(n, d, v & d), tables, tables)

    return st.integers(1, max_arity).flatmap(build)


def test_sensitivity_examples():
    for n in (2, 3, 5):
        assert M.sensitivity(F.or_n(n)) == n
    assert M.sensitivity(F.xor_n(3)) == 3
    assert M.sensitivity(F.sink(4)) >= 3  # a sink vertex has 3 incident edges
    value, witness = M.sensitivity_witness(F.or_n(3))
    assert (value, witness) == (3, 0)


def test_sensitivity_ignores_flips_leaving_domain():
    # domain {00, 11} with different values: no single flip stays inside
    f = PartialFn.from_entries(2, {0b00: 0, 0b11: 1})
    assert M.sensitivity(f) == 0
    assert M.block_sensitivity(f) == 1  # the double flip is one block


def test_block_sensitivity_examples():
    for n in (2, 3, 4):
        assert M.block_sensitivity(F.or_n(n)) == n
    assert M.block_sensitivity(F.sink(4)) >= 3
    fam = M.block_sensitivity_witness(F.or_n(3))
    assert fam.input == 0 and fam.blocks == (1, 2, 4)
    fam.validate(F.or_n(3))


def test_block_sensitivity_per_input():
    and2 = F.and_n(2)
    assert M.block_sensitivity(and2, x=0b11) == 2
    assert M.block_sensitivity(and2, x=0b00) == 1
    assert M.block_sensitivity(and2) == 2


def test_bs_matches_exhaustive_oracle_3bit_complete():
    for table in range(256):
        f = PartialFn.total(3, table)
        assert M.block_sensitivity(f) == bs_oracle(f)


def test_bs_matches_exhaustive_oracle_random_4bit():
    rng = np.random.default_rng(99)
    for _ in range(100):
        f = random_total_fn(rng, 4)
        assert M.block_sensitivity(f) == bs_oracle(f)


def test_minimal_blocks_are_minimal_and_sufficient():
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = random_total_fn(rng, 4)
        for x in f.domain():
            minimal = M.minimal_sensitive_blocks(f, x)
            full = all_sensitive_blocks(f, x)
            assert set(minimal) <= set(full)
            for b in minimal:
                assert not any(o != b and o & b == o for o in minimal)
            # every sensitive block contains a minimal one
            for b in full:
                assert any(m & b == m for m in minimal)


@settings(deadline=None)  # the exhaustive oracles take tens of ms at arity 4
@given(partial_fns(4))
def test_minimal_blocks_and_packing_match_exhaustive_oracles(f):
    for x in f.domain():
        full = all_sensitive_blocks(f, x)
        minimal = [b for b in full if not any(o != b and o & b == o for o in full)]
        blocks = M.minimal_sensitive_blocks(f, x)
        assert blocks == sorted(minimal, key=lambda b: (b.bit_count(), b))
        assert len(M.max_disjoint_packing(blocks)) == bs_oracle_at(f, x)


def seeded_tables(rng, max_arity):
    """Two total functions (ones at density 1/2 and 1/8) and a partial one
    at each arity 1..max_arity."""
    for n in range(1, max_arity + 1):
        for domain, ones in ((1.0, 0.5), (1.0, 0.125), (0.6, 0.5)):
            defined = rng.random(1 << n) < domain
            values = defined & (rng.random(1 << n) < ones)
            yield PartialFn(n, F.array_to_bits(defined), F.array_to_bits(values))


def brute_force_minimal_blocks(f, x):
    """The masks whose flip at ``x`` changes ``f`` and no proper subset of
    which does, ascending by (size, mask), from the whole table at once."""
    masks = np.arange(1 << f.arity)
    dom, val = f.defined_array().astype(bool), f.value_array().astype(bool)
    sensitive = dom[x ^ masks] & (val[x ^ masks] != val[x])
    proper = ((masks[:, None] & masks) == masks) & (masks[:, None] != masks)
    minimal = masks[sensitive & ~(proper & sensitive).any(axis=1)]
    return sorted(minimal.tolist(), key=lambda b: (b.bit_count(), b))


@pytest.mark.parametrize("batch_bits", [1, 64, 1 << 10, M._BATCH_BITS])
def test_packed_block_search_matches_brute_force(monkeypatch, batch_bits):
    # a batch holds _BATCH_BITS // 2**max(n, 3) tables (one at least):
    # small batches make the inputs of one function span many, and
    # arity <= 2 pads each table to a byte
    monkeypatch.setattr(M, "_BATCH_BITS", batch_bits)
    for f in seeded_tables(np.random.default_rng(2610), 8):
        xs = list(f.domain())
        want = [brute_force_minimal_blocks(f, x) for x in xs]
        assert M._minimal_blocks(f, xs) == want, f
        for x, found in zip(xs[-1:], want[-1:]):   # the domain may be empty
            assert M.minimal_sensitive_blocks(f, x) == found
        for x, found in M.orbit_blocks(f):
            assert found == want[xs.index(x)]
    f = PartialFn.from_entries(3, {0b000: 0, 0b011: 1})
    for xs in ([0b001], [0b000, 0b001]):
        with pytest.raises(ValueError, match="outside the domain"):
            M._minimal_blocks(f, xs)
    with pytest.raises(ValueError, match="outside the domain"):
        M.minimal_sensitive_blocks(f, 0b111)


@given(st.lists(st.integers(1, 63), max_size=10))
def test_packing_is_the_lexicographically_first_maximum(blocks):
    ordered = sorted(blocks)
    first = []
    for size in range(len(ordered), 0, -1):
        first = next(
            (list(c) for c in combinations(ordered, size)
             if all(a & b == 0 for a, b in combinations(c, 2))),
            [],
        )
        if first:
            break
    assert M.max_disjoint_packing(blocks) == first


def test_maj13_measures_within_the_search_bound():
    # 1716 minimal blocks at input 0: one recursion level per block would
    # overflow the interpreter stack
    f = F.maj_n(13)
    rep = M.measure_function(f, name="maj:13")
    assert (rep.s, rep.bs, rep.deg, rep.depth) == (7, 7, 13, 13)
    assert rep.fbs == pytest.approx(7.0, abs=1e-9)
    rep.bs_witness.validate(f)
    rep.fbs_witness.validate(f)


def orbit_equality_inputs():
    inputs = [
        F.zoo_function(name, n)
        for name in ("or", "and", "xor", "maj", "pror")
        for n in range(1, 10)
    ]
    inputs += [F.pror_shifted(n, (1 << n) - 2) for n in range(2, 10)]
    inputs += [F.mux(1), F.mux(2), F.sink(2), F.sink(3), F.sink(4),
               F.rub(2), F.rub(3)]
    outers = [F.or_n(2), F.and_n(3), F.xor_n(2), F.maj_n(3), F.pror(3)]
    pieces = [F.or_n(2), F.and_n(2), F.xor_n(2), F.maj_n(3), F.pror(2),
              F.and_n(3)]
    inputs += [
        F.compose(outer, [inner] * outer.arity)
        for outer in outers
        for inner in pieces
        if outer.arity * inner.arity <= 9
    ]
    rng = np.random.default_rng(77)
    for n in range(2, 10):
        defined = rng.random(1 << n) < rng.choice([0.5, 1.0])
        values = defined & (rng.random(1 << n) < rng.choice([0.125, 0.5]))
        inputs.append(PartialFn(n, F.array_to_bits(defined), F.array_to_bits(values)))
        profile = tuple(rng.choice([0, 1, None]) for _ in range(n + 1))
        inputs.append(F.from_spectrum(F.SymmetricSpectrum(n, profile)))
    return inputs


def test_orbit_scan_matches_full_domain_scan(monkeypatch):
    assert len(M.orbit_blocks(F.maj_n(9))) == 10
    inputs = orbit_equality_inputs()
    reduced = M.reports_to_json([M.measure_function(f) for f in inputs])
    monkeypatch.setattr(
        M, "interchangeable_classes", lambda f: [[i] for i in range(f.arity)]
    )
    assert len(M.orbit_blocks(F.maj_n(9))) == 512
    full = M.reports_to_json([M.measure_function(f) for f in inputs])
    assert reduced == full


def test_declared_generators_scan_one_input_per_group_orbit():
    # sink:k declares the vertex relabelings: 12 tournaments up to
    # isomorphism on 5 vertices, against 1024 inputs without them
    f = F.sink(5)
    g = PartialFn(f.arity, f.defined, f.values)
    assert len(M.orbit_blocks(f)) == 12 and len(M.orbit_blocks(g)) == 1024
    fs = [F.sink(k) for k in range(2, 6)]
    reduced = M.reports_to_json([M.measure_function(h) for h in fs])
    full = M.reports_to_json([
        M.measure_function(PartialFn(h.arity, h.defined, h.values)) for h in fs
    ])
    assert reduced == full


def test_fbs_rejects_an_optimum_that_violates_its_program(monkeypatch, capsys):
    solve = L.solve

    def violating(lp, *args, **kwargs):
        # one weight raised past the unit load of its variable
        out = solve(lp, *args, **kwargs)
        raised = out.solution.copy()
        raised[0] += 1e-3
        return L.LpOutcome("optimal", raised, out.value)

    monkeypatch.setattr(L, "solve", violating)
    with pytest.raises(L.SimplexError, match="violates"):
        M.fractional_block_sensitivity_at(F.or_n(3), 0)
    assert main(["measures", "--zoo", "or:3"]) == 4
    assert capsys.readouterr().err.startswith("internal error: SimplexError")


def test_measure_function_takes_each_packing_ceiling_once(monkeypatch):
    # both witness scans share one ceiling per orbit minimum
    calls, ceiling = [], M._packing_ceiling
    monkeypatch.setattr(M, "_packing_ceiling",
                        lambda found: calls.append(1) or ceiling(found))
    for f in (F.maj_n(9), F.sink(5), F.mux(2)):
        calls.clear()
        M.measure_function(f)
        assert len(calls) == len(M.orbit_blocks(f)) > 1, f
    calls.clear()
    M.fractional_block_sensitivity_witness(F.sink(5))   # alone: its own
    assert len(calls) == 12


def sequential_scan(f, blocks, family, beats):
    """The witness scan in ascending input order, an input solved only if
    its packing ceiling ``beats`` the best family so far, which a family
    replaces only if it ``beats`` it too."""
    best = None
    for x, found in blocks:
        if best is None or beats(M._packing_ceiling(found), best):
            fam = family(x, found, f.arity)
            if best is None or beats(fam.total_weight, best):
                best = fam
    return M.BlockFamily(0, (), ()) if best is None else best


def sequential_bs(f, blocks):
    return sequential_scan(f, blocks, M._bs_family,
                           lambda value, best: value >= len(best.blocks) + 1)


def sequential_fbs(f, blocks):
    return sequential_scan(f, blocks, M._fbs_family,
                           lambda value, best: value > best.total_weight + 1e-9)


def test_ordered_scan_matches_the_sequential_scan(monkeypatch):
    inputs = list(seeded_tables(np.random.default_rng(2611), 8))
    inputs += zoo_members(8)
    for f in inputs:
        blocks = M.orbit_blocks(f)
        assert M.block_sensitivity_witness(f) == sequential_bs(f, blocks), f
        fam = M.fractional_block_sensitivity_witness(f, blocks=blocks)
        assert fam == sequential_fbs(f, blocks), f
    # the ordered scan solves fewer packing LPs than the sequential one
    solves = []
    solve = L.solve
    monkeypatch.setattr(L, "solve", lambda lp: solves.append(1) or solve(lp))
    f = inputs[18]   # arity 7, ones at density 1/2
    assert f.arity == 7 and f.is_total
    blocks = M.orbit_blocks(f)
    sequential_fbs(f, blocks)
    sequential = len(solves)
    solves.clear()
    M.fractional_block_sensitivity_witness(f, blocks=blocks)
    assert 0 < len(solves) < sequential


def test_fbs_examples():
    assert M.fractional_block_sensitivity(F.or_n(3)) == pytest.approx(3.0, abs=1e-9)
    const = PartialFn.total(3, 0)
    assert M.fractional_block_sensitivity(const) == 0.0
    fam = M.fractional_block_sensitivity_witness(F.or_n(3))
    fam.validate(F.or_n(3))


def test_fbs_at_least_bs_3bit_complete():
    for table in range(256):
        f = PartialFn.total(3, table)
        assert (
            M.fractional_block_sensitivity(f)
            >= M.block_sensitivity(f) - 1e-9
        )


def test_order_chain_3bit_complete():
    for table in range(256):
        f = PartialFn.total(3, table)
        s, bs, fbs = (
            M.sensitivity(f),
            M.block_sensitivity(f),
            M.fractional_block_sensitivity(f),
        )
        assert s <= bs <= fbs + 1e-9 <= 3 + 2e-9


def test_order_chain_sampled_4_and_5_bit():
    rng = np.random.default_rng(123)
    for arity, rounds in ((4, 40), (5, 15)):
        for _ in range(rounds):
            f = random_total_fn(rng, arity)
            s, bs = M.sensitivity(f), M.block_sensitivity(f)
            fbs = M.fractional_block_sensitivity(f)
            assert s <= bs <= fbs + 1e-9 <= arity + 2e-9


def test_minimal_block_columns_match_all_block_columns():
    # the LP over minimal sensitive blocks has the same optimum as the LP
    # over every sensitive block: any block can be shrunk to a minimal one
    # without raising any per-variable load
    rng = np.random.default_rng(31)
    for _ in range(30):
        arity = int(rng.integers(2, 5))
        f = random_total_fn(rng, arity)
        for x in f.domain():
            minimal = M.minimal_sensitive_blocks(f, x)
            full = all_sensitive_blocks(f, x)
            if not full:
                continue
            opt_min = L.solve(M.fbs_program(minimal, arity)).value
            opt_full = L.solve(M.fbs_program(full, arity)).value
            assert opt_min == pytest.approx(opt_full, abs=1e-7)


def test_measures_invariant_under_symmetries():
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = random_total_fn(rng, 3)
        shift = int(rng.integers(0, 8))
        perm = tuple(rng.permutation(3))
        for g in (f.negate(), f.xor_shift(shift), f.permute(perm)):
            assert M.sensitivity(g) == M.sensitivity(f)
            assert M.block_sensitivity(g) == M.block_sensitivity(f)
            assert M.fractional_block_sensitivity(g) == pytest.approx(
                M.fractional_block_sensitivity(f), abs=1e-7
            )


def test_exact_degree_examples():
    for n in (1, 3, 5):
        assert M.exact_degree(F.xor_n(n)) == n
        assert M.exact_degree(F.and_n(n)) == n
    assert M.exact_degree(F.mux(1)) == 2
    assert M.exact_degree(PartialFn.total(3, 0)) == 0
    with pytest.raises(ValueError):
        M.exact_degree(F.pror(2))


def test_exact_degree_matches_interpolation():
    rng = np.random.default_rng(8)
    for _ in range(20):
        f = random_total_fn(rng, 3)
        coeffs = M.multilinear_coefficients(f)
        for x in range(8):
            total = sum(
                int(c)
                for s, c in enumerate(coeffs)
                if (x & s) == s
            )
            assert total == f.eval(x)


def test_decision_tree_depth_examples():
    for n in (1, 2, 4, 6):
        assert M.decision_tree_depth(F.or_n(n)) == n
        assert M.decision_tree_depth(F.xor_n(n)) == n
    assert M.decision_tree_depth(PartialFn.total(4, 0)) == 0
    # the weight promise makes one query decisive
    assert M.decision_tree_depth(F.gapmaj(16), max_arity=16) == 1
    with pytest.raises(M.ArityLimitError):
        M.decision_tree_depth(F.gapmaj(16))


@settings(deadline=None)
@given(partial_fns(4))
def test_decision_tree_depth_matches_oracle(f):
    assert M.decision_tree_depth(f) == depth_oracle(f)


def test_reported_depth_is_the_searched_depth():
    # a full degree skips the search: D(f) >= deg(f) for a total f
    rng = np.random.default_rng(808)
    tables = [PartialFn.total(n, F.array_to_bits(rng.random(1 << n) < 0.5))
              for n in range(1, 9) for _ in range(3)]
    inputs = zoo_members(10) + tables
    skipped = 0
    for f in inputs:
        rep = M.measure_function(f)
        assert rep.depth == M.decision_tree_depth(f), f
        skipped += rep.deg == f.arity
    assert 0 < skipped < len(inputs)


def test_depth_tries_one_variable_per_orbit_at_the_root(monkeypatch):
    c = F.compose
    inputs = [F.mux(2), F.rub(2), F.sink(4), c(F.or_n(2), [F.sink(3)] * 2),
              c(F.and_n(2), [F.mux(1)] * 2)]
    assert all(f.generators for f in inputs)
    for f in inputs:
        assert M.decision_tree_depth(f) == depth_oracle(f), f
    tried = []
    depth = M._depth

    def recording_depth(tables, memo, index, tries=None):
        if tries is not None:
            tried.append(tries)
        return depth(tables, memo, index, tries)

    monkeypatch.setattr(M, "_depth", recording_depth)
    # mux:3: the address bits are one orbit, the data bits another
    assert M.decision_tree_depth(F.mux(3)) == 4 and tried == [[0, 3]]
    tried.clear()
    g = F.mux(3)
    assert M.decision_tree_depth(PartialFn(g.arity, g.defined, g.values)) == 4
    assert tried == [list(range(11))]


def test_depth_rejects_a_false_declared_generator():
    # the depth search trusts the declared generators, because a function
    # whose generator does not fix it cannot be built
    f = F.sink(3)
    perm, _ = f.generators[0]   # the vertex swap without its edge reversal
    with pytest.raises(F.PolynomialVerificationError, match="does not fix"):
        PartialFn(f.arity, f.defined, f.values, ((perm, 0),))


def test_decision_tree_depth_partial():
    # after n-1 answers of 0 the all-zeros input and the remaining unit
    # vector still disagree, so the promise does not save any query
    assert M.decision_tree_depth(F.pror(3)) == 3
    assert M.decision_tree_depth(F.pror(2)) == 2


def test_paturi_gamma_examples():
    for n in (3, 5, 7):
        maj = F.SymmetricSpectrum(n, tuple(int(2 * w > n) for w in range(n + 1)))
        assert M.paturi_gamma(maj) == n // 2
    for n in (2, 4, 6):
        or_spec = F.SymmetricSpectrum(n, (0,) + (1,) * n)
        assert M.paturi_gamma(or_spec) == 0
        xor_spec = F.SymmetricSpectrum(n, tuple(w % 2 for w in range(n + 1)))
        assert M.paturi_gamma(xor_spec) == n // 2
    with pytest.raises(ValueError):
        M.paturi_gamma(F.SymmetricSpectrum(3, (1, 1, 1, 1)))


def test_measure_report_and_serialization():
    reports = [
        M.measure_function(F.or_n(3), name="or3"),
        M.measure_function(F.gapmaj(16), name="gapmaj16"),
    ]
    csv_text = M.reports_to_csv(reports)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "name,n,s,bs,fbs,deg,D"
    assert lines[1].startswith("or3,3,3,3,3.000000,3,3")
    # single flips leave the weight promise, so s = 0; arity 16 exceeds the
    # search bound, so bs/fbs/D cells stay empty; partial, so deg is empty
    assert lines[2] == "gapmaj16,16,0,,,,"
    json_text = M.reports_to_json(reports)
    assert '"bs_witness"' in json_text
    # slotted: a kept report holds no per-instance dict
    assert not hasattr(reports[0], "__dict__")
    assert not hasattr(reports[0].fbs_witness, "__dict__")


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        M.MeasureReport(name="bad", arity=3, s=3, bs=2, fbs=2.0, deg=None, depth=None)
