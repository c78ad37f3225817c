import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bfclab import functions as F
from bfclab.functions import PartialFn

from conftest import naive_compose_eval, random_partial_fn


def test_eval_examples():
    assert F.or_n(2).eval(0) == 0
    assert F.pror(2).eval(3) is None
    weight16 = (1 << 16) - 1
    assert F.gapmaj(16).eval(weight16) == 1
    assert F.gapmaj(16).eval(0) == 0


def test_eval_out_of_range():
    with pytest.raises(ValueError):
        F.or_n(2).eval(4)


def test_xor_shift_maps_onto_base_point():
    shifted = F.pror(2).xor_shift(0b11)
    assert shifted.eval(0b11) == 0
    assert shifted.eval(0b01) == 1
    assert shifted.eval(0b00) is None
    assert F.pror_shifted(2, 0b11) == shifted


@given(st.integers(0, 255), st.integers(0, 255))
def test_negate_involution(defined, values):
    f = PartialFn(3, defined, values & defined)
    assert f.negate().negate() == f


def test_permute_symmetric_function_fixed():
    or3 = F.or_n(3)
    for perm in itertools.permutations(range(3)):
        assert or3.permute(perm) == or3


@given(st.integers(0, 255), st.integers(0, 255), st.permutations(range(3)),
       st.permutations(range(3)))
def test_permute_group_action(defined, values, p, q):
    f = PartialFn(3, defined, values & defined)
    combined = [p[q[i]] for i in range(3)]
    assert f.permute(p).permute(q) == f.permute(combined)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 7),
       st.permutations(range(3)))
def test_transforms_preserve_domain_size(defined, values, a, perm):
    f = PartialFn(3, defined, values & defined)
    assert f.negate().dom_size == f.dom_size
    assert f.xor_shift(a).dom_size == f.dom_size
    assert f.permute(perm).dom_size == f.dom_size


def test_restrict_examples():
    ident = F.and_n(2).restrict({1: 1})
    assert ident == PartialFn.total(1, 0b10)

    # orient every edge of a 3-vertex tournament into vertex 0:
    # (0,1) and (0,2) incoming means those variables are 0
    sub = F.sink(3).restrict({0: 0, 1: 0})
    assert sub.arity == 1 and sub.is_constant() and sub.values == sub.defined

    proj = F.mux(1).restrict({0: 0})
    assert proj == PartialFn.total(2, 0b1010)  # selects the first data bit


def test_compose_examples():
    c = F.compose(F.or_n(2), [F.and_n(2), F.and_n(2)])
    assert c.eval(0b1111) == 1
    ident = PartialFn.total(1, 0b10)
    pc = F.compose(F.pror(2), [ident, ident])
    assert pc.eval(0b11) is None
    assert pc.eval(0b01) == 1


def test_compose_arity_mismatch_and_bound():
    with pytest.raises(ValueError):
        F.compose(F.or_n(2), [F.and_n(2)])
    with pytest.raises(F.ArityLimitError):
        F.compose(F.or_n(2), [F.and_n(2), F.and_n(2)], max_arity=3)


def test_compose_associativity_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(50):
        f = random_partial_fn(rng, 2)
        g = random_partial_fn(rng, 2)
        h = random_partial_fn(rng, 2)
        left = F.compose(F.compose(f, [g, g]), [h, h, h, h])
        right = F.compose(f, [F.compose(g, [h, h]), F.compose(g, [h, h])])
        assert left == right


def test_compose_star_propagation_matches_interpreter():
    rng = np.random.default_rng(11)
    for _ in range(25):
        outer = random_partial_fn(rng, 2)
        inner = [random_partial_fn(rng, 2), random_partial_fn(rng, 3)]
        comp = F.compose(outer, inner)
        for x in range(1 << comp.arity):
            assert comp.eval(x) == naive_compose_eval(outer, inner, x)


def test_zoo_domain_counts():
    for n in range(1, 7):
        assert F.pror(n).dom_size == n + 1
    assert F.gapmaj(16).dom_size == math.comb(16, 0) + math.comb(16, 16)
    assert F.gapmaj_weights(36) == (6, 30)  # arity 36 exceeds the table bound
    assert F.sink(3).dom_size == 8
    assert F.rub(2).dom_size == 16


def test_gapmaj_rejects_inadmissible_arity():
    for t in (8, 10, 12, 17, 20, 24, 48, 60):
        with pytest.raises(ValueError):
            F.gapmaj_weights(t)
    assert F.gapmaj_weights(16) == (0, 16)
    assert F.gapmaj_weights(64) == (16, 48)
    assert F.gapmaj_weights(100) == (30, 70)


def test_sink_three_cycle_has_no_sink():
    # edges (0,1)=1, (1,2)=1, (2,0): variable order (0,1),(0,2),(1,2)
    # the 3-cycle 0->1, 1->2, 2->0 is x01=1, x12=1, x02=0
    assert F.sink(3).eval(0b101) == 0


def test_sink_vertex_characterization():
    f = F.sink(4)
    pairs = F.sink_edge_vars(4)
    for x in range(1 << 6):
        has_sink = False
        for v in range(4):
            incoming = all(
                ((x >> e) & 1) == (0 if i == v else 1)
                for e, (i, j) in enumerate(pairs)
                if v in (i, j)
            )
            has_sink = has_sink or incoming
        assert f.eval(x) == int(has_sink)


def test_rub_block_with_consecutive_ones():
    f = F.rub(2)
    # one inner block equal to "11", the other all zeros
    assert f.eval(0b0011) == 1
    assert f.eval(0b0000) == 0
    assert f.eval(0b1111) == 1


def test_mux_selects_addressed_bit():
    f = F.mux(2)  # 2 address bits, 4 data bits
    for addr in range(4):
        for data in range(16):
            x = addr | (data << 2)
            assert f.eval(x) == (data >> addr) & 1


def test_from_spectrum_and_constants():
    spec = F.SymmetricSpectrum(3, (0, 1, 1, 1))
    assert F.from_spectrum(spec) == F.or_n(3)
    partial = F.SymmetricSpectrum(3, (0, None, None, 1))
    g = F.from_spectrum(partial)
    assert g.dom_size == 2


def test_junta_spec_materialization_and_strength():
    n = 4
    parity = F.SymmetricSpectrum(n, tuple(w % 2 for w in range(n + 1)))
    ones = F.SymmetricSpectrum(n, (1,) * (n + 1))
    spec = F.JuntaSymmetricSpec(n, (1,), (parity, ones))
    f = F.from_junta_spec(spec)
    assert spec.is_strongly_symmetric()
    for x in range(1 << n):
        w = x.bit_count()
        expected = 1 if (x >> 1) & 1 else w % 2
        assert f.eval(x) == expected
    # a junta-only function is not strongly symmetric
    flat0 = F.SymmetricSpectrum(n, (0,) * (n + 1))
    weak = F.JuntaSymmetricSpec(n, (1,), (flat0, ones))
    assert not weak.is_strongly_symmetric()


def test_canonical_form_rejects_values_off_domain():
    with pytest.raises(ValueError):
        PartialFn(2, 0b0001, 0b0010)


def test_arity_bound_enforced():
    with pytest.raises(F.ArityLimitError):
        PartialFn.total(25, 0)


def test_hex_encoding_golden():
    # OR_2 table 1110 base-2 = 0x0e, single byte, index 0 is the low bit
    assert F.mask_to_hex(F.or_n(2).values, 2) == "0e"
    assert F.mask_from_hex("0e") == 0b1110
    f = F.gapmaj(16)
    assert F.mask_from_hex(F.mask_to_hex(f.defined, 16)) == f.defined


def test_function_docs_roundtrip(tmp_path):
    cases = [
        F.or_n(3),
        F.pror(4),
        F.gapmaj(16),
        random_partial_fn(np.random.default_rng(3), 4),
    ]
    for i, f in enumerate(cases):
        path = tmp_path / f"fn{i}.json"
        F.save_function(f, path, name=f"case{i}")
        assert F.load_function(path) == f


def test_function_doc_kinds():
    sym = F.function_from_doc({"kind": "symmetric", "arity": 3, "profile": "0111"})
    assert sym == F.or_n(3)
    zoo = F.function_from_doc({"kind": "zoo", "name": "xor", "params": [3]})
    assert zoo == F.xor_n(3)
    junta = F.function_from_doc(
        {"kind": "junta", "arity": 2, "junta": [0], "table": ["011", "111"]}
    )
    assert junta.is_total
    with pytest.raises(ValueError):
        F.function_from_doc({"kind": "mystery"})
    with pytest.raises(ValueError, match="JSON object"):
        F.function_from_doc([1, 2, 3])


def test_total_table_is_full_domain_partial():
    f = PartialFn.total(3, 0b10110100)
    assert f.is_total and f.dom_size == 8
    assert f == PartialFn(3, 0xFF, 0b10110100)


# -- declared symmetries -------------------------------------------------------

def undeclared(f):
    return PartialFn(f.arity, f.defined, f.values)


def test_declared_generators_leave_equality_hash_and_repr_alone():
    f = F.sink(4)
    assert f.generators
    g = undeclared(f)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert not g.generators


def test_transforms_carry_no_generators():
    f = F.sink(3)
    out = [f.negate(), f.permute([2, 0, 1]), f.restrict({0: 1}),
           f.xor_shift(0b101)]
    assert all(g.generators == () for g in out)


def test_compose_declares_block_swaps_and_lifts_inner_generators():
    f = F.sink(3)
    assert len(f.generators) == 2
    # the swap of the two equal blocks, then each block's own generators
    want = [((3, 4, 5, 0, 1, 2), 0)]
    want += [((*perm, 3, 4, 5), neg) for perm, neg in f.generators]
    want += [((0, 1, 2, *(3 + p for p in perm)), neg << 3)
             for perm, neg in f.generators]
    assert list(F.compose(F.or_n(2), [f, f]).generators) == want
    # the outer's signed generators are not lifted, the inner's are
    assert F.sink(2).generators and all(neg for _, neg in F.sink(2).generators)
    assert F.compose(F.sink(2), [f]).generators == f.generators
    # a swap and a cycle per class of equal blocks; unequal blocks stay
    g = F.compose(F.or_n(4), [F.and_n(2)] * 3 + [F.xor_n(2)])
    assert g.generators == (((2, 3, 0, 1, 4, 5, 6, 7), 0),
                            ((2, 3, 4, 5, 0, 1, 6, 7), 0))
    assert F.compose(F.or_n(2), [F.and_n(2), F.or_n(2)]).generators == ()
    # the outer's unsigned generators that map every block onto an equal
    # one: mux:2's address swap, not its address negation
    assert [neg for _, neg in F.mux(2).generators] == [1, 0]
    h = F.compose(F.mux(2), [F.and_n(2)] * 6)
    assert h.generators == (((2, 3, 0, 1, 4, 5, 8, 9, 6, 7, 10, 11), 0),)
    h = F.compose(F.mux(2), [F.and_n(2)] * 4 + [F.or_n(2), F.and_n(2)])
    assert h.generators == ()


def test_malformed_generators_are_rejected():
    f = F.or_n(3)
    for gen in (((0, 0, 1), 0), ((0, 1), 0), ((0, 1, 2), 8), ((0, 1, 2), -1)):
        with pytest.raises(ValueError, match="signed permutation"):
            PartialFn(3, f.defined, f.values, (gen,))


def relabeled(x, s, pairs):
    """The tournament ``x`` with vertex ``v`` renamed ``s[v]``."""
    edge = {pair: e for e, pair in enumerate(pairs)}
    y = 0
    for e, (i, j) in enumerate(pairs):
        tail, head = (i, j) if (x >> e) & 1 else (j, i)
        if s[tail] < s[head]:
            y |= 1 << edge[s[tail], s[head]]
    return y


def test_sink_orbits_are_tournament_isomorphism_classes():
    # non-isomorphic tournaments on 1..6 vertices
    for k, count in zip(range(1, 7), (1, 1, 2, 4, 12, 56)):
        f = F.sink(k)
        orbit, minima = F.symmetry_orbits(f, F.interchangeable_classes(f))
        assert len(minima) == count
        assert np.array_equal(orbit[minima], minima)
    f, pairs = F.sink(4), F.sink_edge_vars(4)
    orbit, _ = F.symmetry_orbits(f, F.interchangeable_classes(f))
    for x in range(1 << 6):
        images = [relabeled(x, s, pairs) for s in itertools.permutations(range(4))]
        assert orbit[x] == min(images)


def closure_minima(f, classes):
    """Orbit minima by breadth-first closure under the declared generators
    and every transposition inside a class."""
    moves = [(tuple(p), n) for p, n in f.generators]
    for cls in classes:
        for a, b in itertools.combinations(cls, 2):
            perm = list(range(f.arity))
            perm[a], perm[b] = b, a
            moves.append((tuple(perm), 0))

    def apply(x, perm, neg):
        x ^= neg
        return sum(((x >> i) & 1) << p for i, p in enumerate(perm))

    label = {}
    for x in range(1 << f.arity):
        if x in label:
            continue
        seen, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for perm, neg in moves:
                z = apply(y, perm, neg)
                if z not in seen:
                    seen.add(z)
                    todo.append(z)
        for y in seen:
            label[y] = x
    return [label[x] for x in range(1 << f.arity)]


def test_symmetry_orbits_join_classes_and_generators():
    # AND of two ORs: classes {0, 1} and {2, 3}, joined by the block swap
    g = F.compose(F.and_n(2), [F.or_n(2)] * 2)
    f = PartialFn(4, g.defined, g.values, (((2, 3, 0, 1), 0),))
    classes = F.interchangeable_classes(f)
    assert classes == [[0, 1], [2, 3]]
    orbit, minima = F.symmetry_orbits(f, classes)
    assert orbit.tolist() == closure_minima(f, classes)
    assert len(minima) == 6   # multisets of two block weights in 0..2
    # parity is fixed by negating both variables
    x2 = F.xor_n(2)
    f = PartialFn(2, x2.defined, x2.values, (((0, 1), 0b11),))
    orbit, minima = F.symmetry_orbits(f, [[0, 1]])
    assert orbit.tolist() == [0, 1, 1, 0] and minima.tolist() == [0, 1]
    # without generators the minima fill a prefix of every class
    h = F.compose(F.or_n(3), [F.and_n(3)] * 3)
    classes = F.interchangeable_classes(h)
    orbit, minima = F.symmetry_orbits(undeclared(h), classes)
    assert orbit.tolist() == closure_minima(undeclared(h), classes)
    assert len(minima) == 4 ** 3
    # the declared block swap and cycle join them into multisets of three
    # block weights
    orbit, minima = F.symmetry_orbits(h, classes)
    assert orbit.tolist() == closure_minima(h, classes)
    assert len(minima) == 20


def group_order(f):
    """Order of the group generated by the declared generators of ``f``,
    by closure over their maps of the cube."""
    moves = [F._signed_permutation_image(f.arity, perm, neg).tolist()
             for perm, neg in f.generators]
    start = tuple(range(1 << f.arity))
    seen, todo = {start}, [start]
    while todo:
        g = todo.pop()
        for m in moves:
            h = tuple(m[x] for x in g)
            if h not in seen:
                seen.add(h)
                todo.append(h)
    return len(seen)


@pytest.mark.parametrize("k, order, orbits", [(1, 2, 4), (2, 8, 12),
                                              (3, 48, 80)])
def test_mux_declares_its_address_relabelings(k, order, orbits):
    f = F.mux(k)
    assert len(f.generators) == min(k, 3)
    assert group_order(f) == order == 2 ** k * math.factorial(k)
    classes = F.interchangeable_classes(f)
    orbit, minima = F.symmetry_orbits(f, classes)
    assert orbit.tolist() == closure_minima(f, classes)
    assert len(minima) == orbits
    assert F.mux(0).generators == ()


def test_pror_shifted_declares_the_signed_transposition():
    for n in range(1, 6):
        for a in range(1 << n):
            f = F.pror_shifted(n, a)
            assert f == F.pror(n).xor_shift(a)
            assert bool(f.generators) == (0 < a < (1 << n) - 1)
            classes = F.interchangeable_classes(f)
            orbit, minima = F.symmetry_orbits(f, classes)
            assert orbit.tolist() == closure_minima(f, classes)
            # one orbit per weight of x ^ a, as for pror itself
            assert len(minima) == n + 1


def test_a_generator_that_does_not_fix_the_table_is_rejected():
    g = F.or_n(2)
    with pytest.raises(F.PolynomialVerificationError, match="does not fix"):
        PartialFn(2, g.defined, g.values, (((0, 1), 0b01),))
    # values (all 0) fixed, domain {00, 01} moved onto {00, 10}
    p = PartialFn.from_entries(2, {0b00: 0, 0b01: 0})
    with pytest.raises(F.PolynomialVerificationError, match="does not fix"):
        PartialFn(2, p.defined, p.values, (((1, 0), 0),))
    # a malformed generator is a usage error, checked first
    for bad in (((0,), 0), ((0, 0), 0), ((0, 1), 0b100), ((1, 2), 0)):
        with pytest.raises(ValueError, match="not a signed permutation"):
            PartialFn(2, g.defined, g.values, (bad,))


def test_signed_permute_matches_the_index_gather():
    # numpy integers in perm and neg, as a seeded generator gives them
    rng = np.random.default_rng(27)
    for n in range(1, 11):
        for _ in range(8):
            perm, neg = rng.permutation(n), rng.integers(0, 1 << n)
            image = F._signed_permutation_image(n, perm, neg)
            defined = F.array_to_bits(rng.integers(0, 2, 1 << n))
            values = F.array_to_bits(rng.integers(0, 2, 1 << n)) & defined
            for t in (defined, values):
                got = F.signed_permute(t, n, perm, neg)
                assert type(got) is int
                assert got == F.array_to_bits(F.bits_to_array(t, n)[image])
    assert F.signed_permute(0b0110, 2, (), 0) == 0b0110
