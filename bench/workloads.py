"""Seeded op lists for the four benchmark workloads.

An op list is built from plain descriptions (nested tuples), never from the
package: the same ``(workload, seed)`` always gives the same list, and the
reference checks in ``reference.py`` rebuild every input from the same
description with code of their own.  ``materialize`` turns a description
into package objects through ``bfclab.functions`` during set-up.

A run executes whole *rounds*.  Each round is a stratified sample: a fixed
number of ops per input family, with fresh random parameters per round, in
a seeded order.  Whole rounds keep the mix of cheap, expensive and capped
ops identical from run to run, which is what keeps seed-to-seed spread low.

Function descriptions:

* ``("zoo", name, k)``           a zoo builder, e.g. ``("zoo", "or", 3)``
* ``("sym", n, profile)``        ``from_spectrum`` of a weight profile
* ``("table", n, defined, values)`` an explicit (partial) truth table
* ``("comp", outer, (inner, ...))`` generalized composition
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

WORKLOADS = ("degree-sym", "degree-generic", "measures", "noisy")

DEGREE, CHAIN, PROR_SUITE, MEASURE, TRIAL = (
    "degree", "chain", "pror-suite", "measure", "trial")

#: Rounds built per run.  A run cycles through them, repeating inputs only
#: when it needs more (``noisy`` at the seed commit, or faster code).
ROUNDS = 4

#: Per-op wall-time cap, per workload.  Each sits at least five times above
#: the slowest op that completes at the seed commit and at least five times
#: below the fastest op that does not, so the failed count repeats exactly.
CAP_S = {
    "degree-sym": 1.5,
    "degree-generic": 5.0,
    "measures": 90.0,
    "noisy": 20.0,
}

#: The pairs of the paper's block-sensitivity chain (acceptance criterion 5).
#: With outer ``or:3`` the first link is the documented known red: the
#: suite reports FAIL with exactly these values, and that is correct output.
CHAIN_PAIRS = (
    ("or:3", "and:2"), ("or:3", "xor:2"), ("xor:2", "and:2"),
    ("xor:2", "xor:2"), ("maj:3", "and:2"), ("maj:3", "xor:2"),
)
KNOWN_RED_CHAIN = {("or:3", "and:2"): (2, 3), ("or:3", "xor:2"): (2, 4)}


@dataclass(frozen=True)
class Op:
    """One call into the package.  ``label`` is canonical: two ops with the
    same label take the same inputs and must give the same answer."""

    kind: str
    label: str
    fns: tuple            # function descriptions the op takes
    extra: tuple = ()     # trial parameters (noisy only)
    group: str = ""       # success-rate group (noisy only)


# ---------------------------------------------------------------------------
# Descriptions
# ---------------------------------------------------------------------------

def zoo(name: str, k: int) -> tuple:
    return ("zoo", name, k)


def parse_zoo(text: str) -> tuple:
    name, k = text.split(":")
    return zoo(name, int(k))


def comp(outer: tuple, inner) -> tuple:
    return ("comp", outer, tuple(inner))


def arity(spec: tuple) -> int:
    kind = spec[0]
    if kind == "zoo":
        name, k = spec[1], spec[2]
        return {"mux": k + (1 << k), "sink": k * (k - 1) // 2,
                "rub": k * k}.get(name, k)
    if kind in ("sym", "table"):
        return spec[1]
    return sum(arity(g) for g in spec[2])


def label(spec: tuple) -> str:
    kind = spec[0]
    if kind == "zoo":
        return f"{spec[1]}:{spec[2]}"
    if kind == "sym":
        return f"sym{spec[1]}:" + "".join("*" if v is None else str(v)
                                          for v in spec[2])
    if kind == "table":
        width = max(1, (1 << spec[1]) // 4)
        return f"tab{spec[1]}:{spec[2]:0{width}x}:{spec[3]:0{width}x}"
    return f"{label(spec[1])}o({','.join(label(g) for g in spec[2])})"


def materialize(spec: tuple, functions):
    """Build the package's ``PartialFn`` for a description."""
    kind = spec[0]
    if kind == "zoo":
        return functions.zoo_function(spec[1], spec[2])
    if kind == "sym":
        return functions.from_spectrum(
            functions.SymmetricSpectrum(spec[1], spec[2]))
    if kind == "table":
        return functions.PartialFn(spec[1], spec[2], spec[3])
    return functions.compose(
        materialize(spec[1], functions),
        [materialize(g, functions) for g in spec[2]])


# ---------------------------------------------------------------------------
# Random families
# ---------------------------------------------------------------------------

def random_profile(rng: random.Random, n: int) -> tuple:
    """Uniform non-constant weight profile."""
    while True:
        prof = tuple(rng.randrange(2) for _ in range(n + 1))
        if len(set(prof)) == 2:
            return prof


def profile_classes(n: int) -> list:
    """The non-constant weight profiles of arity n, grouped into classes
    closed under complement and reversal (w -> n - w).  Members of a class
    have the same approximate degree."""
    seen = set()
    classes = []
    for code in range(1, (1 << (n + 1)) - 1):
        prof = tuple((code >> w) & 1 for w in range(n + 1))
        if prof in seen:
            continue
        neg = tuple(1 - v for v in prof)
        members = sorted({prof, neg, prof[::-1], neg[::-1]})
        seen.update(members)
        classes.append(members)
    return classes


def edge_profiles(n: int) -> list:
    """The non-constant profiles with at most one flip at each end of the
    cube: at weight 0 or 1, and at weight n-2 or n-1 (16 of them).  These
    have approximate degree 2 at n = 7.  A flip at both 0 and 1 (a spike at
    weight 1) raises the degree to 4 and the cost past the cap."""
    out = []
    for low in (None, 0, 1):
        for high in (None, n - 2, n - 1):
            if (low, high) != (None, None):
                out += [profile_from_flips(v, (low, high), n) for v in (0, 1)]
    return out


def mid_profile(rng: random.Random, n: int) -> tuple:
    """Uniform profile among those that flip at some weight k with
    min(k, n - k) >= 3.  Such functions have high approximate degree; at
    n = 9 the seed commit needs minutes for each.  (Profiles that flip only
    near the ends, such as NOR_9 at 1.3 s, are not drawn: their cost is
    too close to the cap.)"""
    while True:
        prof = random_profile(rng, n)
        if any(prof[k] != prof[k + 1] for k in range(n) if min(k, n - k) >= 3):
            return prof


def profile_from_flips(start: int, flips, n: int) -> tuple:
    v = start
    prof = []
    for w in range(n + 1):
        prof.append(v)
        if w in flips:
            v ^= 1
    return tuple(prof)


def threshold_profile(rng: random.Random, n: int) -> tuple:
    """Profile with one or two flips anywhere: thresholds and bands, whose
    minimal sensitive blocks come in many sizes."""
    flips = rng.sample(range(n), rng.choice((1, 2)))
    return profile_from_flips(rng.randrange(2), flips, n)


def random_bits(rng: random.Random, size: int, density: float) -> int:
    bits = 0
    for i in range(size):
        if rng.random() < density:
            bits |= 1 << i
    return bits


def random_table(rng: random.Random, n: int, ones: float,
                 domain: float = 1.0) -> tuple:
    """Table with each input defined with probability ``domain`` and set to 1
    with probability ``ones``; redrawn until non-constant on its domain."""
    size = 1 << n
    while True:
        defined = (1 << size) - 1 if domain >= 1.0 else random_bits(
            rng, size, domain)
        values = random_bits(rng, size, ones) & defined
        if values and values != defined:
            return ("table", n, defined, values)


# ---------------------------------------------------------------------------
# Op builders
# ---------------------------------------------------------------------------

def degree_op(spec: tuple) -> Op:
    return Op(DEGREE, "deg " + label(spec), (spec,))


def chain_op(outer: str, inner: str) -> Op:
    return Op(CHAIN, f"chain {outer} {inner}",
              (parse_zoo(outer), parse_zoo(inner)))


def pror_suite_op(inner) -> Op:
    specs = tuple(parse_zoo(g) for g in inner)
    return Op(PROR_SUITE, "pror-suite " + ",".join(inner), specs)


SMALL_INNER = ("and:2", "or:2", "xor:2", "and:3", "or:3", "maj:3")


def random_pror_inner(rng: random.Random, total: int, sizes) -> list:
    """Inner list for a promise-OR composition of total arity ``total``."""
    while True:
        inner = [rng.choice(SMALL_INNER) for _ in range(rng.choice(sizes))]
        if sum(int(g.split(":")[1]) for g in inner) == total:
            return inner


ZOO_MEMBERS = ("or:4", "or:5", "or:6", "or:7", "and:4", "and:5", "and:6",
               "and:7", "maj:3", "maj:5", "maj:7", "sink:4")
BLOCK_PAIRS = (("and", 2, 2), ("and", 2, 3), ("and", 3, 2), ("and", 4, 2),
               ("xor", 2, 2), ("xor", 3, 2), ("xor", 2, 3))


def degree_sym_round(rng: random.Random, tiny: bool) -> list:
    # Cheap random families are numerous, so that the p50 falls inside the
    # arity-5 cluster and the p90 inside the arity-6/7 cluster rather than
    # on a boundary between families.
    ops = []
    # Every profile at arity 4 and 5, and one random member of each class
    # at arity 6: the cost mix, which the p50 and p90 read, is then the same
    # for every seed.
    for n in (4, 5, 6):
        for members in profile_classes(n)[:1] if tiny else profile_classes(n):
            for prof in members if n < 6 else [rng.choice(members)]:
                ops.append(degree_op(("sym", n, prof)))
    for prof in edge_profiles(7)[:1] if tiny else edge_profiles(7):
        ops.append(degree_op(("sym", 7, prof)))
    for total in (4, 5, 6) * (1 if tiny else 10):
        inner = random_pror_inner(rng, total, (2, 3))
        ops.append(degree_op(comp(zoo("pror", len(inner)),
                                  [parse_zoo(g) for g in inner])))
    # Fixed members: their cost spread is wide (maj:7 takes a hundred times
    # as long as maj:3), so drawing them at random would move the
    # percentiles from seed to seed.
    for name in ZOO_MEMBERS[:1] if tiny else ZOO_MEMBERS:
        ops.append(degree_op(parse_zoo(name)))
    for g, k, m in BLOCK_PAIRS[:1] if tiny else BLOCK_PAIRS:
        ops.append(degree_op(comp(zoo("or", k), [zoo(g, m)] * k)))
    ops.append(chain_op("or:3", "and:2"))
    ops.append(pror_suite_op(
        random_pror_inner(rng, rng.randrange(2, 7), (1, 2, 3))))
    if not tiny:
        ops.append(chain_op(*rng.choice(CHAIN_PAIRS)))
        # The capped tail: inputs above 256 points or of composed arity 9,
        # which the seed commit's primal simplex cannot finish within the
        # cap.  or:11 and sink:5 are in every round, so the peak memory a
        # capped LP reaches does not depend on the seed.
        ops.append(degree_op(zoo("or", 11)))
        ops.append(degree_op(zoo("sink", 5)))
        if rng.randrange(2):
            ops.append(degree_op(("sym", 9, mid_profile(rng, 9))))
        else:
            g = rng.choice(("and", "xor"))
            ops.append(degree_op(comp(zoo("or", 3), [zoo(g, 3)] * 3)))
    return ops


def degree_generic_round(rng: random.Random, tiny: bool) -> list:
    # (arity, ones density, domain density, count).  Arity 7 uses sparse
    # total tables and quarter-domain partial ones: dense arity-7 tables
    # cost 0.4 s to 6 s each, a spread that no seed-steady run could average.
    # The counts put the p50 inside the arity-5 cluster and the p90 inside
    # the arity-6 cluster.
    families = (
        (4, 0.5, 1.0, 40), (4, 0.5, 0.5, 40),
        (5, 0.5, 1.0, 70), (5, 0.5, 0.5, 70),
        (6, 0.5, 1.0, 32), (6, 0.5, 0.5, 32),
        (7, 1 / 16, 1.0, 8), (7, 0.5, 0.25, 8),
    )
    ops = []
    for n, ones, dom, count in families:
        for _ in range(1 if tiny else count):
            ops.append(degree_op(random_table(rng, n, ones, dom)))
    return ops


MEASURE_FIXED = ("maj:11", "mux:3", "sink:5", "maj:13")
#: Fixed zoo members at arity 8-10, 0.1 s to 1 s each at the seed commit.
#: They fill the top tenth of a round next to the slow fixed members, so
#: the p90 reads seed-independent inputs.
MEASURE_LADDER = ("or:8", "and:8", "xor:8", "or:9", "and:9", "xor:9",
                  "maj:9", "rub:3", "or:10", "and:10")
MEASURE_OUTER = ("or", "and", "xor", "maj")


def measure_op(spec: tuple) -> Op:
    return Op(MEASURE, "measure " + label(spec), (spec,))


def random_measure_fn(rng: random.Random, n: int, family: str) -> tuple:
    if family == "sym":
        return ("sym", n, threshold_profile(rng, n))
    if family == "sparse":
        return random_table(rng, n, rng.choice((1 / 16, 1 / 8)))
    # composition of zoo functions: outer of arity k over blocks summing to n
    while True:
        k = rng.choice((2, 3))
        sizes = [1] * k
        for _ in range(n - k):
            sizes[rng.randrange(k)] += 1
        if all(s <= 5 for s in sizes):
            break
    outer = rng.choice(MEASURE_OUTER)
    if outer == "maj" and k == 2:
        outer = "or"
    inner = [zoo(rng.choice(MEASURE_OUTER), s) for s in sizes]
    return comp(zoo(outer, k), inner)


def measures_round(rng: random.Random, tiny: bool) -> list:
    ops = []
    if not tiny:
        ops.extend(measure_op(parse_zoo(name))
                   for name in MEASURE_FIXED + MEASURE_LADDER)
    # arity -> count per family (sym, sparse, comp).  Arity 6 holds most of
    # the ops so that the p50 falls inside its cluster; arity 10 and 11 come
    # from the fixed members, whose cost (3 s to 16 s at the seed commit)
    # would dominate any random draw of them.
    counts = {6: 24, 7: 8, 8: 2, 9: 1}
    for n, count in counts.items():
        for family in ("sym", "sparse", "comp"):
            for _ in range(1 if tiny else count):
                ops.append(measure_op(random_measure_fn(rng, n, family)))
    return ops


NOISY_OUTER = ("or:2", "maj:3", "rub:2")
MAJORITY_T = (16, 64, 256)
WALK_T = 16
#: Low bias below 1/sqrt(16) = 0.25 whose walk barrier
#: floor(1 / (5 sqrt(t) gamma)) is T = 2.
WALK_GAMMA = 0.024


def trial_op(rng: random.Random, outer: str, mode: str, t: int) -> Op:
    """One composed trial on a uniform outer assignment (the outer functions
    are total).  Votes per variable: gamma * sqrt(repeats) = 3, so each
    variable is decoded correctly with probability 0.9987 and every group
    keeps a success rate far above 2/3."""
    spec = parse_zoo(outer)
    n = arity(spec)
    x = rng.randrange(1 << n)
    bits = tuple((x >> i) & 1 for i in range(n))
    gamma = 1.0 / t ** 0.5 if mode == "majority" else WALK_GAMMA
    repeats = int(9.0 / (gamma * gamma)) | 1
    trial_seed = rng.getrandbits(63)
    group = f"{outer} {mode} t={t}"
    return Op(TRIAL,
              f"trial {group} gamma={gamma:.6g} repeats={repeats} "
              f"x={x} seed={trial_seed}",
              (spec,), (mode, t, gamma, repeats, bits, trial_seed), group)


def noisy_round(rng: random.Random, tiny: bool) -> list:
    # Walk-mode trials cost about a second each against a millisecond in
    # majority mode.  Seven per round (three on or:2, the cheapest) fill
    # the top eighth of every run, so the p90 falls inside the or:2
    # walk cluster and measures the walk sampler, and the p50 measures the
    # bridge bookkeeping of majority mode.
    ops = []
    for outer in NOISY_OUTER:
        for t in MAJORITY_T:
            for _ in range(1 if tiny else 5):
                ops.append(trial_op(rng, outer, "majority", t))
        for _ in range(1 if tiny else 3 if outer == "or:2" else 2):
            ops.append(trial_op(rng, outer, "walk", WALK_T))
    return ops


def build_rounds(workload: str, seed: int, tiny: bool = False) -> list:
    """The seeded rounds of a workload.  ``tiny`` keeps one op per family and drops the capped tail and the
    slow fixed members, for the self-test."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rounds = []
    for r in range(1 if tiny else ROUNDS):
        rng = random.Random(f"bfclab-bench:{workload}:{seed}:{r}")
        if workload == "degree-sym":
            ops = degree_sym_round(rng, tiny)
        elif workload == "degree-generic":
            ops = degree_generic_round(rng, tiny)
        elif workload == "measures":
            ops = measures_round(rng, tiny)
        else:
            ops = noisy_round(rng, tiny)
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def op_list_hash(rounds) -> str:
    h = hashlib.sha256()
    for r, ops in enumerate(rounds):
        for op in ops:
            h.update(f"{r}\t{op.label}\n".encode())
    return h.hexdigest()


WARMUP = {
    "degree-sym": degree_op(zoo("or", 3)),
    "degree-generic": degree_op(("table", 3, 0xFF, 0x96)),
    "measures": measure_op(zoo("or", 4)),
    "noisy": Op(TRIAL, "trial warm-up", (zoo("or", 2),),
                ("majority", 16, 0.25, 145, (1, 0), 7), "warm-up"),
}
