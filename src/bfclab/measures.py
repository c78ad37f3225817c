"""Exact combinatorial complexity measures.

Sensitivity, block sensitivity and its LP relaxation, exact multilinear
degree, decision-tree depth, and the flip-position parameter of symmetric
functions.  Block sensitivity enumerates minimal sensitive blocks per input
(a maximum disjoint packing over all sensitive blocks can always be retracted
to minimal ones, and a minimal sub-block never carries a larger per-index
load, so minimal blocks also suffice as LP columns; ``tests/test_measures.py``
checks this against the all-blocks LP at small arity).  Both witness
searches visit only the smallest input of each orbit of the interchangeable
variables and the declared generators (``functions.symmetry_orbits``),
where bs and fbs are constant; ``measure_function`` finds all their blocks
in one packed search, and both solve them by descending packing bound.

Flips that leave the domain of a partial function do not count as sensitive.
Witnesses are the smallest input of largest bs, and the smallest input whose
fbs is within 1e-9 of the largest, with blocks ascending by (size, mask).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from . import linprog
from .functions import (
    ArityLimitError,
    PartialFn,
    SymmetricSpectrum,
    bits_to_array,
    interchangeable_classes,
    subset_transform,
    symmetry_orbits,
    variable_orbits,
    zero_masks,
)

#: Default cap for the exponential searches (block packing, tree depth).
DEFAULT_SEARCH_ARITY = 14
#: Table bits that one packed block search holds, at most.
_BATCH_BITS = 1 << 20


def _check_search_arity(f: PartialFn, max_arity: int) -> None:
    if f.arity > max_arity:
        raise ArityLimitError(
            f"arity {f.arity} exceeds the search bound {max_arity}"
        )


# ---------------------------------------------------------------------------
# Sensitivity
# ---------------------------------------------------------------------------

def sensitivity(f: PartialFn) -> int:
    value, _ = sensitivity_witness(f)
    return value


def sensitivity_witness(f: PartialFn) -> tuple[int, int | None]:
    """Maximum sensitivity and the smallest input achieving it."""
    vals = f.value_array().astype(np.int8)
    dom = f.defined_array().astype(bool)
    idx = np.arange(1 << f.arity)
    counts = np.zeros(1 << f.arity, dtype=np.int64)
    for i in range(f.arity):
        flip = idx ^ (1 << i)
        counts += dom & dom[flip] & (vals != vals[flip])
    counts[~dom] = -1
    best = int(counts.max())
    if best < 0:
        return 0, None  # empty domain
    return best, int(np.argmax(counts == best))


# ---------------------------------------------------------------------------
# Block sensitivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class BlockFamily:
    """A witness family of sensitive blocks at a base input.

    Blocks are variable-index bitmasks; integral families have all weights 1
    and pairwise disjoint blocks, fractional families satisfy a per-index
    load of at most 1.
    """

    input: int
    blocks: tuple
    weights: tuple

    @property
    def total_weight(self) -> float:
        return float(sum(self.weights))

    def validate(self, f: PartialFn) -> None:
        base = f.eval(self.input)
        if base is None:
            raise ValueError("base input outside the domain")
        for b, p in zip(self.blocks, self.weights):
            if not 0 < p <= 1:
                raise ValueError(f"block weight {p} outside (0, 1]")
            flipped = f.eval(self.input ^ b)
            if flipped is None or flipped == base:
                raise ValueError(f"block {b:#x} is not sensitive")
        for i in range(f.arity):
            load = sum(p for b, p in zip(self.blocks, self.weights) if (b >> i) & 1)
            if load > 1 + 1e-9:
                raise ValueError(f"variable {i} overloaded: {load}")


def _minimal_blocks(f: PartialFn, xs: list[int]) -> list[list[int]]:
    """:func:`minimal_sensitive_blocks` at each of ``xs``, by one packed
    search per ``_BATCH_BITS`` table bits.  Each input's tables are
    translated by it (delta swaps), so that bit ``b`` of its sensitive table
    marks block ``b``, and laid end to end in slots of ``2**n`` bits (a byte
    at least).  The masks of the subset-OR (zeta) transform repeat per slot,
    so ``n`` word-parallel shifts mark every mask of every slot that
    contains a sensitive block; a sensitive block is minimal when no mask
    one variable smaller is marked.  One unpack and one sort by (input,
    size, mask) give each input's blocks."""
    n, width = f.arity, max(f.arity, 3)   # log2 of a slot's bits
    per = max(1, _BATCH_BITS >> width)
    arity = width + (min(per, len(xs)) - 1).bit_length()
    zero, out = zero_masks(arity), []
    for start in range(0, len(xs), per):
        tables = []
        for x in xs[start : start + per]:
            value = f.eval(x)
            if value is None:
                raise ValueError(f"input {x} outside the domain")
            defined, values = f.defined, f.values
            for i in range(n):
                if (x >> i) & 1:
                    step, low = 1 << i, zero[i]
                    defined = ((defined & low) << step) | ((defined >> step) & low)
                    values = ((values & low) << step) | ((values >> step) & low)
            sensitive = defined & ~values if value else values
            tables.append(sensitive.to_bytes(1 << width >> 3, "little"))
        sensitive = covers = int.from_bytes(b"".join(tables), "little")
        for i in range(n):
            covers |= (covers & zero[i]) << (1 << i)
        below = 0
        for i in range(n):
            below |= (covers & zero[i]) << (1 << i)
        found = np.flatnonzero(bits_to_array(sensitive & ~below, arity))
        row, block = found >> width, found & ((1 << width) - 1)
        blocks = block[np.lexsort((block, np.bitwise_count(block), row))].tolist()
        ends = row.searchsorted(np.arange(1, len(tables) + 1)).tolist()
        out += [blocks[a:b] for a, b in zip([0] + ends, ends)]
    return out


def minimal_sensitive_blocks(f: PartialFn, x: int) -> list[int]:
    """Inclusion-minimal variable sets whose flip changes ``f`` at ``x``,
    ascending by (size, mask): :func:`_minimal_blocks` at one input.
    Raises ``ValueError`` if ``x`` is outside the domain."""
    return _minimal_blocks(f, [x])[0]


def max_disjoint_packing(blocks: list[int]) -> list[int]:
    """Largest pairwise-disjoint subfamily of non-empty blocks, by branch and
    bound on an explicit stack.

    Blocks are scanned in ascending order and a family is extended by its
    next compatible block first, so the first maximum found is the
    lexicographically smallest one.  Extending from block ``j`` on adds at
    most the free variables of ``blocks[j:]`` divided by the size of the
    smallest of them."""
    blocks = sorted(blocks)
    m = len(blocks)
    cover, least = [0] * (m + 1), [0] * m
    for j in range(m - 1, -1, -1):
        cover[j] = cover[j + 1] | blocks[j]
        size = blocks[j].bit_count()
        least[j] = size if j == m - 1 else min(size, least[j + 1])
    limit = cover[0].bit_count() // least[0] if m else 0
    best: list[int] = []
    path: list[int] = []   # indices of the chosen blocks
    used = [0]             # variables taken by path[:k], for each depth k
    j = 0
    while len(best) < limit:
        taken = used[-1]
        while j < m and blocks[j] & taken:
            j += 1
        room = (cover[j] & ~taken).bit_count() // least[j] if j < m else 0
        if len(path) + room > len(best):
            path.append(j)
            used.append(taken | blocks[j])
            if len(path) > len(best):
                best = [blocks[i] for i in path]
            j += 1
        elif path:
            j = path.pop() + 1
            used.pop()
        else:
            break
    return best


def orbit_blocks(f: PartialFn) -> list[tuple[int, list[int]]]:
    """``(x, minimal_sensitive_blocks(f, x))`` for the smallest input ``x``
    of each orbit of the domain under the permutations of interchangeable
    variables and the declared generators of ``f``, ascending, by one
    :func:`_minimal_blocks` search: bs and fbs are constant on orbits, so
    these are the witness searches' inputs."""
    _, minima = symmetry_orbits(f, interchangeable_classes(f))
    minima = minima[f.defined_array()[minima].astype(bool)].tolist()
    return list(zip(minima, _minimal_blocks(f, minima)))


def _packing_ceiling(blocks: list[int]) -> float:
    """An upper bound on the integral and the fractional packing of
    ``blocks`` (ascending by size).  A packing loads each variable with at
    most 1, so its weight is at most the size of any variable set that
    meets every block (one is picked greedily), and at most the number of
    covered variables over the size of the smallest block."""
    if not blocks:
        return 0
    cover = hit = 0
    for b in blocks:
        cover |= b
        if not b & hit:
            hit |= b & -b
    return min(hit.bit_count(), cover.bit_count() / blocks[0].bit_count())


def _first_best(f: PartialFn, blocks, family, slack: float,
                ceilings=None) -> BlockFamily:
    """``family(x, found, arity)`` at the smallest ``(x, found)`` of
    ``blocks`` (:func:`orbit_blocks` of ``f`` if None) whose value is within
    ``slack`` of the largest.  Inputs are solved by descending
    :func:`_packing_ceiling` (``ceilings``, one per entry of ``blocks``, if
    given) until none beats the best value by more than ``slack``, then
    ascending where the ceiling comes within it."""
    blocks = orbit_blocks(f) if blocks is None else blocks
    if ceilings is None:
        ceilings = [_packing_ceiling(found) for _, found in blocks]
    solved, best = {}, float("-inf")
    for k in sorted(range(len(blocks)), key=ceilings.__getitem__, reverse=True):
        if ceilings[k] <= best + slack:
            break
        solved[k] = family(*blocks[k], f.arity)
        best = max(best, solved[k].total_weight)
    for k, (x, found) in enumerate(blocks):
        if ceilings[k] >= best - slack:
            fam = solved[k] if k in solved else family(x, found, f.arity)
            if fam.total_weight >= best - slack:
                return fam
    return BlockFamily(0, (), ())


def _bs_family(x: int, blocks: list[int], arity: int) -> BlockFamily:
    packing = max_disjoint_packing(blocks)
    return BlockFamily(x, tuple(packing), (1.0,) * len(packing))


def block_sensitivity_at(f: PartialFn, x: int,
                         max_arity: int = DEFAULT_SEARCH_ARITY) -> BlockFamily:
    _check_search_arity(f, max_arity)
    return _bs_family(x, minimal_sensitive_blocks(f, x), f.arity)


def block_sensitivity_witness(f: PartialFn,
                              max_arity: int = DEFAULT_SEARCH_ARITY,
                              blocks=None, ceilings=None) -> BlockFamily:
    """Global maximum over the domain; the smallest achieving input wins
    ties.  ``blocks`` is :func:`orbit_blocks` of ``f`` and ``ceilings``
    their packing ceilings when the caller has them; :func:`_first_best`
    finds it with slack 0.5, as bs is an integer."""
    _check_search_arity(f, max_arity)
    return _first_best(f, blocks, _bs_family, 0.5, ceilings)


def block_sensitivity(f: PartialFn, x: int | None = None,
                      max_arity: int = DEFAULT_SEARCH_ARITY) -> int:
    if x is not None:
        return len(block_sensitivity_at(f, x, max_arity).blocks)
    return len(block_sensitivity_witness(f, max_arity).blocks)


# ---------------------------------------------------------------------------
# Fractional block sensitivity
# ---------------------------------------------------------------------------

def fbs_program(blocks: list[int], arity: int) -> linprog.LinearProgram:
    """Weight-packing LP: maximize the total block weight subject to a unit
    load on every variable some block touches.  Those rows already cap each
    weight at 1, so the program has no upper bounds."""
    masks = np.asarray(blocks, dtype=np.int64)
    rows = ((masks >> np.arange(arity)[:, None]) & 1).astype(float)
    rows = rows[rows.any(axis=1)]
    return linprog.LinearProgram.build(
        objective=np.ones(len(masks)), rows=rows, rhs=np.ones(len(rows))
    )


def _fbs_family(x: int, blocks: list[int], arity: int) -> BlockFamily:
    if not blocks:
        return BlockFamily(x, (), ())
    lp = fbs_program(blocks, arity)
    outcome = linprog.solve(lp)
    if not outcome.optimal:
        raise linprog.SimplexError(f"fbs LP ended {outcome.status}")
    ok, worst = linprog.check_certificate(lp, outcome.solution)
    if not ok:
        raise linprog.SimplexError(
            f"fbs LP optimum violates its program by {worst:.3g}"
        )
    keep = [
        (b, 1.0 if p >= 1.0 else float(p))
        for b, p in zip(blocks, outcome.solution)
        if p > 1e-12
    ]
    return BlockFamily(x, tuple(b for b, _ in keep), tuple(p for _, p in keep))


def fractional_block_sensitivity_at(
    f: PartialFn, x: int, max_arity: int = DEFAULT_SEARCH_ARITY
) -> BlockFamily:
    _check_search_arity(f, max_arity)
    return _fbs_family(x, minimal_sensitive_blocks(f, x), f.arity)


def fractional_block_sensitivity(
    f: PartialFn, x: int | None = None, max_arity: int = DEFAULT_SEARCH_ARITY
) -> float:
    if x is not None:
        return fractional_block_sensitivity_at(f, x, max_arity).total_weight
    return fractional_block_sensitivity_witness(f, max_arity).total_weight


def fractional_block_sensitivity_witness(
    f: PartialFn, max_arity: int = DEFAULT_SEARCH_ARITY, blocks=None,
    ceilings=None
) -> BlockFamily:
    """Global maximum over the domain; the smallest input within 1e-9 of
    the maximum wins.  ``blocks`` is :func:`orbit_blocks` of ``f`` and
    ``ceilings`` their packing ceilings when the caller has them.  An
    input's LP is solved only if its ceiling can come within 1e-9 of the
    maximum (:func:`_first_best`)."""
    _check_search_arity(f, max_arity)
    return _first_best(f, blocks, _fbs_family, 1e-9, ceilings)


# ---------------------------------------------------------------------------
# Exact degree and decision-tree depth
# ---------------------------------------------------------------------------

def multilinear_coefficients(f: PartialFn) -> np.ndarray:
    """Integer coefficients of the unique multilinear representation, indexed
    by variable-subset bitmask (inclusion-exclusion over sub-inputs)."""
    if not f.is_total:
        raise ValueError("exact degree requires a total function")
    return subset_transform(f.value_array().astype(np.int64), -1)


def exact_degree(f: PartialFn) -> int:
    """Degree of the unique multilinear representation of a total function."""
    coeffs = multilinear_coefficients(f)
    nz = np.nonzero(coeffs)[0]
    if len(nz) == 0:
        return 0
    return max(int(s).bit_count() for s in nz)


def _restriction_index(arity: int) -> np.ndarray:
    """Gather index over the flattened pair of tables (domain, values) of a
    function: entry ``[i, b, t, k]`` is where entry ``k`` of table ``t`` of
    the restriction ``x_i = b`` sits."""
    k = np.arange(1 << (arity - 1))
    i = np.arange(arity)[:, None]
    pos = (k & ((1 << i) - 1)) | ((k >> i) << (i + 1))
    idx = np.stack([pos, pos | (1 << i)], axis=1)
    return np.stack([idx, idx + (1 << arity)], axis=2)


def _depth(tables: np.ndarray, memo: dict, index: dict, tries=None) -> int:
    """Decision-tree depth of the subfunction with tables (domain, values),
    which is not constant on its domain, querying first only the variables
    ``tries`` (all of them by default)."""
    key = tables.tobytes()
    hit = memo.get(key)
    if hit is not None:
        return hit
    arity = (tables.size // 2).bit_length() - 1
    if arity not in index:
        index[arity] = _restriction_index(arity)
    kids = tables.reshape(-1)[index[arity]]
    dom, val = kids[:, :, 0], kids[:, :, 1]
    mixed = (val.any(axis=2) & (dom & ~val).any(axis=2)).tolist()
    best = arity if all(m0 or m1 for m0, m1 in mixed) else 1
    for i in range(arity) if tries is None else tries:
        if best == 1:
            break
        deeper = 0
        for b in (0, 1):
            if mixed[i][b]:
                deeper = max(deeper, _depth(kids[i, b], memo, index))
                if deeper + 1 >= best:
                    break
        best = min(best, deeper + 1)
    memo[key] = best
    return best


def decision_tree_depth(f: PartialFn, max_arity: int = DEFAULT_SEARCH_ARITY) -> int:
    """Exact deterministic query complexity, by memoized recursion over
    one-variable restrictions.  Undefined inputs constrain nothing.

    A subfunction is its pair of tables (domain, values), and one gather
    gives the tables of all its one-variable restrictions.  A variable's
    second restriction is skipped once the first already rules the variable
    out, so the memo only ever holds exact depths.

    The first query tries one variable per orbit of the variables under
    the interchangeable classes and the declared generators (which fix
    ``f``, checked when it was built): a signed permutation that fixes
    ``f`` and sends ``x_i`` to ``x_j`` maps the restrictions ``x_i = 0, 1``
    onto ``x_j = 0, 1``, so both queries leave the same depth."""
    _check_search_arity(f, max_arity)
    if f.is_constant():
        return 0
    orbit = variable_orbits(f, interchangeable_classes(f))
    tries = [i for i, r in enumerate(orbit) if r == i]
    tables = np.stack([f.defined_array(), f.value_array()]).astype(bool)
    return _depth(tables, {}, {}, tries)


# ---------------------------------------------------------------------------
# Symmetric flip-position parameter
# ---------------------------------------------------------------------------

def paturi_gamma(spec: SymmetricSpectrum) -> int:
    """Distance parameter of a non-constant total symmetric function: over
    weights ``k`` where the profile changes between ``k`` and ``k+1``, the
    largest value of ``min(k, n-k)``.

    This equals the usual "flip position nearest n/2" form: candidates
    equidistant from n/2 on either side give the same value.
    """
    if not spec.is_total:
        raise ValueError("flip parameter requires a total symmetric function")
    if spec.is_constant():
        raise ValueError("flip parameter undefined for constant functions")
    n = spec.arity
    flips = [k for k in range(n) if spec.profile[k] != spec.profile[k + 1]]
    return max(min(k, n - k) for k in flips)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

CSV_FIELDS = ("name", "n", "s", "bs", "fbs", "deg", "D")


@dataclass(slots=True)
class MeasureReport:
    """Per-function record of the exact measures.  ``bs``/``fbs``/``depth``
    are None when the arity exceeds the search bound, ``deg`` is None for
    partial functions."""

    name: str
    arity: int
    s: int
    bs: int | None
    fbs: float | None
    deg: int | None
    depth: int | None
    bs_witness: BlockFamily | None = None
    fbs_witness: BlockFamily | None = None

    def __post_init__(self) -> None:
        if self.bs is not None and self.s > self.bs:
            raise ValueError("sensitivity exceeds block sensitivity")
        if (
            self.bs is not None
            and self.fbs is not None
            and self.bs > self.fbs + 1e-9
        ):
            raise ValueError("block sensitivity exceeds its LP relaxation")

    def csv_row(self) -> dict:
        return {
            "name": self.name,
            "n": self.arity,
            "s": self.s,
            "bs": "" if self.bs is None else self.bs,
            "fbs": "" if self.fbs is None else f"{self.fbs:.6f}",
            "deg": "" if self.deg is None else self.deg,
            "D": "" if self.depth is None else self.depth,
        }

    def json_doc(self) -> dict:
        doc = {
            "name": self.name,
            "n": self.arity,
            "s": self.s,
            "bs": self.bs,
            "fbs": self.fbs,
            "deg": self.deg,
            "D": self.depth,
        }
        if self.bs_witness is not None:
            doc["bs_witness"] = {
                "input": self.bs_witness.input,
                "blocks": list(self.bs_witness.blocks),
            }
        if self.fbs_witness is not None:
            doc["fbs_witness"] = {
                "input": self.fbs_witness.input,
                "blocks": list(self.fbs_witness.blocks),
                "weights": list(self.fbs_witness.weights),
            }
        return doc


def measure_function(
    f: PartialFn, name: str = "", max_arity: int = DEFAULT_SEARCH_ARITY
) -> MeasureReport:
    """Compute every measure that fits within the search bound (a full
    degree is the depth, as deg(f) <= D(f) <= arity, with no search)."""
    s, _ = sensitivity_witness(f)
    deg = exact_degree(f) if f.is_total else None
    bs_fam = fbs_fam = None
    depth = None
    if f.arity <= max_arity:
        blocks = orbit_blocks(f)
        ceilings = [_packing_ceiling(found) for _, found in blocks]
        bs_fam = block_sensitivity_witness(f, max_arity, blocks, ceilings)
        fbs_fam = fractional_block_sensitivity_witness(f, max_arity, blocks,
                                                       ceilings)
        depth = deg if deg == f.arity else decision_tree_depth(f, max_arity)
    return MeasureReport(
        name=name,
        arity=f.arity,
        s=s,
        bs=None if bs_fam is None else len(bs_fam.blocks),
        fbs=None if fbs_fam is None else fbs_fam.total_weight,
        deg=deg,
        depth=depth,
        bs_witness=bs_fam,
        fbs_witness=fbs_fam,
    )


def reports_to_csv(reports) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for rep in reports:
        writer.writerow(rep.csv_row())
    return out.getvalue()


def reports_to_json(reports) -> str:
    return json.dumps([rep.json_doc() for rep in reports], indent=2) + "\n"
