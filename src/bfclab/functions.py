"""Total and partial Boolean functions as packed bit tables.

A function on n variables is stored as two ``2**n``-bit masks held in Python
integers: ``defined`` marks the domain and ``values`` holds the outputs on it.
Variable 0 is the least significant bit of the input index, so input ``x`` with
bits ``(x_0, ..., x_{n-1})`` lives at index ``sum(x_i << i)``.  Undefined
entries of ``values`` are always zero, which makes structural equality equal
to semantic equality.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Largest arity for which full truth tables may be materialized.
DEFAULT_MAX_ARITY = 24

STAR = None  # value returned for inputs outside the domain


class ArityLimitError(ValueError):
    """A table of more than ``2**max_arity`` entries was requested."""


class PolynomialVerificationError(Exception):
    """A constructed polynomial failed, or could not be given, its pointwise
    check, or a declared symmetry does not fix its function."""


def _check_arity(arity: int, max_arity: int = DEFAULT_MAX_ARITY) -> None:
    if not 0 <= arity:
        raise ValueError(f"arity must be non-negative, got {arity}")
    if arity > max_arity:
        raise ArityLimitError(f"arity {arity} exceeds bound {max_arity}")


def bits_to_array(bits: int, arity: int) -> np.ndarray:
    """Unpack a table integer into a uint8 array of length ``2**arity``."""
    size = 1 << arity
    nbytes = (size + 7) >> 3
    raw = bits.to_bytes(nbytes, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:size]

def array_to_bits(arr: np.ndarray) -> int:
    """Pack a 0/1 array back into a table integer."""
    packed = np.packbits(np.asarray(arr, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")

@functools.cache
def zero_masks(arity: int) -> tuple[int, ...]:
    """Per variable ``i``, the table mask of the inputs with ``x_i = 0``: a
    pattern of period ``2**(i+1)`` built by doubling."""
    out = []
    for i in range(arity):
        mask, width = (1 << (1 << i)) - 1, 2 << i
        while width < 1 << arity:
            mask |= mask << width
            width <<= 1
        out.append(mask)
    return tuple(out)


def signed_permute(bits: int, arity: int, perm, neg: int) -> int:
    """The table ``bits`` read through the signed permutation ``(perm,
    neg)`` of :class:`PartialFn` (``perm`` empty for the identity): bit
    ``x`` of the result is bit ``sigma(x)`` of ``bits``.  By delta swaps:
    one per transposition that sorts ``perm``, one per bit of ``neg``."""
    zero, neg, p = zero_masks(arity), int(neg), [int(v) for v in perm]
    swaps = []
    for i, j in enumerate(p):
        if j != i:   # i < j: swap variables i and j; then p fixes i
            p[p.index(i)], p[i] = j, i
            # the inputs with x_i = 1, x_j = 0 trade with those 2^j - 2^i up
            swaps.append((zero[j] ^ zero[j] & zero[i], (1 << j) - (1 << i)))
    swaps += [(zero[i], 1 << i) for i in range(arity) if neg >> i & 1]
    for low, shift in swaps:
        d = (bits ^ bits >> shift) & low
        bits ^= d ^ d << shift
    return bits


def subset_transform(table: np.ndarray, sign: int = 1) -> np.ndarray:
    """In place on a table of length ``2**n``: entry ``x`` becomes the sum
    of the entries at the subsets of ``x`` (``sign`` 1), or the inverse,
    the Mobius transform (``sign`` -1).  Returns ``table``."""
    step = 1
    while step < len(table):
        view = table.reshape(-1, 2 * step)
        view[:, step:] += sign * view[:, :step]
        step *= 2
    return table


def hamming_weights(arity: int) -> np.ndarray:
    """Popcount of every input index, as an int array of length ``2**arity``."""
    return np.bitwise_count(np.arange(1 << arity)).astype(np.int64)


@dataclass(frozen=True)
class PartialFn:
    """A (possibly partial) Boolean function on ``arity`` variables.

    ``defined`` and ``values`` are ``2**arity``-bit integers; bit ``x`` of
    ``values`` is meaningful only where bit ``x`` of ``defined`` is set.
    Instances are immutable; every transform returns a new function, with
    no generators, and :func:`compose` declares the block symmetries of
    its result.

    ``generators`` declares signed permutations ``(perm, neg)`` of the
    inputs that fix the function: bit ``i`` of ``x``, flipped where ``neg``
    has a one, moves to bit ``perm[i]``.  Building the function checks that
    each fixes its domain and values (:func:`signed_permute`, else
    :class:`PolynomialVerificationError`).  They serve the orbit reductions,
    not the function: equality, hashing and ``repr`` ignore them.
    """

    arity: int
    defined: int
    values: int
    generators: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        _check_arity(self.arity)
        full = (1 << (1 << self.arity)) - 1
        if not 0 <= self.defined <= full:
            raise ValueError("domain mask out of range for arity")
        if self.values & ~self.defined:
            raise ValueError("values set outside the domain mask")
        for perm, neg in self.generators:
            if (sorted(perm) != list(range(self.arity))
                    or not 0 <= neg < 1 << self.arity):
                raise ValueError(f"generator {(perm, neg)} is not a signed "
                                 f"permutation of {self.arity} variables")
            if any(signed_permute(t, self.arity, perm, neg) != t
                   for t in (self.defined, self.values)):
                raise PolynomialVerificationError(
                    f"declared generator {(tuple(perm), neg)} does not fix f")

    # -- constructors ----------------------------------------------------

    @classmethod
    def total(cls, arity: int, values: int) -> "PartialFn":
        """Total function from a table integer (all inputs defined)."""
        full = (1 << (1 << arity)) - 1
        return cls(arity, full, values & full)

    @classmethod
    def from_entries(cls, arity: int, entries: Mapping[int, int]) -> "PartialFn":
        """Partial function defined exactly on the keys of ``entries``."""
        defined = 0
        values = 0
        for x, v in entries.items():
            if not 0 <= x < (1 << arity):
                raise ValueError(f"input index {x} out of range")
            defined |= 1 << x
            if v:
                values |= 1 << x
        return cls(arity, defined, values)

    # -- basic queries ----------------------------------------------------

    @property
    def is_total(self) -> bool:
        return self.defined == (1 << (1 << self.arity)) - 1

    @property
    def dom_size(self) -> int:
        return self.defined.bit_count()

    def eval(self, x: int):
        """Value at input index ``x``: 0, 1, or ``STAR`` outside the domain."""
        if not 0 <= x < (1 << self.arity):
            raise ValueError(f"input index {x} out of range for arity {self.arity}")
        if not (self.defined >> x) & 1:
            return STAR
        return (self.values >> x) & 1

    def domain(self) -> Iterable[int]:
        """Indices in the domain, ascending."""
        d = self.defined
        while d:
            low = d & -d
            yield low.bit_length() - 1
            d ^= low

    def is_constant(self) -> bool:
        """True when the function takes at most one value on its domain."""
        return self.values == 0 or self.values == self.defined

    def value_array(self) -> np.ndarray:
        return bits_to_array(self.values, self.arity)

    def defined_array(self) -> np.ndarray:
        return bits_to_array(self.defined, self.arity)

    # -- pointwise transforms ----------------------------------------------

    def negate(self) -> "PartialFn":
        """Complement the output on the domain."""
        return PartialFn(self.arity, self.defined, self.values ^ self.defined)

    def xor_shift(self, a: int) -> "PartialFn":
        """Pre-compose with the input translation ``x -> x ^ a``."""
        if not 0 <= a < (1 << self.arity):
            raise ValueError(f"shift {a} out of range for arity {self.arity}")
        return PartialFn(self.arity, *(signed_permute(t, self.arity, (), a)
                                       for t in (self.defined, self.values)))

    def permute(self, perm: Sequence[int]) -> "PartialFn":
        """Relabel variables: variable ``i`` of the result is variable
        ``perm[i]`` of ``self``."""
        if sorted(perm) != list(range(self.arity)):
            raise ValueError("perm must be a permutation of range(arity)")
        return PartialFn(self.arity, *(signed_permute(t, self.arity, perm, 0)
                                       for t in (self.defined, self.values)))

    def restrict(self, fixing: Mapping[int, int]) -> "PartialFn":
        """Fix the given variables to constants; remaining variables keep
        their relative order."""
        for i, b in fixing.items():
            if not 0 <= i < self.arity:
                raise ValueError(f"variable {i} out of range")
            if b not in (0, 1):
                raise ValueError("fixed values must be bits")
        free = [i for i in range(self.arity) if i not in fixing]
        src = (sum(b << i for i, b in fixing.items())
               | _moved(np.arange(1 << len(free)), free))
        return PartialFn(len(free), array_to_bits(self.defined_array()[src]),
                         array_to_bits(self.value_array()[src]))


def compose(
    outer: PartialFn,
    inner: Sequence[PartialFn],
    max_arity: int = DEFAULT_MAX_ARITY,
) -> PartialFn:
    """Substitute ``inner[i]`` for variable ``i`` of ``outer``.

    The composed function is undefined wherever some inner input falls outside
    its domain, or the tuple of inner outputs falls outside the outer domain.
    Inner functions may have distinct arities; inner block ``i`` occupies the
    lower-to-higher index bits in order.

    The result declares the block permutations that fix it (variable ``v``
    of block ``i`` goes to variable ``v`` of block ``s(i)``): per class of
    :func:`interchangeable_classes` of ``outer`` and per inner function
    repeated in it, the swap of its first two blocks and the cycle through
    all of them; each unsigned declared generator of ``outer`` that maps
    every block onto an equal one; and the declared generators of each
    inner function, within its block.
    """
    if len(inner) != outer.arity:
        raise ValueError(
            f"need {outer.arity} inner functions, got {len(inner)}"
        )
    total = sum(g.arity for g in inner)
    _check_arity(total, max_arity)
    idx = np.arange(1 << total)
    outer_idx = np.zeros(1 << total, dtype=np.int64)
    all_def = np.ones(1 << total, dtype=bool)
    shift = 0
    for i, g in enumerate(inner):
        sub = (idx >> shift) & ((1 << g.arity) - 1)
        all_def &= g.defined_array()[sub].astype(bool)
        outer_idx |= g.value_array()[sub].astype(np.int64) << i
        shift += g.arity
    defined = all_def & outer.defined_array()[outer_idx].astype(bool)
    values = defined & outer.value_array()[outer_idx].astype(bool)
    return PartialFn(total, array_to_bits(defined), array_to_bits(values),
                     _block_generators(outer, inner))


def _block_generators(outer: PartialFn, inner: Sequence[PartialFn]) -> tuple:
    """The generators :func:`compose` declares (see there)."""
    starts = list(itertools.accumulate((g.arity for g in inner), initial=0))

    def lift(s):   # block i to block s[i]
        return tuple(starts[j] + v for i, j in enumerate(s)
                     for v in range(inner[i].arity))

    moves = []
    for cls in interchangeable_classes(outer):
        equal: dict = {}
        for i in cls:
            equal.setdefault(inner[i], []).append(i)
        for blocks in equal.values():
            for cycle in (blocks[:2], blocks)[:len(blocks) - 1]:
                s = list(range(outer.arity))
                for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                    s[i] = j
                moves.append((lift(s), 0))
    moves += [(lift(s), 0) for s, neg in outer.generators
              if neg == 0 and all(inner[j] == g for j, g in zip(s, inner))]
    for i, g in enumerate(inner):
        for perm, neg in g.generators:
            whole = list(range(starts[-1]))
            whole[starts[i]:starts[i + 1]] = [starts[i] + p for p in perm]
            moves.append((tuple(whole), neg << starts[i]))
    return tuple(moves)


def interchangeable_classes(f: PartialFn) -> list[list[int]]:
    """The variables of ``f`` grouped by the transpositions that fix it,
    values and domain both, each class ascending and the classes ordered by
    their first variable.

    Being fixed by ``(i j)`` is an equivalence relation on the variables
    (``(i k) = (i j)(j k)(i j)``), so each variable is compared with one
    representative per class found so far: at most ``n * k`` comparisons,
    each of two table masks against themselves shifted.
    """
    zero = zero_masks(f.arity)

    def swap_fixes(r, i):
        # r < i: (r i) moves the inputs with x_i = 1, x_r = 0 down by
        # 2^i - 2^r onto those with x_r = 1, x_i = 0, and back
        moved, shift = zero[r] & ~zero[i], (1 << i) - (1 << r)
        return all(
            (t & moved) >> shift == t & (moved >> shift)
            for t in (f.defined, f.values)
        )

    classes: list[list[int]] = []
    for i in range(f.arity):
        for cls in classes:
            if swap_fixes(cls[0], i):
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes


def _moved(masks: np.ndarray, perm) -> np.ndarray:
    """``masks`` with bit ``i`` moved to bit ``perm[i]``."""
    out = np.zeros_like(masks)
    for i, p in enumerate(perm):
        out |= ((masks >> i) & 1) << p
    return out


def _signed_permutation_image(arity: int, perm, neg: int) -> np.ndarray:
    """The image of every input under the signed permutation ``(perm, neg)``
    (see :class:`PartialFn`)."""
    return _moved(np.arange(1 << arity) ^ neg, perm)


def _class_minima(masks: np.ndarray, classes) -> np.ndarray:
    """The least mask that permutations within the classes make of each of
    ``masks``: the ones of each class moved onto its lowest variables."""
    wide = [cls for cls in classes if len(cls) > 1]
    out = masks & ~sum(1 << i for cls in wide for i in cls)
    for cls in wide:
        prefix = np.cumsum([0] + [1 << i for i in cls])
        out |= prefix[np.bitwise_count(masks & int(prefix[-1]))]
    return out


def _swaps(masks: np.ndarray, classes) -> list[np.ndarray]:
    """The images of ``masks`` under the transpositions of neighbouring
    variables within each class."""
    return [masks ^ (((masks >> lo) ^ (masks >> hi)) & 1) * (1 << lo | 1 << hi)
            for cls in classes for lo, hi in zip(cls, cls[1:])]


def _least_labels(label: np.ndarray, maps) -> np.ndarray:
    """Min-label propagation: every element takes the least label among its
    images under ``maps`` (permutations as index arrays), then the label of
    its label, until nothing changes.  From labels in the orbit and no
    larger than the element, labels only fall and stay in the orbit, and
    the fixed point is constant along every cycle of every map: the least
    element of the orbit."""
    while True:
        joined = label
        for image in maps:
            joined = np.minimum(joined, joined[image])
        joined = joined[joined]
        if np.array_equal(joined, label):
            return label
        label = joined


def symmetry_orbits(f: PartialFn, classes) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the cube under the group generated by the declared
    generators of ``f`` and the permutations within each class of
    ``classes`` (a partition of the variables).  Returns ``(orbit,
    minima)``: the smallest input of the orbit of every input, and those
    minima ascending.  The generators fix ``f`` (checked when ``f`` was
    built); the classes are the caller's.

    The class permutations alone move the ones of each class onto its
    lowest variables; generators, and then the class transpositions, join
    those orbits by :func:`_least_labels`.
    """
    idx = np.arange(1 << f.arity)
    orbit = _class_minima(idx, classes)
    if f.generators:
        maps = [_signed_permutation_image(f.arity, perm, neg)
                for perm, neg in f.generators]
        orbit = _least_labels(orbit, maps + _swaps(idx, classes))
    return orbit, np.flatnonzero(orbit == idx)


def variable_orbits(f: PartialFn, classes) -> list[int]:
    """The least variable of the orbit of each variable of ``f`` under the
    permutations within each class of ``classes`` and the declared
    generators of ``f``, by union-find with each set labelled by its least
    variable."""
    orbit = list(range(f.arity))
    for pair in ([(cls[0], i) for cls in classes for i in cls]
                 + [(i, p) for perm, _ in f.generators
                    for i, p in enumerate(perm)]):
        a, b = sorted(orbit[i] for i in pair)
        orbit = [a if r == b else r for r in orbit]
    return orbit


def subset_positions(subsets: np.ndarray, masks) -> np.ndarray:
    """Where each of ``masks`` stands in ``subsets``, which holds subsets
    of at most ``DEFAULT_MAX_ARITY`` variables ascending by size, then by
    mask, and every mask asked for."""
    keys = [np.bitwise_count(m).astype(np.int64) << DEFAULT_MAX_ARITY | m
            for m in (subsets, masks)]
    return np.searchsorted(*keys)


def subset_orbits(generators, classes, subsets: np.ndarray) -> np.ndarray:
    """Orbits of the signed subsets ``±S`` of ``subsets`` (ascending by
    size, then by mask, and closed under the group) under the group that
    the signed permutations ``generators`` and the permutations within each
    class generate: element ``2 k + s``, standing for ``(-1)^s`` times
    subset ``k``, gets the least element of its orbit.  The group acts on
    the products ``b_S`` of ``x_i`` over ``S`` outside a set ``N`` closed
    under it that holds every negated variable, and of ``1 - 2 x_i`` over
    ``S`` inside ``N``: ``(perm, neg)`` maps ``b_perm(S)`` to
    ``(-1)^|S ∩ neg| b_S``, so ``±S`` share an orbit when ``b_S``
    averages to 0."""
    def signed(masks, flip=0):   # element 2k + s goes to the image
        return ((2 * subset_positions(subsets, masks) + flip)[:, None]
                ^ np.array([0, 1])).ravel()

    label = signed(_class_minima(subsets, classes))
    maps = [signed(_moved(subsets, perm), np.bitwise_count(subsets & neg) & 1)
            for perm, neg in generators]
    if generators:
        maps += [signed(image) for image in _swaps(subsets, classes)]
    return _least_labels(label, maps)


# ---------------------------------------------------------------------------
# Symmetric and junta-symmetric descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricSpectrum:
    """A weight profile: entry ``w`` is the value on inputs of Hamming weight
    ``w`` (0, 1, or None for undefined)."""

    arity: int
    profile: tuple

    def __post_init__(self) -> None:
        _check_arity(self.arity)
        if len(self.profile) != self.arity + 1:
            raise ValueError("profile must have arity + 1 entries")
        if any(e not in (0, 1, None) for e in self.profile):
            raise ValueError("profile entries must be 0, 1, or None")

    @property
    def is_total(self) -> bool:
        return all(e is not None for e in self.profile)

    def is_constant(self) -> bool:
        seen = {e for e in self.profile if e is not None}
        return len(seen) <= 1


@dataclass(frozen=True)
class JuntaSymmetricSpec:
    """A function of ``k`` designated variables plus the Hamming weight of the
    whole input: one weight profile per junta assignment."""

    arity: int
    junta: tuple
    table: tuple  # one SymmetricSpectrum (arity = whole-input arity) per assignment

    def __post_init__(self) -> None:
        _check_arity(self.arity)
        k = len(self.junta)
        if sorted(set(self.junta)) != sorted(self.junta):
            raise ValueError("junta variables must be distinct")
        if any(not 0 <= j < self.arity for j in self.junta):
            raise ValueError("junta variable out of range")
        if len(self.table) != 1 << k:
            raise ValueError(f"need {1 << k} spectra, got {len(self.table)}")
        for spec in self.table:
            if spec.arity != self.arity:
                raise ValueError("each spectrum must cover the whole input weight")

    def is_strongly_symmetric(self) -> bool:
        """True when some junta assignment leaves a non-constant dependence on
        the weight, restricted to the weights that assignment can reach."""
        k = len(self.junta)
        for a in range(1 << k):
            base = a.bit_count()
            reachable = self.table[a].profile[base : base + self.arity - k + 1]
            seen = {e for e in reachable if e is not None}
            if len(seen) > 1:
                return True
        return False


def from_spectrum(spec: SymmetricSpectrum) -> PartialFn:
    """Materialize a symmetric function from its weight profile."""
    w = hamming_weights(spec.arity)
    prof_def = np.array([e is not None for e in spec.profile])
    prof_val = np.array([1 if e == 1 else 0 for e in spec.profile])
    return PartialFn(
        spec.arity,
        array_to_bits(prof_def[w]),
        array_to_bits(prof_def[w] & prof_val[w].astype(bool)),
    )


def from_junta_spec(spec: JuntaSymmetricSpec) -> PartialFn:
    """Materialize a junta-symmetric function."""
    n = spec.arity
    idx = np.arange(1 << n)
    w = hamming_weights(n)
    assign = np.zeros(1 << n, dtype=np.int64)
    for pos, j in enumerate(spec.junta):
        assign |= ((idx >> j) & 1) << pos
    defined = np.zeros(1 << n, dtype=bool)
    values = np.zeros(1 << n, dtype=bool)
    for a in range(1 << len(spec.junta)):
        mask = assign == a
        prof = spec.table[a].profile
        prof_def = np.array([e is not None for e in prof])
        prof_val = np.array([e == 1 for e in prof])
        defined[mask] = prof_def[w[mask]]
        values[mask] = prof_def[w[mask]] & prof_val[w[mask]]
    return PartialFn(n, array_to_bits(defined), array_to_bits(values))


# ---------------------------------------------------------------------------
# Function zoo
# ---------------------------------------------------------------------------

def or_n(n: int) -> PartialFn:
    """OR of n variables."""
    _check_arity(n)
    return PartialFn.total(n, ((1 << (1 << n)) - 1) & ~1)

def and_n(n: int) -> PartialFn:
    """AND of n variables."""
    _check_arity(n)
    return PartialFn.total(n, 1 << ((1 << n) - 1))

def xor_n(n: int) -> PartialFn:
    """Parity of n variables."""
    _check_arity(n)
    return PartialFn.total(n, array_to_bits(hamming_weights(n) & 1))

def maj_n(n: int) -> PartialFn:
    """Strict majority of n variables (intended for odd n)."""
    _check_arity(n)
    return PartialFn.total(n, array_to_bits(2 * hamming_weights(n) > n))

def pror(n: int) -> PartialFn:
    """Promise OR: 0 on the all-zeros input, 1 on weight-one inputs,
    undefined elsewhere."""
    _check_arity(n)
    w = hamming_weights(n)
    return PartialFn(n, array_to_bits(w <= 1), array_to_bits(w == 1))

def pror_shifted(n: int, a: int) -> PartialFn:
    """Promise OR pre-composed with the translation ``x -> x ^ a``.

    Besides the permutations within the shifted and within the unshifted
    variables it is fixed by the transposition of a shifted and an
    unshifted variable that negates both, which it declares."""
    f = pror(n).xor_shift(a)
    if not 0 < a < (1 << n) - 1:
        return f
    i, j = (a & -a).bit_length() - 1, (~a & (a + 1)).bit_length() - 1
    perm = list(range(n))
    perm[i], perm[j] = j, i
    neg = (1 << i) | (1 << j)
    return PartialFn(n, f.defined, f.values, ((tuple(perm), neg),))


def gapmaj_weights(t: int) -> tuple[int, int]:
    """Admissible promised weights for a gap-majority of arity ``t``.

    Requires ``t = 4*s*s`` with ``s >= 2`` so that ``t/2 - 2*sqrt(t)`` and
    ``t/2 + 2*sqrt(t)`` are integers inside ``[0, t]``; any other ``t`` is
    rejected rather than rounded.
    """
    if t < 16:
        raise ValueError(f"gap-majority arity must be at least 16, got {t}")
    s = math.isqrt(t // 4)
    if 4 * s * s != t or s < 2:
        raise ValueError(
            f"gap-majority arity must be 4*s^2 with s >= 2, got {t}"
        )
    half, gap = t // 2, 4 * s
    return half - gap, half + gap

def gapmaj(t: int) -> PartialFn:
    """Gap-majority: 1 at promised high weight, 0 at promised low weight,
    undefined elsewhere."""
    lo, hi = gapmaj_weights(t)
    _check_arity(t)
    w = hamming_weights(t)
    return PartialFn(t, array_to_bits((w == lo) | (w == hi)), array_to_bits(w == hi))


def mux(k: int) -> PartialFn:
    """Multiplexer on ``k + 2**k`` variables: the first k variables address
    which of the remaining ``2**k`` data variables is output.

    A signed permutation of the address bits that moves the data bits
    along with the addresses fixes it.  It declares the generators of that
    group (order ``2**k * k!``): the negation of address bit 0, the swap
    of bits 0 and 1, and the k-cycle of the address bits."""
    n = k + (1 << k)
    _check_arity(n)
    idx = np.arange(1 << n)
    addr = idx & ((1 << k) - 1)
    out = (idx >> (k + addr)) & 1
    generators = []
    for s, neg in [((*range(k),), 1), ((1, 0, *range(2, k)), 0),
                   ((*range(1, k), 0), 0)][:k]:
        data = [sum((((a ^ neg) >> i) & 1) << s[i] for i in range(k))
                for a in range(1 << k)]
        generators.append(((*s, *(k + d for d in data)), neg))
    full = (1 << (1 << n)) - 1
    return PartialFn(n, full, array_to_bits(out), tuple(generators))


def sink_edge_vars(k: int) -> list[tuple[int, int]]:
    """Edge variable order for a k-vertex tournament: pairs (i, j) with
    i < j, lexicographic; variable value 1 orients the edge i -> j."""
    return [(i, j) for i in range(k) for j in range(i + 1, k)]

def sink(k: int) -> PartialFn:
    """Tournament sink detector on ``k*(k-1)/2`` edge variables: 1 iff some
    vertex has all incident edges incoming.

    Relabeling the vertices fixes it.  It declares the generators of that
    action, the swap (0 1) and the k-cycle: a vertex map ``s`` sends edge
    ``(i, j)`` to edge ``{s(i), s(j)}``, negated when ``s(i) > s(j)``."""
    pairs = sink_edge_vars(k)
    n = len(pairs)
    _check_arity(n)
    idx = np.arange(1 << n)
    is_sink_somewhere = np.zeros(1 << n, dtype=bool)
    for v in range(k):
        must_zero = 0  # edges v -> j (j > v) must be absent
        must_one = 0   # edges i -> v (i < v) must be present
        for e, (i, j) in enumerate(pairs):
            if i == v:
                must_zero |= 1 << e
            elif j == v:
                must_one |= 1 << e
        is_sink_somewhere |= ((idx & must_zero) == 0) & ((idx & must_one) == must_one)
    edge = {pair: e for e, pair in enumerate(pairs)}
    generators = []
    for s in ((1, 0, *range(2, k)), (*range(1, k), 0)) if k > 1 else ():
        perm = tuple(edge[min(s[i], s[j]), max(s[i], s[j])] for i, j in pairs)
        neg = sum(1 << e for e, (i, j) in enumerate(pairs) if s[i] > s[j])
        generators.append((perm, neg))
    full = (1 << (1 << n)) - 1
    return PartialFn(n, full, array_to_bits(is_sink_somewhere), tuple(generators))


def rub(k: int) -> PartialFn:
    """Rubinstein function on ``k*k`` variables: OR of k copies of the
    k-bit indicator of "exactly two consecutive ones"."""
    _check_arity(k * k)
    inner = 0
    for i in range(k - 1):
        inner |= 1 << (0b11 << i)
    g = PartialFn.total(k, inner)
    return compose(or_n(k), [g] * k)


ZOO = {
    "or": or_n,
    "and": and_n,
    "xor": xor_n,
    "maj": maj_n,
    "pror": pror,
    "pror_shifted": pror_shifted,
    "gapmaj": gapmaj,
    "mux": mux,
    "sink": sink,
    "rub": rub,
}

def zoo_function(name: str, *params: int) -> PartialFn:
    """Build a zoo function from its name and integer parameters."""
    if name not in ZOO:
        raise ValueError(f"unknown zoo function {name!r} (choices: {sorted(ZOO)})")
    return ZOO[name](*params)


# ---------------------------------------------------------------------------
# Function spec files
# ---------------------------------------------------------------------------

def mask_to_hex(bits: int, arity: int) -> str:
    """Bit-exact hex encoding of a table: byte 0 holds input indices 0-7,
    least significant bit first."""
    nbytes = ((1 << arity) + 7) >> 3
    return bits.to_bytes(nbytes, "little").hex()

def mask_from_hex(s: str) -> int:
    return int.from_bytes(bytes.fromhex(s), "little")


def _profile_from_str(s: str) -> tuple:
    return tuple(None if c == "*" else int(c) for c in s)


def function_to_doc(f: PartialFn, name: str = "") -> dict:
    """JSON-serializable document for a materialized function."""
    doc = {
        "kind": "table",
        "arity": f.arity,
        "table": mask_to_hex(f.values, f.arity),
        "defined": mask_to_hex(f.defined, f.arity),
    }
    if name:
        doc["name"] = name
    return doc


def function_from_doc(doc: Mapping) -> PartialFn:
    """Parse a function spec document (kinds: table, symmetric, junta, zoo)."""
    if not isinstance(doc, Mapping):
        raise ValueError(
            f"function spec must be a JSON object, not {type(doc).__name__}"
        )
    kind = doc.get("kind", "table")
    if kind == "table":
        arity = int(doc["arity"])
        values = mask_from_hex(doc["table"])
        defined_hex = doc.get("defined")
        if defined_hex is None:
            return PartialFn.total(arity, values)
        return PartialFn(arity, mask_from_hex(defined_hex), values)
    if kind == "symmetric":
        return from_spectrum(
            SymmetricSpectrum(int(doc["arity"]), _profile_from_str(doc["profile"]))
        )
    if kind == "junta":
        arity = int(doc["arity"])
        spectra = tuple(
            SymmetricSpectrum(arity, _profile_from_str(s)) for s in doc["table"]
        )
        return from_junta_spec(
            JuntaSymmetricSpec(arity, tuple(doc["junta"]), spectra)
        )
    if kind == "zoo":
        params = doc.get("params", [])
        if isinstance(params, Mapping):
            params = list(params.values())
        return zoo_function(doc["name"], *(int(p) for p in params))
    raise ValueError(f"unknown function kind {kind!r}")


def save_function(f: PartialFn, path, name: str = "") -> None:
    with open(path, "w") as fh:
        json.dump(function_to_doc(f, name), fh, indent=2, sort_keys=True)
        fh.write("\n")

def load_function(path) -> PartialFn:
    with open(path) as fh:
        return function_from_doc(json.load(fh))
