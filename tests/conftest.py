"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately re-derive quantities from first principles
(exhaustive enumeration, exact rational linear algebra) so that the package's
optimized paths are checked against something that shares no code with them.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from bfclab import approxdeg
from bfclab.functions import ZOO, PartialFn, zoo_function


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts from an empty group cache, so the order in which
    tests run cannot change what one of them sees."""
    approxdeg._GROUPS.clear()


def random_total_fn(rng, arity: int) -> PartialFn:
    return PartialFn.total(arity, int(rng.integers(0, 1 << (1 << arity))))


def random_partial_fn(rng, arity: int) -> PartialFn:
    size = 1 << arity
    defined = int(rng.integers(1, 1 << size))
    values = int(rng.integers(0, 1 << size)) & defined
    return PartialFn(arity, defined, values)


def zoo_members(max_arity: int) -> list[PartialFn]:
    """Every zoo function of arity at most ``max_arity``, ``pror_shifted``
    at the shifts 1 and all-ones (gap-majority starts at arity 16)."""
    arity = {"mux": lambda k: k + (1 << k), "sink": lambda k: k * (k - 1) // 2,
             "rub": lambda k: k * k, "gapmaj": lambda t: 16}
    members = []
    for name in sorted(ZOO):
        for p in range(2 if name == "sink" else 1, max_arity + 1):
            if arity.get(name, lambda n: n)(p) > max_arity:
                continue
            shifts = [(1,), ((1 << p) - 1,)] if name == "pror_shifted" else [()]
            members += [zoo_function(name, p, *a) for a in shifts]
    return members


# -- block sensitivity oracle -------------------------------------------------

def all_sensitive_blocks(f: PartialFn, x: int) -> list[int]:
    """Every non-empty block whose flip changes f at x (not just minimal)."""
    fx = f.eval(x)
    assert fx is not None
    out = []
    for block in range(1, 1 << f.arity):
        fy = f.eval(x ^ block)
        if fy is not None and fy != fx:
            out.append(block)
    return out


def bs_oracle_at(f: PartialFn, x: int) -> int:
    """Exhaustive maximum disjoint packing over ALL sensitive blocks."""
    blocks = all_sensitive_blocks(f, x)

    def best_from(i: int, used: int) -> int:
        if i == len(blocks):
            return 0
        score = best_from(i + 1, used)
        if not blocks[i] & used:
            score = max(score, 1 + best_from(i + 1, used | blocks[i]))
        return score

    return best_from(0, 0)


def bs_oracle(f: PartialFn) -> int:
    return max((bs_oracle_at(f, x) for x in f.domain()), default=0)


def depth_oracle(f: PartialFn) -> int:
    """Minimum decision-tree depth by plain recursion over partial
    assignments, each read back with per-input evaluation."""

    def depth(fixed: dict) -> int:
        free = [i for i in range(f.arity) if i not in fixed]
        base = sum(b << i for i, b in fixed.items())
        seen = set()
        for sub in range(1 << len(free)):
            x = base | sum(((sub >> j) & 1) << i for j, i in enumerate(free))
            seen.add(f.eval(x))
        if len(seen - {None}) <= 1:
            return 0
        return min(
            1 + max(depth({**fixed, i: 0}), depth({**fixed, i: 1}))
            for i in free
        )

    return depth({})


# -- composition oracle --------------------------------------------------------

def naive_compose_eval(outer: PartialFn, inner: list[PartialFn], x: int):
    """Per-input interpreter for generalized composition."""
    shift = 0
    outer_input = 0
    for i, g in enumerate(inner):
        sub = (x >> shift) & ((1 << g.arity) - 1)
        v = g.eval(sub)
        if v is None:
            return None
        outer_input |= v << i
        shift += g.arity
    return outer.eval(outer_input)


# -- exact conditioned-walk statistics ----------------------------------------

def _solve_fraction_system(a, b):
    """Gaussian elimination over Fractions."""
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1, 1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * p for v, p in zip(m[r], m[col])]
    return [row[-1] for row in m]


def conditional_walk_mean_exact(gamma: Fraction, T: int) -> Fraction:
    """Expected conditioned-walk length via the absorbing-chain equations,
    exactly: h(s) = P_s(hit +T first), e(s) = E_s[steps; hit +T first],
    answer e(0)/h(0)."""
    p = (1 + gamma) / 2
    q = 1 - p
    states = list(range(-T + 1, T))  # transient positions
    idx = {s: i for i, s in enumerate(states)}
    n = len(states)

    def h_row(s):
        row = [Fraction(0)] * n
        rhs = Fraction(0)
        row[idx[s]] = Fraction(1)
        if s + 1 == T:
            rhs += p
        else:
            row[idx[s + 1]] -= p
        if s - 1 != -T:
            row[idx[s - 1]] -= q
        return row, rhs

    a, b = zip(*(h_row(s) for s in states))
    h = _solve_fraction_system(list(a), list(b))

    def e_row(s):
        # e(s) = p (1{s+1=T} + e(s+1) + h(s+1)·1) ... expanded with the
        # convention e(T) = 0, h(T) = 1, e(-T) = h(-T) = 0:
        #   e(s) = p·(e(s+1) + h(s+1)) + q·(e(s-1) + h(s-1))
        row = [Fraction(0)] * n
        rhs = Fraction(0)
        row[idx[s]] = Fraction(1)
        if s + 1 == T:
            rhs += p  # e(T) + h(T) = 0 + 1
        else:
            row[idx[s + 1]] -= p
            rhs += p * h[idx[s + 1]]
        if s - 1 != -T:
            row[idx[s - 1]] -= q
            rhs += q * h[idx[s - 1]]
        return row, rhs

    a, b = zip(*(e_row(s) for s in states))
    e = _solve_fraction_system(list(a), list(b))
    return e[idx[0]] / h[idx[0]]


# -- exact majority-vote bias by outcome enumeration ---------------------------

def majority_bias_enumerated(gamma: Fraction, k: int) -> Fraction:
    """Bias of the k-vote majority by summing over all 2^k outcome strings."""
    p = (1 + gamma) / 2
    total = Fraction(0)
    for outcome in range(1 << k):
        ones = outcome.bit_count()
        if 2 * ones > k:
            total += p**ones * (1 - p) ** (k - ones)
    return 2 * total - 1


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
