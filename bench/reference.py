"""Independent answer checks for the benchmark.

Nothing here imports ``bfclab``.  Every input is rebuilt from its plain
description with this file's own truth-table code, and every answer is
checked by other means than the package uses:

* degrees: scipy's HiGHS on a minimax program over the +-1 characters,
  built here from the truth table (the package uses AND-monomials and its
  own simplex), solved at the answer ``d`` (must reach the error budget) and
  at ``d - 1`` (must not);
* measures: sensitivity and exact degree recomputed, block sensitivity by a
  subset dynamic program over *all* sensitive blocks and decision-tree depth
  by exhaustive recursion (arity <= 7), witnesses re-validated by direct
  evaluation, the fractional witness proven optimal at its input by HiGHS,
  closed forms for zoo members, and the chain s <= bs <= fbs <= D;
* noisy trials: the exact query identity and the expected output (the
  per-group success rate is checked by the caller).

Each ``check_*`` returns ``None`` when the answer is right and a one-line
reason otherwise.  Checks run after the timed loop and count in no metric
except the failed count.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

EPS = 1.0 / 3.0
#: Degree decisions whose optimal error lies this close to the budget are
#: boundary cases; either answer is accepted there.
BOUNDARY_TOL = 1e-6


def popcount(a: np.ndarray) -> np.ndarray:
    return np.bitwise_count(np.asarray(a, dtype=np.uint64)).astype(np.int64)


def bits_of(x: int, size: int) -> np.ndarray:
    return np.array([(x >> i) & 1 for i in range(size)], dtype=np.int64)


# ---------------------------------------------------------------------------
# Truth tables from descriptions
# ---------------------------------------------------------------------------

def zoo_table(name: str, k: int):
    """(defined, values) of a zoo function, from its definition."""
    if name == "mux":
        n = k + (1 << k)
    elif name == "sink":
        n = k * (k - 1) // 2
    elif name == "rub":
        n = k * k
    else:
        n = k
    x = np.arange(1 << n, dtype=np.int64)
    w = popcount(x)
    full = np.ones(1 << n, dtype=bool)
    if name == "or":
        return full, w >= 1
    if name == "and":
        return full, w == n
    if name == "xor":
        return full, (w % 2) == 1
    if name == "maj":
        return full, 2 * w > n
    if name == "pror":
        return w <= 1, w == 1
    if name == "mux":
        addr = x & ((1 << k) - 1)
        return full, ((x >> (k + addr)) & 1) == 1
    if name == "sink":
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        out = np.zeros(1 << n, dtype=bool)
        for v in range(k):
            ok = np.ones(1 << n, dtype=bool)
            for e, (i, j) in enumerate(edges):
                bit = (x >> e) & 1
                if i == v:          # edge v-j must point into v: j -> v
                    ok &= bit == 0
                elif j == v:        # edge i-v must point into v: i -> v
                    ok &= bit == 1
            out |= ok
        return full, out
    if name == "rub":
        out = np.zeros(1 << n, dtype=bool)
        pairs = {0b11 << i for i in range(k - 1)}
        for b in range(k):
            block = (x >> (b * k)) & ((1 << k) - 1)
            out |= np.isin(block, list(pairs))
        return full, out
    raise ValueError(f"no reference for zoo function {name}")


def table(spec: tuple):
    """(defined, values) boolean arrays of a description."""
    kind = spec[0]
    if kind == "zoo":
        return zoo_table(spec[1], spec[2])
    if kind == "sym":
        n, prof = spec[1], spec[2]
        w = popcount(np.arange(1 << n))
        defined = np.array([prof[i] is not None for i in w])
        values = np.array([prof[i] == 1 for i in w])
        return defined, values & defined
    if kind == "table":
        n = spec[1]
        defined = bits_of(spec[2], 1 << n).astype(bool)
        values = bits_of(spec[3], 1 << n).astype(bool)
        return defined, values
    outer_def, outer_val = table(spec[1])
    inner = [table(g) for g in spec[2]]
    widths = [int(math.log2(len(d))) for d, _ in inner]
    n = sum(widths)
    x = np.arange(1 << n, dtype=np.int64)
    defined = np.ones(1 << n, dtype=bool)
    outer_idx = np.zeros(1 << n, dtype=np.int64)
    shift = 0
    for i, ((g_def, g_val), width) in enumerate(zip(inner, widths)):
        sub = (x >> shift) & ((1 << width) - 1)
        defined &= g_def[sub]
        outer_idx |= g_val[sub].astype(np.int64) << i
        shift += width
    defined &= outer_def[outer_idx]
    return defined, outer_val[outer_idx] & defined


def pack(arr: np.ndarray) -> int:
    return sum(1 << int(i) for i in np.nonzero(arr)[0])


def check_table(spec: tuple, fn) -> str | None:
    """The package's table for ``spec`` must equal the reference table."""
    defined, values = table(spec)
    if fn.arity != int(math.log2(len(defined))):
        return f"arity {fn.arity}, expected {int(math.log2(len(defined)))}"
    if fn.defined != pack(defined) or fn.values != pack(values):
        return "truth table differs from the reference construction"
    return None


# ---------------------------------------------------------------------------
# Approximate degree by HiGHS
# ---------------------------------------------------------------------------

def minimax_error(defined, values, degree: int, bounded: bool) -> float:
    """Least worst-case error of a degree-``degree`` polynomial on the
    domain; with ``bounded`` the polynomial must lie in [0, 1] on every
    point.  Variables: one coefficient per character chi_S, |S| <= degree,
    then the error e; minimize e."""
    from scipy.optimize import linprog

    size = len(defined)
    x = np.arange(size, dtype=np.int64)
    subsets = x[popcount(x) <= degree]
    chi = 1.0 - 2.0 * (popcount(x[:, None] & subsets[None, :]) & 1)
    m = len(subsets)
    dom = np.nonzero(defined)[0]
    f = values[dom].astype(float)
    ones = np.ones((len(dom), 1))
    blocks = [np.hstack([chi[dom], -ones]), np.hstack([-chi[dom], -ones])]
    rhs = [f, -f]
    if bounded:
        zero = np.zeros((size, 1))
        blocks += [np.hstack([chi, zero]), np.hstack([-chi, zero])]
        rhs += [np.ones(size), np.zeros(size)]
    cost = np.zeros(m + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=np.vstack(blocks), b_ub=np.concatenate(rhs),
                  bounds=[(None, None)] * m + [(0, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}")
    return float(res.fun)


def check_degree(spec: tuple, answer, bounded: bool) -> str | None:
    """``answer`` must be the least degree whose minimax error reaches the
    budget: HiGHS at ``answer`` and at ``answer - 1``."""
    defined, values = table(spec)
    n = int(math.log2(len(defined)))
    if not isinstance(answer, (int, np.integer)) or not 0 <= answer <= n:
        return f"degree {answer!r} outside 0..{n}"
    err = minimax_error(defined, values, int(answer), bounded)
    if err > EPS + BOUNDARY_TOL:
        return f"degree {answer} reaches only error {err:.9f}"
    if answer > 0:
        err = minimax_error(defined, values, int(answer) - 1, bounded)
        if err < EPS - BOUNDARY_TOL:
            return f"degree {answer - 1} already reaches error {err:.9f}"
    return None


def check_chain(fns: tuple, checks: dict, known_red) -> str | None:
    """``checks`` maps each check name of the chain report to
    ``(status, values)``.  The exact links must pass; the first link must
    match the pinned known-red values where given and pass elsewhere."""
    outer, inner = fns
    comp = ("comp", outer, (inner,) * outer[2])
    link = checks.get("chain-outer-vs-embedded")
    dominate = checks.get("chain-selectors-dominate-inner")
    if link is None or dominate is None:
        return "chain report lacks its degree links"
    for name in ("rewrite-identity", "chain-embedded-vs-restricted",
                 "chain-restricted-equals-pror-form",
                 "chain-selectors-dominate-inner"):
        if checks.get(name, ("missing",))[0] != "pass":
            return f"exact link {name} did not pass"
    status, values = link
    pair = (values["adeg_fg"], values["bdeg_f_prime_g"])
    if known_red is not None:
        if status != "fail" or pair != known_red:
            return f"known red link gave {status} {pair}, pinned fail {known_red}"
    elif status != "pass":
        return f"first link gave {status} {pair}"
    return (check_degree(comp, values["adeg_fg"], bounded=False)
            or check_degree(inner, dominate[1]["adeg_g"], bounded=False))


def check_pror_suite(fns: tuple, checks: dict) -> str | None:
    name = "composition-dominates-each-inner"
    if checks.get(name, ("missing",))[0] != "pass":
        return f"{name} did not pass"
    if len(fns) == 1 and checks.get("single-inner-collapse",
                                    ("missing",))[0] != "pass":
        return "single-inner-collapse did not pass"
    values = checks[name][1]
    comp = ("comp", ("zoo", "pror", len(fns)), fns)
    err = check_degree(comp, values["bdeg_composition"], bounded=True)
    for g, d in zip(fns, values["bdeg_inner"]):
        err = err or check_degree(g, d, bounded=True)
    return err


# ---------------------------------------------------------------------------
# Exact measures
# ---------------------------------------------------------------------------

def sensitive_blocks(defined, values, x: int) -> np.ndarray:
    """Bool array over blocks B: flipping B keeps x in the domain and
    changes the value."""
    y = x ^ np.arange(len(defined))
    return defined[y] & (values[y] != values[x])


def block_sensitivity_dp(sens: np.ndarray, n: int) -> int:
    """Maximum number of disjoint sensitive blocks, by a dynamic program
    over variable subsets: best[U] packs blocks inside U."""
    best = [0] * (1 << n)
    for u in range(1, 1 << n):
        low = u & -u
        top = best[u ^ low]
        rest = u ^ low
        sub = rest
        while True:  # blocks inside u that contain its lowest variable
            b = sub | low
            if sens[b] and best[u ^ b] + 1 > top:
                top = best[u ^ b] + 1
            if sub == 0:
                break
            sub = (sub - 1) & rest
        best[u] = top
    return best[(1 << n) - 1]


def decision_tree_depth(defined, values) -> int:
    """Exhaustive minimum depth; undefined inputs constrain nothing."""
    @lru_cache(maxsize=None)
    def depth(d: bytes, v: bytes, n: int) -> int:
        dd = np.frombuffer(d, dtype=bool)
        vv = np.frombuffer(v, dtype=bool)
        seen = vv[dd]
        if seen.size == 0 or seen.all() or not seen.any():
            return 0
        best = n
        for i in range(n):
            shape = (1 << (n - 1 - i), 2, 1 << i)
            d3, v3 = dd.reshape(shape), vv.reshape(shape)
            halves = [(np.ascontiguousarray(d3[:, b, :]).tobytes(),
                       np.ascontiguousarray(v3[:, b, :]).tobytes())
                      for b in (0, 1)]
            cand = 1 + max(depth(hd, hv, n - 1) for hd, hv in halves)
            best = min(best, cand)
        return best

    n = int(math.log2(len(defined)))
    return depth(defined.tobytes(), (values & defined).tobytes(), n)


def mobius_degree(values) -> int:
    coeffs = values.astype(np.int64).copy()
    n = int(math.log2(len(values)))
    for i in range(n):
        view = coeffs.reshape(-1, 2, 1 << i)
        view[:, 1, :] -= view[:, 0, :]
    nz = np.nonzero(coeffs)[0]
    return int(popcount(nz).max()) if len(nz) else 0


def sensitivity(defined, values) -> int:
    n = int(math.log2(len(defined)))
    x = np.arange(len(defined))
    counts = np.zeros(len(defined), dtype=np.int64)
    for i in range(n):
        y = x ^ (1 << i)
        counts += defined & defined[y] & (values != values[y])
    return int(counts[defined].max()) if defined.any() else 0


def fbs_at(sens: np.ndarray, n: int) -> float:
    """Fractional block sensitivity at one input, over all sensitive
    blocks, by HiGHS."""
    from scipy.optimize import linprog

    blocks = np.nonzero(sens)[0]
    if len(blocks) == 0:
        return 0.0
    load = ((blocks[None, :] >> np.arange(n)[:, None]) & 1).astype(float)
    res = linprog(-np.ones(len(blocks)), A_ub=load, b_ub=np.ones(n),
                  bounds=[(0, 1)] * len(blocks), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}")
    return float(-res.fun)


def closed_forms(spec: tuple) -> dict:
    """Known values of zoo members: name -> expected measure."""
    if spec[0] != "zoo":
        return {}
    name, k = spec[1], spec[2]
    if name in ("or", "and", "xor"):
        return {"s": k, "bs": k, "fbs": k, "deg": k, "depth": k}
    if name == "maj" and k % 2:
        h = (k + 1) // 2
        return {"s": h, "bs": h, "fbs": h, "depth": k}
    if name == "mux":
        return {"s": k + 1, "bs": k + 1, "fbs": k + 1, "deg": k + 1,
                "depth": k + 1}
    return {}


def validate_family(defined, values, n: int, fam, integral: bool) -> str | None:
    x = fam.input
    if not defined[x]:
        return "witness input outside the domain"
    used = 0
    load = np.zeros(n)
    for b, p in zip(fam.blocks, fam.weights):
        if not 0 < b < (1 << n):
            return f"witness block {b} out of range"
        if not (defined[x ^ b] and values[x ^ b] != values[x]):
            return f"witness block {b:#x} is not sensitive"
        if not 0 < p <= 1:
            return f"witness weight {p} outside (0, 1]"
        if integral and (used & b or p != 1):
            return "integral witness blocks overlap"
        used |= b
        load += p * ((b >> np.arange(n)) & 1)
    if load.max(initial=0.0) > 1 + 1e-9:
        return f"witness overloads a variable: {load.max()}"
    return None


def check_measures(spec: tuple, rep) -> str | None:
    defined, values = table(spec)
    n = int(math.log2(len(defined)))
    if rep.s != sensitivity(defined, values):
        return f"s={rep.s}, reference {sensitivity(defined, values)}"
    total = bool(defined.all())
    if total and rep.deg != mobius_degree(values):
        return f"deg={rep.deg}, reference {mobius_degree(values)}"
    if not total and rep.deg is not None:
        return "exact degree reported for a partial function"
    err = (validate_family(defined, values, n, rep.bs_witness, True)
           or validate_family(defined, values, n, rep.fbs_witness, False))
    if err:
        return err
    if len(rep.bs_witness.blocks) != rep.bs:
        return "bs differs from its witness"
    if abs(sum(rep.fbs_witness.weights) - rep.fbs) > 1e-9:
        return "fbs differs from its witness"
    if not (rep.s <= rep.bs <= rep.fbs + 1e-9 <= rep.depth + 2e-9
            and rep.depth <= n):
        return f"chain s<=bs<=fbs<=D<=n broken: {rep.s} {rep.bs} {rep.fbs} {rep.depth}"
    if total and rep.deg > rep.depth:
        return "deg exceeds D"
    for key, want in closed_forms(spec).items():
        if abs(getattr(rep, key) - want) > 1e-9:
            return f"{key}={getattr(rep, key)}, closed form {want}"
    if n <= 8:
        x = rep.fbs_witness.input
        opt = fbs_at(sensitive_blocks(defined, values, x), n)
        if abs(opt - sum(rep.fbs_witness.weights)) > 1e-6:
            return f"fbs witness not optimal at its input: LP {opt}"
    if n <= 7:
        bs = max(block_sensitivity_dp(sensitive_blocks(defined, values, x), n)
                 for x in np.nonzero(defined)[0])
        if bs != rep.bs:
            return f"bs={rep.bs}, reference {bs}"
        d = decision_tree_depth(defined, values)
        if d != rep.depth:
            return f"D={rep.depth}, reference {d}"
    return None


# ---------------------------------------------------------------------------
# Noisy trials
# ---------------------------------------------------------------------------

def check_trial(spec: tuple, extra: tuple, trial) -> str | None:
    mode, t, gamma, repeats, bits, _ = extra
    defined, values = table(spec)
    x = sum(b << i for i, b in enumerate(bits))
    if not defined[x]:
        return "outer assignment outside the domain"
    if trial.expected != int(values[x]):
        return f"expected {trial.expected}, reference {int(values[x])}"
    if trial.output not in (0, 1):
        return f"output {trial.output!r} is not a bit"
    if trial.composed_queries != t * trial.block_reads + trial.single_reads:
        return "query identity composed == t*block_reads + single_reads broken"
    if trial.block_reads != 0 or trial.single_reads <= 0:
        return "low-bias algorithm made full block reads"
    return None
