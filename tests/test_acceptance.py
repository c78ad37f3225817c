"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not deferred.  Criterion 5 is
asserted exactly as stated and is expected to fail on two of its six
instances: the first chain link compares an unbounded approximation against
a bounded one at the same error budget, which provably reverses for outer
OR_3 at this scale (values cross-certified by two independent LP solvers;
see README, "Known red check").
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from bfclab import approxdeg as A
from bfclab import functions as F
from bfclab import measures as M
from bfclab import noisy as N
from bfclab import verify as V
from bfclab.functions import PartialFn

from conftest import bs_oracle


def report(number: int, label: str, ok: bool, start: float, budget: float,
           detail: str = ""):
    elapsed = time.perf_counter() - start
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label} "
          f"({elapsed:.1f}s / budget {budget:.0f}s) {detail}".rstrip())
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"
    assert ok, f"criterion {number} failed: {label} {detail}"


def _family_3bit():
    return [PartialFn.total(3, t) for t in range(256)]


def _family_4bit(count=500, seed=20240501):
    rng = np.random.default_rng(seed)
    return [
        PartialFn.total(4, int(rng.integers(0, 1 << 16))) for _ in range(count)
    ]


_measure_cache = {}


def _measured_family():
    """s/bs/fbs and the independent packing oracle over the shared family."""
    if "rows" not in _measure_cache:
        rows = []
        for f in _family_3bit() + _family_4bit():
            rows.append(
                (
                    f,
                    M.sensitivity(f),
                    M.block_sensitivity(f),
                    M.fractional_block_sensitivity(f),
                    bs_oracle(f),
                )
            )
        _measure_cache["rows"] = rows
    return _measure_cache["rows"]


def test_criterion_01_measure_order_and_oracle():
    start = time.perf_counter()
    ok = True
    for f, s, bs, fbs, oracle in _measured_family():
        ok = ok and s <= bs <= fbs + 1e-9 <= f.arity + 2e-9
        ok = ok and bs == oracle
    report(1, "measure order s<=bs<=fbs<=n and exact packing-oracle match",
           ok, start, 120.0, detail=f"functions={len(_measured_family())}")


def test_criterion_02_fbs_lp():
    start = time.perf_counter()
    ok = all(fbs >= bs - 1e-9 for _, _, bs, fbs, _ in _measured_family())
    for n in range(1, 7):
        ok = ok and abs(M.fractional_block_sensitivity(F.or_n(n)) - n) <= 1e-6
    report(2, "fbs >= bs everywhere and fbs(OR_n) = n for n <= 6",
           ok, start, 60.0)


def test_criterion_03_adeg_correctness():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        xor = F.xor_n(n)
        if n > 0:
            ok = ok and not A.adeg_feasible(xor, n - 1).feasible
        ok = ok and A.adeg_feasible(xor, n).feasible
        ok = ok and A.adeg(xor) == n
    and_res = A.adeg_feasible(F.and_n(2), 1)
    ok = ok and A.adeg(F.and_n(2)) == 1
    ok = ok and and_res.witness.max_error_on(F.and_n(2)) <= 1 / 3 + 1e-7
    or_degrees = []
    d_prev = 0
    for n in range(1, 11):
        f = F.or_n(n)
        for d in range(d_prev, n + 1):
            if A.adeg_feasible(f, d).feasible:
                or_degrees.append(d)
                d_prev = d
                break
    ok = ok and all(a <= b for a, b in zip(or_degrees, or_degrees[1:]))
    report(3, "adeg(XOR_n)=n (n<=6), adeg(AND_2)=1, adeg(OR_n) nondecreasing",
           ok, start, 600.0, detail=f"or_degrees={or_degrees}")


def test_criterion_04_symmetric_band():
    start = time.perf_counter()
    suite = V.verify_symmetric(n_max=8)
    (band,) = [c for c in suite.checks if c.name == "flip-distance-band"]
    lo, hi = band.values["min_ratio"], band.values["max_ratio"]
    count = band.values["functions"]
    ok = count == 1004 and 0.2 <= lo and hi <= 3.0
    report(4, "flip-distance band within [0.2, 3.0] for all symmetric n<=8",
           ok, start, 900.0,
           detail=f"functions={count} band=[{lo:.4f},{hi:.4f}]")


CHAIN_PAIRS = [
    ("or:3", F.or_n(3), "and:2", F.and_n(2)),
    ("or:3", F.or_n(3), "xor:2", F.xor_n(2)),
    ("xor:2", F.xor_n(2), "and:2", F.and_n(2)),
    ("xor:2", F.xor_n(2), "xor:2", F.xor_n(2)),
    ("maj:3", F.maj_n(3), "and:2", F.and_n(2)),
    ("maj:3", F.maj_n(3), "xor:2", F.xor_n(2)),
]


def test_criterion_05_block_sensitivity_chain():
    start = time.perf_counter()
    violations = []
    for f_name, f, g_name, g in CHAIN_PAIRS:
        if f.arity * g.arity > 9:
            continue
        rep = V.verify_bs_chain(f, g, f_name=f_name, g_name=g_name)
        for check in rep.checks:
            if check.status == "fail":
                violations.append(f"{f_name} o {g_name}: {check.name} {check.values}")
    report(5, "exact integer degree chain holds with zero violations",
           not violations, start, 1200.0,
           detail="; ".join(violations))


def test_criterion_06_amplification_bounds():
    start = time.perf_counter()
    ok = True
    points = 0
    for gamma in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
        kmax = int(1 / (gamma * gamma))
        for k in range(1, kmax + 1, 2):
            gp = N.amplify_bias_exact(gamma, k)
            ok = ok and k * gamma * gamma <= 9 * gp * gp
            ok = ok and gp * gp <= 9 * k * gamma * gamma
            points += 1
    report(6, "majority amplification envelope, exact arithmetic",
           ok, start, 1.0, detail=f"grid={points}")


def test_criterion_07_walk_length():
    start = time.perf_counter()
    ok = True
    cells = 0
    for gamma in (0.02, 0.05, 0.1):
        for t in (4, 16, 64):
            T = N.walk_barrier(gamma, t)
            if T < 1:
                continue
            cells += 1
            m1, m2, within = N.mu_ratio_check(gamma, t)
            ok = ok and within
            _, lengths = N.sample_conditioned_walks(
                gamma, T, 100_000, np.random.default_rng(1000 + cells)
            )
            sigma = lengths.std(ddof=1) / math.sqrt(len(lengths))
            ok = ok and abs(lengths.mean() - m1) <= 3 * sigma + 1e-9
    report(7, "mu_2T <= 12 mu_T and Monte-Carlo walk length within 3 sigma",
           ok, start, 120.0, detail=f"cells={cells}")


def _exact_trace_probs_fraction(gamma: Fraction, T: int, max_len: int):
    """Independent enumeration of the conditioned trace law with exact
    rationals: breadth-first over undecided prefixes."""
    p = (1 + gamma) / 2
    q = 1 - p
    r = ((1 + gamma) / (1 - gamma)) ** T
    p_hit = r / (r + 1)
    probs = {}
    frontier = [((), 0, Fraction(1))]
    for _ in range(max_len):
        nxt = []
        for trace, pos, prob in frontier:
            for step, move, weight in ((1, 1, p), (0, -1, q)):
                t2 = trace + (step,)
                pos2 = pos + move
                pr2 = prob * weight
                if pos2 == T:
                    probs[t2] = pr2 / p_hit
                elif pos2 != -T:
                    nxt.append((t2, pos2, pr2))
        frontier = nxt
    return probs


def test_criterion_08_sampling_correctness():
    start = time.perf_counter()
    gamma, T = 0.2, 2
    samples = 100_000
    probs = _exact_trace_probs_fraction(Fraction(1, 5), T, 6)
    bits, lengths = N.sample_conditioned_walks(
        gamma, T, samples, np.random.default_rng(77)
    )
    counts = V._trace_counts(bits, lengths, max_len=6)
    longer = int((lengths > 6).sum())
    ok = True
    for tr, p in probs.items():
        p = float(p)
        sigma = math.sqrt(samples * p * (1 - p))
        ok = ok and abs(counts.get(tr, 0) - samples * p) <= 3 * sigma
    p_long = 1.0 - float(sum(probs.values()))
    sigma = math.sqrt(samples * p_long * (1 - p_long))
    ok = ok and abs(longer - samples * p_long) <= 3 * sigma

    params = N.WalkParams(0.05, 16)
    bits = N.BiasedBitStream(params, np.random.default_rng(78)).take(1_000_000)
    p1 = (1 + params.gamma_hat) / 2
    ok = ok and abs(bits.mean() - p1) <= 3 * math.sqrt(p1 * (1 - p1) / len(bits))
    report(8, "conditioned traces match exact law; stream bias within 3 sigma",
           ok, start, 120.0, detail=f"traces={len(probs)}")


def test_criterion_09_composed_simulation():
    start = time.perf_counter()
    t = 64
    or2 = F.or_n(2)
    alg = N.MajorityVoteAlgorithm(or2, 1 / math.sqrt(t), 9 * t + 1)
    ok = True
    rates = []
    for x in range(4):
        outer = [(x >> i) & 1 for i in range(2)]
        summary = N.run_composed_trials(alg, or2, outer, t, 1000, seed=8800 + x)
        rates.append(summary.success_rate)
        ok = ok and summary.success_rate >= 2 / 3
        ok = ok and summary.identity_ok
    report(9, "composed OR_2 over gap-majority: success >= 2/3, query identity",
           ok, start, 300.0, detail=f"rates={rates}")


def test_criterion_10_sink_polynomial():
    start = time.perf_counter()
    poly = A.build_sink_polynomial(4, 1 / 3)
    err = poly.max_error_on(F.sink(4))
    ok = err <= 1 / 3 + 1e-9
    ok = ok and M.block_sensitivity(F.sink(4)) >= 3
    report(10, "sink approximant verified pointwise; bs(SINK_4) >= 3",
           ok, start, 60.0, detail=f"max_error={err:.6f} degree={poly.degree}")
