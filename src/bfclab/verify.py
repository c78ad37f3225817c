"""Verification suites: exactly-checkable inequality chains and recorded
ratio studies.

Each suite produces a :class:`VerificationReport`.  Checks are either
``pass``/``fail`` (exact facts at stated tolerances) or ``recorded`` (ratio
studies whose hidden constants make pass/fail meaningless; they never affect
the exit code).  Reports serialize without wall-clock fields so that equal
seeds and inputs give byte-identical output.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import approxdeg, measures, noisy
from .functions import (
    DEFAULT_MAX_ARITY,
    ArityLimitError,
    JuntaSymmetricSpec,
    PartialFn,
    SymmetricSpectrum,
    compose,
    from_junta_spec,
    from_spectrum,
    gapmaj_weights,
    interchangeable_classes,
    pror,
    sink,
)

PASS, FAIL, RECORDED = "pass", "fail", "recorded"


@dataclass
class CheckResult:
    name: str
    status: str
    values: dict = field(default_factory=dict)
    tolerance: float | None = None
    runtime: float = 0.0


@dataclass
class VerificationReport:
    suite: str
    checks: list = field(default_factory=list)

    def add(self, name, status, values=None, tolerance=None, runtime=0.0):
        self.checks.append(
            CheckResult(name, status, values or {}, tolerance, runtime)
        )

    @property
    def failed(self) -> bool:
        return any(c.status == FAIL for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def sorted_checks(self):
        return sorted(self.checks, key=lambda c: c.name)

    def to_text(self) -> str:
        lines = [f"suite {self.suite}"]
        for c in self.sorted_checks():
            vals = " ".join(
                f"{k}={_fmt(v)}" for k, v in sorted(c.values.items())
            )
            tol = f" tol={c.tolerance:g}" if c.tolerance is not None else ""
            lines.append(f"[{c.status.upper():8s}] {c.name}{tol} {vals}".rstrip())
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "suite": self.suite,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "values": {k: _fmt(v) for k, v in sorted(c.values.items())},
                    "tolerance": c.tolerance,
                }
                for c in self.sorted_checks()
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.9g}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(str(_fmt(x)) for x in v) + "]"
    return v


def _status(ok: bool) -> str:
    return PASS if ok else FAIL


# ---------------------------------------------------------------------------
# Block-sensitivity chain
# ---------------------------------------------------------------------------

@dataclass
class BsChainParts:
    """The embedding extracted from a maximum block-sensitivity witness."""

    base_input: int
    blocks: tuple
    f_prime: PartialFn     # 0 at the base input, 1 at each block flip
    f_dprime: PartialFn    # f_prime with the untouched variables fixed
    selectors: tuple       # per block: 0 on its base pattern, 1 on its flip


def bs_chain_parts(f: PartialFn) -> BsChainParts:
    if f.is_constant():
        raise ValueError("non-constant outer function required")
    fam = measures.block_sensitivity_witness(f)
    a = fam.input
    entries = {a: 0}
    for b in fam.blocks:
        entries[a ^ b] = 1
    f_prime = PartialFn.from_entries(f.arity, entries)
    union = 0
    for b in fam.blocks:
        union |= b
    fixing = {i: (a >> i) & 1 for i in range(f.arity) if not (union >> i) & 1}
    f_dprime = f_prime.restrict(fixing)
    selectors = []
    for b in fam.blocks:
        vars_b = [i for i in range(f.arity) if (b >> i) & 1]
        base = 0
        for pos, i in enumerate(vars_b):
            base |= ((a >> i) & 1) << pos
        flip = base ^ ((1 << len(vars_b)) - 1)
        selectors.append(PartialFn.from_entries(len(vars_b), {base: 0, flip: 1}))
    return BsChainParts(a, fam.blocks, f_prime, f_dprime, tuple(selectors))


def _selector_permutation(parts: BsChainParts, arity: int) -> list:
    """Permutation aligning the concatenated per-block variables with the
    ascending union order used by the restricted function."""
    concat = []
    for b in parts.blocks:
        concat.extend(i for i in range(arity) if (b >> i) & 1)
    union = sorted(concat)
    return [concat.index(v) for v in union]


def verify_bs_chain(
    f: PartialFn, g: PartialFn, eps: float = approxdeg.DEFAULT_EPS,
    f_name: str = "f", g_name: str = "g", max_arity: int = 12
) -> VerificationReport:
    """Exact integer chain linking the approximate degree of ``f ∘ g`` to the
    promise-OR embedding extracted from a maximum block-sensitivity witness
    of ``f``."""
    report = VerificationReport(f"bs-chain {f_name} o {g_name}")
    if f.is_constant():
        raise ValueError("non-constant outer function required")
    if g.is_constant():
        raise ValueError("non-constant inner function required")
    if f.arity * g.arity > max_arity:
        raise measures.ArityLimitError(
            f"composed arity {f.arity * g.arity} exceeds bound {max_arity}"
        )
    parts = bs_chain_parts(f)
    b = len(parts.blocks)

    # a scan is deterministic, so each distinct function is decided once:
    # when the blocks cover every variable f''∘g is f'∘g, and the promise-OR
    # form and the selectors often repeat a function too
    decided = {}

    def bdeg(h):
        if h not in decided:
            decided[h] = approxdeg.bdeg(h, eps)
        return decided[h]

    start = time.perf_counter()
    fg = compose(f, [g] * f.arity)
    adeg_fg = approxdeg.adeg(fg, eps) if fg.is_total else bdeg(fg)
    bdeg_fpg = bdeg(compose(parts.f_prime, [g] * f.arity))
    bdeg_fdg = bdeg(compose(parts.f_dprime, [g] * parts.f_dprime.arity))
    sel_g = [
        compose(sel, [g] * sel.arity) for sel in parts.selectors
    ]
    bdeg_chain = bdeg(compose(pror(b), sel_g))
    bdeg_sel = [bdeg(h) for h in sel_g]
    adeg_g = approxdeg.adeg(g, eps) if g.is_total else bdeg(g)
    elapsed = time.perf_counter() - start

    rewrite = compose(pror(b), list(parts.selectors)).permute(
        _selector_permutation(parts, f.arity)
    )
    report.add(
        "rewrite-identity",
        _status(rewrite == parts.f_dprime),
        {"blocks": b, "base_input": parts.base_input},
        runtime=elapsed,
    )
    report.add(
        "chain-outer-vs-embedded",
        _status(adeg_fg >= bdeg_fpg),
        {"adeg_fg": adeg_fg, "bdeg_f_prime_g": bdeg_fpg},
    )
    report.add(
        "chain-embedded-vs-restricted",
        _status(bdeg_fpg >= bdeg_fdg),
        {"bdeg_f_prime_g": bdeg_fpg, "bdeg_f_dprime_g": bdeg_fdg},
    )
    report.add(
        "chain-restricted-equals-pror-form",
        _status(bdeg_fdg == bdeg_chain),
        {"bdeg_f_dprime_g": bdeg_fdg, "bdeg_pror_form": bdeg_chain},
    )
    report.add(
        "chain-selectors-dominate-inner",
        _status(all(d >= adeg_g for d in bdeg_sel)),
        {"bdeg_selectors": list(bdeg_sel), "adeg_g": adeg_g},
    )
    return report


# ---------------------------------------------------------------------------
# Promise-OR composition study
# ---------------------------------------------------------------------------

def verify_pror(
    inner: list, inner_names: list | None = None,
    eps: float = approxdeg.DEFAULT_EPS, max_arity: int = 12
) -> VerificationReport:
    """Bounded approximate degree of promise-OR over distinct inner
    functions: monotone facts asserted, scale ratios recorded."""
    n = len(inner)
    names = inner_names or [f"g{i}" for i in range(n)]
    report = VerificationReport(f"pror-composition n={n}")
    total = sum(g.arity for g in inner)
    if total > max_arity:
        raise measures.ArityLimitError(
            f"composed arity {total} exceeds bound {max_arity}"
        )
    for g in inner:
        if g.is_constant():
            raise ValueError("inner functions must be non-constant")

    start = time.perf_counter()
    comp = compose(pror(n), list(inner))
    bdeg_comp = approxdeg.bdeg(comp, eps)
    bdeg_inner = [approxdeg.bdeg(g, eps) for g in inner]
    elapsed = time.perf_counter() - start

    report.add(
        "composition-dominates-each-inner",
        _status(bdeg_comp >= max(bdeg_inner)),
        {"bdeg_composition": bdeg_comp, "bdeg_inner": bdeg_inner},
        runtime=elapsed,
    )
    if n == 1:
        report.add(
            "single-inner-collapse",
            _status(bdeg_comp == bdeg_inner[0]),
            {"bdeg_composition": bdeg_comp, "bdeg_inner": bdeg_inner[0]},
        )
    sq_sum = math.sqrt(sum(d * d for d in bdeg_inner))
    low = math.sqrt(n) * min(bdeg_inner) / max(math.log(n), 1.0) if n > 1 else 0.0
    values = {
        "bdeg_composition": bdeg_comp,
        "sqrt_sum_sq": sq_sum,
        "ratio_to_sqrt_sum_sq": bdeg_comp / sq_sum if sq_sum else 0.0,
        "sqrt_n_min_over_log": low,
        "inner": ",".join(names),
    }
    sq = [d * d for d in bdeg_inner if d]
    if sq:
        lcm = math.lcm(*sq)
        values["lcm_sq"] = lcm
        values["max_sq"] = max(sq)
        values["lcm_precondition_exceeded"] = int(lcm > max(sq))
    report.add("scale-ratios", RECORDED, values)
    return report


# ---------------------------------------------------------------------------
# Symmetric and junta-symmetric studies
# ---------------------------------------------------------------------------

SYMMETRIC_BAND = (0.2, 3.0)


def _nonconstant_profiles(n: int):
    for code in range(1, (1 << (n + 1)) - 1):
        yield tuple((code >> w) & 1 for w in range(n + 1))


def _complement_reversal_class(profile: tuple) -> tuple:
    """The least of a weight profile, its complement (``1 - f``) and the
    reversals of both (``w -> n - w``, that is ``f(not x)``): the four
    functions have the same approximate degree, exactly."""
    flipped = tuple(1 - v for v in profile)
    return min(profile, flipped, profile[::-1], flipped[::-1])


def verify_symmetric(
    n_max: int = 8, eps: float = approxdeg.DEFAULT_EPS
) -> VerificationReport:
    """Flip-distance band for every non-constant total symmetric function up
    to ``n_max`` variables, plus the junta-restriction lower-bound witness.
    One profile per complement/reversal class is scanned by ``adeg``; the
    others read its degree."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if n_max > DEFAULT_MAX_ARITY:
        raise ArityLimitError(
            f"n_max {n_max} exceeds bound {DEFAULT_MAX_ARITY}")
    report = VerificationReport(f"symmetric n<=%d" % n_max)
    lo_band, hi_band = SYMMETRIC_BAND

    start = time.perf_counter()
    worst_lo, worst_hi = math.inf, 0.0
    count = 0
    degrees = {}
    for n in range(1, n_max + 1):
        for profile in _nonconstant_profiles(n):
            spec = SymmetricSpectrum(n, profile)
            key = _complement_reversal_class(profile)
            if key not in degrees:
                degrees[key] = approxdeg.adeg(from_spectrum(spec), eps)
            r = degrees[key] / math.sqrt(n * (measures.paturi_gamma(spec) + 1))
            worst_lo = min(worst_lo, r)
            worst_hi = max(worst_hi, r)
            count += 1
    elapsed = time.perf_counter() - start

    report.add(
        "flip-distance-band",
        _status(lo_band <= worst_lo and worst_hi <= hi_band),
        {
            "functions": count,
            "min_ratio": worst_lo,
            "max_ratio": worst_hi,
            "band": list(SYMMETRIC_BAND),
        },
        runtime=elapsed,
    )
    report.add(
        "flip-distance-band-recorded",
        RECORDED,
        {"min_ratio": worst_lo, "max_ratio": worst_hi},
    )

    # Lower-bound witness for a function of one junta variable plus the
    # whole-input weight: restricting the junta variable leaves a symmetric
    # function whose approximate degree bounds the original from below.
    spec = example_junta_spec()
    f = from_junta_spec(spec)
    d_f = approxdeg.adeg(f, eps)
    best_restricted = 0
    gamma_max = 0
    k = len(spec.junta)
    for a in range(1 << k):
        fixing = {j: (a >> p) & 1 for p, j in enumerate(spec.junta)}
        sub = f.restrict(fixing)
        sub_profile = _induced_profile(sub)
        if sub_profile is None:
            continue
        sub_spec = SymmetricSpectrum(sub.arity, sub_profile)
        if sub_spec.is_constant():
            continue
        best_restricted = max(best_restricted, approxdeg.adeg(sub, eps))
        gamma_max = max(gamma_max, measures.paturi_gamma(sub_spec))
    report.add(
        "junta-restriction-lower-bound",
        _status(f.arity >= d_f >= best_restricted and spec.is_strongly_symmetric()),
        {"adeg_f": d_f, "adeg_best_restriction": best_restricted},
    )
    report.add(
        "junta-scale",
        RECORDED,
        {
            "adeg_f": d_f,
            "k": k,
            "formula": max(k, math.sqrt((f.arity - k) * gamma_max)),
        },
    )
    return report


def example_junta_spec() -> JuntaSymmetricSpec:
    """A 5-variable function with one junta variable: parity of the total
    weight when the junta variable is 0, constantly 1 otherwise."""
    n = 5
    parity = SymmetricSpectrum(n, tuple(w % 2 for w in range(n + 1)))
    ones = SymmetricSpectrum(n, (1,) * (n + 1))
    return JuntaSymmetricSpec(n, (0,), (parity, ones))


def _induced_profile(f: PartialFn):
    """Weight profile of a total function, or None if not symmetric: it is
    symmetric when all its variables are interchangeable, and its value on
    weight ``w`` is its value at the input of ``w`` leading ones."""
    if not f.is_total or len(interchangeable_classes(f)) > 1:
        return None
    return tuple(f.eval((1 << w) - 1) for w in range(f.arity + 1))


# ---------------------------------------------------------------------------
# Walk suite
# ---------------------------------------------------------------------------

AMPLIFY_GRID = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5))
MU_GRID_GAMMA = (0.02, 0.05, 0.1)
MU_GRID_T = (4, 16, 64)


def amplification_bounds_hold(gamma: Fraction, k: int) -> bool:
    """Exact check of the majority amplification envelope
    sqrt(k) g / 3 <= g' <= 3 sqrt(k) g, compared in squares so no irrational
    arithmetic enters."""
    g2 = gamma * gamma
    gp = noisy.amplify_bias_exact(gamma, k)
    return k * g2 <= 9 * gp * gp and gp * gp <= 9 * k * g2


def exact_conditional_trace_distribution(
    gamma: float, T: int, max_len: int
) -> tuple[dict, float]:
    """Law of the first-passage path to ``+T``, conditioned on hitting ``+T``
    before ``-T``, restricted to paths of length <= max_len.  Returns the
    per-trace probabilities and the leftover mass of longer paths."""
    p = (1.0 + gamma) / 2.0
    q = 1.0 - p
    r_up = ((1.0 + gamma) / (1.0 - gamma)) ** T
    p_hit = r_up / (r_up + 1.0)
    probs: dict = {}

    def walk(pos, prob, trace):
        if pos == T:
            probs[tuple(trace)] = prob / p_hit
            return
        if pos == -T or len(trace) >= max_len:
            return
        walk(pos + 1, prob * p, trace + [1])
        walk(pos - 1, prob * q, trace + [0])

    walk(0, 1.0, [])
    return probs, 1.0 - sum(probs.values())


def _trace_counts(bits: np.ndarray, lengths: np.ndarray, max_len: int) -> dict:
    """Occurrences of each trace of length <= max_len among walks given as
    flattened bits and lengths, keyed by the trace as a tuple."""
    short = lengths <= max_len
    starts, lens = (np.cumsum(lengths) - lengths)[short], lengths[short]
    codes = np.zeros(len(lens), dtype=np.int64)
    for j in range(max_len):  # bit j of each short trace, 0 past its end
        inside = lens > j
        codes[inside] |= bits[starts[inside] + j].astype(np.int64) << j
    keys, freq = np.unique(np.stack((lens, codes)), axis=1, return_counts=True)
    return {
        tuple((code >> j) & 1 for j in range(length)): int(n)
        for (length, code), n in zip(keys.T.tolist(), freq.tolist())
    }


def _chi2_threshold(dof: int, z: float = 3.0) -> float:
    # Wilson-Hilferty approximation of the chi-square quantile at the
    # two-sided 3-sigma tail probability
    return dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3


def verify_walks(
    seed: int = 0,
    walks_per_cell: int = 100_000,
    trace_samples: int = 100_000,
    marginal_bits: int = 1_000_000,
) -> VerificationReport:
    """Exact amplification envelope, closed-form versus sampled walk lengths,
    conditioned-trace distribution, and generated-stream statistics."""
    report = VerificationReport("walks")
    rng = np.random.default_rng(seed)

    # exact majority amplification bounds over the full admissible grid
    start = time.perf_counter()
    ok = True
    cells = 0
    for gamma in AMPLIFY_GRID:
        kmax = int(1 / (gamma * gamma))
        for k in range(1, kmax + 1, 2):
            ok = ok and amplification_bounds_hold(gamma, k)
            cells += 1
    report.add(
        "amplification-envelope",
        _status(ok),
        {"grid_points": cells},
        tolerance=0.0,
        runtime=time.perf_counter() - start,
    )

    # closed-form doubling bound and Monte-Carlo mean length
    start = time.perf_counter()
    ratio_ok = True
    mc_ok = True
    cells = 0
    for gamma in MU_GRID_GAMMA:
        for t in MU_GRID_T:
            if noisy.walk_barrier(gamma, t) < 1:
                continue
            cells += 1
            m1, m2, within = noisy.mu_ratio_check(gamma, t)
            ratio_ok = ratio_ok and within
            T = noisy.walk_barrier(gamma, t)
            _, lengths = noisy.sample_conditioned_walks(
                gamma, T, walks_per_cell, np.random.default_rng(rng.integers(2**63))
            )
            sigma = lengths.std(ddof=1) / math.sqrt(len(lengths))
            # the 1e-9 absorbs closed-form rounding when the length is
            # deterministic (T = 1) and the sample deviation is exactly 0
            mc_ok = mc_ok and abs(lengths.mean() - m1) <= 3.0 * sigma + 1e-9
    report.add(
        "length-doubling-bound",
        _status(ratio_ok),
        {"cells": cells},
        tolerance=0.0,
    )
    scale_cells = [
        (g, t)
        for g in MU_GRID_GAMMA
        for t in MU_GRID_T
        if noisy.walk_barrier(g, t) >= 1
    ]
    c0 = min(
        noisy.mu_t(g, noisy.walk_barrier(g, t)) * t * g * g
        for g, t in scale_cells
    )
    c_delta = max(
        noisy.WalkParams(g, t).delta_prime * math.sqrt(t) for g, t in scale_cells
    )
    report.add(
        "walk-scale-constants",
        RECORDED,
        {"min_mu_t_gamma_sq": c0, "max_delta_sqrt_t": c_delta},
    )
    report.add(
        "mean-length-matches-closed-form",
        _status(mc_ok),
        {"cells": cells, "walks_per_cell": walks_per_cell},
        runtime=time.perf_counter() - start,
    )

    # conditioned-trace distribution at gamma=0.2, T=2
    start = time.perf_counter()
    gamma, T = 0.2, 2
    probs, leftover = exact_conditional_trace_distribution(gamma, T, max_len=6)
    sub_rng = np.random.default_rng(rng.integers(2**63))
    bits, lengths = noisy.sample_conditioned_walks(gamma, T, trace_samples, sub_rng)
    counts = _trace_counts(bits, lengths, max_len=6)
    longer = int((lengths > 6).sum())
    dist_ok = True
    for tr, p in probs.items():
        obs = counts.get(tr, 0)
        sigma = math.sqrt(trace_samples * p * (1.0 - p))
        dist_ok = dist_ok and abs(obs - trace_samples * p) <= 3.0 * sigma
    sigma = math.sqrt(trace_samples * leftover * (1.0 - leftover))
    dist_ok = dist_ok and abs(longer - trace_samples * leftover) <= 3.0 * sigma
    report.add(
        "conditioned-trace-distribution",
        _status(dist_ok),
        {"traces": len(probs), "samples": trace_samples},
        runtime=time.perf_counter() - start,
    )

    # generated stream: marginal bias, lag-1 independence, per-walk floor
    start = time.perf_counter()
    params = noisy.WalkParams(0.05, 16)
    stream = noisy.BiasedBitStream(params, np.random.default_rng(rng.integers(2**63)))
    bits = stream.take(marginal_bits)
    p_one = (1.0 + params.gamma_hat) / 2.0
    margin = abs(bits.mean() - p_one)
    sigma = math.sqrt(p_one * (1.0 - p_one) / marginal_bits)
    report.add(
        "stream-marginal-bias",
        _status(margin <= 3.0 * sigma),
        {"observed": float(bits.mean()), "expected": p_one},
        tolerance=3.0 * sigma,
    )
    pairs = bits[:-1] * 2 + bits[1:]
    obs = np.bincount(pairs, minlength=4).astype(float)
    probs4 = np.array(
        [(1 - p_one) ** 2, (1 - p_one) * p_one, p_one * (1 - p_one), p_one**2]
    )
    expected = probs4 * len(pairs)
    chi2 = float(((obs - expected) ** 2 / expected).sum())
    report.add(
        "stream-lag1-chi2",
        _status(chi2 <= _chi2_threshold(3)),
        {"chi2": chi2},
        tolerance=_chi2_threshold(3),
    )

    params2 = noisy.WalkParams(0.02, 4)
    st2 = noisy.BiasedBitStream(params2, np.random.default_rng(rng.integers(2**63)))
    n_bits = 50_000
    st2.take(n_bits)
    report.add(
        "stream-bits-per-walk-floor",
        _status(st2.bits_emitted >= params2.T * st2.walks),
        {"bits": st2.bits_emitted, "walks": st2.walks, "T": params2.T},
    )
    per_walk = [noisy.WalkParams(0.02, t).delta_prime ** 2 for t in MU_GRID_T]
    report.add(
        "walk-cost-decreasing-in-t",
        _status(all(a > b for a, b in zip(per_walk, per_walk[1:]))),
        {"cost_per_walk": per_walk},
    )
    cost_per_bit = st2.ledger / st2.bits_emitted
    report.add(
        "stream-cost-per-bit",
        RECORDED,
        {
            "cost_per_bit": cost_per_bit,
            "normalized": cost_per_bit * params2.t * params2.mu,
        },
        runtime=time.perf_counter() - start,
    )

    # parameter admissibility and replay determinism
    try:
        noisy.WalkParams(0.2, 4)
        report.add("reject-large-bias", FAIL)
    except ValueError:
        report.add("reject-large-bias", PASS, {"gamma": 0.2})
    run1, run2 = (
        noisy.BiasedBitStream(params, np.random.default_rng(seed)).take(4096)
        for _ in range(2)
    )
    report.add("seed-replay-identical", _status(bool(np.array_equal(run1, run2))))
    return report


# ---------------------------------------------------------------------------
# Composed simulation suite
# ---------------------------------------------------------------------------

def simulate_suite(
    f: PartialFn,
    t: int,
    trials: int,
    seed: int,
    f_name: str = "f",
) -> VerificationReport:
    """Run the compiled algorithm on every outer domain assignment and check
    the success rate and the per-trial query-count identity."""
    if not f.defined:
        raise ValueError("function has empty domain")
    report = VerificationReport(f"simulate {f_name} t={t}")
    gapmaj_weights(t)  # raises on inadmissible t
    alg = noisy.MajorityVoteAlgorithm(f, 1.0 / math.sqrt(t), 9 * t + 1)
    if trials == 0:
        report.add("empty-run", PASS, {"trials": 0})
        return report
    start = time.perf_counter()
    for x in f.domain():
        outer = [(x >> i) & 1 for i in range(f.arity)]
        summary = noisy.run_composed_trials(
            alg, f, outer, t, trials, seed=seed + x
        )
        label = format(x, f"0{f.arity}b")
        report.add(
            f"success-rate input={label}",
            _status(summary.success_rate >= 2.0 / 3.0),
            {
                "rate": summary.success_rate,
                "ci95": summary.confidence_95(),
                "trials": trials,
            },
            tolerance=2.0 / 3.0,
        )
        report.add(
            f"query-identity input={label}",
            _status(summary.identity_ok),
            {"mean_composed_queries": summary.mean_cost},
        )
    report.checks[-1].runtime = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Constructive sink approximation suite
# ---------------------------------------------------------------------------

def sink_poly_suite(
    k: int, eps: float = approxdeg.DEFAULT_EPS
) -> tuple[VerificationReport, approxdeg.MultilinearPoly]:
    report = VerificationReport(f"sink-poly k={k}")
    start = time.perf_counter()
    poly = approxdeg.build_sink_polynomial(k, eps)
    f = sink(k)
    err = poly.max_error_on(f)
    report.add(
        "pointwise-error",
        _status(err <= eps + 1e-9),
        {"max_error": err, "points": 1 << f.arity},
        tolerance=eps + 1e-9,
        runtime=time.perf_counter() - start,
    )
    d_lp = approxdeg.adeg(f, eps)
    report.add(
        "degree-dominates-minimum",
        _status(poly.degree >= d_lp),
        {"construction_degree": poly.degree, "adeg_lp": d_lp},
    )
    return report, poly
