import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from bfclab import functions as F
from bfclab import noisy as N
from bfclab import verify as V
from bfclab.functions import PartialFn

from conftest import conditional_walk_mean_exact, majority_bias_enumerated


def test_query_bias_one_is_truthful():
    oracle = N.NoisyOracle([1, 0, 1], np.random.default_rng(0), record=True)
    for i, expected in enumerate((1, 0, 1)):
        for _ in range(20):
            assert oracle.query(i, 1.0) == expected
    assert oracle.cost == pytest.approx(60.0)
    assert len(oracle.transcript) == 60


def test_query_bias_zero_is_uniform_and_free():
    oracle = N.NoisyOracle([1], np.random.default_rng(1))
    bits = oracle.query_many(0, 0.0, 100_000)
    assert oracle.cost == 0.0
    assert abs(bits.mean() - 0.5) <= 3 * 0.5 / math.sqrt(len(bits))


def test_query_agreement_rate_at_low_bias():
    oracle = N.NoisyOracle([1], np.random.default_rng(2))
    n = 1_000_000
    bits = oracle.query_many(0, 0.2, n)
    p = 0.6
    assert abs(bits.mean() - p) <= 3 * math.sqrt(p * (1 - p) / n)
    assert oracle.cost == pytest.approx(n * 0.04)


def test_query_validation():
    oracle = N.NoisyOracle([1], np.random.default_rng(0))
    with pytest.raises(ValueError):
        oracle.query(1, 1.0)
    with pytest.raises(ValueError):
        oracle.query(0, 1.5)


def test_ledger_matches_transcript_and_replays():
    def run():
        oracle = N.NoisyOracle([1, 0], np.random.default_rng(42), record=True)
        oracle.query_many(0, 1.0, 3)
        oracle.query_many(1, 0.25, 5)
        oracle.query(0, 0.1)
        return oracle

    a, b = run(), run()
    gammas = [e.gamma for e in a.transcript]
    assert a.cost == pytest.approx(math.fsum(g * g for g in gammas))
    assert [e.bit for e in a.transcript] == [e.bit for e in b.transcript]
    assert N.format_transcript(a.transcript) == N.format_transcript(b.transcript)
    line = N.format_transcript(a.transcript).splitlines()[0]
    assert line.startswith("query index=0 gamma=1 bit=1 cost=1")


def test_amplify_identity_at_one_vote():
    assert N.amplify_bias_exact(0.1, 1) == pytest.approx(0.1)
    assert N.amplify_bias_exact(Fraction(1, 10), 1) == Fraction(1, 10)


def test_amplify_matches_outcome_enumeration():
    for gamma, k in [(Fraction(1, 10), 9), (Fraction(1, 5), 7), (Fraction(1, 20), 5)]:
        assert N.amplify_bias_exact(gamma, k) == majority_bias_enumerated(gamma, k)


def test_amplify_envelope_on_spec_grid():
    for gamma in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
        kmax = int(1 / (gamma * gamma))
        for k in range(1, kmax + 1, 2):
            gp = N.amplify_bias_exact(gamma, k)
            assert k * gamma * gamma <= 9 * gp * gp
            assert gp * gp <= 9 * k * gamma * gamma


def test_amplify_preconditions():
    with pytest.raises(ValueError):
        N.amplify_bias_exact(0.1, 4)
    with pytest.raises(ValueError):
        N.amplify_bias_exact(0.5, 9)  # 9 > 1/0.25


def test_amplify_sample_cost_and_distribution():
    # a majority of 9 fresh queries per run, the ledger paying all of them
    oracle = N.NoisyOracle([1], np.random.default_rng(5))
    alg = N.MajorityVoteAlgorithm(IDENT1, 0.2, 9)
    votes = [alg.run(oracle) for _ in range(2000)]
    assert oracle.cost == pytest.approx(2000 * 9 * 0.04)
    expected = (1 + float(N.amplify_bias_exact(0.2, 9))) / 2
    sigma = math.sqrt(expected * (1 - expected) / 2000)
    assert abs(np.mean(votes) - expected) <= 4 * sigma


def test_mu_closed_form_values():
    assert N.mu_t(1e-4, 1) == pytest.approx(1.0, abs=1e-3)
    assert N.mu_t(0.1, 1) == pytest.approx(1.0, abs=1e-9)
    # matches the exact absorbing-chain expectation
    for gamma, T in [(Fraction(1, 10), 2), (Fraction(1, 5), 2), (Fraction(1, 10), 3)]:
        exact = conditional_walk_mean_exact(gamma, T)
        assert N.mu_t(float(gamma), T) == pytest.approx(float(exact), abs=1e-9)


def test_mu_ratio_grid():
    for gamma in (0.02, 0.05, 0.1):
        for t in (4, 16, 64):
            if N.walk_barrier(gamma, t) < 1:
                with pytest.raises(ValueError):
                    N.mu_ratio_check(gamma, t)
                continue
            m1, m2, ok = N.mu_ratio_check(gamma, t)
            assert ok and m2 <= 12 * m1


def test_walk_params_fields_and_validation():
    p = N.WalkParams(0.1, 4)
    assert p.T == 1
    assert p.R == pytest.approx((1.1 / 0.9) ** 1)
    assert p.delta_prime == pytest.approx((p.R - 1) / (p.R + 1))
    assert 0 < p.delta_prime * math.sqrt(p.t) <= 0.25
    with pytest.raises(ValueError):
        N.WalkParams(0.2, 4)  # bias above the cap
    with pytest.raises(ValueError):
        N.WalkParams(0.1, 16)  # barrier collapses to zero
    with pytest.raises(ValueError):
        N.WalkParams(0.0, 4)


def test_conditioned_walk_single_step_at_barrier_one():
    rng = np.random.default_rng(0)
    for target in (1, -1):
        for _ in range(50):
            trace = N.sample_conditioned_walk(0.2, 1, target, rng)
            assert list(trace) == [1 if target > 0 else 0]


def test_conditioned_walk_ends_at_target_and_prefix_stays_inside():
    rng = np.random.default_rng(1)
    for target in (2, -2):
        for _ in range(200):
            trace = N.sample_conditioned_walk(0.2, 2, target, rng)
            pos = np.cumsum(np.where(np.array(trace) == 1, 1, -1))
            assert pos[-1] == target
            assert np.all(np.abs(pos[:-1]) < 2)


def test_conditioned_walk_validation_and_cap():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        N.sample_conditioned_walk(0.2, 2, 1, rng)
    with pytest.raises(N.WalkStepCapExceeded):
        N.sample_conditioned_walk(0.01, 50, 50, rng, step_cap=10)


def test_conditioned_walk_to_minus_target_is_the_complement():
    for seed in range(20):
        up = N.sample_conditioned_walk(0.2, 3, 3, np.random.default_rng(seed))
        down = N.sample_conditioned_walk(0.2, 3, -3, np.random.default_rng(seed))
        assert np.array_equal(down, up ^ 1)


def test_drift_shortcut_matches_rejection_from_opposite_drift():
    # the conditional path law is drift-independent: compare the sampler
    # against rejection sampling from the walk biased AWAY from the target
    gamma, T = 0.2, 2
    rng = np.random.default_rng(3)
    n = 20_000

    def rejected_trace():
        while True:
            pos, trace = 0, []
            while abs(pos) < T:
                up = rng.random() < (1 - gamma) / 2  # drift away from +T
                pos += 1 if up else -1
                trace.append(int(up))
            if pos == T:
                return tuple(trace)

    bits, lengths = N.sample_conditioned_walks(gamma, T, n, rng)
    counts_a = V._trace_counts(bits, lengths, max_len=30)  # longer: < 1e-9 each
    counts_b = {}
    for _ in range(n):
        rej = rejected_trace()
        counts_b[rej] = counts_b.get(rej, 0) + 1

    for tr in set(counts_a) | set(counts_b):
        pa = counts_a.get(tr, 0) / n
        pb = counts_b.get(tr, 0) / n
        if max(pa, pb) < 0.001:
            continue
        sigma = math.sqrt(max(pa, pb) * (1 - max(pa, pb)) * 2 / n)
        assert abs(pa - pb) <= 4 * sigma


def test_walk_length_sampler_matches_trace_sampler_mean():
    gamma, T = 0.1, 2
    _, lengths = N.sample_conditioned_walks(gamma, T, 50_000, np.random.default_rng(4))
    mu = N.mu_t(gamma, T)
    sigma = lengths.std(ddof=1) / math.sqrt(len(lengths))
    assert abs(lengths.mean() - mu) <= 3 * sigma + 1e-9


def _split_walks(bits, lengths):
    assert lengths.sum() == len(bits)
    return [tuple(int(b) for b in w)
            for w in np.split(bits, np.cumsum(lengths)[:-1])]


def test_batched_walks_end_at_target_and_prefix_stays_inside():
    bits, lengths = N.sample_conditioned_walks(0.2, 3, 2000, np.random.default_rng(20))
    assert len(lengths) == 2000 and bits.dtype == np.uint8
    for walk in _split_walks(bits, lengths):
        pos = np.cumsum(np.where(np.array(walk) == 1, 1, -1))
        assert pos[-1] == 3
        assert np.all(np.abs(pos[:-1]) < 3)


def test_batched_traces_match_exact_law():
    gamma, T, n = 0.2, 2, 60_000
    probs, leftover = V.exact_conditional_trace_distribution(gamma, T, max_len=6)
    bits, lengths = N.sample_conditioned_walks(gamma, T, n, np.random.default_rng(21))
    counts = {}
    for walk in _split_walks(bits, lengths):
        counts[walk] = counts.get(walk, 0) + 1
    for trace, p in probs.items():
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts.get(trace, 0) - n * p) <= 3 * sigma, trace
    longer = int((lengths > 6).sum())
    sigma = math.sqrt(n * leftover * (1 - leftover))
    assert abs(longer - n * leftover) <= 3 * sigma


def test_batched_sampler_step_cap_and_edge_counts():
    rng = np.random.default_rng(22)
    with pytest.raises(N.WalkStepCapExceeded):
        N.sample_conditioned_walks(0.01, 50, 5, rng, step_cap=10)
    with pytest.raises(N.WalkStepCapExceeded):  # each walk needs at least T steps
        N.sample_conditioned_walks(0.05, 4, 1000, rng, step_cap=3)
    bits, lengths = N.sample_conditioned_walks(0.05, 4, 0, rng)
    assert len(bits) == 0 and len(lengths) == 0
    with pytest.raises(ValueError):
        N.sample_conditioned_walks(0.05, 0, 10, rng)
    # the cap bounds each walk, not the run: 1000 walks spend far more
    # than 200 steps together
    _, lengths = N.sample_conditioned_walks(0.2, 2, 1000, rng, step_cap=200)
    assert lengths.sum() > 200
    # at T = 1 every walk is a single up-step
    bits, lengths = N.sample_conditioned_walks(0.5, 1, 500, rng)
    assert np.all(lengths == 1) and np.all(bits == 1)


@pytest.mark.parametrize("gamma_hat,t,T", [(0.024, 16, 2), (0.02, 4, 5)])
def test_walk_stream_marginal_and_lag1_independence(gamma_hat, t, T):
    params = N.WalkParams(gamma_hat, t)
    assert params.T == T
    bits = N.BiasedBitStream(params, np.random.default_rng(23 + T)).take(400_000)
    p = (1 + gamma_hat) / 2
    assert abs(bits.mean() - p) <= 3 * math.sqrt(p * (1 - p) / len(bits))
    pairs = np.bincount(bits[:-1] * 2 + bits[1:], minlength=4)
    expected = np.array([(1 - p) ** 2, (1 - p) * p, p * (1 - p), p * p])
    expected *= len(bits) - 1
    chi2 = float(((pairs - expected) ** 2 / expected).sum())
    assert chi2 <= 14.16  # chi-square(3) upper 0.27% point (3 sigma)


def test_barrier_one_stream_returns_the_coins():
    params = N.WalkParams(0.05, 16)
    coins = np.random.default_rng(24).integers(0, 2, 500).astype(np.uint8)
    served = []

    def coin(count):
        served.append(count)
        start = sum(served) - count
        return coins[start:start + count]

    stream = N.BiasedBitStream(params, np.random.default_rng(25), coin=coin)
    out = np.concatenate([stream.take(k) for k in (1, 99, 400)])
    assert np.array_equal(out, coins)
    assert served == [1, 99, 400] and stream.walks == 500


def test_bridge_walk_accounting(monkeypatch):
    # record the walk shapes each stream block draws and the coins tossed
    # for it, so the bits of the walks begun can be counted exactly
    drawn, tossed = [], []
    sampler, reads = N.sample_conditioned_walks, N.GapMajBridge._reads

    def recording_sampler(*args, **kwargs):
        out = sampler(*args, **kwargs)
        drawn.append(out[1])
        return out

    def recording_reads(self, i, count, bias):
        if bias == self.params.delta_prime:  # the walks' absorption-side coins
            tossed.append((len(drawn) - 1, count))
        return reads(self, i, count, bias)

    monkeypatch.setattr(N, "sample_conditioned_walks", recording_sampler)
    monkeypatch.setattr(N.GapMajBridge, "_reads", recording_reads)
    blocks = N.make_promise_blocks([1], 16, np.random.default_rng(26))
    gamma = 0.024
    bridge = N.GapMajBridge(blocks, gamma, seed_seq=27)
    assert len(bridge.query_many(0, gamma, 1001)) == 1001
    assert bridge.mode == "walk"
    stream = bridge._streams[0]
    walks, left = stream.walks, len(stream._buffer)
    assert left > 0
    # a request that fits in the last walk's leftover bits begins no walk
    assert len(bridge.query_many(0, gamma, left)) == left
    assert stream.walks == walks
    assert len(bridge.query_many(0, gamma, 3000)) == 3000
    assert stream.bits_emitted == 1001 + left + 3000
    begun = np.concatenate([drawn[d][:k] for d, k in tossed])
    assert len(begun) == stream.walks
    assert begun.sum() == stream.bits_emitted + len(stream._buffer)
    assert len(stream._buffer) < begun[-1]  # only the last walk is unused
    assert bridge.single_reads == stream.walks
    assert bridge.composed_queries == bridge.single_reads
    assert stream.ledger == pytest.approx(stream.walks * bridge.params.delta_prime**2)


def test_stream_marginal_and_floor():
    params = N.WalkParams(0.02, 4)  # T = 5
    stream = N.BiasedBitStream(params, np.random.default_rng(5))
    bits = stream.take(60_000)
    p = (1 + params.gamma_hat) / 2
    assert abs(bits.mean() - p) <= 3 * math.sqrt(p * (1 - p) / len(bits))
    assert stream.bits_emitted >= params.T * stream.walks
    assert stream.ledger == pytest.approx(stream.walks * params.delta_prime**2)


def test_stream_fast_path_matches_semantics_at_barrier_one():
    params = N.WalkParams(0.05, 16)
    assert params.T == 1
    assert params.delta_prime == pytest.approx(0.05)
    bits = N.BiasedBitStream(params, np.random.default_rng(6)).take(200_000)
    p = (1 + 0.05) / 2
    assert abs(bits.mean() - p) <= 3 * math.sqrt(p * (1 - p) / len(bits))


def test_stream_replay_deterministic():
    params = N.WalkParams(0.02, 16)
    a = N.BiasedBitStream(params, np.random.default_rng(7)).take(5000)
    b = N.BiasedBitStream(params, np.random.default_rng(7)).take(5000)
    assert np.array_equal(a, b)


# -- compiled composed algorithm ---------------------------------------------

IDENT1 = PartialFn.total(1, 0b10)


def test_exact_read_composes_to_full_block_reads():
    alg = N.ExactReadAlgorithm(IDENT1)
    for outer_bit in (0, 1):
        trial = N.run_composed_trial(alg, IDENT1, [outer_bit], 16, seed=8)
        assert trial.correct
        assert trial.block_reads == 1 and trial.single_reads == 0
        assert trial.composed_queries == 16
        assert trial.query_identity_holds(16)


def test_bias_one_reads_are_cached():
    class DoubleRead(N.NoisyAlgorithm):
        def __init__(self):
            super().__init__(0.125)

        def run(self, oracle):
            a = oracle.query(0, 1.0)
            b = oracle.query(0, 1.0)
            assert a == b
            return a

    trial = N.run_composed_trial(DoubleRead(), IDENT1, [1], 64, seed=9)
    assert trial.block_reads == 1  # second request served from cache
    assert trial.noisy_cost == pytest.approx(2.0)


def test_normal_form_enforced():
    class OffSpec(N.NoisyAlgorithm):
        def __init__(self):
            super().__init__(0.125)

        def run(self, oracle):
            return oracle.query(0, 0.3)

    with pytest.raises(ValueError):
        N.run_composed_trial(OffSpec(), IDENT1, [1], 64, seed=0)


def test_majority_bridge_low_bias_below_sqrt():
    # gamma_hat below 1/sqrt(t) with a collapsed barrier: single-vote
    # majority with mix-down still provides exact bias
    alg = N.MajorityVoteAlgorithm(F.or_n(2), 0.05, 1001)
    summary = N.run_composed_trials(alg, F.or_n(2), [1, 0], 64, 30, seed=10)
    assert summary.identity_ok
    assert summary.success_rate >= 2 / 3


def test_walk_bridge_used_when_admissible():
    alg = N.MajorityVoteAlgorithm(F.or_n(2), 0.02, 4001)
    summary = N.run_composed_trials(alg, F.or_n(2), [0, 1], 16, 10, seed=11)
    assert summary.identity_ok
    assert summary.success_rate >= 2 / 3


def test_composed_or2_success_at_t64():
    t = 64
    alg = N.MajorityVoteAlgorithm(F.or_n(2), 1 / math.sqrt(t), 9 * t + 1)
    for x in range(4):
        outer = [(x >> i) & 1 for i in range(2)]
        summary = N.run_composed_trials(alg, F.or_n(2), outer, t, 100, seed=12 + x)
        assert summary.success_rate >= 2 / 3
        assert summary.identity_ok


def test_composed_trial_outcomes_are_pinned():
    # every draw of the compiled trials, pinned: a change to any random
    # draw, read count or ledger bit of the bridge changes the digest
    t = 16
    cases = [
        (F.or_n(2), 1 / math.sqrt(t), 9, ("majority", 1)),
        (F.maj_n(3), 0.3, 21, ("majority", 3)),
        (F.or_n(2), 0.024, 101, ("walk", None)),
    ]
    digest = hashlib.sha256()
    for f, gamma, repeats, mode in cases:
        blocks = N.make_promise_blocks([0] * f.arity, t, np.random.default_rng(0))
        bridge = N.GapMajBridge(blocks, gamma, seed_seq=0)
        assert (bridge.mode, getattr(bridge, "votes", None)) == mode
        alg = N.MajorityVoteAlgorithm(f, gamma, repeats)
        for x in f.domain():
            outer = [(x >> i) & 1 for i in range(f.arity)]
            trial = N.run_composed_trial(alg, f, outer, t, seed=x)
            digest.update(repr((
                trial.output, trial.expected, trial.block_reads,
                trial.single_reads, trial.composed_queries,
                trial.noisy_cost.hex(),
            )).encode())
    assert digest.hexdigest() == (
        "69c1786f2e226cfa6a9ad13df3aeaea773b7d87a3bbea203a290132d039f0a89")


def first_odd_amplifier(biases, target):
    """The definition: the first odd ``k`` whose exact majority bias in
    ``biases`` (``amplify_bias_exact`` at ``k = 1, 3, ...`` up to the cap)
    reaches ``target``, else None."""
    return next((2 * i + 1 for i, b in enumerate(biases) if b >= target), None)


def test_amplifier_search_gives_the_first_odd_k_that_reaches_the_target():
    for t in (4, 16, 64, 256, 1024):
        biases = [N.amplify_bias_exact(1 / math.sqrt(t), k)
                  for k in range(1, t + 1, 2)]
        for gamma_hat in (0.9, 0.5, 1 / 3, 0.3, 0.2, 0.1, 0.05):
            want = first_odd_amplifier(biases, gamma_hat)
            if want is None:
                with pytest.raises(ValueError, match="cannot amplify"):
                    N.smallest_amplifier(1 / math.sqrt(t), gamma_hat, t)
            else:
                got = N.smallest_amplifier(1 / math.sqrt(t), gamma_hat, t)
                assert got == want, (t, gamma_hat)
    # 3041 votes, as the definition gives after over a minute of exact biases
    blocks = N.make_promise_blocks([1, 0], 16384, np.random.default_rng(3))
    bridge = N.GapMajBridge(blocks, 1 / 3, seed_seq=0)
    assert (bridge.mode, bridge.votes) == ("majority", 3041)
    assert bridge.amplified >= 1 / 3


def test_promise_blocks_have_promised_weights():
    rng = np.random.default_rng(13)
    blocks = N.make_promise_blocks([0, 1, 1], 16, rng)
    assert list(blocks.sum(axis=1)) == [0, 16, 16]
    blocks = N.make_promise_blocks([1, 0], 64, rng)
    assert list(blocks.sum(axis=1)) == [48, 16]


def test_bridge_rejects_off_promise_blocks():
    bad = np.zeros((1, 16), dtype=np.uint8)
    bad[0, 0] = 1  # weight 1 violates the promise
    with pytest.raises(ValueError):
        N.GapMajBridge(bad, 0.125, seed_seq=0)


def test_bridge_rejects_out_of_range_indices():
    blocks = N.make_promise_blocks([1, 0], 16, np.random.default_rng(15))
    for gamma in (1.0, 0.125):
        bridge = N.GapMajBridge(blocks, 0.125, seed_seq=0)
        for i in (-1, 2):
            with pytest.raises(ValueError, match=f"index {i} out of range"):
                bridge.query_many(i, gamma, 3)
        assert bridge.block_reads == bridge.single_reads == 0
        assert bridge.composed_queries == 0 and bridge.noisy_cost == 0.0


def test_query_identity_fails_on_an_uncounted_read(monkeypatch):
    # composed_queries is counted where the standard queries are issued, so a
    # bridge that leaves one kind of read uncounted breaks the identity
    class Mixed(N.NoisyAlgorithm):
        def run(self, oracle):
            return oracle.query(0, 1.0) | oracle.query(1, self.gamma_hat)

    or2 = F.or_n(2)
    trial = N.run_composed_trial(Mixed(0.125), or2, [1, 0], 64, seed=16)
    assert trial.block_reads == 1 and trial.single_reads == 1
    assert trial.query_identity_holds(64)

    def uncounted(method):
        def read(self, *args):
            queries = self.composed_queries
            out = method(self, *args)
            self.composed_queries = queries
            return out
        return read

    for name in ("_block_value", "_reads"):
        with monkeypatch.context() as m:
            method = getattr(N.GapMajBridge, name)
            m.setattr(N.GapMajBridge, name, uncounted(method))
            trial = N.run_composed_trial(Mixed(0.125), or2, [1, 0], 64, seed=16)
        assert trial.block_reads == 1 and trial.single_reads == 1
        assert not trial.query_identity_holds(64)


def test_bridge_streams_split_per_index():
    # per-block generators are derived by key, so the bits served for one
    # block do not depend on how queries to other blocks interleave
    rng = np.random.default_rng(14)
    blocks = N.make_promise_blocks([1, 0], 64, rng)

    def collect(order):
        bridge = N.GapMajBridge(blocks, 0.125, seed_seq=321)
        out = {}
        for i in order:
            out[i] = list(bridge.query_many(i, 0.125, 50))
        return out

    assert collect([0, 1]) == collect([1, 0])


def test_trial_summary_confidence():
    s = N.TrialSummary(trials=400, successes=300, mean_cost=10.0, identity_ok=True)
    assert s.success_rate == 0.75
    assert s.confidence_95() == pytest.approx(1.96 * math.sqrt(0.75 * 0.25 / 400))
