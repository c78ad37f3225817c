"""Noisy-oracle computation with squared-bias cost accounting.

A noisy query to a hidden bit takes a bias ``gamma`` and returns the true bit
with probability ``(1 + gamma) / 2``, at cost ``gamma**2``.  This module
provides the oracle itself, exact majority-vote bias amplification, the
biased-random-walk generator that turns one coin of a carefully chosen bias
into a whole run of low-bias coins, and the reduction that compiles a
two-bias noisy algorithm into a standard query algorithm for the same
function composed with gap-majority inner functions.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .approxdeg import amplified_value
from .functions import PartialFn, gapmaj_weights

MAX_WALK_STEPS = 10_000_000
GAMMA_HAT_CAP = 0.1  # admissibility cap for the walk-based generator
_STEP_CHUNK = 1 << 18  # steps drawn at once by the batched walk sampler
_WALK_BLOCK = 1024     # walks drawn at once by a biased-bit stream


class WalkStepCapExceeded(RuntimeError):
    """A single conditioned-walk sample exceeded the step cap."""


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

@dataclass
class TranscriptEntry:
    index: int
    gamma: float
    bit: int
    cumulative_cost: float


class NoisyOracle:
    """Noisy access to a hidden bit string.

    Each query is answered independently: the true bit with probability
    ``(1 + gamma) / 2``.  The ledger accumulates ``gamma**2`` per query, in
    query order, so replaying a seed reproduces it bit for bit.
    """

    def __init__(self, bits, rng, record: bool = False):
        self.bits = np.asarray(bits, dtype=np.uint8)
        self.rng = rng
        self.cost = 0.0
        self.queries = 0
        self.transcript: list[TranscriptEntry] | None = [] if record else None

    def query(self, i: int, gamma: float) -> int:
        return int(self.query_many(i, gamma, 1)[0])

    def query_many(self, i: int, gamma: float, count: int) -> np.ndarray:
        if not 0 <= i < len(self.bits):
            raise ValueError(f"index {i} out of range")
        if not -1.0 <= gamma <= 1.0:
            raise ValueError(f"bias {gamma} outside [-1, 1]")
        truthful = self.rng.random(count) < (1.0 + gamma) / 2.0
        out = np.where(truthful, self.bits[i], 1 - self.bits[i]).astype(np.uint8)
        for b in out:
            self.cost += gamma * gamma
            self.queries += 1
            if self.transcript is not None:
                self.transcript.append(
                    TranscriptEntry(i, gamma, int(b), self.cost)
                )
        return out


def format_transcript(entries) -> str:
    """Structured text log, one line per query."""
    lines = [
        f"query index={e.index} gamma={e.gamma:.9g} bit={e.bit} "
        f"cost={e.cumulative_cost:.9g}"
        for e in entries
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bias amplification by majority vote
# ---------------------------------------------------------------------------

def amplify_bias_exact(gamma, k: int):
    """Bias of the majority of k independent coins of bias ``gamma``:
    ``2 P[Bin(k, (1+gamma)/2) > k/2] - 1``, through the binomial tail of
    :func:`bfclab.approxdeg.amplified_value`.  Exact on Fraction inputs.
    Requires odd ``k <= 1/gamma**2``.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"majority size must be odd and positive, got {k}")
    if k * gamma * gamma > 1 + 1e-12:  # exact for Fractions, tolerant for floats
        raise ValueError(f"majority size {k} exceeds 1/gamma^2")
    return 2 * amplified_value(k, (1 + gamma) / 2) - 1


# ---------------------------------------------------------------------------
# Conditioned walk expectations
# ---------------------------------------------------------------------------

def mu_t(gamma_hat: float, T: int) -> float:
    """Expected length of a walk with up-step probability
    ``(1 + gamma_hat)/2`` started at 0 and absorbed at ``+T`` or ``-T``,
    conditioned on absorbing at ``+T``:

        T/g - (2T/g) (1-g)^T ((1+g)^T - (1-g)^T) / ((1+g)^{2T} - (1-g)^{2T})

    evaluated through the algebraically equal form (T/g)(a-b)/(a+b) with
    ``a = (1+g)^T``, ``b = (1-g)^T``, which avoids the huge-power quotient.
    """
    if not 0.0 < gamma_hat < 1.0:
        raise ValueError("bias must lie in (0, 1)")
    if T < 1:
        raise ValueError("barrier must be positive")
    a = (1.0 + gamma_hat) ** T
    b = (1.0 - gamma_hat) ** T
    return (T / gamma_hat) * (a - b) / (a + b)


def walk_barrier(gamma_hat: float, t: float) -> int:
    """Barrier distance ``floor(1 / (5 sqrt(t) gamma_hat))``."""
    return int(1.0 / (5.0 * math.sqrt(t) * gamma_hat))


def mu_ratio_check(gamma_hat: float, t: float):
    """(mu_T, mu_2T, mu_2T <= 12 mu_T) for the barrier induced by ``t``."""
    T = walk_barrier(gamma_hat, t)
    if T < 1:
        raise ValueError(
            f"bias {gamma_hat} too large for t={t}: barrier would be 0"
        )
    m1 = mu_t(gamma_hat, T)
    m2 = mu_t(gamma_hat, 2 * T)
    return m1, m2, m2 <= 12.0 * m1


@dataclass(frozen=True)
class WalkParams:
    """Parameters of the biased-bit generator.

    ``T`` is the barrier distance, ``R`` the likelihood ratio between the two
    absorption events, and ``delta_prime = (R-1)/(R+1)`` the bias of the coin
    that selects the absorption side.  ``delta_prime`` stays within a small
    constant factor of ``1/sqrt(t)`` (checked per instance, not assumed).
    """

    gamma_hat: float
    t: int

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma_hat <= GAMMA_HAT_CAP:
            raise ValueError(
                f"bias must lie in (0, {GAMMA_HAT_CAP}], got {self.gamma_hat}"
            )
        if self.t < 1:
            raise ValueError("t must be positive")
        if self.T < 1:
            raise ValueError(
                f"bias {self.gamma_hat} too large for t={self.t}: "
                "the barrier collapses to 0 (handled by majority "
                "amplification instead of the walk)"
            )
        if not 0.0 < self.delta_prime < 1.0:
            raise ValueError("absorption-side bias out of range")
        if self.delta_prime * math.sqrt(self.t) > 0.25:
            raise ValueError("absorption-side bias unexpectedly large")

    @property
    def T(self) -> int:
        return walk_barrier(self.gamma_hat, self.t)

    @property
    def R(self) -> float:
        return ((1.0 + self.gamma_hat) / (1.0 - self.gamma_hat)) ** self.T

    @property
    def delta_prime(self) -> float:
        return (self.R - 1.0) / (self.R + 1.0)

    @property
    def mu(self) -> float:
        return mu_t(self.gamma_hat, self.T)


# ---------------------------------------------------------------------------
# Conditioned walk sampling
# ---------------------------------------------------------------------------

def sample_conditioned_walk(
    gamma_hat: float,
    T: int,
    target: int,
    rng,
    step_cap: int = MAX_WALK_STEPS,
) -> np.ndarray:
    """One ``gamma_hat``-biased walk conditioned on absorbing at ``target``
    (+T or -T) first, as its up-step bits: a batch of one from
    :func:`sample_conditioned_walks`, complemented for ``-T``.  The law
    conditioned on ``-T`` mirrors the one on ``+T``, as the conditional path
    law does not depend on the drift.
    """
    if target not in (T, -T):
        raise ValueError(f"target must be +-{T}, got {target}")
    bits, _ = sample_conditioned_walks(gamma_hat, T, 1, rng, step_cap)
    return bits if target == T else bits ^ 1


def sample_conditioned_walks(
    gamma_hat: float, T: int, n: int, rng, step_cap: int = MAX_WALK_STEPS
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` independent walks from the law of a ``gamma_hat``-biased walk
    conditioned on absorbing at ``+T`` before ``-T``: their up-step bits
    flattened in walk order, and their lengths.

    One run of ``gamma_hat``-biased steps, drawn in bounded chunks, is cut
    into attempts that end ``T`` away from where they start (independent, by
    the strong Markov property).  Those that end above their start are the
    walks; the others are discarded, at a rate below 1/2 as the drift
    points at ``+T``.  An attempt ends on a multiple of ``T`` and meets no
    other multiple of ``T`` before, so the ends are the visits to a multiple
    of ``T`` that differ from the visit before.  ``step_cap`` bounds the
    steps one walk spends, discarded attempts included.
    """
    if T < 1:
        raise ValueError("barrier must be positive")
    if not 0.0 < gamma_hat < 1.0:
        raise ValueError("bias must lie in (0, 1)")
    p_up = (1.0 + gamma_hat) / 2.0
    # steps per walk: mean attempt length T (r-1) / ((r+1) g) over the
    # acceptance rate r / (r+1), where r = ((1+g)/(1-g))^T
    per_walk = T * (1.0 - ((1.0 - gamma_hat) / (1.0 + gamma_hat)) ** T) / gamma_hat
    bits, lengths = [np.empty(0, dtype=bool)], [np.empty(0, dtype=np.int64)]
    attempt = np.empty(0, dtype=bool)  # up-steps of the attempt in progress
    found, last = 0, 0  # walks found; end of the last one, chunk-relative
    while found < n:
        size = min(_STEP_CHUNK, int((n - found) * per_walk * 1.1) + 64)
        up = np.concatenate((attempt, rng.random(size) < p_up))
        pos = np.cumsum(up.view(np.int8) * np.int8(2) - np.int8(1), dtype=np.int32)
        hits = np.flatnonzero(pos % T == 0)
        level = pos[hits]
        before = np.concatenate(([0], level[:-1]))
        moved = level != before
        won = (level > before)[moved]
        keep = int(np.searchsorted(np.cumsum(won), n - found)) + 1
        won = won[:keep]
        sizes = np.diff(hits[moved][:keep] + 1, prepend=0)  # attempt lengths
        inside = np.repeat(won, sizes)
        ends = np.cumsum(sizes)[won]
        found += len(ends)
        # steps paid by each walk ended here, and by the one still running
        tail = len(up) if found < n else ends[-1]
        if np.diff(ends, prepend=last, append=tail).max() > step_cap:
            raise WalkStepCapExceeded(f"walk exceeded {step_cap} steps")
        bits.append(up[: len(inside)][inside])
        lengths.append(sizes[won])
        last = (ends[-1] if len(ends) else last) - len(inside)
        attempt = up[len(inside):]
    return np.concatenate(bits).view(np.uint8), np.concatenate(lengths)


class BiasedBitStream:
    """Independent bits of bias ``gamma_hat`` generated from absorption-side
    coins of bias ``delta_prime``.

    Each walk begun tosses one coin and emits the up-step bits of a walk
    conditioned to absorb on the side the coin chose.  The two-sided mixture
    is the unconditioned biased walk, so the stream is i.i.d. with marginal
    ``(1 + gamma_hat)/2``; the ledger pays ``delta_prime**2`` per walk.
    :meth:`take` draws shapes conditioned on ``+T`` in blocks of at most
    ``_WALK_BLOCK`` walks, begins the shortest prefix that covers the
    request, and complements the shapes whose coin is 0, as
    :func:`sample_conditioned_walk` does for ``-T``.  Unused bits of the last
    walk stay buffered, so no walk is paid twice.  ``coin(count)`` returns
    ``count`` coins (the bridge's block reads); by default drawn from ``rng``.
    """

    def __init__(self, params: WalkParams, rng, coin=None):
        if coin is None:
            p_side = (1.0 + params.delta_prime) / 2.0
            coin = lambda count: rng.random(count) < p_side
        self.params = params
        self.rng = rng
        self.coin = coin
        self.ledger = 0.0
        self.walks = 0
        self.bits_emitted = 0
        self._buffer = np.empty(0, dtype=np.uint8)

    def take(self, count: int) -> np.ndarray:
        p = self.params
        parts = [self._buffer[:count]]
        self._buffer = self._buffer[count:]
        need = count - len(parts[0])
        while need > 0:
            # enough walks on average plus a margin; ceil(need / T) always do
            walks = need / p.mu
            want = min(_WALK_BLOCK, -(-need // p.T),
                       int(walks + 2.0 * math.sqrt(walks)) + 1)
            shapes, lengths = sample_conditioned_walks(
                p.gamma_hat, p.T, want, self.rng
            )
            ends = np.cumsum(lengths)
            k = min(int(np.searchsorted(ends, need)) + 1, want)
            self.walks += k
            self.ledger += k * p.delta_prime**2
            bits = shapes[: ends[k - 1]]
            sides = np.asarray(self.coin(k), np.uint8)
            bits ^= np.repeat(sides ^ 1, lengths[:k])
            parts.append(bits[:need])
            self._buffer = bits[need:]
            need -= len(parts[-1])
        self.bits_emitted += count
        return np.concatenate(parts)


# ---------------------------------------------------------------------------
# Compiling a noisy algorithm for f into a standard one for f ∘ GapMaj_t
# ---------------------------------------------------------------------------

class NoisyAlgorithm:
    """Base class: a decision procedure in two-bias normal form.

    Subclasses implement :meth:`run` and may only issue queries with bias 1
    or ``self.gamma_hat``.
    """

    def __init__(self, gamma_hat: float):
        if not 0.0 < gamma_hat <= 1.0 / 3.0:
            raise ValueError("low bias must lie in (0, 1/3]")
        self.gamma_hat = gamma_hat

    def run(self, oracle) -> int:
        raise NotImplementedError


class ExactReadAlgorithm(NoisyAlgorithm):
    """Queries every variable at bias 1 and evaluates the function."""

    def __init__(self, f: PartialFn):
        super().__init__(1.0 / 3.0)
        self.f = f

    def run(self, oracle) -> int:
        x = 0
        for i in range(self.f.arity):
            x |= oracle.query(i, 1.0) << i
        v = self.f.eval(x)
        return 0 if v is None else v


class MajorityVoteAlgorithm(NoisyAlgorithm):
    """Estimates each variable by a majority of low-bias queries, then
    evaluates the function on the estimates."""

    def __init__(self, f: PartialFn, gamma_hat: float, repeats: int):
        super().__init__(gamma_hat)
        if repeats < 1 or repeats % 2 == 0:
            raise ValueError("repeats must be odd")
        self.f = f
        self.repeats = repeats

    def run(self, oracle) -> int:
        x = 0
        for i in range(self.f.arity):
            votes = oracle.query_many(i, self.gamma_hat, self.repeats)
            x |= int(votes.sum() * 2 > self.repeats) << i
        v = self.f.eval(x)
        return 0 if v is None else v


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _mix_down(bits: np.ndarray, keep_prob: float, rng) -> np.ndarray:
    """Reduce the bias of ``bits`` by the factor ``keep_prob``: keep each bit
    with that probability, replace it by a fresh uniform bit otherwise."""
    if not 0.0 <= keep_prob <= 1.0:
        raise ValueError(f"keep probability {keep_prob} out of range")
    keep = rng.random(len(bits)) < keep_prob
    uniform = (rng.random(len(bits)) < 0.5).astype(np.uint8)
    return np.where(keep, bits, uniform).astype(np.uint8)


def smallest_amplifier(base_bias: float, target: float, cap: int) -> int:
    """Smallest odd k <= cap whose majority bias reaches ``target``, by the
    exact step ``B_{k+2} = B_k + 2g C(k, (k-1)/2) ((1 - g^2)/4)^((k+1)/2)``
    from ``B_1 = g = base_bias``, the term updated by its ratio: O(k)."""
    bias, term, k = base_bias, (1.0 - base_bias * base_bias) / 4.0, 1
    while k <= cap:
        if bias >= target:
            return k
        bias += 2.0 * base_bias * term
        term *= (1.0 - base_bias * base_bias) * (k + 2) / (k + 3)
        k += 2
    raise ValueError(
        f"cannot amplify bias {base_bias} to {target} within {cap} votes"
    )


@dataclass(slots=True)
class ComposedTrial:
    """One run of the compiled standard algorithm on a concrete input."""

    output: int
    expected: int
    block_reads: int          # bias-1 requests forwarded as full block reads
    single_reads: int         # random-position reads for low-bias requests
    composed_queries: int     # standard queries, counted where issued
    noisy_cost: float         # squared-bias cost at the noisy level

    @property
    def correct(self) -> bool:
        return self.output == self.expected

    def query_identity_holds(self, t: int) -> bool:
        return self.composed_queries == t * self.block_reads + self.single_reads


class GapMajBridge:
    """The oracle handed to a noisy algorithm when it actually runs on an
    input of ``f ∘ GapMaj_t``.

    A bias-1 request reads the whole inner block (t standard queries, cached
    afterwards).  Every low-bias request is served by :meth:`_reads`: one
    standard query at a uniformly random position of the block, which on a
    promise input matches the block value with probability 1/2 + 2/sqrt(t),
    i.e. bias 4/sqrt(t), mixed down to the bias asked for.  If the
    algorithm's bias is at least 1/sqrt(t), a majority of reads at bias
    1/sqrt(t) overshoots it and is mixed down to hit it exactly; otherwise
    each walk of the biased-bit generator spends one read at bias
    ``delta_prime`` as its absorption-side coin, so ``single_reads`` grows
    by the ``walks`` of the block's stream.  ``composed_queries`` counts the
    standard queries where they are issued, apart from the request counts
    ``block_reads`` and ``single_reads``.  ``mode`` (``"walk"`` or
    ``"majority"``) is fixed from ``gamma_hat`` and ``t`` when the bridge is
    built, and so is one generator per block, derived by key so the stream
    for one block does not depend on how queries to other blocks interleave.
    """

    def __init__(self, blocks: np.ndarray, gamma_hat: float, seed_seq):
        self.blocks = np.asarray(blocks, dtype=np.uint8)
        n, t = self.blocks.shape
        self._lo, self._hi = gapmaj_weights(t)
        weights = self.blocks.sum(axis=1)
        if not np.all((weights == self._lo) | (weights == self._hi)):
            raise ValueError("inner blocks violate the weight promise")
        self.t = t
        self.gamma_hat = gamma_hat
        ss = _as_seed_sequence(seed_seq)
        self._rngs = [
            np.random.default_rng(np.random.SeedSequence(
                entropy=ss.entropy, spawn_key=ss.spawn_key + (i,)))
            for i in range(n)
        ]
        self.block_reads = 0
        self.single_reads = 0
        self.composed_queries = 0
        self.noisy_cost = 0.0
        self._known: dict[int, int] = {}
        self._streams: dict[int, BiasedBitStream] = {}
        self.sqrt_bias = 1.0 / math.sqrt(t)
        self.mode = "majority"
        if gamma_hat < self.sqrt_bias:
            try:
                self.params = WalkParams(gamma_hat, t)
                self.mode = "walk"
            except ValueError:
                pass  # barrier collapsed; a single-vote majority still works
        if self.mode == "majority":
            # one read already has bias 1/sqrt(t) >= gamma_hat, or a majority
            # of several overshoots it; either way mix down to gamma_hat
            self.votes = smallest_amplifier(self.sqrt_bias, gamma_hat, cap=t)
            self.amplified = float(amplify_bias_exact(self.sqrt_bias, self.votes))

    # -- primitive reads -------------------------------------------------

    def _block_value(self, i: int) -> int:
        if i not in self._known:
            self.block_reads += 1
            self.composed_queries += self.t  # reads all t bits of block i
            self._known[i] = int(self.blocks[i].sum() == self._hi)
        return self._known[i]

    def _reads(self, i: int, count: int, bias: float) -> np.ndarray:
        """``count`` reads of uniformly random positions of block i (bias
        4/sqrt(t) toward the block value), mixed down to ``bias``."""
        self.single_reads += count
        rng = self._rngs[i]
        pos = rng.integers(0, self.t, size=count)
        self.composed_queries += len(pos)
        return _mix_down(self.blocks[i, pos],
                         keep_prob=0.25 * bias / self.sqrt_bias, rng=rng)

    # -- the noisy-oracle surface ----------------------------------------

    def query(self, i: int, gamma: float) -> int:
        return int(self.query_many(i, gamma, 1)[0])

    def query_many(self, i: int, gamma: float, count: int) -> np.ndarray:
        if not 0 <= i < len(self.blocks):
            raise ValueError(f"index {i} out of range")
        if gamma == 1.0:
            value = self._block_value(i)
            self.noisy_cost += float(count)
            return np.full(count, value, dtype=np.uint8)
        if gamma != self.gamma_hat:
            raise ValueError(
                "normal form violated: bias must be 1 or the declared low bias"
            )
        self.noisy_cost += count * gamma * gamma
        if self.mode == "majority":
            votes = self._reads(i, count * self.votes, self.sqrt_bias)
            votes = votes.reshape(count, self.votes)
            maj = (votes.sum(axis=1) * 2 > self.votes).astype(np.uint8)
            return _mix_down(maj, keep_prob=self.gamma_hat / self.amplified,
                             rng=self._rngs[i])
        stream = self._streams.get(i)
        if stream is None:
            # a weak reference, so that a finished bridge is freed at once
            # rather than by the cycle collector
            bridge = weakref.proxy(self)
            stream = BiasedBitStream(
                self.params, self._rngs[i],
                coin=lambda count, i=i: bridge._reads(
                    i, count, bridge.params.delta_prime),
            )
            self._streams[i] = stream
        return stream.take(count)


def make_promise_blocks(outer_bits, t: int, rng) -> np.ndarray:
    """Concrete inner blocks realizing the given outer assignment: block i
    gets the promised high weight iff ``outer_bits[i]`` is 1, at uniformly
    random positions."""
    lo, hi = gapmaj_weights(t)
    blocks = np.zeros((len(outer_bits), t), dtype=np.uint8)
    for i, b in enumerate(outer_bits):
        w = hi if b else lo
        blocks[i, rng.choice(t, size=w, replace=False)] = 1
    return blocks


def run_composed_trial(
    alg: NoisyAlgorithm, f: PartialFn, outer_bits, t: int, seed
) -> ComposedTrial:
    """Compile ``alg`` against gap-majority inner functions and run it once
    on a random promise input realizing ``outer_bits``.  ``seed`` may be an
    integer or a SeedSequence; the bridge derives one generator per inner
    block from it."""
    if len(outer_bits) != f.arity:
        raise ValueError("outer assignment length must match the arity")
    expected = f.eval(sum(b << i for i, b in enumerate(outer_bits)))
    if expected is None:
        raise ValueError("outer assignment outside the domain")
    ss = _as_seed_sequence(seed)
    blocks_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=ss.entropy,
                               spawn_key=ss.spawn_key + (1 << 31,))
    )
    blocks = make_promise_blocks(outer_bits, t, blocks_rng)
    bridge = GapMajBridge(blocks, alg.gamma_hat, ss)
    output = alg.run(bridge)
    return ComposedTrial(
        output=output,
        expected=expected,
        block_reads=bridge.block_reads,
        single_reads=bridge.single_reads,
        composed_queries=bridge.composed_queries,
        noisy_cost=bridge.noisy_cost,
    )


@dataclass
class TrialSummary:
    trials: int
    successes: int
    mean_cost: float
    identity_ok: bool

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def confidence_95(self) -> float:
        if not self.trials:
            return 0.0
        p = self.success_rate
        return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / self.trials)


def run_composed_trials(
    alg: NoisyAlgorithm, f: PartialFn, outer_bits, t: int, trials: int, seed
) -> TrialSummary:
    """Seeded batch of composed runs on one outer assignment."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    seq = np.random.SeedSequence(seed)
    successes = 0
    cost = 0.0
    identity = True
    for child in seq.spawn(trials):
        trial = run_composed_trial(alg, f, outer_bits, t, child)
        successes += trial.correct
        cost += trial.composed_queries
        identity = identity and trial.query_identity_holds(t)
    return TrialSummary(
        trials=trials,
        successes=successes,
        mean_cost=cost / trials if trials else 0.0,
        identity_ok=identity,
    )
