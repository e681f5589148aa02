"""Exact per-element posteriors on a syndrome trellis (forward-backward).

This is a BCJR-style two-pass algorithm.  The forward metric alpha_l(s) sums
the prior mass of all length-l prefixes whose partial syndrome is s; the
backward metric beta_l(s) sums, over all suffixes starting at s, the prior
mass weighted by the observation likelihood Q(t | final syndrome).  The
product alpha * gamma * beta split by edge label yields, per element, the
unnormalised posterior masses

    U0_l = Pr{T = t, X_l = 0},    U1_l = Pr{T = t, X_l = 1},

whose log-ratio is the a-posteriori log-likelihood ratio reported as `lapp`.
U0_l + U1_l equals the model evidence Pr{T = t} at every section, which is
both a free consistency check and the normaliser turning the pair into a
posterior probability.

To stay in fast linear arithmetic without underflowing (prior mass shrinks
like delta^k (1-delta)^(n-k)), both passes renormalise each depth to sum to
one and accumulate the log of the discarded scale factors; all reported
quantities fold the accumulated logs back in.

The forward pass does not depend on the outcome, so it is computed once per
(trellis, prior) and cached with the trellis (for its latest prior, so the
cache never outgrows the trellis).  The backward pass is batched:
`posterior_table` stacks many outcome vectors as columns of the final beta
matrix, and the pass streams from the last depth to the first holding one
beta at a time, forming the label sums U0/U1 from the same gathers.  No
per-depth beta is kept, so memory is O(max states x K) rather than
O(total states x K), which is what makes large Monte Carlo sweeps cheap.
`run` is the same pass with a single column.
"""

from __future__ import annotations

import dataclasses
import math
import weakref

import numpy as np

from .model import (
    CustomNoise,
    Noiseless,
    NotASyndromeError,
    Prior,
    SizeLimitError,
    as_bit_vector,
)
from .trellis import Trellis

#: Generic (callable) likelihoods are evaluated state by state in Python, so
#: trellis inference with them is restricted to small outcome spaces.
MAX_CUSTOM_NOISE_TESTS = 16

#: Trellis -> (prevalence, forward pass) of its latest use.  One entry per
#: trellis bounds the cache by the trellis's own state count, and an entry
#: goes away with its trellis.
_ALPHA_CACHE = weakref.WeakKeyDictionary()


def branch_metric(label, prior: Prior) -> float:
    """Edge weight gamma: prior probability of one element's label."""
    if label not in (0, 1):
        raise ValueError(f"edge label must be 0 or 1, got {label}")
    return prior.delta if label == 1 else 1.0 - prior.delta


@dataclasses.dataclass(frozen=True, eq=False)
class MetricTable:
    """Scaled per-depth forward metrics and the per-section log evidence.

    True forward metrics are recovered as alpha[l] * exp(alpha_log_scale[l]).
    The scaled alphas sum to one at every depth by construction; they are
    shared by every result on the same trellis and prior, so they are
    read-only.  The backward pass keeps no per-depth beta.
    section_log_evidence[l] is log(U0_l + U1_l); it is the same at every
    section up to rounding.
    """

    alpha: tuple
    alpha_log_scale: np.ndarray
    section_log_evidence: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class PosteriorResult:
    """Per-element posterior log-ratios plus evidence and inspection data.

    lapp[l] = log Pr{X_l = 0 | T = t} - log Pr{X_l = 1 | T = t}; +inf marks an
    element certainly non-defective, -inf certainly defective.  `zero_forced`
    lists elements a reduced trellis ruled out structurally (members of silent
    tests); their lapp is +inf.
    """

    lapp: np.ndarray
    log_evidence: float
    zero_forced: np.ndarray
    metrics: MetricTable


def _forward(trellis, prior):
    """Scaled forward metrics per depth and cumulative log scales.

    The result depends only on the trellis and the prevalence, so it is
    cached per trellis for the latest `prior.delta` and dropped with the
    trellis; its arrays are read-only because `run` hands them out.
    """
    # two threads missing at once both compute the same arrays; either may stay
    delta, cached = _ALPHA_CACHE.get(trellis, (None, None))
    if delta == prior.delta:
        return cached
    g0 = branch_metric(0, prior)
    g1 = branch_metric(1, prior)
    alpha = [np.ones(1)]
    log_scale = [0.0]
    for ell in range(trellis.n):
        sec = trellis.sections[ell]
        size = trellis.states[ell + 1].size
        cur = alpha[ell]
        nxt = np.bincount(
            sec.zero_dst, weights=g0 * cur[sec.zero_src], minlength=size
        ) + np.bincount(sec.one_dst, weights=g1 * cur[sec.one_src], minlength=size)
        c = float(nxt.sum())
        alpha.append(nxt / c)
        log_scale.append(log_scale[-1] + math.log(c))
    cached = (tuple(alpha), np.array(log_scale))
    for arr in (*cached[0], cached[1]):
        arr.setflags(write=False)
    _ALPHA_CACHE[trellis] = (prior.delta, cached)
    return cached


def _engine(trellis, prior, beta_final):
    """Posteriors for the columns of beta_final, which is (final states, K).

    beta_final is consumed: it is normalised in place and, when it is as
    wide as the widest depth (always, in a complete trellis), reused as one
    of the pass's work arrays.  Callers pass a fresh array.

    One backward pass holds a single scaled beta at a time.  Each section
    gathers beta per label in left-state order, 0 where a left state has no
    edge of that label, so every section takes one update.  The beta and the
    two gathers live in three (max states, K) work arrays allocated once per
    call, so a complete trellis allocates nothing per depth.  Returns lapp
    (n, K), log evidence (K,), section log evidence (n, K) and the forward
    pass (alpha, alpha log scales) it used.
    """
    g0 = branch_metric(0, prior)
    g1 = branch_metric(1, prior)
    n, k = trellis.n, beta_final.shape[1]
    alpha, a_log = _forward(trellis, prior)
    u0 = np.empty((n, k))
    u1 = np.empty((n, k))
    b_log = np.empty((n + 1, k))
    d = beta_final.sum(axis=0)
    b = beta_final
    b /= d
    b_log[n] = np.log(d)
    log_evidence = np.log(alpha[n] @ b) + a_log[n] + b_log[n]
    width = max(trellis.state_counts)
    work = [b if b.shape[0] == width else np.empty((width, k))]
    work += [np.empty((width, k)) for _ in range(2)]
    slot = 0  # the work array that holds b, when b is one
    for ell in range(n - 1, -1, -1):
        sec = trellis.sections[ell]
        a = alpha[ell]
        zslot, oslot = (i for i in range(3) if i != slot)
        bz, bo = work[zslot][: a.size], work[oslot][: a.size]
        for out, src, dst in ((bz, sec.zero_src, sec.zero_dst), (bo, sec.one_src, sec.one_dst)):
            if src.size == a.size:  # the label leaves every left state: src is the identity
                # mode="raise" would buffer `out`; the indices are in range by construction
                b.take(dst, axis=0, out=out, mode="clip")
            else:  # 0 where a left state has no edge of this label
                out.fill(0.0)
                out[src] = b[dst]
        u0[ell] = g0 * (a @ bz)
        u1[ell] = g1 * (a @ bo)
        bz *= g0
        bo *= g1
        bz += bo
        b, slot = bz, zslot
        c = b.sum(axis=0)
        b /= c
        b_log[ell] = b_log[ell + 1] + np.log(c)
    with np.errstate(divide="ignore"):
        lapp = np.log(u0) - np.log(u1)
        section_log_evidence = np.log(u0 + u1) + (a_log[:n, None] + b_log[1:])
    return lapp, log_evidence, section_log_evidence, (alpha, a_log)


def _final_beta(trellis, noise, rows):
    """Likelihoods of validated (K, m) outcome rows at the final states.

    Raises NotASyndromeError when a row has zero probability at every
    reachable syndrome.
    """
    if isinstance(noise, CustomNoise) and trellis.m > MAX_CUSTOM_NOISE_TESTS:
        raise SizeLimitError(
            f"generic likelihoods are guarded to {MAX_CUSTOM_NOISE_TESTS} tests, got {trellis.m}"
        )
    beta_final = noise.likelihood_table(rows, trellis.states[-1], trellis.m)
    dead = np.flatnonzero(beta_final.sum(axis=0) == 0.0)
    if dead.size:
        raise NotASyndromeError(
            f"{dead.size} outcome row(s) have zero probability at every reachable "
            f"syndrome (first at row {int(dead[0])})"
        )
    return beta_final


def run(trellis: Trellis, prior: Prior, noise, t) -> PosteriorResult:
    """Exact posteriors for one observed outcome vector `t`.

    A complete trellis (`trellis.outcome` is None) accepts any noise model; a
    pruned one encodes `trellis.outcome`, so `t` must equal it and `noise`
    must be Noiseless.  Raises NotASyndromeError when the outcome has zero
    probability under the model.

    This is the one-column case of the `posterior_table` pass; its lapp is
    scattered through `trellis.kept`, and the elements outside it come back
    as `zero_forced` with lapp +inf.  The result's MetricTable carries the
    forward metrics and the per-section evidence but no per-depth beta.
    """
    own = trellis.outcome
    tv = as_bit_vector(t, trellis.m if own is None else own.size, "outcome vector")
    if own is None:
        beta_final = _final_beta(trellis, noise, tv[None, :])
    else:
        if not isinstance(noise, Noiseless):
            raise ValueError("expurgated and reduced trellises encode a noiseless outcome")
        if not np.array_equal(tv, own):
            raise ValueError("outcome differs from the one this trellis was pruned for")
        beta_final = np.ones((1, 1))
    lapp, log_ev, section_log_ev, (alpha, a_log) = _engine(trellis, prior, beta_final)
    metrics = MetricTable(
        alpha=alpha, alpha_log_scale=a_log, section_log_evidence=section_log_ev[:, 0]
    )
    full = np.full(trellis.kept.size, np.inf)
    full[trellis.kept] = lapp[:, 0]
    # silent tests pin the elements a reduced trellis drops to zero; fold the
    # prior mass of those forced labels back into the evidence
    zero_forced = np.flatnonzero(~trellis.kept)
    log_ev = float(log_ev[0]) + zero_forced.size * math.log(1.0 - prior.delta)
    return PosteriorResult(lapp=full, log_evidence=log_ev, zero_forced=zero_forced, metrics=metrics)


def posterior_table(trellis: Trellis, prior: Prior, noise, outcomes) -> np.ndarray:
    """Lapp rows for a batch of outcome vectors, sharing one forward pass.

    `outcomes` is a (K, m) binary array; the result is (K, n).  Requires a
    complete trellis (the batch spans different final conditions).  With a
    noiseless channel every row must be a reachable syndrome.
    """
    if trellis.outcome is not None:
        raise ValueError("posterior tables require a complete trellis")
    rows = np.asarray(outcomes)
    if rows.ndim != 2 or rows.shape[1] != trellis.m:
        raise ValueError(f"expected a (K, {trellis.m}) outcome array, got shape {rows.shape}")
    if rows.shape[0] == 0:
        return np.zeros((0, trellis.n))
    rows = as_bit_vector(rows.reshape(-1), None, "outcome array").reshape(rows.shape)
    return _engine(trellis, prior, _final_beta(trellis, noise, rows))[0].T


def posterior_pairs(result) -> np.ndarray:
    """Posterior (clear, defective) probability pairs from lapp values.

    Accepts a PosteriorResult or a raw lapp array; rows are elements, column 0
    is Pr{X_l = 0 | t}, column 1 is Pr{X_l = 1 | t}.  Computed with the stable
    logistic form, so +-inf map to exact (1, 0) / (0, 1).
    """
    lapp = np.asarray(result.lapp if isinstance(result, PosteriorResult) else result, float)
    e = np.exp(-np.abs(lapp))
    p1 = np.where(lapp >= 0, e / (1.0 + e), 1.0 / (1.0 + e))
    return np.stack([1.0 - p1, p1], axis=1)
