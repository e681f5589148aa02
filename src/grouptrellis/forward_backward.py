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
cache never outgrows the trellis).  A label whose edges leave every left
state has the trellis's shared ramp as its source, so the forward pass
scatters alpha itself rather than a gathered copy.  The backward pass is
batched: `posterior_table` stacks outcome vectors as columns of the final beta
matrix, one fixed-width column block at a time, and the pass streams from
the last depth to the first holding one beta at a time, forming the label
sums U0/U1 from the same gathers.  No per-depth beta is kept and no block
is wider than `_BLOCK_BYTES` allows, so memory is O(max states x block) for
the pass plus O(K x n) for the lapp table, which is what makes large Monte
Carlo sweeps cheap.  `run` is the same pass with a single column.
"""

from __future__ import annotations

import dataclasses
import math
import weakref

import numpy as np

from .model import Noiseless, NotASyndromeError, Prior, as_bit_vector
from .trellis import Trellis

#: Trellis -> (prevalence, forward pass) of its latest use.  One entry per
#: trellis bounds the cache by the trellis's own state count, and an entry
#: goes away with its trellis.
_ALPHA_CACHE = weakref.WeakKeyDictionary()

#: Bytes of one backward-pass work array in `posterior_table`, which sets
#: its column block width.
_BLOCK_BYTES = 1 << 20


@dataclasses.dataclass(frozen=True, eq=False)
class PosteriorResult:
    """Per-element posterior log-ratios, the evidence and the forward metrics.

    lapp[l] = log Pr{X_l = 0 | T = t} - log Pr{X_l = 1 | T = t}; +inf marks an
    element certainly non-defective, -inf certainly defective.  log_evidence
    is log Pr{T = t}.  True forward metrics are alpha[l] *
    exp(alpha_log_scale[l]); the scaled alphas sum to one at every depth and
    are shared by every result on the same trellis and prior, so they are
    read-only.  section_log_evidence[l] is log(U0_l + U1_l) of the l-th
    section; it is the same at every section up to rounding.
    """

    lapp: np.ndarray
    log_evidence: float
    alpha: tuple
    alpha_log_scale: np.ndarray
    section_log_evidence: np.ndarray


def _forward(trellis, prior):
    """Scaled forward metrics per depth and cumulative log scales.

    The result depends only on the trellis and the prevalence, so it is
    cached per trellis for the latest `prior.delta` and dropped with the
    trellis; its arrays are read-only because `run` hands them out.  A
    label's source as wide as the left depth is a view of the trellis's
    shared ramp, the identity, so `cur[src]` would only copy `cur`: the
    label scatters `cur` itself, the same values.  An in-place 0-label
    (`zero_dst is zero_src`) adds up to `g0 * cur`, so it skips the bincount.
    """
    # two threads missing at once both compute the same arrays; either may stay
    delta, cached = _ALPHA_CACHE.get(trellis, (None, None))
    if delta == prior.delta:
        return cached
    g0, g1 = 1.0 - prior.delta, prior.delta  # edge weights gamma of labels 0 and 1
    alpha = [np.ones(1)]
    log_scale = [0.0]
    for ell in range(trellis.n):
        sec = trellis.sections[ell]
        size = trellis.states[ell + 1].size
        cur = alpha[ell]
        if sec.zero_dst is sec.zero_src:  # the 0-edges keep every state in place
            nxt = g0 * cur
        else:
            zero = cur if sec.zero_src.size == cur.size else cur[sec.zero_src]
            nxt = np.bincount(sec.zero_dst, weights=g0 * zero, minlength=size)
        one = cur if sec.one_src.size == cur.size else cur[sec.one_src]
        # not +=: the bincount of an empty `zero_dst` is int64
        nxt = nxt + np.bincount(sec.one_dst, weights=g1 * one, minlength=size)
        c = float(nxt.sum())
        alpha.append(nxt / c)
        log_scale.append(log_scale[-1] + math.log(c))
    cached = (tuple(alpha), np.array(log_scale))
    for arr in (*cached[0], cached[1]):
        arr.setflags(write=False)
    _ALPHA_CACHE[trellis] = (prior.delta, cached)
    return cached


def _gather(out, b, src, dst):
    """out[src[k]] = b[dst[k]], with 0 where a left state has no edge of the label."""
    if src.size == out.shape[0]:  # the label leaves every left state: src is the identity
        # mode="raise" would buffer `out`; the indices are in range by construction
        b.take(dst, axis=0, out=out, mode="clip")
    else:
        out.fill(0.0)
        out[src] = b[dst]


def _column_sums(b, out=None):
    """out = b.sum(axis=0), bit for bit, for a C-ordered (states, K) array.

    With K >= 2 both add the rows one after another in row order, and einsum
    does it in about half the time; with K = 1 sum is pairwise and einsum is
    not, so one column keeps sum.
    """
    return b.sum(axis=0, out=out) if b.shape[1] == 1 else np.einsum("ij->j", b, out=out)


def _engine(trellis, prior, beta_final, first_row=0):
    """Posteriors for the columns of beta_final, which is (final states, K).

    beta_final is consumed: it is normalised in place and, when it is as
    wide as the widest depth (always, in a complete trellis), reused as one
    of the pass's work arrays.  Callers pass a fresh array.

    One backward pass holds a single scaled beta at a time.  Each section
    gathers beta per label in left-state order, 0 where a left state has no
    edge of that label, so every section takes the same update.  A label
    whose destination array is its source array keeps every state in place
    (`_assemble` shares the array exactly there), so beta itself is its
    gather, and where both labels do, one product serves both.  This skips
    copies, not arithmetic: a section built with separate arrays takes the
    general path to the same bits.  Beta lives in `home`; `spare` takes a
    0-gather and then swaps with `home`, and `gather1` takes the 1-gather.
    These three (max states, K) arrays are allocated once per call, so a
    complete trellis allocates nothing per depth; `posterior_table` bounds K
    by its column block.  Each depth writes its label dot products and column
    sums into rows of preallocated tables; the edge weights, logs and log
    scale sums are applied to the whole tables after the loop.

    Column sums (the evidence of beta_final and each depth's scale) go
    through `_column_sums`: with K >= 2 it adds the states in order, as
    `sum(axis=0)` does, and with K = 1 it keeps sum's pairwise order, so
    `run` and the K = 1 blocks of `posterior_table` keep their bits.

    Raises NotASyndromeError, before any other work, when a column of
    beta_final is all zero; its message numbers the columns from
    `first_row`, the caller's row of column 0.  Returns lapp (n, K), log
    evidence (K,), section log evidence (n, K) and the forward pass (alpha,
    alpha log scales) it used.
    """
    n, k = trellis.n, beta_final.shape[1]
    scale = np.empty((n + 1, k))  # scale[l]: the column sums that beta_l was divided by
    d = _column_sums(beta_final, scale[n])
    dead = np.flatnonzero(d == 0.0)
    if dead.size:
        raise NotASyndromeError(
            f"outcome row {first_row + int(dead[0])} has zero probability at every "
            f"reachable syndrome ({dead.size} such row(s) in rows {first_row}-"
            f"{first_row + k - 1})"
        )
    g0, g1 = 1.0 - prior.delta, prior.delta  # edge weights gamma of labels 0 and 1
    alpha, a_log = _forward(trellis, prior)
    z0 = np.empty((n, k))  # z0[l] = alpha_l . (0-gather of beta_l+1); z1 likewise
    z1 = np.empty((n, k))
    b = beta_final
    b /= d
    log_evidence = np.log(alpha[n] @ b) + a_log[n] + np.log(d)
    width = max(trellis.state_counts)
    home = b if b.shape[0] == width else np.empty((width, k))
    spare, gather1 = np.empty((width, k)), np.empty((width, k))
    for ell in range(n - 1, -1, -1):
        sec = trellis.sections[ell]
        a = alpha[ell]
        bo = gather1[: a.size]
        if sec.zero_dst is sec.zero_src:  # the 0-edges keep every state in place
            bz = b
        else:
            bz = spare[: a.size]
            _gather(bz, b, sec.zero_src, sec.zero_dst)
            home, spare = spare, home
        np.matmul(a, bz, out=z0[ell])
        if bz is b and sec.one_dst is sec.one_src:  # so do the 1-edges
            z1[ell] = z0[ell]
            np.multiply(b, g1, out=bo)
        else:
            _gather(bo, b, sec.one_src, sec.one_dst)
            np.matmul(a, bo, out=z1[ell])
            bo *= g1
        bz *= g0
        bz += bo
        b = bz
        b /= _column_sums(b, scale[ell])
    u0 = g0 * z0
    u1 = g1 * z1
    # log of the contiguous table: a reversed view may take a loop that rounds differently
    b_log = np.cumsum(np.log(scale)[::-1], axis=0)[::-1]
    with np.errstate(divide="ignore"):
        lapp = np.log(u0) - np.log(u1)
        section_log_evidence = np.log(u0 + u1) + (a_log[:n, None] + b_log[1:])
    return lapp, log_evidence, section_log_evidence, (alpha, a_log)


def run(trellis: Trellis, prior: Prior, noise, t) -> PosteriorResult:
    """Exact posteriors for one observed outcome vector `t`.

    `noise` is one of the two channels, Noiseless or Bsc.  A complete trellis
    (`trellis.outcome` is None) accepts either; a pruned one encodes
    `trellis.outcome`, so `t` must equal it and `noise` must be Noiseless.
    Raises NotASyndromeError when the outcome has zero probability under the
    model.

    This is the one-column case of the `posterior_table` pass.  Its lapp is
    scattered through `trellis.kept`; the elements outside it (members of
    silent tests, `np.flatnonzero(~trellis.kept)`) get lapp +inf, and the
    prior mass of their forced labels is folded into the log evidence.  The
    section evidence covers the kept elements only.
    """
    own = trellis.outcome
    tv = as_bit_vector(t, trellis.m if own is None else own.size, "outcome vector")
    if own is None:
        beta_final = noise.likelihood_table(tv[None, :], trellis.states[-1], trellis.m)
    else:
        if not isinstance(noise, Noiseless):
            raise ValueError("expurgated and reduced trellises encode a noiseless outcome")
        if not np.array_equal(tv, own):
            raise ValueError("outcome differs from the one this trellis was pruned for")
        beta_final = np.ones((1, 1))
    lapp, log_ev, section_log_ev, (alpha, a_log) = _engine(trellis, prior, beta_final)
    full = np.full(trellis.kept.size, np.inf)
    full[trellis.kept] = lapp[:, 0]
    forced = int((~trellis.kept).sum())
    return PosteriorResult(
        lapp=full,
        log_evidence=float(log_ev[0]) + forced * math.log(1.0 - prior.delta),
        alpha=alpha,
        alpha_log_scale=a_log,
        section_log_evidence=section_log_ev[:, 0],
    )


def posterior_table(trellis: Trellis, prior: Prior, noise, outcomes) -> np.ndarray:
    """Lapp rows for a batch of outcome vectors, sharing one forward pass.

    `outcomes` is a (K, m) binary array; the result is (K, n).  Requires a
    complete trellis (the batch spans different final conditions).  With a
    noiseless channel every row must be a reachable syndrome; the error
    names the first dead row of the first block that has one.

    The backward pass runs over column blocks whose work arrays take about
    `_BLOCK_BYTES` each, so memory is O(max states x block) for the pass
    plus O(K x n) for the result.  Every block is a multiple of 8 columns
    wide except the last, which takes in a tail narrower than 8: on those
    widths each column's `a @ b` and column sum round the same whatever the
    block, so the bits equal one pass over the whole batch.
    """
    if trellis.outcome is not None:
        raise ValueError("posterior tables require a complete trellis")
    rows = np.asarray(outcomes)
    if rows.ndim != 2 or rows.shape[1] != trellis.m:
        raise ValueError(f"expected a (K, {trellis.m}) outcome array, got shape {rows.shape}")
    if rows.shape[0] == 0:
        return np.zeros((0, trellis.n))
    rows = as_bit_vector(rows.reshape(-1), None, "outcome array").reshape(rows.shape)
    k = rows.shape[0]
    width = max(8, _BLOCK_BYTES // (8 * max(trellis.state_counts)) // 8 * 8)
    out = np.empty((k, trellis.n))
    lo = 0
    while lo < k:
        hi = lo + width if k - lo - width >= 8 else k
        beta_final = noise.likelihood_table(rows[lo:hi], trellis.states[-1], trellis.m)
        out[lo:hi] = _engine(trellis, prior, beta_final, lo)[0].T
        lo = hi
    return out


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
