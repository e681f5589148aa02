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
like delta^k (1-delta)^(n-k)), the forward pass renormalises each depth to
sum to one and accumulates the log of the discarded scale factors; all
reported quantities fold the accumulated logs back in.  The backward pass
needs a scale only where its metric gets small.  With alpha_l summing to
one, alpha_l . beta_l is the evidence over the scales so far, and a section
scales it by no less than the smaller edge weight, so a one-column pass
leaves beta unscaled and divides it by a power of two only when that
product nears the bottom of the float range (see `_engine`).  A batch of
several columns still divides each depth by its column sums.

The forward pass does not depend on the outcome, so a trellis from
`build_complete` keeps it in its engine state, for the latest prior used on
it; it is internal, and no result carries it.  A label whose edges leave
every left state has the trellis's shared ramp as its source, so the forward
pass scatters alpha itself rather than a gathered copy.  The backward pass
is batched: `posterior_table` stacks outcome vectors as columns of the final
beta matrix, one fixed-width column block at a time, and the pass streams
from the last depth to the first holding one beta at a time, forming the
label sums U0/U1 from the same gathers.  No per-depth beta is kept and no
block is wider than `_BLOCK_BYTES` allows, so memory is O(max states x
block) for the pass plus O(K x n) for the lapp table, which is what makes
large Monte Carlo sweeps cheap.  `run` is the same pass with one column.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import NotASyndromeError, Prior, as_bit_vector
from .trellis import Trellis

#: Bytes of one backward-pass work array in `posterior_table`, which sets
#: its column block width.
_BLOCK_BYTES = 1 << 20


@dataclasses.dataclass(frozen=True, eq=False)
class PosteriorResult:
    """Per-element posterior log-ratios and the evidence.

    lapp[l] = log Pr{X_l = 0 | T = t} - log Pr{X_l = 1 | T = t}; +inf marks an
    element certainly non-defective, -inf certainly defective.  log_evidence
    is log Pr{T = t}.  section_log_evidence[l] is log(U0_l + U1_l) of the
    l-th section; it is the same at every section up to rounding.
    """

    lapp: np.ndarray
    log_evidence: float
    section_log_evidence: np.ndarray


def _edge_weights(prior):
    """The edge weights gamma of labels 0 and 1, as 0-d float64 arrays.

    numpy's fast elementwise loop takes a 0-d operand as it is but converts
    a Python float first, so a 0-d factor saves that step and gives the same
    products.
    """
    return np.array(1.0 - prior.delta), np.array(prior.delta)


def _forward(trellis, prior):
    """Scaled forward metrics per depth and cumulative log scales.

    The result depends only on the trellis and the prevalence, so a record
    `build_complete` returned keeps it in its engine state for the latest
    `prior.delta`, read-only because every call on the trellis shares it; a
    pruned record, or one made by `dataclasses.replace`, has no engine state
    and runs afresh.  True forward metrics are alpha[l] * exp(log_scale[l]).
    A label's source as wide as the left depth is a view of the trellis's
    shared ramp, the identity, so `cur[src]` would only copy `cur`: the
    label scatters `cur` itself, the same values.  An in-place 0-label
    (`zero_dst is zero_src`) adds up to `g0 * cur` and skips the bincount.
    """
    state = trellis._engine_state
    sections, (delta, cached) = state or (trellis.sections, (None, None))
    if delta == prior.delta:
        return cached
    g0, g1 = _edge_weights(prior)
    bincount, total, log = np.bincount, np.add.reduce, math.log
    c = np.empty(())  # each depth's sum, 0-d for the same reason as the weights
    cur = np.ones(1)
    alpha = [cur]
    log_scale = [0.0]
    for (zero_src, zero_dst, one_src, one_dst), right in zip(sections, trellis.states[1:]):
        size = right.size
        if zero_dst is zero_src:  # the 0-edges keep every state in place
            nxt = g0 * cur
        else:
            zero = cur if zero_src.size == cur.size else cur[zero_src]
            nxt = bincount(zero_dst, weights=g0 * zero, minlength=size)
        one = cur if one_src.size == cur.size else cur[one_src]
        # not +=: the bincount of an empty `zero_dst` is int64; `+` makes a fresh
        # float64 array, which is then normalised in place
        nxt = nxt + bincount(one_dst, weights=g1 * one, minlength=size)
        total(nxt, out=c)
        nxt /= c
        alpha.append(nxt)
        log_scale.append(log_scale[-1] + log(c))
        cur = nxt
    cached = (tuple(alpha), np.array(log_scale))
    if state:
        for arr in (*cached[0], cached[1]):
            arr.setflags(False)  # write=False, by position: a keyword doubles the call's cost
        # one store, so threads read whole pairs; two missing at once compute the same
        state[1] = (prior.delta, cached)
    return cached


def _gather(out, b, src, dst):
    """out[src[k]] = b[dst[k]], with 0 where a left state has no edge of the label."""
    if src.size == len(out):  # the label leaves every left state: src is the identity
        # mode="raise" would buffer `out`; the indices are in range by construction
        b.take(dst, axis=0, out=out, mode="clip")
    else:
        out.fill(0.0)
        out[src] = b.take(dst, axis=0)


def _column_sums(b, out=None):
    """out = b.sum(axis=0), bit for bit, for a C-ordered (states, K) array.

    With K >= 2 both add the rows one after another in row order, and einsum
    does it in about half the time; with K = 1 sum is pairwise and einsum is
    not, so one column keeps sum's ufunc, `np.add.reduce`.
    """
    return np.add.reduce(b, axis=0, out=out) if b.shape[1] == 1 else np.einsum("ij->j", b, out=out)


def _engine(trellis, prior, beta_final, first_row=0):
    """Posteriors for the columns of beta_final, which is (final states, K).

    beta_final is consumed: it is normalised in place and, when it is as
    wide as the widest depth (always, in a complete trellis), reused as one
    of the pass's work arrays.  Callers pass a fresh array.

    One backward pass holds a single beta at a time.  Each section gathers
    beta per label in left-state order, 0 where a left state has no edge of
    that label, so every section takes the same update.  A label whose
    destination array is its source array keeps every state in place
    (`trellis._build` shares the array exactly there), so beta itself is its
    gather, and where both labels do, one product serves both.  This skips
    copies, not arithmetic: a section built with separate arrays takes the
    general path to the same bits.  Beta lives in `home`; `spare` takes a
    0-gather and then swaps with `home`, and `gather1` takes the 1-gather.
    These three (max states, K) arrays are allocated once per call, so a
    complete trellis allocates nothing per depth; `posterior_table` bounds K
    by its column block.  Each depth writes its label dot products and the
    factor beta was divided by into rows of preallocated tables; the edge
    weights, logs and log scale sums are applied to the whole tables after
    the loop.

    With K >= 2, every depth divides beta by its column sums.  A single
    column (`run`, or a one-row `posterior_table`) leaves beta as it is:
    alpha_l sums to one, so alpha_l . beta_l, which is the section's
    g0 * z0 + g1 * z1, is the evidence over the scales so far, and a
    section multiplies that product by at least min(g0, g1) (every state of
    a trellis has an out-edge).  Only when it falls below
    2**-500 / min(g0, g1) is beta divided by the power of two at its
    `math.frexp` exponent, exactly, and the factor written to the depth's
    scale row; a product above that bound is above 2**-500 after the next
    section, far from where beta's entries start to underflow.  The batch
    keeps the division because the ROC counts recorded in
    `perfbench/reference.json` rest on its bits: moving them flips a
    threshold tie at the grid centre.

    Column sums (of beta_final, and with K >= 2 of each depth's beta) go
    through `_column_sums`, which keeps sum's bits at every K.

    Raises NotASyndromeError, before any other work, when a column of
    beta_final is all zero, and ValueError when a column yields a NaN lapp
    or a non-finite log evidence, which the normalised forward pass gives
    when a state's prefix mass underflows against its depth's largest
    (a pruned trellis keeps only the outcome's states, which usually avoids
    it).  The messages number the columns from `first_row`, the caller's
    row of column 0.  Returns lapp (n, K), log evidence (K,) and section
    log evidence (n, K).
    """
    n, k = trellis.n, beta_final.shape[1]
    scale = np.ones((n + 1, k))  # scale[l]: what beta_l was divided by
    d = _column_sums(beta_final, scale[n])
    dead = (d == 0.0).nonzero()[0]
    if dead.size:
        raise NotASyndromeError(
            f"outcome row {first_row + int(dead[0])} has zero probability at every "
            f"reachable syndrome ({dead.size} such row(s) in rows {first_row}-"
            f"{first_row + k - 1})"
        )
    g0, g1 = _edge_weights(prior)
    alpha, a_log = _forward(trellis, prior)
    z0 = np.empty((n, k))  # z0[l] = alpha_l . (0-gather of beta_l+1); z1 likewise
    z1 = np.empty((n, k))
    b = beta_final
    b /= d
    evidence = alpha[n] @ b
    width = max(map(len, trellis.states))
    home = b if len(b) == width else np.empty((width, k))
    spare, gather1 = np.empty((width, k)), np.empty((width, k))
    matmul, multiply, column_sums = np.matmul, np.multiply, _column_sums
    w0, w1 = 1.0 - prior.delta, prior.delta
    tiny = 2.0**-500 / min(w0, w1) if k == 1 else None  # None: divide by the column sums
    # depth by depth from the last: the section, alpha and the rows written
    sections = trellis._engine_state[0] if trellis._engine_state else trellis.sections
    depths = zip(reversed(sections), alpha[:n][::-1], z0[::-1], z1[::-1], scale[:n][::-1])
    for (zero_src, zero_dst, one_src, one_dst), a, z0_row, z1_row, scale_row in depths:
        bo = gather1[: a.size]
        if zero_dst is zero_src:  # the 0-edges keep every state in place
            bz = b
        else:
            bz = spare[: a.size]
            _gather(bz, b, zero_src, zero_dst)
            home, spare = spare, home
        matmul(a, bz, out=z0_row)
        if bz is b and one_dst is one_src:  # so do the 1-edges
            z1_row[:] = z0_row
            multiply(b, g1, out=bo)
        else:
            _gather(bo, b, one_src, one_dst)
            matmul(a, bo, out=z1_row)
            bo *= g1
        bz *= g0
        bz += bo
        b = bz
        if tiny is None:
            b /= column_sums(b, scale_row)
        else:
            mass = w0 * z0_row[0] + w1 * z1_row[0]  # alpha_l . beta_l
            if mass < tiny:
                scale_row[0] = f = 2.0 ** math.frexp(mass)[1]
                b /= f
    u0 = g0 * z0
    u1 = g1 * z1
    # log of the contiguous table: a reversed view may take a loop that rounds differently
    b_log = np.add.accumulate(np.log(scale)[::-1], axis=0)[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_evidence = np.log(evidence) + a_log[n] + np.log(d)
        lapp = np.log(u0) - np.log(u1)
        section_log_evidence = np.log(u0 + u1) + (a_log[:n, None] + b_log[1:])
    lost = (np.isnan(lapp).any(axis=0) | ~np.isfinite(log_evidence)).nonzero()[0]
    if lost.size:
        raise ValueError(
            f"outcome row {first_row + int(lost[0])} has paths too unlikely for the forward "
            f"pass, whose prefix masses underflow next to the likeliest of their depth "
            f"({lost.size} such row(s) in rows {first_row}-{first_row + k - 1}); a pruned "
            f"trellis (expurgated or reduced) keeps only the outcome's paths"
        )
    return lapp, log_evidence, section_log_evidence


def run(trellis: Trellis, prior: Prior, noise, t) -> PosteriorResult:
    """Exact posteriors for one observed outcome vector `t`.

    `noise` is a `Bsc` (`Noiseless` is its epsilon = 0 case).  A complete
    trellis (`trellis.outcome` is None) accepts any crossover; a pruned one
    encodes `trellis.outcome`, so `t` must equal it and `noise.epsilon` must
    be 0.
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
        if noise.epsilon:
            raise ValueError("expurgated and reduced trellises encode a noiseless outcome")
        if tv.tobytes() != own.tobytes():  # both uint8 and of one length
            raise ValueError("outcome differs from the one this trellis was pruned for")
        beta_final = np.ones((1, 1))
    lapp, log_ev, section_log_ev = _engine(trellis, prior, beta_final)
    full = np.full(trellis.kept.size, np.inf)
    full[trellis.kept] = lapp[:, 0]
    forced = trellis.kept.size - trellis.n
    return PosteriorResult(
        lapp=full,
        log_evidence=float(log_ev[0]) + forced * math.log(1.0 - prior.delta),
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
    rows = as_bit_vector(rows.reshape(-1), None, "outcome array").reshape(rows.shape)
    noise._weights(trellis.m)  # raises for an underflowing crossover, also on no rows
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
    p1 = np.where(lapp >= 0, e, 1.0) / (1.0 + e)
    return np.stack([1.0 - p1, p1], axis=1)
