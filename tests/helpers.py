"""Deliberately naive reference routines the fast code is tested against."""

import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from grouptrellis import (
    Bsc,
    Noiseless,
    NotASyndromeError,
    Prior,
    TestMatrix,
    build_complete,
    build_reduced,
    enumerate_posteriors,
    expurgate,
    posterior_table,
    run,
)


class ScaledBsc(Bsc):
    """A BSC whose likelihood table is SCALE times `Bsc`'s.

    SCALE is a power of two, so scaling is exact in binary floats: lapp must
    keep every bit and the log evidence moves by log(SCALE).
    """

    SCALE = 4.0

    def likelihood_table(self, outcomes, state_indices, m):
        return self.SCALE * super().likelihood_table(outcomes, state_indices, m)


def bsc_likelihood(eps, t, s):
    """Q(t | s) of a BSC with crossover eps, counting the flipped bits one by one."""
    flips = sum(int(a) != int(b) for a, b in zip(t, s))
    return eps**flips * (1.0 - eps) ** (len(t) - flips)


def naive_syndrome(entries, x):
    """OR-channel outcome via explicit double loop; no vector tricks."""
    m, n = entries.shape
    s = np.zeros(m, dtype=np.uint8)
    for i in range(m):
        for ell in range(n):
            if entries[i][ell] and x[ell]:
                s[i] = 1
    return s


def all_vectors(n):
    """All 2**n binary vectors in lexicographic (most-significant-first) order."""
    return [np.array(bits, dtype=np.uint8) for bits in itertools.product((0, 1), repeat=n)]


def compatible_vectors(entries, t):
    """Every defectivity vector whose noiseless syndrome equals t."""
    t = np.asarray(t, dtype=np.uint8)
    return [x for x in all_vectors(entries.shape[1]) if np.array_equal(naive_syndrome(entries, x), t)]


def naive_posterior_masses(entries, t, delta, q):
    """Per-element joint masses by full enumeration with likelihood callable q(t, s)."""
    m, n = entries.shape
    mass0 = np.zeros(n)
    mass1 = np.zeros(n)
    for x in all_vectors(n):
        w = int(x.sum())
        weight = q(np.asarray(t, dtype=np.uint8), naive_syndrome(entries, x))
        weight *= delta**w * (1.0 - delta) ** (n - w)
        for ell in range(n):
            if x[ell]:
                mass1[ell] += weight
            else:
                mass0[ell] += weight
    return mass0, mass1


def gf2_rank(rows):
    """Rank over GF(2) by Gaussian elimination on copies."""
    work = [list(map(int, r)) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                work[r] = [(a + b) % 2 for a, b in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def walk_partial_syndromes(entries, x):
    """Packed partial syndromes of the prefixes of x, depth 0..len(x)."""
    m = entries.shape[0]
    state = 0
    states = [0]
    for ell in range(len(x)):
        if x[ell]:
            mask = 0
            for i in range(m):
                if entries[i][ell]:
                    mask |= 1 << i
            state |= mask
        states.append(state)
    return states


def subset_lattice_posteriors(entries, t, delta, eps=0.0):
    """Exact lapp and log evidence of the OR channel by sums over test subsets.

    Each test's outcome flips with probability `eps` (0 is noiseless).  For a
    subset S of tests let c(S) count the columns inside S, so that
    F(S) = Pr{syndrome within S} = (1 - delta)**(n - c(S)), and let
    w(S) = prod_{i in S} q_i(1) * prod_{i not in S} (q_i(0) - q_i(1)) with
    q_i(s) = Pr{t_i | test i's syndrome bit is s}.  Then
    Pr{T = t} = sum_S F(S) w(S) and
    Pr{T = t, X_l = 1} = delta * sum_{S contains column l} F(S) w(S).
    c is a subset-sum and the second sum a superset-sum over the 2**m
    subsets.  The terms alternate in sign, so all of it runs in exact
    Fraction arithmetic (every float converts exactly); only the final logs
    round.  Returns (lapp of length n, log evidence).
    """
    m, n = entries.shape
    full = 1 << m
    masks = [sum(int(entries[i][ell]) << i for i in range(m)) for ell in range(n)]
    inside = [0] * full
    for mask in masks:
        inside[mask] += 1
    for i in range(m):
        for s in range(full):
            if s >> i & 1:
                inside[s] += inside[s ^ (1 << i)]
    d, e = Fraction(delta), Fraction(eps)
    weight = [Fraction(1)]
    for i in range(m):
        q1, q0 = (1 - e, e) if t[i] else (e, 1 - e)
        weight = [w * (q0 - q1) for w in weight] + [w * q1 for w in weight]
    clear = [(1 - d) ** k for k in range(n + 1)]
    total = [w and clear[n - c] * w for w, c in zip(weight, inside)]
    for i in range(m):
        for s in range(full):
            if not s >> i & 1:
                total[s] += total[s | 1 << i]
    evidence = total[0]
    if evidence <= 0:
        raise ValueError("the outcome has zero probability")

    def log(x):
        return math.log(x.numerator) - math.log(x.denominator) if x else -math.inf

    lapp = []
    for mask in masks:
        u1 = d * total[mask]
        lapp.append(log(evidence - u1) - log(u1))
    return np.array(lapp), log(evidence)


def reference_passes(trellis, prior, beta_final):
    """The engine's arithmetic with no shortcut: one scatter or gather per label.

    The forward pass scatters both labels with `bincount` at every depth and
    the backward pass gathers both labels into fresh arrays at every section,
    then takes the update g0 * b0 + g1 * b1.  With several columns each
    depth then divides beta by its column sums; one column keeps beta
    unscaled unless the section's u0 + u1 falls below 2**-500 / min(g0, g1),
    and then divides it by the power of two at that sum's `math.frexp`
    exponent.  The engine must match this to the bit.  Returns lapp (n, K),
    log evidence (K,), section log evidence (n, K), alpha (list) and alpha
    log scales.
    """
    g0, g1 = 1.0 - prior.delta, prior.delta
    n = trellis.n
    alpha, a_log = [np.ones(1)], [0.0]
    for ell, sec in enumerate(trellis.sections):
        size, cur = trellis.states[ell + 1].size, alpha[ell]
        nxt = np.bincount(sec.zero_dst, weights=g0 * cur[sec.zero_src], minlength=size)
        nxt = nxt + np.bincount(sec.one_dst, weights=g1 * cur[sec.one_src], minlength=size)
        c = float(nxt.sum())
        alpha.append(nxt / c)
        a_log.append(a_log[-1] + math.log(c))
    a_log = np.array(a_log)
    d = beta_final.sum(axis=0)
    b = beta_final / d
    b_log = [np.log(d)]
    log_evidence = np.log(alpha[n] @ b) + a_log[n] + b_log[0]
    u0, u1 = np.empty((n, b.shape[1])), np.empty((n, b.shape[1]))
    for ell in range(n - 1, -1, -1):
        sec, a = trellis.sections[ell], alpha[ell]
        gathers = []
        for src, dst in ((sec.zero_src, sec.zero_dst), (sec.one_src, sec.one_dst)):
            out = np.zeros((a.size, b.shape[1]))
            out[src] = b[dst]
            gathers.append(out)
        bz, bo = gathers
        u0[ell] = g0 * (a @ bz)
        u1[ell] = g1 * (a @ bo)
        bz *= g0
        bo *= g1
        b = bz + bo
        if b.shape[1] > 1:
            c = b.sum(axis=0)
        else:
            mass = float(u0[ell, 0] + u1[ell, 0])
            small = mass < 2.0**-500 / min(g0, g1)
            c = np.array([2.0 ** math.frexp(mass)[1] if small else 1.0])
        b /= c
        b_log.insert(0, b_log[0] + np.log(c))
    b_log = np.array(b_log)
    with np.errstate(divide="ignore"):
        lapp = np.log(u0) - np.log(u1)
        section = np.log(u0 + u1) + (a_log[:n, None] + b_log[1:])
    return lapp, log_evidence, section, alpha, a_log


def _logistic_pairs(lapp):
    """(clear, defective) posteriors from lapp, each side's small one as e / (1 + e).

    Unlike `posterior_pairs`, which takes the clear side as 1 - p1, this
    keeps its relative precision when lapp < 0.
    """
    e = np.exp(-np.abs(lapp))
    small, big = e / (1.0 + e), 1.0 / (1.0 + e)
    clear = lapp >= 0
    return np.stack([np.where(clear, big, small), np.where(clear, small, big)], axis=1)


def assert_matches_oracles(entries, t, delta, eps):
    """Check every trellis flavour that applies against both oracles.

    The complete trellis always applies, the expurgated and reduced ones
    only when eps is 0.  Each must raise NotASyndromeError exactly when the
    outcome has zero probability (the subset lattice's exact evidence is
    0).  Otherwise each gives the exact ±inf pattern; posterior pairs and
    evidence within 1e-9 of `enumerate_posteriors`, measured as
    `oracle-check` measures them but with pairs in the stable logistic
    form; and lapp and log evidence within 1e-12 of
    `subset_lattice_posteriors`.  `run` on the complete trellis equals its
    one-row `posterior_table` byte for byte, and a pickle round trip of each
    flavour gives the same lapp bytes.
    """
    entries = np.asarray(entries, np.uint8)
    t = np.asarray(t, np.uint8)
    matrix, prior = TestMatrix(entries), Prior(delta)
    noise = Bsc(eps) if eps else Noiseless()
    builds = [lambda: build_complete(matrix)]
    if not eps:
        builds += [lambda: expurgate(matrix, t), lambda: build_reduced(matrix, t)]
    try:
        want, log_evidence = subset_lattice_posteriors(entries, t, delta, eps)
    except ValueError:  # the outcome has zero probability
        for build in builds:
            with pytest.raises(NotASyndromeError):
                run(build(), prior, noise, t)
        with pytest.raises(NotASyndromeError):
            posterior_table(build_complete(matrix), prior, noise, t[None])
        return
    reference = enumerate_posteriors(matrix, t, prior, noise)
    total = reference.total_mass
    ref_pairs = np.stack([reference.mass0 / total, reference.mass1 / total], axis=1)
    for build in builds:
        trellis = build()
        result = run(trellis, prior, noise, t)
        lapp = result.lapp
        assert np.array_equal(np.isposinf(lapp), np.isposinf(want))
        assert np.array_equal(np.isneginf(lapp), np.isneginf(want))
        assert np.array_equal(np.isposinf(lapp), reference.mass1 == 0)
        assert np.array_equal(np.isneginf(lapp), reference.mass0 == 0)
        finite = np.isfinite(want)
        assert np.allclose(lapp[finite], want[finite], rtol=1e-12, atol=1e-12)
        assert result.log_evidence == pytest.approx(log_evidence, rel=1e-12, abs=1e-12)
        pairs = _logistic_pairs(lapp)
        assert np.max(np.abs(pairs - ref_pairs) / np.maximum(np.abs(ref_pairs), 1e-300)) <= 1e-9
        assert math.exp(result.log_evidence) == pytest.approx(float(total[0]), rel=1e-9)
        if trellis.outcome is None:
            table = posterior_table(trellis, prior, noise, t[None])
            assert table[0].tobytes() == lapp.tobytes()
        twin = pickle.loads(pickle.dumps(trellis))
        assert run(twin, prior, noise, t).lapp.tobytes() == lapp.tobytes()
