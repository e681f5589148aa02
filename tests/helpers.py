"""Deliberately naive reference routines the fast code is tested against."""

import itertools
import math
from fractions import Fraction

import numpy as np


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
