"""Acceptance gate: the eight headline requirements, one test per criterion.

Each test prints a single `[acceptance] criterion N (...): PASS/FAIL` line
(visible with `pytest -s`) before asserting, so the gate doubles as a
checklist when run on its own.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from grouptrellis import (
    Bsc,
    Noiseless,
    Prior,
    TestMatrix,
    ThresholdRule,
    build_complete,
    build_reduced,
    comp_decide,
    compute_syndrome,
    decide,
    default_threshold_grid,
    ebch_64_57_parity_check,
    enumerate_posteriors,
    expurgate,
    forward_backward,
    hypergraph_incidence,
    posterior_pairs,
    run,
    sweep_roc,
)
from grouptrellis.cli import main
from helpers import ScaledBsc, gf2_rank

BENCHMARK_DELTA = 0.015
TRIALS = 100_000


def _report(num, description, ok):
    print(f"[acceptance] criterion {num} ({description}): {'PASS' if ok else 'FAIL'}")


def _benchmark_matrices():
    return [
        ("ebch-64-57", ebch_64_57_parity_check()),
        ("hypergraph-9-3", hypergraph_incidence(9, 3)),
    ]


def _max_relative_posterior_deviation(matrix, t, prior, noise):
    result = run(build_complete(matrix), prior, noise, t)
    reference = enumerate_posteriors(matrix, t, prior, noise)
    total = reference.total_mass
    ref_pairs = np.stack([reference.mass0 / total, reference.mass1 / total], axis=1)
    got_pairs = posterior_pairs(result)
    denom = np.maximum(np.abs(ref_pairs), 1e-300)
    dev = float(np.max(np.abs(got_pairs - ref_pairs) / denom))
    ev = float(total[0])
    dev = max(dev, abs(math.exp(result.log_evidence) - ev) / ev)
    return dev


def test_criterion_1_oracle_equivalence():
    """Forward-backward equals brute-force enumeration on 200 random instances."""
    rng = np.random.Generator(np.random.Philox(key=1001))
    deltas = [0.05, 0.3]
    noises = [Noiseless(), Bsc(0.05), Bsc(0.2)]
    start = time.perf_counter()
    worst = 0.0
    for case in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 13))
        matrix = TestMatrix((rng.random((m, n)) < 0.5).astype(np.uint8))
        prior = Prior(deltas[case % 2])
        noise = noises[case % 3]
        x = (rng.random(n) < prior.delta).astype(np.uint8)
        t = compute_syndrome(matrix, x)
        if isinstance(noise, Bsc):
            t = (t ^ (rng.random(m) < noise.epsilon)).astype(np.uint8)
        worst = max(worst, _max_relative_posterior_deviation(matrix, t, prior, noise))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    _report(1, "oracle equivalence on 200 random instances", ok)
    assert worst < 1e-9, f"max relative deviation {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_worked_example_golden_facts(toy_matrix):
    """Frozen structural facts of the 3x6 worked example."""
    t = np.array([1, 0, 1], dtype=np.uint8)
    complete = build_complete(toy_matrix)
    depth_one = complete.states[1].tolist() == [0, 5]
    expurgated = expurgate(toy_matrix, t)
    # elements 2, 3, 5 in one-based counting carry only 0-labeled edges
    one_edge_counts = [expurgated.sections[d].one_src.size for d in range(6)]
    silent_sections = [c == 0 for c in one_edge_counts] == [False, True, True, False, True, False]
    reduced = build_reduced(toy_matrix, t)
    reduced_shape = reduced.n == 3 and all(c <= 4 for c in reduced.state_counts)
    ok = depth_one and silent_sections and reduced_shape
    _report(2, "worked-example trellis golden facts", ok)
    assert depth_one, complete.states[1]
    assert silent_sections, one_edge_counts
    assert reduced_shape, (reduced.n, reduced.state_counts)


def test_criterion_3_comp_recovery():
    """Infinite threshold in the noiseless model recovers COMP on both matrices."""
    prior = Prior(BENCHMARK_DELTA)
    ok_all = True
    details = []
    for label, matrix in _benchmark_matrices():
        trellis = build_complete(matrix)
        rng = np.random.Generator(np.random.Philox(key=303))
        weights = np.int64(1) << np.arange(matrix.m, dtype=np.int64)
        md_events = 0
        seen = {}
        done = 0
        while done < TRIALS:
            count = min(8192, TRIALS - done)
            x = rng.random((count, matrix.n)) < prior.delta
            outcomes = ((x.astype(np.int32) @ matrix.entries.T.astype(np.int32)) > 0).astype(np.uint8)
            packed = outcomes.astype(np.int64) @ weights
            uniq, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
            comp_table = np.stack([comp_decide(matrix, outcomes[i]) for i in first])
            for u, i in zip(uniq, first):
                seen.setdefault(int(u), outcomes[i])
            md_events += int(np.sum(x & (comp_table[inverse] == 0)))
            done += count
        # posterior decision at +inf must equal comp_decide for every outcome
        # observed across the 10^5 trials
        rule = ThresholdRule(math.inf)
        matches = all(
            np.array_equal(
                decide(run(trellis, prior, Noiseless(), bits).lapp, rule),
                comp_decide(matrix, bits),
            )
            for bits in seen.values()
        )
        # and the simulation harness measures exactly zero missed detections
        point = sweep_roc(
            matrix, prior, Noiseless(), [rule.threshold], TRIALS, 303, rule.tie_defective
        ).points[0]
        ok = matches and md_events == 0 and point.md_events == 0
        ok_all = ok_all and ok
        details.append((label, matches, md_events, point.md_events, len(seen)))
    _report(3, "COMP recovery at infinite threshold, both matrices", ok_all)
    assert ok_all, details


def test_criterion_4_noisy_false_alarm_level():
    """At 98% detection under BSC(0.05), the 7x64 matrix pays 22-38% false alarms."""
    prior = Prior(BENCHMARK_DELTA)
    start = time.perf_counter()
    curve = sweep_roc(
        ebch_64_57_parity_check(),
        prior,
        Bsc(0.05),
        default_threshold_grid(prior),
        trials=TRIALS,
        seed=404,
        matrix_label="ebch-64-57",
    )
    elapsed = time.perf_counter() - start
    hit = next((p for p in curve.points if 1.0 - p.p_md >= 0.98), None)
    ok = hit is not None and 0.22 <= hit.p_fa <= 0.38 and elapsed < 300.0
    _report(4, "false-alarm level at 98% detection, BSC 0.05", ok)
    assert hit is not None, "no threshold on the grid reaches 98% detection"
    assert 0.22 <= hit.p_fa <= 0.38, (hit.threshold, hit.p_fa, 1.0 - hit.p_md)
    assert elapsed < 300.0, f"took {elapsed:.1f} s"


def _detection_envelope(curve):
    fa = np.array([p.p_fa for p in curve.points])
    det = 1.0 - np.array([p.p_md for p in curve.points])
    order = np.argsort(fa)
    fa, det = fa[order], det[order]
    uniq, inverse = np.unique(fa, return_inverse=True)
    best = np.zeros(uniq.size)
    np.maximum.at(best, inverse, det)
    return uniq, np.maximum.accumulate(best)


def _dominates(better, worse):
    """True when `better` is never below `worse` by more than the noise widths."""
    env_fa, env_det = _detection_envelope(better)
    slack = max(p.p_md_halfwidth for p in better.points)
    for p in worse.points:
        det_better = float(np.interp(p.p_fa, env_fa, env_det))
        if (1.0 - p.p_md) > det_better + slack + p.p_md_halfwidth:
            return False
    return True


def test_criterion_5_roc_ordering_in_noise():
    """Noiseless beats BSC(0.05) beats BSC(0.1) on both matrices; noiseless hits P_MD = 0."""
    prior = Prior(BENCHMARK_DELTA)
    grid = default_threshold_grid(prior)
    ok_all = True
    details = []
    for label, matrix in _benchmark_matrices():
        curves = [
            sweep_roc(matrix, prior, noise, grid, trials=TRIALS, seed=505, matrix_label=label)
            for noise in (Noiseless(), Bsc(0.05), Bsc(0.1))
        ]
        ordering = _dominates(curves[0], curves[1]) and _dominates(curves[1], curves[2])
        perfect = any(p.p_md == 0.0 and p.p_fa < 1.0 for p in curves[0].points)
        ok_all = ok_all and ordering and perfect
        details.append((label, ordering, perfect))
    _report(5, "ROC ordering across noise levels, both matrices", ok_all)
    assert ok_all, details


def test_criterion_6_consistency_identities():
    """Evidence constancy, normalization, scaling invariance, kind equality."""
    rng = np.random.Generator(np.random.Philox(key=606))
    prior = Prior(0.08)
    instances = [hypergraph_incidence(9, 3)]
    while len(instances) < 25:
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 85))
        entries = (rng.random((m, n)) < 0.3).astype(np.uint8)
        instances.append(TestMatrix(entries))
    ok = True
    context = None
    for matrix in instances:
        x = (rng.random(matrix.n) < prior.delta).astype(np.uint8)
        t = compute_syndrome(matrix, x)
        complete = build_complete(matrix)
        res = run(complete, prior, Noiseless(), t)
        alpha_ok = all(  # the forward pass `run` just cached
            abs(float(a.sum()) - 1.0) < 1e-12 for a in forward_backward._forward(complete, prior)[0]
        )
        section_ok = np.allclose(
            res.section_log_evidence, res.log_evidence, rtol=1e-12, atol=1e-12
        )
        res_e = run(expurgate(matrix, t), prior, Noiseless(), t)
        res_r = run(build_reduced(matrix, t), prior, Noiseless(), t)
        kinds_ok = True
        for other in (res_e, res_r):
            finite = np.isfinite(res.lapp)
            kinds_ok = kinds_ok and np.array_equal(finite, np.isfinite(other.lapp))
            kinds_ok = kinds_ok and np.allclose(
                res.lapp[finite], other.lapp[finite], rtol=1e-12
            )
            kinds_ok = kinds_ok and math.isclose(
                res.log_evidence, other.log_evidence, rel_tol=1e-12, abs_tol=1e-12
            )
        res_b0 = run(complete, prior, Bsc(0.0), t)
        bsc0_ok = np.array_equal(res_b0.lapp, res.lapp) and res_b0.log_evidence == res.log_evidence
        # BSC with a power-of-two likelihood scale: lapp bitwise invariant
        noisy_t = (t ^ (rng.random(matrix.m) < 0.05)).astype(np.uint8)
        res_n = run(complete, prior, Bsc(0.05), noisy_t)
        res_s = run(complete, prior, ScaledBsc(0.05), noisy_t)
        scale_ok = np.array_equal(res_n.lapp, res_s.lapp)
        noisy_section_ok = np.allclose(
            res_n.section_log_evidence, res_n.log_evidence, rtol=1e-12, atol=1e-12
        )
        good = alpha_ok and section_ok and kinds_ok and bsc0_ok and scale_ok and noisy_section_ok
        if not good and context is None:
            context = (
                matrix.m, matrix.n, alpha_ok, section_ok, kinds_ok, bsc0_ok, scale_ok,
                noisy_section_ok,
            )
        ok = ok and good
    _report(6, "consistency identities on randomized instances", ok)
    assert ok, context


def test_criterion_7_matrix_constructions():
    """Exact structural invariants of the two built-in structured designs."""
    hyper = hypergraph_incidence(9, 3)
    hyper_ok = (hyper.m, hyper.n) == (9, 84) and bool(np.all(hyper.entries.sum(axis=0) == 3))
    bch = ebch_64_57_parity_check()
    bch_ok = (
        (bch.m, bch.n) == (7, 64)
        and bch.entries.sum(axis=1).tolist() == [32] * 7
        and gf2_rank(bch.entries) == 7
    )
    ok = hyper_ok and bch_ok
    _report(7, "built-in matrix constructions", ok)
    assert hyper_ok
    assert bch_ok


def test_criterion_8_cli_determinism(tmp_path):
    """Identical roc invocations yield byte-identical CSVs, any worker count."""
    args = [
        "roc", "--kind", "hypergraph", "--vertices", "9", "--subset-size", "3",
        "--delta", "0.015", "--eps", "0.05", "--trials", "30000", "--seed", "808",
    ]
    paths = [str(tmp_path / name) for name in ("a.csv", "b.csv", "c.csv")]
    codes = [
        main(args + ["--workers", "1", "--output", paths[0]]),
        main(args + ["--workers", "1", "--output", paths[1]]),
        main(args + ["--workers", "4", "--output", paths[2]]),
    ]
    blobs = [Path(p).read_bytes() for p in paths]
    ok = codes == [0, 0, 0] and blobs[0] == blobs[1] == blobs[2]
    _report(8, "byte-identical ROC CSVs across reruns and worker counts", ok)
    assert codes == [0, 0, 0]
    assert blobs[0] == blobs[1], "rerun with identical flags changed bytes"
    assert blobs[0] == blobs[2], "worker count changed bytes"
