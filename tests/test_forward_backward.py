import copy
import dataclasses
import gc
import math
import pickle
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptrellis import (
    Bsc,
    Noiseless,
    NotASyndromeError,
    Prior,
    TestMatrix,
    bernoulli_matrix,
    build_complete,
    build_reduced,
    compute_syndrome,
    ebch_64_57_parity_check,
    enumerate_posteriors,
    expurgate,
    forward_backward,
    hypergraph_incidence,
    posterior_pairs,
    posterior_table,
    run,
)
from grouptrellis.trellis import EdgeSection
from conftest import TOY_ENTRIES
from helpers import (
    ScaledBsc,
    assert_matches_oracles,
    reference_passes,
    subset_lattice_posteriors,
    walk_partial_syndromes,
)

T_101 = np.array([1, 0, 1], dtype=np.uint8)
PRIOR = Prior(0.1)

#: The toy and the built-in designs, each with a reachable noiseless outcome.
DESIGNS = {
    "toy": (lambda: TestMatrix(TOY_ENTRIES), "101"),
    "ebch": (ebch_64_57_parity_check, "1011101"),
    "hypergraph": (lambda: hypergraph_incidence(9, 3), "111011100"),
    "bernoulli": (lambda: bernoulli_matrix(12, 48, 0.15, 0), "111000000001"),
}


def _design(name):
    """The matrix of DESIGNS[name] and its outcome as a bit vector."""
    build, bits = DESIGNS[name]
    return build(), np.array([int(c) for c in bits], np.uint8)


def _traced_peak(call):
    """Peak bytes traced by tracemalloc above the starting level during `call()`."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def _random_instance(rng, max_m=6, max_n=10):
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    matrix = TestMatrix((rng.random((m, n)) < 0.5).astype(np.uint8))
    x = (rng.random(n) < 0.25).astype(np.uint8)
    return matrix, compute_syndrome(matrix, x)


class TestToyGolden:
    """Frozen values derived by enumerating the five vectors compatible with 101.

    With delta = 0.1 their prior masses give U1/U0 ratios 100/9 for element 0,
    0 for the silent-covered elements 1, 2, 4, and 19/90 for elements 3 and 5;
    the evidence is d(1-d)^5 + 3 d^2 (1-d)^4 + d^3 (1-d)^3.
    """

    def test_lapp(self, toy_matrix):
        result = run(build_complete(toy_matrix), PRIOR, Noiseless(), T_101)
        want = [math.log(9 / 100), math.inf, math.inf, math.log(90 / 19), math.inf, math.log(90 / 19)]
        assert np.allclose(result.lapp, want, rtol=1e-12)
        assert np.isposinf(result.lapp[[1, 2, 4]]).all()

    def test_posterior_pairs(self, toy_matrix):
        result = run(build_complete(toy_matrix), PRIOR, Noiseless(), T_101)
        pairs = posterior_pairs(result)
        want_defective = [100 / 109, 0.0, 0.0, 19 / 109, 0.0, 19 / 109]
        assert np.allclose(pairs[:, 1], want_defective, rtol=1e-12, atol=0)
        assert np.allclose(pairs.sum(axis=1), 1.0, rtol=1e-15)

    def test_log_evidence_closed_form(self, toy_matrix):
        d = PRIOR.delta
        want = d * (1 - d) ** 5 + 3 * d**2 * (1 - d) ** 4 + d**3 * (1 - d) ** 3
        result = run(build_complete(toy_matrix), PRIOR, Noiseless(), T_101)
        assert math.exp(result.log_evidence) == pytest.approx(want, rel=1e-12)


class TestKindEquality:
    def test_toy_all_three_kinds_agree(self, toy_matrix):
        complete = run(build_complete(toy_matrix), PRIOR, Noiseless(), T_101)
        expurg = run(expurgate(toy_matrix, T_101), PRIOR, Noiseless(), T_101)
        reduced = run(build_reduced(toy_matrix, T_101), PRIOR, Noiseless(), T_101)
        for other in (expurg, reduced):
            assert np.allclose(complete.lapp, other.lapp, rtol=1e-12, equal_nan=False)
            assert (complete.lapp == np.inf).tolist() == (other.lapp == np.inf).tolist()
            assert complete.log_evidence == pytest.approx(other.log_evidence, rel=1e-12)

    def test_randomized_instances_agree(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        for _ in range(40):
            matrix, t = _random_instance(rng)
            complete = run(build_complete(matrix), PRIOR, Noiseless(), t)
            expurg = run(expurgate(matrix, t), PRIOR, Noiseless(), t)
            reduced = run(build_reduced(matrix, t), PRIOR, Noiseless(), t)
            for other in (expurg, reduced):
                finite = np.isfinite(complete.lapp)
                assert np.array_equal(finite, np.isfinite(other.lapp))
                assert np.allclose(complete.lapp[finite], other.lapp[finite], rtol=1e-12)
                assert complete.log_evidence == pytest.approx(other.log_evidence, rel=1e-12)

    def test_all_silent_outcome_forces_everything(self, toy_matrix):
        t = np.zeros(3, dtype=np.uint8)
        complete = run(build_complete(toy_matrix), PRIOR, Noiseless(), t)
        trellis = build_reduced(toy_matrix, t)
        reduced = run(trellis, PRIOR, Noiseless(), t)
        assert np.isposinf(complete.lapp).all()
        assert np.isposinf(reduced.lapp).all()
        assert np.flatnonzero(~trellis.kept).tolist() == [0, 1, 2, 3, 4, 5]
        assert complete.log_evidence == pytest.approx(6 * math.log(0.9), rel=1e-12)
        assert reduced.log_evidence == pytest.approx(6 * math.log(0.9), rel=1e-12)


@st.composite
def oracle_cases(draw):
    """(entries, outcome, delta, eps) over at most 5 tests and 8 elements.

    Columns are drawn as zero, all-ones, any, or a copy of an earlier
    column; some rows are then set to all ones; the outcome is empty, full,
    the syndrome of a drawn defectivity vector, or any bits.
    """
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    full = (1 << m) - 1
    columns = []
    for _ in range(n):
        kinds = [st.just(0), st.just(full), st.integers(0, full)]
        columns.append(draw(st.one_of(*kinds, *([st.sampled_from(columns)] if columns else []))))
    entries = np.array([[c >> i & 1 for c in columns] for i in range(m)], np.uint8)
    entries[sorted(draw(st.sets(st.integers(0, m - 1))))] = 1
    bits = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    x = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), np.uint8)
    syndrome = (entries.astype(np.int64) @ x > 0).astype(np.uint8).tolist()
    t = draw(st.sampled_from([[0] * m, [1] * m, syndrome]) | bits)
    delta = draw(st.sampled_from([1e-9, 0.05, 0.5, 1 - 1e-9]))
    eps = draw(st.sampled_from([0.0, 1e-6, 0.3]))
    return entries, np.array(t, np.uint8), delta, eps


class TestOracleAgreement:
    @given(oracle_cases())
    @settings(max_examples=300, deadline=None)
    def test_drawn_cases_match_both_oracles(self, case):
        assert_matches_oracles(*case)

    def test_noiseless_exact_infinities(self, toy_matrix):
        result = run(build_complete(toy_matrix), PRIOR, Noiseless(), T_101)
        reference = enumerate_posteriors(toy_matrix, T_101, PRIOR, Noiseless())
        assert np.array_equal(result.lapp == np.inf, reference.mass1 == 0.0)
        finite = np.isfinite(result.lapp)
        assert np.allclose(result.lapp[finite], reference.lapp[finite], rtol=1e-12)

    @pytest.mark.parametrize("noise", [Bsc(0.05), Bsc(0.2)])
    def test_bsc_random_instances(self, noise):
        rng = np.random.Generator(np.random.Philox(key=23))
        for _ in range(20):
            matrix, t = _random_instance(rng, max_m=5, max_n=9)
            flips = (rng.random(matrix.m) < noise.epsilon).astype(np.uint8)
            t = t ^ flips
            result = run(build_complete(matrix), PRIOR, noise, t)
            reference = enumerate_posteriors(matrix, t, PRIOR, noise)
            assert np.allclose(result.lapp, reference.lapp, rtol=1e-11)
            assert math.exp(result.log_evidence) == pytest.approx(
                float(reference.total_mass[0]), rel=1e-11
            )


class TestConsistencyIdentities:
    def test_alpha_is_normalized_every_depth(self, toy_matrix):
        alpha, _ = forward_backward._forward(build_complete(toy_matrix), PRIOR)
        for scaled in alpha:
            assert float(scaled.sum()) == pytest.approx(1.0, rel=1e-14)

    def test_section_evidence_is_constant(self, toy_matrix):
        result = run(build_complete(toy_matrix), PRIOR, Bsc(0.05), T_101)
        section = result.section_log_evidence
        assert np.allclose(section, result.log_evidence, rtol=1e-13)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_bsc_zero_equals_noiseless_bitwise(self, design):
        # Noiseless is Bsc's code at epsilon = 0: tables and runs on every
        # flavour, pruned ones included, must agree to the last bit
        matrix, t = _design(design)
        rng = np.random.Generator(np.random.Philox(key=29))
        xs = (rng.random((40, matrix.n)) < 0.1).astype(np.uint8)
        rows = np.array([t, *(compute_syndrome(matrix, x) for x in xs)])
        complete = build_complete(matrix)
        tables = [posterior_table(complete, PRIOR, noise, rows) for noise in (Bsc(0.0), Noiseless())]
        assert tables[0].tobytes() == tables[1].tobytes()
        for outcome in rows[:4]:
            for trellis in (complete, expurgate(matrix, outcome), build_reduced(matrix, outcome)):
                a = run(trellis, PRIOR, Bsc(0.0), outcome)
                b = run(trellis, PRIOR, Noiseless(), outcome)
                assert a.lapp.tobytes() == b.lapp.tobytes()
                assert a.section_log_evidence.tobytes() == b.section_log_evidence.tobytes()
                assert a.log_evidence == b.log_evidence

    def test_likelihood_scaling_leaves_lapp_invariant(self, toy_matrix):
        # power-of-two scale: exact in binary floats, so lapp must be bitwise equal
        trellis = build_complete(toy_matrix)
        a = run(trellis, PRIOR, Bsc(0.05), T_101)
        b = run(trellis, PRIOR, ScaledBsc(0.05), T_101)
        assert np.array_equal(a.lapp, b.lapp)
        assert b.log_evidence - a.log_evidence == pytest.approx(
            math.log(ScaledBsc.SCALE), rel=1e-12
        )

    def test_forward_metric_matches_prefix_enumeration(self, toy_matrix):
        # alpha_l(s) must equal the total prior mass of length-l prefixes
        # reaching packed state s; checked by brute force at depth 3
        trellis = build_complete(toy_matrix)
        forward = forward_backward._forward(trellis, PRIOR)
        _assert_alpha_is_prefix_mass(forward, trellis, toy_matrix, PRIOR, depth=3)


def _assert_alpha_is_prefix_mass(forward, trellis, matrix, prior, depth):
    """`forward` is the (alpha, log scales) pair `_forward` returns."""
    want = {}
    for bits in range(1 << depth):
        prefix = [(bits >> k) & 1 for k in range(depth)]
        state = walk_partial_syndromes(matrix.entries, prefix)[depth]
        mass = prior.delta ** sum(prefix) * (1 - prior.delta) ** (depth - sum(prefix))
        want[state] = want.get(state, 0.0) + mass
    alpha, a_log = forward
    scaled = alpha[depth] * math.exp(a_log[depth])
    for pos, state in enumerate(trellis.states[depth]):
        assert scaled[pos] == pytest.approx(want[int(state)], rel=1e-12)


class TestAlphaCache:
    def test_cached_alpha_is_read_only_and_reused(self, toy_matrix):
        trellis = build_complete(toy_matrix)
        first = run(trellis, PRIOR, Bsc(0.05), T_101)
        alpha, a_log = forward_backward._forward(trellis, PRIOR)
        with pytest.raises(ValueError):
            alpha[2][0] = 0.5
        with pytest.raises(ValueError):
            a_log[0] = 1.0
        second = run(trellis, PRIOR, Bsc(0.05), T_101)
        delta, (cached_alpha, cached_log) = trellis._engine_state[1]
        assert delta == PRIOR.delta and cached_alpha is alpha and cached_log is a_log
        assert forward_backward._forward(trellis, PRIOR)[0] is alpha
        assert np.array_equal(second.lapp, first.lapp)
        assert second.log_evidence == first.log_evidence

    def test_two_priors_on_one_trellis(self, toy_matrix):
        trellis = build_complete(toy_matrix)
        # each `_forward` call right after a run reads the pass that run cached
        low = run(trellis, Prior(0.1), Noiseless(), T_101)
        low_forward = forward_backward._forward(trellis, Prior(0.1))
        high = run(trellis, Prior(0.3), Noiseless(), T_101)
        high_forward = forward_backward._forward(trellis, Prior(0.3))
        assert not np.array_equal(low_forward[0][3], high_forward[0][3])
        cases = ((Prior(0.1), low, low_forward), (Prior(0.3), high, high_forward))
        for prior, result, forward in cases:
            for depth in range(trellis.n + 1):
                _assert_alpha_is_prefix_mass(forward, trellis, toy_matrix, prior, depth)
            fresh = run(build_complete(toy_matrix), prior, Noiseless(), T_101)
            assert np.array_equal(result.lapp, fresh.lapp)
        again = run(trellis, Prior(0.1), Noiseless(), T_101)
        again_alpha = forward_backward._forward(trellis, Prior(0.1))[0]
        assert np.array_equal(again_alpha[3], low_forward[0][3])
        assert np.array_equal(again.lapp, low.lapp)

    def test_no_pruned_trellis_enters_the_cache(self):
        # a pruned record has no engine state, so no run leaves a pass on it
        matrix, t = _design("hypergraph")
        for trellis in (expurgate(matrix, t), build_reduced(matrix, t)):
            run(trellis, PRIOR, Noiseless(), t)
            run(trellis, PRIOR, Bsc(0.0), t)
            assert trellis._engine_state == ()
            first = forward_backward._forward(trellis, PRIOR)
            assert forward_backward._forward(trellis, PRIOR)[0] is not first[0]
            assert all(arr.flags.writeable for arr in first[0])

    @pytest.mark.parametrize("build", [expurgate, build_reduced], ids=["expurgated", "reduced"])
    def test_rewritten_pruned_trellis_gives_the_fresh_pass(self, build):
        # a pruned trellis's edge arrays can be written; a run after a write
        # must not read a forward pass of the arrays as they were before it
        matrix, t = _design("hypergraph")
        trellis = build(matrix, t)
        first = run(trellis, PRIOR, Noiseless(), t)
        dst = next(
            sec.zero_dst
            for sec in trellis.sections
            if sec.zero_dst.flags.writeable and np.unique(sec.zero_dst).size > 1
        )
        dst[:] = dst[::-1].copy()
        again = run(trellis, PRIOR, Noiseless(), t)
        fresh = run(dataclasses.replace(trellis), PRIOR, Noiseless(), t)
        assert again.lapp.tobytes() != first.lapp.tobytes()  # the write reaches the pass
        assert again.lapp.tobytes() == fresh.lapp.tobytes()
        assert again.log_evidence == fresh.log_evidence

    def test_replaced_sections_are_the_ones_run(self, toy_matrix):
        # a complete trellis shows read-only views of the edge arrays the
        # engine reads; a record given other sections must run those
        trellis = build_complete(toy_matrix)
        swapped = dataclasses.replace(trellis, sections=tuple(
            EdgeSection(s.one_src, s.one_dst, s.zero_src, s.zero_dst) for s in trellis.sections
        ))
        got = run(swapped, PRIOR, Bsc(0.05), T_101).lapp
        assert got.tobytes() == run(_copied_sections(swapped), PRIOR, Bsc(0.05), T_101).lapp.tobytes()
        assert got.tobytes() != run(trellis, PRIOR, Bsc(0.05), T_101).lapp.tobytes()

    def test_dropped_trellis_leaves_the_cache(self, toy_matrix):
        trellis = build_complete(toy_matrix)
        run(trellis, PRIOR, Noiseless(), T_101)
        alpha = weakref.ref(forward_backward._forward(trellis, PRIOR)[0][1])
        assert trellis._engine_state[1][1][0][1] is alpha()
        del trellis
        gc.collect()
        assert alpha() is None

    def test_replaced_record_keeps_no_pass(self):
        # a record made by dataclasses.replace from a complete one has no
        # engine state: after a write into its own arrays, a run must not
        # read a forward pass of the arrays as they were before it
        matrix, t = _design("hypergraph")
        replaced = _copied_sections(build_complete(matrix))
        first = run(replaced, PRIOR, Bsc(0.05), t)
        assert replaced._engine_state == ()
        dst = next(sec.zero_dst for sec in replaced.sections if np.unique(sec.zero_dst).size > 1)
        dst[:] = dst[::-1].copy()
        again = run(replaced, PRIOR, Bsc(0.05), t)
        fresh = run(dataclasses.replace(replaced), PRIOR, Bsc(0.05), t)
        assert again.lapp.tobytes() != first.lapp.tobytes()  # the write reaches the pass
        assert again.lapp.tobytes() == fresh.lapp.tobytes()
        assert again.log_evidence == fresh.log_evidence
        assert again.section_log_evidence.tobytes() == fresh.section_log_evidence.tobytes()


    def test_threads_alternating_priors_on_one_trellis(self):
        matrix = bernoulli_matrix(8, 24, 0.2, 0)
        trellis = build_complete(matrix)
        priors = [Prior(0.05), Prior(0.2)]
        t = compute_syndrome(matrix, (np.arange(24) % 7 == 0).astype(np.uint8))
        want = [run(build_complete(matrix), prior, Bsc(0.05), t).lapp for prior in priors]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, trellis, priors[i % 2], Bsc(0.05), t) for i in range(64)]
                lapps = [f.result(timeout=60).lapp for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for i, lapp in enumerate(lapps):
            assert np.array_equal(lapp, want[i % 2])


class TestCopies:
    """`copy.copy`, `copy.deepcopy` and `pickle` all rebuild a trellis from its
    construction inputs: the same states, lapp bytes and read-only arrays,
    and a complete copy's sections are again views of what its engine reads."""

    BUILDS = {
        "complete": lambda matrix, t: build_complete(matrix),
        "expurgated": expurgate,
        "reduced": build_reduced,
        "replaced": lambda matrix, t: dataclasses.replace(build_complete(matrix)),
    }
    CLONES = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda trellis: pickle.loads(pickle.dumps(trellis)),
    }

    @staticmethod
    def _arrays(trellis):
        fields = (trellis.column_masks, trellis.kept, trellis.outcome, *trellis.states)
        return [a for a in fields if a is not None] + [a for s in trellis.sections for a in s]

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
    @pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
    def test_copy_is_the_rebuilt_trellis(self, build, clone):
        matrix, t = _design("hypergraph")
        trellis = build(matrix, t)
        noise = Bsc(0.05) if trellis.outcome is None else Noiseless()
        want = run(trellis, PRIOR, noise, t)
        twin = clone(trellis)
        got = run(twin, PRIOR, noise, t)
        assert twin is not trellis
        assert got.lapp.tobytes() == want.lapp.tobytes()
        assert np.float64(got.log_evidence).tobytes() == np.float64(want.log_evidence).tobytes()
        assert [s.tobytes() for s in twin.states] == [s.tobytes() for s in trellis.states]
        flags = [a.flags.writeable for a in self._arrays(trellis)]
        assert [a.flags.writeable for a in self._arrays(twin)] == flags
        if twin.outcome is None:
            for shown, engine in zip(twin.sections, twin._engine_state[0]):
                assert all(np.shares_memory(view, arr) for view, arr in zip(shown, engine))


class TestStreamingBackward:
    """The backward step gathers each label in left-state order, with 0 where
    a left state has no edge of that label, and takes the same update at
    every section, complete or pruned; an identity label reads beta itself."""

    @pytest.mark.parametrize("noise", [Bsc(0.1), Noiseless()], ids=["bsc", "noiseless"])
    def test_table_rows_match_runs(self, noise):
        rng = np.random.Generator(np.random.Philox(key=31))
        for _ in range(6):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 25))
            matrix = TestMatrix((rng.random((m, n)) < 0.3).astype(np.uint8))
            trellis = build_complete(matrix)
            xs = (rng.random((12, n)) < 0.2).astype(np.uint8)
            outcomes = np.stack([compute_syndrome(matrix, x) for x in xs])
            if isinstance(noise, Bsc):
                outcomes ^= (rng.random(outcomes.shape) < noise.epsilon).astype(np.uint8)
            table = posterior_table(trellis, PRIOR, noise, outcomes)
            for row, t in zip(table, outcomes):
                single = run(trellis, PRIOR, noise, t)
                assert np.array_equal(np.isposinf(row), np.isposinf(single.lapp))
                assert np.array_equal(np.isneginf(row), np.isneginf(single.lapp))
                finite = np.isfinite(single.lapp)
                assert np.allclose(row[finite], single.lapp[finite], rtol=1e-12, atol=1e-12)
                section = single.section_log_evidence
                assert np.allclose(section, single.log_evidence, rtol=1e-12, atol=0)
                alone = posterior_table(trellis, PRIOR, noise, t[None])[0]
                assert alone.tobytes() == single.lapp.tobytes()

    @pytest.mark.parametrize("shape", [(12, 48, 0.15), (16, 64, 0.1)], ids=["12x48", "16x64"])
    def test_engine_gathers_through_writeable_index_arrays(self, monkeypatch, shape):
        # numpy's take copies a read-only index array on every call, so on a
        # complete trellis the engine reads the writeable owners behind the
        # read-only views its sections show
        matrix = bernoulli_matrix(*shape, 0)
        trellis = build_complete(matrix)
        gather, writeable = forward_backward._gather, []

        def spy(out, b, src, dst):
            writeable.append(dst.flags.writeable)
            gather(out, b, src, dst)

        monkeypatch.setattr(forward_backward, "_gather", spy)
        assert not any(sec.zero_dst.flags.writeable for sec in trellis.sections)
        rng = np.random.default_rng(0)
        rows = (rng.random((20, matrix.m)) < 0.3).astype(np.uint8)
        run(trellis, PRIOR, Bsc(0.05), rows[0])
        posterior_table(trellis, PRIOR, Bsc(0.05), rows)
        assert len(writeable) > 2 * matrix.n
        assert all(writeable)

    def test_run_holds_one_beta_at_a_time(self):
        matrix = bernoulli_matrix(10, 40, 0.15, 0)
        trellis = build_complete(matrix)
        noise = Bsc(0.1)
        t = compute_syndrome(matrix, (np.arange(40) % 9 == 0).astype(np.uint8))
        run(trellis, PRIOR, noise, t)  # caches alpha, so both calls below skip it
        table_peak = _traced_peak(lambda: posterior_table(trellis, PRIOR, noise, t[None]))
        run_peak = _traced_peak(lambda: run(trellis, PRIOR, noise, t))
        assert run_peak <= 1.5 * table_peak

    def test_table_peak_stays_near_three_betas(self):
        # beta_final is one of the pass's three (max states, K) work arrays;
        # a pass that allocates its gathers per depth peaks above 4 of them
        matrix = bernoulli_matrix(10, 40, 0.2, 0)
        trellis = build_complete(matrix)
        rows = (np.random.default_rng(0).random((200, matrix.m)) < 0.5).astype(np.uint8)
        posterior_table(trellis, PRIOR, Bsc(0.1), rows[:1])  # caches alpha
        peak = _traced_peak(lambda: posterior_table(trellis, PRIOR, Bsc(0.1), rows))
        assert peak <= 3.6 * max(trellis.state_counts) * rows.shape[0] * 8

    def test_pruned_trellises_match_the_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=37))
        partial = 0
        for _ in range(12):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 15))
            matrix = TestMatrix((rng.random((m, n)) < 0.3).astype(np.uint8))
            t = compute_syndrome(matrix, (rng.random(n) < 0.3).astype(np.uint8))
            reference = enumerate_posteriors(matrix, t, PRIOR, Noiseless())
            for trellis in (expurgate(matrix, t), build_reduced(matrix, t)):
                partial += sum(
                    min(sec.zero_src.size, sec.one_src.size) < trellis.states[ell].size
                    for ell, sec in enumerate(trellis.sections)
                )
                result = run(trellis, PRIOR, Noiseless(), t)
                assert np.array_equal(np.isposinf(result.lapp), reference.mass1 == 0.0)
                assert np.array_equal(np.isneginf(result.lapp), reference.mass0 == 0.0)
                finite = np.isfinite(result.lapp)
                assert np.allclose(result.lapp[finite], reference.lapp[finite], rtol=1e-11)
                assert math.exp(result.log_evidence) == pytest.approx(
                    float(reference.total_mass[0]), rel=1e-11
                )
                section = result.section_log_evidence  # empty when n = 0
                assert np.allclose(section, section[:1], rtol=1e-12, atol=0)
        assert partial > 0


def _with_zero_columns(rng):
    m, n = int(rng.integers(1, 8)), int(rng.integers(2, 20))
    entries = (rng.random((m, n)) < rng.uniform(0.2, 0.6)).astype(np.uint8)
    entries[:, rng.integers(0, n, size=2)] = 0
    return TestMatrix(entries)


def _identity_sections(trellis):
    """(depths of the sections that add no state, depths of all-zero columns)."""
    counts = trellis.state_counts
    same = [
        ell
        for ell, sec in enumerate(trellis.sections)
        if sec.zero_src.size == counts[ell] == counts[ell + 1]
    ]
    return same, np.flatnonzero(trellis.column_masks == 0).tolist()


class TestBitwiseReference:
    """The engine skips copies where a label is the identity, and nothing
    else: every output equals the plain two-gather pass to the bit."""

    @staticmethod
    def _assert_run_matches(trellis, prior, noise, t):
        if trellis.outcome is None:
            beta_final = noise.likelihood_table(t[None, :], trellis.states[-1], trellis.m)
        else:
            beta_final = np.ones((1, 1))
        lapp, log_ev, section, alpha, a_log = reference_passes(trellis, prior, beta_final)
        result = run(trellis, prior, noise, t)
        forced = int((~trellis.kept).sum())
        assert result.lapp[trellis.kept].tobytes() == lapp[:, 0].tobytes()
        assert result.log_evidence == float(log_ev[0]) + forced * math.log(1.0 - prior.delta)
        assert result.section_log_evidence.tobytes() == section[:, 0].tobytes()
        got_alpha, got_log = forward_backward._forward(trellis, prior)
        assert got_log.tobytes() == a_log.tobytes()
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got_alpha, alpha, strict=True))

    def test_random_designs_with_zero_columns(self):
        rng = np.random.Generator(np.random.Philox(key=41))
        seen = np.zeros(2, int)  # identity sections and zero columns the engine met
        for _ in range(30):
            matrix = _with_zero_columns(rng)
            prior = Prior(float(rng.choice([0.02, 0.1, 0.3])))
            complete = build_complete(matrix)
            xs = (rng.random((9, matrix.n)) < 0.2).astype(np.uint8)
            clean = np.stack([compute_syndrome(matrix, x) for x in xs])
            noisy = clean ^ (rng.random(clean.shape) < 0.1).astype(np.uint8)
            for noise, rows in ((Bsc(0.1), noisy), (Noiseless(), clean)):
                for batch in (rows, rows[:1]):
                    beta_final = noise.likelihood_table(batch, complete.states[-1], matrix.m)
                    want = reference_passes(complete, prior, beta_final)[0].T
                    got = posterior_table(complete, prior, noise, batch)
                    assert got.tobytes() == want.tobytes()
            self._assert_run_matches(complete, prior, Bsc(0.1), noisy[0])
            t = clean[0]
            for trellis in (complete, expurgate(matrix, t), build_reduced(matrix, t)):
                seen += [len(depths) for depths in _identity_sections(trellis)]
                self._assert_run_matches(trellis, prior, Noiseless(), t)
        assert (seen > 0).all()

    def test_benchmark_design_runs_both_shortcuts(self):
        matrix = bernoulli_matrix(12, 48, 0.15, 0)
        trellis = build_complete(matrix)
        same, zero = _identity_sections(trellis)
        assert (len(same), len(zero)) == (24, 8)
        # the engine recognises an identity label by its shared array alone
        sections = list(enumerate(trellis.sections))
        assert [ell for ell, sec in sections if sec.zero_dst is sec.zero_src] == same
        assert [ell for ell, sec in sections if sec.one_dst is sec.one_src] == zero
        prior = Prior(0.02)
        rng = np.random.Generator(np.random.Philox(key=43))
        xs = (rng.random((40, matrix.n)) < 0.05).astype(np.uint8)
        rows = np.stack([compute_syndrome(matrix, x) for x in xs])
        rows ^= (rng.random(rows.shape) < 0.05).astype(np.uint8)
        beta_final = Bsc(0.05).likelihood_table(rows, trellis.states[-1], matrix.m)
        want = reference_passes(trellis, prior, beta_final)[0].T
        assert posterior_table(trellis, prior, Bsc(0.05), rows).tobytes() == want.tobytes()
        self._assert_run_matches(trellis, prior, Bsc(0.05), rows[0])

    def test_sections_without_shared_arrays_give_the_same_bits(self):
        # copies share no array, so every section takes the general path
        rng = np.random.Generator(np.random.Philox(key=53))
        matrices = [bernoulli_matrix(12, 48, 0.15, 0)]
        matrices += [_with_zero_columns(rng) for _ in range(12)]
        for matrix in matrices:
            prior = Prior(0.02)
            complete = build_complete(matrix)
            xs = (rng.random((9, matrix.n)) < 0.1).astype(np.uint8)
            clean = np.stack([compute_syndrome(matrix, x) for x in xs])
            noisy = clean ^ (rng.random(clean.shape) < 0.1).astype(np.uint8)
            t = clean[0]
            for rows in (noisy, noisy[:1]):
                want = posterior_table(complete, prior, Bsc(0.1), rows)
                got = posterior_table(_copied_sections(complete), prior, Bsc(0.1), rows)
                assert got.tobytes() == want.tobytes()
            cases = [(complete, Bsc(0.1), noisy[0]), (complete, Noiseless(), t)]
            cases += [(expurgate(matrix, t), Noiseless(), t)]
            cases += [(build_reduced(matrix, t), Noiseless(), t)]
            for trellis, noise, outcome in cases:
                copied = _copied_sections(trellis)
                want = run(trellis, prior, noise, outcome)
                got = run(copied, prior, noise, outcome)
                assert got.lapp.tobytes() == want.lapp.tobytes()
                assert got.log_evidence == want.log_evidence
                assert got.section_log_evidence.tobytes() == want.section_log_evidence.tobytes()
                got_alpha, got_log = forward_backward._forward(copied, prior)
                want_alpha, want_log = forward_backward._forward(trellis, prior)
                assert got_log.tobytes() == want_log.tobytes()
                pairs = zip(got_alpha, want_alpha, strict=True)
                assert all(x.tobytes() == y.tobytes() for x, y in pairs)


def _copied_sections(trellis):
    """The trellis with every edge array copied, so no section shares one."""
    sections = tuple(
        EdgeSection(*(arr.copy() for arr in sec)) for sec in trellis.sections
    )
    assert not any(s.zero_dst is s.zero_src or s.one_dst is s.one_src for s in sections)
    return dataclasses.replace(trellis, sections=sections)


@pytest.fixture
def narrowest_blocks(monkeypatch):
    """A one-byte budget gives every trellis the narrowest block, 8 columns."""
    monkeypatch.setattr(forward_backward, "_BLOCK_BYTES", 1)


def _block_spy(monkeypatch):
    """A list that records (first row, width) of every later `_engine` call."""
    blocks = []
    engine = forward_backward._engine

    def spy(trellis, prior, beta_final, first_row=0):
        blocks.append((first_row, beta_final.shape[1]))
        return engine(trellis, prior, beta_final, first_row)

    monkeypatch.setattr(forward_backward, "_engine", spy)
    return blocks


class TestColumnBlocks:
    """`posterior_table` runs its batch in column blocks, each a multiple of 8
    wide but the last, which takes in a shorter tail; the lapp bits equal one
    pass over the whole batch."""

    def test_block_widths(self, narrowest_blocks, monkeypatch):
        blocks = _block_spy(monkeypatch)
        trellis = build_complete(bernoulli_matrix(5, 12, 0.3, 0))
        expected = {
            1: [(0, 1)],
            7: [(0, 7)],
            8: [(0, 8)],
            15: [(0, 15)],
            16: [(0, 8), (8, 8)],
            23: [(0, 8), (8, 15)],
            34: [(0, 8), (8, 8), (16, 8), (24, 10)],
        }
        for k, want in expected.items():
            blocks.clear()
            posterior_table(trellis, PRIOR, Noiseless(), np.zeros((k, trellis.m), np.uint8))
            assert blocks == want

    def test_default_width_on_the_benchmark_design(self, monkeypatch):
        blocks = _block_spy(monkeypatch)
        trellis = build_complete(bernoulli_matrix(12, 48, 0.15, 0))
        posterior_table(trellis, PRIOR, Bsc(0.05), np.zeros((100, trellis.m), np.uint8))
        assert blocks == [(0, 32), (32, 32), (64, 36)]

    def test_blocked_bits_equal_one_pass(self, narrowest_blocks):
        rng = np.random.Generator(np.random.Philox(key=59))
        matrices = [bernoulli_matrix(12, 48, 0.15, 0)]
        matrices += [_with_zero_columns(rng) for _ in range(6)]
        for matrix in matrices:
            prior = Prior(float(rng.choice([0.02, 0.1])))
            trellis = build_complete(matrix)
            xs = (rng.random((40, matrix.n)) < 0.1).astype(np.uint8)
            clean = np.stack([compute_syndrome(matrix, x) for x in xs])
            noisy = clean ^ (rng.random(clean.shape) < 0.05).astype(np.uint8)
            for noise, rows in ((Bsc(0.05), noisy), (Noiseless(), clean)):
                for k in range(1, 41):
                    beta_final = noise.likelihood_table(rows[:k], trellis.states[-1], matrix.m)
                    want = reference_passes(trellis, prior, beta_final)[0].T
                    got = posterior_table(trellis, prior, noise, rows[:k])
                    assert got.tobytes() == want.tobytes(), (matrix.m, matrix.n, noise, k)

    def test_dead_row_of_a_later_block_is_named(self, narrowest_blocks):
        twin = TestMatrix(np.array([[1, 1], [1, 1]], dtype=np.uint8))
        rows = np.ones((32, 2), np.uint8)
        rows[20] = [1, 0]  # no defective set fires only one of two identical tests
        with pytest.raises(NotASyndromeError, match=r"row 20 .*\(1 such row\(s\) in rows 16-23\)"):
            posterior_table(build_complete(twin), PRIOR, Noiseless(), rows)

    def test_peak_does_not_grow_with_the_batch(self):
        matrix = bernoulli_matrix(10, 40, 0.2, 0)
        trellis = build_complete(matrix)
        rows = (np.random.default_rng(1).random((2000, matrix.m)) < 0.5).astype(np.uint8)
        posterior_table(trellis, PRIOR, Bsc(0.1), rows[:1])  # caches alpha
        small = _traced_peak(lambda: posterior_table(trellis, PRIOR, Bsc(0.1), rows[:200]))
        large = _traced_peak(lambda: posterior_table(trellis, PRIOR, Bsc(0.1), rows))
        assert large - small <= rows.shape[0] * (matrix.n * 8 + matrix.m)


class TestColumnSums:
    """The engine's column sums are `sum(axis=0)` bit for bit at every width."""

    @pytest.mark.parametrize("rows", [1, 2, 7, 3904])
    def test_equal_to_numpy_sum(self, rows):
        rng = np.random.Generator(np.random.Philox(key=rows))
        for k in range(1, 41):
            # exponents spread over 1e-300..1, as scaled beta entries are
            b = 10.0 ** rng.uniform(-300.0, 0.0, (rows, k))
            b[rng.random((rows, k)) < 0.1] = 0.0  # states a column cannot reach
            assert forward_backward._column_sums(b).tobytes() == b.sum(axis=0).tobytes(), k

    def test_on_leading_rows_of_a_work_array(self):
        # the engine sums beta in the first a.size rows of a wider work array
        rng = np.random.Generator(np.random.Philox(key=3))
        work = rng.random((3904, 32))
        for rows in (1, 2, 7, 1000):
            b = work[:rows]
            assert forward_backward._column_sums(b).tobytes() == b.sum(axis=0).tobytes()


class TestValidation:
    def test_wrong_outcome_length(self, toy_matrix):
        with pytest.raises(ValueError):
            run(build_complete(toy_matrix), PRIOR, Noiseless(), [1, 0])

    def test_unreachable_noiseless_outcome(self):
        twin = TestMatrix(np.array([[1, 1], [1, 1]], dtype=np.uint8))
        with pytest.raises(NotASyndromeError):
            run(build_complete(twin), PRIOR, Noiseless(), [1, 0])

    def test_expurgated_requires_matching_outcome(self, toy_matrix):
        trellis = expurgate(toy_matrix, T_101)
        with pytest.raises(ValueError):
            run(trellis, PRIOR, Noiseless(), [1, 1, 1])

    def test_expurgated_rejects_noise(self, toy_matrix):
        trellis = expurgate(toy_matrix, T_101)
        with pytest.raises(ValueError):
            run(trellis, PRIOR, Bsc(0.05), T_101)

    def test_reduced_requires_matching_fired_set(self, toy_matrix):
        trellis = build_reduced(toy_matrix, T_101)
        with pytest.raises(ValueError):
            run(trellis, PRIOR, Noiseless(), [1, 1, 0])


@dataclasses.dataclass(frozen=True, eq=False)
class _SpyBsc(Bsc):
    """A Bsc that records the states of every `likelihood_table` call."""

    asked: list = dataclasses.field(default_factory=list)

    def likelihood_table(self, outcomes, state_indices, m):
        self.asked.append(state_indices)
        return super().likelihood_table(outcomes, state_indices, m)


class TestFinalStates:
    def test_likelihood_asked_only_at_the_final_states(self, toy_matrix, narrowest_blocks):
        trellis = build_complete(toy_matrix)
        noise = _SpyBsc(0.1)
        run(trellis, PRIOR, noise, T_101)
        assert len(noise.asked) == 1 and noise.asked[0] is trellis.states[-1]
        noise.asked.clear()
        posterior_table(trellis, PRIOR, noise, np.zeros((20, trellis.m), np.uint8))
        assert len(noise.asked) == 2  # blocks of 8 and 12 columns
        assert all(states is trellis.states[-1] for states in noise.asked)


class TestPosteriorTable:
    def test_rows_match_individual_runs_noiseless(self, toy_matrix):
        trellis = build_complete(toy_matrix)
        outcomes = np.stack(
            [np.array([(s >> i) & 1 for i in range(3)], np.uint8) for s in trellis.states[-1]]
        )
        table = posterior_table(trellis, PRIOR, Noiseless(), outcomes)
        for k in range(outcomes.shape[0]):
            single = run(trellis, PRIOR, Noiseless(), outcomes[k])
            assert np.array_equal(table[k] == np.inf, single.lapp == np.inf)
            finite = np.isfinite(single.lapp)
            assert np.allclose(table[k][finite], single.lapp[finite], rtol=1e-12)

    def test_rows_match_individual_runs_bsc(self, toy_matrix):
        trellis = build_complete(toy_matrix)
        outcomes = np.array([[0, 0, 0], [1, 0, 1], [1, 1, 1], [0, 1, 0]], np.uint8)
        table = posterior_table(trellis, PRIOR, Bsc(0.05), outcomes)
        for k in range(outcomes.shape[0]):
            single = run(trellis, PRIOR, Bsc(0.05), outcomes[k])
            assert np.allclose(table[k], single.lapp, rtol=1e-12)

    def test_unreachable_row_rejected_noiseless(self):
        twin = TestMatrix(np.array([[1, 1], [1, 1]], dtype=np.uint8))
        trellis = build_complete(twin)
        with pytest.raises(NotASyndromeError):
            posterior_table(trellis, PRIOR, Noiseless(), np.array([[0, 0], [1, 0]], np.uint8))

    def test_requires_complete_kind(self, toy_matrix):
        for trellis in (
            build_reduced(toy_matrix, T_101),
            expurgate(toy_matrix, T_101),
        ):
            with pytest.raises(ValueError, match="complete trellis"):
                posterior_table(trellis, PRIOR, Noiseless(), T_101[None, :])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_non_binary_rows_rejected(self, toy_matrix, dtype):
        trellis = build_complete(toy_matrix)
        with pytest.raises(ValueError):
            posterior_table(trellis, PRIOR, Noiseless(), np.array([[2, 0, 1]], dtype))

    def test_batch_of_the_wrong_width_rejected(self):
        trellis = build_complete(bernoulli_matrix(7, 10, 0.3, 0))
        want = r"expected a \(K, 7\) outcome array, got shape \(2, 6\)"
        with pytest.raises(ValueError, match=want):
            posterior_table(trellis, PRIOR, Noiseless(), np.zeros((2, 6), np.uint8))

    def test_empty_batch(self, toy_matrix):
        trellis = build_complete(toy_matrix)
        table = posterior_table(trellis, PRIOR, Noiseless(), np.zeros((0, 3), np.uint8))
        assert table.shape == (0, 6)

    def test_empty_batch_refuses_an_underflowing_crossover(self, toy_matrix):
        # the crossover is checked before any block, as `run` checks it
        trellis = build_complete(toy_matrix)
        want = "crossover probability 1e-200 underflows on 3 tests"
        with pytest.raises(ValueError, match=want):
            run(trellis, PRIOR, Bsc(1e-200), T_101)
        with pytest.raises(ValueError, match=want):
            posterior_table(trellis, PRIOR, Bsc(1e-200), np.zeros((0, 3), np.uint8))


class TestZeroForced:
    def test_reduced_reports_silent_covered_elements(self, toy_matrix):
        trellis = build_reduced(toy_matrix, T_101)
        result = run(trellis, PRIOR, Noiseless(), T_101)
        forced = np.flatnonzero(~trellis.kept)
        assert forced.tolist() == [1, 2, 4]
        assert np.isposinf(result.lapp[forced]).all()
        assert result.section_log_evidence.size == trellis.n == 3

    def test_complete_reports_none(self, toy_matrix):
        trellis = build_complete(toy_matrix)
        result = run(trellis, PRIOR, Noiseless(), T_101)
        assert np.flatnonzero(~trellis.kept).size == 0
        assert result.section_log_evidence.size == 6

    def test_result_fields(self, toy_matrix):
        result = run(build_complete(toy_matrix), PRIOR, Noiseless(), T_101)
        assert [f.name for f in dataclasses.fields(result)] == [
            "lapp", "log_evidence", "section_log_evidence",
        ]


class TestPosteriorPairsForm:
    """One division, `where(lapp >= 0, e, 1) / (1 + e)`, gives the two-branch quotients."""

    @staticmethod
    def two_branch(lapp):
        e = np.exp(-np.abs(lapp))
        p1 = np.where(lapp >= 0, e / (1.0 + e), 1.0 / (1.0 + e))
        return np.stack([1.0 - p1, p1], axis=1)

    def test_bits_equal_the_two_branch_form(self):
        rng = np.random.default_rng(3)
        lapp = np.concatenate([
            rng.uniform(-700.0, 700.0, 4000),
            rng.uniform(-40.0, 40.0, 4000),
            rng.standard_normal(2000) * 1e-6,
            [0.0, -0.0, np.inf, -np.inf, 700.0, -700.0, 5e-324, -5e-324],
        ])
        got = posterior_pairs(lapp)
        assert got.tobytes() == self.two_branch(lapp).tobytes()

    def test_infinities_are_exact(self):
        pairs = posterior_pairs(np.array([np.inf, -np.inf]))
        assert pairs.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def _eye(m):
    return TestMatrix(np.eye(m, dtype=np.uint8))


class TestOneColumnScale:
    """One column leaves beta unscaled and divides it by a power of two only
    when alpha . beta nears the bottom of the float range; every case here
    takes that division, since its evidence lies below 2**-500 / delta."""

    CASES = [  # (matrix, reduced, delta), each on the all-ones outcome
        (lambda: _eye(6), False, 1e-40),  # evidence 1e-240
        (lambda: _eye(20), True, 1e-20),
        (lambda: _eye(20), True, 1e-100),
        (lambda: hypergraph_incidence(10, 2), False, 1e-40),
        (lambda: hypergraph_incidence(10, 2), True, 1e-40),
    ]
    IDS = ["complete-eye6", "reduced-eye20-1e-20", "reduced-eye20-1e-100",
           "complete-hypergraph10", "reduced-hypergraph10"]  # fmt: skip

    @staticmethod
    def _case(make, reduced):
        matrix = make()
        t = np.ones(matrix.m, np.uint8)
        return matrix, (build_reduced(matrix, t) if reduced else build_complete(matrix)), t

    @pytest.mark.parametrize("make, reduced, delta", CASES, ids=IDS)
    def test_rescaled_passes_match_the_subset_lattice(self, make, reduced, delta):
        matrix, trellis, t = self._case(make, reduced)
        result = run(trellis, Prior(delta), Noiseless(), t)
        assert result.log_evidence < math.log(2.0**-500 / delta)
        if matrix.m > 12:  # eye(m): m independent tests, each forcing its element
            want, log_evidence = np.full(matrix.m, -np.inf), matrix.m * math.log(delta)
        else:
            want, log_evidence = subset_lattice_posteriors(matrix.entries, t, delta)
        assert np.array_equal(np.isinf(result.lapp), np.isinf(want))
        assert np.array_equal(result.lapp[np.isinf(want)], want[np.isinf(want)])
        finite = np.isfinite(want)
        assert np.allclose(result.lapp[finite], want[finite], rtol=1e-12, atol=0)
        assert result.log_evidence == pytest.approx(log_evidence, rel=1e-12)
        assert np.allclose(result.section_log_evidence, log_evidence, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("make, reduced, delta", CASES, ids=IDS)
    def test_rescaled_bits_equal_the_reference(self, make, reduced, delta):
        _, trellis, t = self._case(make, reduced)
        TestBitwiseReference._assert_run_matches(trellis, Prior(delta), Noiseless(), t)
        if not reduced:
            table = posterior_table(trellis, Prior(delta), Noiseless(), t[None])[0]
            assert table.tobytes() == run(trellis, Prior(delta), Noiseless(), t).lapp.tobytes()


class TestForwardUnderflow:
    """An outcome whose prefix mass underflows the normalised forward pass of a
    complete trellis raises instead of giving NaN lapp; a pruned trellis,
    which keeps only its paths, gives the exact answer."""

    T = np.ones(12, np.uint8)

    def test_run_and_posterior_table_raise(self, narrowest_blocks):
        trellis = build_complete(_eye(12))
        match = r"outcome row 0 has paths too unlikely .*\(1 such row\(s\) in rows 0-0\)"
        with pytest.raises(ValueError, match=match):
            run(trellis, Prior(1e-30), Noiseless(), self.T)
        sure = np.eye(12, dtype=np.uint8)[:8]  # one fired test each: likely enough
        rows = np.vstack([sure, self.T[None], sure])
        with pytest.raises(ValueError, match=r"row 8 has paths too unlikely .* rows 8-16\)"):
            posterior_table(trellis, Prior(1e-30), Noiseless(), rows)

    def test_reduced_trellis_matches_the_subset_lattice(self):
        result = run(build_reduced(_eye(12), self.T), Prior(1e-30), Noiseless(), self.T)
        lapp, log_evidence = subset_lattice_posteriors(np.eye(12, dtype=np.uint8), self.T, 1e-30)
        assert np.array_equal(lapp, np.full(12, -np.inf))
        assert result.lapp.tobytes() == lapp.tobytes()
        assert result.log_evidence == pytest.approx(log_evidence, rel=1e-12)


class TestBscUnderflow:
    """A crossover whose likelihoods would underflow raises instead of giving +-inf."""

    MATRIX = bernoulli_matrix(16, 64, 0.1, 0)
    PRIOR = Prior(0.05)

    def test_run_and_posterior_table_raise(self):
        trellis = build_complete(self.MATRIX)
        t = np.zeros(16, np.uint8)
        with pytest.raises(ValueError, match="crossover probability 1e-100 underflows on 16 tests"):
            run(trellis, self.PRIOR, Bsc(1e-100), t)
        with pytest.raises(ValueError, match="crossover probability 1e-100 underflows on 16 tests"):
            posterior_table(trellis, self.PRIOR, Bsc(1e-100), t[None, :])

    def test_smallest_accepted_crossover_gives_finite_lapp(self):
        eps = float(np.finfo(float).smallest_normal ** (1 / 16)) * (1 + 1e-9)
        trellis = build_complete(self.MATRIX)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = (rng.random(64) < self.PRIOR.delta).astype(np.uint8)
            t = compute_syndrome(self.MATRIX, x) ^ (rng.random(16) < 0.3)
            result = run(trellis, self.PRIOR, Bsc(eps), t.astype(np.uint8))
            assert np.isfinite(result.lapp).all()
            assert math.isfinite(result.log_evidence)
