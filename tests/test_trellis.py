import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptrellis import (
    Bsc,
    Noiseless,
    NotASyndromeError,
    Prior,
    SizeLimitError,
    TestMatrix,
    bernoulli_matrix,
    bits_to_index,
    build_complete,
    build_reduced,
    compute_syndrome,
    enumerate_paths,
    enumerate_posteriors,
    expurgate,
    run,
)
from grouptrellis import trellis as trellis_module
from grouptrellis.forward_backward import _forward
from grouptrellis.trellis import EdgeSection
from helpers import all_vectors, compatible_vectors, walk_partial_syndromes

T_101 = np.array([1, 0, 1], dtype=np.uint8)


def _bytes_kept(build):
    """(result of `build()`, traced bytes still allocated after it returns)."""
    # a first small build runs numpy's lazy imports, which the trace must not count
    build_complete(bernoulli_matrix(6, 12, 0.3, 0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def _edge_set_from_vectors(entries, vectors):
    """(depth, src, dst, label) tuples traversed by the given defectivity vectors."""
    edges = set()
    for x in vectors:
        states = walk_partial_syndromes(entries, x)
        for depth in range(len(x)):
            edges.add((depth, states[depth], states[depth + 1], int(x[depth])))
    return edges


def _trellis_edge_set(trellis):
    return {tuple(int(v) for v in line.split()) for line in trellis.dump().splitlines()}


class TestCompleteToy:
    def test_depth_one_states(self, toy_matrix):
        trellis = build_complete(toy_matrix)
        assert trellis.states[1].tolist() == [0, 5]

    def test_state_counts(self, toy_matrix):
        assert build_complete(toy_matrix).state_counts == [1, 2, 4, 5, 6, 7, 8]

    def test_census_matches_brute_force(self, toy_matrix):
        # independent route: walk all 64 defectivity vectors and collect the
        # states and edges they traverse; the complete trellis must match
        trellis = build_complete(toy_matrix)
        entries = toy_matrix.entries
        vectors = all_vectors(6)
        for depth in range(7):
            seen = sorted({walk_partial_syndromes(entries, x)[depth] for x in vectors})
            assert trellis.states[depth].tolist() == seen
        assert _trellis_edge_set(trellis) == _edge_set_from_vectors(entries, vectors)

    def test_paths_spell_all_vectors(self, toy_matrix):
        paths = enumerate_paths(build_complete(toy_matrix))
        assert paths.shape == (64, 6)
        rows = [tuple(row) for row in paths]
        assert set(rows) == {tuple(x) for x in all_vectors(6)}
        assert rows == sorted(rows)  # depth-first: 0-edges before 1-edges


class TestEdgeStructure:
    def test_zero_edges_are_self_loops(self, toy_matrix):
        for trellis in (
            build_complete(toy_matrix),
            expurgate(toy_matrix, T_101),
            build_reduced(toy_matrix, T_101),
        ):
            for depth in range(trellis.n):
                sec = trellis.sections[depth]
                left, right = trellis.states[depth], trellis.states[depth + 1]
                assert np.array_equal(left[sec.zero_src], right[sec.zero_dst])

    def test_one_edges_or_in_the_column_mask(self, toy_matrix):
        for trellis in (
            build_complete(toy_matrix),
            expurgate(toy_matrix, T_101),
            build_reduced(toy_matrix, T_101),
        ):
            for depth in range(trellis.n):
                sec = trellis.sections[depth]
                left, right = trellis.states[depth], trellis.states[depth + 1]
                assert np.array_equal(
                    left[sec.one_src] | trellis.column_masks[depth], right[sec.one_dst]
                )

    def test_parallel_edges_iff_mask_covered(self, toy_matrix):
        # a state carries both labels to the same successor exactly when it
        # already contains the element's pool column
        trellis = build_complete(toy_matrix)
        for depth in range(trellis.n):
            sec = trellis.sections[depth]
            left = trellis.states[depth]
            mask = trellis.column_masks[depth]
            # both labels leave every state, so they share one source array
            assert sec.zero_src is sec.one_src
            same = sec.zero_dst == sec.one_dst
            covered = (left & mask) == mask
            assert np.array_equal(same, covered)

    def test_identity_labels_store_no_destinations(self):
        # a label that keeps every state in place (the 0-label of a section
        # that adds no state; both labels of an all-zero column) uses its
        # source arange as its destination array
        rng = np.random.Generator(np.random.Philox(key=47))
        shared = 0
        for _ in range(40):
            entries = (rng.random((int(rng.integers(1, 7)), 12)) < 0.3).astype(np.uint8)
            entries[:, rng.integers(0, 12, size=2)] = 0
            matrix = TestMatrix(entries)
            t = compute_syndrome(matrix, (rng.random(12) < 0.3).astype(np.uint8))
            complete = build_complete(matrix)
            for trellis in (complete, expurgate(matrix, t), build_reduced(matrix, t)):
                for ell, sec in enumerate(trellis.sections):
                    left, right = trellis.states[ell], trellis.states[ell + 1]
                    zero_column = trellis.column_masks[ell] == 0
                    for src, dst, label_stays in (
                        (sec.zero_src, sec.zero_dst, True),
                        (sec.one_src, sec.one_dst, zero_column),
                    ):
                        identity = label_stays and src.size == left.size == right.size
                        assert (dst is src) == identity
                        if identity:
                            assert np.array_equal(right[dst], left)
                            shared += 1
        assert shared > 0


class TestSharedRamp:
    """Every source that leaves all left states is a view of one int64 ramp."""

    def test_complete_sources_share_one_ramp(self):
        trellis = build_complete(bernoulli_matrix(12, 48, 0.15, 0))
        ramp = trellis.sections[0].zero_src.base
        width = max(trellis.state_counts)
        assert np.array_equal(ramp, np.arange(width))
        assert not ramp.flags.writeable
        for ell, sec in enumerate(trellis.sections):
            assert sec.zero_src is sec.one_src
            assert sec.zero_src.size == trellis.state_counts[ell]
            assert np.shares_memory(sec.zero_src, ramp)

    def test_pruned_full_width_sources_share_one_ramp(self):
        rng = np.random.Generator(np.random.Philox(key=59))
        for _ in range(20):
            matrix = TestMatrix((rng.random((5, 12)) < 0.3).astype(np.uint8))
            t = compute_syndrome(matrix, (rng.random(12) < 0.3).astype(np.uint8))
            for trellis in (expurgate(matrix, t), build_reduced(matrix, t)):
                full = [
                    src
                    for ell, sec in enumerate(trellis.sections)
                    for src in (sec.zero_src, sec.one_src)
                    if src.size == trellis.state_counts[ell]
                ]
                ramp = full[0].base
                assert ramp.size == max(trellis.state_counts)
                assert all(np.shares_memory(src, ramp) for src in full)

    def test_build_keeps_states_destinations_and_one_ramp(self):
        # one source arange per section kept about 6 MB more on this design
        trellis, kept = _bytes_kept(lambda: build_complete(bernoulli_matrix(16, 64, 0.1, 0)))
        states = {id(s): s.nbytes for s in trellis.states}
        destinations = {
            id(dst): dst.nbytes
            for sec in trellis.sections
            for src, dst in ((sec.zero_src, sec.zero_dst), (sec.one_src, sec.one_dst))
            if dst is not src
        }
        ramp = 8 * max(trellis.state_counts)
        slack = 256 << 10
        assert kept <= sum(states.values()) + sum(destinations.values()) + ramp + slack


def _three_flavours(matrix, t):
    return build_complete(matrix), expurgate(matrix, t), build_reduced(matrix, t)


class TestEdgeSectionRecord:
    """The record each section is: four named arrays the engine unpacks in
    order, compared by identity, whose fields cannot be rebound."""

    FIELDS = ("zero_src", "zero_dst", "one_src", "one_dst")

    def test_four_named_int64_arrays_in_order(self, toy_matrix):
        assert EdgeSection._fields == self.FIELDS
        for trellis in _three_flavours(toy_matrix, T_101):
            for sec in trellis.sections:
                assert type(sec) is EdgeSection and len(sec) == 4
                named = [getattr(sec, name) for name in self.FIELDS]
                assert all(arr is field for arr, field in zip(sec, named, strict=True))
                assert all(arr.dtype == np.int64 and arr.ndim == 1 for arr in sec)

    def test_fields_cannot_be_rebound_deleted_or_added(self, toy_matrix):
        sec = build_reduced(toy_matrix, T_101).sections[0]
        held = tuple(sec)
        for name in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(sec, name, np.arange(1))
            with pytest.raises(AttributeError):
                delattr(sec, name)
        with pytest.raises(AttributeError):
            sec.extra = 1
        with pytest.raises(TypeError):
            sec[0] = np.arange(1)
        assert all(arr is kept for arr, kept in zip(sec, held, strict=True))

    def test_equality_and_hash_are_identity(self, toy_matrix):
        sec = build_complete(toy_matrix).sections[1]
        twin = EdgeSection(*sec)  # the same four array objects
        assert sec == sec and not sec != sec
        assert sec != twin and not sec == twin
        assert hash(sec) == object.__hash__(sec)
        assert len({sec, twin, sec}) == 2

    def test_shared_arrays_are_read_only_ramp_views(self):
        # an array that two labels or two sections hold, or whose memory they
        # share, is a view of the one read-only ramp: a write through one
        # label cannot reach another.  Within a section one view serves every
        # label that leaves all left states.
        rng = np.random.Generator(np.random.Philox(key=61))
        views = 0
        for _ in range(30):
            entries = (rng.random((int(rng.integers(1, 6)), 10)) < 0.3).astype(np.uint8)
            entries[:, rng.integers(0, 10)] = 0
            matrix = TestMatrix(entries)
            t = compute_syndrome(matrix, (rng.random(10) < 0.3).astype(np.uint8))
            for trellis in _three_flavours(matrix, t):
                ramp = None
                seen = {}
                for ell, sec in enumerate(trellis.sections):
                    width = trellis.state_counts[ell]
                    full = [arr for arr in (sec.zero_src, sec.one_src) if arr.size == width]
                    assert all(arr is full[0] for arr in full)
                    for arr in sec:
                        seen.setdefault(id(arr), []).append(arr)
                    for arr in full:
                        ramp = arr.base if ramp is None else ramp
                        assert arr.base is ramp and not arr.flags.writeable
                        assert np.array_equal(arr, np.arange(width))
                        views += 1
                if ramp is not None:
                    assert ramp.size == max(trellis.state_counts)
                    assert not ramp.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        ramp[0] = 1
                arrays = [held[0] for held in seen.values()]
                is_view = [ramp is not None and arr.base is ramp for arr in arrays]
                assert all(view for view, held in zip(is_view, seen.values()) if len(held) > 1)
                owned = [arr for arr, view in zip(arrays, is_view) if not view]
                for i, arr in enumerate(owned):
                    assert not any(np.shares_memory(arr, other) for other in owned[i + 1 :])
        assert views > 0


class TestExpurgatedToy:
    def test_silent_covered_sections_have_no_one_edges(self, toy_matrix):
        # elements 1, 2, 4 sit in a silent test, so their sections keep only
        # 0-labeled edges once paths are pinned to outcome 101
        trellis = expurgate(toy_matrix, T_101)
        one_counts = [trellis.sections[d].one_src.size for d in range(6)]
        assert [c == 0 for c in one_counts] == [False, True, True, False, True, False]

    def test_paths_are_exactly_the_compatible_set(self, toy_matrix):
        trellis = expurgate(toy_matrix, T_101)
        got = {tuple(row) for row in enumerate_paths(trellis)}
        want = {tuple(x) for x in compatible_vectors(toy_matrix.entries, T_101)}
        assert want == {
            (1, 0, 0, 0, 0, 0),
            (1, 0, 0, 1, 0, 0),
            (1, 0, 0, 0, 0, 1),
            (0, 0, 0, 1, 0, 1),
            (1, 0, 0, 1, 0, 1),
        }
        assert got == want

    def test_final_state_is_the_outcome(self, toy_matrix):
        trellis = expurgate(toy_matrix, T_101)
        assert trellis.states[-1].tolist() == [5]
        assert trellis.outcome.tolist() == T_101.tolist()
        assert bits_to_index(trellis.outcome) == trellis.states[-1][0] == 5

    def test_no_dead_ends(self, toy_matrix):
        trellis = expurgate(toy_matrix, T_101)
        for depth in range(trellis.n):
            sec = trellis.sections[depth]
            out_deg = np.zeros(trellis.states[depth].size, dtype=int)
            np.add.at(out_deg, sec.zero_src, 1)
            np.add.at(out_deg, sec.one_src, 1)
            assert np.all(out_deg > 0)
            in_deg = np.zeros(trellis.states[depth + 1].size, dtype=int)
            np.add.at(in_deg, sec.zero_dst, 1)
            np.add.at(in_deg, sec.one_dst, 1)
            assert np.all(in_deg > 0)

    def test_unreachable_outcome_rejected(self):
        twin = TestMatrix(np.array([[1, 1], [1, 1]], dtype=np.uint8))
        with pytest.raises(NotASyndromeError):
            expurgate(twin, [1, 0])


class TestReducedToy:
    def test_shapes_and_bookkeeping(self, toy_matrix):
        trellis = build_reduced(toy_matrix, T_101)
        assert trellis.n == 3
        assert trellis.m == 2
        assert np.flatnonzero(trellis.outcome).tolist() == [0, 2]
        assert np.flatnonzero(trellis.kept).tolist() == [0, 3, 5]
        assert np.flatnonzero(~trellis.kept).tolist() == [1, 2, 4]
        assert trellis.states[-1].tolist() == [3]
        assert all(count <= 4 for count in trellis.state_counts)

    def test_paths_match_expurgated_on_kept_elements(self, toy_matrix):
        reduced = build_reduced(toy_matrix, T_101)
        kept = np.flatnonzero(reduced.kept)
        sub_paths = {tuple(row) for row in enumerate_paths(reduced)}
        full_paths = enumerate_paths(expurgate(toy_matrix, T_101))
        assert sub_paths == {tuple(row[kept]) for row in full_paths}
        # dropped elements are identically zero on every full path
        dropped = np.flatnonzero(~reduced.kept)
        assert not full_paths[:, dropped].any()

    def test_all_silent_outcome(self, toy_matrix):
        trellis = build_reduced(toy_matrix, [0, 0, 0])
        assert trellis.n == 0
        assert np.flatnonzero(~trellis.kept).tolist() == [0, 1, 2, 3, 4, 5]

    def test_zero_column_survives_silent_tests(self):
        mat = TestMatrix(np.array([[1, 0]], dtype=np.uint8))
        trellis = build_reduced(mat, [0])
        assert np.flatnonzero(trellis.kept).tolist() == [1]
        assert trellis.n == 1 and trellis.m == 0

    def test_unsatisfiable_fired_test_rejected(self):
        mat = TestMatrix(np.array([[1, 1], [1, 0]], dtype=np.uint8))
        # t = (0, 1): test 0 silent clears both elements, test 1 cannot fire
        with pytest.raises(NotASyndromeError):
            build_reduced(mat, [0, 1])


class TestRecord:
    def test_outcome_and_kept_are_read_only(self, toy_matrix):
        t = T_101.copy()
        complete = build_complete(toy_matrix)
        assert complete.outcome is None
        assert complete.kept.dtype == bool and complete.kept.tolist() == [True] * 6
        pruned = [expurgate(toy_matrix, t), build_reduced(toy_matrix, t)]
        for trellis in [complete, *pruned]:
            with pytest.raises(ValueError, match="read-only"):
                trellis.kept[0] = not trellis.kept[0]
        for trellis in pruned:
            assert trellis.outcome.dtype == np.uint8
            with pytest.raises(ValueError, match="read-only"):
                trellis.outcome[1] = 1
        assert t.flags.writeable  # the caller's outcome is copied, not frozen

    def test_complete_state_and_edge_arrays_are_read_only(self, toy_matrix):
        # the engine caches a complete trellis's forward pass on these arrays
        for matrix in (toy_matrix, bernoulli_matrix(12, 48, 0.15, 0)):
            trellis = build_complete(matrix)
            arrays = [*trellis.states, *(arr for sec in trellis.sections for arr in sec)]
            assert not any(arr.flags.writeable for arr in arrays)
            for arr in (trellis.states[-1], *trellis.sections[-1]):
                if arr.size:
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0] = arr[0]

    def test_column_masks_are_read_only_and_shared(self, toy_matrix):
        t = T_101
        complete, expurgated = build_complete(toy_matrix), expurgate(toy_matrix, t)
        assert complete.column_masks is expurgated.column_masks is toy_matrix.column_masks
        for trellis in (complete, expurgated, build_reduced(toy_matrix, t)):
            with pytest.raises(ValueError, match="read-only"):
                trellis.column_masks[0] = 0


@st.composite
def small_matrices(draw, max_m=4, max_n=7):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=m, max_size=m))
    return np.array(rows, dtype=np.uint8)


class TestPrunedRandom:
    @given(small_matrices())
    @settings(deadline=None)
    def test_paths_are_the_compatible_vectors(self, entries):
        matrix = TestMatrix(entries)
        for t in all_vectors(matrix.m):
            want = compatible_vectors(entries, t)
            if not want:
                with pytest.raises(NotASyndromeError):
                    expurgate(matrix, t)
                with pytest.raises(NotASyndromeError):
                    build_reduced(matrix, t)
                continue
            want = np.array(want)
            paths = enumerate_paths(expurgate(matrix, t))
            assert sorted(map(tuple, paths)) == sorted(map(tuple, want))
            reduced = build_reduced(matrix, t)
            kept = np.flatnonzero(reduced.kept)
            paths = enumerate_paths(reduced)
            assert sorted(map(tuple, paths)) == sorted(map(tuple, want[:, kept]))
            assert not want[:, np.flatnonzero(~reduced.kept)].any()


class TestPrunedLabels:
    @given(small_matrices())
    @settings(deadline=None)
    def test_one_labels_are_all_or_none(self, entries):
        # a kept state's 1-edge survives iff the element's column lies inside
        # the final state, whatever the state
        matrix = TestMatrix(entries)
        for t in all_vectors(matrix.m):
            if not compatible_vectors(entries, t):
                continue
            for trellis in (expurgate(matrix, t), build_reduced(matrix, t)):
                final = int(trellis.states[-1][0])
                for ell, sec in enumerate(trellis.sections):
                    inside = trellis.column_masks[ell] & ~final == 0
                    assert sec.one_src.size == (trellis.states[ell].size if inside else 0)


class TestExpurgateFromMatrix:
    def test_guard_on_test_count(self):
        # 29 tests: the position table alone is 4 GiB, over the 2 GiB budget
        matrix = TestMatrix(np.eye(29, dtype=np.uint8))
        with pytest.raises(SizeLimitError, match="^29 tests need 2\\*\\*29-entry construction"):
            expurgate(matrix, np.zeros(matrix.m, dtype=np.uint8))


def _prefix_syndromes(entries, xs):
    """Packed partial syndromes of every row of `xs`, as a (rows, n + 1) array."""
    m, n = entries.shape
    prefix = np.zeros((len(xs), n + 1), dtype=np.int64)
    for ell in range(n):
        mask = sum(int(entries[i, ell]) << i for i in range(m))
        prefix[:, ell + 1] = prefix[:, ell] | np.where(xs[:, ell] == 1, mask, 0)
    return prefix


def _searchsorted_sections(trellis):
    """Every section's four edge arrays, looked up by binary search in the states."""
    sections = []
    for ell, mask in enumerate(trellis.column_masks):
        left, right = trellis.states[ell], trellis.states[ell + 1]
        arrays = []
        for targets in (left, left | mask):
            pos = np.searchsorted(right, targets)
            src = np.flatnonzero(right.take(pos, mode="clip") == targets)
            arrays += [src, pos[src]]
        sections.append(arrays)
    return sections


def _assert_construction(trellis, prefix):
    """Depth l holds the distinct values of `prefix[:, l]`; edges match binary search."""
    for ell, states in enumerate(trellis.states):
        assert states.dtype == np.int64
        assert (np.diff(states) > 0).all()
        assert np.array_equal(states, np.unique(prefix[:, ell]))
    for sec, want in zip(trellis.sections, _searchsorted_sections(trellis)):
        got = [sec.zero_src, sec.zero_dst, sec.one_src, sec.one_dst]
        for array, expected in zip(got, want):
            assert array.dtype == np.int64
            assert np.array_equal(array, expected)


class TestConstructionRandom:
    """Bitmap-built states and edges against brute force over every vector."""

    @given(small_matrices(max_m=10, max_n=10))
    @settings(deadline=None, max_examples=60)
    def test_states_and_edges_of_every_flavour(self, entries):
        matrix = TestMatrix(entries)
        m, n = entries.shape
        xs = np.array(all_vectors(n))
        prefix = _prefix_syndromes(entries, xs)
        complete = build_complete(matrix)
        _assert_construction(complete, prefix)
        for target in range(1 << m):
            t = np.array([(target >> i) & 1 for i in range(m)], dtype=np.uint8)
            compatible = prefix[:, n] == target
            if not compatible.any():
                with pytest.raises(NotASyndromeError):
                    expurgate(matrix, t)
                with pytest.raises(NotASyndromeError):
                    build_reduced(matrix, t)
                continue
            _assert_construction(expurgate(matrix, t), prefix[compatible])
            reduced = build_reduced(matrix, t)
            fired, kept = np.flatnonzero(reduced.outcome), np.flatnonzero(reduced.kept)
            sub = entries[np.ix_(fired, kept)]
            _assert_construction(reduced, _prefix_syndromes(sub, xs[compatible][:, kept]))


def _snapshot(trellis):
    """Everything a build returns: states, edge arrays with dtypes, `is` pattern, dump."""
    arrays = [(a.dtype.str, a.tolist()) for a in trellis.states]
    identity = []
    for sec in trellis.sections:
        edges = (sec.zero_src, sec.zero_dst, sec.one_src, sec.one_dst)
        arrays += [(a.dtype.str, a.tolist()) for a in edges]
        identity.append([a is b for a in edges for b in edges])
    return arrays, identity, trellis.dump()


def _shrinks_then_grows(counts):
    steps = np.diff(counts)
    down = np.flatnonzero(steps < 0)
    return down.size > 0 and bool((steps[down[0]:] > 0).any())


class TestUninitialisedTable:
    """The 2**m position table is never initialised: whatever it holds, builds match."""

    @pytest.mark.parametrize("fill", [0, 1, -1, 1 << 62, 5])
    def test_table_contents_do_not_reach_the_trellis(self, fill, monkeypatch):
        rng = np.random.Generator(np.random.Philox(key=97))
        builds = []
        for _ in range(40):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 16))
            matrix = TestMatrix((rng.random((m, n)) < rng.random()).astype(np.uint8))
            t = compute_syndrome(matrix, (rng.random(n) < 0.3).astype(np.uint8))
            builds += [
                lambda matrix=matrix: build_complete(matrix),
                lambda matrix=matrix, t=t: expurgate(matrix, t),
                lambda matrix=matrix, t=t: build_reduced(matrix, t),
            ]
        plain = [build() for build in builds]
        # some pruned widths shrink and then grow again, so the table holds
        # positions of dropped states when later candidates are looked up
        assert any(_shrinks_then_grows(t.state_counts) for t in plain if t.outcome is not None)
        empty = np.empty

        def filled(shape, dtype=float, *args, **kwargs):
            if np.dtype(dtype) != np.int64:
                return empty(shape, dtype, *args, **kwargs)
            return np.full(shape, fill, dtype)

        monkeypatch.setattr(np, "empty", filled)
        for build, want in zip(builds, plain):
            assert _snapshot(build()) == _snapshot(want)


class TestGuards:
    def test_complete_guard_on_test_count(self):
        # 25 tests: their 256 MiB position table fits the budget
        assert build_complete(TestMatrix(np.ones((25, 3), dtype=np.uint8))).state_counts == [
            1, 2, 2, 2,
        ]
        with pytest.raises(SizeLimitError, match="construction tables"):
            build_complete(TestMatrix(np.eye(29, dtype=np.uint8)))

    def test_reduced_guard_counts_fired_tests_only(self):
        matrix = TestMatrix(np.eye(30, dtype=np.uint8))
        t = np.zeros(matrix.m, dtype=np.uint8)
        t[:2] = 1
        assert build_reduced(matrix, t).m == 2
        t[:29] = 1
        with pytest.raises(SizeLimitError, match="^29 tests need 2\\*\\*29-entry construction"):
            build_reduced(matrix, t)

    @pytest.mark.parametrize("flavour", ["complete", "expurgated", "reduced"])
    def test_one_guard_counts_packed_tests_before_any_table(self, flavour, monkeypatch):
        # a 1 MiB budget: 17 packed tests' table fills it exactly, so the
        # root's 32 B pass it; a guard that came after that table would show
        # in the peak
        budget = trellis_module._TABLE_BYTES << 17
        monkeypatch.setattr(trellis_module, "MAX_TRELLIS_BYTES", budget)
        matrix = TestMatrix(np.eye(20, dtype=np.uint8))
        t = np.zeros(matrix.m, dtype=np.uint8)
        t[:17] = 1
        build, packed = {
            "complete": (lambda: build_complete(matrix), 20),
            "expurgated": (lambda: expurgate(matrix, t), 20),
            "reduced": (lambda: build_reduced(matrix, t), 17),
        }[flavour]
        charged = (trellis_module._TABLE_BYTES << packed) + trellis_module._STATE_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(
                SizeLimitError,
                match=f"^{packed} tests need 2\\*\\*{packed}-entry construction tables of "
                f"{charged} bytes; the trellis budget is {budget} bytes$",
            ):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10

    def test_table_and_root_are_charged_before_any_allocation(self):
        # at the default budget, 28 tests' 2 GiB table fits only without the root's 32 B
        matrix = TestMatrix(np.eye(28, dtype=np.uint8))
        tracemalloc.start()
        try:
            with pytest.raises(
                SizeLimitError,
                match="^28 tests need 2\\*\\*28-entry construction tables of 2147483680 bytes",
            ):
                build_complete(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10

    def test_twenty_five_tests_match_the_oracle(self):
        # 25 tests: each build's position table is 256 MiB
        matrix = bernoulli_matrix(25, 12, 0.15, 2)
        x = np.zeros(matrix.n, dtype=np.uint8)
        x[[0, 3, 6, 10]] = 1  # 17 tests fire; 5 elements stay uncertain without noise
        t = compute_syndrome(matrix, x)
        prior = Prior(0.1)
        complete = build_complete(matrix)
        cases = [
            (complete, Bsc(0.05)),
            (complete, Noiseless()),
            (expurgate(matrix, t), Noiseless()),
            (build_reduced(matrix, t), Noiseless()),
        ]
        for trellis, noise in cases:
            want = enumerate_posteriors(matrix, t, prior, noise).lapp
            got = run(trellis, prior, noise, t).lapp
            assert np.array_equal(np.isinf(got), np.isinf(want))
            assert np.array_equal(got[np.isinf(got)], want[np.isinf(want)])
            finite = ~np.isinf(want)
            assert finite.any()
            assert np.allclose(got[finite], want[finite], rtol=1e-9, atol=0)

    def test_construction_tables_are_checked_up_front(self, monkeypatch):
        # 18 tests need 8 B x 2**18 of table, more than a 1 MiB budget
        monkeypatch.setattr(trellis_module, "MAX_TRELLIS_BYTES", 1 << 20)
        with pytest.raises(SizeLimitError, match="construction tables"):
            build_complete(TestMatrix(np.eye(18, dtype=np.uint8)))

    def test_budget_is_checked_before_edges_exist(self, monkeypatch):
        budget = 4 << 20
        monkeypatch.setattr(trellis_module, "MAX_TRELLIS_BYTES", budget)
        matrix = bernoulli_matrix(16, 64, 0.1, 0)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="budget"):
                build_complete(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget

    def test_reduced_build_charges_only_kept_states(self, monkeypatch):
        matrix = bernoulli_matrix(20, 100, 0.08, 0)
        x = np.zeros(matrix.n, dtype=np.uint8)
        x[[18, 31, 37, 39, 72, 75, 80, 92]] = 1
        t = compute_syndrome(matrix, x)
        fired = np.flatnonzero(t)
        kept = matrix.entries[t == 0].sum(axis=0) == 0
        sub = matrix.entries[np.ix_(fired, kept)]
        masks = [sum(int(bit) << i for i, bit in enumerate(column)) for column in sub.T]
        # brute force: states reachable from the root, then those that reach the final state
        grown = [{0}]
        for mask in masks:
            grown.append(grown[-1] | {s | mask for s in grown[-1]})
        live = [{(1 << fired.size) - 1}]
        for depth in range(len(masks) - 1, -1, -1):
            live.insert(0, {s for s in grown[depth] if {s, s | masks[depth]} & live[0]})
        tables = trellis_module._TABLE_BYTES << fired.size
        charge_kept = tables + trellis_module._STATE_BYTES * sum(map(len, live))
        charge_grown = tables + trellis_module._STATE_BYTES * sum(map(len, grown))
        assert 2 * charge_kept < charge_grown  # 336 kB against 1.2 MB
        monkeypatch.setattr(trellis_module, "MAX_TRELLIS_BYTES", (charge_kept + charge_grown) // 2)
        reduced = build_reduced(matrix, t)
        assert [s.tolist() for s in reduced.states] == [sorted(s) for s in live]

    def test_state_charge_covers_the_arrays_kept(self):
        def build_and_forward():
            trellis = build_complete(bernoulli_matrix(16, 64, 0.1, 0))
            _forward(trellis, Prior(0.05))  # the alpha cache lives with the trellis
            return trellis

        trellis, kept = _bytes_kept(build_and_forward)
        assert kept <= trellis_module._STATE_BYTES * sum(trellis.state_counts)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="ru_maxrss is in KiB and the heap reuse is glibc's on Linux only",
    )
    def test_repeated_builds_keep_peak_rss_flat(self):
        # glibc hands a freed block of the 2**24-entry position table's size
        # back to the next build once its mmap threshold has risen past it; a
        # table zero-filled in full there would raise peak RSS build by build,
        # but np.empty never fills it, so only the pages where states land
        # are touched
        script = (
            "import resource\n"
            "from grouptrellis import bernoulli_matrix, build_complete\n"
            "matrix = bernoulli_matrix(24, 12, 0.08, 0)\n"
            "for _ in range(4):\n"
            "    build_complete(matrix)\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = str(Path(trellis_module.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0, proc.stderr
        peaks_kb = [int(line) for line in proc.stdout.split()]
        assert len(peaks_kb) == 4
        assert peaks_kb[3] - peaks_kb[0] < 5 * 1024, peaks_kb

    def test_enumerate_paths_guard(self, toy_matrix, monkeypatch):
        complete = build_complete(toy_matrix)
        assert trellis_module.MAX_PATHS == 1 << 20
        monkeypatch.setattr(trellis_module, "MAX_PATHS", 10)
        with pytest.raises(SizeLimitError):
            enumerate_paths(complete)
        monkeypatch.setattr(trellis_module, "MAX_PATHS", 64)
        assert enumerate_paths(complete).shape == (64, 6)
        monkeypatch.setattr(trellis_module, "MAX_PATHS", 63)
        with pytest.raises(SizeLimitError):
            enumerate_paths(complete)


class TestDump:
    def test_line_format_and_order(self, toy_matrix):
        trellis = expurgate(toy_matrix, T_101)
        lines = trellis.dump().splitlines()
        assert all(re.fullmatch(r"\d+ \d+ \d+ [01]", line) for line in lines)
        keys = []
        for line in lines:
            depth, src, dst, label = map(int, line.split())
            keys.append((depth, src, label, dst))
        assert keys == sorted(keys)

    def test_edges_match_compatible_vector_walks(self, toy_matrix):
        # independent route: the union of edges used by compatible vectors
        trellis = expurgate(toy_matrix, T_101)
        want = _edge_set_from_vectors(
            toy_matrix.entries, compatible_vectors(toy_matrix.entries, T_101)
        )
        got = set()
        for line in trellis.dump().splitlines():
            depth, src, dst, label = map(int, line.split())
            got.add((depth, src, dst, label))
        assert got == want
