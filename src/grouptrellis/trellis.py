"""Syndrome trellises for pooled-testing inference.

The trellis unrolls the population element by element.  A state at depth l is
the partial syndrome generated by the first l elements, packed into an integer
(test i contributes bit i).  An edge from depth l to l+1 carries label 0
(element l non-defective, a self-loop on the same partial syndrome) or label 1
(element l defective, ORing the element's pool column into the state).  Every
path from the root to a final state spells one defectivity vector, and the
packed final state is its noiseless outcome.

Three flavours are built here, all as one `Trellis` record:

* complete      - all 2**n defectivity vectors appear as paths;
* expurgated    - only paths whose final state equals one observed noiseless
                  outcome survive;
* reduced       - the expurgated trellis of the sub-problem restricted to the
                  fired tests and the elements not ruled out by silent tests.

The record says which one it is by its data alone: `outcome` is the noiseless
outcome a pruned trellis was built for (None for a complete one), and `kept`
masks the elements it unrolls (all of them unless reduced).

States are stored per depth as sorted arrays of packed syndromes; edges are
stored positionally (indices into the adjacent state arrays), which lets the
inference layer gather and scatter probability mass with pure numpy.  A
label whose edges leave every left state needs no source array of its own:
its sources are a prefix view of one int64 ramp `0, 1, 2, ...` that the
whole trellis shares.  Every flavour is built the same way (`_build`): one
pass over the depths settles each depth's states, which for a pruned
flavour drops each state that can no longer reach the final one, and
straight away derives that section's edges, since a state `s` has a
0-edge to `s` and a 1-edge to `s | mask` wherever that is a state.

Construction costs O(total states) time plus one table of 2**m entries
indexed by packed state, the int64 positions of the newest depth's states;
it is never initialised, so few states touch few of its pages.  Every
flavour charges the table plus the root, then each depth's 32 B per kept
state, against MAX_TRELLIS_BYTES, and raises SizeLimitError at the first
charge past it, before that array exists.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .model import (
    NotASyndromeError,
    SizeLimitError,
    TestMatrix,
    _pack_rows,
    _sorted_unique,
    as_bit_vector,
    bits_to_index,
)

#: Memory a trellis's construction may take; inference is not charged
#: (`run` adds three float64 arrays as wide as the widest depth, and
#: `posterior_table` three such arrays per column of its block).
MAX_TRELLIS_BYTES = 2 << 30


class EdgeSection(NamedTuple):
    """Edges between two adjacent depths, stored positionally.

    zero_src[k] -> zero_dst[k] is the k-th 0-labeled edge, as indices into the
    state arrays left and right of the section; likewise for the 1-labels.
    A tuple of the four arrays in that order, so the engine unpacks a section
    in one step, and `_build` makes one with `tuple.__new__` for a quarter of
    a frozen dataclass's cost.  Its fields cannot be rebound, and it compares
    and hashes by identity, as the frozen dataclass did: arrays have no
    single truth value to compare by.  Internal: the layout the engine reads,
    not one of the package's public names, and an engine that prunes per
    outcome would replace it.
    """

    zero_src: np.ndarray
    zero_dst: np.ndarray
    one_src: np.ndarray
    one_dst: np.ndarray

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


@dataclasses.dataclass(frozen=True, eq=False)
class Trellis:
    """Immutable trellis: per-depth packed states plus positional edge sections.

    `outcome` is None for a complete trellis; a pruned trellis holds the
    full-length noiseless outcome it was pruned for, and its paths end in
    `states[-1][0]`.  `kept` masks the population elements the trellis
    unrolls, one per section; it is all True except in a reduced trellis,
    whose dropped elements sit in silent tests.  These arrays and
    `column_masks`, one packed pool column per section, are read-only, as
    are the state and edge arrays of a record `build_complete` returns, the
    only kind that keeps a forward pass.  A pruned record, or one made by
    `dataclasses.replace`, runs afresh from its `sections`.  Every copy and
    pickle is the rebuild of `m`, `column_masks`, `kept` and `outcome`.
    """

    m: int
    column_masks: np.ndarray
    states: tuple
    sections: tuple
    outcome: np.ndarray | None
    kept: np.ndarray
    #: `[owners, (prevalence, forward pass)]` for a record `build_complete` returned or
    #: rebuilt as a copy, else empty: the writeable owners of its read-only edge views
    #: (numpy's take copies a read-only index on every call) and its latest pass.
    _engine_state: list | tuple = dataclasses.field(default=(), init=False, repr=False)

    def __reduce__(self):
        """Copy or pickle as the trellis its construction inputs build."""
        final = None if self.outcome is None else int(self.states[-1][0])
        return _build, (self.m, self.column_masks, self.kept, self.outcome, final)

    @property
    def n(self):
        """Number of element steps (sections)."""
        return len(self.sections)

    @property
    def state_counts(self):
        return [s.size for s in self.states]

    def dump(self):
        """Stable text listing, one line per edge: `depth src dst label`.

        States are packed; each depth's lines are sorted by (src, label, dst).
        """
        lines = []
        for depth, sec in enumerate(self.sections):
            left, right = self.states[depth], self.states[depth + 1]
            edges = ((0, sec.zero_src, sec.zero_dst), (1, sec.one_src, sec.one_dst))
            rows = np.concatenate(
                [
                    np.stack([left[src], right[dst], np.full(src.size, label, np.int64)], axis=1)
                    for label, src, dst in edges
                ]
            )
            for src, dst, label in rows[np.lexsort((rows[:, 1], rows[:, 2], rows[:, 0]))]:
                lines.append(f"{depth} {src} {dst} {label}")
        return "\n".join(lines) + ("\n" if lines else "")


#: Bytes charged per state by the build budget: the int64 state, the two int64
#: destination arrays and the float64 alpha.  The shared int64 source ramp adds
#: only 8 B per state of the widest depth.
_STATE_BYTES = 32

#: Bytes charged per entry of the 2**m int64 position table.
_TABLE_BYTES = 8


def _build(m, masks, kept, outcome=None, final=None):
    """The trellis of `masks`, pruned to the paths that end in `final` if given.

    One pass over the depths settles each depth's states, then reads that
    section's destinations from a 2**m position table, rewritten only where
    the states change.  With `suf[d]` the OR of the masks from depth d on
    inside `final`, a state `s` at depth d can still reach `final` iff
    `s | suf[d] == final`; one that fails fails for good, as do its
    successors, so it is dropped.  So a kept state's 0-edge survives iff the
    state passes, and all its 1-edges do when the mask lies inside `final`,
    none otherwise.  Such a 1-successor passes too, so it is new iff it is
    not a left state, and only the new ones are sorted and merged in.  The
    table is never initialised: it holds the index in `left` of every left
    state once the states have changed, and anything elsewhere, so reading
    `left` at the clipped index it gives a candidate, then comparing,
    decides membership (the root's one state is read at any index).

    A label whose edges leave every left state takes as sources the
    section's prefix view of one int64 ramp, as long as the widest depth;
    where it also keeps every state in place (the 0-label of a section whose
    states do not change; both labels of an all-zero column) that same view
    object is its destinations too.  The table plus the root, then each
    depth's 32 B per kept state, are charged against MAX_TRELLIS_BYTES, and
    SizeLimitError comes before the array past it exists.  NotASyndromeError,
    naming the outcome bits, means the root cannot reach `final`.  Only a
    complete trellis gets an engine state: its writeable edge arrays, which
    its sections show as read-only views, and a forward-pass entry to fill.
    """
    charged = (_TABLE_BYTES << m) + _STATE_BYTES
    if charged > MAX_TRELLIS_BYTES:
        raise SizeLimitError(
            f"{m} tests need 2**{m}-entry construction tables of {charged} bytes; "
            f"the trellis budget is {MAX_TRELLIS_BYTES} bytes"
        )
    suf = [0] * (len(masks) + 1)
    if final is not None:
        inside = np.where((masks & ~final) == 0, masks, 0)
        suf = np.append(np.bitwise_or.accumulate(inside[::-1])[::-1], 0).tolist()
        if suf[0] != final:
            raise NotASyndromeError(
                f"outcome {''.join(map(str, outcome))} is not a reachable noiseless syndrome"
            )
    pos = np.empty(1 << m, dtype=np.int64)
    ramp = np.arange(1, dtype=np.int64)
    left = np.zeros(1, dtype=np.int64)
    states, labels = [left], []  # None in `labels` stands for the section's ramp view
    for depth, mask in enumerate(masks.tolist(), start=1):
        zero_src, zero_dst, right = None, None, left
        if suf[depth] != suf[depth - 1]:
            hit = ((left | suf[depth]) == final).nonzero()[0]
            if hit.size < left.size:
                zero_src, right = hit, left[hit]
        stay, cand = right, None
        if final is None or not mask & ~final:  # else no 1-successor reaches `final`
            cand = left | mask
            new = cand[left.take(pos[cand], mode="clip") != cand]
            if new.size:
                right = np.concatenate([stay, _sorted_unique(new)])
                right.sort(kind="stable")
        charged += _STATE_BYTES * right.size
        if charged > MAX_TRELLIS_BYTES:
            raise SizeLimitError(
                f"trellis passes its budget of {MAX_TRELLIS_BYTES} bytes at depth {depth} "
                f"of {len(masks)}"
            )
        if right is not left:
            if right.size > ramp.size:
                ramp = np.arange(right.size, dtype=np.int64)
            pos[right] = ramp[: right.size]
            zero_dst = pos[stay]
        if cand is None:
            labels.append((zero_src, zero_dst, np.empty(0, np.int64), np.empty(0, np.int64)))
        else:
            labels.append((zero_src, zero_dst, None, None if mask == 0 else pos[cand]))
        states.append(left := right)
    ramp.setflags(write=False)  # every section views it: a write to one would reach all
    record = tuple.__new__  # EdgeSection(*arrays) would also bind its four parameters
    sections = []
    for left, (zero_src, zero_dst, one_src, one_dst) in zip(states, labels):
        every = ramp[: left.size]
        sections.append(
            record(
                EdgeSection,
                (
                    every if zero_src is None else zero_src,
                    every if zero_dst is None else zero_dst,
                    every if one_src is None else one_src,
                    every if one_dst is None else one_dst,
                ),
            )
        )
    for arr in (masks, outcome, kept, *(states if final is None else ())):
        if arr is not None:
            arr.setflags(write=False)
    trellis = Trellis(m, masks, tuple(states), tuple(sections), outcome, kept)
    if final is None:  # the engine caches a complete trellis's forward pass
        views = tuple(EdgeSection._make(map(_read_only_view, sec)) for sec in sections)
        object.__setattr__(trellis, "_engine_state", [trellis.sections, (None, None)])
        object.__setattr__(trellis, "sections", views)
    return trellis


def _read_only_view(arr):
    """A read-only view of `arr`, or `arr` itself when it is read-only (a ramp view)."""
    if arr.flags.writeable:
        arr = arr.view()
        arr.setflags(write=False)
    return arr


def build_complete(matrix: TestMatrix) -> Trellis:
    """Build the complete trellis of a test matrix.

    Only syndromes actually reachable are materialised, at most 2**m per
    depth and for structured matrices far fewer.  The 2**m position table
    plus the root, then each depth's states, are charged against
    MAX_TRELLIS_BYTES; SizeLimitError comes at the first charge past it.
    """
    return _build(matrix.m, matrix.column_masks, np.ones(matrix.n, bool))


def expurgate(matrix: TestMatrix, t) -> Trellis:
    """The complete trellis of `matrix` restricted to paths whose outcome equals `t`.

    The complete trellis itself is never built.  The build budget is
    charged as for `build_complete`, over all m tests.  Raises
    NotASyndromeError when `t` is not a reachable noiseless outcome.
    """
    tv = as_bit_vector(t, matrix.m, "outcome vector")
    return _build(matrix.m, matrix.column_masks, np.ones(matrix.n, bool), tv, bits_to_index(tv))


def build_reduced(matrix: TestMatrix, t) -> Trellis:
    """Build the reduced trellis for outcome `t`: fired tests, undetermined elements.

    Silent tests force every element in their pools to be non-defective; those
    elements and the silent rows are dropped before building.  The remaining
    sub-trellis is expurgated towards the all-ones outcome over the fired
    tests, so the build budget charges a table over the fired tests only.
    """
    tv = as_bit_vector(t, matrix.m, "outcome vector")
    fired = tv.view(bool)  # 0/1 bytes
    m0 = np.count_nonzero(fired)
    kept = ~matrix.entries[~fired].any(axis=0)
    masks = _pack_rows(matrix.entries[fired][:, kept].T, m0)
    return _build(m0, masks, kept, tv, (1 << m0) - 1)


#: Largest number of paths `enumerate_paths` lists.
MAX_PATHS = 1 << 20


def enumerate_paths(trellis: Trellis) -> np.ndarray:
    """List every root-to-final path as a row of edge labels.

    Returns a (paths, n) uint8 array in lexicographic (depth-first) order.
    The walk is breadth-first: each depth replaces every partial path by its
    0-child and then its 1-child, which keeps the rows sorted.  Every state
    has an edge onward, so the partial count never falls, and SizeLimitError
    is raised at the first depth where it passes MAX_PATHS, before that
    depth's rows exist.  The label rows take at most 2 x MAX_PATHS x n
    bytes, plus a few int64 per path.  For reduced trellises the columns
    correspond to `flatnonzero(trellis.kept)`.
    """
    labels = np.zeros((1, 0), dtype=np.uint8)
    at = np.zeros(1, dtype=np.int64)  # position of each partial path's last state
    for ell, sec in enumerate(trellis.sections):
        succ = np.full((trellis.states[ell].size, 2), -1, dtype=np.int64)
        succ[sec.zero_src, 0] = sec.zero_dst
        succ[sec.one_src, 1] = sec.one_dst
        succ = succ[at].ravel()
        child = np.flatnonzero(succ >= 0)
        if child.size > MAX_PATHS:
            raise SizeLimitError(
                f"trellis has more than {MAX_PATHS} paths ({child.size} by depth {ell + 1})"
            )
        rows = np.empty((child.size, ell + 1), dtype=np.uint8)
        labels.take(child >> 1, axis=0, out=rows[:, :ell], mode="clip")
        rows[:, ell] = child & 1
        labels, at = rows, succ[child]
    return labels
