import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptrellis import (
    Bsc,
    Noiseless,
    OperatingPoint,
    Prior,
    TestMatrix,
    ThresholdRule,
    bernoulli_matrix,
    build_complete,
    decide,
    default_threshold_grid,
    run,
    sweep_roc,
)
from grouptrellis import montecarlo
from grouptrellis.model import _pack_rows, _unpack_rows
from grouptrellis.montecarlo import CHUNK_TRIALS

PAIR = TestMatrix(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8))
PRIOR = Prior(0.2)

# The elements in no test (columns 1 3 4 14 22 27 29 31) get a lapp within a
# few ulps of the prior log-ratio, and which ulps depends on the engine batch;
# the centre of default_threshold_grid(Prior(0.02)) lies 2 ulps above it.
TIE_DESIGN = bernoulli_matrix(12, 48, 0.15, 0)
TIE_PRIOR = Prior(0.02)


def _draw_chunk(matrix, prior, noise, seed, chunk_index, count):
    """Defectivity rows and outcome rows of one chunk, by the documented seeding."""
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(chunk_index * montecarlo._SEED_STRIDE)
    rng = np.random.Generator(bitgen)
    x = rng.random((count, matrix.n)) < prior.delta
    syndromes = (x.astype(np.int32) @ matrix.entries.T.astype(np.int32)) > 0
    if isinstance(noise, Bsc):
        return x, syndromes ^ (rng.random((count, matrix.m)) < noise.epsilon)
    return x, syndromes


def _replay_counts(matrix, prior, noise, thresholds, tie_defective, trials, seed):
    """Recount events per trial with plain run() + decide(); trials must fit in
    one chunk so the documented per-chunk seeding reduces to Philox(seed)."""
    assert trials <= CHUNK_TRIALS
    x, outcomes = _draw_chunk(matrix, prior, noise, seed, 0, trials)
    trellis = build_complete(matrix)
    fa_events = np.zeros(len(thresholds), dtype=np.int64)
    md_events = np.zeros(len(thresholds), dtype=np.int64)
    for trial in range(trials):
        lapp = run(trellis, prior, noise, outcomes[trial].astype(np.uint8)).lapp
        for k, lam in enumerate(thresholds):
            flags = decide(lapp, ThresholdRule(lam, tie_defective=tie_defective))
            fa_events[k] += int(np.sum((flags == 1) & ~x[trial]))
            md_events[k] += int(np.sum((flags == 0) & x[trial]))
    return fa_events, md_events, int((~x).sum()), int(x.sum())


class TestCountingAgainstPerTrialDecisions:
    @pytest.mark.parametrize("noise", [Noiseless(), Bsc(0.1)])
    @pytest.mark.parametrize("tie_defective", [True, False])
    def test_sweep_matches_replay(self, noise, tie_defective):
        thresholds = [-math.inf, -0.5, 0.0, 1.4, math.inf]
        curve = sweep_roc(
            PAIR, PRIOR, noise, thresholds, trials=400, seed=9, tie_defective=tie_defective
        )
        fa, md, fa_trials, md_trials = _replay_counts(
            PAIR, PRIOR, noise, thresholds, tie_defective, 400, 9
        )
        assert [p.fa_events for p in curve.points] == fa.tolist()
        assert [p.md_events for p in curve.points] == md.tolist()
        assert all(p.fa_trials == fa_trials for p in curve.points)
        assert all(p.md_trials == md_trials for p in curve.points)

    def test_threshold_exactly_on_a_lapp_value_respects_ties(self):
        # place a threshold on an achievable finite lapp value and check both policies
        lapp = run(build_complete(PAIR), PRIOR, Noiseless(), [1, 1]).lapp
        lam = float(lapp[0])
        assert math.isfinite(lam)
        for tie in (True, False):
            curve = sweep_roc(PAIR, PRIOR, Noiseless(), [lam], trials=300, seed=2, tie_defective=tie)
            fa, md, _, _ = _replay_counts(PAIR, PRIOR, Noiseless(), [lam], tie, 300, 2)
            assert curve.points[0].fa_events == fa[0]
            assert curve.points[0].md_events == md[0]


@st.composite
def lapp_tables(draw):
    """(thresholds, lapp table, truth): sorted distinct thresholds, some
    infinite, and lapp values planted on them, one ulp beside them, infinite
    or anywhere."""
    finite = st.floats(-20.0, 20.0, allow_nan=False)
    grid = draw(st.lists(st.one_of(finite, st.sampled_from([-math.inf, math.inf])),
                         min_size=1, max_size=8, unique=True))
    lam = np.sort(np.array(grid))
    trials, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    beside = [*np.nextafter(lam, -math.inf), *np.nextafter(lam, math.inf)]
    value = st.one_of(st.sampled_from([*grid, *beside, -math.inf, math.inf]), finite)
    lapp = np.array(draw(st.lists(value, min_size=trials * n, max_size=trials * n)))
    truth = draw(st.sampled_from(["clear", "defective", "mixed"]))
    if truth == "mixed":
        x = np.array(draw(st.lists(st.booleans(), min_size=trials * n, max_size=trials * n)))
    else:
        x = np.full(trials * n, truth == "defective")
    return lam, lapp.reshape(trials, n), x.reshape(trials, n)


class TestThresholdIndexCounting:
    """Counts from the first-flagging-threshold index equal per-threshold decide()."""

    @given(lapp_tables(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_counts_match_decide(self, case, tie_defective):
        lam, lapp, x = case
        index = montecarlo._threshold_index(lapp, lam, tie_defective)
        index = index.astype(np.min_scalar_type(2 * lam.size + 1))  # as sweep_roc stores it
        hist = montecarlo._count_events(index, x, lam.size)
        assert hist.shape == (2, lam.size + 1) and hist.dtype == np.int64
        # a sweep reads its counts off the chunks' summed histogram: split the
        # trials into two chunks to check the sum too
        half = lapp.shape[0] // 2
        parts = [montecarlo._count_events(index[s], x[s], lam.size)
                 for s in (slice(None, half), slice(half, None))]
        assert np.array_equal(parts[0] + parts[1], hist)
        points = montecarlo._operating_points(hist, lam, tie_defective)
        assert [pt.threshold for pt in points] == lam.tolist()
        for pt in points:
            flags = decide(lapp, ThresholdRule(pt.threshold, tie_defective)) == 1
            assert pt.tie_defective == tie_defective
            assert pt.fa_events == np.sum(flags & ~x)
            assert pt.md_events == np.sum(~flags & x)
            assert (pt.fa_trials, pt.md_trials) == (np.sum(~x), np.sum(x))

    def test_index_of_values_on_and_beside_thresholds(self):
        lam = np.array([-math.inf, -1.0, 0.0, 2.0, math.inf])
        lapp = np.array([-math.inf, -1.0, -0.5, 0.0, 2.0, 3.0, math.inf, math.nan])
        on_ties = montecarlo._threshold_index(lapp, lam, True)
        strict = montecarlo._threshold_index(lapp, lam, False)
        # -inf is flagged at every threshold but -inf, a value on a finite
        # threshold there only under the tie rule, +inf and NaN nowhere
        assert on_ties.tolist() == [1, 1, 2, 2, 3, 4, 5, 5]
        assert strict.tolist() == [1, 2, 2, 3, 4, 4, 5, 5]


@pytest.mark.parametrize("chunk_index", [0, 5])
@pytest.mark.parametrize("trials", [1, CHUNK_TRIALS])
@pytest.mark.parametrize("noise", [Noiseless(), Bsc(0.0), Bsc(0.1)], ids=montecarlo.noise_label)
@pytest.mark.parametrize("delta", [0.02, 0.5])
@pytest.mark.parametrize("m", [1, 12, 24])
def test_packed_sampling_matches_the_drawn_rows(m, delta, noise, trials, chunk_index):
    """_sample_chunk packs through the column masks what _draw_chunk draws as rows."""
    entries = (np.random.Generator(np.random.Philox(key=m)).random((m, 48)) < 0.15)
    entries[:, [1, 3, 4]] = 0  # elements in no test
    matrix = TestMatrix(entries.astype(np.uint8))
    prior = Prior(delta)
    x, packed = montecarlo._sample_chunk(matrix, prior, noise, 7, chunk_index, trials)
    want_x, outcomes = _draw_chunk(matrix, prior, noise, 7, chunk_index, trials)
    assert np.array_equal(x, want_x)
    assert packed.dtype == np.int64
    assert np.array_equal(packed, _pack_rows(outcomes, m))
    assert np.array_equal(_unpack_rows(packed, m), outcomes.astype(np.uint8))


class TestDeterminism:
    def test_same_seed_same_counts(self):
        a = sweep_roc(PAIR, PRIOR, Bsc(0.05), [1.0], 3000, seed=5).points[0]
        b = sweep_roc(PAIR, PRIOR, Bsc(0.05), [1.0], 3000, seed=5).points[0]
        assert a == b

    def test_worker_count_does_not_change_results(self):
        inputs = [
            (PAIR, PRIOR, [-math.inf, 0.0, math.inf], 20000, 13),
            # 7 chunks; a batch given to the wrong chunk moves md_events at the centre
            (TIE_DESIGN, TIE_PRIOR, default_threshold_grid(TIE_PRIOR), 50000, 0),
        ]
        for matrix, prior, grid, trials, seed in inputs:
            runs = [
                sweep_roc(matrix, prior, Bsc(0.05), grid, trials, seed, workers=workers).to_csv()
                for workers in (1, 2, 2, 2, 3)
            ]
            assert runs[1:] == runs[:1] * 4

    def test_threads_are_capped_at_the_cpu_count(self, monkeypatch):
        pool_sizes = []

        class RecordingPool(montecarlo.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        trials = 2 * CHUNK_TRIALS + 1
        args = (PAIR, PRIOR, Bsc(0.05), [-math.inf, 0.0, math.inf], trials, 3)
        wide = sweep_roc(*args, workers=64).to_csv()
        assert pool_sizes == [2]
        assert wide == sweep_roc(*args, workers=1).to_csv()

    def test_engine_batches_are_the_outcomes_each_chunk_draws_first(self, monkeypatch):
        noise = Bsc(0.05)
        trials = 3 * CHUNK_TRIALS + 1000
        expected, seen = [], set()
        for index, start in enumerate(range(0, trials, CHUNK_TRIALS)):
            count = min(CHUNK_TRIALS, trials - start)
            _, outcomes = _draw_chunk(TIE_DESIGN, TIE_PRIOR, noise, 0, index, count)
            keys = outcomes.astype(np.int64) @ (1 << np.arange(TIE_DESIGN.m))
            fresh = sorted(set(keys.tolist()) - seen)
            seen.update(fresh)
            if fresh:
                first = [int(np.flatnonzero(keys == key)[0]) for key in fresh]
                expected.append(outcomes[first].astype(np.uint8))
        batches = []
        real = montecarlo.posterior_table

        def recording(trellis, prior, noise, outcomes):
            batches.append(np.array(outcomes))
            return real(trellis, prior, noise, outcomes)

        monkeypatch.setattr(montecarlo, "posterior_table", recording)
        sweep_roc(TIE_DESIGN, TIE_PRIOR, noise, [0.0], trials, seed=0, workers=1)
        serial = batches[:]
        batches.clear()
        sweep_roc(TIE_DESIGN, TIE_PRIOR, noise, [0.0], trials, seed=0, workers=3)
        assert len(serial) == len(expected) == 4
        for got, want in zip(serial, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # threads may enter the engine in any order; the batches must not change
        assert sorted(b.tobytes() for b in batches) == sorted(b.tobytes() for b in serial)

    def test_bsc_zero_equals_noiseless_estimates(self):
        grid = [-math.inf, 0.5, math.inf]
        a = sweep_roc(PAIR, PRIOR, Bsc(0.0), grid, trials=5000, seed=21)
        b = sweep_roc(PAIR, PRIOR, Noiseless(), grid, trials=5000, seed=21)
        for pa, pb in zip(a.points, b.points):
            assert pa == pb


class TestRocCurveShape:
    def test_rates_are_monotone_in_the_threshold(self):
        curve = sweep_roc(PAIR, PRIOR, Bsc(0.1), default_threshold_grid(PRIOR), 8000, seed=1)
        p_fa = [p.p_fa for p in curve.points]
        p_md = [p.p_md for p in curve.points]
        assert all(a <= b + 1e-15 for a, b in zip(p_fa, p_fa[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(p_md, p_md[1:]))

    def test_endpoints(self):
        curve = sweep_roc(PAIR, PRIOR, Bsc(0.1), default_threshold_grid(PRIOR), 4000, seed=1)
        first, last = curve.points[0], curve.points[-1]
        assert (first.p_fa, first.p_md) == (0.0, 1.0)
        assert (last.p_fa, last.p_md) == (1.0, 0.0)  # no infinite lapp under noise

    def test_trial_accounting_off_chunk_boundary(self):
        trials = CHUNK_TRIALS + 1808
        point = sweep_roc(PAIR, PRIOR, Noiseless(), [0.0], trials, seed=0).points[0]
        assert point.fa_trials + point.md_trials == trials * PAIR.n


class TestCsv:
    def test_frozen_golden_output(self):
        curve = sweep_roc(
            PAIR, PRIOR, Bsc(0.1), [-math.inf, 1.0, math.inf],
            trials=500, seed=42, matrix_label="pair-3",
        )
        assert curve.to_csv() == (
            "# matrix: pair-3\n"
            "# delta: 0.2\n"
            "# noise: bsc 0.1\n"
            "# trials: 500\n"
            "# seed: 42\n"
            "lambda,p_fa,p_md,fa_events,fa_trials,md_events,md_trials\n"
            "-inf,0.0,1.0,0,1192,308,308\n"
            "1.0,0.2197986577181208,0.13636363636363635,262,1192,42,308\n"
            "inf,1.0,0.0,1192,1192,0,308\n"
        )

    def test_write_csv(self, tmp_path):
        curve = sweep_roc(PAIR, PRIOR, Noiseless(), [0.0], trials=200, seed=0)
        path = tmp_path / "roc.csv"
        curve.write_csv(path)
        assert path.read_text() == curve.to_csv()


class TestGridAndInterpolation:
    def test_default_grid_endpoints_and_symmetry(self):
        grid = default_threshold_grid(PRIOR)
        assert grid.size == 61
        assert math.isinf(grid[0]) and grid[0] < 0
        assert math.isinf(grid[-1]) and grid[-1] > 0
        shift = math.log((1 - PRIOR.delta) / PRIOR.delta)
        finite = grid[1:-1] - shift
        assert np.allclose(finite + finite[::-1], 0.0, atol=1e-12)

    def test_halfwidth_formula(self):
        point = OperatingPoint(0.0, True, fa_events=5000, fa_trials=10000, md_events=0, md_trials=0)
        assert point.p_fa_halfwidth == pytest.approx(1.96 * math.sqrt(0.25 / 10000))
        assert math.isnan(point.p_md) and math.isnan(point.p_md_halfwidth)


class TestValidation:
    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            sweep_roc(PAIR, PRIOR, Noiseless(), [0.0], 0, seed=0)

    def test_custom_noise_cannot_be_sampled(self):
        with pytest.raises(ValueError, match="noiseless or BSC"):
            sweep_roc(PAIR, PRIOR, object(), [0.0], 100, seed=0)

    def test_empty_threshold_grid_rejected(self):
        with pytest.raises(ValueError, match="threshold grid must not be empty"):
            sweep_roc(PAIR, PRIOR, Noiseless(), [], trials=100, seed=0)

    def test_duplicate_thresholds_rejected(self):
        with pytest.raises(ValueError):
            sweep_roc(PAIR, PRIOR, Noiseless(), [0.0, 0.0], trials=100, seed=0)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError):
            sweep_roc(PAIR, PRIOR, Noiseless(), [math.nan], trials=100, seed=0)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            sweep_roc(PAIR, PRIOR, Noiseless(), [0.0], trials=100, seed=0, workers=0)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ({"trials": 1000.0}, "trial count must be an integer, got 1000.0"),
            ({"trials": True}, "trial count must be an integer, got True"),
            ({"workers": 2.0}, "worker count must be an integer, got 2.0"),
            ({"workers": True}, "worker count must be an integer, got True"),
        ],
        ids=["float-trials", "bool-trials", "float-workers", "bool-workers"],
    )
    def test_non_integer_counts_rejected(self, counts, message):
        kwargs = {"trials": 100, "workers": 1} | counts
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep_roc(PAIR, PRIOR, Noiseless(), [0.0], seed=0, **kwargs)

    def test_numpy_integer_counts_run_as_ints(self):
        curve = sweep_roc(PAIR, PRIOR, Noiseless(), [0.0], np.int64(100), seed=0,
                          workers=np.int64(2))
        assert type(curve.trials) is int and curve.trials == 100
        want = sweep_roc(PAIR, PRIOR, Noiseless(), [0.0], 100, seed=0)
        assert curve.points == want.points

    def test_underflowing_crossover_rejected_before_any_work(self, monkeypatch):
        def unexpected(*args):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(montecarlo, "build_complete", unexpected)
        monkeypatch.setattr(montecarlo, "_sample_chunk", unexpected)
        matrix = bernoulli_matrix(16, 64, 0.1, 0)
        with pytest.raises(ValueError, match=r"crossover probability 1e-100 underflows on 16"):
            sweep_roc(matrix, Prior(0.05), Bsc(1e-100), [0.0], trials=100, seed=0)

    def test_huge_trial_count_lists_no_chunks_up_front(self, monkeypatch):
        # a list of all 1.2e8 chunks of 10**12 trials would take about 10 GB
        def first_chunk(*args):
            raise RuntimeError("first chunk")

        monkeypatch.setattr(montecarlo, "_sample_chunk", first_chunk)
        # a first call runs numpy's lazy imports, which the trace must not count
        with pytest.raises(RuntimeError, match="first chunk"):
            sweep_roc(PAIR, PRIOR, Noiseless(), [0.0], trials=1, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="first chunk"):
                sweep_roc(PAIR, PRIOR, Noiseless(), [0.0], trials=10**12, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
