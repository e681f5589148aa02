import math
import tracemalloc

import numpy as np
import pytest

from grouptrellis import (
    Bsc,
    Noiseless,
    Prior,
    SizeLimitError,
    TestMatrix,
    bernoulli_matrix,
    build_complete,
    build_reduced,
    compute_syndrome,
    ebch_64_57_parity_check,
    enumerate_posteriors,
    expurgate,
    hypergraph_incidence,
    run,
)
from helpers import (
    bsc_likelihood,
    compatible_vectors,
    naive_posterior_masses,
    subset_lattice_posteriors,
)

T_101 = np.array([1, 0, 1], dtype=np.uint8)
PRIOR = Prior(0.1)


class TestToyNoiseless:
    def test_compatible_set_is_the_frozen_one(self, toy_matrix):
        got = {tuple(x) for x in compatible_vectors(toy_matrix.entries, T_101)}
        assert got == {
            (1, 0, 0, 0, 0, 0),
            (1, 0, 0, 1, 0, 0),
            (1, 0, 0, 0, 0, 1),
            (0, 0, 0, 1, 0, 1),
            (1, 0, 0, 1, 0, 1),
        }

    def test_posteriors_from_mass_ratios(self, toy_matrix):
        result = enumerate_posteriors(toy_matrix, T_101, PRIOR, Noiseless())
        want = [100 / 109, 0.0, 0.0, 19 / 109, 0.0, 19 / 109]
        assert np.allclose(result.mass1 / result.total_mass, want, rtol=1e-12, atol=0)

    def test_total_mass_constant_and_closed_form(self, toy_matrix):
        result = enumerate_posteriors(toy_matrix, T_101, PRIOR, Noiseless())
        total = result.total_mass
        assert np.allclose(total, total[0], rtol=1e-12)
        d = PRIOR.delta
        want = d * (1 - d) ** 5 + 3 * d**2 * (1 - d) ** 4 + d**3 * (1 - d) ** 3
        assert float(total[0]) == pytest.approx(want, rel=1e-12)

    def test_lapp_infinities_where_mass_vanishes(self, toy_matrix):
        result = enumerate_posteriors(toy_matrix, T_101, PRIOR, Noiseless())
        assert np.isposinf(result.lapp[[1, 2, 4]]).all()


class TestAgainstNaiveEnumeration:
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
    def test_bsc_masses_match_double_loop(self, eps):
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(5):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 8))
            matrix = TestMatrix((rng.random((m, n)) < 0.5).astype(np.uint8))
            t = (rng.random(m) < 0.5).astype(np.uint8)
            noise = Bsc(eps) if eps else Noiseless()
            want_q = lambda tv, sv: bsc_likelihood(eps, tv, sv)  # the indicator at eps = 0
            want0, want1 = naive_posterior_masses(matrix.entries, t, PRIOR.delta, want_q)
            if not (want0 + want1).any():
                continue  # unreachable noiseless outcome: oracle has nothing to normalise
            result = enumerate_posteriors(matrix, t, PRIOR, noise)
            assert np.allclose(result.mass0, want0, rtol=1e-12)
            assert np.allclose(result.mass1, want1, rtol=1e-12)


class TestChunkedEnumeration:
    def test_many_elements_cross_chunk_boundary(self):
        # n = 17 forces two 2**16 chunks; validate against the trellis engine
        rng = np.random.Generator(np.random.Philox(key=9))
        matrix = TestMatrix((rng.random((3, 17)) < 0.4).astype(np.uint8))
        t = np.array([1, 0, 1], dtype=np.uint8)
        noise = Bsc(0.1)
        reference = enumerate_posteriors(matrix, t, PRIOR, noise)
        result = run(build_complete(matrix), PRIOR, noise, t)
        assert np.allclose(result.lapp, reference.lapp, rtol=1e-11)
        assert math.exp(result.log_evidence) == pytest.approx(
            float(reference.total_mass[0]), rel=1e-11
        )


class TestGuards:
    def test_element_count_guard(self):
        matrix = TestMatrix(np.ones((1, 25), dtype=np.uint8))
        with pytest.raises(SizeLimitError):
            enumerate_posteriors(matrix, [1], PRIOR, Noiseless())

    @pytest.mark.parametrize("noise", [Noiseless(), Bsc(0.1)], ids=["noiseless", "bsc"])
    def test_test_count_guard(self, noise):
        # element 0 is only in the last test, element 1 only in test 0; an
        # int64 key wraps bit 64 onto bit 0, so at 65 tests the syndromes of
        # (1, 0) and (0, 1) would share one key
        matrix = TestMatrix(_edge_tests(63))
        t = compute_syndrome(matrix, [1, 0])
        q = lambda tv, sv: bsc_likelihood(noise.epsilon, tv, sv)
        want0, want1 = naive_posterior_masses(matrix.entries, t, PRIOR.delta, q)
        result = enumerate_posteriors(matrix, t, PRIOR, noise)
        assert np.allclose(result.mass0, want0, rtol=1e-12, atol=0)
        assert np.allclose(result.mass1, want1, rtol=1e-12, atol=0)
        matrix = TestMatrix(_edge_tests(65))
        with pytest.raises(SizeLimitError):
            enumerate_posteriors(matrix, compute_syndrome(matrix, [1, 0]), PRIOR, noise)

    def test_underflowing_crossover_is_refused_as_the_engine_refuses_it(self):
        # enumerated, element 1 would get mass1 = 0 although its exact mass is positive
        matrix = TestMatrix(np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8))
        t, noise = np.array([1, 0, 0], np.uint8), Bsc(1e-200)
        message = "crossover probability 1e-200 underflows on 3 tests"
        for refuse in (
            lambda: enumerate_posteriors(matrix, t, PRIOR, noise),
            lambda: run(build_complete(matrix), PRIOR, noise, t),
        ):
            with pytest.raises(ValueError, match=message):
                refuse()

    @pytest.mark.parametrize(
        "noise, want0, want1",
        [
            (Bsc(0.05), [
                "0x1.37b5a0f2649d4p-4", "0x1.c3434989697e8p-7", "0x1.37b5a0f2649d2p-4",
                "0x1.fe935dfc70ba9p-5", "0x1.fe935dfc70baep-5", "0x1.3aadd61a310c6p-4",
            ], [
                "0x1.6df5a6e0a9f95p-10", "0x1.05050e5cba157p-4", "0x1.6df5a6e0a9f96p-10",
                "0x1.f11e447d773dep-7", "0x1.f11e447d773d9p-7", "0x1.5fd0b9db1c5fdp-11",
            ]),
            (Noiseless(), [
                "0x1.4578e5c4eb571p-4", "0x1.adfb506dd69d3p-8", "0x1.4578e5c4eb571p-4",
                "0x1.0cbd1244a6225p-4", "0x1.0cbd1244a6225p-4", "0x1.4578e5c4eb570p-4",
            ], [
                "0x0.0p+0", "0x1.2a9930be0ded3p-4", "0x0.0p+0",
                "0x1.c5de9c0229a5fp-7", "0x1.c5de9c0229a5fp-7", "0x0.0p+0",
            ]),
        ],
        ids=["bsc", "noiseless"],
    )  # fmt: skip
    def test_bsc_masses_keep_their_bits(self, toy_matrix, noise, want0, want1):
        result = enumerate_posteriors(toy_matrix, [1, 1, 0], PRIOR, noise)
        assert [v.hex() for v in result.mass0.tolist()] == want0
        assert [v.hex() for v in result.mass1.tolist()] == want1

    def test_channel_needs_only_epsilon_and_weights(self, toy_matrix):
        # the oracle forms its likelihoods itself: a channel without the
        # engine's table code gives Bsc's masses bit for bit
        class EpsilonOnly:
            epsilon = 0.05
            _weights = Bsc._weights

        want = enumerate_posteriors(toy_matrix, [1, 1, 0], PRIOR, Bsc(0.05))
        result = enumerate_posteriors(toy_matrix, [1, 1, 0], PRIOR, EpsilonOnly())
        assert result.mass0.tobytes() == want.mass0.tobytes()
        assert result.mass1.tobytes() == want.mass1.tobytes()

    def test_test_count_guard_comes_before_enumeration(self):
        # a first chunk of 2**16 vectors would hold a 105 MB syndrome product
        matrix = TestMatrix(np.eye(200, 17, dtype=np.uint8))
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError):
                enumerate_posteriors(matrix, np.zeros(200, np.uint8), PRIOR, Noiseless())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _edge_tests(m):
    """An m x 2 design: element 0 only in test m - 1, element 1 only in test 0."""
    entries = np.zeros((m, 2), dtype=np.uint8)
    entries[m - 1, 0] = entries[0, 1] = 1
    return entries


DESIGNS = {
    "ebch": ebch_64_57_parity_check,
    "hypergraph": lambda: hypergraph_incidence(9, 3),
    "bernoulli": lambda: bernoulli_matrix(12, 48, 0.15, 0),
}


def _syndrome_of(matrix, defectives):
    x = np.zeros(matrix.n, dtype=np.uint8)
    x[defectives] = 1
    return compute_syndrome(matrix, x)


def _assert_matches(result, lapp, log_evidence):
    assert np.array_equal(np.isposinf(result.lapp), np.isposinf(lapp))
    assert np.array_equal(np.isneginf(result.lapp), np.isneginf(lapp))
    finite = np.isfinite(lapp)
    assert np.allclose(result.lapp[finite], lapp[finite], rtol=1e-10, atol=0)
    assert result.log_evidence == pytest.approx(log_evidence, rel=0, abs=1e-10)


class TestSubsetLatticeOracle:
    """The engine against exact sums over test subsets, at full design size."""

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_oracle_matches_naive_enumeration(self, eps):
        rng = np.random.Generator(np.random.Philox(key=13))
        checked = 0
        for _ in range(20):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 8))
            entries = (rng.random((m, n)) < 0.5).astype(np.uint8)
            t = (rng.random(m) < 0.5).astype(np.uint8)
            q = lambda tv, sv: bsc_likelihood(eps, tv, sv)
            mass0, mass1 = naive_posterior_masses(entries, t, PRIOR.delta, q)
            if not (mass0 + mass1).any():
                with pytest.raises(ValueError):
                    subset_lattice_posteriors(entries, t, PRIOR.delta, eps)
                continue
            lapp, log_evidence = subset_lattice_posteriors(entries, t, PRIOR.delta, eps)
            with np.errstate(divide="ignore"):
                want = np.log(mass0) - np.log(mass1)
            assert np.array_equal(np.isinf(lapp), np.isinf(want))
            assert np.array_equal(lapp[np.isinf(want)], want[np.isinf(want)])
            finite = np.isfinite(want)
            assert np.allclose(lapp[finite], want[finite], rtol=1e-10, atol=1e-12)
            assert log_evidence == pytest.approx(math.log(mass0[0] + mass1[0]), abs=1e-10)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_complete_bsc(self, design):
        matrix = DESIGNS[design]()
        t = _syndrome_of(matrix, [3, 41])
        t[1] ^= 1
        lapp, log_evidence = subset_lattice_posteriors(matrix.entries, t, 0.05, 0.05)
        result = run(build_complete(matrix), Prior(0.05), Bsc(0.05), t)
        _assert_matches(result, lapp, log_evidence)

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_every_flavour_noiseless(self, design):
        matrix = DESIGNS[design]()
        complete = build_complete(matrix)
        for defectives in ([3, 41], [0, 17, 30]):
            t = _syndrome_of(matrix, defectives)
            lapp, log_evidence = subset_lattice_posteriors(matrix.entries, t, 0.05)
            assert np.isinf(lapp).any() and np.isfinite(lapp).any()
            for trellis in (complete, expurgate(matrix, t), build_reduced(matrix, t)):
                _assert_matches(run(trellis, Prior(0.05), Noiseless(), t), lapp, log_evidence)
