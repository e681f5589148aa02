import math

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
from helpers import compatible_vectors, naive_posterior_masses, subset_lattice_posteriors

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
        assert np.allclose(result.posterior_defective, want, rtol=1e-12, atol=0)

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
            if eps == 0.0:
                want_q = lambda tv, sv: 1.0 if np.array_equal(tv, sv) else 0.0
            else:
                want_q = lambda tv, sv: Bsc(eps).likelihood(tv, sv)
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

            def q(tv, sv):
                flips = int((tv != sv).sum())
                return eps**flips * (1.0 - eps) ** (m - flips)

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
            for trellis in (complete, expurgate(complete, t), build_reduced(matrix, t)):
                _assert_matches(run(trellis, Prior(0.05), Noiseless(), t), lapp, log_evidence)
