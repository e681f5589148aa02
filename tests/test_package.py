import grouptrellis

#: Every public name, so that adding or dropping one takes a deliberate edit here.
PUBLIC_NAMES = {
    "MAX_TRELLIS_BYTES",
    "Bsc",
    "MatrixFormatError",
    "Noiseless",
    "NotASyndromeError",
    "OperatingPoint",
    "OracleResult",
    "PosteriorResult",
    "Prior",
    "RocCurve",
    "SizeLimitError",
    "TestMatrix",
    "ThresholdRule",
    "Trellis",
    "bernoulli_matrix",
    "bits_to_index",
    "build_complete",
    "build_reduced",
    "comp_decide",
    "compute_syndrome",
    "decide",
    "default_threshold_grid",
    "ebch_64_57_parity_check",
    "enumerate_paths",
    "enumerate_posteriors",
    "expurgate",
    "hypergraph_incidence",
    "index_to_bits",
    "posterior_pairs",
    "posterior_table",
    "read_matrix",
    "run",
    "sweep_roc",
    "write_matrix",
}


def test_every_public_name_resolves_once():
    names = grouptrellis.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(grouptrellis, name)] == []


def test_public_names_are_exactly_the_pinned_set():
    assert len(PUBLIC_NAMES) == 34
    assert set(grouptrellis.__all__) == PUBLIC_NAMES
