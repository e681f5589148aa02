import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grouptrellis
from grouptrellis import (
    Bsc,
    Noiseless,
    Prior,
    ThresholdRule,
    bernoulli_matrix,
    build_complete,
    build_reduced,
    comp_decide,
    compute_syndrome,
    decide,
    ebch_64_57_parity_check,
    expurgate,
    hypergraph_incidence,
    montecarlo,
    posterior_pairs,
    read_matrix,
    run,
    write_matrix,
)
from grouptrellis.cli import main


@pytest.fixture
def toy_path(toy_matrix, tmp_path):
    path = tmp_path / "toy.txt"
    write_matrix(path, toy_matrix)
    return str(path)


def _table_rows(output):
    lines = [ln for ln in output.splitlines() if ln and not ln.startswith("#")]
    assert lines[0].split() == ["element", "lapp", "p_clear", "p_defective", "decision"]
    return [ln.split() for ln in lines[1:]]


class TestApp:
    def test_posterior_table_and_default_decision(self, toy_path, toy_matrix, capsys):
        assert main(["app", "--matrix", toy_path, "--delta", "0.1", "--outcome", "101"]) == 0
        out = capsys.readouterr().out
        assert "# log-evidence: -2.5324889437264724" in out
        rows = _table_rows(out)
        assert len(rows) == 6
        decisions = [int(r[4]) for r in rows]
        assert decisions == comp_decide(toy_matrix, [1, 0, 1]).tolist()

    def test_reduced_and_complete_agree(self, toy_path, capsys):
        main(["app", "--matrix", toy_path, "--delta", "0.1", "--outcome", "101"])
        complete = capsys.readouterr().out
        main(["app", "--matrix", toy_path, "--delta", "0.1", "--outcome", "101",
              "--trellis", "reduced"])
        reduced = capsys.readouterr().out
        assert _table_rows(complete) == _table_rows(reduced)

    def test_hypergraph_on_26_tests(self, capsys):
        # the 2**26-entry position table, 512 MiB, fits the build budget
        assert main(["app", "--kind", "hypergraph", "--vertices", "26", "--subset-size", "25",
                     "--delta", "0.05", "--outcome", "1" * 26]) == 0
        assert len(_table_rows(capsys.readouterr().out)) == 26

    def test_pruned_trellises_agree_with_complete(self, capsys):
        x = np.zeros(64, dtype=np.uint8)
        x[[3, 41]] = 1
        outcome = "1011101"
        assert "".join(map(str, compute_syndrome(ebch_64_57_parity_check(), x))) == outcome
        tables = {}
        for kind in ("complete", "expurgated", "reduced"):
            assert main(["app", "--kind", "ebch", "--delta", "0.02", "--noiseless",
                         "--outcome", outcome, "--trellis", kind]) == 0
            tables[kind] = _table_rows(capsys.readouterr().out)

        def columns(rows):  # element, decision, and lapp where it is infinite
            return [(r[0], r[4], r[1] if "inf" in r[1] else "finite") for r in rows]

        want = tables["complete"]
        for kind in ("expurgated", "reduced"):
            got = tables[kind]
            assert columns(got) == columns(want)
            finite = [(float(g[1]), float(w[1])) for g, w in zip(got, want) if "inf" not in w[1]]
            assert finite
            assert [g for g, _ in finite] == pytest.approx([w for _, w in finite], rel=1e-9)

    def test_finite_threshold_changes_decisions(self, toy_path, capsys):
        main(["app", "--matrix", toy_path, "--delta", "0.1", "--outcome", "101",
              "--threshold", "0.0"])
        rows = _table_rows(capsys.readouterr().out)
        assert [int(r[4]) for r in rows] == [1, 0, 0, 0, 0, 0]

    def test_outcome_file(self, toy_path, tmp_path, capsys):
        outcome = tmp_path / "t.txt"
        outcome.write_text("1 0 1\n")
        assert main(["app", "--matrix", toy_path, "--delta", "0.1",
                     "--outcome-file", str(outcome)]) == 0
        assert "# outcome: 101" in capsys.readouterr().out

    def test_wrong_length_outcome_is_a_usage_error(self, toy_path, capsys):
        assert main(["app", "--matrix", toy_path, "--delta", "0.1", "--outcome", "10"]) == 2
        assert "--outcome" in capsys.readouterr().err

    def test_degenerate_delta_rejected(self, toy_path, capsys):
        assert main(["app", "--matrix", toy_path, "--delta", "0", "--outcome", "101"]) == 2
        assert "prevalence" in capsys.readouterr().err

    def test_matrix_source_required(self, capsys):
        assert main(["app", "--delta", "0.1", "--outcome", "101"]) == 2
        assert "--matrix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--matrix", "{toy}", "--kind", "ebch", "--outcome", "101"],
             "give either --matrix or --kind, not both"),
            (["--kind", "bernoulli", "--rows", "3", "--outcome", "101"],
             "--kind bernoulli requires --rows and --cols"),
            (["--matrix", "{toy}", "--outcome", "101", "--outcome-file", "{toy}"],
             "give either --outcome or --outcome-file, not both"),
            (["--matrix", "{toy}"],
             "an outcome is required: give --outcome BITS or --outcome-file PATH"),
        ],
        ids=["matrix-and-kind", "bernoulli-without-cols", "two-outcomes", "no-outcome"],
    )  # fmt: skip
    def test_conflicting_or_missing_inputs_exit_2(self, toy_path, capsys, flags, message):
        argv = ["app", "--delta", "0.1", *(f.format(toy=toy_path) for f in flags)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_matrix_file_is_an_io_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        assert main(["app", "--matrix", missing, "--delta", "0.1", "--outcome", "1"]) == 3

    def test_malformed_matrix_file_is_a_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n1 junk\n")
        assert main(["app", "--matrix", str(bad), "--delta", "0.1", "--outcome", "1"]) == 2

    @pytest.mark.parametrize("kind", ["expurgated", "reduced"])
    def test_pruned_trellis_rejects_noise_before_building(
        self, toy_path, monkeypatch, capsys, kind
    ):
        from grouptrellis import cli

        def unexpected(*args):
            raise AssertionError("a trellis was built")

        monkeypatch.setattr(cli, "build_complete", unexpected)
        monkeypatch.setattr(cli, "build_reduced", unexpected)
        assert main(["app", "--matrix", toy_path, "--delta", "0.1", "--eps", "0.1",
                     "--outcome", "101", "--trellis", kind]) == 2
        err = capsys.readouterr().err
        assert err == "error: expurgated and reduced trellises encode a noiseless outcome\n"

    @pytest.mark.parametrize("kind", ["expurgated", "reduced"])
    def test_pruned_trellis_takes_eps_zero(self, capsys, kind):
        argv = ["app", "--kind", "hypergraph", "--vertices", "9", "--subset-size", "3",
                "--trellis", kind, "--delta", "0.05", "--outcome", "111011100"]
        assert main(argv + ["--eps", "0"]) == 0
        with_eps = capsys.readouterr().out.splitlines()
        assert main(argv + ["--noiseless"]) == 0
        noiseless = capsys.readouterr().out.splitlines()
        assert sum(line[:1].isdigit() for line in with_eps) == 84
        at = noiseless.index("# noise: noiseless")
        assert with_eps[at] == "# noise: bsc 0.0"
        assert with_eps[:at] + with_eps[at + 1:] == noiseless[:at] + noiseless[at + 1:]

    def test_expurgated_app_never_builds_the_complete_trellis(self, monkeypatch, capsys):
        from grouptrellis import cli
        from grouptrellis import trellis as trellis_module

        argv = ["app", "--kind", "bernoulli", "--rows", "12", "--cols", "48", "--density",
                "0.15", "--delta", "0.05", "--trellis", "expurgated"]
        matrix = grouptrellis.bernoulli_matrix(12, 48, 0.15, 0)
        x = np.zeros(48, dtype=np.uint8)
        x[[5, 17, 30]] = 1
        argv += ["--outcome", "".join(map(str, compute_syndrome(matrix, x)))]
        assert main(argv) == 0
        want = capsys.readouterr().out

        def unexpected(*args):
            raise AssertionError("the complete trellis was built")

        monkeypatch.setattr(cli, "build_complete", unexpected)
        monkeypatch.setattr(trellis_module, "build_complete", unexpected)
        assert main(argv) == 0
        assert capsys.readouterr().out == want


class TestAppRows:
    """Each row is `f"{ell} {lapp:.12g} {p0:.12g} {p1:.12g} {flag}"` of the library's values."""

    CASES = {
        "hypergraph reduced": (
            ["--kind", "hypergraph", "--vertices", "9", "--subset-size", "3",
             "--trellis", "reduced"],
            hypergraph_incidence(9, 3), "111011100", Noiseless(), build_reduced, 0.05, "inf",
        ),
        "ebch bsc complete": (
            ["--kind", "ebch", "--eps", "0.05"],
            ebch_64_57_parity_check(), "1011101", Bsc(0.05),
            lambda matrix, t: build_complete(matrix), 0.02, "2.5",
        ),
        "bernoulli expurgated": (
            ["--kind", "bernoulli", "--rows", "12", "--cols", "48", "--density", "0.15",
             "--trellis", "expurgated"],
            bernoulli_matrix(12, 48, 0.15, 0), "111000000001", Noiseless(), expurgate, 0.05, "0",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_rows_format_the_library_values(self, case, capsys):
        flags, matrix, outcome, noise, build, delta, threshold = self.CASES[case]
        argv = ["app", *flags, "--delta", str(delta), "--outcome", outcome,
                "--threshold", threshold]
        assert main(argv) == 0
        text = capsys.readouterr().out
        t = np.array([int(c) for c in outcome], np.uint8)
        result = run(build(matrix, t), Prior(delta), noise, t)
        pairs = posterior_pairs(result)
        flagged = decide(result.lapp, ThresholdRule(threshold=float(threshold)))
        want = [
            f"{ell} {lapp:.12g} {p0:.12g} {p1:.12g} {flag}"
            for ell, (lapp, (p0, p1), flag) in enumerate(zip(result.lapp, pairs, flagged))
        ]
        lines = text.splitlines()
        assert f"# outcome: {outcome}" in lines
        assert f"# log-evidence: {result.log_evidence!r}" in lines
        assert lines[lines.index("element lapp p_clear p_defective decision") + 1:] == want
        values = [row.split() for row in want]
        if case != "ebch bsc complete":  # noiseless: silent-test members are certainly clear
            assert ["inf", "1", "0", "0"] in [row[1:] for row in values]
        assert any(row[1] not in ("inf", "-inf") and row[2] not in ("0", "1") for row in values)

    def test_outcome_whitespace_is_ignored(self, toy_path, capsys):
        assert main(["app", "--matrix", toy_path, "--delta", "0.1", "--outcome", " 1 0\n1 "]) == 0
        assert "# outcome: 101" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["10a", ""])
    def test_bad_outcome_characters_keep_their_message(self, toy_path, capsys, text):
        assert main(["app", "--matrix", toy_path, "--delta", "0.1", "--outcome", text]) == 2
        assert capsys.readouterr().err == (
            f"error: --outcome must be a non-empty string of 0/1 characters, got {text!r}\n"
        )

    def test_underflowing_crossover_exits_2(self, capsys):
        argv = ["app", "--kind", "ebch", "--delta", "0.02", "--eps", "1e-100",
                "--outcome", "0000000"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: crossover probability 1e-100 underflows on 7 tests: "
            "epsilon**7 is below the smallest normal float\n"
        )


class TestRoc:
    def test_identical_invocations_are_byte_identical(self, tmp_path):
        args = ["roc", "--kind", "hypergraph", "--vertices", "5", "--subset-size", "2",
                "--delta", "0.1", "--eps", "0.05", "--trials", "6000", "--seed", "11"]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        args = ["roc", "--kind", "hypergraph", "--vertices", "5", "--subset-size", "2",
                "--delta", "0.1", "--eps", "0.05", "--trials", "20000", "--seed", "11"]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--workers", "1", "--output", str(out_a)]) == 0
        assert main(args + ["--workers", "4", "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_underflowing_crossover_exits_2(self, capsys):
        assert main(["roc", "--kind", "ebch", "--delta", "0.02", "--eps", "1e-100",
                     "--trials", "100"]) == 2
        assert "crossover probability 1e-100 underflows on 7 tests" in capsys.readouterr().err

    def test_nonpositive_workers_rejected(self, capsys):
        assert main(["roc", "--kind", "hypergraph", "--vertices", "4", "--subset-size", "2",
                     "--delta", "0.1", "--trials", "100", "--seed", "0", "--workers", "0"]) == 2
        assert capsys.readouterr().err == "error: worker count must be positive, got 0\n"

    @pytest.mark.parametrize(
        "flags, matrix",
        [
            (["--kind", "hypergraph", "--vertices", "5", "--subset-size", "2"],
             hypergraph_incidence(5, 2)),
            (["--kind", "ebch"], ebch_64_57_parity_check()),
            (["--kind", "bernoulli", "--rows", "12", "--cols", "48", "--density", "0.15"],
             bernoulli_matrix(12, 48, 0.15, 0)),
        ],
        ids=["hypergraph", "ebch", "bernoulli"],
    )  # fmt: skip
    def test_eps_zero_matches_noiseless_estimates(self, tmp_path, flags, matrix):
        # epsilon = 0 draws the noiseless trials, so only the `# noise:` line differs
        for chunk in (0, 1):
            drawn = [
                montecarlo._sample_chunk(matrix, Prior(0.1), noise, 3, chunk, 4000)
                for noise in (Bsc(0.0), Noiseless())
            ]
            assert all(np.array_equal(a, b) for a, b in zip(*drawn, strict=True))
        base = ["roc", *flags, "--delta", "0.1", "--trials", "4000", "--seed", "3"]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(base + ["--eps", "0", "--output", str(out_a)]) == 0
        assert main(base + ["--noiseless", "--output", str(out_b)]) == 0
        lines_a = out_a.read_text().splitlines()
        lines_b = out_b.read_text().splitlines()
        assert (lines_a.pop(2), lines_b.pop(2)) == ("# noise: bsc 0.0", "# noise: noiseless")
        assert lines_a == lines_b

    def test_explicit_lambda_grid_to_stdout(self, capsys):
        assert main(["roc", "--kind", "hypergraph", "--vertices", "4", "--subset-size", "2",
                     "--delta", "0.1", "--trials", "1000", "--seed", "0",
                     "--lambdas=-inf,0,inf"]) == 0
        out = capsys.readouterr().out
        data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        assert data[0] == "lambda,p_fa,p_md,fa_events,fa_trials,md_events,md_trials"
        assert len(data) == 4
        assert data[1].startswith("-inf,0.0,1.0,")

    def test_metadata_echoes_config(self, capsys):
        main(["roc", "--kind", "bernoulli", "--rows", "3", "--cols", "5", "--matrix-seed", "2",
              "--delta", "0.1", "--trials", "500", "--seed", "9"])
        out = capsys.readouterr().out
        assert "# matrix: bernoulli-3x5-d0.5-s2" in out
        assert "# trials: 500" in out
        assert "# seed: 9" in out

    def test_bad_lambda_list_rejected(self, capsys):
        assert main(["roc", "--kind", "ebch", "--delta", "0.1", "--trials", "100",
                     "--lambdas", "abc"]) == 2

    def test_empty_lambda_list_rejected(self, capsys):
        assert main(["roc", "--kind", "ebch", "--delta", "0.1", "--trials", "100",
                     "--lambdas", ","]) == 2
        assert capsys.readouterr().err == "error: --lambdas must name at least one threshold\n"

    def test_conflicting_noise_flags_rejected(self, capsys):
        assert main(["roc", "--kind", "ebch", "--delta", "0.1", "--trials", "100",
                     "--noiseless", "--eps", "0.1"]) == 2

    def test_missing_output_directory_fails_before_the_sweep(
        self, tmp_path, monkeypatch, capsys
    ):
        def unexpected(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(montecarlo, "sweep_roc", unexpected)
        target = tmp_path / "no" / "out.csv"
        assert main(["roc", "--kind", "ebch", "--delta", "0.1", "--trials", "100",
                     "--output", str(target)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"

    def test_output_directory_fails_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        from grouptrellis import montecarlo

        def unexpected(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(montecarlo, "sweep_roc", unexpected)
        assert main(["roc", "--kind", "ebch", "--delta", "0.1", "--trials", "100",
                     "--output", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_failed_sweep_leaves_an_existing_output(self, tmp_path, monkeypatch):
        from grouptrellis import montecarlo

        def exhausted(*args, **kwargs):
            raise MemoryError("sweep")

        monkeypatch.setattr(montecarlo, "sweep_roc", exhausted)
        target = tmp_path / "out.csv"
        target.write_text("earlier curve\n")
        assert main(["roc", "--kind", "ebch", "--delta", "0.1", "--trials", "100",
                     "--output", str(target)]) == 2
        assert target.read_text() == "earlier curve\n"


class TestGenmat:
    def test_writes_parseable_matrix_and_echoes_config(self, tmp_path, capsys):
        out = tmp_path / "hg.txt"
        assert main(["genmat", "--kind", "hypergraph", "--vertices", "6", "--subset-size", "2",
                     "--output", str(out)]) == 0
        echoed = capsys.readouterr().out
        assert "# kind: hypergraph" in echoed
        assert "# shape: 6 15" in echoed
        matrix = read_matrix(out)
        assert (matrix.m, matrix.n) == (6, 15)

    def test_bernoulli_roundtrip_is_seeded(self, tmp_path):
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["genmat", "--kind", "bernoulli", "--rows", "4", "--cols", "7",
                "--matrix-seed", "5"]
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()

    def test_requires_kind(self, tmp_path, capsys):
        assert main(["genmat", "--output", str(tmp_path / "x.txt")]) == 2
        assert "--kind" in capsys.readouterr().err

    def test_unwritable_output_is_an_io_error(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "x.txt"
        assert main(["genmat", "--kind", "ebch", "--output", str(target)]) == 3

    def test_oversize_matrix_is_a_validation_error(self, monkeypatch, tmp_path, capsys):
        from grouptrellis import matrices

        monkeypatch.setattr(matrices, "MAX_ENTRIES", 1000)
        out = tmp_path / "x.txt"
        assert main(["genmat", "--kind", "bernoulli", "--rows", "40", "--cols", "40",
                     "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: a 40x40 matrix has 1600 entries, over the guard of 1000\n"
        assert not out.exists()


class TestOracleCheck:
    def test_small_sweep_passes(self, capsys):
        assert main(["oracle-check", "--cases", "20", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "20 cases" in out
        assert "max relative deviation" in out

    @pytest.mark.parametrize(
        "corrupt",
        [lambda lapp: lapp * 1.001, lambda lapp: np.full_like(lapp, np.nan)],
        ids=["scaled", "nan"],
    )
    def test_corrupted_lapp_fails_the_check(self, monkeypatch, capsys, corrupt):
        from grouptrellis import cli

        true_run = cli.run

        def corrupted(*args):
            result = true_run(*args)
            return dataclasses.replace(result, lapp=corrupt(result.lapp))

        monkeypatch.setattr(cli, "run", corrupted)
        assert main(["oracle-check", "--cases", "5", "--seed", "1"]) == 4
        assert "FAILED" in capsys.readouterr().err

    def test_size_guards(self, capsys):
        assert main(["oracle-check", "--cases", "5", "--max-n", "30"]) == 2
        assert "--max-n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--cases", "0"], "--cases must be positive, got 0"),
            (["--max-m", "11"], "--max-m must lie in [1, 10], got 11"),
        ],
        ids=["no-cases", "max-m"],
    )
    def test_bad_counts_exit_2(self, capsys, flags, message):
        assert main(["oracle-check", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        matrix_path = tmp_path / "m.txt"
        matrix_path.write_text("1 2\n1 0\n")
        src = str(Path(grouptrellis.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "grouptrellis", "app", "--matrix", str(matrix_path),
             "--delta", "0.2", "--outcome", "1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0
        assert "element lapp p_clear p_defective decision" in proc.stdout

    def test_app_and_roc_leave_numpy_ma_unimported(self):
        # np.unique imports numpy.ma (8-16 ms) on its first call; no CLI path needs it
        script = (
            "import contextlib, io, sys\n"
            "from grouptrellis import cli\n"
            "design = ['--kind', 'hypergraph', '--vertices', '6', '--delta', '0.1']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for flavour in ('complete', 'expurgated', 'reduced'):\n"
            "        argv = ['app', *design, '--outcome', '110100', '--trellis', flavour]\n"
            "        assert cli.main(argv) == 0\n"
            "    assert cli.main(['roc', *design, '--eps', '0.05', '--trials', '2000']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(grouptrellis.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_out_of_memory_is_a_validation_error(self, toy_path, monkeypatch, capsys):
        from grouptrellis import cli

        def exhausted(matrix):
            raise MemoryError("trellis arrays")

        monkeypatch.setattr(cli, "build_complete", exhausted)
        assert main(["app", "--matrix", toy_path, "--delta", "0.1", "--outcome", "101"]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: trellis arrays\n"
        assert "Traceback" not in err

    def test_trellis_over_budget_is_a_validation_error(self, monkeypatch, capsys):
        from grouptrellis import trellis

        monkeypatch.setattr(trellis, "MAX_TRELLIS_BYTES", 4 << 20)
        argv = ["app", "--kind", "bernoulli", "--rows", "16", "--cols", "64",
                "--density", "0.1", "--delta", "0.05", "--outcome", "0" * 16]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trellis passes its budget of 4194304 bytes")
        assert "Traceback" not in err

    def test_argparse_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["app", "--matrix"])
        assert err.value.code == 2

    def test_repeated_calls_in_one_process_agree(self, toy_path, tmp_path, capsys):
        # the parser is built once per process and serves every later call
        calls = [
            ["app", "--matrix", toy_path, "--delta", "0.1", "--outcome", "101"],
            ["roc", "--matrix", toy_path, "--delta", "0.1", "--eps", "0.05",
             "--trials", "300", "--lambdas", "0,1,2.5"],
            ["app", "--matrix"],
            ["genmat", "--kind", "hypergraph", "--vertices", "4", "--subset-size", "2",
             "--output", str(tmp_path / "h.txt")],
            ["app", "--matrix", toy_path, "--delta", "0.3", "--outcome", "100",
             "--trellis", "reduced"],
        ]

        def outcomes():
            seen = []
            for argv in calls:
                try:
                    code = main(argv)
                except SystemExit as err:
                    code = err.code
                seen.append((code, capsys.readouterr().out))
            return seen

        first = outcomes()
        assert [code for code, _ in first] == [0, 0, 2, 0, 0]
        assert outcomes() == first
        assert outcomes() == first
