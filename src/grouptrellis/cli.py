"""Command-line interface: posterior reports, ROC sweeps, matrix generation.

Subcommands: `app` (per-element posterior table for one outcome), `roc`
(Monte Carlo ROC sweep to CSV), `genmat` (write a test matrix in the text
format), `oracle-check` (randomized equivalence sweep of the trellis engine
against brute-force enumeration).

Exit codes: 0 success, 2 validation problems (bad flags, malformed inputs,
guard violations, running out of memory), 3 I/O failures, 4 a requested
check failed.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import montecarlo
from .decision import ThresholdRule, decide
from .forward_backward import posterior_pairs, run
from .matrices import (
    bernoulli_matrix,
    ebch_64_57_parity_check,
    hypergraph_incidence,
    read_matrix,
    write_matrix,
)
from .model import Bsc, Noiseless, Prior, TestMatrix, compute_syndrome
from .oracle import enumerate_posteriors
from .trellis import build_complete, build_reduced, expurgate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_CHECK_FAILED = 4

_ORACLE_TOLERANCE = 1e-9
_ORACLE_MAX_M = 10
_ORACLE_MAX_N = 16


def _add_matrix_args(parser):
    group = parser.add_argument_group("matrix source (one of --matrix / --kind)")
    group.add_argument("--matrix", metavar="PATH", help="read the matrix from a text file")
    group.add_argument(
        "--kind",
        choices=["hypergraph", "ebch", "bernoulli"],
        help="generate a built-in matrix family instead of reading a file",
    )
    group.add_argument("--vertices", type=int, default=9, help="hypergraph: vertex count")
    group.add_argument(
        "--subset-size", type=int, default=3, help="hypergraph: element subset size"
    )
    group.add_argument("--rows", type=int, help="bernoulli: number of tests")
    group.add_argument("--cols", type=int, help="bernoulli: number of elements")
    group.add_argument("--density", type=float, default=0.5, help="bernoulli: entry density")
    group.add_argument("--matrix-seed", type=int, default=0, help="bernoulli: generation seed")
    group.add_argument("--label", help="override the matrix label echoed in metadata")


def _matrix_from_args(args):
    if args.matrix is not None and args.kind is not None:
        raise ValueError("give either --matrix or --kind, not both")
    if args.matrix is not None:
        matrix = read_matrix(args.matrix)
        label = f"file:{Path(args.matrix).name}"
    elif args.kind == "hypergraph":
        matrix = hypergraph_incidence(args.vertices, args.subset_size)
        label = f"hypergraph-{args.vertices}-{args.subset_size}"
    elif args.kind == "ebch":
        matrix = ebch_64_57_parity_check()
        label = "ebch-64-57"
    elif args.kind == "bernoulli":
        if args.rows is None or args.cols is None:
            raise ValueError("--kind bernoulli requires --rows and --cols")
        matrix = bernoulli_matrix(args.rows, args.cols, args.density, args.matrix_seed)
        label = f"bernoulli-{args.rows}x{args.cols}-d{args.density}-s{args.matrix_seed}"
    else:
        raise ValueError("a matrix is required: give --matrix PATH or --kind NAME")
    return matrix, (args.label or label)


def _add_noise_args(parser):
    group = parser.add_argument_group("noise model (default noiseless)")
    group.add_argument(
        "--noiseless", action="store_true", help="observe the OR-channel syndrome directly"
    )
    group.add_argument(
        "--eps", type=float, help="binary symmetric channel crossover probability"
    )


def _noise_from_args(args):
    if args.noiseless and args.eps is not None:
        raise ValueError("give either --noiseless or --eps, not both")
    if args.eps is None:
        return Noiseless()
    return Bsc(args.eps)


def _parse_bits(text, what):
    compact = "".join(text.split())
    if not compact or any(c not in "01" for c in compact):
        raise ValueError(f"{what} must be a non-empty string of 0/1 characters, got {text!r}")
    return np.frombuffer(compact.encode(), np.uint8) - 48  # the codes of "0" and "1" less 48


def _parse_thresholds(text, prior):
    if text == "auto":
        return montecarlo.default_threshold_grid(prior)
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"--lambdas must be 'auto' or comma-separated floats, got {text!r}") from None
    if not values:
        raise ValueError("--lambdas must name at least one threshold")
    return np.array(values)


def cmd_app(args):
    matrix, label = _matrix_from_args(args)
    prior = Prior(args.delta)
    noise = _noise_from_args(args)
    if args.trellis != "complete" and noise.epsilon:
        raise ValueError("expurgated and reduced trellises encode a noiseless outcome")
    if args.outcome is not None and args.outcome_file is not None:
        raise ValueError("give either --outcome or --outcome-file, not both")
    if args.outcome is not None:
        outcome = _parse_bits(args.outcome, "--outcome")
    elif args.outcome_file is not None:
        outcome = _parse_bits(Path(args.outcome_file).read_text(), "--outcome-file contents")
    else:
        raise ValueError("an outcome is required: give --outcome BITS or --outcome-file PATH")
    if outcome.size != matrix.m:
        raise ValueError(f"--outcome has {outcome.size} bits but the matrix has {matrix.m} tests")
    if args.trellis == "complete":
        trellis = build_complete(matrix)
    elif args.trellis == "expurgated":
        trellis = expurgate(matrix, outcome)
    else:
        trellis = build_reduced(matrix, outcome)
    rule = ThresholdRule(threshold=args.threshold, tie_defective=args.tie == "defective")
    result = run(trellis, prior, noise, outcome)
    pairs = posterior_pairs(result)
    flags = decide(result.lapp, rule)
    lines = [
        f"# matrix: {label}",
        f"# delta: {args.delta!r}",
        f"# noise: {montecarlo.noise_label(noise)}",
        f"# outcome: {''.join(map(str, outcome.tolist()))}",
        f"# trellis: {args.trellis}",
        f"# threshold: {args.threshold!r}",
        f"# tie: {args.tie}",
        f"# log-evidence: {result.log_evidence!r}",
        "element lapp p_clear p_defective decision",
    ]
    # Python floats format faster than numpy scalars, and % than f-strings, to the same strings
    rows = zip(range(flags.size), result.lapp.tolist(), *pairs.T.tolist(), flags.tolist())
    lines += ["%d %.12g %.12g %.12g %d" % row for row in rows]
    print("\n".join(lines))
    return EXIT_OK


def cmd_roc(args):
    matrix, label = _matrix_from_args(args)
    prior = Prior(args.delta)
    noise = _noise_from_args(args)
    thresholds = _parse_thresholds(args.lambdas, prior)
    # fail before the sweep, but leave an existing file as it is until the sweep ends
    if args.output != "-":
        target = Path(args.output)
        if not target.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.output)
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.output)
    curve = montecarlo.sweep_roc(
        matrix,
        prior,
        noise,
        thresholds,
        trials=args.trials,
        seed=args.seed,
        tie_defective=args.tie == "defective",
        workers=args.workers,
        matrix_label=label,
    )
    text = curve.to_csv()
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return EXIT_OK


def cmd_genmat(args):
    if args.kind is None:
        raise ValueError("genmat requires --kind")
    matrix, label = _matrix_from_args(args)
    write_matrix(args.output, matrix)
    print(f"# kind: {args.kind}")
    if args.kind == "hypergraph":
        print(f"# vertices: {args.vertices}")
        print(f"# subset-size: {args.subset_size}")
    elif args.kind == "bernoulli":
        print(f"# density: {args.density!r}")
        print(f"# matrix-seed: {args.matrix_seed}")
    print(f"# label: {label}")
    print(f"# shape: {matrix.m} {matrix.n}")
    print(f"# output: {args.output}")
    return EXIT_OK


def cmd_oracle_check(args):
    if args.cases < 1:
        raise ValueError(f"--cases must be positive, got {args.cases}")
    if not 1 <= args.max_m <= _ORACLE_MAX_M:
        raise ValueError(f"--max-m must lie in [1, {_ORACLE_MAX_M}], got {args.max_m}")
    if not 1 <= args.max_n <= _ORACLE_MAX_N:
        raise ValueError(f"--max-n must lie in [1, {_ORACLE_MAX_N}], got {args.max_n}")
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    noises = [Noiseless(), Bsc(0.05), Bsc(0.2)]
    deltas = [0.05, 0.3]
    worst = 0.0
    for case in range(args.cases):
        m = int(rng.integers(1, args.max_m + 1))
        n = int(rng.integers(1, args.max_n + 1))
        matrix = TestMatrix((rng.random((m, n)) < 0.5).astype(np.uint8))
        prior = Prior(deltas[case % len(deltas)])
        noise = noises[case % len(noises)]
        x = (rng.random(n) < prior.delta).astype(np.uint8)
        t = compute_syndrome(matrix, x)
        if noise.epsilon:
            t = (t ^ (rng.random(m) < noise.epsilon)).astype(np.uint8)
        result = run(build_complete(matrix), prior, noise, t)
        reference = enumerate_posteriors(matrix, t, prior, noise)
        total = reference.total_mass
        ref_pairs = np.stack([reference.mass0 / total, reference.mass1 / total], axis=1)
        got_pairs = posterior_pairs(result)
        denom = np.maximum(np.abs(ref_pairs), 1e-300)
        ev_ref = float(total[0])
        ev_dev = abs(math.exp(result.log_evidence) - ev_ref) / ev_ref
        # np.max keeps a NaN deviation, where the builtin max would drop it
        worst = float(np.max([worst, np.max(np.abs(got_pairs - ref_pairs) / denom), ev_dev]))
    print(f"oracle-check: {args.cases} cases, max relative deviation {worst:.3e}")
    if not worst <= _ORACLE_TOLERANCE:
        print(
            f"oracle-check FAILED: deviation {worst:.3e} exceeds {_ORACLE_TOLERANCE:.0e}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="grouptrellis",
        description="Exact posteriors and ROC sweeps for non-adaptive pooled testing.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_app = sub.add_parser("app", help="per-element posterior table for one outcome")
    _add_matrix_args(p_app)
    _add_noise_args(p_app)
    p_app.add_argument("--delta", type=float, required=True, help="prior defectivity probability")
    p_app.add_argument("--outcome", help="observed outcome as a compact 0/1 string")
    p_app.add_argument("--outcome-file", help="file holding the observed outcome bits")
    p_app.add_argument(
        "--threshold",
        type=float,
        default=math.inf,
        help="decision threshold on lapp (default +inf: flag all uncertain elements)",
    )
    p_app.add_argument(
        "--tie", choices=["defective", "clear"], default="defective", help="tie handling at the threshold"
    )
    p_app.add_argument(
        "--trellis",
        choices=["complete", "expurgated", "reduced"],
        default="complete",
        help="trellis flavour (expurgated/reduced are noiseless-only)",
    )
    p_app.set_defaults(func=cmd_app)

    p_roc = sub.add_parser("roc", help="Monte Carlo ROC sweep, written as CSV")
    _add_matrix_args(p_roc)
    _add_noise_args(p_roc)
    p_roc.add_argument("--delta", type=float, required=True, help="prior defectivity probability")
    p_roc.add_argument("--trials", type=int, default=100000, help="Monte Carlo trials")
    p_roc.add_argument("--seed", type=int, default=0, help="simulation seed")
    p_roc.add_argument(
        "--lambdas",
        default="auto",
        help="'auto' for the default grid or comma-separated thresholds (inf accepted)",
    )
    p_roc.add_argument(
        "--tie", choices=["defective", "clear"], default="defective", help="tie handling at thresholds"
    )
    p_roc.add_argument(
        "--workers", type=int, default=1, help="simulation threads (default 1)"
    )
    p_roc.add_argument("--output", default="-", help="output CSV path, '-' for stdout")
    p_roc.set_defaults(func=cmd_roc)

    p_gen = sub.add_parser("genmat", help="write a built-in matrix in the text format")
    _add_matrix_args(p_gen)
    p_gen.add_argument("--output", required=True, help="destination path")
    p_gen.set_defaults(func=cmd_genmat)

    p_chk = sub.add_parser(
        "oracle-check", help="randomized trellis-vs-enumeration equivalence sweep"
    )
    p_chk.add_argument("--cases", type=int, default=200, help="number of random instances")
    p_chk.add_argument("--max-m", type=int, default=6, help="largest test count")
    p_chk.add_argument("--max-n", type=int, default=12, help="largest element count")
    p_chk.add_argument("--seed", type=int, default=0, help="instance generation seed")
    p_chk.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
