"""The four benchmark workloads and the checks that their outputs are correct.

Every workload is a closed loop with one client and one worker thread: the
next operation starts only after the previous one returned.  An operation is
one `grouptrellis roc` sweep on the ROC workloads and one decode request on
the decode workloads.  Inputs come from the run's seed only; the program
receives nothing but the generated inputs.

All calls into the package go through module attributes (`cli.main`,
`fb.run`, ...) so that the traced run, which replaces those attributes, sees
them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from grouptrellis import cli, decision, matrices, model, oracle
from grouptrellis import forward_backward as fb
from grouptrellis import trellis as tr

DEFAULT_SEED = 0

#: Tolerance of the CLI's `oracle-check`, reused for every oracle comparison.
ORACLE_TOLERANCE = 1e-9

#: Relative tolerance against recorded lapp; scales below 1 are compared as 1.
REFERENCE_RTOL = 1e-9

#: Sweep seeds of one run are `seed * SWEEP_SEED_STRIDE + i`.
SWEEP_SEED_STRIDE = 1000

#: Random small instances compared with `enumerate_posteriors` in every run.
ORACLE_CASES = 6

#: `app` requests whose reduced sub-problem keeps this many elements or fewer
#: are also checked against the oracle.
ORACLE_MAX_KEPT = 16

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


class Ledger:
    """Operations attempted and failed, plus the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.oracle_checks = 0
        self.messages = []

    def record(self, problems):
        """Count one attempted operation; it failed if `problems` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append("; ".join(problems))


def run_cli(argv):
    """`grouptrellis <argv>` in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def syndrome(entries, x):
    """Noiseless OR-channel outcome, computed independently of the package."""
    return ((entries.astype(np.int64) @ x.astype(np.int64)) > 0).astype(np.uint8)


def compare_lapp(got, ref, rtol=REFERENCE_RTOL):
    """Problems found comparing lapp values; +-inf must match exactly."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"lapp shape {got.shape} != reference {ref.shape}"]
    if np.isnan(got).any():
        return ["lapp contains NaN"]
    inf = np.isinf(ref)
    if not np.array_equal(np.isinf(got), inf) or not np.array_equal(got[inf], ref[inf]):
        return ["infinite lapp entries differ from the reference"]
    err = np.abs(got[~inf] - ref[~inf]) / np.maximum(np.abs(ref[~inf]), 1.0)
    if err.size and err.max() > rtol:
        return [f"lapp deviates from the reference by {err.max():.3e} (relative)"]
    return []


def pair_deviation(got_pairs, ref_pairs):
    """Largest relative deviation between posterior pairs, as `oracle-check` measures it."""
    denom = np.maximum(np.abs(ref_pairs), 1e-300)
    return float(np.max(np.abs(got_pairs - ref_pairs) / denom)) if ref_pairs.size else 0.0


def oracle_pairs(matrix, t, prior, noise):
    reference = oracle.enumerate_posteriors(matrix, t, prior, noise)
    total = reference.total_mass
    return np.stack([reference.mass0 / total, reference.mass1 / total], axis=1), float(total[0])


def oracle_check(seed, ledger, cases=ORACLE_CASES):
    """Compare the engine with enumeration on small random instances.

    Even cases decode a BSC outcome on a complete trellis, odd cases a
    noiseless outcome on a reduced trellis.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    rng.bit_generator.advance(1 << 60)  # a lane no workload input uses
    for case in range(cases):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 13))
        matrix = model.TestMatrix((rng.random((m, n)) < 0.5).astype(np.uint8))
        prior = model.Prior((0.05, 0.3)[(case // 2) % 2])
        x = (rng.random(n) < prior.delta).astype(np.uint8)
        t = syndrome(matrix.entries, x)
        problems = []
        try:
            if case % 2 == 0:
                noise = model.Bsc(0.1)
                t = (t ^ (rng.random(m) < noise.epsilon)).astype(np.uint8)
                result = fb.run(tr.build_complete(matrix), prior, noise, t)
            else:
                noise = model.Noiseless()
                result = fb.run(tr.build_reduced(matrix, t), prior, noise, t)
            ref_pairs, evidence = oracle_pairs(matrix, t, prior, noise)
            worst = max(
                pair_deviation(fb.posterior_pairs(result), ref_pairs),
                abs(math.exp(result.log_evidence) - evidence) / evidence,
            )
            if not worst <= ORACLE_TOLERANCE:
                problems.append(f"oracle case {case}: deviation {worst:.3e}")
        except Exception as exc:  # a crash is a failed check, not a stopped run
            problems.append(f"oracle case {case}: {exc!r}")
        ledger.oracle_checks += 1
        ledger.record(problems)


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


# --------------------------------------------------------------------------
# ROC sweeps through the CLI


def parse_roc(text):
    """CSV rows as (lambda, fa_events, fa_trials, md_events, md_trials)."""
    rows = []
    for line in text.splitlines():
        if line and not line.startswith("#") and not line.startswith("lambda"):
            parts = line.split(",")
            rows.append((float(parts[0]), *(int(p) for p in parts[3:7])))
    return rows


def event_counts(rows):
    return [[r[1], r[3]] for r in rows]


def roc_invariant_problems(rows, trials, n):
    if not rows:
        return ["ROC output has no rows"]
    problems = []
    if any(fa_t + md_t != trials * n for _, _, fa_t, _, md_t in rows):
        problems.append("fa_trials + md_trials != trials * n")
    fa = [r[1] for r in rows]
    md = [r[3] for r in rows]
    if any(a > b for a, b in zip(fa, fa[1:])):
        problems.append("fa_events decreases with lambda")
    if any(a < b for a, b in zip(md, md[1:])):
        problems.append("md_events increases with lambda")
    return problems


class Roc:
    """`grouptrellis roc` sweeps at a stated trial count; one sweep is one operation."""

    # a run holds about 10 sweeps, too few for a percentile with 10 samples beyond it
    tail_q = 75
    tail_label = "p75"

    def __init__(self, name, why, design, n, trials, check_trials, min_ops):
        self.name = name
        self.why = why
        self.design = design
        self.n = n
        self.trials = trials
        self.check_trials = check_trials
        self.units_per_op = trials
        self.min_ops = min_ops
        self.reference = None

    def argv(self, trials, seed):
        return ["roc", *self.design, "--trials", str(trials), "--seed", str(seed), "--workers", "1"]

    def describe(self):
        return {"command": "grouptrellis " + " ".join(self.argv(self.trials, "SWEEP_SEED"))}

    def setup(self):
        return None

    def requests(self, seed):
        return (seed * SWEEP_SEED_STRIDE + i for i in itertools.count())

    def execute(self, state, sweep_seed):
        return run_cli(self.argv(self.trials, sweep_seed))

    def _problems(self, out, trials, reference):
        code, text = out
        if code != 0:
            return [f"roc exited with {code}"]
        rows = parse_roc(text)
        problems = roc_invariant_problems(rows, trials, self.n)
        if reference is not None and event_counts(rows) != reference:
            problems.append("ROC event counts differ from the reference")
        return problems

    def check(self, state, sweep_seed, out):
        # the full-size reference exists for the first sweep of the default seed
        ref = self.reference["sweep"] if sweep_seed == DEFAULT_SEED * SWEEP_SEED_STRIDE else None
        return self._problems(out, self.trials, ref)

    def reference_check(self, state, ledger):
        try:
            out = run_cli(self.argv(self.check_trials, DEFAULT_SEED))
            ledger.record(self._problems(out, self.check_trials, self.reference["short"]))
        except Exception as exc:
            ledger.record([f"reference sweep: {exc!r}"])

    def record_reference(self, state):
        short = run_cli(self.argv(self.check_trials, DEFAULT_SEED))[1]
        sweep = self.execute(state, DEFAULT_SEED * SWEEP_SEED_STRIDE)[1]
        return {"short": event_counts(parse_roc(short)), "sweep": event_counts(parse_roc(sweep))}


# --------------------------------------------------------------------------
# Decode requests


class Decode:
    """Shared request stream of the decode workloads: x from the prior, t from x."""

    units_per_op = 1
    reference_requests = 10

    def __init__(self, name, why, design, delta, eps, tail_q, min_ops):
        self.name = name
        self.why = why
        self.design_fn, self.design_args = design  # a generator in grouptrellis.matrices
        self.prior = model.Prior(delta)
        self.noise = model.Bsc(eps) if eps else model.Noiseless()
        self.tail_q = tail_q
        self.tail_label = f"p{tail_q}"
        self.min_ops = min_ops
        self.reference = None

    def design(self):
        return getattr(matrices, self.design_fn)(*self.design_args)

    def describe(self):
        return {
            "design": f"{self.design_fn}{self.design_args}",
            "delta": self.prior.delta,
            "noise": f"bsc {self.noise.epsilon}" if isinstance(self.noise, model.Bsc) else "noiseless",
            "request": "x ~ Bernoulli(delta)^n, t = OR syndrome of x through the noise",
            "min_requests": self.min_ops,
        }

    def requests(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        entries = self.design().entries
        m, n = entries.shape
        while True:
            x = (rng.random(n) < self.prior.delta).astype(np.uint8)
            t = syndrome(entries, x)
            if isinstance(self.noise, model.Bsc):
                t = (t ^ (rng.random(m) < self.noise.epsilon)).astype(np.uint8)
            yield x, t

    def reference_check(self, state, ledger):
        for i, req in zip(range(self.reference_requests), self.requests(DEFAULT_SEED)):
            try:
                lapp = self.lapp_of(self.execute(state, req))
                ledger.record(compare_lapp(lapp, self.reference[i]))
            except Exception as exc:
                ledger.record([f"reference request {i}: {exc!r}"])

    def record_reference(self, state):
        return [
            self.lapp_of(self.execute(state, req)).tolist()
            for _, req in zip(range(self.reference_requests), self.requests(DEFAULT_SEED))
        ]


class DecodeComplete(Decode):
    """Library requests on one prebuilt complete trellis: run, posterior_pairs, decide."""

    rule = decision.ThresholdRule(threshold=0.0)

    def setup(self):
        matrix = self.design()
        return tr.build_complete(matrix)

    def execute(self, trellis, req):
        _, t = req
        result = fb.run(trellis, self.prior, self.noise, t)
        pairs = fb.posterior_pairs(result)
        flags = decision.decide(result.lapp, self.rule)
        return result.lapp, pairs, flags, result.log_evidence

    @staticmethod
    def lapp_of(out):
        return out[0]

    def check(self, trellis, req, out):
        lapp, pairs, flags, log_evidence = out
        problems = []
        if lapp.shape != (trellis.n,) or np.isnan(lapp).any():
            problems.append("lapp has the wrong shape or NaN entries")
        elif not np.array_equal(flags, (lapp <= 0.0).astype(np.uint8)):
            problems.append("decisions disagree with lapp <= 0")
        if not np.allclose(pairs.sum(axis=1), 1.0, rtol=0, atol=1e-12):
            problems.append("posterior pairs do not sum to one")
        if not math.isfinite(log_evidence):
            problems.append("log evidence is not finite")
        return problems


class AppReduced(Decode):
    """`grouptrellis app --trellis reduced` per noiseless outcome, through the CLI."""

    def setup(self):
        return self.design()

    def argv(self, t):
        vertices, subset_size = self.design_args
        return [
            "app", "--kind", "hypergraph", "--vertices", str(vertices), "--subset-size",
            str(subset_size), "--trellis", "reduced", "--delta", str(self.prior.delta),
            "--outcome", "".join(map(str, t)),
        ]  # fmt: skip

    def execute(self, matrix, req):
        return run_cli(self.argv(req[1]))

    @staticmethod
    def parse(text):
        rows = [
            line.split()
            for line in text.splitlines()
            if line and not line.startswith("#") and not line.startswith("element")
        ]
        lapp = np.array([float(r[1]) for r in rows])
        pairs = np.array([[float(r[2]), float(r[3])] for r in rows]).reshape(-1, 2)
        flags = np.array([int(r[4]) for r in rows], dtype=np.uint8)
        return lapp, pairs, flags

    def lapp_of(self, out):
        code, text = out
        if code != 0:
            raise RuntimeError(f"app exited with {code}")
        return self.parse(text)[0]

    def check(self, matrix, req, out):
        x, t = req
        code, text = out
        if code != 0:
            return [f"app exited with {code}"]
        lapp, pairs, flags = self.parse(text)
        if lapp.shape != (matrix.n,) or np.isnan(lapp).any():
            return ["lapp has the wrong shape or NaN entries"]
        covered = matrix.entries[t == 0].sum(axis=0) > 0
        problems = []
        # members of silent tests are certainly clear; every other element may be defective
        if not np.array_equal(np.isposinf(lapp), covered):
            problems.append("+inf lapp entries are not exactly the silent-test members")
        # the default +inf threshold is the COMP decoder
        if not np.array_equal(flags, (~covered).astype(np.uint8)):
            problems.append("decisions disagree with COMP")
        if np.any(np.isposinf(lapp[x == 1])):
            problems.append("a defective element was cleared")
        if not np.allclose(pairs.sum(axis=1), 1.0, rtol=0, atol=1e-10):
            problems.append("posterior pairs do not sum to one")
        kept = np.flatnonzero(~covered)
        if 0 < kept.size <= ORACLE_MAX_KEPT:
            fired = np.flatnonzero(t == 1)
            if fired.size:
                sub = model.TestMatrix(matrix.entries[np.ix_(fired, kept)])
                ones = np.ones(fired.size, np.uint8)
                ref_pairs, _ = oracle_pairs(sub, ones, self.prior, model.Noiseless())
            else:  # nothing fired: kept elements keep their prior
                delta = self.prior.delta
                ref_pairs = np.tile([1.0 - delta, delta], (kept.size, 1))
            worst = pair_deviation(pairs[kept], ref_pairs)
            if not worst <= ORACLE_TOLERANCE:
                problems.append(f"reduced sub-problem deviates from the oracle by {worst:.3e}")
        return problems


# --------------------------------------------------------------------------
# Catalogue

_WHY = {
    "roc-bernoulli-bsc": "3.9k final states and about 2.5k distinct outcomes in 13 miss batches: "
    "the batched forward-backward engine takes about 90% of the time and sets peak memory",
    "decode-complete-bsc": "single requests on a prebuilt complete 16x64 trellis: the engine at K=1, "
    "where the forward pass costs as much as the backward pass",
    "app-reduced-noiseless": "each CLI request on the 9x84 hypergraph design builds and prunes its own "
    "reduced trellis: the only workload covering trellis reduction and the per-request CLI path",
}

#: Sizes per scale; "tiny" is for the smoke tests only.
_SIZES = {
    "full": {
        "bern": (12, 48, 0.15),
        "bern_trials": 100_000,
        "complete": (16, 64, 0.1, 0),
        "app": (9, 3),
        "check_trials": 8192,
        "min_ops": (4, 200, 2000),
    },
    "tiny": {
        "bern": (8, 24, 0.2),
        "bern_trials": 5_000,
        "complete": (8, 24, 0.2, 0),
        "app": (6, 3),
        "check_trials": 2048,
        "min_ops": (2, 20, 200),
    },
}

NAMES = tuple(_WHY)


def make(name, scale="full", reference=None):
    """The workload called `name` at `scale`, with its recorded reference attached."""
    size = _SIZES[scale]
    rows, cols, density = size["bern"]
    min_roc, min_complete, min_app = size["min_ops"]
    if name == "roc-bernoulli-bsc":
        design = [
            "--kind", "bernoulli", "--rows", str(rows), "--cols", str(cols),
            "--density", str(density), "--matrix-seed", "0", "--delta", "0.02", "--eps", "0.05",
        ]  # fmt: skip
        wl = Roc(name, _WHY[name], design, cols, size["bern_trials"], size["check_trials"], min_roc)
    elif name == "decode-complete-bsc":
        design = ("bernoulli_matrix", size["complete"])
        wl = DecodeComplete(name, _WHY[name], design, 0.05, 0.05, 90, min_complete)
    elif name == "app-reduced-noiseless":
        design = ("hypergraph_incidence", size["app"])
        wl = AppReduced(name, _WHY[name], design, 0.05, 0.0, 99, min_app)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if reference is None:
        reference = load_reference()
    wl.reference = reference.get(scale, {}).get(name)
    return wl
