"""Per-layer tracing from outside the package.

The tracer replaces each public entry point at the name its caller looks it up
(`grouptrellis.montecarlo.posterior_table`, `grouptrellis.cli.build_reduced`,
`Bsc.likelihood_table`, ...) with a wrapper that records a span: name, layer,
start, end, parent span and request id.  Spans stay in memory and are written
out when the run ends.  A layer is the package module that defines the
function.  The benchmark's own request loop opens one root span per request
(layer `bench`); time inside a root span that no layer span covers is the
run's unattributed time.

Wrappers record only while a request window is open, so correctness checks
run between requests leave no spans.  Single-threaded use only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import json
import statistics
import time
import tracemalloc

#: Where the package's callers look up each traced entry point.
TARGETS = {
    "grouptrellis": (
        "run", "posterior_table", "posterior_pairs", "build_complete", "build_reduced",
        "expurgate", "decide", "sweep_roc", "bernoulli_matrix", "ebch_64_57_parity_check",
        "hypergraph_incidence", "enumerate_posteriors",
    ),
    "grouptrellis.cli": (
        "main", "run", "posterior_pairs", "build_complete", "build_reduced", "expurgate",
        "decide", "bernoulli_matrix", "ebch_64_57_parity_check", "hypergraph_incidence",
        "enumerate_posteriors",
    ),
    "grouptrellis.montecarlo": ("sweep_roc", "build_complete", "posterior_table"),
    "grouptrellis.forward_backward": ("run", "posterior_table", "posterior_pairs"),
    "grouptrellis.trellis": ("build_complete", "build_reduced", "expurgate"),
    "grouptrellis.decision": ("decide",),
    "grouptrellis.matrices": ("bernoulli_matrix", "ebch_64_57_parity_check", "hypergraph_incidence"),
    "grouptrellis.model": (
        "Bsc.likelihood_table", "Bsc.likelihood_packed",
        "Noiseless.likelihood_table", "Noiseless.likelihood_packed",
    ),
    "grouptrellis.oracle": ("enumerate_posteriors",),
}  # fmt: skip

LAYERS = ("cli", "montecarlo", "forward_backward", "model", "trellis", "decision", "matrices")

#: Batched engine calls run under tracemalloc; single decodes do not, because
#: tracing their many small allocations would swamp their self time.
_ALLOC_SPANS = {"forward_backward.posterior_table"}

#: Per-layer metrics and their units, in the order they are reported.
UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "montecarlo.unique_outcomes": "count",
    "montecarlo.miss_batches": "count",
    "montecarlo.cache_hit_ratio": "hits/trials",
    "forward_backward.self_share": "s/s",
    "forward_backward.posterior_table_self_s": "s",
    "forward_backward.rows_per_s": "1/s",
    "forward_backward.beta_bytes_computed": "bytes",
    "forward_backward.peak_alloc_mb": "MB",
    "forward_backward.run_ms_p50": "ms",
    "forward_backward.posterior_pairs_s": "s",
    "model.likelihood_table_s": "s",
    "model.likelihood_table_bytes": "bytes",
    "trellis.build_complete_s": "s",
    "trellis.states": "count",
    "trellis.max_states": "count",
    "trellis.edges": "count",
    "trellis.bytes_computed": "bytes",
    "trellis.build_reduced_ms_p50": "ms",
    "trellis.reduced_states_mean": "count",
    "decision.decide_s": "s",
    "matrices.generate_s": "s",
    "oracle.checks": "count",
    "trace.overhead_ratio": "s/s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}


@dataclasses.dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    request: object


def _trellis_stats(trellis):
    states = [s.size for s in trellis.states]
    arrays = [a for sec in trellis.sections for a in (sec.zero_src, sec.zero_dst, sec.one_src, sec.one_dst)]
    return {
        "states": sum(states),
        "max_states": max(states),
        "edges": sum(a.size for a in arrays) // 2,
        "bytes": sum(s.nbytes for s in trellis.states) + sum(a.nbytes for a in arrays),
    }


class Tracer:
    """Installs span-recording wrappers and turns the spans into layer metrics."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.request_id = None
        self._stack = []
        self._installed = []  # (owner, attribute, original, owned)
        self.counts = {"rows": 0, "beta_bytes": 0, "lt_bytes": 0, "trials": 0, "peak_alloc": 0}
        self.largest_trellis = None
        self.reduced_states = []

    # -- installing ------------------------------------------------------

    def install(self):
        for _, owner, attr in targets():
            original = getattr(owner, attr, None)
            if original is None:
                continue  # a later version of the package may drop a name
            owned = attr in vars(owner)
            self._installed.append((owner, attr, original, owned))
            setattr(owner, attr, self._wrap(original))

    def uninstall(self):
        for owner, attr, original, owned in reversed(self._installed):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__qualname__}"
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer._call(fn, name, layer, args, kwargs)
            if hook:
                hook(tracer, signature.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.perfbench_traced = True
        return wrapper

    def _call(self, fn, name, layer, args, kwargs):
        index = len(self.spans)
        span = Span(name, layer, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request_id)
        self.spans.append(span)
        self._stack.append(index)
        alloc = name in _ALLOC_SPANS and not tracemalloc.is_tracing()
        if alloc:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if alloc:
                self.counts["peak_alloc"] = max(self.counts["peak_alloc"], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

    @contextlib.contextmanager
    def request(self, request_id):
        """Record a root span for one request and let the wrappers record inside it."""
        root = Span("bench.request", "bench", 0.0, 0.0, None, request_id)
        self._stack.append(len(self.spans))
        self.spans.append(root)
        self.request_id = request_id
        self.active = True
        root.start = time.perf_counter()
        try:
            yield
        finally:
            root.end = time.perf_counter()
            self.active = False
            self._stack.pop()

    # -- reporting -------------------------------------------------------

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({"id": i, **dataclasses.asdict(s)}) + "\n")

    def metrics(self, untraced_wall_s, oracle_checks):
        """(per-layer metric values, problems found in the span tree)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        self_by_layer = {layer: 0.0 for layer in (*LAYERS, "bench", "oracle")}
        self_by_name, durations = {}, {}
        for i, s in enumerate(self.spans):
            own = s.end - s.start - child[i]
            self_by_layer[s.layer] = self_by_layer.get(s.layer, 0.0) + own
            self_by_name[s.name] = self_by_name.get(s.name, 0.0) + own
            durations.setdefault(s.name, []).append(s.end - s.start)
        wall = sum(s.end - s.start for s in self.spans if s.parent is None)
        problems = []
        worst = min((s.end - s.start - child[i] for i, s in enumerate(self.spans)), default=0.0)
        if worst < -1e-6:
            problems.append(f"a span's children outlast it by {-worst:.3g} s")
        if abs(sum(self_by_layer.values()) - wall) > 1e-6 * max(1.0, wall):
            problems.append("layer self times do not add up to the traced wall time")

        def total(*names):
            return sum(sum(durations.get(n, ())) for n in names)

        def median_ms(name):
            return 1e3 * statistics.median(durations[name]) if name in durations else 0.0

        c = self.counts
        table_time = total("forward_backward.posterior_table")
        largest = self.largest_trellis or {"states": 0, "max_states": 0, "edges": 0, "bytes": 0}
        values = {
            **{f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS},
            "montecarlo.unique_outcomes": c["rows"],
            "montecarlo.miss_batches": len(durations.get("forward_backward.posterior_table", ())),
            "montecarlo.cache_hit_ratio": 1.0 - c["rows"] / c["trials"] if c["trials"] else 0.0,
            "forward_backward.self_share": self_by_layer["forward_backward"] / wall if wall else 0.0,
            "forward_backward.posterior_table_self_s": self_by_name.get("forward_backward.posterior_table", 0.0),
            "forward_backward.rows_per_s": c["rows"] / table_time if table_time else 0.0,
            "forward_backward.beta_bytes_computed": c["beta_bytes"],
            "forward_backward.peak_alloc_mb": c["peak_alloc"] / 2**20,
            "forward_backward.run_ms_p50": median_ms("forward_backward.run"),
            "forward_backward.posterior_pairs_s": total("forward_backward.posterior_pairs"),
            "model.likelihood_table_s": total("model.Bsc.likelihood_table", "model.Noiseless.likelihood_table"),
            "model.likelihood_table_bytes": c["lt_bytes"],
            "trellis.build_complete_s": total("trellis.build_complete"),
            "trellis.states": largest["states"],
            "trellis.max_states": largest["max_states"],
            "trellis.edges": largest["edges"],
            "trellis.bytes_computed": largest["bytes"],
            "trellis.build_reduced_ms_p50": median_ms("trellis.build_reduced"),
            "trellis.reduced_states_mean": statistics.fmean(self.reduced_states) if self.reduced_states else 0.0,
            "decision.decide_s": total("decision.decide"),
            "matrices.generate_s": total(
                "matrices.bernoulli_matrix", "matrices.ebch_64_57_parity_check", "matrices.hypergraph_incidence"
            ),
            "oracle.checks": oracle_checks,
            "trace.overhead_ratio": wall / untraced_wall_s if untraced_wall_s else 0.0,
            "trace.wall_s": wall,
            "trace.unattributed_s": self_by_layer["bench"],
            "trace.spans": len(self.spans),
        }  # fmt: skip
        return values, problems


# -- counters recorded at the layer boundaries ----------------------------


def _on_posterior_table(tracer, args, result):
    k = len(args["outcomes"])
    tracer.counts["rows"] += k
    tracer.counts["beta_bytes"] += sum(s.size for s in args["trellis"].states) * k * 8


def _on_run(tracer, args, result):
    tracer.counts["beta_bytes"] += sum(s.size for s in args["trellis"].states) * 8


def _on_likelihood_table(tracer, args, result):
    tracer.counts["lt_bytes"] += result.nbytes


def _on_build_complete(tracer, args, result):
    stats = _trellis_stats(result)
    if tracer.largest_trellis is None or stats["states"] > tracer.largest_trellis["states"]:
        tracer.largest_trellis = stats


def _on_build_reduced(tracer, args, result):
    tracer.reduced_states.append(sum(s.size for s in result.states))


def _on_sweep(tracer, args, result):
    tracer.counts["trials"] += args["trials"]


_HOOKS = {
    "forward_backward.posterior_table": _on_posterior_table,
    "forward_backward.run": _on_run,
    "model.Bsc.likelihood_table": _on_likelihood_table,
    "model.Noiseless.likelihood_table": _on_likelihood_table,
    "trellis.build_complete": _on_build_complete,
    "trellis.build_reduced": _on_build_reduced,
    "montecarlo.sweep_roc": _on_sweep,
}


def targets():
    """(full name, owning module or class, attribute) for every entry in TARGETS."""
    for module_name, names in TARGETS.items():
        module = importlib.import_module(module_name)
        for dotted in names:
            *owner_path, attr = dotted.split(".")
            yield f"{module_name}.{dotted}", functools.reduce(getattr, owner_path, module), attr


def leftover_wrappers():
    """Names in the package that still hold a tracing wrapper."""
    return [
        name
        for name, owner, attr in targets()
        if getattr(getattr(owner, attr, None), "perfbench_traced", False)
    ]
