"""Benchmark-side tracing of abperc, and the per-layer metrics read from it.

Spans are recorded around calls into each module's public functions. A
function is wrapped where it is looked up: modules import functions by name,
so ``percolation.build_unigraph`` is patched in ``abperc.percolation``, not in
``abperc.geomgraph``. Nothing under ``src/`` is changed. A lookup site that no
longer exists is recorded as absent, and every metric that needs it is left
out instead of failing the run.

Run as a script, it makes one abperc CLI call in-process under the tracer and
writes the metrics as JSON::

    python bench/tracer.py RESULT.json [--counters-only] -- <abperc argv>

``--counters-only`` wraps only the process-pool boundary (a handful of calls
per run), so that run's wall and CPU time stand for an untraced run.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import sys
import time

# span name -> lookup sites ("module:attribute.path") wrapped under that name
SPANS = {
    "reporting.write": ("abperc.cli:write_csv", "abperc.cli:write_summary"),
    "pointprocess.prefix": ("abperc.pointprocess:CoupledSampler.prefix",),
    "geomgraph.build": ("abperc.percolation:build_unigraph",
                        "abperc.percolation:build_bipartite"),
    "geomgraph.grid": ("abperc.geomgraph:NeighborGrid.__init__",),
    "geomgraph.pairs_against": ("abperc.geomgraph:NeighborGrid.pairs_against",),
    "geomgraph.components": ("abperc.geomgraph:components",),
    "geomgraph.crossing": ("abperc.percolation:crossing_exists",),
    "percolation.driver": ("abperc.percolation:estimate_lambda_c",
                           "abperc.percolation:estimate_mu_c",
                           "abperc.percolation:crossing_probability"),
    "percolation.probe": ("abperc.percolation:parallel_starmap",),
    "percolation.trial": ("abperc.percolation:one_type_crossing_trial",
                          "abperc.percolation:ab_crossing_trial",
                          "abperc.percolation:dense_b_limit_trial"),
    "connectivity.rho_threshold": ("abperc.connectivity:rho_threshold",),
    "connectivity.cap_pass": ("abperc.connectivity:_sweep_to_connectivity",),
    "connectivity.starmap": ("abperc.connectivity:parallel_starmap",),
    "parallel.pool": ("abperc.parallel:ProcessPoolExecutor",),
}
COUNTER_SPANS = {name: SPANS[name] for name in
                 ("percolation.probe", "connectivity.starmap", "parallel.pool")}

# spans that generate neighbour pairs; the outermost one in a chain is counted
PAIR_SPANS = frozenset({"geomgraph.build", "geomgraph.grid", "geomgraph.pairs_against"})


def _edge_count(graph):
    edges = graph.edges_u if hasattr(graph, "edges_u") else graph.edges_left
    return len(edges)


# span name -> quantity read from (args, result) after the call
MEASURES = {
    "reporting.write": lambda args, result: os.path.getsize(args[0]),
    "pointprocess.prefix": lambda args, result: len(result),
    "geomgraph.build": lambda args, result: _edge_count(result),
    "geomgraph.pairs_against": lambda args, result: len(result[0]),
    "percolation.probe": lambda args, result: len(result),
    "connectivity.starmap": lambda args, result: len(result),
}


def resolve(site):
    """(owner, attribute) for a "module:attr.path" lookup site; LookupError if gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(site) from exc
    *parents, attr = path.split(".")
    for name in parents:
        if not hasattr(owner, name):
            raise LookupError(site)
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise LookupError(site)
    return owner, attr


class Tracer:
    """In-memory spans: [name, start, end, parent index, measured quantity]."""

    def __init__(self):
        self.spans = []
        self.absent = set()
        self._stack = []
        self._restore = []

    def span(self, name, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._call(name, None, fn, args, kwargs)

    def _call(self, name, measure, fn, args, kwargs):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if measure is not None:
            try:
                record[4] = measure(args, result)
            except (AttributeError, TypeError, IndexError, OSError):
                record[4] = None
        return result

    def install(self, spans):
        """Wrap every lookup site of ``spans`` (name -> sites); record the missing ones."""
        for name, sites in spans.items():
            for site in sites:
                try:
                    owner, attr = resolve(site)
                except LookupError:
                    self.absent.add(name)
                    continue
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrapper(name, original))
                self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrapper(self, name, original):
        measure = MEASURES.get(name)

        def wrapper(*args, **kwargs):
            return self._call(name, measure, original, args, kwargs)

        return wrapper


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values, p):
    """Nearest-rank p-th percentile, or None when fewer than ten samples lie beyond it."""
    n = len(values)
    rank = math.ceil(p * n / 100.0)
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


class SpanIndex:
    """Queries over a list of spans as recorded by Tracer."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(i)

    def named(self, name):
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def duration(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i):
        """Duration minus the time covered by direct children."""
        return self.duration(i) - self.total(self.children[i])

    def self_total(self, name):
        return sum((self.self_time(i) for i in self.named(name)), 0.0)

    def outermost(self, names, root=None):
        """Spans named in ``names`` with no ancestor named in ``names``.

        With ``root``, only those inside the subtree of span ``root``.
        """
        found = []
        stack = list(self.children[root]) if root is not None else [
            i for i, span in enumerate(self.spans) if span[3] < 0]
        while stack:
            i = stack.pop()
            if self.spans[i][0] in names:
                found.append(i)
            else:
                stack.extend(self.children[i])
        return found

    def total(self, indices):
        return sum((self.duration(i) for i in indices), 0.0)

    def quantity(self, indices):
        values = [self.spans[i][4] for i in indices]
        return None if None in values else sum(values)


# per-layer metric -> (unit, spans it needs)
LAYER_METRICS = {
    "pointprocess.prefix_s": ("s", ("pointprocess.prefix",)),
    "pointprocess.prefix_calls": ("count", ("pointprocess.prefix",)),
    "pointprocess.points": ("count", ("pointprocess.prefix",)),
    "geomgraph.pairs_s": ("s", tuple(sorted(PAIR_SPANS))),
    "geomgraph.pairs": ("count", tuple(sorted(PAIR_SPANS))),
    "geomgraph.components_s": ("s", ("geomgraph.components",)),
    "geomgraph.crossing_self_s": ("s", ("geomgraph.crossing", "geomgraph.components")),
    "connectivity.rho_threshold_calls": ("count", ("connectivity.rho_threshold",)),
    "connectivity.rho_threshold_s_p50": ("s", ("connectivity.rho_threshold",)),
    "connectivity.rho_threshold_s_max": ("s", ("connectivity.rho_threshold",)),
    "connectivity.sweep_self_s": ("s", ("connectivity.rho_threshold", *sorted(PAIR_SPANS))),
    "connectivity.cap_passes": ("count", ("connectivity.cap_pass",)),
    "percolation.probes": ("count", ("percolation.probe",)),
    "percolation.trials": ("count", ("percolation.trial",)),
    "percolation.trial_ms_p50": ("ms", ("percolation.trial",)),
    "percolation.trial_ms_p99": ("ms", ("percolation.trial",)),
    "percolation.driver_self_s": ("s", ("percolation.driver", "percolation.probe")),
    "reporting.write_s": ("s", ("reporting.write",)),
    "reporting.bytes": ("bytes", ("reporting.write",)),
    "cli.main_s": ("s", ()),
}
PARALLEL_METRICS = {
    "parallel.pools": ("count", ("parallel.pool",)),
    "parallel.tasks": ("count", ("percolation.probe", "connectivity.starmap")),
    "parallel.starmap_s": ("s", ("percolation.probe", "connectivity.starmap")),
}


def _values(index):
    """Every metric of LAYER_METRICS and PARALLEL_METRICS; None where unmeasurable."""
    trials_ms = [1e3 * index.duration(i) for i in index.named("percolation.trial")]
    rho = [index.duration(i) for i in index.named("connectivity.rho_threshold")]
    pairs = index.outermost(PAIR_SPANS)
    starmaps = index.named("percolation.probe") + index.named("connectivity.starmap")
    writes = index.named("reporting.write")
    prefixes = index.named("pointprocess.prefix")
    return {
        "pointprocess.prefix_s": index.total(prefixes),
        "pointprocess.prefix_calls": len(prefixes),
        "pointprocess.points": index.quantity(prefixes),
        "geomgraph.pairs_s": index.total(pairs),
        "geomgraph.pairs": index.quantity(
            [i for i in pairs if index.spans[i][0] != "geomgraph.grid"]),
        "geomgraph.components_s": index.total(index.named("geomgraph.components")),
        "geomgraph.crossing_self_s": index.self_total("geomgraph.crossing"),
        "connectivity.rho_threshold_calls": len(rho),
        "connectivity.rho_threshold_s_p50": median(rho),
        "connectivity.rho_threshold_s_max": max(rho, default=0.0),
        "connectivity.sweep_self_s": sum((
            index.duration(i) - index.total(index.outermost(PAIR_SPANS, root=i))
            for i in index.named("connectivity.rho_threshold")), 0.0),
        "connectivity.cap_passes": len(index.named("connectivity.cap_pass")),
        "percolation.probes": len(index.named("percolation.probe")),
        "percolation.trials": len(trials_ms),
        "percolation.trial_ms_p50": median(trials_ms),
        "percolation.trial_ms_p99": tail_percentile(trials_ms, 99) if trials_ms else 0.0,
        "percolation.driver_self_s": index.self_total("percolation.driver"),
        "reporting.write_s": index.total(writes),
        "reporting.bytes": index.quantity(writes),
        "cli.main_s": index.total(index.named("cli.main")),
        "parallel.pools": len(index.named("parallel.pool")),
        "parallel.tasks": index.quantity(starmaps),
        "parallel.starmap_s": index.total(starmaps),
    }


def layer_metrics(spans, absent, table):
    """Metrics of ``table`` as {name: {"value", "unit"}}, and the names left out.

    A metric is left out when a span it needs had an absent lookup site, or
    when its value cannot be measured (a percentile with too few samples
    beyond it, a quantity the program's return value no longer carries). A
    layer that made no calls reads 0.
    """
    values = _values(SpanIndex(spans))
    metrics, missing = {}, []
    for name, (unit, needs) in table.items():
        value = values[name]
        if value is None or absent.intersection(needs):
            missing.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, missing


def main(argv):
    sep = argv.index("--")
    result_path, flags, cli_argv = argv[0], argv[1:sep], argv[sep + 1:]
    counters_only = "--counters-only" in flags
    import abperc.cli

    tracer = Tracer()
    tracer.install(COUNTER_SPANS if counters_only else SPANS)
    rc = tracer.span("cli.main", abperc.cli.main, cli_argv)
    tracer.uninstall()
    table = PARALLEL_METRICS if counters_only else LAYER_METRICS
    metrics, missing = layer_metrics(tracer.spans, tracer.absent, table)
    with open(result_path, "w") as fh:
        json.dump({"rc": rc, "abperc_file": abperc.cli.__file__, "metrics": metrics,
                   "missing": missing, "absent_spans": sorted(tracer.absent)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
