"""Per-layer metrics: which public functions are wrapped, and how the
recorded spans become the ``per_layer`` figures of a traced run.

Every per-layer metric is printed on every workload; a layer the
workload never calls reads 0.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from common import median, percentile_value
from spans import Span, Tracer

#: name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER: Dict[str, str] = {
    "runner.trial_ms": "ms",
    "sim.ns_per_event": "ns",
    "sim.events": "count",
    "obs.digest_share": "ratio",
    "pool.tasks": "count",
    "pool.tasks_per_chunk": "count",
    "pool.stolen_tasks": "count",
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "wire.frame_bytes": "bytes",
    "cache.get_us": "us",
    "cache.put_us": "us",
    "cache.bytes_read": "bytes",
    "cache.hit_ratio": "ratio",
    "parallel.plan_us_per_cell": "us",
    "report.format_ms": "ms",
    "analytic.eligible_cells": "count",
    "patterns.point_ms": "ms",
    "proxy.snap_ms": "ms",
    "mpi.cluster_run_ms": "ms",
    "scheduler.queue_ms": "ms",
    "scheduler.requests_per_batch": "count",
    "scheduler.batches": "count",
    "protocol.parse_us": "us",
    "protocol.encode_us": "us",
    "server.handler_ms": "ms",
    "service.hot_p50_ms": "ms",
    "service.cold_p50_ms": "ms",
    "service.timeouts": "count",
    "service.rejected": "count",
    "service.server_errors": "count",
    "service.wrong_digest": "count",
    "loadgen.late_p99_ms": "ms",
    "host.probe_ms": "ms",
    "host.raw_latency_p50_ms": "ms",
    "trace.overhead": "ratio",
}


class Instrumentation:
    """The tracer plus the engine-layer patches that feed it."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        #: Every cell config a traced sweep planned, in order.
        self.planned: List = []

    def install(self) -> None:
        import repro.cli as cli
        import repro.core.parallel as parallel
        import repro.core.pool as pool
        import repro.mpi.cluster as cluster
        import repro.patterns.runner as patterns
        import repro.proxy.projection as projection
        wrap = self.tracer.wrap

        def planned(span, args, result):
            self.planned.extend(result)
            span.extra["cells"] = len(result)

        def hit(span, args, result):
            span.extra["hit"] = int(result is not None)

        def frame_in(span, args, result):
            span.extra["bytes"] = len(args[1])

        def frame_out(span, args, result):
            span.extra["bytes"] = len(result)

        def events_before(span, args):
            span.extra["events"] = -args[0].sim.events_processed

        def events_after(span, args, result):
            span.extra["events"] += args[0].sim.events_processed

        wrap(parallel, "run_cells", "parallel.run_cells")
        wrap(parallel, "plan_cells", "parallel.plan", measure=planned)
        wrap(parallel, "config_fingerprint", "parallel.fingerprint")
        wrap(parallel.ResultCache, "get", "cache.get", measure=hit)
        wrap(parallel.ResultCache, "put", "cache.put")
        wrap(parallel, "decode_result", "wire.decode", measure=frame_in)
        wrap(pool, "decode_result", "wire.decode", measure=frame_in)
        wrap(parallel, "encode_result", "wire.encode", measure=frame_out)
        for name in ("metric_table", "ascii_table", "series_table"):
            wrap(cli, name, "report.format")
        wrap(parallel, "run_ptp_benchmark", "runner.trial")
        wrap(cluster.Cluster, "run", "mpi.cluster_run",
             measure=events_after, on_start=events_before)
        wrap(patterns, "run_motif", "patterns.run_motif")
        wrap(projection, "run_snap", "proxy.run_snap")


def _mean_ms(spans: List[Span], scale: float = 1e3) -> float:
    return sum(s.duration for s in spans) / len(spans) * scale \
        if spans else 0.0


def span_metrics(tracer: Tracer, n_ops: int) -> Dict[str, float]:
    """Per-layer figures read straight off the recorded spans.

    Counts and sums are per op (``n_ops`` traced ops); durations are
    means per call.
    """
    by = {}
    for span in tracer.spans:
        by.setdefault(span.name, []).append(span)
    get = by.get("cache.get", [])
    children = tracer.children()
    read = sum(c.extra.get("bytes", 0) for g in get
               for c in children.get(g.id, ()) if c.name == "wire.decode")
    frames = [s.extra["bytes"] for s in by.get("wire.encode", []) +
              by.get("wire.decode", [])]
    runs = by.get("mpi.cluster_run", [])
    events = sum(s.extra.get("events", 0) for s in runs)
    cells = sum(s.extra.get("cells", 0) for s in by.get("parallel.plan", []))
    plan_s = sum(s.duration for s in by.get("parallel.plan", []) +
                 by.get("parallel.fingerprint", []))
    report = by.get("report.format", [])
    ops = max(1, n_ops)
    return {
        "runner.trial_ms": _mean_ms(by.get("runner.trial", [])),
        "sim.ns_per_event": (sum(s.duration for s in runs) / events * 1e9
                             if events else 0.0),
        "sim.events": events / ops,
        "wire.encode_us": _mean_ms(by.get("wire.encode", []), 1e6),
        "wire.decode_us": _mean_ms(by.get("wire.decode", []), 1e6),
        "wire.frame_bytes": sum(frames) / len(frames) if frames else 0.0,
        "cache.get_us": _mean_ms(get, 1e6),
        "cache.put_us": _mean_ms(by.get("cache.put", []), 1e6),
        "cache.bytes_read": read / ops,
        "cache.hit_ratio": (sum(s.extra["hit"] for s in get) / len(get)
                            if get else 0.0),
        "parallel.plan_us_per_cell": plan_s / cells * 1e6 if cells else 0.0,
        "report.format_ms": sum(s.duration for s in report) / ops * 1e3,
        "patterns.point_ms": _mean_ms(by.get("patterns.run_motif", [])),
        "proxy.snap_ms": _mean_ms(by.get("proxy.run_snap", [])),
        "mpi.cluster_run_ms": _mean_ms(runs),
        "protocol.parse_us": _mean_ms(by.get("protocol.parse", []), 1e6),
        "protocol.encode_us": _mean_ms(by.get("protocol.encode", []), 1e6),
        "server.handler_ms": _mean_ms(by.get("server.handler", [])),
    }


def self_time_table(tracer: Tracer, roots: List[Span]
                    ) -> Tuple[Dict[str, float], float]:
    """Median self time (ms) per layer over the traced ops, and the
    worst relative gap between an op's summed self times and its wall."""
    children = tracer.children()
    per_op = [tracer.op_breakdown(root, children) for root in roots]
    names = sorted({n for b in per_op for n in b})
    table = {n: median([b.get(n, 0.0) for b in per_op]) * 1e3
             for n in names}
    gaps = [abs(sum(b.values()) - r.duration) / r.duration
            for b, r in zip(per_op, roots) if r.duration > 0]
    return table, max(gaps) if gaps else 0.0


def late_p99(late_ms: List[float]) -> float:
    return percentile_value(late_ms, 99.0) if late_ms else 0.0


def digest_share(config) -> float:
    """Re-feed one trial's captured records through a fresh DigestSink.

    Returns (re-feed time) / (trial time); raises if the re-fed digest
    differs from the trial's own.
    """
    from repro.core.runner import run_ptp_benchmark, run_ptp_trial
    from repro.obs import DigestSink, MemorySink
    start = time.perf_counter()
    run_ptp_benchmark(config)
    trial_s = time.perf_counter() - start
    memory = MemorySink()
    result, _ = run_ptp_trial(config, sinks=[(memory, ("*",))])
    sink = DigestSink()
    start = time.perf_counter()
    for record in memory.records:
        sink.accept(record)
    sink.finalize()
    digest = sink.hexdigest()
    refeed_s = time.perf_counter() - start
    if digest != result.event_digest:
        raise RuntimeError("re-fed records do not reproduce the digest")
    return refeed_s / trial_s
