"""End-to-end benchmark of the four user paths of the repro suite.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload ptp-cold --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload service-mixed --seed 1 --trace 1
    python3 e2ebench/run.py --workload ptp-cached --steadiness 10
    python3 e2ebench/run.py --write-reference

Workloads (see README.md in this directory for why each was chosen):
``ptp-cold``, ``ptp-cached``, ``motif-snap`` and ``service-mixed``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it name every figure with its unit.  Exit status is 0 after a
run that printed its result, 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from common import (BENCH_DIR, OUT_DIR, ROOT, median, pin_to_fastest_cpu,
                    quartiles, result_line, tail_percentile,
                    tree_peak_rss_mb, whole_pass_throughput)

WORKLOADS = ("ptp-cold", "ptp-cached", "motif-snap", "service-mixed")


def _import_program() -> None:
    """Import the program from the checkout's ``src/`` (never from an
    installed copy)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro.cli  # noqa: F401
    import repro.service  # noqa: F401
    if not os.path.abspath(repro.cli.__file__).startswith(str(src)):
        raise ImportError(f"repro was imported from {repro.cli.__file__}")


def _print_metrics(title: str, rows: List[Tuple[str, float, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<30} {value:>14.4f} {unit}")


def _report(title: str, metrics: Dict[str, Tuple[float, str]],
            extra: List[Tuple[str, float, str]]) -> None:
    """Print the JSON's metrics, then the figures printed beside them."""
    _print_metrics(title, [(n, v, u) for n, (v, u) in metrics.items()]
                   + extra)


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------

def run_batch(args, out_dir: str) -> str:
    from batch import SETUP_ROUNDS, BatchWorkload, measure
    from common import load_reference
    from repro.core.pool import shutdown_shared_pool
    workload = BatchWorkload(args.workload, load_reference(), out_dir)
    raw_rounds, rounds = zip(*(workload.setup_round()
                               for _ in range(SETUP_ROUNDS)))
    setup_s = median(rounds)
    if args.workload == "ptp-cached":
        # Serial and short: one pinned vCPU, probed before each command.
        pin_to_fastest_cpu()
    if args.trace:
        return run_batch_traced(args, workload)
    ops = measure(workload, args.seed, args.seconds)
    rss = tree_peak_rss_mb()  # this process and any pool workers
    shutdown_shared_pool()
    failed = sum(1 for op in ops if not op.ok) + (not workload.setup_ok)
    corrected = [op.corrected_s for op in ops]
    raw = [op.wall_s for op in ops]
    print(f"workload {args.workload}: {len(ops)} whole passes of "
          f"{workload.items} work items, seed {args.seed}")
    for i, op in enumerate(ops):
        print(f"  pass {i}: raw {op.wall_s * 1e3:.1f} ms, host-corrected "
              f"{op.corrected_s * 1e3:.1f} ms, probe {op.probe_ms:.4f} ms"
              + ("" if op.ok else f"  FAILED: {op.why}"))
    if not workload.setup_ok:
        print(f"  set-up FAILED: {workload.setup_why}")
    attempted = len(ops) + 1
    metrics = {
        "latency_p50_ms": (median(corrected) * 1e3, "ms"),
        "ops_per_s": (whole_pass_throughput(workload.items, corrected),
                      "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s, "s"),
    }
    _report("end-to-end (host-corrected; medians over passes and set-up "
            "rounds):", metrics, [
        ("error_rate", failed / attempted, "ratio"),
        ("raw_latency_p50_ms", median(raw) * 1e3, "ms"),
        ("raw_ops_per_s", whole_pass_throughput(workload.items, raw), "1/s"),
        ("host.probe_ms", median([op.probe_ms for op in ops]), "ms"),
    ])
    print(f"  set-up rounds (raw): "
          f"{', '.join(f'{r:.3f}' for r in raw_rounds)} s")
    print(f"  attempted {attempted} (passes + set-up), failed {failed}")
    return result_line(failed == 0, attempted, failed, metrics)


def run_batch_traced(args, workload) -> str:
    from batch import measure
    from layers import PER_LAYER, Instrumentation, digest_share, span_metrics
    from repro.core.parallel import config_fingerprint
    from repro.core.pool import shutdown_shared_pool
    inst = Instrumentation()
    inst.install()
    tracer = inst.tracer
    half = args.seconds / 2.0
    untraced = measure(workload, args.seed, half)
    tracer.enabled = True
    traced = measure(workload, args.seed + 1, half, tracer)
    tracer.enabled = False
    values = {name: 0.0 for name in PER_LAYER}
    values.update(span_metrics(tracer, len(traced)))
    if args.workload == "ptp-cold":
        from repro.analytic import analytic_supported
        cells = list({config_fingerprint(c): c
                      for c in inst.planned}.values())
        values["analytic.eligible_cells"] = sum(
            1 for c in cells if analytic_supported(c) is None)
        values["obs.digest_share"] = digest_share(cells[len(cells) // 2])
    shutdown_shared_pool()
    return finish_traced(args, tracer, untraced, traced, values,
                         [op.root for op in traced],
                         [op.wall_s for op in traced])


def finish_traced(args, tracer, untraced, traced, values, roots,
                  walls) -> str:
    """Shared tail of a traced run: overhead, self times, Chrome JSON."""
    from layers import PER_LAYER, self_time_table
    values["host.probe_ms"] = median([op.probe_ms for op in traced])
    values["host.raw_latency_p50_ms"] = median(walls) * 1e3
    base = median([op.corrected_s for op in untraced])
    values["trace.overhead"] = median(
        [op.corrected_s for op in traced]) / base - 1.0
    table, gap = self_time_table(tracer, roots)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace.json"
    count = tracer.write_chrome(path)
    tracer.restore()
    print(f"workload {args.workload} (traced): {len(untraced)} untraced "
          f"then {len(traced)} traced ops")
    print(f"  tracing overhead: {values['trace.overhead'] * 100:+.1f}% "
          f"(host-corrected median op, traced vs untraced)")
    print(f"  self time per op (median ms), max |sum - wall| / wall = "
          f"{gap * 100:.2f}% ({'ok' if gap <= 0.05 else 'OVER 5%'}):")
    for name, ms in sorted(table.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<24} {ms:10.3f}")
    print(f"  wrote {count} spans to {path}")
    _print_metrics("per-layer:", [(n, values[n], u)
                                  for n, u in PER_LAYER.items()])
    failed = sum(1 for op in untraced + traced if not op.ok)
    attempted = len(untraced) + len(traced)
    metrics = {n: (float(values[n]), u) for n, u in PER_LAYER.items()}
    return result_line(failed == 0, attempted, failed, metrics)


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------

class _RequestOp:
    """Adapter so service requests share the traced-run tail."""

    def __init__(self, outcome, probe_ms: float) -> None:
        self.ok = outcome.ok
        self.corrected_s = outcome.latency_s
        self.probe_ms = probe_ms


def run_service(args, out_dir: str) -> str:
    from common import host_probe_ms, load_reference
    from service import (DEADLINE_S, LATENCY_LIMIT_MS, Daemon,
                         LoadGenerator, build_schedule, prewarm, summarize)
    reference = load_reference()["service-mixed"]
    plan = build_schedule(args.seed, args.seconds, reference)
    connections = os.cpu_count() or 1
    if args.trace:
        return run_service_traced(args, reference, plan, connections,
                                  out_dir)
    rounds, daemon, prewarm_ok = [], None, True
    for i in range(3):
        if daemon is not None:
            daemon.kill()
        start = time.perf_counter()
        daemon = Daemon(os.path.join(out_dir, f"cache-{i}"),
                        os.path.join(out_dir, "daemon.log"))
        prewarm_ok = prewarm(daemon.port, reference) and prewarm_ok
        rounds.append(time.perf_counter() - start)
    setup_s = median(rounds)
    probe = host_probe_ms()
    try:
        stats0 = daemon.stats()
        outcomes = LoadGenerator(daemon.port, plan, connections).run()
        stats1 = daemon.stats()
        rss = tree_peak_rss_mb()  # this process, the daemon, its workers
    finally:
        daemon.kill()
    s = summarize(outcomes, args.seconds)
    lat = s["latency_ms"]
    tail = tail_percentile(lat)
    failed = s["failed"] + (not prewarm_ok)
    attempted = s["attempted"] + 1
    sched0, sched1 = stats0["scheduler"], stats1["scheduler"]
    delta = {k: sched1[k] - sched0[k] for k in sched1}
    print(f"workload service-mixed: {s['attempted']} requests over "
          f"{args.seconds:g} s (open loop, {connections} connections, "
          f"deadline {DEADLINE_S:g} s), seed {args.seed}")
    metrics = {
        "latency_p50_ms": (median(lat), "ms"),
        "ops_per_s": (s["goodput_rps"], "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s, "s"),
    }
    extra = []
    if tail is not None:
        extra.append((f"latency_p{tail[0]:g}_ms", tail[1], "ms"))
    extra += [
        ("goodput_rps", s["goodput_rps"], "1/s"),
        ("error_rate", failed / attempted, "ratio"),
        ("service.hot_p50_ms", s["hot_p50_ms"], "ms"),
        ("service.cold_p50_ms", s["cold_p50_ms"], "ms"),
        ("host.probe_ms", probe, "ms"),
    ]
    _report(f"end-to-end (raw; ops_per_s = goodput = correct replies within "
            f"{LATENCY_LIMIT_MS:g} ms per scheduled second):", metrics, extra)
    print(f"  failures: {s['timeout']} timeouts, {s['rejected']} rejected "
          f"(429), {s['server_error']} server errors (5xx), "
          f"{s['wrong_digest']} wrong digests, {s['other']} other"
          + ("" if prewarm_ok else "; pre-warm FAILED"))
    print(f"  daemon /stats delta: {json.dumps(delta, sort_keys=True)}")
    print(f"  attempted {attempted} (requests + pre-warm), failed {failed}")
    return result_line(failed == 0, attempted, failed, metrics)


def run_service_traced(args, reference, plan, connections, out_dir) -> str:
    from common import host_probe_ms
    from layers import PER_LAYER, Instrumentation, late_p99, span_metrics
    from repro.obs import CounterSink
    from service import (InProcessDaemon, LoadGenerator, instrument,
                         prewarm, summarize)
    from repro.core.pool import shutdown_shared_pool
    inst = Instrumentation()
    inst.install()
    tracer = inst.tracer
    instrument(tracer)
    probe = host_probe_ms()
    daemon = InProcessDaemon(os.path.join(out_dir, "cache"))
    # Handler threads print BrokenPipe tracebacks when a client gives
    # up; they go to the daemon log, as in the untraced runs.
    log = open(os.path.join(out_dir, "daemon.log"), "a")
    try:
        sys.stderr = log
        prewarm(daemon.port, reference)
        half = len(plan) // 2
        offset = plan[half].due
        first = plan[:half]
        second = [type(p)(p.due - offset, p.config, p.digest, p.cold)
                  for p in plan[half:]]
        untraced = LoadGenerator(daemon.port, first, connections).run()
        pool = daemon.service.scheduler.pool
        before = daemon.stats()["scheduler"]
        chunks = CounterSink()
        pool.obs.attach(chunks, ("pool.dispatch_batch",))
        tasks0, stolen0 = pool.stats.tasks, pool.stats.stolen_tasks
        tracer.enabled = True
        traced = LoadGenerator(daemon.port, second, connections,
                               tracer).run()
        tracer.enabled = False
        after = daemon.stats()["scheduler"]
        tasks = pool.stats.tasks - tasks0
        stolen = pool.stats.stolen_tasks - stolen0
        dispatches = chunks.count("pool.dispatch_batch")
    finally:
        daemon.kill()
        shutdown_shared_pool()
        sys.stderr = sys.__stderr__
        log.close()
    seconds = args.seconds - offset
    s = summarize(traced, seconds)
    values = {name: 0.0 for name in PER_LAYER}
    values.update(span_metrics(tracer, len(traced)))
    roots = [sp for sp in tracer.spans if sp.name == "op"]
    children = tracer.children()
    queue = [tracer.op_breakdown(r, children).get("scheduler.execute", 0.0)
             for r in roots]
    batches = after["batches"] - before["batches"]
    values.update({
        "scheduler.queue_ms": median(queue) * 1e3 if queue else 0.0,
        "scheduler.batches": float(batches),
        "scheduler.requests_per_batch": ((after["requests"]
                                          - before["requests"]) / batches
                                         if batches else 0.0),
        "pool.tasks": float(tasks),
        "pool.stolen_tasks": float(stolen),
        "pool.tasks_per_chunk": tasks / dispatches if dispatches else 0.0,
        "service.hot_p50_ms": s["hot_p50_ms"],
        "service.cold_p50_ms": s["cold_p50_ms"],
        "service.timeouts": float(s["timeout"]),
        "service.rejected": float(s["rejected"]),
        "service.server_errors": float(s["server_error"]),
        "service.wrong_digest": float(s["wrong_digest"]),
        "loadgen.late_p99_ms": late_p99(s["late_ms"]),
    })
    return finish_traced(args, tracer,
                         [_RequestOp(o, probe) for o in untraced],
                         [_RequestOp(o, probe) for o in traced], values,
                         roots, [o.latency_s for o in traced])


# ---------------------------------------------------------------------------
# Steadiness report
# ---------------------------------------------------------------------------

def steadiness(args) -> int:
    """Run one workload N times (fresh processes, seeds 1..N) and print,
    per metric, the median, quartiles, IQR / median and range / median."""
    values: Dict[str, List[float]] = {}
    failed = 0
    for seed in range(1, args.steadiness + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        line = " ".join(f"{k}={v['value']:.4g}"
                        for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"\n{args.workload}: {args.steadiness} runs of {args.seconds} s, "
          f"{failed} failed ops in total")
    print(f"{'metric':<28} {'median':>12} {'Q1':>12} {'Q3':>12} "
          f"{'IQR/med':>8} {'range/med':>9}")
    for name, vals in values.items():
        q1, q2, q3 = quartiles(vals)
        scale = abs(q2) if q2 else 1.0
        print(f"{name:<28} {q2:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{(q3 - q1) / scale:8.3f} "
              f"{(max(vals) - min(vals)) / scale:9.3f}")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run the workload N times and report spreads")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json from serial, "
                             "uncached runs")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if args.write_reference:
        from reference import write_reference
        write_reference()
        return 0
    if args.steadiness:
        return steadiness(args)
    out_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        if args.workload == "service-mixed":
            line = run_service(args, str(out_dir))
        else:
            line = run_batch(args, str(out_dir))
    finally:
        _clean(out_dir)
    print(line, flush=True)
    return 0


def _clean(out_dir) -> None:
    """Drop the run's caches; keep daemon logs for inspection."""
    for entry in os.listdir(out_dir):
        path = os.path.join(out_dir, entry)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
