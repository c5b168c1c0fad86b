"""Shared pieces of the end-to-end benchmark: statistics, the host probe,
run bookkeeping, peak memory, and the committed reference outputs.

Nothing here imports :mod:`repro`; the workload modules do.
"""

from __future__ import annotations

import gc
import json
import math
import os
import pathlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: The benchmark's own directory and the checkout it runs from.
BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Everything a run writes (cache directories, daemon logs, Chrome
#: traces) lives under this directory of the checkout.
OUT_DIR = ROOT / ".e2ebench-out"

#: The committed serial, uncached reference outputs (see ``reference.py``).
REFERENCE_PATH = BENCH_DIR / "reference.json"

#: Reference probe time (ms) that host-corrected timings are scaled to:
#: the probe on the quieter vCPU of the development host (2 vCPU,
#: Python 3.11).  It is a fixed unit, never re-measured per run, so
#: corrected figures stay comparable across runs and commits.
REFERENCE_PROBE_MS = 0.85

#: The vCPUs this process may run on, read before any pinning.
CPUS = sorted(os.sched_getaffinity(0))

#: Fixed iteration count of the probe kernel (~0.9 ms per repetition).
PROBE_ITERATIONS = 8000
#: Repetitions per probe; the fastest one is kept, so one interrupt
#: during a repetition does not read as a slow host.
PROBE_REPEATS = 3


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own quartiles.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(values: Sequence[float], min_beyond: int = 10
                    ) -> Optional[Tuple[float, float]]:
    """The highest tail percentile with at least ``min_beyond`` samples
    beyond it, as ``(percentile, value)``; None when even p75 has fewer.

    The value is the nearest-rank percentile: the smallest sample with at
    least ``p`` percent of the samples at or below it.
    """
    n = len(values)
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= min_beyond:
            return p, ordered[rank - 1]
    return None


def percentile_value(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def whole_pass_throughput(items_per_pass: int,
                          pass_seconds: Sequence[float]) -> float:
    """Work items per second from whole passes: fixed work divided by the
    median pass time (never a rate over a partial pass)."""
    return items_per_pass / median(pass_seconds)


def correct_for_host(wall_s: float, probe_ms: float,
                     reference_ms: float = REFERENCE_PROBE_MS) -> float:
    """Scale a CPU-bound wall time to the reference host speed.

    A host running the probe in ``probe_ms`` is ``probe_ms /
    reference_ms`` times slower than the reference, so the work would
    have taken ``wall * reference / probe`` there.
    """
    if probe_ms <= 0:
        raise ValueError(f"probe time must be positive: {probe_ms}")
    return wall_s * reference_ms / probe_ms


# ---------------------------------------------------------------------------
# The host probe
# ---------------------------------------------------------------------------

def _probe_kernel(iterations: int) -> int:
    table: Dict[int, int] = {}
    for i in range(iterations):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return len(table)


def host_probe_ms(iterations: int = PROBE_ITERATIONS,
                  repeats: int = PROBE_REPEATS) -> float:
    """Time the fixed pure-Python probe (GC paused); fastest repeat, ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            _probe_kernel(iterations)
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best * 1e3


def _on_cpu(cpu: int) -> float:
    os.sched_setaffinity(0, {cpu})
    return host_probe_ms()


def pin_to_fastest_cpu() -> int:
    """Pin this process to the vCPU that runs the probe fastest now.

    On the development host the two vCPUs differ by up to 1.6x at the
    same moment (a busy neighbour on one of them), and an unpinned
    process migrates between them every few hundred milliseconds, so a
    probe taken before an op says little about the vCPU the op then
    runs on.  ptp-cached pins once after set-up; the probe before each
    command then tracks that one vCPU's drift.
    """
    speeds = {cpu: min(_on_cpu(cpu), _on_cpu(cpu)) for cpu in CPUS}
    best = min(CPUS, key=lambda cpu: speeds[cpu])
    os.sched_setaffinity(0, {best})
    return best


def fastest_cpu_probe_ms() -> float:
    """Probe every vCPU, move this process to the fastest; its probe (ms).

    Used before each command and item of ptp-cold and motif-snap:
    running each on the vCPU that is quiet right now keeps most of the
    work out of the slow regimes a probe-based correction only partly
    explains.
    """
    times = {cpu: _on_cpu(cpu) for cpu in CPUS}
    best = min(times, key=times.get)
    os.sched_setaffinity(0, {best})
    return times[best]


def all_cpus_probe_ms() -> float:
    """Probe every vCPU and restore the affinity; their harmonic mean (ms).

    Used around set-up rounds, whose work (a fresh interpreter, a pooled
    cache fill) may run on any vCPU: the host's capacity is the sum of
    the vCPU speeds, so the equivalent single probe time is the harmonic
    mean of the per-vCPU times.
    """
    try:
        times = [_on_cpu(cpu) for cpu in CPUS]
    finally:
        os.sched_setaffinity(0, CPUS)
    return len(times) / sum(1.0 / t for t in times)


# ---------------------------------------------------------------------------
# Run bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One measured op: its timed segments and the probe of each.

    A batch op is a whole pass made of segments (commands, and the
    cells or motif items inside them), each scaled by its own probe;
    ``corrected_s`` sums the scaled segments, so a host-speed change
    mid-pass is caught at the next segment boundary.
    """

    segments: List[Tuple[float, float]] = field(default_factory=list)
    ok: bool = True
    why: str = ""
    #: The op's root span in a traced run.
    root: Optional[object] = None

    def add(self, wall_s: float, probe_ms: float) -> None:
        self.segments.append((wall_s, probe_ms))

    @property
    def wall_s(self) -> float:
        return sum(w for w, _ in self.segments)

    @property
    def corrected_s(self) -> float:
        return sum(correct_for_host(w, p) for w, p in self.segments)

    @property
    def probe_ms(self) -> float:
        return median([p for _, p in self.segments])


def fail(op: Op, why: str) -> None:
    """Mark ``op`` failed, keeping the first reason."""
    if op.ok:
        op.ok = False
        op.why = why


# ---------------------------------------------------------------------------
# Peak memory of the benchmark's process tree
# ---------------------------------------------------------------------------

def _children(pid: int) -> List[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stream:
                stat = stream.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(b")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Sum of peak RSS (VmHWM) over this process and its descendants."""
    total = 0
    stack = [os.getpid()]
    seen = set()
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += _peak_rss_kb(pid)
        stack.extend(_children(pid))
    return total / 1024.0


# ---------------------------------------------------------------------------
# Reference outputs
# ---------------------------------------------------------------------------

def load_reference() -> Dict:
    """The committed reference file (tables and digests per workload)."""
    with open(REFERENCE_PATH, encoding="utf-8") as stream:
        return json.load(stream)


def strip_footer(text: str) -> str:
    """A figure command's output without its provenance footer.

    The footer (``sweep engine: ...; cache at ...``) names cache paths,
    worker ids and hit counts, which differ between a serial uncached
    run and a pooled cached one while the tables are identical.
    """
    paragraphs = text.strip().split("\n\n")
    kept = [p for p in paragraphs if not p.startswith("sweep engine:")]
    return "\n\n".join(kept)


def executed_cells(text: str) -> int:
    """Cells the engine executed, summed from a command's footer(s)."""
    total = 0
    for line in text.splitlines():
        if line.startswith("sweep engine:"):
            # "sweep engine: N cells, M executed (T trials), ..."
            total += int(line.split(",")[1].split()[0])
    return total


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    """The final JSON line of a run."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
