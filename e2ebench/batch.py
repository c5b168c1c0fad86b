"""The three batch workloads: ptp-cold, ptp-cached and motif-snap.

Each op is one whole pass of figure commands run through
``repro.cli.main`` exactly as a user types them; the workload seed only
orders the commands within each pass.  Every pass is checked against
the committed serial, uncached reference (tables with the provenance
footer stripped, plus the event digest of every cell a cold pass
wrote).  Timings are corrected for host speed segment by segment (see
``README.md``).
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import struct
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (ROOT, Op, all_cpus_probe_ms, correct_for_host,
                    executed_cells, fail, fastest_cpu_probe_ms, host_probe_ms,
                    strip_footer)

PTP_COMMANDS = ("fig4", "fig5", "fig6", "fig7", "fig8")
MOTIF_COMMANDS = ("fig9", "fig11", "fig13")

#: Set-up rounds per run; ``setup_s`` reports their host-corrected median.
SETUP_ROUNDS = 5

#: ptp-cold runs the engine serially: the pooled pass (CLI default
#: ``--jobs`` = nproc) spread 12.5 % IQR / 21 % range over ten runs even
#: after correction, since the DES then runs in workers the per-cell
#: probes cannot reach.
COLD_JOBS = ["--jobs", "1"]

#: Cache entry envelope: magic, schema, label length (then label, frame).
_ENVELOPE = struct.Struct("<4sHH")


def run_command(argv: List[str]) -> Tuple[str, float]:
    """Run one CLI command in-process; returns (stdout text, wall s)."""
    from repro import cli
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
    return buf.getvalue(), wall


def import_in_fresh_interpreter() -> None:
    """Start a new interpreter that imports the program, and wait."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import repro.cli"], env=env,
                   cwd=str(ROOT), check=True, timeout=120)


def cache_digests(root: str) -> Dict[str, str]:
    """fingerprint -> event digest of every entry in a cache directory."""
    from repro.core.wire import decode_result
    out = {}
    for shard in os.listdir(root):
        shard_dir = os.path.join(root, shard)
        for name in os.listdir(shard_dir):
            if not name.endswith(".bin"):
                continue
            with open(os.path.join(shard_dir, name), "rb") as stream:
                blob = stream.read()
            _, _, label_len = _ENVELOPE.unpack_from(blob, 0)
            frame = blob[_ENVELOPE.size + label_len:]
            out[name[:-4]] = decode_result(None, frame).event_digest
    return out


def probe(tracer, probe_ms) -> float:
    """Run one probe, as a ``bench.probe`` span while tracing."""
    if tracer is None or not tracer.enabled:
        return probe_ms()
    with tracer.span("bench.probe"):
        return probe_ms()


class ItemProbes:
    """Host probes around each unit of work inside a command.

    A command runs for up to seconds, longer than one host speed
    regime, so ops are corrected item by item: the wrapper moves the
    process to the vCPU that probes fastest, runs the item there,
    probes again, scales the item's wall by the mean of the two probes,
    and keeps the probes' cost out of the wall.  Items are the DES cells
    of ptp-cold and the motif points and SNAP runs of motif-snap.
    """

    def __init__(self, targets) -> None:
        #: (item wall s, mean probe ms, probe cost s) per call, in order.
        self.items: List[Tuple[float, float, float]] = []
        #: The tracer of the pass in progress (None when untraced).
        self.tracer = None
        for owner, attr in targets:
            setattr(owner, attr, self._probed(getattr(owner, attr)))

    def _probed(self, fn):
        def probed(*args, **kwargs):
            start = time.perf_counter()
            before = probe(self.tracer, fastest_cpu_probe_ms)
            begin = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            after = probe(self.tracer, host_probe_ms)
            self.items.append((end - begin, (before + after) / 2.0,
                               time.perf_counter() - end + begin - start))
            return result
        return probed


def _item_targets(name: str):
    if name == "ptp-cached":
        return []
    if name == "ptp-cold":
        import repro.core.parallel as parallel
        return [(parallel, "run_ptp_benchmark")]
    import repro.patterns.runner as patterns
    import repro.proxy.projection as projection
    return [(patterns, "run_motif"), (projection, "run_snap")]


class BatchWorkload:
    """One batch workload: its commands, set-up and per-pass checks."""

    def __init__(self, name: str, reference: Dict, out_dir: str) -> None:
        self.name = name
        motif = name == "motif-snap"
        self.ref = reference["motif-snap" if motif else "ptp"]
        self.commands = MOTIF_COMMANDS if motif else PTP_COMMANDS
        self.items = self.ref["items"]
        self.out_dir = out_dir
        self._dirs = 0
        #: The filled cache ptp-cached reads (set up by ``setup_round``).
        self.fill_dir: Optional[str] = None
        self.setup_ok = True
        self.setup_why = ""
        self.item_probes: Optional[ItemProbes] = None

    def _fresh_dir(self) -> str:
        self._dirs += 1
        return os.path.join(self.out_dir, f"cache-{self._dirs}")

    def argv(self, command: str, cache_dir: Optional[str]) -> List[str]:
        argv = [command]
        if self.name == "ptp-cold":
            argv += COLD_JOBS
        if cache_dir is not None:
            argv += ["--cache-dir", cache_dir]
        return argv

    # -- set-up ------------------------------------------------------------

    def setup_round(self) -> Tuple[float, float]:
        """One set-up round: what a user pays before the first op.

        Returns the raw wall and the wall scaled by the mean of an
        all-vCPU probe before and after the round.

        Every round imports the program in a fresh interpreter; then
        ptp-cached boots the warm pool and fills the cache it will read,
        ptp-cold warms the serial engine with ``fig8`` (48 cells), and
        motif-snap warms the motif and proxy code on one small point.
        """
        from repro.core.pool import shutdown_shared_pool
        shutdown_shared_pool()
        before = all_cpus_probe_ms()
        wall = self._setup_work()
        probe_ms = (before + all_cpus_probe_ms()) / 2.0
        return wall, correct_for_host(wall, probe_ms)

    def _setup_work(self) -> float:
        start = time.perf_counter()
        import_in_fresh_interpreter()
        if self.name == "motif-snap":
            from repro.patterns import CommMode, PatternConfig, run_motif
            from repro.proxy import SnapConfig, run_snap
            run_motif("halo3d", PatternConfig(
                mode=CommMode.PARTITIONED, threads=8, message_bytes=65536,
                compute_seconds=0.01, steps=1, iterations=1, warmup=0))
            run_snap(SnapConfig(nodes=2))
            return time.perf_counter() - start
        cache_dir = self._fresh_dir()
        commands = self.commands if self.name == "ptp-cached" else ("fig8",)
        texts = {c: run_command(self.argv(c, cache_dir))[0]
                 for c in commands}
        wall = time.perf_counter() - start
        op = Op()
        self.check_tables(op, texts)
        if self.name == "ptp-cached":
            self.check_digests(op, cache_dir)
            if self.fill_dir is not None:
                shutil.rmtree(self.fill_dir, ignore_errors=True)
            self.fill_dir = cache_dir
        else:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if not op.ok:
            self.setup_ok, self.setup_why = False, op.why
        return wall

    # -- checks ------------------------------------------------------------

    def check_tables(self, op: Op, texts: Dict[str, str]) -> None:
        for command, text in texts.items():
            if strip_footer(text) != self.ref["tables"][command]:
                fail(op, f"{command} output differs from the reference")

    def check_digests(self, op: Op, cache_dir: str) -> None:
        if cache_digests(cache_dir) != self.ref["digests"]:
            fail(op, "cell event digests differ from the reference")

    # -- one op ------------------------------------------------------------

    def run_pass(self, rng: random.Random, tracer=None) -> Op:
        """One whole pass in seed order, corrected segment by segment."""
        from repro.core.runner import EXECUTIONS
        order = list(self.commands)
        rng.shuffle(order)
        cache_dir = self.fill_dir if self.name == "ptp-cached" \
            else self._fresh_dir() if self.name == "ptp-cold" else None
        if self.item_probes is None:
            # Installed on first use, after any tracer patches, so the
            # probes stay outside the traced layer spans.
            self.item_probes = ItemProbes(_item_targets(self.name))
        self.item_probes.tracer = tracer
        items = self.item_probes.items
        op = Op()
        texts = {}
        trials_before = EXECUTIONS.value
        root = tracer.begin("op") if tracer is not None else None
        for command in order:
            before = probe(tracer, fastest_cpu_probe_ms
                           if self.name != "ptp-cached" else host_probe_ms)
            first_item = len(items)
            if tracer is not None:
                span = tracer.begin("cli.main")
                span.extra["command"] = command
                text, wall = run_command(self.argv(command, cache_dir))
                tracer.end(span)
            else:
                text, wall = run_command(self.argv(command, cache_dir))
            inner = items[first_item:]
            # The command's own share (planning, cache, tables) by the
            # probe before it, then each item by its own probes.
            op.add(wall - sum(w + cost for w, _, cost in inner), before)
            for item_wall, item_probe, _ in inner:
                op.add(item_wall, item_probe)
            texts[command] = text
        if root is not None:
            tracer.end(root)
            op.root = root
        self.check_tables(op, texts)
        executed = sum(executed_cells(t) for t in texts.values())
        if self.name == "ptp-cold":
            if executed != self.ref["executed"]:
                fail(op, f"executed {executed} cells, expected "
                         f"{self.ref['executed']}")
            self.check_digests(op, cache_dir)
            shutil.rmtree(cache_dir, ignore_errors=True)
        elif self.name == "ptp-cached":
            if executed or EXECUTIONS.value != trials_before:
                fail(op, f"cached pass executed {executed} DES cell(s)")
        return op


def measure(workload: BatchWorkload, seed: int, seconds: float,
            tracer=None) -> List[Op]:
    """Whole passes until ``seconds`` run out.

    A pass starts only if the previous one says it can finish in time,
    so the run stays near its length; at least one pass always runs.
    """
    rng = random.Random(seed)
    ops: List[Op] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        ops.append(workload.run_pass(rng, tracer))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return ops
