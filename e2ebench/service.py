"""The service-mixed workload: an open loop against ``repro serve``.

Untraced runs boot a fresh ``repro serve --port 0 --cache-dir <fresh>``
with its default flags in its own process group, stderr to a log file
under the output directory.  Traced runs host the same daemon
in-process, built the way ``repro serve`` builds it, so handler,
scheduler and engine spans share one tree.

The load is an open loop: Poisson arrivals at ``RATE`` requests/s from
one process with at most ``os.cpu_count()`` requests in flight, each on
its own connection.
Each request is timed from when it was due, so a stall shows in every
request it delays.  Nine in ten requests draw from ``HOT`` configs
pre-warmed in set-up; exactly one in ten is cold, each with a seed of
its own.  Every request is bounded by ``DEADLINE_S``; a reply counts as
good only with status 200 and the reference event digest.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import ROOT, median

#: Offered load (requests per second).
RATE = 50.0
#: Share of requests that miss the cache.
COLD_SHARE = 0.10
#: Client deadline per request; a request not answered by then failed.
DEADLINE_S = 1.0
#: Latency limit a good reply must meet to count toward goodput.
LATENCY_LIMIT_MS = 250.0
#: Distinct cold seeds the reference covers (more than any run draws).
COLD_POOL = 400

#: The hot configs (protocol payloads), pre-warmed in set-up.
HOT: List[Dict] = [
    {"message_bytes": m, "partitions": n, "compute_seconds": 0.01,
     "iterations": 5}
    for m in (4096, 65536, 1 << 20, 4 << 20) for n in (4, 16)]


def cold_config(seed: int) -> Dict:
    """The cold config for one seed (a distinct cache fingerprint)."""
    return {"message_bytes": 1 << 20, "partitions": 16,
            "compute_seconds": 0.01, "iterations": 5,
            "seed": 1000 + seed}


@dataclass
class Planned:
    """One scheduled request."""

    due: float          # seconds after the schedule starts
    config: Dict
    digest: str         # the reference event digest
    cold: bool


def build_schedule(seed: int, seconds: float, reference: Dict
                   ) -> List[Planned]:
    """Poisson arrivals, exactly ``COLD_SHARE`` cold at seeded positions."""
    rng = random.Random(seed)
    dues = []
    t = rng.expovariate(RATE)
    while t < seconds:
        dues.append(t)
        t += rng.expovariate(RATE)
    n_cold = round(COLD_SHARE * len(dues))
    cold_at = set(rng.sample(range(len(dues)), n_cold))
    cold_seeds = iter(rng.sample(range(COLD_POOL), n_cold))
    plan = []
    for i, due in enumerate(dues):
        if i in cold_at:
            s = next(cold_seeds)
            plan.append(Planned(due, cold_config(s),
                                reference["cold"][s], True))
        else:
            h = rng.randrange(len(HOT))
            plan.append(Planned(due, HOT[h], reference["hot"][h], False))
    return plan


@dataclass
class Outcome:
    """What the client saw for one request."""

    planned: Planned
    late_s: float       # due -> sent
    latency_s: float    # due -> reply; a failure counts at the deadline
    kind: str           # ok | timeout | rejected | server_error |
    #                     wrong_digest | other

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------

def _connect(port: int, timeout: float) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)


def http_json(port: int, method: str, path: str,
              payload: Optional[Dict] = None,
              timeout: float = 30.0) -> Tuple[int, Dict]:
    """One request on a fresh connection; returns (status, JSON body)."""
    conn = _connect(port, timeout)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def prewarm(port: int, reference: Dict) -> bool:
    """Request every hot config once; True when each digest matches."""
    ok = True
    for config, digest in zip(HOT, reference["hot"]):
        status, body = http_json(port, "POST", "/trial",
                                 {"config": config, "client": "bench"})
        ok = ok and status == 200 and body.get("event_digest") == digest
    return ok


class LoadGenerator:
    """Open-loop sender: ``connections`` threads walk one schedule.

    A thread takes the next request, sleeps until it is due, sends it
    and waits at most ``DEADLINE_S``.  A request whose deadline passed
    before a connection freed up is counted as a timeout unsent.
    ``tracer`` (optional) records an ``op`` span per request and passes
    its id to the daemon in headers.
    """

    def __init__(self, port: int, plan: List[Planned],
                 connections: int, tracer=None) -> None:
        self.port = port
        self.plan = plan
        self.connections = connections
        self.tracer = tracer
        self.outcomes: List[Optional[Outcome]] = [None] * len(plan)
        self._next = 0
        self._lock = threading.Lock()

    def run(self) -> List[Outcome]:
        self.t0 = time.perf_counter() + 0.05
        threads = [threading.Thread(target=self._sender, daemon=True)
                   for _ in range(self.connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [o for o in self.outcomes if o is not None]

    def _take(self) -> Optional[int]:
        with self._lock:
            if self._next >= len(self.plan):
                return None
            self._next += 1
            return self._next - 1

    def _sender(self) -> None:
        while True:
            i = self._take()
            if i is None:
                return
            planned = self.plan[i]
            due = self.t0 + planned.due
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            if sent - due >= DEADLINE_S:
                self.outcomes[i] = Outcome(planned, sent - due,
                                           sent - due, "timeout")
                continue
            kind = self._send(planned, due, sent)
            # A failed request (refused, wrong, or timed out) counts as
            # answered at the client deadline.
            latency = time.perf_counter() - due if kind == "ok" \
                else sent - due + DEADLINE_S
            self.outcomes[i] = Outcome(planned, sent - due, latency, kind)

    def _send(self, planned: Planned, due: float, sent: float) -> str:
        """One request on its own connection, as ``ServiceClient`` does.

        A kept-alive connection would add a ~40 ms delayed-ACK stall per
        reply: the daemon writes headers and body in two segments with
        Nagle's algorithm on.
        """
        tracer = self.tracer
        headers = {"Content-Type": "application/json"}
        root = None
        if tracer is not None and tracer.enabled:
            root = tracer.begin("op")
            root.start = due
            tracer.op = root.id
            wait = tracer.begin("loadgen.wait")
            wait.start = due
            wait.end = sent
            tracer.end(wait)
            headers["X-Bench-Op"] = str(root.id)
            headers["X-Bench-Parent"] = str(root.id)
        body = json.dumps({"config": planned.config, "client": "bench"})
        conn = _connect(self.port, DEADLINE_S - (sent - due))
        try:
            conn.request("POST", "/trial", body=body.encode(),
                         headers=headers)
            response = conn.getresponse()
            raw = response.read()
            status = response.status
        except TimeoutError:
            return "timeout"
        except (OSError, http.client.HTTPException):
            return "other"
        finally:
            conn.close()
            if root is not None:
                tracer.end(root)
                tracer.op = None
        if status == 429:
            return "rejected"
        if status >= 500:
            return "server_error"
        if status != 200:
            return "other"
        try:
            digest = json.loads(raw).get("event_digest")
        except ValueError:
            return "other"
        return "ok" if digest == planned.digest else "wrong_digest"


# ---------------------------------------------------------------------------
# The daemon, as a separate process group
# ---------------------------------------------------------------------------

class Daemon:
    """A ``repro serve`` process in its own process group."""

    def __init__(self, cache_dir: str, log_path: str) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=self._log, env=env,
            cwd=str(ROOT), start_new_session=True)
        line = self._read_banner()
        if "http://" not in line:
            self.kill()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        deadline = time.perf_counter() + 30
        while True:
            try:
                if http_json(self.port, "GET", "/healthz",
                             timeout=2.0)[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.kill()
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.02)

    def _read_banner(self) -> str:
        box: List[bytes] = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(60)
        return box[0].decode(errors="replace") if box else ""

    def stats(self) -> Dict:
        return http_json(self.port, "GET", "/stats", timeout=5.0)[1]

    def kill(self) -> None:
        """SIGKILL the whole process group and reap the daemon."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


class InProcessDaemon:
    """The same daemon objects ``repro serve`` builds, in this process."""

    def __init__(self, cache_dir: str) -> None:
        from repro.cli import build_parser
        from repro.core import ResultCache, shared_pool
        from repro.service import SweepScheduler, SweepService
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--cache-dir", cache_dir])
        jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
        pool = shared_pool(jobs) if jobs > 1 else None
        scheduler = SweepScheduler(
            pool=pool, cache=ResultCache(cache_dir), jobs=jobs,
            analytic=args.analytic, quota=args.quota,
            batch_window=args.batch_window, max_batch=args.max_batch,
            dispatchers=args.dispatchers)
        self.service = SweepService(
            scheduler, host=args.host, port=0,
            request_timeout=args.request_timeout).start()
        self.port = self.service.address[1]

    def stats(self) -> Dict:
        return self.service.stats()

    def kill(self) -> None:
        self.service.stop()


def instrument(tracer) -> None:
    """Patch the service layers' public entry points for tracing."""
    import repro.service.scheduler as scheduler_mod
    import repro.service.server as server_mod
    handler_cls = server_mod._Handler
    links: Dict[int, int] = {}

    original_post = handler_cls.do_POST

    def do_post(handler):
        if not tracer.enabled:
            return original_post(handler)
        op = handler.headers.get("X-Bench-Op")
        parent = handler.headers.get("X-Bench-Parent")
        tracer.op = int(op) if op else None
        span = tracer.begin("server.handler",
                            parent=int(parent) if parent else None)
        try:
            return original_post(handler)
        finally:
            tracer.end(span)
            tracer.op = None

    tracer.patch(handler_cls, "do_POST", do_post)

    original_execute = scheduler_mod.SweepScheduler.execute

    def execute(scheduler, config, *args, **kwargs):
        if not tracer.enabled:
            return original_execute(scheduler, config, *args, **kwargs)
        span = tracer.begin("scheduler.execute")
        links[id(config)] = span.id
        try:
            return original_execute(scheduler, config, *args, **kwargs)
        finally:
            tracer.end(span)

    tracer.patch(scheduler_mod.SweepScheduler, "execute", execute)

    original_run_cells = scheduler_mod.run_cells

    def run_cells(cells, *args, **kwargs):
        if not tracer.enabled:
            return original_run_cells(cells, *args, **kwargs)
        span = tracer.begin("parallel.run_cells")
        span.extra["links"] = [links.pop(id(c)) for c in cells
                               if id(c) in links]
        span.extra["cells"] = len(cells)
        try:
            return original_run_cells(cells, *args, **kwargs)
        finally:
            tracer.end(span)

    tracer.patch(scheduler_mod, "run_cells", run_cells)
    tracer.wrap(server_mod, "parse_trial_request", "protocol.parse")
    tracer.wrap(server_mod, "result_to_payload", "protocol.encode")


def summarize(outcomes: List[Outcome], seconds: float) -> Dict[str, float]:
    """Client-side figures of one window of requests."""
    lat_ms = [o.latency_s * 1e3 for o in outcomes]
    good = sum(1 for o in outcomes
               if o.ok and o.latency_s * 1e3 <= LATENCY_LIMIT_MS)
    counts = {k: sum(1 for o in outcomes if o.kind == k)
              for k in ("timeout", "rejected", "server_error",
                        "wrong_digest", "other")}
    hot = [o.latency_s * 1e3 for o in outcomes if not o.planned.cold]
    cold = [o.latency_s * 1e3 for o in outcomes if o.planned.cold]
    late = sorted(o.late_s * 1e3 for o in outcomes)
    return {
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if not o.ok),
        "latency_ms": lat_ms,
        "goodput_rps": good / seconds,
        "hot_p50_ms": median(hot) if hot else 0.0,
        "cold_p50_ms": median(cold) if cold else 0.0,
        "late_ms": late,
        **counts,
    }
